//! Result records shared by the real and simulated engines.

use crate::real::RunObservations;
use ratiomodel::OnlinePredictor;

/// The four parallel-write methods of the paper's Figure 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// (1) Independent write, no compression (the paper's first
    /// baseline; independent beats collective for raw data, §IV-D).
    NoCompression,
    /// (2) Compression filter + collective write (H5Z-SZ baseline).
    FilterCollective,
    /// (3) Predictive overlap of compression and independent async
    /// write, original field order.
    Overlap,
    /// (4) Overlap + compression-order optimization (Algorithm 1).
    OverlapReorder,
}

impl Method {
    /// All methods, in the paper's presentation order.
    pub const ALL: [Method; 4] = [
        Method::NoCompression,
        Method::FilterCollective,
        Method::Overlap,
        Method::OverlapReorder,
    ];

    /// Short label used in tables.
    pub fn label(&self) -> &'static str {
        match self {
            Method::NoCompression => "no-compression",
            Method::FilterCollective => "filter+collective",
            Method::Overlap => "overlapping",
            Method::OverlapReorder => "overlap+reorder",
        }
    }
}

/// Mean relative size error `|predicted − actual| / actual` of one
/// step's partitions, over those with a non-empty actual stream (0
/// when there are none) — the per-step prediction-error figure both
/// the simulated and the real stream report.
pub fn mean_rel_size_err(pairs: impl IntoIterator<Item = (u64, u64)>) -> f64 {
    let mut sum = 0.0;
    let mut n = 0usize;
    for (predicted, actual) in pairs {
        if actual > 0 {
            sum += (predicted as f64 - actual as f64).abs() / actual as f64;
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Per-phase time breakdown (the stacked bars of Fig. 16/17).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Breakdown {
    /// Ratio/throughput prediction (sampling) time.
    pub predict: f64,
    /// All-gather communication time (prediction + overflow rounds).
    pub allgather: f64,
    /// Compression time (max over ranks of the serial compute span).
    pub compress: f64,
    /// Write time. For overlapped methods this is the *extra* write
    /// time after the last compression finished (the paper's gray
    /// bar); for baselines it is the full write phase.
    pub write: f64,
    /// Overflow handling time (gather + redirected writes).
    pub overflow: f64,
    /// Read-back verification time (re-open, pipelined decode, bound
    /// check); zero unless the run enables verification.
    pub verify: f64,
}

impl Breakdown {
    /// Sum of all phases.
    pub fn total(&self) -> f64 {
        self.predict + self.allgather + self.compress + self.write + self.overflow + self.verify
    }

    /// Phase-wise maximum: a run's breakdown is the slowest rank's
    /// figure in each phase.
    pub(crate) fn max_merge(&mut self, other: &Breakdown) {
        self.predict = self.predict.max(other.predict);
        self.allgather = self.allgather.max(other.allgather);
        self.compress = self.compress.max(other.compress);
        self.write = self.write.max(other.write);
        self.overflow = self.overflow.max(other.overflow);
        self.verify = self.verify.max(other.verify);
    }
}

/// Outcome of one parallel-write run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunResult {
    /// Which method ran.
    pub method: Method,
    /// End-to-end time (slowest rank), seconds.
    pub total_time: f64,
    /// Phase breakdown.
    pub breakdown: Breakdown,
    /// Uncompressed bytes across all partitions.
    pub raw_bytes: u64,
    /// Actual compressed bytes (= raw for no-compression).
    pub compressed_bytes: u64,
    /// Bytes occupied in the shared file (reserved + overflow).
    pub file_bytes: u64,
    /// Partitions that overflowed their reservation.
    pub n_overflow: usize,
    /// Total overflow bytes redirected.
    pub overflow_bytes: u64,
    /// Bytes the reservation collective moved, summed over ranks
    /// ([`crate::plan::reservation_wire_bytes`] × ranks); 0 for the
    /// methods that reserve nothing.
    pub reservation_wire_bytes: u64,
    /// Peak depth of one rank's async write queue
    /// ([`h5lite::EventSet::high_water`]), maximum over ranks; 0 where
    /// no queue ran (collective writes, simulated runs).
    pub queue_depth_max: u64,
}

impl RunResult {
    /// Effective compression ratio including extra-space waste
    /// (the paper's "actual compression ratio", e.g. 14.13× vs the
    /// ideal 17.94× in Fig. 16).
    pub fn effective_ratio(&self) -> f64 {
        self.raw_bytes as f64 / self.file_bytes.max(1) as f64
    }

    /// Ideal compression ratio (no extra space).
    pub fn ideal_ratio(&self) -> f64 {
        self.raw_bytes as f64 / self.compressed_bytes.max(1) as f64
    }

    /// Storage overhead relative to the ideal compressed size.
    pub fn storage_overhead(&self) -> f64 {
        self.file_bytes as f64 / self.compressed_bytes.max(1) as f64 - 1.0
    }

    /// Storage overhead relative to the *original* data (the paper's
    /// headline "1.5 % of original data" framing).
    pub fn storage_overhead_vs_original(&self) -> f64 {
        (self.file_bytes.saturating_sub(self.compressed_bytes)) as f64
            / self.raw_bytes.max(1) as f64
    }

    /// Speedup of this run over another (other / self).
    pub fn speedup_over(&self, other: &RunResult) -> f64 {
        other.total_time / self.total_time
    }
}

/// What one streamed checkpoint cost — the one per-step record of
/// both stream engines (`timeline::run_timeline` over real threads and
/// real I/O, [`crate::sim::simulate_stream`] over partition profiles),
/// filled by [`crate::step::StreamState::step`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepMetrics {
    /// Timestep index.
    pub step: usize,
    /// The underlying engine result (timings, file size, overflows).
    pub result: RunResult,
    /// Bytes reserved across all partitions.
    pub reserved_bytes: u64,
    /// Reserved bytes left unused — the extra-space waste the
    /// adaptive headroom exists to shrink.
    pub waste_bytes: u64,
    /// Sum of predicted compressed sizes.
    pub predicted_bytes: u64,
    /// Sum of actual compressed sizes.
    pub actual_bytes: u64,
    /// Mean relative prediction error: in adaptive mode the
    /// predictor's EWMA-tracked error after this step's feedback
    /// ([`OnlinePredictor::mean_rel_err`]), in static mode (no EWMA)
    /// the step's instantaneous error ([`mean_rel_size_err`]).
    pub mean_rel_err: f64,
}

impl StepMetrics {
    /// Derive one step's metrics from the engine output.
    pub fn collect(
        step: usize,
        result: RunResult,
        obs: &RunObservations,
        mean_rel_err: f64,
    ) -> Self {
        let mut reserved = 0u64;
        let mut waste = 0u64;
        let mut predicted = 0u64;
        let mut actual = 0u64;
        for o in obs.iter().flatten() {
            reserved += o.reserved;
            // Bytes of the reservation the partition did not fill (an
            // overflowing partition fills it exactly).
            waste += o.reserved.saturating_sub(o.in_slot());
            predicted += o.predicted;
            actual += o.actual;
        }
        StepMetrics {
            step,
            result,
            reserved_bytes: reserved,
            waste_bytes: waste,
            predicted_bytes: predicted,
            actual_bytes: actual,
            mean_rel_err,
        }
    }
}

/// Aggregate outcome of one checkpoint stream, real or simulated.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineReport {
    /// [`crate::AdaptMode::label`] of the run.
    pub mode: String,
    /// One entry per streamed step, in step order.
    pub steps: Vec<StepMetrics>,
}

impl TimelineReport {
    /// Cumulative extra-space waste across the stream.
    pub fn total_waste(&self) -> u64 {
        self.steps.iter().map(|s| s.waste_bytes).sum()
    }

    /// Total overflow-redirection events across the stream.
    pub fn total_overflows(&self) -> usize {
        self.steps.iter().map(|s| s.result.n_overflow).sum()
    }

    /// Total bytes redirected to overflow regions.
    pub fn total_overflow_bytes(&self) -> u64 {
        self.steps.iter().map(|s| s.result.overflow_bytes).sum()
    }

    /// Total container-file bytes written.
    pub fn total_file_bytes(&self) -> u64 {
        self.steps.iter().map(|s| s.result.file_bytes).sum()
    }

    /// Total actual compressed bytes.
    pub fn total_compressed_bytes(&self) -> u64 {
        self.steps.iter().map(|s| s.result.compressed_bytes).sum()
    }

    /// Sum of per-step wall clocks (slowest rank each step).
    pub fn total_time(&self) -> f64 {
        self.steps.iter().map(|s| s.result.total_time).sum()
    }
}

/// Fold one completed step's observations into `online`, cell
/// `rank · nfields + field` per partition — the feedback half of the
/// predict → observe loop of every stream
/// ([`crate::step::StreamState::step`]).
pub fn fold_observations(online: &mut OnlinePredictor, obs: &RunObservations) {
    let nfields = obs.first().map_or(0, Vec::len);
    for (r, row) in obs.iter().enumerate() {
        for (f, o) in row.iter().enumerate() {
            online.observe(r * nfields + f, o.model_bytes, o.predicted, o.actual);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::real::FieldObservation;

    fn rr(total: f64, raw: u64, comp: u64, file: u64) -> RunResult {
        RunResult {
            method: Method::Overlap,
            total_time: total,
            breakdown: Breakdown::default(),
            raw_bytes: raw,
            compressed_bytes: comp,
            file_bytes: file,
            n_overflow: 0,
            overflow_bytes: 0,
            reservation_wire_bytes: 0,
            queue_depth_max: 0,
        }
    }

    #[test]
    fn ratios() {
        let r = rr(1.0, 1600, 100, 125);
        assert!((r.ideal_ratio() - 16.0).abs() < 1e-12);
        assert!((r.effective_ratio() - 12.8).abs() < 1e-12);
        assert!((r.storage_overhead() - 0.25).abs() < 1e-12);
        assert!((r.storage_overhead_vs_original() - 25.0 / 1600.0).abs() < 1e-12);
    }

    #[test]
    fn speedup() {
        let fast = rr(1.0, 100, 100, 100);
        let slow = rr(4.0, 100, 100, 100);
        assert!((fast.speedup_over(&slow) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn breakdown_total() {
        let b = Breakdown {
            predict: 1.0,
            allgather: 2.0,
            compress: 3.0,
            write: 4.0,
            overflow: 5.0,
            verify: 6.0,
        };
        assert_eq!(b.total(), 21.0);
    }

    #[test]
    fn waste_counts_unused_reservation_only() {
        let obs: RunObservations = vec![vec![
            // Fits with 50 spare.
            FieldObservation {
                predicted: 100,
                model_bytes: 100,
                reserved: 150,
                actual: 100,
                overflow: 0,
            },
            // Overflows: slot filled exactly, zero waste.
            FieldObservation {
                predicted: 100,
                model_bytes: 100,
                reserved: 120,
                actual: 200,
                overflow: 80,
            },
        ]];
        let mut result = rr(1.0, 4000, 300, 500);
        (result.n_overflow, result.overflow_bytes) = (1, 80);
        let m = StepMetrics::collect(0, result, &obs, 0.25);
        assert_eq!(m.reserved_bytes, 270);
        assert_eq!(m.waste_bytes, 50);
        assert_eq!(m.predicted_bytes, 200);
        assert_eq!(m.actual_bytes, 300);
    }

    #[test]
    fn report_totals_sum_over_steps() {
        let obs: RunObservations = vec![vec![FieldObservation {
            predicted: 100,
            model_bytes: 100,
            reserved: 130,
            actual: 100,
            overflow: 0,
        }]];
        let mut overflowed = rr(1.0, 4000, 1000, 450);
        (overflowed.n_overflow, overflowed.overflow_bytes) = (2, 60);
        let rep = TimelineReport {
            mode: "static".into(),
            steps: vec![
                StepMetrics::collect(0, rr(1.0, 4000, 1000, 400), &obs, 0.0),
                StepMetrics::collect(1, overflowed, &obs, 0.0),
            ],
        };
        assert_eq!(rep.total_waste(), 60);
        assert_eq!(rep.total_overflows(), 2);
        assert_eq!(rep.total_overflow_bytes(), 60);
        assert_eq!(rep.total_file_bytes(), 850);
        assert_eq!(rep.total_compressed_bytes(), 2000);
        assert!((rep.total_time() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn labels_unique() {
        let labels: std::collections::HashSet<_> = Method::ALL.iter().map(|m| m.label()).collect();
        assert_eq!(labels.len(), 4);
    }
}
