//! Per-run accounting of a timeline stream, over the per-step record
//! ([`StepMetrics`]) the real and the simulated stream share.

pub use predwrite::StepMetrics;

/// Aggregate outcome of one timeline run.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineReport {
    /// [`crate::AdaptMode`] label the run used.
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

#[cfg(test)]
mod tests {
    use super::*;
    use predwrite::{Breakdown, FieldObservation, Method, RunObservations, RunResult};

    fn result(n_overflow: usize, overflow_bytes: u64, file_bytes: u64) -> RunResult {
        RunResult {
            method: Method::Overlap,
            total_time: 1.0,
            breakdown: Breakdown::default(),
            raw_bytes: 4000,
            compressed_bytes: 1000,
            file_bytes,
            n_overflow,
            overflow_bytes,
        }
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
        let steps = vec![
            StepMetrics::collect(0, result(0, 0, 400), &obs, 0.0),
            StepMetrics::collect(1, result(2, 60, 450), &obs, 0.0),
        ];
        let rep = TimelineReport {
            mode: "static".into(),
            steps,
        };
        assert_eq!(rep.total_waste(), 60);
        assert_eq!(rep.total_overflows(), 2);
        assert_eq!(rep.total_overflow_bytes(), 60);
        assert_eq!(rep.total_file_bytes(), 850);
        assert!((rep.total_time() - 2.0).abs() < 1e-12);
    }
}
