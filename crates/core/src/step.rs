//! What one checkpoint step does with sizes, and what a stream does
//! with steps — written once, for both engines.
//!
//! Between the shared planner functions ([`crate::plan`],
//! [`crate::scheduler`], [`crate::extraspace`]) a step turns a model
//! estimate into the estimate it plans with, a rank's estimates into
//! its pooling, its reservations and its compression order, a placed
//! stream into an observation, and the observations into the run's
//! and the step's record. [`crate::real`] and [`crate::sim`] differ
//! in how they *execute* a step (threads, collectives and throttled
//! I/O vs. one whole-matrix plan and the event queue); every byte they
//! plan and account for comes from the functions here, and a stream
//! of steps — real (`timeline`) or simulated — is one
//! [`StreamState`].

use crate::extraspace::ExtraSpacePolicy;
use crate::metrics::{
    fold_observations, mean_rel_size_err, Breakdown, Method, RunResult, StepMetrics,
};
use crate::plan::{FitSplit, PartitionPrediction, Pooling};
use crate::profile::PartitionProfile;
use crate::real::{AdaptMode, FieldObservation, RealError, RunObservations, SourceEstimate};
use crate::scheduler::{identity_order, optimize_order};
use ratiomodel::{OnlinePrediction, OnlinePredictor};

impl From<&PartitionProfile> for SourceEstimate {
    /// The offline-model estimate a profile recorded.
    fn from(p: &PartitionProfile) -> Self {
        SourceEstimate {
            bytes: p.pred_bytes,
            ratio: p.pred_ratio,
            comp_time: p.pred_comp_time,
            write_time: p.pred_write_time,
            model_bytes: p.pred_bytes,
        }
    }
}

impl SourceEstimate {
    /// This model estimate of a `raw_bytes` partition, blended with
    /// the partition's online history. The blend rescales the
    /// predicted size; write time scales with it, compression time
    /// does not (it depends on the data, not on what we predict about
    /// it), and `model_bytes` stays what the model said.
    fn blended(self, raw_bytes: u64, p: OnlinePrediction) -> Self {
        let scale = p.bytes as f64 / self.bytes.max(1) as f64;
        SourceEstimate {
            bytes: p.bytes,
            ratio: raw_bytes as f64 / p.bytes.max(1) as f64,
            write_time: self.write_time * scale,
            ..self
        }
    }

    /// The estimate partition `cell` of a stream plans with: this
    /// model estimate itself when the stream does not adapt (`online`
    /// is `None`), otherwise this estimate blended with the cell's
    /// history.
    pub fn for_cell(self, raw_bytes: u64, online: Option<&OnlinePredictor>, cell: usize) -> Self {
        match online {
            None => self,
            Some(online) => self.blended(raw_bytes, online.predict(cell, self.model_bytes)),
        }
    }
}

/// How rank `rank`, whose partitions are estimated at `estimates`,
/// reserves: in the paper's per-partition slots when the stream does
/// not adapt (`online` is `None`), otherwise in one region at the
/// rank's headroom over its estimates' sum.
pub(crate) fn pooling(
    online: Option<&OnlinePredictor>,
    rank: usize,
    estimates: &[SourceEstimate],
) -> Pooling {
    match online {
        None => Pooling::Slots,
        Some(online) => {
            let predicted = estimates.iter().map(|e| e.bytes).sum();
            Pooling::Region(online.region_headroom(rank, predicted))
        }
    }
}

/// What the planner is told about a rank's partitions and the bytes
/// each reserves under `pooling`: the rank's headroom when it carries
/// a usable one, the engine-wide `policy` (Eq. 3) otherwise — see
/// [`ExtraSpacePolicy::reserve_for`].
pub(crate) fn rank_reservations(
    estimates: &[SourceEstimate],
    pooling: Pooling,
    policy: &ExtraSpacePolicy,
) -> (Vec<PartitionPrediction>, Vec<u64>) {
    let headroom = match pooling {
        Pooling::Slots => None,
        Pooling::Region(headroom) => headroom,
    };
    let reserve = |e: &SourceEstimate| {
        let prediction = PartitionPrediction {
            bytes: e.bytes,
            ratio: e.ratio,
        };
        (prediction, policy.reserve_for(e.bytes, e.ratio, headroom))
    };
    estimates.iter().map(reserve).unzip()
}

/// One rank's compression order over its fields: Algorithm 1 on the
/// estimated compression and write times when `reorder`, field order
/// otherwise.
pub(crate) fn compression_order(reorder: bool, estimates: &[SourceEstimate]) -> Vec<usize> {
    if reorder {
        let pc: Vec<f64> = estimates.iter().map(|e| e.comp_time).collect();
        let pw: Vec<f64> = estimates.iter().map(|e| e.write_time).collect();
        optimize_order(&pc, &pw)
    } else {
        identity_order(estimates.len())
    }
}

impl FieldObservation {
    /// What happened to a partition planned with `estimate` and
    /// `reserved` bytes once its stream was placed as `split`
    /// ([`crate::plan::Regions::place`]): the prefix stays in the
    /// rank's region, the excess is overflow (Fig. 8).
    pub fn settle(estimate: &SourceEstimate, reserved: u64, split: FitSplit) -> Self {
        FieldObservation {
            predicted: estimate.bytes,
            model_bytes: estimate.model_bytes,
            reserved,
            actual: split.in_slot + split.overflow,
            overflow: split.overflow,
        }
    }

    /// A partition written at its known size — the methods that do
    /// not predict.
    pub(crate) fn exact(bytes: u64) -> Self {
        FieldObservation {
            predicted: bytes,
            model_bytes: bytes,
            reserved: bytes,
            actual: bytes,
            overflow: 0,
        }
    }

    /// Bytes that went into the rank's region — in a pooled region
    /// possibly more than this partition's own `reserved`.
    pub fn in_slot(&self) -> u64 {
        self.actual - self.overflow
    }
}

impl RunResult {
    /// A run's record: compressed bytes and the overflow tallies are
    /// sums over `observations`, so no engine counts them by hand.
    /// What only the engine knows beyond its arguments — the
    /// reservation collective's wire bytes, the write queues' peak
    /// depth — starts at 0 for it to fill.
    pub fn collect(
        method: Method,
        total_time: f64,
        breakdown: Breakdown,
        raw_bytes: u64,
        file_bytes: u64,
        observations: &RunObservations,
    ) -> Self {
        let mut result = RunResult {
            method,
            total_time,
            breakdown,
            raw_bytes,
            compressed_bytes: 0,
            file_bytes,
            n_overflow: 0,
            overflow_bytes: 0,
            reservation_wire_bytes: 0,
            queue_depth_max: 0,
        };
        for o in observations.iter().flatten() {
            result.compressed_bytes += o.actual;
            result.n_overflow += usize::from(o.overflow > 0);
            result.overflow_bytes += o.overflow;
        }
        result
    }
}

/// What a checkpoint stream carries from one step to the next: its
/// mode, the online predictor of an adaptive stream, and the shape the
/// first step fixed. Both stream engines (`timeline::run_timeline`,
/// [`crate::sim::simulate_stream`]) put every step through
/// [`StreamState::step`].
#[derive(Debug, Clone)]
pub struct StreamState {
    mode: AdaptMode,
    online: Option<OnlinePredictor>,
    shape: Option<(usize, usize)>,
}

impl StreamState {
    /// A stream in `mode`. `online` resumes an adaptive stream from
    /// persisted history instead of a cold warm-up; a static stream
    /// has no use for one and rejects it.
    pub fn new(mode: AdaptMode, online: Option<OnlinePredictor>) -> Result<Self, RealError> {
        if mode == AdaptMode::Static && online.is_some() {
            return Err(RealError::Shape(
                "online state supplied for a static-mode stream".into(),
            ));
        }
        Ok(StreamState {
            mode,
            online,
            shape: None,
        })
    }

    /// The adaptive stream's predictor, once a step has run (or from
    /// the start when resumed); `None` for a static stream.
    pub fn online(&self) -> Option<&OnlinePredictor> {
        self.online.as_ref()
    }

    /// Put step `step` of `nranks × nfields` partitions through the
    /// stream: `run` executes it — predicting through the predictor
    /// it is handed, when the stream adapts — and returns what
    /// [`crate::real::run_real_with`] returns; its observations are
    /// fed back and the step's record comes out.
    ///
    /// A step of another shape than the stream's first, or resumed
    /// history that tracks another number of cells, is a
    /// [`RealError::Shape`] before anything runs.
    pub fn step(
        &mut self,
        step: usize,
        nranks: usize,
        nfields: usize,
        run: impl FnOnce(Option<&OnlinePredictor>) -> Result<(RunResult, RunObservations), RealError>,
    ) -> Result<StepMetrics, RealError> {
        let (r0, f0) = *self.shape.get_or_insert((nranks, nfields));
        if (r0, f0) != (nranks, nfields) {
            return Err(RealError::Shape(format!(
                "step {step} changed the stream shape to {nranks}×{nfields} \
                 (stream started at {r0}×{f0})"
            )));
        }
        if let AdaptMode::Adaptive(_) = self.mode {
            let online = self
                .online
                .get_or_insert_with(|| OnlinePredictor::for_stream(nranks, nfields));
            if (online.n_cells(), online.n_ranks()) != (nranks * nfields, nranks) {
                return Err(RealError::Shape(format!(
                    "online state tracks {} cells of {} ranks, stream shape is {nranks}×{nfields}",
                    online.n_cells(),
                    online.n_ranks()
                )));
            }
        }
        let (result, observations) = run(self.online.as_ref())?;
        let mean_rel_err = match &mut self.online {
            Some(online) => {
                fold_observations(online, &observations);
                online.mean_rel_err()
            }
            // No EWMA without a predictor: the step's own error.
            None => mean_rel_size_err(
                observations
                    .iter()
                    .flatten()
                    .map(|o| (o.predicted, o.actual)),
            ),
        };
        Ok(StepMetrics::collect(
            step,
            result,
            &observations,
            mean_rel_err,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ratiomodel::OnlineConfig;

    fn estimate(bytes: u64) -> SourceEstimate {
        SourceEstimate {
            bytes,
            ratio: 10.0,
            comp_time: 2.0,
            write_time: 0.5,
            model_bytes: bytes,
        }
    }

    fn adaptive() -> AdaptMode {
        AdaptMode::Adaptive(OnlineConfig)
    }

    /// The outcome of a step whose partition `cell` was written at
    /// `1000 + cell` bytes.
    fn ran(nranks: usize, nfields: usize) -> Result<(RunResult, RunObservations), RealError> {
        let obs: RunObservations = (0..nranks)
            .map(|r| {
                (0..nfields)
                    .map(|f| FieldObservation::exact(1000 + (r * nfields + f) as u64))
                    .collect()
            })
            .collect();
        let result = RunResult::collect(Method::Overlap, 1.0, Breakdown::default(), 0, 0, &obs);
        Ok((result, obs))
    }

    #[test]
    fn settle_splits_actual_between_slot_and_overflow() {
        // (reserved, actual) of one-slot regions; the first two are the
        // fitting and the overflowing partition `StepMetrics`' waste is
        // pinned on.
        let cases = [
            (150, 100),
            (120, 200),
            (100, 100),
            (0, 0),
            (0, 7),
            (9, 5),
            (1, u64::MAX),
        ];
        let obs: RunObservations = vec![cases
            .iter()
            .map(|&(reserved, actual)| {
                let mut est = estimate(100);
                est.model_bytes = 90;
                let split = crate::plan::fit_split(actual, reserved);
                let o = FieldObservation::settle(&est, reserved, split);
                assert_eq!((o.predicted, o.model_bytes), (100, 90));
                assert_eq!((o.reserved, o.actual), (reserved, actual));
                assert_eq!(o.in_slot() + o.overflow, actual);
                assert!(o.in_slot() <= reserved, "waste would be negative");
                assert_eq!(o.overflow > 0, actual > reserved);
                o
            })
            .collect()];
        assert_eq!((obs[0][0].overflow, obs[0][1].overflow), (0, 80));

        let first_two = vec![obs[0][..2].to_vec()];
        let r = RunResult::collect(
            Method::Overlap,
            1.0,
            Breakdown::default(),
            4000,
            500,
            &first_two,
        );
        assert_eq!(
            (r.compressed_bytes, r.n_overflow, r.overflow_bytes),
            (300, 1, 80)
        );
    }

    #[test]
    fn blended_rescales_size_and_write_time_only() {
        let model = estimate(1000);
        let b = model.blended(6000, OnlinePrediction { bytes: 1500 });
        assert_eq!(b.bytes, 1500);
        assert_eq!(b.model_bytes, 1000, "feedback is against the model");
        assert_eq!(b.ratio, 4.0);
        assert_eq!(b.write_time, 0.75);
        assert_eq!(b.comp_time, model.comp_time);
        // No predictor, no blend; a predictor without history predicts
        // the model's size.
        assert_eq!(model.for_cell(6000, None, 3), model);
        let cold = OnlinePredictor::new(4, OnlineConfig);
        let c = model.for_cell(6000, Some(&cold), 3);
        assert_eq!((c.bytes, c.ratio), (1000, 6.0));
    }

    #[test]
    fn reservation_uses_headroom_only_when_positive() {
        let policy = ExtraSpacePolicy::new(1.25);
        // Eq. 3 widens the policy's reservation above ratio 32.
        let wide = SourceEstimate {
            ratio: 40.0,
            ..estimate(100)
        };
        let ests = [estimate(100), wide, estimate(8)];
        let reserves = |pooling| rank_reservations(&ests, pooling, &policy).1;
        for unusable in [None, Some(0.0), Some(-1.0), Some(f64::NAN)] {
            let pooling = Pooling::Region(unusable);
            assert_eq!(reserves(pooling), [125, 200, 10], "{unusable:?}");
        }
        assert_eq!(reserves(Pooling::Slots), [125, 200, 10]);
        assert_eq!(reserves(Pooling::Region(Some(1.5))), [150, 150, 12]);
        let (preds, _) = rank_reservations(&ests, Pooling::Slots, &policy);
        assert_eq!((preds[1].bytes, preds[1].ratio), (100, 40.0));
    }

    #[test]
    fn only_an_adaptive_stream_pools_and_only_warm_ranks_adapt() {
        let ests = [estimate(600), estimate(400)];
        assert_eq!(pooling(None, 0, &ests), Pooling::Slots);
        let mut online = OnlinePredictor::for_stream(2, 2);
        assert_eq!(pooling(Some(&online), 1, &ests), Pooling::Region(None));
        // Rank 1's totals came in at 1 200 twice: its region covers
        // that whatever its fields are estimated at now.
        for _ in 0..2 {
            online.observe_rank(1, 1000, 1200);
        }
        assert_eq!(pooling(Some(&online), 0, &ests), Pooling::Region(None));
        let Pooling::Region(Some(h)) = pooling(Some(&online), 1, &ests) else {
            panic!("a warm rank pools at its headroom");
        };
        assert!((1000.0 * h).ceil() >= 1200.0, "headroom {h}");
    }

    #[test]
    fn order_is_algorithm_1_only_when_asked() {
        let mut ests = [estimate(1), estimate(1)];
        (ests[0].write_time, ests[1].write_time) = (0.1, 5.0);
        assert_eq!(compression_order(false, &ests), [0, 1]);
        // The long write goes first so it hides under the other
        // field's compression.
        assert_eq!(compression_order(true, &ests), [1, 0]);
        // Every field compresses slower than it writes, the regime of
        // both reorder workloads: the largest write goes first and the
        // smallest last, so only it is left unhidden.
        let mut ests = [estimate(1), estimate(1), estimate(1), estimate(1)];
        for (e, (pc, pw)) in ests
            .iter_mut()
            .zip([(9.0, 2.0), (6.0, 1.0), (8.0, 5.0), (7.0, 3.0)])
        {
            (e.comp_time, e.write_time) = (pc, pw);
        }
        assert_eq!(compression_order(true, &ests), [2, 3, 0, 1]);
        // `Pc == Pw` everywhere: every order finishes at once, and
        // field order decides.
        for e in &mut ests {
            (e.comp_time, e.write_time) = (1.0, 1.0);
        }
        assert_eq!(compression_order(true, &ests), [0, 1, 2, 3]);
    }

    #[test]
    fn observations_feed_the_right_cells() {
        let mut state = StreamState::new(adaptive(), None).unwrap();
        assert!(state.online().is_none());
        let m = state.step(0, 2, 3, |_| ran(2, 3)).unwrap();
        assert_eq!(m.actual_bytes, 6 * 1000 + 15);
        let online = state.online().expect("created by the first step");
        assert_eq!((online.n_cells(), online.n_ranks()), (6, 2));
        for cell in 0..6 {
            let st = online.stats(cell);
            assert_eq!((st.n_obs, st.last_observed), (1, 1000 + cell as u64));
        }
        // Adaptive steps report the predictor's EWMA after feedback,
        // static ones the step's own error.
        assert_eq!(m.mean_rel_err, online.mean_rel_err());
        // And each rank its total: rank 1 wrote 1003 + 1004 + 1005, and
        // one more such step warms it up to cover exactly that.
        state.step(1, 2, 3, |_| ran(2, 3)).unwrap();
        let online = state.online().unwrap();
        assert_eq!(online.region_headroom(1, 3012), Some(1.01));
        assert_eq!(online.region_headroom(1, 2000), Some(3012.0 / 2000.0));
        let mut fixed = StreamState::new(AdaptMode::Static, None).unwrap();
        let m = fixed.step(0, 2, 3, |_| ran(2, 3)).unwrap();
        assert_eq!(m.mean_rel_err, 0.0);
        assert!(fixed.online().is_none());
    }

    #[test]
    fn rejects_mismatched_shapes_before_running() {
        let never = |_: Option<&OnlinePredictor>| panic!("a rejected step must not run");
        let shape_err = |r: Result<StepMetrics, RealError>, what: &str| match r {
            Err(RealError::Shape(m)) => assert!(m.contains(what), "{m}"),
            other => panic!("expected a shape error, got {other:?}"),
        };
        // Resumed history of another stream.
        let history = OnlinePredictor::new(5, OnlineConfig);
        let mut state = StreamState::new(adaptive(), Some(history.clone())).unwrap();
        shape_err(state.step(4, 2, 3, never), "tracks 5 cells of 0 ranks");
        // Cells enough, but tracked without ranks.
        let cells_only = OnlinePredictor::new(6, OnlineConfig);
        let mut state = StreamState::new(adaptive(), Some(cells_only)).unwrap();
        shape_err(state.step(4, 2, 3, never), "tracks 6 cells of 0 ranks");
        // History handed to a stream that cannot use it.
        assert!(matches!(
            StreamState::new(AdaptMode::Static, Some(history)),
            Err(RealError::Shape(_))
        ));
        // A step of another shape than the first, in either mode.
        for mode in [AdaptMode::Static, adaptive()] {
            let mut state = StreamState::new(mode, None).unwrap();
            state.step(0, 2, 3, |_| ran(2, 3)).unwrap();
            shape_err(state.step(1, 3, 2, never), "changed the stream shape");
        }
    }
}
