//! The checkpoint-stream engine: drive the real predictive-write
//! engine across a sequence of timesteps.
//!
//! Each step writes one container file through
//! [`predwrite::run_real_with`]. In [`AdaptMode::Static`] every step
//! predicts with the offline models and the engine-wide extra-space
//! policy — the paper's single-shot configuration replayed per step.
//! In [`AdaptMode::Adaptive`] the stream's [`OnlinePredictor`] blends
//! the offline model with the ratios observed in prior steps and
//! adapts each partition's headroom from its prediction-error band
//! ([`StreamSource`]); the step's observed chunk sizes are fed back
//! afterwards, so prediction sharpens (and reservations tighten) as
//! history accumulates. The loop that does this is
//! [`predwrite::StreamState`] — the simulated stream's too.

use pfsim::{BandwidthModel, FaultFs, FaultStatsSnapshot};
use predwrite::{
    run_real_with, ExtraSpacePolicy, Method, RankFieldData, RealConfig, RealError,
    ReservationTopology, StepMetrics, StreamSource, StreamState, TimelineReport,
};
use ratiomodel::{Models, OnlinePredictor};
use std::path::PathBuf;
use std::sync::Arc;
use szlite::Config;

/// Per-step fault-injection hook: maps a step index to the
/// [`FaultFs`] its container I/O runs under (`None` = healthy step).
/// Production runs leave [`TimelineConfig::step_faults`] unset; tests
/// and the fault bench use this to crash or degrade exactly one step
/// of a stream.
#[derive(Clone)]
pub struct StepFaults(pub Arc<dyn Fn(usize) -> Option<Arc<FaultFs>> + Send + Sync>);

impl StepFaults {
    /// Hook from a closure.
    pub fn new<F>(f: F) -> Self
    where
        F: Fn(usize) -> Option<Arc<FaultFs>> + Send + Sync + 'static,
    {
        StepFaults(Arc::new(f))
    }

    /// Inject `faults` into step `step` only.
    pub fn only_step(step: usize, faults: Arc<FaultFs>) -> Self {
        StepFaults::new(move |s| (s == step).then(|| Arc::clone(&faults)))
    }
}

impl std::fmt::Debug for StepFaults {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("StepFaults(..)")
    }
}

pub use predwrite::AdaptMode;

/// Configuration of a timeline run.
#[derive(Debug, Clone)]
pub struct TimelineConfig {
    /// Number of timesteps to stream.
    pub steps: usize,
    /// Write method per step ([`Method::Overlap`] or
    /// [`Method::OverlapReorder`] exercise the predictive path).
    pub method: Method,
    /// Per-field compression configuration.
    pub configs: Vec<Config>,
    /// Offline-fitted models (the prediction baseline in both modes).
    pub models: Models,
    /// Static extra-space policy (and the adaptive mode's warm-up
    /// fallback).
    pub policy: ExtraSpacePolicy,
    /// Bandwidth model for the write throttle.
    pub bandwidth: BandwidthModel,
    /// Throttle scale (see [`RealConfig::throttle_scale`]).
    pub throttle_scale: f64,
    /// Compression/decode workers per rank (see
    /// [`RealConfig::sz_threads`]).
    pub sz_threads: usize,
    /// Prediction/headroom mode.
    pub mode: AdaptMode,
    /// Pinned by `benchmark/API.md`; see [`ReservationTopology`].
    pub reservation: ReservationTopology,
    /// Read back and bound-check every step's file (the step fails on
    /// a violation).
    pub verify: bool,
    /// Directory the per-step container files are written into
    /// (created if missing).
    pub dir: PathBuf,
    /// Keep the step files on disk (default workflows delete each file
    /// once its metrics are collected, like a rotating checkpoint).
    /// Keeping files also persists a predictor sidecar per adaptive
    /// step, which is what makes crash recovery
    /// ([`crate::recovery::resume_timeline`]) possible.
    pub keep_files: bool,
    /// Optional fault-injection hook consulted once per step; the
    /// returned [`FaultFs`] is attached to that step's container.
    pub step_faults: Option<StepFaults>,
}

impl TimelineConfig {
    /// A small, fast configuration for tests and examples: `steps`
    /// streamed checkpoints of `nfields` fields at relative bound
    /// 1e-3, lightly throttled, verified, files deleted after each
    /// step.
    pub fn quick(steps: usize, nfields: usize, mode: AdaptMode, dir: PathBuf) -> Self {
        TimelineConfig {
            steps,
            method: Method::Overlap,
            configs: vec![Config::rel(1e-3); nfields],
            models: Models::with_cthr(50e6),
            policy: ExtraSpacePolicy::default(),
            bandwidth: BandwidthModel::tiny_for_tests(),
            throttle_scale: 1.0,
            sz_threads: 1,
            mode,
            reservation: ReservationTopology::Flat,
            verify: true,
            dir,
            keep_files: false,
            step_faults: None,
        }
    }

    /// Container path of one step's checkpoint.
    pub fn step_path(&self, step: usize) -> PathBuf {
        self.dir.join(format!("step-{step:04}.h5l"))
    }

    /// Predictor-sidecar path of one step's checkpoint.
    pub fn sidecar_path(&self, step: usize) -> PathBuf {
        crate::sidecar::sidecar_path(&self.step_path(step))
    }
}

/// Stream `cfg.steps` checkpoints, pulling each step's partitioned
/// data from `step_data(step)` (shape `data[rank][field]`, uniform
/// across steps). The callback may return owned data (generating each
/// step on the fly) or a borrow of pre-generated steps — e.g.
/// `|s| &data[s]` when comparing modes over identical inputs.
///
/// Returns the per-step metrics; any engine or verification failure
/// aborts the stream with the failing step's error.
pub fn run_timeline<F, D>(cfg: &TimelineConfig, step_data: F) -> Result<TimelineReport, RealError>
where
    F: FnMut(usize) -> D,
    D: std::borrow::Borrow<Vec<Vec<RankFieldData>>>,
{
    run_timeline_resumed(cfg, 0, None, step_data)
}

/// [`run_timeline`] starting at `start_step` with optional pre-warmed
/// adaptation state — the restart half of crash recovery. Steps below
/// `start_step` are assumed to already exist on disk (or to be
/// deliberately skipped); their metrics are not re-collected. When
/// `initial_online` is `Some`, adaptive steps resume from that
/// predictor history instead of a cold warm-up.
pub fn run_timeline_resumed<F, D>(
    cfg: &TimelineConfig,
    start_step: usize,
    initial_online: Option<OnlinePredictor>,
    mut step_data: F,
) -> Result<TimelineReport, RealError>
where
    F: FnMut(usize) -> D,
    D: std::borrow::Borrow<Vec<Vec<RankFieldData>>>,
{
    std::fs::create_dir_all(&cfg.dir)
        .map_err(|e| RealError::context(format!("timeline: create {}", cfg.dir.display()), e))?;
    let state = StreamState::new(cfg.mode, initial_online)?;
    // The run's Chrome trace is written however the step loop ends —
    // a failed step is exactly when it is wanted — and the step's
    // error outranks an export error.
    let steps = run_steps(cfg, start_step, state, &mut step_data);
    let exported = obs::trace::export_env();
    let steps = steps?;
    exported.map_err(|e| RealError::context("timeline: chrome-trace export", e))?;
    Ok(TimelineReport {
        mode: cfg.mode.label().to_string(),
        steps,
    })
}

/// The step loop of [`run_timeline_resumed`].
fn run_steps<F, D>(
    cfg: &TimelineConfig,
    start_step: usize,
    mut state: StreamState,
    step_data: &mut F,
) -> Result<Vec<StepMetrics>, RealError>
where
    F: FnMut(usize) -> D,
    D: std::borrow::Borrow<Vec<Vec<RankFieldData>>>,
{
    let mut steps = Vec::with_capacity(cfg.steps.saturating_sub(start_step));
    // One engine config serves the whole stream; only the output path
    // changes per step, so the per-field Config list is cloned once,
    // not once per timestep.
    let mut rc = RealConfig {
        method: cfg.method,
        configs: cfg.configs.clone(),
        models: cfg.models,
        policy: cfg.policy,
        bandwidth: cfg.bandwidth,
        throttle_scale: cfg.throttle_scale,
        sz_threads: cfg.sz_threads,
        verify: cfg.verify,
        path: PathBuf::new(),
        reservation: cfg.reservation,
        faults: None,
    };
    for step in start_step..cfg.steps {
        let data = step_data(step);
        let data = data.borrow();
        let nranks = data.len();
        let nfields = data.first().map_or(0, Vec::len);
        rc.path = cfg.step_path(step);
        rc.faults = cfg.step_faults.as_ref().and_then(|h| (h.0)(step));
        // A fault harness may serve several steps: what it counted
        // before this one is not this step's.
        let faults_before = fault_counts(rc.faults.as_deref());
        let step_span = obs::span_arg("timeline.step", step as u64);
        let m = state.step(step, nranks, nfields, |online| {
            let source = StreamSource {
                models: &cfg.models,
                online,
                nfields,
            };
            run_real_with(data, &rc, &source)
        })?;
        drop(step_span);
        if cfg.keep_files {
            // Persist the post-step adaptation state beside the
            // container: a restart after this step resumes prediction
            // with the same history the uninterrupted stream has.
            if let Some(online) = state.online() {
                crate::sidecar::save_sidecar(&cfg.sidecar_path(step), nranks, nfields, online)
                    .map_err(|e| RealError::context(format!("timeline: step {step} sidecar"), e))?;
            }
            // Flight record beside the sidecar, now that the step has
            // completed: a post-crash reader sees how the stream was
            // doing up to its last whole step.
            let rec = step_flight(&m, faults_before, fault_counts(rc.faults.as_deref()));
            obs::flight::write_step(&obs::flight::flight_path(&rc.path), &rec).map_err(|e| {
                RealError::context(format!("timeline: step {step} flight record"), e)
            })?;
        } else {
            let _ = std::fs::remove_file(&rc.path);
        }
        steps.push(m);
    }
    Ok(steps)
}

/// What the step's fault harness has counted so far (zeros without
/// one).
fn fault_counts(faults: Option<&FaultFs>) -> FaultStatsSnapshot {
    faults.map(FaultFs::stats).unwrap_or_default()
}

/// One step's flight record: its collected metrics, and what its fault
/// harness counted between `before` and `after`.
fn step_flight(
    m: &StepMetrics,
    before: FaultStatsSnapshot,
    after: FaultStatsSnapshot,
) -> obs::StepFlight {
    obs::StepFlight {
        step: m.step as u64,
        reserved_bytes: m.reserved_bytes,
        waste_bytes: m.waste_bytes,
        predicted_bytes: m.predicted_bytes,
        actual_bytes: m.actual_bytes,
        overflow_bytes: m.result.overflow_bytes,
        overflow_parts: m.result.n_overflow as u64,
        raw_bytes: m.result.raw_bytes,
        file_bytes: m.result.file_bytes,
        collective_wire_bytes: m.result.reservation_wire_bytes,
        predict_secs: m.result.breakdown.predict,
        planner_secs: m.result.breakdown.allgather,
        compress_secs: m.result.breakdown.compress,
        write_secs: m.result.breakdown.write,
        overflow_secs: m.result.breakdown.overflow,
        verify_secs: m.result.breakdown.verify,
        total_secs: m.result.total_time,
        queue_depth_max: m.result.queue_depth_max,
        retries: after.retries - before.retries,
        transient_faults: after.transient - before.transient,
        escalations: after.escalations - before.escalations,
        mean_rel_err: m.mean_rel_err,
        host_parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()) as u64,
    }
}
