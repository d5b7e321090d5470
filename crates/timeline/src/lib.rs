//! # timeline — timestep-streaming checkpoint engine with online
//! ratio-model adaptation
//!
//! The paper's target workloads (Nyx, VPIC, RTM) don't write one file:
//! they checkpoint a time-evolving simulation over many timesteps, and
//! the predictive-write design pays off most when prediction sharpens
//! with history — timestep *t*'s observed per-field compression ratios
//! are an excellent predictor for timestep *t + 1*. This crate closes
//! that loop on top of the real engine:
//!
//! * [`engine`] — [`run_timeline`] drives
//!   [`predwrite::run_real_with`] across a step sequence, writing one
//!   container file per checkpoint.
//!   In [`AdaptMode::Adaptive`] each step predicts through
//!   [`predwrite::StreamSource`], which plugs the stream's
//!   [`ratiomodel::OnlinePredictor`] into the engine's predict phase:
//!   per-partition EWMA bias correction over observed ratios, plus
//!   error-band-driven extra-space headroom (tight when history is
//!   stable, wide after drift, floored at the last observed size so a
//!   misprediction is recovered from on the very next step). The step
//!   loop itself — shape check, predictor, feedback, step record — is
//!   [`predwrite::StreamState`], shared with the simulated stream.
//! * [`StepMetrics`] / [`TimelineReport`] (from `predwrite`) — per-step
//!   and cumulative accounting: reserved vs. wasted bytes,
//!   overflow-redirection events, prediction error, wall time. The
//!   `timeline` claim of the `repro` binary compares
//!   [`AdaptMode::Static`] against [`AdaptMode::Adaptive`] on all three
//!   workloads with these numbers.
//! * [`sidecar`] / [`recovery`] — the predictor state persisted beside
//!   each kept step, and [`resume_timeline`] restarting a crashed
//!   stream from what survives on disk.
//! * [`data`] — snapshot → `data[rank][field]` partitioning shared by
//!   the engine, benches and examples.
//!
//! Every step is a pure function of `(seed, step, history)` and the
//! engine inherits the write pipeline's determinism, so streams replay
//! byte-identically at any `sz_threads` worker count.

pub mod data;
pub mod engine;
pub mod recovery;
pub mod sidecar;

pub use data::{partition_1d, partition_3d, partition_stream_step};
pub use engine::{run_timeline, run_timeline_resumed, AdaptMode, StepFaults, TimelineConfig};
pub use predwrite::{StepMetrics, TimelineReport};
pub use recovery::{resume_timeline, ResumeReport};
pub use sidecar::{load_sidecar, save_sidecar, sidecar_path};
