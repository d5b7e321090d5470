//! # obs — zero-dependency observability for the checkpoint stack
//!
//! Two pillars, both std-only so every workspace crate (down to the
//! leaf compressor) can instrument through this crate:
//!
//! * [`trace`] — scoped RAII spans in lock-free per-thread buffers,
//!   exported as Chrome trace-event JSON (`chrome://tracing`,
//!   Perfetto) via the `OBS_TRACE=path.json` env knob. Compiled in
//!   but disabled by default; the disabled path is one relaxed atomic
//!   load. [`timed`] is the guard for a phase that is also accounted
//!   in seconds: one recording gives the span and the seconds.
//! * [`flight`] — the per-step JSONL flight recorder
//!   (`step-NNNN.obs.jsonl` beside the `.pred` sidecars), readable
//!   after a crash with typed per-line errors. A record holds what
//!   its step returned; no process-wide counter stands behind it.
//!
//! [`json`] is the workspace's shared strict mini JSON parser /
//! writer / escaper backing the flight recorder, the trace validator
//! in the tests, the `BENCH_*.json` artifacts and `scrub --json`.

pub mod flight;
pub mod json;
pub mod trace;

pub use flight::{flight_path, read_flight, FlightError, FlightScan, StepFlight};
pub use json::Json;
pub use trace::{
    export_env, set_enabled, span, span_arg, timed, timed_arg, Span, SpanEvent, Timed,
};
