//! # bench — the paper's evaluation as checked claims, and what the
//! `bench_scale` / `bench_faults` / `bench_timeline` binaries share.
//!
//! [`claims`] is the table the `repro` binary dispatches on: one row
//! per surviving paper artifact, each a measurement over the shared
//! [`setup::Scenarios`] (built once per run) and a predicate that is
//! the paper's sentence about the figure. `REPRO.json` at the
//! repository root holds every row's value and verdict; `repro` exits
//! non-zero when a fresh run departs from it. [`artifact`] holds the
//! bench binaries' knob parsing and artifact writing. Everything but
//! the two wall-clock artifacts (Fig. 11/12) is deterministic: seeded
//! generators, real compressed sizes, discrete-event simulation.

pub mod artifact;
pub mod claims;
pub mod setup;

pub use setup::{demo_real_config, partition_1d, partition_3d, partition_stream_step};
