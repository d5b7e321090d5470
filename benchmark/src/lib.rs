//! Benchmark harness of the predictive-write stack (see
//! `BENCHMARK.json` at the repository root and `README.md` here).
//!
//! The harness only *calls* the library: every number comes from a
//! clock or a count taken in this crate, around calls into the public
//! items listed in `API.md`. Timings the library reports about itself
//! (`Breakdown`, `RunResult::total_time`, `obs` spans) feed no metric.

pub mod compare;
pub mod e2e;
pub mod host;
pub mod layers;
pub mod metrics;
pub mod spans;
pub mod spec;
pub mod stats;
