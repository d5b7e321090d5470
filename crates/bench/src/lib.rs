//! # bench — the paper's evaluation, and this repository's extensions
//! of it, as checked claims.
//!
//! [`claims`] is the table the `repro` binary dispatches on: one row
//! per surviving paper artifact plus two extension rows (the
//! online-adaptive reservation in a simulated scale-out stream and in a
//! real one), each a measurement over the shared [`setup::Scenarios`]
//! (built once per run) and a predicate that is the claim's sentence.
//! `REPRO.json` at the repository root holds every row's value and
//! verdict; `repro` exits non-zero when a fresh run departs from it.
//! Everything but the two wall-clock artifacts (Fig. 11/12) is
//! deterministic: seeded generators, real compressed sizes,
//! discrete-event simulation.
//!
//! [`trajectory`] keeps the other committed record,
//! `BENCH_trajectory.json`: per measured change, the frozen harness's
//! parent and change runs folded into medians, quartiles and pairs won
//! (the `trajectory` binary folds and checks it).

pub mod claims;
pub mod setup;
pub mod trajectory;

pub use setup::{demo_real_config, partition_1d, partition_3d, partition_stream_step};
