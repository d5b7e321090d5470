//! # bench — experiment harness shared by the `repro` binary and the
//! `bench_scale` / `bench_faults` / `bench_timeline` binaries.
//!
//! Each paper table/figure has a corresponding experiment function in
//! [`experiments`]; shared workload/profile construction lives in
//! [`setup`], and the bench binaries' knob parsing and artifact
//! writing in [`artifact`]. Everything is deterministic (seeded generators +
//! discrete-event simulation), so repeated runs print identical
//! numbers apart from the wall-clock throughput measurements.

pub mod artifact;
pub mod experiments;
pub mod setup;
pub mod table;

pub use setup::{
    demo_real_config, eb_for_bitrate, nyx_profiles, partition_1d, partition_3d,
    partition_stream_step, vpic_profiles, ExperimentScale,
};
