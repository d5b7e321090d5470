//! # predwrite — predictive lossy compression deeply integrated with
//! parallel write
//!
//! The core of the SC'22 paper reproduction: pre-computing shared-file
//! write offsets from *predicted* compressed sizes so compression and
//! parallel writes overlap, instead of serializing compress → gather →
//! collective-write as the H5Z-SZ filter path must.
//!
//! Pipeline (paper §III, Fig. 3):
//!
//! 1. **Predict** ratio + compression/write time per partition
//!    (`ratiomodel`), ~5 % of compression cost.
//! 2. **All-gather** predicted sizes; every rank then derives the
//!    *same* file layout independently ([`plan::WritePlan`]), each
//!    slot padded by the extra-space policy ([`extraspace`], Eq. 3).
//! 3. **Reorder** each rank's compression queue to maximize
//!    compute/write overlap ([`scheduler`], Algorithm 1): a rank's queue
//!    is the flow shop F2‖C_max, ordered exactly by Johnson's rule (1954).
//! 4. **Overlap**: compress each field and hand the stream to an
//!    asynchronous write (h5lite event set) targeting the
//!    pre-computed offset.
//! 5. **Redirect overflow**: partitions larger than their reservation
//!    write a fitting prefix in place; the excess is appended past the
//!    reserved region after an all-gather of overflow sizes (Fig. 8).
//! 6. **Verify (opt-in)**: re-open the closed file, decode every field
//!    through the pipelined reader and check each element against its
//!    resolved error bound ([`verify`]), timed as its own phase.
//!
//! Two engines execute the pipeline: [`real`] (threads-as-ranks, real
//! compression, real throttled file I/O; used up to 64 ranks) and
//! [`sim`] (discrete-event replay of partition profiles; used for the
//! 256–4096-rank sweeps of Fig. 16–18, whose claims the `repro` binary
//! checks against `REPRO.json`). They differ only in how a step
//! is *executed*: the planner ([`plan`], [`scheduler`],
//! [`extraspace`]) and everything between its functions — estimate →
//! reservation → order → observation → run and step record, and the
//! step loop of a stream with its online predictor — is [`step`],
//! called by both, so they agree on every planned byte by construction.
//!
//! The real engine's predict phase is pluggable
//! ([`real::PredictionSource`]): [`real::run_real_with`] swaps the
//! prediction source, lets it pool each rank's reservations into one
//! region ([`plan::Pooling`]), and returns per-partition
//! [`real::FieldObservation`]s.
//! [`real::StreamSource`] is the source a checkpoint stream predicts
//! with; [`step::StreamState`] carries its history from step to step,
//! for `timeline` (real I/O) and [`sim::simulate_stream`] alike.

pub mod extraspace;
pub mod metrics;
pub mod plan;
pub mod profile;
pub mod real;
pub mod scheduler;
pub mod sim;
pub mod step;
pub mod verify;

pub use extraspace::{weight_to_rspace, ExtraSpacePolicy, RSPACE_MAX};
pub use metrics::{
    fold_observations, mean_rel_size_err, Breakdown, Method, RunResult, StepMetrics, TimelineReport,
};
pub use plan::{
    fit_split, plan_overflow, reservation_wire_bytes, FitSplit, PartitionPrediction, PartitionSlot,
    Pooling, RankPlanView, Regions, WritePlan,
};
pub use profile::{
    profile_partition, profile_partition_with, replicate_profiles, PartitionProfile,
};
pub use real::{
    run_real, run_real_with, AdaptMode, FieldObservation, ModelSource, PredictionSource,
    RankFieldData, RealConfig, RealError, ReservationTopology, RunObservations, SourceEstimate,
    StreamSource,
};
pub use scheduler::{identity_order, optimize_order, queue_time};
pub use sim::{simulate_all, simulate_method, simulate_stream, SimParams, StreamSimConfig};
pub use step::StreamState;
pub use verify::{verify_file, FieldReport, VerifyReport};
