//! # pfsim — parallel file system substrate
//!
//! The paper evaluates on Summit (GPFS) and Bebop (Lustre); neither is
//! available here, so this crate provides the storage layer in three
//! pieces:
//!
//! * [`bandwidth::BandwidthModel`] — an analytical model with the three
//!   properties the paper's results depend on: saturating per-process
//!   throughput (Fig. 7), an aggregate bandwidth cap shared by
//!   concurrent writers, and collective-round overhead.
//! * [`sharedfile::SharedFile`] — a real shared file with positioned
//!   concurrent writes (Unix `pread` / `pwrite`, so the crate is
//!   Unix-only) and atomic tail reservations, used by the real
//!   execution engine (threads-as-ranks writing to tmpfs).
//! * [`engine`] — a discrete-event simulator of per-rank
//!   compress→write pipelines over the contended model, used for
//!   512–4096-rank sweeps that would not fit as real threads.
//! * [`throttle::Throttle`] — a token bucket that imposes the model's
//!   aggregate cap on real writes so wall-clock behavior matches the
//!   simulated shape.
//! * [`faults`] — a deterministic fault-injection harness
//!   ([`faults::FaultFs`]) that attaches to a [`SharedFile`] and
//!   replays scheduled torn writes, bit flips and
//!   transient `EIO`s, for crash-recovery testing.

pub mod bandwidth;
pub mod engine;
pub mod faults;
pub mod sharedfile;
pub mod throttle;

pub use bandwidth::BandwidthModel;
pub use engine::{
    collective_write_time, simulate, simulate_concurrent_writes, PipelineTask, RankPipeline,
    SimOutcome, TaskTimes,
};
pub use faults::{Fault, FaultError, FaultFs, FaultPlan, FaultStatsSnapshot, SplitMix64};
pub use sharedfile::{SharedFile, TailRewind};
pub use throttle::Throttle;
