//! # commsim — MPI-like collectives over threads-as-ranks
//!
//! The paper's system runs on MPI; its algorithms use exactly three
//! communication patterns: barriers, an all-gather of small metadata
//! (predicted ratios, overflow sizes), and independent I/O. This crate
//! provides those semantics with OS threads standing in for MPI ranks,
//! so the planner and write pipeline exercise the same code paths they
//! would under real MPI.
//!
//! A rank that fails poisons its world rather than leave its peers
//! parked in a collective, as an aborting MPI rank would: by
//! [`Rank::poison`], or by panicking. A lock a panic poisoned is
//! re-raised (`.lock().unwrap()`), never read torn.
//!
//! ```
//! use commsim::World;
//!
//! let sums = World::new(4).run(|rk| {
//!     let all = rk.try_all_gather(rk.rank() as u64)?;
//!     Ok::<u64, commsim::WorldPoisoned>(all.iter().sum())
//! });
//! assert_eq!(sums, vec![Ok(6); 4]);
//! ```

pub mod barrier;
pub mod communicator;

pub use barrier::{Barrier, BarrierPoisoned};
pub use communicator::{Rank, World, WorldPoisoned};
