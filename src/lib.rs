//! # repro-suite — workspace facade
//!
//! Re-exports the workspace crates so the runnable examples and the
//! cross-crate integration tests in `tests/` have a single import
//! surface. The actual functionality lives in:
//!
//! * [`szlite`] — prediction-based error-bounded lossy compressor
//! * [`ratiomodel`] — ratio / compression-time / write-time prediction
//! * [`commsim`] — threads-as-ranks MPI-like collectives
//! * [`pfsim`] — parallel file system substrate + event simulator
//! * [`h5lite`] — HDF5-like container with filters and async writes
//! * [`predwrite`] — the paper's predictive overlapped parallel write
//! * [`workloads`] — synthetic Nyx / VPIC / RTM dataset generators
//! * [`timeline`] — timestep-streaming checkpoint engine with online
//!   ratio-model adaptation
//! * [`obs`] — flight-recorder observability: span tracing with
//!   Chrome-trace export, per-step JSONL records

pub use commsim;
pub use h5lite;
pub use obs;
pub use pfsim;
pub use predwrite;
pub use ratiomodel;
pub use szlite;
pub use timeline;
pub use workloads;
