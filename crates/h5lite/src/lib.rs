//! # h5lite — a simplified HDF5-like hierarchical container
//!
//! The paper deeply integrates predictive compression with HDF5 1.13
//! (chunked datasets, the H5Z filter pipeline, and the asynchronous
//! VOL). No complete Rust HDF5 stack exists, so this crate implements
//! the subset the system needs, with the same structural roles:
//!
//! * a **self-describing file format** (superblock → chunk data →
//!   metadata table; one version, every chunk, the table and the
//!   superblock CRC32C-checked on every read), path-named datasets,
//!   attributes ([`meta`], [`mod@file`]);
//! * **contiguous and chunked layouts** with tile gather/scatter on
//!   read/write ([`chunk`]);
//! * an **H5Z-like filter pipeline**, a closed match over two ids: the
//!   szlite lossy filter under H5Z-SZ's id 32017 as its typed first
//!   stage (`f32` or `f64`, by the dataset's element type), and LZSS
//!   byte stages; any other id is an error ([`filter`]);
//! * **event-set asynchronous writes** on background threads — the
//!   async-VOL capability the paper's overlap design builds on
//!   ([`asyncq`]);
//! * a **chunk-compression pipeline** ([`pipeline`]) every dataset
//!   write and read runs through: chunk tiles fan out to a
//!   scratch-reusing worker pool and arrive in chunk order, so
//!   compression overlaps the async write queue and files are
//!   byte-identical at any worker count — one worker is a plain loop
//!   on the calling thread; a read ([`H5Reader::read_pipelined`],
//!   generic over values or raw bytes) allocates its output once and
//!   every worker writes a restored value once, into its final place;
//! * **parallel shared-file writes** at pre-computed offsets via
//!   [`H5File::write_chunk_at`] (synchronous) and
//!   [`H5File::write_chunk_at_async`] (event-set queued) from many
//!   rank threads — the two places a chunk is checksummed, written
//!   and recorded.
//!
//! Files round-trip: anything written can be re-opened with
//! [`H5Reader`] and decoded back through the inverse filter chain.

pub mod asyncq;
pub mod chunk;
pub mod crc;
pub mod error;
pub mod file;
pub mod filter;
pub mod meta;
pub mod pipeline;
pub mod pool;
pub mod scrub;

pub use asyncq::EventSet;
pub use crc::crc32c;
pub use error::{AsyncWriteFailure, H5Error, Result};
pub use file::{DatasetId, DatasetSpec, H5File, H5Reader, MAGIC, SUPERBLOCK, VERSION};
pub use filter::{FilterScratch, ReadElement, SzFilterParams, LZSS_FILTER_ID, SZLITE_FILTER_ID};
pub use meta::{AttrValue, ChunkInfo, DatasetMeta, Dtype, FilterSpec};
pub use pipeline::{compress_chunks, ordered_fanout};
pub use pool::BufferPool;
