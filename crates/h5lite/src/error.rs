//! Error type for h5lite operations.

use std::fmt;

/// One failed asynchronous write, surfaced at
/// [`EventSet::wait`](crate::EventSet::wait).
#[derive(Debug)]
pub struct AsyncWriteFailure {
    /// Absolute file offset the write targeted.
    pub offset: u64,
    /// Length of the payload that failed to land.
    pub len: u64,
    /// The underlying I/O error.
    pub error: std::io::Error,
}

impl fmt::Display for AsyncWriteFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "write of {} bytes at offset {}: {}",
            self.len, self.offset, self.error
        )
    }
}

/// Errors from reading or writing an h5lite container.
#[derive(Debug)]
pub enum H5Error {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Bad magic number — not an h5lite file.
    BadMagic,
    /// Unsupported format version.
    UnsupportedVersion(u8),
    /// Stream ended early.
    Truncated(&'static str),
    /// Structurally invalid content.
    Corrupt(&'static str),
    /// Stored bytes fail their recorded CRC32C — bit rot or a torn
    /// write; the data is never silently decoded.
    ChecksumMismatch {
        /// What was being verified ("chunk", "metadata table", ...).
        context: &'static str,
        /// Absolute file offset of the checked extent.
        offset: u64,
        /// Checksum recorded in the metadata.
        expected: u32,
        /// Checksum of the bytes actually read.
        actual: u32,
    },
    /// One or more asynchronous writes failed; collected typed at
    /// [`EventSet::wait`](crate::EventSet::wait) instead of panicking
    /// the worker threads.
    AsyncWrites(Vec<AsyncWriteFailure>),
    /// Dataset name not found.
    NoSuchDataset(String),
    /// Dataset already exists.
    DuplicateDataset(String),
    /// A filter id has no registered implementation.
    UnknownFilter(u32),
    /// The szlite stage failed to encode or decode, with szlite's own
    /// typed error.
    Filter(szlite::SzError),
    /// A filter stage the chain cannot run where it stands: the szlite
    /// stage on data other than `f32`, or behind another stage.
    FilterChain(&'static str),
    /// Data length does not match dataset extents.
    ShapeMismatch { expected: u64, actual: u64 },
    /// Operation invalid in the file's current state.
    InvalidState(&'static str),
}

impl fmt::Display for H5Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            H5Error::Io(e) => write!(f, "i/o error: {e}"),
            H5Error::BadMagic => write!(f, "not an h5lite file"),
            H5Error::UnsupportedVersion(v) => write!(f, "unsupported version {v}"),
            H5Error::Truncated(s) => write!(f, "truncated while reading {s}"),
            H5Error::Corrupt(s) => write!(f, "corrupt section: {s}"),
            H5Error::ChecksumMismatch {
                context,
                offset,
                expected,
                actual,
            } => write!(
                f,
                "checksum mismatch in {context} at offset {offset}: \
                 recorded {expected:#010x}, read {actual:#010x}"
            ),
            H5Error::AsyncWrites(fails) => {
                write!(f, "{} async write failure(s): ", fails.len())?;
                for (i, w) in fails.iter().enumerate() {
                    if i > 0 {
                        write!(f, "; ")?;
                    }
                    write!(f, "{w}")?;
                }
                Ok(())
            }
            H5Error::NoSuchDataset(n) => write!(f, "no such dataset: {n}"),
            H5Error::DuplicateDataset(n) => write!(f, "dataset already exists: {n}"),
            H5Error::UnknownFilter(id) => write!(f, "unknown filter id {id}"),
            H5Error::Filter(e) => write!(f, "filter error: {e}"),
            H5Error::FilterChain(m) => write!(f, "filter chain: {m}"),
            H5Error::ShapeMismatch { expected, actual } => {
                write!(f, "shape mismatch: expected {expected} bytes, got {actual}")
            }
            H5Error::InvalidState(s) => write!(f, "invalid state: {s}"),
        }
    }
}

impl std::error::Error for H5Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            H5Error::Io(e) => Some(e),
            H5Error::Filter(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for H5Error {
    fn from(e: std::io::Error) -> Self {
        H5Error::Io(e)
    }
}

impl From<szlite::SzError> for H5Error {
    fn from(e: szlite::SzError) -> Self {
        H5Error::Filter(e)
    }
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, H5Error>;
