//! Error type shared by all szlite operations.

use std::fmt;

/// Errors produced while compressing or decompressing a stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SzError {
    /// The input byte stream does not start with the szlite magic number.
    BadMagic,
    /// The stream version is newer than this library understands.
    UnsupportedVersion(u8),
    /// The stream ended before a complete section could be read.
    Truncated(&'static str),
    /// A field in the stream holds a value that is out of range
    /// (e.g. a dimension of zero, a corrupt Huffman table).
    Corrupt(&'static str),
    /// The supplied dimensions do not match the data length.
    DimMismatch { expected: usize, actual: usize },
    /// The error bound is not positive / finite.
    InvalidErrorBound,
    /// Empty input data.
    EmptyInput,
}

impl fmt::Display for SzError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SzError::BadMagic => write!(f, "not an szlite stream (bad magic)"),
            SzError::UnsupportedVersion(v) => write!(f, "unsupported stream version {v}"),
            SzError::Truncated(sec) => write!(f, "truncated stream while reading {sec}"),
            SzError::Corrupt(sec) => write!(f, "corrupt stream section: {sec}"),
            SzError::DimMismatch { expected, actual } => {
                write!(f, "dimension product {expected} != data length {actual}")
            }
            SzError::InvalidErrorBound => write!(f, "error bound must be positive and finite"),
            SzError::EmptyInput => write!(f, "input data is empty"),
        }
    }
}

impl std::error::Error for SzError {}

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, SzError>;
