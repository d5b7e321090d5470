//! Storage-element abstraction: the compressor is generic over `f32`
//! and `f64` scalars.

use crate::error::{Result, SzError};

/// Stream-header type tag for `f32` elements.
const DTYPE_F32: u8 = 0;
/// Stream-header type tag for `f64` elements.
const DTYPE_F64: u8 = 1;

/// A floating-point storage element szlite can compress.
pub trait Element: Copy + PartialOrd + Send + Sync + 'static {
    /// Type tag stored in the stream header (0 = `f32`, 1 = `f64`); a
    /// stream decodes only into the element type it was made from.
    const DTYPE: u8;
    /// Size in bytes.
    const BYTES: usize;
    /// Size in bits (the "original bit-rate" `Bori` of the paper).
    const BITS: u32;

    /// Widen to `f64` for prediction/quantization arithmetic.
    fn to_f64(self) -> f64;
    /// Narrow from `f64` (rounding to nearest representable value).
    fn from_f64(v: f64) -> Self;
    /// Append the little-endian byte representation.
    fn write_le(self, out: &mut Vec<u8>);
    /// Read a little-endian value, advancing `pos`.
    fn read_le(buf: &[u8], pos: &mut usize) -> Result<Self>;
}

impl Element for f32 {
    const DTYPE: u8 = DTYPE_F32;
    const BYTES: usize = 4;
    const BITS: u32 = 32;

    #[inline]
    fn to_f64(self) -> f64 {
        f64::from(self)
    }

    #[inline]
    fn from_f64(v: f64) -> Self {
        v as f32
    }

    fn write_le(self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }

    fn read_le(buf: &[u8], pos: &mut usize) -> Result<Self> {
        let end = *pos + 4;
        let b = buf
            .get(*pos..end)
            .ok_or(SzError::Truncated("f32 literal"))?;
        *pos = end;
        Ok(f32::from_le_bytes(b.try_into().unwrap()))
    }
}

impl Element for f64 {
    const DTYPE: u8 = DTYPE_F64;
    const BYTES: usize = 8;
    const BITS: u32 = 64;

    #[inline]
    fn to_f64(self) -> f64 {
        self
    }

    #[inline]
    fn from_f64(v: f64) -> Self {
        v
    }

    fn write_le(self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }

    fn read_le(buf: &[u8], pos: &mut usize) -> Result<Self> {
        let end = *pos + 8;
        let b = buf
            .get(*pos..end)
            .ok_or(SzError::Truncated("f64 literal"))?;
        *pos = end;
        Ok(f64::from_le_bytes(b.try_into().unwrap()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f32_roundtrip() {
        let mut buf = Vec::new();
        1.5f32.write_le(&mut buf);
        let mut pos = 0;
        assert_eq!(f32::read_le(&buf, &mut pos).unwrap(), 1.5);
        assert_eq!(pos, 4);
    }

    #[test]
    fn f64_roundtrip() {
        let mut buf = Vec::new();
        (-2.25e100f64).write_le(&mut buf);
        let mut pos = 0;
        assert_eq!(f64::read_le(&buf, &mut pos).unwrap(), -2.25e100);
    }

    #[test]
    fn truncated_literal() {
        let buf = vec![0u8; 3];
        let mut pos = 0;
        assert!(f32::read_le(&buf, &mut pos).is_err());
    }
}
