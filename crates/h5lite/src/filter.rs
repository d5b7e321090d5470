//! H5Z-like filter pipeline over a closed set of two filters.
//!
//! HDF5 registers its filters at run time because it hosts third-party
//! plugins; the paper's baseline is one of them, the H5Z-SZ filter
//! (id 32017). This crate knows exactly two ids and matches on them:
//! an szlite-backed equivalent under H5Z-SZ's id, and an LZSS
//! "deflate-like" filter. Any other id is
//! [`H5Error::UnknownFilter`]. Chains apply in declaration order on
//! write and in reverse order on read.
//!
//! The chain has one *typed* stage and any number of byte stages. The
//! szlite filter consumes and restores the dataset's `f32` elements (a
//! dataset of [`Dtype::F32`]), so it is only meaningful as the
//! first-declared stage; every LZSS stage maps bytes to bytes. On
//! read, [`invert_to`] inverts the byte stages through the scratch's
//! ping-pong buffers and lets the typed stage write each restored
//! value once, straight into the caller's destination
//! ([`ReadElement`]).

use crate::error::{H5Error, Result};
use crate::meta::{Dtype, FilterSpec};
use szlite::stream::{get_f64, get_varint, put_f64, put_varint};
use szlite::{Config, Dims, ErrorBound};

/// Filter id used by H5Z-SZ (kept for fidelity).
pub const SZLITE_FILTER_ID: u32 = 32017;
/// LZSS lossless filter id (stand-in for deflate, HDF5 id 1).
pub const LZSS_FILTER_ID: u32 = 1;

/// Reusable per-worker workspace for the filter pipeline, both
/// directions.
///
/// One `FilterScratch` per thread lets every chunk run the whole
/// filter chain without re-allocating codec state: the szlite
/// compressor workspace (quantization codes, Huffman frequency tables,
/// bit buffer), the mirror decompressor workspace (Huffman table with
/// its primary decode LUT and sparse-rebuild scratch, code/literal
/// staging, reconstruction grid), the byte↔float staging buffer, the
/// LZSS filter's matcher tables, and the inter-stage ping-pong buffers
/// all persist across chunks — so per-chunk decode pays only for the
/// symbols a chunk actually uses, never for the full quantizer
/// alphabet.
#[derive(Debug, Default)]
pub struct FilterScratch {
    /// szlite compressor workspace.
    sz: szlite::Scratch,
    /// szlite decompressor workspace (the decode mirror of `sz`).
    dsz: szlite::DecompressScratch,
    /// LZSS filter matcher state.
    lz: szlite::lossless::LzScratch,
    /// f32 staging for the SZ filter's byte↔float conversions.
    floats: Vec<f32>,
    /// Recycled intermediate buffer for multi-stage chains.
    stage: Vec<u8>,
    /// Where the read path's byte stages leave their output for the
    /// typed stage to consume.
    bytes: Vec<u8>,
}

impl FilterScratch {
    /// Empty workspace; buffers grow to steady-state on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Parameters of the szlite filter, stored in [`FilterSpec::params`].
#[derive(Debug, Clone, PartialEq)]
pub struct SzFilterParams {
    /// Absolute error bound (`true`) or value-range relative (`false`).
    pub absolute: bool,
    /// Bound value.
    pub bound: f64,
    /// Chunk extents the filter interprets the byte stream as.
    pub dims: Vec<usize>,
}

impl SzFilterParams {
    /// Encode to the opaque parameter bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.push(u8::from(self.absolute));
        put_f64(&mut out, self.bound);
        put_varint(&mut out, self.dims.len() as u64);
        for &d in &self.dims {
            put_varint(&mut out, d as u64);
        }
        out
    }

    /// Decode from parameter bytes.
    fn from_bytes(buf: &[u8]) -> Result<Self> {
        let mut pos = 0usize;
        let absolute = match buf.first() {
            Some(0) => false,
            Some(1) => true,
            _ => return Err(H5Error::Corrupt("sz filter flag")),
        };
        pos += 1;
        let bound = get_f64(buf, &mut pos).map_err(|_| H5Error::Truncated("sz bound"))?;
        let nd = get_varint(buf, &mut pos).map_err(|_| H5Error::Truncated("sz rank"))? as usize;
        if nd == 0 || nd > 3 {
            return Err(H5Error::Corrupt("sz rank"));
        }
        let mut dims = Vec::with_capacity(nd);
        for _ in 0..nd {
            dims.push(
                get_varint(buf, &mut pos).map_err(|_| H5Error::Truncated("sz dims"))? as usize,
            );
        }
        Ok(SzFilterParams {
            absolute,
            bound,
            dims,
        })
    }

    fn config(&self) -> Config {
        Config {
            error_bound: if self.absolute {
                ErrorBound::Abs(self.bound)
            } else {
                ErrorBound::Rel(self.bound)
            },
        }
    }
}

fn not_float() -> H5Error {
    H5Error::FilterChain("sz filter requires f32 data")
}

/// Bytes of one `f32`.
const F32_BYTES: usize = std::mem::size_of::<f32>();

/// Forward pass of the szlite stage (H5Z-SZ analog): `data` holds the
/// little-endian elements of a `dtype` chunk.
fn sz_encode(
    data: &[u8],
    params: &[u8],
    dtype: Dtype,
    out: &mut Vec<u8>,
    scratch: &mut FilterScratch,
) -> Result<()> {
    let p = SzFilterParams::from_bytes(params)?;
    if dtype != Dtype::F32 || !data.len().is_multiple_of(F32_BYTES) {
        return Err(not_float());
    }
    let FilterScratch { sz, floats, .. } = scratch;
    floats.clear();
    floats.extend(data.chunks_exact(F32_BYTES).map(f32::from_le));
    let dims = Dims::from_slice(&p.dims)?;
    szlite::compress_into(floats, &dims, &p.config(), sz, out)?;
    Ok(())
}

/// An element type a dataset can be restored as: `u8` is the raw
/// little-endian byte view of any dataset, `f32` the values of a
/// dataset of [`Dtype::F32`].
pub trait ReadElement: Copy + Default + Send + Sync + 'static {
    /// Whether a dataset of `dtype` restores as `Self`.
    fn check_dtype(dtype: Dtype) -> Result<()>;
    /// One value from its `size_of::<Self>()` little-endian bytes.
    fn from_le(bytes: &[u8]) -> Self;
    /// Inverse pass of the szlite stage: decode a stream of `dtype`
    /// elements into `out`, which must hold exactly the chunk.
    fn decode_sz(
        stream: &[u8],
        dtype: Dtype,
        scratch: &mut FilterScratch,
        out: &mut [Self],
    ) -> Result<()>;
}

impl ReadElement for f32 {
    fn check_dtype(dtype: Dtype) -> Result<()> {
        if dtype == Dtype::F32 {
            Ok(())
        } else {
            Err(H5Error::Corrupt("dataset is not f32"))
        }
    }

    #[inline]
    fn from_le(bytes: &[u8]) -> Self {
        f32::from_le_bytes(bytes.try_into().expect("one element's bytes"))
    }

    /// Straight into the destination.
    fn decode_sz(
        stream: &[u8],
        _dtype: Dtype,
        scratch: &mut FilterScratch,
        out: &mut [Self],
    ) -> Result<()> {
        szlite::decompress_to_slice(stream, &mut scratch.dsz, out)?;
        Ok(())
    }
}

impl ReadElement for u8 {
    fn check_dtype(_dtype: Dtype) -> Result<()> {
        Ok(())
    }

    #[inline]
    fn from_le(bytes: &[u8]) -> Self {
        bytes[0]
    }

    /// Through the float staging: the values are decoded typed, their
    /// bytes land in `out`.
    fn decode_sz(
        stream: &[u8],
        dtype: Dtype,
        scratch: &mut FilterScratch,
        out: &mut [u8],
    ) -> Result<()> {
        if dtype != Dtype::F32 {
            return Err(not_float());
        }
        let FilterScratch { dsz, floats, .. } = scratch;
        szlite::decompress_into(stream, dsz, floats)?;
        if out.len() != floats.len() * F32_BYTES {
            return Err(H5Error::ShapeMismatch {
                expected: out.len() as u64,
                actual: (floats.len() * F32_BYTES) as u64,
            });
        }
        for (dst, v) in out.chunks_exact_mut(F32_BYTES).zip(floats.iter()) {
            dst.copy_from_slice(&v.to_le_bytes());
        }
        Ok(())
    }
}

/// Convert a chunk's little-endian bytes into the destination's
/// elements — the typed stage of a chain without the szlite filter.
fn copy_from_le<T: ReadElement>(src: &[u8], out: &mut [T]) -> Result<()> {
    if src.len() != std::mem::size_of_val(out) {
        return Err(H5Error::ShapeMismatch {
            expected: std::mem::size_of_val(out) as u64,
            actual: src.len() as u64,
        });
    }
    for (dst, b) in out
        .iter_mut()
        .zip(src.chunks_exact(std::mem::size_of::<T>()))
    {
        *dst = T::from_le(b);
    }
    Ok(())
}

/// Run the stages of `specs` over `data` — in declaration order
/// forward, in reverse order otherwise — ping-ponging between `out`
/// and the scratch stage buffer so the final stage always lands in
/// `out` and nothing is allocated. Each stage is matched on its id:
/// forward, a first stage that is the szlite filter is the typed one
/// and takes `dtype` elements; an LZSS stage is szlite's trailing
/// lossless stage on its own, with that stage's bytes contract (see
/// [`szlite::lossless`]).
fn run_chain(
    specs: &[FilterSpec],
    forward: bool,
    dtype: Dtype,
    data: &[u8],
    scratch: &mut FilterScratch,
    out: &mut Vec<u8>,
) -> Result<()> {
    // The stage buffer lives outside `scratch` for the duration so
    // the codec can borrow `scratch` mutably alongside it.
    let mut stage = std::mem::take(&mut scratch.stage);
    let n = specs.len();
    // Parity: with an odd stage count the first output already goes
    // to `out`, so the alternation ends there.
    let mut into_out = n % 2 == 1;
    let mut res = Ok(());
    for k in 0..n {
        let s = &specs[if forward { k } else { n - 1 - k }];
        let first = k == 0;
        let (dst, src): (&mut Vec<u8>, &[u8]) = if into_out {
            (&mut *out, if first { data } else { &stage })
        } else {
            (&mut stage, if first { data } else { out })
        };
        dst.clear();
        res = match s.id {
            SZLITE_FILTER_ID if forward && first => sz_encode(src, &s.params, dtype, dst, scratch),
            // Past the first-declared position its input is no longer
            // the dataset's elements.
            SZLITE_FILTER_ID => Err(H5Error::FilterChain(
                "the sz filter must be a chain's first stage",
            )),
            LZSS_FILTER_ID if forward => {
                szlite::lossless::compress_into(src, dst, &mut scratch.lz);
                Ok(())
            }
            LZSS_FILTER_ID => szlite::lossless::decompress_into(src, dst).map_err(H5Error::from),
            id => Err(H5Error::UnknownFilter(id)),
        };
        if res.is_err() {
            break;
        }
        into_out = !into_out;
    }
    scratch.stage = stage;
    res
}

/// Apply a pipeline in declaration order (write path) to a chunk of
/// `dtype` elements, appending the final stage's output to `out`
/// (cleared first).
///
/// The input is borrowed and `scratch` supplies every intermediate
/// buffer, so a caller recycling `out` (e.g. through a
/// [`BufferPool`](crate::BufferPool)) runs the whole chain without
/// allocating.
pub fn apply_into(
    specs: &[FilterSpec],
    dtype: Dtype,
    data: &[u8],
    scratch: &mut FilterScratch,
    out: &mut Vec<u8>,
) -> Result<()> {
    out.clear();
    if specs.is_empty() {
        out.extend_from_slice(data);
        return Ok(());
    }
    run_chain(specs, true, dtype, data, scratch, out)
}

/// Invert a pipeline in reverse order (read path) into `out`, which
/// must hold exactly the chunk — the mirror image of [`apply_into`],
/// generic over what the dataset is restored as. The byte stages run
/// through the scratch's buffers; the last step writes every element
/// of `out` once: the szlite stage decodes into it, any other chain's
/// bytes are converted into it.
pub fn invert_to<T: ReadElement>(
    specs: &[FilterSpec],
    dtype: Dtype,
    data: &[u8],
    scratch: &mut FilterScratch,
    out: &mut [T],
) -> Result<()> {
    let typed = specs.first().is_some_and(|s| s.id == SZLITE_FILTER_ID);
    let bytes = &specs[usize::from(typed)..];
    let mut unfiltered = std::mem::take(&mut scratch.bytes);
    let res = (|| {
        let src = if bytes.is_empty() {
            data
        } else {
            run_chain(bytes, false, dtype, data, scratch, &mut unfiltered)?;
            &unfiltered
        };
        if typed {
            T::decode_sz(src, dtype, scratch, out)
        } else {
            copy_from_le(src, out)
        }
    })();
    scratch.bytes = unfiltered;
    res
}

#[cfg(test)]
mod tests {
    use super::*;
    use szlite::SzError;

    fn f32s_to_bytes(v: &[f32]) -> Vec<u8> {
        v.iter().flat_map(|f| f.to_le_bytes()).collect()
    }

    fn sz_spec(bound: f64, dims: &[usize]) -> FilterSpec {
        FilterSpec {
            id: SZLITE_FILTER_ID,
            params: SzFilterParams {
                absolute: true,
                bound,
                dims: dims.to_vec(),
            }
            .to_bytes(),
        }
    }

    fn lzss_spec() -> FilterSpec {
        FilterSpec {
            id: LZSS_FILTER_ID,
            params: vec![],
        }
    }

    fn apply(specs: &[FilterSpec], dtype: Dtype, data: &[u8]) -> Result<Vec<u8>> {
        let mut out = Vec::new();
        apply_into(specs, dtype, data, &mut FilterScratch::new(), &mut out)?;
        Ok(out)
    }

    fn invert<T: ReadElement>(
        specs: &[FilterSpec],
        dtype: Dtype,
        data: &[u8],
        n: usize,
    ) -> Result<Vec<T>> {
        let mut out = vec![T::default(); n];
        invert_to(specs, dtype, data, &mut FilterScratch::new(), &mut out)?;
        Ok(out)
    }

    #[test]
    fn sz_params_roundtrip() {
        let p = SzFilterParams {
            absolute: true,
            bound: 1e-3,
            dims: vec![4, 5, 6],
        };
        assert_eq!(SzFilterParams::from_bytes(&p.to_bytes()).unwrap(), p);
    }

    #[test]
    fn sz_filter_roundtrip_within_bound() {
        let data: Vec<f32> = (0..4096).map(|i| (i as f32 * 0.01).sin()).collect();
        let bytes = f32s_to_bytes(&data);
        let specs = [sz_spec(1e-3, &[16, 16, 16])];
        let enc = apply(&specs, Dtype::F32, &bytes).unwrap();
        assert!(enc.len() < bytes.len());
        let typed = invert::<f32>(&specs, Dtype::F32, &enc, data.len()).unwrap();
        for (x, y) in data.iter().zip(&typed) {
            assert!((x - y).abs() <= 1e-3);
        }
        // The byte view is the typed values' little-endian bytes.
        let raw = invert::<u8>(&specs, Dtype::F32, &enc, bytes.len()).unwrap();
        assert_eq!(raw, f32s_to_bytes(&typed));
    }

    #[test]
    fn sz_stage_is_typed_by_the_dataset() {
        // 1024 floats: the stage runs on a dataset of `f32` only. A
        // dataset that stores bytes has no szlite stage, on write or on
        // read, whatever the bytes hold.
        let data: Vec<f32> = (0..1024)
            .map(|i| 1000.0 + (i as f32 * 0.01).sin())
            .collect();
        let bytes = f32s_to_bytes(&data);
        let specs = [sz_spec(1e-3, &[1024])];
        let not_float = |r: Result<Vec<u8>>| match r {
            Err(H5Error::FilterChain(m)) => assert_eq!(m, "sz filter requires f32 data"),
            other => panic!("{other:?}"),
        };
        not_float(apply(&specs, Dtype::U8, &bytes));
        let enc = apply(&specs, Dtype::F32, &bytes).unwrap();
        not_float(invert::<u8>(&specs, Dtype::U8, &enc, bytes.len()));
        // An `f32` view of the stream needs the dataset to be `f32`.
        let typed = invert::<f32>(&specs, Dtype::F32, &enc, data.len()).unwrap();
        assert_eq!(
            invert::<u8>(&specs, Dtype::F32, &enc, bytes.len()).unwrap(),
            f32s_to_bytes(&typed)
        );
        assert!(invert::<u8>(&specs, Dtype::F32, &enc, bytes.len() / 2).is_err());
        // A stream whose header names another element type (1 was
        // `f64`) is szlite's typed error, not values read as `f32`.
        let mut retired = enc.clone();
        retired[5] = 1;
        for got in [
            invert::<f32>(&specs, Dtype::F32, &retired, data.len()).map(|_| ()),
            invert::<u8>(&specs, Dtype::F32, &retired, bytes.len()).map(|_| ()),
        ] {
            match got {
                Err(H5Error::Filter(SzError::Corrupt("dtype"))) => {}
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn destination_of_the_wrong_length_is_typed() {
        let vals: Vec<f32> = (0..256).map(|i| i as f32).collect();
        let bytes = f32s_to_bytes(&vals);
        for specs in [
            vec![],
            vec![lzss_spec()],
            vec![sz_spec(1e-3, &[256])],
            vec![sz_spec(1e-3, &[256]), lzss_spec()],
        ] {
            let enc = apply(&specs, Dtype::F32, &bytes).unwrap();
            assert_eq!(
                invert::<f32>(&specs, Dtype::F32, &enc, 256).unwrap().len(),
                256
            );
            for n in [0, 255, 257] {
                assert!(invert::<f32>(&specs, Dtype::F32, &enc, n).is_err());
                assert!(invert::<u8>(&specs, Dtype::F32, &enc, n * 4).is_err());
            }
        }
    }

    #[test]
    fn lzss_filter_roundtrip() {
        let data = vec![7u8; 10_000];
        let specs = [lzss_spec()];
        let enc = apply(&specs, Dtype::U8, &data).unwrap();
        assert!(enc.len() < 200);
        assert_eq!(invert::<u8>(&specs, Dtype::U8, &enc, 10_000).unwrap(), data);
    }

    #[test]
    fn pipeline_order_and_inverse() {
        // szlite → LZSS: two stages through the inter-stage ping-pong
        // buffer whose inverse only works in reverse order (LZSS bytes
        // are not an szlite stream).
        let vals: Vec<f32> = (0..1024).map(|i| (i / 7) as f32).collect();
        let data = f32s_to_bytes(&vals);
        let specs = vec![sz_spec(1e-3, &[1024]), lzss_spec()];
        let apply = |data: &[u8], scratch: &mut FilterScratch| {
            let mut out = Vec::new();
            apply_into(&specs, Dtype::F32, data, scratch, &mut out).unwrap();
            out
        };
        let invert = |data: &[u8], scratch: &mut FilterScratch| {
            let mut out = vec![0.0f32; vals.len()];
            invert_to(&specs, Dtype::F32, data, scratch, &mut out).unwrap();
            out
        };
        let mut scratch = FilterScratch::new();
        let enc = apply(&data, &mut scratch);
        let dec = invert(&enc, &mut scratch);
        for (v, y) in vals.iter().zip(&dec) {
            assert!((v - y).abs() <= 1e-3);
        }

        // A dirty scratch reused on the same input yields identical
        // bytes in both directions — the determinism guarantee the
        // pipelines rely on.
        let enc2 = apply(&data, &mut scratch);
        let fresh = apply(&data, &mut FilterScratch::new());
        assert_eq!(enc2, fresh);
        let dec2 = invert(&enc2, &mut scratch);
        let dec_fresh = invert(&fresh, &mut FilterScratch::new());
        assert_eq!(dec2, dec_fresh);
        assert_eq!(dec2, dec);
    }

    #[test]
    fn unknown_filter_rejected() {
        let specs = [FilterSpec {
            id: 999,
            params: vec![],
        }];
        assert!(matches!(
            apply(&specs, Dtype::U8, &[1, 2, 3]),
            Err(H5Error::UnknownFilter(999))
        ));
        assert!(matches!(
            invert::<u8>(&specs, Dtype::U8, &[1, 2, 3], 3),
            Err(H5Error::UnknownFilter(999))
        ));
    }

    #[test]
    fn sz_filter_past_the_first_stage_is_rejected() {
        // Behind another stage its input is not the dataset's elements
        // any more: a typed error on write and on read, never a lossy
        // pass over compressed bytes.
        let bytes = f32s_to_bytes(&[1.0; 64]);
        let specs = [lzss_spec(), sz_spec(1e-3, &[64])];
        assert!(matches!(
            apply(&specs, Dtype::F32, &bytes),
            Err(H5Error::FilterChain(_))
        ));
        assert!(matches!(
            invert::<f32>(&specs, Dtype::F32, &bytes, 64),
            Err(H5Error::FilterChain(_))
        ));
    }

    #[test]
    fn sz_filter_rejects_unaligned() {
        assert!(apply(&[sz_spec(0.1, &[3])], Dtype::F32, &[1, 2, 3]).is_err());
    }
}
