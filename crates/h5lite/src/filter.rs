//! H5Z-like dynamically registered filter pipeline.
//!
//! HDF5 compresses chunks through a chain of registered filters; the
//! paper's baseline is the H5Z-SZ filter (id 32017). We register an
//! szlite-backed equivalent under the same id, plus an LZSS
//! "deflate-like" filter, and apply chains in declaration order on
//! write / reverse order on read.

use crate::error::{H5Error, Result};
use crate::meta::FilterSpec;
use std::collections::HashMap;
use std::sync::Arc;
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
/// LZSS filter's matcher tables, and the inter-stage ping-pong buffer
/// all persist across chunks — so per-chunk decode pays only for the
/// symbols a chunk actually uses, never for the full quantizer
/// alphabet.
#[derive(Debug, Default)]
pub struct FilterScratch {
    /// szlite compressor workspace.
    pub sz: szlite::Scratch,
    /// szlite decompressor workspace (the decode mirror of `sz`).
    pub dsz: szlite::DecompressScratch,
    /// LZSS filter matcher state.
    lz: szlite::lossless::LzScratch,
    /// f32 staging for the SZ filter's byte↔float conversions.
    floats: Vec<f32>,
    /// Recycled intermediate buffer for multi-stage chains.
    stage: Vec<u8>,
}

impl FilterScratch {
    /// Empty workspace; buffers grow to steady-state on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// A chunk filter: bytes → bytes, invertible.
///
/// The trait is symmetric: both directions borrow their input, append
/// to a caller-cleared output buffer, and reuse [`FilterScratch`]
/// state instead of allocating per call, so worker pools on either
/// side of the pipeline run allocation-free at steady state.
pub trait Filter: Send + Sync {
    /// Registered id.
    fn id(&self) -> u32;
    /// Forward (compress/transform) pass: encode `data`, appending the
    /// result to `out` (cleared by the caller) and reusing `scratch`
    /// buffers instead of allocating per call.
    fn encode(
        &self,
        data: &[u8],
        params: &[u8],
        out: &mut Vec<u8>,
        scratch: &mut FilterScratch,
    ) -> Result<()>;
    /// Inverse pass: decode `data`, appending the result to `out`
    /// (cleared by the caller) and reusing `scratch` buffers.
    fn decode(
        &self,
        data: &[u8],
        params: &[u8],
        out: &mut Vec<u8>,
        scratch: &mut FilterScratch,
    ) -> Result<()>;
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
            ..Config::default()
        }
    }
}

/// The szlite lossy filter (H5Z-SZ analog, f32 chunks).
pub struct SzliteFilter;

impl Filter for SzliteFilter {
    fn id(&self) -> u32 {
        SZLITE_FILTER_ID
    }

    fn encode(
        &self,
        data: &[u8],
        params: &[u8],
        out: &mut Vec<u8>,
        scratch: &mut FilterScratch,
    ) -> Result<()> {
        let p = SzFilterParams::from_bytes(params)?;
        if !data.len().is_multiple_of(4) {
            return Err(H5Error::Filter("sz filter requires f32 data".into()));
        }
        scratch.floats.clear();
        scratch.floats.extend(
            data.chunks_exact(4)
                .map(|b| f32::from_le_bytes(b.try_into().unwrap())),
        );
        let dims = Dims::from_slice(&p.dims)?;
        szlite::compress_into(&scratch.floats, &dims, &p.config(), &mut scratch.sz, out)?;
        Ok(())
    }

    fn decode(
        &self,
        data: &[u8],
        _params: &[u8],
        out: &mut Vec<u8>,
        scratch: &mut FilterScratch,
    ) -> Result<()> {
        szlite::decompress_into::<f32>(data, &mut scratch.dsz, &mut scratch.floats)?;
        // Bulk float→byte conversion: resize-then-fill lets the copy
        // vectorize instead of growing the vec 4 bytes at a time.
        let base = out.len();
        out.resize(base + scratch.floats.len() * 4, 0);
        for (dst, f) in out[base..].chunks_exact_mut(4).zip(&scratch.floats) {
            dst.copy_from_slice(&f.to_le_bytes());
        }
        Ok(())
    }
}

/// LZSS lossless filter: szlite's trailing lossless stage on its own,
/// with that stage's bytes contract (see [`szlite::lossless`]).
pub struct LzssFilter;

impl Filter for LzssFilter {
    fn id(&self) -> u32 {
        LZSS_FILTER_ID
    }

    fn encode(
        &self,
        data: &[u8],
        _params: &[u8],
        out: &mut Vec<u8>,
        scratch: &mut FilterScratch,
    ) -> Result<()> {
        szlite::lossless::compress_into(data, out, &mut scratch.lz);
        Ok(())
    }

    fn decode(
        &self,
        data: &[u8],
        _params: &[u8],
        out: &mut Vec<u8>,
        _scratch: &mut FilterScratch,
    ) -> Result<()> {
        szlite::lossless::decompress_into(data, out)?;
        Ok(())
    }
}

/// Registry of filter implementations by id.
#[derive(Clone)]
pub struct FilterRegistry {
    filters: HashMap<u32, Arc<dyn Filter>>,
}

impl Default for FilterRegistry {
    fn default() -> Self {
        let mut r = FilterRegistry {
            filters: HashMap::new(),
        };
        r.register(Arc::new(SzliteFilter));
        r.register(Arc::new(LzssFilter));
        r
    }
}

impl FilterRegistry {
    fn register(&mut self, f: Arc<dyn Filter>) {
        self.filters.insert(f.id(), f);
    }

    /// Look up a filter by id.
    pub fn get(&self, id: u32) -> Result<&Arc<dyn Filter>> {
        self.filters.get(&id).ok_or(H5Error::UnknownFilter(id))
    }

    /// Run a pipeline chain, ping-ponging between `out` and the
    /// scratch stage buffer so the final stage always lands in `out`
    /// and nothing is allocated.
    fn run_chain<'a, I>(
        &self,
        stages: I,
        n: usize,
        data: &[u8],
        scratch: &mut FilterScratch,
        out: &mut Vec<u8>,
        forward: bool,
    ) -> Result<()>
    where
        I: Iterator<Item = &'a FilterSpec>,
    {
        // The stage buffer lives outside `scratch` for the duration so
        // the codec can borrow `scratch` mutably alongside it.
        let mut stage = std::mem::take(&mut scratch.stage);
        // Parity: with an odd stage count the first output already
        // goes to `out`, so the alternation ends there.
        let mut into_out = n % 2 == 1;
        let mut first = true;
        let mut res = Ok(());
        for s in stages {
            let (dst, src): (&mut Vec<u8>, &[u8]) = if into_out {
                (&mut *out, if first { data } else { &stage })
            } else {
                (&mut stage, if first { data } else { out })
            };
            dst.clear();
            res = self.get(s.id).and_then(|f| {
                if forward {
                    f.encode(src, &s.params, dst, scratch)
                } else {
                    f.decode(src, &s.params, dst, scratch)
                }
            });
            if res.is_err() {
                break;
            }
            into_out = !into_out;
            first = false;
        }
        scratch.stage = stage;
        res
    }

    /// Apply a pipeline in declaration order (write path), appending
    /// the final stage's output to `out` (cleared first).
    ///
    /// The input is borrowed and `scratch` supplies every intermediate
    /// buffer, so a caller recycling `out` (e.g. through a
    /// [`BufferPool`](crate::BufferPool)) runs the whole chain without
    /// allocating.
    pub fn apply_into(
        &self,
        specs: &[FilterSpec],
        data: &[u8],
        scratch: &mut FilterScratch,
        out: &mut Vec<u8>,
    ) -> Result<()> {
        out.clear();
        if specs.is_empty() {
            out.extend_from_slice(data);
            return Ok(());
        }
        self.run_chain(specs.iter(), specs.len(), data, scratch, out, true)
    }

    /// Invert a pipeline in reverse order (read path), appending the
    /// de-filtered bytes to `out` (cleared first) — the mirror image of
    /// [`FilterRegistry::apply_into`].
    pub fn invert_into(
        &self,
        specs: &[FilterSpec],
        data: &[u8],
        scratch: &mut FilterScratch,
        out: &mut Vec<u8>,
    ) -> Result<()> {
        out.clear();
        if specs.is_empty() {
            out.extend_from_slice(data);
            return Ok(());
        }
        self.run_chain(specs.iter().rev(), specs.len(), data, scratch, out, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f32s_to_bytes(v: &[f32]) -> Vec<u8> {
        v.iter().flat_map(|f| f.to_le_bytes()).collect()
    }

    fn enc(f: &dyn Filter, data: &[u8], params: &[u8]) -> Result<Vec<u8>> {
        let mut out = Vec::new();
        let mut scratch = FilterScratch::new();
        f.encode(data, params, &mut out, &mut scratch)?;
        Ok(out)
    }

    fn dec(f: &dyn Filter, data: &[u8], params: &[u8]) -> Result<Vec<u8>> {
        let mut out = Vec::new();
        let mut scratch = FilterScratch::new();
        f.decode(data, params, &mut out, &mut scratch)?;
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
        let params = SzFilterParams {
            absolute: true,
            bound: 1e-3,
            dims: vec![16, 16, 16],
        }
        .to_bytes();
        let f = SzliteFilter;
        let enc = enc(&f, &bytes, &params).unwrap();
        assert!(enc.len() < bytes.len());
        let dec = dec(&f, &enc, &params).unwrap();
        assert_eq!(dec.len(), bytes.len());
        for (a, b) in bytes.chunks_exact(4).zip(dec.chunks_exact(4)) {
            let x = f32::from_le_bytes(a.try_into().unwrap());
            let y = f32::from_le_bytes(b.try_into().unwrap());
            assert!((x - y).abs() <= 1e-3);
        }
    }

    #[test]
    fn lzss_filter_roundtrip() {
        let data = vec![7u8; 10_000];
        let f = LzssFilter;
        let enc = enc(&f, &data, &[]).unwrap();
        assert!(enc.len() < 200);
        assert_eq!(dec(&f, &enc, &[]).unwrap(), data);
    }

    #[test]
    fn pipeline_order_and_inverse() {
        let reg = FilterRegistry::default();
        // szlite → LZSS: two stages through the inter-stage ping-pong
        // buffer whose inverse only works in reverse order (LZSS bytes
        // are not an szlite stream).
        let vals: Vec<f32> = (0..1024).map(|i| (i / 7) as f32).collect();
        let data = f32s_to_bytes(&vals);
        let specs = vec![
            FilterSpec {
                id: SZLITE_FILTER_ID,
                params: SzFilterParams {
                    absolute: true,
                    bound: 1e-3,
                    dims: vec![1024],
                }
                .to_bytes(),
            },
            FilterSpec {
                id: LZSS_FILTER_ID,
                params: vec![],
            },
        ];
        let apply = |data: &[u8], scratch: &mut FilterScratch| {
            let mut out = Vec::new();
            reg.apply_into(&specs, data, scratch, &mut out).unwrap();
            out
        };
        let invert = |data: &[u8], scratch: &mut FilterScratch| {
            let mut out = Vec::new();
            reg.invert_into(&specs, data, scratch, &mut out).unwrap();
            out
        };
        let mut scratch = FilterScratch::new();
        let enc = apply(&data, &mut scratch);
        let dec = invert(&enc, &mut scratch);
        assert_eq!(dec.len(), data.len());
        for (v, b) in vals.iter().zip(dec.chunks_exact(4)) {
            let y = f32::from_le_bytes(b.try_into().unwrap());
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
        let reg = FilterRegistry::default();
        let specs = vec![FilterSpec {
            id: 999,
            params: vec![],
        }];
        assert!(matches!(
            reg.apply_into(
                &specs,
                &[1, 2, 3],
                &mut FilterScratch::new(),
                &mut Vec::new()
            ),
            Err(H5Error::UnknownFilter(999))
        ));
    }

    #[test]
    fn sz_filter_rejects_unaligned() {
        let f = SzliteFilter;
        let params = SzFilterParams {
            absolute: true,
            bound: 0.1,
            dims: vec![3],
        }
        .to_bytes();
        assert!(enc(&f, &[1, 2, 3], &params).is_err());
    }
}
