//! Decompression: parse header, undo LZSS, Huffman-decode the symbol
//! stream, and re-run the Lorenzo/quantizer recurrence.
//!
//! The entropy stage is table-driven end to end: the symbol stream is
//! batch-decoded by [`HuffmanDecoder::decode_into`], whose table
//! resolves a short code — and the code after it, when that one also
//! ends inside the peek — from a single peek at the word-buffered
//! [`BitReader`], and finds a longer one by a search over code lengths;
//! the LZSS stage expands through the chunked copy loops in
//! [`lossless::decompress_into`].
//!
//! The recurrence replays on the compressor's row-block schedule, with
//! the compressor's two kernels mirrored: escape-free blocks of 8 rows
//! with a `y − 1` neighbor run the AVX2 kernel ([`crate::avx2`]) where
//! [`Avx2::select`] issues its token, escape-free blocks of [`LANES`]
//! rows the scalar lanes of [`replay`], and everything else — 1-D data,
//! leftover rows, blocks with an escape or a bad symbol — goes row by
//! row. Whether a block is escape-free takes one decision: none when
//! the chunk's Huffman table holds no escape and no symbol outside the
//! alphabet, one pass over the block's codes otherwise. Every arm
//! restores the same bits.
//!
//! The decode path mirrors the compressor's scratch discipline: a
//! [`DecompressScratch`] keeps the Huffman table (LUT included), the
//! code/literal staging buffers, and the two rolling reconstruction
//! planes alive across calls, so a per-chunk decode loop
//! ([`decompress_into`], or [`decompress_to_slice`] when the caller
//! owns the destination) allocates nothing at steady state.
//! [`decompress`] and the typed wrappers remain the allocating
//! convenience entry points.

use crate::avx2::{self, Avx2};
use crate::compressor::{Wave, LANES, MAGIC, VERSION};
use crate::config::{Dims, MAX_RADIUS};
use crate::element::Element;
use crate::error::{Result, SzError};
use crate::huffman::HuffmanDecoder;
use crate::lossless;
use crate::predictor::{stencil, stencil_order, Lorenzo, Planes};
use crate::quantizer::{Quantizer, UNPREDICTABLE};
use crate::stream::{get_f64, get_u32, get_varint, BitReader};

/// Upper bound on the points a stream header may declare (2^48 points
/// ≈ 1 PB of f32 data); anything larger is treated as corruption
/// rather than allowed to drive gigantic allocations.
const MAX_POINTS: u64 = 1 << 48;

/// Parsed stream header, available without decompressing the payload.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamInfo {
    /// Element type tag (0 = f32, 1 = f64).
    pub dtype: u8,
    /// Grid shape.
    pub dims: Dims,
    /// Resolved absolute error bound the stream was produced with.
    pub eb: f64,
    /// Quantizer radius.
    pub radius: u32,
    /// Whether the LZSS stage was applied.
    pub lossless: bool,
    /// Offset of the payload within the stream.
    pub payload_offset: usize,
    /// Payload length in bytes.
    pub payload_len: usize,
}

/// Parse the header of an szlite stream.
///
/// Never panics: truncation at any header boundary yields
/// [`SzError::Truncated`] and implausible field values (overflowing
/// dimension products, absurd payload lengths) yield
/// [`SzError::Corrupt`].
pub fn stream_info(bytes: &[u8]) -> Result<StreamInfo> {
    let mut pos = 0usize;
    if get_u32(bytes, &mut pos)? != MAGIC {
        return Err(SzError::BadMagic);
    }
    let version = *bytes.get(pos).ok_or(SzError::Truncated("version"))?;
    pos += 1;
    if version != VERSION {
        return Err(SzError::UnsupportedVersion(version));
    }
    let dtype = *bytes.get(pos).ok_or(SzError::Truncated("dtype"))?;
    pos += 1;
    let ndims = *bytes.get(pos).ok_or(SzError::Truncated("ndims"))? as usize;
    pos += 1;
    if ndims == 0 || ndims > 3 {
        return Err(SzError::Corrupt("ndims"));
    }
    let mut ext = [0usize; 3];
    let mut points = 1u64;
    for e in &mut ext[..ndims] {
        let d = get_varint(bytes, &mut pos)?;
        points = points
            .checked_mul(d)
            .filter(|&p| p <= MAX_POINTS)
            .ok_or(SzError::Corrupt("dims overflow"))?;
        *e = d as usize;
    }
    let dims = Dims::from_slice(&ext[..ndims])?;
    let eb = get_f64(bytes, &mut pos)?;
    if !(eb.is_finite() && eb > 0.0) {
        return Err(SzError::Corrupt("header eb"));
    }
    let radius = get_u32(bytes, &mut pos)?;
    if !(2..=MAX_RADIUS).contains(&radius) {
        return Err(SzError::Corrupt("header radius"));
    }
    let mode = *bytes.get(pos).ok_or(SzError::Truncated("lossless mode"))?;
    pos += 1;
    if mode > 1 {
        return Err(SzError::Corrupt("lossless mode"));
    }
    let payload_len = get_varint(bytes, &mut pos)? as usize;
    let payload_end = pos
        .checked_add(payload_len)
        .ok_or(SzError::Corrupt("payload length"))?;
    if bytes.len() < payload_end {
        return Err(SzError::Truncated("payload"));
    }
    Ok(StreamInfo {
        dtype,
        dims,
        eb,
        radius,
        lossless: mode == 1,
        payload_offset: pos,
        payload_len,
    })
}

/// Reusable decompressor workspace: the LZSS output buffer, the
/// Huffman table (with its LUT and sparse rebuild scratch), decoded
/// quantization codes, and the two rolling reconstruction planes.
///
/// Mirrors the compressor's [`Scratch`](crate::Scratch): the per-chunk
/// hot path allocates all of this afresh when going through
/// [`decompress`]; a worker that decodes many chunks keeps one
/// `DecompressScratch` and calls [`decompress_into`] or
/// [`decompress_to_slice`] so the buffers are recycled. The scratch
/// never changes the decoded values — output is value-identical either
/// way.
#[derive(Debug, Default)]
pub struct DecompressScratch {
    payload: Vec<u8>,
    huffman: HuffmanDecoder,
    codes: Vec<u32>,
    planes: Planes,
}

impl DecompressScratch {
    /// Empty workspace; buffers grow to steady-state on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Decompress a stream into elements of type `T`.
///
/// Fails with [`SzError::Corrupt`] if the stream's element type does
/// not match `T`.
pub fn decompress<T: Element>(bytes: &[u8]) -> Result<(Vec<T>, Dims)> {
    let mut scratch = DecompressScratch::new();
    let mut out = Vec::new();
    let dims = decompress_into(bytes, &mut scratch, &mut out)?;
    Ok((out, dims))
}

/// Decompress a stream into `out`, reusing `scratch` for all transient
/// decoder state. Returns the grid shape; on error `out` is left empty.
pub fn decompress_into<T: Element>(
    bytes: &[u8],
    scratch: &mut DecompressScratch,
    out: &mut Vec<T>,
) -> Result<Dims> {
    decompress_on(true, bytes, scratch, out)
}

/// [`decompress_into`] with every block on the scalar kernels whatever
/// the CPU is — the arm a host without AVX2 runs, for the tests that
/// pin both arms to the same values.
#[cfg(test)]
pub(crate) fn decompress_into_scalar<T: Element>(
    bytes: &[u8],
    scratch: &mut DecompressScratch,
    out: &mut Vec<T>,
) -> Result<Dims> {
    decompress_on(false, bytes, scratch, out)
}

fn decompress_on<T: Element>(
    may_vectorize: bool,
    bytes: &[u8],
    scratch: &mut DecompressScratch,
    out: &mut Vec<T>,
) -> Result<Dims> {
    // Every element of `out` is written before it is read, so the
    // buffer is not cleared: `resize` only fills what a longer stream
    // adds.
    let dst = &mut *out;
    let decoded = decode_stream(may_vectorize, bytes, scratch, move |n| {
        dst.resize(n, T::from_f64(0.0));
        Ok(&mut dst[..])
    });
    if decoded.is_err() {
        out.clear();
    }
    decoded
}

/// Decompress a stream straight into a caller-owned destination: every
/// restored value is written once, in its final place. `out` must hold
/// exactly the header's point count — any other length is
/// [`SzError::DimMismatch`] with `out` untouched. A later error (a
/// corrupt symbol, short literals) leaves `out` partly written.
pub fn decompress_to_slice<T: Element>(
    bytes: &[u8],
    scratch: &mut DecompressScratch,
    out: &mut [T],
) -> Result<Dims> {
    decode_stream(true, bytes, scratch, move |n| {
        if out.len() == n {
            Ok(out)
        } else {
            Err(SzError::DimMismatch {
                expected: n,
                actual: out.len(),
            })
        }
    })
}

/// The one decode body. `dest` is asked for the destination of the
/// header's point count once every stream check short of the replay
/// itself has passed, and before any element is written.
/// `may_vectorize` is false only for the tests' scalar arm.
fn decode_stream<'o, T: Element>(
    may_vectorize: bool,
    bytes: &[u8],
    scratch: &mut DecompressScratch,
    dest: impl FnOnce(usize) -> Result<&'o mut [T]>,
) -> Result<Dims> {
    let _span = obs::span_arg("sz.decompress", bytes.len() as u64);
    let info = stream_info(bytes)?;
    if info.dtype != T::DTYPE {
        return Err(SzError::Corrupt("element type mismatch"));
    }
    let DecompressScratch {
        payload,
        huffman,
        codes,
        planes,
    } = scratch;
    let body = &bytes[info.payload_offset..info.payload_offset + info.payload_len];
    let payload_ref: &[u8] = if info.lossless {
        lossless::decompress_into(body, payload)?;
        payload
    } else {
        body
    };

    let mut pos = 0usize;
    huffman.reinit(payload_ref, &mut pos)?;
    let n_codes = get_varint(payload_ref, &mut pos)? as usize;
    if n_codes != info.dims.len() {
        return Err(SzError::Corrupt("code count vs dims"));
    }
    let code_len = get_varint(payload_ref, &mut pos)? as usize;
    let code_end = pos
        .checked_add(code_len)
        .ok_or(SzError::Corrupt("code length"))?;
    let code_bytes = payload_ref
        .get(pos..code_end)
        .ok_or(SzError::Truncated("code bytes"))?;
    // Every symbol costs at least one bit, so a well-formed stream
    // never declares more codes than the bit budget can hold; checking
    // here keeps a corrupt count from driving a gigantic allocation.
    if n_codes
        > code_len
            .checked_mul(8)
            .ok_or(SzError::Corrupt("code length"))?
    {
        return Err(SzError::Corrupt("code count vs code bytes"));
    }
    let mut br = BitReader::new(code_bytes);
    huffman.decode_into(&mut br, n_codes, codes)?;
    pos = code_end;
    let n_literals = get_varint(payload_ref, &mut pos)? as usize;
    let lit_bytes = payload_ref
        .get(pos..)
        .ok_or(SzError::Truncated("literals"))?;
    let lit_needed = n_literals
        .checked_mul(T::BYTES)
        .ok_or(SzError::Corrupt("literal count"))?;
    if lit_bytes.len() < lit_needed {
        return Err(SzError::Truncated("literal bytes"));
    }

    let quant = Quantizer::new(info.eb, info.radius);
    let alphabet = quant.alphabet();
    let lorenzo = Lorenzo::new(&info.dims);
    let st = *lorenzo.strides();
    let (nz, ny, nx) = (st.ext[0], st.ext[1], st.ext[2]);
    let plane = ny * nx;

    let out = dest(info.dims.len())?;
    planes.reset(nz, ny, nx);
    let mut lits = Literals {
        bytes: lit_bytes,
        pos: 0,
    };
    // Lag-pipelining reorders points across the rows of a block, so it
    // is reserved for blocks whose every code is a plain in-alphabet
    // symbol; a block with an escape or a bad symbol replays row by
    // row, which keeps literal order and the first error reported
    // those of the per-point replay. A table that holds neither can
    // decode neither, and then no block is scanned.
    let plain = UNPREDICTABLE + 1..alphabet as u32;
    let all_plain = huffman.decodes_only(plain.clone());
    // The kernel choice mirrors `compress_into`'s: the vector kernel
    // where the host, the element type and the radius allow it and the
    // block has its 8 rows and a `y − 1` neighbor; otherwise 4 scalar
    // lanes, or one for leftover rows and 1-D data.
    let vector = Avx2::select::<T>(i64::from(info.radius)).filter(|_| may_vectorize);
    for z in 0..nz {
        if z > 0 {
            planes.next_plane();
        }
        let mut y = 0;
        while y < ny {
            let order = stencil_order(z, ny);
            let mut wide = vector.filter(|_| ny - y >= avx2::ROWS && order >= 2);
            let mut lanes = match wide {
                Some(_) => avx2::ROWS,
                None if ny - y >= LANES => LANES,
                None => 1,
            };
            let base = z * plane + y * nx;
            // One decision per block: a single pass without a short
            // circuit, which vectorizes.
            if lanes > 1
                && !all_plain
                && !codes[base..base + lanes * nx]
                    .iter()
                    .fold(true, |ok, c| ok & plain.contains(c))
            {
                (wide, lanes) = (None, 1);
            }
            let at = base..base + lanes * nx;
            let (above, rows, zp, zs) = planes.block(z == 0, y, lanes);
            let mut block = Replay {
                codes: &codes[at.clone()],
                nx,
                above,
                rows,
                zp,
                zs,
                out: &mut out[at],
            };
            let (b, q, l) = (&mut block, &quant, &mut lits);
            match (wide, lanes, order) {
                (Some(v), _, 3) => v.decode_rows::<T, 3>(b, q, l),
                (Some(v), _, _) => v.decode_rows::<T, 2>(b, q, l),
                (None, LANES, 3) => decode_rows::<T, LANES, 3>(b, q, l),
                (None, LANES, _) => decode_rows::<T, LANES, 2>(b, q, l),
                (None, _, 3) => decode_rows::<T, 1, 3>(b, q, l),
                (None, _, 2) => decode_rows::<T, 1, 2>(b, q, l),
                (None, _, _) => decode_rows::<T, 1, 1>(b, q, l),
            }?;
            y += lanes;
        }
    }
    Ok(info.dims)
}

/// A block of consecutive rows of one plane, as the replay sees it: the
/// decoder's [`Block`](crate::compressor::Block), with the block's
/// codes in and its restored values out.
pub(crate) struct Replay<'a, T> {
    pub(crate) codes: &'a [u32],
    pub(crate) nx: usize,
    pub(crate) above: &'a [f64],
    pub(crate) rows: &'a mut [f64],
    pub(crate) zp: &'a [f64],
    pub(crate) zs: usize,
    pub(crate) out: &'a mut [T],
}

/// The stream's literal bytes and the read position in them.
pub(crate) struct Literals<'a> {
    bytes: &'a [u8],
    pos: usize,
}

/// Iterations `ts` of the replay of a block of `L` rows — the one
/// scalar per-point body of the decoder: invert the quantizer against
/// the Lorenzo prediction, pulling literals for escape codes.
///
/// Mirror of the compressor's [`sweep`](crate::compressor::sweep) —
/// same one-element-lag schedule over the lanes, same [`Wave`], the
/// same prediction expression (of stencil order `D`) on the same
/// operands, so the replayed values are bit-identical to the per-point
/// replay whatever `L` and `D` are. A whole block is
/// `ts = 0..nx + L − 1` from a fresh [`Wave`] ([`decode_rows`]); the
/// vector kernel ([`crate::avx2`]) runs only its ramps through here.
/// Literals are consumed in visit order, which is stream order only for
/// `L = 1`: the caller runs `L > 1` on escape-free blocks only.
#[inline(always)]
pub(crate) fn replay<T: Element, const L: usize, const D: usize>(
    ts: std::ops::Range<usize>,
    w: &mut Wave<L>,
    b: &mut Replay<'_, T>,
    quant: &Quantizer,
    lits: &mut Literals<'_>,
) -> Result<()> {
    let nx = b.nx;
    debug_assert!(b.codes.len() == L * nx && b.rows.len() == L * nx && b.out.len() == L * nx);
    debug_assert!(b.above.len() == nx && b.zp.len() == L * b.zs + nx);
    debug_assert!(L == 1 || !b.codes.contains(&UNPREDICTABLE));
    debug_assert!(D == 3 || b.zs == 0);
    let alphabet = quant.alphabet();
    for t in ts {
        for j in (0..L).rev() {
            let x = t.wrapping_sub(j);
            if x >= nx {
                continue;
            }
            let i = j * nx + x;
            let ry = if j == 0 { b.above[x] } else { w.cx[j - 1] };
            let (rz, rzy) = if D == 3 {
                (b.zp[(j + 1) * b.zs + x], b.zp[j * b.zs + x])
            } else {
                (0.0, 0.0)
            };
            let pred = stencil::<D>(w.cx[j], ry, rz, w.pyx[j], w.pzx[j], rzy, w.pzyx[j]);
            let code = b.codes[i];
            let (value, rv) = if code == UNPREDICTABLE {
                let v = T::read_le(lits.bytes, &mut lits.pos)?;
                let r = v.to_f64();
                (v, if r.is_finite() { r } else { 0.0 })
            } else {
                if code as usize >= alphabet {
                    return Err(SzError::Corrupt("symbol out of alphabet"));
                }
                let v = T::from_f64(quant.reconstruct(code, pred));
                (v, v.to_f64())
            };
            b.out[i] = value;
            b.rows[i] = rv;
            w.cx[j] = rv;
            w.pyx[j] = ry;
            w.pzx[j] = rz;
            w.pzyx[j] = rzy;
        }
    }
    Ok(())
}

/// A whole block of `L` rows through [`replay`].
fn decode_rows<T: Element, const L: usize, const D: usize>(
    b: &mut Replay<'_, T>,
    quant: &Quantizer,
    lits: &mut Literals<'_>,
) -> Result<()> {
    replay::<T, L, D>(0..b.nx + L - 1, &mut Wave::new(), b, quant, lits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compressor::compress;
    use crate::config::Config;
    use crate::stream::put_varint;

    /// Decode through the `Vec` entry point and through the slice entry
    /// point (destination sized from the header when it parses — the
    /// tests here forge no extents — empty otherwise): same values or
    /// the same error.
    fn decode_both<T: Element + std::fmt::Debug>(bytes: &[u8]) -> Result<(Vec<T>, Dims)> {
        let by_vec = decompress::<T>(bytes);
        let n = stream_info(bytes).map_or(0, |info| info.dims.len());
        let mut dst = vec![T::from_f64(0.0); n];
        let by_slice = decompress_to_slice(bytes, &mut DecompressScratch::new(), &mut dst);
        match (&by_vec, by_slice) {
            (Ok((values, dims)), Ok(slice_dims)) => {
                assert_eq!(*dims, slice_dims);
                // Bit for bit: a corrupted stream may decode to NaN.
                let bits = |v: &[T]| v.iter().map(|x| x.to_f64().to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(values), bits(&dst));
            }
            (Err(e), Err(slice_e)) => assert_eq!(*e, slice_e),
            (v, s) => panic!("entry points disagree: vec {v:?}, slice {s:?}"),
        }
        by_vec
    }

    fn sample_stream(lossless: bool) -> (Vec<f32>, Dims, Vec<u8>) {
        let dims = Dims::d3(6, 5, 4);
        let data: Vec<f32> = (0..120).map(|i| (i as f32 * 0.13).sin()).collect();
        let cfg = Config::abs(1e-3).with_lossless(lossless);
        let bytes = compress::<f32>(&data, &dims, &cfg).unwrap();
        (data, dims, bytes)
    }

    fn sample_stream_f64(lossless: bool) -> (Vec<f64>, Dims, Vec<u8>) {
        let dims = Dims::d3(6, 5, 4);
        let data: Vec<f64> = (0..120).map(|i| (i as f64 * 0.13).sin()).collect();
        let cfg = Config::abs(1e-9).with_lossless(lossless);
        let bytes = compress::<f64>(&data, &dims, &cfg).unwrap();
        (data, dims, bytes)
    }

    #[test]
    fn truncation_at_every_header_boundary_is_typed() {
        // Cutting the stream anywhere inside the header must surface a
        // typed error from both the header parser and the decoder —
        // never a panic. The header spans magic(4) + version(1) +
        // dtype(1) + ndims(1) + 3 dim varints + eb(8) + radius(4) +
        // mode(1) + payload-length varint.
        let (_, _, bytes) = sample_stream(true);
        let info = stream_info(&bytes).unwrap();
        for cut in 0..info.payload_offset {
            let err = stream_info(&bytes[..cut]);
            assert!(err.is_err(), "header cut at {cut} accepted");
            let err = decode_both::<f32>(&bytes[..cut]);
            assert!(err.is_err(), "decode of header cut at {cut} accepted");
        }
        // Inside the payload: stream_info and decompress both reject.
        for cut in info.payload_offset..bytes.len() {
            assert!(matches!(
                stream_info(&bytes[..cut]),
                Err(SzError::Truncated(_))
            ));
            assert!(
                decode_both::<f32>(&bytes[..cut]).is_err(),
                "payload cut {cut}"
            );
        }
    }

    #[test]
    fn f64_truncation_at_every_header_boundary_is_typed() {
        // Mirror of the f32 test on a dtype=1 stream: the wider literal
        // width (8-byte escapes) and f64 header eb must not open any
        // panic path at header or payload cuts.
        let (_, _, bytes) = sample_stream_f64(true);
        let info = stream_info(&bytes).unwrap();
        assert_eq!(info.dtype, 1);
        for cut in 0..info.payload_offset {
            assert!(stream_info(&bytes[..cut]).is_err(), "header cut at {cut}");
            assert!(
                decode_both::<f64>(&bytes[..cut]).is_err(),
                "decode of header cut at {cut} accepted"
            );
        }
        for cut in info.payload_offset..bytes.len() {
            assert!(matches!(
                stream_info(&bytes[..cut]),
                Err(SzError::Truncated(_))
            ));
            assert!(
                decode_both::<f64>(&bytes[..cut]).is_err(),
                "payload cut {cut}"
            );
        }
    }

    #[test]
    fn f64_corrupt_payload_never_panics() {
        // Mirror of `corrupt_payload_counts_rejected` for dtype=1
        // without the lossless stage, so flips land directly in the
        // Huffman payload and literal stream.
        let (_, _, bytes) = sample_stream_f64(false);
        let info = stream_info(&bytes).unwrap();
        for i in info.payload_offset..bytes.len() {
            let mut b = bytes.clone();
            b[i] ^= 0xFF;
            let _ = decode_both::<f64>(&b); // must not panic
        }
    }

    #[test]
    fn corrupt_header_fields_are_typed() {
        let (_, _, bytes) = sample_stream(true);

        // Version byte.
        let mut b = bytes.clone();
        b[4] = 99;
        assert!(matches!(
            stream_info(&b),
            Err(SzError::UnsupportedVersion(99))
        ));

        // ndims out of range.
        let mut b = bytes.clone();
        b[6] = 0;
        assert!(matches!(stream_info(&b), Err(SzError::Corrupt("ndims"))));
        b[6] = 4;
        assert!(matches!(stream_info(&b), Err(SzError::Corrupt("ndims"))));

        // Overflowing dimension product (three maximal varints).
        let mut b = Vec::new();
        b.extend_from_slice(&bytes[..7]); // magic+version+dtype+ndims(=3)
        for _ in 0..3 {
            put_varint(&mut b, u64::MAX);
        }
        b.extend_from_slice(&[0u8; 16]); // eb + radius + mode filler
        assert!(matches!(
            stream_info(&b),
            Err(SzError::Corrupt("dims overflow"))
        ));

        // Radius outside what the compressor accepts: magic(4) +
        // version + dtype + ndims + three one-byte dims + eb(8), then
        // the radius, little-endian.
        let at = 4 + 3 + 3 + 8;
        for (radius, ok) in [
            (1u32, false),
            (2, true),
            (MAX_RADIUS, true),
            (MAX_RADIUS + 1, false),
            (u32::MAX, false),
        ] {
            let mut b = bytes.clone();
            b[at..at + 4].copy_from_slice(&radius.to_le_bytes());
            match stream_info(&b) {
                Ok(info) => assert!(ok && info.radius == radius, "radius {radius} accepted"),
                Err(e) => {
                    assert!(!ok, "radius {radius} rejected");
                    assert_eq!(e, SzError::Corrupt("header radius"));
                    assert_eq!(decode_both::<f32>(&b), Err(e));
                }
            }
        }
    }

    #[test]
    fn absurd_payload_length_rejected_without_allocation() {
        // Rewrite the payload-length varint to a huge value; the parser
        // must reject it (truncated) instead of wrapping or allocating.
        let (_, _, bytes) = sample_stream(false);
        let info = stream_info(&bytes).unwrap();
        // Rebuild the header with a forged payload-length varint (the
        // last header field before payload_offset).
        let mode_pos = info.payload_offset - {
            let mut n = 0;
            let mut v = info.payload_len as u64;
            loop {
                n += 1;
                v >>= 7;
                if v == 0 {
                    break;
                }
            }
            n
        };
        let mut forged = bytes[..mode_pos].to_vec();
        put_varint(&mut forged, u64::MAX);
        forged.extend_from_slice(&bytes[info.payload_offset..]);
        assert!(stream_info(&forged).is_err());
        assert!(decode_both::<f32>(&forged).is_err());
    }

    #[test]
    fn corrupt_payload_counts_rejected() {
        // Flip bits across the (uncompressed-mode) payload; decode must
        // error or produce output, never panic.
        let (_, _, bytes) = sample_stream(false);
        let info = stream_info(&bytes).unwrap();
        for i in info.payload_offset..bytes.len() {
            let mut b = bytes.clone();
            b[i] ^= 0xFF;
            let _ = decode_both::<f32>(&b); // must not panic
        }
    }

    #[test]
    fn slice_destination_of_the_wrong_length_is_typed_and_untouched() {
        let (_, dims, bytes) = sample_stream(true);
        let n = dims.len();
        let mut scratch = DecompressScratch::new();
        for len in [0, n - 1, n + 1, 2 * n] {
            let mut dst = vec![7.5f32; len];
            assert_eq!(
                decompress_to_slice(&bytes, &mut scratch, &mut dst),
                Err(SzError::DimMismatch {
                    expected: n,
                    actual: len
                })
            );
            assert!(dst.iter().all(|&v| v == 7.5), "len {len} written to");
        }
        // The right length after the wrong ones, on the same scratch.
        let mut dst = vec![7.5f32; n];
        assert_eq!(
            decompress_to_slice(&bytes, &mut scratch, &mut dst),
            Ok(dims)
        );
        assert_eq!(dst, decompress::<f32>(&bytes).unwrap().0);
        // The destination's type is checked like the `Vec`'s.
        assert_eq!(
            decompress_to_slice(&bytes, &mut scratch, &mut vec![0.0f64; n]),
            Err(SzError::Corrupt("element type mismatch"))
        );
    }

    #[test]
    fn scratch_reuse_is_value_identical() {
        // One DecompressScratch reused across streams of different
        // shapes, bounds, types and lossless modes must reproduce the
        // fresh-scratch output exactly.
        let mut scratch = DecompressScratch::new();
        let mut out32: Vec<f32> = vec![1.0; 7]; // dirty on purpose
        let cases: Vec<(Vec<f32>, Dims, Config)> = vec![
            (
                (0..120).map(|i| (i as f32 * 0.13).sin()).collect(),
                Dims::d3(6, 5, 4),
                Config::abs(1e-3),
            ),
            (
                (0..64).map(|i| i as f32).collect(),
                Dims::from_slice(&[8, 8]).unwrap(),
                Config::rel(1e-2),
            ),
            (
                (0..777).map(|i| (i as f32).cos() * 40.0).collect(),
                Dims::d1(777),
                Config::abs(1e-4).with_lossless(false),
            ),
            (vec![3.25; 27], Dims::d3(3, 3, 3), Config::rel(1e-3)),
        ];
        for (data, dims, cfg) in &cases {
            let bytes = compress::<f32>(data, dims, cfg).unwrap();
            let (fresh, fresh_dims) = decompress::<f32>(&bytes).unwrap();
            let rdims = decompress_into(&bytes, &mut scratch, &mut out32).unwrap();
            assert_eq!(rdims, fresh_dims);
            assert_eq!(out32, fresh);
        }
    }
}
