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
//! The recurrence replays on the compressor's schedule, with the
//! compressor's two kernels mirrored: where [`Avx2::select`] issues its
//! token and rows are at least 8 long, a plane whose whole 8-row blocks
//! hold plain codes only runs them as one wavefront ([`crate::avx2`],
//! on the [`Skewed`] layout); everything else replays through [`replay`]
//! — escape-free blocks of [`LANES`] rows on its scalar lanes, and planes
//! of one row, leftover rows, blocks with an escape or a bad symbol row
//! by row; 1-D data replays each code as the Huffman walk decodes it,
//! the two serial chains overlapped ([`decode_line`]). Whether rows are
//! escape-free takes one decision: none when the chunk's Huffman table
//! holds no escape and no symbol outside the alphabet, one pass over
//! their codes otherwise. Every arm restores the same bits and reports
//! the same first error.
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
use crate::compressor::{Wave, DTYPE, LANES, LOSSLESS, MAGIC, VERSION};
use crate::config::{Dims, RADIUS};
use crate::error::{Result, SzError};
use crate::huffman::HuffmanDecoder;
use crate::lossless;
use crate::predictor::{stencil, stencil_order, Lorenzo, Planes, Skewed};
use crate::quantizer::{Quantizer, UNPREDICTABLE};
use crate::stream::{get_f64, get_u32, get_varint, BitReader};

/// Upper bound on the points a stream header may declare (2^48 points
/// ≈ 1 PB of f32 data); anything larger is treated as corruption
/// rather than allowed to drive gigantic allocations.
const MAX_POINTS: u64 = 1 << 48;

/// Parsed stream header, available without decompressing the payload.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamInfo {
    /// Grid shape.
    pub dims: Dims,
    /// Resolved absolute error bound the stream was produced with.
    pub eb: f64,
    /// Offset of the payload within the stream.
    pub payload_offset: usize,
    /// Payload length in bytes.
    pub payload_len: usize,
}

/// Parse the header of an szlite stream.
///
/// Never panics: truncation at any header boundary yields
/// [`SzError::Truncated`] and implausible field values (an element
/// type other than `f32`, overflowing dimension products, a codebook
/// radius other than [`RADIUS`], a mode byte other than LZSS's, absurd
/// payload lengths) yield [`SzError::Corrupt`].
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
    if *bytes.get(pos).ok_or(SzError::Truncated("dtype"))? != DTYPE {
        return Err(SzError::Corrupt("dtype"));
    }
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
    if get_u32(bytes, &mut pos)? != RADIUS {
        return Err(SzError::Corrupt("header radius"));
    }
    if *bytes.get(pos).ok_or(SzError::Truncated("lossless mode"))? != LOSSLESS {
        return Err(SzError::Corrupt("lossless mode"));
    }
    pos += 1;
    let payload_len = get_varint(bytes, &mut pos)? as usize;
    let payload_end = pos
        .checked_add(payload_len)
        .ok_or(SzError::Corrupt("payload length"))?;
    if bytes.len() < payload_end {
        return Err(SzError::Truncated("payload"));
    }
    Ok(StreamInfo {
        dims,
        eb,
        payload_offset: pos,
        payload_len,
    })
}

/// Reusable decompressor workspace: the LZSS output buffer, the
/// Huffman table (with its LUT and sparse rebuild scratch), and for 2-D
/// and 3-D data the decoded codes, two rolling row-major reconstruction
/// planes, and the wavefront-major reconstructions of the vector replay
/// (`Skewed`: lane `j` of wavefront iteration `t` at slot `8·t + j`).
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
    skewed: Skewed,
}

impl DecompressScratch {
    /// Empty workspace; buffers grow to steady-state on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Decompress a stream.
pub fn decompress(bytes: &[u8]) -> Result<(Vec<f32>, Dims)> {
    let mut scratch = DecompressScratch::new();
    let mut out = Vec::new();
    let dims = decompress_into(bytes, &mut scratch, &mut out)?;
    Ok((out, dims))
}

/// Decompress a stream into `out`, reusing `scratch` for all transient
/// decoder state. Returns the grid shape; on error `out` is left empty.
pub fn decompress_into(
    bytes: &[u8],
    scratch: &mut DecompressScratch,
    out: &mut Vec<f32>,
) -> Result<Dims> {
    decompress_on(true, bytes, scratch, out)
}

/// [`decompress_into`] with every block on the scalar kernels whatever
/// the CPU is, and 1-D data in two passes: the oracle that the vector
/// arm and the one-pass line decode are pinned to. Test support, public
/// only for the workspace's integration tests and not part of the API.
#[doc(hidden)]
pub fn decompress_into_scalar(
    bytes: &[u8],
    scratch: &mut DecompressScratch,
    out: &mut Vec<f32>,
) -> Result<Dims> {
    decompress_on(false, bytes, scratch, out)
}

fn decompress_on(
    may_vectorize: bool,
    bytes: &[u8],
    scratch: &mut DecompressScratch,
    out: &mut Vec<f32>,
) -> Result<Dims> {
    // Every element of `out` is written before it is read, so the
    // buffer is not cleared: `resize` only fills what a longer stream
    // adds.
    let dst = &mut *out;
    let decoded = decode_stream(may_vectorize, bytes, scratch, move |n| {
        dst.resize(n, 0.0);
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
/// [`SzError::DimMismatch`] with `out` untouched. A later error (a bad
/// symbol or 1-D code, short literals) leaves `out` partly written.
pub fn decompress_to_slice(
    bytes: &[u8],
    scratch: &mut DecompressScratch,
    out: &mut [f32],
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
/// `may_vectorize` is false only for the tests' scalar, two-pass arm.
fn decode_stream<'o>(
    may_vectorize: bool,
    bytes: &[u8],
    scratch: &mut DecompressScratch,
    dest: impl FnOnce(usize) -> Result<&'o mut [f32]>,
) -> Result<Dims> {
    let _span = obs::span_arg("sz.decompress", bytes.len() as u64);
    let info = stream_info(bytes)?;
    let DecompressScratch {
        payload,
        huffman,
        codes,
        planes,
        skewed,
    } = scratch;
    let body = &bytes[info.payload_offset..info.payload_offset + info.payload_len];
    let payload_ref: &[u8] = match body.split_first() {
        Some((&lossless::MODE_RAW, stored)) => stored,
        _ => {
            lossless::decompress_into(body, payload)?;
            payload
        }
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
    pos = code_end;
    // Reported after any Huffman error, as in a decode of every code first.
    let lits = get_varint(payload_ref, &mut pos).and_then(|n_literals| {
        let bytes = &payload_ref[pos..];
        let needed = (n_literals as usize)
            .checked_mul(LITERAL)
            .ok_or(SzError::Corrupt("literal count"))?;
        if bytes.len() < needed {
            return Err(SzError::Truncated("literal bytes"));
        }
        Ok(Literals { bytes, pos: 0 })
    });

    let quant = Quantizer::new(info.eb);
    let st = *Lorenzo::new(&info.dims).strides();
    let (nz, ny, nx) = (st.ext[0], st.ext[1], st.ext[2]);
    let mut br = BitReader::new(code_bytes);
    if may_vectorize && nz == 1 && ny == 1 {
        let ready = lits.and_then(|lits| Ok((lits, dest(n_codes)?)));
        return decode_line(huffman, &mut br, n_codes, &quant, ready).map(|()| info.dims);
    }
    huffman.decode_into(&mut br, n_codes, codes)?;
    let mut lits = lits?;
    let out = dest(n_codes)?;
    planes.reset(nz, ny, nx);
    let (alphabet, plane) = (quant.alphabet(), ny * nx);
    // Lag-pipelining reorders points across the rows of a block, so it
    // is reserved for rows whose every code is a plain in-alphabet
    // symbol; a block with an escape or a bad symbol replays row by
    // row, which keeps literal order and the first error reported
    // those of the per-point replay. A table that holds neither can
    // decode neither, and then no code is scanned: otherwise one pass
    // without a short circuit, which vectorizes.
    let plain = UNPREDICTABLE + 1..alphabet as u32;
    let all_plain = huffman.decodes_only(plain.clone());
    let is_plain = |c: &[u32]| all_plain || c.iter().fold(true, |ok, c| ok & plain.contains(c));
    // The kernel choice mirrors `compress_into`'s: the vector kernel
    // over a plane's whole 8-row blocks, as one wavefront, where the
    // host allows it, the rows are at least 8 long and the blocks hold
    // plain codes only; otherwise 4 scalar lanes, or one for leftover
    // rows and blocks with an escape.
    let vector = Avx2::select().filter(|_| may_vectorize && nx >= avx2::ROWS && ny >= avx2::ROWS);
    let blocks = ny / avx2::ROWS;
    let whole = blocks * avx2::ROWS * nx;
    let wide_at = |z: usize| vector.filter(|_| is_plain(&codes[z * plane..z * plane + whole]));
    if vector.is_some() {
        skewed.reset(blocks, nx);
    }
    // Whether plane z − 1 went through the vector replay.
    let mut prev_wide = false;
    for z in 0..nz {
        if z > 0 {
            planes.next_plane();
            skewed.next_plane();
        }
        let order = stencil_order(z, ny);
        let base = z * plane;
        let wide = wide_at(z);
        let mut y = 0;
        if let Some(v) = wide {
            // An order-3 plane after one of the scalar replay reads it
            // from `planes` first.
            if order == 3 && !prev_wide {
                skewed.skew_prev(planes);
            }
            let at = base..base + whole;
            let (zp, rows) = skewed.planes();
            let p = avx2::Plane {
                input: &codes[at.clone()],
                rows,
                output: &mut out[at],
                nx,
                blocks,
            };
            match order {
                3 => v.decode_plane::<3>(zp, p, quant),
                _ => v.decode_plane::<2>(zp, p, quant),
            }
            skewed.unskew_last(planes);
            y = blocks * avx2::ROWS;
        } else if prev_wide {
            skewed.unskew_prev(planes);
        }
        prev_wide = wide.is_some();
        while y < ny {
            let mut lanes = if ny - y >= LANES { LANES } else { 1 };
            let base = base + y * nx;
            if lanes > 1 && !is_plain(&codes[base..base + lanes * nx]) {
                lanes = 1;
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
            match (lanes, order) {
                (LANES, 3) => decode_rows::<LANES, 3>(b, q, l),
                (LANES, _) => decode_rows::<LANES, 2>(b, q, l),
                (_, 3) => decode_rows::<1, 3>(b, q, l),
                (_, 2) => decode_rows::<1, 2>(b, q, l),
                (_, _) => decode_rows::<1, 1>(b, q, l),
            }?;
            y += lanes;
        }
    }
    Ok(info.dims)
}

/// A 1-D stream in one pass: each code is replayed as the Huffman walk
/// decodes it, and only the destination is written. `ready` holds the
/// literals and the destination, or the error that kept the replay from
/// starting; after a replay error the walk goes on to `n`, so a Huffman
/// error comes first, as in two passes. The prediction is [`stencil`]'s
/// order-1 `0.0 + x` without the `0.0 +`, which changes only `x = −0.0`:
/// the quantizer's `+ q·2eb` (`+0.0`, nonzero or NaN) sums alike with `±0`.
fn decode_line(
    huffman: &HuffmanDecoder,
    br: &mut BitReader<'_>,
    n: usize,
    quant: &Quantizer,
    ready: Result<(Literals<'_>, &mut [f32])>,
) -> Result<()> {
    let (mut lits, out) = match ready {
        Ok(ready) => ready,
        Err(e) => return huffman.decode_each(br, n, |_| true).and(Err(e)),
    };
    let (mut i, mut prev, mut replayed) = (0, 0.0, Ok(()));
    let walked = huffman.decode_each(br, n, |code| {
        lits.restore(code, prev, quant)
            .map(|(value, restored)| {
                out[i] = value;
                (i, prev) = (i + 1, restored);
            })
            .map_err(|e| replayed = Err(e))
            .is_ok()
    })?;
    huffman.decode_each(br, n - walked, |_| true)?;
    replayed
}

/// A block of consecutive rows of one plane, as the replay sees it: the
/// decoder's [`Block`](crate::compressor::Block), with the block's
/// codes in and its restored values out.
struct Replay<'a> {
    codes: &'a [u32],
    nx: usize,
    above: &'a [f64],
    rows: &'a mut [f64],
    zp: &'a [f64],
    zs: usize,
    out: &'a mut [f32],
}

/// Bytes of one escape's literal: the `f32`, little-endian.
const LITERAL: usize = 4;

/// The stream's literal bytes and the read position in them.
struct Literals<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Literals<'_> {
    /// The value `code` restores against prediction `pred`, and what a
    /// later prediction reads of it: an escape's literal (0 if it is not
    /// finite), or the quantizer's reconstruction through `f32`.
    #[inline(always)]
    fn restore(&mut self, code: u32, pred: f64, q: &Quantizer) -> Result<(f32, f64)> {
        if code == UNPREDICTABLE {
            let at = self.pos..self.pos + LITERAL;
            let Some(&[b0, b1, b2, b3]) = self.bytes.get(at) else {
                return Err(SzError::Truncated("f32 literal"));
            };
            self.pos += LITERAL;
            let v = f32::from_le_bytes([b0, b1, b2, b3]);
            Ok((v, if v.is_finite() { f64::from(v) } else { 0.0 }))
        } else if (code as usize) < q.alphabet() {
            let v = q.reconstruct(code, pred) as f32;
            Ok((v, f64::from(v)))
        } else {
            Err(SzError::Corrupt("symbol out of alphabet"))
        }
    }
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
/// `ts = 0..nx + L − 1` from a fresh [`Wave`] ([`decode_rows`]). This
/// body is the vector replay's ([`crate::avx2`]) scalar arm and its
/// oracle. Literals are consumed in visit order, which is stream order only for
/// `L = 1`: the caller runs `L > 1` on escape-free blocks only.
#[inline(always)]
fn replay<const L: usize, const D: usize>(
    ts: std::ops::Range<usize>,
    w: &mut Wave<L>,
    b: &mut Replay<'_>,
    quant: &Quantizer,
    lits: &mut Literals<'_>,
) -> Result<()> {
    let nx = b.nx;
    debug_assert!(b.codes.len() == L * nx && b.out.len() == L * nx);
    debug_assert!(b.rows.is_empty() || b.rows.len() == L * nx && b.zp.len() == L * b.zs + nx);
    debug_assert!(L == 1 || !b.codes.contains(&UNPREDICTABLE));
    debug_assert!(D == 3 || b.zs == 0);
    for t in ts {
        for j in (0..L).rev() {
            let x = t.wrapping_sub(j);
            if x >= nx {
                continue;
            }
            let i = j * nx + x;
            let ry = match (D, j) {
                (1, _) => 0.0,
                (_, 0) => b.above[x],
                _ => w.cx[j - 1],
            };
            let (rz, rzy) = if D == 3 {
                (b.zp[(j + 1) * b.zs + x], b.zp[j * b.zs + x])
            } else {
                (0.0, 0.0)
            };
            let pred = stencil::<D>(w.cx[j], ry, rz, w.pyx[j], w.pzx[j], rzy, w.pzyx[j]);
            let (value, rv) = lits.restore(b.codes[i], pred, quant)?;
            b.out[i] = value;
            if let Some(row) = b.rows.get_mut(i) {
                *row = rv;
            }
            w.cx[j] = rv;
            w.pyx[j] = ry;
            w.pzx[j] = rz;
            w.pzyx[j] = rzy;
        }
    }
    Ok(())
}

/// A whole block of `L` rows through [`replay`].
fn decode_rows<const L: usize, const D: usize>(
    b: &mut Replay<'_>,
    quant: &Quantizer,
    lits: &mut Literals<'_>,
) -> Result<()> {
    replay::<L, D>(0..b.nx + L - 1, &mut Wave::new(), b, quant, lits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compressor::compress;
    use crate::config::{Config, ErrorBound};
    use crate::stream::{put_f64, put_u32, put_varint};

    /// Decode through the `Vec` entry point and through the slice entry
    /// point (destination sized from the header when it parses — the
    /// tests here forge no extents — empty otherwise): same values or
    /// the same error.
    fn decode_both(bytes: &[u8]) -> Result<(Vec<f32>, Dims)> {
        let by_vec = decompress(bytes);
        let n = stream_info(bytes).map_or(0, |info| info.dims.len());
        let mut dst = vec![0.0; n];
        let by_slice = decompress_to_slice(bytes, &mut DecompressScratch::new(), &mut dst);
        match (&by_vec, by_slice) {
            (Ok((values, dims)), Ok(slice_dims)) => {
                assert_eq!(*dims, slice_dims);
                // Bit for bit: a corrupted stream may decode to NaN.
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(values), bits(&dst));
            }
            (Err(e), Err(slice_e)) => assert_eq!(*e, slice_e),
            (v, s) => panic!("entry points disagree: vec {v:?}, slice {s:?}"),
        }
        by_vec
    }

    fn sample_stream() -> (Vec<f32>, Dims, Vec<u8>) {
        let dims = Dims::d3(6, 5, 4);
        let data: Vec<f32> = (0..120).map(|i| (i as f32 * 0.13).sin()).collect();
        let bytes = compress(&data, &dims, &Config::abs(1e-3)).unwrap();
        (data, dims, bytes)
    }

    #[test]
    fn truncation_at_every_header_boundary_is_typed() {
        // Cutting the stream anywhere inside the header must surface a
        // typed error from both the header parser and the decoder —
        // never a panic. The header spans magic(4) + version(1) +
        // dtype(1) + ndims(1) + 3 dim varints + eb(8) + radius(4) +
        // mode(1) + payload-length varint.
        let (_, _, bytes) = sample_stream();
        let info = stream_info(&bytes).unwrap();
        for cut in 0..info.payload_offset {
            let err = stream_info(&bytes[..cut]);
            assert!(err.is_err(), "header cut at {cut} accepted");
            let err = decode_both(&bytes[..cut]);
            assert!(err.is_err(), "decode of header cut at {cut} accepted");
        }
        // Inside the payload: stream_info and decompress both reject.
        for cut in info.payload_offset..bytes.len() {
            assert!(matches!(
                stream_info(&bytes[..cut]),
                Err(SzError::Truncated(_))
            ));
            assert!(decode_both(&bytes[..cut]).is_err(), "payload cut {cut}");
        }
    }

    /// [`sample_stream`] with the element type of its header (byte 5)
    /// set to 1, which was `f64`'s.
    fn f64_stream() -> Vec<u8> {
        let (_, _, mut bytes) = sample_stream();
        assert_eq!(bytes[5], DTYPE);
        bytes[5] = 1;
        bytes
    }

    #[test]
    fn f64_truncation_at_every_header_boundary_is_typed() {
        // A stream tagged `f64`, cut anywhere or whole: the header
        // parser and every decode entry point agree on a typed error,
        // the tag's own once byte 5 is in.
        let bytes = f64_stream();
        for cut in 0..=bytes.len() {
            let err = stream_info(&bytes[..cut]).expect_err("accepted");
            if cut > 5 {
                assert_eq!(err, SzError::Corrupt("dtype"), "cut {cut}");
            } else {
                assert!(matches!(err, SzError::Truncated(_)), "cut {cut}: {err:?}");
            }
            assert_eq!(decode_both(&bytes[..cut]), Err(err.clone()), "cut {cut}");
            let got =
                decompress_into_scalar(&bytes[..cut], &mut DecompressScratch::new(), &mut vec![]);
            assert_eq!(got, Err(err), "cut {cut}");
        }
    }

    #[test]
    fn f64_corrupt_payload_never_panics() {
        // Byte flips anywhere past the magic and the version of a stream
        // tagged `f64` leave the tag's typed error: it is checked before
        // any later field is read.
        let bytes = f64_stream();
        for i in 0..bytes.len() {
            let mut b = bytes.clone();
            b[i] ^= 0xFF;
            let want = match i {
                0..=3 => SzError::BadMagic,
                4 => SzError::UnsupportedVersion(VERSION ^ 0xFF),
                _ => SzError::Corrupt("dtype"),
            };
            assert_eq!(decode_both(&b), Err(want), "byte {i}");
        }
    }

    #[test]
    fn corrupt_header_fields_are_typed() {
        let (_, _, bytes) = sample_stream();

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

        // The radius and the mode byte are constants the header
        // records: magic(4) + version + dtype + ndims + three one-byte
        // dims + eb(8), then the radius, little-endian, then the mode.
        // Any other value is refused, a radius once accepted included.
        let at = 4 + 3 + 3 + 8;
        assert_eq!(bytes[at..at + 4], RADIUS.to_le_bytes());
        assert_eq!(bytes[at + 4], LOSSLESS);
        for radius in [1u32, 2, 16, RADIUS - 1, RADIUS + 1, 1 << 30, u32::MAX] {
            let mut b = bytes.clone();
            b[at..at + 4].copy_from_slice(&radius.to_le_bytes());
            let want = Err(SzError::Corrupt("header radius"));
            assert_eq!(stream_info(&b).map(drop), want, "radius {radius}");
            assert_eq!(decode_both(&b).map(drop), want, "radius {radius}");
        }
        for mode in [0, 2, 0xFF] {
            let mut b = bytes.clone();
            b[at + 4] = mode;
            let want = Err(SzError::Corrupt("lossless mode"));
            assert_eq!(stream_info(&b).map(drop), want, "mode {mode}");
            assert_eq!(decode_both(&b).map(drop), want, "mode {mode}");
        }
    }

    #[test]
    fn absurd_payload_length_rejected_without_allocation() {
        // Rewrite the payload-length varint to a huge value; the parser
        // must reject it (truncated) instead of wrapping or allocating.
        let (_, _, bytes) = sample_stream();
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
        assert!(decode_both(&forged).is_err());
    }

    #[test]
    fn corrupt_payload_counts_rejected() {
        // Flip bits across the payload under the LZSS stage, and across
        // the stored LZSS body; decode must error or produce output,
        // never panic.
        let (_, _, bytes) = sample_stream();
        let info = stream_info(&bytes).unwrap();
        let payload = Parts::payload_of(&bytes);
        for i in 0..payload.len() {
            let mut p = payload.clone();
            p[i] ^= 0xFF;
            let _ = decode_both(&Parts::stream(&info, &p)); // must not panic
        }
        for i in info.payload_offset..bytes.len() {
            let mut b = bytes.clone();
            b[i] ^= 0xFF;
            let _ = decode_both(&b); // must not panic
        }
    }

    #[test]
    fn slice_destination_of_the_wrong_length_is_typed_and_untouched() {
        let (_, dims, bytes) = sample_stream();
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
        assert_eq!(dst, decompress(&bytes).unwrap().0);
    }

    /// A stream decoded by the readers' entry points ([`decode_both`],
    /// and [`decompress_into`] on `scratch`) and by the two-pass oracle
    /// ([`decompress_into_scalar`]): the same bits or the same typed
    /// error. A destination one element too long gets the error the
    /// two-pass decode reports before it asks for a destination — any
    /// but a replay error — or the length mismatch, and is not written.
    fn pin_one_pass(bytes: &[u8], scratch: &mut DecompressScratch, what: &str) -> Result<Dims> {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut oracle = Vec::new();
        let two_pass = decompress_into_scalar(bytes, &mut DecompressScratch::new(), &mut oracle);
        let mut warm = vec![1.5; 3];
        let one_pass = decompress_into(bytes, scratch, &mut warm);
        assert_eq!(one_pass, two_pass, "{what}: warm scratch");
        assert!(bits(&warm) == bits(&oracle), "{what}: warm scratch values");
        match (decode_both(bytes), &two_pass) {
            (Ok((values, dims)), Ok(d)) => {
                assert_eq!(dims, *d, "{what}");
                assert!(bits(&values) == bits(&oracle), "{what}: values differ");
            }
            (Err(e), Err(o)) => assert_eq!(e, *o, "{what}"),
            (f, o) => panic!("{what}: one pass {f:?}, two passes {o:?}"),
        }
        if let Ok(info) = stream_info(bytes) {
            let n = info.dims.len();
            let want = match &two_pass {
                Err(SzError::Corrupt("symbol out of alphabet"))
                | Err(SzError::Truncated("f32 literal"))
                | Ok(_) => SzError::DimMismatch {
                    expected: n,
                    actual: n + 1,
                },
                Err(e) => e.clone(),
            };
            let mut dst = vec![7.5; n + 1];
            let got = decompress_to_slice(bytes, scratch, &mut dst);
            assert_eq!(got, Err(want), "{what}: long destination");
            assert!(dst.iter().all(|&v| v == 7.5), "{what}: written");
        }
        two_pass
    }

    /// `n` values of texture 0 (smooth), 1 (a VPIC field: wide
    /// alphabet, codes past the table width), 2 (escapes: every 11th
    /// value NaN, ±Inf or a ±1e30 spike, each followed by `-0.0`, which
    /// a spike turns into a `-0.0` literal) or 3 (smooth, with `-0.0`,
    /// subnormals and negatives that the `f32` conversion flushes to
    /// `-0.0` planted).
    fn line(n: usize, texture: u8, vpic: &[f32]) -> Vec<f32> {
        (0..n)
            .map(|i| {
                let smooth = (i as f64 * 0.37).sin() + 0.01 * (i as f64 * 1.7).cos();
                let v = match (texture, i % 11, i / 11 % 5) {
                    (1, ..) => f64::from(vpic[i]),
                    (2, 3, 0) => f64::NAN,
                    (2, 3, 1) => f64::INFINITY,
                    (2, 3, 2) => f64::NEG_INFINITY,
                    (2, 3, 3) => 1e30,
                    (2, 3, _) => -1e30,
                    (2 | 3, 4, _) => -0.0,
                    (3, 7, _) => 3e-45,
                    (3, 9, _) => -1e-300,
                    _ => smooth,
                };
                v as f32
            })
            .collect()
    }

    /// A stream's payload, taken out from under the LZSS stage and
    /// apart so that a test can forge any field and put it back
    /// together.
    struct Parts {
        info: StreamInfo,
        table: Vec<u8>,
        n_codes: u64,
        code: Vec<u8>,
        n_literals: u64,
        literals: Vec<u8>,
    }

    impl Parts {
        /// The payload of `bytes`, recovered by `lossless::decompress`,
        /// which undoes a stored (`MODE_RAW`) body too.
        fn payload_of(bytes: &[u8]) -> Vec<u8> {
            let info = stream_info(bytes).unwrap();
            lossless::decompress(&bytes[info.payload_offset..]).unwrap()
        }

        /// The stream of header `info` around `payload`, through the
        /// LZSS stage.
        fn stream(info: &StreamInfo, payload: &[u8]) -> Vec<u8> {
            let body = lossless::compress(payload);
            let mut out = Vec::new();
            put_u32(&mut out, MAGIC);
            out.extend([VERSION, DTYPE, info.dims.ndims() as u8]);
            for &d in info.dims.extents() {
                put_varint(&mut out, d as u64);
            }
            put_f64(&mut out, info.eb);
            put_u32(&mut out, RADIUS);
            out.push(LOSSLESS);
            put_varint(&mut out, body.len() as u64);
            out.extend_from_slice(&body);
            out
        }

        fn of(bytes: &[u8]) -> Parts {
            let info = stream_info(bytes).unwrap();
            let payload = &Parts::payload_of(bytes)[..];
            let mut pos = 0;
            HuffmanDecoder::deserialize(payload, &mut pos).unwrap();
            let table = payload[..pos].to_vec();
            let n_codes = get_varint(payload, &mut pos).unwrap();
            let code_len = get_varint(payload, &mut pos).unwrap() as usize;
            let code = payload[pos..pos + code_len].to_vec();
            pos += code_len;
            let n_literals = get_varint(payload, &mut pos).unwrap();
            let literals = payload[pos..].to_vec();
            Parts {
                info,
                table,
                n_codes,
                code,
                n_literals,
                literals,
            }
        }

        fn bytes(&self) -> Vec<u8> {
            let mut payload = self.table.clone();
            put_varint(&mut payload, self.n_codes);
            put_varint(&mut payload, self.code.len() as u64);
            payload.extend_from_slice(&self.code);
            put_varint(&mut payload, self.n_literals);
            payload.extend_from_slice(&self.literals);
            Parts::stream(&self.info, &payload)
        }
    }

    /// Huffman `table` with every symbol but the escape moved past the
    /// quantizer's alphabet, at the same code lengths and in the same
    /// canonical order: each code that decoded to a plain symbol now
    /// decodes to one out of the alphabet.
    fn past_the_alphabet(table: &[u8]) -> Vec<u8> {
        let shift = 2 * u64::from(RADIUS);
        let mut pos = 0;
        let alphabet = get_varint(table, &mut pos).unwrap();
        let n_present = get_varint(table, &mut pos).unwrap();
        let mut out = Vec::new();
        put_varint(&mut out, alphabet + shift);
        put_varint(&mut out, n_present);
        let (mut sym, mut prev) = (0, 0);
        for _ in 0..n_present {
            sym += get_varint(table, &mut pos).unwrap();
            let moved = if sym == 0 { 0 } else { sym + shift };
            put_varint(&mut out, moved - prev);
            out.push(table[pos]);
            pos += 1;
            prev = moved;
        }
        assert_eq!(pos, table.len());
        out
    }

    /// Every kind of forged 1-D stream, each with the error both paths
    /// must agree on; returns the cases compared.
    fn pin_forged_lines(scratch: &mut DecompressScratch) -> usize {
        let lit_err = SzError::Truncated("f32 literal");
        let cut_err = SzError::Truncated("huffman bits");
        let cfg = Config::rel(1e-3);
        let escapes = Parts::of(&compress(&line(512, 2, &[]), &Dims::d1(512), &cfg).unwrap());
        let mut cases = Vec::new();
        // A symbol out of the alphabet: the same codes, every plain one
        // decoding past the alphabet.
        let mut narrow = Parts::of(&escapes.bytes());
        narrow.table = past_the_alphabet(&narrow.table);
        cases.push((
            narrow.bytes(),
            Err(SzError::Corrupt("symbol out of alphabet")),
        ));
        // An escape whose literal is missing, and literals the count
        // says are there and are not.
        let mut bare = Parts::of(&escapes.bytes());
        bare.n_literals = 0;
        bare.literals.clear();
        cases.push((bare.bytes(), Err(lit_err.clone())));
        let mut short = Parts::of(&escapes.bytes());
        short.literals.pop();
        cases.push((short.bytes(), Err(SzError::Truncated("literal bytes"))));
        // A bound whose step `2·eb` overflows: the codes reconstruct to
        // ±Inf and NaN (`0·∞`), which the replay carries on.
        let mut huge = Parts::of(&escapes.bytes());
        huge.info.eb = f64::MAX;
        cases.push((huge.bytes(), Ok(Dims::d1(512))));
        // The code bytes cut at every byte, alone and behind each of
        // the faults above, which a Huffman error outranks.
        for base in [&escapes, &narrow, &bare, &short] {
            for cut in 0..base.code.len() {
                let mut p = Parts::of(&base.bytes());
                p.code.truncate(cut);
                let want = if 8 * cut < p.n_codes as usize {
                    SzError::Corrupt("code count vs code bytes")
                } else {
                    cut_err.clone()
                };
                cases.push((p.bytes(), Err(want)));
            }
        }
        // An invalid code: a one-symbol table (code `0`) meets a `1`,
        // behind an out-of-alphabet symbol and without one.
        // In the last byte fewer bits are left than any code past the
        // table's width needs: the walk runs out of bits first.
        let cfg = Config::abs(1e-3);
        let zeros = Parts::of(&compress(&[0.0; 200], &Dims::d1(200), &cfg).unwrap());
        for table in [zeros.table.clone(), past_the_alphabet(&zeros.table)] {
            for (byte, want) in [
                (0, SzError::Corrupt("invalid huffman code")),
                (7, SzError::Corrupt("invalid huffman code")),
                (24, cut_err.clone()),
            ] {
                let mut p = Parts::of(&zeros.bytes());
                p.table = table.clone();
                p.code[byte] = 0x08;
                cases.push((p.bytes(), Err(want)));
            }
        }
        for (i, (bytes, want)) in cases.iter().enumerate() {
            let what = format!("forged case {i}");
            assert_eq!(pin_one_pass(bytes, scratch, &what), *want, "{what}");
        }
        cases.len()
    }

    #[test]
    fn one_pass_line_decode_equals_two_pass_bit_for_bit() {
        // Lengths on both sides of the Huffman walk's batches and its
        // tail; the full-size one, a rank's VPIC chunk, only optimised.
        let mut lengths = vec![1, 2, 9, 10, 11, 12, 21, 4096];
        if !cfg!(debug_assertions) {
            lengths.push(1 << 18);
        }
        let longest = *lengths.last().unwrap();
        let vpic = workloads::SnapshotStream::vpic(longest).seed(1).snapshot(0);
        let mut scratch = DecompressScratch::new();
        let mut cases = 0;
        for n in lengths {
            // 1-D, and the shapes that keep the two-pass path: planes
            // of one row (the first is order 1, read by the second) and
            // one plane of rows.
            let mut shapes = vec![Dims::d1(n)];
            if n <= 4096 {
                shapes.extend([Dims::d3(3, 1, n), Dims::d3(1, 3, n)]);
            }
            for dims in shapes {
                for texture in 0..4 {
                    for field in [0, 3, 6] {
                        if texture != 1 && field > 0 {
                            continue;
                        }
                        let src = &vpic.fields[field].data;
                        let src: Vec<f32> = src.iter().cycle().take(dims.len()).copied().collect();
                        // The default bound, and one under which the
                        // residuals of most textures pass the codebook's
                        // `RADIUS · 2eb`: dense escapes.
                        for bound in [ErrorBound::Rel(1e-3), ErrorBound::Abs(1e-6)] {
                            let cfg = Config { error_bound: bound };
                            let what =
                                format!("{dims:?} texture {texture} field {field} {bound:?}");
                            let data = line(dims.len(), texture, &src);
                            let bytes = compress(&data, &dims, &cfg).unwrap();
                            assert_eq!(pin_one_pass(&bytes, &mut scratch, &what), Ok(dims.clone()));
                            cases += 1;
                        }
                    }
                }
            }
        }
        assert!(cases >= 288, "{cases} cases");
        let forged = pin_forged_lines(&mut scratch);
        assert!(forged > 50, "{forged} forged cases");
    }

    #[test]
    fn line_prediction_without_the_zero_add_restores_the_same_bits() {
        // `decode_line` predicts `x` where `stencil::<1>` says `0.0 + x`:
        // on `−0.0`, NaNs, infinities and with a step `2·eb` that
        // overflows (`0·∞` is NaN), at every kind of code.
        for eb in [1e-3, 5e-324, f64::MAX] {
            let quant = Quantizer::new(eb);
            for x in [
                -0.0,
                0.0,
                f64::NAN,
                -f64::NAN,
                f64::INFINITY,
                -f64::INFINITY,
                -5e-324,
                1.5,
            ] {
                for code in [1, 32767, 32768, 32769, 65535] {
                    let zero_add = stencil::<1>(x, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0);
                    assert_eq!(
                        quant.reconstruct(code, x).to_bits(),
                        quant.reconstruct(code, zero_add).to_bits(),
                        "eb {eb:e}, x {x}, code {code}"
                    );
                }
            }
        }
    }

    #[test]
    fn scratch_reuse_is_value_identical() {
        // One DecompressScratch reused across streams of different
        // shapes and bounds must reproduce the fresh-scratch output
        // exactly.
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
                Config::abs(1e-4),
            ),
            (vec![3.25; 27], Dims::d3(3, 3, 3), Config::rel(1e-3)),
        ];
        for (data, dims, cfg) in &cases {
            let bytes = compress(data, dims, cfg).unwrap();
            let (fresh, fresh_dims) = decompress(&bytes).unwrap();
            let rdims = decompress_into(&bytes, &mut scratch, &mut out32).unwrap();
            assert_eq!(rdims, fresh_dims);
            assert_eq!(out32, fresh);
        }
    }
}
