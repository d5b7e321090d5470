//! The compression pipeline: Lorenzo prediction → error-bounded
//! quantization → canonical Huffman → LZSS.
//!
//! The hot path is a fused row-block kernel ([`sweep`]): one pass over
//! the data performs prediction, quantization *and* Huffman frequency
//! counting, with the boundary branches of the Lorenzo stencil replaced
//! by reads from a zero row so the inner loop is uniform over `x`, and
//! with several rows of a plane in flight at once so the per-point
//! dependency chain of one row hides behind its neighbors' — four
//! scalar lanes, or, where [`compress_into`]'s dispatch finds AVX2 and
//! rows of at least 8, two 4-lane vectors running through all of a
//! plane's 8-row blocks at once ([`crate::avx2`]). Each
//! pipeline worker carries its own [`Scratch`] —
//! frequency counts are accumulated per-worker and merged into the
//! Huffman build in a single sparse rebuild, so no stage shares mutable
//! state across workers. The produced stream is byte-identical to the
//! scalar reference implementation ([`compress_reference`]) on every
//! input.

use crate::avx2::{self, Avx2};
use crate::config::{Config, Dims, RADIUS};
use crate::error::{Result, SzError};
use crate::huffman::{EncoderWorkspace, HuffmanEncoder};
use crate::lossless;
use crate::predictor::{stencil, stencil_order, Lorenzo, Planes, Skewed};
use crate::quantizer::{round_within, Quantizer, RADIUS_I64, UNPREDICTABLE};
use crate::stream::{put_f64, put_u32, put_varint, BitWriter};

/// Stream magic: "SZL1".
pub const MAGIC: u32 = 0x314C5A53;
/// Current stream version.
pub const VERSION: u8 = 1;
/// Stream-header element type: `f32`, the only one. A stream that
/// names another (`1` was `f64`) is refused by [`stream_info`].
///
/// [`stream_info`]: crate::stream_info
pub const DTYPE: u8 = 0;
/// Stream-header mode byte: the payload went through the LZSS stage, as
/// every stream's does; [`stream_info`](crate::stream_info) refuses any
/// other (`0` was a stream without it).
pub const LOSSLESS: u8 = 1;

/// Summary of one compression run, used by benchmarks and the ratio
/// model validation experiments.
#[derive(Debug, Clone, PartialEq)]
pub struct CompressStats {
    /// Number of points compressed.
    pub n_points: usize,
    /// Uncompressed size in bytes.
    pub raw_bytes: usize,
    /// Final compressed size in bytes (including header).
    pub compressed_bytes: usize,
    /// Points stored as raw literals (outside the codebook).
    pub n_unpredictable: usize,
    /// Resolved absolute error bound.
    pub eb: f64,
}

impl CompressStats {
    /// Compression ratio (raw / compressed).
    pub fn ratio(&self) -> f64 {
        self.raw_bytes as f64 / self.compressed_bytes as f64
    }

    /// Bit-rate: average bits stored per point.
    pub fn bit_rate(&self) -> f64 {
        self.compressed_bytes as f64 * 8.0 / self.n_points as f64
    }
}

/// Reusable compressor workspace: quantization codes, literal bytes,
/// two rolling reconstruction planes (and the vector kernel's
/// wavefront-major copies of them), Huffman frequency counts, the
/// serialized payload, the bit-stream backing buffer and the LZSS
/// matcher state.
///
/// The per-chunk hot path allocates all of this state afresh when
/// going through [`compress_with_stats`]; a worker that compresses
/// many chunks keeps one `Scratch` and calls [`compress_into`] so the
/// buffers are recycled — steady-state compression then performs no
/// per-chunk allocation at all. The scratch never changes the produced
/// stream — output is byte-identical either way.
#[derive(Debug, Default)]
pub struct Scratch {
    codes: Vec<u32>,
    literals: Vec<u8>,
    planes: Planes,
    skewed: Skewed,
    /// Frequency histogram over the full alphabet. Invariant: all-zero
    /// between calls — entries touched by a run are re-zeroed through
    /// `present` on the way out, so the (large) array is never memset.
    freqs: Vec<u64>,
    /// Symbols observed by the current run, unsorted until the Huffman
    /// build.
    present: Vec<u32>,
    payload: Vec<u8>,
    bits: Vec<u8>,
    enc: HuffmanEncoder,
    enc_ws: EncoderWorkspace,
    lz: lossless::LzScratch,
    lz_out: Vec<u8>,
}

impl Scratch {
    /// Empty workspace; buffers grow to steady-state on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Compress `data` of shape `dims` under configuration `cfg`.
pub fn compress(data: &[f32], dims: &Dims, cfg: &Config) -> Result<Vec<u8>> {
    compress_with_stats(data, dims, cfg).map(|(bytes, _)| bytes)
}

/// Compress and also return run statistics.
pub fn compress_with_stats(
    data: &[f32],
    dims: &Dims,
    cfg: &Config,
) -> Result<(Vec<u8>, CompressStats)> {
    let mut scratch = Scratch::new();
    let mut out = Vec::new();
    let stats = compress_into(data, dims, cfg, &mut scratch, &mut out)?;
    Ok((out, stats))
}

/// Rows of a plane a full scalar block advances together (see
/// [`sweep`]); shared with the decoder's mirror kernel.
pub(crate) const LANES: usize = 4;

/// A block of consecutive rows of one plane, as its kernel sees it.
///
/// `data` and `codes` hold the block's rows of `nx` points; `above`,
/// `rows` (the reconstructions produced), `zp` and `zs` are the block's
/// [`Planes::block`] views — lane `j` reads rows `j` and `j + 1` of
/// `zp`. Rows outside the grid are zero rows, which keeps the Lorenzo
/// stencil uniform.
pub(crate) struct Block<'a> {
    pub(crate) data: &'a [f32],
    pub(crate) nx: usize,
    pub(crate) above: &'a [f64],
    pub(crate) rows: &'a mut [f64],
    pub(crate) zp: &'a [f64],
    pub(crate) zs: usize,
    pub(crate) codes: &'a mut [u32],
}

/// The run's code counts: the alphabet-wide table and the list of
/// codes it has seen (see [`Scratch`]).
pub(crate) struct Counts<'a> {
    pub(crate) freqs: &'a mut [u64],
    pub(crate) present: &'a mut Vec<u32>,
}

impl Counts<'_> {
    #[inline(always)]
    pub(crate) fn add(&mut self, code: u32) {
        let f = self.freqs[code as usize];
        if f == 0 {
            self.present.push(code);
        }
        self.freqs[code as usize] = f + 1;
    }
}

/// Per-lane running `x − 1` neighbors of a block sweep: own row, `y − 1`
/// row, `z − 1` row, corner. All zero left of the grid.
pub(crate) struct Wave<const L: usize> {
    pub(crate) cx: [f64; L],
    pub(crate) pyx: [f64; L],
    pub(crate) pzx: [f64; L],
    pub(crate) pzyx: [f64; L],
}

impl<const L: usize> Wave<L> {
    pub(crate) fn new() -> Self {
        Wave {
            cx: [0.0; L],
            pyx: [0.0; L],
            pzx: [0.0; L],
            pzyx: [0.0; L],
        }
    }
}

/// Iterations `ts` of the fused prediction + quantization +
/// frequency-count sweep over a block of `L` rows — the one scalar
/// per-point body of the compressor. Returns the number of escapes.
///
/// A single row is a serial recurrence: every point waits on the
/// previous point's reconstruction through the whole
/// predict → divide → round → reconstruct → storage-round-trip chain,
/// so one row alone is latency-bound. The block therefore advances its
/// rows together with a one-element lag — in iteration `t`, lane `j`
/// (row `y + j`) handles `x = t − j`. Lane `j` at `x` needs lane `j − 1`
/// at `x` and `x − 1`, both finished by iteration `t − 1`, so the loop
/// body carries `L` independent dependency chains. `L = 1` is the plain
/// row kernel (leftover rows, 1-D data). A whole block is
/// `ts = 0..nx + L − 1` from a fresh [`Wave`] ([`quantize_rows`]). This
/// body is the vector kernel's ([`crate::avx2`]) scalar arm and its
/// oracle.
///
/// `D` is the lowest [`stencil`] order that is exact where the block
/// sits ([`stencil_order`]), which keeps terms that can only be zero
/// out of the serial chain (`D < 3` requires `zs == 0`).
///
/// Every point executes the expression of [`compress_reference`] on the
/// same operands whatever `L` and `D` are — division by `2·eb` stays a
/// division, the stencil accumulates in the reference order, rounding
/// goes through [`round_within`], validity folds into one predicate
/// with select-based writes — so codes and reconstructions are
/// bit-identical.
#[inline(always)]
pub(crate) fn sweep<const L: usize, const D: usize>(
    ts: std::ops::Range<usize>,
    w: &mut Wave<L>,
    b: &mut Block<'_>,
    q: Quantizer,
    counts: &mut Counts<'_>,
) -> usize {
    let nx = b.nx;
    debug_assert!(b.data.len() == L * nx && b.codes.len() == L * nx);
    debug_assert!(b.rows.is_empty() || b.rows.len() == L * nx && b.zp.len() == L * b.zs + nx);
    debug_assert!(D == 3 || b.zs == 0);
    let mut n_escapes = 0usize;
    for t in ts {
        // Descending: lane j reads lane j-1's reconstruction at x
        // (`cx[j - 1]`) before lane j-1 overwrites it with x + 1.
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
            let xv = f64::from(b.data[i]);
            let d = xv - pred;
            // Branch-free validity: a non-finite value or prediction
            // rounds to `None` and lands in the escape lane.
            let r = round_within(d / q.twice_eb, RADIUS_I64);
            let in_range = r.is_some();
            let qi = r.unwrap_or(0);
            let r64 = pred + qi as f64 * q.twice_eb;
            // Round through `f32` so the decoder (which emits `f32`)
            // sees exactly this value.
            let rt = f64::from(r64 as f32);
            let ok = in_range & ((xv - r64).abs() <= q.eb) & ((xv - rt).abs() <= q.eb);
            let code = if ok {
                (qi + RADIUS_I64) as u32
            } else {
                UNPREDICTABLE
            };
            let rv = if ok {
                rt
            } else if xv.is_finite() {
                xv
            } else {
                0.0
            };
            b.codes[i] = code;
            if let Some(row) = b.rows.get_mut(i) {
                *row = rv;
            }
            counts.add(code);
            n_escapes += usize::from(!ok);
            w.cx[j] = rv;
            w.pyx[j] = ry;
            w.pzx[j] = rz;
            w.pzyx[j] = rzy;
        }
    }
    n_escapes
}

/// A whole block of `L` rows through [`sweep`].
fn quantize_rows<const L: usize, const D: usize>(
    b: &mut Block<'_>,
    q: Quantizer,
    counts: &mut Counts<'_>,
) -> usize {
    sweep::<L, D>(0..b.nx + L - 1, &mut Wave::new(), b, q, counts)
}

/// Compress `data`, writing the stream into `out` (cleared first) and
/// reusing `scratch` for all transient compressor state.
pub fn compress_into(
    data: &[f32],
    dims: &Dims,
    cfg: &Config,
    scratch: &mut Scratch,
    out: &mut Vec<u8>,
) -> Result<CompressStats> {
    compress_on(true, data, dims, cfg, scratch, out)
}

/// [`compress_into`] with every block on the scalar kernels whatever
/// the CPU is — the arm a host without AVX2 runs, for the tests that
/// pin both arms to the same bytes.
#[cfg(test)]
pub(crate) fn compress_into_scalar(
    data: &[f32],
    dims: &Dims,
    cfg: &Config,
    scratch: &mut Scratch,
    out: &mut Vec<u8>,
) -> Result<CompressStats> {
    compress_on(false, data, dims, cfg, scratch, out)
}

fn compress_on(
    may_vectorize: bool,
    data: &[f32],
    dims: &Dims,
    cfg: &Config,
    scratch: &mut Scratch,
    out: &mut Vec<u8>,
) -> Result<CompressStats> {
    let _span = obs::span_arg("sz.compress", std::mem::size_of_val(data) as u64);
    out.clear();
    if data.is_empty() {
        return Err(SzError::EmptyInput);
    }
    if dims.len() != data.len() {
        return Err(SzError::DimMismatch {
            expected: dims.len(),
            actual: data.len(),
        });
    }
    // Resolve the error bound. Only range-relative bounds scan for
    // min/max inside resolve_for; with an absolute bound the
    // prediction pass below is the single data traversal.
    let range_span = obs::span("sz.range");
    let eb = cfg.error_bound.resolve_for(data)?;
    drop(range_span);

    let quantize_span = obs::span("sz.quantize");
    let quant = Quantizer::new(eb);
    let lorenzo = Lorenzo::new(dims);
    let st = *lorenzo.strides();
    let (nz, ny, nx) = (st.ext[0], st.ext[1], st.ext[2]);
    let plane = ny * nx;

    let n = data.len();
    let Scratch {
        codes,
        literals,
        planes,
        skewed,
        freqs,
        present,
        payload,
        bits,
        enc,
        enc_ws,
        lz,
        lz_out,
    } = scratch;
    // Every element of `codes` is written before it is read, so the
    // buffer is not cleared: `resize` only fills what a longer input
    // adds.
    codes.resize(n, 0);
    literals.clear();
    planes.reset(nz, ny, nx);
    let alphabet = quant.alphabet();
    if freqs.len() < alphabet {
        freqs.resize(alphabet, 0);
    }
    present.clear();
    let mut n_unpred = 0usize;

    let mut counts = Counts {
        freqs: &mut freqs[..alphabet],
        present: &mut *present,
    };
    // The one place a block's kernel is chosen, from what the host and
    // the input are (see the crate docs): the vector kernel over a
    // plane's whole 8-row blocks, as one wavefront, where the CPU
    // allows it and the rows are at least 8 long; otherwise 4 scalar
    // lanes, or one for leftover rows and 1-D data.
    let vector = Avx2::select().filter(|_| may_vectorize && nx >= avx2::ROWS && ny >= avx2::ROWS);
    let blocks = ny / avx2::ROWS;
    let whole = blocks * avx2::ROWS * nx;
    if vector.is_some() {
        skewed.reset(blocks, nx);
    }
    // Escapes are rare: a block's literals in row-major order, after
    // its sweep, so the literal stream does not see the lane schedule.
    let mut literals_of = |at: std::ops::Range<usize>, codes: &[u32]| {
        let escaped = codes[at.clone()].iter().map(|&c| c == UNPREDICTABLE);
        for (v, _) in data[at].iter().zip(escaped).filter(|(_, e)| *e) {
            literals.extend_from_slice(&v.to_le_bytes());
        }
    };
    for z in 0..nz {
        if z > 0 {
            planes.next_plane();
            skewed.next_plane();
        }
        let order = stencil_order(z, ny);
        let mut y = 0;
        if let Some(v) = vector {
            let at = z * plane..z * plane + whole;
            let (zp, rows) = skewed.planes();
            let p = avx2::Plane {
                input: &data[at.clone()],
                rows,
                output: &mut codes[at.clone()],
                nx,
                blocks,
            };
            let escapes = match order {
                3 => v.quantize_plane::<3>(zp, p, quant, &mut counts),
                _ => v.quantize_plane::<2>(zp, p, quant, &mut counts),
            };
            skewed.unskew_last(planes);
            if escapes > 0 {
                literals_of(at, codes);
                n_unpred += escapes;
            }
            y = blocks * avx2::ROWS;
        }
        while y < ny {
            let lanes = if ny - y >= LANES { LANES } else { 1 };
            let base = z * plane + y * nx;
            let at = base..base + lanes * nx;
            let (above, rows, zp, zs) = planes.block(z == 0, y, lanes);
            let mut block = Block {
                data: &data[at.clone()],
                nx,
                above,
                rows,
                zp,
                zs,
                codes: &mut codes[at.clone()],
            };
            let escapes = match (lanes, order) {
                (LANES, 3) => quantize_rows::<LANES, 3>(&mut block, quant, &mut counts),
                (LANES, _) => quantize_rows::<LANES, 2>(&mut block, quant, &mut counts),
                (_, 3) => quantize_rows::<1, 3>(&mut block, quant, &mut counts),
                (_, 2) => quantize_rows::<1, 2>(&mut block, quant, &mut counts),
                (_, _) => quantize_rows::<1, 1>(&mut block, quant, &mut counts),
            };
            if escapes > 0 {
                literals_of(at, codes);
                n_unpred += escapes;
            }
            y += lanes;
        }
    }
    drop(quantize_span);

    // Huffman stage: the per-worker frequency counts fused into the
    // pass above merge into one sparse in-place table rebuild.
    let huffman_span = obs::span("sz.huffman");
    present.sort_unstable();
    enc.rebuild_sparse(alphabet, &freqs[..alphabet], present, enc_ws);
    payload.clear();
    enc.serialize(payload);
    let mut bw = BitWriter::with_buffer(std::mem::take(bits));
    enc.encode_sized(codes, enc.encoded_bits(&freqs[..alphabet]), &mut bw);
    let code_bytes = bw.finish();
    put_varint(payload, codes.len() as u64);
    put_varint(payload, code_bytes.len() as u64);
    payload.extend_from_slice(&code_bytes);
    // Reclaim the bit buffer's allocation for the next run.
    *bits = code_bytes;
    put_varint(payload, n_unpred as u64);
    payload.extend_from_slice(literals);

    // Restore the all-zero freqs invariant without touching the
    // alphabet-sized array.
    for &s in present.iter() {
        freqs[s as usize] = 0;
    }
    drop(huffman_span);

    // Lossless stage.
    let lzss_span = obs::span("sz.lzss");
    lossless::compress_into(payload, lz_out, lz);
    drop(lzss_span);

    // Header.
    out.reserve(lz_out.len() + 64);
    put_u32(out, MAGIC);
    out.push(VERSION);
    out.push(DTYPE);
    out.push(dims.ndims() as u8);
    for &d in dims.extents() {
        put_varint(out, d as u64);
    }
    put_f64(out, eb);
    put_u32(out, RADIUS);
    out.push(LOSSLESS);
    put_varint(out, lz_out.len() as u64);
    out.extend_from_slice(lz_out);

    let stats = CompressStats {
        n_points: n,
        raw_bytes: std::mem::size_of_val(data),
        compressed_bytes: out.len(),
        n_unpredictable: n_unpred,
        eb,
    };
    Ok(stats)
}

/// Scalar reference implementation of the compressor: per-point
/// [`Lorenzo::predict`] with its boundary branches, [`Quantizer`]
/// returning `Option`, a separate frequency-count pass and a dense
/// [`HuffmanEncoder::from_freqs`] build.
///
/// This is the original (pre-fusion) pipeline, kept as the oracle for
/// the byte-identity test suite: [`compress_into`] must produce exactly
/// these bytes on every input. It is not a hot path — it allocates per
/// call and makes three data passes.
pub fn compress_reference(data: &[f32], dims: &Dims, cfg: &Config) -> Result<Vec<u8>> {
    if data.is_empty() {
        return Err(SzError::EmptyInput);
    }
    if dims.len() != data.len() {
        return Err(SzError::DimMismatch {
            expected: dims.len(),
            actual: data.len(),
        });
    }
    let eb = cfg.error_bound.resolve_for(data)?;
    let quant = Quantizer::new(eb);
    let lorenzo = Lorenzo::new(dims);
    let st = *lorenzo.strides();

    let n = data.len();
    let mut codes: Vec<u32> = Vec::with_capacity(n);
    let mut literals: Vec<u8> = Vec::new();
    let mut recon = vec![0.0f64; n];
    let mut n_unpred = 0usize;

    let mut idx = 0usize;
    for z in 0..st.ext[0] {
        for y in 0..st.ext[1] {
            for x in 0..st.ext[2] {
                let xv = f64::from(data[idx]);
                let pred = lorenzo.predict(&recon, z, y, x);
                let mut stored = false;
                if xv.is_finite() {
                    if let Some((code, r64)) = quant.quantize(xv, pred) {
                        // Round through `f32` so the decoder (which
                        // emits `f32`) sees exactly this value.
                        let rt = f64::from(r64 as f32);
                        if (xv - rt).abs() <= eb {
                            codes.push(code);
                            recon[idx] = rt;
                            stored = true;
                        }
                    }
                }
                if !stored {
                    codes.push(UNPREDICTABLE);
                    literals.extend_from_slice(&data[idx].to_le_bytes());
                    recon[idx] = if xv.is_finite() { xv } else { 0.0 };
                    n_unpred += 1;
                }
                idx += 1;
            }
        }
    }

    // Huffman stage.
    let mut freqs = vec![0u64; quant.alphabet()];
    for &c in codes.iter() {
        freqs[c as usize] += 1;
    }
    let enc = HuffmanEncoder::from_freqs(&freqs);
    let mut payload = Vec::new();
    enc.serialize(&mut payload);
    let mut bw = BitWriter::new();
    enc.encode(&codes, &mut bw);
    let code_bytes = bw.finish();
    put_varint(&mut payload, codes.len() as u64);
    put_varint(&mut payload, code_bytes.len() as u64);
    payload.extend_from_slice(&code_bytes);
    put_varint(&mut payload, n_unpred as u64);
    payload.extend_from_slice(&literals);

    // Lossless stage.
    let body = lossless::compress(&payload);

    // Header.
    let mut out = Vec::with_capacity(body.len() + 64);
    put_u32(&mut out, MAGIC);
    out.push(VERSION);
    out.push(DTYPE);
    out.push(dims.ndims() as u8);
    for &d in dims.extents() {
        put_varint(&mut out, d as u64);
    }
    put_f64(&mut out, eb);
    put_u32(&mut out, RADIUS);
    out.push(LOSSLESS);
    put_varint(&mut out, body.len() as u64);
    out.extend_from_slice(&body);
    Ok(out)
}
