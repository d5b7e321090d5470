//! Block-sampled quantization: the cheap pre-pass behind the ratio
//! prediction model (Jin et al. \[25\]).
//!
//! Instead of compressing the full partition, we quantize a small
//! fraction of it — whole blocks, to preserve spatial locality — and
//! collect the quantization-code histogram. Inside a sampled block the
//! quantizer recurrence is replayed exactly — prediction from the
//! block's own *reconstructed* values — and only neighbors across the
//! block boundary, which the sample never reconstructs, are read as
//! *original* values (at most `eb` per neighbor away from what real
//! compression sees). Empirically the histogram is near-identical,
//! which is what makes the <10 % overhead prediction of \[25\]
//! possible.

use crate::config::{finite_range, Config, Dims, ErrorBound};
use crate::error::{Result, SzError};
use crate::predictor::{stencil, stencil_order, Strides};
use crate::quantizer::{round_within, Quantizer, RADIUS_I64, UNPREDICTABLE};

/// Histogram of quantization codes over a sampled subset.
#[derive(Debug, Clone, Default)]
pub struct SampleCodes {
    /// Count per symbol (index = code; code 0 = unpredictable).
    pub histogram: Vec<u64>,
    /// Number of points sampled.
    pub n_sampled: usize,
    /// Total points in the partition.
    pub n_total: usize,
    /// Unpredictable points among the sample.
    pub n_unpredictable: usize,
    /// Number of runs of equal consecutive codes in block scan order
    /// (used to estimate the lossless-stage gain, per Jin et al. \[25\]'s
    /// run-length analysis).
    pub n_runs: usize,
    /// Resolved absolute error bound.
    pub eb: f64,
    /// Codebook size.
    pub alphabet: usize,
}

impl SampleCodes {
    /// Fraction of sampled points that fell outside the codebook.
    pub fn unpredictable_fraction(&self) -> f64 {
        if self.n_sampled == 0 {
            0.0
        } else {
            self.n_unpredictable as f64 / self.n_sampled as f64
        }
    }

    /// Mean run length of equal consecutive codes (≥ 1).
    pub fn mean_run_length(&self) -> f64 {
        if self.n_runs == 0 {
            1.0
        } else {
            self.n_sampled as f64 / self.n_runs as f64
        }
    }
}

/// Side length of sampled cubes / segments.
const BLOCK: usize = 8;

/// Minimum number of points a sample aims to cover, regardless of the
/// requested fraction.
///
/// On small partitions a plain fraction leaves the histogram built
/// from a handful of blocks; on noisy fields the rare large residuals
/// are then underrepresented and the model under-predicts compressed
/// size — which downstream turns into undersized reservations and
/// all-overflow writes. The effective fraction is therefore floored at
/// `MIN_SAMPLE_POINTS / n_total`: partitions at or below this size are
/// sampled in full (still cheap — that's the regime where full
/// sampling costs least), and the fraction only starts binding once
/// partitions are large enough for it to cover this many points.
pub const MIN_SAMPLE_POINTS: usize = 8192;

// Replaying the recurrence inside each block (see the module header)
// keeps the sampled histogram faithful at loose bounds, where
// reconstruction noise feeds back into the residual distribution and
// widens it — the effect that makes original-value-only sampling
// underestimate compressed size.

/// Sampled blocks advanced together by [`quantize_blocks`].
const LANES: usize = 4;
/// Side of a block's halo cube: the block plus the layer of
/// predecessors the Lorenzo stencil reads on the low side of each axis.
const HALO: usize = BLOCK + 1;

/// Reusable sampler state: the code-count table of the last sample and
/// the list of codes it counted.
///
/// The table is as wide as the quantizer alphabet (512 KiB) but a
/// sample touches a few hundred entries of it, so it is cleared through
/// [`SampleScratch::used`] at the start of the next call — never
/// re-zeroed, never re-allocated after the first. A rank that samples many partitions keeps one
/// scratch and calls [`sample_quantization_into`]; the result is the
/// same [`SampleCodes`] a fresh scratch produces.
#[derive(Debug, Default)]
pub struct SampleScratch {
    /// Invariant: `sample.histogram` is zero outside `used`.
    sample: SampleCodes,
    used: Vec<u32>,
}

impl SampleScratch {
    /// The last sample taken through this scratch (empty before the
    /// first and after a failed call).
    pub fn sample(&self) -> &SampleCodes {
        &self.sample
    }

    /// Codes with a non-zero count in [`SampleScratch::sample`],
    /// ascending — what lets the size model skip the empty alphabet.
    pub fn used(&self) -> &[u32] {
        &self.used
    }

    /// Forget the last sample: zero the counted entries (the table
    /// keeps its length) and the statistics.
    fn clear(&mut self) {
        let mut histogram = std::mem::take(&mut self.sample.histogram);
        for code in self.used.drain(..) {
            histogram[code as usize] = 0;
        }
        self.sample = SampleCodes {
            histogram,
            ..SampleCodes::default()
        };
    }

    /// Count the codes of `lane`'s block (extents `ext`) in raster
    /// order — the order the run counter is defined over.
    fn commit(
        &mut self,
        codes: &[[u32; LANES]],
        lane: usize,
        ext: [usize; 3],
        last_code: &mut Option<u32>,
    ) {
        let s = &mut self.sample;
        for lz in 0..ext[0] {
            for ly in 0..ext[1] {
                let row = (lz * BLOCK + ly) * BLOCK;
                for lanes in &codes[row..row + ext[2]] {
                    let code = lanes[lane];
                    let count = &mut s.histogram[code as usize];
                    if *count == 0 {
                        self.used.push(code);
                    }
                    *count += 1;
                    if *last_code != Some(code) {
                        s.n_runs += 1;
                        *last_code = Some(code);
                    }
                }
            }
        }
        s.n_sampled += ext[0] * ext[1] * ext[2];
    }
}

/// Copy one block's neighborhood into `lane` of the halo cubes:
/// originals over the block itself (where the kernel replaces them with
/// reconstructions as it goes) and over the predecessor layer, `0.0`
/// where that layer lies outside the grid. Only the layers an order-`D`
/// stencil reads are filled.
fn gather<const D: usize>(
    data: &[f32],
    st: &Strides,
    org: [usize; 3],
    ext: [usize; 3],
    lane: usize,
    h: &mut [[f64; LANES]],
) {
    for lz in usize::from(D < 3)..=ext[0] {
        for ly in usize::from(D < 2)..=ext[1] {
            let row = (lz * HALO + ly) * HALO;
            // Global coordinates are `org + l − 1`; `l = 0` on a block
            // at the grid's low face has no row to read.
            if (lz == 0 && org[0] == 0) || (ly == 0 && org[1] == 0) {
                for cell in &mut h[row..=row + ext[2]] {
                    cell[lane] = 0.0;
                }
                continue;
            }
            let at = (org[0] + lz - 1) * st.stride[0] + (org[1] + ly - 1) * st.stride[1] + org[2];
            h[row][lane] = if org[2] > 0 {
                f64::from(data[at - 1])
            } else {
                0.0
            };
            for (cell, v) in h[row + 1..].iter_mut().zip(&data[at..at + ext[2]]) {
                cell[lane] = f64::from(*v);
            }
        }
    }
}

/// Quantize `LANES` gathered blocks in lockstep over the local extents
/// `ext`, replacing originals by reconstructions in `h` and leaving the
/// codes in `codes` (block-local raster index, `BLOCK` per side).
///
/// One block is a serial recurrence — each point waits for its
/// predecessor's reconstruction through predict → divide → round →
/// reconstruct — so alone it is latency-bound. Sampled blocks share no
/// state, so (unlike the rows of the compressor's kernel) they need no
/// lag between them: the loop body advances the same point of each lane
/// and carries `LANES` independent chains. With every predecessor in
/// the halo cube
/// the stencil needs no boundary branches: each point evaluates the
/// expression of the per-point loop this replaces (now the test
/// oracle) on the same operands — [`stencil`] accumulates in its term
/// order and adds `+0.0` where it skipped a term, rounding goes through
/// [`round_within`], and the checks of `Quantizer::quantize` fold into
/// one predicate — so codes and reconstructions are bit-identical. A
/// lane whose block is smaller than `ext` computes cells nobody reads:
/// a point's predecessors never have a larger coordinate than it has.
fn quantize_blocks<const D: usize>(
    h: &mut [[f64; LANES]],
    codes: &mut [[u32; LANES]],
    ext: [usize; 3],
    eb: f64,
    twice_eb: f64,
) {
    const ZERO: [f64; LANES] = [0.0; LANES];
    let (dz, dy) = (HALO * HALO, HALO);
    for lz in 1..=ext[0] {
        for ly in 1..=ext[1] {
            let row = (lz * HALO + ly) * HALO;
            let out = ((lz - 1) * BLOCK + (ly - 1)) * BLOCK;
            // Running x−1 neighbors: own row, y−1 row, z−1 row, corner.
            let mut cx = h[row];
            let mut pyx = if D >= 2 { h[row - dy] } else { ZERO };
            let (mut pzx, mut pzyx) = if D == 3 {
                (h[row - dz], h[row - dz - dy])
            } else {
                (ZERO, ZERO)
            };
            for lx in 1..=ext[2] {
                let i = row + lx;
                let ry = if D >= 2 { h[i - dy] } else { ZERO };
                let (rz, rzy) = if D == 3 {
                    (h[i - dz], h[i - dz - dy])
                } else {
                    (ZERO, ZERO)
                };
                let xv = h[i];
                let mut point_codes = [0u32; LANES];
                for l in 0..LANES {
                    let pred = stencil::<D>(cx[l], ry[l], rz[l], pyx[l], pzx[l], rzy[l], pzyx[l]);
                    // A non-finite value or prediction rounds to
                    // `None` and escapes.
                    let q = round_within((xv[l] - pred) / twice_eb, RADIUS_I64);
                    let qi = q.unwrap_or(0);
                    let recon = pred + qi as f64 * twice_eb;
                    let ok = q.is_some() & ((xv[l] - recon).abs() <= eb);
                    point_codes[l] = if ok {
                        (qi + RADIUS_I64) as u32
                    } else {
                        UNPREDICTABLE
                    };
                    cx[l] = if ok {
                        recon
                    } else if xv[l].is_finite() {
                        xv[l]
                    } else {
                        0.0
                    };
                }
                h[i] = cx;
                codes[out + lx - 1] = point_codes;
                pyx = ry;
                pzx = rz;
                pzyx = rzy;
            }
        }
    }
}

/// Visit every `step`-th block of the `nb` blocks of the grid in
/// block-scan order, `LANES` at a time, with the order-`D` stencil.
fn sample_blocks<const D: usize>(
    data: &[f32],
    st: &Strides,
    nb: [usize; 3],
    step: usize,
    eb: f64,
    scratch: &mut SampleScratch,
) {
    let twice_eb = 2.0 * eb;
    let mut h = [[0.0f64; LANES]; HALO * HALO * HALO];
    let mut codes = [[0u32; LANES]; BLOCK * BLOCK * BLOCK];
    let mut exts = [[0usize; 3]; LANES];
    let mut filled = 0;
    let mut last_code = None;
    let mut flush = |exts: &[[usize; 3]], h: &mut [[f64; LANES]]| {
        let max = [0, 1, 2].map(|d| exts.iter().map(|e| e[d]).max().unwrap_or(0));
        quantize_blocks::<D>(h, &mut codes, max, eb, twice_eb);
        // Lane order is block-scan order.
        for (lane, &ext) in exts.iter().enumerate() {
            scratch.commit(&codes, lane, ext, &mut last_code);
        }
    };
    for b in (0..nb[0] * nb[1] * nb[2]).step_by(step) {
        let org = [b / (nb[1] * nb[2]), b / nb[2] % nb[1], b % nb[2]].map(|i| i * BLOCK);
        let ext = [0, 1, 2].map(|d| BLOCK.min(st.ext[d] - org[d]));
        gather::<D>(data, st, org, ext, filled, &mut h);
        exts[filled] = ext;
        filled += 1;
        if filled == LANES {
            flush(&exts, &mut h);
            filled = 0;
        }
    }
    // A short last group runs the idle lanes on whatever they hold.
    flush(&exts[..filled], &mut h);
}

/// Quantize a sampled subset of `data`, leaving the code histogram and
/// its statistics in `scratch` ([`SampleScratch::sample`]).
///
/// `sample_fraction` in (0, 1]: approximate fraction of blocks visited.
/// A fraction of `1.0` visits every block (still cheaper than full
/// compression — no Huffman or lossless stage). Allocates nothing once
/// the scratch has seen a sample as varied as this one.
pub fn sample_quantization_into(
    data: &[f32],
    dims: &Dims,
    cfg: &Config,
    sample_fraction: f64,
    scratch: &mut SampleScratch,
) -> Result<()> {
    scratch.clear();
    if data.is_empty() {
        return Err(SzError::EmptyInput);
    }
    if dims.len() != data.len() {
        return Err(SzError::DimMismatch {
            expected: dims.len(),
            actual: data.len(),
        });
    }
    let floor = (MIN_SAMPLE_POINTS as f64 / data.len() as f64).min(1.0);
    let frac = sample_fraction.clamp(1e-4, 1.0).max(floor);

    // Range scan over a stride to keep the pre-pass cheap on huge
    // arrays; an absolute bound does not look at the range.
    let (min, max) = match cfg.error_bound {
        ErrorBound::Abs(_) => (0.0, 0.0),
        ErrorBound::Rel(_) => finite_range(data, (data.len() / 65536).max(1)),
    };
    let eb = cfg.error_bound.resolve(min, max)?;
    let alphabet = Quantizer::new(eb).alphabet();
    let st = Strides::new(dims);
    let s = &mut scratch.sample;
    // All-zero on entry: sized once, by the first sample.
    s.histogram.resize(alphabet, 0);
    (s.n_total, s.eb, s.alphabet) = (data.len(), eb, alphabet);

    // Visit every `step`-th block in a linearized block ordering.
    let nb = st.ext.map(|e| e.div_ceil(BLOCK));
    let step = ((1.0 / frac).round() as usize).clamp(1, nb[0] * nb[1] * nb[2]);
    let sample = match stencil_order(st.ext[0] - 1, st.ext[1]) {
        1 => sample_blocks::<1>,
        2 => sample_blocks::<2>,
        _ => sample_blocks::<3>,
    };
    sample(data, &st, nb, step, eb, scratch);

    scratch.used.sort_unstable();
    // Code 0 is the escape, and only escapes get it.
    scratch.sample.n_unpredictable = scratch.sample.histogram[UNPREDICTABLE as usize] as usize;
    Ok(())
}

/// [`sample_quantization_into`] through a fresh scratch, returning the
/// dense histogram.
pub fn sample_quantization(
    data: &[f32],
    dims: &Dims,
    cfg: &Config,
    sample_fraction: f64,
) -> Result<SampleCodes> {
    let mut scratch = SampleScratch::default();
    sample_quantization_into(data, dims, cfg, sample_fraction, &mut scratch)?;
    Ok(scratch.sample)
}

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ramp(n: usize) -> Vec<f32> {
        (0..n).map(|i| i as f32 * 0.01).collect()
    }

    #[test]
    fn full_sample_counts_everything() {
        let data = ramp(1000);
        let s = sample_quantization(&data, &Dims::d1(1000), &Config::abs(0.1), 1.0).unwrap();
        assert_eq!(s.n_sampled, 1000);
        assert_eq!(s.n_total, 1000);
    }

    #[test]
    fn partial_sample_is_smaller() {
        let data = ramp(100_000);
        let s = sample_quantization(&data, &Dims::d1(100_000), &Config::abs(0.1), 0.05).unwrap();
        assert!(s.n_sampled < 12_000, "sampled {}", s.n_sampled);
        assert!(s.n_sampled > 1_000);
    }

    #[test]
    fn small_partitions_sample_in_full() {
        // Below MIN_SAMPLE_POINTS the requested fraction is overridden
        // and every block is visited — the histogram of a tiny noisy
        // partition must not come from a handful of blocks.
        let data = ramp(4096);
        let s = sample_quantization(&data, &Dims::d1(4096), &Config::abs(0.1), 0.05).unwrap();
        assert_eq!(s.n_sampled, 4096);
    }

    #[test]
    fn sample_floor_binds_above_min_points() {
        // Just above the floor the sample still covers at least about
        // MIN_SAMPLE_POINTS (block rounding allowed).
        let n = 4 * MIN_SAMPLE_POINTS;
        let data = ramp(n);
        let s = sample_quantization(&data, &Dims::d1(n), &Config::abs(0.1), 0.05).unwrap();
        assert!(
            s.n_sampled >= MIN_SAMPLE_POINTS - BLOCK,
            "sampled {} of {n}",
            s.n_sampled
        );
    }

    #[test]
    fn smooth_data_low_entropy() {
        let data = ramp(10_000);
        let s = sample_quantization(&data, &Dims::d1(10_000), &Config::abs(0.5), 1.0).unwrap();
        // A linear ramp is perfectly predicted: one code takes nearly
        // every point (entropy near zero).
        let top = *s.histogram.iter().max().unwrap();
        assert!(top * 10 > s.n_sampled as u64 * 9, "top code {top}");
        assert_eq!(s.n_unpredictable, 0);
    }

    #[test]
    fn random_data_high_entropy() {
        // Deterministic pseudo-random values spanning a wide range.
        let mut x = 0x9e3779b9u32;
        let data: Vec<f32> = (0..10_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                (x as f32 / u32::MAX as f32) * 1000.0
            })
            .collect();
        let s = sample_quantization(&data, &Dims::d1(10_000), &Config::abs(0.01), 1.0).unwrap();
        // More than 5 bits of entropy: no code dominates, and far more
        // than 2^5 of them occur.
        let top = *s.histogram.iter().max().unwrap();
        let distinct = s.histogram.iter().filter(|&&c| c > 0).count();
        assert!(top * 8 < s.n_sampled as u64, "top code {top}");
        assert!(distinct > 64, "{distinct} distinct codes");
    }

    #[test]
    fn histogram_sums_to_sampled() {
        let data = ramp(5000);
        let s = sample_quantization(
            &data,
            &Dims::from_slice(&[50, 100]).unwrap(),
            &Config::abs(0.05),
            0.3,
        )
        .unwrap();
        let total: u64 = s.histogram.iter().sum();
        assert_eq!(total as usize, s.n_sampled);
    }

    /// A field over `dims` in one of four textures — 0 smooth, 1 a
    /// noisy walk, 2 multiples of ½ (under `Abs(0.5)` every residual
    /// is a multiple of ½ quantization steps: exact rounding ties),
    /// 3 constant — with escapes planted by `escapes`: bit 0 sparse
    /// random, bit 1 every point at one block-local coordinate, which
    /// all lanes of a group reach in the same iteration. Escapes cycle
    /// through NaN, ±Inf, spikes beyond the codebook and `-0.0`.
    fn field(dims: &[usize], seed: u64, texture: u8, escapes: u8) -> Vec<f32> {
        let st = Strides::new(&Dims::from_slice(dims).unwrap());
        let mut rng = seed | 1;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let local = [next() % 8, next() % 8, next() % 8];
        let mut walk = 0.0f64;
        (0..st.len())
            .map(|i| {
                let r = next();
                let at = [
                    i / st.stride[0],
                    i / st.stride[1] % st.ext[1],
                    i % st.ext[2],
                ];
                walk += ((r >> 8) % 9) as f64 * 0.5 - 2.0;
                let v = match texture {
                    0 => (i as f64 * 0.37).sin() + (r % 1000) as f64 * 1e-4,
                    1 => walk * 0.013 + (r % 100) as f64 * 0.02,
                    2 => walk,
                    _ => 3.25,
                };
                let sparse = escapes & 1 != 0 && r % 13 == 0;
                let aligned = escapes & 2 != 0 && (0..3).all(|d| at[d] as u64 % 8 == local[d]);
                let v = if sparse || aligned {
                    match (r >> 20) % 6 {
                        0 => f64::NAN,
                        1 => f64::INFINITY,
                        2 => f64::NEG_INFINITY,
                        3 => 1e9,
                        4 => -1e9,
                        _ => -0.0,
                    }
                } else {
                    v
                };
                v as f32
            })
            .collect()
    }

    /// Every field of the sample in `scratch` against the oracle's, and
    /// `used` against the histogram it indexes; the first difference
    /// comes back as the error.
    fn check_against_oracle(
        data: &[f32],
        dims: &Dims,
        cfg: &Config,
        fraction: f64,
        scratch: &mut SampleScratch,
    ) -> std::result::Result<(), String> {
        let got = sample_quantization_into(data, dims, cfg, fraction, scratch);
        let s = scratch.sample();
        let want = match oracle::sample_quantization(data, dims, cfg, fraction) {
            Ok(want) => want,
            Err(e) if got == Err(e.clone()) && s.n_sampled == 0 && scratch.used().is_empty() => {
                return Ok(())
            }
            Err(e) => return Err(format!("oracle fails with {e:?}, sampler gave {got:?}")),
        };
        if got.is_err() {
            return Err(format!("sampler fails with {got:?}"));
        }
        if let Some(c) =
            (0..want.histogram.len()).find(|&c| s.histogram.get(c) != Some(&want.histogram[c]))
        {
            return Err(format!(
                "count of code {c}: {:?}, oracle {}",
                s.histogram.get(c),
                want.histogram[c]
            ));
        }
        let scalars = |s: &SampleCodes| {
            (
                s.histogram.len(),
                s.n_sampled,
                s.n_total,
                s.n_unpredictable,
                s.n_runs,
                s.eb.to_bits(),
                s.alphabet,
            )
        };
        if scalars(s) != scalars(&want) {
            return Err(format!("{:?}, oracle {:?}", scalars(s), scalars(&want)));
        }
        let nonzero: Vec<u32> = (0..s.alphabet as u32)
            .filter(|&c| s.histogram[c as usize] > 0)
            .collect();
        if scratch.used() != nonzero {
            return Err(format!("used {:?}, counted {nonzero:?}", scratch.used()));
        }
        Ok(())
    }

    thread_local! {
        /// One scratch for every proptest case, dirty from the last.
        static DIRTY: std::cell::RefCell<SampleScratch> = std::cell::RefCell::default();
    }

    const BOUNDS: [ErrorBound; 8] = [
        ErrorBound::Abs(0.5),
        ErrorBound::Abs(1e-3),
        ErrorBound::Abs(40.0),
        ErrorBound::Rel(1e-1),
        ErrorBound::Rel(1e-3),
        ErrorBound::Rel(1e-6),
        // Rejected: the scratch must come back usable.
        ErrorBound::Abs(0.0),
        ErrorBound::Rel(f64::NAN),
    ];
    const FRACTIONS: [f64; 3] = [1.0, 0.05, 1e-4];

    proptest! {
        // Sized for the unoptimised tier-1 run; CI's release step of
        // this crate runs the larger count.
        #![proptest_config(ProptestConfig::with_cases_and_seed(
            if cfg!(debug_assertions) { 256 } else { 2048 },
            0x5a_3b1e,
        ) /* pinned: deterministic CI */)]

        #[test]
        fn sample_equals_the_per_point_oracle(
            // Below and above MIN_SAMPLE_POINTS, extents on both sides
            // of multiples of BLOCK, a single plane, a single row.
            dims in prop_oneof![
                (1usize..=40_000).prop_map(|n| vec![n]),
                ((1usize..=160), (1usize..=160)).prop_map(|(a, b)| vec![a, b]),
                ((1usize..=30), (1usize..=30), (1usize..=30)).prop_map(|(a, b, c)| vec![a, b, c]),
                ((1usize..=100), (1usize..=100)).prop_map(|(b, c)| vec![1, b, c]),
                ((2usize..=60), (1usize..=200)).prop_map(|(a, c)| vec![a, 1, c]),
            ],
            seed in any::<u64>(),
            texture in 0u8..4,
            escapes in 0u8..4,
            picks in (0usize..BOUNDS.len(), 0usize..FRACTIONS.len()),
        ) {
            let cfg = Config {
                error_bound: BOUNDS[picks.0],
            };
            let d = Dims::from_slice(&dims).unwrap();
            let data = field(&dims, seed, texture, escapes);
            let checked = DIRTY.with_borrow_mut(|scratch| {
                check_against_oracle(&data, &d, &cfg, FRACTIONS[picks.1], scratch)
            });
            prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
        }
    }

    #[test]
    fn strided_range_scan_equals_the_oracle() {
        // Long enough for a range stride of 3 with a remainder; the
        // extremes sit once on a visited index and once beside one,
        // next to values the scan must skip.
        let n = 3 * 65536 + 1234;
        let mut scratch = SampleScratch::default();
        for (lo, hi) in [(300, 3 * 8 * 1000 + 9), (301, n - 1), (n - 2, 7)] {
            let mut data = field(&[n], 77, 1, 0);
            data[lo] = -5e4;
            data[hi] = 7e4;
            data[600] = f32::NAN;
            data[603] = f32::INFINITY;
            data[n - 1 - (n - 1) % 3] = f32::NEG_INFINITY;
            for bound in [ErrorBound::Rel(1e-4), ErrorBound::Abs(0.02)] {
                let cfg = Config { error_bound: bound };
                check_against_oracle(&data, &Dims::d1(n), &cfg, 0.05, &mut scratch).unwrap();
            }
        }
        let nothing_finite = vec![f32::NAN; 1000];
        check_against_oracle(
            &nothing_finite,
            &Dims::from_slice(&[10, 100]).unwrap(),
            &Config::rel(1e-3),
            1.0,
            &mut scratch,
        )
        .unwrap();
    }
}
