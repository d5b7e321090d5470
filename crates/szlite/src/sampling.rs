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

use crate::config::{Config, Dims};
use crate::element::Element;
use crate::error::{Result, SzError};
use crate::predictor::{Lorenzo, Strides};
use crate::quantizer::Quantizer;

/// Histogram of quantization codes over a sampled subset.
#[derive(Debug, Clone)]
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
    /// Fraction of the partition that was sampled.
    pub fn sample_fraction(&self) -> f64 {
        self.n_sampled as f64 / self.n_total as f64
    }

    /// Shannon entropy of the sampled code distribution, bits/point.
    pub fn entropy_bits(&self) -> f64 {
        let total: u64 = self.histogram.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let t = total as f64;
        self.histogram
            .iter()
            .filter(|&&c| c > 0)
            .map(|&c| {
                let p = c as f64 / t;
                -p * p.log2()
            })
            .sum()
    }

    /// Number of distinct codes observed.
    pub fn distinct_codes(&self) -> usize {
        self.histogram.iter().filter(|&&c| c > 0).count()
    }

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

/// Quantize a sampled subset of `data` and return the code histogram.
///
/// `sample_fraction` in (0, 1]: approximate fraction of blocks visited.
/// A fraction of `1.0` visits every block (still cheaper than full
/// compression — no Huffman or lossless stage).
pub fn sample_quantization<T: Element>(
    data: &[T],
    dims: &Dims,
    cfg: &Config,
    sample_fraction: f64,
) -> Result<SampleCodes> {
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

    let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
    // Range scan over a stride to keep the pre-pass cheap on huge arrays.
    let range_stride = (data.len() / 65536).max(1);
    for i in (0..data.len()).step_by(range_stride) {
        let v = data[i].to_f64();
        if v.is_finite() {
            min = min.min(v);
            max = max.max(v);
        }
    }
    if !min.is_finite() {
        min = 0.0;
        max = 0.0;
    }
    let eb = cfg.error_bound.resolve(min, max)?;
    let quant = Quantizer::new(eb, cfg.radius);
    let lorenzo = Lorenzo::new(dims);
    let st: Strides = *lorenzo.strides();

    // Widen data to f64 lazily via closure on index.
    let at = |i: usize| data[i].to_f64();

    let mut histogram = vec![0u64; quant.alphabet()];
    let mut n_sampled = 0usize;
    let mut n_unpred = 0usize;
    let mut n_runs = 0usize;
    let mut last_code: Option<u32> = None;

    // Visit every `step`-th block in a linearized block ordering.
    let bz = st.ext[0].div_ceil(BLOCK);
    let by = st.ext[1].div_ceil(BLOCK);
    let bx = st.ext[2].div_ceil(BLOCK);
    let n_blocks = bz * by * bx;
    let step = ((1.0 / frac).round() as usize).clamp(1, n_blocks);

    let mut block_idx = 0usize;
    for zb in 0..bz {
        for yb in 0..by {
            for xb in 0..bx {
                let visit = block_idx.is_multiple_of(step);
                block_idx += 1;
                if !visit {
                    continue;
                }
                let z0 = zb * BLOCK;
                let y0 = yb * BLOCK;
                let x0 = xb * BLOCK;
                let z1 = (z0 + BLOCK).min(st.ext[0]);
                let y1 = (y0 + BLOCK).min(st.ext[1]);
                let x1 = (x0 + BLOCK).min(st.ext[2]);
                // Block-local reconstruction buffer (row-major over the
                // block extents).
                let (lbz, lby, lbx) = (z1 - z0, y1 - y0, x1 - x0);
                let mut brecon = vec![0.0f64; lbz * lby * lbx];
                let bidx =
                    |z: usize, y: usize, x: usize| ((z - z0) * lby + (y - y0)) * lbx + (x - x0);
                for z in z0..z1 {
                    for y in y0..y1 {
                        for x in x0..x1 {
                            let idx = z * st.stride[0] + y * st.stride[1] + x;
                            let xv = at(idx);
                            // Lorenzo prediction: reconstructed values
                            // inside the block, originals outside.
                            let nb = |zz: usize, yy: usize, xx: usize| -> f64 {
                                if zz >= z0 && yy >= y0 && xx >= x0 {
                                    brecon[bidx(zz, yy, xx)]
                                } else {
                                    at(zz * st.stride[0] + yy * st.stride[1] + xx)
                                }
                            };
                            let mut pred = 0.0f64;
                            let gx = x > 0;
                            let gy = y > 0;
                            let gz = z > 0;
                            if gx {
                                pred += nb(z, y, x - 1);
                            }
                            if gy {
                                pred += nb(z, y - 1, x);
                            }
                            if gz {
                                pred += nb(z - 1, y, x);
                            }
                            if gx && gy {
                                pred -= nb(z, y - 1, x - 1);
                            }
                            if gx && gz {
                                pred -= nb(z - 1, y, x - 1);
                            }
                            if gy && gz {
                                pred -= nb(z - 1, y - 1, x);
                            }
                            if gx && gy && gz {
                                pred += nb(z - 1, y - 1, x - 1);
                            }
                            n_sampled += 1;
                            let code = match if xv.is_finite() {
                                quant.quantize(xv, pred)
                            } else {
                                None
                            } {
                                Some((code, recon)) => {
                                    brecon[bidx(z, y, x)] = recon;
                                    code
                                }
                                None => {
                                    brecon[bidx(z, y, x)] = if xv.is_finite() { xv } else { 0.0 };
                                    n_unpred += 1;
                                    0
                                }
                            };
                            histogram[code as usize] += 1;
                            if last_code != Some(code) {
                                n_runs += 1;
                                last_code = Some(code);
                            }
                        }
                    }
                }
            }
        }
    }

    Ok(SampleCodes {
        histogram,
        n_sampled,
        n_total: data.len(),
        n_unpredictable: n_unpred,
        n_runs,
        eb,
        alphabet: quant.alphabet(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;

    fn ramp(n: usize) -> Vec<f32> {
        (0..n).map(|i| i as f32 * 0.01).collect()
    }

    #[test]
    fn full_sample_counts_everything() {
        let data = ramp(1000);
        let s = sample_quantization(&data, &Dims::d1(1000), &Config::abs(0.1), 1.0).unwrap();
        assert_eq!(s.n_sampled, 1000);
        assert_eq!(s.n_total, 1000);
        assert!((s.sample_fraction() - 1.0).abs() < 1e-12);
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
        // A linear ramp is perfectly predicted: entropy near zero.
        assert!(s.entropy_bits() < 0.5, "entropy {}", s.entropy_bits());
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
        assert!(s.entropy_bits() > 5.0, "entropy {}", s.entropy_bits());
    }

    #[test]
    fn histogram_sums_to_sampled() {
        let data = ramp(5000);
        let s = sample_quantization(&data, &Dims::d2(50, 100), &Config::abs(0.05), 0.3).unwrap();
        let total: u64 = s.histogram.iter().sum();
        assert_eq!(total as usize, s.n_sampled);
    }
}
