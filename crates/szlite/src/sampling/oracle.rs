//! Test oracle: the block sampler as it shipped before the estimate
//! pass was rebuilt around [`SampleScratch`](super::SampleScratch) —
//! one heap-allocated reconstruction buffer per sampled block, a dense
//! histogram per call, per-point boundary branches and
//! [`Quantizer::quantize`] with `f64::round`.
//!
//! Compiled only into tests: `sampling.rs` checks
//! [`sample_quantization_into`](super::sample_quantization_into)
//! against this field for field. The loop is the shipped one, moved
//! here unchanged.

use super::{SampleCodes, BLOCK, MIN_SAMPLE_POINTS};
use crate::config::{Config, Dims};
use crate::error::{Result, SzError};
use crate::predictor::{Lorenzo, Strides};
use crate::quantizer::Quantizer;

pub fn sample_quantization(
    data: &[f32],
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
        let v = f64::from(data[i]);
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
    let quant = Quantizer::new(eb);
    let lorenzo = Lorenzo::new(dims);
    let st: Strides = *lorenzo.strides();

    // Widen data to f64 lazily via closure on index.
    let at = |i: usize| f64::from(data[i]);

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
