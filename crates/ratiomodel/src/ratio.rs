//! Compression-ratio prediction from sampled quantization codes.
//!
//! Implements the sampling-based ratio model of Jin et al. \[25\]
//! (arXiv:2111.09815), the enabler of the paper's entire design: the
//! predicted compressed size of every partition is known *before*
//! compression, so write offsets can be pre-computed and compression
//! overlapped with writes.
//!
//! The estimate has three parts:
//! 1. **Huffman stage** — build a canonical Huffman code over the
//!    sampled histogram; expected bits/point is the frequency-weighted
//!    code length (plus the table, amortized over the partition).
//! 2. **Literals** — unpredictable points cost the full element width.
//! 3. **Lossless stage** — a run-length-based correction: long runs of
//!    the dominant code compress further under LZSS; near-random code
//!    streams do not (the paper notes the model degrades above ratio
//!    32× for exactly this reason, §III-D).

use szlite::huffman::{EncoderWorkspace, HuffmanEncoder};
use szlite::SampleCodes;

/// Fraction of Huffman output that survives LZSS at infinite run
/// length (floor of the lossless-stage gain curve).
///
/// This and [`GAIN_HALF_RUN`] were calibrated once against `szlite` on
/// synthetic Nyx/RTM fields (see `tests/model_accuracy.rs`); they are
/// data-independent.
const GAIN_FLOOR: f64 = 0.08;

/// Run length at which half the possible lossless-stage gain is
/// realized.
const GAIN_HALF_RUN: f64 = 12.0;

/// Multiplicative factor the lossless stage applies to the
/// Huffman-stage bits of a code stream with this mean run length.
fn lossless_gain(mean_run_length: f64) -> f64 {
    let r = mean_run_length.max(1.0) - 1.0;
    // 1.0 at r = 0, approaching `GAIN_FLOOR` as r → ∞.
    GAIN_FLOOR + (1.0 - GAIN_FLOOR) / (1.0 + r / GAIN_HALF_RUN)
}

/// A predicted partition size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RatioPrediction {
    /// Predicted compressed bits per point.
    pub bits_per_point: f64,
    /// Predicted compressed size in bytes.
    pub bytes: u64,
    /// Predicted compression ratio vs. the original element width.
    pub ratio: f64,
    /// Estimated unpredictable (literal) fraction.
    pub unpredictable_fraction: f64,
}

/// Fixed per-stream overhead (header + small sections), bytes.
const STREAM_OVERHEAD: u64 = 64;

/// Bits of one element: a partition holds `f32` values (the paper's
/// "original bit-rate").
const ELEM_BITS: f64 = 32.0;

/// Predict the compressed size of a partition of `n_total` `f32`
/// elements from its sampled code statistics.
pub fn predict(s: &SampleCodes) -> RatioPrediction {
    let used: Vec<u32> = (0..s.histogram.len() as u32)
        .filter(|&c| s.histogram[c as usize] > 0)
        .collect();
    let (mut enc, mut ws) = (HuffmanEncoder::default(), EncoderWorkspace::default());
    predict_sparse(s, &used, &mut enc, &mut ws)
}

/// [`predict`] given the codes `used` by the histogram (ascending), as
/// [`szlite::SampleScratch::used`] lists them: nothing here is
/// proportional to the alphabet, and with a resident `enc` and `ws`
/// nothing allocates.
pub(crate) fn predict_sparse(
    s: &SampleCodes,
    used: &[u32],
    enc: &mut HuffmanEncoder,
    ws: &mut EncoderWorkspace,
) -> RatioPrediction {
    let n_total = s.n_total as f64;

    // Huffman expected code length over the sampled histogram.
    enc.rebuild_sparse(s.histogram.len(), &s.histogram, used, ws);
    let sampled: u64 = used.iter().map(|&c| s.histogram[c as usize]).sum();
    let huff_bits = if sampled == 0 {
        0.0
    } else {
        enc.encoded_bits(&s.histogram) as f64 / sampled as f64
    };

    // Table overhead amortized over the whole partition. The sampled
    // alphabet under-counts the full-partition alphabet slightly; a
    // 1.5× safety factor keeps the estimate centered in practice.
    let table_bits = enc.table_bytes() as f64 * 8.0 * 1.5 / n_total;

    // Literal cost for unpredictable points.
    let unpred = s.unpredictable_fraction();
    let literal_bits = unpred * ELEM_BITS;

    // Lossless correction applies to the Huffman-coded stream only;
    // literals are near-incompressible floats.
    let lz = lossless_gain(s.mean_run_length());
    let bits_pp = huff_bits * lz + literal_bits + table_bits;

    let bytes = ((bits_pp * n_total / 8.0).ceil() as u64 + STREAM_OVERHEAD).max(1);
    let ratio = (n_total * ELEM_BITS / 8.0) / bytes as f64;
    RatioPrediction {
        bits_per_point: bytes as f64 * 8.0 / n_total,
        bytes,
        ratio,
        unpredictable_fraction: unpred,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{estimate_partition, estimate_partition_with, EstimateScratch, Models};
    use proptest::prelude::*;
    use szlite::{sample_quantization, Config, Dims, ErrorBound};

    /// [`predict`] as it was when it built a dense table per call:
    /// every Huffman quantity taken over the whole alphabet — code
    /// lengths summed symbol by symbol, the table measured by
    /// serialising it.
    fn predict_dense(s: &SampleCodes, elem_bits: u32) -> RatioPrediction {
        let n_total = s.n_total as f64;
        let enc = HuffmanEncoder::from_freqs(&s.histogram);
        let sampled: u64 = s.histogram.iter().sum();
        let coded: u64 = (s.histogram.iter().zip(0..))
            .map(|(&f, c)| f * u64::from(enc.len_of(c)))
            .sum();
        let huff_bits = if sampled == 0 {
            0.0
        } else {
            coded as f64 / sampled as f64
        };
        let mut table = Vec::new();
        enc.serialize(&mut table);
        let table_bits = table.len() as f64 * 8.0 * 1.5 / n_total;
        let unpred = s.unpredictable_fraction();
        let literal_bits = unpred * f64::from(elem_bits);
        let lz = lossless_gain(s.mean_run_length());
        let bits_pp = huff_bits * lz + literal_bits + table_bits;
        let bytes = ((bits_pp * n_total / 8.0).ceil() as u64 + STREAM_OVERHEAD).max(1);
        let ratio = (n_total * f64::from(elem_bits) / 8.0) / bytes as f64;
        RatioPrediction {
            bits_per_point: bytes as f64 * 8.0 / n_total,
            bytes,
            ratio,
            unpredictable_fraction: unpred,
        }
    }

    /// The integer and, bit for bit, every float of a prediction.
    fn bits(p: &RatioPrediction) -> [u64; 4] {
        [
            p.bytes,
            p.bits_per_point.to_bits(),
            p.ratio.to_bits(),
            p.unpredictable_fraction.to_bits(),
        ]
    }

    /// Smooth, noisy or constant values with a sprinkle of NaN and
    /// out-of-radius spikes.
    fn field(n: usize, seed: u64, texture: u8) -> Vec<f32> {
        let mut rng = seed | 1;
        (0..n)
            .map(|i| {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                let v = match (texture, rng % 97) {
                    (_, 0) => f64::NAN,
                    (_, 1) => 1e12,
                    (0, _) => (i as f64 * 0.01).sin() * 40.0,
                    (1, r) => (i as f64 * 0.3).cos() + r as f64 * 0.11,
                    _ => -7.5,
                };
                v as f32
            })
            .collect()
    }

    thread_local! {
        /// One scratch for every proptest case, dirty from the last.
        static DIRTY: std::cell::RefCell<EstimateScratch> = std::cell::RefCell::default();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases_and_seed(
            if cfg!(debug_assertions) { 96 } else { 768 },
            0x5_1ce0,
        ) /* pinned: deterministic CI */)]

        #[test]
        fn sparse_size_model_equals_the_dense_one(
            dims in prop_oneof![
                (1usize..=30_000).prop_map(|n| vec![n]),
                ((1usize..=150), (1usize..=150)).prop_map(|(a, b)| vec![a, b]),
                ((1usize..=28), (1usize..=28), (1usize..=28)).prop_map(|(a, b, c)| vec![a, b, c]),
            ],
            seed in any::<u64>(),
            texture in 0u8..3,
            bound in prop_oneof![
                (1u32..=6).prop_map(|e| ErrorBound::Rel(10f64.powi(-(e as i32)))),
                // Down to 5e-8: residuals past the codebook's
                // `RADIUS · 2eb`, dense escapes.
                (0u32..=9).prop_map(|e| ErrorBound::Abs(50.0 * 10f64.powi(-(e as i32)))),
            ],
            fraction in prop_oneof![Just(1.0), Just(0.05), Just(1e-4)],
        ) {
            fn check(
                data: &[f32],
                dims: &Dims,
                cfg: &Config,
                models: &Models,
            ) -> Result<(), String> {
                let s = sample_quantization(data, dims, cfg, models.sample_fraction).unwrap();
                let want = predict_dense(&s, 32);
                let compat = predict(&s);
                if bits(&compat) != bits(&want) {
                    return Err(format!("predict {compat:?}, dense {want:?}"));
                }
                let fresh = estimate_partition(data, dims, cfg, models).unwrap();
                let reused = DIRTY.with_borrow_mut(|scratch| {
                    estimate_partition_with(data, dims, cfg, models, scratch).unwrap()
                });
                let raw_bytes = std::mem::size_of_val(data) as f64;
                let comp_time = models.throughput.compression_time(raw_bytes, want.bits_per_point);
                let write_time = models.write.write_time(want.bits_per_point, data.len());
                for est in [fresh, reused] {
                    let same = est.bytes == want.bytes
                        && est.bits_per_point.to_bits() == want.bits_per_point.to_bits()
                        && est.ratio.to_bits() == want.ratio.to_bits()
                        && est.comp_time.to_bits() == comp_time.to_bits()
                        && est.write_time.to_bits() == write_time.to_bits();
                    if !same {
                        return Err(format!("estimate {est:?}, dense {want:?}"));
                    }
                }
                Ok(())
            }
            let cfg = Config { error_bound: bound };
            let models = Models { sample_fraction: fraction, ..Models::with_cthr(80e6) };
            let d = Dims::from_slice(&dims).unwrap();
            let checked = check(&field(d.len(), seed, texture), &d, &cfg, &models);
            prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
        }
    }

    fn sample(data: &[f32], eb: f64) -> SampleCodes {
        sample_quantization(data, &Dims::d1(data.len()), &Config::abs(eb), 1.0).unwrap()
    }

    #[test]
    fn smooth_data_predicts_high_ratio() {
        let data: Vec<f32> = (0..100_000).map(|i| i as f32 * 1e-4).collect();
        let p = predict(&sample(&data, 0.01));
        assert!(p.ratio > 20.0, "ratio {}", p.ratio);
    }

    #[test]
    fn random_data_predicts_low_ratio() {
        let mut x = 7u32;
        let data: Vec<f32> = (0..50_000)
            .map(|_| {
                x = x.wrapping_mul(1664525).wrapping_add(1013904223);
                (x >> 8) as f32 / 1e4
            })
            .collect();
        let p = predict(&sample(&data, 1e-3));
        assert!(p.ratio < 4.0, "ratio {}", p.ratio);
    }

    #[test]
    fn gain_factor_monotone() {
        assert!(lossless_gain(1.0) > lossless_gain(5.0));
        assert!(lossless_gain(5.0) > lossless_gain(100.0));
        assert!((lossless_gain(1.0) - 1.0).abs() < 1e-9);
        assert!(lossless_gain(1e9) >= GAIN_FLOOR);
    }

    #[test]
    fn prediction_internally_consistent() {
        let data: Vec<f32> = (0..10_000).map(|i| (i as f32 * 0.01).sin()).collect();
        let p = predict(&sample(&data, 1e-3));
        let implied = 10_000.0 * 32.0 / 8.0 / p.bytes as f64;
        assert!((p.ratio - implied).abs() < 1e-9);
        assert!(p.bits_per_point > 0.0);
    }
}
