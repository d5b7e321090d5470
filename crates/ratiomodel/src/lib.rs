//! # ratiomodel — predictive models for compression and write
//!
//! The analytical models at the heart of the paper:
//!
//! * [`ratio`] — sampling-based **compression-ratio prediction**
//!   (Jin et al. \[25\]): predicted compressed size per partition
//!   *before* compressing, enabling offset pre-computation.
//! * [`throughput`] — **Eq. (1)**: single-core compression throughput
//!   as a clamped power law of bit-rate, fitted offline.
//! * [`writetime`] — **Eq. (2)**: write time from a stable per-process
//!   throughput.
//! * [`fit`] — the offline calibration procedure (compress one sample
//!   field across error bounds, fit, reuse everywhere — §IV-B).
//! * [`online`] — streaming adaptation for timestep sequences: a
//!   per-partition EWMA bias correction over observed ratios, blended
//!   with the offline model, plus error-band-driven headroom.
//!
//! [`estimate_partition_with`] bundles all three into the per-partition
//! triple the scheduler consumes: predicted size, compression time,
//! and write time.

pub mod fit;
pub mod online;
pub mod ratio;
pub mod throughput;
pub mod writetime;

pub use fit::{observe, paper_bound_sweep, Observation};
pub use online::{CellStats, OnlineConfig, OnlinePrediction, OnlinePredictor};
pub use ratio::{predict, RatioPrediction};
pub use throughput::{fit as fit_throughput, ThroughputModel};
pub use writetime::{fit as fit_writetime, WriteTimeModel};

use szlite::huffman::{EncoderWorkspace, HuffmanEncoder};
use szlite::{sample_quantization_into, Config, Dims, Result, SampleScratch};

/// Bundle of fitted models used for every partition estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Models {
    /// Compression-throughput model (Eq. 1).
    pub throughput: ThroughputModel,
    /// Write-time model (Eq. 2).
    pub write: WriteTimeModel,
    /// Fraction of blocks sampled by the ratio prediction (≈ 0.05
    /// keeps the overhead below 10 % of compression time, as in \[25\]).
    ///
    /// The sampler floors the effective fraction so at least
    /// [`szlite::sampling::MIN_SAMPLE_POINTS`] points are covered:
    /// partitions at or below that size are sampled in full. Without
    /// the floor, a 5 % sample of a few-thousand-point noisy partition
    /// misses the residual tail and the model under-predicts
    /// compressed size, turning every write into an overflow.
    pub sample_fraction: f64,
}

impl Models {
    /// Models with paper-reference throughput constants and a given
    /// stable write throughput.
    pub fn with_cthr(cthr: f64) -> Self {
        Models {
            throughput: ThroughputModel::paper_reference(),
            write: WriteTimeModel::new(cthr),
            sample_fraction: 0.05,
        }
    }
}

/// Per-partition prediction consumed by the planner/scheduler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartitionEstimate {
    /// Predicted compressed size, bytes.
    pub bytes: u64,
    /// Predicted compressed bit-rate, bits/value.
    pub bits_per_point: f64,
    /// Predicted compression ratio.
    pub ratio: f64,
    /// Predicted compression time, seconds (Eq. 1).
    pub comp_time: f64,
    /// Predicted write time, seconds (Eq. 2).
    pub write_time: f64,
}

/// Reusable state of the prediction phase: the sampler's count table
/// and the Huffman build of the size model. A rank estimating many
/// partitions keeps one and calls [`estimate_partition_with`]; from
/// the second partition of a shape on, the phase allocates nothing.
/// The scratch never changes an estimate.
#[derive(Debug, Default)]
pub struct EstimateScratch {
    sample: SampleScratch,
    enc: HuffmanEncoder,
    ws: EncoderWorkspace,
}

impl EstimateScratch {
    /// Empty scratch; buffers grow to steady state on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Run the full prediction phase on one partition: sample, predict the
/// ratio, then derive compression and write times.
pub fn estimate_partition_with(
    data: &[f32],
    dims: &Dims,
    cfg: &Config,
    models: &Models,
    scratch: &mut EstimateScratch,
) -> Result<PartitionEstimate> {
    let EstimateScratch { sample, enc, ws } = scratch;
    sample_quantization_into(data, dims, cfg, models.sample_fraction, sample)?;
    let p = ratio::predict_sparse(sample.sample(), sample.used(), enc, ws);
    let raw_bytes = std::mem::size_of_val(data) as f64;
    Ok(PartitionEstimate {
        bytes: p.bytes,
        bits_per_point: p.bits_per_point,
        ratio: p.ratio,
        comp_time: models
            .throughput
            .compression_time(raw_bytes, p.bits_per_point),
        write_time: models.write.write_time(p.bits_per_point, data.len()),
    })
}

/// [`estimate_partition_with`] through a fresh scratch.
pub fn estimate_partition(
    data: &[f32],
    dims: &Dims,
    cfg: &Config,
    models: &Models,
) -> Result<PartitionEstimate> {
    estimate_partition_with(data, dims, cfg, models, &mut EstimateScratch::new())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimate_partition_end_to_end() {
        let n = 24usize;
        let mut data = Vec::with_capacity(n * n * n);
        for z in 0..n {
            for y in 0..n {
                for x in 0..n {
                    data.push(((x + y) as f32 * 0.1).sin() + z as f32 * 0.01);
                }
            }
        }
        let dims = Dims::d3(n, n, n);
        let models = Models::with_cthr(100e6);
        let est = estimate_partition(&data, &dims, &Config::rel(1e-3), &models).unwrap();
        assert!(est.bytes > 0);
        assert!(est.comp_time > 0.0);
        assert!(est.write_time > 0.0);
        assert!(est.ratio > 1.0);
        // Write time consistent with predicted bytes.
        let implied = est.bytes as f64 / 100e6;
        assert!((est.write_time - implied).abs() / implied < 0.2);
    }

    #[test]
    fn looser_bound_predicts_less_time_to_write() {
        let data: Vec<f32> = (0..40_000).map(|i| (i as f32 * 0.002).sin()).collect();
        let dims = Dims::d1(40_000);
        let models = Models::with_cthr(100e6);
        let loose = estimate_partition(&data, &dims, &Config::rel(1e-2), &models).unwrap();
        let tight = estimate_partition(&data, &dims, &Config::rel(1e-6), &models).unwrap();
        assert!(loose.bytes < tight.bytes);
        assert!(loose.write_time < tight.write_time);
        // And higher ratio → faster compression (Eq. 1 shape).
        assert!(loose.comp_time <= tight.comp_time + 1e-9);
    }
}
