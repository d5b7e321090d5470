//! Partition profiles: the per-partition quantities both engines need.
//!
//! A profile captures what the planner knows *before* compression
//! (predictions) and what execution later reveals (actual size). The
//! real engine produces profiles as a side effect; the simulated
//! engine consumes pre-computed profiles, which is what lets scale
//! sweeps to 4096 ranks replay measured distributions instead of
//! holding 4096 ranks of live data (DESIGN.md substitution 5).

use ratiomodel::{EstimateScratch, Models};
use szlite::{compress_with_stats, Config, Dims, Result};

/// Everything known about one (rank, field) partition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartitionProfile {
    /// Points in the partition.
    pub n_points: usize,
    /// Uncompressed bytes.
    pub raw_bytes: u64,
    /// Predicted compressed bytes (ratio model).
    pub pred_bytes: u64,
    /// Predicted compression ratio.
    pub pred_ratio: f64,
    /// Predicted compression time (Eq. 1).
    pub pred_comp_time: f64,
    /// Predicted write time (Eq. 2).
    pub pred_write_time: f64,
    /// Actual compressed bytes (ground truth after compression).
    pub actual_bytes: u64,
    /// Compression time used by the simulator: Eq. (1) evaluated at
    /// the *actual* bit-rate (deterministic, hardware-independent).
    pub comp_time: f64,
}

impl PartitionProfile {
    /// Actual compressed bit-rate, bits/value.
    pub fn actual_bit_rate(&self) -> f64 {
        self.actual_bytes as f64 * 8.0 / self.n_points as f64
    }
}

/// Build a profile by running the prediction phase and a real
/// compression over `data`; a caller profiling many partitions hands
/// every call the same `scratch`.
pub fn profile_partition_with(
    data: &[f32],
    dims: &Dims,
    cfg: &Config,
    models: &Models,
    scratch: &mut EstimateScratch,
) -> Result<PartitionProfile> {
    let est = ratiomodel::estimate_partition_with(data, dims, cfg, models, scratch)?;
    let (_, st) = compress_with_stats(data, dims, cfg)?;
    let raw_bytes = (data.len() * 4) as u64;
    let actual_bits = st.compressed_bytes as f64 * 8.0 / data.len() as f64;
    Ok(PartitionProfile {
        n_points: data.len(),
        raw_bytes,
        pred_bytes: est.bytes,
        pred_ratio: est.ratio,
        pred_comp_time: est.comp_time,
        pred_write_time: est.write_time,
        actual_bytes: st.compressed_bytes as u64,
        comp_time: models
            .throughput
            .compression_time(raw_bytes as f64, actual_bits),
    })
}

/// [`profile_partition_with`] through a fresh scratch.
pub fn profile_partition(
    data: &[f32],
    dims: &Dims,
    cfg: &Config,
    models: &Models,
) -> Result<PartitionProfile> {
    profile_partition_with(data, dims, cfg, models, &mut EstimateScratch::new())
}

/// Extend measured profiles (`base[rank][field]`) to `target_ranks`
/// for scale sweeps: ranks beyond the measured set reuse measured rows
/// cyclically with a small deterministic size perturbation, preserving
/// the per-partition bit-rate distribution (the property Fig. 1
/// establishes) without requiring live data at scale.
pub fn replicate_profiles(
    base: &[Vec<PartitionProfile>],
    target_ranks: usize,
) -> Vec<Vec<PartitionProfile>> {
    assert!(!base.is_empty());
    (0..target_ranks)
        .map(|r| {
            let src = &base[r % base.len()];
            if r < base.len() {
                return src.clone();
            }
            // Deterministic ±8 % perturbation of compressed sizes.
            src.iter()
                .enumerate()
                .map(|(f, p)| {
                    let mut h = (r as u64)
                        .wrapping_mul(0x9E3779B97F4A7C15)
                        .wrapping_add(f as u64);
                    h ^= h >> 31;
                    h = h.wrapping_mul(0xBF58476D1CE4E5B9);
                    h ^= h >> 29;
                    let scale = 1.0 + ((h >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 0.16;
                    let actual = ((p.actual_bytes as f64) * scale).max(1.0) as u64;
                    let pred = ((p.pred_bytes as f64) * scale).max(1.0) as u64;
                    PartitionProfile {
                        actual_bytes: actual,
                        pred_bytes: pred,
                        ..*p
                    }
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wave(n: usize) -> Vec<f32> {
        (0..n).map(|i| (i as f32 * 0.01).sin()).collect()
    }

    fn models() -> Models {
        Models::with_cthr(100e6)
    }

    #[test]
    fn profile_has_consistent_fields() {
        let data = wave(4096);
        let p =
            profile_partition(&data, &Dims::d3(16, 16, 16), &Config::rel(1e-3), &models()).unwrap();
        assert_eq!(p.n_points, 4096);
        assert_eq!(p.raw_bytes, 16384);
        assert!(p.actual_bytes > 0 && p.actual_bytes < p.raw_bytes);
        assert!(p.comp_time > 0.0);
        let err = (p.pred_bytes as f64 - p.actual_bytes as f64) / p.actual_bytes as f64;
        assert!(err.abs() < 0.5);
    }

    #[test]
    fn replicate_preserves_measured_prefix() {
        let data = wave(1000);
        let p = profile_partition(&data, &Dims::d1(1000), &Config::rel(1e-3), &models()).unwrap();
        let base = vec![vec![p], vec![p]];
        let big = replicate_profiles(&base, 8);
        assert_eq!(big.len(), 8);
        assert_eq!(big[0], base[0]);
        assert_eq!(big[1], base[1]);
        // Extended ranks are perturbed but close.
        #[allow(clippy::needless_range_loop)]
        for r in 2..8 {
            let a = big[r][0].actual_bytes as f64;
            let b = p.actual_bytes as f64;
            assert!((a / b - 1.0).abs() <= 0.09, "rank {r}: {a} vs {b}");
        }
    }

    #[test]
    fn replicate_is_deterministic() {
        let data = wave(500);
        let p = profile_partition(&data, &Dims::d1(500), &Config::rel(1e-3), &models()).unwrap();
        let base = vec![vec![p]];
        assert_eq!(replicate_profiles(&base, 16), replicate_profiles(&base, 16));
    }
}
