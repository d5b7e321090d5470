//! Shared workload/profile construction for the experiments.
//!
//! Also the home of the boilerplate the runnable examples share:
//! snapshot → per-rank partitioning (re-exported from
//! [`timeline::data`]) and the demo [`RealConfig`] the real-engine
//! examples run with.

use pfsim::BandwidthModel;
use predwrite::{
    profile_partition_with, replicate_profiles, ExtraSpacePolicy, Method, PartitionProfile,
    RealConfig,
};
use ratiomodel::{EstimateScratch, Models, ThroughputModel};
use std::path::PathBuf;
use szlite::{compress_with_stats, Config, Dims};
pub use timeline::{partition_1d, partition_3d, partition_stream_step};
use workloads::{nyx, vpic, Decomposition, NyxParams, VpicParams};

/// The demo [`RealConfig`] shared by the real-engine examples: one
/// relative bound of 1e-3 per field, paper-reference models with a
/// 20 MB/s stable write throughput, the default extra-space policy and
/// the small test bandwidth model. `throttle_scale` sets how congested
/// the simulated PFS is (examples use 0.01 for an I/O-bound run, 0.5
/// for a balanced one).
pub fn demo_real_config(
    method: Method,
    nfields: usize,
    throttle_scale: f64,
    verify: bool,
    path: PathBuf,
) -> RealConfig {
    RealConfig {
        method,
        configs: vec![Config::rel(1e-3); nfields],
        models: Models::with_cthr(20e6),
        policy: ExtraSpacePolicy::default(),
        bandwidth: BandwidthModel::tiny_for_tests(),
        throttle_scale,
        sz_threads: 1,
        verify,
        path,
        reservation: predwrite::ReservationTopology::Flat,
        faults: None,
    }
}

/// Experiment scale knob: `quick` finishes in seconds, `full` in a few
/// minutes. Both exercise the full pipeline; only grid sizes differ.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExperimentScale {
    /// Small grids for CI / fast iteration.
    Quick,
    /// Larger grids closer to the paper's measured regime.
    Full,
}

impl ExperimentScale {
    /// Nyx cube side for measured (non-replicated) profiles.
    pub fn nyx_side(&self) -> usize {
        match self {
            ExperimentScale::Quick => 64,
            ExperimentScale::Full => 128,
        }
    }

    /// Ranks whose profiles are measured directly. Kept low enough
    /// that measured partitions are ≥ 32³ points — small partitions
    /// are dominated by stream overheads and would distort the
    /// scaled-up profiles.
    pub fn measured_ranks(&self) -> usize {
        match self {
            ExperimentScale::Quick => 8,
            ExperimentScale::Full => 64,
        }
    }

    /// VPIC particles.
    pub fn vpic_particles(&self) -> usize {
        match self {
            ExperimentScale::Quick => 1 << 18,
            ExperimentScale::Full => 1 << 22,
        }
    }
}

/// Find a value-range-relative error bound achieving roughly
/// `target_bits` bits/value on `data`, by bisection (the paper states
/// target bit-rates, e.g. 2 bits/value, rather than bounds).
pub fn eb_for_bitrate(data: &[f32], dims: &Dims, target_bits: f64) -> f64 {
    let mut lo = 1e-9f64; // tight → high bit-rate
    let mut hi = 0.5f64; // loose → low bit-rate
    for _ in 0..18 {
        let mid = (lo.ln() + hi.ln()).mul_add(0.5, 0.0).exp();
        let (_, st) = compress_with_stats(data, dims, &Config::rel(mid))
            .expect("compression failed during calibration");
        if st.bit_rate() > target_bits {
            lo = mid; // too many bits → loosen
        } else {
            hi = mid;
        }
    }
    (lo.ln() + hi.ln()).mul_add(0.5, 0.0).exp()
}

/// The paper's weak-scaling unit: 256³ points per rank-field.
pub const PAPER_POINTS_PER_RANK: usize = 1 << 24;

/// Rescale measured profiles so each partition represents
/// `target_points` points at the *measured bit-rate*: sizes scale
/// linearly, times are re-derived from Eq. (1)/(2). This maps small
/// measured grids onto the paper's per-rank data volumes
/// (DESIGN.md substitution 5).
pub fn scale_to_partition_points(
    profiles: &[Vec<PartitionProfile>],
    target_points: usize,
    models: &Models,
) -> Vec<Vec<PartitionProfile>> {
    profiles
        .iter()
        .map(|fields| {
            fields
                .iter()
                .map(|p| {
                    let k = target_points as f64 / p.n_points as f64;
                    let raw = (p.raw_bytes as f64 * k) as u64;
                    let actual = ((p.actual_bytes as f64 * k) as u64).max(1);
                    let pred = ((p.pred_bytes as f64 * k) as u64).max(1);
                    let bits = actual as f64 * 8.0 / target_points as f64;
                    let pred_bits = pred as f64 * 8.0 / target_points as f64;
                    let tm: &ThroughputModel = &models.throughput;
                    PartitionProfile {
                        n_points: target_points,
                        raw_bytes: raw,
                        pred_bytes: pred,
                        pred_ratio: raw as f64 / pred as f64,
                        pred_comp_time: tm.compression_time(raw as f64, pred_bits),
                        pred_write_time: models.write.write_time(pred_bits, target_points),
                        actual_bytes: actual,
                        comp_time: tm.compression_time(raw as f64, bits),
                    }
                })
                .collect()
        })
        .collect()
}

/// Measured per-rank Nyx profiles at a target mean bit-rate.
///
/// Generates a `side³` snapshot, decomposes it into `measured_ranks`
/// blocks, and profiles every (rank, field) partition: sampled ratio
/// prediction, Eq. 1/2 time predictions, real compressed size. Ranks
/// beyond `measured_ranks` (for scale sweeps) replay the measured
/// distribution via [`replicate_profiles`].
pub fn nyx_profiles(
    side: usize,
    measured_ranks: usize,
    target_ranks: usize,
    target_bits: f64,
    models: &Models,
) -> Vec<Vec<PartitionProfile>> {
    nyx_profiles_with(
        NyxParams::with_side(side),
        measured_ranks,
        target_ranks,
        target_bits,
        models,
    )
}

/// [`nyx_profiles`] with explicit snapshot parameters (seed/red shift),
/// used by the time-step consistency experiment (Fig. 15).
pub fn nyx_profiles_with(
    params: NyxParams,
    measured_ranks: usize,
    target_ranks: usize,
    target_bits: f64,
    models: &Models,
) -> Vec<Vec<PartitionProfile>> {
    let side = params.side;
    let ds = nyx::snapshot(params);
    let dec = Decomposition::new(measured_ranks, [side, side, side]);
    let bd = dec.block;
    let dims = Dims::d3(bd[0], bd[1], bd[2]);
    // One absolute bound per field. The paper's bounds come from
    // post-hoc quality requirements and give fields very different
    // compressed bit-rates; the multipliers below reproduce that
    // heterogeneity around the requested mean (densities compress
    // hardest, velocities least) — without it, the reordering
    // optimizer has nothing to exploit.
    const NYX_BITS_MULT: [f64; 6] = [0.4, 0.25, 1.0, 1.6, 1.6, 1.6];
    let field_cfgs: Vec<Config> = ds
        .fields
        .iter()
        .zip(NYX_BITS_MULT)
        .map(|(f, m)| {
            let full = Dims::d3(side, side, side);
            let (mn, mx) = f
                .data
                .iter()
                .fold((f32::MAX, f32::MIN), |(a, b), &v| (a.min(v), b.max(v)));
            let rel = eb_for_bitrate(&f.data, &full, target_bits * m);
            Config::abs((rel * f64::from(mx - mn)).max(1e-30))
        })
        .collect();
    let mut scratch = EstimateScratch::new();
    let base: Vec<Vec<PartitionProfile>> = (0..measured_ranks)
        .map(|r| {
            ds.fields
                .iter()
                .zip(&field_cfgs)
                .map(|(f, cfg)| {
                    let blk = dec.extract(f, r);
                    profile_partition_with(&blk, &dims, cfg, models, &mut scratch)
                        .expect("profiling failed")
                })
                .collect()
        })
        .collect();
    let scaled = scale_to_partition_points(&base, PAPER_POINTS_PER_RANK, models);
    replicate_profiles(&scaled, target_ranks)
}

/// Measured per-rank VPIC profiles (8 particle fields, 1-D splits).
pub fn vpic_profiles(
    n_particles: usize,
    measured_ranks: usize,
    target_ranks: usize,
    target_bits: f64,
    models: &Models,
) -> Vec<Vec<PartitionProfile>> {
    let ds = vpic::snapshot(VpicParams::with_particles(n_particles));
    // Positions (sorted) and weights compress far better than momenta
    // and energy; spread per-field targets around the requested mean.
    const VPIC_BITS_MULT: [f64; 8] = [0.4, 0.6, 0.4, 1.8, 1.8, 1.8, 1.4, 0.2];
    let field_cfgs: Vec<Config> = ds
        .fields
        .iter()
        .zip(VPIC_BITS_MULT)
        .map(|(f, m)| {
            let full = Dims::d1(f.data.len());
            let (mn, mx) = f
                .data
                .iter()
                .fold((f32::MAX, f32::MIN), |(a, b), &v| (a.min(v), b.max(v)));
            let rel = eb_for_bitrate(&f.data, &full, target_bits * m);
            Config::abs((rel * f64::from(mx - mn)).max(1e-30))
        })
        .collect();
    let base: Vec<Vec<PartitionProfile>> = {
        let splits: Vec<Vec<Vec<f32>>> = ds
            .fields
            .iter()
            .map(|f| workloads::split_1d(f, measured_ranks))
            .collect();
        let mut scratch = EstimateScratch::new();
        (0..measured_ranks)
            .map(|r| {
                splits
                    .iter()
                    .zip(&field_cfgs)
                    .map(|(per_field, cfg)| {
                        let blk = &per_field[r];
                        profile_partition_with(blk, &Dims::d1(blk.len()), cfg, models, &mut scratch)
                            .expect("profiling failed")
                    })
                    .collect()
            })
            .collect()
    };
    // The paper's VPIC runs hold ~39 M particles per process.
    let scaled = scale_to_partition_points(&base, PAPER_POINTS_PER_RANK, models);
    replicate_profiles(&scaled, target_ranks)
}

/// Relative error bound that lands Nyx near a target mean bit-rate,
/// calibrated on the baryon-density field.
pub fn nyx_eb_for_bitrate(side: usize, target_bits: f64) -> f64 {
    let f = nyx::single_field(NyxParams::with_side(side), "baryon_density");
    eb_for_bitrate(&f.data, &Dims::d3(side, side, side), target_bits)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eb_bisection_hits_target() {
        let side = 32;
        let f = nyx::single_field(NyxParams::with_side(side), "temperature");
        let dims = Dims::d3(side, side, side);
        for target in [2.0, 4.0] {
            let eb = eb_for_bitrate(&f.data, &dims, target);
            let (_, st) = compress_with_stats(&f.data, &dims, &Config::rel(eb)).unwrap();
            assert!(
                (st.bit_rate() - target).abs() < target * 0.35,
                "target {target}: got {}",
                st.bit_rate()
            );
        }
    }

    #[test]
    fn nyx_profiles_shape() {
        let models = Models::with_cthr(40e6);
        let p = nyx_profiles(32, 8, 16, 1e-3, &models);
        assert_eq!(p.len(), 16);
        assert!(p.iter().all(|r| r.len() == 6));
        assert!(p[0][0].actual_bytes > 0);
    }

    #[test]
    fn vpic_profiles_shape() {
        let models = Models::with_cthr(40e6);
        let p = vpic_profiles(1 << 14, 4, 4, 1e-3, &models);
        assert_eq!(p.len(), 4);
        assert!(p.iter().all(|r| r.len() == 8));
    }
}
