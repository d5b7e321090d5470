//! Simulated execution of the four write methods over partition
//! profiles — the engine behind every scale/ratio sweep (Fig. 16–18).
//!
//! Identical planner code (extra space, Algorithm 1 ordering, overflow
//! planning) to the real engine; only execution is replaced by the
//! discrete-event pipeline simulator of `pfsim`.

use crate::extraspace::ExtraSpacePolicy;
use crate::metrics::{Breakdown, Method, RunResult, TimelineReport};
use crate::plan::{reservation_wire_bytes, WritePlan};
use crate::profile::PartitionProfile;
use crate::real::{
    AdaptMode, FieldObservation, ReservationTopology, RunObservations, SourceEstimate,
};
use crate::step::{compression_order, pooling, rank_reservations, StreamState};
use pfsim::{
    collective_write_time, simulate, simulate_concurrent_writes, BandwidthModel, PipelineTask,
    RankPipeline,
};
use ratiomodel::OnlinePredictor;

/// All-gather latency: `ALLGATHER_ALPHA + ALLGATHER_BETA · nranks`
/// seconds. The paper notes this term grows with scale (§IV-D).
const ALLGATHER_ALPHA: f64 = 200e-6;
/// Per-rank all-gather cost, seconds.
const ALLGATHER_BETA: f64 = 1.5e-6;
/// Prediction overhead as a fraction of compression time (< 0.1 per
/// Jin et al. \[25\]).
const PREDICT_FRAC: f64 = 0.05;

fn allgather_time(nranks: usize) -> f64 {
    ALLGATHER_ALPHA + ALLGATHER_BETA * nranks as f64
}

/// Simulation parameters beyond the bandwidth model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimParams {
    /// File system model.
    pub bandwidth: BandwidthModel,
    /// Extra-space policy for the predictive methods.
    pub policy: ExtraSpacePolicy,
}

impl SimParams {
    /// Defaults on a given bandwidth model.
    pub fn new(bandwidth: BandwidthModel) -> Self {
        SimParams {
            bandwidth,
            policy: ExtraSpacePolicy::default(),
        }
    }

    /// Override the extra-space policy.
    pub fn with_policy(mut self, policy: ExtraSpacePolicy) -> Self {
        self.policy = policy;
        self
    }
}

fn totals(profiles: &[Vec<PartitionProfile>]) -> (u64, u64) {
    let raw = profiles.iter().flatten().map(|p| p.raw_bytes).sum();
    let comp = profiles.iter().flatten().map(|p| p.actual_bytes).sum();
    (raw, comp)
}

/// Simulate one method over `profiles[rank][field]`.
pub fn simulate_method(
    method: Method,
    profiles: &[Vec<PartitionProfile>],
    params: &SimParams,
) -> RunResult {
    match method {
        Method::NoCompression => sim_nocomp(profiles, params),
        Method::FilterCollective => sim_filter(profiles, params),
        Method::Overlap => sim_overlap(profiles, params, false),
        Method::OverlapReorder => sim_overlap(profiles, params, true),
    }
}

/// Simulate all four methods (shared profiles → comparable results).
pub fn simulate_all(profiles: &[Vec<PartitionProfile>], params: &SimParams) -> Vec<RunResult> {
    Method::ALL
        .iter()
        .map(|&m| simulate_method(m, profiles, params))
        .collect()
}

fn sim_nocomp(profiles: &[Vec<PartitionProfile>], params: &SimParams) -> RunResult {
    let ranks: Vec<RankPipeline> = profiles
        .iter()
        .map(|fields| RankPipeline {
            release: 0.0,
            tasks: fields
                .iter()
                .map(|p| PipelineTask {
                    compute: 0.0,
                    write_bytes: p.raw_bytes as f64,
                })
                .collect(),
        })
        .collect();
    let out = simulate(&ranks, &params.bandwidth);
    let (raw, _) = totals(profiles);
    RunResult {
        method: Method::NoCompression,
        total_time: out.makespan,
        breakdown: Breakdown {
            write: out.makespan,
            ..Default::default()
        },
        raw_bytes: raw,
        compressed_bytes: raw,
        file_bytes: raw,
        n_overflow: 0,
        overflow_bytes: 0,
        reservation_wire_bytes: 0,
        queue_depth_max: 0,
    }
}

fn sim_filter(profiles: &[Vec<PartitionProfile>], params: &SimParams) -> RunResult {
    let nranks = profiles.len();
    let nfields = profiles.first().map_or(0, Vec::len);
    // Phase 1: all ranks compress everything; barrier at the slowest.
    let compress = profiles
        .iter()
        .map(|fields| fields.iter().map(|p| p.comp_time).sum::<f64>())
        .fold(0.0, f64::max);
    // Phase 2: all-gather of actual sizes.
    let ag = allgather_time(nranks);
    // Phase 3: one collective round per field (filters force collective
    // writes; every rank participates in every round).
    let mut write = 0.0;
    for f in 0..nfields {
        let sizes: Vec<f64> = profiles.iter().map(|r| r[f].actual_bytes as f64).collect();
        write += collective_write_time(&sizes, &params.bandwidth);
    }
    let (raw, comp) = totals(profiles);
    RunResult {
        method: Method::FilterCollective,
        total_time: compress + ag + write,
        breakdown: Breakdown {
            allgather: ag,
            compress,
            write,
            ..Default::default()
        },
        raw_bytes: raw,
        compressed_bytes: comp,
        file_bytes: comp,
        n_overflow: 0,
        overflow_bytes: 0,
        reservation_wire_bytes: 0,
        queue_depth_max: 0,
    }
}

fn sim_overlap(profiles: &[Vec<PartitionProfile>], params: &SimParams, reorder: bool) -> RunResult {
    // Offline estimates, one world-wide all-gather.
    sim_overlap_step(profiles, None, params, reorder).0
}

/// One simulated overlap step: estimates from what the profiles
/// recorded (blended with `online`'s history when the stream adapts,
/// whose ranks then pool), reservations and layout from the estimates,
/// then the per-rank compress→write pipelines — each rank placing its
/// streams in its compression order, as the real engine's ranks do —
/// and the overflow round. Returns what
/// [`crate::real::run_real_with`] returns: the aggregate result plus
/// what happened to each partition.
fn sim_overlap_step(
    profiles: &[Vec<PartitionProfile>],
    online: Option<&OnlinePredictor>,
    params: &SimParams,
    reorder: bool,
) -> (RunResult, RunObservations) {
    let nranks = profiles.len();
    let nfields = profiles.first().map_or(0, Vec::len);
    let estimates: Vec<Vec<SourceEstimate>> = profiles
        .iter()
        .enumerate()
        .map(|(r, fields)| {
            fields
                .iter()
                .enumerate()
                .map(|(f, p)| {
                    SourceEstimate::from(p).for_cell(p.raw_bytes, online, r * nfields + f)
                })
                .collect()
        })
        .collect();
    let poolings: Vec<_> = (estimates.iter().enumerate())
        .map(|(r, row)| pooling(online, r, row))
        .collect();
    let (preds, reserves): (Vec<_>, Vec<_>) = (estimates.iter().zip(&poolings))
        .map(|(row, &pooling)| rank_reservations(row, pooling, &params.policy))
        .unzip();
    let plan = WritePlan::build_reserved(&preds, &reserves, 0);

    // Phase 1: prediction (sampling) on every rank, then the
    // reservation collective synchronizes everyone at max(predict) + ag.
    let predict = profiles
        .iter()
        .map(|fields| fields.iter().map(|p| p.comp_time).sum::<f64>() * PREDICT_FRAC)
        .fold(0.0, f64::max);
    let ag = allgather_time(nranks);
    let release = predict + ag;

    // Phase 3: per-rank ordered compress→write pipelines.
    let mut observations: RunObservations = Vec::with_capacity(nranks);
    let mut ranks: Vec<RankPipeline> = Vec::with_capacity(nranks);
    for (r, fields) in profiles.iter().enumerate() {
        let view = plan.rank_view(r);
        let mut regions = view.regions(poolings[r]);
        let mut row = vec![FieldObservation::default(); fields.len()];
        let mut tasks = Vec::with_capacity(fields.len());
        for f in compression_order(reorder, &estimates[r]) {
            let (_, split) = regions.place(f, fields[f].actual_bytes);
            row[f] = FieldObservation::settle(&estimates[r][f], view.slots[f].reserved, split);
            tasks.push(PipelineTask {
                compute: fields[f].comp_time,
                write_bytes: split.in_slot as f64,
            });
        }
        observations.push(row);
        ranks.push(RankPipeline { release, tasks });
    }
    let out = simulate(&ranks, &params.bandwidth);
    let compress_end = out.last_compute_done();
    let makespan = out.makespan;

    // Phase 4: overflow — a second all-gather of overflow sizes, then
    // the affected ranks append concurrently.
    let rank_overflow: Vec<f64> = observations
        .iter()
        .map(|row| row.iter().map(|o| o.overflow).sum::<u64>() as f64)
        .filter(|&b| b > 0.0)
        .collect();
    let mut overflow_time = 0.0;
    if !rank_overflow.is_empty() {
        let (_, round) = simulate_concurrent_writes(&rank_overflow, &params.bandwidth);
        overflow_time = allgather_time(nranks) + round;
    }

    let mut result = RunResult::collect(
        if reorder {
            Method::OverlapReorder
        } else {
            Method::Overlap
        },
        makespan + overflow_time,
        Breakdown {
            predict,
            allgather: ag,
            compress: compress_end - release,
            write: makespan - compress_end,
            overflow: overflow_time,
            ..Default::default()
        },
        profiles.iter().flatten().map(|p| p.raw_bytes).sum(),
        0,
        &observations,
    );
    // File: everything reserved stays allocated; overflow appends past
    // the end (in-slot bytes within reservations are not reclaimed).
    result.file_bytes = plan.reserved_total() + result.overflow_bytes;
    result.reservation_wire_bytes = reservation_wire_bytes(nranks, nfields, None) * nranks as u64;
    (result, observations)
}

/// Configuration of a simulated checkpoint stream — the scale-out
/// counterpart of `timeline::TimelineConfig`: same [`AdaptMode`], but
/// steps execute through the discrete-event simulator instead of real
/// threads and real I/O, so a 2048-rank stream takes seconds on one thread.
#[derive(Debug, Clone)]
pub struct StreamSimConfig {
    /// Bandwidth model, extra-space policy, collective latency model.
    pub params: SimParams,
    /// Prediction/headroom mode (adaptive mode carries its
    /// [`ratiomodel::OnlineConfig`]).
    pub mode: AdaptMode,
    /// Pinned by `benchmark/API.md`; see [`ReservationTopology`].
    pub reservation: ReservationTopology,
    /// Timesteps to stream.
    pub steps: usize,
    /// Apply Algorithm 1 queue reordering per rank.
    pub reorder: bool,
}

/// Stream `cfg.steps` simulated checkpoints over
/// `step_profiles(step)[rank][field]` (the callback may return owned
/// or borrowed profile sets).
///
/// The stream is the real-I/O timeline engine's
/// ([`StreamState`]): static mode replays the offline predictions with
/// the engine-wide extra-space policy every step; adaptive mode
/// threads an [`OnlinePredictor`] through the steps — per-partition
/// bias correction plus one region per rank at its adaptive headroom,
/// fed back from each step's actual sizes.
///
/// Returns the report the real stream returns, so every sum over a
/// stream is [`TimelineReport`]'s.
///
/// # Panics
///
/// When a step's shape differs from the first step's.
pub fn simulate_stream<F, D>(cfg: &StreamSimConfig, mut step_profiles: F) -> TimelineReport
where
    F: FnMut(usize) -> D,
    D: std::borrow::Borrow<Vec<Vec<PartitionProfile>>>,
{
    let mut state = StreamState::new(cfg.mode, None).expect("no resumed history to reject");
    let mut steps = Vec::with_capacity(cfg.steps);

    for step in 0..cfg.steps {
        let profiles = step_profiles(step);
        let profiles = profiles.borrow();
        let nranks = profiles.len();
        let nfields = profiles.first().map_or(0, Vec::len);
        let run = |online: Option<&OnlinePredictor>| {
            Ok(sim_overlap_step(profiles, online, &cfg.params, cfg.reorder))
        };
        let metrics = state.step(step, nranks, nfields, run);
        steps.push(metrics.unwrap_or_else(|e| panic!("{e}")));
    }

    TimelineReport {
        mode: cfg.mode.label().to_string(),
        steps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Synthetic profile set: `nranks` ranks × `nfields` fields with a
    /// spread of sizes and compression times. Partition size matches
    /// the paper's weak-scaling unit (256³ points = 64 MiB raw).
    fn synth(
        nranks: usize,
        nfields: usize,
        ratio: f64,
        accurate: bool,
    ) -> Vec<Vec<PartitionProfile>> {
        let n_points = 1 << 24; // 16 Mi points = 64 MiB raw
        (0..nranks)
            .map(|r| {
                (0..nfields)
                    .map(|f| {
                        // Deterministic per-partition variation ×[0.6, 1.67].
                        let h = ((r * 31 + f * 17) % 13) as f64 / 13.0;
                        let scale = 0.6 * (1.67f64 / 0.6).powf(h);
                        let raw = (n_points * 4) as u64;
                        let actual = ((raw as f64 / ratio) * scale) as u64;
                        let pred = if accurate {
                            (actual as f64 * 1.02) as u64
                        } else {
                            (actual as f64 * 0.7) as u64 // systematic under-prediction
                        };
                        let bits = actual as f64 * 8.0 / n_points as f64;
                        let tm = ratiomodel::ThroughputModel::paper_reference();
                        PartitionProfile {
                            n_points,
                            raw_bytes: raw,
                            pred_bytes: pred,
                            pred_ratio: raw as f64 / pred as f64,
                            pred_comp_time: tm.compression_time(raw as f64, bits),
                            pred_write_time: actual as f64 / 100e6,
                            actual_bytes: actual,
                            comp_time: tm.compression_time(raw as f64, bits),
                        }
                    })
                    .collect()
            })
            .collect()
    }

    fn params() -> SimParams {
        SimParams::new(BandwidthModel::summit()).with_policy(ExtraSpacePolicy::new(1.25))
    }

    #[test]
    fn method_ranking_matches_paper() {
        // At a mid compression ratio (~16×) on a congested system:
        // no-comp slowest, filter+collective better, overlap better
        // still, reorder best (Fig. 16 ordering).
        let profiles = synth(512, 6, 16.0, true);
        let rs = simulate_all(&profiles, &params());
        let t = |m: Method| rs.iter().find(|r| r.method == m).unwrap().total_time;
        assert!(t(Method::NoCompression) > t(Method::FilterCollective));
        assert!(t(Method::FilterCollective) > t(Method::Overlap));
        assert!(t(Method::Overlap) >= t(Method::OverlapReorder) * 0.999);
    }

    #[test]
    fn speedups_in_plausible_range() {
        let profiles = synth(512, 6, 16.0, true);
        let rs = simulate_all(&profiles, &params());
        let no = rs[0];
        let best = rs[3];
        let speedup = best.speedup_over(&no);
        assert!(speedup > 2.0 && speedup < 20.0, "speedup {speedup}");
    }

    #[test]
    fn accurate_predictions_no_overflow() {
        let profiles = synth(16, 4, 16.0, true);
        let r = simulate_method(Method::Overlap, &profiles, &params());
        assert_eq!(r.n_overflow, 0);
        assert_eq!(r.overflow_bytes, 0);
        assert!(r.breakdown.overflow == 0.0);
    }

    #[test]
    fn underprediction_causes_overflow_and_cost() {
        let profiles = synth(16, 4, 16.0, false);
        // With 0.7× under-prediction and 1.25 extra space, reservations
        // are 0.875× of actual → every partition overflows.
        let r = simulate_method(Method::Overlap, &profiles, &params());
        // Most partitions overflow (those whose predicted ratio exceeds
        // 32 get the Eq. 3 widened reserve and may still fit).
        assert!(r.n_overflow > 16 * 4 / 2, "n_overflow {}", r.n_overflow);
        assert!(r.overflow_bytes > 0);
        assert!(r.breakdown.overflow > 0.0);
        // Overflow costs time vs. the accurate case.
        let acc = simulate_method(Method::Overlap, &synth(16, 4, 16.0, true), &params());
        assert!(r.total_time > acc.total_time);
    }

    #[test]
    fn storage_overhead_tracks_rspace() {
        let profiles = synth(16, 4, 16.0, true);
        let lo = simulate_method(
            Method::Overlap,
            &profiles,
            &params().with_policy(ExtraSpacePolicy::new(1.1)),
        );
        let hi = simulate_method(
            Method::Overlap,
            &profiles,
            &params().with_policy(ExtraSpacePolicy::new(1.43)),
        );
        assert!(hi.storage_overhead() > lo.storage_overhead());
        // With accurate predictions, overhead ≈ rspace − 1 + prediction slack.
        assert!(
            (hi.storage_overhead() - 0.46).abs() < 0.1,
            "{}",
            hi.storage_overhead()
        );
    }

    #[test]
    fn reorder_gain_vanishes_at_extreme_ratios() {
        // Fig. 17: at very high compression ratio (tiny writes) and at
        // very low ratio (write-dominated), reordering gains little.
        let p = params();
        for ratio in [200.0, 1.3] {
            let profiles = synth(32, 6, ratio, true);
            let ov = simulate_method(Method::Overlap, &profiles, &p);
            let re = simulate_method(Method::OverlapReorder, &profiles, &p);
            let gain = ov.total_time / re.total_time;
            assert!(gain < 1.15, "ratio {ratio}: gain {gain}");
        }
    }

    #[test]
    fn weak_scaling_stable() {
        // Per-rank work constant; total time should not blow up with
        // rank count beyond bandwidth contention effects.
        let base = synth(32, 6, 16.0, true);
        let p = params();
        let t256 = simulate_method(
            Method::OverlapReorder,
            &crate::profile::replicate_profiles(&base, 256),
            &p,
        )
        .total_time;
        let t1024 = simulate_method(
            Method::OverlapReorder,
            &crate::profile::replicate_profiles(&base, 1024),
            &p,
        )
        .total_time;
        // 4× the ranks on a shared cap: at most ~5× the time.
        assert!(t1024 < t256 * 6.0, "t256 {t256} t1024 {t1024}");
        assert!(t1024 > t256, "more contention must not be faster");
    }

    #[test]
    fn breakdown_sums_to_total() {
        let profiles = synth(16, 6, 16.0, false);
        for m in Method::ALL {
            let r = simulate_method(m, &profiles, &params());
            assert!(
                (r.breakdown.total() - r.total_time).abs() < 1e-6,
                "{m:?}: {} vs {}",
                r.breakdown.total(),
                r.total_time
            );
        }
    }

    fn stream_cfg(mode: AdaptMode, steps: usize) -> StreamSimConfig {
        StreamSimConfig {
            params: params(),
            mode,
            reservation: ReservationTopology::Flat,
            steps,
            reorder: false,
        }
    }

    fn adaptive() -> AdaptMode {
        AdaptMode::Adaptive(ratiomodel::OnlineConfig::default())
    }

    #[test]
    fn adaptive_stream_cures_systematic_underprediction() {
        // The offline model under-predicts by 0.7× every step; the
        // static stream overflows forever, the adaptive stream learns
        // the bias within a few steps and stops overflowing.
        let profiles = synth(16, 4, 16.0, false);
        let stat = simulate_stream(&stream_cfg(AdaptMode::Static, 8), |_| &profiles);
        let adap = simulate_stream(&stream_cfg(adaptive(), 8), |_| &profiles);
        let stat_ovf_bytes = stat.total_overflow_bytes();
        let adap_ovf_bytes = adap.total_overflow_bytes();
        assert!(stat.total_overflows() > 0, "static must overflow");
        assert!(
            adap_ovf_bytes < stat_ovf_bytes / 2,
            "adaptive {adap_ovf_bytes} vs static {stat_ovf_bytes}"
        );
        // Error collapses once the bias correction kicks in.
        assert!(adap.steps.last().unwrap().mean_rel_err < adap.steps[0].mean_rel_err / 2.0);
        // Static replays the same step forever.
        assert!(stat
            .steps
            .iter()
            .all(|s| s.result.n_overflow == stat.steps[0].result.n_overflow));
    }

    #[test]
    fn adaptive_stream_trims_waste_on_stable_history() {
        // With accurate predictions the static policy still pads every
        // reservation by rspace − 1; adaptive headroom tightens toward
        // the observed error band and wastes less space.
        let profiles = synth(16, 4, 16.0, true);
        let stat = simulate_stream(&stream_cfg(AdaptMode::Static, 8), |_| &profiles);
        let adap = simulate_stream(&stream_cfg(adaptive(), 8), |_| &profiles);
        let (stat_waste, adap_waste) = (stat.total_waste(), adap.total_waste());
        assert_eq!(
            adap.total_overflow_bytes(),
            0,
            "stable history must not overflow"
        );
        assert!(
            adap_waste < stat_waste,
            "adaptive {adap_waste} vs static {stat_waste}"
        );
    }

    #[test]
    fn stream_report_shape() {
        let profiles = synth(512, 4, 16.0, true);
        let r = simulate_stream(&stream_cfg(AdaptMode::Static, 3), |_| &profiles);
        assert_eq!(r.steps.len(), 3);
        assert_eq!(r.mode, "static");
        // One reserved total from every rank to every rank, in every
        // step's record (summed over ranks).
        let wire = reservation_wire_bytes(512, 4, None) * 512;
        assert!(r
            .steps
            .iter()
            .all(|s| s.result.reservation_wire_bytes == wire));
    }

    #[test]
    fn a_pooled_rank_spills_from_the_field_it_writes_last() {
        // One rank, two fields, its region exactly its 1 100 predicted
        // bytes; the streams come to 1 160. Algorithm 1 writes field 1
        // first (it writes longer than it compresses), so field 0 is
        // the one the region cannot hold; in field order it is field 1.
        let profile = |pred: u64, actual: u64, comp_time: f64, write_time: f64| PartitionProfile {
            n_points: 1000,
            raw_bytes: 4000,
            pred_bytes: pred,
            pred_ratio: 4000.0 / pred as f64,
            pred_comp_time: comp_time,
            pred_write_time: write_time,
            actual_bytes: actual,
            comp_time,
        };
        let profiles = vec![vec![
            profile(1000, 1000, 1.0, 0.1),
            profile(100, 160, 0.1, 1.0),
        ]];
        let tight = ratiomodel::OnlineConfig {
            err_margin: 0.0,
            min_headroom: 1.0,
            ..ratiomodel::OnlineConfig::default()
        };
        let mut online = OnlinePredictor::for_stream(1, 2, tight);
        for _ in 0..2 {
            online.observe_rank(0, 1100, 1100);
        }
        for (reorder, spills) in [(false, [0, 60]), (true, [60, 0])] {
            let (r, obs) = sim_overlap_step(&profiles, Some(&online), &params(), reorder);
            assert_eq!(
                [obs[0][0].overflow, obs[0][1].overflow],
                spills,
                "{reorder}"
            );
            assert_eq!((r.n_overflow, r.overflow_bytes), (1, 60));
        }
    }

    #[test]
    #[should_panic(expected = "changed the stream shape")]
    fn stream_rejects_shape_change() {
        let cfg = stream_cfg(AdaptMode::Static, 2);
        let mut n = 0usize;
        simulate_stream(&cfg, |_| {
            n += 1;
            synth(8 + n, 2, 16.0, true)
        });
    }
}
