//! Sim-vs-real conformance: the discrete-event stream simulator and
//! the real stream engine report the same `StepMetrics`, so for inputs
//! both can run they must agree on every byte the planner decides —
//! reservations, waste, predictions, actual sizes, overflow and the
//! reservation collective's wire bytes — and on
//! the prediction error they report, step for step, in both adaptation
//! modes, with and without Algorithm 1 reordering. An adaptive stream's
//! ranks pool their reservations and place their streams in write
//! order, so where a region runs full the two engines must also agree
//! on which field spills how much.

use bench::partition_stream_step;
use repro_suite::predwrite::{
    profile_partition_with, simulate_stream, AdaptMode, Method, PartitionProfile, RankFieldData,
    SimParams, StreamSimConfig,
};
use repro_suite::ratiomodel::{EstimateScratch, OnlineConfig};
use repro_suite::timeline::{run_timeline, TimelineConfig};
use repro_suite::workloads::SnapshotStream;
use std::path::Path;
use testutil::TempDir;

const STEPS: usize = 3;

/// Run `cfg` through both engines and compare the reports step for
/// step; returns how many partitions overflowed.
fn assert_streams_agree(
    cfg: &TimelineConfig,
    data: &[Vec<Vec<RankFieldData>>],
    profiles: &[Vec<Vec<PartitionProfile>>],
    what: &str,
) -> usize {
    let real = run_timeline(cfg, |s| &data[s]).unwrap_or_else(|e| panic!("{what}: {e}"));
    let sim = simulate_stream(
        &StreamSimConfig {
            params: SimParams::new(cfg.bandwidth).with_policy(cfg.policy),
            mode: cfg.mode,
            reservation: cfg.reservation,
            steps: cfg.steps,
            reorder: cfg.method == Method::OverlapReorder,
        },
        |s| &profiles[s],
    );
    assert_eq!(real.steps.len(), cfg.steps, "{what}");
    assert_eq!(sim.steps.len(), cfg.steps, "{what}");
    for (r, s) in real.steps.iter().zip(&sim.steps) {
        let what = format!("{what}, step {}", r.step);
        assert_eq!(r.step, s.step, "{what}");
        assert_eq!(r.reserved_bytes, s.reserved_bytes, "{what}: reserved");
        assert_eq!(r.waste_bytes, s.waste_bytes, "{what}: waste");
        assert_eq!(r.predicted_bytes, s.predicted_bytes, "{what}: predicted");
        assert_eq!(r.actual_bytes, s.actual_bytes, "{what}: actual");
        assert_eq!(r.mean_rel_err, s.mean_rel_err, "{what}: mean_rel_err");
        let (r, s) = (&r.result, &s.result);
        assert_eq!(r.overflow_bytes, s.overflow_bytes, "{what}: overflow bytes");
        assert_eq!(r.n_overflow, s.n_overflow, "{what}: overflows");
        assert_eq!(r.compressed_bytes, s.compressed_bytes, "{what}: compressed");
        // One reserved total from every rank to every rank.
        let nranks = data[0].len() as u64;
        assert_eq!(r.reservation_wire_bytes, 8 * nranks * nranks, "{what}");
        assert_eq!(
            r.reservation_wire_bytes, s.reservation_wire_bytes,
            "{what}: reservation wire bytes"
        );
        // `file_bytes` is left out on purpose: the simulated file is
        // reservations + overflow, the real one also holds the
        // superblock and the chunk table.
        assert!(r.file_bytes > s.file_bytes, "{what}");
    }
    real.total_overflows()
}

/// One step per entry of `streams`, step `s` drawn from `streams[s]`,
/// on `nranks` ranks, and the simulator's input from the very data the
/// real engine writes: the same estimate, the same compressor. The
/// config streams it statically into `dir`.
#[allow(clippy::type_complexity)]
fn inputs(
    streams: &[SnapshotStream],
    nranks: usize,
    dir: &Path,
) -> (
    TimelineConfig,
    Vec<Vec<Vec<RankFieldData>>>,
    Vec<Vec<Vec<PartitionProfile>>>,
) {
    let steps = streams.len();
    let data: Vec<_> = (streams.iter().enumerate())
        .map(|(s, stream)| partition_stream_step(stream, s, nranks))
        .collect();
    let nfields = data[0][0].len();
    let mut cfg = TimelineConfig::quick(steps, nfields, AdaptMode::Static, dir.to_path_buf());
    cfg.verify = false; // bytes are compared, not decoded
    let mut scratch = EstimateScratch::new();
    let mut profile = |fd: &RankFieldData, f: usize| {
        profile_partition_with(
            &fd.data,
            &fd.dims,
            &cfg.configs[f],
            &cfg.models,
            &mut scratch,
        )
        .unwrap()
    };
    let profiles = (data.iter())
        .map(|step| {
            (step.iter())
                .map(|rank| {
                    (rank.iter().enumerate())
                        .map(|(f, fd)| profile(fd, f))
                        .collect()
                })
                .collect()
        })
        .collect();
    (cfg, data, profiles)
}

#[test]
fn simulated_and_real_streams_agree_on_every_planned_byte() {
    let dir = TempDir::new("sim-vs-real");
    let mut overflows = 0;
    // 3-D and 1-D partitions. The Nyx ones are large enough to be
    // sampled, not scanned, by the ratio model, so some are
    // under-predicted past their extra space and overflow.
    for stream in [SnapshotStream::nyx(32), SnapshotStream::vpic(8192)] {
        for nranks in [2, 4] {
            let (mut cfg, data, profiles) = inputs(&[stream; STEPS], nranks, dir.path());
            for mode in [AdaptMode::Static, AdaptMode::Adaptive(OnlineConfig)] {
                cfg.mode = mode;
                let what = format!("{} × {nranks} ranks, {}", stream.label(), mode.label());
                overflows += assert_streams_agree(&cfg, &data, &profiles, &what);
            }
            // Algorithm 1 changes each rank's compression order from
            // the estimates both engines share; no byte may move.
            cfg.method = Method::OverlapReorder;
            let what = format!("{} × {nranks} ranks, reordered", stream.label());
            overflows += assert_streams_agree(&cfg, &data, &profiles, &what);
        }
    }
    assert!(overflows > 0, "the overflow path was never exercised");
}

#[test]
fn pooled_regions_run_full_alike_in_both_engines() {
    // Two ranks whose history has settled when the stream jumps on the
    // last two of six steps, so that a rank's fields come out larger
    // than its calm region holds and the streams written last spill —
    // the same bytes of the same fields in both engines, in field
    // order and in Algorithm 1's, for the 3-D and the 1-D streams.
    // * Nyx jumps ahead in time: the last two steps are drawn at ten
    //   times the stream's time step.
    // * A VPIC rank spills on no jump in time (×10 to ×100), noise
    //   (0 to 0.3) or rank count (2 to 8): the size model follows each
    //   of them, and the region never drops below the last total. Its
    //   dump grows fourfold instead: a rank's 4 096-point partitions,
    //   which the ratio model scans whole, become 16 384-point ones it
    //   samples, with an error the calm steps never showed it.
    let dir = TempDir::new("sim-vs-real-pooled");
    let (nyx, vpic) = (SnapshotStream::nyx(32), SnapshotStream::vpic(8192));
    let jumps = [
        (
            nyx,
            SnapshotStream {
                dt: 10.0 * nyx.dt,
                ..nyx
            },
        ),
        (
            vpic,
            SnapshotStream {
                size: 4 * vpic.size,
                ..vpic
            },
        ),
    ];
    for (calm, jump) in jumps {
        let streams = [calm, calm, calm, calm, jump, jump];
        let (mut cfg, data, profiles) = inputs(&streams, 2, dir.path());
        cfg.mode = AdaptMode::Adaptive(OnlineConfig);
        for method in [Method::Overlap, Method::OverlapReorder] {
            cfg.method = method;
            let what = format!("{} × 2 ranks, pooled, {}", calm.label(), method.label());
            let overflows = assert_streams_agree(&cfg, &data, &profiles, &what);
            assert!(overflows > 0, "{what}: no region ran full");
        }
    }
}
