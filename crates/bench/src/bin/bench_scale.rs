//! `bench_scale` — scale-out streaming sweeps over the discrete-event
//! simulator: ranks ∈ {8, 64, 512, 2048, 4096} × {static, adaptive},
//! flat vs. sharded reservation collectives.
//!
//! Each sweep streams a synthetic checkpoint sequence whose offline
//! model is systematically wrong in both directions (half the
//! partitions under-predicted, half over-predicted, plus a small
//! per-step drift), so the static policy pays persistent waste *and*
//! persistent overflow while the adaptive predictor learns the biases
//! away. Every rank count runs three configurations:
//!
//! - static × flat        (the paper's single-shot setup, O(ranks) collective)
//! - static × sharded     (two-level collective, byte-identical layout)
//! - adaptive × sharded   (the scale-out configuration)
//!
//! and the binary asserts the scale-out story end to end:
//!
//! 1. sharded per-step stats are **byte-identical** to flat at every
//!    rank count (layout invariance),
//! 2. per-rank collective wire bytes grow **sub-linearly** in ranks
//!    under the sharded topology (O(√ranks) at the default √ranks
//!    group size),
//! 3. the representative rank's planner wall-clock grows sub-linearly
//!    too, and is cheaper than the flat planner at the largest sweep,
//! 4. at 512+ ranks the adaptive mode wastes less reserved space and
//!    redirects fewer overflow bytes than static.
//!
//! Writes machine-readable results to `BENCH_scale.json` (override
//! with `BENCH_OUT`).
//!
//! ```text
//! cargo run -p bench --release --bin bench_scale
//! BENCH_RANKS_LIST=8,32 BENCH_STEPS=6 cargo run -p bench --release --bin bench_scale
//! ```
//!
//! Knobs: `BENCH_RANKS_LIST` (comma-separated, default
//! `8,64,512,2048,4096`), `BENCH_STEPS` (default 12), `BENCH_FIELDS`
//! (default 6), `BENCH_REPS` (planner-timing repetitions, default 3),
//! `BENCH_OUT`.

use bench::artifact::{env_count, env_or, obj, write_artifact};
use obs::Json;
use predwrite::{
    simulate_stream, AdaptMode, PartitionProfile, ReservationTopology, SimParams, StreamSimConfig,
    StreamSimReport,
};
use ratiomodel::{OnlineConfig, ThroughputModel};

/// `BENCH_RANKS_LIST`: comma-separated positive rank counts; the
/// default sweep when none parses.
fn env_ranks_list() -> Vec<usize> {
    let parsed: Vec<usize> = env_or("BENCH_RANKS_LIST", String::new())
        .split(',')
        .filter_map(|t| t.trim().parse().ok())
        .filter(|&n| n > 0)
        .collect();
    if parsed.is_empty() {
        vec![8, 64, 512, 2048, 4096]
    } else {
        parsed
    }
}

/// One step of the synthetic stream: deterministic per-partition size
/// spread, a fixed directional model bias per partition (0.72× under /
/// 1.45× over, alternating), and a ±5 % per-step drift the offline
/// model never sees. The adaptive predictor can learn the bias exactly
/// and cover the drift with its error band; the static policy cannot.
fn synth_step(nranks: usize, nfields: usize, step: usize) -> Vec<Vec<PartitionProfile>> {
    let n_points: usize = 1 << 22; // 4 Mi points = 16 MiB raw
    let ratio = 16.0;
    let tm = ThroughputModel::paper_reference();
    (0..nranks)
        .map(|r| {
            (0..nfields)
                .map(|f| {
                    let h = ((r * 31 + f * 17) % 13) as f64 / 13.0;
                    let spread = 0.6 * (1.67f64 / 0.6).powf(h);
                    let drift =
                        1.0 + 0.05 * (2.0 * (((step * 7 + r * 3 + f) % 11) as f64 / 10.0) - 1.0);
                    let raw = (n_points * 4) as u64;
                    let base = raw as f64 / ratio * spread;
                    let actual = (base * drift) as u64;
                    let bias = if (r + f) % 2 == 0 { 0.72 } else { 1.45 };
                    let pred = (base * bias) as u64;
                    let bits = actual as f64 * 8.0 / n_points as f64;
                    PartitionProfile {
                        n_points,
                        raw_bytes: raw,
                        pred_bytes: pred,
                        pred_ratio: raw as f64 / pred.max(1) as f64,
                        pred_comp_time: tm.compression_time(raw as f64, bits),
                        pred_write_time: pred as f64 / 100e6,
                        actual_bytes: actual,
                        comp_time: tm.compression_time(raw as f64, bits),
                    }
                })
                .collect()
        })
        .collect()
}

/// Run one configuration `reps` times; the per-step stats are
/// deterministic, so keep the first report and take the minimum
/// planner wall-clock across repetitions to suppress timer noise.
fn run_config(
    mode: AdaptMode,
    reservation: ReservationTopology,
    steps: &[Vec<Vec<PartitionProfile>>],
    reps: usize,
) -> StreamSimReport {
    let cfg = StreamSimConfig {
        params: SimParams::new(pfsim::BandwidthModel::summit()),
        mode,
        reservation,
        steps: steps.len(),
        reorder: false,
    };
    let mut best: Option<StreamSimReport> = None;
    for _ in 0..reps.max(1) {
        let r = simulate_stream(&cfg, |s| &steps[s]);
        best = Some(match best.take() {
            Some(mut b) => {
                assert_eq!(b.report, r.report, "simulated stream must be deterministic");
                b.planner_seconds = b.planner_seconds.min(r.planner_seconds);
                b
            }
            None => r,
        });
    }
    best.expect("reps >= 1")
}

/// Bytes one rank moves in one step's reservation collective: the
/// step record carries the sum over ranks.
fn wire_bytes_per_rank(c: &StreamSimReport, nranks: usize) -> u64 {
    let step = c.report.steps.last().expect("at least one step");
    step.result.reservation_wire_bytes / nranks as u64
}

fn config_json(c: &StreamSimReport, nranks: usize) -> Json {
    let r = &c.report;
    obj([
        ("mode", Json::Str(r.mode.clone())),
        ("topology", Json::Str(c.reservation.clone())),
        ("planner_secs", Json::Num(c.planner_seconds)),
        (
            "collective_bytes_per_rank",
            Json::Num(wire_bytes_per_rank(c, nranks) as f64),
        ),
        ("file_bytes", Json::Num(r.total_file_bytes() as f64)),
        (
            "compressed_bytes",
            Json::Num(r.total_compressed_bytes() as f64),
        ),
        ("waste_bytes", Json::Num(r.total_waste() as f64)),
        ("overflow_bytes", Json::Num(r.total_overflow_bytes() as f64)),
        ("overflow_partitions", Json::Num(r.total_overflows() as f64)),
        (
            "mean_step_secs",
            Json::Num(r.total_time() / r.steps.len().max(1) as f64),
        ),
        (
            "final_rel_err",
            Json::Num(r.steps.last().map_or(0.0, |s| s.mean_rel_err)),
        ),
    ])
}

fn main() {
    let ranks_list = env_ranks_list();
    let steps = env_count("BENCH_STEPS", 12);
    let nfields = env_count("BENCH_FIELDS", 6);
    let reps = env_count("BENCH_REPS", 3);

    let mut sweeps = Vec::new();
    // (ranks, sharded planner secs, sharded wire bytes) per sweep, for
    // the cross-sweep sub-linearity assertions.
    let mut scaling = Vec::new();

    for &nranks in &ranks_list {
        let gs = ReservationTopology::Sharded { group_size: 0 }
            .effective_group_size(nranks)
            .expect("sharded topology has a group size");
        println!("\n=== {nranks} ranks × {nfields} fields, {steps} steps (groups of {gs}) ===");
        let data: Vec<Vec<Vec<PartitionProfile>>> =
            (0..steps).map(|s| synth_step(nranks, nfields, s)).collect();

        let sharded = ReservationTopology::Sharded { group_size: 0 };
        let runs = [
            run_config(AdaptMode::Static, ReservationTopology::Flat, &data, reps),
            run_config(AdaptMode::Static, sharded, &data, reps),
            run_config(
                AdaptMode::Adaptive(OnlineConfig::default()),
                sharded,
                &data,
                reps,
            ),
        ];

        // 1. Layout invariance: the sharded collective must reproduce
        // the flat stream byte for byte, step for step. (Simulated
        // times legitimately differ — the two-level collective has a
        // different latency — so compare the byte-level fields only.)
        for (a, b) in runs[0].report.steps.iter().zip(&runs[1].report.steps) {
            let bytes = |s: &predwrite::StepMetrics| {
                (
                    s.result.file_bytes,
                    s.result.compressed_bytes,
                    s.waste_bytes,
                    s.result.overflow_bytes,
                    s.result.n_overflow,
                )
            };
            assert_eq!(
                bytes(a),
                bytes(b),
                "{nranks} ranks step {}: sharded stream diverged from flat",
                a.step
            );
        }

        let configs: Vec<Json> = runs.iter().map(|c| config_json(c, nranks)).collect();
        configs.iter().for_each(|c| println!("{c}"));

        // 3b. At scale the flat planner materializes the full
        // O(ranks·fields) matrix; the sharded path touches only its
        // group and the per-group totals.
        if nranks >= 512 {
            assert!(
                runs[1].planner_seconds < runs[0].planner_seconds,
                "{nranks} ranks: sharded planner {}s not below flat {}s",
                runs[1].planner_seconds,
                runs[0].planner_seconds
            );
        }

        // 4. Adaptive beats static on both space metrics at 512+.
        if nranks >= 512 {
            let (s, a) = (&runs[1].report, &runs[2].report);
            assert!(
                a.total_waste() < s.total_waste(),
                "{nranks} ranks: adaptive waste {} not below static {}",
                a.total_waste(),
                s.total_waste()
            );
            assert!(
                a.total_overflow_bytes() < s.total_overflow_bytes(),
                "{nranks} ranks: adaptive overflow {} not below static {}",
                a.total_overflow_bytes(),
                s.total_overflow_bytes()
            );
            assert!(
                a.total_overflows() < s.total_overflows(),
                "{nranks} ranks: adaptive overflow events {} not below static {}",
                a.total_overflows(),
                s.total_overflows()
            );
        }

        scaling.push((
            nranks,
            runs[1].planner_seconds,
            wire_bytes_per_rank(&runs[1], nranks),
        ));

        sweeps.push(obj([
            ("ranks", Json::Num(nranks as f64)),
            ("group_size", Json::Num(gs as f64)),
            ("configs", Json::Arr(configs)),
        ]));
    }

    // 2 + 3a. Sub-linear growth across the sweep: compare the smallest
    // and largest rank counts when they are at least 4× apart.
    let (rmin, pmin, wmin) = scaling[0];
    let (rmax, pmax, wmax) = *scaling.last().expect("at least one sweep");
    if rmax >= rmin * 4 {
        let rank_ratio = rmax as f64 / rmin as f64;
        let wire_ratio = wmax as f64 / wmin as f64;
        assert!(
            wire_ratio < rank_ratio * 0.75,
            "collective bytes grew {wire_ratio:.1}× over a {rank_ratio:.0}× rank increase"
        );
        let planner_ratio = pmax / pmin.max(1e-9);
        assert!(
            planner_ratio < rank_ratio * 0.75,
            "planner wall-clock grew {planner_ratio:.1}× over a {rank_ratio:.0}× rank increase"
        );
        println!(
            "\nsub-linear scaling {rmin}→{rmax} ranks: wire {wire_ratio:.1}×, \
             planner {planner_ratio:.1}× (rank ratio {rank_ratio:.0}×)"
        );
    }

    write_artifact(
        "BENCH_scale.json",
        obj([
            ("steps", Json::Num(steps as f64)),
            ("fields", Json::Num(nfields as f64)),
            ("sweeps", Json::Arr(sweeps)),
        ]),
    );
}
