//! `bench_scale` — scale-out streaming sweeps over the discrete-event
//! simulator: ranks ∈ {8, 64, 512, 2048, 4096} × {static, adaptive}.
//!
//! Each sweep streams a synthetic checkpoint sequence whose offline
//! model is systematically wrong in both directions (half the
//! partitions under-predicted, half over-predicted, plus a small
//! per-step drift), so the static policy pays persistent waste *and*
//! persistent overflow while the adaptive predictor learns the biases
//! away. Every rank count runs the static and the adaptive stream, and
//! the binary asserts that at 512+ ranks the adaptive mode wastes less
//! reserved space and redirects fewer overflow bytes than static.
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
//! (default 6), `BENCH_OUT`.

use bench::artifact::{env_count, env_or, obj, write_artifact};
use obs::Json;
use predwrite::{
    simulate_stream, AdaptMode, PartitionProfile, ReservationTopology, SimParams, StreamSimConfig,
    TimelineReport,
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

fn run_config(mode: AdaptMode, steps: &[Vec<Vec<PartitionProfile>>]) -> TimelineReport {
    let cfg = StreamSimConfig {
        params: SimParams::new(pfsim::BandwidthModel::summit()),
        mode,
        reservation: ReservationTopology::Flat,
        steps: steps.len(),
        reorder: false,
    };
    simulate_stream(&cfg, |s| &steps[s])
}

fn config_json(r: &TimelineReport) -> Json {
    obj([
        ("mode", Json::Str(r.mode.clone())),
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

    let mut sweeps = Vec::new();
    for &nranks in &ranks_list {
        println!("\n=== {nranks} ranks × {nfields} fields, {steps} steps ===");
        let data: Vec<Vec<Vec<PartitionProfile>>> =
            (0..steps).map(|s| synth_step(nranks, nfields, s)).collect();

        let s = run_config(AdaptMode::Static, &data);
        let a = run_config(AdaptMode::Adaptive(OnlineConfig::default()), &data);
        let configs = vec![config_json(&s), config_json(&a)];
        configs.iter().for_each(|c| println!("{c}"));

        // Adaptive beats static on both space metrics at 512+.
        if nranks >= 512 {
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

        sweeps.push(obj([
            ("ranks", Json::Num(nranks as f64)),
            ("configs", Json::Arr(configs)),
        ]));
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
