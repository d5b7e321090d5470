//! `bench_timeline` — static vs. online-adaptive checkpoint streaming.
//!
//! Streams ≥ 20 evolving checkpoints of each workload (Nyx, VPIC, RTM)
//! through the timeline engine twice: once with the static
//! offline-model configuration (the paper's single-shot setup replayed
//! per step) and once with the online-adaptive predictor
//! (per-partition EWMA bias correction + error-band headroom). For
//! each run it records total bytes written, cumulative extra-space
//! waste, overflow-redirection events and per-step wall time, then
//! asserts the adaptive policy wastes strictly less cumulative extra
//! space at equal-or-fewer overflow events.
//!
//! Writes machine-readable results to `BENCH_timeline.json` (override
//! with `BENCH_OUT`).
//!
//! ```text
//! cargo run -p bench --release --bin bench_timeline
//! BENCH_STEPS=40 BENCH_SIDE=48 cargo run -p bench --release --bin bench_timeline
//! ```
//!
//! Knobs: `BENCH_STEPS` (default 24), `BENCH_SIDE` (nyx/rtm cube side,
//! default 32), `BENCH_PARTICLES` (default 65536; any partition size
//! works — the ratio model samples small partitions in full, see
//! `szlite::sampling::MIN_SAMPLE_POINTS`), `BENCH_RANKS` (default 8),
//! `BENCH_OUT`.

use bench::artifact::{env_count, obj, write_artifact};
use bench::partition_stream_step;
use obs::Json;
use predwrite::RankFieldData;
use ratiomodel::OnlineConfig;
use timeline::{run_timeline, AdaptMode, TimelineConfig, TimelineReport};
use workloads::SnapshotStream;

fn run_mode(
    stream: &SnapshotStream,
    steps: usize,
    mode: AdaptMode,
    data: &[Vec<Vec<RankFieldData>>],
) -> TimelineReport {
    let nfields = data[0][0].len();
    let dir = std::env::temp_dir().join(format!(
        "bench-timeline-{}-{}-{}",
        std::process::id(),
        stream.label(),
        mode.label()
    ));
    let mut cfg = TimelineConfig::quick(steps, nfields, mode, dir.clone());
    cfg.verify = false; // timing comparison; the tests verify decodes
    let report = run_timeline(&cfg, |step| &data[step]).expect("timeline run failed");
    let _ = std::fs::remove_dir_all(&dir);
    report
}

fn mode_json(r: &TimelineReport) -> Json {
    let per_step = r.steps.iter().map(|s| {
        obj([
            ("step", Json::Num(s.step as f64)),
            ("secs", Json::Num(s.result.total_time)),
            ("waste_bytes", Json::Num(s.waste_bytes as f64)),
            ("overflows", Json::Num(s.result.n_overflow as f64)),
            ("rel_err", Json::Num(s.mean_rel_err)),
        ])
    });
    obj([
        ("mode", Json::Str(r.mode.clone())),
        ("total_secs", Json::Num(r.total_time())),
        ("file_bytes", Json::Num(r.total_file_bytes() as f64)),
        (
            "compressed_bytes",
            Json::Num(r.total_compressed_bytes() as f64),
        ),
        ("waste_bytes", Json::Num(r.total_waste() as f64)),
        ("overflows", Json::Num(r.total_overflows() as f64)),
        ("overflow_bytes", Json::Num(r.total_overflow_bytes() as f64)),
        ("per_step", Json::Arr(per_step.collect())),
    ])
}

fn main() {
    let steps = env_count("BENCH_STEPS", 24).max(20);
    let side = env_count("BENCH_SIDE", 32);
    let particles = env_count("BENCH_PARTICLES", 1 << 16);
    let nranks = env_count("BENCH_RANKS", 8);

    let streams = [
        SnapshotStream::nyx(side),
        SnapshotStream::vpic(particles),
        SnapshotStream::rtm(side),
    ];

    let mut workloads = Vec::new();
    for stream in &streams {
        println!(
            "\n=== {} ({} steps, {} ranks) ===",
            stream.label(),
            steps,
            nranks
        );
        // Generate every step once so both modes stream identical data.
        let data: Vec<Vec<Vec<RankFieldData>>> = (0..steps)
            .map(|s| partition_stream_step(stream, s, nranks))
            .collect();

        let stat = run_mode(stream, steps, AdaptMode::Static, &data);
        let adap = run_mode(
            stream,
            steps,
            AdaptMode::Adaptive(OnlineConfig::default()),
            &data,
        );

        assert!(
            adap.total_waste() < stat.total_waste(),
            "{}: adaptive waste {} not below static {}",
            stream.label(),
            adap.total_waste(),
            stat.total_waste()
        );
        assert!(
            adap.total_overflows() <= stat.total_overflows(),
            "{}: adaptive overflows {} exceed static {}",
            stream.label(),
            adap.total_overflows(),
            stat.total_overflows()
        );

        workloads.push(obj([
            ("workload", Json::Str(stream.label().into())),
            ("steps", Json::Num(steps as f64)),
            ("ranks", Json::Num(nranks as f64)),
            ("modes", Json::Arr(vec![mode_json(&stat), mode_json(&adap)])),
        ]));
    }

    write_artifact(
        "BENCH_timeline.json",
        obj([("workloads", Json::Arr(workloads))]),
    );
}
