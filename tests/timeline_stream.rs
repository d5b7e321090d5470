//! End-to-end tests of the timestep-streaming checkpoint engine.
//!
//! Pins the acceptance contract of the timeline subsystem: a ≥ 20-step
//! streaming run with the online predictor decodes every timestep
//! within its error bound on all three workloads; the adaptive policy
//! wastes less cumulative extra space than the static policy at
//! equal-or-fewer overflow events; and per-step output is
//! deterministic — byte-identical files — at 1/2/8 compression
//! workers.

use bench::partition_stream_step;
use repro_suite::predwrite::RankFieldData;
use repro_suite::ratiomodel::OnlineConfig;
use repro_suite::timeline::{run_timeline, AdaptMode, TimelineConfig, TimelineReport};
use repro_suite::workloads::SnapshotStream;
use testutil::TempDir;

fn small_streams() -> [(SnapshotStream, usize); 3] {
    // Small grids keep the 20-step debug-mode runs quick; 8 ranks give
    // 512-point partitions.
    [
        (SnapshotStream::nyx(16), 8),
        (SnapshotStream::vpic(4096), 8),
        (SnapshotStream::rtm(16), 8),
    ]
}

#[test]
fn adaptive_stream_decodes_every_step_on_all_workloads() {
    // ≥ 20 steps, verify = true: run_real fails the step if any element
    // of any field exceeds its resolved bound, so completing the stream
    // is the assertion. Overflowed partitions (the model under-predicts
    // small noisy partitions) must decode too.
    for (stream, nranks) in small_streams() {
        let dir = TempDir::new(&format!("verify-{}", stream.label()));
        let nfields = stream.snapshot(0).fields.len();
        let cfg = TimelineConfig::quick(
            20,
            nfields,
            AdaptMode::Adaptive(OnlineConfig::default()),
            dir.path().to_path_buf(),
        );
        assert!(cfg.verify, "quick config must verify every step");
        let report = run_timeline(&cfg, |s| partition_stream_step(&stream, s, nranks))
            .unwrap_or_else(|e| panic!("{}: {e}", stream.label()));
        assert_eq!(report.steps.len(), 20);
        assert!(
            report.steps.iter().all(|s| s.result.compressed_bytes > 0),
            "{}: every step must write data",
            stream.label()
        );
    }
}

#[test]
fn adaptive_beats_static_on_waste_at_no_more_overflows() {
    // The headline property (also asserted by bench_timeline on all
    // three workloads at larger sizes): with identical per-step data,
    // the adaptive policy ends the stream having wasted less reserved
    // space, without paying for it in overflow events.
    let stream = SnapshotStream::nyx(16);
    let nranks = 8;
    let steps = 20;
    let data: Vec<Vec<Vec<RankFieldData>>> = (0..steps)
        .map(|s| partition_stream_step(&stream, s, nranks))
        .collect();
    let run = |mode: AdaptMode, tag: &str| -> TimelineReport {
        let dir = TempDir::new(&format!("compare-{tag}"));
        let mut cfg = TimelineConfig::quick(steps, 6, mode, dir.path().to_path_buf());
        cfg.verify = false; // covered by the decode test above
        run_timeline(&cfg, |s| &data[s]).unwrap()
    };
    let stat = run(AdaptMode::Static, "static");
    let adap = run(AdaptMode::Adaptive(OnlineConfig::default()), "adaptive");
    assert!(
        adap.total_waste() < stat.total_waste(),
        "adaptive waste {} must be below static {}",
        adap.total_waste(),
        stat.total_waste()
    );
    assert!(
        adap.total_overflows() <= stat.total_overflows(),
        "adaptive overflows {} must not exceed static {}",
        adap.total_overflows(),
        stat.total_overflows()
    );
}

#[test]
fn stream_is_deterministic_across_worker_counts() {
    // Per-step determinism at 1/2/8 workers: the parallel compression
    // pipeline keeps files byte-identical, and the online adaptation
    // only consumes observed sizes (identical across worker counts),
    // so whole streams must replay byte-for-byte.
    let stream = SnapshotStream::nyx(16);
    let nranks = 8;
    let steps = 5;
    let data: Vec<Vec<Vec<RankFieldData>>> = (0..steps)
        .map(|s| partition_stream_step(&stream, s, nranks))
        .collect();

    let mut runs = Vec::new();
    for workers in [1usize, 2, 8] {
        let dir = TempDir::new(&format!("det-w{workers}"));
        let mut cfg = TimelineConfig::quick(
            steps,
            6,
            AdaptMode::Adaptive(OnlineConfig::default()),
            dir.path().to_path_buf(),
        );
        cfg.sz_threads = workers;
        cfg.verify = false;
        cfg.keep_files = true;
        let report = run_timeline(&cfg, |s| &data[s]).unwrap();
        let files: Vec<Vec<u8>> = (0..steps)
            .map(|s| std::fs::read(cfg.step_path(s)).unwrap())
            .collect();
        runs.push((workers, report, files, dir));
    }

    let (_, base_report, base_files, _) = &runs[0];
    for (workers, report, files, _) in &runs[1..] {
        for s in 0..steps {
            assert_eq!(
                &files[s], &base_files[s],
                "step {s}: file at {workers} workers diverged from serial"
            );
            assert_eq!(
                report.steps[s].waste_bytes, base_report.steps[s].waste_bytes,
                "step {s}: waste diverged at {workers} workers"
            );
            assert_eq!(
                report.steps[s].result.n_overflow, base_report.steps[s].result.n_overflow,
                "step {s}: overflow count diverged at {workers} workers"
            );
        }
    }
}

#[test]
fn adaptive_prediction_error_shrinks_with_history() {
    // The online blend exists to sharpen prediction: by the end of the
    // stream the EWMA relative error must sit well below the static
    // model's per-step error on the same data.
    let stream = SnapshotStream::rtm(16);
    let nranks = 8;
    let steps = 12;
    let data: Vec<Vec<Vec<RankFieldData>>> = (0..steps)
        .map(|s| partition_stream_step(&stream, s, nranks))
        .collect();
    let run = |mode: AdaptMode, tag: &str| -> TimelineReport {
        let dir = TempDir::new(&format!("err-{tag}"));
        let mut cfg = TimelineConfig::quick(steps, 1, mode, dir.path().to_path_buf());
        cfg.verify = false;
        run_timeline(&cfg, |s| &data[s]).unwrap()
    };
    let stat = run(AdaptMode::Static, "static");
    let adap = run(AdaptMode::Adaptive(OnlineConfig::default()), "adaptive");
    let static_err = stat.steps.last().unwrap().mean_rel_err;
    let adaptive_err = adap.steps.last().unwrap().mean_rel_err;
    assert!(
        adaptive_err < static_err,
        "adaptive err {adaptive_err:.4} must undercut static {static_err:.4}"
    );
}
