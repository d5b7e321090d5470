//! End-to-end tests of the timestep-streaming checkpoint engine.
//!
//! Pins the acceptance contract of the timeline subsystem: a ≥ 20-step
//! streaming run with the online predictor decodes every timestep
//! within its error bound on all three workloads; the adaptive policy
//! wastes less cumulative extra space than the static policy at
//! equal-or-fewer overflow events; and per-step output is
//! deterministic — byte-identical files — at 1/2/8 compression
//! workers; and a step's flight record holds that step's figures only,
//! whatever else runs in the process.

use bench::partition_stream_step;
use repro_suite::obs;
use repro_suite::pfsim::{Fault, FaultFs, FaultPlan};
use repro_suite::predwrite::RankFieldData;
use repro_suite::ratiomodel::OnlineConfig;
use repro_suite::timeline::{run_timeline, AdaptMode, StepFaults, TimelineConfig, TimelineReport};
use repro_suite::workloads::SnapshotStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
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
            AdaptMode::Adaptive(OnlineConfig),
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
    // The headline property (also the `timeline` claim of `repro`, on
    // all three workloads at larger sizes): with identical per-step data,
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
    let adap = run(AdaptMode::Adaptive(OnlineConfig), "adaptive");
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
            AdaptMode::Adaptive(OnlineConfig),
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
    let adap = run(AdaptMode::Adaptive(OnlineConfig), "adaptive");
    let static_err = stat.steps.last().unwrap().mean_rel_err;
    let adaptive_err = adap.steps.last().unwrap().mean_rel_err;
    assert!(
        adaptive_err < static_err,
        "adaptive err {adaptive_err:.4} must undercut static {static_err:.4}"
    );
}

#[test]
fn flight_records_of_streams_sharing_a_process_do_not_mix() {
    // A healthy stream beside a neighbour that keeps writing one-step
    // streams through an injected transient EIO (one retry each): the
    // healthy stream's records must show no fault and no deeper write
    // queue than one rank can have, the neighbour's must show its own.
    let stream = SnapshotStream::nyx(16);
    let (nranks, steps) = (2, 6);
    let data: Vec<Vec<Vec<RankFieldData>>> = (0..steps)
        .map(|s| partition_stream_step(&stream, s, nranks))
        .collect();
    let nfields = data[0][0].len();
    let kept = |steps: usize, dir: &TempDir| {
        let mut cfg =
            TimelineConfig::quick(steps, nfields, AdaptMode::Static, dir.path().to_path_buf());
        cfg.keep_files = true; // flight records live beside the containers
        cfg
    };
    let flight = |cfg: &TimelineConfig, step: usize| {
        let path = obs::flight_path(&cfg.step_path(step));
        let scan = obs::read_flight(&path).unwrap_or_else(|e| panic!("read {path:?}: {e}"));
        assert!(scan.errors.is_empty(), "{:?}", scan.errors);
        scan.records
            .into_iter()
            .next()
            .expect("one record per step")
    };

    let healthy_dir = TempDir::new("flight-healthy");
    let healthy = kept(steps, &healthy_dir);
    let stop = AtomicBool::new(false);
    let (faulted_tx, faulted_rx) = mpsc::channel();
    std::thread::scope(|s| {
        let (data, stop, kept, flight) = (&data, &stop, &kept, &flight);
        let neighbour = s.spawn(move || {
            let dir = TempDir::new("flight-neighbour");
            let mut cfg = kept(1, &dir);
            while !stop.load(Ordering::SeqCst) {
                let faults = FaultFs::new(FaultPlan::new().on_write(1, Fault::Transient));
                cfg.step_faults = Some(StepFaults::only_step(0, faults));
                run_timeline(&cfg, |_| &data[0]).expect("a transient fault is retried");
                let rec = flight(&cfg, 0);
                assert!(rec.retries >= 1 && rec.transient_faults >= 1, "{rec:?}");
                assert_eq!(rec.escalations, 0, "{rec:?}");
                // The first fault has been injected and counted: the
                // healthy stream may start.
                let _ = faulted_tx.send(());
            }
        });
        faulted_rx
            .recv()
            .expect("the neighbour died before its first run");
        // No panic between here and the stop flag, or the neighbour
        // would loop forever.
        let report = run_timeline(&healthy, |s| &data[s]);
        stop.store(true, Ordering::SeqCst);
        neighbour.join().expect("neighbour panicked");
        report.expect("healthy stream");
    });

    for step in 0..steps {
        let rec = flight(&healthy, step);
        assert_eq!(
            (rec.retries, rec.transient_faults, rec.escalations),
            (0, 0, 0),
            "step {step} recorded a neighbour's faults: {rec:?}"
        );
        assert!(
            (1..=nfields as u64).contains(&rec.queue_depth_max),
            "step {step}: queue depth {} with {nfields} fields per rank",
            rec.queue_depth_max
        );
    }
}
