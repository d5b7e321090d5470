//! Crash-matrix and end-to-end fault-recovery tests.
//!
//! Pins the durability contract: a checkpoint stream killed after any
//! phase of a step — container header only, chunks partially written,
//! or completed but missing its predictor sidecar — is recovered by
//! `resume_timeline` on every workload. Damaged containers are always
//! detected by checksum (never silently decoded), quarantined, and
//! rewritten; every step of the recovered stream decodes within its
//! error bound; and the resumed predictor's reservations reconverge
//! with the uninterrupted run within two steps.

use bench::partition_stream_step;
use repro_suite::pfsim::{Fault, FaultFs, FaultPlan};
use repro_suite::predwrite::{verify_file, RealError};
use repro_suite::ratiomodel::{OnlineConfig, OnlinePredictor};
use repro_suite::timeline::{
    resume_timeline, run_timeline, save_sidecar, AdaptMode, StepFaults, TimelineConfig,
};
use repro_suite::workloads::SnapshotStream;
use std::path::PathBuf;
use std::sync::Arc;
use testutil::TempDir;

fn streams() -> [(SnapshotStream, usize); 3] {
    [
        (SnapshotStream::nyx(16), 8),
        (SnapshotStream::vpic(4096), 8),
        (SnapshotStream::rtm(16), 8),
    ]
}

fn config(stream: &SnapshotStream, steps: usize, dir: PathBuf) -> TimelineConfig {
    let nfields = stream.snapshot(0).fields.len();
    let mut cfg = TimelineConfig::quick(
        steps,
        nfields,
        AdaptMode::Adaptive(OnlineConfig::default()),
        dir,
    );
    cfg.keep_files = true; // recovery needs the step history on disk
    cfg
}

/// How the simulated crash interrupts step `k`.
enum CrashPhase {
    /// Crash on the very first chunk write: the container holds only
    /// its (zeroed) header.
    HeaderOnly,
    /// Crash a few chunk writes in: a partially written container.
    ChunksPartial,
    /// The step completed but its predictor sidecar never landed.
    SidecarMissing,
}

impl CrashPhase {
    fn label(&self) -> &'static str {
        match self {
            CrashPhase::HeaderOnly => "header-only",
            CrashPhase::ChunksPartial => "chunks-partial",
            CrashPhase::SidecarMissing => "sidecar-missing",
        }
    }
}

/// Crash a stream at phase `phase` of step `k`, then resume it and
/// check the recovered stream end to end.
fn crash_and_recover(stream: &SnapshotStream, nranks: usize, k: usize, phase: CrashPhase) {
    let steps = k + 3;
    let dir = TempDir::new(&format!("{}-{}", stream.label(), phase.label()));
    let mut cfg = config(stream, steps, dir.path().to_path_buf());
    let data = |s: usize| partition_stream_step(stream, s, nranks);

    match phase {
        CrashPhase::HeaderOnly | CrashPhase::ChunksPartial => {
            let torn_at = match phase {
                CrashPhase::HeaderOnly => 0,
                _ => 5,
            };
            let faults =
                FaultFs::new(FaultPlan::new().on_write(torn_at, Fault::TornWrite { keep: 100 }));
            cfg.step_faults = Some(StepFaults::only_step(k, Arc::clone(&faults)));
            let err = run_timeline(&cfg, data).unwrap_err();
            assert!(faults.crashed(), "the schedule must have fired");
            let msg = format!("{err}");
            assert!(
                msg.contains("crash") || msg.contains("torn") || msg.contains("write"),
                "crash must surface typed, got: {msg}"
            );
            // The torn container is on disk; its superblock was never
            // finalized, so it must scrub as torn, not parse as valid.
            let report = repro_suite::h5lite::scrub::scrub(cfg.step_path(k)).unwrap();
            assert_ne!(
                report.container,
                repro_suite::h5lite::scrub::ContainerState::Ok,
                "{}: torn step {k} must not scrub clean",
                stream.label()
            );
        }
        CrashPhase::SidecarMissing => {
            // Run through step k, then lose the sidecar "in the crash".
            let mut head = cfg.clone();
            head.steps = k + 1;
            run_timeline(&head, data).unwrap();
            std::fs::remove_file(cfg.sidecar_path(k)).unwrap();
        }
    }

    cfg.step_faults = None;
    let res = resume_timeline(&cfg, data)
        .unwrap_or_else(|e| panic!("{} {}: resume: {e}", stream.label(), phase.label()));

    match phase {
        CrashPhase::HeaderOnly | CrashPhase::ChunksPartial => {
            assert_eq!(res.resume_from, k, "{}", phase.label());
            assert_eq!(res.surviving, (0..k).collect::<Vec<_>>());
            assert_eq!(res.quarantined.len(), 1);
            if k > 0 {
                assert_eq!(res.sidecar_step, Some(k - 1), "newest sidecar must load");
            }
        }
        CrashPhase::SidecarMissing => {
            // Step k's container is intact; only its sidecar is gone,
            // so the stream resumes at k + 1 from the k − 1 sidecar.
            assert_eq!(res.resume_from, k + 1);
            assert!(res.quarantined.is_empty());
            assert_eq!(res.sidecar_step, Some(k - 1));
        }
    }
    assert_eq!(
        res.report.steps.first().map(|s| s.step),
        Some(res.resume_from)
    );
    assert_eq!(res.report.steps.last().map(|s| s.step), Some(steps - 1));

    // Every step of the recovered stream — survivors and rewritten
    // tail alike — decodes within its error bound.
    for s in 0..steps {
        let d = data(s);
        let rep = verify_file(&cfg.step_path(s), &d, Some(&cfg.configs), 1)
            .unwrap_or_else(|e| panic!("{} step {s}: {e}", phase.label()));
        assert!(rep.ok(), "{} step {s} out of bound", phase.label());
    }
}

#[test]
fn crash_matrix_header_only() {
    for (stream, nranks) in streams() {
        crash_and_recover(&stream, nranks, 3, CrashPhase::HeaderOnly);
    }
}

#[test]
fn crash_matrix_chunks_partial() {
    for (stream, nranks) in streams() {
        crash_and_recover(&stream, nranks, 3, CrashPhase::ChunksPartial);
    }
}

#[test]
fn crash_matrix_sidecar_missing() {
    for (stream, nranks) in streams() {
        crash_and_recover(&stream, nranks, 3, CrashPhase::SidecarMissing);
    }
}

#[test]
fn downgraded_superblock_version_is_quarantined_not_trusted() {
    // There is one container format. A step whose superblock claims
    // version 1 — the header that used to mean "no checksums, read
    // unverified" — is a typed open error and damage to recovery,
    // never a surviving step.
    let stream = SnapshotStream::nyx(16);
    let nranks = 8;
    let steps = 3;
    let dir = TempDir::new("sb-downgrade");
    let cfg = config(&stream, steps, dir.path().to_path_buf());
    let data = |s: usize| partition_stream_step(&stream, s, nranks);
    run_timeline(&cfg, data).unwrap();

    let mut bytes = std::fs::read(cfg.step_path(1)).unwrap();
    assert_eq!(bytes[4], 2, "superblock byte 4 is the format version");
    bytes[4] = 1;
    std::fs::write(cfg.step_path(1), &bytes).unwrap();
    assert!(matches!(
        repro_suite::h5lite::H5Reader::open(cfg.step_path(1)),
        Err(repro_suite::h5lite::H5Error::UnsupportedVersion(1))
    ));

    let res = resume_timeline(&cfg, data).unwrap();
    assert_eq!(res.surviving, vec![0]);
    assert_eq!(res.resume_from, 1);
    assert_eq!(res.quarantined.len(), 1);
    for s in 0..steps {
        let rep = verify_file(&cfg.step_path(s), &data(s), Some(&cfg.configs), 1).unwrap();
        assert!(rep.ok(), "step {s} out of bound after recovery");
    }
}

#[test]
fn sidecar_of_another_stream_is_a_shape_error() {
    // A sidecar that is intact but tracks another number of cells (a
    // different stream's, copied into place) cannot seed this stream's
    // predictor: the resumed tail refuses to run, with the typed error.
    let stream = SnapshotStream::nyx(16);
    let nranks = 8;
    let dir = TempDir::new("sidecar-shape");
    let mut cfg = config(&stream, 1, dir.path().to_path_buf());
    let data = |s: usize| partition_stream_step(&stream, s, nranks);
    run_timeline(&cfg, data).unwrap();

    let foreign = OnlinePredictor::new(3, OnlineConfig::default());
    save_sidecar(&cfg.sidecar_path(0), 3, 1, &foreign).unwrap();
    cfg.steps = 2;
    match resume_timeline(&cfg, data) {
        Err(RealError::Shape(m)) => assert!(m.contains("tracks 3 cells"), "{m}"),
        other => panic!("expected a shape error, got {other:?}"),
    }
}

/// A sidecar as the previous predictor state (version 4) framed it,
/// warm, for an `nranks × nfields` stream: config, then per cell its
/// bias correction, error EWMA, last observed size and observation
/// count — and no rank bands.
fn v4_sidecar(nranks: usize, nfields: usize) -> Vec<u8> {
    use repro_suite::szlite::stream::{put_f64, put_u32, put_varint};
    let mut payload = vec![4];
    put_f64(&mut payload, 0.5);
    put_varint(&mut payload, 2);
    put_f64(&mut payload, 4.0);
    put_f64(&mut payload, 1.05);
    put_varint(&mut payload, (nranks * nfields) as u64);
    for _ in 0..nranks * nfields {
        put_f64(&mut payload, 1.1);
        put_f64(&mut payload, 0.01);
        put_varint(&mut payload, 40_000);
        put_varint(&mut payload, 5);
    }
    let mut out = b"TLSC".to_vec();
    out.push(1);
    put_varint(&mut out, nranks as u64);
    put_varint(&mut out, nfields as u64);
    put_varint(&mut out, payload.len() as u64);
    out.extend_from_slice(&payload);
    let crc = repro_suite::h5lite::crc32c(&out);
    put_u32(&mut out, crc);
    out
}

#[test]
fn a_sidecar_of_the_previous_state_version_resumes_cold() {
    // Version 4 tracked cells only: a stream resumed from it would pool
    // without its ranks' history. Its framing is intact, so the
    // payload's version alone refuses it, and the resumed step reserves
    // what a fresh stream's first step reserves.
    let stream = SnapshotStream::nyx(16);
    let nranks = 4;
    let data = |s: usize| partition_stream_step(&stream, s, nranks);
    let dir = TempDir::new("sidecar-v4");
    let mut cfg = config(&stream, 2, dir.path().to_path_buf());
    run_timeline(&cfg, data).unwrap();
    for step in 0..2 {
        let forged = v4_sidecar(nranks, cfg.configs.len());
        std::fs::write(cfg.sidecar_path(step), forged).unwrap();
    }
    cfg.steps = 3;
    let res = resume_timeline(&cfg, data).unwrap();
    assert_eq!((res.resume_from, res.sidecar_step), (2, None));

    let fresh_dir = TempDir::new("sidecar-v4-fresh");
    let fresh = config(&stream, 1, fresh_dir.path().to_path_buf());
    let first = run_timeline(&fresh, |_| data(2)).unwrap();
    assert_eq!(
        res.report.steps[0].reserved_bytes,
        first.steps[0].reserved_bytes
    );
}

/// The seeded schedule on one workload: a transient EIO (retried) at
/// step 1, a silent bit flip (caught by checksum) at step 2 and a torn
/// write at step 4. Recovery must quarantine exactly the damaged steps,
/// every corrupted chunk must be *detected* rather than silently
/// decoded, and the resumed predictor must reserve like the
/// uninterrupted run within two steps.
fn fault_schedule_and_recover(stream: &SnapshotStream, nranks: usize) {
    let name = stream.label();
    let steps = 8;
    let k = 4;
    let data = |s: usize| partition_stream_step(stream, s, nranks);

    // Reference: the same stream, never interrupted.
    let ref_dir = TempDir::new(&format!("seeded-ref-{name}"));
    let ref_cfg = config(stream, steps, ref_dir.path().to_path_buf());
    let reference = run_timeline(&ref_cfg, data).unwrap();

    let dir = TempDir::new(&format!("seeded-faulty-{name}"));
    let mut cfg = config(stream, steps, dir.path().to_path_buf());

    // Step 1: a transient EIO, absorbed by bounded retry.
    let transient = FaultFs::new(FaultPlan::new().on_write(3, Fault::Transient));
    // Step 2: a silent bit flip in some chunk payload.
    let flip = FaultFs::new(FaultPlan::new().on_write(
        2,
        Fault::BitFlip {
            byte: 97,
            mask: 0x20,
        },
    ));
    // Step k: torn write — the crash.
    let torn = FaultFs::new(FaultPlan::new().on_write(4, Fault::TornWrite { keep: 256 }));
    let t = Arc::clone(&transient);
    let f = Arc::clone(&flip);
    let c = Arc::clone(&torn);
    cfg.step_faults = Some(StepFaults::new(move |s| match s {
        1 => Some(Arc::clone(&t)),
        2 => Some(Arc::clone(&f)),
        s if s == k => Some(Arc::clone(&c)),
        _ => None,
    }));
    // The bit-flipped step must NOT fail the faulty run (the flip is
    // silent), and the read-back verifier must not be fooled either —
    // it decodes what actually landed. Disable in-run verify so the
    // corruption stays latent until recovery, like real media decay.
    cfg.verify = false;
    let err = run_timeline(&cfg, data).unwrap_err();
    assert!(format!("{err}").contains("crash"), "{name}: {err}");
    assert!(torn.crashed(), "{name}");
    assert_eq!(
        transient.stats().transient,
        1,
        "{name}: transient must fire"
    );
    assert!(transient.stats().retries >= 1, "{name}: and be retried");
    assert_eq!(flip.stats().bit_flips, 1, "{name}: bit flip must fire");

    // The flipped chunk is detectable by scrub — and never readable.
    let scrubbed = repro_suite::h5lite::scrub::scrub(cfg.step_path(2)).unwrap();
    assert_eq!(scrubbed.n_corrupt(), 1, "{name}: exactly one corrupt chunk");
    let reader = repro_suite::h5lite::H5Reader::open(cfg.step_path(2)).unwrap();
    let bad = &scrubbed.damaged().next().unwrap().dataset;
    match reader.read_raw(bad) {
        Err(repro_suite::h5lite::H5Error::ChecksumMismatch { .. }) => {}
        other => panic!("{name}: corrupt chunk must fail the checksum, got {other:?}"),
    }
    drop(reader);

    // Recover (verification back on for the resumed stream).
    cfg.step_faults = None;
    cfg.verify = true;
    let res = resume_timeline(&cfg, data).unwrap();
    // Step 2 (flipped) and step k (torn) are both damaged; recovery
    // restarts from the earliest, step 2.
    assert_eq!(res.resume_from, 2, "{name}");
    assert_eq!(res.quarantined.len(), 2, "{name}");
    assert_eq!(res.surviving, vec![0, 1], "{name}");
    assert_eq!(res.sidecar_step, Some(1), "{name}");

    // Reservations reconverge immediately: the resumed predictor
    // carries the same history the uninterrupted run had at step 2, so
    // within ≤ 2 steps the reserved bytes match the reference exactly.
    for s in res
        .report
        .steps
        .iter()
        .filter(|s| s.step >= res.resume_from + 2)
    {
        let r = &reference.steps[s.step];
        assert_eq!(
            s.reserved_bytes, r.reserved_bytes,
            "{name} step {}: resumed run must reserve like the uninterrupted run",
            s.step
        );
    }

    // And the recovered stream decodes within bound end to end.
    for s in 0..steps {
        let d = data(s);
        let rep = verify_file(&cfg.step_path(s), &d, Some(&cfg.configs), 1).unwrap();
        assert!(rep.ok(), "{name} step {s} out of bound after recovery");
    }
}

#[test]
fn seeded_fault_schedule_recovers_and_reconverges() {
    for (stream, nranks) in streams() {
        fault_schedule_and_recover(&stream, nranks);
    }
}
