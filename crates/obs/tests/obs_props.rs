//! Property and concurrency tests of the obs internals.
//!
//! 1. Per-thread span buffers interleave without loss: N threads each
//!    record K nested spans concurrently and every event survives the
//!    drain with consistent per-thread nesting.
//! 2. Random garbage prepended/appended to a valid flight-recorder
//!    file never panics the reader and never loses the valid record.

use proptest::prelude::*;

use obs::trace;

proptest! {
    #![proptest_config(ProptestConfig::with_cases_and_seed(64, 0x0B5E_2026) /* pinned: deterministic CI */)]

    #[test]
    fn flight_reader_survives_arbitrary_garbage_lines(
        garbage in proptest::collection::vec(proptest::collection::vec(0u64..=255, 0..60), 0..6),
        step in 0u64..10_000,
    ) {
        let rec = obs::StepFlight { step, host_parallelism: 1, ..Default::default() };
        let dir = std::env::temp_dir().join(format!("obs_props_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("garbage-{step}.obs.jsonl"));
        let mut body = Vec::new();
        for g in &garbage {
            // Strip newlines so each garbage blob stays one line.
            body.extend(
                g.iter()
                    .map(|&b| b as u8)
                    .filter(|&b| b != b'\n' && b != b'\r'),
            );
            body.push(b'\n');
        }
        body.extend(rec.to_json_line().as_bytes());
        body.push(b'\n');
        std::fs::write(&path, &body).unwrap();
        // Must not panic; the valid record must survive whatever the
        // garbage lines did. (Non-UTF-8 bytes surface as a file-level
        // Io error from read_to_string, which is also acceptable.)
        match obs::read_flight(&path) {
            Ok(scan) => {
                prop_assert_eq!(
                    scan.records.iter().filter(|r| r.step == step).count(),
                    1,
                    "valid record lost among {} errors",
                    scan.errors.len()
                );
            }
            Err(obs::FlightError::Io(_)) => {}
            Err(other) => prop_assert!(false, "unexpected error kind: {other}"),
        }
        // The directory goes with the file, or every run leaves one.
        std::fs::remove_dir_all(&dir).ok();
        prop_assert!(!dir.exists(), "{} left behind", dir.display());
    }
}

/// N threads × K nested span pairs recorded concurrently: nothing is
/// lost, thread ids stay distinct, and nesting depths are consistent
/// within each thread.
#[test]
fn concurrent_span_buffers_interleave_without_loss() {
    const THREADS: usize = 8;
    const SPANS: usize = 200;
    trace::set_enabled(true);
    // Flush anything a previous test in this binary left behind so the
    // counts below are exact.
    trace::drain();
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            s.spawn(|| {
                for i in 0..SPANS {
                    let _outer = trace::span_arg("prop.outer", i as u64);
                    let _inner = trace::span("prop.inner");
                }
                // Scoped-thread closures finish before TLS destructors
                // run, so workers flush explicitly (the same pattern
                // the engine's worker threads use).
                trace::flush_thread();
            });
        }
    });
    let events = trace::drain();
    trace::set_enabled(false);
    assert_eq!(
        events.len(),
        THREADS * SPANS * 2,
        "events lost or duplicated"
    );

    use std::collections::BTreeMap;
    let mut by_tid: BTreeMap<u64, Vec<&obs::SpanEvent>> = BTreeMap::new();
    for e in &events {
        by_tid.entry(e.tid).or_default().push(e);
    }
    assert_eq!(by_tid.len(), THREADS, "thread ids collided or went missing");
    for (tid, evs) in &by_tid {
        let outers = evs.iter().filter(|e| e.name == "prop.outer").count();
        let inners = evs.iter().filter(|e| e.name == "prop.inner").count();
        assert_eq!(outers, SPANS, "tid {tid}: outer spans lost");
        assert_eq!(inners, SPANS, "tid {tid}: inner spans lost");
        for e in evs {
            match e.name {
                "prop.outer" => assert_eq!(e.depth, 0, "tid {tid}"),
                "prop.inner" => assert_eq!(e.depth, 1, "tid {tid}"),
                other => panic!("tid {tid}: foreign span {other}"),
            }
        }
        // drain() sorts parent-first: each inner is contained in the
        // outer that precedes it.
        for pair in evs.chunks(2) {
            let (outer, inner) = (pair[0], pair[1]);
            assert_eq!(outer.name, "prop.outer");
            assert_eq!(inner.name, "prop.inner");
            assert!(inner.start_ns >= outer.start_ns);
            assert!(inner.start_ns + inner.dur_ns <= outer.start_ns + outer.dur_ns);
        }
    }
}
