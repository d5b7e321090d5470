//! The observability contract, end to end: what a disabled span costs,
//! what an exported trace looks like (every accounted phase a span on
//! its rank's thread, for all methods), that a step's flight record is
//! its `StepMetrics`, that a failed run still leaves its trace, and
//! that a dataset read shows its chunks on the workers' threads.
//!
//! One `#[test]`, scenarios in sequence: `obs`'s enable flag, its
//! trace buffers and `OBS_TRACE` are process globals, and this file is
//! its own test binary so nothing else shares them.

use bench::{demo_real_config, partition_stream_step};
use repro_suite::h5lite::{
    DatasetSpec, Dtype, FilterSpec, H5File, H5Reader, SzFilterParams, SZLITE_FILTER_ID,
};
use repro_suite::obs::{self, Json};
use repro_suite::pfsim::{Fault, FaultFs, FaultPlan};
use repro_suite::predwrite::{reservation_wire_bytes, run_real, Method, RealError};
use repro_suite::ratiomodel::OnlineConfig;
use repro_suite::szlite;
use repro_suite::timeline::{run_timeline, AdaptMode, StepFaults, TimelineConfig};
use repro_suite::workloads::SnapshotStream;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;
use testutil::{TempDir, TempPath};

/// Structural check of an exported Chrome trace: parseable strict
/// JSON, complete events only, and depth-nesting containment per
/// thread. Returns the events and the maximum depth.
fn validate_trace(path: &Path) -> (Vec<Json>, u64) {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path:?}: {e}"));
    let v = obs::json::parse(&text).unwrap_or_else(|e| panic!("{path:?}: {e}"));
    let Json::Arr(items) = v else {
        panic!("{path:?}: trace is not a JSON array");
    };
    assert!(!items.is_empty(), "{path:?}: empty trace");
    let mut spans: Vec<(u64, u64, f64, f64)> = Vec::new(); // (tid, depth, ts, end)
    for it in &items {
        assert_eq!(it.str_of("ph"), Some("X"), "non-complete event");
        assert_eq!(it.str_of("cat"), Some("obs"));
        let ts = it.num("ts").expect("ts");
        let dur = it.num("dur").expect("dur");
        let tid = it.num("tid").expect("tid") as u64;
        let depth = it
            .get("args")
            .and_then(|a| a.num("depth"))
            .expect("args.depth") as u64;
        assert!(ts >= 0.0 && dur >= 0.0);
        spans.push((tid, depth, ts, ts + dur));
    }
    // Every nested span sits inside some shallower span of its thread
    // (µs rounding in the export grants a small tolerance).
    let eps = 0.002;
    for &(tid, depth, ts, end) in &spans {
        if depth == 0 {
            continue;
        }
        let contained = spans.iter().any(|&(t2, d2, ts2, end2)| {
            t2 == tid && d2 < depth && ts2 <= ts + eps && end2 + eps >= end
        });
        assert!(
            contained,
            "span at tid {tid} depth {depth} [{ts}, {end}] has no enclosing span"
        );
    }
    let max_depth = spans.iter().map(|s| s.1).max().unwrap_or(0);
    (items, max_depth)
}

#[test]
fn spans_are_free_when_off_and_traces_and_flight_records_are_true_when_on() {
    let stream = SnapshotStream::nyx(16);
    let nranks = 2;
    let data: Vec<_> = (0..4)
        .map(|s| partition_stream_step(&stream, s, nranks))
        .collect();
    let nfields = data[0][0].len();
    let adaptive = AdaptMode::Adaptive(OnlineConfig);

    // 1. The disabled fast path: one guard per compress call is what
    // an instrumented hot loop pays, so a guard (timed over 2 M of
    // them) must cost under 2 % of one serial compress of a field.
    obs::set_enabled(false);
    let field = &data[0][0][0];
    let cfgc = szlite::Config::rel(1e-3);
    let mut scratch = szlite::Scratch::new();
    let mut out = Vec::new();
    let mut compress = || {
        let t0 = Instant::now();
        szlite::compress_into(&field.data, &field.dims, &cfgc, &mut scratch, &mut out).unwrap();
        t0.elapsed().as_secs_f64()
    };
    compress(); // warm-up
    let mut times: Vec<f64> = (0..5).map(|_| compress()).collect();
    times.sort_by(f64::total_cmp);
    let compress_secs = times[times.len() / 2];
    let n = 2_000_000u64;
    let t0 = Instant::now();
    for i in 0..n {
        std::hint::black_box(&obs::span_arg("test.disabled", i));
    }
    let span_secs = t0.elapsed().as_secs_f64() / n as f64;
    assert!(
        span_secs < 0.02 * compress_secs,
        "a disabled span costs {:.1} ns, ≥ 2 % of a {:.1} µs serial compress",
        span_secs * 1e9,
        compress_secs * 1e6
    );
    assert!(obs::trace::drain().is_empty(), "disabled spans recorded");

    // 2. A step that fails still leaves the run's trace: the typed
    // error comes back, and the file named by OBS_TRACE holds the
    // failing step's span. (First traced scenario, so the only
    // `timeline.step` spans in the file are this run's.)
    let failing_step = 2u64;
    let crash_trace = TempPath::new("obs-crash-trace", "json");
    std::env::set_var(obs::trace::TRACE_ENV, crash_trace.path());
    obs::set_enabled(true);
    let dir = TempDir::new("crash");
    let mut cfg = TimelineConfig::quick(4, nfields, adaptive, dir.path().to_path_buf());
    let torn = FaultFs::new(FaultPlan::new().on_write(1, Fault::TornWrite { keep: 64 }));
    cfg.step_faults = Some(StepFaults::only_step(failing_step as usize, torn.clone()));
    let err = run_timeline(&cfg, |s| &data[s]).expect_err("the torn write must abort the stream");
    assert!(torn.crashed());
    assert!(matches!(err, RealError::H5(_)), "{err:?}");
    let (crashed_run_events, _) = validate_trace(crash_trace.path());
    let step_args: Vec<u64> = crashed_run_events
        .iter()
        .filter(|e| e.str_of("name") == Some("timeline.step"))
        .map(|e| e.get("args").and_then(|a| a.num("arg")).expect("step arg") as u64)
        .collect();
    assert_eq!(
        step_args,
        [0, 1, failing_step],
        "steps traced: {step_args:?}"
    );

    // 3. A traced adaptive keep-files stream: the exported trace is
    // well formed and nests, and every step's flight record mirrors
    // the engine's own report.
    let trace = TempPath::new("obs-trace", "json");
    std::env::set_var(obs::trace::TRACE_ENV, trace.path());
    let dir = TempDir::new("stream");
    let mut cfg = TimelineConfig::quick(4, nfields, adaptive, dir.path().to_path_buf());
    cfg.keep_files = true; // flight records live beside the containers
    let report = run_timeline(&cfg, |s| &data[s]).expect("timeline run");
    obs::set_enabled(false);
    std::env::remove_var(obs::trace::TRACE_ENV);
    let (events, max_depth) = validate_trace(trace.path());
    assert!(max_depth >= 1, "no nested spans recorded");
    // Every phase the engine accounts in `Breakdown` is a span on the
    // thread of the rank that spent it (verification runs once, on the
    // caller's thread). The export accumulates, and thread ids only
    // grow: this stream's threads are those past the crashed run's.
    let tid = |e: &Json| e.num("tid").expect("tid") as u64;
    let crashed_run_tids = crashed_run_events.iter().map(tid).max();
    assert_phase_spans(
        events
            .iter()
            .filter(|e| Some(tid(e)) > crashed_run_tids)
            .map(|e| (tid(e), e.str_of("name").expect("name"))),
        &[
            "real.predict",
            "real.allgather",
            "real.compress",
            "real.write",
            "real.overflow",
        ],
        nranks * report.steps.len(),
    );
    assert!(events
        .iter()
        .any(|e| e.str_of("name") == Some("real.verify")));

    assert_eq!(report.steps.len(), 4);
    for m in &report.steps {
        let fpath = obs::flight_path(&cfg.step_path(m.step));
        let scan = obs::read_flight(&fpath).unwrap_or_else(|e| panic!("read {fpath:?}: {e}"));
        assert!(scan.errors.is_empty(), "flight errors: {:?}", scan.errors);
        let rec = scan.records.last().expect("one record per step");
        // Byte fields mirror StepMetrics exactly.
        assert_eq!(rec.step, m.step as u64);
        assert_eq!(rec.reserved_bytes, m.reserved_bytes);
        assert_eq!(rec.waste_bytes, m.waste_bytes);
        assert_eq!(rec.predicted_bytes, m.predicted_bytes);
        assert_eq!(rec.actual_bytes, m.actual_bytes);
        assert_eq!(rec.overflow_bytes, m.result.overflow_bytes);
        assert_eq!(rec.overflow_parts, m.result.n_overflow as u64);
        assert_eq!(rec.file_bytes, m.result.file_bytes);
        // Timings and derived figures survive the JSON round trip as
        // finite numbers, and provenance is recorded.
        for v in [
            rec.predict_secs,
            rec.planner_secs,
            rec.compress_secs,
            rec.write_secs,
            rec.overflow_secs,
            rec.verify_secs,
            rec.total_secs,
            rec.mean_rel_err,
        ] {
            assert!(v.is_finite() && v >= 0.0, "bad timing {v}");
        }
        assert!(rec.host_parallelism >= 1);
        // What the step's run returned, exactly: the flat reservation
        // exchange's bytes over all ranks, no fault (none was
        // injected), and a write queue no deeper than a rank's fields.
        assert_eq!(
            rec.collective_wire_bytes,
            reservation_wire_bytes(nranks, nfields, None) * nranks as u64
        );
        assert_eq!(rec.collective_wire_bytes, m.result.reservation_wire_bytes);
        assert_eq!(
            (rec.retries, rec.transient_faults, rec.escalations),
            (0, 0, 0)
        );
        assert!(
            (1..=nfields as u64).contains(&rec.queue_depth_max),
            "queue depth {}",
            rec.queue_depth_max
        );
    }

    // 4. The two baseline methods account their phases through the
    // same guards, so they trace them too.
    for (method, phases) in [
        (Method::NoCompression, &["real.write"][..]),
        (
            Method::FilterCollective,
            &["real.compress", "real.allgather", "real.write"][..],
        ),
    ] {
        let path = TempPath::new("obs-baseline", "h5l");
        let rc = demo_real_config(method, nfields, 1.0, false, path.path().to_path_buf());
        obs::set_enabled(true);
        let res = run_real(&data[0], &rc).expect("baseline run");
        obs::set_enabled(false);
        let events = obs::trace::drain();
        assert_phase_spans(events.iter().map(|e| (e.tid, e.name)), phases, nranks);
        assert_eq!(res.reservation_wire_bytes, 0, "{method:?} reserves nothing");
    }

    // 5. A compress call decomposes into its four stages: each is one
    // child span inside `sz.compress`, in pipeline order, and together
    // they take no longer than their parent.
    obs::set_enabled(true);
    szlite::compress_into(&field.data, &field.dims, &cfgc, &mut scratch, &mut out).unwrap();
    obs::set_enabled(false);
    let events = obs::trace::drain();
    let [parent] = events
        .iter()
        .filter(|e| e.name == "sz.compress")
        .collect::<Vec<_>>()[..]
    else {
        panic!("one sz.compress span expected: {events:?}");
    };
    let mut stages: Vec<_> = events.iter().filter(|e| e.name != "sz.compress").collect();
    stages.sort_by_key(|e| e.start_ns);
    let names: Vec<&str> = stages.iter().map(|e| e.name).collect();
    assert_eq!(
        names,
        ["sz.range", "sz.quantize", "sz.huffman", "sz.lzss"],
        "{events:?}"
    );
    let parent_end = parent.start_ns + parent.dur_ns;
    for (i, e) in stages.iter().enumerate() {
        assert_eq!((e.tid, e.depth), (parent.tid, parent.depth + 1), "{e:?}");
        assert!(
            e.start_ns >= parent.start_ns && e.start_ns + e.dur_ns <= parent_end,
            "{e:?} outside {parent:?}"
        );
        if let Some(prev) = i.checked_sub(1).map(|p| stages[p]) {
            assert!(prev.start_ns + prev.dur_ns <= e.start_ns, "stages overlap");
        }
    }
    let staged: u64 = stages.iter().map(|e| e.dur_ns).sum();
    assert!(
        staged <= parent.dur_ns,
        "stages take {staged} ns of a {} ns compress",
        parent.dur_ns
    );

    // 6. The restart path: one `h5.read` (arg: the dataset's raw
    // bytes) on the caller's thread around a dataset read, one
    // `h5.chunk_decode` (arg: chunk index) per chunk on the thread of
    // the worker that decoded it, `sz.decompress` nested inside it.
    // 16 chunks of 64 Ki points keep either worker busy for far longer
    // than the other takes to start, so both decode some.
    let (n_chunks, chunk_points) = (16u64, 1u64 << 16);
    let values: Vec<f32> = (0..n_chunks * chunk_points)
        .map(|i| (i as f32 * 1e-3).sin())
        .collect();
    let bytes: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
    let path = TempPath::new("obs-read", "h5l");
    let file = H5File::create(path.path()).unwrap();
    let id = file
        .create_dataset(
            DatasetSpec::new("v", Dtype::F32, &[n_chunks * chunk_points])
                .chunked(&[chunk_points])
                .with_filter(FilterSpec {
                    id: SZLITE_FILTER_ID,
                    params: SzFilterParams {
                        absolute: true,
                        bound: 1e-3,
                        dims: vec![chunk_points as usize],
                    }
                    .to_bytes(),
                }),
        )
        .unwrap();
    file.write_full(id, &bytes).unwrap();
    file.close().unwrap();
    let reader = H5Reader::open(path.path()).unwrap();
    obs::set_enabled(true);
    let restored = reader.read_pipelined::<f32>("v", 2).unwrap();
    obs::set_enabled(false);
    assert_eq!(restored.len(), values.len());
    let events = obs::trace::drain();
    let named = |name: &str| events.iter().filter(|e| e.name == name).collect::<Vec<_>>();
    let [read] = named("h5.read")[..] else {
        panic!("one h5.read span expected: {events:?}");
    };
    assert_eq!((read.depth, read.arg), (0, Some(bytes.len() as u64)));
    let chunks = named("h5.chunk_decode");
    let mut indices: Vec<u64> = chunks.iter().map(|e| e.arg.expect("chunk index")).collect();
    indices.sort_unstable();
    assert_eq!(indices, (0..n_chunks).collect::<Vec<_>>());
    let inside = |inner: &obs::trace::SpanEvent, outer: &obs::trace::SpanEvent| {
        inner.start_ns >= outer.start_ns
            && inner.start_ns + inner.dur_ns <= outer.start_ns + outer.dur_ns
    };
    let mut worker_tids: Vec<u64> = chunks.iter().map(|e| e.tid).collect();
    worker_tids.sort_unstable();
    worker_tids.dedup();
    assert_eq!(worker_tids.len(), 2, "chunk spans on {worker_tids:?}");
    assert!(!worker_tids.contains(&read.tid));
    for chunk in &chunks {
        assert!(chunk.depth == 0 && inside(chunk, read), "{chunk:?}");
    }
    let decompresses = named("sz.decompress");
    assert_eq!(decompresses.len(), chunks.len());
    for sz in decompresses {
        assert!(
            chunks
                .iter()
                .any(|c| c.tid == sz.tid && c.depth + 1 == sz.depth && inside(sz, c)),
            "{sz:?} under no chunk span"
        );
    }
}

/// Each of `phases` was recorded on every thread that ran a rank
/// (`real.rank`), and `ranks` rank runs were traced.
fn assert_phase_spans<'a>(
    spans: impl Iterator<Item = (u64, &'a str)>,
    phases: &[&str],
    ranks: usize,
) {
    let mut by_thread: BTreeMap<u64, Vec<&str>> = BTreeMap::new();
    for (tid, name) in spans {
        by_thread.entry(tid).or_default().push(name);
    }
    by_thread.retain(|_, names| names.contains(&"real.rank"));
    assert_eq!(by_thread.len(), ranks, "rank threads traced");
    for (tid, names) in &by_thread {
        for phase in phases {
            assert!(names.contains(phase), "tid {tid}: no {phase} in {names:?}");
        }
    }
}
