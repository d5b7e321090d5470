//! Smoke of every workload at 1/8 size: both passes emit exactly the
//! metrics `BENCHMARK.json` declares, and damage to a restart file is
//! counted as failed operations.

use benchmark::e2e::{self, Fixed, Opts};
use benchmark::layers;
use benchmark::metrics::{MetricDef, Ops, END_TO_END, PER_LAYER};
use benchmark::spans::{Recorder, ROOT};
use benchmark::spec::{WorkloadSpec, NAMES};
use obs::json::{self, Json};
use std::path::{Path, PathBuf};

/// A private directory under the cargo target dir, removed on drop.
struct TestDir(PathBuf);

impl TestDir {
    fn new(name: &str) -> Self {
        let dir =
            Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        TestDir(dir)
    }
}

impl Drop for TestDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn opts(dir: &TestDir) -> Opts {
    Opts {
        seed: 7,
        seconds: 1.0,
        scratch: dir.0.clone(),
        setup_reps: 1,
        fixed: Some(Fixed {
            steps: 2,
            restart_rounds: 1,
        }),
        keep_datasets: false,
    }
}

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap()
}

/// `BENCHMARK.json`'s list `key` must be exactly `defs`: same names in
/// the same order, same unit, direction and bound.
fn assert_declared(doc: &Json, key: &str, defs: &[MetricDef]) {
    let declared = doc.arr(key).unwrap();
    assert_eq!(
        declared.len(),
        defs.len(),
        "{key}: BENCHMARK.json and metrics.rs differ in length"
    );
    for (j, d) in declared.iter().zip(defs) {
        assert_eq!(j.str_of("name"), Some(d.name), "{key}");
        assert_eq!(j.str_of("unit"), Some(d.unit), "{}", d.name);
        assert_eq!(j.str_of("better"), Some(d.better.word()), "{}", d.name);
        assert_eq!(j.num("bound"), d.bound, "{}", d.name);
    }
}

#[test]
fn benchmark_json_declares_the_registry() {
    let doc = benchmark_json();
    assert_declared(&doc, "end_to_end", END_TO_END);
    assert_declared(&doc, "per_layer", PER_LAYER);
    let names: Vec<&str> = doc
        .arr("workloads")
        .unwrap()
        .iter()
        .map(|w| w.str_of("name").unwrap())
        .collect();
    assert_eq!(names, NAMES);
    assert_eq!(doc.arr("paths").unwrap().len(), 1);
}

#[test]
fn end_to_end_pass_emits_every_declared_metric_once() {
    for name in NAMES {
        let dir = TestDir::new(&format!("e2e-{name}"));
        let spec = WorkloadSpec::named(name, true).unwrap();
        let run = e2e::run(&spec, &opts(&dir), None).unwrap();
        assert_eq!(run.walls.len(), 2, "{name}");
        assert_eq!(run.ops.failed, 0, "{name}");
        // `set` panics on a name recorded twice; `checked` rejects a
        // missing, undeclared or non-finite one.
        let metrics = run.metrics().unwrap().checked(END_TO_END).unwrap();
        assert!(metrics.iter().all(|(_, v)| *v > 0.0), "{name}: {metrics:?}");
    }
}

#[test]
fn traced_pass_emits_every_declared_metric_once() {
    for name in NAMES {
        let dir = TestDir::new(&format!("layers-{name}"));
        let spec = WorkloadSpec::named(name, true).unwrap();
        let rec = Recorder::new();
        let trace = dir.0.join("trace.json");
        let (ops, values, _notes) = layers::run(&spec, &opts(&dir), &rec, &trace).unwrap();
        assert_eq!(ops.failed, 0, "{name}");
        values.checked(PER_LAYER).unwrap();
        // The trace is one JSON array; every benchmark span carries
        // name, start, end, parent and step.
        let doc = json::parse(&std::fs::read_to_string(&trace).unwrap()).unwrap();
        let Json::Arr(events) = doc else {
            panic!("{name}: trace is not an array")
        };
        let ours: Vec<&Json> = events
            .iter()
            .filter(|e| e.num("pid") == Some(1.0))
            .collect();
        assert!(ours.len() > 100, "{name}: {} spans", ours.len());
        for e in &ours {
            let args = e.get("args").unwrap();
            assert!(e.str_of("name").unwrap().starts_with("bench."));
            assert!(e.num("ts").is_some() && e.num("dur").is_some());
            assert!(args.num("end").unwrap() >= e.num("ts").unwrap());
            assert!(
                args.num("id").unwrap() >= 1.0
                    && args.num("parent").is_some()
                    && args.num("step").is_some()
            );
        }
        // The replay's children point at it.
        let spans = rec.spans();
        let replay = spans
            .iter()
            .find(|s| s.name == "bench.replay_step")
            .unwrap();
        assert_eq!(replay.parent, ROOT);
        assert!(
            spans.iter().filter(|s| s.parent == replay.id).count() >= 10,
            "{name}"
        );
    }
}

#[test]
fn a_corrupted_restart_file_counts_as_failed_operations() {
    for name in ["nyx_compute", "rtm_chunked"] {
        let dir = TestDir::new(&format!("corrupt-{name}"));
        let spec = WorkloadSpec::named(name, true).unwrap();
        let prepared = e2e::prepare(&spec, &opts(&dir), &dir.0, None).unwrap();
        let mut clean = Ops::default();
        assert!(e2e::restart_round(&spec, &prepared, &mut clean) > 0);
        assert_eq!(clean.failed, 0, "{name}");

        // Flip bytes in the middle of the first restart file's chunk data.
        let (path, idx) = &prepared.restart[0];
        let mut bytes = std::fs::read(path).unwrap();
        let mid = bytes.len() / 2;
        for b in &mut bytes[mid..mid + 64] {
            *b ^= 0xA5;
        }
        std::fs::write(path, bytes).unwrap();

        let mut ops = Ops::default();
        e2e::restart_round(&spec, &prepared, &mut ops);
        e2e::check_file(&spec, &prepared.inputs, path, *idx, &mut ops);
        assert!(ops.failed > 0 && ops.failed_frac() > 0.0, "{name}: {ops:?}");
        assert!(
            ops.failed < ops.attempted,
            "{name}: the intact file still restores"
        );
    }
}
