//! Schema validation of the committed `BENCH_*.json` artifacts and of
//! `REPRO.json`, the golden file of the `repro` binary's claims.
//!
//! The bench binaries build their artifact as an [`obs::Json`] value
//! and print it once, but nothing else guarantees the *committed*
//! artifacts keep the keys the CI jobs and downstream tooling grep
//! for. This test walks the repository root, parses every
//! `BENCH_*.json` and `REPRO*.json` with the workspace's strict JSON
//! parser ([`obs::json`], which also backs the flight recorder and
//! `scrub --json`), and checks:
//!
//! - exactly the three surviving artifacts and the one golden file are
//!   there (the end-to-end and per-layer numbers live in `benchmark/`,
//!   not in more files),
//! - the file is valid JSON and a non-empty object,
//! - every number is finite,
//! - `host_parallelism` is present at the top level and ≥ 1 — the
//!   record of whether the numbers came from a multi-core or a 1-core
//!   host,
//! - per-file required keys exist with the right shapes (sweeps,
//!   workloads, per-config metrics; per claim its text, verdict and
//!   value).

use obs::{json, Json};
use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .canonicalize()
        .expect("repo root resolves")
}

fn bench_files() -> Vec<(String, Json)> {
    let mut found = Vec::new();
    for entry in std::fs::read_dir(repo_root()).expect("read repo root") {
        let entry = entry.expect("dir entry");
        let name = entry.file_name().to_string_lossy().into_owned();
        let committed = name.starts_with("BENCH_") || name.starts_with("REPRO");
        if committed && name.ends_with(".json") {
            let text = std::fs::read_to_string(entry.path()).expect("read artifact");
            let json = json::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
            found.push((name, json));
        }
    }
    found.sort_by(|a, b| a.0.cmp(&b.0));
    found
}

#[test]
fn every_committed_bench_artifact_is_valid() {
    let files = bench_files();
    let names: Vec<&str> = files.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(
        names,
        [
            "BENCH_faults.json",
            "BENCH_scale.json",
            "BENCH_timeline.json",
            "REPRO.json"
        ]
    );
    for (name, json) in &files {
        match json {
            Json::Obj(m) => assert!(!m.is_empty(), "{name}: empty top-level object"),
            _ => panic!("{name}: top level is not an object"),
        }
        // Multi-core vs 1-core provenance of the numbers.
        let par = json
            .num("host_parallelism")
            .unwrap_or_else(|| panic!("{name}: missing host_parallelism"));
        assert!(
            par >= 1.0 && par.fract() == 0.0,
            "{name}: bad host_parallelism {par}"
        );
        let mut nums = Vec::new();
        json.numbers(&mut nums);
        assert!(!nums.is_empty(), "{name}: no numeric fields");
        for n in nums {
            assert!(n.is_finite(), "{name}: non-finite number {n}");
        }
    }
}

#[test]
fn scale_artifact_has_the_sweep_schema() {
    let files = bench_files();
    let (name, json) = files
        .iter()
        .find(|(n, _)| n == "BENCH_scale.json")
        .expect("BENCH_scale.json is committed");
    assert!(matches!(json.get("multi_core_host"), Some(Json::Bool(_))));
    assert!(json.num("steps").unwrap_or(0.0) >= 1.0);
    assert!(json.num("fields").unwrap_or(0.0) >= 1.0);
    let sweeps = json.arr("sweeps").expect("sweeps array");
    assert!(!sweeps.is_empty(), "{name}: empty sweeps");
    let mut prev_ranks = 0.0;
    for sweep in sweeps {
        let ranks = sweep.num("ranks").expect("sweep.ranks");
        assert!(ranks > prev_ranks, "{name}: ranks not ascending");
        prev_ranks = ranks;
        let configs = sweep.arr("configs").expect("sweep.configs");
        let modes: Vec<_> = configs.iter().map(|c| c.str_of("mode")).collect();
        assert_eq!(modes, [Some("static"), Some("adaptive")], "{name}");
        for c in configs {
            let keys = [
                "file_bytes",
                "compressed_bytes",
                "waste_bytes",
                "overflow_bytes",
                "overflow_partitions",
                "mean_step_secs",
                "final_rel_err",
            ];
            assert_nums(c, &keys, name);
        }
    }
}

/// Every `keys` member of `v` is a non-negative number.
fn assert_nums(v: &Json, keys: &[&str], what: &str) {
    for key in keys {
        let n = v
            .num(key)
            .unwrap_or_else(|| panic!("{what}: missing {key}"));
        assert!(n >= 0.0, "{what}: negative {key} = {n}");
    }
}

#[test]
fn workload_artifacts_keep_their_required_keys() {
    let files = bench_files();
    let by_name = |n: &str| &files.iter().find(|(name, _)| name == n).expect(n).1;

    let workloads = by_name("BENCH_timeline.json")
        .arr("workloads")
        .expect("timeline workloads");
    assert!(!workloads.is_empty());
    for w in workloads {
        let name = w.str_of("workload").expect("timeline workload name");
        assert_nums(w, &["steps", "ranks"], name);
        let modes = w.arr("modes").expect("timeline modes");
        assert!(modes.len() >= 2, "{name}: two modes per workload");
        for m in modes {
            assert!(m.str_of("mode").is_some(), "{name}: mode label");
            let totals = [
                "total_secs",
                "file_bytes",
                "compressed_bytes",
                "waste_bytes",
                "overflows",
                "overflow_bytes",
            ];
            assert_nums(m, &totals, name);
            let per_step = m.arr("per_step").expect("per_step rows");
            assert_eq!(per_step.len() as f64, w.num("steps").unwrap(), "{name}");
            for row in per_step {
                let keys = ["step", "secs", "waste_bytes", "overflows", "rel_err"];
                assert_nums(row, &keys, name);
            }
        }
    }

    let faults = by_name("BENCH_faults.json");
    assert_nums(faults, &["seed", "ranks"], "BENCH_faults.json");
    let workloads = faults.arr("workloads").expect("fault workloads");
    assert!(!workloads.is_empty());
    for w in workloads {
        let name = w.str_of("workload").expect("fault workload name");
        assert_eq!(w.get("recovered"), Some(&Json::Bool(true)), "{name}");
        let keys = [
            "steps",
            "crash_step",
            "transient_step",
            "flip_step",
            "resume_from",
            "quarantined",
            "surviving",
            "retries",
            "escalations",
            "verified_steps",
            "recovery_secs",
        ];
        assert_nums(w, &keys, name);
    }
}

#[test]
fn the_golden_file_holds_every_claim_with_its_verdict_and_value() {
    let files = bench_files();
    let (_, golden) = files.iter().find(|(n, _)| n == "REPRO.json").unwrap();
    let Some(Json::Obj(artifacts)) = golden.get("artifacts") else {
        panic!("REPRO.json: no artifacts object");
    };
    let names: Vec<&str> = artifacts.keys().map(String::as_str).collect();
    let mut table: Vec<&str> = bench::claims::CLAIMS.iter().map(|c| c.name).collect();
    table.sort_unstable();
    assert_eq!(names, table, "one entry per row of the claims table");
    for claim in &bench::claims::CLAIMS {
        let entry = &artifacts[claim.name];
        assert_eq!(entry.str_of("claim"), Some(claim.claim), "{}", claim.name);
        assert!(entry.bool_of("holds").is_some(), "{}: verdict", claim.name);
        assert!(
            matches!(entry.get("value"), Some(Json::Obj(v)) if !v.is_empty()),
            "{}: value",
            claim.name
        );
    }
    // What the README lists as not reproduced, and nothing else.
    let not_reproduced: Vec<&str> = (artifacts.iter())
        .filter(|(_, entry)| entry.bool_of("holds") == Some(false))
        .map(|(name, _)| name.as_str())
        .collect();
    assert_eq!(not_reproduced, ["fig17cd", "fig18a"]);
    let inversion = artifacts["fig17cd"].get("value").unwrap();
    assert_eq!(inversion.num("first_inverted_ranks"), Some(4096.0));
}
