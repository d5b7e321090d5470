//! Schema validation of `REPRO.json`, the golden file of the `repro`
//! binary's claims and the repository's one committed evaluation
//! record.
//!
//! This test walks the repository root, parses every `BENCH_*.json`
//! and `REPRO*.json` with the workspace's strict JSON parser
//! ([`obs::json`], which also backs the flight recorder and
//! `scrub --json`), and checks:
//!
//! - `REPRO.json` is the only such file (the end-to-end and per-layer
//!   numbers live in `benchmark/`, every other record is a row of the
//!   claims table),
//! - it is valid JSON and a non-empty object, every number finite,
//! - `host_parallelism` is present at the top level and ≥ 1 — the
//!   record of whether the wall-clock entries came from a multi-core or
//!   a 1-core host,
//! - it holds one entry per claim with its text, verdict and value, and
//!   the extension rows keep the shape their predicates read.

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
    assert_eq!(names, ["REPRO.json"], "the golden is the only artifact");
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

/// The labels of `row`'s runs, in order.
fn modes(row: &Json) -> Vec<Option<&str>> {
    let runs = row.arr("modes").unwrap_or_default();
    runs.iter().map(|m| m.str_of("mode")).collect()
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

    // The scale sweep: ascending ranks, static then adaptive in each.
    let value = |name: &str| artifacts[name].get("value").unwrap();
    let sweeps = value("scale").arr("sweeps").expect("scale sweeps");
    let ranks: Vec<f64> = sweeps.iter().filter_map(|s| s.num("ranks")).collect();
    assert_eq!(ranks.len(), sweeps.len());
    assert!(ranks.windows(2).all(|w| w[0] < w[1]), "{ranks:?}");
    for sweep in sweeps {
        assert_eq!(modes(sweep), [Some("static"), Some("adaptive")]);
    }
    // The real stream: all three workloads, static then adaptive.
    let workloads = value("timeline").arr("workloads").expect("timeline");
    let labels: Vec<_> = workloads.iter().map(|w| w.str_of("workload")).collect();
    assert_eq!(labels, [Some("nyx"), Some("vpic"), Some("rtm")]);
    for workload in workloads {
        assert_eq!(modes(workload), [Some("static"), Some("adaptive")]);
    }
}
