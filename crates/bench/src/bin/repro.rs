//! `repro` — re-measure the paper's artifacts and this repository's
//! extensions, and check each claim against the committed `REPRO.json`.
//!
//! ```text
//! cargo run -p bench --release --bin repro -- <artifact>... | all
//! ```
//!
//! Run from the repository root. Prints every measured entry, rewrites
//! `REPRO.json` (or the file `BENCH_OUT` names) with the re-measured
//! entries replaced, and exits 1 when a verdict, a claim's text or a
//! simulator-deterministic number departs from what was committed;
//! 2 on a usage error.

use bench::claims::{difference, Claim, CLAIMS};
use bench::setup::Scenarios;
use obs::json::obj;
use obs::Json;

const GOLDEN: &str = "REPRO.json";

fn usage() -> ! {
    eprintln!("usage: repro <artifact>... | all\n\nartifacts:");
    for c in &CLAIMS {
        eprintln!("  {:<8} {}", c.name, c.claim);
    }
    eprintln!("  all      every artifact, in paper order");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let known = |a: &String| a == "all" || CLAIMS.iter().any(|c| c.name == a);
    if args.is_empty() || !args.iter().all(known) {
        usage();
    }
    let named = |c: &&Claim| args.iter().any(|a| a == c.name || a == "all");
    let committed = std::fs::read_to_string(GOLDEN)
        .ok()
        .and_then(|text| obs::json::parse(&text).ok());
    let mut artifacts = match committed.as_ref().and_then(|doc| doc.get("artifacts")) {
        Some(Json::Obj(entries)) => entries.clone(),
        _ => Default::default(),
    };

    let scenarios = Scenarios::default();
    let mut departures = 0;
    for claim in CLAIMS.iter().filter(named) {
        let entry = claim.evaluate(&scenarios);
        println!("{}: {entry}", claim.name);
        let verdict = match entry.bool_of("holds") {
            Some(true) => "holds",
            _ => "DOES NOT HOLD",
        };
        let committed = artifacts.insert(claim.name.into(), entry.clone());
        let departs = difference(&entry, &committed.unwrap_or(Json::Null));
        departures += usize::from(departs.is_some());
        let against = departs.map_or("as committed".into(), |d| format!("DEPARTS at {d}"));
        println!("-> {} {verdict}, {against}\n", claim.name);
    }
    // Stamped with the parallelism of the host the wall-clock entries
    // were taken on.
    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    let doc = obj([
        ("artifacts", Json::Obj(artifacts)),
        ("host_parallelism", Json::Num(parallelism as f64)),
        ("multi_core_host", Json::Bool(parallelism > 1)),
    ]);
    let path = std::env::var("BENCH_OUT").unwrap_or_else(|_| GOLDEN.into());
    std::fs::write(&path, format!("{doc}\n")).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("\nwrote {path}");
    if departures > 0 {
        eprintln!("{departures} artifact(s) depart from the committed {GOLDEN}");
        std::process::exit(1);
    }
}
