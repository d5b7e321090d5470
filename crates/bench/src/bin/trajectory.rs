//! `trajectory` — fold a measured change into `BENCH_trajectory.json`,
//! or check that every committed row is the fold of its result files.
//!
//! ```text
//! trajectory check
//! trajectory fold --change TEXT --parent-commit HASH \
//!     --parent-runs FILE --change-runs FILE \
//!     --host-parallelism N --steal-ticks BEFORE AFTER
//! ```
//!
//! Run from the repository root. The two result files are
//! `benchmark/run.sh --out` files of alternating parent and change
//! runs at one seed, committed with the trajectory; `fold` appends
//! their row and checks the whole file. Exit 1 when the check fails,
//! 2 on a usage error.

use bench::trajectory::{append, check, fold, Provenance, FILE};
use std::path::Path;

const USAGE: &str = "usage: trajectory check\n       trajectory fold --change TEXT \
--parent-commit HASH --parent-runs FILE --change-runs FILE --host-parallelism N \
--steal-ticks BEFORE AFTER";

fn usage(e: &str) -> ! {
    eprintln!("trajectory: {e}\n{USAGE}");
    std::process::exit(2);
}

fn provenance(args: &[String]) -> Provenance {
    let value = |flag: &str, k: usize| -> &str {
        let at = args.iter().position(|a| a == flag);
        match at.and_then(|i| args.get(i + 1 + k)) {
            Some(v) => v,
            None => usage(&format!("{flag} needs a value")),
        }
    };
    let count = |flag: &str, k: usize| -> u64 {
        (value(flag, k).parse()).unwrap_or_else(|_| usage(&format!("{flag}: not a count")))
    };
    Provenance {
        change: value("--change", 0).into(),
        parent_commit: value("--parent-commit", 0).into(),
        parent_runs: value("--parent-runs", 0).into(),
        change_runs: value("--change-runs", 0).into(),
        host_parallelism: count("--host-parallelism", 0),
        steal_ticks: [count("--steal-ticks", 0), count("--steal-ticks", 1)],
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let root = Path::new(".");
    let folded = match args.first().map(String::as_str) {
        Some("check") if args.len() == 1 => Ok(()),
        Some("fold") => fold(&provenance(&args[1..]), root).and_then(|row| append(root, row)),
        _ => usage("unknown command"),
    };
    match folded.and_then(|()| check(root)) {
        Ok(rows) => println!("{FILE}: {rows} row(s), each the fold of its result files"),
        Err(e) => {
            eprintln!("trajectory: {e}");
            std::process::exit(1);
        }
    }
}
