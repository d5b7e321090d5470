//! `benchmark --workload NAME --seed N --seconds S --trace 0|1
//! [--scratch DIR] [--out FILE]`, or `benchmark --compare A B`.
//! See `README.md`; normally started through `run.sh`.

use benchmark::e2e::{self, Opts};
use benchmark::metrics::{result_json, END_TO_END, PER_LAYER};
use benchmark::spans::Recorder;
use benchmark::spec::WorkloadSpec;
use benchmark::{compare, layers};
use std::io::Write;
use std::path::{Path, PathBuf};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    scratch: PathBuf,
    out: Option<PathBuf>,
}

const USAGE: &str = "usage: benchmark --workload NAME --seed N --seconds S --trace 0|1 \
                     [--scratch DIR] [--out FILE]\n       benchmark --compare A.jsonl B.jsonl";

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 12.0,
        trace: false,
        scratch: PathBuf::from("benchmark/target/scratch"),
        out: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        let bad = |v: &String| format!("bad value {v:?} for {flag}\n{USAGE}");
        match flag.as_str() {
            "--workload" => a.workload = value()?.clone(),
            "--seed" => a.seed = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--seconds" => a.seconds = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(&v.to_string())),
                }
            }
            "--scratch" => a.scratch = PathBuf::from(value()?),
            "--out" => a.out = Some(PathBuf::from(value()?)),
            _ => return Err(format!("unknown argument {flag:?}\n{USAGE}")),
        }
    }
    if !(a.seconds.is_finite() && a.seconds > 0.0) {
        return Err(format!("--seconds must be positive\n{USAGE}"));
    }
    Ok(a)
}

/// Removes the run's private directory on success and on failure.
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run(a: &Args) -> Result<(), String> {
    let spec = WorkloadSpec::named(&a.workload, false).ok_or_else(|| {
        format!(
            "unknown workload {:?}; one of {:?}",
            a.workload,
            benchmark::spec::NAMES
        )
    })?;
    let dir = ScratchDir(
        a.scratch
            .join(format!("{}-{}", std::process::id(), spec.name)),
    );
    std::fs::create_dir_all(&dir.0).map_err(|e| format!("{}: {e}", dir.0.display()))?;
    // End-to-end numbers are taken with the library's tracing off,
    // whatever the environment says.
    std::env::remove_var("OBS_TRACE");
    obs::set_enabled(false);
    let opts = Opts {
        seed: a.seed,
        seconds: a.seconds,
        scratch: dir.0.clone(),
        setup_reps: 3,
        fixed: None,
        keep_datasets: false,
    };
    let (ops, values, defs, notes) = if a.trace {
        let rec = Recorder::new();
        let trace_path = a.scratch.join(format!("trace-{}.json", spec.name));
        let (ops, values, mut notes) = layers::run(&spec, &opts, &rec, &trace_path)?;
        notes.push(format!("chrome trace: {}", trace_path.display()));
        (ops, values, PER_LAYER, notes)
    } else {
        let e = e2e::run(&spec, &opts, None)?;
        (e.ops, e.metrics()?, END_TO_END, Vec::new())
    };
    let metrics = values.checked(defs)?;
    println!(
        "workload {} seed {} (closed loop, one client; host parallelism {})",
        spec.name,
        a.seed,
        benchmark::host::parallelism()
    );
    for (d, v) in &metrics {
        println!(
            "{:<40} {v:>16.6} {:<7} ({} is better)",
            d.name,
            d.unit,
            d.better.word()
        );
    }
    for note in &notes {
        println!("note: {note}");
    }
    println!(
        "ops_attempted {} ops_failed {} ops_failed_frac {}",
        ops.attempted,
        ops.failed,
        ops.failed_frac()
    );
    let line = result_json(ops, &metrics);
    if let Some(out) = &a.out {
        append_record(out, spec.name, a, &line)?;
    }
    println!("{line}");
    Ok(())
}

/// Append `{"workload", "seed", "trace", "result"}` to a results file
/// (`--compare` reads these).
fn append_record(path: &Path, workload: &str, a: &Args, line: &str) -> Result<(), String> {
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    writeln!(
        f,
        "{{\"workload\": \"{workload}\", \"seed\": {}, \"trace\": {}, \"result\": {line}}}",
        a.seed,
        u8::from(a.trace)
    )
    .map_err(|e| format!("{}: {e}", path.display()))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = if argv.first().map(String::as_str) == Some("--compare") {
        match argv.as_slice() {
            [_, a, b] => match compare::compare_files(Path::new(a), Path::new(b)) {
                Ok(report) => {
                    print!("{}", report.text);
                    i32::from(!report.ok)
                }
                Err(e) => {
                    eprintln!("benchmark: {e}");
                    2
                }
            },
            _ => {
                eprintln!("{USAGE}");
                2
            }
        }
    } else {
        match parse(&argv).and_then(|a| run(&a)) {
            // Failed operations are reported in the result line
            // (`correct: false`), not through the exit code.
            Ok(()) => 0,
            Err(e) => {
                eprintln!("benchmark: {e}");
                2
            }
        }
    };
    std::process::exit(code);
}
