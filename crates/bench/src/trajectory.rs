//! `BENCH_trajectory.json`: the repository's performance record, one
//! row per change that was measured against its parent.
//!
//! A row is folded from two result files of the frozen harness
//! (`benchmark/run.sh --out FILE`, one JSON line per run): the parent's
//! runs and the change's, taken as alternating pairs on one host, every
//! run at one seed. Per workload and end-to-end metric it keeps the
//! median and quartiles of each side and the pairs the change won (run
//! *i* of the parent against run *i* of the change); beside them, what
//! the result files cannot say: the host's parallelism and the
//! `/proc/stat` steal ticks read before and after the runs. The result
//! files are committed with the trajectory, so [`check`] re-folds every
//! row from them and refuses one that departs.

use obs::json::{self, obj, Json};
use std::collections::BTreeMap;
use std::path::Path;

/// The trajectory file, at the repository root.
pub const FILE: &str = "BENCH_trajectory.json";

/// What a row records beside its statistics.
pub struct Provenance {
    /// One line naming the change.
    pub change: String,
    /// The parent commit the change was measured against.
    pub parent_commit: String,
    /// The parent's result file, relative to the repository root.
    pub parent_runs: String,
    /// The change's result file, relative to the repository root.
    pub change_runs: String,
    /// Cores of the host that ran both sides.
    pub host_parallelism: u64,
    /// The `steal` column of `/proc/stat`'s `cpu` line before and after
    /// the runs (ticks of time the hypervisor gave to other guests).
    pub steal_ticks: [u64; 2],
}

impl Provenance {
    fn to_json(&self) -> Vec<(&'static str, Json)> {
        let [before, after] = self.steal_ticks.map(|t| Json::Num(t as f64));
        vec![
            ("change", Json::Str(self.change.clone())),
            ("parent_commit", Json::Str(self.parent_commit.clone())),
            ("parent_runs", Json::Str(self.parent_runs.clone())),
            ("change_runs", Json::Str(self.change_runs.clone())),
            ("host_parallelism", Json::Num(self.host_parallelism as f64)),
            ("steal_ticks", obj([("before", before), ("after", after)])),
        ]
    }

    fn from_json(row: &Json) -> Result<Provenance, String> {
        let text = |key: &str| {
            (row.str_of(key).filter(|s| !s.is_empty()))
                .map(str::to_string)
                .ok_or_else(|| format!("no {key}"))
        };
        let count = |v: Option<f64>, what: &str| match v {
            Some(n) if n >= 0.0 && n.fract() == 0.0 => Ok(n as u64),
            _ => Err(format!("{what} is not a count")),
        };
        let steal = row.get("steal_ticks").ok_or("no steal_ticks")?;
        let steal_ticks = [
            count(steal.num("before"), "steal_ticks.before")?,
            count(steal.num("after"), "steal_ticks.after")?,
        ];
        if steal_ticks[1] < steal_ticks[0] {
            return Err("steal ticks went backwards".into());
        }
        let host_parallelism = count(row.num("host_parallelism"), "host_parallelism")?;
        if host_parallelism == 0 {
            return Err("host_parallelism is 0".into());
        }
        Ok(Provenance {
            change: text("change")?,
            parent_commit: text("parent_commit")?,
            parent_runs: text("parent_runs")?,
            change_runs: text("change_runs")?,
            host_parallelism,
            steal_ticks,
        })
    }
}

/// One side's runs: (workload, metric) → one value per run, in file
/// order; the failed operations per workload; the seeds seen.
#[derive(Default)]
struct Runs {
    values: BTreeMap<(String, String), Vec<f64>>,
    runs: BTreeMap<String, usize>,
    failed: BTreeMap<String, f64>,
    seeds: Vec<u64>,
}

fn load_runs(path: &Path) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut runs = Runs::default();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let at = |what: &str| format!("{}:{}: {what}", path.display(), n + 1);
        let rec = json::parse(line).map_err(|e| at(&e))?;
        let workload = rec.str_of("workload").ok_or_else(|| at("no workload"))?;
        let seed = rec.num("seed").ok_or_else(|| at("no seed"))?;
        if rec.num("trace") != Some(0.0) {
            return Err(at(
                "a traced run reports per-layer metrics, not end-to-end ones",
            ));
        }
        let result = rec.get("result").ok_or_else(|| at("no result"))?;
        let Some(Json::Obj(metrics)) = result.get("metrics") else {
            return Err(at("no metrics"));
        };
        runs.seeds.push(seed as u64);
        *runs.runs.entry(workload.into()).or_default() += 1;
        *runs.failed.entry(workload.into()).or_default() +=
            result.num("failed").ok_or_else(|| at("no failed count"))?;
        for (name, m) in metrics {
            let v = m.num("value").ok_or_else(|| at("metric without value"))?;
            (runs.values.entry((workload.into(), name.clone())))
                .or_default()
                .push(v);
        }
    }
    Ok(runs)
}

/// Linear-interpolated percentile (`p` in 0..=1), numpy's default.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    let pos = p * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median and quartiles, the quartiles by the exclusive method (the
/// harness's `--compare` and Python's `statistics.quantiles`); one run
/// has its value as all three.
fn summary(values: &[f64]) -> Json {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let q = |k: usize| {
        if n < 2 {
            return v[0];
        }
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    obj([
        ("median", Json::Num(percentile(&v, 0.5))),
        ("q1", Json::Num(q(1))),
        ("q3", Json::Num(q(3))),
    ])
}

/// End-to-end metric name → "lower" or "higher", from `BENCHMARK.json`.
fn directions(root: &Path) -> Result<BTreeMap<String, String>, String> {
    let path = root.join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let defs = doc
        .arr("end_to_end")
        .ok_or("BENCHMARK.json: no end_to_end")?;
    (defs.iter())
        .map(|d| match (d.str_of("name"), d.str_of("better")) {
            (Some(name), Some(better @ ("lower" | "higher"))) => {
                Ok((name.to_string(), better.to_string()))
            }
            _ => Err("BENCHMARK.json: an end_to_end entry without name or direction".into()),
        })
        .collect()
}

/// The row of `p`'s two result files (paths relative to `root`).
pub fn fold(p: &Provenance, root: &Path) -> Result<Json, String> {
    let better = directions(root)?;
    let parent = load_runs(&root.join(&p.parent_runs))?;
    let change = load_runs(&root.join(&p.change_runs))?;
    let mut seeds = parent.seeds.iter().chain(&change.seeds);
    let seed = *seeds.next().ok_or("no runs")?;
    if !seeds.all(|&s| s == seed) {
        return Err("the runs are not all at one seed".into());
    }
    if parent.runs != change.runs {
        return Err(format!(
            "unpaired runs: parent {:?}, change {:?}",
            parent.runs, change.runs
        ));
    }
    let mut workloads = BTreeMap::new();
    for (workload, &pairs) in &parent.runs {
        let mut metrics = BTreeMap::new();
        for ((w, name), a) in &parent.values {
            if w != workload {
                continue;
            }
            let dir = better
                .get(name)
                .ok_or_else(|| format!("unknown metric {name}"))?;
            let b = (change.values.get(&(w.clone(), name.clone())))
                .filter(|b| b.len() == a.len() && a.len() == pairs)
                .ok_or_else(|| format!("{workload} {name}: unpaired values"))?;
            let won = (a.iter().zip(b))
                .filter(|(a, b)| if dir == "lower" { b < a } else { b > a })
                .count();
            let entry = obj([
                ("better", Json::Str(dir.clone())),
                ("parent", summary(a)),
                ("change", summary(b)),
                ("pairs_won", Json::Num(won as f64)),
            ]);
            metrics.insert(name.clone(), entry);
        }
        let failed = |r: &Runs| Json::Num(r.failed[workload]);
        let entry = obj([
            ("pairs", Json::Num(pairs as f64)),
            (
                "failed",
                obj([("parent", failed(&parent)), ("change", failed(&change))]),
            ),
            ("metrics", Json::Obj(metrics)),
        ]);
        workloads.insert(workload.clone(), entry);
    }
    let mut row = p.to_json();
    row.push(("seed", Json::Num(seed as f64)));
    row.push(("workloads", Json::Obj(workloads)));
    Ok(obj(row))
}

/// The rows of the trajectory document `doc`.
fn rows(doc: &Json) -> Result<&[Json], String> {
    match doc {
        Json::Obj(m) if m.len() == 1 => doc.arr("rows").ok_or_else(|| "no rows".into()),
        _ => Err("the document is not {\"rows\": [..]}".into()),
    }
}

/// Append `row` to the trajectory at `root` (creating it).
pub fn append(root: &Path, row: Json) -> Result<(), String> {
    let path = root.join(FILE);
    let mut all = match std::fs::read_to_string(&path) {
        Ok(text) => rows(&json::parse(&text)?)?.to_vec(),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(format!("{}: {e}", path.display())),
    };
    all.push(row);
    let doc = obj([("rows", Json::Arr(all))]);
    std::fs::write(&path, format!("{doc}\n")).map_err(|e| format!("{}: {e}", path.display()))
}

/// Check the trajectory at `root`: every row has its provenance and is
/// exactly the fold of its committed result files. Returns the rows.
pub fn check(root: &Path) -> Result<usize, String> {
    let path = root.join(FILE);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{FILE}: {e}"))?;
    let rows = rows(&doc).map_err(|e| format!("{FILE}: {e}"))?;
    if rows.is_empty() {
        return Err(format!("{FILE}: no rows"));
    }
    for (i, row) in rows.iter().enumerate() {
        let at = |e: String| format!("{FILE}: row {i}: {e}");
        let p = Provenance::from_json(row).map_err(at)?;
        if fold(&p, root).map_err(at)? != *row {
            return Err(at("departs from the fold of its result files".into()));
        }
    }
    Ok(rows.len())
}
