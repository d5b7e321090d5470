//! `--compare A B`: do two sets of runs agree within the benchmark's
//! own bounds?
//!
//! A results file holds one line per run, as `--out` appends them:
//! `{"workload", "seed", "trace", "result"}`. For every workload and
//! metric the medians of the two sets are compared; B fails when an
//! end-to-end metric is worse than A by more than its bound, or when
//! more operations failed. Per-layer metrics have no bound and are
//! listed for information.

use crate::metrics::{Better, MetricDef, END_TO_END, PER_LAYER};
use crate::stats::{median, quartiles};
use obs::json::{self, Json};
use std::collections::BTreeMap;
use std::path::Path;

/// Outcome of a comparison.
pub struct Report {
    /// The table, one line per workload and metric.
    pub text: String,
    /// False when B is worse than A beyond a bound.
    pub ok: bool,
}

/// Values of one set: (workload, metric) → one value per run; plus the
/// failed operations per workload.
#[derive(Default)]
struct Set {
    values: BTreeMap<(String, String), Vec<f64>>,
    failed: BTreeMap<String, f64>,
}

fn load(path: &Path) -> Result<Set, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut set = Set::default();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let at = |what: &str| format!("{}:{}: {what}", path.display(), n + 1);
        let rec = json::parse(line).map_err(|e| at(&e))?;
        let workload = rec.str_of("workload").ok_or_else(|| at("no workload"))?;
        let result = rec.get("result").ok_or_else(|| at("no result"))?;
        *set.failed.entry(workload.to_string()).or_default() +=
            result.num("failed").ok_or_else(|| at("no failed count"))?;
        let Some(Json::Obj(metrics)) = result.get("metrics") else {
            return Err(at("no metrics"));
        };
        for (name, m) in metrics {
            let v = m.num("value").ok_or_else(|| at("metric without value"))?;
            set.values
                .entry((workload.to_string(), name.clone()))
                .or_default()
                .push(v);
        }
    }
    Ok(set)
}

/// "median [q1 .. q3] n spread" of a sample; the spread is the
/// quartile distance as a share of the median.
fn summary(v: &[f64]) -> String {
    let m = median(v);
    if v.len() < 2 {
        return format!("{m:.6}");
    }
    let (q1, q3) = quartiles(v);
    format!(
        "{m:.6} [{q1:.6} .. {q3:.6}] n={} spread {:.2}%",
        v.len(),
        (q3 - q1) / m * 100.0
    )
}

/// Share of `a` by which `b` is worse (negative = better).
fn worse_by(def: &MetricDef, a: f64, b: f64) -> f64 {
    match def.better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// Compare set B against set A.
pub fn compare_files(a: &Path, b: &Path) -> Result<Report, String> {
    let (sa, sb) = (load(a)?, load(b)?);
    let mut text = String::new();
    let mut ok = true;
    for ((workload, name), va) in &sa.values {
        let Some(vb) = sb.values.get(&(workload.clone(), name.clone())) else {
            continue;
        };
        let Some(def) = END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name) else {
            return Err(format!("{}: unknown metric {name}", a.display()));
        };
        let (ma, mb) = (median(va), median(vb));
        let worse = worse_by(def, ma, mb);
        let verdict = match def.bound {
            Some(bound) if worse > bound => {
                ok = false;
                format!(
                    "WORSE by {:.2}% > bound {:.2}%",
                    worse * 100.0,
                    bound * 100.0
                )
            }
            Some(bound) => format!("ok ({:+.2}% of bound {:.2}%)", worse * 100.0, bound * 100.0),
            None => format!("info ({:+.2}% worse)", worse * 100.0),
        };
        text += &format!(
            "{workload:<14} {name:<40} {:<7} A {} | B {} | {verdict}
",
            def.unit,
            summary(va),
            summary(vb)
        );
    }
    for (workload, fa) in &sa.failed {
        let fb = sb.failed.get(workload).copied().unwrap_or(0.0);
        if fb > *fa {
            ok = false;
            text += &format!(
                "{workload:<14} failed operations rose from {fa} to {fb}
"
            );
        }
    }
    text += if ok {
        "AGREE: B is within every bound of A\n"
    } else {
        "DISAGREE: B is worse than A\n"
    };
    Ok(Report { text, ok })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(workload: &str, failed: u64, step_ms: f64, mb_per_s: f64) -> String {
        format!(
            "{{\"workload\": \"{workload}\", \"seed\": 1, \"trace\": 0, \"result\": {{\"correct\": true, \
             \"attempted\": 9, \"failed\": {failed}, \"metrics\": {{\"step_ms_p50\": {{\"value\": {step_ms}, \
             \"unit\": \"ms\"}}, \"ckpt_mb_per_s\": {{\"value\": {mb_per_s}, \"unit\": \"MB/s\"}}}}}}}}\n"
        )
    }

    fn file(name: &str, body: &str) -> std::path::PathBuf {
        let p =
            std::env::temp_dir().join(format!("benchmark-compare-{}-{name}", std::process::id()));
        std::fs::write(&p, body).unwrap();
        p
    }

    #[test]
    fn flags_a_metric_worse_than_its_bound_in_either_direction() {
        let a = file(
            "a",
            &(line("w", 0, 100.0, 50.0) + &line("w", 0, 102.0, 51.0) + &line("w", 0, 98.0, 49.0)),
        );
        // Within bounds both ways.
        let b = file(
            "b",
            &(line("w", 0, 103.0, 49.0) + &line("w", 0, 101.0, 50.5)),
        );
        assert!(compare_files(&a, &b).unwrap().ok);
        assert!(compare_files(&b, &a).unwrap().ok);
        // A lower-is-better metric that rose, a higher-is-better one that fell.
        let slow = file("slow", &line("w", 0, 140.0, 50.0));
        let r = compare_files(&a, &slow).unwrap();
        assert!(!r.ok && r.text.contains("step_ms_p50") && r.text.contains("WORSE"));
        assert!(
            compare_files(&slow, &a).unwrap().ok,
            "getting better is not a failure"
        );
        let thin = file("thin", &line("w", 0, 100.0, 30.0));
        assert!(!compare_files(&a, &thin).unwrap().ok);
        // More failed operations fail the comparison on their own.
        let broken = file("broken", &line("w", 2, 100.0, 50.0));
        assert!(!compare_files(&a, &broken).unwrap().ok);
        for p in [a, b, slow, thin, broken] {
            let _ = std::fs::remove_file(p);
        }
    }
}
