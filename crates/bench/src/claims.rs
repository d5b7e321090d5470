//! The paper's evaluation as a table of checked claims.
//!
//! Each row of [`CLAIMS`] is one paper artifact: a function from the
//! shared [`Scenarios`] to an [`obs::Json`] value, and a predicate over
//! that value which is the paper's own sentence about the figure. The
//! `repro` binary dispatches on the table, and `REPRO.json` at the
//! repository root holds what every row measured and whether its claim
//! held — a claim the simulator does not reproduce is committed as
//! `"holds": false`, not re-worded. The last two rows are this
//! repository's own extensions (the online-adaptive reservation in a
//! simulated scale-out stream and in a real one), stated and checked
//! the same way; the table is the one place an evaluation record is
//! emitted.

use crate::setup::{eb_for_bitrate, models_for, Data, Profiles, Scenarios};
use crate::setup::{MEASURED_RANKS, NYX_SIDE};
use obs::json::obj;
use obs::Json;
use pfsim::{simulate_concurrent_writes, BandwidthModel};
use predwrite::{simulate_method, ExtraSpacePolicy, Method, RunResult, SimParams, RSPACE_MAX};
use predwrite::{simulate_stream, PartitionProfile, RankFieldData, ReservationTopology};
use predwrite::{StepMetrics, StreamSimConfig, TimelineReport};
use ratiomodel::{estimate_partition_with, fit_throughput, observe, paper_bound_sweep};
use ratiomodel::{EstimateScratch, Models, OnlineConfig, ThroughputModel};
use std::time::Instant;
use szlite::{compress_into, compress_with_stats, Config, Dims, Scratch};
use timeline::{partition_3d, partition_stream_step, run_timeline, AdaptMode, TimelineConfig};
use workloads::{nyx, Dataset, NyxParams, SnapshotStream};

/// One paper artifact as a checked claim.
pub struct Claim {
    /// The `repro` sub-command.
    pub name: &'static str,
    /// The figure and the paper's sentence about it, which `holds`
    /// decides.
    pub claim: &'static str,
    measure: fn(&Scenarios) -> Json,
    holds: fn(&Json) -> bool,
}

/// Relative tolerance within which a simulator-deterministic number
/// must match its committed value (the hosts' `libm`s may differ in
/// the last place; nothing else may).
const REL_TOL: f64 = 1e-6;

/// Every surviving artifact, in paper order, then this repository's
/// extensions.
pub static CLAIMS: [Claim; 14] = [
    Claim {
        name: "fig1",
        claim: "Fig. 1: one field's per-partition bit-rates spread wider than any supported \
                extra-space ratio, so offsets cannot be pre-allocated statically",
        measure: fig1,
        holds: |v| num(v, "spread") > num(v, "rspace_max"),
    },
    Claim {
        name: "fig9",
        claim: "Fig. 8/9: as the extra-space ratio rises, storage overhead rises while the \
                overflowing share of partitions and the performance overhead fall",
        measure: fig9,
        holds: tradeoff_holds,
    },
    Claim {
        name: "fig11",
        claim: "Fig. 11: Eq. 1 fitted on one field predicts every field's compression time, \
                median relative error within the bound",
        measure: |_| comp_time_accuracy(calibrated_on(NYX_SIDE), MEASURED_RANKS),
        holds: |v| num(v, "median_rel_err") <= num(v, "bound"),
    },
    Claim {
        name: "fig12",
        claim: "Fig. 12: the Eq. 1 fit transfers to a larger grid on more ranks, median \
                relative error within the bound",
        measure: |_| comp_time_accuracy(calibrated_on(NYX_SIDE / 2), 64),
        holds: |v| num(v, "median_rel_err") <= num(v, "bound"),
    },
    Claim {
        name: "fig13",
        claim: "Fig. 13: Eq. 2 orders the fields' write times as the file system does, and its \
                relative error falls as the compressed size grows",
        measure: fig13,
        holds: |v| {
            never_falls(&series(v, "predicted_s"), 2)
                && never_falls(&series(v, "actual_s"), 2)
                && never_falls(&negated(v, "rel_err"), 2)
        },
    },
    Claim {
        name: "fig14",
        claim: "Fig. 14: every field's trade-off curve has the Fig. 9 shape on both datasets \
                and both systems, so one offline mapping serves all",
        measure: fig14,
        holds: |v| rows(v, "curves").iter().all(tradeoff_holds) && !rows(v, "curves").is_empty(),
    },
    Claim {
        name: "fig15",
        claim: "Fig. 15: at a fixed extra-space ratio the overheads stay consistent across \
                time-steps, each varying by less than one step of the Fig. 9 grid",
        measure: fig15,
        holds: |v| {
            ["storage_overhead", "perf_overhead", "overflow_frac"]
                .iter()
                .all(|key| {
                    let x = series(v, key);
                    let spread = x.iter().fold(f64::MIN, |m, &a| m.max(a))
                        - x.iter().fold(f64::MAX, |m, &a| m.min(a));
                    x.len() >= 2 && spread < num(v, "tolerance")
                })
        },
    },
    Claim {
        name: "fig16",
        claim: "Fig. 16 and the section IV-D headline: at 512 ranks no-compression > \
                filter+collective > overlapping >= overlap+reorder in step time, and part of \
                the write is hidden under compression",
        measure: fig16,
        holds: |v| ordering_holds(v) && num(v, "hidden_write_frac") > 0.0,
    },
    Claim {
        name: "fig17ab",
        claim: "Fig. 17 a/b: at every compression ratio both overlapped methods beat both \
                baselines and reordering never loses; its gain vanishes toward both extreme \
                ratios",
        measure: |sc| obj([("scenarios", Json::Arr(sweep(sc, &RATIO_SWEEP, true)))]),
        holds: |v| {
            every(v, "scenarios", ours_win) && peak_is_interior(&nyx_column(v, "reorder_gain"))
        },
    },
    Claim {
        name: "fig17cd",
        claim: "Fig. 17 c/d: the Fig. 16 ordering holds at every scale from 256 to 4096 ranks; \
                compression and prediction times do not change with scale, only the all-gather \
                grows",
        measure: fig17cd,
        holds: fig17cd_holds,
    },
    Claim {
        name: "fig18a",
        claim: "Fig. 18, ratio sweep: at every ratio the predictive write beats both baselines \
                with storage overhead inside Eq. 3's widest reservation, and gains most over \
                the filter at a mid ratio",
        measure: |sc| improvements(sc, &RATIO_SWEEP),
        holds: |v| improvement_holds(v) && peak_is_interior(&nyx_column(v, "vs_filter")),
    },
    Claim {
        name: "fig18b",
        claim: "Fig. 18, scale sweep: at every scale the predictive write beats both baselines \
                with storage overhead inside Eq. 3's widest reservation, and its gain over the \
                filter never falls below the smallest scale's",
        measure: |sc| improvements(sc, &SCALE_SWEEP),
        holds: |v| {
            let gain = nyx_column(v, "vs_filter");
            improvement_holds(v) && gain.iter().all(|&g| g >= gain[0] * (1.0 - FLAT))
        },
    },
    Claim {
        name: "scale",
        claim: "Extension (not in the paper): in a simulated stream whose offline model errs \
                both ways, the online-adaptive reservation wastes less space, redirects fewer \
                overflow bytes and overflows fewer partitions than the static one at every \
                scale from 512 ranks",
        measure: scale,
        holds: |v| {
            let large: Vec<&Json> = (rows(v, "sweeps").iter())
                .filter(|s| num(s, "ranks") >= 512.0)
                .collect();
            let wins = |s: &&Json| {
                ["waste_bytes", "overflow_bytes", "overflow_partitions"]
                    .iter()
                    .all(|key| {
                        let [static_run, adaptive_run] = by_mode(s, key);
                        adaptive_run < static_run
                    })
            };
            !large.is_empty() && large.iter().all(wins)
        },
    },
    Claim {
        name: "timeline",
        claim: "Extension (not in the paper): streaming Nyx, VPIC and RTM checkpoints through \
                the real engine, the online-adaptive reservation wastes less space than the \
                static one at no more overflowing partitions",
        measure: timeline,
        holds: |v| {
            every(v, "workloads", |w| {
                let [waste, adaptive_waste] = by_mode(w, "waste_bytes");
                let [overflows, adaptive_overflows] = by_mode(w, "overflow_partitions");
                adaptive_waste < waste && adaptive_overflows <= overflows
            })
        },
    },
];

impl Claim {
    /// Measure the artifact and judge its claim: the entry `REPRO.json`
    /// holds under [`Claim::name`].
    pub fn evaluate(&self, scenarios: &Scenarios) -> Json {
        let value = (self.measure)(scenarios);
        obj([
            ("claim", Json::Str(self.claim.into())),
            ("holds", Json::Bool((self.holds)(&value))),
            ("value", value),
        ])
    }
}

/// Where a fresh entry departs from the committed one, if it does: in
/// its claim or verdict, or in any number of its value beyond a
/// relative 1e-6 — unless the value says it is `wall_clock`, which
/// differs from run to run.
pub fn difference(fresh: &Json, committed: &Json) -> Option<String> {
    let timed = fresh.get("value").and_then(|v| v.bool_of("wall_clock")) == Some(true);
    let keys = ["claim", "holds", "value"];
    keys[..if timed { 2 } else { 3 }].iter().find_map(|key| {
        let member = |entry: &Json| entry.get(key).cloned().unwrap_or(Json::Null);
        value_difference(key, &member(fresh), &member(committed))
    })
}

fn value_difference(path: &str, fresh: &Json, committed: &Json) -> Option<String> {
    match (fresh, committed) {
        (Json::Num(a), Json::Num(b)) => ((a - b).abs() > REL_TOL * a.abs().max(b.abs()))
            .then(|| format!("{path}: {a}, committed {b}")),
        (Json::Arr(a), Json::Arr(b)) if a.len() == b.len() => a
            .iter()
            .zip(b)
            .enumerate()
            .find_map(|(i, (x, y))| value_difference(&format!("{path}[{i}]"), x, y)),
        (Json::Obj(a), Json::Obj(b)) if a.keys().eq(b.keys()) => a
            .iter()
            .find_map(|(k, x)| value_difference(&format!("{path}.{k}"), x, &b[k])),
        (a, b) => (a != b).then(|| format!("{path}: {a}, committed {b}")),
    }
}

// ---- Reading and writing the values the claims speak of ----

/// Numeric members of an object.
fn numeric<const N: usize>(
    members: [(&'static str, f64); N],
) -> impl Iterator<Item = (&'static str, Json)> {
    members.into_iter().map(|(k, x)| (k, Json::Num(x)))
}

fn array(values: impl IntoIterator<Item = f64>) -> Json {
    Json::Arr(values.into_iter().map(Json::Num).collect())
}

/// Member `key`, NaN — which no comparison accepts — when missing.
fn num(v: &Json, key: &str) -> f64 {
    v.num(key).unwrap_or(f64::NAN)
}

/// The numbers of array member `key` (empty when missing).
fn series(v: &Json, key: &str) -> Vec<f64> {
    let mut out = Vec::new();
    v.get(key).into_iter().for_each(|a| a.numbers(&mut out));
    out
}

fn negated(v: &Json, key: &str) -> Vec<f64> {
    series(v, key).iter().map(|x| -x).collect()
}

fn rows<'a>(v: &'a Json, key: &str) -> &'a [Json] {
    v.arr(key).unwrap_or_default()
}

/// Member `key` of the Nyx scenarios of a sweep.
fn nyx_column(v: &Json, key: &str) -> Vec<f64> {
    let nyx = |s: &&Json| s.str_of("dataset") == Some("nyx");
    let scenarios = rows(v, "scenarios").iter().filter(nyx);
    scenarios.map(|s| num(s, key)).collect()
}

/// A step smaller than this share of a series' largest magnitude is
/// flat: the figures are read to three digits.
const FLAT: f64 = 1e-3;

/// At least `min_len` values, none below its predecessor.
fn never_falls(x: &[f64], min_len: usize) -> bool {
    let flat = FLAT * x.iter().fold(0.0, |m: f64, v| m.max(v.abs()));
    x.len() >= min_len && x.windows(2).all(|w| w[1] >= w[0] - flat)
}

/// Both ends lie below the largest value.
fn peak_is_interior(x: &[f64]) -> bool {
    let max = x.iter().fold(f64::MIN, |m, &a| m.max(a));
    x.len() >= 3 && x[0] < max && x[x.len() - 1] < max
}

// ---- Fig. 1 ----

fn fig1(_: &Scenarios) -> Json {
    let side = NYX_SIDE;
    let field = nyx::single_field(NyxParams::with_side(side), "baryon_density");
    let eb = eb_for_bitrate(&field.data, &Dims::d3(side, side, side), 2.0);
    let ds = Dataset {
        name: String::new(),
        fields: vec![field],
    };
    let rates: Vec<f64> = partition_3d(&ds, 512)
        .iter()
        .map(|p| {
            let (_, stats) = compress_with_stats(&p[0].data, &p[0].dims, &Config::rel(eb))
                .expect("partition compresses");
            stats.bit_rate()
        })
        .collect();
    let min = rates.iter().fold(f64::MAX, |m, &a| m.min(a));
    let max = rates.iter().fold(f64::MIN, |m, &a| m.max(a));
    obj(numeric([
        ("partitions", rates.len() as f64),
        ("min_bits", min),
        ("max_bits", max),
        ("spread", max / min),
        ("rspace_max", RSPACE_MAX),
    ]))
}

// ---- Fig. 8/9, 14, 15: the extra-space trade-off ----

const fn nyx_at(bits: f64) -> Data {
    let redshift = 2.0;
    Data::Nyx { redshift, bits }
}

/// The overlapped write of `profiles` on `system` at each extra-space
/// ratio: storage overhead, performance overhead — following the paper
/// (§IV-C), extra time over the *write* time of a run whose
/// reservations are so large that nothing overflows — and the
/// overflowing share of partitions.
fn tradeoff(
    profiles: &Profiles,
    system: &BandwidthModel,
    rspaces: &[f64],
) -> [(&'static str, Json); 4] {
    let run = |rspace: f64| {
        let params = SimParams::new(*system).with_policy(ExtraSpacePolicy::new(rspace));
        simulate_method(Method::Overlap, profiles, &params)
    };
    let base = run(8.0);
    let base_write = (base.breakdown.write + base.breakdown.overflow).max(1e-9);
    let runs: Vec<RunResult> = rspaces.iter().map(|&rs| run(rs)).collect();
    let partitions = profiles.iter().map(Vec::len).sum::<usize>() as f64;
    let perf = |r: &RunResult| ((r.total_time - base.total_time) / base_write).max(0.0);
    let overflowing = |r: &RunResult| r.n_overflow as f64 / partitions;
    [
        ("rspace", array(rspaces.iter().copied())),
        (
            "storage_overhead",
            array(runs.iter().map(RunResult::storage_overhead)),
        ),
        ("perf_overhead", array(runs.iter().map(perf))),
        ("overflow_frac", array(runs.iter().map(overflowing))),
    ]
}

fn tradeoff_holds(curve: &Json) -> bool {
    let storage = series(curve, "storage_overhead");
    never_falls(&storage, 2)
        && storage[0] < storage[storage.len() - 1]
        && never_falls(&negated(curve, "perf_overhead"), 2)
        && never_falls(&negated(curve, "overflow_frac"), 2)
}

fn fig9(sc: &Scenarios) -> Json {
    let summit = BandwidthModel::summit();
    let rspaces = [1.05, 1.1, 1.15, 1.2, 1.25, 1.3, 1.43, 1.6];
    let curve = tradeoff(&sc.profiles(nyx_at(2.0), &summit, 512), &summit, &rspaces);
    obj(curve.into_iter().chain([("ranks", Json::Num(512.0))]))
}

fn fig14(sc: &Scenarios) -> Json {
    let rspaces = [1.05, 1.1, 1.25, 1.43, 1.6];
    let systems = [
        ("summit", BandwidthModel::summit()),
        ("bebop", BandwidthModel::bebop()),
    ];
    let mut curves = Vec::new();
    for (system_name, system) in systems {
        for (dataset, data) in [("nyx", nyx_at(2.0)), ("vpic", Data::Vpic { bits: 2.0 })] {
            let profiles = sc.profiles(data, &system, 512);
            for field in 0..3 {
                let one_field: Profiles = profiles.iter().map(|r| vec![r[field]]).collect();
                let curve = tradeoff(&one_field, &system, &rspaces);
                curves.push(obj(curve.into_iter().chain([
                    ("system", Json::Str(system_name.into())),
                    ("dataset", Json::Str(dataset.into())),
                    ("field", Json::Num(field as f64)),
                ])));
            }
        }
    }
    obj([("curves", Json::Arr(curves))])
}

fn fig15(sc: &Scenarios) -> Json {
    let summit = BandwidthModel::summit();
    let redshifts = [10.0, 8.0, 6.0, 4.0, 2.0, 1.0, 0.5];
    let points: Vec<Json> = redshifts
        .iter()
        .map(|&redshift| {
            let bits = 2.0;
            let profiles = sc.profiles(Data::Nyx { redshift, bits }, &summit, 512);
            obj(tradeoff(&profiles, &summit, &[1.25]))
        })
        .collect();
    let across = |key: &str| array(points.iter().flat_map(|p| series(p, key)));
    obj([
        ("rspace", Json::Num(1.25)),
        // One step of Fig. 9's extra-space grid.
        ("tolerance", Json::Num(0.05)),
        ("redshift", array(redshifts)),
        ("storage_overhead", across("storage_overhead")),
        ("perf_overhead", across("perf_overhead")),
        ("overflow_frac", across("overflow_frac")),
    ])
}

// ---- Fig. 11–13: estimation accuracy ----

/// Bound on the median relative error of a time estimate (Fig. 11/12:
/// "predictions track actual compression times"): within a factor of
/// 1.5, which is what Algorithm 1's ordering — the estimate's one
/// consumer — needs. The median, because one descheduled partition of
/// 48 moves the mean by more; and no tighter, because a shared host
/// moves the whole run: the same binary reads 0.08–0.19 (Fig. 11) and
/// 0.14–0.33 (Fig. 12, whose 16 KiB partitions carry per-call costs
/// Eq. 1 does not model) from one run to the next.
const TIME_ERR_BOUND: f64 = 0.5;

/// Timings kept per measurement, fastest wins: a descheduled run is
/// neither the model nor the partition's cost.
const REPEATS: usize = 9;

/// Eq. 1 fitted on the baryon-density field of a `side³` snapshot (the
/// paper's procedure).
fn calibrated_on(side: usize) -> ThroughputModel {
    let field = nyx::single_field(NyxParams::with_side(side), "baryon_density");
    let dims = Dims::d3(side, side, side);
    let sweeps: Vec<_> = (0..REPEATS)
        .map(|_| observe(&field.data, &dims, &paper_bound_sweep()))
        .collect();
    let samples: Vec<(f64, f64)> = (0..sweeps[0].len())
        .map(|i| {
            let fastest = sweeps.iter().map(|s| s[i].throughput).fold(0.0, f64::max);
            (sweeps[0][i].bit_rate, fastest)
        })
        .collect();
    fit_throughput(&samples)
}

/// Predicted against measured compression time of every partition of
/// the snapshot split over `nranks`, compressed the way a rank of the
/// engine (and the calibration) does: through one resident scratch.
fn comp_time_accuracy(model: ThroughputModel, nranks: usize) -> Json {
    let ds = nyx::snapshot(NyxParams::with_side(NYX_SIDE));
    let cfg = Config::rel(1e-3);
    let models = Models {
        throughput: model,
        ..Models::with_cthr(1.0)
    };
    let mut scratch = EstimateScratch::new();
    let (mut sz, mut stream) = (Scratch::new(), Vec::new());
    let mut errs: Vec<f64> = partition_3d(&ds, nranks)
        .iter()
        .flatten()
        .map(|p| {
            let predicted = estimate_partition_with(&p.data, &p.dims, &cfg, &models, &mut scratch)
                .expect("partition samples")
                .comp_time;
            let timed = (0..REPEATS).map(|_| {
                let start = Instant::now();
                compress_into(&p.data, &p.dims, &cfg, &mut sz, &mut stream)
                    .expect("partition compresses");
                start.elapsed().as_secs_f64()
            });
            let actual = timed.fold(f64::MAX, f64::min);
            (predicted - actual).abs() / actual
        })
        .collect();
    errs.sort_by(f64::total_cmp);
    let errors = numeric([
        ("partitions", errs.len() as f64),
        ("mean_rel_err", errs.iter().sum::<f64>() / errs.len() as f64),
        ("median_rel_err", errs[errs.len() / 2]),
        ("p90_rel_err", errs[errs.len() * 9 / 10]),
        ("bound", TIME_ERR_BOUND),
    ]);
    obj(errors.chain([("wall_clock", Json::Bool(true))]))
}

/// Per field, Eq. 2's prediction for rank 0 against the event engine's
/// time when all 64 ranks write their compressed partition of that
/// field concurrently; fields in order of predicted time.
fn fig13(sc: &Scenarios) -> Json {
    let summit = BandwidthModel::summit();
    let profiles = sc.profiles(nyx_at(4.0), &summit, 64);
    let write = models_for(&summit).write;
    let mut fields: Vec<[f64; 4]> = (0..profiles[0].len())
        .map(|f| {
            let sizes: Vec<f64> = profiles.iter().map(|r| r[f].actual_bytes as f64).collect();
            let actual = simulate_concurrent_writes(&sizes, &summit).0[0];
            let p = &profiles[0][f];
            let predicted = write.write_time(p.actual_bit_rate(), p.n_points);
            let rel_err = (predicted - actual).abs() / actual;
            [predicted, actual, rel_err, p.actual_bit_rate()]
        })
        .collect();
    fields.sort_by(|a, b| a[0].total_cmp(&b[0]));
    let column = |i: usize| array(fields.iter().map(|f| f[i]));
    obj([
        ("ranks", Json::Num(profiles.len() as f64)),
        ("predicted_s", column(0)),
        ("actual_s", column(1)),
        ("rel_err", column(2)),
        ("bit_rate", column(3)),
    ])
}

// ---- Fig. 16–18: the four methods ----

/// The stacked bars of one scenario, in [`Method::ALL`] order.
fn methods_json(runs: &[RunResult]) -> Json {
    let bar = |r: &RunResult| {
        let times = numeric([
            ("total_s", r.total_time),
            ("predict_s", r.breakdown.predict),
            ("allgather_s", r.breakdown.allgather),
            ("compress_s", r.breakdown.compress),
            ("write_s", r.breakdown.write),
            ("overflow_s", r.breakdown.overflow),
            ("effective_ratio", r.effective_ratio()),
        ]);
        obj(times.chain([("method", Json::Str(r.method.label().into()))]))
    };
    Json::Arr(runs.iter().map(bar).collect())
}

fn step_times(scenario: &Json) -> Vec<f64> {
    rows(scenario, "methods")
        .iter()
        .map(|m| num(m, "total_s"))
        .collect()
}

/// No-compression > filter+collective > overlapping ≥ overlap+reorder
/// in step time.
fn ordering_holds(scenario: &Json) -> bool {
    let t = step_times(scenario);
    t.len() == 4 && t[0] > t[1] && t[1] > t[2] && t[2] >= t[3]
}

/// Both overlapped methods beat both baselines, and reordering does
/// not lose to the original order.
fn ours_win(scenario: &Json) -> bool {
    let t = step_times(scenario);
    t.len() == 4 && t[2] < t[0].min(t[1]) && t[3] <= t[2]
}

/// Array member `key` is non-empty and `row_holds` for every row of it.
fn every(v: &Json, key: &str, row_holds: fn(&Json) -> bool) -> bool {
    !rows(v, key).is_empty() && rows(v, key).iter().all(row_holds)
}

fn fig16(sc: &Scenarios) -> Json {
    let summit = BandwidthModel::summit();
    let runs = sc.runs(nyx_at(2.0), 512);
    let [no, filter, overlap, ours] = &runs[..] else {
        unreachable!("one run per method");
    };
    // The benchmark's `predwrite.overlap_hidden_frac`, in simulated
    // time: t_c + t_w − step over min(t_c, t_w), where t_w is the same
    // step with nothing to compress.
    let mut write_only = sc.profiles(nyx_at(2.0), &summit, 512);
    for p in write_only.iter_mut().flatten() {
        p.comp_time = 0.0;
    }
    let t_w = simulate_method(ours.method, &write_only, &SimParams::new(summit)).total_time;
    let t_c = ours.breakdown.predict + ours.breakdown.compress;
    let hidden = ((t_c + t_w - ours.total_time) / t_c.min(t_w)).clamp(0.0, 1.0);
    let headline = numeric([
        ("ranks", 512.0),
        ("hidden_write_frac", hidden),
        ("speedup_vs_nocomp", ours.speedup_over(no)),
        ("speedup_vs_filter", ours.speedup_over(filter)),
        ("filter_vs_nocomp", filter.speedup_over(no)),
        ("overlap_vs_filter", overlap.speedup_over(filter)),
        ("reorder_vs_overlap", ours.speedup_over(overlap)),
        ("ideal_ratio", ours.ideal_ratio()),
        ("effective_ratio", ours.effective_ratio()),
        ("storage_overhead", ours.storage_overhead()),
        (
            "storage_overhead_vs_original",
            ours.storage_overhead_vs_original(),
        ),
    ]);
    obj(headline.chain([("methods", methods_json(&runs))]))
}

/// Fig. 17 a/b and 18: target bit-rates at 512 ranks.
const RATIO_SWEEP: [(Data, usize); 7] = [
    (nyx_at(0.5), 512),
    (nyx_at(1.0), 512),
    (nyx_at(2.0), 512),
    (nyx_at(4.0), 512),
    (nyx_at(8.0), 512),
    (Data::Vpic { bits: 1.0 }, 512),
    (Data::Vpic { bits: 4.0 }, 512),
];

/// Fig. 17 c/d and 18: weak scaling at 2 bits/value.
const SCALE_SWEEP: [(Data, usize); 5] = [
    (nyx_at(2.0), 256),
    (nyx_at(2.0), 512),
    (nyx_at(2.0), 1024),
    (nyx_at(2.0), 2048),
    (nyx_at(2.0), 4096),
];

/// One scenario per point of `points`: where it lies, what the
/// predictive write gains over the baselines and costs in storage,
/// and — for Fig. 17 — the four stacked bars.
fn sweep(sc: &Scenarios, points: &[(Data, usize)], bars: bool) -> Vec<Json> {
    let scenario = |&(data, ranks): &(Data, usize)| {
        let runs = sc.runs(data, ranks);
        let [no, filter, overlap, ours] = &runs[..] else {
            unreachable!("one run per method");
        };
        let (dataset, bits) = match data {
            Data::Nyx { bits, .. } => ("nyx", bits),
            Data::Vpic { bits } => ("vpic", bits),
        };
        let gains = numeric([
            ("bits", bits),
            ("ranks", ranks as f64),
            ("ideal_ratio", ours.ideal_ratio()),
            ("reorder_gain", ours.speedup_over(overlap)),
            ("vs_filter", ours.speedup_over(filter)),
            ("vs_nocomp", ours.speedup_over(no)),
            ("storage_overhead", ours.storage_overhead()),
        ]);
        let bars = bars.then(|| ("methods", methods_json(&runs)));
        obj(gains
            .chain([("dataset", Json::Str(dataset.into()))])
            .chain(bars))
    };
    points.iter().map(scenario).collect()
}

/// Fig. 17 c/d, and the smallest scale of the sweep at which
/// reordering — each rank's exact optimum under the per-rank model,
/// Johnson's rule over solo-rank write times — loses to the original
/// order in the shared pool (`null` when none does).
fn fig17cd(sc: &Scenarios) -> Json {
    let scenarios = sweep(sc, &SCALE_SWEEP, true);
    let inverted = scenarios.iter().find(|s| num(s, "reorder_gain") < 1.0);
    let ranks = inverted.and_then(|s| s.get("ranks")).cloned();
    obj([
        ("first_inverted_ranks", ranks.unwrap_or(Json::Null)),
        ("scenarios", Json::Arr(scenarios)),
    ])
}

fn fig17cd_holds(v: &Json) -> bool {
    let ours = |key: &str| -> Vec<f64> {
        let last_bar = |s: &Json| rows(s, "methods").last().map_or(f64::NAN, |m| num(m, key));
        rows(v, "scenarios").iter().map(last_bar).collect()
    };
    let constant = |x: Vec<f64>| x.iter().all(|t| (t - x[0]).abs() <= REL_TOL * x[0]);
    every(v, "scenarios", ordering_holds)
        && constant(ours("compress_s"))
        && constant(ours("predict_s"))
        && ours("allgather_s").windows(2).all(|w| w[0] < w[1])
}

/// Fig. 18: the gains of every point of `points`, and Eq. 3 at its
/// widest — the reservation of a partition predicted past the
/// high-ratio threshold — as the bound on storage overhead.
fn improvements(sc: &Scenarios, points: &[(Data, usize)]) -> Json {
    let widest = ExtraSpacePolicy::default().effective(f64::INFINITY);
    obj([
        ("storage_bound", Json::Num(widest - 1.0)),
        ("scenarios", Json::Arr(sweep(sc, points, false))),
    ])
}

fn improvement_holds(v: &Json) -> bool {
    every(v, "scenarios", |s| {
        num(s, "vs_filter") > 1.0 && num(s, "vs_nocomp") > 1.0
    }) && (rows(v, "scenarios").iter())
        .all(|s| num(s, "storage_overhead") <= num(v, "storage_bound"))
}

// ---- Extensions: the online-adaptive reservation in a stream ----

/// A stream's two runs: the offline model replayed every step, then
/// the online-adaptive predictor.
fn adapt_modes() -> [AdaptMode; 2] {
    [AdaptMode::Static, AdaptMode::Adaptive(OnlineConfig)]
}

/// What a stream's two runs are compared on.
fn stream_totals(r: &TimelineReport) -> impl Iterator<Item = (&'static str, Json)> {
    let totals = numeric([
        ("file_bytes", r.total_file_bytes() as f64),
        ("compressed_bytes", r.total_compressed_bytes() as f64),
        ("waste_bytes", r.total_waste() as f64),
        ("overflow_bytes", r.total_overflow_bytes() as f64),
        ("overflow_partitions", r.total_overflows() as f64),
    ]);
    totals.chain([("mode", Json::Str(r.mode.clone()))])
}

/// Member `key` of a row's static and adaptive run.
fn by_mode(row: &Json, key: &str) -> [f64; 2] {
    ["static", "adaptive"].map(|mode| {
        let run = rows(row, "modes")
            .iter()
            .find(|r| r.str_of("mode") == Some(mode));
        run.map_or(f64::NAN, |r| num(r, key))
    })
}

/// Ranks of the simulated stream; `fig17cd` already covers 4096.
const SCALE_RANKS: [usize; 4] = [8, 64, 512, 2048];
const SCALE_STEPS: usize = 12;
const SCALE_FIELDS: usize = 6;

/// One step of the synthetic stream: deterministic per-partition size
/// spread, a fixed directional model bias per partition (0.72× under /
/// 1.45× over, alternating), and a ±5 % per-step drift the offline
/// model never sees. The adaptive predictor can learn the bias exactly
/// and cover the drift with its error band; the static policy cannot.
fn synth_step(nranks: usize, nfields: usize, step: usize) -> Profiles {
    let n_points: usize = 1 << 22; // 4 Mi points = 16 MiB raw
    let ratio = 16.0;
    let tm = ThroughputModel::paper_reference();
    (0..nranks)
        .map(|r| {
            (0..nfields)
                .map(|f| {
                    let h = ((r * 31 + f * 17) % 13) as f64 / 13.0;
                    let spread = 0.6 * (1.67f64 / 0.6).powf(h);
                    let drift =
                        1.0 + 0.05 * (2.0 * (((step * 7 + r * 3 + f) % 11) as f64 / 10.0) - 1.0);
                    let raw = (n_points * 4) as u64;
                    let base = raw as f64 / ratio * spread;
                    let actual = (base * drift) as u64;
                    let bias = if (r + f) % 2 == 0 { 0.72 } else { 1.45 };
                    let pred = (base * bias) as u64;
                    let bits = actual as f64 * 8.0 / n_points as f64;
                    PartitionProfile {
                        n_points,
                        raw_bytes: raw,
                        pred_bytes: pred,
                        pred_ratio: raw as f64 / pred.max(1) as f64,
                        pred_comp_time: tm.compression_time(raw as f64, bits),
                        pred_write_time: pred as f64 / 100e6,
                        actual_bytes: actual,
                        comp_time: tm.compression_time(raw as f64, bits),
                    }
                })
                .collect()
        })
        .collect()
}

/// The synthetic stream through the discrete-event simulator, static
/// and adaptive, at each of [`SCALE_RANKS`].
fn scale(_: &Scenarios) -> Json {
    let sweep = |&nranks: &usize| {
        let steps: Vec<Profiles> = (0..SCALE_STEPS)
            .map(|s| synth_step(nranks, SCALE_FIELDS, s))
            .collect();
        let run = |mode| {
            let cfg = StreamSimConfig {
                params: SimParams::new(BandwidthModel::summit()),
                mode,
                reservation: ReservationTopology::Flat,
                steps: SCALE_STEPS,
                reorder: false,
            };
            let r = simulate_stream(&cfg, |s| &steps[s]);
            let mean_step_secs = r.total_time() / r.steps.len().max(1) as f64;
            let final_rel_err = r.steps.last().map_or(0.0, |s| s.mean_rel_err);
            let figures = [
                ("mean_step_secs", mean_step_secs),
                ("final_rel_err", final_rel_err),
            ];
            obj(stream_totals(&r).chain(numeric(figures)))
        };
        // The two streams are independent; at 2048 ranks each is
        // seconds of event simulation, so they run side by side.
        let [static_mode, adaptive_mode] = adapt_modes();
        let modes = std::thread::scope(|t| {
            let adaptive = t.spawn(|| run(adaptive_mode));
            vec![run(static_mode), adaptive.join().expect("adaptive stream")]
        });
        obj([
            ("ranks", Json::Num(nranks as f64)),
            ("modes", Json::Arr(modes)),
        ])
    };
    let shape = numeric([
        ("steps", SCALE_STEPS as f64),
        ("fields", SCALE_FIELDS as f64),
    ]);
    let sweeps = Json::Arr(SCALE_RANKS.iter().map(sweep).collect());
    obj(shape.chain([("sweeps", sweeps)]))
}

const TIMELINE_STEPS: usize = 24;
const TIMELINE_RANKS: usize = 8;

/// Each workload streamed through the real engine, static and
/// adaptive over the same generated steps; byte figures only.
fn timeline(_: &Scenarios) -> Json {
    let streams = [
        SnapshotStream::nyx(32),
        SnapshotStream::vpic(1 << 16),
        SnapshotStream::rtm(32),
    ];
    let workload = |stream: &SnapshotStream| {
        let steps: Vec<Vec<Vec<RankFieldData>>> = (0..TIMELINE_STEPS)
            .map(|s| partition_stream_step(stream, s, TIMELINE_RANKS))
            .collect();
        let run = |mode| {
            // One run at a time, each removing its directory.
            let dir = std::env::temp_dir().join(format!("repro-timeline-{}", std::process::id()));
            let mut cfg = TimelineConfig::quick(TIMELINE_STEPS, steps[0][0].len(), mode, dir);
            cfg.verify = false; // tests/timeline_stream.rs verifies the decodes
            let r = run_timeline(&cfg, |s| &steps[s]).expect("timeline stream runs");
            let _ = std::fs::remove_dir_all(&cfg.dir);
            let column = |figure: fn(&StepMetrics) -> f64| array(r.steps.iter().map(figure));
            let per_step = obj([
                ("waste_bytes", column(|s| s.waste_bytes as f64)),
                (
                    "overflow_partitions",
                    column(|s| s.result.n_overflow as f64),
                ),
                ("rel_err", column(|s| s.mean_rel_err)),
            ]);
            obj(stream_totals(&r).chain([("per_step", per_step)]))
        };
        let modes = Json::Arr(adapt_modes().map(run).into());
        obj([
            ("workload", Json::Str(stream.label().into())),
            ("modes", modes),
        ])
    };
    let shape = numeric([
        ("steps", TIMELINE_STEPS as f64),
        ("ranks", TIMELINE_RANKS as f64),
    ]);
    let workloads = Json::Arr(streams.iter().map(workload).collect());
    obj(shape.chain([("workloads", workloads)]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::json::parse;

    fn claim(name: &str) -> &'static Claim {
        CLAIMS.iter().find(|c| c.name == name).expect(name)
    }

    /// `good` satisfies `name`'s predicate, and each single edit of it
    /// (first occurrence of `.0` replaced by `.1`) breaks the claim.
    fn judged(name: &str, good: &str, edits: &[(&str, &str)]) {
        let holds = claim(name).holds;
        assert!(holds(&parse(good).unwrap()), "{name}: {good}");
        for (from, to) in edits {
            assert!(good.contains(from), "{name}: no {from} to edit");
            let bad = good.replacen(from, to, 1);
            assert!(!holds(&parse(&bad).unwrap()), "{name}: {from} -> {to}");
        }
    }

    #[test]
    fn names_are_unique_and_claims_are_ascii() {
        for (i, c) in CLAIMS.iter().enumerate() {
            assert!(CLAIMS[..i].iter().all(|d| d.name != c.name), "{}", c.name);
            // `obs::json::parse` reads strings bytewise.
            assert!(c.claim.is_ascii(), "{}", c.name);
        }
    }

    #[test]
    fn fig1_fails_when_the_spread_fits_the_band() {
        let good = r#"{"spread": 6.0, "rspace_max": 1.43}"#;
        judged("fig1", good, &[("6.0", "1.4"), (r#""spread": 6.0, "#, "")]);
    }

    const CURVE: &str = r#""rspace": [1.1, 1.25, 1.43], "storage_overhead": [0.1, 0.3, 0.5],
        "perf_overhead": [0.05, 0.01, 0.0], "overflow_frac": [0.2, 0.04, 0.04]"#;
    const CURVE_EDITS: [(&str, &str); 4] = [
        ("[0.1, 0.3, 0.5]", "[0.1, 0.5, 0.3]"),
        ("[0.1, 0.3, 0.5]", "[0.3, 0.3, 0.3]"),
        ("[0.05, 0.01, 0.0]", "[0.05, 0.06, 0.0]"),
        ("[0.2, 0.04, 0.04]", "[0.2, 0.04, 0.05]"),
    ];

    #[test]
    fn fig9_fails_when_a_series_bends_the_wrong_way() {
        judged("fig9", &format!("{{{CURVE}}}"), &CURVE_EDITS);
    }

    #[test]
    fn fig14_fails_when_one_curve_of_many_bends() {
        let flat = r#"{"storage_overhead": [0.0, 0.1], "perf_overhead": [0, 0],
            "overflow_frac": [0, 0]}"#;
        let good = format!(r#"{{"curves": [{flat}, {{{CURVE}}}]}}"#);
        judged("fig14", &good, &CURVE_EDITS);
    }

    #[test]
    fn fig15_fails_when_an_overhead_drifts_by_a_grid_step() {
        let good = r#"{"tolerance": 0.05, "storage_overhead": [0.32, 0.33, 0.34],
            "perf_overhead": [0, 0, 0.01], "overflow_frac": [0.04, 0.02, 0.02]}"#;
        let edits = [
            ("0.34", "0.38"),
            ("[0, 0, 0.01]", "[0, 0.06, 0]"),
            ("[0.04,", "[0.08,"),
        ];
        judged("fig15", good, &edits);
    }

    #[test]
    fn fig11_and_fig12_fail_when_the_median_error_passes_the_bound() {
        let good = r#"{"median_rel_err": 0.19, "mean_rel_err": 0.9, "bound": 0.25}"#;
        let edits = [("0.19", "0.26"), (r#""bound": 0.25"#, r#""x": 0"#)];
        judged("fig11", good, &edits);
        judged("fig12", good, &edits);
    }

    #[test]
    fn fig13_fails_when_order_or_error_trend_breaks() {
        let good = r#"{"predicted_s": [0.05, 0.08, 0.2], "actual_s": [0.17, 0.2, 0.33],
            "rel_err": [0.7, 0.6, 0.33]}"#;
        let edits = [("[0.17, 0.2,", "[0.21, 0.2,"), ("0.6, 0.33", "0.6, 0.63")];
        judged("fig13", good, &edits);
    }

    const METHODS: &str = r#""methods": [
        {"total_s": 10.8, "compress_s": 0, "predict_s": 0, "allgather_s": 0},
        {"total_s": 6.2, "compress_s": 1.8, "predict_s": 0, "allgather_s": 0.001},
        {"total_s": 2.3, "compress_s": 1.8, "predict_s": 0.09, "allgather_s": 0.001},
        {"total_s": 2.2, "compress_s": 1.8, "predict_s": 0.09, "allgather_s": 0.001}]"#;

    #[test]
    fn fig16_fails_on_any_inversion_and_on_a_fully_exposed_write() {
        let good = format!(r#"{{{METHODS}, "hidden_write_frac": 0.6}}"#);
        let edits = [
            ("10.8", "6.0"),
            ("6.2", "2.3"),
            ("2.2", "2.4"),
            ("0.6}", "0}"),
        ];
        judged("fig16", &good, &edits);
    }

    /// A three-point Nyx sweep with the given reorder gains and bars.
    fn scenarios(gains: [f64; 3], methods: [&str; 3]) -> Json {
        let one = |i: usize| {
            let (gain, methods) = (gains[i], methods[i]);
            format!(r#"{{"dataset": "nyx", "reorder_gain": {gain}, {methods}}}"#)
        };
        let all = [0, 1, 2].map(one).join(", ");
        parse(&format!(r#"{{"scenarios": [{all}]}}"#)).unwrap()
    }

    #[test]
    fn fig17ab_fails_on_a_lost_comparison_or_a_gain_peaking_at_an_extreme() {
        let ok = |gains, methods| (claim("fig17ab").holds)(&scenarios(gains, methods));
        assert!(ok([1.01, 1.08, 1.02], [METHODS; 3]));
        assert!(!ok([1.09, 1.08, 1.02], [METHODS; 3]));
        assert!(!ok([1.01, 1.08, 1.08], [METHODS; 3]));
        let inverted = METHODS.replacen("2.2", "2.4", 1);
        assert!(!ok([1.01, 1.08, 1.02], [METHODS, &inverted, METHODS]));
        // A filter that loses to no compression (low ratios) is not
        // this claim's business; an overlap that loses to either is.
        let slow_filter = METHODS.replacen("6.2", "15.0", 1);
        assert!(ok([1.01, 1.08, 1.02], [METHODS, METHODS, &slow_filter]));
        let slow_overlap = METHODS.replacen("2.3", "7.0", 1);
        assert!(!ok([1.01, 1.08, 1.02], [METHODS, METHODS, &slow_overlap]));
    }

    #[test]
    fn fig17cd_fails_on_an_inversion_a_moving_compress_time_or_a_flat_allgather() {
        let ok = |methods| (claim("fig17cd").holds)(&scenarios([1.0; 3], methods));
        // The last method's all-gather closes the array.
        let at = |allgather: &str| METHODS.replace("0.001}]", &format!("{allgather}}}]"));
        let (small, mid, large) = (at("0.001"), at("0.002"), at("0.004"));
        assert!(ok([&small, &mid, &large]));
        assert!(!ok([&small, &mid, &mid]), "all-gather must grow");
        let slower = large.replace("1.8,", "1.9,");
        assert!(!ok([&small, &mid, &slower]), "compress must not move");
        let inverted = large.replacen("2.2", "2.4", 1);
        assert!(!ok([&small, &mid, &inverted]), "the 4096-rank inversion");
    }

    const GAINS: &str = r#"{"storage_bound": 1.0, "scenarios": [
        {"dataset": "nyx", "vs_filter": 2.2, "vs_nocomp": 5.2, "storage_overhead": 0.42},
        {"dataset": "nyx", "vs_filter": 2.9, "vs_nocomp": 5.0, "storage_overhead": 0.33},
        {"dataset": "nyx", "vs_filter": 2.5, "vs_nocomp": 2.2, "storage_overhead": 0.16}]}"#;
    const GAIN_EDITS: [(&str, &str); 3] = [
        (r#""vs_filter": 2.9"#, r#""vs_filter": 0.9"#),
        (r#""vs_nocomp": 2.2"#, r#""vs_nocomp": 1.0"#),
        ("0.42", "1.1"),
    ];

    #[test]
    fn fig18a_fails_on_a_loss_an_overdrawn_reservation_or_a_peak_at_an_extreme() {
        let peak_at_the_end = [(r#""vs_filter": 2.5"#, r#""vs_filter": 3.05"#)];
        judged("fig18a", GAINS, &GAIN_EDITS);
        judged("fig18a", GAINS, &peak_at_the_end);
    }

    #[test]
    fn fig18b_fails_on_a_loss_an_overdrawn_reservation_or_a_gain_that_decays() {
        let decayed = [(r#""vs_filter": 2.5"#, r#""vs_filter": 2.1"#)];
        judged("fig18b", GAINS, &GAIN_EDITS);
        judged("fig18b", GAINS, &decayed);
    }

    /// A static and an adaptive run with these figures.
    fn modes(
        [waste, bytes, parts]: [u32; 3],
        [adaptive_waste, adaptive_bytes, adaptive_parts]: [u32; 3],
    ) -> String {
        let run = |mode, w, b, p| {
            format!(
                r#"{{"mode": "{mode}", "waste_bytes": {w}, "overflow_bytes": {b},
                "overflow_partitions": {p}}}"#
            )
        };
        let static_run = run("static", waste, bytes, parts);
        let adaptive_run = run("adaptive", adaptive_waste, adaptive_bytes, adaptive_parts);
        format!(r#""modes": [{static_run}, {adaptive_run}]"#)
    }

    #[test]
    fn scale_fails_when_adaptive_does_not_win_from_512_ranks() {
        // At 8 ranks adaptive loses on every figure: not the claim's
        // business.
        let small = modes([10, 5, 2], [11, 6, 3]);
        let mid = modes([800, 40, 16], [500, 4, 1]);
        let large = modes([3200, 160, 64], [2000, 16, 5]);
        let good = format!(
            r#"{{"sweeps": [{{"ranks": 8, {small}}}, {{"ranks": 512, {mid}}},
            {{"ranks": 2048, {large}}}]}}"#
        );
        let edits = [
            (r#""waste_bytes": 500"#, r#""waste_bytes": 800"#),
            (r#""overflow_bytes": 16,"#, r#""overflow_bytes": 161,"#),
            (
                r#""overflow_partitions": 1}"#,
                r#""overflow_partitions": 16}"#,
            ),
        ];
        judged("scale", &good, &edits);
        // Without a row from 512 ranks on there is nothing to hold.
        let small_only = good.replace(r#""ranks": 512"#, r#""ranks": 64"#);
        let small_only = small_only.replace(r#""ranks": 2048"#, r#""ranks": 64"#);
        assert!(!(claim("scale").holds)(&parse(&small_only).unwrap()));
    }

    #[test]
    fn timeline_fails_when_adaptive_overflows_more_on_one_workload() {
        let workload = |name, adaptive_overflows| {
            let modes = modes([900, 30, 4], [200, 10, adaptive_overflows]);
            format!(r#"{{"workload": "{name}", {modes}}}"#)
        };
        let good = format!(
            r#"{{"workloads": [{}, {}, {}]}}"#,
            workload("nyx", 3),
            workload("vpic", 4),
            workload("rtm", 0)
        );
        let edits = [
            (
                r#""overflow_partitions": 4}]"#,
                r#""overflow_partitions": 5}]"#,
            ),
            (r#""waste_bytes": 200"#, r#""waste_bytes": 900"#),
        ];
        judged("timeline", &good, &edits);
    }

    #[test]
    fn a_difference_is_a_verdict_a_claim_or_a_deterministic_number() {
        let entry = |claim: &str, holds: bool, x: f64, wall_clock: bool| {
            let value = format!(r#"{{"x": [{x}, 2], "wall_clock": {wall_clock}}}"#);
            let entry = format!(r#"{{"claim": "{claim}", "holds": {holds}, "value": {value}}}"#);
            parse(&entry).unwrap()
        };
        let committed = entry("a", true, 1.0, false);
        let differs = |fresh: Json| difference(&fresh, &committed);
        assert_eq!(differs(entry("a", true, 1.0 + 1e-9, false)), None);
        let moved = differs(entry("a", true, 1.001, false));
        assert_eq!(moved.as_deref(), Some("value.x[0]: 1.001, committed 1"));
        assert!(differs(entry("a", false, 1.0, false)).is_some());
        assert!(differs(entry("b", true, 1.0, false)).is_some());
        assert!(difference(&committed, &Json::Null).is_some());
        // Wall-clock numbers move from run to run; verdicts may not.
        let committed = entry("a", true, 1.0, true);
        assert_eq!(difference(&entry("a", true, 9.0, true), &committed), None);
        assert!(difference(&entry("a", false, 1.0, true), &committed).is_some());
    }
}
