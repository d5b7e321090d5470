//! The end-to-end run of one workload: set-up → write phase → restart
//! phase → check.
//!
//! The system is a closed loop with one client: the simulation issues
//! checkpoint *t+1* only after *t* returns. Every step's wall time is
//! the interval between successive invocations of the stream's
//! `step_data` callback (the last closed by the call returning), so it
//! includes file create, close/sync, sidecar, flight record and
//! rotation — which the engine's own `total_time` omits.

use crate::metrics::{Ops, Values};
use crate::spans::{Recorder, ROOT};
use crate::spec::{
    generate, pingpong, Kind, StepInput, WorkloadSpec, REL_BOUND, SNAPSHOTS, WARMUP_STEPS,
};
use crate::stats::median;
use h5lite::{
    DatasetSpec, Dtype, EventSet, FilterSpec, H5File, H5Reader, SzFilterParams, SUPERBLOCK,
    SZLITE_FILTER_ID,
};
use predwrite::verify_file;
use std::path::{Path, PathBuf};
use std::time::Instant;
use szlite::Config;
use timeline::{run_timeline, run_timeline_resumed};

/// Timed steps the exact-count metrics are taken over (two ping-pong
/// periods). The write phase never runs fewer, so the counts do not
/// depend on how many steps the host fits into `--seconds`.
pub const COUNT_STEPS: usize = 12;
/// Share of `--seconds` given to the write phase; the rest restores.
const WRITE_SHARE: f64 = 0.7;

/// Sizes fixed by the caller instead of derived from `--seconds`.
#[derive(Debug, Clone, Copy)]
pub struct Fixed {
    pub steps: usize,
    pub restart_rounds: usize,
}

/// How to run one workload.
#[derive(Debug, Clone)]
pub struct Opts {
    pub seed: u64,
    /// Length of the timed phases (write + restart), seconds.
    pub seconds: f64,
    /// This run's private directory (created and removed by the caller).
    pub scratch: PathBuf,
    /// Complete set-ups to run; `setup_s` is their median. All but the
    /// last are torn down again; the last flows into the write phase.
    pub setup_reps: usize,
    pub fixed: Option<Fixed>,
    /// Keep each snapshot's `Dataset` for the traced layer pass.
    pub keep_datasets: bool,
}

/// Exact counts of one step.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepCounts {
    pub raw: u64,
    pub file: u64,
    /// Engine: reserved-but-unused bytes (`waste_bytes`). Chunked: file
    /// bytes that are not chunk payload (superblock + chunk index); a
    /// chunked file reserves nothing, and a metric may never read 0.
    pub extra: u64,
    pub overflow_parts: u64,
    pub overflow_bytes: u64,
}

/// What a stream of steps produced.
pub struct Stream {
    /// One stamp per step start, plus the stream's end.
    pub stamps: Vec<Instant>,
    pub counts: Vec<StepCounts>,
    /// A file left on disk and the snapshot it holds, if any.
    pub kept: Option<(PathBuf, usize)>,
}

impl Stream {
    /// Wall time of each step from `from` on, seconds.
    pub fn walls(&self, from: usize) -> Vec<f64> {
        self.stamps[from..]
            .windows(2)
            .map(|w| (w[1] - w[0]).as_secs_f64())
            .collect()
    }

    /// Record every step as one span named `name`.
    pub fn record(&self, rec: &Recorder, name: &'static str) {
        for (i, w) in self.stamps.windows(2).enumerate() {
            rec.record(name, ROOT, i as u64, w[0], w[1]);
        }
    }
}

fn step_path(dir: &Path, step: usize) -> PathBuf {
    dir.join(format!("step-{step:04}.h5l"))
}

/// The szlite filter at [`REL_BOUND`] for chunks of extents `chunk`.
pub fn sz_filter(chunk: &[u64]) -> FilterSpec {
    FilterSpec {
        id: SZLITE_FILTER_ID,
        params: SzFilterParams {
            absolute: false,
            bound: REL_BOUND,
            dims: chunk.iter().map(|&c| c as usize).collect(),
        }
        .to_bytes(),
    }
}

/// One step of the chunked workload: create → chunked dataset with the
/// szlite filter → `write_full_pipelined` → `wait` → `close`.
pub fn chunked_step(
    spec: &WorkloadSpec,
    path: &Path,
    input: &StepInput,
) -> Result<StepCounts, String> {
    let field = &input.parts[0][0];
    let dims: Vec<u64> = field.dims.extents().iter().map(|&d| d as u64).collect();
    let e = |e: h5lite::H5Error| format!("{}: {e}", path.display());
    let file = H5File::create(path).map_err(e)?;
    let id = file
        .create_dataset(
            DatasetSpec::new(&field.name, Dtype::F32, &dims)
                .chunked(&spec.chunk)
                .with_filter(sz_filter(&spec.chunk)),
        )
        .map_err(e)?;
    let events = EventSet::new(1);
    file.write_full_pipelined(id, &input.bytes, spec.workers, &events, None)
        .map_err(e)?;
    events.wait().map_err(e)?;
    let payload = file.tail() - SUPERBLOCK;
    file.close().map_err(e)?;
    let len = std::fs::metadata(path)
        .map_err(|e| format!("{}: {e}", path.display()))?
        .len();
    Ok(StepCounts {
        raw: input.bytes.len() as u64,
        file: len,
        extra: len - payload,
        ..StepCounts::default()
    })
}

/// Stream `steps` checkpoints of `spec` into `dir` with the workload's
/// own write call, cycling the snapshots ping-pong (or through `order`
/// when given). `keep` retains every file (the restart set); otherwise
/// the workload's own rotation applies.
pub fn stream(
    spec: &WorkloadSpec,
    inputs: &[StepInput],
    dir: &Path,
    steps: usize,
    order: Option<&[usize]>,
    keep: bool,
) -> Result<Stream, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let index = |s: usize| order.map_or_else(|| pingpong(s, inputs.len()), |o| o[s]);
    let mut stamps = Vec::with_capacity(steps + 1);
    let (counts, kept) = match spec.kind {
        Kind::Engine => {
            let mut cfg = spec.timeline_config(steps, inputs[0].parts[0].len(), dir.to_path_buf());
            cfg.keep_files |= keep;
            let report = run_timeline(&cfg, |s| {
                stamps.push(Instant::now());
                &inputs[index(s)].parts
            })
            .map_err(|e| e.to_string())?;
            let counts = report
                .steps
                .iter()
                .map(|m| StepCounts {
                    raw: m.result.raw_bytes,
                    file: m.result.file_bytes,
                    extra: m.waste_bytes,
                    overflow_parts: m.result.n_overflow as u64,
                    overflow_bytes: m.result.overflow_bytes,
                })
                .collect();
            let last = steps - 1;
            (
                counts,
                cfg.keep_files.then(|| (cfg.step_path(last), index(last))),
            )
        }
        Kind::Chunked => {
            let mut counts = Vec::with_capacity(steps);
            for s in 0..steps {
                stamps.push(Instant::now());
                counts.push(chunked_step(spec, &step_path(dir, s), &inputs[index(s)])?);
                if s > 0 && !keep {
                    // Rotation: only the newest checkpoint stays.
                    let _ = std::fs::remove_file(step_path(dir, s - 1));
                }
            }
            (counts, Some((step_path(dir, steps - 1), index(steps - 1))))
        }
    };
    stamps.push(Instant::now());
    Ok(Stream {
        stamps,
        counts,
        kept,
    })
}

/// Generated inputs plus the restart set written from them.
pub struct Prepared {
    pub inputs: Vec<StepInput>,
    /// Restart files and the snapshot each holds.
    pub restart: Vec<(PathBuf, usize)>,
}

/// Set-up, part one: generate and partition the snapshots, then write
/// the restart set (first and last snapshot) with the workload's own
/// write call.
pub fn prepare(
    spec: &WorkloadSpec,
    opts: &Opts,
    dir: &Path,
    rec: Option<&Recorder>,
) -> Result<Prepared, String> {
    let inputs = generate(spec, opts.seed, opts.keep_datasets, rec);
    let order = [0, SNAPSHOTS - 1];
    let restart_dir = dir.join("restart");
    stream(spec, &inputs, &restart_dir, order.len(), Some(&order), true)?;
    let restart = order
        .iter()
        .enumerate()
        .map(|(s, &i)| (step_path(&restart_dir, s), i))
        .collect();
    Ok(Prepared { inputs, restart })
}

/// One restart round: open every restart file and restore every field
/// through the pipelined reader. Returns the raw bytes restored.
pub fn restart_round(spec: &WorkloadSpec, p: &Prepared, ops: &mut Ops) -> u64 {
    let mut bytes = 0;
    for (path, idx) in &p.restart {
        let reader = H5Reader::open(path);
        for field in &p.inputs[*idx].parts[0] {
            let read = reader.as_ref().map_err(|e| e.to_string()).and_then(|r| {
                r.read_pipelined::<f32>(&field.name, spec.workers)
                    .map_err(|e| e.to_string())
            });
            match read {
                Ok(v) => {
                    bytes += (v.len() * 4) as u64;
                    ops.note(true);
                    std::hint::black_box(v);
                }
                Err(e) => {
                    eprintln!("restart read failed: {}: {e}", path.display());
                    ops.note(false);
                }
            }
        }
    }
    bytes
}

/// Untimed check: decode `path` and bound-check every element against
/// snapshot `idx`. Every field is one operation.
pub fn check_file(
    spec: &WorkloadSpec,
    inputs: &[StepInput],
    path: &Path,
    idx: usize,
    ops: &mut Ops,
) {
    let parts = &inputs[idx].parts;
    let configs = vec![Config::rel(REL_BOUND); parts[0].len()];
    match verify_file(path, parts, Some(&configs), spec.workers) {
        Ok(report) => {
            for f in &report.fields {
                if !f.ok {
                    eprintln!(
                        "check failed: {} field {}: max err {:e} > bound {:e}",
                        path.display(),
                        f.name,
                        f.max_abs_err,
                        f.max_bound
                    );
                }
                ops.note(f.ok);
            }
        }
        Err(e) => {
            eprintln!("check failed: {}: {e}", path.display());
            for _ in &parts[0] {
                ops.note(false);
            }
        }
    }
}

/// Everything one end-to-end run measured.
pub struct E2e {
    /// Wall time of each complete set-up, seconds.
    pub setup_s: Vec<f64>,
    /// Wall time of each timed step, seconds.
    pub walls: Vec<f64>,
    /// Exact counts of each timed step.
    pub counts: Vec<StepCounts>,
    /// Raw bytes one restart round restores.
    pub round_bytes: u64,
    /// Wall time of each restart round, seconds.
    pub round_walls: Vec<f64>,
    pub ops: Ops,
    pub prepared: Prepared,
}

impl E2e {
    /// The end-to-end metrics of this run.
    pub fn metrics(&self) -> Result<Values, String> {
        let mut v = Values::default();
        let counted = &self.counts[..self.counts.len().min(COUNT_STEPS)];
        let sum = |f: fn(&StepCounts) -> u64, c: &[StepCounts]| c.iter().map(f).sum::<u64>() as f64;
        let raw = sum(|c| c.raw, counted);
        v.set("setup_s", median(&self.setup_s));
        v.set(
            "ckpt_mb_per_s",
            sum(|c| c.raw, &self.counts) / self.walls.iter().sum::<f64>() / 1e6,
        );
        v.set("step_ms_p50", median(&self.walls) * 1e3);
        v.set(
            "restart_mb_per_s",
            self.round_bytes as f64 / median(&self.round_walls) / 1e6,
        );
        v.set("stored_bytes_per_raw_byte", sum(|c| c.file, counted) / raw);
        v.set("extra_space_per_raw_byte", sum(|c| c.extra, counted) / raw);
        v.set("peak_rss_mb", crate::host::peak_rss_mib()?);
        Ok(v)
    }
}

/// Run one workload end to end. With a recorder (traced pass) the
/// set-up's generator calls and every timed step are recorded as
/// spans; the library's own tracing stays off either way.
pub fn run(spec: &WorkloadSpec, opts: &Opts, rec: Option<&Recorder>) -> Result<E2e, String> {
    let mut setup_s = Vec::with_capacity(opts.setup_reps);
    let mut warm_walls = Vec::new();
    // All set-ups but the last: complete, measured, torn down again.
    for rep in 1..opts.setup_reps {
        let dir = opts.scratch.join(format!("setup-{rep}"));
        let t0 = Instant::now();
        let p = prepare(spec, opts, &dir, None)?;
        let warm = stream(
            spec,
            &p.inputs,
            &dir.join("stream"),
            WARMUP_STEPS,
            None,
            false,
        )?;
        setup_s.push(t0.elapsed().as_secs_f64());
        warm_walls.extend_from_slice(&warm.walls(WARMUP_STEPS / 2));
        drop(p);
        std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }

    // Size the write phase: as many steps as fit its share of
    // `--seconds` at the pace the earlier warm-ups ended on.
    let steps = match opts.fixed {
        Some(f) => f.steps,
        None if warm_walls.is_empty() => {
            return Err("sizing the write phase from --seconds needs at least 2 set-ups".into())
        }
        None => ((opts.seconds * WRITE_SHARE / median(&warm_walls)) as usize).max(COUNT_STEPS),
    };

    // The last set-up: its warm-up steps are the first steps of the one
    // stream whose remaining steps are the timed write phase.
    let dir = opts.scratch.join("run");
    let t0 = Instant::now();
    let prepared = prepare(spec, opts, &dir, rec)?;
    // From here on memory is the inputs (the simulation's own data)
    // plus what the library adds; generator temporaries are behind us.
    crate::host::reset_peak_rss();
    let stream_dir = dir.join("stream");
    let total = WARMUP_STEPS + steps;
    let s = stream(spec, &prepared.inputs, &stream_dir, total, None, false)?;
    setup_s.push((s.stamps[WARMUP_STEPS] - t0).as_secs_f64());
    if let Some(rec) = rec {
        s.record(rec, "bench.timeline.step");
    }
    // A failed step aborts the stream above; reaching here means every
    // attempted step returned Ok.
    let mut ops = Ops {
        attempted: steps as u64,
        failed: 0,
    };

    // Restart phase (reads come from the page cache: the files were
    // written moments ago). A throttled write phase mostly sleeps, after
    // which fresh decode workers would share a core for a while.
    crate::host::settle_cores();
    let budget = opts.seconds * (1.0 - WRITE_SHARE);
    let t_restart = Instant::now();
    let mut round_bytes = 0;
    let mut round_walls = Vec::new();
    while match opts.fixed {
        Some(f) => round_walls.len() < f.restart_rounds,
        None => round_walls.len() < 2 || t_restart.elapsed().as_secs_f64() < budget,
    } {
        let t_round = Instant::now();
        round_bytes = restart_round(spec, &prepared, &mut ops);
        round_walls.push(t_round.elapsed().as_secs_f64());
    }

    // Check (untimed): every restart file plus one file of the stream.
    for (path, idx) in &prepared.restart {
        check_file(spec, &prepared.inputs, path, *idx, &mut ops);
    }
    let walls = s.walls(WARMUP_STEPS);
    let sample = match s.kept {
        Some(kept) => kept,
        None => {
            // A rotating engine stream removes every file it writes;
            // sample its next step instead, written untimed with the
            // same configuration and kept.
            let mut cfg =
                spec.timeline_config(total + 1, prepared.inputs[0].parts[0].len(), stream_dir);
            cfg.keep_files = true;
            let idx = pingpong(total, prepared.inputs.len());
            run_timeline_resumed(&cfg, total, None, |_| &prepared.inputs[idx].parts)
                .map_err(|e| e.to_string())?;
            (cfg.step_path(total), idx)
        }
    };
    check_file(spec, &prepared.inputs, &sample.0, sample.1, &mut ops);

    Ok(E2e {
        setup_s,
        walls,
        counts: s.counts[WARMUP_STEPS..].to_vec(),
        round_bytes,
        round_walls,
        ops,
        prepared,
    })
}
