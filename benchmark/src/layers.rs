//! The traced layer pass: the per-layer ledger.
//!
//! Every layer is timed from outside, through its public functions, on
//! the unit the workload hands it (a rank partition, or a chunk tile
//! on `rtm_chunked`). Each call is one `bench.<layer>.<call>` span.
//! The first call of every series is a warm-up and is not counted; a
//! metric is the median of the rest.
//!
//! Every metric is reported on every workload. Where a workload does
//! not use a layer, the layer is driven over the same snapshots in an
//! auxiliary view, and the prediction is that the number moves no
//! end-to-end metric of that workload:
//!
//! * engine view of `rtm_chunked`: its field split over 2 ranks,
//!   `Method::Overlap`, static, unthrottled;
//! * chunked view of the engine workloads: their first field as one
//!   chunked dataset.
//!
//! Multi-threaded series start with `host::settle_cores`.

use crate::e2e::{self, sz_filter, Fixed, Opts, COUNT_STEPS};
use crate::host::{parallelism, settle_cores};
use crate::metrics::{Ops, Values};
use crate::spans::{self_secs, Recorder, ROOT};
use crate::spec::{
    field_dims, le_bytes, partition, pingpong, Kind, StepInput, WorkloadSpec, REL_BOUND,
    WARMUP_STEPS,
};
use crate::stats::{median, percentile};
use commsim::World;
use h5lite::chunk::{gather_tile_into, scatter_tile};
use h5lite::{crc32c, ChunkInfo, DatasetSpec, Dtype, EventSet, H5File, H5Reader};
use pfsim::{SharedFile, Throttle};
use predwrite::{
    fit_split, identity_order, optimize_order, plan_overflow, profile_partition,
    replicate_profiles, reservation_wire_bytes, run_real_with, simulate_stream, verify_file,
    AdaptMode, Method, ModelSource, PartitionPrediction, RankFieldData, RealConfig,
    ReservationTopology, SimParams, StreamSimConfig, WritePlan,
};
use ratiomodel::{estimate_partition, OnlineConfig, OnlinePredictor, PartitionEstimate};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;
use szlite::huffman::{HuffmanDecoder, HuffmanEncoder};
use szlite::stream::{BitReader, BitWriter};
use szlite::{
    compress_into, decompress_into, sample_quantization, Config, DecompressScratch, Dims, Scratch,
};
use timeline::{load_sidecar, resume_timeline, save_sidecar};

/// Timed steps of the traced pass's write phases (untraced and with
/// the library's tracing on).
const TRACE_STEPS: usize = 12;

type R<T> = Result<T, String>;

fn s<E: ToString>(e: E) -> String {
    e.to_string()
}

/// Run `f(0..=n)`; drop call 0 (the warm-up) and return the rest.
fn repeat(n: usize, mut f: impl FnMut(usize) -> R<f64>) -> R<Vec<f64>> {
    let mut all = (0..=n).map(&mut f).collect::<R<Vec<f64>>>()?;
    all.remove(0);
    Ok(all)
}

/// One unit of work for szlite: a rank partition or a chunk tile.
struct Unit {
    data: Vec<f32>,
    dims: Dims,
}

impl Unit {
    fn bytes(&self) -> f64 {
        (self.data.len() * 4) as f64
    }
}

struct Pass<'a> {
    rec: &'a Recorder,
    dir: PathBuf,
    out: Values,
    notes: Vec<String>,
}

impl Pass<'_> {
    /// Time `f` under one span; returns (seconds, result).
    fn clock<T>(&self, name: &'static str, step: usize, f: impl FnOnce() -> T) -> (f64, T) {
        let span = self.rec.span(name, ROOT, step as u64);
        let t = Instant::now();
        let r = f();
        let secs = t.elapsed().as_secs_f64();
        drop(span);
        (secs, r)
    }

    /// Median seconds of `n` calls of `f` (after one warm-up call).
    fn secs(&self, name: &'static str, n: usize, mut f: impl FnMut(usize) -> R<()>) -> R<f64> {
        repeat(n, |i| {
            let (secs, r) = self.clock(name, i, || f(i));
            r.map(|()| secs)
        })
        .map(|v| median(&v))
    }

    fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }
}

/// The engine's per-step configuration as `run_real` takes it.
/// `RealConfig` has no constructor, so every field is named here — the
/// one place to extend if the library adds one.
fn real_config(spec: &WorkloadSpec, nfields: usize, path: PathBuf) -> RealConfig {
    let t = spec.timeline_config(1, nfields, PathBuf::new());
    RealConfig {
        method: t.method,
        configs: t.configs,
        models: t.models,
        policy: t.policy,
        bandwidth: t.bandwidth,
        throttle_scale: t.throttle_scale,
        sz_threads: t.sz_threads,
        verify: t.verify,
        reservation: t.reservation,
        faults: None,
        path,
    }
}

fn dataset(input: &StepInput) -> R<&workloads::Dataset> {
    input
        .dataset
        .as_ref()
        .ok_or_else(|| "the traced pass needs the snapshots kept".to_string())
}

/// Run the traced pass of `spec`; writes the Chrome trace to
/// `trace_path` and returns the failure accounting of the embedded
/// end-to-end run plus every per-layer metric.
pub fn run(
    spec: &WorkloadSpec,
    opts: &Opts,
    rec: &Recorder,
    trace_path: &Path,
) -> R<(Ops, Values, Vec<String>)> {
    let mut p = Pass {
        rec,
        dir: opts.scratch.join("layers"),
        out: Values::default(),
        notes: Vec::new(),
    };
    std::fs::create_dir_all(&p.dir).map_err(s)?;

    // The workload's own run, library tracing off: one set-up, a short
    // write phase, two restart rounds, the check.
    let e = e2e::run(
        spec,
        &Opts {
            setup_reps: 1,
            fixed: Some(Fixed {
                steps: TRACE_STEPS,
                restart_rounds: 2,
            }),
            keep_datasets: true,
            ..opts.clone()
        },
        Some(rec),
    )?;
    let inputs = &e.prepared.inputs;
    p.out
        .set("timeline.step_ms_p90", percentile(&e.walls, 90.0) * 1e3);
    p.out
        .set("timeline.step_ms_max", percentile(&e.walls, 100.0) * 1e3);
    p.out.set(
        "workloads.snapshot_ms",
        median(&rec.durations("bench.workloads.snapshot")) * 1e3,
    );
    p.out.set(
        "workloads.partition_ms",
        median(&rec.durations("bench.workloads.partition")) * 1e3,
    );

    // Engine view: the workload itself, or the auxiliary 2-rank split.
    let espec = WorkloadSpec {
        kind: Kind::Engine,
        ..spec.clone()
    };
    let split: Vec<StepInput>;
    let (eng, eng_walls, eng_counts) = match spec.kind {
        Kind::Engine => (inputs.as_slice(), e.walls.clone(), e.counts.clone()),
        Kind::Chunked => {
            split = inputs
                .iter()
                .map(|i| {
                    Ok(StepInput {
                        parts: partition(dataset(i)?, espec.stream.is_particle(), espec.nranks),
                        bytes: Vec::new(),
                        dataset: None,
                    })
                })
                .collect::<R<Vec<_>>>()?;
            let warm = WARMUP_STEPS / 2;
            let st = e2e::stream(
                &espec,
                &split,
                &p.path("engine-view"),
                warm + COUNT_STEPS,
                None,
                false,
            )?;
            (split.as_slice(), st.walls(warm), st.counts[warm..].to_vec())
        }
    };
    let engine_p50 = median(&eng_walls);
    let nranks = espec.nranks;
    let nfields = eng[0].parts[0].len();
    let cfg = Config::rel(REL_BOUND);
    let raw_step = eng[0].raw_bytes() as f64;

    let lib_events = obs_overhead(&mut p, spec, inputs, &e.walls)?;
    engine_layers(&mut p, &espec, eng, &eng_counts, engine_p50)?;
    replay(&mut p, &espec, eng, engine_p50)?;
    commsim_layer(&mut p, nranks, nfields)?;

    // Chunked view: the workload's dataset, or the first field.
    let full = match spec.kind {
        Kind::Chunked => inputs[0].parts[0][0].clone(),
        Kind::Engine => {
            let ds = dataset(&inputs[0])?;
            let f = &ds.fields[0];
            RankFieldData {
                name: f.name.clone(),
                data: f.data.clone(),
                dims: field_dims(&f.dims),
            }
        }
    };
    h5lite_layer(&mut p, spec, &full)?;

    // predwrite.verify over the workload's own restart file.
    let (rpath, ridx) = &e.prepared.restart[0];
    let vparts = &inputs[*ridx].parts;
    let vcfgs = vec![cfg.clone(); vparts[0].len()];
    let vsecs = p.secs("bench.predwrite.verify", 3, |_| {
        let rep = verify_file(rpath, vparts, Some(&vcfgs), spec.workers).map_err(s)?;
        rep.ok()
            .then_some(())
            .ok_or_else(|| "verify: out of bound".to_string())
    })?;
    p.out.set(
        "predwrite.verify_mb_per_s",
        inputs[*ridx].raw_bytes() as f64 / vsecs / 1e6,
    );

    resume_layer(&mut p, &espec, eng)?;

    // Single-threaded series from here on.
    let units: Vec<Unit> = match spec.kind {
        Kind::Engine => eng[0]
            .parts
            .iter()
            .flatten()
            .map(|f| Unit {
                data: f.data.clone(),
                dims: f.dims.clone(),
            })
            .collect(),
        Kind::Chunked => tiles(spec, &inputs[0])?,
    };
    let streams = szlite_layer(&mut p, &units, &cfg, opts.seed)?;
    pfsim_layer(&mut p, &espec, &streams)?;
    planner_layer(&mut p, &espec, eng, raw_step)?;
    obs_spans(&mut p)?;

    rec.write_chrome_trace(trace_path, &lib_events).map_err(s)?;
    Ok((e.ops, p.out, p.notes))
}

/// Every chunk tile of the chunked workload's field, as szlite units.
fn tiles(spec: &WorkloadSpec, input: &StepInput) -> R<Vec<Unit>> {
    let field = &input.parts[0][0];
    let dims: Vec<u64> = field.dims.extents().iter().map(|&d| d as u64).collect();
    let n: u64 = dims.iter().zip(&spec.chunk).map(|(d, c)| d / c).product();
    let tile_dims: Vec<usize> = spec.chunk.iter().map(|&c| c as usize).collect();
    let mut buf = Vec::new();
    (0..n)
        .map(|c| {
            gather_tile_into(&input.bytes, &dims, 4, &spec.chunk, c, &mut buf).map_err(s)?;
            Ok(Unit {
                data: buf
                    .chunks_exact(4)
                    .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
                    .collect(),
                dims: Dims::from_slice(&tile_dims).map_err(s)?,
            })
        })
        .collect()
}

/// `obs.trace_*`: the workload's write phase once more with the
/// library's tracing on, against the untraced phase just measured.
/// Returns the library's events for the Chrome trace.
fn obs_overhead(
    p: &mut Pass,
    spec: &WorkloadSpec,
    inputs: &[StepInput],
    untraced: &[f64],
) -> R<Vec<obs::SpanEvent>> {
    let warm = WARMUP_STEPS / 2;
    obs::set_enabled(true);
    let traced = e2e::stream(
        spec,
        inputs,
        &p.path("traced"),
        warm + TRACE_STEPS,
        None,
        false,
    );
    obs::set_enabled(false);
    let events = obs::trace::drain();
    let traced = traced?;
    traced.record(p.rec, "bench.obs.traced_step");
    let (t, u) = (median(&traced.walls(warm)), median(untraced));
    p.out.set("obs.trace_overhead_frac", t / u - 1.0);
    p.out.set(
        "obs.trace_events_per_step",
        events.len() as f64 / (warm + TRACE_STEPS) as f64,
    );
    p.notes.push(format!(
        "obs.trace_overhead_frac: traced p50 {:.3} ms over untraced p50 {:.3} ms, {TRACE_STEPS} steps each",
        t * 1e3,
        u * 1e3
    ));
    Ok(events)
}

/// predwrite/timeline/ratiomodel.online numbers that need the engine:
/// bare `run_real`, the paper's *t_c*, *t_w* and speed-ups, exact
/// overflow counts.
fn engine_layers(
    p: &mut Pass,
    espec: &WorkloadSpec,
    eng: &[StepInput],
    counts: &[e2e::StepCounts],
    engine_p50: f64,
) -> R<()> {
    let nranks = espec.nranks;
    let nfields = eng[0].parts[0].len();

    // Bare run_real, one step per call, snapshots ping-pong. The
    // (model, actual) sizes it observes also drive a fresh online
    // predictor the way the adaptive engine would.
    let rc = real_config(espec, nfields, p.path("bare.h5l"));
    let mut online = OnlinePredictor::new(nranks * nfields, OnlineConfig::default());
    let bare = repeat(5, |i| {
        let parts = &eng[pingpong(i, eng.len())].parts;
        let (secs, r) = p.clock("bench.predwrite.run_real", i, || {
            run_real_with(parts, &rc, &ModelSource { models: &rc.models })
        });
        let (_, observed) = r.map_err(s)?;
        for (cell, o) in observed.iter().flatten().enumerate() {
            let pred = online.predict(cell, o.model_bytes);
            online.observe(cell, o.model_bytes, pred.bytes, o.actual);
        }
        std::fs::remove_file(&rc.path).map_err(s)?;
        Ok(secs)
    })?;
    let run_real = median(&bare);
    p.out.set("predwrite.run_real_ms", run_real * 1e3);
    p.out
        .set("timeline.glue_ms_per_step", (engine_p50 - run_real) * 1e3);
    p.out
        .set("ratiomodel.online_rel_err_final", online.mean_rel_err());

    settle_cores();
    // t_c: one benchmark thread per rank, estimate + compress every
    // field, no I/O. Keeps the streams for t_w.
    let parts = &eng[0].parts;
    let mut streams: Vec<Vec<Vec<u8>>> = Vec::new();
    let t_c = p.secs("bench.predwrite.compress_only", 3, |_| {
        streams = std::thread::scope(|sc| {
            let handles: Vec<_> = parts
                .iter()
                .map(|fields| {
                    let rc = &rc;
                    sc.spawn(move || {
                        let mut scratch = Scratch::new();
                        fields
                            .iter()
                            .zip(&rc.configs)
                            .map(|(f, cfg)| {
                                estimate_partition(&f.data, &f.dims, cfg, &rc.models).map_err(s)?;
                                let mut out = Vec::new();
                                compress_into(&f.data, &f.dims, cfg, &mut scratch, &mut out)
                                    .map_err(s)?;
                                Ok(out)
                            })
                            .collect::<R<Vec<Vec<u8>>>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("compress thread panicked"))
                .collect::<R<Vec<_>>>()
        })?;
        Ok(())
    })?;

    // t_w: the same streams through one EventSet per thread and the
    // shared throttle, no compression.
    let file = SharedFile::create(p.path("tw.bin")).map_err(s)?;
    let t_w = p.secs("bench.predwrite.write_only", 3, |_| {
        let throttle = Arc::new(Throttle::from_model(&rc.bandwidth, rc.throttle_scale));
        let mut base = 0u64;
        std::thread::scope(|sc| {
            let handles: Vec<_> = streams
                .iter()
                .map(|mine| {
                    let (file, throttle, start) = (&file, &throttle, base);
                    base += mine.iter().map(|b| b.len() as u64).sum::<u64>();
                    sc.spawn(move || {
                        let es = EventSet::new(1);
                        let mut at = start;
                        for b in mine {
                            es.write_at(file, at, b.clone(), Some(Arc::clone(throttle)));
                            at += b.len() as u64;
                        }
                        es.wait().map_err(s)
                    })
                })
                .collect();
            handles
                .into_iter()
                .try_for_each(|h| h.join().expect("write thread panicked"))
        })
    })?;
    p.out.set("predwrite.compress_only_ms", t_c * 1e3);
    p.out.set("predwrite.write_only_ms", t_w * 1e3);
    p.out.set(
        "predwrite.overlap_hidden_frac",
        ((t_c + t_w - engine_p50) / t_c.min(t_w)).clamp(0.0, 1.0),
    );

    // The baselines of the paper's speed-ups, over identical data.
    let alt = |method| WorkloadSpec {
        method,
        mode: AdaptMode::Static,
        keep_files: false,
        ..espec.clone()
    };
    let filter = e2e::stream(
        &alt(Method::FilterCollective),
        eng,
        &p.path("filter"),
        5,
        None,
        false,
    )?;
    let filter_p50 = median(&filter.walls(1));
    // An uncompressed step takes raw bytes ÷ throttle rate; one step is
    // all the budget allows where that exceeds a second.
    let nocomp_steps = if eng[0].raw_bytes() as f64 / espec.throttle_rate() > 1.0 {
        1
    } else {
        3
    };
    let nocomp = e2e::stream(
        &alt(Method::NoCompression),
        eng,
        &p.path("nocomp"),
        nocomp_steps,
        None,
        false,
    )?;
    let nocomp_p50 = median(&nocomp.walls(0));
    filter.record(p.rec, "bench.predwrite.filter_step");
    nocomp.record(p.rec, "bench.predwrite.nocomp_step");
    p.out
        .set("predwrite.speedup_vs_filter", filter_p50 / engine_p50);
    p.out
        .set("predwrite.speedup_vs_nocomp", nocomp_p50 / engine_p50);
    p.notes.push(format!(
        "predwrite.speedup_vs_*: engine p50 {:.3} ms; filter p50 {:.3} ms over 4 steps; no-compression p50 {:.3} ms over {nocomp_steps} step(s)",
        engine_p50 * 1e3,
        filter_p50 * 1e3,
        nocomp_p50 * 1e3
    ));

    // Exact counts over the engine view's first COUNT_STEPS timed steps.
    let counted = &counts[..counts.len().min(COUNT_STEPS)];
    let sum = |f: fn(&e2e::StepCounts) -> u64| counted.iter().map(f).sum::<u64>() as f64;
    p.out.set(
        "predwrite.overflow_parts_per_step",
        sum(|c| c.overflow_parts) / counted.len() as f64,
    );
    p.out.set(
        "predwrite.overflow_bytes_frac",
        sum(|c| c.overflow_bytes) / sum(|c| c.file),
    );
    p.out.set(
        "predwrite.reservation_wire_bytes",
        (reservation_wire_bytes(nranks, nfields, None) * nranks as u64) as f64,
    );
    Ok(())
}

/// `recon.*`: one engine step re-enacted purely from layer calls, every
/// call a child span of `bench.replay_step` attributed to its layer.
/// Predictions come from the offline models (the adaptive engine blends
/// history in; the work per call is the same).
fn replay(p: &mut Pass, espec: &WorkloadSpec, eng: &[StepInput], engine_p50: f64) -> R<()> {
    let rec = p.rec;
    let parts = &eng[0].parts;
    let (nranks, nfields) = (parts.len(), parts[0].len());
    let rc = real_config(espec, nfields, p.path("replay.h5l"));
    let reorder = espec.method == Method::OverlapReorder;
    let mut calls: Vec<(f64, u64)> = Vec::new();
    settle_cores();
    for call in 0..=3u64 {
        let root = rec.span("bench.replay_step", ROOT, call);
        let id = root.id();
        let t0 = Instant::now();
        let child = |name| rec.span(name, id, call);

        let create = child("bench.h5lite.create");
        let file = H5File::create(&rc.path).map_err(s)?;
        let ids = parts[0]
            .iter()
            .map(|f| {
                let n = f.data.len() as u64;
                let chunk: Vec<u64> = f.dims.extents().iter().map(|&d| d as u64).collect();
                file.create_dataset(
                    DatasetSpec::new(&f.name, Dtype::F32, &[n * nranks as u64])
                        .chunked(&[n])
                        .with_filter(sz_filter(&chunk)),
                )
                .map_err(s)
            })
            .collect::<R<Vec<_>>>()?;
        let throttle = Arc::new(Throttle::from_model(&rc.bandwidth, rc.throttle_scale));
        let base = file.tail();
        drop(create);

        let ranks: Vec<R<()>> = World::new(nranks).run(|rk| {
            let r = rk.rank();
            let mine = &parts[r];
            let ests: Vec<PartitionEstimate> = {
                let _s = child("bench.ratiomodel.estimate");
                mine.iter()
                    .zip(&rc.configs)
                    .map(|(f, cfg)| {
                        estimate_partition(&f.data, &f.dims, cfg, &rc.models).map_err(s)
                    })
                    .collect::<R<_>>()?
            };
            let gathered = {
                let _s = child("bench.commsim.allgather");
                let wire: Vec<(u64, f64, f64)> =
                    ests.iter().map(|e| (e.bytes, e.ratio, -1.0)).collect();
                rk.try_all_gather(wire).map_err(s)?
            };
            let (view, order) = {
                let _s = child("bench.predwrite.plan");
                let (preds, reserves): (Vec<Vec<PartitionPrediction>>, Vec<Vec<u64>>) = gathered
                    .iter()
                    .map(|row| {
                        row.iter()
                            .map(|&(bytes, ratio, _)| {
                                (
                                    PartitionPrediction { bytes, ratio },
                                    rc.policy.reserve_bytes(bytes, ratio),
                                )
                            })
                            .unzip()
                    })
                    .unzip();
                let view = WritePlan::build_reserved(&preds, &reserves, base).rank_view(r);
                let order = if reorder {
                    let pc: Vec<f64> = ests.iter().map(|e| e.comp_time).collect();
                    let pw: Vec<f64> = ests.iter().map(|e| e.write_time).collect();
                    optimize_order(&pc, &pw)
                } else {
                    identity_order(nfields)
                };
                (view, order)
            };
            let es = {
                let _s = child("bench.h5lite.eventset");
                EventSet::new(1)
            };
            let mut scratch = Scratch::new();
            let mut overflow = vec![0u64; nfields];
            let mut tails: Vec<(usize, Vec<u8>)> = Vec::new();
            for &f in &order {
                let mut stream = Vec::new();
                {
                    let _s = child("bench.szlite.compress");
                    compress_into(
                        &mine[f].data,
                        &mine[f].dims,
                        &rc.configs[f],
                        &mut scratch,
                        &mut stream,
                    )
                    .map_err(s)?;
                }
                let _s = child("bench.h5lite.enqueue");
                let slot = view.slots[f];
                let split = fit_split(stream.len() as u64, slot.reserved);
                let tail = stream.split_off(split.in_slot as usize);
                let crc = crc32c(&stream);
                es.write_at(
                    file.shared_file(),
                    slot.offset,
                    stream,
                    Some(Arc::clone(&throttle)),
                );
                let raw = (mine[f].data.len() * 4) as u64;
                file.record_chunk(
                    ids[f],
                    ChunkInfo {
                        index: r as u64,
                        offset: slot.offset,
                        stored: split.in_slot,
                        raw,
                        crc,
                    },
                )
                .map_err(s)?;
                if !tail.is_empty() {
                    overflow[f] = tail.len() as u64;
                    tails.push((f, tail));
                }
            }
            {
                let _s = child("bench.h5lite.wait");
                es.wait().map_err(s)?;
            }
            let all_overflow = {
                let _s = child("bench.commsim.allgather");
                rk.try_all_gather(overflow).map_err(s)?
            };
            if all_overflow.iter().flatten().any(|&b| b > 0) {
                let _s = child("bench.pfsim.overflow_write");
                let offsets = plan_overflow(&all_overflow, view.data_end);
                for (f, bytes) in tails {
                    throttle.acquire(bytes.len() as u64);
                    file.shared_file()
                        .write_at(offsets[r][f], &bytes)
                        .map_err(s)?;
                    let info = ChunkInfo {
                        index: r as u64,
                        offset: offsets[r][f],
                        stored: bytes.len() as u64,
                        raw: 0,
                        crc: crc32c(&bytes),
                    };
                    file.record_chunk(ids[f], info).map_err(s)?;
                }
            }
            {
                let _s = child("bench.commsim.barrier");
                rk.try_barrier().map_err(s)?;
            }
            if r == 0 {
                file.shared_file()
                    .advance_tail_to(view.data_end)
                    .map_err(s)?;
            }
            let _s = child("bench.h5lite.eventset");
            drop(es);
            Ok(())
        });
        ranks.into_iter().collect::<R<()>>()?;
        {
            let _s = child("bench.h5lite.close");
            file.close().map_err(s)?;
        }
        if !espec.keep_files {
            let _s = child("bench.timeline.rotate");
            std::fs::remove_file(&rc.path).map_err(s)?;
        }
        let wall = t0.elapsed().as_secs_f64();
        drop(root);
        if call > 0 {
            calls.push((wall, id));
        }
    }
    // Report the replay whose wall time is the median one.
    calls.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (wall, id) = calls[calls.len() / 2];
    let spans = rec.spans();
    p.out.set("recon.replay_over_engine", wall / engine_p50);
    p.out
        .set("recon.unattributed_frac", self_secs(&spans, id) / wall);
    let mut by_layer = std::collections::BTreeMap::<&str, f64>::new();
    for sp in spans.iter().filter(|sp| sp.parent == id) {
        *by_layer.entry(sp.layer()).or_default() += sp.secs();
    }
    let shares: Vec<String> = by_layer
        .iter()
        .map(|(l, t)| format!("{l} {:.2}", t * 1e3))
        .collect();
    p.notes.push(format!(
        "recon: replay {:.3} ms over engine p50 {:.3} ms; thread-ms inside the replay by layer: {}",
        wall * 1e3,
        engine_p50 * 1e3,
        shares.join(", ")
    ));
    Ok(())
}

/// commsim collectives over the workload's rank count.
fn commsim_layer(p: &mut Pass, nranks: usize, nfields: usize) -> R<()> {
    const ROUNDS: usize = 2000;
    let wire: Vec<(u64, f64, f64)> = vec![(1 << 20, 8.0, -1.0); nfields];
    let gather = p.secs("bench.commsim.allgather_rounds", 3, |_| {
        World::new(nranks)
            .run(|rk| {
                (0..ROUNDS)
                    .try_for_each(|_| rk.try_all_gather(wire.clone()).map(|g| drop(black_box(g))))
            })
            .into_iter()
            .collect::<Result<(), _>>()
            .map_err(s)
    })?;
    let barrier = p.secs("bench.commsim.barrier_rounds", 3, |_| {
        World::new(nranks)
            .run(|rk| (0..ROUNDS).try_for_each(|_| rk.try_barrier()))
            .into_iter()
            .collect::<Result<(), _>>()
            .map_err(s)
    })?;
    let spawn = p.secs("bench.commsim.world_spawn", 50, |_| {
        black_box(World::new(nranks).run(|rk| rk.rank()));
        Ok(())
    })?;
    p.out
        .set("commsim.allgather_us", gather / ROUNDS as f64 * 1e6);
    p.out
        .set("commsim.barrier_us", barrier / ROUNDS as f64 * 1e6);
    p.out.set("commsim.world_spawn_us", spawn * 1e6);
    Ok(())
}

/// h5lite over the chunked view: 2-worker, 1-worker and serial write
/// and read paths, then the fixed per-file and per-tile costs.
fn h5lite_layer(p: &mut Pass, spec: &WorkloadSpec, full: &RankFieldData) -> R<()> {
    let bytes = le_bytes(&full.data);
    let raw = bytes.len() as f64;
    let dims: Vec<u64> = full.dims.extents().iter().map(|&d| d as u64).collect();
    let path = p.path("chunked.h5l");
    let mut close_s = Vec::new();
    // One write of the dataset through `workers` (None = write_full).
    let mut write = |p: &Pass, name: &'static str, workers: Option<usize>| -> R<f64> {
        repeat(5, |i| {
            let file = H5File::create(&path).map_err(s)?;
            let id = file
                .create_dataset(
                    DatasetSpec::new(&full.name, Dtype::F32, &dims)
                        .chunked(&spec.chunk)
                        .with_filter(sz_filter(&spec.chunk)),
                )
                .map_err(s)?;
            let (secs, r) = p.clock(name, i, || match workers {
                None => file.write_full(id, &bytes),
                Some(w) => {
                    let es = EventSet::new(1);
                    file.write_full_pipelined(id, &bytes, w, &es, None)?;
                    es.wait()
                }
            });
            r.map_err(s)?;
            let (c, r) = p.clock("bench.h5lite.close", i, || file.close());
            r.map_err(s)?;
            close_s.push(c);
            Ok(secs)
        })
        .map(|v| raw / median(&v) / 1e6)
    };
    let mut open_s = Vec::new();
    let mut read = |p: &Pass, name: &'static str, workers: Option<usize>| -> R<f64> {
        repeat(7, |i| {
            let (o, reader) = p.clock("bench.h5lite.open", i, || H5Reader::open(&path));
            let reader = reader.map_err(s)?;
            open_s.push(o);
            let (secs, r) = p.clock(name, i, || match workers {
                None => reader.read_raw(&full.name),
                Some(w) => reader.read_full_pipelined(&full.name, w),
            });
            black_box(r.map_err(s)?);
            Ok(secs)
        })
        .map(|v| raw / median(&v) / 1e6)
    };
    // Two workers first, while fresh thread pairs run side by side.
    settle_cores();
    let w2 = write(p, "bench.h5lite.write_pipelined_2w", Some(2))?;
    let r2 = read(p, "bench.h5lite.read_pipelined_2w", Some(2))?;
    let w1 = write(p, "bench.h5lite.write_pipelined_1w", Some(1))?;
    let r1 = read(p, "bench.h5lite.read_pipelined_1w", Some(1))?;
    let w0 = write(p, "bench.h5lite.write_full", None)?;
    let r0 = read(p, "bench.h5lite.read_raw", None)?;
    p.out.set("h5lite.write_full_mb_per_s", w0);
    p.out.set("h5lite.write_pipelined_1w_mb_per_s", w1);
    p.out.set("h5lite.write_pipelined_2w_mb_per_s", w2);
    p.out.set("h5lite.write_fanout_speedup_2w", w2 / w0);
    p.out.set("h5lite.close_ms", median(&close_s) * 1e3);
    p.out.set("h5lite.read_raw_mb_per_s", r0);
    p.out.set("h5lite.read_pipelined_1w_mb_per_s", r1);
    p.out.set("h5lite.read_pipelined_2w_mb_per_s", r2);
    p.out.set("h5lite.read_fanout_speedup_2w", r2 / r0);
    p.out.set("h5lite.open_ms", median(&open_s) * 1e3);
    p.notes.push(format!(
        "h5lite.*_fanout_speedup_2w: bases are the serial paths, write_full {w0:.2} MB/s and read_raw {r0:.2} MB/s, \
         over a {:.2} MiB dataset in {:?} chunks; host parallelism {}",
        raw / 1048576.0,
        spec.chunk,
        parallelism()
    ));

    let flen = std::fs::metadata(&path).map_err(s)?.len() as f64;
    let scrub = p.secs("bench.h5lite.scrub", 7, |_| {
        let rep = h5lite::scrub::scrub(&path).map_err(s)?;
        rep.is_clean()
            .then_some(())
            .ok_or_else(|| "scrub: fresh file is damaged".to_string())
    })?;
    p.out.set("h5lite.scrub_mb_per_s", flen / scrub / 1e6);

    let crc = p.secs("bench.h5lite.crc32c", 10, |_| {
        black_box(crc32c(black_box(&bytes)));
        Ok(())
    })?;
    p.out.set("h5lite.crc32c_mb_per_s", raw / crc / 1e6);

    let n_tiles: u64 = dims.iter().zip(&spec.chunk).map(|(d, c)| d / c).product();
    let mut tile = Vec::new();
    let gather = p.secs("bench.h5lite.gather_tiles", 10, |_| {
        (0..n_tiles).try_for_each(|c| {
            gather_tile_into(black_box(&bytes), &dims, 4, &spec.chunk, c, &mut tile).map_err(s)
        })
    })?;
    let mut out = vec![0u8; bytes.len()];
    let scatter = p.secs("bench.h5lite.scatter_tiles", 10, |_| {
        (0..n_tiles).try_for_each(|c| {
            scatter_tile(&mut out, &dims, 4, &spec.chunk, c, black_box(&tile)).map_err(s)
        })
    })?;
    p.out.set("h5lite.gather_tile_mb_per_s", raw / gather / 1e6);
    p.out
        .set("h5lite.scatter_tile_mb_per_s", raw / scatter / 1e6);

    // Async queue: enqueue → wait of small unthrottled writes.
    const OPS: usize = 256;
    let file = SharedFile::create(p.path("asyncq.bin")).map_err(s)?;
    let es = EventSet::new(1);
    let asyncq = p.secs("bench.h5lite.asyncq_ops", 10, |_| {
        for i in 0..OPS {
            es.write_at(&file, (i * 4096) as u64, vec![0u8; 4096], None);
        }
        es.wait().map_err(s)
    })?;
    drop(es);
    let spawn = p.secs("bench.h5lite.eventset_spawn", 50, |_| {
        drop(black_box(EventSet::new(1)));
        Ok(())
    })?;
    p.out
        .set("h5lite.asyncq_us_per_op", asyncq / OPS as f64 * 1e6);
    p.out.set("h5lite.eventset_spawn_us", spawn * 1e6);
    Ok(())
}

/// timeline recovery: `resume_timeline` over an intact 4-step adaptive
/// directory of the engine view, and the predictor sidecar round trip.
fn resume_layer(p: &mut Pass, espec: &WorkloadSpec, eng: &[StepInput]) -> R<()> {
    const STEPS: usize = 4;
    let aspec = WorkloadSpec {
        mode: AdaptMode::Adaptive(OnlineConfig::default()),
        keep_files: true,
        ..espec.clone()
    };
    let dir = p.path("resume");
    e2e::stream(&aspec, eng, &dir, STEPS, None, true)?;
    let cfg = aspec.timeline_config(STEPS, eng[0].parts[0].len(), dir);
    let resume = p.secs("bench.timeline.resume", 3, |_| {
        let rep = resume_timeline(&cfg, |st| &eng[pingpong(st, eng.len())].parts).map_err(s)?;
        (rep.resume_from == STEPS && rep.quarantined.is_empty())
            .then_some(())
            .ok_or_else(|| "resume: an intact directory was not accepted whole".to_string())
    })?;
    p.out.set("timeline.resume_ms", resume * 1e3);

    let sidecar = cfg.sidecar_path(STEPS - 1);
    let mut loaded = None;
    let load = p.secs("bench.timeline.sidecar_load", 20, |_| {
        loaded = Some(load_sidecar(&sidecar)?);
        Ok(())
    })?;
    let (nr, nf, predictor) = loaded.expect("the warm-up call loaded it");
    let copy = p.path("copy.pred");
    let save = p.secs("bench.timeline.sidecar_save", 10, |_| {
        save_sidecar(&copy, nr, nf, &predictor).map_err(s)
    })?;
    p.out.set("timeline.sidecar_load_ms", load * 1e3);
    p.out.set("timeline.sidecar_save_ms", save * 1e3);
    Ok(())
}

/// szlite and ratiomodel over the workload's units, single thread.
/// Returns the compressed stream of every unit.
fn szlite_layer(p: &mut Pass, units: &[Unit], cfg: &Config, seed: u64) -> R<Vec<Vec<u8>>> {
    let models = ratiomodel::Models::with_cthr(50e6);
    // One pass over every unit for the exact counts (and the streams).
    let mut scratch = Scratch::new();
    let (mut points, mut stored, mut unpredictable, mut rel_err) = (0usize, 0usize, 0usize, 0.0);
    let mut streams = Vec::with_capacity(units.len());
    for u in units {
        let mut out = Vec::new();
        let st = compress_into(&u.data, &u.dims, cfg, &mut scratch, &mut out).map_err(s)?;
        let est = estimate_partition(&u.data, &u.dims, cfg, &models).map_err(s)?;
        points += st.n_points;
        stored += st.compressed_bytes;
        unpredictable += st.n_unpredictable;
        rel_err +=
            (est.bytes as f64 - st.compressed_bytes as f64).abs() / st.compressed_bytes as f64;
        streams.push(out);
    }
    p.out
        .set("szlite.bits_per_point", stored as f64 * 8.0 / points as f64);
    p.out.set(
        "szlite.unpredictable_frac",
        unpredictable as f64 / points as f64,
    );
    p.out
        .set("ratiomodel.size_rel_err_mean", rel_err / units.len() as f64);

    // Timed series cycle through the units; a call's cost is seconds
    // per raw byte so units of different size share one median.
    let n = units.len().max(30);
    let unit = |i: usize| &units[i % units.len()];
    let mut out = Vec::new();
    let compress = repeat(n, |i| {
        let u = unit(i);
        let (secs, r) = p.clock("bench.szlite.compress", i, || {
            compress_into(&u.data, &u.dims, cfg, &mut scratch, &mut out)
        });
        r.map_err(s)?;
        Ok(secs / u.bytes())
    })?;
    let mut dscratch = DecompressScratch::new();
    let mut restored: Vec<f32> = Vec::new();
    let decompress = repeat(n, |i| {
        let (secs, r) = p.clock("bench.szlite.decompress", i, || {
            decompress_into(&streams[i % units.len()], &mut dscratch, &mut restored)
        });
        r.map_err(s)?;
        Ok(secs / unit(i).bytes())
    })?;
    let sample = repeat(n, |i| {
        let u = unit(i);
        let (secs, r) = p.clock("bench.szlite.sample", i, || {
            sample_quantization(&u.data, &u.dims, cfg, models.sample_fraction)
        });
        black_box(r.map_err(s)?);
        Ok(secs)
    })?;
    let estimate = repeat(n, |i| {
        let u = unit(i);
        let (secs, r) = p.clock("bench.ratiomodel.estimate", i, || {
            estimate_partition(&u.data, &u.dims, cfg, &models)
        });
        black_box(r.map_err(s)?);
        Ok(secs)
    })?;
    p.out
        .set("szlite.compress_mb_per_s", 1.0 / median(&compress) / 1e6);
    p.out.set(
        "szlite.decompress_mb_per_s",
        1.0 / median(&decompress) / 1e6,
    );
    p.out
        .set("szlite.sample_ms_per_partition", median(&sample) * 1e3);
    p.out.set(
        "ratiomodel.estimate_ms_per_partition",
        median(&estimate) * 1e3,
    );
    let compress_secs: f64 = compress
        .iter()
        .zip(0..)
        .map(|(c, i)| c * unit(i + 1).bytes())
        .sum();
    p.out.set(
        "ratiomodel.estimate_frac_of_compress",
        estimate.iter().sum::<f64>() / compress_secs,
    );

    // Online predictor, batched: one span per 10 000 calls.
    const BATCH: usize = 10_000;
    let cells = units.len();
    let mut online = OnlinePredictor::new(cells, OnlineConfig::default());
    let predict = p.secs("bench.ratiomodel.online_predict", 10, |_| {
        for i in 0..BATCH {
            black_box(online.predict(i % cells, black_box(1 << 20)));
        }
        Ok(())
    })?;
    let observe = p.secs("bench.ratiomodel.online_observe", 10, |_| {
        for i in 0..BATCH {
            online.observe(
                i % cells,
                1 << 20,
                1 << 20,
                black_box((1 << 20) + (i as u64 & 1023)),
            );
        }
        Ok(())
    })?;
    p.out
        .set("ratiomodel.online_predict_ns", predict / BATCH as f64 * 1e9);
    p.out
        .set("ratiomodel.online_observe_ns", observe / BATCH as f64 * 1e9);

    // Stage kernels over a code stream redrawn from the first unit's
    // full-fraction sample: same histogram, same mean run length (the
    // runs are what the lossless stage feeds on), seeded order.
    let u = &units[0];
    let sample = sample_quantization(&u.data, &u.dims, cfg, 1.0).map_err(s)?;
    let hist = &sample.histogram;
    let run = sample.mean_run_length().round().max(1.0) as u64;
    let mut runs: Vec<(u32, u64)> = Vec::new();
    for (sym, &count) in hist.iter().enumerate() {
        runs.extend((0..count / run).map(|_| (sym as u32, run)));
        runs.extend((count % run > 0).then_some((sym as u32, count % run)));
    }
    let mut rng = pfsim::SplitMix64::new(seed);
    for i in (1..runs.len()).rev() {
        runs.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }
    let symbols: Vec<u32> = runs
        .iter()
        .flat_map(|&(sym, len)| std::iter::repeat_n(sym, len as usize))
        .collect();
    let msym = symbols.len() as f64 / 1e6;
    let build = p.secs("bench.szlite.huffman_build", 30, |_| {
        black_box(HuffmanEncoder::from_freqs(black_box(hist)));
        Ok(())
    })?;
    let encoder = HuffmanEncoder::from_freqs(hist);
    let mut coded = Vec::new();
    let encode = p.secs("bench.szlite.huffman_encode", 30, |_| {
        let mut w = BitWriter::new();
        encoder.encode(&symbols, &mut w);
        coded = w.finish();
        Ok(())
    })?;
    let mut table = Vec::new();
    encoder.serialize(&mut table);
    let decoder = HuffmanDecoder::deserialize(&table, &mut 0).map_err(s)?;
    let mut decoded = Vec::new();
    let decode = p.secs("bench.szlite.huffman_decode", 30, |_| {
        decoder
            .decode_into(&mut BitReader::new(&coded), symbols.len(), &mut decoded)
            .map_err(s)
    })?;
    if decoded != symbols {
        return Err("huffman stage kernel: decode does not invert encode".into());
    }
    let mut lz = Vec::new();
    let mut lz_scratch = szlite::lossless::LzScratch::default();
    let lz_c = p.secs("bench.szlite.lzss_compress", 30, |_| {
        szlite::lossless::compress_into(&coded, &mut lz, &mut lz_scratch);
        Ok(())
    })?;
    let mut unlz = Vec::new();
    let lz_d = p.secs("bench.szlite.lzss_decompress", 30, |_| {
        szlite::lossless::decompress_into(&lz, &mut unlz).map_err(s)
    })?;
    p.out.set("szlite.huffman_build_us", build * 1e6);
    p.out.set("szlite.huffman_encode_msym_per_s", msym / encode);
    p.out.set("szlite.huffman_decode_msym_per_s", msym / decode);
    p.out.set(
        "szlite.lzss_compress_mb_per_s",
        coded.len() as f64 / lz_c / 1e6,
    );
    p.out.set(
        "szlite.lzss_decompress_mb_per_s",
        coded.len() as f64 / lz_d / 1e6,
    );
    Ok(streams)
}

/// pfsim: positioned writes and reads of one step's compressed
/// streams, sync, and the throttle's achieved rate over them.
fn pfsim_layer(p: &mut Pass, espec: &WorkloadSpec, streams: &[Vec<u8>]) -> R<()> {
    let total: u64 = streams.iter().map(|b| b.len() as u64).sum();
    let file = SharedFile::create(p.path("pfsim.bin")).map_err(s)?;
    let each = |f: &mut dyn FnMut(u64, usize) -> std::io::Result<()>| {
        let mut at = 0u64;
        streams.iter().enumerate().try_for_each(|(i, b)| {
            let r = f(at, i);
            at += b.len() as u64;
            r
        })
    };
    let write = p.secs("bench.pfsim.write_at", 30, |_| {
        each(&mut |at, i| file.write_at(at, &streams[i])).map_err(s)
    })?;
    let mut bufs: Vec<Vec<u8>> = streams.iter().map(|b| vec![0; b.len()]).collect();
    let read = p.secs("bench.pfsim.read_at", 30, |_| {
        each(&mut |at, i| file.read_at(at, &mut bufs[i])).map_err(s)
    })?;
    let sync = repeat(10, |i| {
        each(&mut |at, i| file.write_at(at, &streams[i])).map_err(s)?;
        let (secs, r) = p.clock("bench.pfsim.sync", i, || file.sync());
        r.map_err(s)?;
        Ok(secs)
    })?;
    p.out
        .set("pfsim.write_at_mb_per_s", total as f64 / write / 1e6);
    p.out
        .set("pfsim.read_at_mb_per_s", total as f64 / read / 1e6);
    p.out.set("pfsim.sync_ms", median(&sync) * 1e3);

    // Achieved ÷ configured rate; enough passes to fill ≈ 0.4 s.
    let rate = espec.throttle_rate();
    let passes = ((0.4 * rate / total as f64) as usize).clamp(1, 50);
    let throttle = Throttle::from_model(
        &pfsim::BandwidthModel::tiny_for_tests(),
        espec.throttle_scale,
    );
    throttle.acquire(total.min(1 << 16));
    let (secs, ()) = p.clock("bench.pfsim.throttle", 0, || {
        for _ in 0..passes {
            for b in streams {
                throttle.acquire(b.len() as u64);
            }
        }
    });
    p.out.set(
        "pfsim.throttle_rate_ratio",
        (passes as u64 * total) as f64 / secs / rate,
    );
    Ok(())
}

/// predwrite's planner, Algorithm 1 and the discrete-event simulator
/// over the engine view's profiles.
fn planner_layer(p: &mut Pass, espec: &WorkloadSpec, eng: &[StepInput], raw_step: f64) -> R<()> {
    let parts = &eng[0].parts;
    let rc = real_config(espec, parts[0].len(), PathBuf::new());
    let profiles = parts
        .iter()
        .map(|fields| {
            fields
                .iter()
                .zip(&rc.configs)
                .map(|(f, cfg)| profile_partition(&f.data, &f.dims, cfg, &rc.models).map_err(s))
                .collect::<R<Vec<_>>>()
        })
        .collect::<R<Vec<_>>>()?;
    let (preds, reserves): (Vec<Vec<PartitionPrediction>>, Vec<Vec<u64>>) = profiles
        .iter()
        .map(|row| {
            row.iter()
                .map(|pr| {
                    let pred = PartitionPrediction {
                        bytes: pr.pred_bytes,
                        ratio: pr.pred_ratio,
                    };
                    (pred, rc.policy.reserve_bytes(pr.pred_bytes, pr.pred_ratio))
                })
                .unzip()
        })
        .unzip();
    const BATCH: usize = 100;
    let plan = p.secs("bench.predwrite.plan", 30, |_| {
        for _ in 0..BATCH {
            black_box(WritePlan::build_reserved(black_box(&preds), &reserves, 64).rank_view(0));
        }
        Ok(())
    })?;
    let pc: Vec<f64> = profiles[0].iter().map(|pr| pr.pred_comp_time).collect();
    let pw: Vec<f64> = profiles[0].iter().map(|pr| pr.pred_write_time).collect();
    let reorder = p.secs("bench.predwrite.reorder", 30, |_| {
        for _ in 0..BATCH {
            black_box(optimize_order(black_box(&pc), &pw));
        }
        Ok(())
    })?;
    p.out.set("predwrite.plan_us", plan / BATCH as f64 * 1e6);
    p.out
        .set("predwrite.reorder_us", reorder / BATCH as f64 * 1e6);

    const SIM_RANKS: usize = 512;
    const SIM_STEPS: usize = 10;
    let scaled = replicate_profiles(&profiles, SIM_RANKS);
    let sim_cfg = StreamSimConfig {
        params: SimParams::new(rc.bandwidth),
        mode: espec.mode,
        reservation: ReservationTopology::Flat,
        steps: SIM_STEPS,
        reorder: espec.method == Method::OverlapReorder,
    };
    let sim = p.secs("bench.predwrite.simulate_stream", 3, |_| {
        black_box(simulate_stream(&sim_cfg, |_| &scaled));
        Ok(())
    })?;
    p.out
        .set("predwrite.sim_steps_per_s", SIM_STEPS as f64 / sim);
    p.notes.push(format!(
        "predwrite.sim_steps_per_s: {SIM_RANKS} ranks replicated from this workload's {} profiles ({:.2} MiB raw per real step)",
        profiles.len() * profiles[0].len(),
        raw_step / 1048576.0
    ));
    Ok(())
}

/// obs: cost of one span guard with tracing off and on, and of one
/// flight record.
fn obs_spans(p: &mut Pass) -> R<()> {
    const OFF: usize = 1_000_000;
    const ON: usize = 100_000;
    let off = p.secs("bench.obs.disabled_spans", 10, |_| {
        for i in 0..OFF {
            drop(black_box(obs::span_arg("bench.probe", i as u64)));
        }
        Ok(())
    })?;
    obs::set_enabled(true);
    let on = p.secs("bench.obs.enabled_spans", 10, |_| {
        for i in 0..ON {
            drop(black_box(obs::span_arg("bench.probe", i as u64)));
        }
        Ok(())
    });
    obs::set_enabled(false);
    drop(obs::trace::drain());
    let flight_path = p.path("probe.obs.jsonl");
    let record = obs::StepFlight::default();
    let flight = p.secs("bench.obs.flight_write", 30, |_| {
        obs::flight::write_step(&flight_path, &record).map_err(s)
    })?;
    p.out.set("obs.disabled_span_ns", off / OFF as f64 * 1e9);
    p.out.set("obs.enabled_span_ns", on? / ON as f64 * 1e9);
    p.out.set("obs.flight_write_us", flight * 1e6);
    Ok(())
}
