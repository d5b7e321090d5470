//! Real execution engine: threads-as-ranks, real szlite compression,
//! real writes into an h5lite shared file through a bandwidth throttle.
//!
//! This engine runs the paper's full §III pipeline end to end —
//! prediction, all-gather, layout with extra space, (optionally
//! reordered) overlapped compress/async-write, overflow redirection,
//! metadata close — and the produced file decodes back within the
//! error bound. An adaptive stream's ranks pool their reservations
//! ([`crate::plan::Pooling`]); the paper's per-partition slots are the
//! one-slot case of the same placement. It is used by the integration
//! tests and examples at 4–64 ranks; scale sweeps use [`crate::sim`]
//! with the same planner.

// Index-based loops below address several parallel arrays (data,
// plans, dataset ids) by the same field index; iterator zipping would
// obscure that correspondence.
#![allow(clippy::needless_range_loop)]

use crate::extraspace::ExtraSpacePolicy;
use crate::metrics::{Breakdown, Method, RunResult};
use crate::plan::{rank_offsets, reservation_wire_bytes, Pooling, RankPlanView, WritePlan};
use crate::step::{compression_order, pooling, rank_reservations};
use commsim::World;
use h5lite::{
    ordered_fanout, AttrValue, BufferPool, DatasetSpec, Dtype, EventSet, FilterSpec, H5File,
    SzFilterParams, SZLITE_FILTER_ID,
};
use pfsim::{BandwidthModel, FaultFs, Throttle};
use ratiomodel::{EstimateScratch, Models, OnlinePredictor};
use std::path::PathBuf;
use std::sync::Arc;
use szlite::{compress_into, Config, Dims, ErrorBound, Scratch};

/// One rank's slice of one field.
#[derive(Debug, Clone)]
pub struct RankFieldData {
    /// Field name (dataset path in the file).
    pub name: String,
    /// The rank's partition values.
    pub data: Vec<f32>,
    /// Partition extents.
    pub dims: Dims,
}

/// Prediction/headroom policy of a streaming run (one engine step per
/// timestep). Defined here so both executors share it: the `timeline`
/// crate's real-I/O stream engine and [`crate::sim::simulate_stream`]'s
/// discrete-event scale sweeps accept the same mode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AdaptMode {
    /// Offline models + engine-wide extra-space policy every step.
    Static,
    /// Online bias correction + adaptive headroom
    /// ([`ratiomodel::OnlinePredictor`]; its rule has no settings).
    Adaptive(ratiomodel::OnlineConfig),
}

impl AdaptMode {
    /// Short label for tables and JSON.
    pub fn label(&self) -> &'static str {
        match self {
            AdaptMode::Static => "static",
            AdaptMode::Adaptive(_) => "adaptive",
        }
    }
}

/// Topology of the phase-2 reservation collective: one world-wide
/// all-gather of each rank's reserved total.
///
/// A one-variant enum because `benchmark/API.md` pins
/// `ReservationTopology::Flat` and the `reservation` field of
/// [`RealConfig`], `TimelineConfig` and `StreamSimConfig`; nothing
/// reads the value (ROADMAP item 2's benchmark-only PR removes all
/// four).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReservationTopology {
    /// One world-wide all-gather.
    #[default]
    Flat,
}

/// Configuration of a real run.
#[derive(Clone)]
pub struct RealConfig {
    /// Which method to execute.
    pub method: Method,
    /// Per-field compression configuration (ignored by
    /// [`Method::NoCompression`]).
    pub configs: Vec<Config>,
    /// Fitted prediction models.
    pub models: Models,
    /// Extra-space policy for the predictive methods.
    pub policy: ExtraSpacePolicy,
    /// Bandwidth model the throttle enforces.
    pub bandwidth: BandwidthModel,
    /// Scale factor on the model's aggregate cap (tests use small
    /// scales so wall-clock stays short while contention is real).
    pub throttle_scale: f64,
    /// Compression worker threads *per rank* for the overlap methods
    /// (the parallel chunk-compression pipeline); 1 is the serial
    /// per-rank compression of the paper's baseline overlap, run
    /// inline on the rank thread. Ranks are already threads, so this
    /// is a count the caller states, never the machine's parallelism.
    /// Also the decode worker count of the verification phase.
    pub sz_threads: usize,
    /// Opt-in read-back verification: after the file closes, re-open
    /// it, decode every field through the pipelined reader and check
    /// each element against its resolved error bound. The phase is
    /// timed separately ([`Breakdown::verify`]) and a violation fails
    /// the run.
    pub verify: bool,
    /// Pinned by `benchmark/API.md`; see [`ReservationTopology`].
    pub reservation: ReservationTopology,
    /// Fault-injection harness attached to the output file for the
    /// whole run (crash-recovery tests/benches); `None` in production.
    pub faults: Option<Arc<FaultFs>>,
    /// Output file path.
    pub path: PathBuf,
}

/// Error from the real engine (and the timeline/recovery layers that
/// drive it).
#[derive(Debug)]
pub enum RealError {
    /// The input's shape (ranks, fields, partition sizes, configs,
    /// resumed state) does not fit the run it was handed to.
    Shape(String),
    /// The container layer failed: a write, the async queue, close,
    /// or a read-back.
    H5(h5lite::H5Error),
    /// Sampling or compression failed.
    Sz(szlite::SzError),
    /// Filesystem failure outside the container layer.
    Io(std::io::Error),
    /// A collective aborted because another rank failed first — a
    /// symptom; the run reports that rank's error when it has one.
    PeerFailed,
    /// A rank's body panicked, which poisons the world like an error.
    RankPanicked {
        /// The rank that panicked.
        rank: usize,
        /// The panic payload when it is a string, else empty.
        message: String,
    },
    /// Read-back verification decoded a field outside its bound.
    Verification {
        /// Dataset path of the offending field.
        field: String,
        /// Worst observed absolute error.
        max_abs_err: f64,
        /// Largest resolved bound the field was checked against.
        max_bound: f64,
    },
    /// `source` happened while doing `context` (which step, which
    /// file) — how the timeline and recovery layers say where.
    Context {
        /// What was being attempted.
        context: String,
        /// What went wrong.
        source: Box<RealError>,
    },
}

impl RealError {
    /// Wrap `source` with the operation it interrupted.
    pub fn context(context: impl Into<String>, source: impl Into<RealError>) -> Self {
        RealError::Context {
            context: context.into(),
            source: Box::new(source.into()),
        }
    }

    /// The message without the "real engine:" prefix, so nested
    /// contexts print it once.
    fn describe(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RealError::Shape(m) => f.write_str(m),
            RealError::H5(e) => write!(f, "{e}"),
            RealError::Sz(e) => write!(f, "{e}"),
            RealError::Io(e) => write!(f, "{e}"),
            RealError::PeerFailed => write!(f, "{}", commsim::WorldPoisoned),
            RealError::RankPanicked { rank, message } => {
                write!(f, "rank {rank} panicked: {message}")
            }
            RealError::Verification {
                field,
                max_abs_err,
                max_bound,
            } => write!(
                f,
                "verification failed: field {field} exceeds its bound \
                 (max err {max_abs_err:.3e} > {max_bound:.3e})"
            ),
            RealError::Context { context, source } => {
                write!(f, "{context}: ")?;
                source.describe(f)
            }
        }
    }
}

impl std::fmt::Display for RealError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("real engine: ")?;
        self.describe(f)
    }
}

impl std::error::Error for RealError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RealError::H5(e) => Some(e),
            RealError::Sz(e) => Some(e),
            RealError::Io(e) => Some(e),
            RealError::Context { source, .. } => Some(source.as_ref()),
            _ => None,
        }
    }
}

impl From<h5lite::H5Error> for RealError {
    fn from(e: h5lite::H5Error) -> Self {
        RealError::H5(e)
    }
}

impl From<szlite::SzError> for RealError {
    fn from(e: szlite::SzError) -> Self {
        RealError::Sz(e)
    }
}

impl From<std::io::Error> for RealError {
    fn from(e: std::io::Error) -> Self {
        RealError::Io(e)
    }
}

impl From<commsim::WorldPoisoned> for RealError {
    fn from(_: commsim::WorldPoisoned) -> Self {
        RealError::PeerFailed
    }
}

/// Per-partition estimate produced by a [`PredictionSource`] in the
/// predict phase — everything the planner and scheduler consume.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SourceEstimate {
    /// Predicted compressed size the planner reserves for, bytes.
    pub bytes: u64,
    /// Predicted compression ratio (drives Eq. 3 unless the rank pools
    /// at an adapted headroom).
    pub ratio: f64,
    /// Predicted compression time, seconds (Algorithm 1 input).
    pub comp_time: f64,
    /// Predicted write time, seconds (Algorithm 1 input).
    pub write_time: f64,
    /// The raw offline-model estimate before any online blending
    /// (equal to `bytes` for the static source); reported back in
    /// [`FieldObservation`] so streaming callers can update bias
    /// corrections against the model, not against themselves.
    pub model_bytes: u64,
}

/// Pluggable prediction phase of the predictive-write pipeline.
///
/// [`run_real_with`] calls `estimate` once per (rank, field) inside
/// the rank threads (implementations must be `Sync`), then `pooling`
/// once per rank; each rank's reserved total is all-gathered so every
/// rank plans the identical layout.
/// After the run, the actual compressed sizes come back as
/// [`RunObservations`] — a streaming caller feeds them into its next
/// step's source, closing the predict → observe loop the paper's
/// checkpoint workloads enable.
pub trait PredictionSource: Sync {
    /// Estimate one rank's partition of one field. `scratch` is the
    /// calling rank's, handed to every field of its step in turn.
    fn estimate(
        &self,
        rank: usize,
        field: usize,
        data: &[f32],
        dims: &Dims,
        cfg: &Config,
        scratch: &mut EstimateScratch,
    ) -> Result<SourceEstimate, RealError>;

    /// How rank `rank` reserves the partitions it estimated as
    /// `estimates`: by default in the paper's per-partition slots at
    /// the engine's extra-space policy.
    fn pooling(&self, _rank: usize, _estimates: &[SourceEstimate]) -> Pooling {
        Pooling::Slots
    }
}

/// Default source: the offline-fitted [`Models`] with the engine-wide
/// extra-space policy (the paper's static single-shot configuration).
pub struct ModelSource<'a> {
    /// The fitted models to sample-predict with.
    pub models: &'a Models,
}

impl PredictionSource for ModelSource<'_> {
    fn estimate(
        &self,
        _rank: usize,
        _field: usize,
        data: &[f32],
        dims: &Dims,
        cfg: &Config,
        scratch: &mut EstimateScratch,
    ) -> Result<SourceEstimate, RealError> {
        let est = ratiomodel::estimate_partition_with(data, dims, cfg, self.models, scratch)?;
        Ok(SourceEstimate {
            bytes: est.bytes,
            ratio: est.ratio,
            comp_time: est.comp_time,
            write_time: est.write_time,
            model_bytes: est.bytes,
        })
    }
}

/// The source of a checkpoint stream's step: the offline [`Models`],
/// blended per partition with the stream's online history when it has
/// one ([`SourceEstimate::for_cell`], cell `rank · nfields + field`) —
/// per-partition bias correction, plus one region per rank at the
/// rank's adaptive headroom. The rank threads read the predictor
/// during the step; the stream ([`crate::step::StreamState`]) feeds
/// the observations back after it.
pub struct StreamSource<'a> {
    /// The fitted models to sample-predict with.
    pub models: &'a Models,
    /// The adaptive stream's predictor; `None` predicts like
    /// [`ModelSource`].
    pub online: Option<&'a OnlinePredictor>,
    /// Fields per rank (the predictor's cell stride).
    pub nfields: usize,
}

impl PredictionSource for StreamSource<'_> {
    fn estimate(
        &self,
        rank: usize,
        field: usize,
        data: &[f32],
        dims: &Dims,
        cfg: &Config,
        scratch: &mut EstimateScratch,
    ) -> Result<SourceEstimate, RealError> {
        let models = self.models;
        let model = ModelSource { models }.estimate(rank, field, data, dims, cfg, scratch)?;
        let cell = rank * self.nfields + field;
        Ok(model.for_cell((data.len() * 4) as u64, self.online, cell))
    }

    fn pooling(&self, rank: usize, estimates: &[SourceEstimate]) -> Pooling {
        pooling(self.online, rank, estimates)
    }
}

/// What actually happened to one (rank, field) partition — the
/// feedback half of the streaming loop.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FieldObservation {
    /// Predicted compressed size the layout was planned with.
    pub predicted: u64,
    /// Raw offline-model estimate ([`SourceEstimate::model_bytes`]).
    pub model_bytes: u64,
    /// Bytes reserved in the shared file for this partition (in a
    /// pooled region, its share of the rank's).
    pub reserved: u64,
    /// Actual compressed size, bytes.
    pub actual: u64,
    /// Bytes redirected to the overflow region (0 when the partition
    /// fit its region).
    pub overflow: u64,
}

/// Per-run observations, indexed `[rank][field]`.
pub type RunObservations = Vec<Vec<FieldObservation>>;

#[derive(Debug, Default, Clone)]
struct RankOutcome {
    phases: Breakdown,
    total: f64,
    /// Peak depth of this rank's async write queue.
    queue_depth_max: usize,
    fields: Vec<FieldObservation>,
}

/// Execute a parallel write with `data[rank][field]`.
///
/// Returns the aggregated [`RunResult`]; the written file at
/// `cfg.path` is closed and readable with [`h5lite::H5Reader`].
/// Predictions come from the offline-fitted `cfg.models`; use
/// [`run_real_with`] to plug in a different [`PredictionSource`] (and
/// to receive the per-partition observations back).
pub fn run_real(data: &[Vec<RankFieldData>], cfg: &RealConfig) -> Result<RunResult, RealError> {
    run_real_with(
        data,
        cfg,
        &ModelSource {
            models: &cfg.models,
        },
    )
    .map(|(res, _)| res)
}

/// [`run_real`] with a pluggable prediction source, returning the
/// per-partition [`RunObservations`] alongside the aggregate result.
pub fn run_real_with<S: PredictionSource + ?Sized>(
    data: &[Vec<RankFieldData>],
    cfg: &RealConfig,
    source: &S,
) -> Result<(RunResult, RunObservations), RealError> {
    let nranks = data.len();
    if nranks == 0 {
        return Err(RealError::Shape("no ranks".into()));
    }
    let nfields = data[0].len();
    if nfields == 0 || data.iter().any(|r| r.len() != nfields) {
        return Err(RealError::Shape(
            "all ranks need the same field list".into(),
        ));
    }
    for f in 0..nfields {
        let n0 = data[0][f].data.len();
        if data.iter().any(|r| r[f].data.len() != n0) {
            return Err(RealError::Shape(
                "per-field partition sizes must be uniform".into(),
            ));
        }
    }
    let compressed = cfg.method != Method::NoCompression;
    if compressed && cfg.configs.len() != nfields {
        return Err(RealError::Shape("need one Config per field".into()));
    }

    // Create the shared file and one chunked dataset per field. The
    // fault harness attaches after the superblock reservation, so its
    // op 0 is the run's first chunk write.
    let file = H5File::create(&cfg.path)?;
    if let Some(fs) = &cfg.faults {
        file.shared_file().set_faults(Some(Arc::clone(fs)));
    }
    let mut dataset_ids = Vec::with_capacity(nfields);
    for f in 0..nfields {
        let part_points = data[0][f].data.len() as u64;
        let total_points = part_points * nranks as u64;
        let mut spec =
            DatasetSpec::new(&data[0][f].name, Dtype::F32, &[total_points]).chunked(&[part_points]);
        if compressed {
            let (absolute, bound) = match cfg.configs[f].error_bound {
                ErrorBound::Abs(b) => (true, b),
                ErrorBound::Rel(b) => (false, b),
            };
            spec = spec.with_filter(FilterSpec {
                id: SZLITE_FILTER_ID,
                params: SzFilterParams {
                    absolute,
                    bound,
                    dims: data[0][f].dims.extents().to_vec(),
                }
                .to_bytes(),
            });
        }
        dataset_ids.push(file.create_dataset(spec)?);
    }

    let throttle = Arc::new(Throttle::from_model(&cfg.bandwidth, cfg.throttle_scale));

    let world = World::new(nranks);
    let base = file.tail(); // after the superblock

    // Stream buffers recycle through this pool across every rank and
    // field: compression workers take, the async write queue returns
    // after each write lands, so steady state allocates nothing per
    // partition.
    let pool = Arc::new(BufferPool::new());

    let outcomes: Vec<Result<RankOutcome, RealError>> = world.run(|rk| {
        let r = rk.rank();
        let run = || -> Result<RankOutcome, RealError> {
            let total = obs::timed_arg("real.rank", r as u64);
            let mut out = RankOutcome {
                fields: vec![FieldObservation::default(); nfields],
                ..RankOutcome::default()
            };
            match cfg.method {
                Method::NoCompression => {
                    // Offsets are known from raw sizes; independent
                    // async writes of every field.
                    let write = obs::timed("real.write");
                    let sizes: Vec<Vec<u64>> = data
                        .iter()
                        .map(|row| row.iter().map(|fd| (fd.data.len() * 4) as u64).collect())
                        .collect();
                    let plan = WritePlan::exact(&sizes, base);
                    let es = EventSet::new(1);
                    for f in 0..nfields {
                        let mut bytes = pool.take();
                        for v in &data[r][f].data {
                            bytes.extend_from_slice(&v.to_le_bytes());
                        }
                        let len = bytes.len() as u64;
                        file.write_chunk_at_async(
                            dataset_ids[f],
                            r as u64,
                            plan.slots[r][f].offset,
                            bytes,
                            len,
                            &es,
                            Some(Arc::clone(&throttle)),
                            Arc::clone(&pool),
                        )?;
                        out.fields[f] = FieldObservation::exact(len);
                    }
                    es.wait()?;
                    out.queue_depth_max = es.high_water();
                    out.phases.write = write.stop();
                }
                Method::FilterCollective => {
                    // Compress everything first (the filter model),
                    // serially but with a rank-local reused scratch.
                    let compress = obs::timed("real.compress");
                    let mut scratch = Scratch::new();
                    let mut streams = Vec::with_capacity(nfields);
                    for f in 0..nfields {
                        let mut s = Vec::new();
                        compress_into(
                            &data[r][f].data,
                            &data[r][f].dims,
                            &cfg.configs[f],
                            &mut scratch,
                            &mut s,
                        )?;
                        streams.push(s);
                    }
                    out.phases.compress = compress.stop();
                    // All-gather each rank's total: its streams go one
                    // after another, after the lower ranks' streams.
                    let allgather = obs::timed("real.allgather");
                    let my_sizes: Vec<u64> = streams.iter().map(|s| s.len() as u64).collect();
                    let totals = rk.try_all_gather(my_sizes.iter().sum::<u64>())?;
                    out.phases.allgather = allgather.stop();
                    let offsets = rank_offsets(&my_sizes, &totals, r, base);
                    // Collective write: one synchronized round per field.
                    let write = obs::timed("real.write");
                    for f in 0..nfields {
                        rk.try_barrier()?;
                        throttle.acquire(streams[f].len() as u64);
                        file.write_chunk_at(
                            dataset_ids[f],
                            r as u64,
                            offsets[f],
                            &streams[f],
                            (data[r][f].data.len() * 4) as u64,
                        )?;
                        rk.try_barrier()?;
                        out.fields[f] = FieldObservation::exact(streams[f].len() as u64);
                    }
                    out.phases.write = write.stop();
                }
                Method::Overlap | Method::OverlapReorder => {
                    // Phase 1: prediction (pluggable source).
                    let predict = obs::timed("real.predict");
                    let mut my_ests = Vec::with_capacity(nfields);
                    let mut est_scratch = EstimateScratch::new();
                    for f in 0..nfields {
                        my_ests.push(source.estimate(
                            r,
                            f,
                            &data[r][f].data,
                            &data[r][f].dims,
                            &cfg.configs[f],
                            &mut est_scratch,
                        )?);
                    }
                    let pooling = source.pooling(r, &my_ests);
                    out.phases.predict = predict.stop();

                    // Phases 2–3: all-gather every rank's reserved
                    // total; each rank's run of the file starts after
                    // the lower ranks', so every rank derives the
                    // identical layout and its own row of it.
                    let allgather = obs::timed("real.allgather");
                    let (preds, reserves) = rank_reservations(&my_ests, pooling, &cfg.policy);
                    let totals = rk.try_all_gather(reserves.iter().sum::<u64>())?;
                    let view = RankPlanView::new(&preds, &reserves, &totals, r, base);
                    let mut regions = view.regions(pooling);
                    out.phases.allgather = allgather.stop();

                    // Phase 4: compression order.
                    let order = compression_order(cfg.method == Method::OverlapReorder, &my_ests);

                    // Phase 5: pipelined compress + async write. Field
                    // compression fans out to `sz_threads` workers
                    // (each reusing one szlite Scratch across fields)
                    // while finished streams are handed to the async
                    // write queue in scheduled order — compression of
                    // field k+1 overlaps the write of field k, and at
                    // sz_threads = 1 this runs inline, matching the
                    // paper's single-threaded overlap exactly. Each
                    // stream is placed as it arrives, in write order.
                    let es = EventSet::new(1);
                    let mut overflow_parts: Vec<(usize, Vec<u8>)> = Vec::new();
                    let fanout = obs::timed("real.compress");
                    let mut comp_total = 0.0;
                    ordered_fanout::<_, _, RealError, _, _, _>(
                        order.len() as u64,
                        cfg.sz_threads,
                        Scratch::new,
                        |scratch, pos| {
                            let f = order[pos as usize];
                            let field = obs::timed_arg("real.compress_field", f as u64);
                            let mut stream = pool.take();
                            compress_into(
                                &data[r][f].data,
                                &data[r][f].dims,
                                &cfg.configs[f],
                                scratch,
                                &mut stream,
                            )?;
                            Ok((stream, field.stop()))
                        },
                        |pos, (mut stream, secs): (Vec<u8>, f64)| {
                            let f = order[pos as usize];
                            comp_total += secs;
                            let (offset, split) = regions.place(f, stream.len() as u64);
                            let reserved = view.slots[f].reserved;
                            out.fields[f] = FieldObservation::settle(&my_ests[f], reserved, split);
                            let tail = stream.split_off(split.in_slot as usize);
                            file.write_chunk_at_async(
                                dataset_ids[f],
                                r as u64,
                                offset,
                                stream,
                                (data[r][f].data.len() * 4) as u64,
                                &es,
                                Some(Arc::clone(&throttle)),
                                Arc::clone(&pool),
                            )?;
                            if !tail.is_empty() {
                                overflow_parts.push((f, tail));
                            }
                            Ok(())
                        },
                    )?;
                    // Aggregate worker-seconds exceed the phase's wall
                    // clock when sz_threads > 1; clamp to the fan-out
                    // span so the breakdown stays additive (identical
                    // numbers at sz_threads = 1, where comp_total is
                    // always within the span).
                    let fanout_secs = fanout.stop();
                    out.phases.compress = comp_total.min(fanout_secs);
                    // Extra write time beyond the compression: what of
                    // the fan-out span was not compressing, plus the
                    // wait for the queue to drain.
                    let drain = obs::timed("real.write");
                    es.wait()?;
                    out.queue_depth_max = es.high_water();
                    out.phases.write = fanout_secs - out.phases.compress + drain.stop();

                    // Phase 6: overflow redirection. All-gather each
                    // rank's spilled total: its tails go past
                    // `data_end` in field order, after the lower ranks'.
                    let overflow = obs::timed("real.overflow");
                    let my_ovf: Vec<u64> = out.fields.iter().map(|o| o.overflow).collect();
                    let totals = rk.try_all_gather(my_ovf.iter().sum::<u64>())?;
                    if totals.iter().any(|&b| b > 0) {
                        let offsets = rank_offsets(&my_ovf, &totals, r, view.data_end);
                        for (f, bytes) in overflow_parts {
                            throttle.acquire(bytes.len() as u64);
                            file.write_chunk_at(dataset_ids[f], r as u64, offsets[f], &bytes, 0)?;
                            pool.put(bytes);
                        }
                    }
                    rk.try_barrier()?;
                    out.phases.overflow = overflow.stop();
                    if r == 0 {
                        file.shared_file()
                            .advance_tail_to(view.data_end)
                            .map_err(std::io::Error::from)?;
                    }
                }
            }
            out.total = total.stop();
            Ok(out)
        };
        // The one place a panic becomes an error, reported over the
        // `PeerFailed` it causes like any rank's.
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)).unwrap_or_else(|p| {
            let message = p.downcast_ref::<&str>().map(|s| s.to_string());
            let message = message.or_else(|| p.downcast_ref::<String>().cloned());
            let message = message.unwrap_or_default();
            Err(RealError::RankPanicked { rank: r, message })
        });
        if res.is_err() {
            // This rank can no longer reach its collectives; without
            // the poison, surviving ranks would block forever in
            // barrier/all_gather waiting for it (e.g. after an
            // injected torn write fails one rank mid-step).
            rk.poison();
        }
        res
    });

    // A poisoned collective is a symptom; report the rank error that
    // caused it when one exists.
    let mut agg = RankOutcome::default();
    let mut observations: RunObservations = Vec::with_capacity(nranks);
    let mut failed: Option<RealError> = None;
    for o in outcomes {
        match o {
            Ok(o) => {
                agg.phases.max_merge(&o.phases);
                agg.total = agg.total.max(o.total);
                agg.queue_depth_max = agg.queue_depth_max.max(o.queue_depth_max);
                observations.push(o.fields);
            }
            Err(e) => {
                if matches!(failed, None | Some(RealError::PeerFailed)) {
                    failed = Some(e);
                }
            }
        }
    }
    if let Some(e) = failed {
        return Err(e);
    }

    // Metadata: record run parameters as attributes, then close.
    for (f, &id) in dataset_ids.iter().enumerate() {
        file.set_attr(id, "method", AttrValue::Str(cfg.method.label().to_string()))?;
        if compressed {
            let bound = match cfg.configs[f].error_bound {
                ErrorBound::Abs(b) | ErrorBound::Rel(b) => b,
            };
            file.set_attr(id, "error_bound", AttrValue::F64(bound))?;
        }
        file.set_attr(id, "rspace", AttrValue::F64(cfg.policy.rspace))?;
    }
    file.close()?;

    // Opt-in phase 7: read-back verification through the pipelined
    // reader — the decode mirror of the write pipeline, timed as its
    // own breakdown phase.
    if cfg.verify {
        let verify = obs::timed("real.verify");
        let configs = compressed.then_some(cfg.configs.as_slice());
        let report = crate::verify::verify_file(&cfg.path, data, configs, cfg.sz_threads)?;
        agg.phases.verify = verify.stop();
        if let Some(bad) = report.fields.iter().find(|f| !f.ok) {
            return Err(RealError::Verification {
                field: bad.name.clone(),
                max_abs_err: bad.max_abs_err,
                max_bound: bad.max_bound,
            });
        }
    }

    let raw_bytes: u64 = data
        .iter()
        .flatten()
        .map(|fd| (fd.data.len() * 4) as u64)
        .sum();
    let file_bytes = std::fs::metadata(&cfg.path)?.len();
    let mut result = RunResult::collect(
        cfg.method,
        agg.total,
        agg.phases,
        raw_bytes,
        file_bytes,
        &observations,
    );
    result.queue_depth_max = agg.queue_depth_max as u64;
    if matches!(cfg.method, Method::Overlap | Method::OverlapReorder) {
        // Per-rank received bytes × world size: the aggregate wire
        // traffic of this step's reservation exchange.
        result.reservation_wire_bytes =
            reservation_wire_bytes(nranks, nfields, None) * nranks as u64;
    }
    Ok((result, observations))
}
