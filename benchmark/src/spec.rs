//! The four workloads and the inputs they stream.
//!
//! Names are final: later issues cite them. Sizes are for a 2-core
//! host with 4 MiB of L2 per core: every writer's share of a step is
//! at least 8 MiB, and no phase keeps more than two threads busy.

use crate::spans::{Recorder, ROOT};
use pfsim::BandwidthModel;
use predwrite::{AdaptMode, Method, RankFieldData};
use ratiomodel::OnlineConfig;
use std::path::PathBuf;
use szlite::{Config, Dims};
use timeline::{partition_1d, partition_3d, TimelineConfig};
use workloads::{Dataset, SnapshotStream};

/// Correlated snapshots a stream cycles through.
pub const SNAPSHOTS: usize = 4;
/// Leading steps of every stream that count toward set-up, not the
/// timed phase: the online predictor warms up, buffer pools fill, and
/// the scheduler has spread the step's threads over both cores (see
/// `host::settle_cores`).
pub const WARMUP_STEPS: usize = 8;
/// Relative error bound of every field.
pub const REL_BOUND: f64 = 1e-3;

/// Who writes a step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `timeline::run_timeline` over 2 rank threads.
    Engine,
    /// One writer: `H5File::write_full_pipelined` of a chunked dataset.
    Chunked,
}

/// One benchmark workload.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    pub name: &'static str,
    pub kind: Kind,
    /// The stream, before `--seed` is applied.
    pub stream: SnapshotStream,
    /// Rank threads of the engine view.
    pub nranks: usize,
    pub method: Method,
    pub mode: AdaptMode,
    pub throttle_scale: f64,
    pub keep_files: bool,
    /// Chunk extents of the chunked view of the first field.
    pub chunk: Vec<u64>,
    /// Compression / decode workers of the chunked view, and decode
    /// workers of every restart read.
    pub workers: usize,
}

/// Names of the four workloads, in reporting order.
pub const NAMES: [&str; 4] = ["nyx_compute", "nyx_iobound", "vpic_adaptive", "rtm_chunked"];

impl WorkloadSpec {
    /// The workload called `name`. `small` shrinks the data to 1/8 for
    /// the harness self-tests; benchmark runs never use it.
    pub fn named(name: &str, small: bool) -> Option<WorkloadSpec> {
        let side = |full: usize| if small { full / 2 } else { full };
        let cube = |full: u64| vec![if small { full / 2 } else { full }; 3];
        let base = WorkloadSpec {
            name: "",
            kind: Kind::Engine,
            stream: SnapshotStream::nyx(side(96)),
            nranks: 2,
            method: Method::Overlap,
            mode: AdaptMode::Static,
            throttle_scale: 1.0,
            keep_files: false,
            chunk: cube(32),
            workers: 2,
        };
        Some(match name {
            "nyx_compute" => WorkloadSpec {
                name: "nyx_compute",
                ..base
            },
            "nyx_iobound" => WorkloadSpec {
                name: "nyx_iobound",
                method: Method::OverlapReorder,
                throttle_scale: 0.025,
                ..base
            },
            "vpic_adaptive" => WorkloadSpec {
                name: "vpic_adaptive",
                stream: SnapshotStream::vpic(if small { 1 << 16 } else { 1 << 19 }),
                method: Method::OverlapReorder,
                mode: AdaptMode::Adaptive(OnlineConfig::default()),
                throttle_scale: 0.14,
                keep_files: true,
                chunk: vec![if small { 1 << 12 } else { 1 << 15 }],
                ..base
            },
            "rtm_chunked" => WorkloadSpec {
                name: "rtm_chunked",
                kind: Kind::Chunked,
                stream: SnapshotStream::rtm(side(128)),
                ..base
            },
            _ => return None,
        })
    }

    /// Engine configuration of this workload: `quick(..)` defaults,
    /// then every field the workload defines assigned explicitly, so a
    /// config field added later does not break this frozen harness.
    pub fn timeline_config(&self, steps: usize, nfields: usize, dir: PathBuf) -> TimelineConfig {
        let mut cfg = TimelineConfig::quick(steps, nfields, self.mode, dir);
        cfg.method = self.method;
        cfg.configs = vec![Config::rel(REL_BOUND); nfields];
        cfg.bandwidth = BandwidthModel::tiny_for_tests();
        cfg.throttle_scale = self.throttle_scale;
        cfg.sz_threads = 1;
        // Outputs are checked after the timed phases, untimed.
        cfg.verify = false;
        cfg.keep_files = self.keep_files;
        cfg
    }

    /// Aggregate write rate the throttle enforces, bytes/s.
    pub fn throttle_rate(&self) -> f64 {
        BandwidthModel::tiny_for_tests().aggregate_cap * self.throttle_scale
    }
}

/// Snapshot a stream step cycles to: `0, 1, .., d-1, d-2, .., 1, 0, 1,
/// ..` so consecutive steps stay correlated.
pub fn pingpong(step: usize, d: usize) -> usize {
    if d <= 1 {
        return 0;
    }
    let period = 2 * (d - 1);
    let i = step % period;
    if i < d {
        i
    } else {
        period - i
    }
}

/// One snapshot in the shape its workload writes it.
pub struct StepInput {
    /// `data[rank][field]`: 2 rank partitions per field for engine
    /// workloads; one whole field for the chunked workload (the shape
    /// `verify_file` checks a chunked file against).
    pub parts: Vec<Vec<RankFieldData>>,
    /// Little-endian bytes of the field (chunked workload only).
    pub bytes: Vec<u8>,
    /// The snapshot itself, kept only for the traced layer pass.
    pub dataset: Option<Dataset>,
}

impl StepInput {
    /// Raw bytes one step writes.
    pub fn raw_bytes(&self) -> u64 {
        self.parts
            .iter()
            .flatten()
            .map(|f| (f.data.len() * 4) as u64)
            .sum()
    }
}

/// Partition a snapshot into `data[rank][field]`.
pub fn partition(ds: &Dataset, particle: bool, nranks: usize) -> Vec<Vec<RankFieldData>> {
    if particle {
        partition_1d(ds, nranks)
    } else {
        partition_3d(ds, nranks)
    }
}

/// Little-endian bytes of `data`.
pub fn le_bytes(data: &[f32]) -> Vec<u8> {
    data.iter().flat_map(|v| v.to_le_bytes()).collect()
}

/// `szlite` extents of a `workloads` field.
pub fn field_dims(dims: &[usize]) -> Dims {
    Dims::from_slice(dims).expect("generated fields have 1 to 3 non-empty extents")
}

/// Generate and partition the [`SNAPSHOTS`] inputs of `spec` from
/// `seed`. Two threads generate (the only set-up work that can use the
/// second core); partitioning is serial. With a recorder, one
/// `bench.workloads.*` span is recorded per snapshot and partition.
pub fn generate(
    spec: &WorkloadSpec,
    seed: u64,
    keep_datasets: bool,
    rec: Option<&Recorder>,
) -> Vec<StepInput> {
    let stream = spec.stream.seed(seed);
    let snapshot = |i: usize| {
        let _span = rec.map(|r| r.span("bench.workloads.snapshot", ROOT, i as u64));
        stream.snapshot(i)
    };
    let mut datasets: Vec<Option<Dataset>> = (0..SNAPSHOTS).map(|_| None).collect();
    std::thread::scope(|s| {
        let (even, odd): (Vec<_>, Vec<_>) = datasets
            .iter_mut()
            .enumerate()
            .partition(|(i, _)| i % 2 == 0);
        for half in [even, odd] {
            s.spawn(|| {
                for (i, slot) in half {
                    *slot = Some(snapshot(i));
                }
            });
        }
    });
    datasets
        .into_iter()
        .enumerate()
        .map(|(i, ds)| {
            let ds = ds.expect("both generator threads were joined");
            let span = rec.map(|r| r.span("bench.workloads.partition", ROOT, i as u64));
            let (parts, bytes) = match spec.kind {
                Kind::Engine => (
                    partition(&ds, stream.is_particle(), spec.nranks),
                    Vec::new(),
                ),
                Kind::Chunked => {
                    let f = &ds.fields[0];
                    let whole = RankFieldData {
                        name: f.name.clone(),
                        data: f.data.clone(),
                        dims: field_dims(&f.dims),
                    };
                    (vec![vec![whole]], le_bytes(&f.data))
                }
            };
            drop(span);
            StepInput {
                parts,
                bytes,
                dataset: keep_datasets.then_some(ds),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pingpong_walks_back_and_forth() {
        let got: Vec<usize> = (0..14).map(|s| pingpong(s, 4)).collect();
        assert_eq!(got, [0, 1, 2, 3, 2, 1, 0, 1, 2, 3, 2, 1, 0, 1]);
        // Consecutive steps are always neighbours, never a jump.
        for d in 2..7 {
            for s in 0..40 {
                assert_eq!(
                    pingpong(s, d).abs_diff(pingpong(s + 1, d)),
                    1,
                    "d={d} s={s}"
                );
                assert!(pingpong(s, d) < d);
            }
        }
        assert_eq!(pingpong(5, 1), 0);
        assert_eq!(pingpong(5, 0), 0);
    }

    #[test]
    fn every_name_resolves_and_inputs_follow_the_seed() {
        for name in NAMES {
            assert_eq!(WorkloadSpec::named(name, false).unwrap().name, name);
        }
        assert!(WorkloadSpec::named("nope", false).is_none());
        let spec = WorkloadSpec::named("rtm_chunked", true).unwrap();
        let a = generate(&spec, 1, false, None);
        let b = generate(&spec, 1, false, None);
        let c = generate(&spec, 2, false, None);
        assert_eq!(a.len(), SNAPSHOTS);
        assert_eq!(a[2].bytes, b[2].bytes);
        assert_ne!(a[2].bytes, c[2].bytes);
        assert_eq!(a[0].raw_bytes(), 64 * 64 * 64 * 4);
        assert!(a[0].dataset.is_none());
    }
}
