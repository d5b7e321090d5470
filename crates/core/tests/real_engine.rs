//! End-to-end tests of the real execution engine: threads-as-ranks
//! compressing synthetic Nyx data and writing a shared h5lite file,
//! then reading it back and checking the error bound.

use pfsim::BandwidthModel;
use predwrite::{
    run_real, run_real_with, ExtraSpacePolicy, Method, ModelSource, Pooling, PredictionSource,
    RankFieldData, RealConfig, RealError, ReservationTopology, RunResult, SourceEstimate,
};
use ratiomodel::{EstimateScratch, Models};
use std::panic;
use std::path::PathBuf;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;
use szlite::{Config, Dims};
use testutil::TempPath;
use workloads::{nyx, Decomposition, NyxParams};

/// RAII temp path: the container file is removed when the guard drops,
/// even if an assertion fails mid-test.
fn tmp(name: &str) -> TempPath {
    TempPath::new(&format!("predwrite-{name}"), "h5l")
}

/// Build per-rank field data from a Nyx snapshot.
fn nyx_rank_data(side: usize, nranks: usize) -> (Vec<Vec<RankFieldData>>, Vec<Vec<f32>>) {
    let ds = nyx::snapshot(NyxParams::with_side(side));
    let dec = Decomposition::new(nranks, [side, side, side]);
    let bd = dec.block;
    let mut per_rank = Vec::with_capacity(nranks);
    for r in 0..nranks {
        let fields = ds
            .fields
            .iter()
            .map(|f| RankFieldData {
                name: f.name.clone(),
                data: dec.extract(f, r),
                dims: Dims::d3(bd[0], bd[1], bd[2]),
            })
            .collect();
        per_rank.push(fields);
    }
    let originals = ds.fields.iter().map(|f| f.data.clone()).collect();
    (per_rank, originals)
}

fn config(method: Method, path: PathBuf) -> RealConfig {
    RealConfig {
        method,
        configs: vec![Config::rel(1e-3); 6],
        models: Models::with_cthr(50e6),
        policy: ExtraSpacePolicy::new(1.25),
        bandwidth: BandwidthModel::tiny_for_tests(),
        throttle_scale: 0.5,
        sz_threads: 1,
        verify: false,
        path,
        reservation: ReservationTopology::Flat,
        faults: None,
    }
}

/// Reassemble a field from per-rank chunks (rank-ordered 1-D layout)
/// and compare against the original 3-D field per-rank block.
fn verify_within_bound(path: &PathBuf, data: &[Vec<RankFieldData>], eb_rel: f64, lossy: bool) {
    let reader = h5lite::H5Reader::open(path).unwrap();
    let nranks = data.len();
    for f in 0..data[0].len() {
        let name = &data[0][f].name;
        let stored = reader.read_f32(name).unwrap();
        let part_len = data[0][f].data.len();
        assert_eq!(stored.len(), part_len * nranks);
        // Resolve the relative bound against each rank's block range.
        for (r, rank_fields) in data.iter().enumerate() {
            let orig = &rank_fields[f].data;
            let chunk = &stored[r * part_len..(r + 1) * part_len];
            let (mn, mx) = orig
                .iter()
                .fold((f32::MAX, f32::MIN), |(a, b), &v| (a.min(v), b.max(v)));
            let eb = if lossy {
                (eb_rel * f64::from(mx - mn)).max(1e-30)
            } else {
                0.0
            };
            for (i, (&a, &b)) in orig.iter().zip(chunk).enumerate() {
                assert!(
                    (f64::from(a) - f64::from(b)).abs() <= eb,
                    "{name} rank {r} point {i}: {a} vs {b} (eb {eb})"
                );
            }
        }
    }
}

#[test]
fn overlap_reorder_end_to_end() {
    let (data, _) = nyx_rank_data(16, 8);
    let guard = tmp("reorder");
    let path = guard.path().to_path_buf();
    let res = run_real(&data, &config(Method::OverlapReorder, path.clone())).unwrap();
    assert!(res.total_time > 0.0);
    assert!(res.compressed_bytes > 0);
    assert!(res.compressed_bytes < res.raw_bytes);
    verify_within_bound(&path, &data, 1e-3, true);
}

#[test]
fn overlap_end_to_end() {
    let (data, _) = nyx_rank_data(16, 8);
    let guard = tmp("overlap");
    let path = guard.path().to_path_buf();
    let res = run_real(&data, &config(Method::Overlap, path.clone())).unwrap();
    assert!(
        res.breakdown.predict > 0.0,
        "prediction phase must be timed"
    );
    verify_within_bound(&path, &data, 1e-3, true);
}

#[test]
fn filter_collective_end_to_end() {
    let (data, _) = nyx_rank_data(16, 4);
    let guard = tmp("filter");
    let path = guard.path().to_path_buf();
    let res = run_real(&data, &config(Method::FilterCollective, path.clone())).unwrap();
    assert!(res.breakdown.compress > 0.0);
    assert_eq!(res.n_overflow, 0, "exact sizes never overflow");
    verify_within_bound(&path, &data, 1e-3, true);
}

#[test]
fn no_compression_end_to_end() {
    let (data, _) = nyx_rank_data(16, 4);
    let guard = tmp("nocomp");
    let path = guard.path().to_path_buf();
    let res = run_real(&data, &config(Method::NoCompression, path.clone())).unwrap();
    assert_eq!(res.compressed_bytes, res.raw_bytes);
    verify_within_bound(&path, &data, 0.0, false);
}

/// The fitted models' predictions at half their size: every partition
/// under-predicted, as an optimistic size model would.
struct Optimistic {
    models: Models,
}

impl PredictionSource for Optimistic {
    fn estimate(
        &self,
        rank: usize,
        field: usize,
        data: &[f32],
        dims: &Dims,
        cfg: &Config,
        scratch: &mut EstimateScratch,
    ) -> Result<SourceEstimate, RealError> {
        let models = &self.models;
        let est = ModelSource { models }.estimate(rank, field, data, dims, cfg, scratch)?;
        let bytes = (est.bytes / 2).max(1);
        Ok(SourceEstimate {
            bytes,
            ratio: (data.len() * 4) as f64 / bytes as f64,
            model_bytes: bytes,
            ..est
        })
    }
}

#[test]
fn tight_reservation_forces_overflow_and_data_survives() {
    // Failure injection: an optimistic source under-predicts sizes, and
    // rspace = 1.0 leaves no slack → partitions overflow; the file must
    // still decode (Fig. 8 path).
    let (data, _) = nyx_rank_data(16, 8);
    let guard = tmp("overflow");
    let path = guard.path().to_path_buf();
    let mut cfg = config(Method::Overlap, path.clone());
    cfg.policy = ExtraSpacePolicy::new(1.0);
    let source = Optimistic { models: cfg.models };
    let (res, _) = run_real_with(&data, &cfg, &source).unwrap();
    assert!(
        res.n_overflow > 0,
        "expected overflows with rspace=1.0 (got {})",
        res.n_overflow
    );
    assert!(res.overflow_bytes > 0);
    verify_within_bound(&path, &data, 1e-3, true);
}

#[test]
fn engine_verification_passes_for_all_methods() {
    // The opt-in verify phase re-reads the file through the pipelined
    // reader and checks every element; it must pass for every method
    // and record its wall clock in the breakdown.
    let (data, _) = nyx_rank_data(16, 4);
    for method in Method::ALL {
        let guard = tmp(&format!("verify-{}", method.label()));
        let path = guard.path().to_path_buf();
        let mut cfg = config(method, path.clone());
        cfg.verify = true;
        cfg.sz_threads = 2; // exercise the pooled decode path
        let res = run_real(&data, &cfg).unwrap();
        assert!(
            res.breakdown.verify > 0.0,
            "{method:?}: verify phase must be timed"
        );
    }
}

#[test]
fn engine_verification_survives_overflow_redirection() {
    // Overflowed partitions store their tail past the reserved region;
    // the pipelined reader must reassemble prefix + tail before decode
    // or verification would fail.
    let (data, _) = nyx_rank_data(16, 8);
    let guard = tmp("verify-overflow");
    let path = guard.path().to_path_buf();
    let mut cfg = config(Method::Overlap, path.clone());
    cfg.policy = ExtraSpacePolicy::new(1.0);
    cfg.verify = true;
    cfg.sz_threads = 4;
    let source = Optimistic { models: cfg.models };
    let (res, _) = run_real_with(&data, &cfg, &source).unwrap();
    assert!(res.n_overflow > 0, "setup must force overflow");
    assert!(res.breakdown.verify > 0.0);
}

#[test]
fn standalone_verify_reports_per_field() {
    let (data, _) = nyx_rank_data(16, 4);
    let guard = tmp("verify-standalone");
    let path = guard.path().to_path_buf();
    let cfg = config(Method::OverlapReorder, path.clone());
    run_real(&data, &cfg).unwrap();
    let report = predwrite::verify_file(&path, &data, Some(&cfg.configs), 2).unwrap();
    assert!(report.ok());
    assert_eq!(report.fields.len(), 6);
    assert_eq!(report.n_points(), 6 * 16 * 16 * 16);
    for f in &report.fields {
        assert!(
            f.max_abs_err <= f.max_bound,
            "{}: {} > {}",
            f.name,
            f.max_abs_err,
            f.max_bound
        );
    }
}

#[test]
fn verify_detects_corruption() {
    // Flip bytes in the middle of the stored chunk data; verification
    // must either surface a decode error or report a bound violation —
    // silently passing would defeat its purpose.
    let (data, _) = nyx_rank_data(16, 4);
    let guard = tmp("verify-corrupt");
    let path = guard.path().to_path_buf();
    let cfg = config(Method::Overlap, path.clone());
    run_real(&data, &cfg).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    // Corrupt a swath of chunk payload (past the 32-byte superblock,
    // well before the trailing metadata table).
    let start = 200;
    for b in bytes.iter_mut().skip(start).take(64) {
        *b ^= 0xA5;
    }
    std::fs::write(&path, &bytes).unwrap();
    match predwrite::verify_file(&path, &data, Some(&cfg.configs), 2) {
        Err(_) => {}                         // decode failure: detected
        Ok(report) => assert!(!report.ok()), // or bound violation
    }
}

#[test]
fn methods_agree_on_compressed_bytes() {
    // Filter and overlap paths compress identical data with identical
    // configs; totals must match exactly (deterministic compressor).
    let (data, _) = nyx_rank_data(16, 4);
    let guard_p1 = tmp("agree1");
    let p1 = guard_p1.path().to_path_buf();
    let guard_p2 = tmp("agree2");
    let p2 = guard_p2.path().to_path_buf();
    let r1 = run_real(&data, &config(Method::FilterCollective, p1.clone())).unwrap();
    let r2 = run_real(&data, &config(Method::OverlapReorder, p2.clone())).unwrap();
    assert_eq!(r1.compressed_bytes, r2.compressed_bytes);
}

#[test]
fn run_results_have_consistent_storage_accounting() {
    let (data, _) = nyx_rank_data(16, 4);
    let guard = tmp("storage");
    let path = guard.path().to_path_buf();
    let res: RunResult = run_real(&data, &config(Method::Overlap, path.clone())).unwrap();
    // File contains at least the compressed in-slot bytes plus header.
    assert!(res.file_bytes > res.compressed_bytes.saturating_sub(res.overflow_bytes));
    assert!(res.effective_ratio() <= res.ideal_ratio());
}

#[test]
fn rejects_mismatched_inputs() {
    let (mut data, _) = nyx_rank_data(16, 4);
    data[1].pop(); // rank 1 has one fewer field
    let guard = tmp("reject");
    let path = guard.path().to_path_buf();
    assert!(run_real(&data, &config(Method::Overlap, path)).is_err());
}

/// `body`'s result, or a failure if it has none within `secs`: a hang
/// fails the test instead of stalling the suite.
fn within<T: Send + 'static>(secs: u64, body: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    let t = std::thread::spawn(move || tx.send(body()));
    match rx.recv_timeout(Duration::from_secs(secs)) {
        Ok(v) => v,
        Err(RecvTimeoutError::Disconnected) => panic::resume_unwind(t.join().unwrap_err()),
        Err(RecvTimeoutError::Timeout) => panic!("no result within {secs} s: hung"),
    }
}

/// Predicts each partition at its exact compressed size (`sizes`)
/// shifted by `skew[field]` bytes, and pools each rank's region at
/// exactly its estimates' sum.
struct Skewed {
    sizes: Vec<Vec<u64>>,
    skew: [i64; 3],
}

impl PredictionSource for Skewed {
    fn estimate(
        &self,
        rank: usize,
        field: usize,
        data: &[f32],
        _dims: &Dims,
        _cfg: &Config,
        _scratch: &mut EstimateScratch,
    ) -> Result<SourceEstimate, RealError> {
        let bytes = (self.sizes[rank][field] as i64 + self.skew[field]).max(1) as u64;
        Ok(SourceEstimate {
            bytes,
            ratio: (data.len() * 4) as f64 / bytes as f64,
            comp_time: 1.0,
            write_time: 1.0,
            model_bytes: bytes,
        })
    }

    fn pooling(&self, _rank: usize, _estimates: &[SourceEstimate]) -> Pooling {
        Pooling::Region(Some(1.0))
    }
}

#[test]
fn a_pooled_rank_spills_only_what_its_region_cannot_hold() {
    // Three fields a rank writes in field order: the first predicted 50
    // bytes over, the second 100 under, the third at 1 byte. The region
    // is the sum, 49 bytes short of the first two streams: the first
    // lands whole, the second spills only those 49 (its own slot was
    // 100 short), and the third finds the region full and goes to the
    // overflow region whole — and every field decodes within bound.
    let (mut data, _) = nyx_rank_data(16, 2);
    for rank in &mut data {
        rank.truncate(3);
    }
    let cfg = Config::rel(1e-3);
    let sizes: Vec<Vec<u64>> = (data.iter())
        .map(|rank| {
            (rank.iter())
                .map(|f| szlite::compress(&f.data, &f.dims, &cfg).unwrap().len() as u64)
                .collect()
        })
        .collect();
    let guard = tmp("pooled-spill");
    let mut rc = config(Method::Overlap, guard.path().to_path_buf());
    (rc.configs, rc.verify) = (vec![cfg; 3], true);
    let source = Skewed {
        sizes: sizes.clone(),
        skew: [50, -100, -(1 << 40)],
    };
    let (res, obs) = run_real_with(&data, &rc, &source).unwrap();
    let regions: Vec<u64> = (sizes.iter()).map(|s| s[0] + s[1] - 49).collect();
    for (r, row) in obs.iter().enumerate() {
        let spills: Vec<u64> = row.iter().map(|o| o.overflow).collect();
        assert_eq!(spills, [0, 49, sizes[r][2]], "rank {r}");
        assert_eq!(row[1].in_slot(), row[1].reserved + 51, "rank {r}");
        assert_eq!(row[2].in_slot(), 0, "rank {r}");
    }
    assert_eq!(res.n_overflow, 4);
    assert_eq!(res.overflow_bytes, 98 + sizes[0][2] + sizes[1][2]);

    // In the file: rank 1's run starts after rank 0's region, each
    // second stream's prefix right after its first, its tail past the
    // reserved area.
    let reader = h5lite::H5Reader::open(guard.path()).unwrap();
    let base = h5lite::SUPERBLOCK;
    let data_end = base + regions.iter().sum::<u64>();
    let second = &reader.meta(&data[0][1].name).unwrap().chunks;
    for (r, start) in [(0, base), (1, base + regions[0])] {
        let segments: Vec<(u64, u64)> = (second.iter())
            .filter(|c| c.index == r as u64)
            .map(|c| (c.offset, c.stored))
            .collect();
        assert_eq!(segments.len(), 2, "rank {r}");
        assert_eq!(segments[0], (start + sizes[r][0], sizes[r][1] - 49));
        assert!(segments[1].0 >= data_end && segments[1].1 == 49);
    }
}

/// The fitted models' predictions, except that rank `rank` panics.
struct PanicsOn {
    rank: usize,
    models: Models,
}

impl PredictionSource for PanicsOn {
    fn estimate(
        &self,
        rank: usize,
        field: usize,
        data: &[f32],
        dims: &Dims,
        cfg: &Config,
        scratch: &mut EstimateScratch,
    ) -> Result<SourceEstimate, RealError> {
        if rank == self.rank {
            panic!("source fails on rank {rank}");
        }
        let models = &self.models;
        ModelSource { models }.estimate(rank, field, data, dims, cfg, scratch)
    }
}

#[test]
fn a_panicking_rank_ends_the_run_in_a_typed_error() {
    // The rank panics before the first all-gather, where its peers are
    // parked: the run must end, and name it over their PeerFailed.
    within(60, || {
        for nranks in [2, 4] {
            let (data, _) = nyx_rank_data(16, nranks);
            for method in [Method::Overlap, Method::OverlapReorder] {
                for rank in 0..nranks {
                    let guard = tmp(&format!("panic-{nranks}-{rank}-{}", method.label()));
                    let cfg = config(method, guard.path().to_path_buf());
                    let source = PanicsOn {
                        rank,
                        models: cfg.models,
                    };
                    let err = run_real_with(&data, &cfg, &source).map(drop).unwrap_err();
                    assert_eq!(
                        format!("{err:?}"),
                        format!(
                            "RankPanicked {{ rank: {rank}, message: \"source fails on rank {rank}\" }}"
                        ),
                        "{nranks} ranks, {method:?}"
                    );
                    assert_eq!(
                        err.to_string(),
                        format!("real engine: rank {rank} panicked: source fails on rank {rank}")
                    );
                }
            }
        }
    });
}
