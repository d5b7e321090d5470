//! Heap-allocation counts of the predict phase, under a counting
//! global allocator: the estimate pass must stay allocation-free once
//! its scratch is warm, and a step's predict phase must allocate per
//! field, never per sampled block.

use repro_suite::pfsim::BandwidthModel;
use repro_suite::predwrite::{
    run_real_with, ExtraSpacePolicy, Method, ModelSource, PredictionSource, RankFieldData,
    RealConfig, RealError, ReservationTopology, SourceEstimate,
};
use repro_suite::ratiomodel::{estimate_partition_with, EstimateScratch, Models};
use repro_suite::szlite::{Config, Dims};
use repro_suite::timeline::{partition_1d, partition_3d};
use repro_suite::workloads::SnapshotStream;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use testutil::TempPath;

thread_local! {
    /// Allocations (and growing reallocations) made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`; the counter is
// a const-initialised thread-local `Cell` without a destructor, so
// touching it neither allocates nor runs after its own teardown.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs_here() -> u64 {
    ALLOCS.with(Cell::get)
}

#[test]
fn warm_estimate_allocates_nothing() {
    let models = Models::with_cthr(50e6);
    let cfg = Config::rel(1e-3);
    let nyx = partition_3d(&SnapshotStream::nyx(32).seed(3).snapshot(0), 2);
    let vpic = partition_1d(&SnapshotStream::vpic(1 << 16).seed(3).snapshot(0), 2);
    for fields in [&nyx[0], &vpic[1]] {
        let mut scratch = EstimateScratch::new();
        for f in fields {
            let first = estimate_partition_with(&f.data, &f.dims, &cfg, &models, &mut scratch);
            let before = allocs_here();
            let second = estimate_partition_with(&f.data, &f.dims, &cfg, &models, &mut scratch);
            assert_eq!(allocs_here() - before, 0, "field {}", f.name);
            assert_eq!(first.unwrap(), second.unwrap());
        }
    }
}

/// The static source, with the allocations its calls make on their
/// rank threads added up.
struct CountedSource<'a> {
    inner: ModelSource<'a>,
    allocs: AtomicU64,
}

impl PredictionSource for CountedSource<'_> {
    fn estimate(
        &self,
        rank: usize,
        field: usize,
        data: &[f32],
        dims: &Dims,
        cfg: &Config,
        scratch: &mut EstimateScratch,
    ) -> Result<SourceEstimate, RealError> {
        let before = allocs_here();
        let est = self.inner.estimate(rank, field, data, dims, cfg, scratch);
        self.allocs
            .fetch_add(allocs_here() - before, Ordering::Relaxed);
        est
    }
}

#[test]
fn predict_phase_allocates_per_field_not_per_block() {
    // 2 ranks × 8 fields of 2^17 particles: 5 % of 16 Ki blocks is
    // ≈ 820 sampled blocks a field, 13 000 over the step.
    let data: Vec<Vec<RankFieldData>> =
        partition_1d(&SnapshotStream::vpic(1 << 18).seed(5).snapshot(0), 2);
    let (nranks, nfields) = (data.len(), data[0].len());
    let path = TempPath::new("alloc-count", "h5l");
    let cfg = RealConfig {
        method: Method::Overlap,
        configs: vec![Config::rel(1e-3); nfields],
        models: Models::with_cthr(50e6),
        policy: ExtraSpacePolicy::default(),
        bandwidth: BandwidthModel::tiny_for_tests(),
        throttle_scale: 1.0,
        sz_threads: 1,
        verify: false,
        path: path.path().to_path_buf(),
        reservation: ReservationTopology::Flat,
        faults: None,
    };
    let source = CountedSource {
        inner: ModelSource {
            models: &cfg.models,
        },
        allocs: AtomicU64::new(0),
    };
    run_real_with(&data, &cfg, &source).unwrap();
    // A rank's first field sizes its scratch (a couple of dozen
    // allocations while the code list doubles); later fields at most
    // grow it.
    let allocs = source.allocs.load(Ordering::Relaxed);
    let bound = (nranks * nfields * 8) as u64;
    assert!(
        allocs <= bound,
        "{allocs} allocations in the predict phase of {nranks} ranks x {nfields} fields (bound {bound})"
    );
}
