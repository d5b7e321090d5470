//! Heap-allocation counts under a counting global allocator. The
//! predict phase: the estimate pass must stay allocation-free once its
//! scratch is warm, and a step's predict phase must allocate per
//! field, never per sampled block. The read path: a second decode on
//! the same scratch allocates nothing, and a typed dataset read
//! allocates its output once and no second buffer of that size, and
//! nothing per tile; a 1-D read keeps no code list, plane or payload
//! copy per chunk. The write path: a second compress on the same
//! scratch and output allocates nothing, and a 1-D compress keeps no
//! reconstruction plane. The parsers of disk bytes: a forged record
//! count allocates nothing in proportion to itself.

use repro_suite::h5lite::meta::deserialize_table;
use repro_suite::h5lite::{
    DatasetSpec, Dtype, FilterSpec, H5Error, H5File, H5Reader, SzFilterParams, SZLITE_FILTER_ID,
};
use repro_suite::pfsim::BandwidthModel;
use repro_suite::predwrite::{
    run_real_with, ExtraSpacePolicy, Method, ModelSource, PredictionSource, RankFieldData,
    RealConfig, RealError, ReservationTopology, SourceEstimate,
};
use repro_suite::ratiomodel::{
    estimate_partition_with, EstimateScratch, Models, OnlineConfig, OnlinePredictor,
};
use repro_suite::szlite::stream::put_varint;
use repro_suite::szlite::{
    compress, compress_into, decompress_into, Config, DecompressScratch, Dims, Scratch,
};
use repro_suite::timeline::{partition_1d, partition_3d};
use repro_suite::workloads::SnapshotStream;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use testutil::TempPath;

thread_local! {
    /// Allocations (and growing reallocations) made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes those asked for.
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Allocations made and bytes asked for by every thread of the
/// process: what a call that fans out to workers costs. Only
/// meaningful while [`SERIAL`] is held.
static ALL_ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALL_BYTES: AtomicU64 = AtomicU64::new(0);

/// Held by every test of this file, so that the process-wide counters
/// see one test at a time.
static SERIAL: Mutex<()> = Mutex::new(());

/// [`SERIAL`], also after a test failed holding it: the mutex guards
/// no data, so a poisoned lock is only a test's failure, which must
/// not fail every later test with a `PoisonError` instead of its own
/// verdict.
fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn count(bytes: usize) {
    ALLOCS.with(|n| n.set(n.get() + 1));
    BYTES.with(|n| n.set(n.get() + bytes as u64));
    ALL_ALLOCS.fetch_add(1, Ordering::Relaxed);
    ALL_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`; the counters
// are const-initialised thread-local `Cell`s without a destructor and
// two atomics, so touching them neither allocates nor runs after their
// own teardown.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // The whole new size: a grown buffer is charged again in full.
        count(new_size);
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
    let _serial = serial();
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

#[test]
fn warm_decompress_allocates_nothing() {
    let _serial = serial();
    let cfg = Config::rel(1e-3);
    // A Nyx 3-D partition and the first 32³ tile of an RTM 64³ field,
    // whose planes run the vector replay where the host has one (its
    // wavefront buffers live in the scratch too), and a 2^18-point 1-D
    // VPIC stream, whose wide codes take the long-code search.
    let nyx = partition_3d(&SnapshotStream::nyx(64).seed(3).snapshot(0), 2);
    let rtm = SnapshotStream::rtm(64).seed(3).snapshot(0);
    let tile: Vec<f32> = (0..32 * 32)
        .flat_map(|zy| {
            let row = (zy / 32 * 64 + zy % 32) * 64;
            rtm.fields[0].data[row..row + 32].iter().copied()
        })
        .collect();
    let vpic = SnapshotStream::vpic(1 << 18).seed(3).snapshot(0);
    let streams = [
        (&nyx[0][0].data, &nyx[0][0].dims),
        (&tile, &Dims::d3(32, 32, 32)),
        (&vpic.fields[0].data, &Dims::d1(vpic.fields[0].data.len())),
    ];
    for (data, dims) in streams {
        let stream = compress(data, dims, &cfg).unwrap();
        let mut scratch = DecompressScratch::new();
        let mut out = Vec::<f32>::new();
        decompress_into(&stream, &mut scratch, &mut out).unwrap();
        let first = out.clone();
        let before = allocs_here();
        decompress_into(&stream, &mut scratch, &mut out).unwrap();
        assert_eq!(allocs_here() - before, 0, "{dims:?}");
        assert!(first == out);
    }
}

#[test]
fn warm_compress_allocates_nothing() {
    let _serial = serial();
    let cfg = Config::rel(1e-3);
    // The first 32³ tile of an RTM 64³ field, the chunk the chunked
    // write compresses (a payload the lossless stage's bound decides
    // on), and a Nyx 48×96×96 partition, the engine's.
    let rtm = SnapshotStream::rtm(64).seed(1).snapshot(0);
    let tile: Vec<f32> = (0..32 * 32)
        .flat_map(|zy| {
            let row = (zy / 32 * 64 + zy % 32) * 64;
            rtm.fields[0].data[row..row + 32].iter().copied()
        })
        .collect();
    let nyx = partition_3d(&SnapshotStream::nyx(96).seed(1).snapshot(0), 2);
    let inputs = [
        (&tile, &Dims::d3(32, 32, 32)),
        (&nyx[0][0].data, &nyx[0][0].dims),
    ];
    let mut firsts = Vec::new();
    for (data, dims) in inputs {
        let mut scratch = Scratch::new();
        let mut out = Vec::new();
        compress_into(data, dims, &cfg, &mut scratch, &mut out).unwrap();
        let first = out.clone();
        let before = allocs_here();
        compress_into(data, dims, &cfg, &mut scratch, &mut out).unwrap();
        assert_eq!(allocs_here() - before, 0, "{dims:?}");
        assert!(first == out);
        firsts.push(first);
    }
    // One scratch warmed on both shapes (its planes, wavefront-major
    // planes, codes and tables at the larger of each), then alternating
    // between them: nothing more is allocated, and the streams are the
    // same.
    let (mut scratch, mut out) = (Scratch::new(), Vec::new());
    for (data, dims) in inputs {
        compress_into(data, dims, &cfg, &mut scratch, &mut out).unwrap();
    }
    let before = allocs_here();
    for _ in 0..2 {
        for ((data, dims), first) in inputs.iter().zip(&firsts) {
            compress_into(data, dims, &cfg, &mut scratch, &mut out).unwrap();
            assert!(out == *first, "{dims:?}");
        }
    }
    assert_eq!(allocs_here() - before, 0, "alternating shapes");
}

#[test]
fn first_compress_of_a_line_keeps_no_reconstruction_plane() {
    let _serial = serial();
    // A rank's 2^18-point VPIC chunk on a fresh scratch: the code list,
    // the count table, the matcher's tables and the stream, and no
    // plane of `2·nx` reconstructions (another 4 x the input).
    let field = &SnapshotStream::vpic(1 << 18).seed(1).snapshot(0).fields[3];
    let input = (field.data.len() * 4) as f64;
    let dims = Dims::d1(field.data.len());
    let asked = ALL_BYTES.load(Ordering::Relaxed);
    compress_into(
        &field.data,
        &dims,
        &Config::rel(1e-3),
        &mut Scratch::new(),
        &mut Vec::new(),
    )
    .unwrap();
    let ratio = (ALL_BYTES.load(Ordering::Relaxed) - asked) as f64 / input;
    println!("first 1-D compress allocated {ratio:.2} x input");
    assert!(ratio < 5.0, "{ratio:.2} x input");
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
    let _serial = serial();
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

/// Write `data` as a `dims` dataset of `chunk` tiles
/// through the szlite filter and return what the second read of one
/// reader allocates at each worker count: (allocations, bytes).
fn warm_read_costs(data: &[f32], dims: &[u64], chunk: &[u64]) -> [(u64, u64); 2] {
    let spec = DatasetSpec::new("v", Dtype::F32, dims)
        .chunked(chunk)
        .with_filter(FilterSpec {
            id: SZLITE_FILTER_ID,
            params: SzFilterParams {
                absolute: false,
                bound: 1e-3,
                dims: chunk.iter().map(|&c| c as usize).collect(),
            }
            .to_bytes(),
        });
    let path = TempPath::new("alloc-count-read", "h5l");
    let f = H5File::create(path.path()).unwrap();
    let id = f.create_dataset(spec).unwrap();
    let bytes: Vec<u8> = data.iter().flat_map(|v| v.to_le_bytes()).collect();
    f.write_full(id, &bytes).unwrap();
    f.close().unwrap();
    let r = H5Reader::open(path.path()).unwrap();
    [1usize, 2].map(|workers| {
        let first = r.read_pipelined::<f32>("v", workers).unwrap();
        let (allocs, asked) = (
            ALL_ALLOCS.load(Ordering::Relaxed),
            ALL_BYTES.load(Ordering::Relaxed),
        );
        let second = r.read_pipelined::<f32>("v", workers).unwrap();
        let cost = (
            ALL_ALLOCS.load(Ordering::Relaxed) - allocs,
            ALL_BYTES.load(Ordering::Relaxed) - asked,
        );
        assert!(first == second && second.len() == data.len());
        cost
    })
}

#[test]
fn typed_read_allocates_its_output_once_and_nothing_per_tile() {
    let _serial = serial();
    let field = &SnapshotStream::rtm(96).seed(7).snapshot(0).fields[0];
    let output = (field.data.len() * 4) as f64;
    // 8 and 64 chunks of the same points: cubes, which the reader
    // scatters from a tile buffer, and slabs of whole planes, which it
    // decodes in place.
    let arms = [
        ("tiles", [96u64, 96, 96], [48u64, 48, 48], [24u64, 24, 24]),
        ("slabs", [192, 48, 96], [24, 48, 96], [3, 48, 96]),
    ];
    for (arm, dims, chunk_8, chunk_64) in arms {
        let few = warm_read_costs(&field.data, &dims, &chunk_8);
        let many = warm_read_costs(&field.data, &dims, &chunk_64);
        for (workers, ((allocs_8, _), (allocs_64, asked))) in (1..).zip(few.into_iter().zip(many)) {
            // Beside the output: per worker one decode scratch (Huffman
            // tables, code list, two planes), one read buffer and, on
            // the tile arm, one tile. The reader before this one (a
            // byte buffer of the output's size, then the typed copy,
            // and a pool of byte tiles) asked for more than 2 x.
            let ratio = asked as f64 / output;
            println!("typed read allocated {ratio:.2} x output ({workers} workers, {arm})");
            assert!(ratio < 1.25, "{asked} bytes for a {output}-byte output");
            // Buffers are sized by the first chunk a worker meets and
            // at most grown by a later, less compressible one: a few
            // reallocations either way, never one per chunk.
            assert!(
                allocs_64.abs_diff(allocs_8) <= 16,
                "{arm}, {workers} workers: {allocs_8} allocations for 8 chunks, {allocs_64} for 64"
            );
        }
    }
}

#[test]
fn typed_read_of_a_line_allocates_no_plane_and_no_code_list() {
    let _serial = serial();
    // One VPIC field in the engine's layout: 2^19 points, a chunk of
    // 2^18 per rank.
    let field = &SnapshotStream::vpic(1 << 19).seed(1).snapshot(0).fields[3];
    let output = (field.data.len() * 4) as f64;
    let costs = warm_read_costs(&field.data, &[1 << 19], &[1 << 18]);
    for (workers, (_, asked)) in (1..).zip(costs) {
        // Beside the output: per worker the Huffman table and one read
        // buffer. A 1-D chunk decodes in one pass, with no code list
        // and no plane, and its stored payload is read in place.
        let ratio = asked as f64 / output;
        println!("typed read allocated {ratio:.2} x output ({workers} workers, 1-D)");
        assert!(ratio < 1.5, "{asked} bytes for a {output}-byte output");
    }
}

#[test]
fn forged_counts_allocate_in_proportion_to_their_input() {
    // A record count read from disk sizes nothing beyond a small
    // multiple of the bytes that came with it: a forged count in an
    // h5lite table or in a predictor's saved state is a typed error
    // that costs a few bytes, not a reservation of count × record.
    let asked = |parse: &dyn Fn() -> bool| {
        let before = BYTES.with(Cell::get);
        assert!(parse(), "forged count accepted or refused untyped");
        BYTES.with(Cell::get) - before
    };
    let n = 1_000_000;
    // One 1-D `f32` dataset, contiguous, no filter, `n` chunks of which
    // one 15-byte record is there, no attribute.
    let mut table = vec![1, 1, b'd', 0, 1, 4, 0, 0];
    put_varint(&mut table, n);
    table.extend([0; 16]);
    let table_cost = asked(&|| {
        matches!(
            deserialize_table(&table),
            Err(H5Error::Corrupt("chunk count"))
        )
    });
    // Two saved cells under a count of `n`.
    let state = OnlinePredictor::new(2, OnlineConfig::default()).to_state_bytes();
    let (head, cells) = state.split_at(state.len() - 2 * 18 - 1);
    let mut forged = head.to_vec();
    put_varint(&mut forged, n);
    forged.extend_from_slice(&cells[1..]);
    let state_cost = asked(&|| OnlinePredictor::from_state_bytes(&forged).is_err());
    println!("forged counts allocated {table_cost} B (table), {state_cost} B (predictor state)");
    assert!(table_cost < 1024 && state_cost < 1024);
}
