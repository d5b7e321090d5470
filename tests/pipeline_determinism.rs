//! Determinism of the parallel chunk-compression pipeline.
//!
//! The pipeline's contract is that fanning chunk compression out to a
//! worker pool and streaming results into the async write queue never
//! changes the produced file: offsets are reserved and chunks recorded
//! in chunk-index order, so output is **byte-identical** at any worker
//! count, and to the synchronous `write_full` (the same body with one
//! worker and a direct write). These tests pin that contract on
//! real-ish workload tiles (Nyx, VPIC, RTM) across worker counts, and
//! a seeded property test pushes random grids through the pooled path.

use proptest::prelude::*;
use repro_suite::h5lite::{
    DatasetSpec, Dtype, EventSet, FilterSpec, H5File, H5Reader, SzFilterParams, LZSS_FILTER_ID,
    SZLITE_FILTER_ID,
};
use repro_suite::workloads::{nyx, rtm, vpic, NyxParams, RtmParams, VpicParams};
use testutil::TempPath;

fn f32_bytes(v: &[f32]) -> Vec<u8> {
    v.iter().flat_map(|f| f.to_le_bytes()).collect()
}

fn sz_spec(name: &str, dims: &[u64], chunk: &[u64], bound: f64) -> DatasetSpec {
    DatasetSpec::new(name, Dtype::F32, dims)
        .chunked(chunk)
        .with_filter(FilterSpec {
            id: SZLITE_FILTER_ID,
            params: SzFilterParams {
                absolute: true,
                bound,
                dims: chunk.iter().map(|&c| c as usize).collect(),
            }
            .to_bytes(),
        })
}

fn write_serial(tag: &str, spec: &DatasetSpec, bytes: &[u8]) -> Vec<u8> {
    let t = TempPath::new(tag, "h5l");
    let f = H5File::create(t.path()).unwrap();
    let id = f.create_dataset(spec.clone()).unwrap();
    f.write_full(id, bytes).unwrap();
    f.close().unwrap();
    std::fs::read(t.path()).unwrap()
}

fn write_pipelined(tag: &str, spec: &DatasetSpec, bytes: &[u8], workers: usize) -> Vec<u8> {
    let t = TempPath::new(tag, "h5l");
    let f = H5File::create(t.path()).unwrap();
    let id = f.create_dataset(spec.clone()).unwrap();
    let es = EventSet::new(2);
    f.write_full_pipelined(id, bytes, workers, &es, None)
        .unwrap();
    es.wait().unwrap();
    f.close().unwrap();
    std::fs::read(t.path()).unwrap()
}

fn assert_identical_across_workers(tag: &str, spec: &DatasetSpec, bytes: &[u8]) {
    let serial = write_serial(&format!("{tag}-serial"), spec, bytes);
    for workers in [1usize, 2, 8] {
        let parallel = write_pipelined(&format!("{tag}-w{workers}"), spec, bytes, workers);
        assert_eq!(parallel, serial, "{tag}: workers={workers}");
    }
}

#[test]
fn nyx_tiles_byte_identical_across_worker_counts() {
    let ds = nyx::snapshot(NyxParams::with_side(32));
    let field = ds.field("baryon_density").unwrap();
    let spec = sz_spec("nyx/baryon_density", &[32, 32, 32], &[16, 16, 16], 1e-2);
    assert_identical_across_workers("det-nyx", &spec, &f32_bytes(&field.data));
}

#[test]
fn vpic_tiles_byte_identical_across_worker_counts() {
    let ds = vpic::snapshot(VpicParams::with_particles(1 << 14));
    let field = ds.field("mom_x").unwrap();
    let spec = sz_spec("vpic/mom_x", &[1 << 14], &[1 << 12], 1e-3);
    assert_identical_across_workers("det-vpic", &spec, &f32_bytes(&field.data));
}

#[test]
fn rtm_tiles_byte_identical_across_worker_counts() {
    let ds = rtm::snapshot(RtmParams::with_side(24));
    let field = &ds.fields[0];
    // 3×2×1 chunk grid with anisotropic tiles.
    let spec = sz_spec(&field.name, &[24, 24, 24], &[8, 12, 24], 1e-3);
    assert_identical_across_workers("det-rtm", &spec, &f32_bytes(&field.data));
}

#[test]
fn multi_stage_chain_byte_identical_across_worker_counts() {
    // LZSS → LZSS (exact) exercises the inter-stage scratch ping-pong,
    // on a ragged chunk grid (the last tile is clipped to 416 elements).
    let data: Vec<f32> = (0..4000).map(|i| (i / 7) as f32).collect();
    let spec = DatasetSpec::new("chain", Dtype::F32, &[4000])
        .chunked(&[512])
        .with_filter(FilterSpec {
            id: LZSS_FILTER_ID,
            params: vec![],
        })
        .with_filter(FilterSpec {
            id: LZSS_FILTER_ID,
            params: vec![],
        });
    assert_identical_across_workers("det-chain", &spec, &f32_bytes(&data));
}

/// Arbitrary 1-3D shapes with chunk extents that divide the grid (the
/// SZ filter's params carry one tile shape per dataset), plus data.
fn grid_chunk_data() -> impl Strategy<Value = (Vec<u64>, Vec<u64>, Vec<f32>)> {
    prop_oneof![
        ((1u64..32), (1u64..8)).prop_map(|(c, k)| (vec![c * k], vec![c])),
        ((1u64..12), (1u64..12), (1u64..4), (1u64..4))
            .prop_map(|(ca, cb, ka, kb)| (vec![ca * ka, cb * kb], vec![ca, cb])),
        (
            (1u64..6),
            (1u64..6),
            (1u64..6),
            (1u64..3),
            (1u64..3),
            (1u64..3)
        )
            .prop_map(|(ca, cb, cc, ka, kb, kc)| (
                vec![ca * ka, cb * kb, cc * kc],
                vec![ca, cb, cc]
            )),
    ]
    .prop_flat_map(|(dims, chunk)| {
        let n: usize = dims.iter().product::<u64>() as usize;
        (
            Just(dims),
            Just(chunk),
            proptest::collection::vec(-1e5f32..1e5f32, n..=n),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases_and_seed(48, 0x9192_7001) /* pinned: deterministic CI */)]

    #[test]
    fn pooled_path_roundtrips_and_matches_serial(
        (dims, chunk, data) in grid_chunk_data(),
        eb in 1e-4f64..1.0,
    ) {
        let spec = sz_spec("prop", &dims, &chunk, eb);
        let bytes = f32_bytes(&data);

        let serial = write_serial("det-prop-serial", &spec, &bytes);
        let t = TempPath::new("det-prop-pool", "h5l");
        let f = H5File::create(t.path()).unwrap();
        let id = f.create_dataset(spec.clone()).unwrap();
        let es = EventSet::new(2);
        f.write_full_pipelined(id, &bytes, 3, &es, None).unwrap();
        es.wait().unwrap();
        f.close().unwrap();
        prop_assert_eq!(&std::fs::read(t.path()).unwrap(), &serial);

        // And the pooled file decodes back within the error bound.
        let r = H5Reader::open(t.path()).unwrap();
        let restored = r.read_f32("prop").unwrap();
        prop_assert_eq!(restored.len(), data.len());
        for (&a, &b) in data.iter().zip(&restored) {
            prop_assert!((f64::from(a) - f64::from(b)).abs() <= eb);
        }
    }
}
