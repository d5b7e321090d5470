//! Value-identity of the parallel decode pipeline.
//!
//! The read-side contract mirrors the write side's determinism pin:
//! fanning chunk reads + filter inversion out to a worker pool and
//! reassembling tiles in chunk-index order never changes the decoded
//! bytes — `H5Reader::read_full_pipelined` is **value-identical** at
//! any worker count (`read_raw` is its 1-worker instance). These tests
//! pin that on real-ish workload tiles (Nyx, VPIC, RTM) across worker
//! counts, and a seeded property test pushes random grids through the
//! full pipelined round trip (pipelined compress → pipelined read →
//! error bound holds).

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

/// Write serially, then assert the pipelined reader reproduces the
/// serial reader's bytes at several worker counts.
fn assert_reads_identical(tag: &str, spec: &DatasetSpec, bytes: &[u8]) {
    let name = spec.name.clone();
    let t = TempPath::new(tag, "h5l");
    let f = H5File::create(t.path()).unwrap();
    let id = f.create_dataset(spec.clone()).unwrap();
    f.write_full(id, bytes).unwrap();
    f.close().unwrap();

    let r = H5Reader::open(t.path()).unwrap();
    let serial = r.read_raw(&name).unwrap();
    for workers in [1usize, 2, 8] {
        let pipelined = r.read_full_pipelined(&name, workers).unwrap();
        assert_eq!(pipelined, serial, "{tag}: workers={workers}");
    }
}

#[test]
fn nyx_reads_value_identical_across_worker_counts() {
    let ds = nyx::snapshot(NyxParams::with_side(32));
    let field = ds.field("baryon_density").unwrap();
    let spec = sz_spec("nyx/baryon_density", &[32, 32, 32], &[16, 16, 16], 1e-2);
    assert_reads_identical("read-nyx", &spec, &f32_bytes(&field.data));
}

#[test]
fn vpic_reads_value_identical_across_worker_counts() {
    let ds = vpic::snapshot(VpicParams::with_particles(1 << 14));
    let field = ds.field("mom_x").unwrap();
    let spec = sz_spec("vpic/mom_x", &[1 << 14], &[1 << 12], 1e-3);
    assert_reads_identical("read-vpic", &spec, &f32_bytes(&field.data));
}

#[test]
fn rtm_reads_value_identical_across_worker_counts() {
    let ds = rtm::snapshot(RtmParams::with_side(24));
    let field = &ds.fields[0];
    // 3×2×1 chunk grid with anisotropic tiles.
    let spec = sz_spec(&field.name, &[24, 24, 24], &[8, 12, 24], 1e-3);
    assert_reads_identical("read-rtm", &spec, &f32_bytes(&field.data));
}

#[test]
fn multi_stage_chain_reads_value_identical() {
    // LZSS → LZSS (exact) decoded stage by stage through the worker
    // pool, on a ragged chunk grid (the last tile is clipped).
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
    assert_reads_identical("read-chain", &spec, &f32_bytes(&data));
}

#[test]
fn typed_pipelined_read_matches_serial_typed_read() {
    let ds = nyx::snapshot(NyxParams::with_side(16));
    let field = ds.field("temperature").unwrap();
    let spec = sz_spec("nyx/temperature", &[16, 16, 16], &[8, 8, 8], 1e-2);
    let t = TempPath::new("read-typed", "h5l");
    let f = H5File::create(t.path()).unwrap();
    let id = f.create_dataset(spec).unwrap();
    f.write_full(id, &f32_bytes(&field.data)).unwrap();
    f.close().unwrap();
    let r = H5Reader::open(t.path()).unwrap();
    let serial = r.read_f32("nyx/temperature").unwrap();
    for workers in [1usize, 2, 8] {
        assert_eq!(
            r.read_pipelined::<f32>("nyx/temperature", workers).unwrap(),
            serial
        );
    }
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
    #![proptest_config(ProptestConfig::with_cases_and_seed(48, 0x4EAD_71FE) /* pinned: deterministic CI */)]

    #[test]
    fn pipelined_roundtrip_holds_bound_and_matches_serial(
        (dims, chunk, data) in grid_chunk_data(),
        eb in 1e-4f64..1.0,
    ) {
        // Full pooled round trip: compress through the write pipeline,
        // read back through the decode pipeline, check value-identity
        // with the serial reader and the error bound against the
        // original data.
        let spec = sz_spec("prop", &dims, &chunk, eb);
        let bytes = f32_bytes(&data);

        let t = TempPath::new("read-prop", "h5l");
        let f = H5File::create(t.path()).unwrap();
        let id = f.create_dataset(spec).unwrap();
        let es = EventSet::new(2);
        f.write_full_pipelined(id, &bytes, 3, &es, None).unwrap();
        es.wait().unwrap();
        f.close().unwrap();

        let r = H5Reader::open(t.path()).unwrap();
        let serial = r.read_f32("prop").unwrap();
        let restored = r.read_pipelined::<f32>("prop", 3).unwrap();
        prop_assert_eq!(&restored, &serial);
        prop_assert_eq!(restored.len(), data.len());
        for (&a, &b) in data.iter().zip(&restored) {
            prop_assert!((f64::from(a) - f64::from(b)).abs() <= eb);
        }
    }
}
