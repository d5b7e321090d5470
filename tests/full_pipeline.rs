//! Cross-crate integration: workloads → ratiomodel → predwrite (real
//! engine) → h5lite → szlite decode, under all four methods.

use repro_suite::pfsim::BandwidthModel;
use repro_suite::predwrite;
use repro_suite::predwrite::{run_real, ExtraSpacePolicy, Method, RankFieldData, RealConfig};
use repro_suite::ratiomodel::Models;
use repro_suite::szlite::{Config, Dims};
use repro_suite::workloads::{nyx, rtm, Decomposition, NyxParams, RtmParams};
use std::path::PathBuf;
use testutil::TempPath;

/// RAII temp path: the `suite-*.h5l` file is removed when the guard
/// drops, even if an assertion fails mid-test.
fn tmp(name: &str) -> TempPath {
    TempPath::new(name, "h5l")
}

fn rank_data_from_nyx(side: usize, nranks: usize) -> Vec<Vec<RankFieldData>> {
    let ds = nyx::snapshot(NyxParams::with_side(side));
    let dec = Decomposition::new(nranks, [side, side, side]);
    let bd = dec.block;
    (0..nranks)
        .map(|r| {
            ds.fields
                .iter()
                .map(|f| RankFieldData {
                    name: f.name.clone(),
                    data: dec.extract(f, r),
                    dims: Dims::d3(bd[0], bd[1], bd[2]),
                })
                .collect()
        })
        .collect()
}

fn base_config(method: Method, path: PathBuf) -> RealConfig {
    RealConfig {
        method,
        configs: vec![Config::rel(1e-3); 6],
        models: Models::with_cthr(50e6),
        policy: ExtraSpacePolicy::default(),
        bandwidth: BandwidthModel::tiny_for_tests(),
        throttle_scale: 1.0,
        sz_threads: 1,
        verify: false,
        path,
        reservation: predwrite::ReservationTopology::Flat,
        faults: None,
    }
}

#[test]
fn all_methods_produce_decodable_files() {
    let data = rank_data_from_nyx(16, 8);
    for method in Method::ALL {
        let guard = tmp(&format!("dec-{}", method.label()));
        let path = guard.path().to_path_buf();
        let res = run_real(&data, &base_config(method, path.clone())).unwrap();
        assert!(res.total_time > 0.0, "{method:?}");
        let reader = repro_suite::h5lite::H5Reader::open(&path).unwrap();
        assert_eq!(reader.names().len(), 6);
        for f in &data[0] {
            let vals = reader.read_f32(&f.name).unwrap();
            assert_eq!(vals.len(), f.data.len() * 8);
            assert!(vals.iter().all(|v| v.is_finite()));
        }
    }
}

#[test]
fn written_files_respect_per_field_bounds() {
    let data = rank_data_from_nyx(16, 4);
    let guard = tmp("bounds");
    let path = guard.path().to_path_buf();
    // Different bound per field, like the paper's per-field configs.
    let mut cfg = base_config(Method::OverlapReorder, path.clone());
    cfg.configs = (0..6)
        .map(|i| Config::rel(10f64.powi(-2 - (i % 3))))
        .collect();
    run_real(&data, &cfg).unwrap();
    let reader = repro_suite::h5lite::H5Reader::open(&path).unwrap();
    for (fi, f) in data[0].iter().enumerate() {
        let vals = reader.read_f32(&f.name).unwrap();
        let rel = match cfg.configs[fi].error_bound {
            repro_suite::szlite::ErrorBound::Rel(r) => r,
            _ => unreachable!(),
        };
        for (r, rank_fields) in data.iter().enumerate() {
            let orig = &rank_fields[fi].data;
            let chunk = &vals[r * orig.len()..(r + 1) * orig.len()];
            let (mn, mx) = orig
                .iter()
                .fold((f32::MAX, f32::MIN), |(a, b), &v| (a.min(v), b.max(v)));
            let eb = rel * f64::from(mx - mn) + 1e-30;
            for (&a, &b) in orig.iter().zip(chunk) {
                assert!(
                    (f64::from(a) - f64::from(b)).abs() <= eb,
                    "{} rank {r}",
                    f.name
                );
            }
        }
    }
}

#[test]
fn deterministic_compressed_sizes_across_runs() {
    let data = rank_data_from_nyx(16, 4);
    let guard_p1 = tmp("det1");
    let p1 = guard_p1.path().to_path_buf();
    let guard_p2 = tmp("det2");
    let p2 = guard_p2.path().to_path_buf();
    let r1 = run_real(&data, &base_config(Method::Overlap, p1.clone())).unwrap();
    let r2 = run_real(&data, &base_config(Method::Overlap, p2.clone())).unwrap();
    assert_eq!(r1.compressed_bytes, r2.compressed_bytes);
    assert_eq!(r1.n_overflow, r2.n_overflow);
    assert_eq!(r1.file_bytes, r2.file_bytes);
}

#[test]
fn pooled_engine_matches_serial_engine_byte_for_byte() {
    // The per-rank compression pool must not change the produced file:
    // plan offsets are pre-computed and streams are recorded in
    // scheduled order, so any sz_threads yields identical bytes.
    let data = rank_data_from_nyx(16, 4);
    let guard_s = tmp("pool-serial");
    let serial_path = guard_s.path().to_path_buf();
    run_real(&data, &base_config(Method::Overlap, serial_path.clone())).unwrap();
    let serial = std::fs::read(&serial_path).unwrap();
    for threads in [2usize, 4] {
        let guard = tmp(&format!("pool-{threads}"));
        let path = guard.path().to_path_buf();
        let mut cfg = base_config(Method::Overlap, path.clone());
        cfg.sz_threads = threads;
        run_real(&data, &cfg).unwrap();
        assert_eq!(
            std::fs::read(&path).unwrap(),
            serial,
            "sz_threads={threads}"
        );
    }
}

#[test]
fn single_field_rtm_roundtrip_through_pipeline() {
    // A non-Nyx workload through the same path (1 field, 4 ranks).
    let side = 16;
    let ds = rtm::snapshot(RtmParams::with_side(side));
    let dec = Decomposition::new(4, [side, side, side]);
    let bd = dec.block;
    let data: Vec<Vec<RankFieldData>> = (0..4)
        .map(|r| {
            vec![RankFieldData {
                name: "pressure".into(),
                data: dec.extract(&ds.fields[0], r),
                dims: Dims::d3(bd[0], bd[1], bd[2]),
            }]
        })
        .collect();
    let guard = tmp("rtm");
    let path = guard.path().to_path_buf();
    let mut cfg = base_config(Method::OverlapReorder, path.clone());
    cfg.configs = vec![Config::rel(1e-4)];
    let res = run_real(&data, &cfg).unwrap();
    assert!(res.ideal_ratio() > 1.5, "ratio {}", res.ideal_ratio());
}

#[test]
fn sim_and_real_planners_agree_on_layout() {
    // The layout produced from identical predictions must be identical
    // whether driven by the sim or real engine's planner path.
    use repro_suite::predwrite::{PartitionPrediction, WritePlan};
    let preds = vec![
        vec![
            PartitionPrediction {
                bytes: 1000,
                ratio: 10.0,
            },
            PartitionPrediction {
                bytes: 2000,
                ratio: 40.0,
            },
        ],
        vec![
            PartitionPrediction {
                bytes: 1500,
                ratio: 12.0,
            },
            PartitionPrediction {
                bytes: 500,
                ratio: 50.0,
            },
        ],
    ];
    let policy = ExtraSpacePolicy::new(1.25);
    let plan = || {
        let reserve = |p: &PartitionPrediction| policy.reserve_bytes(p.bytes, p.ratio);
        let reserved: Vec<Vec<u64>> = preds
            .iter()
            .map(|row| row.iter().map(reserve).collect())
            .collect();
        WritePlan::build_reserved(&preds, &reserved, 32)
    };
    let (a, b) = (plan(), plan());
    assert_eq!(a, b);
    assert!(a.is_disjoint());
    // Eq. 3 applied to the ratio > 32 slots.
    assert_eq!(a.slots[0][1].reserved, 4000); // 2000 × min(2, 1+0.25·4)
    assert_eq!(a.slots[1][1].reserved, 1000);
}
