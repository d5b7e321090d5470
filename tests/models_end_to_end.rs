//! Cross-crate integration of the prediction models: the ratio model
//! transfers across datasets, Eq. 1's shape holds on the real
//! compressor, and prediction overhead stays below the 10 % budget.
//! (That a calibration on one field transfers across fields — the
//! paper's §IV-B claim — is `repro fig11` / `fig12`.)

use repro_suite::ratiomodel::predict;
use repro_suite::szlite::{compress_with_stats, sample_quantization, Config, Dims};
use repro_suite::workloads::{nyx, rtm, NyxParams, RtmParams};
use std::time::Instant;

#[test]
fn prediction_overhead_below_budget() {
    // The whole design rests on prediction being cheap relative to
    // compression ([25]: < 10 %). Allow 25 % in CI noise conditions.
    // The grid must be large enough that the requested 5 % fraction
    // binds (i.e. > 4 × MIN_SAMPLE_POINTS): at or below that the
    // sampling floor deliberately covers more points, which is the
    // small-partition accuracy trade, not the overhead claim under test.
    let side = 64;
    let f = nyx::single_field(NyxParams::with_side(side), "dark_matter_density");
    let dims = Dims::d3(side, side, side);
    let cfg = Config::rel(1e-3);
    // Warm up.
    let _ = compress_with_stats(&f.data, &dims, &cfg).unwrap();
    let t0 = Instant::now();
    for _ in 0..3 {
        let _ = sample_quantization(&f.data, &dims, &cfg, 0.05).unwrap();
    }
    let sample_t = t0.elapsed().as_secs_f64() / 3.0;
    let t1 = Instant::now();
    for _ in 0..3 {
        let _ = compress_with_stats(&f.data, &dims, &cfg).unwrap();
    }
    let comp_t = t1.elapsed().as_secs_f64() / 3.0;
    let frac = sample_t / comp_t;
    assert!(
        frac < 0.25,
        "prediction overhead {:.1}% of compression",
        frac * 100.0
    );
}

#[test]
fn ratio_prediction_transfers_to_rtm() {
    let side = 32;
    let ds = rtm::snapshot(RtmParams::with_side(side));
    let dims = Dims::d3(side, side, side);
    let cfg = Config::rel(1e-3);
    let s = sample_quantization(&ds.fields[0].data, &dims, &cfg, 0.2).unwrap();
    let pred = predict(&s);
    let (_, st) = compress_with_stats(&ds.fields[0].data, &dims, &cfg).unwrap();
    let err = (pred.bytes as f64 - st.compressed_bytes as f64).abs() / st.compressed_bytes as f64;
    assert!(err < 0.3, "rtm size prediction error {err:.3}");
}

#[test]
fn eq1_shape_holds_on_real_compressor() {
    // Higher compression ratio (lower bit-rate) → higher measured
    // throughput, matching the Eq. 1 premise — on data large enough
    // for stable timing.
    let side = 48;
    let f = nyx::single_field(NyxParams::with_side(side), "temperature");
    let dims = Dims::d3(side, side, side);
    let raw = (f.data.len() * 4) as f64;
    let measure = |rel: f64| {
        let cfg = Config::rel(rel);
        let _ = compress_with_stats(&f.data, &dims, &cfg).unwrap(); // warm
        let t0 = Instant::now();
        let (_, st) = compress_with_stats(&f.data, &dims, &cfg).unwrap();
        (st.bit_rate(), raw / t0.elapsed().as_secs_f64())
    };
    let (b_loose, s_loose) = measure(1e-1);
    let (b_tight, s_tight) = measure(1e-7);
    assert!(b_loose < b_tight);
    assert!(
        s_loose > s_tight * 0.9,
        "loose-bound throughput {s_loose:.0} should not be far below tight {s_tight:.0}"
    );
}
