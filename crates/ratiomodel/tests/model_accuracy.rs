//! Accuracy validation of the ratio model against the real compressor
//! on the synthetic workloads — the reproduction of the claim behind
//! the paper's design assumption (3): "the accuracy of the
//! compression-ratio estimation is consistently above 90 %".

use ratiomodel::{predict, Models};
use szlite::{compress_with_stats, sample_quantization, Config, Dims};
use workloads::{nyx, rtm, Decomposition, NyxParams, RtmParams};

/// Relative error of predicted vs. actual compressed size.
fn size_error(data: &[f32], dims: &Dims, cfg: &Config, frac: f64) -> f64 {
    let s = sample_quantization(data, dims, cfg, frac).unwrap();
    let pred = predict(&s);
    let (_, st) = compress_with_stats(data, dims, cfg).unwrap();
    (pred.bytes as f64 - st.compressed_bytes as f64).abs() / st.compressed_bytes as f64
}

#[test]
fn ratio_prediction_within_tolerance_on_nyx_partitions() {
    let ds = nyx::snapshot(NyxParams::with_side(32));
    let dec = Decomposition::new(8, [32, 32, 32]);
    let bdims = Dims::d3(16, 16, 16);
    let cfg = Config::rel(1e-3);
    let mut errs = Vec::new();
    for f in &ds.fields {
        for r in 0..8 {
            let blk = dec.extract(f, r);
            errs.push(size_error(&blk, &bdims, &cfg, 0.25));
        }
    }
    let mean = errs.iter().sum::<f64>() / errs.len() as f64;
    let worst = errs.iter().cloned().fold(0.0, f64::max);
    // Paper claims >90 % accuracy on average; allow generous slack for
    // our smaller partitions (table overhead is proportionally larger).
    assert!(mean < 0.25, "mean rel err {mean:.3} (worst {worst:.3})");
}

#[test]
fn ratio_prediction_tracks_error_bound() {
    let ds = rtm::snapshot(RtmParams::with_side(32));
    let f = &ds.fields[0];
    let dims = Dims::d3(32, 32, 32);
    for rel in [1e-2, 1e-3, 1e-4] {
        let cfg = Config::rel(rel);
        let err = size_error(&f.data, &dims, &cfg, 0.5);
        assert!(err < 0.35, "rel={rel}: err {err:.3}");
    }
}

#[test]
fn sampled_prediction_close_to_full_prediction() {
    // Sampling at 5 % should give nearly the same prediction as 100 %.
    let ds = nyx::snapshot(NyxParams::with_side(32));
    let f = ds.field("temperature").unwrap();
    let dims = Dims::d3(32, 32, 32);
    let cfg = Config::rel(1e-3);
    let s_full = sample_quantization(&f.data, &dims, &cfg, 1.0).unwrap();
    let s_frac = sample_quantization(&f.data, &dims, &cfg, 0.05).unwrap();
    let p_full = predict(&s_full);
    let p_frac = predict(&s_frac);
    let rel = (p_full.bytes as f64 - p_frac.bytes as f64).abs() / p_full.bytes as f64;
    assert!(rel < 0.15, "sampled vs full prediction differ by {rel:.3}");
}

#[test]
fn estimates_are_finite_and_positive_across_fields() {
    let ds = nyx::snapshot(NyxParams::with_side(16));
    let dims = Dims::d3(16, 16, 16);
    let models = Models::with_cthr(200e6);
    for f in &ds.fields {
        let est =
            ratiomodel::estimate_partition(&f.data, &dims, &Config::rel(1e-3), &models).unwrap();
        assert!(
            est.bytes > 0 && est.comp_time > 0.0 && est.write_time > 0.0,
            "{}",
            f.name
        );
        assert!(est.comp_time.is_finite() && est.write_time.is_finite());
    }
}
