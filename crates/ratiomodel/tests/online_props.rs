//! Property tests of the online ratio adaptation.
//!
//! Three invariants the timeline engine depends on, pushed through
//! seeded random observation streams:
//!
//! 1. predictions stay finite and ≥ 1 byte whatever the stream;
//! 2. on a stationary stream the blended prediction converges to the
//!    observed size (the whole point of the bias correction);
//! 3. a rank's adapted region never drops below its last observed
//!    total, so a rank that just overflowed is always covered on the
//!    next step.

use proptest::prelude::*;
use ratiomodel::{OnlineConfig, OnlinePredictor};

proptest! {
    #![proptest_config(ProptestConfig::with_cases_and_seed(64, 0x0A11_7E57) /* pinned: deterministic CI */)]

    #[test]
    fn predictions_finite_and_at_least_one_byte(
        steps in proptest::collection::vec((1u64..50_000_000, 1u64..50_000_000), 1..40),
        alpha in 0.05f64..1.0,
        warmup in 1u64..5,
    ) {
        let cfg = OnlineConfig { alpha, warmup, ..OnlineConfig::default() };
        let mut p = OnlinePredictor::for_stream(1, 1, cfg);
        for &(model, observed) in &steps {
            let pr = p.predict(0, model);
            prop_assert!(pr.bytes >= 1);
            if let Some(h) = p.region_headroom(0, pr.bytes) {
                prop_assert!(h.is_finite() && h >= 1.0, "headroom {h}");
            }
            p.observe(0, model, pr.bytes, observed);
            p.observe_rank(0, pr.bytes, observed);
            let st = p.stats(0);
            prop_assert!(st.correction.is_finite() && st.correction > 0.0);
            prop_assert!(st.rel_err.is_finite() && st.rel_err >= 0.0);
        }
    }

    #[test]
    fn stationary_stream_converges_to_observed_ratio(
        model in 1_000u64..10_000_000,
        ratio in 0.2f64..5.0,
    ) {
        // Compressible input: the model sees `model` bytes, reality is
        // consistently `ratio` times that. After the warm-up the
        // blended prediction must land on the observed size and the
        // tracked error must collapse.
        let observed = ((model as f64 * ratio) as u64).max(1);
        let mut p = OnlinePredictor::for_stream(1, 1, OnlineConfig::default());
        for _ in 0..12 {
            let pr = p.predict(0, model);
            p.observe(0, model, pr.bytes, observed);
            p.observe_rank(0, pr.bytes, observed);
        }
        let pr = p.predict(0, model);
        let err = (pr.bytes as f64 - observed as f64).abs() / observed as f64;
        prop_assert!(err < 0.01, "prediction {} vs observed {observed}", pr.bytes);
        prop_assert!(p.stats(0).rel_err < 0.05, "residual err {}", p.stats(0).rel_err);
        // …and the adapted headroom sits at the floor on stable history.
        let h = p.region_headroom(0, pr.bytes).unwrap();
        prop_assert!(h <= p.config().min_headroom + 0.05, "headroom {h}");
    }

    #[test]
    fn adapted_reserve_never_below_last_observed(
        steps in proptest::collection::vec((1u64..20_000_000, 1u64..20_000_000), 3..30),
        alpha in 0.05f64..1.0,
        err_margin in 0.0f64..6.0,
    ) {
        // `model` is the rank's predicted total, `observed` its actual.
        let cfg = OnlineConfig { alpha, err_margin, ..OnlineConfig::default() };
        let mut p = OnlinePredictor::for_stream(1, 1, cfg);
        let mut last_observed = 0u64;
        for &(predicted, observed) in &steps {
            if let Some(h) = p.region_headroom(0, predicted) {
                let region = (predicted as f64 * h).ceil() as u64;
                prop_assert!(
                    region >= last_observed,
                    "region {region} < last observed {last_observed}"
                );
            }
            p.observe_rank(0, predicted, observed);
            last_observed = observed;
        }
    }
}
