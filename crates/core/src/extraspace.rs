//! Extra-space policy — the paper's §III-D and Eq. (3).
//!
//! Offsets are computed from *predicted* compressed sizes, and the
//! prediction has no error bound, so each partition's reservation is
//! inflated by the extra-space ratio `Rspace`. Above predicted ratio
//! 32× the ratio model degrades (Huffman saturates at 32× for f32 and
//! the RLE-based lossless estimate is weaker), so the reservation is
//! additionally widened by Eq. (3):
//!
//! ```text
//! rspace = min(2, 1 + (Rspace − 1) · 4)      when r_comp > 32
//! ```
//!
//! The supported band is `[1.1, 1.43]` (below 1.1 overflow handling
//! dominates; above 1.43 storage is wasted), default 1.25.

/// Extra-space reservation policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExtraSpacePolicy {
    /// Base extra-space ratio `Rspace` (≥ 1).
    pub rspace: f64,
}

/// The paper's supported band.
const RSPACE_MIN: f64 = 1.1;
/// Upper end of the paper's supported band.
pub const RSPACE_MAX: f64 = 1.43;
/// Predicted-ratio threshold above which Eq. (3) widens the reserve.
const HIGH_RATIO_THRESHOLD: f64 = 32.0;

impl Default for ExtraSpacePolicy {
    fn default() -> Self {
        ExtraSpacePolicy { rspace: 1.25 }
    }
}

impl ExtraSpacePolicy {
    /// Policy with a given base ratio. Values outside the paper's
    /// supported band are allowed (the sweeps in Fig. 9/14 probe them)
    /// but clamped to ≥ 1.
    pub fn new(rspace: f64) -> Self {
        ExtraSpacePolicy {
            rspace: rspace.max(1.0),
        }
    }

    /// Effective per-partition ratio after Eq. (3).
    pub fn effective(&self, predicted_ratio: f64) -> f64 {
        if predicted_ratio > HIGH_RATIO_THRESHOLD {
            (1.0 + (self.rspace - 1.0) * 4.0).min(2.0)
        } else {
            self.rspace
        }
    }

    /// Bytes to reserve for a partition with the given prediction.
    pub fn reserve_bytes(&self, predicted_bytes: u64, predicted_ratio: f64) -> u64 {
        ((predicted_bytes as f64) * self.effective(predicted_ratio)).ceil() as u64
    }

    /// The reservation rule both engines apply to each partition: a
    /// rank's `headroom` multiplier (from an adaptive prediction
    /// source) wins when it is positive — `ceil(bytes · h)` — and
    /// anything else (`None`, a non-positive or NaN value) falls back
    /// to [`ExtraSpacePolicy::reserve_bytes`].
    pub fn reserve_for(
        &self,
        predicted_bytes: u64,
        predicted_ratio: f64,
        headroom: Option<f64>,
    ) -> u64 {
        match headroom {
            Some(h) if h > 0.0 => (predicted_bytes as f64 * h).ceil() as u64,
            _ => self.reserve_bytes(predicted_bytes, predicted_ratio),
        }
    }
}

/// The paper's Fig. 9 mapping: a user weight trading write performance
/// (0.0) against storage efficiency (1.0), mapped onto the supported
/// `Rspace` band. Weight 0 favors performance (big reserve, 1.43);
/// weight 1 favors storage (small reserve, 1.1).
pub fn weight_to_rspace(weight: f64) -> f64 {
    let w = weight.clamp(0.0, 1.0);
    RSPACE_MAX - w * (RSPACE_MAX - RSPACE_MIN)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_paper_default() {
        assert_eq!(ExtraSpacePolicy::default().rspace, 1.25);
    }

    #[test]
    fn effective_below_threshold_is_base() {
        let p = ExtraSpacePolicy::new(1.25);
        assert_eq!(p.effective(10.0), 1.25);
        assert_eq!(p.effective(32.0), 1.25);
    }

    #[test]
    fn eq3_above_threshold() {
        let p = ExtraSpacePolicy::new(1.25);
        // 1 + 0.25·4 = 2.0
        assert_eq!(p.effective(40.0), 2.0);
        let q = ExtraSpacePolicy::new(1.1);
        // 1 + 0.1·4 = 1.4
        assert!((q.effective(40.0) - 1.4).abs() < 1e-12);
        // capped at 2
        let r = ExtraSpacePolicy::new(1.43);
        assert_eq!(r.effective(100.0), 2.0);
    }

    #[test]
    fn reserve_rounds_up() {
        let p = ExtraSpacePolicy::new(1.25);
        assert_eq!(p.reserve_bytes(100, 10.0), 125);
        assert_eq!(p.reserve_bytes(101, 10.0), 127); // 126.25 → 127
    }

    #[test]
    fn headroom_overrides_policy_only_when_positive() {
        let p = ExtraSpacePolicy::new(1.25);
        assert_eq!(p.reserve_for(100, 10.0, Some(1.5)), 150);
        assert_eq!(p.reserve_for(101, 10.0, Some(1.05)), 107); // 106.05 → 107
        for none in [None, Some(0.0), Some(-1.0), Some(f64::NAN)] {
            assert_eq!(p.reserve_for(100, 10.0, none), 125, "{none:?}");
        }
    }

    #[test]
    fn clamps_below_one() {
        assert_eq!(ExtraSpacePolicy::new(0.5).rspace, 1.0);
    }

    #[test]
    fn eq3_at_band_endpoints() {
        // Eq. 3 evaluated exactly at the supported band's ends:
        // RSPACE_MIN → 1 + 0.1·4 = 1.4; RSPACE_MAX → 1 + 0.43·4 = 2.72,
        // clamped to the cap of 2.
        let lo = ExtraSpacePolicy::new(RSPACE_MIN);
        assert!((lo.effective(HIGH_RATIO_THRESHOLD + 1e-9) - 1.4).abs() < 1e-9);
        let hi = ExtraSpacePolicy::new(RSPACE_MAX);
        assert_eq!(hi.effective(HIGH_RATIO_THRESHOLD + 1e-9), 2.0);
        // The widened value can never drop below the base ratio within
        // the supported band (would shrink reservations when the model
        // is least trustworthy).
        for rspace in [RSPACE_MIN, 1.2, 1.25, 1.3, RSPACE_MAX] {
            let p = ExtraSpacePolicy::new(rspace);
            assert!(p.effective(100.0) >= p.rspace);
        }
    }

    #[test]
    fn eq3_threshold_is_exclusive() {
        // Exactly at the threshold the base ratio applies; only strictly
        // above it does Eq. 3 widen.
        let p = ExtraSpacePolicy::new(RSPACE_MIN);
        assert_eq!(p.effective(HIGH_RATIO_THRESHOLD), RSPACE_MIN);
        assert!(p.effective(HIGH_RATIO_THRESHOLD.next_up()) > RSPACE_MIN);
    }

    #[test]
    fn reserve_bytes_at_band_endpoints() {
        // Below threshold the base ratio scales the prediction…
        assert_eq!(
            ExtraSpacePolicy::new(RSPACE_MIN).reserve_bytes(1000, 10.0),
            1100
        );
        assert_eq!(
            ExtraSpacePolicy::new(RSPACE_MAX).reserve_bytes(1000, 10.0),
            1430
        );
        // …above it the Eq. 3 widening applies (and caps at 2×).
        // 1 + (1.1−1)·4 is 1.4000000000000004 in f64, and reservations
        // round up, so the reserve is one byte over the ideal 1400.
        assert_eq!(
            ExtraSpacePolicy::new(RSPACE_MIN).reserve_bytes(1000, 50.0),
            1401
        );
        assert_eq!(
            ExtraSpacePolicy::new(RSPACE_MAX).reserve_bytes(1000, 50.0),
            2000
        );
        // Zero prediction reserves zero regardless of policy.
        assert_eq!(ExtraSpacePolicy::new(RSPACE_MAX).reserve_bytes(0, 50.0), 0);
    }

    #[test]
    fn weight_mapping_clamps_out_of_range() {
        // Weights outside [0, 1] clamp to the band endpoints, so the
        // policy can never leave the supported Rspace range.
        assert!((weight_to_rspace(-3.0) - RSPACE_MAX).abs() < 1e-12);
        assert!((weight_to_rspace(7.5) - RSPACE_MIN).abs() < 1e-12);
    }

    #[test]
    fn weight_mapping_endpoints() {
        assert!((weight_to_rspace(0.0) - RSPACE_MAX).abs() < 1e-12);
        assert!((weight_to_rspace(1.0) - RSPACE_MIN).abs() < 1e-12);
        let mid = weight_to_rspace(0.5);
        assert!(mid > RSPACE_MIN && mid < RSPACE_MAX);
        // monotone
        assert!(weight_to_rspace(0.2) > weight_to_rspace(0.8));
    }
}
