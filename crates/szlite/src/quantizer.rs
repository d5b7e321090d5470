//! Error-bounded linear-scale quantization of prediction residuals.
//!
//! Residual `d = x − pred` maps to the integer code
//! `q = round(d / (2·eb))`; the reconstruction `pred + q·2·eb` is then
//! within `eb` of `x`. Codes are offset by `radius` so they are
//! non-negative; code `0` is reserved for *unpredictable* points whose
//! raw value is stored verbatim (either because `|q| ≥ radius` or
//! because rounding to the storage type would break the bound).

/// Linear quantizer with a bounded codebook.
#[derive(Debug, Clone, Copy)]
pub struct Quantizer {
    eb: f64,
    twice_eb: f64,
    radius: i64,
}

/// Symbol reserved for unpredictable (literal) points.
pub const UNPREDICTABLE: u32 = 0;

/// `u.round()` as an integer when it lies strictly inside `±radius`,
/// `None` otherwise — the range test and rounding of
/// [`Quantizer::quantize`] without `f64::round`, which is a libm call
/// on baseline x86-64 and spills every live register of the row
/// kernels around it.
///
/// Same answer as `q = u.round(); q.is_finite() && q.abs() < radius`
/// then `q as i64`, for every `u` and `2 ≤ radius ≤ 2^32`:
///
/// * `round` is half-away-from-zero, so `|round(u)| = ⌊|u| + ½⌋`, which
///   is below the integer `radius` exactly when `|u| < radius − ½`; that
///   bound is representable, and the comparison is false for NaN and
///   ±∞ just as `is_finite` is.
/// * Inside the range `|u| < 2^32`: `t = u as i64` is the exact
///   truncation, `t as f64` and the fraction `u − t` are exact, and
///   half-away-from-zero moves `t` one step outward exactly when the
///   fraction reaches ±½ (`-0.0` has fraction `-0.0` and stays 0).
#[inline]
pub(crate) fn round_within(u: f64, radius: i64) -> Option<i64> {
    if u.abs() < radius as f64 - 0.5 {
        let t = u as i64;
        let fr = u - t as f64;
        Some(t + i64::from(fr >= 0.5) - i64::from(fr <= -0.5))
    } else {
        None
    }
}

impl Quantizer {
    /// Create a quantizer for absolute bound `eb` (> 0) and codebook
    /// half-size `radius` (≥ 2).
    pub fn new(eb: f64, radius: u32) -> Self {
        debug_assert!(eb > 0.0 && eb.is_finite());
        Quantizer {
            eb,
            twice_eb: 2.0 * eb,
            radius: i64::from(radius.max(2)),
        }
    }

    /// Alphabet size (number of distinct symbols including the
    /// unpredictable escape).
    pub fn alphabet(&self) -> usize {
        (2 * self.radius) as usize
    }

    /// Quantize `x` against prediction `pred`. Returns the symbol and
    /// the double-precision reconstruction, or `None` when the point
    /// must be stored as a literal.
    #[inline]
    pub fn quantize(&self, x: f64, pred: f64) -> Option<(u32, f64)> {
        let d = x - pred;
        let q = (d / self.twice_eb).round();
        if !q.is_finite() || q.abs() >= self.radius as f64 {
            return None;
        }
        let q = q as i64;
        let recon = pred + q as f64 * self.twice_eb;
        if (x - recon).abs() > self.eb {
            // Rare: accumulated floating error pushed us out of bound.
            return None;
        }
        Some(((q + self.radius) as u32, recon))
    }

    /// Invert a symbol produced by [`Self::quantize`].
    #[inline]
    pub fn reconstruct(&self, code: u32, pred: f64) -> f64 {
        let q = i64::from(code) - self.radius;
        pred + q as f64 * self.twice_eb
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantize_within_bound() {
        let q = Quantizer::new(0.5, 16);
        for (x, pred) in [(1.0, 0.0), (-3.7, 2.1), (0.0, 0.49), (7.2, 7.1)] {
            let (code, recon) = q.quantize(x, pred).unwrap();
            assert!((x - recon).abs() <= 0.5, "x={x} recon={recon}");
            assert_eq!(q.reconstruct(code, pred), recon);
            assert_ne!(code, UNPREDICTABLE);
        }
    }

    #[test]
    fn far_point_is_unpredictable() {
        let q = Quantizer::new(0.5, 16);
        // |q| = 100 / 1.0 = 100 >= 16
        assert!(q.quantize(100.0, 0.0).is_none());
    }

    #[test]
    fn nan_is_unpredictable() {
        let q = Quantizer::new(0.5, 16);
        assert!(q.quantize(f64::NAN, 0.0).is_none());
        assert!(q.quantize(f64::INFINITY, 0.0).is_none());
    }

    #[test]
    fn codes_are_in_alphabet() {
        let q = Quantizer::new(1e-3, 512);
        for i in -400..400 {
            let x = i as f64 * 1.9e-3;
            if let Some((code, _)) = q.quantize(x, 0.0) {
                assert!((code as usize) < q.alphabet());
                assert!(code > 0);
            }
        }
    }

    /// The range test and rounding `round_within` replaces.
    fn round_reference(u: f64, radius: i64) -> Option<i64> {
        let q = u.round();
        (q.is_finite() && q.abs() < radius as f64).then_some(q as i64)
    }

    #[test]
    fn round_within_matches_f64_round() {
        for radius in [2i64, 3, 64, 32768, 1 << 31, i64::from(u32::MAX)] {
            let edge = radius as f64 - 0.5;
            let mut probes = vec![
                0.0,
                5e-324,
                f64::MIN_POSITIVE,
                (1u64 << 52) as f64,
                (1u64 << 52) as f64 + 1.0,
                (1u64 << 53) as f64,
                1e300,
                f64::NAN,
                f64::INFINITY,
            ];
            // Ties, the range edge and the integers around it, each
            // with both neighbors one ulp away.
            for center in [
                0.5,
                1.5,
                2.5,
                edge - 1.0,
                edge,
                radius as f64 - 1.0,
                radius as f64,
            ] {
                probes.extend([center.next_down(), center, center.next_up()]);
            }
            for p in probes {
                for u in [p, -p] {
                    assert_eq!(
                        round_within(u, radius),
                        round_reference(u, radius),
                        "u = {u:e}, radius {radius}"
                    );
                }
            }
        }
        // Every quarter step across a small range, and its neighbors.
        for k in -300i32..=300 {
            let c = f64::from(k) * 0.25;
            for u in [c.next_down(), c, c.next_up()] {
                assert_eq!(round_within(u, 64), round_reference(u, 64), "u = {u:e}");
            }
        }
        assert_eq!(round_within(-0.0, 2), Some(0));
        assert_eq!(round_within(1.5, 2), None);
        assert_eq!(round_within(1.5f64.next_down(), 2), Some(1));
        assert_eq!(round_within(-2.5, 64), Some(-3));
    }

    #[test]
    fn zero_residual_maps_to_radius() {
        let q = Quantizer::new(0.1, 8);
        let (code, recon) = q.quantize(5.0, 5.0).unwrap();
        assert_eq!(code, 8);
        assert_eq!(recon, 5.0);
    }
}
