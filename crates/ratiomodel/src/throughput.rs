//! Compression-throughput model — the paper's Eq. (1).
//!
//! Single-core prediction-based compression throughput is bounded on
//! both sides (their Fig. 5/6): at very loose bounds the per-point
//! prediction/encoding pass caps it (`cmax`); at very tight bounds the
//! bounded codebook forces literal escapes, flooring it (`cmin`).
//! Between the bounds throughput follows a power law in bit-rate:
//!
//! ```text
//! S(B) = clamp((Cmax − Cmin)·(B/3)^a + Cmin,  Cmin, Cmax),   a < 0
//! Tcomp = D / S(B)
//! ```
//!
//! The paper's unclamped form exceeds `Cmax` for B < 3; we clamp to the
//! empirically observed band, matching their stated observation that
//! min/max throughputs are "similarly bounded across data samples".

/// Fitted throughput model (bytes/second, bit-rate in bits/value).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThroughputModel {
    /// Minimum sustained throughput, bytes/s (`Cmin`).
    pub(crate) cmin: f64,
    /// Maximum sustained throughput, bytes/s (`Cmax`).
    pub(crate) cmax: f64,
    /// Power-law exponent (`a` < 0; more negative = more curved).
    pub a: f64,
}

impl ThroughputModel {
    /// A reference model mirroring the paper's fitted Bebop values
    /// (Cmin = 101.7 MB/s, Cmax = 240.6 MB/s, a = −1.716).
    pub fn paper_reference() -> Self {
        ThroughputModel {
            cmin: 101.7e6,
            cmax: 240.6e6,
            a: -1.716,
        }
    }

    /// Predicted throughput (bytes/s) at compressed bit-rate `b`.
    fn throughput(&self, b: f64) -> f64 {
        let b = b.max(1e-6);
        let s = (self.cmax - self.cmin) * (b / 3.0).powf(self.a) + self.cmin;
        s.clamp(self.cmin, self.cmax)
    }

    /// Predicted compression time for `raw_bytes` of input at
    /// predicted bit-rate `b` — Eq. (1)'s `Tcomp = D/S`.
    pub fn compression_time(&self, raw_bytes: f64, b: f64) -> f64 {
        raw_bytes / self.throughput(b)
    }
}

/// Fit `(bit_rate, bytes_per_sec)` observations to the model.
///
/// `cmin`/`cmax` are the observed extremes; `a` solves the log-linear
/// least squares `log ŷ = a · log(B/3)` over interior points, where
/// `ŷ = (S − Cmin)/(Cmax − Cmin)`.
pub fn fit(samples: &[(f64, f64)]) -> ThroughputModel {
    assert!(samples.len() >= 2, "need at least two observations");
    let cmin = samples
        .iter()
        .map(|&(_, s)| s)
        .fold(f64::INFINITY, f64::min);
    let cmax = samples.iter().map(|&(_, s)| s).fold(0.0, f64::max);
    let span = (cmax - cmin).max(1e-9);

    let mut num = 0.0;
    let mut den = 0.0;
    for &(b, s) in samples {
        if b <= 0.0 {
            continue;
        }
        let y = ((s - cmin) / span).clamp(1e-3, 1.0 - 1e-3);
        let x = (b / 3.0).ln();
        if x.abs() < 1e-9 {
            continue;
        }
        num += y.ln() * x;
        den += x * x;
    }
    let a = if den > 0.0 {
        (num / den).min(-1e-3)
    } else {
        -1.7
    };
    ThroughputModel { cmin, cmax, a }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_reference_shape() {
        let m = ThroughputModel::paper_reference();
        // Monotone decreasing in bit-rate within the band.
        let s1 = m.throughput(3.0);
        let s8 = m.throughput(8.0);
        let s32 = m.throughput(32.0);
        assert!(s1 > s8 && s8 > s32, "{s1} {s8} {s32}");
        // At B = 3 the unclamped form equals Cmax.
        assert!((s1 - m.cmax).abs() < 1.0);
        // High bit-rates approach Cmin.
        assert!(s32 < m.cmin * 1.1);
    }

    #[test]
    fn clamped_at_low_bitrate() {
        let m = ThroughputModel::paper_reference();
        assert!(m.throughput(0.1) <= m.cmax);
        assert!(m.throughput(1e-9) <= m.cmax);
    }

    #[test]
    fn compression_time_scales_with_size() {
        let m = ThroughputModel::paper_reference();
        let t1 = m.compression_time(100e6, 4.0);
        let t2 = m.compression_time(200e6, 4.0);
        assert!((t2 / t1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn fit_recovers_exponent() {
        let truth = ThroughputModel {
            cmin: 100e6,
            cmax: 250e6,
            a: -1.5,
        };
        let samples: Vec<(f64, f64)> = (1..=32)
            .map(|i| {
                let b = i as f64;
                (b, truth.throughput(b))
            })
            .collect();
        let fitted = fit(&samples);
        // The sampled band stops at B = 32, where throughput is still a
        // few MB/s above the asymptotic Cmin.
        assert!(
            (fitted.cmin - truth.cmin).abs() < 6e6,
            "cmin {}",
            fitted.cmin
        );
        assert!(
            (fitted.cmax - truth.cmax).abs() < 2e6,
            "cmax {}",
            fitted.cmax
        );
        // Exponent within a loose band (clamping distorts the tails).
        assert!(fitted.a < -0.5 && fitted.a > -3.0, "a {}", fitted.a);
        // And predictions agree within 15 % over the band.
        for b in [2.0, 4.0, 8.0, 16.0] {
            let rel = (fitted.throughput(b) - truth.throughput(b)).abs() / truth.throughput(b);
            assert!(rel < 0.15, "b={b} rel={rel}");
        }
    }

    #[test]
    #[should_panic]
    fn fit_needs_two_points() {
        fit(&[(1.0, 1.0)]);
    }
}
