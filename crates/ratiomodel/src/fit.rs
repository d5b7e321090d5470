//! Offline calibration: measure the real compressor on a sample field
//! and fit the throughput model (the paper's §IV-B procedure: compress
//! one field of one snapshot across error bounds, fit `Cmin`, `Cmax`,
//! `a`, then reuse the model everywhere).

use szlite::{compress_into, Config, Dims, ErrorBound, Scratch};

/// One offline compression observation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Observation {
    /// Resolved absolute error bound used.
    pub eb: f64,
    /// Achieved compressed bit-rate (bits/value).
    pub bit_rate: f64,
    /// Measured single-core throughput, bytes/s.
    pub throughput: f64,
    /// Achieved compression ratio.
    pub ratio: f64,
}

/// Compress `data` once per error bound, measuring wall-clock
/// throughput: the observations Eq. (1) is fitted to
/// ([`crate::fit_throughput`]). The paper calibrates on one field
/// (baryon density, rel bounds 1e-1…1e-8) and reuses the fitted
/// `(Cmin, Cmax, a)` for every other field and snapshot.
pub fn observe(data: &[f32], dims: &Dims, bounds: &[ErrorBound]) -> Vec<Observation> {
    let raw_bytes = (data.len() * 4) as f64;
    let (mut scratch, mut stream) = (Scratch::new(), Vec::new());
    bounds
        .iter()
        .filter_map(|&eb| {
            let cfg = Config { error_bound: eb };
            let timer = obs::timed("fit.observe");
            let st = compress_into(data, dims, &cfg, &mut scratch, &mut stream).ok()?;
            let secs = timer.stop().max(1e-9);
            Some(Observation {
                eb: st.eb,
                bit_rate: st.bit_rate(),
                throughput: raw_bytes / secs,
                ratio: st.ratio(),
            })
        })
        .collect()
}

/// The paper's calibration bound sweep: value-range-relative bounds
/// from 1e-1 down to 1e-8.
pub fn paper_bound_sweep() -> Vec<ErrorBound> {
    (1..=8).map(|i| ErrorBound::Rel(10f64.powi(-i))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fit_throughput;

    fn field() -> (Vec<f32>, Dims) {
        let n = 32;
        let mut v = Vec::with_capacity(n * n * n);
        for z in 0..n {
            for y in 0..n {
                for x in 0..n {
                    v.push(((x as f32) * 0.15).sin() * ((y as f32) * 0.1).cos() + 0.02 * z as f32);
                }
            }
        }
        (v, Dims::d3(n, n, n))
    }

    #[test]
    fn observe_produces_monotone_bitrates() {
        let (data, dims) = field();
        let obs = observe(
            &data,
            &dims,
            &[
                ErrorBound::Rel(1e-1),
                ErrorBound::Rel(1e-3),
                ErrorBound::Rel(1e-6),
            ],
        );
        assert_eq!(obs.len(), 3);
        assert!(obs[0].bit_rate < obs[1].bit_rate);
        assert!(obs[1].bit_rate < obs[2].bit_rate);
    }

    #[test]
    fn calibrate_produces_sane_model() {
        let (data, dims) = field();
        let obs = observe(&data, &dims, &paper_bound_sweep());
        let samples: Vec<(f64, f64)> = obs.iter().map(|o| (o.bit_rate, o.throughput)).collect();
        let m = fit_throughput(&samples);
        assert!(m.cmin > 0.0 && m.cmax >= m.cmin);
        assert!(m.a < 0.0, "a = {}", m.a);
        assert!(obs.len() >= 6);
    }
}
