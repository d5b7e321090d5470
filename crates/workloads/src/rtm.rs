//! Synthetic RTM-like (reverse-time-migration) wavefield generator.
//!
//! The paper's Fig. 5 evaluates compression throughput on both a Nyx
//! and an RTM dataset to show the bitrate–throughput curve is
//! consistent across data sources. RTM wavefields are oscillatory
//! (band-limited wavefronts radiating from sources over a smooth
//! velocity model); we synthesize interfering spherical wavelets plus
//! low-amplitude background noise.

use crate::field::{Dataset, Field};
use crate::noise::{fbm, uniform01};

/// Parameters of a synthetic RTM wavefield snapshot.
#[derive(Debug, Clone, Copy)]
pub struct RtmParams {
    /// Cube side.
    pub side: usize,
    /// RNG seed.
    pub seed: u64,
    /// Propagation time in grid cells travelled (unit phase speed):
    /// wavefronts radiate outward as `time` advances, so snapshots at
    /// nearby times are strongly correlated; `0.0` is the static field.
    pub time: f64,
}

impl Default for RtmParams {
    fn default() -> Self {
        RtmParams {
            side: 64,
            seed: 0x52_54_4D,
            time: 0.0,
        }
    }
}

impl RtmParams {
    /// Snapshot with a given cube side.
    pub fn with_side(side: usize) -> Self {
        RtmParams {
            side,
            ..Default::default()
        }
    }
}

/// Number of point sources.
const N_SOURCES: u64 = 6;
/// Dominant wavelength in grid cells.
const WAVELENGTH: f64 = 12.0;

/// Generate a single-field wavefield snapshot (`pressure`).
pub fn snapshot(p: RtmParams) -> Dataset {
    let n = p.side;
    let k = 2.0 * std::f64::consts::PI / WAVELENGTH;
    // Random source positions and phases.
    let sources: Vec<(f64, f64, f64, f64)> = (0..N_SOURCES)
        .map(|i| {
            (
                uniform01(i, p.seed) * n as f64,
                uniform01(i, p.seed ^ 0x1) * n as f64,
                uniform01(i, p.seed ^ 0x2) * n as f64,
                uniform01(i, p.seed ^ 0x3) * 2.0 * std::f64::consts::PI,
            )
        })
        .collect();

    let mut data = Vec::with_capacity(n * n * n);
    for z in 0..n {
        for y in 0..n {
            for x in 0..n {
                let (xf, yf, zf) = (x as f64, y as f64, z as f64);
                let mut v = 0.0;
                for &(sx, sy, sz, ph) in &sources {
                    let r = ((xf - sx).powi(2) + (yf - sy).powi(2) + (zf - sz).powi(2))
                        .sqrt()
                        .max(1.0);
                    // Decaying spherical wavelet with a Gaussian
                    // envelope, travelling outward at unit phase speed.
                    v += (k * (r - p.time) + ph).sin() * (-r / (n as f64 * 0.6)).exp() / r.sqrt();
                }
                // Smooth background (velocity-model imprint) + v.
                v += 0.05 * fbm(xf / 20.0, yf / 20.0, zf / 20.0, p.seed ^ 0x9, 3, 0.5);
                data.push(v as f32);
            }
        }
    }
    Dataset {
        name: format!("rtm-{n}"),
        fields: vec![Field::new("pressure", data, vec![n, n, n])],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_shape() {
        let ds = snapshot(RtmParams::with_side(16));
        assert_eq!(ds.fields.len(), 1);
        assert_eq!(ds.fields[0].len(), 4096);
        assert!(ds.fields[0].data.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn deterministic() {
        let a = snapshot(RtmParams::with_side(8));
        let b = snapshot(RtmParams::with_side(8));
        assert_eq!(a.fields[0].data, b.fields[0].data);
    }

    #[test]
    fn oscillatory_zero_mean() {
        let ds = snapshot(RtmParams::with_side(24));
        let d = &ds.fields[0].data;
        let mean: f64 = d.iter().map(|&v| v as f64).sum::<f64>() / d.len() as f64;
        let amp = d.iter().map(|&v| (v as f64).abs()).fold(0.0, f64::max);
        assert!(mean.abs() < 0.2 * amp, "mean {mean} amp {amp}");
    }
}
