//! Timestep streams: deterministic, correlated snapshot sequences.
//!
//! The paper's target applications checkpoint a *time-evolving*
//! simulation, not a single file: timestep *t*'s per-field compression
//! ratios are an excellent predictor for timestep *t + 1*. This module
//! turns the three generators into streams whose consecutive snapshots
//! are strongly correlated but never identical:
//!
//! * **Nyx** — the cosmic web advects past the grid ([`NyxParams::drift`])
//!   while red shift decreases (structure slowly forms);
//! * **VPIC** — particles advect with their momenta and the momenta
//!   wobble ([`VpicParams::time`]);
//! * **RTM** — wavefronts propagate outward ([`RtmParams::time`]);
//!
//! plus a small multiplicative per-step noise injection so observed
//! ratios fluctuate the way real checkpoint streams do. Everything is
//! a pure function of `(seed, step)` — no state is carried between
//! snapshots — so streams replay identically at any worker count.

use crate::field::Dataset;
use crate::noise::uniform01;
use crate::{nyx, rtm, vpic, NyxParams, RtmParams, VpicParams};

/// Which generator a stream draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamKind {
    /// 3-D Nyx cosmology snapshots (six fields).
    Nyx,
    /// 1-D VPIC particle dumps (eight fields).
    Vpic,
    /// 3-D RTM pressure wavefields (one field).
    Rtm,
}

/// A deterministic sequence of correlated snapshots.
#[derive(Debug, Clone, Copy)]
pub struct SnapshotStream {
    /// Generator family.
    pub kind: StreamKind,
    /// Cube side (Nyx/RTM) or particle count (VPIC).
    pub size: usize,
    /// RNG seed shared by every step.
    pub seed: u64,
    /// Simulation-time advance per step.
    pub dt: f64,
    /// Relative amplitude of the per-step multiplicative noise
    /// injection (`0.0` disables it).
    pub noise: f64,
}

impl SnapshotStream {
    /// A Nyx stream over a `side³` grid with default drift/noise.
    pub fn nyx(side: usize) -> Self {
        SnapshotStream {
            kind: StreamKind::Nyx,
            size: side,
            seed: 0x4E59,
            dt: 0.35,
            noise: 0.02,
        }
    }

    /// A VPIC stream over `n_particles` particles.
    pub fn vpic(n_particles: usize) -> Self {
        SnapshotStream {
            kind: StreamKind::Vpic,
            size: n_particles,
            seed: 0x5649_4350,
            dt: 0.8,
            noise: 0.02,
        }
    }

    /// An RTM stream over a `side³` grid.
    pub fn rtm(side: usize) -> Self {
        SnapshotStream {
            kind: StreamKind::Rtm,
            size: side,
            seed: 0x52_54_4D,
            dt: 0.6,
            noise: 0.02,
        }
    }

    /// Override the seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Short label for tables and file names.
    pub fn label(&self) -> &'static str {
        match self.kind {
            StreamKind::Nyx => "nyx",
            StreamKind::Vpic => "vpic",
            StreamKind::Rtm => "rtm",
        }
    }

    /// True for particle (1-D) streams, false for grid (3-D) streams.
    pub fn is_particle(&self) -> bool {
        self.kind == StreamKind::Vpic
    }

    /// Generate the snapshot at `step` (pure in `(seed, step)`).
    pub fn snapshot(&self, step: usize) -> Dataset {
        let t = step as f64 * self.dt;
        let mut ds = match self.kind {
            StreamKind::Nyx => nyx::snapshot(NyxParams {
                seed: self.seed,
                // Structure slowly forms over the run…
                redshift: (3.0 - 0.08 * t).max(0.2),
                // …while the web advects past the grid at an oblique
                // angle (incommensurate components avoid re-sampling
                // the same lattice points).
                drift: [0.83 * t, 0.47 * t, 0.29 * t],
                ..NyxParams::with_side(self.size)
            }),
            StreamKind::Vpic => vpic::snapshot(VpicParams {
                seed: self.seed,
                time: t,
                ..VpicParams::with_particles(self.size)
            }),
            StreamKind::Rtm => rtm::snapshot(RtmParams {
                seed: self.seed,
                time: t,
                ..RtmParams::with_side(self.size)
            }),
        };
        if self.noise > 0.0 {
            inject_noise(&mut ds, self.seed, step, self.noise);
        }
        ds
    }
}

/// Multiplicative per-step noise: each value is scaled by
/// `1 + amp·u` with `u` uniform in [-1, 1], hashed from the element
/// index, field index and step. Keeps signs (and positivity) for
/// `amp < 1` and is uncorrelated across steps — the "measurement
/// noise" on top of the smooth evolution.
fn inject_noise(ds: &mut Dataset, seed: u64, step: usize, amp: f64) {
    for (fi, field) in ds.fields.iter_mut().enumerate() {
        let s = seed ^ 0xA07E_0000 ^ ((step as u64) << 20) ^ ((fi as u64) << 44);
        for (i, v) in field.data.iter_mut().enumerate() {
            let u = uniform01(i as u64, s) * 2.0 - 1.0;
            *v = (f64::from(*v) * (1.0 + amp * u)) as f32;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel_l2(a: &[f32], b: &[f32]) -> f64 {
        let mut num = 0.0f64;
        let mut den = 0.0f64;
        for (&x, &y) in a.iter().zip(b) {
            num += (f64::from(x) - f64::from(y)).powi(2);
            den += f64::from(x).powi(2);
        }
        (num / den.max(1e-300)).sqrt()
    }

    #[test]
    fn steps_are_deterministic() {
        for stream in [
            SnapshotStream::nyx(8),
            SnapshotStream::vpic(512),
            SnapshotStream::rtm(8),
        ] {
            let a = stream.snapshot(3);
            let b = stream.snapshot(3);
            for (fa, fb) in a.fields.iter().zip(&b.fields) {
                assert_eq!(fa.data, fb.data, "{}: step must replay", stream.label());
            }
        }
    }

    #[test]
    fn consecutive_steps_correlated_but_distinct() {
        for stream in [
            SnapshotStream::nyx(12),
            SnapshotStream::vpic(2048),
            SnapshotStream::rtm(12),
        ] {
            let s0 = stream.snapshot(0);
            let s1 = stream.snapshot(1);
            let s8 = stream.snapshot(8);
            let f0 = &s0.fields[0].data;
            let near = rel_l2(f0, &s1.fields[0].data);
            let far = rel_l2(f0, &s8.fields[0].data);
            assert!(near > 0.0, "{}: steps must differ", stream.label());
            assert!(
                near < far,
                "{}: step 1 ({near:.3}) must be closer than step 8 ({far:.3})",
                stream.label()
            );
        }
    }

    #[test]
    fn step_zero_without_noise_matches_static_generator() {
        let stream = SnapshotStream {
            noise: 0.0,
            ..SnapshotStream::nyx(8)
        };
        let ds = stream.snapshot(0);
        let base = nyx::snapshot(NyxParams {
            redshift: 3.0,
            ..NyxParams::with_side(8)
        });
        assert_eq!(ds.fields[0].data, base.fields[0].data);
        let stream = SnapshotStream {
            noise: 0.0,
            ..SnapshotStream::rtm(8)
        };
        let base = rtm::snapshot(RtmParams::with_side(8));
        assert_eq!(stream.snapshot(0).fields[0].data, base.fields[0].data);
    }

    #[test]
    fn fields_stay_finite_under_noise() {
        for stream in [
            SnapshotStream::nyx(8),
            SnapshotStream::vpic(512),
            SnapshotStream::rtm(8),
        ] {
            let ds = stream.snapshot(5);
            for f in &ds.fields {
                assert!(
                    f.data.iter().all(|v| v.is_finite()),
                    "{}/{} has non-finite values",
                    stream.label(),
                    f.name
                );
            }
        }
    }
}
