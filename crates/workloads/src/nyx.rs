//! Synthetic Nyx-like cosmology snapshot generator.
//!
//! Nyx dumps several 3-D fields per snapshot: baryon density, dark
//! matter density, temperature and three velocity components. Real Nyx
//! densities are approximately log-normally distributed with strong
//! small-scale clustering (halos) that grows as the simulation evolves
//! (red-shift decreases). We mimic that structure:
//!
//! * a large-scale fBm "cosmic web" field,
//! * multiplicative log-normal transforms for the densities,
//! * additive hashed halo spikes whose contrast scales with the
//!   evolution parameter,
//! * smooth large-scale velocity fields.
//!
//! Per-partition compressed bit-rates under a fixed error bound spread
//! over a wide range (compare the paper's Fig. 1), because clustering
//! makes some sub-volumes much harder to predict than others.

use crate::field::{Dataset, Field};
use crate::noise::{fbm_row, value_noise_row};

/// Parameters of a synthetic Nyx snapshot.
#[derive(Debug, Clone, Copy)]
pub struct NyxParams {
    /// Cube side (grid is `side³`).
    pub side: usize,
    /// RNG seed; two snapshots with the same seed are identical.
    pub seed: u64,
    /// Red shift: large values = early universe = smoother fields.
    /// The paper's Fig. 15 sweeps this; sensible range ~ [0, 10].
    pub redshift: f64,
    /// Grid-cell offsets added to the (x, y, z) sample coordinates:
    /// advection of the cosmic web past the grid. Timestep streams
    /// advance this per step so consecutive snapshots are strongly
    /// correlated but not identical.
    pub drift: [f64; 3],
}

impl Default for NyxParams {
    fn default() -> Self {
        NyxParams {
            side: 64,
            seed: 0x4E59,
            redshift: 2.0,
            drift: [0.0; 3],
        }
    }
}

impl NyxParams {
    /// Snapshot with a given cube side and defaults otherwise.
    pub fn with_side(side: usize) -> Self {
        NyxParams {
            side,
            ..Default::default()
        }
    }

    /// Override the red shift (evolution stage).
    pub fn redshift(mut self, z: f64) -> Self {
        self.redshift = z;
        self
    }
}

/// Field names in the order Nyx dumps them (the paper's six fields).
const NYX_FIELDS: [&str; 6] = [
    "baryon_density",
    "dark_matter_density",
    "temperature",
    "velocity_x",
    "velocity_y",
    "velocity_z",
];

/// Base feature wavelength in grid cells.
const FEATURE_SCALE: f64 = 24.0;

/// Clustering contrast grows as red shift decreases (structure forms).
fn contrast(redshift: f64) -> f64 {
    2.4 / (1.0 + 0.35 * redshift.max(0.0))
}

/// The six fields of a snapshot, each generated only where `want`
/// names it (an unwanted field is left empty).
///
/// Built a row of x at a time through the row kernels, which return
/// the bits of the per-point definition: for the grid point
/// `(x, y, z) + drift` (each coordinate `i as f64 + drift`), with
/// `s = FEATURE_SCALE`, `web = fbm(·/s, seed, 5, 0.55)` and
/// `halos(·) = spike(value_noise(·/(s·0.25), seed ^ 0xA5))`:
/// * baryon density `1e8 · exp(clamp(web·c + halos·c, ±5.5))`;
/// * dark matter `3.2e9 · exp(clamp(fbm(·/s, seed ^ 0x11, 5, 0.6)·1.2c
///   + halos(· + (3, 7, 11))·1.4c, ±6))`;
/// * temperature `1e4 · exp((web·0.8 + fbm(·/s, seed ^ 0x22, 4,
///   0.5)·0.4)·c·0.9)`;
/// * velocities `2e7 · fbm(·/(s·1.5), seed ^ 0x100 | 0x200 | 0x300, 4, 0.5)`.
///
/// `web` is computed once per row for the two fields that read it.
fn fields(p: NyxParams, want: [bool; 6]) -> [Vec<f32>; 6] {
    let n = p.side;
    let s = FEATURE_SCALE;
    let c = contrast(p.redshift);
    let seed = p.seed;
    let [dx, dy, dz] = p.drift;
    let at = |i: usize, d: f64| i as f64 + d;
    // Halo spikes: sparse high-frequency peaks, sharpened by contrast.
    let spike = |v: f64| {
        let v = ((v - 0.55) * 8.0).max(0.0); // only the top tail survives
        v * v
    };
    let xs = |f: &dyn Fn(f64) -> f64| -> Vec<f64> { (0..n).map(|x| f(at(x, dx))).collect() };
    let x_web = xs(&|x| x / s);
    let x_halo = xs(&|x| x / (s * 0.25));
    let x_halo_dm = xs(&|x| (x + 3.0) / (s * 0.25));
    let x_vel = xs(&|x| x / (s * 1.5));
    let (mut web, mut halo, mut row) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
    let mut out: [Vec<f32>; 6] =
        std::array::from_fn(|k| Vec::with_capacity(if want[k] { n * n * n } else { 0 }));
    let [baryon, dm, temp, vx, vy, vz] = &mut out;

    for z in 0..n {
        let zf = at(z, dz);
        for y in 0..n {
            let yf = at(y, dy);
            if want[0] || want[2] {
                fbm_row(&x_web, yf / s, zf / s, seed, 5, 0.55, &mut web);
            }
            // Log-density exponents are clamped to keep the dynamic
            // range near real Nyx snapshots (~5 decades), not runaway
            // halo peaks.
            if want[0] {
                let (yh, zh) = (yf / (s * 0.25), zf / (s * 0.25));
                value_noise_row(&x_halo, yh, zh, seed ^ 0xA5, &mut halo);
                baryon.extend(web.iter().zip(&halo).map(|(&w, &h)| {
                    let g = (w * c + spike(h) * c).clamp(-5.5, 5.5);
                    (1.0e8 * g.exp()) as f32
                }));
            }
            if want[1] {
                fbm_row(&x_web, yf / s, zf / s, seed ^ 0x11, 5, 0.6, &mut row);
                let (yh, zh) = ((yf + 7.0) / (s * 0.25), (zf + 11.0) / (s * 0.25));
                value_noise_row(&x_halo_dm, yh, zh, seed ^ 0xA5, &mut halo);
                dm.extend(row.iter().zip(&halo).map(|(&f, &h)| {
                    let g = (f * (c * 1.2) + spike(h) * (c * 1.4)).clamp(-6.0, 6.0);
                    (3.2e9 * g.exp()) as f32
                }));
            }
            if want[2] {
                fbm_row(&x_web, yf / s, zf / s, seed ^ 0x22, 4, 0.5, &mut row);
                temp.extend(web.iter().zip(&row).map(|(&w, &f)| {
                    let g = w * 0.8 + f * 0.4;
                    (1.0e4 * (g * c * 0.9).exp()) as f32
                }));
            }
            for (k, vel, axis_seed) in [
                (3, &mut *vx, 0x100),
                (4, &mut *vy, 0x200),
                (5, &mut *vz, 0x300),
            ] {
                if want[k] {
                    let (yv, zv) = (yf / (s * 1.5), zf / (s * 1.5));
                    fbm_row(&x_vel, yv, zv, seed ^ axis_seed, 4, 0.5, &mut row);
                    vel.extend(row.iter().map(|&f| (2.0e7 * f) as f32));
                }
            }
        }
    }
    out
}

/// Generate a full snapshot with the six standard fields.
pub fn snapshot(p: NyxParams) -> Dataset {
    let dims = vec![p.side, p.side, p.side];
    Dataset {
        name: format!("nyx-{}", p.side),
        fields: NYX_FIELDS
            .iter()
            .zip(fields(p, [true; 6]))
            .map(|(&name, data)| Field::new(name, data, dims.clone()))
            .collect(),
    }
}

/// Generate a single field, evaluating only the noise it reads; its
/// values are those of the same field of [`snapshot`].
pub fn single_field(p: NyxParams, name: &str) -> Field {
    let k = NYX_FIELDS
        .iter()
        .position(|&f| f == name)
        .expect("unknown field name");
    let mut want = [false; 6];
    want[k] = true;
    let data = std::mem::take(&mut fields(p, want)[k]);
    Field::new(NYX_FIELDS[k], data, vec![p.side; 3])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_has_six_fields() {
        let ds = snapshot(NyxParams::with_side(8));
        assert_eq!(ds.fields.len(), 6);
        for f in &ds.fields {
            assert_eq!(f.len(), 512);
            assert!(f.data.iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let seeded = |seed| NyxParams {
            seed,
            ..NyxParams::with_side(8)
        };
        let a = snapshot(seeded(1));
        let b = snapshot(seeded(1));
        let c = snapshot(seeded(2));
        assert_eq!(a.fields[0].data, b.fields[0].data);
        assert_ne!(a.fields[0].data, c.fields[0].data);
    }

    #[test]
    fn densities_positive() {
        let ds = snapshot(NyxParams::with_side(8));
        for name in ["baryon_density", "dark_matter_density", "temperature"] {
            let f = ds.field(name).unwrap();
            assert!(
                f.data.iter().all(|&v| v > 0.0),
                "{name} has non-positive values"
            );
        }
    }

    #[test]
    fn later_time_is_more_clustered() {
        // Lower red shift → higher contrast → larger density spread.
        let early = snapshot(NyxParams::with_side(16).redshift(8.0));
        let late = snapshot(NyxParams::with_side(16).redshift(0.5));
        let spread = |f: &crate::field::Field| {
            let mx = f.data.iter().cloned().fold(f32::MIN, f32::max);
            let mn = f.data.iter().cloned().fold(f32::MAX, f32::min);
            (mx / mn) as f64
        };
        let fe = early.field("baryon_density").unwrap();
        let fl = late.field("baryon_density").unwrap();
        assert!(
            spread(fl) > spread(fe),
            "late {} early {}",
            spread(fl),
            spread(fe)
        );
    }

    #[test]
    fn subset_selects_fields() {
        // Each field alone is the same field of the full snapshot, bit
        // for bit, at a drift that puts the grid off the lattice.
        let p = NyxParams {
            seed: 7,
            drift: [0.83, -1.47, 2.29],
            ..NyxParams::with_side(12).redshift(2.7)
        };
        let full = snapshot(p);
        for want in &full.fields {
            let one = single_field(p, &want.name);
            assert_eq!(one.name, want.name);
            assert_eq!(one.dims, want.dims);
            let bits = |f: &Field| f.data.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&one), bits(want), "{}", want.name);
        }
    }
}
