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
use crate::noise::{fbm, value_noise};

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

fn gen_grid(side: usize, drift: [f64; 3], f: impl Fn(f64, f64, f64) -> f64 + Sync) -> Vec<f32> {
    let mut out = Vec::with_capacity(side * side * side);
    for z in 0..side {
        for y in 0..side {
            for x in 0..side {
                out.push(f(
                    x as f64 + drift[0],
                    y as f64 + drift[1],
                    z as f64 + drift[2],
                ) as f32);
            }
        }
    }
    out
}

/// Generate a full snapshot with the six standard fields.
pub fn snapshot(p: NyxParams) -> Dataset {
    let dims = vec![p.side, p.side, p.side];
    let s = FEATURE_SCALE;
    let c = contrast(p.redshift);
    let seed = p.seed;

    // Shared "web" field correlating density and temperature.
    let web = |x: f64, y: f64, z: f64| fbm(x / s, y / s, z / s, seed, 5, 0.55);
    // Halo spikes: sparse high-frequency peaks, sharpened by contrast.
    let halos = |x: f64, y: f64, z: f64| {
        let v = value_noise(x / (s * 0.25), y / (s * 0.25), z / (s * 0.25), seed ^ 0xA5);
        let v = ((v - 0.55) * 8.0).max(0.0); // only the top tail survives
        v * v
    };

    // Log-density exponents are clamped to keep the dynamic range near
    // real Nyx snapshots (~5 decades), not runaway halo peaks.
    let baryon = gen_grid(p.side, p.drift, |x, y, z| {
        let g = (web(x, y, z) * c + halos(x, y, z) * c).clamp(-5.5, 5.5);
        1.0e8 * g.exp()
    });
    let dm = gen_grid(p.side, p.drift, |x, y, z| {
        let g = (fbm(x / s, y / s, z / s, seed ^ 0x11, 5, 0.6) * (c * 1.2)
            + halos(x + 3.0, y + 7.0, z + 11.0) * (c * 1.4))
            .clamp(-6.0, 6.0);
        3.2e9 * g.exp()
    });
    let temp = gen_grid(p.side, p.drift, |x, y, z| {
        let g = web(x, y, z) * 0.8 + fbm(x / s, y / s, z / s, seed ^ 0x22, 4, 0.5) * 0.4;
        1.0e4 * (g * c * 0.9).exp()
    });
    let vel = |axis_seed: u64| {
        gen_grid(p.side, p.drift, move |x, y, z| {
            2.0e7
                * fbm(
                    x / (s * 1.5),
                    y / (s * 1.5),
                    z / (s * 1.5),
                    seed ^ axis_seed,
                    4,
                    0.5,
                )
        })
    };

    Dataset {
        name: format!("nyx-{}", p.side),
        fields: vec![
            Field::new(NYX_FIELDS[0], baryon, dims.clone()),
            Field::new(NYX_FIELDS[1], dm, dims.clone()),
            Field::new(NYX_FIELDS[2], temp, dims.clone()),
            Field::new(NYX_FIELDS[3], vel(0x100), dims.clone()),
            Field::new(NYX_FIELDS[4], vel(0x200), dims.clone()),
            Field::new(NYX_FIELDS[5], vel(0x300), dims),
        ],
    }
}

/// Generate a single field (cheaper when only one is needed).
pub fn single_field(p: NyxParams, name: &str) -> Field {
    let ds = snapshot_subset(p, &[name]);
    ds.fields.into_iter().next().expect("unknown field name")
}

/// Generate only the named fields.
fn snapshot_subset(p: NyxParams, names: &[&str]) -> Dataset {
    let full = snapshot(p);
    let fields: Vec<Field> = full
        .fields
        .into_iter()
        .filter(|f| names.contains(&f.name.as_str()))
        .collect();
    assert!(!fields.is_empty(), "no matching field names");
    Dataset {
        name: full.name,
        fields,
    }
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
        let ds = snapshot_subset(NyxParams::with_side(8), &["temperature"]);
        assert_eq!(ds.fields.len(), 1);
        assert_eq!(ds.fields[0].name, "temperature");
    }
}
