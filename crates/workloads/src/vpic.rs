//! Synthetic VPIC-like particle snapshot generator.
//!
//! VPIC (vector particle-in-cell) magnetic-reconnection runs dump
//! per-particle arrays: positions, momenta, and energy. Particles
//! cluster around the reconnection current sheet (a plane), momenta
//! are Maxwellian with a beam component near the sheet, and energy is
//! derived from momenta. Each array is a 1-D field; compressibility
//! varies between position components (smooth-ish after sorting) and
//! momentum components (noisy) — matching the spread of per-field
//! bit-rates the paper evaluates (their 8-field VPIC configuration).

use crate::field::{Dataset, Field};
use crate::noise::{normal, uniform01};

/// Parameters of a synthetic VPIC particle dump.
#[derive(Debug, Clone, Copy)]
pub struct VpicParams {
    /// Number of particles.
    pub n_particles: usize,
    /// RNG seed.
    pub seed: u64,
    /// Simulation time. Particles advect with their momenta (periodic
    /// in x/z) and momenta wobble slowly, so snapshots at nearby times
    /// are strongly correlated; `0.0` reproduces the static dump.
    pub time: f64,
}

impl Default for VpicParams {
    fn default() -> Self {
        VpicParams {
            n_particles: 1 << 16,
            seed: 0x5649_4350,
            time: 0.0,
        }
    }
}

impl VpicParams {
    /// A dump with `n` particles and defaults otherwise.
    pub fn with_particles(n: usize) -> Self {
        VpicParams {
            n_particles: n,
            ..Default::default()
        }
    }
}

/// Box size (arbitrary units) in x/z; the sheet normal is y.
const BOX_SIZE: f64 = 100.0;
/// Thermal spread of the Maxwellian momentum components.
const THERMAL: f64 = 0.3;
/// Beam (reconnection outflow) speed near the current sheet.
const BEAM: f64 = 1.2;

/// The eight per-particle fields, in dump order.
const VPIC_FIELDS: [&str; 8] = [
    "pos_x", "pos_y", "pos_z", "mom_x", "mom_y", "mom_z", "energy", "weight",
];

/// Generate a particle dump with the eight standard fields.
pub fn snapshot(p: VpicParams) -> Dataset {
    let n = p.n_particles;
    let s = p.seed;
    let mut pos_x = Vec::with_capacity(n);
    let mut pos_y = Vec::with_capacity(n);
    let mut pos_z = Vec::with_capacity(n);
    let mut mom_x = Vec::with_capacity(n);
    let mut mom_y = Vec::with_capacity(n);
    let mut mom_z = Vec::with_capacity(n);
    let mut energy = Vec::with_capacity(n);
    let mut weight = Vec::with_capacity(n);

    let t = p.time;
    for i in 0..n as u64 {
        // Positions: x,z uniform; y concentrated near the sheet (y=0)
        // with a Harris-sheet-like profile (tanh-distributed).
        let x0 = uniform01(i, s) * BOX_SIZE;
        let z0 = uniform01(i, s ^ 0x33) * BOX_SIZE;
        let u = uniform01(i, s ^ 0x44) * 2.0 - 1.0;
        let y0 = (u.clamp(-0.999_999, 0.999_999)).atanh() * 2.0; // heavy center, long tails

        // Sheet proximity factor in [0,1]: 1 at the sheet.
        let prox = (-y0 * y0 / 8.0).exp();

        // Momenta: Maxwellian + beam along x near the sheet, plus a
        // slow per-particle wobble that vanishes at t = 0 so the
        // static dump is unchanged.
        let wob = |axis: u64| {
            let phase = uniform01(i, s ^ axis) * 2.0 * std::f64::consts::PI;
            0.25 * THERMAL * ((0.35 * t + phase).sin() - phase.sin())
        };
        let ux = normal(i, s ^ 0x55) * THERMAL + BEAM * prox + wob(0x9A);
        let uy = normal(i, s ^ 0x66) * THERMAL * (1.0 + prox) + wob(0x9B);
        let uz = normal(i, s ^ 0x77) * THERMAL + wob(0x9C);
        let e = 0.5 * (ux * ux + uy * uy + uz * uz);
        // Weights: quantized macro-particle weights (highly compressible).
        let w = 1.0 + (uniform01(i, s ^ 0x88) * 4.0).floor() * 0.25;

        // Advect with the (base) momenta: periodic in x/z, slow y
        // drift that preserves the sheet clustering.
        let x = (x0 + ux * t).rem_euclid(BOX_SIZE);
        let z = (z0 + uz * t).rem_euclid(BOX_SIZE);
        let y = y0 + uy * 0.15 * t;

        pos_x.push(x as f32);
        pos_y.push(y as f32);
        pos_z.push(z as f32);
        mom_x.push(ux as f32);
        mom_y.push(uy as f32);
        mom_z.push(uz as f32);
        energy.push(e as f32);
        weight.push(w as f32);
    }

    // VPIC dumps are written in cell order, which sorts particles by
    // position; sort by x so position arrays are piecewise smooth.
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_by(|&a, &b| {
        pos_x[a as usize]
            .partial_cmp(&pos_x[b as usize])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let reorder = |v: &Vec<f32>| -> Vec<f32> { order.iter().map(|&i| v[i as usize]).collect() };

    let dims = vec![n];
    Dataset {
        name: format!("vpic-{n}"),
        fields: vec![
            Field::new(VPIC_FIELDS[0], reorder(&pos_x), dims.clone()),
            Field::new(VPIC_FIELDS[1], reorder(&pos_y), dims.clone()),
            Field::new(VPIC_FIELDS[2], reorder(&pos_z), dims.clone()),
            Field::new(VPIC_FIELDS[3], reorder(&mom_x), dims.clone()),
            Field::new(VPIC_FIELDS[4], reorder(&mom_y), dims.clone()),
            Field::new(VPIC_FIELDS[5], reorder(&mom_z), dims.clone()),
            Field::new(VPIC_FIELDS[6], reorder(&energy), dims.clone()),
            Field::new(VPIC_FIELDS[7], reorder(&weight), dims),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_shape() {
        let ds = snapshot(VpicParams::with_particles(1000));
        assert_eq!(ds.fields.len(), 8);
        for f in &ds.fields {
            assert_eq!(f.len(), 1000);
            assert!(
                f.data.iter().all(|v| v.is_finite()),
                "{} has non-finite",
                f.name
            );
        }
    }

    #[test]
    fn deterministic() {
        let seeded = || VpicParams {
            seed: 9,
            ..VpicParams::with_particles(500)
        };
        let a = snapshot(seeded());
        let b = snapshot(seeded());
        assert_eq!(a.fields[3].data, b.fields[3].data);
    }

    #[test]
    fn positions_sorted_by_x() {
        let ds = snapshot(VpicParams::with_particles(2000));
        let px = &ds.field("pos_x").unwrap().data;
        assert!(px.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn particles_cluster_at_sheet() {
        let ds = snapshot(VpicParams::with_particles(20_000));
        let py = &ds.field("pos_y").unwrap().data;
        let near = py.iter().filter(|&&y| y.abs() < 2.0).count();
        // Far more than the uniform fraction lies near the sheet.
        assert!(near * 2 > py.len(), "{near} of {}", py.len());
    }

    #[test]
    fn energy_consistent_with_momenta() {
        let ds = snapshot(VpicParams::with_particles(100));
        let (mx, my, mz, e) = (
            &ds.field("mom_x").unwrap().data,
            &ds.field("mom_y").unwrap().data,
            &ds.field("mom_z").unwrap().data,
            &ds.field("energy").unwrap().data,
        );
        for i in 0..100 {
            let want = 0.5 * (mx[i] * mx[i] + my[i] * my[i] + mz[i] * mz[i]);
            assert!((want - e[i]).abs() < 1e-3 * (1.0 + want.abs()));
        }
    }
}
