//! Deterministic lattice value-noise and fractal Brownian motion.
//!
//! All generators in this crate build fields out of this noise: it is
//! seeded and produces smooth-but-heterogeneous data whose per-region
//! compressibility varies — the property (paper Fig. 1) the
//! predictive-write design exploits.
//!
//! The grid generators evaluate it a row at a time: [`value_noise_row`]
//! and [`fbm_row`] fill a caller's row buffer from a caller's buffer of
//! x coordinates at one (y, z). They hash each lattice corner once per
//! cell the row crosses instead of once per point, and return exactly
//! the bits of [`value_noise`] / [`fbm`] at every point: each value goes
//! through the same `f64` operations on the same operands in the same
//! order, and Rust neither contracts `a + b * c` into a fused
//! multiply-add nor reassociates. The per-point functions stay as the
//! definition and as the row kernels' test oracle.

/// 64-bit mix hash (splitmix64 finalizer) of lattice coordinates.
#[inline]
fn hash(x: i64, y: i64, z: i64, seed: u64) -> u64 {
    let mut h = seed
        ^ (x as u64).wrapping_mul(0x9E3779B97F4A7C15)
        ^ (y as u64).wrapping_mul(0xC2B2AE3D27D4EB4F)
        ^ (z as u64).wrapping_mul(0x165667B19E3779F9);
    h ^= h >> 30;
    h = h.wrapping_mul(0xBF58476D1CE4E5B9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94D049BB133111EB);
    h ^= h >> 31;
    h
}

/// Uniform value in [-1, 1] at an integer lattice point.
#[inline]
fn lattice(x: i64, y: i64, z: i64, seed: u64) -> f64 {
    let h = hash(x, y, z, seed);
    (h >> 11) as f64 / ((1u64 << 53) as f64) * 2.0 - 1.0
}

/// Quintic smoothstep used for C²-continuous interpolation.
#[inline]
fn fade(t: f64) -> f64 {
    t * t * t * (t * (t * 6.0 - 15.0) + 10.0)
}

#[inline]
fn lerp(a: f64, b: f64, t: f64) -> f64 {
    a + (b - a) * t
}

/// Smooth value noise in [-1, 1] at a continuous 3-D coordinate.
pub fn value_noise(x: f64, y: f64, z: f64, seed: u64) -> f64 {
    let xi = x.floor() as i64;
    let yi = y.floor() as i64;
    let zi = z.floor() as i64;
    let tx = fade(x - xi as f64);
    let ty = fade(y - yi as f64);
    let tz = fade(z - zi as f64);
    let mut c = [0.0f64; 8];
    for (k, corner) in c.iter_mut().enumerate() {
        let dx = (k & 1) as i64;
        let dy = ((k >> 1) & 1) as i64;
        let dz = ((k >> 2) & 1) as i64;
        *corner = lattice(xi + dx, yi + dy, zi + dz, seed);
    }
    let x00 = lerp(c[0], c[1], tx);
    let x10 = lerp(c[2], c[3], tx);
    let x01 = lerp(c[4], c[5], tx);
    let x11 = lerp(c[6], c[7], tx);
    let y0 = lerp(x00, x10, ty);
    let y1 = lerp(x01, x11, ty);
    lerp(y0, y1, tz)
}

/// Fractal Brownian motion: `octaves` layers of [`value_noise`] with
/// lacunarity 2 and the given `persistence`. Output roughly in [-1, 1].
pub fn fbm(x: f64, y: f64, z: f64, seed: u64, octaves: u32, persistence: f64) -> f64 {
    let mut sum = 0.0;
    let mut amp = 1.0;
    let mut freq = 1.0;
    let mut norm = 0.0;
    for o in 0..octaves {
        sum += amp * value_noise(x * freq, y * freq, z * freq, seed.wrapping_add(o as u64));
        norm += amp;
        amp *= persistence;
        freq *= 2.0;
    }
    sum / norm
}

/// One octave along a row: `emit(i, value_noise(xs[i] * freq, y * freq,
/// z * freq, seed))` for every `i`, in order.
///
/// `yi, zi, ty, tz` are the row's; the four corners at `xi` and the four
/// at `xi + 1` are kept while `xi` stays, slide over when it steps by
/// one, and are hashed afresh only on a larger jump.
#[inline]
fn octave_row(xs: &[f64], freq: f64, y: f64, z: f64, seed: u64, mut emit: impl FnMut(usize, f64)) {
    let (y, z) = (y * freq, z * freq);
    let yi = y.floor() as i64;
    let zi = z.floor() as i64;
    let ty = fade(y - yi as f64);
    let tz = fade(z - zi as f64);
    // The corners (dy, dz) = (0, 0), (1, 0), (0, 1), (1, 1) at one x.
    let column = |xi: i64| {
        [
            lattice(xi, yi, zi, seed),
            lattice(xi, yi + 1, zi, seed),
            lattice(xi, yi, zi + 1, seed),
            lattice(xi, yi + 1, zi + 1, seed),
        ]
    };
    let mut cell: Option<i64> = None;
    let (mut lo, mut hi) = ([0.0f64; 4], [0.0f64; 4]);
    for (i, &x) in xs.iter().enumerate() {
        let x = x * freq;
        let xi = x.floor() as i64;
        match cell {
            Some(c) if c == xi => {}
            Some(c) if c.wrapping_add(1) == xi => {
                lo = hi;
                hi = column(xi + 1);
            }
            _ => {
                lo = column(xi);
                hi = column(xi + 1);
            }
        }
        cell = Some(xi);
        let tx = fade(x - xi as f64);
        let x00 = lerp(lo[0], hi[0], tx);
        let x10 = lerp(lo[1], hi[1], tx);
        let x01 = lerp(lo[2], hi[2], tx);
        let x11 = lerp(lo[3], hi[3], tx);
        let y0 = lerp(x00, x10, ty);
        let y1 = lerp(x01, x11, ty);
        emit(i, lerp(y0, y1, tz));
    }
}

/// [`value_noise`] along a row: `out[i] = value_noise(xs[i], y, z, seed)`
/// (bit for bit; the kernel's `* 1.0` changes no value).
pub fn value_noise_row(xs: &[f64], y: f64, z: f64, seed: u64, out: &mut [f64]) {
    assert_eq!(xs.len(), out.len(), "row buffers differ in length");
    octave_row(xs, 1.0, y, z, seed, |i, v| out[i] = v);
}

/// [`fbm`] along a row: `out[i] = fbm(xs[i], y, z, seed, octaves,
/// persistence)` (bit for bit: octaves accumulate per point in `fbm`'s
/// order).
pub fn fbm_row(
    xs: &[f64],
    y: f64,
    z: f64,
    seed: u64,
    octaves: u32,
    persistence: f64,
    out: &mut [f64],
) {
    assert_eq!(xs.len(), out.len(), "row buffers differ in length");
    out.fill(0.0);
    let mut amp = 1.0;
    let mut freq = 1.0;
    let mut norm = 0.0;
    for o in 0..octaves {
        octave_row(xs, freq, y, z, seed.wrapping_add(o as u64), |i, v| {
            out[i] += amp * v;
        });
        norm += amp;
        amp *= persistence;
        freq *= 2.0;
    }
    for v in out.iter_mut() {
        *v /= norm;
    }
}

/// Uniform f64 in [0, 1) derived from an index (for jittered sampling).
pub fn uniform01(i: u64, seed: u64) -> f64 {
    (hash(i as i64, 0x5bd1, 0x27d4, seed) >> 11) as f64 / ((1u64 << 53) as f64)
}

/// Standard-normal deviate from two hashed uniforms (Box–Muller).
pub fn normal(i: u64, seed: u64) -> f64 {
    let u1 = uniform01(i, seed).max(1e-12);
    let u2 = uniform01(i, seed ^ 0xABCD_EF01_2345_6789);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        assert_eq!(
            value_noise(1.5, 2.5, 3.5, 42),
            value_noise(1.5, 2.5, 3.5, 42)
        );
        assert_ne!(
            value_noise(1.5, 2.5, 3.5, 42),
            value_noise(1.5, 2.5, 3.5, 43)
        );
    }

    #[test]
    fn bounded() {
        for i in 0..2000 {
            let t = i as f64 * 0.137;
            let v = value_noise(t, t * 0.7, t * 1.3, 7);
            assert!((-1.0..=1.0).contains(&v), "{v}");
            let f = fbm(t, t * 0.7, t * 1.3, 7, 5, 0.5);
            assert!((-1.2..=1.2).contains(&f), "{f}");
        }
    }

    #[test]
    fn continuous() {
        // Small coordinate change → small value change.
        let a = value_noise(3.0001, 4.0, 5.0, 1);
        let b = value_noise(3.0002, 4.0, 5.0, 1);
        assert!((a - b).abs() < 1e-2);
    }

    #[test]
    fn lattice_matches_at_integers() {
        // Noise at integer points equals the lattice value.
        let v = value_noise(2.0, 3.0, 4.0, 9);
        let l = lattice(2, 3, 4, 9);
        assert!((v - l).abs() < 1e-12);
    }

    #[test]
    fn normal_mean_var() {
        let n = 20_000;
        let vals: Vec<f64> = (0..n).map(|i| normal(i, 3)).collect();
        let mean = vals.iter().sum::<f64>() / n as f64;
        let var = vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }
}
