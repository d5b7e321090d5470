//! Compression configuration: dimensionality, error bounds, codebook size.

use crate::error::{Result, SzError};

/// Grid dimensions of the array being compressed.
///
/// szlite understands 1-D, 2-D and 3-D arrays laid out in row-major
/// (C) order; the *last* dimension is the fastest varying, matching the
/// conventions of Nyx/VPIC field dumps.
///
/// Held inline (unused trailing slots are zero), so parsing a stream
/// header allocates nothing.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Dims {
    ext: [usize; 3],
    nd: usize,
}

impl std::fmt::Debug for Dims {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Dims").field(&self.extents()).finish()
    }
}

impl Dims {
    /// A 1-D array of `n` points.
    pub fn d1(n: usize) -> Self {
        Dims {
            ext: [n, 0, 0],
            nd: 1,
        }
    }

    /// A 3-D array of `nz` planes, `ny` rows, `nx` points.
    pub fn d3(nz: usize, ny: usize, nx: usize) -> Self {
        Dims {
            ext: [nz, ny, nx],
            nd: 3,
        }
    }

    /// Build from a slice (1..=3 entries, all non-zero).
    pub fn from_slice(dims: &[usize]) -> Result<Self> {
        if dims.is_empty() || dims.len() > 3 {
            return Err(SzError::Corrupt("dims must have 1..=3 entries"));
        }
        if dims.contains(&0) {
            return Err(SzError::Corrupt("zero dimension"));
        }
        let mut ext = [0; 3];
        ext[..dims.len()].copy_from_slice(dims);
        Ok(Dims {
            ext,
            nd: dims.len(),
        })
    }

    /// Number of dimensions (1..=3).
    pub fn ndims(&self) -> usize {
        self.nd
    }

    /// Total number of points.
    pub fn len(&self) -> usize {
        self.extents().iter().product()
    }

    /// True when the array holds no points (never constructible via the
    /// public constructors, but kept for API completeness).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Raw dimension extents, slowest-varying first.
    pub fn extents(&self) -> &[usize] {
        &self.ext[..self.nd]
    }
}

/// User-facing error-bound specification.
///
/// `Abs` bounds the point-wise absolute error; `Rel` bounds the error
/// relative to the value range of the input (SZ's "value-range relative"
/// mode), i.e. the effective absolute bound is `r * (max - min)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ErrorBound {
    /// Point-wise absolute error bound.
    Abs(f64),
    /// Value-range-relative error bound.
    Rel(f64),
}

impl ErrorBound {
    /// Resolve to an absolute bound for the given data range.
    ///
    /// A degenerate (constant) array under `Rel` resolves to a tiny
    /// positive bound so that compression still succeeds.
    pub fn resolve(&self, min: f64, max: f64) -> Result<f64> {
        let eb = match *self {
            ErrorBound::Abs(e) => e,
            ErrorBound::Rel(r) => {
                let range = max - min;
                if range > 0.0 {
                    r * range
                } else {
                    r * min.abs().max(1.0)
                }
            }
        };
        if !(eb.is_finite() && eb > 0.0) {
            return Err(SzError::InvalidErrorBound);
        }
        Ok(eb)
    }

    /// Resolve against a data slice — the rule the compressor itself
    /// applies, shared so read-back verification checks the *same*
    /// bound the stream was produced with. Absolute bounds pass
    /// through without touching the data; relative bounds scan the
    /// finite min/max, with all-non-finite input falling back to the
    /// constant-array rule of [`ErrorBound::resolve`].
    pub fn resolve_for(&self, data: &[f32]) -> Result<f64> {
        match self {
            ErrorBound::Abs(_) => self.resolve(0.0, 0.0),
            ErrorBound::Rel(_) => {
                let (min, max) = finite_range(data, 1);
                self.resolve(min, max)
            }
        }
    }
}

/// Finite min/max over every `stride`-th value; `(0, 0)` when none is
/// finite (all-NaN/Inf input is still valid: everything becomes a
/// literal, under the constant-array rule of [`ErrorBound::resolve`]).
///
/// The scan touches every cache line of the partition; eight
/// accumulators keep a serial `min`/`max` chain from making it
/// latency-bound on top, and they compare in `f32` — widening to `f64`
/// is monotone, so only the eight survivors are widened. The comparisons skip NaN by themselves; skipping ±∞ costs
/// two more per value, which made the loop several times slower, so
/// that is left to a second scan when the first one's extremes show an
/// infinity took part. (Which of `±0.0` wins a tie depends on the
/// accumulator; the bound resolved from the range does not.)
pub(crate) fn finite_range(data: &[f32], stride: usize) -> (f64, f64) {
    const ACC: usize = 8;
    let (below, above) = (f32::NEG_INFINITY, f32::INFINITY);
    let scan = |skip_infinite: bool| {
        let mut min = [above; ACC];
        let mut max = [below; ACC];
        let mut fold = |k: usize, v: f32| {
            let (lo, hi) = if skip_infinite {
                (
                    if v > below { v } else { above },
                    if v < above { v } else { below },
                )
            } else {
                (v, v)
            };
            min[k] = if lo < min[k] { lo } else { min[k] };
            max[k] = if hi > max[k] { hi } else { max[k] };
        };
        let mut groups = data.chunks_exact(ACC * stride);
        for group in &mut groups {
            for k in 0..ACC {
                fold(k, group[k * stride]);
            }
        }
        for (k, &v) in groups.remainder().iter().step_by(stride).enumerate() {
            fold(k, v);
        }
        (
            min.iter().fold(f64::INFINITY, |m, &v| m.min(f64::from(v))),
            max.iter()
                .fold(f64::NEG_INFINITY, |m, &v| m.max(f64::from(v))),
        )
    };
    let (mut min, mut max) = scan(false);
    if min == f64::NEG_INFINITY || max == f64::INFINITY {
        (min, max) = scan(true);
    }
    if min.is_finite() {
        (min, max)
    } else {
        (0.0, 0.0)
    }
}

/// Half-size of the quantization codebook, SZ's default: codes `q` in
/// `±(RADIUS−1)` are stored as `q + RADIUS`, anything outside as a raw
/// literal. The bounded codebook caps the Huffman tree, the source of
/// the throughput floor the paper models (Eq. 1, Fig. 6). A stream
/// header naming another radius is [`SzError::Corrupt`]`("header radius")`.
pub const RADIUS: u32 = 32768;

/// Full compressor configuration: the error bound. The codebook is
/// [`RADIUS`] and the trailing LZSS stage always runs.
#[derive(Debug, Clone, PartialEq)]
pub struct Config {
    /// Error bound specification.
    pub error_bound: ErrorBound,
}

impl Default for Config {
    fn default() -> Self {
        Config::rel(1e-3)
    }
}

impl Config {
    /// Configuration with a point-wise absolute error bound.
    pub fn abs(eb: f64) -> Self {
        Config {
            error_bound: ErrorBound::Abs(eb),
        }
    }

    /// Configuration with a value-range-relative error bound.
    pub fn rel(eb: f64) -> Self {
        Config {
            error_bound: ErrorBound::Rel(eb),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dims_product() {
        assert_eq!(Dims::d3(4, 5, 6).len(), 120);
        assert_eq!(Dims::from_slice(&[7, 3]).unwrap().len(), 21);
        assert_eq!(Dims::d1(9).len(), 9);
    }

    #[test]
    fn dims_rejects_zero() {
        assert!(Dims::from_slice(&[0, 3]).is_err());
        assert!(Dims::from_slice(&[]).is_err());
        assert!(Dims::from_slice(&[1, 2, 3, 4]).is_err());
    }

    #[test]
    fn rel_bound_resolves_against_range() {
        let eb = ErrorBound::Rel(1e-2).resolve(-1.0, 3.0).unwrap();
        assert!((eb - 0.04).abs() < 1e-12);
    }

    #[test]
    fn rel_bound_constant_data() {
        let eb = ErrorBound::Rel(1e-2).resolve(5.0, 5.0).unwrap();
        assert!(eb > 0.0);
    }

    #[test]
    fn invalid_bounds_rejected() {
        assert!(ErrorBound::Abs(0.0).resolve(0.0, 1.0).is_err());
        assert!(ErrorBound::Abs(-1.0).resolve(0.0, 1.0).is_err());
        assert!(ErrorBound::Abs(f64::NAN).resolve(0.0, 1.0).is_err());
    }

    /// The bound `resolve_for` resolved from a one-accumulator serial
    /// fold, which is what the eight-accumulator scan replaced.
    fn serial_bound(bound: ErrorBound, data: &[f32]) -> Result<f64> {
        let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
        for v in data.iter().map(|&v| f64::from(v)).filter(|v| v.is_finite()) {
            min = min.min(v);
            max = max.max(v);
        }
        if !min.is_finite() {
            (min, max) = (0.0, 0.0);
        }
        bound.resolve(min, max)
    }

    #[test]
    fn resolved_bound_equals_the_serial_fold_bit_for_bit() {
        let (nan, inf) = (f64::NAN, f64::INFINITY);
        let wave = |n: usize| (0..n).map(|i| (i as f64 * 0.7).sin() * 40.0 - 3.0);
        let mut inputs: Vec<Vec<f64>> = vec![
            // Shorter than the accumulator count, and around it.
            vec![2.5],
            vec![-1.0, 4.0, 0.5],
            wave(7).collect(),
            wave(8).collect(),
            wave(9).collect(),
            wave(1000).collect(),
            // Nothing finite; nothing but zeros of both signs.
            vec![nan; 20],
            vec![inf, -inf, nan, inf],
            vec![-0.0, 0.0, -0.0, 0.0, 0.0, -0.0, 0.0, 0.0, -0.0],
            vec![0.0, -0.0],
            // Constant, and constant but for non-finite values.
            vec![7.0; 33],
            vec![7.0, nan, 7.0, inf, 7.0, -inf, 7.0, 7.0, 7.0, nan],
        ];
        // Each non-finite value in every accumulator slot of a wave,
        // alone and together, with the extremes next to them.
        for slot in 0..8 {
            for planted in [&[nan][..], &[inf], &[-inf], &[nan, inf, -inf]] {
                let mut v: Vec<f64> = wave(100).collect();
                for (i, &p) in planted.iter().enumerate() {
                    v[16 + slot + 8 * i] = p;
                }
                v[17 + slot] = -1e3;
                v[40 + slot] = 1e3;
                inputs.push(v);
            }
        }
        for input in &inputs {
            let data: Vec<f32> = input.iter().map(|&v| v as f32).collect();
            for bound in [ErrorBound::Rel(1e-3), ErrorBound::Rel(0.5)] {
                let got = bound.resolve_for(&data).map(f64::to_bits);
                let want = serial_bound(bound, &data).map(f64::to_bits);
                assert_eq!(got, want, "{bound:?} over {input:?}");
            }
        }
    }

    #[test]
    fn strided_scan_sees_exactly_the_visited_values() {
        // Extremes and infinities on and off the stride.
        let mut data: Vec<f32> = (0..1000).map(|i| (i % 17) as f32).collect();
        data[300] = -50.0; // visited by stride 3
        data[301] = -99.0; // not visited
        data[900] = f32::INFINITY; // visited: forces the second scan
        data[902] = 1e9; // not visited
        assert_eq!(finite_range(&data, 3), (-50.0, 16.0));
        assert_eq!(finite_range(&data, 1), (-99.0, 1e9));
        assert_eq!(finite_range(&[f32::NAN, f32::NEG_INFINITY], 1), (0.0, 0.0));
    }
}
