//! The vector form of the compressor's fused predict → quantize →
//! re-check kernel, and the only `unsafe` in the library crates.
//!
//! [`sweep`](crate::compressor::sweep) advances the rows of a block as
//! a wavefront — in iteration `t`, lane `j` handles `x = t − j` — so
//! that the loop body carries one dependency chain per row. Four scalar
//! lanes of that ≈ 95-cycle chain already fill the out-of-order window:
//! the scalar kernel is bound by the number of µops per point, not by
//! latency, and more scalar lanes only add µops (8 or 16 lanes measured
//! 10–35 % *slower*). What does help is fewer instructions per point:
//! here lane `j` of a block of [`ROWS`] rows is element `j mod 4` of a
//! `__m256d`, two vectors per iteration, and one instruction advances
//! four rows.
//!
//! Only the steady state of a block is vectorized — the iterations in
//! which every lane is inside its row. The ramp-up and ramp-down
//! iterations run through `sweep` itself, on the same [`Wave`], so the
//! scalar per-point body exists once. Every lane evaluates exactly the
//! expression of that body on the same operands: the stencil in its
//! `+x +y +z −xy −xz −yz +xyz` order, a true division by `2·eb`,
//! `round_within`'s truncate-and-fix-the-half in `f64`, a separate
//! multiply and add (AVX2 does not imply FMA, and nothing here is
//! contracted), `vcvtpd2ps`/`vcvtps2pd` as the `f32` storage round
//! trip, both `≤ eb` checks and the finite test as masks. Codes,
//! reconstructions and therefore the stream are bit-identical to the
//! scalar kernels' and to `compress_reference`.
//!
//! Whether a block runs here is decided by
//! [`compress_into`](crate::compress_into) alone, from [`Avx2::select`]
//! (CPU feature, element type, radius) and the block's shape; there is
//! no switch to set.

use crate::compressor::{Block, Counts, Steps};
use crate::config::MAX_RADIUS;
use crate::element::Element;

/// Rows a vector block advances together: two `__m256d` of four lanes.
/// (Four vectors spill the sixteen `ymm` registers and measured slower.)
pub(crate) const ROWS: usize = 8;

/// Proof that the vector kernel can run on this CPU and reproduces the
/// scalar kernel for this call; [`Avx2::select`] is the only
/// constructor.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Avx2(());

impl Avx2 {
    /// The token, when the CPU has AVX2, `T` is a type whose storage
    /// round trip the kernel has an instruction for (`f32`, `f64`), and
    /// `radius ≤ 2^30`, so that `q + radius` converts through `i32`.
    pub(crate) fn select<T: Element>(radius: i64) -> Option<Self> {
        #[cfg(target_arch = "x86_64")]
        if x86::has_round_trip::<T>()
            && radius <= i64::from(MAX_RADIUS)
            && std::arch::is_x86_feature_detected!("avx2")
        {
            return Some(Avx2(()));
        }
        let _ = radius;
        None
    }

    /// A whole block of [`ROWS`] rows with the order-`D` stencil
    /// (`D ≥ 2`): same contract and same results as
    /// `quantize_rows::<T, ROWS, D>`.
    pub(crate) fn quantize_rows<T: Element, const D: usize>(
        self,
        b: &mut Block<'_, T>,
        q: Steps,
        counts: &mut Counts<'_>,
    ) -> usize {
        #[cfg(target_arch = "x86_64")]
        {
            // SAFETY: the only `Avx2` values are the ones `select`
            // returned after `is_x86_feature_detected!("avx2")` held on
            // this CPU, which is all the callee's `target_feature`
            // requires.
            unsafe { x86::quantize_rows::<T, D>(b, q, counts) }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            let _ = (b, q, counts);
            unreachable!("select() issues no token on this architecture")
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::ROWS;
    use crate::compressor::{sweep, Block, Counts, Steps, Wave};
    use crate::element::Element;
    use std::any::TypeId;
    use std::arch::x86_64::*;

    fn is<T: 'static, U: 'static>() -> bool {
        TypeId::of::<T>() == TypeId::of::<U>()
    }

    pub(super) fn has_round_trip<T: Element>() -> bool {
        is::<T, f32>() || is::<T, f64>()
    }

    /// The constants of a block, broadcast once.
    struct Consts {
        zero: __m256d,
        half: __m256d,
        neg_half: __m256d,
        one: __m256d,
        sign: __m256d,
        inf: __m256d,
        eb: __m256d,
        twice_eb: __m256d,
        radius: __m256d,
        /// `radius − ½`: `|u|` below it rounds to inside `±radius`.
        edge: __m256d,
    }

    /// What [`point`] decides for four rows.
    struct Point {
        /// `q + radius`, or 0 (`UNPREDICTABLE`) for an escape.
        code: __m128i,
        /// The reconstruction the neighbors predict from.
        rv: __m256d,
        /// All-ones where the point is coded.
        ok: __m256d,
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    fn abs(k: &Consts, v: __m256d) -> __m256d {
        _mm256_andnot_pd(k.sign, v)
    }

    /// The body of [`sweep`] on four rows at once, operation for
    /// operation; the arguments are [`stencil`](crate::predictor::stencil)'s.
    #[inline]
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    fn point<T: Element, const D: usize>(
        k: &Consts,
        xv: __m256d,
        x: __m256d,
        y: __m256d,
        z: __m256d,
        xy: __m256d,
        xz: __m256d,
        yz: __m256d,
        xyz: __m256d,
    ) -> Point {
        let a = _mm256_add_pd(_mm256_add_pd(k.zero, x), y);
        let pred = if D == 3 {
            let a = _mm256_sub_pd(_mm256_add_pd(a, z), xy);
            _mm256_add_pd(_mm256_sub_pd(_mm256_sub_pd(a, xz), yz), xyz)
        } else {
            _mm256_sub_pd(a, xy)
        };
        let u = _mm256_div_pd(_mm256_sub_pd(xv, pred), k.twice_eb);
        // `round_within`: false for NaN and ±∞; inside the range the
        // truncation, the fraction and the half-step fix are exact.
        // (A `-0.0` truncation is normalized by adding `up`'s `+0.0`,
        // as `t as f64` is in the scalar body.)
        let in_range = _mm256_cmp_pd::<_CMP_LT_OQ>(abs(k, u), k.edge);
        let t = _mm256_round_pd::<{ _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC }>(u);
        let fr = _mm256_sub_pd(u, t);
        let up = _mm256_and_pd(_mm256_cmp_pd::<_CMP_GE_OQ>(fr, k.half), k.one);
        let down = _mm256_and_pd(_mm256_cmp_pd::<_CMP_LE_OQ>(fr, k.neg_half), k.one);
        let qf = _mm256_sub_pd(_mm256_add_pd(t, up), down);
        let r64 = _mm256_add_pd(pred, _mm256_mul_pd(qf, k.twice_eb));
        // Round through the storage type, as the decoder will.
        let rt = if is::<T, f32>() {
            _mm256_cvtps_pd(_mm256_cvtpd_ps(r64))
        } else {
            r64
        };
        let within = |r| _mm256_cmp_pd::<_CMP_LE_OQ>(abs(k, _mm256_sub_pd(xv, r)), k.eb);
        let ok = _mm256_and_pd(in_range, _mm256_and_pd(within(r64), within(rt)));
        let finite = _mm256_cmp_pd::<_CMP_LT_OQ>(abs(k, xv), k.inf);
        // An escape predicts from the value itself, or 0 when it is
        // not finite; its lanes of `qf` hold anything, so they are
        // masked to 0.0 before the (then total) conversion.
        let rv = _mm256_blendv_pd(_mm256_and_pd(finite, xv), rt, ok);
        let code = _mm256_cvttpd_epi32(_mm256_and_pd(ok, _mm256_add_pd(qf, k.radius)));
        Point { code, rv, ok }
    }

    /// `[first[0], v[0], v[1], v[2]]`: each lane's `y − 1` neighbor is
    /// what the lane before it held one iteration ago.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn shift_in(v: __m256d, first: __m256d) -> __m256d {
        _mm256_blend_pd::<0b0001>(_mm256_permute4x64_pd::<0b10_01_00_00>(v), first)
    }

    /// `v[3]` in lane 0 (the other lanes are not used).
    #[inline]
    #[target_feature(enable = "avx2")]
    fn last(v: __m256d) -> __m256d {
        _mm256_permute4x64_pd::<0b11>(v)
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    fn load(a: &[f64; ROWS]) -> [__m256d; 2] {
        [
            _mm256_set_pd(a[3], a[2], a[1], a[0]),
            _mm256_set_pd(a[7], a[6], a[5], a[4]),
        ]
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    fn lanes(v: __m256d) -> [f64; 4] {
        let (lo, hi) = (_mm256_castpd256_pd128(v), _mm256_extractf128_pd::<1>(v));
        [
            _mm_cvtsd_f64(lo),
            _mm_cvtsd_f64(_mm_unpackhi_pd(lo, lo)),
            _mm_cvtsd_f64(hi),
            _mm_cvtsd_f64(_mm_unpackhi_pd(hi, hi)),
        ]
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    fn store(v: [__m256d; 2]) -> [f64; ROWS] {
        let (lo, hi) = (lanes(v[0]), lanes(v[1]));
        std::array::from_fn(|j| if j < 4 { lo[j] } else { hi[j - 4] })
    }

    /// Element `s` of lanes `first..first + 4`, widened.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn gather<V: Element>(lanes: &[&[V]; ROWS], first: usize, s: usize) -> __m256d {
        _mm256_set_pd(
            lanes[first + 3][s].to_f64(),
            lanes[first + 2][s].to_f64(),
            lanes[first + 1][s].to_f64(),
            lanes[first][s].to_f64(),
        )
    }

    /// The part of each of a block's rows the steady state writes:
    /// iteration `s` of `m` touches `x = s + ROWS − 1 − j` of row `j`.
    fn skewed_mut<V>(block: &mut [V], nx: usize, m: usize) -> [&mut [V]; ROWS] {
        let mut rows = block.chunks_exact_mut(nx);
        std::array::from_fn(|j| {
            let row = rows.next().expect("a block holds ROWS rows");
            &mut row[ROWS - 1 - j..][..m]
        })
    }

    /// The iterations `ROWS − 1..nx` of a block's sweep, in which no
    /// lane is outside its row, continuing from and leaving its state
    /// in `w`. Requires `nx ≥ ROWS`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn steady_state<T: Element, const D: usize>(
        w: &mut Wave<ROWS>,
        b: &mut Block<'_, T>,
        q: Steps,
        counts: &mut Counts<'_>,
    ) -> usize {
        let nx = b.nx;
        let m = nx - (ROWS - 1);
        let skew = |j: usize| ROWS - 1 - j;
        let data: [&[T]; ROWS] = std::array::from_fn(|j| &b.data[j * nx + skew(j)..][..m]);
        let above = &b.above[skew(0)..][..m];
        // Lane j's `z − 1` neighbor row, and the row over lane 0's.
        let (zp0, rz): (&[f64], [&[f64]; ROWS]) = if D == 3 {
            (
                &b.zp[skew(0)..][..m],
                std::array::from_fn(|j| &b.zp[(j + 1) * b.zs + skew(j)..][..m]),
            )
        } else {
            (&[], [&[]; ROWS])
        };
        let codes = skewed_mut(&mut *b.codes, nx, m);
        let rows = skewed_mut(&mut *b.rows, nx, m);

        let k = Consts {
            zero: _mm256_setzero_pd(),
            half: _mm256_set1_pd(0.5),
            neg_half: _mm256_set1_pd(-0.5),
            one: _mm256_set1_pd(1.0),
            sign: _mm256_set1_pd(-0.0),
            inf: _mm256_set1_pd(f64::INFINITY),
            eb: _mm256_set1_pd(q.eb),
            twice_eb: _mm256_set1_pd(q.twice_eb),
            radius: _mm256_set1_pd(q.radius as f64),
            edge: _mm256_set1_pd(q.radius as f64 - 0.5),
        };
        let [mut cx0, mut cx1] = load(&w.cx);
        let [mut pyx0, mut pyx1] = load(&w.pyx);
        let [mut pzx0, mut pzx1] = load(&w.pzx);
        let [mut pzyx0, mut pzyx1] = load(&w.pzyx);
        let mut coded = 0;
        for s in 0..m {
            let ry0 = shift_in(cx0, _mm256_set1_pd(above[s]));
            let ry1 = shift_in(cx1, last(cx0));
            // The corner `z − 1, y − 1` shifts the same way: it is the
            // lane before's `z − 1` neighbor of one iteration ago.
            let (rz0, rz1, rzy0, rzy1) = if D == 3 {
                (
                    gather(&rz, 0, s),
                    gather(&rz, 4, s),
                    shift_in(pzx0, _mm256_set1_pd(zp0[s])),
                    shift_in(pzx1, last(pzx0)),
                )
            } else {
                (k.zero, k.zero, k.zero, k.zero)
            };
            let p0 = point::<T, D>(
                &k,
                gather(&data, 0, s),
                cx0,
                ry0,
                rz0,
                pyx0,
                pzx0,
                rzy0,
                pzyx0,
            );
            let p1 = point::<T, D>(
                &k,
                gather(&data, 4, s),
                cx1,
                ry1,
                rz1,
                pyx1,
                pzx1,
                rzy1,
                pzyx1,
            );
            // One rolled loop over the two halves, on purpose: LLVM then
            // takes the lanes out through a stack slot, which measured
            // 20 % faster than the unrolled form's shuffle per lane.
            for (h, p) in [&p0, &p1].into_iter().enumerate() {
                let code = [
                    _mm_extract_epi32::<0>(p.code),
                    _mm_extract_epi32::<1>(p.code),
                    _mm_extract_epi32::<2>(p.code),
                    _mm_extract_epi32::<3>(p.code),
                ];
                let rv = lanes(p.rv);
                for j in 0..4 {
                    codes[4 * h + j][s] = code[j] as u32;
                    rows[4 * h + j][s] = rv[j];
                    counts.add(code[j] as u32);
                }
                coded += _mm256_movemask_pd(p.ok).count_ones() as usize;
            }
            (cx0, pyx0, pzx0, pzyx0) = (p0.rv, ry0, rz0, rzy0);
            (cx1, pyx1, pzx1, pzyx1) = (p1.rv, ry1, rz1, rzy1);
        }
        w.cx = store([cx0, cx1]);
        w.pyx = store([pyx0, pyx1]);
        w.pzx = store([pzx0, pzx1]);
        w.pzyx = store([pzyx0, pzyx1]);
        ROWS * m - coded
    }

    /// See [`Avx2::quantize_rows`](super::Avx2::quantize_rows).
    #[target_feature(enable = "avx2")]
    pub(super) fn quantize_rows<T: Element, const D: usize>(
        b: &mut Block<'_, T>,
        q: Steps,
        counts: &mut Counts<'_>,
    ) -> usize {
        let nx = b.nx;
        // Rows shorter than the lane count never have every lane
        // inside: the whole block is ramp.
        let steady = if nx >= ROWS { ROWS - 1..nx } else { 0..0 };
        let mut w = Wave::new();
        let mut escapes = sweep::<T, ROWS, D>(0..steady.start, &mut w, b, q, counts);
        if !steady.is_empty() {
            escapes += steady_state::<T, D>(&mut w, b, q, counts);
        }
        escapes + sweep::<T, ROWS, D>(steady.end..nx + ROWS - 1, &mut w, b, q, counts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compressor::{compress_into, compress_into_scalar, compress_reference, Scratch};
    use crate::config::{Config, Dims, ErrorBound};

    /// True when this host runs the vector kernel (printed, so that a CI
    /// runner that only tests the scalar arm shows in its log).
    fn detected() -> bool {
        Avx2::select::<f32>(2).is_some()
    }

    /// `n` values in one of three textures — 0 a smooth field with
    /// noise, 1 a ramp just under `f32::MAX` (so a reconstruction can
    /// overflow the `f32` round trip), 2 a walk over multiples of ½
    /// (under `Abs(0.5)` residuals are exact rounding ties) — with every
    /// 11th value replaced by, in turn, NaN, ±Inf, `-0.0`, a subnormal
    /// of `T`, `±1e30`.
    fn field<T: Element>(n: usize, texture: u8) -> Vec<T> {
        let subnormal = T::from_f64(if T::BYTES == 4 { 3e-45 } else { 5e-324 });
        let mut rng = 0x9e37_79b9_7f4a_7c15u64 ^ n as u64;
        let mut walk = 0.0f64;
        (0..n)
            .map(|i| {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                let noise = (rng % 1000) as f64 * 1e-3;
                walk += ((rng >> 12) % 9) as f64 * 0.5 - 2.0;
                if i % 11 == 3 {
                    return match (i / 11) % 7 {
                        0 => T::from_f64(f64::NAN),
                        1 => T::from_f64(f64::INFINITY),
                        2 => T::from_f64(f64::NEG_INFINITY),
                        3 => T::from_f64(-0.0),
                        4 => subnormal,
                        5 => T::from_f64(1e30),
                        _ => T::from_f64(-1e30),
                    };
                }
                T::from_f64(match texture {
                    0 => (i as f64 * 0.37).sin() + 0.05 * noise,
                    2 => walk,
                    _ => 3.4e38 - 1e35 * (i % 97) as f64 - 1e33 * noise,
                })
            })
            .collect()
    }

    /// Vector arm (where the host has one), scalar arm and the
    /// reference, byte for byte; returns the cases compared.
    fn pin_both_arms<T: Element>(scratch: &mut Scratch) -> usize {
        let mut cases = 0;
        let (mut vector, mut scalar) = (Vec::new(), Vec::new());
        for ny in [1, 7, 8, 9, 15, 16, 33] {
            for nx in [1, 3, 7, 8, 96] {
                // 2-D, and 3-D whose first plane is order 2.
                for dims in [Dims::from_slice(&[ny, nx]).unwrap(), Dims::d3(3, ny, nx)] {
                    for (texture, bound) in [
                        (0, ErrorBound::Abs(1e-2)),
                        (0, ErrorBound::Rel(1e-5)),
                        (1, ErrorBound::Abs(1e33)),
                        (2, ErrorBound::Abs(0.5)),
                    ] {
                        let data = field::<T>(dims.len(), texture);
                        // Dense escapes, and the default codebook.
                        for radius in [16, 32768] {
                            let cfg = Config {
                                error_bound: bound,
                                radius,
                                lossless: true,
                            };
                            let what = format!("{dims:?} {bound:?} radius {radius}");
                            let want = compress_reference(&data, &dims, &cfg).expect(&what);
                            let vs = compress_into(&data, &dims, &cfg, scratch, &mut vector);
                            let ss = compress_into_scalar(&data, &dims, &cfg, scratch, &mut scalar);
                            assert_eq!(vs, ss, "{what}");
                            assert!(vector == want, "selected arm ≠ reference: {what}");
                            assert!(scalar == want, "scalar arm ≠ reference: {what}");
                            cases += 1;
                        }
                    }
                }
            }
        }
        cases
    }

    #[test]
    fn vector_arm_equals_scalar_arm_equals_reference() {
        // On a host without AVX2 the first arm is the scalar one too.
        println!("avx2 vector kernel selected: {}", detected());
        let mut scratch = Scratch::new();
        let cases = pin_both_arms::<f32>(&mut scratch) + pin_both_arms::<f64>(&mut scratch);
        assert_eq!(cases, 2 * 7 * 5 * 2 * 4 * 2);
    }

    #[test]
    fn selection_needs_a_type_with_a_round_trip_and_a_radius_that_fits_i32() {
        let max = i64::from(MAX_RADIUS);
        assert!(Avx2::select::<f32>(max + 1).is_none());
        assert!(Avx2::select::<f64>(max + 1).is_none());
        assert_eq!(Avx2::select::<f32>(max).is_some(), detected());
        assert_eq!(Avx2::select::<f64>(2).is_some(), detected());
    }
}
