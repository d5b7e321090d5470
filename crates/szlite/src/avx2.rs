//! The vector forms of the compressor's fused predict → quantize →
//! re-check kernel and of the decoder's replay — the two kernels of
//! this module, and still the only `unsafe` in the library crates.
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
//! Every iteration of a block runs here. In the steady state every lane
//! is inside its row; in the 7 ramp-up and 7 ramp-down iterations the
//! lanes outside their row are masked — they keep their [`Wave`] state,
//! store into a sink, count nothing and load from inside the block.
//! And the compressor hands over all the 8-row blocks of a plane at
//! once, so that one wavefront runs through them: a lane that finishes
//! its row of one block starts its row of the next in the following
//! iteration (a *transition*, every lane inside a row), and a plane of
//! `nb` blocks takes `nb·nx + 7` iterations instead of `nb·(nx + 7)`,
//! with ramps only at its two ends. Rows shorter than the lane count
//! cannot be chained that way — lane 0 would need its row above before
//! lane 7 had produced it — and run block by block, all ramp. On the
//! 32³ tiles of `rtm_chunked` (seed 1, one thread of a 2-core AVX2
//! Xeon) this took `sz.quantize` from 6.7 to 5.9 ns per point:
//! the scalar ramps it replaces cost ≈ 1.5× a vector steady iteration,
//! and a vector ramp alone, on the same latency chain as the steady
//! state, saved little; dropping `nb − 1` ramp pairs per plane is what
//! pays. The scalar [`sweep`](crate::compressor::sweep) is the other
//! arm and the oracle of all of it.
//!
//! Every lane evaluates exactly the expression of the scalar body on
//! the same operands: the stencil in its
//! `+x +y +z −xy −xz −yz +xyz` order, a true division by `2·eb`,
//! `round_within`'s truncate-and-fix-the-half in `f64`, a separate
//! multiply and add (AVX2 does not imply FMA, and nothing here is
//! contracted), `vcvtpd2ps`/`vcvtps2pd` as the `f32` storage round
//! trip, both `≤ eb` checks and the finite test as masks. Codes,
//! reconstructions and therefore the stream are bit-identical to the
//! scalar kernels' and to `compress_reference`.
//!
//! The replay ([`Avx2::decode_plane`]) mirrors that plane wavefront for
//! planes of rows of at least [`ROWS`] whose whole blocks hold plain
//! codes only: the stencil in the same order (`0.0 + x` first), then
//! `Quantizer::reconstruct` — `code − radius`, exact in `f64`, times
//! `2·eb` and added as a separate multiply and add — and the `f32`
//! round trip. Its reconstructions live in the decoder's
//! wavefront-major layout ([`Skewed`](crate::decompressor::Skewed)),
//! lane `j` of iteration `t` at slot `8·t + j`: an iteration loads the
//! `z − 1` plane's 8 lanes and stores its own with two vector moves
//! each, and reads lane 0's `y − 1` neighbor and its corner as one
//! scalar each. Codes are read and values written in row-major order in
//! place; masks appear only at block heads and at the plane's two ends.
//!
//! Whether a block runs here is decided by
//! [`compress_into`](crate::compress_into) and by the decoder's block
//! loop alone, from [`Avx2::select`] (CPU feature, element type,
//! radius), the block's shape and, when decoding, its codes; there is
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
    /// `radius ≤ 2^30`, so that `q + radius` converts through `i32`,
    /// and so does a code below `2·radius` on the way back.
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

    /// Consecutive whole blocks of [`ROWS`] rows of one plane with the
    /// order-`D` stencil (`D ≥ 2`): same contract and same results as
    /// `quantize_rows::<T, ROWS, D>` on each block in turn.
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

    /// The `blocks` whole blocks of [`ROWS`] rows of `nx ≥ ROWS` at the
    /// head of a plane with the order-`D` stencil (`D ≥ 2`), every code
    /// in `1..2·radius`, as one wavefront in the [`Skewed`] layout: the
    /// values of `decode_rows::<T, 1, D>` on each row in turn. `zp`
    /// holds the `z − 1` plane's reconstructions (read for `D = 3`).
    ///
    /// [`Skewed`]: crate::decompressor::Skewed
    pub(crate) fn decode_plane<T: Element, const D: usize>(
        self,
        zp: &[f64],
        p: Plane<'_, T>,
        q: Steps,
    ) {
        #[cfg(target_arch = "x86_64")]
        {
            // SAFETY: the only `Avx2` values are the ones `select`
            // returned after `is_x86_feature_detected!("avx2")` held on
            // this CPU, which is all the callee's `target_feature`
            // requires.
            unsafe { x86::decode_plane::<T, D>(zp, p, q) }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            let _ = (zp, p, q);
            unreachable!("select() issues no token on this architecture")
        }
    }
}

/// A plane [`Avx2::decode_plane`] decodes: the codes in and the values
/// out of its whole blocks, in row-major order, and its reconstructions
/// in the layout of [`Skewed`](crate::decompressor::Skewed) — slot
/// `8·(nx + t) + j` is lane `j` of iteration `t`, for the `nx`
/// iterations before the first, all zero (the rows above the plane),
/// and the plane's `blocks·nx + 7`.
pub(crate) struct Plane<'a, T> {
    pub(crate) codes: &'a [u32],
    pub(crate) rows: &'a mut [f64],
    pub(crate) out: &'a mut [T],
    pub(crate) nx: usize,
    pub(crate) blocks: usize,
}

/// Planes [`Avx2::decode_plane`] decoded, and ramp iterations the
/// compressor's vector arm ran, in this test process: what tells a run
/// of the arm tests on an AVX2 host from a vacuous one.
#[cfg(test)]
pub(crate) static PLANES: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
#[cfg(test)]
pub(crate) static RAMPS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{Plane, ROWS};
    use crate::compressor::{Block, Counts, Steps, Wave};
    use crate::element::Element;
    use std::any::TypeId;
    use std::arch::x86_64::*;
    use std::ops::Range;

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

    impl Consts {
        #[inline]
        #[target_feature(enable = "avx2")]
        fn new(q: Steps) -> Self {
            Consts {
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
            }
        }
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

    /// [`stencil`](crate::predictor::stencil) of order `D ≥ 2` on four
    /// rows, in its order and with its arguments.
    #[inline]
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    fn predict<const D: usize>(
        k: &Consts,
        x: __m256d,
        y: __m256d,
        z: __m256d,
        xy: __m256d,
        xz: __m256d,
        yz: __m256d,
        xyz: __m256d,
    ) -> __m256d {
        let a = _mm256_add_pd(_mm256_add_pd(k.zero, x), y);
        if D == 3 {
            let a = _mm256_sub_pd(_mm256_add_pd(a, z), xy);
            _mm256_add_pd(_mm256_sub_pd(_mm256_sub_pd(a, xz), yz), xyz)
        } else {
            _mm256_sub_pd(a, xy)
        }
    }

    /// `T::from_f64(r).to_f64()` on four lanes: `vcvtpd2ps`/`vcvtps2pd`
    /// for `f32`, nothing for `f64`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn round_trip<T: Element>(r: __m256d) -> __m256d {
        if is::<T, f32>() {
            _mm256_cvtps_pd(_mm256_cvtpd_ps(r))
        } else {
            r
        }
    }

    /// The body of [`sweep`](crate::compressor::sweep) on four rows at
    /// once, operation for operation; the arguments are [`predict`]'s.
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
        let pred = predict::<D>(k, x, y, z, xy, xz, yz, xyz);
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
        let rt = round_trip::<T>(r64);
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

    /// The body of the decoder's `replay` on four rows of plain codes at
    /// once, operation for operation: `Quantizer::reconstruct` (the code
    /// minus the radius is exact in `f64`), then the storage round trip.
    /// Returns the reconstructions.
    #[inline]
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    fn restore<T: Element, const D: usize>(
        k: &Consts,
        code: __m256d,
        x: __m256d,
        y: __m256d,
        z: __m256d,
        xy: __m256d,
        xz: __m256d,
        yz: __m256d,
        xyz: __m256d,
    ) -> __m256d {
        let pred = predict::<D>(k, x, y, z, xy, xz, yz, xyz);
        let q = _mm256_sub_pd(code, k.radius);
        round_trip::<T>(_mm256_add_pd(pred, _mm256_mul_pd(q, k.twice_eb)))
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

    /// The part of each of a block's rows that iterations `ts` (all
    /// lanes inside their rows) write: iteration `ts.start + s` touches
    /// `x = ts.start + s − j` of row `j`.
    fn skewed_mut<V>(block: &mut [V], nx: usize, ts: Range<usize>) -> [&mut [V]; ROWS] {
        let mut rows = block.chunks_exact_mut(nx);
        std::array::from_fn(|j| {
            let row = rows.next().expect("a block holds ROWS rows");
            &mut row[ts.start - j..][..ts.len()]
        })
    }

    /// Iterations `ts` (within `ROWS − 1..nx`) of a block's sweep, in
    /// which no lane is outside its row, continuing from and leaving
    /// its state in `w`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn steady_state<T: Element, const D: usize>(
        ts: Range<usize>,
        w: &mut Wave<ROWS>,
        b: &mut Block<'_, T>,
        q: Steps,
        counts: &mut Counts<'_>,
    ) -> usize {
        let nx = b.nx;
        let m = ts.len();
        let skew = |j: usize| ts.start - j;
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
        let codes = skewed_mut(&mut *b.codes, nx, ts.clone());
        let rows = skewed_mut(&mut *b.rows, nx, ts);

        let k = Consts::new(q);
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

    /// Iterations `ts` of a block's sweep in which some lane is outside
    /// its row (`x = t − j` before its start or past its end): a ramp,
    /// continuing from and leaving the state in `w`. Every lane runs
    /// [`point`]; a lane outside its row is masked. It keeps its state
    /// (the zeros left of the grid until its row begins), counts
    /// nothing and stores into a sink, and it loads what lies at
    /// `j·nx + t − j` — inside the block for every `t < nx + ROWS − 1`
    /// and `j < ROWS`, in a neighbor's row when `x` is outside its own.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn ramp<T: Element, const D: usize>(
        ts: Range<usize>,
        w: &mut Wave<ROWS>,
        b: &mut Block<'_, T>,
        q: Steps,
        counts: &mut Counts<'_>,
    ) -> usize {
        let nx = b.nx;
        // Lane j's point in iteration t is `at[j] + t` of the block, and
        // (order 3) its `z − 1` neighbor `zat[j] + t` of `zp`.
        let at: [usize; ROWS] = std::array::from_fn(|j| j * (nx - 1));
        let zat: [usize; ROWS] =
            std::array::from_fn(|j| if D == 3 { (j + 1) * b.zs - j } else { 0 });
        let lane = lane_numbers();
        let (mut code_sink, mut row_sink) = (0, 0.0);

        let k = Consts::new(q);
        let [mut cx0, mut cx1] = load(&w.cx);
        let [mut pyx0, mut pyx1] = load(&w.pyx);
        let [mut pzx0, mut pzx1] = load(&w.pzx);
        let [mut pzyx0, mut pzyx1] = load(&w.pzyx);
        let mut escapes = 0;
        #[cfg(test)]
        super::RAMPS.fetch_add(ts.len(), std::sync::atomic::Ordering::Relaxed);
        for t in ts {
            // Lane j is inside its row when `t − nx < j ≤ t`.
            let (after, before) = (
                _mm256_set1_epi64x(t as i64),
                _mm256_set1_epi64x(t as i64 - nx as i64),
            );
            let [m0, m1] = lane.map(|j| {
                _mm256_castsi256_pd(_mm256_andnot_si256(
                    _mm256_cmpgt_epi64(j, after),
                    _mm256_cmpgt_epi64(j, before),
                ))
            });
            let live = (_mm256_movemask_pd(m0) | _mm256_movemask_pd(m1) << 4) as u32;
            let [xv0, xv1] = load(&std::array::from_fn(|j| b.data[at[j] + t].to_f64()));
            let ry0 = shift_in(cx0, _mm256_set1_pd(b.above[t.min(nx - 1)]));
            let ry1 = shift_in(cx1, last(cx0));
            let (rz0, rz1, rzy0, rzy1) = if D == 3 {
                let [rz0, rz1] = load(&std::array::from_fn(|j| b.zp[zat[j] + t]));
                (
                    rz0,
                    rz1,
                    shift_in(pzx0, _mm256_set1_pd(b.zp[t])),
                    shift_in(pzx1, last(pzx0)),
                )
            } else {
                (k.zero, k.zero, k.zero, k.zero)
            };
            let p0 = point::<T, D>(&k, xv0, cx0, ry0, rz0, pyx0, pzx0, rzy0, pzyx0);
            let p1 = point::<T, D>(&k, xv1, cx1, ry1, rz1, pyx1, pzx1, rzy1, pzyx1);
            let code = codes([p0.code, p1.code]);
            let rv = store([p0.rv, p1.rv]);
            for j in 0..ROWS {
                let on = live >> j & 1 != 0;
                let i = at[j] + t;
                *(if on { &mut b.codes[i] } else { &mut code_sink }) = code[j];
                *(if on { &mut b.rows[i] } else { &mut row_sink }) = rv[j];
                counts.add_if(code[j], on);
            }
            let ok = (_mm256_movemask_pd(p0.ok) | _mm256_movemask_pd(p1.ok) << 4) as u32;
            escapes += (live & !ok).count_ones() as usize;
            cx0 = _mm256_blendv_pd(cx0, p0.rv, m0);
            cx1 = _mm256_blendv_pd(cx1, p1.rv, m1);
            pyx0 = _mm256_blendv_pd(pyx0, ry0, m0);
            pyx1 = _mm256_blendv_pd(pyx1, ry1, m1);
            pzx0 = _mm256_blendv_pd(pzx0, rz0, m0);
            pzx1 = _mm256_blendv_pd(pzx1, rz1, m1);
            pzyx0 = _mm256_blendv_pd(pzyx0, rzy0, m0);
            pzyx1 = _mm256_blendv_pd(pzyx1, rzy1, m1);
        }
        w.cx = store([cx0, cx1]);
        w.pyx = store([pyx0, pyx1]);
        w.pzx = store([pzx0, pzx1]);
        w.pzyx = store([pzyx0, pzyx1]);
        escapes
    }

    /// Each lane's number `j`, as a 64-bit integer.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn lane_numbers() -> [__m256i; 2] {
        [_mm256_set_epi64x(3, 2, 1, 0), _mm256_set_epi64x(7, 6, 5, 4)]
    }

    /// The codes of a block's eight lanes.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn codes(v: [__m128i; 2]) -> [u32; ROWS] {
        let code = |c: __m128i| {
            [
                _mm_extract_epi32::<0>(c) as u32,
                _mm_extract_epi32::<1>(c) as u32,
                _mm_extract_epi32::<2>(c) as u32,
                _mm_extract_epi32::<3>(c) as u32,
            ]
        };
        let (lo, hi) = (code(v[0]), code(v[1]));
        std::array::from_fn(|j| if j < 4 { lo[j] } else { hi[j - 4] })
    }

    /// The `ROWS` iterations in which the lanes pass from one block to
    /// the next, on the view `b` of the two blocks' rows: in iteration
    /// `s`, lane `j ≤ s` is in the second block at `x = s − j` — starting
    /// its row, from zero state, when `j = s` — and lane `j > s` still
    /// in the first at `x = nx + s − j`. Requires `nx ≥ ROWS`, so that
    /// lane 0's row above — the first block's last — is done where lane
    /// 0 reads it. No lane is outside a row.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn transition<T: Element, const D: usize>(
        w: &mut Wave<ROWS>,
        b: &mut Block<'_, T>,
        q: Steps,
        counts: &mut Counts<'_>,
    ) -> usize {
        let nx = b.nx;
        debug_assert!(nx >= ROWS && b.codes.len() == 2 * ROWS * nx);
        let lane = lane_numbers();

        let k = Consts::new(q);
        let [mut cx0, mut cx1] = load(&w.cx);
        let [mut pyx0, mut pyx1] = load(&w.pyx);
        let [mut pzx0, mut pzx1] = load(&w.pzx);
        let [mut pzyx0, mut pzyx1] = load(&w.pzyx);
        let mut coded = 0;
        for s in 0..ROWS {
            let at: [usize; ROWS] = std::array::from_fn(|j| {
                if j <= s {
                    (ROWS + j) * nx + s - j
                } else {
                    (j + 1) * nx + s - j
                }
            });
            let ry0 = shift_in(cx0, _mm256_set1_pd(b.rows[(ROWS - 1) * nx + s]));
            let ry1 = shift_in(cx1, last(cx0));
            let (rz0, rz1, rzy0, rzy1) = if D == 3 {
                // Row `r` of the view has its `z − 1` neighbor at row
                // `r + 1` of `zp`, whose stride is `nx` here.
                let [rz0, rz1] = load(&std::array::from_fn(|j| b.zp[at[j] + nx]));
                (
                    rz0,
                    rz1,
                    shift_in(pzx0, _mm256_set1_pd(b.zp[ROWS * nx + s])),
                    shift_in(pzx1, last(pzx0)),
                )
            } else {
                (k.zero, k.zero, k.zero, k.zero)
            };
            // Lane s starts its row: nothing of its own row, nor of the
            // rows under it, is left of it.
            let [f0, f1] = lane
                .map(|j| _mm256_castsi256_pd(_mm256_cmpeq_epi64(j, _mm256_set1_epi64x(s as i64))));
            let fresh = |v, f| _mm256_andnot_pd(f, v);
            let [xv0, xv1] = load(&std::array::from_fn(|j| b.data[at[j]].to_f64()));
            let p0 = point::<T, D>(
                &k,
                xv0,
                fresh(cx0, f0),
                ry0,
                rz0,
                fresh(pyx0, f0),
                fresh(pzx0, f0),
                rzy0,
                fresh(pzyx0, f0),
            );
            let p1 = point::<T, D>(
                &k,
                xv1,
                fresh(cx1, f1),
                ry1,
                rz1,
                fresh(pyx1, f1),
                fresh(pzx1, f1),
                rzy1,
                fresh(pzyx1, f1),
            );
            let code = codes([p0.code, p1.code]);
            let rv = store([p0.rv, p1.rv]);
            for j in 0..ROWS {
                b.codes[at[j]] = code[j];
                b.rows[at[j]] = rv[j];
                counts.add(code[j]);
            }
            coded += (_mm256_movemask_pd(p0.ok) | _mm256_movemask_pd(p1.ok) << 4).count_ones();
            (cx0, pyx0, pzx0, pzyx0) = (p0.rv, ry0, rz0, rzy0);
            (cx1, pyx1, pzx1, pzyx1) = (p1.rv, ry1, rz1, rzy1);
        }
        w.cx = store([cx0, cx1]);
        w.pyx = store([pyx0, pyx1]);
        w.pzx = store([pzx0, pzx1]);
        w.pzyx = store([pzyx0, pzyx1]);
        ROWS * ROWS - coded as usize
    }

    /// See [`Avx2::quantize_rows`](super::Avx2::quantize_rows).
    #[target_feature(enable = "avx2")]
    pub(super) fn quantize_rows<T: Element, const D: usize>(
        b: &mut Block<'_, T>,
        q: Steps,
        counts: &mut Counts<'_>,
    ) -> usize {
        let nx = b.nx;
        let blocks = b.codes.len() / (ROWS * nx);
        let end = nx + ROWS - 1;
        let mut escapes = 0;
        if nx < ROWS {
            // Lane 0 would need the row over it before the lane above
            // has produced it: the blocks run one by one, all ramp.
            for k in 0..blocks {
                let mut block = b.rows_from(k * ROWS, ROWS);
                escapes += ramp::<T, D>(0..end, &mut Wave::new(), &mut block, q, counts);
            }
            return escapes;
        }
        // One wavefront through all the blocks: a lane that finishes a
        // row of one block starts its row of the next in the following
        // iteration, so the lanes run ramps only at the ends.
        let mut w = Wave::new();
        escapes += ramp::<T, D>(0..ROWS - 1, &mut w, &mut b.rows_from(0, ROWS), q, counts);
        for k in 0..blocks {
            let ts = if k == 0 { ROWS - 1..nx } else { ROWS..nx };
            if !ts.is_empty() {
                let mut block = b.rows_from(k * ROWS, ROWS);
                escapes += steady_state::<T, D>(ts, &mut w, &mut block, q, counts);
            }
            if k + 1 < blocks {
                let mut pair = b.rows_from(k * ROWS, 2 * ROWS);
                escapes += transition::<T, D>(&mut w, &mut pair, q, counts);
            }
        }
        let mut last = b.rows_from((blocks - 1) * ROWS, ROWS);
        escapes + ramp::<T, D>(nx..end, &mut w, &mut last, q, counts)
    }

    /// The reconstructions a plane's replay wavefront carries from one
    /// iteration to the next, two vectors of four lanes each: every
    /// lane's `x − 1` neighbor in its own row, the `y − 1` one, the
    /// `z − 1` one and the corner.
    type Carry = [[__m256d; 2]; 4];

    /// The values of lanes whose reconstructions are `rv`, which for a
    /// plain code are `T::from_f64(r).to_f64()` and narrow back to the
    /// value bit for bit, NaN included: `vcvtpd2ps` for `f32`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn values<T: Element>(rv: [__m256d; 2]) -> [T; ROWS] {
        let mut out = [T::from_f64(0.0); ROWS];
        // SAFETY: `out` is 8 writable `T`, and `T` is `f32` or `f64`,
        // the only types `has_round_trip` admits.
        unsafe {
            if is::<T, f32>() {
                let v = _mm256_set_m128(_mm256_cvtpd_ps(rv[1]), _mm256_cvtpd_ps(rv[0]));
                _mm256_storeu_ps(out.as_mut_ptr().cast(), v);
            } else {
                _mm256_storeu_pd(out.as_mut_ptr().cast(), rv[0]);
                _mm256_storeu_pd(out.as_mut_ptr().cast::<f64>().add(4), rv[1]);
            }
        }
        out
    }

    /// What a wavefront iteration has to mask: nothing (every lane inside
    /// its row in block `kb`), a block head (the lanes after `t − kb·nx`
    /// are still in block `kb − 1`, and lane `t − kb·nx` may start its
    /// row, its carried neighbors then zero), or a head at an end of the
    /// plane, where a lane may also be outside the blocks: such a lane
    /// reads the first code for its own, writes no value, and before
    /// iteration 7 produces 0.
    const BODY: u8 = 0;
    const HEAD: u8 = 1;
    const EDGE: u8 = 2;

    /// Iteration `t` of a plane's replay wavefront (see [`Plane`]), in
    /// which lane 0 is in block `kb` (or past the last), masked as
    /// `$MODE` says: lane `j` of block `b` is the point
    /// `(8·b + j)·nx + t − b·nx − j` of `codes` and `out`.
    // A macro, not a function: a `target_feature` function is not
    // forced inline, and a call per iteration passes the carried
    // vectors through memory.
    macro_rules! step {
        ($T:ty, $D:expr, $MODE:expr, $k:expr, $c:expr, ($t:expr, $kb:expr), $zp:expr, $p:expr) => {{
            let (k, c, t, kb): (&Consts, &mut Carry, usize, usize) = ($k, $c, $t, $kb);
            let (zp, p): (&[f64], &mut Plane<'_, $T>) = ($zp, $p);
            let nx = p.nx;
            // No closures handed to `map` or `from_fn`: a closure here
            // carries the `avx2` feature, and a combinator without it
            // cannot inline it.
            let (mut at, mut inside) = ([0; ROWS], [true; ROWS]);
            for j in 0..ROWS {
                let b = if $MODE != BODY && j + kb * nx > t { kb.wrapping_sub(1) } else { kb };
                inside[j] = $MODE != EDGE || b < p.blocks;
                at[j] = if inside[j] { 7 * b * nx + j * (nx - 1) + t } else { 0 };
            }
            let slot = (nx + t) * ROWS;
            // Lane 0's row above is lane 7's of the block before, which was
            // at this `x` `nx − 7` iterations ago (a zero slot on the first).
            let up = (t + ROWS - 1) * ROWS + ROWS - 1;
            debug_assert!(at.iter().all(|&i| i < p.codes.len() && i < p.out.len()));
            debug_assert!(slot + ROWS <= p.rows.len() && ($D == 2 || slot + ROWS <= zp.len()));
            let (cs, rows, zs) = (p.codes.as_ptr(), p.rows.as_mut_ptr(), zp.as_ptr());
            // SAFETY (each access through these pointers): `decode_plane`
            // asserted that `codes` and `out` hold the blocks' points and
            // `rows` and (order 3) `zp` `(nx + end)·8` slots; `t < end`,
            // `up < slot`, and a lane's point is inside the blocks, or 0.
            let code = unsafe {
                let c = |j: usize| *cs.add(at[j]) as i32;
                [
                    _mm256_cvtepi32_pd(_mm_set_epi32(c(3), c(2), c(1), c(0))),
                    _mm256_cvtepi32_pd(_mm_set_epi32(c(7), c(6), c(5), c(4))),
                ]
            };
            let above = _mm256_set1_pd(unsafe { *rows.add(up) });
            let ry = [shift_in(c[0][0], above), shift_in(c[0][1], last(c[0][0]))];
            let (rz, rzy) = if $D == 3 {
                // SAFETY: as above.
                let (corner, rz) = unsafe {
                    let rz = [_mm256_loadu_pd(zs.add(slot)), _mm256_loadu_pd(zs.add(slot + 4))];
                    (_mm256_set1_pd(*zs.add(up)), rz)
                };
                (rz, [shift_in(c[2][0], corner), shift_in(c[2][1], last(c[2][0]))])
            } else {
                ([k.zero; 2], [k.zero; 2])
            };
            let mut own = *c;
            let lane = lane_numbers();
            if $MODE != BODY {
                // Lane `t − kb·nx` (if any) starts its row in block `kb`.
                let s = _mm256_set1_epi64x(t as i64 - (kb * nx) as i64);
                let fresh = [
                    _mm256_castsi256_pd(_mm256_cmpeq_epi64(lane[0], s)),
                    _mm256_castsi256_pd(_mm256_cmpeq_epi64(lane[1], s)),
                ];
                for v in &mut own {
                    *v = [_mm256_andnot_pd(fresh[0], v[0]), _mm256_andnot_pd(fresh[1], v[1])];
                }
            }
            let [x, xy, xz, xyz] = own;
            let mut rv = [
                restore::<$T, { $D }>(k, code[0], x[0], ry[0], rz[0], xy[0], xz[0], rzy[0], xyz[0]),
                restore::<$T, { $D }>(k, code[1], x[1], ry[1], rz[1], xy[1], xz[1], rzy[1], xyz[1]),
            ];
            if $MODE == EDGE && t < ROWS - 1 {
                let t = _mm256_set1_epi64x(t as i64);
                for (v, j) in rv.iter_mut().zip(lane) {
                    *v = _mm256_andnot_pd(_mm256_castsi256_pd(_mm256_cmpgt_epi64(j, t)), *v);
                }
            }
            let out = p.out.as_mut_ptr();
            // SAFETY: as above.
            unsafe {
                _mm256_storeu_pd(rows.add(slot), rv[0]);
                _mm256_storeu_pd(rows.add(slot + 4), rv[1]);
                for (j, v) in values::<$T>(rv).into_iter().enumerate() {
                    if inside[j] {
                        *out.add(at[j]) = v;
                    }
                }
            }
            *c = [rv, ry, rz, rzy];
        }};
    }

    /// See [`Avx2::decode_plane`](super::Avx2::decode_plane).
    #[target_feature(enable = "avx2")]
    pub(super) fn decode_plane<T: Element, const D: usize>(
        zp: &[f64],
        mut p: Plane<'_, T>,
        q: Steps,
    ) {
        let (nx, blocks) = (p.nx, p.blocks);
        let end = blocks * nx + ROWS - 1;
        let (len, points) = ((nx + end) * ROWS, blocks * ROWS * nx);
        assert!(nx >= ROWS && blocks > 0 && p.codes.len() == points && p.out.len() == points);
        assert!(p.rows.len() >= len && (D == 2 || zp.len() >= len));
        let k = Consts::new(q);
        // The carried vectors as a local, so that they stay in registers.
        let mut c: Carry = [[k.zero; 2]; 4];
        for t in 0..ROWS {
            step!(T, D, EDGE, &k, &mut c, (t, 0), zp, &mut p);
        }
        for kb in 0..blocks {
            let k0 = kb * nx;
            if kb > 0 {
                for t in k0..k0 + ROWS {
                    step!(T, D, HEAD, &k, &mut c, (t, kb), zp, &mut p);
                }
            }
            for t in k0 + ROWS..k0 + nx {
                step!(T, D, BODY, &k, &mut c, (t, kb), zp, &mut p);
            }
        }
        for t in blocks * nx..end {
            step!(T, D, EDGE, &k, &mut c, (t, blocks), zp, &mut p);
        }
        #[cfg(test)]
        super::PLANES.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compressor::{
        compress_into, compress_into_scalar, compress_reference, Scratch, MAGIC, VERSION,
    };
    use crate::config::{Config, Dims, ErrorBound};
    use crate::decompressor::{decompress_into, decompress_into_scalar, DecompressScratch};
    use crate::error::SzError;
    use crate::huffman::HuffmanEncoder;
    use crate::stream::{put_f64, put_u32, put_varint, BitWriter};

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
    /// of `T`, `±1e30`; or, `coded_only`, by `-0.0` and the subnormal
    /// alone, which quantize like any value, so that escape-free blocks
    /// occur.
    fn field<T: Element>(n: usize, texture: u8, coded_only: bool) -> Vec<T> {
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
                if i % 11 == 3 && coded_only {
                    return if (i / 11) % 2 == 0 {
                        T::from_f64(-0.0)
                    } else {
                        subnormal
                    };
                }
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

    /// Row lengths of [`pin_both_arms`]: every kind of ramp of an
    /// 8-row block — ramp-up and ramp-down overlapping (`nx < 7`),
    /// touching (`nx = 7`), or around a steady state of 1, 2, 8, 9, 10,
    /// 25, 26 or 89 iterations — and, where a plane holds two or more
    /// blocks (`ny ≥ 16`), the transitions between them.
    const PIN_NX: [usize; 12] = [1, 2, 3, 7, 8, 9, 15, 16, 17, 32, 33, 96];

    /// Vector arm (where the host has one), scalar arm and the
    /// reference, byte for byte; returns the cases compared.
    fn pin_both_arms<T: Element>(scratch: &mut Scratch) -> usize {
        let mut cases = 0;
        let (mut vector, mut scalar) = (Vec::new(), Vec::new());
        for ny in [1, 7, 8, 9, 15, 16, 33] {
            for nx in PIN_NX {
                // 2-D, and 3-D whose first plane is order 2.
                for dims in [Dims::from_slice(&[ny, nx]).unwrap(), Dims::d3(3, ny, nx)] {
                    for (texture, bound) in [
                        (0, ErrorBound::Abs(1e-2)),
                        (0, ErrorBound::Rel(1e-5)),
                        (1, ErrorBound::Abs(1e33)),
                        (2, ErrorBound::Abs(0.5)),
                    ] {
                        let data = field::<T>(dims.len(), texture, false);
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
        assert_eq!(cases, 2 * 7 * PIN_NX.len() * 2 * 4 * 2);
        // The vector arm runs a block's ramps too, at every row length.
        let ramps = RAMPS.load(std::sync::atomic::Ordering::Relaxed);
        println!("avx2 ramps vectorized: {ramps}");
        assert_eq!(ramps > 0, detected());
    }

    /// Plane heights of [`pin_both_decode_arms`]: planes of one row, of
    /// no whole block, of one to four blocks, with and without rows
    /// under the last block.
    const PIN_NY: [usize; 9] = [1, 7, 8, 9, 15, 16, 24, 25, 33];

    /// The decode arms on the streams of [`pin_both_arms`]'s matrix
    /// (row lengths [`PIN_NX`], heights [`PIN_NY`]), whose every 8-row
    /// block holds an escape (the row-by-row arm), on its fields with
    /// coded specials only (the vector arm wherever a plane's blocks
    /// have no escape), and on those with one NaN in the middle (a plane of the scalar
    /// arm between two of the vector arm), planes of order 2 and 3 —
    /// value for value, bit for bit; returns the cases compared.
    fn pin_both_decode_arms<T: Element>(scratch: &mut Scratch) -> usize {
        let bits = |v: &[T]| v.iter().map(|x| x.to_f64().to_bits()).collect::<Vec<_>>();
        let mut dscratch = DecompressScratch::new();
        let mut cases = 0;
        let (mut stream, mut vector, mut scalar) = (Vec::new(), Vec::new(), Vec::new());
        for ny in PIN_NY {
            for nx in PIN_NX {
                for dims in [Dims::from_slice(&[ny, nx]).unwrap(), Dims::d3(3, ny, nx)] {
                    for (texture, bound) in [
                        (0, ErrorBound::Abs(1e-2)),
                        (0, ErrorBound::Rel(1e-5)),
                        (1, ErrorBound::Abs(1e33)),
                        (2, ErrorBound::Abs(0.5)),
                    ] {
                        for (coded_only, nan) in [(false, false), (true, false), (true, true)] {
                            let mut data = field::<T>(dims.len(), texture, coded_only);
                            if nan {
                                data[dims.len() / 2] = T::from_f64(f64::NAN);
                            }
                            for radius in [16, 32768] {
                                let cfg = Config {
                                    error_bound: bound,
                                    radius,
                                    lossless: true,
                                };
                                let what = format!(
                                    "{dims:?} {bound:?} radius {radius} coded {coded_only} nan {nan}"
                                );
                                compress_into(&data, &dims, &cfg, scratch, &mut stream)
                                    .expect(&what);
                                let vd = decompress_into(&stream, &mut dscratch, &mut vector);
                                let sd =
                                    decompress_into_scalar(&stream, &mut dscratch, &mut scalar);
                                assert_eq!(vd, Ok(dims.clone()), "{what}");
                                assert_eq!(sd, vd, "{what}");
                                assert!(bits(&vector) == bits(&scalar), "arms differ: {what}");
                                cases += 1;
                            }
                        }
                    }
                }
            }
        }
        cases
    }

    /// An `f32` stream of a `dims` grid without the lossless stage and
    /// without literals, whose codes are all `radius` (residual 0) but
    /// `bad` at point `at`.
    fn forged(dims: &Dims, radius: u32, at: usize, bad: u32) -> Vec<u8> {
        let mut codes = vec![radius; dims.len()];
        codes[at] = bad;
        let enc = HuffmanEncoder::from_symbols(&codes, 2 * radius as usize + 1);
        let mut payload = Vec::new();
        enc.serialize(&mut payload);
        let mut w = BitWriter::new();
        enc.encode(&codes, &mut w);
        let code_bytes = w.finish();
        put_varint(&mut payload, codes.len() as u64);
        put_varint(&mut payload, code_bytes.len() as u64);
        payload.extend_from_slice(&code_bytes);
        put_varint(&mut payload, 0);
        let mut out = Vec::new();
        put_u32(&mut out, MAGIC);
        out.extend([VERSION, f32::DTYPE, dims.ndims() as u8]);
        for &d in dims.extents() {
            put_varint(&mut out, d as u64);
        }
        put_f64(&mut out, 1e-3);
        put_u32(&mut out, radius);
        out.push(0);
        put_varint(&mut out, payload.len() as u64);
        out.extend_from_slice(&payload);
        out
    }

    #[test]
    fn vector_arm_equals_scalar_arm_in_the_decoder() {
        println!("avx2 decode kernel selected: {}", detected());
        let mut scratch = Scratch::new();
        let cases =
            pin_both_decode_arms::<f32>(&mut scratch) + pin_both_decode_arms::<f64>(&mut scratch);
        assert_eq!(cases, 2 * PIN_NY.len() * PIN_NX.len() * 2 * 4 * 3 * 2);
        let planes = PLANES.load(std::sync::atomic::Ordering::Relaxed);
        println!("avx2 planes decoded as one wavefront: {planes}");
        assert_eq!(planes > 0, detected());

        // One symbol out of the alphabet (or an escape without its
        // literal) inside an 8-row block of the first plane or of a
        // later one — on a plane of 3 blocks, in the last block's
        // ramp-down (lane 6 at `x = 39`) and in a transition iteration
        // (lane 1 at `x = 1`, as lane 2 starts its row) — or in the rows
        // under the blocks: the same typed error from both arms.
        let mut dscratch = DecompressScratch::new();
        let (mut vector, mut scalar) = (Vec::<f32>::new(), Vec::<f32>::new());
        for (dims, at) in [
            (Dims::d3(3, 17, 40), 9 * 40 + 5),
            (Dims::d3(3, 17, 40), 17 * 40 + 3 * 40 + 39),
            (Dims::d3(3, 17, 40), 2 * 17 * 40 + 12 * 40 + 20),
            (Dims::d3(3, 17, 40), 2 * 17 * 40 + 16 * 40 + 7),
            (Dims::d3(3, 24, 40), 22 * 40 + 39),
            (Dims::d3(3, 24, 40), 24 * 40 + 22 * 40 + 39),
            (Dims::d3(3, 24, 40), 24 * 40 + 9 * 40 + 1),
            (Dims::d3(3, 24, 40), 2 * 24 * 40 + 9 * 40 + 1),
        ] {
            for (bad, want) in [
                (64, SzError::Corrupt("symbol out of alphabet")),
                (0, SzError::Truncated("f32 literal")),
            ] {
                let stream = forged(&dims, 32, at, bad);
                let vd = decompress_into(&stream, &mut dscratch, &mut vector);
                let sd = decompress_into_scalar(&stream, &mut dscratch, &mut scalar);
                assert_eq!(vd, Err(want.clone()), "symbol {bad} at {at}");
                assert_eq!(sd, vd, "symbol {bad} at {at}");
            }
            // The same stream with the plain symbol decodes alike.
            let stream = forged(&dims, 32, at, 33);
            let vd = decompress_into(&stream, &mut dscratch, &mut vector);
            assert_eq!(
                vd,
                decompress_into_scalar(&stream, &mut dscratch, &mut scalar)
            );
            assert!(vd.is_ok() && vector == scalar);
        }
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
