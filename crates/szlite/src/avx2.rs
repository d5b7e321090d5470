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
//! Both kernels take all the whole 8-row blocks of a plane, rows of at
//! least [`ROWS`], as one wavefront ([`Avx2::quantize_plane`],
//! [`Avx2::decode_plane`]): a lane that finishes its row of one block
//! starts its row of the next in the following iteration, so a plane of
//! `nb` blocks takes `nb·nx + 7` iterations, with masks only at block
//! heads and at the plane's two ends. Reconstructions live in the
//! wavefront-major layout of [`Skewed`](crate::predictor::Skewed), lane
//! `j` of iteration `t` at slot `8·t + j`: an iteration loads the
//! `z − 1` plane's 8 lanes and stores its own with two vector moves
//! each, and reads lane 0's `y − 1` neighbor and its corner as one
//! scalar each. The input (data or codes) is read and the output (codes
//! or values) written in row-major order in place. The schedule and the
//! slot arithmetic are written once (`wavefront!`, `step!`), and bounds
//! are asserted once per plane; what differs is the lanes' work —
//! `point` plus a count and a code store per lane when
//! compressing, `restore` plus a value store when decoding. Rows
//! shorter than 8 cannot be chained (lane 0 would need its row above
//! before lane 7 had produced it) and take the scalar arms, and so do
//! the rows under a plane's last whole block.
//!
//! Two details keep the compressor's iteration on its latency chain.
//! The count table is indexed without a check per lane: a code is 0 for
//! an escape and `q + RADIUS` with `|q| < RADIUS` otherwise, below the
//! `2·RADIUS` entries the plane asserted. And an iteration whose 8
//! lanes are all coded — all but the rare one — carries the storage
//! round trip `rt` on as its reconstructions, behind one branch on the
//! checks, so that the checks and the blend with an escape's value are
//! off the chain to the next iteration. On the 32³ tiles of
//! `rtm_chunked` (seed 1, one thread of a 2-core AVX2 Xeon) this took
//! `sz.quantize` from 6.8 to 5.2 ns per point, and on a Nyx 48×96×96
//! partition from 6.4 to 5.3.
//!
//! Measured and not taken: 16 rows in flight (four vectors, built with
//! AVX-512VL so that nothing spills, byte-identical under the pins) ran
//! at 0.83–1.10× of 8 rows, with the per-lane checks or without. The
//! chain alone does run faster at four vectors (2.7 ns per point
//! against 4.7), so the lane count is not the lever while per-lane
//! traffic remains. Counting codes after the sweep instead of per lane
//! was neutral (0.98–1.00×).
//!
//! Every lane evaluates exactly the expression of the scalar body on
//! the same operands: the stencil in its
//! `+x +y +z −xy −xz −yz +xyz` order, a true division by `2·eb`,
//! `round_within`'s truncate-and-fix-the-half in `f64`, a separate
//! multiply and add (AVX2 does not imply FMA, and nothing here is
//! contracted), `vcvtpd2ps`/`vcvtps2pd` as the `f32` storage round
//! trip, both `≤ eb` checks and the finite test as masks; the replay
//! the stencil in the same order, then `Quantizer::reconstruct` —
//! `code − RADIUS`, exact in `f64`, times `2·eb` and added as a
//! separate multiply and add — and the round trip. Codes,
//! reconstructions and therefore the stream are bit-identical to the
//! scalar kernels' and to `compress_reference`, and so are the decoded
//! values to the scalar replay's.
//!
//! Whether a plane runs here is decided by
//! [`compress_into`](crate::compress_into) and by the decoder's plane
//! loop alone, from [`Avx2::select`] (CPU feature), the plane's shape
//! and, when decoding, its codes; there is no switch to set.

use crate::compressor::Counts;
use crate::quantizer::Quantizer;

/// Rows a vector block advances together: two `__m256d` of four lanes.
/// (Four vectors spill the sixteen `ymm` registers and measured slower.)
pub(crate) const ROWS: usize = 8;

/// Proof that the vector kernel can run on this CPU and reproduces the
/// scalar kernel for this call; [`Avx2::select`] is the only
/// constructor.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Avx2(());

impl Avx2 {
    /// The token, when the CPU has AVX2. (`q + RADIUS` converts
    /// through `i32`, and so does a code below `2·RADIUS` on the way
    /// back.)
    pub(crate) fn select() -> Option<Self> {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return Some(Avx2(()));
        }
        None
    }

    /// The `blocks` whole blocks of [`ROWS`] rows of `nx ≥ ROWS` at the
    /// head of a plane with the order-`D` stencil (`D ≥ 2`), as one
    /// wavefront in the [`Skewed`] layout: the codes, counts,
    /// reconstructions and escapes of `quantize_rows::<1, D>` on each
    /// row in turn; returns the escapes. `zp` holds the `z − 1` plane's
    /// reconstructions (read for `D = 3`).
    ///
    /// [`Skewed`]: crate::predictor::Skewed
    pub(crate) fn quantize_plane<const D: usize>(
        self,
        zp: &[f64],
        p: Plane<'_, f32, u32>,
        q: Quantizer,
        counts: &mut Counts<'_>,
    ) -> usize {
        #[cfg(target_arch = "x86_64")]
        {
            // SAFETY: the only `Avx2` values are the ones `select`
            // returned after `is_x86_feature_detected!("avx2")` held on
            // this CPU, which is all the callee's `target_feature`
            // requires.
            unsafe { x86::quantize_plane::<D>(zp, p, q, counts) }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            let _ = (zp, p, q, counts);
            unreachable!("select() issues no token on this architecture")
        }
    }

    /// The blocks of [`quantize_plane`](Self::quantize_plane)'s shape,
    /// every code in `1..2·RADIUS`: the values of
    /// `decode_rows::<1, D>` on each row in turn.
    pub(crate) fn decode_plane<const D: usize>(
        self,
        zp: &[f64],
        p: Plane<'_, u32, f32>,
        q: Quantizer,
    ) {
        #[cfg(target_arch = "x86_64")]
        {
            // SAFETY: as in `quantize_plane`.
            unsafe { x86::decode_plane::<D>(zp, p, q) }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            let _ = (zp, p, q);
            unreachable!("select() issues no token on this architecture")
        }
    }
}

/// A plane the vector kernels run: what goes into and what comes out
/// of its whole blocks, in row-major order — data in and codes out when
/// compressing, codes in and values out when decoding — and its
/// reconstructions in the layout of [`Skewed`](crate::predictor::Skewed):
/// slot `8·(nx + t) + j` is lane `j` of iteration `t`, for the `nx`
/// iterations before the first, all zero (the rows above the plane),
/// and the plane's `blocks·nx + 7`.
pub(crate) struct Plane<'a, I, O> {
    pub(crate) input: &'a [I],
    pub(crate) rows: &'a mut [f64],
    pub(crate) output: &'a mut [O],
    pub(crate) nx: usize,
    pub(crate) blocks: usize,
}

/// Planes the vector kernels compressed and decoded in this test
/// process: what tells a run of the arm tests on an AVX2 host from a
/// vacuous one.
#[cfg(test)]
pub(crate) static COMPRESSED: std::sync::atomic::AtomicUsize =
    std::sync::atomic::AtomicUsize::new(0);
#[cfg(test)]
pub(crate) static DECODED: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
/// Escaped points the vector kernel compressed inside its wavefront
/// planes in this test process: what shows the escape lanes ran.
#[cfg(test)]
pub(crate) static ESCAPES: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{Plane, ROWS};
    use crate::compressor::Counts;
    use crate::config::RADIUS;
    use crate::quantizer::{Quantizer, UNPREDICTABLE};
    use std::arch::x86_64::*;

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
        /// `RADIUS − ½`: `|u|` below it rounds to inside `±RADIUS`.
        edge: __m256d,
    }

    impl Consts {
        #[inline]
        #[target_feature(enable = "avx2")]
        fn new(q: Quantizer) -> Self {
            Consts {
                zero: _mm256_setzero_pd(),
                half: _mm256_set1_pd(0.5),
                neg_half: _mm256_set1_pd(-0.5),
                one: _mm256_set1_pd(1.0),
                sign: _mm256_set1_pd(-0.0),
                inf: _mm256_set1_pd(f64::INFINITY),
                eb: _mm256_set1_pd(q.eb),
                twice_eb: _mm256_set1_pd(q.twice_eb),
                radius: _mm256_set1_pd(f64::from(RADIUS)),
                edge: _mm256_set1_pd(f64::from(RADIUS) - 0.5),
            }
        }
    }

    /// What [`point`] decides for four rows.
    struct Point {
        /// `q + RADIUS`, or 0 (`UNPREDICTABLE`) for an escape.
        code: __m128i,
        /// The reconstruction the neighbors predict from where the
        /// point is coded.
        rt: __m256d,
        /// The same where it is an escape.
        escape: __m256d,
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

    /// `f64::from(r as f32)` on four lanes: `vcvtpd2ps`, `vcvtps2pd`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn round_trip(r: __m256d) -> __m256d {
        _mm256_cvtps_pd(_mm256_cvtpd_ps(r))
    }

    /// The body of [`sweep`](crate::compressor::sweep) on four rows at
    /// once, operation for operation; the arguments are [`predict`]'s.
    #[inline]
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    fn point<const D: usize>(
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
        // `(t + up) − down` with one add on the chain: at most one of
        // `up`, `down` is 1, and `t` is an integer of magnitude below
        // 2^30, so both sums are exact; `up − down` is `+0.0` when both
        // are 0, and normalizes `-0.0` as `+ up` does.
        let qf = _mm256_add_pd(t, _mm256_sub_pd(up, down));
        let r64 = _mm256_add_pd(pred, _mm256_mul_pd(qf, k.twice_eb));
        // Round through `f32`, as the decoder will.
        let rt = round_trip(r64);
        let within = |r| _mm256_cmp_pd::<_CMP_LE_OQ>(abs(k, _mm256_sub_pd(xv, r)), k.eb);
        let ok = _mm256_and_pd(in_range, _mm256_and_pd(within(r64), within(rt)));
        let finite = _mm256_cmp_pd::<_CMP_LT_OQ>(abs(k, xv), k.inf);
        // An escape predicts from the value itself, or 0 when it is
        // not finite; its lanes of `qf` hold anything, so they are
        // masked to 0.0 before the (then total) conversion.
        let escape = _mm256_and_pd(finite, xv);
        let code = _mm256_cvttpd_epi32(_mm256_and_pd(ok, _mm256_add_pd(qf, k.radius)));
        Point {
            code,
            rt,
            escape,
            ok,
        }
    }

    /// The body of the decoder's `replay` on four rows of plain codes at
    /// once, operation for operation: `Quantizer::reconstruct` (the code
    /// minus `RADIUS` is exact in `f64`), then the storage round trip.
    /// Returns the reconstructions.
    #[inline]
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    fn restore<const D: usize>(
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
        round_trip(_mm256_add_pd(pred, _mm256_mul_pd(q, k.twice_eb)))
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

    /// The elements of `data` at `at[first..first + 4]`, widened:
    /// `vcvtps2pd`.
    ///
    /// # Safety
    ///
    /// Those four points are inside `data`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn widen(data: *const f32, at: &[usize; ROWS], first: usize) -> __m256d {
        // SAFETY: the caller's.
        let v = |j: usize| unsafe { *data.add(at[first + j]) };
        _mm256_cvtps_pd(_mm_set_ps(v(3), v(2), v(1), v(0)))
    }

    /// The values of lanes whose reconstructions are `rv`, which for a
    /// plain code are `f64::from(r as f32)` and narrow back to the value
    /// bit for bit, NaN included: `vcvtpd2ps`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn values(rv: [__m256d; 2]) -> [f32; ROWS] {
        let mut out = [0.0; ROWS];
        let v = _mm256_set_m128(_mm256_cvtpd_ps(rv[1]), _mm256_cvtpd_ps(rv[0]));
        // SAFETY: `out` is 8 writable `f32`.
        unsafe { _mm256_storeu_ps(out.as_mut_ptr(), v) };
        out
    }

    /// The compressor's side of a plane: the code counts, through the
    /// table's pointer (the plane asserted that the table covers every
    /// code [`point`] yields).
    struct Tally<'a> {
        freqs: *mut u64,
        present: &'a mut Vec<u32>,
    }

    /// A code counted for the first time in this run: out of line, so
    /// that the lanes' code stays short.
    #[cold]
    #[inline(never)]
    fn first_sighting(present: &mut Vec<u32>, code: u32) {
        present.push(code);
    }

    /// The reconstructions a plane's wavefront carries from one
    /// iteration to the next, two vectors of four lanes each: every
    /// lane's `x − 1` neighbor in its own row, the `y − 1` one, the
    /// `z − 1` one and the corner.
    type Carry = [[__m256d; 2]; 4];

    /// The compressor's lanes of a wavefront iteration, on the
    /// neighbors `$n` in [`predict`]'s argument order: [`point`] on the
    /// data at `at`, each code stored at its point and counted for the
    /// lanes `inside` the blocks. Yields the reconstructions.
    macro_rules! quantize_lanes {
        ($D:expr, $k:expr, $n:expr, $p:expr, ($at:expr, $inside:expr), $side:expr) => {{
            let (k, [x, y, z, xy, xz, yz, xyz]): (&Consts, [[__m256d; 2]; 7]) = ($k, $n);
            let (at, inside): (&[usize; ROWS], &[bool; ROWS]) = ($at, $inside);
            let (p, tally): (&mut Plane<'_, f32, u32>, &mut Tally<'_>) = ($p, $side);
            let (data, codes) = (p.input.as_ptr(), p.output.as_mut_ptr());
            // SAFETY (each access through these pointers): `wavefront!`
            // asserted that `input` and `output` hold the blocks' points,
            // and a lane's point is inside them, or 0.
            let xv = unsafe { [widen(data, at, 0), widen(data, at, 4)] };
            let pt = [
                point::<{ $D }>(k, xv[0], x[0], y[0], z[0], xy[0], xz[0], yz[0], xyz[0]),
                point::<{ $D }>(k, xv[1], x[1], y[1], z[1], xy[1], xz[1], yz[1], xyz[1]),
            ];
            let mut code = [0u32; ROWS];
            // SAFETY: as above, and `code` is 8 writable `u32`; a code
            // indexes the count table, which `quantize_plane` asserted
            // holds every code `point` yields.
            unsafe {
                _mm_storeu_si128(code.as_mut_ptr().cast(), pt[0].code);
                _mm_storeu_si128(code.as_mut_ptr().add(4).cast(), pt[1].code);
                for j in 0..ROWS {
                    if inside[j] {
                        *codes.add(at[j]) = code[j];
                        let f = tally.freqs.add(code[j] as usize);
                        if *f == 0 {
                            first_sighting(tally.present, code[j]);
                        }
                        *f += 1;
                    }
                }
            }
            // Where all 8 lanes are coded (all but the rare iteration) the
            // reconstructions are `rt` as they are: a branch on the checks
            // takes them, and their blend, off the chain to the next
            // iteration.
            let all = _mm256_and_pd(pt[0].ok, pt[1].ok);
            if _mm256_movemask_pd(all) == 0b1111 {
                [pt[0].rt, pt[1].rt]
            } else {
                [
                    _mm256_blendv_pd(pt[0].escape, pt[0].rt, pt[0].ok),
                    _mm256_blendv_pd(pt[1].escape, pt[1].rt, pt[1].ok),
                ]
            }
        }};
    }

    /// The decoder's lanes of a wavefront iteration, on the neighbors
    /// `$n` in [`predict`]'s argument order: [`restore`] on the codes at
    /// `at`, each value stored at its point for the lanes `inside` the
    /// blocks. Yields the reconstructions.
    macro_rules! restore_lanes {
        ($D:expr, $k:expr, $n:expr, $p:expr, ($at:expr, $inside:expr), $side:expr) => {{
            let (k, [x, y, z, xy, xz, yz, xyz]): (&Consts, [[__m256d; 2]; 7]) = ($k, $n);
            let (at, inside): (&[usize; ROWS], &[bool; ROWS]) = ($at, $inside);
            let (p, ()): (&mut Plane<'_, u32, f32>, ()) = ($p, $side);
            let (cs, out) = (p.input.as_ptr(), p.output.as_mut_ptr());
            // SAFETY: as in `quantize_lanes!`.
            let code = unsafe {
                let c = |j: usize| *cs.add(at[j]) as i32;
                [
                    _mm256_cvtepi32_pd(_mm_set_epi32(c(3), c(2), c(1), c(0))),
                    _mm256_cvtepi32_pd(_mm_set_epi32(c(7), c(6), c(5), c(4))),
                ]
            };
            let rv = [
                restore::<{ $D }>(k, code[0], x[0], y[0], z[0], xy[0], xz[0], yz[0], xyz[0]),
                restore::<{ $D }>(k, code[1], x[1], y[1], z[1], xy[1], xz[1], yz[1], xyz[1]),
            ];
            // SAFETY: as above.
            unsafe {
                for (j, v) in values(rv).into_iter().enumerate() {
                    if inside[j] {
                        *out.add(at[j]) = v;
                    }
                }
            }
            rv
        }};
    }

    /// What a wavefront iteration has to mask: nothing (every lane inside
    /// its row in block `kb`), a block head (the lanes after `t − kb·nx`
    /// are still in block `kb − 1`, and lane `t − kb·nx` may start its
    /// row, its carried neighbors then zero), or a head at an end of the
    /// plane, where a lane may also be outside the blocks: such a lane
    /// reads the plane's first point for its own, writes nothing there,
    /// and before iteration 7 produces 0.
    const BODY: u8 = 0;
    const HEAD: u8 = 1;
    const EDGE: u8 = 2;

    /// Iteration `t` of a plane's wavefront (see [`Plane`]), in which
    /// lane 0 is in block `kb` (or past the last), masked as `$MODE`
    /// says, with `$lanes!` doing each lane's work: lane `j` of block
    /// `b` is the point `(8·b + j)·nx + t − b·nx − j` of `input` and
    /// `output`.
    // A macro, not a function: a `target_feature` function is not
    // forced inline, and a call per iteration passes the carried
    // vectors through memory.
    macro_rules! step {
        ($lanes:ident, $D:expr, $MODE:expr, ($k:expr, $c:expr, $t:expr, $kb:expr), $zp:expr, $p:expr, $side:expr) => {{
            let (k, c, t, kb): (&Consts, &mut Carry, usize, usize) = ($k, $c, $t, $kb);
            let (zp, p): (&[f64], &mut Plane<'_, _, _>) = ($zp, $p);
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
            debug_assert!(at.iter().all(|&i| i < p.input.len() && i < p.output.len()));
            debug_assert!(slot + ROWS <= p.rows.len() && ($D == 2 || slot + ROWS <= zp.len()));
            let (rows, zs) = (p.rows.as_mut_ptr(), zp.as_ptr());
            // SAFETY (each access through these pointers): `wavefront!`
            // asserted that `rows` and (order 3) `zp` hold `(nx + end)·8`
            // slots; `t < end` and `up < slot`.
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
            let lane = [_mm256_set_epi64x(3, 2, 1, 0), _mm256_set_epi64x(7, 6, 5, 4)];
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
            let n = [x, ry, rz, xy, xz, rzy, xyz];
            let mut rv = $lanes!($D, k, n, &mut *p, (&at, &inside), $side);
            if $MODE == EDGE && t < ROWS - 1 {
                let t = _mm256_set1_epi64x(t as i64);
                for (v, j) in rv.iter_mut().zip(lane) {
                    *v = _mm256_andnot_pd(_mm256_castsi256_pd(_mm256_cmpgt_epi64(j, t)), *v);
                }
            }
            // SAFETY: as above.
            unsafe {
                _mm256_storeu_pd(rows.add(slot), rv[0]);
                _mm256_storeu_pd(rows.add(slot + 4), rv[1]);
            }
            *c = [rv, ry, rz, rzy];
        }};
    }

    /// A plane's `blocks·nx + 7` wavefront iterations (see [`Plane`]),
    /// each lane's work done by `$lanes!`: the schedule of both vector
    /// kernels. Bounds are checked here, once per plane.
    macro_rules! wavefront {
        ($lanes:ident, $D:expr, $q:expr, $zp:expr, $p:expr, $side:expr) => {{
            let (zp, p): (&[f64], &mut Plane<'_, _, _>) = ($zp, $p);
            let (nx, blocks) = (p.nx, p.blocks);
            let end = blocks * nx + ROWS - 1;
            let (len, points) = ((nx + end) * ROWS, blocks * ROWS * nx);
            assert!(nx >= ROWS && blocks > 0 && p.input.len() == points);
            assert!(p.output.len() == points && p.rows.len() >= len);
            assert!($D == 2 || zp.len() >= len);
            let k = Consts::new($q);
            // The carried vectors as a local, so that they stay in registers.
            let mut c: Carry = [[k.zero; 2]; 4];
            for t in 0..ROWS {
                step!($lanes, $D, EDGE, (&k, &mut c, t, 0), zp, p, $side);
            }
            for kb in 0..blocks {
                let k0 = kb * nx;
                if kb > 0 {
                    for t in k0..k0 + ROWS {
                        step!($lanes, $D, HEAD, (&k, &mut c, t, kb), zp, p, $side);
                    }
                }
                for t in k0 + ROWS..k0 + nx {
                    step!($lanes, $D, BODY, (&k, &mut c, t, kb), zp, p, $side);
                }
            }
            for t in blocks * nx..end {
                step!($lanes, $D, EDGE, (&k, &mut c, t, blocks), zp, p, $side);
            }
        }};
    }

    /// See [`Avx2::quantize_plane`](super::Avx2::quantize_plane).
    #[target_feature(enable = "avx2")]
    pub(super) fn quantize_plane<const D: usize>(
        zp: &[f64],
        mut p: Plane<'_, f32, u32>,
        q: Quantizer,
        counts: &mut Counts<'_>,
    ) -> usize {
        // Escapes are 0, and a coded point's `q + RADIUS` is in
        // `1..2·RADIUS` (`point`'s range test): no code is counted
        // outside the table.
        assert!(counts.freqs.len() >= 2 * RADIUS as usize);
        // An escape is a count of code 0.
        let before = counts.freqs[UNPREDICTABLE as usize];
        let mut tally = Tally {
            freqs: counts.freqs.as_mut_ptr(),
            present: &mut *counts.present,
        };
        wavefront!(quantize_lanes, D, q, zp, &mut p, &mut tally);
        let escapes = (counts.freqs[UNPREDICTABLE as usize] - before) as usize;
        #[cfg(test)]
        {
            use std::sync::atomic::Ordering::Relaxed;
            super::COMPRESSED.fetch_add(1, Relaxed);
            super::ESCAPES.fetch_add(escapes, Relaxed);
        }
        escapes
    }

    /// See [`Avx2::decode_plane`](super::Avx2::decode_plane).
    #[target_feature(enable = "avx2")]
    pub(super) fn decode_plane<const D: usize>(
        zp: &[f64],
        mut p: Plane<'_, u32, f32>,
        q: Quantizer,
    ) {
        wavefront!(restore_lanes, D, q, zp, &mut p, ());
        #[cfg(test)]
        super::DECODED.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compressor::{
        compress_into, compress_into_scalar, compress_reference, Scratch, DTYPE, LOSSLESS, MAGIC,
        VERSION,
    };
    use crate::config::{Config, Dims, ErrorBound, RADIUS};
    use crate::decompressor::{decompress_into, decompress_into_scalar, DecompressScratch};
    use crate::error::SzError;
    use crate::huffman::HuffmanEncoder;
    use crate::lossless;
    use crate::stream::{put_f64, put_u32, put_varint, BitWriter};

    /// True when this host runs the vector kernel (printed, so that a CI
    /// runner that only tests the scalar arm shows in its log).
    fn detected() -> bool {
        Avx2::select().is_some()
    }

    /// `n` values in one of four textures — 0 a smooth field with
    /// noise, 1 a ramp just under `f32::MAX` (so a reconstruction can
    /// overflow the `f32` round trip), 2 a walk over multiples of ½
    /// (under `Abs(0.5)` residuals are exact rounding ties), 3 noise
    /// whose residuals under `Abs(1e-6)` pass the codebook's
    /// `RADIUS · 2eb` about as often as not (dense escapes) — with every
    /// 11th value replaced by, in turn, NaN, ±Inf, `-0.0`, a subnormal,
    /// `±1e30`; or, `coded_only`, by `-0.0` and the subnormal alone,
    /// which quantize like any value, so that escape-free blocks occur.
    fn field(n: usize, texture: u8, coded_only: bool) -> Vec<f32> {
        let subnormal = 3e-45;
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
                    return if (i / 11) % 2 == 0 { -0.0 } else { subnormal };
                }
                if i % 11 == 3 {
                    return match (i / 11) % 7 {
                        0 => f32::NAN,
                        1 => f32::INFINITY,
                        2 => f32::NEG_INFINITY,
                        3 => -0.0,
                        4 => subnormal,
                        5 => 1e30,
                        _ => -1e30,
                    };
                }
                let v = match texture {
                    0 => (i as f64 * 0.37).sin() + 0.05 * noise,
                    2 => walk,
                    3 => 0.15 * noise,
                    _ => 3.4e38 - 1e35 * (i % 97) as f64 - 1e33 * noise,
                };
                v as f32
            })
            .collect()
    }

    /// Row lengths of [`pin_both_arms`]: rows shorter than a block
    /// (`nx < 8`, the scalar arm), of exactly 8, and around a block
    /// body of 1, 2, 8, 9, 10, 25, 26 or 89 iterations.
    const PIN_NX: [usize; 12] = [1, 2, 3, 7, 8, 9, 15, 16, 17, 32, 33, 96];

    /// Plane heights of [`pin_both_arms`]: planes of one row, of no
    /// whole block, of one to four blocks, with and without rows under
    /// the last block.
    const PIN_NY: [usize; 9] = [1, 7, 8, 9, 15, 16, 24, 25, 33];

    /// The fields of [`pin_both_arms`]: [`field`]'s, with escapes of
    /// every kind, with coded specials only, and those with one NaN in
    /// the middle (an escape inside a vector plane, mid-wavefront).
    const PIN_FIELDS: [(bool, bool); 3] = [(false, false), (true, false), (true, true)];

    /// [`field`] as [`PIN_FIELDS`] says.
    fn pin_field(dims: &Dims, texture: u8, (coded_only, nan): (bool, bool)) -> Vec<f32> {
        let mut data = field(dims.len(), texture, coded_only);
        if nan {
            data[dims.len() / 2] = f32::NAN;
        }
        data
    }

    /// The shapes × textures × bounds × fields of both pins: 2-D, and
    /// 3-D whose first plane is order 2; sparse escapes, and dense ones
    /// (texture 3).
    fn pin_cases(mut case: impl FnMut(&Dims, Config, (bool, bool), u8, String)) {
        for ny in PIN_NY {
            for nx in PIN_NX {
                for dims in [Dims::from_slice(&[ny, nx]).unwrap(), Dims::d3(3, ny, nx)] {
                    for (texture, bound) in [
                        (0, ErrorBound::Abs(1e-2)),
                        (0, ErrorBound::Rel(1e-5)),
                        (1, ErrorBound::Abs(1e33)),
                        (2, ErrorBound::Abs(0.5)),
                        (3, ErrorBound::Abs(1e-6)),
                    ] {
                        for fields in PIN_FIELDS {
                            let cfg = Config { error_bound: bound };
                            let what = format!("{dims:?} {bound:?} texture {texture} {fields:?}");
                            case(&dims, cfg, fields, texture, what);
                        }
                    }
                }
            }
        }
    }

    /// Cases each pin compares.
    const PIN_CASES: usize = PIN_NY.len() * PIN_NX.len() * 2 * 5 * PIN_FIELDS.len();

    /// Vector arm (where the host has one), scalar arm and the
    /// reference, byte for byte; returns the cases compared.
    fn pin_both_arms(scratch: &mut Scratch) -> usize {
        let mut cases = 0;
        let (mut vector, mut scalar) = (Vec::new(), Vec::new());
        pin_cases(|dims, cfg, fields, texture, what| {
            let data = pin_field(dims, texture, fields);
            let want = compress_reference(&data, dims, &cfg).expect(&what);
            let vs = compress_into(&data, dims, &cfg, scratch, &mut vector);
            let ss = compress_into_scalar(&data, dims, &cfg, scratch, &mut scalar);
            assert_eq!(vs, ss, "{what}");
            assert!(vector == want, "selected arm ≠ reference: {what}");
            assert!(scalar == want, "scalar arm ≠ reference: {what}");
            cases += 1;
        });
        cases
    }

    #[test]
    fn vector_arm_equals_scalar_arm_equals_reference() {
        // On a host without AVX2 the first arm is the scalar one too.
        println!("avx2 vector kernel selected: {}", detected());
        let mut scratch = Scratch::new();
        assert_eq!(pin_both_arms(&mut scratch), PIN_CASES);
        let planes = COMPRESSED.load(std::sync::atomic::Ordering::Relaxed);
        println!("avx2 planes compressed as one wavefront: {planes}");
        assert_eq!(planes > 0, detected());
        let escapes = ESCAPES.load(std::sync::atomic::Ordering::Relaxed);
        println!("avx2 escapes compressed in wavefront planes: {escapes}");
        assert_eq!(escapes > 0, detected());
    }

    /// The decode arms on the streams of [`pin_both_arms`]'s matrix:
    /// fields whose every 8-row block holds an escape (the row-by-row
    /// arm), with coded specials only (the vector arm wherever a plane's
    /// blocks have no escape), and with one NaN in the middle (a plane
    /// of the scalar arm between two of the vector arm), planes of order
    /// 2 and 3 — value for value, bit for bit; returns the cases
    /// compared.
    fn pin_both_decode_arms(scratch: &mut Scratch) -> usize {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut dscratch = DecompressScratch::new();
        let mut cases = 0;
        let (mut stream, mut vector, mut scalar) = (Vec::new(), Vec::new(), Vec::new());
        pin_cases(|dims, cfg, fields, texture, what| {
            let data = pin_field(dims, texture, fields);
            compress_into(&data, dims, &cfg, scratch, &mut stream).expect(&what);
            let vd = decompress_into(&stream, &mut dscratch, &mut vector);
            let sd = decompress_into_scalar(&stream, &mut dscratch, &mut scalar);
            assert_eq!(vd, Ok(dims.clone()), "{what}");
            assert_eq!(sd, vd, "{what}");
            assert!(bits(&vector) == bits(&scalar), "arms differ: {what}");
            cases += 1;
        });
        cases
    }

    /// An `f32` stream of a `dims` grid without literals, whose codes
    /// are all `RADIUS` (residual 0) but `bad` at point `at`.
    fn forged(dims: &Dims, at: usize, bad: u32) -> Vec<u8> {
        let mut codes = vec![RADIUS; dims.len()];
        codes[at] = bad;
        let mut freqs = vec![0u64; 2 * RADIUS as usize + 1];
        for &code in &codes {
            freqs[code as usize] += 1;
        }
        let enc = HuffmanEncoder::from_freqs(&freqs);
        let mut payload = Vec::new();
        enc.serialize(&mut payload);
        let mut w = BitWriter::new();
        enc.encode(&codes, &mut w);
        let code_bytes = w.finish();
        put_varint(&mut payload, codes.len() as u64);
        put_varint(&mut payload, code_bytes.len() as u64);
        payload.extend_from_slice(&code_bytes);
        put_varint(&mut payload, 0);
        let body = lossless::compress(&payload);
        let mut out = Vec::new();
        put_u32(&mut out, MAGIC);
        out.extend([VERSION, DTYPE, dims.ndims() as u8]);
        for &d in dims.extents() {
            put_varint(&mut out, d as u64);
        }
        put_f64(&mut out, 1e-3);
        put_u32(&mut out, RADIUS);
        out.push(LOSSLESS);
        put_varint(&mut out, body.len() as u64);
        out.extend_from_slice(&body);
        out
    }

    #[test]
    fn vector_arm_equals_scalar_arm_in_the_decoder() {
        println!("avx2 decode kernel selected: {}", detected());
        let mut scratch = Scratch::new();
        assert_eq!(pin_both_decode_arms(&mut scratch), PIN_CASES);
        let planes = DECODED.load(std::sync::atomic::Ordering::Relaxed);
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
                (2 * RADIUS, SzError::Corrupt("symbol out of alphabet")),
                (0, SzError::Truncated("f32 literal")),
            ] {
                let stream = forged(&dims, at, bad);
                let vd = decompress_into(&stream, &mut dscratch, &mut vector);
                let sd = decompress_into_scalar(&stream, &mut dscratch, &mut scalar);
                assert_eq!(vd, Err(want.clone()), "symbol {bad} at {at}");
                assert_eq!(sd, vd, "symbol {bad} at {at}");
            }
            // The same stream with the plain symbol decodes alike.
            let stream = forged(&dims, at, RADIUS + 1);
            let vd = decompress_into(&stream, &mut dscratch, &mut vector);
            assert_eq!(
                vd,
                decompress_into_scalar(&stream, &mut dscratch, &mut scalar)
            );
            assert!(vd.is_ok() && vector == scalar);
        }
    }
}
