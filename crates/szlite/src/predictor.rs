//! Lorenzo prediction over 1-D/2-D/3-D row-major grids.
//!
//! Each point is predicted from its already-processed neighbors
//! (the *reconstructed* values, so encoder and decoder stay in
//! lockstep and the error bound holds end-to-end). Out-of-grid
//! neighbors contribute zero, the classic Lorenzo convention.

use crate::avx2::ROWS;
use crate::config::Dims;

/// Strides for up to 3 dimensions, slowest first.
#[derive(Debug, Clone, Copy)]
pub struct Strides {
    /// Number of dimensions in use.
    pub ndims: usize,
    /// Extents, slowest-varying first (padded with 1).
    pub ext: [usize; 3],
    /// Linear strides matching `ext`.
    pub stride: [usize; 3],
}

impl Strides {
    /// Compute strides for a row-major layout of `dims`.
    pub fn new(dims: &Dims) -> Self {
        let e = dims.extents();
        let mut ext = [1usize; 3];
        // Right-align extents so ext[2] is always the fastest axis.
        let off = 3 - e.len();
        for (i, &d) in e.iter().enumerate() {
            ext[off + i] = d;
        }
        let stride = [ext[1] * ext[2], ext[2], 1];
        Strides {
            ndims: e.len(),
            ext,
            stride,
        }
    }

    /// Total number of points.
    pub fn len(&self) -> usize {
        self.ext[0] * self.ext[1] * self.ext[2]
    }

    /// True if the grid is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Lorenzo predictor of the appropriate order for the grid.
///
/// For 3-D:
/// `p = f(z-1) + f(y-1) + f(x-1) − f(z-1,y-1) − f(z-1,x-1) − f(y-1,x-1) + f(z-1,y-1,x-1)`
/// with lower-dimensional degenerations on the boundary planes.
#[derive(Debug, Clone, Copy)]
pub struct Lorenzo {
    s: Strides,
}

impl Lorenzo {
    /// Build a predictor for the grid.
    pub fn new(dims: &Dims) -> Self {
        Lorenzo {
            s: Strides::new(dims),
        }
    }

    /// Grid strides.
    pub fn strides(&self) -> &Strides {
        &self.s
    }

    /// Predict point `(z, y, x)` (right-aligned coordinates: for 1-D
    /// data use `(0, 0, x)`) from the reconstruction buffer `recon`,
    /// which must hold valid values for all previously visited points
    /// in raster order.
    #[inline]
    pub fn predict(&self, recon: &[f64], z: usize, y: usize, x: usize) -> f64 {
        let st = &self.s;
        let idx = z * st.stride[0] + y * st.stride[1] + x;
        let gx = x > 0;
        let gy = y > 0;
        let gz = z > 0;
        let mut p = 0.0f64;
        if gx {
            p += recon[idx - 1];
        }
        if gy {
            p += recon[idx - st.stride[1]];
        }
        if gz {
            p += recon[idx - st.stride[0]];
        }
        if gx && gy {
            p -= recon[idx - st.stride[1] - 1];
        }
        if gx && gz {
            p -= recon[idx - st.stride[0] - 1];
        }
        if gy && gz {
            p -= recon[idx - st.stride[0] - st.stride[1]];
        }
        if gx && gy && gz {
            p += recon[idx - st.stride[0] - st.stride[1] - 1];
        }
        p
    }
}

/// Lowest Lorenzo order that is exact for a row block of plane `z` in a
/// grid of `ny` rows (the `D` of [`stencil`]): the first plane has no
/// `z − 1` neighbors, and with a single row per plane no `y − 1`
/// neighbors either.
pub(crate) fn stencil_order(z: usize, ny: usize) -> usize {
    match (z, ny) {
        (0, 1) => 1,
        (0, _) => 2,
        _ => 3,
    }
}

/// The prediction of the row-block kernels from the reconstructions at
/// `x−1`, `y−1`, `z−1` and the four corners, accumulated in the fixed
/// `+x +y +z −xy −xz −yz +xyz` order of [`Lorenzo::predict`].
///
/// The kernels read zero rows where `predict` branches. Adding `+0.0`
/// for an absent neighbor is bit-exact because the accumulator can
/// never be `-0.0` mid-chain (it starts at `+0.0`, and IEEE-754
/// round-to-nearest only yields `-0.0` from sums of two negative
/// zeros) — and by the same argument the terms that can only be zero
/// rows may be left out of the serial chain altogether: order `D = 2`
/// evaluates `+x +y −xy`, `D = 1` only `+x`, for blocks where
/// [`stencil_order`] says the rest is zero.
#[inline(always)]
pub(crate) fn stencil<const D: usize>(
    x: f64,
    y: f64,
    z: f64,
    xy: f64,
    xz: f64,
    yz: f64,
    xyz: f64,
) -> f64 {
    match D {
        1 => 0.0 + x,
        2 => ((0.0 + x) + y) - xy,
        _ => ((((((0.0 + x) + y) + z) - xy) - xz) - yz) + xyz,
    }
}

/// Rolling reconstruction state of the row-block kernels: the plane
/// being produced and the one before it — a block reads nothing older.
///
/// Each plane is `(ny + 1) × nx`: row 0 stays all-zero and stands in
/// for neighbors outside the grid, data row `y` is row `y + 1`. On the
/// first plane the `z − 1` neighbors are `cur`'s own zero row, so 2-D
/// data never allocates `prev`. Every row below row 0 is written
/// before it is read, so nothing but the zero rows is ever cleared.
/// A 1-D grid keeps no plane (nothing reads its rows): empty views.
#[derive(Debug, Default)]
pub(crate) struct Planes {
    cur: Vec<f64>,
    prev: Vec<f64>,
    nx: usize,
}

impl Planes {
    /// Size the planes for an `nz × ny × nx` grid (`resize` only fills
    /// what a shape change adds) and restore the zero rows.
    pub(crate) fn reset(&mut self, nz: usize, ny: usize, nx: usize) {
        let len = if nz == 1 && ny == 1 { 0 } else { (ny + 1) * nx };
        self.nx = nx;
        self.cur.resize(len, 0.0);
        self.prev.resize(if nz > 1 { len } else { 0 }, 0.0);
        for plane in [&mut self.cur, &mut self.prev] {
            plane.iter_mut().take(nx).for_each(|v| *v = 0.0);
        }
    }

    /// The finished plane becomes `z − 1`; its predecessor is recycled.
    pub(crate) fn next_plane(&mut self) {
        std::mem::swap(&mut self.cur, &mut self.prev);
    }

    /// The data rows of the current plane and of the one before it
    /// (empty when the grid has one plane).
    pub(crate) fn data_rows(&mut self) -> (&mut [f64], &mut [f64]) {
        let nx = self.nx;
        let prev = self.prev.get_mut(nx..).unwrap_or_default();
        (&mut self.cur[nx..], prev)
    }

    /// Views for the block of `lanes` rows starting at data row `y`:
    /// the reconstruction row over the block, the block's own rows, and
    /// the `z − 1` plane from the row over the block down with its row
    /// stride — on the first plane a single zero row with stride 0.
    pub(crate) fn block(
        &mut self,
        first_plane: bool,
        y: usize,
        lanes: usize,
    ) -> (&[f64], &mut [f64], &[f64], usize) {
        let nx = self.nx;
        if self.cur.is_empty() {
            return (&[], &mut [], &[], 0);
        }
        let (head, tail) = self.cur.split_at_mut((y + 1) * nx);
        let (zp, zs) = if first_plane {
            (&head[..nx], 0)
        } else {
            (&self.prev[y * nx..(y + lanes + 1) * nx], nx)
        };
        (&head[y * nx..], &mut tail[..lanes * nx], zp, zs)
    }
}

/// Planes `z − 1` and `z` of the vector kernels ([`crate::avx2`]) in
/// their wavefront-major layout: row `j` of block `k` at column `x` is
/// slot `(nx + k·nx + x + j)·8 + j`, lane `j` of iteration `k·nx + x + j`,
/// so that an iteration reads and writes its 8 lanes at once. The `nx`
/// zero iterations before the first stand for the rows above the plane.
/// What a scalar kernel reads of a plane produced here comes through
/// one conversion pass into [`Planes`], never a gather per point.
#[derive(Debug, Default)]
pub(crate) struct Skewed {
    recon: [Vec<f64>; 2],
    nx: usize,
    blocks: usize,
}

impl Skewed {
    /// Size for planes of `blocks` blocks of rows of `nx` (`resize` only
    /// fills what a shape change adds) and restore the zero slots.
    pub(crate) fn reset(&mut self, blocks: usize, nx: usize) {
        let len = (nx + blocks * nx + ROWS - 1) * ROWS;
        for plane in &mut self.recon {
            plane.resize(len, 0.0);
            plane[..(nx + ROWS - 1) * ROWS].fill(0.0);
        }
        (self.nx, self.blocks) = (nx, blocks);
    }

    /// Plane `z` becomes `z − 1`.
    pub(crate) fn next_plane(&mut self) {
        self.recon.swap(0, 1);
    }

    /// Plane `z − 1`, to read, and plane `z`, to write.
    pub(crate) fn planes(&mut self) -> (&[f64], &mut [f64]) {
        let [zp, rows] = &mut self.recon;
        (zp, rows)
    }

    /// `(i, s)` for each row of the blocks: the row's first point in
    /// row-major order and its first slot; its point `i + x` is slot
    /// `s + 8·x`.
    fn rows(&self) -> impl Iterator<Item = (usize, usize)> {
        let nx = self.nx;
        (0..self.blocks * ROWS).map(move |r| {
            let (k, j) = (r / ROWS, r % ROWS);
            (r * nx, ((k + 1) * nx + j) * ROWS + j)
        })
    }

    /// Plane `z − 1`'s blocks from `planes`, where a scalar kernel
    /// produced them.
    pub(crate) fn skew_prev(&mut self, planes: &mut Planes) {
        let (_, prev_rows) = planes.data_rows();
        for (i, s) in self.rows() {
            skew(&mut self.recon[0][s..], &prev_rows[i..i + self.nx]);
        }
    }

    /// Plane `z`'s last block row into `planes`, for the rows under the
    /// blocks.
    pub(crate) fn unskew_last(&self, planes: &mut Planes) {
        let (i, s) = self.rows().last().expect("a plane with blocks");
        let (rows, _) = planes.data_rows();
        unskew(&mut rows[i..i + self.nx], &self.recon[1][s..]);
    }

    /// Plane `z − 1`'s blocks into `planes`, for a plane that a scalar
    /// kernel produces.
    pub(crate) fn unskew_prev(&self, planes: &mut Planes) {
        let (_, prev_rows) = planes.data_rows();
        for (i, s) in self.rows() {
            unskew(&mut prev_rows[i..i + self.nx], &self.recon[0][s..]);
        }
    }
}

/// A row into its slots: `row[x]` to `slots[8·x]`.
fn skew(slots: &mut [f64], row: &[f64]) {
    for (slot, &v) in slots.chunks_mut(ROWS).zip(row) {
        slot[0] = v;
    }
}

/// A row out of its slots: `slots[8·x]` to `row[x]`.
fn unskew(row: &mut [f64], slots: &[f64]) {
    for (v, slot) in row.iter_mut().zip(slots.chunks(ROWS)) {
        *v = slot[0];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strides_1d() {
        let s = Strides::new(&Dims::d1(10));
        assert_eq!(s.ext, [1, 1, 10]);
        assert_eq!(s.len(), 10);
    }

    #[test]
    fn strides_3d() {
        let s = Strides::new(&Dims::d3(2, 3, 4));
        assert_eq!(s.ext, [2, 3, 4]);
        assert_eq!(s.stride, [12, 4, 1]);
        assert_eq!(s.len(), 24);
    }

    #[test]
    fn predict_origin_is_zero() {
        let p = Lorenzo::new(&Dims::d3(2, 2, 2));
        let recon = vec![5.0; 8];
        assert_eq!(p.predict(&recon, 0, 0, 0), 0.0);
    }

    #[test]
    fn predict_1d_is_previous_value() {
        let p = Lorenzo::new(&Dims::d1(4));
        let recon = vec![1.0, 2.0, 3.0, 0.0];
        assert_eq!(p.predict(&recon, 0, 0, 3), 3.0);
    }

    #[test]
    fn linear_field_is_predicted_exactly_in_interior() {
        // f(z,y,x) = 2z + 3y + 5x is affine, so the 3-D Lorenzo stencil
        // reproduces it exactly away from the boundary.
        let dims = Dims::d3(4, 4, 4);
        let p = Lorenzo::new(&dims);
        let mut recon = vec![0.0f64; 64];
        for z in 0..4 {
            for y in 0..4 {
                for x in 0..4 {
                    recon[z * 16 + y * 4 + x] = 2.0 * z as f64 + 3.0 * y as f64 + 5.0 * x as f64;
                }
            }
        }
        for z in 1..4 {
            for y in 1..4 {
                for x in 1..4 {
                    let pred = p.predict(&recon, z, y, x);
                    let truth = recon[z * 16 + y * 4 + x];
                    assert!(
                        (pred - truth).abs() < 1e-12,
                        "({z},{y},{x}): {pred} vs {truth}"
                    );
                }
            }
        }
    }

    #[test]
    fn constant_field_interior_exact_2d() {
        let dims = Dims::from_slice(&[5, 5]).unwrap();
        let p = Lorenzo::new(&dims);
        let recon = vec![7.5f64; 25];
        // interior of a constant field: pred = c + c - c = c
        assert!((p.predict(&recon, 0, 2, 3) - 7.5).abs() < 1e-12);
    }
}
