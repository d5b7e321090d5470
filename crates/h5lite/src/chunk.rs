//! Chunk-tile geometry: gathering and scattering N-D tiles (rank ≤ 3)
//! between a dataset's row-major buffer and per-chunk contiguous
//! buffers, including clipped edge chunks.

use crate::error::{H5Error, Result};

/// Pad extents to 3-D (slow axes = 1), mirroring HDF5's row-major order.
fn pad3(dims: &[u64]) -> [u64; 3] {
    let mut e = [1u64; 3];
    let off = 3 - dims.len();
    for (i, &d) in dims.iter().enumerate() {
        e[off + i] = d;
    }
    e
}

/// Geometry of one chunk within a chunked dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TileGeom {
    /// Start coordinates (z, y, x).
    start: [u64; 3],
    /// Tile extents, clipped at dataset edges.
    extent: [u64; 3],
}

impl TileGeom {
    /// Elements in the tile.
    fn len(&self) -> u64 {
        self.extent.iter().product()
    }
}

/// A chunk grid this module can address: rank 1..=3 on both sides, no
/// empty chunk. Extents come from the metadata table, outside input.
fn check_grid(dims: &[u64], chunk_dims: &[u64]) -> Result<()> {
    if dims.len() != chunk_dims.len() || dims.is_empty() || dims.len() > 3 {
        return Err(H5Error::Corrupt("tile rank"));
    }
    if chunk_dims.contains(&0) {
        return Err(H5Error::Corrupt("zero chunk extent"));
    }
    Ok(())
}

/// Compute the geometry of chunk `chunk_idx` (row-major chunk grid).
fn tile_geom(dims: &[u64], chunk_dims: &[u64], chunk_idx: u64) -> Result<TileGeom> {
    check_grid(dims, chunk_dims)?;
    let d = pad3(dims);
    let c = pad3(chunk_dims);
    let grid = [
        d[0].div_ceil(c[0]),
        d[1].div_ceil(c[1]),
        d[2].div_ceil(c[2]),
    ];
    let total = grid[0] * grid[1] * grid[2];
    if chunk_idx >= total {
        return Err(H5Error::Corrupt("chunk index out of grid"));
    }
    let gz = chunk_idx / (grid[1] * grid[2]);
    let gy = (chunk_idx / grid[2]) % grid[1];
    let gx = chunk_idx % grid[2];
    let start = [gz * c[0], gy * c[1], gx * c[2]];
    let extent = [
        c[0].min(d[0] - start[0]),
        c[1].min(d[1] - start[1]),
        c[2].min(d[2] - start[2]),
    ];
    Ok(TileGeom { start, extent })
}

/// Extract chunk `chunk_idx` of the full row-major `data` buffer into
/// `out` (cleared first), reusing the buffer's allocation — the per-tile
/// path of the compression pipeline calls this once per chunk per
/// worker.
pub fn gather_tile_into(
    data: &[u8],
    dims: &[u64],
    elem: usize,
    chunk_dims: &[u64],
    chunk_idx: u64,
    out: &mut Vec<u8>,
) -> Result<()> {
    let d = pad3(dims);
    let g = tile_geom(dims, chunk_dims, chunk_idx)?;
    let expected = d.iter().product::<u64>() as usize * elem;
    if data.len() != expected {
        return Err(H5Error::ShapeMismatch {
            expected: expected as u64,
            actual: data.len() as u64,
        });
    }
    let row_bytes = g.extent[2] as usize * elem;
    out.clear();
    out.reserve(g.len() as usize * elem);
    for z in 0..g.extent[0] {
        for y in 0..g.extent[1] {
            let gz = g.start[0] + z;
            let gy = g.start[1] + y;
            let off = ((gz * d[1] + gy) * d[2] + g.start[2]) as usize * elem;
            out.extend_from_slice(&data[off..off + row_bytes]);
        }
    }
    Ok(())
}

/// Points in chunk `chunk_idx`'s tile, clipped at the dataset's edges.
pub(crate) fn tile_points(dims: &[u64], chunk_dims: &[u64], chunk_idx: u64) -> Result<usize> {
    Ok(tile_geom(dims, chunk_dims, chunk_idx)?.len() as usize)
}

/// Points per chunk when every chunk is one contiguous run of the
/// row-major dataset — every chunk extent but the slowest spans the
/// dataset's, so chunk `i` is the `i`-th run of that many points (the
/// last one possibly short). `None` when tiles interleave rows.
pub(crate) fn slab_points(dims: &[u64], chunk_dims: &[u64]) -> Result<Option<usize>> {
    check_grid(dims, chunk_dims)?;
    let (d, c) = (pad3(dims), pad3(chunk_dims));
    // The slowest axis with more than one row is the one chunks may
    // split; every faster axis has to be whole.
    let k = d.iter().position(|&e| e > 1).unwrap_or(2);
    let whole_rows = (k + 1..3).all(|j| c[j] >= d[j]);
    Ok(whole_rows.then(|| (c[k].min(d[k]) * d[k + 1..].iter().product::<u64>()) as usize))
}

/// Insert a tile back into the full row-major `out` buffer. `elem` is
/// the number of `T`s one dataset point takes: its byte size for byte
/// buffers, 1 for typed ones.
pub fn scatter_tile<T: Copy>(
    out: &mut [T],
    dims: &[u64],
    elem: usize,
    chunk_dims: &[u64],
    chunk_idx: u64,
    tile: &[T],
) -> Result<()> {
    let g = tile_geom(dims, chunk_dims, chunk_idx)?;
    let d = pad3(dims);
    let expected = d.iter().product::<u64>() as usize * elem;
    if out.len() != expected {
        return Err(H5Error::ShapeMismatch {
            expected: expected as u64,
            actual: out.len() as u64,
        });
    }
    let tile_expected = g.len() as usize * elem;
    if tile.len() != tile_expected {
        return Err(H5Error::ShapeMismatch {
            expected: tile_expected as u64,
            actual: tile.len() as u64,
        });
    }
    let row_len = g.extent[2] as usize * elem;
    let mut src = 0usize;
    for z in 0..g.extent[0] {
        for y in 0..g.extent[1] {
            let gz = g.start[0] + z;
            let gy = g.start[1] + y;
            let off = ((gz * d[1] + gy) * d[2] + g.start[2]) as usize * elem;
            out[off..off + row_len].copy_from_slice(&tile[src..src + row_len]);
            src += row_len;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geom_even_grid() {
        let g = tile_geom(&[4, 4, 4], &[2, 2, 2], 0).unwrap();
        assert_eq!(g.start, [0, 0, 0]);
        assert_eq!(g.extent, [2, 2, 2]);
        let g7 = tile_geom(&[4, 4, 4], &[2, 2, 2], 7).unwrap();
        assert_eq!(g7.start, [2, 2, 2]);
    }

    #[test]
    fn geom_edge_clipping() {
        // 5 wide with chunk 2: last chunk is width 1.
        let g = tile_geom(&[5], &[2], 2).unwrap();
        assert_eq!(g.start[2], 4);
        assert_eq!(g.extent[2], 1);
    }

    #[test]
    fn geom_rejects_out_of_grid() {
        assert!(tile_geom(&[4, 4], &[2, 2], 4).is_err());
        assert!(tile_geom(&[4], &[0], 0).is_err());
    }

    #[test]
    fn gather_scatter_roundtrip_3d() {
        let dims = [4u64, 6, 8];
        let n: usize = (4 * 6 * 8) as usize;
        let data: Vec<u8> = (0..n * 2).map(|i| (i % 251) as u8).collect(); // elem=2
        let chunk = [2u64, 3, 4];
        let n_chunks = 2 * 2 * 2;
        let (mut rebuilt, mut tile) = (vec![0u8; data.len()], Vec::new());
        for c in 0..n_chunks {
            gather_tile_into(&data, &dims, 2, &chunk, c, &mut tile).unwrap();
            scatter_tile(&mut rebuilt, &dims, 2, &chunk, c, &tile).unwrap();
        }
        assert_eq!(rebuilt, data);
    }

    #[test]
    fn gather_scatter_roundtrip_1d_ragged() {
        let dims = [10u64];
        let data: Vec<u8> = (0..40).collect(); // f32-like elem=4
        let chunk = [4u64];
        let (mut rebuilt, mut tile) = (vec![0u8; 40], Vec::new());
        for c in 0..3 {
            gather_tile_into(&data, &dims, 4, &chunk, c, &mut tile).unwrap();
            scatter_tile(&mut rebuilt, &dims, 4, &chunk, c, &tile).unwrap();
        }
        assert_eq!(rebuilt, data);
    }

    #[test]
    fn slabs_are_runs_and_tiles_are_not() {
        // One slab per rank, short last slab, a chunk wider than the
        // dataset, every 1-D layout, a contiguous dataset.
        assert_eq!(slab_points(&[10, 4, 6], &[4, 4, 6]).unwrap(), Some(96));
        assert_eq!(slab_points(&[10, 4, 6], &[4, 9, 6]).unwrap(), Some(96));
        assert_eq!(slab_points(&[10], &[4]).unwrap(), Some(4));
        assert_eq!(slab_points(&[5, 7], &[5, 7]).unwrap(), Some(35));
        assert_eq!(slab_points(&[5, 7], &[9, 9]).unwrap(), Some(35));
        // Tiles that split a faster axis interleave rows.
        assert_eq!(slab_points(&[8, 8, 8], &[4, 4, 8]).unwrap(), None);
        assert_eq!(slab_points(&[8, 8], &[8, 4]).unwrap(), None);
        // A leading extent of one is no axis at all.
        assert_eq!(slab_points(&[1, 8, 8], &[1, 4, 8]).unwrap(), Some(32));
        assert_eq!(slab_points(&[1, 8, 8], &[1, 4, 4]).unwrap(), None);
        assert_eq!(tile_points(&[10, 4, 6], &[4, 4, 6], 2).unwrap(), 48);
        assert_eq!(tile_points(&[5, 5], &[2, 2], 8).unwrap(), 1);
        assert!(slab_points(&[4, 4], &[2, 0]).is_err());
        assert!(slab_points(&[4, 4, 4, 4], &[2, 2, 2, 2]).is_err());
        assert!(tile_points(&[4, 4], &[2, 2], 4).is_err());
    }

    #[test]
    fn shape_mismatch_detected() {
        assert!(gather_tile_into(&[0u8; 10], &[4], 4, &[2], 0, &mut Vec::new()).is_err());
        let mut out = vec![0u8; 16];
        assert!(scatter_tile(&mut out, &[4], 4, &[2], 0, &[0u8; 3]).is_err());
    }
}
