//! Domain decomposition: split fields into per-process partitions.
//!
//! HPC codes assign each MPI rank one sub-block per field; the rank's
//! partitions of all fields are what the paper's per-process
//! compression/write pipeline operates on.

use crate::field::Field;

/// A 3-D process-grid decomposition of a cubic/cuboid domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decomposition {
    /// Process grid extents (pz, py, px); product = process count.
    pub grid: [usize; 3],
    /// Global domain extents (nz, ny, nx).
    pub domain: [usize; 3],
    /// Block extents per process (bz, by, bx).
    pub block: [usize; 3],
}

impl Decomposition {
    /// Choose a near-cubic process grid of `nprocs` ranks over `domain`
    /// (extents must divide evenly; panics otherwise — generators
    /// always produce power-of-two sides).
    pub fn new(nprocs: usize, domain: [usize; 3]) -> Self {
        assert!(nprocs > 0);
        let grid = factor3(nprocs);
        let block = [
            domain[0] / grid[0],
            domain[1] / grid[1],
            domain[2] / grid[2],
        ];
        assert!(
            block[0] * grid[0] == domain[0]
                && block[1] * grid[1] == domain[1]
                && block[2] * grid[2] == domain[2],
            "process grid {grid:?} does not divide domain {domain:?}"
        );
        assert!(block.iter().all(|&b| b > 0), "more processes than cells");
        Decomposition {
            grid,
            domain,
            block,
        }
    }

    /// Number of ranks.
    pub fn nprocs(&self) -> usize {
        self.grid.iter().product()
    }

    /// Points per block.
    fn block_len(&self) -> usize {
        self.block.iter().product()
    }

    /// Block coordinates of `rank` in the process grid.
    fn coords(&self, rank: usize) -> [usize; 3] {
        let pyx = self.grid[1] * self.grid[2];
        [
            rank / pyx,
            (rank / self.grid[2]) % self.grid[1],
            rank % self.grid[2],
        ]
    }

    /// Extract rank `rank`'s contiguous sub-block of `field`.
    pub fn extract(&self, field: &Field, rank: usize) -> Vec<f32> {
        assert_eq!(field.dims.len(), 3, "extract requires a 3-D field");
        assert_eq!(field.dims, self.domain.to_vec());
        let [cz, cy, cx] = self.coords(rank);
        let [bz, by, bx] = self.block;
        let (ny, nx) = (self.domain[1], self.domain[2]);
        let mut out = Vec::with_capacity(self.block_len());
        for z in 0..bz {
            let gz = cz * bz + z;
            for y in 0..by {
                let gy = cy * by + y;
                let row = (gz * ny + gy) * nx + cx * bx;
                out.extend_from_slice(&field.data[row..row + bx]);
            }
        }
        out
    }
}

/// Split a 1-D (particle) field into `nprocs` nearly equal chunks.
pub fn split_1d(field: &Field, nprocs: usize) -> Vec<Vec<f32>> {
    assert!(nprocs > 0);
    let n = field.data.len();
    let base = n / nprocs;
    let rem = n % nprocs;
    let mut out = Vec::with_capacity(nprocs);
    let mut start = 0usize;
    for r in 0..nprocs {
        let len = base + usize::from(r < rem);
        out.push(field.data[start..start + len].to_vec());
        start += len;
    }
    out
}

/// Factor `n` into three near-equal factors (largest first).
pub fn factor3(n: usize) -> [usize; 3] {
    let mut best = [n, 1, 1];
    let mut best_score = usize::MAX;
    let mut a = 1;
    while a * a * a <= n {
        if n.is_multiple_of(a) {
            let m = n / a;
            let mut b = a;
            while b * b <= m {
                if m.is_multiple_of(b) {
                    let c = m / b;
                    // score: spread between max and min factor
                    let score = c - a;
                    if score < best_score {
                        best_score = score;
                        best = [c, b, a];
                    }
                }
                b += 1;
            }
        }
        a += 1;
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::Field;

    #[test]
    fn factor3_cases() {
        assert_eq!(factor3(8), [2, 2, 2]);
        assert_eq!(factor3(64), [4, 4, 4]);
        assert_eq!(factor3(512), [8, 8, 8]);
        assert_eq!(factor3(2), [2, 1, 1]);
        let f = factor3(12);
        assert_eq!(f.iter().product::<usize>(), 12);
    }

    #[test]
    fn extract_blocks_cover_domain() {
        let side = 8;
        let data: Vec<f32> = (0..side * side * side).map(|i| i as f32).collect();
        let f = Field::new("t", data.clone(), vec![side, side, side]);
        let dec = Decomposition::new(8, [side, side, side]);
        assert_eq!(dec.block, [4, 4, 4]);
        let mut seen = vec![false; data.len()];
        for r in 0..8 {
            let blk = dec.extract(&f, r);
            assert_eq!(blk.len(), 64);
            for v in blk {
                let idx = v as usize;
                assert!(!seen[idx], "value {idx} extracted twice");
                seen[idx] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn extract_is_contiguous_subcube() {
        let side = 4;
        let data: Vec<f32> = (0..64).map(|i| i as f32).collect();
        let f = Field::new("t", data, vec![side, side, side]);
        let dec = Decomposition::new(1, [side, side, side]);
        let blk = dec.extract(&f, 0);
        assert_eq!(blk, f.data);
    }

    #[test]
    fn split_1d_even_and_ragged() {
        let f = Field::new("p", (0..10).map(|i| i as f32).collect(), vec![10]);
        let parts = split_1d(&f, 3);
        assert_eq!(
            parts.iter().map(Vec::len).collect::<Vec<_>>(),
            vec![4, 3, 3]
        );
        let all: Vec<f32> = parts.concat();
        assert_eq!(all, f.data);
    }

    #[test]
    fn coords_roundtrip() {
        let dec = Decomposition::new(8, [8, 8, 8]);
        for r in 0..8 {
            let [z, y, x] = dec.coords(r);
            assert_eq!(z * 4 + y * 2 + x, r);
        }
    }
}
