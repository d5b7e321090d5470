//! CRC32C (Castagnoli) — the per-chunk integrity checksum of the v2
//! container format.
//!
//! CRC32C is the checksum HDF5's Fletcher filter competes with and the
//! one modern storage stacks (iSCSI, ext4, Btrfs) standardized on: it
//! detects all single-bit flips, all double-bit flips within the
//! payload sizes used here, and any burst shorter than 32 bits —
//! exactly the bit-rot and torn-tail classes the scrub pass
//! classifies. The implementation is a table-driven slice-by-8 in
//! plain safe Rust (no hardware intrinsics, no dependencies); the
//! tables are built at compile time.

/// Reflected CRC32C polynomial.
const POLY: u32 = 0x82F6_3B78;

/// Slice-by-8 lookup tables, generated at compile time.
const TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0usize;
    while i < 256 {
        let mut crc = i as u32;
        let mut b = 0;
        while b < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            b += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1usize;
    while k < 8 {
        let mut i = 0usize;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = t[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    t
}

/// Incremental CRC32C state — feed bytes with [`Crc32c::update`],
/// finish with [`Crc32c::finalize`].
#[derive(Debug, Clone, Copy)]
struct Crc32c(u32);

impl Crc32c {
    /// Fresh state.
    fn new() -> Self {
        Crc32c(!0)
    }

    /// Fold `data` into the checksum.
    fn update(&mut self, data: &[u8]) {
        let mut crc = self.0;
        let mut chunks = data.chunks_exact(8);
        for w in &mut chunks {
            let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ crc;
            let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
            crc = TABLES[7][(lo & 0xFF) as usize]
                ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
                ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
                ^ TABLES[4][(lo >> 24) as usize]
                ^ TABLES[3][(hi & 0xFF) as usize]
                ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
                ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
                ^ TABLES[0][(hi >> 24) as usize];
        }
        for &b in chunks.remainder() {
            crc = TABLES[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
        }
        self.0 = crc;
    }

    /// Final checksum value.
    fn finalize(self) -> u32 {
        !self.0
    }
}

/// CRC32C of a byte slice in one call.
pub fn crc32c(data: &[u8]) -> u32 {
    let mut c = Crc32c::new();
    c.update(data);
    c.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // RFC 3720 appendix B.4 test vectors.
        assert_eq!(crc32c(b""), 0);
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c(&[0u8; 32]), 0x8A91_36AA);
        assert_eq!(crc32c(&[0xFFu8; 32]), 0x62A8_AB43);
        let ascending: Vec<u8> = (0u8..32).collect();
        assert_eq!(crc32c(&ascending), 0x46DD_794E);
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i * 37) as u8).collect();
        for split in [0, 1, 7, 8, 9, 500, 999, 1000] {
            let mut c = Crc32c::new();
            c.update(&data[..split]);
            c.update(&data[split..]);
            assert_eq!(c.finalize(), crc32c(&data), "split {split}");
        }
    }

    #[test]
    fn detects_single_bit_flips() {
        let data = vec![0xA5u8; 256];
        let clean = crc32c(&data);
        for byte in [0usize, 100, 255] {
            for bit in 0..8 {
                let mut bad = data.clone();
                bad[byte] ^= 1 << bit;
                assert_ne!(crc32c(&bad), clean, "byte {byte} bit {bit}");
            }
        }
    }

    #[test]
    fn detects_truncation() {
        let data: Vec<u8> = (0..64u8).collect();
        let clean = crc32c(&data);
        for cut in [1, 32, 63] {
            assert_ne!(crc32c(&data[..cut]), clean, "cut {cut}");
        }
    }
}
