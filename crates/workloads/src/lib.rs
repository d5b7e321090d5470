//! # workloads — synthetic HPC datasets
//!
//! Seeded, deterministic stand-ins for the datasets the paper
//! evaluates on (its Table I): Nyx cosmology snapshots, VPIC particle
//! dumps, and the RTM wavefields used in its Fig. 5. Production data
//! is not redistributable, so each generator reproduces the
//! *statistical properties the paper's design depends on*:
//!
//! * per-partition compressed bit-rates spread over a wide range
//!   (Fig. 1) — from spatial clustering / heterogeneous smoothness;
//! * multiple fields per snapshot with different compressibility;
//! * an evolution parameter (red shift) for time-step sweeps (Fig. 15).
//!
//! See `DESIGN.md` §2 for the substitution rationale.

pub mod field;
pub mod noise;
pub mod nyx;
pub mod partition;
pub mod rtm;
pub mod stream;
pub mod vpic;

pub use field::{Dataset, Field};
pub use nyx::NyxParams;
pub use partition::{factor3, split_1d, Decomposition};
pub use rtm::RtmParams;
pub use stream::{SnapshotStream, StreamKind};
pub use vpic::VpicParams;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nyx_partitions_have_heterogeneous_ranges() {
        // The core claim imported from the paper's Fig. 1: partitions of
        // the same field differ widely in local structure.
        let ds = nyx::snapshot(NyxParams::with_side(32));
        let f = ds.field("baryon_density").unwrap();
        let dec = Decomposition::new(8, [32, 32, 32]);
        let mut ranges: Vec<f64> = (0..8)
            .map(|r| {
                let blk = dec.extract(f, r);
                let mx = blk.iter().cloned().fold(f32::MIN, f32::max);
                let mn = blk.iter().cloned().fold(f32::MAX, f32::min);
                f64::from(mx - mn)
            })
            .collect();
        ranges.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!(
            ranges[7] > ranges[0] * 1.5,
            "partition ranges too uniform: {ranges:?}"
        );
    }
}
