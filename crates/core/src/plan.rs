//! Shared-file layout planning from gathered predictions.
//!
//! After the all-gather of per-partition predicted sizes, **every rank
//! computes the same layout independently** (the paper's consistency
//! argument: identical inputs → identical offsets, no further
//! communication). The layout places each field's partitions
//! consecutively in rank order, each padded by the extra-space policy.

use std::convert::Infallible;

/// Prediction for one partition as distributed by the all-gather.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartitionPrediction {
    /// Predicted compressed bytes.
    pub bytes: u64,
    /// Predicted compression ratio (drives Eq. 3).
    pub ratio: f64,
}

/// Planned placement of one partition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartitionSlot {
    /// Absolute offset in the shared file.
    pub offset: u64,
    /// Reserved length (prediction × effective extra-space ratio).
    pub reserved: u64,
    /// The prediction the reservation came from.
    pub predicted: u64,
}

/// Full layout: `slots[rank][field]` plus the end of the reserved
/// region (where overflow appends begin).
#[derive(Debug, Clone, PartialEq)]
pub struct WritePlan {
    /// Per-rank, per-field slots.
    pub slots: Vec<Vec<PartitionSlot>>,
    /// First byte offset of the layout.
    pub base: u64,
    /// One past the last reserved byte.
    pub data_end: u64,
}

impl WritePlan {
    /// Build the layout from gathered predictions
    /// (`predictions[rank][field]`) and per-partition reservations
    /// (`reserved[rank][field]`), starting at `base`.
    ///
    /// Field-major placement: all ranks' partitions of field 0, then
    /// field 1, … — matching one HDF5 dataset per field with one chunk
    /// per rank. The result is a pure function of its inputs, so every
    /// rank derives the identical layout from the gathered predictions.
    pub fn build_reserved(
        predictions: &[Vec<PartitionPrediction>],
        reserved: &[Vec<u64>],
        base: u64,
    ) -> WritePlan {
        let nranks = predictions.len();
        let nfields = predictions.first().map_or(0, Vec::len);
        debug_assert!(predictions.iter().all(|p| p.len() == nfields));
        debug_assert_eq!(reserved.len(), nranks);
        debug_assert!(reserved.iter().all(|r| r.len() == nfields));

        let mut slots = vec![
            vec![
                PartitionSlot {
                    offset: 0,
                    reserved: 0,
                    predicted: 0
                };
                nfields
            ];
            nranks
        ];
        let mut cursor = base;
        for f in 0..nfields {
            for (r, rank_preds) in predictions.iter().enumerate() {
                slots[r][f] = PartitionSlot {
                    offset: cursor,
                    reserved: reserved[r][f],
                    predicted: rank_preds[f].bytes,
                };
                cursor += reserved[r][f];
            }
        }
        WritePlan {
            slots,
            base,
            data_end: cursor,
        }
    }

    /// Layout of partitions whose sizes are known
    /// (`sizes[rank][field]`): every slot is exactly its partition's
    /// size — the methods that do not predict.
    pub fn exact(sizes: &[Vec<u64>], base: u64) -> WritePlan {
        let known = |&bytes: &u64| PartitionPrediction { bytes, ratio: 1.0 };
        let predictions: Vec<Vec<_>> = sizes
            .iter()
            .map(|row| row.iter().map(known).collect())
            .collect();
        WritePlan::build_reserved(&predictions, sizes, base)
    }

    /// Total reserved bytes.
    pub fn reserved_total(&self) -> u64 {
        self.data_end - self.base
    }

    /// One rank's view of the layout — everything the write engine
    /// actually consumes for rank `rank` (its own slot row plus the
    /// shared overflow base).
    pub fn rank_view(&self, rank: usize) -> RankPlanView {
        RankPlanView {
            slots: self.slots[rank].clone(),
            base: self.base,
            data_end: self.data_end,
        }
    }

    /// Check the invariant that slots are disjoint and sorted.
    pub fn is_disjoint(&self) -> bool {
        let mut all: Vec<(u64, u64)> = self
            .slots
            .iter()
            .flatten()
            .map(|s| (s.offset, s.reserved))
            .collect();
        all.sort_unstable();
        all.windows(2).all(|w| w[0].0 + w[0].1 <= w[1].0)
    }
}

/// One rank's slice of a [`WritePlan`]: its own per-field slots plus
/// the shared layout bounds. This is the complete planner output a
/// rank needs to write — offsets of its own partitions and the
/// `data_end` where overflow appends begin.
#[derive(Debug, Clone, PartialEq)]
pub struct RankPlanView {
    /// This rank's slot per field.
    pub slots: Vec<PartitionSlot>,
    /// First byte offset of the layout.
    pub base: u64,
    /// One past the last reserved byte (start of the overflow region).
    pub data_end: u64,
}

/// Per-rank reservation-collective wire cost, bytes received per step:
/// the all-gather delivers one `(bytes, ratio, headroom)` triple —
/// what the layout needs of a `SourceEstimate` — per (rank, field) to
/// every rank.
///
/// The third parameter is uninhabited beyond `None`: it is kept only
/// because `benchmark/API.md` pins the call
/// `reservation_wire_bytes(nranks, nfields, None)` (ROADMAP item 1's
/// benchmark-only PR removes it).
pub fn reservation_wire_bytes(nranks: usize, nfields: usize, _group: Option<Infallible>) -> u64 {
    const TRIPLE: u64 = 24; // (u64, f64, Option<f64> as f64)
    (nranks * nfields) as u64 * TRIPLE
}

/// Outcome of one partition's compression vs. its reservation: the
/// fitting prefix goes to the reserved slot, the excess to the
/// overflow region (paper Fig. 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FitSplit {
    /// Bytes written into the reserved slot.
    pub in_slot: u64,
    /// Excess bytes redirected to the overflow region.
    pub overflow: u64,
}

/// Split an actual compressed size against a reservation.
pub fn fit_split(actual: u64, reserved: u64) -> FitSplit {
    if actual <= reserved {
        FitSplit {
            in_slot: actual,
            overflow: 0,
        }
    } else {
        FitSplit {
            in_slot: reserved,
            overflow: actual - reserved,
        }
    }
}

/// Plan the overflow region: given gathered overflow sizes
/// (`overflow[rank][field]`), the slot offsets of
/// `WritePlan::exact(overflow, data_end)` — consecutive from `data_end`
/// in the main layout's field-major order, and like it deterministic
/// across ranks.
pub fn plan_overflow(overflow: &[Vec<u64>], data_end: u64) -> Vec<Vec<u64>> {
    let plan = WritePlan::exact(overflow, data_end);
    let offsets = |row: &Vec<PartitionSlot>| row.iter().map(|s| s.offset).collect();
    plan.slots.iter().map(offsets).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extraspace::ExtraSpacePolicy;

    /// The layout of `p` with every partition reserved under `policy`.
    fn planned(p: &[Vec<PartitionPrediction>], policy: &ExtraSpacePolicy, base: u64) -> WritePlan {
        let reserve = |q: &PartitionPrediction| policy.reserve_bytes(q.bytes, q.ratio);
        let reserved: Vec<Vec<u64>> = p
            .iter()
            .map(|row| row.iter().map(reserve).collect())
            .collect();
        WritePlan::build_reserved(p, &reserved, base)
    }

    fn preds(vals: &[&[u64]]) -> Vec<Vec<PartitionPrediction>> {
        vals.iter()
            .map(|row| {
                row.iter()
                    .map(|&b| PartitionPrediction {
                        bytes: b,
                        ratio: 10.0,
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn layout_is_field_major_and_disjoint() {
        let p = preds(&[&[100, 200], &[50, 80]]);
        let plan = planned(&p, &ExtraSpacePolicy::new(1.0), 32);
        assert!(plan.is_disjoint());
        // field 0: rank0 @32 len100, rank1 @132 len50; field 1 follows.
        assert_eq!(plan.slots[0][0].offset, 32);
        assert_eq!(plan.slots[1][0].offset, 132);
        assert_eq!(plan.slots[0][1].offset, 182);
        assert_eq!(plan.slots[1][1].offset, 382);
        assert_eq!(plan.data_end, 462);
        assert_eq!(plan.reserved_total(), 430);
    }

    #[test]
    fn extra_space_inflates_slots() {
        let p = preds(&[&[100]]);
        let plan = planned(&p, &ExtraSpacePolicy::new(1.25), 0);
        assert_eq!(plan.slots[0][0].reserved, 125);
    }

    #[test]
    fn eq3_applies_per_partition() {
        let p = vec![vec![
            PartitionPrediction {
                bytes: 100,
                ratio: 10.0,
            },
            PartitionPrediction {
                bytes: 100,
                ratio: 50.0,
            },
        ]];
        let plan = planned(&p, &ExtraSpacePolicy::new(1.25), 0);
        assert_eq!(plan.slots[0][0].reserved, 125);
        assert_eq!(plan.slots[0][1].reserved, 200); // widened by Eq. 3
    }

    #[test]
    fn build_reserved_honors_per_partition_reserves() {
        let p = preds(&[&[100, 200], &[50, 80]]);
        let reserved = vec![vec![110u64, 260], vec![50, 96]];
        let plan = WritePlan::build_reserved(&p, &reserved, 32);
        assert!(plan.is_disjoint());
        // field-major: f0 r0 @32 (110), f0 r1 @142 (50), f1 r0 @192
        // (260), f1 r1 @452 (96).
        assert_eq!(plan.slots[0][0].reserved, 110);
        assert_eq!(plan.slots[1][0].offset, 142);
        assert_eq!(plan.slots[0][1].offset, 192);
        assert_eq!(plan.slots[1][1].offset, 452);
        assert_eq!(plan.data_end, 548);
        // Predictions pass through untouched.
        assert_eq!(plan.slots[1][1].predicted, 80);
    }

    #[test]
    fn deterministic_rebuild() {
        let p = preds(&[&[10, 20, 30], &[5, 15, 25], &[7, 7, 7]]);
        let a = planned(&p, &ExtraSpacePolicy::default(), 64);
        let b = planned(&p, &ExtraSpacePolicy::default(), 64);
        assert_eq!(a, b);
    }

    #[test]
    fn fit_split_cases() {
        assert_eq!(
            fit_split(80, 100),
            FitSplit {
                in_slot: 80,
                overflow: 0
            }
        );
        assert_eq!(
            fit_split(100, 100),
            FitSplit {
                in_slot: 100,
                overflow: 0
            }
        );
        assert_eq!(
            fit_split(130, 100),
            FitSplit {
                in_slot: 100,
                overflow: 30
            }
        );
    }

    #[test]
    fn fit_split_conserves_bytes() {
        for actual in [0u64, 1, 99, 100, 101, 1000] {
            let s = fit_split(actual, 100);
            assert_eq!(s.in_slot + s.overflow, actual);
            assert!(s.in_slot <= 100);
        }
    }

    #[test]
    fn overflow_offsets_consecutive() {
        let ovf = vec![vec![0, 30], vec![10, 0]];
        let off = plan_overflow(&ovf, 1000);
        // field-major: rank0/f0 @1000 (len 0), rank1/f0 @1000 (len 10),
        // rank0/f1 @1010 (30), rank1/f1 @1040 (0).
        assert_eq!(off[0][0], 1000);
        assert_eq!(off[1][0], 1000);
        assert_eq!(off[0][1], 1010);
        assert_eq!(off[1][1], 1040);
    }

    #[test]
    fn plan_overflow_zero_overflow() {
        // No partition overflowed: every offset is data_end and the
        // region consumes no space (the next append would start there).
        let ovf = vec![vec![0u64; 3]; 4];
        let off = plan_overflow(&ovf, 4096);
        assert!(off.iter().flatten().all(|&o| o == 4096));
        // An appended region planned right after must also start at
        // data_end — zero overflow moved the cursor by nothing.
        let again = plan_overflow(&[vec![8]], 4096);
        assert_eq!(again[0][0], 4096);
    }

    #[test]
    fn plan_overflow_all_overflow() {
        // Every partition overflowed: spans must tile [data_end, end)
        // contiguously in field-major order with no gaps or overlap.
        let ovf = vec![vec![10u64, 40], vec![20, 5]];
        let off = plan_overflow(&ovf, 100);
        let mut spans: Vec<(u64, u64)> = Vec::new();
        for (r, row) in off.iter().enumerate() {
            for (f, &o) in row.iter().enumerate() {
                assert!(o >= 100);
                spans.push((o, ovf[r][f]));
            }
        }
        spans.sort_unstable();
        let total: u64 = ovf.iter().flatten().sum();
        let mut cursor = 100;
        for (o, len) in spans {
            assert_eq!(o, cursor, "gap or overlap in overflow layout");
            cursor += len;
        }
        assert_eq!(cursor, 100 + total);
    }

    #[test]
    fn plan_overflow_empty_inputs() {
        assert!(plan_overflow(&[], 500).is_empty());
        let off = plan_overflow(&[vec![], vec![]], 500);
        assert_eq!(off, vec![Vec::<u64>::new(), Vec::new()]);
    }

    #[test]
    fn empty_plan() {
        let plan = planned(&[], &ExtraSpacePolicy::default(), 0);
        assert_eq!(plan.data_end, 0);
        assert!(plan.is_disjoint());
    }

    #[test]
    fn wire_bytes_flat() {
        // 4096 ranks × 4 fields: 4096·4·24 bytes per rank.
        assert_eq!(reservation_wire_bytes(4096, 4, None), 4096 * 4 * 24);
    }
}
