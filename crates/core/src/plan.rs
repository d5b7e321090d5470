//! Shared-file layout planning from gathered reservations.
//!
//! After the all-gather of every rank's reserved total, **every rank
//! computes the same layout independently** (the paper's consistency
//! argument: identical inputs → identical offsets, no further
//! communication). The layout is rank-major: each rank owns one
//! contiguous run of the file, after the lower ranks' runs, holding
//! its partitions' slots in field order, each sized by the extra-space
//! policy or the rank's adaptive headroom.
//!
//! A rank writes into *regions*: a region is a run of its slots that
//! share one cursor ([`Regions`]). In the paper's layout
//! ([`Pooling::Slots`]) every slot is its own region; a pooled rank
//! ([`Pooling::Region`]) has one region, its whole run, and places its
//! fields into it in the order it writes them — a field that comes in
//! large uses the slack its siblings left. Either way only what does
//! not fit goes to the overflow region past `data_end`.

use std::convert::Infallible;

/// Prediction for one partition as the planner sees it.
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

/// How a rank reserves its partitions: the unit its headroom applies
/// to and its cursors move over.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pooling {
    /// Every partition its own region, sized by the engine's
    /// extra-space policy (Eq. 3) — the paper's §III-D.
    Slots,
    /// One region for all of the rank's partitions, each reserving its
    /// estimate × the rank's headroom — or the policy's reservation
    /// while the rank's history warms up (`None`).
    Region(Option<f64>),
}

/// Full layout: `slots[rank][field]`, rank-major, plus the end of the
/// reserved area (where overflow appends begin).
#[derive(Debug, Clone, PartialEq)]
pub struct WritePlan {
    /// Per-rank, per-field slots.
    pub slots: Vec<Vec<PartitionSlot>>,
    /// First byte offset of the layout.
    pub base: u64,
    /// One past the last reserved byte.
    pub data_end: u64,
}

/// One rank's slots laid out consecutively from `offset`, in field
/// order.
fn rank_slots(
    predictions: &[PartitionPrediction],
    reserved: &[u64],
    mut offset: u64,
) -> Vec<PartitionSlot> {
    debug_assert_eq!(predictions.len(), reserved.len());
    let slot = |(p, &reserved): (&PartitionPrediction, &u64)| {
        let slot = PartitionSlot {
            offset,
            reserved,
            predicted: p.bytes,
        };
        offset += reserved;
        slot
    };
    predictions.iter().zip(reserved).map(slot).collect()
}

impl WritePlan {
    /// Build the layout from gathered predictions
    /// (`predictions[rank][field]`) and per-partition reservations
    /// (`reserved[rank][field]`), starting at `base`.
    ///
    /// Rank-major placement: rank 0's partitions of every field, then
    /// rank 1's, … — each rank's reservations one contiguous run, so a
    /// rank's offset is the sum of the lower ranks' totals. The result
    /// is a pure function of its inputs, so every rank derives the
    /// identical layout; [`RankPlanView::new`] derives one rank's row
    /// of it from the totals alone.
    pub fn build_reserved(
        predictions: &[Vec<PartitionPrediction>],
        reserved: &[Vec<u64>],
        base: u64,
    ) -> WritePlan {
        debug_assert_eq!(reserved.len(), predictions.len());
        let mut cursor = base;
        let slots = (predictions.iter().zip(reserved))
            .map(|(p, r)| {
                let row = rank_slots(p, r, cursor);
                cursor += r.iter().sum::<u64>();
                row
            })
            .collect();
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

impl RankPlanView {
    /// Rank `rank`'s row of the layout from `base` in which every rank
    /// reserved `totals[rank]` bytes, its own partitions `reserved`
    /// (summing to its total) predicted at `predictions` —
    /// `WritePlan::build_reserved(..).rank_view(rank)` from one `u64`
    /// per rank instead of the whole matrix.
    pub fn new(
        predictions: &[PartitionPrediction],
        reserved: &[u64],
        totals: &[u64],
        rank: usize,
        base: u64,
    ) -> RankPlanView {
        debug_assert_eq!(reserved.iter().sum::<u64>(), totals[rank]);
        let offset = base + totals[..rank].iter().sum::<u64>();
        RankPlanView {
            slots: rank_slots(predictions, reserved, offset),
            base,
            data_end: base + totals.iter().sum::<u64>(),
        }
    }

    /// The rank's regions under `pooling`, every cursor at its
    /// region's start.
    pub fn regions(&self, pooling: Pooling) -> Regions {
        let pooled = matches!(pooling, Pooling::Region(_));
        let span = |s: &PartitionSlot| (s.offset, s.offset + s.reserved);
        let spans = match (self.slots.first(), self.slots.last()) {
            (Some(first), Some(last)) if pooled => vec![(first.offset, span(last).1)],
            _ => self.slots.iter().map(span).collect(),
        };
        Regions { spans, pooled }
    }
}

/// A rank's regions as it writes into them
/// ([`RankPlanView::regions`]): each region's cursor and end.
#[derive(Debug, Clone, PartialEq)]
pub struct Regions {
    /// `(cursor, end)` per region.
    spans: Vec<(u64, u64)>,
    /// One region for every field.
    pooled: bool,
}

impl Regions {
    /// Place field `field`'s next stream, `actual` bytes long: at its
    /// region's cursor, as much as the region still holds, the excess
    /// to the overflow region. Returns the offset of the in-region
    /// prefix and the split. A rank places its streams in the order it
    /// writes them; a one-slot region gives exactly
    /// `(slot.offset, fit_split(actual, slot.reserved))`.
    pub fn place(&mut self, field: usize, actual: u64) -> (u64, FitSplit) {
        let (cursor, end) = &mut self.spans[if self.pooled { 0 } else { field }];
        let offset = *cursor;
        let split = fit_split(actual, *end - *cursor);
        *cursor += split.in_slot;
        (offset, split)
    }
}

/// Per-rank reservation-collective wire cost, bytes received per step:
/// the all-gather delivers one `u64` — the rank's reserved total, all
/// a layout needs to place the rank's run — from every rank to every
/// rank.
///
/// `nfields` does not enter it, and the third parameter is uninhabited
/// beyond `None`: both are kept only because `benchmark/API.md` pins
/// the call `reservation_wire_bytes(nranks, nfields, None)` (ROADMAP
/// item 2's benchmark-only PR removes them).
pub fn reservation_wire_bytes(nranks: usize, _nfields: usize, _group: Option<Infallible>) -> u64 {
    nranks as u64 * 8
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
/// in the main layout's rank-major order, and like it deterministic
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
    fn layout_is_rank_major_and_disjoint() {
        let p = preds(&[&[100, 200], &[50, 80]]);
        let plan = planned(&p, &ExtraSpacePolicy::new(1.0), 32);
        assert!(plan.is_disjoint());
        // rank 0: f0 @32 len100, f1 @132 len200; rank 1 follows.
        assert_eq!(plan.slots[0][0].offset, 32);
        assert_eq!(plan.slots[0][1].offset, 132);
        assert_eq!(plan.slots[1][0].offset, 332);
        assert_eq!(plan.slots[1][1].offset, 382);
        assert_eq!(plan.data_end, 462);
        assert_eq!(plan.reserved_total(), 430);
    }

    #[test]
    fn a_rank_view_needs_only_the_totals() {
        let p = preds(&[&[100, 200], &[50, 80], &[7, 9]]);
        let reserved = vec![vec![110u64, 260], vec![50, 96], vec![7, 9]];
        let plan = WritePlan::build_reserved(&p, &reserved, 32);
        let totals: Vec<u64> = reserved.iter().map(|r| r.iter().sum()).collect();
        for r in 0..3 {
            let view = RankPlanView::new(&p[r], &reserved[r], &totals, r, 32);
            assert_eq!(view, plan.rank_view(r), "rank {r}");
        }
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
        // rank-major: r0 f0 @32 (110), r0 f1 @142 (260), r1 f0 @402
        // (50), r1 f1 @452 (96).
        assert_eq!(plan.slots[0][0].reserved, 110);
        assert_eq!(plan.slots[0][1].offset, 142);
        assert_eq!(plan.slots[1][0].offset, 402);
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
        // rank-major: rank0/f0 @1000 (len 0), rank0/f1 @1000 (30),
        // rank1/f0 @1030 (10), rank1/f1 @1040 (0).
        assert_eq!(off[0][0], 1000);
        assert_eq!(off[0][1], 1000);
        assert_eq!(off[1][0], 1030);
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
        // contiguously in rank-major order with no gaps or overlap.
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
        // 4096 ranks × 4 fields: one `u64` from each of 4096 ranks.
        assert_eq!(reservation_wire_bytes(4096, 4, None), 4096 * 8);
        assert_eq!(reservation_wire_bytes(4096, 1, None), 4096 * 8);
    }

    /// Rank 1's view of a 2-rank layout whose rank 1 reserved
    /// `reserved` from offset 1000 on.
    fn rank_one(reserved: &[u64]) -> RankPlanView {
        let p: Vec<_> = reserved
            .iter()
            .map(|&bytes| PartitionPrediction { bytes, ratio: 10.0 })
            .collect();
        let totals = [1000 - 64, reserved.iter().sum()];
        RankPlanView::new(&p, reserved, &totals, 1, 64)
    }

    #[test]
    fn one_slot_regions_are_fit_split_at_the_slot() {
        let view = rank_one(&[100, 50, 80]);
        let mut regions = view.regions(Pooling::Slots);
        // Any write order: each field lands in its own slot.
        for (f, actual) in [(2, 80), (0, 130), (1, 10)] {
            let slot = view.slots[f];
            assert_eq!(
                regions.place(f, actual),
                (slot.offset, fit_split(actual, slot.reserved)),
                "field {f}"
            );
        }
    }

    #[test]
    fn a_pooled_rank_fills_its_region_in_write_order() {
        let view = rank_one(&[100, 50, 80]);
        assert_eq!(view.slots[0].offset, 1000);
        let mut regions = view.regions(Pooling::Region(Some(1.05)));
        // Field 2 written first comes in under its 80, field 0 over its
        // 100 by more than that slack: it spills only what the region
        // cannot hold once field 1 is in, and field 1 — the last
        // written — finds the region full.
        let none = |in_slot| FitSplit {
            in_slot,
            overflow: 0,
        };
        assert_eq!(regions.place(2, 60), (1000, none(60)));
        assert_eq!(regions.place(0, 150), (1060, none(150)));
        let full = FitSplit {
            in_slot: 20,
            overflow: 30,
        };
        assert_eq!(regions.place(1, 50), (1210, full));
        assert_eq!(view.data_end, 1230);
    }

    #[test]
    fn a_second_field_overflowing_spills_only_its_excess() {
        let view = rank_one(&[100, 100]);
        let mut regions = view.regions(Pooling::Region(None));
        let (at, first) = regions.place(0, 90);
        assert_eq!((at, first.overflow), (1000, 0));
        // The second field takes its own 100 and the first one's 10
        // spare bytes; its prefix sits right after the first stream.
        let (at, second) = regions.place(1, 125);
        assert_eq!(
            (at, second),
            (
                1090,
                FitSplit {
                    in_slot: 110,
                    overflow: 15
                }
            )
        );
        // Per partition the same bytes would have spilled 25.
        assert_eq!(fit_split(125, 100).overflow, 25);
    }

    #[test]
    fn a_rank_without_partitions_has_no_region() {
        let view = rank_one(&[]);
        assert_eq!(view.regions(Pooling::Region(Some(1.0))).spans, []);
    }
}
