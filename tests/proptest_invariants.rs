//! Cross-crate property tests on the planner and pipeline invariants.

use proptest::prelude::*;
use repro_suite::pfsim::{simulate, BandwidthModel, PipelineTask, RankPipeline};
use repro_suite::predwrite::{
    fit_split, optimize_order, plan_overflow, queue_time, ExtraSpacePolicy, PartitionPrediction,
    WritePlan,
};

fn predictions() -> impl Strategy<Value = Vec<Vec<PartitionPrediction>>> {
    // nranks 1..8, nfields 1..6
    ((1usize..8), (1usize..6)).prop_flat_map(|(nr, nf)| {
        proptest::collection::vec(
            proptest::collection::vec(
                ((1u64..10_000_000), (1.0f64..100.0))
                    .prop_map(|(bytes, ratio)| PartitionPrediction { bytes, ratio }),
                nf..=nf,
            ),
            nr..=nr,
        )
    })
}

/// The paper's SCHEDULING OPTIMIZATOR as it states it (each field in
/// turn, inserted where the queue so far finishes first), kept as the
/// reference that `optimize_order` (Johnson's rule) never finishes after.
fn greedy_best_insertion(pc: &[f64], pw: &[f64]) -> Vec<usize> {
    let mut queue: Vec<usize> = Vec::with_capacity(pc.len());
    for l in 0..pc.len() {
        let (_, best) = (0..=queue.len())
            .map(|pos| {
                let mut candidate = queue.clone();
                candidate.insert(pos, l);
                (queue_time(&candidate, pc, pw), pos)
            })
            .min_by(|a, b| a.0.total_cmp(&b.0))
            .expect("a queue has at least one position");
        queue.insert(best, l);
    }
    queue
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases_and_seed(128, 0x9A_4141) /* pinned: deterministic CI */)]

    #[test]
    fn plans_are_always_disjoint(preds in predictions(), rs in 1.0f64..2.0, base in 0u64..1_000_000) {
        let policy = ExtraSpacePolicy::new(rs);
        let reserved: Vec<Vec<u64>> = preds
            .iter()
            .map(|row| row.iter().map(|p| policy.reserve_bytes(p.bytes, p.ratio)).collect())
            .collect();
        let plan = WritePlan::build_reserved(&preds, &reserved, base);
        prop_assert!(plan.is_disjoint());
        prop_assert!(plan.data_end >= base);
        // Every slot holds at least its prediction.
        for (r, row) in plan.slots.iter().enumerate() {
            for (f, s) in row.iter().enumerate() {
                prop_assert!(s.reserved >= preds[r][f].bytes);
                prop_assert!(s.offset >= base);
                prop_assert!(s.offset + s.reserved <= plan.data_end);
            }
        }
    }

    #[test]
    fn fit_split_conserves(actual in 0u64..1_000_000, reserved in 0u64..1_000_000) {
        let s = fit_split(actual, reserved);
        prop_assert_eq!(s.in_slot + s.overflow, actual);
        prop_assert!(s.in_slot <= reserved);
    }

    #[test]
    fn overflow_offsets_disjoint(
        ovf in ((1usize..6), (1usize..5)).prop_flat_map(|(nr, nf)| {
            proptest::collection::vec(
                proptest::collection::vec(0u64..100_000, nf..=nf),
                nr..=nr,
            )
        }),
        end in 0u64..1_000_000,
    ) {
        let offs = plan_overflow(&ovf, end);
        let mut spans: Vec<(u64, u64)> = Vec::new();
        for (r, row) in offs.iter().enumerate() {
            for (f, &o) in row.iter().enumerate() {
                prop_assert!(o >= end);
                if ovf[r][f] > 0 {
                    spans.push((o, ovf[r][f]));
                }
            }
        }
        spans.sort_unstable();
        for w in spans.windows(2) {
            prop_assert!(w[0].0 + w[0].1 <= w[1].0, "overflow regions overlap");
        }
    }

    #[test]
    fn optimizer_never_worse_and_is_permutation(
        times in proptest::collection::vec(((0.001f64..10.0), (0.001f64..10.0)), 1..10))
    {
        let pc: Vec<f64> = times.iter().map(|t| t.0).collect();
        let pw: Vec<f64> = times.iter().map(|t| t.1).collect();
        let order = optimize_order(&pc, &pw);
        // Valid permutation.
        let mut sorted = order.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..pc.len()).collect::<Vec<_>>());
        let t = queue_time(&order, &pc, &pw);
        let no_later = |other: &[usize]| t <= queue_time(other, &pc, &pw) * (1.0 + 1e-12);
        // Never worse than identity, nor than the paper's greedy.
        let identity: Vec<usize> = (0..pc.len()).collect();
        prop_assert!(no_later(&identity));
        prop_assert!(no_later(&greedy_best_insertion(&pc, &pw)), "greedy beats {order:?}");
        // No adjacent swap shortens it.
        for i in 1..order.len() {
            let mut swapped = order.clone();
            swapped.swap(i - 1, i);
            prop_assert!(no_later(&swapped), "swapping {} and {} shortens {order:?}", i - 1, i);
        }
    }

    #[test]
    fn queue_time_lower_bounds(times in proptest::collection::vec(((0.001f64..10.0), (0.001f64..10.0)), 1..10)) {
        let pc: Vec<f64> = times.iter().map(|t| t.0).collect();
        let pw: Vec<f64> = times.iter().map(|t| t.1).collect();
        let order: Vec<usize> = (0..pc.len()).collect();
        let t = queue_time(&order, &pc, &pw);
        // Finish time is at least total compression, and at least the
        // largest single task.
        let sum_c: f64 = pc.iter().sum();
        prop_assert!(t >= sum_c - 1e-9);
        for i in 0..pc.len() {
            prop_assert!(t >= pc[i] + pw[i] - 1e-9);
        }
    }

    /// One cost model: Algorithm 1's recurrence `tw <- Pw + max(tc, tw)`
    /// and the event engine agree on a single rank — whose writes
    /// nothing contends with — for any `(pc, pw)` in any order. The
    /// engine generalizes the recurrence to a shared pool; it must not
    /// be a second opinion where the recurrence applies.
    #[test]
    fn queue_time_is_the_event_engine_on_one_rank(
        times in proptest::collection::vec(((0.001f64..10.0), (0.02f64..10.0)), 1..10),
        seed in any::<u64>(),
    ) {
        let pc: Vec<f64> = times.iter().map(|t| t.0).collect();
        let pw: Vec<f64> = times.iter().map(|t| t.1).collect();
        let mut order: Vec<usize> = (0..pc.len()).collect();
        order.sort_by_key(|&i| (i as u64 + 1).wrapping_mul(seed | 1));
        // Bytes whose solo write takes `pw` (one writer never reaches
        // the aggregate cap): latency + (bytes + half_size) / peak.
        let solo = BandwidthModel::tiny_for_tests();
        let mut rank = RankPipeline::default();
        for &l in &order {
            let write_bytes = (pw[l] - solo.latency) * solo.per_proc_peak - solo.half_size;
            prop_assert!((solo.solo_write_time(write_bytes) - pw[l]).abs() <= 1e-9 * pw[l]);
            rank.tasks.push(PipelineTask { compute: pc[l], write_bytes });
        }
        let expected = queue_time(&order, &pc, &pw);
        let finish = simulate(&[rank], &solo).makespan;
        prop_assert!((finish - expected).abs() <= 1e-9 * expected, "{finish} vs {expected}");
    }
}
