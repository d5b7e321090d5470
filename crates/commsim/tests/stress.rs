//! Stress and property tests for the threads-as-ranks communicator.

use commsim::{World, WorldPoisoned};
use proptest::prelude::*;

#[test]
fn mixed_collectives_interleave_correctly() {
    // A workload resembling the paper's pipeline: all-gather of
    // per-rank metadata, a decision every rank derives from it, a
    // second all-gather (the overflow round) and a barrier, repeated
    // for several "fields".
    let n = 12;
    World::new(n)
        .run(|rk| {
            for field in 0..6u64 {
                let sizes = rk.try_all_gather(rk.rank() as u64 * 100 + field)?;
                assert_eq!(sizes.len(), n);
                for (r, &s) in sizes.iter().enumerate() {
                    assert_eq!(s, r as u64 * 100 + field);
                }
                let total: u64 = sizes.iter().sum();
                let decisions = rk.try_all_gather(total)?;
                let want = (0..n as u64).map(|r| r * 100 + field).sum::<u64>();
                assert!(decisions.iter().all(|&d| d == want));
                rk.try_barrier()?;
            }
            Ok::<(), WorldPoisoned>(())
        })
        .into_iter()
        .for_each(|r| r.unwrap());
}

#[test]
fn world_reusable_across_runs() {
    let world = World::new(4);
    let sum = |v: u32| world.run(|rk| rk.try_all_gather(v).unwrap().iter().sum::<u32>());
    assert_eq!(sum(1), vec![4; 4]);
    assert_eq!(sum(2), vec![8; 4]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases_and_seed(16, 0xC0_5151) /* pinned: deterministic CI */)]

    #[test]
    fn all_gather_arbitrary_payloads(values in proptest::collection::vec(any::<i64>(), 2..10)) {
        let n = values.len();
        let vals = values.clone();
        let out = World::new(n).run(move |rk| {
            let gathered = rk.try_all_gather(vals[rk.rank()]).unwrap();
            assert_eq!(&gathered[..], &vals[..]);
            gathered[rk.rank()]
        });
        prop_assert_eq!(out, values);
    }

    #[test]
    fn all_reduce_max_equals_iterator_max(values in proptest::collection::vec(any::<u32>(), 2..10)) {
        let n = values.len();
        let vals = values.clone();
        let expect = *values.iter().max().unwrap();
        let out = World::new(n).run(move |rk| {
            rk.try_all_gather(vals[rk.rank()]).map(|all| all.iter().copied().max())
        });
        prop_assert!(out.into_iter().all(|v| v == Ok(Some(expect))));
    }
}
