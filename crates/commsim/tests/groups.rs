//! Property and failure tests for subgroup communicators.

use commsim::{Group, World, WorldPoisoned};
use proptest::prelude::*;

/// Two-level all-reduce out of the two group collectives, as the
/// sharded reservation composes them: fold within the group, exchange
/// the leaders' results, fold across groups.
fn reduce_groups<T, F>(g: &Group, value: T, fold: F) -> Result<T, WorldPoisoned>
where
    T: Clone + Send + Sync + 'static,
    F: Fn(T, T) -> T,
{
    let reduce = |all: &[T]| all.iter().cloned().reduce(&fold).expect("non-empty");
    let group_total = reduce(&g.try_all_gather(value)?);
    Ok(reduce(
        &g.try_exchange(g.is_leader().then_some(group_total))?,
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases_and_seed(24, 0x6_2011) /* pinned: deterministic CI */)]

    /// Two-level reduction over an arbitrary (possibly ragged,
    /// non-contiguous) split must equal the flat all-gather reduction,
    /// for exact integer folds where grouping order cannot matter.
    #[test]
    fn reduce_groups_equals_flat_sum(
        spec in proptest::collection::vec((any::<u64>(), 0usize..5), 2..17),
    ) {
        let n = spec.len();
        let values: Vec<u64> = spec.iter().map(|&(v, _)| v).collect();
        let colors: Vec<usize> = spec.iter().map(|&(_, c)| c).collect();
        let flat_sum = values.iter().fold(0u64, |a, &b| a.wrapping_add(b));
        let flat_max = *values.iter().max().unwrap();
        let out = World::new(n).run(move |rk| {
            let g = rk.split(colors[rk.rank()])?;
            let sum = reduce_groups(&g, values[rk.rank()], |a, b| a.wrapping_add(b))?;
            let max = reduce_groups(&g, values[rk.rank()], |a, b| a.max(b))?;
            // The flat path on the same world, for an in-run cross-check.
            let all = rk.try_all_gather(values[rk.rank()])?;
            let flat = all.iter().fold(0u64, |a, &b| a.wrapping_add(b));
            Ok::<(u64, u64, u64), WorldPoisoned>((sum, max, flat))
        });
        for r in out {
            let (sum, max, flat) = r.unwrap();
            prop_assert_eq!(sum, flat_sum);
            prop_assert_eq!(sum, flat);
            prop_assert_eq!(max, flat_max);
        }
    }

    /// Vector-valued reduction (the shape the reservation collective
    /// uses: per-field byte totals) over random splits.
    #[test]
    fn reduce_groups_elementwise_vectors(
        colors in proptest::collection::vec(0usize..4, 3..11),
        nfields in 1usize..5,
    ) {
        let n = colors.len();
        let out = World::new(n).run(move |rk| {
            let g = rk.split(colors[rk.rank()])?;
            let mine: Vec<u64> = (0..nfields)
                .map(|f| (rk.rank() * 31 + f * 7 + 1) as u64)
                .collect();
            reduce_groups(&g, mine, |a, b| {
                a.iter().zip(b.iter()).map(|(x, y)| x + y).collect()
            })
        });
        for (f, _) in (0..nfields).enumerate() {
            let want: u64 = (0..n).map(|r| (r * 31 + f * 7 + 1) as u64).sum();
            for r in &out {
                prop_assert_eq!(r.as_ref().unwrap()[f], want);
            }
        }
    }
}

/// One rank of one group fails mid-collective: every other rank —
/// including members of *different* groups parked in their own
/// group-local collectives — must unblock with the typed error. No
/// deadlock, no panic.
#[test]
fn poison_in_one_subgroup_unblocks_whole_world() {
    let n = 9;
    let out = World::new(n).run(|rk| {
        let g = rk.split(rk.rank() / 3).map_err(|e| e.to_string())?;
        if rk.rank() == 4 {
            // Middle rank of the middle group dies before
            // contributing; its group peers are parked in the gather
            // below, other groups proceed to the exchange.
            std::thread::sleep(std::time::Duration::from_millis(30));
            rk.poison();
            return Err("rank 4 failed".to_string());
        }
        let local = g
            .try_all_gather(rk.rank() as u64)
            .map_err(|e| e.to_string())?;
        let total = local.iter().sum::<u64>();
        // World-spanning step: needs every rank, so it must observe
        // the poison even from groups rank 4 never belonged to.
        g.try_exchange(g.is_leader().then_some(total))
            .map(|v| v.iter().sum::<u64>())
            .map_err(|e| e.to_string())
    });
    assert_eq!(out[4], Err("rank 4 failed".to_string()));
    let poisoned = WorldPoisoned.to_string();
    for (r, o) in out.iter().enumerate() {
        if r != 4 {
            assert_eq!(*o, Err(poisoned.clone()), "rank {r}");
        }
    }
}

/// Poison arriving while ranks are parked inside the group-local
/// barrier itself (not a gather) must also release them.
#[test]
fn poison_releases_group_barrier_waiters() {
    let out = World::new(6).run(|rk| {
        let g = rk.split(rk.rank() % 2).map_err(|_| "split".to_string())?;
        if rk.rank() == 0 {
            std::thread::sleep(std::time::Duration::from_millis(30));
            rk.poison();
            return Err("rank 0 failed".to_string());
        }
        // Rank 0 is in group 0; group 0's other members park on their
        // group barrier, group 1's members park on theirs after
        // completing it once (their group is whole, so one round
        // passes; the world-level gather after it cannot).
        g.try_barrier()
            .map_err(|_| "group barrier poisoned".to_string())?;
        rk.try_all_gather(0u8)
            .map(|v| v.len())
            .map_err(|_| "world gather poisoned".to_string())
    });
    assert_eq!(out[0], Err("rank 0 failed".to_string()));
    for (r, o) in out.iter().enumerate().skip(1) {
        assert!(o.is_err(), "rank {r} should have seen the poison: {o:?}");
    }
}

/// A split performed *after* the world is poisoned fails cleanly.
#[test]
fn split_after_poison_errors() {
    let out = World::new(4).run(|rk| {
        if rk.rank() == 2 {
            rk.poison();
            return Err(WorldPoisoned);
        }
        // Give the poison time to land, then attempt to split.
        std::thread::sleep(std::time::Duration::from_millis(20));
        rk.split(0).map(|g| g.size())
    });
    for o in out {
        assert!(o.is_err());
    }
}
