//! Threads-as-ranks communicator with MPI-style collectives.
//!
//! A [`World`] spawns `n` OS threads, each holding a [`Rank`] handle.
//! Collectives (barrier, all-gather) are implemented over a shared
//! slot table guarded by two barrier phases: write → barrier →
//! assemble → barrier → read. Every collective is fallible
//! (`try_*`): a rank that fails [`Rank::poison`]s the world and its
//! peers unwind with [`WorldPoisoned`] instead of waiting for it.
//!
//! All-gather results are delivered as a shared `Arc<[T]>`: the world
//! vector is assembled exactly once (by the lowest participating rank)
//! and every rank receives a reference-counted handle to it, so the
//! memory cost of a collective is O(ranks · payload), not
//! O(ranks² · payload) — the difference between feasible and not at
//! 4096 ranks.
//!
//! [`Rank::split`] builds subgroup communicators (MPI
//! `MPI_Comm_split`): group-local collectives plus a small inter-group
//! exchange ([`Group::try_exchange`]) give two-level ("sharded")
//! reductions whose per-rank cost is O(group + n_groups) instead of
//! O(ranks). The poison protocol extends to subgroups: a rank that
//! fails anywhere unblocks every collective — world-level or in any
//! group — with a typed [`WorldPoisoned`] error.
//!
//! This reproduces the communication semantics the paper's design
//! needs (notably the all-gather of predicted compression ratios and
//! of overflow sizes) without an MPI installation.

use crate::barrier::{Barrier, BarrierPoisoned};
use parking_lot::Mutex;
use std::any::Any;
use std::sync::Arc;

type Payload = Box<dyn Any + Send>;

/// A collective was abandoned because some rank [`Rank::poison`]ed the
/// world: it hit a fatal error and will never participate again, so
/// waiting for it would deadlock the surviving ranks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorldPoisoned;

impl std::fmt::Display for WorldPoisoned {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "collective aborted: a peer rank failed")
    }
}

impl std::error::Error for WorldPoisoned {}

impl From<BarrierPoisoned> for WorldPoisoned {
    fn from(_: BarrierPoisoned) -> Self {
        WorldPoisoned
    }
}

/// Slot table + single-assembly result cell shared by one communicator
/// (the world, or one subgroup).
struct SlotTable {
    /// One slot per participant for collective exchanges.
    slots: Vec<Mutex<Option<Payload>>>,
    /// The assembled world vector of the in-flight collective.
    result: Mutex<Option<Payload>>,
}

impl SlotTable {
    fn new(n: usize) -> Self {
        SlotTable {
            slots: (0..n).map(|_| Mutex::new(None)).collect(),
            result: Mutex::new(None),
        }
    }

    /// Assembler side of a gather: move every participant's payload
    /// out of its slot into one shared `Arc<[T]>` stored in `result`.
    /// Exactly one participant calls this, between the write barrier
    /// and the read barrier.
    fn assemble<T: Send + Sync + 'static>(&self) {
        let gathered: Vec<T> = self
            .slots
            .iter()
            .map(|slot| {
                *slot
                    .lock()
                    .take()
                    .expect("missing contribution")
                    .downcast::<T>()
                    .expect("type mismatch in all_gather")
            })
            .collect();
        let shared: Arc<[T]> = gathered.into();
        *self.result.lock() = Some(Box::new(shared));
    }

    /// Reader side: clone the shared handle assembled by
    /// [`SlotTable::assemble`]. Called by every participant after the
    /// read barrier; a later collective only overwrites `result` after
    /// all participants passed its own write barrier, which they can
    /// only do once they have taken this handle.
    fn shared_result<T: Send + Sync + 'static>(&self) -> Arc<[T]> {
        let guard = self.result.lock();
        Arc::clone(
            guard
                .as_ref()
                .expect("result not assembled")
                .downcast_ref::<Arc<[T]>>()
                .expect("type mismatch in all_gather result"),
        )
    }
}

/// Shared state of a world of ranks.
struct Shared {
    n: usize,
    barrier: Barrier,
    table: SlotTable,
    /// Barriers of every subgroup split off this world, so a poison
    /// reaches ranks blocked in group-local collectives too.
    subgroups: Mutex<Vec<Arc<Barrier>>>,
}

/// A communicator world of `n` ranks.
pub struct World {
    shared: Arc<Shared>,
}

/// Per-thread handle: rank id plus access to the shared world.
pub struct Rank {
    rank: usize,
    shared: Arc<Shared>,
}

impl World {
    /// Create a world with `n` ranks.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "world must have at least one rank");
        let shared = Arc::new(Shared {
            n,
            barrier: Barrier::new(n),
            table: SlotTable::new(n),
            subgroups: Mutex::new(Vec::new()),
        });
        World { shared }
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.shared.n
    }

    /// Run `f` on every rank in its own thread, returning the per-rank
    /// results in rank order. Panics in any rank propagate.
    pub fn run<T, F>(&self, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(Rank) -> T + Sync,
    {
        let shared = &self.shared;
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..shared.n)
                .map(|r| {
                    let rank = Rank {
                        rank: r,
                        shared: Arc::clone(shared),
                    };
                    let f = &f;
                    s.spawn(move || {
                        let out = f(rank);
                        // Retire this rank's span buffer before the
                        // scope joins: `thread::scope` can observe the
                        // closure's completion before TLS destructors
                        // run, which would drop the rank's trace.
                        obs::trace::flush_thread();
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("rank panicked"))
                .collect()
        })
    }
}

/// Shared state of one subgroup produced by [`Rank::split`].
struct GroupShared {
    /// World ranks of the members, ascending (index = group-local rank).
    members: Vec<usize>,
    barrier: Arc<Barrier>,
    table: SlotTable,
}

/// Shared state of one whole split: every subgroup plus the
/// inter-group exchange table (one slot per group).
struct SplitShared {
    /// Groups in ascending color order (index = dense group id).
    groups: Vec<Arc<GroupShared>>,
    /// One slot per group for leader-to-world exchanges.
    inter: SlotTable,
}

/// A subgroup communicator: this rank's view of one [`Rank::split`].
///
/// Group-local collectives ([`Group::try_barrier`],
/// [`Group::try_all_gather`]) involve only the group's members;
/// [`Group::try_exchange`] is the matching small inter-group
/// collective (every world rank participates, but only the `n_groups`
/// leader payloads travel). All of them honor the world's poison
/// protocol: any rank failing anywhere unblocks them with
/// [`WorldPoisoned`].
pub struct Group {
    world: Arc<Shared>,
    split: Arc<SplitShared>,
    shared: Arc<GroupShared>,
    /// Dense group id (ascending color order).
    gid: usize,
    /// This rank's index within the group.
    local: usize,
    /// This rank's world id.
    world_rank: usize,
}

impl Group {
    /// This rank's index within the group, in `[0, size)`.
    pub fn rank_in_group(&self) -> usize {
        self.local
    }

    /// Number of members in this group.
    pub fn size(&self) -> usize {
        self.shared.members.len()
    }

    /// Dense id of this group (groups are numbered 0.. in ascending
    /// color order).
    pub fn group_id(&self) -> usize {
        self.gid
    }

    /// World ranks of the members, ascending.
    pub fn members(&self) -> &[usize] {
        &self.shared.members
    }

    /// Whether this rank is the group's leader (group-local rank 0,
    /// i.e. the member with the lowest world rank).
    pub fn is_leader(&self) -> bool {
        self.local == 0
    }

    /// Synchronize the group's members; unblocks with
    /// [`WorldPoisoned`] if any rank poisons the world.
    pub fn try_barrier(&self) -> Result<(), WorldPoisoned> {
        self.shared.barrier.wait_checked()?;
        Ok(())
    }

    /// Group-local all-gather: every member contributes `value`;
    /// returns the members' values in group-local rank order as one
    /// shared vector.
    pub fn try_all_gather<T: Clone + Send + Sync + 'static>(
        &self,
        value: T,
    ) -> Result<Arc<[T]>, WorldPoisoned> {
        *self.shared.table.slots[self.local].lock() = Some(Box::new(value));
        self.shared.barrier.wait_checked()?;
        if self.local == 0 {
            self.shared.table.assemble::<T>();
        }
        self.shared.barrier.wait_checked()?;
        Ok(self.shared.table.shared_result::<T>())
    }

    /// Inter-group exchange: each group's leader contributes `value`
    /// (`Some` required at group-local rank 0, ignored elsewhere);
    /// every rank of the world receives the per-group values in dense
    /// group-id order. This is the "small" collective of a two-level
    /// reduction: only `n_groups` payloads travel, however many ranks
    /// participate.
    ///
    /// All world ranks must call this (it synchronizes on the world
    /// barrier), like any other collective.
    pub fn try_exchange<T: Clone + Send + Sync + 'static>(
        &self,
        value: Option<T>,
    ) -> Result<Arc<[T]>, WorldPoisoned> {
        if self.local == 0 {
            let v = value.expect("group leader must supply a value");
            *self.split.inter.slots[self.gid].lock() = Some(Box::new(v));
        }
        self.world.barrier.wait_checked()?;
        if self.world_rank == 0 {
            self.split.inter.assemble::<T>();
        }
        self.world.barrier.wait_checked()?;
        Ok(self.split.inter.shared_result::<T>())
    }
}

impl Rank {
    /// This rank's id in `[0, size)`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// World size.
    pub fn size(&self) -> usize {
        self.shared.n
    }

    /// Mark this world as failed: every rank currently blocked in a
    /// collective — world-level or in any subgroup split off this
    /// world — and every future collective attempt unblocks with
    /// [`WorldPoisoned`] instead of waiting forever for this rank. Call before abandoning the rank closure
    /// on an error path. Idempotent.
    pub fn poison(&self) {
        self.shared.barrier.poison();
        for b in self.shared.subgroups.lock().iter() {
            b.poison();
        }
    }

    /// Whether some rank has poisoned the world.
    pub fn is_poisoned(&self) -> bool {
        self.shared.barrier.is_poisoned()
    }

    /// Synchronize all ranks; unblocks with [`WorldPoisoned`] if a
    /// peer poisons the world instead of arriving.
    pub fn try_barrier(&self) -> Result<(), WorldPoisoned> {
        self.shared.barrier.wait_checked()?;
        Ok(())
    }

    /// Split the world into subgroup communicators by `color` (MPI
    /// `MPI_Comm_split`): ranks passing the same color land in the
    /// same group, ordered by world rank. Collective over the world.
    ///
    /// The returned [`Group`]'s collectives share the world's poison
    /// protocol: a rank that fails and poisons the world releases
    /// members blocked in any group of any split.
    pub fn split(&self, color: usize) -> Result<Group, WorldPoisoned> {
        let colors = self.try_all_gather(color)?;
        // Rank 0 builds the shared split state and publishes it
        // through its own slot; everyone derives the same dense group
        // ids from the identical gathered colors.
        if self.rank == 0 {
            let mut distinct: Vec<usize> = colors.to_vec();
            distinct.sort_unstable();
            distinct.dedup();
            let groups: Vec<Arc<GroupShared>> = distinct
                .iter()
                .map(|&c| {
                    let members: Vec<usize> =
                        (0..self.shared.n).filter(|&r| colors[r] == c).collect();
                    let barrier = Arc::new(Barrier::new(members.len()));
                    // Register before any rank can use it, so a poison
                    // arriving at any time reaches this barrier.
                    self.shared.subgroups.lock().push(Arc::clone(&barrier));
                    Arc::new(GroupShared {
                        table: SlotTable::new(members.len()),
                        members,
                        barrier,
                    })
                })
                .collect();
            let split = Arc::new(SplitShared {
                inter: SlotTable::new(groups.len()),
                groups,
            });
            *self.shared.table.slots[0].lock() = Some(Box::new(split));
        }
        self.shared.barrier.wait_checked()?;
        let split = {
            let slot = self.shared.table.slots[0].lock();
            Arc::clone(
                slot.as_ref()
                    .expect("split state missing")
                    .downcast_ref::<Arc<SplitShared>>()
                    .expect("type mismatch in split"),
            )
        };
        self.shared.barrier.wait_checked()?;
        let gid = split
            .groups
            .iter()
            .position(|g| g.members.contains(&self.rank))
            .expect("every rank belongs to a group");
        let shared = Arc::clone(&split.groups[gid]);
        let local = shared
            .members
            .iter()
            .position(|&m| m == self.rank)
            .expect("member list contains self");
        Ok(Group {
            world: Arc::clone(&self.shared),
            split,
            shared,
            gid,
            local,
            world_rank: self.rank,
        })
    }

    /// All-gather: every rank contributes `value`; returns the values
    /// of all ranks in rank order as one shared vector — assembled
    /// once, handed to every rank by reference, so collective memory
    /// is O(ranks · payload) however many ranks receive it. (The
    /// paper's phase-2 step: gathering predicted compression ratios of
    /// every partition.) Unblocks with [`WorldPoisoned`] if a peer
    /// poisons the world instead of contributing.
    pub fn try_all_gather<T: Clone + Send + Sync + 'static>(
        &self,
        value: T,
    ) -> Result<Arc<[T]>, WorldPoisoned> {
        *self.shared.table.slots[self.rank].lock() = Some(Box::new(value));
        self.shared.barrier.wait_checked()?;
        if self.rank == 0 {
            self.shared.table.assemble::<T>();
        }
        self.shared.barrier.wait_checked()?;
        Ok(self.shared.table.shared_result::<T>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisoned_world_unblocks_collectives() {
        let out = World::new(4).run(|rk| {
            if rk.rank() == 3 {
                // Simulate a rank dying before its collective: give
                // the peers time to park, then poison and bail.
                std::thread::sleep(std::time::Duration::from_millis(20));
                rk.poison();
                Err("rank 3 failed".to_string())
            } else {
                rk.try_all_gather(rk.rank())
                    .map(|v| v.len())
                    .map_err(|e| e.to_string())
            }
        });
        assert_eq!(out[3], Err("rank 3 failed".to_string()));
        for survivor in &out[..3] {
            assert_eq!(
                *survivor,
                Err("collective aborted: a peer rank failed".to_string())
            );
        }
    }

    #[test]
    fn try_collectives_match_infallible_on_healthy_world() {
        World::new(4).run(|rk| {
            let v = rk.try_all_gather(rk.rank() * 2).unwrap();
            assert_eq!(&v[..], &[0, 2, 4, 6]);
            rk.try_barrier().unwrap();
            assert!(!rk.is_poisoned());
        });
    }

    #[test]
    fn all_gather_orders_by_rank() {
        let out = World::new(6).run(|rk| {
            let v = rk.try_all_gather(rk.rank() * 10).unwrap();
            assert_eq!(&v[..], &[0, 10, 20, 30, 40, 50]);
            v[rk.rank()]
        });
        assert_eq!(out, vec![0, 10, 20, 30, 40, 50]);
    }

    #[test]
    fn all_gather_shares_one_allocation() {
        // The delivered world vector must be one shared allocation,
        // not a per-rank clone: every rank's handle points at the same
        // slice.
        let ptrs = World::new(4).run(|rk| {
            let v = rk.try_all_gather(rk.rank() as u64).unwrap();
            let p = v.as_ptr() as usize;
            rk.try_barrier().unwrap(); // keep every handle alive until all read ptr
            p
        });
        assert!(ptrs.iter().all(|&p| p == ptrs[0]), "ptrs {ptrs:?}");
    }

    #[test]
    fn repeated_collectives_do_not_cross_talk() {
        World::new(4).run(|rk| {
            for round in 0..20usize {
                let v = rk.try_all_gather(rk.rank() + round * 100).unwrap();
                for (r, &x) in v.iter().enumerate() {
                    assert_eq!(x, r + round * 100);
                }
            }
        });
    }

    #[test]
    fn all_reduce_sum() {
        // An all-reduce is a fold over the shared gathered vector.
        World::new(8).run(|rk| {
            let all = rk.try_all_gather(rk.rank() as u64 + 1).unwrap();
            assert_eq!(all.iter().sum::<u64>(), 36);
        });
    }

    #[test]
    fn many_ranks_stress() {
        // 64 threads exchanging collectives repeatedly.
        World::new(64).run(|rk| {
            for _ in 0..5 {
                let v = rk.try_all_gather(1u64).unwrap();
                assert_eq!(v.iter().sum::<u64>(), 64);
            }
        });
    }

    #[test]
    fn split_contiguous_groups() {
        World::new(8).run(|rk| {
            let g = rk.split(rk.rank() / 3).unwrap(); // groups {0,1,2} {3,4,5} {6,7}
            assert_eq!(g.split.groups.len(), 3);
            assert_eq!(g.group_id(), rk.rank() / 3);
            assert_eq!(g.rank_in_group(), rk.rank() % 3);
            assert_eq!(g.size(), if rk.rank() < 6 { 3 } else { 2 });
            assert_eq!(g.is_leader(), rk.rank() % 3 == 0);
            let local = g.try_all_gather(rk.rank() as u64).unwrap();
            let base = (rk.rank() / 3 * 3) as u64;
            let want: Vec<u64> = (0..g.size() as u64).map(|i| base + i).collect();
            assert_eq!(&local[..], &want[..]);
        });
    }

    #[test]
    fn split_non_contiguous_colors() {
        // Odd/even split with arbitrary (non-dense) colors: dense ids
        // follow ascending color order.
        World::new(6).run(|rk| {
            let color = if rk.rank() % 2 == 0 { 77 } else { 13 };
            let g = rk.split(color).unwrap();
            assert_eq!(g.split.groups.len(), 2);
            // Color 13 (odd ranks) gets dense id 0.
            let want_gid = if rk.rank() % 2 == 0 { 1 } else { 0 };
            assert_eq!(g.group_id(), want_gid);
            let members = g.members().to_vec();
            let want: Vec<usize> = (0..6).filter(|r| r % 2 == rk.rank() % 2).collect();
            assert_eq!(members, want);
        });
    }

    #[test]
    fn exchange_delivers_group_leader_values() {
        World::new(8).run(|rk| {
            let g = rk.split(rk.rank() / 4).unwrap();
            let leader_value = g.is_leader().then(|| g.group_id() as u64 * 100);
            let merged = g.try_exchange(leader_value).unwrap();
            assert_eq!(&merged[..], &[0, 100]);
        });
    }

    #[test]
    fn reduce_groups_matches_flat_reduction() {
        // The two-level reduction the sharded reservation performs:
        // fold within the group, exchange the leaders' results, fold
        // across groups.
        World::new(9).run(|rk| {
            let g = rk.split(rk.rank() / 2).unwrap();
            let local = g.try_all_gather(rk.rank() as u64 + 1).unwrap();
            let group_total: u64 = local.iter().sum();
            let merged = g
                .try_exchange(g.is_leader().then_some(group_total))
                .unwrap();
            assert_eq!(merged.iter().sum::<u64>(), (1..=9).sum::<u64>());
        });
    }

    #[test]
    fn groups_interleave_with_world_collectives() {
        World::new(8).run(|rk| {
            let g = rk.split(rk.rank() % 2).unwrap();
            for round in 0..5u64 {
                let local = g.try_all_gather(round).unwrap();
                assert!(local.iter().all(|&v| v == round));
                let world = rk.try_all_gather(round).unwrap();
                assert_eq!(world.len(), 8);
                g.try_barrier().unwrap();
            }
        });
    }

    #[test]
    fn poison_reaches_subgroup_collectives() {
        // One rank of one group fails; members of *other* groups
        // blocked in their group-local collectives must unblock with
        // the typed error, not deadlock.
        let out = World::new(6).run(|rk| {
            let g = rk.split(rk.rank() / 3).map_err(|e| e.to_string())?;
            if rk.rank() == 5 {
                std::thread::sleep(std::time::Duration::from_millis(20));
                rk.poison();
                return Err("rank 5 failed".to_string());
            }
            g.try_all_gather(rk.rank()).map_err(|e| e.to_string())?;
            // Group 0's gather (ranks 0-2) completes — rank 5 is not a
            // member — but the next world-spanning exchange cannot.
            g.try_exchange(g.is_leader().then_some(0u64))
                .map(|v| v.len())
                .map_err(|e| e.to_string())
        });
        assert_eq!(out[5], Err("rank 5 failed".to_string()));
        let poisoned = WorldPoisoned.to_string();
        for (r, o) in out.iter().enumerate().take(5) {
            assert_eq!(*o, Err(poisoned.clone()), "rank {r}");
        }
    }
}
