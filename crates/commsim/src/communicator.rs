//! Threads-as-ranks communicator with MPI-style collectives.
//!
//! A [`World`] spawns `n` OS threads, each holding a [`Rank`] handle.
//! Collectives (barrier, all-gather) are implemented over a shared
//! slot table guarded by two barrier phases: write → barrier →
//! assemble → barrier → read. Every collective is fallible
//! (`try_*`): a rank that fails or panics poisons the world and its
//! peers unwind with [`WorldPoisoned`] instead of waiting for it.
//!
//! All-gather results are delivered as a shared `Arc<[T]>`: the world
//! vector is assembled exactly once (by the lowest participating rank)
//! and every rank receives a reference-counted handle to it, so the
//! memory cost of a collective is O(ranks · payload), not
//! O(ranks² · payload) — the difference between feasible and not at
//! 4096 ranks.
//!
//! This reproduces the communication semantics the paper's design
//! needs (notably the all-gather of predicted compression ratios and
//! of overflow sizes) without an MPI installation.

use crate::barrier::{Barrier, BarrierPoisoned};
use std::any::Any;
use std::panic::resume_unwind;
use std::sync::{Arc, Mutex, OnceLock};

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

/// Shared state of a world of ranks: its barrier, and the slot table +
/// single-assembly result cell of its collectives.
struct Shared {
    n: usize,
    barrier: Barrier,
    /// One slot per participant for collective exchanges.
    slots: Vec<Mutex<Option<Payload>>>,
    /// The assembled world vector of the in-flight collective.
    result: Mutex<Option<Payload>>,
}

impl Shared {
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
                    .unwrap()
                    .take()
                    .expect("missing contribution")
                    .downcast::<T>()
                    .expect("type mismatch in all_gather")
            })
            .collect();
        let shared: Arc<[T]> = gathered.into();
        *self.result.lock().unwrap() = Some(Box::new(shared));
    }

    /// Reader side: clone the shared handle assembled by
    /// [`Shared::assemble`]. Called by every participant after the
    /// read barrier; a later collective only overwrites `result` after
    /// all participants passed its own write barrier, which they can
    /// only do once they have taken this handle.
    fn shared_result<T: Send + Sync + 'static>(&self) -> Arc<[T]> {
        let guard = self.result.lock().unwrap();
        Arc::clone(
            guard
                .as_ref()
                .expect("result not assembled")
                .downcast_ref::<Arc<[T]>>()
                .expect("type mismatch in all_gather result"),
        )
    }
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
            slots: (0..n).map(|_| Mutex::new(None)).collect(),
            result: Mutex::new(None),
        });
        World { shared }
    }

    /// Run `f` on every rank in its own thread, returning the per-rank
    /// results in rank order. A rank that panics poisons the world;
    /// once every rank has returned, the first panic is re-raised.
    pub fn run<T, F>(&self, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(Rank) -> T + Sync,
    {
        let shared = &self.shared;
        let first_panic = OnceLock::new();
        let mut joined: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..shared.n)
                .map(|r| {
                    let rank = Rank {
                        rank: r,
                        shared: Arc::clone(shared),
                    };
                    let (f, exit) = (&f, RankExit(r, shared, &first_panic));
                    s.spawn(move || {
                        let _exit = exit;
                        f(rank)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join()).collect()
        });
        // The first rank to panic goes first: its payload is re-raised.
        if let Some(&r) = first_panic.get() {
            joined.swap(0, r);
        }
        let rethrow = |j: std::thread::Result<T>| j.unwrap_or_else(|p| resume_unwind(p));
        joined.into_iter().map(rethrow).collect()
    }
}

/// Held by rank thread `.0` of [`World::run`]: poisons the world `.1`
/// if the rank unwinds, claiming `.2` for it first.
struct RankExit<'a>(usize, &'a Shared, &'a OnceLock<usize>);

impl Drop for RankExit<'_> {
    fn drop(&mut self) {
        // Retire this rank's span buffer before the scope joins:
        // `thread::scope` can observe the closure's completion before
        // TLS destructors run, which would drop the rank's trace.
        obs::trace::flush_thread();
        if std::thread::panicking() {
            // Claimed before the poison: a peer failing on it is later.
            let _ = self.2.set(self.0);
            self.1.barrier.poison();
        }
    }
}

impl Rank {
    /// This rank's id in `[0, size)`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Mark this world as failed: every rank currently blocked in a
    /// collective and every future collective attempt unblocks with
    /// [`WorldPoisoned`] instead of waiting forever for this rank.
    /// Call before abandoning the rank closure on an error path.
    /// Idempotent.
    pub fn poison(&self) {
        self.shared.barrier.poison();
    }

    /// Synchronize all ranks; unblocks with [`WorldPoisoned`] if a
    /// peer poisons the world instead of arriving.
    pub fn try_barrier(&self) -> Result<(), WorldPoisoned> {
        self.shared.barrier.wait_checked()?;
        Ok(())
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
        *self.shared.slots[self.rank].lock().unwrap() = Some(Box::new(value));
        self.shared.barrier.wait_checked()?;
        if self.rank == 0 {
            self.shared.assemble::<T>();
        }
        self.shared.barrier.wait_checked()?;
        Ok(self.shared.shared_result::<T>())
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
}
