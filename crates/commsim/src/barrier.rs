//! Generation-counted reusable barrier.
//!
//! `std::sync::Barrier` works, but a generation-counted condvar barrier
//! (the construction from *Rust Atomics and Locks*, ch. 9) lets us
//! expose wait generations for debugging and keeps all synchronization
//! primitives in one auditable place.

use parking_lot::{Condvar, Mutex};

/// A collective was abandoned because a participant poisoned the
/// barrier (it hit a fatal error and can never arrive). Waiters must
/// unwind instead of blocking forever on the missing participant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BarrierPoisoned;

impl std::fmt::Display for BarrierPoisoned {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "barrier poisoned: a participant failed")
    }
}

impl std::error::Error for BarrierPoisoned {}

#[derive(Debug)]
struct State {
    /// Threads still expected in the current generation.
    remaining: usize,
    /// Completed generations.
    generation: u64,
    /// Sticky flag: a participant died and will never arrive.
    poisoned: bool,
}

/// A reusable barrier for a fixed number of participants.
#[derive(Debug)]
pub struct Barrier {
    n: usize,
    state: Mutex<State>,
    cvar: Condvar,
}

impl Barrier {
    /// Barrier for `n` participants (n ≥ 1).
    pub fn new(n: usize) -> Self {
        assert!(n > 0);
        Barrier {
            n,
            state: Mutex::new(State {
                remaining: n,
                generation: 0,
                poisoned: false,
            }),
            cvar: Condvar::new(),
        }
    }

    /// Block until all `n` participants have called `wait_checked`, or
    /// until the barrier is poisoned — whichever happens first.
    /// Returns the generation index that was completed.
    ///
    /// A generation that completed before the poison still reports
    /// `Ok`: every participant arrived, so the exchanged data is whole.
    pub fn wait_checked(&self) -> Result<u64, BarrierPoisoned> {
        let mut st = self.state.lock();
        if st.poisoned {
            return Err(BarrierPoisoned);
        }
        let gen = st.generation;
        st.remaining -= 1;
        if st.remaining == 0 {
            st.remaining = self.n;
            st.generation += 1;
            self.cvar.notify_all();
            Ok(gen)
        } else {
            while st.generation == gen && !st.poisoned {
                self.cvar.wait(&mut st);
            }
            if st.generation == gen {
                // Poisoned before the last participant arrived.
                Err(BarrierPoisoned)
            } else {
                Ok(gen)
            }
        }
    }

    /// Mark the barrier as permanently failed and release every
    /// current and future waiter with [`BarrierPoisoned`]. Called by a
    /// participant that hit a fatal error and will never arrive again.
    /// Idempotent.
    pub fn poison(&self) {
        let mut st = self.state.lock();
        st.poisoned = true;
        self.cvar.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn single_participant_never_blocks() {
        let b = Barrier::new(1);
        assert_eq!(b.wait_checked(), Ok(0));
        assert_eq!(b.wait_checked(), Ok(1));
    }

    #[test]
    fn synchronizes_phases() {
        let n = 8;
        let b = Arc::new(Barrier::new(n));
        let counter = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            for _ in 0..n {
                let b = Arc::clone(&b);
                let c = Arc::clone(&counter);
                s.spawn(move || {
                    for phase in 0..50usize {
                        c.fetch_add(1, Ordering::SeqCst);
                        b.wait_checked().unwrap();
                        // After the barrier every increment of this
                        // phase must be visible.
                        assert!(c.load(Ordering::SeqCst) >= (phase + 1) * n);
                        b.wait_checked().unwrap();
                    }
                });
            }
        });
        assert_eq!(counter.load(Ordering::SeqCst), 50 * n);
    }

    #[test]
    fn poison_releases_blocked_waiters() {
        let b = Arc::new(Barrier::new(3));
        std::thread::scope(|s| {
            let waiters: Vec<_> = (0..2)
                .map(|_| {
                    let b = Arc::clone(&b);
                    s.spawn(move || b.wait_checked())
                })
                .collect();
            // Give the two waiters time to park, then poison instead
            // of arriving as the third participant.
            std::thread::sleep(std::time::Duration::from_millis(20));
            b.poison();
            for w in waiters {
                assert_eq!(w.join().unwrap(), Err(BarrierPoisoned));
            }
        });
        // Poison is sticky: later arrivals fail immediately.
        assert_eq!(b.wait_checked(), Err(BarrierPoisoned));
    }

    #[test]
    fn completed_generation_reports_ok_despite_later_poison() {
        let b = Barrier::new(1);
        assert_eq!(b.wait_checked(), Ok(0));
        b.poison();
        assert_eq!(b.wait_checked(), Err(BarrierPoisoned));
    }

    #[test]
    fn generations_advance() {
        let b = Arc::new(Barrier::new(2));
        std::thread::scope(|s| {
            let b2 = Arc::clone(&b);
            s.spawn(move || {
                assert_eq!(b2.wait_checked(), Ok(0));
                assert_eq!(b2.wait_checked(), Ok(1));
            });
            assert_eq!(b.wait_checked(), Ok(0));
            assert_eq!(b.wait_checked(), Ok(1));
        });
    }
}
