//! Stress and property tests for the threads-as-ranks communicator.

use commsim::{World, WorldPoisoned};
use proptest::prelude::*;
use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

/// `body`'s result, or a failure if it has none within `secs`: a hang
/// fails the test instead of stalling the suite.
fn within<T: Send + 'static>(secs: u64, body: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    let t = std::thread::spawn(move || tx.send(body()));
    match rx.recv_timeout(Duration::from_secs(secs)) {
        Ok(v) => v,
        Err(RecvTimeoutError::Disconnected) => panic::resume_unwind(t.join().unwrap_err()),
        Err(RecvTimeoutError::Timeout) => panic!("no result within {secs} s: hung"),
    }
}

#[test]
fn a_panicking_rank_fails_the_run_with_its_own_message() {
    // Rank r panics before collective k (barriers and all-gathers
    // alternate); its peers unwrap the poisoned collective and panic
    // too, after it. Every rank, every k, every world size: the run
    // ends, and with the first panic's payload.
    for n in [2usize, 4, 8] {
        for r in 0..n {
            for k in 0..3usize {
                let payload = within(10, move || {
                    panic::catch_unwind(AssertUnwindSafe(|| {
                        World::new(n).run(|rk| {
                            for c in 0..3 {
                                if (rk.rank(), c) == (r, k) {
                                    panic!("rank {r} dies before collective {k}");
                                }
                                if c % 2 == 0 {
                                    rk.try_barrier().unwrap();
                                } else {
                                    rk.try_all_gather(c).unwrap();
                                }
                            }
                        })
                    }))
                    .unwrap_err()
                });
                assert_eq!(
                    payload.downcast_ref::<String>().map(String::as_str),
                    Some(format!("rank {r} dies before collective {k}").as_str()),
                    "{n} ranks"
                );
            }
        }
    }
}

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
