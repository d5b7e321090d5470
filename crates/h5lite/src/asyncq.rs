//! Event-set style asynchronous writes (HDF5 async VOL analog).
//!
//! HDF5 1.13's asynchronous VOL connector executes I/O on background
//! threads while the application continues computing — the capability
//! the paper leverages to overlap compression with writes (§II-A).
//! [`EventSet`] mirrors the H5ES API: operations are enqueued, execute
//! on worker threads, and `wait()` blocks until everything completes.
//! The queue is FIFO: workers take operations in enqueue order, so
//! with one worker writes land in the order they were issued — the
//! order Algorithm 1 chose and `pfsim::engine` models.
//! Workers are not rank threads and need no unwind guard: no section
//! under a lock they take (receiver, pending state, throttle bucket,
//! fault slot, pool) can panic, and a failed write is a value.

use crate::error::{AsyncWriteFailure, H5Error, Result};
use crate::pool::BufferPool;
use pfsim::{SharedFile, Throttle};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

struct Op {
    file: SharedFile,
    offset: u64,
    data: Vec<u8>,
    throttle: Option<Arc<Throttle>>,
    /// Where to return `data` once written (buffer recycling).
    recycle: Option<Arc<BufferPool>>,
}

/// Operations enqueued and not yet completed, the most that number
/// has been, and the failed ones [`EventSet::wait`] has yet to report.
#[derive(Default)]
struct Depth {
    now: usize,
    peak: usize,
    /// Failed writes, typed: the queue keeps draining past them.
    errors: Vec<AsyncWriteFailure>,
}

struct Pending {
    depth: Mutex<Depth>,
    cv: Condvar,
}

impl Pending {
    /// One operation finished (or could not be queued), with its
    /// failure if it had one.
    fn done(&self, failure: Option<AsyncWriteFailure>) {
        let mut d = self.depth.lock().unwrap();
        d.errors.extend(failure);
        d.now -= 1;
        if d.now == 0 {
            self.cv.notify_all();
        }
    }
}

/// An asynchronous write queue backed by worker threads.
pub struct EventSet {
    /// `Some` until drop: closing the channel (rather than sending a
    /// poison message) is the shutdown signal, so workers drain every
    /// queued write before exiting.
    tx: Option<Sender<Op>>,
    pending: Arc<Pending>,
    workers: Vec<JoinHandle<()>>,
}

impl EventSet {
    /// Create an event set with `n_workers` background I/O threads
    /// (HDF5's async VOL uses one; more emulate multiple HW queues).
    pub fn new(n_workers: usize) -> Self {
        let (tx, rx) = channel::<Op>();
        // One receiver shared by the workers: whoever holds the lock
        // takes the oldest queued operation.
        let rx = Arc::new(Mutex::new(rx));
        let pending = Arc::new(Pending {
            depth: Mutex::new(Depth::default()),
            cv: Condvar::new(),
        });
        let workers = (0..n_workers.max(1))
            .map(|_| {
                let rx = Arc::clone(&rx);
                let pending = Arc::clone(&pending);
                std::thread::spawn(move || {
                    // A call of its own: the lock is released before
                    // the write starts.
                    let take = || rx.lock().unwrap().recv();
                    while let Ok(op) = take() {
                        let Op {
                            file,
                            offset,
                            data,
                            throttle,
                            recycle,
                        } = op;
                        let len = data.len() as u64;
                        let span = obs::span_arg("h5.write", len);
                        if let Some(t) = &throttle {
                            t.acquire(len);
                        }
                        let failure = file.write_at(offset, &data).err();
                        drop(span);
                        if let Some(pool) = recycle {
                            pool.put(data);
                        }
                        pending.done(failure.map(|error| AsyncWriteFailure { offset, len, error }));
                    }
                    obs::trace::flush_thread();
                })
            })
            .collect();
        EventSet {
            tx: Some(tx),
            pending,
            workers,
        }
    }

    /// Enqueue an asynchronous positioned write. Returns immediately.
    pub fn write_at(
        &self,
        file: &SharedFile,
        offset: u64,
        data: Vec<u8>,
        throttle: Option<Arc<Throttle>>,
    ) {
        self.enqueue(file, offset, data, throttle, None);
    }

    /// [`EventSet::write_at`] with the buffer's destination stated:
    /// once the write completes `data` goes back to `recycle` instead
    /// of being dropped, so a caller taking its buffers from the same
    /// pool streams without per-chunk allocation.
    pub(crate) fn enqueue(
        &self,
        file: &SharedFile,
        offset: u64,
        data: Vec<u8>,
        throttle: Option<Arc<Throttle>>,
        recycle: Option<Arc<BufferPool>>,
    ) {
        {
            let mut d = self.pending.depth.lock().unwrap();
            d.now += 1;
            d.peak = d.peak.max(d.now);
        }
        let send = self.tx.as_ref().expect("event set shut down").send(Op {
            file: file.clone(),
            offset,
            data,
            throttle,
            recycle,
        });
        if let Err(e) = send {
            // Workers are gone (all panicked/joined): record a typed
            // failure instead of panicking the producer, and undo the
            // pending count so wait() still terminates.
            let op = e.0;
            let failure = AsyncWriteFailure {
                offset: op.offset,
                len: op.data.len() as u64,
                error: std::io::Error::other("event set workers gone"),
            };
            if let Some(pool) = op.recycle {
                pool.put(op.data);
            }
            self.pending.done(Some(failure));
        }
    }

    /// The most operations that were ever in flight at once — the
    /// queue's peak depth over the set's lifetime.
    pub fn high_water(&self) -> usize {
        self.pending.depth.lock().unwrap().peak
    }

    /// Block until all enqueued operations complete (H5ESwait).
    /// Failed writes surface here as [`H5Error::AsyncWrites`], typed
    /// with each op's offset/length — the flush/close point is where
    /// HDF5's async VOL reports errors too.
    pub fn wait(&self) -> Result<()> {
        let d = self.pending.depth.lock().unwrap();
        let mut d = self.pending.cv.wait_while(d, |d| d.now > 0).unwrap();
        let errs = std::mem::take(&mut d.errors);
        if errs.is_empty() {
            Ok(())
        } else {
            Err(H5Error::AsyncWrites(errs))
        }
    }
}

impl Drop for EventSet {
    fn drop(&mut self) {
        // Closing the channel lets every worker drain remaining writes
        // and observe disconnection — no sentinel message that could
        // overtake queued work.
        drop(self.tx.take());
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("h5lite-async-{}-{}", std::process::id(), name));
        p
    }

    #[test]
    fn async_writes_complete_on_wait() {
        let path = tmp("basic");
        let f = SharedFile::create(&path).unwrap();
        let es = EventSet::new(2);
        for i in 0..16u64 {
            es.write_at(&f, i * 100, vec![i as u8; 100], None);
        }
        es.wait().unwrap();
        assert_eq!(es.pending.depth.lock().unwrap().now, 0);
        assert!((1..=16).contains(&es.high_water()), "{}", es.high_water());
        for i in 0..16u64 {
            let mut buf = vec![0u8; 100];
            f.read_at(i * 100, &mut buf).unwrap();
            assert!(buf.iter().all(|&b| b == i as u8));
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn wait_on_empty_set_returns() {
        let es = EventSet::new(1);
        es.wait().unwrap();
    }

    #[test]
    fn overlaps_with_compute() {
        // Enqueue a throttled (slow) write and verify control returns
        // to the caller immediately.
        let path = tmp("overlap");
        let f = SharedFile::create(&path).unwrap();
        let es = EventSet::new(1);
        let throttle = Arc::new(Throttle::new(5e6, std::time::Duration::ZERO));
        let start = std::time::Instant::now();
        es.write_at(&f, 0, vec![1u8; 1_000_000], Some(throttle));
        let enqueue_time = start.elapsed();
        assert!(enqueue_time.as_millis() < 50, "enqueue must not block");
        es.wait().unwrap();
        let total = start.elapsed().as_secs_f64();
        assert!(
            total > 0.1,
            "throttled write should take ≥ 0.15 s, took {total}"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn one_worker_lands_writes_in_enqueue_order() {
        // Ten writes of distinct, shrinking lengths to the same
        // offset, the first held on a throttle while the other nine
        // queue up behind it. Each byte ends up holding the id of the
        // last write to cover it; a write that lands before a longer,
        // earlier one is erased by it. So the file reads 9, 8, …, 0
        // exactly when the writes landed in enqueue order.
        const BLOCK: usize = 10_000;
        let path = tmp("fifo");
        let f = SharedFile::create(&path).unwrap();
        let es = EventSet::new(1);
        let throttle = Arc::new(Throttle::new(5e6, std::time::Duration::ZERO));
        for k in 0..10usize {
            let hold = (k == 0).then(|| Arc::clone(&throttle));
            es.write_at(&f, 0, vec![k as u8; (10 - k) * BLOCK], hold);
        }
        es.wait().unwrap();
        let mut landed = vec![0u8; 10 * BLOCK];
        f.read_at(0, &mut landed).unwrap();
        landed.dedup();
        assert_eq!(landed, [9, 8, 7, 6, 5, 4, 3, 2, 1, 0]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn injected_write_failures_surface_at_wait_without_hanging() {
        use pfsim::{Fault, FaultFs, FaultPlan};
        // A torn write crashes the simulated process: the op it hits
        // fails permanently and so does everything after it. All of
        // that must drain (no hang), be recorded typed, and surface
        // at wait() — never panic a worker.
        let path = tmp("faulty");
        let f = SharedFile::create(&path).unwrap();
        f.set_faults(Some(FaultFs::new(
            FaultPlan::new().on_write(2, Fault::TornWrite { keep: 1 }),
        )));
        let es = EventSet::new(1);
        for i in 0..6u64 {
            es.write_at(&f, i * 8, vec![i as u8; 8], None);
        }
        let err = es.wait().unwrap_err();
        match err {
            H5Error::AsyncWrites(fails) => {
                // Ops 0 and 1 land, op 2 is torn, ops 3..6 observe the
                // crash: 4 typed failures.
                assert_eq!(fails.len(), 4, "{fails:?}");
                assert!(fails.iter().all(|w| w.len == 8));
                assert!(
                    fails.iter().all(|w| matches!(
                        pfsim::FaultError::from_io(&w.error),
                        Some(pfsim::FaultError::Crashed { .. })
                    )),
                    "{fails:?}"
                );
            }
            other => panic!("expected AsyncWrites, got {other:?}"),
        }
        assert_eq!(es.pending.depth.lock().unwrap().now, 0);
        // The queue stays usable: errors were drained, and with the
        // harness detached a later write round succeeds.
        f.set_faults(None);
        es.write_at(&f, 0, vec![9; 8], None);
        es.wait().unwrap();
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn multiple_waits() {
        let path = tmp("multi");
        let f = SharedFile::create(&path).unwrap();
        let es = EventSet::new(2);
        es.write_at(&f, 0, vec![1; 10], None);
        es.wait().unwrap();
        es.write_at(&f, 10, vec![2; 10], None);
        es.wait().unwrap();
        assert_eq!(f.tail(), 20);
        std::fs::remove_file(&path).unwrap();
    }
}
