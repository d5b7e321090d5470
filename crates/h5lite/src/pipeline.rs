//! Parallel chunk-compression pipeline overlapped with async writes.
//!
//! With the classic H5Z filter model, compression serializes in front
//! of every chunk write; the paper's design (§II-A) instead overlaps
//! compression with the asynchronous VOL so chunk *k+1* compresses
//! while chunk *k* is still in flight. This module provides that
//! overlap:
//!
//! * [`ordered_fanout`] — a generic worker pool (scoped threads
//!   claiming ascending job indices from one counter) that starts jobs
//!   in index order, lets them finish in any order and delivers
//!   results to a sink *in index order*; at one worker it is a plain
//!   loop on the calling thread;
//! * [`compress_chunks`] — chunk tiles fanned out to compression
//!   workers, each reusing a [`FilterScratch`] across its chunks. Every
//!   dataset write of [`H5File`](crate::H5File) runs through it; the
//!   sink decides whether a chunk is written synchronously
//!   ([`write_full`](crate::H5File::write_full)) or streams into an
//!   [`EventSet`](crate::EventSet) write queue
//!   ([`write_full_pipelined`](crate::H5File::write_full_pipelined)).
//!
//! Because file offsets are reserved in chunk-index order by the
//! single sink thread, the produced file is **byte-identical** at any
//! worker count.
//!
//! The read side runs through the same [`ordered_fanout`] pool:
//! [`H5Reader::read_pipelined`](crate::H5Reader::read_pipelined) fans
//! chunk reads + filter inversion out to scratch-reusing workers that
//! write into disjoint parts of the one output buffer (nothing is left
//! for the sink to do), so decoded data is **value-identical** at any
//! worker count. The first failed chunk closes the index counter: the
//! rest of the dataset is not decoded before the error is reported.

use crate::chunk::gather_tile_into;
use crate::error::{H5Error, Result};
use crate::filter::{apply_into, FilterScratch};
use crate::meta::{Dtype, FilterSpec};
use crate::pool::BufferPool;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;

/// Run `job(worker_state, i)` for every `i in 0..n` on a pool of
/// `workers` threads, delivering each result to `sink` in ascending
/// `i` order (a small reorder buffer holds out-of-order completions).
/// Workers claim indices in ascending order too, so the sink's next
/// result is always among the `workers` oldest jobs in progress.
///
/// `make_worker` builds one state value per worker thread — scratch
/// buffers live there and are reused across that worker's jobs. With
/// `workers <= 1` everything runs inline on the calling thread, with
/// no channels or spawns — same job, same sink, same order.
///
/// The first error (from a job or from the sink) wins: it closes the
/// index counter, so every worker stops after the job it is running,
/// and is returned once they have. So does a job's panic, re-raised
/// with its own payload.
pub fn ordered_fanout<W, T, E, Mk, J, S>(
    n: u64,
    workers: usize,
    make_worker: Mk,
    job: J,
    mut sink: S,
) -> std::result::Result<(), E>
where
    T: Send,
    E: Send,
    Mk: Fn() -> W + Sync,
    J: Fn(&mut W, u64) -> std::result::Result<T, E> + Sync,
    S: FnMut(u64, T) -> std::result::Result<(), E>,
{
    if workers <= 1 || n <= 1 {
        let mut w = make_worker();
        for i in 0..n {
            sink(i, job(&mut w, i)?)?;
        }
        return Ok(());
    }

    let nw = workers.min(n as usize);
    let next_job = AtomicU64::new(0);
    let (res_tx, res_rx) = mpsc::channel::<(u64, std::result::Result<T, E>)>();

    std::thread::scope(|s| {
        let mut workers = Vec::with_capacity(nw);
        for _ in 0..nw {
            let res_tx = res_tx.clone();
            let (make_worker, job, next_job) = (&make_worker, &job, &next_job);
            workers.push(s.spawn(move || {
                let mut w = Worker(make_worker(), next_job, n);
                loop {
                    // Relaxed: the counter hands out indices and
                    // publishes no other data.
                    let i = next_job.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let r = job(&mut w.0, i);
                    if r.is_err() {
                        // Closed before the error is sent: no index
                        // is claimed after a failure.
                        next_job.store(n, Ordering::Relaxed);
                    }
                    if res_tx.send((i, r)).is_err() {
                        break;
                    }
                }
            }));
        }
        drop(res_tx);

        let mut next = 0u64;
        let mut held: BTreeMap<u64, T> = BTreeMap::new();
        let mut deliver = || {
            for _ in 0..n {
                let Ok((i, r)) = res_rx.recv() else {
                    // All workers gone without a result: only reachable
                    // if a job panicked, which is re-raised below.
                    break;
                };
                held.insert(i, r?);
                while let Some(t) = held.remove(&next) {
                    sink(next, t)?;
                    next += 1;
                }
            }
            Ok(())
        };
        let delivered = deliver();
        if delivered.is_err() {
            next_job.store(n, Ordering::Relaxed);
        }
        for w in workers {
            w.join().unwrap_or_else(|p| std::panic::resume_unwind(p));
        }
        delivered
    })
}

/// A worker's state `.0`, which closes the job counter `.1` (sets it
/// to the job count `.2`) if the worker unwinds.
struct Worker<'a, W>(W, &'a AtomicU64, u64);

impl<W> Drop for Worker<'_, W> {
    fn drop(&mut self) {
        // A panicking job closes the counter as a failed one does, so
        // the other workers stop after the job they are running.
        if std::thread::panicking() {
            self.1.store(self.2, Ordering::Relaxed);
        }
        // Scoped-thread closures complete before TLS teardown: retire
        // this worker's span buffer explicitly so the trace drain
        // cannot race thread exit.
        obs::trace::flush_thread();
    }
}

/// Compress every chunk of a chunked dataset of `dtype` elements
/// through the `filters` chain on `workers` threads, delivering
/// `(chunk_index, stored_bytes, raw_len)` to `sink` in ascending chunk
/// order. Each worker gathers its own tiles from the shared `data`
/// buffer (no per-chunk input copies on the caller side) and reuses
/// one [`FilterScratch`] plus one tile buffer across all its chunks.
///
/// Stored-chunk buffers are taken from `pool`; the sink keeps
/// ownership and should return them there once consumed (as
/// [`H5File::write_chunk_at_async`](crate::H5File::write_chunk_at_async)
/// does when the write lands), after which steady-state streaming
/// allocates nothing per chunk.
#[allow(clippy::too_many_arguments)]
pub fn compress_chunks<S>(
    filters: &[FilterSpec],
    data: &[u8],
    dims: &[u64],
    dtype: Dtype,
    chunk_dims: &[u64],
    workers: usize,
    pool: &BufferPool,
    mut sink: S,
) -> Result<()>
where
    S: FnMut(u64, Vec<u8>, u64) -> Result<()>,
{
    if dims.len() != chunk_dims.len() || dims.is_empty() {
        return Err(H5Error::Corrupt("pipeline chunk rank"));
    }
    let n_chunks: u64 = dims
        .iter()
        .zip(chunk_dims)
        .map(|(&d, &c)| d.div_ceil(c))
        .product();
    ordered_fanout(
        n_chunks,
        workers,
        || (FilterScratch::new(), Vec::new()),
        |(scratch, tile): &mut (FilterScratch, Vec<u8>), c| {
            let _span = obs::span_arg("h5.chunk_compress", c);
            gather_tile_into(data, dims, dtype.size(), chunk_dims, c, tile)?;
            let mut stored = pool.take();
            apply_into(filters, dtype, tile, scratch, &mut stored)?;
            Ok((stored, tile.len() as u64))
        },
        |c, (stored, raw)| sink(c, stored, raw),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::{Barrier, Condvar, Mutex};

    #[test]
    fn fanout_delivers_in_order() {
        for workers in [1, 2, 5, 8, 16] {
            let mut seen = Vec::new();
            ordered_fanout::<_, _, (), _, _, _>(
                100,
                workers,
                || (),
                |_, i| Ok(i * 3),
                |i, v| {
                    assert_eq!(v, i * 3);
                    seen.push(i);
                    Ok(())
                },
            )
            .unwrap();
            assert_eq!(seen, (0..100).collect::<Vec<_>>());
        }
    }

    #[test]
    fn fanout_starts_jobs_in_index_order() {
        // The in-order sink can only emit job 0's result once job 0
        // has run, so the overlap the pipeline exists for needs jobs
        // to *start* in index order. A barrier per round of `workers`
        // jobs pins the interleaving: every worker records one start,
        // then all proceed — job i's start lands in round i / workers.
        for workers in [2usize, 8] {
            let started = Mutex::new(Vec::new());
            let round = Barrier::new(workers);
            ordered_fanout::<_, _, (), _, _, _>(
                64,
                workers,
                || (),
                |_, i| {
                    started.lock().unwrap().push(i);
                    round.wait();
                    Ok(())
                },
                |_, ()| Ok(()),
            )
            .unwrap();
            let started = started.into_inner().unwrap();
            for (pos, &i) in started.iter().enumerate() {
                assert!(
                    pos.abs_diff(i as usize) < workers,
                    "{workers} workers: job {i} started {pos}th of {started:?}"
                );
            }
        }
    }

    /// Worker state that opens a gate when its worker exits.
    struct OpensOnExit<'a>(&'a (Mutex<bool>, Condvar));

    impl Drop for OpensOnExit<'_> {
        fn drop(&mut self) {
            *self.0 .0.lock().unwrap() = true;
            self.0 .1.notify_all();
        }
    }

    #[test]
    fn fanout_stops_claiming_after_the_first_error() {
        // Job 3 fails, by returning an error or by panicking. The
        // barrier pins every round up to its own (all `workers` jobs of
        // a round have started before any returns), and the other jobs
        // of its round then hold their workers until some worker has
        // exited — which the failing one does only after closing the
        // counter. So exactly the pinned rounds ever start; without the
        // early stop the failing job's worker (or, after a panic, the
        // others) runs the remaining 990 jobs before the call returns.
        for panics in [false, true] {
            for workers in [2usize, 8] {
                let pinned = (3 / workers + 1) * workers;
                let started = AtomicUsize::new(0);
                let round = Barrier::new(workers);
                let exited = (Mutex::new(false), Condvar::new());
                let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    ordered_fanout::<_, u64, String, _, _, _>(
                        1000,
                        workers,
                        || OpensOnExit(&exited),
                        |_, i| {
                            started.fetch_add(1, Ordering::Relaxed);
                            if (i as usize) < pinned {
                                round.wait();
                            }
                            if i == 3 && panics {
                                panic!("job {i}");
                            }
                            if i == 3 {
                                return Err(format!("job {i}"));
                            }
                            if (pinned - workers..pinned).contains(&(i as usize)) {
                                let open = exited.0.lock().unwrap();
                                drop(exited.1.wait_while(open, |open| !*open).unwrap());
                            }
                            Ok(i)
                        },
                        |_, _| Ok(()),
                    )
                }));
                let started = started.into_inner();
                assert_eq!(started, pinned, "{workers} workers, panics: {panics}");
                assert!(started < 3 + 2 * workers);
                // A panic is re-raised with the job's own payload.
                let failure = match r {
                    Ok(r) => r.unwrap_err(),
                    Err(payload) => *payload.downcast::<String>().unwrap(),
                };
                assert_eq!(failure, "job 3", "{workers} workers, panics: {panics}");
            }
        }
    }

    #[test]
    fn fanout_propagates_job_error() {
        let r = ordered_fanout::<_, u64, &str, _, _, _>(
            50,
            4,
            || (),
            |_, i| if i == 17 { Err("boom") } else { Ok(i) },
            |_, _| Ok(()),
        );
        assert_eq!(r, Err("boom"));
    }

    #[test]
    fn fanout_propagates_sink_error_and_stops() {
        let delivered = AtomicUsize::new(0);
        let r = ordered_fanout::<_, _, &str, _, _, _>(
            50,
            4,
            || (),
            |_, i| Ok(i),
            |i, _| {
                if i == 10 {
                    Err("sink")
                } else {
                    delivered.fetch_add(1, Ordering::Relaxed);
                    Ok(())
                }
            },
        );
        assert_eq!(r, Err("sink"));
        assert_eq!(delivered.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn fanout_uses_per_worker_state() {
        // Each worker's counter only ever increments, proving state
        // persists across jobs on the same thread.
        ordered_fanout::<_, _, (), _, _, _>(
            64,
            3,
            || 0usize,
            |count, _| {
                *count += 1;
                Ok(*count)
            },
            |_, c| {
                assert!(c >= 1);
                Ok(())
            },
        )
        .unwrap();
    }
}
