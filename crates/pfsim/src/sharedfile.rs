//! A shared file with positioned (pwrite-style) access for the real
//! execution engine.
//!
//! Multiple rank threads hold clones of one [`SharedFile`] and write to
//! disjoint pre-computed offsets — exactly the access pattern of a
//! parallel HDF5 shared file on Lustre. An atomic tail pointer supports
//! the paper's overflow handling (appending excess data past the
//! reserved region after an all-gather of overflow sizes).
//!
//! Positioned I/O is `std::os::unix::fs::FileExt` (`pread` /
//! `pwrite`), so the crate is Unix-only.

use crate::faults::{FaultError, FaultFs, WriteOutcome};
use parking_lot::Mutex;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io;
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Bounded retry budget for transient injected/OS faults
/// (`ErrorKind::Interrupted`): attempts beyond the first.
const MAX_RETRIES: u32 = 4;

/// Typed error for an [`SharedFile::advance_tail_to`] call that would
/// move the explicit-advance high-water mark backwards — a stale
/// caller replaying an old plan. The tail itself never rewinds; this
/// error reports the rejection instead of silently saturating.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TailRewind {
    /// Offset the stale caller asked for.
    requested: u64,
    /// Previously established high-water mark.
    high_water: u64,
}

impl fmt::Display for TailRewind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "advance_tail_to({}) rewinds below the previous explicit advance ({})",
            self.requested, self.high_water
        )
    }
}

impl std::error::Error for TailRewind {}

impl From<TailRewind> for io::Error {
    fn from(e: TailRewind) -> Self {
        io::Error::new(io::ErrorKind::InvalidInput, e)
    }
}

struct Inner {
    file: File,
    /// Logical end of file for reservations.
    tail: AtomicU64,
    /// High-water mark of explicit [`SharedFile::advance_tail_to`]
    /// offsets: layout regions only ever grow, so a smaller offset
    /// means a stale caller (typed [`TailRewind`] error).
    advance_mark: AtomicU64,
    /// Fault-injection harness, if attached (tests/benches).
    faults: Mutex<Option<Arc<FaultFs>>>,
}

/// A concurrently writable file handle, cheap to clone across ranks.
#[derive(Clone)]
pub struct SharedFile {
    inner: Arc<Inner>,
}

impl SharedFile {
    /// Create (truncate) a shared file at `path`.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path.as_ref())?;
        Ok(SharedFile {
            inner: Arc::new(Inner {
                file,
                tail: AtomicU64::new(0),
                advance_mark: AtomicU64::new(0),
                faults: Mutex::new(None),
            }),
        })
    }

    /// Open an existing file read/write; tail starts at its length.
    pub fn open(path: impl AsRef<Path>) -> io::Result<Self> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(path.as_ref())?;
        let len = file.metadata()?.len();
        Ok(SharedFile {
            inner: Arc::new(Inner {
                file,
                tail: AtomicU64::new(len),
                advance_mark: AtomicU64::new(0),
                faults: Mutex::new(None),
            }),
        })
    }

    /// Attach (or detach, with `None`) a fault-injection harness. All
    /// subsequent `write_at`/`read_at` calls consult it.
    pub fn set_faults(&self, faults: Option<Arc<FaultFs>>) {
        *self.inner.faults.lock() = faults;
    }

    /// Raw positioned write, below fault injection.
    fn write_at_raw(&self, offset: u64, data: &[u8]) -> io::Result<()> {
        self.inner.file.write_all_at(data, offset)
    }

    /// Read exactly `buf.len()` bytes at `offset`. With a fault harness
    /// attached, a read after its simulated crash fails with a typed
    /// `Crashed` error.
    pub fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        let faults = self.inner.faults.lock().clone();
        if let Some(fs) = faults {
            fs.on_read()?;
        }
        self.inner.file.read_exact_at(buf, offset)
    }

    /// Brief backoff before retry `attempt` (1-based) of a transient
    /// fault.
    fn backoff(attempt: u32) {
        std::thread::sleep(std::time::Duration::from_micros(50 * attempt as u64));
    }

    /// Escalate a transient fault that survived the retry budget.
    fn escalate(faults: &FaultFs) -> io::Error {
        faults.count_escalation();
        io::Error::other(FaultError::RetriesExhausted {
            attempts: MAX_RETRIES + 1,
        })
    }

    /// Write `data` at absolute `offset` (thread-safe positioned
    /// write). With a fault harness attached, transient injected
    /// faults are retried with bounded backoff; permanent ones (torn
    /// write / simulated crash) escalate as typed [`io::Error`]s.
    pub fn write_at(&self, offset: u64, data: &[u8]) -> io::Result<()> {
        let faults = self.inner.faults.lock().clone();
        match faults {
            None => self.write_at_raw(offset, data)?,
            Some(fs) => {
                let mut attempt = 0u32;
                loop {
                    match fs.on_write(data) {
                        WriteOutcome::Proceed => {
                            self.write_at_raw(offset, data)?;
                            break;
                        }
                        WriteOutcome::Corrupted(bad) => {
                            // Silent: the op "succeeds"; only the
                            // reader's checksum can notice.
                            self.write_at_raw(offset, &bad)?;
                            break;
                        }
                        WriteOutcome::TornThenCrash { prefix, op } => {
                            let _ = self.write_at_raw(offset, &prefix);
                            return Err(io::Error::other(FaultError::Crashed { op }));
                        }
                        WriteOutcome::Fail(e) if e.kind() == io::ErrorKind::Interrupted => {
                            if attempt >= MAX_RETRIES {
                                return Err(Self::escalate(&fs));
                            }
                            attempt += 1;
                            fs.count_retry();
                            Self::backoff(attempt);
                        }
                        WriteOutcome::Fail(e) => return Err(e),
                    }
                }
            }
        }
        // Keep the logical tail past any explicit write.
        let end = offset + data.len() as u64;
        self.inner.tail.fetch_max(end, Ordering::SeqCst);
        Ok(())
    }

    /// Atomically reserve `len` bytes at the current tail, returning
    /// the reserved offset (used for overflow appends).
    pub fn reserve(&self, len: u64) -> u64 {
        self.inner.tail.fetch_add(len, Ordering::SeqCst)
    }

    /// Move the logical tail to at least `offset` (e.g. after planning
    /// the reserved layout region), returning the resulting tail.
    ///
    /// Explicit advances must be monotone: planned layout regions only
    /// ever grow, so an `offset` below a previously advanced one means
    /// a stale caller replaying an old plan. That is rejected with a
    /// typed [`TailRewind`] error in every build mode; the tail (and
    /// the advance high-water mark) never move backwards, so
    /// reservations handed out after the newer advance stay disjoint
    /// even when the caller ignores the error.
    pub fn advance_tail_to(&self, offset: u64) -> Result<u64, TailRewind> {
        let prev_mark = self.inner.advance_mark.fetch_max(offset, Ordering::SeqCst);
        if offset < prev_mark {
            return Err(TailRewind {
                requested: offset,
                high_water: prev_mark,
            });
        }
        self.inner.tail.fetch_max(offset, Ordering::SeqCst);
        Ok(self.inner.tail.load(Ordering::SeqCst))
    }

    /// Current logical tail (reservations included).
    pub fn tail(&self) -> u64 {
        self.inner.tail.load(Ordering::SeqCst)
    }

    /// Current physical file length.
    pub fn len(&self) -> io::Result<u64> {
        Ok(self.inner.file.metadata()?.len())
    }

    /// True when the file has no bytes yet.
    pub fn is_empty(&self) -> io::Result<bool> {
        Ok(self.len()? == 0)
    }

    /// Flush file data to the OS.
    pub fn sync(&self) -> io::Result<()> {
        self.inner.file.sync_data()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("pfsim-test-{}-{}", std::process::id(), name));
        p
    }

    #[test]
    fn write_read_roundtrip() {
        let path = tmp("rt");
        let f = SharedFile::create(&path).unwrap();
        f.write_at(100, b"hello").unwrap();
        let mut buf = [0u8; 5];
        f.read_at(100, &mut buf).unwrap();
        assert_eq!(&buf, b"hello");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn concurrent_disjoint_writes() {
        let path = tmp("conc");
        let f = SharedFile::create(&path).unwrap();
        std::thread::scope(|s| {
            for r in 0..8u64 {
                let f = f.clone();
                s.spawn(move || {
                    let data = vec![r as u8; 1000];
                    f.write_at(r * 1000, &data).unwrap();
                });
            }
        });
        for r in 0..8u64 {
            let mut buf = vec![0u8; 1000];
            f.read_at(r * 1000, &mut buf).unwrap();
            assert!(buf.iter().all(|&b| b == r as u8));
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn reserve_is_atomic_and_disjoint() {
        let path = tmp("resv");
        let f = SharedFile::create(&path).unwrap();
        f.advance_tail_to(1 << 20).unwrap();
        let offsets: Vec<u64> = std::thread::scope(|s| {
            let hs: Vec<_> = (0..16)
                .map(|_| {
                    let f = f.clone();
                    s.spawn(move || f.reserve(128))
                })
                .collect();
            hs.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut sorted = offsets.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 16, "reservations must be unique");
        assert!(sorted[0] >= 1 << 20);
        assert_eq!(f.tail(), (1 << 20) + 16 * 128);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn tail_tracks_writes() {
        let path = tmp("tail");
        let f = SharedFile::create(&path).unwrap();
        f.write_at(500, &[1, 2, 3]).unwrap();
        assert_eq!(f.tail(), 503);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn advance_tail_is_monotone_and_saturating() {
        let path = tmp("adv");
        let f = SharedFile::create(&path).unwrap();
        assert_eq!(f.advance_tail_to(100).unwrap(), 100);
        // Re-advancing to the same offset is fine (every rank derives
        // the same plan and may advance identically).
        assert_eq!(f.advance_tail_to(100).unwrap(), 100);
        // A write past the advance moves the tail further; the next
        // monotone advance (above the high-water mark, below the tail)
        // saturates at the tail instead of rewinding it.
        f.write_at(150, &[0u8; 10]).unwrap();
        assert_eq!(f.advance_tail_to(120).unwrap(), 160);
        assert_eq!(f.tail(), 160);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn advance_tail_rewind_is_typed_error() {
        let path = tmp("adv-rewind");
        let f = SharedFile::create(&path).unwrap();
        f.advance_tail_to(4096).unwrap();
        // A stale caller replaying an old plan gets a typed rejection
        // in every build mode; the tail stays where it was.
        let err = f.advance_tail_to(512).unwrap_err();
        assert_eq!(
            err,
            TailRewind {
                requested: 512,
                high_water: 4096
            }
        );
        assert_eq!(f.tail(), 4096);
        // The error converts to io::Error for propagation.
        let io_err: io::Error = err.into();
        assert_eq!(io_err.kind(), io::ErrorKind::InvalidInput);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn fault_harness_retries_transients_and_reports_crashes() {
        use crate::faults::{Fault, FaultFs, FaultPlan};

        let path = tmp("faulty");
        let f = SharedFile::create(&path).unwrap();
        let fs = FaultFs::new(
            FaultPlan::new()
                .on_write(0, Fault::Transient)
                .on_write(3, Fault::TornWrite { keep: 2 }),
        );
        f.set_faults(Some(Arc::clone(&fs)));
        // Op 0 transient → retried as op 1 → lands.
        f.write_at(0, b"hello").unwrap();
        let mut buf = [0u8; 5];
        f.read_at(0, &mut buf).unwrap();
        assert_eq!(&buf, b"hello");
        // Op 2 clean.
        f.write_at(5, b"world").unwrap();
        // Op 3 torn: 2 bytes land, the op errors, the harness is
        // "crashed" and everything after fails permanently.
        let err = f.write_at(10, b"abcdef").unwrap_err();
        assert!(matches!(
            FaultError::from_io(&err),
            Some(FaultError::Crashed { op: 3 })
        ));
        assert!(f.write_at(20, b"x").is_err());
        let stats = fs.stats();
        assert_eq!(stats.retries, 1);
        assert_eq!(stats.torn_writes, 1);
        f.set_faults(None);
        let mut torn = [0u8; 2];
        f.read_at(10, &mut torn).unwrap();
        assert_eq!(&torn, b"ab");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn persistent_transient_escalates_after_bounded_retry() {
        use crate::faults::{Fault, FaultFs, FaultPlan};

        let path = tmp("escalate");
        let f = SharedFile::create(&path).unwrap();
        let mut plan = FaultPlan::new();
        for op in 0..32 {
            plan = plan.on_write(op, Fault::Transient);
        }
        let fs = FaultFs::new(plan);
        f.set_faults(Some(Arc::clone(&fs)));
        let err = f.write_at(0, b"never lands").unwrap_err();
        assert!(matches!(
            FaultError::from_io(&err),
            Some(FaultError::RetriesExhausted { .. })
        ));
        assert_eq!(fs.stats().escalations, 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn open_existing_preserves_tail() {
        let path = tmp("open");
        {
            let f = SharedFile::create(&path).unwrap();
            f.write_at(0, &[9u8; 64]).unwrap();
            f.sync().unwrap();
        }
        let f = SharedFile::open(&path).unwrap();
        assert_eq!(f.tail(), 64);
        std::fs::remove_file(&path).unwrap();
    }
}
