//! Deterministic fault injection for container I/O.
//!
//! [`FaultFs`] sits between [`SharedFile`](crate::SharedFile) and the
//! OS and injects the failure classes a burst buffer or PFS exhibits
//! at scale: torn tail writes (a crash mid-`pwrite`), silent bit flips
//! (media corruption below the checksum) and transient `EIO`s
//! (contended OSTs, flaky interconnect). Faults are scheduled by
//! **write-operation index** — the k-th write attempt — so a given
//! plan replays the same failure sequence every run. Transient faults
//! consume their op index: the retry is the *next* op, which (unless
//! also scheduled) succeeds — exactly the contract a bounded-retry
//! loop needs for a deterministic test. Reads are not scheduled; they
//! only fail once a torn write has crashed the simulated process.

use std::collections::BTreeMap;
use std::fmt;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// One scheduled fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fault {
    /// Crash mid-write: only the first `keep` bytes of the payload
    /// reach the platter, the op fails permanently, and every later op
    /// on this [`FaultFs`] fails too — the process is "dead".
    TornWrite {
        /// Bytes of the payload that land before the crash.
        keep: u64,
    },
    /// Silent corruption: the payload byte at `byte` (mod payload len)
    /// is XOR-ed with `mask` on its way to disk. The op *succeeds* —
    /// only a checksum can catch this later.
    BitFlip {
        /// Payload byte position to corrupt.
        byte: u64,
        /// Non-zero XOR mask.
        mask: u8,
    },
    /// Transient `EIO`: the attempt fails with
    /// [`io::ErrorKind::Interrupted`]; a bounded retry is expected to
    /// succeed (the retry consumes the next op index).
    Transient,
}

/// Why an injected fault failed an operation — the typed payload
/// inside the [`io::Error`]s that [`FaultFs`] produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultError {
    /// Transient fault at op `op`; retrying is appropriate.
    Transient {
        /// Operation index the fault fired at.
        op: u64,
    },
    /// The simulated process crashed at op `op` (torn write); no
    /// retry can succeed.
    Crashed {
        /// Operation index of the crash (or of the op after it).
        op: u64,
    },
    /// Bounded retry was exhausted without the fault clearing.
    RetriesExhausted {
        /// Attempts made before escalating.
        attempts: u32,
    },
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultError::Transient { op } => write!(f, "transient injected fault at op {op}"),
            FaultError::Crashed { op } => write!(f, "simulated crash (torn write) at op {op}"),
            FaultError::RetriesExhausted { attempts } => {
                write!(f, "transient fault persisted after {attempts} attempts")
            }
        }
    }
}

impl std::error::Error for FaultError {}

impl FaultError {
    /// Extract a `FaultError` from an [`io::Error`] produced by fault
    /// injection, if that is what it wraps. Read by h5lite's async-queue
    /// tests, which pin that a torn write surfaces at `wait` as typed
    /// `Crashed` failures instead of a hang.
    pub fn from_io(e: &io::Error) -> Option<&FaultError> {
        e.get_ref().and_then(|inner| inner.downcast_ref())
    }
}

/// Scheduled faults keyed by write-operation index.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Write-op index → fault.
    pub write: BTreeMap<u64, Fault>,
}

impl FaultPlan {
    /// Empty plan (no faults).
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule a fault on the `op`-th write attempt.
    pub fn on_write(mut self, op: u64, fault: Fault) -> Self {
        self.write.insert(op, fault);
        self
    }
}

/// SplitMix64 — the tiny seedable generator used for fault schedules
/// (and good enough for them: we only need reproducible dispersion).
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// Seeded generator.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// Next pseudo-random value. (Named `next_u64` rather than `next`
    /// to avoid colliding with `Iterator::next`.)
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Live counters of what the harness injected and what the retry
/// layer did about it.
#[derive(Debug, Default)]
pub struct FaultStats {
    transient: AtomicU64,
    bit_flips: AtomicU64,
    torn_writes: AtomicU64,
    retries: AtomicU64,
    escalations: AtomicU64,
}

/// Point-in-time copy of [`FaultStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStatsSnapshot {
    /// Transient errors injected.
    pub transient: u64,
    /// Silent bit flips injected.
    pub bit_flips: u64,
    /// Torn writes injected (0 or 1 per `FaultFs`).
    pub(crate) torn_writes: u64,
    /// Retries performed by the I/O layer after transient faults.
    pub retries: u64,
    /// Transient faults escalated to permanent after bounded retry.
    pub escalations: u64,
}

/// What the I/O layer should do with one write attempt.
#[derive(Debug)]
pub enum WriteOutcome {
    /// Write the payload as given.
    Proceed,
    /// Write this substituted payload instead (same length; silently
    /// corrupted en route).
    Corrupted(Vec<u8>),
    /// Write this prefix of the payload, then fail the op permanently
    /// — the simulated crash.
    TornThenCrash {
        /// The bytes that land before the crash.
        prefix: Vec<u8>,
        /// Operation index of the crash.
        op: u64,
    },
    /// Fail the attempt without touching the file.
    Fail(io::Error),
}

/// The fault-injection harness itself; attach with
/// [`SharedFile::set_faults`](crate::SharedFile::set_faults).
#[derive(Debug)]
pub struct FaultFs {
    write_plan: BTreeMap<u64, Fault>,
    write_ops: AtomicU64,
    crashed: AtomicBool,
    stats: FaultStats,
}

impl FaultFs {
    /// Harness executing `plan`.
    pub fn new(plan: FaultPlan) -> Arc<Self> {
        Arc::new(FaultFs {
            write_plan: plan.write,
            write_ops: AtomicU64::new(0),
            crashed: AtomicBool::new(false),
            stats: FaultStats::default(),
        })
    }

    fn transient_err(op: u64) -> io::Error {
        io::Error::new(io::ErrorKind::Interrupted, FaultError::Transient { op })
    }

    fn crashed_err(op: u64) -> io::Error {
        io::Error::other(FaultError::Crashed { op })
    }

    /// True once a torn write has "crashed" the simulated process.
    pub fn crashed(&self) -> bool {
        self.crashed.load(Ordering::SeqCst)
    }

    /// Consult the schedule for the next write attempt on `data`.
    pub fn on_write(&self, data: &[u8]) -> WriteOutcome {
        let op = self.write_ops.fetch_add(1, Ordering::SeqCst);
        if self.crashed() {
            return WriteOutcome::Fail(Self::crashed_err(op));
        }
        match self.write_plan.get(&op) {
            None => WriteOutcome::Proceed,
            Some(Fault::Transient) => {
                self.stats.transient.fetch_add(1, Ordering::Relaxed);
                WriteOutcome::Fail(Self::transient_err(op))
            }
            Some(Fault::BitFlip { byte, mask }) => {
                self.stats.bit_flips.fetch_add(1, Ordering::Relaxed);
                let mut bad = data.to_vec();
                if !bad.is_empty() {
                    let at = (*byte % bad.len() as u64) as usize;
                    bad[at] ^= if *mask == 0 { 1 } else { *mask };
                }
                WriteOutcome::Corrupted(bad)
            }
            Some(Fault::TornWrite { keep }) => {
                self.stats.torn_writes.fetch_add(1, Ordering::SeqCst);
                self.crashed.store(true, Ordering::SeqCst);
                let keep = (*keep as usize).min(data.len());
                WriteOutcome::TornThenCrash {
                    prefix: data[..keep].to_vec(),
                    op,
                }
            }
        }
    }

    /// Gate one read attempt: a typed `Crashed` error (carrying the
    /// next write-op index) once a torn write has crashed the simulated
    /// process, `Ok` otherwise.
    pub fn on_read(&self) -> io::Result<()> {
        if self.crashed() {
            return Err(Self::crashed_err(self.write_ops.load(Ordering::SeqCst)));
        }
        Ok(())
    }

    /// Count one retry performed by the I/O layer.
    pub fn count_retry(&self) {
        self.stats.retries.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one transient→permanent escalation.
    pub fn count_escalation(&self) {
        self.stats.escalations.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot the counters.
    pub fn stats(&self) -> FaultStatsSnapshot {
        FaultStatsSnapshot {
            transient: self.stats.transient.load(Ordering::Relaxed),
            bit_flips: self.stats.bit_flips.load(Ordering::Relaxed),
            torn_writes: self.stats.torn_writes.load(Ordering::Relaxed),
            retries: self.stats.retries.load(Ordering::Relaxed),
            escalations: self.stats.escalations.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transient_fault_consumes_its_op_index() {
        let fs = FaultFs::new(FaultPlan::new().on_write(1, Fault::Transient));
        assert!(matches!(fs.on_write(b"a"), WriteOutcome::Proceed));
        match fs.on_write(b"b") {
            WriteOutcome::Fail(e) => {
                assert_eq!(e.kind(), io::ErrorKind::Interrupted);
                assert!(matches!(
                    FaultError::from_io(&e),
                    Some(FaultError::Transient { op: 1 })
                ));
            }
            other => panic!("expected transient failure, got {other:?}"),
        }
        // The retry is op 2 — unscheduled, so it proceeds.
        assert!(matches!(fs.on_write(b"b"), WriteOutcome::Proceed));
        assert_eq!(fs.stats().transient, 1);
    }

    #[test]
    fn torn_write_crashes_everything_after() {
        let fs = FaultFs::new(FaultPlan::new().on_write(0, Fault::TornWrite { keep: 3 }));
        match fs.on_write(b"abcdef") {
            WriteOutcome::TornThenCrash { prefix, op } => {
                assert_eq!(prefix, b"abc");
                assert_eq!(op, 0);
            }
            other => panic!("expected torn write, got {other:?}"),
        }
        assert!(fs.crashed());
        assert!(matches!(fs.on_write(b"x"), WriteOutcome::Fail(_)));
        assert!(fs.on_read().is_err());
    }

    #[test]
    fn bit_flip_corrupts_exactly_one_byte() {
        let fs = FaultFs::new(FaultPlan::new().on_write(
            0,
            Fault::BitFlip {
                byte: 10,
                mask: 0x40,
            },
        ));
        let data = vec![0u8; 8]; // byte index wraps: 10 % 8 = 2
        match fs.on_write(&data) {
            WriteOutcome::Corrupted(bad) => {
                assert_eq!(bad.len(), data.len());
                assert_eq!(bad[2], 0x40);
                let diffs = bad.iter().zip(&data).filter(|(a, b)| a != b).count();
                assert_eq!(diffs, 1);
            }
            other => panic!("expected corruption, got {other:?}"),
        }
        assert_eq!(fs.stats().bit_flips, 1);
    }
}
