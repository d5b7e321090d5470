//! Facts about the host the benchmark runs on, and one piece of
//! hygiene this sandbox needs.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// `VmHWM` of this process, MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Restart the `VmHWM` high-water mark from the current resident size
/// (Linux: write `5` to `/proc/self/clear_refs`). Where the kernel
/// refuses, the mark keeps covering the whole process and a note says so.
pub fn reset_peak_rss() {
    if let Err(e) = std::fs::write("/proc/self/clear_refs", "5") {
        eprintln!("note: cannot reset VmHWM ({e}); peak_rss_mb includes set-up");
    }
}

/// Cores the host offers.
pub fn parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// About 5 ms of integer work on one thread; returns how long it took.
fn spin() -> Duration {
    let t = Instant::now();
    let mut x = 1u64;
    for _ in 0..4_000_000u32 {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
    }
    black_box(x);
    t.elapsed()
}

/// Wait until two freshly spawned threads run side by side.
///
/// On this 2-vCPU sandbox the scheduler often places a freshly
/// spawned pair of threads on one core after a phase in which a
/// single thread was busy or the process slept, and takes about a
/// second to spread them: every 2-thread call in that second runs at
/// half speed (measured: rtm steps of 120 ms instead of 55 ms for the
/// first 0.7 s). The library spawns its rank and worker threads afresh
/// on every call, so a measurement would inherit that state. This
/// spins fresh pairs until three in a row finish in the time one
/// thread needs alone (at most 2 s), and does nothing on one core.
pub fn settle_cores() {
    if parallelism() < 2 {
        return;
    }
    let solo = spin();
    let deadline = Instant::now() + Duration::from_secs(2);
    let mut streak = 0;
    while streak < 3 && Instant::now() < deadline {
        let t = Instant::now();
        std::thread::scope(|s| {
            s.spawn(spin);
            s.spawn(spin);
        });
        streak = if t.elapsed() < solo.mul_f64(1.3) {
            streak + 1
        } else {
            0
        };
    }
}
