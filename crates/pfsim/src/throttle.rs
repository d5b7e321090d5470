//! Token-bucket bandwidth throttle for the real execution engine.
//!
//! Real runs write to tmpfs, which is far faster than any PFS and has
//! no contention; the throttle injects the bandwidth model's behavior
//! (aggregate cap + per-request latency) so real-engine timings exhibit
//! the same qualitative shape as the simulated Lustre (saturating
//! per-process throughput, congestion across ranks).

use crate::bandwidth::BandwidthModel;
use parking_lot::Mutex;
use std::time::{Duration, Instant};

struct Bucket {
    /// Available tokens (bytes).
    tokens: f64,
    /// Last refill instant.
    last: Instant,
}

/// A shared token bucket limiting aggregate bytes/second.
pub struct Throttle {
    rate: f64,
    burst: f64,
    latency: Duration,
    bucket: Mutex<Bucket>,
}

impl Throttle {
    /// Throttle at `bytes_per_sec` aggregate with `latency` injected
    /// per request.
    pub fn new(bytes_per_sec: f64, latency: Duration) -> Self {
        assert!(bytes_per_sec > 0.0);
        Throttle {
            rate: bytes_per_sec,
            burst: bytes_per_sec * 0.05, // 50 ms worth of burst
            latency,
            bucket: Mutex::new(Bucket {
                tokens: 0.0,
                last: Instant::now(),
            }),
        }
    }

    /// Derive a throttle from a bandwidth model, scaled down by
    /// `scale` (tests use small scales so they stay fast).
    pub fn from_model(model: &BandwidthModel, scale: f64) -> Self {
        Throttle::new(
            (model.aggregate_cap * scale).max(1.0),
            Duration::from_secs_f64(model.latency),
        )
    }

    /// Block until `bytes` may pass, also sleeping the per-request
    /// latency. Returns the time spent blocked.
    pub fn acquire(&self, bytes: u64) -> Duration {
        let start = Instant::now();
        if !self.latency.is_zero() {
            std::thread::sleep(self.latency);
        }
        let mut need = bytes as f64;
        loop {
            let wait = {
                let mut b = self.bucket.lock();
                let now = Instant::now();
                let dt = now.duration_since(b.last).as_secs_f64();
                b.last = now;
                b.tokens = (b.tokens + dt * self.rate).min(self.burst.max(need));
                if b.tokens >= need {
                    b.tokens -= need;
                    None
                } else {
                    need -= b.tokens;
                    b.tokens = 0.0;
                    // Sleep long enough for the deficit to refill.
                    Some(Duration::from_secs_f64((need / self.rate).min(0.05)))
                }
            };
            match wait {
                None => return start.elapsed(),
                Some(d) => std::thread::sleep(d),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn limits_aggregate_rate() {
        // 10 MB/s, push 2 MB → should take ~0.2 s.
        let t = Throttle::new(10e6, Duration::ZERO);
        let start = Instant::now();
        for _ in 0..4 {
            t.acquire(500_000);
        }
        let el = start.elapsed().as_secs_f64();
        assert!(el > 0.1, "elapsed {el}");
        assert!(el < 1.0, "elapsed {el}");
    }

    #[test]
    fn latency_injected() {
        let t = Throttle::new(1e12, Duration::from_millis(5));
        let start = Instant::now();
        t.acquire(10);
        assert!(start.elapsed() >= Duration::from_millis(5));
    }

    #[test]
    fn concurrent_threads_share_budget() {
        let t = std::sync::Arc::new(Throttle::new(20e6, Duration::ZERO));
        let start = Instant::now();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let t = std::sync::Arc::clone(&t);
                s.spawn(move || {
                    t.acquire(1_000_000);
                });
            }
        });
        // 4 MB over a 20 MB/s shared budget ≥ ~0.15 s (with burst).
        let el = start.elapsed().as_secs_f64();
        assert!(el > 0.1, "elapsed {el}");
    }
}
