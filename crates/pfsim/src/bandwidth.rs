//! Analytical parallel-file-system bandwidth model.
//!
//! Three properties of Lustre/GPFS-class storage drive every result in
//! the paper, and all three are explicit parameters here:
//!
//! 1. **Per-process throughput saturates with request size** (their
//!    Fig. 7): small requests are latency-dominated, large ones reach a
//!    stable per-process ceiling `per_proc_peak`.
//! 2. **Writers share an aggregate ceiling** `aggregate_cap`, so many
//!    concurrent independent writers contend.
//! 3. **Collective writes pay synchronization overhead** per round
//!    (`collective_overhead`), and all ranks wait for the slowest.
//!
//! Presets `summit()` and `bebop()` are calibrated to the *relative*
//! magnitudes in the paper (Summit has substantially higher aggregate
//! I/O bandwidth than Bebop), not to absolute GB/s.

/// Saturating-throughput model of one parallel file system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BandwidthModel {
    /// Peak sustained write throughput of a single process, bytes/s.
    pub per_proc_peak: f64,
    /// Request size (bytes) at which a process reaches half of peak.
    pub half_size: f64,
    /// Aggregate cap across all concurrent writers, bytes/s.
    pub aggregate_cap: f64,
    /// Fixed per-request latency, seconds.
    pub latency: f64,
    /// Per-round synchronization overhead of collective writes, seconds.
    pub collective_overhead: f64,
    /// Throughput derate of collective writes relative to independent
    /// writes (HDF5 collective I/O is substantially slower per byte
    /// than independent writes on these systems; see the paper's
    /// choice of independent writes and ref. \[19\]).
    pub collective_factor: f64,
}

impl BandwidthModel {
    /// Summit-like preset. Per-process throughput saturates in the
    /// tens of MB/s (the paper's Fig. 7 measures ~10–35 MB/s per
    /// process at 128 writers) and the aggregate cap yields ~40 MB/s
    /// fair share at 512 ranks.
    pub fn summit() -> Self {
        BandwidthModel {
            per_proc_peak: 40e6,
            half_size: 5e6,
            aggregate_cap: 20e9,
            latency: 300e-6,
            collective_overhead: 2e-3,
            collective_factor: 0.35,
        }
    }

    /// Bebop-like preset: lower aggregate bandwidth ceiling.
    pub fn bebop() -> Self {
        BandwidthModel {
            per_proc_peak: 25e6,
            half_size: 5e6,
            aggregate_cap: 5e9,
            latency: 500e-6,
            collective_overhead: 3e-3,
            collective_factor: 0.3,
        }
    }

    /// A small, easily congested system for tests.
    pub fn tiny_for_tests() -> Self {
        BandwidthModel {
            per_proc_peak: 100e6,
            half_size: 1e6,
            aggregate_cap: 400e6,
            latency: 1e-4,
            collective_overhead: 1e-3,
            collective_factor: 0.5,
        }
    }

    /// Per-process throughput (bytes/s) for a request of `bytes`
    /// ignoring contention: `peak · s / (s + half_size)`.
    pub fn per_proc_throughput(&self, bytes: f64) -> f64 {
        if bytes <= 0.0 {
            return self.per_proc_peak / (1.0 + self.half_size);
        }
        self.per_proc_peak * bytes / (bytes + self.half_size)
    }

    /// Uncontended time (s) to write `bytes` from one process. Read by
    /// `tests/proptest_invariants.rs`, which pins that the event engine
    /// on one rank is Algorithm 1's recurrence over these write times.
    pub fn solo_write_time(&self, bytes: f64) -> f64 {
        if bytes <= 0.0 {
            return self.latency;
        }
        self.latency + bytes / self.per_proc_throughput(bytes)
    }

    /// Instantaneous fair-share rate for one of `active` concurrent
    /// writers with request size `bytes`.
    pub fn contended_rate(&self, bytes: f64, active: usize) -> f64 {
        let fair = self.aggregate_cap / active.max(1) as f64;
        self.per_proc_throughput(bytes).min(fair)
    }

    /// The "stable write throughput" `Cthr` of the paper's Eq. (2):
    /// the large-request per-process rate under `nprocs`-way contention.
    pub fn stable_cthr(&self, nprocs: usize) -> f64 {
        self.per_proc_peak
            .min(self.aggregate_cap / nprocs.max(1) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_monotone_in_size() {
        let m = BandwidthModel::summit();
        let mut prev = 0.0;
        for mb in [0.1, 0.5, 1.0, 5.0, 10.0, 50.0, 100.0] {
            let t = m.per_proc_throughput(mb * 1e6);
            assert!(t > prev, "throughput must increase with size");
            prev = t;
        }
        assert!(prev < m.per_proc_peak);
    }

    #[test]
    fn saturation_reaches_peak() {
        let m = BandwidthModel::bebop();
        let t = m.per_proc_throughput(1e12);
        assert!(t > 0.999 * m.per_proc_peak);
    }

    #[test]
    fn half_size_is_half_peak() {
        let m = BandwidthModel::summit();
        let t = m.per_proc_throughput(m.half_size);
        assert!((t - m.per_proc_peak / 2.0).abs() < 1e-6 * m.per_proc_peak);
    }

    #[test]
    fn contention_divides_cap() {
        let m = BandwidthModel::tiny_for_tests();
        // 8 writers of huge requests: fair share is cap/8 < per-proc peak.
        let r = m.contended_rate(1e9, 8);
        assert!((r - m.aggregate_cap / 8.0).abs() < 1.0);
        // Single writer of a huge request is limited by its own peak.
        let r1 = m.contended_rate(1e9, 1);
        assert!(r1 <= m.per_proc_peak);
    }

    #[test]
    fn solo_time_includes_latency() {
        let m = BandwidthModel::summit();
        assert!(m.solo_write_time(0.0) >= m.latency);
        let t = m.solo_write_time(100e6);
        assert!(t > 100e6 / m.per_proc_peak);
    }

    #[test]
    fn summit_faster_than_bebop() {
        let s = BandwidthModel::summit();
        let b = BandwidthModel::bebop();
        assert!(s.aggregate_cap > b.aggregate_cap);
        assert!(s.stable_cthr(512) > b.stable_cthr(512));
    }

    #[test]
    fn stable_cthr_decreases_with_scale() {
        let m = BandwidthModel::summit();
        assert!(m.stable_cthr(256) >= m.stable_cthr(4096));
    }
}
