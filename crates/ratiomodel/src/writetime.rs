//! Write-time model — the paper's Eq. (2).
//!
//! `Twrite = B·n / Cthr`: compressed bits over a stable per-process
//! write throughput, fitted offline by writing a few request sizes from
//! a fixed process count and taking the plateau throughput. The paper
//! argues (§III-C) that high accuracy is unnecessary — mispredictions
//! shift all of a process's writes equally, leaving the *ordering*
//! decisions unchanged — so a single scalar suffices.

/// Fitted stable write throughput.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WriteTimeModel {
    /// Stable per-process write throughput, bytes/s (`Cthr`).
    pub cthr: f64,
}

impl WriteTimeModel {
    /// Build from a known throughput.
    pub fn new(cthr: f64) -> Self {
        assert!(cthr > 0.0);
        WriteTimeModel { cthr }
    }

    /// Eq. (2): predicted write time for `n` points at compressed
    /// bit-rate `b` (bits/value).
    pub fn write_time(&self, b: f64, n: usize) -> f64 {
        (b * n as f64 / 8.0) / self.cthr
    }
}

/// Fit `Cthr` from offline `(request_bytes, seconds)` measurements:
/// the byte-weighted mean throughput of the large-request half, which
/// discards the latency-dominated small-request regime (their Fig. 7
/// ramp-up).
pub fn fit(measurements: &[(f64, f64)]) -> WriteTimeModel {
    assert!(!measurements.is_empty());
    let mut sizes: Vec<f64> = measurements.iter().map(|&(s, _)| s).collect();
    sizes.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let median = sizes[sizes.len() / 2];
    let (mut bytes, mut secs) = (0.0, 0.0);
    for &(s, t) in measurements {
        if s >= median && t > 0.0 {
            bytes += s;
            secs += t;
        }
    }
    if secs <= 0.0 {
        // Degenerate input: fall back to the overall mean.
        bytes = measurements.iter().map(|&(s, _)| s).sum();
        secs = measurements.iter().map(|&(_, t)| t).sum::<f64>().max(1e-12);
    }
    WriteTimeModel::new(bytes / secs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq2_matches_definition() {
        let m = WriteTimeModel::new(100e6);
        // 2 bits/value × 400 M values = 100 MB → 1 s at 100 MB/s.
        let t = m.write_time(2.0, 400_000_000);
        assert!((t - 1.0).abs() < 1e-9);
    }

    #[test]
    fn fit_uses_plateau() {
        // Small requests at 10 MB/s (latency-bound), large at 100 MB/s.
        let meas = vec![
            (1e6, 0.1),
            (2e6, 0.2),
            (50e6, 0.5),
            (100e6, 1.0),
            (200e6, 2.0),
        ];
        let m = fit(&meas);
        assert!(m.cthr > 80e6, "cthr {}", m.cthr);
    }

    #[test]
    fn write_time_linear_in_bytes() {
        let m = WriteTimeModel::new(50e6);
        assert!((m.write_time(8.0, 100_000_000) - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn rejects_empty() {
        fit(&[]);
    }
}
