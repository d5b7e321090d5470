//! Run configuration: case count and the deterministic seed.

/// Subset of proptest's `ProptestConfig` plus an explicit RNG seed so
/// suites are reproducible by construction.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of successful cases required per test.
    pub(crate) cases: u32,
    /// Base seed; each test derives its own stream by hashing its name
    /// into this.
    rng_seed: u64,
}

impl ProptestConfig {
    /// Explicit case count and seed in one call, so a suite's
    /// determinism is visible at the use site.
    pub fn with_cases_and_seed(cases: u32, rng_seed: u64) -> Self {
        ProptestConfig {
            cases: cases.max(1),
            rng_seed,
        }
    }

    /// Per-test seed: the configured base seed mixed with an FNV-1a
    /// hash of the test name, so sibling tests draw independent
    /// streams while staying reproducible.
    ///
    /// `PROPTEST_SEED` in the environment is taken **verbatim** (no
    /// name mixing): failure messages print the already-derived seed,
    /// so replaying with that exact value must reproduce the stream.
    pub fn seed_for(&self, test_name: &str) -> u64 {
        if let Ok(Ok(seed)) = std::env::var("PROPTEST_SEED").map(|v| v.parse()) {
            return seed;
        }
        let mut h: u64 = 0xCBF2_9CE4_8422_2325;
        for b in test_name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        self.rng_seed ^ h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_differ_per_test_but_are_stable() {
        let c = ProptestConfig::with_cases_and_seed(10, 7);
        assert_eq!(c.seed_for("alpha"), c.seed_for("alpha"));
        assert_ne!(c.seed_for("alpha"), c.seed_for("beta"));
    }

    #[test]
    fn explicit_seed_changes_stream() {
        let a = ProptestConfig::with_cases_and_seed(10, 1);
        let b = ProptestConfig::with_cases_and_seed(10, 2);
        assert_ne!(a.seed_for("t"), b.seed_for("t"));
    }
}
