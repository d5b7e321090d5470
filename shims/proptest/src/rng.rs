//! Deterministic splitmix64 RNG — small, fast, and reproducible across
//! platforms, which is all a value-tree-free property tester needs.

/// Deterministic RNG handed to strategies.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    pub fn new(seed: u64) -> Self {
        TestRng { state: seed }
    }

    /// splitmix64 step (Steele, Lea, Flood — "Fast splittable PRNGs").
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`; `n` must be nonzero. Modulo bias is
    /// negligible for test-input generation.
    pub fn u64_below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let a: Vec<u64> = {
            let mut r = TestRng::new(42);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = TestRng::new(42);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        let c = TestRng::new(43).next_u64();
        assert_ne!(a[0], c);
    }

    #[test]
    fn unit_in_range() {
        let mut r = TestRng::new(7);
        for _ in 0..1000 {
            let u = r.unit_f64();
            assert!((0.0..1.0).contains(&u));
        }
    }
}
