//! `any::<T>()` — full-domain strategies for the primitive types the
//! suites draw.

use crate::rng::TestRng;
use crate::strategy::{shrink_int, SampleResult, Strategy};
use std::marker::PhantomData;

/// Strategy for "any value of T, bits chosen uniformly".
pub struct Any<T>(PhantomData<fn() -> T>);

pub fn any<T>() -> Any<T>
where
    Any<T>: Strategy<Value = T>,
{
    Any(PhantomData)
}

macro_rules! arbitrary_ints {
    ($($t:ty),+) => {$(
        impl Strategy for Any<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> SampleResult<$t> {
                Ok(rng.next_u64() as $t)
            }
            fn shrink(&self, v: &$t) -> Vec<$t> {
                // Toward zero, mirrored so negative values approach it
                // from below.
                let v = *v as i128;
                shrink_int(v.abs(), 0).into_iter().map(|c| (c * v.signum()) as $t).collect()
            }
        }
    )+};
}

arbitrary_ints!(u8, u32, u64, i64);

// Floats sample raw bit patterns, so NaN and infinities occur — the
// same contract as real proptest's `any::<f64>()`; pair with
// `prop_filter` for finite-only domains.
impl Strategy for Any<f64> {
    type Value = f64;
    fn sample(&self, rng: &mut TestRng) -> SampleResult<f64> {
        Ok(f64::from_bits(rng.next_u64()))
    }
}

impl Strategy for Any<bool> {
    type Value = bool;
    fn sample(&self, rng: &mut TestRng) -> SampleResult<bool> {
        Ok(rng.next_u64() & 1 == 1)
    }
    fn shrink(&self, v: &bool) -> Vec<bool> {
        if *v {
            vec![false]
        } else {
            Vec::new()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_sign_and_magnitude() {
        let mut rng = TestRng::new(11);
        let s = any::<i64>();
        let vals: Vec<i64> = (0..64).map(|_| s.sample(&mut rng).unwrap()).collect();
        assert!(vals.iter().any(|&v| v < 0) && vals.iter().any(|&v| v > 0));
    }

    #[test]
    fn u8_reaches_both_halves() {
        let mut rng = TestRng::new(12);
        let s = any::<u8>();
        let vals: Vec<u8> = (0..256).map(|_| s.sample(&mut rng).unwrap()).collect();
        assert!(vals.iter().any(|&v| v < 128) && vals.iter().any(|&v| v >= 128));
    }
}
