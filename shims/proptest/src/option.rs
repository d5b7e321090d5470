//! `proptest::option::of` — optional values.

use crate::rng::TestRng;
use crate::strategy::{SampleResult, Strategy};

pub struct OptionStrategy<S> {
    inner: S,
}

/// `Some` three times out of four (matching real proptest's default
/// weighting), `None` otherwise.
pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
    OptionStrategy { inner }
}

impl<S: Strategy> Strategy for OptionStrategy<S> {
    type Value = Option<S::Value>;
    fn sample(&self, rng: &mut TestRng) -> SampleResult<Option<S::Value>> {
        let some = rng.u64_below(4) != 0;
        some.then(|| self.inner.sample(rng)).transpose()
    }

    fn shrink(&self, v: &Option<S::Value>) -> Vec<Option<S::Value>> {
        match v {
            None => Vec::new(),
            Some(x) => std::iter::once(None)
                .chain(self.inner.shrink(x).into_iter().map(Some))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn produces_both_variants() {
        let mut rng = TestRng::new(9);
        let s = of(0u32..100);
        let vals: Vec<Option<u32>> = (0..200).map(|_| s.sample(&mut rng).unwrap()).collect();
        assert!(vals.iter().any(Option::is_none));
        assert!(vals.iter().any(Option::is_some));
        assert!(vals.iter().flatten().all(|&v| v < 100));
    }
}
