//! `proptest::collection::vec` — variable-length vectors of a strategy.

use crate::rng::TestRng;
use crate::strategy::{SampleResult, Strategy};
use std::ops::{Range, RangeInclusive};

/// Inclusive length bounds, converted from the range forms suites use.
pub struct SizeRange(RangeInclusive<usize>);

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> Self {
        assert!(r.start < r.end, "empty vec size range");
        SizeRange(r.start..=r.end - 1)
    }
}

impl From<RangeInclusive<usize>> for SizeRange {
    fn from(r: RangeInclusive<usize>) -> Self {
        assert!(r.start() <= r.end(), "empty vec size range");
        SizeRange(r)
    }
}

pub struct VecStrategy<S> {
    element: S,
    size: RangeInclusive<usize>,
}

/// A `Vec` whose length is uniform in `size` and whose elements are
/// drawn independently from `element`.
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    let size = size.into().0;
    VecStrategy { element, size }
}

/// At most this many positions get per-element candidates per shrink
/// round, bounding candidate fan-out on large vectors.
const ELEMENT_SHRINK_POSITIONS: usize = 64;

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;
    fn sample(&self, rng: &mut TestRng) -> SampleResult<Vec<S::Value>> {
        let len = self.size.sample(rng)?;
        (0..len).map(|_| self.element.sample(rng)).collect()
    }

    fn shrink(&self, v: &Vec<S::Value>) -> Vec<Vec<S::Value>> {
        let mut out = Vec::new();
        let lo = *self.size.start();
        // Shorter vectors first: truncate hard to the minimum length,
        // bisect, then drop each single element — removing an interior
        // element peels passengers off a failing suffix, which plain
        // truncation cannot.
        if v.len() > lo {
            out.push(v[..lo].to_vec());
            let half = lo + (v.len() - lo) / 2;
            if half > lo && half < v.len() {
                out.push(v[..half].to_vec());
            }
            for i in 0..v.len().min(ELEMENT_SHRINK_POSITIONS) {
                let mut w = v.clone();
                w.remove(i);
                out.push(w);
            }
        }
        // Then element-wise simplification at fixed length.
        for i in 0..v.len().min(ELEMENT_SHRINK_POSITIONS) {
            for cand in self.element.shrink(&v[i]) {
                let mut w = v.clone();
                w[i] = cand;
                out.push(w);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn length_bounds_hold_for_all_forms() {
        let mut rng = TestRng::new(3);
        for _ in 0..200 {
            assert_eq!(vec(0u8..10, 4..=4).sample(&mut rng).unwrap().len(), 4);
            let a = vec(0u8..10, 1usize..5).sample(&mut rng).unwrap();
            assert!((1..5).contains(&a.len()));
            let b = vec(0u8..10, 2usize..=6).sample(&mut rng).unwrap();
            assert!((2..=6).contains(&b.len()));
        }
    }

    #[test]
    fn elements_respect_inner_strategy() {
        let mut rng = TestRng::new(4);
        let v = vec(5u32..8, 0usize..64).sample(&mut rng).unwrap();
        assert!(v.iter().all(|&x| (5..8).contains(&x)));
    }
}
