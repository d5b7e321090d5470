//! The `Strategy` trait and the combinators / primitive strategies the
//! workspace suites use: ranges, tuples, `Just`, unions (`prop_oneof!`),
//! map / flat_map / filter and boxing.

use crate::rng::TestRng;
use crate::test_runner::TestCaseError;
use std::fmt::Debug;
use std::ops::{Range, RangeInclusive};

/// How many resamples a `prop_filter` attempts before rejecting the
/// whole case back to the runner.
const FILTER_RETRIES: usize = 256;

/// A sampled value, or [`TestCaseError::Reject`] when a filter gave up.
pub type SampleResult<T> = Result<T, TestCaseError>;

/// A reusable generator of values. Unlike real proptest there is no
/// value tree: sampling is direct, and shrinking is a stateless greedy
/// descent over [`Strategy::shrink`] candidate lists.
pub trait Strategy {
    type Value: Debug + Clone;

    fn sample(&self, rng: &mut TestRng) -> SampleResult<Self::Value>;

    /// Candidate simplifications of a failing `value`, most aggressive
    /// first. The runner keeps the first candidate that still fails and
    /// restarts from it; an empty list (the default) means the value is
    /// already minimal as far as this strategy can tell.
    fn shrink(&self, _value: &Self::Value) -> Vec<Self::Value> {
        Vec::new()
    }

    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        O: Debug + Clone,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S: Strategy,
        F: Fn(Self::Value) -> S,
    {
        FlatMap { inner: self, f }
    }

    fn prop_filter<F>(self, whence: impl Into<String>, f: F) -> Filter<Self, F>
    where
        Self: Sized,
        F: Fn(&Self::Value) -> bool,
    {
        Filter {
            inner: self,
            whence: whence.into(),
            f,
        }
    }

    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        Box::new(self)
    }
}

/// Always produces a clone of the wrapped value.
pub struct Just<T>(pub T);

impl<T: Clone + Debug> Strategy for Just<T> {
    type Value = T;
    fn sample(&self, _rng: &mut TestRng) -> SampleResult<T> {
        Ok(self.0.clone())
    }
}

pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, O, F> Strategy for Map<S, F>
where
    S: Strategy,
    O: Debug + Clone,
    F: Fn(S::Value) -> O,
{
    type Value = O;
    fn sample(&self, rng: &mut TestRng) -> SampleResult<O> {
        Ok((self.f)(self.inner.sample(rng)?))
    }
    // No shrink: the mapping cannot be inverted to recover an input to
    // simplify, so mapped values are reported as-is.
}

pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S, S2, F> Strategy for FlatMap<S, F>
where
    S: Strategy,
    S2: Strategy,
    F: Fn(S::Value) -> S2,
{
    type Value = S2::Value;
    fn sample(&self, rng: &mut TestRng) -> SampleResult<S2::Value> {
        let first = self.inner.sample(rng)?;
        (self.f)(first).sample(rng)
    }
}

pub struct Filter<S, F> {
    inner: S,
    whence: String,
    f: F,
}

impl<S, F> Strategy for Filter<S, F>
where
    S: Strategy,
    F: Fn(&S::Value) -> bool,
{
    type Value = S::Value;
    fn sample(&self, rng: &mut TestRng) -> SampleResult<S::Value> {
        for _ in 0..FILTER_RETRIES {
            let v = self.inner.sample(rng)?;
            if (self.f)(&v) {
                return Ok(v);
            }
        }
        let whence = &self.whence;
        Err(TestCaseError::Reject(format!(
            "filter '{whence}' kept rejecting samples"
        )))
    }

    fn shrink(&self, value: &S::Value) -> Vec<S::Value> {
        // Candidates must stay inside the filtered domain.
        let mut c = self.inner.shrink(value);
        c.retain(|v| (self.f)(v));
        c
    }
}

/// Type-erased strategy, produced by [`Strategy::boxed`].
pub type BoxedStrategy<T> = Box<dyn Strategy<Value = T>>;

impl<T: Debug + Clone> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> SampleResult<T> {
        (**self).sample(rng)
    }
    fn shrink(&self, value: &T) -> Vec<T> {
        (**self).shrink(value)
    }
}

/// Uniform choice among boxed strategies — the engine of `prop_oneof!`.
pub struct Union<T> {
    arms: Vec<BoxedStrategy<T>>,
}

impl<T: Debug + Clone> Union<T> {
    pub fn new(arms: Vec<BoxedStrategy<T>>) -> Self {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        Union { arms }
    }
}

impl<T: Debug + Clone> Strategy for Union<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> SampleResult<T> {
        self.arms[rng.u64_below(self.arms.len() as u64) as usize].sample(rng)
    }
    // No shrink: the producing arm is unknown after the fact, and
    // another arm's candidates could leave the sampled arm's domain.
}

/// Shrink ladder for an integer toward a range minimum: the minimum
/// itself, geometric steps back toward the failing value, then its
/// predecessor. Greedy descent over this ladder converges in
/// O(log span) accepted steps plus a short linear tail.
pub(crate) fn shrink_int(v: i128, lo: i128) -> Vec<i128> {
    if v <= lo {
        return Vec::new();
    }
    let d = v - lo;
    let mut out = vec![lo, lo + d / 2, lo + d * 3 / 4, lo + d * 7 / 8, v - 1];
    out.dedup(); // the ladder is non-decreasing, so dedup suffices
    out
}

/// Uniform in `lo..=hi`: the arithmetic every integer range shares.
fn sample_int(lo: i128, hi: i128, rng: &mut TestRng) -> i128 {
    assert!(lo <= hi, "empty range strategy");
    lo + ((rng.next_u64() as u128) % ((hi - lo + 1) as u128)) as i128
}

macro_rules! int_range_strategies {
    ($($t:ty),+) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> SampleResult<$t> {
                Ok(sample_int(self.start as i128, self.end as i128 - 1, rng) as $t)
            }
            fn shrink(&self, v: &$t) -> Vec<$t> {
                shrink_int(*v as i128, self.start as i128).into_iter().map(|c| c as $t).collect()
            }
        }

        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> SampleResult<$t> {
                Ok(sample_int(*self.start() as i128, *self.end() as i128, rng) as $t)
            }
            fn shrink(&self, v: &$t) -> Vec<$t> {
                shrink_int(*v as i128, *self.start() as i128).into_iter().map(|c| c as $t).collect()
            }
        }
    )+};
}

int_range_strategies!(u8, u32, u64, usize, i32);

macro_rules! float_range_strategies {
    ($($t:ty),+) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> SampleResult<$t> {
                assert!(self.start < self.end, "empty range strategy");
                let unit = rng.unit_f64() as $t;
                let v = self.start + (self.end - self.start) * unit;
                // Rounding (notably f64→f32 for units near 1) can land
                // exactly on the exclusive upper bound; keep the
                // contract by stepping just below it.
                Ok(if v >= self.end { self.end.next_down() } else { v })
            }
        }
    )+};
}

float_range_strategies!(f32, f64);

macro_rules! tuple_strategies {
    ($(($($name:ident $idx:tt),+);)+) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn sample(&self, rng: &mut TestRng) -> SampleResult<Self::Value> {
                Ok(($(self.$idx.sample(rng)?,)+))
            }
            fn shrink(&self, v: &Self::Value) -> Vec<Self::Value> {
                // One component at a time, the others held fixed.
                let mut out = Vec::new();
                $(
                    for cand in self.$idx.shrink(&v.$idx) {
                        let mut t = v.clone();
                        t.$idx = cand;
                        out.push(t);
                    }
                )+
                out
            }
        }
    )+};
}

tuple_strategies! {
    (A 0);
    (A 0, B 1);
    (A 0, B 1, C 2);
    (A 0, B 1, C 2, D 3);
    (A 0, B 1, C 2, D 3, E 4);
    (A 0, B 1, C 2, D 3, E 4, F 5);
    (A 0, B 1, C 2, D 3, E 4, F 5, G 6);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> TestRng {
        TestRng::new(0x5EED_0FC0_FFEE)
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut r = rng();
        for _ in 0..500 {
            let v = (3usize..17).sample(&mut r).unwrap();
            assert!((3..17).contains(&v));
            let f = (-2.5f64..4.0).sample(&mut r).unwrap();
            assert!((-2.5..4.0).contains(&f));
            let i = (-5i32..=5).sample(&mut r).unwrap();
            assert!((-5..=5).contains(&i));
        }
    }

    #[test]
    fn map_filter_flat_map_compose() {
        let mut r = rng();
        let s = (1usize..10)
            .prop_map(|n| n * 2)
            .prop_filter("mult of 4", |n| n % 4 == 0)
            .prop_flat_map(|n| crate::collection::vec(0u8..=255, n..=n));
        for _ in 0..100 {
            let v = s.sample(&mut r).unwrap();
            assert!(v.len() % 4 == 0 && v.len() >= 4);
        }
    }

    #[test]
    fn union_reaches_every_arm() {
        let mut r = rng();
        let u = Union::new(vec![Just(0u8).boxed(), Just(1).boxed(), Just(2).boxed()]);
        let mut seen = [0usize; 3];
        for _ in 0..300 {
            seen[u.sample(&mut r).unwrap() as usize] += 1;
        }
        assert!(seen.iter().all(|&n| n > 50), "arm counts {seen:?}");
    }
}
