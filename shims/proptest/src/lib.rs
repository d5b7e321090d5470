//! Offline shim for `proptest`: exactly the strategy/macro surface the
//! workspace test suites use, built on a deterministic splitmix64 RNG.
//!
//! Differences from real proptest, by design:
//!
//! * **greedy shrinking, no value trees** — on the first failure the
//!   runner minimizes the inputs by greedy descent over per-strategy
//!   candidate lists ([`strategy::Strategy::shrink`]): integers step
//!   toward their range minimum, vectors toward fewer and smaller
//!   elements, tuples one component at a time. The search stops at a
//!   local minimum or after a fixed execution budget and reports the
//!   minimal failing inputs;
//! * **a pinned seed per block** — every `proptest!` block names its
//!   [`config::ProptestConfig::with_cases_and_seed`], and each test
//!   derives its RNG stream from that seed hashed with the test name,
//!   so every run sees identical inputs and runs exactly its cases;
//! * **one replay value** — a failure prints `PROPTEST_SEED=<n>`, the
//!   test's derived seed; running the test with that variable set
//!   draws the same inputs in the same order.

pub mod arbitrary;
pub mod collection;
pub mod config;
pub mod option;
pub mod rng;
pub mod strategy;
pub mod test_runner;

pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::config::ProptestConfig;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::TestCaseError;
    pub use crate::{prop_assert, prop_assert_eq, prop_assume, prop_oneof, proptest};
}

/// The entry macro: a config attribute plus `#[test]` functions whose
/// arguments are drawn from strategies.
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases_and_seed(64, 0x5EED))]
///     #[test]
///     fn commutes(a in 0u32..10, b in 0u32..10) {
///         prop_assert_eq!(a + b, b + a);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)]
        $(
            $(#[$meta:meta])*
            fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                // All arguments form one tuple strategy so a failing
                // case can be shrunk component-by-component.
                $crate::test_runner::run(
                    &$cfg,
                    stringify!($name),
                    &($(($strat),)+),
                    stringify!(($($pat),+)),
                    |($($pat,)+)| {
                        $body
                        ::std::result::Result::Ok(())
                    },
                );
            }
        )*
    };
}

/// Fail the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)));
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)*)),
            );
        }
    };
}

/// Fail the current case unless the two values compare equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {
        match (&$left, &$right) {
            (l, r) => {
                $crate::prop_assert!(
                    *l == *r,
                    "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
                    stringify!($left), stringify!($right), l, r
                );
            }
        }
    };
    ($left:expr, $right:expr, $($fmt:tt)*) => {
        match (&$left, &$right) {
            (l, r) => {
                $crate::prop_assert!(*l == *r, $($fmt)*);
            }
        }
    };
}

/// Discard the current case (not a failure) unless `cond` holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject(
                concat!("assumption failed: ", stringify!($cond)).into(),
            ));
        }
    };
}

/// Choose uniformly among several strategies producing the same value
/// type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strat)),+
        ])
    };
}
