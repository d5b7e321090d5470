//! The case loop: sample → execute → classify pass/fail/reject — and
//! the greedy shrink search run on the first failure.

use crate::config::ProptestConfig;
use crate::rng::TestRng;
use crate::strategy::Strategy;

/// Outcome of one executed case, proptest-compatible in spirit.
#[derive(Debug, Clone)]
pub enum TestCaseError {
    /// A property was violated; aborts the whole test with this message.
    Fail(String),
    /// The inputs did not satisfy an assumption or a filter; the case
    /// is retried.
    Reject(String),
}

impl TestCaseError {
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError::Fail(msg.into())
    }
}

/// Upper bound on `prop_assume!` / filter rejections per test.
const MAX_GLOBAL_REJECTS: u32 = 65_536;

/// Hard cap on property re-executions during one shrink search, so a
/// pathological candidate chain cannot stall an already-failing suite.
const SHRINK_BUDGET: usize = 2048;

/// Greedy shrink: repeatedly replace the failing value with the first
/// shrink candidate that still fails, until no candidate fails (a
/// local minimum) or the execution budget runs out. Returns the
/// minimal value, the number of accepted shrink steps, and the failure
/// message produced by the minimal case. Candidates that pass or
/// reject (`prop_assume!`) are simply skipped.
fn shrink_failure<S: Strategy>(
    strat: &S,
    mut value: S::Value,
    mut msg: String,
    case: &mut dyn FnMut(S::Value) -> Result<(), TestCaseError>,
) -> (S::Value, usize, String) {
    let mut steps = 0usize;
    let mut budget = SHRINK_BUDGET;
    'search: loop {
        for cand in strat.shrink(&value) {
            if budget == 0 {
                break 'search;
            }
            budget -= 1;
            if let Err(TestCaseError::Fail(m)) = case(cand.clone()) {
                value = cand;
                msg = m;
                steps += 1;
                continue 'search;
            }
        }
        break;
    }
    (value, steps, msg)
}

/// The `proptest!` macro's engine: sample the argument tuple from
/// `strat` and execute `case` until `cfg`'s count of cases passed. On
/// the first failure, run the shrink search and panic with the seed
/// that replays the run and the minimal inputs; `pats` is the
/// stringified argument pattern that labels them.
pub fn run<S, C>(cfg: &ProptestConfig, name: &str, strat: &S, pats: &str, mut case: C)
where
    S: Strategy,
    C: FnMut(S::Value) -> Result<(), TestCaseError>,
{
    let target = cfg.cases;
    let seed = cfg.seed_for(name);
    let mut rng = TestRng::new(seed);
    let mut passed: u32 = 0;
    let mut rejected: u32 = 0;
    while passed < target {
        let sampled = strat.sample(&mut rng);
        let outcome = sampled.and_then(|value| match case(value.clone()) {
            Err(TestCaseError::Fail(msg)) => {
                let (min, steps, msg) = shrink_failure(strat, value, msg, &mut case);
                panic!(
                    "proptest {name}: case {n} of {target} failed \
                     (replay with PROPTEST_SEED={seed})\n{msg}\n\
                     minimal failing input ({steps} shrink steps): {pats} = {min:?}",
                    n = passed + 1
                );
            }
            other => other,
        });
        match outcome {
            Ok(()) => passed += 1,
            Err(_) => {
                rejected += 1;
                if rejected > MAX_GLOBAL_REJECTS {
                    panic!(
                        "proptest {name}: gave up after {rejected} rejected samples \
                         ({passed}/{target} cases passed)"
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(cases: u32) -> ProptestConfig {
        ProptestConfig::with_cases_and_seed(cases, 0x7E57)
    }

    #[test]
    fn runs_requested_cases() {
        let mut n = 0;
        run(&cfg(17), "count", &(0u32..10,), "(v)", |_| {
            n += 1;
            Ok(())
        });
        assert_eq!(n, 17);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn failure_panics_with_message() {
        run(&cfg(5), "fails", &(0u32..10,), "(v)", |_| {
            Err(TestCaseError::fail("boom"))
        });
    }

    #[test]
    fn shrinks_int_to_failure_boundary() {
        let strat = 0u32..1000;
        let mut case = |v: u32| match v {
            0..113 => Ok(()),
            _ => Err(TestCaseError::fail(format!("{v} too big"))),
        };
        let (min, steps, msg) = shrink_failure(&strat, 877, "877 too big".into(), &mut case);
        assert_eq!(min, 113);
        assert!(steps > 0);
        assert_eq!(msg, "113 too big");
    }

    #[test]
    fn shrinks_vec_to_single_minimal_offender() {
        let strat = crate::collection::vec(0u8..=255, 0usize..=20);
        let mut case = |v: Vec<u8>| match v.iter().all(|&x| x < 10) {
            true => Ok(()),
            false => Err(TestCaseError::fail("offender")),
        };
        let start = vec![3, 200, 7, 45];
        let (min, steps, _) = shrink_failure(&strat, start, "offender".into(), &mut case);
        assert_eq!(min, vec![10]);
        assert!(steps > 0);
    }

    #[test]
    fn already_minimal_value_takes_no_steps() {
        let strat = 5u32..100;
        let mut case = |_| Err(TestCaseError::fail("always"));
        let (min, steps, _) = shrink_failure(&strat, 5, "always".into(), &mut case);
        assert_eq!(min, 5);
        assert_eq!(steps, 0);
    }

    #[test]
    fn rejects_are_retried() {
        let mut calls = 0;
        run(&cfg(3), "rejects", &(0u32..10,), "(v)", |_| {
            calls += 1;
            if calls % 2 == 0 {
                Err(TestCaseError::Reject("skip".into()))
            } else {
                Ok(())
            }
        });
        assert!(calls > 3);
    }

    /// The replay contract: the seed a failure prints is the test's
    /// derived seed, and a fresh RNG on it draws the same failing
    /// input at the same case index.
    #[test]
    fn printed_seed_replays_the_failing_case() {
        let (name, cfg) = ("replay", cfg(256));
        let strat = (0u32..1000,);
        let mut first_failure = None;
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run(&cfg, name, &strat, "(v)", |(v,)| {
                if v < 900 {
                    return Ok(());
                }
                first_failure.get_or_insert(v);
                Err(TestCaseError::fail("too big"))
            })
        }))
        .expect_err("a property failing above 900 must fail within 256 cases");
        let msg = panic.downcast_ref::<String>().expect("formatted panic");
        let field = |key: &str, end: char| -> u64 {
            let at = msg.find(key).expect(key) + key.len();
            msg[at..].split(end).next().unwrap().parse().unwrap()
        };
        let seed = field("PROPTEST_SEED=", ')');
        let case = field(": case ", ' ');
        assert_eq!(seed, cfg.seed_for(name));

        let mut rng = TestRng::new(seed);
        let draws: Vec<u32> = (0..case)
            .map(|_| strat.sample(&mut rng).unwrap().0)
            .collect();
        let (last, earlier) = draws.split_last().unwrap();
        assert!(earlier.iter().all(|&v| v < 900), "{draws:?}");
        assert_eq!(Some(*last), first_failure);
    }
}
