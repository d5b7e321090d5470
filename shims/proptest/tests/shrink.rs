//! End-to-end shrinking through the `proptest!` macro: failing cases
//! must be minimized before the panic message is built, and the
//! message must name the minimal inputs.

use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases_and_seed(256, 0x5EED_0FC0_FFEE))]
    // Any sampled v ≥ 13 fails; the greedy ladder walks it down to
    // exactly 13, the smallest failing value, regardless of the start.
    #[test]
    #[should_panic(expected = "(13,)")]
    fn int_failures_shrink_to_the_boundary(v in 0u32..10_000) {
        prop_assert!(v < 13);
    }

    // A failing vec keeps at least one element ≥ 10. Single-element
    // removal peels every passenger off, and the element ladder lands
    // on exactly 10 — the minimal counterexample is always `[10]`.
    #[test]
    #[should_panic(expected = "[10]")]
    fn vec_failures_shrink_to_one_minimal_element(
        v in proptest::collection::vec(0u32..1000, 1..8)
    ) {
        prop_assert!(v.iter().all(|&x| x < 10));
    }

    // Multi-argument failures shrink per component: the int collapses
    // to its range minimum and the vec empties, since the property
    // fails unconditionally.
    #[test]
    #[should_panic(expected = "(7, [])")]
    fn tuple_components_shrink_independently(
        a in 7u32..500,
        b in proptest::collection::vec(0u8..=255, 0..6),
    ) {
        prop_assert!(a == u32::MAX && b.len() > 100, "unsatisfiable");
    }

    // Shrinking must never promote a passing value: everything below
    // the boundary passes, so the reported minimum stays failing.
    #[test]
    fn passing_properties_never_invoke_shrinking(v in 0u32..50) {
        prop_assert!(v < 50);
    }
}

proptest! {
    // prop_assume rejections during shrinking are skipped, not
    // treated as failures: candidates below 20 are assumed away, so
    // the minimal failing input is the assumption boundary.
    #![proptest_config(ProptestConfig::with_cases_and_seed(64, 0x5EED_0FC0_FFEE))]
    #[test]
    #[should_panic(expected = "(20,)")]
    fn assumed_away_candidates_are_not_minimal(v in 0u32..5000) {
        prop_assume!(v >= 20);
        prop_assert!(false, "always fails once assumed");
    }
}
