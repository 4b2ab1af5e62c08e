//! Property-based tests for the edge layer: placement solver soundness and
//! optimality ordering on random instances.

use marnet_edge::placement::synthetic_metro;
use marnet_sim::rng::derive_rng;
use marnet_sim::time::SimDuration;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Greedy solutions always cover every feasible user, and the exact
    /// solver is never worse than greedy nor better than the lower bound.
    #[test]
    fn placement_solvers_are_sound_and_ordered(
        seed in 0u64..500,
        users in 10usize..80,
        sites in 2usize..14,
        budget_ms in 8u64..60,
    ) {
        let mut rng = derive_rng(seed, "props.placement");
        let p = synthetic_metro(users, sites, 20.0, SimDuration::from_millis(budget_ms), &mut rng);
        let greedy = p.solve_greedy();
        let exact = p.solve_exact();
        prop_assert!(p.validate(&greedy), "greedy cover invalid");
        prop_assert!(p.validate(&exact), "exact cover invalid");
        prop_assert!(exact.cost() <= greedy.cost(), "exact worse than greedy");
        prop_assert!(p.lower_bound() <= exact.cost(), "lower bound above optimum");
        // Infeasible sets agree (they depend only on the instance).
        prop_assert_eq!(&greedy.uncovered, &exact.uncovered);
    }
}
