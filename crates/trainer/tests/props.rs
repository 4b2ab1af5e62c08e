//! Property tests for the trainer's three contracts: clamping always
//! lands inside the space, search results are a pure function of the
//! seed and budget, and the reported front is genuinely non-dominated.

use marnet_trainer::{
    pareto_front, run_search, select_tuned, Evaluation, Objectives, PolicyPoint, PolicySpace,
    TrainConfig,
};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// A synthetic, pure evaluator parameterized by landscape coefficients,
/// so each proptest case exercises a different objective surface.
fn synthetic(points: &[PolicyPoint], target_ms: f64, beta_weight: f64) -> Vec<Evaluation> {
    points
        .iter()
        .map(|p| {
            let qoe = 100.0
                - (p.values[0] - target_ms).abs() / 10.0
                - (p.values[4] - 0.6).abs() * beta_weight;
            let fairness = 0.6 + 0.1 * p.values[9];
            let overhead = 5.0 * p.values[6] + 10.0 * p.values[8];
            let mut detail = BTreeMap::new();
            detail.insert("qoe/synthetic".to_string(), qoe);
            Evaluation { objectives: Objectives { qoe, fairness, overhead }, detail }
        })
        .collect()
}

/// Wild inputs for the clamping property: a wide finite range salted
/// with the non-finite and signed-zero special values.
fn wild() -> impl Strategy<Value = f64> {
    prop_oneof![
        -1.0e9f64..1.0e9,
        (0usize..4).prop_map(|i| [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0][i]),
    ]
}

proptest! {
    /// Clamping any finite-or-not vector produces a legal point, and a
    /// legal point always compiles into policy params inside the bounds.
    #[test]
    fn clamping_always_lands_in_the_space(
        raw in prop::collection::vec(wild(), 10),
    ) {
        let space = PolicySpace::ar_default();
        let mut p = PolicyPoint { values: raw };
        space.clamp(&mut p);
        prop_assert!(space.contains(&p));
        let params = space.compile(&p);
        prop_assert!(params.stale_after_ms >= 60.0 && params.stale_after_ms <= 400.0);
        prop_assert!(params.beta >= 0.5 && params.beta <= 0.95);
        // Round-tripping a compiled policy is the identity.
        prop_assert_eq!(space.compile(&space.encode(&params)), params);
    }

    /// Same seed + budget ⇒ bit-identical archive, front and tuned pick,
    /// for arbitrary landscapes.
    #[test]
    fn search_is_a_pure_function_of_seed_and_budget(
        seed in any::<u64>(),
        target_ms in 60.0f64..400.0,
        beta_weight in 0.0f64..80.0,
    ) {
        let space = PolicySpace::ar_default();
        let cfg = TrainConfig {
            seed,
            generations: 3,
            population: 6,
            elites: 2,
        };
        let a = run_search(&space, &cfg, |_, pop| synthetic(pop, target_ms, beta_weight));
        let b = run_search(&space, &cfg, |_, pop| synthetic(pop, target_ms, beta_weight));
        prop_assert_eq!(&a.archive, &b.archive);
        prop_assert_eq!(&a.front, &b.front);
        prop_assert_eq!(a.best_index, b.best_index);
        prop_assert_eq!(select_tuned(&a, 0.02), select_tuned(&b, 0.02));
        // Every sampled candidate respects the bounds.
        for e in &a.archive {
            prop_assert!(space.contains(&e.point));
        }
        // The incumbent is always candidate (0, 0) and always feasible,
        // so the tuned pick can never fall below it on the scalarization.
        prop_assert_eq!(&a.archive[0].point, &space.default_point());
        let tuned = select_tuned(&a, 0.02);
        prop_assert!(a.archive[tuned].scalar >= a.archive[0].scalar);
    }

    /// The front reported over arbitrary objective sets is non-dominated,
    /// complete (every non-member is dominated by or duplicates a member),
    /// and stable under permutation of equals.
    #[test]
    fn pareto_front_is_non_dominated_and_complete(
        objs in prop::collection::vec((0.0f64..100.0, 0.0f64..1.0, 0.0f64..50.0), 1..40),
    ) {
        let objectives: Vec<Objectives> = objs
            .iter()
            .map(|&(qoe, fairness, overhead)| Objectives { qoe, fairness, overhead })
            .collect();
        let front = pareto_front(&objectives);
        prop_assert!(!front.is_empty());
        for &a in &front {
            for &b in &front {
                if a != b {
                    prop_assert!(!objectives[a].dominates(&objectives[b]));
                }
            }
        }
        // Completeness: anything off the front is dominated by someone on
        // it, or is an exact duplicate of a front member.
        for (i, o) in objectives.iter().enumerate() {
            if front.contains(&i) {
                continue;
            }
            let covered = front.iter().any(|&f| {
                objectives[f].dominates(o)
                    || (objectives[f].qoe == o.qoe
                        && objectives[f].fairness == o.fairness
                        && objectives[f].overhead == o.overhead)
            });
            prop_assert!(covered, "index {i} is neither on the front nor dominated");
        }
    }
}
