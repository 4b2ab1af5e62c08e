//! The search engine: the cross-entropy method (CEM), generic over a
//! population evaluator.
//!
//! Determinism contract: candidate `c` of generation `g` is sampled from
//! the ChaCha12 substream `derive_rng(seed, "train/{g}/{c}")` — one
//! stream per candidate, so the population is independent of evaluation
//! order and thread count. The evaluator must be a pure function of
//! `(generation, population)`; under that contract [`run_search`] is a
//! pure function of its inputs and the emitted artifact is byte-identical
//! at any `--threads`.
//!
//! Generation 0 is seeded with the paper-default incumbent as
//! candidate 0: the search can only match or improve on the incumbent
//! under its own scalarization, and the tuned-vs-default comparison is
//! paired exactly (the evaluator uses common random numbers, see
//! `marnet-lab`'s portfolio).

use crate::objective::{pareto_front, Evaluation};
use crate::space::{PolicyPoint, PolicySpace};
use marnet_core::policy::PolicyParams;
use marnet_sim::rng::derive_rng;
use rand::Rng;
use rand_chacha::ChaCha12Rng;

/// Initial sampling width in the normalized unit cube.
const INIT_SIGMA: f64 = 0.25;
/// Floor the per-dimension width never decays below (keeps late
/// generations exploring).
const SIGMA_FLOOR: f64 = 0.02;

/// Budget of one search run. Elites are ranked by
/// [`crate::Objectives::scalarized`].
#[derive(Debug, Clone, PartialEq)]
pub struct TrainConfig {
    /// Base seed; every candidate derives its own substream.
    pub seed: u64,
    /// Number of generations (outer-loop iterations).
    pub generations: u32,
    /// Population per generation (λ); generation 0 includes the incumbent
    /// as candidate 0.
    pub population: u32,
    /// Elite count: the best candidates the distribution is refit to.
    pub elites: u32,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig { seed: 42, generations: 8, population: 16, elites: 4 }
    }
}

/// One evaluated candidate in the archive.
#[derive(Debug, Clone, PartialEq)]
pub struct Evaluated {
    /// Generation the candidate was sampled in.
    pub generation: u32,
    /// Candidate index within its generation.
    pub candidate: u32,
    /// The raw vector.
    pub point: PolicyPoint,
    /// The compiled policy.
    pub params: PolicyParams,
    /// What the evaluator measured.
    pub evaluation: Evaluation,
    /// The scalarized fitness the engine ranked it by.
    pub scalar: f64,
}

/// The outcome of [`run_search`].
#[derive(Debug, Clone)]
pub struct TrainResult {
    /// Every evaluated candidate, in `(generation, candidate)` order.
    pub archive: Vec<Evaluated>,
    /// Indices into [`TrainResult::archive`] forming the Pareto front, in
    /// the canonical [`pareto_front`] order.
    pub front: Vec<usize>,
    /// Archive index of the paper-default incumbent (always 0).
    pub default_index: usize,
    /// Archive index of the best candidate by scalarized fitness (ties
    /// resolve to the earliest).
    pub best_index: usize,
}

/// One standard-normal draw (Box–Muller over the substream's uniforms).
fn gaussian(rng: &mut ChaCha12Rng) -> f64 {
    let u1: f64 = 1.0 - rng.gen::<f64>(); // (0, 1]
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Samples one candidate around `mean` (normalized coordinates) with
/// per-dimension width `sigma`, clamped into the space.
fn sample(space: &PolicySpace, mean: &[f64], sigma: &[f64], rng: &mut ChaCha12Rng) -> PolicyPoint {
    let values = space
        .dims
        .iter()
        .enumerate()
        .map(|(d, dim)| dim.denormalize(mean[d] + sigma[d] * gaussian(rng)))
        .collect();
    PolicyPoint { values }
}

/// Normalized coordinates of a point.
fn normalize(space: &PolicySpace, point: &PolicyPoint) -> Vec<f64> {
    point.values.iter().zip(&space.dims).map(|(v, d)| d.normalize(*v)).collect()
}

/// Ranks `scalars` descending with index tie-break (deterministic).
fn rank_desc(scalars: &[f64]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..scalars.len()).collect();
    idx.sort_by(|&a, &b| scalars[b].total_cmp(&scalars[a]).then(a.cmp(&b)));
    idx
}

/// Runs the search: a diagonal Gaussian in the normalized unit cube,
/// refit to the elite set each generation. `eval_population` receives the generation
/// number and the sampled population and must return one [`Evaluation`]
/// per candidate, in order; it is called once per generation.
///
/// # Panics
///
/// Panics if the config has a zero budget (`generations`, `population` or
/// `elites`) or the evaluator returns the wrong arity.
pub fn run_search<F>(space: &PolicySpace, cfg: &TrainConfig, mut eval_population: F) -> TrainResult
where
    F: FnMut(u32, &[PolicyPoint]) -> Vec<Evaluation>,
{
    assert!(cfg.generations > 0, "need at least one generation");
    assert!(cfg.population > 0, "need at least one candidate per generation");
    assert!(cfg.elites > 0, "need at least one elite");
    let n = space.len();
    let incumbent = space.default_point();
    let mut archive: Vec<Evaluated> = Vec::new();

    // The sampling distribution.
    let mut mean = normalize(space, &incumbent);
    let mut sigma = vec![INIT_SIGMA; n];

    for g in 0..cfg.generations {
        let population: Vec<PolicyPoint> = (0..cfg.population)
            .map(|c| {
                if g == 0 && c == 0 {
                    return incumbent.clone();
                }
                let mut rng = derive_rng(cfg.seed, &format!("train/{g}/{c}"));
                sample(space, &mean, &sigma, &mut rng)
            })
            .collect();

        let evals = eval_population(g, &population);
        assert_eq!(evals.len(), population.len(), "evaluator arity mismatch in generation {g}");
        let scalars: Vec<f64> = evals.iter().map(|e| e.objectives.scalarized()).collect();
        for (c, (point, evaluation)) in population.iter().zip(&evals).enumerate() {
            archive.push(Evaluated {
                generation: g,
                candidate: c as u32,
                point: point.clone(),
                params: space.compile(point),
                evaluation: evaluation.clone(),
                scalar: scalars[c],
            });
        }

        // Refit the distribution to this generation's elites.
        let ranked = rank_desc(&scalars);
        let elites = &ranked[..(cfg.elites as usize).min(ranked.len())];
        let elite_norms: Vec<Vec<f64>> =
            elites.iter().map(|&i| normalize(space, &population[i])).collect();
        for d in 0..n {
            let m = elite_norms.iter().map(|v| v[d]).sum::<f64>() / elite_norms.len() as f64;
            let var = elite_norms.iter().map(|v| (v[d] - m) * (v[d] - m)).sum::<f64>()
                / elite_norms.len() as f64;
            mean[d] = m;
            sigma[d] = var.sqrt().max(SIGMA_FLOOR);
        }
    }

    let objectives: Vec<_> = archive.iter().map(|e| e.evaluation.objectives).collect();
    let front = pareto_front(&objectives);
    let best_index = rank_desc(&archive.iter().map(|e| e.scalar).collect::<Vec<_>>())[0];
    TrainResult { archive, front, default_index: 0, best_index }
}

/// Picks the "tuned" policy the comparison table recommends: the best
/// scalarized candidate among those that (a) do not degrade fairness by
/// more than `fairness_band` below the incumbent and (b) match or beat
/// the incumbent on at least one `qoe/…` detail scalar (falling back to
/// the aggregate QoE objective when the evaluator reported no details).
/// The incumbent itself satisfies both constraints, so a feasible choice
/// always exists.
pub fn select_tuned(result: &TrainResult, fairness_band: f64) -> usize {
    let incumbent = &result.archive[result.default_index];
    let inc_obj = incumbent.evaluation.objectives;
    let qoe_keys: Vec<&String> =
        incumbent.evaluation.detail.keys().filter(|k| k.starts_with("qoe/")).collect();
    let feasible = |e: &Evaluated| {
        if e.evaluation.objectives.fairness < inc_obj.fairness - fairness_band {
            return false;
        }
        if qoe_keys.is_empty() {
            return e.evaluation.objectives.qoe >= inc_obj.qoe;
        }
        qoe_keys.iter().any(|k| {
            e.evaluation.detail.get(*k).is_some_and(|v| *v >= incumbent.evaluation.detail[*k])
        })
    };
    result
        .archive
        .iter()
        .enumerate()
        .filter(|(_, e)| feasible(e))
        .max_by(|(ia, a), (ib, b)| a.scalar.total_cmp(&b.scalar).then(ib.cmp(ia)))
        .map(|(i, _)| i)
        .unwrap_or(result.default_index)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::Objectives;
    use std::collections::BTreeMap;

    /// A synthetic, pure evaluator: QoE peaks when the staleness horizon
    /// approaches 100 ms and beta approaches 0.6; overhead follows the
    /// FEC choice; fairness dips when ARQ is off.
    fn synthetic(points: &[PolicyPoint]) -> Vec<Evaluation> {
        points
            .iter()
            .map(|p| {
                let qoe =
                    100.0 - (p.values[0] - 100.0).abs() / 10.0 - (p.values[4] - 0.6).abs() * 50.0;
                let fairness = if p.values[9] == 0.0 { 0.6 } else { 0.9 };
                let overhead = 5.0 * p.values[6] + 20.0 * p.values[8];
                let mut detail = BTreeMap::new();
                detail.insert("qoe/synthetic".to_string(), qoe);
                Evaluation { objectives: Objectives { qoe, fairness, overhead }, detail }
            })
            .collect()
    }

    fn small_cfg() -> TrainConfig {
        TrainConfig { generations: 4, population: 8, elites: 3, ..TrainConfig::default() }
    }

    #[test]
    fn search_is_deterministic() {
        let space = PolicySpace::ar_default();
        let a = run_search(&space, &small_cfg(), |_, pop| synthetic(pop));
        let b = run_search(&space, &small_cfg(), |_, pop| synthetic(pop));
        assert_eq!(a.archive, b.archive);
        assert_eq!(a.front, b.front);
        assert_eq!(a.best_index, b.best_index);
    }

    #[test]
    fn every_candidate_respects_bounds_and_incumbent_leads() {
        let space = PolicySpace::ar_default();
        let r = run_search(&space, &small_cfg(), |_, pop| synthetic(pop));
        assert_eq!(r.archive.len(), 4 * 8);
        for e in &r.archive {
            assert!(space.contains(&e.point), "search emitted {:?}", e.point);
        }
        assert_eq!(r.archive[0].point, space.default_point());
        // The incumbent is in the archive, so the best scalar can
        // never be worse than the incumbent's.
        assert!(r.archive[r.best_index].scalar >= r.archive[0].scalar);
    }

    #[test]
    fn front_is_non_dominated() {
        let space = PolicySpace::ar_default();
        let r = run_search(&space, &small_cfg(), |_, pop| synthetic(pop));
        assert!(!r.front.is_empty());
        for &a in &r.front {
            for &b in &r.front {
                if a != b {
                    let (oa, ob) =
                        (r.archive[a].evaluation.objectives, r.archive[b].evaluation.objectives);
                    assert!(!oa.dominates(&ob));
                }
            }
        }
    }

    #[test]
    fn cem_improves_on_the_synthetic_landscape() {
        let space = PolicySpace::ar_default();
        let cfg = TrainConfig { generations: 6, population: 16, ..small_cfg() };
        let r = run_search(&space, &cfg, |_, pop| synthetic(pop));
        assert!(
            r.archive[r.best_index].scalar > r.archive[0].scalar,
            "search failed to beat the incumbent on an easy landscape"
        );
    }

    #[test]
    fn select_tuned_respects_the_fairness_band() {
        let space = PolicySpace::ar_default();
        let r = run_search(&space, &small_cfg(), |_, pop| synthetic(pop));
        let tuned = select_tuned(&r, 0.05);
        let (inc, t) = (&r.archive[0], &r.archive[tuned]);
        assert!(t.scalar >= inc.scalar);
        assert!(t.evaluation.objectives.fairness >= inc.evaluation.objectives.fairness - 0.05);
        assert!(t.evaluation.detail["qoe/synthetic"] >= inc.evaluation.detail["qoe/synthetic"]);
    }
}
