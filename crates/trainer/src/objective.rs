//! Objectives, dominance and Pareto fronts.
//!
//! A candidate's fitness is a three-axis vector: QoE and fairness-to-TCP
//! are maximized, overhead is minimized. The engine needs a single
//! number to rank elites, so a fixed linear scalarization is applied on
//! top — but selection pressure and reporting are kept separate: the
//! emitted artifact carries the full non-dominated front, not just the
//! scalar winner.

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::BTreeMap;

/// The three-objective fitness vector.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Objectives {
    /// Frames delivered within the latency budget, % (maximize).
    pub qoe: f64,
    /// Jain's fairness index of the AR flow vs TCP competitors, in
    /// `[1/n, 1]` (maximize).
    pub fairness: f64,
    /// Redundant wire bytes plus metered cellular share, % (minimize).
    pub overhead: f64,
}

impl Objectives {
    /// Pareto dominance: at least as good on every axis and strictly
    /// better on at least one.
    pub fn dominates(&self, other: &Objectives) -> bool {
        let ge = self.qoe >= other.qoe
            && self.fairness >= other.fairness
            && self.overhead <= other.overhead;
        let gt = self.qoe > other.qoe
            || self.fairness > other.fairness
            || self.overhead < other.overhead;
        ge && gt
    }

    /// The fixed linear scalarization the engine ranks elites by. QoE is
    /// in percent (0..100), fairness in `[0.5, 1]` for one competitor,
    /// overhead in percent — the weights put roughly 100 scalar points on
    /// each of QoE and fairness and make 4 points of extra overhead cost
    /// one point of QoE.
    pub fn scalarized(&self) -> f64 {
        self.qoe + FAIRNESS_WEIGHT * self.fairness - OVERHEAD_WEIGHT * self.overhead
    }
}

/// Scalarization weight on the Jain fairness index (QoE's is 1).
const FAIRNESS_WEIGHT: f64 = 100.0;
/// Scalarization weight (cost) on the overhead percentage.
const OVERHEAD_WEIGHT: f64 = 0.25;

/// What the evaluator returns for one candidate: the objective vector
/// plus named detail scalars (per-scenario breakdowns for the
/// tuned-vs-default comparison table).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Evaluation {
    /// The fitness vector.
    pub objectives: Objectives,
    /// Named per-scenario scalars (e.g. `qoe/recovery`).
    pub detail: BTreeMap<String, f64>,
}

/// Indices of the non-dominated members of `objs`, in a canonical order:
/// descending QoE, then descending fairness, then ascending overhead,
/// then input order. Exact duplicates of an earlier vector are skipped so
/// re-evaluated incumbents do not litter the front.
pub fn pareto_front(objs: &[Objectives]) -> Vec<usize> {
    let mut front: Vec<usize> = Vec::new();
    'cand: for (i, o) in objs.iter().enumerate() {
        for (j, p) in objs.iter().enumerate() {
            if j != i && (p.dominates(o) || (j < i && p == o)) {
                continue 'cand;
            }
        }
        front.push(i);
    }
    front.sort_by(|&a, &b| {
        objs[b]
            .qoe
            .total_cmp(&objs[a].qoe)
            .then(objs[b].fairness.total_cmp(&objs[a].fairness))
            .then(objs[a].overhead.total_cmp(&objs[b].overhead))
            .then(Ordering::Equal)
            .then(a.cmp(&b))
    });
    front
}

#[cfg(test)]
mod tests {
    use super::*;

    fn o(qoe: f64, fairness: f64, overhead: f64) -> Objectives {
        Objectives { qoe, fairness, overhead }
    }

    #[test]
    fn dominance_is_strict_somewhere() {
        assert!(o(90.0, 0.9, 10.0).dominates(&o(80.0, 0.9, 10.0)));
        assert!(o(90.0, 0.9, 10.0).dominates(&o(90.0, 0.9, 12.0)));
        assert!(!o(90.0, 0.9, 10.0).dominates(&o(90.0, 0.9, 10.0)));
        // Trade-offs do not dominate each other.
        assert!(!o(95.0, 0.8, 10.0).dominates(&o(90.0, 0.9, 10.0)));
        assert!(!o(90.0, 0.9, 10.0).dominates(&o(95.0, 0.8, 10.0)));
    }

    #[test]
    fn front_drops_dominated_and_orders_canonically() {
        let objs = [
            o(80.0, 0.9, 20.0), // dominated by 2
            o(95.0, 0.7, 5.0),
            o(90.0, 0.9, 10.0),
            o(85.0, 0.95, 30.0),
        ];
        assert_eq!(pareto_front(&objs), vec![1, 2, 3]);
    }

    #[test]
    fn duplicate_vectors_appear_once() {
        let objs = [o(90.0, 0.9, 10.0), o(90.0, 0.9, 10.0)];
        assert_eq!(pareto_front(&objs), vec![0]);
    }

    #[test]
    fn front_members_are_mutually_non_dominated() {
        let objs = [
            o(80.0, 0.9, 20.0),
            o(95.0, 0.7, 5.0),
            o(90.0, 0.9, 10.0),
            o(90.0, 0.9, 10.0),
            o(99.0, 0.99, 1.0),
        ];
        let front = pareto_front(&objs);
        for &a in &front {
            for &b in &front {
                if a != b {
                    assert!(!objs[a].dominates(&objs[b]));
                }
            }
        }
    }

    #[test]
    fn scalarization_uses_the_weights() {
        let s = o(90.0, 0.9, 20.0).scalarized();
        assert!((s - (90.0 + 90.0 - 5.0)).abs() < 1e-12);
    }
}
