//! The trainer's end-to-end guarantees through the lab evaluator:
//! byte-identical search artifacts at any thread count, the golden
//! train-spec hash, and the committed tuned-vs-default table's acceptance
//! criterion (tuned matches or beats the paper default on at least one
//! QoE scenario without degrading fairness-to-TCP beyond its band).

use marnet_lab::train::{run_training, train_hash, TrainOptions, FAIRNESS_BAND};
use marnet_trainer::FrontArtifact;
use std::path::PathBuf;

/// The smallest budget that still exercises both generations' sampling,
/// the elite refit, and every portfolio member.
fn tiny_opts(threads: usize) -> TrainOptions {
    TrainOptions {
        seed: 7,
        generations: 2,
        population: 3,
        elites: 2,
        replicates: 1,
        threads,
        smoke: true,
    }
}

#[test]
fn search_artifact_is_byte_identical_across_thread_counts() {
    let (result_a, artifact_a) = run_training(&tiny_opts(1));
    let (result_b, artifact_b) = run_training(&tiny_opts(4));
    assert_eq!(artifact_a.to_json(), artifact_b.to_json(), "threads 1 vs 4");
    assert_eq!(result_a.front, result_b.front);
    assert_eq!(result_a.best_index, result_b.best_index);
    // The archive is the full determinism surface: every candidate's
    // point, params, objectives and scalar must agree bit-for-bit.
    assert_eq!(result_a.archive, result_b.archive);
}

#[test]
fn front_is_non_dominated_and_contains_no_dominated_default() {
    let (result, artifact) = run_training(&tiny_opts(2));
    assert!(!artifact.front.is_empty());
    for a in &artifact.front {
        for b in &artifact.front {
            if (a.generation, a.candidate) != (b.generation, b.candidate) {
                assert!(
                    !a.objectives.dominates(&b.objectives),
                    "front entries must be mutually non-dominated"
                );
            }
        }
    }
    // The incumbent is archive index 0 by construction.
    assert_eq!(result.default_index, 0);
    assert_eq!(artifact.default.generation, 0);
    assert_eq!(artifact.default.candidate, 0);
}

/// Path of the committed smoke artifact, from the crate directory.
fn committed_artifact() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results/lab_train_smoke.json")
}

#[test]
fn smoke_train_hash_matches_the_golden_fixture() {
    // The hex FNV-1a over the canonical training spec (space bounds,
    // search budget, portfolio constants). If this fails you changed the
    // experiment: regenerate results/lab_train_smoke.json with
    // `cargo run --release -p marnet-lab -- train --smoke` and update the
    // fixture here.
    let hash = train_hash(&TrainOptions::smoke());
    assert_eq!(hash, "b33ed2a8a156fdec");
    let artifact = FrontArtifact::load(&committed_artifact())
        .expect("committed smoke artifact loads; regenerate with `marnet-lab train --smoke`");
    assert_eq!(artifact.train_hash, hash, "committed artifact was built from a different spec");
}

#[test]
fn committed_comparison_table_meets_the_acceptance_criterion() {
    let artifact = FrontArtifact::load(&committed_artifact()).expect("committed artifact loads");
    // Tuned matches or beats the paper default on at least one QoE
    // scenario...
    let improved = artifact
        .comparison
        .iter()
        .filter(|row| row.metric.starts_with("qoe/"))
        .any(|row| row.tuned >= row.default);
    assert!(
        improved,
        "tuned policy beats the default on no QoE scenario: {:?}",
        artifact.comparison
    );
    // ...without degrading fairness-to-TCP beyond its band.
    assert!(
        artifact.tuned.objectives.fairness >= artifact.default.objectives.fairness - FAIRNESS_BAND,
        "tuned fairness {} degrades more than {} below default {}",
        artifact.tuned.objectives.fairness,
        FAIRNESS_BAND,
        artifact.default.objectives.fairness
    );
    // Provenance sanity: the committed artifact is the CI smoke tier.
    assert!(artifact.smoke);
    assert_eq!(artifact.experiment, "train");
    assert_eq!(
        artifact.evaluations as usize,
        artifact.generations as usize * artifact.population as usize
    );
}
