//! The lab's headline guarantee: the serialized artifact of a run is
//! byte-identical at any thread count, and fully reproducible from the
//! spec and seed alone.

use marnet_lab::artifact::Artifact;
use marnet_lab::runner::{run_experiment, TrialCtx, TrialReport};
use marnet_lab::spec::{GridPoint, ParamValue, ScenarioSpec};

fn spec() -> ScenarioSpec {
    ScenarioSpec::new("determinism-probe", 2024, 16)
        .with_param("gain", ParamValue::Float(2.5))
        .with_axis("mode", vec![ParamValue::Str("a".into()), ParamValue::Str("b".into())])
        .with_axis("level", vec![ParamValue::Int(1), ParamValue::Int(2), ParamValue::Int(3)])
}

/// A trial with real RNG use, per-point behaviour and an occasional panic,
/// so the determinism claim is exercised on the messy path, not a toy.
fn trial(point: &GridPoint, ctx: &TrialCtx) -> TrialReport {
    use rand::Rng;
    let mut rng = ctx.rng();
    let gain = point.param("gain").as_float().unwrap();
    let level = point.param("level").as_int().unwrap() as f64;
    if point.param("mode").as_str() == Some("b") && ctx.replicate == 7 {
        panic!("synthetic failure");
    }
    let mut report = TrialReport::new();
    let samples: Vec<f64> = (0..50).map(|_| gain * level + rng.gen_range(-1.0..1.0)).collect();
    report.scalar("mean_level", samples.iter().sum::<f64>() / samples.len() as f64);
    report.scalar("draw", rng.gen_range(0.0..1.0));
    report.samples("latency_ms", samples);
    report
}

#[test]
fn artifacts_are_byte_identical_across_thread_counts() {
    let spec = spec();
    let json_by_threads: Vec<String> = [1usize, 2, 8]
        .iter()
        .map(|&threads| Artifact::from_run(&run_experiment(&spec, threads, trial)).to_json())
        .collect();
    assert_eq!(json_by_threads[0], json_by_threads[1], "1 vs 2 threads");
    assert_eq!(json_by_threads[1], json_by_threads[2], "2 vs 8 threads");
}

#[test]
fn reruns_of_the_same_spec_are_byte_identical() {
    let a = Artifact::from_run(&run_experiment(&spec(), 4, trial)).to_json();
    let b = Artifact::from_run(&run_experiment(&spec(), 4, trial)).to_json();
    assert_eq!(a, b);
}

#[test]
fn changing_the_seed_changes_the_results_but_not_the_shape() {
    let mut reseeded = spec();
    reseeded.seed = 2025;
    let a = Artifact::from_run(&run_experiment(&spec(), 4, trial));
    let b = Artifact::from_run(&run_experiment(&reseeded, 4, trial));
    assert_ne!(a.to_json(), b.to_json());
    assert_eq!(a.points.len(), b.points.len());
    // Failures are part of the deterministic contract too.
    assert_eq!(a.failed_trials, 3, "mode=b has one failing replicate per level");
    assert_eq!(b.failed_trials, 3);
}

#[test]
fn built_in_experiment_artifact_is_thread_independent() {
    // The real table2_rtt experiment, scaled down for test time.
    let exp = marnet_lab::experiments::build(
        "table2_rtt",
        2,
        7,
        &marnet_telemetry::TelemetryOptions::disabled(),
    )
    .unwrap();
    let mut spec = exp.spec.clone();
    // 40 probes instead of 200 keeps this test quick.
    spec.base.insert("probes".into(), ParamValue::Int(40));
    let a = Artifact::from_run(&run_experiment(&spec, 2, |p, c| (exp.trial)(p, c)));
    let b = Artifact::from_run(&run_experiment(&spec, 8, |p, c| (exp.trial)(p, c)));
    assert_eq!(a.to_json(), b.to_json());
    assert_eq!(a.failed_trials, 0);
    // Every scenario point carries the CI-bearing summaries.
    for point in &a.points {
        assert!(point.scalars.contains_key("median_ms"));
        assert!(point.samples.contains_key("rtt_ms"));
        assert_eq!(point.replicates_ok, 2);
    }
}
