//! The lab's headline guarantee: the serialized artifact of a run is
//! byte-identical at any thread count, and fully reproducible from the
//! spec and seed alone.

use marnet_bench::scenarios::{run_recovery_config_instrumented, RecoveryMechanism};
use marnet_core::config::ArConfig;
use marnet_lab::artifact::Artifact;
use marnet_lab::runner::{run_experiment, TrialCtx, TrialReport};
use marnet_lab::spec::{GridPoint, ParamValue, ScenarioSpec};
use marnet_telemetry::TelemetryOptions;
use proptest::prelude::*;

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

/// Runs a down-scaled recovery sweep through the lab and serializes the
/// artifact, with payload pooling forced on or off. The chunked flight
/// recorder is enabled so the identity claim covers the PR's whole hot
/// path, not just the allocator.
fn recovery_artifact(
    rtt_ms: u64,
    loss: f64,
    mech: RecoveryMechanism,
    threads: usize,
    pooling: bool,
) -> String {
    let spec = ScenarioSpec::new("pooling-identity-probe", 0xA11C, 2)
        .with_param("rtt_ms", ParamValue::Int(rtt_ms as i64))
        .with_param("loss_pct", ParamValue::Float(loss * 100.0));
    let run = run_experiment(&spec, threads, move |point, ctx| {
        let rtt = point.param("rtt_ms").as_int().unwrap() as u64;
        let loss = point.param("loss_pct").as_float().unwrap() / 100.0;
        let telemetry = TelemetryOptions { trace_capacity: Some(1 << 12), metrics: false };
        let cfg = ArConfig { pooling, ..mech.config() };
        let (outcome, events, capture) =
            run_recovery_config_instrumented(rtt, loss, &cfg, 2, ctx.seed, &telemetry);
        let mut report = TrialReport::new();
        report.scalar("delivered_in_budget_pct", outcome.delivered_in_budget_pct);
        report.scalar("delivered_total_pct", outcome.delivered_total_pct);
        report.scalar("overhead_pct", outcome.overhead_pct);
        report.scalar("events", events as f64);
        report.scalar("trace_events", capture.events.len() as f64);
        report
    });
    Artifact::from_run(&run).to_json()
}

proptest! {
    // Each case runs four full sweeps; a handful of cases keeps the suite
    // fast while still sampling the (rtt, loss, mechanism) surface.
    #![proptest_config(ProptestConfig { cases: 4 })]

    /// The PR's pooling contract: forced-fresh allocation and pooled
    /// buffers produce byte-identical lab artifacts at `--threads 1` and
    /// `8`, with the chunked recorder on.
    #[test]
    fn pooled_and_fresh_artifacts_are_byte_identical_across_threads(
        rtt_ix in 0usize..3,
        loss in 0.0f64..0.15,
        mech_ix in 0usize..RecoveryMechanism::ALL.len(),
    ) {
        let rtt_ms = [20u64, 40, 80][rtt_ix];
        let mech = RecoveryMechanism::ALL[mech_ix];
        let base = recovery_artifact(rtt_ms, loss, mech, 1, true);
        for (threads, pooling) in [(8usize, true), (1, false), (8, false)] {
            let got = recovery_artifact(rtt_ms, loss, mech, threads, pooling);
            prop_assert_eq!(
                &base,
                &got,
                "threads={} pooling={} diverged from threads=1 pooling=on ({} @ rtt {} loss {:.3})",
                threads,
                pooling,
                mech.label(),
                rtt_ms,
                loss
            );
        }
    }
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
