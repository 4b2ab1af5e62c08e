//! `marnet-lab train` — automated search over the graceful-degradation
//! policy space.
//!
//! The trainer/evaluator split: `marnet-trainer` owns the search space and
//! the engine (CEM) but never runs a simulation; this module
//! is the evaluator. Each generation's population is compiled into
//! [`ArConfig`]s and fanned across worker threads through the lab's
//! [`run_experiment`] runner (candidate × portfolio-member grid,
//! `replicates` trials per cell), so the whole search inherits the
//! runner's determinism guarantee: **byte-identical artifacts at any
//! `--threads`**.
//!
//! Seeding uses common random numbers (CRN): the simulation seed of a
//! portfolio trial depends only on `(member, replicate)` — substream
//! `train/eval/{member}/{replicate}` of the base seed — never on the
//! generation or candidate. Every candidate therefore faces exactly the
//! same stochastic network conditions, so candidate comparisons (and the
//! committed tuned-vs-default table) are paired, not confounded by seed
//! luck.
//!
//! The portfolio scores three QoE scenarios (loss recovery at 36 ms RTT,
//! the §VI-D multipath commute, a 500 ms link outage under the hardened
//! stack), a fairness-to-TCP scenario (Jain index on a shared
//! bottleneck), and tracks byte overhead — folded into the
//! `(qoe, fairness, overhead)` objective vector the engine ranks. The
//! trainer measures only the policy: the city-scale capacity argument
//! (E17) has no AR endpoint for a policy to act on, and
//! `sweep_cityscale` measures it.

use crate::runner::run_experiment;
use crate::spec::{ParamValue, ScenarioSpec};
use marnet_bench::scenarios::{
    run_fairness_config_instrumented, run_faults_config_instrumented,
    run_multipath_commute_config_instrumented, run_recovery_config_instrumented, Contender,
    FaultScenario,
};
use marnet_bench::{fmt, print_table};
use marnet_core::config::{ArConfig, OutageConfig};
use marnet_core::policy::PolicyParams;
use marnet_sim::hash::{fnv1a, FNV_OFFSET_BASIS};
use marnet_sim::rng::derive_rng;
use marnet_sim::stats::jain_index;
use marnet_telemetry::TelemetryOptions;
use marnet_trainer::{
    run_search, select_tuned, ComparisonRow, Evaluated, Evaluation, FrontArtifact, FrontEntry,
    Objectives, PolicySpace, TrainConfig, TrainResult, SCHEMA_VERSION,
};
use rand::Rng;
use serde::Serialize;
use std::collections::BTreeMap;
use std::path::Path;

/// Portfolio members in canonical (axis) order.
pub const MEMBERS: [&str; 4] = ["recovery", "offload", "faults", "fairness"];

/// Recovery member: RTT of the paper's cloud-over-WiFi row.
const RECOVERY_RTT_MS: u64 = 36;
/// Recovery member: §VI-C reference loss rate.
const RECOVERY_LOSS: f64 = 0.03;
/// Faults member: outage length injected at t = 2 s.
const FAULT_MS: u64 = 500;
/// Fairness member: shared bottleneck rate.
const FAIR_BOTTLENECK_MBPS: f64 = 12.0;
/// Fairness member: competing Reno flows.
const FAIR_N_TCP: usize = 2;
/// Jain-index band the tuned policy may not degrade fairness beyond —
/// matches the CI drift tolerance used for the fairness sweep.
pub const FAIRNESS_BAND: f64 = 0.02;

/// Per-member simulated horizons of one fidelity tier.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
struct Tier {
    recovery_secs: u64,
    offload_secs: u64,
    faults_secs: u64,
    fairness_secs: u64,
}

impl Tier {
    /// The horizon of one named portfolio member.
    fn member_secs(&self, member: &str) -> u64 {
        match member {
            "recovery" => self.recovery_secs,
            "offload" => self.offload_secs,
            "faults" => self.faults_secs,
            "fairness" => self.fairness_secs,
            other => panic!("unknown portfolio member {other:?}"),
        }
    }
}

/// The default tier: long enough for stable means.
const FULL_TIER: Tier =
    Tier { recovery_secs: 10, offload_secs: 20, faults_secs: 6, fairness_secs: 10 };

/// The `--smoke` tier: the shortest horizons whose metrics still rank
/// policies, for CI.
const SMOKE_TIER: Tier =
    Tier { recovery_secs: 4, offload_secs: 8, faults_secs: 4, fairness_secs: 5 };

/// Resolved options of one training run.
#[derive(Debug, Clone)]
pub struct TrainOptions {
    /// Base seed; candidate sampling and CRN evaluation streams derive
    /// from it.
    pub seed: u64,
    /// Outer-loop generations.
    pub generations: u32,
    /// Candidates per generation (generation 0 includes the paper-default
    /// incumbent as candidate 0).
    pub population: u32,
    /// Elite count.
    pub elites: u32,
    /// Replicates per candidate per portfolio member.
    pub replicates: u32,
    /// Worker threads for the evaluation fan-out.
    pub threads: usize,
    /// Use the reduced CI tier.
    pub smoke: bool,
}

impl Default for TrainOptions {
    fn default() -> Self {
        TrainOptions {
            seed: 42,
            generations: 4,
            population: 12,
            elites: 3,
            replicates: 3,
            threads: 1,
            smoke: false,
        }
    }
}

impl TrainOptions {
    /// The smoke-tier budget used by CI (and the committed golden
    /// artifact): 2 generations × 6 candidates × 4 members × 2 replicates.
    pub fn smoke() -> Self {
        TrainOptions {
            generations: 2,
            population: 6,
            elites: 2,
            replicates: 2,
            smoke: true,
            ..TrainOptions::default()
        }
    }
}

/// The canonical training spec: everything that determines the search
/// trajectory and the evaluation conditions. Its FNV-1a hash over the
/// canonical JSON encoding is the artifact's `train_hash` — editing any
/// field (space bounds, portfolio constants, budget) changes the hash, so
/// a drifted artifact tells "the policy landscape moved" apart from "the
/// experiment itself changed".
#[derive(Debug, Serialize)]
struct TrainSpec {
    schema_version: u32,
    space: PolicySpace,
    seed: u64,
    generations: u32,
    population: u32,
    elites: u32,
    replicates: u32,
    smoke: bool,
    tier: Tier,
    members: Vec<String>,
    recovery_rtt_ms: u64,
    recovery_loss: f64,
    fault_ms: u64,
    fair_bottleneck_mbps: f64,
    fair_n_tcp: u64,
    fairness_band: f64,
}

/// The hex-encoded FNV-1a hash over the canonical training spec for
/// `opts` — the artifact's provenance pin. Pure function of the options,
/// the policy space, and the portfolio constants; the golden-fixture test
/// holds the smoke-tier value so accidental space or portfolio edits
/// surface as a test failure, not silent baseline drift.
pub fn train_hash(opts: &TrainOptions) -> String {
    let train_spec = TrainSpec {
        schema_version: SCHEMA_VERSION,
        space: PolicySpace::ar_default(),
        seed: opts.seed,
        generations: opts.generations,
        population: opts.population,
        elites: opts.elites,
        replicates: opts.replicates,
        smoke: opts.smoke,
        tier: if opts.smoke { SMOKE_TIER } else { FULL_TIER },
        members: MEMBERS.iter().map(|m| (*m).to_string()).collect(),
        recovery_rtt_ms: RECOVERY_RTT_MS,
        recovery_loss: RECOVERY_LOSS,
        fault_ms: FAULT_MS,
        fair_bottleneck_mbps: FAIR_BOTTLENECK_MBPS,
        fair_n_tcp: FAIR_N_TCP as u64,
        fairness_band: FAIRNESS_BAND,
    };
    let canonical = serde_json::to_string(&train_spec).expect("train spec serializes");
    let hash = fnv1a(canonical.as_bytes(), FNV_OFFSET_BASIS);
    format!("{hash:016x}")
}

/// The CRN evaluation seed: a function of `(member, replicate)` only, so
/// every candidate in every generation replays identical network
/// conditions (paired comparisons).
fn crn_seed(base: u64, member: &str, replicate: u32) -> u64 {
    derive_rng(base, &format!("train/eval/{member}/{replicate}")).gen()
}

/// The three configs a candidate is evaluated under: its compiled config
/// as-is, the fault arm (hardened outage handling on top of the searched
/// recovery knobs), and the fairness arm (bottleneck-capped rate).
fn member_configs(params: &PolicyParams) -> (ArConfig, ArConfig, Contender) {
    let base = params.to_config();
    let faults = ArConfig { outage: OutageConfig::hardened(), ..base.clone() };
    let mut fairness = base.clone();
    fairness.congestion.max_rate = FAIR_BOTTLENECK_MBPS * 1e6;
    (base, faults, Contender::Ar(fairness))
}

/// Runs one portfolio member under one candidate's configs for `secs`
/// simulated seconds and returns its scalar contributions.
fn run_member(
    member: &str,
    cfgs: &(ArConfig, ArConfig, Contender),
    secs: u64,
    seed: u64,
) -> BTreeMap<String, f64> {
    let telemetry = &TelemetryOptions::disabled();
    let mut scalars = BTreeMap::new();
    match member {
        "recovery" => {
            let (out, _, _) = run_recovery_config_instrumented(
                RECOVERY_RTT_MS,
                RECOVERY_LOSS,
                &cfgs.0,
                secs,
                seed,
                telemetry,
            );
            scalars.insert("qoe".to_string(), out.delivered_in_budget_pct);
            scalars.insert("overhead".to_string(), out.overhead_pct);
        }
        "offload" => {
            let (out, _, _) =
                run_multipath_commute_config_instrumented(&cfgs.0, secs, seed, telemetry);
            let hit_pct = out.receiver.borrow().deadline_hit_ratio() * 100.0;
            let s = out.sender.borrow();
            let total = s.total_sent_bytes();
            let cellular_pct =
                if total == 0 { 0.0 } else { s.cellular_bytes as f64 / total as f64 * 100.0 };
            scalars.insert("qoe".to_string(), hit_pct);
            scalars.insert("overhead".to_string(), cellular_pct);
        }
        "faults" => {
            let (out, _, _) = run_faults_config_instrumented(
                FaultScenario::LinkOutage,
                &cfgs.1,
                FAULT_MS,
                secs,
                seed,
                telemetry,
            );
            scalars.insert("qoe".to_string(), out.qoe_under_fault_pct);
        }
        "fairness" => {
            let (out, _, _) = run_fairness_config_instrumented(
                FAIR_BOTTLENECK_MBPS,
                FAIR_N_TCP,
                &cfgs.2,
                secs,
                seed,
                telemetry,
            );
            let secs = secs as f64;
            let ar_mbps = out.contender_bytes as f64 * 8.0 / secs / 1e6;
            let mut alloc: Vec<f64> = out
                .tcp
                .iter()
                .map(|t| t.borrow().goodput_bytes as f64 * 8.0 / secs / 1e6)
                .collect();
            alloc.push(ar_mbps);
            scalars.insert("fairness".to_string(), jain_index(&alloc));
        }
        other => panic!("unknown portfolio member {other:?}"),
    }
    scalars
}

/// Evaluates one generation's population: candidate × member grid,
/// `replicates` CRN trials per cell, fanned over `threads` workers;
/// per-candidate means fold into one [`Evaluation`] each.
fn evaluate_population(
    generation: u32,
    points_params: &[PolicyParams],
    opts: &TrainOptions,
    tier: &Tier,
) -> Vec<Evaluation> {
    let configs: Vec<(ArConfig, ArConfig, Contender)> =
        points_params.iter().map(member_configs).collect();
    let spec = ScenarioSpec::new(format!("train_eval_g{generation}"), opts.seed, opts.replicates)
        .with_axis("candidate", (0..configs.len() as i64).map(ParamValue::Int).collect())
        .with_axis("member", MEMBERS.iter().map(|m| ParamValue::Str((*m).to_string())).collect());
    let base_seed = opts.seed;
    let run = run_experiment(&spec, opts.threads, |point, ctx| {
        let cand = point.param("candidate").as_int().expect("int") as usize;
        let member = point.param("member").as_str().expect("str");
        let seed = crn_seed(base_seed, member, ctx.replicate);
        let mut report = crate::runner::TrialReport::new();
        for (key, value) in run_member(member, &configs[cand], tier.member_secs(member), seed) {
            report.scalar(key, value);
        }
        report
    });
    assert!(
        run.failures.is_empty(),
        "training trial failed in generation {generation}: {:?}",
        run.failures
    );

    (0..configs.len())
        .map(|cand| {
            // Mean of each member scalar across its replicates, in fixed
            // (member, replicate) order — deterministic float summation.
            let member_mean = |member_idx: usize, key: &str| {
                let reports = &run.reports[cand * MEMBERS.len() + member_idx];
                let sum: f64 =
                    reports.iter().map(|r| r.as_ref().expect("no failures").scalars[key]).sum();
                sum / reports.len() as f64
            };
            let qoe_recovery = member_mean(0, "qoe");
            let overhead_recovery = member_mean(0, "overhead");
            let qoe_offload = member_mean(1, "qoe");
            let overhead_offload = member_mean(1, "overhead");
            let qoe_faults = member_mean(2, "qoe");
            let fairness = member_mean(3, "fairness");
            let detail = BTreeMap::from([
                ("qoe/recovery".to_string(), qoe_recovery),
                ("qoe/offload".to_string(), qoe_offload),
                ("qoe/faults".to_string(), qoe_faults),
                ("fairness/jain".to_string(), fairness),
                ("overhead/recovery".to_string(), overhead_recovery),
                ("overhead/offload_cellular_pct".to_string(), overhead_offload),
            ]);
            Evaluation {
                objectives: Objectives {
                    qoe: (qoe_recovery + qoe_offload + qoe_faults) / 3.0,
                    fairness,
                    overhead: (overhead_recovery + overhead_offload) / 2.0,
                },
                detail,
            }
        })
        .collect()
}

/// One archive entry rendered into its artifact form.
fn entry(e: &Evaluated) -> FrontEntry {
    FrontEntry {
        generation: e.generation,
        candidate: e.candidate,
        point: e.point.clone(),
        params: e.params.clone(),
        objectives: e.evaluation.objectives,
        detail: e.evaluation.detail.clone(),
        scalar: e.scalar,
    }
}

/// Runs the full search and assembles the artifact. Pure given `opts`:
/// the same options produce a byte-identical artifact at any
/// `opts.threads`.
pub fn run_training(opts: &TrainOptions) -> (TrainResult, FrontArtifact) {
    let space = PolicySpace::ar_default();
    let tier = if opts.smoke { SMOKE_TIER } else { FULL_TIER };
    let train_hash = train_hash(opts);

    let cfg = TrainConfig {
        seed: opts.seed,
        generations: opts.generations,
        population: opts.population,
        elites: opts.elites,
    };
    let result = run_search(&space, &cfg, |generation, points| {
        let params: Vec<PolicyParams> = points.iter().map(|p| space.compile(p)).collect();
        evaluate_population(generation, &params, opts, &tier)
    });

    let tuned_index = select_tuned(&result, FAIRNESS_BAND);
    let default = entry(&result.archive[result.default_index]);
    let tuned = entry(&result.archive[tuned_index]);

    // The comparison table pairs every detail metric plus the three
    // aggregate objectives; CRN seeding makes each row a paired
    // comparison under identical network conditions.
    let mut comparison: Vec<ComparisonRow> = default
        .detail
        .keys()
        .map(|metric| ComparisonRow {
            metric: metric.clone(),
            default: default.detail[metric],
            tuned: tuned.detail.get(metric).copied().unwrap_or(f64::NAN),
        })
        .collect();
    comparison.push(ComparisonRow {
        metric: "objective/qoe".to_string(),
        default: default.objectives.qoe,
        tuned: tuned.objectives.qoe,
    });
    comparison.push(ComparisonRow {
        metric: "objective/fairness".to_string(),
        default: default.objectives.fairness,
        tuned: tuned.objectives.fairness,
    });
    comparison.push(ComparisonRow {
        metric: "objective/overhead".to_string(),
        default: default.objectives.overhead,
        tuned: tuned.objectives.overhead,
    });

    let artifact = FrontArtifact {
        schema_version: SCHEMA_VERSION,
        experiment: "train".to_string(),
        seed: opts.seed,
        generations: opts.generations,
        population: opts.population,
        elites: opts.elites,
        replicates: opts.replicates,
        smoke: opts.smoke,
        train_hash,
        space,
        evaluations: result.archive.len() as u32,
        front: result.front.iter().map(|&i| entry(&result.archive[i])).collect(),
        default,
        tuned,
        comparison,
    };
    (result, artifact)
}

/// Prints the tuned-vs-default table and the front summary.
pub fn render(artifact: &FrontArtifact) {
    let rows: Vec<Vec<String>> = artifact
        .comparison
        .iter()
        .map(|row| {
            let delta = row.tuned - row.default;
            vec![
                row.metric.clone(),
                fmt(row.default, 3),
                fmt(row.tuned, 3),
                format!("{}{}", if delta >= 0.0 { "+" } else { "" }, fmt(delta, 3)),
            ]
        })
        .collect();
    print_table(
        &format!(
            "E18 — tuned vs paper-default policy (CEM, CRN-paired, {} candidates)",
            artifact.evaluations
        ),
        &["Metric", "Default", "Tuned", "Δ"],
        &rows,
    );
    println!(
        "\n[train] front: {} non-dominated of {} evaluated; tuned = gen {} cand {}",
        artifact.front.len(),
        artifact.evaluations,
        artifact.tuned.generation,
        artifact.tuned.candidate
    );
    println!(
        "[train] tuned policy: {}",
        serde_json::to_string(&artifact.tuned.params).expect("params serialize")
    );
}

/// Writes the artifact to `out` atomically
/// ([`marnet_telemetry::file::write_atomic`]); `Err` on I/O problems (exit
/// 2 for the CLI). Drift against the committed smoke artifact is
/// `marnet-lab check`'s question, not this one's.
pub fn finish(artifact: &FrontArtifact, out: &Path) -> Result<(), String> {
    marnet_telemetry::file::write_atomic(out, artifact.to_json().as_bytes())
        .map_err(|e| format!("failed to write artifact {}: {e}", out.display()))?;
    println!(
        "\n[artifact] {} (schema v{}, train spec {})",
        out.display(),
        artifact.schema_version,
        artifact.train_hash
    );
    Ok(())
}
