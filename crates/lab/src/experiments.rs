//! The built-in experiments: every table, figure and sweep of the paper
//! reproduction (DESIGN.md §4) as a spec, a trial function and a table
//! renderer on the replicated runner, so each row carries mean ± 95% CI
//! columns and lands in a schema-v1 artifact. `--replicates 1` is the
//! single-seed quick look.
//!
//! A simulated experiment's trial calls its one `marnet-bench` scenario
//! entry point with `ctx.seed` and the run's `TelemetryOptions`; a
//! closed-form one computes inside the trial from the crate catalogues
//! (and records no telemetry). Every constant that shapes a run is a spec
//! parameter, hence under the spec hash; a hand-picked list of rows is one
//! axis of labelled values (`labels` / `labelled`). This file holds the
//! framework and the five experiments that were born here (E2, E9, E11,
//! E16, E17); the rest are grouped by kind in the submodules.

mod extensions;
mod figures;
mod sweeps;
mod tables;

use crate::agg::PointSummary;
use crate::runner::{TrialCtx, TrialReport};
use crate::spec::{GridPoint, ParamValue, ScenarioSpec};
use marnet_app::compute::{ComputeModel, DbAccess, FrameWork, NetParams};
use marnet_app::device::DeviceClass;
use marnet_app::strategy::OffloadStrategy;
use marnet_bench::scenarios::{
    cityscale_offered_gbps, run_cityscale_instrumented, run_faults_config_instrumented,
    run_recovery_instrumented, run_table2_instrumented, FaultScenario, RecoveryMechanism,
    Table2Scenario,
};
use marnet_bench::{fmt, print_table};
use marnet_core::fec;
use marnet_sim::link::Bandwidth;
use marnet_sim::time::SimDuration;
use marnet_telemetry::TelemetryOptions;
use std::collections::BTreeMap;

/// A boxed trial function, shareable across worker threads.
pub type TrialFn = Box<dyn Fn(&GridPoint, &TrialCtx) -> TrialReport + Sync + Send>;

/// A runnable lab experiment: its spec, trial function and table renderer.
pub struct Experiment {
    /// The default spec (callers may override seed/replicates before use).
    pub spec: ScenarioSpec,
    /// Evaluates one replicate of one grid point.
    pub trial: TrialFn,
    /// Prints the experiment's table from the aggregated points.
    pub render: fn(&[PointSummary]),
}

impl std::fmt::Debug for Experiment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Experiment")
            .field("spec", &self.spec)
            .field("trial", &"<fn>")
            .field("render", &"<fn>")
            .finish()
    }
}

/// Names of the built-in experiments, in the order of DESIGN.md §4
/// (E1–E17, then the extensions X1–X5).
pub const NAMES: [&str; 22] = [
    "table1_devices",
    "table2_rtt",
    "fig2_anomaly",
    "fig3_asymmetry",
    "fig4_degradation",
    "fig5_distribution",
    "table_wireless",
    "table_asymmetry",
    "sweep_offload",
    "sweep_placement",
    "sweep_recovery",
    "sweep_multipath",
    "sweep_queueing",
    "sweep_fairness",
    "table_bitrates",
    "sweep_faults",
    "sweep_cityscale",
    "ablation_degradation",
    "table_privacy",
    "sweep_variance",
    "sweep_5g",
    "sweep_caching",
];

/// Builds the named experiment, or `None` for an unknown name. The
/// telemetry options are cloned into the trial closure: every replicate
/// of an instrumented experiment records/meters with the same settings.
/// (Closed-form experiments take none: they have nothing to record.)
pub fn build(
    name: &str,
    replicates: u32,
    seed: u64,
    telemetry: &TelemetryOptions,
) -> Option<Experiment> {
    let spec = ScenarioSpec::new(name, seed, replicates);
    let t = || telemetry.clone();
    Some(match name {
        "table1_devices" => tables::table1_devices(spec),
        "table2_rtt" => table2_rtt(spec, t()),
        "fig2_anomaly" => figures::fig2_anomaly(spec, t()),
        "fig3_asymmetry" => figures::fig3_asymmetry(spec, t()),
        "fig4_degradation" => figures::fig4_degradation(spec, t()),
        "fig5_distribution" => figures::fig5_distribution(spec, t()),
        "table_wireless" => tables::table_wireless(spec),
        "table_asymmetry" => tables::table_asymmetry(spec),
        "sweep_offload" => sweep_offload(spec),
        "sweep_placement" => sweeps::sweep_placement(spec),
        "sweep_recovery" => sweep_recovery(spec, t()),
        "sweep_multipath" => sweeps::sweep_multipath(spec, t()),
        "sweep_queueing" => sweeps::sweep_queueing(spec, t()),
        "sweep_fairness" => sweeps::sweep_fairness(spec, t()),
        "table_bitrates" => tables::table_bitrates(spec),
        "sweep_faults" => sweep_faults(spec, t()),
        "sweep_cityscale" => sweep_cityscale(spec, t()),
        "ablation_degradation" => extensions::ablation_degradation(spec, t()),
        "table_privacy" => tables::table_privacy(spec),
        "sweep_variance" => extensions::sweep_variance(spec, t()),
        "sweep_5g" => extensions::sweep_5g(spec, t()),
        "sweep_caching" => extensions::sweep_caching(spec),
        _ => return None,
    })
}

// ---------------------------------------------------------------------------
// Shared by every experiment: labelled axes, parameter and cell helpers
// ---------------------------------------------------------------------------

/// A grid point's (or point summary's) parameter assignment.
type Params = BTreeMap<String, ParamValue>;

/// The sweep axis over a list of labelled values: the labels go into the
/// spec (and under its hash); [`labelled`] maps one back to its value.
fn labels<L: AsRef<str>, T>(values: &[(L, T)]) -> Vec<ParamValue> {
    values.iter().map(|(label, _)| ParamValue::Str(label.as_ref().to_string())).collect()
}

/// The value that `params[key]` labels among `values`.
///
/// # Panics
///
/// Panics if the parameter is missing or labels none of `values` — the
/// axis was built by [`labels`] from the same list, so a miss is a
/// programming error in the experiment definition.
fn labelled<L: AsRef<str>, T: Clone>(values: &[(L, T)], params: &Params, key: &str) -> T {
    let label = params.get(key).and_then(ParamValue::as_str);
    values
        .iter()
        .find(|(l, _)| Some(l.as_ref()) == label)
        .map(|(_, value)| value.clone())
        .unwrap_or_else(|| panic!("parameter {key:?} = {label:?} labels no known value"))
}

/// The numeric parameter `key` (an `Int` coerces).
fn float(point: &GridPoint, key: &str) -> f64 {
    point.param(key).as_float().unwrap_or_else(|| panic!("parameter {key:?} is not numeric"))
}

/// The non-negative integer parameter `key`.
fn uint(point: &GridPoint, key: &str) -> u64 {
    point
        .param(key)
        .as_int()
        .and_then(|v| u64::try_from(v).ok())
        .unwrap_or_else(|| panic!("parameter {key:?} is not a non-negative integer"))
}

/// A yes/no outcome as a scalar, so its mean is the share of replicates
/// that said yes.
fn flag(yes: bool) -> f64 {
    if yes {
        1.0
    } else {
        0.0
    }
}

/// The mean of metric `key`, NaN (which [`fmt`] prints as `-`) when no
/// replicate reported it.
fn mean(p: &PointSummary, key: &str) -> f64 {
    p.scalars.get(key).map_or(f64::NAN, |m| m.mean)
}

/// `mean ± ci<unit>` of metric `key` (the mean alone when a single
/// replicate reported it: one value has no spread), `-` when none did.
fn pm(p: &PointSummary, key: &str, prec: usize, unit: &str) -> String {
    match p.scalars.get(key) {
        Some(m) if m.count == 1 => format!("{}{unit}", fmt(m.mean, prec)),
        Some(m) => format!("{} ± {}{unit}", fmt(m.mean, prec), fmt(m.ci95, prec)),
        None => "-".to_string(),
    }
}

/// How one column of a rendered table fills its cell from a point. A
/// metric no replicate reported prints `-`.
enum Cell<'a> {
    /// The parameter `key`, then a unit.
    Param(&'a str, &'a str),
    /// `mean ± ci` of metric `key` at a precision, then a unit.
    Pm(&'a str, usize, &'a str),
    /// The mean of metric `key` alone (a closed-form value), then a unit.
    Mean(&'a str, usize, &'a str),
    /// `yes` / `no` of a [`flag`] metric: what most replicates said.
    YesNo(&'a str),
    /// Replicates that completed.
    N,
    /// Anything else, from the point and the row's key prefix.
    With(&'a dyn Fn(&PointSummary, &str) -> String),
}

/// One table row per point, no key prefix.
fn each(points: &[PointSummary]) -> impl Iterator<Item = (&PointSummary, String)> {
    points.iter().map(|p| (p, String::new()))
}

/// Prints a table of `(header, cell)` columns with one row per `(point,
/// prefix)`. The prefix goes before every parameter and metric key the
/// columns name, so one run whose phases report `phase1.x`, `phase2.x`, …
/// renders as one row per phase.
fn table<'p>(
    title: &str,
    rows: impl IntoIterator<Item = (&'p PointSummary, String)>,
    cols: &[(&str, Cell)],
) {
    let headers: Vec<&str> = cols.iter().map(|(header, _)| *header).collect();
    let rows: Vec<Vec<String>> = rows
        .into_iter()
        .map(|(p, prefix)| {
            let key = |k: &str| format!("{prefix}{k}");
            cols.iter()
                .map(|(_, cell)| match cell {
                    Cell::Param(k, unit) => match p.params.get(&key(k)) {
                        Some(value) => format!("{value}{unit}"),
                        None => "-".to_string(),
                    },
                    Cell::Pm(k, prec, unit) => pm(p, &key(k), *prec, unit),
                    Cell::Mean(k, prec, unit) => match p.scalars.get(&key(k)) {
                        Some(m) => format!("{}{unit}", fmt(m.mean, *prec)),
                        None => "-".to_string(),
                    },
                    Cell::YesNo(k) => match p.scalars.get(&key(k)) {
                        Some(m) => if m.mean >= 0.5 { "yes" } else { "no" }.to_string(),
                        None => "-".to_string(),
                    },
                    Cell::N => p.replicates_ok.to_string(),
                    Cell::With(text) => text(p, &prefix),
                })
                .collect()
        })
        .collect();
    print_table(title, &headers, &rows);
}

// ---------------------------------------------------------------------------
// Table II
// ---------------------------------------------------------------------------

/// Axis labels of the four Table II scenarios, in table order.
const TABLE2_SCENARIOS: [(&str, Table2Scenario); 4] = [
    ("local_wifi", Table2Scenario::LocalServerWifi),
    ("cloud_wifi", Table2Scenario::CloudServerWifi),
    ("university_wifi", Table2Scenario::UniversityServerWifi),
    ("cloud_lte", Table2Scenario::CloudServerLte),
];

fn table2_rtt(spec: ScenarioSpec, telemetry: TelemetryOptions) -> Experiment {
    let spec = spec
        .with_param("probes", ParamValue::Int(200))
        .with_param("request_bytes", ParamValue::Int(400))
        .with_param("response_bytes", ParamValue::Int(400))
        .with_axis("scenario", labels(&TABLE2_SCENARIOS));
    let trial = Box::new(move |point: &GridPoint, ctx: &TrialCtx| {
        let scenario = labelled(&TABLE2_SCENARIOS, &point.params, "scenario");
        let probes = uint(point, "probes");
        let request = uint(point, "request_bytes") as u32;
        let response = uint(point, "response_bytes") as u32;
        let (stats, _events, capture) =
            run_table2_instrumented(scenario, probes, request, response, ctx.seed, &telemetry);
        let st = stats.borrow();
        let mut h = st.rtt_ms.clone();
        let median = h.median();
        let mut report = TrialReport::new();
        report
            .scalar_opt("median_ms", median)
            .scalar_opt("mean_ms", h.mean())
            .scalar_opt("p95_ms", h.p95())
            .scalar("received", st.received as f64)
            // One offload transaction per RTT, as in the paper's 20 FPS note.
            .scalar_opt("fps_supportable", median.map(|ms| 1000.0 / ms))
            .samples("rtt_ms", st.rtt_ms.values().to_vec());
        drop(st);
        report.capture(capture);
        report
    });
    Experiment { spec, trial, render: render_table2 }
}

fn render_table2(points: &[PointSummary]) {
    let row = |p: &PointSummary| labelled(&TABLE2_SCENARIOS, &p.params, "scenario").labels();
    let pooled_p99 = |p: &PointSummary| p.samples.get("rtt_ms").map_or(f64::NAN, |s| s.p99);
    table(
        "Table II — offload link RTT, mean ± 95% CI across replicates",
        each(points),
        &[
            ("Platform", Cell::With(&|p, _| row(p).0.to_string())),
            ("Connection", Cell::With(&|p, _| row(p).1.to_string())),
            ("Paper RTT", Cell::With(&|p, _| format!("{} ms", row(p).2))),
            ("Median (sim)", Cell::Pm("median_ms", 1, " ms")),
            ("p95 (sim)", Cell::Pm("p95_ms", 1, " ms")),
            ("pooled p99", Cell::With(&|p, _| format!("{} ms", fmt(pooled_p99(p), 1)))),
            ("fps supportable", Cell::Pm("fps_supportable", 1, "")),
            ("n", Cell::N),
        ],
    );
}

// ---------------------------------------------------------------------------
// §VI-C recovery sweep
// ---------------------------------------------------------------------------

fn sweep_recovery(spec: ScenarioSpec, telemetry: TelemetryOptions) -> Experiment {
    let spec = spec
        .with_param("loss", ParamValue::Float(0.03))
        .with_param("secs", ParamValue::Int(30))
        .with_axis("mechanism", labels(&RecoveryMechanism::ALL.map(|m| (m.label(), m))))
        .with_axis("rtt_ms", [20i64, 36, 60, 120].into_iter().map(ParamValue::Int).collect());
    let trial = Box::new(move |point: &GridPoint, ctx: &TrialCtx| {
        let mechanisms = RecoveryMechanism::ALL.map(|m| (m.label(), m));
        let mechanism = labelled(&mechanisms, &point.params, "mechanism");
        let rtt = uint(point, "rtt_ms");
        let loss = float(point, "loss");
        let secs = uint(point, "secs");
        let (out, _, capture) =
            run_recovery_instrumented(rtt, loss, mechanism, secs, ctx.seed, &telemetry);
        let mut report = TrialReport::new();
        report
            .scalar("delivered_in_budget_pct", out.delivered_in_budget_pct)
            .scalar("delivered_total_pct", out.delivered_total_pct)
            .scalar("overhead_pct", out.overhead_pct);
        report.capture(capture);
        report
    });
    Experiment { spec, trial, render: render_recovery }
}

fn render_recovery(points: &[PointSummary]) {
    table(
        "E11 — recovery at 3% loss, 75 ms budget, mean ± 95% CI across replicates",
        each(points),
        &[
            ("Mechanism", Cell::Param("mechanism", "")),
            ("RTT", Cell::Param("rtt_ms", " ms")),
            ("In budget", Cell::Pm("delivered_in_budget_pct", 1, "%")),
            ("Delivered", Cell::Pm("delivered_total_pct", 1, "%")),
            ("Byte overhead", Cell::Pm("overhead_pct", 1, "%")),
            ("n", Cell::N),
        ],
    );

    // The analytic §VI-C rule and FEC frontier the simulated rows sit on.
    println!("\n§VI-C analytic checks:");
    println!(
        "  Retransmission viable iff RTT ≤ 37.5 ms (one retransmit within\n\
         a 75 ms budget at 30 FPS): gate passes at 20/36 ms, refuses at 60+."
    );
    if let Some(loss) = points.first().and_then(|p| p.params["loss"].as_float()) {
        println!("  XOR FEC frontier at p = {loss}:");
        for k in [1usize, 2, 4, 8, 16] {
            println!(
                "    k={k:>2}: overhead {:>5}%  residual message loss {:>6}%",
                fmt(fec::overhead(k) * 100.0, 1),
                fmt(fec::residual_loss(k, loss) * 100.0, 3)
            );
        }
    }
    println!(
        "\nShape check: below 37.5 ms RTT the deadline-gated ARQ matches\n\
         always-ARQ; above it, gated ARQ stops wasting bytes on hopeless\n\
         retransmissions and FEC/duplication become the only ways to lift\n\
         in-budget delivery — at their respective byte costs."
    );
}

// ---------------------------------------------------------------------------
// E16 fault-injection sweep (marnet-faults)
// ---------------------------------------------------------------------------

/// The `stack` axis: is the protocol stack the hardened one?
const FAULT_ARMS: [(&str, bool); 2] = [("baseline", false), ("hardened", true)];

fn sweep_faults(spec: ScenarioSpec, telemetry: TelemetryOptions) -> Experiment {
    let spec = spec
        .with_param("fault_ms", ParamValue::Int(500))
        .with_param("secs", ParamValue::Int(6))
        .with_axis("scenario", labels(&FaultScenario::ALL.map(|s| (s.label(), s))))
        .with_axis("stack", labels(&FAULT_ARMS));
    let trial = Box::new(move |point: &GridPoint, ctx: &TrialCtx| {
        let scenarios = FaultScenario::ALL.map(|s| (s.label(), s));
        let scenario = labelled(&scenarios, &point.params, "scenario");
        let hardened = labelled(&FAULT_ARMS, &point.params, "stack");
        let fault_ms = uint(point, "fault_ms");
        let secs = uint(point, "secs");
        let cfg = FaultScenario::stack_config(hardened);
        let (out, _, capture) =
            run_faults_config_instrumented(scenario, &cfg, fault_ms, secs, ctx.seed, &telemetry);
        // Censor non-recoveries at the horizon: a run whose QoE never came
        // back contributes the worst possible recovery time instead of
        // silently dropping out of the percentiles.
        let horizon_ms = (secs * 1000 - 2000 - fault_ms) as f64;
        let recovery = out.recovery_ms.unwrap_or(horizon_ms);
        let mut report = TrialReport::new();
        report
            .scalar("delivered_in_budget_pct", out.delivered_in_budget_pct)
            .scalar("qoe_under_fault_pct", out.qoe_under_fault_pct)
            .scalar("recovered", flag(out.recovery_ms.is_some()))
            .scalar("retransmits_during_fault", out.retransmits_during_fault as f64)
            .scalar("retransmits", out.retransmits as f64)
            .scalar("outages_detected", out.outages_detected as f64)
            .scalar("recovery_probes", out.recovery_probes as f64)
            .scalar("session_resyncs", out.session_resyncs as f64)
            .samples("recovery_ms", vec![recovery]);
        report.capture(capture);
        report
    });
    Experiment { spec, trial, render: render_faults }
}

fn render_faults(points: &[PointSummary]) {
    let recovery = |p: &PointSummary, q: fn(&crate::agg::SampleSummary) -> f64| {
        format!("{} ms", fmt(p.samples.get("recovery_ms").map_or(f64::NAN, q), 1))
    };
    table(
        "E16 — 500 ms faults at t=2 s: QoE under fault and time-to-QoE-restored (censored at horizon)",
        each(points),
        &[
            ("Fault", Cell::Param("scenario", "")),
            ("Stack", Cell::Param("stack", "")),
            ("QoE under fault", Cell::Pm("qoe_under_fault_pct", 1, "%")),
            ("recovery p50", Cell::With(&|p, _| recovery(p, |r| r.p50))),
            ("recovery p99", Cell::With(&|p, _| recovery(p, |r| r.p99))),
            ("recovered", Cell::With(&|p, _| format!("{}%", fmt(mean(p, "recovered") * 100.0, 0)))),
            ("In budget (run)", Cell::Pm("delivered_in_budget_pct", 1, "%")),
            ("rtx in fault", Cell::Mean("retransmits_during_fault", 1, "")),
            ("resyncs", Cell::Mean("session_resyncs", 1, "")),
            ("n", Cell::N),
        ],
    );
}

// ---------------------------------------------------------------------------
// E17 city-scale hybrid-fidelity sweep (marnet-flow)
// ---------------------------------------------------------------------------

/// The MAR frame budget used for the in-budget QoE column, as in E11.
const CITYSCALE_BUDGET_MS: f64 = 75.0;

fn sweep_cityscale(spec: ScenarioSpec, telemetry: TelemetryOptions) -> Experiment {
    let spec = spec
        .with_param("backhaul_gbps", ParamValue::Float(10.0))
        .with_param("secs", ParamValue::Int(3))
        .with_axis(
            "clients",
            [25_000i64, 50_000, 100_000].into_iter().map(ParamValue::Int).collect(),
        );
    let trial = Box::new(move |point: &GridPoint, ctx: &TrialCtx| {
        let clients = uint(point, "clients");
        let backhaul = float(point, "backhaul_gbps");
        let secs = uint(point, "secs");
        let (out, events, capture) =
            run_cityscale_instrumented(clients, backhaul, secs, ctx.seed, &telemetry);
        let mar = out.mar.borrow();
        let mut h = mar.latency_ms.clone();
        // Offered MAR packets over the horizon, from the paced rate.
        let offered = marnet_bench::scenarios::CITYSCALE_MAR_MBPS * 1e6
            / (f64::from(marnet_bench::scenarios::CITYSCALE_MAR_PACKET_BYTES) * 8.0)
            * secs as f64;
        let in_budget =
            mar.latency_ms.values().iter().filter(|&&ms| ms <= CITYSCALE_BUDGET_MS).count();
        let bg = out.background.borrow();
        let mut report = TrialReport::new();
        report
            .scalar("offered_gbps", cityscale_offered_gbps(clients))
            .scalar_opt("mar_p50_ms", h.median())
            .scalar_opt("mar_p95_ms", h.p95())
            .scalar("mar_delivery_pct", mar.packets as f64 / offered * 100.0)
            .scalar("mar_in_budget_pct", in_budget as f64 / offered * 100.0)
            .scalar("bg_offered", bg.offered as f64)
            .scalar("bg_completed", bg.completed as f64)
            .scalar("events", events as f64)
            .samples("mar_latency_ms", mar.latency_ms.values().to_vec());
        drop(mar);
        drop(bg);
        report.capture(capture);
        report
    });
    Experiment { spec, trial, render: render_cityscale }
}

fn render_cityscale(points: &[PointSummary]) {
    table(
        "E17 — city-scale background load vs one packet-level MAR cell (10 Gb/s backhaul), mean ± 95% CI",
        each(points),
        &[
            ("Clients", Cell::Param("clients", "")),
            ("Offered bg", Cell::Mean("offered_gbps", 1, " Gb/s")),
            ("MAR p50", Cell::Pm("mar_p50_ms", 1, " ms")),
            ("MAR p95", Cell::Pm("mar_p95_ms", 1, " ms")),
            ("Delivered", Cell::Pm("mar_delivery_pct", 1, "%")),
            ("In budget", Cell::Pm("mar_in_budget_pct", 1, "%")),
            ("bg transfers done", Cell::Mean("bg_completed", 0, "")),
            ("n", Cell::N),
        ],
    );
}

// ---------------------------------------------------------------------------
// §III offload-decision sweep
// ---------------------------------------------------------------------------

/// Axis labels of the Table I device classes, in table order.
const DEVICES: [(&str, DeviceClass); 6] = [
    ("glasses", DeviceClass::SmartGlasses),
    ("phone", DeviceClass::Smartphone),
    ("tablet", DeviceClass::Tablet),
    ("laptop", DeviceClass::Laptop),
    ("desktop", DeviceClass::Desktop),
    ("cloud", DeviceClass::Cloud),
];

/// The devices a MAR user wears or carries: the rows of E9 and X2.
const USER_DEVICES: [(&str, DeviceClass); 3] = [DEVICES[0], DEVICES[1], DEVICES[3]];

/// Single-letter tag of strategy `idx` in canonical order.
fn strategy_letter(idx: usize) -> &'static str {
    match OffloadStrategy::canonical().get(idx) {
        Some(OffloadStrategy::LocalOnly) => "L",
        Some(OffloadStrategy::FullOffload { .. }) => "F",
        Some(OffloadStrategy::FeatureOffload { .. }) => "C",
        Some(OffloadStrategy::TrackingOffload { .. }) => "G",
        None => "?",
    }
}

fn sweep_offload(spec: ScenarioSpec) -> Experiment {
    let spec = spec
        .with_axis("device", labels(&USER_DEVICES))
        .with_axis(
            "rtt_ms",
            [4i64, 10, 20, 36, 60, 90, 120].into_iter().map(ParamValue::Int).collect(),
        )
        .with_axis(
            "uplink_mbps",
            [0.5, 1.0, 2.0, 5.0, 10.0, 25.0, 50.0].into_iter().map(ParamValue::Float).collect(),
        );
    let trial = Box::new(|point: &GridPoint, _ctx: &TrialCtx| {
        let device = labelled(&USER_DEVICES, &point.params, "device").spec();
        let rtt = uint(point, "rtt_ms");
        let up = float(point, "uplink_mbps");
        let work = FrameWork::vision_pipeline();
        let model = ComputeModel::new(30.0, work)
            .with_db(DbAccess::browser())
            .with_deadline(SimDuration::from_millis(75));
        let cloud = DeviceClass::Cloud.spec();
        let net = NetParams {
            uplink: Bandwidth::from_mbps(up),
            downlink: Bandwidth::from_mbps(up * 2.5),
            rtt: SimDuration::from_millis(rtt),
        };
        let (winner_idx, est) = OffloadStrategy::canonical()
            .into_iter()
            .enumerate()
            .map(|(i, s)| {
                let e = s.evaluate(&model, &device, &cloud, &net);
                (i, e)
            })
            .min_by(|(_, a), (_, b)| a.per_frame.partial_cmp(&b.per_frame).expect("finite"))
            .expect("non-empty strategies");
        let mut report = TrialReport::new();
        report
            .scalar("winner_ms", est.per_frame.as_millis_f64())
            .scalar("winner_idx", winner_idx as f64)
            .scalar("feasible", flag(est.feasible()));
        report
    });
    Experiment { spec, trial, render: render_offload }
}

fn render_offload(points: &[PointSummary]) {
    // Regroup the flat point list into one RTT × uplink table per device.
    let mut by_device: BTreeMap<String, Vec<&PointSummary>> = BTreeMap::new();
    for p in points {
        by_device.entry(p.params["device"].to_string()).or_default().push(p);
    }
    for (key, device) in USER_DEVICES {
        let Some(cells) = by_device.get(key) else { continue };
        let mut rtts: Vec<i64> = cells.iter().filter_map(|p| p.params["rtt_ms"].as_int()).collect();
        rtts.dedup();
        let mut uplinks: Vec<f64> =
            cells.iter().filter_map(|p| p.params["uplink_mbps"].as_float()).collect();
        uplinks.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        uplinks.dedup();
        let rows: Vec<Vec<String>> = rtts
            .iter()
            .map(|&rtt| {
                let mut row = vec![format!("{rtt} ms")];
                for &up in &uplinks {
                    let cell = cells.iter().find(|p| {
                        p.params["rtt_ms"].as_int() == Some(rtt)
                            && p.params["uplink_mbps"].as_float() == Some(up)
                    });
                    row.push(match cell {
                        Some(p) => {
                            let tag = if mean(p, "feasible") >= 0.5 {
                                strategy_letter(mean(p, "winner_idx").round() as usize)
                            } else {
                                "∅"
                            };
                            format!("{tag} {}", fmt(mean(p, "winner_ms"), 0))
                        }
                        None => "-".to_string(),
                    });
                }
                row
            })
            .collect();
        let mut headers = vec!["RTT \\ uplink".to_string()];
        headers.extend(uplinks.iter().map(|u| format!("{u} Mb/s")));
        let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
        print_table(
            &format!(
                "E9 — best strategy & ms/frame on a {} (L=local F=full C=CloudRidAR G=Glimpse ∅=infeasible)",
                device.spec().class
            ),
            &header_refs,
            &rows,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_builtins_build_with_consistent_specs() {
        let telemetry = TelemetryOptions::disabled();
        for name in NAMES {
            let exp = build(name, 3, 42, &telemetry).unwrap();
            assert_eq!(exp.spec.name, name);
            assert_eq!(exp.spec.replicates, 3);
            assert_eq!(exp.spec.seed, 42);
            assert!(exp.spec.point_count() > 0);
        }
        assert!(build("nope", 1, 1, &telemetry).is_none());
    }

    #[test]
    fn instrumented_trials_capture_events_and_metrics() {
        let telemetry = TelemetryOptions::full(4096);
        let exp = build("table2_rtt", 1, 7, &telemetry).unwrap();
        let points = exp.spec.expand_grid();
        let ctx = TrialCtx { point_index: 0, replicate: 0, seed: 7 };
        let report = (exp.trial)(&points[0], &ctx);
        assert!(!report.events.is_empty(), "tracing on must record events");
        let snap = report.metrics.expect("metrics on must snapshot");
        assert!(!snap.counters.is_empty());
        // The same trial with telemetry off reports identical scalars and
        // nothing captured — instrumentation must not perturb results.
        let plain = build("table2_rtt", 1, 7, &TelemetryOptions::disabled()).unwrap();
        let bare = (plain.trial)(&points[0], &ctx);
        assert_eq!(bare.scalars, report.scalars);
        assert!(bare.events.is_empty());
        assert!(bare.metrics.is_none());
    }

    /// A scenario that gained its telemetry pair in the port (Fig. 3)
    /// records when asked and computes the same numbers either way.
    #[test]
    fn newly_instrumented_scenario_traces_without_perturbing_its_scalars() {
        let shorten = |mut point: GridPoint| {
            point.params.insert("secs".into(), ParamValue::Int(25));
            point
        };
        let ctx = TrialCtx { point_index: 0, replicate: 0, seed: 42 };
        let traced = build("fig3_asymmetry", 1, 42, &TelemetryOptions::full(1 << 16)).unwrap();
        let point = shorten(traced.spec.expand_grid().remove(0));
        let report = (traced.trial)(&point, &ctx);
        assert!(!report.events.is_empty(), "tracing on must record events");
        let snap = report.metrics.expect("metrics on must snapshot");
        assert!(snap.gauges.contains_key("sim.link.1.queue_packets"), "the uplink is metered");
        let plain = build("fig3_asymmetry", 1, 42, &TelemetryOptions::disabled()).unwrap();
        let bare = (plain.trial)(&point, &ctx);
        assert_eq!(bare.scalars, report.scalars);
        assert!(bare.scalars["uploads1.download_mbps"] < bare.scalars["uploads0.download_mbps"]);
        assert!(bare.events.is_empty() && bare.metrics.is_none());
    }

    #[test]
    fn scenario_and_device_keys_round_trip() {
        let axis = labels(&TABLE2_SCENARIOS);
        for (value, (_, scenario)) in axis.into_iter().zip(TABLE2_SCENARIOS) {
            let params = Params::from([("scenario".to_string(), value)]);
            assert_eq!(labelled(&TABLE2_SCENARIOS, &params, "scenario"), scenario);
        }
        // The E9 rows are a subset of the Table I axis, under the same labels.
        for (label, device) in USER_DEVICES {
            let params = Params::from([("device".to_string(), ParamValue::Str(label.into()))]);
            assert_eq!(labelled(&DEVICES, &params, "device"), device);
        }
    }

    #[test]
    fn sweep_faults_hardened_beats_baseline_p99_recovery() {
        use crate::agg::aggregate_run;
        use crate::runner::run_experiment;
        let exp = build("sweep_faults", 2, 42, &TelemetryOptions::disabled()).unwrap();
        let run = run_experiment(&exp.spec, 2, |point, ctx| (exp.trial)(point, ctx));
        assert!(run.failures.is_empty(), "{:?}", run.failures);
        let points = aggregate_run(&run);
        let p99 = |scenario: &str, stack: &str| {
            points
                .iter()
                .find(|p| {
                    p.params["scenario"].as_str() == Some(scenario)
                        && p.params["stack"].as_str() == Some(stack)
                })
                .unwrap_or_else(|| panic!("missing point {scenario}/{stack}"))
                .samples["recovery_ms"]
                .p99
        };
        // The acceptance bar: the hardened stack beats the no-hardening
        // baseline on p99 time-to-QoE-restored for the 500 ms outage, and
        // by an order of magnitude when the edge restarts cold (the
        // baseline is censored at the horizon there).
        assert!(
            p99("link-outage", "hardened") < p99("link-outage", "baseline"),
            "outage: hardened {} vs baseline {}",
            p99("link-outage", "hardened"),
            p99("link-outage", "baseline")
        );
        assert!(p99("edge-crash", "hardened") * 10.0 < p99("edge-crash", "baseline"));
        // Hardened recovers in every scenario and every replicate.
        for p in &points {
            if p.params["stack"].as_str() == Some("hardened") {
                assert_eq!(p.scalars["recovered"].mean, 1.0, "{:?}", p.params);
            }
        }
    }

    #[test]
    fn sweep_cityscale_load_curve_degrades_qoe() {
        let exp = build("sweep_cityscale", 1, 42, &TelemetryOptions::disabled()).unwrap();
        let points = exp.spec.expand_grid();
        assert_eq!(points.len(), 3, "three offered-load points");
        let ctx = TrialCtx { point_index: 0, replicate: 0, seed: 42 };
        let light = (exp.trial)(&points[0], &ctx);
        let heavy = (exp.trial)(&points[2], &ctx);
        // 25k clients (~4.5 Gb/s offered on 10 Gb/s) leave the cell
        // untouched; 100k (~18 Gb/s) collapse the foreground share and
        // with it delivery and the latency budget.
        assert!(light.scalars["mar_in_budget_pct"] > 95.0, "{:?}", light.scalars);
        assert!(heavy.scalars["mar_in_budget_pct"] < 50.0, "{:?}", heavy.scalars);
        assert!(heavy.scalars["mar_p95_ms"] > light.scalars["mar_p95_ms"]);
        // The acceptance bar: ≥ 100,000 flow-level clients actually ran.
        assert!(heavy.scalars["bg_offered"] > 50_000.0);
    }

    /// "Deterministic" checked, not narrated: the seven experiments that
    /// ignore their seed or draw no random number give the same scalars
    /// and samples at two trial seeds, at every grid point — which is why
    /// they are committed at one replicate (`table2_rtt` at two, for the
    /// benchmark that regenerates it).
    #[test]
    fn seed_independent_experiments_ignore_the_trial_seed() {
        for name in [
            "table1_devices",
            "table2_rtt",
            "fig2_anomaly",
            "fig3_asymmetry",
            "table_asymmetry",
            "sweep_offload",
            "table_bitrates",
        ] {
            let exp = build(name, 1, 42, &TelemetryOptions::disabled()).unwrap();
            for point in exp.spec.expand_grid() {
                let at = |seed| {
                    let ctx = TrialCtx { point_index: point.index, replicate: 0, seed };
                    let report = (exp.trial)(&point, &ctx);
                    (report.scalars, report.samples)
                };
                assert_eq!(at(1), at(999), "{name} point {} depends on its seed", point.index);
            }
        }
    }
}
