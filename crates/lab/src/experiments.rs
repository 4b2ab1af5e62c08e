//! The built-in experiments: the paper's Table II RTT measurement, the
//! §VI-C recovery sweep, the §III offload-decision sweep, the E16 fault
//! sweep and the E17 city-scale sweep, each a `marnet-bench` scenario on
//! the replicated runner so its table carries mean ± 95% CI columns.
//! `--replicates 1` is the single-seed quick look.

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

/// Names of the built-in experiments, in menu order.
pub const NAMES: [&str; 5] =
    ["table2_rtt", "sweep_recovery", "sweep_offload", "sweep_faults", "sweep_cityscale"];

/// Builds the named experiment, or `None` for an unknown name. The
/// telemetry options are cloned into the trial closure: every replicate
/// of an instrumented experiment records/meters with the same settings.
pub fn build(
    name: &str,
    replicates: u32,
    seed: u64,
    telemetry: &TelemetryOptions,
) -> Option<Experiment> {
    match name {
        "table2_rtt" => Some(table2_rtt(replicates, seed, telemetry.clone())),
        "sweep_recovery" => Some(sweep_recovery(replicates, seed, telemetry.clone())),
        "sweep_offload" => Some(sweep_offload(replicates, seed)),
        "sweep_faults" => Some(sweep_faults(replicates, seed, telemetry.clone())),
        "sweep_cityscale" => Some(sweep_cityscale(replicates, seed, telemetry.clone())),
        _ => None,
    }
}

/// `mean ± ci` cell text.
fn pm(mean: f64, ci: f64, prec: usize) -> String {
    format!("{} ± {}", fmt(mean, prec), fmt(ci, prec))
}

// ---------------------------------------------------------------------------
// Table II
// ---------------------------------------------------------------------------

fn scenario_key(s: Table2Scenario) -> &'static str {
    match s {
        Table2Scenario::LocalServerWifi => "local_wifi",
        Table2Scenario::CloudServerWifi => "cloud_wifi",
        Table2Scenario::UniversityServerWifi => "university_wifi",
        Table2Scenario::CloudServerLte => "cloud_lte",
    }
}

fn scenario_from_key(key: &str) -> Table2Scenario {
    Table2Scenario::ALL
        .into_iter()
        .find(|&s| scenario_key(s) == key)
        .unwrap_or_else(|| panic!("unknown Table II scenario key {key:?}"))
}

fn table2_rtt(replicates: u32, seed: u64, telemetry: TelemetryOptions) -> Experiment {
    let spec = ScenarioSpec::new("table2_rtt", seed, replicates)
        .with_param("probes", ParamValue::Int(200))
        .with_param("request_bytes", ParamValue::Int(400))
        .with_param("response_bytes", ParamValue::Int(400))
        .with_axis(
            "scenario",
            Table2Scenario::ALL
                .into_iter()
                .map(|s| ParamValue::Str(scenario_key(s).to_string()))
                .collect(),
        );
    let trial = Box::new(move |point: &GridPoint, ctx: &TrialCtx| {
        let scenario = scenario_from_key(point.param("scenario").as_str().expect("str"));
        let probes = point.param("probes").as_int().expect("int") as u64;
        let request = point.param("request_bytes").as_int().expect("int") as u32;
        let response = point.param("response_bytes").as_int().expect("int") as u32;
        let (stats, _events, capture) =
            run_table2_instrumented(scenario, probes, request, response, ctx.seed, &telemetry);
        let st = stats.borrow();
        let mut h = st.rtt_ms.clone();
        let median = h.median().unwrap_or(f64::NAN);
        let mut report = TrialReport::new();
        report
            .scalar("median_ms", median)
            .scalar("mean_ms", h.mean().unwrap_or(f64::NAN))
            .scalar("p95_ms", h.p95().unwrap_or(f64::NAN))
            .scalar("received", st.received as f64)
            // One offload transaction per RTT, as in the paper's 20 FPS note.
            .scalar("fps_supportable", 1000.0 / median)
            .samples("rtt_ms", st.rtt_ms.values().to_vec());
        drop(st);
        report.capture(capture);
        report
    });
    Experiment { spec, trial, render: render_table2 }
}

fn render_table2(points: &[PointSummary]) {
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            let scenario = scenario_from_key(p.params["scenario"].as_str().expect("str"));
            let (platform, connection, paper_ms) = scenario.labels();
            let median = &p.scalars["median_ms"];
            let p95 = &p.scalars["p95_ms"];
            let fps = &p.scalars["fps_supportable"];
            let pooled = &p.samples["rtt_ms"];
            vec![
                platform.to_string(),
                connection.to_string(),
                format!("{paper_ms} ms"),
                format!("{} ms", pm(median.mean, median.ci95, 1)),
                format!("{} ms", pm(p95.mean, p95.ci95, 1)),
                format!("{} ms", fmt(pooled.p99, 1)),
                pm(fps.mean, fps.ci95, 1),
                format!("{}", p.replicates_ok),
            ]
        })
        .collect();
    print_table(
        "Table II — offload link RTT, mean ± 95% CI across replicates",
        &[
            "Platform",
            "Connection",
            "Paper RTT",
            "Median (sim)",
            "p95 (sim)",
            "pooled p99",
            "fps supportable",
            "n",
        ],
        &rows,
    );
}

// ---------------------------------------------------------------------------
// §VI-C recovery sweep
// ---------------------------------------------------------------------------

fn sweep_recovery(replicates: u32, seed: u64, telemetry: TelemetryOptions) -> Experiment {
    let spec = ScenarioSpec::new("sweep_recovery", seed, replicates)
        .with_param("loss", ParamValue::Float(0.03))
        .with_param("secs", ParamValue::Int(30))
        .with_axis(
            "mechanism",
            RecoveryMechanism::ALL
                .into_iter()
                .map(|m| ParamValue::Str(m.label().to_string()))
                .collect(),
        )
        .with_axis("rtt_ms", [20i64, 36, 60, 120].into_iter().map(ParamValue::Int).collect());
    let trial = Box::new(move |point: &GridPoint, ctx: &TrialCtx| {
        let mechanism =
            RecoveryMechanism::from_label(point.param("mechanism").as_str().expect("str"))
                .expect("known mechanism");
        let rtt = point.param("rtt_ms").as_int().expect("int") as u64;
        let loss = point.param("loss").as_float().expect("float");
        let secs = point.param("secs").as_int().expect("int") as u64;
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
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            let budget = &p.scalars["delivered_in_budget_pct"];
            let total = &p.scalars["delivered_total_pct"];
            let overhead = &p.scalars["overhead_pct"];
            vec![
                p.params["mechanism"].to_string(),
                format!("{} ms", p.params["rtt_ms"]),
                format!("{}%", pm(budget.mean, budget.ci95, 1)),
                format!("{}%", pm(total.mean, total.ci95, 1)),
                format!("{}%", pm(overhead.mean, overhead.ci95, 1)),
                format!("{}", p.replicates_ok),
            ]
        })
        .collect();
    print_table(
        "E11 — recovery at 3% loss, 75 ms budget, mean ± 95% CI across replicates",
        &["Mechanism", "RTT", "In budget", "Delivered", "Byte overhead", "n"],
        &rows,
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

/// Arm labels for the `hardened` axis.
const FAULT_ARMS: [&str; 2] = ["baseline", "hardened"];

fn sweep_faults(replicates: u32, seed: u64, telemetry: TelemetryOptions) -> Experiment {
    let spec = ScenarioSpec::new("sweep_faults", seed, replicates)
        .with_param("fault_ms", ParamValue::Int(500))
        .with_param("secs", ParamValue::Int(6))
        .with_axis(
            "scenario",
            FaultScenario::ALL
                .into_iter()
                .map(|s| ParamValue::Str(s.label().to_string()))
                .collect(),
        )
        .with_axis(
            "stack",
            FAULT_ARMS.into_iter().map(|a| ParamValue::Str(a.to_string())).collect(),
        );
    let trial = Box::new(move |point: &GridPoint, ctx: &TrialCtx| {
        let scenario = FaultScenario::from_label(point.param("scenario").as_str().expect("str"))
            .expect("known fault scenario");
        let hardened = point.param("stack").as_str() == Some("hardened");
        let fault_ms = point.param("fault_ms").as_int().expect("int") as u64;
        let secs = point.param("secs").as_int().expect("int") as u64;
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
            .scalar("recovered", if out.recovery_ms.is_some() { 1.0 } else { 0.0 })
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
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            let budget = &p.scalars["delivered_in_budget_pct"];
            let qoe = &p.scalars["qoe_under_fault_pct"];
            let recovery = &p.samples["recovery_ms"];
            let recovered = &p.scalars["recovered"];
            let rtx_fault = &p.scalars["retransmits_during_fault"];
            let resyncs = &p.scalars["session_resyncs"];
            vec![
                p.params["scenario"].to_string(),
                p.params["stack"].to_string(),
                format!("{}%", pm(qoe.mean, qoe.ci95, 1)),
                format!("{} ms", fmt(recovery.p50, 1)),
                format!("{} ms", fmt(recovery.p99, 1)),
                format!("{}%", fmt(recovered.mean * 100.0, 0)),
                format!("{}%", pm(budget.mean, budget.ci95, 1)),
                fmt(rtx_fault.mean, 1),
                fmt(resyncs.mean, 1),
                format!("{}", p.replicates_ok),
            ]
        })
        .collect();
    print_table(
        "E16 — 500 ms faults at t=2 s: QoE under fault and time-to-QoE-restored (censored at horizon)",
        &[
            "Fault",
            "Stack",
            "QoE under fault",
            "recovery p50",
            "recovery p99",
            "recovered",
            "In budget (run)",
            "rtx in fault",
            "resyncs",
            "n",
        ],
        &rows,
    );
}

// ---------------------------------------------------------------------------
// E17 city-scale hybrid-fidelity sweep (marnet-flow)
// ---------------------------------------------------------------------------

/// The MAR frame budget used for the in-budget QoE column, as in E11.
const CITYSCALE_BUDGET_MS: f64 = 75.0;

fn sweep_cityscale(replicates: u32, seed: u64, telemetry: TelemetryOptions) -> Experiment {
    let spec = ScenarioSpec::new("sweep_cityscale", seed, replicates)
        .with_param("backhaul_gbps", ParamValue::Float(10.0))
        .with_param("secs", ParamValue::Int(3))
        .with_axis(
            "clients",
            [25_000i64, 50_000, 100_000].into_iter().map(ParamValue::Int).collect(),
        );
    let trial = Box::new(move |point: &GridPoint, ctx: &TrialCtx| {
        let clients = point.param("clients").as_int().expect("int") as u64;
        let backhaul = point.param("backhaul_gbps").as_float().expect("float");
        let secs = point.param("secs").as_int().expect("int") as u64;
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
            .scalar("mar_p50_ms", h.median().unwrap_or(f64::NAN))
            .scalar("mar_p95_ms", h.p95().unwrap_or(f64::NAN))
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
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            let p50 = &p.scalars["mar_p50_ms"];
            let p95 = &p.scalars["mar_p95_ms"];
            let delivery = &p.scalars["mar_delivery_pct"];
            let budget = &p.scalars["mar_in_budget_pct"];
            let completed = &p.scalars["bg_completed"];
            vec![
                p.params["clients"].to_string(),
                format!("{} Gb/s", fmt(p.scalars["offered_gbps"].mean, 1)),
                format!("{} ms", pm(p50.mean, p50.ci95, 1)),
                format!("{} ms", pm(p95.mean, p95.ci95, 1)),
                format!("{}%", pm(delivery.mean, delivery.ci95, 1)),
                format!("{}%", pm(budget.mean, budget.ci95, 1)),
                fmt(completed.mean, 0),
                format!("{}", p.replicates_ok),
            ]
        })
        .collect();
    print_table(
        "E17 — city-scale background load vs one packet-level MAR cell (10 Gb/s backhaul), mean ± 95% CI",
        &[
            "Clients",
            "Offered bg",
            "MAR p50",
            "MAR p95",
            "Delivered",
            "In budget",
            "bg transfers done",
            "n",
        ],
        &rows,
    );
}

// ---------------------------------------------------------------------------
// §III offload-decision sweep
// ---------------------------------------------------------------------------

fn device_key(d: DeviceClass) -> &'static str {
    match d {
        DeviceClass::SmartGlasses => "glasses",
        DeviceClass::Smartphone => "phone",
        DeviceClass::Laptop => "laptop",
        _ => "other",
    }
}

const OFFLOAD_DEVICES: [DeviceClass; 3] =
    [DeviceClass::SmartGlasses, DeviceClass::Smartphone, DeviceClass::Laptop];

fn device_from_key(key: &str) -> DeviceClass {
    OFFLOAD_DEVICES
        .into_iter()
        .find(|&d| device_key(d) == key)
        .unwrap_or_else(|| panic!("unknown device key {key:?}"))
}

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

fn sweep_offload(replicates: u32, seed: u64) -> Experiment {
    let spec = ScenarioSpec::new("sweep_offload", seed, replicates)
        .with_axis(
            "device",
            OFFLOAD_DEVICES
                .into_iter()
                .map(|d| ParamValue::Str(device_key(d).to_string()))
                .collect(),
        )
        .with_axis(
            "rtt_ms",
            [4i64, 10, 20, 36, 60, 90, 120].into_iter().map(ParamValue::Int).collect(),
        )
        .with_axis(
            "uplink_mbps",
            [0.5, 1.0, 2.0, 5.0, 10.0, 25.0, 50.0].into_iter().map(ParamValue::Float).collect(),
        );
    let trial = Box::new(|point: &GridPoint, _ctx: &TrialCtx| {
        let device = device_from_key(point.param("device").as_str().expect("str")).spec();
        let rtt = point.param("rtt_ms").as_int().expect("int") as u64;
        let up = point.param("uplink_mbps").as_float().expect("float");
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
            .scalar("feasible", if est.feasible() { 1.0 } else { 0.0 });
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
    for device in OFFLOAD_DEVICES {
        let Some(cells) = by_device.get(device_key(device)) else { continue };
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
                            let feasible = p.scalars["feasible"].mean >= 0.5;
                            let tag = if feasible {
                                strategy_letter(p.scalars["winner_idx"].mean.round() as usize)
                            } else {
                                "∅"
                            };
                            format!("{tag} {}", fmt(p.scalars["winner_ms"].mean, 0))
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
        assert!(!snap.is_empty());
        // The same trial with telemetry off reports identical scalars and
        // nothing captured — instrumentation must not perturb results.
        let plain = build("table2_rtt", 1, 7, &TelemetryOptions::disabled()).unwrap();
        let bare = (plain.trial)(&points[0], &ctx);
        assert_eq!(bare.scalars, report.scalars);
        assert!(bare.events.is_empty());
        assert!(bare.metrics.is_none());
    }

    #[test]
    fn scenario_and_device_keys_round_trip() {
        for s in Table2Scenario::ALL {
            assert_eq!(scenario_from_key(scenario_key(s)), s);
        }
        for d in OFFLOAD_DEVICES {
            assert_eq!(device_from_key(device_key(d)), d);
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

    #[test]
    fn offload_trial_is_deterministic_and_analytic() {
        let exp = build("sweep_offload", 2, 1, &TelemetryOptions::disabled()).unwrap();
        let points = exp.spec.expand_grid();
        let ctx_a = TrialCtx { point_index: 0, replicate: 0, seed: 1 };
        let ctx_b = TrialCtx { point_index: 0, replicate: 1, seed: 999 };
        let a = (exp.trial)(&points[0], &ctx_a);
        let b = (exp.trial)(&points[0], &ctx_b);
        assert_eq!(a.scalars, b.scalars, "analytic sweep must not depend on the seed");
    }
}
