//! The paper's remaining sweeps — E10 (§VI-F edge placement), E12 (§VI-D
//! multipath policies), E13 (§VI-H uplink queueing) and E14 (§VI-B
//! fairness).

use super::{each, float, labelled, labels, mean, pm, table, uint, Cell, Experiment};
use crate::agg::PointSummary;
use crate::runner::{TrialCtx, TrialReport};
use crate::spec::{GridPoint, ParamValue, ScenarioSpec};
use marnet_bench::fmt;
use marnet_bench::scenarios::{
    commute_config, fairness_config, run_fairness_config_instrumented,
    run_multipath_commute_config_instrumented, run_queueing_instrumented, Contender,
};
use marnet_core::class::StreamKind;
use marnet_core::multipath::MultipathPolicy;
use marnet_edge::placement::synthetic_metro;
use marnet_sim::queue::QueueConfig;
use marnet_sim::rng::derive_rng;
use marnet_sim::stats::jain_index;
use marnet_sim::time::SimDuration;
use marnet_telemetry::TelemetryOptions;

// ---------------------------------------------------------------------------
// E10 · §VI-F edge-datacenter placement
// ---------------------------------------------------------------------------

/// A synthetic metro instance of the placement problem.
#[derive(Clone, Copy)]
struct Metro {
    users: usize,
    sites: usize,
    size_km: f64,
    /// Whether the instance is small enough for the exact solver (and the
    /// lower bound it is compared with).
    exact: bool,
    /// The instance's RNG stream label.
    stream: &'static str,
}

/// The `instance` axis: the solver-quality comparison and the practical
/// regime.
const METROS: [(&str, Metro); 2] = [
    (
        "small",
        Metro { users: 150, sites: 20, size_km: 25.0, exact: true, stream: "placement.small" },
    ),
    (
        "large",
        Metro { users: 1000, sites: 60, size_km: 30.0, exact: false, stream: "placement.large" },
    ),
];

pub(super) fn sweep_placement(spec: ScenarioSpec) -> Experiment {
    let spec = spec.with_axis("instance", labels(&METROS)).with_axis(
        "budget_ms",
        [12i64, 15, 20, 30, 50, 75].into_iter().map(ParamValue::Int).collect(),
    );
    let trial = Box::new(|point: &GridPoint, ctx: &TrialCtx| {
        let metro = labelled(&METROS, &point.params, "instance");
        let budget = SimDuration::from_millis(uint(point, "budget_ms"));
        let mut rng = derive_rng(ctx.seed, metro.stream);
        let problem = synthetic_metro(metro.users, metro.sites, metro.size_km, budget, &mut rng);
        let greedy = problem.solve_greedy();
        assert!(problem.validate(&greedy), "greedy placement must cover every coverable user");
        let mut report = TrialReport::new();
        report
            .scalar("users", metro.users as f64)
            .scalar("sites", metro.sites as f64)
            .scalar("greedy", greedy.cost() as f64)
            .scalar("infeasible_users", greedy.uncovered.len() as f64);
        if metro.exact {
            let exact = problem.solve_exact();
            assert!(problem.validate(&exact), "exact placement must cover every coverable user");
            report
                .scalar("exact", exact.cost() as f64)
                .scalar("lower_bound", problem.lower_bound() as f64);
        }
        report
    });
    Experiment { spec, trial, render: render_placement }
}

fn render_placement(points: &[PointSummary]) {
    for (label, metro) in METROS {
        let per_dc = |p: &PointSummary| fmt(metro.users as f64 / mean(p, "greedy").max(1.0), 0);
        table(
            &format!(
                "E10 — datacenters needed vs deadline, {label} instance ({} users, {} sites, {} km metro)",
                metro.users, metro.sites, metro.size_km
            ),
            each(points).filter(|(p, _)| p.params["instance"].as_str() == Some(label)),
            &[
                ("Budget δ", Cell::Param("budget_ms", " ms")),
                ("Greedy", Cell::Pm("greedy", 1, "")),
                ("Exact", Cell::Pm("exact", 1, "")),
                ("Lower bound", Cell::Pm("lower_bound", 1, "")),
                ("Infeasible users", Cell::Pm("infeasible_users", 1, "")),
                ("Users per DC", Cell::With(&|p, _| per_dc(p))),
            ],
        );
    }
    println!(
        "\nShape check: tight AR deadlines force dense edge deployments (the\n\
         §VI-F argument), and the infeasible-user count falls monotonically\n\
         as δ loosens. The datacenter count itself is not monotone: a looser\n\
         budget both widens coverage radii (fewer sites needed for WiFi\n\
         users) *and* admits high-access-RTT LTE users into the constraint\n\
         set, who then demand their own nearby sites — the same tension as\n\
         Table II's LTE row."
    );
}

// ---------------------------------------------------------------------------
// E12 · §VI-D multipath policies
// ---------------------------------------------------------------------------

/// The `policy` axis: the paper's three WiFi/4G usage policies.
const POLICIES: [(&str, MultipathPolicy); 3] = [
    ("1 WiFi only (4G for critical handover)", MultipathPolicy::WifiOnly),
    ("2 WiFi preferred, 4G when WiFi is out", MultipathPolicy::WifiPreferred),
    ("3 WiFi and 4G simultaneously", MultipathPolicy::Aggregate),
];

pub(super) fn sweep_multipath(spec: ScenarioSpec, telemetry: TelemetryOptions) -> Experiment {
    let spec = spec.with_param("secs", ParamValue::Int(300)).with_axis("policy", labels(&POLICIES));
    let trial = Box::new(move |point: &GridPoint, ctx: &TrialCtx| {
        let policy = labelled(&POLICIES, &point.params, "policy");
        let secs = uint(point, "secs");
        let (out, _, capture) = run_multipath_commute_config_instrumented(
            &commute_config(policy),
            secs,
            ctx.seed,
            &telemetry,
        );
        let r = out.receiver.borrow();
        let video = r.by_kind.get(&StreamKind::VideoInter);
        let meta = r.by_kind.get(&StreamKind::Metadata);
        let mut report = TrialReport::new();
        report
            .scalar("video_offered", (secs * 30) as f64)
            .scalar("video_delivered", video.map_or(0, |k| k.delivered) as f64)
            .scalar("metadata_delivered", meta.map_or(0, |k| k.delivered) as f64)
            .scalar_opt("video_latency_p95_ms", video.and_then(|k| k.latency_ms.clone().p95()))
            .scalar("deadline_hit_pct", r.deadline_hit_ratio() * 100.0)
            .scalar("lte_mbytes", out.sender.borrow().cellular_bytes as f64 / 1e6);
        drop(r);
        report.capture(capture);
        report
    });
    Experiment { spec, trial, render: render_multipath }
}

fn render_multipath(points: &[PointSummary]) {
    let secs = points.first().map_or_else(String::new, |p| p.params["secs"].to_string());
    let delivered = |p: &PointSummary| {
        format!("{} / {}", pm(p, "video_delivered", 0, ""), fmt(mean(p, "video_offered"), 0))
    };
    table(
        &format!("E12 — §VI-D policies over a {secs}s commute (WiFi usable ~54% of the time)"),
        each(points),
        &[
            ("Policy", Cell::Param("policy", "")),
            ("Video delivered", Cell::With(&|p, _| delivered(p))),
            ("Metadata", Cell::Pm("metadata_delivered", 0, "")),
            ("Video p95 ms", Cell::Pm("video_latency_p95_ms", 1, "")),
            ("Deadline hits", Cell::Pm("deadline_hit_pct", 1, "%")),
            ("LTE MB", Cell::Pm("lte_mbytes", 1, "")),
        ],
    );
    println!(
        "\nShape check: policy 1 spends almost nothing on LTE but loses the\n\
         video stream during every WiFi gap (critical metadata still hops\n\
         over); policy 2 buys near-continuous service for a moderate LTE\n\
         bill; policy 3 pays the most LTE, and for a feed that either path\n\
         carries alone it delivers no more video than policy 2 (the two are\n\
         within each other's confidence interval) — the §VI-D menu, priced."
    );
}

// ---------------------------------------------------------------------------
// E13 · §VI-H uplink queueing
// ---------------------------------------------------------------------------

/// The `queue` axis: the uplink disciplines compared, and the priority
/// band the MAR stream is marked with.
fn queues() -> [(&'static str, (QueueConfig, u8)); 5] {
    [
        ("DropTail 1000 (status quo)", (QueueConfig::bloated_uplink(), 0)),
        ("DropTail 50 (small FIFO)", (QueueConfig::DropTail { cap_packets: 50 }, 0)),
        ("CoDel", (QueueConfig::codel_default(), 0)),
        ("FQ-CoDel", (QueueConfig::fq_codel_default(), 0)),
        (
            "Strict priority (MAR in band 0)",
            (QueueConfig::StrictPriority { bands: 4, cap_packets_per_band: 250 }, 0),
        ),
    ]
}

/// The paced MAR stream of `run_queueing_instrumented`: 1.5 Mb/s in
/// 1200-byte packets.
const MAR_PACKETS_PER_SEC: f64 = 1.5e6 / (1200.0 * 8.0);

pub(super) fn sweep_queueing(spec: ScenarioSpec, telemetry: TelemetryOptions) -> Experiment {
    let spec = spec
        .with_param("up_mbps", ParamValue::Float(2.0))
        .with_param("secs", ParamValue::Int(40))
        .with_axis("queue", labels(&queues()));
    let trial = Box::new(move |point: &GridPoint, ctx: &TrialCtx| {
        let (queue, prio) = labelled(&queues(), &point.params, "queue");
        let secs = uint(point, "secs");
        let (out, _, capture) = run_queueing_instrumented(
            float(point, "up_mbps"),
            queue,
            prio,
            1,
            1,
            secs,
            ctx.seed,
            &telemetry,
        );
        let mut report = TrialReport::new();
        if let (Some(mar), Some(bulk)) = (out.mar.first(), out.bulk.first()) {
            let mar = mar.borrow();
            let mut latency = mar.latency_ms.clone();
            report
                .scalar_opt("mar_latency_median_ms", latency.median())
                .scalar_opt("mar_latency_p95_ms", latency.p95())
                .scalar(
                    "mar_delivery_pct",
                    mar.packets as f64 / (MAR_PACKETS_PER_SEC * secs as f64) * 100.0,
                )
                .scalar(
                    "bulk_goodput_mbps",
                    bulk.borrow().goodput_bytes as f64 * 8.0 / secs as f64 / 1e6,
                )
                .samples("mar_latency_ms", mar.latency_ms.values().to_vec());
        }
        report.capture(capture);
        report
    });
    Experiment { spec, trial, render: render_queueing }
}

fn render_queueing(points: &[PointSummary]) {
    table(
        "E13 — uplink queueing for a 1.5 Mb/s MAR stream + greedy upload on a 2 Mb/s uplink",
        each(points),
        &[
            ("Queue", Cell::Param("queue", "")),
            ("MAR median ms", Cell::Pm("mar_latency_median_ms", 1, "")),
            ("MAR p95 ms", Cell::Pm("mar_latency_p95_ms", 1, "")),
            ("MAR delivered", Cell::Pm("mar_delivery_pct", 1, "%")),
            ("Bulk Mb/s", Cell::Pm("bulk_goodput_mbps", 2, "")),
        ],
    );
    println!(
        "\nShape check: the 1000-packet FIFO inflicts about a second of\n\
         one-way latency (bufferbloat); CoDel/FQ-CoDel cut it to tens of ms\n\
         while the upload keeps its goodput; strict priority gives MAR\n\
         near-propagation latency — §VI-H's 'latency queuing + FQ-CoDel'\n\
         recommendation, with the paper's caveat that fair queueing hands\n\
         the long flow its full share at the MAR stream's expense, visible\n\
         in the bulk and delivered columns."
    );
}

// ---------------------------------------------------------------------------
// E14 · §VI-B fairness
// ---------------------------------------------------------------------------

/// The `mode` axis: does the AR flow fall back to reacting to loss, and
/// the latency threshold of its delay signal in ms — or `None`, one
/// textbook TCP Vegas flow in the AR flow's place.
const CONGESTION_MODES: [(&str, Option<(bool, u64)>); 5] = [
    ("delay-sensitive (15 ms)", Some((true, 15))),
    ("delay-relaxed (60 ms)", Some((true, 60))),
    ("loss-only", Some((true, 10_000))),
    ("delay-only (no loss fallback)", Some((false, 15))),
    ("TCP Vegas", None),
];

pub(super) fn sweep_fairness(spec: ScenarioSpec, telemetry: TelemetryOptions) -> Experiment {
    let spec = spec
        .with_param("bottleneck_mbps", ParamValue::Float(12.0))
        .with_param("secs", ParamValue::Int(30))
        .with_axis("mode", labels(&CONGESTION_MODES))
        .with_axis("n_tcp", [1i64, 2, 4].into_iter().map(ParamValue::Int).collect());
    let trial = Box::new(move |point: &GridPoint, ctx: &TrialCtx| {
        let bottleneck = float(point, "bottleneck_mbps");
        let n_tcp = uint(point, "n_tcp") as usize;
        let secs = uint(point, "secs");
        let contender = match labelled(&CONGESTION_MODES, &point.params, "mode") {
            Some((react_to_loss, threshold_ms)) => Contender::Ar(fairness_config(
                bottleneck,
                react_to_loss,
                SimDuration::from_millis(threshold_ms),
            )),
            None => Contender::Vegas,
        };
        let (out, _, capture) = run_fairness_config_instrumented(
            bottleneck, n_tcp, &contender, secs, ctx.seed, &telemetry,
        );
        let mbps = |bytes: u64| bytes as f64 * 8.0 / secs as f64 / 1e6;
        let ar_mbps = mbps(out.contender_bytes);
        let mut alloc: Vec<f64> = out.tcp.iter().map(|t| mbps(t.borrow().goodput_bytes)).collect();
        let tcp_mean = alloc.iter().sum::<f64>() / alloc.len() as f64;
        alloc.push(ar_mbps);
        let fair = bottleneck / (n_tcp as f64 + 1.0);
        let mut report = TrialReport::new();
        report
            .scalar("ar_mbps", ar_mbps)
            .scalar("tcp_mbps_each", tcp_mean)
            .scalar("fair_share_mbps", fair)
            .scalar("jain", jain_index(&alloc))
            .scalar("ar_share_of_fair", ar_mbps / fair);
        if let Some(sender) = &out.ar_sender {
            let s = sender.borrow();
            report
                .scalar("delay_events", s.delay_congestion_events as f64)
                .scalar("loss_events", s.loss_congestion_events as f64);
        }
        report.capture(capture);
        report
    });
    Experiment { spec, trial, render: render_fairness }
}

fn render_fairness(points: &[PointSummary]) {
    let bottleneck =
        points.first().map_or_else(String::new, |p| p.params["bottleneck_mbps"].to_string());
    table(
        &format!("E14 — one AR or Vegas flow vs n Reno flows on a {bottleneck} Mb/s bottleneck"),
        each(points),
        &[
            ("Congestion mode", Cell::Param("mode", "")),
            ("TCPs", Cell::Param("n_tcp", "")),
            ("AR Mb/s", Cell::Pm("ar_mbps", 2, "")),
            ("TCP Mb/s each", Cell::Pm("tcp_mbps_each", 2, "")),
            ("Fair Mb/s", Cell::Mean("fair_share_mbps", 2, "")),
            ("Jain", Cell::Pm("jain", 3, "")),
            ("AR/fair", Cell::Pm("ar_share_of_fair", 2, "")),
        ],
    );
    println!(
        "\nShape check: the delay-sensitive mode is starved by queue-filling\n\
         TCP (AR/fair ≪ 1 — the Vegas problem of §VI-B); relaxing the\n\
         threshold buys back bandwidth; loss-only competes like AIMD. The\n\
         'trade-off between latency and bandwidth requirements' is this\n\
         table's diagonal. In the TCP Vegas rows the AR columns are the\n\
         Vegas flow's: textbook Vegas is starved too, but keeps several\n\
         times the delay-only AR flow's share."
    );
}
