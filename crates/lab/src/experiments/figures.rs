//! The paper's figures — E3 (Fig. 2), E4 (Fig. 3), E5 (Fig. 4) and E6
//! (Fig. 5). Figs. 2–4 are one simulation per replicate whose phases (B's
//! zones, the number of active uploads, the link's capacity steps) report
//! separately named scalars; Fig. 5 is one MAR session per architecture.

use super::{each, float, labelled, labels, mean, table, uint, Cell, Experiment};
use crate::agg::PointSummary;
use crate::runner::{TrialCtx, TrialReport};
use crate::spec::{GridPoint, ParamValue, ScenarioSpec};
use marnet_bench::fmt;
use marnet_bench::scenarios::{
    run_fig2, run_fig3, run_fig4, run_fig5_instrumented, DistributionScenario,
};
use marnet_core::class::{StreamKind, ALL_STREAM_KINDS};
use marnet_radio::dcf::Dot11Params;
use marnet_telemetry::TelemetryOptions;

/// The number in a row's key prefix (`phase2.` → `2`): the row's label.
fn digits(prefix: &str) -> String {
    prefix.chars().filter(char::is_ascii_digit).collect()
}

// ---------------------------------------------------------------------------
// E3 · Fig. 2 — the 802.11 performance anomaly
// ---------------------------------------------------------------------------

pub(super) fn fig2_anomaly(spec: ScenarioSpec, telemetry: TelemetryOptions) -> Experiment {
    // B's three coverage zones are `zone{n}.b_rate_mbps`.
    let spec = spec
        .with_param("a_rate_mbps", ParamValue::Float(54.0))
        .with_param("zone1.b_rate_mbps", ParamValue::Float(54.0))
        .with_param("zone2.b_rate_mbps", ParamValue::Float(18.0))
        .with_param("zone3.b_rate_mbps", ParamValue::Float(6.0))
        .with_param("frame_bytes", ParamValue::Int(1500))
        .with_param("phase_secs", ParamValue::Int(10));
    let trial = Box::new(move |point: &GridPoint, ctx: &TrialCtx| {
        let a_rate = float(point, "a_rate_mbps");
        let zones = [1, 2, 3].map(|n| float(point, &format!("zone{n}.b_rate_mbps")));
        let frame = uint(point, "frame_bytes") as u32;
        let phase = uint(point, "phase_secs");
        let (out, _, capture) = run_fig2(a_rate, &zones, frame, phase, ctx.seed, &telemetry);
        let dot11 = Dot11Params::dot11g();
        let [a, b] = out.stations.map(|s| s.borrow().meter.clone());
        let mut report = TrialReport::new();
        // What A would get sharing the cell with an equally fast station.
        report.scalar("a_solo_half_mbps", dot11.solo_throughput_mbps(a_rate, frame) / 2.0);
        for (n, &zone) in (1u64..).zip(&zones) {
            // Skip the transient after B changes zone.
            let (from, to) = (((n - 1) * phase) as f64 + 2.0, (n * phase) as f64 - 1.0);
            report
                .scalar(
                    format!("zone{n}.analytic_mbps"),
                    dot11.shared_throughput_mbps(&[a_rate, zone], frame),
                )
                .scalar(format!("zone{n}.sim_a_mbps"), a.mean_mbps(from, to))
                .scalar(format!("zone{n}.sim_b_mbps"), b.mean_mbps(from, to));
        }
        report.capture(capture);
        report
    });
    Experiment { spec, trial, render: render_fig2 }
}

fn render_fig2(points: &[PointSummary]) {
    let Some(p) = points.first() else { return };
    table(
        "Fig. 2 — WiFi performance anomaly: A@54 Mb/s while B walks outward",
        (1..=3).map(|n| (p, format!("zone{n}."))),
        &[
            ("B zone Mb/s", Cell::Param("b_rate_mbps", "")),
            ("Analytic per-station Mb/s", Cell::Mean("analytic_mbps", 2, "")),
            ("Sim A Mb/s", Cell::Pm("sim_a_mbps", 2, "")),
            ("Sim B Mb/s", Cell::Pm("sim_b_mbps", 2, "")),
        ],
    );
    println!(
        "\nShape check: although A never moves, its throughput steps down with\n\
         B's zone — per-packet fairness equalises *throughput* at the slow\n\
         station's pace (Heusse et al.)."
    );
}

// ---------------------------------------------------------------------------
// E4 · Fig. 3 — uploads starving a download on an asymmetric link
// ---------------------------------------------------------------------------

pub(super) fn fig3_asymmetry(spec: ScenarioSpec, telemetry: TelemetryOptions) -> Experiment {
    let spec = spec
        .with_param("down_mbps", ParamValue::Float(10.0))
        .with_param("up_mbps", ParamValue::Float(1.0))
        .with_param("uplink_buffer_packets", ParamValue::Int(1000))
        .with_param("uploads", ParamValue::Int(3))
        .with_param("secs", ParamValue::Int(100));
    let trial = Box::new(move |point: &GridPoint, ctx: &TrialCtx| {
        let secs = uint(point, "secs");
        let (out, _, capture) = run_fig3(
            float(point, "down_mbps"),
            float(point, "up_mbps"),
            uint(point, "uplink_buffer_packets") as usize,
            uint(point, "uploads") as usize,
            secs,
            ctx.seed,
            &telemetry,
        );
        // Phase k has k uploads active: [start, first upload), [u1, u2), ...
        // each measured from 2 s in, past the newcomer's slow start.
        let mut bounds = vec![1.0];
        bounds.extend(out.upload_starts.iter().copied());
        bounds.push(secs as f64);
        let download = out.download.borrow();
        let mut report = TrialReport::new();
        for (k, w) in bounds.windows(2).enumerate() {
            let (from, to) = (w[0] + 2.0, w[1]);
            if to <= from {
                continue;
            }
            let uploads: f64 =
                out.uploads.iter().map(|u| u.borrow().goodput_meter.mean_mbps(from, to)).sum();
            report
                .scalar(format!("uploads{k}.from_s"), from)
                .scalar(format!("uploads{k}.to_s"), to)
                .scalar(
                    format!("uploads{k}.download_mbps"),
                    download.goodput_meter.mean_mbps(from, to),
                )
                .scalar(format!("uploads{k}.uploads_total_mbps"), uploads);
        }
        drop(download);
        report.capture(capture);
        report
    });
    Experiment { spec, trial, render: render_fig3 }
}

fn render_fig3(points: &[PointSummary]) {
    let Some(p) = points.first() else { return };
    let uploads = p.params["uploads"].as_int().unwrap_or(0);
    let window = |p: &PointSummary, k: &str| {
        let edge = |which: &str| fmt(mean(p, &format!("{k}{which}_s")), 0);
        format!("{}-{}", edge("from"), edge("to"))
    };
    table(
        &format!(
            "Fig. 3 — download goodput vs number of concurrent uploads ({}/{} Mb/s link, {}-pkt uplink buffer)",
            p.params["down_mbps"], p.params["up_mbps"], p.params["uplink_buffer_packets"]
        ),
        (0..=uploads).map(|k| (p, format!("uploads{k}."))),
        &[
            ("Uploads", Cell::With(&|_, prefix| digits(prefix))),
            ("Window s", Cell::With(&window)),
            ("Download Mb/s", Cell::Pm("download_mbps", 2, "")),
            ("Uploads Mb/s", Cell::Pm("uploads_total_mbps", 2, "")),
        ],
    );
    println!(
        "\nShape check: with 0 uploads the download fills the downlink; the\n\
         first upload fills the uplink queue the download's ACKs must cross,\n\
         and goodput collapses to a small fraction, where further uploads\n\
         keep it — the paper's case for MAR-aware uplink queueing (§IV-D,\n\
         §VI-H)."
    );
}

// ---------------------------------------------------------------------------
// E5 · Fig. 4 — TCP congestion window vs graceful degradation
// ---------------------------------------------------------------------------

/// The AR flow's four sub-streams and their scalar-name stems.
const FIG4_STREAMS: [(&str, StreamKind); 4] = [
    ("meta", StreamKind::Metadata),
    ("sensor", StreamKind::Sensor),
    ("ref", StreamKind::VideoReference),
    ("inter", StreamKind::VideoInter),
];

pub(super) fn fig4_degradation(spec: ScenarioSpec, telemetry: TelemetryOptions) -> Experiment {
    // The link's three capacity phases are `phase{n}.link_mbps`.
    let spec = spec
        .with_param("phase1.link_mbps", ParamValue::Float(8.0))
        .with_param("phase2.link_mbps", ParamValue::Float(2.0))
        .with_param("phase3.link_mbps", ParamValue::Float(0.6))
        .with_param("phase_secs", ParamValue::Int(20));
    let trial = Box::new(move |point: &GridPoint, ctx: &TrialCtx| {
        let rates = [1, 2, 3].map(|n| float(point, &format!("phase{n}.link_mbps")));
        let phase = uint(point, "phase_secs");
        let (out, _, capture) = run_fig4(&rates, phase, ctx.seed, &telemetry);
        let tcp = out.tcp.borrow();
        let tcp_rx = out.tcp_receiver.borrow();
        let ar = out.ar.sender.borrow();
        let ar_rx = out.ar.receiver.borrow();
        let mut report = TrialReport::new();
        for n in 1..=rates.len() as u64 {
            // Skip the 4 s in which both flows find the new capacity.
            let (from_s, to_s) = ((n - 1) * phase + 4, n * phase);
            let (from, to) = (from_s as f64, to_s as f64);
            report
                .scalar_opt(
                    format!("phase{n}.tcp_cwnd_kb"),
                    tcp.cwnd_series.window_mean(from_s, to_s).map(|bytes| bytes / 1000.0),
                )
                .scalar(
                    format!("phase{n}.tcp_goodput_mbps"),
                    tcp_rx.goodput_meter.mean_mbps(from, to),
                );
            for (stem, kind) in FIG4_STREAMS {
                let kbps =
                    ar.send_meters.get(&kind).map_or(0.0, |m| m.mean_mbps(from, to) * 1000.0);
                report.scalar(format!("phase{n}.ar_{stem}_kbps"), kbps);
            }
        }
        let meta = ar_rx.by_kind.get(&StreamKind::Metadata).map_or(0, |k| k.delivered);
        report
            .scalar("ar_meta_delivered", meta as f64)
            .scalar("ar_degrade_signals", ar.degrade_signals as f64);
        for kind in ALL_STREAM_KINDS {
            report.scalar(format!("ar_shed_msgs.{kind}"), ar.dropped_msgs(kind) as f64);
        }
        drop((tcp, tcp_rx, ar, ar_rx));
        report.capture(capture);
        report
    });
    Experiment { spec, trial, render: render_fig4 }
}

fn render_fig4(points: &[PointSummary]) {
    let Some(p) = points.first() else { return };
    table(
        "Fig. 4 — TCP congestion window vs AR graceful degradation (3 phases)",
        (1..=3).map(|n| (p, format!("phase{n}."))),
        &[
            ("Phase", Cell::With(&|_, prefix| digits(prefix))),
            ("Link Mb/s", Cell::Param("link_mbps", "")),
            ("TCP cwnd KB", Cell::Pm("tcp_cwnd_kb", 1, "")),
            ("TCP Mb/s", Cell::Pm("tcp_goodput_mbps", 2, "")),
            ("AR meta kb/s", Cell::Pm("ar_meta_kbps", 1, "")),
            ("AR sensor kb/s", Cell::Pm("ar_sensor_kbps", 1, "")),
            ("AR ref kb/s", Cell::Pm("ar_ref_kbps", 1, "")),
            ("AR inter kb/s", Cell::Pm("ar_inter_kbps", 1, "")),
        ],
    );
    let shed: Vec<String> = ALL_STREAM_KINDS
        .iter()
        .map(|kind| (kind, mean(p, &format!("ar_shed_msgs.{kind}"))))
        .filter(|(_, msgs)| *msgs > 0.0)
        .map(|(kind, msgs)| format!("{kind} {}", fmt(msgs, 1)))
        .collect();
    println!(
        "\nAR deliveries: metadata {} (never shed); messages shed: {}; degrade signals {}.",
        fmt(mean(p, "ar_meta_delivered"), 1),
        if shed.is_empty() { "none".to_string() } else { shed.join(", ") },
        fmt(mean(p, "ar_degrade_signals"), 1),
    );
    println!(
        "\nShape check: TCP halves its window and sends *the same bytes,\n\
         later*; the AR flow keeps metadata at full cadence through both\n\
         congestion events, trims interframes first, and touches reference\n\
         frames only in the deepest phase — Fig. 4's story."
    );
}

// ---------------------------------------------------------------------------
// E6 · Fig. 5 — distribution architectures
// ---------------------------------------------------------------------------

/// Axis labels of the four Fig. 5 architectures, in figure order.
const FIG5_SCENARIOS: [(&str, DistributionScenario); 4] = [
    ("5a", DistributionScenario::MultipathMultiServer),
    ("5b", DistributionScenario::HomeWifiD2d),
    ("5c", DistributionScenario::LteDirectD2d),
    ("5d", DistributionScenario::WifiDirectD2d),
];

pub(super) fn fig5_distribution(spec: ScenarioSpec, telemetry: TelemetryOptions) -> Experiment {
    let spec = spec
        .with_param("secs", ParamValue::Int(30))
        .with_param("budget_ms", ParamValue::Float(75.0))
        .with_axis("scenario", labels(&FIG5_SCENARIOS));
    let trial = Box::new(move |point: &GridPoint, ctx: &TrialCtx| {
        let scenario = labelled(&FIG5_SCENARIOS, &point.params, "scenario");
        let (mut out, _, capture) =
            run_fig5_instrumented(scenario, uint(point, "secs"), ctx.seed, &telemetry);
        let mut report = TrialReport::new();
        report
            .scalar("loops", out.loop_latency_ms.count() as f64)
            .scalar_opt("loop_median_ms", out.loop_latency_ms.median())
            .scalar_opt("loop_p95_ms", out.loop_latency_ms.p95())
            .scalar(
                "within_budget_pct",
                out.loop_latency_ms.fraction_at_most(float(point, "budget_ms")) * 100.0,
            )
            .scalar_opt("critical_median_ms", out.critical_latency_ms.median())
            .scalar("cellular_mbytes", out.sender.borrow().cellular_bytes as f64 / 1e6)
            .samples("loop_latency_ms", out.loop_latency_ms.values().to_vec());
        report.capture(capture);
        report
    });
    Experiment { spec, trial, render: render_fig5 }
}

fn render_fig5(points: &[PointSummary]) {
    let scenario = |p: &PointSummary| labelled(&FIG5_SCENARIOS, &p.params, "scenario");
    table(
        "Fig. 5 — distribution architectures (30 s MAR session each)",
        each(points),
        &[
            ("Scenario", Cell::With(&|p, _| scenario(p).to_string())),
            ("Loops", Cell::Mean("loops", 0, "")),
            ("Loop med ms", Cell::Pm("loop_median_ms", 1, "")),
            ("Loop p95 ms", Cell::Pm("loop_p95_ms", 1, "")),
            ("≤75 ms", Cell::Pm("within_budget_pct", 1, "%")),
            ("Critical med ms", Cell::Pm("critical_median_ms", 1, "")),
            ("LTE MB", Cell::Pm("cellular_mbytes", 1, "")),
        ],
    );
    println!(
        "\nShape check: every architecture lands latency-critical data on its\n\
         nearby executor in under 8 ms (the 5b home PC fastest); the home PC\n\
         also dominates deadline compliance; the D2D architectures (5b-5d)\n\
         spend less LTE than the multi-server 5a; the weak phone helper\n\
         (5c/5d) still serves critical data fast but pushes heavy frames to\n\
         the cloud path, which is their loop p95."
    );
}
