//! E12 — sweeps the §VI-D multipath usage policies over a commute with
//! realistic WiFi coverage (usable ~53.8% of the time, per the Wi2Me study
//! §IV-A-4 cites) and near-ubiquitous LTE: service availability and
//! latency versus the LTE byte bill.

use marnet_bench::scenarios::{commute_config, run_multipath_commute_config_instrumented};
use marnet_bench::{fmt, print_table, write_json};
use marnet_core::class::StreamKind;
use marnet_core::multipath::MultipathPolicy;
use marnet_telemetry::TelemetryOptions;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    policy: String,
    video_delivered: u64,
    metadata_delivered: u64,
    video_latency_p95_ms: f64,
    deadline_hit_pct: f64,
    lte_mbytes: f64,
}

fn main() {
    let secs = 300;
    let policies = [
        ("1 WiFi only (4G for critical handover)", MultipathPolicy::WifiOnly),
        ("2 WiFi preferred, 4G when WiFi is out", MultipathPolicy::WifiPreferred),
        ("3 WiFi and 4G simultaneously", MultipathPolicy::Aggregate),
    ];

    let mut rows = Vec::new();
    for (label, policy) in policies {
        let out = run_multipath_commute_config_instrumented(
            &commute_config(policy),
            secs,
            42,
            &TelemetryOptions::disabled(),
        )
        .0;
        let r = out.receiver.borrow();
        let s = out.sender.borrow();
        let video = r.by_kind.get(&StreamKind::VideoInter);
        let meta = r.by_kind.get(&StreamKind::Metadata);
        let p95 = video.map(|k| k.latency_ms.clone()).and_then(|mut h| h.p95()).unwrap_or(f64::NAN);
        rows.push(Row {
            policy: label.to_string(),
            video_delivered: video.map_or(0, |k| k.delivered),
            metadata_delivered: meta.map_or(0, |k| k.delivered),
            video_latency_p95_ms: p95,
            deadline_hit_pct: r.deadline_hit_ratio() * 100.0,
            lte_mbytes: s.cellular_bytes as f64 / 1e6,
        });
    }

    let offered = secs * 30;
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.policy.clone(),
                format!("{} / {offered}", r.video_delivered),
                r.metadata_delivered.to_string(),
                fmt(r.video_latency_p95_ms, 1),
                format!("{}%", fmt(r.deadline_hit_pct, 1)),
                fmt(r.lte_mbytes, 1),
            ]
        })
        .collect();
    print_table(
        &format!("E12 — §VI-D policies over a {secs}s commute (WiFi usable ~54% of the time)"),
        &["Policy", "Video delivered", "Metadata", "Video p95 ms", "Deadline hits", "LTE MB"],
        &table,
    );
    println!(
        "\nShape check: policy 1 spends almost nothing on LTE but loses the\n\
         video stream during every WiFi gap (critical metadata still hops\n\
         over); policy 2 buys near-continuous service for a moderate LTE\n\
         bill; policy 3 pays the most LTE for the most bandwidth and the\n\
         smoothest latency — exactly the §VI-D menu."
    );
    write_json("sweep_multipath", &rows);
}
