//! E14 — sweeps the §VI-B fairness trade-off: the AR protocol's
//! delay-based congestion signal against 1-4 loss-based TCP flows on a
//! shared bottleneck. The latency threshold is the ablation knob: a tight
//! threshold keeps queues (and MAR latency) low but concedes bandwidth to
//! TCP — the Vegas problem the paper cites; loosening it (towards
//! loss-only) buys fairness at the cost of queueing delay.

use marnet_bench::scenarios::{fairness_config, run_fairness_config_instrumented};
use marnet_bench::{fmt, print_table, write_json};
use marnet_sim::stats::jain_index;
use marnet_sim::time::SimDuration;
use marnet_telemetry::TelemetryOptions;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    mode: String,
    n_tcp: usize,
    ar_mbps: f64,
    tcp_mbps_each: f64,
    fair_share_mbps: f64,
    jain: f64,
    ar_share_of_fair: f64,
    delay_events: u64,
    loss_events: u64,
}

fn main() {
    let bottleneck = 12.0;
    let secs = 30;
    let modes: Vec<(&str, bool, SimDuration)> = vec![
        ("delay-sensitive (15 ms)", true, SimDuration::from_millis(15)),
        ("delay-relaxed (60 ms)", true, SimDuration::from_millis(60)),
        ("loss-only", true, SimDuration::from_secs(10)),
        ("delay-only (no loss fallback)", false, SimDuration::from_millis(15)),
    ];

    let mut rows = Vec::new();
    for (label, react_to_loss, threshold) in modes {
        let cfg = fairness_config(bottleneck, react_to_loss, threshold);
        for n_tcp in [1usize, 2, 4] {
            let out = run_fairness_config_instrumented(
                bottleneck,
                n_tcp,
                &cfg,
                secs,
                23,
                &TelemetryOptions::disabled(),
            )
            .0;
            let ar_mbps = out.ar.borrow().received_bytes as f64 * 8.0 / secs as f64 / 1e6;
            let tcp_each: Vec<f64> = out
                .tcp
                .iter()
                .map(|t| t.borrow().goodput_bytes as f64 * 8.0 / secs as f64 / 1e6)
                .collect();
            let tcp_mean = tcp_each.iter().sum::<f64>() / tcp_each.len() as f64;
            let fair = bottleneck / (n_tcp as f64 + 1.0);
            let mut alloc = tcp_each.clone();
            alloc.push(ar_mbps);
            let s = out.ar_sender.borrow();
            rows.push(Row {
                mode: label.to_string(),
                n_tcp,
                ar_mbps,
                tcp_mbps_each: tcp_mean,
                fair_share_mbps: fair,
                jain: jain_index(&alloc),
                ar_share_of_fair: ar_mbps / fair,
                delay_events: s.delay_congestion_events,
                loss_events: s.loss_congestion_events,
            });
        }
    }

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.mode.clone(),
                r.n_tcp.to_string(),
                fmt(r.ar_mbps, 2),
                fmt(r.tcp_mbps_each, 2),
                fmt(r.fair_share_mbps, 2),
                fmt(r.jain, 3),
                fmt(r.ar_share_of_fair, 2),
            ]
        })
        .collect();
    print_table(
        &format!("E14 — AR flow vs n TCP flows on a {bottleneck} Mb/s bottleneck"),
        &["Congestion mode", "TCPs", "AR Mb/s", "TCP Mb/s each", "Fair Mb/s", "Jain", "AR/fair"],
        &table,
    );
    println!(
        "\nShape check: the delay-sensitive mode is starved by queue-filling\n\
         TCP (AR/fair ≪ 1 — the Vegas problem of §VI-B); relaxing the\n\
         threshold buys back bandwidth; loss-only competes like AIMD. The\n\
         'trade-off between latency and bandwidth requirements' is this\n\
         table's diagonal."
    );
    write_json("sweep_fairness", &rows);
}
