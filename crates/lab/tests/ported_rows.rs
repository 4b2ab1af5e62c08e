//! The port moved the scenarios, it did not change them.
//!
//! Seventeen experiments used to be single-seed `marnet-bench` binaries
//! writing `results/<name>.json`. Before those files were deleted, one row
//! of each was copied here as literals. Each test calls the ported
//! experiment's trial on that row's grid point with `TrialCtx::seed` set
//! to the seed the binary hard-coded and expects every numeric column
//! back, bit for bit. (A lab run never uses these seeds — trial seeds
//! derive from the spec hash — so this is the one place the old numbers
//! are pinned.)

use marnet_lab::experiments;
use marnet_lab::runner::TrialCtx;
use marnet_lab::spec::ParamValue;
use marnet_telemetry::TelemetryOptions;
use std::collections::BTreeMap;

fn s(v: &str) -> ParamValue {
    ParamValue::Str(v.to_string())
}

/// The scalars `name`'s trial reports at `seed` on the grid point whose
/// parameters include every `(key, value)` of `at`.
fn row(name: &str, seed: u64, at: &[(&str, ParamValue)]) -> BTreeMap<String, f64> {
    let exp = experiments::build(name, 1, seed, &TelemetryOptions::disabled()).expect("built-in");
    let points = exp.spec.expand_grid();
    let point = points
        .iter()
        .find(|p| at.iter().all(|(key, value)| p.params.get(*key) == Some(value)))
        .unwrap_or_else(|| panic!("{name} has no grid point at {at:?}"));
    let ctx = TrialCtx { point_index: point.index, replicate: 0, seed };
    (exp.trial)(point, &ctx).scalars
}

/// Asserts the named scalars equal the old row's columns exactly.
#[track_caller]
fn assert_row(got: &BTreeMap<String, f64>, want: &[(&str, f64)]) {
    for (key, value) in want {
        assert_eq!(got.get(*key), Some(value), "column {key}");
    }
}

#[test]
fn table1_devices_smartphone_row() {
    let got = row("table1_devices", 0, &[("device", s("phone"))]);
    assert_row(
        &got,
        &[
            ("compute_gflops", 15.0),
            ("local_vision_feasible", 0.0),
            ("local_vision_ms_per_frame", 100.0),
        ],
    );
}

#[test]
fn table_wireless_hspa_row() {
    let got = row("table_wireless", 7, &[("technology", s("HSPA+"))]);
    assert_row(
        &got,
        &[
            ("theoretical_down_mbps", 168.0),
            ("measured_down_low_mbps", 0.66),
            ("measured_down_high_mbps", 7.0),
            ("measured_up_low_mbps", 0.5),
            ("measured_up_high_mbps", 1.5),
            ("latency_low_ms", 109.94),
            ("latency_high_ms", 131.22),
            ("hype_factor", 43.86422976501306),
            ("meets_latency_budget", 0.0),
            ("meets_uplink_budget", 0.0),
            ("sampled_up_mbps_mean", 1.0003461400000007),
            ("sampled_rtt_ms_mean", 120.98179791999995),
        ],
    );
}

#[test]
fn table_asymmetry_summary() {
    let got = row("table_asymmetry", 0, &[]);
    assert_row(
        &got,
        &[
            ("fixed_ratio_min", 3.3112582781456954),
            ("fixed_ratio_max", 8.196721311475411),
            ("fixed_symmetric_count", 1.0),
            ("mobile_ratio_avg", 2.5175089597055402),
            ("usage_down_over_up_latest", 2.7),
            ("mar_up_over_down.F", 25.0),
            ("mar_up_over_down.C", 16.0),
            ("mar_up_over_down.G", 2.5),
        ],
    );
    assert!(!got.contains_key("mar_up_over_down.L"), "local-only downlinks nothing");
}

#[test]
fn table_bitrates_ladder() {
    // The old artifact held the formatted cells: compare at their precision.
    let got = row("table_bitrates", 0, &[]);
    let cell = |key: &str, prec: usize| format!("{:.prec$}", got[key]);
    assert_eq!(format!("{}-{}", cell("eye_low_gbps", 1), cell("eye_high_gbps", 1)), "9.0-12.2");
    assert_eq!(cell("uhd_raw_gbps", 2), "5.97");
    assert_eq!(cell("uhd_compressed_mbps", 1), "24.9");
    assert_eq!(cell("ar_minimal_mbps", 2), "10.05");
    assert_row(
        &got,
        &[
            ("ar_floor_mbps", 10.0),
            ("gop_ref_bytes", 149_607.0),
            ("gop_inter_bytes", 29_921.0),
            ("gop_frames", 10.0),
        ],
    );
}

#[test]
fn table_privacy_glasses_paranoid_row() {
    let at = [("device", s("glasses")), ("policy", s("paranoid (full redact + encrypt)"))];
    let got = row("table_privacy", 3, &at);
    assert_row(
        &got,
        &[
            ("added_latency_ms", 111.333333),
            ("leakage", 0.0),
            ("d2d_compliant", 1.0),
            ("fits_frame_budget", 0.0),
        ],
    );
}

#[test]
fn fig2_anomaly_rows() {
    let got = row("fig2_anomaly", 13, &[]);
    assert_row(
        &got,
        &[
            ("a_solo_half_mbps", 15.501632838659006),
            ("zone1.analytic_mbps", 15.501632838659006),
            ("zone1.sim_a_mbps", 15.502285714285714),
            ("zone1.sim_b_mbps", 15.502285714285714),
            ("zone2.analytic_mbps", 9.762264454862951),
            ("zone2.sim_a_mbps", 9.762857142857143),
            ("zone2.sim_b_mbps", 9.762857142857143),
            ("zone3.analytic_mbps", 4.62506879789837),
            ("zone3.sim_a_mbps", 4.6251428571428574),
            ("zone3.sim_b_mbps", 4.6251428571428574),
        ],
    );
}

#[test]
fn fig3_asymmetry_phases() {
    let got = row("fig3_asymmetry", 42, &[]);
    assert_row(
        &got,
        &[
            ("uploads0.from_s", 3.0),
            ("uploads0.to_s", 20.0),
            ("uploads0.download_mbps", 9.733562352941176),
            ("uploads0.uploads_total_mbps", 0.0),
            ("uploads1.from_s", 22.0),
            ("uploads1.to_s", 40.0),
            ("uploads1.download_mbps", 0.35948444444444444),
            ("uploads1.uploads_total_mbps", 0.9687911111111112),
            ("uploads2.download_mbps", 0.33482666666666666),
            ("uploads2.uploads_total_mbps", 0.9687911111111112),
            ("uploads3.from_s", 62.0),
            ("uploads3.to_s", 100.0),
            ("uploads3.download_mbps", 0.3374905263157895),
            ("uploads3.uploads_total_mbps", 0.9682105263157895),
        ],
    );
}

#[test]
fn fig4_degradation_phases() {
    let got = row("fig4_degradation", 4, &[]);
    assert_row(
        &got,
        &[
            ("phase1.tcp_cwnd_kb", 122.44378864168618),
            ("phase1.tcp_goodput_mbps", 7.56499),
            ("phase1.ar_meta_kbps", 31.46),
            ("phase1.ar_sensor_kbps", 104.06),
            ("phase1.ar_ref_kbps", 492.24),
            ("phase1.ar_inter_kbps", 3579.56),
            ("phase2.tcp_cwnd_kb", 82.42815228807201),
            ("phase2.tcp_goodput_mbps", 1.94691),
            ("phase2.ar_meta_kbps", 31.46),
            ("phase2.ar_sensor_kbps", 104.06),
            ("phase2.ar_ref_kbps", 502.495),
            ("phase2.ar_inter_kbps", 299.17650000000003),
            ("phase3.tcp_cwnd_kb", 124.352165),
            ("phase3.tcp_goodput_mbps", 0.584),
            ("phase3.ar_meta_kbps", 31.785),
            ("phase3.ar_sensor_kbps", 114.81),
            ("phase3.ar_ref_kbps", 129.719),
            ("phase3.ar_inter_kbps", 57.842999999999996),
            ("ar_meta_delivered", 1818.0),
        ],
    );
}

#[test]
fn fig5_distribution_5a_row() {
    let got = row("fig5_distribution", 42, &[("scenario", s("5a"))]);
    assert_row(
        &got,
        &[
            ("loops", 888.0),
            ("loop_median_ms", 33.055828500000004),
            ("loop_p95_ms", 159.2499703),
            ("within_budget_pct", 0.8265765765765766 * 100.0),
            ("critical_median_ms", 6.7085405),
            ("cellular_mbytes", 1.830681),
        ],
    );
}

#[test]
fn sweep_placement_small_and_large_rows() {
    let at = [("instance", s("small")), ("budget_ms", ParamValue::Int(12))];
    assert_row(
        &row("sweep_placement", 101, &at),
        &[("greedy", 8.0), ("exact", 6.0), ("lower_bound", 3.0), ("infeasible_users", 130.0)],
    );
    let at = [("instance", s("large")), ("budget_ms", ParamValue::Int(20))];
    let large = row("sweep_placement", 102, &at);
    assert_row(
        &large,
        &[("users", 1000.0), ("sites", 60.0), ("greedy", 14.0), ("infeasible_users", 427.0)],
    );
    assert!(!large.contains_key("exact"), "the exact solver runs on the small instance only");
}

#[test]
fn sweep_multipath_policy2_row() {
    let got = row("sweep_multipath", 42, &[("policy", s("2 WiFi preferred, 4G when WiFi is out"))]);
    assert_row(
        &got,
        &[
            ("video_delivered", 8828.0),
            ("metadata_delivered", 9091.0),
            ("video_latency_p95_ms", 56.573333),
            ("deadline_hit_pct", 100.0),
            ("lte_mbytes", 50.81689),
        ],
    );
}

#[test]
fn sweep_queueing_codel_row() {
    let got = row("sweep_queueing", 7, &[("queue", s("CoDel"))]);
    assert_row(
        &got,
        &[
            ("mar_latency_median_ms", 42.84),
            ("mar_latency_p95_ms", 104.4),
            ("mar_delivery_pct", 91.34400000000001),
            ("bulk_goodput_mbps", 0.528812),
        ],
    );
}

#[test]
fn sweep_fairness_loss_only_4_tcp_row() {
    let at = [("mode", s("loss-only")), ("n_tcp", ParamValue::Int(4))];
    let got = row("sweep_fairness", 23, &at);
    assert_row(
        &got,
        &[
            ("ar_mbps", 2.9562186666666666),
            ("tcp_mbps_each", 2.1966186666666667),
            ("fair_share_mbps", 2.4),
            ("jain", 0.9763251057693821),
            ("ar_share_of_fair", 1.2317577777777777),
            ("delay_events", 12.0),
            ("loss_events", 34.0),
        ],
    );
}

#[test]
fn ablation_degradation_full_row() {
    let got = row("ablation_degradation", 19, &[("variant", s("full graceful degradation"))]);
    assert_row(
        &got,
        &[
            ("meta_delivered", 909.0),
            ("meta_p95_ms", 161.07778779999995),
            ("video_delivered", 745.0),
            ("video_deadline_hit_pct", 81.74496644295301),
            ("shed_mbytes", 264_886.0 / 1e6),
        ],
    );
}

#[test]
fn sweep_variance_heavy_fading_row() {
    let got = row("sweep_variance", 29, &[("link_model", s("AR(1) lognormal, σ=0.35 dec"))]);
    assert_row(
        &got,
        &[
            ("video_delivered", 1369.0),
            ("video_deadline_hit_pct", 92.40321402483565),
            ("video_p95_ms", 130.53519579999977),
            ("meta_delivered", 1818.0),
            ("delay_congestion_events", 133.0),
        ],
    );
}

#[test]
fn sweep_5g_rows() {
    let got = row("sweep_5g", 47, &[("feed", s("5G @ 10 Mb/s"))]);
    assert_row(
        &got,
        &[("offered_mbps", 10.0), ("deadline_hit_pct", 87.62376237623762), ("p95_ms", 52.77184)],
    );
    // The old artifact's `"p95_ms": null` rows: nothing was delivered, so
    // the percentile does not exist — absent, not NaN.
    let hspa = row("sweep_5g", 47, &[("feed", s("HSPA+ @ 10 Mb/s"))]);
    assert_row(&hspa, &[("offered_mbps", 10.0), ("deadline_hit_pct", 0.0)]);
    assert!(!hspa.contains_key("p95_ms"));
}

#[test]
fn sweep_caching_top_tier_prefetch_row() {
    let at = [("cache_mb", ParamValue::Float(1000.0)), ("prefetch", ParamValue::Bool(true))];
    let got = row("sweep_caching", 5, &at);
    assert_row(
        &got,
        &[
            ("hit_pct", 0.8641666666666666 * 100.0),
            ("db_overhead_ms_per_frame", 15.213333),
            ("p_local_db_ms", 21.88),
            ("feasible_30fps", 1.0),
        ],
    );
}
