//! The "Shape check / Reading" paragraphs, as assertions.
//!
//! Every renderer ends in a paragraph of prose about its table, and
//! EXPERIMENTS.md repeats it. This file holds that prose to the committed
//! `results/lab_*.json` means: it loads the artifacts and runs no
//! simulation, so a regenerated artifact that stops supporting a sentence
//! fails here — and the fix is then to the sentence, not to the numbers.

use marnet_lab::agg::PointSummary;
use marnet_lab::artifact::Artifact;
use marnet_lab::spec::ParamValue;
use std::path::Path;

fn s(v: &str) -> ParamValue {
    ParamValue::Str(v.to_string())
}

/// The committed artifact of `name`.
fn committed(name: &str) -> Artifact {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("../../results/lab_{name}.json"));
    Artifact::load(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The point of `artifact` whose parameters include every pair of `at`.
fn point<'a>(artifact: &'a Artifact, at: &[(&str, ParamValue)]) -> &'a PointSummary {
    artifact
        .points
        .iter()
        .find(|p| at.iter().all(|(key, value)| p.params.get(*key) == Some(value)))
        .unwrap_or_else(|| panic!("{} has no point at {at:?}", artifact.experiment))
}

/// The mean of metric `key` at a point.
fn mean(p: &PointSummary, key: &str) -> f64 {
    p.scalars.get(key).unwrap_or_else(|| panic!("no metric {key} at {:?}", p.params)).mean
}

/// The means of `key` along the string-labelled axis `axis`, in the given
/// label order, at the point otherwise fixed by `at`.
fn along(
    a: &Artifact,
    axis: &str,
    labels: &[&str],
    at: &[(&str, ParamValue)],
    key: &str,
) -> Vec<f64> {
    labels
        .iter()
        .map(|label| {
            let mut at = at.to_vec();
            at.push((axis, s(label)));
            mean(point(a, &at), key)
        })
        .collect()
}

#[track_caller]
fn assert_increasing(values: &[f64], what: &str) {
    assert!(values.windows(2).all(|w| w[0] < w[1]), "{what} must strictly increase: {values:?}");
}

#[track_caller]
fn assert_non_increasing(values: &[f64], what: &str) {
    assert!(values.windows(2).all(|w| w[0] >= w[1]), "{what} must not increase: {values:?}");
}

#[test]
fn fig2_simulated_a_tracks_the_analytic_rate_in_every_zone() {
    let a = committed("fig2_anomaly");
    let p = point(&a, &[]);
    let sim: Vec<f64> = (1..=3).map(|n| mean(p, &format!("zone{n}.sim_a_mbps"))).collect();
    for (n, sim_a) in (1..).zip(&sim) {
        let analytic = mean(p, &format!("zone{n}.analytic_mbps"));
        assert!((sim_a - analytic).abs() / analytic < 0.01, "zone {n}: {sim_a} vs {analytic}");
    }
    // A never moves, yet its throughput steps down with B's zone.
    assert_non_increasing(&sim, "A's throughput as B walks outward");
}

#[test]
fn fig3_one_upload_is_enough_to_starve_the_download() {
    let a = committed("fig3_asymmetry");
    let p = point(&a, &[]);
    let solo = mean(p, "uploads0.download_mbps");
    for k in 1..=3 {
        let shared = mean(p, &format!("uploads{k}.download_mbps"));
        assert!(shared < solo / 10.0, "{k} upload(s): {shared} Mb/s of {solo} solo");
    }
}

#[test]
fn fig4_metadata_holds_while_interframes_then_reference_frames_give_way() {
    let a = committed("fig4_degradation");
    let p = point(&a, &[]);
    let phases = |stem: &str| -> Vec<f64> {
        (1..=3).map(|n| mean(p, &format!("phase{n}.ar_{stem}_kbps"))).collect()
    };
    let meta = phases("meta");
    assert!(meta.iter().all(|m| (m - meta[0]).abs() / meta[0] < 0.05), "metadata flat: {meta:?}");
    let inter = phases("inter");
    assert!(inter[0] > inter[1] && inter[1] > inter[2], "interframes fall every phase: {inter:?}");
    let reference = phases("ref");
    assert!(reference[1] >= reference[0] * 0.95, "references untouched in phase 2: {reference:?}");
    assert!(reference[2] < reference[1] * 0.5, "references fall in the last phase: {reference:?}");
    // TCP, by contrast, just fills whatever the link is.
    for n in 1..=3 {
        let link = a.spec.base[&format!("phase{n}.link_mbps")].as_float().unwrap();
        let goodput = mean(p, &format!("phase{n}.tcp_goodput_mbps"));
        assert!(goodput > 0.9 * link && goodput <= link, "phase {n}: TCP {goodput} of {link}");
    }
}

#[test]
fn fig5_critical_data_stays_near_and_the_home_pc_wins() {
    let a = committed("fig5_distribution");
    let scenarios = ["5a", "5b", "5c", "5d"];
    let critical = along(&a, "scenario", &scenarios, &[], "critical_median_ms");
    assert!(critical.iter().all(|ms| *ms < 8.0), "critical data lands nearby: {critical:?}");
    assert!(critical.iter().all(|ms| critical[1] <= *ms), "the home PC is nearest: {critical:?}");
    let in_budget = along(&a, "scenario", &scenarios, &[], "within_budget_pct");
    assert!(in_budget.iter().all(|pct| in_budget[1] >= *pct), "5b dominates: {in_budget:?}");
    let lte = along(&a, "scenario", &scenarios, &[], "cellular_mbytes");
    assert!(lte[1..].iter().all(|mb| *mb < lte[0]), "D2D spends less LTE than 5a: {lte:?}");
}

#[test]
fn e10_infeasible_users_fall_as_the_budget_loosens() {
    let a = committed("sweep_placement");
    for instance in ["small", "large"] {
        let by_budget: Vec<f64> = a
            .points
            .iter()
            .filter(|p| p.params["instance"] == s(instance))
            .map(|p| mean(p, "infeasible_users"))
            .collect();
        assert_eq!(by_budget.len(), 6, "{instance}: one point per budget, in axis order");
        assert_non_increasing(&by_budget, &format!("{instance}: infeasible users in δ"));
    }
}

#[test]
fn e12_policies_order_the_lte_bill_and_only_wifi_only_loses_video() {
    let a = committed("sweep_multipath");
    let policies = [
        "1 WiFi only (4G for critical handover)",
        "2 WiFi preferred, 4G when WiFi is out",
        "3 WiFi and 4G simultaneously",
    ];
    assert_increasing(&along(&a, "policy", &policies, &[], "lte_mbytes"), "LTE bytes, policy 1→3");
    let video = along(&a, "policy", &policies, &[], "video_delivered");
    assert!(video[0] < video[1] && video[0] < video[2], "WiFi-only loses the gaps: {video:?}");
    // Policies 2 and 3 both carry the whole feed: neither beats the other
    // beyond the replicates' joint confidence band.
    let ci = |label| point(&a, &[("policy", s(label))]).scalars["video_delivered"].ci95;
    assert!(
        (video[1] - video[2]).abs() <= ci(policies[1]) + ci(policies[2]),
        "policies 2 and 3 deliver the same video within CI: {video:?}"
    );
}

#[test]
fn e13_queueing_disciplines_order_the_mar_tail() {
    let a = committed("sweep_queueing");
    let queues = [
        "Strict priority (MAR in band 0)",
        "CoDel",
        "DropTail 50 (small FIFO)",
        "DropTail 1000 (status quo)",
    ];
    assert_increasing(&along(&a, "queue", &queues, &[], "mar_latency_p95_ms"), "MAR p95");
    // The fair-queueing caveat: FQ-CoDel hands the bulk flow the most.
    let bulk = |q| mean(point(&a, &[("queue", s(q))]), "bulk_goodput_mbps");
    assert!(queues.iter().all(|q| bulk("FQ-CoDel") > bulk(q)));
}

#[test]
fn e14_relaxing_the_delay_signal_buys_back_fair_share() {
    let a = committed("sweep_fairness");
    let modes = ["delay-sensitive (15 ms)", "delay-relaxed (60 ms)", "loss-only"];
    for n_tcp in [1, 2, 4] {
        let at = [("n_tcp", ParamValue::Int(n_tcp))];
        let share = along(&a, "mode", &modes, &at, "ar_share_of_fair");
        assert_increasing(&share, &format!("AR/fair against {n_tcp} TCP"));
        assert!(share[0] < 0.1, "the delay-sensitive mode is starved: {share:?}");
    }
}

#[test]
fn e14_textbook_vegas_is_starved_but_less_than_the_delay_only_ar_flow() {
    let a = committed("sweep_fairness");
    let modes = ["delay-only (no loss fallback)", "TCP Vegas", "loss-only"];
    for n_tcp in [1, 2, 4] {
        let at = [("n_tcp", ParamValue::Int(n_tcp))];
        let share = along(&a, "mode", &modes, &at, "ar_share_of_fair");
        assert_increasing(&share, &format!("share of fair against {n_tcp} Reno"));
        assert!(share[1] > 5.0 * share[0], "Vegas keeps several times more: {share:?}");
        assert!(share[1] < 0.25, "Vegas still loses to Reno: {share:?}");
    }
}

#[test]
fn x1_each_piece_of_graceful_degradation_earns_its_place() {
    let a = committed("ablation_degradation");
    let variants = [
        "late-only shedding (no backlog control)",
        "shedding, no app adaptation",
        "full graceful degradation",
    ];
    assert_increasing(
        &along(&a, "variant", &variants, &[], "video_deadline_hit_pct"),
        "in-deadline video",
    );
    assert_increasing(&along(&a, "variant", &variants, &[], "video_delivered"), "video delivered");
    assert_non_increasing(&along(&a, "variant", &variants, &[], "meta_p95_ms"), "metadata p95");
}

#[test]
fn x3_variance_alone_erodes_deadline_compliance() {
    let a = committed("sweep_variance");
    let fading = ["constant", "AR(1) lognormal, σ=0.15 dec", "AR(1) lognormal, σ=0.35 dec"];
    assert_non_increasing(
        &along(&a, "link_model", &fading, &[], "video_deadline_hit_pct"),
        "in-deadline video as fading deepens",
    );
    assert_non_increasing(
        &along(&a, "link_model", &fading, &[], "video_delivered"),
        "video delivered as fading deepens",
    );
    // Heavy fading and the Markov drops are not ranked: the prose says
    // they are within each other's confidence interval.
    let hit = |label| &point(&a, &[("link_model", s(label))]).scalars["video_deadline_hit_pct"];
    let (heavy, markov) = (hit(fading[2]), hit("Markov mean ↔ 100 kb/s (HSPA+-like)"));
    assert!((heavy.mean - markov.mean).abs() <= heavy.ci95 + markov.ci95);
    assert!(markov.mean < hit(fading[1]).mean, "both cost more than mild fading");
    // Critical metadata gets through in every model (within 1 %).
    for p in &a.points {
        assert!(mean(p, "meta_delivered") > 0.99 * mean(p, "video_offered"), "{:?}", p.params);
    }
}

#[test]
fn x4_5g_carries_todays_feed_and_saturates_on_tomorrows() {
    let a = committed("sweep_5g");
    let hit = |feed| mean(point(&a, &[("feed", s(feed))]), "deadline_hit_pct");
    for older in ["HSPA+ @ 10 Mb/s", "LTE @ 10 Mb/s", "802.11ac @ 10 Mb/s"] {
        assert!(hit("5G @ 10 Mb/s") > hit(older), "5G must beat {older}");
    }
    let scaled = ["5G @ 10 Mb/s", "5G @ 25 Mb/s", "5G @ 50 Mb/s", "5G @ 100 Mb/s", "5G @ 200 Mb/s"];
    let on_5g = along(&a, "feed", &scaled, &[], "deadline_hit_pct");
    assert_non_increasing(&on_5g, "5G in-deadline share in offered rate");
    assert!(on_5g[0] > 80.0 && on_5g[2] == 0.0, "sails at 10 Mb/s, saturated at 50: {on_5g:?}");
    // Where nothing was delivered the percentile is absent, not a number.
    assert!(!point(&a, &[("feed", s("5G @ 50 Mb/s"))]).scalars.contains_key("p95_ms"));
}

#[test]
fn x5_hit_ratio_climbs_with_cache_size_and_prefetch_pays_at_the_top() {
    let a = committed("sweep_caching");
    for prefetch in [false, true] {
        let by_size: Vec<f64> = a
            .points
            .iter()
            .filter(|p| p.params["prefetch"] == ParamValue::Bool(prefetch))
            .map(|p| mean(p, "hit_pct"))
            .collect();
        assert_eq!(by_size.len(), 5, "one point per cache size, in axis order");
        assert!(by_size.windows(2).all(|w| w[0] <= w[1]), "prefetch={prefetch}: {by_size:?}");
    }
    let top = |prefetch| {
        let at =
            [("cache_mb", ParamValue::Float(1000.0)), ("prefetch", ParamValue::Bool(prefetch))];
        point(&a, &at)
    };
    assert!(mean(top(true), "hit_pct") - mean(top(false), "hit_pct") > 10.0);
    assert_eq!(mean(top(true), "feasible_30fps"), 1.0);
    let feasible = a.points.iter().filter(|p| mean(p, "feasible_30fps") == 1.0).count();
    assert_eq!(feasible, 1, "only the top tier with prefetch reaches 30 FPS");
}
