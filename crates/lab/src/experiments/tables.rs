//! The closed-form tables — E1 (Table I), E7 (§IV-A), E8 (§IV-D), E15
//! (§III-B) and X2 (§VI-G) — computed inside the trial from the crate
//! catalogues. Only E7 and X2 draw random numbers (sampled link
//! realizations, sampled street scenes); the others report the same value
//! in every replicate, which their ± 0 confidence intervals confirm.

use super::{
    each, flag, float, labelled, labels, mean, strategy_letter, table, uint, Cell, Experiment,
    DEVICES, USER_DEVICES,
};
use crate::agg::PointSummary;
use crate::runner::{TrialCtx, TrialReport};
use crate::spec::{GridPoint, ParamValue, ScenarioSpec};
use marnet_app::compute::{ComputeModel, FrameWork};
use marnet_app::strategy::OffloadStrategy;
use marnet_app::video::{eye_scaled_rate, VideoConfig, MIN_AR_VIDEO};
use marnet_bench::{fmt, print_table};
use marnet_privacy::anonymize::{sample_street_scene, FrameRegions};
use marnet_privacy::crypto::{best_cipher, handshake_time};
use marnet_privacy::policy::{apply, PrivacyPolicy};
use marnet_radio::asymmetry::{self, mar_upload_ratio, usage_history, AccessKind};
use marnet_radio::profiles::{LinkDirection, RadioTechnology};
use marnet_sim::rng::derive_rng;
use marnet_sim::time::SimDuration;

// ---------------------------------------------------------------------------
// E1 · Table I — devices of a MAR ecosystem
// ---------------------------------------------------------------------------

pub(super) fn table1_devices(spec: ScenarioSpec) -> Experiment {
    let spec =
        spec.with_param("fps", ParamValue::Float(30.0)).with_axis("device", labels(&DEVICES));
    let trial = Box::new(|point: &GridPoint, _ctx: &TrialCtx| {
        let device = labelled(&DEVICES, &point.params, "device").spec();
        let model = ComputeModel::new(float(point, "fps"), FrameWork::vision_pipeline());
        let est = model.p_local(&device);
        let mut report = TrialReport::new();
        report
            .scalar("compute_gflops", device.compute_gflops)
            .scalar("local_vision_ms_per_frame", est.per_frame.as_millis_f64())
            .scalar("local_vision_feasible", flag(est.feasible()));
        report
    });
    Experiment { spec, trial, render: render_table1 }
}

fn render_table1(points: &[PointSummary]) {
    // The qualitative columns are the catalogue's, verbatim.
    let device = |p: &PointSummary| labelled(&DEVICES, &p.params, "device").spec();
    let storage = |p: &PointSummary| match device(p).storage_gb {
        (lo, Some(hi)) => format!("{lo:.0}-{hi:.0} GB"),
        (lo, None) => format!("{lo:.0}+ GB (unlimited)"),
    };
    let battery = |p: &PointSummary| match device(p).battery_hours {
        Some((lo, hi)) => format!("{lo:.0}-{hi:.0}h"),
        None => "mains".to_string(),
    };
    let network = |p: &PointSummary| {
        let device = device(p);
        let mut ifaces: Vec<String> = device.network.iter().map(|t| t.to_string()).collect();
        if device.wired {
            ifaces.push(if ifaces.is_empty() { "Ethernet/Fiber" } else { "Ethernet" }.into());
        }
        ifaces.join("/")
    };
    table(
        "Table I — devices of a MAR ecosystem (+ local 30 FPS vision feasibility)",
        each(points),
        &[
            ("Platform", Cell::With(&|p, _| device(p).class.to_string())),
            ("Computing power", Cell::With(&|p, _| device(p).computing_power.to_string())),
            ("GFLOPS", Cell::Mean("compute_gflops", 0, "")),
            ("Storage", Cell::With(&|p, _| storage(p))),
            ("Battery", Cell::With(&|p, _| battery(p))),
            ("Network access", Cell::With(&|p, _| network(p))),
            ("Portability", Cell::With(&|p, _| device(p).portability.to_string())),
            ("30FPS vision?", Cell::YesNo("local_vision_feasible")),
            ("ms/frame local", Cell::Mean("local_vision_ms_per_frame", 1, "")),
        ],
    );
    println!(
        "\nTable I's trade-off, quantified: every device portable enough for\n\
         ubiquitous MAR fails the 33 ms/frame vision budget locally — the\n\
         paper's case for offloading."
    );
}

// ---------------------------------------------------------------------------
// E7 · §IV-A wireless survey
// ---------------------------------------------------------------------------

fn technologies() -> [(String, RadioTechnology); 7] {
    RadioTechnology::ALL.map(|t| (t.to_string(), t))
}

pub(super) fn table_wireless(spec: ScenarioSpec) -> Experiment {
    let spec = spec
        .with_param("samples", ParamValue::Int(200))
        .with_axis("technology", labels(&technologies()));
    let trial = Box::new(|point: &GridPoint, ctx: &TrialCtx| {
        let p = labelled(&technologies(), &point.params, "technology").profile();
        // Empirical check of the samplers against the quoted ranges.
        let n = uint(point, "samples");
        let mut rng = derive_rng(ctx.seed, "table_wireless");
        let (mut up_sum, mut rtt_sum) = (0.0, 0.0);
        for _ in 0..n {
            let lp = p.sample_link_params(LinkDirection::Uplink, &mut rng);
            up_sum += lp.rate.as_mbps();
            rtt_sum += lp.delay.as_millis_f64() * 2.0;
        }
        let mut report = TrialReport::new();
        report
            .scalar("theoretical_down_mbps", p.theoretical_down_mbps)
            .scalar("measured_down_low_mbps", p.measured_down_mbps.low)
            .scalar("measured_down_high_mbps", p.measured_down_mbps.high)
            .scalar("measured_up_low_mbps", p.measured_up_mbps.low)
            .scalar("measured_up_high_mbps", p.measured_up_mbps.high)
            .scalar("latency_low_ms", p.latency_ms.low)
            .scalar("latency_high_ms", p.latency_ms.high)
            .scalar("hype_factor", p.hype_factor())
            .scalar("meets_latency_budget", flag(p.meets_mar_latency_budget()))
            .scalar("meets_uplink_budget", flag(p.meets_mar_uplink_budget()))
            .scalar("sampled_up_mbps_mean", up_sum / n as f64)
            .scalar("sampled_rtt_ms_mean", rtt_sum / n as f64);
        report
    });
    Experiment { spec, trial, render: render_wireless }
}

fn render_wireless(points: &[PointSummary]) {
    let range = |p: &PointSummary, stem: &str, prec: usize| {
        let end = |which: &str| fmt(mean(p, &stem.replace("{}", which)), prec);
        format!("{}-{}", end("low"), end("high"))
    };
    table(
        "§IV-A — wireless access technologies: theoretical vs measured",
        each(points),
        &[
            ("Technology", Cell::Param("technology", "")),
            ("Theo down Mb/s", Cell::Mean("theoretical_down_mbps", 0, "")),
            ("Meas down Mb/s", Cell::With(&|p, _| range(p, "measured_down_{}_mbps", 1))),
            ("Meas up Mb/s", Cell::With(&|p, _| range(p, "measured_up_{}_mbps", 1))),
            ("RTT ms", Cell::With(&|p, _| range(p, "latency_{}_ms", 0))),
            ("Hype", Cell::Mean("hype_factor", 0, "x")),
            ("≤75ms?", Cell::YesNo("meets_latency_budget")),
            ("≥10Mb/s up?", Cell::YesNo("meets_uplink_budget")),
            ("sampled up", Cell::Pm("sampled_up_mbps_mean", 1, "")),
            ("sampled RTT", Cell::Pm("sampled_rtt_ms_mean", 0, "")),
        ],
    );
    println!(
        "\nThe §IV conclusion, as data: every deployed infrastructure network\n\
         misses at least one of the MAR budgets; only the (undeployed) D2D\n\
         modes and the 5G KPI targets clear both."
    );
}

// ---------------------------------------------------------------------------
// E8 · §IV-D asymmetry
// ---------------------------------------------------------------------------

pub(super) fn table_asymmetry(spec: ScenarioSpec) -> Experiment {
    let trial = Box::new(|_point: &GridPoint, _ctx: &TrialCtx| {
        let offers = asymmetry::catalog();
        // The paper's fixed-ISP range is over the asymmetric US offers.
        let fixed = offers.iter().filter(|o| {
            o.kind == AccessKind::Fixed && !o.is_symmetric() && o.name.starts_with("US")
        });
        let mobile: Vec<f64> =
            offers.iter().filter(|o| o.kind == AccessKind::Mobile).map(|o| o.ratio()).collect();
        let symmetric =
            offers.iter().filter(|o| o.kind == AccessKind::Fixed && o.is_symmetric()).count();
        let mut report = TrialReport::new();
        report
            .scalar(
                "fixed_ratio_min",
                fixed.clone().map(|o| o.ratio()).fold(f64::INFINITY, f64::min),
            )
            .scalar("fixed_ratio_max", fixed.map(|o| o.ratio()).fold(0.0, f64::max))
            .scalar("fixed_symmetric_count", symmetric as f64)
            .scalar("mobile_ratio_avg", mobile.iter().sum::<f64>() / mobile.len() as f64)
            .scalar_opt(
                "usage_down_over_up_latest",
                usage_history().last().map(|u| u.down_over_up),
            );
        // MAR reverses the profile: per-frame up vs down bytes per
        // strategy (keyed by its E9 letter; local-only downlinks nothing).
        for (i, s) in OffloadStrategy::canonical().into_iter().enumerate() {
            let (up, down) = (s.uplink_bytes_per_frame(), s.downlink_bytes_per_frame());
            if down > 0 {
                let letter = strategy_letter(i);
                report
                    .scalar(format!("mar_up_bytes.{letter}"), up as f64)
                    .scalar(format!("mar_down_bytes.{letter}"), down as f64)
                    .scalar(format!("mar_up_over_down.{letter}"), mar_upload_ratio(up, down));
            }
        }
        report
    });
    Experiment { spec, trial, render: render_asymmetry }
}

fn render_asymmetry(points: &[PointSummary]) {
    // The two catalogues the summary is computed from, verbatim.
    let rows: Vec<Vec<String>> = asymmetry::catalog()
        .iter()
        .map(|o| {
            vec![
                o.name.to_string(),
                format!("{:?}", o.kind),
                fmt(o.down_mbps, 0),
                fmt(o.up_mbps, 1),
                fmt(o.ratio(), 2),
                if o.is_symmetric() { "yes" } else { "no" }.into(),
            ]
        })
        .collect();
    print_table(
        "§IV-D — access offers: provisioned down:up ratios",
        &["Offer", "Kind", "Down Mb/s", "Up Mb/s", "Ratio", "Symmetric"],
        &rows,
    );
    let hist: Vec<Vec<String>> = usage_history()
        .iter()
        .map(|u| vec![u.year.to_string(), fmt(u.down_over_up, 2), u.era.to_string()])
        .collect();
    print_table("§IV-D-2 — download:upload usage ratio over time", &["Year", "D/U", "Era"], &hist);

    let Some(p) = points.first() else { return };
    let mar_rows: Vec<Vec<String>> = OffloadStrategy::canonical()
        .into_iter()
        .enumerate()
        .filter(|(i, _)| {
            p.scalars.contains_key(&format!("mar_up_over_down.{}", strategy_letter(*i)))
        })
        .map(|(i, s)| {
            let letter = strategy_letter(i);
            vec![
                s.to_string(),
                fmt(mean(p, &format!("mar_up_bytes.{letter}")), 0),
                fmt(mean(p, &format!("mar_down_bytes.{letter}")), 0),
                fmt(mean(p, &format!("mar_up_over_down.{letter}")), 1),
            ]
        })
        .collect();
    print_table(
        "MAR offloading traffic: bytes per frame, uplink-dominated",
        &["Strategy", "Up B/frame", "Down B/frame", "Up/Down"],
        &mar_rows,
    );
    println!(
        "\nLinks are provisioned {}-{}:1 down-heavy (mobile avg {}:1),\n\
         usage runs ~{}:1 down-heavy — and MAR offloading pushes 2.5-25x\n\
         MORE bytes *up* than down. The mismatch is structural.",
        fmt(mean(p, "fixed_ratio_min"), 2),
        fmt(mean(p, "fixed_ratio_max"), 2),
        fmt(mean(p, "mobile_ratio_avg"), 2),
        fmt(mean(p, "usage_down_over_up_latest"), 2),
    );
}

// ---------------------------------------------------------------------------
// E15 · §III-B bandwidth estimates
// ---------------------------------------------------------------------------

pub(super) fn table_bitrates(spec: ScenarioSpec) -> Experiment {
    let spec = spec
        .with_param("fov_low_deg", ParamValue::Float(60.0))
        .with_param("fov_high_deg", ParamValue::Float(70.0))
        .with_param("compression_ratio_4k", ParamValue::Float(240.0));
    let trial = Box::new(|point: &GridPoint, _ctx: &TrialCtx| {
        let gbps = |fov: f64| eye_scaled_rate(fov).as_bps() as f64 / 1e9;
        let uhd = VideoConfig::uhd_4k_60();
        let compressed = uhd.with_compression(float(point, "compression_ratio_4k"));
        let minimal = VideoConfig::ar_minimal();
        let (ref_bytes, inter_bytes) = minimal.gop_frame_sizes();
        let mut report = TrialReport::new();
        report
            .scalar("eye_low_gbps", gbps(float(point, "fov_low_deg")))
            .scalar("eye_high_gbps", gbps(float(point, "fov_high_deg")))
            .scalar("uhd_raw_gbps", uhd.raw_bitrate().as_bps() as f64 / 1e9)
            .scalar("uhd_compressed_mbps", compressed.bitrate().as_mbps())
            .scalar("ar_minimal_mbps", minimal.bitrate().as_mbps())
            .scalar("ar_floor_mbps", MIN_AR_VIDEO.as_bps() as f64 / 1e6)
            .scalar("gop_ref_bytes", f64::from(ref_bytes))
            .scalar("gop_inter_bytes", f64::from(inter_bytes))
            .scalar("gop_frames", f64::from(minimal.gop));
        report
    });
    Experiment { spec, trial, render: render_bitrates }
}

fn render_bitrates(points: &[PointSummary]) {
    let Some(p) = points.first() else { return };
    let m = |key: &str, prec: usize| fmt(mean(p, key), prec);
    // (step, the paper's value, ours, note)
    let rows = [
        (
            "Eye → camera FOV raw estimate",
            "9-12 Gb/s",
            format!("{}-{} Gb/s", m("eye_low_gbps", 1), m("eye_high_gbps", 1)),
            "foveal 6-10 Mb/s scaled by (FOV/2°)²",
        ),
        (
            "Uncompressed 4K 60FPS 12bpp",
            "711 Mb/s (printed)",
            format!("{} Gb/s", m("uhd_raw_gbps", 2)),
            "3840×2160×12×60 bits = 5.97 Gb/s; the paper's 711 appears to be megaBYTES/s \
             (746 MB/s) — see EXPERIMENTS.md E15",
        ),
        (
            "Lossy-compressed 4K",
            "20-30 Mb/s",
            format!(
                "{} Mb/s at {}:1",
                m("uhd_compressed_mbps", 1),
                p.params["compression_ratio_4k"]
            ),
            "H.264/H.265-class ratios",
        ),
        (
            "Minimal AR-usable feed",
            "~10 Mb/s",
            format!(
                "{} Mb/s (720p30 at 33:1); floor constant {} Mb/s",
                m("ar_minimal_mbps", 2),
                m("ar_floor_mbps", 0)
            ),
            "enough detail for advanced AR operations",
        ),
        (
            "Minimal feed GoP",
            "-",
            format!(
                "{} B ref / {} B inter, GoP {}",
                m("gop_ref_bytes", 0),
                m("gop_inter_bytes", 0),
                m("gop_frames", 0)
            ),
            "the Fig. 4 sub-stream sizes",
        ),
    ];
    print_table(
        "§III-B — bandwidth estimates for MAR video",
        &["Step", "Paper", "Computed", "Note"],
        &rows.map(|(step, paper, ours, note)| vec![step.into(), paper.into(), ours, note.into()]),
    );
}

// ---------------------------------------------------------------------------
// X2 · §VI-G privacy bill
// ---------------------------------------------------------------------------

/// The `policy` axis.
fn privacy_policies() -> [(&'static str, PrivacyPolicy); 3] {
    [
        ("none", PrivacyPolicy::none()),
        ("first-party (encrypt only)", PrivacyPolicy::first_party()),
        ("paranoid (full redact + encrypt)", PrivacyPolicy::paranoid()),
    ]
}

pub(super) fn table_privacy(spec: ScenarioSpec) -> Experiment {
    let spec = spec
        .with_param("frame_bytes", ParamValue::Int(40_000))
        .with_param("scene_frames", ParamValue::Int(500))
        .with_param("frame_budget_ms", ParamValue::Int(33))
        .with_param("handover_rtt_ms", ParamValue::Int(36))
        .with_axis("device", labels(&USER_DEVICES))
        .with_axis("policy", labels(&privacy_policies()));
    let trial = Box::new(|point: &GridPoint, ctx: &TrialCtx| {
        let device = labelled(&USER_DEVICES, &point.params, "device");
        let policy = labelled(&privacy_policies(), &point.params, "policy");
        // A representative busy street scene: the mean of the sampled frames.
        let n = uint(point, "scene_frames") as u32;
        let mut rng = derive_rng(ctx.seed, "table_privacy");
        let mut acc = FrameRegions::default();
        for _ in 0..n {
            let s = sample_street_scene(&mut rng);
            acc.faces += s.faces;
            acc.plates += s.plates;
            acc.street_plates += s.street_plates;
        }
        let scene = FrameRegions {
            faces: acc.faces / n,
            plates: acc.plates / n,
            street_plates: acc.street_plates / n,
        };
        let v = apply(&policy, device, uint(point, "frame_bytes"), &scene);
        let budget = SimDuration::from_millis(uint(point, "frame_budget_ms"));
        let handshake =
            handshake_time(device, SimDuration::from_millis(uint(point, "handover_rtt_ms")));
        let mut report = TrialReport::new();
        report
            .scalar("added_latency_ms", v.added_latency.as_millis_f64())
            .scalar("leakage", v.leakage)
            .scalar("d2d_compliant", flag(policy.d2d_compliant()))
            .scalar("fits_frame_budget", flag(v.added_latency < budget))
            .scalar("handshake_ms", handshake.as_millis_f64());
        report
    });
    Experiment { spec, trial, render: render_privacy }
}

fn render_privacy(points: &[PointSummary]) {
    let device = |p: &PointSummary| labelled(&USER_DEVICES, &p.params, "device");
    table(
        "§VI-G extension — privacy cost per 40 KB frame (avg street scene)",
        each(points),
        &[
            ("Device", Cell::With(&|p, _| device(p).to_string())),
            ("Policy", Cell::Param("policy", "")),
            ("Added ms/frame", Cell::Pm("added_latency_ms", 2, "")),
            ("Leakage", Cell::Pm("leakage", 1, "")),
            ("D2D-safe", Cell::YesNo("d2d_compliant")),
            ("≤33 ms/frame", Cell::YesNo("fits_frame_budget")),
        ],
    );
    println!("\nHandshake cost after a WiFi handover (36 ms RTT):");
    // One line per device: the handshake does not depend on the policy.
    for p in points.iter().filter(|p| p.params["policy"].as_str() == Some(privacy_policies()[0].0))
    {
        println!(
            "  {:<14} {} ms ({:?})",
            device(p).to_string(),
            fmt(mean(p, "handshake_ms"), 1),
            best_cipher(device(p))
        );
    }
    println!(
        "\nReading: encryption is cheap everywhere (hardware AES), but the\n\
         *detection* pass behind redaction costs vision-level compute — on\n\
         smart glasses the D2D-compliance prerequisite alone blows the frame\n\
         budget, the §VI-G chicken-and-egg: you must offload to afford the\n\
         privacy pass that makes offloading safe."
    );
}
