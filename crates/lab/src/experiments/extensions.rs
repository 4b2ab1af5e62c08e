//! The ablation and the paper-forward extensions — X1 (what each piece of
//! graceful degradation buys), X3 (rate variance as the adversary), X4
//! (does 5G fix it) and X5 (Eq. 2's cache term). X2, the privacy bill, is
//! a closed-form table and lives with the tables.

use super::{each, flag, float, labelled, labels, mean, pm, table, uint, Cell, Experiment};
use crate::agg::PointSummary;
use crate::runner::{TrialCtx, TrialReport};
use crate::spec::{GridPoint, ParamValue, ScenarioSpec};
use marnet_app::compute::{ComputeModel, DbAccess, FrameWork, NetParams};
use marnet_app::db::{db_overhead_per_frame, LruCache, RequestGenerator};
use marnet_app::device::DeviceClass;
use marnet_bench::fmt;
use marnet_bench::scenarios::{
    ablation_config, run_ablation, run_access_feed, run_variance, RateVariance,
};
use marnet_core::class::StreamKind;
use marnet_radio::profiles::RadioTechnology;
use marnet_sim::link::Bandwidth;
use marnet_sim::rng::derive_rng;
use marnet_sim::time::SimDuration;
use marnet_telemetry::TelemetryOptions;

/// Share of deliveries that met their deadline, in percent; absent when
/// nothing was delivered.
fn deadline_hit_pct(hits: u64, misses: u64) -> Option<f64> {
    (hits + misses > 0).then(|| hits as f64 / (hits + misses) as f64 * 100.0)
}

// ---------------------------------------------------------------------------
// X1 · ablation — graceful degradation (DESIGN §5.2)
// ---------------------------------------------------------------------------

/// The `variant` axis: is backlog-pressure shedding on, and does the
/// application adapt its quality to the QoS signals?
const ABLATION_VARIANTS: [(&str, (bool, bool)); 3] = [
    ("full graceful degradation", (true, true)),
    ("shedding, no app adaptation", (true, false)),
    ("late-only shedding (no backlog control)", (false, false)),
];

pub(super) fn ablation_degradation(spec: ScenarioSpec, telemetry: TelemetryOptions) -> Experiment {
    let spec = spec
        .with_param("link_mbps", ParamValue::Float(1.5))
        .with_param("secs", ParamValue::Int(30))
        .with_axis("variant", labels(&ABLATION_VARIANTS));
    let trial = Box::new(move |point: &GridPoint, ctx: &TrialCtx| {
        let (backlog_control, adaptive) = labelled(&ABLATION_VARIANTS, &point.params, "variant");
        let (out, _, capture) = run_ablation(
            &ablation_config(backlog_control),
            adaptive,
            float(point, "link_mbps"),
            uint(point, "secs"),
            ctx.seed,
            &telemetry,
        );
        let r = out.receiver.borrow();
        let meta = r.by_kind.get(&StreamKind::Metadata);
        let (mut delivered, mut hits, mut misses) = (0, 0, 0);
        for k in [StreamKind::VideoReference, StreamKind::VideoInter]
            .iter()
            .filter_map(|kind| r.by_kind.get(kind))
        {
            delivered += k.delivered;
            hits += k.deadline_hits;
            misses += k.deadline_misses;
        }
        let mut report = TrialReport::new();
        report
            .scalar("meta_delivered", meta.map_or(0, |k| k.delivered) as f64)
            .scalar_opt("meta_p95_ms", meta.and_then(|k| k.latency_ms.clone().p95()))
            .scalar("video_delivered", delivered as f64)
            .scalar_opt("video_deadline_hit_pct", deadline_hit_pct(hits, misses))
            .scalar("shed_mbytes", out.sender.borrow().dropped_bytes() as f64 / 1e6);
        drop(r);
        report.capture(capture);
        report
    });
    Experiment { spec, trial, render: render_ablation }
}

fn render_ablation(points: &[PointSummary]) {
    table(
        "Ablation — graceful degradation under 2.7x overload (1.5 Mb/s link, 30 s)",
        each(points),
        &[
            ("Variant", Cell::Param("variant", "")),
            ("Meta ok", Cell::Pm("meta_delivered", 0, "")),
            ("Meta p95 ms", Cell::Pm("meta_p95_ms", 1, "")),
            ("Video ok", Cell::Pm("video_delivered", 0, "")),
            ("Video ≤deadline", Cell::Pm("video_deadline_hit_pct", 1, "%")),
            ("Shed MB", Cell::Pm("shed_mbytes", 2, "")),
        ],
    );
    println!(
        "\nReading: with shedding on, metadata stays fast; app adaptation\n\
         additionally *fits* the stream to the link (several times more\n\
         frames survive, most of them on time, and a small fraction of the\n\
         bytes is shed). Without adaptation the link carries mostly\n\
         reference frames that arrive late, and without backlog control the\n\
         queue holds everything until it is already late — metadata crawls\n\
         behind stale video and almost nothing meets its deadline, which is\n\
         the TCP-ish behaviour Fig. 4 contrasts."
    );
}

// ---------------------------------------------------------------------------
// X3 · §IV-A-1/§IV-C — variance as the adversary
// ---------------------------------------------------------------------------

/// The `link_model` axis: one mean rate, rising variance.
const LINK_MODELS: [(&str, RateVariance); 4] = [
    ("constant", RateVariance::Constant),
    ("AR(1) lognormal, σ=0.15 dec", RateVariance::Ar1Mild),
    ("AR(1) lognormal, σ=0.35 dec", RateVariance::Ar1Heavy),
    ("Markov mean ↔ 100 kb/s (HSPA+-like)", RateVariance::Markov),
];

pub(super) fn sweep_variance(spec: ScenarioSpec, telemetry: TelemetryOptions) -> Experiment {
    let spec = spec
        .with_param("mean_mbps", ParamValue::Float(6.0))
        .with_param("secs", ParamValue::Int(60))
        .with_axis("link_model", labels(&LINK_MODELS));
    let trial = Box::new(move |point: &GridPoint, ctx: &TrialCtx| {
        let variance = labelled(&LINK_MODELS, &point.params, "link_model");
        let secs = uint(point, "secs");
        let (out, _, capture) =
            run_variance(variance, float(point, "mean_mbps"), secs, ctx.seed, &telemetry);
        let r = out.receiver.borrow();
        let video = r.by_kind.get(&StreamKind::VideoInter);
        let meta = r.by_kind.get(&StreamKind::Metadata);
        let mut report = TrialReport::new();
        report
            .scalar("video_offered", (secs * 1000 / 33) as f64)
            .scalar("video_delivered", video.map_or(0, |k| k.delivered) as f64)
            .scalar_opt(
                "video_deadline_hit_pct",
                video.and_then(|k| deadline_hit_pct(k.deadline_hits, k.deadline_misses)),
            )
            .scalar_opt("video_p95_ms", video.and_then(|k| k.latency_ms.clone().p95()))
            .scalar("meta_delivered", meta.map_or(0, |k| k.delivered) as f64)
            .scalar("delay_congestion_events", out.sender.borrow().delay_congestion_events as f64);
        drop(r);
        report.capture(capture);
        report
    });
    Experiment { spec, trial, render: render_variance }
}

fn render_variance(points: &[PointSummary]) {
    let delivered = |p: &PointSummary| {
        format!("{} / {}", pm(p, "video_delivered", 0, ""), fmt(mean(p, "video_offered"), 0))
    };
    table(
        "Extension — same mean rate, rising variance (offered ≈ 1.5 Mb/s video)",
        each(points),
        &[
            ("Link model", Cell::Param("link_model", "")),
            ("Video delivered", Cell::With(&|p, _| delivered(p))),
            ("≤deadline", Cell::Pm("video_deadline_hit_pct", 1, "%")),
            ("Video p95 ms", Cell::Pm("video_p95_ms", 1, "")),
            ("Meta ok", Cell::Pm("meta_delivered", 0, "")),
            ("Delay events", Cell::Pm("delay_congestion_events", 0, "")),
        ],
    );
    println!(
        "\nReading: the mean is not the message. With identical average\n\
         capacity, variance alone erodes delivery and deadline compliance:\n\
         mild fading costs little; heavy AR(1) fading and the abrupt\n\
         order-of-magnitude Markov drops (the §IV-A-1 HSPA+ behaviour) each\n\
         lose about a fifth of the frames and some five points of deadline\n\
         compliance — across replicates the two are within each other's\n\
         confidence interval, so neither is 'the' worst — while critical\n\
         metadata gets through in every model. This is the quantitative\n\
         form of the paper's demand that 5G bound *rate variance*, not just\n\
         peak rate (§IV-C)."
    );
}

// ---------------------------------------------------------------------------
// X4 · §IV-C — does 5G fix it, and for how long?
// ---------------------------------------------------------------------------

/// The `feed` axis: today's 10 Mb/s minimal AR feed on each access
/// generation, then tomorrow's feeds (higher resolution, stereo — §III-B's
/// "several hundreds of Mbps") on 5G only. Values are the access
/// technology and the offered rate in Mb/s.
const FEEDS: [(&str, (RadioTechnology, f64)); 8] = [
    ("HSPA+ @ 10 Mb/s", (RadioTechnology::HspaPlus, 10.0)),
    ("LTE @ 10 Mb/s", (RadioTechnology::Lte, 10.0)),
    ("802.11ac @ 10 Mb/s", (RadioTechnology::Wifi80211ac, 10.0)),
    ("5G @ 10 Mb/s", (RadioTechnology::FiveG, 10.0)),
    ("5G @ 25 Mb/s", (RadioTechnology::FiveG, 25.0)),
    ("5G @ 50 Mb/s", (RadioTechnology::FiveG, 50.0)),
    ("5G @ 100 Mb/s", (RadioTechnology::FiveG, 100.0)),
    ("5G @ 200 Mb/s", (RadioTechnology::FiveG, 200.0)),
];

pub(super) fn sweep_5g(spec: ScenarioSpec, telemetry: TelemetryOptions) -> Experiment {
    let spec = spec.with_param("secs", ParamValue::Int(20)).with_axis("feed", labels(&FEEDS));
    let trial = Box::new(move |point: &GridPoint, ctx: &TrialCtx| {
        let (tech, offered_mbps) = labelled(&FEEDS, &point.params, "feed");
        let secs = uint(point, "secs");
        let (out, _, capture) = run_access_feed(tech, offered_mbps, secs, ctx.seed, &telemetry);
        let r = out.receiver.borrow();
        let video = r.by_kind.get(&StreamKind::VideoInter);
        // Of the frames offered: one never delivered also missed its deadline.
        let offered = secs * 1000 / 33;
        let hit_pct = video.map_or(0.0, |k| {
            let judged = k.deadline_hits + k.deadline_misses;
            k.deadline_hits as f64 / offered.max(judged) as f64 * 100.0
        });
        let mut report = TrialReport::new();
        report
            .scalar("offered_mbps", offered_mbps)
            .scalar("deadline_hit_pct", hit_pct)
            .scalar_opt("p95_ms", video.and_then(|k| k.latency_ms.clone().p95()));
        drop(r);
        report.capture(capture);
        report
    });
    Experiment { spec, trial, render: render_5g }
}

fn render_5g(points: &[PointSummary]) {
    let delivering = |p: &PointSummary| p.scalars.get("p95_ms").map_or(0, |m| m.count);
    table(
        "Extension — MAR video uplink across access generations, then scaled up on 5G",
        each(points),
        &[
            ("Network", Cell::With(&|p, _| labelled(&FEEDS, &p.params, "feed").0.to_string())),
            ("Offered Mb/s", Cell::Mean("offered_mbps", 0, "")),
            ("≤75 ms", Cell::Pm("deadline_hit_pct", 1, "%")),
            ("p95 ms", Cell::Pm("p95_ms", 1, "")),
            ("runs delivering", Cell::With(&|p, _| delivering(p).to_string())),
        ],
    );
    println!(
        "\nReading: today's 10 Mb/s AR feed fails on HSPA+ and LTE (latency\n\
         and uplink), makes its deadlines on 802.11ac only in the replicates\n\
         whose sampled link is fast enough, and sails on the 5G KPIs — but\n\
         scaling the application to the paper's forward estimates (stereo,\n\
         higher resolution) saturates even the 5G uplink KPI (50 Mb/s)\n\
         within one generation of content: 'usage will quickly catch up with\n\
         the capabilities of 5G' (§IV-C), measured. (p95 is over the runs\n\
         that delivered any frame at all.)"
    );
}

// ---------------------------------------------------------------------------
// X5 · Eq. 2 — cache size and prefetching vs per-frame DB overhead
// ---------------------------------------------------------------------------

pub(super) fn sweep_caching(spec: ScenarioSpec) -> Experiment {
    let spec = spec
        .with_param("catalog_objects", ParamValue::Int(20_000))
        .with_param("object_bytes", ParamValue::Int(50_000))
        .with_param("requests", ParamValue::Int(60_000))
        .with_param("zipf_skew", ParamValue::Float(1.2))
        .with_param("repeat_p", ParamValue::Float(0.3))
        // The Table II cloud-over-WiFi network.
        .with_param("uplink_mbps", ParamValue::Float(8.0))
        .with_param("downlink_mbps", ParamValue::Float(20.0))
        .with_param("rtt_ms", ParamValue::Int(36))
        .with_axis(
            "cache_mb",
            [1.0, 10.0, 50.0, 200.0, 1_000.0].into_iter().map(ParamValue::Float).collect(),
        )
        .with_axis("prefetch", vec![ParamValue::Bool(false), ParamValue::Bool(true)]);
    let trial = Box::new(|point: &GridPoint, ctx: &TrialCtx| {
        let prefetch = *point.param("prefetch") == ParamValue::Bool(true);
        let object_bytes = uint(point, "object_bytes");

        // The hit ratio of an LRU device cache under MAR-browser traffic
        // (Zipf popularity + spatial locality): Eq. 2's `x`, measured.
        let mut cache = LruCache::new((float(point, "cache_mb") * 1e6) as u64);
        let mut requests = RequestGenerator::new(
            uint(point, "catalog_objects"),
            float(point, "zipf_skew"),
            float(point, "repeat_p"),
            derive_rng(ctx.seed, "caching.gen"),
        );
        for _ in 0..uint(point, "requests") {
            let id = requests.next_request();
            if !cache.access(id) {
                cache.insert(id, object_bytes);
                if prefetch {
                    // Spatial prefetch: neighbouring objects (adjacent POIs)
                    // ride along with each miss.
                    cache.prefetch(id.saturating_add(1), object_bytes);
                    cache.prefetch(id.saturating_sub(1), object_bytes);
                }
            }
        }
        let hit = cache.hit_ratio();

        let net = NetParams {
            uplink: Bandwidth::from_mbps(float(point, "uplink_mbps")),
            downlink: Bandwidth::from_mbps(float(point, "downlink_mbps")),
            rtt: SimDuration::from_millis(uint(point, "rtt_ms")),
        };
        let db = DbAccess::browser();
        // A browser-style app on a tablet: light local stages (tracking +
        // rendering), the heavy lifting is the DB lookups — Eq. 2's regime.
        let browser_work = FrameWork {
            extraction_gflop: 0.0,
            matching_gflop: 0.0,
            tracking_gflop: 0.05,
            rendering_gflop: 0.15,
        };
        let model = ComputeModel::new(30.0, browser_work).with_db(db);
        let overhead = db_overhead_per_frame(
            db.requests_per_frame,
            hit,
            db.object_bytes,
            net.downlink.as_bps(),
            net.rtt,
        );
        let est = model.p_local_external_db(&DeviceClass::Tablet.spec(), &net, hit);
        let mut report = TrialReport::new();
        report
            .scalar("hit_pct", hit * 100.0)
            .scalar("db_overhead_ms_per_frame", overhead.as_millis_f64())
            .scalar("p_local_db_ms", est.per_frame.as_millis_f64())
            .scalar("feasible_30fps", flag(est.feasible()));
        report
    });
    Experiment { spec, trial, render: render_caching }
}

fn render_caching(points: &[PointSummary]) {
    table(
        "Extension — Eq. 2's x: cache size & prefetch vs per-frame DB overhead (1 GB catalog, 36 ms RTT)",
        each(points),
        &[
            ("Cache MB", Cell::Param("cache_mb", "")),
            ("Prefetch", Cell::Param("prefetch", "")),
            ("Hit ratio", Cell::Pm("hit_pct", 1, "%")),
            ("DB ms/frame", Cell::Pm("db_overhead_ms_per_frame", 1, "")),
            ("P_local+DB ms", Cell::Pm("p_local_db_ms", 1, "")),
            ("30 FPS?", Cell::YesNo("feasible_30fps")),
        ],
    );
    println!(
        "\nReading: with a token cache every frame pays ~1.5 misses ×\n\
         (36 ms RTT + 20 ms transfer) of DB overhead — far over budget. The\n\
         hit ratio climbs with the cached share of the catalog, and spatial\n\
         prefetching pays exactly when the cache is large enough to retain\n\
         the prefetched neighbourhoods (+15 points at the top tier, which is\n\
         what tips the app into 30 FPS feasibility) — the quantitative form\n\
         of the paper's remark that 'caching and prefetching mechanisms can\n\
         reduce the network overhead'."
    );
}
