//! The simulated topologies, one entry point each — shared by the lab's
//! experiments, the benchmark and the integration tests.

use marnet_app::compute::{ComputeModel, FrameWork};
use marnet_app::device::DeviceClass;
use marnet_app::pipeline::MarClient;
use marnet_app::strategy::OffloadStrategy;
use marnet_app::video::{FrameSource, VideoConfig};
use marnet_core::class::{Priority, StreamKind, STREAM_KIND_LABELS};
use marnet_core::config::{ArConfig, OutageConfig};
use marnet_core::congestion::CongestionConfig;
use marnet_core::degradation::QosSignal;
use marnet_core::endpoint::{
    ArReceiver, ArReceiverStats, ArSender, ArSenderStats, Delivered, SenderPathConfig, Submit,
};
use marnet_core::message::ArMessage;
use marnet_core::multipath::{MultipathPolicy, PathRole};
use marnet_core::recovery::RecoveryPolicy;
use marnet_edge::session::RestartableServer;
use marnet_faults::inject::FaultInjector;
use marnet_faults::schedule::FaultSpec;
use marnet_flow::fluid::{FluidNetwork, FluidStats};
use marnet_flow::workload::{BackgroundWorkload, WorkloadConfig, WorkloadStats};
use marnet_radio::coverage::{CoverageActor, CoverageModel};
use marnet_radio::dcf::{submit, Dot11Params, WifiCell, WifiSetRate, WifiStation};
use marnet_radio::profiles::{LinkDirection, RadioTechnology};
use marnet_radio::variance::{
    modulate_links, Ar1LogRate, ConstantRate, MarkovRate, RateProcess, ScriptedRate,
};
use marnet_sim::engine::{Actor, ActorId, Event, QueueStats, SimCtx, Simulator};
use marnet_sim::link::{Bandwidth, LinkId, LinkParams, LossModel};
use marnet_sim::packet::{Packet, Payload, PayloadPool};
use marnet_sim::queue::QueueConfig;
use marnet_sim::rng::derive_rng;
use marnet_sim::stats::Histogram;
use marnet_sim::time::{SimDuration, SimTime};
use marnet_telemetry::{MetricsSnapshot, TelemetryCapture, TelemetryOptions};
use marnet_transport::nic::{Nic, TxPath};
use marnet_transport::probe::{ProbeClient, ProbeServer, ProbeStats};
use marnet_transport::tcp::{
    DataSource, Reno, TcpConfig, TcpFlowStats, TcpReceiver, TcpReceiverStats, TcpSender, Vegas, MSS,
};
use marnet_transport::udp::{UdpSink, UdpSinkStats, UdpSource};
use std::cell::RefCell;
use std::rc::Rc;

// ---------------------------------------------------------------------------
// Telemetry wiring shared by every scenario
// ---------------------------------------------------------------------------

/// The simulator for one run with `telemetry` wired in, plus the snapshot
/// its metrics are written into after the run when metrics are on. With
/// everything off there is no recorder, no link series and no snapshot,
/// so the run is the uninstrumented one.
fn instrumented_sim(
    seed: u64,
    telemetry: &TelemetryOptions,
) -> (Simulator, Option<MetricsSnapshot>) {
    let mut sim = Simulator::new(seed);
    if let Some(cap) = telemetry.trace_capacity {
        sim.enable_flight_recorder(cap);
    }
    if telemetry.metrics {
        sim.enable_metrics();
    }
    (sim, telemetry.metrics.then(MetricsSnapshot::default))
}

/// Collects what the run recorded: the trace, and the metrics snapshot —
/// the scenario's own counters, if it wrote any, plus the link metrics and
/// the event queue's `sim.engine.queue.*` counters added here, after the
/// run.
fn finish_telemetry(sim: &mut Simulator, metrics: Option<MetricsSnapshot>) -> TelemetryCapture {
    let metrics = metrics.map(|mut snap| {
        sim.publish_link_metrics(&mut snap);
        let q = sim.ctx().queue_stats();
        for (name, value) in [
            ("heap_pushes", q.heap_pushes),
            ("lane_pushes", q.lane_pushes),
            ("line_pushes", q.line_pushes),
            ("rearms", q.rearms),
            ("cancels", q.cancels),
            ("peak_depth", q.peak_depth),
        ] {
            snap.count(&format!("sim.engine.queue.{name}"), value);
        }
        snap
    });
    TelemetryCapture { events: sim.take_trace(), metrics }
}

/// Writes an AR sender's per-sub-stream accounting as the counters
/// `core.class.{kind}.{sent,dropped}_{packets,bytes}`, zeros omitted.
fn count_classes(snap: &mut MetricsSnapshot, sender: &ArSenderStats) {
    let u = &sender.usage;
    for (i, kind) in STREAM_KIND_LABELS.iter().enumerate() {
        for (metric, v) in [
            ("sent_packets", u.sent_packets[i]),
            ("sent_bytes", u.sent_bytes[i]),
            ("dropped_packets", u.dropped_packets[i]),
            ("dropped_bytes", u.dropped_bytes[i]),
        ] {
            if v > 0 {
                snap.count(&format!("core.class.{kind}.{metric}"), v);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Table II scenarios
// ---------------------------------------------------------------------------

/// The four measurement scenarios of Table II.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Table2Scenario {
    /// Server in the same room, direct WiFi: measured 8 ms.
    LocalServerWifi,
    /// Google Cloud (Taiwan) over campus WiFi: measured 36 ms.
    CloudServerWifi,
    /// University server behind the campus interconnect: measured 72 ms.
    UniversityServerWifi,
    /// Google Cloud over LTE: measured 120 ms.
    CloudServerLte,
}

impl Table2Scenario {
    /// All four, in table order.
    pub const ALL: [Table2Scenario; 4] = [
        Table2Scenario::LocalServerWifi,
        Table2Scenario::CloudServerWifi,
        Table2Scenario::UniversityServerWifi,
        Table2Scenario::CloudServerLte,
    ];

    /// The platform / connection labels of the table row.
    pub fn labels(self) -> (&'static str, &'static str, u64) {
        match self {
            Table2Scenario::LocalServerWifi => ("Local Server", "WiFi", 8),
            Table2Scenario::CloudServerWifi => ("Cloud Server", "WiFi", 36),
            Table2Scenario::UniversityServerWifi => ("University Server", "WiFi", 72),
            Table2Scenario::CloudServerLte => ("Cloud Server", "LTE", 120),
        }
    }

    /// Per-hop one-way delays of the path, client → server.
    ///
    /// Each scenario is a chain of hops; the middleboxes of the university
    /// path (Eduroam↔campus interconnect, firewalls — the paper's
    /// explanation for the surprising 72 ms) appear as extra hops.
    fn hops(self) -> Vec<(Bandwidth, SimDuration)> {
        match self {
            // Personal AP in the same room.
            Table2Scenario::LocalServerWifi => {
                vec![(Bandwidth::from_mbps(100.0), SimDuration::from_micros(3950))]
            }
            // Campus WiFi (Eduroam) + metro/undersea hop to Taiwan.
            Table2Scenario::CloudServerWifi => vec![
                (Bandwidth::from_mbps(40.0), SimDuration::from_micros(4900)),
                (Bandwidth::from_gbps(1.0), SimDuration::from_millis(13)),
            ],
            // Campus WiFi + Eduroam↔university interconnect with firewalls
            // and a congested segment: short distance, long delay.
            Table2Scenario::UniversityServerWifi => vec![
                (Bandwidth::from_mbps(40.0), SimDuration::from_micros(4900)),
                (Bandwidth::from_mbps(200.0), SimDuration::from_millis(12)), // firewall chain
                (Bandwidth::from_mbps(100.0), SimDuration::from_millis(19)), // congested segment
            ],
            // LTE RAN+core, then the same WAN hop to the cloud.
            Table2Scenario::CloudServerLte => vec![
                (Bandwidth::from_mbps(10.0), SimDuration::from_micros(46_500)),
                (Bandwidth::from_gbps(1.0), SimDuration::from_millis(13)),
            ],
        }
    }
}

/// A forwarding hop: receives on one side, retransmits on the other.
#[derive(Debug)]
struct Forwarder {
    next: marnet_sim::link::LinkId,
}

impl Actor for Forwarder {
    fn on_event(&mut self, ctx: &mut SimCtx, ev: Event) {
        if let Event::Packet { packet, .. } = ev {
            ctx.transmit(self.next, packet);
        }
    }
}

/// Runs one Table II scenario: `probes` offload transactions of
/// `request_bytes` up / `response_bytes` down; returns the RTT samples,
/// the number of simulator events processed and whatever `telemetry`
/// asked to capture.
///
/// With telemetry disabled the simulator's trace hooks stay on the
/// disabled branch and no snapshot is made, so results are
/// byte-identical to an uninstrumented run — as for every scenario below.
pub fn run_table2_instrumented(
    scenario: Table2Scenario,
    probes: u64,
    request_bytes: u32,
    response_bytes: u32,
    seed: u64,
    telemetry: &TelemetryOptions,
) -> (Rc<RefCell<ProbeStats>>, u64, TelemetryCapture) {
    let (mut sim, mut metrics) = instrumented_sim(seed, telemetry);
    let hops = scenario.hops();
    let n = hops.len();
    // Actors: client, (n-1) forwarders each way, server.
    let client = sim.reserve_actor();
    let server = sim.reserve_actor();
    let fwd_nodes: Vec<ActorId> = (0..n.saturating_sub(1)).map(|_| sim.reserve_actor()).collect();
    let rev_nodes: Vec<ActorId> = (0..n.saturating_sub(1)).map(|_| sim.reserve_actor()).collect();

    // Forward chain client → server.
    let mut fwd_links = Vec::new();
    for (i, (rate, delay)) in hops.iter().enumerate() {
        let from = if i == 0 { client } else { fwd_nodes[i - 1] };
        let to = if i == n - 1 { server } else { fwd_nodes[i] };
        fwd_links.push(sim.add_link(from, to, LinkParams::new(*rate, *delay)));
    }
    // Reverse chain server → client (same hops mirrored).
    let mut rev_links = Vec::new();
    for (i, (rate, delay)) in hops.iter().enumerate().rev() {
        let from = if i == n - 1 { server } else { rev_nodes[i] };
        let to = if i == 0 { client } else { rev_nodes[i - 1] };
        rev_links.push(sim.add_link(from, to, LinkParams::new(*rate, *delay)));
    }
    for (i, &node) in fwd_nodes.iter().enumerate() {
        sim.install_actor(node, Forwarder { next: fwd_links[i + 1] });
    }
    // rev_links was built from the far end; rev_nodes[i] forwards toward
    // the client on the mirrored link of hop i.
    for (i, &node) in rev_nodes.iter().enumerate() {
        let link_towards_client = rev_links[n - 1 - i];
        sim.install_actor(node, Forwarder { next: link_towards_client });
    }

    let mut probe = ProbeClient::new(
        1,
        TxPath::Link(fwd_links[0]),
        request_bytes,
        SimDuration::from_millis(50),
        probes,
    );
    if metrics.is_some() {
        probe = probe.with_rtt_series();
    }
    let stats = probe.stats();
    sim.install_actor(client, probe);
    sim.install_actor(server, ProbeServer::new(1, TxPath::Link(rev_links[0]), response_bytes));
    let events = sim.run_until(SimTime::from_secs(probes / 20 + 30));

    if let (Some(snap), Some(series)) = (&mut metrics, &stats.borrow().rtt_series) {
        snap.series.insert("transport.probe.table2.rtt_ms".into(), series.to_buckets());
    }
    let capture = finish_telemetry(&mut sim, metrics);
    (stats, events, capture)
}

// ---------------------------------------------------------------------------
// Fig. 2: the 802.11 performance anomaly
// ---------------------------------------------------------------------------

/// Saturating traffic source for one station of a [`WifiCell`].
#[derive(Debug)]
struct Saturator {
    cell: ActorId,
    station: usize,
    frame_bytes: u32,
}

impl Actor for Saturator {
    fn on_event(&mut self, ctx: &mut SimCtx, ev: Event) {
        if matches!(ev, Event::Start | Event::Timer { .. }) {
            for _ in 0..4 {
                let id = ctx.next_packet_id();
                let pkt = Packet::new(id, self.station as u64, self.frame_bytes, ctx.now());
                ctx.send_message(self.cell, submit(self.station, pkt));
            }
            ctx.schedule_timer(SimDuration::from_millis(1), 0);
        }
    }
}

/// Changes one station's PHY rate on schedule (walking between zones).
#[derive(Debug)]
struct Walker {
    cell: ActorId,
    station: usize,
    schedule: Vec<(SimTime, f64)>,
    next: usize,
}

impl Actor for Walker {
    fn on_event(&mut self, ctx: &mut SimCtx, ev: Event) {
        if matches!(ev, Event::Start | Event::Timer { .. }) {
            while let Some(&(at, rate)) = self.schedule.get(self.next) {
                if at > ctx.now() {
                    ctx.schedule_timer(at.saturating_since(ctx.now()), 0);
                    break;
                }
                let set = WifiSetRate { station: self.station, phy_rate_mbps: rate };
                ctx.send_message(self.cell, Payload::new(set));
                self.next += 1;
            }
        }
    }
}

/// Outcome of the Fig. 2 run.
#[derive(Debug)]
pub struct Fig2Outcome {
    /// What the cell delivered for station A, then B (the sinks' `meter`s
    /// hold the throughput timelines).
    pub stations: [Rc<RefCell<UdpSinkStats>>; 2],
}

/// Fig. 2: stations A and B saturate one 802.11g cell with `frame_bytes`
/// frames. A stays at `a_rate_mbps`; B spends `phase_secs` in each of
/// `b_zones_mbps` in turn (walking outward), so the run lasts
/// `b_zones_mbps.len() × phase_secs`.
pub fn run_fig2(
    a_rate_mbps: f64,
    b_zones_mbps: &[f64],
    frame_bytes: u32,
    phase_secs: u64,
    seed: u64,
    telemetry: &TelemetryOptions,
) -> (Fig2Outcome, u64, TelemetryCapture) {
    let (mut sim, metrics) = instrumented_sim(seed, telemetry);
    let cell = sim.reserve_actor();
    let wired = LinkParams::new(Bandwidth::from_gbps(1.0), SimDuration::from_micros(100))
        .with_queue(QueueConfig::DropTail { cap_packets: 10_000 });
    // One wired hop and one sink per station (a frame's flow id is its
    // station index).
    let mut attach = |station: u64| {
        let sink = UdpSink::new(station);
        let stats = sink.stats();
        let sink = sim.add_actor(sink);
        (sim.add_link(cell, sink, wired.clone()), stats)
    };
    let (out_a, a) = attach(0);
    let (out_b, b) = attach(1);
    let b_start = b_zones_mbps.first().copied().unwrap_or(a_rate_mbps);
    sim.install_actor(
        cell,
        WifiCell::new(
            Dot11Params::dot11g(),
            vec![
                WifiStation { phy_rate_mbps: a_rate_mbps, out: out_a },
                WifiStation { phy_rate_mbps: b_start, out: out_b },
            ],
        ),
    );
    sim.add_actor(Saturator { cell, station: 0, frame_bytes });
    sim.add_actor(Saturator { cell, station: 1, frame_bytes });
    let schedule = (1u64..)
        .zip(b_zones_mbps.iter().skip(1))
        .map(|(phase, &rate)| (SimTime::from_secs(phase * phase_secs), rate))
        .collect();
    sim.add_actor(Walker { cell, station: 1, schedule, next: 0 });
    let events = sim.run_until(SimTime::from_secs(b_zones_mbps.len() as u64 * phase_secs));
    let capture = finish_telemetry(&mut sim, metrics);
    (Fig2Outcome { stations: [a, b] }, events, capture)
}

// ---------------------------------------------------------------------------
// Fig. 3: antiparallel TCP on an asymmetric link
// ---------------------------------------------------------------------------

/// Outcome of the Fig. 3 experiment.
#[derive(Debug)]
pub struct Fig3Outcome {
    /// Download goodput stats (its meter holds the timeline).
    pub download: Rc<RefCell<TcpReceiverStats>>,
    /// Upload goodput stats, one per upload flow.
    pub uploads: Vec<Rc<RefCell<TcpReceiverStats>>>,
    /// When each upload started, seconds.
    pub upload_starts: Vec<f64>,
}

/// Builds the Fig. 3 topology: an asymmetric access link (`down_mbps` /
/// `up_mbps`, oversized uplink buffer) carrying one long download and
/// `uploads` staggered uploads, and runs it for `secs`.
pub fn run_fig3(
    down_mbps: f64,
    up_mbps: f64,
    uplink_buffer: usize,
    uploads: usize,
    secs: u64,
    seed: u64,
    telemetry: &TelemetryOptions,
) -> (Fig3Outcome, u64, TelemetryCapture) {
    let (mut sim, metrics) = instrumented_sim(seed, telemetry);
    let cpe = sim.reserve_actor(); // client-side gateway
    let bras = sim.reserve_actor(); // ISP-side gateway
    let (down_params, up_params) = marnet_radio::asymmetry::asymmetric_pair(
        down_mbps,
        down_mbps / up_mbps,
        SimDuration::from_millis(15),
        uplink_buffer,
    );
    let down = sim.add_link(bras, cpe, down_params);
    let up = sim.add_link(cpe, bras, up_params);

    let mut client_nic = Nic::new(up);
    let mut isp_nic = Nic::new(down);

    // Flow 1: the download (sender on the ISP side).
    let dl_sender = sim.reserve_actor();
    let dl_receiver = sim.reserve_actor();
    let s = TcpSender::new(1, TxPath::Nic(bras), TcpConfig::default(), Box::new(Reno::new(MSS)));
    sim.install_actor(dl_sender, s);
    let r = TcpReceiver::new(1, TxPath::Nic(cpe));
    let download = r.stats();
    sim.install_actor(dl_receiver, r);
    isp_nic.add_route(1, dl_sender);
    client_nic.add_route(1, dl_receiver);

    // Uploads: staggered starts, client side.
    let mut upload_stats = Vec::new();
    let mut upload_starts = Vec::new();
    for u in 0..uploads {
        let conn = 100 + u as u64;
        let start = (secs as f64) * (u as f64 + 1.0) / (uploads as f64 + 2.0);
        upload_starts.push(start);
        let ul_sender = sim.reserve_actor();
        let ul_receiver = sim.reserve_actor();
        let cfg = TcpConfig {
            data: DataSource::Unlimited,
            start_at: SimTime::from_secs_f64(start),
            ..TcpConfig::default()
        };
        let s = TcpSender::new(conn, TxPath::Nic(cpe), cfg, Box::new(Reno::new(MSS)));
        sim.install_actor(ul_sender, s);
        let r = TcpReceiver::new(conn, TxPath::Nic(bras));
        upload_stats.push(r.stats());
        sim.install_actor(ul_receiver, r);
        client_nic.add_route(conn, ul_sender);
        isp_nic.add_route(conn, ul_receiver);
    }

    sim.install_actor(cpe, client_nic);
    sim.install_actor(bras, isp_nic);
    let events = sim.run_until(SimTime::from_secs(secs));
    let capture = finish_telemetry(&mut sim, metrics);
    (Fig3Outcome { download, uploads: upload_stats, upload_starts }, events, capture)
}

// ---------------------------------------------------------------------------
// Fairness: AR protocol vs TCP on a shared bottleneck (E14)
// ---------------------------------------------------------------------------

/// The flow that competes with the Reno flows.
#[derive(Debug, Clone)]
pub enum Contender {
    /// The AR protocol under this configuration (the sweep's
    /// [`fairness_config`], or a `marnet-lab train` candidate).
    Ar(ArConfig),
    /// One textbook TCP Vegas flow.
    Vegas,
}

/// Outcome of a fairness run.
#[derive(Debug)]
pub struct FairnessOutcome {
    /// Bytes the contender got to the far end: the AR receiver's
    /// `received_bytes`, or the Vegas receiver's goodput.
    pub contender_bytes: u64,
    /// AR sender stats; `None` for a Vegas contender.
    pub ar_sender: Option<Rc<RefCell<ArSenderStats>>>,
    /// Per-Reno-flow receiver stats.
    pub tcp: Vec<Rc<RefCell<TcpReceiverStats>>>,
}

/// A 30 FPS video feed that never adapts: one droppable interframe of
/// `frame_bytes` with a `deadline` per tick, plus 100 B of critical
/// metadata when `metadata` is set.
#[derive(Debug)]
struct VideoFeed {
    sender: ActorId,
    next_id: u64,
    frame_bytes: u32,
    deadline: SimDuration,
    metadata: bool,
}

impl VideoFeed {
    /// A saturating feed — 12 KB frames + metadata ≈ 2.9 Mb/s offered,
    /// more than the E12/E14 links fit, so the protocol's congestion
    /// control decides the rate.
    fn greedy(sender: ActorId) -> Self {
        VideoFeed {
            sender,
            next_id: 0,
            frame_bytes: 12_000,
            deadline: SimDuration::from_millis(200),
            metadata: true,
        }
    }
}

impl Actor for VideoFeed {
    fn on_event(&mut self, ctx: &mut SimCtx, ev: Event) {
        if matches!(ev, Event::Start | Event::Timer { .. }) {
            let now = ctx.now();
            let frame = ArMessage::new(self.next_id, StreamKind::VideoInter, self.frame_bytes, now)
                .with_deadline(now + self.deadline);
            ctx.send_message(self.sender, Payload::new(Submit(frame)));
            self.next_id += 1;
            if self.metadata {
                let meta = ArMessage::new(self.next_id, StreamKind::Metadata, 100, now);
                ctx.send_message(self.sender, Payload::new(Submit(meta)));
                self.next_id += 1;
            }
            ctx.schedule_timer(SimDuration::from_millis(33), 0);
        }
    }
}

/// The AR configuration of the E14 sweep: `react_to_loss` toggles the
/// protocol's loss-based fairness fallback (§VI-B's trade-off knob),
/// `latency_threshold` is the delay-congestion trigger, and the rate is
/// capped at the bottleneck.
pub fn fairness_config(
    bottleneck_mbps: f64,
    react_to_loss: bool,
    latency_threshold: SimDuration,
) -> ArConfig {
    ArConfig {
        congestion: CongestionConfig {
            latency_threshold,
            react_to_loss,
            max_rate: bottleneck_mbps * 1e6,
            ..CongestionConfig::default()
        },
        ..ArConfig::default()
    }
}

/// Runs `contender` against `n_tcp` Reno flows over a shared bottleneck.
pub fn run_fairness_config_instrumented(
    bottleneck_mbps: f64,
    n_tcp: usize,
    contender: &Contender,
    secs: u64,
    seed: u64,
    telemetry: &TelemetryOptions,
) -> (FairnessOutcome, u64, TelemetryCapture) {
    let (mut sim, metrics) = instrumented_sim(seed, telemetry);
    let left = sim.reserve_actor();
    let right = sim.reserve_actor();
    let params =
        LinkParams::new(Bandwidth::from_mbps(bottleneck_mbps), SimDuration::from_millis(10))
            .with_queue(QueueConfig::DropTail { cap_packets: 100 });
    let fwd = sim.add_link(left, right, params.clone());
    let rev = sim.add_link(right, left, params);
    let mut left_nic = Nic::new(fwd);
    let mut right_nic = Nic::new(rev);

    // The contender: flow 1, starting at t = 0.
    let (contender_bytes, ar_sender): (Box<dyn Fn() -> u64>, _) = match contender {
        Contender::Ar(cfg) => {
            let ar_snd = sim.reserve_actor();
            let ar_rcv = sim.reserve_actor();
            let app = sim.reserve_actor();
            let sender = ArSender::new(
                1,
                cfg.clone(),
                vec![SenderPathConfig {
                    role: PathRole::Wifi,
                    tx: TxPath::Nic(left),
                    link: Some(fwd),
                }],
            );
            let ar_sender = sender.stats();
            sim.install_actor(ar_snd, sender);
            let receiver = ArReceiver::new(1, vec![TxPath::Nic(right)]);
            let ar = receiver.stats();
            sim.install_actor(ar_rcv, receiver);
            sim.install_actor(app, VideoFeed::greedy(ar_snd));
            left_nic.add_route(1, ar_snd);
            right_nic.add_route(1, ar_rcv);
            (Box::new(move || ar.borrow().received_bytes), Some(ar_sender))
        }
        Contender::Vegas => {
            let s_id = sim.reserve_actor();
            let r_id = sim.reserve_actor();
            let vegas = Box::new(Vegas::new(MSS));
            sim.install_actor(
                s_id,
                TcpSender::new(1, TxPath::Nic(left), TcpConfig::default(), vegas),
            );
            let r = TcpReceiver::new(1, TxPath::Nic(right));
            let stats = r.stats();
            sim.install_actor(r_id, r);
            left_nic.add_route(1, s_id);
            right_nic.add_route(1, r_id);
            (Box::new(move || stats.borrow().goodput_bytes), None)
        }
    };

    // TCP competitors. Each flow starts at a distinct prime-microsecond
    // offset: independent hosts never transmit in the same nanosecond, and
    // a shared t = 0 burst would make the bottleneck's queue order — and
    // with it each flow's ack-clock phase — an artifact of the event
    // queue's tie-break instead of the model (`marnet-lab racecheck`
    // perturbs exactly that order and flagged the phase-locked variant).
    let mut tcp = Vec::new();
    for i in 0..n_tcp {
        let conn = 10 + i as u64;
        let s_id = sim.reserve_actor();
        let r_id = sim.reserve_actor();
        let cfg_tcp = TcpConfig {
            start_at: SimTime::from_micros(137 * (i as u64 + 1)),
            ..TcpConfig::default()
        };
        let s = TcpSender::new(conn, TxPath::Nic(left), cfg_tcp, Box::new(Reno::new(MSS)));
        sim.install_actor(s_id, s);
        let r = TcpReceiver::new(conn, TxPath::Nic(right));
        tcp.push(r.stats());
        sim.install_actor(r_id, r);
        left_nic.add_route(conn, s_id);
        right_nic.add_route(conn, r_id);
    }

    sim.install_actor(left, left_nic);
    sim.install_actor(right, right_nic);
    let events = sim.run_until(SimTime::from_secs(secs));
    let capture = finish_telemetry(&mut sim, metrics);
    (FairnessOutcome { contender_bytes: contender_bytes(), ar_sender, tcp }, events, capture)
}

// ---------------------------------------------------------------------------
// Queueing policies on the uplink (E13)
// ---------------------------------------------------------------------------

/// Outcome of a queueing-policy run.
#[derive(Debug)]
pub struct QueueingOutcome {
    /// Per-MAR-stream sink stats (one-way latency histograms), in flow
    /// order.
    pub mar: Vec<Rc<RefCell<UdpSinkStats>>>,
    /// Per-bulk-upload receiver stats, in flow order.
    pub bulk: Vec<Rc<RefCell<TcpReceiverStats>>>,
    /// What the event queue did: heap vs. same-instant-lane vs. delay-line
    /// insertions, peak depth (diagnostics, in no artifact).
    pub queue: QueueStats,
    /// The uplink's and the downlink's queue occupancy `(packets, bytes)`
    /// at the end of the run (diagnostics, in no artifact).
    pub queue_len: [(usize, u64); 2],
}

/// `n_mar` paced 1.5 Mb/s MAR streams and `n_bulk` greedy TCP uploads
/// share a `up_mbps` uplink governed by `queue`; returns every flow's
/// outcome. With `(1, 1)` this is the paper's E13 household; larger
/// counts give the multi-tenant uplink E17-style scenarios reuse.
#[allow(clippy::too_many_arguments)]
pub fn run_queueing_instrumented(
    up_mbps: f64,
    queue: QueueConfig,
    mar_prio: u8,
    n_mar: usize,
    n_bulk: usize,
    secs: u64,
    seed: u64,
    telemetry: &TelemetryOptions,
) -> (QueueingOutcome, u64, TelemetryCapture) {
    let (mut sim, metrics) = instrumented_sim(seed, telemetry);
    let cpe = sim.reserve_actor();
    let isp = sim.reserve_actor();
    let up = sim.add_link(
        cpe,
        isp,
        LinkParams::new(Bandwidth::from_mbps(up_mbps), SimDuration::from_millis(10))
            .with_queue(queue),
    );
    let down = sim.add_link(
        isp,
        cpe,
        LinkParams::new(Bandwidth::from_mbps(up_mbps * 4.0), SimDuration::from_millis(10)),
    );
    let mut cpe_nic = Nic::new(up);
    let mut isp_nic = Nic::new(down);

    // MAR streams: 1200-byte packets at 1.5 Mb/s each, flows 1..=n_mar.
    let mut mar = Vec::new();
    for i in 0..n_mar {
        let flow = 1 + i as u64;
        let mar_src = sim.reserve_actor();
        let mar_sink_id = sim.reserve_actor();
        sim.install_actor(
            mar_src,
            UdpSource::with_rate_mbps(flow, TxPath::Nic(cpe), 1200, 1.5).with_prio(mar_prio),
        );
        let sink = UdpSink::new(flow);
        mar.push(sink.stats());
        sim.install_actor(mar_sink_id, sink);
        isp_nic.add_route(flow, mar_sink_id);
    }

    // Bulk TCP uploads, classified into the lowest band.
    let mut bulk = Vec::new();
    for j in 0..n_bulk {
        let flow = 1 + n_mar as u64 + j as u64;
        let bulk_s = sim.reserve_actor();
        let bulk_r = sim.reserve_actor();
        let bulk_cfg = TcpConfig { prio: 3, ..TcpConfig::default() };
        let s = TcpSender::new(flow, TxPath::Nic(cpe), bulk_cfg, Box::new(Reno::new(MSS)));
        sim.install_actor(bulk_s, s);
        let r = TcpReceiver::new(flow, TxPath::Nic(isp));
        bulk.push(r.stats());
        sim.install_actor(bulk_r, r);
        cpe_nic.add_route(flow, bulk_s);
        isp_nic.add_route(flow, bulk_r);
    }

    sim.install_actor(cpe, cpe_nic);
    sim.install_actor(isp, isp_nic);
    let events = sim.run_until(SimTime::from_secs(secs));
    let capture = finish_telemetry(&mut sim, metrics);
    let queue = sim.ctx().queue_stats();
    let queue_len = [up, down].map(|link| sim.ctx().link_queue_len(link));
    (QueueingOutcome { mar, bulk, queue, queue_len }, events, capture)
}

// ---------------------------------------------------------------------------
// Loss recovery (E11)
// ---------------------------------------------------------------------------

/// The seven §VI-C recovery mechanisms of the E11 sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryMechanism {
    /// No recovery at all: what the network drops stays dropped.
    None,
    /// Deadline-gated ARQ (retransmit only if it can still arrive in budget).
    ArqGated,
    /// Unconditional ARQ, deadline or not.
    ArqAlways,
    /// XOR FEC over groups of 4.
    FecK4,
    /// XOR FEC over groups of 8.
    FecK8,
    /// Deadline-gated ARQ plus XOR FEC over groups of 8.
    ArqFecK8,
    /// Blind duplication over a second path.
    Duplicate,
}

impl RecoveryMechanism {
    /// All seven, in table order.
    pub const ALL: [RecoveryMechanism; 7] = [
        RecoveryMechanism::None,
        RecoveryMechanism::ArqGated,
        RecoveryMechanism::ArqAlways,
        RecoveryMechanism::FecK4,
        RecoveryMechanism::FecK8,
        RecoveryMechanism::ArqFecK8,
        RecoveryMechanism::Duplicate,
    ];

    /// The stable label used in tables and artifacts.
    pub fn label(self) -> &'static str {
        match self {
            RecoveryMechanism::None => "none",
            RecoveryMechanism::ArqGated => "arq-gated",
            RecoveryMechanism::ArqAlways => "arq-always",
            RecoveryMechanism::FecK4 => "fec-k4",
            RecoveryMechanism::FecK8 => "fec-k8",
            RecoveryMechanism::ArqFecK8 => "arq+fec-k8",
            RecoveryMechanism::Duplicate => "duplicate",
        }
    }

    /// The AR configuration that runs this mechanism: the default config
    /// with the recovery policy, FEC group and duplication set.
    pub fn config(self) -> ArConfig {
        let off = RecoveryPolicy { enabled: false, ..Default::default() };
        let (recovery, fec_group, duplicate_recovery) = match self {
            RecoveryMechanism::None => (off, None, false),
            RecoveryMechanism::ArqGated => (RecoveryPolicy::default(), None, false),
            RecoveryMechanism::ArqAlways => {
                (RecoveryPolicy { deadline_gated: false, ..Default::default() }, None, false)
            }
            RecoveryMechanism::FecK4 => (off, Some(4), false),
            RecoveryMechanism::FecK8 => (off, Some(8), false),
            RecoveryMechanism::ArqFecK8 => (RecoveryPolicy::default(), Some(8), false),
            RecoveryMechanism::Duplicate => (off, None, true),
        };
        ArConfig { recovery, fec_group, duplicate_recovery, ..ArConfig::default() }
    }
}

/// Outcome of one E11 recovery run, as percentages of offered frames.
#[derive(Debug, Clone, Copy)]
pub struct RecoveryOutcome {
    /// Frames that arrived within the 75 ms budget, % of offered.
    pub delivered_in_budget_pct: f64,
    /// Frames that arrived at all, % of offered.
    pub delivered_total_pct: f64,
    /// Bytes on the wire beyond the goodput, %.
    pub overhead_pct: f64,
}

/// 30 FPS stream of recovery-class reference-frame-like messages.
///
/// With `droppable` the frames carry [`Priority::DropNotDelay`] — video is
/// only useful on time, so the degradation scheduler may shed stale frames
/// — while keeping the recovery class (losses are NACKed and repaired
/// within the deadline). The recovery scenarios (§VI-C) keep the default
/// `Priority::Highest` so every frame queues.
#[derive(Debug)]
struct RefStream {
    sender: ActorId,
    next_id: u64,
    bytes: u32,
    droppable: bool,
    /// Recycled [`Submit`] payloads — one frame per 33 ms tick, zero
    /// steady-state allocations.
    submit_pool: PayloadPool<Submit>,
}

impl RefStream {
    fn new(sender: ActorId, bytes: u32, droppable: bool) -> Self {
        RefStream { sender, next_id: 0, bytes, droppable, submit_pool: PayloadPool::new() }
    }
}

impl Actor for RefStream {
    fn on_event(&mut self, ctx: &mut SimCtx, ev: Event) {
        if matches!(ev, Event::Start | Event::Timer { .. }) {
            let now = ctx.now();
            let mut m = ArMessage::new(self.next_id, StreamKind::VideoReference, self.bytes, now)
                .with_deadline(now + SimDuration::from_millis(75));
            if self.droppable {
                m = m.with_priority(Priority::DropNotDelay(0));
            }
            self.next_id += 1;
            let m = &m;
            let payload = self.submit_pool.prepare(|| Submit(m.clone()), |s| s.0 = m.clone());
            ctx.send_message(self.sender, payload);
            ctx.schedule_timer(SimDuration::from_millis(33), 0);
        }
    }
}

/// [`run_recovery_config_instrumented`] under `mechanism`'s
/// [`RecoveryMechanism::config`] — the form the E11 sweep and the perf
/// matrix call.
pub fn run_recovery_instrumented(
    rtt_ms: u64,
    loss: f64,
    mechanism: RecoveryMechanism,
    secs: u64,
    seed: u64,
    telemetry: &TelemetryOptions,
) -> (RecoveryOutcome, u64, TelemetryCapture) {
    run_recovery_config_instrumented(rtt_ms, loss, &mechanism.config(), secs, seed, telemetry)
}

/// Runs one §VI-C recovery configuration: 30 FPS of 6 KB reference frames
/// with a 75 ms deadline over a lossy `rtt_ms` path, recovered as `cfg`
/// says, for `secs` of virtual time. The second (duplication) path is
/// installed when the config duplicates the recovery class.
pub fn run_recovery_config_instrumented(
    rtt_ms: u64,
    loss: f64,
    cfg: &ArConfig,
    secs: u64,
    seed: u64,
    telemetry: &TelemetryOptions,
) -> (RecoveryOutcome, u64, TelemetryCapture) {
    let duplicate = cfg.duplicate_recovery;
    let (mut sim, mut metrics) = instrumented_sim(seed, telemetry);
    let snd = sim.reserve_actor();
    let rcv = sim.reserve_actor();
    let one_way = SimDuration::from_millis_f64(rtt_ms as f64 / 2.0);
    let up = sim.add_link(
        snd,
        rcv,
        LinkParams::new(Bandwidth::from_mbps(20.0), one_way)
            .with_loss(LossModel::Bernoulli { p: loss }),
    );
    let up2 = sim.add_link(
        snd,
        rcv,
        LinkParams::new(Bandwidth::from_mbps(20.0), one_way)
            .with_loss(LossModel::Bernoulli { p: loss }),
    );
    let down = sim.add_link(rcv, snd, LinkParams::new(Bandwidth::from_mbps(20.0), one_way));
    let mut paths =
        vec![SenderPathConfig { role: PathRole::Wifi, tx: TxPath::Link(up), link: Some(up) }];
    if duplicate {
        paths.push(SenderPathConfig {
            role: PathRole::Cellular,
            tx: TxPath::Link(up2),
            link: Some(up2),
        });
    }
    let sender = ArSender::new(1, cfg.clone(), paths);
    let sstats = sender.stats();
    sim.install_actor(snd, sender);
    let receiver = ArReceiver::new(1, vec![TxPath::Link(down), TxPath::Link(down)]);
    let rstats = receiver.stats();
    sim.install_actor(rcv, receiver);
    sim.add_actor(RefStream::new(snd, 6_000, false));
    let events = sim.run_until(SimTime::from_secs(secs));

    let offered = (secs * 30) as f64;
    let r = rstats.borrow();
    let s = sstats.borrow();
    let ks = r.by_kind.get(&StreamKind::VideoReference);
    let delivered = ks.map_or(0, |k| k.delivered) as f64;
    let hits = ks.map_or(0, |k| k.deadline_hits) as f64;
    let goodput_bytes = delivered * 6_000.0;
    let sent_bytes: u64 = s.total_sent_bytes();
    let outcome = RecoveryOutcome {
        delivered_in_budget_pct: hits / offered * 100.0,
        delivered_total_pct: delivered / offered * 100.0,
        overhead_pct: (sent_bytes as f64 / goodput_bytes.max(1.0) - 1.0) * 100.0,
    };
    if let Some(snap) = &mut metrics {
        count_classes(snap, &s);
        snap.count("core.recovery.fec_recovered", r.fec_recovered);
        snap.count("core.recovery.duplicates", r.duplicates);
        snap.count("core.recovery.abandoned_holes", r.abandoned_holes);
    }
    let capture = finish_telemetry(&mut sim, metrics);
    (outcome, events, capture)
}

// ---------------------------------------------------------------------------
// Fault injection and recovery SLOs (marnet-faults)
// ---------------------------------------------------------------------------

/// Which fault the chaos scenario injects two seconds into the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultScenario {
    /// Both directions of the access link go dark (AP power loss): the
    /// sender's watchdog sees every path down immediately.
    LinkOutage,
    /// The edge server process dies with its session state while the link
    /// stays up: only feedback silence reveals the failure, and recovering
    /// requires re-establishing the session with the restarted peer's new
    /// epoch — the hardened stack's resync; the baseline keeps talking
    /// into the dead session and never recovers.
    EdgeCrash,
    /// The edge server reboots but keeps its session state (a warm
    /// restart): no epoch bump, so the half-second sequence gap is NACKed
    /// at the old epoch and abandoned once the deadlines have passed.
    EdgeReboot,
}

impl FaultScenario {
    /// All three, in artifact order.
    pub const ALL: [FaultScenario; 3] =
        [FaultScenario::LinkOutage, FaultScenario::EdgeCrash, FaultScenario::EdgeReboot];

    /// The stable label used in tables and artifacts.
    pub fn label(self) -> &'static str {
        match self {
            FaultScenario::LinkOutage => "link-outage",
            FaultScenario::EdgeCrash => "edge-crash",
            FaultScenario::EdgeReboot => "edge-reboot",
        }
    }

    /// Parses a [`FaultScenario::label`] back.
    pub fn from_label(label: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|s| s.label() == label)
    }

    /// The protocol stack of one arm of the fault sweep. The baseline arm
    /// is the pre-hardening stack: ARQ without the deadline gate, no
    /// watchdog, no outage-aware degradation and no session
    /// re-establishment — after a cold edge restart it keeps stamping the
    /// dead epoch, which the restarted peer discards. The hardened arm
    /// gates retransmissions on the deadline and runs the watchdog / outage
    /// degradation / probe / resync loop ([`OutageConfig::hardened`]).
    pub fn stack_config(hardened: bool) -> ArConfig {
        let (recovery, outage) = if hardened {
            (RecoveryPolicy::default(), OutageConfig::hardened())
        } else {
            (
                RecoveryPolicy { deadline_gated: false, ..Default::default() },
                OutageConfig::default(),
            )
        };
        ArConfig { recovery, outage, fec_group: None, ..ArConfig::default() }
    }
}

/// Outcome of one fault-injection run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultsOutcome {
    /// Frames that arrived within the 75 ms budget, % of offered (whole run).
    pub delivered_in_budget_pct: f64,
    /// In-budget % over the stress window (fault onset → onset + 1.5 s) —
    /// the QoE-under-fault figure.
    pub qoe_under_fault_pct: f64,
    /// Time from the fault clearing to the first in-budget delivery at or
    /// after the clear — the time-to-QoE-restored SLO. `None` when QoE
    /// never recovers before the horizon (censored).
    pub recovery_ms: Option<f64>,
    /// Retransmissions performed inside the fault window.
    pub retransmits_during_fault: u64,
    /// Retransmissions over the whole run.
    pub retransmits: u64,
    /// Outages declared by the sender's watchdog.
    pub outages_detected: u64,
    /// Recovery probes sent while the peer was unreachable.
    pub recovery_probes: u64,
    /// Session re-establishments after an edge restart.
    pub session_resyncs: u64,
}

/// Shared observations of the [`QoeMonitor`].
#[derive(Debug, Default)]
struct QoeLog {
    /// First in-budget delivery at or after the fault clears.
    restored_at: Option<SimTime>,
    /// In-budget deliveries of frames created inside the stress window.
    window_hits: u64,
}

/// Delivery target that watches for QoE restoration after the fault.
#[derive(Debug)]
struct QoeMonitor {
    fault_at: SimTime,
    fault_end: SimTime,
    window_end: SimTime,
    log: Rc<RefCell<QoeLog>>,
}

impl Actor for QoeMonitor {
    fn on_event(&mut self, ctx: &mut SimCtx, ev: Event) {
        if let Event::Message { msg, .. } = ev {
            if let Some(d) = msg.map_ref(|d: &Delivered| *d) {
                if !d.within_deadline {
                    return;
                }
                let mut log = self.log.borrow_mut();
                if d.created >= self.fault_at && d.created < self.window_end {
                    log.window_hits += 1;
                }
                // An in-budget frame reaching the user after the fault
                // cleared IS restored QoE — including a frame created
                // during the outage that the scheduler retained (nothing
                // arrives between onset and clear: the link or the peer is
                // down, so this cannot fire early).
                if ctx.now() >= self.fault_end && log.restored_at.is_none() {
                    log.restored_at = Some(ctx.now());
                }
            }
        }
    }
}

/// Samples the sender's retransmission counter at the fault boundaries so
/// the outcome can report retransmissions *inside* the fault window.
#[derive(Debug)]
struct RetransmitSampler {
    stats: Rc<RefCell<ArSenderStats>>,
    fault_at: SimTime,
    fault_end: SimTime,
    window: Rc<RefCell<[u64; 2]>>,
}

impl Actor for RetransmitSampler {
    fn on_event(&mut self, ctx: &mut SimCtx, ev: Event) {
        match ev {
            Event::Start => {
                ctx.schedule_timer(self.fault_at - ctx.now(), 0);
                ctx.schedule_timer(self.fault_end - ctx.now(), 1);
            }
            Event::Timer { tag } => {
                self.window.borrow_mut()[tag as usize & 1] = self.stats.borrow().retransmits;
            }
            _ => {}
        }
    }
}

/// Runs the chaos scenario: 30 FPS of 15 KB droppable recovery-class
/// frames with a 75 ms deadline over a clean 20 ms RTT path, hit by
/// `scenario` at t = 2 s for `fault_ms`, for `secs` (> 2) of virtual time,
/// under the protocol stack `cfg` (a [`FaultScenario::stack_config`] arm,
/// or a `marnet-lab train` candidate). The whole run is a function of its
/// arguments: byte-identical artifacts at any thread count.
pub fn run_faults_config_instrumented(
    scenario: FaultScenario,
    cfg: &ArConfig,
    fault_ms: u64,
    secs: u64,
    seed: u64,
    telemetry: &TelemetryOptions,
) -> (FaultsOutcome, u64, TelemetryCapture) {
    let fault_at = SimTime::from_secs(2);
    let fault_end = fault_at + SimDuration::from_millis(fault_ms);
    let horizon = SimTime::from_secs(secs);
    let (mut sim, mut metrics) = instrumented_sim(seed, telemetry);
    let snd = sim.reserve_actor();
    let rcv = sim.reserve_actor();
    let monitor = sim.reserve_actor();
    let one_way = SimDuration::from_millis(10);
    // A light residual loss keeps the ARQ machinery honest (the retransmit
    // bound is measured against real repairs, not an idle counter) and
    // gives replicates seed-to-seed variance.
    let up = sim.add_link(
        snd,
        rcv,
        LinkParams::new(Bandwidth::from_mbps(20.0), one_way)
            .with_loss(LossModel::Bernoulli { p: 0.003 }),
    );
    let down = sim.add_link(rcv, snd, LinkParams::new(Bandwidth::from_mbps(20.0), one_way));
    let sender = ArSender::new(
        1,
        cfg.clone(),
        vec![SenderPathConfig { role: PathRole::Wifi, tx: TxPath::Link(up), link: Some(up) }],
    );
    let sstats = sender.stats();
    sim.install_actor(snd, sender);
    let receiver = ArReceiver::new(1, vec![TxPath::Link(down)]).with_delivery_target(monitor);
    let rstats = receiver.stats();
    let spec = match scenario {
        FaultScenario::LinkOutage => {
            sim.install_actor(rcv, receiver);
            FaultSpec::new().outage(vec![up, down], fault_at, SimDuration::from_millis(fault_ms))
        }
        FaultScenario::EdgeCrash => {
            sim.install_actor(rcv, RestartableServer::new(receiver));
            FaultSpec::new().edge_crash(rcv, fault_at, SimDuration::from_millis(fault_ms), true)
        }
        FaultScenario::EdgeReboot => {
            sim.install_actor(rcv, RestartableServer::new(receiver));
            FaultSpec::new().edge_crash(rcv, fault_at, SimDuration::from_millis(fault_ms), false)
        }
    };
    sim.add_actor(FaultInjector::new(spec.compile(horizon)));
    let log = Rc::new(RefCell::new(QoeLog::default()));
    sim.install_actor(
        monitor,
        QoeMonitor {
            fault_at,
            fault_end,
            window_end: fault_at + SimDuration::from_millis(1500),
            log: Rc::clone(&log),
        },
    );
    let window = Rc::new(RefCell::new([0u64; 2]));
    sim.add_actor(RetransmitSampler {
        stats: Rc::clone(&sstats),
        fault_at,
        fault_end,
        window: Rc::clone(&window),
    });
    sim.add_actor(RefStream::new(snd, 15_000, true));
    let events = sim.run_until(horizon);

    let offered = (secs * 30) as f64;
    let window_offered = 1.5 * 30.0;
    let r = rstats.borrow();
    let s = sstats.borrow();
    let hits = r.by_kind.get(&StreamKind::VideoReference).map_or(0, |k| k.deadline_hits) as f64;
    let lg = log.borrow();
    let w = window.borrow();
    let outcome = FaultsOutcome {
        delivered_in_budget_pct: hits / offered * 100.0,
        qoe_under_fault_pct: lg.window_hits as f64 / window_offered * 100.0,
        recovery_ms: lg.restored_at.map(|t| t.saturating_since(fault_end).as_millis_f64()),
        retransmits_during_fault: w[1].saturating_sub(w[0]),
        retransmits: s.retransmits,
        outages_detected: s.outages_detected,
        recovery_probes: s.recovery_probes,
        session_resyncs: s.session_resyncs,
    };
    if let Some(snap) = &mut metrics {
        count_classes(snap, &s);
        snap.count("core.faults.retransmits", s.retransmits);
        snap.count("core.faults.outages_detected", s.outages_detected);
        snap.count("core.faults.recovery_probes", s.recovery_probes);
        snap.count("core.faults.session_resyncs", s.session_resyncs);
    }
    let capture = finish_telemetry(&mut sim, metrics);
    (outcome, events, capture)
}

// ---------------------------------------------------------------------------
// Multipath commute (E12)
// ---------------------------------------------------------------------------

/// Outcome of a run whose subject is one AR flow: the E12 commute and
/// the single-path scenarios (X1, X3, X4).
#[derive(Debug)]
pub struct ArFlowOutcome {
    /// Receiver stats (deliveries, latency, deadline ratio).
    pub receiver: Rc<RefCell<ArReceiverStats>>,
    /// Sender stats (shed bytes, congestion events, cellular bytes = the
    /// LTE bill).
    pub sender: Rc<RefCell<ArSenderStats>>,
}

/// The default AR configuration running the §VI-D multipath `policy`.
pub fn commute_config(policy: MultipathPolicy) -> ArConfig {
    ArConfig { policy, ..ArConfig::default() }
}

/// A commuting MAR user: WiFi with urban-walk coverage + always-on LTE,
/// running `cfg` (a [`commute_config`] policy, or a `marnet-lab train`
/// candidate) for `secs`.
pub fn run_multipath_commute_config_instrumented(
    cfg: &ArConfig,
    secs: u64,
    seed: u64,
    telemetry: &TelemetryOptions,
) -> (ArFlowOutcome, u64, TelemetryCapture) {
    let (mut sim, metrics) = instrumented_sim(seed, telemetry);
    let snd = sim.reserve_actor();
    let rcv = sim.reserve_actor();
    let app = sim.reserve_actor();

    // WiFi path: fast but intermittent.
    let wifi_up = sim.add_link(
        snd,
        rcv,
        LinkParams::new(Bandwidth::from_mbps(25.0), SimDuration::from_millis(10)),
    );
    let wifi_down = sim.add_link(
        rcv,
        snd,
        LinkParams::new(Bandwidth::from_mbps(25.0), SimDuration::from_millis(10)),
    );
    // LTE path: slower, higher RTT, always there.
    let lte_up = sim.add_link(
        snd,
        rcv,
        LinkParams::new(Bandwidth::from_mbps(6.0), SimDuration::from_millis(35)),
    );
    let lte_down = sim.add_link(
        rcv,
        snd,
        LinkParams::new(Bandwidth::from_mbps(12.0), SimDuration::from_millis(35)),
    );

    // Coverage traces.
    let mut rng = derive_rng(seed, "commute.wifi");
    let wifi_trace = CoverageModel::wifi_urban_walk().generate(SimTime::from_secs(secs), &mut rng);
    sim.add_actor(CoverageActor::new(wifi_trace, vec![wifi_up, wifi_down]));
    let mut rng = derive_rng(seed, "commute.lte");
    let lte_trace = CoverageModel::cellular().generate(SimTime::from_secs(secs), &mut rng);
    sim.add_actor(CoverageActor::new(lte_trace, vec![lte_up, lte_down]));

    let sender = ArSender::new(
        1,
        cfg.clone(),
        vec![
            SenderPathConfig {
                role: PathRole::Wifi,
                tx: TxPath::Link(wifi_up),
                link: Some(wifi_up),
            },
            SenderPathConfig {
                role: PathRole::Cellular,
                tx: TxPath::Link(lte_up),
                link: Some(lte_up),
            },
        ],
    );
    let sender_stats = sender.stats();
    sim.install_actor(snd, sender);
    let receiver = ArReceiver::new(1, vec![TxPath::Link(wifi_down), TxPath::Link(lte_down)]);
    let receiver_stats = receiver.stats();
    sim.install_actor(rcv, receiver);
    sim.install_actor(app, VideoFeed::greedy(snd));

    let events = sim.run_until(SimTime::from_secs(secs));
    let capture = finish_telemetry(&mut sim, metrics);
    (ArFlowOutcome { receiver: receiver_stats, sender: sender_stats }, events, capture)
}

// ---------------------------------------------------------------------------
// Fig. 5: distribution architectures (E6)
// ---------------------------------------------------------------------------

/// The four distribution architectures of Fig. 5. Each runs a MAR client
/// streaming the Fig. 4 sub-streams over the AR protocol with two paths
/// ending at two different executors. The Aggregate policy steers
/// latency-bound classes (metadata, reference frames) to the lowest-RTT
/// path — the nearby executor — and spreads droppable video across both:
/// the figure's "offload latency-sensitive information to other devices".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DistributionScenario {
    /// 5a: multipath, one server per path (WiFi → university server, LTE
    /// → distant cloud).
    MultipathMultiServer,
    /// 5b: home WiFi D2D to the user's PC for latency-critical data, cloud
    /// for the rest.
    HomeWifiD2d,
    /// 5c: LTE-Direct D2D to a nearby smartphone helper + LTE to the cloud.
    LteDirectD2d,
    /// 5d: WiFi-Direct D2D to a nearby smartphone helper + LTE to the cloud.
    WifiDirectD2d,
}

impl DistributionScenario {
    /// All scenarios in figure order.
    pub const ALL: [DistributionScenario; 4] = [
        DistributionScenario::MultipathMultiServer,
        DistributionScenario::HomeWifiD2d,
        DistributionScenario::LteDirectD2d,
        DistributionScenario::WifiDirectD2d,
    ];

    /// The two paths' far ends, in path order. RTTs are anchored on Table
    /// II (local WiFi 8 ms, cloud over WiFi 36 ms, university 72 ms, cloud
    /// over LTE 120 ms); D2D comes from the §IV-A profiles.
    fn executors(self) -> [Executor; 2] {
        let cloud_lte = Executor {
            role: PathRole::Cellular,
            one_way: SimDuration::from_millis(60),
            rate: Bandwidth::from_mbps(8.0),
            gflops: 20_000.0,
        };
        match self {
            DistributionScenario::MultipathMultiServer => [
                // university
                Executor {
                    role: PathRole::Wifi,
                    one_way: SimDuration::from_millis(5),
                    rate: Bandwidth::from_mbps(25.0),
                    gflops: 2_000.0,
                },
                cloud_lte,
            ],
            DistributionScenario::HomeWifiD2d => [
                // home PC
                Executor {
                    role: PathRole::DeviceToDevice,
                    one_way: SimDuration::from_millis(2),
                    rate: Bandwidth::from_mbps(80.0),
                    gflops: 500.0,
                },
                // cloud over the home WiFi
                Executor {
                    role: PathRole::Wifi,
                    one_way: SimDuration::from_millis(18),
                    rate: Bandwidth::from_mbps(20.0),
                    gflops: 20_000.0,
                },
            ],
            DistributionScenario::LteDirectD2d => [
                // phone helper
                Executor {
                    role: PathRole::DeviceToDevice,
                    one_way: SimDuration::from_millis(6),
                    rate: Bandwidth::from_mbps(100.0),
                    gflops: 15.0,
                },
                cloud_lte,
            ],
            DistributionScenario::WifiDirectD2d => [
                // phone helper
                Executor {
                    role: PathRole::DeviceToDevice,
                    one_way: SimDuration::from_millis(4),
                    rate: Bandwidth::from_mbps(60.0),
                    gflops: 15.0,
                },
                cloud_lte,
            ],
        }
    }
}

impl std::fmt::Display for DistributionScenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            DistributionScenario::MultipathMultiServer => "5a multipath multi-server",
            DistributionScenario::HomeWifiD2d => "5b home WiFi D2D + cloud",
            DistributionScenario::LteDirectD2d => "5c LTE-Direct D2D + cloud",
            DistributionScenario::WifiDirectD2d => "5d WiFi-Direct D2D + cloud",
        })
    }
}

/// One path's far end.
#[derive(Debug, Clone, Copy)]
struct Executor {
    role: PathRole,
    /// One-way latency of the access path.
    one_way: SimDuration,
    /// Path bandwidth (both directions, for simplicity).
    rate: Bandwidth,
    /// Executor compute for the latency-critical stage, GFLOPS.
    gflops: f64,
}

/// Observes deliveries at one executor and records the estimated full-loop
/// latency: transport latency + compute there + the return one-way.
struct ExecutorProbe {
    service: SimDuration,
    return_one_way: SimDuration,
    loop_latency_ms: Rc<RefCell<Histogram>>,
    critical_latency_ms: Rc<RefCell<Histogram>>,
}

impl Actor for ExecutorProbe {
    fn on_event(&mut self, ctx: &mut SimCtx, ev: Event) {
        if let Event::Message { msg, .. } = ev {
            if let Some(d) = msg.map_ref(|d: &Delivered| *d) {
                let transport = ctx.now().saturating_since(d.created);
                match d.kind {
                    StreamKind::VideoReference | StreamKind::VideoInter => {
                        let total = transport + self.service + self.return_one_way;
                        self.loop_latency_ms.borrow_mut().record(total.as_millis_f64());
                    }
                    StreamKind::Metadata => {
                        self.critical_latency_ms.borrow_mut().record(transport.as_millis_f64());
                    }
                    _ => {}
                }
            }
        }
    }
}

/// What a Fig. 5 run produces.
#[derive(Debug)]
pub struct Fig5Outcome {
    /// Full-loop latency samples of vision frames (ms), both executors.
    pub loop_latency_ms: Histogram,
    /// Transport latency samples of critical metadata (ms).
    pub critical_latency_ms: Histogram,
    /// Sender statistics (cellular bytes, drops, ...).
    pub sender: Rc<RefCell<ArSenderStats>>,
}

/// Runs one Fig. 5 architecture for `secs` of virtual time: a smartphone
/// MAR client fully offloading its vision pipeline over two paths, the
/// latency-critical stage (feature extraction) served at whichever
/// executor a message reaches.
pub fn run_fig5_instrumented(
    scenario: DistributionScenario,
    secs: u64,
    seed: u64,
    telemetry: &TelemetryOptions,
) -> (Fig5Outcome, u64, TelemetryCapture) {
    let (mut sim, metrics) = instrumented_sim(seed, telemetry);
    let executors = scenario.executors();
    let snd = sim.reserve_actor();
    let client = sim.reserve_actor();

    let mut paths = Vec::new();
    let loop_hist = Rc::new(RefCell::new(Histogram::new()));
    let crit_hist = Rc::new(RefCell::new(Histogram::new()));
    let work = FrameWork::vision_pipeline();
    for ex in &executors {
        let rcv = sim.reserve_actor();
        let probe = sim.reserve_actor();
        let up = sim.add_link(snd, rcv, LinkParams::new(ex.rate, ex.one_way));
        let back = sim.add_link(rcv, snd, LinkParams::new(ex.rate, ex.one_way));
        paths.push(SenderPathConfig { role: ex.role, tx: TxPath::Link(up), link: Some(up) });
        // The receiver answers on its own back link whichever path id a
        // packet carries (it only ever sees its own path's).
        let receiver = ArReceiver::new(1, vec![TxPath::Link(back); executors.len()])
            .with_delivery_target(probe);
        sim.install_actor(rcv, receiver);
        sim.install_actor(
            probe,
            ExecutorProbe {
                service: SimDuration::from_secs_f64(work.extraction_gflop / ex.gflops),
                return_one_way: ex.one_way,
                loop_latency_ms: Rc::clone(&loop_hist),
                critical_latency_ms: Rc::clone(&crit_hist),
            },
        );
    }

    let cfg = ArConfig { policy: MultipathPolicy::Aggregate, ..ArConfig::default() };
    let sender = ArSender::new(1, cfg, paths).with_qos_target(client);
    let sender_stats = sender.stats();
    sim.install_actor(snd, sender);

    let model = ComputeModel::new(30.0, work).with_deadline(SimDuration::from_millis(75));
    let video = FrameSource::new(VideoConfig::ar_minimal(), 0.05, derive_rng(seed, "fig5.video"));
    // The client is a smartphone in every scenario: in 5b-5d it stands in
    // for the glasses+companion pair (the glasses' own contribution is the
    // display; the measured loop is capture → executor → display).
    let mar = MarClient::new(
        snd,
        DeviceClass::Smartphone.spec(),
        model,
        OffloadStrategy::FullOffload { frame_bytes: 0 },
        video,
    );
    sim.install_actor(client, mar);

    let events = sim.run_until(SimTime::from_secs(secs));
    let capture = finish_telemetry(&mut sim, metrics);
    let outcome = Fig5Outcome {
        loop_latency_ms: loop_hist.borrow().clone(),
        critical_latency_ms: crit_hist.borrow().clone(),
        sender: sender_stats,
    };
    (outcome, events, capture)
}

// ---------------------------------------------------------------------------
// One AR flow on one path (Fig. 4, X1, X3, X4)
// ---------------------------------------------------------------------------

/// One AR flow on one path, wired and waiting for its application: sender
/// and receiver installed on an `up`/`down` link pair, the sender's QoS
/// signals addressed to the reserved `app` slot. A scenario installs its
/// application there, adds what else it needs (a link modulator, a
/// competing flow) and calls [`SinglePath::run`].
struct SinglePath {
    sim: Simulator,
    metrics: Option<MetricsSnapshot>,
    /// The AR sender, where the application submits.
    snd: ActorId,
    /// Reserved for the application.
    app: ActorId,
    /// The data direction — the link the scenarios modulate.
    up: LinkId,
    flow: ArFlowOutcome,
}

impl SinglePath {
    fn new(
        cfg: &ArConfig,
        up: LinkParams,
        down: LinkParams,
        seed: u64,
        telemetry: &TelemetryOptions,
    ) -> Self {
        let (mut sim, metrics) = instrumented_sim(seed, telemetry);
        let snd = sim.reserve_actor();
        let rcv = sim.reserve_actor();
        let app = sim.reserve_actor();
        let up = sim.add_link(snd, rcv, up);
        let down = sim.add_link(rcv, snd, down);
        let sender = ArSender::new(
            1,
            cfg.clone(),
            vec![SenderPathConfig { role: PathRole::Wifi, tx: TxPath::Link(up), link: Some(up) }],
        )
        .with_qos_target(app);
        let sender_stats = sender.stats();
        sim.install_actor(snd, sender);
        let receiver = ArReceiver::new(1, vec![TxPath::Link(down)]);
        let receiver_stats = receiver.stats();
        sim.install_actor(rcv, receiver);
        let flow = ArFlowOutcome { receiver: receiver_stats, sender: sender_stats };
        SinglePath { sim, metrics, snd, app, up, flow }
    }

    /// A symmetric path: `mbps` and `one_way` in both directions.
    fn symmetric(
        cfg: &ArConfig,
        mbps: f64,
        one_way: SimDuration,
        seed: u64,
        telemetry: &TelemetryOptions,
    ) -> Self {
        let params = LinkParams::new(Bandwidth::from_mbps(mbps), one_way);
        SinglePath::new(cfg, params.clone(), params, seed, telemetry)
    }

    fn run(mut self, secs: u64) -> (ArFlowOutcome, u64, TelemetryCapture) {
        let events = self.sim.run_until(SimTime::from_secs(secs));
        if let Some(snap) = &mut self.metrics {
            count_classes(snap, &self.flow.sender.borrow());
        }
        let capture = finish_telemetry(&mut self.sim, self.metrics);
        (self.flow, events, capture)
    }
}

/// The Fig. 4 application: four sub-streams — connection metadata, sensor
/// data, video reference frames and interframes — whose video quality
/// follows the sender's QoS signals, interframes first.
#[derive(Debug)]
struct Fig4App {
    sender: ActorId,
    next_id: u64,
    frame: u64,
    inter_bytes: u32,
    ref_bytes: u32,
    consecutive_degrades: u32,
}

impl Actor for Fig4App {
    fn on_event(&mut self, ctx: &mut SimCtx, ev: Event) {
        match ev {
            Event::Start | Event::Timer { .. } => {
                let now = ctx.now();
                let deadline = now + SimDuration::from_millis(150);
                let is_ref = self.frame.is_multiple_of(10);
                self.frame += 1;
                let mut send = |id: u64, kind: StreamKind, bytes: u32, dl: bool| {
                    let mut m = ArMessage::new(id, kind, bytes, now);
                    if dl {
                        m = m.with_deadline(deadline);
                    }
                    ctx.send_message(self.sender, Payload::new(Submit(m)));
                };
                let id = self.next_id;
                self.next_id += 4;
                if is_ref {
                    send(id, StreamKind::VideoReference, self.ref_bytes, true);
                } else {
                    send(id, StreamKind::VideoInter, self.inter_bytes, true);
                }
                send(id + 1, StreamKind::Sensor, 400, true);
                send(id + 2, StreamKind::Metadata, 100, false);
                ctx.schedule_timer(SimDuration::from_millis(33), 0);
            }
            Event::Message { msg, .. } => match msg.map_ref(|s: &QosSignal| *s) {
                Some(QosSignal::Degrade { severity, .. }) => {
                    self.consecutive_degrades += 1;
                    // Interframes are the first adjustable variable;
                    // reference frames only under severe or *persistent*
                    // congestion ("temporarily reduce the quality and
                    // number of reference frames").
                    self.inter_bytes = (self.inter_bytes * 7 / 10).max(800);
                    if severity >= 2 || self.consecutive_degrades > 15 {
                        self.ref_bytes = (self.ref_bytes * 8 / 10).max(4_000);
                    }
                }
                Some(QosSignal::Headroom { .. }) => {
                    self.consecutive_degrades = 0;
                    self.inter_bytes = (self.inter_bytes * 11 / 10).min(16_000);
                    self.ref_bytes = (self.ref_bytes * 21 / 20).min(20_000);
                }
                None => {}
            },
            _ => {}
        }
    }
}

/// Outcome of the Fig. 4 run: a TCP flow and an AR flow, each alone on
/// its own copy of the same scripted link.
#[derive(Debug)]
pub struct Fig4Outcome {
    /// TCP sender stats (its `cwnd_series` is the figure's upper panel).
    pub tcp: Rc<RefCell<TcpFlowStats>>,
    /// TCP receiver stats (goodput meter).
    pub tcp_receiver: Rc<RefCell<TcpReceiverStats>>,
    /// The AR flow (per-kind send meters, deliveries, shed messages).
    pub ar: ArFlowOutcome,
}

/// Fig. 4: a 30 ms RTT link whose capacity steps through `rates_mbps`,
/// `phase_secs` each (the figure's two loss events), carrying — on two
/// independent copies in one simulator — a greedy TCP Reno flow and the
/// AR protocol with the figure's four sub-streams.
pub fn run_fig4(
    rates_mbps: &[f64],
    phase_secs: u64,
    seed: u64,
    telemetry: &TelemetryOptions,
) -> (Fig4Outcome, u64, TelemetryCapture) {
    let first_mbps = rates_mbps.first().copied().unwrap_or(0.0);
    let one_way = SimDuration::from_millis(15);
    let script = || {
        let steps = (0u64..)
            .zip(rates_mbps)
            .map(|(phase, &mbps)| {
                (SimTime::from_secs(phase * phase_secs), Bandwidth::from_mbps(mbps))
            })
            .collect();
        Box::new(ScriptedRate::new(steps))
    };
    let interval = SimDuration::from_millis(100);

    let mut path =
        SinglePath::symmetric(&ArConfig::default(), first_mbps, one_way, seed, telemetry);
    modulate_links(&mut path.sim, vec![path.up], script(), interval);
    path.sim.install_actor(
        path.app,
        Fig4App {
            sender: path.snd,
            next_id: 0,
            frame: 0,
            inter_bytes: 16_000,
            ref_bytes: 20_000,
            consecutive_degrades: 0,
        },
    );

    // The TCP baseline, on links of its own (connection 2: the AR flow is 1).
    let sim = &mut path.sim;
    let s = sim.reserve_actor();
    let r = sim.reserve_actor();
    let params = LinkParams::new(Bandwidth::from_mbps(first_mbps), one_way);
    let fwd = sim.add_link(s, r, params.clone());
    let rev = sim.add_link(r, s, params);
    modulate_links(sim, vec![fwd], script(), interval);
    let sender =
        TcpSender::new(2, TxPath::Link(fwd), TcpConfig::default(), Box::new(Reno::new(MSS)));
    let tcp = sender.stats();
    sim.install_actor(s, sender);
    let receiver = TcpReceiver::new(2, TxPath::Link(rev));
    let tcp_receiver = receiver.stats();
    sim.install_actor(r, receiver);

    let (ar, events, capture) = path.run(rates_mbps.len() as u64 * phase_secs);
    (Fig4Outcome { tcp, tcp_receiver, ar }, events, capture)
}

/// Offered ≈ 4 Mb/s of video (20 KB reference frame every tenth tick,
/// interframes from 15 KB) plus metadata; with `adaptive` the interframe
/// size follows the sender's QoS signals.
#[derive(Debug)]
struct OverloadApp {
    sender: ActorId,
    next_id: u64,
    frame: u64,
    inter_bytes: u32,
    adaptive: bool,
}

impl Actor for OverloadApp {
    fn on_event(&mut self, ctx: &mut SimCtx, ev: Event) {
        match ev {
            Event::Start | Event::Timer { .. } => {
                let now = ctx.now();
                let deadline = now + SimDuration::from_millis(100);
                let is_ref = self.frame.is_multiple_of(10);
                self.frame += 1;
                let kind = if is_ref { StreamKind::VideoReference } else { StreamKind::VideoInter };
                let bytes = if is_ref { 20_000 } else { self.inter_bytes };
                let id = self.next_id;
                self.next_id += 2;
                let m = ArMessage::new(id, kind, bytes, now).with_deadline(deadline);
                ctx.send_message(self.sender, Payload::new(Submit(m)));
                let meta = ArMessage::new(id + 1, StreamKind::Metadata, 100, now);
                ctx.send_message(self.sender, Payload::new(Submit(meta)));
                ctx.schedule_timer(SimDuration::from_millis(33), 0);
            }
            Event::Message { msg, .. } if self.adaptive => match msg.map_ref(|s: &QosSignal| *s) {
                Some(QosSignal::Degrade { .. }) => {
                    self.inter_bytes = (self.inter_bytes * 7 / 10).max(1_000);
                }
                Some(QosSignal::Headroom { .. }) => {
                    self.inter_bytes = (self.inter_bytes * 11 / 10).min(15_000);
                }
                None => {}
            },
            _ => {}
        }
    }
}

/// The scheduler arm of the X1 ablation: the default configuration, or —
/// without `backlog_control` — backlog-pressure shedding switched off, so
/// the scheduler degenerates to delay-everything-until-late (messages
/// past their deadline are still shed: droppable classes are defined by
/// their deadlines).
pub fn ablation_config(backlog_control: bool) -> ArConfig {
    if backlog_control {
        ArConfig::default()
    } else {
        ArConfig {
            stale_after: SimDuration::from_secs(3_600),
            backlog_ticks: 1e9,
            ..ArConfig::default()
        }
    }
}

/// X1: ≈ 4 Mb/s of video with 100 ms deadlines offered into a `link_mbps`
/// link (20 ms RTT) under scheduler configuration `cfg`; `adaptive` lets
/// the application lower its interframe quality on QoS signals.
pub fn run_ablation(
    cfg: &ArConfig,
    adaptive: bool,
    link_mbps: f64,
    secs: u64,
    seed: u64,
    telemetry: &TelemetryOptions,
) -> (ArFlowOutcome, u64, TelemetryCapture) {
    let mut path =
        SinglePath::symmetric(cfg, link_mbps, SimDuration::from_millis(10), seed, telemetry);
    let app = OverloadApp { sender: path.snd, next_id: 0, frame: 0, inter_bytes: 15_000, adaptive };
    path.sim.install_actor(path.app, app);
    path.run(secs)
}

/// The link-rate processes of the X3 sweep: one mean, rising variance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RateVariance {
    /// The mean rate, always.
    Constant,
    /// AR(1) lognormal wander, σ = 0.15 decades, ρ = 0.9.
    Ar1Mild,
    /// AR(1) lognormal wander, σ = 0.35 decades, ρ = 0.9.
    Ar1Heavy,
    /// Two-state Markov chain between the mean rate and 100 kb/s — the
    /// abrupt order-of-magnitude drops §IV-A-1 reports for HSPA+.
    Markov,
}

impl RateVariance {
    /// The process around `mean`, drawing from its own substream of `seed`.
    fn process(self, mean: Bandwidth, seed: u64) -> Box<dyn RateProcess> {
        match self {
            RateVariance::Constant => Box::new(ConstantRate(mean)),
            RateVariance::Ar1Mild => {
                Box::new(Ar1LogRate::new(mean, 0.15, 0.9, derive_rng(seed, "var.mild")))
            }
            RateVariance::Ar1Heavy => {
                Box::new(Ar1LogRate::new(mean, 0.35, 0.9, derive_rng(seed, "var.heavy")))
            }
            RateVariance::Markov => Box::new(MarkovRate::new(
                mean,
                Bandwidth::from_kbps(100.0),
                0.05,
                0.25,
                derive_rng(seed, "var.markov"),
            )),
        }
    }
}

/// X3: 30 FPS of 6 KB frames with 100 ms deadlines (≈ 1.5 Mb/s) plus
/// metadata over a 40 ms RTT link whose rate follows `variance` around
/// `mean_mbps`, resampled every 200 ms.
pub fn run_variance(
    variance: RateVariance,
    mean_mbps: f64,
    secs: u64,
    seed: u64,
    telemetry: &TelemetryOptions,
) -> (ArFlowOutcome, u64, TelemetryCapture) {
    let one_way = SimDuration::from_millis(20);
    let mut path = SinglePath::symmetric(&ArConfig::default(), mean_mbps, one_way, seed, telemetry);
    let process = variance.process(Bandwidth::from_mbps(mean_mbps), seed);
    modulate_links(&mut path.sim, vec![path.up], process, SimDuration::from_millis(200));
    let feed = VideoFeed {
        sender: path.snd,
        next_id: 0,
        frame_bytes: 6_000,
        deadline: SimDuration::from_millis(100),
        metadata: true,
    };
    path.sim.install_actor(path.app, feed);
    path.run(secs)
}

/// X4: a 30 FPS video uplink offering `offered_mbps` with 75 ms deadlines
/// over one sampled realization of `tech`'s calibrated §IV-A link profile
/// (uplink for the data, downlink for the feedback).
pub fn run_access_feed(
    tech: RadioTechnology,
    offered_mbps: f64,
    secs: u64,
    seed: u64,
    telemetry: &TelemetryOptions,
) -> (ArFlowOutcome, u64, TelemetryCapture) {
    let profile = tech.profile();
    let mut rng = derive_rng(seed, "sweep5g");
    let up = profile.sample_link_params(LinkDirection::Uplink, &mut rng);
    let down = profile.sample_link_params(LinkDirection::Downlink, &mut rng);
    let mut path = SinglePath::new(&ArConfig::default(), up, down, seed, telemetry);
    let feed = VideoFeed {
        sender: path.snd,
        next_id: 0,
        frame_bytes: (offered_mbps * 1e6 / 30.0 / 8.0) as u32,
        deadline: SimDuration::from_millis(75),
        metadata: false,
    };
    path.sim.install_actor(path.app, feed);
    path.run(secs)
}

// ---------------------------------------------------------------------------
// City-scale hybrid fidelity (E17)
// ---------------------------------------------------------------------------

/// Nominal cell downlink capacity: the packet-level boundary link and the
/// fluid foreground class's per-flow cap.
pub const CITYSCALE_CELL_MBPS: f64 = 40.0;
/// Paced MAR stream rate inside the cell.
pub const CITYSCALE_MAR_MBPS: f64 = 6.0;
/// MAR stream packet size in bytes.
pub const CITYSCALE_MAR_PACKET_BYTES: u32 = 1_200;
/// Per-background-flow cap: the client's access-link rate, so per-client
/// access links need not exist in the fluid graph.
pub const CITYSCALE_ACCESS_MBPS: f64 = 2.0;
/// Bytes per background transfer.
pub const CITYSCALE_TRANSFER_BYTES: u64 = 50_000;
/// Mean exponential think time between a client's transfers.
pub const CITYSCALE_THINK_MS: u64 = 2_000;

/// Analytic offered background load in Gb/s: each client cycles through
/// an exponential think (mean [`CITYSCALE_THINK_MS`]) and one
/// [`CITYSCALE_TRANSFER_BYTES`] transfer, which takes
/// `bytes·8 / access_rate` when the backhaul is unloaded.
pub fn cityscale_offered_gbps(clients: u64) -> f64 {
    let transfer_s = CITYSCALE_TRANSFER_BYTES as f64 * 8.0 / (CITYSCALE_ACCESS_MBPS * 1e6);
    let cycle_s = CITYSCALE_THINK_MS as f64 / 1e3 + transfer_s;
    clients as f64 * CITYSCALE_TRANSFER_BYTES as f64 * 8.0 / cycle_s / 1e9
}

/// Outcome of a city-scale hybrid run.
#[derive(Debug)]
pub struct CityscaleOutcome {
    /// MAR sink stats inside the packet-level cell (QoE: one-way latency
    /// histogram and delivery meter).
    pub mar: Rc<RefCell<UdpSinkStats>>,
    /// Background client population stats (offered/completed transfers).
    pub background: Rc<RefCell<WorkloadStats>>,
    /// Fluid tier aggregates (flow conservation, recompute count).
    pub fluid: Rc<RefCell<FluidStats>>,
    /// What the event queue did: heap vs. same-instant-lane vs. delay-line
    /// insertions, timer re-arms, peak depth (diagnostics, in no artifact).
    pub queue: QueueStats,
}

/// E17: one packet-level MAR cell surrounded by `clients` flow-level
/// background clients sharing a `backhaul_gbps` metro backhaul.
///
/// The cell is a [`CITYSCALE_CELL_MBPS`] downlink carrying a paced
/// [`CITYSCALE_MAR_MBPS`] MAR stream from the edge to a sink. In the
/// fluid graph the same downlink is a standing foreground class capped at
/// the cell rate, competing max-min fairly with the background class on
/// the backhaul; after every recompute the foreground's allocation is
/// pushed to the packet tier as the downlink's available rate (via the
/// NIC, exercising the message coupling path). As offered background load
/// approaches the backhaul capacity the foreground share collapses below
/// the MAR stream's rate and the cell's queue — and with it the QoE —
/// degrades: the paper's metro-scale capacity argument, measured.
pub fn run_cityscale_instrumented(
    clients: u64,
    backhaul_gbps: f64,
    secs: u64,
    seed: u64,
    telemetry: &TelemetryOptions,
) -> (CityscaleOutcome, u64, TelemetryCapture) {
    let (mut sim, mut metrics) = instrumented_sim(seed, telemetry);

    // Packet-level focus region: the cell. The edge NIC owns the
    // downlink; the MAR source paces packets through it to the sink.
    let edge = sim.reserve_actor();
    let ue = sim.reserve_actor();
    let mar_src = sim.reserve_actor();
    let down = sim.add_link(
        edge,
        ue,
        LinkParams::new(Bandwidth::from_mbps(CITYSCALE_CELL_MBPS), SimDuration::from_millis(5))
            .with_queue(QueueConfig::DropTail { cap_packets: 400 }),
    );
    sim.install_actor(
        mar_src,
        UdpSource::with_rate_mbps(
            1,
            TxPath::Nic(edge),
            CITYSCALE_MAR_PACKET_BYTES,
            CITYSCALE_MAR_MBPS,
        ),
    );
    let sink = UdpSink::new(1);
    let mar = sink.stats();
    sim.install_actor(ue, sink);
    sim.install_actor(edge, Nic::new(down));

    // Flow-level background region: the metro backhaul and the client
    // population.
    let net_id = sim.reserve_actor();
    let wl_id = sim.reserve_actor();

    let mut net = FluidNetwork::new();
    let backhaul = net.add_link(Bandwidth::from_gbps(backhaul_gbps));
    let background = net.add_class(&[backhaul], Some(Bandwidth::from_mbps(CITYSCALE_ACCESS_MBPS)));
    let foreground = net.add_class(&[backhaul], Some(Bandwidth::from_mbps(CITYSCALE_CELL_MBPS)));
    net.add_standing_flows(foreground, 1);
    // The boundary link's available rate tracks the foreground class's
    // max-min share, delivered as RateUpdate messages to the owning NIC.
    net.couple_class(foreground, down, edge);
    let fluid = net.stats();
    sim.install_actor(net_id, net);

    let wl = BackgroundWorkload::new(WorkloadConfig {
        clients,
        class: background,
        network: net_id,
        think_mean: SimDuration::from_millis(CITYSCALE_THINK_MS),
        transfer_bytes: CITYSCALE_TRANSFER_BYTES,
        label: "cityscale/bg".into(),
    });
    let background_stats = wl.stats();
    sim.install_actor(wl_id, wl);

    let events = sim.run_until(SimTime::from_secs(secs));

    if let Some(snap) = &mut metrics {
        let fl = fluid.borrow();
        snap.count("flow.started", fl.started);
        snap.count("flow.finished", fl.finished);
        snap.count("flow.recomputes", fl.recomputes);
        let bg = background_stats.borrow();
        snap.count("flow.workload.offered", bg.offered);
        snap.count("flow.workload.completed", bg.completed);
    }
    let capture = finish_telemetry(&mut sim, metrics);
    let queue = sim.ctx().queue_stats();
    let outcome = CityscaleOutcome { mar, background: background_stats, fluid, queue };
    (outcome, events, capture)
}

#[cfg(test)]
mod tests {
    use super::*;
    use marnet_telemetry::TraceKind;

    fn off() -> TelemetryOptions {
        TelemetryOptions::disabled()
    }

    /// Events of the 200-flow DropTail cell below (400 Mb/s, 180 MAR + 20
    /// bulk flows, 2 s, seed 7), counted before the event queue had delay
    /// lines.
    const DENSE_CELL_EVENTS: u64 = 447_096;

    /// The fault sweep's grid point: a 500 ms fault in a 6 s run, seed 42.
    fn faults(scenario: FaultScenario, hardened: bool) -> FaultsOutcome {
        let cfg = FaultScenario::stack_config(hardened);
        run_faults_config_instrumented(scenario, &cfg, 500, 6, 42, &off()).0
    }

    fn cityscale(clients: u64, secs: u64, seed: u64) -> CityscaleOutcome {
        run_cityscale_instrumented(clients, 1.0, secs, seed, &off()).0
    }

    /// A 6 s Fig. 5 session.
    fn fig5(scenario: DistributionScenario, seed: u64) -> Fig5Outcome {
        run_fig5_instrumented(scenario, 6, seed, &off()).0
    }

    #[test]
    fn table2_rtts_match_the_paper_rows() {
        for scenario in Table2Scenario::ALL {
            let (_, _, expected_ms) = scenario.labels();
            let stats = run_table2_instrumented(scenario, 100, 400, 400, 3, &off()).0;
            let st = stats.borrow();
            assert_eq!(st.received, 100, "{scenario:?} lost probes");
            let mut h = st.rtt_ms.clone();
            let median = h.median().unwrap();
            let err = (median - expected_ms as f64).abs() / expected_ms as f64;
            assert!(err < 0.15, "{scenario:?}: median {median} vs paper {expected_ms}");
        }
    }

    #[test]
    fn fig3_uploads_starve_the_download() {
        let out = run_fig3(10.0, 1.0, 1000, 2, 60, 5, &off()).0;
        let dl = out.download.borrow();
        // Before the first upload starts the download fills the pipe; after
        // the uploads saturate the uplink, ACKs drown and goodput collapses.
        let before = dl.goodput_meter.mean_mbps(2.0, out.upload_starts[0]);
        let after = dl.goodput_meter.mean_mbps(out.upload_starts[1] + 5.0, 60.0);
        assert!(before > 7.0, "clean download {before} Mb/s");
        assert!(after < before * 0.5, "uploads must crush the download: {before} → {after} Mb/s");
    }

    #[test]
    fn fairness_ar_shares_with_tcp() {
        // In loss-only mode (delay signal effectively disabled) the AR
        // protocol competes like an AIMD flow and holds its share; the
        // delay-sensitive mode's starvation is measured by the E14 sweep.
        let ar = Contender::Ar(fairness_config(10.0, true, SimDuration::from_secs(10)));
        let out = run_fairness_config_instrumented(10.0, 1, &ar, 30, 7, &off()).0;
        let ar_bytes = out.contender_bytes as f64;
        let tcp_bytes = out.tcp[0].borrow().goodput_bytes as f64;
        assert!(ar_bytes > 0.0 && tcp_bytes > 0.0);
        // With the loss fallback on, neither flow should be starved: the
        // weaker side keeps at least ~15% of the pipe.
        let share = ar_bytes / (ar_bytes + tcp_bytes);
        assert!((0.1..=0.9).contains(&share), "AR share {share}");
    }

    #[test]
    fn queueing_priority_protects_mar_latency() {
        let run = |queue| run_queueing_instrumented(2.0, queue, 0, 1, 1, 30, 9, &off()).0;
        let bloated = run(QueueConfig::bloated_uplink());
        let prio = run(QueueConfig::StrictPriority { bands: 4, cap_packets_per_band: 250 });
        let bl = bloated.mar[0].borrow().latency_ms.clone();
        let pr = prio.mar[0].borrow().latency_ms.clone();
        let mut bl2 = bl.clone();
        let mut pr2 = pr.clone();
        let bloat_p95 = bl2.p95().unwrap();
        let prio_p95 = pr2.p95().unwrap();
        assert!(
            prio_p95 < bloat_p95 / 4.0,
            "priority queueing must slash MAR p95: {bloat_p95} → {prio_p95} ms"
        );
        // And the bulk upload still makes progress under priority queueing.
        assert!(prio.bulk[0].borrow().goodput_bytes > 1_000_000);
    }

    /// A metrics-on run carries queue gauges and series for its links
    /// although the scenario enables metrics before it adds them, the
    /// gauges are the final occupancy, the run publishes exactly the
    /// metrics listed here, and turning telemetry on changes nothing the
    /// run computes.
    #[test]
    fn metrics_cover_every_link_and_leave_the_run_unchanged() {
        let run = |telemetry: &TelemetryOptions| {
            run_queueing_instrumented(2.0, QueueConfig::bloated_uplink(), 0, 1, 1, 5, 9, telemetry)
        };
        let scalars = |o: &QueueingOutcome| {
            let mar = o.mar[0].borrow();
            (mar.packets, mar.latency_ms.values().to_vec(), o.bulk[0].borrow().goodput_bytes)
        };
        let metered = TelemetryOptions { trace_capacity: None, metrics: true };
        let (on, on_events, capture) = run(&metered);
        let snap = capture.metrics.expect("metrics on must snapshot");
        for (link, (packets, bytes)) in on.queue_len.iter().enumerate() {
            assert_eq!(snap.gauges[&format!("sim.link.{link}.queue_packets")], *packets as f64);
            assert_eq!(snap.gauges[&format!("sim.link.{link}.queue_bytes")], *bytes as f64);
        }
        assert!(on.queue_len[0].0 > 0, "the bloated uplink ends the run backlogged");
        // Every name the run publishes (the uplink drops nothing in 5 s).
        fn names<V>(map: &std::collections::BTreeMap<String, V>) -> Vec<&str> {
            map.keys().map(String::as_str).collect()
        }
        assert_eq!(
            names(&snap.counters),
            [
                "sim.engine.queue.cancels",
                "sim.engine.queue.heap_pushes",
                "sim.engine.queue.lane_pushes",
                "sim.engine.queue.line_pushes",
                "sim.engine.queue.peak_depth",
                "sim.engine.queue.rearms",
                "sim.link.0.delivered_bytes",
                "sim.link.0.delivered_packets",
                "sim.link.0.offered_bytes",
                "sim.link.0.offered_packets",
                "sim.link.0.tx_bytes",
                "sim.link.0.tx_packets",
                "sim.link.1.delivered_bytes",
                "sim.link.1.delivered_packets",
                "sim.link.1.offered_bytes",
                "sim.link.1.offered_packets",
                "sim.link.1.tx_bytes",
                "sim.link.1.tx_packets",
            ]
        );
        assert_eq!(
            names(&snap.gauges),
            [
                "sim.link.0.queue_bytes",
                "sim.link.0.queue_packets",
                "sim.link.1.queue_bytes",
                "sim.link.1.queue_packets",
            ]
        );
        assert_eq!(names(&snap.series), ["sim.link.0.queue_delay_ms", "sim.link.1.queue_delay_ms"]);
        let delay = &snap.series["sim.link.0.queue_delay_ms"];
        assert!(!delay.is_empty(), "the bloated uplink must record queue delay");
        assert!(delay.iter().any(|b| b.max > 100.0), "bufferbloat shows in the series");

        let (plain, off_events, bare) = run(&off());
        assert!(bare.metrics.is_none() && bare.events.is_empty());
        assert_eq!(scalars(&on), scalars(&plain));
        assert_eq!(on_events, off_events);
    }

    #[test]
    fn all_scenarios_deliver_frames() {
        for scenario in DistributionScenario::ALL {
            let out = fig5(scenario, 5);
            assert!(
                out.loop_latency_ms.count() > 50,
                "{scenario}: only {} loops",
                out.loop_latency_ms.count()
            );
            assert!(out.critical_latency_ms.count() > 50, "{scenario}");
        }
    }

    #[test]
    fn nearby_executors_cut_critical_latency() {
        // 5b (2 ms home PC) must beat 5a (5 ms university) on metadata
        // latency, and both must beat any cloud-only alternative (~60 ms).
        let mut a = fig5(DistributionScenario::MultipathMultiServer, 7);
        let mut b = fig5(DistributionScenario::HomeWifiD2d, 7);
        let ma = a.critical_latency_ms.median().unwrap();
        let mb = b.critical_latency_ms.median().unwrap();
        assert!(mb < ma, "home D2D {mb} ms vs university {ma} ms");
        assert!(ma < 30.0, "critical data stays on the fast path: {ma} ms");
    }

    #[test]
    fn multipath_keeps_latency_data_off_lte() {
        let out = fig5(DistributionScenario::MultipathMultiServer, 9);
        let s = out.sender.borrow();
        let total: u64 = s.total_sent_bytes();
        assert!(total > 0);
        // Critical metadata goes to the WiFi/university path; cellular
        // carries only a share of the droppable bulk.
        assert!(
            (s.cellular_bytes as f64) < total as f64 * 0.6,
            "cellular {} of {total}",
            s.cellular_bytes
        );
    }

    #[test]
    fn weak_helper_still_serves_critical_data_fast() {
        // 5c/5d: the phone helper has little compute, but the latency-
        // critical class still sees single-digit transport latency.
        let mut out = fig5(DistributionScenario::WifiDirectD2d, 11);
        let crit = out.critical_latency_ms.median().unwrap();
        assert!(crit < 20.0, "critical median {crit} ms");
    }

    #[test]
    fn display_and_order() {
        assert_eq!(DistributionScenario::ALL.len(), 4);
        assert!(DistributionScenario::MultipathMultiServer.to_string().starts_with("5a"));
    }

    #[test]
    fn count_classes_writes_stream_kind_counters_skipping_zeros() {
        let mut sender = ArSenderStats::default();
        sender.usage.record_sent(StreamKind::Metadata as usize, 100);
        sender.usage.record_dropped(StreamKind::VideoInter as usize, 30);
        let mut snap = MetricsSnapshot::default();
        count_classes(&mut snap, &sender);
        assert_eq!(
            snap.counters.into_iter().collect::<Vec<_>>(),
            [
                ("core.class.metadata.sent_bytes".to_string(), 100),
                ("core.class.metadata.sent_packets".to_string(), 1),
                ("core.class.video-inter.dropped_bytes".to_string(), 30),
                ("core.class.video-inter.dropped_packets".to_string(), 1),
            ]
        );
    }

    #[test]
    fn multipath_policies_trade_lte_bytes_for_availability() {
        let secs = 120;
        let run = |policy| {
            run_multipath_commute_config_instrumented(&commute_config(policy), secs, 21, &off()).0
        };
        let wifi_only = run(MultipathPolicy::WifiOnly);
        let preferred = run(MultipathPolicy::WifiPreferred);
        let aggregate = run(MultipathPolicy::Aggregate);
        let lte = |o: &ArFlowOutcome| o.sender.borrow().cellular_bytes;
        let delivered = |o: &ArFlowOutcome| {
            o.receiver.borrow().by_kind.values().map(|k| k.delivered).sum::<u64>()
        };
        // LTE usage: WifiOnly ≤ WifiPreferred ≤ Aggregate (policy 1 barely
        // touches LTE, policy 3 uses it all the time).
        assert!(lte(&wifi_only) < lte(&preferred), "{} vs {}", lte(&wifi_only), lte(&preferred));
        assert!(lte(&preferred) < lte(&aggregate));
        // Delivery: WifiOnly loses the most (gaps drop its video).
        assert!(delivered(&wifi_only) < delivered(&preferred));
    }

    #[test]
    fn fault_scenario_labels_round_trip() {
        for sc in FaultScenario::ALL {
            assert_eq!(FaultScenario::from_label(sc.label()), Some(sc));
        }
        assert_eq!(FaultScenario::from_label("meteor-strike"), None);
    }

    #[test]
    fn fault_runs_are_deterministic() {
        let a = faults(FaultScenario::LinkOutage, true);
        let b = faults(FaultScenario::LinkOutage, true);
        assert_eq!(a, b, "same inputs must reproduce the outcome bit for bit");
    }

    #[test]
    fn hardened_stack_beats_baseline_on_link_outage_recovery() {
        let baseline = faults(FaultScenario::LinkOutage, false);
        let hardened = faults(FaultScenario::LinkOutage, true);
        let b_ms = baseline.recovery_ms.expect("baseline recovers from a pure link outage");
        let h_ms = hardened.recovery_ms.expect("hardened recovers from a pure link outage");
        // Freshest-frame retention: the hardened arm banks the newest frame
        // during the outage and sends it the instant the link returns.
        assert!(h_ms < b_ms, "hardened {h_ms} ms must beat baseline {b_ms} ms");
        assert!(h_ms < 75.0, "QoE restored within one frame budget: {h_ms} ms");
        assert!(hardened.outages_detected >= 1, "watchdog engaged");
        assert!(hardened.recovery_probes >= 1, "probes paced by backoff");
        assert!(hardened.qoe_under_fault_pct >= baseline.qoe_under_fault_pct);
        assert_eq!(baseline.outages_detected, 0, "baseline is blind to the outage");
    }

    #[test]
    fn cold_edge_crash_is_fatal_without_session_resync() {
        let baseline = faults(FaultScenario::EdgeCrash, false);
        let hardened = faults(FaultScenario::EdgeCrash, true);
        // The baseline keeps stamping the dead epoch after the cold
        // restart; the fresh incarnation discards every packet and QoE
        // never returns (censored at the horizon).
        assert_eq!(baseline.recovery_ms, None, "baseline must never recover");
        assert_eq!(baseline.session_resyncs, 0);
        let h_ms = hardened.recovery_ms.expect("resync restores the session");
        assert!(h_ms < 150.0, "hardened recovery {h_ms} ms");
        assert_eq!(hardened.session_resyncs, 1);
        assert!(hardened.delivered_in_budget_pct > baseline.delivered_in_budget_pct + 30.0);
    }

    #[test]
    fn warm_edge_reboot_is_benign_for_both_arms() {
        let baseline = faults(FaultScenario::EdgeReboot, false);
        let hardened = faults(FaultScenario::EdgeReboot, true);
        // No state loss → no epoch bump → no resync needed; both arms
        // recover within about one frame budget and hardening costs
        // nothing. The half-second hole is NACKed but its deadlines are
        // long past, so recovery abandons it instead of storming.
        for (label, o) in [("baseline", &baseline), ("hardened", &hardened)] {
            let ms = o.recovery_ms.unwrap_or(f64::INFINITY);
            assert!(ms < 75.0, "{label} recovery {ms} ms");
            assert_eq!(o.session_resyncs, 0, "{label} must not resync");
            assert!(o.retransmits <= 64, "{label} retransmits bounded: {}", o.retransmits);
        }
    }

    /// Trace-based regression for the scripted 500 ms outage: the flight
    /// recorder must show the watchdog engaging outage degradation within
    /// one RTT of the injected fault, resolving shortly after it clears,
    /// and retransmissions staying bounded throughout.
    #[test]
    fn outage_trace_degradation_engages_within_one_rtt() {
        let telemetry = TelemetryOptions { trace_capacity: Some(1 << 15), metrics: false };
        let cfg = FaultScenario::stack_config(true);
        let (outcome, _, capture) =
            run_faults_config_instrumented(FaultScenario::LinkOutage, &cfg, 500, 6, 42, &telemetry);
        let events = &capture.events;
        let first = |kind: TraceKind| {
            events.iter().find(|e| e.kind == kind).map(|e| e.t).unwrap_or_else(|| {
                panic!("trace must contain a {} event", kind.name());
            })
        };
        let inject = first(TraceKind::FaultInject);
        let detect = first(TraceKind::OutageDetect);
        // A feedback packet still in flight at the cut can briefly resolve
        // the first detection; the resolve that ends the outage is the last.
        let resolve = events
            .iter()
            .filter(|e| e.kind == TraceKind::OutageResolve)
            .map(|e| e.t)
            .max()
            .expect("trace must contain an outage-resolve event");
        let rtt_nanos = 20_000_000;
        assert!(detect >= inject, "detection follows injection");
        assert!(
            detect - inject <= rtt_nanos,
            "outage degradation must engage within one RTT: {} ns",
            detect - inject
        );
        let fault_end = inject + 500_000_000;
        assert!(
            resolve > fault_end && resolve - fault_end <= 50_000_000,
            "outage resolves within a few feedback intervals of the clear"
        );
        // Degradation actually shed superseded frames during the fault.
        assert!(
            events
                .iter()
                .any(|e| e.kind == TraceKind::ClassDegrade && e.t >= inject && e.t < fault_end),
            "retention must shed superseded frames during the outage"
        );
        // Bounded recovery: no retransmission storm accompanies the outage.
        assert_eq!(outcome.retransmits_during_fault, 0, "nothing to retransmit while dark");
        assert!(outcome.retransmits <= 64, "whole-run retransmits bounded");
    }

    #[test]
    fn cityscale_background_load_degrades_cell_qoe() {
        // Light load: offered ≈ 0.4 Gb/s on a 1 Gb/s backhaul — the
        // foreground keeps its full cell rate and MAR latency stays at
        // propagation + serialization. Overload: offered ≈ 3.6 Gb/s —
        // the foreground share collapses below the MAR stream's 6 Mb/s
        // and queueing delay dominates.
        let light = cityscale(2_000, 6, 13);
        let heavy = cityscale(20_000, 6, 13);
        let light_p95 = light.mar.borrow().latency_ms.clone().p95().unwrap();
        let heavy_p95 = heavy.mar.borrow().latency_ms.clone().p95().unwrap();
        assert!(light_p95 < 20.0, "unloaded cell p95 {light_p95} ms");
        assert!(
            heavy_p95 > light_p95 * 4.0,
            "overload must inflate MAR p95: {light_p95} → {heavy_p95} ms"
        );
        // The background tier actually ran at scale and conserved flows.
        let bg = heavy.background.borrow();
        assert!(bg.offered > 10_000, "offered {}", bg.offered);
        let fl = heavy.fluid.borrow();
        assert_eq!(fl.started, bg.offered);
        assert!(fl.finished <= fl.started);
    }

    #[test]
    fn dense_cell_packets_in_flight_wait_in_the_links_lines_not_the_heap() {
        // The mechanism behind the dense cell's speed: NIC hand-offs are
        // same-instant events, every departure and (constant-delay)
        // arrival sorts behind the previous one on its link, and every
        // MAR source's tick behind the previous one of its interval, so
        // only the TCP flows' timers are left to the heap — and moving
        // entries between the queue's structures adds or removes no event.
        let metered = TelemetryOptions { trace_capacity: None, metrics: true };
        let queue = QueueConfig::DropTail { cap_packets: 1_000 };
        let (out, events, capture) =
            run_queueing_instrumented(400.0, queue, 0, 180, 20, 2, 7, &metered);
        assert_eq!(events, DENSE_CELL_EVENTS, "an event was added or removed");
        let q = out.queue;
        let pushes = q.heap_pushes + q.lane_pushes + q.line_pushes;
        assert!(
            (q.lane_pushes + q.line_pushes) * 100 >= pushes * 90,
            "only {} lane + {} line of {pushes} pushes bypassed the heap",
            q.lane_pushes,
            q.line_pushes
        );
        assert!(q.line_pushes > q.lane_pushes / 2, "the lines carry the packets: {q:?}");
        // A metrics-on run publishes the same counters, after the run.
        let snap = capture.metrics.expect("metrics on must snapshot");
        let counter = |name: &str| snap.counters[&format!("sim.engine.queue.{name}")];
        assert_eq!(
            [counter("heap_pushes"), counter("lane_pushes"), counter("line_pushes")],
            [q.heap_pushes, q.lane_pushes, q.line_pushes]
        );
        assert_eq!(
            [counter("rearms"), counter("cancels"), counter("peak_depth")],
            [q.rearms, q.cancels, q.peak_depth]
        );
    }

    #[test]
    fn cityscale_messages_skip_the_heap_and_the_fluid_timer_moves_in_place() {
        // The mechanism behind the city-scale speed: flow starts, flow
        // completions and rate updates are same-instant messages, the
        // fluid tier moves its one completion timer on each of them, and
        // the clients' think timers wait in a bank outside the queue.
        let out = cityscale(20_000, 4, 31);
        let q = out.queue;
        let pushes = q.heap_pushes + q.lane_pushes + q.line_pushes;
        assert!(
            q.lane_pushes * 10 > pushes * 4,
            "only {} of {pushes} pushes took the same-instant lane",
            q.lane_pushes
        );
        // Every recompute with a flow in progress re-arms; only the few
        // that find the timer just fired (or nothing to wait for) do not.
        // (The bank's own re-arms, when a new think timer takes its lead,
        // count too.)
        let recomputes = out.fluid.borrow().recomputes;
        assert!(
            q.rearms * 10 > recomputes * 7,
            "{} re-arms over {recomputes} recomputes",
            q.rearms
        );
        assert_eq!(q.cancels, 0, "nothing in this scenario cancels a timer outright");
        // 20 000 think timers are pending throughout, and the queue holds
        // one entry for all of them: what is left is the cell's packets in
        // flight, a few timers and one instant's messages.
        assert!(q.peak_depth <= 64, "peak queue depth {}", q.peak_depth);
    }

    #[test]
    fn cityscale_event_counts_are_those_of_per_client_engine_timers() {
        // Counted when every client's think timer was an engine timer of
        // its own and every class's completions one binary heap: moving
        // where pending work waits adds, removes and reorders no event.
        let counts = |clients, secs, seed| {
            let (out, events, _) = run_cityscale_instrumented(clients, 1.0, secs, seed, &off());
            let (bg, fluid) = (out.background.borrow(), out.fluid.borrow());
            [events, bg.offered, bg.completed, fluid.recomputes]
        };
        assert_eq!(counts(20_000, 6, 13), [92_018, 22_130, 6_132, 28_263]);
        assert_eq!(counts(5_000, 4, 29), [47_844, 9_162, 8_681, 17_844]);
    }

    #[test]
    fn cityscale_replays_bit_identically() {
        // The trace's flow records carry every transfer's start and
        // duration, its packet records every MAR packet's path.
        let traced = TelemetryOptions { trace_capacity: Some(1 << 16), metrics: false };
        let run = || {
            let (o, _, capture) = run_cityscale_instrumented(5_000, 1.0, 4, 29, &traced);
            let mar = o.mar.borrow();
            let bg = o.background.borrow();
            let fingerprint = (
                mar.packets,
                mar.bytes,
                mar.latency_ms.values().to_vec(),
                bg.offered,
                bg.completed,
                o.fluid.borrow().recomputes,
            );
            (fingerprint, capture.events)
        };
        let (a, b) = (run(), run());
        assert!(a.1.len() < 1 << 16, "the trace ring wrapped");
        assert!(a.1.iter().any(|e| e.kind == TraceKind::FlowFinish), "no flow finished");
        assert_eq!(a, b);
    }
}
