//! The program surface: the only file of the benchmark that names items
//! of the program under test. Everything else talks to the simulator, the
//! lab and the trainer through the plain-data types defined here and in
//! `workloads.rs`, so a refactor that renames or reshapes a program item
//! has exactly one place to follow — and README.md lists the items below
//! as the signatures later refactors must keep or adapt here.
//!
//! Three sections: scenario calls (the six simulator workloads), the lab
//! pass (the `lab-sweep` workload), and the drives (each layer's public
//! functions timed in isolation).

use crate::span::SpanLog;
use crate::stats::median;
use crate::workloads::{Call, CellQueue, Outcome, BUDGET_MS};
use marnet_bench::scenarios::{
    run_cityscale_instrumented, run_queueing_instrumented, run_recovery_instrumented,
    run_table2_instrumented, CityscaleOutcome, QueueingOutcome, RecoveryMechanism, RecoveryOutcome,
    Table2Scenario, CITYSCALE_MAR_MBPS, CITYSCALE_MAR_PACKET_BYTES,
};
use marnet_core::class::StreamKind;
use marnet_core::congestion::{CongestionConfig, DelayCongestionController};
use marnet_core::degradation::DegradationScheduler;
use marnet_core::fec::{xor_into, FecGroupTracker, FecOutcome};
use marnet_core::message::ArMessage;
use marnet_core::multipath::{MultipathPolicy, MultipathScheduler, PathRole, PathSnapshot};
use marnet_core::recovery::{FragmentRecord, RetransmitBuffer};
use marnet_flow::maxmin::{max_min_rates_into, ClassDemand, MaxMinScratch};
use marnet_lab::experiments;
use marnet_lab::runner::{run_experiment, ExperimentRun, TrialReport};
use marnet_lab::spec::{ParamValue, ScenarioSpec};
use marnet_lab::train::{run_training, TrainOptions};
use marnet_lab::{aggregate_run, Artifact};
use marnet_sim::engine::{Actor, ActorId, Event, SimCtx, Simulator};
use marnet_sim::link::{Bandwidth, LinkId, LinkParams};
use marnet_sim::packet::{Packet, PayloadPool};
use marnet_sim::queue::QueueConfig;
use marnet_sim::stats::Histogram;
use marnet_sim::time::{SimDuration, SimTime};
use marnet_telemetry::file::{decode, encode};
use marnet_telemetry::recorder::TraceSink;
use marnet_telemetry::{
    MetricsSnapshot, TelemetryOptions, TraceEvent, TraceKind, DEFAULT_TRACE_CAPACITY,
};
use marnet_trainer::{
    run_search, Evaluation, Objectives, PolicySpace, TrainConfig as SearchConfig,
};
use marnet_transport::nic::TxPath;
use marnet_transport::probe::ProbeStats;
use marnet_transport::tcp::{Reno, TcpConfig, TcpReceiver, TcpSender};
use marnet_transport::udp::{UdpSink, UdpSource};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::rc::Rc;
use std::time::Instant;

// ---------------------------------------------------------------------------
// Telemetry plumbing
// ---------------------------------------------------------------------------

/// What the program's telemetry captures during a call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Recorder {
    /// Everything off: the configuration end-to-end metrics are measured in.
    Off,
    /// Flight recorder on at the default ring capacity.
    Trace,
    /// Flight recorder and metrics registry on: the counting run.
    Full,
}

impl Recorder {
    fn options(self) -> TelemetryOptions {
        match self {
            Recorder::Off => TelemetryOptions::disabled(),
            Recorder::Trace => {
                TelemetryOptions { trace_capacity: Some(DEFAULT_TRACE_CAPACITY), metrics: false }
            }
            Recorder::Full => TelemetryOptions::full(DEFAULT_TRACE_CAPACITY),
        }
    }
}

/// A recorded event stream, opaque to the rest of the benchmark.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Trace(Vec<TraceEvent>);

impl Trace {
    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// The on-disk encoding, built in memory (the recorder's write path).
    pub fn encode(&self) -> Vec<u8> {
        encode(&self.0)
    }

    /// Decodes an encoding (the read path); `None` if the bytes are bad.
    pub fn decode(bytes: &[u8]) -> Option<Trace> {
        decode(bytes).ok().map(Trace)
    }

    /// Adds this trace's per-kind tallies to `counts`.
    pub fn tally_into(&self, counts: &mut Counts) {
        counts.events_recorded += self.0.len() as u64;
        for e in &self.0 {
            match e.kind {
                TraceKind::FecRepair => counts.fec_repairs += 1,
                TraceKind::ClassAdmit => counts.class_admits += 1,
                TraceKind::ClassDegrade => counts.sheds += 1,
                TraceKind::FlowRate => counts.rate_updates += 1,
                _ => {}
            }
        }
    }
}

/// Exact work counts of one body, from the program's own telemetry: trace
/// tallies for events whose kinds fit the ring, metrics counters for the
/// link totals (a dense cell wraps the ring many times over).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Trace events retained by the flight recorder.
    pub events_recorded: u64,
    /// Packets offered to a link queue.
    pub pkts_enqueued: u64,
    /// Packets delivered at the far end of a link.
    pub pkts_delivered: u64,
    /// Packets dropped by a queue, AQM, loss or a dead link.
    pub pkts_dropped: u64,
    /// Of those, dropped by the queue discipline (tail drop or AQM).
    pub queue_drops: u64,
    /// FEC reconstructions.
    pub fec_repairs: u64,
    /// Messages admitted by a traffic class.
    pub class_admits: u64,
    /// Degradation-scheduler shed events.
    pub sheds: u64,
    /// Fluid flows started.
    pub flow_starts: u64,
    /// Fluid flows finished.
    pub flow_finishes: u64,
    /// Max-min rate changes pushed to a flow class.
    pub rate_updates: u64,
    /// Max-min recomputes.
    pub recomputes: u64,
}

impl Counts {
    fn add_metrics(&mut self, snap: &MetricsSnapshot) {
        for (name, &v) in &snap.counters {
            if name.starts_with("sim.link.") {
                if name.ends_with(".offered_packets") {
                    self.pkts_enqueued += v;
                } else if name.ends_with(".delivered_packets") {
                    self.pkts_delivered += v;
                } else if name.ends_with(".drops_queue") || name.ends_with(".drops_aqm") {
                    self.pkts_dropped += v;
                    self.queue_drops += v;
                } else if name.ends_with(".drops_loss") || name.ends_with(".drops_down") {
                    self.pkts_dropped += v;
                }
            } else {
                match name.as_str() {
                    "flow.started" => self.flow_starts += v,
                    "flow.finished" => self.flow_finishes += v,
                    "flow.recomputes" => self.recomputes += v,
                    _ => {}
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Scenario calls
// ---------------------------------------------------------------------------

/// A finished scenario call, before its statistics are collected.
#[derive(Debug)]
pub struct Ran {
    events: u64,
    trace: Trace,
    metrics: Option<MetricsSnapshot>,
    result: RanResult,
}

#[derive(Debug)]
enum RanResult {
    Recovery(RecoveryOutcome),
    Offload { stats: Rc<RefCell<ProbeStats>>, paper_ms: f64 },
    Cell { out: QueueingOutcome, offered: f64 },
    City { out: CityscaleOutcome, offered: f64 },
}

/// Runs one scenario call of a workload body.
pub fn run_call(call: &Call, recorder: Recorder) -> Ran {
    let telemetry = recorder.options();
    let (result, events, capture) = match *call {
        Call::Recovery { rtt_ms, loss, mechanism, secs, seed } => {
            let mechanism = RecoveryMechanism::ALL[mechanism];
            let (out, events, capture) =
                run_recovery_instrumented(rtt_ms, loss, mechanism, secs, seed, &telemetry);
            (RanResult::Recovery(out), events, capture)
        }
        Call::Offload { scenario, probes, bytes, seed } => {
            let scenario = Table2Scenario::ALL[scenario];
            let (stats, events, capture) =
                run_table2_instrumented(scenario, probes, bytes, bytes, seed, &telemetry);
            (RanResult::Offload { stats, paper_ms: scenario.labels().2 as f64 }, events, capture)
        }
        Call::Cell { up_mbps, queue, n_mar, n_bulk, secs, seed } => {
            let queue = match queue {
                CellQueue::DropTail { cap_packets } => QueueConfig::DropTail { cap_packets },
                CellQueue::FqCodel => QueueConfig::fq_codel_default(),
            };
            let (out, events, capture) =
                run_queueing_instrumented(up_mbps, queue, 0, n_mar, n_bulk, secs, seed, &telemetry);
            // 1200-byte datagrams paced at 1.5 Mb/s per MAR stream.
            let offered = n_mar as f64 * 1.5e6 / (1200.0 * 8.0) * secs as f64;
            (RanResult::Cell { out, offered }, events, capture)
        }
        Call::City { clients, backhaul_gbps, secs, seed } => {
            let (out, events, capture) =
                run_cityscale_instrumented(clients, backhaul_gbps, secs, seed, &telemetry);
            let offered = CITYSCALE_MAR_MBPS * 1e6 / (f64::from(CITYSCALE_MAR_PACKET_BYTES) * 8.0)
                * secs as f64;
            (RanResult::City { out, offered }, events, capture)
        }
    };
    Ran { events, trace: Trace(capture.events), metrics: capture.metrics, result }
}

/// Samples of a latency histogram within the 75 ms budget.
fn within_budget(h: &Histogram) -> f64 {
    h.fraction_at_most(BUDGET_MS) * h.count() as f64
}

/// Latency-bound share of a merged one-way latency histogram.
fn latency_outcome(events: u64, mut h: Histogram, packets: u64, offered: f64) -> Outcome {
    let offered = offered.max(1.0);
    Outcome {
        events,
        in_budget_pct: within_budget(&h) / offered * 100.0,
        delivered_pct: packets as f64 / offered * 100.0,
        mar_p95_ms: h.p95(),
        ..Outcome::default()
    }
}

impl Ran {
    /// Simulator events the call processed.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Takes the recorded trace out of the result.
    pub fn take_trace(&mut self) -> Trace {
        std::mem::take(&mut self.trace)
    }

    /// Adds the call's metrics-registry counters to `counts`.
    pub fn count_into(&self, counts: &mut Counts) {
        if let Some(snap) = &self.metrics {
            counts.add_metrics(snap);
        }
    }

    /// Reduces the program's statistics objects to the plain numbers the
    /// benchmark reports and digests.
    pub fn collect(self) -> Outcome {
        match self.result {
            RanResult::Recovery(out) => Outcome {
                events: self.events,
                in_budget_pct: out.delivered_in_budget_pct,
                delivered_pct: out.delivered_total_pct,
                overhead_pct: Some(out.overhead_pct),
                ..Outcome::default()
            },
            RanResult::Offload { stats, paper_ms } => {
                let st = stats.borrow();
                let mut h = st.rtt_ms.clone();
                let sent = st.sent.max(1) as f64;
                Outcome {
                    events: self.events,
                    in_budget_pct: within_budget(&h) / sent * 100.0,
                    delivered_pct: st.received as f64 / sent * 100.0,
                    rtt_median_and_paper_ms: h.median().map(|m| (m, paper_ms)),
                    extra: vec![st.sent as f64, st.received as f64],
                    ..Outcome::default()
                }
            }
            RanResult::Cell { out, offered } => {
                let mut h = Histogram::new();
                let mut packets = 0;
                for sink in &out.mar {
                    let st = sink.borrow();
                    h.merge(&st.latency_ms);
                    packets += st.packets;
                }
                let goodput: u64 = out.bulk.iter().map(|r| r.borrow().goodput_bytes).sum();
                let mut o = latency_outcome(self.events, h, packets, offered);
                o.extra = vec![packets as f64, goodput as f64];
                o
            }
            RanResult::City { out, offered } => {
                let mar = out.mar.borrow();
                let bg = out.background.borrow();
                let fl = out.fluid.borrow();
                let mut o =
                    latency_outcome(self.events, mar.latency_ms.clone(), mar.packets, offered);
                o.extra = vec![
                    mar.packets as f64,
                    bg.offered as f64,
                    bg.completed as f64,
                    fl.started as f64,
                    fl.finished as f64,
                    fl.recomputes as f64,
                ];
                o
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The lab pass (`lab-sweep`)
// ---------------------------------------------------------------------------

/// The committed reference artifacts the lab pass is checked against.
/// They live outside `benchmark/` on purpose: they move with the repo.
const GOLDEN_TABLE2: &str = "results/lab_table2_rtt.json";
const GOLDEN_TRAIN: &str = "results/lab_train_smoke.json";

/// What one pass over the lab's user-facing pipeline produced.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LabPass {
    /// Trials attempted (the four sweeps plus the training portfolio).
    pub trials: u64,
    /// Trials the runner recorded as failed.
    pub failures: u64,
    /// Every artifact's canonical JSON, sweeps first, then the front.
    pub artifacts: Vec<String>,
    /// Drifts `Artifact::diff` reported against the committed Table II
    /// artifact (expected: none).
    pub drifts: usize,
    /// Mean in-budget share over the recovery sweep's points.
    pub in_budget_pct: f64,
    /// Largest relative error of a Table II median against the paper.
    pub paper_rtt_err_pct: f64,
    /// Trace events the trials recorded.
    pub events_recorded: u64,
    /// Seconds spent in `experiments::build` — the lab's set-up.
    pub build_s: f64,
    /// Candidate evaluations of the training run.
    pub evaluations: u64,
}

/// Largest |median − paper| ÷ paper over Table II rows given as
/// `(median_ms, paper_ms)`.
pub fn paper_rtt_err_pct(rows: impl IntoIterator<Item = (f64, f64)>) -> f64 {
    rows.into_iter().map(|(m, p)| (m - p).abs() / p * 100.0).fold(0.0, f64::max)
}

fn run_sweep(
    name: &str,
    replicates: u32,
    seed: u64,
    threads: usize,
    recorder: Recorder,
    log: &mut SpanLog,
    pass: &mut LabPass,
) -> Artifact {
    let started = Instant::now();
    let exp = log.scope("build", || {
        experiments::build(name, replicates, seed, &recorder.options()).expect("built-in sweep")
    });
    pass.build_s += started.elapsed().as_secs_f64();
    let run = log.scope("run_experiment", || run_experiment(&exp.spec, threads, &exp.trial));
    pass.trials += run.spec.trial_count() as u64;
    pass.failures += run.failures.len() as u64;
    pass.events_recorded +=
        run.reports.iter().flatten().flatten().map(|r| r.events.len() as u64).sum::<u64>();
    let artifact = log.scope("aggregate", || Artifact::from_run(&run));
    pass.artifacts.push(log.scope("to_json", || artifact.to_json()));
    artifact
}

/// One pass of what a `marnet-lab` user waits for: four sweeps through
/// build → run → aggregate → JSON, a baseline load + diff against the
/// committed Table II artifact, and the smoke-tier training run.
/// `sweeps` is `(experiment name, replicates)`; the sweeps take `seed`,
/// the training run keeps its committed seed so its front can be checked
/// byte-for-byte.
pub fn lab_pass(
    sweeps: &[(&str, u32)],
    seed: u64,
    threads: usize,
    recorder: Recorder,
    log: &mut SpanLog,
) -> LabPass {
    let mut pass = LabPass::default();
    for &(name, replicates) in sweeps {
        let artifact = run_sweep(name, replicates, seed, threads, recorder, log, &mut pass);
        match name {
            "sweep_recovery" => {
                let n = artifact.points.len().max(1) as f64;
                pass.in_budget_pct = artifact
                    .points
                    .iter()
                    .map(|p| p.scalars["delivered_in_budget_pct"].mean)
                    .sum::<f64>()
                    / n;
            }
            "table2_rtt" => {
                // Grid order is Table II row order.
                pass.paper_rtt_err_pct = paper_rtt_err_pct(
                    artifact
                        .points
                        .iter()
                        .zip(Table2Scenario::ALL)
                        .map(|(p, s)| (p.scalars["median_ms"].mean, s.labels().2 as f64)),
                );
                pass.drifts = log.scope("load_diff", || {
                    let golden = Artifact::load(Path::new(GOLDEN_TABLE2)).expect("golden loads");
                    artifact.diff(&golden).len()
                });
            }
            _ => {}
        }
    }
    let options = TrainOptions { threads, ..TrainOptions::smoke() };
    let (result, front) = log.scope("train", || run_training(&options));
    pass.evaluations = result.archive.len() as u64;
    pass.trials +=
        pass.evaluations * marnet_lab::train::MEMBERS.len() as u64 * u64::from(options.replicates);
    pass.artifacts.push(front.to_json());
    pass
}

/// Checks the lab against the committed goldens: `table2_rtt` at its
/// default spec and the smoke front must reproduce the files byte for
/// byte. `front_json` is the front a pass produced. Returns what differs.
pub fn lab_golden_mismatches(front_json: &str) -> Vec<&'static str> {
    let same = |ours: &str, path: &str| {
        std::fs::read_to_string(path).is_ok_and(|golden| golden.trim_end() == ours.trim_end())
    };
    let mut bad = Vec::new();
    let table2 = Artifact::load(Path::new(GOLDEN_TABLE2)).ok().map(|golden| {
        let exp = experiments::build(
            "table2_rtt",
            golden.replicates,
            golden.seed,
            &Recorder::Off.options(),
        )
        .expect("built-in sweep");
        Artifact::from_run(&run_experiment(&exp.spec, 1, &exp.trial)).to_json()
    });
    if !table2.is_some_and(|ours| same(&ours, GOLDEN_TABLE2)) {
        bad.push(GOLDEN_TABLE2);
    }
    if !same(front_json, GOLDEN_TRAIN) {
        bad.push(GOLDEN_TRAIN);
    }
    bad
}

// ---------------------------------------------------------------------------
// Drives: one layer's public functions, timed in isolation
// ---------------------------------------------------------------------------

/// One drive's result, raw (uncalibrated).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Drive {
    /// Per-layer metric name.
    pub name: &'static str,
    /// Measured value, in the unit `metrics.rs` declares for `name`.
    pub raw: f64,
    /// `true` for a time (scales with 1/speed), `false` for a rate.
    pub time_like: bool,
}

/// Rounds per drive; the value is the median round (round one doubles as
/// the warm-up).
const DRIVE_ROUNDS: usize = 5;

/// Median over the rounds of `f`'s wall time per operation it reports, ns.
fn ns_per_op(mut f: impl FnMut() -> u64) -> f64 {
    let mut samples = [0.0; DRIVE_ROUNDS];
    for s in &mut samples {
        let start = Instant::now();
        let ops = f().max(1);
        *s = start.elapsed().as_nanos() as f64 / ops as f64;
    }
    median(&samples)
}

/// A time per operation (or a duration).
fn ns(name: &'static str, raw: f64) -> Drive {
    Drive { name, raw, time_like: true }
}

/// A throughput in MB/s (or Gb/s ÷ 8) from ns per byte.
fn mb_per_s(name: &'static str, ns_per_byte: f64) -> Drive {
    Drive { name, raw: 1e3 / ns_per_byte, time_like: false }
}

/// Timer ping-pong actor with `parked` far-future timers keeping the event
/// heap deep, or a schedule+cancel churner when `cancel_batch` is set.
struct Pinger {
    parked: u64,
    cancel_batch: u64,
}

const PING: SimDuration = SimDuration::from_micros(1);

impl Actor for Pinger {
    fn on_event(&mut self, ctx: &mut SimCtx, ev: Event) {
        match ev {
            Event::Start => {
                for i in 0..self.parked {
                    ctx.schedule_timer(
                        SimDuration::from_secs(3_600) + SimDuration::from_nanos(i),
                        1,
                    );
                }
                ctx.schedule_timer(PING, 0);
            }
            Event::Timer { tag: 0 } => {
                for i in 0..self.cancel_batch {
                    let handle = ctx.schedule_timer(SimDuration::from_millis(i + 1), 1);
                    ctx.cancel_timer(handle);
                }
                ctx.schedule_timer(PING, 0);
            }
            _ => {}
        }
    }
}

/// ns per event of a null-actor timer ping with `parked` pending timers
/// (start-up, which parks them, is untimed). With `cancel_batch > 0` each
/// ping also schedules and cancels that many timers and the result is ns
/// per schedule+cancel pair.
fn engine_ping_ns(parked: u64, pings: u64, cancel_batch: u64) -> f64 {
    let mut samples = [0.0; DRIVE_ROUNDS];
    for s in &mut samples {
        let mut sim = Simulator::new(1);
        sim.add_actor(Pinger { parked, cancel_batch });
        sim.run_until(SimTime::ZERO);
        let start = Instant::now();
        let events = sim.run_until(SimTime::from_micros(pings));
        let ops = events.max(1) * cancel_batch.max(1);
        *s = start.elapsed().as_nanos() as f64 / ops as f64;
    }
    median(&samples)
}

/// Sends `burst` packets per tick down one link into a sink that drops
/// them; used for the link drive.
struct Blaster {
    link: LinkId,
    burst: u32,
    size: u32,
}

impl Actor for Blaster {
    fn on_event(&mut self, ctx: &mut SimCtx, ev: Event) {
        if matches!(ev, Event::Start | Event::Timer { .. }) {
            for _ in 0..self.burst {
                let id = ctx.next_packet_id();
                let pkt = Packet::new(id, id % 64, self.size, ctx.now());
                ctx.transmit(self.link, pkt);
            }
            ctx.schedule_timer(SimDuration::from_micros(100), 0);
        }
    }
}

struct NullSink;

impl Actor for NullSink {
    fn on_event(&mut self, _ctx: &mut SimCtx, ev: Event) {
        black_box(&ev);
    }
}

/// `(ns per packet, engine events per packet)` of transmit → queue →
/// serialize → deliver into a null sink over one clean 10 Gb/s link,
/// 32-packet bursts.
fn link_ns_per_pkt() -> (f64, f64) {
    let mut events_per_pkt = 0.0;
    let ns = ns_per_op(|| {
        let mut sim = Simulator::new(2);
        let src = sim.reserve_actor();
        let dst = sim.reserve_actor();
        let link = sim.add_link(
            src,
            dst,
            LinkParams::new(Bandwidth::from_gbps(10.0), SimDuration::from_micros(50)),
        );
        sim.install_actor(src, Blaster { link, burst: 32, size: 400 });
        sim.install_actor(dst, NullSink);
        let events = sim.run_until(SimTime::from_millis(400));
        let pkts = sim.ctx().link_stats(link).delivered_packets;
        events_per_pkt = events as f64 / pkts.max(1) as f64;
        pkts
    });
    (ns, events_per_pkt)
}

/// ns per packet of one enqueue + one dequeue through a queue discipline
/// built the way links build it, in 64-packet bursts over 256 flows and
/// four priority bands, below every drop threshold.
fn queue_ns_per_pkt(config: &QueueConfig) -> f64 {
    const BURSTS: u64 = 2_000;
    const BURST: u64 = 64;
    ns_per_op(|| {
        let mut q = config.build();
        let mut id = 0u64;
        let mut out = 0u64;
        for b in 0..BURSTS {
            let now = SimTime::from_micros(b * 200);
            for _ in 0..BURST {
                id += 1;
                let pkt = Packet::new(id, id % 256, 1_200, now).with_prio((id % 4) as u8);
                black_box(q.enqueue(pkt, now).is_enqueued());
            }
            let later = SimTime::from_micros(b * 200 + 100);
            while let Some(pkt) = q.dequeue(later).packet {
                out += u64::from(pkt.size > 0);
            }
        }
        black_box(out);
        BURSTS * BURST
    })
}

#[derive(Debug, Clone)]
struct PoolItem([u64; 7]);

fn drives_sim() -> Vec<Drive> {
    let shallow = engine_ping_ns(0, 600_000, 0);
    let deep = engine_ping_ns(100_000, 300_000, 0);
    let cancel = engine_ping_ns(0, 2_000, 100);
    // The link's own cost: the drive's per-packet time minus what the
    // event core charges for the events a packet takes.
    let (link_gross, link_events) = link_ns_per_pkt();
    let link = (link_gross - link_events * shallow).max(0.0);
    let pool = ns_per_op(|| {
        let mut pool: PayloadPool<PoolItem> = PayloadPool::new();
        for i in 0..400_000u64 {
            black_box(pool.prepare(|| PoolItem([i; 7]), |item| item.0[0] = i));
        }
        400_000
    });
    let record = ns_per_op(|| {
        let mut h = Histogram::new();
        for i in 0..1_000_000u64 {
            h.record((i % 977) as f64);
        }
        black_box(h.count());
        1_000_000
    });
    let mut part = Histogram::new();
    for i in 0..10_000u64 {
        part.record((i * 7 % 1_013) as f64);
    }
    let merge = ns_per_op(|| {
        let mut total = Histogram::new();
        for _ in 0..50 {
            total.merge(&part);
        }
        black_box(total.count());
        50
    });
    vec![
        ns("sim.engine.ns_per_event_shallow", shallow),
        ns("sim.engine.ns_per_event_deep", deep),
        ns("sim.engine.ns_per_cancel", cancel),
        ns("sim.link.ns_per_pkt", link),
        ns(
            "sim.queue.droptail_ns_per_pkt",
            queue_ns_per_pkt(&QueueConfig::DropTail { cap_packets: 1_000 }),
        ),
        ns("sim.queue.codel_ns_per_pkt", queue_ns_per_pkt(&QueueConfig::codel_default())),
        ns("sim.queue.fqcodel_ns_per_pkt", queue_ns_per_pkt(&QueueConfig::fq_codel_default())),
        ns(
            "sim.queue.prio_ns_per_pkt",
            queue_ns_per_pkt(&QueueConfig::StrictPriority { bands: 4, cap_packets_per_band: 250 }),
        ),
        ns("sim.packet.pool_ns_per_prepare", pool),
        ns("sim.stats.hist_ns_per_record", record),
        ns("sim.stats.hist_merge_ns", merge),
    ]
}

/// Two actors over one clean link pair; returns the simulator and the
/// forward/reverse links.
fn two_actor_sim(seed: u64) -> (Simulator, [ActorId; 2], [LinkId; 2]) {
    let mut sim = Simulator::new(seed);
    let a = sim.reserve_actor();
    let b = sim.reserve_actor();
    let params = || {
        LinkParams::new(Bandwidth::from_gbps(1.0), SimDuration::from_millis(1))
            .with_queue(QueueConfig::DropTail { cap_packets: 10_000 })
    };
    let fwd = sim.add_link(a, b, params());
    let rev = sim.add_link(b, a, params());
    (sim, [a, b], [fwd, rev])
}

fn drives_transport() -> Vec<Drive> {
    let udp = ns_per_op(|| {
        let (mut sim, [a, b], [fwd, _]) = two_actor_sim(3);
        sim.install_actor(a, UdpSource::with_rate_mbps(1, TxPath::Link(fwd), 400, 400.0));
        let sink = UdpSink::new(1);
        let stats = sink.stats();
        sim.install_actor(b, sink);
        sim.run_until(SimTime::from_secs(1));
        let packets = stats.borrow().packets;
        packets
    });
    let tcp = ns_per_op(|| {
        let (mut sim, [a, b], [fwd, rev]) = two_actor_sim(4);
        let sender =
            TcpSender::new(1, TxPath::Link(fwd), TcpConfig::default(), Box::new(Reno::new(1_460)));
        let stats = sender.stats();
        sim.install_actor(a, sender);
        sim.install_actor(b, TcpReceiver::new(1, TxPath::Link(rev)));
        sim.run_until(SimTime::from_secs(1));
        let segments = stats.borrow().segments_sent;
        segments
    });
    vec![ns("transport.udp.ns_per_pkt", udp), ns("transport.tcp.ns_per_segment", tcp)]
}

fn fragment(seq: u64) -> FragmentRecord {
    let (class, prio) = StreamKind::VideoReference.default_class();
    FragmentRecord {
        msg_id: seq / 5,
        frag_index: (seq % 5) as u32,
        frag_count: 5,
        size: 1_200,
        kind: StreamKind::VideoReference,
        class,
        created: SimTime::from_micros(seq),
        prio_band: prio.band(),
        deadline: Some(SimTime::from_micros(seq) + SimDuration::from_millis(75)),
        attempts: 1,
    }
}

fn drives_core() -> Vec<Drive> {
    // One FEC group of reference-frame fragments with a ragged tail, as in
    // the `fec_parity_throughput` Criterion group.
    const K: usize = 8;
    const BLOCK: usize = 6_001;
    let blocks: Vec<Vec<u8>> =
        (0..K).map(|i| (0..BLOCK).map(|j| (i * 31 + j) as u8).collect()).collect();
    let xor_ns_per_byte = ns_per_op(|| {
        let mut parity = Vec::with_capacity(BLOCK);
        for _ in 0..400 {
            parity.clear();
            for block in &blocks {
                xor_into(&mut parity, black_box(block));
            }
            black_box(parity.len());
        }
        (400 * K * BLOCK) as u64
    });
    let tracker = ns_per_op(|| {
        let mut t = FecGroupTracker::new();
        let mut recovered = 0u64;
        for g in 0..40_000u64 {
            let base = g * 8;
            // Seven of eight data packets arrive, then the parity.
            for s in 1..8 {
                black_box(t.on_data(g, base + s));
            }
            if t.on_parity(g, base..base + 8) != FecOutcome::Nothing {
                recovered += 1;
            }
        }
        black_box(recovered);
        40_000 * 8
    });
    let rtxbuf = ns_per_op(|| {
        let mut buf = RetransmitBuffer::new();
        let mut seq = 0u64;
        let mut ops = 0u64;
        for _ in 0..4_000 {
            let first = seq;
            for _ in 0..64 {
                buf.insert(0, seq, fragment(seq));
                seq += 1;
            }
            for nack in [first + 3, first + 17, first + 40] {
                black_box(buf.take(0, nack));
            }
            black_box(buf.ack_cumulative(0, seq - 1));
            ops += 64 + 3 + 1;
        }
        ops
    });
    let degradation = ns_per_op(|| {
        let mut shed = 0usize;
        for round in 0..400u64 {
            let mut s = DegradationScheduler::new(SimDuration::from_millis(150), 6.0);
            for i in 0..100 {
                let kind = match i % 4 {
                    0 => StreamKind::Metadata,
                    1 => StreamKind::Sensor,
                    2 => StreamKind::VideoReference,
                    _ => StreamKind::VideoInter,
                };
                s.submit(ArMessage::new(round * 100 + i, kind, 1_200, SimTime::ZERO));
            }
            shed += s.tick(SimTime::from_millis(5), 20_000.0).dropped.len();
        }
        black_box(shed);
        400 * 100
    });
    let snaps = [
        PathSnapshot {
            role: PathRole::Wifi,
            up: true,
            srtt: Some(SimDuration::from_millis(12)),
            rate: 500_000.0,
        },
        PathSnapshot {
            role: PathRole::Cellular,
            up: true,
            srtt: Some(SimDuration::from_millis(40)),
            rate: 200_000.0,
        },
    ];
    let (class, prio) = StreamKind::VideoInter.default_class();
    let multipath = ns_per_op(|| {
        let mut mp = MultipathScheduler::new(MultipathPolicy::Aggregate, true);
        for _ in 0..500_000 {
            black_box(mp.select(black_box(&snaps), class, prio, 1_200));
        }
        500_000
    });
    let congestion = ns_per_op(|| {
        let mut ctrl = DelayCongestionController::new(CongestionConfig::default());
        for t in (0..500_000u64).map(|i| i * 15) {
            black_box(ctrl.on_feedback(
                SimDuration::from_millis(20 + (t % 7)),
                0,
                Some(200_000.0),
                SimTime::from_millis(t),
            ));
        }
        500_000
    });
    vec![
        Drive { name: "core.fec.xor_gbps", raw: 8.0 / xor_ns_per_byte, time_like: false },
        ns("core.fec.tracker_ns_per_pkt", tracker),
        ns("core.recovery.rtxbuf_ns_per_op", rtxbuf),
        ns("core.degradation.ns_per_msg", degradation),
        ns("core.multipath.ns_per_select", multipath),
        ns("core.congestion.ns_per_feedback", congestion),
    ]
}

/// ns per max-min recompute over `classes` flow classes spread across
/// `links` links (class `i` crosses links `i % links` and the last one).
fn maxmin_ns(classes: usize, links: usize) -> f64 {
    let capacity: Vec<f64> = (0..links).map(|l| 1e9 * (1 + l) as f64).collect();
    let routes: Vec<Vec<usize>> = (0..classes)
        .map(|i| if i % links == links - 1 { vec![links - 1] } else { vec![i % links, links - 1] })
        .collect();
    let classes: Vec<ClassDemand<'_>> = routes
        .iter()
        .enumerate()
        .map(|(i, route)| ClassDemand {
            route,
            flows: 1 + (i as u64 * 37) % 5_000,
            cap_bps: if i % 2 == 0 { 2e6 } else { f64::INFINITY },
        })
        .collect();
    let mut scratch = MaxMinScratch::new();
    let mut rates = Vec::new();
    ns_per_op(|| {
        let rounds = 200_000 / classes.len() as u64;
        for _ in 0..rounds {
            max_min_rates_into(&capacity, black_box(&classes), &mut scratch, &mut rates);
            black_box(rates.len());
        }
        rounds
    })
}

fn drives_flow() -> Vec<Drive> {
    vec![
        ns("flow.maxmin.ns_per_recompute_c2", maxmin_ns(2, 1)),
        ns("flow.maxmin.ns_per_recompute_c64", maxmin_ns(64, 8)),
    ]
}

fn emit_ns(make: fn() -> TraceSink) -> f64 {
    ns_per_op(|| {
        let mut sink = make();
        for i in 0..400_000u64 {
            sink.emit_with(|| TraceEvent::packet_enqueue(i, 1, i, i % 64, 1_200, 0));
        }
        black_box(sink.is_enabled());
        400_000
    })
}

fn drives_telemetry() -> Vec<Drive> {
    const EVENTS: u64 = 400_000;
    let fill = || {
        let mut sink = TraceSink::chunked(DEFAULT_TRACE_CAPACITY);
        for i in 0..EVENTS {
            sink.emit_with(|| TraceEvent::packet_enqueue(i, 1, i, i % 64, 1_200, 0));
        }
        sink
    };
    let mut take_s = [0.0; DRIVE_ROUNDS];
    let mut events = Vec::new();
    for s in &mut take_s {
        let mut sink = fill();
        let start = Instant::now();
        events = sink.take_events();
        *s = start.elapsed().as_secs_f64();
    }
    let bytes = encode(&events);
    let encode_ns_per_byte = ns_per_op(|| {
        black_box(encode(black_box(&events)).len());
        bytes.len() as u64
    });
    let decode_ns_per_byte = ns_per_op(|| {
        black_box(decode(black_box(&bytes)).map(|e| e.len()).unwrap_or(0));
        bytes.len() as u64
    });
    vec![
        ns(
            "telemetry.recorder.ns_per_emit_chunked",
            emit_ns(|| TraceSink::chunked(DEFAULT_TRACE_CAPACITY)),
        ),
        ns("telemetry.recorder.ns_per_emit_off", emit_ns(TraceSink::default)),
        ns("telemetry.recorder.take_s", median(&take_s)),
        mb_per_s("telemetry.file.encode_mbps", encode_ns_per_byte),
        mb_per_s("telemetry.file.decode_mbps", decode_ns_per_byte),
    ]
}

fn noop_spec() -> ScenarioSpec {
    ScenarioSpec::new("noop", 7, 1_024)
        .with_axis("x", (1..=8).map(ParamValue::Int).collect::<Vec<_>>())
}

fn noop_run(threads: usize) -> ExperimentRun {
    run_experiment(&noop_spec(), threads, |point, ctx| {
        let mut report = TrialReport::new();
        let x = point.param("x").as_int().unwrap_or(0) as f64;
        report.scalar("x", x + f64::from(ctx.replicate));
        report.samples("s", vec![x, x + 1.0, x + 2.0, x + 3.0]);
        report
    })
}

fn drives_lab(threads: usize) -> Vec<Drive> {
    let trials = noop_spec().trial_count() as u64;
    let noop_t1 = ns_per_op(|| {
        black_box(noop_run(1).reports.len());
        trials
    });
    let noop_tn = ns_per_op(|| {
        black_box(noop_run(threads).reports.len());
        trials
    });
    let run = noop_run(1);
    let agg = ns_per_op(|| {
        black_box(aggregate_run(black_box(&run)).len());
        trials
    });
    let artifact = Artifact::from_run(&run);
    let json_bytes = artifact.to_json().len() as u64;
    let to_json_ns_per_byte = ns_per_op(|| {
        black_box(artifact.to_json().len());
        json_bytes
    });
    let space = PolicySpace::ar_default();
    let search =
        SearchConfig { generations: 8, population: 16, elites: 4, ..SearchConfig::default() };
    let candidate = ns_per_op(|| {
        let result = run_search(&space, &search, |_, points| {
            points
                .iter()
                .map(|p| Evaluation {
                    objectives: Objectives { qoe: p.values[0], fairness: 0.9, overhead: 1.0 },
                    detail: BTreeMap::new(),
                })
                .collect()
        });
        result.archive.len() as u64
    });
    vec![
        ns("lab.runner.ns_per_noop_trial_t1", noop_t1),
        ns("lab.runner.ns_per_noop_trial_tn", noop_tn),
        ns("lab.agg.ns_per_trial", agg),
        mb_per_s("lab.artifact.to_json_mbps", to_json_ns_per_byte),
        ns("trainer.engine.ns_per_candidate", candidate),
    ]
}

/// Every drive, in groups that one calibration bracket covers each. The
/// argument is the `threads=n` of the lab-runner drive.
pub const DRIVE_GROUPS: [fn(usize) -> Vec<Drive>; 6] = [
    |_| drives_sim(),
    |_| drives_transport(),
    |_| drives_core(),
    |_| drives_flow(),
    |_| drives_telemetry(),
    drives_lab,
];
