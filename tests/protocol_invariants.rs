//! Cross-crate invariant tests on the AR protocol under hostile network
//! conditions: critical data survives everything, duplication never
//! double-delivers, and the paper's headline effects hold end to end.

use marnet::arcore::class::StreamKind;
use marnet::arcore::config::ArConfig;
use marnet::arcore::endpoint::{ArReceiver, ArSender, SenderPathConfig, Submit};
use marnet::arcore::message::ArMessage;
use marnet::arcore::multipath::{MultipathPolicy, PathRole};
use marnet::sim::engine::{Actor, ActorId, Event, SimCtx, Simulator};
use marnet::sim::link::{Bandwidth, LinkParams, LossModel};
use marnet::sim::packet::Payload;
use marnet::sim::time::{SimDuration, SimTime};
use marnet::transport::nic::TxPath;
use marnet_bench::scenarios::{run_fig3, run_queueing_instrumented};
use marnet_sim::queue::QueueConfig;
use marnet_telemetry::TelemetryOptions;

struct App {
    sender: ActorId,
    next_id: u64,
}

impl Actor for App {
    fn on_event(&mut self, ctx: &mut SimCtx, ev: Event) {
        if matches!(ev, Event::Start | Event::Timer { .. }) {
            let now = ctx.now();
            let frame = ArMessage::new(self.next_id, StreamKind::VideoInter, 10_000, now)
                .with_deadline(now + SimDuration::from_millis(100));
            let refm = ArMessage::new(self.next_id + 1, StreamKind::VideoReference, 4_000, now)
                .with_deadline(now + SimDuration::from_millis(100));
            let meta = ArMessage::new(self.next_id + 2, StreamKind::Metadata, 120, now);
            self.next_id += 3;
            for m in [frame, refm, meta] {
                ctx.send_message(self.sender, Payload::new(Submit(m)));
            }
            ctx.schedule_timer(SimDuration::from_millis(33), 0);
        }
    }
}

fn run_hostile(
    mbps: f64,
    loss: f64,
    duplicate: bool,
    secs: u64,
) -> (
    std::rc::Rc<std::cell::RefCell<marnet::arcore::endpoint::ArSenderStats>>,
    std::rc::Rc<std::cell::RefCell<marnet::arcore::endpoint::ArReceiverStats>>,
) {
    let mut sim = Simulator::new(17);
    let snd = sim.reserve_actor();
    let rcv = sim.reserve_actor();
    let mk = |sim: &mut Simulator, a, b| {
        sim.add_link(
            a,
            b,
            LinkParams::new(Bandwidth::from_mbps(mbps), SimDuration::from_millis(10))
                .with_loss(LossModel::Bernoulli { p: loss }),
        )
    };
    let up1 = mk(&mut sim, snd, rcv);
    let up2 = mk(&mut sim, snd, rcv);
    let down = sim.add_link(
        rcv,
        snd,
        LinkParams::new(Bandwidth::from_mbps(mbps), SimDuration::from_millis(10)),
    );
    let cfg = ArConfig {
        policy: MultipathPolicy::Aggregate,
        duplicate_recovery: duplicate,
        ..ArConfig::default()
    };
    let sender = ArSender::new(
        1,
        cfg.clone(),
        vec![
            SenderPathConfig { role: PathRole::Wifi, tx: TxPath::Link(up1), link: Some(up1) },
            SenderPathConfig { role: PathRole::Cellular, tx: TxPath::Link(up2), link: Some(up2) },
        ],
    );
    let sstats = sender.stats();
    sim.install_actor(snd, sender);
    let receiver = ArReceiver::new(1, vec![TxPath::Link(down), TxPath::Link(down)]);
    let rstats = receiver.stats();
    sim.install_actor(rcv, receiver);
    let app = App { sender: snd, next_id: 0 };
    sim.add_actor(app);
    sim.run_until(SimTime::from_secs(secs));
    (sstats, rstats)
}

#[test]
fn critical_metadata_survives_loss_and_congestion() {
    // 8% loss AND an undersized link: metadata must still arrive at full
    // cadence (critical class: unconditional retransmission, never shed).
    let (sstats, rstats) = run_hostile(1.5, 0.08, false, 20);
    let r = rstats.borrow();
    let meta = &r.by_kind[&StreamKind::Metadata];
    let offered = 20 * 30;
    assert!(
        meta.delivered as f64 > offered as f64 * 0.95,
        "metadata delivered {}/{offered}",
        meta.delivered
    );
    let s = sstats.borrow();
    assert_eq!(s.dropped_msgs(StreamKind::Metadata), 0, "metadata must never be shed");
}

#[test]
fn duplication_never_double_delivers() {
    let (_, rstats) = run_hostile(20.0, 0.05, true, 15);
    let r = rstats.borrow();
    // Duplicates arrive (that's the mechanism) but each message completes
    // exactly once: delivered counts cannot exceed the offered counts.
    assert!(r.duplicates > 0, "duplication must actually duplicate");
    // The app ticks every 33 ms, so ~455 messages per kind in 15 s.
    let offered = 15_000 / 33 + 2;
    for (kind, ks) in &r.by_kind {
        assert!(
            ks.delivered <= offered,
            "{kind}: delivered {} exceeds offered {offered}",
            ks.delivered
        );
    }
    let refs = &r.by_kind[&StreamKind::VideoReference];
    assert!(refs.delivered as f64 > offered as f64 * 0.95, "refs {}", refs.delivered);
}

#[test]
fn fig3_effect_holds_with_the_paper_buffer_sizes() {
    // The paper's Fig. 3 claim end to end: a single upload through a
    // 1000-packet uplink buffer destroys a concurrent download.
    let out = run_fig3(10.0, 1.0, 1000, 1, 50, 3, &TelemetryOptions::disabled()).0;
    let dl = out.download.borrow();
    let before = dl.goodput_meter.mean_mbps(2.0, out.upload_starts[0]);
    let after = dl.goodput_meter.mean_mbps(out.upload_starts[0] + 5.0, 50.0);
    assert!(before > 7.0);
    assert!(after < 2.0, "download must collapse: {before} → {after}");
}

#[test]
fn aqm_rescues_what_bufferbloat_destroys() {
    // §VI-H end to end: same MAR stream + same bulk upload; only the queue
    // discipline changes.
    let run = |queue| {
        run_queueing_instrumented(2.0, queue, 0, 1, 1, 20, 5, &TelemetryOptions::disabled()).0
    };
    let bloat = run(QueueConfig::bloated_uplink());
    let codel = run(QueueConfig::codel_default());
    let bloat_p95 = bloat.mar[0].borrow().latency_ms.clone().p95().unwrap();
    let codel_p95 = codel.mar[0].borrow().latency_ms.clone().p95().unwrap();
    assert!(
        codel_p95 < bloat_p95 / 5.0,
        "CoDel must cut MAR p95 latency: {bloat_p95} → {codel_p95} ms"
    );
}
