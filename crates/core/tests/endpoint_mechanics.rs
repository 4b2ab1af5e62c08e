//! Targeted tests of ArSender/ArReceiver internals that the scenario tests
//! only exercise implicitly: FEC-only recovery, wire-budget accounting,
//! hole abandonment, and feedback-driven RTT convergence.

use marnet_core::class::StreamKind;
use marnet_core::config::ArConfig;
use marnet_core::congestion::CongestionConfig;
use marnet_core::endpoint::{ArReceiver, ArSender, SenderPathConfig, Submit};
use marnet_core::message::ArMessage;
use marnet_core::multipath::PathRole;
use marnet_core::recovery::RecoveryPolicy;
use marnet_sim::engine::{Actor, ActorId, Event, SimCtx, Simulator};
use marnet_sim::link::{Bandwidth, LinkParams, LossModel};
use marnet_sim::packet::Payload;
use marnet_sim::time::{SimDuration, SimTime};
use marnet_transport::nic::TxPath;

struct RefApp {
    sender: ActorId,
    next_id: u64,
    size: u32,
}

impl Actor for RefApp {
    fn on_event(&mut self, ctx: &mut SimCtx, ev: Event) {
        if matches!(ev, Event::Start | Event::Timer { .. }) {
            let now = ctx.now();
            let m = ArMessage::new(self.next_id, StreamKind::VideoReference, self.size, now)
                .with_deadline(now + SimDuration::from_millis(200));
            self.next_id += 1;
            ctx.send_message(self.sender, Payload::new(Submit(m)));
            ctx.schedule_timer(SimDuration::from_millis(33), 0);
        }
    }
}

struct Harness {
    sstats: std::rc::Rc<std::cell::RefCell<marnet_core::endpoint::ArSenderStats>>,
    rstats: std::rc::Rc<std::cell::RefCell<marnet_core::endpoint::ArReceiverStats>>,
}

fn run(cfg: ArConfig, loss: f64, msg_size: u32, secs: u64, seed: u64) -> Harness {
    let mut sim = Simulator::new(seed);
    let snd = sim.reserve_actor();
    let rcv = sim.reserve_actor();
    let up = sim.add_link(
        snd,
        rcv,
        LinkParams::new(Bandwidth::from_mbps(30.0), SimDuration::from_millis(10))
            .with_loss(LossModel::Bernoulli { p: loss }),
    );
    let down = sim.add_link(
        rcv,
        snd,
        LinkParams::new(Bandwidth::from_mbps(30.0), SimDuration::from_millis(10)),
    );
    let sender = ArSender::new(
        1,
        cfg.clone(),
        vec![SenderPathConfig { role: PathRole::Wifi, tx: TxPath::Link(up), link: Some(up) }],
    );
    let sstats = sender.stats();
    sim.install_actor(snd, sender);
    let receiver = ArReceiver::new(1, vec![TxPath::Link(down)]);
    let rstats = receiver.stats();
    sim.install_actor(rcv, receiver);
    sim.add_actor(RefApp { sender: snd, next_id: 0, size: msg_size });
    sim.run_until(SimTime::from_secs(secs));
    Harness { sstats, rstats }
}

#[test]
fn fec_alone_recovers_most_single_losses() {
    // Retransmission disabled: only FEC parity can repair. With k=4 at 3%
    // loss the residual message loss is well under 1 packet in 20.
    let cfg = ArConfig {
        recovery: RecoveryPolicy { enabled: false, ..Default::default() },
        fec_group: Some(4),
        ..ArConfig::default()
    };
    let h = run(cfg, 0.03, 6_000, 30, 3);
    let r = h.rstats.borrow();
    assert!(r.fec_recovered > 5, "FEC must repair losses: {}", r.fec_recovered);
    let refs = &r.by_kind[&StreamKind::VideoReference];
    let offered = 30_000 / 33;
    assert!(
        refs.delivered as f64 > offered as f64 * 0.95,
        "delivered {}/{offered}",
        refs.delivered
    );
    assert_eq!(h.sstats.borrow().retransmits, 0, "ARQ was disabled");
}

#[test]
fn no_fec_no_arq_loses_fragmented_messages() {
    // The control for the test above: nothing repairs losses, so a 5-
    // fragment message dies whenever any fragment dies (~14% at 3%).
    let cfg = ArConfig {
        recovery: RecoveryPolicy { enabled: false, ..Default::default() },
        fec_group: None,
        ..ArConfig::default()
    };
    let h = run(cfg, 0.03, 6_000, 30, 3);
    let r = h.rstats.borrow();
    assert_eq!(r.fec_recovered, 0);
    let refs = &r.by_kind[&StreamKind::VideoReference];
    let offered = 30_000 / 33;
    let ratio = refs.delivered as f64 / offered as f64;
    assert!(
        (0.70..0.95).contains(&ratio),
        "expected ~86% message survival without repair, got {ratio}"
    );
}

#[test]
fn abandoned_holes_are_bounded_and_counted() {
    // Unrepairable losses leave per-path sequence holes; after 8 NACK
    // rounds the receiver must abandon them rather than NACK forever.
    let cfg = ArConfig {
        recovery: RecoveryPolicy { enabled: false, ..Default::default() },
        fec_group: None,
        ..ArConfig::default()
    };
    let h = run(cfg, 0.05, 3_000, 20, 11);
    let r = h.rstats.borrow();
    assert!(r.abandoned_holes > 0, "holes must eventually be abandoned");
}

#[test]
fn wire_overhead_stays_near_the_controller_rate() {
    // Total wire bytes (headers + parity + rtx) must track the allowed
    // rate: the controller rate bounds *wire* load, not just payload.
    let cfg = ArConfig {
        congestion: CongestionConfig {
            max_rate: 100_000.0, // pin the rate: 800 kb/s
            ..CongestionConfig::default()
        },
        ..ArConfig::default()
    };
    // Offer ~1.5 Mb/s into the 800 kb/s allowance.
    let h = run(cfg, 0.0, 6_000, 20, 13);
    let s = h.sstats.borrow();
    let sent: u64 = s.total_sent_bytes();
    let parity_estimate = s.parity_sent * (1_230);
    let wire = sent + parity_estimate;
    let allowed = 100_000.0 * 20.0;
    assert!(
        (wire as f64) < allowed * 1.15,
        "wire bytes {wire} must not exceed the allowance {allowed} by >15%"
    );
}

#[test]
fn srtt_converges_to_path_rtt() {
    let cfg = ArConfig::default();
    let mut sim = Simulator::new(21);
    let snd = sim.reserve_actor();
    let rcv = sim.reserve_actor();
    let up = sim.add_link(
        snd,
        rcv,
        LinkParams::new(Bandwidth::from_mbps(30.0), SimDuration::from_millis(25)),
    );
    let down = sim.add_link(
        rcv,
        snd,
        LinkParams::new(Bandwidth::from_mbps(30.0), SimDuration::from_millis(25)),
    );
    let sender = ArSender::new(
        1,
        cfg.clone(),
        vec![SenderPathConfig { role: PathRole::Wifi, tx: TxPath::Link(up), link: Some(up) }],
    );
    let sstats = sender.stats();
    sim.install_actor(snd, sender);
    let receiver = ArReceiver::new(1, vec![TxPath::Link(down)]);
    sim.install_actor(rcv, receiver);
    sim.add_actor(RefApp { sender: snd, next_id: 0, size: 2_000 });
    sim.run_until(SimTime::from_secs(10));
    let s = sstats.borrow();
    let last_srtt = s.srtt_ms.expect("srtt recorded");
    // True RTT = 50 ms propagation + ~1 ms serialization/feedback slop.
    assert!(
        (50.0..54.0).contains(&last_srtt),
        "srtt {last_srtt} must converge near the 50 ms path RTT"
    );
    let base = s.base_rtt_ms.expect("base recorded");
    assert!((50.0..52.0).contains(&base), "base rtt {base}");
}
