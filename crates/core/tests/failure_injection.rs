//! Failure-injection tests for the AR protocol: links flapping mid-session,
//! total blackouts, bursty (Gilbert-Elliott) loss, and path death during a
//! fragmented message — the §VI-D handover realities.

use marnet_core::class::StreamKind;
use marnet_core::config::ArConfig;
use marnet_core::endpoint::{
    ArReceiver, ArReceiverStats, ArSender, ArSenderStats, SenderPathConfig, Submit,
};
use marnet_core::message::ArMessage;
use marnet_core::multipath::{MultipathPolicy, PathRole};
use marnet_sim::engine::{Actor, ActorId, Event, SimCtx, Simulator};
use marnet_sim::link::{Bandwidth, LinkId, LinkParams, LossModel};
use marnet_sim::packet::Payload;
use marnet_sim::time::{SimDuration, SimTime};
use marnet_transport::nic::TxPath;
use std::cell::RefCell;
use std::rc::Rc;

struct App {
    sender: ActorId,
    next_id: u64,
}

impl Actor for App {
    fn on_event(&mut self, ctx: &mut SimCtx, ev: Event) {
        if matches!(ev, Event::Start | Event::Timer { .. }) {
            let now = ctx.now();
            let frame = ArMessage::new(self.next_id, StreamKind::VideoReference, 12_000, now)
                .with_deadline(now + SimDuration::from_millis(150));
            let meta = ArMessage::new(self.next_id + 1, StreamKind::Metadata, 100, now);
            self.next_id += 2;
            ctx.send_message(self.sender, Payload::new(Submit(frame)));
            ctx.send_message(self.sender, Payload::new(Submit(meta)));
            ctx.schedule_timer(SimDuration::from_millis(33), 0);
        }
    }
}

/// Toggles a set of links down/up on a fixed schedule.
struct Flapper {
    links: Vec<LinkId>,
    period: SimDuration,
    down_for: SimDuration,
    down: bool,
}

impl Actor for Flapper {
    fn on_event(&mut self, ctx: &mut SimCtx, ev: Event) {
        if matches!(ev, Event::Start) {
            ctx.schedule_timer(self.period, 0);
            return;
        }
        if matches!(ev, Event::Timer { .. }) {
            self.down = !self.down;
            for &l in &self.links {
                ctx.set_link_up(l, !self.down);
            }
            let next = if self.down { self.down_for } else { self.period };
            ctx.schedule_timer(next, 0);
        }
    }
}

struct Built {
    sim: Simulator,
    wifi_links: Vec<LinkId>,
    sstats: Rc<RefCell<ArSenderStats>>,
    rstats: Rc<RefCell<ArReceiverStats>>,
}

fn build(policy: MultipathPolicy, with_lte: bool, loss: LossModel, seed: u64) -> Built {
    let mut sim = Simulator::new(seed);
    let snd = sim.reserve_actor();
    let rcv = sim.reserve_actor();
    let wifi_up = sim.add_link(
        snd,
        rcv,
        LinkParams::new(Bandwidth::from_mbps(20.0), SimDuration::from_millis(8)).with_loss(loss),
    );
    let wifi_down = sim.add_link(
        rcv,
        snd,
        LinkParams::new(Bandwidth::from_mbps(20.0), SimDuration::from_millis(8)),
    );
    let mut paths = vec![SenderPathConfig {
        role: PathRole::Wifi,
        tx: TxPath::Link(wifi_up),
        link: Some(wifi_up),
    }];
    let mut reverse = vec![TxPath::Link(wifi_down)];
    if with_lte {
        let lte_up = sim.add_link(
            snd,
            rcv,
            LinkParams::new(Bandwidth::from_mbps(8.0), SimDuration::from_millis(30)),
        );
        let lte_down = sim.add_link(
            rcv,
            snd,
            LinkParams::new(Bandwidth::from_mbps(8.0), SimDuration::from_millis(30)),
        );
        paths.push(SenderPathConfig {
            role: PathRole::Cellular,
            tx: TxPath::Link(lte_up),
            link: Some(lte_up),
        });
        reverse.push(TxPath::Link(lte_down));
    }
    let cfg = ArConfig { policy, ..ArConfig::default() };
    let sender = ArSender::new(1, cfg.clone(), paths);
    let sstats = sender.stats();
    sim.install_actor(snd, sender);
    let receiver = ArReceiver::new(1, reverse);
    let rstats = receiver.stats();
    sim.install_actor(rcv, receiver);
    sim.add_actor(App { sender: snd, next_id: 0 });
    Built { sim, wifi_links: vec![wifi_up, wifi_down], sstats, rstats }
}

#[test]
fn wifi_flaps_with_lte_failover_keep_metadata_flowing() {
    let mut b = build(MultipathPolicy::WifiPreferred, true, LossModel::None, 3);
    let links = b.wifi_links.clone();
    b.sim.add_actor(Flapper {
        links,
        period: SimDuration::from_secs(3),
        down_for: SimDuration::from_secs(2),
        down: false,
    });
    b.sim.run_until(SimTime::from_secs(30));
    let r = b.rstats.borrow();
    let meta = &r.by_kind[&StreamKind::Metadata];
    let offered = 30_000 / 33;
    assert!(
        meta.delivered as f64 > offered as f64 * 0.95,
        "metadata through flaps: {}/{offered}",
        meta.delivered
    );
    // The failover must actually have used LTE.
    assert!(b.sstats.borrow().cellular_bytes > 0);
}

#[test]
fn total_blackout_delays_critical_data_but_loses_none() {
    // Single path, down for a full 5 s window: critical metadata queues
    // (delay-not-drop is not its semantics — Critical/Highest cannot be
    // dropped at all) and is delivered after the blackout.
    let mut b = build(MultipathPolicy::WifiPreferred, false, LossModel::None, 5);
    let links = b.wifi_links.clone();
    struct OneBlackout {
        links: Vec<LinkId>,
        fired: u8,
    }
    impl Actor for OneBlackout {
        fn on_event(&mut self, ctx: &mut SimCtx, ev: Event) {
            match ev {
                Event::Start => {
                    ctx.schedule_timer(SimDuration::from_secs(5), 0);
                }
                Event::Timer { .. } => {
                    self.fired += 1;
                    let up = self.fired == 2;
                    for &l in &self.links {
                        ctx.set_link_up(l, up);
                    }
                    if self.fired == 1 {
                        ctx.schedule_timer(SimDuration::from_secs(5), 0);
                    }
                }
                _ => {}
            }
        }
    }
    b.sim.add_actor(OneBlackout { links, fired: 0 });
    b.sim.run_until(SimTime::from_secs(40));
    let r = b.rstats.borrow();
    let meta = &r.by_kind[&StreamKind::Metadata];
    let offered = 40_000 / 33;
    assert!(
        meta.delivered as f64 > offered as f64 * 0.93,
        "metadata after blackout: {}/{offered}",
        meta.delivered
    );
    // Some metadata must have seen multi-second latency (queued through the
    // blackout) — proof the data was delayed, not dropped.
    let max_ms = meta.latency_ms.values().iter().cloned().fold(0.0f64, f64::max);
    assert!(max_ms > 2_000.0, "expected blackout-sized latency, max {max_ms} ms");
}

#[test]
fn bursty_loss_is_survivable_for_recovery_class() {
    // Gilbert-Elliott bursts: FEC alone dies inside a burst (whole groups
    // lost) but deadline-gated ARQ at 16 ms RTT refills the holes.
    let ge =
        LossModel::GilbertElliott { p_good_to_bad: 0.02, p_bad_to_good: 0.3, loss_in_bad: 0.6 };
    let mut b = build(MultipathPolicy::WifiPreferred, false, ge, 7);
    b.sim.run_until(SimTime::from_secs(30));
    let r = b.rstats.borrow();
    let refs = &r.by_kind[&StreamKind::VideoReference];
    let offered = 30_000 / 33;
    assert!(
        refs.delivered as f64 > offered as f64 * 0.9,
        "refs through bursts: {}/{offered}",
        refs.delivered
    );
    let s = b.sstats.borrow();
    assert!(s.retransmits > 0, "bursts must force retransmissions");
}

#[test]
fn path_death_mid_message_falls_back_to_the_other_path() {
    // Kill WiFi permanently at 10 s with messages in flight; everything
    // after must flow over LTE; delivery continues.
    let mut b = build(MultipathPolicy::WifiPreferred, true, LossModel::None, 9);
    let links = b.wifi_links.clone();
    struct Kill {
        links: Vec<LinkId>,
    }
    impl Actor for Kill {
        fn on_event(&mut self, ctx: &mut SimCtx, ev: Event) {
            match ev {
                Event::Start => {
                    ctx.schedule_timer(SimDuration::from_secs(10), 0);
                }
                Event::Timer { .. } => {
                    for &l in &self.links {
                        ctx.set_link_up(l, false);
                    }
                }
                _ => {}
            }
        }
    }
    b.sim.add_actor(Kill { links });
    b.sim.run_until(SimTime::from_secs(25));
    let r = b.rstats.borrow();
    let refs = &r.by_kind[&StreamKind::VideoReference];
    // Frames keep arriving during the LTE-only era.
    let offered = 25_000 / 33;
    assert!(
        refs.delivered as f64 > offered as f64 * 0.9,
        "refs across path death: {}/{offered}",
        refs.delivered
    );
    let s = b.sstats.borrow();
    // Sanity: substantial traffic moved over cellular after the kill.
    assert!(s.cellular_bytes > 1_000_000, "cellular bytes {}", s.cellular_bytes);
}
