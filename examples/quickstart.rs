//! Quickstart: one MAR flow over the AR transport protocol.
//!
//! Builds the smallest meaningful topology — a phone on WiFi, an edge
//! server 18 ms away — streams the four Fig. 4 sub-streams for ten
//! simulated seconds, and prints what arrived and how fast.
//!
//! Run with: `cargo run --example quickstart`

use marnet::arcore::class::StreamKind;
use marnet::arcore::config::ArConfig;
use marnet::arcore::endpoint::{ArReceiver, ArSender, SenderPathConfig, Submit};
use marnet::arcore::message::ArMessage;
use marnet::arcore::multipath::PathRole;
use marnet::sim::engine::{Actor, ActorId, Event, SimCtx, Simulator};
use marnet::sim::link::{Bandwidth, LinkParams};
use marnet::sim::packet::Payload;
use marnet::sim::time::{SimDuration, SimTime};
use marnet::transport::nic::TxPath;

/// A 30 FPS camera app: a video frame, a sensor batch and a metadata
/// record per tick.
struct CameraApp {
    sender: ActorId,
    next_id: u64,
    frame: u64,
}

impl Actor for CameraApp {
    fn on_event(&mut self, ctx: &mut SimCtx, ev: Event) {
        if matches!(ev, Event::Start | Event::Timer { .. }) {
            let now = ctx.now();
            let deadline = now + SimDuration::from_millis(75);
            let kind = if self.frame.is_multiple_of(10) {
                StreamKind::VideoReference
            } else {
                StreamKind::VideoInter
            };
            let size = if self.frame.is_multiple_of(10) { 20_000 } else { 8_000 };
            self.frame += 1;
            let id = self.next_id;
            self.next_id += 3;
            for (offset, (k, s)) in
                [(kind, size), (StreamKind::Sensor, 200), (StreamKind::Metadata, 100)]
                    .into_iter()
                    .enumerate()
            {
                let msg = ArMessage::new(id + offset as u64, k, s, now).with_deadline(deadline);
                ctx.send_message(self.sender, Payload::new(Submit(msg)));
            }
            ctx.schedule_timer(SimDuration::from_millis(33), 0);
        }
    }
}

fn main() {
    let mut sim = Simulator::new(2026);
    let phone = sim.reserve_actor();
    let server = sim.reserve_actor();
    let app = sim.reserve_actor();

    // A WiFi access path to an edge server: 20 Mb/s, 36 ms RTT — the
    // paper's Table II "cloud over WiFi" scenario.
    let up = sim.add_link(
        phone,
        server,
        LinkParams::new(Bandwidth::from_mbps(20.0), SimDuration::from_millis(18)),
    );
    let down = sim.add_link(
        server,
        phone,
        LinkParams::new(Bandwidth::from_mbps(20.0), SimDuration::from_millis(18)),
    );

    let cfg = ArConfig::default();
    let sender = ArSender::new(
        1,
        cfg.clone(),
        vec![SenderPathConfig { role: PathRole::Wifi, tx: TxPath::Link(up), link: Some(up) }],
    );
    let tx_stats = sender.stats();
    sim.install_actor(phone, sender);

    let receiver = ArReceiver::new(1, vec![TxPath::Link(down)]);
    let rx_stats = receiver.stats();
    sim.install_actor(server, receiver);
    sim.install_actor(app, CameraApp { sender: phone, next_id: 0, frame: 0 });

    sim.run_until(SimTime::from_secs(10));

    let rx = rx_stats.borrow();
    let tx = tx_stats.borrow();
    println!("== marnet quickstart: 10 s of MAR offloading over 20 Mb/s / 36 ms RTT ==\n");
    for (kind, stats) in &rx.by_kind {
        let mut lat = stats.latency_ms.clone();
        println!(
            "{kind:<12} delivered {:>4}  median latency {:>6.1} ms  deadline hits {}/{}",
            stats.delivered,
            lat.median().unwrap_or(f64::NAN),
            stats.deadline_hits,
            stats.deadline_hits + stats.deadline_misses,
        );
    }
    println!(
        "\nsender: {} retransmissions, {} parity packets, {} bytes shed, \
         deadline-hit ratio {:.1}%",
        tx.retransmits,
        tx.parity_sent,
        tx.dropped_bytes(),
        rx.deadline_hit_ratio() * 100.0
    );
}
