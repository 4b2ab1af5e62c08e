//! Flow-demultiplexing NIC so several endpoints share one access link.
//!
//! The figure experiments need many transport endpoints behind a single
//! (often asymmetric) access link: in Fig. 3 a download's ACKs compete with
//! several uploads' data inside the same uplink queue. A [`Nic`] actor
//! forwards packets from co-located endpoints onto its WAN link and routes
//! arriving packets back to endpoints by [`Packet::flow`].

use marnet_sim::engine::{Actor, ActorId, Event, SimCtx};
use marnet_sim::hash::FxHashMap;
use marnet_sim::link::{LinkId, RateUpdate};
use marnet_sim::packet::{Packet, Payload, PayloadPool};
use marnet_telemetry::{ClassUsage, MetricsRegistry};
use std::cell::RefCell;
use std::rc::Rc;

/// Number of priority bands a [`Nic`] accounts separately. Packets with
/// `prio >= NIC_PRIO_BANDS` are clamped into the last band.
pub const NIC_PRIO_BANDS: usize = 4;

/// Metric labels for the NIC priority bands.
pub const NIC_BAND_LABELS: [&str; NIC_PRIO_BANDS] = ["prio0", "prio1", "prio2", "prio3"];

/// Shared handle to a NIC's per-priority-band usage accounting.
pub type SharedNicUsage = Rc<RefCell<ClassUsage<NIC_PRIO_BANDS>>>;

/// Where an endpoint sends its packets: directly onto a link, or via a
/// shared [`Nic`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxPath {
    /// Transmit straight onto a link the endpoint owns.
    Link(LinkId),
    /// Hand the packet to a NIC actor that owns the access link.
    Nic(ActorId),
}

impl TxPath {
    /// Sends a packet along this path.
    pub fn send(self, ctx: &mut SimCtx, pkt: Packet) {
        match self {
            TxPath::Link(l) => ctx.transmit(l, pkt),
            TxPath::Nic(n) => ctx.send_message(n, Payload::new(NicForward(pkt))),
        }
    }
}

/// Message wrapper: "transmit this packet on your WAN link".
#[derive(Debug, Clone)]
pub struct NicForward(pub Packet);

/// Message wrapper: "a packet arrived for you".
///
/// Endpoints behind a NIC receive their packets as [`Event::Message`]
/// carrying this wrapper instead of [`Event::Packet`]; use
/// [`unwrap_packet`] to handle both uniformly.
#[derive(Debug, Clone)]
pub struct NicDeliver(pub Packet);

/// Extracts a packet from either a direct link arrival or a NIC delivery.
/// Returns `None` for unrelated events (timers, other messages).
pub fn unwrap_packet(ev: Event) -> Option<Packet> {
    match ev {
        Event::Packet { packet, .. } => Some(packet),
        Event::Message { mut msg, .. } => {
            if msg.is_unique() {
                // Uniquely owned (unpooled) deliveries move the packet out.
                msg.take::<NicDeliver>().map(|d| d.0)
            } else {
                // Pooled deliveries stay shared with the NIC's slot; clone
                // the packet out by reference — an `Rc` bump on the payload,
                // not a deep clone.
                msg.map_ref(|d: &NicDeliver| d.0.clone())
            }
        }
        _ => None,
    }
}

/// A NIC multiplexing endpoints over one WAN link.
#[derive(Debug)]
pub struct Nic {
    wan: LinkId,
    /// Flow id → endpoint. Looked up once per arriving packet; the
    /// deterministic multiply-rotate hasher keeps that probe off the
    /// SipHash setup cost.
    routes: FxHashMap<u64, ActorId>,
    /// Per-priority-band accounting: bytes/packets forwarded onto the WAN
    /// link ("sent") and arrivals discarded for lack of a route ("dropped").
    usage: SharedNicUsage,
    /// Slab pool for [`NicDeliver`] wrappers on the receive hot path.
    deliver_pool: PayloadPool<NicDeliver>,
}

impl Nic {
    /// Creates a NIC transmitting on `wan`.
    pub fn new(wan: LinkId) -> Self {
        Nic {
            wan,
            routes: FxHashMap::default(),
            usage: Rc::new(RefCell::new(ClassUsage::new())),
            deliver_pool: PayloadPool::new(),
        }
    }

    /// Registers `endpoint` to receive packets whose flow id is `flow`.
    pub fn add_route(&mut self, flow: u64, endpoint: ActorId) {
        self.routes.insert(flow, endpoint);
    }

    /// Shared handle to the per-band usage accounting; keep a clone to
    /// inspect (or [`ClassUsage::publish`]) after handing the NIC to the
    /// simulator.
    pub fn usage(&self) -> SharedNicUsage {
        Rc::clone(&self.usage)
    }

    /// Publishes this NIC's usage counters as `{prefix}.{band}.{metric}`.
    pub fn publish_usage(&self, registry: &MetricsRegistry, prefix: &str) {
        self.usage.borrow().publish(registry, prefix, &NIC_BAND_LABELS);
    }
}

impl Actor for Nic {
    fn on_event(&mut self, ctx: &mut SimCtx, ev: Event) {
        match ev {
            Event::Message { mut msg, .. } => {
                if let Some(NicForward(pkt)) = msg.take::<NicForward>() {
                    self.usage.borrow_mut().record_sent(usize::from(pkt.prio), u64::from(pkt.size));
                    ctx.transmit(self.wan, pkt);
                } else if let Some(update) = msg.map_ref(|u: &RateUpdate| *u) {
                    // Hybrid-fidelity coupling: the fluid tier reports how
                    // much of a boundary link the packet tier may use. Read
                    // by reference — the fluid tier pools these payloads.
                    ctx.set_link_rate(update.link, update.rate);
                }
            }
            Event::Packet { packet, .. } => {
                if let Some(&dst) = self.routes.get(&packet.flow) {
                    // Cloning a packet into the pooled wrapper is a header
                    // memcpy plus an `Rc` bump of its payload.
                    let payload = self
                        .deliver_pool
                        .prepare(|| NicDeliver(packet.clone()), |d| d.0 = packet.clone());
                    ctx.send_message(dst, payload);
                } else {
                    // Unroutable packets are dropped, like a host without a
                    // matching socket — but the discard is accounted.
                    self.usage
                        .borrow_mut()
                        .record_dropped(usize::from(packet.prio), u64::from(packet.size));
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marnet_sim::link::{Bandwidth, LinkParams};
    use marnet_sim::time::{SimDuration, SimTime};
    use std::cell::RefCell;
    use std::rc::Rc;

    struct Endpoint {
        got: Rc<RefCell<Vec<u64>>>,
    }
    impl Actor for Endpoint {
        fn on_event(&mut self, _ctx: &mut SimCtx, ev: Event) {
            if let Some(pkt) = unwrap_packet(ev) {
                self.got.borrow_mut().push(pkt.id);
            }
        }
    }

    struct Injector {
        nic: ActorId,
        flow: u64,
    }
    impl Actor for Injector {
        fn on_event(&mut self, ctx: &mut SimCtx, ev: Event) {
            if matches!(ev, Event::Start) {
                let id = ctx.next_packet_id();
                let pkt = Packet::new(id, self.flow, 500, ctx.now());
                TxPath::Nic(self.nic).send(ctx, pkt);
            }
        }
    }

    #[test]
    fn nic_forwards_and_routes_by_flow() {
        use marnet_sim::engine::Simulator;
        let got1 = Rc::new(RefCell::new(Vec::new()));
        let got2 = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulator::new(1);
        // Topology: injector -> nicA -(link)-> nicB -> endpoints.
        let nic_a = sim.reserve_actor();
        let nic_b = sim.reserve_actor();
        let e1 = sim.add_actor(Endpoint { got: Rc::clone(&got1) });
        let e2 = sim.add_actor(Endpoint { got: Rc::clone(&got2) });
        let l = sim.add_link(
            nic_a,
            nic_b,
            LinkParams::new(Bandwidth::from_mbps(10.0), SimDuration::from_millis(1)),
        );
        let tx_nic = Nic::new(l);
        let tx_usage = tx_nic.usage();
        sim.install_actor(nic_a, tx_nic);
        // nic_b never transmits in this test; give it the same link id.
        let mut rx_nic = Nic::new(l);
        rx_nic.add_route(7, e1);
        rx_nic.add_route(8, e2);
        let rx_usage = rx_nic.usage();
        sim.install_actor(nic_b, rx_nic);
        sim.add_actor(Injector { nic: nic_a, flow: 7 });
        sim.add_actor(Injector { nic: nic_a, flow: 8 });
        sim.add_actor(Injector { nic: nic_a, flow: 99 }); // unroutable
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(got1.borrow().len(), 1);
        assert_eq!(got2.borrow().len(), 1);
        // All three injected packets crossed the WAN; exactly the unroutable
        // one was discarded at the far side.
        assert_eq!(tx_usage.borrow().total_sent_bytes(), 1500);
        assert_eq!(rx_usage.borrow().total_dropped_bytes(), 500);
    }

    #[test]
    fn unwrap_packet_passes_through_direct_arrivals() {
        let pkt = Packet::new(3, 0, 10, SimTime::ZERO);
        let ev = Event::Packet { link: link_id_for_test(), packet: pkt };
        assert_eq!(unwrap_packet(ev).unwrap().id, 3);
        assert!(unwrap_packet(Event::Timer { tag: 0 }).is_none());
    }

    // LinkId has a crate-private constructor; grab one from a real sim.
    fn link_id_for_test() -> LinkId {
        use marnet_sim::engine::Simulator;
        let mut sim = Simulator::new(0);
        let a = sim.reserve_actor();
        let b = sim.reserve_actor();
        sim.add_link(a, b, LinkParams::new(Bandwidth::from_mbps(1.0), SimDuration::ZERO))
    }
}
