//! Flow-demultiplexing NIC so several endpoints share one access link.
//!
//! The figure experiments need many transport endpoints behind a single
//! (often asymmetric) access link: in Fig. 3 a download's ACKs compete with
//! several uploads' data inside the same uplink queue. A [`Nic`] actor
//! forwards packets from co-located endpoints onto its WAN link and routes
//! arriving packets back to endpoints by [`Packet::flow`]. Both hops
//! between NIC and endpoint are [`Event::Handoff`]s: the packet travels in
//! the event, so crossing a NIC allocates nothing.

use marnet_sim::engine::{Actor, ActorId, Event, SimCtx};
use marnet_sim::hash::FxHashMap;
use marnet_sim::link::{LinkId, RateUpdate};
use marnet_sim::packet::Packet;

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
    /// Sends a packet along this path: onto the link, or handed to the
    /// NIC as an [`Event::Handoff`].
    pub fn send(self, ctx: &mut SimCtx, pkt: Packet) {
        match self {
            TxPath::Link(l) => ctx.transmit(l, pkt),
            TxPath::Nic(n) => ctx.hand_off(n, pkt),
        }
    }
}

/// Extracts a packet from either a direct link arrival or a NIC delivery
/// (an [`Event::Handoff`]). Returns `None` for unrelated events (timers,
/// messages).
pub fn unwrap_packet(ev: Event) -> Option<Packet> {
    match ev {
        Event::Packet { packet, .. } | Event::Handoff { packet, .. } => Some(packet),
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
}

impl Nic {
    /// Creates a NIC transmitting on `wan`.
    pub fn new(wan: LinkId) -> Self {
        Nic { wan, routes: FxHashMap::default() }
    }

    /// Registers `endpoint` to receive packets whose flow id is `flow`.
    pub fn add_route(&mut self, flow: u64, endpoint: ActorId) {
        self.routes.insert(flow, endpoint);
    }
}

impl Actor for Nic {
    fn on_event(&mut self, ctx: &mut SimCtx, ev: Event) {
        match ev {
            Event::Handoff { packet, .. } => ctx.transmit(self.wan, packet),
            Event::Message { msg, .. } => {
                if let Some(update) = msg.map_ref(|u: &RateUpdate| *u) {
                    // Hybrid-fidelity coupling: the fluid tier reports how
                    // much of a boundary link the packet tier may use. Read
                    // by reference — the fluid tier pools these payloads.
                    ctx.set_link_rate(update.link, update.rate);
                }
            }
            Event::Packet { packet, .. } => {
                // Unroutable packets are dropped, like a host without a
                // matching socket.
                if let Some(&dst) = self.routes.get(&packet.flow) {
                    ctx.hand_off(dst, packet);
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

    /// Records `(packet id, whether it came as a hand-off)`.
    struct Endpoint {
        got: Rc<RefCell<Vec<(u64, bool)>>>,
    }
    impl Actor for Endpoint {
        fn on_event(&mut self, _ctx: &mut SimCtx, ev: Event) {
            let handoff = matches!(ev, Event::Handoff { .. });
            if let Some(pkt) = unwrap_packet(ev) {
                self.got.borrow_mut().push((pkt.id, handoff));
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
        let params = LinkParams::new(Bandwidth::from_mbps(10.0), SimDuration::from_millis(1));
        let l = sim.add_link(nic_a, nic_b, params.clone());
        let back = sim.add_link(nic_b, nic_a, params);
        sim.install_actor(nic_a, Nic::new(l));
        let mut rx_nic = Nic::new(back);
        rx_nic.add_route(7, e1);
        rx_nic.add_route(8, e2);
        sim.install_actor(nic_b, rx_nic);
        sim.add_actor(Injector { nic: nic_a, flow: 7 });
        sim.add_actor(Injector { nic: nic_a, flow: 8 });
        sim.add_actor(Injector { nic: nic_a, flow: 99 }); // unroutable
        sim.run_until(SimTime::from_secs(1));
        // Each endpoint got its packet from the far NIC as a hand-off.
        assert_eq!(*got1.borrow(), [(0, true)]);
        assert_eq!(*got2.borrow(), [(1, true)]);
        // All three injected packets crossed the WAN; the unroutable one
        // was discarded at the far side, and nothing came back.
        assert_eq!(sim.ctx().link_stats(l).delivered_bytes, 1500);
        assert_eq!(sim.ctx().link_stats(back).offered_packets, 0);
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
