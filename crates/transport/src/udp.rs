//! Unreliable datagram endpoints: a constant-bit-rate source and a counting
//! sink.
//!
//! MAR sensor streams (§VI-A) and the bulk background uploads of the
//! queueing experiment are modelled as UDP-like constant-rate flows: no
//! retransmission, no congestion response.

use crate::nic::{unwrap_packet, TxPath};
use marnet_sim::engine::{Actor, Event, SimCtx};
use marnet_sim::packet::Packet;
use marnet_sim::stats::{Histogram, RateMeter};
use marnet_sim::time::SimDuration;
use std::cell::RefCell;
use std::rc::Rc;

/// Constant-bit-rate datagram source.
#[derive(Debug)]
pub struct UdpSource {
    flow: u64,
    path: TxPath,
    packet_bytes: u32,
    interval: SimDuration,
    prio: u8,
}

impl UdpSource {
    /// A source emitting `packet_bytes`-sized datagrams every `interval`.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn new(flow: u64, path: TxPath, packet_bytes: u32, interval: SimDuration) -> Self {
        assert!(interval > SimDuration::ZERO, "interval must be positive");
        UdpSource { flow, path, packet_bytes, interval, prio: 0 }
    }

    /// A source with rate expressed in Mb/s instead of an interval.
    pub fn with_rate_mbps(flow: u64, path: TxPath, packet_bytes: u32, mbps: f64) -> Self {
        assert!(mbps > 0.0, "rate must be positive");
        let pps = mbps * 1e6 / (f64::from(packet_bytes) * 8.0);
        let interval = SimDuration::from_secs_f64(1.0 / pps);
        UdpSource::new(flow, path, packet_bytes, interval)
    }

    /// Marks emitted packets with a priority band, builder style.
    #[must_use]
    pub fn with_prio(mut self, prio: u8) -> Self {
        self.prio = prio;
        self
    }
}

impl Actor for UdpSource {
    fn on_event(&mut self, ctx: &mut SimCtx, ev: Event) {
        match ev {
            // The first datagram leaves on a zero-delay timer, not inline:
            // every source's start costs one event, which the committed
            // traces count. Every later one leaves on a tick, which is
            // never cancelled.
            Event::Start => {
                ctx.schedule_timer(SimDuration::ZERO, 0);
            }
            Event::Timer { .. } => {
                let id = ctx.next_packet_id();
                let pkt =
                    Packet::new(id, self.flow, self.packet_bytes, ctx.now()).with_prio(self.prio);
                self.path.send(ctx, pkt);
                ctx.schedule_tick(self.interval, 0);
            }
            _ => {}
        }
    }
}

/// Shared view of what a [`UdpSink`] received.
#[derive(Debug)]
pub struct UdpSinkStats {
    /// Datagrams received.
    pub packets: u64,
    /// Bytes received.
    pub bytes: u64,
    /// One-way latency samples in milliseconds (packet creation → arrival).
    pub latency_ms: Histogram,
    /// Delivery-rate meter (100 ms buckets).
    pub meter: RateMeter,
}

impl Default for UdpSinkStats {
    fn default() -> Self {
        UdpSinkStats {
            packets: 0,
            bytes: 0,
            latency_ms: Histogram::new(),
            meter: RateMeter::new(SimDuration::from_millis(100)),
        }
    }
}

/// Datagram sink counting packets, bytes and one-way latency.
#[derive(Debug)]
pub struct UdpSink {
    flow: u64,
    stats: Rc<RefCell<UdpSinkStats>>,
}

impl UdpSink {
    /// A sink accepting only datagrams of the given flow.
    pub fn new(flow: u64) -> Self {
        UdpSink { flow, stats: Rc::new(RefCell::new(UdpSinkStats::default())) }
    }

    /// Shared handle to the sink's statistics.
    pub fn stats(&self) -> Rc<RefCell<UdpSinkStats>> {
        Rc::clone(&self.stats)
    }
}

impl Actor for UdpSink {
    fn on_event(&mut self, ctx: &mut SimCtx, ev: Event) {
        if let Some(pkt) = unwrap_packet(ev) {
            if self.flow != pkt.flow {
                return;
            }
            let mut st = self.stats.borrow_mut();
            st.packets += 1;
            st.bytes += u64::from(pkt.size);
            st.latency_ms.record(ctx.now().saturating_since(pkt.created).as_millis_f64());
            st.meter.record(ctx.now(), u64::from(pkt.size));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marnet_sim::engine::Simulator;
    use marnet_sim::link::{Bandwidth, LinkParams};
    use marnet_sim::time::SimTime;

    #[test]
    fn cbr_source_hits_its_rate() {
        let mut sim = Simulator::new(2);
        let s = sim.reserve_actor();
        let r = sim.reserve_actor();
        let l = sim.add_link(
            s,
            r,
            LinkParams::new(Bandwidth::from_mbps(10.0), SimDuration::from_millis(5)),
        );
        sim.install_actor(s, UdpSource::with_rate_mbps(1, TxPath::Link(l), 1250, 2.0));
        let sink = UdpSink::new(1);
        let stats = sink.stats();
        sim.install_actor(r, sink);
        sim.run_until(SimTime::from_secs(10));
        let st = stats.borrow();
        let mbps = st.bytes as f64 * 8.0 / 10.0 / 1e6;
        assert!((mbps - 2.0).abs() < 0.1, "measured {mbps} Mb/s");
        // Latency = serialization (1 ms) + propagation (5 ms).
        let mut lat = st.latency_ms.clone();
        assert!((lat.median().unwrap() - 6.0).abs() < 0.5);
    }

    #[test]
    fn sink_filters_by_flow() {
        let mut sim = Simulator::new(4);
        let s = sim.reserve_actor();
        let r = sim.reserve_actor();
        let l = sim.add_link(s, r, LinkParams::new(Bandwidth::from_mbps(10.0), SimDuration::ZERO));
        sim.install_actor(
            s,
            UdpSource::new(42, TxPath::Link(l), 100, SimDuration::from_millis(10)),
        );
        let sink = UdpSink::new(7); // wrong flow
        let stats = sink.stats();
        sim.install_actor(r, sink);
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(stats.borrow().packets, 0);
    }

    #[test]
    #[should_panic]
    fn zero_interval_panics() {
        let mut sim = Simulator::new(4);
        let s = sim.reserve_actor();
        let r = sim.reserve_actor();
        let l = sim.add_link(s, r, LinkParams::new(Bandwidth::from_mbps(10.0), SimDuration::ZERO));
        let _ = UdpSource::new(1, TxPath::Link(l), 100, SimDuration::ZERO);
    }
}
