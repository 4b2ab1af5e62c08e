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
use marnet_sim::time::{SimDuration, SimTime};
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

    /// Datagrams this source emits strictly before `horizon`:
    /// `ceil(horizon / interval)`, 0 at horizon zero.
    ///
    /// The `k`-th datagram (from 0) leaves at `k · interval`, so a sink
    /// behind a path that takes any time at all receives at most this many
    /// by the horizon. The count uses the interval in force, i.e. after
    /// [`UdpSource::with_rate_mbps`]' rounding.
    pub fn sends_before(&self, horizon: SimTime) -> u64 {
        horizon.as_nanos().div_ceil(self.interval.as_nanos())
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

/// Width of a sink's [`UdpSinkStats::meter`] buckets.
const METER_BUCKET: SimDuration = SimDuration::from_millis(100);

impl Default for UdpSinkStats {
    fn default() -> Self {
        UdpSinkStats {
            packets: 0,
            bytes: 0,
            latency_ms: Histogram::new(),
            meter: RateMeter::new(METER_BUCKET),
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

    /// A sink for `source`'s datagrams whose records have room for all it
    /// can receive by `horizon`: one latency sample per datagram the source
    /// sends before it ([`UdpSource::sends_before`]) and a meter bucket up
    /// to it, so neither grows during a run to that horizon. If the source
    /// sends nothing before the horizon, nothing is reserved.
    ///
    /// The room is the offered count: prefer [`UdpSink::new`] where most
    /// datagrams are lost on the way.
    pub fn sized_for(source: &UdpSource, horizon: SimTime) -> Self {
        let datagrams = source.sends_before(horizon);
        let mut stats = UdpSinkStats::default();
        if datagrams > 0 {
            stats.latency_ms =
                Histogram::with_capacity(usize::try_from(datagrams).unwrap_or(usize::MAX));
            stats.meter = RateMeter::with_horizon(METER_BUCKET, horizon);
        }
        UdpSink { flow: source.flow, stats: Rc::new(RefCell::new(stats)) }
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

    proptest::proptest! {
        /// A CBR source over one link into a sized sink: the sink never
        /// receives more than the source sends before the horizon, and
        /// that count is exactly what left strictly before it.
        #[test]
        fn a_sink_receives_at_most_what_its_source_sends_before_the_horizon(
            source_mbps in 0.05f64..50.0,
            packet_bytes in 1u32..=1500,
            link_mbps in 0.05f64..1000.0,
            delay_us in 0u64..50_000,
            horizon_kind in 0u8..4,
            k in 1u64..400,
            anywhere_ns in 0u64..3_000_000_000,
        ) {
            let mut sim = Simulator::new(5);
            let s = sim.reserve_actor();
            let r = sim.reserve_actor();
            let l = sim.add_link(
                s,
                r,
                LinkParams::new(Bandwidth::from_mbps(link_mbps), SimDuration::from_micros(delay_us)),
            );
            let src = UdpSource::with_rate_mbps(9, TxPath::Link(l), packet_bytes, source_mbps);
            // Zero, on a send instant, one nanosecond before one, or anywhere.
            let at_send = k * src.interval.as_nanos();
            let horizon_ns = [0, at_send, at_send - 1, anywhere_ns][usize::from(horizon_kind)];
            let horizon = SimTime::from_nanos(horizon_ns);
            let count = src.sends_before(horizon);
            // The run delivers events at the horizon itself, so a datagram
            // due exactly then has left too.
            let due_at_horizon = u64::from(horizon_ns.is_multiple_of(src.interval.as_nanos()));
            let sink = UdpSink::sized_for(&src, horizon);
            let stats = sink.stats();
            sim.install_actor(s, src);
            sim.install_actor(r, sink);
            sim.run_until(horizon);
            proptest::prop_assert!(stats.borrow().packets <= count);
            proptest::prop_assert_eq!(sim.ctx().link_stats(l).offered_packets, count + due_at_horizon);
            if horizon_ns == 0 {
                proptest::prop_assert_eq!(count, 0);
            }
        }
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
