//! Request/response RTT probes — the instrument behind Table II.
//!
//! §IV-B of the paper measures the CloudRidAR platform's link RTT in four
//! scenarios by timing offload transactions. [`ProbeClient`] sends a request
//! of configurable size, [`ProbeServer`] replies at once, and the client
//! records the full round-trip latency.

use crate::nic::{unwrap_packet, TxPath};
use marnet_sim::engine::{Actor, Event, SimCtx};
use marnet_sim::packet::{Packet, PayloadPool};
use marnet_sim::stats::Histogram;
use marnet_sim::time::{SimDuration, SimTime};
use marnet_telemetry::TimeBuckets;
use std::cell::RefCell;
use std::rc::Rc;

/// Payload of a probe request/response.
#[derive(Debug, Clone)]
pub struct ProbeMessage {
    /// Probe sequence number.
    pub seq: u64,
    /// When the client emitted the request.
    pub sent_at: SimTime,
    /// `true` for server → client responses.
    pub is_response: bool,
}

/// Shared RTT samples collected by a [`ProbeClient`].
#[derive(Debug, Default)]
pub struct ProbeStats {
    /// Round-trip times in milliseconds.
    pub rtt_ms: Histogram,
    /// Requests sent.
    pub sent: u64,
    /// Responses received.
    pub received: u64,
    /// RTT samples (ms) over sim time, in 100 ms buckets, when
    /// [`ProbeClient::with_rtt_series`] asked for them (boxed: only a
    /// metered run has one, so the others carry one pointer).
    pub rtt_series: Option<Box<TimeBuckets>>,
}

/// Periodic prober measuring round-trip latency to a [`ProbeServer`].
#[derive(Debug)]
pub struct ProbeClient {
    flow: u64,
    path: TxPath,
    request_bytes: u32,
    interval: SimDuration,
    count: u64,
    next_seq: u64,
    stats: Rc<RefCell<ProbeStats>>,
    /// Request payloads, reused once the server and the links are done
    /// with them.
    pool: PayloadPool<ProbeMessage>,
}

impl ProbeClient {
    /// A client sending `count` probes of `request_bytes` every `interval`.
    pub fn new(
        flow: u64,
        path: TxPath,
        request_bytes: u32,
        interval: SimDuration,
        count: u64,
    ) -> Self {
        ProbeClient {
            flow,
            path,
            request_bytes,
            interval,
            count,
            next_seq: 0,
            stats: Rc::new(RefCell::new(ProbeStats::default())),
            pool: PayloadPool::new(),
        }
    }

    /// Also keeps every RTT sample over sim time in
    /// [`ProbeStats::rtt_series`], builder style.
    #[must_use]
    pub fn with_rtt_series(self) -> Self {
        self.stats.borrow_mut().rtt_series = Some(Box::new(TimeBuckets::new(100_000_000)));
        self
    }

    /// Shared handle to the collected samples.
    pub fn stats(&self) -> Rc<RefCell<ProbeStats>> {
        Rc::clone(&self.stats)
    }

    fn fire(&mut self, ctx: &mut SimCtx) {
        if self.next_seq >= self.count {
            return;
        }
        let msg = ProbeMessage { seq: self.next_seq, sent_at: ctx.now(), is_response: false };
        self.next_seq += 1;
        let payload = self.pool.prepare(|| msg.clone(), |m| *m = msg.clone());
        let id = ctx.next_packet_id();
        let pkt =
            Packet::new(id, self.flow, self.request_bytes, ctx.now()).with_shared_payload(payload);
        self.path.send(ctx, pkt);
        self.stats.borrow_mut().sent += 1;
        ctx.schedule_tick(self.interval, 0);
    }
}

impl Actor for ProbeClient {
    fn on_event(&mut self, ctx: &mut SimCtx, ev: Event) {
        match ev {
            Event::Start | Event::Timer { .. } => self.fire(ctx),
            other => {
                if let Some(pkt) = unwrap_packet(other) {
                    if pkt.flow != self.flow {
                        return;
                    }
                    if let Some(msg) = pkt.payload.downcast_ref::<ProbeMessage>() {
                        if msg.is_response {
                            let rtt = ctx.now().saturating_since(msg.sent_at);
                            let mut st = self.stats.borrow_mut();
                            st.received += 1;
                            st.rtt_ms.record(rtt.as_millis_f64());
                            if let Some(series) = &mut st.rtt_series {
                                series.observe(ctx.now().as_nanos(), rtt.as_millis_f64());
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Echo server answering probes the instant they arrive (Table II times
/// the link, not server-side computation).
#[derive(Debug)]
pub struct ProbeServer {
    flow: u64,
    path: TxPath,
    response_bytes: u32,
    /// Response payloads, reused once the client is done with them.
    pool: PayloadPool<ProbeMessage>,
}

impl ProbeServer {
    /// A server replying with `response_bytes` immediately.
    pub fn new(flow: u64, path: TxPath, response_bytes: u32) -> Self {
        ProbeServer { flow, path, response_bytes, pool: PayloadPool::new() }
    }

    fn respond(&mut self, ctx: &mut SimCtx, mut msg: ProbeMessage) {
        msg.is_response = true;
        let payload = self.pool.prepare(|| msg.clone(), |m| *m = msg.clone());
        let id = ctx.next_packet_id();
        let pkt =
            Packet::new(id, self.flow, self.response_bytes, ctx.now()).with_shared_payload(payload);
        self.path.send(ctx, pkt);
    }
}

impl Actor for ProbeServer {
    fn on_event(&mut self, ctx: &mut SimCtx, ev: Event) {
        if let Some(pkt) = unwrap_packet(ev) {
            if pkt.flow != self.flow {
                return;
            }
            if let Some(msg) = pkt.payload.downcast_ref::<ProbeMessage>() {
                if !msg.is_response {
                    let msg = msg.clone();
                    self.respond(ctx, msg);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marnet_sim::engine::Simulator;
    use marnet_sim::link::{Bandwidth, LinkParams};

    fn setup(one_way: SimDuration) -> Rc<RefCell<ProbeStats>> {
        let mut sim = Simulator::new(5);
        let c = sim.reserve_actor();
        let s = sim.reserve_actor();
        let fwd = sim.add_link(c, s, LinkParams::new(Bandwidth::from_mbps(100.0), one_way));
        let rev = sim.add_link(s, c, LinkParams::new(Bandwidth::from_mbps(100.0), one_way));
        let client = ProbeClient::new(1, TxPath::Link(fwd), 200, SimDuration::from_millis(50), 50);
        let stats = client.stats();
        sim.install_actor(c, client);
        sim.install_actor(s, ProbeServer::new(1, TxPath::Link(rev), 200));
        sim.run_until(SimTime::from_secs(10));
        stats
    }

    #[test]
    fn rtt_equals_twice_one_way_plus_serialization() {
        let stats = setup(SimDuration::from_millis(18));
        let st = stats.borrow();
        assert_eq!(st.sent, 50);
        assert_eq!(st.received, 50);
        let mut h = st.rtt_ms.clone();
        let median = h.median().unwrap();
        // 2×18 ms propagation + 2×16 µs serialization ≈ 36 ms.
        assert!((median - 36.0).abs() < 0.5, "median RTT {median}");
    }
}
