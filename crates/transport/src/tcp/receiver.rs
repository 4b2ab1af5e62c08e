//! The TCP receiver actor: cumulative ACKs, out-of-order reassembly and
//! optional delayed ACKs.

use super::{SharedReceiverStats, TcpSegment, HEADER_BYTES};
use crate::nic::{unwrap_packet, TxPath};
use marnet_sim::engine::{Actor, Event, SimCtx, TimerHandle};
use marnet_sim::packet::Packet;
use marnet_sim::stats::RateMeter;
use marnet_sim::time::{SimDuration, SimTime};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

const TAG_DELACK: u64 = 1;

/// Receiver-side statistics, shared with benchmark code.
#[derive(Debug)]
pub struct TcpReceiverStats {
    /// In-order bytes delivered to the application.
    pub goodput_bytes: u64,
    /// Segments that arrived out of order.
    pub out_of_order_segments: u64,
    /// ACKs sent.
    pub acks_sent: u64,
    /// Goodput meter (100 ms buckets) for throughput-vs-time figures.
    pub goodput_meter: RateMeter,
}

impl Default for TcpReceiverStats {
    fn default() -> Self {
        TcpReceiverStats {
            goodput_bytes: 0,
            out_of_order_segments: 0,
            acks_sent: 0,
            goodput_meter: RateMeter::new(SimDuration::from_millis(100)),
        }
    }
}

/// A TCP receiving endpoint.
pub struct TcpReceiver {
    conn: u64,
    path: TxPath,
    rcv_nxt: u64,
    /// Out-of-order segments: start seq → length.
    ooo: BTreeMap<u64, u32>,
    pending_segments: u32,
    delack_timer: Option<TimerHandle>,
    last_ts: Option<SimTime>,
    stats: SharedReceiverStats,
}

impl std::fmt::Debug for TcpReceiver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpReceiver")
            .field("conn", &self.conn)
            .field("rcv_nxt", &self.rcv_nxt)
            .field("ooo", &self.ooo.len())
            .finish()
    }
}

impl TcpReceiver {
    /// Creates a receiver for connection `conn`, sending ACKs via `path`.
    /// In-order data is acknowledged with delayed ACKs (one per two
    /// segments, 40 ms cap).
    pub fn new(conn: u64, path: TxPath) -> Self {
        TcpReceiver {
            conn,
            path,
            rcv_nxt: 0,
            ooo: BTreeMap::new(),
            pending_segments: 0,
            delack_timer: None,
            last_ts: None,
            stats: Rc::new(RefCell::new(TcpReceiverStats::default())),
        }
    }

    /// Shared handle to receiver statistics.
    pub fn stats(&self) -> SharedReceiverStats {
        Rc::clone(&self.stats)
    }

    fn send_ack(&mut self, ctx: &mut SimCtx) {
        if let Some(h) = self.delack_timer.take() {
            ctx.cancel_timer(h);
        }
        self.pending_segments = 0;
        let seg = TcpSegment {
            conn: self.conn,
            seq: 0,
            len: 0,
            ack: self.rcv_nxt,
            is_ack: true,
            ts: ctx.now(),
            ts_echo: self.last_ts,
        };
        let id = ctx.next_packet_id();
        let pkt = Packet::new(id, self.conn, HEADER_BYTES, ctx.now()).with_payload(seg);
        self.path.send(ctx, pkt);
        self.stats.borrow_mut().acks_sent += 1;
    }

    fn on_data(&mut self, ctx: &mut SimCtx, seg: &TcpSegment) {
        self.last_ts = Some(seg.ts);
        let end = seg.seq + u64::from(seg.len);
        let mut advanced = false;
        if seg.seq <= self.rcv_nxt && end > self.rcv_nxt {
            let newly = end - self.rcv_nxt;
            self.rcv_nxt = end;
            advanced = true;
            let mut st = self.stats.borrow_mut();
            st.goodput_bytes += newly;
            st.goodput_meter.record(ctx.now(), newly);
            drop(st);
            // Drain any contiguous out-of-order segments.
            while let Some((&s, &l)) = self.ooo.first_key_value() {
                let e = s + u64::from(l);
                if s <= self.rcv_nxt {
                    self.ooo.remove(&s);
                    if e > self.rcv_nxt {
                        let newly = e - self.rcv_nxt;
                        self.rcv_nxt = e;
                        let mut st = self.stats.borrow_mut();
                        st.goodput_bytes += newly;
                        st.goodput_meter.record(ctx.now(), newly);
                    }
                } else {
                    break;
                }
            }
        } else if seg.seq > self.rcv_nxt {
            self.ooo.insert(seg.seq, seg.len);
            self.stats.borrow_mut().out_of_order_segments += 1;
        }
        // Ack policy: out-of-order or retransmission → immediate (dup)ACK,
        // in-order → delayed (every 2nd segment or 40 ms).
        if !advanced || !self.ooo.is_empty() {
            self.send_ack(ctx);
        } else {
            self.pending_segments += 1;
            if self.pending_segments >= 2 {
                self.send_ack(ctx);
            } else if self.delack_timer.is_none() {
                self.delack_timer =
                    Some(ctx.schedule_timer(SimDuration::from_millis(40), TAG_DELACK));
            }
        }
    }
}

impl Actor for TcpReceiver {
    fn on_event(&mut self, ctx: &mut SimCtx, ev: Event) {
        match ev {
            Event::Timer { tag: TAG_DELACK } => {
                self.delack_timer = None;
                if self.pending_segments > 0 {
                    self.send_ack(ctx);
                }
            }
            other => {
                if let Some(pkt) = unwrap_packet(other) {
                    if let Some(seg) = pkt.payload.downcast_ref::<TcpSegment>() {
                        if !seg.is_ack && seg.conn == self.conn {
                            let seg = seg.clone();
                            self.on_data(ctx, &seg);
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nic::TxPath;
    use crate::tcp::{Reno, TcpConfig, TcpSender, MSS};
    use marnet_sim::engine::Simulator;
    use marnet_sim::link::{Bandwidth, LinkParams, LossModel};
    use marnet_sim::time::SimTime;

    fn duplex(
        sim: &mut Simulator,
        loss_fwd: f64,
    ) -> (
        marnet_sim::engine::ActorId,
        marnet_sim::engine::ActorId,
        marnet_sim::link::LinkId,
        marnet_sim::link::LinkId,
    ) {
        let s = sim.reserve_actor();
        let r = sim.reserve_actor();
        // Large queues so the only loss is the injected random loss.
        let big = marnet_sim::queue::QueueConfig::DropTail { cap_packets: 10_000 };
        let fwd = sim.add_link(
            s,
            r,
            LinkParams::new(Bandwidth::from_mbps(8.0), SimDuration::from_millis(10))
                .with_loss(LossModel::Bernoulli { p: loss_fwd })
                .with_queue(big.clone()),
        );
        let rev = sim.add_link(
            r,
            s,
            LinkParams::new(Bandwidth::from_mbps(8.0), SimDuration::from_millis(10))
                .with_queue(big),
        );
        (s, r, fwd, rev)
    }

    #[test]
    fn in_order_stream_counts_goodput_once() {
        let mut sim = Simulator::new(7);
        let (s, r, fwd, rev) = duplex(&mut sim, 0.0);
        let cfg =
            TcpConfig { data: super::super::DataSource::Finite(500_000), ..Default::default() };
        let sender = TcpSender::new(9, TxPath::Link(fwd), cfg, Box::new(Reno::new(MSS)));
        sim.install_actor(s, sender);
        let recv = TcpReceiver::new(9, TxPath::Link(rev));
        let stats = recv.stats();
        sim.install_actor(r, recv);
        sim.run_until(SimTime::from_secs(30));
        let st = stats.borrow();
        assert_eq!(st.goodput_bytes, 500_000);
        assert_eq!(st.out_of_order_segments, 0);
    }

    #[test]
    fn loss_produces_out_of_order_arrivals_then_recovery() {
        let mut sim = Simulator::new(8);
        let (s, r, fwd, rev) = duplex(&mut sim, 0.03);
        let cfg =
            TcpConfig { data: super::super::DataSource::Finite(500_000), ..Default::default() };
        let sender = TcpSender::new(9, TxPath::Link(fwd), cfg, Box::new(Reno::new(MSS)));
        let sstats = sender.stats();
        sim.install_actor(s, sender);
        let recv = TcpReceiver::new(9, TxPath::Link(rev));
        let stats = recv.stats();
        sim.install_actor(r, recv);
        sim.run_until(SimTime::from_secs(120));
        let st = stats.borrow();
        assert_eq!(st.goodput_bytes, 500_000, "reassembly must deliver every byte exactly once");
        assert!(st.out_of_order_segments > 0);
        assert!(sstats.borrow().completed_at.is_some());
    }

    #[test]
    fn delayed_ack_halves_ack_count() {
        let mut sim = Simulator::new(9);
        let (s, r, fwd, rev) = duplex(&mut sim, 0.0);
        let cfg =
            TcpConfig { data: super::super::DataSource::Finite(1_000_000), ..Default::default() };
        sim.install_actor(s, TcpSender::new(9, TxPath::Link(fwd), cfg, Box::new(Reno::new(MSS))));
        let recv = TcpReceiver::new(9, TxPath::Link(rev));
        let stats = recv.stats();
        sim.install_actor(r, recv);
        sim.run_until(SimTime::from_secs(30));
        let st = stats.borrow();
        let segments = (1_000_000u64).div_ceil(u64::from(MSS));
        assert!(
            st.acks_sent < segments * 3 / 4,
            "delayed ACKs should cut ACK volume: {} acks for {} segments",
            st.acks_sent,
            segments
        );
    }
}
