//! The TCP sender actor.

use super::cc::CongestionControl;
use super::rtt::RttEstimator;
use super::{DataSource, SharedFlowStats, TcpConfig, TcpSegment, HEADER_BYTES, MSS};
use crate::nic::{unwrap_packet, TxPath};
use marnet_sim::engine::{Actor, Event, SimCtx, TimerHandle};
use marnet_sim::packet::Packet;
use marnet_sim::stats::TimeSeries;
use marnet_sim::time::SimTime;
use std::cell::RefCell;
use std::rc::Rc;

const TAG_START: u64 = 1;
const TAG_RTO: u64 = 2;

/// Observable sender-side statistics, shared with benchmark code.
#[derive(Debug, Default)]
pub struct TcpFlowStats {
    /// Data segments transmitted (including retransmissions).
    pub segments_sent: u64,
    /// Fast retransmissions triggered by triple duplicate ACKs.
    pub retransmits: u64,
    /// Retransmission timeouts fired.
    pub timeouts: u64,
    /// When a [`DataSource::Finite`] flow finished, if it did.
    pub completed_at: Option<SimTime>,
    /// The congestion window (bytes) at the start and after every new ACK,
    /// loss and timeout, summed per second.
    pub cwnd_series: TimeSeries,
    /// The latest smoothed RTT (milliseconds), once there is one.
    pub srtt_ms: Option<f64>,
}

/// A TCP sending endpoint.
///
/// Pair it with a [`super::TcpReceiver`] for the same connection id; see the
/// module tests for a complete topology.
pub struct TcpSender {
    conn: u64,
    path: TxPath,
    cfg: TcpConfig,
    cc: Box<dyn CongestionControl>,
    rtt: RttEstimator,
    snd_una: u64,
    next_seq: u64,
    dupacks: u32,
    in_recovery: bool,
    recover: u64,
    rto_timer: Option<TimerHandle>,
    rto_backoff: u32,
    stats: SharedFlowStats,
}

impl std::fmt::Debug for TcpSender {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpSender")
            .field("conn", &self.conn)
            .field("snd_una", &self.snd_una)
            .field("next_seq", &self.next_seq)
            .field("cwnd", &self.cc.cwnd())
            .finish()
    }
}

impl TcpSender {
    /// Creates a sender for connection `conn`, transmitting via `path`.
    pub fn new(conn: u64, path: TxPath, cfg: TcpConfig, cc: Box<dyn CongestionControl>) -> Self {
        TcpSender {
            conn,
            path,
            cfg,
            cc,
            rtt: RttEstimator::new(),
            snd_una: 0,
            next_seq: 0,
            dupacks: 0,
            in_recovery: false,
            recover: 0,
            rto_timer: None,
            rto_backoff: 1,
            stats: Rc::new(RefCell::new(TcpFlowStats::default())),
        }
    }

    /// Shared handle to this flow's statistics; keep a clone to inspect the
    /// flow after handing the sender to the simulator.
    pub fn stats(&self) -> SharedFlowStats {
        Rc::clone(&self.stats)
    }

    fn total_bytes(&self) -> u64 {
        match self.cfg.data {
            DataSource::Unlimited => u64::MAX,
            DataSource::Finite(n) => n,
        }
    }

    fn record_cwnd(&self, now: SimTime) {
        let mut st = self.stats.borrow_mut();
        st.cwnd_series.push(now, self.cc.cwnd());
        if let Some(srtt) = self.rtt.srtt() {
            st.srtt_ms = Some(srtt.as_millis_f64());
        }
    }

    fn send_segment(&mut self, ctx: &mut SimCtx, seq: u64) {
        let remaining = self.total_bytes().saturating_sub(seq);
        let len = u64::from(MSS).min(remaining) as u32;
        if len == 0 {
            return;
        }
        let seg = TcpSegment {
            conn: self.conn,
            seq,
            len,
            ack: 0,
            is_ack: false,
            ts: ctx.now(),
            ts_echo: None,
        };
        let id = ctx.next_packet_id();
        let pkt = Packet::new(id, self.conn, len + HEADER_BYTES, ctx.now())
            .with_prio(self.cfg.prio)
            .with_payload(seg);
        self.path.send(ctx, pkt);
        self.stats.borrow_mut().segments_sent += 1;
    }

    fn window_limit(&self) -> u64 {
        self.snd_una + self.cc.cwnd()
    }

    fn try_send(&mut self, ctx: &mut SimCtx) {
        let total = self.total_bytes();
        while self.next_seq < self.window_limit() && self.next_seq < total {
            let seq = self.next_seq;
            let len = u64::from(MSS).min(total - seq);
            self.send_segment(ctx, seq);
            self.next_seq = seq + len;
        }
        self.arm_rto(ctx);
    }

    fn arm_rto(&mut self, ctx: &mut SimCtx) {
        let pending = self.rto_timer.take();
        if self.snd_una < self.next_seq {
            let rto = (self.rtt.rto() * u64::from(self.rto_backoff)).min(RttEstimator::MAX_RTO);
            // Restarted on every ACK that advances: move the timer in place.
            self.rto_timer = Some(match pending {
                Some(h) => ctx.rearm_timer(h, rto, TAG_RTO),
                None => ctx.schedule_timer(rto, TAG_RTO),
            });
        } else if let Some(h) = pending {
            ctx.cancel_timer(h);
        }
    }

    fn on_ack_segment(&mut self, ctx: &mut SimCtx, seg: &TcpSegment) {
        if seg.ack > self.snd_una {
            let newly = seg.ack - self.snd_una;
            self.snd_una = seg.ack;
            self.dupacks = 0;
            self.rto_backoff = 1;

            let rtt_sample = seg.ts_echo.map(|ts| ctx.now().saturating_since(ts));
            if let Some(s) = rtt_sample {
                self.rtt.sample(s);
            }

            if self.in_recovery {
                if seg.ack >= self.recover {
                    self.in_recovery = false;
                } else {
                    // NewReno partial ACK: the next hole is lost too.
                    self.send_segment(ctx, self.snd_una);
                    self.stats.borrow_mut().retransmits += 1;
                }
            } else {
                let flight = self.next_seq - self.snd_una;
                self.cc.on_ack(newly, flight, rtt_sample, ctx.now());
            }
            self.record_cwnd(ctx.now());

            if self.snd_una >= self.total_bytes() {
                let mut st = self.stats.borrow_mut();
                if st.completed_at.is_none() {
                    st.completed_at = Some(ctx.now());
                }
                if let Some(h) = self.rto_timer.take() {
                    ctx.cancel_timer(h);
                }
                return;
            }
            self.try_send(ctx);
        } else if seg.ack == self.snd_una && self.next_seq > self.snd_una {
            self.dupacks += 1;
            if self.dupacks == 3 && !self.in_recovery {
                self.in_recovery = true;
                self.recover = self.next_seq;
                self.cc.on_loss(ctx.now());
                self.send_segment(ctx, self.snd_una);
                self.stats.borrow_mut().retransmits += 1;
                self.record_cwnd(ctx.now());
                self.arm_rto(ctx);
            }
        }
    }

    fn on_rto(&mut self, ctx: &mut SimCtx) {
        self.rto_timer = None;
        if self.snd_una >= self.next_seq {
            return; // Everything acked; stale timer.
        }
        self.cc.on_timeout(ctx.now());
        self.in_recovery = false;
        self.dupacks = 0;
        self.rto_backoff = (self.rto_backoff * 2).min(64);
        self.send_segment(ctx, self.snd_una);
        {
            let mut st = self.stats.borrow_mut();
            st.timeouts += 1;
            st.retransmits += 1;
        }
        self.record_cwnd(ctx.now());
        self.arm_rto(ctx);
    }
}

impl Actor for TcpSender {
    fn on_event(&mut self, ctx: &mut SimCtx, ev: Event) {
        match ev {
            Event::Start => {
                let delay = self.cfg.start_at.saturating_since(SimTime::ZERO);
                let wait = delay.saturating_sub(ctx.now().saturating_since(SimTime::ZERO));
                ctx.schedule_timer(wait, TAG_START);
            }
            Event::Timer { tag: TAG_START } => {
                self.record_cwnd(ctx.now());
                self.try_send(ctx);
            }
            Event::Timer { tag: TAG_RTO } => self.on_rto(ctx),
            other => {
                if let Some(pkt) = unwrap_packet(other) {
                    if let Some(seg) = pkt.payload.downcast_ref::<TcpSegment>() {
                        if seg.is_ack && seg.conn == self.conn {
                            let seg = seg.clone();
                            self.on_ack_segment(ctx, &seg);
                        }
                    }
                }
            }
        }
    }
}
