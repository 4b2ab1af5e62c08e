//! Packet-level TCP: segments, configuration and the sender/receiver actors.
//!
//! The model is byte-stream TCP with MSS-sized segments, cumulative ACKs,
//! NewReno-style fast retransmit/recovery, RFC 6298 retransmission timeouts
//! and optional delayed ACKs. It is detailed enough to reproduce the
//! dynamics the paper leans on: slow start / AIMD sawtooth (Fig. 4's
//! baseline), ACK starvation on congested asymmetric uplinks (Fig. 3), and
//! loss-vs-delay-based fairness (§VI-B).

mod cc;
mod receiver;
mod rtt;
mod sender;

pub use cc::{CongestionControl, Reno, Vegas};
pub use receiver::{TcpReceiver, TcpReceiverStats};
pub use rtt::RttEstimator;
pub use sender::{TcpFlowStats, TcpSender};

use marnet_sim::time::SimTime;
use std::cell::RefCell;
use std::rc::Rc;

/// TCP/IP header overhead added to every segment, in bytes.
pub const HEADER_BYTES: u32 = 40;

/// Maximum segment size: payload bytes per packet.
pub const MSS: u32 = 1460;

/// A TCP segment carried as a packet payload.
#[derive(Debug, Clone)]
pub struct TcpSegment {
    /// Connection (flow) identifier.
    pub conn: u64,
    /// Sequence number of the first payload byte.
    pub seq: u64,
    /// Payload length in bytes (0 for pure ACKs).
    pub len: u32,
    /// Cumulative acknowledgement: next byte expected by the sender of this
    /// segment.
    pub ack: u64,
    /// `true` if this is a pure ACK (no payload).
    pub is_ack: bool,
    /// Transmission timestamp (TSval).
    pub ts: SimTime,
    /// Echoed timestamp (TSecr) for RTT measurement, if any.
    pub ts_echo: Option<SimTime>,
}

/// How much data a sender has to move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataSource {
    /// A greedy, never-ending flow (bulk transfer).
    Unlimited,
    /// A flow of exactly this many bytes; completion is recorded in
    /// [`TcpFlowStats::completed_at`].
    Finite(u64),
}

/// Sender configuration. Segments carry [`MSS`] payload bytes; the
/// initial window is the congestion controller's (10 segments, RFC 6928).
#[derive(Debug, Clone)]
pub struct TcpConfig {
    /// Amount of data to send.
    pub data: DataSource,
    /// When the flow starts.
    pub start_at: SimTime,
    /// Priority band stamped on data segments (0 = highest; priority
    /// queues on the path use it for classification).
    pub prio: u8,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig { data: DataSource::Unlimited, start_at: SimTime::ZERO, prio: 0 }
    }
}

/// Shared, inspectable handle to a flow's statistics.
///
/// The simulation is single-threaded, so an `Rc<RefCell<..>>` is the
/// idiomatic way for benchmark code to watch an actor it no longer owns.
pub type SharedFlowStats = Rc<RefCell<TcpFlowStats>>;

/// Shared handle to receiver-side statistics.
pub type SharedReceiverStats = Rc<RefCell<TcpReceiverStats>>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nic::TxPath;
    use marnet_sim::engine::Simulator;
    use marnet_sim::link::{Bandwidth, LinkParams, LossModel};
    use marnet_sim::queue::QueueConfig;
    use marnet_sim::time::SimDuration;

    /// End-to-end: a finite transfer over a clean link completes, and the
    /// goodput approaches the bottleneck rate.
    #[test]
    fn bulk_transfer_fills_a_clean_link() {
        let mut sim = Simulator::new(42);
        let s = sim.reserve_actor();
        let r = sim.reserve_actor();
        let big = QueueConfig::DropTail { cap_packets: 10_000 };
        let fwd = sim.add_link(
            s,
            r,
            LinkParams::new(Bandwidth::from_mbps(10.0), SimDuration::from_millis(10))
                .with_queue(big.clone()),
        );
        let rev = sim.add_link(
            r,
            s,
            LinkParams::new(Bandwidth::from_mbps(10.0), SimDuration::from_millis(10))
                .with_queue(big),
        );
        let sender =
            TcpSender::new(1, TxPath::Link(fwd), TcpConfig::default(), Box::new(Reno::new(MSS)));
        let stats = sender.stats();
        sim.install_actor(s, sender);
        let receiver = TcpReceiver::new(1, TxPath::Link(rev));
        let rstats = receiver.stats();
        sim.install_actor(r, receiver);
        sim.run_until(SimTime::from_secs(10));
        let delivered = rstats.borrow().goodput_bytes;
        let mbps = delivered as f64 * 8.0 / 10.0 / 1e6;
        assert!(mbps > 8.0, "goodput {mbps} Mb/s on a 10 Mb/s link");
        assert_eq!(stats.borrow().timeouts, 0);
    }

    /// A lossy link still completes a finite transfer (retransmissions work).
    #[test]
    fn finite_transfer_completes_despite_loss() {
        let mut sim = Simulator::new(43);
        let s = sim.reserve_actor();
        let r = sim.reserve_actor();
        let fwd = sim.add_link(
            s,
            r,
            LinkParams::new(Bandwidth::from_mbps(5.0), SimDuration::from_millis(5))
                .with_loss(LossModel::Bernoulli { p: 0.02 }),
        );
        let rev = sim.add_link(
            r,
            s,
            LinkParams::new(Bandwidth::from_mbps(5.0), SimDuration::from_millis(5)),
        );
        let total = 2_000_000u64;
        let cfg = TcpConfig { data: DataSource::Finite(total), ..TcpConfig::default() };
        let sender = TcpSender::new(1, TxPath::Link(fwd), cfg, Box::new(Reno::new(MSS)));
        let stats = sender.stats();
        sim.install_actor(s, sender);
        let receiver = TcpReceiver::new(1, TxPath::Link(rev));
        let rstats = receiver.stats();
        sim.install_actor(r, receiver);
        sim.run_until(SimTime::from_secs(60));
        let st = stats.borrow();
        assert!(st.completed_at.is_some(), "transfer did not complete");
        assert!(st.retransmits > 0, "2% loss must cause retransmissions");
        assert_eq!(rstats.borrow().goodput_bytes, total);
    }

    /// Two Reno flows over the same bottleneck share it roughly fairly.
    #[test]
    fn reno_flows_share_a_bottleneck() {
        use crate::nic::Nic;
        let mut sim = Simulator::new(44);
        let nic_a = sim.reserve_actor();
        let nic_b = sim.reserve_actor();
        let bottleneck = LinkParams::new(Bandwidth::from_mbps(10.0), SimDuration::from_millis(10))
            .with_queue(QueueConfig::DropTail { cap_packets: 60 });
        let fwd = sim.add_link(nic_a, nic_b, bottleneck.clone());
        let rev = sim.add_link(nic_b, nic_a, bottleneck);

        let mut receivers = Vec::new();
        let mut senders = Vec::new();
        let mut nic_a_routes = Nic::new(fwd);
        let mut nic_b_routes = Nic::new(rev);
        let mut rstats = Vec::new();
        for conn in 1..=2u64 {
            let s = sim.reserve_actor();
            let r = sim.reserve_actor();
            let sender = TcpSender::new(
                conn,
                TxPath::Nic(nic_a),
                TcpConfig::default(),
                Box::new(Reno::new(MSS)),
            );
            sim.install_actor(s, sender);
            let receiver = TcpReceiver::new(conn, TxPath::Nic(nic_b));
            rstats.push(receiver.stats());
            sim.install_actor(r, receiver);
            nic_a_routes.add_route(conn, s);
            nic_b_routes.add_route(conn, r);
            senders.push(s);
            receivers.push(r);
        }
        sim.install_actor(nic_a, nic_a_routes);
        sim.install_actor(nic_b, nic_b_routes);
        sim.run_until(SimTime::from_secs(30));
        let g1 = rstats[0].borrow().goodput_bytes as f64;
        let g2 = rstats[1].borrow().goodput_bytes as f64;
        let total_mbps = (g1 + g2) * 8.0 / 30.0 / 1e6;
        assert!(total_mbps > 8.0, "aggregate {total_mbps}");
        let fairness = marnet_sim::stats::jain_index(&[g1, g2]);
        assert!(fairness > 0.8, "Jain index {fairness} (g1={g1}, g2={g2})");
    }
}
