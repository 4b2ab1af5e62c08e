//! On-the-wire structures of the AR protocol.
//!
//! The protocol is datagram-based ("the actual implementation of this
//! protocol may be done on top of UDP at the application level", §VI-H):
//! data packets carry fragment descriptors and timestamps; feedback packets
//! carry per-path cumulative acknowledgements, NACK lists, loss counts and
//! timestamp echoes.

use crate::class::{StreamKind, TrafficClass};
use marnet_sim::time::SimTime;

/// Protocol header overhead per packet, in bytes (UDP/IP + AR header).
pub const AR_HEADER_BYTES: u32 = 30;

/// Identity of one fragment, as carried in FEC parity headers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FragmentId {
    /// Per-path sequence number the fragment was sent with.
    pub seq: u64,
    /// Message it belongs to.
    pub msg_id: u64,
    /// Index within the message.
    pub frag_index: u32,
}

/// FEC grouping information attached to recovery-class packets.
#[derive(Debug, Clone, PartialEq)]
pub struct FecInfo {
    /// Group identifier (per path).
    pub group: u64,
    /// The fragments the group covers. Only parity packets carry the list;
    /// data packets leave it empty (they identify themselves by `seq` and
    /// carry just the group id, so the send path never allocates).
    pub covered: Vec<FragmentId>,
    /// `true` for the parity packet of the group.
    pub is_parity: bool,
}

/// A data packet.
#[derive(Debug, Clone)]
pub struct ArPacket {
    /// Connection identifier.
    pub conn: u64,
    /// Session epoch the sender believes the receiver is in (incarnation
    /// number). The receiver discards packets from a dead epoch — without
    /// this, old-session packets still in flight after an edge restart
    /// would poison the fresh sequence space.
    pub epoch: u32,
    /// Index of the path this packet was sent on.
    pub path: usize,
    /// Per-path sequence number (gaps ⇒ loss detection).
    pub seq: u64,
    /// Message this fragment belongs to (unused for parity packets).
    pub msg_id: u64,
    /// Fragment index within the message.
    pub frag_index: u32,
    /// Total fragments of the message.
    pub frag_count: u32,
    /// Total payload size of the message in bytes.
    pub msg_size: u32,
    /// Sub-stream of the carried message.
    pub kind: StreamKind,
    /// Traffic class.
    pub class: TrafficClass,
    /// When the application created the message (end-to-end latency).
    pub created: SimTime,
    /// Application-level reference instant carried end to end, if any.
    pub origin: Option<SimTime>,
    /// Message deadline, if any.
    pub deadline: Option<SimTime>,
    /// Transmission timestamp (echoed by feedback for RTT).
    pub ts: SimTime,
    /// FEC grouping, if the packet participates in FEC.
    pub fec: Option<FecInfo>,
}

/// A feedback packet (receiver → sender), one per path per interval.
#[derive(Debug, Clone)]
pub struct ArFeedback {
    /// Connection identifier.
    pub conn: u64,
    /// Receiver session epoch. Bumped when the receiver re-establishes its
    /// session after an edge crash; a sender seeing a new epoch knows the
    /// peer's receive state is gone and must re-sync (drop retransmit
    /// state, restart sequence spaces).
    pub epoch: u32,
    /// Path this feedback describes.
    pub path: usize,
    /// Highest sequence received in order on the path.
    pub cum_seq: Option<u64>,
    /// Missing sequences above `cum_seq` (bounded list).
    pub nacks: Vec<u64>,
    /// Losses newly detected since the previous feedback.
    pub new_losses: u64,
    /// Timestamp of the most recent data packet (RTT echo).
    pub ts_echo: Option<SimTime>,
    /// How long the echoed timestamp was held at the receiver before this
    /// feedback was emitted (RTCP DLSR-style); the sender subtracts it so
    /// feedback scheduling does not inflate RTT samples.
    pub echo_delay: marnet_sim::time::SimDuration,
    /// Delivery rate the receiver measured since its previous feedback,
    /// in bytes per second (`None` before the first interval completes).
    pub recv_rate: Option<f64>,
}

/// Wire size of a feedback packet.
pub fn feedback_size(nacks: usize) -> u32 {
    AR_HEADER_BYTES + 16 + 8 * nacks as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feedback_size_grows_with_nacks() {
        assert_eq!(feedback_size(0), 46);
        assert_eq!(feedback_size(4), 46 + 32);
    }

    #[test]
    fn structures_are_cloneable_payloads() {
        // The simulator requires payloads to be Clone + Debug + 'static.
        let pkt = ArPacket {
            conn: 1,
            epoch: 0,
            path: 0,
            seq: 9,
            msg_id: 4,
            frag_index: 0,
            frag_count: 1,
            msg_size: 100,
            kind: StreamKind::Sensor,
            class: TrafficClass::FullBestEffort,
            created: SimTime::ZERO,
            origin: None,
            deadline: None,
            ts: SimTime::ZERO,
            fec: Some(FecInfo {
                group: 2,
                covered: vec![FragmentId { seq: 9, msg_id: 4, frag_index: 0 }],
                is_parity: false,
            }),
        };
        let p = marnet_sim::packet::Payload::new(pkt);
        let q = p.clone();
        assert_eq!(q.downcast_ref::<ArPacket>().unwrap().seq, 9);
    }
}
