//! Queueing disciplines.
//!
//! §VI-H of the paper argues that the (usually oversized, ~1000-packet)
//! uplink buffer is a major latency source for MAR offloading, and that a
//! combination of latency queueing and AQM such as FQ-CoDel can favour MAR
//! traffic while keeping other uploads usable. This module provides the four
//! disciplines the experiments compare:
//!
//! * [`DropTailQueue`] — FIFO with a packet cap (the bufferbloat
//!   baseline of Figs. 3 and the E13 queueing sweep);
//! * [`CoDelQueue`] — the Controlled Delay AQM (RFC 8289);
//! * [`FqCoDelQueue`] — FlowQueue-CoDel (RFC 8290): DRR across hashed flow
//!   queues, each running CoDel, with the new-flow priority boost;
//! * [`StrictPriorityQueue`] — static priority bands driven by
//!   [`Packet::prio`], the "latency queueing" building block.
//!
//! Empty-queue contract. [`QueueConfig::is_plain_when_empty`] certifies
//! that, for an empty queue of its discipline, an arriving packet is
//! admitted and handed straight back by the next [`Queue::dequeue`] (with
//! `enqueued` stamped to the arrival time), and a dequeue of the empty
//! queue changes nothing. Then the round trip through the queue is the
//! identity, so the engine puts a packet that finds its link idle and
//! the queue empty on the wire without it, and skips the dequeue of a
//! queue it knows is empty. DropTail and strict priority keep the
//! contract whenever they can hold a packet at all; CoDel and FQ-CoDel
//! do not.

use crate::packet::Packet;
use crate::time::{SimDuration, SimTime};
use std::collections::VecDeque;
use std::fmt;

/// Result of offering a packet to a queue.
#[derive(Debug)]
pub enum EnqueueOutcome {
    /// The packet was accepted.
    Enqueued,
    /// The queue was full; the returned packet (not necessarily the offered
    /// one — FQ-CoDel drops from the fattest flow) was discarded.
    Dropped(Packet),
}

impl EnqueueOutcome {
    /// `true` if the packet was accepted.
    pub fn is_enqueued(&self) -> bool {
        matches!(self, EnqueueOutcome::Enqueued)
    }
}

/// Result of asking a queue for the next packet to transmit.
///
/// AQM disciplines may discard packets at dequeue time; those are reported in
/// `dropped` so the link can account for them.
#[derive(Debug, Default)]
pub struct Dequeued {
    /// The packet to transmit next, if any survived.
    pub packet: Option<Packet>,
    /// Packets the AQM discarded while searching for `packet`.
    pub dropped: Vec<Packet>,
}

/// A queueing discipline attached to a link transmitter.
pub trait Queue: fmt::Debug {
    /// Offers a packet for queueing at virtual time `now`.
    fn enqueue(&mut self, pkt: Packet, now: SimTime) -> EnqueueOutcome;
    /// Pops the next packet to serialize, possibly dropping stale ones.
    fn dequeue(&mut self, now: SimTime) -> Dequeued;
    /// Number of queued packets.
    fn len_packets(&self) -> usize;
    /// Number of queued bytes.
    fn len_bytes(&self) -> u64;
    /// `true` if nothing is queued.
    fn is_empty(&self) -> bool {
        self.len_packets() == 0
    }
}

/// CoDel's sojourn-time target (RFC 8289 default).
const CODEL_TARGET: SimDuration = SimDuration::from_millis(5);
/// CoDel's sliding interval (RFC 8289 default).
const CODEL_INTERVAL: SimDuration = SimDuration::from_millis(100);
/// CoDel's hard cap in packets (safety valve above the AQM).
const CODEL_CAP_PACKETS: usize = 1000;
/// FQ-CoDel's hash buckets (RFC 8290 default).
const FQ_CODEL_FLOWS: usize = 1024;
/// FQ-CoDel's DRR quantum in bytes.
const FQ_CODEL_QUANTUM: u32 = 1514;
/// FQ-CoDel's total packet cap across all flow queues.
const FQ_CODEL_CAP_PACKETS: usize = 10240;

/// Declarative queue configuration, convertible into a boxed [`Queue`].
///
/// Keeping configuration as data lets link parameters be cloned and serialized
/// while the stateful queue object is built per link instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueueConfig {
    /// FIFO capped at a number of packets. The paper notes mobile uplink
    /// buffers around 1000 packets (§VI-H); that is the bufferbloat default.
    DropTail {
        /// Maximum queued packets.
        cap_packets: usize,
    },
    /// CoDel AQM with FIFO order, at RFC 8289 defaults (see
    /// [`QueueConfig::codel_default`]).
    CoDel,
    /// FQ-CoDel: DRR over hashed per-flow CoDel queues, at RFC 8290
    /// defaults (see [`QueueConfig::fq_codel_default`]).
    FqCoDel,
    /// Strict priority bands indexed by [`Packet::prio`] (0 = served first).
    StrictPriority {
        /// Number of bands; priorities beyond the last band are clamped.
        bands: usize,
        /// Per-band packet cap.
        cap_packets_per_band: usize,
    },
}

impl QueueConfig {
    /// The oversized-FIFO default the paper attributes to mobile uplinks.
    pub fn bloated_uplink() -> Self {
        QueueConfig::DropTail { cap_packets: 1000 }
    }

    /// CoDel with RFC 8289 defaults (5 ms target, 100 ms interval) and a
    /// 1000-packet hard cap.
    pub fn codel_default() -> Self {
        QueueConfig::CoDel
    }

    /// FQ-CoDel with RFC 8290 defaults: 1024 flow queues, a 1514-byte
    /// quantum, CoDel's 5 ms / 100 ms per queue and a 10 240-packet cap.
    pub fn fq_codel_default() -> Self {
        QueueConfig::FqCoDel
    }

    /// `true` when the discipline keeps no state while empty: an empty
    /// queue admits an arriving packet and hands it straight back at the
    /// next dequeue, and a dequeue of the empty queue changes nothing (the
    /// module's empty-queue contract). A zero cap admits nothing, so it
    /// does not qualify.
    pub fn is_plain_when_empty(&self) -> bool {
        match *self {
            QueueConfig::DropTail { cap_packets } => cap_packets > 0,
            QueueConfig::StrictPriority { cap_packets_per_band, .. } => cap_packets_per_band > 0,
            // CoDel's dequeue at sojourn 0 resets `first_above_time` and
            // leaves the dropping state; FQ-CoDel's dequeue of an empty
            // queue detaches flows from its new and old lists.
            QueueConfig::CoDel | QueueConfig::FqCoDel => false,
        }
    }

    /// Builds the stateful queue object for a link instance.
    pub fn build(&self) -> Box<dyn Queue> {
        match *self {
            QueueConfig::DropTail { cap_packets } => Box::new(DropTailQueue::packets(cap_packets)),
            QueueConfig::CoDel => {
                Box::new(CoDelQueue::new(CODEL_TARGET, CODEL_INTERVAL, CODEL_CAP_PACKETS))
            }
            QueueConfig::FqCoDel => Box::new(FqCoDelQueue::new(
                FQ_CODEL_FLOWS,
                FQ_CODEL_QUANTUM,
                CODEL_TARGET,
                CODEL_INTERVAL,
                FQ_CODEL_CAP_PACKETS,
            )),
            QueueConfig::StrictPriority { bands, cap_packets_per_band } => {
                Box::new(StrictPriorityQueue::new(bands, cap_packets_per_band))
            }
        }
    }
}

impl Default for QueueConfig {
    /// A 100-packet drop-tail queue, a sane router default.
    fn default() -> Self {
        QueueConfig::DropTail { cap_packets: 100 }
    }
}

// ---------------------------------------------------------------------------
// DropTail
// ---------------------------------------------------------------------------

/// FIFO queue that drops arriving packets once full.
#[derive(Debug)]
pub struct DropTailQueue {
    queue: VecDeque<Packet>,
    bytes: u64,
    cap_packets: usize,
}

impl DropTailQueue {
    /// A FIFO capped at `cap` packets.
    pub fn packets(cap: usize) -> Self {
        DropTailQueue { queue: VecDeque::new(), bytes: 0, cap_packets: cap }
    }
}

impl Queue for DropTailQueue {
    fn enqueue(&mut self, mut pkt: Packet, now: SimTime) -> EnqueueOutcome {
        if self.queue.len() >= self.cap_packets {
            return EnqueueOutcome::Dropped(pkt);
        }
        pkt.enqueued = now;
        self.bytes += u64::from(pkt.size);
        self.queue.push_back(pkt);
        EnqueueOutcome::Enqueued
    }

    fn dequeue(&mut self, _now: SimTime) -> Dequeued {
        let packet = self.queue.pop_front();
        if let Some(p) = &packet {
            self.bytes -= u64::from(p.size);
        }
        Dequeued { packet, dropped: Vec::new() }
    }

    fn len_packets(&self) -> usize {
        self.queue.len()
    }

    fn len_bytes(&self) -> u64 {
        self.bytes
    }
}

// ---------------------------------------------------------------------------
// CoDel
// ---------------------------------------------------------------------------

/// Per-queue CoDel control-law state (shared by [`CoDelQueue`] and the flow
/// queues inside [`FqCoDelQueue`]).
#[derive(Debug, Clone)]
struct CoDelState {
    target: SimDuration,
    interval: SimDuration,
    first_above_time: Option<SimTime>,
    drop_next: SimTime,
    count: u32,
    last_count: u32,
    dropping: bool,
}

impl CoDelState {
    fn new(target: SimDuration, interval: SimDuration) -> Self {
        CoDelState {
            target,
            interval,
            first_above_time: None,
            drop_next: SimTime::ZERO,
            count: 0,
            last_count: 0,
            dropping: false,
        }
    }

    fn control_law(&self, t: SimTime) -> SimTime {
        let nanos = self.interval.as_nanos() as f64 / (self.count.max(1) as f64).sqrt();
        t + SimDuration::from_nanos(nanos as u64)
    }

    /// RFC 8289 `dodeque`: decides whether the packet at the head (with the
    /// given sojourn time) should be dropped.
    fn should_drop(&mut self, sojourn: SimDuration, now: SimTime, queue_bytes: u64) -> bool {
        // Below target, or the queue holds less than one MTU: leave dropping
        // state and pass the packet.
        if sojourn < self.target || queue_bytes <= 1514 {
            self.first_above_time = None;
            if self.dropping {
                self.dropping = false;
            }
            return false;
        }
        match self.first_above_time {
            None => {
                self.first_above_time = Some(now + self.interval);
                false
            }
            Some(fat) => {
                if self.dropping {
                    if now >= self.drop_next {
                        self.count += 1;
                        self.drop_next = self.control_law(self.drop_next);
                        true
                    } else {
                        false
                    }
                } else if now >= fat {
                    // Enter dropping state.
                    self.dropping = true;
                    // RFC 8289: restart close to the previous rate if we were
                    // dropping recently.
                    let delta = self.count.saturating_sub(self.last_count);
                    self.count =
                        if delta > 1 && now.saturating_since(self.drop_next) < self.interval {
                            delta
                        } else {
                            1
                        };
                    self.last_count = self.count;
                    self.drop_next = self.control_law(now);
                    true
                } else {
                    false
                }
            }
        }
    }
}

/// The CoDel AQM (RFC 8289) over a single FIFO.
#[derive(Debug)]
pub struct CoDelQueue {
    queue: VecDeque<Packet>,
    bytes: u64,
    cap_packets: usize,
    state: CoDelState,
}

impl CoDelQueue {
    /// Creates a CoDel queue with the given target/interval and hard cap.
    pub fn new(target: SimDuration, interval: SimDuration, cap_packets: usize) -> Self {
        CoDelQueue {
            queue: VecDeque::new(),
            bytes: 0,
            cap_packets,
            state: CoDelState::new(target, interval),
        }
    }
}

impl Queue for CoDelQueue {
    fn enqueue(&mut self, mut pkt: Packet, now: SimTime) -> EnqueueOutcome {
        if self.queue.len() >= self.cap_packets {
            return EnqueueOutcome::Dropped(pkt);
        }
        pkt.enqueued = now;
        self.bytes += u64::from(pkt.size);
        self.queue.push_back(pkt);
        EnqueueOutcome::Enqueued
    }

    fn dequeue(&mut self, now: SimTime) -> Dequeued {
        let mut dropped = Vec::new();
        while let Some(pkt) = self.queue.pop_front() {
            self.bytes -= u64::from(pkt.size);
            let sojourn = now.saturating_since(pkt.enqueued);
            if self.state.should_drop(sojourn, now, self.bytes + u64::from(pkt.size)) {
                dropped.push(pkt);
            } else {
                return Dequeued { packet: Some(pkt), dropped };
            }
        }
        Dequeued { packet: None, dropped }
    }

    fn len_packets(&self) -> usize {
        self.queue.len()
    }

    fn len_bytes(&self) -> u64 {
        self.bytes
    }
}

// ---------------------------------------------------------------------------
// FQ-CoDel
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct FlowQueue {
    queue: VecDeque<Packet>,
    bytes: u64,
    deficit: i64,
    codel: CoDelState,
    /// Which service list the flow is on: 0 = none, 1 = new, 2 = old.
    list: u8,
}

/// FlowQueue-CoDel (RFC 8290).
///
/// Packets are hashed by [`Packet::flow`] into one of `flows` queues; queues
/// are served by deficit round robin with new flows given one quantum of
/// priority, and each queue runs the CoDel control law. This is the
/// discipline §VI-H recommends combining with latency queueing.
#[derive(Debug)]
pub struct FqCoDelQueue {
    queues: Vec<FlowQueue>,
    new_flows: VecDeque<usize>,
    old_flows: VecDeque<usize>,
    quantum: u32,
    cap_packets: usize,
    total_packets: usize,
    total_bytes: u64,
}

impl FqCoDelQueue {
    /// Creates an FQ-CoDel queue. See [`QueueConfig::fq_codel_default`] for
    /// RFC-default parameters.
    ///
    /// # Panics
    ///
    /// Panics if `flows` is zero.
    pub fn new(
        flows: usize,
        quantum: u32,
        target: SimDuration,
        interval: SimDuration,
        cap_packets: usize,
    ) -> Self {
        assert!(flows > 0, "need at least one flow queue");
        FqCoDelQueue {
            queues: (0..flows)
                .map(|_| FlowQueue {
                    queue: VecDeque::new(),
                    bytes: 0,
                    deficit: 0,
                    codel: CoDelState::new(target, interval),
                    list: 0,
                })
                .collect(),
            new_flows: VecDeque::new(),
            old_flows: VecDeque::new(),
            quantum,
            cap_packets,
            total_packets: 0,
            total_bytes: 0,
        }
    }

    fn bucket(&self, flow: u64) -> usize {
        // SplitMix64 finalizer as the flow hash: cheap and well mixed.
        let mut z = flow.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % self.queues.len() as u64) as usize
    }

    /// Drops from the head of the fattest (most bytes) queue, per RFC 8290's
    /// overload strategy.
    fn drop_from_fattest(&mut self) -> Option<Packet> {
        let idx = self.queues.iter().enumerate().max_by_key(|(_, q)| q.bytes).map(|(i, _)| i)?;
        let q = &mut self.queues[idx];
        let pkt = q.queue.pop_front()?;
        q.bytes -= u64::from(pkt.size);
        self.total_packets -= 1;
        self.total_bytes -= u64::from(pkt.size);
        Some(pkt)
    }
}

impl Queue for FqCoDelQueue {
    fn enqueue(&mut self, mut pkt: Packet, now: SimTime) -> EnqueueOutcome {
        let idx = self.bucket(pkt.flow);
        pkt.enqueued = now;
        self.total_packets += 1;
        self.total_bytes += u64::from(pkt.size);
        let q = &mut self.queues[idx];
        q.bytes += u64::from(pkt.size);
        q.queue.push_back(pkt);
        if q.list == 0 {
            q.list = 1;
            q.deficit = i64::from(self.quantum);
            self.new_flows.push_back(idx);
        }
        if self.total_packets > self.cap_packets {
            if let Some(dropped) = self.drop_from_fattest() {
                return EnqueueOutcome::Dropped(dropped);
            }
        }
        EnqueueOutcome::Enqueued
    }

    fn dequeue(&mut self, now: SimTime) -> Dequeued {
        let mut dropped = Vec::new();
        loop {
            // Pick the flow to serve: new list first, then old.
            let (idx, from_new) = if let Some(&i) = self.new_flows.front() {
                (i, true)
            } else if let Some(&i) = self.old_flows.front() {
                (i, false)
            } else {
                return Dequeued { packet: None, dropped };
            };

            let q = &mut self.queues[idx];
            if q.deficit <= 0 {
                // Exhausted its quantum: move to the back of the old list.
                q.deficit += i64::from(self.quantum);
                if from_new {
                    self.new_flows.pop_front();
                } else {
                    self.old_flows.pop_front();
                }
                q.list = 2;
                self.old_flows.push_back(idx);
                continue;
            }

            // CoDel within the flow queue.
            let mut served = None;
            while let Some(pkt) = q.queue.pop_front() {
                q.bytes -= u64::from(pkt.size);
                self.total_packets -= 1;
                self.total_bytes -= u64::from(pkt.size);
                let sojourn = now.saturating_since(pkt.enqueued);
                if q.codel.should_drop(sojourn, now, q.bytes + u64::from(pkt.size)) {
                    dropped.push(pkt);
                } else {
                    served = Some(pkt);
                    break;
                }
            }

            match served {
                Some(pkt) => {
                    q.deficit -= i64::from(pkt.size);
                    return Dequeued { packet: Some(pkt), dropped };
                }
                None => {
                    // Queue empty: remove from its list. A new flow that
                    // empties goes to the old list first per RFC 8290; we
                    // simplify by detaching it — the next packet re-creates
                    // it as new, which preserves the latency boost behaviour
                    // for sparse flows.
                    if from_new {
                        self.new_flows.pop_front();
                    } else {
                        self.old_flows.pop_front();
                    }
                    q.list = 0;
                    q.deficit = 0;
                }
            }
        }
    }

    fn len_packets(&self) -> usize {
        self.total_packets
    }

    fn len_bytes(&self) -> u64 {
        self.total_bytes
    }
}

// ---------------------------------------------------------------------------
// Strict priority
// ---------------------------------------------------------------------------

/// Static priority bands: band 0 is always served before band 1, and so on.
///
/// Together with the AR protocol's priority marking this implements the
/// "latency queuing" of §VI-H: MAR control traffic can bypass bulk uploads.
#[derive(Debug)]
pub struct StrictPriorityQueue {
    bands: Vec<VecDeque<Packet>>,
    cap_per_band: usize,
    bytes: u64,
    packets: usize,
}

impl StrictPriorityQueue {
    /// Creates `bands` priority bands, each capped at `cap_per_band` packets.
    ///
    /// # Panics
    ///
    /// Panics if `bands` is zero.
    pub fn new(bands: usize, cap_per_band: usize) -> Self {
        assert!(bands > 0, "need at least one band");
        StrictPriorityQueue {
            bands: (0..bands).map(|_| VecDeque::new()).collect(),
            cap_per_band,
            bytes: 0,
            packets: 0,
        }
    }
}

impl Queue for StrictPriorityQueue {
    fn enqueue(&mut self, mut pkt: Packet, now: SimTime) -> EnqueueOutcome {
        let band = (pkt.prio as usize).min(self.bands.len() - 1);
        if self.bands[band].len() >= self.cap_per_band {
            return EnqueueOutcome::Dropped(pkt);
        }
        pkt.enqueued = now;
        self.bytes += u64::from(pkt.size);
        self.packets += 1;
        self.bands[band].push_back(pkt);
        EnqueueOutcome::Enqueued
    }

    fn dequeue(&mut self, _now: SimTime) -> Dequeued {
        for band in &mut self.bands {
            if let Some(pkt) = band.pop_front() {
                self.bytes -= u64::from(pkt.size);
                self.packets -= 1;
                return Dequeued { packet: Some(pkt), dropped: Vec::new() };
            }
        }
        Dequeued { packet: None, dropped: Vec::new() }
    }

    fn len_packets(&self) -> usize {
        self.packets
    }

    fn len_bytes(&self) -> u64 {
        self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(id: u64, flow: u64, size: u32) -> Packet {
        Packet::new(id, flow, size, SimTime::ZERO)
    }

    #[test]
    fn droptail_respects_packet_cap() {
        let mut q = DropTailQueue::packets(2);
        assert!(q.enqueue(pkt(1, 0, 100), SimTime::ZERO).is_enqueued());
        assert!(q.enqueue(pkt(2, 0, 100), SimTime::ZERO).is_enqueued());
        match q.enqueue(pkt(3, 0, 100), SimTime::ZERO) {
            EnqueueOutcome::Dropped(p) => assert_eq!(p.id, 3),
            _ => panic!("expected drop"),
        }
        assert_eq!(q.len_packets(), 2);
        assert_eq!(q.len_bytes(), 200);
        assert_eq!(q.dequeue(SimTime::ZERO).packet.unwrap().id, 1);
        assert_eq!(q.dequeue(SimTime::ZERO).packet.unwrap().id, 2);
        assert!(q.dequeue(SimTime::ZERO).packet.is_none());
        assert!(q.is_empty());
    }

    #[test]
    fn codel_passes_low_delay_traffic() {
        let mut q =
            CoDelQueue::new(SimDuration::from_millis(5), SimDuration::from_millis(100), 1000);
        // Packets dequeued instantly (sojourn 0) are never dropped.
        for i in 0..100 {
            let now = SimTime::from_millis(i);
            assert!(q.enqueue(pkt(i, 0, 1000), now).is_enqueued());
            let out = q.dequeue(now);
            assert!(out.dropped.is_empty());
            assert_eq!(out.packet.unwrap().id, i);
        }
    }

    #[test]
    fn codel_drops_under_persistent_delay() {
        let mut q =
            CoDelQueue::new(SimDuration::from_millis(5), SimDuration::from_millis(100), 10_000);
        // Fill with packets, then dequeue far later so sojourn >> target.
        for i in 0..2000 {
            // Staggered arrivals so each packet has a distinct enqueue time.
            q.enqueue(pkt(i, 0, 1000), SimTime::from_micros(i * 10));
        }
        let mut drops = 0;
        let mut passed = 0;
        // Dequeue one packet every 1 ms starting at 500 ms: every packet has
        // sojourn around half a second, far above target.
        for step in 0..1500u64 {
            let now = SimTime::from_millis(500 + step);
            let out = q.dequeue(now);
            drops += out.dropped.len();
            if out.packet.is_some() {
                passed += 1;
            }
            if q.is_empty() {
                break;
            }
        }
        assert!(drops > 0, "CoDel must drop under persistent queueing delay");
        assert!(passed > 0, "CoDel must still deliver packets");
    }

    #[test]
    fn codel_exits_dropping_when_queue_drains() {
        let mut q =
            CoDelQueue::new(SimDuration::from_millis(5), SimDuration::from_millis(100), 1000);
        for i in 0..50 {
            q.enqueue(pkt(i, 0, 1000), SimTime::ZERO);
        }
        // Force dropping state.
        let mut now = SimTime::from_millis(200);
        while !q.is_empty() {
            now += SimDuration::from_millis(5);
            let _ = q.dequeue(now);
        }
        // Fresh traffic with no delay passes untouched.
        q.enqueue(pkt(100, 0, 1000), now);
        let out = q.dequeue(now);
        assert!(out.dropped.is_empty());
        assert_eq!(out.packet.unwrap().id, 100);
    }

    #[test]
    fn fq_codel_isolates_flows() {
        let mut q = FqCoDelQueue::new(
            64,
            1514,
            SimDuration::from_millis(5),
            SimDuration::from_millis(100),
            10_000,
        );
        // Flow 1 is a hog with big packets, flow 2 sends one small packet.
        for i in 0..50 {
            q.enqueue(pkt(i, 1, 1500), SimTime::ZERO);
        }
        q.enqueue(pkt(1000, 2, 100), SimTime::ZERO);
        // The sparse flow's packet must come out within the first few
        // dequeues thanks to the new-flow boost.
        let mut position = None;
        for n in 0..10 {
            let out = q.dequeue(SimTime::ZERO);
            if out.packet.map(|p| p.id) == Some(1000) {
                position = Some(n);
                break;
            }
        }
        let pos = position.expect("sparse flow packet served early");
        assert!(pos <= 2, "sparse flow served at position {pos}");
    }

    #[test]
    fn fq_codel_drops_from_fattest_on_overload() {
        let mut q = FqCoDelQueue::new(
            8,
            1514,
            SimDuration::from_millis(5),
            SimDuration::from_millis(100),
            10,
        );
        for i in 0..10 {
            assert!(q.enqueue(pkt(i, 1, 1500), SimTime::ZERO).is_enqueued());
        }
        // Over cap: the drop should come from flow 1 (the fattest), not the
        // arriving flow-2 packet.
        match q.enqueue(pkt(99, 2, 100), SimTime::ZERO) {
            EnqueueOutcome::Dropped(p) => assert_eq!(p.flow, 1),
            _ => panic!("expected an overload drop"),
        }
        assert_eq!(q.len_packets(), 10);
    }

    #[test]
    fn fq_codel_round_robins_between_backlogged_flows() {
        let mut q = FqCoDelQueue::new(
            64,
            1500,
            SimDuration::from_millis(5),
            SimDuration::from_millis(100),
            10_000,
        );
        for i in 0..10 {
            q.enqueue(pkt(i, 1, 1500), SimTime::ZERO);
            q.enqueue(pkt(100 + i, 2, 1500), SimTime::ZERO);
        }
        let mut flows = Vec::new();
        for _ in 0..10 {
            if let Some(p) = q.dequeue(SimTime::ZERO).packet {
                flows.push(p.flow);
            }
        }
        let f1 = flows.iter().filter(|&&f| f == 1).count();
        let f2 = flows.iter().filter(|&&f| f == 2).count();
        assert!((f1 as i64 - f2 as i64).abs() <= 2, "DRR must interleave: {flows:?}");
    }

    #[test]
    fn strict_priority_orders_bands() {
        let mut q = StrictPriorityQueue::new(3, 10);
        q.enqueue(pkt(1, 0, 100).with_prio(2), SimTime::ZERO);
        q.enqueue(pkt(2, 0, 100).with_prio(0), SimTime::ZERO);
        q.enqueue(pkt(3, 0, 100).with_prio(1), SimTime::ZERO);
        q.enqueue(pkt(4, 0, 100).with_prio(9), SimTime::ZERO); // clamped to band 2
        assert_eq!(q.dequeue(SimTime::ZERO).packet.unwrap().id, 2);
        assert_eq!(q.dequeue(SimTime::ZERO).packet.unwrap().id, 3);
        assert_eq!(q.dequeue(SimTime::ZERO).packet.unwrap().id, 1);
        assert_eq!(q.dequeue(SimTime::ZERO).packet.unwrap().id, 4);
    }

    #[test]
    fn strict_priority_band_caps_are_independent() {
        let mut q = StrictPriorityQueue::new(2, 1);
        assert!(q.enqueue(pkt(1, 0, 10).with_prio(0), SimTime::ZERO).is_enqueued());
        assert!(!q.enqueue(pkt(2, 0, 10).with_prio(0), SimTime::ZERO).is_enqueued());
        assert!(q.enqueue(pkt(3, 0, 10).with_prio(1), SimTime::ZERO).is_enqueued());
        assert_eq!(q.len_packets(), 2);
    }

    #[test]
    fn config_builds_expected_types() {
        let q = QueueConfig::bloated_uplink().build();
        assert_eq!(q.len_packets(), 0);
        let q = QueueConfig::codel_default().build();
        assert!(q.is_empty());
        let q = QueueConfig::fq_codel_default().build();
        assert!(q.is_empty());
        let q = QueueConfig::StrictPriority { bands: 4, cap_packets_per_band: 10 }.build();
        assert!(q.is_empty());
    }
}
