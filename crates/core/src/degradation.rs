//! Graceful degradation instead of a congestion window (§VI-B, Fig. 4).
//!
//! TCP reacts to congestion by shrinking its window — it sends *the same
//! data, later*. A MAR flow cannot: frames are only useful on time. The
//! paper's answer is a scheduler that, given the rate the congestion
//! controller allows, decides *which* data to send, *which* to delay (data
//! that may be delayed but not discarded) and *which* to discard (data that
//! may be discarded but not delayed), strictly by priority — while telling
//! the application to reduce its offered load (lower video quality, fewer
//! sensor samples) so the user experiences degraded but uninterrupted
//! service.

use crate::class::Priority;
use crate::message::ArMessage;
use marnet_sim::time::{SimDuration, SimTime};
use std::collections::{BTreeMap, VecDeque};

/// Why the scheduler discarded a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// Its deadline passed while it waited.
    Late,
    /// The backlog exceeded what the allowed rate can clear; lowest
    /// priorities are shed first.
    Congestion,
}

/// A discarded message and the reason.
#[derive(Debug, Clone)]
pub struct DroppedMessage {
    /// The message that was shed.
    pub message: ArMessage,
    /// Why.
    pub reason: DropReason,
}

/// What one scheduler tick produced.
#[derive(Debug, Default)]
pub struct TickOutcome {
    /// Messages to transmit now, in priority order.
    pub sent: Vec<ArMessage>,
    /// Messages shed this tick.
    pub dropped: Vec<DroppedMessage>,
}

/// QoS feedback the protocol surfaces to the application (§VI-B: "the
/// protocol can provide QoS information to the application. In case of
/// congestion, the application can lower the video quality, the number of
/// samples, etc.").
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QosSignal {
    /// Headroom available; the application may raise quality.
    Headroom {
        /// Current allowed rate, bytes/s.
        rate: f64,
    },
    /// The allowed rate no longer fits the offered load; the application
    /// should reduce quality. `severity` 1 = shed lowest priority only,
    /// larger = deeper cuts are happening.
    Degrade {
        /// Current allowed rate, bytes/s.
        rate: f64,
        /// How deep the shedding reached (1 = Lowest, 2 = DropNotDelay, …).
        severity: u8,
        /// Bytes shed since the last signal.
        dropped_bytes: u64,
    },
}

/// Priority-ordered send queues with budget-based draining.
#[derive(Debug)]
pub struct DegradationScheduler {
    queues: BTreeMap<u8, VecDeque<ArMessage>>,
    /// Unused budget carried between ticks (positive, capped at one tick's
    /// budget) or debt from overshooting (negative).
    credit: f64,
    /// Backlog horizon: droppable data older than this is shed even without
    /// a deadline.
    stale_after: SimDuration,
    /// Maximum backlog (in ticks of budget) tolerated in droppable queues
    /// before congestion shedding starts.
    backlog_ticks: f64,
    queued_bytes: u64,
    /// Outage mode (§VI-B applied to faults): while the watchdog reports
    /// the peer unreachable, only the *freshest* droppable message of each
    /// stream kind is retained — older ones are shed as they are superseded.
    /// AR frames are only useful on time, so banking an outage-long backlog
    /// would deliver stale video in a burst on recovery; shedding everything
    /// would instead waste the newest frame, which is exactly the one worth
    /// sending the instant the path returns. Delayable and critical traffic
    /// still queues in full.
    outage: bool,
}

impl DegradationScheduler {
    /// Creates a scheduler. `stale_after` bounds the age of droppable data;
    /// `backlog_ticks` sets how many ticks of budget may sit queued before
    /// congestion shedding.
    pub fn new(stale_after: SimDuration, backlog_ticks: f64) -> Self {
        assert!(backlog_ticks > 0.0, "backlog horizon must be positive");
        DegradationScheduler {
            queues: BTreeMap::new(),
            credit: 0.0,
            stale_after,
            backlog_ticks,
            queued_bytes: 0,
            outage: false,
        }
    }

    /// Enters or leaves outage mode. While on, each tick retains only the
    /// newest droppable message per stream kind and sheds the superseded
    /// rest (the application keeps getting `Degrade` signals);
    /// delayable/critical data still waits for recovery.
    pub fn set_outage(&mut self, on: bool) {
        self.outage = on;
    }

    /// Whether the scheduler is in outage mode.
    pub fn outage(&self) -> bool {
        self.outage
    }

    /// Bytes currently queued across all priorities.
    pub fn queued_bytes(&self) -> u64 {
        self.queued_bytes
    }

    /// Messages currently queued.
    pub fn queued_messages(&self) -> usize {
        self.queues.values().map(|q| q.len()).sum()
    }

    /// Accepts a message from the application.
    pub fn submit(&mut self, msg: ArMessage) {
        self.queued_bytes += u64::from(msg.size);
        self.queues.entry(msg.priority.rank()).or_default().push_back(msg);
    }

    /// Runs one pacing tick with `budget_bytes` of allowance, at time `now`.
    pub fn tick(&mut self, now: SimTime, budget_bytes: f64) -> TickOutcome {
        let mut out = TickOutcome::default();
        self.tick_into(now, budget_bytes, &mut out);
        out
    }

    /// [`DegradationScheduler::tick`] into a caller-owned outcome so the
    /// hot pacing loop can reuse the `sent`/`dropped` buffers tick after
    /// tick instead of allocating fresh `Vec`s. `out` is cleared first.
    pub fn tick_into(&mut self, now: SimTime, budget_bytes: f64, out: &mut TickOutcome) {
        out.sent.clear();
        out.dropped.clear();

        // 1a. Outage retention: while the peer is unreachable, keep only
        // the freshest droppable message of each stream kind — superseded
        // frames would arrive stale on recovery, but the newest one is
        // worth sending the instant the path returns.
        if self.outage {
            for q in self.queues.values_mut() {
                if q.iter().filter(|m| m.priority.can_drop()).count() < 2 {
                    continue;
                }
                // Walk back-to-front, rotating the queue once in place:
                // submissions are chronological, so the first droppable of
                // a kind seen from the back is the newest.
                let mut seen: Vec<crate::class::StreamKind> = Vec::new();
                let mut removed = 0u64;
                for _ in 0..q.len() {
                    let Some(m) = q.pop_back() else { break };
                    if m.priority.can_drop() {
                        if seen.contains(&m.kind) {
                            removed += u64::from(m.size);
                            out.dropped
                                .push(DroppedMessage { message: m, reason: DropReason::Late });
                            continue;
                        }
                        seen.push(m.kind);
                    }
                    q.push_front(m);
                }
                self.queued_bytes -= removed;
            }
        }

        // 1. Shed late droppable messages everywhere. Most ticks shed
        // nothing, so scan first; when a stale message is present, rotate
        // the queue once in place — survivors keep their order.
        let stale_after = self.stale_after;
        let is_stale = |m: &ArMessage| {
            m.priority.can_drop()
                && (m.is_late(now) || now.saturating_since(m.created) > stale_after)
        };
        for q in self.queues.values_mut() {
            if !q.iter().any(is_stale) {
                continue;
            }
            let mut removed = 0u64;
            for _ in 0..q.len() {
                let Some(m) = q.pop_front() else { break };
                if is_stale(&m) {
                    removed += u64::from(m.size);
                    out.dropped.push(DroppedMessage { message: m, reason: DropReason::Late });
                } else {
                    q.push_back(m);
                }
            }
            self.queued_bytes -= removed;
        }

        // 2. Drain by priority within budget (+ carried credit).
        let mut budget = budget_bytes + self.credit;
        for q in self.queues.values_mut() {
            while budget > 0.0 {
                match q.pop_front() {
                    Some(m) => {
                        budget -= f64::from(m.size);
                        self.queued_bytes -= u64::from(m.size);
                        out.sent.push(m);
                    }
                    None => break,
                }
            }
            if budget <= 0.0 {
                break;
            }
        }
        // Bank at most one tick of positive credit; debt carries in full.
        self.credit = budget.min(budget_bytes);

        // 3. Congestion shedding: if droppable backlog exceeds the horizon,
        // discard from the least important rank upward. Skipped during an
        // outage: the budget is zero (or meaningless) while the peer is
        // unreachable, and retention already caps the droppable backlog at
        // one message per kind — shedding those would throw away exactly
        // the frames worth sending the instant the path returns.
        if self.outage {
            return;
        }
        let max_backlog = budget_bytes * self.backlog_ticks;
        let mut droppable_backlog: f64 = self
            .queues
            .values()
            .flat_map(|q| q.iter())
            .filter(|m| m.priority.can_drop())
            .map(|m| f64::from(m.size))
            .sum();
        if droppable_backlog > max_backlog {
            for q in self.queues.values_mut().rev() {
                // Shed from the front: old frames are the stale ones.
                let mut removed_bytes = 0u64;
                while droppable_backlog > max_backlog {
                    let droppable_at = q.iter().position(|m| m.priority.can_drop());
                    match droppable_at {
                        Some(i) => {
                            let Some(m) = q.remove(i) else { break };
                            droppable_backlog -= f64::from(m.size);
                            removed_bytes += u64::from(m.size);
                            out.dropped.push(DroppedMessage {
                                message: m,
                                reason: DropReason::Congestion,
                            });
                        }
                        None => break,
                    }
                }
                self.queued_bytes -= removed_bytes;
                if droppable_backlog <= max_backlog {
                    break;
                }
            }
        }
    }

    /// Deepest priority level that was shed in `dropped` (for QoS severity):
    /// 0 = nothing, 1 = Lowest, 2 = DropNotDelay.
    pub fn shed_severity(dropped: &[DroppedMessage]) -> u8 {
        let mut severity = 0;
        for d in dropped {
            let s = match d.message.priority {
                Priority::Lowest(_) => 1,
                Priority::DropNotDelay(_) => 2,
                _ => 0,
            };
            severity = severity.max(s);
        }
        severity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::StreamKind;

    fn msg(id: u64, kind: StreamKind, size: u32, created_ms: u64) -> ArMessage {
        ArMessage::new(id, kind, size, SimTime::from_millis(created_ms))
    }

    fn sched() -> DegradationScheduler {
        DegradationScheduler::new(SimDuration::from_millis(100), 4.0)
    }

    #[test]
    fn drains_in_priority_order() {
        let mut s = sched();
        s.submit(msg(1, StreamKind::VideoInter, 100, 0)); // Lowest
        s.submit(msg(2, StreamKind::Metadata, 100, 0)); // Highest
        s.submit(msg(3, StreamKind::Sensor, 100, 0)); // DelayNotDrop
        let out = s.tick(SimTime::from_millis(1), 1000.0);
        let ids: Vec<u64> = out.sent.iter().map(|m| m.id).collect();
        assert_eq!(ids, vec![2, 3, 1]);
        assert!(out.dropped.is_empty());
        assert_eq!(s.queued_bytes(), 0);
    }

    #[test]
    fn budget_limits_what_is_sent_and_rest_waits() {
        let mut s = sched();
        for i in 0..10 {
            s.submit(msg(i, StreamKind::Metadata, 500, 0));
        }
        let out = s.tick(SimTime::from_millis(1), 1000.0);
        // 1000 budget: two full messages fit, a third starts on credit.
        assert!(out.sent.len() >= 2 && out.sent.len() <= 3, "{}", out.sent.len());
        assert!(out.dropped.is_empty(), "critical data must never be shed");
        assert!(s.queued_messages() >= 7);
    }

    #[test]
    fn credit_debt_carries_across_ticks() {
        let mut s = sched();
        s.submit(msg(1, StreamKind::Metadata, 5_000, 0));
        // One huge message on a small budget: sent immediately (work
        // conserving) but subsequent ticks pay the debt.
        let out = s.tick(SimTime::from_millis(1), 1000.0);
        assert_eq!(out.sent.len(), 1);
        s.submit(msg(2, StreamKind::Metadata, 500, 0));
        let out2 = s.tick(SimTime::from_millis(6), 1000.0);
        assert!(out2.sent.is_empty(), "debt must gate the next tick");
        let out3 = s.tick(SimTime::from_millis(11), 1000.0);
        let out4 = s.tick(SimTime::from_millis(16), 1000.0);
        let out5 = s.tick(SimTime::from_millis(21), 1000.0);
        // Debt: -4000 after tick 1, repaid at 1000/tick across ticks 2-5.
        let repaying: usize = [&out2, &out3, &out4, &out5].iter().map(|o| o.sent.len()).sum();
        assert_eq!(repaying, 0, "nothing may flow while the debt is outstanding");
        let out6 = s.tick(SimTime::from_millis(26), 1000.0);
        assert_eq!(out6.sent.len(), 1, "message 2 flows once the debt is repaid");
    }

    #[test]
    fn late_droppable_messages_are_shed() {
        let mut s = sched();
        s.submit(msg(1, StreamKind::VideoInter, 100, 0).with_deadline(SimTime::from_millis(30)));
        s.submit(msg(2, StreamKind::Metadata, 100, 0).with_deadline(SimTime::from_millis(30)));
        let out = s.tick(SimTime::from_millis(50), 1000.0);
        // The interframe is late → shed; metadata cannot be dropped → sent.
        assert_eq!(out.dropped.len(), 1);
        assert_eq!(out.dropped[0].message.id, 1);
        assert_eq!(out.dropped[0].reason, DropReason::Late);
        assert_eq!(out.sent.len(), 1);
        assert_eq!(out.sent[0].id, 2);
    }

    #[test]
    fn stale_droppable_messages_are_shed_without_deadline() {
        let mut s = sched();
        s.submit(msg(1, StreamKind::VideoInter, 100, 0));
        // 200 ms later (> 100 ms stale_after) with zero budget.
        let out = s.tick(SimTime::from_millis(200), 0.0);
        assert_eq!(out.dropped.len(), 1);
        assert_eq!(out.dropped[0].reason, DropReason::Late);
    }

    #[test]
    fn interleaved_stale_messages_are_shed_in_place() {
        // A backlog horizon wide enough that only staleness sheds.
        let mut s = DegradationScheduler::new(SimDuration::from_millis(100), 1e6);
        // Nine interframes in one priority queue; every third one was
        // created 150 ms before the rest and is stale (> 100 ms) at the tick.
        for id in 0..9u32 {
            let created_ms = if id % 3 == 1 { 0 } else { 150 };
            s.submit(msg(u64::from(id), StreamKind::VideoInter, 100 + id, created_ms));
        }
        let before = s.queued_bytes();
        // One byte of budget: the head message leaves (work conserving).
        let out = s.tick(SimTime::from_millis(160), 1.0);
        let shed: Vec<u64> = out.dropped.iter().map(|d| d.message.id).collect();
        assert_eq!(shed, vec![1, 4, 7], "the stale ones, in submission order");
        assert!(out.dropped.iter().all(|d| d.reason == DropReason::Late));
        assert_eq!(out.sent.iter().map(|m| m.id).collect::<Vec<_>>(), vec![0]);
        assert_eq!(s.queued_bytes(), before - (101 + 104 + 107) - 100);
        // The survivors kept submission order.
        let out = s.tick(SimTime::from_millis(161), 10_000.0);
        assert_eq!(out.sent.iter().map(|m| m.id).collect::<Vec<_>>(), vec![2, 3, 5, 6, 8]);
        assert!(out.dropped.is_empty());
        assert_eq!(s.queued_bytes(), 0);
    }

    #[test]
    fn delayable_messages_are_never_shed() {
        let mut s = sched();
        for i in 0..50 {
            s.submit(msg(i, StreamKind::Sensor, 1_000, 0)); // DelayNotDrop
        }
        // Tiny budget, huge backlog: sensors wait, none are dropped.
        let out = s.tick(SimTime::from_secs(10), 100.0);
        assert!(out.dropped.is_empty());
        assert!(s.queued_messages() >= 48);
    }

    #[test]
    fn congestion_sheds_lowest_priority_first() {
        let mut s = sched();
        // Backlog horizon = 4 ticks × 1000 B = 4000 B of droppable backlog.
        for i in 0..10 {
            s.submit(msg(i, StreamKind::VideoInter, 1_000, 0)); // Lowest
        }
        for i in 10..13 {
            s.submit(msg(i, StreamKind::Result, 1_000, 0)); // DropNotDelay
        }
        let out = s.tick(SimTime::from_millis(1), 1000.0);
        assert!(!out.dropped.is_empty());
        // Only interframes (Lowest) are shed at this backlog level; the
        // higher DropNotDelay results survive.
        assert!(
            out.dropped.iter().all(|d| d.message.kind == StreamKind::VideoInter),
            "{:?}",
            out.dropped.iter().map(|d| d.message.kind).collect::<Vec<_>>()
        );
        assert_eq!(
            DegradationScheduler::shed_severity(&out.dropped),
            1,
            "severity 1 = only Lowest shed"
        );
    }

    #[test]
    fn deeper_congestion_reaches_drop_not_delay() {
        let mut s = DegradationScheduler::new(SimDuration::from_secs(10), 1.0);
        for i in 0..40 {
            s.submit(msg(i, StreamKind::Result, 1_000, 0)); // DropNotDelay
        }
        // No Lowest data at all: shedding must cut into DropNotDelay.
        let out = s.tick(SimTime::from_millis(1), 500.0);
        assert!(!out.dropped.is_empty());
        assert_eq!(DegradationScheduler::shed_severity(&out.dropped), 2);
    }

    #[test]
    fn zero_severity_without_drops() {
        assert_eq!(DegradationScheduler::shed_severity(&[]), 0);
    }

    #[test]
    fn outage_mode_retains_freshest_droppable_per_kind() {
        let mut s = sched();
        s.set_outage(true);
        assert!(s.outage());
        s.submit(msg(1, StreamKind::VideoInter, 100, 0)); // Lowest: superseded
        s.submit(msg(2, StreamKind::VideoInter, 100, 10)); // Lowest: freshest
        s.submit(msg(3, StreamKind::Result, 100, 0)); // DropNotDelay: only one
        s.submit(msg(4, StreamKind::Sensor, 100, 0)); // DelayNotDrop: queued
        s.submit(msg(5, StreamKind::Metadata, 100, 0)); // Highest: queued
                                                        // Zero budget (the link is down): the superseded interframe is shed
                                                        // immediately; the freshest of each kind and all delayable/critical
                                                        // data wait for recovery.
        let out = s.tick(SimTime::from_millis(11), 0.0);
        let shed: Vec<u64> = out.dropped.iter().map(|d| d.message.id).collect();
        assert_eq!(shed, vec![1]);
        assert!(out.sent.is_empty());
        assert_eq!(s.queued_messages(), 4);
        // Recovery: outage mode off, the retained frames flow immediately
        // and fresh droppables are no longer subject to retention.
        s.set_outage(false);
        s.submit(msg(6, StreamKind::VideoInter, 100, 20));
        let out = s.tick(SimTime::from_millis(25), 1000.0);
        assert!(out.dropped.is_empty());
        assert_eq!(out.sent.len(), 5);
    }

    #[test]
    fn outage_retention_sheds_superseded_frames_across_ticks() {
        let mut s = sched();
        s.set_outage(true);
        // A long outage: frames arrive every tick, only the newest survives.
        let mut shed_total = 0;
        for i in 0..20u64 {
            s.submit(msg(i, StreamKind::VideoInter, 1_000, i * 10));
            let out = s.tick(SimTime::from_millis(i * 10 + 1), 0.0);
            shed_total += out.dropped.len();
            assert!(s.queued_messages() <= 1, "at most the freshest frame is banked");
        }
        assert_eq!(shed_total, 19, "every superseded frame was shed");
    }
}
