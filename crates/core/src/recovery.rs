//! Deadline-gated loss recovery (§VI-C).
//!
//! "As recovery is costly in a latency-constrained context, the protocol
//! should ideally avoid recovery from losses. […] If the application
//! generates 30 frames per second, with maximum tolerable latency no higher
//! than 75 ms, we can afford to recover a single lost frame only if the
//! round trip time is at most 37.5 ms."
//!
//! [`RecoveryPolicy::should_retransmit`] encodes that rule: a lost fragment
//! is retransmitted only if its class wants recovery *and* either the class
//! is [`TrafficClass::Critical`] (unconditional) or the retransmission can
//! still arrive before the deadline. [`RetransmitBuffer`] keeps the
//! sender-side state needed to act on NACKs.

use crate::class::{StreamKind, TrafficClass};
use marnet_sim::hash::{fnv1a, FNV_OFFSET_BASIS};
use marnet_sim::time::{SimDuration, SimTime};
use std::collections::VecDeque;

/// Sender-side description of an in-flight fragment, kept until it is
/// acknowledged, recovered or expired.
#[derive(Debug, Clone, PartialEq)]
pub struct FragmentRecord {
    /// Message the fragment belongs to.
    pub msg_id: u64,
    /// Fragment index within the message.
    pub frag_index: u32,
    /// Total fragments of the message.
    pub frag_count: u32,
    /// Fragment wire size in bytes.
    pub size: u32,
    /// Sub-stream of the carried message.
    pub kind: StreamKind,
    /// Traffic class (recovery semantics).
    pub class: TrafficClass,
    /// When the application created the message.
    pub created: SimTime,
    /// Priority band for re-sends.
    pub prio_band: u8,
    /// Delivery deadline, if any.
    pub deadline: Option<SimTime>,
    /// How many times this fragment has been (re)transmitted.
    pub attempts: u32,
}

/// Hard cap on transmission attempts per fragment.
pub const MAX_ATTEMPTS: u32 = 4;
/// Safety margin subtracted from the deadline check (processing slack).
pub const DEADLINE_MARGIN: SimDuration = SimDuration::from_millis(2);

/// The §VI-C retransmission gate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryPolicy {
    /// If `false`, even deadline-feasible retransmissions are suppressed
    /// (the "never retransmit" ablation).
    pub enabled: bool,
    /// If `false`, the deadline gate is skipped and anything recoverable is
    /// retransmitted (the "always retransmit" ablation).
    pub deadline_gated: bool,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy { enabled: true, deadline_gated: true }
    }
}

impl RecoveryPolicy {
    /// Whether a fragment of `class` could ever be retransmitted: the
    /// sender keeps a retransmit record only when this holds.
    pub fn can_resend(&self, class: TrafficClass) -> bool {
        self.enabled && class.wants_recovery()
    }

    /// Decides whether a NACKed fragment should be retransmitted at `now`,
    /// given the current smoothed RTT estimate.
    ///
    /// A retransmission needs one more RTT to be delivered (the NACK
    /// consumed the first half-RTT; the re-send needs a one-way trip, but
    /// we budget a full RTT as the paper does for its 37.5 ms rule).
    pub fn should_retransmit(
        &self,
        frag: &FragmentRecord,
        srtt: Option<SimDuration>,
        now: SimTime,
    ) -> bool {
        if !self.can_resend(frag.class) || frag.attempts >= MAX_ATTEMPTS {
            return false;
        }
        if frag.class.recovery_is_unconditional() || !self.deadline_gated {
            return true;
        }
        match (frag.deadline, srtt) {
            (Some(deadline), Some(srtt)) => now.saturating_add(srtt + DEADLINE_MARGIN) <= deadline,
            // No deadline: recovery is harmless. No RTT estimate yet: be
            // optimistic once, the attempt cap bounds the damage.
            _ => true,
        }
    }
}

/// Delay of the first recovery probe the endpoint watchdog sends during an
/// outage.
pub const PROBE_BACKOFF_BASE: SimDuration = SimDuration::from_millis(25);
/// Hard cap on the (pre-jitter) probe delay; doubling stops here.
pub const PROBE_BACKOFF_CAP: SimDuration = SimDuration::from_millis(200);
/// Jitter added on top of the capped delay, as a percentage in
/// `[0, PROBE_JITTER_PCT]`.
pub const PROBE_JITTER_PCT: u64 = 20;

/// `PROBE_BACKOFF_BASE × 2^attempt`, capped at [`PROBE_BACKOFF_CAP`], in
/// nanoseconds.
fn capped_backoff(attempt: u32) -> u64 {
    let raw = PROBE_BACKOFF_BASE.as_nanos().saturating_mul(1u64 << attempt.min(16));
    raw.min(PROBE_BACKOFF_CAP.as_nanos())
}

/// The delay before recovery probe `attempt` (0-based): capped exponential
/// backoff plus deterministic jitter.
///
/// The jitter is a pure function of `(attempt, salt)` — no RNG — so probe
/// times stay byte-identical across runs while still decorrelating the
/// probes of different senders (use the connection id as the salt).
pub fn probe_backoff(attempt: u32, salt: u64) -> SimDuration {
    let capped = capped_backoff(attempt);
    let h = fnv1a(&attempt.to_le_bytes(), FNV_OFFSET_BASIS ^ salt);
    let jitter = capped / 100 * (h % (PROBE_JITTER_PCT + 1));
    SimDuration::from_nanos(capped.saturating_add(jitter))
}

/// Bound on records a [`RetransmitBuffer`] may hold. During a long
/// outage the sender keeps pacing recoverable fragments into a dead link;
/// without a cap the buffer grows without bound (critical and deadline-less
/// records are never expired). 2048 records ≈ one second of full-rate video
/// on the default profile — far more than any feasible recovery window.
pub const RETRANSMIT_CAP: usize = 2048;

/// One path's records: a dense sequence-indexed slot ring.
///
/// Sequence numbers are per-path and monotone at the sender, so
/// `ring[seq - base]` addresses a record directly — insertion moves the
/// record into a recycled slot (no tree nodes, no per-record allocation
/// once the deque reached its steady-state capacity). Invariant outside
/// method bodies: when `held > 0` the front slot is occupied (the back
/// may only end occupied because records are appended there), so the
/// oldest sequence is always `base`.
#[derive(Debug, Default)]
struct PathSlots {
    /// Sequence number of `ring[0]`.
    base: u64,
    ring: VecDeque<Option<FragmentRecord>>,
    /// Occupied slots in `ring`.
    held: usize,
}

impl PathSlots {
    /// Pops empty slots off the front, advancing `base`, restoring the
    /// front-occupied invariant after a removal.
    fn trim_front(&mut self) {
        while matches!(self.ring.front(), Some(None)) {
            self.ring.pop_front();
            self.base += 1;
        }
    }

    /// Pops empty slots off the back (keeps gap-heavy rings short).
    fn trim_back(&mut self) {
        while matches!(self.ring.back(), Some(None)) {
            self.ring.pop_back();
        }
    }

    /// Places `frag` at `seq`, growing the ring with empty slots when the
    /// sequence extends past either end.
    fn insert(&mut self, seq: u64, frag: FragmentRecord) {
        if self.held == 0 {
            self.ring.clear();
            self.base = seq;
            self.ring.push_back(Some(frag));
            self.held = 1;
            return;
        }
        if seq < self.base {
            for _ in 0..self.base - seq - 1 {
                self.ring.push_front(None);
            }
            self.ring.push_front(Some(frag));
            self.base = seq;
            self.held += 1;
            return;
        }
        let idx = (seq - self.base) as usize;
        if idx >= self.ring.len() {
            for _ in self.ring.len()..idx {
                self.ring.push_back(None);
            }
            self.ring.push_back(Some(frag));
            self.held += 1;
        } else if self.ring[idx].replace(frag).is_none() {
            self.held += 1;
        }
    }

    /// Removes and returns the record at `seq`, if held.
    fn take(&mut self, seq: u64) -> Option<FragmentRecord> {
        let idx = usize::try_from(seq.checked_sub(self.base)?).ok()?;
        let frag = self.ring.get_mut(idx)?.take()?;
        self.held -= 1;
        self.trim_front();
        self.trim_back();
        Some(frag)
    }

    /// Removes the oldest record (the front slot; invariant makes it
    /// occupied whenever `held > 0`).
    fn evict_oldest(&mut self) -> bool {
        if self.held == 0 {
            return false;
        }
        debug_assert!(matches!(self.ring.front(), Some(Some(_))));
        self.ring.pop_front();
        self.base += 1;
        self.held -= 1;
        self.trim_front();
        true
    }

    /// Releases every record with sequence ≤ `cum_seq`; returns the count.
    fn ack_cumulative(&mut self, cum_seq: u64) -> usize {
        let mut released = 0;
        while !self.ring.is_empty() && self.base <= cum_seq {
            if self.ring.pop_front().flatten().is_some() {
                released += 1;
                self.held -= 1;
            }
            self.base += 1;
        }
        self.trim_front();
        released
    }
}

/// Sender-side store of unacknowledged fragments, keyed by `(path, seq)`.
///
/// Holds at most [`RETRANSMIT_CAP`] records: inserting at capacity evicts the oldest
/// (lowest-sequence) record from the fullest path, so a link that stays
/// down longer than the RTO cannot blow the buffer up. Storage is a
/// per-path slot ring whose capacity is recycled across the connection's
/// lifetime — steady-state insert/ack/take traffic allocates nothing.
#[derive(Debug, Default)]
pub struct RetransmitBuffer {
    /// Indexed by path id (path ids are small, dense sender-side indexes).
    paths: Vec<PathSlots>,
    /// Earliest deadline among held *expirable* records (non-critical with a
    /// deadline). [`RetransmitBuffer::expire`] is called every pacing tick;
    /// the watermark lets it skip the full walk while nothing can have
    /// expired yet. Kept as a lower bound: records leaving via ack/take may
    /// make it stale (too early), never too late.
    earliest_deadline: Option<SimTime>,
    /// Records evicted to enforce the bound (for stats/tests).
    evictions: u64,
}

impl RetransmitBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        RetransmitBuffer::default()
    }

    /// Records evicted to enforce the record cap.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Drops every record (session re-establishment after an edge restart:
    /// the peer's receive state is gone, so held fragments are
    /// unrecoverable). Returns how many records were dropped. Slot-ring
    /// capacity is retained for the next session.
    pub fn clear(&mut self) -> usize {
        let n = self.len();
        for p in &mut self.paths {
            p.ring.clear();
            p.base = 0;
            p.held = 0;
        }
        self.earliest_deadline = None;
        n
    }

    /// Records a transmission of `frag` as `(path, seq)`.
    pub fn insert(&mut self, path: usize, seq: u64, frag: FragmentRecord) {
        if !frag.class.recovery_is_unconditional() {
            if let Some(d) = frag.deadline {
                self.earliest_deadline = Some(self.earliest_deadline.map_or(d, |cur| cur.min(d)));
            }
        }
        if path >= self.paths.len() {
            self.paths.resize_with(path + 1, PathSlots::default);
        }
        self.paths[path].insert(seq, frag);
        if self.len() > RETRANSMIT_CAP {
            self.evict_oldest();
        }
    }

    /// Evicts the lowest-sequence record from the fullest path (ties go to
    /// the lowest path id). Called only when the cap is exceeded.
    fn evict_oldest(&mut self) {
        let mut victim: Option<(usize, usize)> = None;
        for (p, slots) in self.paths.iter().enumerate() {
            if slots.held > 0 && victim.is_none_or(|(_, held)| slots.held > held) {
                victim = Some((p, slots.held));
            }
        }
        if let Some((p, _)) = victim {
            if self.paths[p].evict_oldest() {
                self.evictions += 1;
            }
        }
    }

    /// Removes and returns the record for a NACKed `(path, seq)`, if held.
    pub fn take(&mut self, path: usize, seq: u64) -> Option<FragmentRecord> {
        self.paths.get_mut(path)?.take(seq)
    }

    /// Acknowledges everything on `path` up to and including `cum_seq`.
    /// Returns how many records were released.
    pub fn ack_cumulative(&mut self, path: usize, cum_seq: u64) -> usize {
        match self.paths.get_mut(path) {
            Some(slots) => slots.ack_cumulative(cum_seq),
            None => 0,
        }
    }

    /// Drops records whose deadline passed (no point retransmitting).
    /// Returns how many were expired.
    pub fn expire(&mut self, now: SimTime) -> usize {
        // Nothing held can be past its deadline yet: skip the walk entirely.
        // The watermark is exact on the expiry *time* (it only goes stale
        // when an expirable record leaves early, which can only raise the
        // true minimum), so skipping here removes exactly zero records —
        // the same outcome as the walk.
        if self.earliest_deadline.is_none_or(|d| now <= d) {
            return 0;
        }
        let mut expired = 0;
        let mut next_deadline: Option<SimTime> = None;
        for slots in &mut self.paths {
            for slot in &mut slots.ring {
                let Some(f) = slot else { continue };
                let keep =
                    f.class.recovery_is_unconditional() || f.deadline.is_none_or(|d| now <= d);
                if keep {
                    if !f.class.recovery_is_unconditional() {
                        if let Some(d) = f.deadline {
                            next_deadline = Some(next_deadline.map_or(d, |cur| cur.min(d)));
                        }
                    }
                } else {
                    *slot = None;
                    slots.held -= 1;
                    expired += 1;
                }
            }
            slots.trim_front();
            slots.trim_back();
        }
        self.earliest_deadline = next_deadline;
        expired
    }

    /// Records currently held.
    pub fn len(&self) -> usize {
        self.paths.iter().map(|p| p.held).sum()
    }

    /// `true` if no records are held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frag(class: TrafficClass, deadline_ms: Option<u64>) -> FragmentRecord {
        FragmentRecord {
            msg_id: 1,
            frag_index: 0,
            frag_count: 1,
            size: 1000,
            kind: StreamKind::VideoReference,
            class,
            created: SimTime::ZERO,
            prio_band: 0,
            deadline: deadline_ms.map(SimTime::from_millis),
            attempts: 1,
        }
    }

    #[test]
    fn paper_rule_37_5ms() {
        // 75 ms budget, loss detected at t=0 (frame creation), so recovery
        // is feasible iff RTT ≤ 37.5 ms... our gate checks now + srtt +
        // margin ≤ deadline: at now = 36.5 ms (one RTT after sending), srtt
        // = 36.5 ms fits exactly with the 2 ms margin, 40 ms does not.
        let policy = RecoveryPolicy::default();
        let f = frag(TrafficClass::BestEffortWithRecovery, Some(75));
        let rtt_ok = SimDuration::from_micros(36_500);
        assert_eq!(rtt_ok * 2 + DEADLINE_MARGIN, SimDuration::from_millis(75));
        assert!(policy.should_retransmit(&f, Some(rtt_ok), SimTime::from_micros(36_500)));
        assert!(!policy.should_retransmit(
            &f,
            Some(SimDuration::from_millis(40)),
            SimTime::from_millis(40)
        ));
    }

    #[test]
    fn best_effort_never_retransmits() {
        let policy = RecoveryPolicy::default();
        let f = frag(TrafficClass::FullBestEffort, Some(1_000_000));
        assert!(!policy.should_retransmit(&f, Some(SimDuration::from_millis(1)), SimTime::ZERO));
    }

    #[test]
    fn critical_retransmits_even_when_late() {
        let policy = RecoveryPolicy::default();
        let f = frag(TrafficClass::Critical, Some(10));
        assert!(policy.should_retransmit(
            &f,
            Some(SimDuration::from_millis(500)),
            SimTime::from_secs(5)
        ));
    }

    #[test]
    fn attempt_cap_stops_retransmission() {
        let policy = RecoveryPolicy::default();
        let mut f = frag(TrafficClass::Critical, None);
        f.attempts = MAX_ATTEMPTS;
        assert!(!policy.should_retransmit(&f, None, SimTime::ZERO));
    }

    #[test]
    fn disabled_policy_never_retransmits() {
        let policy = RecoveryPolicy { enabled: false, ..Default::default() };
        let f = frag(TrafficClass::Critical, None);
        assert!(!policy.should_retransmit(&f, None, SimTime::ZERO));
    }

    #[test]
    fn ungated_policy_ignores_deadlines() {
        let policy = RecoveryPolicy { deadline_gated: false, ..Default::default() };
        let f = frag(TrafficClass::BestEffortWithRecovery, Some(10));
        assert!(policy.should_retransmit(
            &f,
            Some(SimDuration::from_millis(500)),
            SimTime::from_secs(5)
        ));
    }

    #[test]
    fn no_deadline_is_recoverable() {
        let policy = RecoveryPolicy::default();
        let f = frag(TrafficClass::BestEffortWithRecovery, None);
        assert!(policy.should_retransmit(&f, Some(SimDuration::from_secs(10)), SimTime::ZERO));
    }

    #[test]
    fn buffer_take_and_cumulative_ack() {
        let mut b = RetransmitBuffer::new();
        for seq in 0..10 {
            b.insert(0, seq, frag(TrafficClass::Critical, None));
        }
        b.insert(1, 0, frag(TrafficClass::Critical, None));
        assert_eq!(b.len(), 11);
        assert!(b.take(0, 5).is_some());
        assert!(b.take(0, 5).is_none());
        let released = b.ack_cumulative(0, 7);
        // Seqs 0..=7 minus the taken 5 → 7 released.
        assert_eq!(released, 7);
        assert_eq!(b.len(), 3); // path0: 8, 9; path1: 0.
        assert_eq!(b.ack_cumulative(2, 100), 0);
    }

    #[test]
    fn buffer_expires_late_recoverables_but_keeps_critical() {
        let mut b = RetransmitBuffer::new();
        b.insert(0, 1, frag(TrafficClass::BestEffortWithRecovery, Some(50)));
        b.insert(0, 2, frag(TrafficClass::Critical, Some(50)));
        b.insert(0, 3, frag(TrafficClass::BestEffortWithRecovery, None));
        let expired = b.expire(SimTime::from_millis(100));
        assert_eq!(expired, 1);
        assert_eq!(b.len(), 2);
        assert!(b.take(0, 2).is_some());
        assert!(b.take(0, 3).is_some());
    }

    #[test]
    fn buffer_stays_bounded_during_long_outage() {
        // A link down for longer than the RTO keeps feeding the buffer with
        // critical/deadline-less records that `expire` never removes; the
        // cap must bound the state anyway.
        let mut b = RetransmitBuffer::new();
        for seq in 0..10_000u64 {
            let class = if seq % 2 == 0 {
                TrafficClass::Critical
            } else {
                TrafficClass::BestEffortWithRecovery
            };
            b.insert(0, seq, frag(class, None));
            assert!(b.len() <= RETRANSMIT_CAP, "buffer exceeded its cap at seq {seq}");
        }
        assert_eq!(b.len(), RETRANSMIT_CAP);
        assert_eq!(b.evictions(), 10_000 - RETRANSMIT_CAP as u64);
        // The newest records survive; the oldest were evicted.
        assert!(b.take(0, 9_999).is_some());
        assert!(b.take(0, 0).is_none());
    }

    #[test]
    fn eviction_prefers_the_fullest_path() {
        let mut b = RetransmitBuffer::new();
        b.insert(0, 0, frag(TrafficClass::Critical, None));
        for seq in 0..RETRANSMIT_CAP as u64 - 1 {
            b.insert(1, seq, frag(TrafficClass::Critical, None));
        }
        // The buffer is full with path 0 holding one record: the next
        // insert evicts path 1's oldest, not path 0's only record.
        b.insert(0, 1, frag(TrafficClass::Critical, None));
        assert_eq!(b.len(), RETRANSMIT_CAP);
        assert!(b.take(0, 0).is_some());
        assert!(b.take(1, 0).is_none());
        assert!(b.take(1, 1).is_some());
    }

    #[test]
    fn clear_releases_everything() {
        let mut b = RetransmitBuffer::new();
        for seq in 0..5 {
            b.insert(0, seq, frag(TrafficClass::Critical, None));
        }
        assert_eq!(b.clear(), 5);
        assert!(b.is_empty());
        assert_eq!(b.expire(SimTime::from_secs(1)), 0);
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let ms = |attempt| SimDuration::from_nanos(capped_backoff(attempt));
        assert_eq!(ms(0), SimDuration::from_millis(25));
        assert_eq!(ms(1), SimDuration::from_millis(50));
        assert_eq!(ms(2), SimDuration::from_millis(100));
        assert_eq!(ms(3), SimDuration::from_millis(200));
        // Capped from here on, even for huge attempt numbers.
        assert_eq!(ms(10), SimDuration::from_millis(200));
        assert_eq!(ms(u32::MAX), SimDuration::from_millis(200));
    }

    #[test]
    fn backoff_jitter_is_deterministic_and_bounded() {
        for attempt in 0..8 {
            let a = probe_backoff(attempt, 42);
            let b = probe_backoff(attempt, 42);
            assert_eq!(a, b, "jitter must be a pure function of (attempt, salt)");
            let base = SimDuration::from_nanos(capped_backoff(attempt));
            assert!(a >= base);
            assert!(a <= base + base.mul_f64(0.20) + SimDuration::from_nanos(100));
        }
        // Different salts decorrelate.
        let spread: std::collections::BTreeSet<_> =
            (0..16u64).map(|salt| probe_backoff(4, salt)).collect();
        assert!(spread.len() > 1);
    }
}
