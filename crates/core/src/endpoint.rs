//! The AR protocol endpoints: [`ArSender`] and [`ArReceiver`].
//!
//! The sender is rate-paced (no congestion window): every tick it asks each
//! path's delay-based congestion controller for the allowed rate, releases
//! that much budget to the [`DegradationScheduler`], fragments the messages
//! that fit, and spreads the fragments over paths through the
//! [`MultipathScheduler`]. Losses reported by receiver feedback go through
//! the deadline-gated [`RecoveryPolicy`](crate::recovery::RecoveryPolicy);
//! recovery-class packets are
//! FEC-protected; QoS signals flow back to the application. The sender
//! keeps a retransmit record only for a fragment the policy could ever
//! resend: with recovery off, no record is kept at all.
//!
//! The receiver keeps each path's loss state in one sequence window, a
//! slot per sequence number from the cumulative point to the highest one
//! received, each slot either received or the NACK rounds its hole has
//! survived. Every feedback round walks it once: the lowest 64 holes are
//! NACKed, those reported for the first time counted as new losses, and
//! those past `ABANDON_AFTER` rounds abandoned. The window spans at most
//! `WINDOW_SPAN` sequence numbers; one farther ahead gives up the oldest
//! holes instead of growing it.

use crate::class::{KindMap, StreamKind, TrafficClass, ALL_STREAM_KINDS};
use crate::config::{
    budget_per_tick, ArConfig, CONGESTION_GRACE, FEEDBACK_INTERVAL, MTU, TICK, WATCHDOG_SILENCE,
};
use crate::congestion::{CongestionVerdict, DelayCongestionController};
use crate::degradation::{DegradationScheduler, QosSignal, TickOutcome};
use crate::fec::{FecGroupTracker, FecOutcome};
use crate::message::ArMessage;
use crate::multipath::{MultipathScheduler, PathRole, PathSnapshot, Picks};
use crate::recovery::{probe_backoff, FragmentRecord, RetransmitBuffer};
use crate::wire::{feedback_size, ArFeedback, ArPacket, FecInfo, FragmentId, AR_HEADER_BYTES};
use marnet_sim::engine::{Actor, ActorId, Event, SimCtx};
use marnet_sim::hash::{FxHashMap, FxHashSet};
use marnet_sim::link::LinkId;
use marnet_sim::packet::{Packet, Payload, PayloadPool};
use marnet_sim::stats::{Histogram, RateMeter};
use marnet_sim::time::{SimDuration, SimTime};
use marnet_telemetry::{component, ClassUsage, DropReason, TraceEvent};
use marnet_transport::nic::{unwrap_packet, TxPath};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

const TAG_TICK: u64 = 1;
const TAG_FEEDBACK: u64 = 2;
const TAG_PACE: u64 = 3;
const TAG_PROBE: u64 = 4;

/// Message wrapper applications use to hand data to an [`ArSender`]
/// (`ctx.send_message(sender, Payload::new(Submit(msg)))`).
#[derive(Debug, Clone)]
pub struct Submit(pub ArMessage);

/// Notification an [`ArReceiver`] sends to its delivery target when a
/// message completes reassembly.
#[derive(Debug, Clone, Copy)]
pub struct Delivered {
    /// Application message id.
    pub msg_id: u64,
    /// Sub-stream of the message.
    pub kind: StreamKind,
    /// When the sending application created it.
    pub created: SimTime,
    /// Message payload size in bytes.
    pub size: u32,
    /// Whether it completed within its deadline (`true` when no deadline).
    pub within_deadline: bool,
    /// The end-to-end reference instant, if the sender attached one.
    pub origin: Option<SimTime>,
}

/// One transmission path of a sender.
#[derive(Debug, Clone)]
pub struct SenderPathConfig {
    /// Network kind (drives policy and LTE-byte accounting).
    pub role: PathRole,
    /// Where packets go.
    pub tx: TxPath,
    /// The underlying access link, if the sender can observe its up/down
    /// state (used for handover detection).
    pub link: Option<LinkId>,
}

struct PacedMessage {
    msg: ArMessage,
    next_frag: u32,
    remaining: u32,
    /// Paths chosen for this message; selection is sticky per message so
    /// that in multi-server deployments (§VI-E) all fragments of one
    /// message reach the same server.
    picks: Option<Picks>,
}

struct SenderPath {
    cfg: SenderPathConfig,
    ctrl: DelayCongestionController,
    next_seq: u64,
    fec_group: u64,
    fec_accum: Vec<(FragmentId, u32)>,
}

/// Sender-side statistics shared with experiment code.
#[derive(Debug, Default)]
pub struct ArSenderStats {
    /// The latest smoothed RTT (ms), from whichever path fed back last.
    pub srtt_ms: Option<f64>,
    /// The latest base (minimum) RTT (ms), from whichever path fed back
    /// last.
    pub base_rtt_ms: Option<f64>,
    /// Per-sub-stream sent/shed packet and byte accounting, indexed by
    /// `StreamKind as usize`; see the accessor methods for the per-kind
    /// views experiment code reads.
    pub usage: ClassUsage<{ ALL_STREAM_KINDS.len() }>,
    /// Send-rate meters per sub-stream (100 ms buckets) — the Fig. 4 series.
    pub send_meters: KindMap<RateMeter>,
    /// Retransmissions performed.
    pub retransmits: u64,
    /// FEC parity packets emitted.
    pub parity_sent: u64,
    /// Delay-congestion events observed.
    pub delay_congestion_events: u64,
    /// Loss-congestion events observed.
    pub loss_congestion_events: u64,
    /// Bytes sent over cellular paths (the §VI-D LTE-budget metric).
    pub cellular_bytes: u64,
    /// QoS degrade signals emitted to the application.
    pub degrade_signals: u64,
    /// Outages declared by the watchdog.
    pub outages_detected: u64,
    /// Recovery probes sent while the peer was unreachable.
    pub recovery_probes: u64,
    /// Sessions re-established after a peer epoch change (edge restart).
    pub session_resyncs: u64,
}

impl ArSenderStats {
    fn meter(&mut self, kind: StreamKind) -> &mut RateMeter {
        self.send_meters.get_or_insert_with(kind, || RateMeter::new(SimDuration::from_millis(100)))
    }

    /// Total bytes handed to the network across all sub-streams.
    pub fn total_sent_bytes(&self) -> u64 {
        self.usage.total_sent_bytes()
    }

    /// Messages shed by the degradation scheduler for `kind`.
    pub fn dropped_msgs(&self, kind: StreamKind) -> u64 {
        self.usage.dropped_packets_for(kind as usize)
    }

    /// Total bytes shed by the degradation scheduler.
    pub fn dropped_bytes(&self) -> u64 {
        self.usage.total_dropped_bytes()
    }
}

/// Resolves a path index to the sender-side path state.
///
/// Free functions over the `paths` field (rather than `&mut self`
/// methods) so call sites keep disjoint borrows of the other
/// [`ArSender`] fields, and so the indexing invariant lives in exactly
/// one place.
#[inline]
fn sender_path(paths: &[SenderPath], idx: usize) -> &SenderPath {
    // marnet-lint: allow(panic-path): path indices come from the multipath scheduler, whose snapshots are sized by `paths`
    &paths[idx]
}

/// Mutable counterpart of [`sender_path`].
#[inline]
fn sender_path_mut(paths: &mut [SenderPath], idx: usize) -> &mut SenderPath {
    // marnet-lint: allow(panic-path): path indices come from the multipath scheduler, whose snapshots are sized by `paths`
    &mut paths[idx]
}

/// The parity packet of FEC group `group`: `head` (its `fec` unset) plus
/// the coverage list of `accum`, built in an idle slot of `pool` when
/// there is one. A slot, fresh or reused, is overwritten whole and keeps
/// only its `covered` allocation, cleared and refilled, so nothing of a
/// retired packet survives.
fn parity_payload(
    pool: &mut PayloadPool<ArPacket>,
    head: &ArPacket,
    group: u64,
    accum: &[(FragmentId, u32)],
) -> Payload {
    pool.prepare(
        || head.clone(),
        |ar| {
            let mut covered = ar.fec.take().map(|fec| fec.covered).unwrap_or_default();
            covered.clear();
            covered.extend(accum.iter().map(|(f, _)| *f));
            *ar =
                ArPacket { fec: Some(FecInfo { group, covered, is_parity: true }), ..head.clone() };
        },
    )
}

/// The feedback packet `head` (its `nacks` empty) reporting `nacks`: the
/// counterpart of [`parity_payload`], with the NACK list as the one
/// recycled allocation.
fn feedback_payload(
    pool: &mut PayloadPool<ArFeedback>,
    head: &ArFeedback,
    nacks: &[u64],
) -> Payload {
    pool.prepare(
        || head.clone(),
        |fb| {
            let mut list = std::mem::take(&mut fb.nacks);
            list.clear();
            list.extend_from_slice(nacks);
            *fb = ArFeedback { nacks: list, ..head.clone() };
        },
    )
}

/// The sending endpoint of the AR protocol.
pub struct ArSender {
    conn: u64,
    cfg: ArConfig,
    paths: Vec<SenderPath>,
    sched: DegradationScheduler,
    mp: MultipathScheduler,
    rtx: RetransmitBuffer,
    pacer: VecDeque<PacedMessage>,
    pacing: bool,
    /// Wire bytes sent beyond scheduler-budgeted payload (headers, FEC
    /// parity, duplicates, retransmissions); charged against the next
    /// ticks' budget so the controller rate bounds *total* wire load.
    wire_debt: f64,
    qos_target: Option<ActorId>,
    stats: Rc<RefCell<ArSenderStats>>,
    dropped_since_signal: u64,
    severity_since_signal: u8,
    ticks_since_signal: u32,
    /// Last receiver session epoch seen in feedback; a change means the
    /// peer restarted and lost its receive state.
    peer_epoch: u32,
    /// When the watchdog declared the current outage, if one is active.
    outage_since: Option<SimTime>,
    /// Probes sent during the current outage.
    probes_sent: u64,
    /// Backoff attempt counter for the next probe.
    probe_attempt: u32,
    /// When feedback was last heard.
    last_feedback_at: Option<SimTime>,
    /// When data was last handed to the network.
    last_send_at: Option<SimTime>,
    /// End of the congestion-attribution grace window opened when an
    /// outage resolved; losses reported before this instant are blamed on
    /// the fault, not on congestion.
    grace_until: Option<SimTime>,
    /// Slab pool for data-fragment [`ArPacket`]s. Data slots only ever
    /// hold an empty FEC coverage list, so reuse never drops a `Vec`.
    data_pool: PayloadPool<ArPacket>,
    /// Separate pool for parity [`ArPacket`]s, whose slots keep their
    /// coverage `Vec` capacity across groups.
    parity_pool: PayloadPool<ArPacket>,
    /// Pool for [`QosSignal`]s sent to the application.
    qos_pool: PayloadPool<QosSignal>,
    /// Reused tick outcome so pacing ticks stop allocating `sent`/`dropped`.
    tick_out: TickOutcome,
    /// Reused path-snapshot buffer for multipath selection.
    snap_scratch: Vec<PathSnapshot>,
}

impl std::fmt::Debug for ArSender {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ArSender")
            .field("conn", &self.conn)
            .field("paths", &self.paths.len())
            .field("queued", &self.sched.queued_bytes())
            .finish()
    }
}

impl ArSender {
    /// Creates a sender for connection `conn` over the given paths.
    ///
    /// # Panics
    ///
    /// Panics if `paths` is empty.
    pub fn new(conn: u64, cfg: ArConfig, paths: Vec<SenderPathConfig>) -> Self {
        assert!(!paths.is_empty(), "need at least one path");
        let sched = DegradationScheduler::new(cfg.stale_after, cfg.backlog_ticks);
        let mp = MultipathScheduler::new(cfg.policy, cfg.duplicate_recovery);
        let paths = paths
            .into_iter()
            .map(|p| SenderPath {
                cfg: p,
                ctrl: DelayCongestionController::new(cfg.congestion),
                next_seq: 0,
                fec_group: 0,
                fec_accum: Vec::new(),
            })
            .collect();
        ArSender {
            conn,
            cfg,
            paths,
            sched,
            mp,
            rtx: RetransmitBuffer::new(),
            pacer: VecDeque::new(),
            pacing: false,
            wire_debt: 0.0,
            qos_target: None,
            stats: Rc::new(RefCell::new(ArSenderStats::default())),
            dropped_since_signal: 0,
            severity_since_signal: 0,
            ticks_since_signal: 0,
            peer_epoch: 0,
            outage_since: None,
            probes_sent: 0,
            probe_attempt: 0,
            last_feedback_at: None,
            last_send_at: None,
            grace_until: None,
            data_pool: PayloadPool::new(),
            parity_pool: PayloadPool::new(),
            qos_pool: PayloadPool::new(),
            tick_out: TickOutcome::default(),
            snap_scratch: Vec::new(),
        }
    }

    /// Registers the application actor that should receive [`QosSignal`]s,
    /// builder style.
    #[must_use]
    pub fn with_qos_target(mut self, target: ActorId) -> Self {
        self.qos_target = Some(target);
        self
    }

    /// Shared handle to the sender's statistics.
    pub fn stats(&self) -> Rc<RefCell<ArSenderStats>> {
        Rc::clone(&self.stats)
    }

    fn path_up(&self, ctx: &SimCtx, idx: usize) -> bool {
        match sender_path(&self.paths, idx).cfg.link {
            Some(l) => ctx.link_is_up(l),
            None => true,
        }
    }

    /// Refreshes `snap_scratch` in place; snapshots are only needed on the
    /// cold picks-invalidated and NACK paths, and reusing one buffer keeps
    /// them allocation-free.
    fn fill_snapshots(&mut self, ctx: &SimCtx) {
        let paths = &self.paths;
        self.snap_scratch.clear();
        self.snap_scratch.extend(paths.iter().map(|p| PathSnapshot {
            role: p.cfg.role,
            up: match p.cfg.link {
                Some(l) => ctx.link_is_up(l),
                None => true,
            },
            srtt: p.ctrl.srtt(),
            rate: p.ctrl.rate_bytes_per_sec(),
        }));
    }

    #[allow(clippy::too_many_arguments)]
    fn send_fragment(
        &mut self,
        ctx: &mut SimCtx,
        path_idx: usize,
        msg: &ArMessage,
        frag_index: u32,
        frag_count: u32,
        frag_size: u32,
        is_retransmit: bool,
        budget_exempt: bool,
        attempts: u32,
    ) {
        let p = sender_path_mut(&mut self.paths, path_idx);
        let seq = p.next_seq;
        p.next_seq += 1;
        // Headers always ride outside the payload budget; exempt sends
        // (retransmissions, multipath duplicates) charge their full size.
        self.wire_debt += if budget_exempt {
            f64::from(frag_size + AR_HEADER_BYTES)
        } else {
            f64::from(AR_HEADER_BYTES)
        };

        // FEC participation: recovery-class first transmissions only.
        let fec_group = if !is_retransmit
            && msg.class == TrafficClass::BestEffortWithRecovery
            && self.cfg.fec_group.is_some()
        {
            let p = sender_path_mut(&mut self.paths, path_idx);
            let group = p.fec_group;
            let fid = FragmentId { seq, msg_id: msg.id, frag_index };
            p.fec_accum.push((fid, frag_size));
            Some(group)
        } else {
            None
        };

        // Every header field is `Copy`, so one closure can both build a
        // fresh packet and overwrite a recycled slot. Data packets carry
        // only the FEC group id — the coverage list rides on the parity
        // packet alone — so `Vec::new` never allocates and overwriting a
        // retired slot's `fec` never drops a non-empty one.
        let (conn, epoch, ts) = (self.conn, self.peer_epoch, ctx.now());
        let (msg_id, msg_size, kind, class) = (msg.id, msg.size, msg.kind, msg.class);
        let (created, origin, deadline) = (msg.created, msg.origin, msg.deadline);
        let make = move || ArPacket {
            conn,
            epoch,
            path: path_idx,
            seq,
            msg_id,
            frag_index,
            frag_count,
            msg_size,
            kind,
            class,
            created,
            origin,
            deadline,
            ts,
            // An empty covered list never allocates; parity refills in place.
            fec: fec_group.map(|group| FecInfo { group, covered: Vec::new(), is_parity: false }),
        };
        let payload = self.data_pool.prepare(make, |ar| *ar = make());
        let size = frag_size + AR_HEADER_BYTES;
        let id = ctx.next_packet_id();
        let pkt = Packet::new(id, self.conn, size, ctx.now())
            .with_prio(msg.priority.band())
            .with_shared_payload(payload);
        {
            let t = ctx.now().as_nanos();
            let comp = component::actor(ctx.self_id().index());
            let (class, mid, bytes) = (msg.kind as u8, msg.id, u64::from(size));
            ctx.trace_with(|| TraceEvent::class_admit(t, comp, class, mid, bytes));
        }
        sender_path(&self.paths, path_idx).cfg.tx.send(ctx, pkt);
        self.last_send_at = Some(ctx.now());

        {
            let mut st = self.stats.borrow_mut();
            st.usage.record_sent(msg.kind as usize, u64::from(size));
            let now = ctx.now();
            st.meter(msg.kind).record(now, u64::from(size));
            if sender_path(&self.paths, path_idx).cfg.role == PathRole::Cellular {
                st.cellular_bytes += u64::from(size);
            }
            if is_retransmit {
                st.retransmits += 1;
            }
        }

        // A record the policy could never resend is not kept: with recovery
        // off, every NACK would take it only to refuse it.
        if self.cfg.recovery.can_resend(msg.class) {
            self.rtx.insert(
                path_idx,
                seq,
                FragmentRecord {
                    msg_id: msg.id,
                    frag_index,
                    frag_count,
                    size: frag_size,
                    kind: msg.kind,
                    class: msg.class,
                    created: msg.created,
                    prio_band: msg.priority.band(),
                    deadline: msg.deadline,
                    attempts,
                },
            );
        }

        // Emit parity when the group is full.
        if let Some(k) = self.cfg.fec_group {
            if sender_path(&self.paths, path_idx).fec_accum.len() >= k {
                self.emit_parity(ctx, path_idx);
            }
        }
    }

    fn emit_parity(&mut self, ctx: &mut SimCtx, path_idx: usize) {
        let p = sender_path_mut(&mut self.paths, path_idx);
        let Some(max_size) = p.fec_accum.iter().map(|(_, s)| *s).max() else {
            return;
        };
        let group = p.fec_group;
        p.fec_group += 1;
        let seq = p.next_seq;
        p.next_seq += 1;

        let now = ctx.now();
        let head = ArPacket {
            conn: self.conn,
            epoch: self.peer_epoch,
            path: path_idx,
            seq,
            msg_id: 0,
            frag_index: 0,
            frag_count: 0,
            msg_size: 0,
            kind: StreamKind::VideoReference,
            class: TrafficClass::BestEffortWithRecovery,
            created: now,
            origin: None,
            deadline: None,
            ts: now,
            fec: None,
        };
        // The parity pool is a field disjoint from the paths, so the
        // recycled slot's coverage list is refilled straight from the
        // accumulator.
        let accum = &sender_path(&self.paths, path_idx).fec_accum;
        let payload = parity_payload(&mut self.parity_pool, &head, group, accum);
        sender_path_mut(&mut self.paths, path_idx).fec_accum.clear();
        let id = ctx.next_packet_id();
        let pkt = Packet::new(id, self.conn, max_size + AR_HEADER_BYTES, ctx.now())
            .with_prio(1)
            .with_shared_payload(payload);
        sender_path(&self.paths, path_idx).cfg.tx.send(ctx, pkt);
        self.wire_debt += f64::from(max_size + AR_HEADER_BYTES);
        self.stats.borrow_mut().parity_sent += 1;
    }

    /// Sends the next fragment from the pacer queue and arms the pacing
    /// timer so fragments leave spaced at the allowed rate — releasing a
    /// whole message at once would create a serialization burst whose
    /// self-queueing delay the controller would mistake for congestion.
    fn pace_next(&mut self, ctx: &mut SimCtx) {
        loop {
            let Some(front) = self.pacer.front() else {
                self.pacing = false;
                return;
            };
            // Shed droppable messages that went stale inside the pacer.
            if front.msg.is_late(ctx.now()) && front.msg.priority.can_drop() {
                if let Some(p) = self.pacer.pop_front() {
                    self.stats
                        .borrow_mut()
                        .usage
                        .record_dropped(p.msg.kind as usize, u64::from(p.msg.size));
                    self.dropped_since_signal += u64::from(p.msg.size);
                    let t = ctx.now().as_nanos();
                    let comp = component::actor(ctx.self_id().index());
                    let (mid, flow, msize) = (p.msg.id, self.conn, p.msg.size);
                    ctx.trace_with(|| {
                        TraceEvent::packet_drop(t, comp, DropReason::Shed, mid, flow, msize)
                    });
                }
                continue;
            }
            let frag_count = front.msg.fragment_count(MTU);
            let frag_size = front.remaining.clamp(1, MTU);
            // Copy the fields the selection below needs so the pacer-front
            // borrow ends before the snapshot scratch is refreshed.
            let (msg_class, msg_prio, msg_kind) =
                (front.msg.class, front.msg.priority, front.msg.kind);
            let sticky = front.picks;
            let picks = match sticky {
                // Re-validate a sticky choice against path availability —
                // the common steady-state case, which needs no snapshots.
                Some(p) if p.iter().all(|i| self.path_up(ctx, i)) => p,
                _ => {
                    self.fill_snapshots(ctx);
                    let new_picks =
                        self.mp.select(&self.snap_scratch, msg_class, msg_prio, frag_size);
                    // A sticky choice being replaced (a path went down) is a
                    // path switch worth tracing; the initial pick is not.
                    let old = sticky.and_then(|p| p.iter().next());
                    if let (Some(old), Some(new)) = (old, new_picks.iter().next()) {
                        if old != new {
                            let t = ctx.now().as_nanos();
                            let comp = component::actor(ctx.self_id().index());
                            let class = msg_kind as u8;
                            ctx.trace_with(|| {
                                TraceEvent::path_switch(t, comp, class, old as u64, new as u64)
                            });
                        }
                    }
                    new_picks
                }
            };
            if picks.is_empty() {
                // No policy-compatible path up: requeue with the scheduler
                // and try again when paths return. Fragments already sent
                // are deduplicated by the receiver's assembly state.
                if let Some(p) = self.pacer.pop_front() {
                    self.sched.submit(p.msg);
                }
                continue;
            }
            // Aggregate allowed rate, read *before* sending so the spacing
            // reflects the controller state this fragment was paced at.
            let total_rate: f64 = self
                .paths
                .iter()
                .enumerate()
                .filter(|(i, _)| self.path_up(ctx, *i))
                .map(|(_, p)| p.ctrl.rate_bytes_per_sec())
                .sum::<f64>()
                .max(1.0);
            let Some(front) = self.pacer.front_mut() else {
                self.pacing = false;
                return;
            };
            front.picks = Some(picks);
            let frag_index = front.next_frag;
            front.next_frag += 1;
            front.remaining = front.remaining.saturating_sub(frag_size);
            let done = front.next_frag >= frag_count;
            let msg = front.msg.clone();
            if done {
                self.pacer.pop_front();
            }
            for (n, path_idx) in picks.iter().enumerate() {
                self.send_fragment(
                    ctx,
                    path_idx,
                    &msg,
                    frag_index,
                    frag_count,
                    frag_size,
                    false,
                    n > 0,
                    1,
                );
            }
            // Space the next fragment at the aggregate allowed rate, on
            // wire bytes so header overhead does not inflate the pace.
            let spacing =
                SimDuration::from_secs_f64(f64::from(frag_size + AR_HEADER_BYTES) / total_rate);
            self.pacing = true;
            ctx.schedule_timer(spacing, TAG_PACE);
            return;
        }
    }

    fn enqueue_for_pacing(&mut self, ctx: &mut SimCtx, msg: ArMessage) {
        let remaining = msg.size.max(1);
        self.pacer.push_back(PacedMessage { msg, next_frag: 0, remaining, picks: None });
        if !self.pacing {
            self.pace_next(ctx);
        }
    }

    /// Watchdog-driven failure detection (only when `cfg.outage.enabled`):
    /// declares an outage when every path's link is down, or when data was
    /// sent but no feedback has been heard for [`WATCHDOG_SILENCE`]. Runs
    /// every tick, so an all-paths-down outage is detected within one tick
    /// ([`TICK`], 5 ms) — well inside one RTT.
    fn check_watchdog(&mut self, ctx: &mut SimCtx) {
        if !self.cfg.outage.enabled || self.outage_since.is_some() {
            return;
        }
        let now = ctx.now();
        let paths_up = (0..self.paths.len()).filter(|&i| self.path_up(ctx, i)).count();
        let heard = self.last_feedback_at.unwrap_or(SimTime::ZERO);
        let silent = self
            .last_send_at
            .is_some_and(|sent| sent > heard && now.saturating_since(heard) > WATCHDOG_SILENCE);
        if paths_up > 0 && !silent {
            return;
        }
        self.outage_since = Some(now);
        self.probes_sent = 0;
        self.probe_attempt = 0;
        // Outage-aware degradation: shed droppables instead of queueing
        // them behind a dead link; delayable and critical data wait.
        self.sched.set_outage(true);
        self.stats.borrow_mut().outages_detected += 1;
        let t = now.as_nanos();
        let comp = component::actor(ctx.self_id().index());
        let silence = now.saturating_since(heard).as_nanos();
        ctx.trace_with(|| TraceEvent::outage_detect(t, comp, silence, paths_up as u64));
        let delay = probe_backoff(self.probe_attempt, self.conn);
        ctx.schedule_timer(delay, TAG_PROBE);
    }

    /// Sends one recovery probe and re-arms the probe timer with capped
    /// exponential backoff. Probes are header-only packets whose sole job
    /// is to elicit feedback from a peer that may just have restarted (its
    /// paths go inactive after a session reset, so without traffic it would
    /// never speak first). During a full link outage no probe can be sent,
    /// but the timer keeps running so feedback is elicited right after the
    /// link returns.
    fn on_probe_timer(&mut self, ctx: &mut SimCtx) {
        if self.outage_since.is_none() {
            return;
        }
        let pick = (0..self.paths.len())
            .filter(|&i| self.path_up(ctx, i))
            .min_by_key(|&i| sender_path(&self.paths, i).ctrl.srtt().unwrap_or(SimDuration::MAX));
        if let Some(path_idx) = pick {
            let p = sender_path_mut(&mut self.paths, path_idx);
            let seq = p.next_seq;
            p.next_seq += 1;
            let ar = ArPacket {
                conn: self.conn,
                epoch: self.peer_epoch,
                path: path_idx,
                seq,
                msg_id: u64::MAX,
                frag_index: 0,
                // Zero fragments marks the packet as a probe: the receiver
                // advances its sequence state (and thus answers with
                // feedback) but skips message assembly.
                frag_count: 0,
                msg_size: 0,
                kind: StreamKind::Metadata,
                class: TrafficClass::Critical,
                created: ctx.now(),
                origin: None,
                deadline: None,
                ts: ctx.now(),
                fec: None,
            };
            let id = ctx.next_packet_id();
            let pkt = Packet::new(id, self.conn, AR_HEADER_BYTES, ctx.now())
                .with_prio(0)
                .with_payload(ar);
            sender_path(&self.paths, path_idx).cfg.tx.send(ctx, pkt);
            self.wire_debt += f64::from(AR_HEADER_BYTES);
            self.last_send_at = Some(ctx.now());
        }
        self.probes_sent += 1;
        self.stats.borrow_mut().recovery_probes += 1;
        let delay = probe_backoff(self.probe_attempt, self.conn);
        let t = ctx.now().as_nanos();
        let comp = component::actor(ctx.self_id().index());
        let (attempt, backoff) = (u64::from(self.probe_attempt), delay.as_nanos());
        ctx.trace_with(|| TraceEvent::recovery_probe(t, comp, attempt, backoff));
        self.probe_attempt += 1;
        ctx.schedule_timer(delay, TAG_PROBE);
    }

    /// Re-establishes the session after the peer reports a new epoch (it
    /// restarted and lost its receive state): retransmit state describes
    /// sequence spaces the peer no longer knows, so it is flushed, and the
    /// per-path sequence and FEC spaces restart from zero to match the
    /// peer's fresh expectations. Queued application messages survive.
    fn resync(&mut self, ctx: &mut SimCtx, old_epoch: u32, new_epoch: u32) {
        self.rtx.clear();
        for p in &mut self.paths {
            p.next_seq = 0;
            p.fec_group = 0;
            p.fec_accum.clear();
        }
        self.stats.borrow_mut().session_resyncs += 1;
        let t = ctx.now().as_nanos();
        let comp = component::actor(ctx.self_id().index());
        ctx.trace_with(|| {
            TraceEvent::session_resync(t, comp, u64::from(old_epoch), u64::from(new_epoch))
        });
    }

    fn tick(&mut self, ctx: &mut SimCtx) {
        self.check_watchdog(ctx);
        let total_rate: f64 = self
            .paths
            .iter()
            .enumerate()
            .filter(|(i, _)| self.path_up(ctx, *i))
            .map(|(_, p)| p.ctrl.rate_bytes_per_sec())
            .sum();
        let gross = budget_per_tick(total_rate);
        let budget = (gross - self.wire_debt).max(0.0);
        self.wire_debt = (self.wire_debt - gross).max(0.0);
        // Tick into the reused outcome buffers; taken out of `self` so the
        // pacing calls below can borrow the sender mutably.
        let mut out = std::mem::take(&mut self.tick_out);
        self.sched.tick_into(ctx.now(), budget, &mut out);

        // Account drops and drive QoS signalling.
        if !out.dropped.is_empty() {
            let severity = DegradationScheduler::shed_severity(&out.dropped);
            let mut shed_bytes = 0u64;
            let mut st = self.stats.borrow_mut();
            for d in &out.dropped {
                st.usage.record_dropped(d.message.kind as usize, u64::from(d.message.size));
                shed_bytes += u64::from(d.message.size);
                self.dropped_since_signal += u64::from(d.message.size);
            }
            drop(st);
            self.severity_since_signal = self.severity_since_signal.max(severity);
            let t = ctx.now().as_nanos();
            let comp = component::actor(ctx.self_id().index());
            let shed_msgs = out.dropped.len() as u64;
            ctx.trace_with(|| TraceEvent::class_degrade(t, comp, severity, shed_msgs, shed_bytes));
        }

        for msg in out.sent.drain(..) {
            self.enqueue_for_pacing(ctx, msg);
        }
        out.dropped.clear();
        self.tick_out = out;

        self.rtx.expire(ctx.now());

        // QoS feedback to the application.
        self.ticks_since_signal += 1;
        if let Some(target) = self.qos_target {
            if self.dropped_since_signal > 0 {
                let sig = QosSignal::Degrade {
                    rate: total_rate,
                    severity: self.severity_since_signal.max(1),
                    dropped_bytes: self.dropped_since_signal,
                };
                let payload = self.qos_pool.prepare(|| sig, |s| *s = sig);
                ctx.send_message(target, payload);
                self.stats.borrow_mut().degrade_signals += 1;
                self.dropped_since_signal = 0;
                self.severity_since_signal = 0;
                self.ticks_since_signal = 0;
            } else if self.ticks_since_signal >= 20 {
                let sig = QosSignal::Headroom { rate: total_rate };
                let payload = self.qos_pool.prepare(|| sig, |s| *s = sig);
                ctx.send_message(target, payload);
                self.ticks_since_signal = 0;
            }
        }

        ctx.schedule_timer(TICK, TAG_TICK);
    }

    fn on_feedback(&mut self, ctx: &mut SimCtx, fb: &ArFeedback) {
        let path_idx = fb.path;
        if path_idx >= self.paths.len() {
            return;
        }
        self.last_feedback_at = Some(ctx.now());
        if let Some(since) = self.outage_since.take() {
            // Feedback is proof the peer is reachable again: leave outage
            // mode and let queued delayable/critical traffic drain. Open
            // the attribution grace window — the losses this and the next
            // few feedbacks report are the fault's casualties, and the
            // receiver's delivery-rate window still spans the silence.
            self.sched.set_outage(false);
            self.grace_until = Some(ctx.now() + CONGESTION_GRACE);
            let t = ctx.now().as_nanos();
            let comp = component::actor(ctx.self_id().index());
            let (dur, probes) = (ctx.now().saturating_since(since).as_nanos(), self.probes_sent);
            ctx.trace_with(|| TraceEvent::outage_resolve(t, comp, dur, probes));
        }
        if let Some(ts) = fb.ts_echo {
            let rtt = ctx.now().saturating_since(ts).saturating_sub(fb.echo_delay);
            let attribute = self.grace_until.is_none_or(|g| ctx.now() > g);
            let verdict = sender_path_mut(&mut self.paths, path_idx).ctrl.on_feedback_attributed(
                rtt,
                fb.new_losses,
                fb.recv_rate,
                ctx.now(),
                attribute,
            );
            let ctrl = &sender_path(&self.paths, path_idx).ctrl;
            let mut st = self.stats.borrow_mut();
            if let Some(srtt) = ctrl.srtt() {
                st.srtt_ms = Some(srtt.as_millis_f64());
            }
            if let Some(base) = ctrl.base_rtt() {
                st.base_rtt_ms = Some(base.as_millis_f64());
            }
            match verdict {
                CongestionVerdict::DelayCongestion => st.delay_congestion_events += 1,
                CongestionVerdict::LossCongestion => st.loss_congestion_events += 1,
                CongestionVerdict::Clear => {}
            }
        }
        // On an unexpected feedback epoch the peer restarted with fresh
        // receive state: its acks and NACKs describe the dead session, so
        // the hardened stack resyncs instead of processing them. The
        // unhardened stack has no session re-establishment — the epoch
        // change goes unnoticed, acks and NACKs from the fresh incarnation
        // are applied to the dead session's state, and data keeps flowing
        // stamped with the old epoch, which the restarted peer discards as
        // stale. That is the failure mode the resync exists to fix.
        if fb.epoch != self.peer_epoch && self.cfg.outage.enabled {
            let old = self.peer_epoch;
            self.peer_epoch = fb.epoch;
            self.resync(ctx, old, fb.epoch);
            return;
        }
        if let Some(cum) = fb.cum_seq {
            self.rtx.ack_cumulative(path_idx, cum);
        }
        // Recovery decisions for NACKed fragments.
        let srtt = sender_path(&self.paths, path_idx).ctrl.srtt();
        // The lowest-RTT up path is invariant across this loop (sending a
        // retransmission changes neither link state nor controllers), so
        // compute it once on the first NACK that needs it.
        let mut best_cache: Option<usize> = None;
        for &seq in &fb.nacks {
            let Some(rec) = self.rtx.take(path_idx, seq) else {
                continue;
            };
            if self.cfg.recovery.should_retransmit(&rec, srtt, ctx.now()) {
                // Re-send on the currently best path for latency.
                let best = match best_cache {
                    Some(b) => b,
                    None => {
                        self.fill_snapshots(ctx);
                        let b = self
                            .snap_scratch
                            .iter()
                            .enumerate()
                            .filter(|(_, s)| s.up)
                            .min_by_key(|(_, s)| s.srtt.unwrap_or(SimDuration::MAX))
                            .map(|(i, _)| i)
                            .unwrap_or(path_idx);
                        best_cache = Some(b);
                        b
                    }
                };
                let msg = ArMessage {
                    id: rec.msg_id,
                    kind: rec.kind,
                    class: rec.class,
                    priority: crate::class::Priority::Highest,
                    size: rec.size,
                    created: rec.created,
                    deadline: rec.deadline,
                    origin: None,
                };
                // Retransmit exactly this fragment.
                self.send_fragment(
                    ctx,
                    best,
                    &msg,
                    rec.frag_index,
                    rec.frag_count,
                    rec.size,
                    true,
                    true,
                    rec.attempts + 1,
                );
            }
        }
    }
}

impl Actor for ArSender {
    fn on_event(&mut self, ctx: &mut SimCtx, ev: Event) {
        match ev {
            Event::Start => {
                ctx.schedule_timer(TICK, TAG_TICK);
            }
            Event::Timer { tag: TAG_TICK } => self.tick(ctx),
            Event::Timer { tag: TAG_PACE } => {
                self.pacing = false;
                self.pace_next(ctx);
            }
            Event::Timer { tag: TAG_PROBE } => self.on_probe_timer(ctx),
            Event::Message { msg, .. } => {
                // Submissions may be pooled (shared with the app's slot), so
                // clone the message out by reference — `ArMessage` has no
                // heap fields, so the clone is a memcpy.
                if let Some(m) = msg.map_ref(|s: &Submit| s.0.clone()) {
                    self.sched.submit(m);
                }
            }
            other => {
                if let Some(pkt) = unwrap_packet(other) {
                    if let Some(fb) = pkt.payload.downcast_ref::<ArFeedback>() {
                        if fb.conn == self.conn {
                            self.on_feedback(ctx, fb);
                        }
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Receiver
// ---------------------------------------------------------------------------

/// Per-kind delivery statistics.
#[derive(Debug, Default, Clone)]
pub struct KindStats {
    /// Complete messages delivered.
    pub delivered: u64,
    /// End-to-end latency samples (message creation → completion), ms.
    pub latency_ms: Histogram,
    /// Messages that completed within their deadline.
    pub deadline_hits: u64,
    /// Messages that completed after their deadline.
    pub deadline_misses: u64,
}

/// Receiver-side statistics shared with experiment code.
#[derive(Debug, Default)]
pub struct ArReceiverStats {
    /// Per-sub-stream delivery stats.
    pub by_kind: KindMap<KindStats>,
    /// Total bytes received (all packets).
    pub received_bytes: u64,
    /// Duplicate packets discarded (multipath duplication, spurious rtx).
    pub duplicates: u64,
    /// Fragments recovered by FEC parity.
    pub fec_recovered: u64,
    /// Sequence holes abandoned after repeated NACKs.
    pub abandoned_holes: u64,
}

impl ArReceiverStats {
    /// Overall deadline hit ratio across all kinds with deadlines.
    pub fn deadline_hit_ratio(&self) -> f64 {
        let hits: u64 = self.by_kind.values().map(|k| k.deadline_hits).sum();
        let misses: u64 = self.by_kind.values().map(|k| k.deadline_misses).sum();
        if hits + misses == 0 {
            1.0
        } else {
            hits as f64 / (hits + misses) as f64
        }
    }
}

/// Slot of a received (or abandoned) sequence number in a [`SeqWindow`];
/// any other slot value counts the NACK rounds its hole has survived.
const RECEIVED: u8 = u8::MAX;

/// NACK rounds a hole survives before the receiver abandons it.
const ABANDON_AFTER: u8 = 8;

/// Most sequence numbers a [`SeqWindow`] spans. A sequence number this far
/// or farther above the cumulative point first slides the window up: every
/// hole below `seq + 1 - WINDOW_SPAN` is given up unreported and uncounted,
/// as if abandoned, so a hostile or corrupt sequence number costs at most
/// `WINDOW_SPAN` bytes. No real run comes near it: the widest window of
/// any committed experiment spans under a thousand slots.
const WINDOW_SPAN: u64 = 1 << 20;

/// The loss state of one receive path: one slot per sequence number from
/// the cumulative point `cum_next` up to the highest sequence received.
///
/// A slot is [`RECEIVED`] or the NACK rounds its hole has survived (0: not
/// reported yet, so the first round counts it in `new_losses`). The front
/// slot is always a hole and the back slot always received, so an empty
/// window means no hole is in flight and an in-order packet only moves
/// `cum_next`. The ring keeps its capacity, so marking allocates nothing
/// once it has grown to the widest gap of the run.
#[derive(Debug, Default)]
struct SeqWindow {
    /// Next expected sequence number.
    cum_next: u64,
    /// Slot of `cum_next + i` at index `i`.
    slots: VecDeque<u8>,
}

impl SeqWindow {
    /// Marks a sequence received; returns `false` for duplicates (and for
    /// abandoned holes, which count as received).
    fn mark(&mut self, seq: u64) -> bool {
        if seq == self.cum_next && self.slots.is_empty() {
            self.cum_next += 1;
            return true;
        }
        let Some(mut off) = seq.checked_sub(self.cum_next) else {
            return false;
        };
        if off >= WINDOW_SPAN {
            self.slide_to(seq - (WINDOW_SPAN - 1));
            off = seq - self.cum_next;
        }
        // Below `WINDOW_SPAN` (2²⁰), so the cast keeps every bit.
        let off = off as usize;
        match self.slots.get_mut(off) {
            Some(&mut RECEIVED) => return false,
            Some(slot) => *slot = RECEIVED,
            None => {
                self.slots.resize(off, 0);
                self.slots.push_back(RECEIVED);
            }
        }
        if off == 0 {
            self.advance();
        }
        true
    }

    /// Pops received slots off the front, moving the cumulative point.
    fn advance(&mut self) {
        while self.slots.front() == Some(&RECEIVED) {
            self.slots.pop_front();
            self.cum_next += 1;
        }
    }

    /// Gives up every hole below `floor` (above `cum_next`).
    fn slide_to(&mut self, floor: u64) {
        let len = self.slots.len();
        let gone = usize::try_from(floor - self.cum_next).map_or(len, |d| d.min(len));
        self.slots.drain(..gone);
        self.cum_next = floor;
        self.advance();
    }

    /// One feedback round: lists the lowest 64 holes in `nacks`, adds a
    /// round to each, and abandons (marks received) the ones that have now
    /// survived more than `abandon_after` rounds, listing them in
    /// `abandoned`. Returns how many holes were reported for the first
    /// time. Both buffers are cleared first; the feedback loop reuses them
    /// across paths and rounds.
    ///
    /// One walk does both jobs: a hole's rank among the holes never rises
    /// (holes below it only fill), so every hole that has survived a round
    /// is still among the lowest 64 and gets its next round here.
    fn nack_round(
        &mut self,
        abandon_after: u8,
        nacks: &mut Vec<u64>,
        abandoned: &mut Vec<u64>,
    ) -> u64 {
        nacks.clear();
        abandoned.clear();
        let mut new_losses = 0;
        for (seq, slot) in (self.cum_next..).zip(self.slots.iter_mut()) {
            if *slot == RECEIVED {
                continue;
            }
            if *slot == 0 {
                new_losses += 1;
            }
            *slot += 1;
            if *slot > abandon_after {
                *slot = RECEIVED;
                abandoned.push(seq);
            }
            nacks.push(seq);
            if nacks.len() >= 64 {
                break;
            }
        }
        self.advance();
        new_losses
    }
}

struct PathRx {
    seqs: SeqWindow,
    last_ts: Option<SimTime>,
    /// Local arrival time of the packet behind `last_ts`.
    last_rx_at: Option<SimTime>,
    /// Bytes received since the previous feedback was emitted.
    bytes_since_feedback: u64,
    /// When the previous feedback was emitted.
    last_feedback_at: Option<SimTime>,
    /// Recent (time, bytes) feedback intervals for rate smoothing: a single
    /// 15 ms interval sees 0-2 packets, far too noisy to anchor the
    /// congestion controller on.
    rate_history: VecDeque<(SimTime, u64)>,
    /// Sum of the bytes in `rate_history`.
    rate_bytes: u64,
    active: bool,
    fec: FecGroupTracker,
    /// Parity coverage lists seen, for mapping recovered seqs to fragments.
    parity_frags: VecDeque<(u64, Vec<FragmentId>)>,
}

impl PathRx {
    fn new() -> Self {
        PathRx {
            seqs: SeqWindow::default(),
            last_ts: None,
            last_rx_at: None,
            bytes_since_feedback: 0,
            last_feedback_at: None,
            rate_history: VecDeque::new(),
            rate_bytes: 0,
            active: false,
            fec: FecGroupTracker::new(),
            parity_frags: VecDeque::new(),
        }
    }
}

/// `Copy` header view of an [`ArPacket`], extracted by reference in
/// [`ArReceiver::on_packet`] so pooled (shared) payloads are never
/// deep-cloned on receive.
#[derive(Debug, Clone, Copy)]
struct ArView {
    epoch: u32,
    path: usize,
    seq: u64,
    msg_id: u64,
    frag_index: u32,
    frag_count: u32,
    msg_size: u32,
    kind: StreamKind,
    created: SimTime,
    origin: Option<SimTime>,
    deadline: Option<SimTime>,
    ts: SimTime,
    /// FEC membership as `(group, is_parity)`.
    fec: Option<(u64, bool)>,
}

impl ArView {
    fn of(ar: &ArPacket) -> Self {
        ArView {
            epoch: ar.epoch,
            path: ar.path,
            seq: ar.seq,
            msg_id: ar.msg_id,
            frag_index: ar.frag_index,
            frag_count: ar.frag_count,
            msg_size: ar.msg_size,
            kind: ar.kind,
            created: ar.created,
            origin: ar.origin,
            deadline: ar.deadline,
            ts: ar.ts,
            fec: ar.fec.as_ref().map(|f| (f.group, f.is_parity)),
        }
    }
}

/// Assembly state for one in-flight message.
struct MsgAsm {
    frag_count: u32,
    received: Vec<bool>,
    got: u32,
    created: SimTime,
    deadline: Option<SimTime>,
    kind: StreamKind,
}

/// The receiving endpoint of the AR protocol.
pub struct ArReceiver {
    conn: u64,
    /// Session epoch, advertised in every feedback packet. Bumped by
    /// [`ArReceiver::reset_session`] after a crash that lost receive state.
    epoch: u32,
    /// Reverse path per forward path, for feedback.
    reverse: Vec<TxPath>,
    rx: Vec<PathRx>,
    asm: FxHashMap<u64, MsgAsm>,
    /// Hashed, not ordered: only membership is ever queried, and the check
    /// runs once per received fragment.
    completed: FxHashSet<u64>,
    completed_order: VecDeque<u64>,
    /// Application actor notified of completed messages, if any.
    delivery_target: Option<ActorId>,
    stats: Rc<RefCell<ArReceiverStats>>,
    /// Slab pool for outgoing [`ArFeedback`] payloads; recycled slots keep
    /// their NACK-list capacity.
    fb_pool: PayloadPool<ArFeedback>,
    /// Pool for [`Delivered`] notifications to the application.
    delivered_pool: PayloadPool<Delivered>,
    /// Reused missing-sequence buffer for feedback rounds.
    nack_scratch: Vec<u64>,
    /// Reused abandoned-hole buffer for feedback rounds.
    abandon_scratch: Vec<u64>,
    /// Retired reassembly bitmaps, recycled into new [`MsgAsm`] entries.
    asm_free: Vec<Vec<bool>>,
}

impl std::fmt::Debug for ArReceiver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ArReceiver")
            .field("conn", &self.conn)
            .field("paths", &self.rx.len())
            .field("assembling", &self.asm.len())
            .finish()
    }
}

impl ArReceiver {
    /// Creates a receiver with one reverse (feedback) path per forward path.
    ///
    /// # Panics
    ///
    /// Panics if `reverse` is empty.
    pub fn new(conn: u64, reverse: Vec<TxPath>) -> Self {
        assert!(!reverse.is_empty(), "need at least one path");
        let rx = (0..reverse.len()).map(|_| PathRx::new()).collect();
        ArReceiver {
            conn,
            epoch: 0,
            reverse,
            rx,
            asm: FxHashMap::default(),
            completed: FxHashSet::default(),
            completed_order: VecDeque::new(),
            delivery_target: None,
            stats: Rc::new(RefCell::new(ArReceiverStats::default())),
            fb_pool: PayloadPool::new(),
            delivered_pool: PayloadPool::new(),
            nack_scratch: Vec::new(),
            abandon_scratch: Vec::new(),
            asm_free: Vec::new(),
        }
    }

    /// Registers an application actor to receive [`Delivered`]
    /// notifications, builder style.
    #[must_use]
    pub fn with_delivery_target(mut self, target: ActorId) -> Self {
        self.delivery_target = Some(target);
        self
    }

    /// Shared handle to the receiver's statistics.
    pub fn stats(&self) -> Rc<RefCell<ArReceiverStats>> {
        Rc::clone(&self.stats)
    }

    /// The current session epoch.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Re-establishes the session after a crash that lost receive state:
    /// bumps the session epoch (advertised in every feedback packet, so the
    /// sender notices and re-syncs) and resets per-path sequence tracking,
    /// FEC groups, reassembly and delivery-dedup state. Statistics survive —
    /// experiments keep reading the same handles across restarts. Returns
    /// the new epoch.
    pub fn reset_session(&mut self) -> u32 {
        self.epoch = self.epoch.wrapping_add(1);
        self.rx = (0..self.reverse.len()).map(|_| PathRx::new()).collect();
        self.asm.clear();
        self.completed.clear();
        self.completed_order.clear();
        self.epoch
    }

    /// Emits feedback immediately and re-arms the feedback timer. Crash
    /// wrappers call this after a downtime window in which the feedback
    /// timer fired while the actor was dark (the swallowed event broke the
    /// self-rescheduling chain).
    pub fn resume_feedback(&mut self, ctx: &mut SimCtx) {
        self.send_feedback(ctx);
    }

    #[allow(clippy::too_many_arguments)]
    fn deliver_fragment(
        &mut self,
        now: SimTime,
        msg_id: u64,
        frag_index: u32,
        frag_count: u32,
        msg_size: u32,
        kind: StreamKind,
        created: SimTime,
        origin: Option<SimTime>,
        deadline: Option<SimTime>,
    ) -> Option<Delivered> {
        // An id is never both assembling and completed, so the completed
        // set is consulted only when no assembly is in flight.
        let entry = match self.asm.get_mut(&msg_id) {
            Some(entry) => entry,
            None if self.completed.contains(&msg_id) => {
                self.stats.borrow_mut().duplicates += 1;
                return None;
            }
            None => {
                // Recycle a retired bitmap when one is available; `resize`
                // only allocates when the fragment count outgrows it.
                let mut received = self.asm_free.pop().unwrap_or_default();
                received.clear();
                received.resize(frag_count as usize, false);
                let asm = MsgAsm { frag_count, received, got: 0, created, deadline, kind };
                self.asm.entry(msg_id).or_insert(asm)
            }
        };
        let idx = frag_index as usize;
        let seen = entry.received.get_mut(idx)?;
        if *seen {
            self.stats.borrow_mut().duplicates += 1;
            return None;
        }
        *seen = true;
        entry.got += 1;
        if entry.got == entry.frag_count {
            let latency = now.saturating_since(entry.created);
            let deadline = entry.deadline;
            let kind = entry.kind;
            if let Some(mut done) = self.asm.remove(&msg_id) {
                if self.asm_free.len() < 32 {
                    done.received.clear();
                    self.asm_free.push(done.received);
                }
            }
            self.completed.insert(msg_id);
            self.completed_order.push_back(msg_id);
            if self.completed_order.len() > 8192 {
                if let Some(old) = self.completed_order.pop_front() {
                    self.completed.remove(&old);
                }
            }
            let within = deadline.is_none_or(|d| now <= d);
            let mut st = self.stats.borrow_mut();
            let ks = st.by_kind.or_default(kind);
            ks.delivered += 1;
            ks.latency_ms.record(latency.as_millis_f64());
            if deadline.is_some() {
                if within {
                    ks.deadline_hits += 1;
                } else {
                    ks.deadline_misses += 1;
                }
            }
            return Some(Delivered {
                msg_id,
                kind,
                created,
                size: msg_size,
                within_deadline: within,
                origin,
            });
        }
        None
    }

    fn on_packet(&mut self, ctx: &mut SimCtx, pkt: Packet) {
        // Route and read the header entirely by reference: pooled payloads
        // stay shared with the sender's slot, so moving them out would
        // deep-clone. Everything the receive path needs is `Copy` except
        // the parity coverage list, copied out below into a recycled
        // buffer.
        let conn = self.conn;
        let npaths = self.rx.len();
        let view = pkt
            .payload
            .map_ref(|ar: &ArPacket| (ar.conn == conn && ar.path < npaths).then(|| ArView::of(ar)));
        let Some(Some(view)) = view else {
            return;
        };
        let now = ctx.now();
        self.stats.borrow_mut().received_bytes += u64::from(pkt.size);
        let Some(path) = self.rx.get_mut(view.path) else {
            return;
        };
        path.active = true;
        path.last_ts = Some(view.ts);
        path.last_rx_at = Some(now);
        path.bytes_since_feedback += u64::from(pkt.size);
        if view.epoch != self.epoch {
            // A packet from a dead session incarnation, in flight across a
            // restart. The path is alive — the timestamps above keep RTT
            // echoes and feedback flowing, which advertises the current
            // epoch and triggers the sender's resync — but its sequence
            // number belongs to a space this incarnation never saw and
            // would poison loss detection.
            return;
        }
        if !path.seqs.mark(view.seq) {
            self.stats.borrow_mut().duplicates += 1;
            return;
        }

        let mut recovered: Option<FragmentId> = None;
        if let Some((group, is_parity)) = view.fec {
            if is_parity {
                // Copy the coverage list out of the (possibly shared)
                // payload. Once the parity window is full, the evicted
                // entry's buffer is recycled as the copy target, so
                // steady-state parity handling allocates nothing.
                let mut covered = if path.parity_frags.len() >= 64 {
                    match path.parity_frags.pop_front() {
                        Some((_, mut v)) => {
                            v.clear();
                            v
                        }
                        None => Vec::new(), // recycle deque empty only during warmup
                    }
                } else {
                    Vec::new() // warmup only, until 64 parity groups accumulate
                };
                pkt.payload.map_ref(|ar: &ArPacket| {
                    if let Some(fec) = &ar.fec {
                        covered.extend_from_slice(&fec.covered);
                    }
                });
                if let FecOutcome::Recovered(seq) =
                    path.fec.on_parity(group, covered.iter().map(|f| f.seq))
                {
                    recovered = covered.iter().find(|f| f.seq == seq).copied();
                }
                path.parity_frags.push_back((group, covered));
            } else if let FecOutcome::Recovered(seq) = path.fec.on_data(group, view.seq) {
                // Map the recovered seq through a stored parity coverage.
                recovered = path
                    .parity_frags
                    .iter()
                    .find(|(g, _)| *g == group)
                    .and_then(|(_, frags)| frags.iter().find(|f| f.seq == seq).copied());
            }
        }

        if let Some(fid) = recovered {
            if let Some(p) = self.rx.get_mut(view.path) {
                p.seqs.mark(fid.seq);
            }
            self.stats.borrow_mut().fec_recovered += 1;
            let t = now.as_nanos();
            let comp = component::actor(ctx.self_id().index());
            let (mid, frag) = (fid.msg_id, u64::from(fid.frag_index));
            ctx.trace_with(|| TraceEvent::fec_repair(t, comp, mid, frag));
            // Recovered fragments share the parity's stream parameters; we
            // use the carrier packet's kind/class metadata as the closest
            // available description (same stream by construction).
            let done = self.deliver_fragment(
                now,
                fid.msg_id,
                fid.frag_index,
                // Fragment counts travel with every data packet of the
                // message; if this is the first fragment we see, assume the
                // recovered fragment's message matches the carrier's count.
                view.frag_count.max(1),
                view.msg_size,
                view.kind,
                view.created,
                view.origin,
                view.deadline,
            );
            self.notify(ctx, done);
        }

        // Zero-fragment packets without FEC are recovery probes: they
        // advance sequence state (so feedback answers them) but carry no
        // message to assemble.
        if view.frag_count > 0 && view.fec.is_none_or(|(_, is_parity)| !is_parity) {
            let done = self.deliver_fragment(
                now,
                view.msg_id,
                view.frag_index,
                view.frag_count,
                view.msg_size,
                view.kind,
                view.created,
                view.origin,
                view.deadline,
            );
            self.notify(ctx, done);
        }
    }

    fn notify(&mut self, ctx: &mut SimCtx, delivered: Option<Delivered>) {
        if let (Some(target), Some(d)) = (self.delivery_target, delivered) {
            let payload = self.delivered_pool.prepare(|| d, |slot| *slot = d);
            ctx.send_message(target, payload);
        }
    }

    fn send_feedback(&mut self, ctx: &mut SimCtx) {
        // `reverse` and `rx` are parallel vectors built together in `new`,
        // so zipping pairs each forward path with its feedback path.
        for (i, (path, reverse)) in self.rx.iter_mut().zip(&self.reverse).enumerate() {
            if !path.active {
                continue;
            }
            let new_losses = path.seqs.nack_round(
                ABANDON_AFTER,
                &mut self.nack_scratch,
                &mut self.abandon_scratch,
            );
            self.stats.borrow_mut().abandoned_holes += self.abandon_scratch.len() as u64;

            let echo_delay =
                path.last_rx_at.map_or(SimDuration::ZERO, |t| ctx.now().saturating_since(t));
            // Delivery rate over a ~200 ms sliding window of feedback
            // intervals (single intervals are packet-granularity noise).
            let now = ctx.now();
            if path.last_feedback_at.is_some() {
                path.rate_history.push_back((now, path.bytes_since_feedback));
                path.rate_bytes += path.bytes_since_feedback;
            }
            while let Some(&(t, b)) = path.rate_history.front() {
                if now.saturating_since(t) <= SimDuration::from_millis(200) {
                    break;
                }
                path.rate_history.pop_front();
                path.rate_bytes -= b;
            }
            let recv_rate = match (path.rate_history.front(), path.last_feedback_at) {
                (Some(&(oldest, _)), Some(prev)) if path.rate_history.len() >= 3 => {
                    let span = now.saturating_since(oldest.min(prev)).as_secs_f64();
                    let bytes = path.rate_bytes;
                    if span > 0.02 && bytes > 0 {
                        Some(bytes as f64 / span)
                    } else {
                        None
                    }
                }
                _ => None,
            };
            path.bytes_since_feedback = 0;
            path.last_feedback_at = Some(now);
            let cum_seq = path.seqs.cum_next.checked_sub(1);
            let ts_echo = path.last_ts;
            let head = ArFeedback {
                conn: self.conn,
                epoch: self.epoch,
                path: i,
                cum_seq,
                // An empty list never allocates; the pooled slot's is refilled in place.
                nacks: Vec::new(),
                new_losses,
                ts_echo,
                echo_delay,
                recv_rate,
            };
            let payload = feedback_payload(&mut self.fb_pool, &head, &self.nack_scratch);
            let size = feedback_size(self.nack_scratch.len());
            let id = ctx.next_packet_id();
            let pkt = Packet::new(id, self.conn, size, ctx.now())
                .with_prio(0)
                .with_shared_payload(payload);
            reverse.send(ctx, pkt);
        }
        ctx.schedule_timer(FEEDBACK_INTERVAL, TAG_FEEDBACK);
    }
}

impl Actor for ArReceiver {
    fn on_event(&mut self, ctx: &mut SimCtx, ev: Event) {
        match ev {
            Event::Start => {
                ctx.schedule_timer(FEEDBACK_INTERVAL, TAG_FEEDBACK);
            }
            Event::Timer { tag: TAG_FEEDBACK } => self.send_feedback(ctx),
            other => {
                if let Some(pkt) = unwrap_packet(other) {
                    self.on_packet(ctx, pkt);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::Priority;
    use crate::config::OutageConfig;
    use marnet_sim::engine::Simulator;
    use marnet_sim::link::{Bandwidth, LinkParams, LossModel};
    use marnet_sim::packet::Payload;
    use marnet_sim::queue::QueueConfig;

    /// Application driving a 30 FPS MAR uplink into an ArSender.
    struct MarApp {
        sender: ActorId,
        next_id: u64,
        frame: u64,
        /// Shrinks when Degrade signals arrive.
        inter_size: u32,
        degrades_seen: Rc<RefCell<u32>>,
    }

    impl MarApp {
        fn new(sender: ActorId) -> Self {
            MarApp {
                sender,
                next_id: 0,
                frame: 0,
                inter_size: 8_000,
                degrades_seen: Rc::new(RefCell::new(0)),
            }
        }
    }

    impl Actor for MarApp {
        fn on_event(&mut self, ctx: &mut SimCtx, ev: Event) {
            match ev {
                Event::Start | Event::Timer { .. } => {
                    let now = ctx.now();
                    let deadline = now + SimDuration::from_millis(75);
                    // Reference frame every 10 frames, interframes otherwise.
                    let kind = if self.frame.is_multiple_of(10) {
                        StreamKind::VideoReference
                    } else {
                        StreamKind::VideoInter
                    };
                    let size =
                        if kind == StreamKind::VideoReference { 20_000 } else { self.inter_size };
                    self.frame += 1;
                    let mut submit = |id: u64, kind, size| {
                        let m = ArMessage::new(id, kind, size, now).with_deadline(deadline);
                        ctx.send_message(self.sender, Payload::new(Submit(m)));
                    };
                    let id = self.next_id;
                    self.next_id += 3;
                    submit(id, kind, size);
                    submit(id + 1, StreamKind::Sensor, 200);
                    submit(id + 2, StreamKind::Metadata, 100);
                    ctx.schedule_timer(SimDuration::from_millis(33), 0);
                }
                Event::Message { mut msg, .. } => {
                    if let Some(QosSignal::Degrade { .. }) = msg.take::<QosSignal>() {
                        *self.degrades_seen.borrow_mut() += 1;
                        self.inter_size = (self.inter_size / 2).max(500);
                    }
                }
                _ => {}
            }
        }
    }

    type BuiltPipeline =
        (Rc<RefCell<ArSenderStats>>, Rc<RefCell<ArReceiverStats>>, Rc<RefCell<u32>>, Simulator);

    fn build(loss: f64, rate_mbps: f64, cfg: ArConfig) -> BuiltPipeline {
        let mut sim = Simulator::new(77);
        let snd = sim.reserve_actor();
        let rcv = sim.reserve_actor();
        let app = sim.reserve_actor();
        let up = sim.add_link(
            snd,
            rcv,
            LinkParams::new(Bandwidth::from_mbps(rate_mbps), SimDuration::from_millis(10))
                .with_loss(LossModel::Bernoulli { p: loss })
                .with_queue(QueueConfig::DropTail { cap_packets: 200 }),
        );
        let down = sim.add_link(
            rcv,
            snd,
            LinkParams::new(Bandwidth::from_mbps(rate_mbps), SimDuration::from_millis(10)),
        );
        let sender = ArSender::new(
            1,
            cfg.clone(),
            vec![SenderPathConfig { role: PathRole::Wifi, tx: TxPath::Link(up), link: Some(up) }],
        )
        .with_qos_target(app);
        let sstats = sender.stats();
        sim.install_actor(snd, sender);
        let receiver = ArReceiver::new(1, vec![TxPath::Link(down)]);
        let rstats = receiver.stats();
        sim.install_actor(rcv, receiver);
        let app_actor = MarApp::new(snd);
        let degrades = Rc::clone(&app_actor.degrades_seen);
        sim.install_actor(app, app_actor);
        (sstats, rstats, degrades, sim)
    }

    #[test]
    fn clean_link_delivers_everything_on_time() {
        let (sstats, rstats, _, mut sim) = build(0.0, 20.0, ArConfig::default());
        sim.run_until(SimTime::from_secs(10));
        let r = rstats.borrow();
        let hit = r.deadline_hit_ratio();
        assert!(hit > 0.99, "deadline hit ratio {hit}");
        let meta = &r.by_kind[&StreamKind::Metadata];
        assert!(meta.delivered > 250, "metadata delivered {}", meta.delivered);
        assert_eq!(sstats.borrow().loss_congestion_events, 0);
        assert!(r.duplicates == 0);
    }

    #[test]
    fn lossy_link_recovers_reference_frames_via_fec_or_rtx() {
        let (sstats, rstats, _, mut sim) = build(0.03, 20.0, ArConfig::default());
        sim.run_until(SimTime::from_secs(20));
        let r = rstats.borrow();
        let s = sstats.borrow();
        let refs = &r.by_kind[&StreamKind::VideoReference];
        // ~60 reference frames offered over 20 s; the vast majority must
        // complete despite 3% loss.
        assert!(refs.delivered > 45, "reference frames delivered {}", refs.delivered);
        assert!(
            r.fec_recovered > 0 || s.retransmits > 0,
            "recovery machinery must have engaged: fec={} rtx={}",
            r.fec_recovered,
            s.retransmits
        );
        // Metadata (critical) keeps flowing.
        assert!(r.by_kind[&StreamKind::Metadata].delivered > 500);
    }

    #[test]
    fn tight_link_degrades_instead_of_collapsing() {
        // Offered video ≈ 2.3 Mb/s into a 1.2 Mb/s link: the scheduler must
        // shed interframes, signal the app, and protect metadata.
        let (sstats, rstats, degrades, mut sim) = build(0.0, 1.2, ArConfig::default());
        sim.run_until(SimTime::from_secs(20));
        let s = sstats.borrow();
        let r = rstats.borrow();
        assert!(s.dropped_bytes() > 0, "shedding must happen");
        assert!(*degrades.borrow() > 0, "app must be told to degrade");
        // Interframes are shed, not metadata.
        assert!(s.dropped_msgs(StreamKind::Metadata) == 0);
        assert!(s.dropped_msgs(StreamKind::VideoInter) > 0);
        // Critical metadata still delivered at full cadence (~30/s).
        let meta = &r.by_kind[&StreamKind::Metadata];
        assert!(meta.delivered > 500, "metadata delivered {}", meta.delivered);
    }

    #[test]
    fn sender_reacts_to_congestion_with_rate_cut() {
        let (sstats, _, _, mut sim) = build(0.0, 1.2, ArConfig::default());
        sim.run_until(SimTime::from_secs(20));
        let s = sstats.borrow();
        assert!(
            s.delay_congestion_events > 0,
            "queue buildup on a 1.2 Mb/s link must trip the delay signal"
        );
    }

    #[test]
    fn priority_override_controls_shedding_order() {
        // Submit bulk at Lowest(1) and video at Lowest(0) under pressure:
        // the bulk must be shed at least as much as the video.
        let mut sim = Simulator::new(3);
        let snd = sim.reserve_actor();
        let rcv = sim.reserve_actor();
        let up = sim.add_link(
            snd,
            rcv,
            LinkParams::new(Bandwidth::from_mbps(1.0), SimDuration::from_millis(5)),
        );
        let down = sim.add_link(
            rcv,
            snd,
            LinkParams::new(Bandwidth::from_mbps(1.0), SimDuration::from_millis(5)),
        );
        let cfg = ArConfig::default();
        let sender = ArSender::new(
            1,
            cfg.clone(),
            vec![SenderPathConfig { role: PathRole::Wifi, tx: TxPath::Link(up), link: None }],
        );
        let sstats = sender.stats();
        sim.install_actor(snd, sender);
        let receiver = ArReceiver::new(1, vec![TxPath::Link(down)]);
        sim.install_actor(rcv, receiver);

        struct TwoStreams {
            sender: ActorId,
            next_id: u64,
        }
        impl Actor for TwoStreams {
            fn on_event(&mut self, ctx: &mut SimCtx, ev: Event) {
                if matches!(ev, Event::Start | Event::Timer { .. }) {
                    let now = ctx.now();
                    let v = ArMessage::new(self.next_id, StreamKind::VideoInter, 4000, now)
                        .with_priority(Priority::Lowest(0));
                    let b = ArMessage::new(self.next_id + 1, StreamKind::Bulk, 4000, now)
                        .with_priority(Priority::Lowest(1));
                    self.next_id += 2;
                    ctx.send_message(self.sender, Payload::new(Submit(v)));
                    ctx.send_message(self.sender, Payload::new(Submit(b)));
                    ctx.schedule_timer(SimDuration::from_millis(20), 0);
                }
            }
        }
        sim.add_actor(TwoStreams { sender: snd, next_id: 0 });
        sim.run_until(SimTime::from_secs(10));
        let s = sstats.borrow();
        let bulk_drops = s.dropped_msgs(StreamKind::Bulk);
        let video_drops = s.dropped_msgs(StreamKind::VideoInter);
        assert!(bulk_drops > 0, "pressure must shed bulk");
        assert!(bulk_drops >= video_drops, "bulk {bulk_drops} vs video {video_drops}");
    }

    /// Drops both directions of the pipeline's link at 2 s and restores
    /// them 500 ms later.
    struct Flipper {
        up: marnet_sim::link::LinkId,
        down: marnet_sim::link::LinkId,
    }

    impl Actor for Flipper {
        fn on_event(&mut self, ctx: &mut SimCtx, ev: Event) {
            match ev {
                Event::Start => {
                    ctx.schedule_timer(SimDuration::from_secs(2), 1);
                }
                Event::Timer { tag: 1 } => {
                    ctx.set_link_up(self.up, false);
                    ctx.set_link_up(self.down, false);
                    ctx.schedule_timer(SimDuration::from_millis(500), 2);
                }
                Event::Timer { tag: 2 } => {
                    ctx.set_link_up(self.up, true);
                    ctx.set_link_up(self.down, true);
                }
                _ => {}
            }
        }
    }

    #[test]
    fn watchdog_detects_outage_probes_and_resolves() {
        use marnet_telemetry::event::TraceKind;

        let cfg = ArConfig { outage: OutageConfig::hardened(), ..ArConfig::default() };
        let mut sim = Simulator::new(77);
        sim.enable_flight_recorder(1 << 14);
        let snd = sim.reserve_actor();
        let rcv = sim.reserve_actor();
        let app = sim.reserve_actor();
        let up = sim.add_link(
            snd,
            rcv,
            LinkParams::new(Bandwidth::from_mbps(20.0), SimDuration::from_millis(10)),
        );
        let down = sim.add_link(
            rcv,
            snd,
            LinkParams::new(Bandwidth::from_mbps(20.0), SimDuration::from_millis(10)),
        );
        let sender = ArSender::new(
            1,
            cfg.clone(),
            vec![SenderPathConfig { role: PathRole::Wifi, tx: TxPath::Link(up), link: Some(up) }],
        )
        .with_qos_target(app);
        let sstats = sender.stats();
        sim.install_actor(snd, sender);
        let receiver = ArReceiver::new(1, vec![TxPath::Link(down)]);
        let rstats = receiver.stats();
        sim.install_actor(rcv, receiver);
        sim.install_actor(app, MarApp::new(snd));
        sim.add_actor(Flipper { up, down });
        sim.run_until(SimTime::from_secs(5));

        let s = sstats.borrow();
        assert!(s.outages_detected >= 1, "watchdog must fire: {}", s.outages_detected);
        assert!(s.recovery_probes >= 1, "probes must be sent: {}", s.recovery_probes);

        let trace = sim.take_trace();
        let detect =
            trace.iter().find(|e| e.kind == TraceKind::OutageDetect).expect("OutageDetect traced");
        // Feedback still in flight when the link drops can resolve the
        // first detection, after which the watchdog re-detects on the next
        // tick; the final resolve is the one that ends the outage.
        let resolve = trace
            .iter()
            .rfind(|e| e.kind == TraceKind::OutageResolve)
            .expect("OutageResolve traced");
        // Outage starts at 2 s; all paths are link-backed, so detection is
        // tick-granular: within 5 ms of the link going down.
        assert!(detect.t >= 2_000_000_000 && detect.t <= 2_005_000_001, "detect at {}", detect.t);
        // Resolution requires the link back (2.5 s) plus a probe and its
        // feedback round trip; well under 100 ms after restoration.
        assert!(resolve.t >= 2_500_000_000 && resolve.t < 2_600_000_000, "res at {}", resolve.t);
        assert!(trace.iter().any(|e| e.kind == TraceKind::RecoveryProbe), "probe traced");

        // The session survives: traffic flows again after the outage.
        let r = rstats.borrow();
        let meta = &r.by_kind[&StreamKind::Metadata];
        assert!(meta.delivered > 120, "metadata delivered across outage: {}", meta.delivered);
    }

    #[test]
    fn receiver_epoch_bump_forces_sender_resync() {
        let cfg = ArConfig { outage: OutageConfig::hardened(), ..ArConfig::default() };
        let mut sim = Simulator::new(9);
        let nic = sim.reserve_actor();
        struct Nop;
        impl Actor for Nop {
            fn on_event(&mut self, _: &mut SimCtx, _: Event) {}
        }
        sim.install_actor(nic, Nop);
        let mut sender = ArSender::new(
            1,
            cfg,
            vec![SenderPathConfig { role: PathRole::Wifi, tx: TxPath::Nic(nic), link: None }],
        );
        let sstats = sender.stats();
        sim.run_until(SimTime::from_millis(1));
        let ctx = sim.ctx_mut();
        let fb = |epoch| ArFeedback {
            conn: 1,
            epoch,
            path: 0,
            cum_seq: None,
            nacks: Vec::new(),
            new_losses: 0,
            ts_echo: None,
            echo_delay: SimDuration::ZERO,
            recv_rate: None,
        };
        sender.on_feedback(ctx, &fb(0));
        assert_eq!(sstats.borrow().session_resyncs, 0);
        sender.on_feedback(ctx, &fb(1));
        assert_eq!(sstats.borrow().session_resyncs, 1);
        // Same epoch again: no further resync.
        sender.on_feedback(ctx, &fb(1));
        assert_eq!(sstats.borrow().session_resyncs, 1);
    }

    #[test]
    fn unhardened_sender_never_resyncs_on_epoch_bump() {
        // Without the hardened profile there is no session
        // re-establishment: the epoch change in feedback goes unnoticed,
        // which is the cold-restart failure mode sweep_faults demonstrates.
        let cfg = ArConfig::default();
        assert!(!cfg.outage.enabled);
        let mut sim = Simulator::new(9);
        let nic = sim.reserve_actor();
        struct Nop;
        impl Actor for Nop {
            fn on_event(&mut self, _: &mut SimCtx, _: Event) {}
        }
        sim.install_actor(nic, Nop);
        let mut sender = ArSender::new(
            1,
            cfg,
            vec![SenderPathConfig { role: PathRole::Wifi, tx: TxPath::Nic(nic), link: None }],
        );
        let sstats = sender.stats();
        sim.run_until(SimTime::from_millis(1));
        let ctx = sim.ctx_mut();
        let fb = ArFeedback {
            conn: 1,
            epoch: 7,
            path: 0,
            cum_seq: None,
            nacks: Vec::new(),
            new_losses: 0,
            ts_echo: None,
            echo_delay: SimDuration::ZERO,
            recv_rate: None,
        };
        sender.on_feedback(ctx, &fb);
        sender.on_feedback(ctx, &fb);
        assert_eq!(sstats.borrow().session_resyncs, 0);
    }

    /// The receive path's loss state as three sets — sequences received
    /// above the cumulative point, NACK rounds per hole, holes already
    /// counted as losses — and one feedback round over them: the obvious
    /// model, kept as the oracle [`SeqWindow`] is compared against.
    #[derive(Default)]
    struct SeqSets {
        cum_next: u64,
        above: std::collections::BTreeSet<u64>,
        nack_rounds: FxHashMap<u64, u32>,
        reported: std::collections::BTreeSet<u64>,
    }

    impl SeqSets {
        fn mark(&mut self, seq: u64) -> bool {
            if seq < self.cum_next || self.above.contains(&seq) {
                return false;
            }
            self.above.insert(seq);
            while self.above.remove(&self.cum_next) {
                self.cum_next += 1;
            }
            self.nack_rounds.remove(&seq);
            self.reported.remove(&seq);
            true
        }

        /// Lists up to 64 holes in `nacks`, counts the new ones, adds a
        /// round to each, then abandons every hole past `abandon_after`
        /// rounds into `abandoned` (in hash order).
        fn nack_round(
            &mut self,
            abandon_after: u32,
            nacks: &mut Vec<u64>,
            abandoned: &mut Vec<u64>,
        ) -> u64 {
            nacks.clear();
            let max = self.above.iter().next_back().copied().unwrap_or(self.cum_next);
            for seq in self.cum_next..max {
                if !self.above.contains(&seq) {
                    nacks.push(seq);
                    if nacks.len() >= 64 {
                        break;
                    }
                }
            }
            let mut new_losses = 0;
            for &seq in nacks.iter() {
                if self.reported.insert(seq) {
                    new_losses += 1;
                }
                *self.nack_rounds.entry(seq).or_insert(0) += 1;
            }
            abandoned.clear();
            abandoned.extend(
                self.nack_rounds.iter().filter(|(_, &r)| r > abandon_after).map(|(&s, _)| s),
            );
            for &seq in abandoned.iter() {
                self.mark(seq);
            }
            new_losses
        }
    }

    /// One step of a receive path: the next packet in order, or after a
    /// gap of `skip` lost ones; a packet `back` below the highest one sent
    /// (reordered, retransmitted, recovered or duplicate); a feedback round.
    #[derive(Debug, Clone, Copy)]
    enum RxOp {
        Next { skip: u64 },
        Late { back: u64 },
        Round,
    }

    fn rx_op() -> impl proptest::strategy::Strategy<Value = RxOp> {
        use proptest::strategy::Strategy;
        // Mostly in order, some short gaps, the odd burst longer than the
        // 64 holes one round reports; late arrivals reach past it too.
        (0u8..12, 0u64..4, 0u64..160).prop_map(|(kind, small, big)| match kind {
            0..=4 => RxOp::Next { skip: 0 },
            5 | 6 => RxOp::Next { skip: small },
            7 => RxOp::Next { skip: big },
            8 | 9 => RxOp::Late { back: big },
            _ => RxOp::Round,
        })
    }

    proptest::proptest! {
        /// Random arrivals (in order, after gaps, reordered, duplicated)
        /// interleaved with feedback rounds at every abandonment depth:
        /// the window gives the three-set oracle's verdicts, cumulative
        /// point, NACK lists, new-loss counts and abandoned holes.
        #[test]
        fn seq_window_matches_the_three_set_oracle(
            ops in proptest::collection::vec(rx_op(), 1..600),
            abandon_after in 0u8..10,
        ) {
            let (mut window, mut sets) = (SeqWindow::default(), SeqSets::default());
            let (mut nacks, mut abandoned) = (Vec::new(), Vec::new());
            let (mut want_nacks, mut want_abandoned) = (Vec::new(), Vec::new());
            let mut head = 0u64;
            for op in ops {
                match op {
                    RxOp::Next { skip } => {
                        let seq = head + skip;
                        head = seq + 1;
                        proptest::prop_assert_eq!(window.mark(seq), sets.mark(seq), "seq {}", seq);
                    }
                    RxOp::Late { back } => {
                        let seq = head.saturating_sub(back + 1);
                        proptest::prop_assert_eq!(window.mark(seq), sets.mark(seq), "seq {}", seq);
                    }
                    RxOp::Round => {
                        let got = window.nack_round(abandon_after, &mut nacks, &mut abandoned);
                        let want = sets.nack_round(
                            u32::from(abandon_after),
                            &mut want_nacks,
                            &mut want_abandoned,
                        );
                        want_abandoned.sort_unstable();
                        proptest::prop_assert_eq!(&nacks, &want_nacks);
                        proptest::prop_assert_eq!(got, want);
                        proptest::prop_assert_eq!(&abandoned, &want_abandoned);
                    }
                }
                proptest::prop_assert_eq!(window.cum_next, sets.cum_next);
            }
        }
    }

    #[test]
    fn a_far_ahead_sequence_slides_the_window_instead_of_sizing_it() {
        let mut w = SeqWindow::default();
        for seq in [0, 1, 3, 5] {
            assert!(w.mark(seq));
        }
        assert_eq!(w.cum_next, 2, "2 and 4 are holes");
        // The farthest sequence the window holds without sliding.
        let edge = w.cum_next + WINDOW_SPAN - 1;
        assert!(w.mark(edge));
        assert_eq!((w.cum_next, w.slots.len() as u64), (2, WINDOW_SPAN));
        // One past it gives up the oldest hole (2); the received 3 then
        // moves the cumulative point to the next hole (4), still reported.
        assert!(w.mark(edge + 1));
        assert_eq!((w.cum_next, w.slots.len() as u64), (4, WINDOW_SPAN - 1));
        let (mut nacks, mut abandoned) = (Vec::new(), Vec::new());
        assert_eq!(w.nack_round(ABANDON_AFTER, &mut nacks, &mut abandoned), 64);
        assert_eq!(nacks[..3], [4, 6, 7]);
        assert!(!w.mark(2), "a given-up hole counts as received");
        // A hostile sequence number costs the span, not its distance: every
        // hole below the new span is given up at once.
        let far = w.cum_next + (1 << 40);
        assert!(w.mark(far));
        assert_eq!(w.cum_next, far - (WINDOW_SPAN - 1));
        assert_eq!(w.slots.len() as u64, WINDOW_SPAN);
        assert!(!w.mark(edge), "below the slid span: a duplicate");
    }

    // The two `prepare` sites that keep part of a retired slot (its list
    // allocation) instead of overwriting it with a ready-made value — the
    // only places pooling could change what a payload contains. Each test
    // retires a slot holding a long list, reuses it for a shorter one with
    // every scalar changed, and compares against a value built from
    // scratch.

    #[test]
    fn reused_parity_slot_equals_a_fresh_packet() {
        let frag =
            |msg_id, frag_index| FragmentId { seq: 40 + u64::from(frag_index), msg_id, frag_index };
        let head = |n: u64| ArPacket {
            conn: n,
            epoch: n as u32 + 1,
            path: n as usize + 2,
            seq: n + 3,
            msg_id: 0,
            frag_index: 0,
            frag_count: 0,
            msg_size: 0,
            kind: StreamKind::VideoReference,
            class: TrafficClass::BestEffortWithRecovery,
            created: SimTime::from_millis(n + 4),
            origin: None,
            deadline: None,
            ts: SimTime::from_millis(n + 4),
            fec: None,
        };
        let long: Vec<_> = (0..8).map(|i| (frag(7, i), 1_200)).collect();
        let short = vec![(frag(9, 0), 800), (frag(9, 1), 640)];
        let mut pool = PayloadPool::new();
        drop(parity_payload(&mut pool, &head(10), 5, &long));
        let reused = parity_payload(&mut pool, &head(20), 6, &short);
        assert_eq!(pool.len(), 1, "the second packet must reuse the first one's slot");
        let fresh = ArPacket {
            fec: Some(FecInfo { group: 6, covered: vec![frag(9, 0), frag(9, 1)], is_parity: true }),
            ..head(20)
        };
        let reused = reused.downcast_ref::<ArPacket>().expect("an ArPacket payload");
        assert_eq!(format!("{reused:?}"), format!("{fresh:?}"));
    }

    #[test]
    fn reused_feedback_slot_equals_a_fresh_feedback() {
        let head = |n: u64| ArFeedback {
            conn: n,
            epoch: n as u32 + 1,
            path: n as usize + 2,
            cum_seq: Some(n + 3),
            nacks: Vec::new(),
            new_losses: n + 4,
            ts_echo: Some(SimTime::from_millis(n + 5)),
            echo_delay: SimDuration::from_millis(n + 6),
            recv_rate: Some(n as f64 + 7.0),
        };
        let long: Vec<u64> = (100..109).collect();
        let mut pool = PayloadPool::new();
        drop(feedback_payload(&mut pool, &head(10), &long));
        let reused = feedback_payload(&mut pool, &head(20), &[31, 33]);
        assert_eq!(pool.len(), 1, "the second feedback must reuse the first one's slot");
        let fresh = ArFeedback { nacks: vec![31, 33], ..head(20) };
        let reused = reused.downcast_ref::<ArFeedback>().expect("an ArFeedback payload");
        assert_eq!(format!("{reused:?}"), format!("{fresh:?}"));
    }
}
