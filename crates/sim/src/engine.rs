//! The discrete-event engine: actors, events, timers and the run loop.
//!
//! A [`Simulator`] owns a set of [`Actor`]s (protocol endpoints, traffic
//! sources, middleboxes) and a set of directed links between them. Actors
//! react to [`Event`]s — simulation start, packet arrivals, timers, direct
//! messages and packets handed over by a co-located actor — through a
//! mutable [`SimCtx`] that lets them schedule future events and transmit
//! packets.
//!
//! Determinism: the event queue orders by `(time, phase, ord, seq)` — the
//! intra-instant phase (link departures, then work committed from earlier
//! instants, then work spawned within the instant), the tie-break policy's
//! source order (constant under the default FIFO policy) and the insertion
//! sequence — so under FIFO simultaneous events of one phase fire in the
//! order they were scheduled, and all randomness comes from per-link RNG
//! streams derived from the simulation seed (see
//! [`crate::rng::derive_rng`]).
//!
//! Where an event waits is the queue's business, not the order's: every
//! link registers two delay lines with the queue and schedules its packet
//! arrivals through one and its departures through the other, so the
//! packets in flight on a loaded link — each due after the one before —
//! queue up in a FIFO instead of being sorted through the heap (see
//! `eventq`; an arrival that jitter or a shortened delay puts out of order
//! takes the heap as before). Ticks ([`SimCtx::schedule_tick`]) wait the
//! same way, in one line per interval.
//!
//! The run loop pops one entry at a time and dispatches it once; a packet
//! being serialized travels in its departure entry, so the link holds no
//! copy of it. No fast path drains back-to-back arrivals on one link:
//! counted on the benchmark's workloads, the peek it needs never hits on
//! the Table II ping-pong, the dense cells or the city run (0.2–0.44 peeks
//! per event), and a hit saves nothing a plain pop does not do (DESIGN
//! §7.1).
//!
//! A packet that finds its link idle at a nonzero rate goes on the wire
//! without entering the queue when the discipline keeps no state while
//! empty ([`crate::queue::QueueConfig::is_plain_when_empty`]): such a
//! link's queue is empty (see `LinkRuntime`), so the queue would hand the
//! packet straight back. The same records are written either way.

pub use crate::eventq::QueueStats;
use crate::eventq::{CancelToken, EventQueue, LineId, Phase};
use crate::link::{Bandwidth, Jitter, LinkId, LinkParams, LinkStats, LossModel};
use crate::packet::{Packet, Payload};
use crate::time::{SimDuration, SimTime};
use marnet_telemetry::{
    component, DropReason, MetricsSnapshot, TimeBuckets, TraceEvent, TraceSink,
};
use rand::Rng;
use rand_chacha::ChaCha12Rng;
use std::fmt;

/// Identifier of an actor within a [`Simulator`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ActorId(u32);

impl ActorId {
    /// The raw index of this actor.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ActorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "actor#{}", self.0)
    }
}

/// Handle to a scheduled timer, usable with [`SimCtx::cancel_timer`] and
/// [`SimCtx::rearm_timer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerHandle(CancelToken);

/// What an actor is being told.
#[derive(Debug)]
pub enum Event {
    /// Fired once when the simulation starts (or when the actor is installed
    /// into an already-running simulation).
    Start,
    /// A packet arrived over a link.
    Packet {
        /// The link it arrived on.
        link: LinkId,
        /// The packet itself.
        packet: Packet,
    },
    /// A timer scheduled via [`SimCtx::schedule_timer`] fired.
    Timer {
        /// The tag given at scheduling time.
        tag: u64,
    },
    /// A direct message from a co-located actor (no network in between).
    Message {
        /// The sending actor.
        from: ActorId,
        /// The message body.
        msg: Payload,
    },
    /// A packet passed by a co-located actor, no link in between (see
    /// [`SimCtx::hand_off`]).
    Handoff {
        /// The handing actor.
        from: ActorId,
        /// The packet itself.
        packet: Packet,
    },
}

/// A simulation participant.
///
/// Implementations must be deterministic: any randomness should come from an
/// RNG derived via [`crate::rng::derive_rng`] and owned by the actor.
pub trait Actor {
    /// Reacts to an event. `ctx` exposes the clock, timers and links.
    fn on_event(&mut self, ctx: &mut SimCtx, ev: Event);
}

/// What a queue entry does when popped. A `LinkDeparture` ends the
/// serialization of the packet it carries, so a packet on the wire has no
/// other home.
enum Dest {
    Actor { id: ActorId, event: Event },
    LinkDeparture { link: LinkId, packet: Packet },
    LinkArrival { link: LinkId, packet: Packet },
}

/// One link's transmitter and wire.
///
/// Invariant: a link that is idle (`!busy`) at a nonzero rate has an
/// empty queue. Every transition keeps it. The idle-link bypass marks
/// the link busy. An enqueue on an idle link at a nonzero rate is followed
/// by `start_tx`, which dequeues the packet or has the AQM drop it. After
/// a departure `start_tx` leaves the link busy, or idle with a queue
/// whose `dequeue` returned `None`, which empties it. `set_link_rate`
/// kicks a non-empty idle queue, and `set_link_up` changes none of busy,
/// rate or queue. So only a zero-rate link holds packets while idle.
struct LinkRuntime {
    dst: ActorId,
    rate: Bandwidth,
    delay: SimDuration,
    jitter: Jitter,
    loss: LossModel,
    queue: Box<dyn crate::queue::Queue>,
    /// [`crate::queue::QueueConfig::is_plain_when_empty`] of the link's
    /// discipline: a packet that finds the link idle and the queue empty
    /// goes on the wire without the queue round trip, and a departure
    /// that leaves the queue empty skips its dequeue.
    plain_when_empty: bool,
    busy: bool,
    up: bool,
    ge_bad: bool,
    /// The event queue's delay lines for this link's packet arrivals and
    /// for its (at most one pending) departure.
    arrivals: LineId,
    departures: LineId,
    stats: LinkStats,
    rng: ChaCha12Rng,
}

/// Resolves a [`LinkId`] to its runtime slot.
///
/// Free functions over the `links` field (rather than `&mut self`
/// methods) so call sites keep disjoint borrows of the other [`SimCtx`]
/// fields, and so the indexing invariant lives in exactly one place.
#[inline]
fn link_rt(links: &[LinkRuntime], link: LinkId) -> &LinkRuntime {
    // marnet-lint: allow(panic-path): LinkIds are only minted by add_link for this simulator, so the slot exists
    &links[link.index()]
}

/// Mutable counterpart of [`link_rt`].
#[inline]
fn link_rt_mut(links: &mut [LinkRuntime], link: LinkId) -> &mut LinkRuntime {
    // marnet-lint: allow(panic-path): LinkIds are only minted by add_link for this simulator, so the slot exists
    &mut links[link.index()]
}

/// Resolves an [`ActorId`] to its slot in the actor table.
#[inline]
fn actor_slot_mut(
    actors: &mut [Option<Box<dyn Actor>>],
    id: ActorId,
) -> &mut Option<Box<dyn Actor>> {
    // marnet-lint: allow(panic-path): ActorIds are only minted by reserve_actor for this simulator, so the slot exists
    &mut actors[id.index()]
}

/// Bucket width of a link's queue-delay series: 100 ms, fine enough to see
/// bufferbloat build up, coarse enough to stay small over multi-minute
/// runs.
const QUEUE_DELAY_BUCKET_NANOS: u64 = 100_000_000;

/// Tie-break source key of events scheduled outside any handler (setup
/// code, `deliver_starts`). See [`SimCtx::src`].
pub(crate) const SRC_SETUP: u64 = u64::MAX;

/// Tie-break source key of events scheduled by link `index`'s internal
/// machinery (bit 63 keeps links disjoint from actor indices).
pub(crate) const fn link_src_key(index: usize) -> u64 {
    (1u64 << 63) | index as u64
}

/// The engine state visible to actors while they handle an event.
pub struct SimCtx {
    now: SimTime,
    seed: u64,
    queue: EventQueue<Dest>,
    next_seq: u64,
    next_packet_id: u64,
    links: Vec<LinkRuntime>,
    current_actor: ActorId,
    /// Tie-break source key of the component whose handler is executing:
    /// the scheduling source stamped on every event it pushes (see
    /// [`crate::config::TieBreak`]). Actors use their index, link-internal
    /// events use [`link_src_key`], setup code uses [`SRC_SETUP`].
    src: u64,
    stopped: bool,
    trace: TraceSink,
    /// Each link's queue delay over sim time, in ms, indexed by link: the
    /// delay of every dequeued packet, kept once
    /// [`Simulator::enable_metrics`] is called.
    queue_delay_ms: Option<Vec<TimeBuckets>>,
    /// The event queue's delay line for each tick interval in use (see
    /// [`SimCtx::schedule_tick`]); a handful at most, so a scan finds one.
    tick_lines: Vec<(SimDuration, LineId)>,
}

impl fmt::Debug for SimCtx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimCtx")
            .field("now", &self.now)
            .field("pending_events", &self.queue.len())
            .field("links", &self.links.len())
            .finish()
    }
}

impl SimCtx {
    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The experiment seed the simulator was created with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The actor currently handling an event.
    #[inline]
    pub fn self_id(&self) -> ActorId {
        self.current_actor
    }

    /// The `seq` the next scheduled event will draw.
    #[cfg(test)]
    pub(crate) fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Allocates a globally unique packet id.
    #[inline]
    pub fn next_packet_id(&mut self) -> u64 {
        let id = self.next_packet_id;
        self.next_packet_id += 1;
        id
    }

    /// Stops the run loop after the current event completes.
    pub fn stop(&mut self) {
        self.stopped = true;
    }

    /// Pending events in the queue (diagnostics), including the current
    /// instant's not-yet-delivered messages and the packets in flight on
    /// links.
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    /// What the event queue has done so far (diagnostics): how many
    /// insertions went through the heap, how many through the same-instant
    /// lane and how many through the links' delay lines, in-place re-arms,
    /// cancellations and the most events that were pending at once.
    pub fn queue_stats(&self) -> QueueStats {
        self.queue.stats()
    }

    /// Pending cancellable timers (diagnostics). With true removal this is
    /// live timers only — cancelled timers leave no residue. Counts event
    /// queue entries, so a [`crate::timers::TimerBank`] counts once however
    /// many timers it holds; ticks ([`SimCtx::schedule_tick`]) are not
    /// cancellable and are not counted.
    pub fn pending_timers(&self) -> usize {
        self.queue.cancellable_len()
    }

    /// The phase of an actor event or packet arrival scheduled now for
    /// `time`. Work splits by causal age: work committed to a future
    /// instant (`Carry`) outranks work spawned within that instant
    /// (`Spawn`), so e.g. a periodic timer colliding with a same-instant
    /// message never decides this-tick-vs-next-tick by schedule accident.
    /// Phases outrank the tie-break policy; see `eventq`.
    #[inline]
    fn phase_at(&self, time: SimTime) -> Phase {
        if time > self.now {
            Phase::Carry
        } else {
            Phase::Spawn
        }
    }

    /// Schedules an actor event.
    fn push(&mut self, time: SimTime, dest: Dest) {
        let phase = self.phase_at(time);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push(time, seq, self.src, phase, dest);
    }

    /// Schedules a link's own event through one of its delay lines: on a
    /// link with constant delay every arrival sorts behind the previous
    /// one, so the queue keeps them in a FIFO instead of its heap (an
    /// out-of-order one goes to the heap; see `eventq`).
    fn push_line(&mut self, line: LineId, time: SimTime, phase: Phase, dest: Dest) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push_line(line, time, seq, self.src, phase, dest);
    }

    /// Schedules a [`Event::Timer`] for the current actor after `delay`.
    pub fn schedule_timer(&mut self, delay: SimDuration, tag: u64) -> TimerHandle {
        let (t, seq, phase) = self.timer_key(delay);
        let dest = Dest::Actor { id: self.current_actor, event: Event::Timer { tag } };
        TimerHandle(self.queue.push_cancellable(t, seq, self.src, phase, dest))
    }

    /// The queue key of a timer armed now to fire after `delay`; draws the
    /// timer's `seq`.
    pub(crate) fn timer_key(&mut self, delay: SimDuration) -> (SimTime, u64, Phase) {
        let t = self.now.saturating_add(delay);
        let seq = self.next_seq;
        self.next_seq += 1;
        // A timer for a future instant is that instant's `Carry` work; a
        // zero-delay timer fires within the current instant, i.e. `Spawn`.
        (t, seq, self.phase_at(t))
    }

    /// Schedules an [`Event::Timer`] for the current actor after `delay`
    /// that cannot be cancelled or moved — a fixed-rate source's tick. It
    /// draws the key [`SimCtx::schedule_timer`] would have, but waits in a
    /// delay line shared by every tick of the same `delay`: ticks armed
    /// one after another for one interval are due one after another, so
    /// they queue up in a FIFO instead of being sorted through the heap
    /// (an out-of-order one goes to the heap; see `eventq`).
    pub fn schedule_tick(&mut self, delay: SimDuration, tag: u64) {
        let line = match self.tick_lines.iter().find(|(d, _)| *d == delay) {
            Some(&(_, line)) => line,
            None => {
                let line = self.queue.add_line();
                self.tick_lines.push((delay, line));
                line
            }
        };
        let (t, seq, phase) = self.timer_key(delay);
        let dest = Dest::Actor { id: self.current_actor, event: Event::Timer { tag } };
        self.queue.push_line(line, t, seq, self.src, phase, dest);
    }

    /// Moves a timer: exactly [`SimCtx::cancel_timer`] on `handle` followed
    /// by [`SimCtx::schedule_timer`], but a still-pending timer is re-keyed
    /// where it sits in the event queue instead of being removed and
    /// inserted again. `handle` is dead afterwards; if it had already fired
    /// or been cancelled this is a plain `schedule_timer`.
    pub fn rearm_timer(
        &mut self,
        handle: TimerHandle,
        delay: SimDuration,
        tag: u64,
    ) -> TimerHandle {
        let (t, seq, phase) = self.timer_key(delay);
        let dest = Dest::Actor { id: self.current_actor, event: Event::Timer { tag } };
        TimerHandle(self.queue.rearm(handle.0, t, seq, self.src, phase, dest))
    }

    /// Puts a timer of the current actor in the event queue under a key
    /// [`SimCtx::timer_key`] drew earlier, moving `armed` there if it is
    /// still pending. A [`crate::timers::TimerBank`] shows the queue its
    /// earliest timer this way: the entry sorts exactly where that timer's
    /// own `schedule_timer` entry would have.
    pub(crate) fn arm_timer_at(
        &mut self,
        armed: Option<TimerHandle>,
        (t, seq, phase): (SimTime, u64, Phase),
        tag: u64,
    ) -> TimerHandle {
        let dest = Dest::Actor { id: self.current_actor, event: Event::Timer { tag } };
        TimerHandle(match armed {
            Some(handle) => self.queue.rearm(handle.0, t, seq, self.src, phase, dest),
            None => self.queue.push_cancellable(t, seq, self.src, phase, dest),
        })
    }

    /// Cancels a pending timer, removing it from the event queue
    /// immediately (O(log n), memory released right away). Cancelling an
    /// already-fired or already-cancelled timer is a no-op.
    pub fn cancel_timer(&mut self, handle: TimerHandle) {
        self.queue.cancel(handle.0);
    }

    /// Delivers a direct [`Event::Message`] to `target` at the current time
    /// (after all already-scheduled events for this instant).
    pub fn send_message(&mut self, target: ActorId, msg: Payload) {
        let from = self.current_actor;
        self.push(self.now, Dest::Actor { id: target, event: Event::Message { from, msg } });
    }

    /// Delivers a direct [`Event::Message`] after `delay` (e.g. modelling
    /// local compute time before handing data to a transport endpoint).
    pub fn send_message_in(&mut self, target: ActorId, delay: SimDuration, msg: Payload) {
        let from = self.current_actor;
        let t = self.now.saturating_add(delay);
        self.push(t, Dest::Actor { id: target, event: Event::Message { from, msg } });
    }

    /// Hands `packet` to `target` at the current time as an
    /// [`Event::Handoff`]: [`SimCtx::send_message`] for a packet, under the
    /// same queue key, with the packet carried in the event itself rather
    /// than boxed in a [`Payload`].
    pub fn hand_off(&mut self, target: ActorId, packet: Packet) {
        let from = self.current_actor;
        self.push(self.now, Dest::Actor { id: target, event: Event::Handoff { from, packet } });
    }

    /// Offers a packet to a link for transmission.
    ///
    /// The packet is queued at the transmitter; drops (queue full, link down)
    /// are reflected in [`SimCtx::link_stats`], not reported to the caller —
    /// like a real kernel socket buffer, senders learn of loss end-to-end.
    pub fn transmit(&mut self, link: LinkId, mut pkt: Packet) {
        let now = self.now;
        let t = now.as_nanos();
        let comp = component::link(link.index());
        let (pid, pflow, psize, pprio) = (pkt.id, pkt.flow, pkt.size, pkt.prio);
        let l = link_rt_mut(&mut self.links, link);
        debug_assert!(
            l.busy || l.rate == Bandwidth::ZERO || l.queue.is_empty(),
            "link {} is idle at a nonzero rate with packets queued",
            link.index()
        );
        l.stats.offered_packets += 1;
        l.stats.offered_bytes += u64::from(pkt.size);
        if !l.up {
            l.stats.drops_down += 1;
            self.trace.emit_with(|| {
                TraceEvent::packet_drop(t, comp, DropReason::LinkDown, pid, pflow, psize)
            });
            return;
        }
        if l.plain_when_empty && !l.busy && l.rate != Bandwidth::ZERO {
            // The queue is empty (the `LinkRuntime` invariant) and would
            // hand the packet straight back, stamped.
            pkt.enqueued = now;
            self.trace.emit_with(|| TraceEvent::packet_enqueue(t, comp, pid, pflow, psize, pprio));
            self.put_on_wire(link, pkt, false);
            return;
        }
        match l.queue.enqueue(pkt, now) {
            crate::queue::EnqueueOutcome::Dropped(victim) => {
                l.stats.drops_queue += 1;
                if victim.id != pid {
                    // FQ-CoDel admitted the arrival and shed a fattest-flow
                    // victim instead; record both so event counts reconcile
                    // with the final queue occupancy.
                    self.trace.emit_with(|| {
                        TraceEvent::packet_enqueue(t, comp, pid, pflow, psize, pprio)
                    });
                }
                let (vid, vflow, vsize) = (victim.id, victim.flow, victim.size);
                self.trace.emit_with(|| {
                    TraceEvent::packet_drop(t, comp, DropReason::QueueFull, vid, vflow, vsize)
                });
            }
            crate::queue::EnqueueOutcome::Enqueued => {
                self.trace
                    .emit_with(|| TraceEvent::packet_enqueue(t, comp, pid, pflow, psize, pprio));
                if !l.busy {
                    self.start_tx(link);
                }
            }
        }
    }

    fn start_tx(&mut self, link: LinkId) {
        let now = self.now;
        let t = now.as_nanos();
        let comp = component::link(link.index());
        let l = link_rt_mut(&mut self.links, link);
        let was_busy = l.busy;
        if l.rate == Bandwidth::ZERO {
            l.busy = false;
            if was_busy {
                let (qp, qb) = (l.queue.len_packets() as u64, l.queue.len_bytes());
                self.trace.emit_with(|| TraceEvent::link_state(t, comp, false, qp, qb));
            }
            return;
        }
        let packet = if l.plain_when_empty && l.queue.is_empty() {
            // Nothing to send, and the dequeue would change nothing.
            None
        } else {
            let deq = l.queue.dequeue(now);
            l.stats.drops_aqm += deq.dropped.len() as u64;
            for victim in &deq.dropped {
                let (vid, vflow, vsize) = (victim.id, victim.flow, victim.size);
                self.trace.emit_with(|| {
                    TraceEvent::packet_drop(t, comp, DropReason::Aqm, vid, vflow, vsize)
                });
            }
            deq.packet
        };
        match packet {
            Some(pkt) => self.put_on_wire(link, pkt, was_busy),
            None => {
                l.busy = false;
                if was_busy {
                    self.trace.emit_with(|| TraceEvent::link_state(t, comp, false, 0, 0));
                }
            }
        }
    }

    /// Starts serializing `pkt`, the packet `link` sends next (dequeued,
    /// or passed by an idle link with an empty queue): records the dequeue
    /// and, unless `was_busy`, the busy transition, samples its queue
    /// delay, marks the link busy and schedules the departure.
    fn put_on_wire(&mut self, link: LinkId, pkt: Packet, was_busy: bool) {
        let now = self.now;
        let t = now.as_nanos();
        let comp = component::link(link.index());
        let l = link_rt_mut(&mut self.links, link);
        let delay = now.saturating_since(pkt.enqueued).as_nanos();
        if self.trace.is_enabled() {
            let pid = pkt.id;
            // A packet that found the link idle and empty and left
            // at once: its enqueue, this dequeue and the busy
            // transition become one send-idle record, but only
            // when the sink's last record is that enqueue.
            let folded = !was_busy
                && delay == 0
                && l.queue.is_empty()
                && self.trace.fold_last(|last| last.fold_send_idle(t, comp, pid));
            if !folded {
                self.trace.emit_with(|| TraceEvent::packet_dequeue(t, comp, pid, delay));
                if !was_busy {
                    let (qp, qb) = (l.queue.len_packets() as u64, l.queue.len_bytes());
                    self.trace.emit_with(|| TraceEvent::link_state(t, comp, true, qp, qb));
                }
            }
        }
        if let Some(series) = self.queue_delay_ms.as_mut().and_then(|s| s.get_mut(link.index())) {
            series.observe(t, delay as f64 / 1e6);
        }
        l.busy = true;
        let ser = l.rate.serialization_time(pkt.size);
        let line = l.departures;
        // Departures drain a transmit queue (freeing a slot), and
        // `Drain` leads its instant: a slot freed at `t` is visible
        // to every arrival at `t` under any equal-timestamp order —
        // without it, a departure/arrival tie at a full drop-tail
        // queue decides admit-vs-drop by schedule accident.
        self.push_line(
            line,
            now.saturating_add(ser),
            Phase::Drain,
            Dest::LinkDeparture { link, packet: pkt },
        );
    }

    fn handle_departure(&mut self, link: LinkId, pkt: Packet) {
        // Arrivals and follow-on departures scheduled here are the link's
        // own doing, not the current actor's: stamp them with the link's
        // source key so tie-break perturbation treats the link as an
        // independently scheduled component.
        self.src = link_src_key(link.index());
        let now = self.now;
        let l = link_rt_mut(&mut self.links, link);
        l.stats.tx_packets += 1;
        l.stats.tx_bytes += u64::from(pkt.size);

        let lost = match l.loss {
            LossModel::None => false,
            LossModel::Bernoulli { p } => l.rng.gen_bool(p.clamp(0.0, 1.0)),
            LossModel::GilbertElliott { p_good_to_bad, p_bad_to_good, loss_in_bad } => {
                if l.ge_bad {
                    if l.rng.gen_bool(p_bad_to_good.clamp(0.0, 1.0)) {
                        l.ge_bad = false;
                    }
                } else if l.rng.gen_bool(p_good_to_bad.clamp(0.0, 1.0)) {
                    l.ge_bad = true;
                }
                l.ge_bad && l.rng.gen_bool(loss_in_bad.clamp(0.0, 1.0))
            }
        };

        let t = now.as_nanos();
        let comp = component::link(link.index());
        let (pid, pflow, psize) = (pkt.id, pkt.flow, pkt.size);
        if !l.up {
            l.stats.drops_down += 1;
            self.trace.emit_with(|| {
                TraceEvent::packet_drop(t, comp, DropReason::LinkDown, pid, pflow, psize)
            });
        } else if lost {
            l.stats.drops_loss += 1;
            self.trace.emit_with(|| {
                TraceEvent::packet_drop(t, comp, DropReason::Loss, pid, pflow, psize)
            });
        } else {
            let jitter = match l.jitter {
                Jitter::None => SimDuration::ZERO,
                Jitter::Uniform { max } => {
                    SimDuration::from_nanos(l.rng.gen_range(0..=max.as_nanos()))
                }
                Jitter::Gaussian { sigma } => {
                    // Box-Muller; half-normal truncated at 3 sigma.
                    let u1: f64 = l.rng.gen_range(f64::EPSILON..1.0);
                    let u2: f64 = l.rng.gen();
                    let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
                    let nanos = (z.abs().min(3.0) * sigma.as_nanos() as f64) as u64;
                    SimDuration::from_nanos(nanos)
                }
            };
            let arrival = now.saturating_add(l.delay + jitter);
            let line = l.arrivals;
            let phase = self.phase_at(arrival);
            self.push_line(line, arrival, phase, Dest::LinkArrival { link, packet: pkt });
        }
        self.start_tx(link);
    }

    /// Current rate of a link.
    pub fn link_rate(&self, link: LinkId) -> Bandwidth {
        link_rt(&self.links, link).rate
    }

    /// Changes a link's rate. Takes effect for the next serialized packet.
    pub fn set_link_rate(&mut self, link: LinkId, rate: Bandwidth) {
        let l = link_rt_mut(&mut self.links, link);
        l.rate = rate;
        let kick = !l.busy && !l.queue.is_empty();
        if kick {
            self.start_tx(link);
        }
    }

    /// Whether a link is administratively up.
    pub fn link_is_up(&self, link: LinkId) -> bool {
        link_rt(&self.links, link).up
    }

    /// Brings a link up or down. While down, offered packets are dropped,
    /// and a busy link keeps serializing its queue and drops each packet
    /// at its own departure. Only a zero-rate link holds its queue. Bringing
    /// the link up restarts nothing: an idle link at a nonzero rate has an
    /// empty queue (see `LinkRuntime`).
    pub fn set_link_up(&mut self, link: LinkId, up: bool) {
        link_rt_mut(&mut self.links, link).up = up;
    }

    /// Cumulative counters for a link.
    pub fn link_stats(&self, link: LinkId) -> LinkStats {
        link_rt(&self.links, link).stats
    }

    /// Queue occupancy of a link's transmitter: `(packets, bytes)`.
    pub fn link_queue_len(&self, link: LinkId) -> (usize, u64) {
        let l = link_rt(&self.links, link);
        (l.queue.len_packets(), l.queue.len_bytes())
    }

    /// `true` while the flight recorder is capturing events. Instrumented
    /// actors may use this to skip preparing expensive event operands.
    #[inline]
    pub fn trace_enabled(&self) -> bool {
        self.trace.is_enabled()
    }

    /// Records the trace event built by `f` when the flight recorder is
    /// enabled; a no-op (one predictable branch, the closure never runs)
    /// otherwise. Actors above the engine — protocol endpoints, offload
    /// pipelines — use this for their own event kinds (class admit/degrade,
    /// FEC repair, path switch, offload dispatch).
    #[inline]
    pub fn trace_with(&mut self, f: impl FnOnce() -> TraceEvent) {
        self.trace.emit_with(f);
    }

    /// Takes all recorded trace events in chronological order, as recorded
    /// (readers pass them through [`marnet_telemetry::expand`]), leaving the
    /// recorder enabled and empty. Empty when recording is off.
    pub fn take_trace(&mut self) -> Vec<TraceEvent> {
        self.trace.take_events()
    }
}

/// The simulator: an event loop over a set of actors and links.
///
/// See the [crate-level documentation](crate) for a complete example.
pub struct Simulator {
    ctx: SimCtx,
    actors: Vec<Option<Box<dyn Actor>>>,
    started: Vec<bool>,
}

impl fmt::Debug for Simulator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Simulator")
            .field("now", &self.ctx.now)
            .field("actors", &self.actors.len())
            .field("links", &self.ctx.links.len())
            .finish()
    }
}

impl Simulator {
    /// Creates an empty simulator with the given experiment seed and the
    /// *ambient* tie-break policy (FIFO unless the caller is inside a
    /// [`crate::config::with_ambient_tie_break`] scope — which is how
    /// `marnet-lab racecheck` perturbs scenario runners that construct
    /// their own simulator internally).
    pub fn new(seed: u64) -> Self {
        Simulator {
            ctx: SimCtx {
                now: SimTime::ZERO,
                seed,
                queue: EventQueue::with_tie_break(crate::config::ambient_tie_break()),
                next_seq: 0,
                next_packet_id: 0,
                links: Vec::new(),
                current_actor: ActorId(u32::MAX),
                src: SRC_SETUP,
                stopped: false,
                trace: TraceSink::default(),
                queue_delay_ms: None,
                tick_lines: Vec::new(),
            },
            actors: Vec::new(),
            started: Vec::new(),
        }
    }

    /// Reserves an actor slot so links can reference the actor before it is
    /// constructed. Must be filled with [`Simulator::install_actor`] before
    /// the simulation runs.
    pub fn reserve_actor(&mut self) -> ActorId {
        let id = ActorId(self.actors.len() as u32);
        self.actors.push(None);
        self.started.push(false);
        id
    }

    /// Installs an actor into a reserved slot.
    ///
    /// # Panics
    ///
    /// Panics if the slot is already filled.
    pub fn install_actor<A: Actor + 'static>(&mut self, id: ActorId, actor: A) {
        let slot = actor_slot_mut(&mut self.actors, id);
        assert!(slot.is_none(), "actor slot {id} already filled");
        *slot = Some(Box::new(actor));
    }

    /// Reserves a slot and installs the actor in one step.
    pub fn add_actor<A: Actor + 'static>(&mut self, actor: A) -> ActorId {
        let id = self.reserve_actor();
        self.install_actor(id, actor);
        id
    }

    /// Adds a directed link from `src` to `dst`. `src` is for the reader:
    /// the engine keeps only the receiving end, and delivers there whatever
    /// any holder of the [`LinkId`] transmits.
    pub fn add_link(&mut self, _src: ActorId, dst: ActorId, params: LinkParams) -> LinkId {
        let id = LinkId(self.ctx.links.len() as u32);
        let rng = crate::rng::derive_rng(self.ctx.seed, &format!("sim.link.{}", id.index()));
        self.ctx.links.push(LinkRuntime {
            dst,
            rate: params.rate,
            delay: params.delay,
            jitter: params.jitter,
            loss: params.loss,
            queue: params.queue.build(),
            plain_when_empty: params.queue.is_plain_when_empty(),
            busy: false,
            up: true,
            ge_bad: false,
            arrivals: self.ctx.queue.add_line(),
            departures: self.ctx.queue.add_line(),
            stats: LinkStats::default(),
            rng,
        });
        if let Some(series) = &mut self.ctx.queue_delay_ms {
            series.push(TimeBuckets::new(QUEUE_DELAY_BUCKET_NANOS));
        }
        id
    }

    /// Immutable access to engine state between runs (time, stats, queues).
    pub fn ctx(&self) -> &SimCtx {
        &self.ctx
    }

    /// Mutable access to engine state between runs, e.g. to reconfigure
    /// links from test code.
    pub fn ctx_mut(&mut self) -> &mut SimCtx {
        &mut self.ctx
    }

    fn deliver_starts(&mut self) {
        self.ctx.src = SRC_SETUP;
        for (i, (started, actor)) in self.started.iter_mut().zip(&self.actors).enumerate() {
            if !*started && actor.is_some() {
                *started = true;
                let id = ActorId(i as u32);
                self.ctx.push(self.ctx.now, Dest::Actor { id, event: Event::Start });
            }
        }
    }

    fn dispatch_to_actor(&mut self, id: ActorId, event: Event) {
        // Borrowing the actor in place is fine: `SimCtx` has no route back
        // to the actor table, so `on_event` cannot alias the slot.
        let actor = actor_slot_mut(&mut self.actors, id)
            .as_mut()
            // marnet-lint: allow(panic-path): an event reaches only actors that were reserved, and a reserved slot left uninstalled is the documented panic of `run_until`
            .unwrap_or_else(|| panic!("event for uninstalled {id}"));
        self.ctx.current_actor = id;
        self.ctx.src = u64::from(id.0);
        actor.on_event(&mut self.ctx, event);
        self.ctx.current_actor = ActorId(u32::MAX);
        self.ctx.src = SRC_SETUP;
    }

    /// Runs the event loop until virtual time `end`, an actor calls
    /// [`SimCtx::stop`], or no events remain.
    /// Returns the number of events processed by this call.
    ///
    /// # Panics
    ///
    /// Panics if an event targets a reserved-but-never-installed actor.
    pub fn run_until(&mut self, end: SimTime) -> u64 {
        self.deliver_starts();
        self.ctx.stopped = false;
        let mut processed = 0;
        while !self.ctx.stopped {
            let Some((time, _seq, dest)) = self.ctx.queue.pop_at_most(end) else {
                break;
            };
            self.ctx.now = time;
            processed += 1;
            match dest {
                Dest::Actor { id, event } => self.dispatch_to_actor(id, event),
                Dest::LinkDeparture { link, packet } => self.ctx.handle_departure(link, packet),
                Dest::LinkArrival { link, packet } => {
                    let l = link_rt_mut(&mut self.ctx.links, link);
                    l.stats.delivered_packets += 1;
                    l.stats.delivered_bytes += u64::from(packet.size);
                    let dst = l.dst;
                    let comp = component::link(link.index());
                    let (pid, pflow, psize) = (packet.id, packet.flow, packet.size);
                    self.ctx.trace.emit_with(|| {
                        TraceEvent::packet_deliver(time.as_nanos(), comp, pid, pflow, psize)
                    });
                    self.dispatch_to_actor(dst, Event::Packet { link, packet });
                }
            }
        }
        // Advance the clock to the horizon so stats over `end` are meaningful.
        if !self.ctx.stopped && self.ctx.now < end && end != SimTime::MAX {
            self.ctx.now = end;
        }
        processed
    }

    /// Runs until no events remain or an actor calls [`SimCtx::stop`].
    pub fn run_to_completion(&mut self) -> u64 {
        self.run_until(SimTime::MAX)
    }

    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.ctx.now
    }

    /// Enables the flight recorder with a ring of `capacity` events.
    /// Subsequent engine activity (enqueue/drop/dequeue/deliver, link
    /// busy/idle) and actor [`SimCtx::trace_with`] calls are recorded. A
    /// packet that finds its link idle and empty is recorded as one
    /// send-idle record; [`marnet_telemetry::expand`] restores the enqueue,
    /// dequeue and busy records it stands for. Each event is written
    /// straight into the ring, which is reserved whole at the first event;
    /// at [`marnet_telemetry::DEFAULT_TRACE_CAPACITY`] the allocator hands a
    /// dropped trace's block to the next traced run, so a run pays for its
    /// records, not for fresh pages.
    pub fn enable_flight_recorder(&mut self, capacity: usize) {
        self.ctx.trace = TraceSink::chunked(capacity);
    }

    /// Takes all recorded trace events (see [`SimCtx::take_trace`]).
    pub fn take_trace(&mut self) -> Vec<TraceEvent> {
        self.ctx.trace.take_events()
    }

    /// Gives every link, present and future, a queue-delay series
    /// (`sim.link.{i}.queue_delay_ms`, 100 ms buckets) that the run fills
    /// at each dequeue, for [`Simulator::publish_link_metrics`].
    pub fn enable_metrics(&mut self) {
        let links = self.ctx.links.len();
        self.ctx
            .queue_delay_ms
            .get_or_insert_with(Vec::new)
            .resize_with(links, || TimeBuckets::new(QUEUE_DELAY_BUCKET_NANOS));
    }

    /// Writes each link's metrics into `snap`, after the run: the
    /// cumulative [`LinkStats`] counters
    /// (`sim.link.{i}.{offered,tx,delivered}_{packets,bytes}`,
    /// `sim.link.{i}.drops_{queue,aqm,loss,down}`; zeros omitted), the
    /// final queue occupancy as the gauges `sim.link.{i}.queue_{packets,bytes}`
    /// and, once [`Simulator::enable_metrics`] was called, the queue-delay
    /// series.
    pub fn publish_link_metrics(&self, snap: &mut MetricsSnapshot) {
        for (i, l) in self.ctx.links.iter().enumerate() {
            let name = |metric: &str| format!("sim.link.{i}.{metric}");
            let st = &l.stats;
            for (metric, v) in [
                ("offered_packets", st.offered_packets),
                ("offered_bytes", st.offered_bytes),
                ("tx_packets", st.tx_packets),
                ("tx_bytes", st.tx_bytes),
                ("delivered_packets", st.delivered_packets),
                ("delivered_bytes", st.delivered_bytes),
                ("drops_queue", st.drops_queue),
                ("drops_aqm", st.drops_aqm),
                ("drops_loss", st.drops_loss),
                ("drops_down", st.drops_down),
            ] {
                if v > 0 {
                    snap.count(&name(metric), v);
                }
            }
            snap.gauges.insert(name("queue_packets"), l.queue.len_packets() as f64);
            snap.gauges.insert(name("queue_bytes"), l.queue.len_bytes() as f64);
            if let Some(series) = self.ctx.queue_delay_ms.as_ref().and_then(|s| s.get(i)) {
                snap.series.insert(name("queue_delay_ms"), series.to_buckets());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::Bandwidth;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Counts events it receives; used to probe engine mechanics.
    struct Probe {
        log: Rc<RefCell<Vec<(SimTime, String)>>>,
        echo_link: Option<LinkId>,
    }

    impl Actor for Probe {
        fn on_event(&mut self, ctx: &mut SimCtx, ev: Event) {
            let entry = match &ev {
                Event::Start => "start".to_string(),
                Event::Packet { packet, .. } => format!("pkt:{}", packet.id),
                Event::Timer { tag } => format!("timer:{tag}"),
                Event::Message { .. } => "msg".to_string(),
                Event::Handoff { packet, .. } => format!("handoff:{}", packet.id),
            };
            self.log.borrow_mut().push((ctx.now(), entry));
            if let (Some(link), Event::Packet { packet, .. }) = (self.echo_link, &ev) {
                ctx.transmit(link, packet.clone());
            }
        }
    }

    fn probe(log: &Rc<RefCell<Vec<(SimTime, String)>>>) -> Probe {
        Probe { log: Rc::clone(log), echo_link: None }
    }

    /// Transmits `burst` packets of 1250 bytes on `link` at start.
    struct BurstSender {
        link: LinkId,
        burst: u64,
    }

    impl Actor for BurstSender {
        fn on_event(&mut self, ctx: &mut SimCtx, ev: Event) {
            if matches!(ev, Event::Start) {
                for _ in 0..self.burst {
                    let id = ctx.next_packet_id();
                    ctx.transmit(self.link, Packet::new(id, 0, 1250, ctx.now()));
                }
            }
        }
    }

    #[test]
    fn start_events_fire_once() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulator::new(1);
        sim.add_actor(probe(&log));
        sim.run_until(SimTime::from_secs(1));
        sim.run_until(SimTime::from_secs(2));
        let starts = log.borrow().iter().filter(|(_, e)| e == "start").count();
        assert_eq!(starts, 1);
    }

    #[test]
    fn timers_fire_in_order_and_cancel() {
        struct TimerActor {
            log: Rc<RefCell<Vec<u64>>>,
        }
        impl Actor for TimerActor {
            fn on_event(&mut self, ctx: &mut SimCtx, ev: Event) {
                match ev {
                    Event::Start => {
                        ctx.schedule_timer(SimDuration::from_millis(30), 3);
                        ctx.schedule_timer(SimDuration::from_millis(10), 1);
                        let h = ctx.schedule_timer(SimDuration::from_millis(20), 2);
                        ctx.cancel_timer(h);
                    }
                    Event::Timer { tag } => self.log.borrow_mut().push(tag),
                    _ => {}
                }
            }
        }
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulator::new(1);
        sim.add_actor(TimerActor { log: Rc::clone(&log) });
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(*log.borrow(), vec![1, 3]);
    }

    #[test]
    fn packet_latency_is_serialization_plus_delay() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulator::new(1);
        let a = sim.reserve_actor();
        let b = sim.reserve_actor();
        // 1 Mb/s, 5 ms: a 1250-byte packet takes 10 ms + 5 ms = 15 ms.
        let l = sim.add_link(
            a,
            b,
            LinkParams::new(Bandwidth::from_mbps(1.0), SimDuration::from_millis(5)),
        );
        sim.install_actor(a, BurstSender { link: l, burst: 1 });
        sim.install_actor(b, probe(&log));
        sim.run_until(SimTime::from_secs(1));
        let log = log.borrow();
        let (t, e) = log.iter().find(|(_, e)| e.starts_with("pkt")).unwrap();
        assert_eq!(e, "pkt:0");
        assert_eq!(*t, SimTime::from_millis(15));
    }

    #[test]
    fn queueing_delay_accumulates_back_to_back() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulator::new(1);
        let a = sim.reserve_actor();
        let b = sim.reserve_actor();
        let l = sim.add_link(a, b, LinkParams::new(Bandwidth::from_mbps(1.0), SimDuration::ZERO));
        sim.install_actor(a, BurstSender { link: l, burst: 3 });
        sim.install_actor(b, probe(&log));
        sim.run_until(SimTime::from_secs(1));
        let times: Vec<SimTime> =
            log.borrow().iter().filter(|(_, e)| e.starts_with("pkt")).map(|(t, _)| *t).collect();
        assert_eq!(
            times,
            vec![SimTime::from_millis(10), SimTime::from_millis(20), SimTime::from_millis(30)]
        );
    }

    #[test]
    fn bernoulli_loss_drops_roughly_p() {
        let mut sim = Simulator::new(7);
        let a = sim.reserve_actor();
        let b = sim.reserve_actor();
        let params = LinkParams::new(Bandwidth::from_mbps(100.0), SimDuration::ZERO)
            .with_loss(LossModel::Bernoulli { p: 0.3 })
            .with_queue(QueueConfigLarge());
        let l = sim.add_link(a, b, params);
        struct Flood {
            link: LinkId,
        }
        impl Actor for Flood {
            fn on_event(&mut self, ctx: &mut SimCtx, ev: Event) {
                if matches!(ev, Event::Start) {
                    for _ in 0..5000 {
                        let id = ctx.next_packet_id();
                        ctx.transmit(self.link, Packet::new(id, 0, 100, ctx.now()));
                    }
                }
            }
        }
        struct Sink;
        impl Actor for Sink {
            fn on_event(&mut self, _: &mut SimCtx, _: Event) {}
        }
        sim.install_actor(a, Flood { link: l });
        sim.install_actor(b, Sink);
        sim.run_to_completion();
        let st = sim.ctx().link_stats(l);
        assert_eq!(st.tx_packets, 5000);
        let loss = st.drops_loss as f64 / 5000.0;
        assert!((loss - 0.3).abs() < 0.03, "measured loss {loss}");
        assert_eq!(st.delivered_packets + st.drops_loss, 5000);
    }

    #[allow(non_snake_case)]
    fn QueueConfigLarge() -> crate::queue::QueueConfig {
        crate::queue::QueueConfig::DropTail { cap_packets: 100_000 }
    }

    #[test]
    fn link_down_drops_and_up_resumes() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulator::new(1);
        let a = sim.reserve_actor();
        let b = sim.reserve_actor();
        let l = sim.add_link(a, b, LinkParams::new(Bandwidth::from_mbps(10.0), SimDuration::ZERO));
        sim.ctx_mut().set_link_up(l, false);
        struct S {
            link: LinkId,
        }
        impl Actor for S {
            fn on_event(&mut self, ctx: &mut SimCtx, ev: Event) {
                match ev {
                    Event::Start => {
                        let id = ctx.next_packet_id();
                        ctx.transmit(self.link, Packet::new(id, 0, 100, ctx.now()));
                        ctx.schedule_timer(SimDuration::from_millis(10), 0);
                    }
                    Event::Timer { .. } => {
                        ctx.set_link_up(self.link, true);
                        let id = ctx.next_packet_id();
                        ctx.transmit(self.link, Packet::new(id, 0, 100, ctx.now()));
                    }
                    _ => {}
                }
            }
        }
        sim.install_actor(a, S { link: l });
        sim.install_actor(b, probe(&log));
        sim.run_until(SimTime::from_secs(1));
        let st = sim.ctx().link_stats(l);
        assert_eq!(st.drops_down, 1);
        assert_eq!(st.delivered_packets, 1);
        assert_eq!(log.borrow().iter().filter(|(_, e)| e.starts_with("pkt")).count(), 1);
    }

    #[test]
    fn a_link_down_mid_serialization_drops_the_packet_on_the_wire_at_its_departure() {
        use marnet_telemetry::TraceKind::*;
        /// Sends four 1 ms packets at start and takes the link down at
        /// 0.5 ms, while packet 0 is on the wire.
        struct CutMidPacket {
            link: LinkId,
        }
        impl Actor for CutMidPacket {
            fn on_event(&mut self, ctx: &mut SimCtx, ev: Event) {
                match ev {
                    Event::Start => {
                        BurstSender { link: self.link, burst: 4 }.on_event(ctx, Event::Start);
                        ctx.schedule_timer(SimDuration::from_micros(500), 0);
                    }
                    Event::Timer { .. } => ctx.set_link_up(self.link, false),
                    _ => {}
                }
            }
        }
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulator::new(1);
        sim.enable_flight_recorder(1 << 10);
        let a = sim.reserve_actor();
        let b = sim.reserve_actor();
        // The default queue: drop-tail.
        let l = sim.add_link(a, b, LinkParams::new(Bandwidth::from_mbps(10.0), SimDuration::ZERO));
        sim.install_actor(a, CutMidPacket { link: l });
        sim.install_actor(b, probe(&log));
        sim.run_until(SimTime::from_millis(10));
        // The packet on the wire and the three queued behind it each finish
        // serializing and are dropped at that departure instant; down is not
        // a stall, so the link ends idle with nothing queued.
        let st = sim.ctx().link_stats(l);
        assert_eq!((st.tx_packets, st.drops_down, st.delivered_packets), (4, 4, 0));
        assert!(log.borrow().iter().all(|(_, e)| !e.starts_with("pkt")));
        assert_eq!(sim.ctx().link_queue_len(l), (0, 0));
        assert!(!link_rt(&sim.ctx().links, l).busy);
        let drops: Vec<(u64, u64)> = sim
            .take_trace()
            .iter()
            .filter(|e| e.kind == PacketDrop && e.aux == DropReason::LinkDown as u8)
            .map(|e| (e.t, e.a))
            .collect();
        assert_eq!(drops, [(1_000_000, 0), (2_000_000, 1), (3_000_000, 2), (4_000_000, 3)]);
        assert_eq!(sim.ctx().pending_events(), 0);
        // Back up, the link has nothing to restart: the next packet finds it
        // idle and empty and leaves as one send-idle record.
        sim.ctx_mut().set_link_up(l, true);
        let (id, now) = (sim.ctx_mut().next_packet_id(), sim.now());
        sim.ctx_mut().transmit(l, Packet::new(id, 0, 1250, now));
        sim.run_until(SimTime::from_secs(1));
        let records: Vec<_> =
            sim.take_trace().iter().map(|e| (e.t / 1_000_000, e.kind, e.a)).collect();
        assert_eq!(records, [(10, PacketSendIdle, 4), (11, LinkIdle, 0), (11, PacketDeliver, 4)]);
        assert_eq!(deliveries(&log), [(11_000, 4)]);
    }

    #[test]
    fn rate_change_kicks_stalled_queue() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulator::new(1);
        let a = sim.reserve_actor();
        let b = sim.reserve_actor();
        let l = sim.add_link(a, b, LinkParams::new(Bandwidth::ZERO, SimDuration::ZERO));
        struct S {
            link: LinkId,
        }
        impl Actor for S {
            fn on_event(&mut self, ctx: &mut SimCtx, ev: Event) {
                match ev {
                    Event::Start => {
                        let id = ctx.next_packet_id();
                        ctx.transmit(self.link, Packet::new(id, 0, 1250, ctx.now()));
                        ctx.schedule_timer(SimDuration::from_millis(50), 0);
                    }
                    Event::Timer { .. } => {
                        ctx.set_link_rate(self.link, Bandwidth::from_mbps(1.0));
                    }
                    _ => {}
                }
            }
        }
        sim.install_actor(a, S { link: l });
        sim.install_actor(b, probe(&log));
        sim.run_until(SimTime::from_secs(1));
        let times: Vec<SimTime> =
            log.borrow().iter().filter(|(_, e)| e.starts_with("pkt")).map(|(t, _)| *t).collect();
        // Stalled until t=50ms, then 10 ms serialization.
        assert_eq!(times, vec![SimTime::from_millis(60)]);
    }

    #[test]
    fn a_zero_cap_drop_tail_link_drops_every_offered_packet() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulator::new(1);
        let a = sim.reserve_actor();
        let b = sim.reserve_actor();
        let params = LinkParams::new(Bandwidth::from_mbps(10.0), SimDuration::ZERO)
            .with_queue(crate::queue::QueueConfig::DropTail { cap_packets: 0 });
        let l = sim.add_link(a, b, params);
        sim.install_actor(a, BurstSender { link: l, burst: 3 });
        sim.install_actor(b, probe(&log));
        sim.run_until(SimTime::from_secs(1));
        let st = sim.ctx().link_stats(l);
        assert_eq!((st.offered_packets, st.drops_queue), (3, 3));
        assert_eq!((st.tx_packets, st.delivered_packets), (0, 0));
        assert_eq!(sim.ctx().link_queue_len(l), (0, 0));
        assert!(log.borrow().iter().all(|(_, e)| !e.starts_with("pkt")));
    }

    #[test]
    fn a_zero_rate_link_holds_an_offered_packet_until_its_rate_is_set() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulator::new(1);
        let a = sim.reserve_actor();
        let b = sim.reserve_actor();
        let l = sim.add_link(a, b, LinkParams::new(Bandwidth::ZERO, SimDuration::ZERO));
        sim.install_actor(a, BurstSender { link: l, burst: 1 });
        sim.install_actor(b, probe(&log));
        sim.run_until(SimTime::from_millis(10));
        assert_eq!(sim.ctx().link_queue_len(l), (1, 1250));
        assert_eq!(sim.ctx().link_stats(l).tx_packets, 0);
        sim.ctx_mut().set_link_rate(l, Bandwidth::from_mbps(1.0));
        assert_eq!(sim.ctx().link_queue_len(l), (0, 0));
        sim.run_until(SimTime::from_secs(1));
        // Held until 10 ms, then 10 ms of serialization.
        assert_eq!(deliveries(&log), [(20_000, 0)]);
    }

    #[test]
    fn a_burst_on_an_idle_link_folds_only_its_first_packet() {
        use marnet_telemetry::TraceKind::*;
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulator::new(1);
        sim.enable_flight_recorder(1 << 10);
        let a = sim.reserve_actor();
        let b = sim.reserve_actor();
        let l = sim.add_link(a, b, LinkParams::new(Bandwidth::from_mbps(1.0), SimDuration::ZERO));
        sim.install_actor(a, BurstSender { link: l, burst: 3 });
        sim.install_actor(b, probe(&log));
        sim.run_until(SimTime::from_secs(1));
        let records: Vec<_> =
            sim.take_trace().iter().map(|e| (e.t / 1_000_000, e.kind, e.a)).collect();
        // The first packet finds the link idle and empty: one send-idle
        // record. The other two wait behind it: enqueue, then a dequeue at
        // the departure ahead of them, with no busy transition in between.
        assert_eq!(
            records,
            [
                (0, PacketSendIdle, 0),
                (0, PacketEnqueue, 1),
                (0, PacketEnqueue, 2),
                (10, PacketDequeue, 1),
                (10, PacketDeliver, 0),
                (20, PacketDequeue, 2),
                (20, PacketDeliver, 1),
                (30, LinkIdle, 0),
                (30, PacketDeliver, 2),
            ]
        );
    }

    #[test]
    fn messages_are_delivered_same_instant_in_order() {
        struct Sender {
            peer: ActorId,
        }
        impl Actor for Sender {
            fn on_event(&mut self, ctx: &mut SimCtx, ev: Event) {
                if matches!(ev, Event::Start) {
                    ctx.send_message(self.peer, Payload::new(1u32));
                    ctx.send_message(self.peer, Payload::new(2u32));
                }
            }
        }
        struct Receiver {
            got: Rc<RefCell<Vec<u32>>>,
        }
        impl Actor for Receiver {
            fn on_event(&mut self, _ctx: &mut SimCtx, ev: Event) {
                if let Event::Message { mut msg, .. } = ev {
                    self.got.borrow_mut().push(msg.take::<u32>().unwrap());
                }
            }
        }
        let got = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulator::new(1);
        let r = sim.reserve_actor();
        sim.add_actor(Sender { peer: r });
        sim.install_actor(r, Receiver { got: Rc::clone(&got) });
        sim.run_until(SimTime::from_millis(1));
        assert_eq!(*got.borrow(), vec![1, 2]);
    }

    #[test]
    fn lifo_tie_break_reverses_sources_but_keeps_program_order() {
        // Two independent senders emit same-instant messages to one
        // receiver. Perturbation is source-granular: LIFO reverses the
        // interleaving *across* the senders but must keep each sender's
        // own messages in program order (a same-source same-time pair is
        // a causal chain no real schedule could reorder).
        struct Sender {
            peer: ActorId,
            msgs: &'static [u32],
        }
        impl Actor for Sender {
            fn on_event(&mut self, ctx: &mut SimCtx, ev: Event) {
                if matches!(ev, Event::Start) {
                    for &m in self.msgs {
                        ctx.send_message(self.peer, Payload::new(m));
                    }
                }
            }
        }
        struct Receiver {
            got: Rc<RefCell<Vec<u32>>>,
        }
        impl Actor for Receiver {
            fn on_event(&mut self, _ctx: &mut SimCtx, ev: Event) {
                if let Event::Message { mut msg, .. } = ev {
                    self.got.borrow_mut().push(msg.take::<u32>().unwrap());
                }
            }
        }
        let build = |sim: &mut Simulator| {
            let got = Rc::new(RefCell::new(Vec::new()));
            let r = sim.reserve_actor();
            sim.install_actor(r, Receiver { got: Rc::clone(&got) });
            sim.add_actor(Sender { peer: r, msgs: &[1] });
            sim.add_actor(Sender { peer: r, msgs: &[2, 3] });
            got
        };
        let run = |policy: crate::config::TieBreak| {
            crate::config::with_ambient_tie_break(policy, || {
                let mut sim = Simulator::new(1);
                let got = build(&mut sim);
                sim.run_until(SimTime::from_millis(1));
                let out = got.borrow().clone();
                out
            })
        };
        use crate::config::TieBreak;
        assert_eq!(run(TieBreak::Fifo), vec![1, 2, 3]);
        // LIFO: the higher-indexed sender's burst runs first, internally
        // still in program order.
        assert_eq!(run(TieBreak::Lifo), vec![2, 3, 1]);
    }

    #[test]
    fn clock_advances_to_horizon_when_idle() {
        let mut sim = Simulator::new(1);
        sim.run_until(SimTime::from_secs(5));
        assert_eq!(sim.now(), SimTime::from_secs(5));
    }

    #[test]
    fn stop_halts_immediately() {
        struct Stopper;
        impl Actor for Stopper {
            fn on_event(&mut self, ctx: &mut SimCtx, ev: Event) {
                match ev {
                    Event::Start => {
                        ctx.schedule_timer(SimDuration::from_millis(1), 0);
                        ctx.schedule_timer(SimDuration::from_millis(2), 1);
                    }
                    Event::Timer { tag: 0 } => ctx.stop(),
                    Event::Timer { .. } => panic!("should have stopped"),
                    _ => {}
                }
            }
        }
        let mut sim = Simulator::new(1);
        sim.add_actor(Stopper);
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.now(), SimTime::from_millis(1));
    }

    /// Logs `(time in ms, what)` for every timer and message it receives.
    struct Recorder {
        log: Rc<RefCell<Vec<(u64, u64)>>>,
    }

    impl Recorder {
        fn note(&self, ctx: &SimCtx, what: u64) {
            self.log.borrow_mut().push((ctx.now().as_nanos() / 1_000_000, what));
        }
    }

    fn message_value(mut msg: Payload) -> u64 {
        msg.take::<u64>().unwrap()
    }

    #[test]
    fn stop_mid_instant_keeps_the_lane_for_the_next_run() {
        /// Arms a 1 ms timer and sends its peer three messages at start;
        /// notes the timer in the log it shares with the peer.
        struct Burst {
            peer: ActorId,
            rec: Recorder,
        }
        impl Actor for Burst {
            fn on_event(&mut self, ctx: &mut SimCtx, ev: Event) {
                match ev {
                    Event::Start => {
                        ctx.schedule_timer(SimDuration::from_millis(1), 9);
                        for m in 1..=3u64 {
                            ctx.send_message(self.peer, Payload::new(m));
                        }
                    }
                    Event::Timer { tag } => self.rec.note(ctx, tag),
                    _ => {}
                }
            }
        }
        struct StopOnFirst(Recorder);
        impl Actor for StopOnFirst {
            fn on_event(&mut self, ctx: &mut SimCtx, ev: Event) {
                match ev {
                    Event::Start => self.0.note(ctx, 100),
                    Event::Timer { tag } => self.0.note(ctx, tag),
                    Event::Message { msg, .. } => {
                        let m = message_value(msg);
                        self.0.note(ctx, m);
                        if m == 1 {
                            ctx.stop();
                        }
                    }
                    Event::Packet { .. } | Event::Handoff { .. } => {}
                }
            }
        }
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulator::new(1);
        let peer = sim.reserve_actor();
        sim.add_actor(Burst { peer, rec: Recorder { log: Rc::clone(&log) } });
        sim.install_actor(peer, StopOnFirst(Recorder { log: Rc::clone(&log) }));
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(*log.borrow(), vec![(0, 100), (0, 1)]);
        assert_eq!(sim.now(), SimTime::ZERO);
        // Two undelivered messages wait in the lane, the timer in the heap;
        // the diagnostics see all three.
        assert_eq!(sim.ctx().pending_events(), 3);
        assert_eq!(sim.ctx().pending_timers(), 1);
        assert!(format!("{:?}", sim.ctx()).contains("pending_events: 3"));
        let stats = sim.ctx().queue_stats();
        assert_eq!(
            (stats.lane_pushes, stats.heap_pushes),
            (5, 1),
            "2 starts + 3 messages; 1 timer"
        );
        // An actor installed between the runs starts at the same instant,
        // behind the messages already waiting for it.
        sim.add_actor(StopOnFirst(Recorder { log: Rc::clone(&log) }));
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(*log.borrow(), vec![(0, 100), (0, 1), (0, 2), (0, 3), (0, 100), (1, 9)]);
        assert_eq!(sim.ctx().pending_events(), 0);
    }

    /// The `(time in µs, packet id)` of every packet delivery in `log`.
    fn deliveries(log: &Rc<RefCell<Vec<(SimTime, String)>>>) -> Vec<(u64, u64)> {
        log.borrow()
            .iter()
            .filter_map(|(t, e)| {
                Some((t.as_nanos() / 1_000, e.strip_prefix("pkt:")?.parse().ok()?))
            })
            .collect()
    }

    #[test]
    fn jittered_arrivals_that_overtake_go_to_the_heap_and_deliver_in_key_order() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulator::new(5);
        let a = sim.reserve_actor();
        let b = sim.reserve_actor();
        // 1 ms per packet, up to 4 ms of jitter: arrivals overtake freely.
        let params = LinkParams::new(Bandwidth::from_mbps(10.0), SimDuration::from_millis(5))
            .with_jitter(Jitter::Uniform { max: SimDuration::from_millis(4) })
            .with_queue(QueueConfigLarge());
        let l = sim.add_link(a, b, params);
        sim.install_actor(a, BurstSender { link: l, burst: 200 });
        sim.install_actor(b, probe(&log));
        sim.run_to_completion();
        let got = deliveries(&log);
        assert_eq!(got.len(), 200);
        // Key order: by arrival time, equal times by departure (= id) order.
        assert!(got.windows(2).all(|w| w[0] < w[1]), "deliveries out of key order");
        assert!(got.windows(2).any(|w| w[0].1 > w[1].1), "the jitter never reordered anything");
        // 200 departures always join their line (one pending at a time);
        // of the 200 arrivals, those that sort below the line's tail are
        // heap pushes — and nothing else is.
        let stats = sim.ctx().queue_stats();
        assert_eq!(stats.lane_pushes, 2, "the two start events");
        assert_eq!(stats.line_pushes + stats.heap_pushes, 400);
        assert!(stats.line_pushes > 200 && stats.heap_pushes > 20, "{stats:?}");
    }

    #[test]
    fn zero_delay_arrivals_are_spawns_of_the_departure_instant() {
        // On a zero-delay link the arrival is scheduled for the departure's
        // own instant, i.e. `Spawn`: it goes through the line like any
        // other and runs after the instant's carries.
        struct TimerThenPacket {
            log: Rc<RefCell<Vec<(SimTime, String)>>>,
        }
        impl Actor for TimerThenPacket {
            fn on_event(&mut self, ctx: &mut SimCtx, ev: Event) {
                if matches!(ev, Event::Start) {
                    ctx.schedule_timer(SimDuration::from_millis(1), 7);
                }
                probe(&self.log).on_event(ctx, ev);
            }
        }
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulator::new(1);
        let a = sim.reserve_actor();
        let b = sim.reserve_actor();
        let l = sim.add_link(a, b, LinkParams::new(Bandwidth::from_mbps(10.0), SimDuration::ZERO));
        sim.install_actor(a, BurstSender { link: l, burst: 2 });
        sim.install_actor(b, TimerThenPacket { log: Rc::clone(&log) });
        sim.run_to_completion();
        let ms = SimTime::from_millis;
        let want = [(ms(0), "start"), (ms(1), "timer:7"), (ms(1), "pkt:0"), (ms(2), "pkt:1")];
        let got = log.borrow();
        assert_eq!(got.len(), want.len());
        assert!(got.iter().zip(want).all(|((t, e), (wt, we))| (*t, e.as_str()) == (wt, we)));
        let stats = sim.ctx().queue_stats();
        assert_eq!((stats.heap_pushes, stats.line_pushes, stats.lane_pushes), (1, 4, 2));
    }

    #[test]
    fn stop_mid_run_keeps_the_packets_in_flight_for_the_next_run() {
        struct StopOnFirstPacket {
            log: Rc<RefCell<Vec<(SimTime, String)>>>,
        }
        impl Actor for StopOnFirstPacket {
            fn on_event(&mut self, ctx: &mut SimCtx, ev: Event) {
                let first = matches!(&ev, Event::Packet { packet, .. } if packet.id == 0);
                probe(&self.log).on_event(ctx, ev);
                if first {
                    ctx.stop();
                }
            }
        }
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulator::new(1);
        let a = sim.reserve_actor();
        let b = sim.reserve_actor();
        // 1 ms per packet and 5 ms of delay: packet 0 arrives at 6 ms.
        let l = sim.add_link(
            a,
            b,
            LinkParams::new(Bandwidth::from_mbps(10.0), SimDuration::from_millis(5)),
        );
        sim.install_actor(a, BurstSender { link: l, burst: 8 });
        sim.install_actor(b, StopOnFirstPacket { log: Rc::clone(&log) });
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.now(), SimTime::from_millis(6));
        assert_eq!(deliveries(&log), vec![(6_000, 0)]);
        // Packets 1..=5 are in flight (5 left at 6 ms, ahead of the
        // arrival: `Drain` leads the instant) and 6 is being serialized:
        // five entries wait in the arrivals line and one in the
        // departures line, and the diagnostics count them.
        assert_eq!(sim.ctx().pending_events(), 6);
        assert_eq!(sim.ctx().pending_timers(), 0);
        assert!(format!("{:?}", sim.ctx()).contains("pending_events: 6"));
        let stats = sim.ctx().queue_stats();
        assert_eq!((stats.heap_pushes, stats.line_pushes), (0, 7 + 6));
        sim.run_until(SimTime::from_secs(1));
        let rest: Vec<(u64, u64)> = (1..8).map(|i| (6_000 + i * 1_000, i)).collect();
        assert_eq!(deliveries(&log)[1..], rest);
        assert_eq!(sim.ctx().pending_events(), 0);
        assert_eq!(sim.ctx().queue_stats().line_pushes, 16);
    }

    #[test]
    fn a_departure_at_the_current_instant_runs_ahead_of_the_lane() {
        struct Sender {
            link: LinkId,
            seen: Rc<RefCell<Vec<(u64, u64)>>>,
        }
        impl Actor for Sender {
            fn on_event(&mut self, ctx: &mut SimCtx, ev: Event) {
                let me = ctx.self_id();
                match ev {
                    Event::Start => {
                        ctx.send_message(me, Payload::new(1u64));
                        // A zero-size packet serializes instantly: its
                        // departure is a `Drain` entry for this very
                        // instant, pushed while the lane is non-empty.
                        let id = ctx.next_packet_id();
                        ctx.transmit(self.link, Packet::new(id, 0, 0, ctx.now()));
                        ctx.send_message(me, Payload::new(2u64));
                    }
                    Event::Message { msg, .. } => {
                        let sent = ctx.link_stats(self.link).tx_packets;
                        self.seen.borrow_mut().push((message_value(msg), sent));
                    }
                    Event::Packet { .. } => self.seen.borrow_mut().push((3, 1)),
                    Event::Timer { .. } | Event::Handoff { .. } => {}
                }
            }
        }
        let seen = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulator::new(1);
        let a = sim.reserve_actor();
        let link =
            sim.add_link(a, a, LinkParams::new(Bandwidth::from_mbps(1.0), SimDuration::ZERO));
        sim.install_actor(a, Sender { link, seen: Rc::clone(&seen) });
        sim.run_until(SimTime::from_secs(1));
        // The departure ran before either message (both saw the packet
        // sent); the arrival it spawned queued behind them.
        assert_eq!(*seen.borrow(), vec![(1, 1), (2, 1), (3, 1)]);
        assert_eq!(sim.now(), SimTime::from_secs(1));
        // Departure and arrival waited in the link's lines, not the heap.
        let stats = sim.ctx().queue_stats();
        assert_eq!((stats.heap_pushes, stats.line_pushes, stats.lane_pushes), (0, 2, 3));
    }

    #[test]
    fn zero_delay_timer_keeps_its_place_among_same_instant_messages() {
        struct Mixed(Recorder);
        impl Actor for Mixed {
            fn on_event(&mut self, ctx: &mut SimCtx, ev: Event) {
                let me = ctx.self_id();
                match ev {
                    Event::Start => {
                        ctx.send_message(me, Payload::new(1u64));
                        ctx.schedule_timer(SimDuration::ZERO, 2);
                        ctx.send_message(me, Payload::new(3u64));
                        let cancelled = ctx.schedule_timer(SimDuration::ZERO, 4);
                        ctx.send_message(me, Payload::new(5u64));
                        ctx.cancel_timer(cancelled);
                    }
                    Event::Timer { tag } => self.0.note(ctx, tag),
                    Event::Message { msg, .. } => self.0.note(ctx, message_value(msg)),
                    Event::Packet { .. } | Event::Handoff { .. } => {}
                }
            }
        }
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulator::new(1);
        sim.add_actor(Mixed(Recorder { log: Rc::clone(&log) }));
        sim.run_until(SimTime::from_secs(1));
        // Messages wait in the lane, the timers in the heap; the merged
        // order is still the order they were scheduled in.
        assert_eq!(*log.borrow(), vec![(0, 1), (0, 2), (0, 3), (0, 5)]);
    }

    #[test]
    fn hand_offs_keep_their_place_among_same_instant_messages_and_timers() {
        /// Notes `(ms, what)`: a message's value, a timer's tag, a
        /// hand-off's packet id (it must come from the actor itself).
        struct Mixed(Recorder);
        impl Actor for Mixed {
            fn on_event(&mut self, ctx: &mut SimCtx, ev: Event) {
                let me = ctx.self_id();
                let pkt = |ctx: &SimCtx, id| Packet::new(id, 0, 100, ctx.now());
                match ev {
                    Event::Start => {
                        ctx.send_message(me, Payload::new(1u64));
                        ctx.hand_off(me, pkt(ctx, 2));
                        ctx.schedule_timer(SimDuration::ZERO, 3);
                        ctx.hand_off(me, pkt(ctx, 4));
                        ctx.send_message(me, Payload::new(5u64));
                        ctx.schedule_timer(SimDuration::from_millis(1), 6);
                    }
                    Event::Timer { tag: 6 } => {
                        self.0.note(ctx, 6);
                        ctx.hand_off(me, pkt(ctx, 7));
                        ctx.schedule_timer(SimDuration::ZERO, 8);
                        ctx.send_message(me, Payload::new(9u64));
                    }
                    Event::Timer { tag } => self.0.note(ctx, tag),
                    Event::Message { msg, .. } => self.0.note(ctx, message_value(msg)),
                    Event::Handoff { from, packet } => {
                        assert_eq!(from, me);
                        self.0.note(ctx, packet.id);
                    }
                    Event::Packet { .. } => {}
                }
            }
        }
        use crate::config::{with_ambient_tie_break, TieBreak};
        for policy in [TieBreak::Fifo, TieBreak::Lifo, TieBreak::Seeded(0xbeef)] {
            let log = Rc::new(RefCell::new(Vec::new()));
            let mut sim = with_ambient_tie_break(policy, || Simulator::new(1));
            sim.add_actor(Mixed(Recorder { log: Rc::clone(&log) }));
            sim.run_until(SimTime::from_secs(1));
            // One source, so every policy keeps program order: hand-offs,
            // messages and zero-delay timers leave in the order scheduled.
            let want = [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 6), (1, 7), (1, 8), (1, 9)];
            assert_eq!(*log.borrow(), want, "under {policy:?}");
            if policy == TieBreak::Fifo {
                // Hand-offs take the same-instant lane, as messages do.
                let stats = sim.ctx().queue_stats();
                assert_eq!((stats.lane_pushes, stats.heap_pushes), (7, 3), "{stats:?}");
            }
        }
    }

    #[test]
    fn ticks_of_one_interval_share_one_line_and_skip_the_heap() {
        /// Ticks every `interval` until 100 ms.
        struct Metronome {
            interval: SimDuration,
        }
        impl Actor for Metronome {
            fn on_event(&mut self, ctx: &mut SimCtx, ev: Event) {
                if matches!(ev, Event::Start | Event::Timer { .. })
                    && ctx.now() < SimTime::from_millis(100)
                {
                    ctx.schedule_tick(self.interval, 0);
                }
            }
        }
        let mut sim = Simulator::new(1);
        let intervals = [5, 7, 10].map(SimDuration::from_millis);
        for i in 0..900 {
            sim.add_actor(Metronome { interval: intervals[i % 3] });
        }
        let events = sim.run_to_completion();
        assert_eq!(sim.ctx().tick_lines.len(), 3);
        // Each source arms a tick at every multiple of its interval below
        // 100 ms: 20, 15 and 10 of them.
        let ticks = 300 * (20 + 15 + 10);
        let stats = sim.ctx().queue_stats();
        assert_eq!((stats.heap_pushes, stats.line_pushes, stats.lane_pushes), (0, ticks, 900));
        assert_eq!(events, 900 + ticks);
    }

    /// Every delivery of a tick differential run: `(time, actor, event
    /// kind, timer tag or packet id)`.
    type Deliveries = Vec<(SimTime, usize, &'static str, u64)>;

    /// The tick differential's time grid: every delay is a multiple of it,
    /// so ticks keep landing on each other's nanosecond.
    const GRID: SimDuration = SimDuration::from_millis(1);

    /// A fixed-rate actor: its first timer after `offset` grid steps (zero
    /// is a zero-delay timer), then one every `interval` steps until it
    /// has armed `left`; on some timers it also transmits a packet, hands
    /// one off or sends a message to its peer. `ticks` picks
    /// [`SimCtx::schedule_tick`] or, for the reference run,
    /// [`SimCtx::schedule_timer`] — the one difference between the runs.
    struct Pacer {
        ticks: bool,
        offset: u64,
        interval: u64,
        left: u32,
        fired: u64,
        peer: ActorId,
        link: LinkId,
        log: Rc<RefCell<Deliveries>>,
    }

    impl Pacer {
        fn arm(&mut self, ctx: &mut SimCtx, steps: u64) {
            if self.left == 0 {
                return;
            }
            self.left -= 1;
            if self.ticks {
                ctx.schedule_tick(GRID * steps, self.fired);
            } else {
                ctx.schedule_timer(GRID * steps, self.fired);
            }
        }
    }

    impl Actor for Pacer {
        fn on_event(&mut self, ctx: &mut SimCtx, ev: Event) {
            let (kind, what) = match &ev {
                Event::Start => ("start", 0),
                Event::Timer { tag } => ("timer", *tag),
                Event::Message { .. } => ("message", 0),
                Event::Packet { packet, .. } => ("packet", packet.id),
                Event::Handoff { packet, .. } => ("handoff", packet.id),
            };
            self.log.borrow_mut().push((ctx.now(), ctx.self_id().index(), kind, what));
            match ev {
                Event::Start => self.arm(ctx, self.offset),
                Event::Timer { .. } => {
                    self.fired += 1;
                    let id = ctx.next_packet_id();
                    let pkt = Packet::new(id, 0, 1250, ctx.now());
                    match self.fired % 4 {
                        0 => ctx.transmit(self.link, pkt),
                        1 => ctx.hand_off(self.peer, pkt),
                        2 => ctx.send_message(self.peer, Payload::empty()),
                        _ => {}
                    }
                    self.arm(ctx, self.interval);
                }
                _ => {}
            }
        }
    }

    /// One pacer of a differential plan: `(offset, interval, timers)`.
    type PacerPlan = (u64, u64, u32);

    /// Runs `pacers` with their timers as ticks or as plain timers, the
    /// run split at `split` quarter grid steps; returns the delivery log,
    /// `next_seq` and the number of events processed.
    fn run_pacers(
        pacers: &[PacerPlan],
        split: u64,
        policy: crate::config::TieBreak,
        ticks: bool,
    ) -> (Deliveries, u64, u64) {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut sim = crate::config::with_ambient_tie_break(policy, || Simulator::new(7));
        let ids: Vec<ActorId> = pacers.iter().map(|_| sim.reserve_actor()).collect();
        // 1250 bytes at 10 Mb/s serialize in one grid step; one more of delay.
        let link = sim.add_link(ids[0], ids[0], LinkParams::new(Bandwidth::from_mbps(10.0), GRID));
        for (i, &(offset, interval, left)) in pacers.iter().enumerate() {
            let peer = ids[(i + 1) % ids.len()];
            let log = Rc::clone(&log);
            let pacer = Pacer { ticks, offset, interval, left, fired: 0, peer, link, log };
            sim.install_actor(ids[i], pacer);
        }
        let events = sim.run_until(SimTime::ZERO + SimDuration::from_micros(250) * split)
            + sim.run_until(SimTime::from_secs(1));
        let deliveries = log.borrow().clone();
        (deliveries, sim.ctx().next_seq(), events)
    }

    proptest::proptest! {
        /// Fixed-rate actors on a coarse grid, with zero-delay first
        /// timers, shared and distinct intervals, packets, hand-offs and
        /// messages between them: with their timers as ticks, every event
        /// is delivered exactly when and in the order plain timers deliver
        /// it, and draws the same `seq`.
        #[test]
        fn ticks_match_per_timer_scheduling_under_every_policy(
            pacers in proptest::collection::vec((0u64..4, 1u64..4, 0u32..40), 1..6),
            split in 0u64..160,
            seed in proptest::prelude::any::<u64>(),
        ) {
            use crate::config::TieBreak;
            for policy in [TieBreak::Fifo, TieBreak::Lifo, TieBreak::Seeded(seed)] {
                let timers = run_pacers(&pacers, split, policy, false);
                let ticks = run_pacers(&pacers, split, policy, true);
                proptest::prop_assert_eq!(&timers.0, &ticks.0, "deliveries under {:?}", policy);
                proptest::prop_assert_eq!((timers.1, timers.2), (ticks.1, ticks.2));
            }
        }
    }

    #[test]
    fn rearm_timer_moves_a_pending_timer_and_kills_the_old_handle() {
        struct Mover(Recorder);
        impl Actor for Mover {
            fn on_event(&mut self, ctx: &mut SimCtx, ev: Event) {
                match ev {
                    Event::Start => {
                        ctx.schedule_timer(SimDuration::from_millis(25), 0);
                        let h1 = ctx.schedule_timer(SimDuration::from_millis(30), 1);
                        let h2 = ctx.rearm_timer(h1, SimDuration::from_millis(10), 2);
                        // The superseded handle is dead: this must not
                        // cancel the moved timer.
                        ctx.cancel_timer(h1);
                        assert_eq!(ctx.pending_timers(), 2);
                        let h3 = ctx.rearm_timer(h2, SimDuration::from_millis(20), 3);
                        ctx.cancel_timer(h2);
                        assert_ne!(h3, h2);
                        assert_eq!(ctx.pending_timers(), 2);
                    }
                    Event::Timer { tag } => self.0.note(ctx, tag),
                    _ => {}
                }
            }
        }
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulator::new(1);
        sim.add_actor(Mover(Recorder { log: Rc::clone(&log) }));
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(*log.borrow(), vec![(20, 3), (25, 0)]);
        let stats = sim.ctx().queue_stats();
        assert_eq!((stats.rearms, stats.cancels, stats.heap_pushes), (2, 0, 2));
    }

    #[test]
    fn rearm_timer_on_a_fired_or_cancelled_handle_schedules_afresh() {
        struct Late {
            rec: Recorder,
            fired: Option<TimerHandle>,
            cancelled: Option<TimerHandle>,
        }
        impl Actor for Late {
            fn on_event(&mut self, ctx: &mut SimCtx, ev: Event) {
                match ev {
                    Event::Start => {
                        self.fired = Some(ctx.schedule_timer(SimDuration::from_millis(10), 1));
                        let h = ctx.schedule_timer(SimDuration::from_millis(20), 2);
                        ctx.cancel_timer(h);
                        self.cancelled = Some(h);
                    }
                    Event::Timer { tag: 1 } => {
                        self.rec.note(ctx, 1);
                        // Both handles are dead by now (and the fired one's
                        // queue slot is free for reuse).
                        let fired = self.fired.take().unwrap();
                        let cancelled = self.cancelled.take().unwrap();
                        ctx.rearm_timer(fired, SimDuration::from_millis(5), 3);
                        ctx.rearm_timer(cancelled, SimDuration::from_millis(7), 4);
                        // Still dead: neither touches the fresh timers.
                        ctx.cancel_timer(fired);
                        ctx.cancel_timer(cancelled);
                    }
                    Event::Timer { tag } => self.rec.note(ctx, tag),
                    _ => {}
                }
            }
        }
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulator::new(1);
        sim.add_actor(Late {
            rec: Recorder { log: Rc::clone(&log) },
            fired: None,
            cancelled: None,
        });
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(*log.borrow(), vec![(10, 1), (15, 3), (17, 4)]);
        let stats = sim.ctx().queue_stats();
        assert_eq!((stats.rearms, stats.cancels, stats.heap_pushes), (0, 1, 4));
    }

    #[test]
    fn deterministic_across_runs() {
        fn run() -> (u64, u64) {
            let mut sim = Simulator::new(99);
            let a = sim.reserve_actor();
            let b = sim.reserve_actor();
            let params = LinkParams::new(Bandwidth::from_mbps(5.0), SimDuration::from_millis(2))
                .with_loss(LossModel::GilbertElliott {
                    p_good_to_bad: 0.05,
                    p_bad_to_good: 0.3,
                    loss_in_bad: 0.5,
                })
                .with_jitter(Jitter::Gaussian { sigma: SimDuration::from_micros(500) });
            let l = sim.add_link(a, b, params);
            struct Flood {
                link: LinkId,
            }
            impl Actor for Flood {
                fn on_event(&mut self, ctx: &mut SimCtx, ev: Event) {
                    match ev {
                        Event::Start | Event::Timer { .. } => {
                            let id = ctx.next_packet_id();
                            ctx.transmit(self.link, Packet::new(id, 0, 1000, ctx.now()));
                            if ctx.now() < SimTime::from_millis(500) {
                                ctx.schedule_timer(SimDuration::from_micros(800), 0);
                            }
                        }
                        _ => {}
                    }
                }
            }
            struct Sink;
            impl Actor for Sink {
                fn on_event(&mut self, _: &mut SimCtx, _: Event) {}
            }
            sim.install_actor(a, Flood { link: l });
            sim.install_actor(b, Sink);
            sim.run_to_completion();
            let st = sim.ctx().link_stats(l);
            (st.delivered_packets, st.drops_loss)
        }
        assert_eq!(run(), run());
    }
}
