//! The fluid network actor: flow classes, processor-sharing service
//! accounting, and completion scheduling.
//!
//! [`FluidNetwork`] owns a capacitated fluid link graph and a set of
//! flow classes (same route, same per-flow cap). Between events nothing
//! happens except linear service growth, so the whole tier advances on
//! three event kinds only: a flow starts ([`StartFlow`] message), a flow
//! finishes (completion timer), or the allocation changes as a
//! consequence of either. Rates are recomputed with
//! [`crate::maxmin::max_min_rates`] *only* at those points.
//!
//! # Per-flow completions at class granularity
//!
//! Within a class every active flow always has the same rate, so the
//! cumulative per-flow service `S(t) = ∫ rate(t)/8 dt` (bytes) is shared
//! by all of them. A flow arriving at `t₀` with `size` bytes finishes
//! when `S(t) = S(t₀) + size`, independent of what other flows do in
//! between. Each class therefore keeps one monotone service counter and
//! its finish levels in order (a sorted run backed by a min-heap, see
//! `Completions`); a flow event costs `O(log n)` at worst — `O(1)` when
//! transfers are of one size, whose finish levels arrive sorted — instead
//! of `O(n)`, which is what makes 10⁵ concurrent clients tractable
//! (DESIGN §13 gives the argument in full).
//!
//! # Hybrid coupling
//!
//! A hybrid scenario keeps a packet-level *focus region* — the cell under
//! study, unchanged engine semantics — inside fluid background load. The
//! two tiers meet at *boundary links*: physical links whose capacity is
//! shared between focus-region packet traffic and fluid background flows.
//! The coupling is one-way and works through a *standing foreground
//! class* ([`FluidNetwork::couple_class`]): a class with one always-active
//! flow, capped at the boundary link's nominal capacity, competing max-min
//! fairly with the background classes on the fluid graph. Whatever rate the
//! allocator grants that class is the rate the packet tier may use, so
//! after every recompute the network sends it as a
//! [`marnet_sim::link::RateUpdate`] to the actor owning the link (the NIC),
//! which applies it with [`marnet_sim::engine::SimCtx::set_link_rate`].
//!
//! Because the foreground class is always active and capped, its
//! allocation is at least `min(cap, C/n)` of the shared capacity `C` —
//! never zero — so the packet tier keeps draining (a zero rate would park
//! queued packets forever). The reverse direction is deliberately
//! approximate: the packet tier's *offered* load is represented by the
//! standing class's cap rather than its instantaneous throughput, which
//! slightly overstates foreground pressure when the cell is idle. DESIGN
//! §13 quantifies the error; the cross-fidelity validation test bounds it.
//!
//! # Determinism
//!
//! State lives in `Vec`s ordered by creation; completions order
//! finish-level ties by flow id; completion timers are quantized by *ceiling* to whole
//! nanoseconds so a completion never fires before its service level is
//! reached. All arithmetic is sequential `f64`: same inputs, same bits.

use crate::maxmin::{max_min_rates_into, MaxMinClass, MaxMinScratch};
use marnet_sim::engine::{Actor, ActorId, Event, SimCtx, TimerHandle};
use marnet_sim::link::{Bandwidth, LinkId, RateUpdate};
use marnet_sim::packet::PayloadPool;
use marnet_sim::time::{SimDuration, SimTime};
use marnet_telemetry::{component, TraceEvent};
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::rc::Rc;

/// Identifies a link in one [`FluidNetwork`]'s fluid graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FluidLinkId(u32);

impl FluidLinkId {
    /// The link's index in creation order.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Identifies a flow class in one [`FluidNetwork`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClassId(u32);

impl ClassId {
    /// The class's index in creation order.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Message: start a finite flow of `bytes` in `class`.
///
/// Sent to the [`FluidNetwork`] actor by workload generators. When the
/// flow completes, a [`FlowDone`] is sent back to `notify` (if any).
#[derive(Debug, Clone, Copy)]
pub struct StartFlow {
    /// The class the flow joins (fixes its route and per-flow cap).
    pub class: ClassId,
    /// Caller-chosen flow id, echoed in traces and [`FlowDone`].
    pub flow: u64,
    /// Flow size in bytes.
    pub bytes: u64,
    /// Actor to notify on completion.
    pub notify: Option<ActorId>,
}

/// Message: a fluid flow finished.
#[derive(Debug, Clone, Copy)]
pub struct FlowDone {
    /// The class the flow belonged to.
    pub class: ClassId,
    /// The id given in [`StartFlow`].
    pub flow: u64,
    /// Flow size in bytes.
    pub bytes: u64,
    /// Start-to-finish duration.
    pub duration: SimDuration,
}

/// Aggregate statistics across all classes of a [`FluidNetwork`].
#[derive(Debug, Default)]
pub struct FluidStats {
    /// Finite flows started.
    pub started: u64,
    /// Finite flows completed.
    pub finished: u64,
    /// Max-min recomputes performed (one per flow start/finish batch).
    pub recomputes: u64,
}

/// One pending finite flow: finishes when its class's service counter
/// reaches `finish`. The order is (finish level, flow id) — the id
/// tiebreak keeps simultaneous completions deterministic.
#[derive(Debug)]
struct FlowEntry {
    finish: f64,
    flow: u64,
    bytes: u64,
    started: SimTime,
    notify: Option<ActorId>,
}

impl PartialEq for FlowEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl Eq for FlowEntry {}
impl PartialOrd for FlowEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for FlowEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.finish.total_cmp(&other.finish).then(self.flow.cmp(&other.flow))
    }
}

/// A class's pending flows, earliest (finish level, flow id) first.
///
/// The service counter only grows, so flows of one size get finish levels
/// in the order they start: sorting them through a heap is sorting a
/// sorted sequence. A flow whose key exceeds the tail of `run` is appended
/// to it; any other (a smaller transfer overtaking a larger one) goes to
/// the heap. `run` is therefore sorted, each structure yields its own
/// minimum, and the smaller of the two is the class's next completion.
#[derive(Debug, Default)]
struct Completions {
    run: VecDeque<FlowEntry>,
    heap: BinaryHeap<Reverse<FlowEntry>>,
}

impl Completions {
    fn len(&self) -> usize {
        self.run.len() + self.heap.len()
    }

    fn push(&mut self, entry: FlowEntry) {
        if self.run.back().is_none_or(|tail| entry > *tail) {
            self.run.push_back(entry);
        } else {
            self.heap.push(Reverse(entry));
        }
    }

    /// Whether the next completion is the run's front (else the heap's top).
    fn run_leads(&self) -> bool {
        match (self.run.front(), self.heap.peek()) {
            (Some(front), Some(Reverse(top))) => front < top,
            (front, _) => front.is_some(),
        }
    }

    fn peek(&self) -> Option<&FlowEntry> {
        if self.run_leads() {
            self.run.front()
        } else {
            self.heap.peek().map(|Reverse(top)| top)
        }
    }

    fn pop(&mut self) -> Option<FlowEntry> {
        if self.run_leads() {
            self.run.pop_front()
        } else {
            self.heap.pop().map(|Reverse(top)| top)
        }
    }
}

/// A class index as the 8-bit `aux` operand of a trace record. Classes
/// from 255 up all read as 255: saturated, never aliased onto a low class.
fn trace_class(ci: usize) -> u8 {
    u8::try_from(ci).unwrap_or(u8::MAX)
}

#[derive(Debug)]
struct ClassState {
    route: Vec<usize>,
    cap_bps: f64,
    /// Flows that are always active and never finish (the hybrid tier's
    /// standing foreground class, or steady background pressure).
    standing: u64,
    pending: Completions,
    /// Cumulative per-flow service in bytes (`S(t)` above).
    service: f64,
    /// Current per-flow rate in bits/s.
    rate_bps: f64,
    /// Last per-flow rate traced, quantized to whole bits/s.
    traced_bps: u64,
    /// The boundary link whose available rate tracks this class's
    /// allocation, and the actor that owns (and applies updates to) it.
    coupling: Option<(LinkId, ActorId)>,
    /// Last boundary rate pushed through the coupling, in bits/s.
    coupled_bps: u64,
}

impl MaxMinClass for ClassState {
    fn route(&self) -> &[usize] {
        &self.route
    }
    fn flows(&self) -> u64 {
        self.standing + self.pending.len() as u64
    }
    fn cap_bps(&self) -> f64 {
        self.cap_bps
    }
}

/// The fluid tier: an actor owning a fluid link graph and its classes.
///
/// Build the graph with [`FluidNetwork::add_link`] /
/// [`FluidNetwork::add_class`] before installing the actor; drive it
/// with [`StartFlow`] messages afterwards.
#[derive(Debug, Default)]
pub struct FluidNetwork {
    links: Vec<f64>,
    classes: Vec<ClassState>,
    last_update: SimTime,
    pending: Option<TimerHandle>,
    stats: Rc<RefCell<FluidStats>>,
    /// Reusable fill-loop buffers — the recompute path allocates nothing
    /// once these are warm.
    scratch: MaxMinScratch,
    rates: Vec<f64>,
    /// Recycled [`FlowDone`] payloads for completion notifications.
    done_pool: PayloadPool<FlowDone>,
    /// Recycled [`RateUpdate`] payloads for hybrid-coupling notifications.
    rate_pool: PayloadPool<RateUpdate>,
}

impl FluidNetwork {
    /// An empty fluid network.
    pub fn new() -> Self {
        FluidNetwork::default()
    }

    /// Adds a fluid link of the given capacity.
    pub fn add_link(&mut self, capacity: Bandwidth) -> FluidLinkId {
        let id = FluidLinkId(self.links.len() as u32);
        self.links.push(capacity.as_bps() as f64);
        id
    }

    /// Adds a flow class crossing `route`, optionally capped per flow
    /// (e.g. the client's access-link rate, so per-client access links
    /// need not exist in the fluid graph). Trace records carry the class
    /// index in 8 bits: classes from the 256th on are all recorded as 255.
    pub fn add_class(&mut self, route: &[FluidLinkId], per_flow_cap: Option<Bandwidth>) -> ClassId {
        let id = ClassId(self.classes.len() as u32);
        self.classes.push(ClassState {
            route: route.iter().map(|l| l.index()).collect(),
            cap_bps: per_flow_cap.map_or(f64::INFINITY, |b| b.as_bps() as f64),
            standing: 0,
            pending: Completions::default(),
            service: 0.0,
            rate_bps: 0.0,
            traced_bps: 0,
            coupling: None,
            coupled_bps: 0,
        });
        id
    }

    /// Adds `n` permanently active flows to a class. Standing flows
    /// consume bandwidth in the allocation but never finish — the hybrid
    /// tier's foreground class and constant background pressure both use
    /// this.
    pub fn add_standing_flows(&mut self, class: ClassId, n: u64) {
        self.classes[class.index()].standing += n;
    }

    /// Couples a class's aggregate allocation to the packet-level boundary
    /// `link` (see the module docs): every change is sent to `owner` as a
    /// [`RateUpdate`]. The class should hold at least one standing flow so
    /// the boundary rate never collapses to zero.
    pub fn couple_class(&mut self, class: ClassId, link: LinkId, owner: ActorId) {
        self.classes[class.index()].coupling = Some((link, owner));
    }

    /// Shared handle to the aggregate statistics.
    pub fn stats(&self) -> Rc<RefCell<FluidStats>> {
        Rc::clone(&self.stats)
    }

    /// Advances every class's service counter to `now`.
    fn advance(&mut self, now: SimTime) {
        let dt = now.saturating_since(self.last_update);
        if dt > SimDuration::ZERO {
            let secs = dt.as_secs_f64();
            for c in &mut self.classes {
                if c.rate_bps > 0.0 {
                    c.service += c.rate_bps / 8.0 * secs;
                }
            }
        }
        self.last_update = now;
    }

    /// Pops every flow whose finish level has been reached and emits its
    /// completion effects. Called from the timer path after [`Self::advance`].
    fn collect_completions(&mut self, ctx: &mut SimCtx) {
        let now = ctx.now();
        let comp = component::actor(ctx.self_id().index());
        for ci in 0..self.classes.len() {
            loop {
                let c = &mut self.classes[ci];
                // Slack: one nanosecond of service at the current rate
                // plus the relative rounding floor of the counter itself,
                // so a completion timer that lands a fraction of a ulp
                // short still completes its flow (never more than ~a byte
                // early, and deterministically so).
                let slack = c.rate_bps / 8e9 + c.service.abs() * 1e-12 + 1e-9;
                if !c.pending.peek().is_some_and(|next| next.finish <= c.service + slack) {
                    break;
                }
                let Some(entry) = c.pending.pop() else { break };
                let duration = now.saturating_since(entry.started);
                self.stats.borrow_mut().finished += 1;
                ctx.trace_with(|| {
                    TraceEvent::flow_finish(
                        now.as_nanos(),
                        comp,
                        trace_class(ci),
                        entry.flow,
                        duration.as_nanos(),
                    )
                });
                if let Some(target) = entry.notify {
                    let done = FlowDone {
                        class: ClassId(ci as u32),
                        flow: entry.flow,
                        bytes: entry.bytes,
                        duration,
                    };
                    let payload = self.done_pool.prepare(|| done, |d| *d = done);
                    ctx.send_message(target, payload);
                }
            }
        }
    }

    /// Recomputes the max-min allocation, pushes coupled boundary rates,
    /// and schedules the next completion timer. Service counters must be
    /// current (call [`Self::advance`] first).
    fn recompute(&mut self, ctx: &mut SimCtx) {
        self.stats.borrow_mut().recomputes += 1;
        // The classes implement `MaxMinClass` directly, so no per-call
        // demand staging vector exists; scratch and output buffers are
        // fields and this call allocates nothing once they are warm.
        max_min_rates_into(&self.links, &self.classes, &mut self.scratch, &mut self.rates);

        let now = ctx.now();
        let comp = component::actor(ctx.self_id().index());
        for ci in 0..self.classes.len() {
            let rate = self.rates[ci];
            let c = &mut self.classes[ci];
            c.rate_bps = rate;
            let active = c.standing + c.pending.len() as u64;
            let quantized = rate.round() as u64;
            if ctx.trace_enabled() && quantized != c.traced_bps {
                c.traced_bps = quantized;
                ctx.trace_with(|| {
                    TraceEvent::flow_rate(now.as_nanos(), comp, trace_class(ci), active, quantized)
                });
            }
            if let Some((link, owner)) = c.coupling {
                // The boundary link gets the class's aggregate
                // allocation, floored at 1 bit/s so the packet tier's
                // queue never stalls outright.
                let boundary = ((rate * active as f64).round() as u64).max(1);
                if boundary != c.coupled_bps {
                    c.coupled_bps = boundary;
                    let update = RateUpdate { link, rate: Bandwidth::from_bps(boundary) };
                    let payload = self.rate_pool.prepare(|| update, |u| *u = update);
                    ctx.send_message(owner, payload);
                }
            }
        }

        // One pending timer for the earliest completion across classes.
        let mut earliest: Option<SimDuration> = None;
        for c in &self.classes {
            if c.rate_bps <= 0.0 {
                continue;
            }
            if let Some(next) = c.pending.peek() {
                let residual_bytes = (next.finish - c.service).max(0.0);
                let nanos = (residual_bytes * 8.0 / c.rate_bps * 1e9).ceil();
                // Ceiling to whole nanoseconds guarantees the service
                // counter has passed the finish level when the timer
                // fires; never schedule at zero delay to keep the event
                // loop monotone.
                let d = SimDuration::from_nanos((nanos as u64).max(1));
                earliest = Some(earliest.map_or(d, |e| e.min(d)));
            }
        }
        // Every flow start and finish lands here, so the timer is moved
        // where it sits in the event queue rather than cancelled and
        // scheduled afresh.
        self.pending = match (self.pending.take(), earliest) {
            (Some(handle), Some(delay)) => Some(ctx.rearm_timer(handle, delay, 0)),
            (None, Some(delay)) => Some(ctx.schedule_timer(delay, 0)),
            (Some(handle), None) => {
                ctx.cancel_timer(handle);
                None
            }
            (None, None) => None,
        };
    }
}

impl Actor for FluidNetwork {
    fn on_event(&mut self, ctx: &mut SimCtx, ev: Event) {
        match ev {
            Event::Start => {
                self.last_update = ctx.now();
                self.recompute(ctx);
            }
            Event::Message { msg, .. } => {
                // Copy out by reference: `StartFlow` is `Copy` and the
                // payload may be pooled (shared), where `take` would
                // deep-clone through a fresh box.
                if let Some(start) = msg.map_ref(|s: &StartFlow| *s) {
                    let now = ctx.now();
                    self.advance(now);
                    let c = &mut self.classes[start.class.index()];
                    let finish = c.service + start.bytes as f64;
                    c.pending.push(FlowEntry {
                        finish,
                        flow: start.flow,
                        bytes: start.bytes,
                        started: now,
                        notify: start.notify,
                    });
                    self.stats.borrow_mut().started += 1;
                    let comp = component::actor(ctx.self_id().index());
                    ctx.trace_with(|| {
                        TraceEvent::flow_start(
                            now.as_nanos(),
                            comp,
                            trace_class(start.class.index()),
                            start.flow,
                            start.bytes,
                        )
                    });
                    self.recompute(ctx);
                }
            }
            Event::Timer { .. } => {
                self.pending = None;
                self.advance(ctx.now());
                self.collect_completions(ctx);
                self.recompute(ctx);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marnet_sim::engine::Simulator;
    use marnet_sim::packet::Payload;

    /// Starts `flows` of `bytes` each at t=0 and records completions.
    struct Driver {
        net: ActorId,
        class: ClassId,
        flows: u64,
        bytes: u64,
        done: Rc<RefCell<Vec<(u64, SimDuration)>>>,
    }

    impl Actor for Driver {
        fn on_event(&mut self, ctx: &mut SimCtx, ev: Event) {
            match ev {
                Event::Start => {
                    for flow in 0..self.flows {
                        let msg = StartFlow {
                            class: self.class,
                            flow,
                            bytes: self.bytes,
                            notify: Some(ctx.self_id()),
                        };
                        ctx.send_message(self.net, Payload::new(msg));
                    }
                }
                Event::Message { mut msg, .. } => {
                    if let Some(done) = msg.take::<FlowDone>() {
                        self.done.borrow_mut().push((done.flow, done.duration));
                    }
                }
                _ => {}
            }
        }
    }

    #[test]
    fn equal_flows_finish_together_at_fair_share() {
        let mut sim = Simulator::new(7);
        let net_id = sim.reserve_actor();
        let drv_id = sim.reserve_actor();
        let mut net = FluidNetwork::new();
        let l = net.add_link(Bandwidth::from_mbps(8.0));
        let class = net.add_class(&[l], None);
        let stats = net.stats();
        sim.install_actor(net_id, net);
        let done = Rc::new(RefCell::new(Vec::new()));
        sim.install_actor(
            drv_id,
            Driver { net: net_id, class, flows: 4, bytes: 1_000_000, done: Rc::clone(&done) },
        );
        sim.run_to_completion();

        // 4 flows × 1 MB over 8 Mb/s: processor sharing finishes all four
        // together at 4 s.
        let done = done.borrow();
        assert_eq!(done.len(), 4);
        for (_, d) in done.iter() {
            assert!((d.as_secs_f64() - 4.0).abs() < 1e-6, "duration {d:?}");
        }
        assert_eq!(stats.borrow().finished, 4);
    }

    #[test]
    fn standing_flow_halves_the_rate() {
        let mut sim = Simulator::new(7);
        let net_id = sim.reserve_actor();
        let drv_id = sim.reserve_actor();
        let mut net = FluidNetwork::new();
        let l = net.add_link(Bandwidth::from_mbps(8.0));
        let class = net.add_class(&[l], None);
        net.add_standing_flows(class, 1);
        sim.install_actor(net_id, net);
        let done = Rc::new(RefCell::new(Vec::new()));
        sim.install_actor(
            drv_id,
            Driver { net: net_id, class, flows: 1, bytes: 1_000_000, done: Rc::clone(&done) },
        );
        sim.run_to_completion();

        // The finite flow shares with one standing flow: 4 Mb/s → 2 s.
        let done = done.borrow();
        assert_eq!(done.len(), 1);
        assert!((done[0].1.as_secs_f64() - 2.0).abs() < 1e-6, "duration {:?}", done[0].1);
    }

    #[test]
    fn completions_replay_bit_identically() {
        let run = || {
            let mut sim = Simulator::new(21);
            let net_id = sim.reserve_actor();
            let drv_id = sim.reserve_actor();
            let mut net = FluidNetwork::new();
            let l = net.add_link(Bandwidth::from_mbps(5.5));
            let class = net.add_class(&[l], Some(Bandwidth::from_mbps(3.3)));
            sim.install_actor(net_id, net);
            let done = Rc::new(RefCell::new(Vec::new()));
            sim.install_actor(
                drv_id,
                Driver { net: net_id, class, flows: 9, bytes: 777_777, done: Rc::clone(&done) },
            );
            sim.run_to_completion();
            let v = done.borrow().clone();
            v
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn classes_past_the_trace_operand_saturate_instead_of_aliasing() {
        let mut sim = Simulator::new(3);
        sim.enable_flight_recorder(1 << 10);
        let net_id = sim.reserve_actor();
        let drv_id = sim.reserve_actor();
        let mut net = FluidNetwork::new();
        let l = net.add_link(Bandwidth::from_mbps(8.0));
        let classes: Vec<ClassId> = (0..300).map(|_| net.add_class(&[l], None)).collect();
        sim.install_actor(net_id, net);
        let done = Rc::new(RefCell::new(Vec::new()));
        sim.install_actor(
            drv_id,
            Driver { net: net_id, class: classes[299], flows: 1, bytes: 1_000, done },
        );
        sim.run_to_completion();
        // 299 truncated to eight bits is 43: the flow would read as class
        // 43's in every record of it.
        let trace = sim.take_trace();
        let aux_of = |kind| trace.iter().find(|e| e.kind == kind).map(|e| e.aux);
        assert_eq!(aux_of(marnet_telemetry::TraceKind::FlowStart), Some(u8::MAX));
        assert_eq!(aux_of(marnet_telemetry::TraceKind::FlowFinish), Some(u8::MAX));
        assert_eq!(aux_of(marnet_telemetry::TraceKind::FlowRate), Some(u8::MAX));
    }

    fn entry(finish: f64, flow: u64) -> FlowEntry {
        FlowEntry { finish, flow, bytes: 0, started: SimTime::ZERO, notify: None }
    }

    proptest::proptest! {
        /// Random pushes and pops on a class's completions against one
        /// plain binary heap: finish levels on a coarse grid (equal levels
        /// with different flow ids, ascending stretches that extend the
        /// run, descending ones that take the heap) leave in the same
        /// (finish level, flow id) order, and a flow joins the run iff it
        /// sorts behind the run's tail.
        #[test]
        fn completions_match_a_plain_binary_heap(
            ops in proptest::collection::vec((0u8..3, 0u32..12, 0u64..6), 1..200),
        ) {
            let key = |e: &FlowEntry| (e.finish.to_bits(), e.flow);
            let mut ours = Completions::default();
            let mut plain: BinaryHeap<Reverse<FlowEntry>> = BinaryHeap::new();
            for (kind, level, flow) in ops {
                if kind == 0 {
                    assert_eq!(ours.pop().as_ref().map(key), plain.pop().map(|Reverse(e)| key(&e)));
                } else {
                    let finish = f64::from(level) * 1e3;
                    let joins = ours.run.back().is_none_or(|tail| entry(finish, flow) > *tail);
                    let run_before = ours.run.len();
                    ours.push(entry(finish, flow));
                    plain.push(Reverse(entry(finish, flow)));
                    assert_eq!(ours.run.len() - run_before, usize::from(joins));
                }
                assert_eq!(ours.len(), plain.len());
                assert_eq!(ours.peek().map(key), plain.peek().map(|Reverse(e)| key(e)));
                assert!(ours.run.iter().zip(ours.run.iter().skip(1)).all(|(a, b)| a < b));
            }
        }
    }
}
