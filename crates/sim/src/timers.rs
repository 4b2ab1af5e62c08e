//! Timer banks: many timers of one actor behind one event-queue entry.
//!
//! An actor that multiplexes a population — one think timer per client,
//! 10⁵ clients — pays for every [`SimCtx::schedule_timer`] with a slab
//! slot sized for the largest event (a packet) plus a heap key, and makes
//! every other actor's timer sift through a heap that deep. A
//! [`TimerBank`] keeps such timers in a private hashed timing wheel
//! (Varghese & Lauck) and shows the event queue only its earliest one,
//! under exactly the key that timer would have had on its own:
//! [`TimerBank::schedule`] draws the timer's `seq` and fixes its phase at
//! the moment `schedule_timer` would have, so the simulation's `seq`
//! stream, every queue key and hence the pop order are those of per-timer
//! scheduling — under every [`crate::config::TieBreak`], since all of an
//! actor's entries share one tie-break `ord`.
//!
//! The wheel has 1 024 slots of 2²⁴ ns (≈ 16.8 ms, a ≈ 17.2 s
//! horizon). A timer waits as a 24-byte node in its slot's list,
//! unsorted; the earliest non-empty slot is drained into a sorted *run*
//! that the bank pops from, so a think timer costs O(1) to park and a
//! share of one slot's sort to fire, not a sift through a 10⁵-deep heap.
//! The window starts at the slot of the last fired timer — never ahead of
//! now, so no two revolutions share a slot; a timer past its end waits in
//! a small overflow heap until the window reaches it.

use crate::engine::{SimCtx, TimerHandle};
use crate::eventq::Phase;
use crate::time::{SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Bit 63 of [`Parked::pseq`]: set for a `Spawn`-phase (zero-delay) timer,
/// clear for a `Carry` one — the only two phases a timer can have. `seq`
/// counts events from zero and never gets there, so `(at, pseq)` orders as
/// the queue's `(time, phase, seq)` does.
const SPAWN_BIT: u64 = 1 << 63;

/// A wheel slot is 2²⁴ ns ≈ 16.8 ms wide.
const SLOT_BITS: u32 = 24;

/// Slots on the wheel: 1 024 × 16.8 ms ≈ 17.2 s of horizon, past the
/// 2 s think mean of the city-scale population by a factor that leaves
/// about one timer in 5 000 to the overflow heap.
const SLOTS: usize = 1024;

/// End of a slot's list and of the free list.
const NIL: u32 = u32::MAX;

/// The wheel slot `at` falls in, counted from time zero.
fn slot_of(at: SimTime) -> u64 {
    at.as_nanos() >> SLOT_BITS
}

/// One parked timer. Field order is the derived ordering: the queue key
/// first, `tag` last (never reached — `seq` is unique).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Parked {
    at: SimTime,
    pseq: u64,
    tag: u64,
}

impl Parked {
    /// The `(time, seq, phase)` key [`SimCtx::timer_key`] drew for it.
    fn key(&self) -> (SimTime, u64, Phase) {
        let phase = if self.pseq & SPAWN_BIT == 0 { Phase::Carry } else { Phase::Spawn };
        (self.at, self.pseq & !SPAWN_BIT, phase)
    }
}

/// A timer in a slot's list: its slot stands for the high bits of `at`.
#[derive(Debug, Clone, Copy)]
struct Node {
    /// `at` within its slot: the low [`SLOT_BITS`] bits.
    off: u32,
    /// The next node of the same slot, or of the free list.
    next: u32,
    pseq: u64,
    tag: u64,
}

/// A set of pending timers of one actor that occupies a single entry of
/// the event queue (see the module docs).
///
/// The owning actor calls [`TimerBank::schedule`] where it would have
/// called [`SimCtx::schedule_timer`] and [`TimerBank::fired`] first thing
/// when one of the bank's timers arrives as [`crate::engine::Event::Timer`]
/// (which carries that timer's tag, as always). Both must run inside the
/// owner's own handlers; an owner that also schedules plain timers, or
/// keeps several banks, tells them apart by tag. Banked timers cannot be
/// cancelled individually.
#[derive(Debug)]
pub struct TimerBank {
    /// The nodes of every slot's list; free nodes are threaded through
    /// `next` from `free`.
    slab: Vec<Node>,
    free: u32,
    /// The first node of each slot's list.
    heads: Box<[u32; SLOTS]>,
    /// Timers in the slots' lists.
    wheeled: usize,
    /// Every timer of slot `run_slot`, sorted descending: the earliest is
    /// popped from the end. Empty only while the wheel is.
    run: Vec<Parked>,
    /// The earliest slot holding a timer, while the run is not empty.
    run_slot: u64,
    /// The slot of the last fired timer: the wheel holds the slots
    /// `base..base + SLOTS`, every one at most once.
    base: u64,
    /// Timers at or past `base + SLOTS`.
    overflow: BinaryHeap<Reverse<Parked>>,
    /// The event-queue entry standing for the earliest parked timer.
    armed: Option<TimerHandle>,
}

impl Default for TimerBank {
    fn default() -> Self {
        TimerBank::new()
    }
}

impl TimerBank {
    /// An empty bank.
    pub fn new() -> Self {
        TimerBank {
            slab: Vec::new(),
            free: NIL,
            heads: Box::new([NIL; SLOTS]),
            wheeled: 0,
            run: Vec::new(),
            run_slot: 0,
            base: 0,
            overflow: BinaryHeap::new(),
            armed: None,
        }
    }

    /// Makes room for `additional` more timers, so a population of known
    /// size is parked without growing the wheel step by step.
    pub fn reserve(&mut self, additional: usize) {
        self.slab.reserve_exact(additional);
    }

    /// Schedules an [`crate::engine::Event::Timer`] with `tag` for the
    /// current actor after `delay` — [`SimCtx::schedule_timer`], parked in
    /// the bank.
    pub fn schedule(&mut self, ctx: &mut SimCtx, delay: SimDuration, tag: u64) {
        let (at, seq, phase) = ctx.timer_key(delay);
        let pseq = if phase == Phase::Spawn { seq | SPAWN_BIT } else { seq };
        let timer = Parked { at, pseq, tag };
        let leads = self.first().is_none_or(|first| timer < first);
        self.park(timer);
        if leads {
            self.arm(ctx);
        }
    }

    /// Retires the bank's earliest timer — the one that just fired — and
    /// shows the event queue the next.
    pub fn fired(&mut self, ctx: &mut SimCtx) {
        self.armed = None;
        // With the wheel empty the earliest timer is the overflow's.
        let fired = self.run.pop().or_else(|| self.overflow.pop().map(|Reverse(t)| t));
        if let Some(timer) = fired {
            self.advance(slot_of(timer.at));
        }
        self.arm(ctx);
    }

    /// The earliest parked timer.
    fn first(&self) -> Option<Parked> {
        self.run.last().copied().or_else(|| self.overflow.peek().map(|&Reverse(t)| t))
    }

    /// Puts the earliest parked timer in the event queue, moving the
    /// bank's entry if it is pending (a new timer took the lead).
    fn arm(&mut self, ctx: &mut SimCtx) {
        if let Some(first) = self.first() {
            self.armed = Some(ctx.arm_timer_at(self.armed.take(), first.key(), first.tag));
        }
    }

    /// Parks a newly scheduled timer.
    fn park(&mut self, timer: Parked) {
        let slot = slot_of(timer.at);
        if slot >= self.base + SLOTS as u64 {
            self.overflow.push(Reverse(timer));
        } else if self.run.is_empty() || slot < self.run_slot {
            // Earlier than the run: the run goes back to its slot's list
            // and the timer starts a new one (the slot held no other).
            let run_slot = self.run_slot;
            while let Some(t) = self.run.pop() {
                self.link(run_slot, t);
            }
            self.run_slot = slot;
            self.run.push(timer);
        } else if slot == self.run_slot {
            let i = self.run.partition_point(|t| *t > timer);
            self.run.insert(i, timer);
        } else {
            self.link(slot, timer);
        }
    }

    /// Adds `timer` to the list of `slot`, which is on the wheel.
    fn link(&mut self, slot: u64, timer: Parked) {
        let head = &mut self.heads[slot as usize % SLOTS];
        let node = Node {
            off: (timer.at.as_nanos() & ((1 << SLOT_BITS) - 1)) as u32,
            next: *head,
            pseq: timer.pseq,
            tag: timer.tag,
        };
        *head = if self.free == NIL {
            let i = u32::try_from(self.slab.len()).ok().filter(|&i| i != NIL);
            self.slab.push(node);
            i.expect("a bank wheels fewer than 2^32 - 1 timers at once")
        } else {
            let i = self.free;
            let free = &mut self.slab[i as usize];
            self.free = free.next;
            *free = node;
            i
        };
        self.wheeled += 1;
    }

    /// Moves the window up to `slot`, that of a timer that just fired:
    /// overflow timers now inside it join the wheel, and an empty run is
    /// refilled from the earliest non-empty slot.
    fn advance(&mut self, slot: u64) {
        if slot != self.base {
            self.base = slot;
            while let Some(&Reverse(timer)) = self.overflow.peek() {
                let later = slot_of(timer.at);
                if later >= self.base + SLOTS as u64 {
                    break;
                }
                self.overflow.pop();
                self.link(later, timer);
            }
        }
        if !self.run.is_empty() || self.wheeled == 0 {
            return;
        }
        let heads = &mut self.heads;
        let Some(slot) =
            (self.base..self.base + SLOTS as u64).find(|&s| heads[s as usize % SLOTS] != NIL)
        else {
            return;
        };
        let mut i = std::mem::replace(&mut heads[slot as usize % SLOTS], NIL);
        while i != NIL {
            let node = &mut self.slab[i as usize];
            self.run.push(Parked {
                at: SimTime::from_nanos(slot << SLOT_BITS | u64::from(node.off)),
                pseq: node.pseq,
                tag: node.tag,
            });
            let next = std::mem::replace(&mut node.next, self.free);
            self.free = i;
            self.wheeled -= 1;
            i = next;
        }
        self.run.sort_unstable_by(|a, b| b.cmp(a));
        self.run_slot = slot;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{with_ambient_tie_break, TieBreak};
    use crate::engine::{Actor, ActorId, Event, Simulator};
    use crate::link::{Bandwidth, LinkId, LinkParams};
    use crate::packet::{Packet, Payload};
    use proptest::prelude::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// The time scale of a run: every delay is a multiple of `grid`, so
    /// timers keep landing on each other's nanosecond, and the run lasts
    /// `horizon` grid steps.
    #[derive(Debug, Clone, Copy)]
    struct Scale {
        grid: SimDuration,
        horizon: u64,
    }

    /// Many timers to a slot: the whole run spans three slots.
    const FINE: Scale = Scale { grid: SimDuration::from_millis(1), horizon: 40 };

    /// About 42 slots to a step: 25 steps reach past the wheel's horizon
    /// and the run goes round the wheel about 2.4 times.
    const COARSE: Scale = Scale { grid: SimDuration::from_millis(700), horizon: 60 };

    /// One slot to a step, so delays count slots from a slot's start.
    const SLOT: Scale = Scale { grid: SimDuration::from_nanos(1 << SLOT_BITS), horizon: 1030 };

    /// Every delivery: `(time, actor, event kind, timer tag or packet id)`.
    type Deliveries = Vec<(SimTime, usize, &'static str, u64)>;
    type Log = Rc<RefCell<Deliveries>>;

    /// A bank's layout: `(run length, run slot, base, wheeled, overflow)`.
    type Shape = (usize, u64, u64, usize, usize);

    /// Every bank call of a population: whether it was `fired`, and the
    /// bank's layout before and after.
    type Calls = Rc<RefCell<Vec<(bool, Shape, Shape)>>>;

    fn shape(bank: &TimerBank) -> Shape {
        (bank.run.len(), bank.run_slot, bank.base, bank.wheeled, bank.overflow.len())
    }

    fn note(log: &Log, ctx: &SimCtx, ev: &Event) {
        let (kind, tag) = match ev {
            Event::Start => ("start", 0),
            Event::Timer { tag } => ("timer", *tag),
            Event::Message { .. } => ("message", 0),
            Event::Packet { packet, .. } => ("packet", packet.id),
            Event::Handoff { packet, .. } => ("handoff", packet.id),
        };
        log.borrow_mut().push((ctx.now(), ctx.self_id().index(), kind, tag));
    }

    /// What a [`Population`] does on its `k`-th event: schedule a timer per
    /// delay (in grid steps; zero is a zero-delay timer) and perhaps
    /// message its peer within the instant.
    #[derive(Debug, Clone)]
    struct Step {
        delays: Vec<u64>,
        message: bool,
    }

    /// Schedules `initial` timers at start and then follows `script`
    /// cyclically, one step per event of any kind — so timers are scheduled
    /// after `fired` in the timer handler, and from message and packet
    /// handlers while the bank is empty.
    struct Population {
        /// Where the timers wait, if not in the event queue: the one
        /// difference between the two simulators.
        bank: Option<TimerBank>,
        grid: SimDuration,
        initial: Vec<u64>,
        script: Vec<Step>,
        handled: usize,
        next_tag: u64,
        /// Timers and messages left to spend: bounds zero-delay chains.
        budget: u32,
        peer: ActorId,
        log: Log,
        calls: Calls,
    }

    impl Population {
        fn schedule(&mut self, ctx: &mut SimCtx, steps: u64) {
            if self.budget == 0 {
                return;
            }
            self.budget -= 1;
            let tag = self.next_tag;
            self.next_tag += 1;
            match &mut self.bank {
                Some(bank) => {
                    let before = shape(bank);
                    bank.schedule(ctx, self.grid * steps, tag);
                    self.calls.borrow_mut().push((false, before, shape(bank)));
                }
                None => {
                    ctx.schedule_timer(self.grid * steps, tag);
                }
            }
        }
    }

    impl Actor for Population {
        fn on_event(&mut self, ctx: &mut SimCtx, ev: Event) {
            if let (Event::Timer { .. }, Some(bank)) = (&ev, &mut self.bank) {
                let before = shape(bank);
                bank.fired(ctx);
                self.calls.borrow_mut().push((true, before, shape(bank)));
            }
            note(&self.log, ctx, &ev);
            if matches!(ev, Event::Start) {
                for steps in std::mem::take(&mut self.initial) {
                    self.schedule(ctx, steps);
                }
            }
            let step = self.script[self.handled % self.script.len()].clone();
            self.handled += 1;
            for steps in step.delays {
                self.schedule(ctx, steps);
            }
            if step.message && self.budget > 0 {
                self.budget -= 1;
                ctx.send_message(self.peer, Payload::empty());
            }
        }
    }

    /// A plain periodic timer on the populations' grid that also sends a
    /// packet (one grid step and a millisecond to arrive) and a
    /// same-instant message their way on some ticks.
    struct Ticker {
        scale: Scale,
        link: LinkId,
        peer: ActorId,
        ticks: u64,
        log: Log,
    }

    impl Actor for Ticker {
        fn on_event(&mut self, ctx: &mut SimCtx, ev: Event) {
            note(&self.log, ctx, &ev);
            if matches!(ev, Event::Timer { .. }) {
                self.ticks += 1;
                if self.ticks.is_multiple_of(2) {
                    let id = ctx.next_packet_id();
                    ctx.transmit(self.link, Packet::new(id, 0, 1250, ctx.now()));
                }
                if self.ticks.is_multiple_of(3) {
                    ctx.send_message(self.peer, Payload::empty());
                }
            }
            if matches!(ev, Event::Start | Event::Timer { .. })
                && self.ticks < self.scale.horizon / 2
            {
                ctx.schedule_timer(self.scale.grid * 2, self.ticks);
            }
        }
    }

    /// Everything a run is built from except the timer mode and policy.
    #[derive(Debug, Clone)]
    struct Plan {
        scale: Scale,
        initial: [Vec<u64>; 2],
        scripts: [Vec<Step>; 2],
        /// Where `run_until` is split in two, in quarter grid steps.
        split: u64,
    }

    /// What a run produced.
    struct Run {
        /// The delivery log, `next_seq` and the number of events processed.
        seen: (Deliveries, u64, u64),
        /// The queue's cancellable entries at the split.
        pending: usize,
        /// Each population's bank calls (none without banks).
        calls: [Vec<(bool, Shape, Shape)>; 2],
    }

    fn run(plan: &Plan, policy: TieBreak, banked: bool) -> Run {
        let Scale { grid, horizon } = plan.scale;
        let log: Log = Rc::default();
        let calls: [Calls; 2] = Default::default();
        // The queue takes the policy when it is built.
        let mut sim = with_ambient_tie_break(policy, || Simulator::new(7));
        let ids = [sim.reserve_actor(), sim.reserve_actor()];
        let ticker = sim.reserve_actor();
        // 1250 bytes at 10 Mb/s serialize in a millisecond.
        let link = sim.add_link(ticker, ids[0], LinkParams::new(Bandwidth::from_mbps(10.0), grid));
        for i in 0..2 {
            let population = Population {
                bank: banked.then(TimerBank::new),
                grid,
                initial: plan.initial[i].clone(),
                script: plan.scripts[i].clone(),
                handled: 0,
                next_tag: 1_000 * (i as u64 + 1),
                budget: 150,
                peer: ids[1 - i],
                log: Rc::clone(&log),
                calls: Rc::clone(&calls[i]),
            };
            sim.install_actor(ids[i], population);
        }
        let ticker_actor =
            Ticker { scale: plan.scale, link, peer: ids[1], ticks: 0, log: Rc::clone(&log) };
        sim.install_actor(ticker, ticker_actor);
        let events = sim.run_until(SimTime::ZERO + grid / 4 * plan.split);
        let pending = sim.ctx().pending_timers();
        let events = events + sim.run_until(SimTime::ZERO + grid * horizon);
        let deliveries = log.borrow().clone();
        Run {
            seen: (deliveries, sim.ctx().next_seq(), events),
            pending,
            calls: calls.map(|c| c.take()),
        }
    }

    fn step(max_delay: u64) -> impl Strategy<Value = Step> {
        (prop::collection::vec(0..max_delay, 0..3), any::<bool>())
            .prop_map(|(delays, message)| Step { delays, message })
    }

    /// Random plans on `scale`, its grid lengthened by up to `spread` ns
    /// (so grid steps fall at any offset within a slot): scripted delays
    /// below `max_delay` steps, initial ones below `max_initial`.
    fn plan(
        scale: Scale,
        spread: u64,
        max_delay: u64,
        max_initial: u64,
    ) -> impl Strategy<Value = Plan> {
        let initial = move || prop::collection::vec(0..max_initial, 0..12);
        let script = move || prop::collection::vec(step(max_delay), 1..10);
        let split = 0..4 * scale.horizon;
        (0..=spread, initial(), initial(), script(), script(), split).prop_map(
            move |(longer, initial_a, initial_b, script_a, script_b, split)| Plan {
                scale: Scale { grid: scale.grid + SimDuration::from_nanos(longer), ..scale },
                initial: [initial_a, initial_b],
                scripts: [script_a, script_b],
                split,
            },
        )
    }

    /// Runs `plan` with and without banks under all three policies and
    /// requires the same deliveries, `seq` stream and event count.
    fn banked_matches_plain(plan: &Plan, seed: u64) {
        for policy in [TieBreak::Fifo, TieBreak::Lifo, TieBreak::Seeded(seed)] {
            let plain = run(plan, policy, false);
            let banked = run(plan, policy, true);
            prop_assert_eq!(&plain.seen.0, &banked.seen.0, "deliveries under {:?}", policy);
            prop_assert_eq!((plain.seen.1, plain.seen.2), (banked.seen.1, banked.seen.2));
        }
    }

    /// How many of `calls` took the path `path` tells apart.
    fn count(calls: &[(bool, Shape, Shape)], path: fn(bool, Shape, Shape) -> bool) -> usize {
        calls.iter().filter(|&&(fired, before, after)| path(fired, before, after)).count()
    }

    proptest! {
        /// Two populations, a periodic timer, a link and same-instant
        /// messages, all on one fine grid: with the populations' timers
        /// in banks, every event is delivered exactly when and in the order
        /// per-timer scheduling delivers it, and draws the same `seq`.
        #[test]
        fn bank_matches_per_timer_scheduling_under_every_policy(
            plan in plan(FINE, 0, 5, 8),
            seed in any::<u64>(),
        ) {
            banked_matches_plain(&plan, seed);
        }

        /// The same on a grid of 42–48 slots with delays of up to 24 s:
        /// the wheel wraps, timers wait past its horizon and are pulled
        /// back in, and runs are sent back by earlier timers.
        #[test]
        fn bank_matches_per_timer_scheduling_on_a_wrapping_wheel_under_every_policy(
            plan in plan(COARSE, 100_000_000, 31, 41),
            seed in any::<u64>(),
        ) {
            banked_matches_plain(&plan, seed);
        }
    }

    #[test]
    fn a_bank_occupies_one_queue_entry_and_refills_after_emptying() {
        let idle = Step { delays: vec![], message: false };
        let plan = Plan {
            scale: FINE,
            initial: [vec![3, 1, 1, 0, 2], vec![]],
            scripts: [vec![idle.clone()], vec![idle, Step { delays: vec![1, 1], message: false }]],
            split: 0,
        };
        let plain = run(&plan, TieBreak::Fifo, false);
        let banked = run(&plan, TieBreak::Fifo, true);
        assert_eq!(plain.seen, banked.seen);
        let fired = |actor: usize| -> Vec<(u64, u64)> {
            let of = |e: &&(SimTime, usize, &str, u64)| e.1 == actor && e.2 == "timer";
            banked.seen.0.iter().filter(of).map(|e| (e.0.as_nanos() / 1_000_000, e.3)).collect()
        };
        // Population 0's five timers fire in key order (the zero-delay one
        // within the start instant) and leave its bank empty for good.
        assert_eq!(fired(0), vec![(0, 1_003), (1, 1_001), (1, 1_002), (2, 1_004), (3, 1_000)]);
        // Population 1's bank is empty until the ticker's first message, at
        // 6 ms, has it schedule two timers; every other timer refills it.
        assert_eq!(fired(1)[..4], [(7, 2_000), (7, 2_001), (8, 2_002), (8, 2_003)]);
        // After the start instant the queue holds the ticker's timer and
        // population 0's other four, or one entry for the four.
        assert_eq!((plain.pending, banked.pending), (5, 2));
    }

    #[test]
    fn every_wheel_path_matches_per_timer_scheduling() {
        let idle = Step { delays: vec![], message: false };
        // In 0.7 s steps: population 0 parks 21 s past the horizon, then
        // 4.2 s, then ever earlier timers; population 1 parks 0.7 s and
        // 28 s, which waits past the horizon with nothing on the wheel.
        let plan = Plan {
            scale: COARSE,
            initial: [vec![30, 6, 5, 5, 4, 3, 2, 1], vec![1, 40]],
            scripts: [vec![idle.clone()], vec![idle]],
            split: 0,
        };
        banked_matches_plain(&plan, 0xdead_beef);
        let banked = run(&plan, TieBreak::Fifo, true);
        let [zero, one] = &banked.calls;
        // The second 3.5 s timer joins the run of the first.
        let same_slot = |fired: bool, before: Shape, after: Shape| {
            !fired && before.0 > 0 && after.0 == before.0 + 1 && after.1 == before.1
        };
        assert_eq!(count(zero, same_slot), 1);
        // 3.5 s, 2.8 s, 2.1 s, 1.4 s and 0.7 s each send the run back.
        let push_back = |fired: bool, before: Shape, after: Shape| {
            !fired && before.0 > 0 && after.1 < before.1 && after.3 == before.3 + before.0
        };
        assert_eq!(count(zero, push_back), 5);
        // Firing 4.2 s brings 21 s inside the window, onto the wheel.
        let pull_in = |fired: bool, before: Shape, after: Shape| fired && after.4 < before.4;
        assert_eq!(count(zero, pull_in), 1);
        // 21 s sits at a lower wheel index than the base that reached it.
        let wrapped = |_: bool, _: Shape, after: Shape| {
            after.0 > 0 && after.1 as usize % SLOTS < after.2 as usize % SLOTS
        };
        assert!(count(zero, wrapped) > 0);
        // Population 1's 28 s timer is taken straight from the overflow.
        let across_empty_wheel =
            |fired: bool, before: Shape, _: Shape| fired && before.0 == 0 && before.4 > 0;
        assert_eq!(count(one, across_empty_wheel), 1);
        let fired = |actor: usize| -> Vec<u64> {
            let of = |e: &&(SimTime, usize, &str, u64)| e.1 == actor && e.2 == "timer";
            banked.seen.0.iter().filter(of).map(|e| e.0.as_nanos() / 100_000_000).collect()
        };
        assert_eq!(fired(0), vec![7, 14, 21, 28, 35, 35, 42, 210]);
        assert_eq!(fired(1), vec![7, 280]);
    }

    #[test]
    fn a_timer_one_revolution_ahead_waits_past_the_wheel() {
        let idle = Step { delays: vec![], message: false };
        // In slots: a zero-delay timer, then one a revolution later, which
        // would share the first's wheel index, then the last slot before.
        let plan = Plan {
            scale: SLOT,
            initial: [vec![0, 1024, 1023], vec![]],
            scripts: [vec![idle.clone()], vec![idle]],
            split: 0,
        };
        banked_matches_plain(&plan, 7);
        let banked = run(&plan, TieBreak::Fifo, true);
        let overflow: Vec<usize> = banked.calls[0].iter().map(|&(_, _, after)| after.4).collect();
        assert_eq!(overflow[..3], [0, 1, 1], "only the timer a revolution ahead overflows");
        let slots: Vec<u64> = (banked.seen.0.iter())
            .filter(|e| e.1 == 0 && e.2 == "timer")
            .map(|e| e.0.as_nanos() >> SLOT_BITS)
            .collect();
        assert_eq!(slots, vec![0, 1023, 1024]);
    }
}
