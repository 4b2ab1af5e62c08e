//! Timer banks: many timers of one actor behind one event-queue entry.
//!
//! An actor that multiplexes a population — one think timer per client,
//! 10⁵ clients — pays for every [`SimCtx::schedule_timer`] with a slab
//! slot sized for the largest event (a packet) plus a heap key, and makes
//! every other actor's timer sift through a heap that deep. A
//! [`TimerBank`] keeps such timers in a private min-heap of 24-byte keys
//! and shows the event queue only its earliest one, under exactly the key
//! that timer would have had on its own: [`TimerBank::schedule`] draws the
//! timer's `seq` and fixes its phase at the moment `schedule_timer` would
//! have, so the simulation's `seq` stream, every queue key and hence the
//! pop order are those of per-timer scheduling — under every
//! [`crate::config::TieBreak`], since all of an actor's entries share one
//! tie-break `ord`.

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
#[derive(Debug, Default)]
pub struct TimerBank {
    parked: BinaryHeap<Reverse<Parked>>,
    /// The event-queue entry standing for the earliest parked timer.
    armed: Option<TimerHandle>,
}

impl TimerBank {
    /// An empty bank.
    pub fn new() -> Self {
        TimerBank::default()
    }

    /// Makes room for `additional` more timers, so a population of known
    /// size is parked without growing the heap step by step.
    pub fn reserve(&mut self, additional: usize) {
        self.parked.reserve(additional);
    }

    /// Schedules an [`crate::engine::Event::Timer`] with `tag` for the
    /// current actor after `delay` — [`SimCtx::schedule_timer`], parked in
    /// the bank.
    pub fn schedule(&mut self, ctx: &mut SimCtx, delay: SimDuration, tag: u64) {
        let (at, seq, phase) = ctx.timer_key(delay);
        let pseq = if phase == Phase::Spawn { seq | SPAWN_BIT } else { seq };
        let timer = Parked { at, pseq, tag };
        let leads = self.parked.peek().is_none_or(|Reverse(first)| timer < *first);
        self.parked.push(Reverse(timer));
        if leads {
            self.arm(ctx);
        }
    }

    /// Retires the bank's earliest timer — the one that just fired — and
    /// shows the event queue the next.
    pub fn fired(&mut self, ctx: &mut SimCtx) {
        self.parked.pop();
        self.armed = None;
        self.arm(ctx);
    }

    /// Puts the earliest parked timer in the event queue, moving the
    /// bank's entry if it is pending (a new timer took the lead).
    fn arm(&mut self, ctx: &mut SimCtx) {
        if let Some(Reverse(first)) = self.parked.peek() {
            self.armed = Some(ctx.arm_timer_at(self.armed.take(), first.key(), first.tag));
        }
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

    /// Every delay in the test is a multiple of this, so timers keep
    /// landing on each other's nanosecond.
    const GRID: SimDuration = SimDuration::from_millis(1);
    /// The run's horizon in [`GRID`] steps.
    const HORIZON: u64 = 40;

    /// Every delivery: `(time, actor, event kind, timer tag or packet id)`.
    type Deliveries = Vec<(SimTime, usize, &'static str, u64)>;
    type Log = Rc<RefCell<Deliveries>>;

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
    /// delay (in [`GRID`] steps; zero is a zero-delay timer) and perhaps
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
        initial: Vec<u64>,
        script: Vec<Step>,
        handled: usize,
        next_tag: u64,
        /// Timers and messages left to spend: bounds zero-delay chains.
        budget: u32,
        peer: ActorId,
        log: Log,
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
                Some(bank) => bank.schedule(ctx, GRID * steps, tag),
                None => {
                    ctx.schedule_timer(GRID * steps, tag);
                }
            }
        }
    }

    impl Actor for Population {
        fn on_event(&mut self, ctx: &mut SimCtx, ev: Event) {
            if let (Event::Timer { .. }, Some(bank)) = (&ev, &mut self.bank) {
                bank.fired(ctx);
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
    /// packet (two grid steps to arrive) and a same-instant message their
    /// way on some ticks.
    struct Ticker {
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
            if matches!(ev, Event::Start | Event::Timer { .. }) && self.ticks < HORIZON / 2 {
                ctx.schedule_timer(GRID * 2, self.ticks);
            }
        }
    }

    /// Everything a run is built from except the timer mode and policy.
    #[derive(Debug, Clone)]
    struct Plan {
        initial: [Vec<u64>; 2],
        scripts: [Vec<Step>; 2],
        /// Where `run_until` is split in two, in quarter [`GRID`] steps.
        split: u64,
    }

    /// Runs `plan`; returns the delivery log, `next_seq` and the number of
    /// events processed, and the queue's cancellable entries at the split.
    fn run(plan: &Plan, policy: TieBreak, banked: bool) -> ((Deliveries, u64, u64), usize) {
        let log: Log = Rc::default();
        // The queue takes the policy when it is built.
        let mut sim = with_ambient_tie_break(policy, || Simulator::new(7));
        let ids = [sim.reserve_actor(), sim.reserve_actor()];
        let ticker = sim.reserve_actor();
        // 1250 bytes at 10 Mb/s serialize in one grid step; one more of delay.
        let link = sim.add_link(ticker, ids[0], LinkParams::new(Bandwidth::from_mbps(10.0), GRID));
        for i in 0..2 {
            let population = Population {
                bank: banked.then(TimerBank::new),
                initial: plan.initial[i].clone(),
                script: plan.scripts[i].clone(),
                handled: 0,
                next_tag: 1_000 * (i as u64 + 1),
                budget: 150,
                peer: ids[1 - i],
                log: Rc::clone(&log),
            };
            sim.install_actor(ids[i], population);
        }
        sim.install_actor(ticker, Ticker { link, peer: ids[1], ticks: 0, log: Rc::clone(&log) });
        sim.run_until(SimTime::ZERO + SimDuration::from_micros(250) * plan.split);
        let pending = sim.ctx().pending_timers();
        sim.run_until(SimTime::ZERO + GRID * HORIZON);
        let deliveries = log.borrow().clone();
        ((deliveries, sim.ctx().next_seq(), sim.ctx().events_processed()), pending)
    }

    fn step() -> impl Strategy<Value = Step> {
        (prop::collection::vec(0u64..5, 0..3), any::<bool>())
            .prop_map(|(delays, message)| Step { delays, message })
    }

    fn plan() -> impl Strategy<Value = Plan> {
        let initial = || prop::collection::vec(0u64..8, 0..12);
        let script = || prop::collection::vec(step(), 1..10);
        (initial(), initial(), script(), script(), 0..4 * HORIZON).prop_map(
            |(initial_a, initial_b, script_a, script_b, split)| Plan {
                initial: [initial_a, initial_b],
                scripts: [script_a, script_b],
                split,
            },
        )
    }

    proptest! {
        /// Two populations, a periodic timer, a link and same-instant
        /// messages, all on one coarse grid: with the populations' timers
        /// in banks, every event is delivered exactly when and in the order
        /// per-timer scheduling delivers it, and draws the same `seq`.
        #[test]
        fn bank_matches_per_timer_scheduling_under_every_policy(
            plan in plan(),
            seed in any::<u64>(),
        ) {
            for policy in [TieBreak::Fifo, TieBreak::Lifo, TieBreak::Seeded(seed)] {
                let (plain, _) = run(&plan, policy, false);
                let (banked, _) = run(&plan, policy, true);
                prop_assert_eq!(&plain.0, &banked.0, "deliveries under {:?}", policy);
                prop_assert_eq!((plain.1, plain.2), (banked.1, banked.2));
            }
        }
    }

    #[test]
    fn a_bank_occupies_one_queue_entry_and_refills_after_emptying() {
        let idle = Step { delays: vec![], message: false };
        let plan = Plan {
            initial: [vec![3, 1, 1, 0, 2], vec![]],
            scripts: [vec![idle.clone()], vec![idle, Step { delays: vec![1, 1], message: false }]],
            split: 0,
        };
        let (plain, plain_pending) = run(&plan, TieBreak::Fifo, false);
        let (banked, banked_pending) = run(&plan, TieBreak::Fifo, true);
        assert_eq!(plain, banked);
        let fired = |actor: usize| -> Vec<(u64, u64)> {
            let of = |e: &&(SimTime, usize, &str, u64)| e.1 == actor && e.2 == "timer";
            banked.0.iter().filter(of).map(|e| (e.0.as_nanos() / 1_000_000, e.3)).collect()
        };
        // Population 0's five timers fire in key order (the zero-delay one
        // within the start instant) and leave its bank empty for good.
        assert_eq!(fired(0), vec![(0, 1_003), (1, 1_001), (1, 1_002), (2, 1_004), (3, 1_000)]);
        // Population 1's bank is empty until the ticker's first message, at
        // 6 ms, has it schedule two timers; every other timer refills it.
        assert_eq!(fired(1)[..4], [(7, 2_000), (7, 2_001), (8, 2_002), (8, 2_003)]);
        // After the start instant the queue holds the ticker's timer and
        // population 0's other four, or one entry for the four.
        assert_eq!((plain_pending, banked_pending), (5, 2));
    }
}
