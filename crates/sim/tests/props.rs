//! Property-based tests for the simulator substrate: time arithmetic,
//! statistics, queue conservation and engine determinism.

use marnet_sim::prelude::*;
use marnet_sim::queue::{Dequeued, EnqueueOutcome, Queue};
use proptest::prelude::*;

fn packets(max: usize) -> impl Strategy<Value = Vec<(u64, u8, u32)>> {
    // (flow, prio, size)
    prop::collection::vec((0u64..8, 0u8..4, 40u32..2000), 1..max)
}

/// Dequeues at `now` and checks the lemma the engine's idle-link invariant
/// rests on: a dequeue that returns no packet leaves the queue empty, AQM
/// drops included.
fn dequeue_checked(q: &mut dyn Queue, now: SimTime) -> Dequeued {
    let out = q.dequeue(now);
    if out.packet.is_none() {
        assert_eq!(
            (q.len_packets(), q.len_bytes()),
            (0, 0),
            "dequeue gave None on a non-empty queue"
        );
    }
    out
}

/// Conservation: every packet offered to a queue is either delivered by
/// dequeue, reported dropped, or still queued. Packets arrive one
/// millisecond apart and a dequeue follows each one whose size is a
/// multiple of three, so a standing backlog builds that the AQMs drop from
/// before the final drain.
fn check_conservation(mut q: Box<dyn Queue>, pkts: Vec<(u64, u8, u32)>) {
    let n = pkts.len();
    let mut dropped = 0usize;
    let mut dequeued = 0usize;
    let mut aqm_drops = 0usize;
    for (i, (flow, prio, size)) in pkts.into_iter().enumerate() {
        let now = SimTime::from_millis(i as u64);
        let pkt = Packet::new(i as u64, flow, size, now).with_prio(prio);
        if let EnqueueOutcome::Dropped(_) = q.enqueue(pkt, now) {
            dropped += 1;
        }
        if size % 3 == 0 {
            let out = dequeue_checked(q.as_mut(), now);
            aqm_drops += out.dropped.len();
            dequeued += usize::from(out.packet.is_some());
        }
    }
    loop {
        let out = dequeue_checked(q.as_mut(), SimTime::from_secs(1000));
        aqm_drops += out.dropped.len();
        match out.packet {
            Some(_) => dequeued += 1,
            None => break,
        }
    }
    assert_eq!(dequeued + dropped + aqm_drops, n, "packet conservation violated");
}

proptest! {
    #[test]
    fn droptail_conserves_packets(pkts in packets(300)) {
        check_conservation(
            QueueConfig::DropTail { cap_packets: 64 }.build(),
            pkts,
        );
    }

    #[test]
    fn codel_conserves_packets(pkts in packets(300)) {
        check_conservation(QueueConfig::codel_default().build(), pkts);
    }

    #[test]
    fn fq_codel_conserves_packets(pkts in packets(300)) {
        check_conservation(QueueConfig::fq_codel_default().build(), pkts);
    }

    #[test]
    fn strict_priority_conserves_packets(pkts in packets(300)) {
        check_conservation(
            QueueConfig::StrictPriority { bands: 4, cap_packets_per_band: 32 }.build(),
            pkts,
        );
    }

    #[test]
    fn strict_priority_never_inverts_bands(pkts in packets(200)) {
        let mut q = QueueConfig::StrictPriority { bands: 4, cap_packets_per_band: 1000 }.build();
        for (i, (flow, prio, size)) in pkts.iter().enumerate() {
            let pkt = Packet::new(i as u64, *flow, *size, SimTime::ZERO).with_prio(*prio);
            q.enqueue(pkt, SimTime::ZERO);
        }
        let mut last_band = 0u8;
        while let Some(p) = q.dequeue(SimTime::ZERO).packet {
            prop_assert!(p.prio >= last_band, "band inversion: {} after {}", p.prio, last_band);
            last_band = p.prio;
        }
    }

    #[test]
    fn time_addition_is_monotone(a in 0u64..u64::MAX / 4, b in 0u64..u64::MAX / 4) {
        let t = SimTime::from_nanos(a);
        let d = SimDuration::from_nanos(b);
        prop_assert!(t + d >= t);
        prop_assert_eq!((t + d) - t, d);
        prop_assert_eq!(t.saturating_add(d), t + d);
    }

    #[test]
    fn duration_saturating_sub_never_underflows(a in 0u64..u64::MAX, b in 0u64..u64::MAX) {
        let x = SimDuration::from_nanos(a).saturating_sub(SimDuration::from_nanos(b));
        prop_assert!(x.as_nanos() == a.saturating_sub(b));
    }

    #[test]
    fn online_stats_matches_naive(values in prop::collection::vec(-1e6f64..1e6, 2..200)) {
        let mut s = OnlineStats::new();
        for &v in &values {
            s.record(v);
        }
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1.0);
        prop_assert!((s.mean() - mean).abs() < 1e-6 * (1.0 + mean.abs()));
        prop_assert!((s.variance() - var).abs() < 1e-4 * (1.0 + var.abs()));
    }

    #[test]
    fn histogram_quantiles_are_monotone_and_bounded(
        values in prop::collection::vec(-1e9f64..1e9, 1..200),
        qs in prop::collection::vec(0.0f64..=1.0, 2..10),
    ) {
        let mut h = Histogram::new();
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for &v in &values {
            h.record(v);
            min = min.min(v);
            max = max.max(v);
        }
        let mut sorted_qs = qs.clone();
        sorted_qs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut last = f64::NEG_INFINITY;
        for q in sorted_qs {
            let v = h.quantile(q).unwrap();
            prop_assert!(v >= min - 1e-9 && v <= max + 1e-9);
            prop_assert!(v >= last - 1e-9);
            last = v;
        }
    }

    #[test]
    fn jain_index_is_in_range(alloc in prop::collection::vec(0.0f64..1e6, 1..20)) {
        let j = marnet_sim::stats::jain_index(&alloc);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&j));
    }

    #[test]
    fn bandwidth_serialization_time_scales(bytes in 1u32..100_000, mbps in 1u32..10_000) {
        let b = Bandwidth::from_mbps(f64::from(mbps));
        let t1 = b.serialization_time(bytes);
        let t2 = b.serialization_time(bytes * 2);
        // Twice the bytes never serializes faster, and roughly doubles.
        prop_assert!(t2 >= t1);
        let ratio = t2.as_nanos() as f64 / t1.as_nanos().max(1) as f64;
        prop_assert!((1.5..=2.5).contains(&ratio) || t1.as_nanos() < 100);
    }

    /// The engine is deterministic: identical seeds and topologies give
    /// identical delivery counts under random loss/jitter.
    #[test]
    fn engine_is_deterministic(seed in 0u64..1000, loss in 0.0f64..0.3) {
        fn run(seed: u64, loss: f64) -> (u64, u64) {
            use marnet_sim::engine::{Actor, Event, SimCtx, Simulator};
            struct Flood { link: LinkId, n: u32 }
            impl Actor for Flood {
                fn on_event(&mut self, ctx: &mut SimCtx, ev: Event) {
                    if matches!(ev, Event::Start | Event::Timer { .. }) {
                        if self.n == 0 { return; }
                        self.n -= 1;
                        let id = ctx.next_packet_id();
                        ctx.transmit(self.link, Packet::new(id, 0, 500, ctx.now()));
                        ctx.schedule_timer(SimDuration::from_micros(200), 0);
                    }
                }
            }
            struct Sink;
            impl Actor for Sink {
                fn on_event(&mut self, _: &mut SimCtx, _: Event) {}
            }
            let mut sim = Simulator::new(seed);
            let a = sim.reserve_actor();
            let b = sim.reserve_actor();
            let l = sim.add_link(a, b,
                LinkParams::new(Bandwidth::from_mbps(50.0), SimDuration::from_millis(2))
                    .with_loss(LossModel::Bernoulli { p: loss })
                    .with_jitter(Jitter::Uniform { max: SimDuration::from_micros(300) }));
            sim.install_actor(a, Flood { link: l, n: 200 });
            sim.install_actor(b, Sink);
            sim.run_to_completion();
            let st = sim.ctx().link_stats(l);
            (st.delivered_packets, st.drops_loss)
        }
        prop_assert_eq!(run(seed, loss), run(seed, loss));
    }

    /// Random interleavings of schedule / cancel / re-arm / transmit
    /// drive the indexed event queue through its full API. Three
    /// properties: the observed event trace is identical across runs (the
    /// pop order is a function of the script alone), a timer
    /// cancelled or moved strictly before its deadline never fires under
    /// its old tag, and `rearm_timer` is indistinguishable from
    /// `cancel_timer` followed by `schedule_timer`.
    #[test]
    fn schedule_cancel_transmit_interleaving_is_deterministic(
        script in prop::collection::vec((0u8..4, 1u64..5_000, 0u8..8), 1..120),
    ) {
        use std::cell::RefCell;
        use std::collections::HashSet;
        use std::rc::Rc;

        use marnet_sim::engine::{Actor, Event, SimCtx, Simulator, TimerHandle};

        type Trace = Rc<RefCell<Vec<(u64, u8, u64)>>>;

        struct Driver {
            link: LinkId,
            script: Vec<(u8, u64, u8)>,
            pc: usize,
            /// Move timers with `rearm_timer` (else cancel + schedule).
            in_place: bool,
            next_tag: u64,
            // Live handles with their tag and absolute deadline.
            armed: Vec<(TimerHandle, u64, SimTime)>,
            // Tags cancelled strictly before their deadline: must never fire.
            forbidden: HashSet<u64>,
            trace: Trace,
        }

        impl Driver {
            /// Executes the next few script ops; called on every event so
            /// the ops interleave with timer fires and packet arrivals.
            fn step(&mut self, ctx: &mut SimCtx) {
                for _ in 0..3 {
                    let Some(&(kind, delay, extra)) = self.script.get(self.pc) else { return; };
                    self.pc += 1;
                    match kind {
                        0 => {
                            let tag = self.next_tag;
                            self.next_tag += 1;
                            let d = SimDuration::from_micros(delay);
                            let h = ctx.schedule_timer(d, tag);
                            self.armed.push((h, tag, ctx.now() + d));
                        }
                        1 if !self.armed.is_empty() => {
                            let i = delay as usize % self.armed.len();
                            let (h, tag, deadline) = self.armed.swap_remove(i);
                            ctx.cancel_timer(h);
                            if deadline > ctx.now() {
                                self.forbidden.insert(tag);
                            }
                        }
                        3 if !self.armed.is_empty() => {
                            let i = usize::from(extra) % self.armed.len();
                            let (old, old_tag, deadline) = self.armed.swap_remove(i);
                            if deadline > ctx.now() {
                                self.forbidden.insert(old_tag);
                            }
                            let tag = self.next_tag;
                            self.next_tag += 1;
                            let d = SimDuration::from_micros(delay);
                            let h = if self.in_place {
                                ctx.rearm_timer(old, d, tag)
                            } else {
                                ctx.cancel_timer(old);
                                ctx.schedule_timer(d, tag)
                            };
                            self.armed.push((h, tag, ctx.now() + d));
                        }
                        2 => {
                            let id = ctx.next_packet_id();
                            let size = 40 + u32::from(extra) * 100;
                            ctx.transmit(self.link, Packet::new(id, 0, size, ctx.now()));
                        }
                        _ => {}
                    }
                }
            }
        }

        impl Actor for Driver {
            fn on_event(&mut self, ctx: &mut SimCtx, ev: Event) {
                let now = ctx.now().as_nanos();
                match ev {
                    Event::Timer { tag } => {
                        assert!(!self.forbidden.contains(&tag), "cancelled timer {tag} fired");
                        self.armed.retain(|(_, t, _)| *t != tag);
                        self.trace.borrow_mut().push((now, 1, tag));
                    }
                    Event::Packet { packet, .. } => {
                        self.trace.borrow_mut().push((now, 2, packet.id));
                    }
                    _ => {}
                }
                self.step(ctx);
            }
        }

        fn run(script: &[(u8, u64, u8)], in_place: bool) -> Vec<(u64, u8, u64)> {
            let trace: Trace = Rc::new(RefCell::new(Vec::new()));
            let mut sim = Simulator::new(99);
            let a = sim.reserve_actor();
            // Self-loop link: transmitted packets come back to the driver,
            // so packet arrivals interleave with timer fires.
            let l = sim.add_link(
                a,
                a,
                LinkParams::new(Bandwidth::from_mbps(10.0), SimDuration::from_micros(500)),
            );
            sim.install_actor(a, Driver {
                link: l,
                script: script.to_vec(),
                pc: 0,
                in_place,
                next_tag: 0,
                armed: Vec::new(),
                forbidden: HashSet::new(),
                trace: Rc::clone(&trace),
            });
            sim.run_to_completion();
            drop(sim);
            Rc::try_unwrap(trace).expect("sim dropped").into_inner()
        }

        let moved_in_place = run(&script, true);
        prop_assert_eq!(&moved_in_place, &run(&script, true));
        prop_assert_eq!(&moved_in_place, &run(&script, false));
    }
}

/// One step in the life of a link's transmitter, as the engine drives its
/// queue.
#[derive(Debug, Clone)]
enum LinkOp {
    /// A packet `(flow, prio, size)` is offered (`SimCtx::transmit`).
    Arrive(u64, u8, u32),
    /// The packet on the wire finishes serializing.
    Depart,
    /// The rate drops to zero (`true`) or comes back (`false`).
    Stall(bool),
    /// Virtual time moves on by this many microseconds.
    Gap(u64),
}

/// What one step showed: the packet put on the wire with its `enqueued`
/// stamp, the ids dropped, and the occupancy after the step.
#[derive(Debug, Default, PartialEq)]
struct Seen {
    sent: Option<(u64, SimTime)>,
    dropped: Vec<u64>,
    len: (usize, u64),
    busy: bool,
}

/// A queue behind a transmitter, driven as `SimCtx::transmit` and
/// `start_tx` drive it. With `bypass` it takes the engine's idle-link
/// path: a packet that finds the link idle and the queue empty is stamped
/// and put on the wire without the queue, and a dequeue of an empty queue
/// is skipped.
struct Twin {
    q: Box<dyn Queue>,
    bypass: bool,
    busy: bool,
    stalled: bool,
    now: SimTime,
}

impl Twin {
    fn new(config: &QueueConfig, bypass: bool) -> Self {
        Twin { q: config.build(), bypass, busy: false, stalled: false, now: SimTime::ZERO }
    }

    fn start_tx(&mut self, seen: &mut Seen) {
        if self.stalled || (self.bypass && self.q.is_empty()) {
            self.busy = false;
            return;
        }
        let out = self.q.dequeue(self.now);
        seen.dropped.extend(out.dropped.iter().map(|p| p.id));
        self.busy = out.packet.is_some();
        seen.sent = out.packet.map(|p| (p.id, p.enqueued));
    }

    /// Runs `op`; an arriving packet gets id `id`.
    fn step(&mut self, op: &LinkOp, id: u64) -> Seen {
        let mut seen = Seen::default();
        match *op {
            LinkOp::Arrive(flow, prio, size) => {
                let mut pkt = Packet::new(id, flow, size, self.now).with_prio(prio);
                if self.bypass && !self.busy && !self.stalled && self.q.is_empty() {
                    pkt.enqueued = self.now;
                    seen.sent = Some((pkt.id, pkt.enqueued));
                    self.busy = true;
                } else {
                    match self.q.enqueue(pkt, self.now) {
                        EnqueueOutcome::Dropped(victim) => seen.dropped.push(victim.id),
                        EnqueueOutcome::Enqueued if !self.busy => self.start_tx(&mut seen),
                        EnqueueOutcome::Enqueued => {}
                    }
                }
            }
            LinkOp::Depart if self.busy => self.start_tx(&mut seen),
            LinkOp::Depart => {}
            LinkOp::Stall(on) => {
                self.stalled = on;
                if !on && !self.busy && !self.q.is_empty() {
                    self.start_tx(&mut seen);
                }
            }
            LinkOp::Gap(us) => self.now += SimDuration::from_micros(us),
        }
        seen.len = (self.q.len_packets(), self.q.len_bytes());
        seen.busy = self.busy;
        seen
    }
}

/// Index and observations of the first step at which the bypassing twin
/// and the plain twin disagree, if any.
fn first_divergence(config: &QueueConfig, script: &[LinkOp]) -> Option<(usize, Seen, Seen)> {
    let (mut bypass, mut plain) = (Twin::new(config, true), Twin::new(config, false));
    script.iter().enumerate().find_map(|(i, op)| {
        let (b, p) = (bypass.step(op, i as u64), plain.step(op, i as u64));
        (b != p).then_some((i, b, p))
    })
}

fn link_ops() -> impl Strategy<Value = Vec<LinkOp>> {
    // Four arrivals, three departures, one stall toggle and two gaps in ten.
    let op = (0u8..10, 0u64..4, 0u8..4, 40u32..2000, 0u64..20_000).prop_map(
        |(kind, flow, prio, size, us)| match kind {
            0..=3 => LinkOp::Arrive(flow, prio, size),
            4..=6 => LinkOp::Depart,
            7 => LinkOp::Stall(us % 2 == 0),
            _ => LinkOp::Gap(us),
        },
    );
    prop::collection::vec(op, 1..200)
}

proptest! {
    /// The empty-queue contract `QueueConfig::is_plain_when_empty`
    /// certifies: wherever it holds, skipping the queue on an idle link
    /// and skipping the dequeue of an empty queue is invisible — the same
    /// packets leave with the same stamps, the same ones are dropped, and
    /// the occupancy is the same after every step.
    #[test]
    fn idle_link_bypass_matches_the_queue_round_trip(
        script in link_ops(),
        cap in 0usize..5,
        bands in 1usize..4,
    ) {
        let configs = [
            QueueConfig::DropTail { cap_packets: cap },
            QueueConfig::DropTail { cap_packets: 1000 },
            QueueConfig::StrictPriority { bands, cap_packets_per_band: cap },
            QueueConfig::codel_default(),
            QueueConfig::fq_codel_default(),
        ];
        for config in configs.iter().filter(|c| c.is_plain_when_empty()) {
            prop_assert_eq!(first_divergence(config, &script), None, "{:?}", config);
        }
    }
}

/// CoDel is not plain when empty: its dequeue at sojourn 0 resets
/// `first_above_time`, so a bypassed packet leaves a stale one behind and
/// the bypassing twin enters the dropping state where the plain one does
/// not.
#[test]
fn idle_link_bypass_would_skip_codels_first_above_time_reset() {
    use LinkOp::*;
    let config = QueueConfig::codel_default();
    assert!(!config.is_plain_when_empty());
    let big = Arrive(0, 0, 3000);
    let script = [
        big.clone(), // 0: on the wire at once
        big.clone(), // 1: waits
        Gap(10_000),
        Depart, // 3: sojourn 10 ms above target: first_above_time = 110 ms
        Gap(10_000),
        Depart, // 5: the queue is empty, the link goes idle
        Gap(10_000),
        big.clone(), // 7: finds the link idle; only the plain twin resets
        big.clone(),
        big,
        Gap(90_000),
        Depart, // 11: at 120 ms, past the stale 110 ms
    ];
    let (at, bypass, plain) = first_divergence(&config, &script).expect("the twins diverge");
    assert_eq!(at, 11);
    assert_eq!((plain.sent.map(|s| s.0), plain.dropped), (Some(8), vec![]));
    assert_eq!((bypass.sent.map(|s| s.0), bypass.dropped), (Some(9), vec![8]));
}

/// FQ-CoDel is not plain when empty: its dequeue of an empty queue detaches
/// the flow still on the new list, so skipping it keeps that flow's spent
/// deficit, and the bypassing twin rotates the flow out of turn.
#[test]
fn idle_link_bypass_would_skip_fq_codels_flow_detachment() {
    use LinkOp::*;
    let config = QueueConfig::fq_codel_default();
    assert!(!config.is_plain_when_empty());
    let script = [
        Arrive(3, 0, 100),  // 0: on the wire at once
        Arrive(1, 0, 1500), // 1: waits; flow 1 joins the new list
        Depart,             // 2: flow 1 served, deficit 1514 - 1500 = 14
        Depart,             // 3: empty; only the plain twin detaches flow 1
        Arrive(1, 0, 1000), // 4: finds the link idle
        Arrive(1, 0, 100),
        Arrive(1, 0, 1000),
        Arrive(2, 0, 1000),
        Depart, // 8: packet 5 either way
        Depart, // 9: flow 1 has quantum left only in the plain twin
    ];
    let (at, bypass, plain) = first_divergence(&config, &script).expect("the twins diverge");
    assert_eq!(at, 9);
    assert_eq!(plain.sent.map(|s| s.0), Some(6));
    assert_eq!(bypass.sent.map(|s| s.0), Some(7));
}
