//! Property-based tests for the simulator substrate: time arithmetic,
//! statistics, queue conservation and engine determinism.

use marnet_sim::prelude::*;
use marnet_sim::queue::{EnqueueOutcome, Queue};
use proptest::prelude::*;

fn packets(max: usize) -> impl Strategy<Value = Vec<(u64, u8, u32)>> {
    // (flow, prio, size)
    prop::collection::vec((0u64..8, 0u8..4, 40u32..2000), 1..max)
}

/// Conservation: every packet offered to a queue is either delivered by
/// dequeue, reported dropped, or still queued.
fn check_conservation(mut q: Box<dyn Queue>, pkts: Vec<(u64, u8, u32)>) {
    let n = pkts.len();
    let mut dropped = 0usize;
    for (i, (flow, prio, size)) in pkts.into_iter().enumerate() {
        let pkt = Packet::new(i as u64, flow, size, SimTime::from_micros(i as u64)).with_prio(prio);
        if let EnqueueOutcome::Dropped(_) = q.enqueue(pkt, SimTime::from_micros(i as u64)) {
            dropped += 1;
        }
    }
    let mut dequeued = 0usize;
    let mut aqm_drops = 0usize;
    loop {
        let out = q.dequeue(SimTime::from_secs(1000));
        aqm_drops += out.dropped.len();
        match out.packet {
            Some(_) => dequeued += 1,
            None => break,
        }
    }
    assert_eq!(dequeued + dropped + aqm_drops, n, "packet conservation violated");
    assert_eq!(q.len_packets(), 0);
    assert_eq!(q.len_bytes(), 0);
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
