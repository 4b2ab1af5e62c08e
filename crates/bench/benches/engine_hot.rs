//! Hot-path benchmarks for the event core: the throughput gate behind the
//! zero-alloc scheduling work. `engine_events_per_sec` is the headline
//! number (simulator events per wall-clock second on the E11 recovery
//! scenario); `multipath_duplication` doubles the packet volume over a
//! second path; `timer_cancel_churn` isolates the indexed heap's
//! schedule/cancel cycle, the pattern every retransmission timer follows,
//! and `timer_rearm_churn` the in-place move that replaces it where a
//! timer is only ever pushed back; `same_instant_message_deep` bounces
//! zero-delay messages over 10⁵ parked timers, the city-scale pattern the
//! same-instant lane exists for; `in_flight_deep` keeps a bandwidth-delay
//! product of packets in flight on one link over 10³ periodic timers, the
//! dense-cell pattern the links' delay lines exist for;
//! `parked_timers_deep` churns 10⁵ think timers beside one hot timer, with
//! the think timers in the event queue or in a `TimerBank`, the city-scale
//! pattern the bank exists for; `periodic_timers_deep` re-arms 10³
//! fixed-rate timers of one period, through the heap or on a tick line,
//! the dense cell's MAR sources.
//!
//! `cargo bench -p marnet-bench --bench engine_hot` measures;
//! `cargo bench -p marnet-bench --bench engine_hot -- --test` smoke-runs
//! every routine once (CI). End-to-end speed is gated by the benchmark
//! (`benchmark/README.md`); allocations per event and peak heap by
//! `tests/alloc_budget.rs`.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use marnet_bench::scenarios::{run_recovery_instrumented, RecoveryMechanism, RecoveryOutcome};
use marnet_core::fec::xor_into;
use marnet_sim::engine::{Actor, ActorId, Event, SimCtx, Simulator};
use marnet_sim::link::{Bandwidth, LinkId, LinkParams};
use marnet_sim::packet::{Packet, Payload};
use marnet_sim::time::{SimDuration, SimTime};
use marnet_sim::timers::TimerBank;
use marnet_telemetry::event::{TraceEvent, TraceKind};
use marnet_telemetry::recorder::TraceSink;
use marnet_telemetry::TelemetryOptions;

/// Virtual seconds of AR traffic per iteration. Short enough for a sane
/// Criterion batch, long enough to dwarf scenario setup.
const SIM_SECS: u64 = 5;

/// One iteration of the E11 recovery scenario with telemetry off: the
/// outcome and the events processed. The event count, measured once per
/// group, makes the throughput annotation reflect events rather than
/// iterations.
fn recovery_iter(mechanism: RecoveryMechanism) -> (RecoveryOutcome, u64) {
    let (out, events, _) =
        run_recovery_instrumented(40, 0.05, mechanism, SIM_SECS, 11, &TelemetryOptions::disabled());
    (out, events)
}

/// Deadline-gated ARQ + FEC on a lossy 40 ms path: the full sender →
/// link → receiver → feedback pipeline the perf work targets.
fn bench_engine_events_per_sec(c: &mut Criterion) {
    let mechanism = RecoveryMechanism::ArqFecK8;
    let events = recovery_iter(mechanism).1;
    let mut g = c.benchmark_group("engine_events_per_sec");
    g.throughput(Throughput::Elements(events));
    g.bench_function("run_recovery/arq+fec-k8", |b| b.iter(|| black_box(recovery_iter(mechanism))));
    g.finish();
}

/// Blind duplication over a second path: twice the packets, twice the
/// pressure on the link queues and the receiver's dedup path.
fn bench_multipath_duplication(c: &mut Criterion) {
    let mechanism = RecoveryMechanism::Duplicate;
    let events = recovery_iter(mechanism).1;
    let mut g = c.benchmark_group("multipath_duplication");
    g.throughput(Throughput::Elements(events));
    g.bench_function("run_recovery/duplicate", |b| b.iter(|| black_box(recovery_iter(mechanism))));
    g.finish();
}

/// Schedule-then-cancel churn: arm a batch of timers, cancel them all,
/// fire one sentinel. The indexed heap must remove each cancelled timer
/// in O(log n) without leaving residue for later pops to step over.
fn bench_timer_cancel_churn(c: &mut Criterion) {
    const BATCH: usize = 1_000;

    struct Churner;
    impl Actor for Churner {
        fn on_event(&mut self, ctx: &mut SimCtx, ev: Event) {
            if matches!(ev, Event::Start) {
                let handles: Vec<_> = (0..BATCH)
                    .map(|i| ctx.schedule_timer(SimDuration::from_millis(i as u64 + 1), 1))
                    .collect();
                for h in handles {
                    ctx.cancel_timer(h);
                }
                ctx.schedule_timer(SimDuration::from_millis(1), 2);
            }
        }
    }

    let mut g = c.benchmark_group("timer_cancel_churn");
    g.throughput(Throughput::Elements(BATCH as u64));
    g.bench_function("schedule_cancel_1k", |b| {
        b.iter(|| {
            let mut sim = Simulator::new(7);
            sim.add_actor(Churner);
            black_box(sim.run_until(SimTime::from_secs(1)))
        })
    });
    g.finish();
}

/// Re-arm churn: one timer pushed back over and over among a batch of
/// parked ones — what a retransmission timer does on every ACK and the
/// fluid tier's completion timer on every flow start. Each move is one
/// sift where the entry sits, not a removal plus an insertion.
fn bench_timer_rearm_churn(c: &mut Criterion) {
    const PARKED: u64 = 1_000;
    const MOVES: u64 = 1_000;

    struct Mover;
    impl Actor for Mover {
        fn on_event(&mut self, ctx: &mut SimCtx, ev: Event) {
            if matches!(ev, Event::Start) {
                for i in 0..PARKED {
                    ctx.schedule_timer(SimDuration::from_millis(500 + i), 1);
                }
                let mut h = ctx.schedule_timer(SimDuration::from_millis(1), 2);
                for i in 0..MOVES {
                    h = ctx.rearm_timer(h, SimDuration::from_millis(2 + i % 400), 2);
                }
            }
        }
    }

    let mut g = c.benchmark_group("timer_rearm_churn");
    g.throughput(Throughput::Elements(MOVES));
    g.bench_function("rearm_1k_over_1k_parked", |b| {
        b.iter(|| {
            let mut sim = Simulator::new(7);
            sim.add_actor(Mover);
            black_box(sim.run_until(SimTime::from_millis(1)))
        })
    });
    g.finish();
}

/// Zero-delay message ping-pong over a deep heap: 10⁵ parked timers (a
/// population with an engine timer per member) and two actors bouncing a message
/// within one instant. Through the heap every bounce sifts up past the
/// parked timers and straight back down; through the same-instant lane it
/// never touches them.
fn bench_same_instant_message_deep(c: &mut Criterion) {
    const PARKED: u64 = 100_000;
    const BOUNCES: u64 = 10_000;

    struct Bouncer {
        peer: ActorId,
        park: u64,
        left: u64,
    }
    impl Actor for Bouncer {
        fn on_event(&mut self, ctx: &mut SimCtx, ev: Event) {
            match ev {
                Event::Start => {
                    for i in 0..self.park {
                        ctx.schedule_timer(SimDuration::from_secs(3_600 + i), 0);
                    }
                    if self.park > 0 {
                        ctx.send_message(self.peer, Payload::empty());
                    }
                }
                Event::Message { .. } if self.left > 0 => {
                    self.left -= 1;
                    ctx.send_message(self.peer, Payload::empty());
                }
                _ => {}
            }
        }
    }

    let mut g = c.benchmark_group("same_instant_message_deep");
    g.throughput(Throughput::Elements(BOUNCES));
    g.bench_function("ping_pong_10k_over_100k_parked", |b| {
        // The timers are parked once, by the two start events; every
        // iteration continues the ping-pong at the (unchanged) instant.
        let mut sim = Simulator::new(7);
        let a = sim.reserve_actor();
        let z = sim.reserve_actor();
        sim.install_actor(a, Bouncer { peer: z, park: PARKED, left: u64::MAX });
        sim.install_actor(z, Bouncer { peer: a, park: 0, left: u64::MAX });
        sim.set_event_limit(2);
        sim.run_until(SimTime::from_secs(1));
        sim.set_event_limit(BOUNCES);
        b.iter(|| black_box(sim.run_until(SimTime::from_secs(1))))
    });
    g.finish();
}

/// A saturated long link over a field of periodic timers: the dense
/// cell's queue shape without its transports. 2 Gb/s × 10 ms of 1250-byte
/// packets is 2 000 arrivals pending at every instant, each scheduled
/// behind the previous one; through the heap every one of them sifts among
/// the 1 000 timers and each other, through the link's delay line none
/// does.
fn bench_in_flight_deep(c: &mut Criterion) {
    const TIMERS: u64 = 1_000;
    const BURST: u64 = 10;
    const EVENTS: u64 = 20_000;
    /// Serialization time of one packet; the source offers `BURST` packets
    /// every `BURST` slots, so the link never idles and its queue never
    /// overflows.
    const SLOT: SimDuration = SimDuration::from_micros(5);

    struct Source {
        link: LinkId,
    }
    impl Actor for Source {
        fn on_event(&mut self, ctx: &mut SimCtx, ev: Event) {
            if matches!(ev, Event::Start | Event::Timer { .. }) {
                for _ in 0..BURST {
                    let id = ctx.next_packet_id();
                    ctx.transmit(self.link, Packet::new(id, 0, 1250, ctx.now()));
                }
                ctx.schedule_timer(SLOT * BURST, 0);
            }
        }
    }
    /// Receives the packets and owns the periodic timers (10 ms period,
    /// staggered 10 µs apart).
    struct Field;
    impl Actor for Field {
        fn on_event(&mut self, ctx: &mut SimCtx, ev: Event) {
            match ev {
                Event::Start => {
                    for i in 0..TIMERS {
                        ctx.schedule_timer(SimDuration::from_micros(10 * (i + 1)), 1);
                    }
                }
                Event::Timer { tag } => {
                    ctx.schedule_timer(SimDuration::from_millis(10), tag);
                }
                _ => {}
            }
        }
    }

    let mut g = c.benchmark_group("in_flight_deep");
    g.throughput(Throughput::Elements(EVENTS));
    g.bench_function("2k_in_flight_over_1k_timers", |b| {
        let mut sim = Simulator::new(7);
        let src = sim.reserve_actor();
        let dst = sim.reserve_actor();
        let link = sim.add_link(
            src,
            dst,
            LinkParams::new(Bandwidth::from_mbps(2_000.0), SimDuration::from_millis(10)),
        );
        sim.install_actor(src, Source { link });
        sim.install_actor(dst, Field);
        // Fill the pipe once; every iteration continues the steady state.
        sim.run_until(SimTime::from_millis(20));
        assert!(sim.ctx().pending_events() > 2_900, "the link must be full");
        sim.set_event_limit(EVENTS);
        b.iter(|| black_box(sim.run_until(SimTime::MAX)))
    });
    g.finish();
}

/// A population's think timers beside one hot timer: 10⁵ clients whose
/// timers fire and are scheduled again about 2 s out (one every 20 µs),
/// and an actor whose single timer fires every 10 µs — the city-scale
/// shape, where the fluid tier's completion timer is the hot one. With
/// every think timer an event-queue entry the hot timer sifts through a
/// nine-level heap on each pop and push; with the think timers in a bank
/// the queue holds two entries and only the bank's own 24-byte heap is
/// deep.
fn bench_parked_timers_deep(c: &mut Criterion) {
    const CLIENTS: u64 = 100_000;
    const EVENTS: u64 = 20_000;

    /// The next think time of `client`: 1 s plus 31 hashed bits of
    /// nanoseconds (Fibonacci hashing), so 1–3.15 s.
    fn think(client: u64, round: u64) -> SimDuration {
        let bits = (client ^ round << 32).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 33;
        SimDuration::from_nanos(1_000_000_000 + bits)
    }

    struct Thinkers {
        bank: Option<TimerBank>,
        round: u64,
    }
    impl Thinkers {
        fn schedule(&mut self, ctx: &mut SimCtx, client: u64) {
            self.round += 1;
            let delay = think(client, self.round);
            match &mut self.bank {
                Some(bank) => bank.schedule(ctx, delay, client),
                None => {
                    ctx.schedule_timer(delay, client);
                }
            }
        }
    }
    impl Actor for Thinkers {
        fn on_event(&mut self, ctx: &mut SimCtx, ev: Event) {
            match ev {
                Event::Start => {
                    if let Some(bank) = &mut self.bank {
                        bank.reserve(CLIENTS as usize);
                    }
                    for client in 0..CLIENTS {
                        self.schedule(ctx, client);
                    }
                }
                Event::Timer { tag } => {
                    if let Some(bank) = &mut self.bank {
                        bank.fired(ctx);
                    }
                    self.schedule(ctx, tag);
                }
                _ => {}
            }
        }
    }
    struct Hot;
    impl Actor for Hot {
        fn on_event(&mut self, ctx: &mut SimCtx, ev: Event) {
            if matches!(ev, Event::Start | Event::Timer { .. }) {
                ctx.schedule_timer(SimDuration::from_micros(10), 0);
            }
        }
    }

    let mut g = c.benchmark_group("parked_timers_deep");
    g.throughput(Throughput::Elements(EVENTS));
    for (label, banked) in [("plain_100k", false), ("banked_100k", true)] {
        g.bench_function(label, |b| {
            let mut sim = Simulator::new(7);
            sim.add_actor(Thinkers { bank: banked.then(TimerBank::new), round: 0 });
            sim.add_actor(Hot);
            // Past the first think times; every iteration continues the
            // steady state.
            sim.run_until(SimTime::from_secs(3));
            assert_eq!(sim.ctx().pending_timers(), if banked { 2 } else { CLIENTS as usize + 1 });
            sim.set_event_limit(EVENTS);
            b.iter(|| black_box(sim.run_until(SimTime::MAX)))
        });
    }
    g.finish();
}

/// A thousand fixed-rate actors on one 10 ms period, staggered 10 µs
/// apart: the dense cell's MAR sources without their packets. Through the
/// heap every re-arm sifts among the other 999 pending timers; on the
/// period's tick line each joins behind the one before.
fn bench_periodic_timers_deep(c: &mut Criterion) {
    const ACTORS: u64 = 1_000;
    const EVENTS: u64 = 20_000;
    const PERIOD: SimDuration = SimDuration::from_millis(10);

    struct Periodic {
        offset: SimDuration,
        tick: bool,
    }
    impl Actor for Periodic {
        fn on_event(&mut self, ctx: &mut SimCtx, ev: Event) {
            match ev {
                Event::Start => {
                    ctx.schedule_timer(self.offset, 0);
                }
                Event::Timer { .. } if self.tick => ctx.schedule_tick(PERIOD, 0),
                Event::Timer { .. } => {
                    ctx.schedule_timer(PERIOD, 0);
                }
                _ => {}
            }
        }
    }

    let mut g = c.benchmark_group("periodic_timers_deep");
    g.throughput(Throughput::Elements(EVENTS));
    for (label, tick) in [("heap", false), ("tick_line", true)] {
        g.bench_function(label, |b| {
            let mut sim = Simulator::new(7);
            for i in 0..ACTORS {
                sim.add_actor(Periodic { offset: SimDuration::from_micros(10 * i), tick });
            }
            // Past the staggered first timers; every iteration continues
            // the steady state.
            sim.run_until(SimTime::from_millis(20));
            assert_eq!(sim.ctx().pending_events(), ACTORS as usize);
            sim.set_event_limit(EVENTS);
            b.iter(|| black_box(sim.run_until(SimTime::MAX)))
        });
    }
    g.finish();
}

/// XOR parity accumulation over one FEC group of reference frames with
/// the unrolled u64-lane `xor_into`. The 6 001-byte block keeps a ragged
/// 1-byte tail in play so the lane path's remainder handling is part of
/// the measured loop.
fn bench_fec_parity_throughput(c: &mut Criterion) {
    const K: usize = 8;
    const BLOCK: usize = 6_001;

    let blocks: Vec<Vec<u8>> =
        (0..K).map(|i| (0..BLOCK).map(|j| (i * 31 + j) as u8).collect()).collect();
    let mut g = c.benchmark_group("fec_parity_throughput");
    g.throughput(Throughput::Bytes((K * BLOCK) as u64));
    g.bench_function("xor_into/unrolled", |b| {
        let mut parity = Vec::with_capacity(BLOCK);
        b.iter(|| {
            parity.clear();
            for block in &blocks {
                xor_into(&mut parity, black_box(block));
            }
            black_box(parity.len())
        })
    });
    g.finish();
}

/// The recorder's per-event cost in each [`TraceSink`] state: `off` is the
/// one-load-one-branch floor every untraced run pays, `chunked` the
/// chunk-flushed ring the engine enables for live tracing. Capacity
/// exceeds the batch so the bench measures recording, not wrap-around
/// rotation.
fn bench_recorder_record_hot(c: &mut Criterion) {
    const BATCH: u64 = 4_096;
    const CAPACITY: usize = 1 << 13;

    let mut g = c.benchmark_group("recorder_record_hot");
    g.throughput(Throughput::Elements(BATCH));
    for (label, make) in [
        ("off", TraceSink::default as fn() -> TraceSink),
        ("chunked", || TraceSink::chunked(CAPACITY)),
    ] {
        g.bench_function(label, |b| {
            b.iter(|| {
                let mut sink = make();
                for i in 0..BATCH {
                    sink.emit_with(|| TraceEvent {
                        t: i,
                        comp: 1,
                        kind: TraceKind::PacketEnqueue,
                        aux: 0,
                        a: i,
                        b: i << 32 | 1_500,
                    });
                }
                black_box(sink.is_enabled())
            })
        });
    }
    g.finish();
}

criterion_group!(
    engine_hot,
    bench_engine_events_per_sec,
    bench_multipath_duplication,
    bench_timer_cancel_churn,
    bench_timer_rearm_churn,
    bench_same_instant_message_deep,
    bench_in_flight_deep,
    bench_parked_timers_deep,
    bench_periodic_timers_deep,
    bench_fec_parity_throughput,
    bench_recorder_record_hot,
);
criterion_main!(engine_hot);
