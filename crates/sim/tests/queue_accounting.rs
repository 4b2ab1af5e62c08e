//! Property test for the flight recorder's queue accounting: with tracing
//! on, the per-link enqueue / dequeue / drop events exactly reconcile with
//! the link's final queue occupancy and its drop counters, for every queue
//! discipline.
//!
//! The invariant mirrors how the engine emits events: a tail drop
//! (victim == offered packet) produces only a `drop(queue-full)`, while an
//! FQ-CoDel fattest-flow drop admits the arrival and sheds a victim that
//! *was* enqueued — `enqueue(offered)` + `drop(victim)`. Loss and
//! link-down drops happen outside the queue (in flight, or before
//! admission) and must never touch a queued id.
//!
//! Every check reads the trace through [`expand`], as every reader does.
//! A sparse-load property drives links that are mostly idle, so most
//! packets are recorded as one send-idle record, and checks that the
//! compact trace loses nothing: on the expanded trace busy and idle
//! alternate and each carries the replayed occupancy, and on the compact
//! one no enqueue / zero-delay dequeue / empty busy triple was left
//! unfolded.

use marnet_sim::engine::{Actor, Event, SimCtx, Simulator};
use marnet_sim::prelude::*;
use marnet_sim::queue::QueueConfig;
use marnet_telemetry::{component, expand, DropReason, TraceEvent, TraceKind};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

/// `(gap_us, size, prio, flow)` per offered packet. The mean offered load
/// (~1000 B every ~200 µs ≈ 40 Mb/s) overloads the 1 Mb/s link, so queue
/// and AQM drops are common, not corner cases.
fn scripts() -> impl Strategy<Value = Vec<(u64, u32, u8, u64)>> {
    prop::collection::vec((1u64..400, 40u32..2000, 0u8..4, 0u64..8), 1..150)
}

struct Flood {
    link: LinkId,
    script: Vec<(u64, u32, u8, u64)>,
    pc: usize,
}

impl Actor for Flood {
    fn on_event(&mut self, ctx: &mut SimCtx, ev: Event) {
        if matches!(ev, Event::Start | Event::Timer { .. }) {
            let Some(&(gap, size, prio, flow)) = self.script.get(self.pc) else { return };
            self.pc += 1;
            let id = ctx.next_packet_id();
            ctx.transmit(self.link, Packet::new(id, flow, size, ctx.now()).with_prio(prio));
            ctx.schedule_timer(SimDuration::from_micros(gap), 0);
        }
    }
}

struct Sink;

impl Actor for Sink {
    fn on_event(&mut self, _: &mut SimCtx, _: Event) {}
}

/// Replays the recorded events and checks them against the ground truth
/// the engine kept independently (queue occupancy and drop counters).
fn check_reconciliation(
    queue: QueueConfig,
    loss: f64,
    script: Vec<(u64, u32, u8, u64)>,
    cut_us: u64,
) {
    let mut sim = Simulator::new(7);
    sim.enable_flight_recorder(1 << 16);
    let a = sim.reserve_actor();
    let b = sim.reserve_actor();
    let l = sim.add_link(
        a,
        b,
        LinkParams::new(Bandwidth::from_mbps(1.0), SimDuration::from_millis(2))
            .with_loss(LossModel::Bernoulli { p: loss })
            .with_queue(queue),
    );
    sim.install_actor(a, Flood { link: l, script, pc: 0 });
    sim.install_actor(b, Sink);
    // Cut mid-run so a non-empty final occupancy is the common case.
    sim.run_until(SimTime::from_micros(cut_us));

    let events = expand(&sim.take_trace());
    let comp = component::link(l.index());
    let mut sizes: HashMap<u64, u64> = HashMap::new();
    let mut live: HashSet<u64> = HashSet::new();
    let mut live_bytes = 0u64;
    let mut ever_enqueued: HashSet<u64> = HashSet::new();
    let mut enq_count = 0u64;
    let mut counts: HashMap<DropReason, u64> = HashMap::new();
    let mut tail_drops = 0u64;

    for ev in events.iter().filter(|e| e.comp == comp) {
        match ev.kind {
            TraceKind::PacketEnqueue => {
                prop_assert!(live.insert(ev.a), "pkt {} enqueued twice", ev.a);
                ever_enqueued.insert(ev.a);
                sizes.insert(ev.a, u64::from(ev.size()));
                live_bytes += u64::from(ev.size());
                enq_count += 1;
            }
            TraceKind::PacketDequeue => {
                prop_assert!(live.remove(&ev.a), "pkt {} dequeued but not queued", ev.a);
                live_bytes -= sizes[&ev.a];
            }
            TraceKind::PacketDrop => {
                let reason = DropReason::from_u8(ev.aux).expect("known drop reason");
                *counts.entry(reason).or_default() += 1;
                match reason {
                    DropReason::QueueFull => {
                        // Either a tail drop (never admitted) or a shed
                        // victim that was sitting in the queue.
                        if live.remove(&ev.a) {
                            live_bytes -= sizes[&ev.a];
                        } else {
                            prop_assert!(
                                !ever_enqueued.contains(&ev.a),
                                "pkt {} dropped queue-full after leaving the queue",
                                ev.a
                            );
                            tail_drops += 1;
                        }
                    }
                    DropReason::Aqm => {
                        prop_assert!(live.remove(&ev.a), "AQM dropped unqueued pkt {}", ev.a);
                        live_bytes -= sizes[&ev.a];
                    }
                    // In-flight loss and admission-time link-down drops act
                    // on packets that are not in the queue.
                    _ => prop_assert!(!live.contains(&ev.a), "{reason:?} hit queued pkt {}", ev.a),
                }
            }
            _ => {}
        }
    }

    // Event replay matches the engine's own occupancy...
    let (q_packets, q_bytes) = sim.ctx().link_queue_len(l);
    prop_assert_eq!(live.len(), q_packets, "occupancy (packets) does not reconcile");
    prop_assert_eq!(live_bytes, q_bytes, "occupancy (bytes) does not reconcile");

    // ...and its drop counters, reason by reason.
    let st = sim.ctx().link_stats(l);
    let count = |r: DropReason| counts.get(&r).copied().unwrap_or(0);
    prop_assert_eq!(count(DropReason::QueueFull), st.drops_queue);
    prop_assert_eq!(count(DropReason::Aqm), st.drops_aqm);
    prop_assert_eq!(count(DropReason::Loss), st.drops_loss);
    prop_assert_eq!(count(DropReason::LinkDown), st.drops_down);
    // Every offered packet either produced an enqueue event or a tail drop.
    prop_assert_eq!(enq_count + tail_drops, st.offered_packets);
}

/// `(gap_us, size, prio, flow, link)` per offered packet. At 1 Mb/s a
/// packet of at most 1500 B serializes in at most 12 ms, against a mean gap
/// of about 20 ms, so most arrivals find their link idle and empty.
fn sparse_scripts() -> impl Strategy<Value = Vec<(u64, u32, u8, u64, usize)>> {
    prop::collection::vec((1_000u64..40_000, 40u32..1500, 0u8..4, 0u64..8, 0usize..2), 1..120)
}

/// The rate of both links in the sparse-load property.
fn sparse_rate() -> Bandwidth {
    Bandwidth::from_mbps(1.0)
}

/// A window of the script, in packet indices: `(link, first, len)`.
type Window = (usize, usize, usize);

/// Offers its script of packets, one per timer, on two links. One link's
/// rate is zero while packets `rate_zero` are offered, and the other link
/// is down while packets `down` are; restoring either happens right after
/// the window's end packet is offered on that link at band 0, so the kick
/// that follows finds that packet just enqueued, at the head of a priority
/// or fair queue and possibly behind others.
struct Sparse {
    links: [LinkId; 2],
    script: Vec<(u64, u32, u8, u64, usize)>,
    rate_zero: Window,
    down: Window,
    pc: usize,
}

impl Actor for Sparse {
    fn on_event(&mut self, ctx: &mut SimCtx, ev: Event) {
        if matches!(ev, Event::Start | Event::Timer { .. }) {
            let i = self.pc;
            let Some(&(gap, size, mut prio, flow, mut link)) = self.script.get(i) else { return };
            self.pc += 1;
            let ((rl, r0, rn), (dl, d0, dn)) = (self.rate_zero, self.down);
            if i == r0 {
                ctx.set_link_rate(self.links[rl], Bandwidth::ZERO);
            }
            if i == d0 {
                ctx.set_link_up(self.links[dl], false);
            }
            let restore_rate = i == r0 + rn;
            let restore_up = i == d0 + dn;
            if restore_rate || restore_up {
                (link, prio) = (if restore_rate { rl } else { dl }, 0);
            }
            let id = ctx.next_packet_id();
            ctx.transmit(self.links[link], Packet::new(id, flow, size, ctx.now()).with_prio(prio));
            if restore_rate {
                ctx.set_link_rate(self.links[rl], sparse_rate());
            }
            if restore_up {
                ctx.set_link_up(self.links[dl], true);
            }
            ctx.schedule_timer(SimDuration::from_micros(gap), 0);
        }
    }
}

/// `true` if `w` is an enqueue followed by the zero-delay dequeue of the
/// same packet and an empty busy transition on the same link at the same
/// instant — the triple the recorder writes as one send-idle record.
fn unfolded(w: &[TraceEvent]) -> bool {
    let [enq, deq, busy] = w else { return false };
    enq.kind == TraceKind::PacketEnqueue
        && *deq == TraceEvent::packet_dequeue(enq.t, enq.comp, enq.a, 0)
        && *busy == TraceEvent::link_state(enq.t, enq.comp, true, 0, 0)
}

fn check_sparse_load(
    queue: QueueConfig,
    script: Vec<(u64, u32, u8, u64, usize)>,
    rate_zero: Window,
    down: Window,
    cut_us: u64,
) {
    let mut sim = Simulator::new(11);
    sim.enable_flight_recorder(1 << 16);
    let a = sim.reserve_actor();
    let b = sim.reserve_actor();
    let params = LinkParams::new(sparse_rate(), SimDuration::from_millis(2)).with_queue(queue);
    let links = [sim.add_link(a, b, params.clone()), sim.add_link(a, b, params)];
    sim.install_actor(a, Sparse { links, script, rate_zero, down, pc: 0 });
    sim.install_actor(b, Sink);
    sim.run_until(SimTime::from_micros(cut_us));

    let compact = sim.take_trace();
    let send_idle = compact.iter().filter(|e| e.kind == TraceKind::PacketSendIdle).count();
    prop_assert!(send_idle > 0, "the first packet finds its link idle and empty");
    prop_assert!(
        !compact.windows(3).any(unfolded),
        "an enqueue / dequeue 0 / busy 0/0 triple was recorded unfolded"
    );
    let events = expand(&compact);
    prop_assert_eq!(events.len(), compact.len() + 2 * send_idle);

    for link in links {
        let comp = component::link(link.index());
        let mut sizes: HashMap<u64, u64> = HashMap::new();
        let mut live: HashSet<u64> = HashSet::new();
        let mut live_bytes = 0u64;
        let mut busy = false;
        for ev in events.iter().filter(|e| e.comp == comp) {
            match ev.kind {
                TraceKind::PacketEnqueue => {
                    prop_assert!(live.insert(ev.a), "pkt {} enqueued twice", ev.a);
                    sizes.insert(ev.a, u64::from(ev.size()));
                    live_bytes += u64::from(ev.size());
                }
                TraceKind::PacketDequeue => {
                    prop_assert!(live.remove(&ev.a), "pkt {} dequeued but not queued", ev.a);
                    live_bytes -= sizes[&ev.a];
                }
                // A queue-full victim may have been queued (FQ-CoDel); an
                // AQM victim always was; loss and link-down never were.
                TraceKind::PacketDrop => {
                    if live.remove(&ev.a) {
                        live_bytes -= sizes[&ev.a];
                    }
                }
                TraceKind::LinkBusy | TraceKind::LinkIdle => {
                    let to_busy = ev.kind == TraceKind::LinkBusy;
                    prop_assert!(busy != to_busy, "{ev}: busy and idle must alternate");
                    busy = to_busy;
                    prop_assert_eq!(
                        (ev.a, ev.b),
                        (live.len() as u64, live_bytes),
                        "{} does not carry the replayed occupancy",
                        ev
                    );
                }
                TraceKind::PacketDeliver => {}
                kind => prop_assert!(false, "{kind} on a link"),
            }
        }
        prop_assert_eq!((live.len(), live_bytes), sim.ctx().link_queue_len(link));
    }
}

proptest! {
    #[test]
    fn sparse_load_compact_trace_is_lossless(
        script in sparse_scripts(),
        discipline in 0usize..4,
        rate_zero in (0usize..2, 1usize..40, 1usize..20),
        down in (0usize..2, 1usize..40, 1usize..20),
        cut_us in 100_000u64..3_000_000,
    ) {
        let queue = match discipline {
            0 => QueueConfig::DropTail { cap_packets: 4 },
            1 => QueueConfig::codel_default(),
            2 => QueueConfig::fq_codel_default(),
            _ => QueueConfig::StrictPriority { bands: 4, cap_packets_per_band: 2 },
        };
        check_sparse_load(queue, script, rate_zero, down, cut_us);
    }

    #[test]
    fn droptail_events_reconcile(
        script in scripts(), cut_us in 1_000u64..200_000, loss in 0.0f64..0.3,
    ) {
        check_reconciliation(QueueConfig::DropTail { cap_packets: 16 }, loss, script, cut_us);
    }

    #[test]
    fn codel_events_reconcile(
        script in scripts(), cut_us in 1_000u64..200_000, loss in 0.0f64..0.3,
    ) {
        check_reconciliation(QueueConfig::codel_default(), loss, script, cut_us);
    }

    #[test]
    fn fq_codel_events_reconcile(
        script in scripts(), cut_us in 1_000u64..200_000, loss in 0.0f64..0.3,
    ) {
        check_reconciliation(QueueConfig::fq_codel_default(), loss, script, cut_us);
    }

    #[test]
    fn strict_priority_events_reconcile(
        script in scripts(), cut_us in 1_000u64..200_000, loss in 0.0f64..0.3,
    ) {
        check_reconciliation(
            QueueConfig::StrictPriority { bands: 4, cap_packets_per_band: 8 },
            loss,
            script,
            cut_us,
        );
    }
}
