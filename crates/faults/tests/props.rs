//! Property-based chaos tests: arbitrary outage plans replayed against
//! live traffic must never panic or wedge the simulator, must hand every
//! link back up once the horizon passes (the compiler's clamping
//! contract), and must preserve packet conservation — every packet offered
//! to a link is delivered, dropped for an attributed reason, or still
//! sitting in the transmit queue.
//!
//! Edge-crash faults are exercised by the `marnet-bench` fault scenarios
//! (they need a live edge server); here the plans are up to six random,
//! possibly overlapping link outages on two links.

use marnet_faults::{FaultInjector, FaultPhase, FaultSpec};
use marnet_sim::engine::{Actor, Event, SimCtx, Simulator};
use marnet_sim::link::{Bandwidth, LinkId, LinkParams, LinkStats};
use marnet_sim::packet::Packet;
use marnet_sim::time::{SimDuration, SimTime};
use proptest::prelude::*;

const RATE_MBPS: f64 = 10.0;
const DELAY_MS: u64 = 5;
/// Fault schedules are compiled against this horizon; the simulation runs
/// one extra second beyond it so queues drain.
const HORIZON_MS: u64 = 4_000;
const DRAIN_MS: u64 = 1_000;

/// A random plan: up to six outages `(at_ms, dur_ms, link)`, each on one of
/// the two links, in milliseconds so shrinking stays readable.
fn plan_strategy() -> impl Strategy<Value = Vec<(u64, u64, usize)>> {
    prop::collection::vec((0u64..5_000, 1u64..2_000, 0usize..2), 0..6)
}

/// Lowers the drawn plan onto a [`FaultSpec`] against the two bench links.
fn apply(plan: &[(u64, u64, usize)], links: &[LinkId; 2]) -> FaultSpec {
    plan.iter().fold(FaultSpec::new(), |spec, &(at_ms, dur_ms, which)| {
        spec.outage(
            vec![links[which]],
            SimTime::from_millis(at_ms),
            SimDuration::from_millis(dur_ms),
        )
    })
}

/// Timer-driven source: a 500-byte packet on each link every 2 ms until
/// `until`, whatever the fault layer is doing to those links.
struct Source {
    links: [LinkId; 2],
    until: SimTime,
}

impl Actor for Source {
    fn on_event(&mut self, ctx: &mut SimCtx, ev: Event) {
        if matches!(ev, Event::Start | Event::Timer { .. }) && ctx.now() < self.until {
            for l in self.links {
                let id = ctx.next_packet_id();
                ctx.transmit(l, Packet::new(id, 1, 500, ctx.now()));
            }
            ctx.schedule_timer(SimDuration::from_millis(2), 0);
        }
    }
}

/// Passive receiver; delivery is accounted by the link-level counters.
struct Sink;

impl Actor for Sink {
    fn on_event(&mut self, _: &mut SimCtx, _: Event) {}
}

/// Builds the two-link topology, replays the plan's compiled schedule
/// against live traffic, and returns the per-link end state:
/// `(stats, queued_packets, up)`.
fn run_chaos(plan: &[(u64, u64, usize)], seed: u64) -> Vec<(LinkStats, usize, bool)> {
    let mut sim = Simulator::new(seed);
    let a = sim.add_actor(Sink);
    let b = sim.add_actor(Sink);
    let params =
        || LinkParams::new(Bandwidth::from_mbps(RATE_MBPS), SimDuration::from_millis(DELAY_MS));
    let links = [sim.add_link(a, b, params()), sim.add_link(a, b, params())];
    let horizon = SimTime::from_millis(HORIZON_MS);
    sim.add_actor(Source { links, until: horizon });
    let sched = apply(plan, &links).compile(horizon);
    sim.add_actor(FaultInjector::new(sched));
    sim.run_until(SimTime::from_millis(HORIZON_MS + DRAIN_MS));
    links
        .iter()
        .map(|&l| {
            let ctx = sim.ctx();
            (ctx.link_stats(l), ctx.link_queue_len(l).0, ctx.link_is_up(l))
        })
        .collect()
}

proptest! {
    // Each case runs a full 5-simulated-second, two-link simulation (twice
    // for the determinism property); the default case count keeps the dev
    // cycle fast and CI's check job raises it via PROPTEST_CASES.

    /// Any random outage plan against live traffic completes without
    /// panics, brings both links back up by the horizon, and conserves
    /// packets: offered = delivered + attributed drops + still queued.
    #[test]
    fn chaos_runs_complete_restore_links_and_conserve_packets(
        plan in plan_strategy(),
        seed in 0u64..1 << 32,
    ) {
        let end = run_chaos(&plan, seed);
        for (i, (stats, queued, up)) in end.iter().enumerate() {
            prop_assert!(up, "link {i} still down after the horizon");
            prop_assert!(stats.offered_packets > 0, "source never offered traffic");
            prop_assert_eq!(
                stats.offered_packets,
                stats.delivered_packets
                    + stats.drops_queue
                    + stats.drops_aqm
                    + stats.drops_loss
                    + stats.drops_down
                    + *queued as u64,
                "packet conservation violated on link {}: {:?} (+{} queued)",
                i, stats, queued
            );
        }
    }

    /// The whole pipeline — compile, inject, simulate — is a pure function
    /// of `(plan, seed)`: replaying it gives bit-identical link counters.
    #[test]
    fn chaos_runs_are_deterministic(
        plan in plan_strategy(),
        seed in 0u64..1 << 32,
    ) {
        prop_assert_eq!(run_chaos(&plan, seed), run_chaos(&plan, seed));
    }
}

proptest! {
    /// Compiled schedules are well-formed for any plan: time-sorted, every
    /// event inside `[0, horizon]`, onsets and clears paired one-to-one,
    /// and each clear closing an episode that began at or before it.
    #[test]
    fn compiled_schedules_are_sorted_clamped_and_paired(plan in plan_strategy()) {
        let mut sim = Simulator::new(0);
        let a = sim.add_actor(Sink);
        let b = sim.add_actor(Sink);
        let params =
            LinkParams::new(Bandwidth::from_mbps(RATE_MBPS), SimDuration::from_millis(DELAY_MS));
        let links = [sim.add_link(a, b, params.clone()), sim.add_link(a, b, params)];
        let horizon = SimTime::from_millis(HORIZON_MS);
        let spec = apply(&plan, &links);
        let sched = spec.compile(horizon);
        prop_assert_eq!(&sched, &spec.compile(horizon), "compile is not deterministic");

        let mut onsets = 0usize;
        let mut clears = 0usize;
        let mut prev = SimTime::ZERO;
        for ev in sched.events() {
            prop_assert!(ev.at >= prev, "schedule not time-sorted");
            prop_assert!(ev.at <= horizon, "event past the horizon");
            prev = ev.at;
            match ev.phase {
                FaultPhase::Onset => onsets += 1,
                FaultPhase::Clear { onset } => {
                    clears += 1;
                    prop_assert!(onset <= ev.at, "clear precedes its own onset");
                    prop_assert!(onset < horizon, "episode begins at/after the horizon");
                }
            }
        }
        // Outages only, so every onset has a clear.
        prop_assert_eq!(onsets, clears, "unpaired fault episode");
    }
}
