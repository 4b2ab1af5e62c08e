//! Property-based chaos tests: arbitrary fault schedules replayed against
//! live traffic must never panic or wedge the simulator, must hand every
//! link back at its baseline parameters once the horizon passes (the
//! compiler's clamping contract), and must preserve packet conservation —
//! every packet offered to a link is delivered, dropped for an attributed
//! reason, or still sitting in the transmit queue.
//!
//! Edge-crash faults are exercised by the `marnet-bench` fault scenarios
//! (they need a live edge server); here the process mix covers the six
//! link-level fault families.

use marnet_faults::{FaultInjector, FaultPhase, FaultSpec};
use marnet_sim::engine::{Actor, Event, SimCtx, Simulator};
use marnet_sim::link::{Bandwidth, LinkId, LinkParams, LinkStats, LossModel};
use marnet_sim::packet::Packet;
use marnet_sim::time::{SimDuration, SimTime};
use proptest::prelude::*;

/// Baseline link parameters every schedule must restore by the horizon.
const BASE_RATE_MBPS: f64 = 10.0;
const BASE_DELAY_MS: u64 = 5;
/// Fault schedules are compiled against this horizon; the simulation runs
/// one extra second beyond it so queues drain at baseline rate.
const HORIZON_MS: u64 = 4_000;
const DRAIN_MS: u64 = 1_000;

/// One randomly drawn fault process, in milliseconds so shrinking stays
/// readable. Converted onto a concrete link via [`apply`].
#[derive(Debug, Clone)]
enum Proc {
    Outage { at_ms: u64, dur_ms: u64 },
    Flaps { mean_up_ms: u64, mean_down_ms: u64 },
    HandoverGaps { mean_interval_ms: u64, gap_ms: u64 },
    LossBurst { at_ms: u64, dur_ms: u64, permille: u32 },
    RandomLossBursts { mean_interval_ms: u64, mean_dur_ms: u64, permille: u32 },
    LatencySpike { at_ms: u64, dur_ms: u64, delay_ms: u64 },
    RateCut { at_ms: u64, dur_ms: u64, kbps: u32 },
}

fn proc_strategy() -> impl Strategy<Value = Proc> {
    prop_oneof![
        (0u64..5_000, 1u64..2_000).prop_map(|(at_ms, dur_ms)| Proc::Outage { at_ms, dur_ms }),
        (20u64..1_500, 10u64..500)
            .prop_map(|(mean_up_ms, mean_down_ms)| Proc::Flaps { mean_up_ms, mean_down_ms }),
        (50u64..2_000, 5u64..300)
            .prop_map(|(mean_interval_ms, gap_ms)| Proc::HandoverGaps { mean_interval_ms, gap_ms }),
        (0u64..5_000, 1u64..2_000, 1u32..950)
            .prop_map(|(at_ms, dur_ms, permille)| Proc::LossBurst { at_ms, dur_ms, permille }),
        (50u64..2_000, 5u64..500, 1u32..950).prop_map(
            |(mean_interval_ms, mean_dur_ms, permille)| {
                Proc::RandomLossBursts { mean_interval_ms, mean_dur_ms, permille }
            }
        ),
        (0u64..5_000, 1u64..2_000, 1u64..250)
            .prop_map(|(at_ms, dur_ms, delay_ms)| Proc::LatencySpike { at_ms, dur_ms, delay_ms }),
        (0u64..5_000, 1u64..2_000, 100u32..5_000).prop_map(|(at_ms, dur_ms, kbps)| Proc::RateCut {
            at_ms,
            dur_ms,
            kbps
        }),
    ]
}

/// A random plan: up to six processes, each targeting one of the two links.
fn plan_strategy() -> impl Strategy<Value = Vec<(Proc, usize)>> {
    prop::collection::vec((proc_strategy(), 0usize..2), 0..6)
}

/// Lowers the drawn plan onto a [`FaultSpec`] against the two bench links.
fn apply(plan: &[(Proc, usize)], links: &[LinkId; 2]) -> FaultSpec {
    let base_delay = SimDuration::from_millis(BASE_DELAY_MS);
    let base_rate = Bandwidth::from_mbps(BASE_RATE_MBPS);
    let mut spec = FaultSpec::new();
    for (proc, which) in plan {
        let l = links[*which];
        spec = match *proc {
            Proc::Outage { at_ms, dur_ms } => {
                spec.outage(vec![l], SimTime::from_millis(at_ms), SimDuration::from_millis(dur_ms))
            }
            Proc::Flaps { mean_up_ms, mean_down_ms } => spec.flaps(
                vec![l],
                SimDuration::from_millis(mean_up_ms),
                SimDuration::from_millis(mean_down_ms),
            ),
            Proc::HandoverGaps { mean_interval_ms, gap_ms } => spec.handover_gaps(
                vec![l],
                SimDuration::from_millis(mean_interval_ms),
                SimDuration::from_millis(gap_ms),
            ),
            Proc::LossBurst { at_ms, dur_ms, permille } => spec.loss_burst(
                l,
                SimTime::from_millis(at_ms),
                SimDuration::from_millis(dur_ms),
                LossModel::Bernoulli { p: f64::from(permille) / 1000.0 },
                LossModel::None,
            ),
            Proc::RandomLossBursts { mean_interval_ms, mean_dur_ms, permille } => spec
                .random_loss_bursts(
                    l,
                    SimDuration::from_millis(mean_interval_ms),
                    SimDuration::from_millis(mean_dur_ms),
                    LossModel::Bernoulli { p: f64::from(permille) / 1000.0 },
                    LossModel::None,
                ),
            Proc::LatencySpike { at_ms, dur_ms, delay_ms } => spec.latency_spike(
                l,
                SimTime::from_millis(at_ms),
                SimDuration::from_millis(dur_ms),
                SimDuration::from_millis(delay_ms),
                base_delay,
            ),
            Proc::RateCut { at_ms, dur_ms, kbps } => spec.rate_cut(
                l,
                SimTime::from_millis(at_ms),
                SimDuration::from_millis(dur_ms),
                Bandwidth::from_kbps(f64::from(kbps)),
                base_rate,
            ),
        };
    }
    spec
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
/// `(stats, queued_packets, up, delay, rate)`.
#[allow(clippy::type_complexity)]
fn run_chaos(
    plan: &[(Proc, usize)],
    seed: u64,
) -> Vec<(LinkStats, usize, bool, SimDuration, Bandwidth)> {
    let mut sim = Simulator::new(seed);
    let a = sim.add_actor(Sink);
    let b = sim.add_actor(Sink);
    let params = || {
        LinkParams::new(
            Bandwidth::from_mbps(BASE_RATE_MBPS),
            SimDuration::from_millis(BASE_DELAY_MS),
        )
    };
    let links = [sim.add_link(a, b, params()), sim.add_link(a, b, params())];
    let horizon = SimTime::from_millis(HORIZON_MS);
    sim.add_actor(Source { links, until: horizon });
    let sched = apply(plan, &links).compile(seed, horizon);
    sim.add_actor(FaultInjector::new(sched));
    sim.run_until(SimTime::from_millis(HORIZON_MS + DRAIN_MS));
    links
        .iter()
        .map(|&l| {
            let ctx = sim.ctx();
            (
                ctx.link_stats(l),
                ctx.link_queue_len(l).0,
                ctx.link_is_up(l),
                ctx.link_delay(l),
                ctx.link_rate(l),
            )
        })
        .collect()
}

proptest! {
    // Each case runs a full 5-simulated-second, two-link simulation (twice
    // for the determinism property); the default case count keeps the dev
    // cycle fast and CI's check job raises it via PROPTEST_CASES.

    /// Any random fault plan against live traffic completes without panics,
    /// restores both links to their baseline by the horizon, and conserves
    /// packets: offered = delivered + attributed drops + still queued.
    #[test]
    fn chaos_runs_complete_restore_links_and_conserve_packets(
        plan in plan_strategy(),
        seed in 0u64..1 << 32,
    ) {
        let end = run_chaos(&plan, seed);
        for (i, (stats, queued, up, delay, rate)) in end.iter().enumerate() {
            prop_assert!(up, "link {i} still down after the horizon");
            prop_assert_eq!(
                *delay,
                SimDuration::from_millis(BASE_DELAY_MS),
                "link {} delay not restored", i
            );
            prop_assert_eq!(
                *rate,
                Bandwidth::from_mbps(BASE_RATE_MBPS),
                "link {} rate not restored", i
            );
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
    fn compiled_schedules_are_sorted_clamped_and_paired(
        plan in plan_strategy(),
        seed in 0u64..1 << 32,
    ) {
        let mut sim = Simulator::new(seed);
        let a = sim.add_actor(Sink);
        let b = sim.add_actor(Sink);
        let params = LinkParams::new(
            Bandwidth::from_mbps(BASE_RATE_MBPS),
            SimDuration::from_millis(BASE_DELAY_MS),
        );
        let links = [sim.add_link(a, b, params.clone()), sim.add_link(a, b, params)];
        let horizon = SimTime::from_millis(HORIZON_MS);
        let spec = apply(&plan, &links);
        let sched = spec.compile(seed, horizon);
        prop_assert_eq!(&sched, &spec.compile(seed, horizon), "compile is not deterministic");

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
        // No edge-crash processes in the plan, so every onset has a clear.
        prop_assert_eq!(onsets, clears, "unpaired fault episode");
    }
}
