//! Fault taxonomy and the deterministic schedule compiler.
//!
//! A [`FaultSpec`] is a declarative list of fault *processes* — scripted
//! one-shots (an outage at t=2 s for 500 ms) and stochastic renewal
//! processes (link flaps, handover gaps, random loss bursts). Compiling a
//! spec lowers every process into a flat, time-sorted list of
//! [`FaultEvent`]s; all randomness comes from ChaCha12 substreams derived
//! from `(seed, process index, process tag)`, so the same spec and seed
//! always produce the same schedule regardless of thread count.

use marnet_sim::engine::ActorId;
use marnet_sim::link::{Bandwidth, LinkId, LossModel};
use marnet_sim::rng::derive_rng;
use marnet_sim::time::{SimDuration, SimTime};
use rand::Rng;
use rand_chacha::ChaCha12Rng;

/// What family of fault an event belongs to. The `u8` codes are stable and
/// appear as the `aux` byte of `fault-inject` / `fault-clear` trace events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum FaultKind {
    /// A scripted one-shot link outage.
    Outage = 0,
    /// One down-spell of the two-state flap process.
    Flap = 1,
    /// A handover gap (short outage from the renewal gap process).
    HandoverGap = 2,
    /// A burst-loss episode (loss model swapped for the burst duration).
    LossBurst = 3,
    /// A latency spike (propagation delay raised for the spike duration).
    LatencySpike = 4,
    /// A rate cut (transmission rate lowered for the episode).
    RateCut = 5,
    /// An edge-server crash/restart cycle.
    EdgeCrash = 6,
}

impl FaultKind {
    /// The stable trace `aux` code.
    pub fn code(self) -> u8 {
        self as u8
    }

    /// Stable lowercase name (for reports and docs).
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Outage => "outage",
            FaultKind::Flap => "flap",
            FaultKind::HandoverGap => "handover-gap",
            FaultKind::LossBurst => "loss-burst",
            FaultKind::LatencySpike => "latency-spike",
            FaultKind::RateCut => "rate-cut",
            FaultKind::EdgeCrash => "edge-crash",
        }
    }
}

/// The concrete state change a fault event applies. Actions are absolute
/// (they carry the value to set, not a delta), which keeps the injector
/// stateless: the compiler pairs every onset with a clear action that
/// restores the captured baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultAction {
    /// Bring a link administratively up or down.
    LinkUp {
        /// The affected link.
        link: LinkId,
        /// The new administrative state.
        up: bool,
    },
    /// Replace a link's loss model.
    LinkLoss {
        /// The affected link.
        link: LinkId,
        /// The loss model to install.
        loss: LossModel,
    },
    /// Replace a link's one-way propagation delay.
    LinkDelay {
        /// The affected link.
        link: LinkId,
        /// The delay to install.
        delay: SimDuration,
    },
    /// Replace a link's transmission rate.
    LinkRate {
        /// The affected link.
        link: LinkId,
        /// The rate to install.
        rate: Bandwidth,
    },
    /// Crash an edge server: the injector sends [`crate::inject::EdgeFault`]
    /// to the server's wrapper actor, which goes dark and restarts itself.
    EdgeCrash {
        /// The wrapper actor hosting the server.
        server: ActorId,
        /// How long the server stays down.
        down_for: SimDuration,
        /// Whether session state is lost across the restart.
        lose_state: bool,
    },
}

/// Whether an event starts a fault episode or ends one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPhase {
    /// The fault begins.
    Onset,
    /// The fault ends; `onset` is when it began (for trace durations).
    Clear {
        /// Start of the episode this event closes.
        onset: SimTime,
    },
}

/// One scheduled fault transition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// When the transition happens.
    pub at: SimTime,
    /// The fault family (trace `aux` code).
    pub kind: FaultKind,
    /// Onset or clear.
    pub phase: FaultPhase,
    /// The state change to apply.
    pub action: FaultAction,
}

/// One fault process in a [`FaultSpec`].
#[derive(Debug, Clone)]
enum FaultProcess {
    Outage {
        links: Vec<LinkId>,
        at: SimTime,
        duration: SimDuration,
    },
    Flaps {
        links: Vec<LinkId>,
        mean_up: SimDuration,
        mean_down: SimDuration,
    },
    HandoverGaps {
        links: Vec<LinkId>,
        mean_interval: SimDuration,
        gap: SimDuration,
    },
    LossBurst {
        link: LinkId,
        at: SimTime,
        duration: SimDuration,
        loss: LossModel,
        baseline: LossModel,
    },
    RandomLossBursts {
        link: LinkId,
        mean_interval: SimDuration,
        mean_duration: SimDuration,
        loss: LossModel,
        baseline: LossModel,
    },
    LatencySpike {
        link: LinkId,
        at: SimTime,
        duration: SimDuration,
        delay: SimDuration,
        baseline: SimDuration,
    },
    RateCut {
        link: LinkId,
        at: SimTime,
        duration: SimDuration,
        rate: Bandwidth,
        baseline: Bandwidth,
    },
    EdgeCrash {
        server: ActorId,
        at: SimTime,
        down_for: SimDuration,
        lose_state: bool,
    },
}

impl FaultProcess {
    fn tag(&self) -> &'static str {
        match self {
            FaultProcess::Outage { .. } => "outage",
            FaultProcess::Flaps { .. } => "flaps",
            FaultProcess::HandoverGaps { .. } => "handover",
            FaultProcess::LossBurst { .. } => "loss-burst",
            FaultProcess::RandomLossBursts { .. } => "loss-bursts",
            FaultProcess::LatencySpike { .. } => "latency-spike",
            FaultProcess::RateCut { .. } => "rate-cut",
            FaultProcess::EdgeCrash { .. } => "edge-crash",
        }
    }
}

/// Declarative fault plan: an ordered list of fault processes, compiled
/// into a [`FaultSchedule`] with [`FaultSpec::compile`].
#[derive(Debug, Clone, Default)]
pub struct FaultSpec {
    processes: Vec<FaultProcess>,
}

impl FaultSpec {
    /// An empty spec (compiles to an empty schedule).
    pub fn new() -> Self {
        FaultSpec::default()
    }

    /// Number of fault processes in the spec.
    pub fn len(&self) -> usize {
        self.processes.len()
    }

    /// `true` if the spec has no processes.
    pub fn is_empty(&self) -> bool {
        self.processes.is_empty()
    }

    /// Scripted one-shot outage: `links` go down at `at` and come back
    /// `duration` later.
    #[must_use]
    pub fn outage(mut self, links: Vec<LinkId>, at: SimTime, duration: SimDuration) -> Self {
        self.processes.push(FaultProcess::Outage { links, at, duration });
        self
    }

    /// Two-state flap process: `links` alternate up-spells (exponential,
    /// mean `mean_up`) and down-spells (exponential, mean `mean_down`),
    /// starting up. The Gilbert up/down analogue of the link layer's
    /// Gilbert-Elliott packet-loss process.
    #[must_use]
    pub fn flaps(
        mut self,
        links: Vec<LinkId>,
        mean_up: SimDuration,
        mean_down: SimDuration,
    ) -> Self {
        self.processes.push(FaultProcess::Flaps { links, mean_up, mean_down });
        self
    }

    /// Handover-gap renewal process: every ~`mean_interval` (exponential)
    /// the links drop for a fixed `gap` — the §IV-A-4 association gap.
    #[must_use]
    pub fn handover_gaps(
        mut self,
        links: Vec<LinkId>,
        mean_interval: SimDuration,
        gap: SimDuration,
    ) -> Self {
        self.processes.push(FaultProcess::HandoverGaps { links, mean_interval, gap });
        self
    }

    /// Scripted burst-loss episode: `link`'s loss model becomes `loss` at
    /// `at` and reverts to `baseline` after `duration`.
    #[must_use]
    pub fn loss_burst(
        mut self,
        link: LinkId,
        at: SimTime,
        duration: SimDuration,
        loss: LossModel,
        baseline: LossModel,
    ) -> Self {
        self.processes.push(FaultProcess::LossBurst { link, at, duration, loss, baseline });
        self
    }

    /// Random burst-loss episodes on `link`: exponential inter-burst gaps
    /// (mean `mean_interval`) and burst lengths (mean `mean_duration`).
    #[must_use]
    pub fn random_loss_bursts(
        mut self,
        link: LinkId,
        mean_interval: SimDuration,
        mean_duration: SimDuration,
        loss: LossModel,
        baseline: LossModel,
    ) -> Self {
        self.processes.push(FaultProcess::RandomLossBursts {
            link,
            mean_interval,
            mean_duration,
            loss,
            baseline,
        });
        self
    }

    /// Scripted latency spike: `link`'s propagation delay becomes `delay`
    /// at `at` and reverts to `baseline` after `duration`.
    #[must_use]
    pub fn latency_spike(
        mut self,
        link: LinkId,
        at: SimTime,
        duration: SimDuration,
        delay: SimDuration,
        baseline: SimDuration,
    ) -> Self {
        self.processes.push(FaultProcess::LatencySpike { link, at, duration, delay, baseline });
        self
    }

    /// Scripted rate cut: `link`'s rate becomes `rate` at `at` and reverts
    /// to `baseline` after `duration`.
    #[must_use]
    pub fn rate_cut(
        mut self,
        link: LinkId,
        at: SimTime,
        duration: SimDuration,
        rate: Bandwidth,
        baseline: Bandwidth,
    ) -> Self {
        self.processes.push(FaultProcess::RateCut { link, at, duration, rate, baseline });
        self
    }

    /// Scripted edge-server crash at `at`: the wrapper actor `server` goes
    /// dark for `down_for`, losing session state if `lose_state`.
    #[must_use]
    pub fn edge_crash(
        mut self,
        server: ActorId,
        at: SimTime,
        down_for: SimDuration,
        lose_state: bool,
    ) -> Self {
        self.processes.push(FaultProcess::EdgeCrash { server, at, down_for, lose_state });
        self
    }

    /// Compiles the spec into a time-sorted schedule covering `[0, horizon)`.
    ///
    /// Every stochastic process draws from its own substream labelled
    /// `faults/{index}/{tag}`, so adding a process never perturbs the draws
    /// of existing ones. Episodes are clamped to the horizon: an onset at or
    /// past `horizon` is dropped, and a clear past `horizon` is pulled back
    /// to `horizon`, so no fault outlives the schedule (the conservation
    /// property tests rely on this).
    pub fn compile(&self, seed: u64, horizon: SimTime) -> FaultSchedule {
        let mut events: Vec<FaultEvent> = Vec::new();
        for (i, proc) in self.processes.iter().enumerate() {
            let mut rng = derive_rng(seed, &format!("faults/{i}/{}", proc.tag()));
            compile_process(proc, horizon, &mut rng, &mut events);
        }
        // Stable sort: ties keep spec order, so the schedule is a pure
        // function of (spec, seed, horizon).
        events.sort_by_key(|e| e.at);
        FaultSchedule { events }
    }
}

/// Exponential draw with the given mean, clamped away from zero.
fn exp_draw(rng: &mut ChaCha12Rng, mean: SimDuration) -> SimDuration {
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    SimDuration::from_secs_f64((-u.ln() * mean.as_secs_f64()).max(1e-3))
}

/// Pushes an onset/clear pair for one episode, clamped to the horizon.
#[allow(clippy::too_many_arguments)]
fn push_episode(
    events: &mut Vec<FaultEvent>,
    kind: FaultKind,
    at: SimTime,
    duration: SimDuration,
    horizon: SimTime,
    onset: FaultAction,
    clear: FaultAction,
) {
    if at >= horizon {
        return;
    }
    let end = at.saturating_add(duration).min(horizon);
    events.push(FaultEvent { at, kind, phase: FaultPhase::Onset, action: onset });
    events.push(FaultEvent {
        at: end,
        kind,
        phase: FaultPhase::Clear { onset: at },
        action: clear,
    });
}

fn compile_process(
    proc: &FaultProcess,
    horizon: SimTime,
    rng: &mut ChaCha12Rng,
    events: &mut Vec<FaultEvent>,
) {
    match proc {
        FaultProcess::Outage { links, at, duration } => {
            for &l in links {
                push_episode(
                    events,
                    FaultKind::Outage,
                    *at,
                    *duration,
                    horizon,
                    FaultAction::LinkUp { link: l, up: false },
                    FaultAction::LinkUp { link: l, up: true },
                );
            }
        }
        FaultProcess::Flaps { links, mean_up, mean_down } => {
            let mut t = SimTime::ZERO;
            loop {
                t = t.saturating_add(exp_draw(rng, *mean_up));
                if t >= horizon {
                    break;
                }
                let down = exp_draw(rng, *mean_down);
                for &l in links {
                    push_episode(
                        events,
                        FaultKind::Flap,
                        t,
                        down,
                        horizon,
                        FaultAction::LinkUp { link: l, up: false },
                        FaultAction::LinkUp { link: l, up: true },
                    );
                }
                t = t.saturating_add(down);
            }
        }
        FaultProcess::HandoverGaps { links, mean_interval, gap } => {
            let mut t = SimTime::ZERO;
            loop {
                t = t.saturating_add(exp_draw(rng, *mean_interval));
                if t >= horizon {
                    break;
                }
                for &l in links {
                    push_episode(
                        events,
                        FaultKind::HandoverGap,
                        t,
                        *gap,
                        horizon,
                        FaultAction::LinkUp { link: l, up: false },
                        FaultAction::LinkUp { link: l, up: true },
                    );
                }
                t = t.saturating_add(*gap);
            }
        }
        FaultProcess::LossBurst { link, at, duration, loss, baseline } => {
            push_episode(
                events,
                FaultKind::LossBurst,
                *at,
                *duration,
                horizon,
                FaultAction::LinkLoss { link: *link, loss: *loss },
                FaultAction::LinkLoss { link: *link, loss: *baseline },
            );
        }
        FaultProcess::RandomLossBursts { link, mean_interval, mean_duration, loss, baseline } => {
            let mut t = SimTime::ZERO;
            loop {
                t = t.saturating_add(exp_draw(rng, *mean_interval));
                if t >= horizon {
                    break;
                }
                let burst = exp_draw(rng, *mean_duration);
                push_episode(
                    events,
                    FaultKind::LossBurst,
                    t,
                    burst,
                    horizon,
                    FaultAction::LinkLoss { link: *link, loss: *loss },
                    FaultAction::LinkLoss { link: *link, loss: *baseline },
                );
                t = t.saturating_add(burst);
            }
        }
        FaultProcess::LatencySpike { link, at, duration, delay, baseline } => {
            push_episode(
                events,
                FaultKind::LatencySpike,
                *at,
                *duration,
                horizon,
                FaultAction::LinkDelay { link: *link, delay: *delay },
                FaultAction::LinkDelay { link: *link, delay: *baseline },
            );
        }
        FaultProcess::RateCut { link, at, duration, rate, baseline } => {
            push_episode(
                events,
                FaultKind::RateCut,
                *at,
                *duration,
                horizon,
                FaultAction::LinkRate { link: *link, rate: *rate },
                FaultAction::LinkRate { link: *link, rate: *baseline },
            );
        }
        FaultProcess::EdgeCrash { server, at, down_for, lose_state } => {
            if *at >= horizon {
                return;
            }
            // The crash is a single event; the wrapper actor handles its
            // own restart timer, so no clear action is scheduled here.
            events.push(FaultEvent {
                at: *at,
                kind: FaultKind::EdgeCrash,
                phase: FaultPhase::Onset,
                action: FaultAction::EdgeCrash {
                    server: *server,
                    down_for: *down_for,
                    lose_state: *lose_state,
                },
            });
        }
    }
}

/// A compiled, time-sorted fault schedule, ready for [`crate::FaultInjector`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultSchedule {
    events: Vec<FaultEvent>,
}

impl FaultSchedule {
    /// The scheduled events in time order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` if nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Total time at least one link-down episode is active (union of
    /// `LinkUp{up: false}` episodes), for reports.
    pub fn downtime(&self) -> SimDuration {
        let mut spans: Vec<(SimTime, SimTime)> = Vec::new();
        for ev in &self.events {
            if let (FaultPhase::Clear { onset }, FaultAction::LinkUp { up: true, .. }) =
                (ev.phase, ev.action)
            {
                spans.push((onset, ev.at));
            }
        }
        spans.sort();
        let mut total = SimDuration::ZERO;
        let mut cur: Option<(SimTime, SimTime)> = None;
        for (s, e) in spans {
            match cur {
                Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
                Some((cs, ce)) => {
                    total += ce - cs;
                    cur = Some((s, e));
                }
                None => cur = Some((s, e)),
            }
        }
        if let Some((cs, ce)) = cur {
            total += ce - cs;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link(i: u32) -> LinkId {
        // LinkId's field is crate-private; round-trip through a simulator.
        let mut sim = marnet_sim::engine::Simulator::new(1);
        struct Idle;
        impl marnet_sim::engine::Actor for Idle {
            fn on_event(
                &mut self,
                _: &mut marnet_sim::engine::SimCtx,
                _: marnet_sim::engine::Event,
            ) {
            }
        }
        let a = sim.add_actor(Idle);
        let b = sim.add_actor(Idle);
        let mut last = None;
        for _ in 0..=i {
            last = Some(sim.add_link(
                a,
                b,
                marnet_sim::link::LinkParams::new(Bandwidth::from_mbps(1.0), SimDuration::ZERO),
            ));
        }
        last.unwrap()
    }

    #[test]
    fn compile_is_deterministic() {
        let l = link(0);
        let spec = FaultSpec::new()
            .flaps(vec![l], SimDuration::from_secs(5), SimDuration::from_millis(400))
            .handover_gaps(vec![l], SimDuration::from_secs(7), SimDuration::from_millis(300));
        let a = spec.compile(42, SimTime::from_secs(60));
        let b = spec.compile(42, SimTime::from_secs(60));
        assert_eq!(a, b);
        assert!(!a.is_empty());
        let c = spec.compile(43, SimTime::from_secs(60));
        assert_ne!(a, c, "different seeds must give different schedules");
    }

    #[test]
    fn substreams_are_insulated() {
        // Adding a later process must not perturb an earlier one's draws.
        let l = link(0);
        let base = FaultSpec::new().flaps(
            vec![l],
            SimDuration::from_secs(5),
            SimDuration::from_millis(400),
        );
        let extended = base.clone().handover_gaps(
            vec![l],
            SimDuration::from_secs(9),
            SimDuration::from_millis(250),
        );
        let a = base.compile(7, SimTime::from_secs(30));
        let b = extended.compile(7, SimTime::from_secs(30));
        let flaps_only: Vec<_> =
            b.events().iter().filter(|e| e.kind == FaultKind::Flap).copied().collect();
        assert_eq!(a.events(), flaps_only.as_slice());
    }

    #[test]
    fn episodes_are_clamped_to_horizon() {
        let l = link(0);
        let spec =
            FaultSpec::new().outage(vec![l], SimTime::from_secs(9), SimDuration::from_secs(100));
        let sched = spec.compile(1, SimTime::from_secs(10));
        assert_eq!(sched.len(), 2);
        assert_eq!(sched.events()[1].at, SimTime::from_secs(10));
        // Onsets past the horizon are dropped entirely.
        let late = FaultSpec::new()
            .outage(vec![l], SimTime::from_secs(20), SimDuration::from_secs(1))
            .compile(1, SimTime::from_secs(10));
        assert!(late.is_empty());
    }

    #[test]
    fn events_are_sorted_and_paired() {
        let l = link(0);
        let spec = FaultSpec::new()
            .outage(vec![l], SimTime::from_secs(2), SimDuration::from_millis(500))
            .loss_burst(
                l,
                SimTime::from_secs(1),
                SimDuration::from_secs(1),
                LossModel::Bernoulli { p: 0.5 },
                LossModel::None,
            );
        let sched = spec.compile(3, SimTime::from_secs(10));
        let times: Vec<_> = sched.events().iter().map(|e| e.at).collect();
        let mut sorted = times.clone();
        sorted.sort();
        assert_eq!(times, sorted);
        let onsets = sched.events().iter().filter(|e| e.phase == FaultPhase::Onset).count();
        assert_eq!(onsets, 2);
        assert_eq!(sched.len(), 4);
    }

    #[test]
    fn downtime_unions_overlapping_outages() {
        let l0 = link(0);
        let sched = FaultSpec::new()
            .outage(vec![l0], SimTime::from_secs(1), SimDuration::from_secs(2))
            .outage(vec![l0], SimTime::from_secs(2), SimDuration::from_secs(2))
            .compile(1, SimTime::from_secs(10));
        assert_eq!(sched.downtime(), SimDuration::from_secs(3));
    }

    #[test]
    fn kind_codes_are_stable() {
        assert_eq!(FaultKind::Outage.code(), 0);
        assert_eq!(FaultKind::EdgeCrash.code(), 6);
        assert_eq!(FaultKind::LossBurst.name(), "loss-burst");
    }
}
