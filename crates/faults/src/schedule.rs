//! Fault taxonomy and the schedule compiler.
//!
//! A [`FaultSpec`] is a declarative list of scripted fault *processes*: a
//! link outage (at t=2 s for 500 ms) and an edge-server crash. Compiling a
//! spec lowers every process into a flat, time-sorted list of
//! [`FaultEvent`]s. Nothing is drawn at random, so the schedule is a pure
//! function of the spec and the horizon.

use marnet_sim::engine::ActorId;
use marnet_sim::link::LinkId;
use marnet_sim::time::{SimDuration, SimTime};

/// What family of fault an event belongs to. The `u8` codes are stable and
/// appear as the `aux` byte of `fault-inject` / `fault-clear` trace events;
/// the gaps are the codes of retired families, never to be reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum FaultKind {
    /// A scripted one-shot link outage.
    Outage = 0,
    /// An edge-server crash/restart cycle.
    EdgeCrash = 6,
}

impl FaultKind {
    /// The stable trace `aux` code.
    pub fn code(self) -> u8 {
        self as u8
    }
}

/// The concrete state change a fault event applies. Actions are absolute
/// (they carry the value to set, not a delta), which keeps the injector
/// stateless: the compiler pairs every outage onset with a clear action
/// that brings the link back up.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultAction {
    /// Bring a link administratively up or down.
    LinkUp {
        /// The affected link.
        link: LinkId,
        /// The new administrative state.
        up: bool,
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
    Outage { links: Vec<LinkId>, at: SimTime, duration: SimDuration },
    EdgeCrash { server: ActorId, at: SimTime, down_for: SimDuration, lose_state: bool },
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

    /// Scripted one-shot outage: `links` go down at `at` and come back
    /// `duration` later.
    #[must_use]
    pub fn outage(mut self, links: Vec<LinkId>, at: SimTime, duration: SimDuration) -> Self {
        self.processes.push(FaultProcess::Outage { links, at, duration });
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
    /// Episodes are clamped to the horizon: an onset at or past `horizon`
    /// is dropped, and a clear past `horizon` is pulled back to `horizon`,
    /// so no fault outlives the schedule (the conservation property tests
    /// rely on this).
    pub fn compile(&self, horizon: SimTime) -> FaultSchedule {
        let mut events: Vec<FaultEvent> = Vec::new();
        for process in &self.processes {
            match *process {
                FaultProcess::Outage { ref links, at, duration } if at < horizon => {
                    let end = at.saturating_add(duration).min(horizon);
                    for &link in links {
                        events.push(FaultEvent {
                            at,
                            kind: FaultKind::Outage,
                            phase: FaultPhase::Onset,
                            action: FaultAction::LinkUp { link, up: false },
                        });
                        events.push(FaultEvent {
                            at: end,
                            kind: FaultKind::Outage,
                            phase: FaultPhase::Clear { onset: at },
                            action: FaultAction::LinkUp { link, up: true },
                        });
                    }
                }
                // The crash is a single event; the wrapper actor handles
                // its own restart timer, so no clear action is scheduled.
                FaultProcess::EdgeCrash { server, at, down_for, lose_state } if at < horizon => {
                    events.push(FaultEvent {
                        at,
                        kind: FaultKind::EdgeCrash,
                        phase: FaultPhase::Onset,
                        action: FaultAction::EdgeCrash { server, down_for, lose_state },
                    });
                }
                _ => {}
            }
        }
        // Stable sort: ties keep spec order, so the schedule is a pure
        // function of (spec, horizon).
        events.sort_by_key(|e| e.at);
        FaultSchedule { events }
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use marnet_sim::link::Bandwidth;

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
        let (l0, l1) = (link(0), link(1));
        let spec = FaultSpec::new()
            .outage(vec![l0, l1], SimTime::from_secs(5), SimDuration::from_millis(400))
            .outage(vec![l1], SimTime::from_secs(7), SimDuration::from_millis(300));
        let a = spec.compile(SimTime::from_secs(60));
        assert_eq!(a, spec.compile(SimTime::from_secs(60)));
        assert_eq!(a.events().len(), 6);
    }

    #[test]
    fn episodes_are_clamped_to_horizon() {
        let l = link(0);
        let spec =
            FaultSpec::new().outage(vec![l], SimTime::from_secs(9), SimDuration::from_secs(100));
        let sched = spec.compile(SimTime::from_secs(10));
        assert_eq!(sched.events().len(), 2);
        assert_eq!(sched.events()[1].at, SimTime::from_secs(10));
        // Onsets past the horizon are dropped entirely.
        let late = FaultSpec::new()
            .outage(vec![l], SimTime::from_secs(20), SimDuration::from_secs(1))
            .compile(SimTime::from_secs(10));
        assert!(late.events().is_empty());
    }

    #[test]
    fn events_are_sorted_and_paired() {
        let (l0, l1) = (link(0), link(1));
        let spec = FaultSpec::new()
            .outage(vec![l0], SimTime::from_secs(2), SimDuration::from_millis(500))
            .outage(vec![l1], SimTime::from_secs(1), SimDuration::from_secs(1));
        let sched = spec.compile(SimTime::from_secs(10));
        let times: Vec<_> = sched.events().iter().map(|e| e.at).collect();
        let mut sorted = times.clone();
        sorted.sort();
        assert_eq!(times, sorted);
        let onsets = sched.events().iter().filter(|e| e.phase == FaultPhase::Onset).count();
        assert_eq!(onsets, 2);
        assert_eq!(sched.events().len(), 4);
    }

    #[test]
    fn kind_codes_are_stable() {
        assert_eq!(FaultKind::Outage.code(), 0);
        assert_eq!(FaultKind::EdgeCrash.code(), 6);
    }
}
