//! The [`FaultInjector`] actor: walks a compiled [`FaultSchedule`] and
//! applies each transition to the running simulation, emitting a
//! flight-recorder event (`fault-inject` / `fault-clear`) per transition so
//! `marnet-trace` can reconstruct the outage timeline.

use crate::schedule::{FaultAction, FaultEvent, FaultPhase, FaultSchedule};
use marnet_sim::engine::{Actor, Event, SimCtx};
use marnet_sim::packet::Payload;
use marnet_sim::time::SimDuration;
use marnet_telemetry::event::{component, TraceEvent};

/// Message the injector sends to an edge server's wrapper actor to make it
/// crash. The wrapper (see `marnet-edge`'s session module) goes dark for
/// `down_for`, then restarts — dropping its session state first when
/// `lose_state` is set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeFault {
    /// How long the server stays down before restarting.
    pub down_for: SimDuration,
    /// Whether session state is lost across the restart.
    pub lose_state: bool,
}

/// Actor that replays a [`FaultSchedule`] against the simulation.
///
/// Add it to the simulator alongside the workload actors; it wakes exactly
/// at each scheduled transition (timer tag 0) and applies the action via
/// [`SimCtx::set_link_up`] or an [`EdgeFault`] message.
#[derive(Debug)]
pub struct FaultInjector {
    schedule: FaultSchedule,
    next: usize,
}

impl FaultInjector {
    /// Creates an injector replaying `schedule`.
    pub fn new(schedule: FaultSchedule) -> Self {
        FaultInjector { schedule, next: 0 }
    }

    fn apply(&mut self, ctx: &mut SimCtx) {
        while self.next < self.schedule.events().len() {
            let ev = self.schedule.events()[self.next];
            if ev.at > ctx.now() {
                ctx.schedule_timer(ev.at - ctx.now(), 0);
                return;
            }
            self.perform(ctx, ev);
            self.next += 1;
        }
    }

    fn perform(&mut self, ctx: &mut SimCtx, ev: FaultEvent) {
        let (target, param) = match ev.action {
            FaultAction::LinkUp { link, up } => {
                ctx.set_link_up(link, up);
                (u64::from(component::link(link.index())), u64::from(up))
            }
            FaultAction::EdgeCrash { server, down_for, lose_state } => {
                ctx.send_message(server, Payload::new(EdgeFault { down_for, lose_state }));
                (server.index() as u64, down_for.as_nanos())
            }
        };
        let t = ctx.now().as_nanos();
        let comp = component::actor(ctx.self_id().index());
        let code = ev.kind.code();
        match ev.phase {
            FaultPhase::Onset => {
                ctx.trace_with(|| TraceEvent::fault_inject(t, comp, code, target, param));
            }
            FaultPhase::Clear { onset } => {
                let dur = (ev.at - onset).as_nanos();
                ctx.trace_with(|| TraceEvent::fault_clear(t, comp, code, target, dur));
            }
        }
    }
}

impl Actor for FaultInjector {
    fn on_event(&mut self, ctx: &mut SimCtx, ev: Event) {
        if matches!(ev, Event::Start | Event::Timer { .. }) {
            self.apply(ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::FaultSpec;
    use marnet_sim::engine::Simulator;
    use marnet_sim::link::{Bandwidth, LinkParams};
    use marnet_sim::time::SimTime;
    use marnet_telemetry::event::TraceKind;

    struct Idle;
    impl Actor for Idle {
        fn on_event(&mut self, _: &mut SimCtx, _: Event) {}
    }

    #[test]
    fn injector_applies_outage_and_restores() {
        let mut sim = Simulator::new(9);
        let a = sim.add_actor(Idle);
        let b = sim.add_actor(Idle);
        let l = sim.add_link(
            a,
            b,
            LinkParams::new(Bandwidth::from_mbps(10.0), SimDuration::from_millis(5)),
        );
        let sched = FaultSpec::new()
            .outage(vec![l], SimTime::from_secs(1), SimDuration::from_millis(500))
            .compile(SimTime::from_secs(5));
        sim.add_actor(FaultInjector::new(sched));
        sim.run_until(SimTime::from_millis(1100));
        assert!(!sim.ctx().link_is_up(l), "link should be down during outage");
        sim.run_until(SimTime::from_secs(2));
        assert!(sim.ctx().link_is_up(l), "link should recover after outage");
    }

    #[test]
    fn injector_emits_paired_trace_events() {
        let mut sim = Simulator::new(11);
        let a = sim.add_actor(Idle);
        let b = sim.add_actor(Idle);
        let l = sim.add_link(
            a,
            b,
            LinkParams::new(Bandwidth::from_mbps(10.0), SimDuration::from_millis(5)),
        );
        let sched = FaultSpec::new()
            .outage(vec![l], SimTime::from_secs(1), SimDuration::from_millis(500))
            .compile(SimTime::from_secs(5));
        sim.add_actor(FaultInjector::new(sched));
        sim.enable_flight_recorder(1024);
        sim.run_until(SimTime::from_secs(3));
        let trace = sim.take_trace();
        let injects: Vec<_> = trace.iter().filter(|e| e.kind == TraceKind::FaultInject).collect();
        let clears: Vec<_> = trace.iter().filter(|e| e.kind == TraceKind::FaultClear).collect();
        assert_eq!(injects.len(), 1);
        assert_eq!(clears.len(), 1);
        assert_eq!(injects[0].t, SimTime::from_secs(1).as_nanos());
        assert_eq!(clears[0].b, SimDuration::from_millis(500).as_nanos());
    }
}
