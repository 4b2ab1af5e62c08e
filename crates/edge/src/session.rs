//! Crash/restart session management for edge servers.
//!
//! An edge server is not a datacenter: it can lose power, reboot for an
//! upgrade, or get migrated. This module wraps a protocol receiver in a
//! [`RestartableServer`] that
//! understands the [`EdgeFault`] message injected by `marnet-faults`:
//!
//! * while **down**, every packet and timer addressed to the server
//!   vanishes, exactly as if the process were dead;
//! * at **restart**, a crash that lost state re-establishes the session —
//!   the receiver bumps its epoch (advertised in feedback, so the sender
//!   re-syncs its sequence spaces);
//! * the receiver's self-rescheduling feedback chain, broken when its timer
//!   fired into the void, is re-armed so feedback resumes.
//!
//! Every transition emits a flight-recorder event ([`TraceEvent::edge_crash`]
//! / [`TraceEvent::edge_restart`]) so `marnet-trace` can reconstruct the
//! outage timeline.

use marnet_core::endpoint::ArReceiver;
use marnet_faults::inject::EdgeFault;
use marnet_sim::engine::{Actor, Event, SimCtx};
use marnet_sim::time::SimTime;
use marnet_telemetry::event::{component, TraceEvent};

/// Wrapper timer tag for the restart alarm; far above the protocol tags so
/// inner timers are never confused with it.
const TAG_RESTART: u64 = 1000;

/// An edge server (protocol receiver) that can crash and restart under
/// fault injection.
pub struct RestartableServer {
    inner: ArReceiver,
    /// `Some(crash instant)` while the server is dark.
    down_since: Option<SimTime>,
    /// Whether the pending restart loses receiver/cache state.
    lose_state: bool,
    /// The feedback timer fired while dark, breaking the receiver's
    /// self-rescheduling chain; restart must re-arm it.
    feedback_swallowed: bool,
    crashes: u64,
}

impl std::fmt::Debug for RestartableServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RestartableServer")
            .field("inner", &self.inner)
            .field("down", &self.down_since.is_some())
            .field("crashes", &self.crashes)
            .finish()
    }
}

impl RestartableServer {
    /// Wraps a receiver so it can crash and restart.
    pub fn new(inner: ArReceiver) -> Self {
        RestartableServer {
            inner,
            down_since: None,
            lose_state: false,
            feedback_swallowed: false,
            crashes: 0,
        }
    }

    fn crash(&mut self, ctx: &mut SimCtx, fault: &EdgeFault) {
        if self.down_since.is_some() {
            // Already dark: a dead process cannot crash harder. The restart
            // alarm of the first crash stands.
            return;
        }
        self.down_since = Some(ctx.now());
        self.lose_state = fault.lose_state;
        self.crashes += 1;
        ctx.schedule_timer(fault.down_for, TAG_RESTART);
        let t = ctx.now().as_nanos();
        let comp = component::actor(ctx.self_id().index());
        let (epoch, lost) = (u64::from(self.inner.epoch()), fault.lose_state);
        ctx.trace_with(|| TraceEvent::edge_crash(t, comp, epoch, lost));
    }

    fn restart(&mut self, ctx: &mut SimCtx) {
        let Some(since) = self.down_since.take() else {
            return;
        };
        if self.lose_state {
            let _ = self.inner.reset_session();
        }
        let t = ctx.now().as_nanos();
        let comp = component::actor(ctx.self_id().index());
        let epoch = u64::from(self.inner.epoch());
        let downtime = ctx.now().saturating_since(since).as_nanos();
        ctx.trace_with(|| TraceEvent::edge_restart(t, comp, epoch, downtime));
        if self.feedback_swallowed {
            self.feedback_swallowed = false;
            self.inner.resume_feedback(ctx);
        }
    }
}

impl Actor for RestartableServer {
    fn on_event(&mut self, ctx: &mut SimCtx, ev: Event) {
        match ev {
            Event::Timer { tag: TAG_RESTART } => self.restart(ctx),
            Event::Message { mut msg, from } => {
                if let Some(fault) = msg.take::<EdgeFault>() {
                    self.crash(ctx, &fault);
                } else if self.down_since.is_none() {
                    self.inner.on_event(ctx, Event::Message { msg, from });
                }
                // Messages to a dead server vanish.
            }
            Event::Timer { .. } if self.down_since.is_some() => {
                // An inner timer fired into the void. The receiver's only
                // timer is the feedback chain, which is self-rescheduling
                // and therefore now broken; remember to re-arm it.
                self.feedback_swallowed = true;
            }
            ev if self.down_since.is_some() => {
                // Packets to a dead server vanish (the sender's watchdog
                // notices the silence).
                drop(ev);
            }
            ev => self.inner.on_event(ctx, ev),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marnet_core::class::StreamKind;
    use marnet_core::endpoint::{ArSender, SenderPathConfig, Submit};
    use marnet_core::message::ArMessage;
    use marnet_core::multipath::PathRole;
    use marnet_core::{ArConfig, OutageConfig};
    use marnet_faults::inject::FaultInjector;
    use marnet_faults::schedule::FaultSpec;
    use marnet_sim::engine::{ActorId, Simulator};
    use marnet_sim::link::{Bandwidth, LinkParams};
    use marnet_sim::packet::Payload;
    use marnet_sim::time::{SimDuration, SimTime};
    use marnet_telemetry::event::TraceKind;
    use marnet_transport::nic::TxPath;

    /// 30 FPS app: a reference frame plus critical metadata every 33 ms.
    struct App {
        sender: ActorId,
        next_id: u64,
    }

    impl Actor for App {
        fn on_event(&mut self, ctx: &mut SimCtx, ev: Event) {
            if matches!(ev, Event::Start | Event::Timer { .. }) {
                let now = ctx.now();
                let deadline = now + SimDuration::from_millis(75);
                let v = ArMessage::new(self.next_id, StreamKind::VideoReference, 8000, now)
                    .with_deadline(deadline);
                let m = ArMessage::new(self.next_id + 1, StreamKind::Metadata, 100, now)
                    .with_deadline(deadline);
                self.next_id += 2;
                ctx.send_message(self.sender, Payload::new(Submit(v)));
                ctx.send_message(self.sender, Payload::new(Submit(m)));
                ctx.schedule_timer(SimDuration::from_millis(33), 0);
            }
        }
    }

    #[test]
    fn crash_restart_resyncs_session() {
        let cfg = ArConfig { outage: OutageConfig::hardened(), ..ArConfig::default() };
        let mut sim = Simulator::new(41);
        sim.enable_flight_recorder(1 << 14);
        let snd = sim.reserve_actor();
        let srv = sim.reserve_actor();
        let app = sim.reserve_actor();
        let up = sim.add_link(
            snd,
            srv,
            LinkParams::new(Bandwidth::from_mbps(20.0), SimDuration::from_millis(10)),
        );
        let down = sim.add_link(
            srv,
            snd,
            LinkParams::new(Bandwidth::from_mbps(20.0), SimDuration::from_millis(10)),
        );
        let sender = ArSender::new(
            1,
            cfg.clone(),
            vec![SenderPathConfig { role: PathRole::Wifi, tx: TxPath::Link(up), link: Some(up) }],
        );
        let sstats = sender.stats();
        sim.install_actor(snd, sender);

        let receiver = ArReceiver::new(1, vec![TxPath::Link(down)]);
        let rstats = receiver.stats();
        sim.install_actor(srv, RestartableServer::new(receiver));
        sim.install_actor(app, App { sender: snd, next_id: 0 });

        // Scripted state-losing crash at 2 s, 300 ms dark.
        let spec = FaultSpec::new().edge_crash(
            srv,
            SimTime::from_secs(2),
            SimDuration::from_millis(300),
            true,
        );
        let schedule = spec.compile(SimTime::from_secs(5));
        sim.add_actor(FaultInjector::new(schedule));
        sim.run_until(SimTime::from_secs(5));

        // The sender noticed the new epoch and re-synced.
        let s = sstats.borrow();
        assert!(s.session_resyncs >= 1, "resyncs {}", s.session_resyncs);
        assert!(s.outages_detected >= 1, "watchdog must notice the dark server");
        // Traffic flows again after the restart: metadata keeps its ~30/s
        // cadence outside the 300 ms hole.
        let r = rstats.borrow();
        let meta = &r.by_kind[&StreamKind::Metadata];
        assert!(meta.delivered > 120, "metadata delivered {}", meta.delivered);

        let trace = sim.take_trace();
        for kind in [TraceKind::EdgeCrash, TraceKind::EdgeRestart, TraceKind::SessionResync] {
            assert!(trace.iter().any(|e| e.kind == kind), "missing {kind:?} in trace");
        }
        let crash = trace.iter().find(|e| e.kind == TraceKind::EdgeCrash).expect("crash");
        let restart = trace.iter().find(|e| e.kind == TraceKind::EdgeRestart).expect("restart");
        assert_eq!(restart.t - crash.t, 300_000_000, "downtime is the scripted 300 ms");
    }

    #[test]
    fn crash_without_state_loss_keeps_the_session() {
        let cfg = ArConfig { outage: OutageConfig::hardened(), ..ArConfig::default() };
        let mut sim = Simulator::new(42);
        let snd = sim.reserve_actor();
        let srv = sim.reserve_actor();
        let app = sim.reserve_actor();
        let up = sim.add_link(
            snd,
            srv,
            LinkParams::new(Bandwidth::from_mbps(20.0), SimDuration::from_millis(10)),
        );
        let down = sim.add_link(
            srv,
            snd,
            LinkParams::new(Bandwidth::from_mbps(20.0), SimDuration::from_millis(10)),
        );
        let sender = ArSender::new(
            1,
            cfg.clone(),
            vec![SenderPathConfig { role: PathRole::Wifi, tx: TxPath::Link(up), link: Some(up) }],
        );
        let sstats = sender.stats();
        sim.install_actor(snd, sender);
        let receiver = ArReceiver::new(1, vec![TxPath::Link(down)]);
        sim.install_actor(srv, RestartableServer::new(receiver));
        sim.install_actor(app, App { sender: snd, next_id: 0 });

        let spec = FaultSpec::new().edge_crash(
            srv,
            SimTime::from_secs(2),
            SimDuration::from_millis(100),
            false,
        );
        sim.add_actor(FaultInjector::new(spec.compile(SimTime::from_secs(4))));
        sim.run_until(SimTime::from_secs(4));

        // State survived: same epoch, so no resync — the gap is handled by
        // ordinary loss recovery.
        assert_eq!(sstats.borrow().session_resyncs, 0);
    }
}
