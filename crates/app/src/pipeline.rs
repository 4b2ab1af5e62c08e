//! End-to-end MAR offloading pipeline over the AR transport protocol.
//!
//! Ties together: a camera ([`crate::video::FrameSource`]) and sensors on a
//! device ([`crate::device::DeviceSpec`]), an offloading strategy
//! ([`crate::strategy::OffloadStrategy`]) that decides what is uplinked, the
//! AR protocol endpoints of `marnet-core`, a server that models remote
//! computation time, and a [`crate::qoe::QoeRecorder`] measuring
//! motion-to-photon latency — the complete loop whose latency budget the
//! paper analyses.

use crate::compute::{ComputeModel, FrameWork};
use crate::device::DeviceSpec;
use crate::qoe::QoeRecorder;
use crate::strategy::OffloadStrategy;
use crate::video::FrameSource;
use marnet_core::class::{Priority, StreamKind, TrafficClass};
use marnet_core::degradation::QosSignal;
use marnet_core::endpoint::{Delivered, Submit};
use marnet_core::message::ArMessage;
use marnet_sim::engine::{Actor, ActorId, Event, SimCtx};
use marnet_sim::packet::Payload;
use marnet_sim::time::{SimDuration, SimTime};
use marnet_telemetry::{component, TraceEvent};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

const TAG_FRAME: u64 = 1;
const TAG_LOCAL_DONE: u64 = 2;

/// The MAR client: camera + sensors + strategy, feeding an `ArSender`.
///
/// Reacts to [`QosSignal`]s by scaling video quality (graceful
/// degradation), and records QoE when results return.
pub struct MarClient {
    sender: ActorId,
    device: DeviceSpec,
    model: ComputeModel,
    strategy: OffloadStrategy,
    video: FrameSource,
    next_msg_id: u64,
    frame_index: u64,
    deadline: SimDuration,
    qoe: Rc<RefCell<QoeRecorder>>,
    /// Completion times of purely-local frames, tracked via timers.
    local_pending: VecDeque<SimTime>,
}

impl std::fmt::Debug for MarClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MarClient")
            .field("strategy", &self.strategy)
            .field("frame", &self.frame_index)
            .finish()
    }
}

impl MarClient {
    /// Creates a client submitting to `sender` (an `ArSender` actor).
    pub fn new(
        sender: ActorId,
        device: DeviceSpec,
        model: ComputeModel,
        strategy: OffloadStrategy,
        video: FrameSource,
    ) -> Self {
        MarClient {
            sender,
            device,
            model,
            strategy,
            video,
            next_msg_id: 0,
            frame_index: 0,
            deadline: SimDuration::from_millis(75),
            qoe: Rc::new(RefCell::new(QoeRecorder::new())),
            local_pending: VecDeque::new(),
        }
    }

    /// Shared handle to the QoE recorder.
    pub fn qoe(&self) -> Rc<RefCell<QoeRecorder>> {
        Rc::clone(&self.qoe)
    }

    fn alloc_id(&mut self) -> u64 {
        let id = self.next_msg_id;
        self.next_msg_id += 1;
        id
    }

    fn submit(&mut self, ctx: &mut SimCtx, msg: ArMessage) {
        ctx.send_message(self.sender, Payload::new(Submit(msg)));
    }

    fn local_stage_delay(&self) -> SimDuration {
        let x = self.strategy.local_share(&self.model.work);
        SimDuration::from_secs_f64(
            self.model.work.total_gflop() * x / self.device.compute_gflops.max(1e-9),
        )
    }

    fn on_frame(&mut self, ctx: &mut SimCtx) {
        let now = ctx.now();
        let deadline = now + self.deadline;
        self.qoe.borrow_mut().frame_offered();
        let frame = self.video.next_frame();
        self.frame_index += 1;
        let local_delay = self.local_stage_delay();

        // What (if anything) goes on the uplink for this frame?
        let uplink: Option<ArMessage> = match self.strategy {
            OffloadStrategy::LocalOnly => None,
            OffloadStrategy::FullOffload { .. } => {
                let kind = if frame.is_reference {
                    StreamKind::VideoReference
                } else {
                    StreamKind::VideoInter
                };
                Some(
                    ArMessage::new(self.alloc_id(), kind, frame.bytes, now).with_deadline(deadline),
                )
            }
            OffloadStrategy::FeatureOffload { features, descriptor_bytes } => {
                let bytes = features * descriptor_bytes;
                Some(
                    ArMessage::new(self.alloc_id(), StreamKind::VideoInter, bytes, now)
                        .with_class(TrafficClass::FullBestEffort)
                        .with_priority(Priority::DropNotDelay(0))
                        .with_deadline(deadline),
                )
            }
            OffloadStrategy::TrackingOffload { frame_bytes, offload_every } => {
                if self.frame_index % u64::from(offload_every.max(1)) == 1 {
                    Some(
                        ArMessage::new(
                            self.alloc_id(),
                            StreamKind::VideoReference,
                            frame_bytes,
                            now,
                        )
                        .with_deadline(deadline),
                    )
                } else {
                    // Tracking handles this frame locally.
                    None
                }
            }
        };

        match uplink {
            Some(msg) => {
                let t = now.as_nanos();
                let comp = component::actor(ctx.self_id().index());
                let (kind, mid, bytes) = (msg.kind as u8, msg.id, u64::from(msg.size));
                ctx.trace_with(|| TraceEvent::offload_dispatch(t, comp, kind, mid, bytes));
                // The message leaves after the local pipeline stage.
                ctx.send_message_in(self.sender, local_delay, Payload::new(Submit(msg)));
            }
            None => {
                // Purely local frame: completes after the full local work.
                let full_local = SimDuration::from_secs_f64(
                    match self.strategy {
                        OffloadStrategy::LocalOnly => self.model.work.total_gflop(),
                        // Tracking path: only the light local stages run.
                        _ => self.model.work.tracking_gflop + self.model.work.rendering_gflop,
                    } / self.device.compute_gflops.max(1e-9),
                );
                self.local_pending.push_back(now);
                ctx.schedule_timer(full_local, TAG_LOCAL_DONE);
            }
        }

        // Sensors and connection metadata accompany every frame (Fig. 4's
        // four sub-streams).
        let sensors =
            ArMessage::new(self.alloc_id(), StreamKind::Sensor, 200, now).with_deadline(deadline);
        self.submit(ctx, sensors);
        let meta = ArMessage::new(self.alloc_id(), StreamKind::Metadata, 100, now);
        self.submit(ctx, meta);

        ctx.schedule_timer(self.video.frame_interval(), TAG_FRAME);
    }
}

impl Actor for MarClient {
    fn on_event(&mut self, ctx: &mut SimCtx, ev: Event) {
        match ev {
            Event::Start => {
                ctx.schedule_timer(SimDuration::ZERO, TAG_FRAME);
            }
            Event::Timer { tag: TAG_FRAME } => self.on_frame(ctx),
            Event::Timer { tag: TAG_LOCAL_DONE } => {
                if let Some(created) = self.local_pending.pop_front() {
                    self.qoe.borrow_mut().frame_delivered(created, ctx.now());
                }
            }
            Event::Message { msg, .. } => {
                if let Some(sig) = msg.map_ref(|s: &QosSignal| *s) {
                    match sig {
                        QosSignal::Degrade { severity, .. } => {
                            let q = self.video.quality();
                            self.video.set_quality(q * if severity >= 2 { 0.5 } else { 0.7 });
                        }
                        QosSignal::Headroom { .. } => {
                            let q = self.video.quality();
                            if q < 1.0 {
                                self.video.set_quality((q * 1.1).min(1.0));
                            }
                        }
                    }
                } else if let Some(d) = msg.map_ref(|d: &Delivered| *d) {
                    // A result came back from the server.
                    if d.kind == StreamKind::Result {
                        self.qoe
                            .borrow_mut()
                            .frame_delivered(d.origin.unwrap_or(d.created), ctx.now());
                    }
                }
            }
            _ => {}
        }
    }
}

/// The offload server: receives frames/features, models remote computation
/// time, and returns results through its own `ArSender`.
pub struct MarServer {
    result_sender: ActorId,
    cloud: DeviceSpec,
    work: FrameWork,
    strategy: OffloadStrategy,
    next_msg_id: u64,
    /// Frames queued for (serialized) processing: (ready_at_busy_time, created).
    busy_until: SimTime,
    pending: VecDeque<(u64, SimTime)>,
    processed: u64,
}

impl std::fmt::Debug for MarServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MarServer").field("processed", &self.processed).finish()
    }
}

const TAG_DONE: u64 = 11;

impl MarServer {
    /// Creates a server answering through `result_sender` (an `ArSender`
    /// on the downlink).
    pub fn new(
        result_sender: ActorId,
        cloud: DeviceSpec,
        work: FrameWork,
        strategy: OffloadStrategy,
    ) -> Self {
        MarServer {
            result_sender,
            cloud,
            work,
            strategy,
            next_msg_id: 1_000_000,
            busy_until: SimTime::ZERO,
            pending: VecDeque::new(),
            processed: 0,
        }
    }

    fn service_time(&self) -> SimDuration {
        let remote_share = 1.0 - self.strategy.local_share(&self.work);
        SimDuration::from_secs_f64(
            self.work.total_gflop() * remote_share / self.cloud.compute_gflops.max(1e-9),
        )
    }
}

impl Actor for MarServer {
    fn on_event(&mut self, ctx: &mut SimCtx, ev: Event) {
        match ev {
            Event::Message { msg, .. } => {
                if let Some(d) = msg.map_ref(|d: &Delivered| *d) {
                    // Only vision payloads trigger computation + a result.
                    if matches!(d.kind, StreamKind::VideoReference | StreamKind::VideoInter) {
                        // Serialized single-worker service discipline.
                        let start = self.busy_until.max(ctx.now());
                        let done = start + self.service_time();
                        self.busy_until = done;
                        self.pending.push_back((d.msg_id, d.origin.unwrap_or(d.created)));
                        ctx.schedule_timer(done.saturating_since(ctx.now()), TAG_DONE);
                    }
                }
            }
            Event::Timer { tag: TAG_DONE } => {
                if let Some((_, origin)) = self.pending.pop_front() {
                    self.processed += 1;
                    let id = self.next_msg_id;
                    self.next_msg_id += 1;
                    // Results carry the *original frame's* camera timestamp
                    // as their origin so the client measures true
                    // motion-to-photon latency; `created` is now so the
                    // transport's own staleness logic applies to the
                    // result's transit, not the whole loop.
                    let result = ArMessage::new(id, StreamKind::Result, 1_000, ctx.now())
                        .with_class(TrafficClass::BestEffortWithRecovery)
                        .with_priority(Priority::DropNotDelay(0))
                        .with_origin(origin);
                    ctx.send_message(self.result_sender, Payload::new(Submit(result)));
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceClass;
    use crate::video::VideoConfig;
    use marnet_core::config::ArConfig;
    use marnet_core::endpoint::{ArReceiver, ArSender, SenderPathConfig};
    use marnet_core::multipath::PathRole;
    use marnet_sim::engine::Simulator;
    use marnet_sim::link::{Bandwidth, LinkParams};
    use marnet_sim::rng::derive_rng;
    use marnet_transport::nic::TxPath;

    /// Builds the full duplex pipeline over one access link pair and runs
    /// it, returning the QoE report.
    fn run_pipeline(
        strategy: OffloadStrategy,
        up_mbps: f64,
        down_mbps: f64,
        one_way_ms: u64,
        secs: u64,
    ) -> crate::qoe::QoeReport {
        let mut sim = Simulator::new(31);
        let c_snd = sim.reserve_actor(); // client-side ArSender (uplink)
        let s_rcv = sim.reserve_actor(); // server-side ArReceiver
        let s_snd = sim.reserve_actor(); // server-side ArSender (downlink)
        let c_rcv = sim.reserve_actor(); // client-side ArReceiver
        let client = sim.reserve_actor();
        let server = sim.reserve_actor();

        let up = sim.add_link(
            c_snd,
            s_rcv,
            LinkParams::new(Bandwidth::from_mbps(up_mbps), SimDuration::from_millis(one_way_ms)),
        );
        // Server-side feedback travels on the downlink data path's link: we
        // give each direction its own duplex pair for clarity.
        let up_fb = sim.add_link(
            s_rcv,
            c_snd,
            LinkParams::new(Bandwidth::from_mbps(down_mbps), SimDuration::from_millis(one_way_ms)),
        );
        let down = sim.add_link(
            s_snd,
            c_rcv,
            LinkParams::new(Bandwidth::from_mbps(down_mbps), SimDuration::from_millis(one_way_ms)),
        );
        let down_fb = sim.add_link(
            c_rcv,
            s_snd,
            LinkParams::new(Bandwidth::from_mbps(up_mbps), SimDuration::from_millis(one_way_ms)),
        );

        let cfg = ArConfig::default();
        let sender = ArSender::new(
            1,
            cfg.clone(),
            vec![SenderPathConfig { role: PathRole::Wifi, tx: TxPath::Link(up), link: Some(up) }],
        )
        .with_qos_target(client);
        sim.install_actor(c_snd, sender);
        let receiver = ArReceiver::new(1, vec![TxPath::Link(up_fb)]).with_delivery_target(server);
        sim.install_actor(s_rcv, receiver);

        let r_sender = ArSender::new(
            2,
            cfg.clone(),
            vec![SenderPathConfig {
                role: PathRole::Wifi,
                tx: TxPath::Link(down),
                link: Some(down),
            }],
        );
        sim.install_actor(s_snd, r_sender);
        let r_receiver =
            ArReceiver::new(2, vec![TxPath::Link(down_fb)]).with_delivery_target(client);
        sim.install_actor(c_rcv, r_receiver);

        let model = ComputeModel::new(30.0, FrameWork::vision_pipeline())
            .with_deadline(SimDuration::from_millis(75));
        let video =
            FrameSource::new(VideoConfig::ar_minimal(), 0.05, derive_rng(31, "pipeline.video"));
        let mar_client =
            MarClient::new(c_snd, DeviceClass::Smartphone.spec(), model.clone(), strategy, video);
        let qoe = mar_client.qoe();
        sim.install_actor(client, mar_client);
        sim.install_actor(
            server,
            MarServer::new(s_snd, DeviceClass::Cloud.spec(), model.work, strategy),
        );

        sim.run_until(SimTime::from_secs(secs));
        let report = qoe.borrow_mut().report();
        report
    }

    #[test]
    fn edge_offload_meets_the_budget() {
        // Table II scenario 2-ish: 18 ms one-way (36 ms RTT), decent WiFi.
        let r = run_pipeline(OffloadStrategy::cloudridar(), 20.0, 20.0, 8, 12);
        assert!(r.frames > 250, "delivered {}", r.frames);
        assert!(r.within_budget > 0.9, "budget compliance {}", r.within_budget);
        assert!(r.score() > 80.0, "score {}", r.score());
    }

    #[test]
    fn lte_rtt_blows_the_budget() {
        // 60 ms one-way (120 ms RTT, Table II scenario 4): almost nothing
        // can meet 75 ms end to end.
        let r = run_pipeline(OffloadStrategy::cloudridar(), 8.0, 15.0, 60, 12);
        assert!(r.frames > 100, "delivered {}", r.frames);
        assert!(r.within_budget < 0.05, "budget compliance {}", r.within_budget);
        assert!(r.mean_latency_ms > 120.0, "mean latency {}", r.mean_latency_ms);
    }

    #[test]
    fn local_only_on_a_phone_is_slow_but_network_free() {
        let r = run_pipeline(OffloadStrategy::LocalOnly, 0.1, 0.1, 500, 10);
        // Every frame completes (no network involved), but each takes
        // ~100 ms of compute — over budget.
        assert!(r.frames > 90);
        assert!(r.within_budget < 0.05, "local vision on a phone is too slow");
    }

    #[test]
    fn glimpse_tracks_locally_and_hits_budget_for_tracked_frames() {
        let r = run_pipeline(OffloadStrategy::glimpse(), 8.0, 15.0, 8, 12);
        // 9 of 10 frames are locally tracked (fast); 1 of 10 goes to the
        // server. Overall compliance stays high.
        assert!(r.frames > 250, "delivered {}", r.frames);
        assert!(r.within_budget > 0.85, "budget compliance {}", r.within_budget);
    }

    #[test]
    fn tight_uplink_degrades_but_does_not_stall() {
        // Full-offload video (~10 Mb/s) into a 3 Mb/s uplink: quality must
        // degrade, frames still flow.
        let r = run_pipeline(OffloadStrategy::FullOffload { frame_bytes: 0 }, 3.0, 10.0, 8, 15);
        // (For FullOffload the MarClient uses the FrameSource's GoP sizes;
        // the `frame_bytes` config field only feeds the analytic model.)
        // Interframes are shed wholesale and only reference frames survive
        // — severely degraded, but the loop never fully stalls.
        assert!(r.frames > 20, "delivered {}", r.frames);
        assert!(r.loss_ratio < 0.99, "loss ratio {}", r.loss_ratio);
    }
}
