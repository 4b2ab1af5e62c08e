//! The four distribution architectures of Fig. 5, as runnable simulations.
//!
//! Each scenario builds a MAR client streaming the Fig. 4 sub-streams over
//! the AR protocol with two paths ending at two different executors, per
//! the figure:
//!
//! * **5a** — multipath to *servers*: WiFi → university server, LTE →
//!   distant cloud;
//! * **5b** — home WiFi: D2D to the user's PC for latency-critical data,
//!   cloud for the rest;
//! * **5c** — LTE-Direct to a nearby smartphone helper + LTE to the cloud;
//! * **5d** — WiFi-Direct to a nearby smartphone helper + LTE to the cloud.
//!
//! The AR protocol's Aggregate policy steers latency-bound classes
//! (metadata, reference frames) to the lowest-RTT path — the nearby
//! executor — and spreads droppable video across both, reproducing the
//! figure's "offload latency-sensitive information to other devices" idea.

use marnet_app::compute::{ComputeModel, FrameWork};
use marnet_app::device::DeviceClass;
use marnet_app::pipeline::MarClient;
use marnet_app::strategy::OffloadStrategy;
use marnet_app::video::{FrameSource, VideoConfig};
use marnet_core::class::StreamKind;
use marnet_core::config::ArConfig;
use marnet_core::endpoint::{
    ArReceiver, ArReceiverStats, ArSender, ArSenderStats, Delivered, SenderPathConfig,
};
use marnet_core::multipath::{MultipathPolicy, PathRole};
use marnet_sim::engine::{Actor, Event, SimCtx, Simulator};
use marnet_sim::link::{Bandwidth, LinkParams};
use marnet_sim::rng::derive_rng;
use marnet_sim::stats::Histogram;
use marnet_sim::time::{SimDuration, SimTime};
use marnet_transport::nic::TxPath;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

/// The Fig. 5 architectures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DistributionScenario {
    /// 5a: multipath, one server per path (university + cloud).
    MultipathMultiServer,
    /// 5b: home WiFi D2D to a PC + cloud.
    HomeWifiD2d,
    /// 5c: LTE-Direct D2D to a phone + LTE cloud.
    LteDirectD2d,
    /// 5d: WiFi-Direct D2D to a phone + LTE cloud.
    WifiDirectD2d,
}

impl DistributionScenario {
    /// All scenarios in figure order.
    pub const ALL: [DistributionScenario; 4] = [
        DistributionScenario::MultipathMultiServer,
        DistributionScenario::HomeWifiD2d,
        DistributionScenario::LteDirectD2d,
        DistributionScenario::WifiDirectD2d,
    ];
}

impl fmt::Display for DistributionScenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DistributionScenario::MultipathMultiServer => "5a multipath multi-server",
            DistributionScenario::HomeWifiD2d => "5b home WiFi D2D + cloud",
            DistributionScenario::LteDirectD2d => "5c LTE-Direct D2D + cloud",
            DistributionScenario::WifiDirectD2d => "5d WiFi-Direct D2D + cloud",
        };
        f.write_str(s)
    }
}

/// Description of one path's far end.
#[derive(Debug, Clone)]
struct Endpoint {
    role: PathRole,
    /// One-way latency of the access path.
    one_way: SimDuration,
    /// Path bandwidth (both directions, for simplicity).
    rate: Bandwidth,
    /// Executor compute for the latency-critical stage, GFLOPS.
    gflops: f64,
}

fn endpoints(scenario: DistributionScenario) -> [Endpoint; 2] {
    // RTTs anchored on Table II: local WiFi 8 ms, cloud-over-WiFi 36 ms,
    // university 72 ms, cloud-over-LTE 120 ms; D2D from the §IV-A profiles.
    match scenario {
        DistributionScenario::MultipathMultiServer => [
            // university
            Endpoint {
                role: PathRole::Wifi,
                one_way: SimDuration::from_millis(5),
                rate: Bandwidth::from_mbps(25.0),
                gflops: 2_000.0,
            },
            // cloud
            Endpoint {
                role: PathRole::Cellular,
                one_way: SimDuration::from_millis(60),
                rate: Bandwidth::from_mbps(8.0),
                gflops: 20_000.0,
            },
        ],
        DistributionScenario::HomeWifiD2d => [
            // home-pc
            Endpoint {
                role: PathRole::DeviceToDevice,
                one_way: SimDuration::from_millis(2),
                rate: Bandwidth::from_mbps(80.0),
                gflops: 500.0,
            },
            // cloud
            Endpoint {
                role: PathRole::Wifi,
                one_way: SimDuration::from_millis(18),
                rate: Bandwidth::from_mbps(20.0),
                gflops: 20_000.0,
            },
        ],
        DistributionScenario::LteDirectD2d => [
            // phone-helper
            Endpoint {
                role: PathRole::DeviceToDevice,
                one_way: SimDuration::from_millis(6),
                rate: Bandwidth::from_mbps(100.0),
                gflops: 15.0,
            },
            // cloud
            Endpoint {
                role: PathRole::Cellular,
                one_way: SimDuration::from_millis(60),
                rate: Bandwidth::from_mbps(8.0),
                gflops: 20_000.0,
            },
        ],
        DistributionScenario::WifiDirectD2d => [
            // phone-helper
            Endpoint {
                role: PathRole::DeviceToDevice,
                one_way: SimDuration::from_millis(4),
                rate: Bandwidth::from_mbps(60.0),
                gflops: 15.0,
            },
            // cloud
            Endpoint {
                role: PathRole::Cellular,
                one_way: SimDuration::from_millis(60),
                rate: Bandwidth::from_mbps(8.0),
                gflops: 20_000.0,
            },
        ],
    }
}

/// Observes deliveries at one executor and records the estimated full-loop
/// latency: transport latency + compute there + the return one-way.
struct ExecutorProbe {
    service: SimDuration,
    return_one_way: SimDuration,
    loop_latency_ms: Rc<RefCell<Histogram>>,
    critical_latency_ms: Rc<RefCell<Histogram>>,
}

impl Actor for ExecutorProbe {
    fn on_event(&mut self, ctx: &mut SimCtx, ev: Event) {
        if let Event::Message { msg, .. } = ev {
            if let Some(d) = msg.map_ref(|d: &Delivered| *d) {
                let transport = ctx.now().saturating_since(d.created);
                match d.kind {
                    StreamKind::VideoReference | StreamKind::VideoInter => {
                        let total = transport + self.service + self.return_one_way;
                        self.loop_latency_ms.borrow_mut().record(total.as_millis_f64());
                    }
                    StreamKind::Metadata => {
                        self.critical_latency_ms.borrow_mut().record(transport.as_millis_f64());
                    }
                    _ => {}
                }
            }
        }
    }
}

/// Everything a Fig. 5 scenario run produces.
pub struct ScenarioOutcome {
    /// The scenario.
    pub scenario: DistributionScenario,
    /// Full-loop latency samples of vision frames (ms), both executors.
    pub loop_latency_ms: Histogram,
    /// Transport latency samples of critical metadata (ms).
    pub critical_latency_ms: Histogram,
    /// Sender statistics (cellular bytes, drops, ...).
    pub sender: Rc<RefCell<ArSenderStats>>,
    /// Per-executor receiver statistics, figure order.
    pub receivers: Vec<Rc<RefCell<ArReceiverStats>>>,
}

impl fmt::Debug for ScenarioOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ScenarioOutcome").field("scenario", &self.scenario).finish()
    }
}

impl ScenarioOutcome {
    /// Share of vision-frame loops within the 75 ms budget.
    pub fn within_budget(&self) -> f64 {
        self.loop_latency_ms.fraction_at_most(75.0)
    }
}

/// Builds and runs one Fig. 5 scenario for `secs` simulated seconds.
pub fn run_scenario(scenario: DistributionScenario, seed: u64, secs: u64) -> ScenarioOutcome {
    let eps = endpoints(scenario);
    let mut sim = Simulator::new(seed);
    let snd = sim.reserve_actor();
    let client = sim.reserve_actor();

    let mut paths = Vec::new();
    let mut rx_stats = Vec::new();
    let loop_hist = Rc::new(RefCell::new(Histogram::new()));
    let crit_hist = Rc::new(RefCell::new(Histogram::new()));
    let work = FrameWork::vision_pipeline();

    for (i, ep) in eps.iter().enumerate() {
        let rcv = sim.reserve_actor();
        let probe = sim.reserve_actor();
        let up = sim.add_link(snd, rcv, LinkParams::new(ep.rate, ep.one_way));
        let back = sim.add_link(rcv, snd, LinkParams::new(ep.rate, ep.one_way));
        paths.push(SenderPathConfig { role: ep.role, tx: TxPath::Link(up), link: Some(up) });

        // Latency-critical stage (extraction) runs at this executor.
        let service = SimDuration::from_secs_f64(work.extraction_gflop / ep.gflops);
        // Reverse paths vector must be indexable by path id; unused slots
        // point at this endpoint's own back link (never selected).
        let mut reverse = vec![TxPath::Link(back); eps.len()];
        reverse[i] = TxPath::Link(back);
        let receiver = ArReceiver::new(1, reverse).with_delivery_target(probe);
        rx_stats.push(receiver.stats());
        sim.install_actor(rcv, receiver);
        sim.install_actor(
            probe,
            ExecutorProbe {
                service,
                return_one_way: ep.one_way,
                loop_latency_ms: Rc::clone(&loop_hist),
                critical_latency_ms: Rc::clone(&crit_hist),
            },
        );
    }

    let cfg = ArConfig { policy: MultipathPolicy::Aggregate, ..ArConfig::default() };
    let sender = ArSender::new(1, cfg, paths).with_qos_target(client);
    let sender_stats = sender.stats();
    sim.install_actor(snd, sender);

    let model = ComputeModel::new(30.0, work).with_deadline(SimDuration::from_millis(75));
    let video = FrameSource::new(VideoConfig::ar_minimal(), 0.05, derive_rng(seed, "fig5.video"));
    // The client is a smartphone in every scenario: in 5b-5d it stands in
    // for the glasses+companion pair (the glasses' own contribution is the
    // display; the measured loop is capture → executor → display).
    let device = DeviceClass::Smartphone;
    let mar = MarClient::new(
        snd,
        device.spec(),
        model,
        OffloadStrategy::FullOffload { frame_bytes: 0 },
        video,
    );
    sim.install_actor(client, mar);

    sim.run_until(SimTime::from_secs(secs));

    let loop_latency_ms = loop_hist.borrow().clone();
    let critical_latency_ms = crit_hist.borrow().clone();
    ScenarioOutcome {
        scenario,
        loop_latency_ms,
        critical_latency_ms,
        sender: sender_stats,
        receivers: rx_stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_scenarios_deliver_frames() {
        for scenario in DistributionScenario::ALL {
            let out = run_scenario(scenario, 5, 6);
            assert!(
                out.loop_latency_ms.count() > 50,
                "{scenario}: only {} loops",
                out.loop_latency_ms.count()
            );
            assert!(out.critical_latency_ms.count() > 50, "{scenario}");
        }
    }

    #[test]
    fn nearby_executors_cut_critical_latency() {
        // 5b (2 ms home PC) must beat 5a (5 ms university) on metadata
        // latency, and both must beat any cloud-only alternative (~60 ms).
        let mut a = run_scenario(DistributionScenario::MultipathMultiServer, 7, 6);
        let mut b = run_scenario(DistributionScenario::HomeWifiD2d, 7, 6);
        let ma = a.critical_latency_ms.median().unwrap();
        let mb = b.critical_latency_ms.median().unwrap();
        assert!(mb < ma, "home D2D {mb} ms vs university {ma} ms");
        assert!(ma < 30.0, "critical data stays on the fast path: {ma} ms");
    }

    #[test]
    fn multipath_keeps_latency_data_off_lte() {
        let out = run_scenario(DistributionScenario::MultipathMultiServer, 9, 6);
        let s = out.sender.borrow();
        let total: u64 = s.total_sent_bytes();
        assert!(total > 0);
        // Critical metadata goes to the WiFi/university path; cellular
        // carries only a share of the droppable bulk.
        assert!(
            (s.cellular_bytes as f64) < total as f64 * 0.6,
            "cellular {} of {total}",
            s.cellular_bytes
        );
    }

    #[test]
    fn weak_helper_still_serves_critical_data_fast() {
        // 5c/5d: the phone helper has little compute, but the latency-
        // critical class still sees single-digit transport latency.
        let mut out = run_scenario(DistributionScenario::WifiDirectD2d, 11, 6);
        let crit = out.critical_latency_ms.median().unwrap();
        assert!(crit < 20.0, "critical median {crit} ms");
    }

    #[test]
    fn display_and_order() {
        assert_eq!(DistributionScenario::ALL.len(), 4);
        assert!(DistributionScenario::MultipathMultiServer.to_string().starts_with("5a"));
    }
}
