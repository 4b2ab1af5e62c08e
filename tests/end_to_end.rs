//! Cross-crate integration tests: the whole stack — simulator, radio
//! models, TCP baselines, the AR protocol and the MAR application — wired
//! together the way the experiments use it.

use marnet::app::compute::{ComputeModel, FrameWork};
use marnet::app::device::DeviceClass;
use marnet::app::pipeline::{MarClient, MarServer};
use marnet::app::strategy::OffloadStrategy;
use marnet::app::video::{FrameSource, VideoConfig};
use marnet::arcore::config::ArConfig;
use marnet::arcore::endpoint::{ArReceiver, ArSender, SenderPathConfig};
use marnet::arcore::multipath::PathRole;
use marnet::sim::engine::Simulator;
use marnet::sim::link::{Bandwidth, LinkParams};
use marnet::sim::rng::derive_rng;
use marnet::sim::time::{SimDuration, SimTime};
use marnet::transport::nic::TxPath;

fn run_pipeline(seed: u64, strategy: OffloadStrategy, up_mbps: f64, one_way_ms: u64) -> (u64, f64) {
    let mut sim = Simulator::new(seed);
    let c_snd = sim.reserve_actor();
    let s_rcv = sim.reserve_actor();
    let s_snd = sim.reserve_actor();
    let c_rcv = sim.reserve_actor();
    let client = sim.reserve_actor();
    let server = sim.reserve_actor();
    let one_way = SimDuration::from_millis(one_way_ms);
    let up = sim.add_link(c_snd, s_rcv, LinkParams::new(Bandwidth::from_mbps(up_mbps), one_way));
    let up_fb = sim.add_link(s_rcv, c_snd, LinkParams::new(Bandwidth::from_mbps(20.0), one_way));
    let down = sim.add_link(s_snd, c_rcv, LinkParams::new(Bandwidth::from_mbps(20.0), one_way));
    let down_fb =
        sim.add_link(c_rcv, s_snd, LinkParams::new(Bandwidth::from_mbps(up_mbps), one_way));
    let cfg = ArConfig::default();
    let sender = ArSender::new(
        1,
        cfg.clone(),
        vec![SenderPathConfig { role: PathRole::Wifi, tx: TxPath::Link(up), link: Some(up) }],
    )
    .with_qos_target(client);
    sim.install_actor(c_snd, sender);
    sim.install_actor(
        s_rcv,
        ArReceiver::new(1, vec![TxPath::Link(up_fb)]).with_delivery_target(server),
    );
    sim.install_actor(
        s_snd,
        ArSender::new(
            2,
            cfg.clone(),
            vec![SenderPathConfig {
                role: PathRole::Wifi,
                tx: TxPath::Link(down),
                link: Some(down),
            }],
        ),
    );
    sim.install_actor(
        c_rcv,
        ArReceiver::new(2, vec![TxPath::Link(down_fb)]).with_delivery_target(client),
    );
    let model = ComputeModel::new(30.0, FrameWork::vision_pipeline())
        .with_deadline(SimDuration::from_millis(75));
    let video = FrameSource::new(VideoConfig::ar_minimal(), 0.05, derive_rng(seed, "e2e.video"));
    let mar = MarClient::new(c_snd, DeviceClass::Smartphone.spec(), model.clone(), strategy, video);
    let qoe = mar.qoe();
    sim.install_actor(client, mar);
    sim.install_actor(
        server,
        MarServer::new(s_snd, DeviceClass::Cloud.spec(), model.work, strategy),
    );
    sim.run_until(SimTime::from_secs(8));
    let report = qoe.borrow_mut().report();
    (report.frames, report.within_budget)
}

#[test]
fn whole_pipeline_is_deterministic() {
    let a = run_pipeline(5, OffloadStrategy::cloudridar(), 20.0, 8);
    let b = run_pipeline(5, OffloadStrategy::cloudridar(), 20.0, 8);
    assert_eq!(a, b, "same seed must reproduce bit-identical QoE");
    let c = run_pipeline(6, OffloadStrategy::cloudridar(), 20.0, 8);
    // Different seeds jitter frame sizes, so exact equality is unexpected.
    assert!(c.0 > 0);
}

#[test]
fn network_quality_orders_qoe() {
    // Table II's ordering must survive the full stack: better networks
    // yield better budget compliance.
    // CloudRidAR's local extraction costs ~27 ms on a phone, so of the
    // 75 ms budget only ~48 ms remain for the network: the 36 ms-RTT cloud
    // scenario is *marginal* end to end (the analytic model puts it at
    // ~70 ms; pacing/feedback overheads push the simulated loop over).
    // We therefore compare at 8/24/120 ms RTT.
    let (_, local) = run_pipeline(9, OffloadStrategy::cloudridar(), 25.0, 4);
    let (_, nearby) = run_pipeline(9, OffloadStrategy::cloudridar(), 20.0, 12);
    let (_, lte) = run_pipeline(9, OffloadStrategy::cloudridar(), 6.0, 60);
    assert!(local >= nearby, "local {local} vs nearby {nearby}");
    assert!(nearby > lte, "nearby {nearby} vs lte {lte}");
    assert!(nearby > 0.7, "24 ms RTT edge must mostly fit: {nearby}");
    assert!(lte < 0.05, "120 ms RTT cannot meet a 75 ms budget");
}

#[test]
fn glimpse_dominates_on_bad_networks() {
    let (_, full) = run_pipeline(11, OffloadStrategy::FullOffload { frame_bytes: 0 }, 6.0, 60);
    let (frames, glimpse) = run_pipeline(11, OffloadStrategy::glimpse(), 6.0, 60);
    assert!(glimpse > 0.8, "glimpse compliance {glimpse}");
    assert!(glimpse > full + 0.5, "glimpse {glimpse} vs full {full}");
    assert!(frames > 200);
}
