//! End-to-end runs of every congestion-control algorithm as a real sender,
//! plus the §VI-B headline comparison: Vegas (delay-based) versus Reno
//! (loss-based) on a shared bottleneck.

use marnet_sim::engine::Simulator;
use marnet_sim::link::{Bandwidth, LinkParams};
use marnet_sim::queue::QueueConfig;
use marnet_sim::time::{SimDuration, SimTime};
use marnet_transport::nic::{Nic, TxPath};
use marnet_transport::tcp::{
    CongestionControl, Reno, TcpConfig, TcpReceiver, TcpSender, Vegas, MSS,
};

fn run_solo(cc: Box<dyn CongestionControl>, secs: u64) -> (f64, f64) {
    let mut sim = Simulator::new(3);
    let s = sim.reserve_actor();
    let r = sim.reserve_actor();
    let params = LinkParams::new(Bandwidth::from_mbps(12.0), SimDuration::from_millis(15))
        .with_queue(QueueConfig::DropTail { cap_packets: 120 });
    let fwd = sim.add_link(s, r, params.clone());
    let rev = sim.add_link(r, s, params);
    let sender = TcpSender::new(1, TxPath::Link(fwd), TcpConfig::default(), cc);
    let sstats = sender.stats();
    sim.install_actor(s, sender);
    let receiver = TcpReceiver::new(1, TxPath::Link(rev));
    let rstats = receiver.stats();
    sim.install_actor(r, receiver);
    sim.run_until(SimTime::from_secs(secs));
    let goodput = rstats.borrow().goodput_bytes as f64 * 8.0 / secs as f64 / 1e6;
    let srtt = sstats.borrow().srtt_ms.unwrap_or(f64::NAN);
    (goodput, srtt)
}

#[test]
fn every_cc_fills_a_solo_link() {
    for (name, cc) in [
        ("reno", Box::new(Reno::new(MSS)) as Box<dyn CongestionControl>),
        ("vegas", Box::new(Vegas::new(MSS))),
    ] {
        let (goodput, _) = run_solo(cc, 20);
        assert!(goodput > 9.5, "{name}: {goodput} Mb/s on a 12 Mb/s link");
    }
}

#[test]
fn vegas_runs_at_lower_rtt_than_reno() {
    // Delay-based control's entire point: same goodput, empty queue.
    let (reno_goodput, reno_srtt) = run_solo(Box::new(Reno::new(MSS)), 20);
    let (vegas_goodput, vegas_srtt) = run_solo(Box::new(Vegas::new(MSS)), 20);
    assert!(vegas_goodput > reno_goodput * 0.85);
    assert!(
        vegas_srtt < reno_srtt * 0.7,
        "vegas srtt {vegas_srtt} ms must beat reno's {reno_srtt} ms standing queue"
    );
    // Reno fills the 120-packet buffer (~120 ms at 12 Mb/s); Vegas keeps a
    // few segments queued (~30 ms base + small epsilon).
    assert!(vegas_srtt < 60.0, "vegas srtt {vegas_srtt}");
}

#[test]
fn vegas_is_starved_by_reno_on_a_shared_bottleneck() {
    // §VI-B's cited fairness problem, at the TCP level this time.
    let mut sim = Simulator::new(5);
    let left = sim.reserve_actor();
    let right = sim.reserve_actor();
    let params = LinkParams::new(Bandwidth::from_mbps(12.0), SimDuration::from_millis(15))
        .with_queue(QueueConfig::DropTail { cap_packets: 120 });
    let fwd = sim.add_link(left, right, params.clone());
    let rev = sim.add_link(right, left, params);
    let mut left_nic = Nic::new(fwd);
    let mut right_nic = Nic::new(rev);

    let mut stats = Vec::new();
    for (conn, cc) in [
        (1u64, Box::new(Reno::new(MSS)) as Box<dyn CongestionControl>),
        (2u64, Box::new(Vegas::new(MSS))),
    ] {
        let s = sim.reserve_actor();
        let r = sim.reserve_actor();
        let sender = TcpSender::new(conn, TxPath::Nic(left), TcpConfig::default(), cc);
        sim.install_actor(s, sender);
        let receiver = TcpReceiver::new(conn, TxPath::Nic(right));
        stats.push(receiver.stats());
        sim.install_actor(r, receiver);
        left_nic.add_route(conn, s);
        right_nic.add_route(conn, r);
    }
    sim.install_actor(left, left_nic);
    sim.install_actor(right, right_nic);
    sim.run_until(SimTime::from_secs(30));

    let reno = stats[0].borrow().goodput_bytes as f64;
    let vegas = stats[1].borrow().goodput_bytes as f64;
    let vegas_share = vegas / (reno + vegas);
    assert!(vegas_share < 0.35, "Reno's queue filling must squeeze Vegas: share {vegas_share}");
    assert!(vegas > 0.0, "Vegas must not fully starve");
}
