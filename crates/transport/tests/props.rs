//! Property-based tests for the transport substrate: RTT estimation
//! invariants, congestion-control safety bounds, and TCP delivery
//! correctness under arbitrary loss.

use marnet_sim::engine::Simulator;
use marnet_sim::link::{Bandwidth, LinkParams, LossModel};
use marnet_sim::queue::QueueConfig;
use marnet_sim::time::{SimDuration, SimTime};
use marnet_transport::nic::TxPath;
use marnet_transport::tcp::{
    CongestionControl, DataSource, Reno, RttEstimator, TcpConfig, TcpReceiver, TcpSender, Vegas,
    MSS,
};
use proptest::prelude::*;

proptest! {
    #[test]
    fn rto_is_always_clamped_and_above_srtt(samples in prop::collection::vec(1u64..10_000, 1..100)) {
        let mut e = RttEstimator::new();
        for ms in samples {
            e.sample(SimDuration::from_millis(ms));
            let rto = e.rto();
            prop_assert!(rto >= RttEstimator::MIN_RTO);
            prop_assert!(rto <= RttEstimator::MAX_RTO);
            // RTO must never fall below the smoothed RTT (clamped at max).
            let srtt = e.srtt().unwrap();
            prop_assert!(rto >= srtt.min(RttEstimator::MAX_RTO));
        }
    }

    #[test]
    fn min_rtt_is_really_the_minimum(samples in prop::collection::vec(1u64..10_000, 1..100)) {
        let mut e = RttEstimator::new();
        let mut true_min = u64::MAX;
        for ms in samples {
            true_min = true_min.min(ms);
            e.sample(SimDuration::from_millis(ms));
        }
        prop_assert_eq!(e.min_rtt().unwrap(), SimDuration::from_millis(true_min));
    }

    /// All congestion controllers keep cwnd within sane bounds under an
    /// arbitrary interleaving of acks, losses and timeouts.
    #[test]
    fn cwnd_stays_positive_under_any_event_sequence(
        events in prop::collection::vec(0u8..3, 1..300),
        mss in 500u32..2000,
    ) {
        let mut ccs: Vec<Box<dyn CongestionControl>> =
            vec![Box::new(Reno::new(mss)), Box::new(Vegas::new(mss))];
        let mut now = SimTime::ZERO;
        for (i, ev) in events.iter().enumerate() {
            now += SimDuration::from_millis(10);
            for cc in &mut ccs {
                match ev {
                    0 => cc.on_ack(
                        u64::from(mss),
                        u64::from(mss) * 4,
                        Some(SimDuration::from_millis(20 + (i as u64 % 50))),
                        now,
                    ),
                    1 => cc.on_loss(now),
                    _ => cc.on_timeout(now),
                }
                prop_assert!(cc.cwnd() >= u64::from(mss), "{} cwnd {}", cc.name(), cc.cwnd());
                prop_assert!(cc.cwnd() < 1 << 40, "{} cwnd blew up", cc.name());
            }
        }
    }

    /// End-to-end TCP correctness: a finite transfer completes and the
    /// receiver counts exactly the sent bytes, for arbitrary loss rates and
    /// transfer sizes.
    #[test]
    fn tcp_delivers_exactly_once_under_loss(
        loss in 0.0f64..0.12,
        kilobytes in 10u64..300,
        seed in 0u64..50,
    ) {
        let total = kilobytes * 1000;
        let mut sim = Simulator::new(seed);
        let s = sim.reserve_actor();
        let r = sim.reserve_actor();
        let big = QueueConfig::DropTail { cap_packets: 10_000 };
        let fwd = sim.add_link(
            s,
            r,
            LinkParams::new(Bandwidth::from_mbps(10.0), SimDuration::from_millis(5))
                .with_loss(LossModel::Bernoulli { p: loss })
                .with_queue(big.clone()),
        );
        let rev = sim.add_link(
            r,
            s,
            LinkParams::new(Bandwidth::from_mbps(10.0), SimDuration::from_millis(5))
                .with_loss(LossModel::Bernoulli { p: loss / 2.0 })
                .with_queue(big),
        );
        let cfg = TcpConfig { data: DataSource::Finite(total), ..Default::default() };
        let sender = TcpSender::new(1, TxPath::Link(fwd), cfg, Box::new(Reno::new(MSS)));
        let sstats = sender.stats();
        sim.install_actor(s, sender);
        let receiver = TcpReceiver::new(1, TxPath::Link(rev));
        let rstats = receiver.stats();
        sim.install_actor(r, receiver);
        sim.run_until(SimTime::from_secs(600));
        prop_assert!(
            sstats.borrow().completed_at.is_some(),
            "transfer of {total} B stalled at loss {loss}"
        );
        prop_assert_eq!(rstats.borrow().goodput_bytes, total);
    }
}
