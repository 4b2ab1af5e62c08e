//! Property-based tests for the AR protocol's invariants: FEC residual
//! loss, priority ordering, scheduler conservation and the recovery gate.

use marnet_core::class::TrafficClass;
use marnet_core::class::{Priority, StreamKind};
use marnet_core::degradation::DegradationScheduler;
use marnet_core::fec::residual_loss;
use marnet_core::message::ArMessage;
use marnet_core::recovery::{FragmentRecord, RecoveryPolicy};
use marnet_sim::time::{SimDuration, SimTime};
use proptest::prelude::*;

proptest! {
    #[test]
    fn fec_residual_loss_is_probability_and_monotone_in_k(
        p in 0.0f64..=1.0,
        k in 1usize..32,
    ) {
        let r = residual_loss(k, p);
        prop_assert!((0.0..=1.0).contains(&r));
        // More data blocks per parity → weaker protection.
        prop_assert!(residual_loss(k + 1, p) >= r - 1e-12);
    }

    #[test]
    fn priority_rank_is_consistent_with_semantics(level in 0u8..16) {
        // Anything droppable ranks strictly below Highest.
        prop_assert!(Priority::Highest.rank() < Priority::DropNotDelay(level).rank());
        prop_assert!(Priority::Highest.rank() < Priority::Lowest(level).rank());
        // Delayable-not-droppable sits between Highest and the droppables.
        prop_assert!(Priority::DelayNotDrop(level).rank() < Priority::DropNotDelay(0).rank());
        // Band never exceeds 3, rank is stable.
        prop_assert!(Priority::Lowest(level).band() == 3);
    }

    /// Scheduler conservation: every submitted message is sent, dropped or
    /// still queued — none invented, none lost.
    #[test]
    fn degradation_scheduler_conserves_messages(
        sizes in prop::collection::vec(1u32..20_000, 1..100),
        budget in 100.0f64..50_000.0,
        ticks in 1usize..20,
    ) {
        let mut s = DegradationScheduler::new(SimDuration::from_millis(100), 4.0);
        let n = sizes.len();
        for (i, size) in sizes.into_iter().enumerate() {
            let kind = match i % 4 {
                0 => StreamKind::Metadata,
                1 => StreamKind::Sensor,
                2 => StreamKind::VideoReference,
                _ => StreamKind::VideoInter,
            };
            s.submit(ArMessage::new(i as u64, kind, size, SimTime::ZERO));
        }
        let mut sent = 0usize;
        let mut dropped = 0usize;
        for t in 0..ticks {
            let out = s.tick(SimTime::from_millis(t as u64 * 5), budget);
            sent += out.sent.len();
            dropped += out.dropped.len();
        }
        prop_assert_eq!(sent + dropped + s.queued_messages(), n);
    }

    /// Non-droppable messages are never dropped, whatever the pressure.
    #[test]
    fn scheduler_never_drops_undroppable(
        n in 1usize..80,
        budget in 0.0f64..5_000.0,
    ) {
        let mut s = DegradationScheduler::new(SimDuration::from_millis(10), 1.0);
        for i in 0..n {
            let kind = if i % 2 == 0 { StreamKind::Metadata } else { StreamKind::Sensor };
            s.submit(
                ArMessage::new(i as u64, kind, 5_000, SimTime::ZERO)
                    .with_deadline(SimTime::from_millis(1)),
            );
        }
        // Far past every deadline, with pressure: still no drops allowed.
        let out = s.tick(SimTime::from_secs(100), budget);
        prop_assert!(out.dropped.is_empty());
    }

    /// Recovery-gate monotonicity: if a retransmission is allowed at some
    /// RTT, it is allowed at any smaller RTT (same instant).
    #[test]
    fn recovery_gate_is_monotone_in_rtt(
        deadline_ms in 1u64..500,
        now_ms in 0u64..500,
        rtt_ms in 1u64..400,
        smaller in 0u64..400,
    ) {
        let policy = RecoveryPolicy::default();
        let frag = FragmentRecord {
            msg_id: 0,
            frag_index: 0,
            frag_count: 1,
            size: 1000,
            kind: StreamKind::VideoReference,
            class: TrafficClass::BestEffortWithRecovery,
            created: SimTime::ZERO,
            prio_band: 0,
            deadline: Some(SimTime::from_millis(deadline_ms)),
            attempts: 1,
        };
        let now = SimTime::from_millis(now_ms);
        let big = SimDuration::from_millis(rtt_ms);
        let small = SimDuration::from_millis(smaller.min(rtt_ms));
        if policy.should_retransmit(&frag, Some(big), now) {
            prop_assert!(policy.should_retransmit(&frag, Some(small), now));
        }
    }

    /// The gate never fires after the deadline for deadline-gated classes.
    #[test]
    fn recovery_gate_respects_deadlines(
        deadline_ms in 1u64..500,
        late_by in 1u64..500,
        rtt_ms in 1u64..400,
    ) {
        let policy = RecoveryPolicy::default();
        let frag = FragmentRecord {
            msg_id: 0,
            frag_index: 0,
            frag_count: 1,
            size: 1000,
            kind: StreamKind::VideoReference,
            class: TrafficClass::BestEffortWithRecovery,
            created: SimTime::ZERO,
            prio_band: 0,
            deadline: Some(SimTime::from_millis(deadline_ms)),
            attempts: 1,
        };
        let now = SimTime::from_millis(deadline_ms + late_by);
        prop_assert!(!policy.should_retransmit(&frag, Some(SimDuration::from_millis(rtt_ms)), now));
    }

    #[test]
    fn fragment_count_covers_all_bytes(size in 0u32..10_000_000, mtu in 1u32..9000) {
        let m = ArMessage::new(1, StreamKind::VideoInter, size, SimTime::ZERO);
        let frags = m.fragment_count(mtu);
        prop_assert!(frags >= 1);
        prop_assert!(u64::from(frags) * u64::from(mtu) >= u64::from(size));
        if size > 0 {
            prop_assert!(u64::from(frags - 1) * u64::from(mtu) < u64::from(size));
        }
    }
}

mod controller_props {
    use marnet_core::class::StreamKind;
    use marnet_core::congestion::{CongestionConfig, DelayCongestionController, MIN_RATE};
    use marnet_core::multipath::{MultipathPolicy, MultipathScheduler, PathRole, PathSnapshot};
    use marnet_sim::time::{SimDuration, SimTime};
    use proptest::prelude::*;

    proptest! {
        /// The controller's rate stays within [MIN_RATE, max_rate] under any
        /// feedback sequence.
        #[test]
        fn rate_stays_within_configured_bounds(
            events in prop::collection::vec((1u64..2_000, 0u64..4, 0u64..1_000_000), 1..200),
        ) {
            let cfg = CongestionConfig { max_rate: 500_000.0, ..CongestionConfig::default() };
            let mut c = DelayCongestionController::new(cfg);
            let mut now = SimTime::ZERO;
            for (rtt_ms, losses, recv) in events {
                now += SimDuration::from_millis(15);
                let recv_rate = if recv == 0 { None } else { Some(recv as f64) };
                c.on_feedback(SimDuration::from_millis(rtt_ms), losses, recv_rate, now);
                let r = c.rate_bytes_per_sec();
                prop_assert!((MIN_RATE..=500_000.0).contains(&r), "rate {r}");
            }
            // Estimator sanity after the storm.
            prop_assert!(c.base_rtt().unwrap() <= c.srtt().unwrap() + c.jitter() * 8);
        }

        /// Multipath selection only ever returns up paths, valid indices and
        /// no duplicate picks.
        #[test]
        fn selection_is_always_valid(
            ups in prop::collection::vec(any::<bool>(), 1..5),
            srtts in prop::collection::vec(1u64..200, 1..5),
            policy_idx in 0usize..3,
            dup in any::<bool>(),
            kind_idx in 0usize..6,
        ) {
            let n = ups.len().min(srtts.len());
            let snaps: Vec<PathSnapshot> = (0..n)
                .map(|i| PathSnapshot {
                    role: if i == 0 { PathRole::Wifi } else { PathRole::Cellular },
                    up: ups[i],
                    srtt: Some(SimDuration::from_millis(srtts[i])),
                    rate: 100_000.0 + i as f64,
                })
                .collect();
            let policy = [
                MultipathPolicy::WifiOnly,
                MultipathPolicy::WifiPreferred,
                MultipathPolicy::Aggregate,
            ][policy_idx];
            let kind = marnet_core::class::ALL_STREAM_KINDS[kind_idx];
            let (class, prio) = kind.default_class();
            let mut mp = MultipathScheduler::new(policy, dup);
            let picks = mp.select(&snaps, class, prio, 1_200);
            let mut seen = std::collections::HashSet::new();
            for &p in &picks {
                prop_assert!(p < snaps.len(), "index {p} out of range");
                prop_assert!(snaps[p].up, "selected a down path");
                prop_assert!(seen.insert(p), "duplicate pick {p}");
            }
            prop_assert!(picks.len() <= 2);
            // With every path down, nothing may be picked.
            if snaps.iter().all(|s| !s.up) {
                prop_assert!(picks.is_empty());
            }
            let _ = StreamKind::Metadata;
        }
    }
}
