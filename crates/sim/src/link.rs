//! Directed links: rate, delay, jitter, loss and queueing.
//!
//! A [`LinkParams`] describes one direction of a channel; asymmetric access
//! links (§IV-D of the paper) are simply two directed links with different
//! rates. Link rate and up/down state can be changed while the simulation
//! runs, which is how the wireless models in `marnet-radio` impose throughput
//! variance, coverage gaps and handover blackouts.

use crate::queue::QueueConfig;
use crate::time::SimDuration;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a directed link within a [`crate::engine::Simulator`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct LinkId(pub(crate) u32);

impl LinkId {
    /// The raw index of this link.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "link#{}", self.0)
    }
}

/// A boundary-link rate update crossing from the fluid tier to the packet
/// tier.
///
/// The fluid tier (`marnet-flow`) sends this as an
/// [`crate::engine::Event::Message`] payload to the actor owning a
/// packet-level boundary link (typically a NIC); the receiver applies it
/// with [`crate::engine::SimCtx::set_link_rate`]. It lives here — not in
/// `marnet-flow` — so transports can apply updates without depending on the
/// fluid model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RateUpdate {
    /// The packet-level link whose available rate changed.
    pub link: LinkId,
    /// The new available rate (capacity minus fluid background load).
    pub rate: Bandwidth,
}

/// A data rate.
///
/// ```
/// use marnet_sim::link::Bandwidth;
/// let b = Bandwidth::from_mbps(10.0);
/// assert_eq!(b.as_bps(), 10_000_000);
/// // Serializing 1500 bytes at 10 Mb/s takes 1.2 ms.
/// assert_eq!(b.serialization_time(1500).as_millis_f64(), 1.2);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Bandwidth(u64);

impl Bandwidth {
    /// Zero rate (a blocked link).
    pub const ZERO: Bandwidth = Bandwidth(0);

    /// A rate of `bps` bits per second.
    pub const fn from_bps(bps: u64) -> Self {
        Bandwidth(bps)
    }

    /// A rate of `kbps` kilobits per second.
    pub fn from_kbps(kbps: f64) -> Self {
        assert!(kbps.is_finite() && kbps >= 0.0, "invalid rate: {kbps}");
        Bandwidth((kbps * 1e3).round() as u64)
    }

    /// A rate of `mbps` megabits per second.
    pub fn from_mbps(mbps: f64) -> Self {
        assert!(mbps.is_finite() && mbps >= 0.0, "invalid rate: {mbps}");
        Bandwidth((mbps * 1e6).round() as u64)
    }

    /// A rate of `gbps` gigabits per second.
    pub fn from_gbps(gbps: f64) -> Self {
        assert!(gbps.is_finite() && gbps >= 0.0, "invalid rate: {gbps}");
        Bandwidth((gbps * 1e9).round() as u64)
    }

    /// The rate in bits per second.
    pub const fn as_bps(self) -> u64 {
        self.0
    }

    /// The rate in megabits per second.
    pub fn as_mbps(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Time to serialize `bytes` bytes at this rate.
    ///
    /// Returns [`SimDuration::MAX`] for a zero rate.
    pub fn serialization_time(self, bytes: u32) -> SimDuration {
        if self.0 == 0 {
            return SimDuration::MAX;
        }
        // Bit-nanoseconds fit a `u64` up to 2 305 843 009 bytes, so every
        // packet takes the 64-bit division; only larger sizes widen, and
        // both paths give the same quotient.
        match u64::from(bytes).checked_mul(8_000_000_000) {
            Some(bit_nanos) => SimDuration::from_nanos(bit_nanos / self.0),
            None => self.wide_serialization_time(bytes),
        }
    }

    /// [`Bandwidth::serialization_time`] in `u128`, saturating.
    #[cold]
    fn wide_serialization_time(self, bytes: u32) -> SimDuration {
        let nanos = (u128::from(bytes) * 8 * 1_000_000_000) / u128::from(self.0);
        SimDuration::from_nanos(nanos.min(u128::from(u64::MAX)) as u64)
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.2}Gb/s", self.0 as f64 / 1e9)
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.2}Mb/s", self.0 as f64 / 1e6)
        } else {
            write!(f, "{:.1}Kb/s", self.0 as f64 / 1e3)
        }
    }
}

/// Random per-packet propagation-delay perturbation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum Jitter {
    /// No jitter.
    #[default]
    None,
    /// Uniform in `[0, max]`, added to the propagation delay.
    Uniform {
        /// Upper bound of the added delay.
        max: SimDuration,
    },
    /// Half-normal: `|N(0, sigma)|`, truncated at `3*sigma`.
    Gaussian {
        /// Standard deviation of the underlying normal.
        sigma: SimDuration,
    },
}

/// Random packet-loss process.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum LossModel {
    /// Lossless.
    #[default]
    None,
    /// Independent loss with probability `p`.
    Bernoulli {
        /// Per-packet loss probability in `[0, 1]`.
        p: f64,
    },
    /// Two-state Gilbert-Elliott bursty loss.
    GilbertElliott {
        /// Probability of moving good → bad per packet.
        p_good_to_bad: f64,
        /// Probability of moving bad → good per packet.
        p_bad_to_good: f64,
        /// Loss probability while in the bad state.
        loss_in_bad: f64,
    },
}

/// Configuration for one directed link.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkParams {
    /// Transmission rate.
    pub rate: Bandwidth,
    /// One-way propagation delay.
    pub delay: SimDuration,
    /// Per-packet delay perturbation.
    pub jitter: Jitter,
    /// Packet loss process.
    pub loss: LossModel,
    /// Queueing discipline at the transmitter.
    pub queue: QueueConfig,
}

impl LinkParams {
    /// A lossless, jitter-free link with a default 100-packet drop-tail queue.
    pub fn new(rate: Bandwidth, delay: SimDuration) -> Self {
        LinkParams {
            rate,
            delay,
            jitter: Jitter::None,
            loss: LossModel::None,
            queue: QueueConfig::default(),
        }
    }

    /// Sets the jitter model, builder style.
    #[must_use]
    pub fn with_jitter(mut self, jitter: Jitter) -> Self {
        self.jitter = jitter;
        self
    }

    /// Sets the loss model, builder style.
    #[must_use]
    pub fn with_loss(mut self, loss: LossModel) -> Self {
        self.loss = loss;
        self
    }

    /// Sets the queueing discipline, builder style.
    #[must_use]
    pub fn with_queue(mut self, queue: QueueConfig) -> Self {
        self.queue = queue;
        self
    }
}

/// Cumulative counters for one directed link.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct LinkStats {
    /// Packets offered to the link by actors.
    pub offered_packets: u64,
    /// Bytes offered to the link by actors.
    pub offered_bytes: u64,
    /// Packets fully serialized onto the wire.
    pub tx_packets: u64,
    /// Bytes fully serialized onto the wire.
    pub tx_bytes: u64,
    /// Packets delivered to the receiving actor.
    pub delivered_packets: u64,
    /// Bytes delivered to the receiving actor.
    pub delivered_bytes: u64,
    /// Drops because the queue was full.
    pub drops_queue: u64,
    /// Drops by the AQM at dequeue.
    pub drops_aqm: u64,
    /// Drops by the wire loss process.
    pub drops_loss: u64,
    /// Drops because the link was down.
    pub drops_down: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn bandwidth_conversions() {
        assert_eq!(Bandwidth::from_kbps(500.0).as_bps(), 500_000);
        assert_eq!(Bandwidth::from_mbps(1.5).as_bps(), 1_500_000);
        assert_eq!(Bandwidth::from_gbps(1.0).as_bps(), 1_000_000_000);
        assert_eq!(Bandwidth::from_mbps(10.0).as_mbps(), 10.0);
    }

    #[test]
    fn serialization_time() {
        // 1500 B at 1 Mb/s = 12 ms.
        let t = Bandwidth::from_mbps(1.0).serialization_time(1500);
        assert_eq!(t, SimDuration::from_millis(12));
        assert_eq!(Bandwidth::ZERO.serialization_time(1), SimDuration::MAX);
        // Zero-size packets serialize instantly.
        assert_eq!(Bandwidth::from_mbps(1.0).serialization_time(0), SimDuration::ZERO);
    }

    /// The `u128` formula `serialization_time` is held to.
    fn reference_serialization_time(bytes: u32, bps: u64) -> SimDuration {
        let nanos = (u128::from(bytes) * 8 * 1_000_000_000) / u128::from(bps);
        SimDuration::from_nanos(nanos.min(u128::from(u64::MAX)) as u64)
    }

    #[test]
    fn serialization_time_matches_the_u128_formula_across_the_u64_boundary() {
        // 2 305 843 009 is the last size whose bit-nanoseconds fit a u64.
        assert!(2_305_843_009u64.checked_mul(8_000_000_000).is_some());
        assert!(2_305_843_010u64.checked_mul(8_000_000_000).is_none());
        for bytes in [2_305_843_009, 2_305_843_010, u32::MAX] {
            for bps in [1, 3, 1_000_000, 999_999_937, 8_000_000_000, u64::MAX] {
                assert_eq!(
                    Bandwidth::from_bps(bps).serialization_time(bytes),
                    reference_serialization_time(bytes, bps),
                    "{bytes} B at {bps} b/s"
                );
            }
        }
        // At 1 b/s the largest sizes saturate.
        assert_eq!(Bandwidth::from_bps(1).serialization_time(u32::MAX), SimDuration::MAX);
    }

    proptest! {
        /// The `u64` path and its `u128` fallback give the reference
        /// formula's result for every size and nonzero rate.
        #[test]
        fn serialization_time_matches_the_u128_formula(
            bytes in prop_oneof![any::<u32>(), 0u32..65_536],
            bps in prop_oneof![1..=u64::MAX, 1u64..=100_000_000_000],
        ) {
            prop_assert_eq!(
                Bandwidth::from_bps(bps).serialization_time(bytes),
                reference_serialization_time(bytes, bps)
            );
        }
    }

    #[test]
    fn display() {
        assert_eq!(Bandwidth::from_mbps(42.0).to_string(), "42.00Mb/s");
        assert_eq!(Bandwidth::from_gbps(1.3).to_string(), "1.30Gb/s");
        assert_eq!(Bandwidth::from_kbps(55.0).to_string(), "55.0Kb/s");
    }

    #[test]
    fn params_builder() {
        let p = LinkParams::new(Bandwidth::from_mbps(10.0), SimDuration::from_millis(5))
            .with_loss(LossModel::Bernoulli { p: 0.01 })
            .with_jitter(Jitter::Uniform { max: SimDuration::from_millis(2) })
            .with_queue(QueueConfig::bloated_uplink());
        assert_eq!(p.loss, LossModel::Bernoulli { p: 0.01 });
        assert_eq!(p.queue, QueueConfig::DropTail { cap_packets: 1000 });
    }
}
