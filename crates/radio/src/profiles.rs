//! The wireless technology catalog of §IV-A, with theoretical and measured
//! characteristics, and samplers that produce simulator link parameters.
//!
//! All numbers are the ones quoted in the paper (its references \[26\]-\[42\]):
//! OpenSignal/SpeedTest corpus averages, the Singapore cellular study, the
//! NGMN 5G White Paper KPIs, and the LTE-Direct/WiFi-Direct specifications.

use marnet_sim::link::{Bandwidth, Jitter, LinkParams, LossModel};
use marnet_sim::queue::QueueConfig;
use marnet_sim::time::SimDuration;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Which direction of an access link is being described.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LinkDirection {
    /// Network → device.
    Downlink,
    /// Device → network. MAR offloading stresses this direction (§IV-D).
    Uplink,
}

/// The wireless access technologies surveyed in §IV-A.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RadioTechnology {
    /// HSPA+ ("3.5G"). Theoretically 84-168 Mb/s down; measured around
    /// 0.66-3.48 Mb/s with 110-131 ms latency (§IV-A-1).
    HspaPlus,
    /// LTE. Theoretically 326 Mb/s down / 75 Mb/s up; measured around
    /// 6.6-19.6 Mb/s down with 66-85 ms latency (§IV-A-2).
    Lte,
    /// LTE-Direct device-to-device: ~1 km range, ~1 Gb/s, in-band (§IV-A-3).
    LteDirect,
    /// 802.11n WiFi: up to 600 Mb/s theoretical, ~6.7 Mb/s measured
    /// (§IV-A-4).
    Wifi80211n,
    /// 802.11ac WiFi: up to 1300 Mb/s theoretical, ~33.4 Mb/s measured
    /// (§IV-A-4).
    Wifi80211ac,
    /// WiFi-Direct device-to-device: ~200 m range, ~500 Mb/s (§IV-A-5).
    WifiDirect,
    /// The NGMN 5G White Paper AR use-case KPIs: 300/50 Mb/s with 10 ms
    /// end-to-end latency, seamless 0-100 km/h (§IV-C).
    FiveG,
}

impl RadioTechnology {
    /// All technologies, in the order the paper presents them.
    pub const ALL: [RadioTechnology; 7] = [
        RadioTechnology::HspaPlus,
        RadioTechnology::Lte,
        RadioTechnology::LteDirect,
        RadioTechnology::Wifi80211n,
        RadioTechnology::Wifi80211ac,
        RadioTechnology::WifiDirect,
        RadioTechnology::FiveG,
    ];

    /// The measured/specified characteristics for this technology.
    pub fn profile(self) -> RadioProfile {
        profile(self)
    }
}

impl fmt::Display for RadioTechnology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RadioTechnology::HspaPlus => "HSPA+",
            RadioTechnology::Lte => "LTE",
            RadioTechnology::LteDirect => "LTE-Direct",
            RadioTechnology::Wifi80211n => "802.11n",
            RadioTechnology::Wifi80211ac => "802.11ac",
            RadioTechnology::WifiDirect => "WiFi-Direct",
            RadioTechnology::FiveG => "5G (NGMN KPI)",
        };
        f.write_str(s)
    }
}

/// An inclusive `[low, high]` range of some measured quantity.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Range {
    /// Lower end of the observed range.
    pub low: f64,
    /// Upper end of the observed range.
    pub high: f64,
}

impl Range {
    /// A range between `low` and `high`.
    ///
    /// # Panics
    ///
    /// Panics if `low > high`.
    pub fn new(low: f64, high: f64) -> Self {
        assert!(low <= high, "inverted range {low}..{high}");
        Range { low, high }
    }

    /// A degenerate single-value range.
    pub fn exact(v: f64) -> Self {
        Range { low: v, high: v }
    }

    /// The midpoint of the range.
    pub fn mid(self) -> f64 {
        (self.low + self.high) / 2.0
    }

    /// Samples uniformly within the range.
    pub fn sample<R: Rng>(self, rng: &mut R) -> f64 {
        if self.low == self.high {
            self.low
        } else {
            rng.gen_range(self.low..=self.high)
        }
    }
}

/// Measured and theoretical characteristics of one access technology.
///
/// Rates are in Mb/s, latencies are end-to-end round-trip in milliseconds
/// (the paper's measurement corpora report RTT-like "latency").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RadioProfile {
    /// The technology this profile describes.
    pub technology: RadioTechnology,
    /// Advertised peak downlink rate (Mb/s).
    pub theoretical_down_mbps: f64,
    /// Advertised peak uplink rate (Mb/s).
    pub theoretical_up_mbps: f64,
    /// Measured downlink throughput range (Mb/s).
    pub measured_down_mbps: Range,
    /// Measured uplink throughput range (Mb/s).
    pub measured_up_mbps: Range,
    /// Measured round-trip latency range (ms).
    pub latency_ms: Range,
    /// Typical random packet loss probability on the access link.
    pub loss: f64,
    /// Radio range in meters for D2D technologies (`None` for
    /// infrastructure networks).
    pub range_m: Option<f64>,
}

impl RadioProfile {
    /// Ratio between advertised and measured (midpoint) downlink rate —
    /// the "disparity" §IV-A-4 discusses.
    pub fn hype_factor(&self) -> f64 {
        self.theoretical_down_mbps / self.measured_down_mbps.mid()
    }

    /// Whether the midpoint RTT meets the paper's 75 ms round-trip budget
    /// for seamless MAR (§III-B).
    pub fn meets_mar_latency_budget(&self) -> bool {
        self.latency_ms.mid() <= 75.0
    }

    /// Whether the midpoint uplink sustains at least the paper's ~10 Mb/s
    /// minimal video feed (§III-B) on the direction MAR offloading uses.
    pub fn meets_mar_uplink_budget(&self) -> bool {
        self.measured_up_mbps.mid() >= 10.0
    }

    /// Samples concrete link parameters for one direction of this access
    /// network, drawing throughput and latency from the measured ranges.
    ///
    /// The one-way propagation delay is taken as half the sampled RTT; the
    /// uplink queue defaults to the oversized buffer of §VI-H.
    pub fn sample_link_params<R: Rng>(&self, dir: LinkDirection, rng: &mut R) -> LinkParams {
        let mbps = match dir {
            LinkDirection::Downlink => self.measured_down_mbps.sample(rng),
            LinkDirection::Uplink => self.measured_up_mbps.sample(rng),
        };
        let rtt_ms = self.latency_ms.sample(rng);
        let queue = match dir {
            LinkDirection::Downlink => QueueConfig::DropTail { cap_packets: 300 },
            LinkDirection::Uplink => QueueConfig::bloated_uplink(),
        };
        LinkParams::new(Bandwidth::from_mbps(mbps), SimDuration::from_millis_f64(rtt_ms / 2.0))
            .with_jitter(Jitter::Gaussian { sigma: SimDuration::from_millis_f64(rtt_ms * 0.05) })
            .with_loss(LossModel::Bernoulli { p: self.loss })
            .with_queue(queue)
    }
}

/// The calibrated catalog, one profile per technology (§IV-A numbers).
pub fn catalog() -> Vec<RadioProfile> {
    RadioTechnology::ALL.iter().map(|&t| profile(t)).collect()
}

fn profile(t: RadioTechnology) -> RadioProfile {
    match t {
        // §IV-A-1: theoretical 84-168 down / 22 up (consumer 21-42);
        // measured US: 0.66-3.48 Mb/s down, 109.94-131.22 ms; Singapore:
        // ~7 down / ~1.5 up, latency spikes to 800 ms.
        RadioTechnology::HspaPlus => RadioProfile {
            technology: t,
            theoretical_down_mbps: 168.0,
            theoretical_up_mbps: 22.0,
            measured_down_mbps: Range::new(0.66, 7.0),
            measured_up_mbps: Range::new(0.5, 1.5),
            latency_ms: Range::new(109.94, 131.22),
            loss: 0.01,
            range_m: None,
        },
        // §IV-A-2: theoretical 326 down / 75 up; measured US 6.56-12.26
        // down (OpenSignal) and 19.61/7.94 (SpeedTest); latency 66.06-85.03.
        RadioTechnology::Lte => RadioProfile {
            technology: t,
            theoretical_down_mbps: 326.0,
            theoretical_up_mbps: 75.0,
            measured_down_mbps: Range::new(6.56, 19.61),
            measured_up_mbps: Range::new(2.0, 7.94),
            latency_ms: Range::new(66.06, 85.03),
            loss: 0.005,
            range_m: None,
        },
        // §IV-A-3: ~1 km radius, ~1 Gb/s, "theoretically lower latencies";
        // not deployed, so measured == nominal spec derated.
        RadioTechnology::LteDirect => RadioProfile {
            technology: t,
            theoretical_down_mbps: 1000.0,
            theoretical_up_mbps: 1000.0,
            measured_down_mbps: Range::new(200.0, 600.0),
            measured_up_mbps: Range::new(200.0, 600.0),
            latency_ms: Range::new(5.0, 20.0),
            loss: 0.005,
            range_m: Some(1000.0),
        },
        // §IV-A-4: theoretical 600; OpenSignal measured ~6.7 down; average
        // reported 802.11 latency ~150 ms, a few ms on a personal AP.
        RadioTechnology::Wifi80211n => RadioProfile {
            technology: t,
            theoretical_down_mbps: 600.0,
            theoretical_up_mbps: 600.0,
            measured_down_mbps: Range::new(4.0, 10.0),
            measured_up_mbps: Range::new(4.0, 10.0),
            latency_ms: Range::new(20.0, 150.0),
            loss: 0.01,
            range_m: None,
        },
        // §IV-A-4: theoretical 1300; measured ~33.4 down.
        RadioTechnology::Wifi80211ac => RadioProfile {
            technology: t,
            theoretical_down_mbps: 1300.0,
            theoretical_up_mbps: 1300.0,
            measured_down_mbps: Range::new(20.0, 50.0),
            measured_up_mbps: Range::new(20.0, 50.0),
            // §IV-A-4: average reported 802.11 latency is ~150 ms, though a
            // controlled personal AP drops to a few ms (the Table II local
            // scenario models that case explicitly).
            latency_ms: Range::new(10.0, 150.0),
            loss: 0.005,
            range_m: None,
        },
        // §IV-A-5: 200 m range, 500 Mb/s, strongly mobility dependent.
        RadioTechnology::WifiDirect => RadioProfile {
            technology: t,
            theoretical_down_mbps: 500.0,
            theoretical_up_mbps: 500.0,
            measured_down_mbps: Range::new(40.0, 250.0),
            measured_up_mbps: Range::new(40.0, 250.0),
            latency_ms: Range::new(2.0, 15.0),
            loss: 0.01,
            range_m: Some(200.0),
        },
        // §IV-C: NGMN 5G AR KPIs — 300 down / 50 up, 10 ms end-to-end.
        RadioTechnology::FiveG => RadioProfile {
            technology: t,
            theoretical_down_mbps: 1000.0,
            theoretical_up_mbps: 500.0,
            measured_down_mbps: Range::new(100.0, 300.0),
            measured_up_mbps: Range::new(25.0, 50.0),
            latency_ms: Range::new(8.0, 12.0),
            loss: 0.001,
            range_m: None,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marnet_sim::rng::derive_rng;

    #[test]
    fn catalog_covers_all_technologies() {
        let c = catalog();
        assert_eq!(c.len(), RadioTechnology::ALL.len());
        for (p, &t) in c.iter().zip(RadioTechnology::ALL.iter()) {
            assert_eq!(p.technology, t);
            assert!(p.measured_down_mbps.low > 0.0);
            assert!(p.latency_ms.low > 0.0);
        }
    }

    #[test]
    fn measured_rates_are_below_theoretical() {
        for p in catalog() {
            assert!(
                p.measured_down_mbps.high <= p.theoretical_down_mbps,
                "{}: measured exceeds theoretical",
                p.technology
            );
            assert!(p.hype_factor() >= 1.0, "{}", p.technology);
        }
    }

    #[test]
    fn only_5g_and_d2d_meet_the_mar_budgets() {
        // §IV concludes current infrastructure networks miss the 75 ms /
        // 10 Mb/s uplink budgets; 5G KPIs and (undeployed) D2D links meet
        // them. This is the paper's core motivating observation.
        for p in catalog() {
            let meets = p.meets_mar_latency_budget() && p.meets_mar_uplink_budget();
            let expected = matches!(
                p.technology,
                RadioTechnology::FiveG | RadioTechnology::LteDirect | RadioTechnology::WifiDirect
            );
            assert_eq!(meets, expected, "{}", p.technology);
        }
    }

    #[test]
    fn hspa_fails_latency_lte_borderline() {
        let hspa = RadioTechnology::HspaPlus.profile();
        assert!(!hspa.meets_mar_latency_budget());
        let lte = RadioTechnology::Lte.profile();
        assert!(!lte.meets_mar_latency_budget());
        // But LTE is "noticeable enough to enable some real-time apps":
        // its best-case latency is under the 100 ms interactive budget.
        assert!(lte.latency_ms.low < 100.0);
    }

    #[test]
    fn sampled_params_stay_in_range() {
        let mut rng = derive_rng(3, "profiles.test");
        let p = RadioTechnology::Lte.profile();
        for _ in 0..100 {
            let up = p.sample_link_params(LinkDirection::Uplink, &mut rng);
            let mbps = up.rate.as_mbps();
            assert!(
                mbps >= p.measured_up_mbps.low - 1e-9 && mbps <= p.measured_up_mbps.high + 1e-9
            );
            let one_way_ms = up.delay.as_millis_f64();
            assert!(one_way_ms >= p.latency_ms.low / 2.0 - 1e-9);
            assert!(one_way_ms <= p.latency_ms.high / 2.0 + 1e-9);
        }
    }

    #[test]
    fn uplink_gets_the_bloated_buffer() {
        let mut rng = derive_rng(3, "profiles.test2");
        let p = RadioTechnology::Lte.profile();
        let up = p.sample_link_params(LinkDirection::Uplink, &mut rng);
        assert_eq!(up.queue, QueueConfig::DropTail { cap_packets: 1000 });
        let down = p.sample_link_params(LinkDirection::Downlink, &mut rng);
        assert_eq!(down.queue, QueueConfig::DropTail { cap_packets: 300 });
    }

    #[test]
    fn d2d_flags_and_ranges() {
        assert_eq!(RadioTechnology::LteDirect.profile().range_m, Some(1000.0));
        assert_eq!(RadioTechnology::WifiDirect.profile().range_m, Some(200.0));
        assert_eq!(RadioTechnology::FiveG.profile().range_m, None);
    }

    #[test]
    fn range_sampling() {
        let mut rng = derive_rng(1, "range");
        let r = Range::new(2.0, 4.0);
        for _ in 0..50 {
            let v = r.sample(&mut rng);
            assert!((2.0..=4.0).contains(&v));
        }
        assert_eq!(Range::exact(3.0).sample(&mut rng), 3.0);
        assert_eq!(r.mid(), 3.0);
    }

    #[test]
    #[should_panic]
    fn inverted_range_panics() {
        let _ = Range::new(4.0, 2.0);
    }

    #[test]
    fn display_names() {
        assert_eq!(RadioTechnology::HspaPlus.to_string(), "HSPA+");
        assert_eq!(RadioTechnology::Wifi80211ac.to_string(), "802.11ac");
    }
}
