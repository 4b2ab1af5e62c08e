//! Coverage and handover traces (§IV-A-4, §VI-D).
//!
//! The Wi2Me study the paper cites found that in a medium-sized French city
//! WiFi was *present* 98.9% of the time but an actual Internet connection was
//! available only 53.8% of the time, because open APs are sparse, association
//! and captive portals take seconds, and handover leaves multi-second gaps.
//! Cellular (3G) coverage was 99.23%.
//!
//! [`CoverageTrace`] generates alternating connected/disconnected intervals
//! with those duty cycles, and [`CoverageActor`] drives a pair of simulator
//! links up and down accordingly — the substrate for the E12 multipath
//! policy experiment ("WiFi all the time, 4G for handover", etc.).

use marnet_sim::engine::{Actor, Event, SimCtx};
use marnet_sim::link::LinkId;
use marnet_sim::time::{SimDuration, SimTime};
use rand::Rng;
use rand_chacha::ChaCha12Rng;
use serde::{Deserialize, Serialize};

/// One interval of a coverage trace.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CoverageInterval {
    /// Interval start.
    pub from: SimTime,
    /// Interval end (exclusive).
    pub to: SimTime,
    /// Whether the network is usable during the interval.
    pub usable: bool,
}

/// Parameters of the alternating-renewal coverage process.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CoverageModel {
    /// Long-run fraction of time the network is usable.
    pub usable_fraction: f64,
    /// Mean duration of a usable period.
    pub mean_usable: SimDuration,
    /// Extra unusable time tacked onto each gap for (re)association and
    /// handover — the "several seconds gaps" of §IV-A-4.
    pub handover_gap: SimDuration,
}

impl CoverageModel {
    /// The Wi2Me walking-user WiFi model: usable 53.8% of the time, with
    /// connection periods of ~30 s and multi-second handover gaps.
    pub fn wifi_urban_walk() -> Self {
        CoverageModel {
            usable_fraction: 0.538,
            mean_usable: SimDuration::from_secs(30),
            handover_gap: SimDuration::from_secs(3),
        }
    }

    /// Cellular coverage: usable 98% of the time with long connected spells
    /// (the paper quotes 3G coverage of 99.23% and LTE population coverage
    /// of 98%; gaps are tunnels/elevators).
    pub fn cellular() -> Self {
        CoverageModel {
            usable_fraction: 0.98,
            mean_usable: SimDuration::from_secs(300),
            handover_gap: SimDuration::from_millis(500),
        }
    }

    /// Mean duration of an unusable gap implied by the duty cycle
    /// (excluding the fixed handover add-on).
    fn mean_gap(&self) -> SimDuration {
        if self.usable_fraction >= 1.0 {
            return SimDuration::ZERO;
        }
        let ratio = (1.0 - self.usable_fraction) / self.usable_fraction;
        self.mean_usable.mul_f64(ratio)
    }

    /// Generates a trace covering `[0, horizon)`. Interval lengths are
    /// exponential around the configured means (alternating renewal
    /// process), starting in the usable state.
    pub fn generate(&self, horizon: SimTime, rng: &mut ChaCha12Rng) -> CoverageTrace {
        let mut intervals = Vec::new();
        let mut t = SimTime::ZERO;
        let mut usable = true;
        let mean_gap = self.mean_gap();
        while t < horizon {
            let mean = if usable { self.mean_usable } else { mean_gap + self.handover_gap };
            let len = if mean == SimDuration::ZERO {
                horizon - t
            } else {
                // Exponential with the given mean; clamp away zero-length.
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                SimDuration::from_secs_f64((-u.ln() * mean.as_secs_f64()).max(1e-3))
            };
            let end = t.saturating_add(len).min(horizon);
            intervals.push(CoverageInterval { from: t, to: end, usable });
            t = end;
            usable = !usable;
        }
        CoverageTrace { intervals }
    }
}

/// A concrete sequence of usable/unusable intervals.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoverageTrace {
    intervals: Vec<CoverageInterval>,
}

impl CoverageTrace {
    /// The intervals of the trace.
    pub fn intervals(&self) -> &[CoverageInterval] {
        &self.intervals
    }

    /// Fraction of `[0, horizon)` that is usable.
    pub fn usable_fraction(&self) -> f64 {
        let total: f64 = self.intervals.iter().map(|iv| (iv.to - iv.from).as_secs_f64()).sum();
        if total == 0.0 {
            return 0.0;
        }
        let usable: f64 = self
            .intervals
            .iter()
            .filter(|iv| iv.usable)
            .map(|iv| (iv.to - iv.from).as_secs_f64())
            .sum();
        usable / total
    }
}

/// Actor that applies a [`CoverageTrace`] to a set of links, bringing them
/// up and down as the trace dictates.
#[derive(Debug)]
pub struct CoverageActor {
    trace: CoverageTrace,
    links: Vec<LinkId>,
    next: usize,
}

impl CoverageActor {
    /// Creates an actor driving `links` with `trace`.
    pub fn new(trace: CoverageTrace, links: Vec<LinkId>) -> Self {
        CoverageActor { trace, links, next: 0 }
    }

    fn apply(&mut self, ctx: &mut SimCtx) {
        while self.next < self.trace.intervals.len() {
            let iv = self.trace.intervals[self.next];
            if iv.from > ctx.now() {
                ctx.schedule_timer(iv.from - ctx.now(), 0);
                return;
            }
            for &l in &self.links {
                ctx.set_link_up(l, iv.usable);
            }
            self.next += 1;
        }
    }
}

impl Actor for CoverageActor {
    fn on_event(&mut self, ctx: &mut SimCtx, ev: Event) {
        if matches!(ev, Event::Start | Event::Timer { .. }) {
            self.apply(ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marnet_sim::rng::derive_rng;

    /// Number of usable→unusable transitions (handover events).
    fn gap_count(trace: &CoverageTrace) -> usize {
        trace.intervals.windows(2).filter(|w| w[0].usable && !w[1].usable).count()
    }

    #[test]
    fn generated_trace_matches_duty_cycle() {
        let model = CoverageModel::wifi_urban_walk();
        let mut rng = derive_rng(11, "coverage");
        let trace = model.generate(SimTime::from_secs(20_000), &mut rng);
        let frac = trace.usable_fraction();
        assert!((frac - 0.538).abs() < 0.08, "usable fraction {frac}");
        assert!(gap_count(&trace) > 50);
    }

    #[test]
    fn cellular_is_mostly_up() {
        let mut rng = derive_rng(12, "coverage2");
        let trace = CoverageModel::cellular().generate(SimTime::from_secs(100_000), &mut rng);
        let frac = trace.usable_fraction();
        assert!(frac > 0.93, "cellular usable fraction {frac}");
    }

    #[test]
    fn always_on_has_no_gaps() {
        let mut rng = derive_rng(13, "coverage3");
        let always_on = CoverageModel {
            usable_fraction: 1.0,
            mean_usable: SimDuration::from_secs(3600),
            handover_gap: SimDuration::ZERO,
        };
        assert_eq!(always_on.mean_gap(), SimDuration::ZERO);
        let trace = always_on.generate(SimTime::from_secs(1000), &mut rng);
        assert_eq!(trace.usable_fraction(), 1.0);
        assert_eq!(gap_count(&trace), 0);
    }

    #[test]
    fn coverage_actor_toggles_links() {
        use marnet_sim::engine::Simulator;
        use marnet_sim::link::{Bandwidth, LinkParams};

        struct Idle;
        impl Actor for Idle {
            fn on_event(&mut self, _: &mut SimCtx, _: Event) {}
        }
        let mut sim = Simulator::new(1);
        let a = sim.add_actor(Idle);
        let b = sim.add_actor(Idle);
        let l = sim.add_link(a, b, LinkParams::new(Bandwidth::from_mbps(1.0), SimDuration::ZERO));
        let trace = CoverageTrace {
            intervals: vec![
                CoverageInterval { from: SimTime::ZERO, to: SimTime::from_secs(1), usable: true },
                CoverageInterval {
                    from: SimTime::from_secs(1),
                    to: SimTime::from_secs(2),
                    usable: false,
                },
                CoverageInterval {
                    from: SimTime::from_secs(2),
                    to: SimTime::from_secs(3),
                    usable: true,
                },
            ],
        };
        sim.add_actor(CoverageActor::new(trace, vec![l]));
        sim.run_until(SimTime::from_millis(500));
        assert!(sim.ctx().link_is_up(l));
        sim.run_until(SimTime::from_millis(1500));
        assert!(!sim.ctx().link_is_up(l));
        sim.run_until(SimTime::from_millis(2500));
        assert!(sim.ctx().link_is_up(l));
    }

    #[test]
    fn mean_gap_matches_duty_cycle() {
        let m = CoverageModel {
            usable_fraction: 0.5,
            mean_usable: SimDuration::from_secs(10),
            handover_gap: SimDuration::ZERO,
        };
        assert_eq!(m.mean_gap(), SimDuration::from_secs(10));
    }
}
