//! Throughput-variance processes for wireless links.
//!
//! §IV-A-1 observes that cellular throughput "exhibit\[s\] large variations
//! over time, with abrupt changes of several orders of magnitude", and §IV-C
//! argues that no congestion controller is prompt enough to track them —
//! hence the paper's requirement that 5G bound rate *variance*, not just
//! mean rate. These processes drive a simulator link's rate over time.

use marnet_sim::engine::{Actor, ActorId, Event, SimCtx};
use marnet_sim::link::{Bandwidth, LinkId};
use marnet_sim::time::{SimDuration, SimTime};
use rand::Rng;
use rand_chacha::ChaCha12Rng;

/// A stochastic data-rate process sampled at link-update instants.
pub trait RateProcess {
    /// The rate at virtual time `t`. Successive calls must use
    /// non-decreasing `t`.
    fn rate_at(&mut self, t: SimTime) -> Bandwidth;
}

/// A constant rate (the degenerate process).
#[derive(Debug, Clone, Copy)]
pub struct ConstantRate(pub Bandwidth);

impl RateProcess for ConstantRate {
    fn rate_at(&mut self, _t: SimTime) -> Bandwidth {
        self.0
    }
}

/// AR(1) process on the log-rate: smooth lognormal wander around a median.
///
/// `log10(rate_t) = rho * log10(rate_{t-1}) + (1-rho) * log10(median) + eps`,
/// with `eps ~ N(0, sigma)`. `rho` close to 1 gives slowly-varying rates;
/// `sigma` around 0.3 gives the half-order-of-magnitude swings seen in the
/// cellular measurement studies.
#[derive(Debug)]
pub struct Ar1LogRate {
    median: f64,
    sigma: f64,
    rho: f64,
    current_log: f64,
    rng: ChaCha12Rng,
}

impl Ar1LogRate {
    /// Creates the process around `median` with innovation `sigma` (in
    /// decades) and autocorrelation `rho`.
    ///
    /// # Panics
    ///
    /// Panics if `median` is not positive, or `rho` outside `[0, 1)`.
    pub fn new(median: Bandwidth, sigma: f64, rho: f64, rng: ChaCha12Rng) -> Self {
        let m = median.as_bps() as f64;
        assert!(m > 0.0, "median must be positive");
        assert!((0.0..1.0).contains(&rho), "rho must be in [0,1): {rho}");
        Ar1LogRate { median: m.log10(), sigma, rho, current_log: m.log10(), rng }
    }

    fn gaussian(&mut self) -> f64 {
        let u1: f64 = self.rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = self.rng.gen();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }
}

impl RateProcess for Ar1LogRate {
    fn rate_at(&mut self, _t: SimTime) -> Bandwidth {
        let eps = self.gaussian() * self.sigma;
        self.current_log = self.rho * self.current_log + (1.0 - self.rho) * self.median + eps;
        Bandwidth::from_bps(10f64.powf(self.current_log).max(1.0) as u64)
    }
}

/// Two-state Markov rate: a good state and a collapsed state, producing the
/// abrupt order-of-magnitude drops of §IV-A-1.
#[derive(Debug)]
pub struct MarkovRate {
    good: Bandwidth,
    bad: Bandwidth,
    /// Per-step probability of leaving the good state.
    p_drop: f64,
    /// Per-step probability of recovering from the bad state.
    p_recover: f64,
    in_bad: bool,
    rng: ChaCha12Rng,
}

impl MarkovRate {
    /// Creates a good/bad switching process.
    pub fn new(
        good: Bandwidth,
        bad: Bandwidth,
        p_drop: f64,
        p_recover: f64,
        rng: ChaCha12Rng,
    ) -> Self {
        MarkovRate { good, bad, p_drop, p_recover, in_bad: false, rng }
    }
}

impl RateProcess for MarkovRate {
    fn rate_at(&mut self, _t: SimTime) -> Bandwidth {
        if self.in_bad {
            if self.rng.gen_bool(self.p_recover.clamp(0.0, 1.0)) {
                self.in_bad = false;
            }
        } else if self.rng.gen_bool(self.p_drop.clamp(0.0, 1.0)) {
            self.in_bad = true;
        }
        if self.in_bad {
            self.bad
        } else {
            self.good
        }
    }
}

/// A piecewise-constant scripted rate, for figure scenarios that need exact
/// rate changes at exact times (e.g. Fig. 4's two throughput-drop events).
#[derive(Debug, Clone)]
pub struct ScriptedRate {
    /// `(from_time, rate)` steps, in increasing time order.
    steps: Vec<(SimTime, Bandwidth)>,
}

impl ScriptedRate {
    /// Creates a scripted process from `(time, rate)` steps.
    ///
    /// # Panics
    ///
    /// Panics if `steps` is empty or not time-sorted.
    pub fn new(steps: Vec<(SimTime, Bandwidth)>) -> Self {
        assert!(!steps.is_empty(), "need at least one step");
        assert!(steps.windows(2).all(|w| w[0].0 <= w[1].0), "steps must be sorted");
        ScriptedRate { steps }
    }
}

impl RateProcess for ScriptedRate {
    fn rate_at(&mut self, t: SimTime) -> Bandwidth {
        let mut rate = self.steps[0].1;
        for &(from, r) in &self.steps {
            if t >= from {
                rate = r;
            } else {
                break;
            }
        }
        rate
    }
}

/// An actor that periodically re-samples a [`RateProcess`] and applies it to
/// one or two simulator links (e.g. both directions of an access network).
pub struct LinkModulator {
    links: Vec<LinkId>,
    process: Box<dyn RateProcess>,
    interval: SimDuration,
}

impl std::fmt::Debug for LinkModulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LinkModulator")
            .field("links", &self.links)
            .field("interval", &self.interval)
            .finish()
    }
}

impl LinkModulator {
    /// Modulates `links` every `interval` with the given process, all links
    /// getting the same rate.
    pub fn new(links: Vec<LinkId>, process: Box<dyn RateProcess>, interval: SimDuration) -> Self {
        LinkModulator { links, process, interval }
    }

    fn apply(&mut self, ctx: &mut SimCtx) {
        let rate = self.process.rate_at(ctx.now());
        for &link in &self.links {
            ctx.set_link_rate(link, rate);
        }
    }
}

impl Actor for LinkModulator {
    fn on_event(&mut self, ctx: &mut SimCtx, ev: Event) {
        match ev {
            Event::Start | Event::Timer { .. } => {
                self.apply(ctx);
                ctx.schedule_timer(self.interval, 0);
            }
            _ => {}
        }
    }
}

/// Convenience: spawns a [`LinkModulator`] into a simulator.
pub fn modulate_links(
    sim: &mut marnet_sim::engine::Simulator,
    links: Vec<LinkId>,
    process: Box<dyn RateProcess>,
    interval: SimDuration,
) -> ActorId {
    sim.add_actor(LinkModulator::new(links, process, interval))
}

#[cfg(test)]
mod tests {
    use super::*;
    use marnet_sim::rng::derive_rng;

    #[test]
    fn constant_is_constant() {
        let mut p = ConstantRate(Bandwidth::from_mbps(5.0));
        assert_eq!(p.rate_at(SimTime::ZERO), Bandwidth::from_mbps(5.0));
        assert_eq!(p.rate_at(SimTime::from_secs(100)), Bandwidth::from_mbps(5.0));
    }

    #[test]
    fn ar1_wanders_around_median() {
        let mut p = Ar1LogRate::new(Bandwidth::from_mbps(10.0), 0.15, 0.9, derive_rng(1, "ar1"));
        let mut sum_log = 0.0;
        let n = 5000;
        for i in 0..n {
            let r = p.rate_at(SimTime::from_millis(i));
            sum_log += (r.as_bps() as f64).log10();
        }
        let mean_log = sum_log / n as f64;
        // Median is 10 Mb/s = 1e7 bps → log10 = 7.
        assert!((mean_log - 7.0).abs() < 0.2, "mean log rate {mean_log}");
    }

    #[test]
    fn ar1_varies() {
        let mut p = Ar1LogRate::new(Bandwidth::from_mbps(10.0), 0.3, 0.8, derive_rng(2, "ar1b"));
        let rates: Vec<u64> =
            (0..100).map(|i| p.rate_at(SimTime::from_millis(i)).as_bps()).collect();
        let min = *rates.iter().min().unwrap() as f64;
        let max = *rates.iter().max().unwrap() as f64;
        assert!(max / min > 2.0, "expected noticeable variance: {min}..{max}");
    }

    #[test]
    fn markov_produces_both_states() {
        let mut p = MarkovRate::new(
            Bandwidth::from_mbps(10.0),
            Bandwidth::from_kbps(100.0),
            0.1,
            0.3,
            derive_rng(3, "markov"),
        );
        let mut good = 0;
        let mut bad = 0;
        for i in 0..2000 {
            match p.rate_at(SimTime::from_millis(i)).as_mbps() {
                m if m > 1.0 => good += 1,
                _ => bad += 1,
            }
        }
        assert!(good > 0 && bad > 0, "good={good} bad={bad}");
        // Stationary bad fraction = p_drop / (p_drop + p_recover) = 0.25.
        let frac = bad as f64 / 2000.0;
        assert!((frac - 0.25).abs() < 0.1, "bad fraction {frac}");
    }

    #[test]
    fn scripted_steps() {
        let mut p = ScriptedRate::new(vec![
            (SimTime::ZERO, Bandwidth::from_mbps(10.0)),
            (SimTime::from_secs(5), Bandwidth::from_mbps(2.0)),
            (SimTime::from_secs(10), Bandwidth::from_mbps(6.0)),
        ]);
        assert_eq!(p.rate_at(SimTime::from_secs(1)).as_mbps(), 10.0);
        assert_eq!(p.rate_at(SimTime::from_secs(5)).as_mbps(), 2.0);
        assert_eq!(p.rate_at(SimTime::from_secs(7)).as_mbps(), 2.0);
        assert_eq!(p.rate_at(SimTime::from_secs(60)).as_mbps(), 6.0);
    }

    #[test]
    #[should_panic]
    fn scripted_requires_sorted_steps() {
        let _ = ScriptedRate::new(vec![
            (SimTime::from_secs(5), Bandwidth::from_mbps(2.0)),
            (SimTime::ZERO, Bandwidth::from_mbps(10.0)),
        ]);
    }

    #[test]
    fn modulator_updates_link_rate() {
        use marnet_sim::engine::Simulator;
        use marnet_sim::link::LinkParams;

        struct Idle;
        impl Actor for Idle {
            fn on_event(&mut self, _: &mut SimCtx, _: Event) {}
        }
        let mut sim = Simulator::new(9);
        let a = sim.add_actor(Idle);
        let b = sim.add_actor(Idle);
        let l = sim.add_link(a, b, LinkParams::new(Bandwidth::from_mbps(1.0), SimDuration::ZERO));
        let script = ScriptedRate::new(vec![
            (SimTime::ZERO, Bandwidth::from_mbps(10.0)),
            (SimTime::from_secs(1), Bandwidth::from_mbps(3.0)),
        ]);
        modulate_links(&mut sim, vec![l], Box::new(script), SimDuration::from_millis(100));
        sim.run_until(SimTime::from_millis(500));
        assert_eq!(sim.ctx().link_rate(l).as_mbps(), 10.0);
        sim.run_until(SimTime::from_millis(1500));
        assert_eq!(sim.ctx().link_rate(l).as_mbps(), 3.0);
    }
}
