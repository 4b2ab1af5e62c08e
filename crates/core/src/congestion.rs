//! Rate-based congestion control with delay as the primary signal (§VI-B).
//!
//! The paper: *"the congestion control algorithm should closely monitor
//! latencies and react accordingly. A sudden rise of delay or jitter should
//! be treated as a congestion indication, with immediate reaction"* — while
//! warning (citing the Vegas fairness studies) that pure delay-based control
//! starves against loss-based competitors, so *"a trade-off has to be found
//! between the latency and bandwidth requirements"*.
//!
//! [`DelayCongestionController`] keeps a sending *rate* (there is no
//! congestion window to shrink — the application's media rate is what it
//! is; the degradation scheduler decides what fits). The control law:
//!
//! * congestion event when `srtt > base_rtt + latency_threshold` or when
//!   the jitter estimate spikes, at most once per RTT → multiplicative
//!   decrease by `beta`;
//! * loss events (NACK bursts) also count as congestion (the loss-based
//!   fallback that preserves fairness against TCP);
//! * otherwise additive increase per RTT.

use marnet_sim::time::{SimDuration, SimTime};

/// What the controller concluded from the latest feedback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CongestionVerdict {
    /// No congestion; rate was (possibly) increased.
    Clear,
    /// Delay-based congestion detected; rate was cut.
    DelayCongestion,
    /// Loss-based congestion detected; rate was cut.
    LossCongestion,
}

/// Starting rate in bytes/s (2 Mb/s), clamped to the configured ceiling.
pub const INITIAL_RATE: f64 = 250_000.0;
/// Floor in bytes/s below which the rate never drops (80 kb/s, the metadata
/// floor: keeps critical data moving — graceful degradation must "function
/// with degraded performance even if no network connectivity is
/// available").
pub const MIN_RATE: f64 = 10_000.0;

/// Tuning knobs for [`DelayCongestionController`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CongestionConfig {
    /// Ceiling on the rate (e.g. the application's maximum media rate).
    pub max_rate: f64,
    /// Queueing-delay budget above the base RTT before we call congestion.
    pub latency_threshold: SimDuration,
    /// Jitter (RTT variance) budget before we call congestion.
    pub jitter_threshold: SimDuration,
    /// Multiplicative decrease factor on congestion.
    pub beta: f64,
    /// Additive increase in bytes per RTT when clear.
    pub increase_per_rtt: f64,
    /// Whether NACKed packets trigger the loss-based fallback.
    pub react_to_loss: bool,
}

impl Default for CongestionConfig {
    fn default() -> Self {
        CongestionConfig {
            max_rate: 125_000_000.0, // 1 Gb/s
            latency_threshold: SimDuration::from_millis(15),
            jitter_threshold: SimDuration::from_millis(30),
            beta: 0.8,
            increase_per_rtt: 15_000.0,
            react_to_loss: true,
        }
    }
}

/// The delay-first, rate-based congestion controller.
#[derive(Debug, Clone)]
pub struct DelayCongestionController {
    cfg: CongestionConfig,
    rate: f64,
    base_rtt: Option<SimDuration>,
    srtt: Option<SimDuration>,
    jitter: SimDuration,
    last_decrease: SimTime,
}

impl DelayCongestionController {
    /// Creates a controller with the given configuration.
    pub fn new(cfg: CongestionConfig) -> Self {
        DelayCongestionController {
            rate: INITIAL_RATE.clamp(MIN_RATE, cfg.max_rate),
            cfg,
            base_rtt: None,
            srtt: None,
            jitter: SimDuration::ZERO,
            last_decrease: SimTime::ZERO,
        }
    }

    /// Current allowed sending rate in bytes per second.
    pub fn rate_bytes_per_sec(&self) -> f64 {
        self.rate
    }

    /// Smoothed RTT estimate, if any feedback arrived yet.
    pub fn srtt(&self) -> Option<SimDuration> {
        self.srtt
    }

    /// Minimum observed RTT (propagation estimate).
    pub fn base_rtt(&self) -> Option<SimDuration> {
        self.base_rtt
    }

    /// Current jitter (mean RTT deviation) estimate.
    pub fn jitter(&self) -> SimDuration {
        self.jitter
    }

    fn decrease(&mut self, now: SimTime, recv_rate: Option<f64>) -> bool {
        // Freeze after a decrease for one (inflated) smoothed RTT: every
        // sample arriving in that window was emitted against the *old*
        // rate and still reflects the standing queue we just started to
        // drain — reacting to it again would collapse the rate.
        let guard = self
            .srtt
            .unwrap_or(SimDuration::from_millis(100))
            .max(self.base_rtt.unwrap_or(SimDuration::ZERO));
        if now.saturating_since(self.last_decrease) < guard {
            return false;
        }
        self.last_decrease = now;
        // Multiplicative decrease, anchored slightly *below* the receiver's
        // measured delivery rate when available: under a standing queue the
        // delivery rate is the capacity, and undershooting it is what lets
        // the queue drain (an exact match would freeze the queue in place).
        let mut target = self.rate * self.cfg.beta;
        if let Some(r) = recv_rate {
            if r > 0.0 {
                target = target.min(r * 0.85);
            }
        }
        self.rate = target.max(MIN_RATE);
        true
    }

    /// Feeds one RTT sample (from protocol feedback), the count of losses
    /// reported since the previous feedback, and the receiver's measured
    /// delivery rate (bytes/s) if known. Returns the verdict.
    pub fn on_feedback(
        &mut self,
        rtt: SimDuration,
        losses: u64,
        recv_rate: Option<f64>,
        now: SimTime,
    ) -> CongestionVerdict {
        self.on_feedback_attributed(rtt, losses, recv_rate, now, true)
    }

    /// [`DelayCongestionController::on_feedback`] with explicit congestion
    /// attribution. With `attribute_congestion` false the sample updates
    /// the RTT estimators but is never blamed on congestion and the rate
    /// holds steady — the outage-hardened sender uses this for the grace
    /// window after an outage resolves, when reported losses describe the
    /// fault (packets that died against a dead link or peer) and the
    /// receiver's delivery-rate window still spans the silence. Cutting the
    /// rate on that evidence would collapse it to the floor and stall
    /// recovery on additive increase.
    pub fn on_feedback_attributed(
        &mut self,
        rtt: SimDuration,
        losses: u64,
        recv_rate: Option<f64>,
        now: SimTime,
        attribute_congestion: bool,
    ) -> CongestionVerdict {
        // Update estimators (EWMA 7/8, like TCP's SRTT/RTTVAR).
        let base = match self.base_rtt {
            Some(b) if b <= rtt => b,
            _ => rtt,
        };
        self.base_rtt = Some(base);
        let srtt = match self.srtt {
            None => rtt,
            Some(s) => s.mul_f64(0.875) + rtt.mul_f64(0.125),
        };
        let deviation = if srtt > rtt { srtt - rtt } else { rtt - srtt };
        self.jitter = self.jitter.mul_f64(0.75) + deviation.mul_f64(0.25);
        self.srtt = Some(srtt);

        if !attribute_congestion {
            return CongestionVerdict::Clear;
        }
        if self.cfg.react_to_loss && losses > 0 {
            if self.decrease(now, recv_rate) {
                return CongestionVerdict::LossCongestion;
            }
            return CongestionVerdict::Clear;
        }
        if srtt > base + self.cfg.latency_threshold || self.jitter > self.cfg.jitter_threshold {
            if self.decrease(now, recv_rate) {
                return CongestionVerdict::DelayCongestion;
            }
            return CongestionVerdict::Clear;
        }
        // Additive increase, scaled so one full RTT of clear feedback adds
        // `increase_per_rtt` bytes/s.
        let rtt_s = srtt.as_secs_f64().max(1e-4);
        self.rate = (self.rate + self.cfg.increase_per_rtt * (rtt.as_secs_f64() / rtt_s))
            .min(self.cfg.max_rate);
        CongestionVerdict::Clear
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> CongestionConfig {
        CongestionConfig {
            max_rate: 1_000_000.0,
            latency_threshold: SimDuration::from_millis(15),
            jitter_threshold: SimDuration::from_millis(30),
            beta: 0.8,
            increase_per_rtt: 10_000.0,
            react_to_loss: true,
        }
    }

    #[test]
    fn stable_rtt_grows_rate_additively() {
        let mut c = DelayCongestionController::new(cfg());
        let mut now = SimTime::ZERO;
        for _ in 0..10 {
            now += SimDuration::from_millis(20);
            let v = c.on_feedback(SimDuration::from_millis(20), 0, None, now);
            assert_eq!(v, CongestionVerdict::Clear);
        }
        // 10 feedbacks at one per RTT → ~10 × 10 kB/s growth.
        let rate = c.rate_bytes_per_sec();
        assert!((rate - (INITIAL_RATE + 100_000.0)).abs() < 15_000.0, "rate {rate}");
    }

    #[test]
    fn delay_rise_cuts_rate_immediately() {
        let mut c = DelayCongestionController::new(cfg());
        let mut now = SimTime::ZERO;
        for _ in 0..5 {
            now += SimDuration::from_millis(20);
            c.on_feedback(SimDuration::from_millis(20), 0, None, now);
        }
        let before = c.rate_bytes_per_sec();
        now += SimDuration::from_millis(20);
        // RTT jumps 40 ms above base: srtt moves 1/8 of the way = +5 ms...
        // keep feeding until the EWMA crosses the 15 ms threshold.
        let mut verdicts = Vec::new();
        for _ in 0..10 {
            now += SimDuration::from_millis(60);
            verdicts.push(c.on_feedback(SimDuration::from_millis(200), 0, None, now));
        }
        assert!(
            verdicts.contains(&CongestionVerdict::DelayCongestion),
            "no delay congestion in {verdicts:?}"
        );
        assert!(c.rate_bytes_per_sec() < before);
    }

    #[test]
    fn loss_fallback_cuts_rate() {
        let mut c = DelayCongestionController::new(cfg());
        let v = c.on_feedback(SimDuration::from_millis(20), 3, None, SimTime::from_millis(500));
        assert_eq!(v, CongestionVerdict::LossCongestion);
        assert!(c.rate_bytes_per_sec() < INITIAL_RATE);
    }

    #[test]
    fn loss_ignored_when_fallback_disabled() {
        let mut c =
            DelayCongestionController::new(CongestionConfig { react_to_loss: false, ..cfg() });
        let v = c.on_feedback(SimDuration::from_millis(20), 5, None, SimTime::from_millis(500));
        assert_eq!(v, CongestionVerdict::Clear);
    }

    #[test]
    fn at_most_one_decrease_per_rtt() {
        let mut c = DelayCongestionController::new(cfg());
        c.on_feedback(SimDuration::from_millis(20), 0, None, SimTime::from_millis(20));
        let v1 = c.on_feedback(SimDuration::from_millis(20), 1, None, SimTime::from_millis(100));
        assert_eq!(v1, CongestionVerdict::LossCongestion);
        let rate_after_first = c.rate_bytes_per_sec();
        // 1 ms later — still inside the RTT guard window.
        let v2 = c.on_feedback(SimDuration::from_millis(20), 1, None, SimTime::from_millis(101));
        assert_eq!(v2, CongestionVerdict::Clear);
        assert_eq!(c.rate_bytes_per_sec(), rate_after_first);
    }

    #[test]
    fn rate_never_falls_below_floor() {
        let mut c = DelayCongestionController::new(cfg());
        let mut now = SimTime::ZERO;
        for i in 0..100 {
            now += SimDuration::from_millis(200);
            c.on_feedback(SimDuration::from_millis(20 + i * 10), 1, None, now);
        }
        assert_eq!(c.rate_bytes_per_sec(), MIN_RATE);
    }

    #[test]
    fn rate_caps_at_max() {
        let mut c = DelayCongestionController::new(CongestionConfig {
            increase_per_rtt: 100_000.0,
            ..cfg()
        });
        let mut now = SimTime::ZERO;
        for _ in 0..10 {
            now += SimDuration::from_millis(20);
            c.on_feedback(SimDuration::from_millis(20), 0, None, now);
        }
        assert_eq!(c.rate_bytes_per_sec(), 1_000_000.0);
    }

    #[test]
    fn jitter_spike_counts_as_congestion() {
        let mut c = DelayCongestionController::new(CongestionConfig {
            latency_threshold: SimDuration::from_secs(10), // disable the srtt path
            jitter_threshold: SimDuration::from_millis(10),
            ..cfg()
        });
        let mut now = SimTime::ZERO;
        let mut saw_congestion = false;
        for i in 0..30 {
            now += SimDuration::from_millis(50);
            let rtt = if i % 2 == 0 { 20 } else { 120 };
            if c.on_feedback(SimDuration::from_millis(rtt), 0, None, now)
                == CongestionVerdict::DelayCongestion
            {
                saw_congestion = true;
            }
        }
        assert!(saw_congestion, "alternating RTTs must trip the jitter guard");
    }
}
