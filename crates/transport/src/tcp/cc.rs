//! Pluggable TCP congestion control: Reno and Vegas.
//!
//! Fig. 4 of the paper contrasts TCP's congestion *window* with the AR
//! protocol's graceful degradation; §VI-B cites the Vegas fairness problem
//! as the caveat of delay-based control. Every baseline flow runs Reno; the
//! E14 fairness sweep puts one Vegas flow against Reno flows on the same
//! topology as its AR rows, so loss-based and delay-based behaviour are
//! compared on identical links.

use marnet_sim::time::{SimDuration, SimTime};
use std::fmt;

/// A congestion-control algorithm driving a [`super::TcpSender`].
///
/// All quantities are in bytes. The sender calls the `on_*` hooks and reads
/// back [`CongestionControl::cwnd`].
pub trait CongestionControl: fmt::Debug {
    /// New data was cumulatively acknowledged.
    ///
    /// `bytes_acked` is the newly acked byte count, `flight` the bytes still
    /// outstanding after the ACK, `rtt` the latest RTT sample if the ACK
    /// carried a usable timestamp echo.
    fn on_ack(&mut self, bytes_acked: u64, flight: u64, rtt: Option<SimDuration>, now: SimTime);

    /// Loss detected by triple duplicate ACK (fast retransmit).
    fn on_loss(&mut self, now: SimTime);

    /// Retransmission timeout fired.
    fn on_timeout(&mut self, now: SimTime);

    /// Current congestion window in bytes.
    fn cwnd(&self) -> u64;

    /// Current slow-start threshold in bytes.
    fn ssthresh(&self) -> u64;

    /// Short algorithm name for experiment tables.
    fn name(&self) -> &'static str;
}

// ---------------------------------------------------------------------------
// Reno
// ---------------------------------------------------------------------------

/// Classic Reno: slow start, AIMD congestion avoidance, halving on loss,
/// plus a Hystart-style delay-based slow-start exit (without it, slow
/// start overshoots bloated buffers by hundreds of segments and NewReno
/// then spends one RTT per hole refilling them).
#[derive(Debug, Clone)]
pub struct Reno {
    mss: u64,
    cwnd: f64,
    ssthresh: f64,
    min_rtt: Option<SimDuration>,
}

impl Reno {
    /// Reno with a 10-segment initial window.
    pub fn new(mss: u32) -> Self {
        let mss = u64::from(mss);
        Reno { mss, cwnd: (mss * 10) as f64, ssthresh: f64::INFINITY, min_rtt: None }
    }

    fn hystart_exit(min_rtt: &mut Option<SimDuration>, rtt: Option<SimDuration>) -> bool {
        let Some(rtt) = rtt else { return false };
        let min = match *min_rtt {
            Some(m) if m <= rtt => m,
            _ => {
                *min_rtt = Some(rtt);
                rtt
            }
        };
        // Exit slow start once queueing delay reaches ~25% of the base RTT
        // (plus a floor so short paths are not trigger-happy).
        rtt > min + (min / 4).max(SimDuration::from_millis(4))
    }
}

impl CongestionControl for Reno {
    fn on_ack(&mut self, bytes_acked: u64, _flight: u64, rtt: Option<SimDuration>, _now: SimTime) {
        let mss = self.mss as f64;
        if self.cwnd < self.ssthresh {
            if Self::hystart_exit(&mut self.min_rtt, rtt) {
                self.ssthresh = self.cwnd;
                return;
            }
            // Slow start: one MSS per MSS acked.
            self.cwnd += bytes_acked as f64;
        } else {
            // Congestion avoidance: ~one MSS per RTT.
            self.cwnd += mss * mss / self.cwnd * (bytes_acked as f64 / mss);
        }
    }

    fn on_loss(&mut self, _now: SimTime) {
        self.ssthresh = (self.cwnd / 2.0).max((2 * self.mss) as f64);
        self.cwnd = self.ssthresh;
    }

    fn on_timeout(&mut self, _now: SimTime) {
        self.ssthresh = (self.cwnd / 2.0).max((2 * self.mss) as f64);
        self.cwnd = self.mss as f64;
    }

    fn cwnd(&self) -> u64 {
        self.cwnd as u64
    }

    fn ssthresh(&self) -> u64 {
        if self.ssthresh.is_finite() {
            self.ssthresh as u64
        } else {
            u64::MAX
        }
    }

    fn name(&self) -> &'static str {
        "reno"
    }
}

// ---------------------------------------------------------------------------
// Vegas
// ---------------------------------------------------------------------------

/// TCP Vegas: delay-based control that keeps `alpha..beta` *extra* segments
/// queued in the network, backing off as soon as RTT rises.
///
/// The paper (§VI-B, citing Kurata et al.) notes Vegas-style control is
/// exactly what a latency-sensitive MAR flow wants, *but* it loses to
/// loss-based flows that fill queues — the trade-off the E14 fairness
/// experiment quantifies.
#[derive(Debug, Clone)]
pub struct Vegas {
    mss: u64,
    cwnd: f64,
    ssthresh: f64,
    base_rtt: Option<SimDuration>,
    /// Lower target of queued segments.
    alpha: f64,
    /// Upper target of queued segments.
    beta: f64,
    /// Bytes acked since the last window adjustment.
    acked_since_adjust: u64,
}

impl Vegas {
    /// Vegas with the classic `alpha = 2`, `beta = 4` targets.
    pub fn new(mss: u32) -> Self {
        let mss = u64::from(mss);
        Vegas {
            mss,
            cwnd: (mss * 10) as f64,
            ssthresh: f64::INFINITY,
            base_rtt: None,
            alpha: 2.0,
            beta: 4.0,
            acked_since_adjust: 0,
        }
    }
}

impl CongestionControl for Vegas {
    fn on_ack(&mut self, bytes_acked: u64, _flight: u64, rtt: Option<SimDuration>, _now: SimTime) {
        let Some(rtt) = rtt else {
            return;
        };
        self.base_rtt = Some(match self.base_rtt {
            Some(b) if b <= rtt => b,
            _ => rtt,
        });
        let base = self.base_rtt.expect("set above").as_secs_f64();
        let cur = rtt.as_secs_f64();
        if base <= 0.0 || cur <= 0.0 {
            return;
        }
        // diff = (expected - actual) * base_rtt, in segments.
        let cwnd_seg = self.cwnd / self.mss as f64;
        let diff = cwnd_seg * (cur - base) / cur;

        if self.cwnd < self.ssthresh {
            // Slow start, with the queue check on *every* ACK: exponential
            // growth overshoots catastrophically if the exit test only runs
            // once per window.
            if diff > self.beta {
                self.ssthresh = self.cwnd;
            } else {
                self.cwnd += bytes_acked as f64;
            }
            return;
        }
        // Congestion avoidance: adjust once per window's worth of ACKs
        // (≈ once per RTT).
        self.acked_since_adjust += bytes_acked;
        if (self.acked_since_adjust as f64) < self.cwnd {
            return;
        }
        self.acked_since_adjust = 0;
        if diff < self.alpha {
            self.cwnd += self.mss as f64;
        } else if diff > self.beta {
            self.cwnd = (self.cwnd - self.mss as f64).max((2 * self.mss) as f64);
            // Keep ssthresh at or below the shrinking window, otherwise the
            // next ACK re-enters slow start and undoes the decrease.
            self.ssthresh = self.ssthresh.min(self.cwnd);
        }
    }

    fn on_loss(&mut self, _now: SimTime) {
        self.ssthresh = (self.cwnd * 0.75).max((2 * self.mss) as f64);
        self.cwnd = self.ssthresh;
    }

    fn on_timeout(&mut self, _now: SimTime) {
        self.ssthresh = (self.cwnd / 2.0).max((2 * self.mss) as f64);
        self.cwnd = self.mss as f64;
    }

    fn cwnd(&self) -> u64 {
        self.cwnd as u64
    }

    fn ssthresh(&self) -> u64 {
        if self.ssthresh.is_finite() {
            self.ssthresh as u64
        } else {
            u64::MAX
        }
    }

    fn name(&self) -> &'static str {
        "vegas"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MSS: u32 = 1000;

    fn ack(cc: &mut dyn CongestionControl, n: u64, rtt_ms: u64) {
        cc.on_ack(n, 0, Some(SimDuration::from_millis(rtt_ms)), SimTime::ZERO);
    }

    /// Reno with a window of `segments` segments.
    fn reno(segments: u32) -> Reno {
        let mut r = Reno::new(MSS);
        r.cwnd = f64::from(segments * MSS);
        r
    }

    #[test]
    fn reno_slow_start_doubles_per_rtt() {
        assert_eq!(Reno::new(MSS).cwnd(), 10 * u64::from(MSS));
        let mut r = reno(2);
        assert_eq!(r.cwnd(), 2000);
        // Ack a full window: cwnd doubles.
        ack(&mut r, 2000, 50);
        assert_eq!(r.cwnd(), 4000);
        ack(&mut r, 4000, 50);
        assert_eq!(r.cwnd(), 8000);
    }

    #[test]
    fn reno_congestion_avoidance_is_linear() {
        let mut r = reno(10);
        r.on_loss(SimTime::ZERO); // ssthresh = cwnd/2 = 5000, cwnd = 5000
        assert_eq!(r.cwnd(), 5000);
        // One full window of ACKs → +1 MSS.
        for _ in 0..5 {
            ack(&mut r, 1000, 50);
        }
        assert!((r.cwnd() as i64 - 6000).abs() < 100, "cwnd {}", r.cwnd());
    }

    #[test]
    fn reno_loss_halves_timeout_resets() {
        let mut r = reno(20);
        let before = r.cwnd();
        r.on_loss(SimTime::ZERO);
        assert_eq!(r.cwnd(), before / 2);
        r.on_timeout(SimTime::ZERO);
        assert_eq!(r.cwnd(), u64::from(MSS));
        assert!(r.ssthresh() >= 2 * u64::from(MSS));
    }

    #[test]
    fn reno_floors_at_two_mss() {
        let mut r = reno(2);
        for _ in 0..10 {
            r.on_loss(SimTime::ZERO);
        }
        assert_eq!(r.cwnd(), 2 * u64::from(MSS));
    }

    #[test]
    fn vegas_tracks_base_rtt_and_backs_off() {
        let mut v = Vegas::new(MSS);
        v.ssthresh = 10_000.0; // force congestion avoidance
        v.cwnd = 10_000.0;
        // RTT = base: diff = 0 < alpha → additive increase.
        for _ in 0..20 {
            ack(&mut v, 1000, 50);
        }
        let grown = v.cwnd();
        assert!(grown > 10_000, "vegas should grow on an idle path: {grown}");
        // RTT doubles: queued segments ≈ cwnd/2seg >> beta → decrease.
        let before = v.cwnd();
        for _ in 0..40 {
            ack(&mut v, 1000, 100);
        }
        assert!(v.cwnd() < before, "vegas must back off on rising RTT");
    }

    #[test]
    fn vegas_ignores_acks_without_rtt() {
        let mut v = Vegas::new(MSS);
        let before = v.cwnd();
        v.on_ack(1000, 0, None, SimTime::ZERO);
        assert_eq!(v.cwnd(), before);
    }

    #[test]
    fn names() {
        assert_eq!(Reno::new(MSS).name(), "reno");
        assert_eq!(Vegas::new(MSS).name(), "vegas");
    }
}
