//! Protocol configuration.

use crate::congestion::CongestionConfig;
use crate::multipath::MultipathPolicy;
use crate::recovery::{Backoff, RecoveryPolicy};
use marnet_sim::time::SimDuration;

/// Watchdog-driven outage handling at the sender.
///
/// Disabled by default: the hardened behaviour only engages when an
/// experiment opts in, so existing scenarios (and their artifacts) are
/// byte-identical with and without this feature compiled in.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OutageConfig {
    /// Master switch for watchdog detection, outage-aware degradation and
    /// probe-based recovery.
    pub enabled: bool,
    /// Feedback silence after which the watchdog declares an outage (data
    /// was sent but nothing came back). Must comfortably exceed the
    /// feedback interval; the default is 4× the 15 ms default interval.
    pub watchdog_silence: SimDuration,
    /// Backoff schedule for recovery probes while the peer is unreachable.
    pub probe_backoff: Backoff,
    /// Congestion-attribution grace after an outage resolves: losses and
    /// delivery-rate samples reported inside this window describe the fault
    /// (packets that died against the dead link or peer, a rate window
    /// spanning the silence), so the congestion controller updates its RTT
    /// estimators but holds its rate instead of collapsing to the floor.
    pub congestion_grace: SimDuration,
}

impl Default for OutageConfig {
    fn default() -> Self {
        OutageConfig {
            enabled: false,
            watchdog_silence: SimDuration::from_millis(60),
            probe_backoff: Backoff::default(),
            congestion_grace: SimDuration::from_millis(150),
        }
    }
}

impl OutageConfig {
    /// The hardened profile: watchdog on with default constants.
    pub fn hardened() -> Self {
        OutageConfig { enabled: true, ..OutageConfig::default() }
    }
}

/// Configuration of an [`crate::endpoint::ArSender`].
///
/// The tunable controller subset of these fields is mirrored by
/// [`crate::policy::PolicyParams`]; `PolicyParams::default().to_config()`
/// reproduces [`ArConfig::default`] exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct ArConfig {
    /// Maximum fragment payload per packet.
    pub mtu: u32,
    /// Pacing-tick interval (budget is released per tick).
    pub tick: SimDuration,
    /// Receiver feedback interval.
    pub feedback_interval: SimDuration,
    /// Age beyond which droppable data is shed even without a deadline.
    pub stale_after: SimDuration,
    /// Backlog horizon (in ticks of budget) before congestion shedding.
    pub backlog_ticks: f64,
    /// Congestion-controller tuning (per path).
    pub congestion: CongestionConfig,
    /// Retransmission gate.
    pub recovery: RecoveryPolicy,
    /// XOR FEC group size for the recovery class; `None` disables FEC.
    pub fec_group: Option<usize>,
    /// Path-usage policy.
    pub policy: MultipathPolicy,
    /// Duplicate recovery-class packets on a second path.
    pub duplicate_recovery: bool,
    /// Watchdog/outage handling (disabled by default).
    pub outage: OutageConfig,
}

impl Default for ArConfig {
    fn default() -> Self {
        ArConfig {
            mtu: 1200,
            tick: SimDuration::from_millis(5),
            feedback_interval: SimDuration::from_millis(15),
            stale_after: SimDuration::from_millis(150),
            backlog_ticks: 6.0,
            congestion: CongestionConfig::default(),
            recovery: RecoveryPolicy::default(),
            fec_group: Some(8),
            policy: MultipathPolicy::WifiPreferred,
            duplicate_recovery: false,
            outage: OutageConfig::default(),
        }
    }
}

impl ArConfig {
    /// Bytes of budget released per pacing tick at `rate` bytes/s.
    pub fn budget_per_tick(&self, rate_bytes_per_sec: f64) -> f64 {
        rate_bytes_per_sec * self.tick.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = ArConfig::default();
        assert!(c.mtu > 0 && c.mtu <= 1460);
        assert!(c.tick < c.stale_after);
        assert!(c.fec_group.is_some());
    }

    #[test]
    fn budget_math() {
        let c = ArConfig { tick: SimDuration::from_millis(10), ..Default::default() };
        assert_eq!(c.budget_per_tick(100_000.0), 1000.0);
    }
}
