//! Protocol configuration.

use crate::congestion::CongestionConfig;
use crate::multipath::MultipathPolicy;
use crate::recovery::RecoveryPolicy;
use marnet_sim::time::SimDuration;

/// Maximum fragment payload per packet.
pub const MTU: u32 = 1200;
/// Pacing-tick interval (budget is released per tick).
pub const TICK: SimDuration = SimDuration::from_millis(5);
/// Receiver feedback interval.
pub const FEEDBACK_INTERVAL: SimDuration = SimDuration::from_millis(15);

/// Feedback silence after which the outage watchdog declares an outage
/// (data was sent but nothing came back): 4× [`FEEDBACK_INTERVAL`].
pub const WATCHDOG_SILENCE: SimDuration = SimDuration::from_millis(60);
/// Congestion-attribution grace after an outage resolves: losses and
/// delivery-rate samples reported inside this window describe the fault
/// (packets that died against the dead link or peer, a rate window spanning
/// the silence), so the congestion controller updates its RTT estimators
/// but holds its rate instead of collapsing to the floor.
pub const CONGESTION_GRACE: SimDuration = SimDuration::from_millis(150);

/// Watchdog-driven outage handling at the sender.
///
/// Disabled by default: the hardened behaviour only engages when an
/// experiment opts in, so existing scenarios (and their artifacts) are
/// byte-identical with and without this feature compiled in.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OutageConfig {
    /// Master switch for watchdog detection ([`WATCHDOG_SILENCE`]),
    /// outage-aware degradation, probe-based recovery
    /// ([`crate::recovery::probe_backoff`]) and the [`CONGESTION_GRACE`]
    /// window.
    pub enabled: bool,
}

impl OutageConfig {
    /// The hardened profile: watchdog on.
    pub fn hardened() -> Self {
        OutageConfig { enabled: true }
    }
}

/// Configuration of an [`crate::endpoint::ArSender`].
///
/// The tunable controller subset of these fields is mirrored by
/// [`crate::policy::PolicyParams`]; `PolicyParams::default().to_config()`
/// reproduces [`ArConfig::default`] exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct ArConfig {
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

/// Bytes of budget released per pacing tick at `rate` bytes/s.
pub(crate) fn budget_per_tick(rate_bytes_per_sec: f64) -> f64 {
    rate_bytes_per_sec * TICK.as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = ArConfig::default();
        assert!(TICK < c.stale_after);
        assert!(FEEDBACK_INTERVAL < WATCHDOG_SILENCE);
        assert!(c.fec_group.is_some());
    }

    #[test]
    fn budget_math() {
        assert_eq!(budget_per_tick(100_000.0), 500.0);
    }
}
