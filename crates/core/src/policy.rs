//! The unified controller policy: every hand-picked constant of the
//! graceful-degradation stack behind one serializable struct.
//!
//! The paper's §VI guidelines fix the *shape* of the controllers — degrade
//! instead of retransmit, delay as the congestion signal, FEC for the
//! recovery class, cost-aware multipath — but every constant in the
//! implementation (the degradation staleness horizon and backlog ladder in
//! [`crate::degradation`], the congestion thresholds in
//! [`crate::congestion`], the FEC group size in [`crate::fec`], the path
//! policy in [`crate::multipath`]) was hand-picked. [`PolicyParams`]
//! gathers exactly those knobs into one flat, serializable struct so they
//! can be stored, compared and — by `marnet-trainer` — searched over.
//!
//! Invariants:
//!
//! * [`PolicyParams::default`] reproduces the paper-default
//!   [`ArConfig::default`] bit-for-bit (asserted in tests), so pre-existing
//!   artifacts are unaffected by this layer.
//! * [`PolicyParams::to_config`] / [`PolicyParams::from_config`] round-trip:
//!   the struct is a faithful projection of the tunable subset of
//!   [`ArConfig`].

use crate::config::ArConfig;
use crate::multipath::MultipathPolicy;
use crate::recovery::RecoveryPolicy;
use marnet_sim::time::SimDuration;
use serde::{Deserialize, Serialize};

/// The retransmission stance, collapsing [`RecoveryPolicy`]'s two booleans
/// into the three ablation arms the experiments use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ArqMode {
    /// Never retransmit (pure degrade-and-drop).
    Off,
    /// Retransmit only when the repair can still arrive within the deadline
    /// (the paper's 37.5 ms rule).
    DeadlineGated,
    /// Retransmit everything recoverable, deadline or not.
    Always,
}

impl ArqMode {
    /// All three, in ablation order.
    pub const ALL: [ArqMode; 3] = [ArqMode::Off, ArqMode::DeadlineGated, ArqMode::Always];

    /// The stable label used in tables and artifacts.
    pub fn label(self) -> &'static str {
        match self {
            ArqMode::Off => "off",
            ArqMode::DeadlineGated => "gated",
            ArqMode::Always => "always",
        }
    }
}

/// The tunable subset of [`ArConfig`]: one field per hand-picked controller
/// constant, durations in milliseconds so the struct is plain numbers plus
/// two small enums (trivially serializable and searchable).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PolicyParams {
    /// Degradation: age beyond which droppable data is shed even without a
    /// deadline ([`ArConfig::stale_after`]), ms.
    pub stale_after_ms: f64,
    /// Degradation: backlog horizon in pacing ticks before congestion
    /// shedding ([`ArConfig::backlog_ticks`]).
    pub backlog_ticks: f64,
    /// Congestion: queueing-delay budget above the base RTT before the
    /// controller calls congestion, ms.
    pub latency_threshold_ms: f64,
    /// Congestion: jitter budget before the controller calls congestion, ms.
    pub jitter_threshold_ms: f64,
    /// Congestion: multiplicative decrease factor.
    pub beta: f64,
    /// Congestion: additive increase in bytes per RTT when clear.
    pub increase_per_rtt: f64,
    /// FEC: XOR parity group size for the recovery class; `None` disables
    /// FEC (overhead is `1/k`).
    pub fec_group: Option<usize>,
    /// Multipath: the §VI-D path-usage policy.
    pub multipath: MultipathPolicy,
    /// Multipath: duplicate recovery-class packets on a second path.
    pub duplicate_recovery: bool,
    /// Loss recovery: the retransmission stance.
    pub arq: ArqMode,
}

impl Default for PolicyParams {
    /// The paper defaults: exactly the values [`ArConfig::default`] has
    /// always used, projected through [`PolicyParams::from_config`] so
    /// there is a single source of truth.
    fn default() -> Self {
        PolicyParams::from_config(&ArConfig::default())
    }
}

impl PolicyParams {
    /// Projects the tunable subset out of a full config.
    pub fn from_config(cfg: &ArConfig) -> Self {
        let arq = match (cfg.recovery.enabled, cfg.recovery.deadline_gated) {
            (false, _) => ArqMode::Off,
            (true, true) => ArqMode::DeadlineGated,
            (true, false) => ArqMode::Always,
        };
        PolicyParams {
            stale_after_ms: cfg.stale_after.as_millis_f64(),
            backlog_ticks: cfg.backlog_ticks,
            latency_threshold_ms: cfg.congestion.latency_threshold.as_millis_f64(),
            jitter_threshold_ms: cfg.congestion.jitter_threshold.as_millis_f64(),
            beta: cfg.congestion.beta,
            increase_per_rtt: cfg.congestion.increase_per_rtt,
            fec_group: cfg.fec_group,
            multipath: cfg.policy,
            duplicate_recovery: cfg.duplicate_recovery,
            arq,
        }
    }

    /// Writes the tunable subset onto `cfg`, leaving everything else (rate
    /// ceiling, outage handling, ...) untouched.
    pub fn apply(&self, cfg: &mut ArConfig) {
        cfg.stale_after = SimDuration::from_millis_f64(self.stale_after_ms);
        cfg.backlog_ticks = self.backlog_ticks;
        cfg.congestion.latency_threshold = SimDuration::from_millis_f64(self.latency_threshold_ms);
        cfg.congestion.jitter_threshold = SimDuration::from_millis_f64(self.jitter_threshold_ms);
        cfg.congestion.beta = self.beta;
        cfg.congestion.increase_per_rtt = self.increase_per_rtt;
        cfg.fec_group = self.fec_group;
        cfg.policy = self.multipath;
        cfg.duplicate_recovery = self.duplicate_recovery;
        cfg.recovery = RecoveryPolicy {
            enabled: self.arq != ArqMode::Off,
            deadline_gated: self.arq != ArqMode::Always,
        };
    }

    /// Compiles the policy into a full [`ArConfig`] (defaults for the
    /// non-tunable fields).
    pub fn to_config(&self) -> ArConfig {
        let mut cfg = ArConfig::default();
        self.apply(&mut cfg);
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OutageConfig;

    #[test]
    fn default_policy_is_the_paper_config() {
        // The whole point of the layer: compiling the default policy gives
        // exactly the config every pre-existing experiment ran with, so
        // artifacts stay byte-identical.
        assert_eq!(PolicyParams::default().to_config(), ArConfig::default());
    }

    #[test]
    fn round_trip_is_lossless() {
        let p = PolicyParams {
            stale_after_ms: 90.0,
            backlog_ticks: 3.5,
            latency_threshold_ms: 22.0,
            jitter_threshold_ms: 44.0,
            beta: 0.65,
            increase_per_rtt: 30_000.0,
            fec_group: Some(4),
            multipath: MultipathPolicy::Aggregate,
            duplicate_recovery: true,
            arq: ArqMode::Always,
        };
        assert_eq!(PolicyParams::from_config(&p.to_config()), p);
        for arq in ArqMode::ALL {
            let q = PolicyParams { arq, ..p.clone() };
            assert_eq!(PolicyParams::from_config(&q.to_config()).arq, arq);
        }
    }

    #[test]
    fn apply_leaves_non_tunable_fields_alone() {
        let mut cfg = ArConfig { outage: OutageConfig::hardened(), ..ArConfig::default() };
        cfg.congestion.max_rate = 1e6;
        let p = PolicyParams { beta: 0.6, ..PolicyParams::default() };
        p.apply(&mut cfg);
        assert!(cfg.outage.enabled);
        assert_eq!(cfg.congestion.beta, 0.6);
        // The rate ceiling is an application property, not searched policy.
        assert_eq!(cfg.congestion.max_rate, 1e6);
    }

    #[test]
    fn serde_round_trip() {
        let p = PolicyParams { fec_group: None, ..PolicyParams::default() };
        let json = serde_json::to_string(&p).unwrap();
        let back: PolicyParams = serde_json::from_str(&json).unwrap();
        assert_eq!(p, back);
    }
}
