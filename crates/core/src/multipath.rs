//! Multipath scheduling (§VI-D).
//!
//! "An AR protocol should provide the possibility to exploit multiple paths
//! simultaneously": aggregate WiFi + LTE for bandwidth, put latency-bound
//! data on the lowest-RTT path, duplicate recovery-class data across paths
//! instead of paying for retransmission, and smooth WiFi handover gaps with
//! cellular. The paper names three user-facing policies driven by LTE cost:
//!
//! 1. *WiFi all the time, 4G for handover* — [`MultipathPolicy::WifiOnly`];
//! 2. *WiFi most of the time, 4G for handover and when WiFi is unavailable*
//!    — [`MultipathPolicy::WifiPreferred`];
//! 3. *WiFi and 4G simultaneously* — [`MultipathPolicy::Aggregate`].

use crate::class::{Priority, TrafficClass};
use marnet_sim::time::SimDuration;
use serde::{Deserialize, Serialize};

/// What kind of network a path crosses (drives policy and cost accounting).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PathRole {
    /// A WiFi access path (free, intermittent).
    Wifi,
    /// A cellular path (metered, near-ubiquitous).
    Cellular,
    /// A device-to-device path (free, short range).
    DeviceToDevice,
}

/// The §VI-D usage policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MultipathPolicy {
    /// WiFi carries everything; cellular is touched only by data that must
    /// not stall (Critical class / Highest priority) while WiFi is down.
    WifiOnly,
    /// WiFi preferred; everything fails over to cellular when WiFi is down.
    WifiPreferred,
    /// Use all paths at once: latency-bound data on the lowest-RTT path,
    /// bulk data spread proportionally to path rate.
    Aggregate,
}

/// A scheduler-visible summary of one path's state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathSnapshot {
    /// The path's network kind.
    pub role: PathRole,
    /// Whether the path is currently usable.
    pub up: bool,
    /// Smoothed RTT, if feedback has arrived.
    pub srtt: Option<SimDuration>,
    /// Estimated available rate in bytes/s (from the path's controller).
    pub rate: f64,
}

/// The path indices chosen for one packet, primary first.
///
/// A small inline array instead of a `Vec<usize>`: `select` runs once per
/// fragment on the pacing hot path, and a selection never names more than
/// [`Picks::MAX`] paths, so the result is `Copy` and allocation-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Picks {
    idx: [usize; Picks::MAX],
    len: u8,
}

impl Picks {
    /// The most paths one packet can be sent on (primary + duplicates).
    pub const MAX: usize = 4;

    /// An empty selection (no policy-compatible path is up).
    pub fn new() -> Self {
        Picks::default()
    }

    /// Appends a path index. Panics if already at [`Picks::MAX`].
    pub fn push(&mut self, path: usize) {
        assert!((self.len as usize) < Picks::MAX, "more than {} picks", Picks::MAX);
        self.idx[self.len as usize] = path;
        self.len += 1;
    }

    /// Number of selected paths.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// `true` when no path was selected.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The selected indices as a slice, primary first.
    pub fn as_slice(&self) -> &[usize] {
        &self.idx[..self.len as usize]
    }

    /// Iterates over the selected indices by value.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.as_slice().iter().copied()
    }
}

impl std::ops::Index<usize> for Picks {
    type Output = usize;
    fn index(&self, i: usize) -> &usize {
        &self.as_slice()[i]
    }
}

impl PartialEq<Vec<usize>> for Picks {
    fn eq(&self, other: &Vec<usize>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<'a> IntoIterator for &'a Picks {
    type Item = &'a usize;
    type IntoIter = std::slice::Iter<'a, usize>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

/// Picks transmission paths for each packet.
#[derive(Debug, Clone)]
pub struct MultipathScheduler {
    policy: MultipathPolicy,
    /// Duplicate recovery-class packets on a second path when available
    /// ("data packets belonging to a traffic class with loss recovery could
    /// also be sent on both links in order to prevent a costly recovery").
    duplicate_recovery: bool,
    /// Deficit counters for rate-proportional spreading in Aggregate mode.
    deficits: Vec<f64>,
}

impl MultipathScheduler {
    /// Creates a scheduler with the given policy.
    pub fn new(policy: MultipathPolicy, duplicate_recovery: bool) -> Self {
        MultipathScheduler { policy, duplicate_recovery, deficits: Vec::new() }
    }

    /// The configured policy.
    pub fn policy(&self) -> MultipathPolicy {
        self.policy
    }

    /// The first path of `role` that is currently up, if there is one.
    fn first_up(snaps: &[PathSnapshot], role: PathRole) -> Option<usize> {
        let (i, first) = snaps.iter().enumerate().find(|(_, s)| s.role == role)?;
        first.up.then_some(i)
    }

    fn lowest_rtt_up(snaps: &[PathSnapshot]) -> Option<usize> {
        snaps
            .iter()
            .enumerate()
            .filter(|(_, s)| s.up)
            .min_by_key(|(_, s)| s.srtt.unwrap_or(SimDuration::MAX))
            .map(|(i, _)| i)
    }

    fn weighted_pick(&mut self, snaps: &[PathSnapshot], size: u32) -> Option<usize> {
        if self.deficits.len() != snaps.len() {
            // The path set changed size: start over from zero credit.
            self.deficits.clear();
            self.deficits.resize(snaps.len(), 0.0);
        }
        // Deficit round robin weighted by rate: add rate-proportional
        // credit, pick the up path with the largest credit.
        let total_rate: f64 = snaps.iter().filter(|s| s.up).map(|s| s.rate.max(1.0)).sum();
        if total_rate <= 0.0 {
            return None;
        }
        for (deficit, s) in self.deficits.iter_mut().zip(snaps) {
            if s.up {
                *deficit += s.rate.max(1.0) / total_rate * f64::from(size);
            }
        }
        let (best, (deficit, _)) = self
            .deficits
            .iter_mut()
            .zip(snaps)
            .enumerate()
            .filter(|(_, (_, s))| s.up)
            .max_by(|(_, (a, _)), (_, (b, _))| a.total_cmp(b))?;
        *deficit -= f64::from(size);
        Some(best)
    }

    /// Chooses the path(s) for a packet of `size` bytes with the given
    /// class/priority. Returns an empty selection when no policy-compatible
    /// path is up (the packet should stay queued).
    ///
    /// The first returned index is the primary; any further are duplicates.
    pub fn select(
        &mut self,
        snaps: &[PathSnapshot],
        class: TrafficClass,
        priority: Priority,
        size: u32,
    ) -> Picks {
        if snaps.is_empty() {
            return Picks::new();
        }
        let primary = match self.policy {
            MultipathPolicy::WifiOnly => Self::first_up(snaps, PathRole::Wifi).or_else(|| {
                let must_not_stall =
                    class == TrafficClass::Critical || priority == Priority::Highest;
                if must_not_stall {
                    Self::first_up(snaps, PathRole::Cellular)
                } else {
                    None
                }
            }),
            MultipathPolicy::WifiPreferred => Self::first_up(snaps, PathRole::Wifi)
                .or_else(|| Self::first_up(snaps, PathRole::Cellular))
                .or_else(|| Self::lowest_rtt_up(snaps)),
            MultipathPolicy::Aggregate => {
                let latency_bound = priority.band() == 0 || class == TrafficClass::Critical;
                if latency_bound {
                    Self::lowest_rtt_up(snaps)
                } else {
                    self.weighted_pick(snaps, size)
                }
            }
        };

        let Some(primary) = primary else {
            return Picks::new();
        };
        let mut out = Picks::new();
        out.push(primary);
        if self.duplicate_recovery && class == TrafficClass::BestEffortWithRecovery {
            // Duplicate on the best other up path (Aggregate and
            // WifiPreferred only — WifiOnly is explicitly LTE-frugal).
            if self.policy != MultipathPolicy::WifiOnly {
                let dup = snaps
                    .iter()
                    .enumerate()
                    .filter(|(i, s)| *i != primary && s.up)
                    .min_by_key(|(_, s)| s.srtt.unwrap_or(SimDuration::MAX))
                    .map(|(i, _)| i);
                if let Some(d) = dup {
                    out.push(d);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::StreamKind;

    fn snap(role: PathRole, up: bool, srtt_ms: u64, rate: f64) -> PathSnapshot {
        PathSnapshot { role, up, srtt: Some(SimDuration::from_millis(srtt_ms)), rate }
    }

    fn wifi_lte(wifi_up: bool) -> Vec<PathSnapshot> {
        vec![
            snap(PathRole::Wifi, wifi_up, 10, 500_000.0),
            snap(PathRole::Cellular, true, 40, 250_000.0),
        ]
    }

    #[test]
    fn wifi_only_uses_wifi_when_up() {
        let mut s = MultipathScheduler::new(MultipathPolicy::WifiOnly, false);
        let (class, prio) = StreamKind::VideoInter.default_class();
        assert_eq!(s.select(&wifi_lte(true), class, prio, 1000), vec![0]);
    }

    #[test]
    fn wifi_only_sends_only_critical_over_lte_during_gap() {
        let mut s = MultipathScheduler::new(MultipathPolicy::WifiOnly, false);
        let snaps = wifi_lte(false);
        let (vc, vp) = StreamKind::VideoInter.default_class();
        assert!(s.select(&snaps, vc, vp, 1000).is_empty(), "video must wait out the gap");
        let (mc, mp) = StreamKind::Metadata.default_class();
        assert_eq!(s.select(&snaps, mc, mp, 100), vec![1], "metadata hops to LTE");
    }

    #[test]
    fn wifi_preferred_fails_everything_over() {
        let mut s = MultipathScheduler::new(MultipathPolicy::WifiPreferred, false);
        let (vc, vp) = StreamKind::VideoInter.default_class();
        assert_eq!(s.select(&wifi_lte(true), vc, vp, 1000), vec![0]);
        assert_eq!(s.select(&wifi_lte(false), vc, vp, 1000), vec![1]);
    }

    #[test]
    fn aggregate_puts_latency_data_on_lowest_rtt() {
        let mut s = MultipathScheduler::new(MultipathPolicy::Aggregate, false);
        let (mc, mp) = StreamKind::Metadata.default_class();
        // WiFi has the lower RTT here.
        assert_eq!(s.select(&wifi_lte(true), mc, mp, 100), vec![0]);
        // Flip RTTs: cellular becomes the latency path.
        let snaps = vec![
            snap(PathRole::Wifi, true, 80, 500_000.0),
            snap(PathRole::Cellular, true, 15, 250_000.0),
        ];
        assert_eq!(s.select(&snaps, mc, mp, 100), vec![1]);
    }

    #[test]
    fn aggregate_spreads_bulk_by_rate() {
        let mut s = MultipathScheduler::new(MultipathPolicy::Aggregate, false);
        let snaps = vec![
            snap(PathRole::Wifi, true, 10, 750_000.0),
            snap(PathRole::Cellular, true, 40, 250_000.0),
        ];
        let (bc, bp) = StreamKind::Bulk.default_class();
        let mut counts = [0usize; 2];
        for _ in 0..1000 {
            let picked = s.select(&snaps, bc, bp, 1000);
            counts[picked[0]] += 1;
        }
        let frac = counts[0] as f64 / 1000.0;
        assert!((frac - 0.75).abs() < 0.05, "wifi share {frac}, want ~0.75");
    }

    #[test]
    fn duplication_adds_a_second_path_for_recovery_class() {
        let mut s = MultipathScheduler::new(MultipathPolicy::Aggregate, true);
        let (rc, rp) = StreamKind::VideoReference.default_class();
        let picked = s.select(&wifi_lte(true), rc, rp, 1000);
        assert_eq!(picked.len(), 2);
        assert_ne!(picked[0], picked[1]);
        // Best-effort data is never duplicated.
        let (vc, vp) = StreamKind::VideoInter.default_class();
        assert_eq!(s.select(&wifi_lte(true), vc, vp, 1000).len(), 1);
    }

    #[test]
    fn no_duplication_with_single_up_path() {
        let mut s = MultipathScheduler::new(MultipathPolicy::WifiPreferred, true);
        let (rc, rp) = StreamKind::VideoReference.default_class();
        let picked = s.select(&wifi_lte(false), rc, rp, 1000);
        assert_eq!(picked, vec![1]);
    }

    /// The picks of every policy under every availability of a WiFi + LTE
    /// pair, one fresh scheduler (duplication on) per cell of the table.
    #[test]
    fn select_picks_per_policy_and_availability() {
        const KINDS: [StreamKind; 6] = [
            StreamKind::Metadata,
            StreamKind::VideoReference,
            StreamKind::VideoInter,
            // Three in a row: the deficit counters carry between picks.
            StreamKind::Bulk,
            StreamKind::Bulk,
            StreamKind::Bulk,
        ];
        use MultipathPolicy::{Aggregate, WifiOnly, WifiPreferred};
        // (policy, wifi up, cellular up, the picks for each of KINDS in turn)
        let table: [(MultipathPolicy, bool, bool, [&[usize]; 6]); 12] = [
            (WifiOnly, true, true, [&[0], &[0], &[0], &[0], &[0], &[0]]),
            (WifiOnly, false, true, [&[1], &[1], &[], &[], &[], &[]]),
            (WifiOnly, true, false, [&[0], &[0], &[0], &[0], &[0], &[0]]),
            (WifiOnly, false, false, [&[]; 6]),
            (WifiPreferred, true, true, [&[0], &[0, 1], &[0], &[0], &[0], &[0]]),
            (WifiPreferred, false, true, [&[1], &[1], &[1], &[1], &[1], &[1]]),
            (WifiPreferred, true, false, [&[0], &[0], &[0], &[0], &[0], &[0]]),
            (WifiPreferred, false, false, [&[]; 6]),
            (Aggregate, true, true, [&[0], &[0, 1], &[0], &[1], &[0], &[0]]),
            (Aggregate, false, true, [&[1], &[1], &[1], &[1], &[1], &[1]]),
            (Aggregate, true, false, [&[0], &[0], &[0], &[0], &[0], &[0]]),
            (Aggregate, false, false, [&[]; 6]),
        ];
        for (policy, wifi_up, cell_up, want) in table {
            let snaps = [
                snap(PathRole::Wifi, wifi_up, 10, 500_000.0),
                snap(PathRole::Cellular, cell_up, 40, 250_000.0),
            ];
            let mut s = MultipathScheduler::new(policy, true);
            for (kind, want) in KINDS.iter().zip(want) {
                let (class, prio) = kind.default_class();
                let got = s.select(&snaps, class, prio, 1000);
                assert_eq!(
                    got.as_slice(),
                    want,
                    "{policy:?}, wifi up {wifi_up}, cell up {cell_up}, {kind:?}"
                );
            }
        }
    }

    #[test]
    fn empty_paths_select_nothing() {
        let mut s = MultipathScheduler::new(MultipathPolicy::Aggregate, true);
        let (mc, mp) = StreamKind::Metadata.default_class();
        assert!(s.select(&[], mc, mp, 100).is_empty());
    }

    #[test]
    fn all_paths_down_selects_nothing() {
        let mut s = MultipathScheduler::new(MultipathPolicy::Aggregate, false);
        let snaps =
            vec![snap(PathRole::Wifi, false, 10, 1.0), snap(PathRole::Cellular, false, 40, 1.0)];
        let (mc, mp) = StreamKind::Metadata.default_class();
        assert!(s.select(&snaps, mc, mp, 100).is_empty());
        let (bc, bp) = StreamKind::Bulk.default_class();
        assert!(s.select(&snaps, bc, bp, 100).is_empty());
    }
}
