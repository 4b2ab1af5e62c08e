//! Traffic classes and priorities (§VI-A).
//!
//! The paper defines three baseline traffic classes and four priority
//! levels, with the key semantic split between data that may be *delayed but
//! never discarded* and data that may be *discarded but never delayed*
//! (stale video frames are worthless; critical metadata is not).

use serde::{Deserialize, Serialize};
use std::fmt;

/// The §VI-A baseline traffic classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TrafficClass {
    /// Latency above all: new data is preferred to loss recovery.
    /// Most uplink sensor data and video interframes live here.
    FullBestEffort,
    /// Sensitive data with latency requirements: recover losses when (and
    /// only when) recovery can still meet the deadline; protect with FEC.
    /// Video reference frames live here.
    BestEffortWithRecovery,
    /// Reliable in-order delivery preferred to latency: connection
    /// metadata. Always retransmitted.
    Critical,
}

impl TrafficClass {
    /// Whether losses of this class are ever recovered.
    pub fn wants_recovery(self) -> bool {
        !matches!(self, TrafficClass::FullBestEffort)
    }

    /// Whether recovery is unconditional (ignores deadlines).
    pub fn recovery_is_unconditional(self) -> bool {
        matches!(self, TrafficClass::Critical)
    }
}

impl fmt::Display for TrafficClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TrafficClass::FullBestEffort => "best-effort",
            TrafficClass::BestEffortWithRecovery => "best-effort+recovery",
            TrafficClass::Critical => "critical",
        };
        f.write_str(s)
    }
}

/// The §VI-A priority levels. Each intermediate level carries a sublevel
/// (`0` = most important within the level) "to precisely describe the order
/// in which service should be reduced".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Priority {
    /// Never discarded, never delayed while any other traffic exists.
    Highest,
    /// May be delayed but never discarded (e.g. critical-class data that is
    /// not time sensitive).
    DelayNotDrop(u8),
    /// May be discarded but not delayed: in-time delivery beats integrity
    /// (e.g. fresh video frames replacing stale ones).
    DropNotDelay(u8),
    /// Completely discardable under congestion.
    Lowest(u8),
}

impl Priority {
    /// Whether the scheduler may discard this data under congestion.
    pub fn can_drop(self) -> bool {
        matches!(self, Priority::DropNotDelay(_) | Priority::Lowest(_))
    }

    /// Total order used by the degradation scheduler: lower rank is served
    /// first and shed last. Sublevels refine within each level.
    pub fn rank(self) -> u8 {
        match self {
            Priority::Highest => 0,
            Priority::DelayNotDrop(l) => 0x10 + l.min(0xf),
            Priority::DropNotDelay(l) => 0x20 + l.min(0xf),
            Priority::Lowest(l) => 0x30 + l.min(0xf),
        }
    }

    /// The packet-header priority band (0-3) used for on-path queueing
    /// (strict-priority queues look at this).
    pub fn band(self) -> u8 {
        match self {
            Priority::Highest => 0,
            Priority::DelayNotDrop(_) => 1,
            Priority::DropNotDelay(_) => 2,
            Priority::Lowest(_) => 3,
        }
    }
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Priority::Highest => write!(f, "highest"),
            Priority::DelayNotDrop(l) => write!(f, "delay-not-drop.{l}"),
            Priority::DropNotDelay(l) => write!(f, "drop-not-delay.{l}"),
            Priority::Lowest(l) => write!(f, "lowest.{l}"),
        }
    }
}

/// The example sub-streams of a MAR flow used throughout §VI-B and Fig. 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StreamKind {
    /// Connection metadata: constantly generated, must not be lost/delayed.
    Metadata,
    /// Sensor samples (position, orientation, ...): small, adjustable.
    Sensor,
    /// Video reference (key) frames: needed to decode the stream.
    VideoReference,
    /// Video interframes: the main adjustable variable.
    VideoInter,
    /// Server → client computation results.
    Result,
    /// Anything else (bulk transfers, prefetches).
    Bulk,
}

impl StreamKind {
    /// The class/priority assignment Fig. 4 uses for each sub-stream.
    pub fn default_class(self) -> (TrafficClass, Priority) {
        match self {
            StreamKind::Metadata => (TrafficClass::Critical, Priority::Highest),
            StreamKind::Sensor => (TrafficClass::FullBestEffort, Priority::DelayNotDrop(0)),
            StreamKind::VideoReference => (TrafficClass::BestEffortWithRecovery, Priority::Highest),
            StreamKind::VideoInter => (TrafficClass::FullBestEffort, Priority::Lowest(0)),
            StreamKind::Result => (TrafficClass::BestEffortWithRecovery, Priority::DropNotDelay(0)),
            StreamKind::Bulk => (TrafficClass::FullBestEffort, Priority::Lowest(1)),
        }
    }
}

impl fmt::Display for StreamKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            StreamKind::Metadata => "metadata",
            StreamKind::Sensor => "sensor",
            StreamKind::VideoReference => "video-ref",
            StreamKind::VideoInter => "video-inter",
            StreamKind::Result => "result",
            StreamKind::Bulk => "bulk",
        };
        f.write_str(s)
    }
}

/// A map keyed by [`StreamKind`], stored as a fixed inline array.
///
/// The per-kind statistics on the send/deliver hot paths update one entry
/// per fragment; an array index replaces the hashing and probing a
/// `HashMap` would pay, and iteration order is the (deterministic) enum
/// declaration order.
#[derive(Debug, Clone)]
pub struct KindMap<V> {
    slots: [Option<V>; ALL_STREAM_KINDS.len()],
}

impl<V> Default for KindMap<V> {
    fn default() -> Self {
        KindMap { slots: [None, None, None, None, None, None] }
    }
}

impl<V> KindMap<V> {
    /// An empty map.
    pub fn new() -> Self {
        KindMap::default()
    }

    /// The slot of `kind`: the one place (with [`KindMap::kind_slot_mut`])
    /// that turns a kind into an array position.
    fn kind_slot(&self, kind: StreamKind) -> &Option<V> {
        // The enum discriminant indexes a same-arity array.
        &self.slots[kind as usize]
    }

    /// Mutable counterpart of [`KindMap::kind_slot`].
    fn kind_slot_mut(&mut self, kind: StreamKind) -> &mut Option<V> {
        // marnet-lint: allow(panic-path): enum discriminant indexes a same-arity array
        &mut self.slots[kind as usize]
    }

    /// The value for `kind`, if one was ever inserted.
    pub fn get(&self, kind: &StreamKind) -> Option<&V> {
        self.kind_slot(*kind).as_ref()
    }

    /// Mutable access to the value for `kind`.
    pub fn get_mut(&mut self, kind: &StreamKind) -> Option<&mut V> {
        self.kind_slot_mut(*kind).as_mut()
    }

    /// The value for `kind`, inserting `f()` first if absent.
    pub fn get_or_insert_with(&mut self, kind: StreamKind, f: impl FnOnce() -> V) -> &mut V {
        self.kind_slot_mut(kind).get_or_insert_with(f)
    }

    /// The value for `kind`, inserting the default first if absent.
    pub fn or_default(&mut self, kind: StreamKind) -> &mut V
    where
        V: Default,
    {
        self.get_or_insert_with(kind, V::default)
    }

    /// Iterates over present `(kind, value)` pairs in enum order.
    pub fn iter(&self) -> impl Iterator<Item = (StreamKind, &V)> {
        self.into_iter()
    }

    /// Iterates over present values in enum order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.slots.iter().filter_map(|v| v.as_ref())
    }
}

/// Iterator over present `(kind, value)` pairs in enum order.
#[derive(Debug)]
pub struct KindMapIter<'a, V> {
    slots: std::iter::Zip<std::slice::Iter<'static, StreamKind>, std::slice::Iter<'a, Option<V>>>,
}

impl<'a, V> Iterator for KindMapIter<'a, V> {
    type Item = (StreamKind, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        self.slots.find_map(|(kind, v)| Some((*kind, v.as_ref()?)))
    }
}

impl<'a, V> IntoIterator for &'a KindMap<V> {
    type Item = (StreamKind, &'a V);
    type IntoIter = KindMapIter<'a, V>;

    /// `for (kind, v) in &map` — the same iterator as [`KindMap::iter`].
    fn into_iter(self) -> KindMapIter<'a, V> {
        KindMapIter { slots: ALL_STREAM_KINDS.iter().zip(&self.slots) }
    }
}

impl<V> std::ops::Index<&StreamKind> for KindMap<V> {
    type Output = V;
    /// Panics (like `HashMap` indexing) when `kind` has no entry.
    fn index(&self, kind: &StreamKind) -> &V {
        self.kind_slot(*kind).as_ref().expect("no entry for stream kind")
    }
}

/// All stream kinds, for iteration in experiment code.
pub const ALL_STREAM_KINDS: [StreamKind; 6] = [
    StreamKind::Metadata,
    StreamKind::Sensor,
    StreamKind::VideoReference,
    StreamKind::VideoInter,
    StreamKind::Result,
    StreamKind::Bulk,
];

/// Stable lowercase label of each stream kind, aligned with
/// [`ALL_STREAM_KINDS`] (used as metric-name segments by telemetry).
pub const STREAM_KIND_LABELS: [&str; ALL_STREAM_KINDS.len()] =
    ["metadata", "sensor", "video-ref", "video-inter", "result", "bulk"];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_recovery_semantics() {
        assert!(!TrafficClass::FullBestEffort.wants_recovery());
        assert!(TrafficClass::BestEffortWithRecovery.wants_recovery());
        assert!(TrafficClass::Critical.wants_recovery());
        assert!(TrafficClass::Critical.recovery_is_unconditional());
        assert!(!TrafficClass::BestEffortWithRecovery.recovery_is_unconditional());
    }

    #[test]
    fn priority_semantics_match_the_paper() {
        // (1) Highest: neither discarded nor delayed.
        assert!(!Priority::Highest.can_drop());
        // (2) Medium 1: delayed but never discarded.
        assert!(!Priority::DelayNotDrop(0).can_drop());
        // (3) Medium 2: discarded but not delayed.
        assert!(Priority::DropNotDelay(0).can_drop());
        // (4) Lowest: completely discardable.
        assert!(Priority::Lowest(0).can_drop());
    }

    #[test]
    fn rank_orders_levels_then_sublevels() {
        let order = [
            Priority::Highest,
            Priority::DelayNotDrop(0),
            Priority::DelayNotDrop(1),
            Priority::DropNotDelay(0),
            Priority::DropNotDelay(3),
            Priority::Lowest(0),
            Priority::Lowest(5),
        ];
        let ranks: Vec<u8> = order.iter().map(|p| p.rank()).collect();
        let mut sorted = ranks.clone();
        sorted.sort_unstable();
        assert_eq!(ranks, sorted, "ranks must already be in ascending order");
        // Sublevels saturate rather than bleed into the next level.
        assert!(Priority::DelayNotDrop(200).rank() < Priority::DropNotDelay(0).rank());
    }

    #[test]
    fn bands_collapse_sublevels() {
        assert_eq!(Priority::Highest.band(), 0);
        assert_eq!(Priority::DelayNotDrop(7).band(), 1);
        assert_eq!(Priority::DropNotDelay(2).band(), 2);
        assert_eq!(Priority::Lowest(9).band(), 3);
    }

    #[test]
    fn fig4_stream_assignments() {
        // The exact Fig. 4 example mapping.
        assert_eq!(
            StreamKind::Metadata.default_class(),
            (TrafficClass::Critical, Priority::Highest)
        );
        assert_eq!(
            StreamKind::Sensor.default_class(),
            (TrafficClass::FullBestEffort, Priority::DelayNotDrop(0))
        );
        assert_eq!(
            StreamKind::VideoReference.default_class(),
            (TrafficClass::BestEffortWithRecovery, Priority::Highest)
        );
        assert_eq!(
            StreamKind::VideoInter.default_class(),
            (TrafficClass::FullBestEffort, Priority::Lowest(0))
        );
    }

    #[test]
    fn displays() {
        assert_eq!(TrafficClass::Critical.to_string(), "critical");
        assert_eq!(Priority::DropNotDelay(1).to_string(), "drop-not-delay.1");
        assert_eq!(StreamKind::VideoReference.to_string(), "video-ref");
    }
}
