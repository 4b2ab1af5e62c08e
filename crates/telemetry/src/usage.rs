//! Per-class byte/packet accounting.
//!
//! [`ClassUsage`] is indexed by plain `usize` class index; the core
//! endpoint keeps one `ClassUsage<6>` indexed by `StreamKind as usize`.
//! The arrays are plain `u64`s updated through `&mut self` — recording
//! costs two adds, no interior mutability, no allocation — and are `pub`,
//! so a scenario copies them into its metrics after the run.

/// Per-class sent/dropped packet and byte totals for `N` classes.
///
/// Out-of-range class indices are clamped to the last class so accounting
/// totals stay exact even for unexpected inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClassUsage<const N: usize> {
    /// Packets sent per class.
    pub sent_packets: [u64; N],
    /// Bytes sent per class.
    pub sent_bytes: [u64; N],
    /// Packets dropped (or shed) per class.
    pub dropped_packets: [u64; N],
    /// Bytes dropped (or shed) per class.
    pub dropped_bytes: [u64; N],
}

impl<const N: usize> Default for ClassUsage<N> {
    fn default() -> Self {
        ClassUsage {
            sent_packets: [0; N],
            sent_bytes: [0; N],
            dropped_packets: [0; N],
            dropped_bytes: [0; N],
        }
    }
}

impl<const N: usize> ClassUsage<N> {
    /// An all-zero usage table.
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn idx(class: usize) -> usize {
        class.min(N - 1)
    }

    /// Records one sent packet of `bytes` in `class`.
    #[inline]
    pub fn record_sent(&mut self, class: usize, bytes: u64) {
        let i = Self::idx(class);
        self.sent_packets[i] += 1;
        self.sent_bytes[i] += bytes;
    }

    /// Records one dropped (or shed) packet of `bytes` in `class`.
    #[inline]
    pub fn record_dropped(&mut self, class: usize, bytes: u64) {
        let i = Self::idx(class);
        self.dropped_packets[i] += 1;
        self.dropped_bytes[i] += bytes;
    }

    /// Packets dropped in `class` (clamped like the recording methods).
    #[inline]
    pub fn dropped_packets_for(&self, class: usize) -> u64 {
        self.dropped_packets[Self::idx(class)]
    }

    /// Total bytes sent across all classes.
    pub fn total_sent_bytes(&self) -> u64 {
        self.sent_bytes.iter().sum()
    }

    /// Total bytes dropped across all classes.
    pub fn total_dropped_bytes(&self) -> u64 {
        self.dropped_bytes.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_totals() {
        let mut u = ClassUsage::<4>::new();
        u.record_sent(0, 100);
        u.record_sent(0, 50);
        u.record_sent(3, 10);
        u.record_dropped(1, 7);
        assert_eq!(u.sent_packets, [2, 0, 0, 1]);
        assert_eq!(u.sent_bytes, [150, 0, 0, 10]);
        assert_eq!(u.total_sent_bytes(), 160);
        assert_eq!(u.total_dropped_bytes(), 7);
    }

    #[test]
    fn out_of_range_class_clamps_to_last() {
        let mut u = ClassUsage::<2>::new();
        u.record_sent(99, 5);
        assert_eq!(u.sent_bytes, [0, 5]);
    }
}
