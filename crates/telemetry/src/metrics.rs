//! Metrics: a [`MetricsSnapshot`] of named counters, gauges and
//! sim-time-bucketed series, written once, after the run.
//!
//! Nothing here is live. The actors keep their own stats; when metrics
//! are on, the scenario copies them into a snapshot after the run (see
//! `bench::scenarios::finish_telemetry`). The one thing a stat cannot
//! recover afterwards is a value over sim time, so a component that
//! samples a series owns a [`TimeBuckets`] and hands its buckets over at
//! the end. Names use dotted paths (`"sim.link.0.drops_queue"`).

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

#[derive(Debug, Clone, Copy)]
struct BucketAcc {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

/// Observations grouped into fixed-width sim-time buckets, each keeping
/// count/sum/min/max: a value over sim time (queue delay, RTT samples) at
/// bounded memory regardless of sample rate.
#[derive(Debug, Clone)]
pub struct TimeBuckets {
    bucket_nanos: u64,
    /// bucket index (start = index * width) -> accumulator
    buckets: BTreeMap<u64, BucketAcc>,
}

impl TimeBuckets {
    /// An empty series of `bucket_nanos`-wide buckets (min 1 ns).
    pub fn new(bucket_nanos: u64) -> Self {
        TimeBuckets { bucket_nanos: bucket_nanos.max(1), buckets: BTreeMap::new() }
    }

    /// Records `value` at sim time `t_nanos`.
    pub fn observe(&mut self, t_nanos: u64, value: f64) {
        let idx = t_nanos / self.bucket_nanos;
        match self.buckets.get_mut(&idx) {
            Some(acc) => {
                acc.count += 1;
                acc.sum += value;
                if value < acc.min {
                    acc.min = value;
                }
                if value > acc.max {
                    acc.max = value;
                }
            }
            None => {
                self.buckets
                    .insert(idx, BucketAcc { count: 1, sum: value, min: value, max: value });
            }
        }
    }

    /// The buckets in time order, frozen for a [`MetricsSnapshot`].
    pub fn to_buckets(&self) -> Vec<TimeBucket> {
        self.buckets
            .iter()
            .map(|(idx, acc)| TimeBucket {
                start_nanos: idx * self.bucket_nanos,
                count: acc.count,
                sum: acc.sum,
                min: acc.min,
                max: acc.max,
            })
            .collect()
    }
}

/// One frozen time bucket of a [`TimeBuckets`] series.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimeBucket {
    /// Bucket start, in sim nanoseconds.
    pub start_nanos: u64,
    /// Observations that fell in this bucket.
    pub count: u64,
    /// Sum of observed values.
    pub sum: f64,
    /// Smallest observed value.
    pub min: f64,
    /// Largest observed value.
    pub max: f64,
}

/// A run's metrics. Maps are sorted by name, so snapshots of identical
/// runs are byte-identical on disk.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauges (last values) by name.
    pub gauges: BTreeMap<String, f64>,
    /// Time-series buckets by name.
    pub series: BTreeMap<String, Vec<TimeBucket>>,
}

impl MetricsSnapshot {
    /// Adds `v` to the counter `name`, creating it at zero.
    pub fn count(&mut self, name: &str, v: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += v;
    }

    /// Merges `other` into `self`: counters add, gauges take the later
    /// value, series concatenate bucket lists (used by `marnet-lab` when a
    /// run has several trials; per-trial series keep their own buckets).
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            self.gauges.insert(k.clone(), *v);
        }
        for (k, v) in &other.series {
            self.series.entry(k.clone()).or_default().extend(v.iter().cloned());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_adds_and_creates_at_zero() {
        let mut snap = MetricsSnapshot::default();
        snap.count("x.count", 1);
        snap.count("x.count", 2);
        snap.count("x.none", 0);
        assert_eq!(snap.counters["x.count"], 3);
        assert_eq!(snap.counters["x.none"], 0);
    }

    #[test]
    fn histogram_buckets_by_time() {
        let mut h = TimeBuckets::new(1_000);
        h.observe(0, 10.0);
        h.observe(999, 30.0);
        h.observe(1_000, 5.0);
        let buckets = h.to_buckets();
        assert_eq!(buckets.len(), 2);
        assert_eq!(buckets[0].start_nanos, 0);
        assert_eq!(buckets[0].count, 2);
        assert_eq!(buckets[0].sum, 40.0);
        assert_eq!(buckets[0].min, 10.0);
        assert_eq!(buckets[0].max, 30.0);
        assert_eq!(buckets[1].start_nanos, 1_000);
        assert_eq!(buckets[1].count, 1);
    }

    #[test]
    fn snapshot_round_trips_through_serde() {
        let mut snap = MetricsSnapshot::default();
        snap.count("a", 7);
        snap.gauges.insert("b".into(), 2.25);
        let mut c = TimeBuckets::new(500);
        c.observe(1_250, 3.0);
        snap.series.insert("c".into(), c.to_buckets());
        let value = snap.serialize_value();
        let back = MetricsSnapshot::deserialize_value(&value).expect("round trip");
        assert_eq!(snap, back);
    }

    #[test]
    fn merge_adds_counters_and_concatenates_series() {
        let snapshot = |n: u64, t: u64| {
            let mut snap = MetricsSnapshot::default();
            snap.count("n", n);
            let mut s = TimeBuckets::new(100);
            s.observe(t, n as f64);
            snap.series.insert("s".into(), s.to_buckets());
            snap
        };
        let mut merged = snapshot(1, 0);
        merged.merge(&snapshot(2, 50));
        assert_eq!(merged.counters["n"], 3);
        assert_eq!(merged.series["s"].len(), 2);
    }

    #[test]
    fn zero_bucket_width_is_clamped() {
        let mut h = TimeBuckets::new(0);
        h.observe(3, 1.0); // must not divide by zero
        assert_eq!(h.to_buckets()[0].start_nanos, 3);
    }
}
