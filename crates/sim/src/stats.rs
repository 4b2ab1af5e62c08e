//! Measurement utilities: running moments, histograms, time series and rate
//! meters, plus the Jain fairness index used by the fairness experiments.

use crate::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Streaming mean/variance/min/max (Welford's algorithm).
///
/// ```
/// use marnet_sim::stats::OnlineStats;
/// let mut s = OnlineStats::new();
/// for v in [1.0, 2.0, 3.0] { s.record(v); }
/// assert_eq!(s.mean(), 2.0);
/// assert_eq!(s.count(), 3);
/// ```
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        OnlineStats { count: 0, mean: 0.0, m2: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }

    /// Records one sample.
    pub fn record(&mut self, value: f64) {
        self.count += 1;
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (value - self.mean);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (0 with fewer than two samples).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest sample (`NaN` if empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.min
        }
    }

    /// Largest sample (`NaN` if empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.max
        }
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        self.mean += delta * other.count as f64 / total as f64;
        self.m2 += other.m2 + delta * delta * self.count as f64 * other.count as f64 / total as f64;
        self.count = total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Fixed set of percentile-capable samples.
///
/// Stores raw values; fine for the ≤10⁷ samples the experiments produce.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Histogram {
    values: Vec<f64>,
    sorted: bool,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram { values: Vec::new(), sorted: true }
    }

    /// An empty histogram with room for `n` samples: the first `n`
    /// [`Histogram::record`]s allocate nothing.
    pub fn with_capacity(n: usize) -> Self {
        Histogram { values: Vec::with_capacity(n), sorted: true }
    }

    /// Records one sample.
    pub fn record(&mut self, value: f64) {
        self.values.push(value);
        self.sorted = false;
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.values.len()
    }

    /// The `q`-quantile (`0.0..=1.0`) by linear interpolation, or `None` if
    /// empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&mut self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        if self.values.is_empty() {
            return None;
        }
        if !self.sorted {
            self.values.sort_by(|a, b| a.total_cmp(b));
            self.sorted = true;
        }
        let pos = q * (self.values.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        Some(self.values[lo] * (1.0 - frac) + self.values[hi] * frac)
    }

    /// Convenience: the median.
    pub fn median(&mut self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// Convenience: the 95th percentile.
    pub fn p95(&mut self) -> Option<f64> {
        self.quantile(0.95)
    }

    /// Convenience: the 99th percentile.
    pub fn p99(&mut self) -> Option<f64> {
        self.quantile(0.99)
    }

    /// The raw samples, in insertion or sorted order (unspecified).
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Fraction of samples at or below `threshold` (0 if empty).
    pub fn fraction_at_most(&self, threshold: f64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.values.iter().filter(|&&v| v <= threshold).count() as f64 / self.values.len() as f64
    }

    /// Mean of all samples (`None` if empty).
    pub fn mean(&self) -> Option<f64> {
        if self.values.is_empty() {
            None
        } else {
            Some(self.values.iter().sum::<f64>() / self.values.len() as f64)
        }
    }

    /// Merges another histogram's samples into this one.
    ///
    /// Since quantiles are computed over the raw samples, a merge of
    /// per-replicate histograms yields exactly the quantiles of the pooled
    /// sample set, independent of how samples were partitioned.
    pub fn merge(&mut self, other: &Histogram) {
        if other.values.is_empty() {
            return;
        }
        self.values.extend_from_slice(&other.values);
        self.sorted = false;
    }
}

/// Integer samples over virtual time, kept as one `(sum, count)` per
/// second — e.g. a congestion window for Fig. 4.
///
/// The series grows with the run's length in seconds, not with its sample
/// rate, and [`TimeSeries::window_mean`] answers over whole seconds. Its
/// mean is the one a list of `(seconds, value as f64)` points gives, bit
/// for bit, as long as every partial sum stays below 2⁵³:
/// - an `f64` sum of integers below 2⁵³ is exact, so it equals the `u64`
///   sum in any order, and the final division has the same two operands;
/// - a whole-second bound selects the same samples: `nanos as f64 / 1e9 >=
///   k` holds exactly when `nanos >= k·10⁹`, because the division is
///   monotone, maps `k·10⁹` to `k` and maps `k·10⁹ − 1` below `k` for
///   every `k` under 2²³ s.
#[derive(Debug, Clone, Default)]
pub struct TimeSeries {
    /// `(sum, count)` of the samples in second `i`, at index `i`.
    seconds: Vec<(u64, u64)>,
}

impl TimeSeries {
    /// Adds `value` to the sum of the second that holds virtual time `t`.
    pub fn push(&mut self, t: SimTime, value: u64) {
        let second = (t.as_nanos() / 1_000_000_000) as usize;
        if second >= self.seconds.len() {
            self.seconds.resize(second + 1, (0, 0));
        }
        let (sum, count) = &mut self.seconds[second];
        *sum += value;
        *count += 1;
    }

    /// Mean of the samples within seconds `[from_s, to_s)`, or `None` if
    /// none fall in the window. The bounds are whole seconds by type.
    pub fn window_mean(&self, from_s: u64, to_s: u64) -> Option<f64> {
        let (sum, count) = self
            .seconds
            .iter()
            .take(to_s as usize)
            .skip(from_s as usize)
            .fold((0u64, 0u64), |(sum, count), &(s, c)| (sum + s, count + c));
        (count > 0).then(|| sum as f64 / count as f64)
    }
}

/// Bucketized byte-rate meter: feed it deliveries, read back Mb/s per bucket.
///
/// Used to produce the throughput-versus-time series of Figs. 2 and 3.
#[derive(Debug, Clone)]
pub struct RateMeter {
    bucket: SimDuration,
    buckets: Vec<u64>,
}

impl RateMeter {
    /// A meter with the given bucket width.
    ///
    /// # Panics
    ///
    /// Panics if `bucket` is zero.
    pub fn new(bucket: SimDuration) -> Self {
        assert!(bucket > SimDuration::ZERO, "bucket width must be positive");
        RateMeter { bucket, buckets: Vec::new() }
    }

    /// A meter with room for every delivery at or before `horizon`, i.e.
    /// for `horizon / bucket + 1` buckets: no [`RateMeter::record`] up to
    /// the horizon allocates.
    ///
    /// # Panics
    ///
    /// Panics if `bucket` is zero, or if the room exceeds `isize::MAX`
    /// bytes.
    pub fn with_horizon(bucket: SimDuration, horizon: SimTime) -> Self {
        let mut meter = RateMeter::new(bucket);
        let buckets = (horizon.as_nanos() / bucket.as_nanos()).saturating_add(1);
        meter.buckets.reserve_exact(usize::try_from(buckets).unwrap_or(usize::MAX));
        meter
    }

    /// Records `bytes` delivered at time `t`.
    pub fn record(&mut self, t: SimTime, bytes: u64) {
        let idx = (t.as_nanos() / self.bucket.as_nanos()) as usize;
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += bytes;
    }

    /// Mean rate in Mb/s across `[from, to)` seconds.
    pub fn mean_mbps(&self, from: f64, to: f64) -> f64 {
        let w = self.bucket.as_secs_f64();
        let mut bytes = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            let t = i as f64 * w;
            if t >= from && t < to {
                bytes += b;
            }
        }
        let span = to - from;
        if span <= 0.0 {
            0.0
        } else {
            bytes as f64 * 8.0 / span / 1e6
        }
    }
}

/// Jain's fairness index over per-flow allocations: `(Σx)² / (n·Σx²)`.
///
/// 1.0 means perfectly fair; `1/n` means one flow takes everything.
///
/// ```
/// use marnet_sim::stats::jain_index;
/// assert_eq!(jain_index(&[5.0, 5.0, 5.0]), 1.0);
/// assert!((jain_index(&[9.0, 1.0]) - 0.6097).abs() < 1e-3);
/// ```
pub fn jain_index(allocations: &[f64]) -> f64 {
    if allocations.is_empty() {
        return 1.0;
    }
    let sum: f64 = allocations.iter().sum();
    let sq: f64 = allocations.iter().map(|x| x * x).sum();
    if sq == 0.0 {
        return 1.0;
    }
    sum * sum / (allocations.len() as f64 * sq)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_moments() {
        let mut s = OnlineStats::new();
        for v in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(v);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        // Population variance is 4.0; sample variance = 32/7.
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn online_stats_empty() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert!(s.min().is_nan());
    }

    #[test]
    fn online_stats_merge_matches_sequential() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = OnlineStats::new();
        for &v in &data {
            whole.record(v);
        }
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &v in &data[..37] {
            a.record(v);
        }
        for &v in &data[37..] {
            b.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
    }

    #[test]
    fn histogram_merge_matches_pooled() {
        let mut pooled = Histogram::new();
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in 1..=100 {
            pooled.record(v as f64);
            if v % 3 == 0 {
                a.record(v as f64);
            } else {
                b.record(v as f64);
            }
        }
        a.merge(&b);
        a.merge(&Histogram::new());
        assert_eq!(a.count(), pooled.count());
        assert_eq!(a.median(), pooled.median());
        assert_eq!(a.p95(), pooled.p95());
        assert_eq!(a.mean(), pooled.mean());
    }

    #[test]
    fn histogram_quantiles() {
        let mut h = Histogram::new();
        for v in 1..=100 {
            h.record(v as f64);
        }
        assert_eq!(h.median(), Some(50.5));
        assert!((h.quantile(0.95).unwrap() - 95.05).abs() < 1e-9);
        assert_eq!(h.quantile(0.0), Some(1.0));
        assert_eq!(h.quantile(1.0), Some(100.0));
        assert_eq!(h.mean(), Some(50.5));
        assert_eq!(Histogram::new().median(), None);
    }

    #[test]
    fn time_series_window() {
        let mut ts = TimeSeries::default();
        ts.push(SimTime::from_millis(100), 1);
        ts.push(SimTime::from_millis(600), 3);
        ts.push(SimTime::from_millis(1500), 10);
        assert_eq!(ts.window_mean(0, 1), Some(2.0));
        assert_eq!(ts.window_mean(1, 2), Some(10.0));
        assert_eq!(ts.window_mean(0, 2), Some(14.0 / 3.0));
        assert_eq!(ts.window_mean(5, 6), None);
        assert_eq!(ts.window_mean(1, 0), None);
    }

    #[test]
    fn samples_within_one_second_share_one_bucket() {
        let mut ts = TimeSeries::default();
        for i in 0..100_000u64 {
            ts.push(SimTime::from_nanos(i * 9_999), i);
        }
        assert_eq!(ts.seconds.len(), 1);
        assert_eq!(ts.seconds[0], ((0..100_000).sum(), 100_000));
        assert_eq!(ts.window_mean(0, 1), Some(49_999.5));
    }

    /// The series as a list of `(seconds, value)` points averaged by a
    /// scan: the representation [`TimeSeries`] replaced, kept as its oracle.
    #[derive(Default)]
    struct PointSeries {
        points: Vec<(f64, f64)>,
    }

    impl PointSeries {
        fn push(&mut self, t: SimTime, value: f64) {
            self.points.push((t.as_secs_f64(), value));
        }

        fn window_mean(&self, from: f64, to: f64) -> Option<f64> {
            let mut sum = 0.0;
            let mut n = 0usize;
            for &(t, v) in &self.points {
                if t >= from && t < to {
                    sum += v;
                    n += 1;
                }
            }
            if n == 0 {
                None
            } else {
                Some(sum / n as f64)
            }
        }
    }

    /// An instant in the first minute: on a second boundary, one
    /// nanosecond before one, or anywhere.
    fn instant() -> impl proptest::strategy::Strategy<Value = SimTime> {
        use proptest::strategy::Strategy;
        (0u8..3, 1u64..60, 0u64..60_000_000_000).prop_map(|(kind, k, nanos)| match kind {
            0 => SimTime::from_secs(k),
            1 => SimTime::from_nanos(k * 1_000_000_000 - 1),
            _ => SimTime::from_nanos(nanos),
        })
    }

    proptest::proptest! {
        /// Random integer samples up to 2³² at random instants, boundary
        /// ones included, pushed in time order: every whole-second window
        /// gives the point list's mean, bit for bit.
        #[test]
        fn window_mean_matches_the_point_list(
            mut samples in proptest::collection::vec((instant(), 0u64..=1 << 32), 0..400),
            windows in proptest::collection::vec((0u64..62, 0u64..62), 1..20),
        ) {
            samples.sort_by_key(|&(t, _)| t);
            let (mut series, mut points) = (TimeSeries::default(), PointSeries::default());
            for &(t, v) in &samples {
                series.push(t, v);
                points.push(t, v as f64);
            }
            for (from, to) in windows {
                let got = series.window_mean(from, to).map(f64::to_bits);
                let want = points.window_mean(from as f64, to as f64).map(f64::to_bits);
                proptest::prop_assert_eq!(got, want, "window [{}, {})", from, to);
            }
        }
    }

    #[test]
    fn rate_meter_buckets() {
        let mut m = RateMeter::new(SimDuration::from_millis(100));
        // 12_500 bytes in bucket 0 → 1 Mb/s over 100 ms.
        m.record(SimTime::from_millis(10), 6_250);
        m.record(SimTime::from_millis(90), 6_250);
        m.record(SimTime::from_millis(150), 25_000);
        assert!((m.mean_mbps(0.0, 0.1) - 1.0).abs() < 1e-9);
        assert!((m.mean_mbps(0.1, 0.2) - 2.0).abs() < 1e-9);
        assert!((m.mean_mbps(0.0, 0.2) - 1.5).abs() < 1e-9);
    }

    #[test]
    fn a_histogram_with_capacity_records_that_many_in_place() {
        let mut h = Histogram::with_capacity(313);
        let room = h.values.as_ptr();
        for i in 0..313 {
            h.record(f64::from(i));
        }
        assert_eq!((h.values.capacity(), h.values.as_ptr()), (313, room));
        assert_eq!(Histogram::with_capacity(0).values.capacity(), 0);
    }

    #[test]
    fn a_meter_with_a_horizon_has_a_bucket_up_to_it() {
        let bucket = SimDuration::from_millis(100);
        let mut m = RateMeter::with_horizon(bucket, SimTime::from_secs(2));
        assert_eq!(m.buckets.capacity(), 21);
        for ms in (0..=2_000).step_by(50) {
            m.record(SimTime::from_millis(ms), 1);
        }
        assert_eq!((m.buckets.len(), m.buckets.capacity()), (21, 21));
        let m = RateMeter::with_horizon(bucket, SimTime::from_nanos(99_999_999));
        assert_eq!(m.buckets.capacity(), 1);
    }

    #[test]
    fn jain_edge_cases() {
        assert_eq!(jain_index(&[]), 1.0);
        assert_eq!(jain_index(&[0.0, 0.0]), 1.0);
        assert!((jain_index(&[1.0, 0.0]) - 0.5).abs() < 1e-12);
    }
}
