//! Virtual-object database with LRU cache and prefetching (§III-B).
//!
//! "In practice, in order to compute homography, a large database of real
//! world images are collected and used for feature matching. In such cases,
//! the MAR application cannot store all possible images […] due to limited
//! storage on the device." — the `x` of Eq. 2 is the share of requests the
//! device can serve locally; "caching and prefetching mechanisms can reduce
//! the network overhead".

use marnet_sim::time::SimDuration;
use rand::Rng;
use rand_chacha::ChaCha12Rng;
use std::collections::BTreeMap;

/// Identifier of a virtual object / reference image.
pub type ObjectId = u64;

/// An LRU cache over virtual objects, capacity in bytes.
#[derive(Debug)]
pub struct LruCache {
    capacity_bytes: u64,
    used_bytes: u64,
    /// Cached objects by last-use stamp: least recent first.
    order: BTreeMap<u64, ObjectId>,
    /// Each cached object's size and last-use stamp.
    sizes: BTreeMap<ObjectId, (u64, u64)>,
    /// The stamp the next use gets.
    next_stamp: u64,
    hits: u64,
    misses: u64,
}

impl LruCache {
    /// A cache of the given byte capacity.
    pub fn new(capacity_bytes: u64) -> Self {
        LruCache {
            capacity_bytes,
            used_bytes: 0,
            order: BTreeMap::new(),
            sizes: BTreeMap::new(),
            next_stamp: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Bytes currently cached.
    pub fn used_bytes(&self) -> u64 {
        self.used_bytes
    }

    /// Objects currently cached.
    pub fn len(&self) -> usize {
        self.sizes.len()
    }

    /// `true` if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.sizes.is_empty()
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cache misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Hit ratio (`1.0` before any access).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Makes the cached object `id` the most recent one.
    fn touch(&mut self, id: ObjectId) {
        if let Some((_, stamp)) = self.sizes.get_mut(&id) {
            self.order.remove(stamp);
            *stamp = self.next_stamp;
            self.order.insert(*stamp, id);
            self.next_stamp += 1;
        }
    }

    /// Looks an object up, updating recency and hit/miss counters.
    pub fn access(&mut self, id: ObjectId) -> bool {
        if self.sizes.contains_key(&id) {
            self.hits += 1;
            self.touch(id);
            true
        } else {
            self.misses += 1;
            false
        }
    }

    /// Inserts an object (after fetching it), evicting LRU entries to fit.
    /// Objects larger than the whole cache are not cached.
    pub fn insert(&mut self, id: ObjectId, bytes: u64) {
        if bytes > self.capacity_bytes {
            return;
        }
        if self.sizes.contains_key(&id) {
            self.touch(id);
            return;
        }
        while self.used_bytes + bytes > self.capacity_bytes {
            let Some((_, victim)) = self.order.pop_first() else {
                break;
            };
            if let Some((sz, _)) = self.sizes.remove(&victim) {
                self.used_bytes -= sz;
            }
        }
        self.sizes.insert(id, (bytes, self.next_stamp));
        self.order.insert(self.next_stamp, id);
        self.next_stamp += 1;
        self.used_bytes += bytes;
    }

    /// Inserts without counting as an access (prefetching).
    pub fn prefetch(&mut self, id: ObjectId, bytes: u64) {
        self.insert(id, bytes);
    }
}

/// A Zipf-ish request generator over `n` objects: requests concentrate on
/// popular objects, which is what makes caching effective for MAR browsers
/// (users look at the same landmarks).
#[derive(Debug)]
pub struct RequestGenerator {
    n: u64,
    skew: f64,
    rng: ChaCha12Rng,
    /// Spatial locality: probability the next request repeats the last.
    repeat_p: f64,
    last: Option<ObjectId>,
}

impl RequestGenerator {
    /// A generator over `n` objects with Zipf exponent `skew` and repeat
    /// probability `repeat_p`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or parameters are out of range.
    pub fn new(n: u64, skew: f64, repeat_p: f64, rng: ChaCha12Rng) -> Self {
        assert!(n > 0, "need at least one object");
        assert!(skew >= 0.0, "skew must be non-negative");
        assert!((0.0..=1.0).contains(&repeat_p), "repeat probability out of range");
        RequestGenerator { n, skew, rng, repeat_p, last: None }
    }

    /// Draws the next requested object.
    pub fn next_request(&mut self) -> ObjectId {
        if let Some(last) = self.last {
            if self.rng.gen_bool(self.repeat_p) {
                return last;
            }
        }
        // Inverse-power sampling: cheap approximate Zipf.
        let u: f64 = self.rng.gen_range(f64::EPSILON..1.0);
        let id = if self.skew <= 0.0 {
            self.rng.gen_range(0..self.n)
        } else {
            let x = u.powf(1.0 / (1.0 - (-self.skew).exp()).max(0.2));
            ((x * self.n as f64) as u64).min(self.n - 1)
        };
        self.last = Some(id);
        id
    }
}

/// Estimated per-frame DB overhead given a hit ratio — the network side of
/// Eq. 2 with `x` = measured hit ratio.
pub fn db_overhead_per_frame(
    requests_per_frame: f64,
    hit_ratio: f64,
    object_bytes: u64,
    downlink_bps: u64,
    rtt: SimDuration,
) -> SimDuration {
    let misses = requests_per_frame * (1.0 - hit_ratio.clamp(0.0, 1.0));
    if misses <= 0.0 {
        return SimDuration::ZERO;
    }
    let transfer =
        SimDuration::from_secs_f64(object_bytes as f64 * 8.0 / downlink_bps.max(1) as f64);
    (rtt + transfer).mul_f64(misses)
}

#[cfg(test)]
mod tests {
    use super::*;
    use marnet_sim::rng::derive_rng;

    #[test]
    fn lru_evicts_oldest() {
        let mut c = LruCache::new(300);
        c.insert(1, 100);
        c.insert(2, 100);
        c.insert(3, 100);
        assert_eq!(c.len(), 3);
        // Touch 1 so 2 becomes LRU.
        assert!(c.access(1));
        c.insert(4, 100);
        assert!(!c.access(2), "2 must have been evicted");
        assert!(c.access(1) && c.access(3) && c.access(4));
        assert_eq!(c.used_bytes(), 300);
    }

    #[test]
    fn oversized_objects_are_not_cached() {
        let mut c = LruCache::new(100);
        c.insert(1, 500);
        assert!(c.is_empty());
        assert!(!c.access(1));
    }

    #[test]
    fn hit_ratio_accounting() {
        let mut c = LruCache::new(1000);
        assert_eq!(c.hit_ratio(), 1.0);
        assert!(!c.access(7));
        c.insert(7, 10);
        assert!(c.access(7));
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
        assert_eq!(c.hit_ratio(), 0.5);
    }

    #[test]
    fn duplicate_insert_keeps_bytes_consistent() {
        let mut c = LruCache::new(1000);
        c.insert(1, 100);
        c.insert(1, 100);
        assert_eq!(c.used_bytes(), 100);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn skewed_requests_cache_well() {
        // With Zipf-ish traffic a small cache achieves a high hit ratio —
        // the paper's justification for caching/prefetching.
        let mut rng = derive_rng(5, "db");
        let mut gen = RequestGenerator::new(10_000, 1.2, 0.3, rng.clone());
        let mut cache = LruCache::new(200 * 50_000); // 200 objects of 50 KB
        for _ in 0..20_000 {
            let id = gen.next_request();
            if !cache.access(id) {
                cache.insert(id, 50_000);
            }
        }
        let skewed_ratio = cache.hit_ratio();
        assert!(skewed_ratio > 0.25, "skewed hit ratio {skewed_ratio}");

        // Uniform traffic over the same catalog caches poorly.
        let mut gen = RequestGenerator::new(10_000, 0.0, 0.0, {
            use rand_chacha::rand_core::SeedableRng;
            let _ = &mut rng;
            ChaCha12Rng::seed_from_u64(99)
        });
        let mut cache = LruCache::new(200 * 50_000);
        for _ in 0..20_000 {
            let id = gen.next_request();
            if !cache.access(id) {
                cache.insert(id, 50_000);
            }
        }
        assert!(
            cache.hit_ratio() < skewed_ratio,
            "uniform {} must cache worse than skewed {skewed_ratio}",
            cache.hit_ratio()
        );
    }

    #[test]
    fn repeat_probability_creates_locality() {
        let mut gen = RequestGenerator::new(1000, 0.0, 0.9, derive_rng(6, "db2"));
        let mut repeats = 0;
        let mut last = gen.next_request();
        for _ in 0..1000 {
            let id = gen.next_request();
            if id == last {
                repeats += 1;
            }
            last = id;
        }
        assert!(repeats > 800, "repeats {repeats}");
    }

    #[test]
    fn overhead_formula() {
        let o = db_overhead_per_frame(2.0, 0.5, 50_000, 10_000_000, SimDuration::from_millis(40));
        // 1 miss/frame × (40 ms + 40 ms transfer) = 80 ms.
        assert_eq!(o, SimDuration::from_millis(80));
        assert_eq!(
            db_overhead_per_frame(2.0, 1.0, 50_000, 10_000_000, SimDuration::from_millis(40)),
            SimDuration::ZERO
        );
    }
}
