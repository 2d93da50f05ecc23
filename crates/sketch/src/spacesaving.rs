//! SpaceSaving stream summary for approximate TOP-K / heavy hitters
//! (Metwally, Agrawal, El Abbadi — "Efficient Computation of Frequent and
//! Top-k Elements in Data Streams", ICDT 2005). ScrubQL's `TOP(k, expr)`
//! aggregate is backed by this structure (§3.2).
//!
//! The summary keeps `capacity` counters. When a new item arrives and all
//! counters are taken, the minimum counter is evicted and inherits its
//! count as the new item's error bound. Guarantees: any item with true
//! frequency `> N / capacity` is present, and each reported count
//! overestimates the true count by at most the recorded `error`.
//!
//! Every choice between counters of equal count — which one to evict,
//! which ones `top_k` and `merge` keep — falls to item order, so a summary
//! depends on its input stream alone, never on the hash map's iteration
//! order.

use std::collections::HashMap;
use std::hash::Hash;

use serde::{Deserialize, Serialize};

/// One monitored counter in the summary.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Counter<T> {
    /// The monitored item.
    pub item: T,
    /// Estimated count (upper bound on the true count).
    pub count: u64,
    /// Maximum overestimation: `count - error <= true <= count`.
    pub error: u64,
}

/// SpaceSaving summary over items of type `T`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SpaceSaving<T: Eq + Hash + Clone> {
    capacity: usize,
    /// item -> (count, error)
    counters: HashMap<T, (u64, u64)>,
    /// Total items observed.
    total: u64,
}

impl<T: Ord + Hash + Clone> SpaceSaving<T> {
    /// Create a summary with room for `capacity` counters. For a TOP-K
    /// query, a capacity of a few multiples of `k` gives good precision.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "SpaceSaving capacity must be positive");
        SpaceSaving {
            capacity,
            counters: HashMap::with_capacity(capacity + 1),
            total: 0,
        }
    }

    /// Observe one occurrence of `item`.
    pub fn offer(&mut self, item: T) {
        self.offer_n(item, 1);
    }

    /// Observe `n` occurrences of `item` at once.
    pub fn offer_n(&mut self, item: T, n: u64) {
        self.total += n;
        if let Some((c, _)) = self.counters.get_mut(&item) {
            *c += n;
            return;
        }
        if self.counters.len() < self.capacity {
            self.counters.insert(item, (n, 0));
            return;
        }
        // evict the minimum counter; of equal counts, the smallest item
        let (min_item, min_count) = self
            .counters
            .iter()
            .min_by(|(a, (ca, _)), (b, (cb, _))| ca.cmp(cb).then_with(|| a.cmp(b)))
            .map(|(k, (c, _))| (k.clone(), *c))
            .expect("counters non-empty at capacity");
        self.counters.remove(&min_item);
        self.counters.insert(item, (min_count + n, min_count));
    }

    /// Total number of observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of live counters.
    pub fn len(&self) -> usize {
        self.counters.len()
    }

    /// True if nothing was observed.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
    }

    /// The top `k` items by estimated count, descending. Ties broken by
    /// error (lower first), then by item order.
    pub fn top_k(&self, k: usize) -> Vec<Counter<T>> {
        let mut all: Vec<Counter<T>> = self
            .counters
            .iter()
            .map(|(item, (count, error))| Counter {
                item: item.clone(),
                count: *count,
                error: *error,
            })
            .collect();
        all.sort_by(|a, b| {
            b.count
                .cmp(&a.count)
                .then(a.error.cmp(&b.error))
                .then_with(|| a.item.cmp(&b.item))
        });
        all.truncate(k);
        all
    }

    /// Estimated count of `item` (0 if not monitored).
    pub fn estimate(&self, item: &T) -> u64 {
        self.counters.get(item).map(|(c, _)| *c).unwrap_or(0)
    }

    /// Merge another summary into this one (what `AggState::merge` does
    /// for TOP-K). The merged summary keeps this summary's capacity;
    /// guarantees degrade gracefully (errors add).
    pub fn merge(&mut self, other: &SpaceSaving<T>) {
        // Collect merged counts, then rebuild keeping the largest.
        let mut merged: HashMap<T, (u64, u64)> = self.counters.clone();
        for (item, (c, e)) in &other.counters {
            let entry = merged.entry(item.clone()).or_insert((0, 0));
            entry.0 += c;
            entry.1 += e;
        }
        if merged.len() > self.capacity {
            let mut all: Vec<(T, (u64, u64))> = merged.into_iter().collect();
            // the largest counts, of equal counts the smallest items
            all.sort_by(|(a, (ca, _)), (b, (cb, _))| cb.cmp(ca).then_with(|| a.cmp(b)));
            all.truncate(self.capacity);
            merged = all.into_iter().collect();
        }
        self.counters = merged;
        self.total += other.total;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_when_under_capacity() {
        let mut ss = SpaceSaving::new(10);
        for _ in 0..5 {
            ss.offer("a");
        }
        for _ in 0..3 {
            ss.offer("b");
        }
        ss.offer("c");
        let top = ss.top_k(3);
        assert_eq!(top[0].item, "a");
        assert_eq!(top[0].count, 5);
        assert_eq!(top[0].error, 0);
        assert_eq!(top[1].item, "b");
        assert_eq!(top[2].item, "c");
        assert_eq!(ss.total(), 9);
    }

    #[test]
    fn heavy_hitters_survive_eviction() {
        let mut ss = SpaceSaving::new(8);
        // heavy: 0 and 1, appearing far more than n/capacity
        for i in 0..1000u64 {
            ss.offer(i % 50); // uniform noise over 50 items
        }
        for _ in 0..500 {
            ss.offer(0u64);
            ss.offer(1u64);
        }
        let top: Vec<u64> = ss.top_k(2).into_iter().map(|c| c.item).collect();
        assert!(top.contains(&0));
        assert!(top.contains(&1));
    }

    #[test]
    fn count_is_overestimate_bounded_by_error() {
        let mut ss = SpaceSaving::new(4);
        let mut truth: HashMap<u32, u64> = HashMap::new();
        // deterministic skewed stream
        let stream: Vec<u32> = (0..2000u32).map(|i| (i * i % 23) % 11).collect();
        for &x in &stream {
            *truth.entry(x).or_insert(0) += 1;
            ss.offer(x);
        }
        for c in ss.top_k(4) {
            let t = truth[&c.item];
            assert!(c.count >= t, "count must upper-bound truth");
            assert!(
                c.count - c.error <= t,
                "count - error must lower-bound truth"
            );
        }
    }

    #[test]
    fn capacity_never_exceeded() {
        let mut ss = SpaceSaving::new(5);
        for i in 0..1000u32 {
            ss.offer(i);
        }
        assert_eq!(ss.len(), 5);
    }

    #[test]
    fn offer_n_bulk() {
        let mut ss = SpaceSaving::new(4);
        ss.offer_n("x", 100);
        ss.offer_n("y", 50);
        assert_eq!(ss.estimate(&"x"), 100);
        assert_eq!(ss.total(), 150);
    }

    #[test]
    fn merge_preserves_heavy_hitters() {
        let mut a = SpaceSaving::new(4);
        let mut b = SpaceSaving::new(4);
        a.offer_n("big", 1000);
        a.offer_n("m1", 10);
        b.offer_n("big", 500);
        b.offer_n("m2", 20);
        a.merge(&b);
        assert_eq!(a.estimate(&"big"), 1500);
        assert_eq!(a.total(), 1530);
        assert!(a.len() <= 4);
        assert_eq!(a.top_k(1)[0].item, "big");
    }

    /// Evictions at equal counts, and `top_k` over ties: the same stream
    /// into fresh summaries (each its own hash seed) gives the same answer.
    #[test]
    fn same_stream_same_top_k() {
        let stream: Vec<u64> = (0..5_000u64).map(|i| (i * i + 7 * i) % 97).collect();
        let top = || {
            let mut ss = SpaceSaving::new(10);
            stream.iter().for_each(|&x| ss.offer(x));
            let mut other = SpaceSaving::new(10);
            stream[..999].iter().for_each(|&x| other.offer(x));
            ss.merge(&other);
            ss.top_k(10)
        };
        let first = top();
        for _ in 0..15 {
            assert_eq!(top(), first);
        }
    }

    #[test]
    #[should_panic]
    fn zero_capacity_panics() {
        let _ = SpaceSaving::<u32>::new(0);
    }
}
