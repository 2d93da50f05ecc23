//! Lock-light metrics: counters, gauges and fixed-bucket histograms.
//!
//! The update path is a single relaxed atomic RMW on a pre-fetched
//! `Arc` handle — no lock, no allocation, no branch on registry state.
//! The [`Registry`] mutex guards only metric *creation* and snapshotting,
//! both of which happen off the hot path (node start-up, `stats`
//! commands, experiment epilogues). Everything snapshotted is plain
//! serde-able data so per-node snapshots can be merged into cluster
//! totals and diffed across sim-clock instants.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

/// A monotone counter (relaxed atomics; mergeable by addition).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// New counter at zero.
    pub fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can go up and down (e.g. acks pending).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// New gauge at zero.
    pub fn new() -> Self {
        Gauge(AtomicI64::new(0))
    }

    /// Overwrite the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Add (possibly negative) `d`.
    #[inline]
    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Default histogram bucket upper bounds (ms): exponential 1..~16s.
/// Chosen for latencies on the sim clock; the final implicit bucket is
/// `+inf`.
pub const DEFAULT_LATENCY_BOUNDS_MS: &[i64] = &[
    1, 2, 5, 10, 25, 50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 16_000,
];

/// A fixed-bucket histogram with atomic bucket counts.
///
/// Buckets are defined by sorted upper bounds; a sample lands in the
/// first bucket whose bound is `>= sample`, or the implicit overflow
/// bucket. Recording is lock-free (two relaxed RMWs plus a short scan of
/// a ~15-entry bounds array).
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<i64>,
    /// One slot per bound plus the overflow bucket.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
}

impl Histogram {
    /// Histogram with the default latency bounds.
    pub fn new() -> Self {
        Self::with_bounds(DEFAULT_LATENCY_BOUNDS_MS)
    }

    /// Histogram with custom sorted upper bounds.
    fn with_bounds(bounds: &[i64]) -> Self {
        debug_assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "bounds must be sorted"
        );
        Histogram {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Record one sample (negative samples clamp to zero).
    #[inline]
    pub fn record(&self, v: i64) {
        let v = v.max(0);
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v as u64, Ordering::Relaxed);
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Plain-data snapshot (relaxed loads; counters only grow).
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            dropped_merges: 0,
        }
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Plain-old-data snapshot of a [`Histogram`]; mergeable bucket-wise.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Sorted bucket upper bounds; one extra overflow bucket follows.
    pub bounds: Vec<i64>,
    /// Per-bucket sample counts (`bounds.len() + 1` entries).
    pub buckets: Vec<u64>,
    /// Total samples.
    pub count: u64,
    /// Sum of (clamped) samples.
    pub sum: u64,
    /// Merges skipped because the other side had different bucket
    /// bounds (see [`HistogramSnapshot::merge`]); nonzero means `count`
    /// and the quantiles undercount the true totals.
    #[serde(default)]
    pub dropped_merges: u64,
}

impl HistogramSnapshot {
    /// Estimated quantile `q in [0,1]`: the upper bound of the bucket
    /// holding the q-th sample (`None` when empty). The overflow bucket
    /// reports the largest finite bound.
    pub fn quantile(&self, q: f64) -> Option<i64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(match self.bounds.get(i) {
                    Some(&b) => b,
                    None => self.bounds.last().copied().unwrap_or(i64::MAX),
                });
            }
        }
        self.bounds.last().copied()
    }

    /// Median estimate.
    pub fn p50(&self) -> Option<i64> {
        self.quantile(0.50)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> Option<i64> {
        self.quantile(0.99)
    }

    /// Mean of recorded samples.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Merge `other` into `self` bucket-wise. An empty side adopts the
    /// other's shape. Both sides normally share the same bounds (all
    /// Scrub histograms of a given name do); if they differ — e.g. a
    /// node on an older build with different bucketing — the buckets
    /// cannot be combined meaningfully, so the merge is **skipped** and
    /// counted in [`HistogramSnapshot::dropped_merges`] instead of
    /// panicking or silently corrupting quantiles. Readers surface a
    /// nonzero `dropped_merges` as a data-quality warning.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if self.bounds.is_empty() {
            let dropped = self.dropped_merges;
            *self = other.clone();
            self.dropped_merges += dropped;
            return;
        }
        if other.bounds.is_empty() {
            self.dropped_merges += other.dropped_merges;
            return;
        }
        if self.bounds != other.bounds {
            self.dropped_merges += 1;
            return;
        }
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.dropped_merges += other.dropped_merges;
    }
}

enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// A named collection of metrics.
///
/// `counter`/`gauge`/`histogram` get-or-create a handle; callers cache
/// the `Arc` and update it lock-free. The internal mutex is only taken
/// on creation and snapshot.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<BTreeMap<String, Metric>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("metrics", &self.inner.lock().len())
            .finish()
    }
}

impl Registry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or create the counter `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut inner = self.inner.lock();
        match inner
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::new())))
        {
            Metric::Counter(c) => c.clone(),
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// Get or create the gauge `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut inner = self.inner.lock();
        match inner
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Arc::new(Gauge::new())))
        {
            Metric::Gauge(g) => g.clone(),
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// Get or create the histogram `name` (default latency bounds).
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.histogram_with(name, DEFAULT_LATENCY_BOUNDS_MS)
    }

    /// Get or create the histogram `name` with custom bounds (bounds are
    /// only applied on creation).
    pub(crate) fn histogram_with(&self, name: &str, bounds: &[i64]) -> Arc<Histogram> {
        let mut inner = self.inner.lock();
        match inner
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::with_bounds(bounds))))
        {
            Metric::Histogram(h) => h.clone(),
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// Prometheus-style text exposition of every metric (stable sorted
    /// output; see [`crate::export::render_text`]).
    pub fn render_text(&self, at_ms: i64) -> String {
        crate::export::render_text(&self.snapshot(at_ms))
    }

    /// Snapshot every metric at sim-time `at_ms`.
    pub fn snapshot(&self, at_ms: i64) -> MetricsSnapshot {
        let inner = self.inner.lock();
        let mut snap = MetricsSnapshot {
            at_ms,
            ..MetricsSnapshot::default()
        };
        for (name, metric) in inner.iter() {
            match metric {
                Metric::Counter(c) => {
                    snap.counters.insert(name.clone(), c.get());
                }
                Metric::Gauge(g) => {
                    snap.gauges.insert(name.clone(), g.get());
                }
                Metric::Histogram(h) => {
                    snap.histograms.insert(name.clone(), h.snapshot());
                }
            }
        }
        snap
    }
}

/// Plain-data snapshot of a [`Registry`]: mergeable across nodes and
/// diffable across sim-clock instants.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Sim time (ms) the snapshot was taken.
    pub at_ms: i64,
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Merge another node's snapshot into this one: counters and
    /// histograms add, gauges add (cluster totals), the timestamp keeps
    /// the later instant.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        self.at_ms = self.at_ms.max(other.at_ms);
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            *self.gauges.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(v);
        }
    }

    /// Counter value by name (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Difference of two snapshots over time on the *same* registry
    /// (`self` later): counters and histogram buckets subtract, gauges
    /// keep the later value.
    pub fn since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let mut out = self.clone();
        for (k, v) in &earlier.counters {
            if let Some(c) = out.counters.get_mut(k) {
                *c = c.saturating_sub(*v);
            }
        }
        for (k, v) in &earlier.histograms {
            if let Some(h) = out.histograms.get_mut(k) {
                if h.bounds == v.bounds {
                    for (a, b) in h.buckets.iter_mut().zip(&v.buckets) {
                        *a = a.saturating_sub(*b);
                    }
                    h.count = h.count.saturating_sub(v.count);
                    h.sum = h.sum.saturating_sub(v.sum);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let r = Registry::new();
        let c = r.counter("batches");
        c.inc();
        c.add(4);
        let g = r.gauge("pending");
        g.set(7);
        g.add(-2);
        // get-or-create returns the same handle
        r.counter("batches").add(5);
        let snap = r.snapshot(1_000);
        assert_eq!(snap.counter("batches"), 10);
        assert_eq!(snap.gauges["pending"], 5);
        assert_eq!(snap.at_ms, 1_000);
    }

    #[test]
    fn histogram_quantiles_land_in_right_bucket() {
        let h = Histogram::with_bounds(&[10, 100, 1_000]);
        for _ in 0..98 {
            h.record(5);
        }
        h.record(50);
        h.record(500);
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.p50(), Some(10));
        assert_eq!(s.p99(), Some(100));
        assert_eq!(s.quantile(1.0), Some(1_000));
        assert_eq!(s.buckets, vec![98, 1, 1, 0]);
    }

    #[test]
    fn histogram_overflow_and_negative_clamp() {
        let h = Histogram::with_bounds(&[10]);
        h.record(-5); // clamps to 0 -> first bucket
        h.record(1_000_000); // overflow bucket
        let s = h.snapshot();
        assert_eq!(s.buckets, vec![1, 1]);
        assert_eq!(s.p50(), Some(10));
    }

    #[test]
    fn snapshots_merge_and_diff() {
        let r1 = Registry::new();
        r1.counter("x").add(3);
        r1.histogram_with("lat", &[10, 100]).record(50);
        let r2 = Registry::new();
        r2.counter("x").add(4);
        r2.gauge("g").set(2);
        r2.histogram_with("lat", &[10, 100]).record(5);

        let mut merged = r1.snapshot(500);
        merged.merge(&r2.snapshot(800));
        assert_eq!(merged.counter("x"), 7);
        assert_eq!(merged.gauges["g"], 2);
        assert_eq!(merged.histograms["lat"].count, 2);
        assert_eq!(merged.at_ms, 800);

        let before = r1.snapshot(100);
        r1.counter("x").add(10);
        let diff = r1.snapshot(200).since(&before);
        assert_eq!(diff.counter("x"), 10);
    }

    #[test]
    fn merge_empty_sides_adopt_shape() {
        // both empty: stays empty
        let mut a = HistogramSnapshot::default();
        a.merge(&HistogramSnapshot::default());
        assert_eq!(a, HistogramSnapshot::default());
        // empty left adopts right's shape wholesale
        let full = Histogram::with_bounds(&[10, 100]);
        full.record(5);
        let mut a = HistogramSnapshot::default();
        a.merge(&full.snapshot());
        assert_eq!(a, full.snapshot());
        // empty right leaves left untouched
        let mut b = full.snapshot();
        b.merge(&HistogramSnapshot::default());
        assert_eq!(b, full.snapshot());
        assert_eq!(b.dropped_merges, 0);
    }

    #[test]
    fn merge_mismatched_bounds_skips_and_counts() {
        let left = Histogram::with_bounds(&[10, 100]);
        left.record(5);
        let right = Histogram::with_bounds(&[1, 2, 3]);
        right.record(2);
        let mut a = left.snapshot();
        a.merge(&right.snapshot());
        // left's data is intact, not corrupted by foreign buckets
        assert_eq!(a.count, 1);
        assert_eq!(a.buckets, vec![1, 0, 0]);
        assert_eq!(a.dropped_merges, 1);
        // repeated mismatches accumulate
        a.merge(&right.snapshot());
        assert_eq!(a.dropped_merges, 2);
        // the counter survives further compatible merges and
        // adoption-by-empty
        a.merge(&left.snapshot());
        assert_eq!(a.count, 2);
        assert_eq!(a.dropped_merges, 2);
        let mut empty = HistogramSnapshot::default();
        empty.merge(&a);
        assert_eq!(empty.dropped_merges, 2);
    }

    #[test]
    fn snapshot_serializes() {
        let r = Registry::new();
        r.counter("a").inc();
        r.histogram("h").record(3);
        let s = r.snapshot(42);
        let json = serde_json::to_string(&s).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }
}
