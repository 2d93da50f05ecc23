//! Multi-resolution telemetry store: retention tiers over the metric
//! snapshot stream, with exemplar-linked rollups.
//!
//! A point-in-time snapshot answers "how many?"; troubleshooting needs
//! "when did it start?". [`TelemetryStore`] keeps three bounded tiers:
//!
//! * **raw** — a fixed-capacity ring of the newest periodic snapshots
//!   (old entries overwritten): full snapshots at snapshot resolution,
//!   per-tick deltas on demand — the tier `scrubql watch` charts and the
//!   alert engine reads.
//! * **mid** — one [`RolledPoint`] per metric per `mid_factor` raw
//!   intervals (default 10×).
//! * **coarse** — one point per `coarse_factor` raw intervals (default
//!   100×), so a bounded store covers runs two orders of magnitude
//!   longer than the raw ring.
//!
//! Rollup semantics are deterministic and kind-aware: **counter**
//! rollups aggregate the per-tick *deltas* covered by the bucket
//! (sum / min / max / mean); **gauge** rollups keep the last / min /
//! max / mean of the sampled *values*. Every rolled point remembers the
//! raw interval with the largest positive delta and carries an
//! **exemplar** — the trace rid of a traced request active in that
//! interval, resolved lazily by a caller-supplied closure exactly the
//! way alert provenance is — so `scrubql range` links a rolled-up spike
//! straight to `scrubql trace <rid>`.
//!
//! Determinism contract (the PR 9 discipline): rollups are pure
//! functions of the recorded snapshot sequence. Bucket boundaries are
//! counted in ticks from the first accepted snapshot, accumulation is
//! integer-only, and iteration order is `BTreeMap` order — so store
//! contents, [`TelemetryStore::render_range`] output and exemplar
//! choices are byte-identical across seeded runs. No registered metric
//! carries wall-clock time (per-operator timings live in each query's
//! `PlanProfile`), so the contract covers every series.
//! A snapshot that does not advance the sim clock is refused (the caller
//! counts it) rather than silently corrupting deltas. Memory is bounded
//! by the tier capacities, independent of run length.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;

use scrub_core::config::ScrubConfig;
use serde::{Deserialize, Serialize};

use crate::metrics::MetricsSnapshot;

/// One point of a metric's time series: the sim time and the value.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MetricPoint {
    /// Sim time (ms) of the snapshot.
    pub at_ms: i64,
    /// Metric value at that instant (counters as of, gauges as is).
    pub value: i64,
}

/// Which retention tier a read goes to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Resolution {
    /// The raw snapshot ring: per-tick values and deltas.
    Raw,
    /// Mid tier: one rolled point per `mid_factor` raw intervals.
    Mid,
    /// Coarse tier: one rolled point per `coarse_factor` raw intervals.
    Coarse,
}

impl Resolution {
    /// All resolutions, finest first.
    pub const ALL: [Resolution; 3] = [Resolution::Raw, Resolution::Mid, Resolution::Coarse];

    /// Stable lowercase name (`raw` / `mid` / `coarse`).
    pub fn as_str(self) -> &'static str {
        match self {
            Resolution::Raw => "raw",
            Resolution::Mid => "mid",
            Resolution::Coarse => "coarse",
        }
    }

    /// Parse the stable name back; `None` for anything else.
    pub fn parse(s: &str) -> Option<Resolution> {
        match s {
            "raw" => Some(Resolution::Raw),
            "mid" => Some(Resolution::Mid),
            "coarse" => Some(Resolution::Coarse),
            _ => None,
        }
    }
}

impl fmt::Display for Resolution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// How a metric's raw ticks fold into a rolled point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RollupKind {
    /// Monotone counter: aggregate the per-tick deltas.
    Counter,
    /// Instantaneous gauge: aggregate the sampled values.
    Gauge,
}

impl RollupKind {
    /// Stable lowercase name.
    pub fn as_str(self) -> &'static str {
        match self {
            RollupKind::Counter => "counter",
            RollupKind::Gauge => "gauge",
        }
    }
}

/// One downsampled point of a metric's series: the aggregate of the raw
/// intervals in `(start_ms, at_ms]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RolledPoint {
    /// Bucket start: sim time of the snapshot *before* the first raw
    /// interval covered (exclusive).
    pub start_ms: i64,
    /// Bucket end: sim time of the last snapshot covered (inclusive).
    pub at_ms: i64,
    /// How the point was folded (decides what min/max/mean range over).
    pub kind: RollupKind,
    /// Net change over the bucket (`last − first`); for counters this
    /// equals the sum of the per-tick deltas covered.
    pub delta: i64,
    /// Metric value at bucket end.
    pub last: i64,
    /// Counters: smallest per-tick delta. Gauges: smallest value.
    pub min: i64,
    /// Counters: largest per-tick delta. Gauges: largest value.
    pub max: i64,
    /// Mean (of deltas for counters, of values for gauges) in
    /// thousandths, truncated toward zero — integer-only so rollups are
    /// byte-stable.
    pub mean_milli: i64,
    /// Start of the raw interval with the largest positive delta
    /// (exclusive); 0 when no tick moved the metric up.
    pub max_from_ms: i64,
    /// End of that max-delta interval (inclusive); 0 when none.
    pub max_at_ms: i64,
    /// Trace rid of a traced request active in the max-delta interval,
    /// when the resolver found one — the link to `scrubql trace`.
    pub exemplar: Option<u64>,
}

/// Per-metric accumulation state for a tier's open bucket.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct Acc {
    kind: RollupKind,
    /// Value at bucket start (0 when the metric appeared mid-bucket —
    /// consistent with the raw tier's series, which reads absent metrics
    /// as 0).
    first: i64,
    last: i64,
    min: i64,
    max: i64,
    /// Counters: running sum of deltas. Gauges: running sum of values.
    sum: i64,
    /// Ticks folded so far (backfilled zeros included).
    n: u32,
    max_delta: i64,
    max_from_ms: i64,
    max_at_ms: i64,
}

impl Acc {
    /// Fresh accumulator; `backfill` ticks of implicit zeros cover the
    /// bucket prefix before the metric first appeared (in which case the
    /// bucket-start value is the implicit 0, not `v0`).
    fn new(kind: RollupKind, backfill: u32, v0: i64) -> Self {
        let (min, max) = if backfill > 0 {
            (0, 0)
        } else {
            (i64::MAX, i64::MIN)
        };
        Acc {
            kind,
            first: if backfill > 0 { 0 } else { v0 },
            last: 0,
            min,
            max,
            sum: 0,
            n: backfill,
            max_delta: 0,
            max_from_ms: 0,
            max_at_ms: 0,
        }
    }

    /// Fold one raw interval `(from_ms, to_ms]`: previous value `v0`,
    /// new value `v1`.
    fn step(&mut self, v0: i64, v1: i64, from_ms: i64, to_ms: i64) {
        let d = v1 - v0;
        let folded = match self.kind {
            RollupKind::Counter => d,
            RollupKind::Gauge => v1,
        };
        self.min = self.min.min(folded);
        self.max = self.max.max(folded);
        self.sum += folded;
        self.last = v1;
        self.n += 1;
        // Strictly-greater keeps the earliest max interval on ties —
        // a deterministic exemplar pick.
        if d > self.max_delta {
            self.max_delta = d;
            self.max_from_ms = from_ms;
            self.max_at_ms = to_ms;
        }
    }

    fn seal(&self, start_ms: i64, at_ms: i64, exemplar: Option<u64>) -> RolledPoint {
        let n = self.n.max(1) as i128;
        RolledPoint {
            start_ms,
            at_ms,
            kind: self.kind,
            delta: self.last - self.first,
            last: self.last,
            min: if self.min == i64::MAX { 0 } else { self.min },
            max: if self.max == i64::MIN { 0 } else { self.max },
            mean_milli: (self.sum as i128 * 1_000 / n) as i64,
            max_from_ms: self.max_from_ms,
            max_at_ms: self.max_at_ms,
            exemplar,
        }
    }
}

/// One downsampled tier: bounded per-metric rings of rolled points plus
/// the open bucket's accumulators.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct Tier {
    /// Raw intervals per bucket.
    factor: usize,
    /// Rolled points retained per metric.
    cap: usize,
    /// Raw intervals folded into the open bucket so far.
    ticks: usize,
    /// Open bucket start (sim time of the snapshot before its first
    /// interval).
    start_ms: i64,
    acc: BTreeMap<String, Acc>,
    series: BTreeMap<String, VecDeque<RolledPoint>>,
}

impl Tier {
    fn new(factor: usize, cap: usize) -> Self {
        Tier {
            factor: factor.max(2),
            cap: cap.max(2),
            ticks: 0,
            start_ms: 0,
            acc: BTreeMap::new(),
            series: BTreeMap::new(),
        }
    }

    /// Fold one raw interval; on bucket completion seal every metric's
    /// point, resolving exemplars through `resolve`.
    fn fold<F>(&mut self, prev: &MetricsSnapshot, snap: &MetricsSnapshot, mut resolve: F)
    where
        F: FnMut(&str, i64, i64) -> Option<u64>,
    {
        if self.ticks == 0 {
            self.start_ms = prev.at_ms;
        }
        let backfill = self.ticks as u32;
        for (name, &v1) in &snap.counters {
            let v0 = prev.counters.get(name).map(|&v| v as i64).unwrap_or(0);
            self.acc
                .entry(name.clone())
                .or_insert_with(|| Acc::new(RollupKind::Counter, backfill, v0))
                .step(v0, v1 as i64, prev.at_ms, snap.at_ms);
        }
        for (name, &v1) in &snap.gauges {
            let v0 = prev.gauges.get(name).copied().unwrap_or(0);
            self.acc
                .entry(name.clone())
                .or_insert_with(|| Acc::new(RollupKind::Gauge, backfill, v0))
                .step(v0, v1, prev.at_ms, snap.at_ms);
        }
        self.ticks += 1;
        if self.ticks < self.factor {
            return;
        }
        for (name, acc) in &self.acc {
            let exemplar = if acc.max_delta > 0 {
                resolve(name, acc.max_from_ms, acc.max_at_ms)
            } else {
                None
            };
            let ring = self.series.entry(name.clone()).or_default();
            if ring.len() == self.cap {
                ring.pop_front();
            }
            ring.push_back(acc.seal(self.start_ms, snap.at_ms, exemplar));
        }
        self.acc.clear();
        self.ticks = 0;
        self.start_ms = snap.at_ms;
    }

    fn points(&self, metric: &str) -> Vec<RolledPoint> {
        self.series
            .get(metric)
            .map(|r| r.iter().copied().collect())
            .unwrap_or_default()
    }

    fn covered_range(&self) -> Option<(i64, i64)> {
        let start = self
            .series
            .values()
            .filter_map(|r| r.front())
            .map(|p| p.start_ms)
            .min()?;
        let end = self
            .series
            .values()
            .filter_map(|r| r.back())
            .map(|p| p.at_ms)
            .max()?;
        Some((start, end))
    }
}

/// Raw ring of the default store: 240 snapshots, the last ~10 minutes at
/// central's 2.5 s advance tick.
pub const RAW_CAP: usize = 240;
/// Raw intervals per mid-tier bucket in the default store (~25 s).
pub const MID_FACTOR: usize = 10;
/// Raw intervals per coarse-tier bucket in the default store (~250 s), so
/// it covers runs two orders of magnitude longer than the raw ring.
pub const COARSE_FACTOR: usize = 100;
/// Rolled points retained per metric per tier in the default store:
/// memory stays bounded by `metrics × tiers × cap`, whatever the run
/// length.
pub const TIER_CAP: usize = 240;

/// The multi-resolution telemetry store: raw ring + mid + coarse tiers.
///
/// See the [module docs](self) for semantics. Feed it one snapshot per
/// observation tick via [`record_with`](Self::record_with) (or
/// [`record`](Self::record) when no exemplar resolver is available) and
/// read any tier back with an explicit [`Resolution`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TelemetryStore {
    /// The raw tier: the newest `raw_cap` snapshots, oldest first.
    raw: VecDeque<MetricsSnapshot>,
    raw_cap: usize,
    mid: Tier,
    coarse: Tier,
}

impl Default for TelemetryStore {
    /// ScrubCentral's store: [`RAW_CAP`], [`MID_FACTOR`],
    /// [`COARSE_FACTOR`] and [`TIER_CAP`].
    fn default() -> Self {
        Self::new(RAW_CAP, MID_FACTOR, COARSE_FACTOR, TIER_CAP)
    }
}

impl TelemetryStore {
    /// Store with a raw ring of `raw_cap` snapshots (min 2 — a ring that
    /// cannot hold two points has no deltas) and two rollup tiers of
    /// `mid_factor`× / `coarse_factor`× the snapshot interval, each
    /// retaining up to `tier_cap` rolled points per metric.
    pub fn new(raw_cap: usize, mid_factor: usize, coarse_factor: usize, tier_cap: usize) -> Self {
        TelemetryStore {
            raw: VecDeque::new(),
            raw_cap: raw_cap.max(2),
            mid: Tier::new(mid_factor, tier_cap),
            coarse: Tier::new(coarse_factor.max(mid_factor), tier_cap),
        }
    }

    /// The default store; no `ScrubConfig` field sizes it, and the
    /// argument is ignored.
    pub fn from_config(_config: &ScrubConfig) -> Self {
        Self::default()
    }

    /// Record a snapshot with no exemplar resolution (tests, tools).
    pub fn record(&mut self, snap: MetricsSnapshot) -> bool {
        self.record_with(snap, |_, _, _| None)
    }

    /// Record one periodic snapshot into the raw ring (evicting the
    /// oldest at capacity), folding its deltas into every rolled tier.
    /// `resolve(metric, from_ms, to_ms)` is called lazily — only when a
    /// bucket seals and only for metrics that moved up — and should
    /// return the trace rid of a traced request active in the raw
    /// interval `(from_ms, to_ms]`.
    ///
    /// Returns `false`, recording nothing, when `snap` does not advance
    /// the sim clock past the newest snapshot — late and equal-time
    /// snapshots alike — so every tier stays an exact aggregate of the
    /// accepted delta sequence.
    pub fn record_with<F>(&mut self, snap: MetricsSnapshot, mut resolve: F) -> bool
    where
        F: FnMut(&str, i64, i64) -> Option<u64>,
    {
        if let Some(prev) = self.raw.back() {
            if snap.at_ms <= prev.at_ms {
                return false;
            }
            self.mid.fold(prev, &snap, &mut resolve);
            self.coarse.fold(prev, &snap, &mut resolve);
        }
        if self.raw.len() == self.raw_cap {
            self.raw.pop_front();
        }
        self.raw.push_back(snap);
        true
    }

    /// The newest raw snapshot, if any.
    pub fn latest(&self) -> Option<&MetricsSnapshot> {
        self.raw.back()
    }

    /// Raw intervals folded per bucket at `res` (1 for raw).
    pub fn tier_factor(&self, res: Resolution) -> usize {
        match res {
            Resolution::Raw => 1,
            Resolution::Mid => self.mid.factor,
            Resolution::Coarse => self.coarse.factor,
        }
    }

    /// Metric names known to the store (from the newest raw snapshot),
    /// sorted.
    pub fn metric_names(&self) -> Vec<String> {
        let Some(snap) = self.latest() else {
            return Vec::new();
        };
        let mut names: Vec<String> = snap.counters.keys().cloned().collect();
        names.extend(snap.gauges.keys().cloned());
        names.sort();
        names
    }

    /// The value series of `metric` at `res` (rolled tiers report the
    /// bucket-end value), oldest to newest.
    pub fn series(&self, metric: &str, res: Resolution) -> Vec<MetricPoint> {
        match res {
            // snapshots that do not carry the metric yet report 0 — a
            // counter created mid-run starts its series at zero
            Resolution::Raw => self
                .raw
                .iter()
                .map(|s| MetricPoint {
                    at_ms: s.at_ms,
                    value: s
                        .counters
                        .get(metric)
                        .map(|&v| v as i64)
                        .or_else(|| s.gauges.get(metric).copied())
                        .unwrap_or(0),
                })
                .collect(),
            _ => self
                .points(metric, res)
                .iter()
                .map(|p| MetricPoint {
                    at_ms: p.at_ms,
                    value: p.last,
                })
                .collect(),
        }
    }

    /// The per-interval delta series of `metric` at `res` (raw: the
    /// increment per snapshot interval, timestamped at its end; rolled
    /// tiers: the net change per bucket), oldest to newest.
    pub fn deltas(&self, metric: &str, res: Resolution) -> Vec<MetricPoint> {
        self.points(metric, res)
            .iter()
            .map(|p| MetricPoint {
                at_ms: p.at_ms,
                value: p.delta,
            })
            .collect()
    }

    /// The rolled points of `metric` at `res`, oldest to newest. Raw
    /// deltas are synthesized into degenerate one-interval points (no
    /// exemplar) so callers can render any tier uniformly.
    pub fn points(&self, metric: &str, res: Resolution) -> Vec<RolledPoint> {
        match res {
            Resolution::Raw => {
                let series = self.series(metric, Resolution::Raw);
                let kind = self.kind_of(metric);
                series
                    .windows(2)
                    .map(|w| {
                        let d = w[1].value - w[0].value;
                        let folded = match kind {
                            RollupKind::Counter => d,
                            RollupKind::Gauge => w[1].value,
                        };
                        RolledPoint {
                            start_ms: w[0].at_ms,
                            at_ms: w[1].at_ms,
                            kind,
                            delta: d,
                            last: w[1].value,
                            min: folded,
                            max: folded,
                            mean_milli: folded * 1_000,
                            max_from_ms: if d > 0 { w[0].at_ms } else { 0 },
                            max_at_ms: if d > 0 { w[1].at_ms } else { 0 },
                            exemplar: None,
                        }
                    })
                    .collect()
            }
            Resolution::Mid => self.mid.points(metric),
            Resolution::Coarse => self.coarse.points(metric),
        }
    }

    /// Sim-time span `(start, end]` covered by the tier at `res`
    /// (oldest bucket start to newest bucket end, across all metrics);
    /// `None` while empty.
    pub fn covered_range(&self, res: Resolution) -> Option<(i64, i64)> {
        match res {
            Resolution::Raw => Some((self.raw.front()?.at_ms, self.raw.back()?.at_ms)),
            Resolution::Mid => self.mid.covered_range(),
            Resolution::Coarse => self.coarse.covered_range(),
        }
    }

    /// The classic-kind of `metric` in the newest snapshot (gauge wins
    /// only when no counter of that name exists; unknown names read as
    /// counters, matching the zero-series convention).
    fn kind_of(&self, metric: &str) -> RollupKind {
        match self.latest() {
            Some(s) if !s.counters.contains_key(metric) && s.gauges.contains_key(metric) => {
                RollupKind::Gauge
            }
            _ => RollupKind::Counter,
        }
    }

    /// Byte-stable text render of `metric`'s series at `res`, points at
    /// or after `since` (sim ms) only. The shared renderer behind
    /// `scrubql range`, experiment artifacts and the golden tests —
    /// identical across seeded runs.
    pub fn render_range(&self, metric: &str, res: Resolution, since: Option<i64>) -> String {
        let mut out = String::new();
        let points = self.points(metric, res);
        let shown: Vec<&RolledPoint> = points
            .iter()
            .filter(|p| since.is_none_or(|s| p.at_ms >= s))
            .collect();
        let cover = match self.covered_range(res) {
            Some((a, b)) => format!("[{a} ms, {b} ms]"),
            None => "[empty]".to_string(),
        };
        out.push_str(&format!(
            "range {metric} res={res} bucket={}x cover={cover} points={}\n",
            self.tier_factor(res),
            shown.len(),
        ));
        if shown.is_empty() {
            out.push_str("  (no points)\n");
            return out;
        }
        out.push_str(&format!(
            "  {:>10} {:>10} {:>12} {:>10} {:>10} {:>12}  {}\n",
            "end_ms", "delta", "last", "min", "max", "mean", "exemplar"
        ));
        for p in shown {
            let ex = match p.exemplar {
                Some(rid) => format!("rid={rid}"),
                None => "-".to_string(),
            };
            out.push_str(&format!(
                "  {:>10} {:>10} {:>12} {:>10} {:>10} {:>12}  {}\n",
                p.at_ms,
                p.delta,
                p.last,
                p.min,
                p.max,
                fmt_milli(p.mean_milli),
                ex,
            ));
        }
        out
    }
}

/// Render a thousandths-scaled integer as a fixed 3-decimal number
/// (`1500` → `1.500`, `-250` → `-0.250`) — byte-stable, no float.
fn fmt_milli(milli: i64) -> String {
    let sign = if milli < 0 { "-" } else { "" };
    let abs = milli.unsigned_abs();
    format!("{sign}{}.{:03}", abs / 1_000, abs % 1_000)
}

/// Render a value series as a unicode sparkline (one block glyph per
/// point, scaled to the series max; negative values clamp to the
/// baseline). Deterministic pure-text output for `scrubql watch` and
/// experiment tables.
pub fn sparkline(values: &[i64]) -> String {
    const GLYPHS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = values.iter().copied().max().unwrap_or(0).max(1);
    values
        .iter()
        .map(|&v| {
            let v = v.max(0);
            // 0 maps to the lowest glyph, max to the highest
            let idx = ((v as u128 * (GLYPHS.len() as u128 - 1)).div_ceil(max as u128)) as usize;
            GLYPHS[idx.min(GLYPHS.len() - 1)]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_default_store_has_the_default_tiers() {
        let t = TelemetryStore::default();
        assert_eq!(t.raw_cap, 240);
        assert_eq!(t.tier_factor(Resolution::Mid), 10);
        assert_eq!(t.tier_factor(Resolution::Coarse), 100);
        assert_eq!((t.mid.cap, t.coarse.cap), (240, 240));
    }

    fn snap(at_ms: i64, c: u64, g: i64) -> MetricsSnapshot {
        let mut s = MetricsSnapshot {
            at_ms,
            ..Default::default()
        };
        s.counters.insert("c".into(), c);
        s.gauges.insert("g".into(), g);
        s
    }

    /// 5 ticks after the baseline → one mid bucket (factor 5).
    fn filled_store() -> TelemetryStore {
        let mut t = TelemetryStore::new(64, 5, 10, 8);
        // counter deltas: 4, 1, 10, 2, 3 — gauge values: 7, -2, 9, 9, 4
        let cs = [0u64, 4, 5, 15, 17, 20];
        let gs = [3i64, 7, -2, 9, 9, 4];
        for (i, (&c, &g)) in cs.iter().zip(gs.iter()).enumerate() {
            assert!(t.record(snap(i as i64 * 1_000, c, g)));
        }
        t
    }

    #[test]
    fn counter_rollup_aggregates_deltas() {
        let t = filled_store();
        let pts = t.points("c", Resolution::Mid);
        assert_eq!(pts.len(), 1);
        let p = pts[0];
        assert_eq!(p.kind, RollupKind::Counter);
        assert_eq!((p.start_ms, p.at_ms), (0, 5_000));
        assert_eq!(p.delta, 20); // sum of deltas = last − first
        assert_eq!(p.last, 20);
        assert_eq!((p.min, p.max), (1, 10));
        assert_eq!(p.mean_milli, 4_000); // 20 / 5 ticks
        assert_eq!((p.max_from_ms, p.max_at_ms), (2_000, 3_000));
    }

    #[test]
    fn gauge_rollup_keeps_last_min_max_mean() {
        let t = filled_store();
        let p = t.points("g", Resolution::Mid)[0];
        assert_eq!(p.kind, RollupKind::Gauge);
        assert_eq!(p.last, 4);
        assert_eq!((p.min, p.max), (-2, 9));
        assert_eq!(p.mean_milli, 5_400); // (7 − 2 + 9 + 9 + 4) / 5 = 5.4
        assert_eq!(p.delta, 4 - 3); // last − value at bucket start
                                    // largest positive step was −2 → 9 at t=3000
        assert_eq!((p.max_from_ms, p.max_at_ms), (2_000, 3_000));
    }

    #[test]
    fn out_of_order_and_equal_time_snapshots_are_dropped() {
        let mut t = TelemetryStore::new(8, 2, 4, 4);
        assert!(t.record(snap(1_000, 1, 0)));
        assert!(!t.record(snap(500, 9, 0))); // late
        assert!(!t.record(snap(1_000, 9, 0))); // equal time
        assert!(t.record(snap(2_000, 3, 0)));
        // the dropped snapshots left no trace in the raw tier
        assert_eq!(t.series("c", Resolution::Raw).len(), 2);
        assert_eq!(t.latest().unwrap().counters["c"], 3);
        assert_eq!(t.deltas("c", Resolution::Raw)[0].value, 2);
    }

    #[test]
    fn refused_snapshots_leave_every_tier_unchanged() {
        let mut clean = TelemetryStore::new(4, 2, 4, 4);
        let mut noisy = clean.clone();
        let mut resolved = 0;
        for i in 0..12i64 {
            let s = snap(i * 1_000, (i * i) as u64, -i);
            assert!(clean.record(s.clone()));
            assert!(noisy.record(s));
            // a late and an equal-time snapshot after every accepted one
            for at_ms in [i * 1_000 - 500, i * 1_000] {
                assert!(!noisy.record_with(snap(at_ms, 999, 999), |_, _, _| {
                    resolved += 1;
                    Some(7)
                }));
            }
        }
        assert_eq!(resolved, 0, "a refused snapshot resolves no exemplar");
        // mid and coarse buckets sealed along the way, and match exactly
        assert!(!noisy.points("c", Resolution::Coarse).is_empty());
        assert_eq!(noisy, clean);
    }

    #[test]
    fn raw_ring_evicts_oldest_at_capacity() {
        let mut t = TelemetryStore::new(3, 10, 100, 8);
        for i in 0..5 {
            t.record(snap(i * 1_000, i as u64, 0));
        }
        let times: Vec<i64> = t
            .series("c", Resolution::Raw)
            .iter()
            .map(|p| p.at_ms)
            .collect();
        assert_eq!(times, vec![2_000, 3_000, 4_000]);
        assert_eq!(t.latest().unwrap().at_ms, 4_000);
        assert_eq!(t.covered_range(Resolution::Raw), Some((2_000, 4_000)));
    }

    #[test]
    fn tiers_are_bounded_and_cover_more_than_raw() {
        let mut t = TelemetryStore::new(4, 2, 4, 3);
        for i in 0..40 {
            t.record(snap(i * 1_000, (i * 2) as u64, i));
        }
        // raw ring holds 4 snapshots; tier rings hold ≤ cap points per
        // metric, however long the run
        assert_eq!(t.series("c", Resolution::Raw).len(), 4);
        for m in ["c", "g"] {
            assert!(t.points(m, Resolution::Mid).len() <= 3);
            assert!(t.points(m, Resolution::Coarse).len() <= 3);
        }
        let (raw_a, raw_b) = t.covered_range(Resolution::Raw).unwrap();
        let (co_a, co_b) = t.covered_range(Resolution::Coarse).unwrap();
        assert!(
            co_b - co_a > raw_b - raw_a,
            "coarse tier spans further back"
        );
    }

    #[test]
    fn metric_appearing_mid_bucket_backfills_zeros() {
        let mut t = TelemetryStore::new(16, 4, 8, 4);
        t.record(snap(0, 0, 0));
        t.record(snap(1_000, 5, 0));
        t.record(snap(2_000, 5, 0));
        // "late" appears at tick 3 of 4
        let mut s = snap(3_000, 6, 0);
        s.counters.insert("late".into(), 7);
        t.record(s);
        let mut s = snap(4_000, 8, 0);
        s.counters.insert("late".into(), 7);
        t.record(s);
        let p = t.points("late", Resolution::Mid)[0];
        // deltas seen: 0 (backfill), 0 (backfill), 7, 0
        assert_eq!(p.delta, 7);
        assert_eq!((p.min, p.max), (0, 7));
        assert_eq!(p.mean_milli, 1_750);
    }

    #[test]
    fn exemplar_resolver_gets_the_max_delta_interval() {
        let mut t = TelemetryStore::new(16, 3, 6, 4);
        let mut calls: Vec<(String, i64, i64)> = Vec::new();
        let cs = [0u64, 1, 9, 10];
        for (i, &c) in cs.iter().enumerate() {
            t.record_with(snap(i as i64 * 1_000, c, 0), |m, a, b| {
                calls.push((m.to_string(), a, b));
                Some(42)
            });
        }
        let p = t.points("c", Resolution::Mid)[0];
        assert_eq!(p.exemplar, Some(42));
        assert_eq!((p.max_from_ms, p.max_at_ms), (1_000, 2_000));
        // called once for the counter (the flat gauge never moved up)
        assert_eq!(calls, vec![("c".to_string(), 1_000, 2_000)]);
    }

    #[test]
    fn series_and_deltas_read_through_resolutions() {
        let t = filled_store();
        assert_eq!(t.series("c", Resolution::Raw).len(), 6);
        assert_eq!(t.deltas("c", Resolution::Raw).len(), 5);
        let mid = t.deltas("c", Resolution::Mid);
        assert_eq!(mid.len(), 1);
        assert_eq!((mid[0].at_ms, mid[0].value), (5_000, 20));
        assert_eq!(t.series("g", Resolution::Mid)[0].value, 4);
        // coarse bucket (10 ticks) has not sealed yet
        assert!(t.deltas("c", Resolution::Coarse).is_empty());
    }

    #[test]
    fn series_and_deltas_cover_counters_and_gauges() {
        let mut t = TelemetryStore::new(8, 10, 100, 8);
        t.record(snap(0, 0, 10));
        t.record(snap(1_000, 4, 7));
        t.record(snap(2_000, 9, 12));
        let values = |pts: Vec<MetricPoint>| pts.iter().map(|p| p.value).collect::<Vec<_>>();
        assert_eq!(values(t.series("c", Resolution::Raw)), vec![0, 4, 9]);
        let d = t.deltas("c", Resolution::Raw);
        assert_eq!(
            d.iter().map(|p| p.at_ms).collect::<Vec<_>>(),
            vec![1_000, 2_000]
        );
        assert_eq!(values(d), vec![4, 5]);
        // gauges can go down
        assert_eq!(values(t.deltas("g", Resolution::Raw)), vec![-3, 5]);
        // unknown metric: all zeros, not a panic
        assert!(t
            .deltas("nope", Resolution::Raw)
            .iter()
            .all(|p| p.value == 0));
    }

    #[test]
    fn sparkline_is_deterministic_and_scaled() {
        assert_eq!(sparkline(&[]), "");
        assert_eq!(sparkline(&[0, 0]), "▁▁");
        let line = sparkline(&[0, 1, 4, 8]);
        assert_eq!(line.chars().count(), 4);
        assert!(line.starts_with('▁'));
        assert!(line.ends_with('█'));
        // negative values clamp to baseline rather than panicking
        assert_eq!(sparkline(&[-5, 10]).chars().next(), Some('▁'));
        // stable across calls
        assert_eq!(sparkline(&[3, 1, 2]), sparkline(&[3, 1, 2]));
    }

    #[test]
    fn render_range_is_byte_stable_and_filters_since() {
        let t = filled_store();
        let a = t.render_range("c", Resolution::Mid, None);
        let b = t.render_range("c", Resolution::Mid, None);
        assert_eq!(a, b);
        assert!(a.starts_with("range c res=mid bucket=5x cover=[0 ms, 5000 ms] points=1"));
        assert!(a.contains("4.000")); // mean delta
        let empty = t.render_range("c", Resolution::Mid, Some(9_000));
        assert!(empty.contains("points=0"));
        assert!(empty.contains("(no points)"));
        let raw = t.render_range("c", Resolution::Raw, Some(4_000));
        assert!(raw.contains("points=2"));
    }

    #[test]
    fn store_serialization_round_trips() {
        let t = filled_store();
        let json = serde_json::to_string(&t).unwrap();
        let back: TelemetryStore = serde_json::from_str(&json).unwrap();
        assert_eq!(t, back);
        // byte-stable serialization: BTreeMap ordering makes re-encoding
        // deterministic
        assert_eq!(json, serde_json::to_string(&back).unwrap());
    }

    #[test]
    fn fmt_milli_renders_fixed_decimals() {
        assert_eq!(fmt_milli(0), "0.000");
        assert_eq!(fmt_milli(1_500), "1.500");
        assert_eq!(fmt_milli(-250), "-0.250");
        assert_eq!(fmt_milli(-12_345), "-12.345");
    }
}
