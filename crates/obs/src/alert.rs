//! Deterministic alert engine over the telemetry store's raw tier.
//!
//! Pull-only telemetry leaves the operator to notice trouble; the alert
//! engine reads the [`TelemetryStore`]'s raw tier (explicitly, at
//! [`Resolution::Raw`]) at every snapshot tick and turns
//! metric movement into a bounded, byte-stable log of fired/cleared
//! events with provenance links back to the evidence (query, host,
//! ledger column, trace rid). Three rule kinds cover the known failure
//! modes:
//!
//! * [`RuleKind::Threshold`] — the instantaneous value is at or above a
//!   floor (gauges: `central.hosts_suspected >= 1` means a host went
//!   silent).
//! * [`RuleKind::Delta`] — the last per-interval increment is at or
//!   above a floor (counters: "retransmits happened this tick").
//! * [`RuleKind::Burn`] — the summed increments over the newest *N*
//!   intervals are at or above a budget (sustained shedding rather
//!   than a one-tick blip).
//!
//! Hysteresis: a rule's condition must hold for `for_ticks` consecutive
//! evaluations before it fires, and must be false for `clear_ticks`
//! consecutive evaluations before it clears — flapping metrics produce
//! one fired/cleared pair, not a storm.
//!
//! On top of the explicit rules, an [`AnomalyDetector`] dogfoods Scrub's
//! own estimator ([`Welford`], the same streaming mean/variance used by
//! the two-stage sampler): it maintains a per-metric baseline over
//! raw-tier deltas and flags z-score excursions once warmed up. Scrub
//! literally scrubs itself.
//!
//! Everything here is driven by sim time and the seeded run: evaluated
//! over the same history, the engine emits the same events in the same
//! order — alerts obey the same determinism contract as the loss ledger
//! and must fire identically on every run of a seed (enforced by the
//! golden tests). Rules should therefore only watch metrics that are
//! themselves deterministic per tick (not `_ns` wall-clock values).
//!
//! The health plane has no knobs: the rules ([`default_rules`]), the
//! anomaly watchlist, the hysteresis and the log cap are the constants
//! below, the same in every deployment, experiment and benchmark.

use std::collections::{BTreeMap, VecDeque};

use scrub_core::config::ScrubConfig;
use scrub_sketch::Welford;
use serde::{Deserialize, Serialize};

use crate::tsdb::{Resolution, TelemetryStore};

/// Capacity of the bounded alert log (oldest evicted and counted).
const ALERT_LOG_CAP: usize = 256;
/// Consecutive true evaluations before a default rule fires.
const ALERT_FOR_TICKS: u32 = 1;
/// Consecutive false evaluations before a firing default rule clears.
const ALERT_CLEAR_TICKS: u32 = 2;
/// Anomaly bound: a per-interval delta this many σ from the baseline flags.
const ANOMALY_Z: f64 = 6.0;
/// Anomaly warmup: a baseline with fewer observed intervals never flags.
const ANOMALY_MIN_INTERVALS: u64 = 12;
/// The anomaly watchlist: central ingest volume. Entries must be per-tick
/// deterministic metrics (never `_ns` wall-clock values) or the alert
/// log's determinism contract breaks.
const ANOMALY_METRICS: [&str; 1] = ["central.events_ingested"];

/// How a rule condenses a metric's history into one figure per tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RuleKind {
    /// Instantaneous value (newest snapshot) `>= min`.
    Threshold {
        /// Firing floor for the instantaneous value.
        min: i64,
    },
    /// Last per-interval increment `>= min`.
    Delta {
        /// Firing floor for the newest delta.
        min: i64,
    },
    /// Sum of increments over the newest `intervals` intervals `>= budget`.
    Burn {
        /// Firing floor for the summed increments.
        budget: i64,
        /// How many newest intervals the burn window spans.
        intervals: usize,
    },
}

impl RuleKind {
    /// The figure this rule evaluates against the store right now, read
    /// at an explicit resolution (the engine evaluates at
    /// [`Resolution::Raw`] so hysteresis ticks stay snapshot ticks).
    fn value(&self, store: &TelemetryStore, metric: &str, res: Resolution) -> i64 {
        match *self {
            RuleKind::Threshold { .. } => store
                .series(metric, res)
                .last()
                .map(|p| p.value)
                .unwrap_or(0),
            RuleKind::Delta { .. } => store
                .deltas(metric, res)
                .last()
                .map(|p| p.value)
                .unwrap_or(0),
            RuleKind::Burn { intervals, .. } => {
                let deltas = store.deltas(metric, res);
                let n = deltas.len().saturating_sub(intervals.max(1));
                deltas[n..].iter().map(|p| p.value).sum()
            }
        }
    }

    /// Firing floor for the figure.
    fn min(&self) -> i64 {
        match *self {
            RuleKind::Threshold { min } | RuleKind::Delta { min } => min,
            RuleKind::Burn { budget, .. } => budget,
        }
    }

    /// Human-readable condition, e.g. `delta>=1` or `burn>=1 over 4
    /// intervals` — for rule listings in shells and reports.
    pub fn describe(&self) -> String {
        match *self {
            RuleKind::Threshold { min } => format!("value>={min}"),
            RuleKind::Delta { min } => format!("delta>={min}"),
            RuleKind::Burn { budget, intervals } => {
                format!("burn>={budget} over {intervals} intervals")
            }
        }
    }

    /// Short label for renders (`thr` / `delta` / `burn`).
    pub fn label(&self) -> &'static str {
        match self {
            RuleKind::Threshold { .. } => "thr",
            RuleKind::Delta { .. } => "delta",
            RuleKind::Burn { .. } => "burn",
        }
    }
}

/// One alert rule: a metric, a condition, and hysteresis windows.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AlertRule {
    /// Stable identifier (also the dedup key — adding a rule with an
    /// existing id replaces it).
    pub id: String,
    /// Registry metric name the rule watches.
    pub metric: String,
    /// Condition kind and firing floor.
    pub kind: RuleKind,
    /// Consecutive true evaluations required before firing (min 1).
    pub for_ticks: u32,
    /// Consecutive false evaluations required before clearing (min 1).
    pub clear_ticks: u32,
}

/// Evidence an alert points at: where to look next.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AlertProvenance {
    /// Query the evidence belongs to.
    pub query_id: Option<u64>,
    /// Host most implicated (largest cumulative contribution).
    pub host: Option<String>,
    /// Loss-ledger column (or flag) naming the cause bucket.
    pub ledger_column: Option<String>,
    /// A sampled trace request id carrying a relevant span.
    pub trace_rid: Option<u64>,
}

impl AlertProvenance {
    /// Evidence naming a query and, when known, a host and a ledger column.
    pub fn implicating(query_id: u64, host: Option<&str>, ledger_column: Option<&str>) -> Self {
        AlertProvenance {
            query_id: Some(query_id),
            host: host.map(str::to_string),
            ledger_column: ledger_column.map(str::to_string),
            trace_rid: None,
        }
    }

    /// True when no link is set.
    pub fn is_empty(&self) -> bool {
        self.query_id.is_none()
            && self.host.is_none()
            && self.ledger_column.is_none()
            && self.trace_rid.is_none()
    }

    /// Deterministic bracketed render, empty string when nothing is set.
    pub fn render(&self) -> String {
        if self.is_empty() {
            return String::new();
        }
        let mut parts = Vec::new();
        if let Some(q) = self.query_id {
            parts.push(format!("q={q}"));
        }
        if let Some(h) = &self.host {
            parts.push(format!("host={h}"));
        }
        if let Some(c) = &self.ledger_column {
            parts.push(format!("col={c}"));
        }
        if let Some(r) = self.trace_rid {
            parts.push(format!("rid={r}"));
        }
        format!("[{}]", parts.join(" "))
    }
}

/// What happened to a rule (or baseline) at a tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AlertEventKind {
    /// Rule condition held for `for_ticks` — the alert is now active.
    Fired,
    /// Rule condition was false for `clear_ticks` — the alert resolved.
    Cleared,
    /// Welford baseline flagged a z-score excursion on a watched metric.
    Anomaly,
}

impl AlertEventKind {
    /// Fixed-width render label.
    pub fn label(&self) -> &'static str {
        match self {
            AlertEventKind::Fired => "FIRED",
            AlertEventKind::Cleared => "CLEARED",
            AlertEventKind::Anomaly => "ANOMALY",
        }
    }
}

/// One entry of the alert log.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AlertEvent {
    /// Sim time of the evaluation tick that produced the event.
    pub at_ms: i64,
    /// Fired / cleared / anomaly.
    pub kind: AlertEventKind,
    /// Rule id (for anomalies: `anomaly`).
    pub rule: String,
    /// Metric the rule or baseline watches.
    pub metric: String,
    /// The figure at the tick (rule figure, or the flagged delta).
    pub value: i64,
    /// Anomaly z-score in thousandths (`6350` = 6.35σ), rules: `None`.
    pub z_milli: Option<i64>,
    /// Evidence links (empty for cleared events and anomalies).
    pub provenance: AlertProvenance,
}

impl AlertEvent {
    /// One deterministic log line (sim time only — safe for goldens).
    pub fn render(&self) -> String {
        let mut line = format!(
            "t={:>8} ms {:<7} {:<17} {} = {}",
            self.at_ms,
            self.kind.label(),
            self.rule,
            self.metric,
            self.value
        );
        if let Some(z) = self.z_milli {
            line.push_str(&format!(" z={:.2}", z as f64 / 1_000.0));
        }
        let prov = self.provenance.render();
        if !prov.is_empty() {
            line.push_str("  ");
            line.push_str(&prov);
        }
        line
    }
}

/// Bounded ring of alert events; at capacity the oldest entry is
/// dropped and counted, so the log itself cannot become a leak.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct AlertLog {
    cap: usize,
    events: VecDeque<AlertEvent>,
    /// Events evicted at capacity.
    pub dropped: u64,
}

impl AlertLog {
    /// Empty log retaining up to `cap` events (min 1).
    pub fn new(cap: usize) -> Self {
        AlertLog {
            cap: cap.max(1),
            events: VecDeque::new(),
            dropped: 0,
        }
    }

    /// Append one event, evicting the oldest at capacity.
    pub fn push(&mut self, ev: AlertEvent) {
        if self.events.len() == self.cap {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(ev);
    }

    /// Events currently retained, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &AlertEvent> {
        self.events.iter()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no event was ever logged (or all were evicted).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Byte-stable multi-line render of the retained log.
    pub fn render(&self) -> String {
        let mut out = format!(
            "alert log: {} event(s), {} dropped\n",
            self.events.len(),
            self.dropped
        );
        for ev in &self.events {
            out.push_str("  ");
            out.push_str(&ev.render());
            out.push('\n');
        }
        out
    }
}

/// Per-rule hysteresis state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
struct RuleState {
    consec_true: u32,
    consec_false: u32,
    firing: bool,
}

/// Welford-baseline anomaly detection over raw-tier deltas.
///
/// For each watched metric the detector streams per-interval deltas
/// into a [`Welford`] accumulator. Once at least `min_intervals`
/// observations are in, a new delta further than `z` standard
/// deviations from the running mean (σ floored at 1.0 so a
/// near-constant series does not flag on the first +1) is reported as
/// an [`AlertEventKind::Anomaly`]. The flagged delta is then absorbed
/// into the baseline, so a sustained level shift flags once and
/// becomes the new normal.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AnomalyDetector {
    z: f64,
    min_intervals: u64,
    metrics: Vec<String>,
    baselines: BTreeMap<String, Welford>,
    last_at: BTreeMap<String, i64>,
}

impl AnomalyDetector {
    /// Detector flagging deltas beyond `z`σ after `min_intervals`
    /// warmup observations, over the given watchlist.
    fn new(z: f64, min_intervals: u64, metrics: Vec<String>) -> Self {
        AnomalyDetector {
            z,
            min_intervals,
            metrics,
            baselines: BTreeMap::new(),
            last_at: BTreeMap::new(),
        }
    }

    /// Watched metric names.
    pub fn metrics(&self) -> &[String] {
        &self.metrics
    }

    /// The baseline for one watched metric, if it has observations.
    pub fn baseline(&self, metric: &str) -> Option<&Welford> {
        self.baselines.get(metric)
    }

    /// Absorb raw-tier deltas newer than the last call and return
    /// anomaly events.
    fn tick(&mut self, store: &TelemetryStore) -> Vec<AlertEvent> {
        let mut out = Vec::new();
        for metric in &self.metrics {
            let seen = self.last_at.get(metric).copied().unwrap_or(i64::MIN);
            let base = self.baselines.entry(metric.clone()).or_default();
            let mut newest = seen;
            for p in store.deltas(metric, Resolution::Raw) {
                if p.at_ms <= seen {
                    continue;
                }
                newest = p.at_ms;
                let d = p.value as f64;
                if base.count() >= self.min_intervals {
                    let sigma = base.stddev().max(1.0);
                    let z = (d - base.mean()).abs() / sigma;
                    if z > self.z {
                        out.push(AlertEvent {
                            at_ms: p.at_ms,
                            kind: AlertEventKind::Anomaly,
                            rule: "anomaly".into(),
                            metric: metric.clone(),
                            value: p.value,
                            z_milli: Some((z * 1_000.0).round() as i64),
                            provenance: AlertProvenance::default(),
                        });
                    }
                }
                base.add(d);
            }
            if newest > seen {
                self.last_at.insert(metric.clone(), newest);
            }
        }
        out
    }
}

/// The alert engine: rules + hysteresis states + anomaly baselines +
/// the bounded log. Owned by ScrubCentral's [`HealthPlane`](crate::HealthPlane)
/// and ticked right after each snapshot is recorded into the telemetry store.
#[derive(Debug, Clone)]
pub struct AlertEngine {
    rules: Vec<AlertRule>,
    states: BTreeMap<String, RuleState>,
    anomaly: AnomalyDetector,
    log: AlertLog,
    last_eval_ms: Option<i64>,
}

impl AlertEngine {
    /// Engine with no rules and an empty watchlist.
    fn new(log_cap: usize) -> Self {
        AlertEngine {
            rules: Vec::new(),
            states: BTreeMap::new(),
            anomaly: AnomalyDetector::new(ANOMALY_Z, ANOMALY_MIN_INTERVALS, Vec::new()),
            log: AlertLog::new(log_cap),
            last_eval_ms: None,
        }
    }

    /// The health plane's engine: [`default_rules`] for the known failure
    /// modes plus the anomaly watchlist. Nothing in `ScrubConfig` tunes
    /// it; the argument is accepted so every plane is built the same way.
    pub fn from_config(_config: &ScrubConfig) -> Self {
        let mut eng = AlertEngine::new(ALERT_LOG_CAP);
        for rule in default_rules() {
            eng.add_rule(rule);
        }
        eng.anomaly = AnomalyDetector::new(
            ANOMALY_Z,
            ANOMALY_MIN_INTERVALS,
            ANOMALY_METRICS.iter().map(|m| m.to_string()).collect(),
        );
        eng
    }

    /// Add (or replace, by id) one rule. Evaluation order is rule id
    /// order, so the event stream does not depend on insertion order.
    fn add_rule(&mut self, rule: AlertRule) {
        self.rules.retain(|r| r.id != rule.id);
        self.rules.push(rule);
        self.rules.sort_by(|a, b| a.id.cmp(&b.id));
    }

    /// Installed rules, in evaluation (id) order.
    pub fn rules(&self) -> &[AlertRule] {
        &self.rules
    }

    /// The anomaly detector (watchlist + baselines).
    pub fn anomaly(&self) -> &AnomalyDetector {
        &self.anomaly
    }

    /// The bounded alert log.
    pub fn log(&self) -> &AlertLog {
        &self.log
    }

    /// True when the rule with this id is currently firing.
    pub fn is_firing(&self, rule_id: &str) -> bool {
        self.states.get(rule_id).map(|s| s.firing).unwrap_or(false)
    }

    /// Ids of all currently-firing rules, sorted.
    pub fn firing(&self) -> Vec<&str> {
        self.rules
            .iter()
            .filter(|r| self.is_firing(&r.id))
            .map(|r| r.id.as_str())
            .collect()
    }

    /// Evaluate every rule (and the anomaly baselines) against the
    /// telemetry store's newest raw snapshot. `provenance` is consulted
    /// for each newly-fired rule to attach evidence links. Returns the
    /// events produced this tick (also appended to the log).
    /// Re-evaluating the same tick is a no-op, so a forced snapshot
    /// cannot double-fire.
    pub fn tick<F>(&mut self, store: &TelemetryStore, mut provenance: F) -> Vec<AlertEvent>
    where
        F: FnMut(&AlertRule, i64) -> AlertProvenance,
    {
        let Some(last) = store.latest() else {
            return Vec::new();
        };
        let at_ms = last.at_ms;
        if self.last_eval_ms == Some(at_ms) {
            return Vec::new();
        }
        self.last_eval_ms = Some(at_ms);

        let mut out = Vec::new();
        for rule in &self.rules {
            let value = rule.kind.value(store, &rule.metric, Resolution::Raw);
            let cond = value >= rule.kind.min();
            let s = self.states.entry(rule.id.clone()).or_default();
            if cond {
                s.consec_true += 1;
                s.consec_false = 0;
            } else {
                s.consec_false += 1;
                s.consec_true = 0;
            }
            if !s.firing && cond && s.consec_true >= rule.for_ticks.max(1) {
                s.firing = true;
                out.push(AlertEvent {
                    at_ms,
                    kind: AlertEventKind::Fired,
                    rule: rule.id.clone(),
                    metric: rule.metric.clone(),
                    value,
                    z_milli: None,
                    provenance: provenance(rule, value),
                });
            } else if s.firing && !cond && s.consec_false >= rule.clear_ticks.max(1) {
                s.firing = false;
                out.push(AlertEvent {
                    at_ms,
                    kind: AlertEventKind::Cleared,
                    rule: rule.id.clone(),
                    metric: rule.metric.clone(),
                    value,
                    z_milli: None,
                    provenance: AlertProvenance::default(),
                });
            }
        }
        out.extend(self.anomaly.tick(store));
        for ev in &out {
            self.log.push(ev.clone());
        }
        out
    }
}

/// The built-in rules for Scrub's known failure modes. All watch
/// node-side, per-tick deterministic metrics — never wall-clock (`_ns`)
/// values.
pub fn default_rules() -> Vec<AlertRule> {
    let mk = |id: &str, metric: &str, kind: RuleKind| AlertRule {
        id: id.into(),
        metric: metric.into(),
        kind,
        for_ticks: ALERT_FOR_TICKS,
        clear_ticks: ALERT_CLEAR_TICKS,
    };
    vec![
        // a host went silent past the grace period (gauge, set by
        // central's dead-host refresh)
        mk(
            "host_dead",
            "central.hosts_suspected",
            RuleKind::Threshold { min: 1 },
        ),
        // new selected-but-undelivered exposure appeared this tick
        mk(
            "batch_dropped",
            "ledger.batch_dropped",
            RuleKind::Delta { min: 1 },
        ),
        // agents are resending batches (drops or lost acks upstream)
        mk(
            "retransmit_storm",
            "agent.retransmitted_batches",
            RuleKind::Delta { min: 1 },
        ),
        // a bounded group-by hit its max_groups cap
        mk(
            "groups_overflow",
            "overload.groups_overflow",
            RuleKind::Delta { min: 1 },
        ),
        // sustained budget shedding: the CPU envelope is being enforced
        // by dropping events over several consecutive intervals
        mk(
            "envelope_breach",
            "overload.budget_shed_events",
            RuleKind::Burn {
                budget: 1,
                intervals: 4,
            },
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsSnapshot;

    fn snap(at_ms: i64, counter: u64, gauge: i64) -> MetricsSnapshot {
        let mut s = MetricsSnapshot {
            at_ms,
            ..Default::default()
        };
        s.counters.insert("c".into(), counter);
        s.gauges.insert("g".into(), gauge);
        s
    }

    fn no_prov(_: &AlertRule, _: i64) -> AlertProvenance {
        AlertProvenance::default()
    }

    #[test]
    fn threshold_rule_fires_and_clears_with_hysteresis() {
        let mut eng = AlertEngine::new(16);
        eng.add_rule(AlertRule {
            id: "g_high".into(),
            metric: "g".into(),
            kind: RuleKind::Threshold { min: 5 },
            for_ticks: 2,
            clear_ticks: 2,
        });
        let mut h = TelemetryStore::new(16, 10, 100, 8);
        let mut fire_at = None;
        let mut clear_at = None;
        for (i, g) in [0i64, 7, 7, 7, 0, 7, 0, 0, 0].iter().enumerate() {
            h.record(snap(i as i64 * 1_000, 0, *g));
            for ev in eng.tick(&h, no_prov) {
                match ev.kind {
                    AlertEventKind::Fired => fire_at = Some(ev.at_ms),
                    AlertEventKind::Cleared => clear_at = Some(ev.at_ms),
                    _ => {}
                }
            }
        }
        // needs 2 consecutive ticks >= 5: t=1000 and t=2000 -> fires at 2000
        assert_eq!(fire_at, Some(2_000));
        // the single dip at t=4000 must NOT clear (clear_ticks=2); the
        // run of zeros from t=6000 clears at t=7000
        assert_eq!(clear_at, Some(7_000));
        assert!(!eng.is_firing("g_high"));
        assert_eq!(eng.log().len(), 2);
    }

    #[test]
    fn delta_rule_sees_per_interval_increments() {
        let mut eng = AlertEngine::new(16);
        eng.add_rule(AlertRule {
            id: "c_moves".into(),
            metric: "c".into(),
            kind: RuleKind::Delta { min: 10 },
            for_ticks: 1,
            clear_ticks: 1,
        });
        let mut h = TelemetryStore::new(16, 10, 100, 8);
        let mut events = Vec::new();
        // counter: +5, +20, +20, +0
        for (i, c) in [0u64, 5, 25, 45, 45].iter().enumerate() {
            h.record(snap(i as i64 * 1_000, *c, 0));
            events.extend(eng.tick(&h, no_prov));
        }
        let kinds: Vec<(i64, AlertEventKind)> = events.iter().map(|e| (e.at_ms, e.kind)).collect();
        assert_eq!(
            kinds,
            vec![
                (2_000, AlertEventKind::Fired),
                (4_000, AlertEventKind::Cleared)
            ]
        );
        assert_eq!(events[0].value, 20);
    }

    #[test]
    fn burn_rule_sums_recent_intervals() {
        let mut eng = AlertEngine::new(16);
        eng.add_rule(AlertRule {
            id: "burn".into(),
            metric: "c".into(),
            kind: RuleKind::Burn {
                budget: 30,
                intervals: 3,
            },
            for_ticks: 1,
            clear_ticks: 1,
        });
        let mut h = TelemetryStore::new(16, 10, 100, 8);
        let mut fired = Vec::new();
        // +12/tick: window of 3 intervals crosses 30 at the 3rd delta
        for (i, c) in [0u64, 12, 24, 36, 36, 36, 36].iter().enumerate() {
            h.record(snap(i as i64 * 1_000, *c, 0));
            for ev in eng.tick(&h, no_prov) {
                fired.push((ev.at_ms, ev.kind, ev.value));
            }
        }
        assert_eq!(fired[0], (3_000, AlertEventKind::Fired, 36));
        // burn window drains as flat intervals roll in: at t=4000 the
        // last 3 deltas are 12, 12, 0 -> sum 24 < 30, so it clears
        assert_eq!(fired[1].1, AlertEventKind::Cleared);
        assert_eq!(fired[1].0, 4_000);
    }

    #[test]
    fn same_tick_reeval_is_noop_and_log_is_bounded() {
        let mut eng = AlertEngine::new(2);
        eng.add_rule(AlertRule {
            id: "g".into(),
            metric: "g".into(),
            kind: RuleKind::Threshold { min: 1 },
            for_ticks: 1,
            clear_ticks: 1,
        });
        let mut h = TelemetryStore::new(8, 10, 100, 8);
        h.record(snap(1_000, 0, 1));
        assert_eq!(eng.tick(&h, no_prov).len(), 1);
        assert!(eng.tick(&h, no_prov).is_empty(), "same tick re-eval");
        // flap to overflow the cap-2 log
        for i in 2..6 {
            h.record(snap(i * 1_000, 0, i % 2));
            eng.tick(&h, no_prov);
        }
        assert_eq!(eng.log().len(), 2);
        assert!(eng.log().dropped > 0);
    }

    #[test]
    fn anomaly_detector_flags_excursion_then_absorbs_it() {
        let mut det = AnomalyDetector::new(4.0, 4, vec!["c".into()]);
        let mut h = TelemetryStore::new(64, 10, 100, 8);
        let mut events = Vec::new();
        // steady +10/tick for 8 ticks, then one +200 spike, then steady
        let mut total = 0u64;
        for i in 0..14i64 {
            total += if i == 9 { 200 } else { 10 };
            h.record(snap(i * 1_000, total, 0));
            events.extend(det.tick(&h));
        }
        assert_eq!(events.len(), 1, "exactly the spike flags: {events:?}");
        assert_eq!(events[0].at_ms, 9_000);
        assert_eq!(events[0].value, 200);
        assert!(events[0].z_milli.unwrap() > 4_000);
        // the spike is absorbed: baseline keeps counting
        assert!(det.baseline("c").unwrap().count() >= 13);
    }

    #[test]
    fn engine_output_is_deterministic_across_runs() {
        let run = || {
            let mut eng = AlertEngine::new(64);
            for r in default_rules() {
                eng.add_rule(r);
            }
            eng.anomaly = AnomalyDetector::new(4.0, 4, vec!["c".into()]);
            let mut h = TelemetryStore::new(64, 10, 100, 8);
            let mut total = 0u64;
            for i in 0..20i64 {
                total += ((i * 37) % 11) as u64;
                let mut s = snap(i * 1_000, total, 0);
                s.counters
                    .insert("agent.retransmitted_batches".into(), (i / 5) as u64);
                s.gauges
                    .insert("central.hosts_suspected".into(), i64::from(i > 12));
                h.record(s);
                eng.tick(&h, no_prov);
            }
            eng.log().render()
        };
        let a = run();
        assert_eq!(a, run(), "alert log render must be byte-stable");
        assert!(a.contains("host_dead"));
        assert!(a.contains("retransmit_storm"));
    }

    #[test]
    fn from_config_installs_the_fixed_tuning() {
        let eng = AlertEngine::from_config(&ScrubConfig::default());
        let mut ids: Vec<String> = default_rules().into_iter().map(|r| r.id).collect();
        ids.sort();
        let installed: Vec<String> = eng.rules().iter().map(|r| r.id.clone()).collect();
        assert_eq!(installed, ids);
        for r in eng.rules() {
            assert_eq!(
                (r.for_ticks, r.clear_ticks),
                (ALERT_FOR_TICKS, ALERT_CLEAR_TICKS)
            );
            // wall-clock metrics would break the alert log's determinism
            assert!(!r.metric.ends_with("_ns"), "{}", r.metric);
        }
        assert_eq!(eng.anomaly().metrics(), ANOMALY_METRICS);
        assert!(!eng.anomaly().metrics().iter().any(|m| m.ends_with("_ns")));
        assert_eq!(eng.log().cap, ALERT_LOG_CAP);
        assert!(eng.log().is_empty());
        assert!(eng.firing().is_empty());
    }

    #[test]
    fn provenance_renders_in_fixed_order() {
        let p = AlertProvenance {
            query_id: Some(3),
            host: Some("bid-DC2-1".into()),
            ledger_column: Some("host_dead".into()),
            trace_rid: Some(42),
        };
        assert_eq!(p.render(), "[q=3 host=bid-DC2-1 col=host_dead rid=42]");
        assert_eq!(AlertProvenance::default().render(), "");
    }

    #[test]
    fn rules_evaluate_in_id_order_and_replace_by_id() {
        let mut eng = AlertEngine::new(8);
        eng.add_rule(AlertRule {
            id: "zz".into(),
            metric: "g".into(),
            kind: RuleKind::Threshold { min: 1 },
            for_ticks: 1,
            clear_ticks: 1,
        });
        eng.add_rule(AlertRule {
            id: "aa".into(),
            metric: "g".into(),
            kind: RuleKind::Threshold { min: 1 },
            for_ticks: 1,
            clear_ticks: 1,
        });
        // replace zz with a higher floor
        eng.add_rule(AlertRule {
            id: "zz".into(),
            metric: "g".into(),
            kind: RuleKind::Threshold { min: 100 },
            for_ticks: 1,
            clear_ticks: 1,
        });
        assert_eq!(eng.rules().len(), 2);
        assert_eq!(eng.rules()[0].id, "aa");
        let mut h = TelemetryStore::new(4, 10, 100, 8);
        h.record(snap(1_000, 0, 5));
        let evs = eng.tick(&h, no_prov);
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].rule, "aa");
    }
}
