//! The health plane at ScrubCentral: one tick that turns the node's
//! per-query accounts into fleet counters, telemetry, alerts and journals.
//!
//! [`HealthPlane::observe`] runs once per housekeeping tick, after the data
//! plane has advanced every query, and in order:
//!
//! 1. **folds** each query's cumulative figures into the node counters,
//!    by their delta over a per-query high-water mark that only rises, so a
//!    figure that falls (the `selected − events` gap closing when a late
//!    batch lands) never lowers a counter. One table, `FOLD_TABLE`, names
//!    every folded figure. A rise refreshes the figure's provenance hint;
//!    queries fold in ascending id order, so the highest id moving a figure
//!    in a tick names it;
//! 2. **records** a registry snapshot into the [`TelemetryStore`];
//! 3. **ticks** the [`AlertEngine`]: a fired rule carries its metric's hint
//!    and is journaled into the implicated query's [`FlightRecorder`].
//!
//! Only the housekeeping tick folds: `selected − events` reads a batch
//! still in flight as dropped, so a fold at the instant one host's batch
//! lands would book its peers' batches of the same second.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use scrub_core::config::ScrubConfig;
use scrub_core::plan::QueryId;

use crate::alert::{AlertEngine, AlertEventKind, AlertProvenance};
use crate::metrics::{Counter, MetricsSnapshot, Registry};
use crate::profile::{HostProfile, QueryProfile};
use crate::timeline::{FlightEventKind, FlightRecorder, FLIGHT_RECORDER_CAP};
use crate::trace::{SpanKind, TraceStore};
use crate::tsdb::TelemetryStore;

/// Where a folded figure's per-query total comes from.
#[derive(Clone, Copy)]
enum Source {
    /// Summed over the query's hosts; the largest share (the first host
    /// name on ties) is the most-implicated host.
    Hosts(fn(&HostProfile) -> u64),
    /// One query-wide figure of the profile or the trace store.
    Query(fn(&QueryProfile, Option<&TraceStore>) -> u64),
}

/// One fleet figure the fold maintains.
struct Figure {
    /// The node counter the per-query deltas advance.
    metric: &'static str,
    source: Source,
    /// The loss-ledger column naming the cause.
    column: Option<&'static str>,
}

/// Every per-query figure folded into a node counter.
const FOLD_TABLE: [Figure; 6] = [
    Figure {
        metric: "overload.budget_shed_events",
        source: Source::Hosts(|h| h.budget_shed),
        column: Some("budget_shed"),
    },
    Figure {
        metric: "agent.retransmitted_batches",
        source: Source::Hosts(|h| h.retransmitted_batches),
        column: None,
    },
    Figure {
        metric: "ledger.batch_dropped",
        source: Source::Hosts(|h| h.selected.saturating_sub(h.events)),
        column: Some("batch_dropped"),
    },
    Figure {
        metric: "overload.groups_overflow",
        source: Source::Query(|q, _| q.groups_overflow),
        column: Some("groups_overflow"),
    },
    Figure {
        metric: "central.decode_failures",
        source: Source::Query(|q, _| q.decode_failures),
        column: None,
    },
    Figure {
        metric: "trace.dropped_spans",
        source: Source::Query(|_, trace| trace.map_or(0, |t| t.dropped_spans)),
        column: None,
    },
];

impl Source {
    /// The query's total and its most-implicated host.
    fn read<'a>(
        self,
        profile: &'a QueryProfile,
        trace: Option<&TraceStore>,
    ) -> (u64, Option<&'a str>) {
        match self {
            Source::Hosts(share) => {
                let mut total = 0;
                let mut top: Option<(u64, &str)> = None;
                for (host, hp) in &profile.hosts {
                    let n = share(hp);
                    total += n;
                    if n > top.map_or(0, |(most, _)| most) {
                        top = Some((n, host));
                    }
                }
                (total, top.map(|(_, host)| host))
            }
            Source::Query(figure) => (figure(profile, trace), None),
        }
    }
}

/// ScrubCentral's health plane: the node registry, the telemetry store,
/// the alert engine, the fold state and the per-query flight recorders
/// (data-plane half).
pub struct HealthPlane {
    registry: Registry,
    /// The counters of `FOLD_TABLE`, row for row.
    folded: Vec<Arc<Counter>>,
    /// Per query, the highest total of each `FOLD_TABLE` row folded so far.
    high_water: HashMap<QueryId, [u64; FOLD_TABLE.len()]>,
    /// Per metric, the evidence behind its last rise: which query and host
    /// moved it, and which ledger column names the cause.
    hints: BTreeMap<&'static str, AlertProvenance>,
    tsdb: TelemetryStore,
    alerts: AlertEngine,
    /// Retained after a query finishes.
    recorders: HashMap<QueryId, FlightRecorder>,
    m_alerts_fired: Arc<Counter>,
    m_alerts_cleared: Arc<Counter>,
    m_anomalies: Arc<Counter>,
    m_snaps_ooo: Arc<Counter>,
}

impl HealthPlane {
    /// An empty plane with every folded and alert counter registered.
    pub fn from_config(config: &ScrubConfig) -> Self {
        let registry = Registry::new();
        HealthPlane {
            folded: FOLD_TABLE
                .iter()
                .map(|f| registry.counter(f.metric))
                .collect(),
            high_water: HashMap::new(),
            hints: BTreeMap::new(),
            tsdb: TelemetryStore::from_config(config),
            alerts: AlertEngine::from_config(config),
            recorders: HashMap::new(),
            m_alerts_fired: registry.counter("alert.fired"),
            m_alerts_cleared: registry.counter("alert.cleared"),
            m_anomalies: registry.counter("alert.anomalies"),
            m_snaps_ooo: registry.counter("obs.snapshots_out_of_order"),
            registry,
        }
    }

    /// The node registry; the data plane registers its own counters here.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The multi-resolution telemetry store the tick records into.
    pub fn telemetry(&self) -> &TelemetryStore {
        &self.tsdb
    }

    /// Alert rules, hysteresis states, anomaly baselines and the log.
    pub fn alerts(&self) -> &AlertEngine {
        &self.alerts
    }

    /// A query's data-plane journal; `None` until something is journaled.
    pub fn flight_recorder(&self, qid: QueryId) -> Option<&FlightRecorder> {
        self.recorders.get(&qid)
    }

    /// `qid`'s data-plane journal, created on first use.
    pub fn recorder(&mut self, qid: QueryId) -> &mut FlightRecorder {
        self.recorders
            .entry(qid)
            .or_insert_with(|| FlightRecorder::new(qid.0, FLIGHT_RECORDER_CAP))
    }

    /// Set the evidence an alert on `metric` will carry.
    pub fn hint(&mut self, metric: &'static str, provenance: AlertProvenance) {
        self.hints.insert(metric, provenance);
    }

    /// The housekeeping tick: fold every live query's figures (in
    /// ascending id order, whatever order `profiles` comes in), record a
    /// snapshot, tick the alerts. Returns the previous and the new snapshot
    /// when the store accepted one that has a predecessor — the delta pair
    /// the `scrub_metric` meta-stream carries.
    pub fn observe<'a>(
        &mut self,
        now_ms: i64,
        profiles: impl IntoIterator<Item = (QueryId, &'a QueryProfile)>,
        traces: &HashMap<QueryId, TraceStore>,
    ) -> Option<(MetricsSnapshot, MetricsSnapshot)> {
        let mut profiles: Vec<_> = profiles.into_iter().collect();
        profiles.sort_by_key(|&(qid, _)| qid);
        for (qid, profile) in profiles {
            self.fold(qid, profile, traces.get(&qid));
        }
        let pair = self.record(now_ms, traces);
        self.alert(now_ms, traces);
        pair
    }

    /// Fold a stopped query's final figures and forget its high-water
    /// marks: what it added since the last tick is counted here, once.
    pub fn retire(&mut self, qid: QueryId, profile: &QueryProfile, trace: Option<&TraceStore>) {
        self.fold(qid, profile, trace);
        self.high_water.remove(&qid);
    }

    fn fold(&mut self, qid: QueryId, profile: &QueryProfile, trace: Option<&TraceStore>) {
        let high = self.high_water.entry(qid).or_default();
        for ((figure, counter), seen) in FOLD_TABLE.iter().zip(&self.folded).zip(high) {
            let (total, host) = figure.source.read(profile, trace);
            let delta = total.saturating_sub(*seen);
            if delta == 0 {
                continue;
            }
            counter.add(delta);
            *seen = total;
            let hint = AlertProvenance::implicating(qid.0, host, figure.column);
            self.hints.insert(figure.metric, hint);
        }
    }

    /// Record the node snapshot. Rollup exemplars are resolved lazily —
    /// the store calls back only when a mid/coarse bucket seals and only
    /// for metrics that moved up — as the smallest traced rid (of the
    /// smallest query id) with a span in the max-delta raw interval. A
    /// snapshot that does not advance sim time is refused by the store and
    /// counted here, once (`obs.snapshots_out_of_order`).
    fn record(
        &mut self,
        now_ms: i64,
        traces: &HashMap<QueryId, TraceStore>,
    ) -> Option<(MetricsSnapshot, MetricsSnapshot)> {
        let snap = self.registry.snapshot(now_ms);
        let prev = self.tsdb.latest().cloned();
        // many metrics share a max-delta interval; resolve each once
        let mut cache: BTreeMap<(i64, i64), Option<u64>> = BTreeMap::new();
        let accepted = self
            .tsdb
            .record_with(snap.clone(), |_metric, from_ms, to_ms| {
                *cache.entry((from_ms, to_ms)).or_insert_with(|| {
                    let mut qids: Vec<&QueryId> = traces.keys().collect();
                    qids.sort();
                    qids.into_iter()
                        .find_map(|qid| traces[qid].first_rid_in(from_ms, to_ms))
                })
            });
        if !accepted {
            self.m_snaps_ooo.inc();
            return None;
        }
        Some((prev?, snap))
    }

    /// Tick the alert engine on the raw tier. A fired rule carries its
    /// metric's hint; a retransmit storm's also names the smallest sampled
    /// rid of the implicated query that carries a retransmit hop.
    fn alert(&mut self, now_ms: i64, traces: &HashMap<QueryId, TraceStore>) {
        let hints = &self.hints;
        let events = self.alerts.tick(&self.tsdb, |rule, _value| {
            let mut prov = hints.get(rule.metric.as_str()).cloned().unwrap_or_default();
            if rule.metric == "agent.retransmitted_batches" {
                if let Some(store) = prov.query_id.and_then(|q| traces.get(&QueryId(q))) {
                    prov.trace_rid = store.request_ids().find(|&rid| {
                        store.trace(rid).is_some_and(|spans| {
                            spans.iter().any(|s| s.kind == SpanKind::Retransmit)
                        })
                    });
                }
            }
            prov
        });
        for ev in events {
            let kind = match ev.kind {
                AlertEventKind::Fired => {
                    self.m_alerts_fired.inc();
                    FlightEventKind::AlertFired
                }
                AlertEventKind::Cleared => {
                    self.m_alerts_cleared.inc();
                    FlightEventKind::AlertCleared
                }
                AlertEventKind::Anomaly => {
                    self.m_anomalies.inc();
                    continue;
                }
            };
            if let Some(q) = ev.provenance.query_id {
                let detail = format!("rule={} {}={}", ev.rule, ev.metric, ev.value);
                self.recorder(QueryId(q))
                    .record(now_ms, kind, detail, ev.provenance);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plane() -> HealthPlane {
        HealthPlane::from_config(&ScrubConfig::default())
    }

    fn host(selected: u64, events: u64, retransmitted_batches: u64) -> HostProfile {
        HostProfile {
            selected,
            events,
            retransmitted_batches,
            ..Default::default()
        }
    }

    fn profile(qid: u64, hosts: &[(&str, HostProfile)]) -> QueryProfile {
        let mut p = QueryProfile::new(qid);
        for (name, hp) in hosts {
            p.hosts.insert(name.to_string(), hp.clone());
        }
        p
    }

    fn counter(plane: &HealthPlane, metric: &str) -> u64 {
        plane.registry().snapshot(0).counter(metric)
    }

    #[test]
    fn a_falling_figure_never_lowers_its_counter() {
        let traces = HashMap::new();
        let mut plane = plane();
        let q = QueryId(1);
        // 10 selected, 6 ingested: the 4 in flight read as dropped
        let mut p = profile(1, &[("h1", host(10, 6, 0))]);
        plane.observe(1_000, [(q, &p)], &traces);
        assert_eq!(counter(&plane, "ledger.batch_dropped"), 4);
        // the late batch lands and closes the gap; the counter stays put
        p.hosts.get_mut("h1").unwrap().events = 10;
        plane.observe(2_000, [(q, &p)], &traces);
        assert_eq!(counter(&plane, "ledger.batch_dropped"), 4);
        // a new gap under the high-water mark adds nothing, one over it
        // adds only the excess
        p.hosts.get_mut("h1").unwrap().selected = 13;
        plane.observe(3_000, [(q, &p)], &traces);
        assert_eq!(counter(&plane, "ledger.batch_dropped"), 4);
        p.hosts.get_mut("h1").unwrap().selected = 17;
        plane.observe(4_000, [(q, &p)], &traces);
        assert_eq!(counter(&plane, "ledger.batch_dropped"), 7);
    }

    #[test]
    fn a_stopped_query_is_folded_once_and_forgotten() {
        let traces = HashMap::new();
        let mut plane = plane();
        let q = QueryId(1);
        let mut p = profile(1, &[("h1", host(0, 0, 2))]);
        plane.observe(1_000, [(q, &p)], &traces);
        assert_eq!(counter(&plane, "agent.retransmitted_batches"), 2);
        // the final fold at stop books what arrived since the last tick
        p.hosts.get_mut("h1").unwrap().retransmitted_batches = 5;
        plane.retire(q, &p, None);
        assert_eq!(counter(&plane, "agent.retransmitted_batches"), 5);
        plane.observe(2_000, [], &traces);
        assert_eq!(counter(&plane, "agent.retransmitted_batches"), 5);
        // its high-water marks are gone: folding the id again counts from 0
        plane.observe(3_000, [(q, &p)], &traces);
        assert_eq!(counter(&plane, "agent.retransmitted_batches"), 10);
    }

    #[test]
    fn the_hint_names_the_largest_contributor_first_name_on_ties() {
        let traces = HashMap::new();
        let mut plane = plane();
        let p = profile(
            1,
            &[
                ("a", host(1, 1, 1)),
                ("b", host(9, 6, 3)),
                ("c", host(9, 6, 3)),
            ],
        );
        plane.observe(1_000, [(QueryId(1), &p)], &traces);
        let retransmit = &plane.hints["agent.retransmitted_batches"];
        assert_eq!(retransmit.query_id, Some(1));
        assert_eq!(retransmit.host.as_deref(), Some("b"));
        assert_eq!(retransmit.ledger_column, None);
        let dropped = &plane.hints["ledger.batch_dropped"];
        assert_eq!(dropped.host.as_deref(), Some("b"));
        assert_eq!(dropped.ledger_column.as_deref(), Some("batch_dropped"));
    }

    #[test]
    fn the_higher_query_id_wins_a_shared_figure_in_one_tick() {
        let traces = HashMap::new();
        let mut plane = plane();
        let p1 = profile(1, &[("h1", host(0, 0, 4))]);
        let p2 = profile(2, &[("h2", host(0, 0, 1))]);
        plane.observe(1_000, [(QueryId(2), &p2), (QueryId(1), &p1)], &traces);
        assert_eq!(counter(&plane, "agent.retransmitted_batches"), 5);
        let hint = &plane.hints["agent.retransmitted_batches"];
        assert_eq!(hint.query_id, Some(2));
        assert_eq!(hint.host.as_deref(), Some("h2"));
    }

    #[test]
    fn a_fired_alert_carries_the_hint_into_the_query_journal() {
        let traces = HashMap::new();
        let mut plane = plane();
        let q = QueryId(3);
        let mut p = profile(3, &[("h1", host(0, 0, 0))]);
        plane.observe(1_000, [(q, &p)], &traces);
        p.hosts.get_mut("h1").unwrap().retransmitted_batches = 2;
        plane.observe(2_000, [(q, &p)], &traces);
        assert!(plane.alerts().is_firing("retransmit_storm"));
        let fired = plane.alerts().log().events().next().expect("one event");
        assert_eq!(fired.provenance.render(), "[q=3 host=h1]");
        let journal: Vec<String> = plane
            .flight_recorder(q)
            .expect("journaled")
            .events()
            .map(|e| e.render())
            .collect();
        assert_eq!(
            journal,
            vec![
                "t=    2000 ms alert_fired    rule=retransmit_storm \
                 agent.retransmitted_batches=2  [q=3 host=h1]"
            ]
        );
        assert_eq!(counter(&plane, "alert.fired"), 1);
    }
}
