//! ScrubCentral as a simulated node: hosts one [`QueryExecutor`] per
//! active query, closes windows as the hosts vouch for them, and streams
//! finished rows to the query server.
//!
//! Delivery from agents is at-least-once (agents retransmit unacked
//! batches), so central deduplicates on `(host, query, seq)` and acks
//! every batch — including duplicates, so a host whose ack was lost stops
//! retransmitting. Every batch stream carries the host's watermark for the
//! query; once every targeted host's watermark, read behind a gap-free run
//! of its sequence numbers, has passed a window's end, the window closes
//! there and then. `window_grace_ms` is the fallback for a window some
//! host has not vouched for: it closes when the grace after its end runs
//! out. The same per-host stream records when the host's last fresh batch
//! arrived, and that is the failure detector: a host that goes silent
//! while its peers keep reporting is suspected dead, its samples leave the
//! estimator and subsequent rows are marked degraded — windows keep
//! closing on time instead of stalling on a dead host.
//!
//! # Self-observability
//!
//! Central is where every query's data plane converges. Each query's
//! executor writes its [`QueryProfile`] (per-host tap counters, first-sent
//! vs retransmitted bytes, window opens/closes/degradations, join-state
//! pressure, ingest latency); central serves it, builds the loss ledger
//! from it, and keeps node-level counters in a [`Registry`]. It also
//! *dogfoods* Scrub: an embedded [`AgentHarness`] taps a `scrub_batch`
//! meta-event per received batch and a
//! `scrub_window` meta-event per window close, through the same `log()`
//! fast path the application uses. A ScrubQL query targeting
//! `@[Service in ScrubCentral]` runs over this telemetry like any other
//! query — selection, windows, sampling, reliable shipment and all.
//! Batches that themselves carry meta-events are not re-tapped, which
//! breaks the feedback loop after one hop.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::marker::PhantomData;
use std::sync::Arc;

use scrub_agent::EventBatch;
use scrub_central::{CloseRule, QueryExecutor};
use scrub_core::config::ScrubConfig;
use scrub_core::event::RequestId;
use scrub_core::plan::{OutputMode, QueryId};
use scrub_core::schema::SchemaRegistry;
use scrub_obs::{
    register_meta_events, should_trace, trace_threshold, AlertEngine, AlertEventKind,
    AlertProvenance, Counter, FlightEventKind, FlightRecorder, Gauge, Histogram, LossLedger,
    MetaEvents, MetricsHistory, MetricsSnapshot, PlanProfile, QueryProfile, Registry,
    ScrubBatchEvent, ScrubMetricEvent, ScrubWindowEvent, SpanKind, TelemetryStore, TraceSpan,
    TraceStore,
};
use scrub_simnet::{Context, Node, NodeId, SimDuration};

use crate::delivery::HostStream;
use crate::harness::AgentHarness;
use crate::msg::{ScrubEnvelope, ScrubMsg, TIMER_CENTRAL_ADVANCE, TIMER_CENTRAL_GRACE};

/// The centralized execution facility (one node; the paper runs a small
/// cluster — `deploy_central_cluster` spreads whole queries across
/// several of these).
pub struct CentralNode<E: ScrubEnvelope> {
    config: ScrubConfig,
    server: Option<NodeId>,
    executors: HashMap<QueryId, QueryExecutor>,
    /// Per-query, per-host delivery state: which sequence numbers are in,
    /// the watermark the host has announced behind them, and when its last
    /// fresh batch arrived.
    streams: HashMap<QueryId, HashMap<String, HostStream>>,
    /// When the one-shot grace timer in flight is meant to fire (ms): the
    /// earliest `end + grace` of an open window at the time it was armed.
    grace_timer_ms: Option<i64>,
    /// Events ingested across all queries (for throughput accounting).
    pub events_ingested: u64,
    /// Batches received.
    pub batches_received: u64,
    /// Per-query execution profiles and `EXPLAIN ANALYZE` plan profiles,
    /// captured at query stop and retained so `profile <qid>` and
    /// `explain analyze <qid>` work post-hoc. Live queries read the
    /// executor directly instead.
    profiles: HashMap<QueryId, QueryProfile>,
    plan_profiles: HashMap<QueryId, PlanProfile>,
    /// Per-query lifecycle trace trees assembled from the spans batches
    /// piggyback; retained after a query finishes, like `profiles`.
    traces: HashMap<QueryId, TraceStore>,
    /// Multi-resolution telemetry store (raw snapshot ring + mid/coarse
    /// rollup tiers with exemplar links), fed each advance tick —
    /// backing `scrubql watch`/`range` and the alert engine.
    tsdb: TelemetryStore,
    /// Precomputed trace-sampler threshold (0 = tracing disabled).
    trace_threshold: u64,
    /// Queries whose inputs are meta-events (their window closes are not
    /// re-tapped as `scrub_window`).
    meta_queries: HashSet<QueryId>,
    /// Node-level metrics.
    obs: Registry,
    m_batches: Arc<Counter>,
    m_duplicates: Arc<Counter>,
    m_events: Arc<Counter>,
    m_acks: Arc<Counter>,
    m_rows: Arc<Counter>,
    m_windows_closed: Arc<Counter>,
    m_closed_by_watermark: Arc<Counter>,
    m_closed_by_grace: Arc<Counter>,
    m_close_lag: Arc<Histogram>,
    m_windows_degraded: Arc<Counter>,
    m_installed: Arc<Counter>,
    m_finished: Arc<Counter>,
    m_ingest_latency: Arc<Histogram>,
    m_budget_shed: Arc<Counter>,
    m_groups_overflow: Arc<Counter>,
    m_decode_failures: Arc<Counter>,
    m_after_stop: Arc<Counter>,
    m_retransmitted: Arc<Counter>,
    m_batch_dropped: Arc<Counter>,
    m_trace_dropped: Arc<Counter>,
    m_hosts_suspected: Arc<Gauge>,
    m_alerts_fired: Arc<Counter>,
    m_alerts_cleared: Arc<Counter>,
    m_anomalies: Arc<Counter>,
    m_snaps_ooo: Arc<Counter>,
    /// Last per-query cumulative totals folded into the node counters,
    /// so each advance adds only the delta (profiles are cumulative; the
    /// node metrics want fleet totals without double counting).
    fold_seen: HashMap<QueryId, FoldSeen>,
    /// The health plane: rule engine + anomaly baselines + bounded
    /// alert log, ticked right after each history snapshot.
    alerts: AlertEngine,
    /// Per-query lifecycle journals (data-plane half: window closes,
    /// retransmit episodes, host deaths, alert firings). Retained after
    /// a query finishes, like `profiles`.
    recorders: HashMap<QueryId, FlightRecorder>,
    /// Per-metric evidence hints for the alert engine, refreshed
    /// whenever a fold sees a positive delta: which query/host moved
    /// the metric last, and which ledger column names the cause.
    prov_hints: BTreeMap<String, AlertProvenance>,
    /// Resolved meta-event type ids (registered into the shared schema
    /// registry at construction).
    meta: MetaEvents,
    /// The embedded agent shipping Scrub's own telemetry; created on
    /// start (it needs the node's name and id).
    meta_harness: Option<AgentHarness>,
    /// Request-id source for meta-events (each tap gets a fresh id; meta
    /// queries never join on it).
    meta_rid: u64,
    _marker: PhantomData<fn(E)>,
}

/// Per-query high-water marks of cumulative figures already folded into
/// the node counters (see `CentralNode::fold_seen`).
#[derive(Debug, Clone, Copy, Default)]
struct FoldSeen {
    budget_shed: u64,
    groups_overflow: u64,
    decode_failures: u64,
    retransmitted: u64,
    batch_dropped: u64,
    trace_dropped: u64,
}

impl<E: ScrubEnvelope> CentralNode<E> {
    /// Create a central node; `server` is learned from the first
    /// `CentralInstall` sender if not preset. The schema registry is the
    /// deployment-wide one — central registers the `scrub_batch` /
    /// `scrub_window` / `scrub_metric` meta-event types into it
    /// (idempotently) so ScrubQL queries over Scrub's own telemetry
    /// validate.
    pub fn new(config: ScrubConfig, registry: Arc<SchemaRegistry>) -> Self {
        let meta = register_meta_events(&registry).expect("meta-event schemas register cleanly");
        let obs = Registry::new();
        let m_batches = obs.counter("central.batches_received");
        let m_duplicates = obs.counter("central.batches_duplicate");
        let m_events = obs.counter("central.events_ingested");
        let m_acks = obs.counter("central.acks_sent");
        let m_rows = obs.counter("central.rows_emitted");
        let m_windows_closed = obs.counter("central.windows_closed");
        let m_closed_by_watermark = obs.counter("central.windows_closed_by_watermark");
        let m_closed_by_grace = obs.counter("central.windows_closed_by_grace");
        let m_close_lag = obs.histogram("central.window_close_lag_ms");
        let m_windows_degraded = obs.counter("central.windows_degraded");
        let m_installed = obs.counter("central.queries_installed");
        let m_finished = obs.counter("central.queries_finished");
        let m_ingest_latency = obs.histogram("central.ingest_latency_ms");
        let m_budget_shed = obs.counter("overload.budget_shed_events");
        let m_groups_overflow = obs.counter("overload.groups_overflow");
        let m_decode_failures = obs.counter("central.decode_failures");
        let m_after_stop = obs.counter("central.batches_after_stop");
        let m_retransmitted = obs.counter("agent.retransmitted_batches");
        let m_batch_dropped = obs.counter("ledger.batch_dropped");
        let m_trace_dropped = obs.counter("trace.dropped_spans");
        let m_hosts_suspected = obs.gauge("central.hosts_suspected");
        let m_alerts_fired = obs.counter("alert.fired");
        let m_alerts_cleared = obs.counter("alert.cleared");
        let m_anomalies = obs.counter("alert.anomalies");
        let m_snaps_ooo = obs.counter("obs.snapshots_out_of_order");
        let tsdb = TelemetryStore::from_config(&config);
        let trace_thresh = trace_threshold(config.trace_sample_rate);
        let alerts = if config.alerts_enabled {
            AlertEngine::from_config(&config)
        } else {
            AlertEngine::new(config.alert_log_cap)
        };
        CentralNode {
            config,
            server: None,
            executors: HashMap::new(),
            streams: HashMap::new(),
            grace_timer_ms: None,
            events_ingested: 0,
            batches_received: 0,
            profiles: HashMap::new(),
            plan_profiles: HashMap::new(),
            traces: HashMap::new(),
            tsdb,
            trace_threshold: trace_thresh,
            meta_queries: HashSet::new(),
            obs,
            m_batches,
            m_duplicates,
            m_events,
            m_acks,
            m_rows,
            m_windows_closed,
            m_closed_by_watermark,
            m_closed_by_grace,
            m_close_lag,
            m_windows_degraded,
            m_installed,
            m_finished,
            m_ingest_latency,
            m_budget_shed,
            m_groups_overflow,
            m_decode_failures,
            m_after_stop,
            m_retransmitted,
            m_batch_dropped,
            m_trace_dropped,
            m_hosts_suspected,
            m_alerts_fired,
            m_alerts_cleared,
            m_anomalies,
            m_snaps_ooo,
            fold_seen: HashMap::new(),
            alerts,
            recorders: HashMap::new(),
            prov_hints: BTreeMap::new(),
            meta,
            meta_harness: None,
            meta_rid: 0,
            _marker: PhantomData,
        }
    }

    /// Number of active queries.
    pub fn active_queries(&self) -> usize {
        self.executors.len()
    }

    /// Execution profile of a query: the executor's own while the query
    /// runs, the copy retained at stop afterwards.
    pub fn profile(&self, qid: QueryId) -> Option<&QueryProfile> {
        match self.executors.get(&qid) {
            Some(exec) => Some(exec.profile()),
            None => self.profiles.get(&qid),
        }
    }

    /// `EXPLAIN ANALYZE` plan profile of a query: assembled fresh from the
    /// executor while the query runs, and served from the retained copy
    /// captured at stop afterwards.
    pub fn plan_profile(&self, qid: QueryId) -> Option<PlanProfile> {
        match self.executors.get(&qid) {
            Some(exec) => Some(exec.plan_profile()),
            None => self.plan_profiles.get(&qid).cloned(),
        }
    }

    /// Export a finished query's per-operator counters and worst
    /// estimate-error gauge into the node registry, so `scrubql stats` /
    /// `render_text` surface the plan audit alongside the other metrics.
    /// Counter values are integer-exact; the nondeterministic wall-clock
    /// `.ns` counters carry an `_ns` suffix so deterministic consumers
    /// (golden tests) can mask them.
    fn export_plan_metrics(&self, profile: &PlanProfile) {
        let q = profile.query_id;
        for op in &profile.ops {
            let label = op.metric_label();
            self.obs
                .counter(&format!("plan.q{q}.{label}.rows_in"))
                .add(op.rows_in);
            self.obs
                .counter(&format!("plan.q{q}.{label}.rows_out"))
                .add(op.rows_out);
            self.obs
                .counter(&format!("plan.q{q}.{label}.op_ns"))
                .add(op.ns);
        }
        // worst per-operator |est − actual| selectivity error, in basis
        // points (the registry's gauges are integers)
        self.obs
            .gauge(&format!("plan.q{q}.estimate_error_bp"))
            .set((profile.max_estimate_error() * 10_000.0).round() as i64);
    }

    /// Node-level metrics snapshot at sim time `at_ms`.
    pub fn metrics(&self, at_ms: i64) -> MetricsSnapshot {
        self.obs.snapshot(at_ms)
    }

    /// Lifecycle trace trees of a query (live or finished); `None` when
    /// tracing never recorded a span for it.
    pub fn trace_store(&self, qid: QueryId) -> Option<&TraceStore> {
        self.traces.get(&qid)
    }

    /// Build the loss ledger of a query from its profile. `None` for
    /// unknown queries.
    pub fn ledger(&self, qid: QueryId) -> Option<LossLedger> {
        self.profile(qid).map(LossLedger::build)
    }

    /// Ring of periodic node-metrics snapshots (oldest first) — the
    /// telemetry store's raw tier.
    pub fn history(&self) -> &MetricsHistory {
        self.tsdb.raw()
    }

    /// The multi-resolution telemetry store: raw ring plus mid/coarse
    /// rollup tiers with exemplar trace links — the data behind
    /// `scrubql watch`/`range`.
    pub fn telemetry(&self) -> &TelemetryStore {
        &self.tsdb
    }

    /// The health plane: alert rules, hysteresis states, anomaly
    /// baselines and the bounded alert log.
    pub fn alert_engine(&self) -> &AlertEngine {
        &self.alerts
    }

    /// The data-plane half of a query's flight recorder (window closes,
    /// retransmit episodes, host deaths, alert firings); retained after
    /// the query finishes. `None` for unknown queries.
    pub fn flight_recorder(&self, qid: QueryId) -> Option<&FlightRecorder> {
        self.recorders.get(&qid)
    }

    /// Tap-side counters of the embedded meta agent (how much of Scrub's
    /// own telemetry was collected/shipped).
    pub fn meta_agent_stats(&self) -> Option<scrub_agent::StatsSnapshot> {
        self.meta_harness
            .as_ref()
            .map(|h| h.agent().stats().snapshot())
    }

    /// Period of the housekeeping tick: dead-host detection, stream rows,
    /// the health plane. Windows do not wait for it — they close when a
    /// batch completes them or when their grace timer fires.
    fn advance_interval(&self) -> SimDuration {
        SimDuration::from_ms((self.config.default_window_ms / 4).max(100))
    }

    /// Hosts that reported at least once for `qid` but have been silent
    /// for `host_grace_ms` while some peer kept reporting. The reference
    /// point is the most recent arrival (not the wall clock), so a query
    /// whose *every* host went quiet — e.g. after `StopQuery` during the
    /// drain — suspects nobody.
    fn suspect_hosts(&self, qid: QueryId) -> HashSet<String> {
        let Some(streams) = self.streams.get(&qid) else {
            return HashSet::new();
        };
        let Some(newest) = streams.values().filter_map(HostStream::last_fresh_ms).max() else {
            return HashSet::new();
        };
        let cutoff = newest - self.config.host_grace_ms;
        streams
            .iter()
            .filter(|(_, s)| s.last_fresh_ms().is_some_and(|at| at < cutoff))
            .map(|(h, _)| h.clone())
            .collect()
    }

    fn refresh_dead_hosts(&mut self, now_ms: i64) {
        let mut union: BTreeSet<String> = BTreeSet::new();
        let mut first_hint: Option<AlertProvenance> = None;
        for qid in self.sorted_qids() {
            let dead = self.suspect_hosts(qid);
            if let Some(exec) = self.executors.get_mut(&qid) {
                if *exec.dead_hosts() != dead {
                    // journal hosts crossing into suspected-dead for
                    // this query (qids are sorted, so entry order is
                    // deterministic)
                    let mut newly: Vec<&String> = dead
                        .iter()
                        .filter(|h| !exec.dead_hosts().contains(*h))
                        .collect();
                    newly.sort();
                    if let Some(rec) = self.recorders.get_mut(&qid) {
                        for host in newly {
                            rec.record(
                                now_ms,
                                FlightEventKind::HostDead,
                                format!("host={host} silent past grace"),
                                AlertProvenance {
                                    query_id: Some(qid.0),
                                    host: Some(host.clone()),
                                    ledger_column: Some("host_dead".to_string()),
                                    trace_rid: None,
                                },
                            );
                        }
                    }
                    exec.set_dead_hosts(dead.clone());
                }
            }
            if !dead.is_empty() && first_hint.is_none() {
                let host = dead.iter().min().cloned();
                first_hint = Some(AlertProvenance {
                    query_id: Some(qid.0),
                    host,
                    ledger_column: Some("host_dead".to_string()),
                    trace_rid: None,
                });
            }
            union.extend(dead);
        }
        self.m_hosts_suspected.set(union.len() as i64);
        if let Some(hint) = first_hint {
            self.prov_hints
                .insert("central.hosts_suspected".to_string(), hint);
        }
    }

    /// Fold a fresh batch's piggybacked spans into the query's trace
    /// store and append the central-side hops (ingest, window assignment)
    /// for every traced request the batch carries.
    ///
    /// The hops read the wire bytes ahead of the executor. A frame whose
    /// headers do not scan gets none: the executor drops it whole and counts
    /// the one `central.decode_failures`.
    fn observe_ingest(&mut self, batch: &EventBatch, now_ms: i64) {
        let threshold = self.trace_threshold;
        if threshold == 0 {
            return;
        }
        let qid = batch.query_id;
        if !batch.spans.is_empty() {
            // Also for a late batch of a finished query: the agent-side
            // spans still show how far the events got.
            self.traces
                .entry(qid)
                .or_default()
                .ingest_spans(&batch.spans, &batch.host);
        }
        let Some(exec) = self.executors.get(&qid) else {
            return;
        };
        let mut traced: Vec<(u64, i64)> = Vec::new();
        let scanned = batch.payload.for_each_meta(|rid, ts| {
            if should_trace(rid, threshold) {
                traced.push((rid, ts));
            }
        });
        if scanned.is_err() {
            return;
        }
        let aggregate = matches!(exec.plan().mode, OutputMode::Aggregate { .. });
        let store = self.traces.entry(qid).or_default();
        let mut done: HashSet<u64> = HashSet::new();
        for (rid, ts) in traced {
            if done.insert(rid) {
                store.add(TraceSpan {
                    request_id: rid,
                    kind: SpanKind::Ingest,
                    at_ms: now_ms,
                    host: "central".to_string(),
                    detail: 0,
                });
            }
            if aggregate {
                for w in exec.covered_windows(ts) {
                    store.assign_window(rid, w, now_ms, "central");
                }
            }
        }
    }

    /// Fold one query's cumulative figures into the node counters. Part of
    /// the housekeeping tick and of nothing else: `hp.selected - hp.events`
    /// reads a batch still in flight as dropped, so a fold at the instant
    /// one host's batch lands would book its peers' batches of the same
    /// second — and the counters only ever go up.
    fn fold_totals(&mut self, qid: QueryId) {
        let Some(exec) = self.executors.get(&qid) else {
            return;
        };
        let profile = exec.profile();
        let overflow_total = profile.groups_overflow;
        let decode_failures_total = profile.decode_failures;
        let budget_shed_total = profile.total_budget_shed();
        let mut retransmitted_total = 0u64;
        let mut batch_dropped_total = 0u64;
        // most-implicated host per figure: largest cumulative
        // contribution, first name on ties (hosts is a BTreeMap, so the
        // scan order — and therefore the pick — is deterministic)
        let mut retransmit_host: Option<(u64, String)> = None;
        let mut dropped_host: Option<(u64, String)> = None;
        let mut shed_host: Option<(u64, String)> = None;
        for (host, hp) in &profile.hosts {
            retransmitted_total += hp.retransmitted_batches;
            if hp.retransmitted_batches > retransmit_host.as_ref().map_or(0, |(n, _)| *n) {
                retransmit_host = Some((hp.retransmitted_batches, host.clone()));
            }
            let gap = hp.selected.saturating_sub(hp.events);
            batch_dropped_total += gap;
            if gap > dropped_host.as_ref().map_or(0, |(n, _)| *n) {
                dropped_host = Some((gap, host.clone()));
            }
            if hp.budget_shed > shed_host.as_ref().map_or(0, |(n, _)| *n) {
                shed_host = Some((hp.budget_shed, host.clone()));
            }
        }
        let trace_dropped_total = self.traces.get(&qid).map_or(0, |s| s.dropped_spans);
        // Node-level counters advance by the per-query deltas so
        // `scrubql stats` shows fleet totals without double counting.
        // Every delta is deterministic per tick, so safe for alert rules
        // (the executor counts `groups_overflow` when the window that
        // dropped the rows closes, so the alert fires on the first tick
        // after the degraded rows go out). A positive delta also refreshes
        // the provenance hint for the metric: which query/host moved it
        // last.
        let seen = self.fold_seen.entry(qid).or_default();
        let d_shed = budget_shed_total.saturating_sub(seen.budget_shed);
        let d_retransmit = retransmitted_total.saturating_sub(seen.retransmitted);
        let d_dropped = batch_dropped_total.saturating_sub(seen.batch_dropped);
        self.m_budget_shed.add(d_shed);
        self.m_retransmitted.add(d_retransmit);
        self.m_batch_dropped.add(d_dropped);
        self.m_trace_dropped
            .add(trace_dropped_total.saturating_sub(seen.trace_dropped));
        let d_overflow = overflow_total.saturating_sub(seen.groups_overflow);
        self.m_groups_overflow.add(d_overflow);
        self.m_decode_failures
            .add(decode_failures_total.saturating_sub(seen.decode_failures));
        seen.groups_overflow = overflow_total.max(seen.groups_overflow);
        seen.decode_failures = decode_failures_total.max(seen.decode_failures);
        seen.budget_shed = budget_shed_total.max(seen.budget_shed);
        seen.retransmitted = retransmitted_total.max(seen.retransmitted);
        seen.batch_dropped = batch_dropped_total.max(seen.batch_dropped);
        seen.trace_dropped = trace_dropped_total.max(seen.trace_dropped);
        let hint = |host: Option<(u64, String)>, column: Option<&str>| AlertProvenance {
            query_id: Some(qid.0),
            host: host.map(|(_, h)| h),
            ledger_column: column.map(str::to_string),
            trace_rid: None,
        };
        if d_retransmit > 0 {
            self.prov_hints.insert(
                "agent.retransmitted_batches".to_string(),
                hint(retransmit_host, None),
            );
        }
        if d_dropped > 0 {
            self.prov_hints.insert(
                "ledger.batch_dropped".to_string(),
                hint(dropped_host, Some("batch_dropped")),
            );
        }
        if d_shed > 0 {
            self.prov_hints.insert(
                "overload.budget_shed_events".to_string(),
                hint(shed_host, Some("budget_shed")),
            );
        }
        if d_overflow > 0 {
            self.prov_hints.insert(
                "overload.groups_overflow".to_string(),
                hint(None, Some("groups_overflow")),
            );
        }
    }

    /// Drain one executor's window closes into the node metrics, the
    /// journals and (for application queries) `scrub_window` meta-events.
    fn observe_closes(&mut self, ctx: &mut Context<'_, E>, qid: QueryId, rows_emitted: u64) {
        let Some(exec) = self.executors.get_mut(&qid) else {
            return;
        };
        let closes = exec.take_window_closes();
        let is_meta_query = self.meta_queries.contains(&qid);
        self.m_rows.add(rows_emitted);
        self.m_windows_closed.add(closes.len() as u64);
        self.m_windows_degraded
            .add(closes.iter().filter(|c| c.degraded).count() as u64);
        let window_ms = exec.plan().window_ms;
        for c in &closes {
            // how long after its end the window's rows went out; a window
            // cut short by the end of the query has no such figure
            let by_rule = match c.rule {
                CloseRule::Watermark => Some(&self.m_closed_by_watermark),
                CloseRule::Grace => Some(&self.m_closed_by_grace),
                CloseRule::Finish => None,
            };
            if let Some(closed_by_rule) = by_rule {
                closed_by_rule.inc();
                self.m_close_lag
                    .record(ctx.now.as_ms() - (c.window_start_ms + window_ms));
            }
            if self.trace_threshold != 0 {
                if let Some(store) = self.traces.get_mut(&qid) {
                    store.close_window(c.window_start_ms, ctx.now.as_ms(), "central", c.degraded);
                }
            }
            if let Some(rec) = self.recorders.get_mut(&qid) {
                rec.record(
                    ctx.now.as_ms(),
                    if c.degraded {
                        FlightEventKind::WindowDegrade
                    } else {
                        FlightEventKind::WindowClose
                    },
                    format!(
                        "start={} rows={} by={}",
                        c.window_start_ms,
                        c.rows,
                        c.rule.as_str()
                    ),
                    AlertProvenance {
                        query_id: Some(qid.0),
                        ..Default::default()
                    },
                );
            }
        }
        // Continuously enforce the provenance invariant — every tapped
        // event is delivered or attributed to exactly one loss cause
        // (LossLedger::build debug-asserts reconciliation internally).
        #[cfg(debug_assertions)]
        {
            let ledger = LossLedger::build(exec.profile());
            debug_assert!(
                ledger.reconciles(),
                "loss ledger fails to reconcile for query {}",
                qid.0
            );
        }
        if let Some(harness) = &self.meta_harness {
            let now_ms = ctx.now.as_ms();
            for c in closes {
                // meta queries' own closes are not re-tapped: the
                // telemetry describes the application pipeline
                if is_meta_query {
                    continue;
                }
                self.meta_rid += 1;
                harness.agent().log_typed(
                    self.meta.window,
                    RequestId(self.meta_rid),
                    now_ms,
                    || ScrubWindowEvent {
                        query: qid.0 as i64,
                        window_start: c.window_start_ms,
                        rows: c.rows as i64,
                        degraded: c.degraded as i64,
                    },
                );
            }
        }
    }

    /// Advance one query: its finished rows go to the server, its closes
    /// into the profile and the node metrics.
    fn advance_query(&mut self, ctx: &mut Context<'_, E>, qid: QueryId) {
        let Some(exec) = self.executors.get_mut(&qid) else {
            return;
        };
        let rows = exec.advance(ctx.now.as_ms());
        let n = rows.len() as u64;
        if let (Some(server), false) = (self.server, rows.is_empty()) {
            ctx.send(server, E::wrap(ScrubMsg::Rows { rows }));
        }
        self.observe_closes(ctx, qid, n);
    }

    /// Query ids in ascending order, so cross-query side effects (row
    /// sends, provenance hints) happen in a deterministic order.
    fn sorted_qids(&self) -> Vec<QueryId> {
        let mut qids: Vec<QueryId> = self.executors.keys().copied().collect();
        qids.sort();
        qids
    }

    /// A batch of `qid` just moved a host's stream. The query is complete
    /// through the slowest targeted host's watermark — once all `selected`
    /// of them have one; a host yet to report could hold anything. If that
    /// covers an open window, close it now rather than on the next tick.
    /// A plan no server dispatched names no hosts and closes on the grace
    /// alone.
    fn close_on_watermark(&mut self, ctx: &mut Context<'_, E>, qid: QueryId) {
        let (Some(exec), Some(streams)) = (self.executors.get_mut(&qid), self.streams.get(&qid))
        else {
            return;
        };
        let selected = exec.plan().host_info.selected;
        if selected == 0 || streams.len() < selected {
            return;
        }
        let Some(through) = streams
            .values()
            .map(HostStream::watermark_ms)
            .min()
            .flatten()
        else {
            return;
        };
        if exec.set_complete_through(through) {
            self.advance_query(ctx, qid);
        }
    }

    /// Keep a one-shot timer armed for the earliest moment an open window
    /// falls to the grace fallback. Timers cannot be recalled, so one armed
    /// for a window that has since closed on its watermarks still fires,
    /// finds nothing due and re-arms for what is open then.
    fn arm_grace_timer(&mut self, ctx: &mut Context<'_, E>) {
        let next = self
            .executors
            .values()
            .filter_map(QueryExecutor::next_grace_close_ms)
            .min();
        let Some(due) = next else {
            return;
        };
        if self.grace_timer_ms.is_some_and(|armed| armed <= due) {
            return;
        }
        self.grace_timer_ms = Some(due);
        let delay = (due - ctx.now.as_ms()).max(1);
        ctx.set_timer(SimDuration::from_ms(delay), TIMER_CENTRAL_GRACE);
    }

    /// Record the periodic node snapshot into the telemetry store and
    /// stream it as `scrub_metric` meta-events.
    ///
    /// Rollup exemplars are resolved lazily — the store calls back only
    /// when a mid/coarse bucket seals and only for metrics that moved
    /// up — with the same deterministic scan alert provenance uses: the
    /// smallest traced rid (of the smallest query id) with a span in
    /// the max-delta raw interval. Out-of-order snapshots are dropped
    /// by the store and counted (`obs.snapshots_out_of_order`).
    ///
    /// The meta-stream tap mirrors the `scrub_batch` tap: one
    /// `scrub_metric` event per metric per tick through the embedded
    /// agent (a relaxed atomic load each while no meta query is live).
    /// Only [`scrub_obs::run_invariant`] metrics are streamed — `_ns`
    /// wall-clock series are skipped — so meta-query results keep the
    /// determinism contract.
    fn record_telemetry(&mut self, now_ms: i64) {
        let snap = self.obs.snapshot(now_ms);
        let prev = self.tsdb.raw().latest().cloned();
        let traces = &self.traces;
        // many metrics share a max-delta interval; resolve each once
        let mut cache: BTreeMap<(i64, i64), Option<u64>> = BTreeMap::new();
        let accepted = self
            .tsdb
            .record_with(snap.clone(), |_metric, from_ms, to_ms| {
                *cache.entry((from_ms, to_ms)).or_insert_with(|| {
                    let mut qids: Vec<QueryId> = traces.keys().copied().collect();
                    qids.sort();
                    qids.iter()
                        .find_map(|qid| traces[qid].first_rid_in(from_ms, to_ms))
                })
            });
        if !accepted {
            self.m_snaps_ooo.inc();
            return;
        }
        let (Some(prev), Some(harness)) = (prev, &self.meta_harness) else {
            // no delta yet (first snapshot) or not started: nothing to
            // stream — the event stream carries exactly the raw tier's
            // delta series
            return;
        };
        for (name, &v) in &snap.counters {
            if !scrub_obs::run_invariant(name) {
                continue;
            }
            let delta = v as i64 - prev.counters.get(name).map(|&p| p as i64).unwrap_or(0);
            self.meta_rid += 1;
            harness
                .agent()
                .log_typed(self.meta.metric, RequestId(self.meta_rid), now_ms, || {
                    ScrubMetricEvent {
                        metric: name.clone(),
                        kind: "counter".into(),
                        delta,
                        value: v as i64,
                    }
                });
        }
        for (name, &v) in &snap.gauges {
            if !scrub_obs::run_invariant(name) {
                continue;
            }
            let delta = v - prev.gauges.get(name).copied().unwrap_or(0);
            self.meta_rid += 1;
            harness
                .agent()
                .log_typed(self.meta.metric, RequestId(self.meta_rid), now_ms, || {
                    ScrubMetricEvent {
                        metric: name.clone(),
                        kind: "gauge".into(),
                        delta,
                        value: v,
                    }
                });
        }
    }

    /// Tick the alert engine against the just-recorded telemetry (read
    /// at raw resolution): attach provenance hints (enriched with a
    /// sampled trace rid where one carries a relevant span), count the
    /// events, and journal firings into the implicated query's flight
    /// recorder.
    fn evaluate_alerts(&mut self, now_ms: i64) {
        if !self.config.alerts_enabled {
            return;
        }
        let hints = &self.prov_hints;
        let traces = &self.traces;
        let events = self.alerts.tick(&self.tsdb, |rule, _value| {
            let mut prov = hints.get(&rule.metric).cloned().unwrap_or_default();
            if prov.trace_rid.is_none() && rule.metric == "agent.retransmitted_batches" {
                if let Some(store) = prov.query_id.and_then(|q| traces.get(&QueryId(q))) {
                    // smallest sampled rid that carries a retransmit
                    // hop (request_ids iterates a BTreeMap)
                    prov.trace_rid = store.request_ids().find(|&rid| {
                        store.trace(rid).is_some_and(|spans| {
                            spans.iter().any(|s| s.kind == SpanKind::Retransmit)
                        })
                    });
                }
            }
            prov
        });
        for ev in &events {
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
            if let Some(rec) = ev
                .provenance
                .query_id
                .and_then(|q| self.recorders.get_mut(&QueryId(q)))
            {
                rec.record(
                    now_ms,
                    kind,
                    format!("rule={} {}={}", ev.rule, ev.metric, ev.value),
                    ev.provenance.clone(),
                );
            }
        }
    }
}

impl<E: ScrubEnvelope> Node<E> for CentralNode<E> {
    fn on_start(&mut self, ctx: &mut Context<'_, E>) {
        ctx.set_timer(self.advance_interval(), TIMER_CENTRAL_ADVANCE);
        // a restart orphans the grace timer in flight
        self.grace_timer_ms = None;
        self.arm_grace_timer(ctx);
        // The embedded meta agent survives central restarts (pending
        // retransmits and all); it is only built on first start.
        if self.meta_harness.is_none() {
            self.meta_harness = Some(AgentHarness::new(
                ctx.self_meta().name.clone(),
                self.config.clone(),
                ctx.self_id,
            ));
        }
        if let Some(h) = &mut self.meta_harness {
            h.start(ctx);
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_, E>, from: NodeId, msg: E) {
        let Ok(scrub) = msg.open() else {
            return; // not a scrub message; central ignores app traffic
        };
        match scrub {
            // Control traffic for the embedded meta agent: central is a
            // *host* for queries over Scrub's own telemetry.
            m @ (ScrubMsg::InstallQuery { .. }
            | ScrubMsg::StopQuery { .. }
            | ScrubMsg::BatchAck { .. }) => {
                if let Some(h) = &mut self.meta_harness {
                    let _ = h.on_message(ctx, E::wrap(m));
                }
            }
            ScrubMsg::CentralInstall { plan } => {
                self.server = Some(from);
                let qid = plan.query_id;
                if plan.inputs.iter().any(|i| self.meta.contains(i.type_id)) {
                    self.meta_queries.insert(qid);
                }
                let exec = QueryExecutor::new(plan, self.config.window_grace_ms);
                self.executors.insert(qid, exec);
                self.recorders
                    .entry(qid)
                    .or_insert_with(|| FlightRecorder::new(qid.0, self.config.flight_recorder_cap));
                self.m_installed.inc();
            }
            ScrubMsg::CentralStop { query_id } => {
                self.streams.remove(&query_id);
                if let Some(mut exec) = self.executors.remove(&query_id) {
                    let (rows, summary) = exec.finish();
                    let n = rows.len() as u64;
                    // capture the final profiles (post-finish, so the
                    // close/render counters are complete) before the
                    // executor drops, then record the final closes
                    let plan_profile = exec.plan_profile();
                    self.export_plan_metrics(&plan_profile);
                    self.plan_profiles.insert(query_id, plan_profile);
                    self.profiles.insert(query_id, exec.profile().clone());
                    self.executors.insert(query_id, exec);
                    self.observe_closes(ctx, query_id, n);
                    self.fold_totals(query_id);
                    self.executors.remove(&query_id);
                    self.meta_queries.remove(&query_id);
                    self.fold_seen.remove(&query_id);
                    self.m_finished.inc();
                    if let Some(server) = self.server {
                        if !rows.is_empty() {
                            ctx.send(server, E::wrap(ScrubMsg::Rows { rows }));
                        }
                        ctx.send(server, E::wrap(ScrubMsg::Summary { summary }));
                    }
                }
            }
            ScrubMsg::Batch(batch) => {
                self.batches_received += 1;
                self.m_batches.inc();
                // Ack everything — duplicates and batches for unknown
                // (already-finished) queries too — so the sender stops
                // retransmitting even when the original ack was lost.
                ctx.send(
                    from,
                    E::wrap(ScrubMsg::BatchAck {
                        query_id: batch.query_id,
                        seq: batch.seq,
                    }),
                );
                self.m_acks.inc();
                let now_ms = ctx.now.as_ms();
                if !self.executors.contains_key(&batch.query_id) {
                    // A batch of a query that is not running here — stopped,
                    // so its delivery state and profile are final — is
                    // counted and otherwise dropped: a fresh stream would
                    // take a late copy of an ingested batch for news. Its
                    // spans still show how far its events got.
                    self.m_after_stop.inc();
                    self.observe_ingest(&batch, now_ms);
                    return;
                }
                let fresh = self
                    .streams
                    .entry(batch.query_id)
                    .or_default()
                    .entry(batch.host.clone())
                    .or_default()
                    .accept(batch.seq, batch.seq_floor, batch.watermark_ms, now_ms);
                // Tap the meta-event for every arrival (dupes included —
                // they are part of the transport's behavior), except for
                // batches that themselves carry meta-events.
                if let (Some(harness), false) =
                    (&self.meta_harness, self.meta.contains(batch.type_id))
                {
                    self.meta_rid += 1;
                    let (query, host, events, bytes, retransmit, duplicate) = (
                        batch.query_id.0 as i64,
                        batch.host.clone(),
                        batch.len() as i64,
                        batch.approx_bytes() as i64,
                        (batch.attempt > 0) as i64,
                        !fresh as i64,
                    );
                    harness.agent().log_typed(
                        self.meta.batch,
                        RequestId(self.meta_rid),
                        now_ms,
                        || ScrubBatchEvent {
                            query,
                            host,
                            events,
                            bytes,
                            retransmit,
                            duplicate,
                        },
                    );
                }
                if batch.attempt > 0 {
                    // journal the retransmit episode; consecutive
                    // resends from the same host coalesce into one run
                    if let Some(rec) = self.recorders.get_mut(&batch.query_id) {
                        rec.record_coalesced(
                            now_ms,
                            FlightEventKind::Retransmit,
                            format!("host={}", batch.host),
                            AlertProvenance {
                                query_id: Some(batch.query_id.0),
                                host: Some(batch.host.clone()),
                                ledger_column: None,
                                trace_rid: None,
                            },
                        );
                    }
                }
                if !fresh {
                    self.m_duplicates.inc();
                    if let Some(exec) = self.executors.get_mut(&batch.query_id) {
                        exec.note_duplicate(&batch.host, batch.len() as u64);
                    }
                    // its floor may still have closed a gap
                    self.close_on_watermark(ctx, batch.query_id);
                    return;
                }
                self.events_ingested += batch.len() as u64;
                self.m_events.add(batch.len() as u64);
                if let Some((_, newest)) = batch.payload.ts_range() {
                    self.m_ingest_latency.record(now_ms - newest);
                    if let Some(exec) = self.executors.get_mut(&batch.query_id) {
                        exec.record_ingest_latency(now_ms - newest);
                    }
                }
                self.observe_ingest(&batch, now_ms);
                let qid = batch.query_id;
                if let Some(exec) = self.executors.get_mut(&qid) {
                    exec.ingest(batch);
                }
                self.close_on_watermark(ctx, qid);
                self.arm_grace_timer(ctx);
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, E>, timer: u64) {
        if let Some(mut h) = self.meta_harness.take() {
            let consumed = h.on_timer(ctx, timer);
            self.meta_harness = Some(h);
            if consumed {
                return;
            }
        }
        let now_ms = ctx.now.as_ms();
        if timer == TIMER_CENTRAL_ADVANCE {
            self.refresh_dead_hosts(now_ms);
            for qid in self.sorted_qids() {
                self.advance_query(ctx, qid);
                self.fold_totals(qid);
            }
            self.record_telemetry(now_ms);
            self.evaluate_alerts(now_ms);
            ctx.set_timer(self.advance_interval(), TIMER_CENTRAL_ADVANCE);
        } else if timer == TIMER_CENTRAL_GRACE {
            // one armed before an earlier deadline superseded it is stale
            if self.grace_timer_ms.is_some_and(|armed| armed <= now_ms) {
                self.grace_timer_ms = None;
                for qid in self.sorted_qids() {
                    let exec = &self.executors[&qid];
                    if exec.next_grace_close_ms().is_some_and(|due| due <= now_ms) {
                        self.advance_query(ctx, qid);
                    }
                }
                self.arm_grace_timer(ctx);
            }
        }
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}
