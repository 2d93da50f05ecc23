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
//! pressure, ingest latency); central serves it and builds the loss ledger
//! from it. The [`HealthPlane`] holds the node registry and, on the
//! housekeeping tick, folds the profiles into fleet counters, records them
//! and ticks the alerts. Central also *dogfoods* Scrub: an embedded
//! [`AgentHarness`] taps a `scrub_batch` meta-event per received batch, a
//! `scrub_window` meta-event per window close and a `scrub_metric`
//! meta-event per metric per tick, through the same `log()` fast path the
//! application uses. A ScrubQL query targeting
//! `@[Service in ScrubCentral]` runs over this telemetry like any other
//! query — selection, windows, sampling, reliable shipment and all.
//! Batches that themselves carry meta-events are not re-tapped, which
//! breaks the feedback loop after one hop.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::marker::PhantomData;
use std::sync::Arc;

use scrub_agent::EventBatch;
use scrub_central::{CloseRule, QueryExecutor};
use scrub_core::config::ScrubConfig;
use scrub_core::event::RequestId;
use scrub_core::plan::{OutputMode, QueryId, DEFAULT_WINDOW_MS};
use scrub_core::schema::SchemaRegistry;
use scrub_obs::{
    register_meta_events, should_trace, trace_threshold, AlertEngine, AlertProvenance, Counter,
    FlightEventKind, FlightRecorder, Gauge, HealthPlane, Histogram, LossLedger, MetaEvents,
    MetricsSnapshot, PlanProfile, QueryProfile, ScrubBatchEvent, ScrubMetricEvent,
    ScrubWindowEvent, SpanKind, TelemetryStore, TraceSpan, TraceStore,
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
    /// Per-query execution profiles and `EXPLAIN ANALYZE` plan profiles,
    /// captured at query stop and retained so `profile <qid>` and
    /// `explain analyze <qid>` work post-hoc. Live queries read the
    /// executor directly instead.
    profiles: HashMap<QueryId, QueryProfile>,
    plan_profiles: HashMap<QueryId, PlanProfile>,
    /// Per-query lifecycle trace trees assembled from the spans batches
    /// piggyback; retained after a query finishes, like `profiles`.
    traces: HashMap<QueryId, TraceStore>,
    /// Precomputed trace-sampler threshold (0 = tracing disabled).
    trace_threshold: u64,
    /// Queries whose inputs are meta-events (their window closes are not
    /// re-tapped as `scrub_window`).
    meta_queries: HashSet<QueryId>,
    /// The node registry, telemetry store, alert engine and data-plane
    /// journals, advanced by the housekeeping tick.
    health: HealthPlane,
    /// Data-plane metrics, registered in the health plane's registry.
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
    m_after_stop: Arc<Counter>,
    m_hosts_suspected: Arc<Gauge>,
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

impl<E: ScrubEnvelope> CentralNode<E> {
    /// Create a central node; `server` is learned from the first
    /// `CentralInstall` sender if not preset. The schema registry is the
    /// deployment-wide one — central registers the `scrub_batch` /
    /// `scrub_window` / `scrub_metric` meta-event types into it
    /// (idempotently) so ScrubQL queries over Scrub's own telemetry
    /// validate.
    pub fn new(config: ScrubConfig, registry: Arc<SchemaRegistry>) -> Self {
        let meta = register_meta_events(&registry).expect("meta-event schemas register cleanly");
        let health = HealthPlane::default();
        let obs = health.registry();
        CentralNode {
            server: None,
            executors: HashMap::new(),
            streams: HashMap::new(),
            grace_timer_ms: None,
            events_ingested: 0,
            profiles: HashMap::new(),
            plan_profiles: HashMap::new(),
            traces: HashMap::new(),
            trace_threshold: trace_threshold(config.trace_sample_rate),
            meta_queries: HashSet::new(),
            m_batches: obs.counter("central.batches_received"),
            m_duplicates: obs.counter("central.batches_duplicate"),
            m_events: obs.counter("central.events_ingested"),
            m_acks: obs.counter("central.acks_sent"),
            m_rows: obs.counter("central.rows_emitted"),
            m_windows_closed: obs.counter("central.windows_closed"),
            m_closed_by_watermark: obs.counter("central.windows_closed_by_watermark"),
            m_closed_by_grace: obs.counter("central.windows_closed_by_grace"),
            m_close_lag: obs.histogram("central.window_close_lag_ms"),
            m_windows_degraded: obs.counter("central.windows_degraded"),
            m_installed: obs.counter("central.queries_installed"),
            m_finished: obs.counter("central.queries_finished"),
            m_ingest_latency: obs.histogram("central.ingest_latency_ms"),
            m_after_stop: obs.counter("central.batches_after_stop"),
            m_hosts_suspected: obs.gauge("central.hosts_suspected"),
            health,
            config,
            meta,
            meta_harness: None,
            meta_rid: 0,
            _marker: PhantomData,
        }
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

    /// Node-level metrics snapshot at sim time `at_ms`.
    pub fn metrics(&self, at_ms: i64) -> MetricsSnapshot {
        self.health.registry().snapshot(at_ms)
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

    /// The multi-resolution telemetry store: raw ring plus mid/coarse
    /// rollup tiers with exemplar trace links — the data behind
    /// `scrubql watch`/`range`.
    pub fn telemetry(&self) -> &TelemetryStore {
        self.health.telemetry()
    }

    /// Record into `store` instead of the default store (other tier
    /// sizes); call before the run starts.
    pub fn set_telemetry(&mut self, store: TelemetryStore) {
        self.health.set_telemetry(store);
    }

    /// Alert rules, hysteresis states, anomaly baselines and the bounded
    /// alert log.
    pub fn alert_engine(&self) -> &AlertEngine {
        self.health.alerts()
    }

    /// The data-plane half of a query's flight recorder (window closes,
    /// retransmit episodes, host deaths, alert firings); retained after
    /// the query finishes. `None` until something is journaled.
    pub fn flight_recorder(&self, qid: QueryId) -> Option<&FlightRecorder> {
        self.health.flight_recorder(qid)
    }

    /// Period of the housekeeping tick: dead-host detection, stream rows,
    /// the health plane. Windows do not wait for it — they close when a
    /// batch completes them or when their grace timer fires.
    fn advance_interval(&self) -> SimDuration {
        SimDuration::from_ms((DEFAULT_WINDOW_MS / 4).max(100))
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
                    let journal = self.health.recorder(qid);
                    for host in newly {
                        let detail = format!("host={host} silent past grace");
                        let kind = FlightEventKind::HostDead;
                        journal.journal(now_ms, kind, detail, Some(host), Some("host_dead"));
                    }
                    exec.set_dead_hosts(dead.clone());
                }
            }
            if first_hint.is_none() {
                first_hint = dead
                    .iter()
                    .min()
                    .map(|h| AlertProvenance::implicating(qid.0, Some(h), Some("host_dead")));
            }
            union.extend(dead);
        }
        self.m_hosts_suspected.set(union.len() as i64);
        if let Some(hint) = first_hint {
            self.health.hint("central.hosts_suspected", hint);
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

    /// Drain one executor's window closes into the node metrics, the
    /// journals and (for application queries) `scrub_window` meta-events.
    fn observe_closes(&mut self, ctx: &mut Context<'_, E>, qid: QueryId, rows_emitted: u64) {
        let Some(exec) = self.executors.get_mut(&qid) else {
            return;
        };
        let closes = exec.take_window_closes();
        let now_ms = ctx.now.as_ms();
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
                    .record(now_ms - (c.window_start_ms + window_ms));
            }
            if self.trace_threshold != 0 {
                if let Some(store) = self.traces.get_mut(&qid) {
                    store.close_window(c.window_start_ms, now_ms, "central", c.degraded);
                }
            }
            let kind = if c.degraded {
                FlightEventKind::WindowDegrade
            } else {
                FlightEventKind::WindowClose
            };
            let (start, rows, by) = (c.window_start_ms, c.rows, c.rule.as_str());
            let detail = format!("start={start} rows={rows} by={by}");
            self.health
                .recorder(qid)
                .journal(now_ms, kind, detail, None, None);
            // meta queries' own closes are not re-tapped: the telemetry
            // describes the application pipeline
            if let (Some(harness), false) = (&self.meta_harness, is_meta_query) {
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

    /// The earliest moment an open window of any query falls to the
    /// grace fallback.
    fn next_grace_close_ms(&self) -> Option<i64> {
        self.executors
            .values()
            .filter_map(QueryExecutor::next_grace_close_ms)
            .min()
    }

    /// Keep a one-shot timer armed for the earliest grace deadline, given
    /// a deadline `next` that may have fallen. Timers cannot be recalled,
    /// so one armed for a window that has since closed on its watermarks
    /// still fires, finds nothing due and re-arms for what is open then.
    fn arm_grace_timer(&mut self, ctx: &mut Context<'_, E>, next: Option<i64>) {
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

    /// Stream a tick's accepted snapshot as `scrub_metric` meta-events:
    /// one per metric through the embedded agent (a relaxed atomic load
    /// each while no meta query is live), carrying exactly the raw tier's
    /// delta series.
    fn tap_metrics(&mut self, now_ms: i64, prev: &MetricsSnapshot, snap: &MetricsSnapshot) {
        let Some(harness) = &self.meta_harness else {
            return;
        };
        let counters = snap.counters.iter().map(|(name, &v)| {
            let before = prev.counters.get(name).map_or(0, |&p| p as i64);
            (name, "counter", v as i64, before)
        });
        let gauges = snap.gauges.iter().map(|(name, &v)| {
            let before = prev.gauges.get(name).copied().unwrap_or(0);
            (name, "gauge", v, before)
        });
        for (name, kind, value, before) in counters.chain(gauges) {
            self.meta_rid += 1;
            harness
                .agent()
                .log_typed(self.meta.metric, RequestId(self.meta_rid), now_ms, || {
                    ScrubMetricEvent {
                        metric: name.clone(),
                        kind: kind.into(),
                        delta: value - before,
                        value,
                    }
                });
        }
    }
}

impl<E: ScrubEnvelope> Node<E> for CentralNode<E> {
    fn on_start(&mut self, ctx: &mut Context<'_, E>) {
        ctx.set_timer(self.advance_interval(), TIMER_CENTRAL_ADVANCE);
        // a restart orphans the grace timer in flight
        self.grace_timer_ms = None;
        self.arm_grace_timer(ctx, self.next_grace_close_ms());
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
                self.m_installed.inc();
            }
            ScrubMsg::CentralStop { query_id } => {
                self.streams.remove(&query_id);
                let Some(exec) = self.executors.get_mut(&query_id) else {
                    return;
                };
                let (rows, summary) = exec.finish();
                self.observe_closes(ctx, query_id, rows.len() as u64);
                // retain the final profiles (post-finish, so the
                // close/render counters are complete) and fold the last
                // figures once
                let exec = self.executors.remove(&query_id).expect("finished above");
                self.plan_profiles.insert(query_id, exec.plan_profile());
                let trace = self.traces.get(&query_id);
                self.health.retire(query_id, exec.profile(), trace);
                self.profiles.insert(query_id, exec.profile().clone());
                self.meta_queries.remove(&query_id);
                self.m_finished.inc();
                if let Some(server) = self.server {
                    if !rows.is_empty() {
                        ctx.send(server, E::wrap(ScrubMsg::Rows { rows }));
                    }
                    ctx.send(server, E::wrap(ScrubMsg::Summary { summary }));
                }
            }
            ScrubMsg::Batch(batch) => {
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
                    // the id is drawn whether or not a meta query is live,
                    // so meta request ids (and their trace sampling) do
                    // not depend on it; the record is built only if one is
                    self.meta_rid += 1;
                    harness.agent().log_typed(
                        self.meta.batch,
                        RequestId(self.meta_rid),
                        now_ms,
                        || ScrubBatchEvent {
                            query: batch.query_id.0 as i64,
                            host: batch.host.clone(),
                            events: batch.len() as i64,
                            bytes: batch.approx_bytes() as i64,
                            retransmit: (batch.attempt > 0) as i64,
                            duplicate: !fresh as i64,
                        },
                    );
                }
                if batch.attempt > 0 {
                    // journal the retransmit episode; consecutive
                    // resends from the same host coalesce into one run
                    let (kind, detail) =
                        (FlightEventKind::Retransmit, format!("host={}", batch.host));
                    let journal = self.health.recorder(batch.query_id);
                    journal.journal(now_ms, kind, detail, Some(&batch.host), None);
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
                // Only this query's deadline can have fallen: a deadline
                // drops only when its query opens a window, and only ingest
                // opens one.
                let next = self
                    .executors
                    .get(&qid)
                    .and_then(QueryExecutor::next_grace_close_ms);
                self.arm_grace_timer(ctx, next);
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
            }
            let profiles = self.executors.iter().map(|(&q, exec)| (q, exec.profile()));
            if let Some((prev, snap)) = self.health.observe(now_ms, profiles, &self.traces) {
                self.tap_metrics(now_ms, &prev, &snap);
            }
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
                self.arm_grace_timer(ctx, self.next_grace_close_ms());
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
