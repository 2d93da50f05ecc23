//! The one file of the benchmark that names a Scrub type.
//!
//! Everything else in `scrub_perf` works with the plain types declared
//! here, so a change to a layer's interface is absorbed in this file and a
//! change inside a layer needs no edit at all. The public surface the
//! benchmark depends on:
//!
//! - `scrub_core`: `parse_query`, `compile`, `ScrubConfig::default()` (no
//!   field is read or overridden), `Value`'s variants, `EventTypeId`,
//!   `RequestId`, `QueryId`
//! - `scrub_agent`: `ScrubAgent::{new, install, log, take_batches, stats}`,
//!   `AgentStats::snapshot`, `EventBatch::{len, approx_bytes, query_id}`
//! - `scrub_central`: `PartitionedExecutor::{new(plan, grace, 1), ingest,
//!   advance, finish, plan_profile}`, `ResultRow::{to_tsv, window_start_ms,
//!   values, degraded}`
//! - `scrub_obs`: `PlanProfile::ops` (`label`, `rows_in`, `rows_out`, `ns`),
//!   `LossLedger` host buckets, `MetricsSnapshot`, `render_text`,
//!   `TelemetryStore::{from_config, record}`, `AlertEngine::{from_config,
//!   tick}`
//! - `adplatform`: `build_platform`, `PlatformConfig` (the busy shape of
//!   E07), `platform_registry`, `Platform::agent_stats`, `LineItem`
//! - `scrub_server`: `ScrubClient::{new, submit}`, `QueryHandle::{results,
//!   state, record, loss_ledger, plan_profile, stop}`,
//!   `CentralNode::{metrics, events_ingested}`
//! - `scrub_simnet`: `Sim::{run_until, now, events_processed, traffic}`
//!
//! Deliberately absent, so the roadmap can delete them without touching
//! the benchmark: the wire-format and partition knobs, the columnar frame
//! and resolved-expression types, the metrics-history module, everything
//! under `experiments/` and `crates/bench/src/util.rs`.

use std::sync::Arc;

use adplatform::{build_platform, platform_registry, LineItem, PlatformConfig, PlatformMsg};
use scrub_agent::{EventBatch, ScrubAgent};
use scrub_central::{PartitionedExecutor, ResultRow};
use scrub_core::config::ScrubConfig;
use scrub_core::event::RequestId;
use scrub_core::plan::{compile, CompiledQuery, QueryId};
use scrub_core::ql::parser::parse_query;
use scrub_core::schema::{EventTypeId, SchemaRegistry};
use scrub_core::value::Value;
use scrub_obs::{
    render_text, AlertEngine, AlertProvenance, MetricsSnapshot, PlanProfile, TelemetryStore,
};
use scrub_server::{CentralNode, QueryHandle, QueryState, ScrubClient};
use scrub_simnet::SimDuration;

/// How long after a window's end ScrubCentral keeps it open. The executor
/// takes it as an argument; this is the deployment default, restated here
/// so the benchmark reads no configuration field.
pub const GRACE_MS: i64 = 2_000;
/// The agents' time-triggered flush period (deployment default), which the
/// driver needs once: to flush the tail after the last event.
pub const FLUSH_INTERVAL_MS: i64 = 1_000;

/// One field of a logged tuple.
pub type Field = Value;

pub fn long(v: i64) -> Field {
    Value::Long(v)
}

pub fn double(v: f64) -> Field {
    Value::Double(v)
}

pub fn text(s: &str) -> Field {
    Value::Str(s.to_string())
}

/// One cell of a result row, reduced to what the oracles compare.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    Int(i64),
    Num(f64),
    Text(String),
    Other,
}

/// One result row as the oracles and the digest see it.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub window_start_ms: i64,
    pub cells: Vec<Cell>,
    pub degraded: bool,
    pub tsv: String,
}

fn row_of(r: &ResultRow) -> Row {
    Row {
        window_start_ms: r.window_start_ms,
        cells: r
            .values
            .iter()
            .map(|v| match v {
                Value::Int(_) | Value::Long(_) => Cell::Int(v.as_i64().unwrap_or(0)),
                Value::Float(_) | Value::Double(_) => Cell::Num(v.as_f64().unwrap_or(f64::NAN)),
                Value::Str(s) => Cell::Text(s.clone()),
                _ => Cell::Other,
            })
            .collect(),
        degraded: r.degraded,
        tsv: r.to_tsv(),
    }
}

/// Rows as the executor returned them, so that they can be converted
/// outside the timed call.
pub type RawRows = Vec<ResultRow>;

pub fn convert_rows(rows: &[ResultRow]) -> Vec<Row> {
    rows.iter().map(row_of).collect()
}

/// The event types the direct workloads log: the ad platform's `bid`
/// (user_id, exchange_id, line_item_id, campaign_id, bid_price, country,
/// city) and `exclusion` (line_item_id, campaign_id, reason, exchange_id,
/// publisher).
pub struct Schemas {
    registry: Arc<SchemaRegistry>,
    pub bid: u32,
    pub exclusion: u32,
}

pub fn schemas() -> Schemas {
    let (registry, events) = platform_registry();
    Schemas {
        registry,
        bid: events.bid.0,
        exclusion: events.exclusion.0,
    }
}

/// A parsed and compiled query: one host plan per FROM type plus the
/// central plan.
pub struct Compiled(CompiledQuery);

pub fn compile_query(schemas: &Schemas, src: &str, query_id: u64) -> Compiled {
    let spec = parse_query(src).unwrap_or_else(|e| panic!("parse {src:?}: {e}"));
    let compiled = compile(
        &spec,
        &schemas.registry,
        &ScrubConfig::default(),
        QueryId(query_id),
    )
    .unwrap_or_else(|e| panic!("compile {src:?}: {e}"));
    Compiled(compiled)
}

/// Cumulative tap counters of one agent (or a fleet of them).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TapCounters {
    pub log_calls: u64,
    pub predicates: u64,
    pub shipped: u64,
    pub shed: u64,
    pub bytes: u64,
    pub batches: u64,
}

impl TapCounters {
    fn of(s: &scrub_agent::StatsSnapshot) -> TapCounters {
        TapCounters {
            log_calls: s.events_seen,
            predicates: s.predicates_evaluated,
            shipped: s.events_shipped,
            shed: s.events_shed + s.events_budget_shed,
            bytes: s.bytes_shipped,
            batches: s.batches_flushed,
        }
    }

    fn zip(&self, other: &TapCounters, f: impl Fn(u64, u64) -> u64) -> TapCounters {
        TapCounters {
            log_calls: f(self.log_calls, other.log_calls),
            predicates: f(self.predicates, other.predicates),
            shipped: f(self.shipped, other.shipped),
            shed: f(self.shed, other.shed),
            bytes: f(self.bytes, other.bytes),
            batches: f(self.batches, other.batches),
        }
    }

    pub fn plus(&self, other: &TapCounters) -> TapCounters {
        self.zip(other, |a, b| a + b)
    }

    pub fn since(&self, earlier: &TapCounters) -> TapCounters {
        self.zip(earlier, |a, b| a - b)
    }
}

/// One application host's agent.
pub struct Host(ScrubAgent);

impl Host {
    pub fn new(name: &str) -> Self {
        Host(ScrubAgent::new(name, ScrubConfig::default()))
    }

    /// Install the query's host plan for `type_id`, if it taps that type.
    pub fn install(&self, query: &Compiled, type_id: u32) {
        for plan in &query.0.host_plans {
            if plan.type_id.0 == type_id {
                self.0
                    .install(plan.clone())
                    .unwrap_or_else(|e| panic!("install: {e}"));
            }
        }
    }

    #[inline]
    pub fn log(&self, type_id: u32, request_id: u64, ts_ms: i64, tuple: &[Field]) {
        self.0
            .log(EventTypeId(type_id), RequestId(request_id), ts_ms, tuple);
    }

    pub fn take_batches(&self, now_ms: i64) -> Vec<Batch> {
        self.0.take_batches(now_ms).into_iter().map(Batch).collect()
    }

    pub fn counters(&self) -> TapCounters {
        TapCounters::of(&self.0.stats().snapshot())
    }
}

/// One shipped batch.
pub struct Batch(EventBatch);

impl Batch {
    pub fn events(&self) -> u64 {
        self.0.len() as u64
    }

    pub fn wire_bytes(&self) -> u64 {
        self.0.approx_bytes() as u64
    }

    pub fn query_id(&self) -> u64 {
        self.0.query_id.0
    }
}

/// Counters of one plan operator as the program reports them.
#[derive(Debug, Clone, PartialEq)]
pub struct OpStat {
    pub label: String,
    pub rows_in: u64,
    pub rows_out: u64,
    pub ns: u64,
}

fn ops_of(profile: &PlanProfile) -> Vec<OpStat> {
    profile
        .ops
        .iter()
        .filter(|o| !o.host_side)
        .map(|o| OpStat {
            label: o.label.clone(),
            rows_in: o.rows_in,
            rows_out: o.rows_out,
            ns: o.ns,
        })
        .collect()
}

/// One query's single-partition executor at ScrubCentral.
pub struct Central(PartitionedExecutor);

impl Central {
    pub fn new(query: &Compiled) -> Self {
        Central(PartitionedExecutor::new(
            query.0.central.clone(),
            GRACE_MS,
            1,
        ))
    }

    pub fn ingest(&mut self, batch: Batch) {
        self.0.ingest(batch.0);
    }

    pub fn advance(&mut self, now_ms: i64) -> RawRows {
        self.0.advance(now_ms)
    }

    pub fn finish(&mut self) -> RawRows {
        self.0.finish().0
    }

    /// Central-side operators of the program's own `EXPLAIN ANALYZE`.
    pub fn op_profile(&self) -> Vec<OpStat> {
        ops_of(&self.0.plan_profile())
    }
}

/// The whole deployment on the simulator: ad platform, agents with
/// reliable shipping, ScrubCentral, the query server.
pub struct Platform(adplatform::Platform);

/// One accepted query.
#[derive(Clone, Copy)]
pub struct Query(QueryHandle);

/// Where one query's tapped events went, summed over hosts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ledger {
    pub tapped: u64,
    /// Load-shed, budget-shed or dropped in flight. Events sampled out were
    /// dropped on the query's request and are not counted as lost.
    pub lost: u64,
    pub reconciles: bool,
}

impl Platform {
    /// The busy deployment of E07: one Bid/Ad/Presentation server per DC,
    /// 400 page views/s, 60 extra line items that only ever filter.
    pub fn build(seed: u64) -> Self {
        let mut cfg = PlatformConfig {
            seed,
            page_views_per_sec: 400.0,
            bidservers_per_dc: 1,
            adservers_per_dc: 1,
            presservers_per_dc: 1,
            n_users: 2_000,
            ..PlatformConfig::default()
        };
        cfg.line_items.extend((0..60u64).map(|i| {
            let mut li = LineItem::new(2000 + i, 200 + i / 6, 0.3);
            li.targeting.segment = Some((i % 8) as u32);
            li.targeting.countries = vec!["zz".into()];
            li
        }));
        Platform(build_platform(cfg))
    }

    pub fn now_ms(&self) -> i64 {
        self.0.sim.now().as_ms()
    }

    pub fn run_for_ms(&mut self, ms: i64) {
        let until = self.0.sim.now() + SimDuration::from_ms(ms);
        self.0.sim.run_until(until);
    }

    pub fn first_bidserver(&self) -> String {
        self.0.sim.metas()[self.0.bidservers[0].0 as usize]
            .name
            .clone()
    }

    pub fn submit(&mut self, src: &str) -> Query {
        let handle = ScrubClient::new(&self.0.scrub)
            .submit(&mut self.0.sim, src)
            .unwrap_or_else(|e| panic!("submit {src:?}: {e}"));
        Query(handle)
    }

    /// Tap counters summed over every application host.
    pub fn tap_counters(&self) -> TapCounters {
        self.0
            .agent_stats()
            .iter()
            .fold(TapCounters::default(), |acc, (_, s)| {
                acc.plus(&TapCounters::of(s))
            })
    }

    pub fn sim_events(&self) -> u64 {
        self.0.sim.events_processed()
    }

    pub fn wire_bytes_total(&self) -> u64 {
        self.0.sim.traffic().total_bytes()
    }

    fn central(&self) -> &CentralNode<PlatformMsg> {
        self.0
            .sim
            .node_as::<CentralNode<PlatformMsg>>(self.0.scrub.central)
            .expect("central node")
    }

    /// Events ScrubCentral has ingested across all queries.
    pub fn central_events(&self) -> u64 {
        self.central().events_ingested
    }

    pub fn central_metrics(&self, at_ms: i64) -> Snapshot {
        Snapshot(self.central().metrics(at_ms))
    }

    /// `(window_start_ms, degraded)` of the rows from index `from` on.
    pub fn row_windows(&self, q: Query, from: usize) -> impl Iterator<Item = (i64, bool)> + '_ {
        q.0.results(&self.0.sim)[from..]
            .iter()
            .map(|r| (r.window_start_ms, r.degraded))
    }

    pub fn rows(&self, q: Query) -> Vec<Row> {
        convert_rows(q.0.results(&self.0.sim))
    }

    pub fn is_done(&self, q: Query) -> bool {
        q.0.state(&self.0.sim) == Some(QueryState::Done)
    }

    /// Sim time the query's first rows reached the query server.
    pub fn first_rows_at_ms(&self, q: Query) -> Option<i64> {
        q.0.record(&self.0.sim).and_then(|r| r.first_rows_at_ms)
    }

    pub fn stop(&mut self, q: Query) {
        q.0.stop(&mut self.0.sim);
    }

    pub fn ledger(&self, q: Query) -> Option<Ledger> {
        let l = q.0.loss_ledger(&self.0.sim)?;
        Some(Ledger {
            tapped: l.total(|h| h.tapped),
            lost: l.total(|h| h.load_shed + h.budget_shed + h.batch_dropped),
            reconciles: l.reconciles(),
        })
    }

    pub fn op_profile(&self, q: Query) -> Vec<OpStat> {
        q.0.plan_profile(&self.0.sim)
            .map(|p| ops_of(&p))
            .unwrap_or_default()
    }
}

/// One snapshot of ScrubCentral's metrics registry.
#[derive(Clone)]
pub struct Snapshot(MetricsSnapshot);

impl Snapshot {
    pub fn metrics_registered(&self) -> usize {
        self.0.counters.len() + self.0.gauges.len() + self.0.histograms.len()
    }

    pub fn render_text(&self) -> String {
        render_text(&self.0)
    }

    pub fn at(mut self, at_ms: i64) -> Self {
        self.0.at_ms = at_ms;
        self
    }
}

/// The health plane's per-tick work, stood up outside the simulator so one
/// tick can be timed: the telemetry store and the alert engine.
pub struct HealthPlane {
    store: TelemetryStore,
    alerts: AlertEngine,
}

impl HealthPlane {
    pub fn new() -> Self {
        let config = ScrubConfig::default();
        HealthPlane {
            store: TelemetryStore::from_config(&config),
            alerts: AlertEngine::from_config(&config),
        }
    }

    pub fn record(&mut self, snap: Snapshot) -> bool {
        self.store.record(snap.0)
    }

    pub fn alert_tick(&mut self) -> usize {
        self.alerts
            .tick(&self.store, |_, _| AlertProvenance::default())
            .len()
    }
}
