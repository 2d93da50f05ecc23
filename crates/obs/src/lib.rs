//! # scrub-obs — Scrub's self-observability plane.
//!
//! The paper's pitch is troubleshooting *other* systems online without
//! hurting them; this crate turns the same discipline on Scrub itself.
//! Three layers:
//!
//! * [`metrics`] — a lock-light registry of counters, gauges and
//!   fixed-bucket histograms. Handles are `Arc`s updated with relaxed
//!   atomics (no lock on the update path); the registry lock is taken
//!   only to create a metric or take a [`MetricsSnapshot`]. Snapshots
//!   are plain data: mergeable across nodes and diffable across time,
//!   timestamped on the *sim* clock so they line up with query windows.
//! * [`profile`] — per-query execution profiles, written by the query's
//!   executor at ScrubCentral: events tapped/selected/shed per host, bytes
//!   first-sent vs retransmitted, batches acked, windows
//!   opened/closed/degraded, join-state rows held, and an ingest-latency
//!   histogram.
//! * [`meta`] — `scrub_batch` / `scrub_window` meta-event types emitted
//!   through the very same `log()` tap the application uses, so ScrubQL
//!   queries can run over Scrub's own telemetry (dogfooding).
//! * [`trace`] — deterministic, budgeted event-lifecycle traces: a
//!   seeded hash of the request id marks a small fraction of tapped
//!   events, which accumulate causally-ordered [`TraceSpan`]s at every
//!   pipeline hop, assembled into per-query [`TraceStore`]s at central.
//! * [`ledger`] — per-query, per-host loss provenance: every tapped
//!   event that missed a result is attributed to a cause (sampled-out,
//!   load-shed, dropped in flight, …), derived from the profile alone,
//!   under the enforced invariant
//!   `tapped == delivered + sampled_out + load_shed + batch_dropped`.
//! * [`opstats`] — per-operator runtime statistics ([`PlanProfile`]):
//!   rows in/out, bytes and ns per plan operator, paired with the
//!   planner's estimates — the data behind `scrubql explain analyze`.
//! * [`tsdb`] — the multi-resolution [`TelemetryStore`]: a fixed-capacity
//!   raw ring of periodic snapshots plus bounded 10×/100× rollup tiers
//!   with deterministic counter/gauge rollup semantics and exemplar trace
//!   links, the data behind `scrubql watch`/`range` and the
//!   `scrub_metric` meta-stream.
//! * [`export`] — stable, sorted Prometheus-style text exposition
//!   ([`Registry::render_text`]) so runs leave a scrapeable artifact.
//! * [`alert`] — a deterministic rule engine (threshold / delta /
//!   burn-rate with hysteresis) plus Welford-baseline anomaly
//!   detection evaluated at each snapshot tick, feeding a bounded
//!   byte-stable [`AlertLog`] whose events carry provenance links. The
//!   rules, watchlist, hysteresis and caps are fixed here, not configured.
//! * [`timeline`] — a per-query [`FlightRecorder`]: a bounded journal
//!   of lifecycle events (admission, plan, windows, evictions,
//!   retransmit episodes, alert firings) behind `scrubql timeline`.
//! * [`health`] — ScrubCentral's [`HealthPlane`]: the node registry,
//!   telemetry store, alert engine and data-plane journals behind one
//!   housekeeping tick that folds per-query figures into fleet counters,
//!   records a snapshot and ticks the alerts.

pub mod alert;
pub mod export;
pub mod health;
pub mod ledger;
pub mod meta;
pub mod metrics;
pub mod opstats;
pub mod profile;
pub mod timeline;
pub mod trace;
pub mod tsdb;

pub use alert::{
    default_rules, AlertEngine, AlertEvent, AlertEventKind, AlertLog, AlertProvenance, AlertRule,
    AnomalyDetector, RuleKind,
};
pub use export::{render_text, render_text_with_exemplars};
pub use health::HealthPlane;
pub use ledger::{HostLosses, LossLedger};
pub use meta::{
    register_meta_events, MetaEvents, ScrubBatchEvent, ScrubMetricEvent, ScrubWindowEvent,
};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, MetricsSnapshot, Registry};
pub use opstats::{OperatorStats, PlanProfile};
pub use profile::{HostProfile, QueryProfile, TypeCounters};
pub use timeline::{
    merge_timelines, render_timeline, render_timeline_json, FlightEvent, FlightEventKind,
    FlightRecorder, FLIGHT_RECORDER_CAP,
};
pub use trace::{should_trace, trace_threshold, SpanKind, TraceSpan, TraceStore};
pub use tsdb::{
    run_invariant, sparkline, MetricPoint, Resolution, RolledPoint, RollupKind, TelemetryStore,
};
