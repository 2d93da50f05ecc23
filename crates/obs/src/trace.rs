//! Event-lifecycle traces: where did one request's events actually go?
//!
//! Scrub trades completeness for host safety at half a dozen places —
//! sampling, shedding, a lossy network, dedup, degraded windows — and an
//! aggregate counter cannot say *which* hop swallowed a given event. A
//! trace can. A deterministic sampler marks a small fraction of tapped
//! events by request id; marked events accumulate causally-ordered
//! [`TraceSpan`]s at every hop of the pipeline (tap selection on the
//! host, batch enqueue, shipment and retransmission, central ingest,
//! window assignment and close), timestamped on the sim clock. Spans ride
//! to ScrubCentral piggybacked on the
//! [`EventBatch`](../../scrub_agent/struct.EventBatch.html)es the agent
//! ships anyway, and central assembles them into per-query trace trees
//! (a [`TraceStore`]) queryable via `scrubql trace <qid> [request-id]`.
//!
//! # Determinism and host impact
//!
//! The sampling decision is a pure function of the request id — a seeded
//! splitmix64 hash compared against a threshold precomputed from
//! `ScrubConfig::trace_sample_rate` — so every host, every central node
//! and every rerun of a seeded scenario traces exactly the same
//! requests. Tracing must never violate the host-impact contract: the
//! disabled path (`trace_sample_rate == 0`, the default) is a single
//! integer compare against a precomputed threshold of 0, and enabled
//! tracing is bounded by a hard per-host span budget
//! ([`TRACE_SPAN_BUDGET`]) — once the agent's buffered spans hit the
//! budget, further spans are dropped and counted
//! (`agent.trace_spans_shed`), never allocated.

use std::collections::{BTreeMap, BTreeSet};

use serde::{Deserialize, Serialize};

/// Fixed seed for the trace sampler's request-id hash. A constant (not a
/// config knob) so agents and every central node agree on which requests
/// are traced without coordination.
pub const TRACE_SEED: u64 = 0x5c12_abd1_a902_77e5;

/// Hard cap on trace spans an agent buffers across all its queries; a
/// span past it is dropped and counted, so tracing at any rate stays
/// inside the host-impact contract.
pub const TRACE_SPAN_BUDGET: usize = 256;

/// One hop in an event's lifecycle. The declaration order is the causal
/// pipeline order; [`TraceStore`] sorts same-timestamp spans by it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum SpanKind {
    /// The application logged the event and it matched a query's
    /// selection at the tap.
    Emit,
    /// The subscription's tap selected the event (predicate passed).
    TapSelect,
    /// The per-event sampler dropped the event (`detail` = 0).
    SampledOut,
    /// Load shedding dropped the event (budget exhausted this second).
    Shed,
    /// The per-host CPU budget tracker dropped the event (shipping it
    /// would have broken `host_cpu_budget` this second).
    BudgetShed,
    /// The event was projected and enqueued into the subscription batch.
    Enqueue,
    /// The batch carrying this event was first shipped (`detail` = seq).
    Send,
    /// The batch was retransmitted (`detail` = attempt number).
    Retransmit,
    /// ScrubCentral ingested the (fresh) batch.
    Ingest,
    /// The event was assigned to a tumbling window (`detail` = window
    /// start ms).
    WindowAssign,
    /// The window holding the event closed (`detail` = window start ms;
    /// `degraded` windows use [`SpanKind::WindowDegrade`] instead).
    WindowClose,
    /// The window closed while a targeted host was suspected dead.
    WindowDegrade,
}

/// One span of one traced request's lifecycle.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceSpan {
    /// The traced request.
    pub request_id: u64,
    /// Which hop.
    pub kind: SpanKind,
    /// Sim-clock time of the hop (ms).
    pub at_ms: i64,
    /// Node that recorded the span. Agents leave this empty on the wire
    /// (the enclosing batch already names the host) and central backfills
    /// it at ingest.
    #[serde(default)]
    pub host: String,
    /// Hop-specific detail: seq for [`SpanKind::Send`], attempt for
    /// [`SpanKind::Retransmit`], window start for the window hops, 0
    /// otherwise.
    #[serde(default)]
    pub detail: i64,
}

impl TraceSpan {
    /// Approximate wire size of one span (piggybacked on a batch).
    pub const APPROX_BYTES: usize = 32;

    /// A span with no host attribution (backfilled at central).
    pub fn new(request_id: u64, kind: SpanKind, at_ms: i64, detail: i64) -> Self {
        TraceSpan {
            request_id,
            kind,
            at_ms,
            host: String::new(),
            detail,
        }
    }
}

/// splitmix64 finalizer: cheap and well distributed over sequential
/// request ids.
#[inline]
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Precompute the sampler threshold for a trace rate in `[0, 1]`.
/// `0` means tracing disabled — the hot-path check is `threshold != 0`.
pub fn trace_threshold(rate: f64) -> u64 {
    if rate <= 0.0 {
        0
    } else if rate >= 1.0 {
        u64::MAX
    } else {
        (rate * u64::MAX as f64) as u64
    }
}

/// The deterministic sampling decision: is this request traced at this
/// threshold? Pure in `(request_id, threshold)` — every node agrees.
#[inline]
pub fn should_trace(request_id: u64, threshold: u64) -> bool {
    threshold != 0 && mix(request_id ^ TRACE_SEED) <= threshold
}

/// Default cap on distinct traced requests a [`TraceStore`] retains per
/// query; beyond it new requests are dropped (counted) so a long query
/// cannot grow central's memory unboundedly.
pub const DEFAULT_TRACE_STORE_CAP: usize = 4_096;

/// Per-query trace trees assembled by ScrubCentral: request id → the
/// causally-ordered spans seen so far.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceStore {
    /// Max distinct traced requests retained.
    cap: usize,
    /// Spans per traced request (sorted on read, not on insert).
    traces: BTreeMap<u64, Vec<TraceSpan>>,
    /// Window start → traced requests assigned to it, so close/degrade
    /// spans can be fanned out when the executor closes the window.
    window_index: BTreeMap<i64, BTreeSet<u64>>,
    /// Spans dropped because the store was at capacity.
    pub dropped_spans: u64,
}

impl Default for TraceStore {
    fn default() -> Self {
        Self::new(DEFAULT_TRACE_STORE_CAP)
    }
}

impl TraceStore {
    /// Empty store retaining up to `cap` distinct traced requests.
    pub fn new(cap: usize) -> Self {
        TraceStore {
            cap: cap.max(1),
            traces: BTreeMap::new(),
            window_index: BTreeMap::new(),
            dropped_spans: 0,
        }
    }

    /// Number of traced requests held.
    pub fn len(&self) -> usize {
        self.traces.len()
    }

    /// True when no request has been traced yet.
    pub fn is_empty(&self) -> bool {
        self.traces.is_empty()
    }

    /// Traced request ids, ascending.
    pub fn request_ids(&self) -> impl Iterator<Item = u64> + '_ {
        self.traces.keys().copied()
    }

    /// Total spans across all traced requests.
    pub fn span_count(&self) -> usize {
        self.traces.values().map(Vec::len).sum()
    }

    /// Smallest traced request id with at least one span in the
    /// sim-time interval `(from_ms, to_ms]` — the deterministic
    /// exemplar pick for rolled telemetry points (requests iterate in
    /// `BTreeMap` order). `None` when
    /// no traced request was active in the interval.
    pub fn first_rid_in(&self, from_ms: i64, to_ms: i64) -> Option<u64> {
        self.traces.iter().find_map(|(&rid, spans)| {
            spans
                .iter()
                .any(|s| s.at_ms > from_ms && s.at_ms <= to_ms)
                .then_some(rid)
        })
    }

    /// Add one span, respecting the request cap.
    pub fn add(&mut self, span: TraceSpan) {
        if !self.traces.contains_key(&span.request_id) && self.traces.len() >= self.cap {
            self.dropped_spans += 1;
            return;
        }
        self.traces.entry(span.request_id).or_default().push(span);
    }

    /// Ingest a batch's piggybacked spans, backfilling empty hosts with
    /// the batch's reporting host.
    pub fn ingest_spans(&mut self, spans: &[TraceSpan], batch_host: &str) {
        for span in spans {
            let mut span = span.clone();
            if span.host.is_empty() {
                span.host = batch_host.to_string();
            }
            self.add(span);
        }
    }

    /// Record that a traced request's event was assigned to the window
    /// starting at `window_start_ms` (and add the WindowAssign span).
    pub fn assign_window(&mut self, request_id: u64, window_start_ms: i64, at_ms: i64, host: &str) {
        if !self.traces.contains_key(&request_id) {
            return; // not traced (or dropped at cap)
        }
        let newly = self
            .window_index
            .entry(window_start_ms)
            .or_default()
            .insert(request_id);
        if newly {
            self.add(TraceSpan {
                request_id,
                kind: SpanKind::WindowAssign,
                at_ms,
                host: host.to_string(),
                detail: window_start_ms,
            });
        }
    }

    /// The window starting at `window_start_ms` closed: fan a close (or
    /// degrade) span out to every traced request assigned to it, and
    /// forget the window.
    pub fn close_window(&mut self, window_start_ms: i64, at_ms: i64, host: &str, degraded: bool) {
        let Some(rids) = self.window_index.remove(&window_start_ms) else {
            return;
        };
        let kind = if degraded {
            SpanKind::WindowDegrade
        } else {
            SpanKind::WindowClose
        };
        for rid in rids {
            self.add(TraceSpan {
                request_id: rid,
                kind,
                at_ms,
                host: host.to_string(),
                detail: window_start_ms,
            });
        }
    }

    /// The causally-ordered spans of one traced request (sorted by time,
    /// ties broken by pipeline order); `None` when the request was never
    /// traced.
    pub fn trace(&self, request_id: u64) -> Option<Vec<TraceSpan>> {
        let mut spans = self.traces.get(&request_id)?.clone();
        spans.sort_by(|a, b| {
            (a.at_ms, a.kind, a.detail, &a.host).cmp(&(b.at_ms, b.kind, b.detail, &b.host))
        });
        Some(spans)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_is_deterministic_and_rate_shaped() {
        let t = trace_threshold(0.1);
        let picks: Vec<bool> = (0..100_000u64).map(|r| should_trace(r, t)).collect();
        let again: Vec<bool> = (0..100_000u64).map(|r| should_trace(r, t)).collect();
        assert_eq!(picks, again, "decision must be pure in the request id");
        let n = picks.iter().filter(|&&b| b).count();
        assert!((8_000..=12_000).contains(&n), "10% ± tolerance, got {n}");
        // disabled rate traces nothing and costs one compare
        assert_eq!(trace_threshold(0.0), 0);
        assert!((0..1_000u64).all(|r| !should_trace(r, 0)));
        // full rate traces everything
        assert!((0..1_000u64).all(|r| should_trace(r, trace_threshold(1.0))));
    }

    #[test]
    fn store_orders_spans_causally() {
        let mut s = TraceStore::new(16);
        // inserted out of order, same timestamp: pipeline order wins
        s.add(TraceSpan::new(7, SpanKind::Enqueue, 5, 0));
        s.add(TraceSpan::new(7, SpanKind::Emit, 5, 0));
        s.add(TraceSpan::new(7, SpanKind::TapSelect, 5, 0));
        s.add(TraceSpan::new(7, SpanKind::Ingest, 9, 0));
        let spans = s.trace(7).unwrap();
        let kinds: Vec<SpanKind> = spans.iter().map(|x| x.kind).collect();
        assert_eq!(
            kinds,
            vec![
                SpanKind::Emit,
                SpanKind::TapSelect,
                SpanKind::Enqueue,
                SpanKind::Ingest
            ]
        );
        assert!(s.trace(8).is_none());
    }

    #[test]
    fn first_rid_in_picks_smallest_rid_in_interval() {
        let mut s = TraceStore::new(16);
        s.add(TraceSpan::new(9, SpanKind::Emit, 1_500, 0));
        s.add(TraceSpan::new(4, SpanKind::Emit, 1_800, 0));
        s.add(TraceSpan::new(2, SpanKind::Emit, 3_000, 0));
        // both 4 and 9 are active in (1000, 2000]; smallest rid wins
        assert_eq!(s.first_rid_in(1_000, 2_000), Some(4));
        // interval bounds: (from, to] — 3000 belongs to (2000, 3000]
        assert_eq!(s.first_rid_in(2_000, 3_000), Some(2));
        assert_eq!(s.first_rid_in(3_000, 4_000), None);
    }

    #[test]
    fn store_caps_distinct_requests() {
        let mut s = TraceStore::new(2);
        s.add(TraceSpan::new(1, SpanKind::Emit, 0, 0));
        s.add(TraceSpan::new(2, SpanKind::Emit, 0, 0));
        s.add(TraceSpan::new(3, SpanKind::Emit, 0, 0)); // over cap: dropped
        s.add(TraceSpan::new(1, SpanKind::Ingest, 1, 0)); // existing: kept
        assert_eq!(s.len(), 2);
        assert_eq!(s.dropped_spans, 1);
        assert_eq!(s.trace(1).unwrap().len(), 2);
    }

    #[test]
    fn window_close_fans_out_to_assigned_requests() {
        let mut s = TraceStore::new(16);
        s.add(TraceSpan::new(1, SpanKind::Ingest, 10, 0));
        s.add(TraceSpan::new(2, SpanKind::Ingest, 11, 0));
        s.assign_window(1, 0, 10, "central");
        s.assign_window(2, 0, 11, "central");
        s.assign_window(2, 0, 12, "central"); // duplicate assignment: one span
        s.assign_window(9, 0, 12, "central"); // untraced: ignored
        s.close_window(0, 20, "central", false);
        s.close_window(0, 25, "central", false); // already closed: no-op
        for rid in [1u64, 2] {
            let kinds: Vec<SpanKind> = s.trace(rid).unwrap().iter().map(|x| x.kind).collect();
            assert_eq!(
                kinds,
                vec![
                    SpanKind::Ingest,
                    SpanKind::WindowAssign,
                    SpanKind::WindowClose
                ],
                "request {rid}"
            );
        }
        let mut d = TraceStore::new(16);
        d.add(TraceSpan::new(1, SpanKind::Ingest, 10, 0));
        d.assign_window(1, 0, 10, "central");
        d.close_window(0, 20, "central", true);
        let kinds: Vec<SpanKind> = d.trace(1).unwrap().iter().map(|x| x.kind).collect();
        assert_eq!(kinds.last(), Some(&SpanKind::WindowDegrade));
    }

    #[test]
    fn ingest_spans_backfills_host() {
        let mut s = TraceStore::new(16);
        s.ingest_spans(&[TraceSpan::new(4, SpanKind::Emit, 1, 0)], "bid-DC1-0");
        assert_eq!(s.trace(4).unwrap()[0].host, "bid-DC1-0");
    }
}
