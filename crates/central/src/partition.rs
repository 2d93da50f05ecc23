//! Partitioned execution inside ScrubCentral.
//!
//! A single query at Turn's scale can ingest events from thousands of
//! hosts; ScrubCentral therefore shards a query's work across partitions.
//! Each partition runs an independent [`QueryExecutor`](crate::QueryExecutor)
//! and folds its own
//! group/window state; when a window closes, per-partition *partial*
//! aggregate states are merged by group key — every
//! [`AggState`](crate::agg::AggState) is mergeable for exactly this
//! reason.
//!
//! The execution strategy lives behind the sealed
//! [`IngestBackend`] trait:
//!
//! * [`InlineBackend`] (`partitions == 1`) runs on the caller's thread —
//!   no channels, no threads, bit-identical to the historical sequential
//!   path. This is the deterministic reference all differential tests
//!   compare against.
//! * [`ThreadedBackend`]
//!   (`partitions >= 2`) hands whole batches to per-partition worker
//!   threads over deep bounded channels, with router-side header
//!   accounting, pre-folded two-phase aggregation, and an amortized
//!   advance protocol that only pays the cross-partition barrier when a
//!   window is actually due — see the `threaded` module docs.
//!
//! This router owns everything that must be partition-count-invariant:
//! it observes each batch exactly once (events routed, bytes decoded),
//! merges and re-caps closed windows' group states, renders result rows,
//! marks degradation, and overlays the merged `EXPLAIN ANALYZE` profile.
//! Its observability surface is one call: [`PartitionedExecutor::stats`]
//! returns an [`ExecutorStats`] snapshot.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use scrub_agent::EventBatch;
use scrub_core::plan::{CentralPlan, OperatorKind, OutputCol, OutputMode};
use scrub_core::value::{GroupKey, Value};
use scrub_obs::PlanProfile;

use crate::backend::{BackendAdvance, IngestBackend, InlineBackend};
use crate::executor::GroupState;
use crate::row::{QuerySummary, ResultRow};
use crate::stats::ExecutorStats;
use crate::threaded::ThreadedBackend;

/// One aggregate window closing (for self-observability: ScrubCentral
/// taps a `scrub_window` meta-event per close and feeds the per-query
/// profile).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowClose {
    /// Window start (ms).
    pub window_start_ms: i64,
    /// Rows the merged window rendered.
    pub rows: u64,
    /// Whether a targeted host was suspected dead at close time.
    pub degraded: bool,
}

/// Runs one query across `p` partitions and merges window results.
pub struct PartitionedExecutor {
    backend: Box<dyn IngestBackend>,
    plan: Arc<CentralPlan>,
    /// Hosts suspected dead right now; rows emitted while this is
    /// non-empty are marked degraded.
    dead_hosts: std::collections::HashSet<String>,
    degraded_rows: u64,
    duplicate_batches: u64,
    /// Window closes since the last [`take_window_closes`] drain.
    closes: Vec<WindowClose>,
    /// Ingest stalls: hand-offs that found a partition's channel full and
    /// had to block. Cumulative (snapshot via [`Self::stats`]; callers
    /// needing deltas diff snapshots).
    backpressure: u64,
    /// Events routed to the backend since creation (each counted exactly
    /// once, whether the batch was handed off whole or split by request
    /// id).
    events_routed: u64,
    /// Windows rendered with at least one group. Counted here at the
    /// router (where merged windows are rendered) so the figure is
    /// partition-count-invariant; per-partition executors never render.
    windows_emitted: u64,
    /// `EXPLAIN ANALYZE` counters that are only partition-count-invariant
    /// when taken at the router: batch bytes decoded, windows closed
    /// (each partition closes its own copy of a window), merged group
    /// rows rendered, and the wall-clock spent in merged rendering. These
    /// overlay the corresponding operators of the merged per-partition
    /// profile — see [`Self::plan_profile`].
    decode_bytes: u64,
    windows_closed: u64,
    rendered_rows: u64,
    render_ns: u64,
    /// Rows dropped by the `max_groups` bound: per-partition drops
    /// (carried on closed [`WindowPartial`](crate::WindowPartial)s) plus
    /// the router's own re-cap of the merged group set.
    /// Partition-count invariant — see
    /// [`update_groups`](crate::executor) for the keep-smallest-keys
    /// argument.
    groups_overflow: u64,
    /// Advance calls that paid the backend barrier / were answered from
    /// the watermark alone (the amortized advance protocol).
    advance_barriers: u64,
    advances_skipped: u64,
}

impl PartitionedExecutor {
    /// Create with `partitions >= 1` shards; the compiled plan is shared
    /// across partitions via `Arc` instead of cloned per partition. This
    /// is the single front door: `partitions == 1` gets the inline
    /// deterministic reference, anything more the threaded batch
    /// pipeline.
    pub fn new(plan: impl Into<Arc<CentralPlan>>, grace_ms: i64, partitions: usize) -> Self {
        let plan = plan.into();
        let partitions = partitions.max(1);
        let backend: Box<dyn IngestBackend> = if partitions == 1 {
            Box::new(InlineBackend::new(Arc::clone(&plan), grace_ms))
        } else {
            Box::new(ThreadedBackend::new(
                Arc::clone(&plan),
                grace_ms,
                partitions,
            ))
        };
        Self::assemble(backend, plan)
    }

    /// Wrap a pre-built backend (the plan is taken from it). Lets callers
    /// that already chose a strategy — or tests exercising one backend
    /// directly — skip the partition-count dispatch in [`Self::new`].
    pub fn with_backend(backend: Box<dyn IngestBackend>) -> Self {
        let plan = backend.plan_arc();
        Self::assemble(backend, plan)
    }

    fn assemble(backend: Box<dyn IngestBackend>, plan: Arc<CentralPlan>) -> Self {
        PartitionedExecutor {
            backend,
            plan,
            dead_hosts: std::collections::HashSet::new(),
            degraded_rows: 0,
            duplicate_batches: 0,
            closes: Vec::new(),
            backpressure: 0,
            events_routed: 0,
            windows_emitted: 0,
            decode_bytes: 0,
            windows_closed: 0,
            rendered_rows: 0,
            render_ns: 0,
            groups_overflow: 0,
            advance_barriers: 0,
            advances_skipped: 0,
        }
    }

    /// Number of partitions.
    pub fn partitions(&self) -> usize {
        self.backend.partitions()
    }

    /// The compiled plan this executor runs (window/slide/mode — used by
    /// central's tracer to compute window assignments at the router).
    pub fn plan(&self) -> &CentralPlan {
        &self.plan
    }

    /// The partition an event with this request id routes to (`0` on the
    /// inline backend; the upcoming round-robin partition for whole-batch
    /// routed plans). Exposed so lifecycle traces can record the `Route`
    /// hop without re-deriving the routing.
    pub fn route_partition(&self, request_id: u64) -> usize {
        self.backend.route_partition(request_id)
    }

    /// Replace the set of hosts suspected dead: future rows are marked
    /// degraded and the dead hosts' samples leave the estimator.
    pub fn set_dead_hosts(&mut self, hosts: std::collections::HashSet<String>) {
        self.backend.set_dead_hosts(&hosts);
        self.dead_hosts = hosts;
    }

    /// Hosts currently suspected dead.
    pub fn dead_hosts(&self) -> &std::collections::HashSet<String> {
        &self.dead_hosts
    }

    /// Record a batch discarded as a duplicate retransmission.
    pub fn note_duplicate(&mut self) {
        self.duplicate_batches += 1;
    }

    /// Drain the window closes recorded since the last call.
    pub fn take_window_closes(&mut self) -> Vec<WindowClose> {
        std::mem::take(&mut self.closes)
    }

    /// Snapshot every observable counter in one call. Replaces the
    /// pre-redesign getter-per-counter API; all fields are cumulative
    /// (see [`ExecutorStats`] for per-field semantics and which are
    /// partition-invariant).
    pub fn stats(&self) -> ExecutorStats {
        let (open_windows, join_rows_held) = self.backend.gauges();
        ExecutorStats {
            partitions: self.backend.partitions(),
            events_routed: self.events_routed,
            backpressure_stalls: self.backpressure,
            degraded_rows: self.degraded_rows,
            duplicate_batches: self.duplicate_batches,
            groups_overflow: self.groups_overflow,
            windows_emitted: self.windows_emitted,
            open_windows,
            join_rows_held,
            decode_failures: self.backend.decode_failures(),
            advance_barriers: self.advance_barriers,
            advances_skipped: self.advances_skipped,
            workers: self.backend.worker_times(),
        }
    }

    /// Hand a batch to the backend: whole-batch round-robin for non-join
    /// plans, request-id split for joins. Header totals are observed
    /// exactly once by whichever component is authoritative for them.
    pub fn ingest(&mut self, batch: EventBatch) {
        self.events_routed += batch.len() as u64;
        // Counted once at the router: per-partition figures would not be
        // invariant under the partition count.
        self.decode_bytes += batch.approx_bytes() as u64;
        self.backpressure += self.backend.ingest(batch);
    }

    /// Emit stream rows and merge+render all windows closed by `now_ms`.
    ///
    /// When the backend can prove no window is due
    /// ([`IngestBackend::needs_advance`]) the barrier is skipped outright
    /// and only the watermark is recorded — on the threaded backend this
    /// makes watermark advancement ride the ingest hand-offs, and the
    /// cross-partition barrier is paid only at window close.
    pub fn advance(&mut self, now_ms: i64) -> Vec<ResultRow> {
        if !self.backend.needs_advance(now_ms) {
            self.advances_skipped += 1;
            self.backend.note_watermark(now_ms);
            return Vec::new();
        }
        self.advance_barriers += 1;
        let BackendAdvance {
            stream_rows,
            partials,
            scale,
        } = self.backend.advance(now_ms);
        let mut out = stream_rows;
        // window start → (merged partial groups, rows already dropped by
        // the per-partition `max_groups` bound)
        type WindowAcc = (Vec<(Vec<GroupKey>, GroupState)>, u64);
        let mut by_window: BTreeMap<i64, WindowAcc> = BTreeMap::new();
        for partial in partials {
            let acc = by_window.entry(partial.window_start_ms).or_default();
            acc.0.extend(partial.groups);
            acc.1 += partial.overflow_rows;
        }
        let degraded_now = !self.dead_hosts.is_empty();
        let t_render = Instant::now();
        for (w, (groups, partial_overflow)) in by_window {
            self.windows_closed += 1;
            // Same semantics as the sequential executor's render path: a
            // window counts as emitted when it closed holding groups.
            if !groups.is_empty() {
                self.windows_emitted += 1;
            }
            let (mut rendered, recap_dropped) = self.render_merged(w, groups, scale);
            let overflow_w = partial_overflow + recap_dropped;
            self.groups_overflow += overflow_w;
            if overflow_w > 0 {
                // The window's aggregates are missing the dropped rows:
                // mark what it did render as degraded, same as rows
                // emitted under a dead host.
                for row in &mut rendered {
                    row.degraded = true;
                }
                self.degraded_rows += rendered.len() as u64;
            }
            self.rendered_rows += rendered.len() as u64;
            self.closes.push(WindowClose {
                window_start_ms: w,
                rows: rendered.len() as u64,
                degraded: degraded_now || overflow_w > 0,
            });
            out.extend(rendered);
        }
        self.render_ns += t_render.elapsed().as_nanos() as u64;
        if !self.dead_hosts.is_empty() {
            for row in &mut out {
                if !row.degraded {
                    self.degraded_rows += 1;
                    row.degraded = true;
                }
            }
        }
        out
    }

    /// Merge one window's per-partition partial groups, re-apply the
    /// `max_groups` bound to the merged set (each partition kept its own
    /// `cap` smallest keys; their union can exceed the cap) and render.
    /// Returns the rendered rows and the rows dropped by the re-cap.
    fn render_merged(
        &self,
        window_start_ms: i64,
        groups: Vec<(Vec<GroupKey>, GroupState)>,
        scale: f64,
    ) -> (Vec<ResultRow>, u64) {
        let OutputMode::Aggregate { output, .. } = &self.plan.mode else {
            return (Vec::new(), 0);
        };
        // merge same-key groups from different partitions
        let mut merged: BTreeMap<Vec<GroupKey>, GroupState> = BTreeMap::new();
        for (key, state) in groups {
            match merged.entry(key) {
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(state);
                }
                std::collections::btree_map::Entry::Occupied(mut e) => {
                    let dst = e.get_mut();
                    for (a, b) in dst.aggs.iter_mut().zip(&state.aggs) {
                        a.merge(b);
                    }
                    dst.rows += state.rows;
                }
            }
        }
        // Re-cap: keep the `cap` smallest keys of the merged set — the
        // same keys a single executor would have kept, so results and
        // dropped-row totals are partition-count invariant.
        let cap = self.plan.max_groups.max(1);
        let mut recap_dropped = 0u64;
        while merged.len() > cap {
            let (_, g) = merged.pop_last().expect("len > cap");
            recap_dropped += g.rows;
        }
        let rows = merged
            .into_values()
            .map(|g| {
                let values: Vec<Value> = output
                    .iter()
                    .map(|col| match col {
                        OutputCol::Group(i) => g.keys.get(*i).cloned().unwrap_or(Value::Null),
                        OutputCol::Agg(i) => g.aggs[*i].finish(scale),
                    })
                    .collect();
                ResultRow {
                    query_id: self.plan.query_id,
                    window_start_ms,
                    values,
                    degraded: false,
                }
            })
            .collect();
        (rows, recap_dropped)
    }

    /// Close everything and produce the end-of-query summary.
    ///
    /// Counter totals (matched/sampled/shed, hosts reporting/live) come
    /// from whichever component observed every batch header exactly once
    /// — the inline executor itself, or the threaded router's
    /// `TotalsTracker` — so they are identical across
    /// backends. The Eq 1–3 estimates need every partition's per-host
    /// Welford moments: the threaded backend merges the workers'
    /// exports in its first-seen host order before computing them (Welford
    /// states combine exactly), matching the inline reference up to
    /// floating-point rounding of the moment merge.
    pub fn finish(&mut self) -> (Vec<ResultRow>, QuerySummary) {
        let rows = self.advance(i64::MAX / 4);
        let mut summary = self.backend.finish_summary(&self.dead_hosts);
        // Overridden from the router, which is the only component that
        // can count these partition-invariantly (it renders the merged
        // windows and re-caps the merged groups).
        summary.degraded_rows = self.degraded_rows;
        summary.duplicate_batches = self.duplicate_batches;
        summary.windows_emitted = self.windows_emitted;
        summary.groups_overflow = self.groups_overflow;
        (rows, summary)
    }

    /// The merged `EXPLAIN ANALYZE` profile of this query.
    ///
    /// The backend provides its merged profile (inline: the executor's
    /// own; threaded: a profile barrier that collects each worker's
    /// central-op slice, sums them, and overlays host ops + notes from
    /// the router-side totals — always fresh, never a tick stale). The
    /// router then overlays the counters only it can measure
    /// partition-invariantly: decoded batch bytes, windows
    /// closed/emitted, merged group rows rendered and the render
    /// wall-clock.
    pub fn plan_profile(&self) -> PlanProfile {
        let mut merged = self.backend.plan_profile();
        for desc in self.plan.operators() {
            let Some(op) = merged.op_mut(desc.id.0) else {
                continue;
            };
            match desc.kind {
                OperatorKind::Decode => op.bytes = self.decode_bytes,
                OperatorKind::GroupAgg => op.rows_out = self.rendered_rows,
                OperatorKind::WindowClose => {
                    op.rows_in = self.windows_closed;
                    op.rows_out = self.windows_emitted;
                    op.ns = self.render_ns;
                }
                _ => {}
            }
        }
        if self.groups_overflow > 0 {
            merged.notes.push(format!(
                "group state capped at {} groups: groups_kept {} (rendered), groups_dropped {} rows past the cap",
                self.plan.max_groups.max(1),
                self.rendered_rows,
                self.groups_overflow
            ));
        }
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::threaded::{mix, split_by_request_id};
    use scrub_agent::BatchPayload;
    use scrub_core::config::ScrubConfig;
    use scrub_core::event::{Event, RequestId};
    use scrub_core::plan::{compile, HostSampleInfo, QueryId};
    use scrub_core::ql::parser::parse_query;
    use scrub_core::schema::{EventSchema, EventTypeId, FieldDef, FieldType, SchemaRegistry};

    fn registry() -> SchemaRegistry {
        let reg = SchemaRegistry::new();
        reg.register(
            EventSchema::new(
                "bid",
                vec![
                    FieldDef::new("user_id", FieldType::Long),
                    FieldDef::new("price", FieldType::Double),
                ],
            )
            .unwrap(),
        )
        .unwrap();
        reg.register(
            EventSchema::new("impression", vec![FieldDef::new("cost", FieldType::Double)]).unwrap(),
        )
        .unwrap();
        reg
    }

    fn plan_for(src: &str) -> CentralPlan {
        let spec = parse_query(src).unwrap();
        compile(&spec, &registry(), &ScrubConfig::default(), QueryId(5))
            .unwrap()
            .central
    }

    fn ev(type_id: u32, rid: u64, ts: i64, values: Vec<Value>) -> Event {
        Event::new(EventTypeId(type_id), RequestId(rid), ts, values)
    }

    fn feed(n: u64) -> EventBatch {
        EventBatch {
            seq: 0,
            attempt: 0,
            query_id: QueryId(5),
            type_id: EventTypeId(0),
            host: "h1".into(),
            payload: BatchPayload::Rows(
                (0..n)
                    .map(|i| ev(0, i, 1_000, vec![Value::Long((i % 7) as i64)]))
                    .collect(),
            ),
            matched: n,
            sampled: n,
            shed: 0,
            budget_shed: 0,
            seen: n,
            bytes: 0,
            spans: vec![],
        }
    }

    /// The decode operator's profiled byte total is the sum of the
    /// batches' accounted sizes, and for columnar payloads that accounted
    /// size is the *exact* encoded frame length — no modeled
    /// approximation anywhere in the chain.
    #[test]
    fn profile_bytes_equal_encoded_columnar_lengths() {
        use scrub_core::config::WireFormat;
        use scrub_core::encode::encode_batch_format;

        let src = "select bid.user_id, COUNT(*) from bid group by bid.user_id window 10 s";
        let mut exec = PartitionedExecutor::new(plan_for(src), 0, 2);
        let mut expect = 0u64;
        for b in 0..4u64 {
            let events: Vec<Event> = (0..50)
                .map(|i| ev(0, b * 50 + i, 1_000, vec![Value::Long((i % 7) as i64)]))
                .collect();
            let frame = encode_batch_format(&events, WireFormat::Columnar);
            let batch = EventBatch {
                seq: b,
                attempt: 0,
                query_id: QueryId(5),
                type_id: EventTypeId(0),
                host: "h1".into(),
                payload: BatchPayload::from_events(events, WireFormat::Columnar),
                matched: 50,
                sampled: 50,
                shed: 0,
                budget_shed: 0,
                seen: 50,
                bytes: 0,
                spans: vec![],
            };
            assert_eq!(
                batch.payload.approx_bytes(),
                frame.len(),
                "columnar payload accounting must be the encoded frame length"
            );
            expect += batch.approx_bytes() as u64;
            exec.ingest(batch);
        }
        exec.advance(60_000);
        let profile = exec.plan_profile();
        let decode = profile
            .ops
            .iter()
            .find(|op| op.label.starts_with("decode"))
            .expect("decode operator in profile");
        assert_eq!(decode.bytes, expect);
    }

    #[test]
    fn partitioned_equals_single_for_grouped_count() {
        let src = "select bid.user_id, COUNT(*) from bid group by bid.user_id window 10 s";
        let mut single = PartitionedExecutor::new(plan_for(src), 0, 1);
        let mut multi = PartitionedExecutor::new(plan_for(src), 0, 4);
        single.ingest(feed(1000));
        multi.ingest(feed(1000));
        let mut a = single.advance(60_000);
        let mut b = multi.advance(60_000);
        let key = |r: &ResultRow| {
            (
                r.window_start_ms,
                r.values.iter().map(Value::group_key).collect::<Vec<_>>(),
            )
        };
        a.sort_by_key(key);
        b.sort_by_key(key);
        assert_eq!(a, b);
        assert_eq!(a.len(), 7);
    }

    #[test]
    fn partitioned_join_counts_match_single() {
        let src = "select COUNT(*) from bid, impression window 10 s";
        let mut single = PartitionedExecutor::new(plan_for(src), 0, 1);
        let mut multi = PartitionedExecutor::new(plan_for(src), 0, 8);
        for exec in [&mut single, &mut multi] {
            let bids: Vec<Event> = (0..200).map(|i| ev(0, i, 1_000, vec![])).collect();
            let imps: Vec<Event> = (0..100).map(|i| ev(1, i * 2, 1_500, vec![])).collect();
            exec.ingest(EventBatch {
                seq: 0,
                attempt: 0,
                query_id: QueryId(5),
                type_id: EventTypeId(0),
                host: "h1".into(),
                payload: BatchPayload::Rows(bids),
                matched: 200,
                sampled: 200,
                shed: 0,
                budget_shed: 0,
                seen: 200,
                bytes: 0,
                spans: vec![],
            });
            exec.ingest(EventBatch {
                seq: 0,
                attempt: 0,
                query_id: QueryId(5),
                type_id: EventTypeId(1),
                host: "h2".into(),
                payload: BatchPayload::Rows(imps),
                matched: 100,
                sampled: 100,
                shed: 0,
                budget_shed: 0,
                seen: 100,
                bytes: 0,
                spans: vec![],
            });
        }
        let a = single.advance(60_000);
        let b = multi.advance(60_000);
        assert_eq!(a, b);
        assert_eq!(a[0].values, vec![Value::Long(100)]);
    }

    #[test]
    fn merged_avg_is_correct_not_average_of_averages() {
        let src = "select AVG(bid.price) from bid window 10 s";
        let mut multi = PartitionedExecutor::new(plan_for(src), 0, 4);
        // values 1..=100; avg = 50.5 — merging naive per-partition
        // averages unweighted would only coincide by luck; Welford merge is
        // weighted and exact. Under whole-batch routing a single batch
        // lands on one partition, so split it to occupy several.
        for chunk in (1..=100i64).collect::<Vec<_>>().chunks(10) {
            let events: Vec<Event> = chunk
                .iter()
                .map(|i| ev(0, *i as u64, 1_000, vec![Value::Double(*i as f64)]))
                .collect();
            multi.ingest(EventBatch {
                seq: 0,
                attempt: 0,
                query_id: QueryId(5),
                type_id: EventTypeId(0),
                host: "h1".into(),
                payload: BatchPayload::Rows(events),
                matched: 100,
                sampled: 100,
                shed: 0,
                budget_shed: 0,
                seen: 100,
                bytes: 0,
                spans: vec![],
            });
        }
        let rows = multi.advance(60_000);
        assert_eq!(rows.len(), 1);
        let Value::Double(avg) = rows[0].values[0] else {
            panic!("AVG renders a Double");
        };
        assert_approx(avg, 50.5);
    }

    #[test]
    fn finish_summary_not_double_counted() {
        let src = "select COUNT(*) from bid window 10 s";
        let mut multi = PartitionedExecutor::new(plan_for(src), 0, 4);
        multi.ingest(feed(100));
        let (_rows, summary) = multi.finish();
        assert_eq!(summary.total_matched, 100);
        assert_eq!(summary.hosts_reporting, 1);
    }

    #[test]
    fn stream_rows_pass_through() {
        let src = "select bid.user_id from bid";
        let mut multi = PartitionedExecutor::new(plan_for(src), 0, 4);
        multi.ingest(feed(10));
        let rows = multi.advance(60_000);
        assert_eq!(rows.len(), 10);
    }

    /// Every backend counts an undecodable frame where it meets it — the
    /// inline executor, a threaded worker, or the router splitting a join
    /// batch — and the query carries on.
    #[test]
    fn stats_report_decode_failures_on_every_backend() {
        use scrub_core::columnar::ColumnarFrame;

        let good = |seq: u64| {
            let events: Vec<Event> = (0..10)
                .map(|i| ev(0, seq * 10 + i, 1_000, vec![]))
                .collect();
            EventBatch {
                seq,
                payload: BatchPayload::Columnar(ColumnarFrame::from_events(&events)),
                ..feed(0)
            }
        };
        let bad = |seq: u64| {
            let mut batch = good(seq);
            let BatchPayload::Columnar(frame) = &mut batch.payload else {
                unreachable!();
            };
            frame.bytes.truncate(frame.bytes.len() - 2);
            batch
        };
        for src in [
            "select COUNT(*) from bid window 10 s",
            "select COUNT(*) from bid, impression window 10 s",
        ] {
            for partitions in [1, 4] {
                let mut exec = PartitionedExecutor::new(plan_for(src), 0, partitions);
                exec.ingest(good(0));
                exec.ingest(bad(1));
                exec.ingest(good(2));
                let rows = exec.advance(60_000);
                assert_eq!(exec.stats().decode_failures, 1, "{src} p={partitions}");
                if !exec.plan().is_join() {
                    assert_eq!(
                        rows[0].values,
                        vec![Value::Long(20)],
                        "{src} p={partitions}"
                    );
                }
            }
        }
    }

    #[test]
    fn split_routes_every_event_exactly_once() {
        let batch = feed(10_000);
        let originals: std::collections::HashSet<u64> = batch
            .payload
            .to_rows()
            .iter()
            .map(|e| e.request_id.0)
            .collect();
        let shards = split_by_request_id(batch, 7).unwrap();
        // Only non-empty shards come back, each tagged with its partition.
        assert!(shards.len() <= 7);
        assert!(shards.iter().all(|(_, s)| !s.is_empty()));
        // No drops, no duplicates: the union of shard events is exactly
        // the original event set.
        let mut seen = std::collections::HashSet::new();
        let mut total = 0usize;
        for (part, shard) in &shards {
            // The host survives (workers intern it for estimator
            // moments); cumulative counters are zeroed — the router is
            // authoritative for totals and must not double-count.
            assert_eq!(shard.host, "h1");
            assert_eq!(shard.matched, 0);
            assert_eq!(shard.sampled, 0);
            assert_eq!(shard.seen, 0);
            for ev in shard.payload.to_rows() {
                assert!(seen.insert(ev.request_id.0), "event routed twice");
                // routing is by request-id hash, so stable per event
                assert_eq!((mix(ev.request_id.0) % 7) as usize, *part);
            }
            total += shard.len();
        }
        assert_eq!(total, 10_000);
        assert_eq!(seen, originals);
    }

    #[test]
    fn stats_counts_each_event_once() {
        let src = "select COUNT(*) from bid window 10 s";
        let mut multi = PartitionedExecutor::new(plan_for(src), 0, 4);
        multi.ingest(feed(500));
        multi.ingest(feed(250));
        let stats = multi.stats();
        assert_eq!(stats.events_routed, 750);
        assert_eq!(stats.partitions, 4);
        assert_eq!(stats.workers.len(), 4);
        let (rows, _) = multi.finish();
        assert_eq!(rows.len(), 1);
        // workers were fed and hit at least one barrier, so their clocks
        // moved
        let stats = multi.stats();
        assert!(stats.advance_barriers >= 1);
        assert!(stats.workers.iter().any(|w| w.busy_ns > 0));
    }

    #[test]
    fn advance_skips_barrier_until_window_due() {
        let src = "select bid.user_id, COUNT(*) from bid group by bid.user_id window 10 s";
        let mut multi = PartitionedExecutor::new(plan_for(src), 0, 4);
        // All events land at ts=1000 → window [0, 10s), closing at 10s
        // (grace 0): every earlier tick is answerable from the watermark
        // alone.
        multi.ingest(feed(100));
        assert!(multi.advance(2_000).is_empty());
        assert!(multi.advance(5_000).is_empty());
        assert!(multi.advance(9_999).is_empty());
        let stats = multi.stats();
        assert_eq!(stats.advance_barriers, 0);
        assert_eq!(stats.advances_skipped, 3);
        // Due now: the barrier fires and the window renders.
        let rows = multi.advance(20_000);
        assert_eq!(rows.len(), 7);
        let stats = multi.stats();
        assert_eq!(stats.advance_barriers, 1);
        assert_eq!(stats.advances_skipped, 3);
        // Inline never skips: advancing is not a barrier there.
        let mut single = PartitionedExecutor::new(plan_for(src), 0, 1);
        single.ingest(feed(100));
        assert!(single.advance(2_000).is_empty());
        assert_eq!(single.stats().advances_skipped, 0);
    }

    /// Relative comparison tolerating the floating-point rounding of the
    /// cross-partition Welford merge (and ∞ == ∞ for degenerate bounds).
    fn assert_approx(a: f64, b: f64) {
        if a.is_infinite() || b.is_infinite() {
            assert!(a == b, "{a} vs {b}");
            return;
        }
        let denom = a.abs().max(b.abs()).max(1e-12);
        assert!((a - b).abs() / denom < 1e-9, "{a} vs {b}");
    }

    #[test]
    fn finish_estimates_partition_invariant() {
        // Regression test: the first threaded backend took estimates
        // from partition 0 alone, whose moments cover only its slice of
        // each host's events — hosts whose events all routed elsewhere
        // estimated 0, biasing τ̂ low. Estimates must come from the
        // merged per-host moments of every partition (workers export
        // moments; the router is authoritative for per-host `matched`).
        let sampled_plan = || {
            let src = "select SUM(bid.price), COUNT(*) from bid sample events 50% window 10 s";
            let spec = parse_query(src).unwrap();
            let mut cq = compile(&spec, &registry(), &ScrubConfig::default(), QueryId(5)).unwrap();
            cq.central.host_info = HostSampleInfo {
                matching: 6,
                selected: 6,
            };
            cq.central
        };
        let mut single = PartitionedExecutor::new(sampled_plan(), 0, 1);
        let mut multi = PartitionedExecutor::new(sampled_plan(), 0, 4);
        for exec in [&mut single, &mut multi] {
            for h in 0..6u64 {
                // one batch per host lands whole on one partition under
                // round-robin, so most hosts' moments live entirely
                // outside partition 0
                let events: Vec<Event> = (0..3)
                    .map(|i| {
                        ev(
                            0,
                            h * 100 + i,
                            1_000,
                            vec![Value::Double((h * 3 + i) as f64)],
                        )
                    })
                    .collect();
                exec.ingest(EventBatch {
                    seq: 0,
                    attempt: 0,
                    query_id: QueryId(5),
                    type_id: EventTypeId(0),
                    host: format!("h{h}"),
                    payload: BatchPayload::Rows(events),
                    matched: 10,
                    sampled: 3,
                    shed: 0,
                    budget_shed: 0,
                    seen: 10,
                    bytes: 0,
                    spans: vec![],
                });
            }
        }
        let (_, s1) = single.finish();
        let (_, s4) = multi.finish();
        assert_eq!(s1.windows_emitted, s4.windows_emitted);
        assert!(s1.windows_emitted > 0);
        assert_eq!(s1.estimates.len(), s4.estimates.len());
        for (a, b) in s1.estimates.iter().zip(&s4.estimates) {
            let (a, b) = (
                a.expect("SUM/COUNT estimate"),
                b.expect("SUM/COUNT estimate"),
            );
            assert!(a.estimate > 0.0);
            assert_approx(a.estimate, b.estimate);
            assert_approx(a.error_bound, b.error_bound);
            assert_approx(a.variance, b.variance);
        }
    }

    #[test]
    fn threaded_backend_matches_inline_under_dead_hosts() {
        let src = "select bid.user_id, COUNT(*) from bid group by bid.user_id window 10 s";
        let mut single = PartitionedExecutor::new(plan_for(src), 0, 1);
        let mut multi = PartitionedExecutor::new(plan_for(src), 0, 4);
        let dead: std::collections::HashSet<String> = ["h9".to_string()].into_iter().collect();
        for exec in [&mut single, &mut multi] {
            exec.ingest(feed(300));
            exec.set_dead_hosts(dead.clone());
        }
        let mut a = single.advance(60_000);
        let mut b = multi.advance(60_000);
        let key = |r: &ResultRow| {
            (
                r.window_start_ms,
                r.values.iter().map(Value::group_key).collect::<Vec<_>>(),
            )
        };
        a.sort_by_key(key);
        b.sort_by_key(key);
        assert_eq!(a, b);
        assert!(a.iter().all(|r| r.degraded));
        let ca = single.take_window_closes();
        let cb = multi.take_window_closes();
        assert_eq!(ca, cb);
        assert_eq!(single.stats().degraded_rows, multi.stats().degraded_rows);
    }

    #[test]
    fn with_backend_wraps_an_explicit_strategy() {
        let src = "select bid.user_id, COUNT(*) from bid group by bid.user_id window 10 s";
        let plan = Arc::new(plan_for(src));
        let mut via_new = PartitionedExecutor::new(Arc::clone(&plan), 0, 1);
        let mut via_backend = PartitionedExecutor::with_backend(Box::new(
            crate::backend::InlineBackend::new(Arc::clone(&plan), 0),
        ));
        assert_eq!(via_backend.partitions(), 1);
        via_new.ingest(feed(100));
        via_backend.ingest(feed(100));
        assert_eq!(via_new.advance(60_000), via_backend.advance(60_000));
        let mut threaded = PartitionedExecutor::with_backend(Box::new(ThreadedBackend::new(
            Arc::clone(&plan),
            0,
            3,
        )));
        assert_eq!(threaded.partitions(), 3);
        threaded.ingest(feed(100));
        let rows = threaded.advance(60_000);
        assert_eq!(rows.len(), 7);
    }
}
