//! The host-side Scrub agent: event tap, active-query table, and the only
//! query operators that ever run on an application host — selection,
//! projection and per-event sampling (§4).
//!
//! Design constraints straight from the paper:
//!
//! * **No dynamic instrumentation** (§5/§6): `log()` calls are compiled
//!   into the application; the agent merely toggles per-event-type flags.
//! * **Minimal impact**: an event type with no active query costs one
//!   relaxed atomic load. Everything heavier (predicates, projection)
//!   happens only for active types, and per-query load shedding caps the
//!   damage a hot query can do. On an active type, selection for all
//!   subscriptions is one compiled program (the `program` module), so an
//!   event pays for the queries it matches, not the queries installed.

use std::borrow::Cow;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use scrub_core::columnar::ChunkBuilder;
use scrub_core::config::ScrubConfig;
use scrub_core::error::{ScrubError, ScrubResult};
use scrub_core::event::{FieldSlot, RequestId, ToEvent};
use scrub_core::plan::{HostPlan, QueryId};
use scrub_core::schema::EventTypeId;
use scrub_core::value::Value;
use scrub_obs::trace::{should_trace, trace_threshold, SpanKind, TraceSpan};

use crate::batch::EventBatch;
use crate::cost::CostModel;
use crate::program::{Probe, Selection, TapProgram, TapSlot};
use crate::stats::AgentStats;

/// Maximum number of event types an agent supports (flags are a fixed
/// bitmask so the disabled fast path stays branch-predictable).
pub const MAX_EVENT_TYPES: usize = 1024;
const MASK_WORDS: usize = MAX_EVENT_TYPES / 64;

/// Host-side Scrub agent. One per application process; shared by all
/// application threads (`&self` API, internally synchronized).
pub struct ScrubAgent {
    host: String,
    config: ScrubConfig,
    /// Per-type active flags packed into atomics: the disabled fast path.
    active_mask: [AtomicU64; MASK_WORDS],
    inner: Mutex<Inner>,
    stats: Arc<AgentStats>,
    /// True while any query is installed (cheap global check).
    any_active: AtomicBool,
    /// Precomputed lifecycle-trace sampler threshold
    /// ([`scrub_obs::trace::trace_threshold`] of
    /// `ScrubConfig::trace_sample_rate`). `0` — the default — disables
    /// tracing, and the already-cold active path pays exactly one integer
    /// compare; the inactive fast path is untouched either way.
    trace_threshold: u64,
    /// Per-host CPU budget in modeled ns per second
    /// (`host_cpu_budget * 1e9`), enforced only when
    /// `ScrubConfig::enforce_host_budget` is set. Priced through the
    /// deterministic [`CostModel`], so enforcement replays exactly: the
    /// same event stream sheds the same events on every run.
    budget_ns_per_sec: f64,
    enforce_budget: bool,
}

#[derive(Default)]
struct Inner {
    /// Taps indexed by event type id.
    taps: Vec<TypeTap>,
    /// Batches ready to ship.
    outbox: Vec<EventBatch>,
    /// Trace spans currently buffered across all subscriptions, bounded
    /// by `ScrubConfig::trace_span_budget` (the host-impact cap; spans
    /// over budget are dropped and counted, never allocated).
    spans_buffered: usize,
    /// CPU-budget window shared by every subscription on this host:
    /// (second, modeled ns accrued that second). Keyed on the event
    /// timestamp — virtual time — so the tracker is deterministic.
    budget_window: (i64, f64),
    /// The highest watermark this host has announced for any query. A
    /// watermark promises that the host's clock has passed it; an event
    /// logged below it afterwards breaks that promise and is counted
    /// (`AgentStats::events_behind_watermark`).
    announced_ms: Option<i64>,
}

/// Everything the tap holds for one event type.
#[derive(Default)]
struct TypeTap {
    /// Subscriptions in install order.
    subs: Vec<Subscription>,
    /// Selection for all of `subs`, recompiled whenever `subs` changes.
    program: TapProgram,
    /// Events of this type that reached the active path — the tick the
    /// program marks atoms with, and what a subscription's `seen` is
    /// counted from.
    events: u64,
    /// How many of `subs` carry a predicate: the per-event bump of
    /// `AgentStats::predicates_evaluated`.
    with_predicate: u64,
}

impl TypeTap {
    /// Recompile after `subs` changed.
    fn rebuild(&mut self) {
        self.program = TapProgram::build(self.subs.iter().map(|s| &s.selection.atoms[..]));
        self.with_predicate = self
            .subs
            .iter()
            .filter(|s| s.plan.predicate.is_some())
            .count() as u64;
    }
}

struct Subscription {
    plan: HostPlan,
    /// `plan.predicate` split into indexed atoms and interpreted residual.
    selection: Selection,
    /// xorshift64 state for per-event sampling.
    rng: u64,
    /// `next_u64 <= threshold` keeps the event.
    sample_threshold: u64,
    /// The shipped events since the last flush, projected straight into
    /// typed columns; a flush encodes them as the batch's frame.
    chunk: ChunkBuilder,
    /// Timestamp of the oldest event in `chunk` (`i64::MAX` when empty):
    /// what holds this query's watermark back until the next flush.
    oldest_ms: i64,
    /// Lifecycle spans of traced events awaiting the next flush (drained
    /// into `EventBatch::spans`, so tracing adds no extra messages).
    trace: Vec<TraceSpan>,
    /// Cumulative counters (shipped with every batch).
    matched: u64,
    sampled: u64,
    shed: u64,
    /// Events dropped because shipping them would break the per-host
    /// CPU budget (cumulative; a separate loss-ledger provenance from
    /// rate-based load shedding).
    budget_shed: u64,
    /// `TypeTap::events` at install. Events of the subscribed type seen
    /// by the tap (pre-selection) — the selection operator's input
    /// cardinality for `EXPLAIN ANALYZE` — are the events since.
    seen_base: u64,
    /// Bytes shipped in first-transmission batches.
    bytes: u64,
    /// Shedding window: (second, events this second).
    shed_window: (i64, u64),
    /// When `take_batches` last flushed this subscription on the timer.
    /// Size-triggered flushes leave it alone, or a busy subscription
    /// would never be due and its remainder would wait for the next full
    /// batch.
    last_flush_ms: i64,
    /// Modeled ns one seen event of this subscription costs before any
    /// ship decision (active tap + predicate); precomputed at install.
    seen_cost_ns: f64,
    /// Modeled ns shipping one selected event costs (projection + batch
    /// bookkeeping + serialization); precomputed at install.
    ship_cost_ns: f64,
}

impl Subscription {
    fn new(plan: HostPlan, seed: u64, seen_base: u64, cost: &CostModel) -> Self {
        let threshold = if plan.event_fraction >= 1.0 {
            u64::MAX
        } else {
            (plan.event_fraction * u64::MAX as f64) as u64
        };
        let seen_cost_ns = cost.seen_event_ns(plan.predicate.is_some());
        // same per-event wire-size approximation the admission pricer uses
        let ship_cost_ns = cost.ship_event_cost_ns(
            plan.projection.len(),
            cost.event_wire_bytes(plan.projection.len()),
        );
        Subscription {
            selection: Selection::split(plan.predicate.as_ref(), plan.arity),
            chunk: ChunkBuilder::new(plan.type_id, plan.projection.len()),
            plan,
            rng: seed,
            sample_threshold: threshold,
            oldest_ms: i64::MAX,
            trace: Vec::new(),
            matched: 0,
            sampled: 0,
            shed: 0,
            budget_shed: 0,
            seen_base,
            bytes: 0,
            shed_window: (i64::MIN, 0),
            last_flush_ms: 0,
            seen_cost_ns,
            ship_cost_ns,
        }
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x
    }

    /// Whether a flush has anything to say: buffered events, or counters
    /// that moved off zero at some point.
    fn has_news(&self) -> bool {
        !self.chunk.is_empty() || self.matched > 0
    }
}

/// What one `log()` call adds to [`AgentStats`], summed over the
/// subscriptions it reached and published once.
#[derive(Default)]
struct Tally {
    /// Subscriptions with a predicate, all decided for this event.
    predicates: u64,
    matched: u64,
    sampled_out: u64,
    shed: u64,
    budget_shed: u64,
    shipped: u64,
    fields_projected: u64,
    bytes_shipped: u64,
    batches_flushed: u64,
    trace_spans: u64,
    trace_spans_shed: u64,
}

impl Tally {
    fn publish(&self, stats: &AgentStats) {
        let add = |counter: &AtomicU64, n: u64| {
            if n != 0 {
                stats.bump(counter, n);
            }
        };
        add(&stats.predicates_evaluated, self.predicates);
        add(&stats.events_matched, self.matched);
        add(&stats.events_sampled_out, self.sampled_out);
        add(&stats.events_shed, self.shed);
        add(&stats.events_budget_shed, self.budget_shed);
        add(&stats.events_shipped, self.shipped);
        add(&stats.fields_projected, self.fields_projected);
        add(&stats.bytes_shipped, self.bytes_shipped);
        add(&stats.batches_flushed, self.batches_flushed);
        add(&stats.trace_spans, self.trace_spans);
        add(&stats.trace_spans_shed, self.trace_spans_shed);
    }
}

impl ScrubAgent {
    /// Create an agent for the named host.
    pub fn new(host: impl Into<String>, config: ScrubConfig) -> Self {
        let threshold = trace_threshold(config.trace_sample_rate);
        let budget_ns_per_sec = config.host_cpu_budget.max(0.0) * 1e9;
        let enforce_budget = config.enforce_host_budget;
        ScrubAgent {
            host: host.into(),
            config,
            active_mask: std::array::from_fn(|_| AtomicU64::new(0)),
            inner: Mutex::new(Inner::default()),
            stats: Arc::new(AgentStats::default()),
            any_active: AtomicBool::new(false),
            trace_threshold: threshold,
            budget_ns_per_sec,
            enforce_budget,
        }
    }

    /// The host name this agent reports as.
    pub fn host(&self) -> &str {
        &self.host
    }

    /// Shared statistics handle.
    pub fn stats(&self) -> &Arc<AgentStats> {
        &self.stats
    }

    /// The disabled-path check: is any query subscribed to this event type?
    /// One relaxed atomic load — the cost an idle Scrub imposes per event.
    /// A type id past [`MAX_EVENT_TYPES`] cannot be installed, so it is
    /// inactive: the tap runs inside the application's request path and
    /// must not panic there.
    #[inline]
    pub fn is_active(&self, type_id: EventTypeId) -> bool {
        let t = type_id.0 as usize;
        match self.active_mask.get(t >> 6) {
            Some(word) => word.load(Ordering::Relaxed) & (1u64 << (t & 63)) != 0,
            None => false,
        }
    }

    /// Install a host plan (a query object arriving from the query server).
    pub fn install(&self, plan: HostPlan) -> ScrubResult<()> {
        let t = plan.type_id.0 as usize;
        if t >= MAX_EVENT_TYPES {
            return Err(ScrubError::Lifecycle(format!(
                "event type id {t} exceeds agent capacity {MAX_EVENT_TYPES}"
            )));
        }
        let mut inner = self.inner.lock();
        if inner.taps.len() <= t {
            inner.taps.resize_with(t + 1, TypeTap::default);
        }
        let tap = &mut inner.taps[t];
        if tap.subs.iter().any(|s| s.plan.query_id == plan.query_id) {
            return Err(ScrubError::Lifecycle(format!(
                "query {} already installed for type {}",
                plan.query_id, plan.event_type
            )));
        }
        let seed = sampler_seed(plan.query_id, fxhash(self.host.as_bytes()));
        tap.subs.push(Subscription::new(
            plan,
            seed,
            tap.events,
            &CostModel::default(),
        ));
        tap.rebuild();
        self.active_mask[t >> 6].fetch_or(1u64 << (t & 63), Ordering::Relaxed);
        self.any_active.store(true, Ordering::Relaxed);
        Ok(())
    }

    /// Remove all plans of a query; returns final batches (flush-on-stop)
    /// so no tail data is lost. The tail includes any size-flushed batches
    /// of this query still sitting in the outbox — leaving them for the
    /// next `take_batches` would ship them after the caller has torn down
    /// the query's delivery state. The last batch announces `now_ms` as
    /// the query's watermark: nothing of it is left on this host.
    pub fn remove(&self, query_id: QueryId, now_ms: i64) -> Vec<EventBatch> {
        let mut inner = self.inner.lock();
        let Inner {
            taps,
            outbox,
            spans_buffered,
            announced_ms,
            ..
        } = &mut *inner;
        let (mut out, kept): (Vec<_>, Vec<_>) = std::mem::take(outbox)
            .into_iter()
            .partition(|b| b.query_id == query_id);
        *outbox = kept;
        for (t, tap) in taps.iter_mut().enumerate() {
            let installed = tap.subs.len();
            let events = tap.events;
            tap.subs.retain_mut(|s| {
                if s.plan.query_id != query_id {
                    return true;
                }
                if s.has_news() {
                    let b = make_batch(&self.host, s, events);
                    *spans_buffered -= b.spans.len();
                    out.push(b);
                }
                false
            });
            if tap.subs.len() != installed {
                tap.rebuild();
            }
            if tap.subs.is_empty() {
                self.active_mask[t >> 6].fetch_and(!(1u64 << (t & 63)), Ordering::Relaxed);
            }
        }
        if let Some(last) = out.last_mut() {
            last.watermark_ms = Some(now_ms);
            *announced_ms = (*announced_ms).max(Some(now_ms));
        }
        let any = taps.iter().any(|tap| !tap.subs.is_empty());
        self.any_active.store(any, Ordering::Relaxed);
        out
    }

    /// Number of installed (query, type) subscriptions.
    pub fn subscription_count(&self) -> usize {
        self.inner.lock().taps.iter().map(|t| t.subs.len()).sum()
    }

    /// The application-facing tap. Call at every event site; when the type
    /// is inactive this is one atomic load plus a counter bump.
    ///
    /// `values` are the user fields in schema order; the two system fields
    /// are passed explicitly (§3.1).
    pub fn log(
        &self,
        type_id: EventTypeId,
        request_id: RequestId,
        timestamp_ms: i64,
        values: &[Value],
    ) {
        self.stats.bump(&self.stats.events_seen, 1);
        if !self.is_active(type_id) {
            return;
        }
        self.log_active(type_id, request_id, timestamp_ms, values);
    }

    /// Typed convenience wrapper: builds the value tuple only when the
    /// event type is active, so idle taps do not pay construction costs.
    pub fn log_typed<T: ToEvent>(
        &self,
        type_id: EventTypeId,
        request_id: RequestId,
        timestamp_ms: i64,
        record: impl FnOnce() -> T,
    ) {
        self.stats.bump(&self.stats.events_seen, 1);
        if !self.is_active(type_id) {
            return;
        }
        let values = record().into_values();
        self.log_active(type_id, request_id, timestamp_ms, &values);
    }

    #[cold]
    fn log_active(
        &self,
        type_id: EventTypeId,
        request_id: RequestId,
        timestamp_ms: i64,
        values: &[Value],
    ) {
        self.stats.bump(&self.stats.events_active, 1);
        // Lifecycle tracing: one integer compare when disabled (threshold
        // 0 short-circuits before hashing); one hash of the request id
        // when enabled. Deterministic in the request id, so every host
        // traces the same requests.
        let traced = should_trace(request_id.0, self.trace_threshold);
        let mut inner = self.inner.lock();
        let Inner {
            taps,
            outbox,
            spans_buffered,
            budget_window,
            announced_ms,
        } = &mut *inner;
        if announced_ms.is_some_and(|mark| timestamp_ms < mark) {
            self.stats.bump(&self.stats.events_behind_watermark, 1);
        }
        let Some(tap) = taps.get_mut(type_id.0 as usize) else {
            return;
        };
        let TypeTap {
            subs,
            program,
            events,
            with_predicate,
        } = tap;
        *events += 1;
        let tick = *events;
        if self.enforce_budget {
            let sec = timestamp_ms.div_euclid(1000);
            if budget_window.0 != sec {
                *budget_window = (sec, 0.0);
            }
        }

        // selection, for every subscription of the type at once
        program.probe(tick, |slot| match slot {
            TapSlot::User(i) => values.get(i).map_or(Probe::Other, Probe::of),
            TapSlot::RequestId => Probe::Num(request_id.0 as i64 as f64),
            TapSlot::Timestamp => Probe::Num(timestamp_ms as f64),
        });

        let mut tally = Tally {
            predicates: *with_predicate,
            ..Tally::default()
        };
        // The irreducible per-event cost (active tap + predicate) is
        // incurred by every subscription whether or not the event ships,
        // and the budget window must hold, at each ship check, exactly
        // what a walk over all subscriptions would have put there: `f64`
        // addition does not reassociate, so the seen costs are added one
        // by one in install order — up to a matched subscription before
        // its check, the rest after the last. `charged` subscriptions
        // have paid for this event so far.
        let mut charged = 0;
        // (outbox index, query) of the batches this event flushes by size
        let mut size_flushed: Vec<(usize, QueryId)> = Vec::new();
        for w in 0..program.words() {
            let mut candidates = program.take_candidates(w);
            while candidates != 0 {
                let i = w * 64 + candidates.trailing_zeros() as usize;
                candidates &= candidates - 1;
                if !program.atoms_hold(i, tick) {
                    continue;
                }
                let arity = subs[i].plan.arity;
                let fetch = |slot: usize| -> Cow<'_, Value> {
                    if slot < arity {
                        values
                            .get(slot)
                            .map_or(Cow::Owned(Value::Null), Cow::Borrowed)
                    } else if slot == arity {
                        Cow::Owned(Value::Long(request_id.0 as i64))
                    } else {
                        Cow::Owned(Value::DateTime(timestamp_ms))
                    }
                };
                let residual = &subs[i].selection.residual;
                if !residual.iter().all(|e| e.eval_bool_by(&fetch)) {
                    continue;
                }
                if self.enforce_budget {
                    for s in &subs[charged..=i] {
                        budget_window.1 += s.seen_cost_ns;
                    }
                    charged = i + 1;
                }
                let sub = &mut subs[i];
                sub.matched += 1;
                tally.matched += 1;
                let mut span = |sub: &mut Subscription, kind: SpanKind| {
                    // Honor the hard per-host span budget: over budget the
                    // span is dropped and counted, never allocated — the
                    // host-impact contract holds no matter the trace rate.
                    if *spans_buffered >= self.config.trace_span_budget {
                        tally.trace_spans_shed += 1;
                        return;
                    }
                    *spans_buffered += 1;
                    tally.trace_spans += 1;
                    sub.trace
                        .push(TraceSpan::new(request_id.0, kind, timestamp_ms, 0));
                };
                if traced {
                    span(sub, SpanKind::Emit);
                    span(sub, SpanKind::TapSelect);
                }

                // per-event sampling (accuracy for impact, §3.2)
                if sub.sample_threshold != u64::MAX && sub.next_u64() > sub.sample_threshold {
                    tally.sampled_out += 1;
                    if traced {
                        span(sub, SpanKind::SampledOut);
                    }
                    continue;
                }

                // load shedding: per-query events/sec budget
                let sec = timestamp_ms.div_euclid(1000);
                if sub.shed_window.0 != sec {
                    sub.shed_window = (sec, 0);
                }
                if sub.shed_window.1 >= self.config.agent_events_per_sec_budget {
                    sub.shed += 1;
                    tally.shed += 1;
                    if traced {
                        span(sub, SpanKind::Shed);
                    }
                    continue;
                }
                sub.shed_window.1 += 1;

                // per-host CPU budget: shipping this event costs a known,
                // model-priced amount; once the second's budget is spent the
                // event is dropped *after* the sampling decision (so the
                // estimator's m_i/M_i accounting stays intact) and attributed
                // to the `budget_shed` loss provenance.
                if self.enforce_budget {
                    if budget_window.1 + sub.ship_cost_ns > self.budget_ns_per_sec {
                        sub.budget_shed += 1;
                        tally.budget_shed += 1;
                        if traced {
                            span(sub, SpanKind::BudgetShed);
                        }
                        continue;
                    }
                    budget_window.1 += sub.ship_cost_ns;
                }
                sub.sampled += 1;

                // projection, straight into the subscription's columns
                sub.chunk.push_row(
                    request_id.0,
                    timestamp_ms,
                    sub.plan.projection.iter().map(|slot| match slot {
                        FieldSlot::User(i) => values
                            .get(*i)
                            .map_or(Cow::Owned(Value::Null), Cow::Borrowed),
                        FieldSlot::RequestId => Cow::Owned(Value::Long(request_id.0 as i64)),
                        FieldSlot::Timestamp => Cow::Owned(Value::DateTime(timestamp_ms)),
                    }),
                );
                tally.fields_projected += sub.plan.projection.len() as u64;
                sub.oldest_ms = sub.oldest_ms.min(timestamp_ms);
                tally.shipped += 1;
                if traced {
                    span(sub, SpanKind::Enqueue);
                }

                // size-triggered flush
                if sub.chunk.len() >= self.config.agent_batch_events {
                    let b = make_batch(&self.host, sub, tick);
                    *spans_buffered -= b.spans.len();
                    tally.bytes_shipped += b.approx_bytes() as u64;
                    tally.batches_flushed += 1;
                    size_flushed.push((outbox.len(), b.query_id));
                    outbox.push(b);
                }
            }
        }
        if self.enforce_budget {
            for s in &subs[charged..] {
                budget_window.1 += s.seen_cost_ns;
            }
        }
        // A size-flushed batch announces what is true at its place in the
        // outbox: the flushed subscription holds nothing now, the query's
        // other subscriptions (other event types, so untouched by this
        // call) hold what they held, and the host clock reads this event.
        for (at, query) in size_flushed {
            let mark = oldest_buffered(taps, query).min(timestamp_ms);
            outbox[at].watermark_ms = Some(mark);
            *announced_ms = (*announced_ms).max(Some(mark));
        }
        tally.publish(&self.stats);
    }

    /// Collect batches due for shipment: size-flushed batches plus any
    /// subscription whose flush interval elapsed (called periodically by
    /// the host's network loop).
    ///
    /// Every query with a subscription due gets exactly one watermark out
    /// of the call, on the last batch made for it here — a batch made
    /// earlier in the call sits ahead of events its sibling subscriptions
    /// are about to flush and may not speak for them. A query whose due
    /// subscriptions have never matched still reports, with one
    /// header-only batch: a targeted host that stays silent would hold
    /// every window of the query open until the grace fallback.
    pub fn take_batches(&self, now_ms: i64) -> Vec<EventBatch> {
        let mut inner = self.inner.lock();
        let mut out = std::mem::take(&mut inner.outbox);
        let Inner {
            taps,
            spans_buffered,
            announced_ms,
            ..
        } = &mut *inner;
        let mut flush = |sub: &mut Subscription, events: u64, out: &mut Vec<EventBatch>| {
            let b = make_batch(&self.host, sub, events);
            *spans_buffered -= b.spans.len();
            self.stats
                .bump(&self.stats.bytes_shipped, b.approx_bytes() as u64);
            self.stats.bump(&self.stats.batches_flushed, 1);
            out.push(b);
            out.len() - 1
        };
        let mut due: Vec<DueQuery> = Vec::new();
        for (t, tap) in taps.iter_mut().enumerate() {
            for (i, sub) in tap.subs.iter_mut().enumerate() {
                if now_ms - sub.last_flush_ms < self.config.agent_flush_interval_ms {
                    continue;
                }
                sub.last_flush_ms = now_ms;
                let query = sub.plan.query_id;
                let at = due
                    .iter()
                    .position(|d| d.query == query)
                    .unwrap_or_else(|| {
                        due.push(DueQuery {
                            query,
                            last: None,
                            speaker: (t, i),
                        });
                        due.len() - 1
                    });
                if sub.has_news() {
                    due[at].last = Some(flush(sub, tap.events, &mut out));
                }
            }
        }
        for d in due {
            let last = d.last.unwrap_or_else(|| {
                let tap = &mut taps[d.speaker.0];
                flush(&mut tap.subs[d.speaker.1], tap.events, &mut out)
            });
            let mark = oldest_buffered(taps, d.query).min(now_ms);
            out[last].watermark_ms = Some(mark);
            *announced_ms = (*announced_ms).max(Some(mark));
        }
        out
    }
}

/// One query's part in a `take_batches` call.
struct DueQuery {
    query: QueryId,
    /// Where the last batch made for it sits in the output.
    last: Option<usize>,
    /// `(type, index)` of its first due subscription: the one that reports
    /// when none of them has anything to send.
    speaker: (usize, usize),
}

/// Timestamp of the oldest event any subscription of `query` still
/// buffers on this host; `i64::MAX` when none buffers anything.
fn oldest_buffered(taps: &[TypeTap], query: QueryId) -> i64 {
    taps.iter()
        .flat_map(|tap| &tap.subs)
        .filter(|sub| sub.plan.query_id == query)
        .map(|sub| sub.oldest_ms)
        .min()
        .unwrap_or(i64::MAX)
}

/// Build a batch from a subscription's buffered events (possibly none:
/// the header alone carries the cumulative counters), encoding its columns
/// as the payload frame. `type_events` is the subscription's
/// `TypeTap::events`, from which `seen` is derived.
fn make_batch(host: &str, sub: &mut Subscription, type_events: u64) -> EventBatch {
    sub.oldest_ms = i64::MAX;
    // Spans only exist for events that matched selection, so matched > 0
    // whenever `trace` is non-empty — spans always find a batch to ride.
    let mut b = EventBatch {
        seq: 0,
        attempt: 0,
        seq_floor: 0,
        watermark_ms: None,
        query_id: sub.plan.query_id,
        type_id: sub.plan.type_id,
        host: host.to_string(),
        payload: sub.chunk.take_frame(),
        matched: sub.matched,
        sampled: sub.sampled,
        shed: sub.shed,
        budget_shed: sub.budget_shed,
        seen: type_events - sub.seen_base,
        bytes: 0,
        spans: std::mem::take(&mut sub.trace),
    };
    // Charge this batch's wire size to the cumulative shipped-bytes
    // counter it carries (the header fields themselves are not counted);
    // the payload's share is the exact encoded frame length.
    sub.bytes += b.approx_bytes() as u64;
    b.bytes = sub.bytes;
    b
}

/// The event sampler's xorshift state for one query on one host:
/// splitmix64 of the query id mixed with the host's hash, so any two
/// queries on a host — adjacent ids included — draw unrelated keep/drop
/// streams. xorshift never leaves zero, so zero maps to a fixed odd
/// constant.
fn sampler_seed(query_id: QueryId, host_hash: u64) -> u64 {
    let mut z = (query_id.0 ^ host_hash).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    match z ^ (z >> 31) {
        0 => 0x9e37_79b9_7f4a_7c15,
        seed => seed,
    }
}

fn fxhash(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
    }
    h
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)]
mod tests {
    use super::*;
    use scrub_core::plan::compile;
    use scrub_core::ql::parser::parse_query;
    use scrub_core::schema::{EventSchema, FieldDef, FieldType, SchemaRegistry};

    fn registry() -> SchemaRegistry {
        let reg = SchemaRegistry::new();
        reg.register(
            EventSchema::new(
                "bid",
                vec![
                    FieldDef::new("user_id", FieldType::Long),
                    FieldDef::new("bid_price", FieldType::Double),
                ],
            )
            .unwrap(),
        )
        .unwrap();
        reg
    }

    fn plan_for(src: &str, qid: u64) -> HostPlan {
        let spec = parse_query(src).unwrap();
        let cq = compile(&spec, &registry(), &ScrubConfig::default(), QueryId(qid)).unwrap();
        cq.host_plans[0].clone()
    }

    fn agent() -> ScrubAgent {
        ScrubAgent::new("h1", ScrubConfig::default())
    }

    #[test]
    fn inactive_type_costs_nothing_visible() {
        let a = agent();
        assert!(!a.is_active(EventTypeId(0)));
        a.log(EventTypeId(0), RequestId(1), 0, &[Value::Long(1)]);
        let s = a.stats().snapshot();
        assert_eq!(s.events_seen, 1);
        assert_eq!(s.events_active, 0);
        assert!(a.take_batches(10_000).is_empty());
    }

    #[test]
    fn out_of_range_type_id_is_inactive_not_a_panic() {
        let a = agent();
        a.install(plan_for("select COUNT(*) from bid", 1)).unwrap();
        for t in [
            MAX_EVENT_TYPES as u32,
            MAX_EVENT_TYPES as u32 + 63,
            u32::MAX,
        ] {
            assert!(!a.is_active(EventTypeId(t)));
            a.log(EventTypeId(t), RequestId(1), 0, &[Value::Long(1)]);
        }
        let s = a.stats().snapshot();
        assert_eq!(s.events_seen, 3);
        assert_eq!(s.events_active, 0);
    }

    #[test]
    fn install_activates_and_remove_deactivates() {
        let a = agent();
        let p = plan_for("select COUNT(*) from bid", 1);
        let tid = p.type_id;
        a.install(p).unwrap();
        assert!(a.is_active(tid));
        assert_eq!(a.subscription_count(), 1);
        a.remove(QueryId(1), 0);
        assert!(!a.is_active(tid));
        assert_eq!(a.subscription_count(), 0);
    }

    #[test]
    fn duplicate_install_rejected() {
        let a = agent();
        a.install(plan_for("select COUNT(*) from bid", 1)).unwrap();
        assert!(a.install(plan_for("select COUNT(*) from bid", 1)).is_err());
        // distinct query id on the same type is fine
        a.install(plan_for("select COUNT(*) from bid", 2)).unwrap();
        assert_eq!(a.subscription_count(), 2);
    }

    #[test]
    fn selection_filters_events() {
        let a = agent();
        a.install(plan_for(
            "select bid.user_id from bid where bid.bid_price > 1.0",
            1,
        ))
        .unwrap();
        let tid = EventTypeId(0);
        a.log(tid, RequestId(1), 5, &[Value::Long(7), Value::Double(2.0)]);
        a.log(tid, RequestId(2), 6, &[Value::Long(8), Value::Double(0.5)]);
        let batches = a.take_batches(10_000);
        assert_eq!(batches.len(), 1);
        let b = &batches[0];
        assert_eq!(b.len(), 1);
        assert_eq!(b.matched, 1);
        assert_eq!(b.sampled, 1);
        // projection shipped only user_id
        let evs = b.payload.to_events().unwrap();
        assert_eq!(evs[0].values, vec![Value::Long(7)]);
        assert_eq!(evs[0].request_id, RequestId(1));
    }

    #[test]
    fn event_sampling_thins_the_stream() {
        let a = agent();
        a.install(plan_for("select COUNT(*) from bid sample events 10%", 1))
            .unwrap();
        let tid = EventTypeId(0);
        for i in 0..10_000u64 {
            a.log(
                tid,
                RequestId(i),
                i as i64,
                &[Value::Long(i as i64), Value::Double(1.0)],
            );
        }
        let batches = a.take_batches(100_000);
        let shipped: usize = batches.iter().map(|b| b.len()).sum();
        let last = batches.last().unwrap();
        assert_eq!(last.matched, 10_000);
        // ~10% ± generous tolerance
        assert!(
            (700..=1300).contains(&shipped),
            "shipped {shipped} of 10000 at 10%"
        );
        assert_eq!(last.sampled as usize, shipped);
    }

    #[test]
    fn load_shedding_caps_per_second_volume() {
        let mut cfg = ScrubConfig::default();
        cfg.agent_events_per_sec_budget = 100;
        let a = ScrubAgent::new("h1", cfg);
        a.install(plan_for("select COUNT(*) from bid", 1)).unwrap();
        let tid = EventTypeId(0);
        // 500 events within the same second
        for i in 0..500u64 {
            a.log(
                tid,
                RequestId(i),
                500, // same second
                &[Value::Long(1), Value::Double(1.0)],
            );
        }
        // next second: budget resets
        for i in 0..50u64 {
            a.log(
                tid,
                RequestId(i),
                1500,
                &[Value::Long(1), Value::Double(1.0)],
            );
        }
        let batches = a.take_batches(100_000);
        let last = batches.last().unwrap();
        assert_eq!(last.matched, 550);
        assert_eq!(last.sampled, 150); // 100 in first second + 50 in next
        assert_eq!(last.shed, 400);
    }

    #[test]
    fn size_triggered_flush() {
        let mut cfg = ScrubConfig::default();
        cfg.agent_batch_events = 10;
        let a = ScrubAgent::new("h1", cfg);
        a.install(plan_for("select COUNT(*) from bid", 1)).unwrap();
        for i in 0..25u64 {
            a.log(
                EventTypeId(0),
                RequestId(i),
                0,
                &[Value::Long(1), Value::Double(1.0)],
            );
        }
        // two full batches flushed by size without take_batches being called
        let batches = a.take_batches(0);
        assert!(batches.len() >= 2);
        assert_eq!(batches[0].len(), 10);
    }

    fn bid(a: &ScrubAgent, rid: u64, ts: i64) {
        let values = [Value::Long(1), Value::Double(1.0)];
        a.log(EventTypeId(0), RequestId(rid), ts, &values);
    }

    /// The contract of `agent_flush_interval_ms`: a buffered event leaves
    /// within one interval of a poll, however busy its subscription is.
    #[test]
    fn size_flush_does_not_reset_the_time_trigger() {
        let mut cfg = ScrubConfig::default();
        cfg.agent_batch_events = 4;
        let a = ScrubAgent::new("h1", cfg);
        a.install(plan_for("select COUNT(*) from bid", 1)).unwrap();
        (0..4).for_each(|i| bid(&a, i, 990)); // flushed by size at t=990
        bid(&a, 4, 995);
        let batches = a.take_batches(1_000);
        let sizes: Vec<usize> = batches.iter().map(|b| b.len()).collect();
        assert_eq!(sizes, [4, 1], "the fifth event waits for no second batch");
        // the full batch spoke at its own event's time, the remainder's
        // flush at the poll's
        let marks: Vec<_> = batches.iter().map(|b| b.watermark_ms).collect();
        assert_eq!(marks, [Some(990), Some(1_000)]);
        // and the timer did move: nothing is due again before t=2000
        bid(&a, 5, 1_500);
        assert!(a.take_batches(1_999).is_empty());
        assert_eq!(a.take_batches(2_000).len(), 1);
    }

    #[test]
    fn a_subscription_that_never_matched_still_announces() {
        let a = agent();
        a.install(plan_for(
            "select COUNT(*) from bid where bid.bid_price > 5.0",
            1,
        ))
        .unwrap();
        bid(&a, 1, 10); // seen, not matched
        let batches = a.take_batches(1_000);
        assert_eq!(batches.len(), 1, "one header-only batch per interval");
        let b = &batches[0];
        assert_eq!((b.len(), b.seen, b.matched), (0, 1, 0));
        assert_eq!(b.watermark_ms, Some(1_000));
        assert!(a.take_batches(1_500).is_empty());
        assert_eq!(a.take_batches(2_000)[0].watermark_ms, Some(2_000));
    }

    /// A join query has one subscription per FROM type and one sequence
    /// space: of the batches one call makes for it only the last may
    /// announce, and a size-flushed batch may not pass what a sibling
    /// subscription still buffers.
    #[test]
    fn a_join_query_announces_once_per_take_and_never_past_a_sibling() {
        let reg = registry();
        reg.register(EventSchema::new("imp", vec![]).unwrap())
            .unwrap();
        let spec = parse_query("select COUNT(*) from bid, imp").unwrap();
        let mut cfg = ScrubConfig::default();
        cfg.agent_batch_events = 2;
        let cq = compile(&spec, &reg, &cfg, QueryId(1)).unwrap();
        assert_eq!(cq.host_plans.len(), 2);
        let a = ScrubAgent::new("h1", cfg);
        for plan in cq.host_plans {
            a.install(plan).unwrap();
        }
        let imp = |rid: u64, ts: i64| a.log(EventTypeId(1), RequestId(rid), ts, &[]);

        bid(&a, 1, 100); // stays buffered on the bid side
        imp(1, 200);
        imp(2, 300); // the imp side flushes by size
        bid(&a, 2, 400); // and now the bid side does
        imp(3, 500);
        let batches = a.take_batches(1_000);
        let seen: Vec<_> = batches
            .iter()
            .map(|b| (b.type_id.0, b.len(), b.watermark_ms))
            .collect();
        assert_eq!(
            seen,
            [
                // held at the bid buffered since t=100
                (1, 2, Some(100)),
                // the imp side holds nothing: the clock is the bid's own
                (0, 2, Some(400)),
                // the take: bid's empty header first, silent; imp's batch
                // last, speaking for both
                (0, 0, None),
                (1, 1, Some(1_000)),
            ]
        );
        assert_eq!(a.stats().snapshot().events_behind_watermark, 0);
        // the host clock running backwards past an announcement is counted
        imp(4, 999);
        assert_eq!(a.stats().snapshot().events_behind_watermark, 1);
    }

    #[test]
    fn remove_flushes_tail() {
        let a = agent();
        a.install(plan_for("select COUNT(*) from bid", 1)).unwrap();
        a.log(
            EventTypeId(0),
            RequestId(1),
            0,
            &[Value::Long(1), Value::Double(1.0)],
        );
        let tail = a.remove(QueryId(1), 100);
        assert_eq!(tail.len(), 1);
        assert_eq!(tail[0].len(), 1);
        assert_eq!(tail[0].watermark_ms, Some(100));
    }

    #[test]
    fn remove_tail_includes_size_flushed_outbox_batches() {
        let mut cfg = ScrubConfig::default();
        cfg.agent_batch_events = 2;
        let a = ScrubAgent::new("h1", cfg);
        a.install(plan_for("select COUNT(*) from bid", 1)).unwrap();
        a.install(plan_for("select COUNT(*) from bid", 2)).unwrap();
        for i in 0..5u64 {
            a.log(
                EventTypeId(0),
                RequestId(i),
                0,
                &[Value::Long(1), Value::Double(1.0)],
            );
        }
        // each query: two full batches in the outbox + one open event
        let tail = a.remove(QueryId(1), 100);
        assert_eq!(tail.len(), 3);
        assert_eq!(tail.iter().map(|b| b.len()).sum::<usize>(), 5);
        assert!(tail.iter().all(|b| b.query_id == QueryId(1)));
        // the other query's outbox batches are untouched
        let rest = a.take_batches(10_000);
        assert!(rest.iter().all(|b| b.query_id == QueryId(2)));
        assert_eq!(rest.iter().map(|b| b.len()).sum::<usize>(), 5);
    }

    #[test]
    fn counters_are_cumulative_across_batches() {
        let mut cfg = ScrubConfig::default();
        cfg.agent_batch_events = 5;
        let a = ScrubAgent::new("h1", cfg);
        a.install(plan_for("select COUNT(*) from bid", 1)).unwrap();
        for i in 0..12u64 {
            a.log(
                EventTypeId(0),
                RequestId(i),
                0,
                &[Value::Long(1), Value::Double(1.0)],
            );
        }
        let batches = a.take_batches(10_000);
        let matched: Vec<u64> = batches.iter().map(|b| b.matched).collect();
        assert!(matched.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(*matched.last().unwrap(), 12);
    }

    #[test]
    fn typed_logging_skips_construction_when_inactive() {
        use scrub_core::scrub_event;
        scrub_event! {
            pub struct B("bid") {
                user_id: long,
                bid_price: double,
            }
        }
        let a = agent();
        let mut built = 0u32;
        // inactive: closure must not run
        a.log_typed(EventTypeId(0), RequestId(1), 0, || {
            built += 1;
            B {
                user_id: 1,
                bid_price: 1.0,
            }
        });
        assert_eq!(built, 0);
        a.install(plan_for("select COUNT(*) from bid", 1)).unwrap();
        a.log_typed(EventTypeId(0), RequestId(1), 0, || {
            built += 1;
            B {
                user_id: 1,
                bid_price: 1.0,
            }
        });
        assert_eq!(built, 1);
    }

    #[test]
    fn tracing_disabled_by_default_no_spans() {
        let a = agent();
        a.install(plan_for("select COUNT(*) from bid", 1)).unwrap();
        a.log(
            EventTypeId(0),
            RequestId(1),
            0,
            &[Value::Long(1), Value::Double(1.0)],
        );
        let batches = a.take_batches(10_000);
        assert!(batches.iter().all(|b| b.spans.is_empty()));
        let s = a.stats().snapshot();
        assert_eq!(s.trace_spans, 0);
        assert_eq!(s.trace_spans_shed, 0);
    }

    #[test]
    fn tracing_records_lifecycle_spans() {
        let mut cfg = ScrubConfig::default();
        cfg.trace_sample_rate = 1.0;
        let a = ScrubAgent::new("h1", cfg);
        a.install(plan_for("select COUNT(*) from bid", 1)).unwrap();
        a.log(
            EventTypeId(0),
            RequestId(42),
            7,
            &[Value::Long(1), Value::Double(1.0)],
        );
        let batches = a.take_batches(10_000);
        assert_eq!(batches.len(), 1);
        let spans = &batches[0].spans;
        let kinds: Vec<SpanKind> = spans.iter().map(|s| s.kind).collect();
        assert_eq!(
            kinds,
            vec![SpanKind::Emit, SpanKind::TapSelect, SpanKind::Enqueue]
        );
        assert!(spans.iter().all(|s| s.request_id == 42 && s.at_ms == 7));
        // hosts stay empty on the wire; central backfills from the batch
        assert!(spans.iter().all(|s| s.host.is_empty()));
        assert_eq!(a.stats().snapshot().trace_spans, 3);
        // drained: the next flush carries no stale spans
        assert!(a.take_batches(20_000).iter().all(|b| b.spans.is_empty()));
    }

    #[test]
    fn tracing_records_sampled_out_and_shed_decisions() {
        let mut cfg = ScrubConfig::default();
        cfg.trace_sample_rate = 1.0;
        cfg.agent_events_per_sec_budget = 5;
        let a = ScrubAgent::new("h1", cfg);
        a.install(plan_for("select COUNT(*) from bid sample events 50%", 1))
            .unwrap();
        for i in 0..50u64 {
            a.log(
                EventTypeId(0),
                RequestId(i),
                100, // one second: budget 5 forces shedding
                &[Value::Long(1), Value::Double(1.0)],
            );
        }
        let batches = a.take_batches(10_000);
        let spans: Vec<&TraceSpan> = batches.iter().flat_map(|b| &b.spans).collect();
        assert!(spans.iter().any(|s| s.kind == SpanKind::SampledOut));
        assert!(spans.iter().any(|s| s.kind == SpanKind::Shed));
        assert!(spans.iter().any(|s| s.kind == SpanKind::Enqueue));
    }

    #[test]
    fn trace_span_budget_is_a_hard_cap() {
        let mut cfg = ScrubConfig::default();
        cfg.trace_sample_rate = 1.0;
        cfg.trace_span_budget = 4;
        let a = ScrubAgent::new("h1", cfg);
        a.install(plan_for("select COUNT(*) from bid", 1)).unwrap();
        for i in 0..10u64 {
            a.log(
                EventTypeId(0),
                RequestId(i),
                0,
                &[Value::Long(1), Value::Double(1.0)],
            );
        }
        let batches = a.take_batches(10_000);
        let buffered: usize = batches.iter().map(|b| b.spans.len()).sum();
        assert_eq!(buffered, 4, "budget caps buffered spans");
        let s = a.stats().snapshot();
        assert_eq!(s.trace_spans, 4);
        assert_eq!(s.trace_spans_shed, 10 * 3 - 4);
        // the flush freed the budget: tracing resumes
        a.log(
            EventTypeId(0),
            RequestId(99),
            20_000,
            &[Value::Long(1), Value::Double(1.0)],
        );
        assert_eq!(a.stats().snapshot().trace_spans, 7);
    }

    #[test]
    fn trace_sampling_is_deterministic_across_agents() {
        let mut cfg = ScrubConfig::default();
        cfg.trace_sample_rate = 0.3;
        let run = |host: &str| -> Vec<u64> {
            let a = ScrubAgent::new(host, cfg.clone());
            a.install(plan_for("select COUNT(*) from bid", 1)).unwrap();
            for i in 0..200u64 {
                a.log(
                    EventTypeId(0),
                    RequestId(i),
                    0,
                    &[Value::Long(1), Value::Double(1.0)],
                );
            }
            let mut rids: Vec<u64> = a
                .take_batches(10_000)
                .iter()
                .flat_map(|b| &b.spans)
                .map(|s| s.request_id)
                .collect();
            rids.dedup();
            rids
        };
        let a = run("h1");
        let b = run("completely-different-host");
        assert_eq!(a, b, "trace pick depends only on the request id");
        assert!(!a.is_empty() && a.len() < 200);
    }

    #[test]
    fn copies_of_one_query_share_atoms_but_nothing_else() {
        let mut cfg = ScrubConfig::default();
        cfg.agent_batch_events = 1_000_000;
        let a = ScrubAgent::new("h1", cfg);
        let copies = 6u64;
        for q in 1..=copies {
            a.install(plan_for(
                "select bid.user_id from bid \
                 where bid.bid_price > 1.0 and bid.user_id < 900 sample events 50%",
                q,
            ))
            .unwrap();
        }
        // the same conjunction under another spelling shares them too
        a.install(plan_for(
            "select COUNT(*) from bid where 900 > bid.user_id and 1.0 < bid.bid_price",
            copies + 1,
        ))
        .unwrap();
        assert_eq!(a.inner.lock().taps[0].program.atom_count(), 2);

        for i in 0..1_000u64 {
            let price = if i % 4 == 0 { 2.0 } else { 0.5 };
            a.log(
                EventTypeId(0),
                RequestId(i),
                0,
                &[Value::Long(i as i64), Value::Double(price)],
            );
        }
        // decided once per event for each subscription with a predicate
        assert_eq!(
            a.stats().snapshot().predicates_evaluated,
            1_000 * (copies + 1)
        );
        let batches = a.take_batches(10_000);
        assert_eq!(batches.len() as u64, copies + 1);
        let mut kept = Vec::new();
        for (b, q) in batches.iter().zip(1..) {
            assert_eq!(b.query_id, QueryId(q));
            assert_eq!((b.seen, b.matched), (1_000, 225));
            assert_eq!(b.len() as u64, b.sampled);
            kept.push(
                b.payload
                    .to_events()
                    .unwrap()
                    .iter()
                    .map(|e| e.request_id.0)
                    .collect::<Vec<_>>(),
            );
        }
        assert_eq!(
            kept[copies as usize].len(),
            225,
            "the unsampled copy keeps all"
        );
        // each sampled copy draws from its own stream
        kept.truncate(copies as usize);
        assert!(kept.iter().all(|k| (60..=165).contains(&k.len())));
        kept.sort();
        kept.dedup();
        assert_eq!(kept.len() as u64, copies);
    }

    /// Query ids 2k and 2k+1 once shared a seed, `(id ^ host hash) | 1`,
    /// and so kept exactly the same events.
    #[test]
    fn adjacent_query_ids_sample_independently() {
        let a = agent();
        for q in [2, 3] {
            a.install(plan_for("select bid.user_id from bid sample events 50%", q))
                .unwrap();
        }
        for i in 0..1_000u64 {
            bid(&a, i, 0);
        }
        let kept = |q: u64| -> Vec<u64> {
            a.remove(QueryId(q), 0)
                .iter()
                .flat_map(|b| b.payload.to_events().unwrap())
                .map(|e| e.request_id.0)
                .collect()
        };
        let (two, three) = (kept(2), kept(3));
        assert!((400..=600).contains(&two.len()), "{}", two.len());
        assert!((400..=600).contains(&three.len()), "{}", three.len());
        assert_ne!(two, three);
    }

    #[test]
    fn seen_counts_events_since_install_across_churn() {
        let a = agent();
        let log = |n: u64| {
            for i in 0..n {
                a.log(
                    EventTypeId(0),
                    RequestId(i),
                    0,
                    &[Value::Long(1), Value::Double(1.0)],
                );
            }
        };
        a.install(plan_for("select COUNT(*) from bid", 1)).unwrap();
        log(10);
        a.install(plan_for(
            "select COUNT(*) from bid where bid.bid_price > 5.0",
            2,
        ))
        .unwrap();
        log(5);
        let tail = a.remove(QueryId(1), 0);
        assert_eq!(tail.last().unwrap().seen, 15);
        log(3);
        // seen nothing match, so only `remove` has anything to say: nothing
        assert!(a.remove(QueryId(2), 0).is_empty());
        // an idle type sees nothing; a reinstall starts from zero
        log(100);
        a.install(plan_for("select COUNT(*) from bid", 3)).unwrap();
        log(2);
        assert_eq!(a.remove(QueryId(3), 0).last().unwrap().seen, 2);
    }

    #[test]
    fn two_queries_same_type_both_fed() {
        let a = agent();
        a.install(plan_for("select COUNT(*) from bid", 1)).unwrap();
        a.install(plan_for(
            "select COUNT(*) from bid where bid.bid_price > 5.0",
            2,
        ))
        .unwrap();
        a.log(
            EventTypeId(0),
            RequestId(1),
            0,
            &[Value::Long(1), Value::Double(10.0)],
        );
        a.log(
            EventTypeId(0),
            RequestId(2),
            0,
            &[Value::Long(2), Value::Double(1.0)],
        );
        let batches = a.take_batches(10_000);
        let q1: u64 = batches
            .iter()
            .filter(|b| b.query_id == QueryId(1))
            .map(|b| b.matched)
            .max()
            .unwrap();
        let q2: u64 = batches
            .iter()
            .filter(|b| b.query_id == QueryId(2))
            .map(|b| b.matched)
            .max()
            .unwrap();
        assert_eq!(q1, 2);
        assert_eq!(q2, 1);
    }
}
