//! Differential test of the tap program against the loop it replaced.
//!
//! `RefAgent` below is the host tap as it was before selection was
//! compiled: every subscription of the event's type, in install order,
//! interprets its own predicate through `eval_bool_by` and then runs
//! sampling → shed → budget → projection → flush. The agent must produce
//! the same batches — events, cumulative counters, `seen`, spans, the
//! watermark each announces, and the order they enter the outbox — and the
//! same `AgentStats`, for random
//! sets of predicates (shared atoms, conjunctions, duplicates,
//! non-indexable shapes) over random tuples (nulls, short tuples, mixed
//! numeric widths, NaN, -0.0, type-mismatched fields).

use std::borrow::Cow;

use proptest::prelude::*;
use proptest::BoxedStrategy;

use scrub_agent::{CostModel, EventBatch, ScrubAgent, StatsSnapshot};
use scrub_core::columnar::ColumnarFrame;
use scrub_core::config::{AdmissionPolicy, ScrubConfig};
use scrub_core::event::{Event, FieldSlot, RequestId};
use scrub_core::expr::{BinOp, ResolvedExpr, ScalarFn, UnaryOp};
use scrub_core::plan::{HostPlan, QueryId};
use scrub_core::schema::EventTypeId;
use scrub_core::value::Value;
use scrub_obs::trace::{should_trace, trace_threshold, SpanKind, TraceSpan, TRACE_SPAN_BUDGET};

const HOST: &str = "diff-host";
/// User fields per event type; slots 4 and 5 (and, as the interpreter has
/// it, anything beyond) are the request id and the timestamp.
const ARITY: usize = 4;
const TYPES: usize = 2;

// ------------------------------------------------------------ reference

struct RefSub {
    plan: HostPlan,
    rng: u64,
    sample_threshold: u64,
    batch: Vec<Event>,
    trace: Vec<TraceSpan>,
    matched: u64,
    sampled: u64,
    shed: u64,
    budget_shed: u64,
    seen: u64,
    bytes: u64,
    shed_window: (i64, u64),
    /// Moved by the time-triggered flush alone.
    last_flush_ms: i64,
    seen_cost_ns: f64,
    ship_cost_ns: f64,
}

impl RefSub {
    fn has_news(&self) -> bool {
        !self.batch.is_empty() || self.matched > 0
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x
    }
}

struct RefAgent {
    config: ScrubConfig,
    subs: Vec<Vec<RefSub>>,
    outbox: Vec<EventBatch>,
    spans_buffered: usize,
    budget_window: (i64, f64),
    /// Highest watermark announced so far, for any query.
    announced_ms: Option<i64>,
    stats: StatsSnapshot,
}

fn fnv(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// splitmix64 of the query id mixed with the host's hash; zero, which
/// xorshift never leaves, maps to a fixed odd constant.
fn sampler_seed(query_id: u64) -> u64 {
    let mut z = (query_id ^ fnv(HOST.as_bytes())).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    match z ^ (z >> 31) {
        0 => 0x9e37_79b9_7f4a_7c15,
        seed => seed,
    }
}

impl RefAgent {
    fn new(config: ScrubConfig) -> Self {
        RefAgent {
            config,
            subs: (0..TYPES).map(|_| Vec::new()).collect(),
            outbox: Vec::new(),
            spans_buffered: 0,
            budget_window: (0, 0.0),
            announced_ms: None,
            stats: StatsSnapshot::default(),
        }
    }

    fn install(&mut self, plan: HostPlan) {
        let cost = CostModel::default();
        let fields = plan.projection.len();
        let sub = RefSub {
            rng: sampler_seed(plan.query_id.0),
            sample_threshold: if plan.event_fraction >= 1.0 {
                u64::MAX
            } else {
                (plan.event_fraction * u64::MAX as f64) as u64
            },
            batch: Vec::new(),
            trace: Vec::new(),
            matched: 0,
            sampled: 0,
            shed: 0,
            budget_shed: 0,
            seen: 0,
            bytes: 0,
            shed_window: (i64::MIN, 0),
            last_flush_ms: 0,
            seen_cost_ns: cost.seen_event_ns(plan.predicate.is_some()),
            ship_cost_ns: cost.ship_event_cost_ns(fields, cost.event_wire_bytes(fields)),
            plan,
        };
        self.subs[sub.plan.type_id.0 as usize].push(sub);
    }

    fn make_batch(&mut self, t: usize, i: usize) -> EventBatch {
        let sub = &mut self.subs[t][i];
        let mut b = EventBatch {
            seq: 0,
            attempt: 0,
            seq_floor: 0,
            watermark_ms: None,
            query_id: sub.plan.query_id,
            type_id: sub.plan.type_id,
            host: HOST.to_string(),
            payload: ColumnarFrame::from_events(&std::mem::take(&mut sub.batch)),
            matched: sub.matched,
            sampled: sub.sampled,
            shed: sub.shed,
            budget_shed: sub.budget_shed,
            seen: sub.seen,
            bytes: 0,
            spans: std::mem::take(&mut sub.trace),
        };
        sub.bytes += b.approx_bytes() as u64;
        b.bytes = sub.bytes;
        self.spans_buffered -= b.spans.len();
        b
    }

    /// What a batch of `query` may announce at a moment the host clock
    /// reads `clock_ms`: the oldest event any of the query's subscriptions
    /// still holds back, or the clock when none holds any.
    fn mark(&mut self, query: QueryId, clock_ms: i64) -> Option<i64> {
        let mark = self
            .subs
            .iter()
            .flatten()
            .filter(|sub| sub.plan.query_id == query)
            .flat_map(|sub| sub.batch.iter().map(|ev| ev.timestamp))
            .fold(clock_ms, i64::min);
        self.announced_ms = self.announced_ms.max(Some(mark));
        Some(mark)
    }

    fn remove(&mut self, query_id: QueryId, now_ms: i64) -> Vec<EventBatch> {
        let (mut out, kept): (Vec<_>, Vec<_>) = std::mem::take(&mut self.outbox)
            .into_iter()
            .partition(|b| b.query_id == query_id);
        self.outbox = kept;
        for t in 0..TYPES {
            let mut i = 0;
            while i < self.subs[t].len() {
                if self.subs[t][i].plan.query_id == query_id {
                    if self.subs[t][i].has_news() {
                        out.push(self.make_batch(t, i));
                    }
                    self.subs[t].remove(i);
                } else {
                    i += 1;
                }
            }
        }
        if let Some(last) = out.last_mut() {
            last.watermark_ms = self.mark(query_id, now_ms);
        }
        out
    }

    fn take_batches(&mut self, now_ms: i64) -> Vec<EventBatch> {
        let mut out = std::mem::take(&mut self.outbox);
        let made_here = out.len();
        // queries with a subscription due, each with the first such
        let mut due: Vec<(QueryId, usize, usize)> = Vec::new();
        for t in 0..TYPES {
            for i in 0..self.subs[t].len() {
                let sub = &mut self.subs[t][i];
                if now_ms - sub.last_flush_ms < self.config.agent_flush_interval_ms {
                    continue;
                }
                sub.last_flush_ms = now_ms;
                let query = sub.plan.query_id;
                if !due.iter().any(|(q, _, _)| *q == query) {
                    due.push((query, t, i));
                }
                if sub.has_news() {
                    out.push(self.make_batch(t, i));
                }
            }
        }
        let flushed = out.len();
        for (query, t, i) in due {
            // one announcement per query per call: on the last batch the
            // call made for it, or on a header of its own when its due
            // subscriptions had nothing to send
            let last = match out[made_here..flushed]
                .iter()
                .rposition(|b| b.query_id == query)
            {
                Some(at) => made_here + at,
                None => {
                    out.push(self.make_batch(t, i));
                    out.len() - 1
                }
            };
            out[last].watermark_ms = self.mark(query, now_ms);
        }
        for b in &out[made_here..] {
            self.stats.bytes_shipped += b.approx_bytes() as u64;
            self.stats.batches_flushed += 1;
        }
        out
    }

    fn span(&mut self, t: usize, i: usize, rid: u64, kind: SpanKind, ts: i64) {
        if self.spans_buffered >= TRACE_SPAN_BUDGET {
            self.stats.trace_spans_shed += 1;
            return;
        }
        self.spans_buffered += 1;
        self.stats.trace_spans += 1;
        self.subs[t][i].trace.push(TraceSpan::new(rid, kind, ts, 0));
    }

    /// The per-subscription loop the tap program replaced.
    fn log(&mut self, type_id: EventTypeId, rid: u64, ts: i64, values: &[Value]) {
        self.stats.events_seen += 1;
        let t = type_id.0 as usize;
        if t >= TYPES || self.subs[t].is_empty() {
            return;
        }
        self.stats.events_active += 1;
        if self.announced_ms.is_some_and(|mark| ts < mark) {
            self.stats.events_behind_watermark += 1;
        }
        let traced = should_trace(rid, trace_threshold(self.config.trace_sample_rate));
        let enforce = self.config.admission != AdmissionPolicy::Off;
        let budget_ns_per_sec = self.config.host_cpu_budget.max(0.0) * 1e9;
        let sec = ts.div_euclid(1000);
        if enforce && self.budget_window.0 != sec {
            self.budget_window = (sec, 0.0);
        }
        for i in 0..self.subs[t].len() {
            let sub = &mut self.subs[t][i];
            sub.seen += 1;
            if enforce {
                self.budget_window.1 += sub.seen_cost_ns;
            }
            if let Some(pred) = &sub.plan.predicate {
                self.stats.predicates_evaluated += 1;
                let arity = sub.plan.arity;
                let matched = pred.eval_bool_by(&|slot| {
                    Cow::Owned(if slot < arity {
                        values.get(slot).cloned().unwrap_or(Value::Null)
                    } else if slot == arity {
                        Value::Long(rid as i64)
                    } else {
                        Value::DateTime(ts)
                    })
                });
                if !matched {
                    continue;
                }
            }
            sub.matched += 1;
            self.stats.events_matched += 1;
            if traced {
                self.span(t, i, rid, SpanKind::Emit, ts);
                self.span(t, i, rid, SpanKind::TapSelect, ts);
            }
            let sub = &mut self.subs[t][i];
            if sub.sample_threshold != u64::MAX && sub.next_u64() > sub.sample_threshold {
                self.stats.events_sampled_out += 1;
                if traced {
                    self.span(t, i, rid, SpanKind::SampledOut, ts);
                }
                continue;
            }
            if sub.shed_window.0 != sec {
                sub.shed_window = (sec, 0);
            }
            if sub.shed_window.1 >= self.config.agent_events_per_sec_budget {
                sub.shed += 1;
                self.stats.events_shed += 1;
                if traced {
                    self.span(t, i, rid, SpanKind::Shed, ts);
                }
                continue;
            }
            sub.shed_window.1 += 1;
            if enforce {
                if self.budget_window.1 + sub.ship_cost_ns > budget_ns_per_sec {
                    sub.budget_shed += 1;
                    self.stats.events_budget_shed += 1;
                    if traced {
                        self.span(t, i, rid, SpanKind::BudgetShed, ts);
                    }
                    continue;
                }
                self.budget_window.1 += sub.ship_cost_ns;
            }
            sub.sampled += 1;
            let projected: Vec<Value> = sub
                .plan
                .projection
                .iter()
                .map(|slot| match slot {
                    FieldSlot::User(i) => values.get(*i).cloned().unwrap_or(Value::Null),
                    FieldSlot::RequestId => Value::Long(rid as i64),
                    FieldSlot::Timestamp => Value::DateTime(ts),
                })
                .collect();
            self.stats.fields_projected += projected.len() as u64;
            sub.batch
                .push(Event::new(type_id, RequestId(rid), ts, projected));
            self.stats.events_shipped += 1;
            if traced {
                self.span(t, i, rid, SpanKind::Enqueue, ts);
            }
            if self.subs[t][i].batch.len() >= self.config.agent_batch_events {
                let mut b = self.make_batch(t, i);
                b.watermark_ms = self.mark(b.query_id, ts);
                self.stats.bytes_shipped += b.approx_bytes() as u64;
                self.stats.batches_flushed += 1;
                self.outbox.push(b);
            }
        }
    }
}

// ----------------------------------------------------------- generators

fn value() -> BoxedStrategy<Value> {
    let doubles = vec![
        0.0,
        -0.0,
        0.5,
        1.0,
        2.0,
        2.5,
        f64::NAN,
        -f64::NAN,
        f64::INFINITY,
    ];
    prop_oneof![
        (0i64..5).prop_map(Value::Long),
        (0i64..5).prop_map(Value::Long),
        (0i32..5).prop_map(Value::Int),
        prop::sample::select(doubles).prop_map(Value::Double),
        prop::sample::select(vec![0.0f32, -0.0, 0.5, 3.0, f32::NAN]).prop_map(Value::Float),
        any::<bool>().prop_map(Value::Bool),
        (0i64..4).prop_map(|s| Value::DateTime(s * 700)),
        prop::sample::select(vec!["a", "b", "c", ""]).prop_map(Value::from),
        Just(Value::Null),
        Just(Value::List(vec![Value::Long(1)])),
    ]
    .boxed()
}

fn cmp(op: BinOp, lhs: ResolvedExpr, rhs: ResolvedExpr) -> ResolvedExpr {
    ResolvedExpr::Binary {
        op,
        lhs: Box::new(lhs),
        rhs: Box::new(rhs),
    }
}

/// `slot <cmp> literal`, either way round: what the index takes (when the
/// operator and the literal's type allow) — drawn from few enough slots
/// and literals that subscriptions share atoms.
fn atom() -> BoxedStrategy<ResolvedExpr> {
    let ops = vec![
        BinOp::Eq,
        BinOp::Eq,
        BinOp::Lt,
        BinOp::Le,
        BinOp::Gt,
        BinOp::Ge,
    ];
    (
        0usize..ARITY + 3,
        prop::sample::select(ops),
        value(),
        any::<bool>(),
    )
        .prop_map(|(slot, op, lit, flipped)| {
            let (slot, lit) = (ResolvedExpr::Input(slot), ResolvedExpr::Literal(lit));
            if flipped {
                cmp(op, lit, slot)
            } else {
                cmp(op, slot, lit)
            }
        })
        .boxed()
}

/// Shapes that must stay with the interpreter.
fn non_indexable() -> BoxedStrategy<ResolvedExpr> {
    let slot = || (0usize..ARITY + 2).prop_map(ResolvedExpr::Input);
    let lit = || value().prop_map(ResolvedExpr::Literal);
    prop_oneof![
        (slot(), lit()).prop_map(|(s, l)| cmp(BinOp::Ne, s, l)),
        (atom(), atom()).prop_map(|(a, b)| cmp(BinOp::Or, a, b)),
        atom().prop_map(|a| ResolvedExpr::Unary {
            op: UnaryOp::Not,
            expr: Box::new(a),
        }),
        (slot(), prop::collection::vec(value(), 0..4), any::<bool>()).prop_map(
            |(s, list, negated)| ResolvedExpr::InList {
                expr: Box::new(s),
                list,
                negated,
            }
        ),
        (slot(), any::<bool>()).prop_map(|(s, negated)| ResolvedExpr::IsNull {
            expr: Box::new(s),
            negated,
        }),
        (slot(), lit()).prop_map(|(s, l)| cmp(
            BinOp::Gt,
            ResolvedExpr::Call {
                func: ScalarFn::Length,
                args: vec![s],
            },
            l
        )),
        (slot(), lit(), lit()).prop_map(|(s, a, b)| cmp(BinOp::Le, cmp(BinOp::Add, s, a), b)),
        (lit(), lit()).prop_map(|(a, b)| cmp(BinOp::Eq, a, b)),
        (slot(), slot()).prop_map(|(a, b)| cmp(BinOp::Eq, a, b)),
        slot(),
    ]
    .boxed()
}

/// `None` (pass-through), one conjunct, or an `AND` tree of up to four,
/// nested to the left or to the right.
fn predicate() -> BoxedStrategy<Option<ResolvedExpr>> {
    let conjunct = prop_oneof![atom(), atom(), atom(), non_indexable()];
    (prop::collection::vec(conjunct, 0..5), any::<bool>())
        .prop_map(|(conjuncts, left)| {
            conjuncts.into_iter().reduce(|acc, c| {
                if left {
                    cmp(BinOp::And, acc, c)
                } else {
                    cmp(BinOp::And, c, acc)
                }
            })
        })
        .boxed()
}

#[derive(Debug, Clone)]
struct SubSpec {
    predicate: Option<ResolvedExpr>,
    /// Take the predicate of an earlier subscription instead (mod index).
    copy_of: Option<usize>,
    type_id: u32,
    projection: Vec<FieldSlot>,
    fraction: f64,
    /// Thirds of the stream at which it is installed / removed, when the
    /// scenario churns (0 = before the first event, 3 = never removed).
    install_at: usize,
    remove_at: usize,
}

fn sub_spec() -> BoxedStrategy<SubSpec> {
    let field_slot = prop_oneof![
        (0usize..ARITY + 1).prop_map(FieldSlot::User),
        Just(FieldSlot::RequestId),
        Just(FieldSlot::Timestamp),
    ];
    (
        predicate(),
        prop::option::of(0usize..40),
        0u32..TYPES as u32,
        prop::collection::vec(field_slot, 0..3),
        prop::sample::select(vec![0.5, 0.1, 0.9]),
        (0usize..3, 1usize..4),
    )
        .prop_map(
            |(predicate, copy_of, type_id, projection, fraction, (install_at, remove_at))| {
                SubSpec {
                    predicate,
                    copy_of: copy_of.filter(|c| c % 3 == 0),
                    type_id,
                    projection,
                    fraction,
                    install_at,
                    remove_at,
                }
            },
        )
        .boxed()
}

#[derive(Debug, Clone)]
struct EventSpec {
    type_id: u32,
    rid: u64,
    /// Virtual ms since the previous event.
    gap_ms: i64,
    values: Vec<Value>,
}

fn event_spec() -> BoxedStrategy<EventSpec> {
    (
        0u32..TYPES as u32 + 1, // one id nobody subscribes to
        0u64..6,
        0i64..90,
        prop::collection::vec(value(), 0..ARITY + 2),
    )
        .prop_map(|(type_id, rid, gap_ms, values)| EventSpec {
            type_id,
            rid,
            gap_ms,
            values,
        })
        .boxed()
}

#[derive(Debug, Clone, Copy, Default)]
struct Scenario {
    sampling: bool,
    tiny_shed_budget: bool,
    enforce_host_budget: bool,
    churn: bool,
    /// Lifecycle-trace sample rate (0 = off).
    trace_rate: f64,
}

// ---------------------------------------------------------------- check

/// Subscription `i`'s query. An odd subscription tapping another type
/// than its predecessor joins the predecessor's query, as the second FROM
/// type of a join would: one query, two subscriptions, one watermark.
fn query_of(specs: &[SubSpec], i: usize) -> QueryId {
    let joins = i % 2 == 1 && specs[i].type_id != specs[i - 1].type_id;
    QueryId(if joins { i as u64 } else { i as u64 + 1 })
}

fn plan_of(specs: &[SubSpec], i: usize, scenario: Scenario) -> HostPlan {
    let spec = &specs[i];
    let predicate = match spec.copy_of {
        Some(c) if i > 0 => specs[c % i].predicate.clone(),
        _ => spec.predicate.clone(),
    };
    HostPlan {
        query_id: query_of(specs, i),
        event_type: format!("t{}", spec.type_id),
        type_id: EventTypeId(spec.type_id),
        arity: ARITY,
        predicate,
        projection: spec.projection.clone(),
        event_fraction: if scenario.sampling {
            spec.fraction
        } else {
            1.0
        },
        est_selectivity: 1.0,
    }
}

/// Debug rendering: `PartialEq` would call two equal NaN fields unequal.
fn render(batches: &[EventBatch]) -> Vec<String> {
    batches.iter().map(|b| format!("{b:?}")).collect()
}

/// Runs both taps over the stream, asserting they agree, and returns the
/// agent's statistics and the reference's.
fn check(specs: &[SubSpec], events: &[EventSpec], scenario: Scenario) -> [StatsSnapshot; 2] {
    let mut config = ScrubConfig {
        agent_batch_events: 3,
        agent_flush_interval_ms: 400,
        ..Default::default()
    };
    if scenario.tiny_shed_budget {
        config.agent_events_per_sec_budget = 2;
    }
    if scenario.enforce_host_budget {
        // admission control on: the tap enforces the host budget
        config.admission = AdmissionPolicy::Evict;
        // a few thousand modeled ns a second: enough for some events of
        // a second to ship and the rest to be budget-shed
        config.host_cpu_budget = 4e-6;
    }
    config.trace_sample_rate = scenario.trace_rate;
    let agent = ScrubAgent::new(HOST, config.clone());
    let mut reference = RefAgent::new(config);

    let third = |k: usize| k * events.len() / 3;
    let install_at = |i: usize| match scenario.churn {
        true => third(specs[i].install_at),
        false => 0,
    };
    let remove_at = |i: usize| match scenario.churn {
        true => third(specs[i].remove_at),
        false => events.len(),
    };
    let mut now = 0i64;
    for (n, ev) in events.iter().enumerate() {
        for i in 0..specs.len() {
            if install_at(i) == n {
                agent.install(plan_of(specs, i, scenario)).unwrap();
                reference.install(plan_of(specs, i, scenario));
            }
            if remove_at(i) == n && install_at(i) < n {
                let qid = query_of(specs, i);
                assert_eq!(
                    render(&agent.remove(qid, now)),
                    render(&reference.remove(qid, now)),
                    "tail of query {qid:?} removed before event {n}"
                );
            }
        }
        now += ev.gap_ms;
        agent.log(EventTypeId(ev.type_id), RequestId(ev.rid), now, &ev.values);
        reference.log(EventTypeId(ev.type_id), ev.rid, now, &ev.values);
        if n % 7 == 6 {
            assert_eq!(
                render(&agent.take_batches(now)),
                render(&reference.take_batches(now)),
                "batches taken after event {n}"
            );
        }
    }
    assert_eq!(
        render(&agent.take_batches(now + 10_000)),
        render(&reference.take_batches(now + 10_000)),
        "final batches"
    );
    assert_eq!(agent.stats().snapshot(), reference.stats);
    [agent.stats().snapshot(), reference.stats]
}

/// Every event traced on 64 unfiltered subscriptions of one type: after
/// two events they hold 64 × 6 = 384 spans, past the per-host cap, so
/// both taps must shed spans — and shed the same ones.
#[test]
fn both_taps_reach_the_trace_span_cap() {
    let specs: Vec<SubSpec> = (0..64)
        .map(|_| SubSpec {
            predicate: None,
            copy_of: None,
            type_id: 0,
            projection: vec![FieldSlot::User(0)],
            fraction: 1.0,
            install_at: 0,
            remove_at: 3,
        })
        .collect();
    let events: Vec<EventSpec> = (0..30)
        .map(|rid| EventSpec {
            type_id: 0,
            rid,
            gap_ms: 1,
            values: vec![Value::Long(rid as i64)],
        })
        .collect();
    let scenario = Scenario {
        trace_rate: 1.0,
        ..Default::default()
    };
    for stats in check(&specs, &events, scenario) {
        assert!(stats.trace_spans_shed > 0);
    }
}

fn subs() -> impl Strategy<Value = Vec<SubSpec>> {
    prop::collection::vec(sub_spec(), 1..41)
}

fn stream() -> impl Strategy<Value = Vec<EventSpec>> {
    prop::collection::vec(event_spec(), 30..120)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    fn plain(specs in subs(), events in stream()) {
        check(&specs, &events, Scenario::default());
    }

    fn with_event_sampling(specs in subs(), events in stream()) {
        check(&specs, &events, Scenario { sampling: true, ..Default::default() });
    }

    fn with_a_tiny_shed_budget(specs in subs(), events in stream()) {
        check(&specs, &events, Scenario { tiny_shed_budget: true, ..Default::default() });
    }

    fn with_the_host_budget_enforced(specs in subs(), events in stream()) {
        check(&specs, &events, Scenario { enforce_host_budget: true, ..Default::default() });
    }

    fn with_installs_and_removes_mid_stream(specs in subs(), events in stream()) {
        check(&specs, &events, Scenario { churn: true, ..Default::default() });
    }

    fn with_everything_at_once(specs in subs(), events in stream()) {
        check(&specs, &events, Scenario {
            sampling: true,
            tiny_shed_budget: true,
            enforce_host_budget: true,
            churn: true,
            trace_rate: 0.5,
        });
    }
}
