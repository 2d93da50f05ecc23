//! The columnar request-id join against the row join it replaced.
//!
//! [`RefJoin`] is the executor's former join, kept as the oracle: every
//! arriving event is cloned into a per-request map per covering window,
//! and a closing window builds each joined row value by value before
//! evaluating residual, group keys and aggregates on it. The executor now
//! buffers references into shared column chunks and merge-joins them; the
//! two must agree on every result row, every counter, after every step.

use std::collections::{BTreeMap, HashMap};

use proptest::prelude::*;

use scrub_agent::EventBatch;
use scrub_central::{AggState, QueryExecutor, QuerySummary, ResultRow, MAX_JOIN_ROWS_PER_REQUEST};
use scrub_core::columnar::ColumnarFrame;
use scrub_core::config::ScrubConfig;
use scrub_core::event::{Event, RequestId};
use scrub_core::plan::{compile, CentralPlan, OperatorKind, OutputCol, OutputMode, QueryId};
use scrub_core::ql::parser::parse_query;
use scrub_core::schema::{EventSchema, EventTypeId, FieldDef, FieldType, SchemaRegistry};
use scrub_core::value::{GroupKey, Value};
use scrub_obs::PlanProfile;

const GRACE_MS: i64 = 1_000;

/// One group of the oracle: key values as first seen, aggregate states,
/// rows folded.
struct RefGroup {
    keys: Vec<Value>,
    aggs: Vec<AggState>,
    rows: u64,
}

/// The oracle's groups of one window, ordered by canonical key: its own
/// map and cap logic, independent of the executor's group table.
type Groups = BTreeMap<Vec<GroupKey>, RefGroup>;

/// Integer counters of the central operators, as the row join kept them.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct RefCounters {
    decode_rows_in: u64,
    decode_rows_out: u64,
    join_build_rows_in: u64,
    join_build_rows_out: u64,
    join_probe_rows_in: u64,
    join_probe_rows_out: u64,
    residual_rows_in: u64,
    residual_rows_out: u64,
    group_rows_in: u64,
    stream_rows_in: u64,
    stream_rows_out: u64,
}

/// The row-materialising join: a per-request map of cloned events per
/// window, and a probe loop that fills one joined row per combination.
struct RefJoin {
    plan: CentralPlan,
    windows: BTreeMap<i64, HashMap<u64, Vec<Vec<Event>>>>,
    closed_before_ms: i64,
    stream_out: Vec<ResultRow>,
    windows_closed: u64,
    /// Of `windows_closed`, those still open when the query finished.
    closed_at_finish: u64,
    windows_emitted: u64,
    rendered_rows: u64,
    degraded_rows: u64,
    decode_bytes: u64,
    join_rows_capped: u64,
    late_events_dropped: u64,
    groups_overflow: u64,
    counters: RefCounters,
    /// Header totals are not the join's business: a twin executor that
    /// sees every batch header and no event supplies the scale factor,
    /// the summary's totals and the host-side profile rows.
    headers: QueryExecutor,
}

impl RefJoin {
    fn new(plan: CentralPlan) -> Self {
        assert!(plan.is_join(), "the oracle only knows joins");
        RefJoin {
            headers: QueryExecutor::new(plan.clone(), GRACE_MS),
            plan,
            windows: BTreeMap::new(),
            closed_before_ms: i64::MIN,
            stream_out: Vec::new(),
            windows_closed: 0,
            closed_at_finish: 0,
            windows_emitted: 0,
            rendered_rows: 0,
            degraded_rows: 0,
            decode_bytes: 0,
            join_rows_capped: 0,
            late_events_dropped: 0,
            groups_overflow: 0,
            counters: RefCounters::default(),
        }
    }

    fn buffered_events(&self) -> usize {
        self.windows
            .values()
            .flat_map(|per_request| per_request.values())
            .map(|slots| slots.iter().map(Vec::len).sum::<usize>())
            .sum()
    }

    fn ingest(&mut self, batch: &EventBatch) {
        self.headers.ingest(EventBatch {
            payload: ColumnarFrame::from_events(&[]),
            ..batch.clone()
        });
        self.decode_bytes += batch.approx_bytes() as u64;
        for ev in batch.payload.to_events().unwrap() {
            self.counters.decode_rows_in += 1;
            let Some(input_idx) = self.plan.input_index(ev.type_id) else {
                continue;
            };
            let (w, s) = (self.plan.window_ms, self.plan.slide_ms);
            let covered: Vec<i64> = ((ev.timestamp - w).div_euclid(s) + 1
                ..=ev.timestamp.div_euclid(s))
                .map(|k| k * s)
                .filter(|start| *start >= self.closed_before_ms)
                .collect();
            if covered.is_empty() {
                self.late_events_dropped += 1;
                continue;
            }
            self.counters.decode_rows_out += 1;
            self.counters.join_build_rows_in += 1;
            self.counters.join_build_rows_out += covered.len() as u64;
            for start in covered {
                self.windows
                    .entry(start)
                    .or_default()
                    .entry(ev.request_id.0)
                    .or_insert_with(|| vec![Vec::new(); self.plan.inputs.len()])[input_idx]
                    .push(ev.clone());
            }
        }
    }

    fn fill_block(&self, row: &mut [Value], ev: &Event, input_idx: usize) {
        let input = &self.plan.inputs[input_idx];
        let off = input.block_offset;
        for (i, v) in ev.values.iter().enumerate() {
            if i < input.fields.len() {
                row[off + i] = v.clone();
            }
        }
        row[off + input.fields.len()] = Value::Long(ev.request_id.0 as i64);
        row[off + input.fields.len() + 1] = Value::DateTime(ev.timestamp);
    }

    fn advance(&mut self, now_ms: i64) -> Vec<ResultRow> {
        let mut out = Vec::new();
        let scale = self.headers.scale();
        let cutoff = now_ms
            .saturating_sub(self.plan.window_ms)
            .saturating_sub(GRACE_MS);
        let due: Vec<i64> = self.windows.range(..=cutoff).map(|(w, _)| *w).collect();
        for w in due {
            let per_request = self.windows.remove(&w).expect("key just listed");
            let overflow_before = self.groups_overflow;
            let groups = self.close_window(w, per_request);
            // a window that dropped rows to the group cap renders degraded
            let degraded = self.groups_overflow > overflow_before;
            self.closed_before_ms = self.closed_before_ms.max(w + self.plan.slide_ms);
            self.windows_closed += 1;
            let OutputMode::Aggregate { output, .. } = &self.plan.mode else {
                continue;
            };
            if !groups.is_empty() {
                self.windows_emitted += 1;
            }
            self.rendered_rows += groups.len() as u64;
            self.degraded_rows += if degraded { groups.len() as u64 } else { 0 };
            for g in groups.into_values() {
                out.push(ResultRow {
                    query_id: self.plan.query_id,
                    window_start_ms: w,
                    values: output
                        .iter()
                        .map(|col| match col {
                            OutputCol::Group(i) => g.keys.get(*i).cloned().unwrap_or(Value::Null),
                            OutputCol::Agg(i) => g.aggs[*i].finish(scale),
                        })
                        .collect(),
                    degraded,
                });
            }
        }
        // stream rows come after the closes, those of the windows closing
        // now included, as in the executor
        out.append(&mut self.stream_out);
        out
    }

    fn close_window(&mut self, w: i64, per_request: HashMap<u64, Vec<Vec<Event>>>) -> Groups {
        let mut groups = BTreeMap::new();
        let mut row = vec![Value::Null; self.plan.row_width];
        let mut req_ids: Vec<u64> = per_request.keys().copied().collect();
        req_ids.sort_unstable();
        self.counters.join_probe_rows_in += per_request
            .values()
            .map(|slots| slots.iter().map(Vec::len).sum::<usize>() as u64)
            .sum::<u64>();
        for rid in req_ids {
            let slots = &per_request[&rid];
            // inner join: every input must have at least one event
            if slots.iter().any(Vec::is_empty) {
                continue;
            }
            let total: usize = slots.iter().map(Vec::len).product();
            let emit = total.min(MAX_JOIN_ROWS_PER_REQUEST);
            self.join_rows_capped += (total - emit) as u64;
            self.counters.join_probe_rows_out += emit as u64;
            let mut combo = vec![0usize; slots.len()];
            for _ in 0..emit {
                row.fill(Value::Null);
                for (i, slot) in slots.iter().enumerate() {
                    self.fill_block(&mut row, &slot[combo[i]], i);
                }
                let passes = match &self.plan.residual {
                    Some(r) => {
                        self.counters.residual_rows_in += 1;
                        let ok = r.eval_bool(&row);
                        self.counters.residual_rows_out += ok as u64;
                        ok
                    }
                    None => true,
                };
                if passes {
                    match &self.plan.mode {
                        OutputMode::Stream(exprs) => {
                            self.stream_out.push(ResultRow {
                                query_id: self.plan.query_id,
                                window_start_ms: w,
                                values: exprs.iter().map(|e| e.eval(&row)).collect(),
                                degraded: false,
                            });
                            self.counters.stream_rows_in += 1;
                            self.counters.stream_rows_out += 1;
                        }
                        OutputMode::Aggregate { .. } => {
                            self.counters.group_rows_in += 1;
                            self.groups_overflow += self.update_groups(&mut groups, &row);
                        }
                    }
                }
                // advance the mixed-radix combination counter
                for i in (0..combo.len()).rev() {
                    combo[i] += 1;
                    if combo[i] < slots[i].len() {
                        break;
                    }
                    combo[i] = 0;
                }
            }
        }
        groups
    }

    /// Fold one materialised row, keeping the `max_groups` smallest keys.
    fn update_groups(&self, groups: &mut Groups, row: &[Value]) -> u64 {
        let OutputMode::Aggregate {
            group_by,
            aggregates,
            ..
        } = &self.plan.mode
        else {
            unreachable!("caller matched aggregate mode");
        };
        let cap = self.plan.max_groups.max(1);
        let key_vals: Vec<Value> = group_by.iter().map(|g| g.eval(row)).collect();
        let keys: Vec<GroupKey> = key_vals.iter().map(Value::group_key).collect();
        let mut dropped = 0u64;
        if !groups.contains_key(&keys) {
            if groups.len() >= cap {
                let new_is_largest = groups.last_key_value().is_some_and(|(k, _)| *k < keys);
                if new_is_largest {
                    return 1;
                }
                let (_, evicted) = groups.pop_last().expect("len >= cap >= 1");
                dropped += evicted.rows;
            }
            groups.insert(
                keys.clone(),
                RefGroup {
                    keys: key_vals,
                    aggs: aggregates.iter().map(AggState::new).collect(),
                    rows: 0,
                },
            );
        }
        let entry = groups.get_mut(&keys).expect("group just ensured present");
        entry.rows += 1;
        for (i, agg) in aggregates.iter().enumerate() {
            let v = agg.arg.as_ref().map(|a| a.eval(row));
            entry.aggs[i].update(v.as_ref());
        }
        dropped
    }

    fn finish(&mut self) -> (Vec<ResultRow>, QuerySummary) {
        let closed = self.windows_closed;
        let rows = self.advance(i64::MAX / 4);
        self.closed_at_finish += self.windows_closed - closed;
        let mut summary = self.headers.finish().1;
        summary.windows_emitted = self.windows_emitted;
        summary.degraded_rows = self.degraded_rows;
        summary.groups_overflow = self.groups_overflow;
        (rows, summary)
    }

    /// The profile the executor must report: the twin's host-side rows and
    /// notes, with this oracle's counters on the central operators.
    fn plan_profile(&self) -> PlanProfile {
        let c = &self.counters;
        let mut profile = self.headers.plan_profile();
        for desc in self.plan.operators() {
            let op = profile.op_mut(desc.id.0).expect("operator in skeleton");
            (op.rows_in, op.rows_out) = match desc.kind {
                OperatorKind::Decode => {
                    op.bytes = self.decode_bytes;
                    (c.decode_rows_in, c.decode_rows_out)
                }
                OperatorKind::JoinBuild => (c.join_build_rows_in, c.join_build_rows_out),
                OperatorKind::JoinProbe => (c.join_probe_rows_in, c.join_probe_rows_out),
                OperatorKind::Residual => (c.residual_rows_in, c.residual_rows_out),
                OperatorKind::GroupAgg => (c.group_rows_in, self.rendered_rows),
                OperatorKind::WindowClose => (self.windows_closed, self.windows_emitted),
                OperatorKind::Stream => (c.stream_rows_in, c.stream_rows_out),
                _ => continue,
            };
        }
        // nobody vouches for a window here: each closes on the grace, or
        // at finish
        if self.windows_closed > 0 {
            profile.notes.push(format!(
                "windows closed: 0 on host watermarks, {} by the grace fallback, {} at finish",
                self.windows_closed - self.closed_at_finish,
                self.closed_at_finish
            ));
        }
        if self.groups_overflow > 0 {
            profile.notes.push(format!(
                "group state capped at {} groups: groups_kept {} (rendered), groups_dropped {} rows past the cap",
                self.plan.max_groups.max(1),
                self.rendered_rows,
                self.groups_overflow
            ));
        }
        profile
    }
}

/// A profile with the wall-clock ns of the central operators masked.
fn integer_counters(mut profile: PlanProfile) -> PlanProfile {
    for op in profile.ops.iter_mut().filter(|op| !op.host_side) {
        op.ns = 0;
    }
    profile
}

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

fn registry() -> SchemaRegistry {
    let reg = SchemaRegistry::new();
    let schemas = [
        (
            "a",
            vec![
                ("k", FieldType::Str),
                ("x", FieldType::Long),
                ("f", FieldType::Double),
            ],
        ),
        (
            "b",
            vec![
                ("k", FieldType::Str),
                ("y", FieldType::Long),
                ("g", FieldType::Double),
            ],
        ),
        ("c", vec![("z", FieldType::Long)]),
    ];
    for (name, fields) in schemas {
        let fields = fields
            .into_iter()
            .map(|(f, t)| FieldDef::new(f, t))
            .collect();
        reg.register(EventSchema::new(name, fields).unwrap())
            .unwrap();
    }
    reg
}

/// The joins under test: 2 and 3 inputs, tumbling and sliding windows,
/// string / integer / float keys, cross-type residuals, stream mode, and a
/// group cap small enough to overflow. The residuals cover what the probe
/// runs as typed kernels (comparisons of slots across sides: strings with
/// strings, longs with doubles; AND, OR, NOT) and what it interprets (IS
/// NULL, IN, arithmetic).
const QUERIES: [(&str, usize); 10] = [
    (
        "select a.k, COUNT(*), SUM(b.g), AVG(a.f), MIN(b.k), MAX(a.x) from a, b \
         where a.x = b.y or a.f > 0.5 group by a.k window 10 s",
        65_536,
    ),
    (
        "select b.g, COUNT(*), SUM(a.f) from a, b group by b.g window 10 s slide 5 s",
        65_536,
    ),
    (
        "select a.x, b.y, COUNT(*), AVG(b.g) from a, b, c where a.x <= c.z \
         group by a.x, b.y window 10 s",
        65_536,
    ),
    (
        "select a.k, b.y, a.f, b.request_id from a, b where a.x != b.y window 10 s",
        65_536,
    ),
    (
        "select a.x, b.k, COUNT(*), SUM(a.f) from a, b group by a.x, b.k window 10 s slide 5 s",
        3,
    ),
    (
        "select a.x, c.z, b.g from a, b, c where a.x = c.z or b.g > 0.5 window 10 s slide 5 s",
        65_536,
    ),
    (
        "select b.k, COUNT(*), SUM(a.f), MIN(a.k) from a, b where a.k = b.k \
         group by b.k window 10 s",
        2,
    ),
    (
        "select a.k, b.k, a.x, b.g from a, b where a.k < b.k or a.x < b.g window 10 s",
        65_536,
    ),
    (
        "select a.k, COUNT(*), MAX(b.y) from a, b, c \
         where not (a.x = c.z or a.f >= b.g) \
         and (b.g is null or a.x in (1, 2, 9007199254740993)) \
         group by a.k window 10 s slide 5 s",
        65_536,
    ),
    (
        "select a.x, b.k, COUNT(*), AVG(b.g) from a, b where a.x + b.y > 2 \
         group by a.x, b.k window 10 s",
        4,
    ),
];

fn plan_for(query: usize) -> CentralPlan {
    let (src, max_groups) = QUERIES[query];
    let config = ScrubConfig {
        max_groups,
        ..ScrubConfig::default()
    };
    compile(&parse_query(src).unwrap(), &registry(), &config, QueryId(7))
        .unwrap()
        .central
}

/// Values in a field's pool ([`field_value`]).
const PICKS: usize = 9;

/// One event before it is fitted to a plan: values are drawn per field
/// name once the plan says which fields its input ships.
#[derive(Debug, Clone)]
struct EventSpec {
    type_id: u32,
    request_id: u64,
    ts: i64,
    /// Picks each field's value out of its pool.
    picks: [usize; 3],
    /// -1 ships one value too few, +1 one too many.
    arity_skew: i8,
}

#[derive(Debug, Clone)]
struct Step {
    host: usize,
    events: Vec<EventSpec>,
    /// Advance the watermark by this much after the batch.
    advance_ms: Option<i64>,
}

fn field_value(field: &str, pick: usize) -> Value {
    let strings = ["a", "b", "c", "dd", ""];
    let longs = [0i64, 1, 2, 3, -1];
    let doubles = [0.25, 0.75, f64::NAN, -0.0, 1e300];
    // 2^53 + 1 is the first long that `as f64` rounds: to 2^53
    let big = 1i64 << 53;
    match (field, pick % PICKS) {
        (_, 5) => Value::Null,
        // a second variant in the column forces the per-row fallback
        ("x" | "y" | "z", 6) => Value::Int(2),
        ("f" | "g", 6) => Value::Float(0.75),
        ("x" | "y" | "z", 7) => Value::Long(big),
        ("x" | "y" | "z", 8) => Value::Long(big + 1),
        ("f" | "g", 7) => Value::Double(big as f64),
        ("k", p) => Value::Str(strings[p % 5].into()),
        ("x" | "y" | "z", p) => Value::Long(longs[p % 5]),
        (_, p) => Value::Double(doubles[p % 5]),
    }
}

fn arb_event() -> impl Strategy<Value = EventSpec> {
    (
        // type 3 is foreign to every plan
        0u32..4,
        prop_oneof![0u64..4, 0u64..4, 0u64..4, 1_000_000u64..1_000_002],
        0i64..25_000,
        [0..PICKS, 0..PICKS, 0..PICKS],
        prop_oneof![Just(0i8), Just(0i8), Just(0i8), Just(-1i8), Just(1i8)],
    )
        .prop_map(|(type_id, request_id, ts, picks, arity_skew)| EventSpec {
            type_id,
            request_id,
            ts,
            picks,
            arity_skew,
        })
}

fn arb_step() -> impl Strategy<Value = Step> {
    (
        0usize..3,
        // mostly one type per batch, as a subscription ships them
        prop_oneof![
            (0u32..3, prop::collection::vec(arb_event(), 0..24)).prop_map(|(t, mut evs)| {
                evs.iter_mut().for_each(|e| e.type_id = t);
                evs
            }),
            prop::collection::vec(arb_event(), 0..12),
        ],
        prop::option::of(0i64..6_000),
    )
        .prop_map(|(host, events, advance_ms)| Step {
            host,
            events,
            advance_ms,
        })
}

fn fit(plan: &CentralPlan, spec: &EventSpec) -> Event {
    let values = match plan.input_index(EventTypeId(spec.type_id)) {
        Some(i) => {
            let fields = &plan.inputs[i].fields;
            let arity = (fields.len() as i64 + spec.arity_skew as i64).max(0) as usize;
            (0..arity)
                .map(|j| match fields.get(j) {
                    Some(field) => field_value(field, spec.picks[j % 3]),
                    None => Value::Long(99),
                })
                .collect()
        }
        None => vec![Value::Long(1)],
    };
    Event::new(
        EventTypeId(spec.type_id),
        RequestId(spec.request_id),
        spec.ts,
        values,
    )
}

/// Drive the executor and the oracle through the same steps, comparing
/// everything observable after each.
fn check(plan: CentralPlan, steps: &[Step]) {
    let mut exec = QueryExecutor::new(plan.clone(), GRACE_MS);
    let mut oracle = RefJoin::new(plan.clone());
    let mut sent: HashMap<(usize, u32), u64> = HashMap::new();
    let mut now_ms = 0i64;
    let debug = |rows: &[ResultRow]| format!("{rows:#?}");
    let counters = |e: &QueryExecutor| {
        (
            e.buffered_events(),
            e.late_events_dropped,
            e.join_rows_capped,
        )
    };
    for (seq, step) in steps.iter().enumerate() {
        let events: Vec<Event> = step.events.iter().map(|s| fit(&plan, s)).collect();
        let type_id = EventTypeId(step.events.first().map_or(0, |e| e.type_id));
        let total = sent.entry((step.host, type_id.0)).or_default();
        *total += events.len() as u64;
        let batch = EventBatch {
            query_id: plan.query_id,
            seq: seq as u64,
            attempt: 0,
            seq_floor: 0,
            watermark_ms: None,
            type_id,
            host: format!("h{}", step.host),
            payload: ColumnarFrame::from_events(&events),
            matched: *total + 3,
            sampled: *total,
            shed: 0,
            budget_shed: 0,
            seen: *total + 5,
            bytes: 0,
            spans: vec![],
        };
        oracle.ingest(&batch);
        exec.ingest(batch);
        assert_eq!(
            counters(&exec),
            (
                oracle.buffered_events(),
                oracle.late_events_dropped,
                oracle.join_rows_capped
            ),
            "after ingest {seq}"
        );
        if let Some(delta) = step.advance_ms {
            now_ms += delta;
            assert_eq!(
                debug(&exec.advance(now_ms)),
                debug(&oracle.advance(now_ms)),
                "rows at advance({now_ms}) after ingest {seq}"
            );
            assert_eq!(exec.buffered_events(), oracle.buffered_events());
            assert_eq!(
                integer_counters(exec.plan_profile()),
                integer_counters(oracle.plan_profile()),
                "profile at advance({now_ms})"
            );
        }
    }
    let (rows, summary) = exec.finish();
    let (want_rows, want_summary) = oracle.finish();
    assert_eq!(debug(&rows), debug(&want_rows), "rows at finish");
    assert_eq!(format!("{summary:?}"), format!("{want_summary:?}"));
    assert_eq!(
        counters(&exec),
        (0, oracle.late_events_dropped, oracle.join_rows_capped)
    );
    assert_eq!(
        integer_counters(exec.plan_profile()),
        integer_counters(oracle.plan_profile())
    );
    // a join that streams its last windows at finish returns them there
    assert!(oracle.stream_out.is_empty());
    assert!(exec.advance(i64::MAX / 4).is_empty());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Requests missing a side, duplicates, request ids out of order
    /// across batches and hosts, late events, short and long chunks,
    /// nulls, mixed-variant columns, NaN keys, foreign event types: the
    /// columnar join is the row join.
    #[test]
    fn columnar_join_matches_row_oracle(
        query in 0usize..QUERIES.len(),
        steps in prop::collection::vec(arb_step(), 1..14),
    ) {
        check(plan_for(query), &steps);
    }
}

/// One request whose cross product passes the cap, in the middle of
/// ordinary requests: the cap cuts the same rows off the enumeration.
fn capped_steps(sides: &[(u32, usize)]) -> Vec<Step> {
    sides
        .iter()
        .enumerate()
        .map(|(host, &(type_id, n))| Step {
            host,
            events: (0..n + 6)
                .map(|i| EventSpec {
                    type_id,
                    // the hot request, with ordinary ones on either side
                    request_id: if i < n { 50 } else { 45 + 2 * (i - n) as u64 },
                    ts: 1_000 + i as i64,
                    picks: [i % 4, i % 3, i % 2],
                    arity_skew: 0,
                })
                .collect(),
            advance_ms: None,
        })
        .collect()
}

#[test]
fn cross_product_cap_matches_row_oracle() {
    // 320 x 320 = 102 400 and 50 x 50 x 50 = 125 000, both past 100 000
    check(plan_for(0), &capped_steps(&[(0, 320), (1, 320)]));
    check(plan_for(2), &capped_steps(&[(0, 50), (1, 50), (2, 50)]));
    check(plan_for(3), &capped_steps(&[(0, 320), (1, 320)]));
}
