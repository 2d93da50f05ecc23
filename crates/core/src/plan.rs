//! Query validation and planning: splitting a ScrubQL query into *query
//! objects* (§4).
//!
//! Scrub's primary query-optimization goal is minimizing impact on the
//! hosts, so planning departs from the classical "push work to the data"
//! strategy: **only selection and projection run on the hosts** (they
//! shrink the data the host must ship); join, group-by and aggregation are
//! all placed in ScrubCentral. The planner therefore produces:
//!
//! * one [`HostPlan`] per FROM event type — predicate + projection +
//!   per-event sampling, compiled to slot-indexed form; and
//! * one [`CentralPlan`] — the request-id equi-join, residual (cross-type)
//!   selection, group-by, aggregation and window logic.

use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

use crate::config::ScrubConfig;
use crate::error::{ScrubError, ScrubResult};
use crate::event::FieldSlot;
use crate::expr::{BinOp, Binder, Expr, FieldRef, ResolvedExpr};
use crate::ql::ast::{AggFn, QuerySpec, SampleSpec, SelectItem};
use crate::schema::{
    EventSchema, EventTypeId, FieldType, SchemaRegistry, SYS_REQUEST_ID, SYS_TIMESTAMP,
};

/// Unique identifier the query server assigns each accepted query; all
/// query objects and result batches are tagged with it (§4).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct QueryId(pub u64);

impl fmt::Display for QueryId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q#{}", self.0)
    }
}

/// The selection + projection + sampling *query object* shipped to each
/// host participating in a query.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HostPlan {
    /// Owning query.
    pub query_id: QueryId,
    /// Event type label this plan taps.
    pub event_type: String,
    /// Resolved event type id.
    pub type_id: EventTypeId,
    /// Number of user fields in the event type (slot layout: user fields at
    /// `0..arity`, `request_id` at `arity`, `timestamp` at `arity + 1`).
    pub arity: usize,
    /// Host-side selection; `None` means all events of the type match.
    pub predicate: Option<ResolvedExpr>,
    /// Host-side projection: the (few) field slots shipped to central.
    pub projection: Vec<FieldSlot>,
    /// Per-event sampling fraction in (0, 1].
    pub event_fraction: f64,
    /// Planner's estimate of the predicate's selectivity (System-R style
    /// magic fractions; `1.0` when there is no predicate). `EXPLAIN
    /// ANALYZE` audits this against the observed match rate.
    #[serde(default)]
    pub est_selectivity: f64,
}

impl HostPlan {
    /// Slot index of the `timestamp` pseudo-field under this plan's layout.
    pub fn timestamp_slot(&self) -> usize {
        self.arity + 1
    }
}

/// One input stream of the central plan and where its fields land in the
/// joined row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CentralInput {
    /// Event type label.
    pub event_type: String,
    /// Resolved type id.
    pub type_id: EventTypeId,
    /// Projected user-field names, in shipped order.
    pub fields: Vec<String>,
    /// Offset of this input's block in the joined row. Block layout:
    /// `fields...` then `request_id` then `timestamp`.
    pub block_offset: usize,
    /// Whether the matching host plan carries a predicate (so central can
    /// enumerate the host-side operators without seeing the host plans).
    #[serde(default)]
    pub has_predicate: bool,
    /// Planner's selectivity estimate for that predicate (`1.0` without
    /// one); mirrored from [`HostPlan::est_selectivity`].
    #[serde(default)]
    pub pred_selectivity: f64,
}

impl CentralInput {
    /// Width of this input's block in the joined row.
    pub fn block_len(&self) -> usize {
        self.fields.len() + 2
    }
}

/// An aggregate application in the central plan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AggSpec {
    /// Aggregation function.
    pub func: AggFn,
    /// Argument over the joined row; `None` only for `COUNT(*)`.
    pub arg: Option<ResolvedExpr>,
}

/// How a result column is produced in aggregate mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OutputCol {
    /// The i-th group-by key.
    Group(usize),
    /// The i-th aggregate.
    Agg(usize),
}

/// What ScrubCentral computes per window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum OutputMode {
    /// No aggregation: every (joined, selected) row is a result row; the
    /// expressions are evaluated per row.
    Stream(Vec<ResolvedExpr>),
    /// Grouped aggregation per tumbling window.
    Aggregate {
        /// Group-by key expressions over the joined row (empty = one
        /// global group).
        group_by: Vec<ResolvedExpr>,
        /// Aggregates, in select-list order of appearance.
        aggregates: Vec<AggSpec>,
        /// Mapping from select items to keys/aggregates.
        output: Vec<OutputCol>,
    },
}

/// Host-population metadata the query server fills in at dispatch time; the
/// two-stage sampling estimator (Eqs 1–3) needs `N` (hosts matching the
/// target clause) and `n` (hosts actually selected after host sampling).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct HostSampleInfo {
    /// Hosts matching the target clause (`N`).
    pub matching: usize,
    /// Hosts selected to run the query (`n`).
    pub selected: usize,
}

/// The join/group-by/aggregation *query object* sent to ScrubCentral (§4).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CentralPlan {
    /// Owning query.
    pub query_id: QueryId,
    /// Window length (ms).
    pub window_ms: i64,
    /// Slide step (ms); equal to `window_ms` for tumbling windows. A
    /// smaller slide produces overlapping windows starting every
    /// `slide_ms` (the §3.2 sliding-window extension).
    pub slide_ms: i64,
    /// Input streams (one per FROM type), with joined-row layout.
    pub inputs: Vec<CentralInput>,
    /// Cross-type selection that could not be pushed to hosts; evaluated
    /// after the join.
    pub residual: Option<ResolvedExpr>,
    /// Stream or aggregate output.
    pub mode: OutputMode,
    /// Result column headers.
    pub headers: Vec<String>,
    /// Total joined-row width.
    pub row_width: usize,
    /// Sampling spec (used to scale estimates and compute error bounds).
    pub sample: SampleSpec,
    /// Host counts for the estimator; filled by the server at dispatch.
    pub host_info: HostSampleInfo,
    /// Planner's selectivity estimate for the residual cross-type
    /// selection (`1.0` when there is none).
    #[serde(default)]
    pub residual_selectivity: f64,
    /// Cap on distinct group-by keys held per window (from
    /// `ScrubConfig::max_groups`). Overflow keeps the `max_groups`
    /// smallest keys — deterministic in the key values alone — and counts
    /// dropped rows in `groups_overflow`.
    #[serde(default)]
    pub max_groups: usize,
}

impl CentralPlan {
    /// Input index for a type id, if it participates in the query.
    pub fn input_index(&self, type_id: EventTypeId) -> Option<usize> {
        self.inputs.iter().position(|i| i.type_id == type_id)
    }

    /// True if this plan joins multiple event types.
    pub fn is_join(&self) -> bool {
        self.inputs.len() > 1
    }

    /// Enumerate every operator of the full (host + central) plan, in
    /// pipeline order, with stable [`OperatorId`]s. The central plan
    /// carries enough metadata (`has_predicate`, `pred_selectivity`,
    /// projected field lists, the sample spec) for the enumeration to be
    /// self-contained — ScrubCentral derives the `EXPLAIN ANALYZE`
    /// skeleton from the plan it already holds.
    pub fn operators(&self) -> Vec<OperatorDesc> {
        let mut ops = Vec::new();
        for (i, input) in self.inputs.iter().enumerate() {
            let base = (i * OPS_PER_HOST_PLAN) as u32;
            ops.push(OperatorDesc {
                id: OperatorId(base),
                kind: OperatorKind::Selection,
                input: Some(i),
                host_side: true,
                est_selectivity: input.pred_selectivity,
                label: format!("selection({})", input.event_type),
            });
            ops.push(OperatorDesc {
                id: OperatorId(base + 1),
                kind: OperatorKind::Sampling,
                input: Some(i),
                host_side: true,
                est_selectivity: self.sample.event_fraction,
                label: format!("sampling({})", input.event_type),
            });
            ops.push(OperatorDesc {
                id: OperatorId(base + 2),
                kind: OperatorKind::Projection,
                input: Some(i),
                host_side: true,
                est_selectivity: 1.0,
                label: format!("projection({})", input.event_type),
            });
        }
        let base = (self.inputs.len() * OPS_PER_HOST_PLAN) as u32;
        ops.push(OperatorDesc {
            id: OperatorId(base),
            kind: OperatorKind::Decode,
            input: None,
            host_side: false,
            est_selectivity: 1.0,
            label: "decode/route".to_string(),
        });
        if self.is_join() {
            ops.push(OperatorDesc {
                id: OperatorId(base + 1),
                kind: OperatorKind::JoinBuild,
                input: None,
                host_side: false,
                est_selectivity: 1.0,
                label: "join-build(request_id)".to_string(),
            });
            ops.push(OperatorDesc {
                id: OperatorId(base + 2),
                kind: OperatorKind::JoinProbe,
                input: None,
                host_side: false,
                est_selectivity: 1.0,
                label: "join-probe(request_id)".to_string(),
            });
        }
        if self.residual.is_some() {
            ops.push(OperatorDesc {
                id: OperatorId(base + 3),
                kind: OperatorKind::Residual,
                input: None,
                host_side: false,
                est_selectivity: self.residual_selectivity,
                label: "residual-filter".to_string(),
            });
        }
        match &self.mode {
            OutputMode::Aggregate { .. } => {
                ops.push(OperatorDesc {
                    id: OperatorId(base + 4),
                    kind: OperatorKind::GroupAgg,
                    input: None,
                    host_side: false,
                    est_selectivity: 1.0,
                    label: "group/aggregate".to_string(),
                });
                ops.push(OperatorDesc {
                    id: OperatorId(base + 5),
                    kind: OperatorKind::WindowClose,
                    input: None,
                    host_side: false,
                    est_selectivity: 1.0,
                    label: "window-close".to_string(),
                });
            }
            OutputMode::Stream(_) => {
                ops.push(OperatorDesc {
                    id: OperatorId(base + 4),
                    kind: OperatorKind::Stream,
                    input: None,
                    host_side: false,
                    est_selectivity: 1.0,
                    label: "stream-project".to_string(),
                });
            }
        }
        ops
    }
}

/// Operators each host plan contributes (selection, sampling, projection
/// — the *only* operators Scrub places on hosts).
pub const OPS_PER_HOST_PLAN: usize = 3;

/// Stable identifier of one operator in a compiled plan. Host plans get
/// [`OPS_PER_HOST_PLAN`] consecutive ids each, in FROM order; central
/// operators follow at fixed slots after them, so the same query shape
/// always yields the same ids — profiles from different runs line up by
/// id.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct OperatorId(pub u32);

impl fmt::Display for OperatorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "op{}", self.0)
    }
}

/// What a plan operator does (and therefore where it is allowed to run:
/// the first three are the host-side trio, everything else is central).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OperatorKind {
    /// Host-side predicate evaluation at the tap.
    Selection,
    /// Host-side per-event sampling decision (plus batch enqueue/ship).
    Sampling,
    /// Host-side field projection of shipped events.
    Projection,
    /// Central batch decode + window selection (labelled `decode/route`).
    Decode,
    /// Central equi-join build (buffering events per request id).
    JoinBuild,
    /// Central equi-join probe (producing joined rows at window close).
    JoinProbe,
    /// Central residual cross-type selection after the join.
    Residual,
    /// Central group-by + aggregate update.
    GroupAgg,
    /// Central window close + merged render.
    WindowClose,
    /// Central stream-mode row projection.
    Stream,
}

/// One operator of the compiled plan, as enumerated by
/// [`CentralPlan::operators`].
#[derive(Debug, Clone, PartialEq)]
pub struct OperatorDesc {
    /// Stable operator id.
    pub id: OperatorId,
    /// Operator kind.
    pub kind: OperatorKind,
    /// FROM-input index for host-side operators.
    pub input: Option<usize>,
    /// True for the host-side trio (placement invariant: only selection,
    /// sampling and projection ever run on hosts).
    pub host_side: bool,
    /// Planner's selectivity estimate for this operator.
    pub est_selectivity: f64,
    /// Human-readable label, e.g. `selection(bid)`.
    pub label: String,
}

/// System-R-style selectivity estimate for a resolved predicate: equality
/// passes 1/10, ranges pass 1/3, `AND` multiplies, `OR` adds minus the
/// overlap, `NOT` complements, and anything opaque (calls, bare fields)
/// is assumed to pass everything. Deliberately crude — the point of
/// `EXPLAIN ANALYZE` is to show how these guesses compare to reality.
pub fn selectivity_estimate(e: &ResolvedExpr) -> f64 {
    use crate::expr::UnaryOp;
    match e {
        ResolvedExpr::Binary { op, lhs, rhs } => match op {
            BinOp::Eq => 0.1,
            BinOp::Ne => 0.9,
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => 1.0 / 3.0,
            BinOp::And => selectivity_estimate(lhs) * selectivity_estimate(rhs),
            BinOp::Or => {
                let (a, b) = (selectivity_estimate(lhs), selectivity_estimate(rhs));
                a + b - a * b
            }
            _ => 1.0,
        },
        ResolvedExpr::Unary {
            op: UnaryOp::Not,
            expr,
        } => 1.0 - selectivity_estimate(expr),
        ResolvedExpr::InList { list, negated, .. } => {
            let s = (0.1 * list.len() as f64).min(1.0);
            if *negated {
                1.0 - s
            } else {
                s
            }
        }
        ResolvedExpr::IsNull { negated, .. } => {
            if *negated {
                0.9
            } else {
                0.1
            }
        }
        _ => 1.0,
    }
}

/// A fully validated and compiled query: the pair of query-object kinds plus
/// resolved span parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompiledQuery {
    /// Assigned query id.
    pub query_id: QueryId,
    /// The original (parsed) query.
    pub spec: QuerySpec,
    /// One host plan per FROM event type.
    pub host_plans: Vec<HostPlan>,
    /// The central plan.
    pub central: CentralPlan,
    /// Resolved window (ms).
    pub window_ms: i64,
    /// Resolved duration (ms).
    pub duration_ms: i64,
}

impl CompiledQuery {
    /// Human-readable plan rendering: which operators run where — the
    /// paper's placement decision, visible per query.
    pub fn explain(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        writeln!(
            s,
            "query {} — {}",
            self.query_id,
            crate::ql::printer::print_query(&self.spec)
        )
        .expect("string write");
        writeln!(
            s,
            "span: window {} ms (slide {} ms), duration {} ms",
            self.window_ms, self.central.slide_ms, self.duration_ms
        )
        .expect("string write");
        writeln!(s, "host plans (selection + projection + sampling ONLY):").expect("string write");
        for hp in &self.host_plans {
            writeln!(
                s,
                "  [{}] predicate: {}, ships {} field(s), event sampling {:.0}%",
                hp.event_type,
                if hp.predicate.is_some() {
                    "yes"
                } else {
                    "none"
                },
                hp.projection.len(),
                hp.event_fraction * 100.0
            )
            .expect("string write");
        }
        writeln!(s, "central plan (ScrubCentral):").expect("string write");
        if self.central.is_join() {
            writeln!(
                s,
                "  equi-join on request_id across {} inputs",
                self.central.inputs.len()
            )
            .expect("string write");
        }
        if self.central.residual.is_some() {
            writeln!(s, "  residual cross-type selection after join").expect("string write");
        }
        match &self.central.mode {
            OutputMode::Stream(exprs) => {
                writeln!(s, "  stream: {} column(s) per matching row", exprs.len())
                    .expect("string write");
            }
            OutputMode::Aggregate {
                group_by,
                aggregates,
                ..
            } => {
                writeln!(
                    s,
                    "  group by {} key(s), {} aggregate(s)",
                    group_by.len(),
                    aggregates.len()
                )
                .expect("string write");
            }
        }
        s
    }
}

/// Tumbling-window length of a query with no WINDOW clause — the paper's
/// case studies all use 10-second windows.
pub const DEFAULT_WINDOW_MS: i64 = 10_000;
/// Span of a query with no DURATION clause (§3.2: minutes, so a forgotten
/// query cannot load the system forever).
pub const DEFAULT_DURATION_MS: i64 = 10 * 60_000;
/// Hard cap on a query's span; longer requests are clamped.
pub const MAX_DURATION_MS: i64 = 24 * 3_600_000;
/// Most event types one query may join (joins are expensive at central).
pub const MAX_JOIN_TYPES: usize = 4;

/// Validate `spec` against `registry` and compile it into query objects.
pub fn compile(
    spec: &QuerySpec,
    registry: &SchemaRegistry,
    config: &ScrubConfig,
    query_id: QueryId,
) -> ScrubResult<CompiledQuery> {
    if spec.select.is_empty() {
        return Err(ScrubError::Validate("empty select list".into()));
    }
    if spec.from.is_empty() {
        return Err(ScrubError::Validate("empty FROM clause".into()));
    }
    if spec.from.len() > MAX_JOIN_TYPES {
        return Err(ScrubError::Unsupported(format!(
            "query joins {} event types; the limit is {} (joins are expensive at central)",
            spec.from.len(),
            MAX_JOIN_TYPES
        )));
    }
    {
        let mut seen = BTreeSet::new();
        for t in &spec.from {
            if !seen.insert(t.as_str()) {
                return Err(ScrubError::Unsupported(format!(
                    "self-join on event type {t:?} is not supported"
                )));
            }
        }
    }

    // Resolve schemas.
    let mut schemas: Vec<(EventTypeId, Arc<EventSchema>)> = Vec::new();
    for label in &spec.from {
        let (id, schema) = registry
            .schema_by_name(label)
            .ok_or_else(|| ScrubError::Validate(format!("unknown event type {label:?}")))?;
        schemas.push((id, schema));
    }

    let resolver = TypeResolver {
        spec,
        schemas: &schemas,
    };

    // Reject aggregates outside the select list.
    if let Some(w) = &spec.where_clause {
        reject_agg_markers(w, "WHERE")?;
    }
    for g in &spec.group_by {
        reject_agg_markers(g, "GROUP BY")?;
    }

    // Resolve every field reference first, so reference errors (unknown /
    // ambiguous fields) are reported precisely before type checking.
    {
        let check = |e: &Expr| -> ScrubResult<()> {
            for r in e.field_refs() {
                resolver.resolve_ref(r)?;
            }
            Ok(())
        };
        if let Some(w) = &spec.where_clause {
            check(w)?;
        }
        for g in &spec.group_by {
            check(g)?;
        }
        for item in &spec.select {
            match item {
                SelectItem::Expr { expr, .. } => check(expr)?,
                SelectItem::Agg { arg: Some(a), .. } => check(a)?,
                SelectItem::Agg { arg: None, .. } => {}
            }
        }
    }

    // Type-check WHERE.
    let oracle = |f: &FieldRef| resolver.field_type(f);
    if let Some(w) = &spec.where_clause {
        let t = w.infer_type(&oracle)?;
        if t != FieldType::Bool {
            return Err(ScrubError::Validate(format!(
                "WHERE clause has type {t}, expected boolean"
            )));
        }
    }
    for g in &spec.group_by {
        g.infer_type(&oracle)?;
    }

    // Classify WHERE conjuncts: single-type conjuncts run on hosts,
    // cross-type conjuncts run at central after the join.
    let mut host_preds: Vec<Option<Expr>> = vec![None; spec.from.len()];
    let mut residual: Option<Expr> = None;
    if let Some(w) = &spec.where_clause {
        for conj in conjuncts(w) {
            let touched = resolver.types_touched(&conj)?;
            match touched.len() {
                0 => {
                    // constant predicate — apply on every host stream
                    for slot in host_preds.iter_mut() {
                        *slot = Expr::and(slot.take(), Some(conj.clone()));
                    }
                }
                1 => {
                    let idx = *touched.iter().next().expect("len checked");
                    host_preds[idx] = Expr::and(host_preds[idx].take(), Some(conj.clone()));
                }
                _ => {
                    residual = Expr::and(residual.take(), Some(conj.clone()));
                }
            }
        }
    }

    // Aggregate / plain select analysis.
    let has_agg = spec.has_aggregates();
    let aggregate_mode = has_agg || !spec.group_by.is_empty();
    if aggregate_mode {
        for (i, item) in spec.select.iter().enumerate() {
            if let SelectItem::Expr { expr, .. } = item {
                if !spec.group_by.iter().any(|g| g == expr) {
                    return Err(ScrubError::Validate(format!(
                        "select item {} is neither an aggregate nor a GROUP BY key",
                        i + 1
                    )));
                }
            }
        }
    }

    // Type-check aggregate arguments.
    for item in &spec.select {
        if let SelectItem::Agg { func, arg, .. } = item {
            match (func, arg) {
                (AggFn::Count, None) => {}
                (_, None) => {
                    return Err(ScrubError::Validate(format!(
                        "{} requires an argument",
                        func.name()
                    )));
                }
                (f, Some(a)) => {
                    reject_agg_markers(a, "aggregate argument")?;
                    let t = a.infer_type(&oracle)?;
                    let ok = match f {
                        AggFn::Sum | AggFn::Avg => t.is_numeric(),
                        AggFn::Min | AggFn::Max => {
                            t.is_numeric() || t == FieldType::Str || t == FieldType::DateTime
                        }
                        AggFn::Count | AggFn::TopK(_) | AggFn::CountDistinct => true,
                    };
                    if !ok {
                        return Err(ScrubError::Validate(format!(
                            "{} cannot aggregate values of type {t}",
                            f.name()
                        )));
                    }
                }
            }
        }
    }

    // Per-type needed fields: everything referenced by group-by, aggregate
    // arguments, plain select expressions and the central residual.
    let mut needed: Vec<BTreeSet<String>> = vec![BTreeSet::new(); spec.from.len()];
    let mut note_refs = |e: &Expr| -> ScrubResult<()> {
        for r in e.field_refs() {
            let (idx, name) = resolver.resolve_ref(r)?;
            if name != SYS_REQUEST_ID && name != SYS_TIMESTAMP {
                needed[idx].insert(name);
            }
        }
        Ok(())
    };
    for g in &spec.group_by {
        note_refs(g)?;
    }
    for item in &spec.select {
        match item {
            SelectItem::Expr { expr, .. } => note_refs(expr)?,
            SelectItem::Agg { arg: Some(a), .. } => note_refs(a)?,
            SelectItem::Agg { arg: None, .. } => {}
        }
    }
    if let Some(r) = &residual {
        note_refs(r)?;
    }

    // Build host plans.
    let mut host_plans = Vec::with_capacity(spec.from.len());
    for (i, (type_id, schema)) in schemas.iter().enumerate() {
        let arity = schema.arity();
        let binder = HostBinder {
            schema,
            type_label: &spec.from[i],
        };
        let predicate = match &host_preds[i] {
            Some(p) => Some(p.resolve(&binder)?),
            None => None,
        };
        let est_selectivity = predicate.as_ref().map_or(1.0, selectivity_estimate);
        // deterministic projection order: schema field order
        let mut projection = Vec::new();
        for (fi, f) in schema.fields.iter().enumerate() {
            if needed[i].contains(&f.name) {
                projection.push(FieldSlot::User(fi));
            }
        }
        host_plans.push(HostPlan {
            query_id,
            event_type: spec.from[i].clone(),
            type_id: *type_id,
            arity,
            predicate,
            projection,
            event_fraction: spec.sample.event_fraction,
            est_selectivity,
        });
    }

    // Build the central joined-row layout.
    let mut inputs = Vec::with_capacity(spec.from.len());
    let mut offset = 0usize;
    for (i, (type_id, schema)) in schemas.iter().enumerate() {
        let fields: Vec<String> = schema
            .fields
            .iter()
            .filter(|f| needed[i].contains(&f.name))
            .map(|f| f.name.clone())
            .collect();
        let input = CentralInput {
            event_type: spec.from[i].clone(),
            type_id: *type_id,
            fields,
            block_offset: offset,
            has_predicate: host_plans[i].predicate.is_some(),
            pred_selectivity: host_plans[i].est_selectivity,
        };
        offset += input.block_len();
        inputs.push(input);
    }
    let row_width = offset;

    let central_binder = CentralBinder {
        inputs: &inputs,
        resolver: &resolver,
    };

    let residual_resolved = match &residual {
        Some(r) => Some(r.resolve(&central_binder)?),
        None => None,
    };

    let mode = if aggregate_mode {
        let group_by: Vec<ResolvedExpr> = spec
            .group_by
            .iter()
            .map(|g| g.resolve(&central_binder))
            .collect::<ScrubResult<_>>()?;
        let mut aggregates = Vec::new();
        let mut output = Vec::new();
        for item in &spec.select {
            match item {
                SelectItem::Expr { expr, .. } => {
                    let gi = spec
                        .group_by
                        .iter()
                        .position(|g| g == expr)
                        .expect("validated above");
                    output.push(OutputCol::Group(gi));
                }
                SelectItem::Agg { func, arg, .. } => {
                    let arg = match arg {
                        Some(a) => Some(a.resolve(&central_binder)?),
                        None => None,
                    };
                    aggregates.push(AggSpec {
                        func: func.clone(),
                        arg,
                    });
                    output.push(OutputCol::Agg(aggregates.len() - 1));
                }
            }
        }
        OutputMode::Aggregate {
            group_by,
            aggregates,
            output,
        }
    } else {
        let exprs: Vec<ResolvedExpr> = spec
            .select
            .iter()
            .map(|item| match item {
                SelectItem::Expr { expr, .. } => expr.resolve(&central_binder),
                SelectItem::Agg { .. } => unreachable!("aggregate_mode is false"),
            })
            .collect::<ScrubResult<_>>()?;
        OutputMode::Stream(exprs)
    };

    let window_ms = spec.window_ms.unwrap_or(DEFAULT_WINDOW_MS);
    if window_ms <= 0 {
        return Err(ScrubError::Validate("window must be positive".into()));
    }
    let slide_ms = spec.slide_ms.unwrap_or(window_ms);
    if slide_ms <= 0 || slide_ms > window_ms {
        return Err(ScrubError::Validate(format!(
            "slide ({slide_ms} ms) must be positive and at most the window \
             ({window_ms} ms)"
        )));
    }
    let duration_ms = spec
        .duration_ms
        .unwrap_or(DEFAULT_DURATION_MS)
        .min(MAX_DURATION_MS);
    if duration_ms <= 0 {
        return Err(ScrubError::Validate("duration must be positive".into()));
    }

    let residual_selectivity = residual_resolved.as_ref().map_or(1.0, selectivity_estimate);
    let central = CentralPlan {
        query_id,
        window_ms,
        slide_ms,
        inputs,
        residual: residual_resolved,
        mode,
        headers: spec.headers(),
        row_width,
        sample: spec.sample,
        host_info: HostSampleInfo::default(),
        residual_selectivity,
        max_groups: config.max_groups.max(1),
    };

    Ok(CompiledQuery {
        query_id,
        spec: spec.clone(),
        host_plans,
        central,
        window_ms,
        duration_ms,
    })
}

/// Split an expression into its top-level AND conjuncts.
fn conjuncts(e: &Expr) -> Vec<Expr> {
    match e {
        Expr::Binary {
            op: BinOp::And,
            lhs,
            rhs,
        } => {
            let mut out = conjuncts(lhs);
            out.extend(conjuncts(rhs));
            out
        }
        other => vec![other.clone()],
    }
}

/// Detect parser aggregate markers in positions where aggregates are
/// illegal (see `ql::parser` for the marker encoding).
fn reject_agg_markers(e: &Expr, ctx: &str) -> ScrubResult<()> {
    let found = match e {
        Expr::InList { list, .. } => list
            .iter()
            .any(|v| matches!(v, crate::value::Value::Str(s) if s.starts_with('\u{0}'))),
        _ => false,
    };
    if found {
        return Err(ScrubError::Validate(format!(
            "aggregates are not allowed in {ctx}"
        )));
    }
    match e {
        Expr::Literal(_) | Expr::Field(_) => Ok(()),
        Expr::Unary { expr, .. } => reject_agg_markers(expr, ctx),
        Expr::Binary { lhs, rhs, .. } => {
            reject_agg_markers(lhs, ctx)?;
            reject_agg_markers(rhs, ctx)
        }
        Expr::Call { args, .. } => {
            for a in args {
                reject_agg_markers(a, ctx)?;
            }
            Ok(())
        }
        Expr::InList { expr, .. } => reject_agg_markers(expr, ctx),
        Expr::IsNull { expr, .. } => reject_agg_markers(expr, ctx),
    }
}

/// Resolves field references to `(from-index, field-name)` pairs, handling
/// bare names by searching all FROM types.
struct TypeResolver<'a> {
    spec: &'a QuerySpec,
    schemas: &'a [(EventTypeId, Arc<EventSchema>)],
}

impl<'a> TypeResolver<'a> {
    fn resolve_ref(&self, r: &FieldRef) -> ScrubResult<(usize, String)> {
        match &r.event_type {
            Some(t) => {
                let idx = self.spec.from.iter().position(|x| x == t).ok_or_else(|| {
                    ScrubError::Validate(format!(
                        "field {r} references event type {t:?} which is not in FROM"
                    ))
                })?;
                let schema = &self.schemas[idx].1;
                if schema.field_type(&r.field).is_none() {
                    return Err(ScrubError::Validate(format!(
                        "event type {t:?} has no field {:?}",
                        r.field
                    )));
                }
                Ok((idx, r.field.clone()))
            }
            None => {
                // system fields resolve to the first FROM type
                if r.field == SYS_REQUEST_ID {
                    return Ok((0, r.field.clone()));
                }
                if r.field == SYS_TIMESTAMP && self.spec.from.len() == 1 {
                    return Ok((0, r.field.clone()));
                }
                let hits: Vec<usize> = self
                    .schemas
                    .iter()
                    .enumerate()
                    .filter(|(_, (_, s))| s.field(&r.field).is_some())
                    .map(|(i, _)| i)
                    .collect();
                match hits.len() {
                    1 => Ok((hits[0], r.field.clone())),
                    0 => Err(ScrubError::Validate(format!(
                        "no event type in FROM has a field {:?}",
                        r.field
                    ))),
                    _ => Err(ScrubError::Validate(format!(
                        "field {:?} is ambiguous; qualify it with an event type",
                        r.field
                    ))),
                }
            }
        }
    }

    fn field_type(&self, r: &FieldRef) -> Option<FieldType> {
        let (idx, name) = self.resolve_ref(r).ok()?;
        self.schemas[idx].1.field_type(&name)
    }

    fn types_touched(&self, e: &Expr) -> ScrubResult<BTreeSet<usize>> {
        let mut set = BTreeSet::new();
        for r in e.field_refs() {
            // request_id is shared across all types post-join; a predicate
            // on it alone can run on any host stream — attribute it to the
            // qualifier if given, else treat as cross-type only when joined.
            let (idx, _) = self.resolve_ref(r)?;
            set.insert(idx);
        }
        Ok(set)
    }
}

/// Binds field references for one event type's host plan. Slot layout: user
/// fields `0..arity`, then `request_id`, then `timestamp`.
struct HostBinder<'a> {
    schema: &'a EventSchema,
    type_label: &'a str,
}

impl Binder for HostBinder<'_> {
    fn bind(&self, f: &FieldRef) -> ScrubResult<usize> {
        if let Some(t) = &f.event_type {
            if t != self.type_label {
                return Err(ScrubError::Validate(format!(
                    "field {f} does not belong to event type {:?}",
                    self.type_label
                )));
            }
        }
        match f.field.as_str() {
            SYS_REQUEST_ID => Ok(self.schema.arity()),
            SYS_TIMESTAMP => Ok(self.schema.arity() + 1),
            name => self
                .schema
                .field_index(name)
                .ok_or_else(|| ScrubError::Validate(format!("unknown field {f}"))),
        }
    }
}

/// Binds field references over the joined central row.
struct CentralBinder<'a> {
    inputs: &'a [CentralInput],
    resolver: &'a TypeResolver<'a>,
}

impl Binder for CentralBinder<'_> {
    fn bind(&self, f: &FieldRef) -> ScrubResult<usize> {
        let (idx, name) = self.resolver.resolve_ref(f)?;
        let input = &self.inputs[idx];
        match name.as_str() {
            SYS_REQUEST_ID => Ok(input.block_offset + input.fields.len()),
            SYS_TIMESTAMP => Ok(input.block_offset + input.fields.len() + 1),
            n => {
                let pos = input.fields.iter().position(|x| x == n).ok_or_else(|| {
                    ScrubError::Validate(format!(
                        "internal: field {f} missing from projection of {:?}",
                        input.event_type
                    ))
                })?;
                Ok(input.block_offset + pos)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ql::parser::parse_query;
    use crate::schema::FieldDef;

    fn registry() -> SchemaRegistry {
        let reg = SchemaRegistry::new();
        reg.register(
            EventSchema::new(
                "bid",
                vec![
                    FieldDef::new("user_id", FieldType::Long),
                    FieldDef::new("exchange_id", FieldType::Long),
                    FieldDef::new("bid_price", FieldType::Double),
                    FieldDef::new("city", FieldType::Str),
                ],
            )
            .unwrap(),
        )
        .unwrap();
        reg.register(
            EventSchema::new(
                "exclusion",
                vec![
                    FieldDef::new("line_item_id", FieldType::Long),
                    FieldDef::new("reason", FieldType::Str),
                ],
            )
            .unwrap(),
        )
        .unwrap();
        reg.register(
            EventSchema::new(
                "impression",
                vec![
                    FieldDef::new("line_item_id", FieldType::Long),
                    FieldDef::new("cost", FieldType::Double),
                ],
            )
            .unwrap(),
        )
        .unwrap();
        reg
    }

    fn compile_src(src: &str) -> ScrubResult<CompiledQuery> {
        let spec = parse_query(src)?;
        compile(&spec, &registry(), &ScrubConfig::default(), QueryId(1))
    }

    #[test]
    fn spam_query_plan_shape() {
        let cq =
            compile_src("select bid.user_id, COUNT(*) from bid group by bid.user_id window 10 s")
                .unwrap();
        assert_eq!(cq.host_plans.len(), 1);
        let hp = &cq.host_plans[0];
        assert!(hp.predicate.is_none());
        // only user_id is shipped
        assert_eq!(hp.projection, vec![FieldSlot::User(0)]);
        assert_eq!(cq.window_ms, 10_000);
        match &cq.central.mode {
            OutputMode::Aggregate {
                group_by,
                aggregates,
                output,
            } => {
                assert_eq!(group_by.len(), 1);
                assert_eq!(aggregates.len(), 1);
                assert_eq!(output, &vec![OutputCol::Group(0), OutputCol::Agg(0)]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn selection_pushed_to_host() {
        let cq = compile_src(
            "select AVG(impression.cost) from impression where impression.line_item_id = 7",
        )
        .unwrap();
        let hp = &cq.host_plans[0];
        assert!(hp.predicate.is_some());
        assert!(cq.central.residual.is_none());
        // cost needed for AVG; line_item_id only used in host predicate
        assert_eq!(hp.projection, vec![FieldSlot::User(1)]);
    }

    #[test]
    fn cross_type_predicate_stays_central() {
        let cq = compile_src(
            "select COUNT(*) from bid, exclusion \
             where bid.exchange_id = 3 and bid.user_id = exclusion.line_item_id",
        )
        .unwrap();
        // single-type conjunct pushed to bid host plan
        assert!(cq.host_plans[0].predicate.is_some());
        assert!(cq.host_plans[1].predicate.is_none());
        // cross-type conjunct stays central
        assert!(cq.central.residual.is_some());
        assert!(cq.central.is_join());
    }

    #[test]
    fn joined_row_layout_is_consistent() {
        let cq = compile_src(
            "select bid.city, COUNT(*) from bid, exclusion \
             where exclusion.reason = 'budget' group by bid.city",
        )
        .unwrap();
        let ins = &cq.central.inputs;
        assert_eq!(ins.len(), 2);
        assert_eq!(ins[0].fields, vec!["city"]);
        // reason was fully consumed by the host predicate
        assert_eq!(ins[1].fields, Vec::<String>::new());
        assert_eq!(ins[0].block_offset, 0);
        assert_eq!(ins[1].block_offset, ins[0].block_len());
        assert_eq!(
            cq.central.row_width,
            ins[0].block_len() + ins[1].block_len()
        );
    }

    #[test]
    fn stream_mode_for_plain_projection() {
        let cq =
            compile_src("select bid.user_id, bid.city from bid where bid.bid_price > 1.0").unwrap();
        assert!(matches!(&cq.central.mode, OutputMode::Stream(es) if es.len() == 2));
        assert_eq!(cq.central.headers, vec!["bid.user_id", "bid.city"]);
    }

    #[test]
    fn distinct_via_group_by_without_aggregates() {
        let cq = compile_src("select bid.city from bid group by bid.city").unwrap();
        match &cq.central.mode {
            OutputMode::Aggregate {
                group_by,
                aggregates,
                ..
            } => {
                assert_eq!(group_by.len(), 1);
                assert!(aggregates.is_empty());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn ungrouped_plain_column_with_aggregate_rejected() {
        let e = compile_src("select bid.city, COUNT(*) from bid").unwrap_err();
        assert!(matches!(e, ScrubError::Validate(_)));
    }

    #[test]
    fn select_item_not_in_group_by_rejected() {
        let e = compile_src("select bid.city, COUNT(*) from bid group by bid.user_id").unwrap_err();
        assert!(matches!(e, ScrubError::Validate(_)));
    }

    #[test]
    fn unknown_event_type_rejected() {
        assert!(compile_src("select COUNT(*) from nope").is_err());
    }

    #[test]
    fn unknown_field_rejected() {
        assert!(compile_src("select COUNT(*) from bid where bid.nope = 1").is_err());
    }

    #[test]
    fn ambiguous_bare_field_rejected() {
        let e = compile_src("select COUNT(*) from exclusion, impression where line_item_id = 1")
            .unwrap_err();
        assert!(e.to_string().contains("ambiguous"));
    }

    #[test]
    fn bare_field_resolves_when_unambiguous() {
        let cq = compile_src("select COUNT(*) from bid, exclusion where reason = 'x'").unwrap();
        // reason belongs to exclusion only — pushed to its host plan
        assert!(cq.host_plans[1].predicate.is_some());
        assert!(cq.host_plans[0].predicate.is_none());
    }

    #[test]
    fn self_join_rejected() {
        let e = compile_src("select COUNT(*) from bid, bid").unwrap_err();
        assert!(matches!(e, ScrubError::Unsupported(_)));
    }

    #[test]
    fn too_many_join_types_rejected() {
        let reg = registry();
        for i in 0..5 {
            reg.register(
                EventSchema::new(format!("t{i}"), vec![FieldDef::new("x", FieldType::Int)])
                    .unwrap(),
            )
            .unwrap();
        }
        let spec = parse_query("select COUNT(*) from t0, t1, t2, t3, t4").unwrap();
        let e = compile(&spec, &reg, &ScrubConfig::default(), QueryId(1)).unwrap_err();
        assert!(matches!(e, ScrubError::Unsupported(_)));
    }

    #[test]
    fn join_up_to_the_type_limit_compiles() {
        let reg = registry();
        for i in 0..=MAX_JOIN_TYPES {
            reg.register(
                EventSchema::new(format!("t{i}"), vec![FieldDef::new("x", FieldType::Int)])
                    .unwrap(),
            )
            .unwrap();
        }
        let joining = |n: usize| {
            let from: Vec<String> = (0..n).map(|i| format!("t{i}")).collect();
            let spec = parse_query(&format!("select COUNT(*) from {}", from.join(", "))).unwrap();
            compile(&spec, &reg, &ScrubConfig::default(), QueryId(1))
        };
        let cq = joining(MAX_JOIN_TYPES).unwrap();
        assert_eq!(cq.host_plans.len(), MAX_JOIN_TYPES);
        assert!(cq.central.is_join());
        let e = joining(MAX_JOIN_TYPES + 1).unwrap_err();
        assert!(
            e.to_string()
                .contains(&format!("the limit is {MAX_JOIN_TYPES}")),
            "{e}"
        );
    }

    #[test]
    fn sum_of_string_rejected() {
        assert!(compile_src("select SUM(bid.city) from bid").is_err());
        // MIN over strings is fine
        assert!(compile_src("select MIN(bid.city) from bid").is_ok());
    }

    #[test]
    fn aggregates_in_where_rejected() {
        let e = compile_src("select COUNT(*) from bid where COUNT(*) > 1").unwrap_err();
        assert!(e.to_string().contains("aggregates are not allowed"));
    }

    #[test]
    fn where_must_be_boolean() {
        let e = compile_src("select COUNT(*) from bid where bid.user_id + 1").unwrap_err();
        assert!(e.to_string().contains("expected boolean"));
    }

    #[test]
    fn defaults_applied() {
        let cq = compile_src("select COUNT(*) from bid").unwrap();
        assert_eq!(cq.window_ms, DEFAULT_WINDOW_MS);
        assert_eq!(cq.duration_ms, DEFAULT_DURATION_MS);
    }

    #[test]
    fn duration_clamped_to_max() {
        let cq = compile_src("select COUNT(*) from bid duration 100 d").unwrap();
        assert_eq!(cq.duration_ms, MAX_DURATION_MS);
    }

    #[test]
    fn request_id_groupable() {
        let cq = compile_src("select request_id, COUNT(*) from bid group by request_id").unwrap();
        match &cq.central.mode {
            OutputMode::Aggregate { group_by, .. } => assert_eq!(group_by.len(), 1),
            other => panic!("{other:?}"),
        }
        // request_id is metadata: no user field shipped
        assert!(cq.host_plans[0].projection.is_empty());
    }

    #[test]
    fn host_predicate_can_reference_system_fields() {
        let cq = compile_src("select COUNT(*) from bid where timestamp > 100").unwrap();
        let hp = &cq.host_plans[0];
        let pred = hp.predicate.as_ref().unwrap();
        // slot index arity+1 is timestamp
        assert_eq!(pred.max_slot(), Some(hp.timestamp_slot()));
    }

    #[test]
    fn event_sampling_flows_into_host_plan() {
        let cq = compile_src("select COUNT(*) from bid sample events 10%").unwrap();
        assert!((cq.host_plans[0].event_fraction - 0.1).abs() < 1e-12);
        assert!((cq.central.sample.event_fraction - 0.1).abs() < 1e-12);
    }

    #[test]
    fn plan_round_trips_through_serde() {
        let cq =
            compile_src("select bid.user_id, COUNT(*) from bid group by bid.user_id window 10 s")
                .unwrap();
        let json = serde_json::to_string(&cq).unwrap();
        let back: CompiledQuery = serde_json::from_str(&json).unwrap();
        assert_eq!(back, cq);
    }
}

#[cfg(test)]
mod explain_tests {
    use super::*;
    use crate::ql::parser::parse_query;
    use crate::schema::FieldDef;

    #[test]
    fn explain_shows_the_placement_split() {
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
        let spec = parse_query(
            "select COUNT(*) from bid, impression where bid.price > 1.0 \
             sample events 25% window 30 s slide 10 s",
        )
        .unwrap();
        let cq = compile(&spec, &reg, &ScrubConfig::default(), QueryId(7)).unwrap();
        let text = cq.explain();
        assert!(text.contains("q#7"));
        assert!(text.contains("window 30000 ms (slide 10000 ms)"));
        assert!(text.contains("[bid] predicate: yes"));
        assert!(text.contains("[impression] predicate: none"));
        assert!(text.contains("event sampling 25%"));
        assert!(text.contains("equi-join on request_id across 2 inputs"));
        assert!(text.contains("1 aggregate(s)"));
    }

    #[test]
    fn explain_stream_mode() {
        let reg = SchemaRegistry::new();
        reg.register(
            EventSchema::new("bid", vec![FieldDef::new("user_id", FieldType::Long)]).unwrap(),
        )
        .unwrap();
        let spec = parse_query("select bid.user_id from bid").unwrap();
        let cq = compile(&spec, &reg, &ScrubConfig::default(), QueryId(1)).unwrap();
        assert!(cq.explain().contains("stream: 1 column(s)"));
    }
}
