//! Figures the executor derives from its query's [`QueryProfile`].
//!
//! Batch headers carry each host's *cumulative* matched/sampled/shed
//! counters. The [`QueryExecutor`](crate::executor::QueryExecutor) sees
//! every batch exactly once and folds its header into the profile, the one
//! per-query record; scale, summary totals, host-side `EXPLAIN ANALYZE`
//! operators and the profile notes all read it back from there.

use std::collections::HashMap;
use std::sync::Arc;

use scrub_agent::CostModel;
use scrub_core::plan::{CentralPlan, OperatorKind};
use scrub_core::schema::EventTypeId;
use scrub_obs::{PlanProfile, QueryProfile, TypeCounters};

/// Dense id for an interned host name; per-batch and per-event host
/// bookkeeping uses the id instead of cloning the host `String`.
pub(crate) type HostId = u32;

/// Host-name interner: one `Arc<str>` allocation the first time a host is
/// seen, integer keys everywhere after. Ids are assigned in first-seen
/// order, which fixes every host-ordered floating-point reduction.
#[derive(Debug, Default)]
pub(crate) struct HostTable {
    ids: HashMap<Arc<str>, HostId>,
    names: Vec<Arc<str>>,
}

impl HostTable {
    pub fn intern(&mut self, name: &str) -> HostId {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let id = self.names.len() as HostId;
        let arc: Arc<str> = Arc::from(name);
        self.names.push(arc.clone());
        self.ids.insert(arc, id);
        id
    }

    pub fn name(&self, id: HostId) -> &str {
        &self.names[id as usize]
    }

    /// Every interned host, in id (first-seen) order.
    pub fn iter(&self) -> impl Iterator<Item = (HostId, &str)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, n)| (i as HostId, &**n))
    }
}

/// Current scale-up factor compensating host and event sampling:
/// `(N/n) · (ΣM_i/Σm_i)` using observed totals (Eq. 1's population
/// scale, applied globally).
pub(crate) fn scale(plan: &CentralPlan, profile: &QueryProfile) -> f64 {
    let host_scale = if plan.host_info.selected > 0 && plan.host_info.matching > 0 {
        plan.host_info.matching as f64 / plan.host_info.selected as f64
    } else {
        1.0
    };
    let (m, s) = (profile.total_tapped(), profile.total_selected());
    let event_scale = if s > 0 { m as f64 / s as f64 } else { 1.0 };
    host_scale * event_scale
}

/// Summed header counters for one input's event type across hosts
/// (within a host the profile already kept the max of the monotone
/// cumulative stream).
fn input_totals(profile: &QueryProfile, type_id: EventTypeId) -> TypeCounters {
    let mut out = TypeCounters::default();
    for t in profile
        .hosts
        .values()
        .filter_map(|h| h.by_type.get(&type_id.0))
    {
        out.tapped += t.tapped;
        out.selected += t.selected;
        out.shed += t.shed;
        out.budget_shed += t.budget_shed;
        out.seen += t.seen;
        out.bytes += t.bytes;
    }
    out
}

/// Fill the host-side operators (selection/sampling/projection) of a plan
/// profile from the observed header totals, pricing ns through the agent's
/// deterministic [`CostModel`] — the paper's host agents never time their
/// own hot path (that would be overhead), so central attributes host ns
/// from the same model the ≤2.5 % CPU envelope is audited against.
pub(crate) fn fill_host_ops(plan: &CentralPlan, query: &QueryProfile, profile: &mut PlanProfile) {
    let model = CostModel::default();
    for desc in plan.operators() {
        if !matches!(
            desc.kind,
            OperatorKind::Selection | OperatorKind::Sampling | OperatorKind::Projection
        ) {
            continue;
        }
        let input = &plan.inputs[desc.input.expect("host ops carry their input")];
        let t = input_totals(query, input.type_id);
        let Some(op) = profile.op_mut(desc.id.0) else {
            continue;
        };
        match desc.kind {
            OperatorKind::Selection => {
                op.rows_in = t.seen;
                op.rows_out = t.tapped;
                op.ns = model.selection_ns(t.seen, input.has_predicate);
            }
            OperatorKind::Sampling => {
                // `selected` counts events actually shipped; shed and
                // budget-shed events survived the sampling decision too,
                // so the operator's selectivity audits against
                // (selected + shed + budget_shed) / tapped.
                op.rows_in = t.tapped;
                op.rows_out = t.selected + t.shed + t.budget_shed;
                op.bytes = t.bytes;
                op.ns = model.sampling_ns(t.selected, t.bytes);
            }
            _ => {
                op.rows_in = t.selected;
                op.rows_out = t.selected;
                op.ns = model.projection_ns(t.selected, input.fields.len());
            }
        }
    }
}

/// The plan-profile annotation notes derived from plan constants and the
/// observed totals.
pub(crate) fn profile_notes(plan: &CentralPlan, query: &QueryProfile) -> Vec<String> {
    let mut notes = Vec::new();
    let hi = &plan.host_info;
    if hi.selected > 0 && hi.matching > hi.selected {
        notes.push(format!(
            "host sampling: {} of {} matching hosts selected (two-stage τ̂, Eqs 1–3)",
            hi.selected, hi.matching
        ));
    }
    let mut all = TypeCounters::default();
    for input in &plan.inputs {
        let t = input_totals(query, input.type_id);
        all.tapped += t.tapped;
        all.selected += t.selected;
        all.shed += t.shed;
        all.budget_shed += t.budget_shed;
    }
    if plan.sample.event_fraction < 1.0 {
        notes.push(format!(
            "event sampling {:.0}%: hosts shipped {} of {} matched events",
            plan.sample.event_fraction * 100.0,
            all.selected,
            all.tapped
        ));
    }
    if all.shed > 0 {
        notes.push(format!(
            "load shedding dropped {} sampled events before ship (accuracy traded for host impact)",
            all.shed
        ));
    }
    if all.budget_shed > 0 {
        notes.push(format!(
            "budget shedding dropped {} sampled events before ship (host CPU budget enforced)",
            all.budget_shed
        ));
    }
    notes
}
