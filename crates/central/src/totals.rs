//! Per-host header accounting for the executor.
//!
//! Batch headers carry each host's *cumulative* matched/sampled/shed
//! counters. The [`QueryExecutor`](crate::executor::QueryExecutor) sees
//! every batch exactly once and folds them into a [`TotalsTracker`], from
//! which scale, summary totals, host-side `EXPLAIN ANALYZE` operators and
//! the profile notes all derive.

use std::collections::HashMap;
use std::sync::Arc;

use scrub_agent::{CostModel, EventBatch};
use scrub_core::plan::{CentralPlan, OperatorKind};
use scrub_core::schema::EventTypeId;
use scrub_obs::PlanProfile;

/// Cumulative per-host counters extracted from batch headers.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct HostTotals {
    pub matched: u64,
    pub sampled: u64,
    pub shed: u64,
    pub budget_shed: u64,
    pub seen: u64,
    pub bytes: u64,
}

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
}

/// Interner + cumulative per-(host, subscription) header counters, plus
/// every figure derived from them.
#[derive(Debug, Default)]
pub(crate) struct TotalsTracker {
    hosts: HostTable,
    totals: HashMap<(HostId, EventTypeId), HostTotals>,
}

impl TotalsTracker {
    pub fn name(&self, id: HostId) -> &str {
        self.hosts.name(id)
    }

    /// Fold one batch header. Counters are cumulative and monotonic per
    /// (host, subscription); batches can be reordered in flight (delivery
    /// delay grows with batch size), so merge with max rather than
    /// last-writer-wins.
    pub fn observe_header(&mut self, batch: &EventBatch) -> HostId {
        let hid = self.hosts.intern(&batch.host);
        let totals = self.totals.entry((hid, batch.type_id)).or_default();
        totals.matched = totals.matched.max(batch.matched);
        totals.sampled = totals.sampled.max(batch.sampled);
        totals.shed = totals.shed.max(batch.shed);
        totals.budget_shed = totals.budget_shed.max(batch.budget_shed);
        totals.seen = totals.seen.max(batch.seen);
        totals.bytes = totals.bytes.max(batch.bytes);
        hid
    }

    /// Current scale-up factor compensating host and event sampling:
    /// `(N/n) · (ΣM_i/Σm_i)` using observed totals (Eq. 1's population
    /// scale, applied globally).
    pub fn scale(&self, plan: &CentralPlan) -> f64 {
        let host_scale = if plan.host_info.selected > 0 && plan.host_info.matching > 0 {
            plan.host_info.matching as f64 / plan.host_info.selected as f64
        } else {
            1.0
        };
        let (m, s) = self
            .totals
            .values()
            .fold((0u64, 0u64), |(m, s), t| (m + t.matched, s + t.sampled));
        let event_scale = if s > 0 { m as f64 / s as f64 } else { 1.0 };
        host_scale * event_scale
    }

    /// `(matched, sampled, shed, budget_shed)` summed across hosts.
    pub fn sums(&self) -> (u64, u64, u64, u64) {
        self.totals.values().fold((0, 0, 0, 0), |(m, s, d, b), t| {
            (m + t.matched, s + t.sampled, d + t.shed, b + t.budget_shed)
        })
    }

    /// Distinct hosts that reported at least one batch.
    pub fn hosts_reporting(&self) -> usize {
        self.distinct_hosts().len()
    }

    /// Reporting hosts not currently suspected dead.
    pub fn hosts_live(&self, dead_hosts: &std::collections::HashSet<String>) -> usize {
        self.distinct_hosts()
            .iter()
            .filter(|h| !dead_hosts.contains(self.hosts.name(**h)))
            .count()
    }

    fn distinct_hosts(&self) -> std::collections::HashSet<HostId> {
        self.totals.keys().map(|(h, _)| *h).collect()
    }

    /// Per-host cumulative matched counts in `HostId` (first-seen) order —
    /// the deterministic host order of every estimator reduction.
    /// (Estimator-eligible queries are single-input, so the (host, type)
    /// key degenerates to the host; matched sums over the host's
    /// subscriptions.)
    pub fn per_host_matched(&self) -> std::collections::BTreeMap<HostId, u64> {
        let mut per_host: std::collections::BTreeMap<HostId, u64> =
            std::collections::BTreeMap::new();
        for ((h, _), t) in &self.totals {
            *per_host.entry(*h).or_default() += t.matched;
        }
        per_host
    }

    /// Summed header counters for one input's event type across hosts
    /// (within a host the observe-time merge already kept the max of the
    /// monotone cumulative stream).
    pub fn input_totals(&self, type_id: EventTypeId) -> HostTotals {
        let mut out = HostTotals::default();
        for ((_h, t), totals) in &self.totals {
            if *t == type_id {
                out.matched += totals.matched;
                out.sampled += totals.sampled;
                out.shed += totals.shed;
                out.budget_shed += totals.budget_shed;
                out.seen += totals.seen;
                out.bytes += totals.bytes;
            }
        }
        out
    }

    /// Fill the host-side operators (selection/sampling/projection) of a
    /// profile from the observed header totals, pricing ns through the
    /// agent's deterministic [`CostModel`] — the paper's host agents never
    /// time their own hot path (that would be overhead), so central
    /// attributes host ns from the same model the ≤2.5 % CPU envelope is
    /// audited against.
    pub fn fill_host_ops(&self, plan: &CentralPlan, profile: &mut PlanProfile) {
        let model = CostModel::default();
        for desc in plan.operators() {
            if !matches!(
                desc.kind,
                OperatorKind::Selection | OperatorKind::Sampling | OperatorKind::Projection
            ) {
                continue;
            }
            let input = &plan.inputs[desc.input.expect("host ops carry their input")];
            let t = self.input_totals(input.type_id);
            let Some(op) = profile.op_mut(desc.id.0) else {
                continue;
            };
            match desc.kind {
                OperatorKind::Selection => {
                    op.rows_in = t.seen;
                    op.rows_out = t.matched;
                    op.ns = model.selection_ns(t.seen, input.has_predicate);
                }
                OperatorKind::Sampling => {
                    // `sampled` counts events actually shipped; shed and
                    // budget-shed events survived the sampling decision
                    // too, so the operator's selectivity audits against
                    // (sampled + shed + budget_shed) / matched.
                    op.rows_in = t.matched;
                    op.rows_out = t.sampled + t.shed + t.budget_shed;
                    op.bytes = t.bytes;
                    op.ns = model.sampling_ns(t.sampled, t.bytes);
                }
                _ => {
                    op.rows_in = t.sampled;
                    op.rows_out = t.sampled;
                    op.ns = model.projection_ns(t.sampled, input.fields.len());
                }
            }
        }
    }

    /// The profile annotation notes derived from plan constants and the
    /// observed totals.
    pub fn profile_notes(&self, plan: &CentralPlan) -> Vec<String> {
        let mut notes = Vec::new();
        let hi = &plan.host_info;
        if hi.selected > 0 && hi.matching > hi.selected {
            notes.push(format!(
                "host sampling: {} of {} matching hosts selected (two-stage τ̂, Eqs 1–3)",
                hi.selected, hi.matching
            ));
        }
        let mut all = HostTotals::default();
        for input in &plan.inputs {
            let t = self.input_totals(input.type_id);
            all.matched += t.matched;
            all.sampled += t.sampled;
            all.shed += t.shed;
            all.budget_shed += t.budget_shed;
        }
        if plan.sample.event_fraction < 1.0 {
            notes.push(format!(
                "event sampling {:.0}%: hosts shipped {} of {} matched events",
                plan.sample.event_fraction * 100.0,
                all.sampled,
                all.matched
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
}
