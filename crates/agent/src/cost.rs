//! Host-overhead cost model.
//!
//! The paper reports Scrub's host impact as CPU overhead (≤ 2.5%) and
//! request latency inflation (~1%). In the simulator, the agent's work is
//! converted to CPU time through this model. The per-operation constants
//! are fixed inputs of the modeled plane (E07/E08/E19/E20 and the goldens
//! are functions of them), of the magnitude the tap had when every
//! subscription interpreted its own predicate. The compiled tap program
//! (DESIGN.md, "Host tap program") decides most predicates without
//! visiting them, so on a host with many selective queries the model now
//! overstates the real cost; `scrub_perf`'s `agent.tap.log_ns_q*` is the
//! measurement to recalibrate against (ROADMAP, "Re-anchor the modeled
//! plane on the measured one").

use serde::{Deserialize, Serialize};

use crate::stats::StatsSnapshot;

/// Nanosecond costs per agent operation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// `log()` call on an event type with no active query (one atomic load).
    pub tap_inactive_ns: f64,
    /// Fixed cost of entering the active path (subscription lookup).
    pub tap_active_ns: f64,
    /// One predicate evaluation.
    pub predicate_ns: f64,
    /// Copying one field value during projection.
    pub project_field_ns: f64,
    /// Per shipped event overhead (batch bookkeeping).
    pub ship_event_ns: f64,
    /// Per shipped byte (serialization + syscall amortized).
    pub ship_byte_ns: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        // Disabled tap ~ a few ns, predicate ~ tens of ns, projection a
        // few tens of ns per field (see the module docs for their standing).
        CostModel {
            tap_inactive_ns: 2.0,
            tap_active_ns: 30.0,
            predicate_ns: 60.0,
            project_field_ns: 25.0,
            ship_event_ns: 50.0,
            ship_byte_ns: 0.3,
        }
    }
}

impl CostModel {
    /// Total agent CPU time implied by a counter delta, in nanoseconds.
    pub fn cpu_ns(&self, d: &StatsSnapshot) -> f64 {
        let inactive = d.events_seen.saturating_sub(d.events_active) as f64;
        inactive * self.tap_inactive_ns
            + d.events_active as f64 * self.tap_active_ns
            + d.predicates_evaluated as f64 * self.predicate_ns
            + d.fields_projected as f64 * self.project_field_ns
            + d.events_shipped as f64 * self.ship_event_ns
            + d.bytes_shipped as f64 * self.ship_byte_ns
    }

    /// Agent CPU utilization (fraction of one core) over a wall interval.
    pub fn cpu_fraction(&self, d: &StatsSnapshot, interval_ns: f64) -> f64 {
        if interval_ns <= 0.0 {
            return 0.0;
        }
        self.cpu_ns(d) / interval_ns
    }

    /// Model ns attributed to the host *selection* operator of one
    /// subscription: the active-tap entry plus (when the plan carries a
    /// predicate) one evaluation per seen event. Deterministic — `EXPLAIN
    /// ANALYZE` reconstructs host overhead from shipped counters instead
    /// of timing the hot path.
    pub fn selection_ns(&self, seen: u64, has_predicate: bool) -> u64 {
        let mut ns = seen as f64 * self.tap_active_ns;
        if has_predicate {
            ns += seen as f64 * self.predicate_ns;
        }
        ns as u64
    }

    /// Model ns attributed to the host *sampling* operator: the sampling
    /// decision itself is folded into the active-tap cost, so this is the
    /// enqueue/ship cost of the events that survived (per-event batch
    /// bookkeeping plus per-byte serialization).
    pub fn sampling_ns(&self, shipped: u64, bytes: u64) -> u64 {
        (shipped as f64 * self.ship_event_ns + bytes as f64 * self.ship_byte_ns) as u64
    }

    /// Model ns attributed to the host *projection* operator: copying
    /// `fields` field values for each shipped event.
    pub fn projection_ns(&self, shipped: u64, fields: usize) -> u64 {
        (shipped as f64 * fields as f64 * self.project_field_ns) as u64
    }

    /// Model ns one *seen* event costs a subscription before any ship
    /// decision: the active-tap entry plus (with a predicate) one
    /// evaluation. This is the irreducible per-event cost — budget
    /// shedding cannot avoid it, and admission control treats it as the
    /// fixed part of a query's price.
    pub fn seen_event_ns(&self, has_predicate: bool) -> f64 {
        self.tap_active_ns
            + if has_predicate {
                self.predicate_ns
            } else {
                0.0
            }
    }

    /// Model ns spent *shipping* one selected event: projecting `fields`
    /// field values, batch bookkeeping and `bytes` of serialization. The
    /// avoidable part of an event's cost — what budget shedding saves.
    pub fn ship_event_cost_ns(&self, fields: usize, bytes: u64) -> f64 {
        fields as f64 * self.project_field_ns
            + self.ship_event_ns
            + bytes as f64 * self.ship_byte_ns
    }

    /// Modeled wire bytes of one shipped event with `fields` projected
    /// values: about 4 bytes per value plus the request-id/timestamp
    /// slots, what a columnar frame's varints, dictionaries and amortised
    /// column tags come to on the reproduced workloads.
    pub fn event_wire_bytes(&self, fields: usize) -> u64 {
        4 * (fields as u64 + 2)
    }

    /// Estimated per-host cost of one host plan, as a fraction of one
    /// core, at an assumed `events_per_sec` arrival rate of its event
    /// type. Split into `(fixed, variable)`: the irreducible
    /// selection-side cost and the ship-side cost that scales with the
    /// event-sampling fraction. Deterministic — admission control prices
    /// every query through this, so decisions replay exactly.
    pub fn plan_cost_fractions(
        &self,
        plan: &scrub_core::plan::HostPlan,
        events_per_sec: f64,
    ) -> (f64, f64) {
        let fixed = events_per_sec * self.seen_event_ns(plan.predicate.is_some()) / 1e9;
        let bytes = self.event_wire_bytes(plan.projection.len());
        let shipped_per_sec = events_per_sec
            * plan.est_selectivity.clamp(0.0, 1.0)
            * plan.event_fraction.clamp(0.0, 1.0);
        let variable =
            shipped_per_sec * self.ship_event_cost_ns(plan.projection.len(), bytes) / 1e9;
        (fixed, variable)
    }

    /// Estimated per-host cost of a whole query (sum over its host
    /// plans), as `(fixed, variable)` fractions of one core.
    pub fn query_cost_fractions(
        &self,
        plans: &[scrub_core::plan::HostPlan],
        events_per_sec: f64,
    ) -> (f64, f64) {
        plans
            .iter()
            .map(|p| self.plan_cost_fractions(p, events_per_sec))
            .fold((0.0, 0.0), |(f, v), (pf, pv)| (f + pf, v + pv))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inactive_events_are_cheap() {
        let m = CostModel::default();
        let d = StatsSnapshot {
            events_seen: 1_000_000,
            ..Default::default()
        };
        // a million inactive taps ~ 2 ms of CPU
        assert!((m.cpu_ns(&d) - 2_000_000.0).abs() < 1.0);
    }

    #[test]
    fn active_path_dominates() {
        let m = CostModel::default();
        let idle = StatsSnapshot {
            events_seen: 1000,
            ..Default::default()
        };
        let busy = StatsSnapshot {
            events_seen: 1000,
            events_active: 1000,
            predicates_evaluated: 1000,
            events_matched: 1000,
            events_shipped: 1000,
            fields_projected: 3000,
            bytes_shipped: 50_000,
            ..Default::default()
        };
        assert!(m.cpu_ns(&busy) > 10.0 * m.cpu_ns(&idle));
    }

    #[test]
    fn fraction_over_interval() {
        let m = CostModel::default();
        let d = StatsSnapshot {
            events_seen: 1_000_000,
            ..Default::default()
        };
        // 2 ms of CPU over a 1 s interval = 0.2%
        let f = m.cpu_fraction(&d, 1e9);
        assert!((f - 0.002).abs() < 1e-9);
        assert_eq!(m.cpu_fraction(&d, 0.0), 0.0);
    }

    #[test]
    fn admission_pricing_splits_fixed_and_variable() {
        let m = CostModel::default();
        let plan = scrub_core::plan::HostPlan {
            query_id: scrub_core::plan::QueryId(1),
            event_type: "bid".into(),
            type_id: scrub_core::schema::EventTypeId(0),
            arity: 4,
            predicate: None,
            projection: vec![],
            event_fraction: 0.5,
            est_selectivity: 1.0,
        };
        let (fixed, variable) = m.plan_cost_fractions(&plan, 10_000.0);
        // 10k events/s * 30 ns active-tap = 0.3 ms/s = 0.03 %
        assert!((fixed - 10_000.0 * 30.0 / 1e9).abs() < 1e-12);
        // half the events ship at 50 ns + 8 bytes * 0.3 ns
        assert!((variable - 5_000.0 * (50.0 + 8.0 * 0.3) / 1e9).abs() < 1e-12);
        // a predicate adds per-seen cost to the fixed part only
        let with_pred = scrub_core::plan::HostPlan {
            predicate: Some(scrub_core::expr::ResolvedExpr::Literal(
                scrub_core::value::Value::Long(1),
            )),
            ..plan.clone()
        };
        let (fixed2, variable2) = m.plan_cost_fractions(&with_pred, 10_000.0);
        assert!(fixed2 > fixed);
        assert!((variable2 - variable).abs() < 1e-12);
    }
}
