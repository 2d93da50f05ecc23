//! Per-operator runtime statistics — the data behind `EXPLAIN ANALYZE`.
//!
//! Every operator of a compiled plan (host-side selection / sampling /
//! projection per FROM type, central decode, join build/probe, residual
//! filter, group/aggregate, window close or stream projection) gets one
//! [`OperatorStats`] slot identified by its stable
//! [`OperatorId`](scrub_core::plan::OperatorId). ScrubCentral fills the
//! slots while the query runs — host-side figures are reconstructed from
//! the cumulative batch-header counters every host ships, central-side
//! figures are counted (and wall-clock timed) in the executor — and the
//! assembled [`PlanProfile`] pairs each operator's *actual* selectivity
//! and cardinality against the planner's *estimates*.
//!
//! Wall-clock `ns` figures are nondeterministic (they time real work) and
//! are excluded from differential comparisons and masked in golden
//! renderings; everything else is integer-exact.

use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// Runtime statistics of one plan operator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct OperatorStats {
    /// Stable operator id (see `scrub_core::plan::OperatorId`).
    pub id: u32,
    /// Human-readable label, e.g. `selection(bid)`.
    pub label: String,
    /// True for the host-side trio (selection / sampling / projection).
    pub host_side: bool,
    /// Planner's selectivity estimate for this operator.
    pub est_selectivity: f64,
    /// Rows (events, joined rows, groups — the operator's unit) entering.
    pub rows_in: u64,
    /// Rows leaving (passing the filter, shipped, rendered, …).
    pub rows_out: u64,
    /// Bytes attributed to this operator (shipped bytes for sampling,
    /// decoded bytes for decode; 0 elsewhere).
    pub bytes: u64,
    /// Cumulative time attributed to this operator: cost-model ns on the
    /// host side (deterministic), wall-clock ns at central.
    pub ns: u64,
}

impl OperatorStats {
    /// Rows the planner expected this operator to emit given what
    /// actually entered it.
    pub fn est_rows_out(&self) -> u64 {
        (self.est_selectivity * self.rows_in as f64).round() as u64
    }

    /// Observed selectivity; `None` before any row entered.
    fn actual_selectivity(&self) -> Option<f64> {
        (self.rows_in > 0).then(|| self.rows_out as f64 / self.rows_in as f64)
    }

    /// Absolute estimate error in selectivity points (|est − actual|),
    /// 0 before any row entered.
    fn estimate_error(&self) -> f64 {
        self.actual_selectivity()
            .map(|act| (self.est_selectivity - act).abs())
            .unwrap_or(0.0)
    }
}

/// An annotation line rendered under the plan tree (sampling τ̂ context,
/// estimator bounds, shed counts — anything worth showing that is not a
/// per-operator counter).
pub type PlanNote = String;

/// The `EXPLAIN ANALYZE` profile of one query: every operator's runtime
/// statistics, in pipeline order, plus free-form annotations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct PlanProfile {
    /// Owning query id.
    pub query_id: u64,
    /// Per-operator statistics, sorted by operator id.
    pub ops: Vec<OperatorStats>,
    /// Annotation lines (estimator context, shed accounting, …).
    pub notes: Vec<PlanNote>,
}

impl PlanProfile {
    /// Look up an operator by id.
    pub fn op(&self, id: u32) -> Option<&OperatorStats> {
        self.ops.iter().find(|o| o.id == id)
    }

    /// Mutable lookup by id.
    pub fn op_mut(&mut self, id: u32) -> Option<&mut OperatorStats> {
        self.ops.iter_mut().find(|o| o.id == id)
    }

    /// Sum of host-side operator ns (the host-overhead attribution — what
    /// E19 checks against the paper's ≤2.5 % CPU envelope).
    pub fn host_ns(&self) -> u64 {
        self.ops.iter().filter(|o| o.host_side).map(|o| o.ns).sum()
    }

    /// Sum of central-side operator ns.
    pub fn central_ns(&self) -> u64 {
        self.ops.iter().filter(|o| !o.host_side).map(|o| o.ns).sum()
    }

    /// Largest per-operator estimate error, in selectivity points — the
    /// `estimate_error` gauge exported through `render_text`.
    pub fn max_estimate_error(&self) -> f64 {
        self.ops
            .iter()
            .map(OperatorStats::estimate_error)
            .fold(0.0, f64::max)
    }

    /// The placement invariant the paper's planner enforces: every
    /// host-side operator is selection, sampling or projection.
    pub fn host_ops_are_select_project_sample(&self) -> bool {
        self.ops.iter().filter(|o| o.host_side).all(|o| {
            o.label.starts_with("selection(")
                || o.label.starts_with("sampling(")
                || o.label.starts_with("projection(")
        })
    }

    /// Render the annotated plan tree. With `mask_ns` the (nondeterministic
    /// wall-clock) ns column renders as `-`, making the output byte-stable
    /// across seeded runs — the golden-test mode.
    pub fn render(&self, mask_ns: bool) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "plan profile q#{} — actual rows/selectivity vs planner estimates",
            self.query_id
        );
        let width = self
            .ops
            .iter()
            .map(|o| o.label.len())
            .max()
            .unwrap_or(0)
            .max(12);
        let render_op = |s: &mut String, o: &OperatorStats| {
            let sel = match o.actual_selectivity() {
                Some(act) => format!(
                    "est {:>5.1}% act {:>5.1}% err {:>4.1}pp",
                    o.est_selectivity * 100.0,
                    act * 100.0,
                    o.estimate_error() * 100.0
                ),
                None => format!(
                    "est {:>5.1}% act     -  err     -",
                    o.est_selectivity * 100.0
                ),
            };
            let ns = if mask_ns {
                "-".to_string()
            } else {
                o.ns.to_string()
            };
            let bytes = if o.bytes > 0 {
                format!("  bytes {}", o.bytes)
            } else {
                String::new()
            };
            let _ = writeln!(
                s,
                "  op{:<3} {:<width$}  rows {:>9} -> {:<9} (est {:>9})  {}  ns {}{}",
                o.id,
                o.label,
                o.rows_in,
                o.rows_out,
                o.est_rows_out(),
                sel,
                ns,
                bytes,
            );
        };
        let _ = writeln!(s, "host stage (selection + projection + sampling ONLY):");
        for o in self.ops.iter().filter(|o| o.host_side) {
            render_op(&mut s, o);
        }
        let _ = writeln!(s, "central stage (ScrubCentral):");
        for o in self.ops.iter().filter(|o| !o.host_side) {
            render_op(&mut s, o);
        }
        for note in &self.notes {
            let _ = writeln!(s, "  · {note}");
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(id: u32, label: &str, host: bool, rows_in: u64, rows_out: u64) -> OperatorStats {
        OperatorStats {
            id,
            label: label.to_string(),
            host_side: host,
            est_selectivity: 0.5,
            rows_in,
            rows_out,
            bytes: 10,
            ns: 100,
        }
    }

    #[test]
    fn estimates_and_actuals() {
        let o = op(0, "selection(bid)", true, 1000, 400);
        assert_eq!(o.est_rows_out(), 500);
        assert!((o.actual_selectivity().unwrap() - 0.4).abs() < 1e-12);
        assert!((o.estimate_error() - 0.1).abs() < 1e-12);
        let empty = op(1, "sampling(bid)", true, 0, 0);
        assert_eq!(empty.actual_selectivity(), None);
        assert_eq!(empty.estimate_error(), 0.0);
    }

    #[test]
    fn render_masks_ns_for_golden_stability() {
        let p = PlanProfile {
            query_id: 3,
            ops: vec![
                op(0, "selection(bid)", true, 1000, 400),
                op(3, "decode/route", false, 400, 400),
            ],
            notes: vec!["event sampling 50% (est)".into()],
        };
        let masked = p.render(true);
        assert!(masked.contains("plan profile q#3"));
        assert!(masked.contains("ns -"), "{masked}");
        assert!(!masked.contains("ns 100"));
        assert!(masked.contains("· event sampling 50% (est)"));
        let unmasked = p.render(false);
        assert!(unmasked.contains("ns 100"));
    }

    #[test]
    fn placement_invariant_checker() {
        let good = PlanProfile {
            query_id: 1,
            ops: vec![
                op(0, "selection(bid)", true, 1, 1),
                op(3, "group/aggregate", false, 1, 1),
            ],
            notes: vec![],
        };
        assert!(good.host_ops_are_select_project_sample());
        let bad = PlanProfile {
            query_id: 1,
            ops: vec![op(0, "group/aggregate", true, 1, 1)],
            notes: vec![],
        };
        assert!(!bad.host_ops_are_select_project_sample());
        assert_eq!(good.host_ns(), 100);
        assert_eq!(good.central_ns(), 100);
    }
}
