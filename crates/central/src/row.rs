//! Query results: per-window rows and the end-of-query summary.

use serde::{Deserialize, Serialize};

use scrub_core::plan::QueryId;
use scrub_core::value::Value;
use scrub_sketch::TwoStageEstimate;

/// One result row, produced when a tumbling window closes (aggregate mode)
/// or per matching row (stream mode).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResultRow {
    /// Owning query.
    pub query_id: QueryId,
    /// Start of the tumbling window this row belongs to (ms).
    pub window_start_ms: i64,
    /// Column values, aligned with the plan's headers.
    pub values: Vec<Value>,
    /// True when the window closed while one or more targeted hosts were
    /// suspected dead: the row is still useful, but its counts can only
    /// under-report (graceful degradation, not silent bias).
    #[serde(default)]
    pub degraded: bool,
}

impl ResultRow {
    /// Render as a tab-separated line (handy for examples and benches).
    pub fn to_tsv(&self) -> String {
        let mut s = format!("{}", self.window_start_ms);
        for v in &self.values {
            s.push('\t');
            s.push_str(&v.to_string());
        }
        s
    }
}

/// End-of-query summary: totals and, when the query was a sampled
/// single-stream aggregation, the two-stage estimates with error bounds
/// (Eqs 1–3) for each eligible column.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuerySummary {
    /// Owning query.
    pub query_id: QueryId,
    /// Number of hosts that reported at least one batch.
    pub hosts_reporting: usize,
    /// Σ M_i: matching events across reporting hosts.
    pub total_matched: u64,
    /// Σ m_i: sampled (shipped) events across reporting hosts.
    pub total_sampled: u64,
    /// Events dropped by load shedding across hosts.
    pub total_shed: u64,
    /// Events dropped by the per-host CPU budget tracker across hosts.
    #[serde(default)]
    pub total_budget_shed: u64,
    /// Windows emitted.
    pub windows_emitted: u64,
    /// Per select-column whole-span estimate with error bound, when
    /// applicable (ungrouped single-stream SUM/COUNT/AVG under sampling);
    /// `None` for other columns.
    pub estimates: Vec<Option<TwoStageEstimate>>,
    /// Hosts the query targeted (the population the coverage figure is
    /// relative to).
    #[serde(default)]
    pub hosts_targeted: usize,
    /// Targeted hosts still considered live at the end of the query.
    #[serde(default)]
    pub hosts_live: usize,
    /// Result rows emitted while some targeted host was suspected dead.
    #[serde(default)]
    pub degraded_rows: u64,
    /// Batches discarded as duplicates of an already-ingested
    /// `(host, query, seq)` (retransmissions whose ack was lost).
    #[serde(default)]
    pub duplicate_batches: u64,
    /// Rows dropped because group state hit the `max_groups` bound (the
    /// keep-smallest-keys overflow policy).
    #[serde(default)]
    pub groups_overflow: u64,
}

impl QuerySummary {
    /// Fraction of targeted hosts that stayed live (1.0 when targeting
    /// information is unavailable).
    pub fn coverage(&self) -> f64 {
        if self.hosts_targeted == 0 {
            1.0
        } else {
            self.hosts_live as f64 / self.hosts_targeted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tsv_rendering() {
        let r = ResultRow {
            query_id: QueryId(1),
            window_start_ms: 10_000,
            values: vec![Value::Long(7), Value::Str("x".into())],
            degraded: false,
        };
        assert_eq!(r.to_tsv(), "10000\t7\t\"x\"");
    }
}
