//! One-call observability snapshot of a query's executor.

/// Coherent snapshot of every observable counter of a
/// [`QueryExecutor`](crate::QueryExecutor).
///
/// All counters are cumulative since executor creation. Callers that
/// need deltas (the server's per-tick metrics) keep the previous
/// snapshot and subtract. Every field is deterministic: identical across
/// seeded runs on the same input.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecutorStats {
    /// Events ingested (each exactly once).
    pub events_routed: u64,
    /// Result rows marked degraded at emission (host death / overflow).
    pub degraded_rows: u64,
    /// Batches discarded as duplicate (host, query, seq) retransmissions.
    pub duplicate_batches: u64,
    /// Rows dropped by the `max_groups` bound, counted when the window
    /// that dropped them closes (see `update_groups`).
    pub groups_overflow: u64,
    /// Windows that closed holding at least one group.
    pub windows_emitted: u64,
    /// Windows currently open.
    pub open_windows: usize,
    /// Join events buffered plus group states held across open windows.
    pub join_rows_held: u64,
    /// Columnar frames that failed to decode; their events were dropped
    /// and later batches still fold.
    pub decode_failures: u64,
}
