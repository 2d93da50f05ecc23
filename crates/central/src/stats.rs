//! One-call observability snapshot for the partitioned executor.
//!
//! Before the batch-pipeline redesign, `PartitionedExecutor` grew about a
//! dozen ad-hoc getters (`events_routed()`, `backpressure_events()`,
//! `degraded_rows()`, `groups_overflow()`, `take_backpressure()`, …) and
//! every caller stitched its own picture from several calls that could
//! interleave with ingest. [`ExecutorStats`] replaces them: one
//! `stats()` call returns a coherent snapshot of every counter the
//! server, benches, and tests consume.

/// Busy/idle wall-clock attribution for one partition worker thread.
///
/// `idle_ns` is time blocked on the ingest channel (starved or waiting
/// for the next hand-off), `busy_ns` is time folding batches or serving a
/// barrier. The split is what makes scaling regressions attributable: a
/// slow pipeline with idle workers points at the router or the hand-off
/// protocol, busy workers point at the fold itself.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerTime {
    /// Partition index of the worker.
    pub partition: usize,
    /// Nanoseconds spent processing commands (ingest folds + barriers).
    pub busy_ns: u64,
    /// Nanoseconds spent blocked waiting for the next command.
    pub idle_ns: u64,
}

/// Coherent snapshot of every observable counter of a
/// [`PartitionedExecutor`](crate::PartitionedExecutor).
///
/// All counters are cumulative since executor creation. Callers that
/// need deltas (the server's per-tick metrics) keep the previous
/// snapshot and subtract. Every field except `backpressure_stalls` and
/// the `workers` timings is deterministic and partition-invariant —
/// identical for the inline backend and any threaded partition count on
/// the same input.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecutorStats {
    /// Partition count (1 = inline deterministic reference).
    pub partitions: usize,
    /// Events routed into the backend (each ingested event exactly once,
    /// whether the batch was handed off whole or split by request id).
    pub events_routed: u64,
    /// Times an ingest hand-off found the partition channel full and had
    /// to block. Cumulative; nondeterministic (scheduling-dependent) and
    /// always 0 for the inline backend.
    pub backpressure_stalls: u64,
    /// Result rows marked degraded at emission (host death / overflow).
    pub degraded_rows: u64,
    /// Batches discarded as duplicate (host, query, seq) retransmissions.
    pub duplicate_batches: u64,
    /// Rows dropped by the `max_groups` bound, including router re-cap
    /// drops. Partition-invariant (see `update_groups`).
    pub groups_overflow: u64,
    /// Windows that produced at least one result row (counted once at the
    /// router, so partition-invariant).
    pub windows_emitted: u64,
    /// Windows currently open. For the threaded backend this is the sum
    /// over partitions as of the last advance barrier (gauges are not
    /// worth a barrier of their own).
    pub open_windows: usize,
    /// Events buffered for the join across open windows; same barrier
    /// staleness as `open_windows`.
    pub join_rows_held: u64,
    /// Columnar frames that failed to decode; their events were dropped
    /// and later batches still fold. Same barrier staleness as
    /// `open_windows`.
    pub decode_failures: u64,
    /// Advance calls that paid the cross-partition barrier.
    pub advance_barriers: u64,
    /// Advance calls answered from the watermark alone — no window could
    /// be due, so no barrier was paid (the amortized-advance fast path;
    /// always 0 inline where advancing is just a method call).
    pub advances_skipped: u64,
    /// Per-worker busy/idle attribution. Empty for the inline backend.
    pub workers: Vec<WorkerTime>,
}
