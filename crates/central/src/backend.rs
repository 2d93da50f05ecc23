//! The sealed ingest-backend trait behind [`PartitionedExecutor`].
//!
//! `PartitionedExecutor` used to branch on `partitions == 1` inside every
//! method. The redesign makes the split explicit: an [`IngestBackend`] is
//! either the [`InlineBackend`] (single-threaded, the deterministic
//! reference every differential test compares against) or the
//! [`ThreadedBackend`](crate::threaded::ThreadedBackend) (one worker per
//! partition behind deep bounded channels). `CentralNode` and the benches
//! select a backend through one constructor —
//! [`PartitionedExecutor::new`] picks from the partition count,
//! [`PartitionedExecutor::with_backend`] accepts a pre-built one.
//!
//! The trait is sealed: the 1-vs-N equality contract (rows, summaries,
//! estimates, ledgers, trace signatures, merged profiles) is proven for
//! these two implementations, and an out-of-crate backend could not
//! uphold it against the router's merge logic.
//!
//! [`PartitionedExecutor`]: crate::PartitionedExecutor
//! [`PartitionedExecutor::new`]: crate::PartitionedExecutor::new
//! [`PartitionedExecutor::with_backend`]: crate::PartitionedExecutor::with_backend

use std::collections::HashSet;
use std::sync::Arc;

use scrub_agent::EventBatch;
use scrub_core::plan::CentralPlan;
use scrub_obs::PlanProfile;

use crate::executor::{QueryExecutor, WindowPartial};
use crate::row::{QuerySummary, ResultRow};
use crate::stats::WorkerTime;

pub(crate) mod private {
    /// Seals [`super::IngestBackend`] to this crate.
    pub trait Sealed {}
}

/// Everything one advance barrier produced: the drained stream rows,
/// closed-window partials (possibly several per window — one per
/// partition that held state for it), and the scale factor in force at
/// the barrier. The router merges partials by window, re-caps groups, and
/// renders — backends never render rows.
pub struct BackendAdvance {
    /// Stream-mode rows drained at the barrier, in partition order.
    pub stream_rows: Vec<ResultRow>,
    /// Closed windows' partial group states.
    pub partials: Vec<WindowPartial>,
    /// Sampling scale-up factor observed at the barrier (Eq. 1).
    pub scale: f64,
}

/// One of the two execution strategies under a
/// [`PartitionedExecutor`](crate::PartitionedExecutor). Sealed — see the
/// module docs.
pub trait IngestBackend: private::Sealed + Send {
    /// Partition count (1 for the inline backend).
    fn partitions(&self) -> usize;

    /// Shared handle to the compiled plan.
    fn plan_arc(&self) -> Arc<CentralPlan>;

    /// The partition an event with this request id routes to. Only
    /// request-id routed (join) plans give a per-request answer; batch
    /// round-robin plans report the partition the *next* whole-batch
    /// hand-off would take.
    fn route_partition(&self, request_id: u64) -> usize;

    /// Hand one batch to the backend. Returns the number of backpressure
    /// stalls (hand-offs that found a channel full and blocked; always 0
    /// inline).
    fn ingest(&mut self, batch: EventBatch) -> u64;

    /// Record a watermark for a tick that needs no barrier (see
    /// [`IngestBackend::needs_advance`]); the threaded backend piggybacks
    /// it on subsequent ingest hand-offs.
    fn note_watermark(&mut self, now_ms: i64);

    /// Whether advancing to `now_ms` could close a window or emit a row.
    /// `false` is a guarantee: the advance would be a no-op, so the
    /// router skips the barrier entirely (the amortized advance
    /// protocol). Conservative `true`s are allowed and merely cost a
    /// barrier.
    fn needs_advance(&self, now_ms: i64) -> bool;

    /// Barrier: drain stream rows and every window closed by `now_ms`.
    fn advance(&mut self, now_ms: i64) -> BackendAdvance;

    /// Replace the suspected-dead host set (feeds the inline executor's
    /// estimator; the threaded backend applies it at
    /// [`IngestBackend::finish_summary`] time instead, where its merged
    /// estimates are computed).
    fn set_dead_hosts(&mut self, hosts: &HashSet<String>);

    /// Produce the end-of-query summary. Fields only the router can count
    /// partition-invariantly (degraded rows, duplicates, windows emitted,
    /// groups overflow) are left 0 for it to overwrite.
    fn finish_summary(&mut self, dead_hosts: &HashSet<String>) -> QuerySummary;

    /// The backend's merged `EXPLAIN ANALYZE` profile (host ops + notes
    /// included; router-only overlays excluded).
    fn plan_profile(&self) -> PlanProfile;

    /// `(open_windows, join/group rows held)` — live for the inline
    /// backend, as of the latest barrier for the threaded one.
    fn gauges(&self) -> (usize, u64);

    /// Columnar frames that failed to decode and were dropped — live for
    /// the inline backend, as of the latest barrier for the threaded one.
    fn decode_failures(&self) -> u64;

    /// Per-worker busy/idle attribution (empty inline).
    fn worker_times(&self) -> Vec<WorkerTime>;
}

/// `partitions == 1`: the historical sequential path, inline on the
/// caller's thread — no channels, no threads, bit-identical to the
/// pre-partitioning executor. (Boxed: the executor is much larger than
/// the threaded pool handle.)
pub struct InlineBackend {
    exec: Box<QueryExecutor>,
}

impl InlineBackend {
    /// Build the inline deterministic reference for a plan.
    pub fn new(plan: impl Into<Arc<CentralPlan>>, grace_ms: i64) -> Self {
        InlineBackend {
            exec: Box::new(QueryExecutor::new(plan, grace_ms)),
        }
    }
}

impl private::Sealed for InlineBackend {}

impl IngestBackend for InlineBackend {
    fn partitions(&self) -> usize {
        1
    }

    fn plan_arc(&self) -> Arc<CentralPlan> {
        self.exec.plan_arc()
    }

    fn route_partition(&self, _request_id: u64) -> usize {
        0
    }

    fn ingest(&mut self, batch: EventBatch) -> u64 {
        self.exec.ingest(batch);
        0
    }

    fn note_watermark(&mut self, _now_ms: i64) {}

    fn needs_advance(&self, _now_ms: i64) -> bool {
        // Advancing inline is a method call, not a barrier — nothing to
        // amortize, and unconditional advances keep this path exactly the
        // historical reference.
        true
    }

    fn advance(&mut self, now_ms: i64) -> BackendAdvance {
        let stream_rows = self.exec.advance_stream_only();
        let partials = self.exec.take_closed_partials(now_ms);
        BackendAdvance {
            stream_rows,
            partials,
            scale: self.exec.scale(),
        }
    }

    fn set_dead_hosts(&mut self, hosts: &HashSet<String>) {
        self.exec.set_dead_hosts(hosts.clone());
    }

    fn finish_summary(&mut self, _dead_hosts: &HashSet<String>) -> QuerySummary {
        // The executor already knows the dead set (set_dead_hosts
        // forwards); its finish computes estimates over the survivors.
        // The router has drained all windows before calling this, so the
        // internal advance returns no rows.
        self.exec.finish().1
    }

    fn plan_profile(&self) -> PlanProfile {
        self.exec.plan_profile()
    }

    fn gauges(&self) -> (usize, u64) {
        (
            self.exec.open_windows(),
            (self.exec.buffered_events() + self.exec.open_groups()) as u64,
        )
    }

    fn decode_failures(&self) -> u64 {
        self.exec.decode_failures
    }

    fn worker_times(&self) -> Vec<WorkerTime> {
        Vec::new()
    }
}
