//! # scrub-central
//!
//! ScrubCentral (§4): the dedicated centralized facility where everything
//! expensive happens — tumbling-window management, the request-id
//! equi-join, group-by, and exact + probabilistic aggregation — so that
//! none of it runs on the hosts serving the application.
//!
//! One [`QueryExecutor`] runs one query on the caller's thread and is the
//! one writer of that query's [`QueryProfile`](scrub_obs::QueryProfile)
//! ([`QueryExecutor::profile`]): every batch header, duplicate, window
//! close and state gauge lands there, and the summary, `EXPLAIN ANALYZE`
//! and the loss ledger all derive from it. The scaling the paper's
//! deployment gets from a small ScrubCentral cluster comes from assigning
//! whole queries across central nodes. Aggregate states stay mergeable
//! ([`AggState::merge`]) as the building block for sliding-window panes:
//! a `window 10 s slide 1 s` aggregate folds each event into ten windows
//! and ingests 12-19× slower than a 1 s tumbling one, past the 10× at
//! which tumbling `slide`-wide partials, merged at close, pay off.

pub mod agg;
pub mod executor;
pub mod groups;
pub mod joined;
pub mod row;
mod totals;

pub use agg::AggState;
pub use executor::{CloseRule, QueryExecutor, WindowClose, MAX_JOIN_ROWS_PER_REQUEST};
pub use row::{QuerySummary, ResultRow};

/// Forwarding shim: `scrub_perf/src/layers.rs` names these five calls and
/// sits under a benchmark path this change may not edit. The next
/// benchmark PR re-points that seam at [`QueryExecutor`] and deletes this.
#[doc(hidden)]
pub struct PartitionedExecutor(QueryExecutor);

#[doc(hidden)]
impl PartitionedExecutor {
    pub fn new(plan: scrub_core::plan::CentralPlan, grace_ms: i64, _partitions: usize) -> Self {
        PartitionedExecutor(QueryExecutor::new(plan, grace_ms))
    }
    pub fn ingest(&mut self, batch: scrub_agent::EventBatch) {
        self.0.ingest(batch)
    }
    pub fn advance(&mut self, now_ms: i64) -> Vec<ResultRow> {
        self.0.advance(now_ms)
    }
    pub fn finish(&mut self) -> (Vec<ResultRow>, QuerySummary) {
        self.0.finish()
    }
    pub fn plan_profile(&self) -> scrub_obs::PlanProfile {
        self.0.plan_profile()
    }
}
