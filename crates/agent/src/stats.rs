//! Agent-side counters: the raw material of the host-overhead cost model.

use std::sync::atomic::{AtomicU64, Ordering};

use serde::{Deserialize, Serialize};

/// Lock-free counters maintained by the agent's hot path.
#[derive(Debug, Default)]
pub struct AgentStats {
    /// `log()` calls observed (including inactive event types).
    pub events_seen: AtomicU64,
    /// `log()` calls for event types with at least one active query.
    pub events_active: AtomicU64,
    /// Predicate evaluations performed.
    pub predicates_evaluated: AtomicU64,
    /// Events that matched some query's selection.
    pub events_matched: AtomicU64,
    /// Matched events dropped by per-event sampling.
    pub events_sampled_out: AtomicU64,
    /// Matched events dropped by load shedding.
    pub events_shed: AtomicU64,
    /// Matched events dropped by the per-host CPU budget tracker.
    pub events_budget_shed: AtomicU64,
    /// Events projected and enqueued for shipment.
    pub events_shipped: AtomicU64,
    /// Field values copied by projection.
    pub fields_projected: AtomicU64,
    /// Bytes handed to the transport.
    pub bytes_shipped: AtomicU64,
    /// Batches flushed.
    pub batches_flushed: AtomicU64,
    /// Batches retransmitted after an ack timeout.
    pub retransmits: AtomicU64,
    /// Bytes put back on the wire by retransmission (kept separate from
    /// `bytes_shipped` so first-shipment byte figures stay honest).
    pub bytes_retransmitted: AtomicU64,
    /// Batches currently awaiting an ack (gauge, not a counter).
    pub acks_pending: AtomicU64,
    /// Pending batches evicted because the retransmit buffer overflowed.
    pub retransmit_evictions: AtomicU64,
    /// Lifecycle trace spans recorded (only when tracing is enabled).
    pub trace_spans: AtomicU64,
    /// Trace spans dropped because the per-host span budget was hit.
    pub trace_spans_shed: AtomicU64,
    /// `log()` calls on an active type whose timestamp lay below a
    /// watermark this host had already announced: the clock the
    /// application stamps events with ran backwards past a flush, and
    /// ScrubCentral may have closed the window the event belongs to.
    pub events_behind_watermark: AtomicU64,
}

impl AgentStats {
    /// Take a consistent-enough snapshot (relaxed loads; counters only grow).
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            events_seen: self.events_seen.load(Ordering::Relaxed),
            events_active: self.events_active.load(Ordering::Relaxed),
            predicates_evaluated: self.predicates_evaluated.load(Ordering::Relaxed),
            events_matched: self.events_matched.load(Ordering::Relaxed),
            events_sampled_out: self.events_sampled_out.load(Ordering::Relaxed),
            events_shed: self.events_shed.load(Ordering::Relaxed),
            events_budget_shed: self.events_budget_shed.load(Ordering::Relaxed),
            events_shipped: self.events_shipped.load(Ordering::Relaxed),
            fields_projected: self.fields_projected.load(Ordering::Relaxed),
            bytes_shipped: self.bytes_shipped.load(Ordering::Relaxed),
            batches_flushed: self.batches_flushed.load(Ordering::Relaxed),
            retransmits: self.retransmits.load(Ordering::Relaxed),
            bytes_retransmitted: self.bytes_retransmitted.load(Ordering::Relaxed),
            acks_pending: self.acks_pending.load(Ordering::Relaxed),
            retransmit_evictions: self.retransmit_evictions.load(Ordering::Relaxed),
            trace_spans: self.trace_spans.load(Ordering::Relaxed),
            trace_spans_shed: self.trace_spans_shed.load(Ordering::Relaxed),
            events_behind_watermark: self.events_behind_watermark.load(Ordering::Relaxed),
        }
    }

    pub(crate) fn bump(&self, counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }
}

/// Plain-old-data snapshot of [`AgentStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StatsSnapshot {
    pub events_seen: u64,
    pub events_active: u64,
    pub predicates_evaluated: u64,
    pub events_matched: u64,
    pub events_sampled_out: u64,
    pub events_shed: u64,
    #[serde(default)]
    pub events_budget_shed: u64,
    pub events_shipped: u64,
    pub fields_projected: u64,
    pub bytes_shipped: u64,
    pub batches_flushed: u64,
    #[serde(default)]
    pub retransmits: u64,
    #[serde(default)]
    pub bytes_retransmitted: u64,
    #[serde(default)]
    pub acks_pending: u64,
    #[serde(default)]
    pub retransmit_evictions: u64,
    #[serde(default)]
    pub trace_spans: u64,
    #[serde(default)]
    pub trace_spans_shed: u64,
    #[serde(default)]
    pub events_behind_watermark: u64,
}

impl StatsSnapshot {
    /// Difference of two snapshots (self - earlier).
    pub fn since(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            events_seen: self.events_seen - earlier.events_seen,
            events_active: self.events_active - earlier.events_active,
            predicates_evaluated: self.predicates_evaluated - earlier.predicates_evaluated,
            events_matched: self.events_matched - earlier.events_matched,
            events_sampled_out: self.events_sampled_out - earlier.events_sampled_out,
            events_shed: self.events_shed - earlier.events_shed,
            events_budget_shed: self.events_budget_shed - earlier.events_budget_shed,
            events_shipped: self.events_shipped - earlier.events_shipped,
            fields_projected: self.fields_projected - earlier.fields_projected,
            bytes_shipped: self.bytes_shipped - earlier.bytes_shipped,
            batches_flushed: self.batches_flushed - earlier.batches_flushed,
            retransmits: self.retransmits - earlier.retransmits,
            bytes_retransmitted: self.bytes_retransmitted - earlier.bytes_retransmitted,
            // a gauge, not a monotone counter: report the later value
            acks_pending: self.acks_pending,
            retransmit_evictions: self.retransmit_evictions - earlier.retransmit_evictions,
            trace_spans: self.trace_spans - earlier.trace_spans,
            trace_spans_shed: self.trace_spans_shed - earlier.trace_spans_shed,
            events_behind_watermark: self.events_behind_watermark - earlier.events_behind_watermark,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_and_diff() {
        let s = AgentStats::default();
        s.bump(&s.events_seen, 10);
        s.bump(&s.events_matched, 4);
        let a = s.snapshot();
        s.bump(&s.events_seen, 5);
        let b = s.snapshot();
        let d = b.since(&a);
        assert_eq!(d.events_seen, 5);
        assert_eq!(d.events_matched, 0);
        assert_eq!(b.events_seen, 15);
    }
}
