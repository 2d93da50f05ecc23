//! Event batches shipped from a host agent to ScrubCentral.

use serde::{Deserialize, Serialize};

use scrub_core::columnar::ColumnarFrame;
use scrub_core::plan::QueryId;
use scrub_core::schema::EventTypeId;
use scrub_obs::TraceSpan;

/// A batch of selected/projected events for one query from one host.
///
/// Alongside the events, the batch carries the host's cumulative counters —
/// `matched` is the host's matching-event population `M_i` and `sampled`
/// its sampled count `m_i`, which ScrubCentral feeds into the two-stage
/// sampling estimator (Eqs 1–3). `shed` counts events dropped by load
/// shedding (accuracy knowingly traded for host impact, §2).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EventBatch {
    /// Owning query.
    pub query_id: QueryId,
    /// Per-(host, query) batch sequence number, assigned by the shipping
    /// side at flush time. ScrubCentral uses it to discard duplicates when
    /// the agent retransmits batches whose ack was lost. Not included in
    /// `approx_bytes` — it rides in the existing fixed header allowance.
    #[serde(default)]
    pub seq: u64,
    /// Which shipping attempt this copy rode: 0 for the first shipment,
    /// `n >= 1` for the n-th retransmission. Set by the reliable shipper
    /// so ScrubCentral can account first-sent vs retransmitted bytes
    /// even when the original copy was lost in flight. Not part of the
    /// dedup key and not counted in `approx_bytes`.
    #[serde(default)]
    pub attempt: u32,
    /// The lowest sequence number of this (host, query) the shipper still
    /// holds for retransmission when this copy left — its own, at the
    /// latest. Everything below it was acked by ScrubCentral or abandoned
    /// by the sender (retransmit-buffer eviction), so ScrubCentral stops
    /// waiting for it. Set by the reliable shipper on every (re)send; like
    /// `seq`, rides the fixed header allowance.
    #[serde(default)]
    pub seq_floor: u64,
    /// The host's watermark for this query: every event of this (host,
    /// query) with a timestamp below it is in a batch with a sequence
    /// number at or below this one's. `None` on a batch that announces
    /// nothing — of the batches one flush makes for a query only the last
    /// can speak for all of the query's subscriptions. Like `seq`, rides
    /// the fixed header allowance.
    #[serde(default)]
    pub watermark_ms: Option<i64>,
    /// The (single) event type this batch's subscription taps. Counters
    /// are cumulative **per (host, event type)**: a join query has one
    /// subscription per FROM type on each host, each with its own
    /// counters.
    pub type_id: EventTypeId,
    /// Reporting host name.
    pub host: String,
    /// Projected events (values in host-plan projection order) as the
    /// encoded columnar frame that rides the wire.
    pub payload: ColumnarFrame,
    /// Cumulative count of events that matched selection on this host.
    pub matched: u64,
    /// Cumulative count of matched events that passed event sampling and
    /// were shipped (or would have been, absent shedding).
    pub sampled: u64,
    /// Cumulative count of events dropped by load shedding.
    pub shed: u64,
    /// Cumulative count of events dropped by the per-host CPU budget
    /// tracker (on with admission control): they matched and
    /// passed sampling, but shipping them would have pushed the modeled
    /// host cost past `host_cpu_budget` this second. Like `seq`, rides
    /// the fixed header allowance.
    #[serde(default)]
    pub budget_shed: u64,
    /// Cumulative count of events of this type *seen* by the tap on this
    /// host (the selection operator's input cardinality — `EXPLAIN
    /// ANALYZE` audits the predicate's estimated selectivity against
    /// `matched / seen`). Like `seq`, rides the fixed header allowance
    /// and is not counted in `approx_bytes`.
    #[serde(default)]
    pub seen: u64,
    /// Cumulative bytes this subscription shipped in first-transmission
    /// batches (feeds the sampling/ship operator's byte cost at central).
    /// Not counted in `approx_bytes`.
    #[serde(default)]
    pub bytes: u64,
    /// Lifecycle trace spans piggybacking on this batch (empty unless
    /// `ScrubConfig::trace_sample_rate > 0`). Spans ride the batches the
    /// agent ships anyway — tracing adds no messages to the network.
    #[serde(default)]
    pub spans: Vec<TraceSpan>,
}

impl EventBatch {
    /// Number of events in the batch.
    pub fn len(&self) -> usize {
        self.payload.len()
    }

    /// True when the batch carries no events.
    pub fn is_empty(&self) -> bool {
        self.payload.is_empty()
    }

    /// Approximate wire size of this batch in bytes: a modeled header,
    /// the exact encoded frame, and the piggybacked spans.
    pub fn approx_bytes(&self) -> usize {
        let header = 8 + self.host.len() + 24;
        header + self.payload.bytes.len() + self.spans.len() * TraceSpan::APPROX_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scrub_core::event::{Event, RequestId};
    use scrub_core::value::Value;

    fn batch(events: &[Event]) -> EventBatch {
        EventBatch {
            query_id: QueryId(1),
            seq: 0,
            attempt: 0,
            seq_floor: 0,
            watermark_ms: None,
            type_id: EventTypeId(0),
            host: "h".into(),
            payload: ColumnarFrame::from_events(events),
            matched: 0,
            sampled: 0,
            shed: 0,
            budget_shed: 0,
            seen: 0,
            bytes: 0,
            spans: vec![],
        }
    }

    #[test]
    fn batch_size_accounts_events() {
        let empty = batch(&[]);
        let spanned = EventBatch {
            spans: vec![scrub_obs::TraceSpan::new(
                1,
                scrub_obs::SpanKind::Emit,
                0,
                0,
            )],
            ..empty.clone()
        };
        assert_eq!(
            spanned.approx_bytes() - empty.approx_bytes(),
            scrub_obs::TraceSpan::APPROX_BYTES,
            "piggybacked spans must be charged to the wire-size model"
        );
    }

    #[test]
    fn columnar_batch_bytes_are_exact_frame_lengths() {
        let events: Vec<Event> = (0..100)
            .map(|i| {
                Event::new(
                    EventTypeId(0),
                    RequestId(i),
                    i as i64,
                    vec![Value::Long(i as i64 % 7), Value::Str(format!("s{}", i % 3))],
                )
            })
            .collect();
        let batch = batch(&events);
        assert_eq!(batch.len(), 100);
        assert_eq!(
            batch.approx_bytes(),
            8 + batch.host.len() + 24 + batch.payload.bytes.len(),
            "byte accounting is the encoded frame, not a model"
        );
        assert_eq!(batch.payload.to_events().unwrap(), events);
        assert_eq!(batch.payload.ts_range(), Some((0, 99)));
    }
}
