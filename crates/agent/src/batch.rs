//! Event batches shipped from a host agent to ScrubCentral.

use serde::{Deserialize, Serialize};

use scrub_core::columnar::ColumnarFrame;
use scrub_core::config::WireFormat;
use scrub_core::error::ScrubResult;
use scrub_core::event::Event;
use scrub_core::plan::QueryId;
use scrub_core::schema::EventTypeId;
use scrub_obs::TraceSpan;

/// The event payload of a batch, in the shape the agent shipped it.
///
/// `Rows` is the v1 wire format: materialised row events. `Columnar` is
/// the v2 format: the agent encoded its flush buffer into per-column
/// segments at ship time, so what rides the wire (and what byte
/// accounting charges) is the actual encoded frame. ScrubCentral decodes
/// the frame into column chunks once and runs every operator over them;
/// `Rows` survives as the compatibility wire format and is transposed
/// into the same chunks at ingest.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum BatchPayload {
    /// Interleaved row events (wire format v1).
    Rows(Vec<Event>),
    /// Encoded columnar frame plus cached count/timestamp metadata
    /// (wire format v2).
    Columnar(ColumnarFrame),
}

impl BatchPayload {
    /// Build a payload from a flush buffer in the configured wire format.
    pub fn from_events(events: Vec<Event>, format: WireFormat) -> BatchPayload {
        match format {
            WireFormat::Row => BatchPayload::Rows(events),
            WireFormat::Columnar => BatchPayload::Columnar(ColumnarFrame::from_events(&events)),
        }
    }

    /// Number of events in the payload (O(1) for both formats).
    pub fn len(&self) -> usize {
        match self {
            BatchPayload::Rows(evs) => evs.len(),
            BatchPayload::Columnar(f) => f.len(),
        }
    }

    /// True when the payload carries no events.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `(min, max)` event timestamp, `None` when empty. O(1) for
    /// columnar payloads (cached at encode time).
    pub fn ts_range(&self) -> Option<(i64, i64)> {
        match self {
            BatchPayload::Rows(evs) => {
                let lo = evs.iter().map(|e| e.timestamp).min()?;
                let hi = evs.iter().map(|e| e.timestamp).max()?;
                Some((lo, hi))
            }
            BatchPayload::Columnar(f) => f.ts_range(),
        }
    }

    /// Visit `(request_id, timestamp)` for every event in order, without
    /// materialising rows (columnar frames scan chunk headers only; one
    /// that does not scan is an `Err`).
    pub fn for_each_meta(&self, mut f: impl FnMut(u64, i64)) -> ScrubResult<()> {
        match self {
            BatchPayload::Rows(evs) => {
                for ev in evs {
                    f(ev.request_id.0, ev.timestamp);
                }
                Ok(())
            }
            BatchPayload::Columnar(fr) => fr.for_each_meta(f),
        }
    }

    /// Materialise row events (cloning for `Rows`, decoding for
    /// `Columnar`). Frames are produced in-process, so a decode failure
    /// indicates a bug; it yields an empty vector (asserted in debug).
    pub fn to_rows(&self) -> Vec<Event> {
        match self {
            BatchPayload::Rows(evs) => evs.clone(),
            BatchPayload::Columnar(f) => {
                let mut out = Vec::new();
                let res = f.decode_rows_into(&mut out);
                debug_assert!(res.is_ok(), "columnar payload decode failed: {res:?}");
                out
            }
        }
    }

    /// Wire size of the payload alone. For columnar payloads this is the
    /// exact encoded frame length; for rows it is the modeled per-event
    /// footprint (the v1 accounting).
    pub fn approx_bytes(&self) -> usize {
        match self {
            BatchPayload::Rows(evs) => evs.iter().map(Event::approx_bytes).sum(),
            BatchPayload::Columnar(f) => f.bytes.len(),
        }
    }
}

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
    /// Projected events (values in host-plan projection order), in the
    /// wire format the shipping agent was configured with.
    pub payload: BatchPayload,
    /// Cumulative count of events that matched selection on this host.
    pub matched: u64,
    /// Cumulative count of matched events that passed event sampling and
    /// were shipped (or would have been, absent shedding).
    pub sampled: u64,
    /// Cumulative count of events dropped by load shedding.
    pub shed: u64,
    /// Cumulative count of events dropped by the per-host CPU budget
    /// tracker (`ScrubConfig::enforce_host_budget`): they matched and
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

    /// Approximate wire size of this batch in bytes. For columnar
    /// payloads the event portion is the exact encoded frame length.
    pub fn approx_bytes(&self) -> usize {
        let header = 8 + self.host.len() + 24;
        header + self.payload.approx_bytes() + self.spans.len() * TraceSpan::APPROX_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scrub_core::event::RequestId;
    use scrub_core::schema::EventTypeId;
    use scrub_core::value::Value;

    fn empty_batch() -> EventBatch {
        EventBatch {
            query_id: QueryId(1),
            seq: 0,
            attempt: 0,
            seq_floor: 0,
            watermark_ms: None,
            type_id: EventTypeId(0),
            host: "h".into(),
            payload: BatchPayload::Rows(vec![]),
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
        let ev = Event::new(EventTypeId(0), RequestId(1), 0, vec![Value::Long(5)]);
        let empty = empty_batch();
        let one = EventBatch {
            payload: BatchPayload::Rows(vec![ev.clone()]),
            ..empty.clone()
        };
        assert_eq!(one.approx_bytes() - empty.approx_bytes(), ev.approx_bytes());
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
        let payload = BatchPayload::from_events(events.clone(), WireFormat::Columnar);
        let frame_len = match &payload {
            BatchPayload::Columnar(f) => f.bytes.len(),
            _ => unreachable!(),
        };
        let batch = EventBatch {
            payload,
            ..empty_batch()
        };
        assert_eq!(batch.len(), 100);
        assert_eq!(
            batch.approx_bytes(),
            8 + batch.host.len() + 24 + frame_len,
            "columnar byte accounting is the encoded frame, not a model"
        );
        assert_eq!(batch.payload.to_rows(), events);
        assert_eq!(batch.payload.ts_range(), Some((0, 99)));
    }

    #[test]
    fn payload_meta_iteration_agrees_across_formats() {
        let events: Vec<Event> = (0..10)
            .map(|i| Event::new(EventTypeId(0), RequestId(i * 2), 100 - i as i64, vec![]))
            .collect();
        let mut row_meta = Vec::new();
        BatchPayload::from_events(events.clone(), WireFormat::Row)
            .for_each_meta(|r, t| row_meta.push((r, t)))
            .unwrap();
        let mut col_meta = Vec::new();
        BatchPayload::from_events(events, WireFormat::Columnar)
            .for_each_meta(|r, t| col_meta.push((r, t)))
            .unwrap();
        assert_eq!(row_meta, col_meta);
    }
}
