//! The Scrub wire protocol: messages exchanged between the query server,
//! host agents and ScrubCentral (the arrows of Figure 3).
//!
//! Applications simulate their own traffic with their own message enum; the
//! [`ScrubEnvelope`] trait lets Scrub's generic node implementations ride
//! inside it.

use scrub_agent::EventBatch;
use scrub_central::{QuerySummary, ResultRow};
use scrub_core::plan::{CentralPlan, HostPlan, QueryId};
use scrub_simnet::Message;

/// Messages of the Scrub control and data planes.
#[derive(Debug, Clone)]
pub enum ScrubMsg {
    /// Client → query server: submit a ScrubQL query (step 1 in Fig. 3).
    Submit {
        /// ScrubQL source text.
        src: String,
    },
    /// Query server → host: install the selection/projection query object
    /// (step 2).
    InstallQuery {
        /// One plan per event type of the query.
        plans: Vec<HostPlan>,
        /// The ScrubCentral node this query's batches must be shipped to
        /// (queries are spread across the ScrubCentral cluster).
        central: scrub_simnet::NodeId,
    },
    /// Query server → host: tear the query down (span elapsed).
    StopQuery {
        /// Query to stop.
        query_id: QueryId,
    },
    /// Query server → ScrubCentral: install the join/group-by/aggregation
    /// query object (step 2').
    CentralInstall {
        /// The central plan, with host-population info filled in.
        plan: CentralPlan,
    },
    /// Query server → ScrubCentral: all hosts stopped; finish the query
    /// after the drain.
    CentralStop {
        /// Query to finish.
        query_id: QueryId,
    },
    /// Host → ScrubCentral: selected/projected events (step 3).
    Batch(EventBatch),
    /// ScrubCentral → host: batch `(query_id, seq)` was received. Sent for
    /// duplicates too, so a host whose ack was lost stops retransmitting.
    BatchAck {
        /// Query the acked batch belongs to.
        query_id: QueryId,
        /// The acked per-(host, query) sequence number.
        seq: u64,
    },
    /// ScrubCentral → query server: result rows as windows close (step 4).
    Rows {
        /// Finished rows.
        rows: Vec<ResultRow>,
    },
    /// ScrubCentral → query server: end-of-query summary.
    Summary {
        /// Totals and sampling estimates.
        summary: QuerySummary,
    },
    /// Client → query server: cancel a running query before its span
    /// elapses (the span itself guards against forgotten queries, §3.2;
    /// cancellation lets a troubleshooter stop one deliberately).
    Cancel {
        /// Query to cancel.
        query_id: QueryId,
    },
    /// Query server → client (or recorded server-side): submission outcome.
    Accepted {
        /// The id assigned to the accepted query.
        query_id: QueryId,
    },
    /// Query server → client: the query failed validation.
    Rejected {
        /// Human-readable reason.
        reason: String,
    },
}

impl ScrubMsg {
    /// Approximate wire size for latency/byte accounting.
    pub fn approx_bytes(&self) -> usize {
        match self {
            ScrubMsg::Submit { src } => 16 + src.len(),
            ScrubMsg::InstallQuery { plans, .. } => 64 + plans.len() * 256,
            ScrubMsg::StopQuery { .. } => 16,
            ScrubMsg::Cancel { .. } => 16,
            ScrubMsg::CentralInstall { .. } => 512,
            ScrubMsg::CentralStop { .. } => 16,
            ScrubMsg::Batch(b) => b.approx_bytes(),
            ScrubMsg::BatchAck { .. } => 24,
            ScrubMsg::Rows { rows } => {
                16 + rows.iter().map(|r| 16 + r.values.len() * 16).sum::<usize>()
            }
            ScrubMsg::Summary { .. } => 128,
            ScrubMsg::Accepted { .. } => 16,
            ScrubMsg::Rejected { reason } => 16 + reason.len(),
        }
    }
}

impl Message for ScrubMsg {
    fn size_bytes(&self) -> usize {
        self.approx_bytes()
    }
}

/// Implemented by an application's message enum so Scrub's generic nodes
/// (agents, ScrubCentral, the query server) can be embedded in its
/// simulation.
pub trait ScrubEnvelope: Message + Sized {
    /// Wrap a Scrub message for transmission.
    fn wrap(msg: ScrubMsg) -> Self;
    /// Recover a Scrub message, or return the original envelope when it is
    /// an application message.
    fn open(self) -> Result<ScrubMsg, Self>;
}

impl ScrubEnvelope for ScrubMsg {
    fn wrap(msg: ScrubMsg) -> Self {
        msg
    }
    fn open(self) -> Result<ScrubMsg, Self> {
        Ok(self)
    }
}

/// Base of the timer-id range Scrub's embedded components reserve;
/// applications must keep their own timer ids below this.
pub const SCRUB_TIMER_BASE: u64 = 1 << 62;
/// Periodic agent flush timer.
pub const TIMER_AGENT_FLUSH: u64 = SCRUB_TIMER_BASE + 1;
/// Periodic ScrubCentral housekeeping timer (dead hosts, stream rows,
/// health plane).
pub const TIMER_CENTRAL_ADVANCE: u64 = SCRUB_TIMER_BASE + 2;
/// Agent retransmit-check timer (armed only while acks are outstanding).
pub const TIMER_AGENT_RETRY: u64 = SCRUB_TIMER_BASE + 3;
/// One-shot ScrubCentral timer at the earliest `end + grace` of an open
/// window: the fallback close for windows no watermark completed.
pub const TIMER_CENTRAL_GRACE: u64 = SCRUB_TIMER_BASE + 5;

/// Per-query server timers: start dispatch, stop, and central drain.
pub fn timer_query_start(q: QueryId) -> u64 {
    SCRUB_TIMER_BASE + 0x100 + q.0 * 4
}
/// Timer id for stopping a query.
pub fn timer_query_stop(q: QueryId) -> u64 {
    SCRUB_TIMER_BASE + 0x100 + q.0 * 4 + 1
}
/// Timer id for finishing a query at central after the drain delay.
pub fn timer_query_drain(q: QueryId) -> u64 {
    SCRUB_TIMER_BASE + 0x100 + q.0 * 4 + 2
}

/// Inverse of the `timer_query_*` encodings.
pub fn decode_query_timer(id: u64) -> Option<(QueryId, QueryTimerKind)> {
    if id < SCRUB_TIMER_BASE + 0x100 {
        return None;
    }
    let rel = id - SCRUB_TIMER_BASE - 0x100;
    let kind = match rel % 4 {
        0 => QueryTimerKind::Start,
        1 => QueryTimerKind::Stop,
        2 => QueryTimerKind::Drain,
        _ => return None,
    };
    Some((QueryId(rel / 4), kind))
}

/// What a per-query timer means.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryTimerKind {
    /// Dispatch query objects.
    Start,
    /// Stop data collection on hosts.
    Stop,
    /// Finish the query at ScrubCentral.
    Drain,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timer_encoding_round_trips() {
        for q in [0u64, 1, 7, 12345] {
            let q = QueryId(q);
            assert_eq!(
                decode_query_timer(timer_query_start(q)),
                Some((q, QueryTimerKind::Start))
            );
            assert_eq!(
                decode_query_timer(timer_query_stop(q)),
                Some((q, QueryTimerKind::Stop))
            );
            assert_eq!(
                decode_query_timer(timer_query_drain(q)),
                Some((q, QueryTimerKind::Drain))
            );
        }
        assert_eq!(decode_query_timer(5), None);
        assert_eq!(decode_query_timer(TIMER_AGENT_FLUSH), None);
    }

    #[test]
    fn sizes_scale_with_content() {
        let small = ScrubMsg::Submit { src: "x".into() };
        let big = ScrubMsg::Submit {
            src: "x".repeat(100),
        };
        assert!(big.size_bytes() > small.size_bytes() + 90);
    }

    #[test]
    fn envelope_identity() {
        let m = ScrubMsg::StopQuery {
            query_id: QueryId(3),
        };
        let wrapped = ScrubMsg::wrap(m);
        assert!(matches!(
            wrapped.open(),
            Ok(ScrubMsg::StopQuery { query_id }) if query_id == QueryId(3)
        ));
    }
}
