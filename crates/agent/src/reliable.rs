//! Reliable batch delivery from a host agent toward ScrubCentral.
//!
//! The paper's transport between agents and ScrubCentral is a plain
//! message stream; under packet loss or a partition a batch (or its ack)
//! can vanish, silently biasing every byte- and count-based result. This
//! module adds an at-least-once shipping layer on the agent side:
//!
//! * every outgoing batch gets a per-query sequence number,
//! * shipped batches sit in a bounded retransmit buffer until acked,
//! * every copy put on the wire names the lowest sequence number of its
//!   query the shipper has not given up on, so ScrubCentral does not wait
//!   forever for a batch the buffer has evicted,
//! * unacked batches are retransmitted with exponential backoff plus
//!   caller-supplied jitter.
//!
//! ScrubCentral deduplicates on `(host, query, seq)`, so retransmission is
//! safe; the shipper keeps retransmitted bytes accounted separately from
//! first shipments so the paper's byte figures (E11/E14) stay honest.
//!
//! The shipper is transport-agnostic and clock-agnostic: the harness tells
//! it when batches ship, when acks arrive and what time it is. It draws no
//! randomness itself — backoff jitter comes from a closure invoked only
//! when a retransmit actually fires, which keeps fault-free runs byte-
//! identical to runs without the reliability layer.

use std::collections::BTreeMap;

use scrub_core::plan::QueryId;

use crate::batch::EventBatch;

/// Retry/backoff policy for unacked batches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// First retransmit fires this long after shipment (ms).
    pub base_ms: i64,
    /// Backoff ceiling (ms).
    pub max_ms: i64,
    /// Retransmit buffer capacity in batches; beyond it the oldest pending
    /// batch, of whichever query, is evicted (dropped for good) so a long
    /// partition cannot run the host out of memory. Evictions are reported
    /// so the agent can count them.
    pub buffer_cap: usize,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            base_ms: 2_000,
            max_ms: 30_000,
            buffer_cap: 1024,
        }
    }
}

/// A shipped-but-unacked batch.
#[derive(Debug, Clone)]
struct Pending {
    batch: EventBatch,
    /// Position in the shipper's ship order, across queries.
    shipped: u64,
    /// Retransmits attempted so far (0 = only the first shipment).
    attempts: u32,
    /// Next retransmit due at this time (ms).
    due_ms: i64,
}

/// A batch the shipper wants retransmitted now.
#[derive(Debug, Clone)]
pub struct Retransmit {
    /// The batch to put back on the wire (seq already assigned).
    pub batch: EventBatch,
    /// Which retransmission this is (1 = first retry).
    pub attempt: u32,
}

/// At-least-once shipping state for one agent (all queries).
#[derive(Debug)]
pub struct ReliableShipper {
    policy: RetryPolicy,
    /// Next sequence number per query.
    next_seq: BTreeMap<QueryId, u64>,
    /// Shipped, unacked batches keyed by (query, seq) — BTreeMap so
    /// iteration (and thus retransmit order) is deterministic.
    pending: BTreeMap<(QueryId, u64), Pending>,
    /// Batches shipped so far, across queries.
    shipped: u64,
    /// Pending batches evicted because the buffer overflowed.
    evicted: u64,
    /// Evicted batches not heard of since, with the time each is given up
    /// on. Nothing is left to retransmit, but the copies already sent may
    /// still be on their way: the floor holds at one of these until its
    /// ack arrives or one more `max_ms` — the longest the shipper would
    /// have waited on an attempt — has gone by.
    abandoned: BTreeMap<(QueryId, u64), i64>,
}

impl ReliableShipper {
    /// Create with the given retry policy, held to its floors: a first
    /// retry of at least 1 ms, a ceiling no lower than it and room for
    /// one batch.
    pub fn new(policy: RetryPolicy) -> Self {
        let base_ms = policy.base_ms.max(1);
        ReliableShipper {
            policy: RetryPolicy {
                base_ms,
                max_ms: policy.max_ms.max(base_ms),
                buffer_cap: policy.buffer_cap.max(1),
            },
            next_seq: BTreeMap::new(),
            pending: BTreeMap::new(),
            shipped: 0,
            evicted: 0,
            abandoned: BTreeMap::new(),
        }
    }

    /// Assign the next sequence number to `batch` and enter it into the
    /// retransmit buffer. Returns the batch to ship (with `seq` and
    /// `seq_floor` set). If the buffer is full the oldest pending batch is
    /// evicted.
    pub fn ship(&mut self, mut batch: EventBatch, now_ms: i64) -> EventBatch {
        let seq = self.next_seq.entry(batch.query_id).or_insert(0);
        batch.seq = *seq;
        batch.attempt = 0;
        *seq += 1;
        if self.pending.len() >= self.policy.buffer_cap {
            if let Some(key) = self.oldest_pending() {
                self.pending.remove(&key);
                self.evicted += 1;
                self.abandoned.insert(key, now_ms + self.policy.max_ms);
            }
        }
        self.shipped += 1;
        self.pending.insert(
            (batch.query_id, batch.seq),
            Pending {
                batch: batch.clone(),
                shipped: self.shipped,
                attempts: 0,
                due_ms: now_ms + self.policy.base_ms,
            },
        );
        batch.seq_floor = self.floor(batch.query_id, batch.seq, now_ms);
        batch
    }

    /// The pending batch shipped earliest. A query's sequence numbers
    /// follow its ship order, so that is the earliest shipped of each
    /// query's lowest pending one.
    fn oldest_pending(&self) -> Option<(QueryId, u64)> {
        self.next_seq
            .keys()
            .filter_map(|&q| self.pending.range((q, 0)..=(q, u64::MAX)).next())
            .min_by_key(|(_, p)| p.shipped)
            .map(|(&key, _)| key)
    }

    /// Lowest sequence number of `query_id` the shipper still waits on, as
    /// a copy of batch `seq` leaves: `seq` itself, an older pending batch,
    /// or an evicted one not yet given up on.
    fn floor(&mut self, query_id: QueryId, seq: u64, now_ms: i64) -> u64 {
        let of_query = (query_id, 0)..=(query_id, u64::MAX);
        while let Some((&key, _)) = self
            .abandoned
            .range(of_query.clone())
            .next()
            .filter(|(_, give_up_ms)| **give_up_ms <= now_ms)
        {
            self.abandoned.remove(&key);
        }
        let abandoned = self.abandoned.range(of_query.clone()).next();
        let pending = self.pending.range(of_query).next();
        [
            abandoned.map(|(key, _)| key.1),
            pending.map(|(key, _)| key.1),
        ]
        .into_iter()
        .flatten()
        .fold(seq, u64::min)
    }

    /// Process an ack from ScrubCentral. Returns true if it cleared a
    /// pending batch (false for duplicate/stale acks).
    pub fn ack(&mut self, query_id: QueryId, seq: u64) -> bool {
        self.abandoned.remove(&(query_id, seq));
        self.pending.remove(&(query_id, seq)).is_some()
    }

    /// Collect the batches whose retransmit timer has expired, advancing
    /// their backoff. `jitter_ms` is called once per fired retransmit with
    /// the new backoff delay and returns extra delay to add (draw it from
    /// the caller's RNG); it is never called when nothing is due, so a
    /// fault-free run consumes no randomness here.
    pub fn due_retransmits(
        &mut self,
        now_ms: i64,
        mut jitter_ms: impl FnMut(i64) -> i64,
    ) -> Vec<Retransmit> {
        let mut out = Vec::new();
        for pending in self.pending.values_mut() {
            if pending.due_ms > now_ms {
                continue;
            }
            pending.attempts += 1;
            let backoff = (self.policy.base_ms << pending.attempts.min(16)).min(self.policy.max_ms);
            pending.due_ms = now_ms + backoff + jitter_ms(backoff);
            let mut batch = pending.batch.clone();
            // mark the copy so central can account retransmitted bytes
            // even when the first copy never arrived
            batch.attempt = pending.attempts;
            out.push(Retransmit {
                batch,
                attempt: pending.attempts,
            });
        }
        // a resend carries the floor of its own time, not of its first
        for r in &mut out {
            r.batch.seq_floor = self.floor(r.batch.query_id, r.batch.seq, now_ms);
        }
        out
    }

    /// Whether any batch is awaiting an ack.
    pub fn has_pending(&self) -> bool {
        !self.pending.is_empty()
    }

    /// Number of batches awaiting an ack.
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// Number of batches awaiting an ack for one query.
    pub fn pending_for(&self, query_id: QueryId) -> usize {
        self.pending
            .range((query_id, 0)..=(query_id, u64::MAX))
            .count()
    }

    /// Earliest retransmit deadline across pending batches, if any.
    pub fn next_due_ms(&self) -> Option<i64> {
        self.pending.values().map(|p| p.due_ms).min()
    }

    /// Pending batches evicted due to buffer overflow so far.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Drop all pending state for a query (e.g. the query was stopped and
    /// the drain window has passed).
    pub fn forget_query(&mut self, query_id: QueryId) {
        self.pending.retain(|(q, _), _| *q != query_id);
        self.abandoned.retain(|(q, _), _| *q != query_id);
        self.next_seq.remove(&query_id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scrub_core::schema::EventTypeId;

    fn batch(q: u64) -> EventBatch {
        EventBatch {
            query_id: QueryId(q),
            seq: 0,
            attempt: 0,
            seq_floor: 0,
            watermark_ms: None,
            type_id: EventTypeId(0),
            host: "h".into(),
            payload: scrub_core::columnar::ColumnarFrame::from_events(&[]),
            matched: 1,
            sampled: 1,
            shed: 0,
            budget_shed: 0,
            seen: 1,
            bytes: 0,
            spans: vec![],
        }
    }

    fn shipper() -> ReliableShipper {
        ReliableShipper::new(RetryPolicy {
            base_ms: 100,
            max_ms: 1_000,
            buffer_cap: 4,
        })
    }

    #[test]
    fn sequence_numbers_are_per_query_and_monotonic() {
        let mut s = shipper();
        assert_eq!(s.ship(batch(1), 0).seq, 0);
        assert_eq!(s.ship(batch(1), 0).seq, 1);
        assert_eq!(s.ship(batch(2), 0).seq, 0);
        assert_eq!(s.ship(batch(1), 0).seq, 2);
        assert_eq!(s.pending_count(), 4);
        assert_eq!(s.pending_for(QueryId(1)), 3);
    }

    #[test]
    fn ack_clears_pending_and_duplicates_are_ignored() {
        let mut s = shipper();
        let b = s.ship(batch(1), 0);
        assert!(s.ack(b.query_id, b.seq));
        assert!(!s.ack(b.query_id, b.seq));
        assert!(!s.has_pending());
        assert!(s.due_retransmits(10_000, |_| 0).is_empty());
    }

    #[test]
    fn retransmits_back_off_exponentially() {
        let mut s = shipper();
        s.ship(batch(1), 0);
        // not due yet
        assert!(s.due_retransmits(99, |_| 0).is_empty());
        // first retry at base; backoff doubles
        let r = s.due_retransmits(100, |_| 0);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].attempt, 1);
        assert_eq!(s.next_due_ms(), Some(100 + 200));
        let r = s.due_retransmits(300, |_| 0);
        assert_eq!(r[0].attempt, 2);
        assert_eq!(s.next_due_ms(), Some(300 + 400));
        // ceiling binds eventually
        for now in [700, 1_500, 3_000, 10_000] {
            s.due_retransmits(now, |_| 0);
        }
        let due = s.next_due_ms().unwrap();
        assert!(due <= 10_000 + 1_000, "backoff exceeded max: {due}");
    }

    #[test]
    fn jitter_is_only_drawn_when_a_retransmit_fires() {
        let mut s = shipper();
        s.ship(batch(1), 0);
        let mut draws = 0;
        s.due_retransmits(50, |_| {
            draws += 1;
            0
        });
        assert_eq!(draws, 0);
        s.due_retransmits(150, |b| {
            draws += 1;
            b / 2
        });
        assert_eq!(draws, 1);
        // jitter shifted the deadline: base<<1 = 200, jitter 100
        assert_eq!(s.next_due_ms(), Some(150 + 200 + 100));
    }

    #[test]
    fn retransmitted_copies_are_marked_with_their_attempt() {
        let mut s = shipper();
        let first = s.ship(batch(1), 0);
        assert_eq!(first.attempt, 0);
        let r = s.due_retransmits(100, |_| 0);
        assert_eq!(r[0].batch.attempt, 1);
        let r = s.due_retransmits(1_000, |_| 0);
        assert_eq!(r[0].batch.attempt, 2);
        // the buffered original stays attempt-0 only on the wire copies;
        // acking by (query, seq) is unaffected by the marking
        assert!(s.ack(QueryId(1), first.seq));
    }

    #[test]
    fn buffer_overflow_evicts_oldest() {
        let mut s = shipper();
        for _ in 0..6 {
            s.ship(batch(1), 0);
        }
        assert_eq!(s.pending_count(), 4);
        assert_eq!(s.evicted(), 2);
        // seqs 0 and 1 are gone; acking them clears nothing
        assert!(!s.ack(QueryId(1), 0));
        assert!(s.ack(QueryId(1), 2));
    }

    /// The batch evicted is the one shipped first, whichever query it
    /// belongs to.
    #[test]
    fn buffer_overflow_evicts_the_earliest_shipped_across_queries() {
        let mut s = ReliableShipper::new(RetryPolicy {
            buffer_cap: 2,
            ..RetryPolicy::default()
        });
        s.ship(batch(2), 0);
        s.ship(batch(1), 0);
        s.ship(batch(1), 0);
        assert_eq!(s.evicted(), 1);
        assert_eq!(s.pending_for(QueryId(2)), 0, "q2's batch went first");
        assert_eq!(s.pending_for(QueryId(1)), 2);
    }

    #[test]
    fn every_copy_names_the_lowest_seq_still_held() {
        let mut s = shipper();
        // nothing acked yet: the floor stays at the first batch
        let floors: Vec<u64> = (0..3).map(|_| s.ship(batch(1), 0).seq_floor).collect();
        assert_eq!(floors, [0, 0, 0]);
        assert_eq!(s.ship(batch(2), 0).seq_floor, 0, "floors are per query");
        // acks move it up to the oldest batch still pending
        s.ack(QueryId(1), 0);
        s.ack(QueryId(1), 1);
        let r = s.due_retransmits(100, |_| 0);
        let q1: Vec<(u64, u64)> = r
            .iter()
            .filter(|r| r.batch.query_id == QueryId(1))
            .map(|r| (r.batch.seq, r.batch.seq_floor))
            .collect();
        assert_eq!(q1, [(2, 2)], "a resend carries the floor of its own time");
        // with everything acked, a new batch is its own floor
        s.ack(QueryId(1), 2);
        assert_eq!(s.ship(batch(1), 200).seq_floor, 3);
    }

    /// An evicted batch was sent and may yet arrive: the floor holds at it
    /// until its ack comes, or until one more `max_ms` has passed.
    #[test]
    fn the_floor_waits_out_an_evicted_batch_before_passing_it() {
        let mut s = shipper(); // cap 4, max_ms 1000
        for _ in 0..6 {
            s.ship(batch(1), 0);
        }
        assert_eq!(s.evicted(), 2, "seqs 0 and 1 left the buffer");
        assert_eq!(s.ship(batch(1), 10).seq_floor, 0, "but may be in flight");
        // the copy of 0 that was in flight is acked: 1 is the floor now
        assert!(!s.ack(QueryId(1), 0), "nothing pending to clear");
        assert_eq!(s.ship(batch(1), 20).seq_floor, 1);
        // no word of 1 for max_ms since its eviction: given up on
        let late = s.ship(batch(1), 1_000);
        assert!(late.seq_floor > 1, "floor {}", late.seq_floor);
        let r = s.due_retransmits(5_000, |_| 0);
        assert!(r.iter().all(|r| r.batch.seq_floor > 1));
    }

    #[test]
    fn forget_query_drops_only_that_query() {
        let mut s = shipper();
        s.ship(batch(1), 0);
        s.ship(batch(2), 0);
        s.forget_query(QueryId(1));
        assert_eq!(s.pending_count(), 1);
        assert_eq!(s.pending_for(QueryId(2)), 1);
        // seq restarts after forget
        assert_eq!(s.ship(batch(1), 0).seq, 0);
    }
}
