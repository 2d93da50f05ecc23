//! Per-query execution profiles.
//!
//! ScrubCentral's executor for a query is the one writer of its
//! [`QueryProfile`]: it folds every batch header it ingests, notes every
//! duplicate, and books window closes as they happen — per *batch* and per
//! *window*, never per event, so the cost rides the existing control flow.
//! Every other per-query figure (the end-of-query summary, `EXPLAIN
//! ANALYZE`'s host-side operators, the loss ledger) is derived from this
//! one record. The profile is plain data: serde-able and cloneable, so
//! `scrubql`'s `profile <qid>` and experiment epilogues read one struct.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::metrics::{HistogramSnapshot, DEFAULT_LATENCY_BOUNDS_MS};

/// Cumulative tap counters for one event type on one host, as of the
/// highest-seq batch received. A join query runs one subscription — one
/// set of counters — per FROM type on each host, so counters are keyed by
/// type and max-merged per type; summing across types (never max across
/// types) gives honest host totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TypeCounters {
    /// Events that matched selection (cumulative).
    pub tapped: u64,
    /// Matched events that survived sampling and shedding (cumulative).
    pub selected: u64,
    /// Matched events dropped by load shedding (cumulative).
    pub shed: u64,
    /// Matched events dropped by the per-host CPU budget tracker
    /// (cumulative).
    #[serde(default)]
    pub budget_shed: u64,
    /// Events the subscription's selection looked at (cumulative).
    #[serde(default)]
    pub seen: u64,
    /// Bytes the subscription shipped in first-transmission batches
    /// (cumulative).
    #[serde(default)]
    pub bytes: u64,
}

impl TypeCounters {
    /// Fold a newer header: counters are cumulative and monotonic per
    /// subscription, but batches can be reordered in flight, so each keeps
    /// its max rather than the last writer's value.
    fn max_merge(&mut self, header: &TypeCounters) {
        self.tapped = self.tapped.max(header.tapped);
        self.selected = self.selected.max(header.selected);
        self.shed = self.shed.max(header.shed);
        self.budget_shed = self.budget_shed.max(header.budget_shed);
        self.seen = self.seen.max(header.seen);
        self.bytes = self.bytes.max(header.bytes);
    }
}

/// What one host contributed to one query.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HostProfile {
    /// Events ingested at central from this host (post-dedup).
    pub events: u64,
    /// Events that matched selection on the host: sum over event types
    /// of the per-type cumulative counters in `by_type`.
    pub tapped: u64,
    /// Matched events selected for shipment (survived sampling and
    /// shedding); sum over `by_type`.
    pub selected: u64,
    /// Matched events dropped by load shedding; sum over `by_type`.
    pub shed: u64,
    /// Matched events dropped by the per-host CPU budget tracker; sum
    /// over `by_type`.
    #[serde(default)]
    pub budget_shed: u64,
    /// Per-event-type cumulative header counters (max-merged per type —
    /// the counters on a batch are the subscription's own monotone
    /// snapshot, so the highest-seq batch carries the truth).
    #[serde(default)]
    pub by_type: BTreeMap<u32, TypeCounters>,
    /// Distinct batches ingested (post-dedup).
    pub batches: u64,
    /// Batches that arrived marked as retransmissions.
    pub retransmitted_batches: u64,
    /// Bytes that arrived on first-attempt batches.
    pub bytes_first_sent: u64,
    /// Bytes that arrived on retransmitted batches.
    pub bytes_retransmitted: u64,
    /// Events that arrived again on duplicate batch copies and were
    /// discarded by dedup (informational: the first copy was counted in
    /// `events`, so these are not missing data).
    #[serde(default)]
    pub duplicate_events: u64,
    /// Delivered events whose window closed degraded (a subset of
    /// `events`).
    #[serde(default)]
    pub window_degraded: u64,
    /// The host is currently suspected dead.
    #[serde(default)]
    pub suspected_dead: bool,
}

/// Execution profile of one query, written by its executor at ScrubCentral.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryProfile {
    /// The query this profile describes.
    pub query_id: u64,
    /// Per-host contributions.
    pub hosts: BTreeMap<String, HostProfile>,
    /// Distinct batches ingested (across hosts, post-dedup).
    pub batches_ingested: u64,
    /// Batches discarded as duplicate retransmissions.
    pub batches_duplicate: u64,
    /// Bytes received on first-attempt batches.
    pub bytes_first_sent: u64,
    /// Bytes received on retransmitted batches.
    pub bytes_retransmitted: u64,
    /// Windows the executor opened (closed + currently open).
    pub windows_opened: u64,
    /// Windows closed and rendered so far.
    pub windows_closed: u64,
    /// Windows whose rows were emitted while a targeted host was
    /// suspected dead.
    pub windows_degraded: u64,
    /// Join/group state rows currently buffered (gauge, refreshed on
    /// every watermark advance).
    pub join_rows_held: u64,
    /// Result rows emitted.
    pub rows_emitted: u64,
    /// Rows dropped by the `max_groups` bound on group state, counted when
    /// the window that dropped them closes.
    #[serde(default)]
    pub groups_overflow: u64,
    /// Columnar frames that failed to decode; their events were dropped.
    #[serde(default)]
    pub decode_failures: u64,
    /// Batch ingest latency: newest event timestamp in a batch to its
    /// arrival at central, on the sim clock.
    pub ingest_latency_ms: HistogramSnapshot,
}

impl QueryProfile {
    /// Fresh profile for `query_id`.
    pub fn new(query_id: u64) -> Self {
        QueryProfile {
            query_id,
            hosts: BTreeMap::new(),
            batches_ingested: 0,
            batches_duplicate: 0,
            bytes_first_sent: 0,
            bytes_retransmitted: 0,
            windows_opened: 0,
            windows_closed: 0,
            windows_degraded: 0,
            join_rows_held: 0,
            rows_emitted: 0,
            groups_overflow: 0,
            decode_failures: 0,
            ingest_latency_ms: HistogramSnapshot {
                bounds: DEFAULT_LATENCY_BOUNDS_MS.to_vec(),
                buckets: vec![0; DEFAULT_LATENCY_BOUNDS_MS.len() + 1],
                count: 0,
                sum: 0,
                dropped_merges: 0,
            },
        }
    }

    /// The host's entry; its name is copied only the first time.
    fn host_mut(&mut self, host: &str) -> &mut HostProfile {
        if !self.hosts.contains_key(host) {
            self.hosts.insert(host.to_string(), HostProfile::default());
        }
        self.hosts.get_mut(host).expect("inserted above")
    }

    /// Record a deduplicated batch of `events` events and `bytes` wire
    /// bytes. `type_id` keys the cumulative header counters: a join query
    /// has one set per FROM type, and only same-type counters may be
    /// max-merged.
    pub fn observe_batch(
        &mut self,
        host: &str,
        type_id: u32,
        header: &TypeCounters,
        bytes: u64,
        events: u64,
        retransmit: bool,
    ) {
        self.batches_ingested += 1;
        if retransmit {
            self.bytes_retransmitted += bytes;
        } else {
            self.bytes_first_sent += bytes;
        }
        let h = self.host_mut(host);
        h.events += events;
        h.by_type.entry(type_id).or_default().max_merge(header);
        h.tapped = h.by_type.values().map(|t| t.tapped).sum();
        h.selected = h.by_type.values().map(|t| t.selected).sum();
        h.shed = h.by_type.values().map(|t| t.shed).sum();
        h.budget_shed = h.by_type.values().map(|t| t.budget_shed).sum();
        h.batches += 1;
        if retransmit {
            h.retransmitted_batches += 1;
            h.bytes_retransmitted += bytes;
        } else {
            h.bytes_first_sent += bytes;
        }
    }

    /// Record a duplicate batch copy from `host` carrying `events`
    /// already-ingested events (discarded, but acked).
    pub fn observe_duplicate(&mut self, host: &str, events: u64) {
        self.batches_duplicate += 1;
        self.host_mut(host).duplicate_events += events;
    }

    /// Acks central sent back for this query's batches: it acks every
    /// batch, and each one of a live query is either fresh or a duplicate.
    pub fn batches_acked(&self) -> u64 {
        self.batches_ingested + self.batches_duplicate
    }

    /// Record `closed` windows closing, `degraded` of them while a
    /// targeted host was suspected dead.
    pub fn observe_windows_closed(&mut self, closed: u64, degraded: u64) {
        self.windows_closed += closed;
        self.windows_degraded += degraded;
    }

    /// Refresh the live state gauges after a watermark advance.
    pub fn observe_state(&mut self, open_windows: u64, join_rows_held: u64) {
        self.windows_opened = self.windows_closed + open_windows;
        self.join_rows_held = join_rows_held;
    }

    /// Record one batch's ingest latency (ms, clamped at zero).
    pub fn observe_latency(&mut self, v: i64) {
        let v = v.max(0);
        let h = &mut self.ingest_latency_ms;
        let idx = h
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(h.bounds.len());
        h.buckets[idx] += 1;
        h.count += 1;
        h.sum += v as u64;
    }

    /// Events tapped across hosts (sum of cumulative per-host counters).
    pub fn total_tapped(&self) -> u64 {
        self.hosts.values().map(|h| h.tapped).sum()
    }

    /// Events selected across hosts.
    pub fn total_selected(&self) -> u64 {
        self.hosts.values().map(|h| h.selected).sum()
    }

    /// Events shed across hosts.
    pub fn total_shed(&self) -> u64 {
        self.hosts.values().map(|h| h.shed).sum()
    }

    /// Events budget-shed across hosts.
    pub fn total_budget_shed(&self) -> u64 {
        self.hosts.values().map(|h| h.budget_shed).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header(tapped: u64, selected: u64) -> TypeCounters {
        TypeCounters {
            tapped,
            selected,
            ..Default::default()
        }
    }

    #[test]
    fn batches_split_first_vs_retransmitted_bytes() {
        let mut p = QueryProfile::new(7);
        p.observe_batch("h1", 0, &header(10, 10), 100, 10, false);
        p.observe_latency(12);
        p.observe_batch("h1", 0, &header(20, 20), 100, 10, true);
        p.observe_latency(800);
        p.observe_duplicate("h1", 10);
        assert_eq!(p.bytes_first_sent, 100);
        assert_eq!(p.bytes_retransmitted, 100);
        assert_eq!(p.batches_ingested, 2);
        assert_eq!(p.batches_duplicate, 1);
        assert_eq!(p.batches_acked(), 3);
        let h = &p.hosts["h1"];
        assert_eq!(h.tapped, 20); // cumulative counter max-merged
        assert_eq!(h.events, 20);
        assert_eq!(h.retransmitted_batches, 1);
        assert_eq!(h.duplicate_events, 10);
        assert_eq!(p.ingest_latency_ms.count, 2);
        assert!(p.ingest_latency_ms.p99().unwrap() >= 800);
    }

    #[test]
    fn windows_and_state_gauges() {
        let mut p = QueryProfile::new(1);
        p.observe_windows_closed(3, 1);
        p.observe_state(2, 40);
        assert_eq!(p.windows_closed, 3);
        assert_eq!(p.windows_degraded, 1);
        assert_eq!(p.windows_opened, 5);
        assert_eq!(p.join_rows_held, 40);
    }

    #[test]
    fn join_queries_sum_counters_across_types_not_max() {
        // A join has one subscription (one cumulative counter stream) per
        // FROM type; the host totals must be the sum of the per-type maxes,
        // never a max across types.
        let mut p = QueryProfile::new(9);
        p.observe_batch("h1", 1, &header(10, 10), 100, 10, false);
        p.observe_batch("h1", 2, &header(4, 4), 80, 4, false);
        p.observe_batch("h1", 1, &header(15, 15), 60, 5, false);
        // a reordered, older batch of type 2 keeps the newer counters
        p.observe_batch("h1", 2, &header(3, 3), 30, 0, false);
        let h = &p.hosts["h1"];
        assert_eq!(h.by_type.len(), 2);
        assert_eq!(h.by_type[&1].tapped, 15);
        assert_eq!(h.by_type[&2].tapped, 4);
        assert_eq!(h.tapped, 19);
        assert_eq!(h.selected, 19);
        assert_eq!(h.events, 19);
    }

    #[test]
    fn profile_serializes() {
        let mut p = QueryProfile::new(3);
        p.observe_batch("h", 0, &header(1, 1), 10, 1, false);
        let json = serde_json::to_string(&p).unwrap();
        let back: QueryProfile = serde_json::from_str(&json).unwrap();
        assert_eq!(p, back);
    }
}
