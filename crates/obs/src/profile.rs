//! Per-query execution profiles.
//!
//! ScrubCentral assembles one [`QueryProfile`] per live query from the
//! batch stream it already handles — profiling is per *batch*, not per
//! event, so the cost rides the existing control flow. The profile is
//! plain data: serde-able, cloneable, and mergeable across a central
//! cluster, so `scrubql`'s `profile <qid>` and experiment epilogues can
//! read one struct wherever the query ran.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::metrics::{HistogramSnapshot, DEFAULT_LATENCY_BOUNDS_MS};

/// Cumulative tap counters for one event type on one host, as of the
/// highest-seq batch received. A join query runs one subscription — one
/// counter triple — per FROM type on each host, so triples are keyed by
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
    /// Per-event-type cumulative counter triples (max-merged per type —
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
}

impl HostProfile {
    /// Refresh the summed totals after a `by_type` update.
    fn recompute_totals(&mut self) {
        self.tapped = self.by_type.values().map(|t| t.tapped).sum();
        self.selected = self.by_type.values().map(|t| t.selected).sum();
        self.shed = self.by_type.values().map(|t| t.shed).sum();
        self.budget_shed = self.by_type.values().map(|t| t.budget_shed).sum();
    }

    fn merge(&mut self, other: &HostProfile) {
        self.events += other.events;
        // cumulative tap counters: both sides saw the same host counters,
        // keep the larger per type (a cluster never splits one host's
        // batches for one query across centrals, but max is safe either
        // way)
        for (ty, oc) in &other.by_type {
            let t = self.by_type.entry(*ty).or_default();
            t.tapped = t.tapped.max(oc.tapped);
            t.selected = t.selected.max(oc.selected);
            t.shed = t.shed.max(oc.shed);
            t.budget_shed = t.budget_shed.max(oc.budget_shed);
        }
        self.recompute_totals();
        self.batches += other.batches;
        self.retransmitted_batches += other.retransmitted_batches;
        self.bytes_first_sent += other.bytes_first_sent;
        self.bytes_retransmitted += other.bytes_retransmitted;
        self.duplicate_events += other.duplicate_events;
    }
}

/// Execution profile of one query, kept live by ScrubCentral.
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
    /// Acks central sent back (covers duplicates too).
    pub batches_acked: u64,
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
            batches_acked: 0,
            bytes_first_sent: 0,
            bytes_retransmitted: 0,
            windows_opened: 0,
            windows_closed: 0,
            windows_degraded: 0,
            join_rows_held: 0,
            rows_emitted: 0,
            ingest_latency_ms: HistogramSnapshot {
                bounds: DEFAULT_LATENCY_BOUNDS_MS.to_vec(),
                buckets: vec![0; DEFAULT_LATENCY_BOUNDS_MS.len() + 1],
                count: 0,
                sum: 0,
                dropped_merges: 0,
            },
        }
    }

    /// Record a deduplicated batch arrival. `type_id` keys the cumulative
    /// counter triple: a join query has one triple per FROM type, and
    /// only same-type counters may be max-merged.
    #[allow(clippy::too_many_arguments)]
    pub fn observe_batch(
        &mut self,
        host: &str,
        type_id: u32,
        bytes: u64,
        events: u64,
        tapped: u64,
        selected: u64,
        shed: u64,
        budget_shed: u64,
        retransmit: bool,
        latency_ms: Option<i64>,
    ) {
        self.batches_ingested += 1;
        let h = self.hosts.entry(host.to_string()).or_default();
        h.events += events;
        let t = h.by_type.entry(type_id).or_default();
        t.tapped = t.tapped.max(tapped);
        t.selected = t.selected.max(selected);
        t.shed = t.shed.max(shed);
        t.budget_shed = t.budget_shed.max(budget_shed);
        h.recompute_totals();
        h.batches += 1;
        if retransmit {
            h.retransmitted_batches += 1;
            h.bytes_retransmitted += bytes;
            self.bytes_retransmitted += bytes;
        } else {
            h.bytes_first_sent += bytes;
            self.bytes_first_sent += bytes;
        }
        if let Some(lat) = latency_ms {
            self.record_latency(lat);
        }
    }

    /// Record a duplicate batch copy from `host` carrying `events`
    /// already-ingested events (discarded, but acked).
    pub fn observe_duplicate(&mut self, host: &str, events: u64) {
        self.batches_duplicate += 1;
        self.hosts
            .entry(host.to_string())
            .or_default()
            .duplicate_events += events;
    }

    /// Record an ack sent back toward the host.
    pub fn observe_ack(&mut self) {
        self.batches_acked += 1;
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

    /// Record result rows leaving central.
    pub fn observe_rows(&mut self, n: u64) {
        self.rows_emitted += n;
    }

    fn record_latency(&mut self, v: i64) {
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

    /// Merge a profile shard from another central node.
    pub fn merge(&mut self, other: &QueryProfile) {
        debug_assert_eq!(self.query_id, other.query_id);
        for (host, hp) in &other.hosts {
            self.hosts.entry(host.clone()).or_default().merge(hp);
        }
        self.batches_ingested += other.batches_ingested;
        self.batches_duplicate += other.batches_duplicate;
        self.batches_acked += other.batches_acked;
        self.bytes_first_sent += other.bytes_first_sent;
        self.bytes_retransmitted += other.bytes_retransmitted;
        self.windows_opened += other.windows_opened;
        self.windows_closed += other.windows_closed;
        self.windows_degraded += other.windows_degraded;
        self.join_rows_held += other.join_rows_held;
        self.rows_emitted += other.rows_emitted;
        self.ingest_latency_ms.merge(&other.ingest_latency_ms);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batches_split_first_vs_retransmitted_bytes() {
        let mut p = QueryProfile::new(7);
        p.observe_batch("h1", 0, 100, 10, 10, 10, 0, 0, false, Some(12));
        p.observe_ack();
        p.observe_batch("h1", 0, 100, 10, 20, 20, 0, 0, true, Some(800));
        p.observe_ack();
        p.observe_duplicate("h1", 10);
        p.observe_ack();
        assert_eq!(p.bytes_first_sent, 100);
        assert_eq!(p.bytes_retransmitted, 100);
        assert_eq!(p.batches_ingested, 2);
        assert_eq!(p.batches_duplicate, 1);
        assert_eq!(p.batches_acked, 3);
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
    fn profiles_merge_across_centrals() {
        let mut a = QueryProfile::new(1);
        a.observe_batch("h1", 0, 50, 5, 5, 5, 0, 0, false, Some(10));
        let mut b = QueryProfile::new(1);
        b.observe_batch("h2", 0, 70, 7, 7, 7, 0, 0, true, Some(20));
        b.observe_windows_closed(1, 1);
        a.merge(&b);
        assert_eq!(a.hosts.len(), 2);
        assert_eq!(a.bytes_first_sent, 50);
        assert_eq!(a.bytes_retransmitted, 70);
        assert_eq!(a.windows_degraded, 1);
        assert_eq!(a.ingest_latency_ms.count, 2);
        assert_eq!(a.total_tapped(), 12);
    }

    #[test]
    fn join_queries_sum_counters_across_types_not_max() {
        // A join has one subscription (one cumulative counter stream) per
        // FROM type; the host totals must be the sum of the per-type maxes,
        // never a max across types.
        let mut p = QueryProfile::new(9);
        p.observe_batch("h1", 1, 100, 10, 10, 10, 0, 0, false, None);
        p.observe_batch("h1", 2, 80, 4, 4, 4, 0, 0, false, None);
        p.observe_batch("h1", 1, 60, 5, 15, 15, 0, 0, false, None);
        let h = &p.hosts["h1"];
        assert_eq!(h.by_type.len(), 2);
        assert_eq!(h.by_type[&1].tapped, 15);
        assert_eq!(h.by_type[&2].tapped, 4);
        assert_eq!(h.tapped, 19);
        assert_eq!(h.selected, 19);
        assert_eq!(h.events, 19);

        // cross-central merge stays per-type as well
        let mut other = QueryProfile::new(9);
        other.observe_batch("h1", 2, 30, 2, 6, 6, 0, 0, false, None);
        p.merge(&other);
        let h = &p.hosts["h1"];
        assert_eq!(h.by_type[&2].tapped, 6);
        assert_eq!(h.tapped, 21);
    }

    #[test]
    fn profile_serializes() {
        let mut p = QueryProfile::new(3);
        p.observe_batch("h", 0, 10, 1, 1, 1, 0, 0, false, None);
        let json = serde_json::to_string(&p).unwrap();
        let back: QueryProfile = serde_json::from_str(&json).unwrap();
        assert_eq!(p, back);
    }
}
