//! Per-query flight recorder: a bounded structured journal of
//! lifecycle events.
//!
//! `profile`/`trace`/`ledger` answer *how much* and *which event*; the
//! flight recorder answers *what happened to this query, in order*:
//! admission verdict, plan chosen, dispatch, window closes and
//! degradations, evictions, retransmit episodes, alert firings — each
//! entry carrying the same provenance links as the alert log (host,
//! ledger column, trace rid). The server journals the control-plane
//! events and ScrubCentral journals the data-plane ones; a query's
//! full timeline is the merge of the two, rendered by
//! `scrubql timeline <qid>` and exportable as JSON.
//!
//! Bounded like every other obs structure: at capacity the oldest
//! entry is evicted and counted. High-frequency events (retransmits)
//! coalesce into episodes — consecutive entries of the same kind with
//! the same detail key extend a `(xN, until t=..)` run instead of
//! appending — so a retransmit storm costs one entry, not hundreds.
//! Everything is sim-time stamped and deterministic, covered by the
//! same golden and 1-vs-N differential suites as the metrics renders.

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

use crate::alert::AlertProvenance;

/// Per-query flight-recorder capacity (lifecycle entries; oldest evicted
/// and counted beyond it).
pub const FLIGHT_RECORDER_CAP: usize = 256;

/// Lifecycle event kinds, in rough pipeline order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FlightEventKind {
    /// Admission control verdict for the submitted query.
    Admitted,
    /// Plan compiled and chosen (host plans + central plan summary).
    PlanChosen,
    /// Host plans installed and the query started.
    Dispatched,
    /// This query was evicted to admit a higher-priority arrival.
    Evicted,
    /// A tumbling window closed and emitted rows.
    WindowClose,
    /// A window closed in degraded mode (dead host contributing).
    WindowDegrade,
    /// An agent resent one or more batches (coalesced episode).
    Retransmit,
    /// A host serving this query was declared dead.
    HostDead,
    /// An alert implicating this query fired.
    AlertFired,
    /// An alert implicating this query cleared.
    AlertCleared,
    /// The query was stopped (span elapsed or cancelled).
    Stopped,
    /// Final summary received; the query is done.
    Completed,
}

impl FlightEventKind {
    /// Fixed-width render label.
    pub fn label(&self) -> &'static str {
        match self {
            FlightEventKind::Admitted => "admitted",
            FlightEventKind::PlanChosen => "plan",
            FlightEventKind::Dispatched => "dispatched",
            FlightEventKind::Evicted => "evicted",
            FlightEventKind::WindowClose => "window_close",
            FlightEventKind::WindowDegrade => "window_degrade",
            FlightEventKind::Retransmit => "retransmit",
            FlightEventKind::HostDead => "host_dead",
            FlightEventKind::AlertFired => "alert_fired",
            FlightEventKind::AlertCleared => "alert_cleared",
            FlightEventKind::Stopped => "stopped",
            FlightEventKind::Completed => "completed",
        }
    }
}

/// One journal entry. `count`/`until_ms` describe a coalesced run:
/// `count` occurrences between `at_ms` and `until_ms` inclusive.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlightEvent {
    /// Sim time of the first occurrence.
    pub at_ms: i64,
    /// Sim time of the last coalesced occurrence (== `at_ms` for one).
    pub until_ms: i64,
    /// Occurrences coalesced into this entry.
    pub count: u64,
    /// What happened.
    pub kind: FlightEventKind,
    /// Deterministic human detail (also the coalescing key).
    pub detail: String,
    /// Evidence links (host, ledger column, trace rid, query).
    pub provenance: AlertProvenance,
}

impl FlightEvent {
    /// One deterministic timeline line (sim time only).
    pub fn render(&self) -> String {
        let mut line = format!(
            "t={:>8} ms {:<14} {}",
            self.at_ms,
            self.kind.label(),
            self.detail
        );
        if self.count > 1 {
            line.push_str(&format!(" (x{}, until t={} ms)", self.count, self.until_ms));
        }
        let prov = self.provenance.render();
        if !prov.is_empty() {
            line.push_str("  ");
            line.push_str(&prov);
        }
        line
    }

    /// Manual JSON object render (no serde_json dependency here);
    /// stable key order, numbers and escaped strings only.
    fn render_json(&self) -> String {
        fn esc(s: &str) -> String {
            s.replace('\\', "\\\\").replace('"', "\\\"")
        }
        fn opt_num(v: Option<u64>) -> String {
            v.map(|v| v.to_string()).unwrap_or_else(|| "null".into())
        }
        fn opt_str(v: &Option<String>) -> String {
            v.as_ref()
                .map(|v| format!("\"{}\"", esc(v)))
                .unwrap_or_else(|| "null".into())
        }
        format!(
            "{{\"at_ms\": {}, \"until_ms\": {}, \"count\": {}, \"kind\": \"{}\", \
             \"detail\": \"{}\", \"provenance\": {{\"query_id\": {}, \"host\": {}, \
             \"ledger_column\": {}, \"trace_rid\": {}}}}}",
            self.at_ms,
            self.until_ms,
            self.count,
            self.kind.label(),
            esc(&self.detail),
            opt_num(self.provenance.query_id),
            opt_str(&self.provenance.host),
            opt_str(&self.provenance.ledger_column),
            opt_num(self.provenance.trace_rid),
        )
    }
}

/// Bounded journal of one query's lifecycle events.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FlightRecorder {
    /// Query this journal belongs to.
    pub query_id: u64,
    cap: usize,
    events: VecDeque<FlightEvent>,
    /// Entries evicted at capacity.
    pub dropped: u64,
}

impl FlightRecorder {
    /// Empty recorder for `query_id` retaining up to `cap` entries
    /// (min 4 — a journal that cannot hold admission, plan, dispatch
    /// and completion is useless).
    pub fn new(query_id: u64, cap: usize) -> Self {
        FlightRecorder {
            query_id,
            cap: cap.max(4),
            events: VecDeque::new(),
            dropped: 0,
        }
    }

    /// Journal an entry implicating this recorder's query and, when given,
    /// a host and a loss-ledger column. A retransmit with the same detail
    /// as the newest entry extends that entry's run (`count += 1`,
    /// `until_ms = at_ms`) instead of appending, so a storm costs one entry.
    pub fn journal(
        &mut self,
        at_ms: i64,
        kind: FlightEventKind,
        detail: impl Into<String>,
        host: Option<&str>,
        ledger_column: Option<&str>,
    ) {
        let detail = detail.into();
        if let Some(last) = self.events.back_mut().filter(|last| {
            kind == FlightEventKind::Retransmit && last.kind == kind && last.detail == detail
        }) {
            last.count += 1;
            last.until_ms = at_ms;
            return;
        }
        let provenance = AlertProvenance::implicating(self.query_id, host, ledger_column);
        self.record(at_ms, kind, detail, provenance);
    }

    /// Append one entry, evicting the oldest at capacity.
    pub(crate) fn record(
        &mut self,
        at_ms: i64,
        kind: FlightEventKind,
        detail: impl Into<String>,
        provenance: AlertProvenance,
    ) {
        if self.events.len() == self.cap {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(FlightEvent {
            at_ms,
            until_ms: at_ms,
            count: 1,
            kind,
            detail: detail.into(),
            provenance,
        });
    }

    /// Entries currently retained, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &FlightEvent> {
        self.events.iter()
    }

    /// Number of retained entries.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing was journaled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// Merge journals from several sources (server + central) into one
/// timeline, ordered by `(at_ms, source index, journal order)` — a
/// stable merge, so the render is byte-identical across runs.
pub fn merge_timelines(sources: &[&FlightRecorder]) -> Vec<FlightEvent> {
    let mut tagged: Vec<(i64, usize, usize, &FlightEvent)> = Vec::new();
    for (si, rec) in sources.iter().enumerate() {
        for (ei, ev) in rec.events().enumerate() {
            tagged.push((ev.at_ms, si, ei, ev));
        }
    }
    tagged.sort_by_key(|&(at, si, ei, _)| (at, si, ei));
    tagged.into_iter().map(|(_, _, _, ev)| ev.clone()).collect()
}

/// Byte-stable multi-line render of a merged timeline.
pub fn render_timeline(query_id: u64, events: &[FlightEvent], dropped: u64) -> String {
    let mut out = format!(
        "timeline for query {}: {} event(s), {} dropped\n",
        query_id,
        events.len(),
        dropped
    );
    for ev in events {
        out.push_str("  ");
        out.push_str(&ev.render());
        out.push('\n');
    }
    out
}

/// JSON-array render of a merged timeline (stable key order, one
/// object per line).
pub fn render_timeline_json(query_id: u64, events: &[FlightEvent]) -> String {
    let mut out = format!("{{\"query_id\": {query_id}, \"events\": [\n");
    for (i, ev) in events.iter().enumerate() {
        out.push_str("  ");
        out.push_str(&ev.render_json());
        out.push_str(if i + 1 < events.len() { ",\n" } else { "\n" });
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coalescing_merges_same_kind_same_detail_runs() {
        let mut r = FlightRecorder::new(1, 16);
        r.record(
            0,
            FlightEventKind::Dispatched,
            "3 host(s)",
            AlertProvenance::default(),
        );
        let retransmit = FlightEventKind::Retransmit;
        for t in [1_000, 1_200, 1_400] {
            r.journal(t, retransmit, "host=h1", Some("h1"), None);
        }
        r.journal(2_000, retransmit, "host=h2", Some("h2"), None);
        r.journal(2_500, retransmit, "host=h1", Some("h1"), None);
        // only retransmits coalesce
        r.journal(3_000, FlightEventKind::WindowClose, "w", None, None);
        r.journal(3_000, FlightEventKind::WindowClose, "w", None, None);
        let evs: Vec<&FlightEvent> = r.events().collect();
        assert_eq!(evs.len(), 6, "h1 run coalesced, h2 and the later h1 split");
        assert_eq!(evs[1].count, 3);
        assert_eq!(evs[1].at_ms, 1_000);
        assert_eq!(evs[1].until_ms, 1_400);
        assert!(evs[1].render().contains("(x3, until t=1400 ms)"));
    }

    #[test]
    fn recorder_is_bounded_and_counts_drops() {
        let mut r = FlightRecorder::new(1, 4);
        for i in 0..10i64 {
            r.record(
                i * 100,
                FlightEventKind::WindowClose,
                format!("w{i}"),
                AlertProvenance::default(),
            );
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.dropped, 6);
        assert_eq!(r.events().next().unwrap().detail, "w6");
    }

    #[test]
    fn merge_is_stable_by_time_then_source() {
        let mut server = FlightRecorder::new(1, 8);
        server.record(
            0,
            FlightEventKind::Admitted,
            "verdict=Admitted",
            AlertProvenance::default(),
        );
        server.record(
            5_000,
            FlightEventKind::Completed,
            "rows=3",
            AlertProvenance::default(),
        );
        let mut central = FlightRecorder::new(1, 8);
        central.record(
            5_000,
            FlightEventKind::WindowClose,
            "rows=3",
            AlertProvenance::default(),
        );
        let merged = merge_timelines(&[&server, &central]);
        let kinds: Vec<FlightEventKind> = merged.iter().map(|e| e.kind).collect();
        // same tick: server (source 0) sorts before central (source 1)
        assert_eq!(
            kinds,
            vec![
                FlightEventKind::Admitted,
                FlightEventKind::Completed,
                FlightEventKind::WindowClose
            ]
        );
        let text = render_timeline(1, &merged, 0);
        assert_eq!(
            text,
            render_timeline(1, &merge_timelines(&[&server, &central]), 0)
        );
        assert!(text.starts_with("timeline for query 1: 3 event(s)"));
    }

    #[test]
    fn json_render_is_valid_and_stable() {
        let mut r = FlightRecorder::new(7, 8);
        r.record(
            1_000,
            FlightEventKind::AlertFired,
            "rule \"host_dead\"",
            AlertProvenance {
                query_id: Some(7),
                host: Some("h\\1".into()),
                ledger_column: Some("host_dead".into()),
                trace_rid: None,
            },
        );
        let evs: Vec<FlightEvent> = r.events().cloned().collect();
        let json = render_timeline_json(7, &evs);
        // escaped quotes and backslashes, null for absent links
        assert!(json.contains("rule \\\"host_dead\\\""));
        assert!(json.contains("\"host\": \"h\\\\1\""));
        assert!(json.contains("\"trace_rid\": null"));
        assert!(json.contains("\"query_id\": 7"));
        assert_eq!(json, render_timeline_json(7, &evs));
    }
}
