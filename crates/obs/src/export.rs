//! Prometheus-style text exposition of a [`MetricsSnapshot`].
//!
//! Experiments write this next to their JSON artifacts so a BENCH run
//! leaves a scrapeable telemetry surface, and `Registry::render_text`
//! exposes it live. The output is **stable**: metric names sort
//! lexicographically (the snapshot's `BTreeMap` order), histogram
//! buckets render in bound order, and values are plain integers — two
//! runs of the same seeded scenario produce byte-identical text, which
//! CI checks as a golden output.
//!
//! Metric names are sanitized to the Prometheus charset
//! (`[a-zA-Z0-9_:]`, no leading digit): Scrub's `central.batches` style
//! becomes `scrub_central_batches`.

use std::fmt::Write;

use crate::metrics::MetricsSnapshot;
use crate::tsdb::{Resolution, TelemetryStore};

/// Sanitize a Scrub metric name into the Prometheus charset, prefixed
/// with `scrub_` (which also guarantees no leading digit).
fn sanitize_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 6);
    out.push_str("scrub_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Render a snapshot in the Prometheus text exposition format, sorted
/// and deterministic. Counters and gauges render as single samples;
/// histograms render cumulative `_bucket{le=...}` samples plus `_sum`
/// and `_count`.
pub fn render_text(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# scrub metrics snapshot at sim t={} ms", snap.at_ms);
    for (name, value) in &snap.counters {
        let n = sanitize_name(name);
        let _ = writeln!(out, "# TYPE {n} counter");
        let _ = writeln!(out, "{n} {value}");
    }
    for (name, value) in &snap.gauges {
        let n = sanitize_name(name);
        let _ = writeln!(out, "# TYPE {n} gauge");
        let _ = writeln!(out, "{n} {value}");
    }
    for (name, h) in &snap.histograms {
        let n = sanitize_name(name);
        let _ = writeln!(out, "# TYPE {n} histogram");
        let mut cumulative = 0u64;
        for (i, &count) in h.buckets.iter().enumerate() {
            cumulative += count;
            match h.bounds.get(i) {
                Some(bound) => {
                    let _ = writeln!(out, "{n}_bucket{{le=\"{bound}\"}} {cumulative}");
                }
                None => {
                    let _ = writeln!(out, "{n}_bucket{{le=\"+Inf\"}} {cumulative}");
                }
            }
        }
        let _ = writeln!(out, "{n}_sum {}", h.sum);
        let _ = writeln!(out, "{n}_count {}", h.count);
        if h.dropped_merges > 0 {
            // first-class counter, not a footnote: silent telemetry
            // loss must itself be scrapeable and alertable
            let _ = writeln!(out, "# TYPE {n}_dropped_merges counter");
            let _ = writeln!(out, "{n}_dropped_merges {}", h.dropped_merges);
        }
    }
    out
}

/// Render a snapshot as [`render_text`] plus exemplar comment lines:
/// for every metric whose newest mid-tier rolled point carries an
/// exemplar trace rid, one OpenMetrics-style comment links the series
/// to `scrubql trace <rid>` and the max-delta interval that earned it.
/// Sorted, byte-stable, and still valid Prometheus exposition (the
/// links are comments).
pub fn render_text_with_exemplars(snap: &MetricsSnapshot, store: &TelemetryStore) -> String {
    let mut out = render_text(snap);
    let mut links = String::new();
    for name in store.metric_names() {
        let Some(point) = store.points(&name, Resolution::Mid).last().copied() else {
            continue;
        };
        if let Some(rid) = point.exemplar {
            let _ = writeln!(
                links,
                "# exemplar {} rid={rid} interval=({},{}] ms",
                sanitize_name(&name),
                point.max_from_ms,
                point.max_at_ms,
            );
        }
    }
    if !links.is_empty() {
        out.push_str("# exemplars: newest mid-tier rollup, max-delta interval\n");
        out.push_str(&links);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;

    #[test]
    fn names_sanitize_to_prometheus_charset() {
        assert_eq!(sanitize_name("central.batches"), "scrub_central_batches");
        assert_eq!(
            sanitize_name("agent.acks-pending"),
            "scrub_agent_acks_pending"
        );
        assert_eq!(sanitize_name("9weird name"), "scrub_9weird_name");
    }

    #[test]
    fn render_is_sorted_stable_and_complete() {
        let r = Registry::new();
        r.counter("central.batches").add(3);
        r.counter("agent.matched").add(7);
        r.gauge("agent.acks_pending").set(-2);
        let h = r.histogram_with("central.lat", &[10, 100]);
        h.record(5);
        h.record(50);
        h.record(5_000);

        let text = r.render_text(1_234);
        let again = r.render_text(1_234);
        assert_eq!(text, again, "rendering must be deterministic");

        // counters sort lexicographically: agent before central
        let a = text.find("scrub_agent_matched 7").unwrap();
        let c = text.find("scrub_central_batches 3").unwrap();
        assert!(a < c);
        assert!(text.contains("scrub_agent_acks_pending -2"));
        // histogram buckets are cumulative and end at +Inf
        assert!(text.contains("scrub_central_lat_bucket{le=\"10\"} 1"));
        assert!(text.contains("scrub_central_lat_bucket{le=\"100\"} 2"));
        assert!(text.contains("scrub_central_lat_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("scrub_central_lat_sum 5055"));
        assert!(text.contains("scrub_central_lat_count 3"));
        assert!(text.starts_with("# scrub metrics snapshot at sim t=1234 ms"));
        assert!(text.ends_with('\n'));
    }

    #[test]
    fn exemplar_links_append_as_comments() {
        let mut store = TelemetryStore::new(16, 2, 4, 4);
        let mk = |at_ms: i64, v: u64| {
            let mut s = MetricsSnapshot {
                at_ms,
                ..Default::default()
            };
            s.counters.insert("central.events_ingested".into(), v);
            s
        };
        store.record(mk(0, 0));
        store.record_with(mk(1_000, 50), |_, _, _| Some(7));
        store.record_with(mk(2_000, 60), |_, _, _| Some(7));
        let snap = store.latest().unwrap().clone();
        let text = render_text_with_exemplars(&snap, &store);
        assert!(text.starts_with(&render_text(&snap)), "base render first");
        assert!(
            text.contains("# exemplar scrub_central_events_ingested rid=7 interval=(0,1000] ms"),
            "{text}"
        );
        // byte-stable
        assert_eq!(text, render_text_with_exemplars(&snap, &store));
        // with no rolled exemplars, the render IS the base render
        let bare = TelemetryStore::new(4, 2, 4, 4);
        assert_eq!(render_text_with_exemplars(&snap, &bare), render_text(&snap));
    }

    #[test]
    fn dropped_merges_surface_as_counter() {
        let a = Registry::new();
        let mut snap = a.histogram_with("h", &[1]).snapshot();
        let foreign = Registry::new().histogram_with("h", &[2, 3]).snapshot();
        snap.merge(&foreign);
        let mut ms = MetricsSnapshot::default();
        ms.histograms.insert("h".into(), snap);
        let text = render_text(&ms);
        assert!(text.contains("# TYPE scrub_h_dropped_merges counter"));
        assert!(text.contains("scrub_h_dropped_merges 1"));
        // a clean histogram emits no dropped_merges sample at all
        let clean = render_text(&{
            let mut m = MetricsSnapshot::default();
            m.histograms
                .insert("h".into(), a.histogram_with("h", &[1]).snapshot());
            m
        });
        assert!(!clean.contains("dropped_merges"));
    }
}
