//! Reporting and measurement utilities shared by the experiments.

use std::fmt;

use scrub_agent::StatsSnapshot;
use scrub_core::event::{Event, RequestId, ToEvent};
use scrub_core::schema::EventTypeId;

/// A plain text table for experiment output.
#[derive(Debug, Clone, Default)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Create a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (stringified cells).
    pub fn row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(cell.len());
                } else {
                    widths.push(cell.len());
                }
            }
        }
        let write_row = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            for (i, cell) in cells.iter().enumerate() {
                let w = widths.get(i).copied().unwrap_or(cell.len());
                write!(f, "{cell:<w$}  ")?;
            }
            writeln!(f)
        };
        write_row(f, &self.headers)?;
        let total: usize = widths.iter().map(|w| w + 2).sum();
        writeln!(f, "{}", "-".repeat(total))?;
        for row in &self.rows {
            write_row(f, row)?;
        }
        Ok(())
    }
}

/// One experiment's output: what the paper predicts, what we measured, and
/// whether the shape held.
#[derive(Debug, Clone)]
pub struct Report {
    /// Experiment id (e.g. "E01").
    pub id: &'static str,
    /// Title (paper figure/table reference).
    pub title: &'static str,
    /// The paper's qualitative expectation.
    pub paper: &'static str,
    /// Output sections (tables, series, notes).
    pub body: String,
    /// Did the expectation hold?
    pub pass: bool,
    /// One-line measured summary.
    pub verdict: String,
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "==== {} — {} ====", self.id, self.title)?;
        writeln!(f, "PAPER:    {}", self.paper)?;
        writeln!(f)?;
        write!(f, "{}", self.body)?;
        writeln!(f)?;
        writeln!(f, "MEASURED: {}", self.verdict)?;
        writeln!(
            f,
            "VERDICT:  {}",
            if self.pass {
                "shape holds ✓"
            } else {
                "MISMATCH ✗"
            }
        )?;
        writeln!(f)
    }
}

/// q-th percentile of a slice (sorts a copy).
pub fn percentile(values: &[i64], q: f64) -> i64 {
    if values.is_empty() {
        return 0;
    }
    let mut v = values.to_vec();
    v.sort_unstable();
    v[((v.len() - 1) as f64 * q).round() as usize]
}

/// Sum of per-host agent snapshots.
pub fn sum_stats(stats: &[(String, StatsSnapshot)]) -> StatsSnapshot {
    let mut total = StatsSnapshot::default();
    for (_, s) in stats {
        total.events_seen += s.events_seen;
        total.events_active += s.events_active;
        total.predicates_evaluated += s.predicates_evaluated;
        total.events_matched += s.events_matched;
        total.events_sampled_out += s.events_sampled_out;
        total.events_shed += s.events_shed;
        total.events_shipped += s.events_shipped;
        total.fields_projected += s.fields_projected;
        total.bytes_shipped += s.bytes_shipped;
        total.batches_flushed += s.batches_flushed;
        total.retransmits += s.retransmits;
        total.bytes_retransmitted += s.bytes_retransmitted;
        total.acks_pending += s.acks_pending;
        total.retransmit_evictions += s.retransmit_evictions;
        total.trace_spans += s.trace_spans;
        total.trace_spans_shed += s.trace_spans_shed;
        total.events_behind_watermark += s.events_behind_watermark;
    }
    total
}

/// Representative full (unprojected) wire sizes per platform event type,
/// measured by encoding typical instances — what the logging baseline pays
/// per event.
pub struct FullEventSizes {
    /// `bid` event bytes.
    pub bid: usize,
    /// `auction` event bytes (participants list included).
    pub auction: usize,
    /// `exclusion` event bytes.
    pub exclusion: usize,
    /// `impression` event bytes.
    pub impression: usize,
    /// `click` event bytes.
    pub click: usize,
}

/// Measure representative full-event sizes.
pub fn full_event_sizes(auction_participants: usize) -> FullEventSizes {
    use adplatform::events::*;
    let sz = |values: Vec<scrub_core::value::Value>| {
        Event::new(EventTypeId(0), RequestId(1 << 48), 1_000_000, values).approx_bytes()
    };
    FullEventSizes {
        bid: sz(BidEvent {
            user_id: 123_456,
            exchange_id: 2,
            line_item_id: 1_023,
            campaign_id: 104,
            bid_price: 0.97,
            country: "us".into(),
            city: "san jose".into(),
        }
        .into_values()),
        auction: sz(AuctionEvent {
            line_item_ids: vec![1_000; auction_participants],
            bid_prices: vec![0.5; auction_participants],
            winner_line_item_id: 1_000,
            winner_price: 0.9,
            exchange_id: 2,
        }
        .into_values()),
        exclusion: sz(ExclusionEvent {
            line_item_id: 1_023,
            campaign_id: 104,
            reason: "targeting_country".into(),
            exchange_id: 2,
            publisher: "sports".into(),
        }
        .into_values()),
        impression: sz(ImpressionEvent {
            user_id: 123_456,
            line_item_id: 1_023,
            campaign_id: 104,
            exchange_id: 2,
            cost: 0.55,
            model: "A".into(),
        }
        .into_values()),
        click: sz(ClickEvent {
            user_id: 123_456,
            line_item_id: 1_023,
            campaign_id: 104,
            exchange_id: 2,
            model: "A".into(),
        }
        .into_values()),
    }
}

/// Full-log bytes for a production profile.
pub fn full_log_bytes(p: &adplatform::EventProduction, sizes: &FullEventSizes) -> u64 {
    p.bids * sizes.bid as u64
        + p.auctions * sizes.auction as u64
        + p.exclusions * sizes.exclusion as u64
        + p.impressions * sizes.impression as u64
        + p.clicks * sizes.click as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_basics() {
        let v = vec![5, 1, 9, 3, 7];
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&v, 0.5), 5);
        assert_eq!(percentile(&v, 1.0), 9);
        assert_eq!(percentile(&[], 0.5), 0);
    }

    #[test]
    fn table_renders() {
        let mut t = Table::new(&["a", "long_header"]);
        t.row(vec!["1".into(), "2".into()]);
        let s = t.to_string();
        assert!(s.contains("long_header"));
        assert!(s.contains("---"));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn full_sizes_sensible() {
        let s = full_event_sizes(30);
        assert!(s.auction > s.bid, "auction carries the participant list");
        assert!(s.exclusion > 20);
        let p = adplatform::EventProduction {
            bids: 10,
            auctions: 10,
            exclusions: 100,
            impressions: 5,
            clicks: 1,
        };
        assert!(full_log_bytes(&p, &s) > 100);
    }
}
