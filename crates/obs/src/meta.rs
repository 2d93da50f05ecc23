//! Meta-events: Scrub's own telemetry as first-class Scrub events.
//!
//! ScrubCentral taps a `scrub_batch` event for every batch it receives
//! and a `scrub_window` event for every window it closes — through the
//! very same `log()` tap, agent, and reliable shipping path that
//! application events take. A ScrubQL query targeting
//! `@[Service in ScrubCentral]` therefore runs over Scrub's own
//! telemetry with the full language (selection, windows, group-by,
//! sampling) and the full cost discipline: when no meta query is live,
//! the tap is one relaxed atomic load.
//!
//! Flag fields are `long` (0/1) so plain ScrubQL comparisons
//! (`where scrub_batch.retransmit = 1`) select them.

use scrub_core::error::ScrubResult;
use scrub_core::event::ToEvent;
use scrub_core::schema::{EventTypeId, SchemaRegistry};
use scrub_core::scrub_event;

scrub_event! {
    /// One batch arriving at ScrubCentral (meta-event).
    pub struct ScrubBatchEvent("scrub_batch") {
        query: long,
        host: string,
        events: long,
        bytes: long,
        retransmit: long,
        duplicate: long,
    }
}

scrub_event! {
    /// One window closing at ScrubCentral (meta-event).
    pub struct ScrubWindowEvent("scrub_window") {
        query: long,
        window_start: long,
        rows: long,
        degraded: long,
    }
}

scrub_event! {
    /// One metric observation at ScrubCentral's telemetry tick
    /// (meta-event): the [`TelemetryStore`](crate::TelemetryStore) raw
    /// tier exposed as an event stream, so ScrubQL windowed group-by
    /// queries run over Scrub's own time series. `kind` is `counter` or
    /// `gauge`; `delta` is the change since the previous tick; `value`
    /// is the value at the tick. Every registered metric is a function
    /// of the seeded run, so meta-query results keep the determinism
    /// contract.
    pub struct ScrubMetricEvent("scrub_metric") {
        metric: string,
        kind: string,
        delta: long,
        value: long,
    }
}

/// Resolved type ids of the meta-events in a schema registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetaEvents {
    /// `scrub_batch` type id.
    pub batch: EventTypeId,
    /// `scrub_window` type id.
    pub window: EventTypeId,
    /// `scrub_metric` type id.
    pub metric: EventTypeId,
}

impl MetaEvents {
    /// Whether `id` is one of the meta-event types (used to break the
    /// feedback loop: batches carrying meta-events are not themselves
    /// tapped as `scrub_batch`).
    pub fn contains(&self, id: EventTypeId) -> bool {
        id == self.batch || id == self.window || id == self.metric
    }
}

/// Register (idempotently) the meta-event schemas and return their ids.
pub fn register_meta_events(registry: &SchemaRegistry) -> ScrubResult<MetaEvents> {
    Ok(MetaEvents {
        batch: registry.register(ScrubBatchEvent::schema())?,
        window: registry.register(ScrubWindowEvent::schema())?,
        metric: registry.register(ScrubMetricEvent::schema())?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent_and_resolves() {
        let reg = SchemaRegistry::new();
        let a = register_meta_events(&reg).unwrap();
        let b = register_meta_events(&reg).unwrap();
        assert_eq!(a, b);
        assert_eq!(reg.id_of("scrub_batch"), Some(a.batch));
        assert_eq!(reg.id_of("scrub_window"), Some(a.window));
        assert_eq!(reg.id_of("scrub_metric"), Some(a.metric));
        assert!(a.contains(a.batch));
        assert!(a.contains(a.metric));
        assert!(!a.contains(EventTypeId(u32::MAX)));
    }

    #[test]
    fn meta_schemas_have_queryable_fields() {
        let s = ScrubBatchEvent::schema();
        assert_eq!(s.name, "scrub_batch");
        assert!(s.fields.iter().any(|f| f.name == "retransmit"));
        let v = ScrubBatchEvent {
            query: 1,
            host: "central".into(),
            events: 10,
            bytes: 420,
            retransmit: 0,
            duplicate: 0,
        }
        .into_values();
        assert_eq!(v.len(), 6);
    }

    #[test]
    fn metric_stream_schema_is_queryable() {
        let s = ScrubMetricEvent::schema();
        assert_eq!(s.name, "scrub_metric");
        assert!(s.fields.iter().any(|f| f.name == "metric"));
        assert!(s.fields.iter().any(|f| f.name == "delta"));
        let v = ScrubMetricEvent {
            metric: "central.events_ingested".into(),
            kind: "counter".into(),
            delta: 12,
            value: 420,
        }
        .into_values();
        assert_eq!(v.len(), 4);
    }
}
