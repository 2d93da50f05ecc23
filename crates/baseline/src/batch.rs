//! Offline batch query execution over full logs — the Hadoop-style
//! alternative Scrub replaces (§8.1), and, conveniently, an *oracle*: it
//! executes the same compiled query over the complete event stream, so
//! tests can compare the live sampled/windowed pipeline against ground
//! truth.

use std::borrow::Cow;

use scrub_agent::{BatchPayload, EventBatch};
use scrub_central::{QueryExecutor, QuerySummary, ResultRow};
use scrub_core::event::Event;
use scrub_core::plan::{CompiledQuery, HostPlan};
use scrub_core::value::Value;

/// Run a compiled query over a complete event log (all hosts' events,
/// unsampled). Host plans are applied first (selection/projection — as the
/// batch job's map phase), then the central plan (join/group/aggregate —
/// the reduce phase). Returns all result rows plus the summary.
pub fn run_batch(cq: &CompiledQuery, events: &[Event]) -> (Vec<ResultRow>, QuerySummary) {
    let mut exec = QueryExecutor::new(cq.central.clone(), 0);
    // one batch per event type: counters are per (host, type) subscription
    for plan in &cq.host_plans {
        let mut shipped: Vec<Event> = Vec::new();
        let mut matched = 0u64;
        for ev in events.iter().filter(|e| e.type_id == plan.type_id) {
            if let Some(projected) = apply_host_plan(plan, ev) {
                matched += 1;
                shipped.push(projected);
            }
        }
        exec.ingest(EventBatch {
            seq: 0,
            attempt: 0,
            seq_floor: 0,
            watermark_ms: None,
            query_id: cq.query_id,
            type_id: plan.type_id,
            host: "batch".into(),
            payload: BatchPayload::Rows(shipped),
            matched,
            sampled: matched,
            shed: 0,
            budget_shed: 0,
            seen: matched,
            bytes: 0,
            spans: vec![],
        });
    }
    let (mut rows, summary) = {
        let rows = exec.advance(i64::MAX / 4);
        let (more, summary) = exec.finish();
        let mut all = rows;
        all.extend(more);
        (all, summary)
    };
    rows.sort_by_key(|r| (r.window_start_ms, row_key(r)));
    (rows, summary)
}

fn row_key(r: &ResultRow) -> Vec<scrub_core::value::GroupKey> {
    r.values.iter().map(Value::group_key).collect()
}

/// Apply one host plan (selection + projection, no sampling) to an event.
pub fn apply_host_plan(plan: &HostPlan, ev: &Event) -> Option<Event> {
    if let Some(pred) = &plan.predicate {
        let arity = plan.arity;
        let ok = pred.eval_bool_by(&|slot| {
            if slot < arity {
                ev.values
                    .get(slot)
                    .map_or(Cow::Owned(Value::Null), Cow::Borrowed)
            } else if slot == arity {
                Cow::Owned(Value::Long(ev.request_id.0 as i64))
            } else {
                Cow::Owned(Value::DateTime(ev.timestamp))
            }
        });
        if !ok {
            return None;
        }
    }
    let values = plan.projection.iter().map(|s| ev.slot(*s)).collect();
    Some(Event::new(ev.type_id, ev.request_id, ev.timestamp, values))
}

#[cfg(test)]
mod tests {
    use super::*;
    use scrub_core::config::ScrubConfig;
    use scrub_core::event::RequestId;
    use scrub_core::plan::{compile, QueryId};
    use scrub_core::ql::parser::parse_query;
    use scrub_core::schema::{EventSchema, EventTypeId, FieldDef, FieldType, SchemaRegistry};

    fn registry() -> SchemaRegistry {
        let reg = SchemaRegistry::new();
        reg.register(
            EventSchema::new(
                "bid",
                vec![
                    FieldDef::new("user_id", FieldType::Long),
                    FieldDef::new("price", FieldType::Double),
                ],
            )
            .unwrap(),
        )
        .unwrap();
        reg.register(
            EventSchema::new("impression", vec![FieldDef::new("cost", FieldType::Double)]).unwrap(),
        )
        .unwrap();
        reg
    }

    fn compile_src(src: &str) -> CompiledQuery {
        compile(
            &parse_query(src).unwrap(),
            &registry(),
            &ScrubConfig::default(),
            QueryId(1),
        )
        .unwrap()
    }

    fn bid(rid: u64, ts: i64, user: i64, price: f64) -> Event {
        Event::new(
            EventTypeId(0),
            RequestId(rid),
            ts,
            vec![Value::Long(user), Value::Double(price)],
        )
    }

    #[test]
    fn grouped_count_matches_hand_computation() {
        let cq =
            compile_src("select bid.user_id, COUNT(*) from bid group by bid.user_id window 10 s");
        let events: Vec<Event> = (0..100)
            .map(|i| bid(i, (i as i64) * 200, (i % 3) as i64, 1.0))
            .collect();
        let (rows, summary) = run_batch(&cq, &events);
        assert_eq!(summary.total_matched, 100);
        // 100 events over 20s -> 2 windows × 3 users
        assert_eq!(rows.len(), 6);
        let total: i64 = rows.iter().map(|r| r.values[1].as_i64().unwrap()).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn where_clause_applies() {
        let cq = compile_src("select COUNT(*) from bid where bid.price > 2.0");
        let events: Vec<Event> = (0..10).map(|i| bid(i, 0, 0, i as f64)).collect();
        let (rows, _) = run_batch(&cq, &events);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].values[0], Value::Long(7)); // prices 3..9
    }

    #[test]
    fn join_over_logs() {
        let cq = compile_src("select COUNT(*) from bid, impression window 10 s");
        let mut events: Vec<Event> = (0..10).map(|i| bid(i, 100, 0, 1.0)).collect();
        for i in 0..5u64 {
            events.push(Event::new(
                EventTypeId(1),
                RequestId(i),
                150,
                vec![Value::Double(0.3)],
            ));
        }
        let (rows, _) = run_batch(&cq, &events);
        assert_eq!(rows[0].values[0], Value::Long(5));
    }

    #[test]
    fn rows_sorted_deterministically() {
        let cq =
            compile_src("select bid.user_id, COUNT(*) from bid group by bid.user_id window 10 s");
        let events: Vec<Event> = (0..50)
            .map(|i| bid(i, 0, ((i * 7) % 5) as i64, 1.0))
            .collect();
        let (a, _) = run_batch(&cq, &events);
        let (b, _) = run_batch(&cq, &events);
        assert_eq!(a, b);
        let users: Vec<i64> = a.iter().map(|r| r.values[0].as_i64().unwrap()).collect();
        let mut sorted = users.clone();
        sorted.sort_unstable();
        assert_eq!(users, sorted);
    }
}
