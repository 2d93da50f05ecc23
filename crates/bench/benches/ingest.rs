//! Criterion benchmarks of ScrubCentral ingest per wire format: a frame
//! decode (columnar) against a row transposition in front of the same
//! column passes, with and without the window close, plus the join.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};

use scrub_agent::{BatchPayload, EventBatch};
use scrub_central::QueryExecutor;
use scrub_core::config::{ScrubConfig, WireFormat};
use scrub_core::event::{Event, RequestId};
use scrub_core::plan::{compile, CentralPlan, QueryId};
use scrub_core::ql::parser::parse_query;
use scrub_core::schema::{EventSchema, EventTypeId, FieldDef, FieldType, SchemaRegistry};
use scrub_core::value::Value;

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

fn plan(src: &str) -> CentralPlan {
    compile(
        &parse_query(src).unwrap(),
        &registry(),
        &ScrubConfig::default(),
        QueryId(1),
    )
    .unwrap()
    .central
}

fn bid_batch(n: u64, format: WireFormat) -> EventBatch {
    let events = (0..n)
        .map(|i| {
            Event::new(
                EventTypeId(0),
                RequestId(i),
                (i % 60_000) as i64,
                vec![Value::Long((i % 1000) as i64), Value::Double(0.5)],
            )
        })
        .collect();
    EventBatch {
        seq: 0,
        attempt: 0,
        seq_floor: 0,
        watermark_ms: None,
        query_id: QueryId(1),
        type_id: EventTypeId(0),
        host: "h".into(),
        payload: BatchPayload::from_events(events, format),
        matched: n,
        sampled: n,
        shed: 0,
        budget_shed: 0,
        seen: n,
        bytes: 0,
        spans: vec![],
    }
}

fn imp_batch(n: u64, format: WireFormat) -> EventBatch {
    let events = (0..n)
        .map(|i| {
            Event::new(
                EventTypeId(1),
                RequestId(i * 2),
                (i % 60_000) as i64,
                vec![],
            )
        })
        .collect();
    EventBatch {
        seq: 0,
        attempt: 0,
        seq_floor: 0,
        watermark_ms: None,
        query_id: QueryId(1),
        type_id: EventTypeId(1),
        host: "h2".into(),
        payload: BatchPayload::from_events(events, format),
        matched: n,
        sampled: n,
        shed: 0,
        budget_shed: 0,
        seen: n,
        bytes: 0,
        spans: vec![],
    }
}

fn bench_ingest(c: &mut Criterion) {
    const N: u64 = 10_000;
    let agg_src = "select bid.user_id, COUNT(*), AVG(bid.price) from bid \
                   group by bid.user_id window 10 s";
    let join_src = "select COUNT(*) from bid, impression window 10 s";

    let mut g = c.benchmark_group("ingest");
    g.throughput(Throughput::Elements(N));

    // Aggregate mode, ingest through window close, per wire format (row =
    // rows transposed into column chunks at central, col = one frame
    // decode).
    for (fmt_name, fmt) in [("row", WireFormat::Row), ("col", WireFormat::Columnar)] {
        let name = format!("aggregate_{fmt_name}_10k");
        g.bench_function(&name, |b| {
            let p = plan(agg_src);
            b.iter_batched(
                || (QueryExecutor::new(p.clone(), 0), bid_batch(N, fmt)),
                |(mut exec, batch)| {
                    exec.ingest(batch);
                    exec.advance(i64::MAX / 4)
                },
                BatchSize::SmallInput,
            )
        });
    }

    g.bench_function("join_10k", |b| {
        let p = plan(join_src);
        b.iter_batched(
            || {
                (
                    QueryExecutor::new(p.clone(), 0),
                    bid_batch(N / 2, WireFormat::Row),
                    imp_batch(N / 2, WireFormat::Row),
                )
            },
            |(mut exec, bids, imps)| {
                exec.ingest(bids);
                exec.ingest(imps);
                exec.advance(i64::MAX / 4)
            },
            BatchSize::SmallInput,
        )
    });

    // Pure ingest, no advance — isolates the per-event decode+fold cost
    // per wire format.
    for (fmt_name, fmt) in [("row", WireFormat::Row), ("col", WireFormat::Columnar)] {
        let name = format!("ingest_only_{fmt_name}_10k");
        g.bench_function(&name, |b| {
            let p = plan(agg_src);
            b.iter_batched(
                || (QueryExecutor::new(p.clone(), 0), bid_batch(N, fmt)),
                |(mut exec, batch)| exec.ingest(batch),
                BatchSize::SmallInput,
            )
        });
    }

    g.finish();
}

criterion_group!(benches, bench_ingest);
criterion_main!(benches);
