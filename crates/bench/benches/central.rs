//! Criterion benchmarks of ScrubCentral's ingest path: grouped
//! aggregation, stream projection and the request-id equi-join.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};

use scrub_agent::{BatchPayload, EventBatch};
use scrub_central::QueryExecutor;
use scrub_core::config::ScrubConfig;
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

fn bid_batch(n: u64) -> EventBatch {
    EventBatch {
        seq: 0,
        attempt: 0,
        seq_floor: 0,
        watermark_ms: None,
        query_id: QueryId(1),
        type_id: EventTypeId(0),
        host: "h".into(),
        payload: BatchPayload::Rows(
            (0..n)
                .map(|i| {
                    Event::new(
                        EventTypeId(0),
                        RequestId(i),
                        (i % 60_000) as i64,
                        vec![Value::Long((i % 1000) as i64), Value::Double(0.5)],
                    )
                })
                .collect(),
        ),
        matched: n,
        sampled: n,
        shed: 0,
        budget_shed: 0,
        seen: n,
        bytes: 0,
        spans: vec![],
    }
}

fn bench_central(c: &mut Criterion) {
    const N: u64 = 10_000;
    let mut g = c.benchmark_group("central");
    g.throughput(Throughput::Elements(N));

    g.bench_function("grouped_count_ingest_10k", |b| {
        let p = plan("select bid.user_id, COUNT(*) from bid group by bid.user_id window 10 s");
        b.iter_batched(
            || (QueryExecutor::new(p.clone(), 0), bid_batch(N)),
            |(mut exec, batch)| {
                exec.ingest(batch);
                exec.advance(i64::MAX / 4)
            },
            BatchSize::SmallInput,
        )
    });

    g.bench_function("stream_ingest_10k", |b| {
        let p = plan("select bid.user_id from bid");
        b.iter_batched(
            || (QueryExecutor::new(p.clone(), 0), bid_batch(N)),
            |(mut exec, batch)| {
                exec.ingest(batch);
                exec.advance(0)
            },
            BatchSize::SmallInput,
        )
    });

    g.bench_function("join_ingest_10k", |b| {
        let p = plan("select COUNT(*) from bid, impression window 10 s");
        b.iter_batched(
            || {
                let imps = EventBatch {
                    seq: 0,
                    attempt: 0,
                    seq_floor: 0,
                    watermark_ms: None,
                    query_id: QueryId(1),
                    type_id: EventTypeId(1),
                    host: "h2".into(),
                    payload: BatchPayload::Rows(
                        (0..N / 2)
                            .map(|i| {
                                Event::new(
                                    EventTypeId(1),
                                    RequestId(i * 2),
                                    (i % 60_000) as i64,
                                    vec![],
                                )
                            })
                            .collect(),
                    ),
                    matched: N / 2,
                    sampled: N / 2,
                    shed: 0,
                    budget_shed: 0,
                    seen: N / 2,
                    bytes: 0,
                    spans: vec![],
                };
                (QueryExecutor::new(p.clone(), 0), bid_batch(N / 2), imps)
            },
            |(mut exec, bids, imps)| {
                exec.ingest(bids);
                exec.ingest(imps);
                exec.advance(i64::MAX / 4)
            },
            BatchSize::SmallInput,
        )
    });

    g.finish();
}

criterion_group!(benches, bench_central);
criterion_main!(benches);
