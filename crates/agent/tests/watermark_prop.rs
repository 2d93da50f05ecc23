//! The watermark a batch carries is a promise about every batch after it.
//!
//! One query with two subscriptions (two event types, one sequence space)
//! is driven through random interleavings of `log` on either type, size
//! flushes (batch size 3), `take_batches` on a clock that only moves
//! forward, and install/remove of either plan. The batches are
//! concatenated in ship order — the order the harness numbers them in —
//! and the statement of `EventBatch::watermark_ms` is checked directly:
//! no batch after one announcing `W` holds an event below `W`, and `W`
//! never decreases.

use proptest::prelude::*;
use proptest::BoxedStrategy;

use scrub_agent::{EventBatch, ScrubAgent};
use scrub_core::config::ScrubConfig;
use scrub_core::event::RequestId;
use scrub_core::plan::{HostPlan, QueryId};
use scrub_core::schema::EventTypeId;

const QUERY: QueryId = QueryId(7);
const FLUSH_INTERVAL_MS: i64 = 40;

#[derive(Debug, Clone, Copy)]
enum Op {
    /// Log one event of the type, `gap` ms after the previous operation.
    Log {
        type_id: u32,
        gap: i64,
    },
    Take {
        gap: i64,
    },
    /// Install the query's plan for the type (a no-op when it is there).
    Install {
        type_id: u32,
    },
    /// Remove the whole query.
    Remove,
}

fn op() -> BoxedStrategy<Op> {
    let log = || (0u32..2, 0i64..15).prop_map(|(type_id, gap)| Op::Log { type_id, gap });
    prop_oneof![
        log(),
        log(),
        log(),
        log(),
        (0i64..60).prop_map(|gap| Op::Take { gap }),
        (0u32..2).prop_map(|type_id| Op::Install { type_id }),
        Just(Op::Remove),
    ]
    .boxed()
}

fn plan(type_id: u32) -> HostPlan {
    HostPlan {
        query_id: QUERY,
        event_type: format!("t{type_id}"),
        type_id: EventTypeId(type_id),
        arity: 0,
        predicate: None,
        projection: Vec::new(),
        event_fraction: 1.0,
        est_selectivity: 1.0,
    }
}

fn check(ops: &[Op]) {
    let config = ScrubConfig {
        agent_batch_events: 3,
        agent_flush_interval_ms: FLUSH_INTERVAL_MS,
        ..Default::default()
    };
    let agent = ScrubAgent::new("h", config);
    let mut installed = [false; 2];
    let mut now = 0i64;
    let mut logged = 0u64;
    let mut shipped: Vec<EventBatch> = Vec::new();
    for op in ops {
        match *op {
            Op::Log { type_id, gap } => {
                now += gap;
                logged += u64::from(installed[type_id as usize]);
                agent.log(EventTypeId(type_id), RequestId(logged), now, &[]);
            }
            Op::Take { gap } => {
                now += gap;
                shipped.extend(agent.take_batches(now));
            }
            Op::Install { type_id } => {
                if !std::mem::replace(&mut installed[type_id as usize], true) {
                    agent.install(plan(type_id)).unwrap();
                }
            }
            Op::Remove => {
                shipped.extend(agent.remove(QUERY, now));
                installed = [false; 2];
            }
        }
    }
    shipped.extend(agent.remove(QUERY, now));

    // nothing logged under an installed plan went missing on the way
    let events: usize = shipped.iter().map(EventBatch::len).sum();
    assert_eq!(events as u64, logged);
    assert_eq!(agent.stats().snapshot().events_behind_watermark, 0);

    let mut announced: Option<(usize, i64)> = None;
    for (n, batch) in shipped.iter().enumerate() {
        if let (Some((at, mark)), Some((oldest, _))) = (announced, batch.payload.ts_range()) {
            assert!(
                oldest >= mark,
                "batch {at} announced {mark}, batch {n} holds an event at {oldest}"
            );
        }
        if let Some(mark) = batch.watermark_ms {
            assert!(
                announced.is_none_or(|(_, earlier)| mark >= earlier),
                "batch {n} announces {mark} after {announced:?}"
            );
            announced = Some((n, mark));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    fn no_batch_holds_an_event_below_an_earlier_watermark(
        ops in prop::collection::vec(op(), 1..120)
    ) {
        check(&ops);
    }
}

/// The interleaving the rule exists for: a due subscription with an empty
/// buffer flushes ahead of a sibling holding events.
#[test]
fn header_batch_ahead_of_a_loaded_sibling_stays_silent() {
    use Op::*;
    check(&[
        Install { type_id: 0 },
        Install { type_id: 1 },
        Log { type_id: 0, gap: 1 },
        Take {
            gap: FLUSH_INTERVAL_MS,
        },
        Log { type_id: 1, gap: 1 },
        Log { type_id: 1, gap: 1 },
        Take {
            gap: FLUSH_INTERVAL_MS,
        },
    ]);
}
