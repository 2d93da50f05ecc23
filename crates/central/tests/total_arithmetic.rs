//! Integer arithmetic is total on both sides of the wire. A query decides
//! what runs inside `ScrubAgent::log`, which is the application's own
//! thread, and inside ScrubCentral's ingest loop, so `i64::MIN / -1`,
//! `-i64::MIN` and overflowing `+ - *` must never panic (`/` and `%` do in
//! release builds, the rest in debug builds) nor wrap silently. Each gives
//! `Null`, and every in-range result is exact.
//!
//! Each query runs through the real pipeline: compile, install the host
//! plans on an agent, `log` the events, `take_batches`, and
//! `QueryExecutor::ingest` the batches, each step under `catch_unwind`.

use std::panic::{catch_unwind, AssertUnwindSafe};

use scrub_agent::ScrubAgent;
use scrub_central::QueryExecutor;
use scrub_core::config::ScrubConfig;
use scrub_core::event::RequestId;
use scrub_core::plan::{compile, QueryId};
use scrub_core::ql::parser::parse_query;
use scrub_core::schema::{EventSchema, EventTypeId, FieldDef, FieldType, SchemaRegistry};
use scrub_core::value::Value;

const BID: EventTypeId = EventTypeId(0);
const EXCLUSION: EventTypeId = EventTypeId(1);

/// An operation's exact result, widened so nothing here can overflow.
type Exact = fn(i128) -> i128;

/// The integer operations a query can put on a `Long` field.
const OPS: [(&str, Exact); 6] = [
    ("bid.user_id / -1", |x| -x),
    ("bid.user_id % -1", |_| 0),
    ("-bid.user_id", |x| -x),
    ("bid.user_id + 1", |x| x + 1),
    ("bid.user_id - 1", |x| x - 1),
    ("bid.user_id * 2", |x| x * 2),
];

const EXTREMES: [i64; 2] = [i64::MIN, i64::MAX];

/// What the interpreter must answer: the exact result when it fits an
/// `i64`, `Null` when it does not.
fn expected(op: Exact, x: i64) -> Value {
    i64::try_from(op(x as i128)).map_or(Value::Null, Value::Long)
}

fn registry() -> SchemaRegistry {
    let reg = SchemaRegistry::new();
    for (name, field) in [("bid", "user_id"), ("exclusion", "code")] {
        let fields = vec![FieldDef::new(field, FieldType::Long)];
        reg.register(EventSchema::new(name, fields).unwrap())
            .unwrap();
    }
    reg
}

/// Run `query` over one `bid` per user id, each joined by request id to
/// one `exclusion` with `code = 2`, and return its rows' values. Panics,
/// naming the stage, if the tap or the executor panicked.
fn run(query: &str, user_ids: &[i64]) -> Vec<Vec<Value>> {
    let config = ScrubConfig::default();
    let spec = parse_query(query).unwrap_or_else(|e| panic!("{query}: {e}"));
    let compiled = compile(&spec, &registry(), &config, QueryId(1)).unwrap();
    let agent = ScrubAgent::new("host-0", config.clone());
    for plan in compiled.host_plans {
        agent.install(plan).unwrap();
    }
    let logged = catch_unwind(AssertUnwindSafe(|| {
        for (i, &user_id) in user_ids.iter().enumerate() {
            let (rid, ts) = (RequestId(i as u64 + 1), 100 + i as i64);
            agent.log(BID, rid, ts, &[Value::Long(user_id)]);
            agent.log(EXCLUSION, rid, ts, &[Value::Long(2)]);
        }
    }));
    assert!(logged.is_ok(), "{query}: ScrubAgent::log panicked");
    let batches = agent.take_batches(60_000);
    let mut exec = QueryExecutor::new(compiled.central, config.window_grace_ms);
    let rows = catch_unwind(AssertUnwindSafe(|| {
        batches.into_iter().for_each(|b| exec.ingest(b));
        exec.finish().0
    }));
    let rows = rows.unwrap_or_else(|_| panic!("{query}: QueryExecutor::ingest panicked"));
    rows.into_iter().map(|row| row.values).collect()
}

/// Host predicates: an event ships exactly when its result is `Null`,
/// i.e. when the operation overflows; a comparison over it never holds.
#[test]
fn host_predicates_on_extreme_integers_are_null_not_a_panic() {
    for (op, exact) in OPS {
        let query = format!("select bid.user_id from bid where ({op}) is null");
        let overflowing: Vec<Vec<Value>> = EXTREMES
            .iter()
            .filter(|&&x| expected(exact, x).is_null())
            .map(|&x| vec![Value::Long(x)])
            .collect();
        assert_eq!(run(&query, &EXTREMES), overflowing, "{query}");
        run(
            &format!("select bid.user_id from bid where {op} > 0"),
            &EXTREMES,
        );
    }
}

/// Central select expressions and aggregate arguments over one input.
#[test]
fn central_select_expressions_on_extreme_integers_are_exact_or_null() {
    for (op, exact) in OPS {
        let query = format!("select {op} from bid");
        let want: Vec<Vec<Value>> = EXTREMES.iter().map(|&x| vec![expected(exact, x)]).collect();
        assert_eq!(run(&query, &EXTREMES), want, "{query}");
        run(&format!("select SUM({op}) from bid window 1 s"), &EXTREMES);
    }
}

/// Central residuals and aggregate arguments over a request-id join:
/// the cross-type product `user_id * code` overflows at both extremes, so
/// every joined row fails `> 0`, passes `is null`, and gives MIN nothing
/// to fold; in range the product is exact.
#[test]
fn central_join_residuals_on_extreme_integers_are_null_not_a_panic() {
    let product = "bid.user_id * exclusion.code";
    let count = |filter: String| {
        run(
            &format!("select COUNT(*) from bid, exclusion where {filter}"),
            &EXTREMES,
        )
    };
    assert!(count(format!("{product} > 0")).is_empty());
    assert_eq!(count(format!("({product}) is null")), [[Value::Long(2)]]);
    let min = format!("select MIN({product}) from bid, exclusion");
    assert_eq!(run(&min, &EXTREMES), [[Value::Null]]);
    assert_eq!(
        run(&min, &[i64::MAX / 2]),
        [[Value::Long(i64::MAX / 2 * 2)]]
    );
}
