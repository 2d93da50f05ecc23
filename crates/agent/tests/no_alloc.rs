//! A `log()` that every predicate answers "no" to allocates nothing —
//! neither when the index answers (string equality is a hash probe on the
//! borrowed field) nor when the interpreter does (it borrows literals and
//! fields instead of cloning them).
//!
//! Its own test binary: the counting allocator is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use scrub_agent::ScrubAgent;
use scrub_core::config::ScrubConfig;
use scrub_core::event::RequestId;
use scrub_core::plan::{compile, QueryId};
use scrub_core::ql::parser::parse_query;
use scrub_core::schema::{EventSchema, EventTypeId, FieldDef, FieldType, SchemaRegistry};
use scrub_core::value::Value;

thread_local! {
    /// Allocations made by this thread (the test harness runs every test
    /// on a thread of its own).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: defers every operation to `System` unchanged; the thread-local
// counter is const-initialised and has no destructor, so touching it
// allocates nothing and is sound at any point of a thread's life.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn non_matching_events_allocate_nothing() {
    let reg = SchemaRegistry::new();
    reg.register(
        EventSchema::new(
            "bid",
            vec![
                FieldDef::new("user_id", FieldType::Long),
                FieldDef::new("country", FieldType::Str),
            ],
        )
        .unwrap(),
    )
    .unwrap();
    let agent = ScrubAgent::new("h1", ScrubConfig::default());
    let queries = [
        // an atom: answered by the index
        "select COUNT(*) from bid where bid.country = 'de'",
        // residuals: answered by the interpreter, on strings
        "select COUNT(*) from bid where bid.country = 'de' or bid.country = 'at'",
        "select COUNT(*) from bid where bid.country != 'fr'",
        "select COUNT(*) from bid where bid.country in ('de', 'at') and bid.user_id > 0",
    ];
    for (i, q) in queries.iter().enumerate() {
        let cq = compile(
            &parse_query(q).unwrap(),
            &reg,
            &ScrubConfig::default(),
            QueryId(i as u64 + 1),
        )
        .unwrap();
        agent.install(cq.host_plans[0].clone()).unwrap();
    }
    let event = [Value::Long(7), Value::Str("fr".into())];

    let before = ALLOCATIONS.with(Cell::get);
    for i in 0..1_000 {
        agent.log(EventTypeId(0), RequestId(i), i as i64, &event);
    }
    let allocated = ALLOCATIONS.with(Cell::get) - before;

    let stats = agent.stats().snapshot();
    assert_eq!(stats.predicates_evaluated, 4_000);
    assert_eq!(stats.events_matched, 0);
    assert_eq!(
        allocated, 0,
        "allocations over 1000 non-matching log() calls"
    );
}
