//! Folding a row into a group that already exists allocates nothing, even
//! when the group key is a string: the scratch key is rewritten in place
//! from the lent value, the group is looked up once, and key values are
//! cloned only for a new group.
//!
//! Its own test binary: the counting allocator is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::borrow::Cow;
use std::cell::Cell;
use std::collections::BTreeMap;

use scrub_central::executor::update_groups;
use scrub_core::config::ScrubConfig;
use scrub_core::plan::{compile, OutputMode, QueryId};
use scrub_core::ql::parser::parse_query;
use scrub_core::schema::{EventSchema, FieldDef, FieldType, SchemaRegistry};
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
fn folding_into_existing_string_groups_allocates_nothing() {
    let reg = SchemaRegistry::new();
    reg.register(EventSchema::new("bid", vec![FieldDef::new("price", FieldType::Double)]).unwrap())
        .unwrap();
    reg.register(
        EventSchema::new("exclusion", vec![FieldDef::new("reason", FieldType::Str)]).unwrap(),
    )
    .unwrap();
    let query = "select exclusion.reason, COUNT(*), AVG(bid.price), SUM(bid.price) \
                 from bid, exclusion group by exclusion.reason window 10 s";
    let plan = compile(
        &parse_query(query).unwrap(),
        &reg,
        &ScrubConfig::default(),
        QueryId(1),
    )
    .unwrap()
    .central;
    let OutputMode::Aggregate {
        group_by,
        aggregates,
        ..
    } = &plan.mode
    else {
        panic!("aggregate plan expected");
    };
    let reason_slot = plan.inputs[1].block_offset;
    let price_slot = plan.inputs[0].block_offset;

    // 1 000 joined rows over 5 reasons of different lengths
    let reasons = [
        "budget",
        "frequency_cap",
        "geo",
        "blocklisted_publisher",
        "x",
    ];
    let rows: Vec<Vec<Value>> = (0..1_000)
        .map(|i| {
            let mut row = vec![Value::Null; plan.row_width];
            row[reason_slot] = Value::Str(reasons[i % 5].into());
            row[price_slot] = Value::Double(i as f64 / 8.0);
            row
        })
        .collect();
    let mut groups = BTreeMap::new();
    let mut keys = Vec::new();
    let mut fold = |row: &[Value]| {
        let lend = |slot: usize| row.get(slot).map_or(Cow::Owned(Value::Null), Cow::Borrowed);
        update_groups(
            &mut groups,
            plan.max_groups,
            group_by,
            aggregates,
            &|e| e.eval_by(&lend),
            &mut keys,
        )
    };
    // the first row of each reason creates its group, and the longest
    // reason sizes the scratch key's buffer
    for row in &rows[..5] {
        fold(row);
    }

    let before = ALLOCATIONS.with(Cell::get);
    let dropped: u64 = rows.iter().map(|row| fold(row)).sum();
    let allocated = ALLOCATIONS.with(Cell::get) - before;

    assert_eq!(dropped, 0);
    assert_eq!(groups.len(), 5);
    assert_eq!(groups.values().map(|g| g.rows).sum::<u64>(), 1_005);
    assert_eq!(
        allocated, 0,
        "allocations over 1000 folds into existing groups"
    );
}
