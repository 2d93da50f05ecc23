//! Folding a row into a group that already exists allocates nothing,
//! whatever the key: a string evaluated per joined row, a long read from
//! a typed chunk column, a string read through a chunk's dictionary, or a
//! string gathered over a join block's chunks.
//! The row's key parts are written into the table's scratch, the group is
//! found through the hashed index, and key values are cloned only for a
//! new group.
//!
//! Its own test binary: the counting allocator is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::borrow::Cow;
use std::cell::Cell;
use std::sync::Arc;

use scrub_central::groups::{FoldSource, GroupTable, SlotColumn};
use scrub_central::joined::{At, JoinedBlock};
use scrub_core::columnar::{ColumnChunk, ColumnarFrame};
use scrub_core::config::ScrubConfig;
use scrub_core::event::{Event, FieldSlot, RequestId};
use scrub_core::plan::{compile, CentralPlan, OutputMode, QueryId};
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

const REASONS: [&str; 5] = [
    "budget",
    "frequency_cap",
    "geo",
    "blocklisted_publisher",
    "x",
];

fn plan(schemas: &[(&str, Vec<(&str, FieldType)>)], query: &str) -> CentralPlan {
    let reg = SchemaRegistry::new();
    for (name, fields) in schemas {
        let fields = fields
            .iter()
            .map(|(f, t)| FieldDef::new(*f, t.clone()))
            .collect();
        reg.register(EventSchema::new(*name, fields).unwrap())
            .unwrap();
    }
    compile(
        &parse_query(query).unwrap(),
        &reg,
        &ScrubConfig::default(),
        QueryId(1),
    )
    .unwrap()
    .central
}

/// Fold every row once to create the groups, then count the allocations
/// of `rows` more single-row folds into them; returns the table too.
fn count_folds<'c, F>(
    plan: &CentralPlan,
    src: &mut FoldSource<'c, F>,
    width: usize,
    rows: u32,
) -> (u64, GroupTable)
where
    F: Fn(usize, usize) -> Cow<'c, Value>,
{
    let mut table = GroupTable::new(width);
    let mut dropped = table.fold(plan.max_groups, 0..rows, src);
    let before = ALLOCATIONS.with(Cell::get);
    for row in 0..rows {
        dropped += table.fold(plan.max_groups, [row], src);
    }
    let allocated = ALLOCATIONS.with(Cell::get) - before;
    assert_eq!(dropped, 0);
    (allocated, table)
}

#[test]
fn folding_into_existing_string_groups_allocates_nothing() {
    let plan = plan(
        &[
            ("bid", vec![("price", FieldType::Double)]),
            ("exclusion", vec![("reason", FieldType::Str)]),
        ],
        "select exclusion.reason, COUNT(*), AVG(bid.price), SUM(bid.price) \
         from bid, exclusion group by exclusion.reason window 10 s",
    );
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

    // 1 000 joined rows over 5 reasons of different lengths, read the way
    // the join probe reads them: every value lent through a slot accessor
    let rows: Vec<Vec<Value>> = (0..1_000)
        .map(|i| {
            let mut row = vec![Value::Null; plan.row_width];
            row[reason_slot] = Value::Str(REASONS[i % 5].into());
            row[price_slot] = Value::Double(i as f64 / 8.0);
            row
        })
        .collect();
    let fetch = |row: usize, slot: usize| {
        rows[row]
            .get(slot)
            .map_or(Cow::Owned(Value::Null), Cow::Borrowed)
    };
    let mut src = FoldSource::new(group_by, aggregates, fetch, |_| None);
    let (allocated, table) = count_folds(&plan, &mut src, 1, 1_000);
    assert_eq!(table.len(), 5);
    let groups = table.into_sorted();
    assert_eq!(groups.iter().map(|g| g.rows).sum::<u64>(), 2_000);
    assert_eq!(
        allocated, 0,
        "allocations over 1000 folds into existing groups"
    );
}

/// A decoded chunk of `bid` events: one `key` value per row, price `i/8`.
fn chunk(keys: impl Iterator<Item = Value>) -> ColumnChunk {
    chunk_of(
        EventTypeId(0),
        keys.enumerate()
            .map(|(i, key)| vec![key, Value::Double(i as f64 / 8.0)]),
    )
}

/// A decoded chunk of `type_id` events, one per row of values.
fn chunk_of(type_id: EventTypeId, rows: impl Iterator<Item = Vec<Value>>) -> ColumnChunk {
    let events: Vec<Event> = rows
        .enumerate()
        .map(|(i, values)| Event::new(type_id, RequestId(i as u64), 0, values))
        .collect();
    let mut batch = ColumnarFrame::from_events(&events).decode().unwrap();
    assert_eq!(batch.chunks.len(), 1);
    batch.chunks.remove(0)
}

/// Folds of a single-input chunk whose key and arguments are plain slots,
/// read straight from the typed columns.
fn chunk_folds(key_type: FieldType, keys: impl Iterator<Item = Value>) -> (u64, GroupTable) {
    let plan = plan(
        &[("bid", vec![("key", key_type), ("price", FieldType::Double)])],
        "select bid.key, COUNT(*), AVG(bid.price), SUM(bid.price), MAX(bid.price) \
         from bid group by bid.key window 10 s",
    );
    let OutputMode::Aggregate {
        group_by,
        aggregates,
        ..
    } = &plan.mode
    else {
        panic!("aggregate plan expected");
    };
    let chunk = chunk(keys);
    let arity = plan.inputs[0].fields.len();
    let column = |slot| match FieldSlot::of(slot, arity) {
        FieldSlot::User(i) => chunk.columns.get(i).map(SlotColumn::Chunk),
        _ => None,
    };
    let fetch = |_: usize, _: usize| -> Cow<'_, Value> { panic!("every input is a column") };
    let mut src = FoldSource::new(group_by, aggregates, fetch, column);
    count_folds(&plan, &mut src, 1, chunk.len() as u32)
}

#[test]
fn folding_typed_long_keys_into_existing_groups_allocates_nothing() {
    let (allocated, table) = chunk_folds(
        FieldType::Long,
        (0..1_000).map(|i| Value::Long((i * 7919) % 61)),
    );
    assert_eq!(table.len(), 61);
    assert_eq!(allocated, 0, "allocations over 1000 long-key folds");
}

#[test]
fn folding_dictionary_string_keys_into_existing_groups_allocates_nothing() {
    let (allocated, table) = chunk_folds(
        FieldType::Str,
        (0..1_000).map(|i| Value::Str(REASONS[i % 5].into())),
    );
    assert_eq!(table.len(), 5);
    assert_eq!(allocated, 0, "allocations over 1000 dictionary-key folds");
}

#[test]
fn folding_a_gathered_join_block_into_existing_string_groups_allocates_nothing() {
    let plan = plan(
        &[
            ("bid", vec![("price", FieldType::Double)]),
            ("exclusion", vec![("reason", FieldType::Str)]),
        ],
        "select exclusion.reason, COUNT(*), AVG(bid.price), SUM(bid.price) \
         from bid, exclusion group by exclusion.reason window 10 s",
    );
    let OutputMode::Aggregate {
        group_by,
        aggregates,
        ..
    } = &plan.mode
    else {
        panic!("aggregate plan expected");
    };
    // one bid chunk, then four exclusion chunks whose dictionaries list
    // the reasons in different orders
    let mut chunks = vec![Arc::new(chunk_of(
        EventTypeId(0),
        (0..250).map(|i| vec![Value::Double(i as f64 / 8.0)]),
    ))];
    chunks.extend((0..4).map(|c| {
        let reasons = (0..250).map(move |i| vec![Value::Str(REASONS[(i + c) % 5].into())]);
        Arc::new(chunk_of(EventTypeId(1), reasons))
    }));
    // 1 000 joined rows: each bid with its request's four exclusions
    let mut block = JoinedBlock::new(&plan, &chunks);
    for j in 0..1_000u32 {
        let bid = At {
            chunk: 0,
            row: j / 4,
        };
        let exclusion = At {
            chunk: 1 + j % 4,
            row: j / 4,
        };
        block.push([bid, exclusion]);
    }
    let view = &block;
    let fetch = |row, slot| view.value(row, slot);
    let column = |slot| view.column(slot).map(SlotColumn::Joined);
    let mut src = FoldSource::new(group_by, aggregates, fetch, column);
    let (allocated, table) = count_folds(&plan, &mut src, 1, 1_000);
    assert_eq!(table.len(), 5);
    let groups = table.into_sorted();
    assert_eq!(groups.iter().map(|g| g.rows).sum::<u64>(), 2_000);
    assert_eq!(
        allocated, 0,
        "allocations over 1000 gathered joined-row folds into existing groups"
    );
}
