//! The group table against an ordered-map reference.
//!
//! [`RefGroups`] is the fold the table replaced: a `BTreeMap` keyed by the
//! rows' `GroupKey`s, holding the `cap` smallest keys. The table must
//! agree with it on every kept group, their order, the key values each
//! group saw first, every aggregate's output and the rows the cap
//! dropped — whether the rows are read by expression, from the typed
//! columns of decoded chunks, or gathered over those chunks as the join
//! probe gathers them.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::prelude::*;

use scrub_central::groups::{FoldSource, GroupState, GroupTable, SlotColumn};
use scrub_central::joined::{At, JoinedBlock};
use scrub_central::AggState;
use scrub_core::columnar::{ColumnChunk, ColumnarFrame};
use scrub_core::config::ScrubConfig;
use scrub_core::event::{Event, RequestId};
use scrub_core::expr::{BinOp, ResolvedExpr};
use scrub_core::plan::{compile, AggSpec, CentralPlan, QueryId};
use scrub_core::ql::ast::AggFn;
use scrub_core::ql::parser::parse_query;
use scrub_core::schema::{EventSchema, EventTypeId, FieldDef, FieldType, SchemaRegistry};
use scrub_core::value::{GroupKey, Value};

/// Rows are `[k0, k1, x]`: slots 0 and 1 are the candidate group keys.
const SLOTS: usize = 3;

fn aggregates() -> Vec<AggSpec> {
    let slot = |s| Some(ResolvedExpr::Input(s));
    let agg = |func, arg| AggSpec { func, arg };
    let twice_x = ResolvedExpr::Binary {
        op: BinOp::Mul,
        lhs: Box::new(ResolvedExpr::Input(2)),
        rhs: Box::new(ResolvedExpr::Literal(Value::Long(2))),
    };
    vec![
        agg(AggFn::Count, None),
        agg(AggFn::Count, slot(2)),
        agg(AggFn::Sum, slot(2)),
        agg(AggFn::Avg, slot(2)),
        agg(AggFn::Min, slot(0)),
        agg(AggFn::Max, slot(2)),
        agg(AggFn::Sum, Some(twice_x)),
        agg(AggFn::TopK(2), slot(1)),
        agg(AggFn::CountDistinct, slot(0)),
    ]
}

/// The reference: the `cap` smallest keys of an ordered map.
struct RefGroups {
    groups: BTreeMap<Vec<GroupKey>, GroupState>,
    dropped: u64,
}

impl RefGroups {
    fn fold(&mut self, cap: usize, group_by: &[ResolvedExpr], aggs: &[AggSpec], row: &[Value]) {
        let vals: Vec<Value> = group_by.iter().map(|g| g.eval(row)).collect();
        let key: Vec<GroupKey> = vals.iter().map(Value::group_key).collect();
        if !self.groups.contains_key(&key) {
            if self.groups.len() >= cap {
                if self.groups.last_key_value().is_some_and(|(k, _)| *k < key) {
                    self.dropped += 1;
                    return;
                }
                let (_, evicted) = self.groups.pop_last().expect("len >= cap >= 1");
                self.dropped += evicted.rows;
            }
            let aggs = aggs.iter().map(AggState::new).collect();
            let group = GroupState {
                keys: vals,
                aggs,
                rows: 0,
            };
            self.groups.insert(key.clone(), group);
        }
        let group = self.groups.get_mut(&key).expect("group present");
        group.rows += 1;
        for (state, agg) in group.aggs.iter_mut().zip(aggs) {
            state.update(agg.arg.as_ref().map(|a| a.eval(row)).as_ref());
        }
    }
}

/// Same variant, same canonical key: `-0.0` is not `0.0`, and two NaNs
/// are the same value only with the same bits.
fn same(a: &Value, b: &Value) -> bool {
    std::mem::discriminant(a) == std::mem::discriminant(b) && a.group_key() == b.group_key()
}

fn describe(groups: &[GroupState]) -> Vec<(String, u64, Vec<String>)> {
    groups
        .iter()
        .map(|g| {
            let outs = g
                .aggs
                .iter()
                .map(|a| format!("{:?}", a.finish(1.0)))
                .collect();
            (format!("{:?}", g.keys), g.rows, outs)
        })
        .collect()
}

fn assert_same(got: &[GroupState], want: &[GroupState], what: &str) {
    let equal = got.len() == want.len()
        && got.iter().zip(want).all(|(g, w)| {
            g.rows == w.rows
                && g.keys.len() == w.keys.len()
                && g.keys.iter().zip(&w.keys).all(|(a, b)| same(a, b))
                && g.aggs
                    .iter()
                    .zip(&w.aggs)
                    .all(|(a, b)| same(&a.finish(1.0), &b.finish(1.0)))
        });
    assert!(
        equal,
        "{what}:\n got {:#?}\nwant {:#?}",
        describe(got),
        describe(want)
    );
}

/// Decoded chunks of the rows, one per run of `runs` lengths (cycled).
fn chunks(rows: &[Vec<Value>], runs: &[usize]) -> Vec<ColumnChunk> {
    let mut out = Vec::new();
    let mut at = 0;
    for &len in runs.iter().cycle() {
        if at == rows.len() {
            break;
        }
        let end = (at + len).min(rows.len());
        let events: Vec<Event> = rows[at..end]
            .iter()
            .enumerate()
            .map(|(i, r)| Event::new(EventTypeId(0), RequestId(i as u64), 0, r.clone()))
            .collect();
        out.extend(ColumnarFrame::from_events(&events).decode().unwrap().chunks);
        at = end;
    }
    out
}

/// A one-input plan whose rows are laid out `[k0, k1, x, ..]`, for
/// blocks gathered over the chunks.
fn row_plan() -> CentralPlan {
    let reg = SchemaRegistry::new();
    let fields = ["k0", "k1", "x"].map(|f| FieldDef::new(f, FieldType::Str));
    reg.register(EventSchema::new("t", fields.to_vec()).unwrap())
        .unwrap();
    let src = "select t.k0, t.k1, t.x from t";
    let plan = compile(
        &parse_query(src).unwrap(),
        &reg,
        &ScrubConfig::default(),
        QueryId(1),
    )
    .unwrap()
    .central;
    assert_eq!(plan.inputs[0].fields, ["k0", "k1", "x"]);
    plan
}

fn check(rows: &[Vec<Value>], width: usize, cap: usize, runs: &[usize], eager: bool) {
    let group_by: Vec<ResolvedExpr> = (0..width).map(ResolvedExpr::Input).collect();
    let aggs = aggregates();
    let mut reference = RefGroups {
        groups: BTreeMap::new(),
        dropped: 0,
    };
    rows.iter()
        .for_each(|r| reference.fold(cap, &group_by, &aggs, r));
    let want: Vec<GroupState> = reference.groups.into_values().collect();

    // by expression, in runs of rows
    let fetch = |row: usize, slot: usize| Cow::Borrowed(&rows[row][slot]);
    let mut src = FoldSource::new(&group_by, &aggs, fetch, |_| None);
    let mut table = GroupTable::new(width);
    let mut dropped = 0;
    let mut at = 0u32;
    for &len in runs.iter().cycle() {
        if at as usize == rows.len() {
            break;
        }
        let end = (at + len as u32).min(rows.len() as u32);
        dropped += table.fold(cap, at..end, &mut src);
        at = end;
    }
    assert_eq!(dropped, reference.dropped, "rows dropped, by expression");
    assert_same(&table.into_sorted(), &want, "by expression");

    // from the typed columns of decoded chunks
    let mut table = GroupTable::new(width);
    let mut dropped = 0;
    for chunk in chunks(rows, runs) {
        assert!(chunk.columns.len() == SLOTS);
        let fetch = |row: usize, slot: usize| chunk.columns[slot].value_ref(row);
        let column = |slot: usize| chunk.columns.get(slot).map(SlotColumn::Chunk);
        let mut src = FoldSource::new(&group_by, &aggs, fetch, column);
        if eager {
            src.evaluate_args(chunk.len());
        }
        dropped += table.fold(cap, 0..chunk.len() as u32, &mut src);
    }
    assert_eq!(dropped, reference.dropped, "rows dropped, from chunks");
    assert_same(&table.into_sorted(), &want, "from chunks");

    // gathered over the chunks: one block over all of them, and a block
    // per chunk (each numbering its chunks from 0) into one table
    let plan = row_plan();
    let shared: Vec<Arc<ColumnChunk>> = chunks(rows, runs).into_iter().map(Arc::new).collect();
    let gathered = |blocks: Vec<&[Arc<ColumnChunk>]>| {
        let mut table = GroupTable::new(width);
        let mut dropped = 0;
        for chunks in blocks {
            let mut block = JoinedBlock::new(&plan, chunks);
            for (c, chunk) in chunks.iter().enumerate() {
                let rows = 0..chunk.len() as u32;
                rows.for_each(|row| {
                    block.push([At {
                        chunk: c as u32,
                        row,
                    }])
                });
            }
            let view = &block;
            let fetch = |row, slot| view.value(row, slot);
            let column = |slot| view.column(slot).map(SlotColumn::Joined);
            let mut src = FoldSource::new(&group_by, &aggs, fetch, column);
            if eager {
                src.evaluate_args(block.len());
            }
            dropped += table.fold(cap, 0..block.len() as u32, &mut src);
        }
        (table.into_sorted(), dropped)
    };
    for (what, blocks) in [
        ("gathered, one block", vec![&shared[..]]),
        ("gathered, a block per chunk", shared.chunks(1).collect()),
    ] {
        let (got, dropped) = gathered(blocks);
        assert_eq!(dropped, reference.dropped, "rows dropped, {what}");
        assert_same(&got, &want, what);
    }
}

/// Keys that collide across types in `GroupKey` (equal int and long
/// values, a bool and a one), that differ only in bits (`-0.0`, NaNs),
/// and multi-byte strings.
fn k0_pool() -> Vec<Value> {
    vec![
        Value::Null,
        Value::Int(1),
        Value::Long(1),
        Value::Bool(true),
        Value::Long(-3),
        Value::Int(0),
        Value::DateTime(2),
        Value::Long(i64::MIN),
        Value::Double(0.0),
        Value::Double(-0.0),
        Value::Double(f64::NAN),
        Value::Double(f64::from_bits(0x7ff8_0000_0000_0001)),
        Value::Double(-1.5),
        Value::Float(1.0),
        Value::Double(1.0),
        Value::Str("é".into()),
        Value::Str("日本".into()),
        Value::Str("".into()),
        Value::Str("abcdefgh1".into()),
        Value::Str("abcdefgh0".into()),
    ]
}

fn k1_pool() -> Vec<Value> {
    ["a", "ä", "日本語", "", "a\0", "zz"]
        .into_iter()
        .map(|s| Value::Str(s.into()))
        .chain([Value::Null])
        .collect()
}

fn x_pool() -> Vec<Value> {
    vec![
        Value::Null,
        Value::Double(0.5),
        Value::Double(-2.25),
        Value::Double(1e300),
        Value::Long(7),
    ]
}

fn arb_row() -> impl Strategy<Value = Vec<Value>> {
    (
        prop::sample::select(k0_pool()),
        prop::sample::select(k1_pool()),
        prop::sample::select(x_pool()),
    )
        .prop_map(|(k0, k1, x)| vec![k0, k1, x])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Caps 1..8 and an unbinding one, keys of 0, 1 and 2 parts, rows
    /// folded in runs of any length, computed arguments evaluated per
    /// row or once per chunk.
    #[test]
    fn group_table_matches_ordered_map(
        rows in prop::collection::vec(arb_row(), 0..80),
        width in 0usize..3,
        cap in prop_oneof![1usize..9, Just(65_536usize)],
        runs in prop::collection::vec(1usize..9, 1..5),
        eager in any::<bool>(),
    ) {
        check(&rows, width, cap, &runs, eager);
    }
}

/// Evictions in a long run: keys arriving largest first make every new
/// key displace the table's largest, so the heap is exercised on each row.
#[test]
fn descending_keys_evict_through_the_heap() {
    let rows: Vec<Vec<Value>> = (0..500i64)
        .rev()
        .map(|i| {
            vec![
                Value::Long(i % 97),
                Value::Str(format!("s{}", i % 13)),
                Value::Long(i),
            ]
        })
        .collect();
    for cap in [1, 2, 5, 8, 40] {
        check(&rows, 2, cap, &[7, 64, 1], false);
    }
}

/// A one-part string key whose group the cap evicts, coming back from the
/// same chunk's dictionary entry: it must not fold into the group that
/// took its slot.
#[test]
fn evicted_string_key_coming_back_from_its_dictionary_entry() {
    let row = |k: &str| {
        vec![
            Value::Str(k.into()),
            Value::Str("k1".into()),
            Value::Long(1),
        ]
    };
    let rows = vec![row("b"), row("a"), row("b"), row("c"), row("a"), row("b")];
    for cap in [1, 2] {
        check(&rows, 1, cap, &[6], false);
    }
}
