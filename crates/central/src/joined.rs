//! The join probe's blocks: joined rows as one gather per side, read
//! column by column, never built.
//!
//! A closing join window enumerates its joined rows a block at a time.
//! For each side, a [`JoinedBlock`] holds one [`At`] per block row: the
//! window chunk and row that side's event lives at. Slot `s` of block row
//! `j` is read straight from the typed column of side `s`'s chunk as a
//! [`Scalar`] ([`Column::scalar`]): numbers as [`Value::as_f64`] gives
//! them, strings as a borrowed dictionary entry, `Null` from a validity
//! bitmap, a short chunk or a `Null` column.
//!
//! The residual runs over the block one node at a time and shrinks a
//! selection of block rows (`JoinedBlock::keep_true`). The six
//! comparisons between slots and literals, and AND, OR and NOT over them,
//! are typed kernels; the comparisons decide through the interpreter's
//! own [`Scalar::compare`] and [`BinOp::truth`]. Every other node runs
//! the interpreter ([`ResolvedExpr::eval_bool_by`]) on the rows that reach
//! it, through the block's one per-row accessor, [`JoinedBlock::value`].
//! The group fold reads plain slots through [`JoinedColumn`], which turns
//! each chunk's string dictionary into key parts once per window.

use std::borrow::Cow;
use std::cell::OnceCell;
use std::cmp::Ordering;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::Arc;

use scrub_core::columnar::{Column, ColumnChunk, ColumnData};
use scrub_core::event::FieldSlot;
use scrub_core::expr::{BinOp, ResolvedExpr, UnaryOp};
use scrub_core::plan::CentralPlan;
use scrub_core::value::{Scalar, Value};

use crate::groups::{col_part, dict_parts, Part};

/// Where a joined-row slot lives: which input's block, and which field
/// of it ([`FieldSlot::of`] over the input's projected fields).
#[derive(Debug, Clone, Copy)]
pub(crate) struct SlotSrc {
    pub(crate) input: usize,
    pub(crate) col: FieldSlot,
}

/// The slot → source table of a plan's joined-row layout (`None` for a
/// slot no input block covers).
pub(crate) fn slot_table(plan: &CentralPlan) -> Arc<[Option<SlotSrc>]> {
    let mut slots = vec![None; plan.row_width];
    for (input, spec) in plan.inputs.iter().enumerate() {
        let nfields = spec.fields.len();
        for pos in 0..nfields + 2 {
            if let Some(slot) = slots.get_mut(spec.block_offset + pos) {
                let col = FieldSlot::of(pos, nfields);
                *slot = Some(SlotSrc { input, col });
            }
        }
    }
    slots.into()
}

/// One slot of a chunk row, lent where the chunk already holds a `Value`.
/// A short chunk (arity below the plan's fields) reads `Null`; extra
/// trailing columns are never addressed.
pub(crate) fn chunk_value(chunk: &ColumnChunk, row: usize, col: FieldSlot) -> Cow<'_, Value> {
    match col {
        FieldSlot::User(i) => match chunk.columns.get(i) {
            Some(column) => column.value_ref(row),
            None => Cow::Owned(Value::Null),
        },
        FieldSlot::RequestId => Cow::Owned(Value::Long(chunk.request_ids[row] as i64)),
        FieldSlot::Timestamp => Cow::Owned(Value::DateTime(chunk.timestamps[row])),
    }
}

/// One side of a joined row: row `row` of the window's chunk `chunk`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct At {
    /// Index into the window's chunks.
    pub chunk: u32,
    /// Row within that chunk.
    pub row: u32,
}

/// Ids of blocks, each naming one set of chunks (0 is no block).
static BLOCKS: AtomicU64 = AtomicU64::new(1);

/// A block of joined rows over one closing window's chunks: per side, the
/// block's rows in enumeration order.
pub struct JoinedBlock<'w> {
    /// Unique per block, so a group table tells chunk indices of
    /// different blocks apart.
    id: u64,
    chunks: &'w [Arc<ColumnChunk>],
    slots: Arc<[Option<SlotSrc>]>,
    gathers: Vec<Vec<At>>,
    /// Key parts of chunk `c`'s column `i` dictionary at `c * width + i`,
    /// built on first read and kept for the window's probe.
    dicts: Vec<OnceCell<Vec<Part>>>,
    /// The most user fields any input projects.
    width: usize,
}

impl<'w> JoinedBlock<'w> {
    /// An empty block over `chunks`, laid out as `plan`'s joined rows.
    pub fn new(plan: &CentralPlan, chunks: &'w [Arc<ColumnChunk>]) -> Self {
        let width = plan
            .inputs
            .iter()
            .map(|i| i.fields.len())
            .max()
            .unwrap_or(0);
        JoinedBlock {
            id: BLOCKS.fetch_add(1, AtomicOrdering::Relaxed),
            chunks,
            slots: slot_table(plan),
            gathers: vec![Vec::new(); plan.inputs.len()],
            dicts: (0..chunks.len() * width).map(|_| OnceCell::new()).collect(),
            width,
        }
    }

    /// Rows in the block.
    pub fn len(&self) -> usize {
        self.gathers.first().map_or(0, Vec::len)
    }

    /// True when the block holds no row.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append one joined row: where each side's event lives, in input
    /// order.
    pub fn push(&mut self, row: impl IntoIterator<Item = At>) {
        for (gather, at) in self.gathers.iter_mut().zip(row) {
            gather.push(at);
        }
    }

    /// Drop every row, keeping the capacity.
    pub fn clear(&mut self) {
        self.gathers.iter_mut().for_each(Vec::clear);
    }

    /// Keep only the rows `keep` names (ascending), in their order.
    pub(crate) fn retain_rows(&mut self, keep: &[u32]) {
        for gather in &mut self.gathers {
            for (n, &j) in keep.iter().enumerate() {
                gather[n] = gather[j as usize];
            }
            gather.truncate(keep.len());
        }
    }

    /// Slot `slot` of row `j`, lent from the chunk where it holds a
    /// `Value`: the interpreter's accessor.
    pub fn value(&self, j: usize, slot: usize) -> Cow<'w, Value> {
        match self.slots.get(slot) {
            Some(&Some(src)) => {
                let (chunk, row) = self.locate(j, src.input);
                chunk_value(chunk, row, src.col)
            }
            _ => Cow::Owned(Value::Null),
        }
    }

    /// The typed column behind a plain user-field slot, if `slot` is one.
    pub fn column(&self, slot: usize) -> Option<JoinedColumn<'_>> {
        match self.slots.get(slot) {
            Some(&Some(SlotSrc {
                input,
                col: FieldSlot::User(col),
            })) => Some(JoinedColumn {
                block: self.id,
                rows: &self.gathers[input],
                chunks: self.chunks,
                dicts: &self.dicts,
                width: self.width,
                col,
            }),
            _ => None,
        }
    }

    fn locate(&self, j: usize, side: usize) -> (&'w ColumnChunk, usize) {
        let at = self.gathers[side][j];
        (&self.chunks[at.chunk as usize], at.row as usize)
    }

    /// Slot `src` of row `j`, as the comparison kernels read it.
    fn scalar(&self, j: usize, src: SlotSrc) -> Scalar<'w> {
        let (chunk, row) = self.locate(j, src.input);
        match src.col {
            FieldSlot::User(i) => chunk.columns.get(i).map_or(Scalar::Null, |c| c.scalar(row)),
            FieldSlot::RequestId => Scalar::Num(chunk.request_ids[row] as i64 as f64),
            FieldSlot::Timestamp => Scalar::Num(chunk.timestamps[row] as f64),
        }
    }

    /// Keep the rows of `sel` (ascending) at which `e` evaluates to
    /// `Bool(true)`, exactly as [`ResolvedExpr::eval_bool_by`] over
    /// [`Self::value`] decides it.
    pub(crate) fn keep_true(&self, e: &ResolvedExpr, sel: &mut Vec<u32>) {
        match e {
            ResolvedExpr::Binary {
                op: BinOp::And,
                lhs,
                rhs,
            } => {
                self.keep_true(lhs, sel);
                self.keep_true(rhs, sel);
            }
            ResolvedExpr::Binary {
                op: BinOp::Or,
                lhs,
                rhs,
            } => {
                // the rows the left side keeps, and the right side's keepers
                // among the others
                let mut held = sel.clone();
                self.keep_true(lhs, &mut held);
                let mut mark = marks(self.len(), &held);
                let mut rest = sel.clone();
                compact(&mut rest, |_, j| !mark[j as usize]);
                self.keep_true(rhs, &mut rest);
                rest.iter().for_each(|&j| mark[j as usize] = true);
                compact(sel, |_, j| mark[j as usize]);
            }
            // NOT holds where its operand is `Bool(false)`: for an operand
            // that is always a boolean, where the operand does not hold
            ResolvedExpr::Unary {
                op: UnaryOp::Not,
                expr,
            } if always_bool(expr) => {
                let mut held = sel.clone();
                self.keep_true(expr, &mut held);
                let mark = marks(self.len(), &held);
                compact(sel, |_, j| !mark[j as usize]);
            }
            ResolvedExpr::Binary { op, lhs, rhs } if op.is_comparison() => {
                match (self.operand(lhs), self.operand(rhs)) {
                    (Some(a), Some(b)) => {
                        let holds = op.truth();
                        let test = |o: Ordering| holds[(o as i8 + 1) as usize];
                        match (self.cells(a, sel), self.cells(b, sel)) {
                            (Cells::Nums(x), Cells::Nums(y)) => {
                                compact(sel, |n, _| test(x[n].total_cmp(&y[n])))
                            }
                            (Cells::Nums(x), Cells::One(Scalar::Num(y))) => {
                                compact(sel, |n, _| test(x[n].total_cmp(&y)))
                            }
                            (Cells::One(Scalar::Num(x)), Cells::Nums(y)) => {
                                compact(sel, |n, _| test(x.total_cmp(&y[n])))
                            }
                            (a, b) => {
                                compact(sel, |n, _| a.at(n).compare(b.at(n)).is_some_and(test))
                            }
                        }
                    }
                    _ => self.interpret(e, sel),
                }
            }
            _ => self.interpret(e, sel),
        }
    }

    fn interpret(&self, e: &ResolvedExpr, sel: &mut Vec<u32>) {
        sel.retain(|&j| e.eval_bool_by(&|slot| self.value(j as usize, slot)));
    }

    /// A comparison operand the kernels read typed: a slot or a literal.
    fn operand<'e>(&self, e: &'e ResolvedExpr) -> Option<Operand<'e>> {
        match e {
            ResolvedExpr::Input(slot) => {
                Some(Operand::Slot(self.slots.get(*slot).copied().flatten()))
            }
            ResolvedExpr::Literal(v) => Some(Operand::Lit(v.scalar())),
            _ => None,
        }
    }

    /// An operand's cells at the rows of `sel`: a literal once, a slot
    /// row by row.
    fn cells<'a>(&self, o: Operand<'a>, sel: &[u32]) -> Cells<'a>
    where
        'w: 'a,
    {
        let src = match o {
            Operand::Lit(c) => return Cells::One(c),
            Operand::Slot(None) => return Cells::One(Scalar::Null),
            Operand::Slot(Some(src)) => src,
        };
        if let Some(nums) = self.numbers(src, sel) {
            return Cells::Nums(nums);
        }
        Cells::Each(sel.iter().map(|&j| self.scalar(j as usize, src)).collect())
    }

    /// Slot `src` at the rows of `sel` as numbers, when every chunk they
    /// come from holds it in a numeric column without nulls. Each run of
    /// rows in one chunk finds its column once.
    fn numbers(&self, src: SlotSrc, sel: &[u32]) -> Option<Vec<f64>> {
        let gather = &self.gathers[src.input];
        let mut nums = Vec::with_capacity(sel.len());
        let mut rest = sel;
        while let Some(&first) = rest.first() {
            let c = gather[first as usize].chunk;
            let run = rest.iter().take_while(|&&j| gather[j as usize].chunk == c);
            let (run, tail) = rest.split_at(run.count());
            rest = tail;
            let rows = run.iter().map(|&j| gather[j as usize].row as usize);
            let chunk = &self.chunks[c as usize];
            let col = match src.col {
                FieldSlot::User(i) => chunk.columns.get(i).filter(|c| c.validity.is_none())?,
                FieldSlot::RequestId => {
                    nums.extend(rows.map(|r| chunk.request_ids[r] as i64 as f64));
                    continue;
                }
                FieldSlot::Timestamp => {
                    nums.extend(rows.map(|r| chunk.timestamps[r] as f64));
                    continue;
                }
            };
            match &col.data {
                ColumnData::Long(v) | ColumnData::DateTime(v) => {
                    nums.extend(rows.map(|r| v[r] as f64))
                }
                ColumnData::Double(v) => nums.extend(rows.map(|r| v[r])),
                ColumnData::Int(v) => nums.extend(rows.map(|r| v[r] as f64)),
                ColumnData::Float(v) => nums.extend(rows.map(|r| v[r] as f64)),
                ColumnData::Bool(v) => nums.extend(rows.map(|r| if v[r] { 1.0 } else { 0.0 })),
                ColumnData::Null | ColumnData::Str { .. } | ColumnData::Mixed(_) => return None,
            }
        }
        Some(nums)
    }
}

/// An operand's cells over a selection.
enum Cells<'a> {
    /// A literal, or a slot no input covers: the same at every row.
    One(Scalar<'a>),
    /// Every row a number.
    Nums(Vec<f64>),
    Each(Vec<Scalar<'a>>),
}

impl<'a> Cells<'a> {
    fn at(&self, n: usize) -> Scalar<'a> {
        match self {
            Cells::One(c) => *c,
            Cells::Nums(v) => Scalar::Num(v[n]),
            Cells::Each(cs) => cs[n],
        }
    }
}

/// Plain user-field slot `col` of one side of a [`JoinedBlock`]: row `r`
/// of the block reads that column of the chunk the side's gather names.
#[derive(Clone, Copy)]
pub struct JoinedColumn<'c> {
    block: u64,
    rows: &'c [At],
    chunks: &'c [Arc<ColumnChunk>],
    dicts: &'c [OnceCell<Vec<Part>>],
    width: usize,
    col: usize,
}

impl<'c> JoinedColumn<'c> {
    /// The id of the block read.
    pub(crate) fn block(&self) -> u64 {
        self.block
    }

    /// The column and row block row `r` reads; `None` where the chunk is
    /// short of the column.
    fn at(&self, r: usize) -> Option<(&'c Column, usize)> {
        let at = self.rows[r];
        let column = self.chunks[at.chunk as usize].columns.get(self.col)?;
        Some((column, at.row as usize))
    }

    /// The group-key part of every block row, and its source: for a
    /// string, the chunk and dictionary entry it is (`chunk << 32 |
    /// entry`), else `u64::MAX`. The column and its dictionary's parts are
    /// found once per run of rows in one chunk.
    pub(crate) fn parts(&self) -> (Vec<Part>, Vec<u64>) {
        let mut parts = Vec::with_capacity(self.rows.len());
        let mut sources = Vec::with_capacity(self.rows.len());
        for run in self.rows.chunk_by(|a, b| a.chunk == b.chunk) {
            let chunk = run[0].chunk as usize;
            let column = self.chunks[chunk].columns.get(self.col);
            let (column, idx) = match column.map(|c| (c, &c.data)) {
                Some((column, ColumnData::Str { idx, .. })) => (column, &idx[..]),
                Some((column, _)) => (column, &[][..]),
                None => {
                    parts.resize(parts.len() + run.len(), Part::Null);
                    sources.resize(sources.len() + run.len(), u64::MAX);
                    continue;
                }
            };
            let dict: &[Part] = match idx {
                [] => &[],
                _ => self.dicts[chunk * self.width + self.col].get_or_init(|| dict_parts(column)),
            };
            for at in run {
                let row = at.row as usize;
                let part = col_part(column, dict, row);
                parts.push(part);
                sources.push(match (part, idx.get(row)) {
                    (Part::Str(_), Some(&entry)) => (chunk as u64) << 32 | entry as u64,
                    _ => u64::MAX,
                });
            }
        }
        (parts, sources)
    }

    /// Block row `r`'s value as a number, if it is one.
    pub(crate) fn f64(&self, r: usize) -> Option<f64> {
        let (column, row) = self.at(r)?;
        column.scalar(row).num()
    }

    /// Block row `r`'s value, lent where the chunk holds a `Value`.
    pub(crate) fn value(&self, r: usize) -> Cow<'c, Value> {
        match self.at(r) {
            Some((column, row)) => column.value_ref(row),
            None => Cow::Owned(Value::Null),
        }
    }
}

#[derive(Clone, Copy)]
enum Operand<'e> {
    Slot(Option<SlotSrc>),
    Lit(Scalar<'e>),
}

/// Nodes whose value is a boolean whatever their operands.
fn always_bool(e: &ResolvedExpr) -> bool {
    match e {
        ResolvedExpr::Binary { op, .. } => {
            op.is_comparison() || matches!(op, BinOp::And | BinOp::Or)
        }
        ResolvedExpr::Unary { op, .. } => *op == UnaryOp::Not,
        ResolvedExpr::IsNull { .. } | ResolvedExpr::InList { .. } => true,
        _ => false,
    }
}

/// A flag per block row, set at the rows of `sel`.
fn marks(rows: usize, sel: &[u32]) -> Vec<bool> {
    let mut mark = vec![false; rows];
    sel.iter().for_each(|&j| mark[j as usize] = true);
    mark
}

/// Keep the rows `j` of `sel` (the `n`th) at which `keep(n, j)` holds, in
/// order. The outcome is data, so the loop takes no branch on it.
#[inline(always)]
fn compact(sel: &mut Vec<u32>, mut keep: impl FnMut(usize, u32) -> bool) {
    let mut kept = 0;
    for n in 0..sel.len() {
        let j = sel[n];
        sel[kept] = j;
        kept += keep(n, j) as usize;
    }
    sel.truncate(kept);
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;
    use scrub_core::config::ScrubConfig;
    use scrub_core::expr::ScalarFn;
    use scrub_core::plan::{compile, QueryId};
    use scrub_core::ql::parser::parse_query;
    use scrub_core::schema::{EventSchema, EventTypeId, FieldDef, FieldType, SchemaRegistry};

    use super::*;

    /// Fields per input; each input block is `[p, q, s, request_id,
    /// timestamp]`.
    const FIELDS: usize = 3;

    fn plan(sides: usize) -> CentralPlan {
        let reg = SchemaRegistry::new();
        let names = ["a", "b", "c"];
        for name in names {
            let fields = vec![
                FieldDef::new("p", FieldType::Long),
                FieldDef::new("q", FieldType::Double),
                FieldDef::new("s", FieldType::Str),
            ];
            reg.register(EventSchema::new(name, fields).unwrap())
                .unwrap();
        }
        let names = &names[..sides];
        let select: Vec<String> = names
            .iter()
            .flat_map(|n| ["p", "q", "s"].map(|f| format!("{n}.{f}")))
            .collect();
        let src = format!("select {} from {}", select.join(", "), names.join(", "));
        let cq = compile(
            &parse_query(&src).unwrap(),
            &reg,
            &ScrubConfig::default(),
            QueryId(1),
        )
        .unwrap();
        assert_eq!(cq.central.row_width, sides * (FIELDS + 2));
        cq.central
    }

    /// The values a column of each kind draws from: the edges of every
    /// numeric type, where `as_f64` rounds, and multi-byte strings.
    fn pool(kind: usize) -> Vec<Value> {
        let big = 1i64 << 53;
        match kind {
            0 => vec![Value::Null],
            1 => vec![Value::Bool(false), Value::Bool(true)],
            2 => [0, -1, 7, i32::MIN, i32::MAX].map(Value::Int).to_vec(),
            3 => [0, 1, -1, i64::MIN, i64::MAX, big, big + 1]
                .map(Value::Long)
                .to_vec(),
            4 => [f32::NAN, 0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, 1.5]
                .map(Value::Float)
                .to_vec(),
            5 => [
                f64::NAN,
                -f64::NAN,
                0.0,
                -0.0,
                f64::INFINITY,
                f64::NEG_INFINITY,
                1.5,
                big as f64,
                -2.5,
            ]
            .map(Value::Double)
            .to_vec(),
            6 => [0, -1, big, i64::MAX].map(Value::DateTime).to_vec(),
            7 => ["", "a", "ab", "b", "é", "日本", "a\0"]
                .map(|s| Value::Str(s.into()))
                .to_vec(),
            _ => {
                let mut mixed: Vec<Value> = (0..8).flat_map(pool).collect();
                mixed.push(Value::List(vec![]));
                mixed.push(Value::List(vec![Value::Long(1)]));
                mixed.push(Value::Nested(vec![("k".into(), Value::Long(1))]));
                mixed
            }
        }
    }

    /// A column of `kind` (`pool`'s numbering, 8 for mixed) picking
    /// `picks` from its pool, null where `nulls` says.
    fn column(kind: usize, picks: &[usize], nulls: Option<Vec<bool>>) -> Column {
        let vals: Vec<Value> = {
            let pool = pool(kind);
            picks.iter().map(|p| pool[p % pool.len()].clone()).collect()
        };
        let data = match kind {
            0 => ColumnData::Null,
            1 => ColumnData::Bool(vals.iter().map(|v| v.as_bool().unwrap()).collect()),
            2 => ColumnData::Int(vals.iter().map(|v| v.as_i64().unwrap() as i32).collect()),
            3 => ColumnData::Long(vals.iter().map(|v| v.as_i64().unwrap()).collect()),
            4 => ColumnData::Float(vals.iter().map(|v| v.as_f64().unwrap() as f32).collect()),
            5 => ColumnData::Double(vals.iter().map(|v| v.as_f64().unwrap()).collect()),
            6 => ColumnData::DateTime(vals.iter().map(|v| v.as_i64().unwrap()).collect()),
            7 => {
                let dict = pool(7);
                let idx = picks.iter().map(|p| (p % dict.len()) as u32).collect();
                ColumnData::Str { dict, idx }
            }
            _ => ColumnData::Mixed(vals),
        };
        Column {
            validity: nulls,
            data,
        }
    }

    /// Rows of a chunk at most; a spec is cut down to its `rows`.
    const MAX_ROWS: usize = 6;

    #[derive(Debug, Clone)]
    struct ColSpec {
        kind: usize,
        picks: Vec<usize>,
        nulls: Option<Vec<bool>>,
    }

    #[derive(Debug, Clone)]
    struct ChunkSpec {
        rows: usize,
        /// Per row: request id and timestamp picks.
        system: Vec<(usize, usize)>,
        /// Fewer than `FIELDS` makes a short chunk.
        columns: Vec<ColSpec>,
    }

    fn arb_chunk() -> impl Strategy<Value = ChunkSpec> {
        let col = (
            0usize..9,
            prop::collection::vec(0usize..64, MAX_ROWS),
            // validity bitmaps on about half the columns
            prop_oneof![
                Just(None),
                prop::option::of(prop::collection::vec(any::<bool>(), MAX_ROWS)),
            ],
        )
            .prop_map(|(kind, picks, nulls)| ColSpec { kind, picks, nulls });
        (
            1..=MAX_ROWS,
            prop::collection::vec((0usize..8, 0usize..8), MAX_ROWS),
            // one chunk in four is short
            prop_oneof![Just(FIELDS), Just(FIELDS), Just(FIELDS), 0..FIELDS],
            prop::collection::vec(col, FIELDS),
        )
            .prop_map(|(rows, system, width, mut columns)| {
                columns.truncate(width);
                ChunkSpec {
                    rows,
                    system,
                    columns,
                }
            })
    }

    fn build(spec: &ChunkSpec, side: usize) -> ColumnChunk {
        let big = 1u64 << 53;
        let rids = [0, 1, u64::MAX, big, big + 1, i64::MAX as u64 + 1, 7, 8];
        let times = [0, -1, i64::MIN, i64::MAX, big as i64, 5, 6, 7];
        let rows = spec.rows;
        ColumnChunk {
            type_id: EventTypeId(side as u32),
            request_ids: spec.system[..rows].iter().map(|&(r, _)| rids[r]).collect(),
            timestamps: spec.system[..rows].iter().map(|&(_, t)| times[t]).collect(),
            columns: spec
                .columns
                .iter()
                .map(|c| {
                    let nulls = c.nulls.as_ref().map(|n| n[..rows].to_vec());
                    column(c.kind, &c.picks[..rows], nulls)
                })
                .collect(),
        }
    }

    fn literal() -> impl Strategy<Value = ResolvedExpr> {
        (0usize..9, 0usize..64).prop_map(|(kind, pick)| {
            let pool = pool(kind);
            ResolvedExpr::Literal(pool[pick % pool.len()].clone())
        })
    }

    fn binary(op: BinOp, lhs: ResolvedExpr, rhs: ResolvedExpr) -> ResolvedExpr {
        ResolvedExpr::Binary {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        }
    }

    /// Resolved predicates over slots `0..=width` (one past the row, which
    /// no input covers), shaped as a residual is: AND, OR and NOT over
    /// atoms. An atom is one of the six comparisons, IS NULL, IN, or a
    /// bare operand; an operand is a slot, a literal, arithmetic over
    /// them, or a call.
    fn arb_expr(width: usize) -> impl Strategy<Value = ResolvedExpr> {
        let leaf = prop_oneof![
            (0..=width).prop_map(ResolvedExpr::Input),
            (0..=width).prop_map(ResolvedExpr::Input),
            literal(),
        ];
        let arith = [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div, BinOp::Mod];
        let funcs = [ScalarFn::Abs, ScalarFn::Length, ScalarFn::Lower];
        let operand = prop_oneof![
            leaf.clone(),
            leaf.clone(),
            leaf.clone(),
            (0..arith.len(), leaf.clone(), leaf.clone())
                .prop_map(move |(op, l, r)| binary(arith[op], l, r)),
            (0..funcs.len(), leaf).prop_map(move |(f, e)| ResolvedExpr::Call {
                func: funcs[f],
                args: vec![e],
            }),
        ];
        let cmp = [
            BinOp::Eq,
            BinOp::Ne,
            BinOp::Lt,
            BinOp::Le,
            BinOp::Gt,
            BinOp::Ge,
        ];
        let comparison = (0..cmp.len(), operand.clone(), operand.clone())
            .prop_map(move |(op, l, r)| binary(cmp[op], l, r));
        let list = prop::collection::vec(literal(), 0..3).prop_map(|list| {
            list.into_iter()
                .map(|l| match l {
                    ResolvedExpr::Literal(v) => v,
                    _ => unreachable!("literal() builds literals"),
                })
                .collect()
        });
        let atom = prop_oneof![
            comparison.clone(),
            comparison.clone(),
            comparison.clone(),
            comparison,
            (operand.clone(), any::<bool>()).prop_map(|(e, negated)| ResolvedExpr::IsNull {
                expr: Box::new(e),
                negated,
            }),
            (operand.clone(), list, any::<bool>()).prop_map(|(e, list, negated)| {
                ResolvedExpr::InList {
                    expr: Box::new(e),
                    list,
                    negated,
                }
            }),
            operand,
        ];
        atom.prop_recursive(3, 16, 2, |inner| {
            prop_oneof![
                (inner.clone(), inner.clone()).prop_map(|(l, r)| binary(BinOp::And, l, r)),
                (inner.clone(), inner.clone()).prop_map(|(l, r)| binary(BinOp::Or, l, r)),
                inner.prop_map(|e| ResolvedExpr::Unary {
                    op: UnaryOp::Not,
                    expr: Box::new(e),
                }),
            ]
        })
    }

    #[derive(Debug, Clone)]
    struct Case {
        sides: usize,
        /// Per side, its chunks.
        chunks: Vec<Vec<ChunkSpec>>,
        /// Per block row, per side: which chunk of the side, which row.
        rows: Vec<Vec<(usize, usize)>>,
        /// Block rows the residual starts from.
        selected: Vec<bool>,
        expr: ResolvedExpr,
    }

    fn arb_case() -> impl Strategy<Value = Case> {
        (
            2usize..=3,
            prop::collection::vec(prop::collection::vec(arb_chunk(), 1..4), 3),
            prop::collection::vec(prop::collection::vec((0usize..8, 0usize..8), 3), 0..40),
            prop::collection::vec(0u8..5, 40),
            // slots past a 2-input row are covered by no input
            arb_expr(3 * (FIELDS + 2)),
        )
            .prop_map(|(sides, mut chunks, rows, selected, expr)| {
                chunks.truncate(sides);
                Case {
                    sides,
                    chunks,
                    rows,
                    // four block rows in five start selected
                    selected: selected.iter().map(|&p| p > 0).collect(),
                    expr,
                }
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The block residual keeps exactly the rows at which the
        /// interpreter, reading the block's per-row accessor, says true;
        /// and a plain slot's gathered column reads what that accessor
        /// reads.
        #[test]
        fn block_residual_matches_the_interpreter(case in arb_case()) {
            let plan = plan(case.sides);
            let mut chunks = Vec::new();
            let mut first = Vec::new();
            for (side, specs) in case.chunks.iter().enumerate() {
                first.push(chunks.len());
                chunks.extend(specs.iter().map(|s| Arc::new(build(s, side))));
            }
            let mut block = JoinedBlock::new(&plan, &chunks);
            for row in &case.rows {
                block.push(row.iter().take(case.sides).enumerate().map(|(side, &(c, r))| {
                    let chunk = first[side] + c % case.chunks[side].len();
                    let rows = chunks[chunk].len();
                    At { chunk: chunk as u32, row: (r % rows) as u32 }
                }));
            }
            let sel: Vec<u32> = (0..block.len() as u32)
                .filter(|&j| case.selected[j as usize])
                .collect();
            let want: Vec<u32> = sel
                .iter()
                .copied()
                .filter(|&j| case.expr.eval_bool_by(&|s| block.value(j as usize, s)))
                .collect();
            let mut got = sel.clone();
            block.keep_true(&case.expr, &mut got);
            prop_assert_eq!(got, want, "{:?}", case.expr);

            for slot in 0..plan.row_width {
                let Some(col) = block.column(slot) else { continue };
                let (parts, _) = col.parts();
                for (j, part) in parts.into_iter().enumerate() {
                    let v = block.value(j, slot);
                    // by group key: NaN is no `==` to itself
                    prop_assert_eq!(col.value(j).group_key(), v.group_key());
                    prop_assert_eq!(part, Part::of(&v));
                    prop_assert_eq!(col.f64(j).map(f64::to_bits), v.as_f64().map(f64::to_bits));
                }
            }
        }
    }
}
