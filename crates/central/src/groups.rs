//! One window's groups at ScrubCentral: typed group keys hashed into a
//! dense array of group states.
//!
//! A row's key is one typed part per group-by expression: integral values
//! (bool, int, long, datetime) as their `i64`, floats as their `f64` bit
//! pattern, strings and nested values as a hash of their canonical form
//! that a lookup confirms against the group's first-seen value. Two keys
//! are equal exactly when their [`GroupKey`]s are, and a closing window
//! renders in `GroupKey` order ([`GroupTable::into_sorted`]), so the rows
//! a window emits do not depend on how it was keyed.
//!
//! A fold resolves its rows to group ids first, then folds each aggregate
//! column-wise over them ([`FoldSource`]): a plain-slot key or argument
//! reads the typed column, of a decoded chunk or gathered over a joined
//! block's chunks, and a chunk's string dictionary is hashed once per
//! entry, not once per row. A group remembers which joined-block chunk and
//! dictionary entry its last row's string came from, so a row from the
//! same entry skips the comparison that confirms a hash match, and with a
//! one-part key the hash and the lookup too.
//!
//! The `max_groups` cap keeps the smallest keys: a new key past a full
//! table's largest is dropped with its row, a smaller one evicts the
//! largest group (whose rows count as dropped). Kept set and dropped-row
//! count depend on the key values alone. The largest group is found
//! through a max-heap built the first time the cap binds; an eviction
//! reuses the evicted group's slot, so each costs `O(log cap)`.
//!
//! [`GroupKey`]: scrub_core::value::GroupKey

use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;
use std::sync::OnceLock;

use scrub_core::columnar::{Column, ColumnData};
use scrub_core::expr::ResolvedExpr;
use scrub_core::plan::AggSpec;
use scrub_core::value::Value;

use crate::agg::AggState;
use crate::joined::JoinedColumn;

/// Per-(window, group) state.
#[derive(Debug, Clone)]
pub struct GroupState {
    /// Group key values as first seen (for output).
    pub keys: Vec<Value>,
    /// One state per aggregate in the plan.
    pub aggs: Vec<AggState>,
    /// Rows folded into this group (when a group is evicted by the
    /// `max_groups` cap these rows become `groups_overflow`).
    pub rows: u64,
}

/// One typed part of a group key. Equal parts mean equal `GroupKey`s,
/// except that `Str` and `Nested` carry only a hash of the value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Part {
    /// Null.
    Null,
    /// Bool, int, long or datetime.
    Int(i64),
    /// Float or double, by bit pattern.
    Bits(u64),
    /// String, by hash.
    Str(u64),
    /// List or nested object, by hash of its canonical form.
    Nested(u64),
}

impl Part {
    /// The part of a value's group key.
    pub(crate) fn of(v: &Value) -> Part {
        match v {
            Value::Null => Part::Null,
            Value::Bool(b) => Part::Int(*b as i64),
            Value::Int(x) => Part::Int(*x as i64),
            Value::Long(x) | Value::DateTime(x) => Part::Int(*x),
            Value::Float(x) => Part::Bits((*x as f64).to_bits()),
            Value::Double(x) => Part::Bits(x.to_bits()),
            Value::Str(s) => Part::Str(hash_bytes(s.as_bytes())),
            Value::List(_) | Value::Nested(_) => Part::Nested(hash_value(seed(), v)),
        }
    }

    /// `GroupKey`'s variant order; lists and maps share a rank here.
    fn rank(self) -> u64 {
        match self {
            Part::Null => 0,
            Part::Int(_) => 1,
            Part::Bits(_) => 2,
            Part::Str(_) => 3,
            Part::Nested(_) => 4,
        }
    }

    /// Equality of the parts alone settles equality of the values.
    fn exact(self) -> bool {
        !matches!(self, Part::Str(_) | Part::Nested(_))
    }

    fn word(self) -> u64 {
        match self {
            Part::Null => 0,
            Part::Int(x) => x as u64,
            Part::Bits(x) | Part::Str(x) | Part::Nested(x) => x,
        }
    }
}

/// A random seed per process for every key hash: keys come from the
/// monitored application, and whoever picks them must not be able to pick
/// keys that share an index slot. Outputs never depend on hash values.
fn seed() -> u64 {
    static SEED: OnceLock<u64> = OnceLock::new();
    *SEED.get_or_init(|| RandomState::new().hash_one(0u64))
}

fn mix(h: u64, w: u64) -> u64 {
    (h.rotate_left(5) ^ w).wrapping_mul(0x517c_c1b7_2722_0a95)
}

fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut words = bytes.chunks_exact(8);
    let mut h = mix(seed(), bytes.len() as u64);
    for w in &mut words {
        h = mix(h, u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
    }
    let mut tail = [0u8; 8];
    tail[..words.remainder().len()].copy_from_slice(words.remainder());
    mix(h, u64::from_le_bytes(tail))
}

/// Hash of a value's canonical `GroupKey` form.
fn hash_value(h: u64, v: &Value) -> u64 {
    match v {
        Value::List(vs) => vs.iter().fold(mix(mix(h, 5), vs.len() as u64), hash_value),
        Value::Nested(kv) => kv
            .iter()
            .fold(mix(mix(h, 6), kv.len() as u64), |h, (k, v)| {
                hash_value(mix(h, hash_bytes(k.as_bytes())), v)
            }),
        v => {
            let p = Part::of(v);
            mix(mix(h, p.rank()), p.word())
        }
    }
}

fn hash_key(parts: &[Part]) -> u64 {
    let h = parts
        .iter()
        .fold(seed(), |h, p| mix(mix(h, p.rank()), p.word()));
    // the index reads the top bits: spread every input bit into them
    let h = (h ^ (h >> 33)).wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^ (h >> 33)
}

/// `a.group_key().cmp(&b.group_key())`, without building either key.
fn key_cmp(a: &Value, b: &Value) -> Ordering {
    let rank = |v: &Value| match v {
        Value::Null => 0,
        Value::Bool(_) | Value::Int(_) | Value::Long(_) | Value::DateTime(_) => 1,
        Value::Float(_) | Value::Double(_) => 2,
        Value::Str(_) => 3,
        Value::List(_) => 4,
        Value::Nested(_) => 5,
    };
    rank(a).cmp(&rank(b)).then_with(|| match (a, b) {
        (Value::Str(x), Value::Str(y)) => x.cmp(y),
        (Value::List(x), Value::List(y)) => x
            .iter()
            .zip(y)
            .map(|(p, q)| key_cmp(p, q))
            .find(|o| o.is_ne())
            .unwrap_or_else(|| x.len().cmp(&y.len())),
        (Value::Nested(x), Value::Nested(y)) => x
            .iter()
            .zip(y)
            .map(|((kp, p), (kq, q))| kp.cmp(kq).then_with(|| key_cmp(p, q)))
            .find(|o| o.is_ne())
            .unwrap_or_else(|| x.len().cmp(&y.len())),
        _ => match (Part::of(a), Part::of(b)) {
            (Part::Int(x), Part::Int(y)) => x.cmp(&y),
            (p, q) => p.word().cmp(&q.word()),
        },
    })
}

/// `GroupKey` order of two keys given as parts, with a reader of each
/// key's values for the parts that only hash them.
fn cmp_key<'a, 'b>(
    a: &[Part],
    va: impl Fn(usize) -> Cow<'a, Value>,
    b: &[Part],
    vb: impl Fn(usize) -> Cow<'b, Value>,
) -> Ordering {
    for (k, (pa, pb)) in a.iter().zip(b).enumerate() {
        let o = match (pa, pb) {
            (Part::Int(x), Part::Int(y)) => x.cmp(y),
            (Part::Bits(x), Part::Bits(y)) => x.cmp(y),
            (Part::Str(_), Part::Str(_)) | (Part::Nested(_), Part::Nested(_)) => {
                key_cmp(&va(k), &vb(k))
            }
            _ => pa.rank().cmp(&pb.rank()),
        };
        if o.is_ne() {
            return o;
        }
    }
    Ordering::Equal
}

/// A key value's source when nothing names it exactly.
const NO_SOURCE: u64 = u64::MAX;

/// Entries of [`FoldSource`]'s source → group memo (a power of two: the
/// index is the top bits of a multiplicative hash).
const SEEN: usize = 64;

/// A slot in [`GroupTable::slots`] holding no group.
const EMPTY: u32 = u32::MAX;

/// One window's groups: key parts, hashes and states in group-id order,
/// found through an open-addressed index.
#[derive(Debug)]
pub struct GroupTable {
    width: usize,
    /// Key parts, `width` per group.
    parts: Vec<Part>,
    /// Per key part, the source of the value the group's last row had
    /// there ([`FoldSource::source`]): a row from the same source has the
    /// same value, so its lookup skips comparing the values. Kept only
    /// while the table folds a joined block, empty otherwise.
    sources: Vec<u64>,
    /// The joined block whose chunks `sources` name (0 for none).
    scope: u64,
    hashes: Vec<u64>,
    states: Vec<GroupState>,
    /// Group ids by key hash, linear probing; a power of two in length
    /// (or empty), at most half full.
    slots: Vec<u32>,
    /// Group ids as a max-heap in key order, once the cap has bound.
    heap: Vec<u32>,
}

impl GroupTable {
    /// An empty table for keys of `width` parts (0 for one global group).
    pub fn new(width: usize) -> Self {
        GroupTable {
            width,
            parts: Vec::new(),
            sources: Vec::new(),
            scope: 0,
            hashes: Vec::new(),
            states: Vec::new(),
            slots: Vec::new(),
            heap: Vec::new(),
        }
    }

    /// Groups held.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// True when no group is held.
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// Fold `rows` of `src`, in order, holding the table to at most `cap`
    /// groups (keeping the smallest keys). Returns the rows the cap
    /// dropped: rows rejected outright plus the rows of evicted groups.
    ///
    /// Rows are resolved to groups first and folded per aggregate in
    /// runs; a run ends where an eviction would reuse a group slot, so
    /// every row folds into the group its key named. Once `src` has
    /// folded a run as long, folding into groups that already exist
    /// allocates nothing.
    pub fn fold<'c, F>(
        &mut self,
        cap: usize,
        rows: impl IntoIterator<Item = u32>,
        src: &mut FoldSource<'c, F>,
    ) -> u64
    where
        F: Fn(usize, usize) -> Cow<'c, Value>,
    {
        let cap = cap.max(1);
        let mut dropped = 0;
        if src.scope != self.scope {
            // sources read from other chunks name other values
            self.scope = src.scope;
            self.sources.clear();
            if self.scope != 0 {
                self.sources.resize(self.parts.len(), NO_SOURCE);
            }
        }
        let memo = self.scope != 0;
        for row in rows {
            src.load_key(row as usize);
            // a one-part key from the source a group's last row had is that
            // group's key: no hash, no lookup
            let seen = (!src.seen.is_empty() && self.width == 1 && src.source[0] != NO_SOURCE)
                .then(|| {
                    (src.source[0].wrapping_mul(0x9e37_79b9_7f4a_7c15)
                        >> (64 - SEEN.trailing_zeros())) as usize
                });
            if let Some(at) = seen {
                let (source, g) = src.seen[at];
                if source == src.source[0] && self.sources.get(g as usize) == Some(&source) {
                    self.states[g as usize].rows += 1;
                    src.pending.push((row, g));
                    continue;
                }
            }
            let key = &src.key;
            let hash = hash_key(key);
            let g = match self.find(hash, key, src) {
                Some(g) => {
                    if memo {
                        let (w, at) = (self.width, g as usize);
                        self.sources[at * w..(at + 1) * w].copy_from_slice(&src.source);
                    }
                    g
                }
                None if self.len() < cap => {
                    let g = self.len() as u32;
                    self.parts.extend_from_slice(key);
                    if memo {
                        self.sources.extend_from_slice(&src.source);
                    }
                    self.hashes.push(hash);
                    self.states.push(src.new_group());
                    self.index(g);
                    g
                }
                None => {
                    if self.heap.is_empty() {
                        self.heap = (0..self.len() as u32).collect();
                        for i in (0..self.heap.len() / 2).rev() {
                            self.sift_down(i);
                        }
                    }
                    let top = self.heap[0];
                    let vals = |k| src.key_value(k);
                    if cmp_key(key, vals, self.key_of(top), |k| self.value(top, k)).is_gt() {
                        dropped += 1;
                        continue;
                    }
                    // the new key displaces the largest group, in its slot
                    src.flush(&mut self.states);
                    dropped += self.states[top as usize].rows;
                    self.unindex(top);
                    let w = self.width;
                    let at = top as usize;
                    self.parts[at * w..(at + 1) * w].copy_from_slice(&src.key);
                    if memo {
                        self.sources[at * w..(at + 1) * w].copy_from_slice(&src.source);
                    }
                    self.hashes[at] = hash;
                    self.states[at] = src.new_group();
                    self.index(top);
                    self.sift_down(0);
                    top
                }
            };
            if let Some(at) = seen {
                src.seen[at] = (src.source[0], g);
            }
            self.states[g as usize].rows += 1;
            src.pending.push((row, g));
        }
        src.flush(&mut self.states);
        dropped
    }

    /// The groups in `GroupKey` order of their keys. The sort reads an
    /// order-preserving word of each key's first part where it has one
    /// (integers, floats) and compares whole keys only where those tie.
    pub fn into_sorted(self) -> Vec<GroupState> {
        let first = |g: u32| match self.key_of(g).first() {
            Some(&Part::Int(x)) => (1, x as u64 ^ 1 << 63),
            Some(&Part::Bits(x)) => (2, x),
            Some(p) => (p.rank(), 0),
            None => (0, 0),
        };
        let mut order: Vec<(u64, u64, u32)> = (0..self.len() as u32)
            .map(|g| {
                let (rank, word) = first(g);
                (rank, word, g)
            })
            .collect();
        order.sort_unstable_by(|&(ra, wa, a), &(rb, wb, b)| {
            (ra, wa).cmp(&(rb, wb)).then_with(|| {
                cmp_key(
                    self.key_of(a),
                    |k| self.value(a, k),
                    self.key_of(b),
                    |k| self.value(b, k),
                )
            })
        });
        let mut states = self.states;
        let taken = || GroupState {
            keys: Vec::new(),
            aggs: Vec::new(),
            rows: 0,
        };
        order
            .into_iter()
            .map(|(_, _, g)| std::mem::replace(&mut states[g as usize], taken()))
            .collect()
    }

    fn key_of(&self, g: u32) -> &[Part] {
        let g = g as usize;
        &self.parts[g * self.width..(g + 1) * self.width]
    }

    fn value(&self, g: u32, k: usize) -> Cow<'_, Value> {
        Cow::Borrowed(&self.states[g as usize].keys[k])
    }

    fn home(&self, hash: u64) -> usize {
        // the top log2(len) bits
        (hash >> (64 - self.slots.len().trailing_zeros())) as usize
    }

    fn find<'c, F>(&self, hash: u64, key: &[Part], src: &FoldSource<'c, F>) -> Option<u32>
    where
        F: Fn(usize, usize) -> Cow<'c, Value>,
    {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = self.home(hash);
        loop {
            let g = self.slots[i];
            if g == EMPTY {
                return None;
            }
            // a row has a source only from a joined block, so `sources` is
            // kept whenever one is compared
            let same_source = |k: usize| src.source[k] == self.sources[g as usize * self.width + k];
            if self.hashes[g as usize] == hash
                && self.key_of(g) == key
                && key.iter().enumerate().all(|(k, p)| {
                    p.exact()
                        || src.source[k] != NO_SOURCE && same_source(k)
                        || key_cmp(&src.key_value(k), &self.value(g, k)).is_eq()
                })
            {
                return Some(g);
            }
            i = (i + 1) & mask;
        }
    }

    /// Enter group `g` into the index, growing it to stay half empty.
    fn index(&mut self, g: u32) {
        if 2 * self.len() > self.slots.len() {
            let grown = (4 * self.len()).next_power_of_two().max(8);
            self.slots = vec![EMPTY; grown];
            (0..self.len() as u32).for_each(|g| self.place(g));
        } else {
            self.place(g);
        }
    }

    fn place(&mut self, g: u32) {
        let mask = self.slots.len() - 1;
        let mut i = self.home(self.hashes[g as usize]);
        while self.slots[i] != EMPTY {
            i = (i + 1) & mask;
        }
        self.slots[i] = g;
    }

    /// Take group `g` out of the index, shifting back the probe run
    /// behind it so no lookup needs a tombstone.
    fn unindex(&mut self, g: u32) {
        let mask = self.slots.len() - 1;
        let mut hole = self.home(self.hashes[g as usize]);
        while self.slots[hole] != g {
            hole = (hole + 1) & mask;
        }
        let mut i = hole;
        loop {
            i = (i + 1) & mask;
            let h = self.slots[i];
            if h == EMPTY {
                break;
            }
            // `h` may fill the hole unless its home lies after the hole
            let home = self.home(self.hashes[h as usize]);
            if i.wrapping_sub(home) & mask >= i.wrapping_sub(hole) & mask {
                self.slots[hole] = h;
                hole = i;
            }
        }
        self.slots[hole] = EMPTY;
    }

    fn sift_down(&mut self, mut i: usize) {
        let n = self.heap.len();
        let larger = |t: &Self, a: u32, b: u32| {
            cmp_key(
                t.key_of(a),
                |k| t.value(a, k),
                t.key_of(b),
                |k| t.value(b, k),
            )
            .is_gt()
        };
        loop {
            let mut top = i;
            for child in [2 * i + 1, 2 * i + 2] {
                if child < n && larger(self, self.heap[child], self.heap[top]) {
                    top = child;
                }
            }
            if top == i {
                return;
            }
            self.heap.swap(i, top);
            i = top;
        }
    }
}

/// The typed column behind a plain slot, as [`FoldSource::new`] is
/// handed it.
pub enum SlotColumn<'c> {
    /// A decoded chunk's column: fold row `r` is its row `r`.
    Chunk(&'c Column),
    /// One side's column of a joined block, read through the side's
    /// gather.
    Joined(JoinedColumn<'c>),
}

/// Where one group-by key or aggregate argument is read from.
enum Input<'c> {
    /// A plain slot over a typed chunk column, with the parts of its
    /// string dictionary (empty for other columns).
    Column(&'c Column, Vec<Part>),
    /// A plain slot over a joined block's gathered column; as a key, with
    /// every block row's part and source (both empty for an argument).
    Joined(JoinedColumn<'c>, Vec<Part>, Vec<u64>),
    /// Anything else, evaluated per row.
    Expr(&'c ResolvedExpr),
    /// Evaluated once per chunk row up front.
    Values(Vec<Value>),
    /// `COUNT(*)`.
    Star,
}

/// The rows a [`GroupTable`] folds: where each key part and aggregate
/// argument of a row is read from, through `fetch(row, slot)` unless a
/// typed column serves it.
pub struct FoldSource<'c, F> {
    fetch: F,
    keys: Vec<Input<'c>>,
    args: Vec<Input<'c>>,
    aggregates: &'c [AggSpec],
    /// The row whose key was loaded last, its key and its evaluated key
    /// values (`Null` where a column serves the part).
    row: usize,
    key: Vec<Part>,
    vals: Vec<Cow<'c, Value>>,
    /// Where each key value of the loaded row was read from, when that
    /// names it exactly: a joined block's chunk and dictionary entry
    /// (`chunk << 32 | entry`), or [`NO_SOURCE`].
    source: Vec<u64>,
    /// The joined block the sources come from (0 for none).
    scope: u64,
    /// For a one-part key from a joined block: the group the last row of
    /// a source resolved to, direct-mapped by source (empty otherwise).
    seen: Vec<(u64, u32)>,
    /// Rows resolved to a group and not yet folded: `(row, group id)`.
    pending: Vec<(u32, u32)>,
}

impl<'c, F> FoldSource<'c, F>
where
    F: Fn(usize, usize) -> Cow<'c, Value>,
{
    /// Rows whose keys and arguments are evaluated through `fetch`, except
    /// plain slots that `column(slot)` serves from a typed column.
    pub fn new(
        group_by: &'c [ResolvedExpr],
        aggregates: &'c [AggSpec],
        fetch: F,
        column: impl Fn(usize) -> Option<SlotColumn<'c>>,
    ) -> Self {
        let input = |e: &'c ResolvedExpr| match e {
            ResolvedExpr::Input(slot) => match column(*slot) {
                Some(SlotColumn::Chunk(col)) => Input::Column(col, dict_parts(col)),
                Some(SlotColumn::Joined(col)) => Input::Joined(col, Vec::new(), Vec::new()),
                None => Input::Expr(e),
            },
            e => Input::Expr(e),
        };
        let key = |e| match input(e) {
            Input::Joined(col, ..) => {
                let (parts, sources) = col.parts();
                Input::Joined(col, parts, sources)
            }
            input => input,
        };
        let keys: Vec<Input<'c>> = group_by.iter().map(key).collect();
        let scope = keys.iter().find_map(|k| match k {
            Input::Joined(col, ..) => Some(col.block()),
            _ => None,
        });
        FoldSource {
            keys,
            scope: scope.unwrap_or(0),
            args: aggregates
                .iter()
                .map(|a| a.arg.as_ref().map_or(Input::Star, input))
                .collect(),
            fetch,
            aggregates,
            row: 0,
            key: vec![Part::Null; group_by.len()],
            source: vec![NO_SOURCE; group_by.len()],
            seen: match (scope, group_by.len()) {
                (Some(_), 1) => vec![(NO_SOURCE, 0); SEEN],
                _ => Vec::new(),
            },
            vals: vec![Cow::Owned(Value::Null); group_by.len()],
            pending: Vec::new(),
        }
    }

    /// Evaluate every computed argument once for each of `rows` rows, so
    /// [`Self::arg_f64`] and the fold share one evaluation.
    pub fn evaluate_args(&mut self, rows: usize) {
        for arg in &mut self.args {
            if let Input::Expr(e) = arg {
                let vals = (0..rows).map(|r| e.eval_by(&|s| (self.fetch)(r, s)).into_owned());
                *arg = Input::Values(vals.collect());
            }
        }
    }

    /// Aggregate `j`'s argument at `row` as the estimator moments read it
    /// (`1.0` for `COUNT(*)`).
    pub fn arg_f64(&self, j: usize, row: usize) -> Option<f64> {
        match &self.args[j] {
            Input::Star => Some(1.0),
            Input::Column(col, _) => col.scalar(row).num(),
            Input::Joined(col, ..) => col.f64(row),
            Input::Values(vs) => vs[row].as_f64(),
            Input::Expr(e) => e.eval_by(&|s| (self.fetch)(row, s)).as_f64(),
        }
    }

    fn load_key(&mut self, row: usize) {
        self.row = row;
        let key = self
            .key
            .iter_mut()
            .zip(&mut self.vals)
            .zip(&mut self.source);
        for (input, ((part, val), source)) in self.keys.iter().zip(key) {
            *part = match input {
                Input::Column(col, dict) => col_part(col, dict, row),
                Input::Joined(_, parts, sources) => {
                    *source = sources[row];
                    parts[row]
                }
                Input::Expr(e) => {
                    *val = e.eval_by(&|s| (self.fetch)(row, s));
                    Part::of(val.as_ref())
                }
                Input::Values(_) | Input::Star => unreachable!("keys are columns or expressions"),
            };
        }
    }

    /// Key value `k` of the loaded row.
    fn key_value(&self, k: usize) -> Cow<'_, Value> {
        match &self.keys[k] {
            Input::Column(col, _) => col.value_ref(self.row),
            Input::Joined(col, ..) => col.value(self.row),
            _ => Cow::Borrowed(self.vals[k].as_ref()),
        }
    }

    fn new_group(&self) -> GroupState {
        GroupState {
            keys: (0..self.keys.len())
                .map(|k| self.key_value(k).into_owned())
                .collect(),
            aggs: self.aggregates.iter().map(AggState::new).collect(),
            rows: 0,
        }
    }

    /// Fold the pending `(row, group)` pairs one aggregate at a time;
    /// each state still sees its rows in order.
    fn flush(&mut self, states: &mut [GroupState]) {
        let rows = &self.pending;
        for (j, arg) in self.args.iter().enumerate() {
            match arg {
                Input::Star => each(rows, states, j, |_, s| s.update(None)),
                Input::Column(col, _) => each(rows, states, j, |r, s| match col.scalar(r).num() {
                    Some(x) if s.update_f64(x) => {}
                    _ => s.update(Some(&col.value_ref(r))),
                }),
                Input::Joined(col, ..) => each(rows, states, j, |r, s| match col.f64(r) {
                    Some(x) if s.update_f64(x) => {}
                    _ => s.update(Some(&col.value(r))),
                }),
                Input::Values(vs) => each(rows, states, j, |r, s| s.update(Some(&vs[r]))),
                Input::Expr(e) => each(rows, states, j, |r, s| {
                    s.update(Some(&e.eval_by(&|slot| (self.fetch)(r, slot))));
                }),
            }
        }
        self.pending.clear();
    }
}

/// Run `f` over aggregate `j`'s state of each resolved `(row, group)`.
fn each(
    rows: &[(u32, u32)],
    states: &mut [GroupState],
    j: usize,
    mut f: impl FnMut(usize, &mut AggState),
) {
    for &(r, g) in rows {
        f(r as usize, &mut states[g as usize].aggs[j]);
    }
}

/// The parts of a string column's dictionary (empty for other columns).
pub(crate) fn dict_parts(col: &Column) -> Vec<Part> {
    match &col.data {
        ColumnData::Str { dict, .. } => dict.iter().map(Part::of).collect(),
        _ => Vec::new(),
    }
}

/// `Part::of(&col.value_ref(row))`, without building the value; `dict`
/// holds the parts of a string column's dictionary.
pub(crate) fn col_part(col: &Column, dict: &[Part], row: usize) -> Part {
    if col.validity.as_ref().is_some_and(|v| !v[row]) {
        return Part::Null;
    }
    match &col.data {
        ColumnData::Null => Part::Null,
        ColumnData::Bool(v) => Part::Int(v[row] as i64),
        ColumnData::Int(v) => Part::Int(v[row] as i64),
        ColumnData::Long(v) | ColumnData::DateTime(v) => Part::Int(v[row]),
        ColumnData::Float(v) => Part::Bits((v[row] as f64).to_bits()),
        ColumnData::Double(v) => Part::Bits(v[row].to_bits()),
        ColumnData::Str { idx, .. } => dict[idx[row] as usize],
        ColumnData::Mixed(v) => Part::of(&v[row]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Part equality and `key_cmp` are `GroupKey` equality and order, for
    /// every pair of a pool that crosses the variants, nested ones too.
    #[test]
    fn parts_and_key_order_are_group_key_equality_and_order() {
        let scalars = [
            Value::Null,
            Value::Bool(false),
            Value::Int(0),
            Value::Long(-1),
            Value::DateTime(7),
            Value::Float(-0.0),
            Value::Double(0.0),
            Value::Double(f64::NAN),
            Value::Str("".into()),
            Value::Str("a".into()),
            Value::Str("ab".into()),
        ];
        let mut pool = scalars.to_vec();
        pool.push(Value::List(vec![]));
        pool.extend(scalars.iter().map(|v| Value::List(vec![v.clone()])));
        pool.push(Value::List(vec![Value::Long(0), Value::Str("a".into())]));
        pool.push(Value::Nested(vec![]));
        pool.extend(
            scalars
                .iter()
                .map(|v| Value::Nested(vec![("k".into(), v.clone())])),
        );
        pool.push(Value::Nested(vec![("j".into(), Value::Int(0))]));
        for a in &pool {
            for b in &pool {
                let want = a.group_key().cmp(&b.group_key());
                assert_eq!(key_cmp(a, b), want, "{a:?} vs {b:?}");
                assert_eq!(Part::of(a) == Part::of(b), want.is_eq(), "{a:?} vs {b:?}");
            }
        }
    }
}
