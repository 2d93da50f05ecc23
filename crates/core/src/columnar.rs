//! The wire format of event batches: columnar frames (format v2).
//!
//! A host ships a batch of projected events whose values are stored as
//! per-(event-type, field) *column segments*: one tag byte per column,
//! contiguous zigzag-varint runs for ints/datetimes, a per-column string
//! dictionary, and a null bitmap. The tap writes them with a
//! [`ChunkBuilder`] — each projected field of a shipped event goes straight
//! into its typed column, and a flush encodes the columns as they stand.
//! The builder is the only encoder: [`ColumnarFrame::from_events`] pushes
//! each run of row events through one. ScrubCentral decodes a frame into
//! [`ColumnarBatch`] — full-length typed vectors per column — so residual
//! filters, group-key hashing, aggregate folds and the request-id join read
//! columns in place, lending values ([`Column::value_ref`]) without
//! materialising a row `Event` per input event.
//!
//! Frame layout:
//!
//! ```text
//! frame  := 0x00 format:u8 body          (format = FORMAT_COLUMNAR)
//! body   := total:varint chunk*
//! chunk  := type_id:varint arity:varint n:varint
//!           request_id:varint{n} zigzag(ts):varint{n} column{arity}
//! column := tag:u8 body_len:varint body:byte{body_len}
//! ```
//!
//! A chunk covers a maximal run of consecutive events with equal
//! `(type_id, arity)`; since a subscription taps a single event type, a
//! batch is one chunk in practice. The column `tag` is a base type in the
//! low bits plus the `COL_NULLABLE` flag; when set, the body starts with
//! a validity bitmap (bit i set = value i present) and the typed values
//! that follow are dense over the *present* rows only. Columns that mix
//! value variants (including `Int` vs `Long`), or contain lists/nested
//! values, fall back to `COL_MIXED`: per-row tagged values (one tag byte
//! per value, then its varint or length-prefixed payload). Exact `Value`
//! variants always round-trip — `Int` is never widened to `Long` nor
//! `Float` to `Double` — because decoded values feed group keys and
//! MIN/MAX aggregates whose rendered output must not depend on the
//! transport.
//!
//! The row format (format byte 1) and the legacy unversioned row frame
//! before it are retired: decoding either is one `Err` that says so.

use std::borrow::{Borrow, Cow};
use std::hash::{BuildHasher, RandomState};

use bytes::{Buf, BufMut, Bytes};
use serde::{Deserialize, Serialize};

use crate::encode::{get_string, get_value, get_varint, put_value, put_varint, unzigzag, zigzag};
use crate::error::{ScrubError, ScrubResult};
use crate::event::{Event, RequestId};
use crate::schema::EventTypeId;
use crate::value::{Scalar, Value};

/// Format byte of a columnar frame, after its leading `0x00`.
pub const FORMAT_COLUMNAR: u8 = 2;
/// Format byte of the retired row format (v1).
const RETIRED_ROW_FORMAT: u8 = 1;
/// Decoder sanity cap on the claimed event count of a frame.
const MAX_BATCH_EVENTS: usize = 1 << 24;

/// All-null column: no body.
const COL_NULL: u8 = 0;
/// Booleans packed as a bitmap over the present rows.
const COL_BOOL: u8 = 1;
/// `Value::Int` as zigzag varints.
const COL_INT: u8 = 2;
/// `Value::Long` as zigzag varints.
const COL_LONG: u8 = 3;
/// `Value::Float` as fixed 4-byte IEEE bits.
const COL_FLOAT: u8 = 4;
/// `Value::Double` as fixed 8-byte IEEE bits.
const COL_DOUBLE: u8 = 5;
/// `Value::DateTime` as zigzag varints.
const COL_DATETIME: u8 = 6;
/// Strings as a per-column dictionary plus per-row dictionary indices.
const COL_STR: u8 = 7;
/// Fallback: per-row tagged values (lists, nested, mixed variants).
const COL_MIXED: u8 = 8;
/// Tag flag: a validity bitmap precedes the values.
const COL_NULLABLE: u8 = 0x80;

/// An encoded columnar frame plus the header metadata ScrubCentral needs
/// without decoding: event count and timestamp bounds. This is the payload
/// of every `EventBatch` — the frame bytes *are* what rides the wire, so
/// byte accounting is exact by construction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ColumnarFrame {
    /// Complete wire frame including the `[0x00, FORMAT_COLUMNAR]` header.
    pub bytes: Vec<u8>,
    /// Number of events in the frame.
    pub count: u32,
    /// Minimum event timestamp (0 when the frame is empty).
    pub ts_min: i64,
    /// Maximum event timestamp (0 when the frame is empty).
    pub ts_max: i64,
}

impl ColumnarFrame {
    /// Encode row events: each maximal run of consecutive events with equal
    /// `(type_id, arity)` goes through a [`ChunkBuilder`] and becomes one
    /// chunk.
    pub fn from_events(events: &[Event]) -> ColumnarFrame {
        let mut bytes = Vec::new();
        put_frame_head(&mut bytes, events.len());
        let runs =
            events.chunk_by(|a, b| a.type_id == b.type_id && a.values.len() == b.values.len());
        for run in runs {
            let mut chunk = ChunkBuilder::new(run[0].type_id, run[0].values.len());
            for ev in run {
                chunk.push_row(ev.request_id.0, ev.timestamp, &ev.values);
            }
            chunk.write_chunk(&mut bytes);
        }
        ColumnarFrame::new(bytes, events.iter().map(|ev| ev.timestamp))
    }

    fn new(bytes: Vec<u8>, timestamps: impl ExactSizeIterator<Item = i64>) -> ColumnarFrame {
        let count = timestamps.len() as u32;
        let (ts_min, ts_max) = timestamps
            .fold(None, |acc: Option<(i64, i64)>, ts| {
                Some(acc.map_or((ts, ts), |(lo, hi)| (lo.min(ts), hi.max(ts))))
            })
            .unwrap_or((0, 0));
        ColumnarFrame {
            bytes,
            count,
            ts_min,
            ts_max,
        }
    }

    /// Number of events in the frame, without decoding.
    pub fn len(&self) -> usize {
        self.count as usize
    }

    /// True when the frame holds no events.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// `(ts_min, ts_max)` over the frame's events, `None` when empty.
    pub fn ts_range(&self) -> Option<(i64, i64)> {
        if self.count == 0 {
            None
        } else {
            Some((self.ts_min, self.ts_max))
        }
    }

    /// Decode the frame into full-length typed columns.
    pub fn decode(&self) -> ScrubResult<ColumnarBatch> {
        let body = strip_header(&self.bytes)?;
        decode_columnar_body(body)
    }

    /// Materialise the frame back into row events, in order.
    pub fn to_events(&self) -> ScrubResult<Vec<Event>> {
        let batch = self.decode()?;
        let mut out = Vec::with_capacity(batch.event_count());
        for chunk in &batch.chunks {
            for i in 0..chunk.len() {
                out.push(Event::new(
                    chunk.type_id,
                    RequestId(chunk.request_ids[i]),
                    chunk.timestamps[i],
                    chunk.columns.iter().map(|c| c.value_at(i)).collect(),
                ));
            }
        }
        Ok(out)
    }

    /// Visit `(request_id, timestamp)` for every event, in order, by
    /// scanning only chunk headers — column bodies are skipped via their
    /// length prefixes. Used by header-level consumers (window-loss
    /// attribution, trace annotation) that must not pay full decode.
    /// A frame that does not scan is an `Err`; `f` may already have seen
    /// the events ahead of the damage.
    pub fn for_each_meta(&self, mut f: impl FnMut(u64, i64)) -> ScrubResult<()> {
        strip_header(&self.bytes).and_then(|body| scan_meta(body, &mut f))
    }
}

/// A frame's header and event count, ready for its chunks.
fn put_frame_head(out: &mut Vec<u8>, total: usize) {
    out.extend_from_slice(&[0x00, FORMAT_COLUMNAR]);
    put_varint(out, total as u64);
}

fn strip_header(frame: &[u8]) -> ScrubResult<Bytes> {
    let retired = |what: &str| {
        ScrubError::Decode(format!(
            "{what} uses the retired row wire format; only columnar frames \
             (format {FORMAT_COLUMNAR}) decode"
        ))
    };
    match frame {
        [0x00, FORMAT_COLUMNAR, body @ ..] => Ok(Bytes::copy_from_slice(body)),
        [0x00, RETIRED_ROW_FORMAT, ..] => Err(retired("a format-1 row frame")),
        [0x00, other, ..] => Err(ScrubError::Decode(format!("unknown wire format {other}"))),
        [] => Err(ScrubError::Decode("empty frame".into())),
        _ => Err(retired("a legacy unversioned frame")),
    }
}

/// A decoded columnar batch: one [`ColumnChunk`] per maximal run of
/// consecutive events with equal `(type_id, arity)`.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnarBatch {
    /// Chunks in original event order; concatenating them reproduces the
    /// batch's row order exactly.
    pub chunks: Vec<ColumnChunk>,
}

impl ColumnarBatch {
    /// Total events across all chunks.
    pub fn event_count(&self) -> usize {
        self.chunks.iter().map(|c| c.len()).sum()
    }
}

/// One run of events sharing `(type_id, arity)`, decoded column-wise.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnChunk {
    /// Event type of every event in the chunk.
    pub type_id: EventTypeId,
    /// Per-event request ids (system field).
    pub request_ids: Vec<u64>,
    /// Per-event timestamps (system field).
    pub timestamps: Vec<i64>,
    /// User field columns, in projection order; all full length.
    pub columns: Vec<Column>,
}

impl ColumnChunk {
    /// Events in this chunk.
    pub fn len(&self) -> usize {
        self.request_ids.len()
    }

    /// True when the chunk holds no events (never produced by the encoder).
    pub fn is_empty(&self) -> bool {
        self.request_ids.is_empty()
    }
}

/// A decoded column: full-length typed data plus an optional validity
/// bitmap. When `validity` is `Some`, positions with `false` are null and
/// the typed vector holds a default placeholder there.
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    /// `None` = every row present; `Some(v)` = `v[i]` is false for nulls.
    pub validity: Option<Vec<bool>>,
    /// Typed values, full chunk length.
    pub data: ColumnData,
}

/// Typed storage for a decoded column.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData {
    /// Every value is null.
    Null,
    /// `Value::Bool` column.
    Bool(Vec<bool>),
    /// `Value::Int` column.
    Int(Vec<i32>),
    /// `Value::Long` column.
    Long(Vec<i64>),
    /// `Value::Float` column.
    Float(Vec<f32>),
    /// `Value::Double` column.
    Double(Vec<f64>),
    /// `Value::DateTime` column.
    DateTime(Vec<i64>),
    /// String column: first-seen-order dictionary plus per-row indices.
    Str {
        /// Distinct strings in first-seen order, each a `Value::Str` so a
        /// row's value can be lent without cloning the string.
        dict: Vec<Value>,
        /// Per-row dictionary index (placeholder 0 at null rows).
        idx: Vec<u32>,
    },
    /// Fallback column: per-row materialised values.
    Mixed(Vec<Value>),
}

impl Column {
    /// The value at row `i`, reconstructing the exact original variant.
    pub fn value_at(&self, i: usize) -> Value {
        self.value_ref(i).into_owned()
    }

    /// The value at row `i`, lent where it already exists as a `Value`
    /// (dictionary strings, fallback columns); scalars are rebuilt, which
    /// allocates nothing.
    pub fn value_ref(&self, i: usize) -> Cow<'_, Value> {
        if let Some(v) = &self.validity {
            if !v[i] {
                return Cow::Owned(Value::Null);
            }
        }
        Cow::Owned(match &self.data {
            ColumnData::Null => Value::Null,
            ColumnData::Bool(v) => Value::Bool(v[i]),
            ColumnData::Int(v) => Value::Int(v[i]),
            ColumnData::Long(v) => Value::Long(v[i]),
            ColumnData::Float(v) => Value::Float(v[i]),
            ColumnData::Double(v) => Value::Double(v[i]),
            ColumnData::DateTime(v) => Value::DateTime(v[i]),
            ColumnData::Str { dict, idx } => return Cow::Borrowed(&dict[idx[i] as usize]),
            ColumnData::Mixed(v) => return Cow::Borrowed(&v[i]),
        })
    }

    /// `value_ref(i).scalar()`, without building the value. Always
    /// inlined: the aggregate fold and the join kernels read it per row,
    /// and a call returns the `Scalar` through memory.
    #[inline(always)]
    pub fn scalar(&self, i: usize) -> Scalar<'_> {
        if self.validity.as_ref().is_some_and(|v| !v[i]) {
            return Scalar::Null;
        }
        match &self.data {
            ColumnData::Null => Scalar::Null,
            ColumnData::Bool(v) => Scalar::Num(if v[i] { 1.0 } else { 0.0 }),
            ColumnData::Int(v) => Scalar::Num(v[i] as f64),
            ColumnData::Long(v) | ColumnData::DateTime(v) => Scalar::Num(v[i] as f64),
            ColumnData::Float(v) => Scalar::Num(v[i] as f64),
            ColumnData::Double(v) => Scalar::Num(v[i]),
            ColumnData::Str { dict, idx } => dict[idx[i] as usize].scalar(),
            ColumnData::Mixed(v) => v[i].scalar(),
        }
    }

    /// True when row `i` is null.
    pub fn is_null(&self, i: usize) -> bool {
        if let Some(v) = &self.validity {
            if !v[i] {
                return true;
            }
        }
        matches!(&self.data, ColumnData::Null)
            || matches!(&self.data, ColumnData::Mixed(v) if v[i] == Value::Null)
    }
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// The rows of one chunk as typed columns, appended event by event.
///
/// A host keeps one per subscription: the tap pushes the projected fields
/// of every shipped event into it, and a flush turns it into a frame
/// ([`Self::take_frame`]) and leaves it empty. Each column types itself
/// from the values it receives, exactly as the decoder will rebuild it:
/// nulls only so far is `COL_NULL`; the first value fixes a typed column
/// (nullable once a null is seen); a value of any other variant, or a
/// list or nested value, turns it into `COL_MIXED`, rebuilding the earlier
/// rows as values. Emptying keeps every buffer's capacity, so a steady
/// stream of scalar fields allocates nothing between flushes — but the
/// type is decided afresh by each batch's own values.
#[derive(Debug, Clone)]
pub struct ChunkBuilder {
    type_id: EventTypeId,
    request_ids: Vec<u64>,
    timestamps: Vec<i64>,
    columns: Vec<ColumnBuilder>,
    /// The frame under construction, copied out exact-size at a flush.
    frame: Vec<u8>,
    /// One column's body while its length prefix is still unknown.
    body: Vec<u8>,
}

impl ChunkBuilder {
    /// An empty chunk of `type_id` events with `arity` fields each.
    pub fn new(type_id: EventTypeId, arity: usize) -> Self {
        ChunkBuilder {
            type_id,
            request_ids: Vec::new(),
            timestamps: Vec::new(),
            columns: vec![ColumnBuilder::default(); arity],
            frame: Vec::new(),
            body: Vec::new(),
        }
    }

    /// Rows buffered.
    pub fn len(&self) -> usize {
        self.request_ids.len()
    }

    /// True when no row is buffered.
    pub fn is_empty(&self) -> bool {
        self.request_ids.is_empty()
    }

    /// Append one event. `fields` fill the columns in order; a short
    /// iterator leaves the rest null and extra items are ignored, so the
    /// columns never disagree on their length.
    pub fn push_row<V: Borrow<Value>>(
        &mut self,
        request_id: u64,
        timestamp: i64,
        fields: impl IntoIterator<Item = V>,
    ) {
        self.request_ids.push(request_id);
        self.timestamps.push(timestamp);
        let mut fields = fields.into_iter();
        for column in &mut self.columns {
            match fields.next() {
                Some(v) => column.push(v.borrow()),
                None => column.push(&Value::Null),
            }
        }
    }

    /// The buffered rows as a complete frame — header only when there are
    /// none — leaving the builder empty with its capacity kept.
    pub fn take_frame(&mut self) -> ColumnarFrame {
        let mut frame = std::mem::take(&mut self.frame);
        frame.clear();
        put_frame_head(&mut frame, self.len());
        if !self.is_empty() {
            self.write_chunk(&mut frame);
        }
        let out = ColumnarFrame::new(frame.clone(), self.timestamps.iter().copied());
        self.frame = frame;
        self.request_ids.clear();
        self.timestamps.clear();
        self.columns.iter_mut().for_each(ColumnBuilder::clear);
        out
    }

    /// Append the chunk (header, system fields, columns) to `out`.
    fn write_chunk(&mut self, out: &mut Vec<u8>) {
        put_varint(out, self.type_id.0 as u64);
        put_varint(out, self.columns.len() as u64);
        put_varint(out, self.len() as u64);
        for rid in &self.request_ids {
            put_varint(out, *rid);
        }
        for ts in &self.timestamps {
            put_varint(out, zigzag(*ts));
        }
        for column in &self.columns {
            column.write(out, &mut self.body);
        }
    }
}

/// One column of a [`ChunkBuilder`].
#[derive(Debug, Clone, Default)]
struct ColumnBuilder {
    /// `COL_NULL` until the first non-null value, then its typed tag, or
    /// `COL_MIXED` once the variants disagree.
    tag: u8,
    rows: usize,
    nulls: usize,
    /// Bit `i` set when row `i` is present (typed columns).
    validity: Vec<u8>,
    /// The present rows of a typed column: zigzag ints, float and double
    /// bits, 0/1 booleans, or dictionary indices.
    words: Vec<u64>,
    dict: StrDict,
    /// Every row of a `COL_MIXED` column.
    mixed: Vec<Value>,
}

/// The typed tag a value belongs in (`COL_NULL` for a null).
fn tag_of(v: &Value) -> u8 {
    match v {
        Value::Null => COL_NULL,
        Value::Bool(_) => COL_BOOL,
        Value::Int(_) => COL_INT,
        Value::Long(_) => COL_LONG,
        Value::Float(_) => COL_FLOAT,
        Value::Double(_) => COL_DOUBLE,
        Value::DateTime(_) => COL_DATETIME,
        Value::Str(_) => COL_STR,
        Value::List(_) | Value::Nested(_) => COL_MIXED,
    }
}

impl ColumnBuilder {
    fn push(&mut self, v: &Value) {
        let row = self.rows;
        self.rows += 1;
        if row.is_multiple_of(8) {
            self.validity.push(0);
        }
        if self.tag == COL_MIXED {
            self.mixed.push(v.clone());
            return;
        }
        let tag = tag_of(v);
        if tag == COL_NULL {
            self.nulls += 1;
            return;
        }
        if tag != self.tag {
            if self.tag != COL_NULL || tag == COL_MIXED {
                self.make_mixed(row);
                self.mixed.push(v.clone());
                return;
            }
            self.tag = tag;
        }
        self.validity[row / 8] |= 1 << (row % 8);
        let word = match v {
            Value::Bool(b) => *b as u64,
            Value::Int(x) => zigzag(*x as i64),
            Value::Long(x) | Value::DateTime(x) => zigzag(*x),
            Value::Float(x) => x.to_bits() as u64,
            Value::Double(x) => x.to_bits(),
            Value::Str(s) => self.dict.intern(s) as u64,
            _ => unreachable!("typed tags only"),
        };
        self.words.push(word);
    }

    /// Switch to `COL_MIXED`, rebuilding the `rows` earlier rows as values.
    #[cold]
    fn make_mixed(&mut self, rows: usize) {
        let mut words = self.words.iter();
        for row in 0..rows {
            if self.validity[row / 8] & (1 << (row % 8)) == 0 {
                self.mixed.push(Value::Null);
                continue;
            }
            let w = *words.next().expect("one word per present row");
            self.mixed.push(match self.tag {
                COL_BOOL => Value::Bool(w != 0),
                COL_INT => Value::Int(unzigzag(w) as i32),
                COL_LONG => Value::Long(unzigzag(w)),
                COL_FLOAT => Value::Float(f32::from_bits(w as u32)),
                COL_DOUBLE => Value::Double(f64::from_bits(w)),
                COL_DATETIME => Value::DateTime(unzigzag(w)),
                _ => Value::Str(self.dict.get(w as usize).to_string()),
            });
        }
        self.tag = COL_MIXED;
        self.words.clear();
        self.dict.clear();
    }

    /// Append the column (tag, body length, body) to `out`; `body` is
    /// scratch space.
    fn write(&self, out: &mut Vec<u8>, body: &mut Vec<u8>) {
        body.clear();
        let nullable = self.nulls > 0 && !matches!(self.tag, COL_NULL | COL_MIXED);
        if nullable {
            body.extend_from_slice(&self.validity);
        }
        match self.tag {
            COL_NULL => {}
            COL_MIXED => self.mixed.iter().for_each(|v| put_value(body, v)),
            COL_BOOL => {
                let start = body.len();
                body.resize(start + self.words.len().div_ceil(8), 0);
                for (i, w) in self.words.iter().enumerate() {
                    body[start + i / 8] |= (*w as u8) << (i % 8);
                }
            }
            COL_FLOAT => self.words.iter().for_each(|w| body.put_u32(*w as u32)),
            COL_DOUBLE => self.words.iter().for_each(|w| body.put_u64(*w)),
            COL_STR => {
                put_varint(body, self.dict.len() as u64);
                for s in self.dict.strings() {
                    put_varint(body, s.len() as u64);
                    body.extend_from_slice(s.as_bytes());
                }
                self.words.iter().for_each(|w| put_varint(body, *w));
            }
            _ => self.words.iter().for_each(|w| put_varint(body, *w)),
        }
        out.push(self.tag | if nullable { COL_NULLABLE } else { 0 });
        put_varint(out, body.len() as u64);
        out.extend_from_slice(body);
    }

    fn clear(&mut self) {
        self.tag = COL_NULL;
        self.rows = 0;
        self.nulls = 0;
        self.validity.clear();
        self.words.clear();
        self.dict.clear();
        self.mixed.clear();
    }
}

/// A string dictionary in first-seen order, probed with a borrowed `&str`.
/// Cleared at every flush, but its strings and its table keep their
/// buffers, so a repeat of an earlier batch's values allocates nothing.
/// The strings are the application's, so the table hashes them with the
/// standard library's randomly keyed hasher: no set of values can be
/// crafted to collide.
#[derive(Debug, Clone, Default)]
struct StrDict {
    /// Entries `..len` are the dictionary; the rest are spare buffers.
    strings: Vec<String>,
    len: usize,
    /// Open addressing over `strings` indices (`u32::MAX` = free); a power
    /// of two, kept under half full.
    table: Vec<u32>,
    hasher: RandomState,
}

impl StrDict {
    fn len(&self) -> usize {
        self.len
    }

    fn strings(&self) -> &[String] {
        &self.strings[..self.len]
    }

    fn get(&self, i: usize) -> &str {
        &self.strings[i]
    }

    /// `s`'s index, adding it at the end when new.
    fn intern(&mut self, s: &str) -> u32 {
        if 2 * (self.len + 1) > self.table.len() {
            self.grow();
        }
        let mask = self.table.len() - 1;
        let mut slot = self.hasher.hash_one(s) as usize & mask;
        loop {
            match self.table[slot] {
                u32::MAX => break,
                i if self.strings[i as usize] == s => return i,
                _ => slot = (slot + 1) & mask,
            }
        }
        let i = self.len;
        match self.strings.get_mut(i) {
            Some(spare) => {
                spare.clear();
                spare.push_str(s);
            }
            None => self.strings.push(s.to_string()),
        }
        self.len += 1;
        self.table[slot] = i as u32;
        i as u32
    }

    #[cold]
    fn grow(&mut self) {
        let size = (self.table.len() * 2).max(16);
        self.table.clear();
        self.table.resize(size, u32::MAX);
        for i in 0..self.len {
            let mut slot = self.hasher.hash_one(&self.strings[i]) as usize & (size - 1);
            while self.table[slot] != u32::MAX {
                slot = (slot + 1) & (size - 1);
            }
            self.table[slot] = i as u32;
        }
    }

    fn clear(&mut self) {
        if self.len > 0 {
            self.len = 0;
            self.table.fill(u32::MAX);
        }
    }
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// Decode a columnar frame *body* (header already stripped). Total in the
/// face of arbitrary bytes: every length is validated against the buffer
/// before allocation.
fn decode_columnar_body(mut buf: Bytes) -> ScrubResult<ColumnarBatch> {
    let total = get_varint(&mut buf)? as usize;
    if total > MAX_BATCH_EVENTS {
        return Err(ScrubError::Decode("implausible batch size".into()));
    }
    let mut chunks = Vec::new();
    let mut seen = 0usize;
    while buf.has_remaining() {
        let type_id = EventTypeId(get_varint(&mut buf)? as u32);
        let arity = get_varint(&mut buf)? as usize;
        if arity > 1 << 16 {
            return Err(ScrubError::Decode("implausible event arity".into()));
        }
        let n = get_varint(&mut buf)? as usize;
        if n == 0 || n > total - seen {
            return Err(ScrubError::Decode("bad chunk length".into()));
        }
        if n > buf.remaining() {
            return Err(ScrubError::Decode("chunk length exceeds buffer".into()));
        }
        let mut request_ids = Vec::with_capacity(n);
        for _ in 0..n {
            request_ids.push(get_varint(&mut buf)?);
        }
        let mut timestamps = Vec::with_capacity(n);
        for _ in 0..n {
            timestamps.push(unzigzag(get_varint(&mut buf)?));
        }
        let mut columns = Vec::with_capacity(arity.min(4096));
        for _ in 0..arity {
            columns.push(decode_column(&mut buf, n)?);
        }
        seen += n;
        chunks.push(ColumnChunk {
            type_id,
            request_ids,
            timestamps,
            columns,
        });
    }
    if seen != total {
        return Err(ScrubError::Decode(
            "chunk counts disagree with total".into(),
        ));
    }
    Ok(ColumnarBatch { chunks })
}

fn get_bitmap(buf: &mut Bytes, n: usize) -> ScrubResult<Vec<bool>> {
    let nbytes = n.div_ceil(8);
    if buf.remaining() < nbytes {
        return Err(ScrubError::Decode("truncated bitmap".into()));
    }
    let raw = buf.split_to(nbytes);
    Ok((0..n).map(|i| raw[i / 8] & (1 << (i % 8)) != 0).collect())
}

/// Expand `m` dense (present-row) values to a full-length vector of `n`,
/// leaving `fill` at null positions.
fn expand<T: Clone>(
    dense: Vec<T>,
    validity: Option<&Vec<bool>>,
    n: usize,
    fill: T,
) -> ScrubResult<Vec<T>> {
    match validity {
        None => {
            if dense.len() != n {
                return Err(ScrubError::Decode("column length mismatch".into()));
            }
            Ok(dense)
        }
        Some(valid) => {
            let mut out = vec![fill; n];
            let mut it = dense.into_iter();
            for (i, present) in valid.iter().enumerate() {
                if *present {
                    out[i] = it
                        .next()
                        .ok_or_else(|| ScrubError::Decode("column length mismatch".into()))?;
                }
            }
            if it.next().is_some() {
                return Err(ScrubError::Decode("column length mismatch".into()));
            }
            Ok(out)
        }
    }
}

fn decode_column(buf: &mut Bytes, n: usize) -> ScrubResult<Column> {
    if !buf.has_remaining() {
        return Err(ScrubError::Decode("truncated column tag".into()));
    }
    let tag = buf.get_u8();
    let body_len = get_varint(buf)? as usize;
    if buf.remaining() < body_len {
        return Err(ScrubError::Decode("truncated column body".into()));
    }
    let mut body = buf.split_to(body_len);
    let base = tag & !COL_NULLABLE;
    let validity = if tag & COL_NULLABLE != 0 {
        if base == COL_NULL || base == COL_MIXED {
            return Err(ScrubError::Decode(
                "nullable flag on null/mixed column".into(),
            ));
        }
        Some(get_bitmap(&mut body, n)?)
    } else {
        None
    };
    let m = validity
        .as_ref()
        .map(|v| v.iter().filter(|b| **b).count())
        .unwrap_or(n);
    let data = match base {
        COL_NULL => ColumnData::Null,
        COL_BOOL => ColumnData::Bool(expand(
            get_bitmap(&mut body, m)?,
            validity.as_ref(),
            n,
            false,
        )?),
        COL_INT => {
            let mut vs = Vec::with_capacity(m.min(body.remaining()));
            for _ in 0..m {
                vs.push(unzigzag(get_varint(&mut body)?) as i32);
            }
            ColumnData::Int(expand(vs, validity.as_ref(), n, 0)?)
        }
        COL_LONG | COL_DATETIME => {
            let mut vs = Vec::with_capacity(m.min(body.remaining()));
            for _ in 0..m {
                vs.push(unzigzag(get_varint(&mut body)?));
            }
            let full = expand(vs, validity.as_ref(), n, 0)?;
            if base == COL_LONG {
                ColumnData::Long(full)
            } else {
                ColumnData::DateTime(full)
            }
        }
        COL_FLOAT => {
            if body.remaining() < m * 4 {
                return Err(ScrubError::Decode("truncated float column".into()));
            }
            let vs = (0..m).map(|_| body.get_f32()).collect();
            ColumnData::Float(expand(vs, validity.as_ref(), n, 0.0)?)
        }
        COL_DOUBLE => {
            if body.remaining() < m * 8 {
                return Err(ScrubError::Decode("truncated double column".into()));
            }
            let vs = (0..m).map(|_| body.get_f64()).collect();
            ColumnData::Double(expand(vs, validity.as_ref(), n, 0.0)?)
        }
        COL_STR => {
            let dict_len = get_varint(&mut body)? as usize;
            if dict_len > body.remaining() + 1 {
                return Err(ScrubError::Decode("implausible dictionary size".into()));
            }
            if m > 0 && dict_len == 0 {
                return Err(ScrubError::Decode(
                    "empty dictionary for non-null rows".into(),
                ));
            }
            let mut dict = Vec::with_capacity(dict_len);
            for _ in 0..dict_len {
                dict.push(Value::Str(get_string(&mut body)?));
            }
            let mut idx = Vec::with_capacity(m.min(body.remaining()));
            for _ in 0..m {
                let id = get_varint(&mut body)?;
                if id as usize >= dict_len {
                    return Err(ScrubError::Decode("dictionary index out of range".into()));
                }
                idx.push(id as u32);
            }
            ColumnData::Str {
                dict,
                idx: expand(idx, validity.as_ref(), n, 0)?,
            }
        }
        COL_MIXED => {
            let mut vs = Vec::with_capacity(n.min(body.remaining() + 1));
            for _ in 0..n {
                vs.push(get_value(&mut body, 0)?);
            }
            ColumnData::Mixed(vs)
        }
        other => {
            return Err(ScrubError::Decode(format!("unknown column tag {other}")));
        }
    };
    if body.has_remaining() {
        return Err(ScrubError::Decode("trailing bytes in column body".into()));
    }
    Ok(Column { validity, data })
}

/// Visit `(request_id, timestamp)` per event without decoding columns
/// (their length prefixes let us skip the bodies entirely).
fn scan_meta(mut buf: Bytes, f: &mut dyn FnMut(u64, i64)) -> ScrubResult<()> {
    let total = get_varint(&mut buf)? as usize;
    if total > MAX_BATCH_EVENTS {
        return Err(ScrubError::Decode("implausible batch size".into()));
    }
    let mut rids = Vec::new();
    let mut seen = 0usize;
    while buf.has_remaining() {
        let _type_id = get_varint(&mut buf)?;
        let arity = get_varint(&mut buf)? as usize;
        if arity > 1 << 16 {
            return Err(ScrubError::Decode("implausible event arity".into()));
        }
        let n = get_varint(&mut buf)? as usize;
        if n == 0 || n > total - seen || n > buf.remaining() {
            return Err(ScrubError::Decode("bad chunk length".into()));
        }
        rids.clear();
        rids.reserve(n);
        for _ in 0..n {
            rids.push(get_varint(&mut buf)?);
        }
        for rid in rids.iter().take(n) {
            f(*rid, unzigzag(get_varint(&mut buf)?));
        }
        for _ in 0..arity {
            if !buf.has_remaining() {
                return Err(ScrubError::Decode("truncated column tag".into()));
            }
            let _tag = buf.get_u8();
            let body_len = get_varint(&mut buf)? as usize;
            if buf.remaining() < body_len {
                return Err(ScrubError::Decode("truncated column body".into()));
            }
            buf.advance(body_len);
        }
        seen += n;
    }
    if seen != total {
        return Err(ScrubError::Decode(
            "chunk counts disagree with total".into(),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(type_id: u32, rid: u64, ts: i64, values: Vec<Value>) -> Event {
        Event::new(EventTypeId(type_id), RequestId(rid), ts, values)
    }

    #[test]
    fn typed_columns_round_trip_exact_variants() {
        let events: Vec<Event> = (0..50)
            .map(|i| {
                ev(
                    2,
                    i,
                    i as i64 * 10 - 100,
                    vec![
                        Value::Int(i as i32 - 25),
                        Value::Long((i as i64) << 33),
                        Value::Float(i as f32 / 3.0),
                        Value::Double(-(i as f64) / 7.0),
                        Value::DateTime(1_700_000_000_000 + i as i64),
                        Value::Bool(i % 3 == 0),
                        Value::Str(format!("host-{}", i % 4)),
                    ],
                )
            })
            .collect();
        let frame = ColumnarFrame::from_events(&events);
        assert_eq!(frame.len(), 50);
        assert_eq!(frame.ts_range(), Some((-100, 390)));
        assert_eq!(frame.to_events().unwrap(), events);
    }

    #[test]
    fn nulls_and_all_null_columns() {
        let events: Vec<Event> = (0..20)
            .map(|i| {
                ev(
                    0,
                    i,
                    i as i64,
                    vec![
                        if i % 3 == 0 {
                            Value::Null
                        } else {
                            Value::Long(i as i64)
                        },
                        Value::Null,
                        if i % 2 == 0 {
                            Value::Str(format!("s{}", i % 5))
                        } else {
                            Value::Null
                        },
                    ],
                )
            })
            .collect();
        let frame = ColumnarFrame::from_events(&events);
        assert_eq!(frame.to_events().unwrap(), events);
        let batch = frame.decode().unwrap();
        assert!(matches!(batch.chunks[0].columns[1].data, ColumnData::Null));
        assert!(batch.chunks[0].columns[0].is_null(0));
        assert!(!batch.chunks[0].columns[0].is_null(1));
    }

    #[test]
    fn mixed_and_nested_values_fall_back_to_tagged() {
        let events = vec![
            ev(
                1,
                1,
                5,
                vec![Value::Int(1), Value::List(vec![Value::Int(2)])],
            ),
            ev(
                1,
                2,
                6,
                vec![
                    Value::Long(9),
                    Value::Nested(vec![("k".into(), Value::Str("v".into()))]),
                ],
            ),
        ];
        let frame = ColumnarFrame::from_events(&events);
        let batch = frame.decode().unwrap();
        // Int-vs-Long mixing and list/nested both force the tagged fallback.
        assert!(matches!(
            batch.chunks[0].columns[0].data,
            ColumnData::Mixed(_)
        ));
        assert!(matches!(
            batch.chunks[0].columns[1].data,
            ColumnData::Mixed(_)
        ));
        assert_eq!(frame.to_events().unwrap(), events);
    }

    /// A column that changes variant after nulls, strings and NaN rebuilds
    /// every earlier row — bits and dictionary strings included.
    #[test]
    fn a_variant_switch_mid_batch_rebuilds_the_earlier_rows() {
        let nan = f64::from_bits(0x7ff8_0000_dead_beef);
        let columns = [
            vec![Value::Null, Value::Double(nan), Value::Null, Value::Long(1)],
            vec![
                Value::Str("a".into()),
                Value::Null,
                Value::Str("a".into()),
                Value::Bool(true),
            ],
            vec![Value::Null, Value::Null, Value::Int(3), Value::List(vec![])],
        ];
        let events: Vec<Event> = (0..4)
            .map(|row| {
                ev(
                    0,
                    row as u64,
                    0,
                    columns.iter().map(|c| c[row].clone()).collect(),
                )
            })
            .collect();
        let back = ColumnarFrame::from_events(&events).to_events().unwrap();
        assert_eq!(format!("{back:?}"), format!("{events:?}"));
        assert!(matches!(back[1].values[0], Value::Double(x) if x.to_bits() == nan.to_bits()));
    }

    #[test]
    fn multi_type_batches_chunk_by_type_and_arity() {
        let events = vec![
            ev(0, 1, 1, vec![Value::Long(1)]),
            ev(0, 2, 2, vec![Value::Long(2)]),
            ev(1, 3, 3, vec![]),
            ev(0, 4, 4, vec![Value::Long(4)]),
        ];
        let frame = ColumnarFrame::from_events(&events);
        let batch = frame.decode().unwrap();
        assert_eq!(batch.chunks.len(), 3, "runs split on type change");
        assert_eq!(
            frame.to_events().unwrap(),
            events,
            "order preserved across chunks"
        );
    }

    #[test]
    fn empty_frame_round_trips() {
        let frame = ColumnarFrame::from_events(&[]);
        assert!(frame.is_empty());
        assert_eq!(frame.ts_range(), None);
        assert_eq!(frame.bytes, [0x00, FORMAT_COLUMNAR, 0]);
        assert!(frame.to_events().unwrap().is_empty());
        let mut builder = ChunkBuilder::new(EventTypeId(3), 2);
        assert_eq!(builder.take_frame(), frame, "header only, no chunk");
    }

    /// A builder emptied by a flush keeps its buffers, not its typing:
    /// each frame equals a fresh encoding of its own rows.
    #[test]
    fn a_reused_builder_types_each_batch_afresh() {
        let batches = [
            vec![Value::Long(7), Value::Long(-7), Value::Null],
            vec![
                Value::Str("x".into()),
                Value::Str("y".into()),
                Value::Str("x".into()),
            ],
            vec![Value::Null, Value::Null, Value::Null],
            vec![Value::Int(1), Value::Long(1), Value::Double(0.5)],
            vec![Value::Str("y".into()), Value::Null, Value::Str("z".into())],
        ];
        let mut builder = ChunkBuilder::new(EventTypeId(5), 1);
        for (b, cells) in batches.iter().enumerate() {
            let events: Vec<Event> = cells
                .iter()
                .enumerate()
                .map(|(i, v)| ev(5, (b * 10 + i) as u64, i as i64, vec![v.clone()]))
                .collect();
            for e in &events {
                builder.push_row(e.request_id.0, e.timestamp, &e.values);
            }
            assert_eq!(
                builder.take_frame(),
                ColumnarFrame::from_events(&events),
                "batch {b}"
            );
            assert!(builder.is_empty());
        }
    }

    /// A row short of the arity reads null in the missing columns, and
    /// fields past it are ignored: the columns never disagree on length.
    #[test]
    fn short_and_long_rows_keep_the_columns_aligned() {
        let mut builder = ChunkBuilder::new(EventTypeId(4), 2);
        builder.push_row(1, 10, [Value::Long(1)]);
        builder.push_row(2, 20, [Value::Long(2), Value::Bool(true), Value::Long(9)]);
        let events = builder.take_frame().to_events().unwrap();
        assert_eq!(
            events,
            [
                ev(4, 1, 10, vec![Value::Long(1), Value::Null]),
                ev(4, 2, 20, vec![Value::Long(2), Value::Bool(true)]),
            ]
        );
    }

    /// Many distinct strings grow the dictionary's table past several
    /// rehashes; indices stay in first-seen order.
    #[test]
    fn large_dictionaries_keep_first_seen_order() {
        let events: Vec<Event> = (0..3_000u64)
            .map(|i| {
                ev(
                    0,
                    i,
                    0,
                    vec![Value::Str(format!("key-{}", (i * 7919) % 1_000))],
                )
            })
            .collect();
        let frame = ColumnarFrame::from_events(&events);
        let batch = frame.decode().unwrap();
        let ColumnData::Str { dict, idx } = &batch.chunks[0].columns[0].data else {
            panic!("string column expected");
        };
        assert_eq!(dict.len(), 1_000);
        assert_eq!(dict[1], Value::Str("key-919".into()));
        assert_eq!(idx[1_001], 1);
        assert_eq!(frame.to_events().unwrap(), events);
    }

    #[test]
    fn meta_scan_matches_rows_without_decoding_columns() {
        let events: Vec<Event> = (0..30)
            .map(|i| {
                ev(
                    0,
                    i * 3,
                    i as i64 - 7,
                    vec![Value::Str(format!("x{i}")), Value::Double(i as f64)],
                )
            })
            .collect();
        let frame = ColumnarFrame::from_events(&events);
        let mut seen = Vec::new();
        frame.for_each_meta(|rid, ts| seen.push((rid, ts))).unwrap();
        let expect: Vec<(u64, i64)> = events
            .iter()
            .map(|e| (e.request_id.0, e.timestamp))
            .collect();
        assert_eq!(seen, expect);
    }

    /// Against the per-event row footprint the logging baseline is sized
    /// with ([`Event::approx_bytes`]).
    #[test]
    fn columnar_is_smaller_than_rows_on_typical_payloads() {
        let events: Vec<Event> = (0..1000)
            .map(|i| {
                ev(
                    0,
                    i,
                    i as i64 % 60_000,
                    vec![
                        Value::Long((i % 100) as i64),
                        Value::Double(0.25),
                        Value::Str(format!("dc-{}", i % 3)),
                    ],
                )
            })
            .collect();
        let rows: usize = events.iter().map(Event::approx_bytes).sum();
        let col = ColumnarFrame::from_events(&events);
        assert!(
            col.bytes.len() < rows,
            "columnar ({}) must beat row ({rows})",
            col.bytes.len()
        );
        assert_eq!(col.to_events().unwrap(), events);
    }

    #[test]
    fn corrupt_frames_error_cleanly() {
        let events = vec![ev(0, 1, 2, vec![Value::Long(3), Value::Str("abc".into())])];
        let frame = ColumnarFrame::from_events(&events);
        for cut in 2..frame.bytes.len() {
            let partial = Bytes::copy_from_slice(&frame.bytes[2..cut]);
            assert!(
                decode_columnar_body(partial).is_err(),
                "prefix {cut} decoded"
            );
        }
        // flipping the dictionary index out of range must be caught
        let mut mutated = frame.bytes.clone();
        let last = mutated.len() - 1;
        mutated[last] = 0x7f;
        let body = Bytes::copy_from_slice(&mutated[2..]);
        assert!(decode_columnar_body(body).is_err());
    }

    #[test]
    fn unknown_format_byte_rejected() {
        let frame = ColumnarFrame {
            bytes: vec![0x00, 0x77, 0x01],
            ..ColumnarFrame::from_events(&[])
        };
        let err = frame.decode().unwrap_err().to_string();
        assert!(err.contains("unknown wire format 119"), "{err}");
    }

    /// A frame of the retired row format — versioned, or the legacy
    /// headerless one (`[0x00]` when empty) — is one clear error, from
    /// the full decoder and the header scan alike.
    #[test]
    fn retired_row_frames_are_one_clear_error() {
        // one row event: type 0, rid 1, ts zigzag(2), arity 1, Long(3)
        let event = [0u8, 1, 4, 1, 4, 6];
        let body = [&[1u8][..], &event].concat();
        for bytes in [[&[0x00, 1][..], &body].concat(), body, vec![0x00]] {
            let frame = ColumnarFrame {
                bytes,
                ..ColumnarFrame::from_events(&[])
            };
            let err = frame.decode().unwrap_err();
            assert!(matches!(err, ScrubError::Decode(_)));
            assert!(err.to_string().contains("retired row wire format"), "{err}");
            assert!(frame.for_each_meta(|_, _| {}).is_err());
        }
    }
}
