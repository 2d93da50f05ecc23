//! Columnar wire layout for event batches (wire format v2).
//!
//! A host ships a batch of projected events whose values are stored as
//! per-(event-type, field) *column segments* instead of interleaved tagged
//! rows: one tag byte per column, contiguous zigzag-varint runs for
//! ints/datetimes, a per-column string dictionary, and a null bitmap.
//! ScrubCentral decodes a frame into [`ColumnarBatch`] — full-length typed
//! vectors per column — so residual filters, group-key hashing, aggregate
//! folds and the request-id join read columns in place, lending values
//! ([`Column::value_ref`]) without materialising a row `Event` per input
//! event.
//!
//! Frame layout (after the 2-byte `[0x00, format]` header written by
//! [`crate::encode::encode_batch_format`]):
//!
//! ```text
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
//! values, fall back to `COL_MIXED`: per-row tagged encoding identical
//! to the row format. Exact `Value` variants always round-trip — `Int` is
//! never widened to `Long` nor `Float` to `Double` — because decoded
//! values feed group keys and MIN/MAX aggregates whose rendered output
//! must be bit-identical to what the row format carries.

use std::borrow::Cow;
use std::collections::HashMap;

use bytes::{Buf, BufMut, Bytes, BytesMut};
use serde::{Deserialize, Serialize};

use crate::encode::{get_string, get_value, get_varint, put_value, put_varint, unzigzag, zigzag};
use crate::encode::{FORMAT_COLUMNAR, MAX_BATCH_EVENTS};
use crate::error::{ScrubError, ScrubResult};
use crate::event::{Event, RequestId};
use crate::schema::EventTypeId;
use crate::value::Value;

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
/// without decoding: event count and timestamp bounds. This is what rides
/// inside an `EventBatch` when the wire format is columnar — the frame
/// bytes *are* the payload, so byte accounting is exact by construction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ColumnarFrame {
    /// Complete wire frame including the `[0x00, format]` header, as
    /// produced by [`crate::encode::encode_batch_format`].
    pub bytes: Vec<u8>,
    /// Number of events in the frame.
    pub count: u32,
    /// Minimum event timestamp (0 when the frame is empty).
    pub ts_min: i64,
    /// Maximum event timestamp (0 when the frame is empty).
    pub ts_max: i64,
}

impl ColumnarFrame {
    /// Encode a slice of events into a columnar frame.
    pub fn from_events(events: &[Event]) -> ColumnarFrame {
        let mut buf = BytesMut::with_capacity(events.len() * 16 + 16);
        buf.put_u8(0x00);
        buf.put_u8(FORMAT_COLUMNAR);
        encode_columnar_body(&mut buf, events);
        let (ts_min, ts_max) = events.iter().fold((i64::MAX, i64::MIN), |(lo, hi), ev| {
            (lo.min(ev.timestamp), hi.max(ev.timestamp))
        });
        let empty = events.is_empty();
        ColumnarFrame {
            bytes: buf.as_ref().to_vec(),
            count: events.len() as u32,
            ts_min: if empty { 0 } else { ts_min },
            ts_max: if empty { 0 } else { ts_max },
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

    /// Materialise the frame back into row events (appended to `out`).
    pub fn decode_rows_into(&self, out: &mut Vec<Event>) -> ScrubResult<()> {
        let batch = self.decode()?;
        out.reserve(batch.event_count().min(4096));
        batch.push_events(out);
        Ok(())
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

fn strip_header(frame: &[u8]) -> ScrubResult<Bytes> {
    if frame.len() < 2 || frame[0] != 0x00 || frame[1] != FORMAT_COLUMNAR {
        return Err(ScrubError::Decode("not a columnar frame".into()));
    }
    Ok(Bytes::copy_from_slice(&frame[2..]))
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
    /// Transpose row events straight into typed columns: the same
    /// `(type_id, arity)` run chunking and column typing as the encoder,
    /// so the result equals `ColumnarFrame::from_events(events).decode()`
    /// chunk for chunk without the byte round trip.
    pub fn from_events(events: &[Event]) -> ColumnarBatch {
        ColumnarBatch {
            chunks: chunk_runs(events)
                .map(|run| ColumnChunk {
                    type_id: run[0].type_id,
                    request_ids: run.iter().map(|ev| ev.request_id.0).collect(),
                    timestamps: run.iter().map(|ev| ev.timestamp).collect(),
                    columns: (0..run[0].values.len())
                        .map(|col| transpose_column(run, col))
                        .collect(),
                })
                .collect(),
        }
    }

    /// Total events across all chunks.
    pub fn event_count(&self) -> usize {
        self.chunks.iter().map(|c| c.len()).sum()
    }

    /// Materialise row events in original order, appending to `out`.
    pub fn push_events(&self, out: &mut Vec<Event>) {
        for chunk in &self.chunks {
            for i in 0..chunk.len() {
                out.push(Event::new(
                    chunk.type_id,
                    RequestId(chunk.request_ids[i]),
                    chunk.timestamps[i],
                    chunk.columns.iter().map(|c| c.value_at(i)).collect(),
                ));
            }
        }
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

pub(crate) fn encode_columnar_body(buf: &mut BytesMut, events: &[Event]) {
    put_varint(buf, events.len() as u64);
    let mut scratch = BytesMut::new();
    for chunk in chunk_runs(events) {
        let arity = chunk[0].values.len();
        put_varint(buf, chunk[0].type_id.0 as u64);
        put_varint(buf, arity as u64);
        put_varint(buf, chunk.len() as u64);
        for ev in chunk {
            put_varint(buf, ev.request_id.0);
        }
        for ev in chunk {
            put_varint(buf, zigzag(ev.timestamp));
        }
        for col in 0..arity {
            encode_column(buf, &mut scratch, chunk, col);
        }
    }
}

/// Maximal runs of consecutive events with equal `(type_id, arity)`: one
/// chunk each, for the encoder and the in-memory transposition alike.
fn chunk_runs(events: &[Event]) -> impl Iterator<Item = &[Event]> {
    events.chunk_by(|a, b| a.type_id == b.type_id && a.values.len() == b.values.len())
}

/// Pick the column representation: a single base tag, plus whether a
/// validity bitmap is needed. Any variant mixing (or list/nested value)
/// forces the tagged per-row fallback.
fn classify_column(chunk: &[Event], col: usize) -> (u8, bool) {
    let mut has_nulls = false;
    let mut tag: Option<u8> = None;
    for ev in chunk {
        let t = match &ev.values[col] {
            Value::Null => {
                has_nulls = true;
                continue;
            }
            Value::Bool(_) => COL_BOOL,
            Value::Int(_) => COL_INT,
            Value::Long(_) => COL_LONG,
            Value::Float(_) => COL_FLOAT,
            Value::Double(_) => COL_DOUBLE,
            Value::DateTime(_) => COL_DATETIME,
            Value::Str(_) => COL_STR,
            Value::List(_) | Value::Nested(_) => return (COL_MIXED, false),
        };
        match tag {
            None => tag = Some(t),
            Some(prev) if prev == t => {}
            Some(_) => return (COL_MIXED, false),
        }
    }
    match tag {
        None => (COL_NULL, false),
        Some(t) => (t, has_nulls),
    }
}

fn put_bitmap(buf: &mut BytesMut, bits: impl ExactSizeIterator<Item = bool>) {
    let n = bits.len();
    let mut bytes = vec![0u8; n.div_ceil(8)];
    for (i, b) in bits.enumerate() {
        if b {
            bytes[i / 8] |= 1 << (i % 8);
        }
    }
    buf.put_slice(&bytes);
}

fn encode_column(buf: &mut BytesMut, scratch: &mut BytesMut, chunk: &[Event], col: usize) {
    let (base, has_nulls) = classify_column(chunk, col);
    scratch.clear();
    if has_nulls {
        put_bitmap(
            scratch,
            chunk.iter().map(|ev| ev.values[col] != Value::Null),
        );
    }
    let present = chunk.iter().map(|ev| &ev.values[col]);
    match base {
        COL_NULL => {}
        COL_MIXED => {
            for v in present {
                put_value(scratch, v);
            }
        }
        COL_BOOL => put_bitmap(
            scratch,
            chunk
                .iter()
                .filter_map(|ev| match &ev.values[col] {
                    Value::Bool(b) => Some(*b),
                    _ => None,
                })
                .collect::<Vec<_>>()
                .into_iter(),
        ),
        COL_INT => {
            for v in present {
                if let Value::Int(x) = v {
                    put_varint(scratch, zigzag(*x as i64));
                }
            }
        }
        COL_LONG => {
            for v in present {
                if let Value::Long(x) = v {
                    put_varint(scratch, zigzag(*x));
                }
            }
        }
        COL_DATETIME => {
            for v in present {
                if let Value::DateTime(x) = v {
                    put_varint(scratch, zigzag(*x));
                }
            }
        }
        COL_FLOAT => {
            for v in present {
                if let Value::Float(x) = v {
                    scratch.put_f32(*x);
                }
            }
        }
        COL_DOUBLE => {
            for v in present {
                if let Value::Double(x) = v {
                    scratch.put_f64(*x);
                }
            }
        }
        COL_STR => {
            let mut dict: Vec<&str> = Vec::new();
            let mut lookup: HashMap<&str, u32> = HashMap::new();
            let mut idx: Vec<u32> = Vec::new();
            for v in chunk.iter().map(|ev| &ev.values[col]) {
                if let Value::Str(s) = v {
                    let id = *lookup.entry(s.as_str()).or_insert_with(|| {
                        dict.push(s.as_str());
                        (dict.len() - 1) as u32
                    });
                    idx.push(id);
                }
            }
            put_varint(scratch, dict.len() as u64);
            for s in &dict {
                put_varint(scratch, s.len() as u64);
                scratch.put_slice(s.as_bytes());
            }
            for id in idx {
                put_varint(scratch, id as u64);
            }
        }
        _ => unreachable!("classify_column only returns known tags"),
    }
    buf.put_u8(base | if has_nulls { COL_NULLABLE } else { 0 });
    put_varint(buf, scratch.len() as u64);
    buf.put_slice(scratch.as_ref());
}

/// A typed column vector holding the decoder's `fill` placeholder wherever
/// `pick` declines — null rows, as a single-variant column has no other
/// mismatch.
fn typed<'a, T: Clone>(
    cells: impl Iterator<Item = &'a Value>,
    fill: T,
    mut pick: impl FnMut(&'a Value) -> Option<T>,
) -> Vec<T> {
    cells
        .map(|v| pick(v).unwrap_or_else(|| fill.clone()))
        .collect()
}

/// Column `col` of a chunk as the decoder would rebuild it from
/// [`encode_column`]'s bytes: same representation, same placeholder at
/// null rows, dictionary in first-seen order.
fn transpose_column(chunk: &[Event], col: usize) -> Column {
    let (base, has_nulls) = classify_column(chunk, col);
    let cells = || chunk.iter().map(|ev| &ev.values[col]);
    let data = match base {
        COL_NULL => ColumnData::Null,
        COL_MIXED => ColumnData::Mixed(cells().cloned().collect()),
        COL_BOOL => ColumnData::Bool(typed(cells(), false, Value::as_bool)),
        COL_INT => ColumnData::Int(typed(cells(), 0, |v| match v {
            Value::Int(x) => Some(*x),
            _ => None,
        })),
        COL_LONG => ColumnData::Long(typed(cells(), 0, |v| match v {
            Value::Long(x) => Some(*x),
            _ => None,
        })),
        COL_DATETIME => ColumnData::DateTime(typed(cells(), 0, |v| match v {
            Value::DateTime(x) => Some(*x),
            _ => None,
        })),
        COL_FLOAT => ColumnData::Float(typed(cells(), 0.0, |v| match v {
            Value::Float(x) => Some(*x),
            _ => None,
        })),
        COL_DOUBLE => ColumnData::Double(typed(cells(), 0.0, |v| match v {
            Value::Double(x) => Some(*x),
            _ => None,
        })),
        COL_STR => {
            let mut dict: Vec<Value> = Vec::new();
            let mut lookup: HashMap<&str, u32> = HashMap::new();
            let idx = typed(cells(), 0, |v| match v {
                Value::Str(s) => Some(*lookup.entry(s.as_str()).or_insert_with(|| {
                    dict.push(v.clone());
                    (dict.len() - 1) as u32
                })),
                _ => None,
            });
            ColumnData::Str { dict, idx }
        }
        _ => unreachable!("classify_column only returns known tags"),
    };
    Column {
        validity: has_nulls.then(|| cells().map(|v| !v.is_null()).collect()),
        data,
    }
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// Decode a columnar frame *body* (header already stripped). Total in the
/// face of arbitrary bytes: every length is validated against the buffer
/// before allocation, mirroring the row decoder's guarantees.
pub(crate) fn decode_columnar_body(mut buf: Bytes) -> ScrubResult<ColumnarBatch> {
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
pub(crate) fn scan_meta(mut buf: Bytes, f: &mut dyn FnMut(u64, i64)) -> ScrubResult<()> {
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
    use crate::config::WireFormat;
    use crate::encode::{decode_batch, encode_batch_format};

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
        let mut out = Vec::new();
        frame.decode_rows_into(&mut out).unwrap();
        assert_eq!(out, events);
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
        let mut out = Vec::new();
        frame.decode_rows_into(&mut out).unwrap();
        assert_eq!(out, events);
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
        let mut out = Vec::new();
        frame.decode_rows_into(&mut out).unwrap();
        assert_eq!(out, events);
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
        let mut out = Vec::new();
        frame.decode_rows_into(&mut out).unwrap();
        assert_eq!(out, events, "order preserved across chunks");
    }

    #[test]
    fn empty_frame_round_trips() {
        let frame = ColumnarFrame::from_events(&[]);
        assert!(frame.is_empty());
        assert_eq!(frame.ts_range(), None);
        let mut out = vec![ev(0, 0, 0, vec![])];
        out.clear();
        frame.decode_rows_into(&mut out).unwrap();
        assert!(out.is_empty());
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
        let row = encode_batch_format(&events, WireFormat::Row);
        let col = encode_batch_format(&events, WireFormat::Columnar);
        assert!(
            col.len() < row.len(),
            "columnar ({}) must beat row ({})",
            col.len(),
            row.len()
        );
        assert_eq!(decode_batch(col).unwrap(), events);
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
}
