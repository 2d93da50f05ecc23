//! The primitives the columnar batch frame ([`crate::columnar`]) is
//! written with: varint-encoded integers, length-prefixed strings, and a
//! one-tag-byte-per-value encoding that a column mixing value variants is
//! stored in.

use bytes::{Buf, BufMut, Bytes};

use crate::error::{ScrubError, ScrubResult};
use crate::value::Value;

const TAG_NULL: u8 = 0;
const TAG_BOOL_FALSE: u8 = 1;
const TAG_BOOL_TRUE: u8 = 2;
const TAG_INT: u8 = 3;
const TAG_LONG: u8 = 4;
const TAG_FLOAT: u8 = 5;
const TAG_DOUBLE: u8 = 6;
const TAG_DATETIME: u8 = 7;
const TAG_STR: u8 = 8;
const TAG_LIST: u8 = 9;
const TAG_NESTED: u8 = 10;

/// ZigZag-encode a signed integer so small magnitudes stay small.
pub(crate) fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub(crate) fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Append a LEB128 varint.
pub(crate) fn put_varint(buf: &mut impl BufMut, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.put_u8(byte);
            return;
        }
        buf.put_u8(byte | 0x80);
    }
}

/// Read a LEB128 varint.
pub(crate) fn get_varint(buf: &mut Bytes) -> ScrubResult<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        if !buf.has_remaining() {
            return Err(ScrubError::Decode("truncated varint".into()));
        }
        let byte = buf.get_u8();
        if shift >= 64 {
            return Err(ScrubError::Decode("varint overflow".into()));
        }
        v |= ((byte & 0x7f) as u64) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

pub(crate) fn put_value(buf: &mut impl BufMut, v: &Value) {
    match v {
        Value::Null => buf.put_u8(TAG_NULL),
        Value::Bool(false) => buf.put_u8(TAG_BOOL_FALSE),
        Value::Bool(true) => buf.put_u8(TAG_BOOL_TRUE),
        Value::Int(x) => {
            buf.put_u8(TAG_INT);
            put_varint(buf, zigzag(*x as i64));
        }
        Value::Long(x) => {
            buf.put_u8(TAG_LONG);
            put_varint(buf, zigzag(*x));
        }
        Value::Float(x) => {
            buf.put_u8(TAG_FLOAT);
            buf.put_f32(*x);
        }
        Value::Double(x) => {
            buf.put_u8(TAG_DOUBLE);
            buf.put_f64(*x);
        }
        Value::DateTime(x) => {
            buf.put_u8(TAG_DATETIME);
            put_varint(buf, zigzag(*x));
        }
        Value::Str(s) => {
            buf.put_u8(TAG_STR);
            put_varint(buf, s.len() as u64);
            buf.put_slice(s.as_bytes());
        }
        Value::List(vs) => {
            buf.put_u8(TAG_LIST);
            put_varint(buf, vs.len() as u64);
            for v in vs {
                put_value(buf, v);
            }
        }
        Value::Nested(kv) => {
            buf.put_u8(TAG_NESTED);
            put_varint(buf, kv.len() as u64);
            for (k, v) in kv {
                put_varint(buf, k.len() as u64);
                buf.put_slice(k.as_bytes());
                put_value(buf, v);
            }
        }
    }
}

pub(crate) fn get_string(buf: &mut Bytes) -> ScrubResult<String> {
    let len = get_varint(buf)? as usize;
    if buf.remaining() < len {
        return Err(ScrubError::Decode("truncated string".into()));
    }
    let raw = buf.split_to(len);
    String::from_utf8(raw.to_vec()).map_err(|_| ScrubError::Decode("invalid utf-8".into()))
}

pub(crate) fn get_value(buf: &mut Bytes, depth: u32) -> ScrubResult<Value> {
    if depth > 16 {
        return Err(ScrubError::Decode("value nesting too deep".into()));
    }
    if !buf.has_remaining() {
        return Err(ScrubError::Decode("truncated value".into()));
    }
    let tag = buf.get_u8();
    Ok(match tag {
        TAG_NULL => Value::Null,
        TAG_BOOL_FALSE => Value::Bool(false),
        TAG_BOOL_TRUE => Value::Bool(true),
        TAG_INT => Value::Int(unzigzag(get_varint(buf)?) as i32),
        TAG_LONG => Value::Long(unzigzag(get_varint(buf)?)),
        TAG_FLOAT => {
            if buf.remaining() < 4 {
                return Err(ScrubError::Decode("truncated float".into()));
            }
            Value::Float(buf.get_f32())
        }
        TAG_DOUBLE => {
            if buf.remaining() < 8 {
                return Err(ScrubError::Decode("truncated double".into()));
            }
            Value::Double(buf.get_f64())
        }
        TAG_DATETIME => Value::DateTime(unzigzag(get_varint(buf)?)),
        TAG_STR => Value::Str(get_string(buf)?),
        TAG_LIST => {
            let n = get_varint(buf)? as usize;
            if n > buf.remaining() {
                return Err(ScrubError::Decode("list length exceeds buffer".into()));
            }
            let mut vs = Vec::with_capacity(n);
            for _ in 0..n {
                vs.push(get_value(buf, depth + 1)?);
            }
            Value::List(vs)
        }
        TAG_NESTED => {
            let n = get_varint(buf)? as usize;
            if n > buf.remaining() {
                return Err(ScrubError::Decode("nested length exceeds buffer".into()));
            }
            let mut kv = Vec::with_capacity(n);
            for _ in 0..n {
                let k = get_string(buf)?;
                kv.push((k, get_value(buf, depth + 1)?));
            }
            Value::Nested(kv)
        }
        other => {
            return Err(ScrubError::Decode(format!("unknown value tag {other}")));
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_values() -> Vec<Value> {
        vec![
            Value::Null,
            Value::Bool(true),
            Value::Int(-5),
            Value::Long(1 << 40),
            Value::Float(1.5),
            Value::Double(-2.25),
            Value::DateTime(1_700_000_000_000),
            Value::Str("héllo".into()),
            Value::List(vec![Value::Int(1), Value::Int(2)]),
            Value::Nested(vec![("k".into(), Value::Str("v".into()))]),
        ]
    }

    /// One value of every variant, back to back, as a mixed column
    /// stores an event's cells.
    fn encoded_sample() -> (Vec<Value>, Bytes) {
        let values = sample_values();
        let mut buf = Vec::new();
        values.iter().for_each(|v| put_value(&mut buf, v));
        (values, Bytes::from(buf))
    }

    fn decode_all(mut bytes: Bytes, n: usize) -> ScrubResult<(Vec<Value>, Bytes)> {
        let values = (0..n)
            .map(|_| get_value(&mut bytes, 0))
            .collect::<ScrubResult<_>>()?;
        Ok((values, bytes))
    }

    #[test]
    fn event_round_trip() {
        let (values, full) = encoded_sample();
        let (back, rest) = decode_all(full, values.len()).unwrap();
        assert_eq!(back, values);
        assert!(!rest.has_remaining());
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let (values, full) = encoded_sample();
        for cut in 0..full.len() {
            // every prefix must fail cleanly
            let partial = full.slice(0..cut);
            assert!(
                decode_all(partial, values.len()).is_err(),
                "prefix {cut} decoded"
            );
        }
    }

    #[test]
    fn garbage_tag_rejected() {
        let bogus_tag = vec![200u8];
        assert!(get_value(&mut Bytes::from(bogus_tag), 0).is_err());
    }

    #[test]
    fn zigzag_round_trip() {
        for v in [0i64, 1, -1, i64::MAX, i64::MIN, 42, -42] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn varints_are_compact_for_small_values() {
        let mut buf = Vec::new();
        put_varint(&mut buf, 5);
        assert_eq!(buf.len(), 1);
        put_varint(&mut buf, 300);
        assert_eq!(buf.len(), 3);
    }
}
