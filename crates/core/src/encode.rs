//! The primitives the columnar batch frame ([`crate::columnar`]) is
//! written with: varint-encoded integers, length-prefixed strings, and a
//! one-tag-byte-per-value encoding that a column mixing value variants is
//! stored in.

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

/// Split the next `n` bytes off the front of `buf`; `None` (and `buf`
/// untouched) when fewer remain.
#[inline]
pub(crate) fn take<'a>(buf: &mut &'a [u8], n: usize) -> Option<&'a [u8]> {
    let (head, rest) = buf.split_at_checked(n)?;
    *buf = rest;
    Some(head)
}

/// Split the next byte off the front of `buf`.
#[inline]
pub(crate) fn get_u8(buf: &mut &[u8]) -> Option<u8> {
    let (&byte, rest) = buf.split_first()?;
    *buf = rest;
    Some(byte)
}

/// Append a LEB128 varint.
pub(crate) fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Read a LEB128 varint. A `u64` takes at most ten bytes, the tenth
/// carrying the top bit only, so a tenth byte above 1 is an overflow.
#[inline]
pub(crate) fn get_varint(buf: &mut &[u8]) -> ScrubResult<u64> {
    let mut v = 0u64;
    for (i, &byte) in buf.iter().take(10).enumerate() {
        v |= ((byte & 0x7f) as u64) << (7 * i);
        if byte & 0x80 == 0 {
            if i == 9 && byte > 1 {
                break;
            }
            *buf = &buf[i + 1..];
            return Ok(v);
        }
    }
    Err(ScrubError::Decode(
        if buf.len() < 10 {
            "truncated varint"
        } else {
            "varint overflow"
        }
        .into(),
    ))
}

pub(crate) fn put_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => buf.push(TAG_NULL),
        Value::Bool(false) => buf.push(TAG_BOOL_FALSE),
        Value::Bool(true) => buf.push(TAG_BOOL_TRUE),
        Value::Int(x) => {
            buf.push(TAG_INT);
            put_varint(buf, zigzag(*x as i64));
        }
        Value::Long(x) => {
            buf.push(TAG_LONG);
            put_varint(buf, zigzag(*x));
        }
        Value::Float(x) => {
            buf.push(TAG_FLOAT);
            buf.extend_from_slice(&x.to_be_bytes());
        }
        Value::Double(x) => {
            buf.push(TAG_DOUBLE);
            buf.extend_from_slice(&x.to_be_bytes());
        }
        Value::DateTime(x) => {
            buf.push(TAG_DATETIME);
            put_varint(buf, zigzag(*x));
        }
        Value::Str(s) => {
            buf.push(TAG_STR);
            put_varint(buf, s.len() as u64);
            buf.extend_from_slice(s.as_bytes());
        }
        Value::List(vs) => {
            buf.push(TAG_LIST);
            put_varint(buf, vs.len() as u64);
            for v in vs {
                put_value(buf, v);
            }
        }
        Value::Nested(kv) => {
            buf.push(TAG_NESTED);
            put_varint(buf, kv.len() as u64);
            for (k, v) in kv {
                put_varint(buf, k.len() as u64);
                buf.extend_from_slice(k.as_bytes());
                put_value(buf, v);
            }
        }
    }
}

pub(crate) fn get_string(buf: &mut &[u8]) -> ScrubResult<String> {
    let len = get_varint(buf)? as usize;
    let raw = take(buf, len).ok_or_else(|| ScrubError::Decode("truncated string".into()))?;
    std::str::from_utf8(raw)
        .map(str::to_owned)
        .map_err(|_| ScrubError::Decode("invalid utf-8".into()))
}

pub(crate) fn get_value(buf: &mut &[u8], depth: u32) -> ScrubResult<Value> {
    if depth > 16 {
        return Err(ScrubError::Decode("value nesting too deep".into()));
    }
    let tag = get_u8(buf).ok_or_else(|| ScrubError::Decode("truncated value".into()))?;
    Ok(match tag {
        TAG_NULL => Value::Null,
        TAG_BOOL_FALSE => Value::Bool(false),
        TAG_BOOL_TRUE => Value::Bool(true),
        TAG_INT => Value::Int(unzigzag(get_varint(buf)?) as i32),
        TAG_LONG => Value::Long(unzigzag(get_varint(buf)?)),
        TAG_FLOAT => {
            let (raw, rest) = buf
                .split_first_chunk()
                .ok_or_else(|| ScrubError::Decode("truncated float".into()))?;
            *buf = rest;
            Value::Float(f32::from_be_bytes(*raw))
        }
        TAG_DOUBLE => {
            let (raw, rest) = buf
                .split_first_chunk()
                .ok_or_else(|| ScrubError::Decode("truncated double".into()))?;
            *buf = rest;
            Value::Double(f64::from_be_bytes(*raw))
        }
        TAG_DATETIME => Value::DateTime(unzigzag(get_varint(buf)?)),
        TAG_STR => Value::Str(get_string(buf)?),
        TAG_LIST => {
            let n = get_varint(buf)? as usize;
            if n > buf.len() {
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
            if n > buf.len() {
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
    fn encoded_sample() -> (Vec<Value>, Vec<u8>) {
        let values = sample_values();
        let mut buf = Vec::new();
        values.iter().for_each(|v| put_value(&mut buf, v));
        (values, buf)
    }

    fn decode_all(mut bytes: &[u8], n: usize) -> ScrubResult<(Vec<Value>, &[u8])> {
        let values = (0..n)
            .map(|_| get_value(&mut bytes, 0))
            .collect::<ScrubResult<_>>()?;
        Ok((values, bytes))
    }

    fn varint_err(mut bytes: &[u8]) -> String {
        get_varint(&mut bytes).unwrap_err().to_string()
    }

    #[test]
    fn event_round_trip() {
        let (values, full) = encoded_sample();
        let (back, rest) = decode_all(&full, values.len()).unwrap();
        assert_eq!(back, values);
        assert!(rest.is_empty());
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let (values, full) = encoded_sample();
        for cut in 0..full.len() {
            // every prefix must fail cleanly
            assert!(
                decode_all(&full[..cut], values.len()).is_err(),
                "prefix {cut} decoded"
            );
        }
    }

    fn value_err(mut bytes: &[u8]) -> String {
        get_value(&mut bytes, 0).unwrap_err().to_string()
    }

    #[test]
    fn garbage_tag_rejected() {
        for tag in TAG_NESTED + 1..=u8::MAX {
            let err = value_err(&[tag]);
            assert!(err.contains(&format!("unknown value tag {tag}")), "{err}");
        }
    }

    #[test]
    fn an_empty_buffer_is_a_truncated_value() {
        assert!(value_err(&[]).contains("truncated value"));
    }

    #[test]
    fn a_string_longer_than_the_buffer_is_truncated() {
        let err = value_err(&[TAG_STR, 3, b'a']);
        assert!(err.contains("truncated string"), "{err}");
    }

    #[test]
    fn a_string_must_be_utf8() {
        let err = value_err(&[TAG_STR, 1, 0xff]);
        assert!(err.contains("invalid utf-8"), "{err}");
    }

    #[test]
    fn short_float_and_double_bits_are_truncated() {
        let err = value_err(&[TAG_FLOAT, 0, 0, 0]);
        assert!(err.contains("truncated float"), "{err}");
        let err = value_err(&[TAG_DOUBLE, 0, 0, 0, 0, 0, 0, 0]);
        assert!(err.contains("truncated double"), "{err}");
    }

    /// A claimed element count is checked against the bytes left before
    /// anything is allocated for it.
    #[test]
    fn a_list_count_past_the_buffer_is_rejected_up_front() {
        let err = value_err(&[TAG_LIST, 5, TAG_NULL]);
        assert!(err.contains("list length exceeds buffer"), "{err}");
        let mut huge = vec![TAG_LIST];
        put_varint(&mut huge, u64::MAX);
        assert!(value_err(&huge).contains("list length exceeds buffer"));
    }

    #[test]
    fn a_nested_count_past_the_buffer_is_rejected_up_front() {
        let err = value_err(&[TAG_NESTED, 5, TAG_NULL]);
        assert!(err.contains("nested length exceeds buffer"), "{err}");
    }

    /// Sixteen levels of nesting decode; the seventeenth is refused, so a
    /// hostile frame cannot recurse without bound.
    #[test]
    fn nesting_stops_past_sixteen_levels() {
        let nest = |levels: usize| {
            let mut v = Value::Null;
            for _ in 0..levels {
                v = Value::List(vec![v]);
            }
            v
        };
        let mut ok = Vec::new();
        put_value(&mut ok, &nest(16));
        assert_eq!(get_value(&mut &ok[..], 0).unwrap(), nest(16));
        let mut deep = Vec::new();
        put_value(&mut deep, &nest(17));
        assert!(value_err(&deep).contains("value nesting too deep"));
    }

    #[test]
    fn integer_extremes_round_trip() {
        let values = [
            Value::Int(i32::MIN),
            Value::Int(i32::MAX),
            Value::Long(i64::MIN),
            Value::Long(i64::MAX),
            Value::DateTime(i64::MIN),
            Value::DateTime(i64::MAX),
        ];
        let mut buf = Vec::new();
        values.iter().for_each(|v| put_value(&mut buf, v));
        let (back, rest) = decode_all(&buf, values.len()).unwrap();
        assert_eq!(back, values);
        assert!(rest.is_empty());
    }

    /// Floats travel as their IEEE bits: NaN payloads, infinities and the
    /// sign of zero survive the trip.
    #[test]
    fn float_bits_round_trip_exactly() {
        let doubles = [f64::NAN, -0.0, f64::INFINITY, f64::MIN_POSITIVE];
        let floats = [f32::NAN, -0.0, f32::NEG_INFINITY, f32::MAX];
        let mut buf = Vec::new();
        doubles
            .iter()
            .for_each(|d| put_value(&mut buf, &Value::Double(*d)));
        floats
            .iter()
            .for_each(|f| put_value(&mut buf, &Value::Float(*f)));
        let mut rest = &buf[..];
        for d in doubles {
            match get_value(&mut rest, 0).unwrap() {
                Value::Double(back) => assert_eq!(back.to_bits(), d.to_bits()),
                other => panic!("{other:?}"),
            }
        }
        for f in floats {
            match get_value(&mut rest, 0).unwrap() {
                Value::Float(back) => assert_eq!(back.to_bits(), f.to_bits()),
                other => panic!("{other:?}"),
            }
        }
        assert!(rest.is_empty());
    }

    #[test]
    fn take_and_get_u8_leave_a_short_buffer_untouched() {
        let bytes = [1u8, 2, 3];
        let mut buf = &bytes[..];
        assert_eq!(take(&mut buf, 4), None);
        assert_eq!(buf, &bytes[..]);
        assert_eq!(take(&mut buf, 2), Some(&bytes[..2]));
        assert_eq!(get_u8(&mut buf), Some(3));
        assert_eq!(get_u8(&mut buf), None);
        assert!(buf.is_empty());
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

    /// `u64::MAX` is the longest varint: nine full bytes and a tenth of 1.
    /// Anything shorter is truncated; a longer run, or a tenth byte with
    /// bits past the 64th, is an overflow rather than a silent alias.
    #[test]
    fn ten_byte_varints_are_canonical() {
        let mut max = Vec::new();
        put_varint(&mut max, u64::MAX);
        assert_eq!(max, [&[0xff; 9][..], &[0x01]].concat());
        let mut rest = &max[..];
        assert_eq!(get_varint(&mut rest).unwrap(), u64::MAX);
        assert!(rest.is_empty());
        for cut in 0..max.len() {
            assert!(
                varint_err(&max[..cut]).contains("truncated varint"),
                "{cut}"
            );
        }
        assert!(varint_err(&[0xff; 11]).contains("varint overflow"));
        let tenth_too_big = [&[0xff; 9][..], &[0x02]].concat();
        assert!(varint_err(&tenth_too_big).contains("varint overflow"));
    }
}
