//! Runtime values carried in Scrub event fields and produced by queries.
//!
//! The paper (§3.1) supports fields of types boolean, int, long, float,
//! double, date/time, string, and homogeneous lists of these primitive
//! types, plus nested objects. `Value` mirrors that type lattice at
//! runtime; [`FieldType`](crate::schema::FieldType) mirrors it statically.

use std::cmp::Ordering;
use std::fmt;

use serde::{Deserialize, Serialize};

/// A dynamically-typed Scrub value.
///
/// `Value` is what flows through the system: it is stored in event tuples on
/// the host, shipped to ScrubCentral, grouped on, and aggregated. The
/// variants correspond one-to-one to the field types in §3.1 of the paper.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Value {
    /// Absent / null value (e.g. a projection of an optional field).
    Null,
    /// `boolean`
    Bool(bool),
    /// `int` — 32-bit signed integer.
    Int(i32),
    /// `long` — 64-bit signed integer.
    Long(i64),
    /// `float` — 32-bit IEEE 754.
    Float(f32),
    /// `double` — 64-bit IEEE 754.
    Double(f64),
    /// `date/time` — milliseconds since the Unix epoch.
    DateTime(i64),
    /// `string`
    Str(String),
    /// Homogeneous list of primitive values.
    List(Vec<Value>),
    /// Nested object (e.g. an XML/JSON-encoded sub-record), represented as
    /// ordered key/value pairs.
    Nested(Vec<(String, Value)>),
}

impl Value {
    /// Human-readable name of this value's runtime type.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "boolean",
            Value::Int(_) => "int",
            Value::Long(_) => "long",
            Value::Float(_) => "float",
            Value::Double(_) => "double",
            Value::DateTime(_) => "datetime",
            Value::Str(_) => "string",
            Value::List(_) => "list",
            Value::Nested(_) => "nested",
        }
    }

    /// True if the value is [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view of the value as `f64`, if it is numeric.
    ///
    /// Used by arithmetic, comparisons across numeric widths, and the
    /// numeric aggregators (SUM/AVG/MIN/MAX).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(v) => Some(*v as f64),
            Value::Long(v) => Some(*v as f64),
            Value::Float(v) => Some(*v as f64),
            Value::Double(v) => Some(*v),
            Value::DateTime(v) => Some(*v as f64),
            Value::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
            _ => None,
        }
    }

    /// Integer view of the value as `i64`, if it is integral.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v as i64),
            Value::Long(v) => Some(*v),
            Value::DateTime(v) => Some(*v),
            Value::Bool(b) => Some(*b as i64),
            _ => None,
        }
    }

    /// Boolean view, if the value is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// String view, if the value is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Sort rank of the value's type family. The total order compares
    /// ranks first, then within the rank; mixing per-type name fallbacks
    /// with numeric comparison would break transitivity (a numeric can
    /// compare below a boolean numerically but above it by type name).
    fn rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_)
            | Value::Int(_)
            | Value::Long(_)
            | Value::Float(_)
            | Value::Double(_)
            | Value::DateTime(_) => 1,
            Value::Str(_) => 2,
            Value::List(_) => 3,
            Value::Nested(_) => 4,
        }
    }

    /// Total ordering used by MIN/MAX and ORDER-BY-like post-processing.
    ///
    /// Lexicographic on (type rank, within-rank key): `Null` first, then
    /// all numerics (compared by numeric value — booleans count as 0/1,
    /// datetimes as their epoch millis), then strings, lists, and nested
    /// objects. This is a genuine total order (verified by property test).
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        use Value::*;
        let by_rank = self.rank().cmp(&other.rank());
        if by_rank != Ordering::Equal {
            return by_rank;
        }
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Str(a), Str(b)) => a.cmp(b),
            (List(a), List(b)) => {
                for (x, y) in a.iter().zip(b.iter()) {
                    let c = x.total_cmp(y);
                    if c != Ordering::Equal {
                        return c;
                    }
                }
                a.len().cmp(&b.len())
            }
            (Nested(a), Nested(b)) => {
                for ((ka, va), (kb, vb)) in a.iter().zip(b.iter()) {
                    let c = ka.cmp(kb).then_with(|| va.total_cmp(vb));
                    if c != Ordering::Equal {
                        return c;
                    }
                }
                a.len().cmp(&b.len())
            }
            (a, b) => {
                let x = a.as_f64().expect("rank 1 values are numeric");
                let y = b.as_f64().expect("rank 1 values are numeric");
                x.total_cmp(&y)
            }
        }
    }

    /// Equality used by predicates and group-by keys: numeric values of
    /// different widths are equal when their numeric values are equal.
    pub fn loose_eq(&self, other: &Value) -> bool {
        self.total_cmp(other) == Ordering::Equal
    }

    /// The value as comparisons read it; numbers through [`Value::as_f64`].
    #[inline]
    pub fn scalar(&self) -> Scalar<'_> {
        match self {
            Value::Null => Scalar::Null,
            Value::Str(s) => Scalar::Str(s),
            v => v.as_f64().map_or(Scalar::Other(v), Scalar::Num),
        }
    }

    /// A canonical group-by key encoding for this value.
    ///
    /// Group-by and join keys need `Hash + Eq`; floats make that awkward, so
    /// keys are canonicalized into an order-preserving byte-comparable form.
    pub fn group_key(&self) -> GroupKey {
        match self {
            Value::Null => GroupKey::Null,
            Value::Bool(b) => GroupKey::Int(*b as i64),
            Value::Int(v) => GroupKey::Int(*v as i64),
            Value::Long(v) => GroupKey::Int(*v),
            Value::DateTime(v) => GroupKey::Int(*v),
            Value::Float(v) => GroupKey::Bits((*v as f64).to_bits()),
            Value::Double(v) => GroupKey::Bits(v.to_bits()),
            Value::Str(s) => GroupKey::Str(s.clone()),
            Value::List(vs) => GroupKey::List(vs.iter().map(Value::group_key).collect()),
            Value::Nested(kv) => {
                GroupKey::Map(kv.iter().map(|(k, v)| (k.clone(), v.group_key())).collect())
            }
        }
    }
}

/// Hashable, equatable canonical form of a [`Value`], used as a group-by or
/// join key inside ScrubCentral.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum GroupKey {
    /// Null key.
    Null,
    /// Integral key (bool/int/long/datetime).
    Int(i64),
    /// Floating key, canonicalized to its IEEE bit pattern.
    Bits(u64),
    /// String key.
    Str(String),
    /// Composite key.
    List(Vec<GroupKey>),
    /// Nested-object key (field name, value key pairs in declared order).
    Map(Vec<(String, GroupKey)>),
}

/// A value as a comparison sees it, read without building a [`Value`]
/// ([`Value::scalar`], [`Column::scalar`](crate::columnar::Column::scalar)).
///
/// The interpreter, the tap's predicate index and ScrubCentral's join
/// kernels all decide `= != < <= > >=` through [`Scalar::compare`] and
/// [`BinOp::truth`](crate::expr::BinOp::truth), so the hosts and central
/// agree on every comparison of a split WHERE clause.
#[derive(Debug, Clone, Copy)]
pub enum Scalar<'a> {
    /// Null or missing: compares with nothing.
    Null,
    /// Every numeric, boolean and datetime value, as its `as_f64`.
    Num(f64),
    Str(&'a str),
    /// A list or a nested object.
    Other(&'a Value),
}

impl Scalar<'_> {
    /// The number, if this is one.
    #[inline]
    pub fn num(self) -> Option<f64> {
        match self {
            Scalar::Num(x) => Some(x),
            _ => None,
        }
    }

    /// The one comparability and order rule: two numbers compare by
    /// `f64::total_cmp`, two strings by bytes, two lists or two nested
    /// objects by [`Value::total_cmp`]. A `Null`, or values of different
    /// kinds, do not compare (`None`), and every comparison of them is
    /// false.
    #[inline]
    pub fn compare(self, other: Scalar<'_>) -> Option<Ordering> {
        match (self, other) {
            (Scalar::Num(x), Scalar::Num(y)) => Some(x.total_cmp(&y)),
            (Scalar::Str(x), Scalar::Str(y)) => Some(x.cmp(y)),
            (Scalar::Other(x), Scalar::Other(y)) if x.type_name() == y.type_name() => {
                Some(x.total_cmp(y))
            }
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Long(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Double(v) => write!(f, "{v}"),
            Value::DateTime(v) => write!(f, "@{v}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::List(vs) => {
                write!(f, "[")?;
                for (i, v) in vs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
            Value::Nested(kv) => {
                write!(f, "{{")?;
                for (i, (k, v)) in kv.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{k}: {v}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Long(v)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::Long(v as i64)
    }
}
impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::Long(v as i64)
    }
}
impl From<f32> for Value {
    fn from(v: f32) -> Self {
        Value::Float(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Double(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}
impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Self {
        Value::List(v.into_iter().map(Into::into).collect())
    }
}
impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Self {
        v.map(Into::into).unwrap_or(Value::Null)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_names() {
        assert_eq!(Value::Null.type_name(), "null");
        assert_eq!(Value::Bool(true).type_name(), "boolean");
        assert_eq!(Value::Int(1).type_name(), "int");
        assert_eq!(Value::Long(1).type_name(), "long");
        assert_eq!(Value::Float(1.0).type_name(), "float");
        assert_eq!(Value::Double(1.0).type_name(), "double");
        assert_eq!(Value::DateTime(0).type_name(), "datetime");
        assert_eq!(Value::Str("x".into()).type_name(), "string");
        assert_eq!(Value::List(vec![]).type_name(), "list");
        assert_eq!(Value::Nested(vec![]).type_name(), "nested");
    }

    #[test]
    fn numeric_views() {
        assert_eq!(Value::Int(7).as_f64(), Some(7.0));
        assert_eq!(Value::Long(-3).as_f64(), Some(-3.0));
        assert_eq!(Value::Double(2.5).as_f64(), Some(2.5));
        assert_eq!(Value::Float(0.5).as_f64(), Some(0.5));
        assert_eq!(Value::Bool(true).as_f64(), Some(1.0));
        assert_eq!(Value::Str("x".into()).as_f64(), None);
        assert_eq!(Value::Int(7).as_i64(), Some(7));
        assert_eq!(Value::Double(2.5).as_i64(), None);
    }

    #[test]
    fn cross_width_numeric_equality() {
        assert!(Value::Int(5).loose_eq(&Value::Long(5)));
        assert!(Value::Long(5).loose_eq(&Value::Double(5.0)));
        assert!(!Value::Int(5).loose_eq(&Value::Double(5.5)));
        assert!(!Value::Int(5).loose_eq(&Value::Str("5".into())));
    }

    #[test]
    fn ordering_is_total_and_null_first() {
        let mut vs = vec![
            Value::Double(1.5),
            Value::Null,
            Value::Int(2),
            Value::Long(-1),
        ];
        vs.sort_by(|a, b| a.total_cmp(b));
        assert_eq!(
            vs,
            vec![
                Value::Null,
                Value::Long(-1),
                Value::Double(1.5),
                Value::Int(2)
            ]
        );
    }

    #[test]
    fn list_ordering_is_lexicographic() {
        let a = Value::List(vec![Value::Int(1), Value::Int(2)]);
        let b = Value::List(vec![Value::Int(1), Value::Int(3)]);
        let c = Value::List(vec![Value::Int(1)]);
        assert_eq!(a.total_cmp(&b), Ordering::Less);
        assert_eq!(c.total_cmp(&a), Ordering::Less);
        assert_eq!(a.total_cmp(&a), Ordering::Equal);
    }

    #[test]
    fn group_keys_unify_numeric_widths() {
        assert_eq!(Value::Int(5).group_key(), Value::Long(5).group_key());
        assert_ne!(Value::Int(5).group_key(), Value::Double(5.0).group_key());
        assert_eq!(
            Value::Str("a".into()).group_key(),
            GroupKey::Str("a".into())
        );
    }

    #[test]
    fn display_round_trips_visually() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Str("hi".into()).to_string(), "\"hi\"");
        assert_eq!(
            Value::List(vec![Value::Int(1), Value::Int(2)]).to_string(),
            "[1, 2]"
        );
        assert_eq!(
            Value::Nested(vec![("k".into(), Value::Int(1))]).to_string(),
            "{k: 1}"
        );
    }

    #[test]
    fn from_impls() {
        assert_eq!(Value::from(3i32), Value::Int(3));
        assert_eq!(Value::from(3i64), Value::Long(3));
        assert_eq!(Value::from(3u32), Value::Long(3));
        assert_eq!(Value::from("s"), Value::Str("s".into()));
        assert_eq!(Value::from(Some(1i32)), Value::Int(1));
        assert_eq!(Value::from(None::<i32>), Value::Null);
        assert_eq!(
            Value::from(vec![1i32, 2]),
            Value::List(vec![Value::Int(1), Value::Int(2)])
        );
    }
}
