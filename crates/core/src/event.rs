//! Concrete events: an n-tuple of user field values plus the two system
//! fields Scrub annotates every event with (§3.1) — a unique request
//! identifier and a timestamp. "The size of this metadata is bounded and is
//! kept to the minimum necessary to support equi-joins and windowing."

use serde::{Deserialize, Serialize};

use crate::schema::{EventSchema, EventTypeId, SYS_REQUEST_ID, SYS_TIMESTAMP};
use crate::value::Value;

/// The request identifier system field: correlates events produced while
/// serving the same application request, across machines and services. It is
/// the *only* join key Scrub supports.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct RequestId(pub u64);

impl std::fmt::Display for RequestId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "req#{}", self.0)
    }
}

/// A concrete Scrub event.
///
/// Field values are stored densely in schema order; names resolve through the
/// [`EventSchema`]. Events are cheap to clone relative to their payload
/// (strings dominate).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Event {
    /// Registered event type.
    pub type_id: EventTypeId,
    /// System field: request correlation id.
    pub request_id: RequestId,
    /// System field: event creation time, milliseconds since epoch
    /// (virtual time under simulation).
    pub timestamp: i64,
    /// User field values, in schema order.
    pub values: Vec<Value>,
}

impl Event {
    /// Build an event. The caller is responsible for schema conformance
    /// (checked variants live on [`EventSchema::check_tuple`]; the hot tap
    /// path skips the check, mirroring the paper's "minimal impact" stance).
    pub fn new(
        type_id: EventTypeId,
        request_id: RequestId,
        timestamp: i64,
        values: Vec<Value>,
    ) -> Self {
        Event {
            type_id,
            request_id,
            timestamp,
            values,
        }
    }

    /// Read a field by name, resolving system pseudo-fields too.
    pub fn field(&self, schema: &EventSchema, name: &str) -> Option<Value> {
        match name {
            SYS_REQUEST_ID => Some(Value::Long(self.request_id.0 as i64)),
            SYS_TIMESTAMP => Some(Value::DateTime(self.timestamp)),
            _ => schema
                .field_index(name)
                .map(|i| self.values.get(i).cloned().unwrap_or(Value::Null)),
        }
    }

    /// Read a field by *resolved slot*, the representation compiled host
    /// plans use so the hot path never does string lookups.
    pub fn slot(&self, slot: FieldSlot) -> Value {
        match slot {
            FieldSlot::RequestId => Value::Long(self.request_id.0 as i64),
            FieldSlot::Timestamp => Value::DateTime(self.timestamp),
            FieldSlot::User(i) => self.values.get(i).cloned().unwrap_or(Value::Null),
        }
    }

    /// Approximate in-memory / wire footprint in bytes, used by the byte
    /// accounting in the transport and the logging-baseline comparison.
    pub fn approx_bytes(&self) -> usize {
        let mut n = 4 + 8 + 8; // type id + request id + timestamp
        for v in &self.values {
            n += value_bytes(v);
        }
        n
    }
}

fn value_bytes(v: &Value) -> usize {
    match v {
        Value::Null => 1,
        Value::Bool(_) => 1,
        Value::Int(_) | Value::Float(_) => 5,
        Value::Long(_) | Value::Double(_) | Value::DateTime(_) => 9,
        Value::Str(s) => 5 + s.len(),
        Value::List(vs) => 5 + vs.iter().map(value_bytes).sum::<usize>(),
        Value::Nested(kv) => {
            5 + kv
                .iter()
                .map(|(k, v)| 5 + k.len() + value_bytes(v))
                .sum::<usize>()
        }
    }
}

/// A resolved reference to an event field: either one of the two system
/// fields or a user field index. Produced by the planner, consumed by the
/// host-side projection/selection evaluator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FieldSlot {
    /// The `request_id` system field.
    RequestId,
    /// The `timestamp` system field.
    Timestamp,
    /// User field at this index in schema order.
    User(usize),
}

impl FieldSlot {
    /// The field a row slot reads. A row is laid out as the `arity` user
    /// fields, then `request_id`, then `timestamp`: the layout of every
    /// host predicate's input and of each input block of a central plan.
    #[inline]
    pub fn of(slot: usize, arity: usize) -> FieldSlot {
        match slot {
            s if s < arity => FieldSlot::User(s),
            s if s == arity => FieldSlot::RequestId,
            _ => FieldSlot::Timestamp,
        }
    }
}

/// Trait implemented by `scrub_event!`-generated structs: turns a typed
/// application-side record into the dynamic tuple the tap ships.
pub trait ToEvent {
    /// The event type label this record belongs to.
    fn event_type() -> &'static str;
    /// The event schema (field names + types) of this record.
    fn schema() -> EventSchema;
    /// Convert to the dense value tuple, consuming the record.
    fn into_values(self) -> Vec<Value>;
}

/// Declares a Scrub event type the way the paper's Java annotations do
/// (Figure 1), generating a plain struct plus a [`ToEvent`] impl.
///
/// ```
/// use scrub_core::scrub_event;
/// use scrub_core::event::ToEvent;
///
/// scrub_event! {
///     /// Bid response sent back to an ad exchange.
///     pub struct Bid("bid") {
///         exchange_id: long,
///         city: string,
///         bid_price: double,
///         campaign_id: long,
///     }
/// }
///
/// let schema = Bid::schema();
/// assert_eq!(Bid::event_type(), "bid");
/// assert_eq!(schema.arity(), 4);
/// let values = Bid { exchange_id: 7, city: "porto".into(), bid_price: 1.5, campaign_id: 9 }
///     .into_values();
/// assert_eq!(values.len(), 4);
/// ```
///
/// Supported field type keywords: `boolean`, `int`, `long`, `float`,
/// `double`, `datetime`, `string`, `list_long`, `list_string`,
/// `list_double`.
#[macro_export]
macro_rules! scrub_event {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident ($label:literal) {
            $($field:ident : $fty:ident),+ $(,)?
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, PartialEq)]
        $vis struct $name {
            $(pub $field: $crate::scrub_event!(@rust $fty),)+
        }

        impl $crate::event::ToEvent for $name {
            fn event_type() -> &'static str { $label }

            fn schema() -> $crate::schema::EventSchema {
                $crate::schema::EventSchema::new(
                    $label,
                    vec![$($crate::schema::FieldDef::new(
                        stringify!($field),
                        $crate::scrub_event!(@ty $fty),
                    ),)+],
                )
                .expect("scrub_event! generated an invalid schema")
            }

            fn into_values(self) -> Vec<$crate::value::Value> {
                vec![$($crate::value::Value::from(self.$field),)+]
            }
        }
    };

    (@ty boolean) => { $crate::schema::FieldType::Bool };
    (@ty int) => { $crate::schema::FieldType::Int };
    (@ty long) => { $crate::schema::FieldType::Long };
    (@ty float) => { $crate::schema::FieldType::Float };
    (@ty double) => { $crate::schema::FieldType::Double };
    (@ty datetime) => { $crate::schema::FieldType::DateTime };
    (@ty string) => { $crate::schema::FieldType::Str };
    (@ty list_long) => { $crate::schema::FieldType::List(Box::new($crate::schema::FieldType::Long)) };
    (@ty list_string) => { $crate::schema::FieldType::List(Box::new($crate::schema::FieldType::Str)) };
    (@ty list_double) => { $crate::schema::FieldType::List(Box::new($crate::schema::FieldType::Double)) };

    (@rust boolean) => { bool };
    (@rust int) => { i32 };
    (@rust long) => { i64 };
    (@rust float) => { f32 };
    (@rust double) => { f64 };
    (@rust datetime) => { i64 };
    (@rust string) => { String };
    (@rust list_long) => { Vec<i64> };
    (@rust list_string) => { Vec<String> };
    (@rust list_double) => { Vec<f64> };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{FieldDef, FieldType};

    scrub_event! {
        /// Test bid event mirroring Figure 1 of the paper.
        pub struct Bid("bid") {
            exchange_id: long,
            city: string,
            country: string,
            bid_price: double,
            campaign_id: long,
        }
    }

    #[test]
    fn macro_generates_schema_matching_figure_1() {
        let s = Bid::schema();
        assert_eq!(s.name, "bid");
        assert_eq!(
            s.fields,
            vec![
                FieldDef::new("exchange_id", FieldType::Long),
                FieldDef::new("city", FieldType::Str),
                FieldDef::new("country", FieldType::Str),
                FieldDef::new("bid_price", FieldType::Double),
                FieldDef::new("campaign_id", FieldType::Long),
            ]
        );
    }

    #[test]
    fn macro_values_conform_to_schema() {
        let b = Bid {
            exchange_id: 3,
            city: "san jose".into(),
            country: "us".into(),
            bid_price: 1.25,
            campaign_id: 42,
        };
        let values = b.into_values();
        Bid::schema().check_tuple(&values).unwrap();
        assert_eq!(values[0], Value::Long(3));
        assert_eq!(values[3], Value::Double(1.25));
    }

    #[test]
    fn field_access_including_system_fields() {
        let schema = Bid::schema();
        let ev = Event::new(
            EventTypeId(0),
            RequestId(77),
            1_000,
            Bid {
                exchange_id: 3,
                city: "porto".into(),
                country: "pt".into(),
                bid_price: 0.5,
                campaign_id: 1,
            }
            .into_values(),
        );
        assert_eq!(ev.field(&schema, "request_id"), Some(Value::Long(77)));
        assert_eq!(ev.field(&schema, "timestamp"), Some(Value::DateTime(1_000)));
        assert_eq!(ev.field(&schema, "city"), Some(Value::Str("porto".into())));
        assert_eq!(ev.field(&schema, "missing"), None);
    }

    #[test]
    fn slot_access() {
        let ev = Event::new(EventTypeId(0), RequestId(5), 9, vec![Value::Int(1)]);
        assert_eq!(ev.slot(FieldSlot::RequestId), Value::Long(5));
        assert_eq!(ev.slot(FieldSlot::Timestamp), Value::DateTime(9));
        assert_eq!(ev.slot(FieldSlot::User(0)), Value::Int(1));
        assert_eq!(ev.slot(FieldSlot::User(3)), Value::Null);
    }

    /// A row is the user fields, then `request_id`, then `timestamp`.
    #[test]
    fn field_slot_of_follows_the_row_layout() {
        let ev = Event::new(
            EventTypeId(0),
            RequestId(5),
            9,
            vec![Value::Int(1), Value::Str("a".into())],
        );
        let row = [
            Value::Int(1),
            Value::Str("a".into()),
            Value::Long(5),
            Value::DateTime(9),
        ];
        for (s, want) in row.iter().enumerate() {
            assert_eq!(
                &ev.slot(FieldSlot::of(s, ev.values.len())),
                want,
                "slot {s}"
            );
        }
        assert_eq!(FieldSlot::of(0, 0), FieldSlot::RequestId);
        assert_eq!(FieldSlot::of(1, 0), FieldSlot::Timestamp);
        assert_eq!(FieldSlot::of(2, 3), FieldSlot::User(2));
    }

    #[test]
    fn byte_accounting_scales_with_payload() {
        let small = Event::new(EventTypeId(0), RequestId(1), 0, vec![Value::Int(1)]);
        let big = Event::new(
            EventTypeId(0),
            RequestId(1),
            0,
            vec![Value::Str("x".repeat(100))],
        );
        assert!(big.approx_bytes() > small.approx_bytes() + 90);
    }

    #[test]
    fn request_id_display() {
        assert_eq!(RequestId(9).to_string(), "req#9");
    }
}
