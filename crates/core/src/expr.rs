//! Scalar expressions: the WHERE-clause / group-by / aggregate-argument
//! language of ScrubQL.
//!
//! Expressions exist in two forms:
//!
//! * [`Expr`] — the named AST the parser produces (`bid.bid_price * 1000`).
//! * [`ResolvedExpr`] — the compiled form in which every field reference has
//!   been bound to an *input slot index* by a [`Binder`]. Host plans bind
//!   slots against a single event's tuple; ScrubCentral binds them against a
//!   joined row. The hot evaluation path therefore never looks up strings.

use std::borrow::Cow;

use serde::{Deserialize, Serialize};

use crate::error::{ScrubError, ScrubResult};
use crate::schema::FieldType;
use crate::value::Value;

/// A (possibly qualified) reference to an event field, e.g. `bid.user_id`
/// or bare `user_id` when unambiguous.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FieldRef {
    /// Event type qualifier, if written (`bid` in `bid.user_id`).
    pub event_type: Option<String>,
    /// Field name (may be a system field `request_id` / `timestamp`).
    pub field: String,
}

impl FieldRef {
    /// Bare (unqualified) field reference.
    pub fn bare(field: impl Into<String>) -> Self {
        FieldRef {
            event_type: None,
            field: field.into(),
        }
    }

    /// Qualified field reference.
    pub fn qualified(event_type: impl Into<String>, field: impl Into<String>) -> Self {
        FieldRef {
            event_type: Some(event_type.into()),
            field: field.into(),
        }
    }
}

impl std::fmt::Display for FieldRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.event_type {
            Some(t) => write!(f, "{t}.{}", self.field),
            None => write!(f, "{}", self.field),
        }
    }
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
}

impl BinOp {
    /// True for comparison operators producing booleans.
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
        )
    }

    /// True for arithmetic operators.
    pub fn is_arith(self) -> bool {
        matches!(
            self,
            BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod
        )
    }

    /// Whether comparison `self` holds at `Less`, `Equal` and `Greater`
    /// (index by `ordering as i8 + 1`): the one operator table, read by
    /// the interpreter and ScrubCentral's join kernels alike.
    pub fn truth(self) -> [bool; 3] {
        match self {
            BinOp::Eq => [false, true, false],
            BinOp::Ne => [true, false, true],
            BinOp::Lt => [true, false, false],
            BinOp::Le => [true, true, false],
            BinOp::Gt => [false, false, true],
            BinOp::Ge => [false, true, true],
            _ => unreachable!("{} is not a comparison", self.symbol()),
        }
    }

    /// Source-level spelling.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
            BinOp::Eq => "=",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "and",
            BinOp::Or => "or",
        }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum UnaryOp {
    /// Logical negation.
    Not,
    /// Arithmetic negation.
    Neg,
}

/// Built-in scalar functions.
///
/// The set is intentionally small (§2: constructs that could impose
/// considerable overhead are excluded from the language); all of these are
/// O(field size).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ScalarFn {
    Abs,
    Log,
    Log10,
    Sqrt,
    Floor,
    Ceil,
    Lower,
    Upper,
    /// String or list length.
    Length,
    /// `contains(haystack, needle)` on strings, or list membership.
    Contains,
    StartsWith,
    EndsWith,
}

impl ScalarFn {
    /// Resolve a function by (case-insensitive) name.
    pub fn by_name(name: &str) -> Option<ScalarFn> {
        Some(match name.to_ascii_lowercase().as_str() {
            "abs" => ScalarFn::Abs,
            "log" => ScalarFn::Log,
            "log10" => ScalarFn::Log10,
            "sqrt" => ScalarFn::Sqrt,
            "floor" => ScalarFn::Floor,
            "ceil" => ScalarFn::Ceil,
            "lower" => ScalarFn::Lower,
            "upper" => ScalarFn::Upper,
            "length" => ScalarFn::Length,
            "contains" => ScalarFn::Contains,
            "starts_with" => ScalarFn::StartsWith,
            "ends_with" => ScalarFn::EndsWith,
            _ => return None,
        })
    }

    /// Number of arguments the function takes.
    pub fn arity(self) -> usize {
        match self {
            ScalarFn::Contains | ScalarFn::StartsWith | ScalarFn::EndsWith => 2,
            _ => 1,
        }
    }
}

/// Named expression AST as produced by the parser.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Expr {
    /// Literal constant.
    Literal(Value),
    /// Field reference.
    Field(FieldRef),
    /// Unary operation.
    Unary { op: UnaryOp, expr: Box<Expr> },
    /// Binary operation.
    Binary {
        op: BinOp,
        lhs: Box<Expr>,
        rhs: Box<Expr>,
    },
    /// Scalar function call.
    Call { func: ScalarFn, args: Vec<Expr> },
    /// `expr [not] in (v1, v2, ...)` — list of literal values.
    InList {
        expr: Box<Expr>,
        list: Vec<Value>,
        negated: bool,
    },
    /// `expr is [not] null`.
    IsNull { expr: Box<Expr>, negated: bool },
}

impl Expr {
    /// All field references mentioned in the expression, in syntax order.
    pub fn field_refs(&self) -> Vec<&FieldRef> {
        let mut out = Vec::new();
        self.collect_refs(&mut out);
        out
    }

    fn collect_refs<'a>(&'a self, out: &mut Vec<&'a FieldRef>) {
        match self {
            Expr::Literal(_) => {}
            Expr::Field(f) => out.push(f),
            Expr::Unary { expr, .. } => expr.collect_refs(out),
            Expr::Binary { lhs, rhs, .. } => {
                lhs.collect_refs(out);
                rhs.collect_refs(out);
            }
            Expr::Call { args, .. } => {
                for a in args {
                    a.collect_refs(out);
                }
            }
            Expr::InList { expr, .. } => expr.collect_refs(out),
            Expr::IsNull { expr, .. } => expr.collect_refs(out),
        }
    }

    /// Conjunction of two optional predicates.
    pub fn and(a: Option<Expr>, b: Option<Expr>) -> Option<Expr> {
        match (a, b) {
            (None, x) | (x, None) => x,
            (Some(a), Some(b)) => Some(Expr::Binary {
                op: BinOp::And,
                lhs: Box::new(a),
                rhs: Box::new(b),
            }),
        }
    }

    /// Resolve every field reference through `binder`, producing an
    /// executable [`ResolvedExpr`].
    pub fn resolve(&self, binder: &dyn Binder) -> ScrubResult<ResolvedExpr> {
        Ok(match self {
            Expr::Literal(v) => ResolvedExpr::Literal(v.clone()),
            Expr::Field(f) => ResolvedExpr::Input(binder.bind(f)?),
            Expr::Unary { op, expr } => ResolvedExpr::Unary {
                op: *op,
                expr: Box::new(expr.resolve(binder)?),
            },
            Expr::Binary { op, lhs, rhs } => ResolvedExpr::Binary {
                op: *op,
                lhs: Box::new(lhs.resolve(binder)?),
                rhs: Box::new(rhs.resolve(binder)?),
            },
            Expr::Call { func, args } => ResolvedExpr::Call {
                func: *func,
                args: args
                    .iter()
                    .map(|a| a.resolve(binder))
                    .collect::<ScrubResult<_>>()?,
            },
            Expr::InList {
                expr,
                list,
                negated,
            } => ResolvedExpr::InList {
                expr: Box::new(expr.resolve(binder)?),
                list: list.clone(),
                negated: *negated,
            },
            Expr::IsNull { expr, negated } => ResolvedExpr::IsNull {
                expr: Box::new(expr.resolve(binder)?),
                negated: *negated,
            },
        })
    }

    /// Static type of the expression given a field-type oracle, or an error
    /// for ill-typed trees. `None` from the oracle means "unknown field".
    pub fn infer_type(
        &self,
        field_ty: &dyn Fn(&FieldRef) -> Option<FieldType>,
    ) -> ScrubResult<FieldType> {
        match self {
            Expr::Literal(v) => literal_type(v),
            Expr::Field(f) => {
                field_ty(f).ok_or_else(|| ScrubError::Validate(format!("unknown field {f}")))
            }
            Expr::Unary { op, expr } => {
                let t = expr.infer_type(field_ty)?;
                match op {
                    UnaryOp::Not => {
                        if t == FieldType::Bool {
                            Ok(FieldType::Bool)
                        } else {
                            Err(ScrubError::Validate(format!("NOT applied to {t}")))
                        }
                    }
                    UnaryOp::Neg => {
                        if t.is_numeric() {
                            Ok(widen(&t))
                        } else {
                            Err(ScrubError::Validate(format!("negation applied to {t}")))
                        }
                    }
                }
            }
            Expr::Binary { op, lhs, rhs } => {
                let lt = lhs.infer_type(field_ty)?;
                let rt = rhs.infer_type(field_ty)?;
                if op.is_arith() {
                    if lt.is_numeric() && rt.is_numeric() {
                        Ok(FieldType::Double)
                    } else {
                        Err(ScrubError::Validate(format!(
                            "arithmetic {} on {lt} and {rt}",
                            op.symbol()
                        )))
                    }
                } else if op.is_comparison() {
                    if comparable(&lt, &rt) {
                        Ok(FieldType::Bool)
                    } else {
                        Err(ScrubError::Validate(format!(
                            "comparison {} on incompatible types {lt} and {rt}",
                            op.symbol()
                        )))
                    }
                } else {
                    // And / Or
                    if lt == FieldType::Bool && rt == FieldType::Bool {
                        Ok(FieldType::Bool)
                    } else {
                        Err(ScrubError::Validate(format!(
                            "boolean {} on {lt} and {rt}",
                            op.symbol()
                        )))
                    }
                }
            }
            Expr::Call { func, args } => {
                if args.len() != func.arity() {
                    return Err(ScrubError::Validate(format!(
                        "{func:?} expects {} argument(s), got {}",
                        func.arity(),
                        args.len()
                    )));
                }
                let ts: Vec<FieldType> = args
                    .iter()
                    .map(|a| a.infer_type(field_ty))
                    .collect::<ScrubResult<_>>()?;
                match func {
                    ScalarFn::Abs
                    | ScalarFn::Log
                    | ScalarFn::Log10
                    | ScalarFn::Sqrt
                    | ScalarFn::Floor
                    | ScalarFn::Ceil => {
                        if ts[0].is_numeric() {
                            Ok(FieldType::Double)
                        } else {
                            Err(ScrubError::Validate(format!(
                                "{func:?} applied to {}",
                                ts[0]
                            )))
                        }
                    }
                    ScalarFn::Lower | ScalarFn::Upper => {
                        if ts[0] == FieldType::Str {
                            Ok(FieldType::Str)
                        } else {
                            Err(ScrubError::Validate(format!(
                                "{func:?} applied to {}",
                                ts[0]
                            )))
                        }
                    }
                    ScalarFn::Length => match &ts[0] {
                        FieldType::Str | FieldType::List(_) => Ok(FieldType::Long),
                        t => Err(ScrubError::Validate(format!("LENGTH applied to {t}"))),
                    },
                    ScalarFn::Contains => match (&ts[0], &ts[1]) {
                        (FieldType::Str, FieldType::Str) => Ok(FieldType::Bool),
                        (FieldType::List(inner), t) if comparable(inner, t) => Ok(FieldType::Bool),
                        (a, b) => Err(ScrubError::Validate(format!(
                            "CONTAINS applied to {a} and {b}"
                        ))),
                    },
                    ScalarFn::StartsWith | ScalarFn::EndsWith => {
                        if ts[0] == FieldType::Str && ts[1] == FieldType::Str {
                            Ok(FieldType::Bool)
                        } else {
                            Err(ScrubError::Validate(format!(
                                "{func:?} applied to {} and {}",
                                ts[0], ts[1]
                            )))
                        }
                    }
                }
            }
            Expr::InList { expr, list, .. } => {
                let t = expr.infer_type(field_ty)?;
                for v in list {
                    let vt = literal_type(v)?;
                    if !comparable(&t, &vt) {
                        return Err(ScrubError::Validate(format!(
                            "IN list value {v} incompatible with {t}"
                        )));
                    }
                }
                Ok(FieldType::Bool)
            }
            Expr::IsNull { expr, .. } => {
                expr.infer_type(field_ty)?;
                Ok(FieldType::Bool)
            }
        }
    }
}

fn literal_type(v: &Value) -> ScrubResult<FieldType> {
    Ok(match v {
        Value::Bool(_) => FieldType::Bool,
        Value::Int(_) => FieldType::Int,
        Value::Long(_) => FieldType::Long,
        Value::Float(_) => FieldType::Float,
        Value::Double(_) => FieldType::Double,
        Value::DateTime(_) => FieldType::DateTime,
        Value::Str(_) => FieldType::Str,
        Value::Null => FieldType::Str, // null literal: treat as wildcard-ish string
        Value::List(vs) => FieldType::List(Box::new(match vs.first() {
            Some(v) => literal_type(v)?,
            None => FieldType::Str,
        })),
        Value::Nested(_) => FieldType::Nested,
    })
}

/// Can values of these two static types be compared with `=`/`<`?
fn comparable(a: &FieldType, b: &FieldType) -> bool {
    if a == b {
        return true;
    }
    let num = |t: &FieldType| t.is_numeric() || *t == FieldType::DateTime;
    num(a) && num(b)
}

fn widen(t: &FieldType) -> FieldType {
    match t {
        FieldType::Int | FieldType::Long => FieldType::Long,
        _ => FieldType::Double,
    }
}

/// Resolves a [`FieldRef`] to an input slot index in some row layout.
pub trait Binder {
    /// Map the reference to a slot, or fail if it does not exist in this
    /// context.
    fn bind(&self, field: &FieldRef) -> ScrubResult<usize>;
}

/// An executable expression: field references are input slot indices.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ResolvedExpr {
    /// Literal constant.
    Literal(Value),
    /// Input row slot.
    Input(usize),
    /// Unary operation.
    Unary {
        op: UnaryOp,
        expr: Box<ResolvedExpr>,
    },
    /// Binary operation.
    Binary {
        op: BinOp,
        lhs: Box<ResolvedExpr>,
        rhs: Box<ResolvedExpr>,
    },
    /// Scalar function call.
    Call {
        func: ScalarFn,
        args: Vec<ResolvedExpr>,
    },
    /// Membership in a literal list.
    InList {
        expr: Box<ResolvedExpr>,
        list: Vec<Value>,
        negated: bool,
    },
    /// Null test.
    IsNull {
        expr: Box<ResolvedExpr>,
        negated: bool,
    },
}

impl ResolvedExpr {
    /// Evaluate against a row of input values.
    ///
    /// Nulls propagate through arithmetic and comparisons (SQL-ish
    /// three-valued logic collapsed to two values: a comparison involving
    /// NULL is false; `AND`/`OR` treat NULL operands as false).
    pub fn eval(&self, row: &[Value]) -> Value {
        self.eval_by(&lend(row)).into_owned()
    }

    /// Evaluate as a predicate: true iff the expression evaluates to
    /// `Bool(true)`.
    pub fn eval_bool(&self, row: &[Value]) -> bool {
        self.eval_bool_by(&lend(row))
    }

    /// Evaluate with a slot accessor instead of a materialized row — the
    /// one interpreter body; [`ResolvedExpr::eval`] is a wrapper over it.
    ///
    /// Values are borrowed wherever they already exist: literals from the
    /// expression, inputs from whatever `fetch` can lend
    /// (`Cow::Borrowed`); only computed results are owned. The host-side
    /// hot path relies on this — a string comparison that says "no"
    /// allocates nothing.
    pub fn eval_by<'a, 'v: 'a, F>(&'a self, fetch: &F) -> Cow<'a, Value>
    where
        F: Fn(usize) -> Cow<'v, Value> + ?Sized,
    {
        let is_true = |e: &'a ResolvedExpr| e.eval_by(fetch).as_bool() == Some(true);
        Cow::Owned(match self {
            ResolvedExpr::Literal(v) => return Cow::Borrowed(v),
            ResolvedExpr::Input(i) => return fetch(*i),
            ResolvedExpr::Unary { op, expr } => {
                let v = expr.eval_by(fetch);
                match op {
                    UnaryOp::Not => Value::Bool(v.as_bool() == Some(false)),
                    UnaryOp::Neg => match *v {
                        Value::Int(x) => x.checked_neg().map_or(Value::Null, Value::Int),
                        Value::Long(x) => x.checked_neg().map_or(Value::Null, Value::Long),
                        Value::Float(x) => Value::Float(-x),
                        Value::Double(x) => Value::Double(-x),
                        _ => Value::Null,
                    },
                }
            }
            ResolvedExpr::Binary { op, lhs, rhs } => match op {
                // short-circuit
                BinOp::And => Value::Bool(is_true(lhs) && is_true(rhs)),
                BinOp::Or => Value::Bool(is_true(lhs) || is_true(rhs)),
                _ => eval_binop(*op, &lhs.eval_by(fetch), &rhs.eval_by(fetch)),
            },
            ResolvedExpr::Call { func, args } => {
                // every built-in takes one or two arguments
                let a = args.first().map(|a| a.eval_by(fetch));
                let b = args.get(1).map(|a| a.eval_by(fetch));
                eval_fn(*func, a.as_deref(), b.as_deref())
            }
            ResolvedExpr::InList {
                expr,
                list,
                negated,
            } => {
                let v = expr.eval_by(fetch);
                if v.is_null() {
                    return Cow::Owned(Value::Bool(false));
                }
                let found = list.iter().any(|x| x.loose_eq(&v));
                Value::Bool(found != *negated)
            }
            ResolvedExpr::IsNull { expr, negated } => {
                Value::Bool(expr.eval_by(fetch).is_null() != *negated)
            }
        })
    }

    /// Predicate form of [`ResolvedExpr::eval_by`].
    pub fn eval_bool_by<'v, F>(&self, fetch: &F) -> bool
    where
        F: Fn(usize) -> Cow<'v, Value> + ?Sized,
    {
        self.eval_by(fetch).as_bool() == Some(true)
    }

    /// Highest input slot referenced, if any (used for sanity checks).
    pub fn max_slot(&self) -> Option<usize> {
        match self {
            ResolvedExpr::Literal(_) => None,
            ResolvedExpr::Input(i) => Some(*i),
            ResolvedExpr::Unary { expr, .. } => expr.max_slot(),
            ResolvedExpr::Binary { lhs, rhs, .. } => max_opt(lhs.max_slot(), rhs.max_slot()),
            ResolvedExpr::Call { args, .. } => args.iter().filter_map(|a| a.max_slot()).max(),
            ResolvedExpr::InList { expr, .. } => expr.max_slot(),
            ResolvedExpr::IsNull { expr, .. } => expr.max_slot(),
        }
    }
}

/// Slot accessor over a materialized row: lends the value, `Null` past
/// the end.
fn lend<'a>(row: &'a [Value]) -> impl Fn(usize) -> Cow<'a, Value> {
    move |i| row.get(i).map_or(Cow::Owned(Value::Null), Cow::Borrowed)
}

fn max_opt(a: Option<usize>, b: Option<usize>) -> Option<usize> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.max(y)),
        (x, None) | (None, x) => x,
    }
}

fn eval_binop(op: BinOp, l: &Value, r: &Value) -> Value {
    if op.is_comparison() {
        let ord = l.scalar().compare(r.scalar());
        return Value::Bool(ord.is_some_and(|o| op.truth()[(o as i8 + 1) as usize]));
    }
    // arithmetic
    let (Some(a), Some(b)) = (l.as_f64(), r.as_f64()) else {
        return Value::Null;
    };
    // Integer arithmetic is exact when both sides are integral, and
    // total: a result past `i64` (`i64::MIN / -1` included) or a zero
    // divisor is Null, never a wrap or a panic; this runs in the
    // application's thread. A remainder always fits (`i64::MIN % -1` is 0).
    if let (Some(x), Some(y)) = (l.as_i64(), r.as_i64()) {
        let exact = match op {
            BinOp::Add => x.checked_add(y),
            BinOp::Sub => x.checked_sub(y),
            BinOp::Mul => x.checked_mul(y),
            BinOp::Div => x.checked_div(y),
            BinOp::Mod => (y != 0).then(|| x.wrapping_rem(y)),
            _ => unreachable!(),
        };
        return exact.map_or(Value::Null, Value::Long);
    }
    Value::Double(match op {
        BinOp::Add => a + b,
        BinOp::Sub => a - b,
        BinOp::Mul => a * b,
        BinOp::Div => {
            if b == 0.0 {
                return Value::Null;
            }
            a / b
        }
        BinOp::Mod => {
            if b == 0.0 {
                return Value::Null;
            }
            a % b
        }
        _ => unreachable!(),
    })
}

fn eval_fn(func: ScalarFn, a: Option<&Value>, b: Option<&Value>) -> Value {
    let num = a.and_then(Value::as_f64);
    let double = |x: Option<f64>| x.map_or(Value::Null, Value::Double);
    match func {
        ScalarFn::Abs => double(num.map(f64::abs)),
        ScalarFn::Log => double(num.filter(|x| *x > 0.0).map(f64::ln)),
        ScalarFn::Log10 => double(num.filter(|x| *x > 0.0).map(f64::log10)),
        ScalarFn::Sqrt => double(num.filter(|x| *x >= 0.0).map(f64::sqrt)),
        ScalarFn::Floor => double(num.map(f64::floor)),
        ScalarFn::Ceil => double(num.map(f64::ceil)),
        ScalarFn::Lower => match a {
            Some(Value::Str(s)) => Value::Str(s.to_lowercase()),
            _ => Value::Null,
        },
        ScalarFn::Upper => match a {
            Some(Value::Str(s)) => Value::Str(s.to_uppercase()),
            _ => Value::Null,
        },
        ScalarFn::Length => match a {
            Some(Value::Str(s)) => Value::Long(s.chars().count() as i64),
            Some(Value::List(vs)) => Value::Long(vs.len() as i64),
            _ => Value::Null,
        },
        ScalarFn::Contains => match (a, b) {
            (Some(Value::Str(h)), Some(Value::Str(n))) => Value::Bool(h.contains(n.as_str())),
            (Some(Value::List(vs)), Some(v)) => Value::Bool(vs.iter().any(|x| x.loose_eq(v))),
            _ => Value::Bool(false),
        },
        ScalarFn::StartsWith => match (a, b) {
            (Some(Value::Str(h)), Some(Value::Str(n))) => Value::Bool(h.starts_with(n.as_str())),
            _ => Value::Bool(false),
        },
        ScalarFn::EndsWith => match (a, b) {
            (Some(Value::Str(h)), Some(Value::Str(n))) => Value::Bool(h.ends_with(n.as_str())),
            _ => Value::Bool(false),
        },
    }
}

/// A [`Binder`] over a flat list of named slots; the common case for tests
/// and for ScrubCentral's joined-row layout.
#[derive(Debug, Clone, Default)]
pub struct SlotBinder {
    slots: Vec<FieldRef>,
}

impl SlotBinder {
    /// Create an empty binder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a slot for `field`, returning its index.
    pub fn push(&mut self, field: FieldRef) -> usize {
        self.slots.push(field);
        self.slots.len() - 1
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True if no slots are registered.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

impl Binder for SlotBinder {
    fn bind(&self, field: &FieldRef) -> ScrubResult<usize> {
        // Exact match first (qualifier and all).
        if let Some(i) = self.slots.iter().position(|s| s == field) {
            return Ok(i);
        }
        // Bare reference: match on field name if unambiguous.
        let matches: Vec<usize> = self
            .slots
            .iter()
            .enumerate()
            .filter(|(_, s)| {
                s.field == field.field
                    && (field.event_type.is_none() || s.event_type == field.event_type)
            })
            .map(|(i, _)| i)
            .collect();
        match matches.len() {
            1 => Ok(matches[0]),
            0 => Err(ScrubError::Validate(format!("unknown field {field}"))),
            _ => Err(ScrubError::Validate(format!("ambiguous field {field}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(v: impl Into<Value>) -> Expr {
        Expr::Literal(v.into())
    }

    fn bin(op: BinOp, l: Expr, r: Expr) -> Expr {
        Expr::Binary {
            op,
            lhs: Box::new(l),
            rhs: Box::new(r),
        }
    }

    impl ResolvedExpr {
        /// `eval`, checked against `eval_by` over an accessor that owns
        /// every value it hands out — the opposite of `eval`'s lending one,
        /// through the same interpreter body. (Compared as text: NaN.)
        fn eval_both(&self, row: &[Value]) -> Value {
            let lent = self.eval(row);
            let owned = self
                .eval_by(&|i| Cow::Owned(row.get(i).cloned().unwrap_or(Value::Null)))
                .into_owned();
            assert_eq!(format!("{lent:?}"), format!("{owned:?}"), "{self:?}");
            assert_eq!(self.eval_bool(row), lent.as_bool() == Some(true));
            lent
        }
    }

    fn resolve_simple(e: &Expr, fields: &[&str]) -> ResolvedExpr {
        let mut b = SlotBinder::new();
        for f in fields {
            b.push(FieldRef::bare(*f));
        }
        e.resolve(&b).unwrap()
    }

    #[test]
    fn arithmetic_integer_exactness() {
        let e = bin(BinOp::Mul, lit(1000i64), lit(3i64));
        let r = resolve_simple(&e, &[]);
        assert_eq!(r.eval_both(&[]), Value::Long(3000));
    }

    #[test]
    fn arithmetic_mixed_promotes_to_double() {
        let e = bin(BinOp::Add, lit(1i64), lit(0.5f64));
        let r = resolve_simple(&e, &[]);
        assert_eq!(r.eval_both(&[]), Value::Double(1.5));
    }

    #[test]
    fn division_by_zero_is_null() {
        let e = bin(BinOp::Div, lit(1i64), lit(0i64));
        assert_eq!(resolve_simple(&e, &[]).eval_both(&[]), Value::Null);
        let e = bin(BinOp::Div, lit(1.0f64), lit(0.0f64));
        assert_eq!(resolve_simple(&e, &[]).eval_both(&[]), Value::Null);
        let e = bin(BinOp::Mod, lit(1i64), lit(0i64));
        assert_eq!(resolve_simple(&e, &[]).eval_both(&[]), Value::Null);
    }

    #[test]
    fn integer_overflow_is_null_never_a_wrap_or_a_panic() {
        let (min, max) = (i64::MIN, i64::MAX);
        for (op, x, y) in [
            (BinOp::Div, min, -1),
            (BinOp::Add, max, 1),
            (BinOp::Sub, min, 1),
            (BinOp::Mul, max, 2),
            (BinOp::Mul, min, -1),
        ] {
            let e = bin(op, lit(x), lit(y));
            assert_eq!(
                resolve_simple(&e, &[]).eval_both(&[]),
                Value::Null,
                "{x} {op:?} {y}"
            );
        }
        let neg = |v: Value| Expr::Unary {
            op: UnaryOp::Neg,
            expr: Box::new(Expr::Literal(v)),
        };
        for v in [Value::Long(min), Value::Int(i32::MIN)] {
            assert_eq!(resolve_simple(&neg(v), &[]).eval_both(&[]), Value::Null);
        }
        // in range, the integer answer is exact
        let e = bin(BinOp::Div, lit(min + 1), lit(-1i64));
        assert_eq!(resolve_simple(&e, &[]).eval_both(&[]), Value::Long(max));
        let e = bin(BinOp::Mod, lit(min), lit(-1i64));
        assert_eq!(resolve_simple(&e, &[]).eval_both(&[]), Value::Long(0));
    }

    /// `Int` operands widen to `Long`: a result past `i32` is exact, not
    /// wrapped at 32 bits and not Null.
    #[test]
    fn int_arithmetic_is_exact_past_i32() {
        let (min, max) = (i32::MIN, i32::MAX);
        for (op, x, y, want) in [
            (BinOp::Add, max, 1, max as i64 + 1),
            (BinOp::Sub, min, 1, min as i64 - 1),
            (BinOp::Mul, max, max, max as i64 * max as i64),
            (BinOp::Div, min, -1, -(min as i64)),
        ] {
            let e = bin(op, lit(x), lit(y));
            assert_eq!(
                resolve_simple(&e, &[]).eval_both(&[]),
                Value::Long(want),
                "{x} {op:?} {y}"
            );
        }
    }

    #[test]
    fn comparisons_across_numeric_widths() {
        let e = bin(BinOp::Eq, lit(5i32), lit(5i64));
        assert_eq!(resolve_simple(&e, &[]).eval_both(&[]), Value::Bool(true));
        let e = bin(BinOp::Lt, lit(5i32), lit(5.5f64));
        assert_eq!(resolve_simple(&e, &[]).eval_both(&[]), Value::Bool(true));
    }

    #[test]
    fn every_comparison_operator_over_less_equal_greater() {
        // The interpreter and the join kernels share `BinOp::truth`, so no
        // differential test catches a wrong entry: spell out all six.
        let cases = [
            (BinOp::Eq, [false, true, false]),
            (BinOp::Ne, [true, false, true]),
            (BinOp::Lt, [true, false, false]),
            (BinOp::Le, [true, true, false]),
            (BinOp::Gt, [false, false, true]),
            (BinOp::Ge, [false, true, true]),
        ];
        for (op, want) in cases {
            for ((l, r), want) in [(1i64, 2i64), (2, 2), (2, 1)].into_iter().zip(want) {
                let e = bin(op, lit(l), lit(r));
                let got = resolve_simple(&e, &[]).eval_both(&[]);
                assert_eq!(got, Value::Bool(want), "{l} {} {r}", op.symbol());
            }
        }
    }

    #[test]
    fn null_comparisons_are_false() {
        let e = Expr::Binary {
            op: BinOp::Eq,
            lhs: Box::new(Expr::Literal(Value::Null)),
            rhs: Box::new(lit(1i64)),
        };
        assert_eq!(resolve_simple(&e, &[]).eval_both(&[]), Value::Bool(false));
    }

    #[test]
    fn boolean_short_circuit() {
        // `false and (1/0 = 1)` must not be NULL — short-circuits to false
        let e = bin(
            BinOp::And,
            lit(false),
            bin(BinOp::Eq, bin(BinOp::Div, lit(1i64), lit(0i64)), lit(1i64)),
        );
        assert_eq!(resolve_simple(&e, &[]).eval_both(&[]), Value::Bool(false));
        let e = bin(BinOp::Or, lit(true), lit(false));
        assert_eq!(resolve_simple(&e, &[]).eval_both(&[]), Value::Bool(true));
    }

    #[test]
    fn field_slot_resolution() {
        let e = bin(
            BinOp::Gt,
            Expr::Field(FieldRef::bare("bid_price")),
            lit(1.0f64),
        );
        let r = resolve_simple(&e, &["exchange_id", "bid_price"]);
        assert_eq!(
            r.eval_both(&[Value::Long(1), Value::Double(2.0)]),
            Value::Bool(true)
        );
        assert_eq!(
            r.eval_both(&[Value::Long(1), Value::Double(0.5)]),
            Value::Bool(false)
        );
    }

    #[test]
    fn qualified_resolution_and_ambiguity() {
        let mut b = SlotBinder::new();
        b.push(FieldRef::qualified("bid", "id"));
        b.push(FieldRef::qualified("click", "id"));
        assert_eq!(b.bind(&FieldRef::qualified("click", "id")).unwrap(), 1);
        assert!(b.bind(&FieldRef::bare("id")).is_err()); // ambiguous
        assert!(b.bind(&FieldRef::bare("nope")).is_err()); // unknown
    }

    #[test]
    fn in_list_and_negation() {
        let e = Expr::InList {
            expr: Box::new(lit(3i64)),
            list: vec![Value::Long(1), Value::Long(3)],
            negated: false,
        };
        assert_eq!(resolve_simple(&e, &[]).eval_both(&[]), Value::Bool(true));
        let e = Expr::InList {
            expr: Box::new(lit(3i64)),
            list: vec![Value::Long(1)],
            negated: true,
        };
        assert_eq!(resolve_simple(&e, &[]).eval_both(&[]), Value::Bool(true));
        // a null operand is false before negation: NOT IN is false too
        let e = Expr::InList {
            expr: Box::new(Expr::Literal(Value::Null)),
            list: vec![Value::Long(1), Value::Long(3)],
            negated: false,
        };
        assert_eq!(resolve_simple(&e, &[]).eval_both(&[]), Value::Bool(false));
        let e = Expr::InList {
            expr: Box::new(Expr::Literal(Value::Null)),
            list: vec![Value::Long(1)],
            negated: true,
        };
        assert_eq!(resolve_simple(&e, &[]).eval_both(&[]), Value::Bool(false));
    }

    #[test]
    fn is_null_tests() {
        let e = Expr::IsNull {
            expr: Box::new(Expr::Literal(Value::Null)),
            negated: false,
        };
        assert_eq!(resolve_simple(&e, &[]).eval_both(&[]), Value::Bool(true));
        let e = Expr::IsNull {
            expr: Box::new(lit(1i64)),
            negated: true,
        };
        assert_eq!(resolve_simple(&e, &[]).eval_both(&[]), Value::Bool(true));
    }

    #[test]
    fn string_functions() {
        let call = |f, args| Expr::Call { func: f, args };
        assert_eq!(
            resolve_simple(&call(ScalarFn::Lower, vec![lit("ABC")]), &[]).eval_both(&[]),
            Value::Str("abc".into())
        );
        assert_eq!(
            resolve_simple(&call(ScalarFn::Length, vec![lit("abc")]), &[]).eval_both(&[]),
            Value::Long(3)
        );
        assert_eq!(
            resolve_simple(
                &call(ScalarFn::Contains, vec![lit("hello"), lit("ell")]),
                &[]
            )
            .eval_both(&[]),
            Value::Bool(true)
        );
        assert_eq!(
            resolve_simple(
                &call(ScalarFn::StartsWith, vec![lit("hello"), lit("he")]),
                &[]
            )
            .eval_both(&[]),
            Value::Bool(true)
        );
    }

    #[test]
    fn math_functions_domain_errors_are_null() {
        let call = |f, args| Expr::Call { func: f, args };
        assert_eq!(
            resolve_simple(&call(ScalarFn::Log, vec![lit(-1.0f64)]), &[]).eval_both(&[]),
            Value::Null
        );
        assert_eq!(
            resolve_simple(&call(ScalarFn::Sqrt, vec![lit(-1.0f64)]), &[]).eval_both(&[]),
            Value::Null
        );
        assert_eq!(
            resolve_simple(&call(ScalarFn::Log10, vec![lit(100.0f64)]), &[]).eval_both(&[]),
            Value::Double(2.0)
        );
    }

    #[test]
    fn type_inference_accepts_well_typed() {
        let schema_ty = |f: &FieldRef| -> Option<FieldType> {
            match f.field.as_str() {
                "price" => Some(FieldType::Double),
                "city" => Some(FieldType::Str),
                "ok" => Some(FieldType::Bool),
                _ => None,
            }
        };
        let e = bin(
            BinOp::And,
            bin(BinOp::Gt, Expr::Field(FieldRef::bare("price")), lit(1i64)),
            Expr::Field(FieldRef::bare("ok")),
        );
        assert_eq!(e.infer_type(&schema_ty).unwrap(), FieldType::Bool);
    }

    #[test]
    fn type_inference_rejects_ill_typed() {
        let schema_ty = |f: &FieldRef| -> Option<FieldType> {
            match f.field.as_str() {
                "city" => Some(FieldType::Str),
                _ => None,
            }
        };
        // city + 1
        let e = bin(BinOp::Add, Expr::Field(FieldRef::bare("city")), lit(1i64));
        assert!(e.infer_type(&schema_ty).is_err());
        // unknown field
        let e = Expr::Field(FieldRef::bare("nope"));
        assert!(e.infer_type(&schema_ty).is_err());
        // city < 3
        let e = bin(BinOp::Lt, Expr::Field(FieldRef::bare("city")), lit(3i64));
        assert!(e.infer_type(&schema_ty).is_err());
    }

    #[test]
    fn field_refs_collection() {
        let e = bin(
            BinOp::And,
            bin(
                BinOp::Eq,
                Expr::Field(FieldRef::qualified("bid", "x")),
                lit(1i64),
            ),
            Expr::IsNull {
                expr: Box::new(Expr::Field(FieldRef::bare("y"))),
                negated: false,
            },
        );
        let refs = e.field_refs();
        assert_eq!(refs.len(), 2);
        assert_eq!(refs[0], &FieldRef::qualified("bid", "x"));
        assert_eq!(refs[1], &FieldRef::bare("y"));
    }

    #[test]
    fn expr_and_combinator() {
        assert_eq!(Expr::and(None, None), None);
        let a = lit(true);
        assert_eq!(Expr::and(Some(a.clone()), None), Some(a.clone()));
        let combined = Expr::and(Some(a.clone()), Some(a.clone())).unwrap();
        assert!(matches!(combined, Expr::Binary { op: BinOp::And, .. }));
    }

    #[test]
    fn max_slot_tracks_inputs() {
        let e = bin(
            BinOp::Add,
            Expr::Field(FieldRef::bare("a")),
            Expr::Field(FieldRef::bare("c")),
        );
        let mut b = SlotBinder::new();
        b.push(FieldRef::bare("a"));
        b.push(FieldRef::bare("b"));
        b.push(FieldRef::bare("c"));
        let r = e.resolve(&b).unwrap();
        assert_eq!(r.max_slot(), Some(2));
        assert_eq!(ResolvedExpr::Literal(Value::Null).max_slot(), None);
    }

    #[test]
    fn inputs_and_literals_are_lent_not_cloned() {
        let row = [Value::Str("de".into()), Value::Long(7)];
        let literal = ResolvedExpr::Literal(Value::Str("fr".into()));
        assert!(matches!(literal.eval_by(&lend(&row)), Cow::Borrowed(_)));
        let input = ResolvedExpr::Input(0);
        assert!(matches!(input.eval_by(&lend(&row)), Cow::Borrowed(v) if *v == row[0]));
        // a comparison owns only its boolean
        let e = bin(BinOp::Eq, Expr::Field(FieldRef::bare("c")), lit("fr"));
        let r = resolve_simple(&e, &["c", "n"]);
        assert_eq!(r.eval_both(&row), Value::Bool(false));
    }

    #[test]
    fn missing_slot_evaluates_to_null() {
        let r = ResolvedExpr::Input(5);
        assert_eq!(r.eval_both(&[Value::Int(1)]), Value::Null);
    }
}
