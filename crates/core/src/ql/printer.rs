//! Pretty-printer for ScrubQL: renders a [`QuerySpec`] (or expression)
//! back to canonical query text. `parse(print(q))` is the identity on the
//! AST — enforced by property tests — which makes the printer safe to use
//! for logging, `EXPLAIN` output, and query forwarding.

use std::fmt::Write as _;

use crate::expr::{BinOp, Expr, ScalarFn, UnaryOp};
use crate::ql::ast::{AggFn, QuerySpec, SelectItem, StartSpec, TargetExpr};
use crate::value::Value;

/// Render a query back to canonical ScrubQL.
pub fn print_query(q: &QuerySpec) -> String {
    let mut s = String::from("select ");
    for (i, item) in q.select.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        s.push_str(&print_select_item(item));
    }
    write!(s, " from {}", q.from.join(", ")).expect("string write");
    if let Some(w) = &q.where_clause {
        write!(s, " where {}", print_expr(w)).expect("string write");
    }
    if !matches!(q.target, TargetExpr::All) {
        write!(s, " @[{}]", print_target(&q.target)).expect("string write");
    } else {
        s.push_str(" @[all]");
    }
    if !q.group_by.is_empty() {
        s.push_str(" group by ");
        for (i, g) in q.group_by.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&print_expr(g));
        }
    }
    if let Some(w) = q.window_ms {
        write!(s, " window {}", print_duration(w)).expect("string write");
        if let Some(sl) = q.slide_ms {
            write!(s, " slide {}", print_duration(sl)).expect("string write");
        }
    }
    if q.sample.host_fraction < 1.0 {
        write!(
            s,
            " sample hosts {}",
            print_fraction(q.sample.host_fraction)
        )
        .expect("string write");
        if q.sample.event_fraction < 1.0 {
            write!(s, " events {}", print_fraction(q.sample.event_fraction)).expect("string write");
        }
    } else if q.sample.event_fraction < 1.0 {
        write!(
            s,
            " sample events {}",
            print_fraction(q.sample.event_fraction)
        )
        .expect("string write");
    }
    match q.start {
        StartSpec::Now => {}
        StartSpec::At(t) => {
            write!(s, " start at {t}").expect("string write");
        }
        StartSpec::In(ms) => {
            write!(s, " start in {}", print_duration(ms)).expect("string write");
        }
    }
    if let Some(d) = q.duration_ms {
        write!(s, " duration {}", print_duration(d)).expect("string write");
    }
    s
}

fn print_select_item(item: &SelectItem) -> String {
    match item {
        SelectItem::Expr { expr, alias } => match alias {
            Some(a) => format!("{} as {a}", print_expr(expr)),
            None => print_expr(expr),
        },
        SelectItem::Agg { func, arg, alias } => {
            let call = match (func, arg) {
                (AggFn::Count, None) => "COUNT(*)".to_string(),
                (AggFn::TopK(k), Some(a)) => format!("TOP({k}, {})", print_expr(a)),
                (f, Some(a)) => format!("{}({})", f.name(), print_expr(a)),
                (f, None) => format!("{}(*)", f.name()),
            };
            match alias {
                Some(a) => format!("{call} as {a}"),
                None => call,
            }
        }
    }
}

/// Render a duration in the coarsest unit that divides it evenly.
pub fn print_duration(ms: i64) -> String {
    const UNITS: [(i64, &str); 5] = [
        (86_400_000, "d"),
        (3_600_000, "h"),
        (60_000, "m"),
        (1_000, "s"),
        (1, "ms"),
    ];
    for (mult, unit) in UNITS {
        if ms % mult == 0 && ms / mult > 0 {
            return format!("{} {unit}", ms / mult);
        }
    }
    format!("{ms} ms")
}

fn print_fraction(f: f64) -> String {
    let pct = f * 100.0;
    if (pct - pct.round()).abs() < 1e-9 {
        format!("{}%", pct.round() as i64)
    } else {
        format!("{f}")
    }
}

fn print_target(t: &TargetExpr) -> String {
    match t {
        TargetExpr::All => "all".into(),
        TargetExpr::Service(v) => print_attr("Service", v),
        TargetExpr::Host(v) => print_attr("Server", v),
        TargetExpr::Dc(v) => print_attr("DC", v),
        TargetExpr::And(a, b) => format!("({}) and ({})", print_target(a), print_target(b)),
        TargetExpr::Or(a, b) => format!("({}) or ({})", print_target(a), print_target(b)),
        TargetExpr::Not(x) => format!("not ({})", print_target(x)),
    }
}

fn print_attr(attr: &str, values: &[String]) -> String {
    if values.len() == 1 {
        format!("{attr} = {}", quote(&values[0]))
    } else {
        let list: Vec<String> = values.iter().map(|v| quote(v)).collect();
        format!("{attr} in ({})", list.join(", "))
    }
}

/// Render an expression with explicit parentheses (canonical form).
pub fn print_expr(e: &Expr) -> String {
    match e {
        Expr::Literal(v) => print_literal(v),
        Expr::Field(f) => f.to_string(),
        Expr::Unary { op, expr } => match op {
            UnaryOp::Not => format!("not ({})", print_expr(expr)),
            UnaryOp::Neg => format!("-({})", print_expr(expr)),
        },
        Expr::Binary { op, lhs, rhs } => {
            let sym = match op {
                BinOp::And => "and",
                BinOp::Or => "or",
                other => other.symbol(),
            };
            format!("({} {sym} {})", print_expr(lhs), print_expr(rhs))
        }
        Expr::Call { func, args } => {
            let name = match func {
                ScalarFn::Abs => "abs",
                ScalarFn::Log => "log",
                ScalarFn::Log10 => "log10",
                ScalarFn::Sqrt => "sqrt",
                ScalarFn::Floor => "floor",
                ScalarFn::Ceil => "ceil",
                ScalarFn::Lower => "lower",
                ScalarFn::Upper => "upper",
                ScalarFn::Length => "length",
                ScalarFn::Contains => "contains",
                ScalarFn::StartsWith => "starts_with",
                ScalarFn::EndsWith => "ends_with",
            };
            let args: Vec<String> = args.iter().map(print_expr).collect();
            format!("{name}({})", args.join(", "))
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            let items: Vec<String> = list.iter().map(print_literal).collect();
            // parenthesize the scrutinee: postfix predicates do not chain
            // in the grammar ("x is null in (1)" is not parseable)
            format!(
                "(({}) {}in ({}))",
                print_expr(expr),
                if *negated { "not " } else { "" },
                items.join(", ")
            )
        }
        Expr::IsNull { expr, negated } => format!(
            "(({}) is {}null)",
            print_expr(expr),
            if *negated { "not " } else { "" }
        ),
    }
}

fn print_literal(v: &Value) -> String {
    match v {
        Value::Null => "null".into(),
        Value::Bool(b) => b.to_string(),
        Value::Int(x) => x.to_string(),
        Value::Long(x) => x.to_string(),
        Value::Float(x) => format_float(*x as f64),
        Value::Double(x) => format_float(*x),
        Value::DateTime(x) => x.to_string(),
        Value::Str(s) => quote(s),
        other => format!("{other}"), // lists/nested are not literal syntax
    }
}

/// A string literal the lexer reads back as `s`.
fn quote(s: &str) -> String {
    format!("'{}'", s.replace('\\', "\\\\").replace('\'', "\\'"))
}

fn format_float(x: f64) -> String {
    if x == x.trunc() && x.abs() < 1e15 {
        format!("{x:.1}")
    } else {
        format!("{x}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ql::parser::parse_query;

    fn round_trip(src: &str) {
        let q1 = parse_query(src).unwrap();
        let printed = print_query(&q1);
        let q2 = parse_query(&printed)
            .unwrap_or_else(|e| panic!("printed query failed to parse: {printed:?}: {e}"));
        assert_eq!(q1, q2, "round trip changed the AST:\n{printed}");
    }

    #[test]
    fn round_trips_paper_queries() {
        round_trip(
            "Select bid.user_id, COUNT(*) from bid \
             @[Service in BidServers and Server = host1] group by bid.user_id",
        );
        round_trip(
            "Select 1000*AVG(impression.cost) from impression \
             where impression.line_item_id = 42 @[Servers in (h1, h2)]",
        );
    }

    #[test]
    fn round_trips_full_feature_query() {
        round_trip(
            "select e.a, COUNT(*), SUM(e.b), TOP(5, e.c), COUNT_DISTINCT(e.d) as cd \
             from e where (e.a > 3 and e.b in (1, -2.5, 'x')) or not e.flag \
             @[not (DC = DC2) or Service in (A, B)] \
             group by e.a window 90 s slide 30 s \
             sample hosts 25% events 10% start in 5 m duration 1 h",
        );
    }

    #[test]
    fn round_trips_scalar_functions() {
        round_trip(
            "select e.x from e where contains(lower(e.name), 'bot') \
             and length(e.name) between 3 and 10 and e.y is not null",
        );
    }

    #[test]
    fn duration_rendering() {
        assert_eq!(print_duration(10_000), "10 s");
        assert_eq!(print_duration(90_000), "90 s");
        assert_eq!(print_duration(120_000), "2 m");
        assert_eq!(print_duration(3_600_000), "1 h");
        assert_eq!(print_duration(86_400_000), "1 d");
        assert_eq!(print_duration(1_500), "1500 ms");
    }

    #[test]
    fn string_escaping() {
        round_trip("select COUNT(*) from e where e.s = 'it\\'s'");
    }

    #[test]
    fn target_values_are_escaped() {
        round_trip("select COUNT(*) from e @[Server = 'a\\\\b' or Service in ('it\\'s', x)]");
    }
}
