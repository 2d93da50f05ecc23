//! Abstract syntax of a ScrubQL query (§3.2).
//!
//! Beyond the SQL core (select/from/where/group-by and aggregations), the
//! AST captures the Scrub-specific constructs: **query span** (`start` +
//! `duration`), **target hosts** (the `@[...]` clause), **sampling** (host-
//! and event-level) and the **tumbling/sliding window**.

use serde::{Deserialize, Serialize};

use crate::expr::Expr;

/// Aggregation functions supported by ScrubQL (§3.2): the exact
/// aggregations MIN/MAX/AVG/SUM/COUNT, plus the probabilistic TOP-K
/// (space-saving stream summary) and COUNT_DISTINCT (HyperLogLog).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum AggFn {
    /// `COUNT(*)` or `COUNT(expr)` (non-null count).
    Count,
    /// `SUM(expr)`
    Sum,
    /// `AVG(expr)`
    Avg,
    /// `MIN(expr)`
    Min,
    /// `MAX(expr)`
    Max,
    /// `TOP(k, expr)` — approximate top-k heavy hitters of `expr`.
    TopK(usize),
    /// `COUNT_DISTINCT(expr)` — approximate distinct cardinality.
    CountDistinct,
}

impl AggFn {
    /// Display name for result headers.
    pub fn name(&self) -> String {
        match self {
            AggFn::Count => "COUNT".into(),
            AggFn::Sum => "SUM".into(),
            AggFn::Avg => "AVG".into(),
            AggFn::Min => "MIN".into(),
            AggFn::Max => "MAX".into(),
            AggFn::TopK(k) => format!("TOP{k}"),
            AggFn::CountDistinct => "COUNT_DISTINCT".into(),
        }
    }
}

/// One item of the SELECT list.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SelectItem {
    /// A plain (non-aggregated) expression; must be derivable from the
    /// GROUP BY keys when grouping is present.
    Expr {
        /// The projected expression.
        expr: Expr,
        /// Optional `AS alias`.
        alias: Option<String>,
    },
    /// An aggregate application.
    Agg {
        /// The aggregation function.
        func: AggFn,
        /// Argument expression; `None` means `COUNT(*)`.
        arg: Option<Expr>,
        /// Optional `AS alias`.
        alias: Option<String>,
    },
}

impl SelectItem {
    /// Column header for this item in result rows.
    pub fn header(&self, index: usize) -> String {
        match self {
            SelectItem::Expr { alias: Some(a), .. } | SelectItem::Agg { alias: Some(a), .. } => {
                a.clone()
            }
            SelectItem::Expr { expr, .. } => match expr {
                Expr::Field(f) => f.to_string(),
                _ => format!("col{index}"),
            },
            SelectItem::Agg { func, arg, .. } => match arg {
                Some(Expr::Field(f)) => format!("{}({f})", func.name()),
                Some(_) => format!("{}(expr)", func.name()),
                None => format!("{}(*)", func.name()),
            },
        }
    }

    /// True if the item is an aggregate.
    pub fn is_agg(&self) -> bool {
        matches!(self, SelectItem::Agg { .. })
    }
}

/// The `@[...]` target-host clause (§3.2): which machines the query runs on.
///
/// "This set can include all machines, machines from a given list, or
/// machines performing a certain service. Filters can be applied to a set,
/// e.g., clients in the AdServers service that reside in the San Jose data
/// center."
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TargetExpr {
    /// All machines running the monitored application.
    All,
    /// Machines running one of the named services
    /// (`Service in BidServers` / `Service in (A, B)`).
    Service(Vec<String>),
    /// Specific machines by host name (`Server = host1`, `Servers in (...)`).
    Host(Vec<String>),
    /// Machines in one of the named data centers (`DC = DC1`).
    Dc(Vec<String>),
    /// Conjunction of two target filters.
    And(Box<TargetExpr>, Box<TargetExpr>),
    /// Disjunction of two target filters.
    Or(Box<TargetExpr>, Box<TargetExpr>),
    /// Complement of a target filter.
    Not(Box<TargetExpr>),
}

impl TargetExpr {
    /// Conjunction helper.
    pub fn and(self, other: TargetExpr) -> TargetExpr {
        TargetExpr::And(Box::new(self), Box::new(other))
    }

    /// Disjunction helper.
    pub fn or(self, other: TargetExpr) -> TargetExpr {
        TargetExpr::Or(Box::new(self), Box::new(other))
    }
}

/// Sampling specification (§3.2): "sampling on the set of hosts, and
/// sampling on the events on a given host. Both types of sampling can be
/// used in combination with each other."
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SampleSpec {
    /// Fraction of matching hosts to include, in (0, 1].
    pub host_fraction: f64,
    /// Fraction of events sampled on each included host, in (0, 1].
    pub event_fraction: f64,
}

impl Default for SampleSpec {
    fn default() -> Self {
        SampleSpec {
            host_fraction: 1.0,
            event_fraction: 1.0,
        }
    }
}

impl SampleSpec {
    /// True if any sampling (host or event) is active.
    pub fn is_sampled(&self) -> bool {
        self.host_fraction < 1.0 || self.event_fraction < 1.0
    }
}

/// When the query starts (§3.2 query span).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum StartSpec {
    /// Start immediately on submission (the default).
    #[default]
    Now,
    /// Start at an absolute time (ms since epoch / virtual ms).
    At(i64),
    /// Start after a delay relative to submission (ms).
    In(i64),
}

/// A parsed ScrubQL query, before validation/planning.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuerySpec {
    /// SELECT list.
    pub select: Vec<SelectItem>,
    /// Event type labels in FROM. More than one label means an equi-join on
    /// the request id — the only join ScrubQL supports.
    pub from: Vec<String>,
    /// WHERE predicate, if any.
    pub where_clause: Option<Expr>,
    /// GROUP BY expressions.
    pub group_by: Vec<Expr>,
    /// Window length in ms; `None` selects the deployment default.
    pub window_ms: Option<i64>,
    /// Sliding step in ms; `None` means tumbling (slide = window). §3.2
    /// names sliding windows as the natural extension, implemented here.
    pub slide_ms: Option<i64>,
    /// Target-host clause; defaults to all hosts.
    pub target: TargetExpr,
    /// Host/event sampling.
    pub sample: SampleSpec,
    /// Query start.
    pub start: StartSpec,
    /// Query duration in ms; `None` selects the deployment default. "The
    /// timespan guards against users forgetting to end their queries."
    pub duration_ms: Option<i64>,
}

impl QuerySpec {
    /// True if the query joins multiple event types.
    pub fn is_join(&self) -> bool {
        self.from.len() > 1
    }

    /// True if any select item aggregates.
    pub fn has_aggregates(&self) -> bool {
        self.select.iter().any(SelectItem::is_agg)
    }

    /// Result column headers, in select order.
    pub fn headers(&self) -> Vec<String> {
        self.select
            .iter()
            .enumerate()
            .map(|(i, s)| s.header(i))
            .collect()
    }
}

/// Parse a duration literal body: `(count, unit)` → milliseconds.
pub fn duration_ms(count: i64, unit: &str) -> Option<i64> {
    let mult = match unit.to_ascii_lowercase().as_str() {
        "ms" | "millis" | "millisecond" | "milliseconds" => 1,
        "s" | "sec" | "secs" | "second" | "seconds" => 1_000,
        "m" | "min" | "mins" | "minute" | "minutes" => 60_000,
        "h" | "hr" | "hrs" | "hour" | "hours" => 3_600_000,
        "d" | "day" | "days" => 86_400_000,
        _ => return None,
    };
    count.checked_mul(mult)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::FieldRef;

    #[test]
    fn duration_units() {
        assert_eq!(duration_ms(10, "s"), Some(10_000));
        assert_eq!(duration_ms(20, "m"), Some(1_200_000));
        assert_eq!(duration_ms(1, "h"), Some(3_600_000));
        assert_eq!(duration_ms(2, "days"), Some(172_800_000));
        assert_eq!(duration_ms(500, "ms"), Some(500));
        assert_eq!(duration_ms(1, "parsec"), None);
        assert_eq!(duration_ms(i64::MAX, "h"), None); // overflow
    }

    #[test]
    fn sample_spec_default_is_unsampled() {
        let s = SampleSpec::default();
        assert!(!s.is_sampled());
        assert!(SampleSpec {
            host_fraction: 0.1,
            event_fraction: 1.0
        }
        .is_sampled());
    }

    #[test]
    fn select_item_headers() {
        let item = SelectItem::Agg {
            func: AggFn::Count,
            arg: None,
            alias: None,
        };
        assert_eq!(item.header(0), "COUNT(*)");
        let item = SelectItem::Expr {
            expr: Expr::Field(FieldRef::qualified("bid", "user_id")),
            alias: None,
        };
        assert_eq!(item.header(0), "bid.user_id");
        let item = SelectItem::Agg {
            func: AggFn::Avg,
            arg: Some(Expr::Field(FieldRef::bare("cost"))),
            alias: Some("cpm".into()),
        };
        assert_eq!(item.header(0), "cpm");
    }

    #[test]
    fn agg_fn_names_and_kinds() {
        assert_eq!(AggFn::TopK(5).name(), "TOP5");
    }

    #[test]
    fn target_combinators() {
        let t =
            TargetExpr::Service(vec!["BidServers".into()]).and(TargetExpr::Dc(vec!["DC1".into()]));
        assert!(matches!(t, TargetExpr::And(_, _)));
    }
}
