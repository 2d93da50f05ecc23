//! Aggregation operator states for ScrubCentral.
//!
//! Every state is *mergeable* — the paper's sketch property, and what a
//! tree of ScrubCentral nodes would need to combine partial aggregates of
//! the same window.

use serde::{Deserialize, Serialize};

use scrub_core::plan::AggSpec;
use scrub_core::ql::ast::AggFn;
use scrub_core::value::{GroupKey, Value};
use scrub_sketch::{HyperLogLog, SpaceSaving, Welford};

/// How many SpaceSaving counters to keep per requested `k` (extra headroom
/// improves precision at negligible cost).
const TOPK_CAPACITY_FACTOR: usize = 8;

/// Running state of one aggregate within one (window, group).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum AggState {
    /// COUNT(*) / COUNT(expr).
    Count(u64),
    /// SUM(expr).
    Sum { sum: f64, any: bool },
    /// AVG(expr).
    Avg(Welford),
    /// MIN(expr).
    Min(Option<Value>),
    /// MAX(expr).
    Max(Option<Value>),
    /// TOP(k, expr): SpaceSaving over canonicalized values. Both halves
    /// are boxed, keeping every state as small as the scalar ones: a
    /// window holds one state per group and aggregate.
    TopK {
        k: usize,
        sketch: Box<SpaceSaving<GroupKey>>,
        /// Original value per key for readable output.
        display: Box<std::collections::HashMap<GroupKey, Value>>,
    },
    /// COUNT_DISTINCT(expr): HyperLogLog.
    CountDistinct(HyperLogLog),
}

impl AggState {
    /// Fresh state for an aggregate spec.
    pub fn new(spec: &AggSpec) -> Self {
        match &spec.func {
            AggFn::Count => AggState::Count(0),
            AggFn::Sum => AggState::Sum {
                sum: 0.0,
                any: false,
            },
            AggFn::Avg => AggState::Avg(Welford::new()),
            AggFn::Min => AggState::Min(None),
            AggFn::Max => AggState::Max(None),
            AggFn::TopK(k) => AggState::TopK {
                k: *k,
                sketch: Box::new(SpaceSaving::new(k * TOPK_CAPACITY_FACTOR)),
                display: Box::default(),
            },
            AggFn::CountDistinct => AggState::CountDistinct(HyperLogLog::default_precision()),
        }
    }

    /// Fold one input value in. `None` arises only for `COUNT(*)`.
    pub fn update(&mut self, v: Option<&Value>) {
        match self {
            AggState::Count(c) => {
                // COUNT(expr) skips nulls; COUNT(*) counts rows.
                if !matches!(v, Some(Value::Null)) {
                    *c += 1;
                }
            }
            AggState::Sum { sum, any } => {
                if let Some(x) = v.and_then(Value::as_f64) {
                    *sum += x;
                    *any = true;
                }
            }
            AggState::Avg(w) => {
                if let Some(x) = v.and_then(Value::as_f64) {
                    w.add(x);
                }
            }
            AggState::Min(cur) => {
                if let Some(x) = v {
                    if x.is_null() {
                        return;
                    }
                    let better = match cur {
                        None => true,
                        Some(c) => x.total_cmp(c) == std::cmp::Ordering::Less,
                    };
                    if better {
                        *cur = Some(x.clone());
                    }
                }
            }
            AggState::Max(cur) => {
                if let Some(x) = v {
                    if x.is_null() {
                        return;
                    }
                    let better = match cur {
                        None => true,
                        Some(c) => x.total_cmp(c) == std::cmp::Ordering::Greater,
                    };
                    if better {
                        *cur = Some(x.clone());
                    }
                }
            }
            AggState::TopK {
                sketch, display, ..
            } => {
                if let Some(x) = v {
                    if x.is_null() {
                        return;
                    }
                    let key = x.group_key();
                    display.entry(key.clone()).or_insert_with(|| x.clone());
                    sketch.offer(key);
                }
            }
            AggState::CountDistinct(hll) => {
                if let Some(x) = v {
                    if x.is_null() {
                        return;
                    }
                    hll.add_hash(group_key_hash(&x.group_key()));
                }
            }
        }
    }

    /// Fold a present numeric input whose `Value::as_f64` is `x`, without
    /// building the value. COUNT, SUM and AVG read nothing else of a
    /// number; the other states fold nothing here and return `false`.
    pub fn update_f64(&mut self, x: f64) -> bool {
        match self {
            AggState::Count(c) => *c += 1,
            AggState::Sum { sum, any } => {
                *sum += x;
                *any = true;
            }
            AggState::Avg(w) => w.add(x),
            _ => return false,
        }
        true
    }

    /// Merge a partial state of the same aggregate computed elsewhere.
    pub fn merge(&mut self, other: &AggState) {
        match (self, other) {
            (AggState::Count(a), AggState::Count(b)) => *a += b,
            (AggState::Sum { sum: a, any: aa }, AggState::Sum { sum: b, any: ba }) => {
                *a += b;
                *aa |= ba;
            }
            (AggState::Avg(a), AggState::Avg(b)) => a.merge(b),
            (AggState::Min(a), AggState::Min(b)) => {
                if let Some(x) = b {
                    let better = match &a {
                        None => true,
                        Some(c) => x.total_cmp(c) == std::cmp::Ordering::Less,
                    };
                    if better {
                        *a = Some(x.clone());
                    }
                }
            }
            (AggState::Max(a), AggState::Max(b)) => {
                if let Some(x) = b {
                    let better = match &a {
                        None => true,
                        Some(c) => x.total_cmp(c) == std::cmp::Ordering::Greater,
                    };
                    if better {
                        *a = Some(x.clone());
                    }
                }
            }
            (
                AggState::TopK {
                    sketch: a,
                    display: da,
                    ..
                },
                AggState::TopK {
                    sketch: b,
                    display: db,
                    ..
                },
            ) => {
                a.merge(b);
                for (k, v) in db.iter() {
                    da.entry(k.clone()).or_insert_with(|| v.clone());
                }
            }
            (AggState::CountDistinct(a), AggState::CountDistinct(b)) => a.merge(b),
            (a, b) => {
                debug_assert!(false, "merging mismatched aggregate states");
                let _ = (a, b);
            }
        }
    }

    /// Produce the output value. `scale` multiplies extensive aggregates
    /// (COUNT, SUM, TOP-K counts) to compensate for sampling (Eq. 1's
    /// population scale-up); intensive aggregates (AVG/MIN/MAX) and
    /// COUNT_DISTINCT are reported unscaled.
    pub fn finish(&self, scale: f64) -> Value {
        match self {
            AggState::Count(c) => {
                if scale == 1.0 {
                    Value::Long(*c as i64)
                } else {
                    Value::Double((*c as f64 * scale).round())
                }
            }
            AggState::Sum { sum, any } => {
                if !any {
                    Value::Null
                } else {
                    Value::Double(sum * scale)
                }
            }
            AggState::Avg(w) => {
                if w.count() == 0 {
                    Value::Null
                } else {
                    Value::Double(w.mean())
                }
            }
            AggState::Min(v) | AggState::Max(v) => v.clone().unwrap_or(Value::Null),
            AggState::TopK { k, sketch, display } => {
                let items = sketch.top_k(*k);
                Value::List(
                    items
                        .into_iter()
                        .map(|c| {
                            let val = display.get(&c.item).cloned().unwrap_or(Value::Null);
                            Value::Nested(vec![
                                ("value".into(), val),
                                (
                                    "count".into(),
                                    Value::Double((c.count as f64 * scale).round()),
                                ),
                                ("error".into(), Value::Long(c.error as i64)),
                            ])
                        })
                        .collect(),
                )
            }
            AggState::CountDistinct(hll) => Value::Double(hll.estimate().round()),
        }
    }
}

/// Stable 64-bit hash of a canonical group key (for HLL).
pub fn group_key_hash(key: &GroupKey) -> u64 {
    use scrub_sketch::hash64;
    fn feed(key: &GroupKey, out: &mut Vec<u8>) {
        match key {
            GroupKey::Null => out.push(0),
            GroupKey::Int(v) => {
                out.push(1);
                out.extend_from_slice(&v.to_le_bytes());
            }
            GroupKey::Bits(v) => {
                out.push(2);
                out.extend_from_slice(&v.to_le_bytes());
            }
            GroupKey::Str(s) => {
                out.push(3);
                out.extend_from_slice(&(s.len() as u32).to_le_bytes());
                out.extend_from_slice(s.as_bytes());
            }
            GroupKey::List(ks) => {
                out.push(4);
                out.extend_from_slice(&(ks.len() as u32).to_le_bytes());
                for k in ks {
                    feed(k, out);
                }
            }
            GroupKey::Map(kvs) => {
                out.push(5);
                out.extend_from_slice(&(kvs.len() as u32).to_le_bytes());
                for (k, v) in kvs {
                    out.extend_from_slice(&(k.len() as u32).to_le_bytes());
                    out.extend_from_slice(k.as_bytes());
                    feed(v, out);
                }
            }
        }
    }
    let mut buf = Vec::with_capacity(16);
    feed(key, &mut buf);
    hash64(&buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(func: AggFn) -> AggSpec {
        AggSpec { func, arg: None }
    }

    #[test]
    fn count_star_counts_rows_count_expr_skips_nulls() {
        let mut star = AggState::new(&spec(AggFn::Count));
        star.update(None);
        star.update(None);
        assert_eq!(star.finish(1.0), Value::Long(2));

        let mut cexpr = AggState::new(&spec(AggFn::Count));
        cexpr.update(Some(&Value::Long(1)));
        cexpr.update(Some(&Value::Null));
        assert_eq!(cexpr.finish(1.0), Value::Long(1));
    }

    #[test]
    fn sum_and_avg() {
        let mut s = AggState::new(&spec(AggFn::Sum));
        let mut a = AggState::new(&spec(AggFn::Avg));
        for v in [1.0, 2.0, 3.0] {
            s.update(Some(&Value::Double(v)));
            a.update(Some(&Value::Double(v)));
        }
        s.update(Some(&Value::Null)); // ignored
        assert_eq!(s.finish(1.0), Value::Double(6.0));
        assert_eq!(a.finish(1.0), Value::Double(2.0));
    }

    #[test]
    fn empty_aggregates_are_null_or_zero() {
        assert_eq!(
            AggState::new(&spec(AggFn::Count)).finish(1.0),
            Value::Long(0)
        );
        assert_eq!(AggState::new(&spec(AggFn::Sum)).finish(1.0), Value::Null);
        assert_eq!(AggState::new(&spec(AggFn::Avg)).finish(1.0), Value::Null);
        assert_eq!(AggState::new(&spec(AggFn::Min)).finish(1.0), Value::Null);
    }

    #[test]
    fn min_max_across_types() {
        let mut mn = AggState::new(&spec(AggFn::Min));
        let mut mx = AggState::new(&spec(AggFn::Max));
        for v in [Value::Long(5), Value::Double(2.5), Value::Long(9)] {
            mn.update(Some(&v));
            mx.update(Some(&v));
        }
        assert_eq!(mn.finish(1.0), Value::Double(2.5));
        assert_eq!(mx.finish(1.0), Value::Long(9));
    }

    #[test]
    fn scaling_applies_to_extensive_only() {
        let mut c = AggState::new(&spec(AggFn::Count));
        c.update(None);
        c.update(None);
        assert_eq!(c.finish(10.0), Value::Double(20.0));

        let mut a = AggState::new(&spec(AggFn::Avg));
        a.update(Some(&Value::Double(4.0)));
        assert_eq!(a.finish(10.0), Value::Double(4.0)); // unscaled
    }

    #[test]
    fn topk_returns_heavy_hitters_with_counts() {
        let mut t = AggState::new(&spec(AggFn::TopK(2)));
        for _ in 0..10 {
            t.update(Some(&Value::Str("a".into())));
        }
        for _ in 0..5 {
            t.update(Some(&Value::Str("b".into())));
        }
        t.update(Some(&Value::Str("c".into())));
        match t.finish(1.0) {
            Value::List(items) => {
                assert_eq!(items.len(), 2);
                match &items[0] {
                    Value::Nested(kv) => {
                        assert_eq!(kv[0].1, Value::Str("a".into()));
                        assert_eq!(kv[1].1, Value::Double(10.0));
                    }
                    other => panic!("{other:?}"),
                }
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn count_distinct_approximates() {
        let mut cd = AggState::new(&spec(AggFn::CountDistinct));
        for i in 0..1000i64 {
            cd.update(Some(&Value::Long(i % 100)));
        }
        match cd.finish(1.0) {
            Value::Double(est) => assert!((est - 100.0).abs() < 10.0, "est={est}"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn merge_matches_sequential() {
        let mut whole = AggState::new(&spec(AggFn::Sum));
        let mut a = AggState::new(&spec(AggFn::Sum));
        let mut b = AggState::new(&spec(AggFn::Sum));
        for i in 0..10 {
            let v = Value::Double(i as f64);
            whole.update(Some(&v));
            if i < 5 {
                a.update(Some(&v));
            } else {
                b.update(Some(&v));
            }
        }
        a.merge(&b);
        assert_eq!(a.finish(1.0), whole.finish(1.0));

        let mut ca = AggState::new(&spec(AggFn::Count));
        let mut cb = AggState::new(&spec(AggFn::Count));
        ca.update(None);
        cb.update(None);
        cb.update(None);
        ca.merge(&cb);
        assert_eq!(ca.finish(1.0), Value::Long(3));
    }

    #[test]
    fn group_key_hash_distinguishes() {
        let a = group_key_hash(&Value::Long(1).group_key());
        let b = group_key_hash(&Value::Long(2).group_key());
        let c = group_key_hash(&Value::Str("1".into()).group_key());
        assert_ne!(a, b);
        assert_ne!(a, c);
        // stable
        assert_eq!(a, group_key_hash(&Value::Long(1).group_key()));
    }

    #[test]
    fn numeric_widths_count_distinct_together() {
        let mut cd = AggState::new(&spec(AggFn::CountDistinct));
        cd.update(Some(&Value::Int(5)));
        cd.update(Some(&Value::Long(5)));
        match cd.finish(1.0) {
            Value::Double(est) => assert_eq!(est, 1.0),
            other => panic!("{other:?}"),
        }
    }
}
