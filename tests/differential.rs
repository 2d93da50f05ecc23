//! Differential property testing: random queries over random events,
//! executed by the Scrub batch engine (host plans + central executor) and
//! by an *independent naive interpreter* written directly against the
//! query semantics. Any divergence is a bug in one of them.
//!
//! Further down: the telemetry store's rollup tiers against a hand-rolled
//! aggregation, and admission decisions against a rerun of themselves.

#![allow(clippy::field_reassign_with_default)]

use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::prelude::*;

use scrub::obs::{MetricsSnapshot, Resolution, RolledPoint, RollupKind, TelemetryStore};
use scrub::prelude::*;
use scrub_baseline::run_batch;
use scrub_core::config::AdmissionPolicy;
use scrub_core::event::{Event, RequestId};
use scrub_core::plan::{compile, QueryId};
use scrub_core::schema::EventTypeId;
use scrub_server::{AdmissionDecision, QueryServerNode};
use scrub_simnet::{Context, Node};

const WINDOW_MS: i64 = 10_000;

/// A restricted random query: optional predicate, optional grouping, one
/// aggregate.
#[derive(Debug, Clone)]
struct RandomQuery {
    predicate: Option<(usize, char, i64)>, // (field idx, op, const)
    group_field: Option<usize>,
    agg: char, // 'c'ount, 's'um, 'a'vg, 'm'in, 'M'ax
    slide: Option<i64>,
}

const FIELDS: [&str; 3] = ["f0", "f1", "f2"];

impl RandomQuery {
    fn to_sql(&self) -> String {
        let mut select = Vec::new();
        if let Some(g) = self.group_field {
            select.push(format!("e.{}", FIELDS[g]));
        }
        select.push(match self.agg {
            'c' => "COUNT(*)".to_string(),
            's' => "SUM(e.f2)".to_string(),
            'a' => "AVG(e.f2)".to_string(),
            'm' => "MIN(e.f2)".to_string(),
            _ => "MAX(e.f2)".to_string(),
        });
        let mut q = format!("select {} from e", select.join(", "));
        if let Some((f, op, c)) = &self.predicate {
            let op = match op {
                '<' => "<",
                '>' => ">",
                '=' => "=",
                _ => "!=",
            };
            q.push_str(&format!(" where e.{} {op} {c}", FIELDS[*f]));
        }
        if let Some(g) = self.group_field {
            q.push_str(&format!(" group by e.{}", FIELDS[g]));
        }
        q.push_str(" window 10 s");
        if let Some(s) = self.slide {
            q.push_str(&format!(" slide {s} s"));
        }
        q
    }
}

fn registry() -> SchemaRegistry {
    let reg = SchemaRegistry::new();
    reg.register(
        EventSchema::new(
            "e",
            vec![
                FieldDef::new("f0", FieldType::Long),
                FieldDef::new("f1", FieldType::Long),
                FieldDef::new("f2", FieldType::Long),
            ],
        )
        .unwrap(),
    )
    .unwrap();
    reg
}

/// Aggregate tuple per (window, group): (count, sum, min, max).
type NaiveAgg = (i64, i64, Option<i64>, Option<i64>);

/// The independent interpreter: straight-line semantics, no shared code
/// with the engine beyond the Value type.
fn naive(q: &RandomQuery, events: &[(i64, [i64; 3])]) -> BTreeMap<(i64, Option<i64>), NaiveAgg> {
    // key: (window, group) -> (count, sum, min, max)
    let mut out: BTreeMap<(i64, Option<i64>), NaiveAgg> = BTreeMap::new();
    let window = WINDOW_MS;
    let slide = q.slide.map(|s| s * 1000).unwrap_or(window);
    for (ts, fields) in events {
        if let Some((f, op, c)) = &q.predicate {
            let v = fields[*f];
            let keep = match op {
                '<' => v < *c,
                '>' => v > *c,
                '=' => v == *c,
                _ => v != *c,
            };
            if !keep {
                continue;
            }
        }
        let group = q.group_field.map(|g| fields[g]);
        // windows covering ts
        let k_min = (ts - window).div_euclid(slide) + 1;
        let k_max = ts.div_euclid(slide);
        for k in k_min..=k_max {
            let w = k * slide;
            let entry = out.entry((w, group)).or_insert((0, 0, None, None));
            entry.0 += 1;
            entry.1 += fields[2];
            entry.2 = Some(entry.2.map_or(fields[2], |m: i64| m.min(fields[2])));
            entry.3 = Some(entry.3.map_or(fields[2], |m: i64| m.max(fields[2])));
        }
    }
    out
}

fn arb_query() -> impl Strategy<Value = RandomQuery> {
    (
        prop::option::of((
            0usize..3,
            prop::sample::select(vec!['<', '>', '=', '!']),
            -5i64..15,
        )),
        prop::option::of(0usize..2),
        prop::sample::select(vec!['c', 's', 'a', 'm', 'M']),
        prop::option::of(2i64..=5),
    )
        .prop_map(|(predicate, group_field, agg, slide)| RandomQuery {
            predicate,
            group_field,
            agg,
            slide,
        })
}

fn arb_events() -> impl Strategy<Value = Vec<(i64, [i64; 3])>> {
    prop::collection::vec((0i64..40_000, [-5i64..15, -5i64..15, -5i64..15]), 0..150)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn engine_matches_naive_interpreter(q in arb_query(), raw in arb_events()) {
        let reg = registry();
        let spec = parse_query(&q.to_sql()).unwrap();
        let cq = compile(&spec, &reg, &ScrubConfig::default(), QueryId(1)).unwrap();

        let events: Vec<Event> = raw
            .iter()
            .enumerate()
            .map(|(i, (ts, f))| {
                Event::new(
                    EventTypeId(0),
                    RequestId(i as u64),
                    *ts,
                    vec![Value::Long(f[0]), Value::Long(f[1]), Value::Long(f[2])],
                )
            })
            .collect();

        let (rows, _) = run_batch(&cq, &events);
        let expected = naive(&q, &raw);

        // index engine rows by (window, group)
        let mut got: BTreeMap<(i64, Option<i64>), Value> = BTreeMap::new();
        for r in &rows {
            let (group, agg_val) = if q.group_field.is_some() {
                (r.values[0].as_i64(), r.values[1].clone())
            } else {
                (None, r.values[0].clone())
            };
            let prior = got.insert((r.window_start_ms, group), agg_val);
            prop_assert!(prior.is_none(), "duplicate (window, group) row");
        }

        prop_assert_eq!(got.len(), expected.len(), "row-set size mismatch: {:?} vs {:?}", got, expected);
        for ((w, g), (count, sum, min, max)) in &expected {
            let val = got.get(&(*w, *g)).expect("row present by size check");
            match q.agg {
                'c' => prop_assert_eq!(val.as_i64().unwrap(), *count),
                's' => {
                    // SUM over longs comes back as Double after scaling paths
                    let s = val.as_f64().unwrap();
                    prop_assert!((s - *sum as f64).abs() < 1e-6);
                }
                'a' => {
                    let a = val.as_f64().unwrap();
                    let want = *sum as f64 / *count as f64;
                    prop_assert!((a - want).abs() < 1e-9, "avg {a} vs {want}");
                }
                'm' => prop_assert_eq!(val.as_i64().unwrap(), min.unwrap()),
                _ => prop_assert_eq!(val.as_i64().unwrap(), max.unwrap()),
            }
        }
    }
}

// ---------------------------------------------------------------------
// A two-type deployment, for the admission differential below.

/// A host emitting `bid` (type 0) and `impression` (type 1) events every
/// millisecond; impressions share every other bid's request id so the
/// equi-join has real matches.
struct DualHost {
    harness: AgentHarness,
    emitted: u64,
}

impl Node<ScrubMsg> for DualHost {
    fn on_start(&mut self, ctx: &mut Context<'_, ScrubMsg>) {
        self.harness.start(ctx);
        ctx.set_timer(SimDuration::from_ms(1), 1);
    }
    fn on_message(&mut self, ctx: &mut Context<'_, ScrubMsg>, _from: NodeId, msg: ScrubMsg) {
        let _ = self.harness.on_message(ctx, msg);
    }
    fn on_timer(&mut self, ctx: &mut Context<'_, ScrubMsg>, timer: u64) {
        if self.harness.on_timer(ctx, timer) {
            return;
        }
        let now = ctx.now.as_ms();
        for _ in 0..3 {
            self.emitted += 1;
            let rid = RequestId(self.emitted);
            self.harness.agent().log(
                EventTypeId(0),
                rid,
                now,
                &[
                    Value::Long((self.emitted % 11) as i64),
                    Value::Double((self.emitted % 100) as f64 * 0.01),
                ],
            );
            if self.emitted.is_multiple_of(2) {
                self.harness
                    .agent()
                    .log(EventTypeId(1), rid, now, &[Value::Double(0.25)]);
            }
        }
        ctx.set_timer(SimDuration::from_ms(1), 1);
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

fn dual_registry() -> Arc<SchemaRegistry> {
    let reg = SchemaRegistry::new();
    reg.register(
        EventSchema::new(
            "bid",
            vec![
                FieldDef::new("user_id", FieldType::Long),
                FieldDef::new("price", FieldType::Double),
            ],
        )
        .unwrap(),
    )
    .unwrap();
    reg.register(
        EventSchema::new("impression", vec![FieldDef::new("cost", FieldType::Double)]).unwrap(),
    )
    .unwrap();
    Arc::new(reg)
}

// ---------------------------------------------------------------------
// Telemetry-store rollup equivalence: every downsampled tier must be a
// *direct aggregation* of the raw per-tick deltas it covers — sum (as
// last − first) / min / max / mean of deltas for counters, last / min /
// max / mean of sampled values for gauges — including zero-backfill for
// metrics that first appear mid-bucket, and the exemplar interval must
// be the bucket's earliest max-positive-delta raw interval. The oracle
// below folds the same value series by hand, straight from the contract
// in `scrub_obs::tsdb`'s module docs.

/// Hand-rolled aggregation of the zero-extended value series `vals`
/// (index i = the value at `times[i]`; zeros before snapshot index
/// `appear`) into factor-`f` buckets. The exemplar of a bucket whose
/// largest positive delta starts at `from_ms` is `Some(from_ms as u64)`,
/// matching the resolver the test feeds the store.
fn roll_oracle(
    kind: RollupKind,
    vals: &[i64],
    times: &[i64],
    f: usize,
    appear: usize,
) -> Vec<RolledPoint> {
    let mut out = Vec::new();
    let mut j = 0;
    while (j + 1) * f < vals.len() {
        let (s, e) = (j * f, (j + 1) * f);
        j += 1;
        if appear > e {
            // the metric had not appeared by bucket end: no point sealed
            continue;
        }
        let (mut min, mut max, mut sum) = (i64::MAX, i64::MIN, 0i64);
        let (mut best_d, mut best_from, mut best_at) = (0i64, 0i64, 0i64);
        for i in s + 1..=e {
            let d = vals[i] - vals[i - 1];
            let folded = match kind {
                RollupKind::Counter => d,
                RollupKind::Gauge => vals[i],
            };
            min = min.min(folded);
            max = max.max(folded);
            sum += folded;
            if d > best_d {
                best_d = d;
                best_from = times[i - 1];
                best_at = times[i];
            }
        }
        out.push(RolledPoint {
            start_ms: times[s],
            at_ms: times[e],
            kind,
            delta: vals[e] - vals[s],
            last: vals[e],
            min,
            max,
            mean_milli: (sum as i128 * 1_000 / f as i128) as i64,
            max_from_ms: best_from,
            max_at_ms: best_at,
            exemplar: (best_d > 0).then_some(best_from as u64),
        });
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn rolled_tiers_equal_direct_aggregation_of_raw_deltas(
        counter_deltas in prop::collection::vec(0i64..500, 5..90),
        gauge_vals in prop::collection::vec(-300i64..300, 5..90),
        gaps in prop::collection::vec(1i64..3_000, 5..90),
        mid in 2usize..6,
        mult in 2usize..5,
        appear_pick in 0usize..1_000,
    ) {
        let n = counter_deltas.len().min(gauge_vals.len()).min(gaps.len());
        let coarse = mid * mult;
        // strictly increasing sim times and a cumulative counter series
        let mut times = vec![0i64];
        let mut cvals = vec![0i64];
        for i in 0..n - 1 {
            times.push(times[i] + gaps[i]);
            cvals.push(cvals[i] + counter_deltas[i]);
        }
        let gvals = &gauge_vals[..n];
        // a second counter that first appears at snapshot `appear`
        let appear = 1 + appear_pick % (n - 1);
        let late_vals: Vec<i64> = (0..n)
            .map(|i| if i < appear { 0 } else { cvals[i] / 2 + 1 })
            .collect();

        let mut t = TelemetryStore::new(256, mid, coarse, 64);
        for i in 0..n {
            let mut s = MetricsSnapshot {
                at_ms: times[i],
                ..Default::default()
            };
            s.counters.insert("c".into(), cvals[i] as u64);
            s.gauges.insert("g".into(), gvals[i]);
            if i >= appear {
                s.counters.insert("late".into(), late_vals[i] as u64);
            }
            prop_assert!(t.record_with(s, |_m, from_ms, _to| Some(from_ms as u64)));
        }

        for (metric, kind, vals, ap) in [
            ("c", RollupKind::Counter, &cvals, 0usize),
            ("g", RollupKind::Gauge, &gvals.to_vec(), 0),
            ("late", RollupKind::Counter, &late_vals, appear),
        ] {
            for (res, f) in [(Resolution::Mid, mid), (Resolution::Coarse, coarse)] {
                let got = t.points(metric, res);
                let want = roll_oracle(kind, vals, &times, f, ap);
                prop_assert_eq!(
                    got, want,
                    "{} tier of {:?} diverges from direct aggregation", res, metric
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Admission determinism: a fixed seed + config + submission order must
// always produce byte-identical admission decisions (the controller
// prices with the cost model at a configured assumed rate — wall-clock
// never enters the decision).

/// Build the DualHost deployment with the given admission config, submit
/// `queries` in order, and return (admission log, accepted ids).
fn admission_run(
    policy: AdmissionPolicy,
    budget: f64,
    rate: f64,
    queries: &[String],
) -> (Vec<AdmissionDecision>, Vec<Option<u64>>) {
    let mut config = ScrubConfig::default();
    config.admission = policy;
    config.host_cpu_budget = budget;
    config.admission_events_per_host_per_sec = rate;
    let mut sim: Sim<ScrubMsg> = Sim::new(Topology::default(), 7);
    let reg = dual_registry();
    let central = deploy_central(&mut sim, &reg, config.clone(), "DC1");
    for i in 0..3 {
        let dc = if i % 2 == 0 { "DC1" } else { "DC2" };
        let name = format!("dual-{i}");
        sim.add_node(
            NodeMeta::new(name.clone(), "DualServers", dc),
            Box::new(DualHost {
                harness: AgentHarness::new(&name, config.clone(), central),
                emitted: 0,
            }),
        );
    }
    let d = deploy_server(&mut sim, reg, config, central, "DC1");
    let client = ScrubClient::new(&d);
    let accepted: Vec<Option<u64>> = queries
        .iter()
        .map(|q| client.submit(&mut sim, q).ok().map(|h| h.id().0))
        .collect();
    let server = sim
        .node_as::<QueryServerNode<ScrubMsg>>(d.server)
        .expect("server node");
    (server.admission_log.clone(), accepted)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn admission_decisions_deterministic(
        policy_idx in 0usize..3,
        budget in 1e-4f64..1e-2,
        rate in 1_000.0f64..50_000.0,
        n in 1usize..7,
    ) {
        let policy = [
            AdmissionPolicy::Reject,
            AdmissionPolicy::Degrade,
            AdmissionPolicy::Evict,
        ][policy_idx];
        let pool = [
            "select COUNT(*) from bid @[all] window 5 s duration 15 s",
            "select bid.user_id, COUNT(*) from bid @[all] \
             group by bid.user_id window 5 s duration 15 s",
            "select AVG(bid.price) from bid @[all] window 5 s duration 15 s",
            "select COUNT(*) from impression @[all] window 5 s duration 15 s",
        ];
        let queries: Vec<String> = (0..n).map(|i| pool[i % pool.len()].to_string()).collect();
        let (log_a, acc_a) = admission_run(policy, budget, rate, &queries);
        let (log_b, acc_b) = admission_run(policy, budget, rate, &queries);
        // Every submission that parsed gets exactly one logged decision.
        prop_assert_eq!(log_a.len(), queries.len());
        prop_assert_eq!(log_a, log_b);
        prop_assert_eq!(acc_a, acc_b);
    }
}
