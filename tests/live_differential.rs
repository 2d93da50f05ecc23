//! Randomized end-to-end differential testing: random queries over random
//! event streams executed by the FULL live stack (agents, simulated WAN,
//! ScrubCentral, query server) must agree with the offline batch oracle.
//! This is the strongest correctness net in the repository — it covers
//! batching, flush timing, reordering, window closing and the control
//! plane, not just the operators.

use std::sync::Arc;

use proptest::prelude::*;

use scrub::prelude::*;
use scrub_baseline::run_batch;
use scrub_core::event::{Event, RequestId};
use scrub_core::plan::{compile, QueryId};
use scrub_core::schema::EventTypeId;
use scrub_simnet::{Context, Node};

struct ReplayHost {
    harness: AgentHarness,
    events: Vec<Event>,
    next: usize,
}

impl Node<ScrubMsg> for ReplayHost {
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
        while self.next < self.events.len() && self.events[self.next].timestamp <= now {
            let ev = &self.events[self.next];
            self.harness
                .agent()
                .log(ev.type_id, ev.request_id, ev.timestamp, &ev.values);
            self.next += 1;
        }
        if self.next < self.events.len() {
            ctx.set_timer(SimDuration::from_ms(1), 1);
        }
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

fn registry() -> Arc<SchemaRegistry> {
    let reg = SchemaRegistry::new();
    reg.register(
        EventSchema::new(
            "e",
            vec![
                FieldDef::new("g", FieldType::Long),
                FieldDef::new("v", FieldType::Long),
            ],
        )
        .unwrap(),
    )
    .unwrap();
    Arc::new(reg)
}

/// Canonical row set with float rounding (live vs oracle summation order).
fn canon(rows: &[scrub::central::ResultRow]) -> Vec<(i64, Vec<scrub_core::value::GroupKey>)> {
    let mut v: Vec<(i64, Vec<scrub_core::value::GroupKey>)> = rows
        .iter()
        .map(|r| {
            (
                r.window_start_ms,
                r.values
                    .iter()
                    .map(|x| match x {
                        Value::Double(d) => {
                            // near-zero sums differ absolutely (not
                            // relatively) across summation orders; snap
                            // them to exactly zero before relative rounding
                            if d.abs() < 1e-9 {
                                Value::Double(0.0).group_key()
                            } else {
                                let scale = 10f64.powi(9 - d.abs().log10().ceil() as i32);
                                Value::Double((d * scale).round() / scale).group_key()
                            }
                        }
                        other => other.group_key(),
                    })
                    .collect(),
            )
        })
        .collect();
    v.sort();
    v
}

fn arb_query() -> impl Strategy<Value = String> {
    (
        prop::sample::select(vec![
            "COUNT(*)", "SUM(e.v)", "AVG(e.v)", "MIN(e.v)", "MAX(e.v)",
        ]),
        any::<bool>(),                               // group by g?
        prop::option::of((-3i64..8, any::<bool>())), // predicate const, direction
        prop::sample::select(vec![(10i64, 10i64), (10, 5), (15, 15), (20, 4)]), // window/slide s
    )
        .prop_map(|(agg, grouped, pred, (win, slide))| {
            let mut q = String::from("select ");
            if grouped {
                q.push_str("e.g, ");
            }
            q.push_str(agg);
            q.push_str(" from e");
            if let Some((c, up)) = pred {
                q.push_str(&format!(" where e.v {} {c}", if up { ">" } else { "<=" }));
            }
            q.push_str(" @[all]");
            if grouped {
                q.push_str(" group by e.g");
            }
            q.push_str(&format!(" window {win} s"));
            if slide != win {
                q.push_str(&format!(" slide {slide} s"));
            }
            q.push_str(" duration 60 s");
            q
        })
}

fn arb_host_events() -> impl Strategy<Value = Vec<(i64, i64, i64)>> {
    // (ts_ms in [500, 55s], group, value)
    prop::collection::vec((500i64..55_000, 0i64..6, -5i64..10), 0..120)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn live_stack_matches_batch_oracle(
        src in arb_query(),
        raw_a in arb_host_events(),
        raw_b in arb_host_events(),
    ) {
        let config = ScrubConfig::default();
        let mut sim: Sim<ScrubMsg> = Sim::new(Topology::default(), 1234);
        let reg = registry();
        let central = deploy_central(&mut sim, &reg, config.clone(), "DC1");
        let mut all_events = Vec::new();
        for (h, raw) in [(0usize, &raw_a), (1, &raw_b)] {
            let mut events: Vec<Event> = raw
                .iter()
                .enumerate()
                .map(|(i, (ts, g, v))| {
                    Event::new(
                        EventTypeId(0),
                        RequestId((h as u64) << 32 | i as u64),
                        *ts,
                        vec![Value::Long(*g), Value::Long(*v)],
                    )
                })
                .collect();
            events.sort_by_key(|e| e.timestamp);
            all_events.extend(events.clone());
            let name = format!("replay-{h}");
            let dc = if h == 0 { "DC1" } else { "DC2" };
            sim.add_node(
                NodeMeta::new(name.clone(), "Hosts", dc),
                Box::new(ReplayHost {
                    harness: AgentHarness::new(name, config.clone(), central),
                    events,
                    next: 0,
                }),
            );
        }
        let d = deploy_server(&mut sim, reg, config.clone(), central, "DC1");
        let qid = ScrubClient::new(&d)
        .submit(&mut sim, &src)
        .expect("query accepted");
        sim.run_until(SimTime::from_secs(180));
        let rec = qid.record(&sim).expect("query accepted");
        prop_assert_eq!(rec.state, QueryState::Done);

        let spec = parse_query(&src).unwrap();
        let cq = compile(&spec, &registry(), &config, QueryId(1)).unwrap();
        let (oracle_rows, oracle_summary) = run_batch(&cq, &all_events);

        prop_assert_eq!(
            canon(&rec.rows),
            canon(&oracle_rows),
            "live != oracle for {}",
            src
        );
        prop_assert_eq!(
            rec.summary.as_ref().unwrap().total_matched,
            oracle_summary.total_matched
        );
    }
}
