//! Differential test: the full live pipeline (agents → simulated network →
//! ScrubCentral → query server) must produce exactly the same result rows
//! as the offline batch oracle executing the same compiled query over the
//! same events — for any unsampled query.

use std::sync::Arc;

use scrub::prelude::*;
use scrub_baseline::run_batch;
use scrub_core::event::{Event, RequestId};
use scrub_core::plan::{compile, QueryId};
use scrub_core::schema::EventTypeId;
use scrub_simnet::{Context, Node};

/// A host that replays a fixed set of events through its tap at the
/// events' own timestamps.
struct ReplayHost {
    harness: AgentHarness,
    events: Vec<Event>,
    next: usize,
}

const REPLAY_TIMER: u64 = 1;

impl Node<ScrubMsg> for ReplayHost {
    fn on_start(&mut self, ctx: &mut Context<'_, ScrubMsg>) {
        self.harness.start(ctx);
        ctx.set_timer(SimDuration::from_ms(1), REPLAY_TIMER);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, ScrubMsg>, _from: NodeId, msg: ScrubMsg) {
        let _ = self.harness.on_message(ctx, msg);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, ScrubMsg>, timer: u64) {
        if self.harness.on_timer(ctx, timer) {
            return;
        }
        if timer == REPLAY_TIMER {
            let now = ctx.now.as_ms();
            while self.next < self.events.len() && self.events[self.next].timestamp <= now {
                let ev = &self.events[self.next];
                self.harness
                    .agent()
                    .log(ev.type_id, ev.request_id, ev.timestamp, &ev.values);
                self.next += 1;
            }
            if self.next < self.events.len() {
                ctx.set_timer(SimDuration::from_ms(1), REPLAY_TIMER);
            }
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
            "bid",
            vec![
                FieldDef::new("user_id", FieldType::Long),
                FieldDef::new("exchange_id", FieldType::Long),
                FieldDef::new("price", FieldType::Double),
            ],
        )
        .unwrap(),
    )
    .unwrap();
    reg.register(
        EventSchema::new(
            "impression",
            vec![
                FieldDef::new("line_item_id", FieldType::Long),
                FieldDef::new("cost", FieldType::Double),
            ],
        )
        .unwrap(),
    )
    .unwrap();
    Arc::new(reg)
}

/// Deterministic event mix across 3 hosts: bids on all, impressions on one.
fn make_events(host: usize) -> Vec<Event> {
    let mut out = Vec::new();
    for i in 0..2000u64 {
        let ts = 500 + (i * 13) % 45_000; // spread over 45 s
        out.push(Event::new(
            EventTypeId(0),
            RequestId(host as u64 * 100_000 + i),
            ts as i64,
            vec![
                Value::Long(((i * 7 + host as u64) % 23) as i64),
                Value::Long((i % 4) as i64),
                Value::Double((i % 100) as f64 * 0.03),
            ],
        ));
        if host == 0 && i % 3 == 0 {
            out.push(Event::new(
                EventTypeId(1),
                RequestId(i), // joins with host 0's bid when i < 100_000
                (ts + 5) as i64,
                vec![Value::Long((i % 11) as i64), Value::Double(0.4)],
            ));
        }
    }
    out.sort_by_key(|e| e.timestamp);
    out
}

/// Run `src` through the live pipeline and through the oracle; compare.
fn assert_live_equals_oracle(src: &str) {
    // ---- live ----
    let mut sim: Sim<ScrubMsg> = Sim::new(Topology::default(), 99);
    let config = ScrubConfig::default();
    let reg = registry();
    let central = deploy_central(&mut sim, &reg, config.clone(), "DC1");
    let mut all_events = Vec::new();
    for h in 0..3 {
        let events = make_events(h);
        all_events.extend(events.clone());
        let name = format!("replay-{h}");
        sim.add_node(
            NodeMeta::new(
                name.clone(),
                "BidServers",
                if h == 2 { "DC2" } else { "DC1" },
            ),
            Box::new(ReplayHost {
                harness: AgentHarness::new(name, config.clone(), central),
                events,
                next: 0,
            }),
        );
    }
    let d = deploy_server(&mut sim, reg, config.clone(), central, "DC1");
    let qid = ScrubClient::new(&d)
        .submit(&mut sim, src)
        .expect("query accepted");
    sim.run_until(SimTime::from_secs(120));
    let rec = qid.record(&sim).expect("query accepted");
    assert_eq!(rec.state, QueryState::Done, "query did not finish");

    // ---- oracle ----
    let spec = parse_query(src).unwrap();
    let cq = compile(&spec, &registry(), &config, QueryId(1)).unwrap();
    let (oracle_rows, oracle_summary) = run_batch(&cq, &all_events);

    // Compare as multisets keyed by (window, values). Floating-point
    // aggregates (SUM/AVG) legitimately differ in the last bits between
    // the live pipeline and the oracle because ingestion order differs
    // and float addition is not associative — canonicalize by rounding
    // to 9 significant-ish digits.
    let canon = |rows: &[scrub::central::ResultRow]| {
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
                                // them to exactly zero before relative
                                // rounding
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
    };
    assert_eq!(
        canon(&rec.rows),
        canon(&oracle_rows),
        "live and oracle rows differ for {src:?}"
    );
    assert_eq!(
        rec.summary.as_ref().unwrap().total_matched,
        oracle_summary.total_matched,
        "matched counts differ"
    );
}

#[test]
fn grouped_count_matches_oracle() {
    assert_live_equals_oracle(
        "select bid.user_id, COUNT(*) from bid @[Service in BidServers] \
         group by bid.user_id window 10 s duration 60 s",
    );
}

#[test]
fn filtered_sum_avg_matches_oracle() {
    assert_live_equals_oracle(
        "select SUM(bid.price), AVG(bid.price), MIN(bid.price), MAX(bid.price) \
         from bid where bid.exchange_id = 2 @[all] window 15 s duration 60 s",
    );
}

#[test]
fn grouped_by_expression_matches_oracle() {
    assert_live_equals_oracle(
        "select bid.user_id % 5, COUNT(*), SUM(bid.price) from bid \
         where bid.price > 0.5 @[all] group by bid.user_id % 5 \
         window 20 s duration 60 s",
    );
}

#[test]
fn join_count_matches_oracle() {
    assert_live_equals_oracle(
        "select COUNT(*) from bid, impression \
         where bid.exchange_id = 1 @[all] window 10 s duration 60 s",
    );
}

#[test]
fn join_grouped_matches_oracle() {
    assert_live_equals_oracle(
        "select impression.line_item_id, COUNT(*), AVG(bid.price) \
         from bid, impression @[all] group by impression.line_item_id \
         window 30 s duration 60 s",
    );
}

#[test]
fn count_distinct_matches_oracle() {
    // HLL is deterministic for identical input sets, so live == oracle
    assert_live_equals_oracle(
        "select COUNT_DISTINCT(bid.user_id) from bid @[all] \
         window 10 s duration 60 s",
    );
}

#[test]
fn in_list_and_string_functions_match_oracle() {
    assert_live_equals_oracle(
        "select COUNT(*) from bid \
         where bid.exchange_id in (0, 3) and bid.user_id between 3 and 15 \
         @[all] window 10 s duration 60 s",
    );
}
