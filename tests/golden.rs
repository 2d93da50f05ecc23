//! Golden-output checks: two runs of the same seeded scenario must
//! render byte-identical output, so the exported artifacts are diffable
//! across CI runs and a changed byte means behavior actually changed.
//!
//! Covered surfaces: the Prometheus-style `render_text` telemetry
//! (metric names sorted, buckets in bound order, integer values), and
//! the `explain` / `explain analyze` plan renderings for the paper's
//! five use-case queries. The telemetry renders are compared unmasked:
//! no registered metric carries wall-clock time. Only the plan profile's
//! per-operator ns column is real elapsed time, the one nondeterministic
//! ingredient of an otherwise deterministic simulation, and `explain
//! analyze` masks it before comparing.

#![allow(clippy::field_reassign_with_default)]

use std::sync::Arc;

use scrub::obs::tsdb::{RAW_CAP, TIER_CAP};
use scrub::obs::TelemetryStore;
use scrub::prelude::*;
use scrub::server::CentralNode;
use scrub_core::event::RequestId;
use scrub_core::schema::EventTypeId;
use scrub_simnet::{Context, Node};

/// A host emitting one `bid` event per millisecond.
struct OneHost {
    harness: AgentHarness,
    emitted: u64,
}

impl Node<ScrubMsg> for OneHost {
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
        self.emitted += 1;
        self.harness.agent().log(
            EventTypeId(0),
            RequestId(self.emitted),
            ctx.now.as_ms(),
            &[Value::Long((self.emitted % 7) as i64)],
        );
        ctx.set_timer(SimDuration::from_ms(1), 1);
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

fn run_once() -> String {
    let mut config = ScrubConfig::default();
    config.trace_sample_rate = 0.1;
    let reg = SchemaRegistry::new();
    reg.register(EventSchema::new("bid", vec![FieldDef::new("user_id", FieldType::Long)]).unwrap())
        .unwrap();
    let reg = Arc::new(reg);
    let mut sim: Sim<ScrubMsg> = Sim::new(Topology::default(), 1771);
    let central = deploy_central(&mut sim, &reg, config.clone(), "DC1");
    sim.add_node(
        NodeMeta::new("gold-0", "GoldServers", "DC1"),
        Box::new(OneHost {
            harness: AgentHarness::new("gold-0", config.clone(), central),
            emitted: 0,
        }),
    );
    let d = deploy_server(&mut sim, reg, config, central, "DC1");
    let q = ScrubClient::new(&d)
        .submit(
            &mut sim,
            "select bid.user_id, COUNT(*) from bid @[all] \
             group by bid.user_id window 5 s duration 10 s",
        )
        .expect("query accepted");
    sim.run_until(SimTime::from_secs(30));
    assert_eq!(q.state(&sim), Some(QueryState::Done));
    let node = sim
        .node_as::<CentralNode<ScrubMsg>>(central)
        .expect("central node");
    scrub::obs::render_text(&node.metrics(sim.now().as_ms()))
}

#[test]
fn render_text_is_byte_identical_across_seeded_runs() {
    let a = run_once();
    let b = run_once();
    assert_eq!(a, b, "telemetry surface must be reproducible byte-for-byte");
    // the surface carries the expected shape, not just emptiness
    assert!(a.starts_with("# scrub metrics snapshot at sim t="));
    assert!(a.contains("# TYPE scrub_central_batches_received counter"));
    assert!(a.contains("# TYPE scrub_central_ingest_latency_ms histogram"));
    assert!(a.contains("_bucket{le=\"+Inf\"}"));
    let events_line = a
        .lines()
        .find(|l| l.starts_with("scrub_central_events_ingested "))
        .expect("events_ingested sample present");
    let n: u64 = events_line
        .rsplit(' ')
        .next()
        .unwrap()
        .parse()
        .expect("integer sample");
    assert!(n > 0, "the seeded run must actually ingest events");
}

/// Seeded OneHost run with small rollup factors so every tier seals
/// buckets within a minute of sim time; returns the full
/// multi-resolution `render_range` surface (every stored metric at raw,
/// mid and coarse) plus the exemplar-annotated Prometheus exposition.
fn run_tsdb_once() -> String {
    let mut config = ScrubConfig::default();
    config.trace_sample_rate = 0.1;
    let reg = SchemaRegistry::new();
    reg.register(EventSchema::new("bid", vec![FieldDef::new("user_id", FieldType::Long)]).unwrap())
        .unwrap();
    let reg = Arc::new(reg);
    let mut sim: Sim<ScrubMsg> = Sim::new(Topology::default(), 1771);
    let central = deploy_central(&mut sim, &reg, config.clone(), "DC1");
    sim.node_as_mut::<CentralNode<ScrubMsg>>(central)
        .expect("central node")
        .set_telemetry(TelemetryStore::new(RAW_CAP, 4, 8, TIER_CAP));
    sim.add_node(
        NodeMeta::new("gold-0", "GoldServers", "DC1"),
        Box::new(OneHost {
            harness: AgentHarness::new("gold-0", config.clone(), central),
            emitted: 0,
        }),
    );
    let d = deploy_server(&mut sim, reg, config, central, "DC1");
    let q = ScrubClient::new(&d)
        .submit(
            &mut sim,
            "select bid.user_id, COUNT(*) from bid @[all] \
             group by bid.user_id window 5 s duration 10 s",
        )
        .expect("query accepted");
    // Snapshot the exposition while the traced query's bucket is still
    // the newest mid-tier rollup (the exemplar comments cite the newest
    // point), then keep running so the coarse tier seals too.
    sim.run_until(SimTime::from_secs(20));
    let exposition = {
        let node = sim
            .node_as::<CentralNode<ScrubMsg>>(central)
            .expect("central node");
        scrub::obs::render_text_with_exemplars(&node.metrics(sim.now().as_ms()), node.telemetry())
    };
    sim.run_until(SimTime::from_secs(60));
    assert_eq!(q.state(&sim), Some(QueryState::Done));
    let node = sim
        .node_as::<CentralNode<ScrubMsg>>(central)
        .expect("central node");
    let store = node.telemetry();
    let mut out = String::new();
    for m in store.metric_names() {
        for res in [
            scrub::obs::Resolution::Raw,
            scrub::obs::Resolution::Mid,
            scrub::obs::Resolution::Coarse,
        ] {
            out.push_str(&store.render_range(&m, res, None));
        }
    }
    out.push_str(&exposition);
    out
}

/// The telemetry store's whole read surface is a golden artifact: two
/// seeded runs must produce byte-identical `range` renders at every
/// resolution — tier contents, rollup statistics *and exemplar trace
/// rids* — and a byte-identical exemplar-annotated exposition.
#[test]
fn range_renders_are_byte_identical_across_seeded_runs() {
    let a = run_tsdb_once();
    let b = run_tsdb_once();
    assert_eq!(a, b, "range renders must be reproducible byte-for-byte");
    // the surface is non-trivial: both rolled tiers sealed buckets and
    // at least one rollup carries an exemplar link
    assert!(a.contains("res=mid bucket=4x"), "no mid renders:\n{a}");
    assert!(
        a.contains("res=coarse bucket=8x"),
        "no coarse renders:\n{a}"
    );
    assert!(
        a.contains("rid="),
        "no exemplar resolved in a traced run:\n{a}"
    );
    assert!(
        a.contains("# exemplars: newest mid-tier rollup, max-delta interval"),
        "exposition missing exemplar comments:\n{a}"
    );
}

/// One seeded run with a mid-query host crash, returning the health
/// plane's two renders: the central alert log and the query's merged
/// flight-recorder timeline. Both are driven entirely by sim time (alert
/// evaluation happens at snapshot ticks, journal entries carry sim
/// timestamps), so no ns masking is needed — the bytes must match.
fn run_watchdog_once() -> (String, String) {
    let mut config = ScrubConfig::default();
    config.trace_sample_rate = 0.1;
    let reg = SchemaRegistry::new();
    reg.register(EventSchema::new("bid", vec![FieldDef::new("user_id", FieldType::Long)]).unwrap())
        .unwrap();
    let reg = Arc::new(reg);
    let mut sim: Sim<ScrubMsg> = Sim::new(Topology::default(), 1771);
    let central = deploy_central(&mut sim, &reg, config.clone(), "DC1");
    for i in 0..2 {
        let name = format!("gold-{i}");
        sim.add_node(
            NodeMeta::new(name.clone(), "GoldServers", "DC1"),
            Box::new(OneHost {
                harness: AgentHarness::new(&name, config.clone(), central),
                emitted: 0,
            }),
        );
    }
    let d = deploy_server(&mut sim, reg, config, central, "DC1");
    let q = ScrubClient::new(&d)
        .submit(
            &mut sim,
            "select bid.user_id, COUNT(*) from bid @[all] \
             group by bid.user_id window 5 s duration 20 s",
        )
        .expect("query accepted");
    // Kill one of the two tapped hosts mid-query: past the host grace the
    // suspected-hosts gauge rises, `host_dead` fires, and the flight
    // recorder journals the death and the degraded window closes.
    sim.run_until(SimTime::from_secs(6));
    assert!(sim.inject_crash("gold-1", sim.now(), None));
    sim.run_until(SimTime::from_secs(40));
    assert_eq!(q.state(&sim), Some(QueryState::Done));
    let node = sim
        .node_as::<CentralNode<ScrubMsg>>(central)
        .expect("central node");
    let alert_log = node.alert_engine().log().render();
    let (events, dropped) = q.timeline(&sim).expect("flight recorder journaled");
    let timeline = render_timeline(q.id().0, &events, dropped);
    (alert_log, timeline)
}

#[test]
fn alert_log_and_timeline_are_byte_identical_across_seeded_runs() {
    let (alerts_a, timeline_a) = run_watchdog_once();
    let (alerts_b, timeline_b) = run_watchdog_once();
    assert_eq!(alerts_a, alerts_b, "alert log must render byte-identically");
    assert_eq!(
        timeline_a, timeline_b,
        "flight recorder must render byte-identically"
    );
    // The crashed host was detected, with provenance pointing at it.
    assert!(
        alerts_a.contains("FIRED") && alerts_a.contains("host_dead"),
        "host_dead never fired:\n{alerts_a}"
    );
    assert!(
        alerts_a.contains("host=gold-1"),
        "alert provenance missing the dead host:\n{alerts_a}"
    );
    // The journal covers the whole lifecycle: control plane (admission,
    // plan, dispatch), data plane (window closes, the host death) and the
    // health plane echo (alert firings), ordered by sim time.
    for kind in [
        "admitted",
        "plan",
        "dispatched",
        "window_close",
        "host_dead",
        "alert_fired",
    ] {
        assert!(
            timeline_a.contains(kind),
            "timeline missing {kind:?}:\n{timeline_a}"
        );
    }
}

/// The paper's five §2 use cases, instantiated for the default seeded
/// bidding workload with short spans (line items picked from the ones
/// this workload actually serves).
fn use_case_queries() -> Vec<&'static str> {
    vec![
        // spam users
        "Select bid.user_id, COUNT(*) from bid @[Service in BidServers] \
         group by bid.user_id window 10 s duration 30 s",
        // new exchange, host+event sampled
        "select impression.exchange_id, COUNT(*) from impression \
         @[Service in PresentationServers] sample hosts 50% events 10% \
         group by impression.exchange_id window 10 s duration 30 s",
        // A/B line-item investigation
        "Select 1000*AVG(impression.cost) from impression \
         where impression.line_item_id = 1011 \
         @[Service in PresentationServers] window 10 s duration 30 s",
        // exclusion-reason histogram over a bid+exclusion join
        "Select exclusion.reason, COUNT(*) from bid, exclusion \
         where exclusion.line_item_id = 1001 and bid.exchange_id = 0 \
         @[Service in BidServers or Service in AdServers] \
         group by exclusion.reason window 10 s duration 30 s",
        // cannibalization join over auction+impression
        "Select impression.line_item_id, COUNT(*), AVG(auction.winner_price) \
         from auction, impression \
         where contains(auction.line_item_ids, 1000) \
         @[Service in AdServers or Service in PresentationServers] \
         group by impression.line_item_id window 10 s duration 30 s",
    ]
}

/// One seeded platform run of all five use-case queries; returns each
/// query's (static `explain`, ns-masked `explain analyze`) rendering.
fn run_explains() -> Vec<(String, String)> {
    let mut p = adplatform::build_platform(PlatformConfig::default());
    let handles: Vec<QueryHandle> = use_case_queries()
        .into_iter()
        .map(|src| {
            ScrubClient::new(&p.scrub)
                .submit(&mut p.sim, src)
                .expect("query accepted")
        })
        .collect();
    let deadline = p.sim.now() + SimDuration::from_secs(180);
    while p.sim.now() < deadline
        && handles
            .iter()
            .any(|h| h.state(&p.sim) != Some(QueryState::Done))
    {
        let step_to = p.sim.now() + SimDuration::from_secs(5);
        p.sim.run_until(step_to);
    }
    handles
        .iter()
        .map(|h| {
            let rec = h.record(&p.sim).expect("record exists");
            assert_eq!(rec.state, QueryState::Done, "query never finished");
            let explain = rec.compiled.explain();
            let analyze = h
                .plan_profile(&p.sim)
                .expect("plan profile retained after stop")
                .render(true);
            (explain, analyze)
        })
        .collect()
}

#[test]
fn explain_and_explain_analyze_are_byte_stable() {
    let a = run_explains();
    let b = run_explains();
    assert_eq!(a.len(), 5);
    for (i, ((ex_a, an_a), (ex_b, an_b))) in a.iter().zip(&b).enumerate() {
        assert_eq!(ex_a, ex_b, "use case {i}: static explain not byte-stable");
        assert_eq!(
            an_a, an_b,
            "use case {i}: explain analyze (ns masked) not byte-stable"
        );
        // shape: both stages render, the ns column is masked, and the
        // host stage carries the placement invariant in its header
        assert!(
            an_a.contains("host stage (selection + projection + sampling ONLY):"),
            "use case {i}: host stage missing"
        );
        assert!(
            an_a.contains("central stage (ScrubCentral):"),
            "use case {i}: central stage missing"
        );
        assert!(an_a.contains("ns -"), "use case {i}: ns column not masked");
    }
    // the workload must actually flow through at least the spam query's
    // host trio, or the goldens prove nothing
    let spam = &a[0].1;
    let sel_line = spam
        .lines()
        .find(|l| l.contains("selection(bid)"))
        .expect("selection operator rendered");
    assert!(
        !sel_line.contains("rows         0"),
        "spam use case saw no bids: {sel_line}"
    );
}
