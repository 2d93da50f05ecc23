//! End-to-end tests of the full Scrub pipeline over the simulated cluster:
//! application hosts tap events → agents select/project/sample → batches
//! cross the (simulated) network → ScrubCentral joins/groups/aggregates →
//! the query server collects rows and summaries.

use std::sync::Arc;

use scrub_core::config::ScrubConfig;
use scrub_core::event::RequestId;
use scrub_core::schema::{EventSchema, EventTypeId, FieldDef, FieldType, SchemaRegistry};
use scrub_core::value::Value;
use scrub_server::{AgentHarness, QueryState, ScrubClient, ScrubMsg};
use scrub_simnet::{Context, Node, NodeId, NodeMeta, Sim, SimDuration, SimTime, Topology};

/// An application host emitting one `bid` event every millisecond.
struct BidHost {
    harness: AgentHarness,
    emitted: u64,
    /// user id cycle length (events round-robin over users)
    users: u64,
    rate_interval: SimDuration,
}

const APP_TIMER: u64 = 1;

impl Node<ScrubMsg> for BidHost {
    fn on_start(&mut self, ctx: &mut Context<'_, ScrubMsg>) {
        self.harness.start(ctx);
        ctx.set_timer(self.rate_interval, APP_TIMER);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, ScrubMsg>, _from: NodeId, msg: ScrubMsg) {
        let _ = self.harness.on_message(ctx, msg);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, ScrubMsg>, timer: u64) {
        if self.harness.on_timer(ctx, timer) {
            return;
        }
        if timer == APP_TIMER {
            let user = self.emitted % self.users;
            let price = 0.5 + (self.emitted % 10) as f64 * 0.1;
            self.harness.agent().log(
                EventTypeId(0),
                RequestId(self.emitted * 1000 + ctx.self_id.0 as u64),
                ctx.now.as_ms(),
                &[Value::Long(user as i64), Value::Double(price)],
            );
            self.emitted += 1;
            ctx.set_timer(self.rate_interval, APP_TIMER);
        }
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

fn schema_registry() -> Arc<SchemaRegistry> {
    let reg = SchemaRegistry::new();
    reg.register(
        EventSchema::new(
            "bid",
            vec![
                FieldDef::new("user_id", FieldType::Long),
                FieldDef::new("bid_price", FieldType::Double),
            ],
        )
        .unwrap(),
    )
    .unwrap();
    Arc::new(reg)
}

/// Build a cluster of `n_hosts` BidHosts plus a Scrub deployment.
fn cluster(n_hosts: usize) -> (Sim<ScrubMsg>, scrub_server::ScrubDeployment) {
    let mut sim: Sim<ScrubMsg> = Sim::new(Topology::default(), 42);
    let config = ScrubConfig::default();
    let reg = schema_registry();
    let central = scrub_server::deploy_central(&mut sim, &reg, config.clone(), "DC1");
    for i in 0..n_hosts {
        let name = format!("bid-{i}");
        let dc = if i % 2 == 0 { "DC1" } else { "DC2" };
        let harness = AgentHarness::new(name.clone(), config.clone(), central);
        sim.add_node(
            NodeMeta::new(name, "BidServers", dc),
            Box::new(BidHost {
                harness,
                emitted: 0,
                users: 5,
                rate_interval: SimDuration::from_ms(1),
            }),
        );
    }
    let d = scrub_server::deploy_server(&mut sim, reg, config, central, "DC1");
    (sim, d)
}

#[test]
fn grouped_count_end_to_end() {
    let (mut sim, d) = cluster(4);
    let qid = ScrubClient::new(&d)
        .submit(
            &mut sim,
            "select bid.user_id, COUNT(*) from bid \
         @[Service in BidServers] group by bid.user_id window 10 s duration 30 s",
        )
        .expect("query accepted");
    sim.run_until(SimTime::from_secs(60));
    let rec = qid.record(&sim).expect("query record");
    assert_eq!(rec.state, QueryState::Done);
    assert_eq!(rec.hosts.len(), 4);
    assert!(!rec.rows.is_empty(), "no rows produced");
    // 5 users per host, counted per 10s window: each full window counts
    // ~10000ms/1ms / 5 users * 4 hosts = 8000 per user
    let w0: Vec<_> = rec.rows.iter().filter(|r| r.window_start_ms == 0).collect();
    assert_eq!(w0.len(), 5, "expected 5 user groups in window 0: {w0:?}");
    for row in &w0 {
        let count = row.values[1].as_i64().unwrap();
        // each of 4 hosts emits ~2000 events per user per window
        assert!(
            (7000..=8100).contains(&count),
            "count per user per window = {count}"
        );
    }
    let summary = rec.summary.as_ref().unwrap();
    assert_eq!(summary.hosts_reporting, 4);
    assert_eq!(summary.total_shed, 0);
}

#[test]
fn where_clause_filters_on_host() {
    let (mut sim, d) = cluster(2);
    let qid = ScrubClient::new(&d)
        .submit(
            &mut sim,
            "select COUNT(*) from bid where bid.bid_price >= 1.3 \
         @[Service in BidServers] window 10 s duration 20 s",
        )
        .expect("query accepted");
    sim.run_until(SimTime::from_secs(45));
    let rec = qid.record(&sim).unwrap();
    assert_eq!(rec.state, QueryState::Done);
    // prices cycle 0.5..1.4 by 0.1; >= 1.3 keeps 2 of 10 events
    let total: i64 = rec.rows.iter().map(|r| r.values[0].as_i64().unwrap()).sum();
    let matched = rec.summary.as_ref().unwrap().total_matched as i64;
    assert_eq!(total, matched);
    // 2 hosts * ~1000 events/s * 20s * 0.2 = ~8000
    assert!((6000..=8400).contains(&total), "total {total}");
}

#[test]
fn target_clause_limits_hosts() {
    let (mut sim, d) = cluster(4);
    let qid = ScrubClient::new(&d)
        .submit(
            &mut sim,
            "select COUNT(*) from bid @[Service in BidServers and DC = DC1] \
         window 10 s duration 20 s",
        )
        .expect("query accepted");
    sim.run_until(SimTime::from_secs(45));
    let rec = qid.record(&sim).unwrap();
    // hosts 0 and 2 are in DC1
    assert_eq!(rec.hosts.len(), 2);
    assert_eq!(rec.matching_hosts, 2);
    assert_eq!(rec.summary.as_ref().unwrap().hosts_reporting, 2);
}

#[test]
fn single_host_target() {
    let (mut sim, d) = cluster(3);
    let qid = ScrubClient::new(&d)
        .submit(
            &mut sim,
            "select COUNT(*) from bid @[Server = 'bid-1'] window 10 s duration 20 s",
        )
        .expect("query accepted");
    sim.run_until(SimTime::from_secs(45));
    let rec = qid.record(&sim).unwrap();
    assert_eq!(rec.hosts.len(), 1);
}

#[test]
fn bad_query_rejected_with_reason() {
    let (mut sim, d) = cluster(1);
    let err = ScrubClient::new(&d)
        .submit(&mut sim, "select NOPE(bid.x) from bid")
        .expect_err("bad query must be rejected");
    assert!(
        matches!(&err, scrub_core::error::ScrubError::Rejected(r) if r.contains("unknown function")),
        "{err}"
    );
    let rej = ScrubClient::new(&d).rejections(&sim);
    assert_eq!(rej.len(), 1);
    assert!(rej[0].1.contains("unknown function"));
}

#[test]
fn unknown_event_type_rejected() {
    let (mut sim, d) = cluster(1);
    ScrubClient::new(&d)
        .submit(&mut sim, "select COUNT(*) from nonexistent")
        .expect_err("unknown event type must be rejected");
    assert_eq!(ScrubClient::new(&d).rejections(&sim).len(), 1);
}

#[test]
fn no_matching_hosts_rejected() {
    let (mut sim, d) = cluster(1);
    let err = ScrubClient::new(&d)
        .submit(
            &mut sim,
            "select COUNT(*) from bid @[Service in WrongService]",
        )
        .expect_err("unmatched target must be rejected");
    assert!(err.to_string().contains("no hosts"), "{err}");
    let rej = ScrubClient::new(&d).rejections(&sim);
    assert_eq!(rej.len(), 1);
    assert!(rej[0].1.contains("no hosts"));
}

#[test]
fn query_span_stops_collection() {
    let (mut sim, d) = cluster(1);
    let qid = ScrubClient::new(&d)
        .submit(
            &mut sim,
            "select COUNT(*) from bid @[all] window 10 s duration 20 s",
        )
        .expect("query accepted");
    // run far past the query span: collection must have stopped at ~20s
    sim.run_until(SimTime::from_secs(120));
    let rec = qid.record(&sim).unwrap();
    assert_eq!(rec.state, QueryState::Done);
    let max_window = rec.rows.iter().map(|r| r.window_start_ms).max().unwrap();
    assert!(
        max_window <= 30_000,
        "windows continued after span: {max_window}"
    );
    // and the agent no longer carries subscriptions
    let host = sim.node_by_name("bid-0").unwrap();
    let bidhost = sim.node_as::<BidHost>(host).unwrap();
    assert_eq!(bidhost.harness.agent().subscription_count(), 0);
}

#[test]
fn delayed_start_honored() {
    let (mut sim, d) = cluster(1);
    let qid = ScrubClient::new(&d)
        .submit(
            &mut sim,
            "select COUNT(*) from bid @[all] window 10 s start in 30 s duration 10 s",
        )
        .expect("query accepted");
    sim.run_until(SimTime::from_secs(90));
    let rec = qid.record(&sim).unwrap();
    assert_eq!(rec.state, QueryState::Done);
    let min_window = rec.rows.iter().map(|r| r.window_start_ms).min().unwrap();
    assert!(min_window >= 30_000, "collected before start: {min_window}");
}

#[test]
fn event_sampling_scales_estimates() {
    let (mut sim, d) = cluster(2);
    let exact = ScrubClient::new(&d)
        .submit(
            &mut sim,
            "select COUNT(*) from bid @[all] window 10 s duration 20 s",
        )
        .expect("query accepted");
    let sampled = ScrubClient::new(&d)
        .submit(
            &mut sim,
            "select COUNT(*) from bid @[all] window 10 s duration 20 s sample events 10%",
        )
        .expect("query accepted");
    sim.run_until(SimTime::from_secs(60));
    let exact_total: f64 = exact
        .record(&sim)
        .unwrap()
        .rows
        .iter()
        .map(|r| r.values[0].as_f64().unwrap())
        .sum();
    let rec = sampled.record(&sim).unwrap();
    let sampled_total: f64 = rec.rows.iter().map(|r| r.values[0].as_f64().unwrap()).sum();
    // scaled estimate should be within 2% of the exact count (scaling uses
    // the true matched/sampled ratio, so only window-edge effects remain)
    let rel = (sampled_total - exact_total).abs() / exact_total;
    assert!(rel < 0.02, "sampled {sampled_total} vs exact {exact_total}");
    // far fewer events were actually shipped
    let s = rec.summary.as_ref().unwrap();
    assert!(s.total_sampled * 5 < s.total_matched);
}

#[test]
fn concurrent_queries_are_isolated() {
    let (mut sim, d) = cluster(2);
    let q1 = ScrubClient::new(&d)
        .submit(
            &mut sim,
            "select COUNT(*) from bid @[all] window 10 s duration 20 s",
        )
        .expect("query accepted");
    let q2 = ScrubClient::new(&d)
        .submit(
            &mut sim,
            "select bid.user_id, COUNT(*) from bid @[all] group by bid.user_id \
         window 10 s duration 20 s",
        )
        .expect("query accepted");
    sim.run_until(SimTime::from_secs(60));
    let r1 = q1.record(&sim).unwrap();
    let r2 = q2.record(&sim).unwrap();
    assert_eq!(r1.state, QueryState::Done);
    assert_eq!(r2.state, QueryState::Done);
    assert!(r1.rows.iter().all(|r| r.query_id == q1.id()));
    assert!(r2.rows.iter().all(|r| r.query_id == q2.id()));
    assert_eq!(r1.rows[0].values.len(), 1);
    assert_eq!(r2.rows[0].values.len(), 2);
}

#[test]
fn host_sampling_selects_subset() {
    let (mut sim, d) = cluster(10);
    let qid = ScrubClient::new(&d)
        .submit(
            &mut sim,
            "select COUNT(*) from bid @[Service in BidServers] sample hosts 30% \
         window 10 s duration 20 s",
        )
        .expect("query accepted");
    sim.run_until(SimTime::from_secs(60));
    let rec = qid.record(&sim).unwrap();
    assert_eq!(rec.matching_hosts, 10);
    assert_eq!(rec.hosts.len(), 3);
    assert_eq!(rec.summary.as_ref().unwrap().hosts_reporting, 3);
    // counts are scaled up by the host factor 10/3: each window's count
    // should approximate the full-fleet rate (10 hosts × ~10000/window)
    let w: Vec<f64> = rec
        .rows
        .iter()
        .filter(|r| r.window_start_ms == 10_000)
        .map(|r| r.values[0].as_f64().unwrap())
        .collect();
    assert_eq!(w.len(), 1);
    assert!(
        (80_000.0..=120_000.0).contains(&w[0]),
        "scaled count {}",
        w[0]
    );
}

#[test]
fn cancel_stops_collection_early() {
    let (mut sim, d) = cluster(1);
    let qid = ScrubClient::new(&d)
        .submit(
            &mut sim,
            "select COUNT(*) from bid @[all] window 10 s duration 10 m",
        )
        .expect("query accepted");
    // let it run 25 s, then cancel — far before the 10 min span
    sim.run_until(SimTime::from_secs(25));
    qid.stop(&mut sim);
    sim.run_until(SimTime::from_secs(120));
    let rec = qid.record(&sim).unwrap();
    assert_eq!(rec.state, QueryState::Done);
    let max_window = rec.rows.iter().map(|r| r.window_start_ms).max().unwrap();
    assert!(max_window <= 30_000, "collected after cancel: {max_window}");
    // agent subscriptions were removed
    let host = sim.node_by_name("bid-0").unwrap();
    assert_eq!(
        sim.node_as::<BidHost>(host)
            .unwrap()
            .harness
            .agent()
            .subscription_count(),
        0
    );
}

#[test]
fn cancel_scheduled_query_never_dispatches() {
    let (mut sim, d) = cluster(1);
    let qid = ScrubClient::new(&d)
        .submit(
            &mut sim,
            "select COUNT(*) from bid @[all] start in 1 m duration 1 m",
        )
        .expect("query accepted");
    qid.stop(&mut sim);
    sim.run_until(SimTime::from_secs(240));
    let rec = qid.record(&sim).unwrap();
    assert_eq!(rec.state, QueryState::Done);
    assert!(rec.rows.is_empty(), "cancelled-before-start query has rows");
}

#[test]
fn cancel_after_done_is_harmless() {
    let (mut sim, d) = cluster(1);
    let qid = ScrubClient::new(&d)
        .submit(
            &mut sim,
            "select COUNT(*) from bid @[all] window 10 s duration 10 s",
        )
        .expect("query accepted");
    sim.run_until(SimTime::from_secs(60));
    let rows_before = qid.record(&sim).unwrap().rows.len();
    qid.stop(&mut sim);
    sim.run_until(SimTime::from_secs(90));
    let rec = qid.record(&sim).unwrap();
    assert_eq!(rec.state, QueryState::Done);
    assert_eq!(rec.rows.len(), rows_before);
}

#[test]
fn central_cluster_spreads_queries() {
    use scrub_server::{deploy_central_cluster, deploy_server_clustered, CentralNode};

    let mut sim: Sim<ScrubMsg> = Sim::new(scrub_simnet::Topology::default(), 42);
    let config = ScrubConfig::default();
    let reg = schema_registry();
    let centrals = deploy_central_cluster(&mut sim, &reg, config.clone(), "DC1", 3);
    for i in 0..2 {
        let name = format!("bid-{i}");
        let harness = AgentHarness::new(name.clone(), config.clone(), centrals[0]);
        sim.add_node(
            NodeMeta::new(name, "BidServers", "DC1"),
            Box::new(BidHost {
                harness,
                emitted: 0,
                users: 5,
                rate_interval: SimDuration::from_ms(1),
            }),
        );
    }
    let d = deploy_server_clustered(&mut sim, reg, config, centrals.clone(), "DC1");

    // three queries land on three different centrals (round-robin by id)
    let qids: Vec<_> = (0..3)
        .map(|_| {
            ScrubClient::new(&d)
                .submit(
                    &mut sim,
                    "select COUNT(*) from bid @[all] window 10 s duration 20 s",
                )
                .expect("query accepted")
        })
        .collect();
    sim.run_until(SimTime::from_secs(60));

    let mut totals = Vec::new();
    for &qid in &qids {
        let rec = qid.record(&sim).unwrap();
        assert_eq!(rec.state, QueryState::Done, "query {} unfinished", qid.id());
        let total: i64 = rec.rows.iter().map(|r| r.values[0].as_i64().unwrap()).sum();
        totals.push(total);
    }
    // all three queries observed the same traffic
    assert!(
        totals.windows(2).all(|w| (w[0] - w[1]).abs() < 100),
        "{totals:?}"
    );

    // and each central carried exactly one query's batches
    let mut per_central = Vec::new();
    for &c in &centrals {
        let node = sim.node_as::<CentralNode<ScrubMsg>>(c).unwrap();
        per_central.push(node.metrics(0).counter("central.batches_received"));
    }
    assert!(
        per_central.iter().all(|&b| b > 0),
        "some central idle: {per_central:?}"
    );
}

/// A frame damaged on the wire is one counted drop: central's header
/// accounting (window attribution, trace hops) skips it, the executor
/// counts it, and the frames around it fold. Holds in debug and release.
#[test]
fn truncated_frame_is_one_counted_drop_at_central() {
    use scrub_agent::EventBatch;
    use scrub_core::columnar::ColumnarFrame;
    use scrub_core::event::Event;
    use scrub_core::plan::{compile, QueryId};
    use scrub_core::ql::parser::parse_query;
    use scrub_server::{deploy_central, CentralNode};

    let mut sim: Sim<ScrubMsg> = Sim::new(Topology::default(), 42);
    // every request traced, so both header consumers read the frame
    let config = ScrubConfig {
        trace_sample_rate: 1.0,
        ..ScrubConfig::default()
    };
    let reg = schema_registry();
    let central = deploy_central(&mut sim, &reg, config.clone(), "DC1");
    let d = scrub_server::deploy_server(&mut sim, reg.clone(), config.clone(), central, "DC1");
    let qid = QueryId(1);
    let spec = parse_query("select COUNT(*) from bid window 10 s").unwrap();
    let plan = compile(&spec, &reg, &config, qid).unwrap().central;
    sim.inject(central, d.server, ScrubMsg::CentralInstall { plan });

    let frame = |seq: u64| {
        let events: Vec<Event> = (0..10)
            .map(|i| Event::new(EventTypeId(0), RequestId(seq * 10 + i), 1_000, vec![]))
            .collect();
        ColumnarFrame::from_events(&events)
    };
    for seq in 0..3u64 {
        let mut frame = frame(seq);
        if seq == 1 {
            frame.bytes.truncate(frame.bytes.len() - 2);
            assert!(frame.decode().is_err());
        }
        let sent = (seq + 1) * 10;
        let batch = EventBatch {
            seq,
            attempt: 0,
            seq_floor: 0,
            watermark_ms: None,
            query_id: qid,
            type_id: EventTypeId(0),
            host: "bid-0".into(),
            payload: frame,
            matched: sent,
            sampled: sent,
            shed: 0,
            budget_shed: 0,
            seen: sent,
            bytes: 0,
            spans: vec![],
        };
        sim.inject(central, d.server, ScrubMsg::Batch(batch));
    }
    sim.run_until(SimTime::from_secs(1));
    sim.inject(central, d.server, ScrubMsg::CentralStop { query_id: qid });
    sim.run_until(SimTime::from_secs(2));

    let node = sim.node_as::<CentralNode<ScrubMsg>>(central).unwrap();
    let metrics = node.metrics(2_000);
    assert_eq!(metrics.counters["central.decode_failures"], 1);
    assert_eq!(metrics.counters["central.batches_received"], 3);
    // the good frames folded, and only their requests were traced
    let profile = node.plan_profile(qid).unwrap();
    let group = profile.ops.iter().find(|o| o.label.starts_with("group"));
    assert_eq!(group.unwrap().rows_in, 20);
    let traced: Vec<u64> = node.trace_store(qid).unwrap().request_ids().collect();
    assert_eq!(traced.len(), 20);
    assert!(
        traced.iter().all(|rid| !(10..20).contains(rid)),
        "{traced:?}"
    );
}

/// A copy of an ingested batch that arrives after its query stopped — a
/// retransmit whose ack was lost, say — is acked and counted, and changes
/// nothing: not the delivered count the loss ledger reconciles, nor the
/// delivery state, which the stop released. So does a frame of the
/// retired row format, which is one counted decode failure.
#[test]
fn batches_after_stop_are_counted_not_ingested() {
    use scrub_agent::EventBatch;
    use scrub_core::columnar::ColumnarFrame;
    use scrub_core::event::Event;
    use scrub_core::plan::{compile, QueryId};
    use scrub_core::ql::parser::parse_query;
    use scrub_server::{deploy_central, CentralNode};

    let mut sim: Sim<ScrubMsg> = Sim::new(Topology::default(), 42);
    let config = ScrubConfig::default();
    let reg = schema_registry();
    let central = deploy_central(&mut sim, &reg, config.clone(), "DC1");
    let d = scrub_server::deploy_server(&mut sim, reg.clone(), config.clone(), central, "DC1");
    let qid = QueryId(1);
    let spec = parse_query("select COUNT(*) from bid window 10 s").unwrap();
    let plan = compile(&spec, &reg, &config, qid).unwrap().central;
    sim.inject(central, d.server, ScrubMsg::CentralInstall { plan });
    let batch = |seq: u64, attempt: u32| {
        let events: Vec<Event> = (0..10)
            .map(|i| Event::new(EventTypeId(0), RequestId(seq * 10 + i), 1_000, vec![]))
            .collect();
        let sent = (seq + 1) * 10;
        EventBatch {
            seq,
            attempt,
            seq_floor: 0,
            watermark_ms: None,
            query_id: qid,
            type_id: EventTypeId(0),
            host: "bid-0".into(),
            payload: ColumnarFrame::from_events(&events),
            matched: sent,
            sampled: sent,
            shed: 0,
            budget_shed: 0,
            seen: sent,
            bytes: 0,
            spans: vec![],
        }
    };
    // seq 2 carries a frame of the retired row format: `[0x00, 1]`, one
    // event, then the event — type 0, request 20, zigzag(1000) = 2000 and
    // no values — in varints
    let mut retired = batch(2, 0);
    retired.payload.bytes = vec![0x00, 1, 1, 0, 20, 0xd0, 0x0f, 0];
    let err = retired.payload.decode().unwrap_err().to_string();
    assert!(err.contains("retired row wire format"), "{err}");
    for b in [batch(0, 0), batch(1, 0), retired] {
        sim.inject(central, d.server, ScrubMsg::Batch(b));
    }
    sim.run_until(SimTime::from_secs(1));
    sim.inject(central, d.server, ScrubMsg::CentralStop { query_id: qid });
    sim.run_until(SimTime::from_secs(2));
    sim.inject(central, d.server, ScrubMsg::Batch(batch(1, 7)));
    sim.run_until(SimTime::from_secs(3));

    let node = sim.node_as::<CentralNode<ScrubMsg>>(central).unwrap();
    let metrics = node.metrics(3_000);
    assert_eq!(metrics.counters["central.batches_received"], 4);
    assert_eq!(metrics.counters["central.acks_sent"], 4);
    assert_eq!(metrics.counters["central.batches_after_stop"], 1);
    assert_eq!(metrics.counters["central.batches_duplicate"], 0);
    assert_eq!(metrics.counters["central.decode_failures"], 1);
    assert_eq!(node.events_ingested, 30);
    let host = &node.profile(qid).unwrap().hosts["bid-0"];
    assert_eq!((host.events, host.selected), (30, 30));
    let ledger = node.ledger(qid).expect("ledger of a stopped query");
    assert!(ledger.reconciles());
    assert_eq!(ledger.hosts["bid-0"].delivered, 30);
    let group = node.plan_profile(qid).unwrap();
    let group = group.ops.iter().find(|o| o.label.starts_with("group"));
    assert_eq!(
        group.unwrap().rows_in,
        20,
        "the retired frame folded nothing"
    );
}

/// An application host logging one `hit` event, carrying its own name,
/// every 10 ms until `quiet_at_ms`.
struct NamedHost {
    harness: AgentHarness,
    quiet_at_ms: i64,
}

impl Node<ScrubMsg> for NamedHost {
    fn on_start(&mut self, ctx: &mut Context<'_, ScrubMsg>) {
        self.harness.start(ctx);
        ctx.set_timer(SimDuration::from_ms(10), APP_TIMER);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, ScrubMsg>, _from: NodeId, msg: ScrubMsg) {
        let _ = self.harness.on_message(ctx, msg);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, ScrubMsg>, timer: u64) {
        if self.harness.on_timer(ctx, timer) || ctx.now.as_ms() >= self.quiet_at_ms {
            return;
        }
        let now = ctx.now.as_ms();
        let name = Value::Str(ctx.self_meta().name.clone());
        self.harness
            .agent()
            .log(EventTypeId(0), RequestId(now as u64), now, &[name]);
        ctx.set_timer(SimDuration::from_ms(10), APP_TIMER);
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// A host crashes mid-query. Every window open while it is suspected dead
/// closes degraded, and the loss ledger books each host's delivered events
/// in those windows: as many as its group counts over the degraded rows.
/// The hosts fall quiet before the span ends, so every window closes on
/// its own before central finishes the query.
#[test]
fn degraded_windows_attribute_each_hosts_events_to_it() {
    use std::collections::BTreeMap;

    let mut sim: Sim<ScrubMsg> = Sim::new(Topology::default(), 42);
    let config = ScrubConfig::default();
    let reg = SchemaRegistry::new();
    reg.register(EventSchema::new("hit", vec![FieldDef::new("host", FieldType::Str)]).unwrap())
        .unwrap();
    let reg = Arc::new(reg);
    let central = scrub_server::deploy_central(&mut sim, &reg, config.clone(), "DC1");
    for i in 0..3 {
        let name = format!("hit-{i}");
        sim.add_node(
            NodeMeta::new(name.clone(), "Hits", "DC1"),
            Box::new(NamedHost {
                harness: AgentHarness::new(name, config.clone(), central),
                quiet_at_ms: 58_000,
            }),
        );
    }
    let d = scrub_server::deploy_server(&mut sim, reg, config, central, "DC1");
    let q = ScrubClient::new(&d)
        .submit(
            &mut sim,
            "select hit.host, COUNT(*) from hit @[Service in Hits] \
             group by hit.host window 20 s duration 60 s",
        )
        .expect("query accepted");
    // inside the window [20 s, 40 s), which is still open when the failure
    // detector notices
    assert!(sim.inject_crash("hit-2", SimTime::from_secs(25), None));
    sim.run_until(SimTime::from_secs(120));
    assert_eq!(q.state(&sim), Some(QueryState::Done));

    let rows = q.results(&sim);
    let mut degraded: BTreeMap<String, u64> = BTreeMap::new();
    for row in rows.iter().filter(|r| r.degraded) {
        let host = row.values[0].as_str().expect("host name").to_string();
        *degraded.entry(host).or_default() += row.values[1].as_i64().unwrap() as u64;
    }
    assert!(
        rows.iter().any(|r| r.window_start_ms == 0 && !r.degraded),
        "the window before the crash closes clean"
    );
    assert_eq!(degraded.len(), 3, "{degraded:?}");
    assert!(degraded["hit-2"] > 0, "the dead host fed a degraded window");
    let ledger = q.loss_ledger(&sim).expect("loss ledger");
    assert!(ledger.reconciles());
    assert!(ledger.hosts["hit-2"].host_dead);
    for (host, losses) in &ledger.hosts {
        assert_eq!(
            losses.window_degraded,
            degraded.get(host).copied().unwrap_or(0),
            "host {host}"
        );
    }
}

/// One query's figures agree across every surface central keeps them on,
/// under loss, retransmits, duplicate deliveries and a host crashed
/// mid-query: the summary's totals are the profile's, `EXPLAIN ANALYZE`'s
/// decode operator reads the profile's events and bytes, every ack is a
/// fresh or a duplicate batch of the live query, and the loss ledger
/// reconciles.
#[test]
fn summary_profile_plan_and_ledger_agree_under_faults() {
    use scrub_simnet::{FaultPlan, NodeSel};

    let (mut sim, d) = cluster(4);
    let hosts = || NodeSel::Service("BidServers".into());
    let central = || NodeSel::Host("scrub-central".into());
    sim.set_fault_plan(
        FaultPlan::new(11)
            .drop(hosts(), central(), 0.1)
            .drop(central(), hosts(), 0.2)
            .crash("bid-3", SimTime::from_secs(12), None),
    );
    let q = ScrubClient::new(&d)
        .submit(
            &mut sim,
            "select bid.user_id, COUNT(*) from bid @[Service in BidServers] \
             group by bid.user_id window 10 s duration 30 s",
        )
        .expect("query accepted");
    sim.run_until(SimTime::from_secs(90));
    assert_eq!(q.state(&sim), Some(QueryState::Done));

    let rec = q.record(&sim).expect("query record");
    let summary = rec.summary.as_ref().expect("summary");
    let profile = q.profile(&sim).expect("profile");
    assert!(
        profile.bytes_retransmitted > 0,
        "no retransmits: {profile:?}"
    );
    assert!(profile.batches_duplicate > 0, "no duplicates: {profile:?}");
    assert_eq!(summary.total_matched, profile.total_tapped());
    assert_eq!(summary.total_sampled, profile.total_selected());
    assert_eq!(summary.total_shed, profile.total_shed());
    assert_eq!(summary.total_budget_shed, profile.total_budget_shed());
    assert_eq!(summary.duplicate_batches, profile.batches_duplicate);
    assert_eq!(summary.hosts_reporting, profile.hosts.len());

    let plan = q.plan_profile(&sim).expect("plan profile");
    let decode = plan
        .ops
        .iter()
        .find(|o| o.label == "decode/route")
        .expect("decode operator");
    let events: u64 = profile.hosts.values().map(|h| h.events).sum();
    assert_eq!(decode.rows_in, events);
    assert_eq!(
        decode.bytes,
        profile.bytes_first_sent + profile.bytes_retransmitted
    );
    // central acks every batch; those of a live query are fresh or duplicate
    let node = sim
        .node_as::<scrub_server::CentralNode<ScrubMsg>>(q.central(&sim))
        .expect("central node");
    let counters = node.metrics(90_000).counters;
    assert_eq!(
        counters["central.acks_sent"] - counters["central.batches_after_stop"],
        profile.batches_ingested + profile.batches_duplicate
    );

    let ledger = q.loss_ledger(&sim).expect("loss ledger");
    assert!(ledger.reconciles(), "{ledger:?}");
    assert!(ledger.hosts["bid-3"].host_dead, "{ledger:?}");
}

/// Every metric the health plane watches — each default alert rule's and
/// each anomaly-watchlist entry's — is registered by a fresh central node,
/// before any query or tick. A misspelt name would watch a series that
/// never moves.
#[test]
fn health_plane_watches_only_registered_metrics() {
    let node =
        scrub_server::CentralNode::<ScrubMsg>::new(ScrubConfig::default(), schema_registry());
    let snap = node.metrics(0);
    let registered = |m: &str| snap.counters.contains_key(m) || snap.gauges.contains_key(m);
    for rule in scrub_obs::default_rules() {
        assert!(
            registered(&rule.metric),
            "rule {} watches unregistered {:?}",
            rule.id,
            rule.metric
        );
    }
    let watchlist = node.alert_engine().anomaly().metrics();
    assert!(!watchlist.is_empty());
    for m in watchlist {
        assert!(registered(m), "anomaly watchlist names unregistered {m:?}");
    }
}

/// A finished query leaves no metric series behind at central: its
/// per-operator figures stay in its retained plan profile (`explain
/// analyze`), so the node registry and the telemetry store, which every
/// housekeeping tick snapshots, records and streams, hold as many series
/// after twenty sequential queries as after the first.
#[test]
fn finished_queries_leave_no_metric_series_at_central() {
    use scrub_server::CentralNode;

    let (mut sim, d) = cluster(1);
    let series = |sim: &Sim<ScrubMsg>| {
        let node = sim.node_as::<CentralNode<ScrubMsg>>(d.central).unwrap();
        let m = node.metrics(sim.now().as_ms());
        let registered = m.counters.len() + m.gauges.len() + m.histograms.len();
        (registered, node.telemetry().metric_names().len())
    };
    let mut after_first = None;
    for i in 0..20 {
        let q = ScrubClient::new(&d)
            .submit(
                &mut sim,
                "select bid.user_id, COUNT(*) from bid @[all] \
                 group by bid.user_id window 1 s duration 2 s",
            )
            .expect("query accepted");
        let deadline = sim.now() + SimDuration::from_secs(30);
        while q.state(&sim) != Some(QueryState::Done) && sim.now() < deadline {
            let step = sim.now() + SimDuration::from_secs(1);
            sim.run_until(step);
        }
        assert_eq!(q.state(&sim), Some(QueryState::Done), "query {i}");
        // a few housekeeping ticks, so the store records the last figures
        let settle = sim.now() + SimDuration::from_secs(3);
        sim.run_until(settle);
        let now = series(&sim);
        assert!(now.0 > 0 && now.1 > 0, "{now:?}");
        match after_first {
            None => after_first = Some(now),
            Some(first) => assert_eq!(now, first, "(registered, stored) after query {i}"),
        }
    }
}
