//! Failure-injection and robustness tests: load shedding under bursts,
//! accuracy trade-offs being visible in summaries, WAN reordering, join
//! explosion capping, and query lifecycle edge cases.

#![allow(clippy::field_reassign_with_default)]

use std::sync::Arc;

use scrub::prelude::*;
use scrub_core::event::RequestId;
use scrub_core::schema::EventTypeId;
use scrub_simnet::{Context, Node};

/// A host that emits `burst` events every millisecond — far above any
/// reasonable budget — to force shedding.
struct BurstHost {
    harness: AgentHarness,
    burst: u64,
    emitted: u64,
}

impl Node<ScrubMsg> for BurstHost {
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
        for _ in 0..self.burst {
            self.emitted += 1;
            self.harness.agent().log(
                EventTypeId(0),
                RequestId(self.emitted),
                ctx.now.as_ms(),
                &[Value::Long((self.emitted % 10) as i64)],
            );
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

fn registry() -> Arc<SchemaRegistry> {
    let reg = SchemaRegistry::new();
    reg.register(EventSchema::new("burst", vec![FieldDef::new("k", FieldType::Long)]).unwrap())
        .unwrap();
    Arc::new(reg)
}

fn burst_cluster(burst: u64, budget: u64) -> (Sim<ScrubMsg>, scrub_server::ScrubDeployment) {
    let mut config = ScrubConfig::default();
    config.agent_events_per_sec_budget = budget;
    let mut sim: Sim<ScrubMsg> = Sim::new(Topology::default(), 5);
    let reg = registry();
    let central = deploy_central(&mut sim, &reg, config.clone(), "DC1");
    sim.add_node(
        NodeMeta::new("burst-0", "BurstServers", "DC1"),
        Box::new(BurstHost {
            harness: AgentHarness::new("burst-0", config.clone(), central),
            burst,
            emitted: 0,
        }),
    );
    let d = deploy_server(&mut sim, reg, config, central, "DC1");
    (sim, d)
}

/// Like [`burst_cluster`] but with `hosts` burst hosts (even indices in
/// DC1, odd in DC2) and the node ids returned for stats inspection.
fn fault_cluster(
    hosts: usize,
    config: ScrubConfig,
) -> (
    Sim<ScrubMsg>,
    scrub_server::ScrubDeployment,
    Vec<scrub_simnet::NodeId>,
) {
    let mut sim: Sim<ScrubMsg> = Sim::new(Topology::default(), 5);
    let reg = registry();
    let central = deploy_central(&mut sim, &reg, config.clone(), "DC1");
    let mut ids = Vec::new();
    for i in 0..hosts {
        let dc = if i % 2 == 0 { "DC1" } else { "DC2" };
        let name = format!("burst-{i}");
        ids.push(sim.add_node(
            NodeMeta::new(name.clone(), "BurstServers", dc),
            Box::new(BurstHost {
                harness: AgentHarness::new(&name, config.clone(), central),
                burst: 2,
                emitted: 0,
            }),
        ));
    }
    let d = deploy_server(&mut sim, reg, config, central, "DC1");
    (sim, d, ids)
}

#[test]
fn message_drop_is_recovered_by_retransmission() {
    // 15% loss in both directions between the agents and central (data
    // batches AND acks), switched on after the query installs: every lost
    // shipment must be retransmitted into its window and every dropped ack
    // must surface as a deduplicated duplicate, leaving the final rows in
    // exact agreement with the shipped-volume counters.
    let mut config = ScrubConfig::default();
    config.agent_retry_base_ms = 200;
    config.window_grace_ms = 5_000;
    config.host_grace_ms = 10_000;
    let (mut sim, d, ids) = fault_cluster(2, config);
    let qid = ScrubClient::new(&d)
        .submit(
            &mut sim,
            "select COUNT(*) from burst @[all] window 5 s duration 15 s",
        )
        .expect("query accepted");
    sim.run_until(SimTime::from_ms(1_500));
    let agents = NodeSel::Service("BurstServers".into());
    let central = NodeSel::Host("scrub-central".into());
    sim.set_link_drop(agents.clone(), central.clone(), 0.15);
    sim.set_link_drop(central, agents, 0.15);
    sim.run_until(SimTime::from_secs(40));

    assert!(sim.fault_stats().dropped_random > 0, "faults never fired");
    let rec = qid.record(&sim).unwrap();
    assert_eq!(rec.state, QueryState::Done);
    let s = rec.summary.as_ref().unwrap();
    let total: i64 = rec.rows.iter().map(|r| r.values[0].as_i64().unwrap()).sum();
    assert_eq!(total as u64, s.total_sampled, "lost batches not recovered");
    assert_eq!(s.total_matched, s.total_sampled);
    // the recovery machinery visibly did the work:
    let retransmits: u64 = ids
        .iter()
        .map(|id| {
            let h = sim.node_as::<BurstHost>(*id).unwrap();
            h.harness.agent().stats().snapshot().retransmits
        })
        .sum();
    assert!(retransmits > 0, "no retransmits under 15% loss");
    assert!(
        s.duplicate_batches > 0,
        "dropped acks must produce duplicates central absorbs"
    );
}

#[test]
fn partition_spanning_window_boundary_is_absorbed() {
    // A DC1/DC2 partition from 7 s to 12 s spans the [5 s, 10 s) window's
    // close: the DC2 host's batches for that window arrive only after the
    // heal, inside the widened grace, and nothing is lost or double-counted.
    let mut config = ScrubConfig::default();
    config.agent_retry_base_ms = 200;
    config.window_grace_ms = 8_000;
    config.host_grace_ms = 12_000;
    let (mut sim, d, _ids) = fault_cluster(2, config);
    let qid = ScrubClient::new(&d)
        .submit(
            &mut sim,
            "select COUNT(*) from burst @[all] window 5 s duration 20 s",
        )
        .expect("query accepted");
    sim.add_partition(
        NodeSel::Dc("DC1".into()),
        NodeSel::Dc("DC2".into()),
        SimTime::from_secs(7),
        SimTime::from_secs(12),
    );
    sim.run_until(SimTime::from_secs(45));

    assert!(sim.fault_stats().dropped_partition > 0, "partition inert");
    let rec = qid.record(&sim).unwrap();
    assert_eq!(rec.state, QueryState::Done);
    let s = rec.summary.as_ref().unwrap();
    let total: i64 = rec.rows.iter().map(|r| r.values[0].as_i64().unwrap()).sum();
    assert_eq!(
        total as u64, s.total_sampled,
        "partition lost data for good"
    );
    assert_eq!(s.total_matched, s.total_sampled);
    // every window closed (four full + the trailing partial), including
    // the one the partition spanned, and none needed a degraded marking
    // (the host came back in time)
    let starts: std::collections::BTreeSet<i64> =
        rec.rows.iter().map(|r| r.window_start_ms).collect();
    assert_eq!(starts.len(), 5, "windows stalled: {starts:?}");
    assert!(rec.rows.iter().all(|r| !r.degraded));
}

#[test]
fn host_crash_mid_query_degrades_gracefully() {
    // One of four hosts dies at 8 s and never returns. The query must run
    // to completion with windows closing on schedule, and the summary must
    // admit the blind spot: coverage < 100% and post-crash rows degraded.
    let (mut sim, d, _ids) = fault_cluster(4, ScrubConfig::default());
    let qid = ScrubClient::new(&d)
        .submit(
            &mut sim,
            "select COUNT(*) from burst @[all] window 5 s duration 20 s",
        )
        .expect("query accepted");
    assert!(sim.inject_crash("burst-3", SimTime::from_secs(8), None));
    sim.run_until(SimTime::from_secs(45));

    let rec = qid.record(&sim).unwrap();
    assert_eq!(rec.state, QueryState::Done, "query stalled on dead host");
    let s = rec.summary.as_ref().unwrap();
    assert!(
        s.hosts_live < s.hosts_targeted,
        "dead host still counted live: {}/{}",
        s.hosts_live,
        s.hosts_targeted
    );
    assert!(s.coverage() < 1.0);
    assert!(s.degraded_rows > 0, "degradation invisible in summary");
    let starts: std::collections::BTreeSet<i64> =
        rec.rows.iter().map(|r| r.window_start_ms).collect();
    assert_eq!(starts.len(), 5, "windows stalled: {starts:?}");
    // every window closing after the failure detector fired is flagged
    assert!(rec
        .rows
        .iter()
        .filter(|r| r.window_start_ms >= 10_000)
        .all(|r| r.degraded));
}

#[test]
fn faulty_run_with_retries_converges_to_fault_free_results() {
    // Differential check: the same cluster and seed, once with a perfect
    // network and once with 15% bidirectional loss. Retransmission must
    // reconstruct the exact fault-free result rows — not approximately,
    // exactly.
    let run = |faulty: bool| {
        let mut config = ScrubConfig::default();
        config.agent_retry_base_ms = 200;
        config.window_grace_ms = 6_000;
        config.host_grace_ms = 12_000;
        let (mut sim, d, _ids) = fault_cluster(3, config);
        let qid = ScrubClient::new(&d)
            .submit(
                &mut sim,
                "select burst.k, COUNT(*) from burst @[all] \
             group by burst.k window 5 s duration 15 s",
            )
            .expect("query accepted");
        sim.run_until(SimTime::from_ms(1_500));
        if faulty {
            let agents = NodeSel::Service("BurstServers".into());
            let central = NodeSel::Host("scrub-central".into());
            sim.set_link_drop(agents.clone(), central.clone(), 0.15);
            sim.set_link_drop(central, agents, 0.15);
        }
        sim.run_until(SimTime::from_secs(40));
        if faulty {
            assert!(sim.fault_stats().dropped_random > 0, "faults never fired");
        }
        let rec = qid.record(&sim).unwrap();
        assert_eq!(rec.state, QueryState::Done);
        let mut rows: Vec<(i64, String)> = rec
            .rows
            .iter()
            .map(|r| (r.window_start_ms, format!("{:?}", r.values)))
            .collect();
        rows.sort();
        rows
    };
    let clean = run(false);
    let faulty = run(true);
    assert!(!clean.is_empty());
    assert_eq!(
        clean, faulty,
        "faulty run did not converge to fault-free rows"
    );
}

#[test]
fn shedding_bounds_shipped_volume_and_is_reported() {
    // 20k events/s against a 2k/s budget: ~90% must be shed, visibly.
    let (mut sim, d) = burst_cluster(20, 2_000);
    let qid = ScrubClient::new(&d)
        .submit(
            &mut sim,
            "select COUNT(*) from burst @[all] window 5 s duration 20 s",
        )
        .expect("query accepted");
    sim.run_until(SimTime::from_secs(40));
    let rec = qid.record(&sim).unwrap();
    let s = rec.summary.as_ref().unwrap();
    assert!(s.total_shed > 0, "no shedding under 10x overload");
    assert!(
        s.total_sampled <= 2_000 * 21,
        "budget exceeded: shipped {}",
        s.total_sampled
    );
    // matched still counts the true population, so the scaled COUNT
    // compensates for shedding
    assert_eq!(s.total_matched, s.total_sampled + s.total_shed);
    let total: f64 = rec.rows.iter().map(|r| r.values[0].as_f64().unwrap()).sum();
    // Scaled counts compensate for shedding via the cumulative
    // matched/sampled ratio at window-close time; because shedding
    // consumes each second's budget in a burst at the second's start, the
    // ratio converges over the query's life and early windows carry some
    // bias — bounded here at ~10% under a brutal 10x overload (§2:
    // accuracy is deliberately traded for host impact).
    let rel = (total - s.total_matched as f64).abs() / s.total_matched as f64;
    assert!(
        rel < 0.12,
        "scaled count {total} vs matched {}",
        s.total_matched
    );
}

#[test]
fn no_shedding_under_budget() {
    let (mut sim, d) = burst_cluster(1, 50_000);
    let qid = ScrubClient::new(&d)
        .submit(
            &mut sim,
            "select COUNT(*) from burst @[all] window 5 s duration 10 s",
        )
        .expect("query accepted");
    sim.run_until(SimTime::from_secs(30));
    let rec = qid.record(&sim).unwrap();
    let s = rec.summary.as_ref().unwrap();
    assert_eq!(s.total_shed, 0);
    assert_eq!(s.total_matched, s.total_sampled);
}

#[test]
fn queries_survive_extreme_join_fanout() {
    // one request id shared by a flood of events on both sides of a join:
    // the cross-product cap must keep central alive and results bounded
    use scrub_agent::EventBatch;
    use scrub_central::{QueryExecutor, MAX_JOIN_ROWS_PER_REQUEST};
    use scrub_core::columnar::ColumnarFrame;
    use scrub_core::event::Event;
    use scrub_core::plan::{compile, QueryId};

    let reg = SchemaRegistry::new();
    reg.register(EventSchema::new("a", vec![]).unwrap())
        .unwrap();
    reg.register(EventSchema::new("b", vec![]).unwrap())
        .unwrap();
    let spec = parse_query("select COUNT(*) from a, b window 10 s").unwrap();
    let cq = compile(&spec, &reg, &ScrubConfig::default(), QueryId(1)).unwrap();
    let mut exec = QueryExecutor::new(cq.central, 0);
    for t in 0..2u32 {
        exec.ingest(EventBatch {
            seq: 0,
            attempt: 0,
            seq_floor: 0,
            watermark_ms: None,
            query_id: QueryId(1),
            type_id: EventTypeId(t),
            host: format!("h{t}"),
            payload: ColumnarFrame::from_events(
                &(0..1000)
                    .map(|i| Event::new(EventTypeId(t), RequestId(7), i, vec![]))
                    .collect::<Vec<_>>(),
            ),
            matched: 1000,
            sampled: 1000,
            shed: 0,
            budget_shed: 0,
            seen: 1000,
            bytes: 0,
            spans: vec![],
        });
    }
    let rows = exec.advance(i64::MAX / 4);
    assert_eq!(
        rows[0].values[0].as_i64().unwrap(),
        MAX_JOIN_ROWS_PER_REQUEST as i64
    );
    assert_eq!(
        exec.join_rows_capped,
        1_000_000 - MAX_JOIN_ROWS_PER_REQUEST as u64
    );
}

#[test]
fn overlapping_query_spans_are_independent() {
    let (mut sim, d) = burst_cluster(2, 50_000);
    let q1 = ScrubClient::new(&d)
        .submit(
            &mut sim,
            "select COUNT(*) from burst @[all] window 5 s duration 10 s",
        )
        .expect("query accepted");
    // second query starts later and outlives the first
    let q2 = ScrubClient::new(&d)
        .submit(
            &mut sim,
            "select COUNT(*) from burst @[all] window 5 s start in 5 s duration 15 s",
        )
        .expect("query accepted");
    sim.run_until(SimTime::from_secs(45));
    let r1 = q1.record(&sim).unwrap();
    let r2 = q2.record(&sim).unwrap();
    assert_eq!(r1.state, QueryState::Done);
    assert_eq!(r2.state, QueryState::Done);
    let span = |r: &scrub_server::QueryRecord| {
        let min = r.rows.iter().map(|x| x.window_start_ms).min().unwrap();
        let max = r.rows.iter().map(|x| x.window_start_ms).max().unwrap();
        (min, max)
    };
    let (min1, max1) = span(r1);
    let (min2, max2) = span(r2);
    assert!(min1 < 5_000);
    assert!(max1 <= 15_000);
    assert!(min2 >= 5_000);
    assert!(max2 > max1, "q2 must outlive q1");
}

#[test]
fn wan_reordering_does_not_corrupt_counters() {
    // DC2 host: 60 ms WAN latency with size-dependent delivery means big
    // batches arrive after small ones sent later; counters must survive.
    let mut config = ScrubConfig::default();
    config.agent_batch_events = 7; // many small batches interleaved
    let mut sim: Sim<ScrubMsg> = Sim::new(Topology::default(), 6);
    let reg = registry();
    let central = deploy_central(&mut sim, &reg, config.clone(), "DC1");
    sim.add_node(
        NodeMeta::new("far-0", "BurstServers", "DC2"),
        Box::new(BurstHost {
            harness: AgentHarness::new("far-0", config.clone(), central),
            burst: 3,
            emitted: 0,
        }),
    );
    let d = deploy_server(&mut sim, reg, config, central, "DC1");
    let qid = ScrubClient::new(&d)
        .submit(
            &mut sim,
            "select COUNT(*) from burst @[all] window 5 s duration 15 s",
        )
        .expect("query accepted");
    sim.run_until(SimTime::from_secs(40));
    let rec = qid.record(&sim).unwrap();
    let s = rec.summary.as_ref().unwrap();
    let total: i64 = rec.rows.iter().map(|r| r.values[0].as_i64().unwrap()).sum();
    assert_eq!(total as u64, s.total_sampled, "rows disagree with counters");
    assert_eq!(s.total_matched, s.total_sampled);
}

#[test]
fn sliding_window_end_to_end() {
    let (mut sim, d) = burst_cluster(1, 50_000);
    let qid = ScrubClient::new(&d)
        .submit(
            &mut sim,
            "select COUNT(*) from burst @[all] window 10 s slide 5 s duration 20 s",
        )
        .expect("query accepted");
    sim.run_until(SimTime::from_secs(45));
    let rec = qid.record(&sim).unwrap();
    assert_eq!(rec.state, QueryState::Done);
    // window starts every 5 s, each counting ~10 s of traffic at ~1000/s
    let starts: Vec<i64> = rec.rows.iter().map(|r| r.window_start_ms).collect();
    assert!(starts.windows(2).all(|w| w[1] - w[0] == 5_000));
    let mid_counts: Vec<i64> = rec
        .rows
        .iter()
        .filter(|r| r.window_start_ms >= 5_000 && r.window_start_ms <= 10_000)
        .map(|r| r.values[0].as_i64().unwrap())
        .collect();
    for c in mid_counts {
        assert!((9_000..=11_000).contains(&c), "mid-window count {c}");
    }
}
