//! Closing windows on host watermarks must change *when* a row comes out
//! and nothing else.
//!
//! Every test here runs the same seeded cluster twice: once as deployed,
//! and once behind a ScrubCentral that is deaf to watermarks — a wrapper
//! node strips the mark off every arriving batch, which leaves the grace
//! fallback as the only way a window closes. The hosts cannot tell the
//! twins apart, so both see the same batches, the same acks and the same
//! fault schedule. The application traffic is a pure function of simulated
//! time, so it does not depend on Scrub either.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use scrub_agent::RetryPolicy;
use scrub_core::config::ScrubConfig;
use scrub_core::event::RequestId;
use scrub_core::plan::DEFAULT_WINDOW_MS;
use scrub_core::schema::{EventSchema, EventTypeId, FieldDef, FieldType, SchemaRegistry};
use scrub_core::value::Value;
use scrub_obs::FlightEventKind;
use scrub_server::{
    deploy_server, AgentHarness, CentralNode, QueryHandle, QueryState, ScrubClient, ScrubMsg,
    SCRUB_CENTRAL_SERVICE,
};
use scrub_simnet::{
    Context, FaultPlan, Node, NodeId, NodeMeta, NodeSel, Sim, SimDuration, SimTime, Topology,
};

const APP_TIMER: u64 = 1;
const FRONTS: u64 = 4;
const BACKS: u64 = 2;

/// Logs two events of its type every millisecond. Request ids and values
/// derive from the clock alone, so `front-i`'s `req` events pair up with
/// `back-i`'s `resp` events, and a host that was down for a while comes
/// back in step with a twin that never was.
struct Emitter {
    harness: AgentHarness,
    type_id: u32,
    lane: u64,
}

impl Node<ScrubMsg> for Emitter {
    fn on_start(&mut self, ctx: &mut Context<'_, ScrubMsg>) {
        self.harness.start(ctx);
        ctx.set_timer(SimDuration::from_ms(1), APP_TIMER);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, ScrubMsg>, _from: NodeId, msg: ScrubMsg) {
        let _ = self.harness.on_message(ctx, msg);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, ScrubMsg>, timer: u64) {
        if self.harness.on_timer(ctx, timer) {
            return;
        }
        let now = ctx.now.as_ms();
        for n in 0..2 {
            self.harness.agent().log(
                EventTypeId(self.type_id),
                RequestId((now as u64 * 2 + n) * 16 + self.lane),
                now,
                &[Value::Long(now % 10)],
            );
        }
        ctx.set_timer(SimDuration::from_ms(1), APP_TIMER);
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// ScrubCentral with the watermark taken off every batch before it sees
/// it. Downcasts reach the node inside, so query handles work unchanged.
struct DeafCentral(CentralNode<ScrubMsg>);

impl Node<ScrubMsg> for DeafCentral {
    fn on_start(&mut self, ctx: &mut Context<'_, ScrubMsg>) {
        self.0.on_start(ctx);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, ScrubMsg>, from: NodeId, msg: ScrubMsg) {
        let msg = match msg {
            ScrubMsg::Batch(mut batch) => {
                batch.watermark_ms = None;
                ScrubMsg::Batch(batch)
            }
            other => other,
        };
        self.0.on_message(ctx, from, msg);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, ScrubMsg>, timer: u64) {
        self.0.on_timer(ctx, timer);
    }

    fn as_any(&self) -> &dyn std::any::Any {
        &self.0
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        &mut self.0
    }
}

fn registry() -> Arc<SchemaRegistry> {
    let reg = SchemaRegistry::new();
    for name in ["req", "resp"] {
        reg.register(EventSchema::new(name, vec![FieldDef::new("k", FieldType::Long)]).unwrap())
            .unwrap();
    }
    Arc::new(reg)
}

fn test_config() -> ScrubConfig {
    ScrubConfig {
        agent_retry_base_ms: 200,
        ..ScrubConfig::default()
    }
}

/// The hosts' retransmit policy as `test_config` sets it.
fn test_retry() -> RetryPolicy {
    RetryPolicy {
        base_ms: test_config().agent_retry_base_ms,
        ..RetryPolicy::default()
    }
}

/// `FRONTS` hosts logging `req` and `BACKS` logging `resp`, alternating
/// between two data centers, around one ScrubCentral — deaf or not. The
/// hosts retransmit on `retry`.
fn cluster(config: &ScrubConfig, retry: RetryPolicy, deaf: bool) -> (Sim<ScrubMsg>, ScrubClient) {
    let mut sim: Sim<ScrubMsg> = Sim::new(Topology::default(), 11);
    let reg = registry();
    let node = CentralNode::<ScrubMsg>::new(config.clone(), reg.clone());
    let central = sim.add_node(
        NodeMeta::new("scrub-central", SCRUB_CENTRAL_SERVICE, "DC1"),
        match deaf {
            true => Box::new(DeafCentral(node)),
            false => Box::new(node),
        },
    );
    let hosts = (0..FRONTS)
        .map(|lane| ("front", "Front", 0, lane))
        .chain((0..BACKS).map(|lane| ("back", "Back", 1, lane)));
    for (prefix, service, type_id, lane) in hosts {
        let name = format!("{prefix}-{lane}");
        let dc = if lane % 2 == 0 { "DC1" } else { "DC2" };
        sim.add_node(
            NodeMeta::new(name.clone(), service, dc),
            Box::new(Emitter {
                harness: AgentHarness::new(name, config.clone(), central).with_retry(retry),
                type_id,
                lane,
            }),
        );
    }
    let d = deploy_server(&mut sim, reg, config.clone(), central, "DC1");
    (sim, ScrubClient::new(&d))
}

/// Three unsampled queries — a grouped count, a two-host join whose every
/// host carries one subscription that never matches, a filtered
/// single-host count — and one under host and event sampling.
const UNSAMPLED: [&str; 3] = [
    "select req.k, COUNT(*) from req @[Service in Front] \
     group by req.k window 1 s duration 12 s",
    "select COUNT(*), SUM(resp.k) from req, resp where req.k < 5 @[all] \
     window 1 s duration 12 s",
    "select COUNT(*) from resp where resp.k = 3 @[Server = 'back-1'] \
     window 1 s duration 12 s",
];
const SAMPLED: &str = "select SUM(req.k) from req @[Service in Front] \
     sample hosts 50% events 50% window 1 s duration 12 s";

/// What one run leaves behind for one query.
struct Outcome {
    /// `(window start, rendered values, degraded)`, ordered.
    rows: Vec<(i64, String, bool)>,
    /// Events ScrubCentral dropped because their window had closed.
    late: u64,
    /// `(window start, close time - window end, rule)` of every window the
    /// query ran the whole length of. (The hosts stop inside the last one,
    /// announcing no further than that; it falls to the grace, or to the
    /// end of the drain.)
    closes: Vec<(i64, i64, String)>,
    /// The summary's Eq 1-3 `(estimate, bound)` for the first column, and
    /// that column summed over the rows.
    estimate: Option<(f64, f64)>,
    total: f64,
}

impl Outcome {
    fn values(&self) -> Vec<(i64, &str)> {
        self.rows.iter().map(|(w, v, _)| (*w, v.as_str())).collect()
    }

    /// Same windows, same values, whatever the degraded flags say.
    fn assert_same_values(&self, other: &Outcome, what: &str) {
        let (ours, theirs) = (self.values(), other.values());
        let differing = ours.iter().zip(&theirs).find(|(a, b)| a != b);
        assert_eq!(differing, None, "{what}: first differing row");
        assert_eq!(ours.len(), theirs.len(), "{what}: row count");
    }
}

fn outcome(sim: &Sim<ScrubMsg>, q: QueryHandle, duration_ms: i64) -> Outcome {
    assert_eq!(q.state(sim), Some(QueryState::Done));
    let mut rows: Vec<(i64, String, bool)> = q
        .results(sim)
        .iter()
        .map(|r| (r.window_start_ms, format!("{:?}", r.values), r.degraded))
        .collect();
    rows.sort();
    let profile = q.plan_profile(sim).expect("plan profile");
    let decode = profile
        .ops
        .iter()
        .find(|op| op.label.starts_with("decode"))
        .expect("decode operator");
    let ledger = q.loss_ledger(sim).expect("loss ledger");
    assert!(ledger.reconciles(), "ledger of query {:?}", q.id());
    let (timeline, evicted) = q.timeline(sim).expect("timeline");
    assert_eq!(evicted, 0, "journal too small for the test");
    let field = |detail: &str, key: &str| -> String {
        let rest = &detail[detail.find(key).expect(key) + key.len()..];
        rest.split(' ').next().unwrap().to_string()
    };
    let closes = timeline
        .iter()
        .filter(|e| {
            matches!(
                e.kind,
                FlightEventKind::WindowClose | FlightEventKind::WindowDegrade
            )
        })
        .map(|e| {
            let start: i64 = field(&e.detail, "start=").parse().unwrap();
            (start, e.at_ms - (start + 1_000), field(&e.detail, "by="))
        })
        .filter(|(start, _, _)| start + 1_000 <= duration_ms)
        .collect();
    let summary = q.summary(sim).expect("summary");
    Outcome {
        rows,
        late: decode.rows_in - decode.rows_out,
        closes,
        estimate: summary.estimates[0].map(|e| (e.estimate, e.error_bound)),
        total: q
            .results(sim)
            .iter()
            .filter_map(|r| r.values[0].as_f64())
            .sum(),
    }
}

/// Submit the four queries, run the cluster to the end and collect what
/// each left, in submission order (the sampled one last). `faults` are
/// installed once the queries are, so every host runs every query.
fn run(
    config: &ScrubConfig,
    retry: RetryPolicy,
    deaf: bool,
    faults: Option<FaultPlan>,
) -> Vec<Outcome> {
    let (mut sim, client) = cluster(config, retry, deaf);
    let handles: Vec<QueryHandle> = UNSAMPLED
        .iter()
        .chain([&SAMPLED])
        .map(|src| client.submit(&mut sim, src).expect("query accepted"))
        .collect();
    sim.run_until(SimTime::from_ms(900));
    if let Some(plan) = faults {
        sim.set_fault_plan(plan);
    }
    sim.run_until(SimTime::from_secs(40));
    handles.iter().map(|q| outcome(&sim, *q, 12_000)).collect()
}

#[test]
fn fault_free_twins_differ_only_in_when_rows_come_out() {
    let config = test_config();
    let marked = run(&config, test_retry(), false, None);
    let deaf = run(&config, test_retry(), true, None);
    for (n, (m, d)) in marked.iter().zip(&deaf).enumerate() {
        assert_eq!((m.late, d.late), (0, 0), "late events, query {n}");
        assert!(m
            .rows
            .iter()
            .chain(&d.rows)
            .all(|(_, _, degraded)| !degraded));
        assert!(m.rows.len() >= 11, "query {n}: {} rows", m.rows.len());
        // every window of the marked twin closed on its watermarks, well
        // inside the grace; every window of the deaf twin waited it out,
        // and no longer
        assert!(!m.closes.is_empty() && m.closes.len() == d.closes.len());
        for (start, lag, rule) in &m.closes {
            assert_eq!(rule, "watermark", "query {n} window {start}");
            assert!(*lag < config.window_grace_ms / 4, "query {n}: lag {lag}");
        }
        for (start, lag, rule) in &d.closes {
            assert_eq!(rule, "grace", "query {n} window {start}");
            assert_eq!(*lag, config.window_grace_ms, "query {n} window {start}");
        }
    }
    for (n, (m, d)) in marked.iter().zip(&deaf).take(UNSAMPLED.len()).enumerate() {
        m.assert_same_values(d, &format!("unsampled query {n}"));
    }
    // A sampled window is scaled by the header totals known when it
    // closes, so its rows move with the closing time; each twin's total
    // must sit inside the other's reported Eq 1-3 interval.
    let (m, d) = (marked.last().unwrap(), deaf.last().unwrap());
    let (m_est, m_bound) = m.estimate.expect("estimate under sampling");
    let (d_est, d_bound) = d.estimate.expect("estimate under sampling");
    assert!(m_bound.is_finite() && d_bound.is_finite());
    assert!(
        (m.total - d_est).abs() <= d_bound,
        "marked total {} vs deaf {d_est} ± {d_bound}",
        m.total
    );
    assert!(
        (d.total - m_est).abs() <= m_bound,
        "deaf total {} vs marked {m_est} ± {m_bound}",
        d.total
    );
}

/// A retransmit buffer far too small for a flush's burst evicts batches
/// the moment they are sent — batches a healthy network then delivers.
/// Evicted is not lost: none of them may be stepped over while a copy is
/// on its way.
#[test]
fn a_full_retransmit_buffer_on_a_healthy_network_loses_nothing() {
    let config = test_config();
    let cramped = RetryPolicy {
        buffer_cap: 2,
        ..test_retry()
    };
    let want = run(&config, test_retry(), false, None);
    let got = run(&config, cramped, false, None);
    for (n, (want, got)) in want.iter().zip(&got).take(UNSAMPLED.len()).enumerate() {
        assert_eq!(got.late, 0, "query {n}");
        got.assert_same_values(want, &format!("query {n}"));
        assert!(got.closes.iter().all(|(_, _, rule)| rule == "watermark"));
    }
}

/// 15% loss both ways between hosts and ScrubCentral with up to 300 ms of
/// jitter on the way in, and `front-1` down from 3.3 s to 8 s.
fn chaos() -> FaultPlan {
    let hosts = |svc: &str| NodeSel::Service(svc.into());
    let central = || NodeSel::Host("scrub-central".into());
    let mut plan = FaultPlan::new(77).crash(
        "front-1",
        SimTime::from_ms(3_300),
        Some(SimTime::from_ms(8_000)),
    );
    for svc in ["Front", "Back"] {
        plan = plan
            .drop(hosts(svc), central(), 0.15)
            .drop(central(), hosts(svc), 0.15)
            .jitter(
                hosts(svc),
                central(),
                SimTime::ZERO,
                SimTime::from_secs(60),
                0,
                300_000,
            );
    }
    plan
}

#[test]
fn faulted_twins_agree_and_watermarks_lose_nothing_the_grace_keeps() {
    let config = ScrubConfig {
        window_grace_ms: 6_000,
        // quicker than the grace, so a window the dead host misses closes
        // marked
        host_grace_ms: 2_000,
        ..test_config()
    };
    let clean = run(&config, test_retry(), false, None);
    let marked = run(&config, test_retry(), false, Some(chaos()));
    let deaf = run(&config, test_retry(), true, Some(chaos()));
    // front-1's application logs nothing while it is down, so the windows
    // from the one it dies in to the one it returns in differ from the
    // clean run whatever Scrub does
    let outage = 3_000..=8_000;
    let mut by_watermark = 0;
    for n in 0..UNSAMPLED.len() {
        let (c, m, d) = (&clean[n], &marked[n], &deaf[n]);
        // a batch lost and retransmitted holds its host's watermark back:
        // nothing arrives late that the grace alone would have waited for
        assert!(m.late <= d.late, "query {n}: late {} vs {}", m.late, d.late);
        m.assert_same_values(d, &format!("query {n}, marked vs deaf"));
        let clean_rows: BTreeMap<i64, BTreeSet<&str>> =
            c.rows.iter().fold(BTreeMap::new(), |mut acc, (w, v, _)| {
                acc.entry(*w).or_default().insert(v);
                acc
            });
        for (twin, rows) in [("marked", &m.rows), ("deaf", &d.rows)] {
            for (w, values, degraded) in rows {
                let same = clean_rows
                    .get(w)
                    .is_some_and(|c| c.contains(values.as_str()));
                // loss and jitter alone cost nothing: retransmission
                // rebuilds the clean rows exactly
                assert!(
                    same || outage.contains(w),
                    "query {n} {twin} window {w}: {values} not in the clean run"
                );
                // What the outage did cost, the marked twin flags: a
                // window front-1 was down in waits for its watermark, which
                // comes with its first batch back, the failure detector
                // still holding it dead. (The window it returns in is short
                // of the clean run by the instant of the restart alone —
                // nothing Scrub lost — and closes after the detector has
                // let go.)
                if twin == "marked" && !same && *w < 8_000 {
                    assert!(degraded, "query {n} window {w} differs unmarked");
                }
            }
        }
        for (start, lag, _) in m.closes.iter().chain(&d.closes) {
            assert!(
                *lag <= config.window_grace_ms,
                "query {n} window {start}: lag {lag}"
            );
        }
        by_watermark += m.closes.iter().filter(|(_, _, r)| r == "watermark").count();
        assert!(d.closes.iter().all(|(_, _, rule)| rule == "grace"));
    }
    assert!(by_watermark >= 20, "{by_watermark} closes on watermarks");
}

/// One of two hosts dies for good: its watermark stops, and every window
/// after falls to the grace — on a timer of its own, not on the
/// housekeeping tick.
#[test]
fn a_dead_host_costs_each_window_the_grace_and_no_more() {
    let config = test_config();
    let (mut sim, client) = cluster(&config, test_retry(), false);
    let q = client
        .submit(
            &mut sim,
            "select COUNT(*) from resp @[Service in Back] window 1 s duration 20 s",
        )
        .expect("query accepted");
    assert!(sim.inject_crash("back-1", SimTime::from_ms(2_500), None));
    sim.run_until(SimTime::from_secs(50));
    let out = outcome(&sim, q, 20_000);
    let after: Vec<_> = out.closes.iter().filter(|(w, _, _)| *w >= 2_000).collect();
    assert!(after.len() >= 15, "{} closes after the crash", after.len());
    for (start, lag, rule) in &after {
        assert_eq!(rule, "grace", "window {start}");
        assert_eq!(*lag, config.window_grace_ms, "window {start}");
    }
    // the failure detector needs host_grace_ms plus a tick; from then on
    // every row says so
    let marked_from = 2_500 + config.host_grace_ms + DEFAULT_WINDOW_MS / 4;
    assert!(out
        .rows
        .iter()
        .filter(|(w, _, _)| w + 1_000 + config.window_grace_ms >= marked_from)
        .all(|(_, _, degraded)| *degraded));
    assert!(out.rows.iter().any(|(_, _, degraded)| !degraded));
}

/// A partition longer than a two-batch retransmit buffer can bridge: the
/// batches evicted meanwhile never arrive, and must not leave the host
/// behind a gap — and on the grace — for the rest of the query.
#[test]
fn evicted_batches_do_not_pin_a_host_to_the_grace() {
    let config = ScrubConfig {
        host_grace_ms: 60_000,
        ..test_config()
    };
    let retry = RetryPolicy {
        buffer_cap: 2,
        // how long an evicted batch holds the floor, waiting for an ack of
        // the copies already sent
        max_ms: 1_000,
        ..test_retry()
    };
    let (mut sim, client) = cluster(&config, retry, false);
    let q = client
        .submit(
            &mut sim,
            "select COUNT(*) from resp @[Service in Back] window 1 s duration 20 s",
        )
        .expect("query accepted");
    sim.add_partition(
        NodeSel::Host("back-1".into()),
        NodeSel::Host("scrub-central".into()),
        SimTime::from_ms(3_500),
        SimTime::from_ms(9_500),
    );
    sim.run_until(SimTime::from_secs(50));
    assert!(sim.fault_stats().dropped_partition > 0);
    let out = outcome(&sim, q, 20_000);
    let back_1 = sim.node_by_name("back-1").expect("back-1");
    let evictions = sim
        .node_as::<Emitter>(back_1)
        .unwrap()
        .harness
        .agent()
        .stats()
        .snapshot()
        .retransmit_evictions;
    assert!(evictions > 0, "the buffer never overflowed");
    let rule_of = |w: i64| {
        let (_, _, rule) = out.closes.iter().find(|(start, _, _)| *start == w).unwrap();
        rule.as_str()
    };
    // cut off, back-1 vouches for nothing
    assert_eq!(rule_of(5_000), "grace");
    // healed, its first batch through names the lowest sequence number it
    // still waits on: central steps over the ones evicted and given up on,
    // and watermarks close windows again
    for w in (12_000..19_000).step_by(1_000) {
        assert_eq!(rule_of(w), "watermark", "window {w}");
    }
}
