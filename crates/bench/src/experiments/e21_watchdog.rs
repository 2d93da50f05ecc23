//! E21 — the watchdog: Scrub monitoring Scrub (self-observability; no
//! paper figure).
//!
//! The health plane (PR 9) must *detect* the failure modes earlier
//! experiments only measured. This experiment replays two of them and
//! asserts the default alert rules fire — with provenance a
//! troubleshooter can actually follow — while a fault-free twin stays
//! silent:
//!
//! - **chaos** (E16's scenario): message loss + a DC partition + one
//!   BidServer crashed for good. Expect `host_dead` (the suspected-host
//!   gauge) and `retransmit_storm` (per-interval retransmit deltas) to
//!   fire, the former pointing at a ledger row whose `host_dead` flag is
//!   set, the latter carrying a sampled trace request id whose lifecycle
//!   really contains a Retransmit span.
//! - **overload** (E20's protected ramp): admission control + host
//!   budgets + a tight `max_groups`. Expect `envelope_breach` (budget
//!   shed burn rate) and `groups_overflow` to fire, each resolving to a
//!   query whose ledger/summary shows the attributed loss.
//!
//! Determinism is part of the contract: the chaos run's alert log and
//! flight-recorder timeline must render byte-identically across two
//! runs. Results land in `BENCH_watchdog.json` at the workspace root (CI validates the schema
//! and that the clean twin fired zero alerts).

use adplatform::PlatformMsg;
use scrub_core::config::AdmissionPolicy;
use scrub_core::plan::QueryId;
use scrub_obs::{render_timeline, AlertEvent, AlertEventKind, SpanKind};
use scrub_server::{CentralNode, QueryHandle, QueryState, ScrubClient};
use scrub_simnet::{SimDuration, SimTime};

use super::e07_cpu_overhead::busy_config;
use crate::{Report, Table};

/// What one run's health plane recorded.
struct Observed {
    /// FIRED events, in log order.
    fired: Vec<AlertEvent>,
    /// ANOMALY events flagged by the z-score detector.
    anomalies: usize,
    /// Byte-stable render of the full alert log.
    alert_render: String,
    /// Byte-stable render of the probe query's flight recorder.
    timeline_render: String,
}

/// Scenario-specific provenance verdicts (checked while the platform is
/// still alive, since they chase ledgers/traces through handles).
#[derive(Default)]
struct ProvChecks {
    /// `host_dead`'s provenance host has `host_dead` set in the ledger.
    host_dead_ok: bool,
    /// `retransmit_storm`'s trace rid resolves to a Retransmit span.
    retransmit_rid_ok: bool,
    /// `envelope_breach` points at a host with ledger `budget_shed > 0`.
    envelope_ok: bool,
    /// `groups_overflow` points at a query whose summary overflowed.
    groups_ok: bool,
}

fn rules_of(o: &Observed) -> Vec<&str> {
    let mut rules: Vec<&str> = o.fired.iter().map(|e| e.rule.as_str()).collect();
    rules.sort();
    rules.dedup();
    rules
}

/// Snapshot the central node's alert log and one query's timeline.
fn observe(p: &adplatform::Platform, probe: QueryHandle) -> Observed {
    let central = p
        .sim
        .node_as::<CentralNode<PlatformMsg>>(p.scrub.central)
        .expect("central node");
    let engine = central.alert_engine();
    let fired: Vec<AlertEvent> = engine
        .log()
        .events()
        .filter(|e| e.kind == AlertEventKind::Fired)
        .cloned()
        .collect();
    let anomalies = engine
        .log()
        .events()
        .filter(|e| e.kind == AlertEventKind::Anomaly)
        .count();
    let alert_render = engine.log().render();
    let (events, dropped) = probe.timeline(&p.sim).unwrap_or_default();
    let timeline_render = render_timeline(probe.id().0, &events, dropped);
    Observed {
        fired,
        anomalies,
        alert_render,
        timeline_render,
    }
}

/// Chase each fired alert's provenance back to the evidence it claims.
fn check_provenance(p: &adplatform::Platform, fired: &[AlertEvent]) -> ProvChecks {
    let mut c = ProvChecks::default();
    for ev in fired {
        let Some(qid) = ev.provenance.query_id else {
            continue;
        };
        let h = QueryHandle::from_id(&p.scrub, QueryId(qid));
        match ev.rule.as_str() {
            "host_dead" => {
                if let (Some(host), Some(ledger)) =
                    (ev.provenance.host.as_ref(), h.loss_ledger(&p.sim))
                {
                    c.host_dead_ok |= ledger.hosts.get(host).is_some_and(|l| l.host_dead);
                }
            }
            "retransmit_storm" => {
                if let (Some(rid), Some(store)) = (ev.provenance.trace_rid, h.traces(&p.sim)) {
                    c.retransmit_rid_ok |= store
                        .trace(rid)
                        .is_some_and(|spans| spans.iter().any(|s| s.kind == SpanKind::Retransmit));
                }
            }
            "envelope_breach" => {
                if let (Some(host), Some(ledger)) =
                    (ev.provenance.host.as_ref(), h.loss_ledger(&p.sim))
                {
                    c.envelope_ok |= ledger.hosts.get(host).is_some_and(|l| l.budget_shed > 0);
                }
            }
            "groups_overflow" => {
                c.groups_ok |= h.summary(&p.sim).is_some_and(|s| s.groups_overflow > 0);
            }
            _ => {}
        }
    }
    c
}

/// One chaos (or fault-free twin) run: E16's scenario with tracing on,
/// watched by the default alert rules.
fn run_chaos(faults: bool, minutes: i64) -> (Observed, ProvChecks) {
    let mut cfg = adplatform::scenario::spam_under_chaos();
    if !faults {
        cfg.faults = None;
    }
    cfg.scrub.trace_sample_rate = 0.05;
    let mut p = adplatform::build_platform(cfg);
    let q = ScrubClient::new(&p.scrub)
        .submit(
            &mut p.sim,
            &format!(
                "select bid.user_id, COUNT(*) from bid @[Service in BidServers] \
                 group by bid.user_id window 10 s duration {minutes} m"
            ),
        )
        .expect("query accepted");
    p.sim.run_until(SimTime::from_secs(minutes * 60 + 60));
    let obs = observe(&p, q);
    let prov = check_provenance(&p, &obs.fired);
    (obs, prov)
}

/// One protected-overload run: E20's ramp with admission control, host
/// budgets and a tight group bound, watched by the default alert rules.
fn run_overload(quick: bool) -> (Observed, ProvChecks) {
    let duration_secs: i64 = if quick { 45 } else { 70 };
    let mut cfg = busy_config(quick);
    // E20's envelope-breaking shape: one DC concentrates per-host rates,
    // and a block of never-matching line items adds pure filter load so
    // the budget tracker actually has to shed.
    cfg.dcs = vec!["DC1".into()];
    let extra: Vec<adplatform::LineItem> = (0..180u64)
        .map(|i| {
            let mut li = adplatform::LineItem::new(3000 + i, 300 + i / 6, 0.3);
            li.targeting.segment = Some((i % 8) as u32);
            li.targeting.countries = vec!["zz".into()];
            li
        })
        .collect();
    cfg.line_items.extend(extra);
    cfg.scrub.admission = AdmissionPolicy::Evict;
    cfg.scrub.admission_events_per_host_per_sec = 20_000.0;
    cfg.scrub.max_groups = 64;
    let mut p = adplatform::build_platform(cfg);
    let client = ScrubClient::new(&p.scrub);
    let mut handles: Vec<QueryHandle> = Vec::new();
    for i in 0..20usize {
        let src = format!(
            "{} window 10 s duration {duration_secs} s",
            super::e20_overload::RAMP_QUERIES[i % super::e20_overload::RAMP_QUERIES.len()]
        );
        if let Ok(h) = client.submit(&mut p.sim, &src) {
            handles.push(h);
        }
    }
    let deadline = p.sim.now() + SimDuration::from_secs(duration_secs + 120);
    while p.sim.now() < deadline
        && handles
            .iter()
            .any(|h| h.state(&p.sim) != Some(QueryState::Done))
    {
        let step_to = p.sim.now() + SimDuration::from_secs(5);
        p.sim.run_until(step_to);
    }
    let probe = *handles.first().expect("at least one query admitted");
    let obs = observe(&p, probe);
    let prov = check_provenance(&p, &obs.fired);
    (obs, prov)
}

/// Run E21.
pub fn run(quick: bool) -> Report {
    let minutes = if quick { 3 } else { 5 };

    let (chaos, chaos_prov) = run_chaos(true, minutes);
    let (chaos_again, _) = run_chaos(true, minutes);
    let (clean, _) = run_chaos(false, minutes);
    let (overload, overload_prov) = run_overload(quick);

    let byte_stable = chaos.alert_render == chaos_again.alert_render
        && chaos.timeline_render == chaos_again.timeline_render;

    let mut t = Table::new(&["run", "alerts_fired", "rules", "anomalies"]);
    for (name, o) in [
        ("chaos", &chaos),
        ("chaos (clean twin)", &clean),
        ("overload (protected)", &overload),
    ] {
        t.row(vec![
            name.to_string(),
            o.fired.len().to_string(),
            rules_of(o).join(","),
            o.anomalies.to_string(),
        ]);
    }

    write_bench_json(quick, &chaos, &clean, &overload, byte_stable);

    let chaos_rules = rules_of(&chaos);
    let overload_rules = rules_of(&overload);
    let chaos_detected =
        chaos_rules.contains(&"host_dead") && chaos_rules.contains(&"retransmit_storm");
    let overload_detected =
        overload_rules.contains(&"envelope_breach") && overload_rules.contains(&"groups_overflow");
    let provenance_ok = chaos_prov.host_dead_ok
        && chaos_prov.retransmit_rid_ok
        && overload_prov.envelope_ok
        && overload_prov.groups_ok;
    let clean_silent = clean.fired.is_empty();
    let journal_complete = ["dispatched", "window_close", "retransmit", "host_dead"]
        .iter()
        .all(|k| chaos.timeline_render.contains(k));

    let pass = chaos_detected
        && overload_detected
        && provenance_ok
        && clean_silent
        && byte_stable
        && journal_complete;
    Report {
        id: "E21",
        title: "Watchdog: the health plane detects chaos and overload (self-observability)",
        paper: "a troubleshooter for production systems must troubleshoot itself: the \
                default alert rules detect the E16 chaos (host_dead, retransmit_storm) \
                and the E20 overload (envelope_breach, groups_overflow) with provenance \
                that resolves to real ledger rows and trace ids, a fault-free twin stays \
                silent, and the alert log + flight recorder render deterministically \
                across runs",
        body: t.to_string(),
        pass,
        verdict: format!(
            "chaos fired [{}] (prov ok: {}), overload fired [{}] (prov ok: {}), \
             clean twin fired {}, byte-stable {byte_stable}",
            chaos_rules.join(","),
            chaos_prov.host_dead_ok && chaos_prov.retransmit_rid_ok,
            overload_rules.join(","),
            overload_prov.envelope_ok && overload_prov.groups_ok,
            clean.fired.len(),
        ),
    }
}

/// Persist the runs as `BENCH_watchdog.json` at the workspace root (CI
/// validates this schema and the clean twin's silence).
fn write_bench_json(
    quick: bool,
    chaos: &Observed,
    clean: &Observed,
    overload: &Observed,
    byte_stable: bool,
) {
    let opt_u64 = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
    let opt_str = |v: Option<&String>| v.map_or("null".to_string(), |s| format!("{s:?}"));
    let alert_json = |ev: &AlertEvent| {
        format!(
            "        {{ \"rule\": {:?}, \"metric\": {:?}, \"fired_at_ms\": {}, \
             \"value\": {}, \"provenance\": {{ \"query_id\": {}, \"host\": {}, \
             \"ledger_column\": {}, \"trace_rid\": {} }} }}",
            ev.rule,
            ev.metric,
            ev.at_ms,
            ev.value,
            opt_u64(ev.provenance.query_id),
            opt_str(ev.provenance.host.as_ref()),
            opt_str(ev.provenance.ledger_column.as_ref()),
            opt_u64(ev.provenance.trace_rid),
        )
    };
    let run_json = |name: &str, o: &Observed| {
        let alerts: Vec<String> = o.fired.iter().map(alert_json).collect();
        let alerts = if alerts.is_empty() {
            "[]".to_string()
        } else {
            format!("[\n{}\n      ]", alerts.join(",\n"))
        };
        format!(
            "    {{\n      \"name\": {name:?},\n      \"alerts_fired\": {},\n      \
             \"anomalies\": {},\n      \"alerts\": {alerts}\n    }}",
            o.fired.len(),
            o.anomalies,
        )
    };
    let doc = format!(
        "{{\n  \"bench\": \"watchdog\",\n  \"experiment\": \"E21\",\n  \
         \"workload\": \"E16 chaos + E20 protected overload, watched by the default alert rules\",\n  \
         \"quick\": {quick},\n  \"byte_stable\": {byte_stable},\n  \
         \"clean_alerts_fired\": {},\n  \"runs\": [\n{},\n{},\n{}\n  ]\n}}\n",
        clean.fired.len(),
        run_json("chaos", chaos),
        run_json("chaos_clean", clean),
        run_json("overload_protected", overload),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_watchdog.json");
    if let Err(e) = std::fs::write(path, doc) {
        eprintln!("E21: could not write {path}: {e}");
    }
}
