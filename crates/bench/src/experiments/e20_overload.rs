//! E20 — overload protection (§2's host-impact contract, stress-tested).
//! Ramps far more concurrent queries onto the busy bidding workload than
//! the ≤2.5 % per-host CPU envelope can absorb, twice:
//!
//! - **unprotected**: admission off, budget enforcement off — every query
//!   runs and the measured per-host CPU (E07 method: agent work through
//!   the calibrated cost model over a steady-state interval) breaks the
//!   envelope;
//! - **protected**: cost-model admission control (`Evict` policy) caps
//!   the fleet of admitted queries, the agent's per-second budget tracker
//!   sheds tap work past the envelope (`budget_shed` provenance), and a
//!   tight `max_groups` bounds central group state (`groups_overflow`).
//!   The envelope holds, and every loss is still attributed: the ledgers
//!   reconcile exactly.
//!
//! Results land in `BENCH_overload.json` at the workspace root (CI
//! validates the schema): per-phase admitted/rejected/evicted counts,
//! measured host CPU, shed counts by provenance, and reconciliation.

use adplatform::PlatformMsg;
use scrub_agent::CostModel;
use scrub_core::config::AdmissionPolicy;
use scrub_server::{AdmissionVerdict, QueryHandle, QueryServerNode, QueryState, ScrubClient};
use scrub_simnet::SimDuration;

use super::e07_cpu_overhead::busy_config;
use crate::{Report, Table};

/// Query templates ramped in both phases (cycled until `n` submissions).
/// Deliberately heavier than E07's mix: two high-cardinality group-bys
/// (user ids; exclusion fan-out) so central group state is exercised too.
pub(crate) const RAMP_QUERIES: &[&str] = &[
    "select bid.user_id, COUNT(*) from bid group by bid.user_id @[Service in BidServers]",
    "select COUNT(*) from exclusion @[Service in AdServers]",
    "select impression.exchange_id, COUNT(*) from impression \
     group by impression.exchange_id @[Service in PresentationServers]",
    "select exclusion.reason, COUNT(*) from exclusion \
     group by exclusion.reason @[Service in AdServers]",
    "select AVG(bid.bid_price) from bid @[Service in BidServers]",
    "select COUNT(*) from auction where auction.winner_price > 0.5 @[Service in AdServers]",
];

/// Everything one phase of the ramp produced.
struct PhaseOut {
    max_cpu_pct: f64,
    admitted: usize,
    rejected: usize,
    evicted: usize,
    degraded_admits: usize,
    delivered: u64,
    sampled_out: u64,
    load_shed: u64,
    budget_shed: u64,
    batch_dropped: u64,
    groups_overflow: u64,
    ledgers: usize,
    ledgers_reconcile: bool,
}

/// Run one phase: build a fresh platform (same seed/workload), submit
/// `n_queries`, measure steady-state host CPU, run the spans out, and
/// collect admission decisions plus provenance-attributed losses.
fn run_phase(protected: bool, n_queries: usize, quick: bool) -> PhaseOut {
    let measure_secs: i64 = if quick { 15 } else { 40 };
    let duration_secs = measure_secs + 30;
    let mut cfg = busy_config(quick);
    // Concentrate the fleet: one DC (doubling per-host rates without
    // adding simulated events) and a 4x exclusion fan-out, so the ramp
    // actually breaks the envelope on the hottest host.
    cfg.dcs = vec!["DC1".into()];
    let extra: Vec<adplatform::LineItem> = (0..180u64)
        .map(|i| {
            let mut li = adplatform::LineItem::new(3000 + i, 300 + i / 6, 0.3);
            li.targeting.segment = Some((i % 8) as u32);
            li.targeting.countries = vec!["zz".into()]; // never passes: pure filter load
            li
        })
        .collect();
    cfg.line_items.extend(extra);
    if protected {
        // Evict admission also has every agent enforce the host budget.
        cfg.scrub.admission = AdmissionPolicy::Evict;
        // Price admissions at roughly the workload's per-host event rate;
        // the agent-side budget tracker catches whatever the estimate
        // misses, so the two layers jointly hold the envelope.
        cfg.scrub.admission_events_per_host_per_sec = 20_000.0;
        // Tight group bound so the keep-smallest-keys overflow policy is
        // exercised by the user-id group-by.
        cfg.scrub.max_groups = 64;
    }
    let mut p = adplatform::build_platform(cfg);
    let client = ScrubClient::new(&p.scrub);
    let mut handles: Vec<QueryHandle> = Vec::new();
    for i in 0..n_queries {
        let src = format!(
            "{} window 10 s duration {} s",
            RAMP_QUERIES[i % RAMP_QUERIES.len()],
            duration_secs
        );
        if let Ok(h) = client.submit(&mut p.sim, &src) {
            handles.push(h);
        }
    }

    // Steady-state host CPU with the surviving fleet live (E07 method).
    let t0 = p.sim.now();
    p.sim.run_until(t0 + SimDuration::from_secs(10));
    let before = p.agent_stats();
    p.sim
        .run_until(t0 + SimDuration::from_secs(10 + measure_secs));
    let after = p.agent_stats();
    let model = CostModel::default();
    let mut max_cpu_pct = 0.0f64;
    for ((_, b), (_, a)) in before.iter().zip(after.iter()) {
        let pct = model.cpu_fraction(&a.since(b), measure_secs as f64 * 1e9) * 100.0;
        max_cpu_pct = max_cpu_pct.max(pct);
    }

    // Run the spans out so summaries and retained ledgers exist.
    let deadline = t0 + SimDuration::from_secs(duration_secs + 120);
    while p.sim.now() < deadline
        && handles
            .iter()
            .any(|h| h.state(&p.sim) != Some(QueryState::Done))
    {
        let step_to = p.sim.now() + SimDuration::from_secs(5);
        p.sim.run_until(step_to);
    }

    // Admission decisions, in submission order.
    let server = p
        .sim
        .node_as::<QueryServerNode<PlatformMsg>>(p.scrub.server)
        .expect("server node");
    let mut admitted = 0usize;
    let mut rejected = 0usize;
    let mut evicted = 0usize;
    let mut degraded_admits = 0usize;
    for d in &server.admission_log {
        match &d.verdict {
            AdmissionVerdict::Admitted => admitted += 1,
            AdmissionVerdict::Degraded { .. } => {
                admitted += 1;
                degraded_admits += 1;
            }
            AdmissionVerdict::Evicted { victims } => {
                admitted += 1;
                evicted += victims.len();
            }
            AdmissionVerdict::Rejected => rejected += 1,
        }
    }

    // Provenance-attributed losses, summed across every query that
    // reached ScrubCentral (evicted-before-dispatch queries never do).
    let mut out = PhaseOut {
        max_cpu_pct,
        admitted,
        rejected,
        evicted,
        degraded_admits,
        delivered: 0,
        sampled_out: 0,
        load_shed: 0,
        budget_shed: 0,
        batch_dropped: 0,
        groups_overflow: 0,
        ledgers: 0,
        ledgers_reconcile: true,
    };
    for h in &handles {
        if let Some(ledger) = h.loss_ledger(&p.sim) {
            out.ledgers += 1;
            out.ledgers_reconcile &= ledger.reconciles();
            for losses in ledger.hosts.values() {
                out.delivered += losses.delivered;
                out.sampled_out += losses.sampled_out;
                out.load_shed += losses.load_shed;
                out.budget_shed += losses.budget_shed;
                out.batch_dropped += losses.batch_dropped;
            }
        }
        if let Some(s) = h.summary(&p.sim) {
            out.groups_overflow += s.groups_overflow;
        }
    }
    out
}

/// Run E20.
pub fn run(quick: bool) -> Report {
    let n_queries = 20usize;
    let unprotected = run_phase(false, n_queries, quick);
    let protected = run_phase(true, n_queries, quick);

    let mut t = Table::new(&[
        "phase",
        "max_host_cpu_pct",
        "admitted",
        "rejected",
        "evicted",
        "budget_shed",
        "load_shed",
        "groups_overflow",
        "ledgers_ok",
    ]);
    for (name, ph) in [("unprotected", &unprotected), ("protected", &protected)] {
        t.row(vec![
            name.to_string(),
            format!("{:.3}", ph.max_cpu_pct),
            ph.admitted.to_string(),
            ph.rejected.to_string(),
            ph.evicted.to_string(),
            ph.budget_shed.to_string(),
            ph.load_shed.to_string(),
            ph.groups_overflow.to_string(),
            if ph.ledgers_reconcile {
                "yes".into()
            } else {
                "NO".into()
            },
        ]);
    }

    write_bench_json(quick, n_queries, &unprotected, &protected);

    let envelope = 2.5f64;
    let pass = unprotected.max_cpu_pct > envelope
        && protected.max_cpu_pct <= envelope
        && protected.admitted < n_queries + protected.evicted // someone paid
        && (protected.rejected + protected.evicted) > 0
        && protected.groups_overflow > 0
        && unprotected.ledgers_reconcile
        && protected.ledgers_reconcile;
    Report {
        id: "E20",
        title: "Overload protection: admission control + host budgets + bounded groups (§2)",
        paper: "the ≤2.5% per-host envelope is a contract: under a query ramp that breaks \
                it unprotected, admission control and budget shedding hold it — with every \
                dropped event still attributed in the loss ledger",
        body: t.to_string(),
        pass,
        verdict: format!(
            "unprotected {:.2}% host CPU (envelope {envelope}%), protected {:.2}% with \
             {} admitted / {} rejected / {} evicted of {n_queries} submitted; \
             budget_shed {}, groups_overflow {}, ledgers reconcile: {}",
            unprotected.max_cpu_pct,
            protected.max_cpu_pct,
            protected.admitted,
            protected.rejected,
            protected.evicted,
            protected.budget_shed,
            protected.groups_overflow,
            unprotected.ledgers_reconcile && protected.ledgers_reconcile,
        ),
    }
}

/// Persist the ramp as `BENCH_overload.json` at the workspace root (CI
/// validates this schema).
fn write_bench_json(quick: bool, submitted: usize, unprot: &PhaseOut, prot: &PhaseOut) {
    let phase_json = |name: &str, enforce: bool, admission: &str, ph: &PhaseOut| {
        format!(
            "    {{\n      \"name\": {name:?},\n      \"enforce_host_budget\": {enforce},\n      \
             \"admission\": {admission:?},\n      \"max_host_cpu_pct\": {:.3},\n      \
             \"admitted\": {},\n      \"rejected\": {},\n      \"evicted\": {},\n      \
             \"degraded_admits\": {},\n      \"delivered\": {},\n      \
             \"shed\": {{ \"sampled_out\": {}, \"load_shed\": {}, \"budget_shed\": {}, \
             \"batch_dropped\": {} }},\n      \"groups_overflow\": {},\n      \
             \"ledgers\": {},\n      \"ledgers_reconcile\": {}\n    }}",
            ph.max_cpu_pct,
            ph.admitted,
            ph.rejected,
            ph.evicted,
            ph.degraded_admits,
            ph.delivered,
            ph.sampled_out,
            ph.load_shed,
            ph.budget_shed,
            ph.batch_dropped,
            ph.groups_overflow,
            ph.ledgers,
            ph.ledgers_reconcile,
        )
    };
    let doc = format!(
        "{{\n  \"bench\": \"overload\",\n  \"experiment\": \"E20\",\n  \
         \"workload\": \"query ramp on the busy bidding workload, unprotected vs protected\",\n  \
         \"quick\": {quick},\n  \"envelope_pct\": 2.5,\n  \"submitted\": {submitted},\n  \
         \"phases\": [\n{},\n{}\n  ]\n}}\n",
        phase_json("unprotected", false, "Off", unprot),
        phase_json("protected", true, "Evict", prot),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_overload.json");
    if let Err(e) = std::fs::write(path, doc) {
        eprintln!("E20: could not write {path}: {e}");
    }
}
