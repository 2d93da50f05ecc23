//! E16 — the spam query under chaos (robustness; no paper figure).
//!
//! Reruns §8.1's bot hunt while the network misbehaves: 5% message loss
//! each way between the BidServers and ScrubCentral, a full DC1/DC2
//! partition mid-query, and one BidServer crashed for good. The paper's
//! pitch is troubleshooting *production* systems; a troubleshooter that
//! falls over with the system under test is useless. The run must still
//! surface both planted bots, and — just as important — the summary must
//! *admit* the degradation: coverage below 100%, wider Eq 1–3 bounds than
//! a fault-free twin run, rows marked degraded, duplicates absorbed, and
//! windows closing on time instead of stalling on the dead host.

use std::collections::BTreeMap;

use adplatform::{scenario, PlatformConfig};
use scrub_central::QuerySummary;
use scrub_server::ScrubClient;
use scrub_simnet::{FaultStats, SimTime};

use crate::{sum_stats, Report, Table};
use scrub_agent::StatsSnapshot;

struct RunOutcome {
    /// Peak per-window request count per bot user id.
    bot_peaks: BTreeMap<u64, i64>,
    /// Largest per-window count any human user reached.
    max_human: i64,
    /// Summary of the grouped bot query.
    summary: QuerySummary,
    /// Eq-2 half-width of the sampled COUNT(*) companion query.
    count_bound: f64,
    /// Distinct whole windows the companion query emitted.
    windows_seen: usize,
    /// Fault-plane counters (all zero on the clean twin).
    faults: FaultStats,
    /// Summed per-host agent counters (retransmits, retransmitted bytes).
    agents: StatsSnapshot,
}

const WINDOW_MS: i64 = 10_000;

fn run_once(cfg: PlatformConfig, minutes: i64) -> RunOutcome {
    let bots = scenario::spam_bot_user_ids(&cfg);
    let mut p = adplatform::build_platform(cfg);

    let q_bots = ScrubClient::new(&p.scrub)
        .submit(
            &mut p.sim,
            &format!(
                "Select bid.user_id, COUNT(*) from bid @[Service in BidServers] \
             group by bid.user_id window 10 s duration {minutes} m"
            ),
        )
        .expect("query accepted");
    let q_count = ScrubClient::new(&p.scrub)
        .submit(
            &mut p.sim,
            &format!(
                "select COUNT(*) from bid @[Service in BidServers] \
             sample events 50% window 10 s duration {minutes} m"
            ),
        )
        .expect("query accepted");
    p.sim.run_until(SimTime::from_secs(minutes * 60 + 60));

    let rec = q_bots.record(&p.sim).expect("bot query accepted");
    let mut bot_peaks: BTreeMap<u64, i64> = bots.iter().map(|b| (*b, 0)).collect();
    let mut max_human = 0i64;
    for row in &rec.rows {
        let user = row.values[0].as_i64().unwrap() as u64;
        let count = row.values[1].as_i64().unwrap();
        if let Some(peak) = bot_peaks.get_mut(&user) {
            *peak = (*peak).max(count);
        } else {
            max_human = max_human.max(count);
        }
    }
    let summary = rec.summary.clone().expect("bot query summary");

    let crec = q_count.record(&p.sim).expect("count query accepted");
    let count_bound = crec
        .summary
        .as_ref()
        .and_then(|s| s.estimates.first().copied().flatten())
        .map(|e| e.error_bound)
        .unwrap_or(f64::NAN);
    // Whole windows only: the query stops inside one more, and whether
    // that one holds a sampled event from the few ms before the hosts hear
    // of the stop is a coin toss, not a stall.
    let windows_seen = crec
        .rows
        .iter()
        .map(|r| r.window_start_ms)
        .filter(|start| start + WINDOW_MS <= minutes * 60_000)
        .collect::<std::collections::BTreeSet<_>>()
        .len();

    RunOutcome {
        bot_peaks,
        max_human,
        summary,
        count_bound,
        windows_seen,
        faults: p.sim.fault_stats(),
        agents: sum_stats(&p.agent_stats()),
    }
}

/// Run E16.
pub fn run(quick: bool) -> Report {
    let minutes = if quick { 3 } else { 5 };
    let chaos_cfg = scenario::spam_under_chaos();
    let mut clean_cfg = scenario::spam_under_chaos();
    clean_cfg.faults = None;

    let chaos = run_once(chaos_cfg, minutes);
    let clean = run_once(clean_cfg, minutes);

    let mut t = Table::new(&["metric", "chaos", "clean"]);
    let peaks = |o: &RunOutcome| {
        o.bot_peaks
            .values()
            .map(|p| p.to_string())
            .collect::<Vec<_>>()
            .join("/")
    };
    t.row(vec!["bot peak counts".into(), peaks(&chaos), peaks(&clean)]);
    t.row(vec![
        "max human count".into(),
        chaos.max_human.to_string(),
        clean.max_human.to_string(),
    ]);
    t.row(vec![
        "coverage".into(),
        format!("{:.0}%", chaos.summary.coverage() * 100.0),
        format!("{:.0}%", clean.summary.coverage() * 100.0),
    ]);
    t.row(vec![
        "hosts live/targeted".into(),
        format!(
            "{}/{}",
            chaos.summary.hosts_live, chaos.summary.hosts_targeted
        ),
        format!(
            "{}/{}",
            clean.summary.hosts_live, clean.summary.hosts_targeted
        ),
    ]);
    t.row(vec![
        "COUNT(*) error bound".into(),
        format!("{:.0}", chaos.count_bound),
        format!("{:.0}", clean.count_bound),
    ]);
    t.row(vec![
        "degraded rows".into(),
        chaos.summary.degraded_rows.to_string(),
        clean.summary.degraded_rows.to_string(),
    ]);
    t.row(vec![
        "duplicate batches".into(),
        chaos.summary.duplicate_batches.to_string(),
        clean.summary.duplicate_batches.to_string(),
    ]);
    t.row(vec![
        "windows emitted".into(),
        chaos.windows_seen.to_string(),
        clean.windows_seen.to_string(),
    ]);
    t.row(vec![
        "messages dropped (fault plane)".into(),
        chaos.faults.total_dropped().to_string(),
        clean.faults.total_dropped().to_string(),
    ]);
    t.row(vec![
        "agent retransmits".into(),
        chaos.agents.retransmits.to_string(),
        clean.agents.retransmits.to_string(),
    ]);
    t.row(vec![
        "agent retransmitted bytes".into(),
        chaos.agents.bytes_retransmitted.to_string(),
        clean.agents.bytes_retransmitted.to_string(),
    ]);

    // Both bots stand clear of the human tail despite the chaos.
    let bots_found = chaos
        .bot_peaks
        .values()
        .all(|p| *p > 5 * chaos.max_human.max(1));
    // The degradation is admitted, not hidden.
    let coverage_honest =
        chaos.summary.coverage() < 1.0 && (clean.summary.coverage() - 1.0).abs() < f64::EPSILON;
    let bounds_widened = chaos.count_bound.is_finite()
        && clean.count_bound.is_finite()
        && chaos.count_bound > clean.count_bound;
    let degradation_visible = chaos.summary.degraded_rows > 0 && clean.summary.degraded_rows == 0;
    let retries_absorbed = chaos.agents.retransmits > 0 && chaos.summary.duplicate_batches > 0;
    // Windows kept closing: the chaos run emitted (at least) as many
    // whole windows as the clean twin, none stalled behind the dead host.
    let no_stall = chaos.windows_seen >= clean.windows_seen && clean.windows_seen > 0;

    let pass = bots_found
        && coverage_honest
        && bounds_widened
        && degradation_visible
        && retries_absorbed
        && no_stall;
    Report {
        id: "E16",
        title: "Spam detection under chaos (robustness)",
        paper: "an online troubleshooter must survive the faults it is diagnosing: \
                the bots stay visible under loss/partition/crash, and the summary \
                reports the degradation (coverage < 100%, wider Eq 1-3 bounds) \
                instead of silently wrong answers",
        body: t.to_string(),
        pass,
        verdict: format!(
            "bots found {bots_found}, coverage {:.0}% (clean 100%), bound {:.0} vs {:.0}, \
             degraded rows {}, dup batches {}, windows {}/{}",
            chaos.summary.coverage() * 100.0,
            chaos.count_bound,
            clean.count_bound,
            chaos.summary.degraded_rows,
            chaos.summary.duplicate_batches,
            chaos.windows_seen,
            clean.windows_seen,
        ),
    }
}
