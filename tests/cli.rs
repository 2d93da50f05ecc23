//! Integration tests of the `scrubql` interactive shell, driven through
//! its stdin/stdout like a scripting user would.

use std::io::Write;
use std::process::{Command, Stdio};

fn run_cli(scenario: &str, script: &str) -> String {
    let mut child = Command::new(env!("CARGO_BIN_EXE_scrubql"))
        .args(["--batch", "--scenario", scenario])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn scrubql");
    child
        .stdin
        .as_mut()
        .expect("stdin")
        .write_all(script.as_bytes())
        .expect("write script");
    let out = child.wait_with_output().expect("scrubql run");
    assert!(out.status.success(), "scrubql exited with {:?}", out.status);
    String::from_utf8(out.stdout).expect("utf-8 output")
}

#[test]
fn cli_runs_a_query_and_prints_rows() {
    let out = run_cli(
        "default",
        "select bid.exchange_id, COUNT(*) from bid @[Service in BidServers] \
         group by bid.exchange_id window 10 s duration 20 s\n\\quit\n",
    );
    assert!(out.contains("Done"), "query did not finish:\n{out}");
    assert!(out.contains("COUNT(*)"), "missing headers:\n{out}");
    // at least one data row with a window start and counts
    assert!(
        out.lines()
            .any(|l| l.starts_with(|c: char| c.is_ascii_digit())),
        "no data rows:\n{out}"
    );
    assert!(out.contains("hosts, matched"), "missing summary:\n{out}");
}

#[test]
fn cli_explain_shows_placement() {
    let out = run_cli(
        "default",
        "explain select COUNT(*) from bid, exclusion where bid.exchange_id = 1 \
         group by exclusion.reason\n\\quit\n",
    );
    assert!(out.contains("host plans (selection + projection + sampling ONLY):"));
    assert!(out.contains("equi-join on request_id across 2 inputs"));
}

#[test]
fn cli_rejects_bad_queries_gracefully() {
    let out = run_cli(
        "default",
        "select FROB(x) from bid\nselect SUM(bid.bid_price) + 5 from bid\n\\stats\n\\quit\n",
    );
    assert_eq!(
        out.matches("rejected:").count(),
        2,
        "a query was not rejected:\n{out}"
    );
    // the shell keeps working afterwards
    assert!(out.contains("event production:"), "stats missing:\n{out}");
}

#[test]
fn cli_lists_events_and_hosts() {
    let out = run_cli("default", "\\events\n\\hosts\n\\quit\n");
    assert!(out.contains("bid("));
    assert!(out.contains("impression("));
    assert!(out.contains("BidServers"));
    assert!(out.contains("ProfileStore"));
}

#[test]
fn cli_watches_a_metric_and_lists_the_health_plane() {
    let out = run_cli(
        "default",
        "select COUNT(*) from bid @[Service in BidServers] window 10 s duration 20 s\n\
         watch central.events_ingested --alert\nalerts\n\\quit\n",
    );
    assert!(out.contains("Done"), "query did not finish:\n{out}");
    // watch: the coverage line, a sparkline of per-interval deltas, the
    // rate over the newest intervals, and what watches the metric
    assert!(out.contains("coverage: raw ["), "{out}");
    assert!(
        out.contains("central.events_ingested deltas per 2s interval"),
        "{out}"
    );
    let spark = out
        .lines()
        .find_map(|l| {
            l.strip_prefix("  ")
                .filter(|s| !s.is_empty() && s.chars().all(|c| "▁▂▃▄▅▆▇█".contains(c)))
        })
        .expect("sparkline");
    assert!(spark.chars().count() > 4, "{spark:?}");
    assert!(
        spark.chars().any(|c| c != '▁'),
        "a flat sparkline: {spark:?}"
    );
    let line = out
        .lines()
        .find(|l| l.starts_with("  min ") && l.contains(" max "))
        .expect("min/max/rate line");
    let rate: f64 = line
        .split_once(", ~")
        .and_then(|(_, r)| r.strip_suffix("/s over the newest intervals"))
        .and_then(|r| r.parse().ok())
        .unwrap_or_else(|| panic!("no rate in {line:?}"));
    assert!(rate > 0.0, "{line}");
    assert!(out.contains("anomaly watchlist: baseline tracked for \"central.events_ingested\""));
    // alerts: every default rule with its condition and hysteresis, the
    // watchlist and the (quiet) log
    assert!(out.contains("rules (5):"), "{out}");
    for (id, metric) in [
        ("batch_dropped", "ledger.batch_dropped"),
        ("envelope_breach", "overload.budget_shed_events"),
        ("groups_overflow", "overload.groups_overflow"),
        ("host_dead", "central.hosts_suspected"),
        ("retransmit_storm", "agent.retransmitted_batches"),
    ] {
        assert!(
            out.lines()
                .any(|l| l.trim_start().starts_with(id) && l.contains(metric)),
            "rule {id} missing:\n{out}"
        );
    }
    assert!(out.contains("(for 1, clear 2)"), "{out}");
    assert!(out.contains("anomaly watchlist: central.events_ingested"));
    assert!(out.contains("alert log: 0 event(s), 0 dropped"), "{out}");
}
