//! `scrubql` — an interactive ScrubQL shell over a live simulated bidding
//! platform.
//!
//! Starts the selected scenario, then reads queries from stdin. Each query
//! is submitted to the Scrub query server; the simulation advances in
//! virtual time until the query's span elapses and results are printed.
//!
//! ```sh
//! cargo run --release --bin scrubql -- --scenario spam
//! echo "select bid.user_id, COUNT(*) from bid @[all] group by bid.user_id \
//!       window 10 s duration 30 s" | cargo run --release --bin scrubql
//! ```
//!
//! Commands: a ScrubQL query (terminated by a newline), `explain <query>`,
//! `explain analyze <qid>` (per-operator actuals vs planner estimates),
//! `faults ...` (live fault injection: drop rates, partitions, host
//! kill/revive), `stats [metric]` (platform + Scrub self-observability
//! metrics), `profile <qid>` (a query's execution profile + loss ledger),
//! `trace <qid> [request-id]` (lifecycle trace timelines), `watch
//! <metric> [--alert] [--since <ms>]` (a metric's recent per-interval
//! deltas as a sparkline, plus any alert rules watching it; falls back
//! to the coarse retention tier when `--since` predates the raw ring),
//! `range <metric> [--res raw|mid|coarse] [--since <ms>]` (a metric's
//! series from the multi-resolution telemetry store, with exemplar
//! trace rids on rolled-up points), `alerts` (the health
//! plane: rules, firing state, the alert log), `timeline <qid> [json]`
//! (the per-query flight recorder), `\events`, `\hosts`, `\help`,
//! `\quit`. Lifecycle tracing samples 5% of requests by default; tune
//! with `--trace <rate>` (0 disables).

use std::io::{BufRead, Write};

use adplatform::PlatformMsg;
use scrub::obs::{MetricPoint, Resolution};
use scrub::prelude::*;
use scrub::server::CentralNode;
use scrub_core::error::ScrubError;
use scrub_core::plan::{compile, QueryId};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scenario = args
        .iter()
        .position(|a| a == "--scenario")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .unwrap_or("default")
        .to_string();

    let trace_rate = args
        .iter()
        .position(|a| a == "--trace")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse::<f64>().ok())
        .unwrap_or(0.05);

    let mut cfg = match scenario.as_str() {
        "spam" => scrub::scenario::spam(),
        "new_exchange" => scrub::scenario::new_exchange(),
        "ab_test" => scrub::scenario::ab_test(),
        "exclusions" => scrub::scenario::exclusions(),
        "cannibalization" => scrub::scenario::cannibalization(),
        "freq_cap" => scrub::scenario::freq_cap(),
        "default" => PlatformConfig::default(),
        other => {
            eprintln!(
                "unknown scenario {other:?}; pick one of: default, spam, new_exchange, \
                 ab_test, exclusions, cannibalization, freq_cap"
            );
            std::process::exit(2);
        }
    };

    cfg.scrub.trace_sample_rate = trace_rate;

    eprintln!("building platform for scenario {scenario:?} ...");
    let mut p = adplatform::build_platform(cfg);
    // warm the platform up so queries see steady-state traffic
    p.sim.run_until(SimTime::from_secs(5));
    eprintln!(
        "ready at virtual t={:.0}s — {} hosts, services: BidServers, AdServers, \
         PresentationServers, ProfileStore. Type \\help for commands.",
        p.sim.now().as_secs_f64(),
        p.sim.metas().len()
    );

    let stdin = std::io::stdin();
    let interactive = args.iter().all(|a| a != "--batch");
    loop {
        if interactive {
            eprint!("scrub> ");
            std::io::stderr().flush().ok();
        }
        let mut line = String::new();
        if stdin.lock().read_line(&mut line).unwrap_or(0) == 0 {
            break;
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        match line {
            "\\quit" | "\\q" | "exit" => break,
            "\\help" => {
                println!(
                    "commands:\n  <scrubql query>   run a query (span controls how long)\n  \
                     explain <query>   show the host/central plan split\n  \
                     explain analyze <qid>  per-operator rows, est-vs-actual selectivity, ns\n  \
                     faults            show the live fault plan and counters\n  \
                     faults drop <from> <to> <p>       lose p (e.g. 5%) of from->to messages\n  \
                     faults partition <a> <b> <secs>   sever a<->b for the next secs seconds\n  \
                     faults kill <host> [secs]         crash a host (restart after secs if given)\n  \
                     faults revive <host>              bring a killed host back up now\n  \
                     (selectors: *, host:NAME, service:NAME, dc:NAME; bare word = host)\n  \
                     stats [metric]    platform statistics + scrub self-observability metrics\n  \
                     profile <qid>     a query's execution profile + loss ledger\n  \
                     trace <qid>       traced request ids of a query (sampled lifecycles)\n  \
                     trace <qid> <rid> one traced request's span timeline\n  \
                     watch <metric> [--alert] [--since <ms>]  per-interval deltas as a sparkline\n  \
                     (+ alert rules; --since older than the raw ring falls back to the coarse tier)\n  \
                     range <metric> [--res raw|mid|coarse] [--since <ms>]  telemetry-store series\n  \
                     (rolled-up tiers carry exemplar trace rids from the max-delta interval)\n  \
                     alerts            health plane: rules, firing state, the alert log\n  \
                     timeline <qid> [json]     a query's flight-recorder journal\n  \
                     \\events           event types and schemas\n  \
                     \\hosts            host inventory\n  \\quit"
                );
            }
            other if other == "stats" || other == "\\stats" || other.starts_with("stats ") => {
                print_stats(&p, other.split_whitespace().nth(1));
            }
            "\\events" => {
                for name in p.registry.names() {
                    let (_, schema) = p.registry.schema_by_name(&name).expect("listed");
                    let fields: Vec<String> = schema
                        .fields
                        .iter()
                        .map(|f| format!("{}: {}", f.name, f.ty))
                        .collect();
                    println!("{name}({})", fields.join(", "));
                }
            }
            "\\hosts" => {
                for m in p.sim.metas() {
                    println!("{}\t{}\t{}", m.name, m.service, m.dc);
                }
            }
            other if other == "profile" || other.starts_with("profile ") => {
                match other
                    .split_whitespace()
                    .nth(1)
                    .and_then(|w| w.parse::<u64>().ok())
                {
                    Some(qid) => print_profile(&p, QueryId(qid)),
                    None => {
                        println!("usage: profile <qid> (query ids are printed when a query runs)")
                    }
                }
            }
            other if other == "trace" || other.starts_with("trace ") => {
                let mut words = other.split_whitespace().skip(1);
                let qid = words.next().and_then(|w| w.parse::<u64>().ok());
                let rid = words.next().and_then(|w| w.parse::<u64>().ok());
                match qid {
                    Some(qid) => print_trace(&p, QueryId(qid), rid),
                    None => println!("usage: trace <qid> [request-id]"),
                }
            }
            other if other == "watch" || other.starts_with("watch ") => {
                let words: Vec<&str> = other.split_whitespace().skip(1).collect();
                let alert = words.contains(&"--alert");
                let since = flag_value(&words, "--since").and_then(|s| s.parse::<i64>().ok());
                match positional(&words, &["--since"]) {
                    Some(metric) => watch_metric(&p, metric, alert, since),
                    None => println!(
                        "usage: watch <metric> [--alert] [--since <ms>] (stats lists metric names)"
                    ),
                }
            }
            other if other == "range" || other.starts_with("range ") => {
                let words: Vec<&str> = other.split_whitespace().skip(1).collect();
                let since = flag_value(&words, "--since").and_then(|s| s.parse::<i64>().ok());
                let res = match flag_value(&words, "--res") {
                    None => Resolution::Raw,
                    Some(w) => match Resolution::parse(w) {
                        Some(r) => r,
                        None => {
                            println!("unknown resolution {w:?}; pick one of: raw, mid, coarse");
                            continue;
                        }
                    },
                };
                match positional(&words, &["--res", "--since"]) {
                    Some(metric) => range_metric(&p, metric, res, since),
                    None => {
                        println!("usage: range <metric> [--res raw|mid|coarse] [--since <ms>]")
                    }
                }
            }
            other if other == "alerts" || other == "\\alerts" => {
                print_alerts(&p);
            }
            other if other == "timeline" || other.starts_with("timeline ") => {
                let mut words = other.split_whitespace().skip(1);
                let qid = words.next().and_then(|w| w.parse::<u64>().ok());
                let json = words.next() == Some("json");
                match qid {
                    Some(qid) => print_timeline(&p, QueryId(qid), json),
                    None => println!("usage: timeline <qid> [json]"),
                }
            }
            other if other == "faults" || other.starts_with("faults ") => {
                let args: Vec<&str> = other.split_whitespace().skip(1).collect();
                faults_cmd(&mut p, &args);
            }
            other if other == "explain analyze" || other.starts_with("explain analyze ") => {
                match other
                    .split_whitespace()
                    .nth(2)
                    .and_then(|w| w.parse::<u64>().ok())
                {
                    Some(qid) => print_plan_profile(&p, QueryId(qid)),
                    None => println!(
                        "usage: explain analyze <qid> (query ids are printed when a query runs)"
                    ),
                }
            }
            other if other.starts_with("explain ") => {
                let src = &other["explain ".len()..];
                match parse_query(src)
                    .and_then(|s| compile(&s, &p.registry, &ScrubConfig::default(), QueryId(0)))
                {
                    Ok(cq) => println!("{}", cq.explain()),
                    Err(e) => println!("error: {e}"),
                }
            }
            src => run_query(&mut p, src),
        }
    }
}

/// Parse a node selector: `*`/`any`, `host:x`, `service:x`, `dc:x`; a bare
/// word names a host.
fn parse_sel(s: &str) -> NodeSel {
    if s == "*" || s == "any" {
        NodeSel::Any
    } else if let Some(h) = s.strip_prefix("host:") {
        NodeSel::Host(h.into())
    } else if let Some(svc) = s.strip_prefix("service:") {
        NodeSel::Service(svc.into())
    } else if let Some(dc) = s.strip_prefix("dc:") {
        NodeSel::Dc(dc.into())
    } else {
        NodeSel::Host(s.into())
    }
}

/// Parse a probability: `5%` or `0.05`.
fn parse_prob(s: &str) -> Option<f64> {
    let p = match s.strip_suffix('%') {
        Some(pct) => pct.parse::<f64>().ok()? / 100.0,
        None => s.parse::<f64>().ok()?,
    };
    (0.0..=1.0).contains(&p).then_some(p)
}

/// The `faults` command family: inspect and mutate the live fault plane.
fn faults_cmd(p: &mut Platform, args: &[&str]) {
    match args {
        [] | ["show"] => {
            match p.sim.fault_plan() {
                None => println!("no fault plan installed"),
                Some(plan) => {
                    for d in &plan.drops {
                        println!("drop      {} -> {}  p={:.3}", d.from, d.to, d.p);
                    }
                    for pt in &plan.partitions {
                        println!(
                            "partition {} <-> {}  [{:.0}s, {:.0}s)",
                            pt.a,
                            pt.b,
                            pt.from.as_secs_f64(),
                            pt.until.as_secs_f64()
                        );
                    }
                    for c in &plan.crashes {
                        let up = match c.up_at {
                            Some(t) => format!("up at {:.0}s", t.as_secs_f64()),
                            None => "never restarted".into(),
                        };
                        println!(
                            "crash     {}  down from {:.0}s, {}{}",
                            c.host,
                            c.down_from.as_secs_f64(),
                            up,
                            if c.down(p.sim.now()) { " [DOWN]" } else { "" }
                        );
                    }
                }
            }
            let s = p.sim.fault_stats();
            println!(
                "dropped: {} random, {} partition, {} host-down; {} delayed, {} restarts",
                s.dropped_random, s.dropped_partition, s.dropped_host_down, s.delayed, s.restarts
            );
        }
        ["drop", from, to, prob] => match parse_prob(prob) {
            Some(pr) => {
                let (from, to) = (parse_sel(from), parse_sel(to));
                p.sim.set_link_drop(from.clone(), to.clone(), pr);
                println!("losing {:.1}% of {from} -> {to} messages", pr * 100.0);
            }
            None => println!("error: bad probability {prob:?} (use e.g. 5% or 0.05)"),
        },
        ["partition", a, b, secs] => match secs.parse::<i64>() {
            Ok(d) if d > 0 => {
                let (a, b) = (parse_sel(a), parse_sel(b));
                let from = p.sim.now();
                let until = from + SimDuration::from_secs(d);
                p.sim.add_partition(a.clone(), b.clone(), from, until);
                println!(
                    "partitioned {a} <-> {b} until t={:.0}s",
                    until.as_secs_f64()
                );
            }
            _ => println!("error: bad duration {secs:?} (whole seconds)"),
        },
        ["kill", host] | ["kill", host, _] => {
            let up_at = match args.get(2) {
                Some(secs) => match secs.parse::<i64>() {
                    Ok(d) if d > 0 => Some(p.sim.now() + SimDuration::from_secs(d)),
                    _ => {
                        println!("error: bad restart delay {secs:?} (whole seconds)");
                        return;
                    }
                },
                None => None,
            };
            if p.sim.inject_crash(host, p.sim.now(), up_at) {
                match up_at {
                    Some(t) => println!("{host} down, restarts at t={:.0}s", t.as_secs_f64()),
                    None => println!("{host} down for good (faults revive {host} to undo)"),
                }
            } else {
                println!("error: unknown host {host:?} (\\hosts lists them)");
            }
        }
        ["revive", host] => {
            if p.sim.revive(host) {
                println!("{host} is back up");
            } else {
                println!("error: {host:?} is unknown or not down");
            }
        }
        _ => println!("usage: faults [show | drop <from> <to> <p> | partition <a> <b> <secs> | kill <host> [secs] | revive <host>]"),
    }
}

fn run_query(p: &mut Platform, src: &str) {
    let client = ScrubClient::new(&p.scrub);
    let query = match client.submit(&mut p.sim, src) {
        Ok(q) => q,
        Err(ScrubError::Rejected(reason)) => {
            println!("rejected: {reason}");
            return;
        }
        Err(e) => {
            println!("error: {e}");
            return;
        }
    };
    // advance virtual time until the query completes (span + drain)
    let deadline = p.sim.now() + SimDuration::from_secs(3 * 3600);
    while p.sim.now() < deadline {
        let step_to = p.sim.now() + SimDuration::from_secs(5);
        p.sim.run_until(step_to);
        if query.state(&p.sim) == Some(QueryState::Done) {
            break;
        }
    }
    let rec = query.record(&p.sim).expect("record exists");
    println!(
        "-- query {} {:?} at virtual t={:.0}s, {} row(s)",
        query.id(),
        rec.state,
        p.sim.now().as_secs_f64(),
        rec.rows.len()
    );
    println!("window_start\t{}", rec.compiled.central.headers.join("\t"));
    const MAX_ROWS: usize = 40;
    for row in rec.rows.iter().take(MAX_ROWS) {
        println!("{}", row.to_tsv());
    }
    if rec.rows.len() > MAX_ROWS {
        println!("... ({} more rows)", rec.rows.len() - MAX_ROWS);
    }
    if let Some(s) = &rec.summary {
        println!(
            "-- {} hosts, matched {}, shipped {}, shed {}, budget-shed {}",
            s.hosts_reporting, s.total_matched, s.total_sampled, s.total_shed, s.total_budget_shed
        );
        if s.groups_overflow > 0 {
            println!(
                "-- overload: {} rows dropped past the max_groups cap",
                s.groups_overflow
            );
        }
        for (i, est) in s.estimates.iter().enumerate() {
            if let Some(e) = est {
                println!(
                    "-- column {}: estimate {:.1} ± {:.1} ({}% confidence)",
                    rec.compiled.central.headers[i],
                    e.estimate,
                    e.error_bound,
                    (e.confidence * 100.0) as i64,
                );
            }
        }
    }
    println!(
        "-- profile {} shows this query's execution profile",
        query.id()
    );
}

/// `profile <qid>`: the per-query execution profile ScrubCentral kept —
/// per-host taps/selection/shedding, first-sent vs retransmitted bytes,
/// window accounting and ingest latency.
fn print_profile(p: &Platform, qid: QueryId) {
    let handle = QueryHandle::from_id(&p.scrub, qid);
    let Some(prof) = handle.profile(&p.sim) else {
        if handle.record(&p.sim).is_none() {
            println!("unknown query id {qid}");
            print_qid_suggestions(p, qid);
        } else {
            println!("no profile for query {qid} (it never reached ScrubCentral)");
        }
        return;
    };
    println!(
        "query {}: {} batches ingested ({} duplicate, {} acked), {} rows emitted",
        qid,
        prof.batches_ingested,
        prof.batches_duplicate,
        prof.batches_acked(),
        prof.rows_emitted
    );
    println!(
        "bytes: {} first-sent, {} retransmitted",
        prof.bytes_first_sent, prof.bytes_retransmitted
    );
    println!(
        "windows: {} opened, {} closed, {} degraded; {} join-state rows held",
        prof.windows_opened, prof.windows_closed, prof.windows_degraded, prof.join_rows_held
    );
    let lat = &prof.ingest_latency_ms;
    if lat.count > 0 {
        println!(
            "ingest latency: p50 {} ms, p99 {} ms over {} batches",
            lat.p50().unwrap_or(0),
            lat.p99().unwrap_or(0),
            lat.count
        );
    }
    println!("host\tevents\ttapped\tselected\tshed\tbudget_shed\tbatches\tretx\tbytes\tretx_bytes");
    for (host, h) in &prof.hosts {
        println!(
            "{host}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            h.events,
            h.tapped,
            h.selected,
            h.shed,
            h.budget_shed,
            h.batches,
            h.retransmitted_batches,
            h.bytes_first_sent,
            h.bytes_retransmitted
        );
    }
    if let Some(ledger) = handle.loss_ledger(&p.sim) {
        if ledger.is_all_zero() {
            println!("loss ledger: clean — every tapped event reached a result");
        } else {
            println!(
                "loss ledger (invariant: tapped = delivered + sampled_out + load_shed + budget_shed + batch_dropped):"
            );
            println!(
                "host\tdelivered\tsampled_out\tload_shed\tbudget_shed\tbatch_dropped\tdedup_retx\tdegraded\tdead"
            );
            for (host, h) in &ledger.hosts {
                println!(
                    "{host}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
                    h.delivered,
                    h.sampled_out,
                    h.load_shed,
                    h.budget_shed,
                    h.batch_dropped,
                    h.deduped_retransmit,
                    h.window_degraded,
                    if h.host_dead { "yes" } else { "no" }
                );
            }
        }
        if !ledger.reconciles() {
            println!("WARNING: ledger does not reconcile with the profile's tap counters");
        }
    }
}

/// `explain analyze <qid>`: the annotated plan tree — per-operator rows
/// in/out, estimated vs actual selectivity, and ns attribution
/// (cost-model ns for the host-side trio, wall-clock at central).
fn print_plan_profile(p: &Platform, qid: QueryId) {
    let handle = QueryHandle::from_id(&p.scrub, qid);
    match handle.plan_profile(&p.sim) {
        Some(profile) => print!("{}", profile.render(false)),
        None => {
            if handle.record(&p.sim).is_none() {
                println!("unknown query id {qid}");
                print_qid_suggestions(p, qid);
            } else {
                println!("no plan profile for query {qid} (it never reached ScrubCentral)");
            }
        }
    }
}

/// `trace <qid> [rid]`: the lifecycle traces central assembled for the
/// query's sampled requests — a listing of traced ids, or one request's
/// causally-ordered span timeline.
fn print_trace(p: &Platform, qid: QueryId, rid: Option<u64>) {
    let handle = QueryHandle::from_id(&p.scrub, qid);
    let Some(store) = handle.traces(&p.sim) else {
        if handle.record(&p.sim).is_none() {
            println!("unknown query id {qid}");
            print_qid_suggestions(p, qid);
        } else {
            println!(
                "no traces for query {qid} (tracing off — rerun scrubql with --trace <rate> — \
                 or no sampled request reached ScrubCentral)"
            );
        }
        return;
    };
    match rid {
        None => {
            println!(
                "query {qid}: {} traced request(s), {} span(s) total{}",
                store.len(),
                store.span_count(),
                if store.dropped_spans > 0 {
                    format!(" ({} dropped at the store cap)", store.dropped_spans)
                } else {
                    String::new()
                }
            );
            const MAX_IDS: usize = 40;
            for r in store.request_ids().take(MAX_IDS) {
                let spans = store.trace(r).unwrap_or_default();
                let hops: Vec<String> = spans.iter().map(|s| format!("{:?}", s.kind)).collect();
                println!("  {r}\t{}", hops.join(" > "));
            }
            if store.len() > MAX_IDS {
                println!(
                    "  ... ({} more; trace {} <rid> for one timeline)",
                    store.len() - MAX_IDS,
                    qid.0
                );
            }
        }
        Some(r) => {
            let Some(spans) = store.trace(r) else {
                println!(
                    "request {r} is not traced for query {qid} (trace {} lists traced ids)",
                    qid.0
                );
                return;
            };
            let t0 = spans.first().map(|s| s.at_ms).unwrap_or(0);
            println!("request {r} lifecycle ({} spans):", spans.len());
            for s in &spans {
                let detail = match s.kind {
                    SpanKind::Send => format!("seq={}", s.detail),
                    SpanKind::Retransmit => format!("attempt={}", s.detail),
                    SpanKind::WindowAssign | SpanKind::WindowClose | SpanKind::WindowDegrade => {
                        format!("window_start={}ms", s.detail)
                    }
                    _ => String::new(),
                };
                println!(
                    "  +{:>7} ms  {:<14} {:<14} {detail}",
                    s.at_ms - t0,
                    format!("{:?}", s.kind),
                    s.host
                );
            }
        }
    }
}

/// The server + central scrub-obs registries, merged — the full universe
/// of registered metric names at this instant.
fn merged_snapshot(p: &Platform) -> MetricsSnapshot {
    let at_ms = p.sim.now().as_ms();
    let mut snap = MetricsSnapshot::default();
    if let Some(server) = p
        .sim
        .node_as::<scrub::server::QueryServerNode<PlatformMsg>>(p.scrub.server)
    {
        snap.merge(&server.metrics(at_ms));
    }
    if let Some(central) = p.sim.node_as::<CentralNode<PlatformMsg>>(p.scrub.central) {
        snap.merge(&central.metrics(at_ms));
    }
    snap
}

/// Every registered metric name (counters, gauges and histograms), sorted.
fn metric_names(snap: &MetricsSnapshot) -> Vec<String> {
    let mut names: Vec<String> = snap
        .counters
        .keys()
        .chain(snap.gauges.keys())
        .chain(snap.histograms.keys())
        .cloned()
        .collect();
    names.sort();
    names.dedup();
    names
}

/// The closest registered metric names to an unknown input: substring
/// matches first, then names sharing a `.`-segment prefix with the input.
fn suggest_metrics<'a>(names: &'a [String], unknown: &str) -> Vec<&'a String> {
    let q = unknown.to_ascii_lowercase();
    let mut hits: Vec<&String> = names
        .iter()
        .filter(|n| n.to_ascii_lowercase().contains(&q))
        .collect();
    if hits.is_empty() {
        hits = names
            .iter()
            .filter(|n| {
                n.to_ascii_lowercase()
                    .split('.')
                    .zip(q.split('.'))
                    .any(|(seg, qseg)| seg.starts_with(qseg) || qseg.starts_with(seg))
            })
            .collect();
    }
    hits.truncate(8);
    hits
}

/// Print a did-you-mean list for an unknown metric name (or a pointer at
/// `stats` when nothing comes close).
fn print_suggestions(names: &[String], unknown: &str) {
    let close = suggest_metrics(names, unknown);
    if close.is_empty() {
        println!(
            "  (nothing close; stats lists all {} metric names)",
            names.len()
        );
    } else {
        println!("  closest registered names:");
        for n in close {
            println!("    {n}");
        }
    }
}

/// Print a did-you-mean list for an unknown query id: the known ids the
/// server still tracks, nearest numerically first.
fn print_qid_suggestions(p: &Platform, unknown: QueryId) {
    let Some(server) = p
        .sim
        .node_as::<scrub::server::QueryServerNode<PlatformMsg>>(p.scrub.server)
    else {
        return;
    };
    let mut ids = server.query_ids();
    if ids.is_empty() {
        println!("  (no queries have been submitted yet)");
        return;
    }
    ids.sort_by_key(|q| (q.0.abs_diff(unknown.0), q.0));
    ids.truncate(8);
    let list: Vec<String> = ids.iter().map(|q| q.0.to_string()).collect();
    println!("  closest known query ids: {}", list.join(", "));
}

/// `alerts`: the health plane — every rule with its condition and firing
/// state, the anomaly watchlist, and the bounded alert log.
fn print_alerts(p: &Platform) {
    let Some(central) = p.sim.node_as::<CentralNode<PlatformMsg>>(p.scrub.central) else {
        println!("central node not found");
        return;
    };
    let engine = central.alert_engine();
    println!("rules ({}):", engine.rules().len());
    for r in engine.rules() {
        let firing = if engine.is_firing(&r.id) {
            "  [FIRING]"
        } else {
            ""
        };
        println!(
            "  {:<17} {:<32} {} (for {}, clear {}){firing}",
            r.id,
            r.metric,
            r.kind.describe(),
            r.for_ticks,
            r.clear_ticks
        );
    }
    let watched = engine.anomaly().metrics();
    if !watched.is_empty() {
        println!("anomaly watchlist: {}", watched.join(", "));
    }
    println!("{}", engine.log().render());
}

/// `timeline <qid> [json]`: the query's merged flight-recorder journal —
/// the server's control-plane events interleaved with central's
/// data-plane events in sim-time order.
fn print_timeline(p: &Platform, qid: QueryId, json: bool) {
    let handle = QueryHandle::from_id(&p.scrub, qid);
    let Some((events, dropped)) = handle.timeline(&p.sim) else {
        println!("unknown query id {qid} (no flight recorder on the server or central)");
        print_qid_suggestions(p, qid);
        return;
    };
    if json {
        println!("{}", scrub::obs::render_timeline_json(qid.0, &events));
    } else {
        print!("{}", scrub::obs::render_timeline(qid.0, &events, dropped));
    }
}

/// The word following a `--flag` in a command's word list, if any.
fn flag_value<'a>(words: &[&'a str], flag: &str) -> Option<&'a str> {
    words
        .iter()
        .position(|w| *w == flag)
        .and_then(|i| words.get(i + 1))
        .copied()
}

/// The first word that is neither a `--flag` nor the value of one of
/// the given value-taking flags — the command's positional argument.
fn positional<'a>(words: &[&'a str], valued_flags: &[&str]) -> Option<&'a str> {
    let mut skip_next = false;
    for w in words {
        if skip_next {
            skip_next = false;
            continue;
        }
        if w.starts_with("--") {
            skip_next = valued_flags.contains(w);
            continue;
        }
        return Some(w);
    }
    None
}

/// One tier's covered sim-time range, formatted for the coverage line.
fn fmt_cover(range: Option<(i64, i64)>) -> String {
    match range {
        Some((a, b)) => format!("[{a}, {b}] ms"),
        None => "(empty)".to_string(),
    }
}

/// `watch <metric> [--alert] [--since <ms>]`: per-interval deltas of one
/// central metric from the telemetry store, rendered as a sparkline; with
/// `--alert`, also the alert rules watching the metric and their state.
/// Prints each retention tier's covered time range; when `--since`
/// predates the raw ring, falls back to the coarse tier with a note.
fn watch_metric(p: &Platform, metric: &str, alert: bool, since: Option<i64>) {
    let Some(central) = p.sim.node_as::<CentralNode<PlatformMsg>>(p.scrub.central) else {
        println!("central node not found");
        return;
    };
    let names = metric_names(&merged_snapshot(p));
    if !names.iter().any(|n| n == metric) {
        println!("unknown metric {metric:?}");
        print_suggestions(&names, metric);
        return;
    }
    let store = central.telemetry();
    println!(
        "coverage: raw {} · mid({}x) {} · coarse({}x) {}",
        fmt_cover(store.covered_range(Resolution::Raw)),
        store.tier_factor(Resolution::Mid),
        fmt_cover(store.covered_range(Resolution::Mid)),
        store.tier_factor(Resolution::Coarse),
        fmt_cover(store.covered_range(Resolution::Coarse)),
    );
    let raw_from = store.covered_range(Resolution::Raw).map(|(from, _)| from);
    let res = match (since, raw_from) {
        (Some(s), Some(from)) if s < from => {
            println!(
                "(--since {s} ms predates the raw ring; showing the coarse tier at {}x resolution)",
                store.tier_factor(Resolution::Coarse)
            );
            Resolution::Coarse
        }
        _ => Resolution::Raw,
    };
    let mut deltas = store.deltas(metric, res);
    if let Some(s) = since {
        deltas.retain(|d| d.at_ms > s);
    }
    if deltas.is_empty() {
        println!("no history yet for {metric:?} (the ring fills as virtual time passes)");
        return;
    }
    let values: Vec<i64> = deltas.iter().map(|d| d.value).collect();
    println!(
        "{metric} deltas per {:.0}s interval, t=[{:.0}s, {:.0}s]:",
        if deltas.len() > 1 {
            (deltas[1].at_ms - deltas[0].at_ms) as f64 / 1_000.0
        } else {
            0.0
        },
        deltas.first().unwrap().at_ms as f64 / 1_000.0,
        deltas.last().unwrap().at_ms as f64 / 1_000.0
    );
    println!("  {}", scrub::obs::sparkline(&values));
    let rate = rate_per_sec(&store.series(metric, Resolution::Raw), 10)
        .map(|r| format!(", ~{r:.1}/s over the newest intervals"))
        .unwrap_or_default();
    println!(
        "  min {} max {} last {}{rate}",
        values.iter().min().unwrap(),
        values.iter().max().unwrap(),
        values.last().unwrap()
    );
    if alert {
        let engine = central.alert_engine();
        let watching: Vec<_> = engine
            .rules()
            .iter()
            .filter(|r| r.metric == metric)
            .collect();
        if watching.is_empty() {
            println!("  no alert rules watch {metric:?} (alerts lists all rules)");
        } else {
            for r in watching {
                let state = if engine.is_firing(&r.id) {
                    "FIRING"
                } else {
                    "ok"
                };
                println!(
                    "  rule {:<17} {} (for {}, clear {}) — {state}",
                    r.id,
                    r.kind.describe(),
                    r.for_ticks,
                    r.clear_ticks
                );
            }
        }
        if engine.anomaly().metrics().iter().any(|m| m == metric) {
            println!("  anomaly watchlist: baseline tracked for {metric:?}");
        }
    }
}

/// `range <metric> [--res raw|mid|coarse] [--since <ms>]`: one metric's
/// series from the multi-resolution telemetry store, through the shared
/// byte-stable renderer. Rolled-up points carry an exemplar trace rid
/// from their max-delta interval, linking the series to `trace`.
fn range_metric(p: &Platform, metric: &str, res: Resolution, since: Option<i64>) {
    let Some(central) = p.sim.node_as::<CentralNode<PlatformMsg>>(p.scrub.central) else {
        println!("central node not found");
        return;
    };
    let names = metric_names(&merged_snapshot(p));
    if !names.iter().any(|n| n == metric) {
        println!("unknown metric {metric:?}");
        print_suggestions(&names, metric);
        return;
    }
    let store = central.telemetry();
    print!("{}", store.render_range(metric, res, since));
    if store
        .points(metric, res)
        .iter()
        .any(|pt| pt.exemplar.is_some())
    {
        println!("  (rid=N exemplars resolve via: trace <qid> <rid>)");
    }
}

/// Rate of a counter over the newest `n` intervals of its series: the
/// total increment per elapsed sim second (`None` with fewer than 2
/// points or no elapsed time).
fn rate_per_sec(series: &[MetricPoint], n: usize) -> Option<f64> {
    if series.len() < 2 {
        return None;
    }
    let newest = series[series.len() - 1];
    let oldest = series[series.len().saturating_sub(n + 1).min(series.len() - 2)];
    let dt_ms = newest.at_ms - oldest.at_ms;
    (dt_ms > 0).then(|| (newest.value - oldest.value) as f64 * 1_000.0 / dt_ms as f64)
}

/// `stats [metric]`: platform statistics plus Scrub's own metrics. With a
/// metric argument, show only matching metric rows — and suggest the
/// closest registered names when nothing matches.
fn print_stats(p: &Platform, filter: Option<&str>) {
    let snap = merged_snapshot(p);
    if let Some(f) = filter {
        let names = metric_names(&snap);
        let matched = print_metric_groups(&snap, Some(f));
        if matched == 0 {
            println!("unknown metric {f:?}");
            print_suggestions(&names, f);
        }
        return;
    }
    println!("virtual time: {:.0}s", p.sim.now().as_secs_f64());
    println!(
        "events processed by the simulator: {}",
        p.sim.events_processed()
    );
    let prod = p.event_production();
    println!(
        "event production: {} bids, {} auctions, {} exclusions, {} impressions, {} clicks",
        prod.bids, prod.auctions, prod.exclusions, prod.impressions, prod.clicks
    );
    let mut shipped = 0u64;
    let mut seen = 0u64;
    for (_, s) in p.agent_stats() {
        shipped += s.bytes_shipped;
        seen += s.events_seen;
    }
    println!("agents: {seen} tap calls, {shipped} bytes shipped to ScrubCentral");
    println!(
        "cross-DC traffic: {} bytes over {} messages",
        p.sim.traffic().cross_dc_bytes(),
        p.sim.traffic().total_messages()
    );

    // Scrub's own metrics (the scrub-obs registries on the server and
    // central nodes).
    println!("scrub self-observability:");
    print_metric_groups(&snap, None);
}

/// Print the snapshot's metrics grouped by subsystem prefix, optionally
/// restricted to names containing `filter`. Returns how many metric rows
/// were printed.
fn print_metric_groups(snap: &MetricsSnapshot, filter: Option<&str>) -> usize {
    // group by subsystem prefix (the part before the first '.'), sort
    // within each group, and align the value column
    let keep = |name: &str| match filter {
        Some(f) => name.to_ascii_lowercase().contains(&f.to_ascii_lowercase()),
        None => true,
    };
    let mut groups: std::collections::BTreeMap<&str, Vec<(String, String)>> =
        std::collections::BTreeMap::new();
    fn prefix(name: &str) -> &str {
        name.split('.').next().unwrap_or(name)
    }
    for (name, v) in &snap.counters {
        if keep(name) {
            groups
                .entry(prefix(name))
                .or_default()
                .push((name.clone(), v.to_string()));
        }
    }
    for (name, v) in &snap.gauges {
        if keep(name) {
            groups
                .entry(prefix(name))
                .or_default()
                .push((name.clone(), v.to_string()));
        }
    }
    for (name, h) in &snap.histograms {
        if h.count > 0 && keep(name) {
            groups.entry(prefix(name)).or_default().push((
                name.clone(),
                format!(
                    "p50 {} p99 {} (n={})",
                    h.p50().unwrap_or(0),
                    h.p99().unwrap_or(0),
                    h.count
                ),
            ));
        }
        // silent telemetry loss is a first-class row, not a footnote
        if h.dropped_merges > 0 && keep(name) {
            groups.entry(prefix(name)).or_default().push((
                format!("{name}.dropped_merges"),
                h.dropped_merges.to_string(),
            ));
        }
    }
    let mut printed = 0;
    for (group, mut rows) in groups {
        rows.sort();
        let width = rows.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
        println!("  [{group}]");
        for (name, value) in rows {
            println!("    {name:<width$}  {value}");
            printed += 1;
        }
    }
    printed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_per_sec_over_recent_window() {
        let pt = |at_ms, value| MetricPoint { at_ms, value };
        assert_eq!(rate_per_sec(&[], 3), None);
        assert_eq!(rate_per_sec(&[pt(0, 0)], 3), None);
        let series = [pt(0, 0), pt(1_000, 100), pt(2_000, 300)];
        // over the last interval: 200 events / 1 s
        assert_eq!(rate_per_sec(&series, 1), Some(200.0));
        // over everything retained
        assert_eq!(rate_per_sec(&series, 10), Some(150.0));
        // no elapsed time, no rate
        assert_eq!(rate_per_sec(&[pt(5, 1), pt(5, 2)], 1), None);
    }
}
