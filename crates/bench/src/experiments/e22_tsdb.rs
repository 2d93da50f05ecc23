//! E22 — multi-resolution telemetry: long-horizon chaos forensics
//! (self-observability; no paper figure).
//!
//! The telemetry store (PR 10) keeps a short raw snapshot ring plus two
//! bounded rollup tiers. This experiment runs the E16 chaos scenario for
//! an order of magnitude longer than the raw ring's horizon and shows the
//! store earns its keep:
//!
//! - **forensics past the raw horizon**: the crashed BidServer goes down
//!   at 120 s; by the end of the run the raw tier starts hundreds of
//!   seconds later, so the suspected-hosts gauge reads as a flat line
//!   there. The coarse tier still covers the crash, its first rolled
//!   point with an upward step brackets the suspicion tick, and that
//!   point's exemplar request id resolves to a real trace with a span
//!   inside the max-delta interval — raw ring long gone.
//! - **compression and bounded memory**: the coarse tier spends far more
//!   milliseconds per retained point than the raw ring (ratio > 1 by
//!   construction, ~26x here), and the mid tier — sized so the run seals
//!   several times its cap — never holds more than `TIER_CAP`
//!   points per metric.
//! - **dogfooding equivalence**: a ScrubQL query over the `scrub_metric`
//!   meta-stream (`SUM(scrub_metric.delta)` in 20 s windows) returns, for
//!   interior windows, exactly the sums of the raw tier's per-tick deltas
//!   for the same metric.
//! - **determinism**: `range`-style renders of every stored metric
//!   are byte-identical across two seeded runs.
//!
//! Results land in `BENCH_tsdb.json` at the workspace root (CI validates
//! the schema: three tiers, coarse coverage spanning the crash, and a
//! compression ratio above 1).

use adplatform::{scenario, PlatformMsg};
use scrub_obs::{Resolution, RolledPoint, TelemetryStore};
use scrub_server::{CentralNode, QueryState, ScrubClient};
use scrub_simnet::SimTime;

use crate::{Report, Table};

/// Raw ring length (snapshots); at the 2.5 s advance tick this is a 60 s
/// horizon — an order of magnitude shorter than the run.
const RAW_RING: usize = 24;
/// Mid tier: 5 ticks = 12.5 s buckets.
const MID_FACTOR: usize = 5;
/// Coarse tier: 25 ticks = 62.5 s buckets.
const COARSE_FACTOR: usize = 25;
/// Points per metric per rolled tier. The run seals ~56 mid buckets, so
/// the mid tier demonstrably evicts; coarse (~11 buckets) keeps the full
/// span.
const TIER_CAP: usize = 16;
/// The counter the compression figures and the meta-query read.
const PROBE_METRIC: &str = "central.events_ingested";
/// The gauge whose onset the coarse tier must localize.
const ONSET_METRIC: &str = "central.hosts_suspected";
/// Interior windows of the 60 s meta-query (submitted at 300 s) compared
/// against the raw tier — the first/last windows straddle tap start/stop.
const META_WINDOWS: [i64; 2] = [320_000, 340_000];

/// One retention tier as observed at the end of a run.
struct TierRow {
    res: Resolution,
    cover: Option<(i64, i64)>,
    /// Retained points of [`PROBE_METRIC`].
    points: usize,
    /// Milliseconds of history per retained point — the compression axis.
    ms_per_point: f64,
}

/// Everything one run leaves behind.
struct Observed {
    /// `render_range` of every stored metric at every resolution —
    /// the two-seeded-runs byte-stability probe.
    renders_all: String,
    raw_cover: (i64, i64),
    coarse_cover: (i64, i64),
    /// No raw-tier interval shows the suspected-hosts gauge moving.
    raw_flat: bool,
    /// First coarse point of [`ONSET_METRIC`] containing an upward step.
    onset: Option<RolledPoint>,
    /// The onset exemplar rid resolves to a trace with a span inside the
    /// point's max-delta interval.
    exemplar_trace_ok: bool,
    tiers: Vec<TierRow>,
    /// coarse ms-per-point over raw ms-per-point.
    compression_ratio: f64,
    /// Most mid-tier points any metric holds (must be ≤ [`TIER_CAP`]).
    mid_max_per_metric: usize,
    /// Mid buckets the run sealed (must exceed the cap for the bounded
    /// claim to mean anything).
    mid_buckets_elapsed: usize,
    out_of_order: u64,
    /// Crash suspicion tick: crash time + host grace.
    suspect_ms: i64,
    /// Probe-query lifetime (the run length proper).
    run_secs: i64,
    /// `(window_start_ms, meta_sum, raw_range_sum)` per interior window.
    meta_windows: Vec<(i64, i64, i64)>,
    meta_done: bool,
}

/// One chaos run with the short raw ring and rolled tiers dialed in.
fn run_once(quick: bool) -> Observed {
    let run_secs: i64 = if quick { 660 } else { 900 };
    let mut cfg = scenario::spam_under_chaos();
    cfg.scrub.trace_sample_rate = 0.05;
    let suspect_ms = scenario::CHAOS_CRASH_AT_SECS * 1000 + cfg.scrub.host_grace_ms;
    let mut p = adplatform::build_platform(cfg);
    let store = TelemetryStore::new(RAW_RING, MID_FACTOR, COARSE_FACTOR, TIER_CAP);
    p.sim
        .node_as_mut::<CentralNode<PlatformMsg>>(p.scrub.central)
        .expect("central node")
        .set_telemetry(store);
    let client = ScrubClient::new(&p.scrub);
    let probe = client
        .submit(
            &mut p.sim,
            &format!(
                "select bid.user_id, COUNT(*) from bid @[Service in BidServers] \
                 group by bid.user_id window 10 s duration {run_secs} s"
            ),
        )
        .expect("probe query accepted");

    // Mid-run, dogfood the store through ScrubQL: a meta-query over the
    // `scrub_metric` stream whose windowed sums must equal the raw tier's
    // per-tick deltas.
    p.sim.run_until(SimTime::from_secs(300));
    let meta = client
        .submit(
            &mut p.sim,
            &format!(
                "select SUM(scrub_metric.delta) from scrub_metric \
                 where scrub_metric.metric = '{PROBE_METRIC}' \
                 @[Service in ScrubCentral] window 20 s duration 60 s"
            ),
        )
        .expect("meta-query accepted");
    // Let it finish, then compare while the raw ring (57.5 s horizon)
    // still covers the interior windows.
    p.sim.run_until(SimTime::from_secs(375));
    let meta_done = meta.state(&p.sim) == Some(QueryState::Done);
    let meta_windows: Vec<(i64, i64, i64)> = {
        let central = p
            .sim
            .node_as::<CentralNode<PlatformMsg>>(p.scrub.central)
            .expect("central node");
        let deltas = central.telemetry().deltas(PROBE_METRIC, Resolution::Raw);
        let rec = meta.record(&p.sim);
        META_WINDOWS
            .iter()
            .map(|&w| {
                let range_sum: i64 = deltas
                    .iter()
                    .filter(|d| d.at_ms >= w && d.at_ms < w + 20_000)
                    .map(|d| d.value)
                    .sum();
                // SUM comes back as a Double; the summed deltas are
                // integral, so the round-trip through f64 is exact.
                let meta_sum = rec
                    .and_then(|r| r.rows.iter().find(|row| row.window_start_ms == w))
                    .and_then(|row| row.values.last().and_then(|v| v.as_f64()))
                    .map_or(-1, |v| v as i64);
                (w, meta_sum, range_sum)
            })
            .collect()
    };

    p.sim.run_until(SimTime::from_secs(run_secs + 45));

    let central = p
        .sim
        .node_as::<CentralNode<PlatformMsg>>(p.scrub.central)
        .expect("central node");
    let store = central.telemetry();
    let mut renders_all = String::new();
    for m in store.metric_names() {
        for res in Resolution::ALL {
            renders_all.push_str(&store.render_range(&m, res, None));
        }
    }

    // While the probe query is alive the suspected-host gauge sits flat
    // at its post-crash value, so the raw window cannot localize the
    // onset. (After the query completes, suspicion tracking tears down
    // and the gauge steps back to 0 — that teardown is not the fault.)
    let raw_points = store.points(ONSET_METRIC, Resolution::Raw);
    let in_query: Vec<&RolledPoint> = raw_points
        .iter()
        .filter(|pt| pt.at_ms <= run_secs * 1000)
        .collect();
    let raw_flat = !in_query.is_empty() && in_query.iter().all(|pt| pt.delta == 0);
    let onset = store
        .points(ONSET_METRIC, Resolution::Coarse)
        .into_iter()
        .find(|pt| pt.max_at_ms > 0);
    let exemplar_trace_ok = onset.as_ref().is_some_and(|o| {
        o.exemplar.is_some_and(|rid| {
            probe.traces(&p.sim).is_some_and(|ts| {
                ts.trace(rid).is_some_and(|spans| {
                    spans
                        .iter()
                        .any(|s| s.at_ms > o.max_from_ms && s.at_ms <= o.max_at_ms)
                })
            })
        })
    });

    let tiers: Vec<TierRow> = Resolution::ALL
        .iter()
        .map(|&res| {
            let cover = store.covered_range(res);
            let points = store.points(PROBE_METRIC, res).len();
            let ms_per_point = cover.map_or(0.0, |(a, b)| (b - a) as f64 / points.max(1) as f64);
            TierRow {
                res,
                cover,
                points,
                ms_per_point,
            }
        })
        .collect();
    let compression_ratio = tiers[2].ms_per_point / tiers[0].ms_per_point.max(f64::EPSILON);
    let mid_max_per_metric = store
        .metric_names()
        .iter()
        .map(|m| store.points(m, Resolution::Mid).len())
        .max()
        .unwrap_or(0);
    let tick_ms = tiers[0].ms_per_point.max(1.0);
    let mid_buckets_elapsed = (p.sim.now().as_ms() as f64 / (tick_ms * MID_FACTOR as f64)) as usize;

    Observed {
        renders_all,
        raw_cover: store.covered_range(Resolution::Raw).unwrap_or((0, 0)),
        coarse_cover: store.covered_range(Resolution::Coarse).unwrap_or((0, 0)),
        raw_flat,
        onset,
        exemplar_trace_ok,
        tiers,
        compression_ratio,
        mid_max_per_metric,
        mid_buckets_elapsed,
        out_of_order: central.metrics(p.sim.now().as_ms()).counters["obs.snapshots_out_of_order"],
        suspect_ms,
        run_secs,
        meta_windows,
        meta_done,
    }
}

fn fmt_cover(c: Option<(i64, i64)>) -> String {
    c.map_or("(empty)".into(), |(a, b)| format!("({a}, {b}]"))
}

/// Run E22.
pub fn run(quick: bool) -> Report {
    let a = run_once(quick);
    let b = run_once(quick);

    let byte_stable = a.renders_all == b.renders_all;
    let crash_ms = scenario::CHAOS_CRASH_AT_SECS * 1000;
    let crash_older = a.raw_cover.0 > crash_ms;
    // The in-progress coarse bucket is not sealed yet, so the coarse
    // cover trails the raw cover by up to one bucket; "covers the run"
    // means it starts before the crash and spans at least 80% of it.
    let coarse_covers = a.coarse_cover.0 <= crash_ms
        && (a.coarse_cover.1 - a.coarse_cover.0) * 10 >= a.run_secs * 1000 * 8;
    let onset_located = a
        .onset
        .as_ref()
        .is_some_and(|o| o.start_ms <= a.suspect_ms && a.suspect_ms <= o.at_ms);
    let meta_match = a.meta_done
        && !a.meta_windows.is_empty()
        && a.meta_windows.iter().all(|&(_, m, r)| m == r && m > 0);
    let bounded = a.mid_max_per_metric <= TIER_CAP && a.mid_buckets_elapsed > TIER_CAP;
    let compression = a.compression_ratio > 1.0;

    let mut t = Table::new(&[
        "tier",
        "cover_ms",
        "points(events_ingested)",
        "ms_per_point",
    ]);
    for tr in &a.tiers {
        t.row(vec![
            tr.res.to_string(),
            fmt_cover(tr.cover),
            tr.points.to_string(),
            format!("{:.1}", tr.ms_per_point),
        ]);
    }
    let mut mt = Table::new(&["window_start_ms", "meta_sum", "raw_range_sum"]);
    for &(w, m, r) in &a.meta_windows {
        mt.row(vec![w.to_string(), m.to_string(), r.to_string()]);
    }
    let onset_line = a.onset.as_ref().map_or("onset: (not found)".into(), |o| {
        format!(
            "onset: coarse bucket ({}, {}] brackets suspicion at {} ms; \
             max-delta interval ({}, {}], exemplar rid {:?}",
            o.start_ms, o.at_ms, a.suspect_ms, o.max_from_ms, o.max_at_ms, o.exemplar
        )
    });
    let body = format!("{t}\n{onset_line}\n\nmeta-query vs raw tier ({PROBE_METRIC}):\n{mt}");

    write_bench_json(quick, &a, byte_stable, crash_ms);

    let pass = crash_older
        && coarse_covers
        && a.raw_flat
        && onset_located
        && a.exemplar_trace_ok
        && compression
        && bounded
        && byte_stable
        && meta_match;
    Report {
        id: "E22",
        title: "Telemetry tiers: chaos forensics past the raw horizon (self-observability)",
        paper: "a bounded multi-resolution store lets a troubleshooter localize a fault \
                that happened long before the raw snapshot ring's horizon: the coarse \
                tier brackets the crash-suspicion tick, its exemplar resolves to a real \
                trace, rollups stay bounded and deterministic across runs, and ScrubQL \
                over the scrub_metric stream reproduces the raw tier's windowed sums",
        body,
        pass,
        verdict: format!(
            "crash at {crash_ms} ms vs raw tier starting {} ms (invisible: {}), onset \
             located {onset_located}, exemplar trace ok {}, compression {:.1}x, mid tier \
             ≤{} pts/metric over {} sealed buckets, byte-stable {byte_stable}, \
             meta-query matches {meta_match}",
            a.raw_cover.0,
            a.raw_flat,
            a.exemplar_trace_ok,
            a.compression_ratio,
            a.mid_max_per_metric,
            a.mid_buckets_elapsed,
        ),
    }
}

/// Persist the run as `BENCH_tsdb.json` at the workspace root (CI
/// validates the schema, coarse coverage and the compression ratio).
fn write_bench_json(quick: bool, a: &Observed, byte_stable: bool, crash_ms: i64) {
    let tier_json = |tr: &TierRow| {
        let (c0, c1) = tr.cover.unwrap_or((0, 0));
        format!(
            "    {{ \"res\": \"{}\", \"cover_ms\": [{c0}, {c1}], \"points\": {}, \
             \"ms_per_point\": {:.1} }}",
            tr.res, tr.points, tr.ms_per_point
        )
    };
    let tiers: Vec<String> = a.tiers.iter().map(tier_json).collect();
    let windows: Vec<String> = a
        .meta_windows
        .iter()
        .map(|&(w, m, r)| {
            format!("      {{ \"start_ms\": {w}, \"meta_sum\": {m}, \"range_sum\": {r} }}")
        })
        .collect();
    let onset = a.onset.as_ref().map_or("null".to_string(), |o| {
        format!(
            "{{ \"start_ms\": {}, \"at_ms\": {}, \"exemplar_rid\": {}, \
             \"exemplar_trace_ok\": {} }}",
            o.start_ms,
            o.at_ms,
            o.exemplar.map_or("null".to_string(), |r| r.to_string()),
            a.exemplar_trace_ok,
        )
    });
    let meta_match = a.meta_done && a.meta_windows.iter().all(|&(_, m, r)| m == r && m > 0);
    let doc = format!(
        "{{\n  \"bench\": \"tsdb\",\n  \"experiment\": \"E22\",\n  \
         \"workload\": \"E16 chaos run an order of magnitude past the raw ring horizon\",\n  \
         \"quick\": {quick},\n  \"run_secs\": {},\n  \"crash_at_ms\": {crash_ms},\n  \
         \"suspect_at_ms\": {},\n  \"crash_older_than_raw_horizon\": {},\n  \
         \"raw_tier_flat_at_crash\": {},\n  \"onset\": {onset},\n  \
         \"tiers\": [\n{}\n  ],\n  \"compression_ratio\": {:.1},\n  \
         \"bounded\": {{ \"tier_cap\": {TIER_CAP}, \"mid_max_points_per_metric\": {}, \
         \"mid_buckets_elapsed\": {} }},\n  \"out_of_order_dropped\": {},\n  \
         \"byte_stable\": {byte_stable},\n  \
         \"meta_query\": {{ \"metric\": \"{PROBE_METRIC}\", \"done\": {}, \
         \"windows\": [\n{}\n    ], \"matches\": {meta_match} }}\n}}\n",
        a.run_secs,
        a.suspect_ms,
        a.raw_cover.0 > crash_ms,
        a.raw_flat,
        tiers.join(",\n"),
        a.compression_ratio,
        a.mid_max_per_metric,
        a.mid_buckets_elapsed,
        a.out_of_order,
        a.meta_done,
        windows.join(",\n"),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_tsdb.json");
    if let Err(e) = std::fs::write(path, doc) {
        eprintln!("E22: could not write {path}: {e}");
    }
}
