//! `platform_sim`: the whole deployment on the simulator — ad platform,
//! agents with reliable shipping, ScrubCentral's node, admission, the health
//! plane — under the five use-case queries of the paper plus three of the
//! host-overhead mix, all on 1 s windows.
//!
//! The simulator is one thread, so host and central work cannot be told
//! apart from outside. What can be: the same platform before any query is
//! installed. Set-up times that idle stretch, and a segment's Scrub wall is
//! its wall minus what its `log()` calls would have cost idle.

use std::time::Instant;

use crate::direct::{CHUNKS_PER_SEGMENT, CHUNK_MS};
use crate::layers::{Cell, HealthPlane, Platform, Query, TapCounters};
use crate::report::{driver_layers, op_layers, tap_layers, Outcome, Segment};
use crate::stats::{median, ratio, RowsDigest};
use crate::trace::Tracer;
use crate::RunOpts;

const WINDOW_MS: i64 = 1_000;
/// Simulated ms the platform runs with no query installed: 5 s to let the
/// traffic generators start, then the timed idle stretch.
const IDLE_SETTLE_MS: i64 = 5_000;
const IDLE_MS: i64 = 40_000;
const WARMUP_MS: i64 = 5_000;
/// Every query outlives the run; the driver stops them when it is done.
const SPAN: &str = "window 1 s duration 12 h";

/// The eight live queries. `host` pins the spam query to one BidServer and
/// `li` is the line item the A/B query follows (see [`probe_line_item`]).
fn queries(host: &str, li: i64) -> Vec<(&'static str, String)> {
    vec![
        (
            "spam_users",
            format!(
                "select bid.user_id, COUNT(*) from bid \
                 @[Service in BidServers and Server = '{host}'] group by bid.user_id {SPAN}"
            ),
        ),
        (
            "new_exchange",
            format!(
                "select impression.exchange_id, COUNT(*) from impression \
                 @[Service in PresentationServers] sample hosts 50% events 10% \
                 group by impression.exchange_id {SPAN}"
            ),
        ),
        (
            "ab_test",
            format!(
                "select 1000*AVG(impression.cost) from impression \
                 where impression.line_item_id = {li} @[Service in PresentationServers] {SPAN}"
            ),
        ),
        (
            "exclusions",
            format!(
                "select exclusion.reason, COUNT(*) from bid, exclusion \
                 where exclusion.line_item_id = 2000 and bid.exchange_id = 0 \
                 @[Service in BidServers or Service in AdServers] \
                 group by exclusion.reason {SPAN}"
            ),
        ),
        (
            "cannibalization",
            format!(
                "select impression.line_item_id, COUNT(*), AVG(auction.winner_price) \
                 from auction, impression where contains(auction.line_item_ids, 1000) \
                 @[Service in AdServers or Service in PresentationServers] \
                 group by impression.line_item_id {SPAN}"
            ),
        ),
        (
            "exclusion_reasons",
            format!(
                "select exclusion.reason, COUNT(*) from exclusion \
                 @[Service in AdServers] group by exclusion.reason {SPAN}"
            ),
        ),
        (
            "bids_per_user",
            format!(
                "select bid.user_id, COUNT(*) from bid \
                 @[Service in BidServers] group by bid.user_id {SPAN}"
            ),
        ),
        (
            "exchange_price",
            format!(
                "select AVG(bid.bid_price) from bid where bid.exchange_id = 1 \
                 @[Service in BidServers] {SPAN}"
            ),
        ),
    ]
}

/// The line item winning the most impressions in this seed's traffic — the
/// one an A/B investigation would follow. Found with a 10 s probe query.
fn probe_line_item(p: &mut Platform) -> i64 {
    let probe = p.submit(
        "select impression.line_item_id, COUNT(*) from impression \
         @[Service in PresentationServers] \
         group by impression.line_item_id window 10 s duration 10 s",
    );
    for _ in 0..60 {
        if p.is_done(probe) {
            break;
        }
        p.run_for_ms(1_000);
    }
    p.rows(probe)
        .iter()
        .filter_map(|r| match r.cells[..] {
            [Cell::Int(li), Cell::Int(count)] => Some((count, li)),
            _ => None,
        })
        .max()
        .map_or(1_000, |(_, li)| li)
}

struct Live {
    name: &'static str,
    query: Query,
    submitted_at_ms: i64,
    rows_seen: usize,
    last_window: i64,
    windows_seen: u64,
}

struct Sim {
    p: Platform,
    live: Vec<Live>,
    /// Wall ns per `log()` call with no query installed.
    idle_ns_per_event: f64,
    submit_us: Vec<f64>,
    freshness: Vec<f64>,
    degraded_rows: u64,
}

impl Sim {
    fn set_up(seed: u64) -> Self {
        let mut p = Platform::build(seed);
        p.run_for_ms(IDLE_SETTLE_MS);
        let calls = p.tap_counters().log_calls;
        let t0 = Instant::now();
        p.run_for_ms(IDLE_MS);
        let idle_ns_per_event =
            t0.elapsed().as_nanos() as f64 / (p.tap_counters().log_calls - calls) as f64;
        let li = probe_line_item(&mut p);
        let host = p.first_bidserver();
        let mut submit_us = Vec::new();
        let live = queries(&host, li)
            .into_iter()
            .map(|(name, src)| {
                let submitted_at_ms = p.now_ms();
                let t0 = Instant::now();
                let query = p.submit(&src);
                submit_us.push(t0.elapsed().as_secs_f64() * 1e6);
                Live {
                    name,
                    query,
                    submitted_at_ms,
                    rows_seen: 0,
                    last_window: i64::MIN,
                    windows_seen: 0,
                }
            })
            .collect();
        let mut sim = Sim {
            p,
            live,
            idle_ns_per_event,
            submit_us,
            freshness: Vec::new(),
            degraded_rows: 0,
        };
        for _ in 0..WARMUP_MS / CHUNK_MS {
            sim.p.run_for_ms(CHUNK_MS);
            sim.poll();
        }
        sim.freshness.clear();
        sim
    }

    /// What a troubleshooter's client does every 100 ms: look for new rows.
    /// A window's first row gives one freshness sample.
    fn poll(&mut self) -> u64 {
        let now_ms = self.p.now_ms();
        let mut new_rows = 0;
        for q in &mut self.live {
            let seen = q.rows_seen;
            for (window, degraded) in self.p.row_windows(q.query, seen) {
                q.rows_seen += 1;
                self.degraded_rows += u64::from(degraded);
                if window > q.last_window {
                    q.last_window = window;
                    q.windows_seen += 1;
                    self.freshness.push((now_ms - (window + WINDOW_MS)) as f64);
                }
            }
            new_rows += (q.rows_seen - seen) as u64;
        }
        new_rows
    }

    fn run_segment(&mut self, tr: &mut Tracer, traced: bool, chunk: &mut u64) -> Segment {
        tr.set_enabled(traced);
        let tap0 = self.p.tap_counters();
        let central0 = self.p.central_events();
        let t0 = Instant::now();
        for _ in 0..CHUNKS_PER_SEGMENT {
            let span = tr.open("chunk", *chunk);
            let p = &mut self.p;
            tr.timed("sim.run_until", span, *chunk, || {
                (p.run_for_ms(CHUNK_MS), 1)
            });
            tr.timed("server.poll", span, *chunk, || {
                let rows = self.poll();
                ((), rows)
            });
            tr.close(span, 1);
            *chunk += 1;
        }
        let wall_ns = t0.elapsed().as_nanos() as u64;
        let tap = self.p.tap_counters().since(&tap0);
        let idle_ns = (self.idle_ns_per_event * tap.log_calls as f64) as u64;
        let scrub_ns = wall_ns.saturating_sub(idle_ns).max(1);
        Segment {
            traced,
            events: tap.log_calls,
            wall_ns,
            host_ns: scrub_ns,
            central_ns: scrub_ns,
            central_events: self.p.central_events() - central0,
            wire_bytes: tap.bytes,
            shipped: tap.shipped,
        }
    }

    /// Stop every query, wait for ScrubCentral to drain, and check what the
    /// deployment says about itself. Returns the drain time in simulated ms.
    fn finish(&mut self, out: &mut Outcome) -> i64 {
        let stopped_at_ms = self.p.now_ms();
        for q in &self.live {
            self.p.stop(q.query);
        }
        while self.p.now_ms() < stopped_at_ms + 60_000
            && !self.live.iter().all(|q| self.p.is_done(q.query))
        {
            self.p.run_for_ms(CHUNK_MS);
        }
        let drain_ms = self.p.now_ms() - stopped_at_ms;
        // rows that only come out because the run ends are not freshness
        // samples
        let fresh = self.freshness.len();
        self.poll();
        self.freshness.truncate(fresh);
        let mut digest = RowsDigest::default();
        for q in &self.live {
            let done = self.p.is_done(q.query);
            if !done {
                out.errors
                    .push(format!("{}: not Done after the drain", q.name));
            }
            match self.p.ledger(q.query) {
                Some(l) => {
                    if !l.reconciles {
                        out.errors
                            .push(format!("{}: loss ledger does not reconcile", q.name));
                    }
                    if l.lost > 0 {
                        out.errors.push(format!(
                            "{}: {} of {} tapped events shed or dropped",
                            q.name, l.lost, l.tapped
                        ));
                    }
                    out.attempted += l.tapped;
                    out.delivered += if done { l.tapped - l.lost } else { 0 };
                }
                None => out.errors.push(format!("{}: no loss ledger", q.name)),
            }
            let windows = ((stopped_at_ms - q.submitted_at_ms) / WINDOW_MS) as u64;
            if q.windows_seen * 10 < windows * 9 {
                out.errors.push(format!(
                    "{}: rows for {} of {windows} windows",
                    q.name, q.windows_seen
                ));
            }
            for row in self.p.rows(q.query) {
                out.rows += 1;
                digest.add_line(&row.tsv);
            }
        }
        if self.degraded_rows > 0 {
            out.errors
                .push(format!("{} degraded rows", self.degraded_rows));
        }
        out.rows_digest = format!("{:016x}", digest.0);
        drain_ms
    }
}

/// One health-plane tick's pieces, timed on the end-of-run registry: µs per
/// call of snapshot, text rendering, telemetry-store record and alert tick.
fn obs_layers(p: &Platform, out: &mut Outcome) {
    fn per_call_us(calls: u32, mut f: impl FnMut()) -> f64 {
        let t0 = Instant::now();
        (0..calls).for_each(|_| f());
        t0.elapsed().as_secs_f64() * 1e6 / f64::from(calls)
    }
    let now_ms = p.now_ms();
    let snap = p.central_metrics(now_ms);
    out.layer("obs.metrics_registered", snap.metrics_registered() as f64);
    out.layer(
        "obs.snapshot_us",
        per_call_us(1_000, || {
            std::hint::black_box(p.central_metrics(now_ms));
        }),
    );
    out.layer(
        "obs.render_text_us",
        per_call_us(200, || {
            std::hint::black_box(snap.render_text());
        }),
    );
    // the store refuses a snapshot that does not advance the clock, and the
    // engine evaluates once per new snapshot: feed 1000 ticks, timing the
    // record and the tick of each on their own
    let mut plane = HealthPlane::new();
    let (mut record_ns, mut tick_ns) = (0u128, 0u128);
    for i in 0..1_000 {
        let next = snap.clone().at(now_ms + i);
        let t0 = Instant::now();
        std::hint::black_box(plane.record(next));
        record_ns += t0.elapsed().as_nanos();
        let t0 = Instant::now();
        std::hint::black_box(plane.alert_tick());
        tick_ns += t0.elapsed().as_nanos();
    }
    out.layer("obs.tsdb_record_us", record_ns as f64 / 1e6);
    out.layer("obs.alert_tick_us", tick_ns as f64 / 1e6);
}

fn layer_metrics(
    out: &mut Outcome,
    sim: &Sim,
    tap: &TapCounters,
    sim_events: u64,
    wire_bytes: u64,
    drain_ms: i64,
    tr: &Tracer,
) {
    let wall_ns: u64 = out.segments.iter().map(|s| s.wall_ns).sum();
    let events: u64 = out.segments.iter().map(|s| s.events).sum();
    let active_ns_per_event = median(
        &out.segments
            .iter()
            .map(|s| s.wall_ns as f64 / s.events as f64)
            .collect::<Vec<_>>(),
    );
    out.layer("central.rows_emitted", out.rows as f64);
    out.layer(
        "simnet.sim_events_per_wall_s",
        ratio(sim_events as f64 * 1e9, wall_ns as f64),
    );
    out.layer(
        "simnet.sim_events_per_tap_event",
        ratio(sim_events as f64, events as f64),
    );
    out.layer("simnet.wire_bytes_total", wire_bytes as f64);
    out.layer("adplatform.idle_ns_per_event", sim.idle_ns_per_event);
    out.layer(
        "server.scrub_share_of_wall",
        1.0 - ratio(sim.idle_ns_per_event, active_ns_per_event),
    );
    out.layer("server.submit_us", median(&sim.submit_us));
    let first_rows: Vec<f64> = sim
        .live
        .iter()
        .filter_map(|q| Some((sim.p.first_rows_at_ms(q.query)? - q.submitted_at_ms) as f64))
        .collect();
    if !first_rows.is_empty() {
        out.layer("server.time_to_first_row_ms", median(&first_rows));
    }
    out.layer("server.drain_ms", drain_ms as f64);
    tap_layers(out, tap);
    driver_layers(out, tr.spans());
    let ops: Vec<_> = sim
        .live
        .iter()
        .flat_map(|q| sim.p.op_profile(q.query))
        .collect();
    op_layers(out, &ops);
    obs_layers(&sim.p, out);
}

pub fn run(opts: &RunOpts) -> Outcome {
    let mut out = Outcome::default();
    let mut sim = crate::repeat_set_up(&mut out, || Sim::set_up(opts.seed));

    let mut tr = Tracer::new(false);
    let tap0 = sim.p.tap_counters();
    let (sim_events0, wire0) = (sim.p.sim_events(), sim.p.wire_bytes_total());
    let mut chunk = 0;
    crate::timed_section(opts, &mut out, |traced| {
        sim.run_segment(&mut tr, traced, &mut chunk)
    });
    let tap = sim.p.tap_counters().since(&tap0);
    let sim_events = sim.p.sim_events() - sim_events0;
    let wire_bytes = sim.p.wire_bytes_total() - wire0;
    let drain_ms = sim.finish(&mut out);
    out.freshness = std::mem::take(&mut sim.freshness);
    if opts.trace {
        layer_metrics(&mut out, &sim, &tap, sim_events, wire_bytes, drain_ms, &tr);
    }
    out.tracer = Some(tr);
    out
}
