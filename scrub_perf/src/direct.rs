//! The three direct workloads: real agents feed real executors, with no
//! simulator in between.
//!
//! One driver thread alternates a host phase (`log()` then `take_batches`)
//! and a central phase (`ingest` then `advance`) per 100 ms chunk of
//! simulated time — a closed loop, so the numbers measure the program and
//! not the box's scheduler. Ten chunks make one segment (one simulated
//! second, one tumbling window), the sample a wall-clock metric is taken
//! over. Simulated event rates keep every subscription under the
//! agents' default 50 k events/s shed budget, so nothing is shed.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use crate::layers::{
    self, double, long, text, Batch, Cell, Central, Compiled, Field, Host, RawRows, Row,
    TapCounters,
};
use crate::report::{driver_layers, op_layers, tap_layers, Outcome, Segment};
use crate::stats::{median, ratio, Rng, RowsDigest, Zipf};
use crate::trace::{totals_by_name, Span, Tracer};
use crate::RunOpts;

pub const CHUNK_MS: i64 = 100;
pub const CHUNKS_PER_SEGMENT: u64 = 10;
const WINDOW_MS: i64 = CHUNK_MS * CHUNKS_PER_SEGMENT as i64;
/// Simulated seconds run before timing starts: past the first window close
/// (window + grace = 3 s), so state sizes and caches are steady.
const WARMUP_SEGMENTS: u64 = 5;
/// Tuples per pool, cycled with fresh request ids and timestamps.
const POOL: usize = 65_536;
const USERS: usize = 5_000;
const EXCHANGES: u64 = 50;
const LINE_ITEMS: u64 = 200;
const COUNTRIES: [&str; 40] = [
    "us", "pt", "de", "jp", "fr", "br", "in", "cn", "gb", "es", "it", "nl", "se", "no", "fi", "dk",
    "pl", "cz", "at", "ch", "be", "ie", "gr", "tr", "ru", "ua", "mx", "ar", "cl", "co", "pe", "za",
    "eg", "ng", "ke", "au", "nz", "kr", "sg", "th",
];
const REASONS: [&str; 5] = [
    "budget_exhausted",
    "targeting_country",
    "targeting_segment",
    "frequency_cap",
    "floor_price",
];

/// What the oracles know about one pooled `bid` tuple.
#[derive(Debug, Clone, Copy)]
struct BidRaw {
    user: i64,
    exchange: i64,
    line_item: i64,
    campaign: i64,
    price: f64,
    country: usize,
}

#[derive(Debug, Clone, Copy)]
struct ExclRaw {
    line_item: i64,
    reason: usize,
}

fn bid_pool(seed: u64) -> Vec<BidRaw> {
    let mut rng = Rng::new(seed ^ 0xb1d);
    let users = Zipf::new(USERS, 1.05);
    (0..POOL)
        .map(|_| {
            let line_item = 1_000 + rng.below(LINE_ITEMS) as i64;
            BidRaw {
                user: users.sample(&mut rng) as i64,
                exchange: rng.below(EXCHANGES) as i64,
                line_item,
                campaign: 100 + (line_item - 1_000) / 4,
                price: rng.unit() * 2.0,
                country: rng.below(COUNTRIES.len() as u64) as usize,
            }
        })
        .collect()
}

fn excl_pool(seed: u64) -> Vec<ExclRaw> {
    let mut rng = Rng::new(seed ^ 0xe8c1);
    (0..POOL)
        .map(|_| ExclRaw {
            line_item: 1_000 + rng.below(LINE_ITEMS) as i64,
            reason: rng.below(REASONS.len() as u64) as usize,
        })
        .collect()
}

fn bid_tuple(b: &BidRaw) -> Vec<Field> {
    vec![
        long(b.user),
        long(b.exchange),
        long(b.line_item),
        long(b.campaign),
        double(b.price),
        text(COUNTRIES[b.country]),
        text("lisbon"),
    ]
}

fn excl_tuple(e: &ExclRaw) -> Vec<Field> {
    vec![
        long(e.line_item),
        long(100 + (e.line_item - 1_000) / 4),
        text(REASONS[e.reason]),
        long(e.line_item % EXCHANGES as i64),
        text("pub.example"),
    ]
}

/// One of `tap_fanout`'s 32 host-side predicates: the query text goes
/// through Scrub, `matches` is the oracle's own evaluation of it.
#[derive(Debug, Clone, Copy)]
enum Pred {
    ExchangeEq(i64),
    CountryEq(usize),
    PriceAboveAndLineItemBelow(f64, i64),
    PriceBelow(f64),
}

impl Pred {
    fn sql(&self) -> String {
        match self {
            Pred::ExchangeEq(x) => format!("bid.exchange_id = {x}"),
            Pred::CountryEq(c) => format!("bid.country = '{}'", COUNTRIES[*c]),
            Pred::PriceAboveAndLineItemBelow(p, li) => {
                format!("bid.bid_price > {p:?} and bid.line_item_id < {li}")
            }
            Pred::PriceBelow(p) => format!("bid.bid_price < {p:?}"),
        }
    }

    fn matches(&self, b: &BidRaw) -> bool {
        match *self {
            Pred::ExchangeEq(x) => b.exchange == x,
            Pred::CountryEq(c) => b.country == c,
            Pred::PriceAboveAndLineItemBelow(p, li) => b.price > p && b.line_item < li,
            Pred::PriceBelow(p) => b.price < p,
        }
    }
}

/// The 32 `tap_fanout` subscriptions: numeric, string-equality,
/// conjunctive and range predicates, each passing about 2 % of events.
/// Odd ones also ship `bid_price` for an AVG.
fn fanout_preds() -> Vec<(Pred, bool)> {
    (0..32usize)
        .map(|i| {
            let v = (i / 4) as i64;
            let pred = match i % 4 {
                0 => Pred::ExchangeEq(v * 6),
                1 => Pred::CountryEq(i),
                2 => Pred::PriceAboveAndLineItemBelow(1.6 + 0.025 * v as f64, 1_020 + 5 * v),
                _ => Pred::PriceBelow(0.03 + 0.003 * v as f64),
            };
            (pred, i % 2 == 1)
        })
        .collect()
}

fn fanout_sql(pred: &Pred, with_avg: bool) -> String {
    let select = if with_avg {
        "COUNT(*), AVG(bid.bid_price)"
    } else {
        "COUNT(*)"
    };
    format!("select {select} from bid where {} window 1 s", pred.sql())
}

const AGG_SQL: &str = "select bid.user_id, COUNT(*), AVG(bid.bid_price) from bid \
                       group by bid.user_id window 1 s";
const JOIN_SQL: &str = "select exclusion.reason, COUNT(*) from bid, exclusion \
                        where bid.line_item_id = exclusion.line_item_id or bid.bid_price > 1.5 \
                        group by exclusion.reason window 1 s";

/// The slice of the generated stream one application thread logs.
struct Stream {
    type_id: u32,
    pool: Arc<Vec<Vec<Field>>>,
    /// `log()` calls per chunk.
    per_chunk: u64,
    /// Events per request: consecutive events share a request id and a
    /// timestamp (the 4 exclusions of one bid request).
    per_request: u64,
    /// Request id of event `k` is `rid_base + (k / per_request) * rid_step`.
    rid_base: u64,
    rid_step: u64,
    /// Pool index of event `k` is `(pool_offset + k) % POOL`.
    pool_offset: usize,
}

impl Stream {
    fn log_chunk(&self, host: &Host, chunk: u64) {
        let requests_per_chunk = self.per_chunk / self.per_request;
        let t0 = chunk as i64 * CHUNK_MS;
        let k0 = chunk * self.per_chunk;
        let mut idx = (self.pool_offset + k0 as usize) % POOL;
        for j in 0..self.per_chunk {
            let request = j / self.per_request;
            let rid = self.rid_base + (k0 / self.per_request + request) * self.rid_step;
            let ts = t0 + (request * CHUNK_MS as u64 / requests_per_chunk) as i64;
            host.log(self.type_id, rid, ts, &self.pool[idx]);
            idx += 1;
            if idx == POOL {
                idx = 0;
            }
        }
    }
}

/// One agent and the stream logged to it.
struct Feed {
    host: Host,
    stream: Stream,
}

/// The benchmark's own fold of the stream it generated, per workload.
enum Oracle {
    /// Closed form: prefix sums over the pool of each predicate's matches
    /// (and, where the query has an AVG, of the matched prices).
    Fanout {
        per_chunk: u64,
        matches: Vec<Vec<f64>>,
        prices: Vec<Option<Vec<f64>>>,
        rows_seen: Vec<u64>,
    },
    /// Count and sum per window x user.
    Agg {
        raw: Vec<BidRaw>,
        /// `(pool_offset, per_chunk)` of each agent's stream.
        streams: Vec<(usize, u64)>,
        windows: BTreeMap<i64, AggWindow>,
    },
    /// Residual-passing join rows per window x reason.
    Join {
        bids: Vec<BidRaw>,
        excls: Vec<ExclRaw>,
        requests_per_chunk: u64,
        windows: BTreeMap<i64, [u64; REASONS.len()]>,
    },
}

struct AggWindow {
    count: Vec<u64>,
    sum: Vec<f64>,
}

/// What the oracle makes of one row: the events it wants the row to count,
/// the events the row's COUNT(*) reports, and whether the row is right.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Claim {
    want: u64,
    got: u64,
    ok: bool,
}

impl Claim {
    fn new(want: u64, got: i64, rest_ok: bool) -> Self {
        Claim {
            want,
            got: got.max(0) as u64,
            ok: rest_ok && want > 0 && got >= 0 && got as u64 == want,
        }
    }
}

fn close_enough(got: f64, want: f64) -> bool {
    (got - want).abs() <= 1e-9 * want.abs()
}

/// Prefix sums of `f` over one pool cycle (`POOL + 1` entries).
fn prefix_sums(bids: &[BidRaw], f: impl Fn(&BidRaw) -> f64) -> Vec<f64> {
    let mut acc = Vec::with_capacity(POOL + 1);
    acc.push(0.0);
    for b in bids {
        acc.push(acc[acc.len() - 1] + f(b));
    }
    acc
}

/// Sum over stream positions `k0..k1` of a quantity given by its prefix
/// sums over one pool cycle.
fn range_sum(prefix: &[f64], k0: u64, k1: u64) -> f64 {
    let at = |k: u64| (k / POOL as u64) as f64 * prefix[POOL] + prefix[k as usize % POOL];
    at(k1) - at(k0)
}

impl Oracle {
    /// Fold one chunk of the generated stream.
    fn offer(&mut self, chunk: u64) {
        let w = chunk as i64 * CHUNK_MS / WINDOW_MS * WINDOW_MS;
        match self {
            Oracle::Fanout { .. } => {}
            Oracle::Agg {
                raw,
                streams,
                windows,
            } => {
                let win = windows.entry(w).or_insert_with(|| AggWindow {
                    count: vec![0; USERS],
                    sum: vec![0.0; USERS],
                });
                for &(offset, per_chunk) in streams.iter() {
                    let k0 = chunk * per_chunk;
                    for k in k0..k0 + per_chunk {
                        let b = &raw[(offset + k as usize) % POOL];
                        win.count[b.user as usize] += 1;
                        win.sum[b.user as usize] += b.price;
                    }
                }
            }
            Oracle::Join {
                bids,
                excls,
                requests_per_chunk,
                windows,
            } => {
                let win = windows.entry(w).or_insert([0; REASONS.len()]);
                let r0 = chunk * *requests_per_chunk;
                for r in r0..r0 + *requests_per_chunk {
                    let b = &bids[r as usize % POOL];
                    for e in 4 * r..4 * r + 4 {
                        let x = &excls[e as usize % POOL];
                        if b.line_item == x.line_item || b.price > 1.5 {
                            win[x.reason] += 1;
                        }
                    }
                }
            }
        }
    }

    /// Check one emitted row against the events the oracle says it must
    /// count, claiming them so that no second row can.
    fn claim(&mut self, query: usize, row: &Row) -> Claim {
        let w = row.window_start_ms;
        let none = Claim {
            want: 0,
            got: 0,
            ok: false,
        };
        match self {
            Oracle::Fanout {
                per_chunk,
                matches,
                prices,
                rows_seen,
            } => {
                rows_seen[query] += 1;
                let k0 = (w / CHUNK_MS) as u64 * *per_chunk;
                let k1 = k0 + CHUNKS_PER_SEGMENT * *per_chunk;
                let want = range_sum(&matches[query], k0, k1) as u64;
                let Some(Cell::Int(got)) = row.cells.first() else {
                    return none;
                };
                let avg_ok = match (&prices[query], row.cells.get(1)) {
                    (Some(p), Some(Cell::Num(avg))) => {
                        close_enough(*avg, range_sum(p, k0, k1) / want as f64)
                    }
                    (None, None) => true,
                    _ => false,
                };
                Claim::new(want, *got, avg_ok)
            }
            Oracle::Agg { windows, .. } => match (windows.get_mut(&w), &row.cells[..]) {
                (Some(win), [Cell::Int(user), Cell::Int(got), Cell::Num(avg)])
                    if (0..USERS as i64).contains(user) =>
                {
                    let u = *user as usize;
                    let want = std::mem::take(&mut win.count[u]);
                    Claim::new(want, *got, close_enough(*avg, win.sum[u] / want as f64))
                }
                _ => none,
            },
            Oracle::Join { windows, .. } => match (windows.get_mut(&w), &row.cells[..]) {
                (Some(win), [Cell::Text(reason), Cell::Int(got)]) => {
                    match REASONS.iter().position(|r| r == reason) {
                        Some(i) => Claim::new(std::mem::take(&mut win[i]), *got, true),
                        None => none,
                    }
                }
                _ => none,
            },
        }
    }

    /// Forget windows every event of which a row has claimed.
    fn forget_claimed(&mut self) {
        match self {
            Oracle::Fanout { .. } => {}
            Oracle::Agg { windows, .. } => windows.retain(|_, w| w.count.iter().any(|c| *c > 0)),
            Oracle::Join { windows, .. } => windows.retain(|_, w| w.iter().any(|c| *c > 0)),
        }
    }

    /// After the last row of `chunks` chunks: the events no row claimed,
    /// with a message per window or query that is short.
    fn unclaimed(&self, chunks: u64, errors: &mut Vec<String>) -> u64 {
        let mut left = 0;
        match self {
            Oracle::Fanout {
                per_chunk,
                matches,
                rows_seen,
                ..
            } => {
                let per_window = CHUNKS_PER_SEGMENT * *per_chunk;
                for (q, m) in matches.iter().enumerate() {
                    let want = (0..chunks / CHUNKS_PER_SEGMENT)
                        .filter(|w| range_sum(m, w * per_window, (w + 1) * per_window) > 0.0)
                        .count() as u64;
                    if rows_seen[q] != want {
                        left += 1;
                        errors.push(format!("q{q}: {} rows, oracle {want}", rows_seen[q]));
                    }
                }
            }
            Oracle::Agg { windows, .. } => {
                for (w, win) in windows {
                    let n: u64 = win.count.iter().sum();
                    if n > 0 {
                        left += n;
                        errors.push(format!("window {w}: {n} events in no row"));
                    }
                }
            }
            Oracle::Join { windows, .. } => {
                for (w, win) in windows {
                    let n: u64 = win.iter().sum();
                    if n > 0 {
                        left += n;
                        errors.push(format!("window {w}: {n} join rows in no row"));
                    }
                }
            }
        }
        left
    }
}

/// One direct workload, set up and ready to run chunks.
pub struct Direct {
    feeds: Vec<Feed>,
    /// One executor per query, indexed by query id - 1.
    centrals: Vec<Central>,
    /// Where `ingest` + `advance` are a few percent of the wall
    /// (`tap_fanout`: about 5 %), the phase is too short and cache-cold to
    /// time within the bound — link order alone moved it 17 % between two
    /// builds of this benchmark. `central_events_per_s` is then taken over
    /// the wall of the whole path: the load this host offers ScrubCentral.
    central_over_whole_path: bool,
    oracle: Oracle,
    /// Wall of each parse+compile and of each install, in µs.
    compile_us: Vec<f64>,
    install_us: Vec<f64>,
    next_chunk: u64,
    /// Latest window a row was seen for, per query: freshness counts a
    /// window's first row only.
    last_window: Vec<i64>,
    freshness: Vec<f64>,
    digest: RowsDigest,
    rows: u64,
    /// Events the oracle wanted counted by the rows seen so far, and the
    /// events those rows did count.
    attempted: u64,
    delivered: u64,
    errors: Vec<String>,
}

fn timed_us<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64() * 1e6)
}

impl Direct {
    /// Generate the pools, compile and install the queries: everything
    /// before the first `log()`.
    pub fn build(workload: &str, seed: u64) -> Self {
        let schemas = layers::schemas();
        let mut compile_us = Vec::new();
        let mut install_us = Vec::new();
        let mut compile = |src: &str, qid: u64| -> Compiled {
            let (q, us) = timed_us(|| layers::compile_query(&schemas, src, qid));
            compile_us.push(us);
            q
        };
        let mut install = |name: &str, q: &[&Compiled], type_id: u32| -> Host {
            let host = Host::new(name);
            for q in q {
                let ((), us) = timed_us(|| host.install(q, type_id));
                install_us.push(us);
            }
            host
        };
        let stream = |type_id: u32, pool: &Arc<Vec<Vec<Field>>>, per_chunk: u64| Stream {
            type_id,
            pool: Arc::clone(pool),
            per_chunk,
            per_request: 1,
            rid_base: 0,
            rid_step: 1,
            pool_offset: 0,
        };
        let bids = bid_pool(seed);
        let bid_tuples = Arc::new(bids.iter().map(bid_tuple).collect::<Vec<_>>());
        let (feeds, centrals, oracle) = match workload {
            "tap_fanout" => {
                let per_chunk = 5_000;
                let preds = fanout_preds();
                let queries: Vec<Compiled> = preds
                    .iter()
                    .enumerate()
                    .map(|(i, (pred, with_avg))| {
                        compile(&fanout_sql(pred, *with_avg), i as u64 + 1)
                    })
                    .collect();
                let host = install("bid-0", &queries.iter().collect::<Vec<_>>(), schemas.bid);
                let oracle = Oracle::Fanout {
                    per_chunk,
                    matches: preds
                        .iter()
                        .map(|(p, _)| prefix_sums(&bids, |b| f64::from(u8::from(p.matches(b)))))
                        .collect(),
                    prices: preds
                        .iter()
                        .map(|(p, with_avg)| {
                            with_avg.then(|| {
                                prefix_sums(&bids, |b| if p.matches(b) { b.price } else { 0.0 })
                            })
                        })
                        .collect(),
                    rows_seen: vec![0; preds.len()],
                };
                let feed = Feed {
                    host,
                    stream: stream(schemas.bid, &bid_tuples, per_chunk),
                };
                (
                    vec![feed],
                    queries.iter().map(Central::new).collect(),
                    oracle,
                )
            }
            "agg_ingest" => {
                let per_chunk = 4_000;
                let q = compile(AGG_SQL, 1);
                let feeds: Vec<Feed> = (0..4usize)
                    .map(|a| Feed {
                        host: install(&format!("bid-{a}"), &[&q], schemas.bid),
                        stream: Stream {
                            rid_base: a as u64,
                            rid_step: 4,
                            pool_offset: a * POOL / 4,
                            ..stream(schemas.bid, &bid_tuples, per_chunk)
                        },
                    })
                    .collect();
                let oracle = Oracle::Agg {
                    raw: bids,
                    streams: feeds
                        .iter()
                        .map(|f| (f.stream.pool_offset, f.stream.per_chunk))
                        .collect(),
                    windows: BTreeMap::new(),
                };
                (feeds, vec![Central::new(&q)], oracle)
            }
            "join_ingest" => {
                let requests_per_chunk = 1_000;
                let excls = excl_pool(seed);
                let excl_tuples = Arc::new(excls.iter().map(excl_tuple).collect::<Vec<_>>());
                let q = compile(JOIN_SQL, 1);
                let feeds = vec![
                    Feed {
                        host: install("bid-0", &[&q], schemas.bid),
                        stream: stream(schemas.bid, &bid_tuples, requests_per_chunk),
                    },
                    Feed {
                        host: install("ad-0", &[&q], schemas.exclusion),
                        stream: Stream {
                            per_request: 4,
                            ..stream(schemas.exclusion, &excl_tuples, 4 * requests_per_chunk)
                        },
                    },
                ];
                let oracle = Oracle::Join {
                    bids,
                    excls,
                    requests_per_chunk,
                    windows: BTreeMap::new(),
                };
                (feeds, vec![Central::new(&q)], oracle)
            }
            other => panic!("not a direct workload: {other}"),
        };
        Direct {
            last_window: vec![i64::MIN; centrals.len()],
            central_over_whole_path: workload == "tap_fanout",
            feeds,
            centrals,
            oracle,
            compile_us,
            install_us,
            next_chunk: 0,
            freshness: Vec::new(),
            digest: RowsDigest::default(),
            rows: 0,
            attempted: 0,
            delivered: 0,
            errors: Vec::new(),
        }
    }

    fn tap_counters(&self) -> TapCounters {
        self.feeds.iter().fold(TapCounters::default(), |acc, f| {
            acc.plus(&f.host.counters())
        })
    }

    /// Digest and check the rows one executor returned at `now_ms`.
    fn verify(&mut self, query: usize, raw: &RawRows, now_ms: i64) {
        let rows = layers::convert_rows(raw);
        for row in &rows {
            self.digest.add_line(&row.tsv);
            if row.window_start_ms > self.last_window[query] {
                self.last_window[query] = row.window_start_ms;
                self.freshness
                    .push((now_ms - (row.window_start_ms + WINDOW_MS)) as f64);
            }
            let claim = self.oracle.claim(query, row);
            self.attempted += claim.want;
            self.delivered += claim.got;
            if (!claim.ok || row.degraded) && self.errors.len() < 20 {
                self.errors.push(format!(
                    "q{} row {:?}: oracle wants a count of {}{}",
                    query + 1,
                    row.tsv,
                    claim.want,
                    if row.degraded {
                        ", row is degraded"
                    } else {
                        ""
                    }
                ));
            }
        }
        self.rows += rows.len() as u64;
    }

    /// The central phase of a chunk; returns each executor's new rows.
    fn ingest_and_advance(
        &mut self,
        batches: Vec<Batch>,
        now_ms: i64,
        parent: Option<usize>,
        tr: &mut Tracer,
        seg: &mut Segment,
    ) -> Vec<RawRows> {
        let chunk = self.next_chunk;
        for b in &batches {
            seg.wire_bytes += b.wire_bytes();
            seg.shipped += b.events();
        }
        let centrals = &mut self.centrals;
        let (n, ns) = tr.timed("central.ingest", parent, chunk, || {
            let mut n = 0;
            for b in batches {
                n += b.events();
                centrals[b.query_id() as usize - 1].ingest(b);
            }
            (n, n)
        });
        seg.central_events += n;
        seg.central_ns += ns;
        let (emitted, ns) = tr.timed("central.advance", parent, chunk, || {
            let emitted: Vec<RawRows> = centrals.iter_mut().map(|c| c.advance(now_ms)).collect();
            let n = emitted.iter().map(|r| r.len() as u64).sum();
            (emitted, n)
        });
        seg.central_ns += ns;
        emitted
    }

    fn verify_all(&mut self, emitted: &[RawRows], now_ms: i64) {
        for (q, raw) in emitted.iter().enumerate() {
            self.verify(q, raw, now_ms);
        }
    }

    /// One 100 ms chunk of simulated time through the whole path. The
    /// oracle's fold of the chunk and the check of the rows it produced are
    /// the benchmark's work, not the program's, and happen off the clock.
    fn run_chunk(&mut self, tr: &mut Tracer, seg: &mut Segment) {
        let chunk = self.next_chunk;
        let now_ms = (chunk as i64 + 1) * CHUNK_MS;
        let t0 = Instant::now();
        let span = tr.open("chunk", chunk);
        let mut batches = Vec::new();
        let mut events = 0;
        for feed in &self.feeds {
            let ((), ns) = tr.timed("agent.log", span, chunk, || {
                feed.stream.log_chunk(&feed.host, chunk);
                ((), feed.stream.per_chunk)
            });
            seg.host_ns += ns;
            events += feed.stream.per_chunk;
            let (taken, ns) = tr.timed("agent.take_batches", span, chunk, || {
                let taken = feed.host.take_batches(now_ms);
                let n = taken.len() as u64;
                (taken, n)
            });
            seg.host_ns += ns;
            batches.extend(taken);
        }
        let emitted = self.ingest_and_advance(batches, now_ms, span, tr, seg);
        tr.close(span, events);
        seg.events += events;
        seg.wall_ns += t0.elapsed().as_nanos() as u64;
        self.oracle.offer(chunk);
        self.verify_all(&emitted, now_ms);
        self.next_chunk += 1;
        if self.next_chunk.is_multiple_of(CHUNKS_PER_SEGMENT) {
            self.oracle.forget_claimed();
        }
    }

    fn run_segment(&mut self, tr: &mut Tracer, traced: bool) -> Segment {
        tr.set_enabled(traced);
        let mut seg = Segment {
            traced,
            ..Segment::default()
        };
        for _ in 0..CHUNKS_PER_SEGMENT {
            self.run_chunk(tr, &mut seg);
        }
        if self.central_over_whole_path {
            seg.central_ns = seg.wall_ns;
        }
        seg
    }

    /// Flush the agents' tails, close every window, check what is left.
    /// Returns the wall of the `finish` calls in ms.
    fn finish(&mut self, tr: &mut Tracer) -> f64 {
        // rows that only come out because the run ends are not freshness
        // samples
        let fresh = self.freshness.len();
        let now_ms = self.next_chunk as i64 * CHUNK_MS + layers::FLUSH_INTERVAL_MS;
        let mut tail = Vec::new();
        for feed in &self.feeds {
            tail.extend(feed.host.take_batches(now_ms));
        }
        let emitted = self.ingest_and_advance(tail, now_ms, None, tr, &mut Segment::default());
        self.verify_all(&emitted, now_ms);
        let centrals = &mut self.centrals;
        let (emitted, ns) = tr.timed("central.finish", None, self.next_chunk, || {
            let emitted: Vec<RawRows> = centrals.iter_mut().map(Central::finish).collect();
            let n = emitted.iter().map(|r| r.len() as u64).sum();
            (emitted, n)
        });
        self.verify_all(&emitted, now_ms);
        self.freshness.truncate(fresh);
        self.attempted += self.oracle.unclaimed(self.next_chunk, &mut self.errors);
        ns as f64 / 1e6
    }
}

/// `log()` ns per call on a fresh agent with `sqls` installed and `threads`
/// application threads: the side passes behind `agent.tap.log_ns_q*`,
/// `agent.tap.ship_ns_per_event` and `agent.tap.log_contended_ns`.
fn tap_pass(seed: u64, sqls: &[String], events: u64, threads: u64) -> f64 {
    let schemas = layers::schemas();
    let host = Host::new("side-0");
    for (i, sql) in sqls.iter().enumerate() {
        host.install(
            &layers::compile_query(&schemas, sql, i as u64 + 1),
            schemas.bid,
        );
    }
    let pool = Arc::new(bid_pool(seed).iter().map(bid_tuple).collect::<Vec<_>>());
    // 40 k events per simulated second over all threads: a pass-through
    // query stays under the shed budget
    let per_chunk = 4_000 / threads;
    let chunks = events / 4_000;
    let streams: Vec<Stream> = (0..threads)
        .map(|t| Stream {
            type_id: schemas.bid,
            pool: Arc::clone(&pool),
            per_chunk,
            per_request: 1,
            rid_base: t,
            rid_step: threads,
            pool_offset: t as usize * POOL / threads as usize,
        })
        .collect();
    let mut busy_ns = 0;
    if let [stream] = &streams[..] {
        for chunk in 0..chunks {
            let t0 = Instant::now();
            stream.log_chunk(&host, chunk);
            busy_ns += t0.elapsed().as_nanos() as u64;
            std::hint::black_box(host.take_batches((chunk as i64 + 1) * CHUNK_MS));
        }
    } else {
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for stream in &streams {
                let host = &host;
                s.spawn(move || (0..chunks).for_each(|chunk| stream.log_chunk(host, chunk)));
            }
        });
        busy_ns = t0.elapsed().as_nanos() as u64;
        std::hint::black_box(host.take_batches(i64::MAX / 4));
    }
    busy_ns as f64 / (chunks * per_chunk * threads) as f64
}

/// The tap layer's side passes (`tap_fanout`'s traced run only).
fn tap_side_passes(seed: u64, out: &mut Outcome) {
    let fanout: Vec<String> = fanout_preds()
        .iter()
        .map(|(p, avg)| fanout_sql(p, *avg))
        .collect();
    for q in [0usize, 1, 8, 32] {
        // the idle fast path is a few ns a call: give it more calls
        let events = if q == 0 { 4_000_000 } else { 400_000 };
        let ns = tap_pass(seed, &fanout[..q], events, 1);
        out.layer(&format!("agent.tap.log_ns_q{q}"), ns);
    }
    let ship_all = tap_pass(seed, &[AGG_SQL.to_string()], 800_000, 1);
    let never = "select COUNT(*) from bid where bid.exchange_id = 9999 window 1 s";
    let ship_none = tap_pass(seed, &[never.to_string()], 800_000, 1);
    out.layer("agent.tap.ship_ns_per_event", ship_all - ship_none);
    out.layer(
        "agent.tap.log_contended_ns",
        tap_pass(seed, &fanout, 400_000, 2),
    );
}

/// The per-layer metrics of a direct workload, from the spans around the
/// calls into each layer and the layers' own counters.
fn layer_metrics(out: &mut Outcome, d: &Direct, tap: &TapCounters, finish_ms: f64, spans: &[Span]) {
    let totals = totals_by_name(spans);
    let of = |name: &str| totals.get(name).copied().unwrap_or_default();
    let per = |ns: u64, n: u64| ratio(ns as f64, n as f64);
    let (log, take) = (of("agent.log"), of("agent.take_batches"));
    let (ingest, advance) = (of("central.ingest"), of("central.advance"));
    out.layer("core.ql.compile_us", median(&d.compile_us));
    out.layer("agent.install_us", median(&d.install_us));
    out.layer("agent.tap.log_ns", per(log.total_ns, log.count));
    out.layer(
        "agent.batch.take_batches_ns_per_event",
        per(take.total_ns, log.count),
    );
    out.layer(
        "central.ingest_ns_per_event",
        per(ingest.total_ns, ingest.count),
    );
    out.layer(
        "central.advance_ns_per_row",
        per(advance.total_ns, advance.count),
    );
    out.layer("central.rows_emitted", d.rows as f64);
    out.layer("central.finish_ms", finish_ms);
    tap_layers(out, tap);
    driver_layers(out, spans);
    let ops: Vec<layers::OpStat> = d.centrals.iter().flat_map(Central::op_profile).collect();
    op_layers(out, &ops);
}

/// Run one direct workload: set up (several times, for a steady
/// `setup_s`), time segments until `--seconds` have passed or `--events`
/// are logged, finish, check.
pub fn run(workload: &str, opts: &RunOpts) -> Outcome {
    let mut out = Outcome::default();
    let mut tr = Tracer::new(false);
    let mut d = crate::repeat_set_up(&mut out, || {
        let mut d = Direct::build(workload, opts.seed);
        for _ in 0..WARMUP_SEGMENTS {
            d.run_segment(&mut tr, false);
        }
        d
    });

    let tap_before = d.tap_counters();
    crate::timed_section(opts, &mut out, |traced| d.run_segment(&mut tr, traced));
    tr.set_enabled(opts.trace);
    let finish_ms = d.finish(&mut tr);
    let tap = d.tap_counters().since(&tap_before);

    if opts.trace {
        layer_metrics(&mut out, &d, &tap, finish_ms, tr.spans());
        if workload == "tap_fanout" {
            tap_side_passes(opts.seed, &mut out);
        }
    }
    out.attempted = d.attempted;
    out.delivered = d.delivered;
    out.rows = d.rows;
    out.rows_digest = format!("{:016x}", d.digest.0);
    out.freshness = d.freshness;
    out.errors = d.errors;
    if tap.shed > 0 {
        out.errors
            .push(format!("{} events shed by an agent", tap.shed));
    }
    out.tracer = Some(tr);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A short fixed-count run without the repeated set-up: the digest and
    /// every count the oracle and the layers report.
    fn fixed_run(workload: &str, seed: u64, traced: bool) -> (u64, u64, u64, u64, TapCounters) {
        let mut d = Direct::build(workload, seed);
        let mut tr = Tracer::new(traced);
        for _ in 0..4 {
            d.run_segment(&mut tr, traced);
        }
        d.finish(&mut tr);
        assert_eq!(d.errors, Vec::<String>::new(), "{workload} oracle");
        assert_eq!(d.attempted, d.delivered, "{workload} lost events");
        assert!(d.rows > 0 && d.attempted > 0);
        (
            d.digest.0,
            d.rows,
            d.attempted,
            d.freshness.len() as u64,
            d.tap_counters(),
        )
    }

    #[test]
    fn same_seed_same_counts_and_digest_traced_or_not() {
        for workload in ["tap_fanout", "agg_ingest", "join_ingest"] {
            let a = fixed_run(workload, 1, false);
            assert_eq!(a, fixed_run(workload, 1, true), "{workload}");
            let other = fixed_run(workload, 2, false);
            assert_ne!(a.0, other.0, "{workload}: seed must change the digest");
        }
    }

    #[test]
    fn fanout_predicates_ship_about_two_percent() {
        let bids = bid_pool(1);
        for (pred, _) in fanout_preds() {
            let share = bids.iter().filter(|b| pred.matches(b)).count() as f64 / POOL as f64;
            assert!((0.01..0.04).contains(&share), "{pred:?} passes {share}");
        }
    }

    #[test]
    fn the_oracle_refuses_a_wrong_row() {
        let mut d = Direct::build("join_ingest", 1);
        d.oracle.offer(0);
        let row = |count| Row {
            window_start_ms: 0,
            cells: vec![Cell::Text(REASONS[0].to_string()), Cell::Int(count)],
            degraded: false,
            tsv: String::new(),
        };
        let Oracle::Join { windows, .. } = &d.oracle else {
            unreachable!()
        };
        let want = windows[&0][0];
        assert!(want > 0);
        let wrong = d.oracle.claim(0, &row(want as i64 + 1));
        assert_eq!((wrong.want, wrong.got, wrong.ok), (want, want + 1, false));
        // the first row claimed the events: a second row finds none
        assert!(!d.oracle.claim(0, &row(want as i64)).ok);
    }
}
