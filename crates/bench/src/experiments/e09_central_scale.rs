//! E09 — ScrubCentral ingest throughput (§9; reconstructed — the paper
//! runs ScrubCentral as a small dedicated cluster, which here is whole
//! queries spread across central nodes, so the figure that sizes the
//! cluster is what one executor sustains on one core).
//!
//! Method (real wall-clock measurement, not simulation): a grouped-count
//! query ingests a fixed stream of pre-built batches through the
//! *production* [`QueryExecutor`], once columnar-encoded and once
//! row-encoded. Rendered rows must be identical across the two wire
//! formats. Results land in `BENCH_central_ingest.json` at the workspace
//! root so later changes have a baseline to compare against.

use std::time::Instant;

use scrub_agent::{BatchPayload, EventBatch};
use scrub_central::{QueryExecutor, ResultRow};
use scrub_core::config::{ScrubConfig, WireFormat};
use scrub_core::event::{Event, RequestId};
use scrub_core::plan::{compile, CentralPlan, QueryId};
use scrub_core::ql::parser::parse_query;
use scrub_core::schema::{EventSchema, EventTypeId, FieldDef, FieldType, SchemaRegistry};
use scrub_core::value::Value;

use crate::{Report, Table};

const BATCH_EVENTS: usize = 4_096;

/// The core-count signals the bench records alongside its numbers.
/// Perf figures are only comparable across runs on machines with the
/// same *effective* core count, and in containers the scheduler-visible
/// count (`available_parallelism`, which honors cpuset/affinity) can
/// differ from both the raw `/proc/cpuinfo` count and the cgroup CPU
/// quota — so all three are detected and persisted.
#[derive(Debug, Clone, Copy)]
pub struct CoreSignals {
    /// `std::thread::available_parallelism()` (affinity/cpuset-aware).
    pub available_parallelism: usize,
    /// Processors listed in `/proc/cpuinfo` (the raw machine, quota-blind).
    pub cpuinfo: Option<usize>,
    /// Cores granted by the cgroup CPU quota (v2 `cpu.max` or v1
    /// `cpu.cfs_quota_us`/`cpu.cfs_period_us`), rounded up; `None` when
    /// unlimited or not in a cgroup.
    pub cgroup_quota: Option<usize>,
}

impl CoreSignals {
    /// Detect every signal on this machine.
    pub fn detect() -> Self {
        CoreSignals {
            available_parallelism: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            cpuinfo: cpuinfo_processors(),
            cgroup_quota: cgroup_quota_cores(),
        }
    }

    /// The effective core count perf numbers should be judged against:
    /// the scheduler-visible parallelism, further clamped by any cgroup
    /// CPU quota (a container can show 64 schedulable CPUs yet only be
    /// allowed 1 core of runtime).
    pub fn effective(&self) -> usize {
        let mut cores = self.available_parallelism;
        if let Some(q) = self.cgroup_quota {
            cores = cores.min(q);
        }
        cores.max(1)
    }
}

fn cpuinfo_processors() -> Option<usize> {
    let text = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    let n = text.lines().filter(|l| l.starts_with("processor")).count();
    (n > 0).then_some(n)
}

/// Cores granted by the cgroup CPU controller, if this process runs
/// under a quota. Checks cgroup v2 (`/sys/fs/cgroup/cpu.max`: either
/// `max <period>` for unlimited or `<quota> <period>`), then cgroup v1
/// (`cpu.cfs_quota_us` of -1 for unlimited over `cpu.cfs_period_us`).
fn cgroup_quota_cores() -> Option<usize> {
    if let Ok(text) = std::fs::read_to_string("/sys/fs/cgroup/cpu.max") {
        let mut it = text.split_whitespace();
        let quota = it.next()?;
        if quota == "max" {
            return None;
        }
        let quota: f64 = quota.parse().ok()?;
        let period: f64 = it.next()?.parse().ok()?;
        if quota > 0.0 && period > 0.0 {
            return Some((quota / period).ceil() as usize);
        }
        return None;
    }
    let quota: f64 = std::fs::read_to_string("/sys/fs/cgroup/cpu/cpu.cfs_quota_us")
        .ok()?
        .trim()
        .parse()
        .ok()?;
    if quota <= 0.0 {
        return None; // -1: unlimited
    }
    let period: f64 = std::fs::read_to_string("/sys/fs/cgroup/cpu/cpu.cfs_period_us")
        .ok()?
        .trim()
        .parse()
        .ok()?;
    (period > 0.0).then(|| (quota / period).ceil() as usize)
}

fn plan() -> CentralPlan {
    let reg = SchemaRegistry::new();
    reg.register(
        EventSchema::new(
            "bid",
            vec![
                FieldDef::new("user_id", FieldType::Long),
                FieldDef::new("price", FieldType::Double),
            ],
        )
        .unwrap(),
    )
    .unwrap();
    let spec = parse_query(
        "select bid.user_id, COUNT(*), AVG(bid.price) from bid \
         group by bid.user_id window 10 s",
    )
    .unwrap();
    compile(&spec, &reg, &ScrubConfig::default(), QueryId(1))
        .unwrap()
        .central
}

/// Pre-build the ingest feed: `n` events chunked into batches the way an
/// agent would ship them (encoded in `format`), with cumulative
/// matched/sampled counters.
fn make_batches(n: usize, format: WireFormat) -> Vec<EventBatch> {
    let events: Vec<Event> = (0..n)
        .map(|i| {
            Event::new(
                EventTypeId(0),
                RequestId(i as u64),
                (i % 60_000) as i64,
                vec![
                    Value::Long((i % 5_000) as i64),
                    Value::Double((i % 100) as f64 * 0.01),
                ],
            )
        })
        .collect();
    let mut batches = Vec::with_capacity(n / BATCH_EVENTS + 1);
    let mut cumulative = 0u64;
    for (seq, chunk) in events.chunks(BATCH_EVENTS).enumerate() {
        cumulative += chunk.len() as u64;
        batches.push(EventBatch {
            seq: seq as u64,
            attempt: 0,
            seq_floor: 0,
            watermark_ms: None,
            query_id: QueryId(1),
            type_id: EventTypeId(0),
            host: "h".into(),
            payload: BatchPayload::from_events(chunk.to_vec(), format),
            matched: cumulative,
            sampled: cumulative,
            shed: 0,
            budget_shed: 0,
            seen: cumulative,
            bytes: 0,
            spans: vec![],
        });
    }
    batches
}

/// Ingest the batch feed through the production executor; returns
/// (events/sec, sorted rendered rows).
fn throughput(batches: &[EventBatch]) -> (f64, Vec<ResultRow>) {
    // Warm-up: run a slice of the feed through a throwaway executor, so
    // allocator growth and the ingest code paths are hot before the timed
    // section. (The timed executor must be fresh — re-ingesting into the
    // warm one would drop everything as late after its advance.)
    {
        let take = (batches.len() / 4).max(1);
        let mut warm = QueryExecutor::new(plan(), 0);
        for batch in batches.iter().take(take).cloned() {
            warm.ingest(batch);
        }
        let _ = warm.advance(i64::MAX / 4);
    }

    let n: usize = batches.iter().map(EventBatch::len).sum();
    let mut exec = QueryExecutor::new(plan(), 0);
    let feed = batches.to_vec(); // clone outside the timed section

    let start = Instant::now();
    for batch in feed {
        exec.ingest(batch);
    }
    let mut rows = exec.advance(i64::MAX / 4);
    let elapsed = start.elapsed().as_secs_f64();

    rows.sort_by_key(|r| {
        (
            r.window_start_ms,
            r.values.iter().map(Value::group_key).collect::<Vec<_>>(),
        )
    });
    (n as f64 / elapsed, rows)
}

/// Run E09.
pub fn run(quick: bool) -> Report {
    let signals = CoreSignals::detect();
    let cores = signals.effective();
    let n = if quick { 400_000 } else { 2_000_000 };
    let batches = make_batches(n, WireFormat::Columnar);
    let row_batches = make_batches(n, WireFormat::Row);
    // Wire footprint per event, per format (payload bytes only, headers
    // excluded): columnar is the actual encoded frame length, row the
    // v1 modeled footprint.
    let payload_bytes = |bs: &[EventBatch]| -> f64 {
        bs.iter().map(|b| b.payload.approx_bytes()).sum::<usize>() as f64 / n as f64
    };
    let col_bytes_per_event = payload_bytes(&batches);
    let row_bytes_per_event = payload_bytes(&row_batches);
    // The row wire format is transposed into column chunks at central and
    // then takes the same fold.
    let (row_eps, row_rows) = throughput(&row_batches);
    let (eps, rows) = throughput(&batches);
    let same_answers = row_rows == rows;
    let col_vs_row = if row_eps > 0.0 { eps / row_eps } else { 0.0 };

    let mut t = Table::new(&[
        "wire_format",
        "events_per_sec",
        "bytes_per_event",
        "result_rows",
    ]);
    t.row(vec![
        "columnar".into(),
        format!("{eps:.0}"),
        format!("{col_bytes_per_event:.1}"),
        rows.len().to_string(),
    ]);
    t.row(vec![
        "row".into(),
        format!("{row_eps:.0}"),
        format!("{row_bytes_per_event:.1}"),
        row_rows.len().to_string(),
    ]);
    write_bench_json(
        &signals,
        n,
        quick,
        eps,
        row_eps,
        row_bytes_per_event,
        col_bytes_per_event,
    );
    let pass = same_answers && eps > 100_000.0;
    Report {
        id: "E09",
        title: "ScrubCentral ingest throughput (§9, reconstructed)",
        paper: "a small centralized cluster suffices: one executor on one core \
                sustains far more than a query ships, and whole queries spread \
                across central nodes",
        body: format!(
            "{t}\ncolumnar vs row: {col_vs_row:.2}x\n\
             effective cores: {cores} (available_parallelism {}, \
             /proc/cpuinfo {}, cgroup quota {})\n",
            signals.available_parallelism,
            signals.cpuinfo.map_or("n/a".into(), |n| n.to_string()),
            signals
                .cgroup_quota
                .map_or("unlimited".into(), |n| n.to_string()),
        ),
        pass,
        verdict: format!(
            "one executor sustains {eps:.0} events/s ({col_vs_row:.2}x vs row format) \
             on a {cores}-core machine, identical rows across wire formats: \
             {same_answers}"
        ),
    }
}

/// Persist the run as `BENCH_central_ingest.json` at the workspace root —
/// the repo's perf trajectory for central ingest. Results are only
/// comparable across runs on machines with the same *effective* core
/// count, so every detection signal is persisted alongside the numbers.
fn write_bench_json(
    signals: &CoreSignals,
    events: usize,
    quick: bool,
    eps: f64,
    row_eps: f64,
    row_bytes_per_event: f64,
    col_bytes_per_event: f64,
) {
    let doc = format!(
        "{{\n  \"bench\": \"central_ingest\",\n  \"experiment\": \"E09\",\n  \
         \"workload\": \"grouped count+avg, 10 s windows, 5000 groups\",\n  \
         \"cores\": {},\n  \"core_signals\": {{ \"available_parallelism\": {}, \
         \"cpuinfo\": {}, \"cgroup_quota\": {} }},\n  \
         \"events\": {events},\n  \"quick\": {quick},\n  \
         \"wire_format\": \"columnar\",\n  \
         \"wire_bytes_per_event\": {{ \"row\": {row_bytes_per_event:.2}, \
         \"columnar\": {col_bytes_per_event:.2} }},\n  \
         \"events_per_sec\": {eps:.0},\n  \
         \"row_format_events_per_sec\": {row_eps:.0},\n  \
         \"columnar_speedup_vs_row\": {:.3}\n}}\n",
        signals.effective(),
        signals.available_parallelism,
        signals.cpuinfo.map_or("null".into(), |n| n.to_string()),
        signals
            .cgroup_quota
            .map_or("null".into(), |n| n.to_string()),
        if row_eps > 0.0 { eps / row_eps } else { 0.0 },
    );
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_central_ingest.json"
    );
    if let Err(e) = std::fs::write(path, doc) {
        eprintln!("E09: could not write {path}: {e}");
    }
}
