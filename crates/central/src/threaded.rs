//! The batch-granularity threaded ingest backend.
//!
//! The first threaded backend (PR 3) was a request/reply protocol: every
//! batch was split by request-id hash into one sub-batch per partition
//! (header replicated to all of them), and every `advance` tick paid a
//! full cross-partition barrier that shipped per-partition scale,
//! profiles, and gauges back to the router. At realistic batch sizes the
//! per-command overhead dominated the fold itself and threaded throughput
//! ran *below* inline. This module is the redesign:
//!
//! * **Whole-batch hand-off.** Non-join plans hand each `EventBatch` to
//!   one partition, round-robin — no split, no header replication, no
//!   per-event hashing. The group-state merge makes any row partitioning
//!   equivalent (see `update_groups`), so batch granularity is free.
//!   Join plans still split by request id (the equi-join must stay
//!   partition-local), but only non-empty shards are sent.
//! * **Router-authoritative totals.** The router observes every batch
//!   header once into its own `TotalsTracker` before handing the batch
//!   off; workers fold events and estimator moments only (via
//!   [`QueryExecutor::ingest_routed`]). Scale, summary totals, host-side
//!   profile operators and notes all come from the router — bit-identical
//!   to inline, since it sees the same header stream in the same order.
//! * **Two-phase aggregation.** Each partition folds its own group/window
//!   state; the advance barrier ships pre-folded [`WindowPartial`]s
//!   (group maps with mergeable [`AggState`](crate::agg::AggState)s,
//!   Welford moments at finish) and the router merges states — rows are
//!   never replayed or re-folded.
//! * **Amortized advance.** The router tracks which window starts can
//!   possibly be open (`pending_low`/`max_start`, maintained from batch
//!   timestamp ranges at hand-off time). A tick that provably closes
//!   nothing skips the barrier entirely and just records its watermark,
//!   which piggybacks on subsequent ingest hand-offs; the barrier is only
//!   paid when a window is actually due. Stream-mode plans always barrier
//!   (rows must drain every tick, same as inline).
//!
//! Each threaded query owns `partitions` worker threads plus `partitions`
//! bounded channels of up to [`INGEST_CHANNEL_CAP`] hand-offs for its
//! whole lifetime; with N concurrently installed queries that is N×p
//! threads. A shared cross-query pool is future work — until then, size
//! `central_partitions` with the expected concurrent query count in mind.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Instant;

use scrub_agent::{BatchPayload, EventBatch};
use scrub_core::error::ScrubResult;
use scrub_core::event::Event;
use scrub_core::plan::{CentralPlan, OutputMode};
use scrub_obs::PlanProfile;

use crate::backend::{private, BackendAdvance, IngestBackend};
use crate::executor::{estimates_from_states, HostEstimatorState, QueryExecutor, WindowPartial};
use crate::row::{QuerySummary, ResultRow};
use crate::stats::WorkerTime;
use crate::totals::TotalsTracker;

/// Per-partition hand-off channel capacity (whole batches in flight).
/// Deep on purpose: the channel is the pipeline's only buffer, and the
/// router must stay ahead of a worker absorbing a window close without
/// stalling. Beyond it the router records a backpressure stall and
/// blocks.
pub const INGEST_CHANNEL_CAP: usize = 1024;

/// Commands the router sends each partition worker.
enum Cmd {
    /// A whole batch (round-robin) or join shard (request-id routed) with
    /// the router's current watermark piggybacked — the worker may fold
    /// closed windows into its pending buffer without a barrier.
    Ingest { batch: EventBatch, watermark: i64 },
    /// Barrier: drain stream rows + closed partials up to `now_ms`.
    Advance(i64),
    /// Barrier: export per-host estimator moments (every partition holds
    /// a slice of each host's sampled moments; the router merges them).
    Finish,
    /// Barrier: export the central-op profile slice.
    Profile,
    /// Exit the worker loop.
    Shutdown,
}

/// One partition's contribution to a [`Cmd::Advance`] barrier. No scale
/// and no profile — the router owns both now, which is most of the
/// barrier weight the old protocol carried.
struct AdvanceReply {
    stream_rows: Vec<ResultRow>,
    partials: Vec<WindowPartial>,
    open_windows: usize,
    join_rows_held: u64,
    decode_failures: u64,
}

enum ReplyBody {
    Advance(AdvanceReply),
    Finish(Vec<HostEstimatorState>),
    Profile(Box<PlanProfile>),
}

struct Reply {
    part: usize,
    body: ReplyBody,
}

/// Shared busy/idle clock written by a worker, read by `worker_times`.
#[derive(Default)]
struct WorkerClock {
    busy_ns: AtomicU64,
    idle_ns: AtomicU64,
}

/// A partition worker: bounded command channel, its clock, and a joinable
/// thread.
struct Worker {
    tx: mpsc::SyncSender<Cmd>,
    clock: Arc<WorkerClock>,
    handle: Option<std::thread::JoinHandle<()>>,
}

/// `partitions >= 2`: one worker thread per partition fed whole batches
/// over deep bounded channels. See the module docs for the protocol.
pub struct ThreadedBackend {
    plan: Arc<CentralPlan>,
    grace_ms: i64,
    workers: Vec<Worker>,
    reply_rx: mpsc::Receiver<Reply>,
    /// Router-side header accounting — authoritative for totals, scale,
    /// host-side profile figures and notes (workers never observe
    /// headers).
    totals: TotalsTracker,
    /// Round-robin cursor for whole-batch hand-off (non-join plans).
    rr: usize,
    is_join: bool,
    stream_mode: bool,
    /// Latest watermark seen (from barriers and skipped ticks), carried
    /// on ingest hand-offs.
    watermark: i64,
    /// Lowest window start that can possibly still be open, or `None`
    /// when every routed window has provably closed. Conservative: may
    /// under-shoot (extra barrier), never over-shoots (missed close).
    pending_low: Option<i64>,
    /// Largest window start any routed event covered.
    max_start: i64,
    /// Gauges cached from the latest advance barrier (partition threads
    /// own the live state; these lag by at most one barrier).
    open_windows: usize,
    join_rows_held: u64,
    /// Frames that failed to decode: the workers' own count as of the
    /// latest barrier, and join batches the router could not split.
    worker_decode_failures: u64,
    split_decode_failures: u64,
}

impl ThreadedBackend {
    /// Spawn `partitions` workers for a plan. `PartitionedExecutor::new`
    /// only builds this for `partitions >= 2`, but any count >= 1 works.
    pub fn new(plan: impl Into<Arc<CentralPlan>>, grace_ms: i64, partitions: usize) -> Self {
        let plan = plan.into();
        let partitions = partitions.max(1);
        let (reply_tx, reply_rx) = mpsc::channel();
        let workers = (0..partitions)
            .map(|part| {
                let (tx, rx) = mpsc::sync_channel::<Cmd>(INGEST_CHANNEL_CAP);
                let exec = QueryExecutor::new(Arc::clone(&plan), grace_ms);
                let reply_tx = reply_tx.clone();
                let clock = Arc::new(WorkerClock::default());
                let worker_clock = Arc::clone(&clock);
                let handle = std::thread::Builder::new()
                    .name(format!("scrub-central-p{part}"))
                    .spawn(move || worker_loop(exec, part, rx, reply_tx, worker_clock))
                    .expect("spawn central partition worker");
                Worker {
                    tx,
                    clock,
                    handle: Some(handle),
                }
            })
            .collect();
        let is_join = plan.inputs.len() > 1;
        let stream_mode = matches!(plan.mode, OutputMode::Stream(_));
        ThreadedBackend {
            plan,
            grace_ms,
            workers,
            reply_rx,
            totals: TotalsTracker::default(),
            rr: 0,
            is_join,
            stream_mode,
            watermark: i64::MIN,
            pending_low: None,
            max_start: i64::MIN,
            open_windows: 0,
            join_rows_held: 0,
            worker_decode_failures: 0,
            split_decode_failures: 0,
        }
    }

    /// Track the window-start range a batch's events cover, for the
    /// amortized-advance due check. Late events already past the
    /// watermark only make `pending_low` conservative (an extra no-op
    /// barrier), never wrong.
    fn note_window_range(&mut self, range: Option<(i64, i64)>) {
        let Some((ts_min, ts_max)) = range else {
            return;
        };
        let w = self.plan.window_ms;
        let s = self.plan.slide_ms;
        let first_cover = ((ts_min - w).div_euclid(s) + 1) * s;
        let last_cover = ts_max.div_euclid(s) * s;
        self.pending_low = Some(match self.pending_low {
            Some(lo) => lo.min(first_cover),
            None => first_cover,
        });
        self.max_start = self.max_start.max(last_cover);
    }

    /// Hand one command to a partition, counting a backpressure stall if
    /// the channel is full (then blocking — the caller slows to the
    /// partitions' pace instead of buffering unboundedly).
    fn send_ingest(&self, part: usize, batch: EventBatch) -> u64 {
        let cmd = Cmd::Ingest {
            batch,
            watermark: self.watermark,
        };
        match self.workers[part].tx.try_send(cmd) {
            Ok(()) => 0,
            Err(mpsc::TrySendError::Full(cmd)) => {
                self.workers[part]
                    .tx
                    .send(cmd)
                    .expect("central partition worker alive");
                1
            }
            Err(mpsc::TrySendError::Disconnected(_)) => {
                panic!("central partition worker died");
            }
        }
    }

    /// Collect exactly one reply per partition and return them in
    /// partition order — the determinism pivot of the parallel path.
    fn collect<T>(&self, extract: impl Fn(ReplyBody) -> T) -> Vec<T> {
        let n = self.workers.len();
        let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
        for _ in 0..n {
            let reply = self
                .reply_rx
                .recv()
                .expect("central partition worker alive");
            slots[reply.part] = Some(extract(reply.body));
        }
        slots
            .into_iter()
            .map(|s| s.expect("one reply per partition"))
            .collect()
    }
}

impl private::Sealed for ThreadedBackend {}

impl IngestBackend for ThreadedBackend {
    fn partitions(&self) -> usize {
        self.workers.len()
    }

    fn plan_arc(&self) -> Arc<CentralPlan> {
        Arc::clone(&self.plan)
    }

    fn route_partition(&self, request_id: u64) -> usize {
        if self.is_join {
            (mix(request_id) % self.workers.len() as u64) as usize
        } else {
            self.rr
        }
    }

    fn ingest(&mut self, batch: EventBatch) -> u64 {
        self.totals.observe_header(&batch);
        self.note_window_range(batch.payload.ts_range());
        if batch.is_empty() {
            // Header-only batch: the router just folded everything a
            // worker could use from it.
            return 0;
        }
        let mut stalls = 0;
        if self.is_join {
            match split_by_request_id(batch, self.workers.len()) {
                Ok(shards) => {
                    for (part, shard) in shards {
                        stalls += self.send_ingest(part, shard);
                    }
                }
                // same policy as a worker's own decode: count the frame,
                // drop its events, carry on
                Err(_) => self.split_decode_failures += 1,
            }
        } else {
            let part = self.rr;
            self.rr = (self.rr + 1) % self.workers.len();
            stalls += self.send_ingest(part, batch);
        }
        stalls
    }

    fn note_watermark(&mut self, now_ms: i64) {
        self.watermark = self.watermark.max(now_ms);
    }

    fn needs_advance(&self, now_ms: i64) -> bool {
        if self.stream_mode {
            // Stream rows must drain every tick, exactly like inline.
            return true;
        }
        let cutoff = now_ms
            .saturating_sub(self.plan.window_ms)
            .saturating_sub(self.grace_ms);
        match self.pending_low {
            Some(lo) => lo <= cutoff,
            None => false,
        }
    }

    fn advance(&mut self, now_ms: i64) -> BackendAdvance {
        for w in &self.workers {
            w.tx.send(Cmd::Advance(now_ms))
                .expect("central partition worker alive");
        }
        let replies = self.collect(|body| {
            let ReplyBody::Advance(body) = body else {
                panic!("unexpected reply kind during advance barrier");
            };
            body
        });
        self.open_windows = replies.iter().map(|r| r.open_windows).max().unwrap_or(0);
        self.join_rows_held = replies.iter().map(|r| r.join_rows_held).sum();
        self.worker_decode_failures = replies.iter().map(|r| r.decode_failures).sum();
        let mut stream_rows = Vec::new();
        let mut partials = Vec::new();
        for reply in replies {
            stream_rows.extend(reply.stream_rows);
            partials.extend(reply.partials);
        }
        // Every window with start <= cutoff is closed across all workers
        // (the cutoff is uniform); the lowest possibly-open start is the
        // first aligned start past it.
        let cutoff = now_ms
            .saturating_sub(self.plan.window_ms)
            .saturating_sub(self.grace_ms);
        if self.max_start <= cutoff {
            self.pending_low = None;
        } else {
            let next = (cutoff.div_euclid(self.plan.slide_ms) + 1) * self.plan.slide_ms;
            let lo = self.pending_low.unwrap_or(next).max(next);
            self.pending_low = Some(lo);
        }
        self.watermark = self.watermark.max(now_ms);
        BackendAdvance {
            stream_rows,
            partials,
            // The router observed every header synchronously at ingest,
            // so this is the same value the inline executor computes at
            // its own advance.
            scale: self.totals.scale(&self.plan),
        }
    }

    fn set_dead_hosts(&mut self, _hosts: &HashSet<String>) {
        // Workers no longer need the dead set: their summaries and
        // estimates are never used (the router computes both), and dead
        // hosts' already-ingested events stay by design.
    }

    fn finish_summary(&mut self, dead_hosts: &HashSet<String>) -> QuerySummary {
        for w in &self.workers {
            w.tx.send(Cmd::Finish)
                .expect("central partition worker alive");
        }
        let exports = self.collect(|body| {
            let ReplyBody::Finish(states) = body else {
                panic!("unexpected reply kind during finish barrier");
            };
            states
        });
        // Seed the merged per-host states from the router's first-seen
        // host order with its authoritative cumulative `matched`, then
        // fold each worker's moments in partition order — the same
        // deterministic reduction order as the inline executor's export.
        let mut merged: Vec<HostEstimatorState> = self
            .totals
            .per_host_matched()
            .into_iter()
            .map(|(h, matched)| HostEstimatorState {
                host: self.totals.name(h).to_string(),
                matched,
                moments: Vec::new(),
            })
            .collect();
        let mut index: std::collections::HashMap<String, usize> = merged
            .iter()
            .enumerate()
            .map(|(i, st)| (st.host.clone(), i))
            .collect();
        for states in exports {
            for st in states {
                match index.get(&st.host) {
                    Some(&i) => merged[i].merge(st),
                    None => {
                        // A worker interned a host the router never saw a
                        // header from — impossible today (workers only see
                        // routed batches), kept total rather than lossy.
                        index.insert(st.host.clone(), merged.len());
                        merged.push(st);
                    }
                }
            }
        }
        let (total_matched, total_sampled, total_shed, total_budget_shed) = self.totals.sums();
        QuerySummary {
            query_id: self.plan.query_id,
            hosts_reporting: self.totals.hosts_reporting(),
            total_matched,
            total_sampled,
            total_shed,
            total_budget_shed,
            // counted at the router (partition-invariant there); it
            // overwrites these after this call, same as the other
            // router-owned fields
            windows_emitted: 0,
            estimates: estimates_from_states(&self.plan, &merged, dead_hosts),
            hosts_targeted: self.plan.host_info.selected,
            hosts_live: self.totals.hosts_live(dead_hosts),
            degraded_rows: 0,
            duplicate_batches: 0,
            groups_overflow: 0,
        }
    }

    fn plan_profile(&self) -> PlanProfile {
        for w in &self.workers {
            w.tx.send(Cmd::Profile)
                .expect("central partition worker alive");
        }
        let mut parts = self
            .collect(|body| {
                let ReplyBody::Profile(p) = body else {
                    panic!("unexpected reply kind during profile barrier");
                };
                p
            })
            .into_iter();
        let mut acc = *parts.next().expect("at least one partition");
        for p in parts {
            acc.merge(&p);
        }
        // Central ops merged by sum above (disjoint event slices); host
        // ops and notes derive from header totals only the router
        // observed.
        self.totals.fill_host_ops(&self.plan, &mut acc);
        acc.notes = self.totals.profile_notes(&self.plan);
        acc
    }

    fn gauges(&self) -> (usize, u64) {
        (self.open_windows, self.join_rows_held)
    }

    fn decode_failures(&self) -> u64 {
        self.worker_decode_failures + self.split_decode_failures
    }

    fn worker_times(&self) -> Vec<WorkerTime> {
        self.workers
            .iter()
            .enumerate()
            .map(|(partition, w)| WorkerTime {
                partition,
                busy_ns: w.clock.busy_ns.load(Ordering::Relaxed),
                idle_ns: w.clock.idle_ns.load(Ordering::Relaxed),
            })
            .collect()
    }
}

impl Drop for ThreadedBackend {
    fn drop(&mut self) {
        for w in &self.workers {
            let _ = w.tx.send(Cmd::Shutdown);
        }
        for w in &mut self.workers {
            if let Some(h) = w.handle.take() {
                let _ = h.join();
            }
        }
    }
}

fn worker_loop(
    mut exec: QueryExecutor,
    part: usize,
    rx: mpsc::Receiver<Cmd>,
    reply_tx: mpsc::Sender<Reply>,
    clock: Arc<WorkerClock>,
) {
    // Windows closed opportunistically on piggybacked watermarks, held
    // until the next advance barrier ships them to the router.
    let mut pending: Vec<WindowPartial> = Vec::new();
    loop {
        let t_idle = Instant::now();
        let Ok(cmd) = rx.recv() else {
            return; // router gone
        };
        clock
            .idle_ns
            .fetch_add(t_idle.elapsed().as_nanos() as u64, Ordering::Relaxed);
        let t_busy = Instant::now();
        match cmd {
            Cmd::Ingest { batch, watermark } => {
                exec.ingest_routed(batch);
                // Under the router's conservative due-tracking this close
                // is a no-op (watermarks only piggyback from ticks where
                // nothing was due), but the protocol keeps the worker's
                // window set tight if that policy ever loosens. `i64::MIN`
                // is the no-watermark-yet sentinel.
                if watermark > i64::MIN {
                    pending.extend(exec.take_closed_partials(watermark));
                }
            }
            Cmd::Advance(now_ms) => {
                let stream_rows = exec.advance_stream_only();
                let mut partials = std::mem::take(&mut pending);
                partials.extend(exec.take_closed_partials(now_ms));
                let body = AdvanceReply {
                    stream_rows,
                    partials,
                    open_windows: exec.open_windows(),
                    join_rows_held: (exec.buffered_events() + exec.open_groups()) as u64,
                    decode_failures: exec.decode_failures,
                };
                if reply_tx
                    .send(Reply {
                        part,
                        body: ReplyBody::Advance(body),
                    })
                    .is_err()
                {
                    return;
                }
            }
            Cmd::Finish => {
                if reply_tx
                    .send(Reply {
                        part,
                        body: ReplyBody::Finish(exec.export_estimator_state()),
                    })
                    .is_err()
                {
                    return;
                }
            }
            Cmd::Profile => {
                if reply_tx
                    .send(Reply {
                        part,
                        body: ReplyBody::Profile(Box::new(exec.plan_profile_partial())),
                    })
                    .is_err()
                {
                    return;
                }
            }
            Cmd::Shutdown => return,
        }
        clock
            .busy_ns
            .fetch_add(t_busy.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }
}

/// Split a batch by request-id hash into per-partition shards in a single
/// pass, returning only the non-empty ones. Every event lands in exactly
/// one shard. Shard headers keep the host name (workers intern it for
/// estimator moments) but zero the cumulative counters — the router
/// already observed them, and replicating them is exactly the
/// double-count hazard the old protocol had to max-merge around.
///
/// Fails only when a columnar frame does not decode.
pub(crate) fn split_by_request_id(
    batch: EventBatch,
    partitions: usize,
) -> ScrubResult<Vec<(usize, EventBatch)>> {
    let p = partitions as u64;
    let mut shards: Vec<Vec<Event>> = (0..partitions).map(|_| Vec::new()).collect();
    let total = batch.len();
    // Joins shard by request id, so columnar frames materialise here;
    // each worker transposes its row shard back into columns.
    let events = match batch.payload {
        BatchPayload::Rows(events) => events,
        BatchPayload::Columnar(frame) => {
            let mut events = Vec::new();
            frame.decode_rows_into(&mut events)?;
            events
        }
    };
    for ev in events {
        let shard = (mix(ev.request_id.0) % p) as usize;
        shards[shard].push(ev);
    }
    debug_assert_eq!(
        shards.iter().map(Vec::len).sum::<usize>(),
        total,
        "split must route every event to exactly one partition"
    );
    Ok(shards
        .into_iter()
        .enumerate()
        .filter(|(_, events)| !events.is_empty())
        .map(|(part, events)| {
            (
                part,
                EventBatch {
                    query_id: batch.query_id,
                    seq: batch.seq,
                    attempt: batch.attempt,
                    type_id: batch.type_id,
                    host: batch.host.clone(),
                    payload: BatchPayload::Rows(events),
                    matched: 0,
                    sampled: 0,
                    shed: 0,
                    budget_shed: 0,
                    seen: 0,
                    bytes: 0,
                    spans: vec![],
                },
            )
        })
        .collect())
}

/// splitmix64-style mixer for request-id routing.
pub(crate) fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
