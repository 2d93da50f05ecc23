//! Per-query execution engine of ScrubCentral (§4): tumbling windows,
//! the request-id equi-join, group-by and aggregation.
//!
//! Hosts only selected/projected/sampled; everything here is the expensive
//! part of the query, deliberately placed off the application hosts.
//!
//! Every batch is consumed as column chunks: its columnar frame is decoded
//! once, and from there selection, folds, stream projection and the join
//! all read chunk columns — no row `Event` is built per input event, and
//! no joined row per join match: a closing join window gathers its joined
//! rows into blocks of per-side references that the residual and the fold
//! read column-wise ([`JoinedBlock`]). Each window's groups live in a
//! [`GroupTable`]: rows resolve to groups by typed, hashed keys, each
//! aggregate folds column-wise over them, and a closing window renders
//! its groups in canonical key order.

use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

use scrub_agent::EventBatch;
use scrub_core::columnar::{ColumnChunk, ColumnarFrame};
use scrub_core::event::FieldSlot;
use scrub_core::plan::{CentralPlan, OperatorKind, OutputCol, OutputMode};
use scrub_core::value::Value;
use scrub_obs::{OperatorStats, PlanProfile, QueryProfile, TypeCounters};
use scrub_sketch::{estimate_total, HostSample, Welford};

use crate::groups::{FoldSource, GroupTable, SlotColumn};
use crate::joined::{chunk_value, slot_table, At, JoinedBlock, SlotSrc};
use crate::row::{QuerySummary, ResultRow};
use crate::totals::{self, HostId, HostTable};

/// Safety cap on the per-request join cross-product (a request with tens of
/// thousands of exclusions joined to several bids could otherwise explode).
pub const MAX_JOIN_ROWS_PER_REQUEST: usize = 100_000;

/// Joined rows gathered before the probe runs its residual and fold
/// passes over them: large enough that the per-pass clock reads and fold
/// set-up vanish, small enough that a block's gathers and the residual's
/// intermediate columns stay in cache.
const PROBE_BLOCK_ROWS: usize = 4096;

/// Central-side operator counters for `EXPLAIN ANALYZE`. `ns` fields are
/// wall-clock and nondeterministic; everything else is integer-exact
/// across seeded runs.
#[derive(Debug, Default, Clone, Copy)]
struct CentralOpCounters {
    /// Events arriving in ingested batches (post-dedup).
    decode_rows_in: u64,
    /// Events routed into at least one open window (not foreign, not late).
    decode_rows_out: u64,
    /// Wall-clock ingest time net of the residual/group/stream/build time
    /// accounted below.
    decode_ns: u64,
    /// Events entering the join build side (each buffered reference
    /// counted once per covering window on the way out).
    join_build_rows_in: u64,
    join_build_rows_out: u64,
    join_build_ns: u64,
    /// Buffered references consumed when a join window closes, and joined
    /// rows actually enumerated (post cross-product cap).
    join_probe_rows_in: u64,
    join_probe_rows_out: u64,
    join_probe_ns: u64,
    residual_rows_in: u64,
    residual_rows_out: u64,
    residual_ns: u64,
    /// Rows folded into group/aggregate state (one per covering window).
    group_rows_in: u64,
    group_ns: u64,
    stream_rows_in: u64,
    stream_rows_out: u64,
    stream_ns: u64,
}

/// Slot accessor over the rows of one chunk of input `input`: `(row,
/// slot)` reads inside that input's block, `Null` everywhere else.
fn chunk_rows<'c>(
    slots: &'c [Option<SlotSrc>],
    chunk: &'c ColumnChunk,
    input: usize,
) -> impl Fn(usize, usize) -> Cow<'c, Value> {
    move |row, slot| match slots.get(slot) {
        Some(Some(src)) if src.input == input => chunk_value(chunk, row, src.col),
        _ => Cow::Owned(Value::Null),
    }
}

/// One buffered join event: its key and where its fields live (`at.chunk`
/// indexes the owning window's [`JoinBuffer::chunks`]). Sixteen bytes, so
/// a sliding window replicates references, never events.
#[derive(Debug, Clone, Copy)]
struct JoinRef {
    request_id: u64,
    at: At,
}

/// A join window's build side.
struct JoinBuffer {
    /// Every decoded chunk with an event in this window, shared (not
    /// copied) with the other windows it covers.
    chunks: Vec<Arc<ColumnChunk>>,
    /// Per input, the window's events in arrival order.
    sides: Vec<Vec<JoinRef>>,
}

enum WindowState {
    /// Single-input aggregate mode: aggregated eagerly, memory O(groups).
    /// The table is bounded at `CentralPlan::max_groups` by keeping the
    /// smallest group keys (see [`GroupTable::fold`]); `overflow_rows`
    /// counts the rows this window dropped to stay under the cap.
    Eager {
        groups: GroupTable,
        overflow_rows: u64,
    },
    /// Join queries buffer references until the window closes.
    Buffered(JoinBuffer),
}

/// Why a window closed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CloseRule {
    /// Every targeted host had announced a watermark at or past the
    /// window's end (see [`QueryExecutor::set_complete_through`]).
    Watermark,
    /// The fallback: the grace period after the window's end ran out.
    Grace,
    /// The query finished with the window still open.
    Finish,
}

impl CloseRule {
    /// Lower-case name, as journals and `EXPLAIN ANALYZE` print it.
    pub fn as_str(self) -> &'static str {
        match self {
            CloseRule::Watermark => "watermark",
            CloseRule::Grace => "grace",
            CloseRule::Finish => "finish",
        }
    }
}

/// One aggregate window closing (for self-observability: ScrubCentral
/// taps a `scrub_window` meta-event per close and journals it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowClose {
    /// Window start (ms).
    pub window_start_ms: i64,
    /// Rows the window rendered.
    pub rows: u64,
    /// Whether the window closed short of its full input: a targeted host
    /// was suspected dead, or the `max_groups` bound dropped rows.
    pub degraded: bool,
    /// Which rule closed it.
    pub rule: CloseRule,
}

/// Whether a plan's summary gets Eq 1–3 two-stage estimates: single
/// input, ungrouped aggregation, under host or event sampling.
fn plan_estimator_eligible(plan: &CentralPlan) -> bool {
    if plan.inputs.len() > 1 {
        return false;
    }
    let sampled = plan.sample.is_sampled()
        || (plan.host_info.matching > plan.host_info.selected && plan.host_info.selected > 0);
    if !sampled {
        return false;
    }
    matches!(
        &plan.mode,
        OutputMode::Aggregate { group_by, .. } if group_by.is_empty()
    )
}

/// Executes one compiled query at ScrubCentral, on the caller's thread.
/// ScrubCentral scales out by query — whole queries are assigned across
/// central nodes — so one query's state is never shared between threads.
pub struct QueryExecutor {
    /// Shared, immutable compiled plan (the hot loops hold a handle to it
    /// across `&mut self` updates).
    plan: Arc<CentralPlan>,
    /// The plan's joined-row slot layout (shared for the same reason).
    slots: Arc<[Option<SlotSrc>]>,
    grace_ms: i64,
    /// No event older than this is still to come from any targeted host
    /// (see [`Self::set_complete_through`]); `i64::MIN` until told.
    complete_through_ms: i64,
    windows: BTreeMap<i64, WindowState>,
    /// Interned host names, in first-seen order.
    hosts: HostTable,
    /// The query's execution profile; this executor is its one writer.
    profile: QueryProfile,
    /// Per-host value moments per aggregate (only for estimator-eligible
    /// queries: single input, ungrouped, sampled).
    host_moments: HashMap<HostId, Vec<Welford>>,
    stream_out: Vec<ResultRow>,
    /// Windows that closed holding at least one group; the group rows they
    /// rendered and the wall-clock spent rendering.
    windows_emitted: u64,
    rendered_rows: u64,
    render_ns: u64,
    /// Of the profile's `windows_closed`, those closed on host watermarks
    /// and those still open at finish (the rest closed by the grace
    /// fallback).
    closed_by_watermark: u64,
    closed_at_finish: u64,
    /// Window closes since the last [`Self::take_window_closes`] drain.
    closes: Vec<WindowClose>,
    /// Aggregate mode: events delivered into each open window, per host —
    /// what a degraded close attributes to the hosts that fed it.
    delivered: BTreeMap<i64, HashMap<HostId, u64>>,
    /// Join rows dropped by the cross-product cap.
    pub join_rows_capped: u64,
    /// Late events dropped because their window already closed.
    pub late_events_dropped: u64,
    closed_before_ms: i64,
    /// Hosts suspected dead: their batches stopped for `host_grace_ms`
    /// while a peer's kept coming. Their already-ingested events stay, but
    /// their samples leave the estimator — the survivors' scaled estimate
    /// plus a wider bound is more honest than pretending the dead host's
    /// counters are current — and rows emitted while the set is non-empty
    /// are marked degraded.
    dead_hosts: HashSet<String>,
    /// Windows that were open at some moment a host was suspected dead:
    /// they close degraded even once the host is back, since what it
    /// missed while down is missing from them.
    suspect_windows: HashSet<i64>,
    degraded_rows: u64,
    /// Central-side per-operator counters for `EXPLAIN ANALYZE`.
    opc: CentralOpCounters,
}

impl QueryExecutor {
    /// Create an executor for a central plan. `grace_ms` is how long after
    /// a window's end it stays open for stragglers when nothing says
    /// sooner that none is coming.
    pub fn new(plan: impl Into<Arc<CentralPlan>>, grace_ms: i64) -> Self {
        let plan = plan.into();
        debug_assert!(
            plan.is_join() || plan.residual.is_none(),
            "a residual exists only after a join"
        );
        QueryExecutor {
            slots: slot_table(&plan),
            profile: QueryProfile::new(plan.query_id.0),
            plan,
            grace_ms,
            complete_through_ms: i64::MIN,
            windows: BTreeMap::new(),
            hosts: HostTable::default(),
            host_moments: HashMap::new(),
            stream_out: Vec::new(),
            windows_emitted: 0,
            rendered_rows: 0,
            render_ns: 0,
            closed_by_watermark: 0,
            closed_at_finish: 0,
            closes: Vec::new(),
            delivered: BTreeMap::new(),
            join_rows_capped: 0,
            late_events_dropped: 0,
            closed_before_ms: i64::MIN,
            dead_hosts: HashSet::new(),
            suspect_windows: HashSet::new(),
            degraded_rows: 0,
            opc: CentralOpCounters::default(),
        }
    }

    /// Replace the set of hosts suspected dead: future rows are marked
    /// degraded and the dead hosts' samples leave the estimator. Every
    /// window open while a host is suspected closes degraded — those open
    /// now under the old set or the new one included. The profile flags
    /// the suspects among its hosts.
    pub fn set_dead_hosts(&mut self, hosts: HashSet<String>) {
        if !hosts.is_empty() || !self.dead_hosts.is_empty() {
            self.suspect_windows.extend(self.windows.keys());
        }
        for (name, h) in &mut self.profile.hosts {
            h.suspected_dead = hosts.contains(name);
        }
        self.dead_hosts = hosts;
    }

    /// Hosts currently suspected dead.
    pub fn dead_hosts(&self) -> &HashSet<String> {
        &self.dead_hosts
    }

    /// Tell the executor that every targeted host has announced it holds
    /// no event older than `ms`: windows ending at or before it close on
    /// the next [`Self::advance`] without waiting out the grace. The mark
    /// only moves forward. Returns whether an open window is now due.
    ///
    /// The caller owns the proof — which hosts are targeted, and that each
    /// one's announcement arrived behind everything it covers. An executor
    /// never told anything closes on the grace alone.
    pub fn set_complete_through(&mut self, ms: i64) -> bool {
        self.complete_through_ms = self.complete_through_ms.max(ms);
        self.windows
            .first_key_value()
            .is_some_and(|(w, _)| w + self.plan.window_ms <= self.complete_through_ms)
    }

    /// When the oldest open window falls to the grace fallback: its end
    /// plus the grace. `None` with no window open.
    pub fn next_grace_close_ms(&self) -> Option<i64> {
        let (w, _) = self.windows.first_key_value()?;
        Some(w + self.plan.window_ms + self.grace_ms)
    }

    /// The plan under execution.
    pub fn plan(&self) -> &CentralPlan {
        self.plan.as_ref()
    }

    /// The query's execution profile, as of the last batch and advance.
    pub fn profile(&self) -> &QueryProfile {
        &self.profile
    }

    /// Record a copy of an ingested batch from `host`, carrying `events`
    /// events, discarded as a duplicate retransmission.
    pub fn note_duplicate(&mut self, host: &str, events: u64) {
        self.profile.observe_duplicate(host, events);
    }

    /// Record how long a fresh batch took from its newest event to central
    /// (ms, on the caller's clock).
    pub fn record_ingest_latency(&mut self, ms: i64) {
        self.profile.observe_latency(ms);
    }

    /// Drain the window closes recorded since the last call.
    pub fn take_window_closes(&mut self) -> Vec<WindowClose> {
        std::mem::take(&mut self.closes)
    }

    /// Number of windows currently open (not yet past grace).
    pub fn open_windows(&self) -> usize {
        self.windows.len()
    }

    /// Events currently buffered for the join, one per covering window
    /// (0 for single-input plans, whose windows hold aggregate state
    /// instead).
    pub fn buffered_events(&self) -> usize {
        self.windows
            .values()
            .map(|w| match w {
                WindowState::Eager { .. } => 0,
                WindowState::Buffered(buf) => buf.sides.iter().map(Vec::len).sum(),
            })
            .sum()
    }

    /// Group states currently held across open windows.
    pub fn open_groups(&self) -> usize {
        self.windows
            .values()
            .map(|w| match w {
                WindowState::Eager { groups, .. } => groups.len(),
                WindowState::Buffered(_) => 0,
            })
            .sum()
    }

    /// Current scale-up factor compensating host and event sampling:
    /// `(N/n) · (ΣM_i/Σm_i)` using observed totals (Eq. 1's population
    /// scale, applied globally).
    pub fn scale(&self) -> f64 {
        totals::scale(&self.plan, &self.profile)
    }

    /// Ingest one batch from a host agent. Every batch passes here exactly
    /// once, so this is where its header folds into the profile.
    pub fn ingest(&mut self, batch: EventBatch) {
        debug_assert_eq!(batch.query_id, self.plan.query_id);
        let hid = self.hosts.intern(&batch.host);
        let header = TypeCounters {
            tapped: batch.matched,
            selected: batch.sampled,
            shed: batch.shed,
            budget_shed: batch.budget_shed,
            seen: batch.seen,
            bytes: batch.bytes,
        };
        self.profile.observe_batch(
            &batch.host,
            batch.type_id.0,
            &header,
            batch.approx_bytes() as u64,
            batch.len() as u64,
            batch.attempt > 0,
        );
        self.ingest_payload(hid, batch.payload);
    }

    /// Decode the frame into column chunks once and ingest each. A frame
    /// that does not decode — damaged, or in the retired row format — is
    /// counted and dropped whole; it must never take ScrubCentral down, in
    /// any build.
    fn ingest_payload(&mut self, hid: HostId, frame: ColumnarFrame) {
        let t0 = Instant::now();
        let Ok(batch) = frame.decode() else {
            self.profile.decode_failures += 1;
            return;
        };
        // Downstream-operator ns accounted per chunk is subtracted from
        // the decode attribution below.
        let inner_before = self.inner_op_ns();
        for chunk in batch.chunks {
            self.ingest_chunk(hid, chunk);
        }
        let inner_spent = self.inner_op_ns().saturating_sub(inner_before);
        self.opc.decode_ns += (t0.elapsed().as_nanos() as u64).saturating_sub(inner_spent);
    }

    /// Ingest one column chunk as a sequence of per-column passes: window
    /// selection over the timestamps, then either the join build, or the
    /// mode's projection or estimator moments and fold. A residual exists
    /// only after a join (the planner sends a conjunct to central only
    /// when it touches two inputs), so a single-input chunk has none.
    /// Within a pass rows keep their batch order, so every integer counter
    /// and every float fold sees events in arrival order.
    fn ingest_chunk(&mut self, hid: HostId, chunk: ColumnChunk) {
        self.opc.decode_rows_in += chunk.len() as u64;
        let Some(input_idx) = self.plan.input_index(chunk.type_id) else {
            return; // not part of this query
        };
        let (wins, sel) = self.select_rows(hid, &chunk.timestamps);
        if self.plan.is_join() {
            self.buffer_chunk(Arc::new(chunk), input_idx, &wins, &sel);
            return;
        }

        // The handles are cheap to clone and untie the plan borrow from
        // the `&mut self` updates below.
        let plan = Arc::clone(&self.plan);
        let slots = Arc::clone(&self.slots);
        let fetch_row = chunk_rows(&slots, &chunk, input_idx);

        match &plan.mode {
            OutputMode::Stream(exprs) => {
                let t_out = Instant::now();
                for &(i, _, hi) in &sel {
                    let fetch = |slot| fetch_row(i as usize, slot);
                    self.stream_out.push(ResultRow {
                        query_id: plan.query_id,
                        window_start_ms: wins[hi as usize - 1],
                        values: exprs
                            .iter()
                            .map(|e| e.eval_by(&fetch).into_owned())
                            .collect(),
                        degraded: false,
                    });
                }
                self.opc.stream_rows_in += sel.len() as u64;
                self.opc.stream_rows_out += sel.len() as u64;
                self.opc.stream_ns += t_out.elapsed().as_nanos() as u64;
            }
            OutputMode::Aggregate {
                group_by,
                aggregates,
                ..
            } => {
                // Keys and arguments that are plain slots read the chunk's
                // typed columns; the estimator moments and the fold share
                // one evaluation of every other argument.
                let column = |slot| match slots.get(slot) {
                    Some(&Some(SlotSrc {
                        input,
                        col: FieldSlot::User(i),
                    })) if input == input_idx => chunk.columns.get(i).map(SlotColumn::Chunk),
                    _ => None,
                };
                let mut src = FoldSource::new(group_by, aggregates, &fetch_row, column);
                if plan_estimator_eligible(&plan) {
                    src.evaluate_args(chunk.len());
                    self.update_moments(hid, &src, chunk.len());
                }
                // Fold pass, one window at a time: a row's windows are
                // contiguous starts, so covering `w` is a range test.
                let t_out = Instant::now();
                let mut starts: Vec<i64> = Vec::new();
                for &(_, lo, hi) in &sel {
                    for w in &wins[lo as usize..hi as usize] {
                        if !starts.contains(w) {
                            starts.push(*w);
                        }
                    }
                }
                for w in starts {
                    let state = self.windows.entry(w).or_insert_with(|| WindowState::Eager {
                        groups: GroupTable::new(group_by.len()),
                        overflow_rows: 0,
                    });
                    let WindowState::Eager {
                        groups,
                        overflow_rows,
                    } = state
                    else {
                        unreachable!("single-input plans never buffer");
                    };
                    let rows = sel.iter().filter(|&&(_, lo, hi)| {
                        wins[lo as usize] <= w && w <= wins[hi as usize - 1]
                    });
                    let rows = rows.map(|&(i, _, _)| i);
                    *overflow_rows += groups.fold(plan.max_groups, rows, &mut src);
                }
                self.opc.group_rows_in +=
                    sel.iter().map(|&(_, lo, hi)| (hi - lo) as u64).sum::<u64>();
                self.opc.group_ns += t_out.elapsed().as_nanos() as u64;
            }
        }
    }

    /// Sum of the operator ns accounted *inside* chunk ingest (used to
    /// keep decode/route from double-counting downstream time).
    fn inner_op_ns(&self) -> u64 {
        self.opc.join_build_ns + self.opc.residual_ns + self.opc.group_ns + self.opc.stream_ns
    }

    /// Estimator moments fold every arriving event of the input — late
    /// ones and those the residual drops included.
    fn update_moments<'c, F>(&mut self, host: HostId, src: &FoldSource<'c, F>, rows: usize)
    where
        F: Fn(usize, usize) -> Cow<'c, Value>,
    {
        let aggregates = match &self.plan.mode {
            OutputMode::Aggregate { aggregates, .. } => aggregates.len(),
            OutputMode::Stream(_) => return,
        };
        let moments = self
            .host_moments
            .entry(host)
            .or_insert_with(|| vec![Welford::new(); aggregates]);
        for row in 0..rows {
            for (j, moment) in moments.iter_mut().enumerate() {
                if let Some(x) = src.arg_f64(j, row) {
                    moment.add(x);
                }
            }
        }
    }

    /// Window starts covering a timestamp: every `w = k · slide` with
    /// `w <= ts < w + window`. Tumbling windows (slide == window) cover
    /// each event exactly once; a smaller slide produces overlap (§3.2's
    /// sliding-window extension). Closed windows included.
    pub fn covered_windows(&self, ts: i64) -> impl Iterator<Item = i64> {
        let w = self.plan.window_ms;
        let s = self.plan.slide_ms;
        let k_min = (ts - w).div_euclid(s) + 1;
        let k_max = ts.div_euclid(s);
        (k_min..=k_max).map(move |k| k * s)
    }

    /// Selection pass over the timestamp column alone. Returns a flat
    /// arena of window starts and, per surviving row, `(row, lo, hi)` with
    /// its still-open covering windows at `arena[lo..hi]` (ascending, never
    /// empty). A row whose windows have all closed is counted late.
    ///
    /// In aggregate mode the arena also counts into `host`'s deliveries per
    /// window, before the residual.
    fn select_rows(
        &mut self,
        host: HostId,
        timestamps: &[i64],
    ) -> (Vec<i64>, Vec<(u32, u32, u32)>) {
        let closed = self.closed_before_ms;
        let mut wins: Vec<i64> = Vec::with_capacity(timestamps.len());
        let mut sel: Vec<(u32, u32, u32)> = Vec::with_capacity(timestamps.len());
        for (i, &ts) in timestamps.iter().enumerate() {
            let lo = wins.len() as u32;
            wins.extend(self.covered_windows(ts).filter(|w| *w >= closed));
            let hi = wins.len() as u32;
            if lo == hi {
                self.late_events_dropped += 1;
            } else {
                self.opc.decode_rows_out += 1;
                sel.push((i as u32, lo, hi));
            }
        }
        if matches!(self.plan.mode, OutputMode::Aggregate { .. }) {
            // one start per (row, window): hosts ship in time order, so a
            // tumbling window's rows sit together and cost one count per run
            for run in wins.chunk_by(|a, b| a == b) {
                *self
                    .delivered
                    .entry(run[0])
                    .or_default()
                    .entry(host)
                    .or_default() += run.len() as u64;
            }
        }
        (wins, sel)
    }

    /// Join build: leave one reference per selected row in every window
    /// covering it. The chunk itself is shared by those windows and freed
    /// when the last of them closes.
    fn buffer_chunk(
        &mut self,
        chunk: Arc<ColumnChunk>,
        input_idx: usize,
        wins: &[i64],
        sel: &[(u32, u32, u32)],
    ) {
        let t0 = Instant::now();
        self.opc.join_build_rows_in += sel.len() as u64;
        self.opc.join_build_rows_out += wins.len() as u64;
        // distinct window starts; batches run in time order, so dropping
        // adjacent repeats first leaves the sort next to nothing
        let mut starts = wins.to_vec();
        starts.dedup();
        starts.sort_unstable();
        starts.dedup();
        let inputs = self.plan.inputs.len();
        for w in starts {
            let state = self.windows.entry(w).or_insert_with(|| {
                WindowState::Buffered(JoinBuffer {
                    chunks: Vec::new(),
                    sides: vec![Vec::new(); inputs],
                })
            });
            let WindowState::Buffered(buf) = state else {
                unreachable!("join plans always buffer");
            };
            let chunk_idx = buf.chunks.len() as u32;
            buf.chunks.push(Arc::clone(&chunk));
            // a row's windows are contiguous starts, so covering `w` is a
            // range test
            let covered = sel
                .iter()
                .filter(|&&(_, lo, hi)| wins[lo as usize] <= w && w <= wins[hi as usize - 1]);
            buf.sides[input_idx].extend(covered.map(|&(row, _, _)| JoinRef {
                request_id: chunk.request_ids[row as usize],
                at: At {
                    chunk: chunk_idx,
                    row,
                },
            }));
        }
        self.opc.join_build_ns += t0.elapsed().as_nanos() as u64;
    }

    /// Advance the clock: close and render every window that ended at or
    /// before the complete-through mark or whose grace period has elapsed,
    /// then emit the stream rows — those that passed since the last
    /// advance and those the join windows closing now produced.
    pub fn advance(&mut self, now_ms: i64) -> Vec<ResultRow> {
        let mut out = Vec::new();
        let host_dead = !self.dead_hosts.is_empty();
        let scale = self.scale();
        let graced = now_ms.saturating_sub(self.grace_ms);
        let cutoff = graced
            .max(self.complete_through_ms)
            .saturating_sub(self.plan.window_ms);
        let due: Vec<i64> = self.windows.range(..=cutoff).map(|(w, _)| *w).collect();
        // counts of the windows closing now, and of any whose rows all
        // failed the residual: those never open, so never close
        let later = self.delivered.split_off(&(cutoff + 1));
        let mut delivered = std::mem::replace(&mut self.delivered, later);
        for w in due {
            let (groups, overflow_rows) = match self.windows.remove(&w).expect("key just listed") {
                WindowState::Eager {
                    groups,
                    overflow_rows,
                } => (groups, overflow_rows),
                WindowState::Buffered(buf) => self.probe_window(w, buf),
            };
            // every window with start <= w is now closed; the next open one
            // starts one slide later
            self.closed_before_ms = self.closed_before_ms.max(w + self.plan.slide_ms);
            if !groups.is_empty() {
                self.windows_emitted += 1;
            }
            self.profile.groups_overflow += overflow_rows;
            // A window that dropped rows to the group cap is missing them
            // from its aggregates: what it renders is degraded, same as
            // rows of a window open while a host was suspected dead.
            let suspected = self.suspect_windows.remove(&w);
            let degraded = host_dead || suspected || overflow_rows > 0;
            let rows = self.render_window(w, groups, scale, degraded, &mut out);
            self.rendered_rows += rows;
            if degraded {
                self.degraded_rows += rows;
            }
            let rule = if w + self.plan.window_ms <= graced {
                CloseRule::Grace
            } else {
                self.closed_by_watermark += 1;
                CloseRule::Watermark
            };
            // a degraded window's delivered events, attributed per host
            if degraded {
                for (h, n) in delivered.remove(&w).unwrap_or_default() {
                    if let Some(hp) = self.profile.hosts.get_mut(self.hosts.name(h)) {
                        hp.window_degraded += n;
                    }
                }
            }
            self.profile.observe_windows_closed(1, degraded as u64);
            self.closes.push(WindowClose {
                window_start_ms: w,
                rows,
                degraded,
                rule,
            });
        }
        let streamed = self.stream_out.len();
        out.append(&mut self.stream_out);
        if host_dead {
            let rows = out.len() - streamed..;
            out[rows].iter_mut().for_each(|row| row.degraded = true);
            self.degraded_rows += streamed as u64;
        }
        let held = self.buffered_events() + self.open_groups();
        self.profile
            .observe_state(self.windows.len() as u64, held as u64);
        self.profile.rows_emitted += out.len() as u64;
        out
    }

    /// Render a closed window's groups, in key order, onto `out`; returns
    /// the row count (0 in stream mode, whose rows were emitted as they
    /// passed).
    fn render_window(
        &mut self,
        w: i64,
        groups: GroupTable,
        scale: f64,
        degraded: bool,
        out: &mut Vec<ResultRow>,
    ) -> u64 {
        let OutputMode::Aggregate { output, .. } = &self.plan.mode else {
            return 0;
        };
        let t_render = Instant::now();
        let rows = groups.len() as u64;
        out.extend(groups.into_sorted().into_iter().map(|g| {
            ResultRow {
                query_id: self.plan.query_id,
                window_start_ms: w,
                values: output
                    .iter()
                    .map(|col| match col {
                        OutputCol::Group(i) => g.keys.get(*i).cloned().unwrap_or(Value::Null),
                        OutputCol::Agg(i) => g.aggs[*i].finish(scale),
                    })
                    .collect(),
                degraded,
            }
        }));
        self.render_ns += t_render.elapsed().as_nanos() as u64;
        rows
    }

    /// Join probe of a closed window: sort each side by request id and
    /// merge the sides k-way. The sort is stable, so joined rows come out
    /// by ascending request id, within a request in arrival order with
    /// the last input varying fastest — one fixed enumeration order,
    /// which is what makes float folds and first-seen key values
    /// reproducible whatever order the batches arrived in across inputs.
    /// Joined rows are gathered into blocks, one `(chunk, row)` reference
    /// per side, and never built. Returns the window's groups and the
    /// rows its `max_groups` cap dropped; stream-mode rows go to
    /// `stream_out`.
    fn probe_window(&mut self, w: i64, buf: JoinBuffer) -> (GroupTable, u64) {
        let t_close = Instant::now();
        let folded_before = self.opc.residual_ns + self.opc.group_ns + self.opc.stream_ns;
        let plan = Arc::clone(&self.plan);
        let JoinBuffer { chunks, mut sides } = buf;
        self.opc.join_probe_rows_in += sides.iter().map(Vec::len).sum::<usize>() as u64;
        for side in &mut sides {
            side.sort_by_key(|r| r.request_id);
        }
        let k = sides.len();
        let mut folded = (GroupTable::new(key_width(&plan)), 0u64);
        let mut block = JoinedBlock::new(&plan, &chunks);
        // each side's run of the current request id is `cur[i]..end[i]`
        let mut cur = vec![0usize; k];
        let mut end = vec![0usize; k];
        let mut combo = vec![0usize; k];
        'merge: loop {
            // Inner join: only a request id present on every side emits,
            // and none below the largest head can be.
            let mut rid = 0u64;
            for (side, &c) in sides.iter().zip(&cur) {
                match side.get(c) {
                    Some(r) => rid = rid.max(r.request_id),
                    None => break 'merge,
                }
            }
            let mut on_every_side = true;
            for (side, c) in sides.iter().zip(&mut cur) {
                *c += side[*c..].iter().take_while(|r| r.request_id < rid).count();
                on_every_side &= side.get(*c).is_some_and(|r| r.request_id == rid);
            }
            if !on_every_side {
                continue;
            }
            let mut total = 1usize;
            for ((side, &c), e) in sides.iter().zip(&cur).zip(&mut end) {
                let run = side[c..].iter().take_while(|r| r.request_id == rid).count();
                *e = c + run;
                total = total.saturating_mul(run);
            }
            let emit = total.min(MAX_JOIN_ROWS_PER_REQUEST);
            self.join_rows_capped += (total - emit) as u64;
            self.opc.join_probe_rows_out += emit as u64;
            combo.copy_from_slice(&cur);
            for _ in 0..emit {
                block.push(sides.iter().zip(&combo).map(|(side, &c)| side[c].at));
                if block.len() == PROBE_BLOCK_ROWS {
                    self.fold_block(&plan, w, &mut block, &mut folded);
                }
                // advance the mixed-radix combination counter
                for i in (0..k).rev() {
                    combo[i] += 1;
                    if combo[i] < end[i] {
                        break;
                    }
                    combo[i] = cur[i];
                }
            }
            cur.copy_from_slice(&end);
        }
        self.fold_block(&plan, w, &mut block, &mut folded);
        let folded_ns =
            (self.opc.residual_ns + self.opc.group_ns + self.opc.stream_ns) - folded_before;
        self.opc.join_probe_ns += (t_close.elapsed().as_nanos() as u64).saturating_sub(folded_ns);
        folded
    }

    /// Run the residual and then the fold (or stream projection) over a
    /// block of enumerated joined rows, in enumeration order, and empty
    /// the block. The residual runs column-wise and shrinks a selection
    /// of the block's rows; the survivors are compacted before the fold.
    /// `folded` is the window's `(groups, overflow_rows)`.
    fn fold_block(
        &mut self,
        plan: &CentralPlan,
        w: i64,
        block: &mut JoinedBlock<'_>,
        folded: &mut (GroupTable, u64),
    ) {
        if let Some(res) = &plan.residual {
            let t_res = Instant::now();
            let mut sel: Vec<u32> = (0..block.len() as u32).collect();
            block.keep_true(res, &mut sel);
            self.opc.residual_rows_in += block.len() as u64;
            self.opc.residual_rows_out += sel.len() as u64;
            block.retain_rows(&sel);
            self.opc.residual_ns += t_res.elapsed().as_nanos() as u64;
        }
        let t_out = Instant::now();
        let rows = block.len();
        match &plan.mode {
            OutputMode::Stream(exprs) => {
                for j in 0..rows {
                    let fetch = |slot| block.value(j, slot);
                    self.stream_out.push(ResultRow {
                        query_id: plan.query_id,
                        window_start_ms: w,
                        values: exprs
                            .iter()
                            .map(|e| e.eval_by(&fetch).into_owned())
                            .collect(),
                        degraded: false,
                    });
                }
                self.opc.stream_rows_in += rows as u64;
                self.opc.stream_rows_out += rows as u64;
                self.opc.stream_ns += t_out.elapsed().as_nanos() as u64;
            }
            OutputMode::Aggregate {
                group_by,
                aggregates,
                ..
            } => {
                let (groups, overflow_rows) = folded;
                let view = &*block;
                let fetch = |row, slot| view.value(row, slot);
                let column = |slot| view.column(slot).map(SlotColumn::Joined);
                let mut src = FoldSource::new(group_by, aggregates, fetch, column);
                *overflow_rows += groups.fold(plan.max_groups, 0..rows as u32, &mut src);
                self.opc.group_rows_in += rows as u64;
                self.opc.group_ns += t_out.elapsed().as_nanos() as u64;
            }
        }
        block.clear();
    }

    /// Close everything and produce the end-of-query summary.
    pub fn finish(&mut self) -> (Vec<ResultRow>, QuerySummary) {
        let open = self.closes.len();
        let rows = self.advance(i64::MAX / 4);
        // what was still open closed because the query ended, not because
        // its grace ran out
        for close in &mut self.closes[open..] {
            close.rule = CloseRule::Finish;
            self.closed_at_finish += 1;
        }
        let p = &self.profile;
        let summary = QuerySummary {
            query_id: self.plan.query_id,
            hosts_reporting: p.hosts.len(),
            total_matched: p.total_tapped(),
            total_sampled: p.total_selected(),
            total_shed: p.total_shed(),
            total_budget_shed: p.total_budget_shed(),
            windows_emitted: self.windows_emitted,
            estimates: self.compute_estimates(),
            hosts_targeted: self.plan.host_info.selected,
            hosts_live: p.hosts.values().filter(|h| !h.suspected_dead).count(),
            degraded_rows: self.degraded_rows,
            duplicate_batches: p.batches_duplicate,
            groups_overflow: p.groups_overflow,
        };
        (rows, summary)
    }

    /// The per-column two-stage estimates (Eqs 1–3). Hosts reduce in
    /// first-seen order, which fixes the floating-point reduction order.
    fn compute_estimates(&self) -> Vec<Option<scrub_sketch::TwoStageEstimate>> {
        let OutputMode::Aggregate {
            aggregates, output, ..
        } = &self.plan.mode
        else {
            return vec![None; self.plan.headers.len()];
        };
        if !plan_estimator_eligible(&self.plan) {
            return vec![None; output.len()];
        }
        // every host that sent a batch, with its cumulative matched count,
        // in first-seen order
        let per_host: Vec<(HostId, u64, bool)> = self
            .hosts
            .iter()
            .map(|(h, name)| {
                let hp = &self.profile.hosts[name];
                (h, hp.tapped, hp.suspected_dead)
            })
            .collect();
        let n_total = if self.plan.host_info.matching > 0 {
            self.plan.host_info.matching
        } else {
            per_host.len()
        };
        output
            .iter()
            .map(|col| {
                let OutputCol::Agg(i) = col else {
                    return None;
                };
                use scrub_core::ql::ast::AggFn;
                if !matches!(aggregates[*i].func, AggFn::Count | AggFn::Sum) {
                    return None;
                }
                let hosts: Vec<HostSample> = per_host
                    .iter()
                    // A dead host's counters stopped at an unknown point;
                    // dropping its sample shrinks n, so the two-stage bounds
                    // widen instead of silently biasing (Eqs 1–3).
                    .filter(|&&(_, _, dead)| !dead)
                    .map(|&(h, matched, _)| HostSample {
                        population: matched,
                        stats: self
                            .host_moments
                            .get(&h)
                            .and_then(|m| m.get(*i))
                            .copied()
                            .unwrap_or_default(),
                    })
                    .collect();
                Some(estimate_total(n_total, &hosts, 0.95))
            })
            .collect()
    }

    /// Assemble this query's `EXPLAIN ANALYZE` profile.
    ///
    /// Host-side operators are reconstructed *deterministically* from the
    /// cumulative batch-header counters through the agent's `CostModel`
    /// — the paper's host agents never time their own hot path (that
    /// would be overhead), so central attributes host ns from the same
    /// model that the ≤2.5 % CPU envelope is audited against. Central
    /// operators report the wall-clock counters accumulated above.
    pub fn plan_profile(&self) -> PlanProfile {
        let mut profile = PlanProfile {
            query_id: self.plan.query_id.0,
            ops: Vec::new(),
            notes: Vec::new(),
        };
        for desc in self.plan.operators() {
            let mut op = OperatorStats {
                id: desc.id.0,
                label: desc.label.clone(),
                host_side: desc.host_side,
                est_selectivity: desc.est_selectivity,
                ..Default::default()
            };
            match desc.kind {
                OperatorKind::Selection | OperatorKind::Sampling | OperatorKind::Projection => {}
                OperatorKind::Decode => {
                    op.rows_in = self.opc.decode_rows_in;
                    op.rows_out = self.opc.decode_rows_out;
                    op.ns = self.opc.decode_ns;
                    op.bytes = self.profile.bytes_first_sent + self.profile.bytes_retransmitted;
                }
                OperatorKind::JoinBuild => {
                    op.rows_in = self.opc.join_build_rows_in;
                    op.rows_out = self.opc.join_build_rows_out;
                    op.ns = self.opc.join_build_ns;
                }
                OperatorKind::JoinProbe => {
                    op.rows_in = self.opc.join_probe_rows_in;
                    op.rows_out = self.opc.join_probe_rows_out;
                    op.ns = self.opc.join_probe_ns;
                }
                OperatorKind::Residual => {
                    op.rows_in = self.opc.residual_rows_in;
                    op.rows_out = self.opc.residual_rows_out;
                    op.ns = self.opc.residual_ns;
                }
                OperatorKind::GroupAgg => {
                    op.rows_in = self.opc.group_rows_in;
                    op.rows_out = self.rendered_rows;
                    op.ns = self.opc.group_ns;
                }
                OperatorKind::WindowClose => {
                    op.rows_in = self.profile.windows_closed;
                    op.rows_out = self.windows_emitted;
                    op.ns = self.render_ns;
                }
                OperatorKind::Stream => {
                    op.rows_in = self.opc.stream_rows_in;
                    op.rows_out = self.opc.stream_rows_out;
                    op.ns = self.opc.stream_ns;
                }
            }
            profile.ops.push(op);
        }
        totals::fill_host_ops(&self.plan, &self.profile, &mut profile);
        profile.notes = totals::profile_notes(&self.plan, &self.profile);
        let closed = self.profile.windows_closed;
        if closed > 0 {
            profile.notes.push(format!(
                "windows closed: {} on host watermarks, {} by the grace fallback, {} at finish",
                self.closed_by_watermark,
                closed - self.closed_by_watermark - self.closed_at_finish,
                self.closed_at_finish
            ));
        }
        if self.profile.groups_overflow > 0 {
            profile.notes.push(format!(
                "group state capped at {} groups: groups_kept {} (rendered), groups_dropped {} rows past the cap",
                self.plan.max_groups.max(1),
                self.rendered_rows,
                self.profile.groups_overflow
            ));
        }
        profile
    }
}

/// Group-by keys per row of a plan (0 in stream mode).
fn key_width(plan: &CentralPlan) -> usize {
    match &plan.mode {
        OutputMode::Aggregate { group_by, .. } => group_by.len(),
        OutputMode::Stream(_) => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scrub_core::config::ScrubConfig;
    use scrub_core::event::{Event, RequestId};
    use scrub_core::plan::{compile, HostSampleInfo, QueryId};
    use scrub_core::ql::parser::parse_query;
    use scrub_core::schema::{EventSchema, EventTypeId, FieldDef, FieldType, SchemaRegistry};

    fn registry() -> SchemaRegistry {
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
        reg.register(
            EventSchema::new(
                "impression",
                vec![
                    FieldDef::new("line_item_id", FieldType::Long),
                    FieldDef::new("cost", FieldType::Double),
                ],
            )
            .unwrap(),
        )
        .unwrap();
        reg
    }

    fn executor(src: &str) -> QueryExecutor {
        let spec = parse_query(src).unwrap();
        let cq = compile(&spec, &registry(), &ScrubConfig::default(), QueryId(9)).unwrap();
        QueryExecutor::new(cq.central, 0)
    }

    /// Shorthand: feed projected events for the "bid" single-type plans.
    /// `fields` must already match the plan's projection.
    fn batch(host: &str, events: Vec<Event>, matched: u64, sampled: u64) -> EventBatch {
        let type_id = events.first().map(|e| e.type_id).unwrap_or(EventTypeId(0));
        EventBatch {
            seq: 0,
            attempt: 0,
            seq_floor: 0,
            watermark_ms: None,
            query_id: QueryId(9),
            type_id,
            host: host.into(),
            payload: ColumnarFrame::from_events(&events),
            matched,
            sampled,
            shed: 0,
            budget_shed: 0,
            seen: matched,
            bytes: 0,
            spans: vec![],
        }
    }

    fn ev(type_id: u32, rid: u64, ts: i64, values: Vec<Value>) -> Event {
        Event::new(EventTypeId(type_id), RequestId(rid), ts, values)
    }

    #[test]
    fn grouped_count_per_window() {
        // spam query: count bids per user per 10s window
        let mut ex =
            executor("select bid.user_id, COUNT(*) from bid group by bid.user_id window 10 s");
        let events = vec![
            ev(0, 1, 1_000, vec![Value::Long(7)]),
            ev(0, 2, 2_000, vec![Value::Long(7)]),
            ev(0, 3, 3_000, vec![Value::Long(8)]),
            ev(0, 4, 12_000, vec![Value::Long(7)]), // next window
        ];
        ex.ingest(batch("h1", events, 4, 4));
        let rows = ex.advance(40_000);
        assert_eq!(rows.len(), 3);
        let w0: Vec<&ResultRow> = rows.iter().filter(|r| r.window_start_ms == 0).collect();
        assert_eq!(w0.len(), 2);
        let user7 = w0.iter().find(|r| r.values[0] == Value::Long(7)).unwrap();
        assert_eq!(user7.values[1], Value::Long(2));
        let w1: Vec<&ResultRow> = rows
            .iter()
            .filter(|r| r.window_start_ms == 10_000)
            .collect();
        assert_eq!(w1.len(), 1);
        assert_eq!(w1[0].values, vec![Value::Long(7), Value::Long(1)]);
    }

    #[test]
    fn windows_respect_grace() {
        let spec = parse_query("select COUNT(*) from bid window 10 s").unwrap();
        let cq = compile(&spec, &registry(), &ScrubConfig::default(), QueryId(9)).unwrap();
        let mut ex = QueryExecutor::new(cq.central, 2_000);
        ex.ingest(batch("h1", vec![ev(0, 1, 5_000, vec![])], 1, 1));
        // window [0,10s) closes at 10s + grace 2s
        assert!(ex.advance(11_000).is_empty());
        let rows = ex.advance(12_000);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].values, vec![Value::Long(1)]);
    }

    /// A window closes the moment the caller vouches for its input, long
    /// before its grace runs out; what nobody vouched for waits out the
    /// grace as before, and what is open at finish is neither.
    #[test]
    fn windows_close_on_the_complete_through_mark_ahead_of_the_grace() {
        let spec = parse_query("select COUNT(*) from bid window 10 s").unwrap();
        let cq = compile(&spec, &registry(), &ScrubConfig::default(), QueryId(9)).unwrap();
        let mut ex = QueryExecutor::new(cq.central, 2_000);
        let events = [5_000, 15_000, 25_000].map(|ts| ev(0, 1, ts, vec![]));
        ex.ingest(batch("h1", events.to_vec(), 3, 3));
        assert_eq!(ex.next_grace_close_ms(), Some(12_000));
        // short of the first window's end: nothing is due
        assert!(!ex.set_complete_through(9_999));
        assert!(ex.advance(10_000).is_empty());
        assert!(ex.set_complete_through(10_000));
        assert!(ex.set_complete_through(3_000), "the mark never moves back");
        assert_eq!(ex.advance(10_000).len(), 1);
        assert_eq!(ex.next_grace_close_ms(), Some(22_000));
        // the second window gets no word and falls to the grace
        assert!(ex.advance(21_999).is_empty());
        assert_eq!(ex.advance(22_000).len(), 1);
        let (rows, _) = ex.finish();
        assert_eq!(rows.len(), 1);
        let rules: Vec<CloseRule> = ex.take_window_closes().iter().map(|c| c.rule).collect();
        assert_eq!(
            rules,
            [CloseRule::Watermark, CloseRule::Grace, CloseRule::Finish]
        );
        assert!(ex.plan_profile().notes.contains(
            &"windows closed: 1 on host watermarks, 1 by the grace fallback, 1 at finish"
                .to_string()
        ));
        // an event below the mark is late the moment its window is gone
        ex.ingest(batch("h1", vec![ev(0, 2, 6_000, vec![])], 4, 4));
        assert_eq!(ex.late_events_dropped, 1);
    }

    #[test]
    fn late_events_dropped_after_close() {
        let mut ex = executor("select COUNT(*) from bid window 10 s");
        ex.ingest(batch("h1", vec![ev(0, 1, 5_000, vec![])], 1, 1));
        let _ = ex.advance(60_000); // closes window 0
        ex.ingest(batch("h1", vec![ev(0, 2, 6_000, vec![])], 2, 2));
        assert_eq!(ex.late_events_dropped, 1);
        assert!(ex.advance(120_000).is_empty());
    }

    #[test]
    fn stream_mode_emits_rows_immediately() {
        let mut ex = executor("select bid.user_id from bid where bid.price > 0.0");
        // host plan would filter, but central stream path just projects
        ex.ingest(batch(
            "h1",
            vec![ev(0, 1, 500, vec![Value::Long(42)])],
            1,
            1,
        ));
        // no window has to close for a stream row to come out
        let rows = ex.advance(0);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].values, vec![Value::Long(42)]);
    }

    /// `n` bids at t = 1 s spread over seven users.
    fn feed(n: u64) -> EventBatch {
        let events = (0..n)
            .map(|i| ev(0, i, 1_000, vec![Value::Long((i % 7) as i64)]))
            .collect();
        batch("h1", events, n, n)
    }

    #[test]
    fn stream_rows_pass_through() {
        let mut ex = executor("select bid.user_id from bid");
        ex.ingest(feed(10));
        assert_eq!(ex.advance(60_000).len(), 10);
        assert_eq!(ex.profile().hosts["h1"].events, 10);
        assert_eq!(ex.profile().rows_emitted, 10);
        assert!(ex.take_window_closes().is_empty());
    }

    /// Headers are cumulative per (host, subscription): a later batch
    /// raises the totals, it does not add to them.
    #[test]
    fn finish_summary_not_double_counted() {
        let mut ex = executor("select COUNT(*) from bid window 10 s");
        ex.ingest(batch("h1", vec![ev(0, 1, 1_000, vec![])], 60, 60));
        ex.ingest(batch("h1", vec![ev(0, 2, 1_000, vec![])], 100, 100));
        let (rows, summary) = ex.finish();
        assert_eq!(rows[0].values, vec![Value::Long(2)]);
        assert_eq!(summary.total_matched, 100);
        assert_eq!(summary.hosts_reporting, 1);
        assert_eq!(summary.windows_emitted, 1);
    }

    /// The decode operator's profiled byte total is the sum of the
    /// batches' accounted sizes, and the payload's share of that is the
    /// *exact* encoded frame length — no modeled approximation anywhere in
    /// the chain.
    #[test]
    fn profile_bytes_equal_encoded_columnar_lengths() {
        let mut ex =
            executor("select bid.user_id, COUNT(*) from bid group by bid.user_id window 10 s");
        let mut expect = 0u64;
        for b in 0..4u64 {
            let events: Vec<Event> = (0..50)
                .map(|i| ev(0, b * 50 + i, 1_000, vec![Value::Long((i % 7) as i64)]))
                .collect();
            let mut batch = batch("h1", events, 50, 50);
            batch.seq = b;
            assert_eq!(
                batch.approx_bytes(),
                8 + "h1".len() + 24 + batch.payload.bytes.len(),
                "payload accounting must be the encoded frame length"
            );
            expect += batch.approx_bytes() as u64;
            ex.ingest(batch);
        }
        ex.advance(60_000);
        let profile = ex.plan_profile();
        let op = |prefix: &str| {
            profile
                .ops
                .iter()
                .find(|op| op.label.starts_with(prefix))
                .unwrap_or_else(|| panic!("{prefix} operator in profile"))
        };
        assert_eq!(op("decode").bytes, expect);
        // seven groups rendered by the one window that closed
        assert_eq!(op("group").rows_out, 7);
        let close = op("window");
        assert_eq!((close.rows_in, close.rows_out), (1, 1));
    }

    #[test]
    fn rows_and_closes_degrade_under_dead_hosts() {
        let mut ex =
            executor("select bid.user_id, COUNT(*) from bid group by bid.user_id window 10 s");
        ex.ingest(feed(300));
        ex.set_dead_hosts(["h9".to_string()].into_iter().collect());
        let rows = ex.advance(60_000);
        assert_eq!(rows.len(), 7);
        assert!(rows.iter().all(|r| r.degraded));
        assert_eq!(
            ex.take_window_closes(),
            vec![WindowClose {
                window_start_ms: 0,
                rows: 7,
                degraded: true,
                rule: CloseRule::Grace,
            }]
        );
        assert!(ex.take_window_closes().is_empty(), "closes drain");
        assert_eq!(ex.degraded_rows, 7);
        let p = ex.profile();
        assert_eq!(p.hosts["h1"].window_degraded, 300);
        assert_eq!((p.windows_closed, p.windows_degraded), (1, 1));
        // the suspect host never reported, so every reporting host is live
        let (_, summary) = ex.finish();
        assert_eq!(summary.degraded_rows, 7);
        assert_eq!(summary.hosts_live, 1);
    }

    /// A host suspected while a window is open and back before it closes
    /// still left the window short of what it missed while down; a window
    /// opened after it is back is whole.
    #[test]
    fn a_window_open_while_a_host_was_suspected_closes_degraded() {
        let mut ex = executor("select COUNT(*) from bid window 10 s");
        ex.ingest(batch("h1", vec![ev(0, 1, 1_000, vec![])], 1, 1));
        ex.set_dead_hosts(["h2".to_string()].into_iter().collect());
        // opened while h2 is suspected
        ex.ingest(batch("h1", vec![ev(0, 2, 11_000, vec![])], 2, 2));
        ex.set_dead_hosts(HashSet::new());
        ex.ingest(batch("h1", vec![ev(0, 3, 21_000, vec![])], 3, 3));
        let rows = ex.advance(60_000);
        let degraded: Vec<bool> = rows.iter().map(|r| r.degraded).collect();
        assert_eq!(degraded, [true, true, false]);
        assert_eq!(ex.degraded_rows, 2);
    }

    #[test]
    fn max_groups_overflow_degrades_the_window_and_counts_dropped_rows() {
        let spec =
            parse_query("select bid.user_id, COUNT(*) from bid group by bid.user_id window 10 s")
                .unwrap();
        let config = ScrubConfig {
            max_groups: 3,
            ..ScrubConfig::default()
        };
        let cq = compile(&spec, &registry(), &config, QueryId(9)).unwrap();
        let mut ex = QueryExecutor::new(cq.central, 0);
        // 70 rows over users 0..7, then a clean second window
        ex.ingest(feed(70));
        ex.ingest(batch(
            "h1",
            vec![ev(0, 900, 11_000, vec![Value::Long(1)])],
            71,
            71,
        ));
        // nothing is counted until the window that dropped the rows closes
        assert_eq!(ex.profile().groups_overflow, 0);
        let rows = ex.advance(60_000);
        // the three smallest keys survive; users 3..7 lost 10 rows each
        let w0: Vec<&ResultRow> = rows.iter().filter(|r| r.window_start_ms == 0).collect();
        let users: Vec<&Value> = w0.iter().map(|r| &r.values[0]).collect();
        assert_eq!(users, [&Value::Long(0), &Value::Long(1), &Value::Long(2)]);
        assert!(w0
            .iter()
            .all(|r| r.degraded && r.values[1] == Value::Long(10)));
        let w1: Vec<&ResultRow> = rows.iter().filter(|r| r.window_start_ms != 0).collect();
        assert_eq!(w1.len(), 1);
        assert!(!w1[0].degraded);
        assert_eq!(ex.profile().groups_overflow, 40);
        assert_eq!(ex.degraded_rows, 3);
        let closes = ex.take_window_closes();
        assert_eq!(
            closes.iter().map(|c| c.degraded).collect::<Vec<_>>(),
            [true, false]
        );
        assert!(ex
            .plan_profile()
            .notes
            .iter()
            .any(|n| n.contains("groups_dropped 40 rows")));
        assert_eq!(ex.finish().1.groups_overflow, 40);
    }

    #[test]
    fn equijoin_on_request_id() {
        // join bid and impression; count joined rows per window
        let mut ex =
            executor("select COUNT(*) from bid, impression where bid.price > 0.0 window 10 s");
        // bid plan projects [price] (input 0), impression projects [] (input 1)
        let bids = vec![
            ev(0, 100, 1_000, vec![Value::Double(1.0)]),
            ev(0, 101, 2_000, vec![Value::Double(2.0)]),
        ];
        let imps = vec![
            ev(1, 100, 1_500, vec![]),
            ev(1, 100, 1_600, vec![]), // second impression, same request
            ev(1, 999, 3_000, vec![]), // unmatched request
        ];
        ex.ingest(batch("h1", bids, 2, 2));
        ex.ingest(batch("h2", imps, 3, 3));
        let rows = ex.advance(60_000);
        assert_eq!(rows.len(), 1);
        // request 100: 1 bid × 2 impressions = 2 joined rows; 101 and 999
        // have no partner
        assert_eq!(rows[0].values, vec![Value::Long(2)]);
    }

    /// A stream join's rows come out of the probe of the window closing;
    /// those of the windows `finish` closes come back from `finish`.
    #[test]
    fn stream_join_rows_of_windows_closed_at_finish_are_returned() {
        let mut ex = executor("select bid.user_id, impression.line_item_id from bid, impression");
        let bids = (1..=2).map(|rid| ev(0, rid, 1_000, vec![Value::Long(rid as i64)]));
        let imps = (1..=2).map(|rid| ev(1, rid, 1_500, vec![Value::Long(10 * rid as i64)]));
        ex.ingest(batch("h1", bids.collect(), 2, 2));
        ex.ingest(batch("h2", imps.collect(), 2, 2));
        let (rows, _) = ex.finish();
        let values: Vec<&[Value]> = rows.iter().map(|r| r.values.as_slice()).collect();
        assert_eq!(
            values,
            [
                [Value::Long(1), Value::Long(10)],
                [Value::Long(2), Value::Long(20)]
            ]
        );
        assert!(ex.advance(i64::MAX / 4).is_empty());
    }

    #[test]
    fn join_cross_product_capped() {
        let mut ex = executor("select COUNT(*) from bid, impression window 10 s");
        let bids: Vec<Event> = (0..400).map(|i| ev(0, 7, 1_000 + i, vec![])).collect();
        let imps: Vec<Event> = (0..400).map(|i| ev(1, 7, 1_000 + i, vec![])).collect();
        ex.ingest(batch("h1", bids, 400, 400));
        ex.ingest(batch("h2", imps, 400, 400));
        let rows = ex.advance(60_000);
        // 160k combos capped at 100k
        assert_eq!(
            rows[0].values,
            vec![Value::Long(MAX_JOIN_ROWS_PER_REQUEST as i64)]
        );
        assert_eq!(
            ex.join_rows_capped,
            400 * 400 - MAX_JOIN_ROWS_PER_REQUEST as u64
        );
    }

    #[test]
    fn cross_type_residual_filters_joined_rows() {
        let mut ex = executor(
            "select COUNT(*) from bid, impression \
             where bid.user_id = impression.line_item_id window 10 s",
        );
        ex.ingest(batch(
            "h1",
            vec![ev(0, 1, 1_000, vec![Value::Long(5)])],
            1,
            1,
        ));
        ex.ingest(batch(
            "h2",
            vec![
                ev(1, 1, 1_100, vec![Value::Long(5)]),
                ev(1, 1, 1_200, vec![Value::Long(6)]),
            ],
            2,
            2,
        ));
        let rows = ex.advance(60_000);
        assert_eq!(rows[0].values, vec![Value::Long(1)]);
    }

    #[test]
    fn scaling_compensates_sampling() {
        let spec = parse_query("select COUNT(*) from bid sample events 10% window 10 s").unwrap();
        let mut cq = compile(&spec, &registry(), &ScrubConfig::default(), QueryId(9)).unwrap();
        cq.central.host_info = HostSampleInfo {
            matching: 1,
            selected: 1,
        };
        let mut ex = QueryExecutor::new(cq.central, 0);
        // host matched 1000 events, sampled 100
        let events: Vec<Event> = (0..100).map(|i| ev(0, i, 1_000, vec![])).collect();
        ex.ingest(batch("h1", events, 1000, 100));
        let rows = ex.advance(60_000);
        assert_eq!(rows[0].values, vec![Value::Double(1000.0)]);
    }

    #[test]
    fn host_sampling_scale_up() {
        let spec = parse_query("select COUNT(*) from bid window 10 s sample hosts 50%").unwrap();
        let mut cq = compile(&spec, &registry(), &ScrubConfig::default(), QueryId(9)).unwrap();
        cq.central.host_info = HostSampleInfo {
            matching: 10,
            selected: 5,
        };
        let mut ex = QueryExecutor::new(cq.central, 0);
        for h in 0..5 {
            let events: Vec<Event> = (0..10).map(|i| ev(0, h * 100 + i, 1_000, vec![])).collect();
            ex.ingest(batch(&format!("h{h}"), events, 10, 10));
        }
        let rows = ex.advance(60_000);
        // 50 observed, scaled ×2 for the unobserved half of the fleet
        assert_eq!(rows[0].values, vec![Value::Double(100.0)]);
    }

    #[test]
    fn summary_carries_totals_and_estimates() {
        let spec =
            parse_query("select SUM(bid.price) from bid sample events 50% window 10 s").unwrap();
        let mut cq = compile(&spec, &registry(), &ScrubConfig::default(), QueryId(9)).unwrap();
        cq.central.host_info = HostSampleInfo {
            matching: 3,
            selected: 3,
        };
        let mut ex = QueryExecutor::new(cq.central, 0);
        for h in 0..3 {
            let events: Vec<Event> = (0..50)
                .map(|i| ev(0, i, 1_000, vec![Value::Double(2.0)]))
                .collect();
            ex.ingest(batch(&format!("h{h}"), events, 100, 50));
        }
        let (_rows, summary) = ex.finish();
        assert_eq!(summary.hosts_reporting, 3);
        assert_eq!(summary.total_matched, 300);
        assert_eq!(summary.total_sampled, 150);
        let est = summary.estimates[0].expect("SUM estimate present");
        // each host: (100/50) * 50*2.0 = 200; N/n = 1 → 600
        assert!((est.estimate - 600.0).abs() < 1e-9);
        assert!(est.error_bound.is_finite());
    }

    #[test]
    fn no_estimates_for_grouped_queries() {
        let mut ex = executor(
            "select bid.user_id, COUNT(*) from bid group by bid.user_id sample events 50%",
        );
        ex.ingest(batch("h1", vec![ev(0, 1, 0, vec![Value::Long(1)])], 2, 1));
        let (_, summary) = ex.finish();
        assert!(summary.estimates.iter().all(Option::is_none));
    }

    #[test]
    fn unsampled_query_reports_exact_counts_no_scaling() {
        let mut ex = executor("select COUNT(*) from bid window 10 s");
        ex.ingest(batch(
            "h1",
            vec![ev(0, 1, 0, vec![]), ev(0, 2, 1, vec![])],
            2,
            2,
        ));
        let rows = ex.advance(60_000);
        assert_eq!(rows[0].values, vec![Value::Long(2)]);
    }

    #[test]
    fn avg_min_max_pipeline() {
        let mut ex =
            executor("select AVG(bid.price), MIN(bid.price), MAX(bid.price) from bid window 10 s");
        let events = vec![
            ev(0, 1, 0, vec![Value::Double(1.0)]),
            ev(0, 2, 1, vec![Value::Double(3.0)]),
            ev(0, 3, 2, vec![Value::Double(2.0)]),
        ];
        ex.ingest(batch("h1", events, 3, 3));
        let rows = ex.advance(60_000);
        assert_eq!(
            rows[0].values,
            vec![Value::Double(2.0), Value::Double(1.0), Value::Double(3.0)]
        );
    }

    #[test]
    fn foreign_event_types_ignored() {
        let mut ex = executor("select COUNT(*) from bid window 10 s");
        ex.ingest(batch("h1", vec![ev(55, 1, 0, vec![])], 1, 1));
        assert!(ex.advance(60_000).is_empty());
    }

    /// A well-formed columnar batch of `type_id` events carrying a string
    /// column, and two ways to break its frame.
    fn columnar(type_id: u32, rids: std::ops::Range<u64>) -> EventBatch {
        let events: Vec<Event> = rids
            .map(|rid| {
                let fields = vec![Value::Double(1.0), Value::Str("abc".into())];
                ev(type_id, rid, 1_000, fields)
            })
            .collect();
        let n = events.len() as u64;
        let mut b = batch("h1", Vec::new(), n, n);
        b.type_id = EventTypeId(type_id);
        b.payload = ColumnarFrame::from_events(&events);
        b
    }

    fn corrupt(mut b: EventBatch, damage: impl Fn(&mut Vec<u8>)) -> EventBatch {
        damage(&mut b.payload.bytes);
        assert!(b.payload.decode().is_err(), "damage must break the frame");
        b
    }

    #[test]
    fn undecodable_frames_are_counted_and_dropped() {
        let truncate = |bytes: &mut Vec<u8>| bytes.truncate(bytes.len() - 3);
        // the frame ends with the string column's last dictionary index
        let bad_dict_index = |bytes: &mut Vec<u8>| *bytes.last_mut().unwrap() = 0x7f;
        // the header of the retired row format
        let row_format = |bytes: &mut Vec<u8>| bytes[1] = 1;
        for query in [
            "select COUNT(*) from bid window 10 s",
            "select COUNT(*) from bid, impression window 10 s",
        ] {
            let mut ex = executor(query);
            ex.ingest(columnar(0, 0..4));
            ex.ingest(corrupt(columnar(0, 4..8), truncate));
            ex.ingest(corrupt(columnar(1, 0..8), bad_dict_index));
            ex.ingest(corrupt(columnar(0, 20..30), row_format));
            assert_eq!(ex.profile().decode_failures, 3, "{query}");
            // later batches still fold: 6 bids in all, 2 of them joined
            ex.ingest(columnar(0, 8..10));
            ex.ingest(columnar(1, 2..4));
            let rows = ex.advance(60_000);
            let expect = if ex.plan().is_join() { 2 } else { 6 };
            assert_eq!(rows[0].values, vec![Value::Long(expect)], "{query}");
            assert_eq!(ex.profile().decode_failures, 3);
        }
    }
}

#[cfg(test)]
mod sliding_tests {
    use super::*;
    use scrub_core::config::ScrubConfig;
    use scrub_core::event::{Event, RequestId};
    use scrub_core::plan::{compile, QueryId};
    use scrub_core::ql::parser::parse_query;
    use scrub_core::schema::{EventSchema, EventTypeId, FieldDef, FieldType, SchemaRegistry};

    fn registry() -> SchemaRegistry {
        let reg = SchemaRegistry::new();
        reg.register(
            EventSchema::new("bid", vec![FieldDef::new("user_id", FieldType::Long)]).unwrap(),
        )
        .unwrap();
        reg
    }

    fn sliding_executor(src: &str) -> QueryExecutor {
        let spec = parse_query(src).unwrap();
        let cq = compile(&spec, &registry(), &ScrubConfig::default(), QueryId(3)).unwrap();
        QueryExecutor::new(cq.central, 0)
    }

    fn one(ts: i64) -> EventBatch {
        EventBatch {
            seq: 0,
            attempt: 0,
            seq_floor: 0,
            watermark_ms: None,
            query_id: QueryId(3),
            type_id: EventTypeId(0),
            host: "h".into(),
            payload: ColumnarFrame::from_events(&[Event::new(
                EventTypeId(0),
                RequestId(ts as u64),
                ts,
                vec![Value::Long(1)],
            )]),
            matched: 1,
            sampled: 1,
            shed: 0,
            budget_shed: 0,
            seen: 1,
            bytes: 0,
            spans: vec![],
        }
    }

    #[test]
    fn event_lands_in_every_covering_window() {
        // window 10 s, slide 2 s: an event at t=9s covers starts 0,2,4,6,8
        let mut ex = sliding_executor("select COUNT(*) from bid window 10 s slide 2 s");
        ex.ingest(one(9_000));
        let rows = ex.advance(120_000);
        let starts: Vec<i64> = rows.iter().map(|r| r.window_start_ms).collect();
        assert_eq!(starts, vec![0, 2_000, 4_000, 6_000, 8_000]);
        assert!(rows.iter().all(|r| r.values == vec![Value::Long(1)]));
    }

    #[test]
    fn sliding_counts_overlap_correctly() {
        // events at 1s and 11s; window 10s slide 5s
        // starts covering 1s: {-5s, 0s}; covering 11s: {5s, 10s}
        let mut ex = sliding_executor("select COUNT(*) from bid window 10 s slide 5 s");
        ex.ingest(one(1_000));
        ex.ingest(one(11_000));
        let rows = ex.advance(120_000);
        let by_start: Vec<(i64, i64)> = rows
            .iter()
            .map(|r| (r.window_start_ms, r.values[0].as_i64().unwrap()))
            .collect();
        assert_eq!(by_start, vec![(-5_000, 1), (0, 1), (5_000, 1), (10_000, 1)]);
    }

    #[test]
    fn tumbling_unchanged_by_slide_machinery() {
        let mut ex = sliding_executor("select COUNT(*) from bid window 10 s");
        ex.ingest(one(9_000));
        ex.ingest(one(10_000));
        let rows = ex.advance(120_000);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].window_start_ms, 0);
        assert_eq!(rows[1].window_start_ms, 10_000);
    }

    #[test]
    fn windows_close_in_slide_order() {
        let mut ex = sliding_executor("select COUNT(*) from bid window 10 s slide 5 s");
        ex.ingest(one(7_000)); // covers starts 0 and 5s
                               // at t=21s, window 0 (ends 10s) and window 5s (ends 15s) have closed
        let rows = ex.advance(21_000);
        assert_eq!(rows.len(), 2);
        // a late event for start 0 is dropped, but start 15s+ still open
        ex.ingest(one(9_000)); // covers 0 and 5s — both closed
        assert_eq!(ex.late_events_dropped, 1);
        ex.ingest(one(20_000)); // covers 15s and 20s — open
        let rows = ex.advance(i64::MAX / 4);
        assert_eq!(rows.len(), 2);
    }

    /// A degraded close books the events each host delivered into the
    /// window on the host's profile; an event that arrived after its
    /// windows closed is in none.
    #[test]
    fn degraded_sliding_closes_book_per_host_counts_without_late_events() {
        let mut ex = sliding_executor("select COUNT(*) from bid window 10 s slide 5 s");
        let from = |host: &str, ts: &[i64]| {
            let mut b = one(ts[0]);
            let events: Vec<Event> = ts
                .iter()
                .map(|&t| Event::new(EventTypeId(0), RequestId(t as u64), t, vec![Value::Long(1)]))
                .collect();
            b.host = host.into();
            b.payload = ColumnarFrame::from_events(&events);
            b
        };
        let booked = |ex: &QueryExecutor| -> Vec<(String, u64)> {
            let hosts = &ex.profile().hosts;
            hosts
                .iter()
                .map(|(h, p)| (h.clone(), p.window_degraded))
                .collect()
        };
        let hosts = |v: &[(&str, u64)]| -> Vec<(String, u64)> {
            v.iter().map(|(h, n)| (h.to_string(), *n)).collect()
        };
        // windows -5 s and 0 close clean and owe nobody anything
        ex.ingest(from("a", &[4_000]));
        assert_eq!(ex.advance(10_000).len(), 2);
        assert!(ex.take_window_closes().iter().all(|c| !c.degraded));
        assert_eq!(booked(&ex), hosts(&[("a", 0)]));
        ex.set_dead_hosts(["c".to_string()].into_iter().collect());
        // 7 s and 9 s cover windows 0 (closed: not counted) and 5 s;
        // 12 s covers 5 s and 10 s
        ex.ingest(from("a", &[7_000, 9_000, 12_000]));
        ex.ingest(from("b", &[12_000, 13_000]));
        // 4 s covers only closed windows
        ex.ingest(from("b", &[4_000]));
        assert_eq!(ex.late_events_dropped, 1);
        // window 5 s closes first, then window 10 s
        ex.advance(15_000);
        assert_eq!(booked(&ex), hosts(&[("a", 3), ("b", 2)]));
        ex.advance(20_000);
        assert_eq!(booked(&ex), hosts(&[("a", 4), ("b", 4)]));
        let closes = ex.take_window_closes();
        assert_eq!(
            closes
                .iter()
                .map(|c| (c.window_start_ms, c.degraded))
                .collect::<Vec<_>>(),
            [(5_000, true), (10_000, true)]
        );
    }

    #[test]
    fn slide_larger_than_window_rejected_at_planning() {
        let spec = parse_query("select COUNT(*) from bid window 5 s slide 10 s").unwrap();
        let err = compile(&spec, &registry(), &ScrubConfig::default(), QueryId(1)).unwrap_err();
        assert!(err.to_string().contains("slide"));
    }

    #[test]
    fn sliding_join_replicates_pairs() {
        let reg = SchemaRegistry::new();
        reg.register(EventSchema::new("a", vec![FieldDef::new("x", FieldType::Long)]).unwrap())
            .unwrap();
        reg.register(EventSchema::new("b", vec![FieldDef::new("y", FieldType::Long)]).unwrap())
            .unwrap();
        let spec = parse_query("select COUNT(*) from a, b window 10 s slide 5 s").unwrap();
        let cq = compile(&spec, &reg, &ScrubConfig::default(), QueryId(4)).unwrap();
        let mut ex = QueryExecutor::new(cq.central, 0);
        let mk = |t: u32, ts: i64| EventBatch {
            seq: 0,
            attempt: 0,
            seq_floor: 0,
            watermark_ms: None,
            query_id: QueryId(4),
            type_id: EventTypeId(t),
            host: "h".into(),
            payload: ColumnarFrame::from_events(&[Event::new(
                EventTypeId(t),
                RequestId(7),
                ts,
                vec![],
            )]),
            matched: 1,
            sampled: 1,
            shed: 0,
            budget_shed: 0,
            seen: 1,
            bytes: 0,
            spans: vec![],
        };
        ex.ingest(mk(0, 6_000));
        ex.ingest(mk(1, 7_000));
        let rows = ex.advance(i64::MAX / 4);
        // both events covered by windows starting at 0 and 5s -> the pair
        // joins in both
        let counts: Vec<(i64, i64)> = rows
            .iter()
            .map(|r| (r.window_start_ms, r.values[0].as_i64().unwrap()))
            .collect();
        assert_eq!(counts, vec![(0, 1), (5_000, 1)]);
    }

    #[test]
    fn sliding_join_shares_one_chunk_across_covering_windows() {
        let reg = SchemaRegistry::new();
        reg.register(EventSchema::new("a", vec![FieldDef::new("x", FieldType::Long)]).unwrap())
            .unwrap();
        reg.register(EventSchema::new("b", vec![]).unwrap())
            .unwrap();
        let spec = parse_query("select COUNT(*) from a, b window 10 s slide 2 s").unwrap();
        let cq = compile(&spec, &reg, &ScrubConfig::default(), QueryId(3)).unwrap();
        let mut ex = QueryExecutor::new(cq.central, 0);
        let mut batch = one(9_000); // covers starts 0, 2, 4, 6 and 8 s
        let mut events = batch.payload.to_events().unwrap();
        events.push(events[0].clone());
        batch.payload = ColumnarFrame::from_events(&events);
        ex.ingest(batch);

        // two events in each of five windows ...
        assert_eq!(ex.open_windows(), 5);
        assert_eq!(ex.buffered_events(), 10);
        // ... but one decoded chunk, held once per window
        let chunks: Vec<&Arc<ColumnChunk>> = ex
            .windows
            .values()
            .map(|w| match w {
                WindowState::Buffered(buf) => {
                    assert_eq!(buf.chunks.len(), 1);
                    &buf.chunks[0]
                }
                WindowState::Eager { .. } => panic!("join windows buffer"),
            })
            .collect();
        assert!(chunks.iter().all(|c| Arc::ptr_eq(c, chunks[0])));
        assert_eq!(Arc::strong_count(chunks[0]), 5);

        // closing the first two windows releases their holds
        let _ = ex.advance(13_000);
        assert_eq!(ex.open_windows(), 3);
        assert_eq!(ex.buffered_events(), 6);
        let WindowState::Buffered(buf) = ex.windows.values().next().unwrap() else {
            panic!("join windows buffer");
        };
        assert_eq!(Arc::strong_count(&buf.chunks[0]), 3);
    }
}

#[cfg(test)]
mod memory_tests {
    use super::*;
    use scrub_core::config::ScrubConfig;
    use scrub_core::event::{Event, RequestId};
    use scrub_core::plan::{compile, QueryId};
    use scrub_core::ql::parser::parse_query;
    use scrub_core::schema::{EventSchema, EventTypeId, FieldDef, FieldType, SchemaRegistry};

    fn join_executor() -> QueryExecutor {
        let reg = SchemaRegistry::new();
        reg.register(EventSchema::new("a", vec![FieldDef::new("x", FieldType::Long)]).unwrap())
            .unwrap();
        reg.register(EventSchema::new("b", vec![]).unwrap())
            .unwrap();
        let spec = parse_query("select COUNT(*) from a, b window 10 s").unwrap();
        let cq = compile(&spec, &reg, &ScrubConfig::default(), QueryId(1)).unwrap();
        QueryExecutor::new(cq.central, 0)
    }

    #[test]
    fn join_buffers_drain_when_windows_close() {
        let mut ex = join_executor();
        // stream events across 10 windows, advancing the watermark as we go
        for w in 0..10i64 {
            let ts = w * 10_000 + 500;
            for i in 0..50u64 {
                ex.ingest(EventBatch {
                    seq: 0,
                    attempt: 0,
                    seq_floor: 0,
                    watermark_ms: None,
                    query_id: QueryId(1),
                    type_id: EventTypeId(0),
                    host: "h1".into(),
                    payload: ColumnarFrame::from_events(&[Event::new(
                        EventTypeId(0),
                        RequestId(w as u64 * 100 + i),
                        ts,
                        vec![Value::Long(i as i64)],
                    )]),
                    matched: 1,
                    sampled: 1,
                    shed: 0,
                    budget_shed: 0,
                    seen: 1,
                    bytes: 0,
                    spans: vec![],
                });
            }
            let _ = ex.advance(ts);
            // memory stays bounded: only windows within grace remain
            assert!(
                ex.open_windows() <= 3,
                "windows accumulating: {} at w={w}",
                ex.open_windows()
            );
            assert!(ex.buffered_events() <= 3 * 50);
        }
        // closing everything leaves no residue
        let _ = ex.advance(i64::MAX / 4);
        assert_eq!(ex.open_windows(), 0);
        assert_eq!(ex.buffered_events(), 0);
    }

    #[test]
    fn eager_groups_drain_too() {
        let reg = SchemaRegistry::new();
        reg.register(EventSchema::new("a", vec![FieldDef::new("x", FieldType::Long)]).unwrap())
            .unwrap();
        let spec = parse_query("select a.x, COUNT(*) from a group by a.x window 10 s").unwrap();
        let cq = compile(&spec, &reg, &ScrubConfig::default(), QueryId(1)).unwrap();
        let mut ex = QueryExecutor::new(cq.central, 0);
        for w in 0..5i64 {
            let ts = w * 10_000 + 1;
            ex.ingest(EventBatch {
                seq: 0,
                attempt: 0,
                seq_floor: 0,
                watermark_ms: None,
                query_id: QueryId(1),
                type_id: EventTypeId(0),
                host: "h1".into(),
                payload: ColumnarFrame::from_events(
                    &(0..100)
                        .map(|i| {
                            Event::new(
                                EventTypeId(0),
                                RequestId(i),
                                ts,
                                vec![Value::Long(i as i64)],
                            )
                        })
                        .collect::<Vec<_>>(),
                ),
                matched: 100,
                sampled: 100,
                shed: 0,
                budget_shed: 0,
                seen: 100,
                bytes: 0,
                spans: vec![],
            });
            let _ = ex.advance(ts);
            assert!(ex.open_groups() <= 3 * 100);
        }
        let _ = ex.advance(i64::MAX / 4);
        assert_eq!(ex.open_groups(), 0);
    }
}
