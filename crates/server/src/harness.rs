//! Agent harness: embeds a [`ScrubAgent`] into an application's simulated
//! node, handling Scrub control messages and periodic batch shipment so
//! the application code only calls `agent().log(...)` at its event sites.
//!
//! Shipment is reliable: every batch goes through a [`ReliableShipper`],
//! which assigns per-query sequence numbers and retransmits unacked
//! batches with exponential backoff (ScrubCentral deduplicates and acks).
//! The batches double as the host's liveness signal: every targeted host
//! ships at least a header per flush interval, and ScrubCentral suspects a
//! host whose batches stop while its peers' keep coming.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::Ordering;
use std::sync::Arc;

use rand::Rng;
use scrub_agent::{EventBatch, ReliableShipper, RetryPolicy, ScrubAgent};
use scrub_core::config::ScrubConfig;
use scrub_core::plan::QueryId;
use scrub_obs::{should_trace, trace_threshold, SpanKind, TraceSpan};
use scrub_simnet::{Context, NodeId, SimDuration};

use crate::msg::{ScrubEnvelope, ScrubMsg, TIMER_AGENT_FLUSH, TIMER_AGENT_RETRY};

/// Embeds Scrub's host-side machinery in an application node.
pub struct AgentHarness {
    agent: Arc<ScrubAgent>,
    /// Default central (used if a query object arrives without routing —
    /// single-central deployments).
    central: NodeId,
    /// Per-query ScrubCentral destination (cluster deployments spread
    /// queries across centrals). Routing survives `StopQuery` until the
    /// query's pending batches drain, so retransmits still find central.
    query_central: HashMap<QueryId, NodeId>,
    /// Queries stopped but possibly still draining retransmits.
    stopped: HashSet<QueryId>,
    shipper: ReliableShipper,
    retry_armed: bool,
    flush_interval: SimDuration,
    /// Precomputed trace-sampler threshold (0 = tracing disabled).
    trace_threshold: u64,
}

/// Append a transport-hop span to a wire copy of `batch` for every
/// distinct traced request it carries. Only the copy going on the wire is
/// annotated — the shipper's buffered original is untouched — so each
/// (re)transmission documents its own journey, and whichever copy reaches
/// central first tells the truth about how it got there.
fn annotate_wire_copy(
    batch: &mut EventBatch,
    threshold: u64,
    kind: SpanKind,
    at_ms: i64,
    detail: i64,
) {
    if threshold == 0 {
        return;
    }
    let mut done: HashSet<u64> = HashSet::new();
    let mut spans = std::mem::take(&mut batch.spans);
    // The agent encoded this payload itself; were it unscannable, central
    // would drop and count it there.
    let _ = batch.payload.for_each_meta(|rid, _ts| {
        if should_trace(rid, threshold) && done.insert(rid) {
            spans.push(TraceSpan::new(rid, kind, at_ms, detail));
        }
    });
    batch.spans = spans;
}

impl AgentHarness {
    /// Create a harness shipping batches to `central`, retrying first
    /// after `agent_retry_base_ms` and otherwise on
    /// `RetryPolicy::default()`.
    pub fn new(host: impl Into<String>, config: ScrubConfig, central: NodeId) -> Self {
        let flush_interval = SimDuration::from_ms(config.agent_flush_interval_ms.max(1));
        let policy = RetryPolicy {
            base_ms: config.agent_retry_base_ms,
            ..RetryPolicy::default()
        };
        let trace_thresh = trace_threshold(config.trace_sample_rate);
        AgentHarness {
            agent: Arc::new(ScrubAgent::new(host, config)),
            central,
            query_central: HashMap::new(),
            stopped: HashSet::new(),
            shipper: ReliableShipper::new(policy),
            retry_armed: false,
            flush_interval,
            trace_threshold: trace_thresh,
        }
    }

    /// Ship on `policy` instead of the one `new` derived from the config.
    pub fn with_retry(mut self, policy: RetryPolicy) -> Self {
        self.shipper = ReliableShipper::new(policy);
        self
    }

    fn central_for(&self, qid: QueryId) -> NodeId {
        self.query_central
            .get(&qid)
            .copied()
            .unwrap_or(self.central)
    }

    /// The embedded agent (the application's tap).
    pub fn agent(&self) -> &Arc<ScrubAgent> {
        &self.agent
    }

    /// Batches shipped but not yet acked by ScrubCentral.
    pub fn acks_pending(&self) -> usize {
        self.shipper.pending_count()
    }

    /// Call from the node's `on_start`: arms the periodic flush timer.
    /// Idempotent across simulated host restarts (a restart re-runs
    /// `on_start`; the previous incarnation's timers are discarded by the
    /// scheduler).
    pub fn start<E: ScrubEnvelope>(&mut self, ctx: &mut Context<'_, E>) {
        ctx.set_timer(self.flush_interval, TIMER_AGENT_FLUSH);
        // A restart also orphans any armed retry timer.
        self.retry_armed = false;
        if self.shipper.has_pending() {
            self.arm_retry(ctx);
        }
    }

    fn update_pending_gauge(&self) {
        self.agent
            .stats()
            .acks_pending
            .store(self.shipper.pending_count() as u64, Ordering::Relaxed);
    }

    fn arm_retry<E: ScrubEnvelope>(&mut self, ctx: &mut Context<'_, E>) {
        if self.retry_armed {
            return;
        }
        if let Some(due) = self.shipper.next_due_ms() {
            let delay = (due - ctx.now.as_ms()).max(1);
            ctx.set_timer(SimDuration::from_ms(delay), TIMER_AGENT_RETRY);
            self.retry_armed = true;
        }
    }

    fn ship<E: ScrubEnvelope>(&mut self, ctx: &mut Context<'_, E>, batch: EventBatch) {
        let dest = self.central_for(batch.query_id);
        let now_ms = ctx.now.as_ms();
        let mut batch = self.shipper.ship(batch, now_ms);
        let seq = batch.seq as i64;
        annotate_wire_copy(
            &mut batch,
            self.trace_threshold,
            SpanKind::Send,
            now_ms,
            seq,
        );
        ctx.send(dest, E::wrap(ScrubMsg::Batch(batch)));
        self.update_pending_gauge();
        self.arm_retry(ctx);
    }

    /// Drop shipping state for a stopped query once nothing is pending.
    fn maybe_forget(&mut self, qid: QueryId) {
        if self.stopped.contains(&qid) && self.shipper.pending_for(qid) == 0 {
            self.shipper.forget_query(qid);
            self.query_central.remove(&qid);
            self.stopped.remove(&qid);
        }
    }

    /// Call from the node's `on_message` *before* application handling.
    /// Returns the envelope back when it was an application message.
    pub fn on_message<E: ScrubEnvelope>(
        &mut self,
        ctx: &mut Context<'_, E>,
        msg: E,
    ) -> Result<(), E> {
        let scrub = msg.open()?;
        match scrub {
            ScrubMsg::InstallQuery { plans, central } => {
                for p in plans {
                    self.stopped.remove(&p.query_id);
                    self.query_central.insert(p.query_id, central);
                    // install failures (duplicates) are control-plane bugs;
                    // the agent stays consistent either way
                    let _ = self.agent.install(p);
                }
            }
            ScrubMsg::StopQuery { query_id } => {
                let tail = self.agent.remove(query_id, ctx.now.as_ms());
                for b in tail {
                    self.ship(ctx, b);
                }
                // keep routing until the pending batches drain
                self.stopped.insert(query_id);
                self.maybe_forget(query_id);
            }
            ScrubMsg::BatchAck { query_id, seq } => {
                self.shipper.ack(query_id, seq);
                self.update_pending_gauge();
                self.maybe_forget(query_id);
            }
            _ => { /* other scrub messages are not addressed to hosts */ }
        }
        Ok(())
    }

    /// Call from the node's `on_timer`. Returns `true` when the timer was
    /// one of the harness's timers and is consumed.
    pub fn on_timer<E: ScrubEnvelope>(&mut self, ctx: &mut Context<'_, E>, timer: u64) -> bool {
        match timer {
            TIMER_AGENT_FLUSH => {
                for b in self.agent.take_batches(ctx.now.as_ms()) {
                    self.ship(ctx, b);
                }
                ctx.set_timer(self.flush_interval, TIMER_AGENT_FLUSH);
                true
            }
            TIMER_AGENT_RETRY => {
                self.retry_armed = false;
                let now_ms = ctx.now.as_ms();
                // Jitter decorrelates retry storms across hosts; the RNG is
                // only consulted when a retransmit actually fires, so
                // fault-free executions draw nothing here.
                let rng = &mut *ctx.rng;
                let due = self
                    .shipper
                    .due_retransmits(now_ms, |backoff| rng.gen_range(0..=backoff / 4));
                let stats = self.agent.stats();
                for mut r in due {
                    let dest = self.central_for(r.batch.query_id);
                    annotate_wire_copy(
                        &mut r.batch,
                        self.trace_threshold,
                        SpanKind::Retransmit,
                        now_ms,
                        r.attempt as i64,
                    );
                    stats.retransmits.fetch_add(1, Ordering::Relaxed);
                    stats
                        .bytes_retransmitted
                        .fetch_add(r.batch.approx_bytes() as u64, Ordering::Relaxed);
                    ctx.send(dest, E::wrap(ScrubMsg::Batch(r.batch)));
                }
                let evicted = self.shipper.evicted();
                if evicted > 0 {
                    stats.retransmit_evictions.store(evicted, Ordering::Relaxed);
                }
                self.arm_retry(ctx);
                true
            }
            _ => false,
        }
    }
}
