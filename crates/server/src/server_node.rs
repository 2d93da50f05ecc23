//! The Scrub query server (Figure 3): parses and validates queries,
//! assigns query ids, resolves the `@[...]` target clause against the
//! service registry, applies host sampling, dispatches query objects to
//! hosts and ScrubCentral, enforces the query span, and collects results.

use std::collections::BTreeMap;
use std::marker::PhantomData;
use std::sync::Arc;

use scrub_agent::CostModel;
use scrub_central::{QuerySummary, ResultRow};
use scrub_core::config::{AdmissionPolicy, ScrubConfig};
use scrub_core::error::{ScrubError, ScrubResult};
use scrub_core::plan::{compile, CompiledQuery, HostSampleInfo, QueryId};
use scrub_core::ql::ast::StartSpec;
use scrub_core::ql::parser::parse_query;
use scrub_core::schema::SchemaRegistry;
use scrub_core::target::{sample_indices, HostInfo};
use scrub_obs::{
    Counter, FlightEventKind, FlightRecorder, MetricsSnapshot, Registry, FLIGHT_RECORDER_CAP,
};
use scrub_simnet::{Context, Node, NodeId, SimDuration};
use serde::Serialize;

use crate::msg::{
    decode_query_timer, timer_query_drain, timer_query_start, timer_query_stop, QueryTimerKind,
    ScrubEnvelope, ScrubMsg,
};

/// Lifecycle of a submitted query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryState {
    /// Accepted, waiting for its start time.
    Scheduled,
    /// Query objects dispatched; data flowing.
    Running,
    /// Hosts stopped; waiting for ScrubCentral to drain.
    Draining,
    /// Summary received; results complete.
    Done,
}

/// Everything the server knows about one query.
#[derive(Debug, Clone)]
pub struct QueryRecord {
    /// Original source text.
    pub src: String,
    /// The compiled query (host plans + central plan).
    pub compiled: CompiledQuery,
    /// Hosts selected to run the query (after target resolution and host
    /// sampling).
    pub hosts: Vec<NodeId>,
    /// Hosts matching the target clause before sampling.
    pub matching_hosts: usize,
    /// Lifecycle state.
    pub state: QueryState,
    /// Result rows received so far.
    pub rows: Vec<ResultRow>,
    /// End-of-query summary, once received.
    pub summary: Option<QuerySummary>,
    /// Virtual time (ms) the first result rows arrived — the query's
    /// time-to-first-answer.
    pub first_rows_at_ms: Option<i64>,
    /// Who submitted (gets Accepted/Rejected notifications).
    pub client: NodeId,
    /// Estimated per-host CPU fraction this query costs, priced by the
    /// deterministic cost model at admission time (after any degrade).
    /// The admission controller sums this over Scheduled/Running queries
    /// to decide whether a new query fits the envelope.
    pub est_cost: f64,
    /// The control-plane half of the query's flight recorder (admission
    /// verdict, plan chosen, dispatch, eviction, stop, completion), merged
    /// with central's data-plane half by `QueryHandle::timeline`.
    pub recorder: FlightRecorder,
}

/// How the admission controller disposed of one submission that was
/// otherwise valid (parse/validate/target resolution all passed).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum AdmissionVerdict {
    /// Fit within the envelope (or admission control is off).
    Admitted,
    /// Admitted with its event-sampling fraction multiplied by `factor`
    /// so the estimate fits the remaining headroom.
    Degraded { factor: f64 },
    /// Admitted after evicting the listed running queries (most
    /// expensive first, newest first on ties).
    Evicted { victims: Vec<u64> },
    /// Rejected: the envelope could not be met even by degrading or
    /// evicting (per the configured policy).
    Rejected,
}

/// One admission decision, recorded in submission order. Deterministic
/// for a fixed config + submission sequence: pricing uses the cost model
/// at the configured assumed event rate, never wall-clock measurements.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct AdmissionDecision {
    /// Query id the submission received (or would have received).
    pub query_id: u64,
    /// What the controller decided.
    pub verdict: AdmissionVerdict,
    /// Rate-independent part of the estimate (tap + predicate on every
    /// event seen), as a fraction of one core.
    pub est_fixed: f64,
    /// Sampling-scalable part (projection + ship of selected events), as
    /// a fraction of one core, before any degrade.
    pub est_variable: f64,
    /// Σ est_cost over Scheduled/Running queries before this decision.
    pub running_before: f64,
    /// The envelope the decision was made against.
    pub budget: f64,
}

impl AdmissionDecision {
    /// The flight-recorder line for this decision.
    fn detail(&self) -> String {
        let verdict = match &self.verdict {
            AdmissionVerdict::Admitted => "verdict=admitted".to_string(),
            AdmissionVerdict::Degraded { factor } => {
                format!("verdict=degraded factor={factor:.4}")
            }
            AdmissionVerdict::Evicted { victims } => {
                format!("verdict=admitted, evicting {} running", victims.len())
            }
            AdmissionVerdict::Rejected => "verdict=rejected".to_string(),
        };
        format!(
            "{verdict} est={:.4}% over {:.4}% running (budget {:.2}%)",
            (self.est_fixed + self.est_variable) * 100.0,
            self.running_before * 100.0,
            self.budget * 100.0
        )
    }
}

/// The query-server node.
pub struct QueryServerNode<E: ScrubEnvelope> {
    schema_registry: Arc<SchemaRegistry>,
    config: ScrubConfig,
    /// The ScrubCentral cluster; queries are spread round-robin.
    centrals: Vec<NodeId>,
    /// Application hosts (node id + target attributes).
    inventory: Vec<(NodeId, HostInfo)>,
    /// Scrub's own nodes (ScrubCentral); targeted only by queries that
    /// name them explicitly — self-observability queries.
    meta_inventory: Vec<(NodeId, HostInfo)>,
    next_qid: u64,
    /// Ordered so float-summing running costs is deterministic across runs.
    queries: BTreeMap<QueryId, QueryRecord>,
    /// Queries rejected at submission, with reasons (for tests/inspection).
    pub rejected: Vec<(String, String)>,
    /// Every admission-control decision in submission order (only
    /// submissions that passed parse/validate/target resolution).
    pub admission_log: Vec<AdmissionDecision>,
    /// Victims selected by an `Evict` admission, cancelled by the Submit
    /// handler right after the new query is accepted (admit() itself is
    /// pure and cannot send messages).
    pending_evictions: Vec<QueryId>,
    /// Lifecycle metrics.
    obs: Registry,
    m_submitted: Arc<Counter>,
    m_accepted: Arc<Counter>,
    m_rejected: Arc<Counter>,
    m_dispatched: Arc<Counter>,
    m_completed: Arc<Counter>,
    m_cancelled: Arc<Counter>,
    m_rows: Arc<Counter>,
    m_rejected_budget: Arc<Counter>,
    m_degraded: Arc<Counter>,
    m_evicted: Arc<Counter>,
    _marker: PhantomData<fn(E)>,
}

impl<E: ScrubEnvelope> QueryServerNode<E> {
    /// Create a server over the given application-host inventory.
    pub fn new(
        schema_registry: Arc<SchemaRegistry>,
        config: ScrubConfig,
        central: NodeId,
        inventory: Vec<(NodeId, HostInfo)>,
    ) -> Self {
        Self::with_centrals(schema_registry, config, vec![central], inventory)
    }

    /// Create a server over a ScrubCentral *cluster*: each accepted query
    /// is assigned one central node (round-robin by query id), keeping all
    /// of a query's join/group-by state on one node while spreading query
    /// load across the cluster.
    pub fn with_centrals(
        schema_registry: Arc<SchemaRegistry>,
        config: ScrubConfig,
        centrals: Vec<NodeId>,
        inventory: Vec<(NodeId, HostInfo)>,
    ) -> Self {
        assert!(!centrals.is_empty(), "need at least one ScrubCentral");
        let obs = Registry::new();
        let m_submitted = obs.counter("server.queries_submitted");
        let m_accepted = obs.counter("server.queries_accepted");
        let m_rejected = obs.counter("server.queries_rejected");
        let m_dispatched = obs.counter("server.queries_dispatched");
        let m_completed = obs.counter("server.queries_completed");
        let m_cancelled = obs.counter("server.queries_cancelled");
        let m_rows = obs.counter("server.rows_received");
        let m_rejected_budget = obs.counter("overload.queries_rejected_budget");
        let m_degraded = obs.counter("overload.queries_degraded");
        let m_evicted = obs.counter("overload.queries_evicted");
        QueryServerNode {
            schema_registry,
            config,
            centrals,
            inventory,
            meta_inventory: Vec::new(),
            next_qid: 1,
            queries: BTreeMap::new(),
            rejected: Vec::new(),
            admission_log: Vec::new(),
            pending_evictions: Vec::new(),
            obs,
            m_submitted,
            m_accepted,
            m_rejected,
            m_dispatched,
            m_completed,
            m_cancelled,
            m_rows,
            m_rejected_budget,
            m_degraded,
            m_evicted,
            _marker: PhantomData,
        }
    }

    /// Install the inventory of Scrub's own nodes. These resolve as
    /// targets only for queries that name a Scrub service or host
    /// explicitly (`@[Service in ScrubCentral]`); `@[all]` and other
    /// blanket selectors keep matching application hosts only.
    pub fn set_meta_inventory(&mut self, meta_inventory: Vec<(NodeId, HostInfo)>) {
        self.meta_inventory = meta_inventory;
    }

    /// Lifecycle metrics snapshot at sim time `at_ms`.
    pub fn metrics(&self, at_ms: i64) -> MetricsSnapshot {
        self.obs.snapshot(at_ms)
    }

    /// Record of a query (rows, summary, state).
    pub fn record(&self, qid: QueryId) -> Option<&QueryRecord> {
        self.queries.get(&qid)
    }

    /// The id the next accepted query will receive.
    pub fn peek_next_qid(&self) -> u64 {
        self.next_qid
    }

    /// The ScrubCentral node a query is (or would be) assigned to.
    pub fn central_for(&self, qid: QueryId) -> NodeId {
        self.centrals[(qid.0 as usize) % self.centrals.len()]
    }

    /// Ids of all queries ever accepted, in submission order.
    pub fn query_ids(&self) -> Vec<QueryId> {
        let mut ids: Vec<QueryId> = self.queries.keys().copied().collect();
        ids.sort();
        ids
    }

    /// Validate + plan + target-resolve a query. Pure (no dispatch).
    fn admit(&mut self, src: &str) -> ScrubResult<QueryId> {
        let qid = QueryId(self.next_qid);
        let spec = parse_query(src)?;
        let mut compiled = compile(&spec, &self.schema_registry, &self.config, qid)?;

        // Resolve targets and apply host sampling (deterministic per qid).
        let matching: Vec<NodeId> = self
            .inventory
            .iter()
            .filter(|(_, info)| info.matches(&spec.target))
            .map(|(id, _)| *id)
            .collect();
        // Scrub's own nodes join the target set only when the clause names
        // them explicitly; they are never host-sampled (there are few of
        // them, and a meta query wants them all).
        let meta_matching: Vec<NodeId> = self
            .meta_inventory
            .iter()
            .filter(|(_, info)| info.matches(&spec.target) && info.explicitly_named(&spec.target))
            .map(|(id, _)| *id)
            .collect();
        if matching.is_empty() && meta_matching.is_empty() {
            return Err(scrub_core::error::ScrubError::Target(
                "target clause matches no hosts".into(),
            ));
        }
        let chosen = sample_indices(matching.len(), spec.sample.host_fraction, qid.0);
        let mut hosts: Vec<NodeId> = chosen.iter().map(|&i| matching[i]).collect();
        hosts.extend(meta_matching.iter().copied());
        compiled.central.host_info = HostSampleInfo {
            matching: matching.len() + meta_matching.len(),
            selected: hosts.len(),
        };

        // Admission control: price the query's per-host CPU cost with the
        // deterministic cost model and hold the fleet to the envelope.
        // Pricing uses the configured assumed event rate, never wall-clock
        // measurements, so a fixed config + submission order always yields
        // the same decisions.
        let cost = CostModel::default();
        let (est_fixed, est_variable) = cost.query_cost_fractions(
            &compiled.host_plans,
            self.config.admission_events_per_host_per_sec,
        );
        let mut est = est_fixed + est_variable;
        let budget = self.config.host_cpu_budget;
        let running_before: f64 = self
            .queries
            .values()
            .filter(|r| matches!(r.state, QueryState::Scheduled | QueryState::Running))
            .map(|r| r.est_cost)
            .sum();
        let mut verdict = AdmissionVerdict::Admitted;
        if self.config.admission != AdmissionPolicy::Off && running_before + est > budget {
            match self.config.admission {
                AdmissionPolicy::Off => unreachable!("guarded above"),
                AdmissionPolicy::Reject => verdict = AdmissionVerdict::Rejected,
                AdmissionPolicy::Degrade => {
                    let headroom = budget - running_before;
                    if est_fixed >= headroom || est_variable <= 0.0 {
                        // Even the irreducible selection cost (every event
                        // must be seen regardless of sampling) does not
                        // fit: there is nothing left to degrade.
                        verdict = AdmissionVerdict::Rejected;
                    } else {
                        let factor = ((headroom - est_fixed) / est_variable).clamp(0.0, 1.0);
                        for hp in &mut compiled.host_plans {
                            hp.event_fraction *= factor;
                        }
                        // Keep the central plan's copy consistent so the
                        // estimator and EXPLAIN output see the admitted
                        // fraction, not the requested one.
                        compiled.central.sample.event_fraction *= factor;
                        est = est_fixed + est_variable * factor;
                        verdict = AdmissionVerdict::Degraded { factor };
                    }
                }
                AdmissionPolicy::Evict => {
                    // Most expensive first; newest (highest id) on ties —
                    // the cheapest accumulated value per unit of CPU.
                    let mut victims: Vec<QueryId> = Vec::new();
                    let mut running_now = running_before;
                    while running_now + est > budget {
                        let candidate = self
                            .queries
                            .iter()
                            .filter(|(id, r)| {
                                matches!(r.state, QueryState::Scheduled | QueryState::Running)
                                    && !victims.contains(id)
                            })
                            .map(|(id, r)| (*id, r.est_cost))
                            .max_by(|a, b| {
                                a.1.partial_cmp(&b.1)
                                    .unwrap_or(std::cmp::Ordering::Equal)
                                    .then(a.0.cmp(&b.0))
                            });
                        let Some((vid, vcost)) = candidate else { break };
                        victims.push(vid);
                        running_now -= vcost;
                    }
                    if running_now + est > budget {
                        // Even an empty fleet cannot host this query;
                        // reject it without sacrificing anyone.
                        verdict = AdmissionVerdict::Rejected;
                    } else {
                        self.pending_evictions.extend(victims.iter().copied());
                        verdict = AdmissionVerdict::Evicted {
                            victims: victims.iter().map(|q| q.0).collect(),
                        };
                    }
                }
            }
        }
        match &verdict {
            AdmissionVerdict::Degraded { .. } => self.m_degraded.inc(),
            AdmissionVerdict::Evicted { victims } => self.m_evicted.add(victims.len() as u64),
            AdmissionVerdict::Rejected => self.m_rejected_budget.inc(),
            AdmissionVerdict::Admitted => {}
        }
        let rejected = verdict == AdmissionVerdict::Rejected;
        self.admission_log.push(AdmissionDecision {
            query_id: qid.0,
            verdict,
            est_fixed,
            est_variable,
            running_before,
            budget,
        });
        if rejected {
            return Err(ScrubError::Rejected(format!(
                "admission control ({:?}): estimated per-host cost {:.4}% on top of \
                 {:.4}% already running exceeds the {:.2}% CPU budget",
                self.config.admission,
                (est_fixed + est_variable) * 100.0,
                running_before * 100.0,
                budget * 100.0
            )));
        }

        self.next_qid += 1;
        self.queries.insert(
            qid,
            QueryRecord {
                src: src.to_string(),
                compiled,
                hosts,
                matching_hosts: matching.len() + meta_matching.len(),
                state: QueryState::Scheduled,
                rows: Vec::new(),
                summary: None,
                first_rows_at_ms: None,
                client: NodeId(0), // set by caller
                est_cost: est,
                recorder: FlightRecorder::new(qid.0, FLIGHT_RECORDER_CAP),
            },
        );
        Ok(qid)
    }

    fn dispatch(&mut self, ctx: &mut Context<'_, E>, qid: QueryId) {
        let Some(rec) = self.queries.get_mut(&qid) else {
            return;
        };
        if rec.state != QueryState::Scheduled {
            return; // cancelled before its start time
        }
        rec.state = QueryState::Running;
        self.m_dispatched.inc();
        rec.recorder.journal(
            ctx.now.as_ms(),
            FlightEventKind::Dispatched,
            format!("installed on {} host(s) + central", rec.hosts.len()),
            None,
            None,
        );
        let central = self.centrals[(qid.0 as usize) % self.centrals.len()];
        for &host in &rec.hosts {
            ctx.send(
                host,
                E::wrap(ScrubMsg::InstallQuery {
                    plans: rec.compiled.host_plans.clone(),
                    central,
                }),
            );
        }
        ctx.send(
            central,
            E::wrap(ScrubMsg::CentralInstall {
                plan: rec.compiled.central.clone(),
            }),
        );
        ctx.set_timer(
            SimDuration::from_ms(rec.compiled.duration_ms),
            timer_query_stop(qid),
        );
    }

    fn stop(&mut self, ctx: &mut Context<'_, E>, qid: QueryId) {
        let Some(rec) = self.queries.get_mut(&qid) else {
            return;
        };
        if rec.state != QueryState::Running {
            return; // already stopped (e.g. cancelled before the span timer)
        }
        rec.state = QueryState::Draining;
        rec.recorder.journal(
            ctx.now.as_ms(),
            FlightEventKind::Stopped,
            format!("stopping {} host(s), draining central", rec.hosts.len()),
            None,
            None,
        );
        for &host in &rec.hosts {
            ctx.send(host, E::wrap(ScrubMsg::StopQuery { query_id: qid }));
        }
        // Give agents' tail batches time to cross the WAN before asking
        // central to finish. Central closes all open windows on finish, so
        // the drain must NOT wait out the window length (a 1-day window
        // would stall the query for a day); one flush interval plus grace
        // plus a WAN margin suffices.
        let drain_ms = self.config.agent_flush_interval_ms + self.config.window_grace_ms + 2_000;
        ctx.set_timer(SimDuration::from_ms(drain_ms), timer_query_drain(qid));
    }
}

impl<E: ScrubEnvelope> Node<E> for QueryServerNode<E> {
    fn on_message(&mut self, ctx: &mut Context<'_, E>, from: NodeId, msg: E) {
        let Ok(scrub) = msg.open() else {
            return;
        };
        match scrub {
            ScrubMsg::Submit { src } => {
                self.m_submitted.inc();
                match self.admit(&src) {
                    Ok(qid) => {
                        self.m_accepted.inc();
                        let now_ms = ctx.now.as_ms();
                        // Journal the admission verdict and the chosen
                        // plan — the first two entries of every
                        // accepted query's timeline.
                        let verdict = self.admission_log.last().map(AdmissionDecision::detail);
                        if let Some(rec) = self.queries.get_mut(&qid) {
                            rec.client = from;
                            if let Some(detail) = verdict {
                                let kind = FlightEventKind::Admitted;
                                rec.recorder.journal(now_ms, kind, detail, None, None);
                            }
                            let detail = format!(
                                "{} host plan(s), window {} ms, est cost {:.4}%",
                                rec.compiled.host_plans.len(),
                                rec.compiled.central.window_ms,
                                rec.est_cost * 100.0
                            );
                            let kind = FlightEventKind::PlanChosen;
                            rec.recorder.journal(now_ms, kind, detail, None, None);
                        }
                        // Carry out evictions the admission controller
                        // scheduled to make room for this query.
                        let victims = std::mem::take(&mut self.pending_evictions);
                        for vid in victims {
                            if let Some(rec) = self.queries.get_mut(&vid) {
                                rec.recorder.journal(
                                    now_ms,
                                    FlightEventKind::Evicted,
                                    format!("evicted to admit query {}", qid.0),
                                    None,
                                    None,
                                );
                            }
                            match self.queries.get(&vid).map(|r| r.state) {
                                Some(QueryState::Running) => self.stop(ctx, vid),
                                Some(QueryState::Scheduled) => {
                                    if let Some(rec) = self.queries.get_mut(&vid) {
                                        rec.state = QueryState::Done;
                                    }
                                }
                                _ => {}
                            }
                        }
                        if from != ctx.self_id {
                            ctx.send(from, E::wrap(ScrubMsg::Accepted { query_id: qid }));
                        }
                        // honor the query span's start spec
                        let delay = match self.queries[&qid].compiled.spec.start {
                            StartSpec::Now => SimDuration::ZERO,
                            StartSpec::In(ms) => SimDuration::from_ms(ms.max(0)),
                            StartSpec::At(t_ms) => {
                                SimDuration::from_ms((t_ms - ctx.now.as_ms()).max(0))
                            }
                        };
                        ctx.set_timer(delay, timer_query_start(qid));
                    }
                    Err(e) => {
                        self.m_rejected.inc();
                        self.rejected.push((src, e.to_string()));
                        if from != ctx.self_id {
                            ctx.send(
                                from,
                                E::wrap(ScrubMsg::Rejected {
                                    reason: e.to_string(),
                                }),
                            );
                        }
                    }
                }
            }
            ScrubMsg::Cancel { query_id } => {
                let state = self.queries.get(&query_id).map(|r| r.state);
                match state {
                    Some(QueryState::Running) => {
                        self.m_cancelled.inc();
                        self.stop(ctx, query_id);
                    }
                    Some(QueryState::Scheduled) => {
                        // not yet dispatched: mark done with no results
                        self.m_cancelled.inc();
                        if let Some(rec) = self.queries.get_mut(&query_id) {
                            rec.state = QueryState::Done;
                        }
                    }
                    _ => { /* draining/done/unknown: nothing to do */ }
                }
            }
            ScrubMsg::Rows { rows } => {
                let now_ms = ctx.now.as_ms();
                for row in rows {
                    if let Some(rec) = self.queries.get_mut(&row.query_id) {
                        rec.first_rows_at_ms.get_or_insert(now_ms);
                        rec.rows.push(row);
                        self.m_rows.inc();
                    }
                }
            }
            ScrubMsg::Summary { summary } => {
                let qid = summary.query_id;
                if let Some(rec) = self.queries.get_mut(&qid) {
                    rec.summary = Some(summary);
                    rec.state = QueryState::Done;
                    self.m_completed.inc();
                    rec.recorder.journal(
                        ctx.now.as_ms(),
                        FlightEventKind::Completed,
                        format!("summary received, {} row(s)", rec.rows.len()),
                        None,
                        None,
                    );
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, E>, timer: u64) {
        let Some((qid, kind)) = decode_query_timer(timer) else {
            return;
        };
        match kind {
            QueryTimerKind::Start => self.dispatch(ctx, qid),
            QueryTimerKind::Stop => self.stop(ctx, qid),
            QueryTimerKind::Drain => {
                let central = self.central_for(qid);
                ctx.send(central, E::wrap(ScrubMsg::CentralStop { query_id: qid }));
            }
        }
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}
