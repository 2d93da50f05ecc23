//! Typed client API: [`ScrubClient`] + [`QueryHandle`].
//!
//! `ScrubClient::submit` returns `ScrubResult<QueryHandle>` — rejections
//! come back as [`ScrubError::Rejected`] with the server's reason — and
//! the handle knows how to fetch state, rows, the per-query execution
//! [`QueryProfile`] and the `EXPLAIN ANALYZE` [`PlanProfile`] from
//! whichever ScrubCentral node runs the query.
//!
//! Everything is driven through the deterministic simulation, so all
//! accessors take the [`Sim`] explicitly; the client and handle
//! themselves are plain `Copy` values that hold node ids only.

use scrub_central::{QuerySummary, ResultRow};
use scrub_core::error::{ScrubError, ScrubResult};
use scrub_core::plan::QueryId;
use scrub_obs::{merge_timelines, FlightEvent, LossLedger, PlanProfile, QueryProfile, TraceStore};
use scrub_simnet::{NodeId, Sim};

use crate::central_node::CentralNode;
use crate::deploy::ScrubDeployment;
use crate::msg::{ScrubEnvelope, ScrubMsg};
use crate::server_node::{QueryRecord, QueryServerNode, QueryState};

/// A troubleshooter's connection to a deployed Scrub instance.
///
/// ```ignore
/// let client = ScrubClient::new(&deployment);
/// let q = client.submit(&mut sim, "select COUNT(*) from bid @[all] window 1 s duration 10 s")?;
/// sim.run_until(SimTime::from_secs(30));
/// let rows = q.results(&sim);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct ScrubClient {
    d: ScrubDeployment,
}

impl ScrubClient {
    /// Connect to a deployment (as returned by
    /// [`crate::deploy::deploy_server`]).
    pub fn new(d: &ScrubDeployment) -> Self {
        ScrubClient { d: *d }
    }

    /// The deployment this client talks to.
    pub fn deployment(&self) -> ScrubDeployment {
        self.d
    }

    /// Submit a ScrubQL query and run the simulation just far enough for
    /// the server to admit or reject it. Rejections (lex/parse/validate/
    /// target errors) surface as [`ScrubError::Rejected`] carrying the
    /// server's reason, so interactive callers can print a diagnostic
    /// instead of aborting.
    pub fn submit<E: ScrubEnvelope>(
        &self,
        sim: &mut Sim<E>,
        src: &str,
    ) -> ScrubResult<QueryHandle> {
        let observe = |sim: &Sim<E>| {
            let node = sim
                .node_as::<QueryServerNode<E>>(self.d.server)
                .expect("server node");
            (node.peek_next_qid(), node.rejected.len())
        };
        let (next, rejected_before) = observe(sim);
        sim.inject(
            self.d.server,
            self.d.server,
            E::wrap(ScrubMsg::Submit {
                src: src.to_string(),
            }),
        );
        // Step until the submission is processed so sequential submissions
        // get sequential ids and rejections map to this source text.
        for _ in 0..100_000 {
            let (qid_now, rejected_now) = observe(sim);
            if rejected_now > rejected_before {
                let reason = self
                    .rejections(sim)
                    .last()
                    .map(|(_, r)| r.clone())
                    .unwrap_or_else(|| "unknown".into());
                return Err(ScrubError::Rejected(reason));
            }
            if qid_now != next {
                return Ok(QueryHandle {
                    d: self.d,
                    qid: QueryId(next),
                });
            }
            if !sim.step() {
                break;
            }
        }
        Err(ScrubError::Rejected(
            "submission was never processed (simulation exhausted)".into(),
        ))
    }

    /// Rejection reasons recorded by the server, in submission order, as
    /// `(source, reason)` pairs.
    pub fn rejections<'a, E: ScrubEnvelope>(&self, sim: &'a Sim<E>) -> &'a [(String, String)] {
        &sim.node_as::<QueryServerNode<E>>(self.d.server)
            .expect("server node")
            .rejected
    }
}

/// A handle to one accepted query: fetch lifecycle state, result rows,
/// the end-of-query summary, and the per-query execution profile, or
/// stop the query early. `Copy` — hand it around freely.
#[derive(Debug, Clone, Copy)]
pub struct QueryHandle {
    d: ScrubDeployment,
    qid: QueryId,
}

impl QueryHandle {
    /// Rehydrate a handle from a raw query id (e.g. one printed earlier
    /// by an interactive shell).
    pub fn from_id(d: &ScrubDeployment, qid: QueryId) -> Self {
        QueryHandle { d: *d, qid }
    }

    /// The server-assigned query id.
    pub fn id(&self) -> QueryId {
        self.qid
    }

    /// The query's full server-side record, if the server still knows it.
    pub fn record<'a, E: ScrubEnvelope>(&self, sim: &'a Sim<E>) -> Option<&'a QueryRecord> {
        sim.node_as::<QueryServerNode<E>>(self.d.server)?
            .record(self.qid)
    }

    /// Lifecycle state (`Scheduled` → `Running` → `Draining` → `Done`).
    pub fn state<E: ScrubEnvelope>(&self, sim: &Sim<E>) -> Option<QueryState> {
        self.record(sim).map(|r| r.state)
    }

    /// Result rows received so far (empty slice if the query is unknown).
    pub fn results<'a, E: ScrubEnvelope>(&self, sim: &'a Sim<E>) -> &'a [ResultRow] {
        self.record(sim).map(|r| r.rows.as_slice()).unwrap_or(&[])
    }

    /// End-of-query summary, once the query has drained.
    pub fn summary<'a, E: ScrubEnvelope>(&self, sim: &'a Sim<E>) -> Option<&'a QuerySummary> {
        self.record(sim).and_then(|r| r.summary.as_ref())
    }

    /// The ScrubCentral node executing this query.
    pub fn central<E: ScrubEnvelope>(&self, sim: &Sim<E>) -> NodeId {
        sim.node_as::<QueryServerNode<E>>(self.d.server)
            .expect("server node")
            .central_for(self.qid)
    }

    /// The per-query execution profile collected by ScrubCentral:
    /// per-host tap/selection/shedding counts, first-sent vs
    /// retransmitted bytes, window and join-state accounting, and the
    /// central ingest-latency histogram. Retained after the query
    /// finishes. `None` if the query never reached central.
    pub fn profile<E: ScrubEnvelope>(&self, sim: &Sim<E>) -> Option<QueryProfile> {
        let central = self.central(sim);
        sim.node_as::<CentralNode<E>>(central)?
            .profile(self.qid)
            .cloned()
    }

    /// The `EXPLAIN ANALYZE` plan profile: per-operator rows in/out,
    /// estimated-vs-actual selectivity, and ns attribution (cost-model ns
    /// for the host-side trio, wall-clock at central). Live queries are
    /// read from the running executor; finished queries from the copy
    /// retained at stop. `None` if the query never reached central.
    pub fn plan_profile<E: ScrubEnvelope>(&self, sim: &Sim<E>) -> Option<PlanProfile> {
        let central = self.central(sim);
        sim.node_as::<CentralNode<E>>(central)?
            .plan_profile(self.qid)
    }

    /// The lifecycle trace trees central assembled for this query's
    /// sampled requests (see `ScrubConfig::trace_sample_rate`). Retained
    /// after the query finishes. `None` when tracing recorded nothing.
    pub fn traces<E: ScrubEnvelope>(&self, sim: &Sim<E>) -> Option<TraceStore> {
        let central = self.central(sim);
        sim.node_as::<CentralNode<E>>(central)?
            .trace_store(self.qid)
            .cloned()
    }

    /// The loss ledger: per-host accounting of every tapped event that
    /// did not reach a result, bucketed by cause, reconciled against the
    /// profile's tap counters. `None` if the query never reached central.
    pub fn loss_ledger<E: ScrubEnvelope>(&self, sim: &Sim<E>) -> Option<LossLedger> {
        let central = self.central(sim);
        sim.node_as::<CentralNode<E>>(central)?.ledger(self.qid)
    }

    /// The query's full flight-recorder timeline: the server's
    /// control-plane journal (admission, plan, dispatch, eviction,
    /// stop, completion) merged with central's data-plane journal
    /// (window closes/degrades, retransmit episodes, host deaths, alert
    /// firings), ordered by sim time with a stable tiebreak. Returns
    /// the merged events plus the total count of entries evicted from
    /// the bounded journals. `None` if neither side journaled anything.
    pub fn timeline<E: ScrubEnvelope>(&self, sim: &Sim<E>) -> Option<(Vec<FlightEvent>, u64)> {
        let server_rec = sim
            .node_as::<QueryServerNode<E>>(self.d.server)
            .and_then(|n| n.record(self.qid))
            .map(|r| &r.recorder);
        let central = self.central(sim);
        let central_rec = sim
            .node_as::<CentralNode<E>>(central)
            .and_then(|n| n.flight_recorder(self.qid));
        let sources: Vec<_> = [server_rec, central_rec].into_iter().flatten().collect();
        if sources.is_empty() {
            return None;
        }
        let dropped = sources.iter().map(|r| r.dropped).sum();
        Some((merge_timelines(&sources), dropped))
    }

    /// Stop the query before its span elapses (injects a cancel; step the
    /// sim to let it take effect).
    pub fn stop<E: ScrubEnvelope>(&self, sim: &mut Sim<E>) {
        sim.inject(
            self.d.server,
            self.d.server,
            E::wrap(ScrubMsg::Cancel { query_id: self.qid }),
        );
    }
}
