//! BidServer: the entry point of the DSP (§7). Receives bid requests from
//! exchanges, delegates filtering + internal auction to an AdServer, and
//! returns the bid response within the 20 ms SLO — emitting a Scrub `bid`
//! event per bid response sent.

use std::collections::HashMap;

use scrub_agent::{CostModel, StatsSnapshot};
use scrub_server::AgentHarness;
use scrub_simnet::{Context, Node, NodeId, SimDuration};

use crate::events::{BidEvent, PlatformEvents};
use crate::msg::PlatformMsg;
use crate::nodes::DelayedSends;

/// A BidServer node.
pub struct BidServer {
    /// Embedded Scrub agent.
    pub harness: AgentHarness,
    events: PlatformEvents,
    adservers: Vec<NodeId>,
    rr: usize,
    /// request id -> exchange frontend awaiting the response
    pending: HashMap<u64, NodeId>,
    service_us: i64,
    overhead_enabled: bool,
    cost_model: CostModel,
    last_stats: StatsSnapshot,
    delayed: DelayedSends,
    /// Requests handled (for experiment accounting).
    pub requests_handled: u64,
    /// Cumulative Scrub-induced extra service time (ns).
    pub scrub_overhead_ns: f64,
}

impl BidServer {
    /// Create a BidServer delegating auctions to `adservers`.
    pub fn new(
        harness: AgentHarness,
        events: PlatformEvents,
        adservers: Vec<NodeId>,
        service_us: i64,
        overhead_enabled: bool,
        cost_model: CostModel,
    ) -> Self {
        BidServer {
            harness,
            events,
            adservers,
            rr: 0,
            pending: HashMap::new(),
            service_us,
            overhead_enabled,
            cost_model,
            last_stats: StatsSnapshot::default(),
            delayed: DelayedSends::default(),
            requests_handled: 0,
            scrub_overhead_ns: 0.0,
        }
    }

    /// Scrub agent CPU accumulated since the last call, as a service-time
    /// addition (0 when the honest-overhead model is disabled).
    fn take_overhead(&mut self) -> SimDuration {
        let snap = self.harness.agent().stats().snapshot();
        let delta = snap.since(&self.last_stats);
        self.last_stats = snap;
        let ns = self.cost_model.cpu_ns(&delta);
        self.scrub_overhead_ns += ns;
        if self.overhead_enabled {
            SimDuration::from_us((ns / 1_000.0).round() as i64)
        } else {
            SimDuration::ZERO
        }
    }
}

impl Node<PlatformMsg> for BidServer {
    fn on_start(&mut self, ctx: &mut Context<'_, PlatformMsg>) {
        self.harness.start(ctx);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, PlatformMsg>, from: NodeId, msg: PlatformMsg) {
        let msg = match self.harness.on_message(ctx, msg) {
            Ok(()) => return,
            Err(m) => m,
        };
        match msg {
            PlatformMsg::BidRequest(req) => {
                self.requests_handled += 1;
                self.pending.insert(req.request_id, from);
                let target = self.adservers[self.rr % self.adservers.len()];
                self.rr += 1;
                ctx.send(
                    target,
                    PlatformMsg::AdRequest {
                        req,
                        reply_to: ctx.self_id,
                    },
                );
            }
            PlatformMsg::AdResponse { req, winner, pod } => {
                let Some(frontend) = self.pending.remove(&req.request_id) else {
                    return;
                };
                let now_ms = ctx.now.as_ms();
                if let Some(w) = &winner {
                    // the Scrub tap at the bid-response site (Figure 1)
                    let w = *w;
                    let req_ref = &req;
                    self.harness.agent().log_typed(
                        self.events.bid,
                        scrub_core::event::RequestId(req.request_id),
                        now_ms,
                        || BidEvent {
                            user_id: req_ref.user_id as i64,
                            exchange_id: req_ref.exchange_id as i64,
                            line_item_id: w.line_item_id as i64,
                            campaign_id: w.campaign_id as i64,
                            bid_price: w.bid_price,
                            country: req_ref.country.clone(),
                            city: req_ref.city.clone(),
                        },
                    );
                }
                let delay = SimDuration::from_us(self.service_us) + self.take_overhead();
                self.delayed.send_after(
                    ctx,
                    delay,
                    frontend,
                    PlatformMsg::BidResponse {
                        request_id: req.request_id,
                        user_id: req.user_id,
                        exchange_id: req.exchange_id,
                        winner,
                        pod,
                        sent_at: req.sent_at,
                    },
                );
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, PlatformMsg>, timer: u64) {
        if self.harness.on_timer(ctx, timer) {
            return;
        }
        self.delayed.on_timer(ctx, timer);
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}
