//! AdServer: the filtering phase and the internal auction (§7, §8.4, §8.5).
//!
//! For every bid request, each line item either passes filtering or is
//! excluded with a reason (`exclusion` events — "every bid request produces
//! tens of thousands of exclusions" at Turn's scale; tens here). Passers
//! enter the internal auction with a score-adjusted bid price in a narrow
//! band around the advisory price, from which cannibalization (§8.5)
//! emerges naturally.

use std::collections::HashMap;

use rand::Rng;
use scrub_agent::{CostModel, StatsSnapshot};
use scrub_core::event::RequestId;
use scrub_server::AgentHarness;
use scrub_simnet::{Context, Node, NodeId, SimDuration};

use crate::events::{AuctionEvent, ExclusionEvent, PlatformEvents};
use crate::model::{day_of, ExclusionReason, LineItem};
use crate::msg::{PlatformMsg, Win};
use crate::nodes::DelayedSends;

/// An AdServer node.
pub struct AdServer {
    /// Embedded Scrub agent.
    pub harness: AgentHarness,
    events: PlatformEvents,
    /// Global pod index (pairs this AdServer with a PresentationServer and
    /// selects the A/B targeting model).
    pub pod: usize,
    /// CTR multiplier of the model this pod runs.
    ctr_mult: f64,
    /// Rollout defect: from `rollout_at_ms` on, winning bid prices are
    /// multiplied by this factor (1.0 = no bug / old build).
    rollout_price_bug: (i64, f64),
    line_items: Vec<LineItem>,
    /// Replicated frequency counts: (user, line item, day) -> count.
    freq: HashMap<(u64, u64, i64), u32>,
    /// Optimistic budget spend: (line item, day) -> spent.
    budget_spent: HashMap<(u64, i64), f64>,
    service_us: i64,
    overhead_enabled: bool,
    cost_model: CostModel,
    last_stats: StatsSnapshot,
    delayed: DelayedSends,
    /// Auctions run (with at least one participant).
    pub auctions_run: u64,
    /// Requests that produced no bid.
    pub no_bid: u64,
    /// Exclusion events emitted by the filtering phase.
    pub exclusions_emitted: u64,
}

impl AdServer {
    /// Create an AdServer.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        harness: AgentHarness,
        events: PlatformEvents,
        pod: usize,
        ctr_mult: f64,
        line_items: Vec<LineItem>,
        service_us: i64,
        overhead_enabled: bool,
        cost_model: CostModel,
    ) -> Self {
        AdServer {
            harness,
            events,
            pod,
            ctr_mult,
            rollout_price_bug: (0, 1.0),
            line_items,
            freq: HashMap::new(),
            budget_spent: HashMap::new(),
            service_us,
            overhead_enabled,
            cost_model,
            last_stats: StatsSnapshot::default(),
            delayed: DelayedSends::default(),
            auctions_run: 0,
            no_bid: 0,
            exclusions_emitted: 0,
        }
    }

    /// Arm the rollout-regression defect: from `at_ms` on, this pod's
    /// winning prices are multiplied by `factor`.
    pub fn set_rollout_bug(&mut self, at_ms: i64, factor: f64) {
        self.rollout_price_bug = (at_ms, factor);
    }

    fn take_overhead(&mut self) -> SimDuration {
        let snap = self.harness.agent().stats().snapshot();
        let delta = snap.since(&self.last_stats);
        self.last_stats = snap;
        let ns = self.cost_model.cpu_ns(&delta);
        if self.overhead_enabled {
            SimDuration::from_us((ns / 1_000.0).round() as i64)
        } else {
            SimDuration::ZERO
        }
    }
}

impl Node<PlatformMsg> for AdServer {
    fn on_start(&mut self, ctx: &mut Context<'_, PlatformMsg>) {
        self.harness.start(ctx);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, PlatformMsg>, _from: NodeId, msg: PlatformMsg) {
        let msg = match self.harness.on_message(ctx, msg) {
            Ok(()) => return,
            Err(m) => m,
        };
        match msg {
            PlatformMsg::AdRequest { req, reply_to } => {
                let now_ms = ctx.now.as_ms();
                let day = day_of(now_ms);
                let rid = RequestId(req.request_id);

                // ---- filtering phase (§8.4) ----
                let mut passers: Vec<&LineItem> = Vec::new();
                for li in &self.line_items {
                    let reason = li
                        .targeting
                        .passes(&req.country, req.exchange_id, &req.segments)
                        .err()
                        .or({
                            if li.advisory_price < req.floor_price {
                                Some(ExclusionReason::PriceFloor)
                            } else {
                                None
                            }
                        })
                        .or_else(|| {
                            let spent =
                                self.budget_spent.get(&(li.id, day)).copied().unwrap_or(0.0);
                            if spent >= li.daily_budget {
                                Some(ExclusionReason::BudgetExhausted)
                            } else {
                                None
                            }
                        })
                        .or_else(|| {
                            li.freq_cap.and_then(|cap| {
                                let count = self
                                    .freq
                                    .get(&(req.user_id, li.id, day))
                                    .copied()
                                    .unwrap_or(0);
                                (count >= cap).then_some(ExclusionReason::FrequencyCap)
                            })
                        });
                    match reason {
                        Some(r) => {
                            self.exclusions_emitted += 1;
                            let (li_id, camp) = (li.id, li.campaign_id);
                            let (exch, publ) = (req.exchange_id, &req.publisher);
                            self.harness.agent().log_typed(
                                self.events.exclusion,
                                rid,
                                now_ms,
                                || ExclusionEvent {
                                    line_item_id: li_id as i64,
                                    campaign_id: camp as i64,
                                    reason: r.as_str().to_string(),
                                    exchange_id: exch as i64,
                                    publisher: publ.clone(),
                                },
                            );
                        }
                        None => passers.push(li),
                    }
                }

                // ---- internal auction (§8.5) ----
                let mut winner: Option<Win> = None;
                if !passers.is_empty() {
                    self.auctions_run += 1;
                    // ML score moves each bid in a narrow band around the
                    // advisory price (±15%)
                    let mut ids = Vec::with_capacity(passers.len());
                    let mut prices = Vec::with_capacity(passers.len());
                    let mut best: Option<(usize, f64)> = None;
                    for (i, li) in passers.iter().enumerate() {
                        let score = 0.85 + 0.30 * ctx.rng.gen::<f64>();
                        let price = li.advisory_price * score;
                        ids.push(li.id as i64);
                        prices.push(price);
                        if best.map(|(_, bp)| price > bp).unwrap_or(true) {
                            best = Some((i, price));
                        }
                    }
                    let (wi, mut wprice) = best.expect("non-empty passers");
                    let (bug_at, bug_factor) = self.rollout_price_bug;
                    if bug_factor != 1.0 && now_ms >= bug_at {
                        wprice *= bug_factor;
                    }
                    let wli = passers[wi];
                    winner = Some(Win {
                        line_item_id: wli.id,
                        campaign_id: wli.campaign_id,
                        bid_price: wprice,
                        base_ctr: wli.base_ctr * self.ctr_mult,
                    });
                    // optimistic budget spend at win time
                    *self.budget_spent.entry((wli.id, day)).or_insert(0.0) += wprice;

                    let (w_id, exch) = (wli.id, req.exchange_id);
                    self.harness
                        .agent()
                        .log_typed(self.events.auction, rid, now_ms, || AuctionEvent {
                            line_item_ids: ids,
                            bid_prices: prices,
                            winner_line_item_id: w_id as i64,
                            winner_price: wprice,
                            exchange_id: exch as i64,
                        });
                } else {
                    self.no_bid += 1;
                }

                let pod = self.pod;
                let delay = SimDuration::from_us(self.service_us) + self.take_overhead();
                self.delayed.send_after(
                    ctx,
                    delay,
                    reply_to,
                    PlatformMsg::AdResponse { req, winner, pod },
                );
            }
            PlatformMsg::FreqUpdate {
                user_id,
                line_item_id,
                day,
                count,
            } => {
                let e = self.freq.entry((user_id, line_item_id, day)).or_insert(0);
                *e = (*e).max(count);
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
