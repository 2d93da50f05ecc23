//! PresentationServer: records ad deliveries and user interactions (§7) —
//! `impression` and `click` events — and updates the user's profile in the
//! ProfileStore (the frequency-count path of §8.6).

use rand::Rng;
use scrub_core::event::RequestId;
use scrub_server::AgentHarness;
use scrub_simnet::{Context, Node, NodeId};

use crate::events::{ClickEvent, ImpressionEvent, PlatformEvents};
use crate::msg::PlatformMsg;

/// A PresentationServer node.
pub struct PresentationServer {
    /// Embedded Scrub agent.
    pub harness: AgentHarness,
    events: PlatformEvents,
    /// The pod's A/B model label, stamped on impression/click events.
    pub model: &'static str,
    profile_store: NodeId,
    /// Impressions served.
    pub impressions: u64,
    /// Clicks observed.
    pub clicks: u64,
    /// Total spend (sum of impression costs).
    pub spend: f64,
}

impl PresentationServer {
    /// Create a PresentationServer reporting profile updates to
    /// `profile_store`.
    pub fn new(
        harness: AgentHarness,
        events: PlatformEvents,
        model: &'static str,
        profile_store: NodeId,
    ) -> Self {
        PresentationServer {
            harness,
            events,
            model,
            profile_store,
            impressions: 0,
            clicks: 0,
            spend: 0.0,
        }
    }
}

impl Node<PlatformMsg> for PresentationServer {
    fn on_start(&mut self, ctx: &mut Context<'_, PlatformMsg>) {
        self.harness.start(ctx);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, PlatformMsg>, _from: NodeId, msg: PlatformMsg) {
        let msg = match self.harness.on_message(ctx, msg) {
            Ok(()) => return,
            Err(m) => m,
        };
        let PlatformMsg::ShowAd {
            request_id,
            user_id,
            line_item_id,
            campaign_id,
            exchange_id,
            cost,
            base_ctr,
        } = msg
        else {
            return;
        };
        let now_ms = ctx.now.as_ms();
        let rid = RequestId(request_id);
        self.impressions += 1;
        self.spend += cost;

        let model = self.model;
        self.harness
            .agent()
            .log_typed(self.events.impression, rid, now_ms, || ImpressionEvent {
                user_id: user_id as i64,
                line_item_id: line_item_id as i64,
                campaign_id: campaign_id as i64,
                exchange_id: exchange_id as i64,
                cost,
                model: model.to_string(),
            });

        // profile update feeds the frequency-cap check (§8.6)
        ctx.send(
            self.profile_store,
            PlatformMsg::UpdateProfile {
                user_id,
                line_item_id,
                ts_ms: now_ms,
            },
        );

        // the user clicks with the (model-adjusted) CTR probability
        if ctx.rng.gen::<f64>() < base_ctr {
            self.clicks += 1;
            self.harness
                .agent()
                .log_typed(self.events.click, rid, now_ms, || ClickEvent {
                    user_id: user_id as i64,
                    line_item_id: line_item_id as i64,
                    campaign_id: campaign_id as i64,
                    exchange_id: exchange_id as i64,
                    model: model.to_string(),
                });
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, PlatformMsg>, timer: u64) {
        let _ = self.harness.on_timer(ctx, timer);
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}
