//! Exchange frontends: the workload generators.
//!
//! One frontend per ad exchange produces page views — humans drawn from a
//! Zipf-heavy population (each page spawning 1..=k bid requests, since
//! "many web pages show multiple ads", §8.1), plus configured spam bots
//! issuing large batches at high frequency. Frontends also play the
//! exchange's side of the protocol: they run the external auction on bid
//! responses and forward wins to PresentationServers, while recording the
//! end-to-end bid latency against the 20 ms SLO.

use rand::Rng;
use scrub_simnet::{Context, Node, NodeId, SimDuration};

use crate::config::BotSpec;
use crate::model::Exchange;
use crate::msg::{BidRequest, PlatformMsg};
use crate::zipf::Zipf;

const PAGE_TIMER: u64 = 1;
const BOT_TIMER_BASE: u64 = 100;

const COUNTRIES: [&str; 4] = ["us", "pt", "de", "jp"];
const CITIES: [&str; 4] = ["san jose", "porto", "berlin", "tokyo"];
const PUBLISHERS: [&str; 5] = ["news", "sports", "video", "social", "mail"];

/// An exchange frontend node.
pub struct ExchangeFrontend {
    /// The exchange this frontend simulates.
    pub exchange: Exchange,
    bidservers: Vec<NodeId>,
    presservers: Vec<NodeId>,
    zipf: Zipf,
    n_users: u64,
    n_segments: u32,
    pages_per_sec: f64,
    max_ads_per_page: u32,
    bots: Vec<BotSpec>,
    external_win_scale: f64,
    req_counter: u64,
    rr: usize,
    /// (timestamp ms, latency µs) per bid response — the SLO record.
    pub latencies: Vec<(i64, i64)>,
    /// Responses containing a bid.
    pub bids: u64,
    /// No-bid responses.
    pub no_bids: u64,
    /// Ads sent to PresentationServers (external-auction wins).
    pub impressions_sent: u64,
}

impl ExchangeFrontend {
    /// Create a frontend for `exchange`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        exchange: Exchange,
        bidservers: Vec<NodeId>,
        presservers: Vec<NodeId>,
        n_users: usize,
        zipf_alpha: f64,
        n_segments: u32,
        pages_per_sec: f64,
        max_ads_per_page: u32,
        bots: Vec<BotSpec>,
        external_win_scale: f64,
    ) -> Self {
        ExchangeFrontend {
            exchange,
            bidservers,
            presservers,
            zipf: Zipf::new(n_users.max(1), zipf_alpha),
            n_users: n_users as u64,
            n_segments,
            pages_per_sec,
            max_ads_per_page: max_ads_per_page.max(1),
            bots,
            external_win_scale,
            req_counter: 0,
            rr: 0,
            latencies: Vec::new(),
            bids: 0,
            no_bids: 0,
            impressions_sent: 0,
        }
    }

    fn schedule_next_page(&self, ctx: &mut Context<'_, PlatformMsg>) {
        if self.pages_per_sec <= 0.0 {
            return;
        }
        // exponential inter-arrivals
        let u: f64 = ctx.rng.gen_range(1e-12..1.0);
        let secs = -u.ln() / self.pages_per_sec;
        let delay = SimDuration::from_us((secs * 1e6).max(1.0) as i64);
        ctx.set_timer(delay, PAGE_TIMER);
    }

    fn user_attrs(user_id: u64) -> (&'static str, &'static str, Vec<u32>, &'static str) {
        let h = user_id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let c = (h >> 32) as usize % COUNTRIES.len();
        let publisher = PUBLISHERS[(h >> 16) as usize % PUBLISHERS.len()];
        (COUNTRIES[c], CITIES[c], vec![], publisher)
    }

    fn emit_page(&mut self, ctx: &mut Context<'_, PlatformMsg>, user_id: u64) {
        let ads = ctx.rng.gen_range(1..=self.max_ads_per_page);
        let (country, city, _, publisher) = Self::user_attrs(user_id);
        let segments = vec![
            (user_id % self.n_segments as u64) as u32,
            ((user_id / 7) % self.n_segments as u64) as u32,
        ];
        for _ in 0..ads {
            self.req_counter += 1;
            let request_id = ((self.exchange.id as u64) << 48) | self.req_counter;
            let req = BidRequest {
                request_id,
                user_id,
                segments: segments.clone(),
                exchange_id: self.exchange.id,
                floor_price: self.exchange.floor_price,
                publisher: publisher.to_string(),
                country: country.to_string(),
                city: city.to_string(),
                sent_at: ctx.now,
            };
            let target = self.bidservers[self.rr % self.bidservers.len()];
            self.rr += 1;
            ctx.send(target, PlatformMsg::BidRequest(req));
        }
    }
}

impl Node<PlatformMsg> for ExchangeFrontend {
    fn on_start(&mut self, ctx: &mut Context<'_, PlatformMsg>) {
        // human traffic starts when the exchange goes live (§8.2)
        let live_in = (self.exchange.live_from_ms * 1_000 - ctx.now.as_us()).max(0);
        if self.pages_per_sec > 0.0 {
            ctx.set_timer(SimDuration::from_us(live_in + 1), PAGE_TIMER);
        }
        for (i, bot) in self.bots.iter().enumerate() {
            let at = (bot.start_ms * 1_000 - ctx.now.as_us()).max(0);
            ctx.set_timer(SimDuration::from_us(at + 1), BOT_TIMER_BASE + i as u64);
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_, PlatformMsg>, _from: NodeId, msg: PlatformMsg) {
        let PlatformMsg::BidResponse {
            request_id,
            user_id,
            exchange_id,
            winner,
            pod,
            sent_at,
        } = msg
        else {
            return;
        };
        self.latencies
            .push((ctx.now.as_ms(), (ctx.now - sent_at).as_us()));
        let Some(w) = winner else {
            self.no_bids += 1;
            return;
        };
        self.bids += 1;
        // external auction: higher bids win more often
        let floor = self.exchange.floor_price;
        let p_win = self.external_win_scale * (w.bid_price / (w.bid_price + floor)).min(1.0);
        if ctx.rng.gen::<f64>() < p_win {
            self.impressions_sent += 1;
            let cost = floor + 0.6 * (w.bid_price - floor).max(0.0);
            let pres = self.presservers[pod % self.presservers.len()];
            ctx.send(
                pres,
                PlatformMsg::ShowAd {
                    request_id,
                    user_id,
                    line_item_id: w.line_item_id,
                    campaign_id: w.campaign_id,
                    exchange_id,
                    cost,
                    base_ctr: w.base_ctr,
                },
            );
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, PlatformMsg>, timer: u64) {
        if timer == PAGE_TIMER {
            let user_id = self.zipf.sample(ctx.rng) as u64;
            self.emit_page(ctx, user_id);
            self.schedule_next_page(ctx);
            return;
        }
        if timer >= BOT_TIMER_BASE {
            let i = (timer - BOT_TIMER_BASE) as usize;
            if let Some(bot) = self.bots.get(i).cloned() {
                let bot_user = self.n_users + bot.index;
                for _ in 0..bot.batch_pages {
                    self.emit_page(ctx, bot_user);
                }
                ctx.set_timer(
                    SimDuration::from_ms(bot.period_ms.max(1)),
                    BOT_TIMER_BASE + i as u64,
                );
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
