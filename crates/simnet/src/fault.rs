//! Fault-injection plane for the deterministic simulator.
//!
//! The paper's setting is a production ad platform where hosts crash,
//! links lose messages, and latency spikes mid-query (§4.3 discusses
//! ScrubDispatcher fail-over; §5 reports results from a platform where
//! partial failure is the steady state). This module models those faults
//! *deterministically*: a [`FaultPlan`] describes per-link drop
//! probabilities, time-windowed partitions, latency jitter spikes, and
//! node crash/restart windows, and the scheduler consults it on every
//! send and delivery.
//!
//! Determinism contract:
//!
//! - Faults draw from a **dedicated** RNG seeded by [`FaultPlan::seed`],
//!   never from the simulation RNG the nodes share, and a draw happens
//!   only when a matching probabilistic rule is active. A plan with no
//!   active rules therefore yields a byte-identical execution to running
//!   with no plan at all.
//! - The same seed and the same plan always produce the identical fault
//!   schedule, so chaos experiments are exactly reproducible.

use serde::{Deserialize, Serialize};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::sim::NodeMeta;
use crate::time::SimTime;

/// Selects a set of nodes by metadata; both endpoints of a link rule are
/// selected this way, mirroring the `@[...]` target clause of ScrubQL.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum NodeSel {
    /// Matches every node.
    Any,
    /// Matches the node with this host name.
    Host(String),
    /// Matches all nodes of a service (e.g. `"BidServers"`).
    Service(String),
    /// Matches all nodes in a data center (e.g. `"DC2"`).
    Dc(String),
}

impl NodeSel {
    /// Does this selector match the node described by `meta`?
    pub fn matches(&self, meta: &NodeMeta) -> bool {
        match self {
            NodeSel::Any => true,
            NodeSel::Host(name) => meta.name == *name,
            NodeSel::Service(svc) => meta.service == *svc,
            NodeSel::Dc(dc) => meta.dc == *dc,
        }
    }
}

impl std::fmt::Display for NodeSel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NodeSel::Any => write!(f, "*"),
            NodeSel::Host(h) => write!(f, "host:{h}"),
            NodeSel::Service(s) => write!(f, "service:{s}"),
            NodeSel::Dc(d) => write!(f, "dc:{d}"),
        }
    }
}

/// Probabilistic message loss on a directed link.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DropRule {
    pub from: NodeSel,
    pub to: NodeSel,
    /// Probability in `[0, 1]` that a matching message is lost in flight.
    pub p: f64,
}

/// Total loss between two node sets during a virtual-time window
/// (both directions).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Partition {
    pub a: NodeSel,
    pub b: NodeSel,
    /// Window start (inclusive).
    pub from: SimTime,
    /// Window end (exclusive).
    pub until: SimTime,
}

impl Partition {
    fn active(&self, now: SimTime) -> bool {
        self.from <= now && now < self.until
    }

    fn severs(&self, now: SimTime, from: &NodeMeta, to: &NodeMeta) -> bool {
        self.active(now)
            && ((self.a.matches(from) && self.b.matches(to))
                || (self.b.matches(from) && self.a.matches(to)))
    }
}

/// Extra one-way latency on a directed link during a window: a fixed
/// component plus a uniformly-drawn jitter component.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JitterSpike {
    pub from: NodeSel,
    pub to: NodeSel,
    /// Window start (inclusive).
    pub window_from: SimTime,
    /// Window end (exclusive).
    pub window_until: SimTime,
    /// Fixed extra latency, µs.
    pub extra_us: i64,
    /// Additional uniform jitter in `[0, jitter_us]`, µs.
    pub jitter_us: i64,
}

impl JitterSpike {
    fn active(&self, now: SimTime) -> bool {
        self.window_from <= now && now < self.window_until
    }
}

/// A node crash: the host processes nothing in `[down_from, up_at)`.
/// Messages addressed to it are lost, and every timer it armed before the
/// crash dies with the old incarnation. If `up_at` is set, the node
/// restarts there: its incarnation is bumped and `on_start` runs again.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CrashWindow {
    /// Host name (matches [`NodeMeta::name`]).
    pub host: String,
    pub down_from: SimTime,
    /// `None` means the host never comes back.
    pub up_at: Option<SimTime>,
}

impl CrashWindow {
    /// Is the host down at `now` under this window?
    pub fn down(&self, now: SimTime) -> bool {
        self.down_from <= now && self.up_at.is_none_or(|up| now < up)
    }
}

/// Why the fault plane swallowed a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// A [`DropRule`] fired.
    Random,
    /// An active [`Partition`] severed the link.
    Partition,
    /// The destination host was down when the message arrived.
    HostDown,
}

/// The verdict for one send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendFate {
    /// Deliver, with this much extra one-way latency (µs).
    Deliver { extra_us: i64 },
    /// Lose the message.
    Drop(DropReason),
}

/// Counters for everything the fault plane did during a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultStats {
    /// Messages lost to a [`DropRule`].
    pub dropped_random: u64,
    /// Messages lost to an active [`Partition`].
    pub dropped_partition: u64,
    /// Messages that arrived while the destination host was down.
    pub dropped_host_down: u64,
    /// Timer events discarded because they were armed by a previous
    /// incarnation of a since-restarted node.
    pub stale_timers: u64,
    /// Messages delayed by a [`JitterSpike`].
    pub delayed: u64,
    /// Node restarts executed.
    pub restarts: u64,
}

impl FaultStats {
    /// Total messages lost to any cause.
    pub fn total_dropped(&self) -> u64 {
        self.dropped_random + self.dropped_partition + self.dropped_host_down
    }
}

/// The full fault schedule for a run. Built up-front for scripted chaos
/// experiments, or mutated live (via [`crate::Sim`]'s fault API) from the
/// CLI.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed for the dedicated fault RNG.
    pub seed: u64,
    /// Probabilistic loss rules; the first matching rule wins.
    pub drops: Vec<DropRule>,
    /// Time-windowed bidirectional partitions.
    pub partitions: Vec<Partition>,
    /// Time-windowed latency spikes.
    pub jitters: Vec<JitterSpike>,
    /// Crash/restart windows.
    pub crashes: Vec<CrashWindow>,
}

impl FaultPlan {
    /// An empty plan: injects nothing, draws nothing.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            drops: Vec::new(),
            partitions: Vec::new(),
            jitters: Vec::new(),
            crashes: Vec::new(),
        }
    }

    /// Lose messages from `from` to `to` with probability `p`.
    pub fn drop(mut self, from: NodeSel, to: NodeSel, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "drop probability out of range");
        self.drops.push(DropRule { from, to, p });
        self
    }

    /// Sever all traffic between `a` and `b` during `[from, until)`.
    pub fn partition(mut self, a: NodeSel, b: NodeSel, from: SimTime, until: SimTime) -> Self {
        self.partitions.push(Partition { a, b, from, until });
        self
    }

    /// Add `extra_us + U[0, jitter_us]` one-way latency from `from` to
    /// `to` during `[from_t, until)`.
    pub fn jitter(
        mut self,
        from: NodeSel,
        to: NodeSel,
        from_t: SimTime,
        until: SimTime,
        extra_us: i64,
        jitter_us: i64,
    ) -> Self {
        self.jitters.push(JitterSpike {
            from,
            to,
            window_from: from_t,
            window_until: until,
            extra_us,
            jitter_us,
        });
        self
    }

    /// Crash `host` at `down_from`; restart it at `up_at` if given.
    pub fn crash(
        mut self,
        host: impl Into<String>,
        down_from: SimTime,
        up_at: Option<SimTime>,
    ) -> Self {
        self.crashes.push(CrashWindow {
            host: host.into(),
            down_from,
            up_at,
        });
        self
    }

    /// Is `host` down at `now` under this plan?
    pub fn host_down(&self, host: &str, now: SimTime) -> bool {
        self.crashes.iter().any(|c| c.host == host && c.down(now))
    }
}

/// Live fault-plane state carried by the simulator: the plan, the
/// dedicated RNG, and the counters.
#[derive(Debug)]
pub struct FaultState {
    pub plan: FaultPlan,
    rng: StdRng,
    pub stats: FaultStats,
}

impl FaultState {
    pub fn new(plan: FaultPlan) -> Self {
        let rng = StdRng::seed_from_u64(plan.seed);
        FaultState {
            plan,
            rng,
            stats: FaultStats::default(),
        }
    }

    /// Decide what happens to a message sent at `now` from `from` to
    /// `to`. Partitions are checked first (no randomness), then drop
    /// rules (first match wins; the RNG is consulted only when a matching
    /// rule has `p > 0`), then jitter spikes.
    pub fn judge_send(&mut self, now: SimTime, from: &NodeMeta, to: &NodeMeta) -> SendFate {
        if self.plan.partitions.iter().any(|p| p.severs(now, from, to)) {
            self.stats.dropped_partition += 1;
            return SendFate::Drop(DropReason::Partition);
        }
        if let Some(rule) = self
            .plan
            .drops
            .iter()
            .find(|r| r.from.matches(from) && r.to.matches(to))
        {
            if rule.p > 0.0 && self.rng.gen_bool(rule.p) {
                self.stats.dropped_random += 1;
                return SendFate::Drop(DropReason::Random);
            }
        }
        let mut extra_us = 0i64;
        for spike in &self.plan.jitters {
            if spike.active(now) && spike.from.matches(from) && spike.to.matches(to) {
                extra_us += spike.extra_us;
                if spike.jitter_us > 0 {
                    extra_us += self.rng.gen_range(0..=spike.jitter_us);
                }
            }
        }
        if extra_us > 0 {
            self.stats.delayed += 1;
        }
        SendFate::Deliver { extra_us }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(name: &str, svc: &str, dc: &str) -> NodeMeta {
        NodeMeta::new(name, svc, dc)
    }

    #[test]
    fn selectors_match_metadata() {
        let m = meta("bid-3", "BidServers", "DC2");
        assert!(NodeSel::Any.matches(&m));
        assert!(NodeSel::Host("bid-3".into()).matches(&m));
        assert!(!NodeSel::Host("bid-4".into()).matches(&m));
        assert!(NodeSel::Service("BidServers".into()).matches(&m));
        assert!(NodeSel::Dc("DC2".into()).matches(&m));
        assert!(!NodeSel::Dc("DC1".into()).matches(&m));
    }

    #[test]
    fn partition_is_windowed_and_bidirectional() {
        let plan = FaultPlan::new(1).partition(
            NodeSel::Dc("DC1".into()),
            NodeSel::Dc("DC2".into()),
            SimTime::from_ms(100),
            SimTime::from_ms(200),
        );
        let mut st = FaultState::new(plan);
        let a = meta("a", "S", "DC1");
        let b = meta("b", "S", "DC2");
        // outside the window: delivered
        assert_eq!(
            st.judge_send(SimTime::from_ms(50), &a, &b),
            SendFate::Deliver { extra_us: 0 }
        );
        // inside: severed, both directions
        assert_eq!(
            st.judge_send(SimTime::from_ms(150), &a, &b),
            SendFate::Drop(DropReason::Partition)
        );
        assert_eq!(
            st.judge_send(SimTime::from_ms(150), &b, &a),
            SendFate::Drop(DropReason::Partition)
        );
        // end is exclusive
        assert_eq!(
            st.judge_send(SimTime::from_ms(200), &a, &b),
            SendFate::Deliver { extra_us: 0 }
        );
        assert_eq!(st.stats.dropped_partition, 2);
    }

    #[test]
    fn drop_rule_rate_is_roughly_honoured() {
        let plan = FaultPlan::new(42).drop(NodeSel::Any, NodeSel::Host("central".into()), 0.3);
        let mut st = FaultState::new(plan);
        let from = meta("agent-1", "Agents", "DC1");
        let to = meta("central", "Central", "DC1");
        let other = meta("other", "Other", "DC1");
        let mut dropped = 0;
        for _ in 0..10_000 {
            if matches!(
                st.judge_send(SimTime::ZERO, &from, &to),
                SendFate::Drop(DropReason::Random)
            ) {
                dropped += 1;
            }
            // non-matching link never consults the rule
            assert_eq!(
                st.judge_send(SimTime::ZERO, &from, &other),
                SendFate::Deliver { extra_us: 0 }
            );
        }
        assert!((2_700..3_300).contains(&dropped), "dropped={dropped}");
        assert_eq!(st.stats.dropped_random, dropped);
    }

    #[test]
    fn zero_probability_rule_never_draws() {
        // Two states with the same seed, one carrying a p=0 rule: their
        // RNG streams must stay in lockstep (the inert rule draws nothing),
        // which is the foundation of the zero-fault byte-identity claim.
        let with_rule = FaultPlan::new(7)
            .drop(NodeSel::Any, NodeSel::Any, 0.0)
            .jitter(
                NodeSel::Any,
                NodeSel::Any,
                SimTime::ZERO,
                SimTime::from_secs(1),
                0,
                1_000,
            );
        let bare = FaultPlan::new(7).jitter(
            NodeSel::Any,
            NodeSel::Any,
            SimTime::ZERO,
            SimTime::from_secs(1),
            0,
            1_000,
        );
        let (mut a, mut b) = (FaultState::new(with_rule), FaultState::new(bare));
        let m1 = meta("x", "S", "DC1");
        let m2 = meta("y", "S", "DC1");
        for _ in 0..100 {
            assert_eq!(
                a.judge_send(SimTime::from_ms(1), &m1, &m2),
                b.judge_send(SimTime::from_ms(1), &m1, &m2)
            );
        }
    }

    #[test]
    fn jitter_spike_adds_bounded_latency() {
        let plan = FaultPlan::new(3).jitter(
            NodeSel::Host("a".into()),
            NodeSel::Host("b".into()),
            SimTime::from_ms(10),
            SimTime::from_ms(20),
            5_000,
            2_000,
        );
        let mut st = FaultState::new(plan);
        let a = meta("a", "S", "DC1");
        let b = meta("b", "S", "DC1");
        for _ in 0..100 {
            match st.judge_send(SimTime::from_ms(15), &a, &b) {
                SendFate::Deliver { extra_us } => {
                    assert!((5_000..=7_000).contains(&extra_us), "extra={extra_us}")
                }
                fate => panic!("unexpected {fate:?}"),
            }
        }
        assert_eq!(st.stats.delayed, 100);
        // outside window or wrong direction: no extra latency
        assert_eq!(
            st.judge_send(SimTime::from_ms(25), &a, &b),
            SendFate::Deliver { extra_us: 0 }
        );
        assert_eq!(
            st.judge_send(SimTime::from_ms(15), &b, &a),
            SendFate::Deliver { extra_us: 0 }
        );
    }

    #[test]
    fn crash_windows() {
        let plan = FaultPlan::new(0)
            .crash("h1", SimTime::from_ms(100), Some(SimTime::from_ms(300)))
            .crash("h2", SimTime::from_ms(50), None);
        assert!(!plan.host_down("h1", SimTime::from_ms(99)));
        assert!(plan.host_down("h1", SimTime::from_ms(100)));
        assert!(plan.host_down("h1", SimTime::from_ms(299)));
        assert!(!plan.host_down("h1", SimTime::from_ms(300)));
        assert!(plan.host_down("h2", SimTime::from_secs(3600)));
        assert!(!plan.host_down("h3", SimTime::from_ms(100)));
    }

    #[test]
    fn plan_round_trips_through_json() {
        let plan = FaultPlan::new(11)
            .drop(NodeSel::Service("Agents".into()), NodeSel::Any, 0.05)
            .partition(
                NodeSel::Dc("DC1".into()),
                NodeSel::Dc("DC2".into()),
                SimTime::from_ms(10),
                SimTime::from_ms(20),
            )
            .jitter(
                NodeSel::Any,
                NodeSel::Any,
                SimTime::ZERO,
                SimTime::from_secs(1),
                100,
                50,
            )
            .crash("bid-1", SimTime::from_ms(5), Some(SimTime::from_ms(15)));
        let json = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(plan, back);
    }
}
