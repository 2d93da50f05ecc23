//! The deterministic discrete-event simulator.
//!
//! Nodes exchange messages over the [`Topology`];
//! the scheduler delivers them in virtual-time order with a strict (time,
//! sequence) total order, so a given seed always produces the identical
//! execution — every experiment figure is exactly reproducible.

use std::any::Any;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::fault::{FaultPlan, FaultState, FaultStats, NodeSel, SendFate};
use crate::time::{SimDuration, SimTime};
use crate::topology::{Topology, TrafficAccounting};

/// Identifier of a simulated node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "node#{}", self.0)
    }
}

/// Static metadata of a node: its host name, the service it runs, and its
/// data center — the attributes the `@[...]` target clause filters on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeMeta {
    /// Unique host name.
    pub name: String,
    /// Service label (e.g. `"BidServers"`).
    pub service: String,
    /// Data center label (e.g. `"DC1"`).
    pub dc: String,
}

impl NodeMeta {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, service: impl Into<String>, dc: impl Into<String>) -> Self {
        NodeMeta {
            name: name.into(),
            service: service.into(),
            dc: dc.into(),
        }
    }
}

/// Messages must report an approximate wire size for latency/bandwidth
/// modelling and byte accounting.
pub trait Message: 'static {
    /// Approximate serialized size in bytes.
    fn size_bytes(&self) -> usize;
}

/// Behaviour of a simulated node.
pub trait Node<M: Message>: Any {
    /// Called once at simulation start (time 0, or when the node is added
    /// to an already-running simulation).
    fn on_start(&mut self, _ctx: &mut Context<'_, M>) {}

    /// A message arrived.
    fn on_message(&mut self, ctx: &mut Context<'_, M>, from: NodeId, msg: M);

    /// A timer set via [`Context::set_timer`] fired.
    fn on_timer(&mut self, _ctx: &mut Context<'_, M>, _timer: u64) {}

    /// Downcast support (inspect node state after a run).
    fn as_any(&self) -> &dyn Any;

    /// Downcast support (mutate node state between runs).
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// Implements the [`Node`] downcast boilerplate for a concrete node type.
#[macro_export]
macro_rules! impl_node_any {
    () => {
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    };
}

enum Action<M> {
    Send { to: NodeId, msg: M },
    Timer { delay: SimDuration, id: u64 },
}

/// Handed to node callbacks: the clock, the node's identity, a seeded RNG,
/// node metadata, and the means to send messages and set timers.
pub struct Context<'a, M: Message> {
    /// Current virtual time.
    pub now: SimTime,
    /// The node being invoked.
    pub self_id: NodeId,
    /// Deterministic RNG (shared by all nodes; execution order is total).
    pub rng: &'a mut StdRng,
    meta: &'a [NodeMeta],
    out: &'a mut Vec<Action<M>>,
}

impl<M: Message> Context<'_, M> {
    /// Send `msg` to `to`; it arrives after the topology-determined delay.
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.out.push(Action::Send { to, msg });
    }

    /// Arrange for [`Node::on_timer`] to fire after `delay`.
    pub fn set_timer(&mut self, delay: SimDuration, id: u64) {
        self.out.push(Action::Timer { delay, id });
    }

    /// Metadata of any node.
    pub fn meta(&self, id: NodeId) -> &NodeMeta {
        &self.meta[id.0 as usize]
    }

    /// Metadata of the node being invoked.
    pub fn self_meta(&self) -> &NodeMeta {
        self.meta(self.self_id)
    }
}

enum Payload<M> {
    Start,
    Deliver {
        from: NodeId,
        msg: M,
    },
    /// `inc` is the node incarnation that armed the timer; a restart bumps
    /// the incarnation, so timers from the previous life are discarded.
    Timer {
        id: u64,
        inc: u32,
    },
    /// Scheduled at a crash window's `up_at`: bumps the incarnation and
    /// re-runs `on_start`.
    Restart,
}

struct Queued<M> {
    at: SimTime,
    seq: u64,
    node: NodeId,
    payload: Payload<M>,
}

impl<M> PartialEq for Queued<M> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<M> Eq for Queued<M> {}
impl<M> PartialOrd for Queued<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Queued<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event pops first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// The simulator: nodes + topology + event queue + traffic accounting.
pub struct Sim<M: Message> {
    nodes: Vec<Option<Box<dyn Node<M>>>>,
    meta: Vec<NodeMeta>,
    topology: Topology,
    queue: BinaryHeap<Queued<M>>,
    now: SimTime,
    seq: u64,
    rng: StdRng,
    traffic: TrafficAccounting,
    events_processed: u64,
    /// Per-node restart count; timers are stamped with the incarnation
    /// that armed them.
    incarnation: Vec<u32>,
    faults: Option<FaultState>,
}

impl<M: Message> Sim<M> {
    /// Create a simulator with the given topology and RNG seed.
    pub fn new(topology: Topology, seed: u64) -> Self {
        Sim {
            nodes: Vec::new(),
            meta: Vec::new(),
            topology,
            queue: BinaryHeap::new(),
            now: SimTime::ZERO,
            seq: 0,
            rng: StdRng::seed_from_u64(seed),
            traffic: TrafficAccounting::default(),
            events_processed: 0,
            incarnation: Vec::new(),
            faults: None,
        }
    }

    /// Add a node; its `on_start` is scheduled at the current time.
    pub fn add_node(&mut self, meta: NodeMeta, node: Box<dyn Node<M>>) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Some(node));
        self.meta.push(meta);
        self.incarnation.push(0);
        self.push(self.now, id, Payload::Start);
        id
    }

    /// Install a fault plan. Restarts for every crash window with an
    /// `up_at` are scheduled immediately (deterministically, through the
    /// same event queue as everything else). Crash windows naming unknown
    /// hosts are ignored. Installing an inert plan leaves the execution
    /// byte-identical to running without one.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        for crash in &plan.crashes {
            if let (Some(node), Some(up)) = (self.node_by_name(&crash.host), crash.up_at) {
                let at = if up < self.now { self.now } else { up };
                self.push(at, node, Payload::Restart);
            }
        }
        self.faults = Some(FaultState::new(plan));
    }

    /// The installed fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.faults.as_ref().map(|f| &f.plan)
    }

    /// Fault-plane counters for the run so far (zeros when no plan is
    /// installed).
    pub fn fault_stats(&self) -> FaultStats {
        self.faults.as_ref().map(|f| f.stats).unwrap_or_default()
    }

    /// Current incarnation (restart count) of a node.
    pub fn incarnation_of(&self, id: NodeId) -> u32 {
        self.incarnation[id.0 as usize]
    }

    fn ensure_faults(&mut self) -> &mut FaultState {
        if self.faults.is_none() {
            self.faults = Some(FaultState::new(FaultPlan::new(0)));
        }
        self.faults.as_mut().unwrap()
    }

    /// Live mutation: lose messages from `from` to `to` with probability
    /// `p` from now on (prepended, so it wins over earlier rules).
    pub fn set_link_drop(&mut self, from: NodeSel, to: NodeSel, p: f64) {
        let f = self.ensure_faults();
        f.plan
            .drops
            .insert(0, crate::fault::DropRule { from, to, p });
    }

    /// Live mutation: sever `a`↔`b` during `[from, until)`.
    pub fn add_partition(&mut self, a: NodeSel, b: NodeSel, from: SimTime, until: SimTime) {
        let f = self.ensure_faults();
        f.plan
            .partitions
            .push(crate::fault::Partition { a, b, from, until });
    }

    /// Live mutation: crash `host` at `down_from`, restarting at `up_at`
    /// if given. Returns false when the host name is unknown.
    pub fn inject_crash(&mut self, host: &str, down_from: SimTime, up_at: Option<SimTime>) -> bool {
        let Some(node) = self.node_by_name(host) else {
            return false;
        };
        if let Some(up) = up_at {
            let at = if up < self.now { self.now } else { up };
            self.push(at, node, Payload::Restart);
        }
        let f = self.ensure_faults();
        f.plan.crashes.push(crate::fault::CrashWindow {
            host: host.to_string(),
            down_from,
            up_at,
        });
        true
    }

    /// Live mutation: bring a crashed `host` back up now. Every crash
    /// window currently holding it down is closed at the present time and
    /// one restart is scheduled. Returns false when the host is unknown
    /// or not down.
    pub fn revive(&mut self, host: &str) -> bool {
        let Some(node) = self.node_by_name(host) else {
            return false;
        };
        let now = self.now;
        let Some(f) = self.faults.as_mut() else {
            return false;
        };
        let mut any = false;
        for c in f.plan.crashes.iter_mut() {
            if c.host == host && c.down(now) {
                c.up_at = Some(now);
                any = true;
            }
        }
        if any {
            self.push(now, node, Payload::Restart);
        }
        any
    }

    /// Metadata of all nodes, indexed by `NodeId`.
    pub fn metas(&self) -> &[NodeMeta] {
        &self.meta
    }

    /// Look up a node id by host name.
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.meta
            .iter()
            .position(|m| m.name == name)
            .map(|i| NodeId(i as u32))
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Traffic accounting so far.
    pub fn traffic(&self) -> &TrafficAccounting {
        &self.traffic
    }

    /// Total events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Inject a message from "outside" (delivered to `to` after the
    /// loopback delay). Useful for tests and external drivers.
    pub fn inject(&mut self, to: NodeId, from: NodeId, msg: M) {
        let at = self.now + SimDuration(self.topology.loopback_us);
        self.push(at, to, Payload::Deliver { from, msg });
    }

    /// Borrow a node's concrete state (after/between runs).
    pub fn node_as<T: 'static>(&self, id: NodeId) -> Option<&T> {
        self.nodes[id.0 as usize]
            .as_ref()
            .and_then(|n| n.as_any().downcast_ref::<T>())
    }

    /// Mutably borrow a node's concrete state (after/between runs).
    pub fn node_as_mut<T: 'static>(&mut self, id: NodeId) -> Option<&mut T> {
        self.nodes[id.0 as usize]
            .as_mut()
            .and_then(|n| n.as_any_mut().downcast_mut::<T>())
    }

    fn push(&mut self, at: SimTime, node: NodeId, payload: Payload<M>) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Queued {
            at,
            seq,
            node,
            payload,
        });
    }

    /// Process the next queued event, if any. Returns false when the queue
    /// is empty.
    pub fn step(&mut self) -> bool {
        let Some(ev) = self.queue.pop() else {
            return false;
        };
        debug_assert!(ev.at >= self.now, "time went backwards");
        self.now = ev.at;
        self.events_processed += 1;

        let idx = ev.node.0 as usize;

        // Fault plane: gate the event before the node sees it.
        let mut payload = ev.payload;
        if let Payload::Timer { inc, .. } = &payload {
            // Armed by a previous incarnation of a since-restarted node.
            if *inc != self.incarnation[idx] {
                if let Some(faults) = self.faults.as_mut() {
                    faults.stats.stale_timers += 1;
                }
                return true;
            }
        }
        if let Payload::Restart = payload {
            // The transition back up: bump the incarnation so pre-crash
            // timers die, then run on_start again.
            self.incarnation[idx] += 1;
            if let Some(faults) = self.faults.as_mut() {
                faults.stats.restarts += 1;
            }
            payload = Payload::Start;
        } else if let Some(faults) = self.faults.as_mut() {
            if faults.plan.host_down(&self.meta[idx].name, self.now) {
                // Host is down: it processes nothing. In-flight messages
                // addressed to it are lost; its timers and pending start
                // are swallowed too.
                if matches!(payload, Payload::Deliver { .. }) {
                    faults.stats.dropped_host_down += 1;
                }
                return true;
            }
        }

        let Some(mut node) = self.nodes[idx].take() else {
            return true; // node removed; drop the event
        };
        let mut out: Vec<Action<M>> = Vec::new();
        {
            let mut ctx = Context {
                now: self.now,
                self_id: ev.node,
                rng: &mut self.rng,
                meta: &self.meta,
                out: &mut out,
            };
            match payload {
                Payload::Start | Payload::Restart => node.on_start(&mut ctx),
                Payload::Deliver { from, msg } => node.on_message(&mut ctx, from, msg),
                Payload::Timer { id, .. } => node.on_timer(&mut ctx, id),
            }
        }
        self.nodes[idx] = Some(node);

        for action in out {
            match action {
                Action::Send { to, msg } => {
                    let from_meta = &self.meta[idx];
                    let to_meta = &self.meta[to.0 as usize];
                    let bytes = msg.size_bytes();
                    // The message leaves the sender's NIC either way, so
                    // traffic accounting records it even when the fault
                    // plane then loses it en route.
                    self.traffic.record(&from_meta.dc, &to_meta.dc, bytes);
                    let mut extra_us = 0i64;
                    if let Some(faults) = self.faults.as_mut() {
                        match faults.judge_send(self.now, from_meta, to_meta) {
                            SendFate::Drop(_) => continue,
                            SendFate::Deliver { extra_us: e } => extra_us = e,
                        }
                    }
                    let delay = self.topology.delay(
                        &from_meta.dc,
                        &to_meta.dc,
                        from_meta.name == to_meta.name,
                        bytes,
                    );
                    let at = self.now + delay + SimDuration(extra_us);
                    self.push(at, to, Payload::Deliver { from: ev.node, msg });
                }
                Action::Timer { delay, id } => {
                    let at = self.now + delay;
                    let inc = self.incarnation[idx];
                    self.push(at, ev.node, Payload::Timer { id, inc });
                }
            }
        }
        true
    }

    /// Run until the queue is exhausted or virtual time would pass
    /// `deadline`; the clock ends at `deadline` (or the last event time).
    pub fn run_until(&mut self, deadline: SimTime) {
        while let Some(ev) = self.queue.peek() {
            if ev.at > deadline {
                break;
            }
            self.step();
        }
        if self.now < deadline {
            self.now = deadline;
        }
    }

    /// Run to quiescence (with a safety cap on event count).
    pub fn run_all(&mut self, max_events: u64) {
        let mut n = 0u64;
        while n < max_events && self.step() {
            n += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug)]
    struct Ping {
        payload: Vec<u8>,
    }
    impl Message for Ping {
        fn size_bytes(&self) -> usize {
            self.payload.len()
        }
    }

    /// Replies to every ping; counts what it saw.
    struct Echo {
        received: u32,
    }
    impl Node<Ping> for Echo {
        fn on_message(&mut self, ctx: &mut Context<'_, Ping>, from: NodeId, msg: Ping) {
            self.received += 1;
            if ctx.self_id != from {
                // avoid infinite ping-pong: only reply once per inbound
                if self.received <= 1 {
                    ctx.send(from, msg);
                }
            }
        }
        impl_node_any!();
    }

    /// Sends one ping at start, records RTT.
    struct Pinger {
        target: Option<NodeId>,
        sent_at: SimTime,
        rtt_us: Option<i64>,
    }
    impl Node<Ping> for Pinger {
        fn on_start(&mut self, ctx: &mut Context<'_, Ping>) {
            if let Some(t) = self.target {
                self.sent_at = ctx.now;
                ctx.send(
                    t,
                    Ping {
                        payload: vec![0; 100],
                    },
                );
            }
        }
        fn on_message(&mut self, ctx: &mut Context<'_, Ping>, _from: NodeId, _msg: Ping) {
            self.rtt_us = Some((ctx.now - self.sent_at).as_us());
        }
        impl_node_any!();
    }

    fn two_node_sim(dc_a: &str, dc_b: &str) -> (Sim<Ping>, NodeId, NodeId) {
        let mut sim = Sim::new(Topology::default(), 1);
        let echo = sim.add_node(
            NodeMeta::new("echo", "Echo", dc_b),
            Box::new(Echo { received: 0 }),
        );
        let pinger = sim.add_node(
            NodeMeta::new("pinger", "Pinger", dc_a),
            Box::new(Pinger {
                target: Some(echo),
                sent_at: SimTime::ZERO,
                rtt_us: None,
            }),
        );
        (sim, echo, pinger)
    }

    #[test]
    fn rtt_reflects_topology() {
        let (mut sim, _, pinger) = two_node_sim("DC1", "DC1");
        sim.run_all(1000);
        let intra_rtt = sim.node_as::<Pinger>(pinger).unwrap().rtt_us.unwrap();

        let (mut sim, _, pinger) = two_node_sim("DC1", "DC2");
        sim.run_all(1000);
        let inter_rtt = sim.node_as::<Pinger>(pinger).unwrap().rtt_us.unwrap();

        assert!(intra_rtt >= 2 * 250);
        assert!(inter_rtt >= 2 * 60_000);
        assert!(inter_rtt > intra_rtt * 10);
    }

    #[test]
    fn traffic_is_accounted() {
        let (mut sim, _, _) = two_node_sim("DC1", "DC2");
        sim.run_all(1000);
        // ping + echo reply = 2 messages of 100 bytes
        assert_eq!(sim.traffic().total_messages(), 2);
        assert_eq!(sim.traffic().total_bytes(), 200);
        assert_eq!(sim.traffic().cross_dc_bytes(), 200);
        assert_eq!(sim.traffic().link("DC1", "DC2").messages, 1);
    }

    #[test]
    fn determinism_same_seed_same_execution() {
        let run = |seed| {
            let (mut sim, echo, _) = two_node_sim("DC1", "DC2");
            let _ = seed; // topology identical; determinism from ordering
            sim.run_all(1000);
            (
                sim.now().as_us(),
                sim.node_as::<Echo>(echo).unwrap().received,
                sim.events_processed(),
            )
        };
        assert_eq!(run(5), run(5));
    }

    struct TickTock {
        ticks: u32,
    }
    impl Node<Ping> for TickTock {
        fn on_start(&mut self, ctx: &mut Context<'_, Ping>) {
            ctx.set_timer(SimDuration::from_ms(10), 7);
        }
        fn on_message(&mut self, _: &mut Context<'_, Ping>, _: NodeId, _: Ping) {}
        fn on_timer(&mut self, ctx: &mut Context<'_, Ping>, id: u64) {
            assert_eq!(id, 7);
            self.ticks += 1;
            if self.ticks < 5 {
                ctx.set_timer(SimDuration::from_ms(10), 7);
            }
        }
        impl_node_any!();
    }

    #[test]
    fn timers_fire_at_intervals() {
        let mut sim: Sim<Ping> = Sim::new(Topology::default(), 1);
        let id = sim.add_node(
            NodeMeta::new("t", "Ticker", "DC1"),
            Box::new(TickTock { ticks: 0 }),
        );
        sim.run_all(1000);
        assert_eq!(sim.node_as::<TickTock>(id).unwrap().ticks, 5);
        assert_eq!(sim.now().as_ms(), 50);
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut sim: Sim<Ping> = Sim::new(Topology::default(), 1);
        sim.add_node(
            NodeMeta::new("t", "Ticker", "DC1"),
            Box::new(TickTock { ticks: 0 }),
        );
        sim.run_until(SimTime::from_ms(25));
        assert_eq!(sim.now(), SimTime::from_ms(25));
        let id = sim.node_by_name("t").unwrap();
        assert_eq!(sim.node_as::<TickTock>(id).unwrap().ticks, 2);
        sim.run_until(SimTime::from_ms(100));
        assert_eq!(sim.node_as::<TickTock>(id).unwrap().ticks, 5);
    }

    #[test]
    fn inject_external_message() {
        let mut sim: Sim<Ping> = Sim::new(Topology::default(), 1);
        let echo = sim.add_node(
            NodeMeta::new("echo", "Echo", "DC1"),
            Box::new(Echo { received: 0 }),
        );
        sim.inject(echo, echo, Ping { payload: vec![1] });
        sim.run_all(100);
        assert_eq!(sim.node_as::<Echo>(echo).unwrap().received, 1);
    }

    #[test]
    fn node_lookup_by_name() {
        let (sim, echo, _) = two_node_sim("DC1", "DC1");
        assert_eq!(sim.node_by_name("echo"), Some(echo));
        assert_eq!(sim.node_by_name("missing"), None);
    }

    use crate::fault::{FaultPlan, NodeSel};

    #[test]
    fn full_drop_rule_loses_the_ping() {
        let (mut sim, echo, pinger) = two_node_sim("DC1", "DC1");
        sim.set_fault_plan(FaultPlan::new(1).drop(
            NodeSel::Host("pinger".into()),
            NodeSel::Host("echo".into()),
            1.0,
        ));
        sim.run_all(1000);
        assert_eq!(sim.node_as::<Echo>(echo).unwrap().received, 0);
        assert!(sim.node_as::<Pinger>(pinger).unwrap().rtt_us.is_none());
        assert_eq!(sim.fault_stats().dropped_random, 1);
        // the lost message still left the sender's NIC
        assert_eq!(sim.traffic().total_messages(), 1);
    }

    #[test]
    fn inert_plan_is_byte_identical_to_no_plan() {
        let run = |with_plan: bool| {
            let (mut sim, echo, pinger) = two_node_sim("DC1", "DC2");
            if with_plan {
                sim.set_fault_plan(FaultPlan::new(999).drop(NodeSel::Any, NodeSel::Any, 0.0));
            }
            sim.run_all(1000);
            (
                sim.now().as_us(),
                sim.events_processed(),
                sim.traffic().total_bytes(),
                sim.node_as::<Pinger>(pinger).unwrap().rtt_us,
                sim.node_as::<Echo>(echo).unwrap().received,
            )
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn crash_swallows_messages_and_restart_reruns_on_start() {
        // TickTock arms a timer chain from on_start; crash it mid-chain
        // and restart it. Pre-crash timers must die (stale incarnation),
        // and on_start must run again, re-arming the chain.
        let mut sim: Sim<Ping> = Sim::new(Topology::default(), 1);
        let id = sim.add_node(
            NodeMeta::new("t", "Ticker", "DC1"),
            Box::new(TickTock { ticks: 0 }),
        );
        sim.set_fault_plan(FaultPlan::new(0).crash(
            "t",
            SimTime::from_ms(15),
            Some(SimTime::from_ms(18)),
        ));
        sim.run_all(1000);
        // One tick at 10ms (arming a timer for 20ms), down during
        // [15ms, 18ms). The restart at 18ms re-runs on_start, so the
        // 20ms timer pops with a stale incarnation and dies, and the new
        // chain ticks at 28/38/48/58ms until the counter (which survives
        // the restart — in-memory state is not wiped) reaches 5.
        assert_eq!(sim.node_as::<TickTock>(id).unwrap().ticks, 5);
        assert_eq!(sim.incarnation_of(id), 1);
        let stats = sim.fault_stats();
        assert_eq!(stats.restarts, 1);
        assert_eq!(stats.stale_timers, 1);
        assert_eq!(sim.now().as_ms(), 58);
    }

    #[test]
    fn messages_to_down_host_are_lost() {
        let (mut sim, echo, pinger) = two_node_sim("DC1", "DC1");
        // echo is down for the whole run; the ping arrives into the void
        sim.set_fault_plan(FaultPlan::new(0).crash("echo", SimTime::ZERO, None));
        sim.run_all(1000);
        assert_eq!(sim.node_as::<Echo>(echo).unwrap().received, 0);
        assert!(sim.node_as::<Pinger>(pinger).unwrap().rtt_us.is_none());
        // the Start event and the ping were both swallowed; only the
        // delivery counts as a host-down drop
        assert_eq!(sim.fault_stats().dropped_host_down, 1);
    }

    #[test]
    fn jitter_spike_delays_delivery() {
        let base_rtt = {
            let (mut sim, _, pinger) = two_node_sim("DC1", "DC1");
            sim.run_all(1000);
            sim.node_as::<Pinger>(pinger).unwrap().rtt_us.unwrap()
        };
        let (mut sim, _, pinger) = two_node_sim("DC1", "DC1");
        sim.set_fault_plan(FaultPlan::new(5).jitter(
            NodeSel::Any,
            NodeSel::Any,
            SimTime::ZERO,
            SimTime::from_secs(10),
            10_000,
            0,
        ));
        sim.run_all(1000);
        let jittered_rtt = sim.node_as::<Pinger>(pinger).unwrap().rtt_us.unwrap();
        // both legs picked up the fixed 10ms spike
        assert_eq!(jittered_rtt - base_rtt, 20_000);
        assert_eq!(sim.fault_stats().delayed, 2);
    }

    #[test]
    fn fault_runs_are_deterministic() {
        let run = || {
            let (mut sim, echo, pinger) = two_node_sim("DC1", "DC2");
            sim.set_fault_plan(
                FaultPlan::new(77)
                    .drop(NodeSel::Any, NodeSel::Any, 0.5)
                    .jitter(
                        NodeSel::Any,
                        NodeSel::Any,
                        SimTime::ZERO,
                        SimTime::from_secs(1),
                        100,
                        5_000,
                    ),
            );
            sim.run_all(1000);
            (
                sim.now().as_us(),
                sim.events_processed(),
                sim.node_as::<Echo>(echo).unwrap().received,
                sim.node_as::<Pinger>(pinger).unwrap().rtt_us,
                sim.fault_stats(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn runtime_fault_mutation() {
        let mut sim: Sim<Ping> = Sim::new(Topology::default(), 1);
        let echo = sim.add_node(
            NodeMeta::new("echo", "Echo", "DC1"),
            Box::new(Echo { received: 0 }),
        );
        sim.run_all(10);
        // live: sever the world, then inject a message — it must vanish
        sim.set_link_drop(NodeSel::Any, NodeSel::Host("echo".into()), 1.0);
        assert!(sim.inject_crash("echo", sim.now(), None));
        assert!(!sim.inject_crash("nope", sim.now(), None));
        sim.inject(echo, echo, Ping { payload: vec![1] });
        sim.run_all(100);
        assert_eq!(sim.node_as::<Echo>(echo).unwrap().received, 0);
        assert!(sim.fault_plan().is_some());
    }

    #[test]
    fn revive_brings_a_killed_host_back() {
        let mut sim: Sim<Ping> = Sim::new(Topology::default(), 1);
        let echo = sim.add_node(
            NodeMeta::new("echo", "Echo", "DC1"),
            Box::new(Echo { received: 0 }),
        );
        sim.run_all(10);
        // kill with no scheduled restart: messages vanish
        assert!(sim.inject_crash("echo", sim.now(), None));
        sim.inject(echo, echo, Ping { payload: vec![1] });
        sim.run_all(100);
        assert_eq!(sim.node_as::<Echo>(echo).unwrap().received, 0);
        // not-down / unknown hosts cannot be revived
        assert!(!sim.revive("nope"));
        // revive closes the open crash window and restarts the node
        assert!(sim.revive("echo"));
        assert!(!sim.revive("echo"), "already up");
        sim.inject(echo, echo, Ping { payload: vec![2] });
        sim.run_all(100);
        assert_eq!(sim.node_as::<Echo>(echo).unwrap().received, 1);
        assert_eq!(sim.fault_stats().restarts, 1);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    #[derive(Debug, Clone)]
    struct Tagged {
        seq: u64,
        payload_len: usize,
    }
    impl Message for Tagged {
        fn size_bytes(&self) -> usize {
            self.payload_len
        }
    }

    /// Records delivery times of everything it receives.
    #[derive(Default)]
    struct Recorder {
        deliveries: Vec<(u64, i64)>, // (sender seq, arrival us)
    }
    impl Node<Tagged> for Recorder {
        fn on_message(&mut self, ctx: &mut Context<'_, Tagged>, _from: NodeId, msg: Tagged) {
            self.deliveries.push((msg.seq, ctx.now.as_us()));
        }
        impl_node_any!();
    }

    /// Emits a fixed schedule of messages toward a target.
    struct Emitter {
        target: NodeId,
        schedule: Vec<(i64, usize)>, // (send at ms, payload bytes)
        next: usize,
    }
    impl Node<Tagged> for Emitter {
        fn on_start(&mut self, ctx: &mut Context<'_, Tagged>) {
            if !self.schedule.is_empty() {
                ctx.set_timer(SimDuration::from_ms(self.schedule[0].0.max(1)), 1);
            }
        }
        fn on_message(&mut self, _: &mut Context<'_, Tagged>, _: NodeId, _: Tagged) {}
        fn on_timer(&mut self, ctx: &mut Context<'_, Tagged>, _timer: u64) {
            let (_, bytes) = self.schedule[self.next];
            ctx.send(
                self.target,
                Tagged {
                    seq: self.next as u64,
                    payload_len: bytes,
                },
            );
            self.next += 1;
            if self.next < self.schedule.len() {
                let delay = self.schedule[self.next].0 - self.schedule[self.next - 1].0;
                ctx.set_timer(SimDuration::from_ms(delay.max(1)), 1);
            }
        }
        impl_node_any!();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Simulator invariants for any message schedule:
        /// (1) virtual time at each delivery never precedes the send time
        ///     plus the topology's base latency;
        /// (2) equal-size messages between the same pair deliver FIFO;
        /// (3) the run is deterministic (same schedule, same deliveries).
        #[test]
        fn delivery_invariants(
            mut gaps in prop::collection::vec((1i64..50, 0usize..4000), 1..40),
            cross_dc in any::<bool>(),
        ) {
            // build an absolute schedule from the gaps
            let mut t = 0;
            for (at, _) in gaps.iter_mut() {
                t += *at;
                *at = t;
            }
            let run = |schedule: Vec<(i64, usize)>| {
                let mut sim: Sim<Tagged> = Sim::new(Topology::default(), 3);
                let rx_dc = if cross_dc { "DC2" } else { "DC1" };
                let rx = sim.add_node(
                    NodeMeta::new("rx", "Receivers", rx_dc),
                    Box::new(Recorder::default()),
                );
                sim.add_node(
                    NodeMeta::new("tx", "Senders", "DC1"),
                    Box::new(Emitter {
                        target: rx,
                        schedule,
                        next: 0,
                    }),
                );
                sim.run_all(1_000_000);
                sim.node_as::<Recorder>(rx).unwrap().deliveries.clone()
            };
            let a = run(gaps.clone());
            let b = run(gaps.clone());
            prop_assert_eq!(&a, &b, "nondeterministic delivery");
            prop_assert_eq!(a.len(), gaps.len());

            let base_us = if cross_dc { 60_000 } else { 250 };
            for (seq, arrive_us) in &a {
                let sent_ms = gaps[*seq as usize].0;
                prop_assert!(
                    *arrive_us >= sent_ms * 1_000 + base_us,
                    "arrival before send + latency"
                );
            }
            // FIFO among equal-size messages
            let mut last_by_size: std::collections::HashMap<usize, (u64, i64)> =
                std::collections::HashMap::new();
            let mut by_arrival = a.clone();
            by_arrival.sort_by_key(|(_, t)| *t);
            for (seq, t) in by_arrival {
                let size = gaps[seq as usize].1;
                if let Some((prev_seq, _)) = last_by_size.get(&size) {
                    prop_assert!(
                        *prev_seq < seq,
                        "same-size messages reordered: {prev_seq} after {seq}"
                    );
                }
                last_by_size.insert(size, (seq, t));
            }
        }
    }
}
