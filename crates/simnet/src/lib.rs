//! # scrub-simnet
//!
//! Deterministic discrete-event cluster/network simulation substrate.
//!
//! The paper evaluates Scrub on Turn's production platform — thousands of
//! machines across data centers worldwide. This crate provides the
//! simulated equivalent: virtual time, a message-passing node model, a
//! topology with per-DC-pair latency and bandwidth, per-link byte
//! accounting (the currency of the Scrub-vs-logging comparison), and
//! per-node metadata (name, service, data center) that the query server
//! reads as its host inventory for target-clause resolution. Executions
//! are totally ordered by (time, sequence), so every run is exactly
//! reproducible.

pub mod fault;
pub mod sim;
pub mod time;
pub mod topology;

pub use fault::{
    CrashWindow, DropReason, DropRule, FaultPlan, FaultStats, JitterSpike, NodeSel, Partition,
    SendFate,
};
pub use sim::{Context, Message, Node, NodeId, NodeMeta, Sim};
pub use time::{SimDuration, SimTime};
pub use topology::{LinkStats, Topology, TrafficAccounting};
