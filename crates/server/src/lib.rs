//! # scrub-server
//!
//! The Scrub control plane (§4, Figure 3): the query server that parses,
//! validates and plans queries, resolves the `@[...]` target clause,
//! applies host sampling, dispatches query objects, enforces query spans
//! and collects results — plus the simulated-node embeddings of
//! ScrubCentral and the host agent, and a `deploy` helper that wires a
//! complete Scrub instance into a simulated cluster.

pub mod central_node;
pub mod client;
mod delivery;
pub mod deploy;
pub mod harness;
pub mod msg;
pub mod server_node;

pub use central_node::CentralNode;
pub use client::{QueryHandle, ScrubClient};
pub use deploy::{
    deploy_central, deploy_central_cluster, deploy_server, deploy_server_clustered,
    inventory_from_sim, meta_inventory_from_sim, ScrubDeployment, SCRUB_CENTRAL_SERVICE,
    SCRUB_SERVER_SERVICE,
};
pub use harness::AgentHarness;
pub use msg::{ScrubEnvelope, ScrubMsg};
pub use server_node::{
    AdmissionDecision, AdmissionVerdict, QueryRecord, QueryServerNode, QueryState,
};
