//! Deployment helper: wires a ScrubCentral node and a query-server node
//! into an existing simulated cluster of application hosts.

use std::sync::Arc;

use scrub_core::config::ScrubConfig;
use scrub_core::schema::SchemaRegistry;
use scrub_core::target::HostInfo;
use scrub_simnet::{NodeId, NodeMeta, Sim};

use crate::central_node::CentralNode;
use crate::msg::ScrubEnvelope;
use crate::server_node::QueryServerNode;

/// Service name of the ScrubCentral node (excluded from target
/// resolution: queries never run on Scrub's own machines).
pub const SCRUB_CENTRAL_SERVICE: &str = "ScrubCentral";
/// Service name of the query-server node.
pub const SCRUB_SERVER_SERVICE: &str = "ScrubQueryServer";

/// Handles to a deployed Scrub instance.
#[derive(Debug, Clone, Copy)]
pub struct ScrubDeployment {
    /// The query-server node.
    pub server: NodeId,
    /// The ScrubCentral node.
    pub central: NodeId,
}

/// Build the application-host inventory from the simulation's node
/// metadata, excluding Scrub's own services.
pub fn inventory_from_sim<E: ScrubEnvelope>(sim: &Sim<E>) -> Vec<(NodeId, HostInfo)> {
    sim.metas()
        .iter()
        .enumerate()
        .filter(|(_, m)| m.service != SCRUB_CENTRAL_SERVICE && m.service != SCRUB_SERVER_SERVICE)
        .map(|(i, m)| {
            (
                NodeId(i as u32),
                HostInfo::new(m.name.clone(), m.service.clone(), m.dc.clone()),
            )
        })
        .collect()
}

/// Scrub's own nodes as a target inventory. Only queries that
/// *explicitly name* a Scrub service or host (e.g.
/// `@[Service in ScrubCentral]`) resolve to these — blanket selectors
/// like `@[all]` still reach application hosts only. This is what lets
/// ScrubQL run over Scrub's own `scrub_batch`/`scrub_window` telemetry.
pub fn meta_inventory_from_sim<E: ScrubEnvelope>(sim: &Sim<E>) -> Vec<(NodeId, HostInfo)> {
    sim.metas()
        .iter()
        .enumerate()
        .filter(|(_, m)| m.service == SCRUB_CENTRAL_SERVICE)
        .map(|(i, m)| {
            (
                NodeId(i as u32),
                HostInfo::new(m.name.clone(), m.service.clone(), m.dc.clone()),
            )
        })
        .collect()
}

/// Add the ScrubCentral node. Call this *before* creating application
/// hosts so their agent harnesses know where to ship batches. The schema
/// registry must be the same one the query server validates against —
/// central registers its meta-event types into it.
pub fn deploy_central<E: ScrubEnvelope>(
    sim: &mut Sim<E>,
    registry: &Arc<SchemaRegistry>,
    config: ScrubConfig,
    central_dc: &str,
) -> NodeId {
    sim.add_node(
        NodeMeta::new("scrub-central", SCRUB_CENTRAL_SERVICE, central_dc),
        Box::new(CentralNode::<E>::new(config, registry.clone())),
    )
}

/// Add a ScrubCentral *cluster* of `n` nodes (the paper's deployment runs
/// a small cluster). Pair with [`deploy_server_clustered`].
pub fn deploy_central_cluster<E: ScrubEnvelope>(
    sim: &mut Sim<E>,
    registry: &Arc<SchemaRegistry>,
    config: ScrubConfig,
    central_dc: &str,
    n: usize,
) -> Vec<NodeId> {
    (0..n.max(1))
        .map(|i| {
            sim.add_node(
                NodeMeta::new(
                    format!("scrub-central-{i}"),
                    SCRUB_CENTRAL_SERVICE,
                    central_dc,
                ),
                Box::new(CentralNode::<E>::new(config.clone(), registry.clone())),
            )
        })
        .collect()
}

/// Add the query server. Call this *after* the application hosts exist —
/// it snapshots the host inventory for target resolution.
pub fn deploy_server<E: ScrubEnvelope>(
    sim: &mut Sim<E>,
    schema_registry: Arc<SchemaRegistry>,
    config: ScrubConfig,
    central: NodeId,
    server_dc: &str,
) -> ScrubDeployment {
    deploy_server_clustered(sim, schema_registry, config, vec![central], server_dc)
}

/// Add the query server over a ScrubCentral cluster. Call after the
/// application hosts exist.
pub fn deploy_server_clustered<E: ScrubEnvelope>(
    sim: &mut Sim<E>,
    schema_registry: Arc<SchemaRegistry>,
    config: ScrubConfig,
    centrals: Vec<NodeId>,
    server_dc: &str,
) -> ScrubDeployment {
    let inventory = inventory_from_sim(sim);
    let first_central = centrals[0];
    let mut node =
        QueryServerNode::<E>::with_centrals(schema_registry, config, centrals, inventory);
    node.set_meta_inventory(meta_inventory_from_sim(sim));
    let server = sim.add_node(
        NodeMeta::new("scrub-server", SCRUB_SERVER_SERVICE, server_dc),
        Box::new(node),
    );
    ScrubDeployment {
        server,
        central: first_central,
    }
}
