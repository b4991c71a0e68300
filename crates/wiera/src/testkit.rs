//! Cluster harness: one call to stand up the whole paper deployment —
//! fabric, coordination service, Wiera controller, and a Tiera server per
//! region — used by integration tests, examples, and the benchmark
//! harnesses that regenerate the paper's figures.

use crate::controller::{ControllerConfig, WieraController};
use crate::msg::DataMsg;
use crate::replica::ReplicaNode;
use crate::server::{CoordAccess, TieraServer};
use std::collections::HashMap;
use std::sync::Arc;
use wiera_coord::{CoordConfig, CoordMsg, CoordService};
use wiera_net::{Fabric, Mesh, NodeId, Region};
use wiera_sim::{ScaledClock, SharedClock};

/// A running multi-region cluster.
pub struct Cluster {
    pub fabric: Arc<Fabric>,
    pub clock: SharedClock,
    pub data_mesh: Arc<Mesh<DataMsg>>,
    pub coord_mesh: Arc<Mesh<CoordMsg>>,
    pub coord: Arc<CoordService>,
    pub controller: Arc<WieraController>,
    pub servers: HashMap<Region, Arc<TieraServer>>,
}

impl Cluster {
    /// Launch with defaults: controller + ZooKeeper stand-in in US-East
    /// (like the paper), one Tiera server per listed region.
    pub fn launch(regions: &[Region], time_scale: f64, seed: u64) -> Cluster {
        Self::launch_with(regions, time_scale, seed, ControllerConfig::default())
    }

    pub fn launch_with(
        regions: &[Region],
        time_scale: f64,
        seed: u64,
        controller_config: ControllerConfig,
    ) -> Cluster {
        Self::launch_full(
            regions,
            time_scale,
            seed,
            controller_config,
            CoordConfig::default(),
        )
    }

    /// Like [`Cluster::launch_with`] but with an explicit coordination
    /// config — e.g. a session timeout widened for heavily loaded hosts
    /// where heartbeat threads can stall for many wall milliseconds.
    pub fn launch_full(
        regions: &[Region],
        time_scale: f64,
        seed: u64,
        controller_config: ControllerConfig,
        coord_config: CoordConfig,
    ) -> Cluster {
        let fabric = Arc::new(Fabric::multicloud(seed));
        let clock: SharedClock = ScaledClock::shared(time_scale);
        let data_mesh = Mesh::new(fabric.clone(), clock.clone());
        let coord_mesh = Mesh::new(fabric.clone(), clock.clone());

        // Coordination service co-located with the controller (§5: "Zookeeper
        // is also running with Wiera on the same instance").
        let coord = CoordService::spawn(
            coord_mesh.clone(),
            NodeId::new(controller_config.region, "zk"),
            coord_config.clone(),
        )
        .unwrap_or_else(|e| panic!("coordination service spawn: {e}"));
        let controller = WieraController::launch(data_mesh.clone(), controller_config)
            .unwrap_or_else(|e| panic!("controller launch: {e}"));
        controller
            .register_canned_policies()
            .unwrap_or_else(|e| panic!("canned policies: {e}"));

        let coord_access = Arc::new(CoordAccess {
            mesh: coord_mesh.clone(),
            service: coord.node.clone(),
            config: coord_config,
        });
        let mut servers = HashMap::new();
        for &region in regions {
            let server = TieraServer::launch(
                data_mesh.clone(),
                region,
                controller.node.clone(),
                Some(coord_access.clone()),
            )
            .unwrap_or_else(|e| panic!("tiera server launch in {region}: {e}"));
            servers.insert(region, server);
        }
        Cluster {
            fabric,
            clock,
            data_mesh,
            coord_mesh,
            coord,
            controller,
            servers,
        }
    }

    /// In-process handle to a replica (white-box observability).
    pub fn replica(&self, name: &str) -> Option<Arc<ReplicaNode>> {
        for server in self.servers.values() {
            if let Some(r) = server.replica(name) {
                return Some(r);
            }
        }
        None
    }

    /// All replica handles of a deployment, looked up via the controller.
    pub fn deployment_replicas(&self, deployment_id: &str) -> Vec<Arc<ReplicaNode>> {
        let Some(nodes) = self.controller.get_instances(deployment_id) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for node in nodes {
            for server in self.servers.values() {
                for name in server.replica_names() {
                    if let Some(r) = server.replica(&name) {
                        if r.node == node {
                            out.push(r.clone());
                        }
                    }
                }
            }
        }
        out
    }

    pub fn shutdown(&self) {
        for server in self.servers.values() {
            server.stop();
        }
        self.controller.stop();
        self.coord.stop();
        self.data_mesh.shutdown();
        self.coord_mesh.shutdown();
    }

    /// Register a policy combining one of the canned consistency bodies
    /// (or any custom body) with an explicit region list — experiments
    /// often need the paper's policy shape over a different set of sites.
    /// Every region gets the figures' `LocalMemory 5G` / `LocalDisk 5G`
    /// stack.
    pub fn register_policy_over(
        &self,
        id: &str,
        regions: &[(&str, bool)],
        body: &str,
    ) -> Result<(), String> {
        let tiers = [("LocalMemory", "5G"), ("LocalDisk", "5G")];
        let src = wiera_policy::canned::policy_over(id, regions, &tiers, body);
        self.controller.register_policy(id, &src)
    }
}

/// Consistency-protocol bodies in the policy language, for use with
/// [`Cluster::register_policy_over`]: the insert rules of the paper's
/// figures, as written in [`wiera_policy::canned`].
pub mod bodies {
    use wiera_policy::canned;

    /// Fig. 3(a) without the region list.
    pub const MULTI_PRIMARIES: &str = canned::MULTI_PRIMARIES_BODY;

    /// Fig. 4 without the region list.
    pub const EVENTUAL: &str = canned::EVENTUAL_BODY;

    /// Fig. 3(b) without the region list (synchronous propagation).
    pub const PRIMARY_BACKUP_SYNC: &str = canned::PRIMARY_BACKUP_SYNC_BODY;

    /// Fig. 3(b) with `queue` propagation (the §5.2 configuration).
    pub const PRIMARY_BACKUP_ASYNC: &str = canned::PRIMARY_BACKUP_ASYNC_BODY;
}
