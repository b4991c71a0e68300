//! A launched Wiera instance: the Tiera Instance Manager's view of one
//! deployment spanning several replicas.
//!
//! The deployment executes the global control operations: installing peer
//! lists (§4.1 step 6), run-time consistency switches (§3.3.2) and primary
//! migration (Fig. 5(b)) — all over the wire, since the controller never
//! touches the data path.

use crate::client::WieraClient;
use crate::msg::{DataMsg, DetectorSpec, LatencySpec, MonitorSpec, ReplicaSpec, RequestsSpec};
use crate::replica::{app_rpc, AppError, OpView};
use bytes::Bytes;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use wiera_net::{Mesh, NodeId, Region};
use wiera_policy::{CompiledPolicy, ConsistencyModel};
use wiera_sim::lockreg::{TrackedMutex, TrackedRwLock};
use wiera_sim::SimDuration;

const CTRL_TIMEOUT: SimDuration = SimDuration::from_secs(120);

/// Options governing how a policy becomes a running deployment.
#[derive(Debug, Clone)]
pub struct DeploymentConfig {
    /// Queue distribution period (ms) for asynchronous propagation.
    pub flush_ms: f64,
    /// Monitor threads to run on each replica.
    pub monitors: MonitorSpec,
    pub max_versions: Option<usize>,
    /// Keep at least this many live replicas (§4.4 repair). `None` disables
    /// automatic repair.
    pub min_replicas: Option<usize>,
    /// Fleet shard group this deployment serves, if it is one group of a
    /// sharded fleet ([`crate::fleet::WieraFleet`] sets this per group).
    pub shard_group: Option<u32>,
    /// Modeled per-op service time at each replica, ms. See
    /// [`ReplicaSpec::service_time_ms`].
    pub service_time_ms: Option<f64>,
    /// CoDel-style load shedding over each replica's admission queue. See
    /// [`ReplicaSpec::overload`]; `None` (the default) never sheds.
    pub overload: Option<crate::msg::OverloadSpec>,
}

impl Default for DeploymentConfig {
    fn default() -> Self {
        DeploymentConfig {
            flush_ms: 500.0,
            monitors: MonitorSpec::default(),
            max_versions: None,
            min_replicas: None,
            shard_group: None,
            service_time_ms: None,
            overload: None,
        }
    }
}

impl DeploymentConfig {
    /// The paper's Fig. 5(a) dynamic-consistency monitor: 800 ms / 30 s.
    pub fn with_dynamic_consistency(mut self, threshold_ms: f64, period_ms: f64) -> Self {
        self.monitors.latency = Some(LatencySpec {
            threshold_ms,
            period_ms,
            check_every_ms: (period_ms / 10.0).max(500.0),
            weak: ConsistencyModel::Eventual,
            strong: ConsistencyModel::MultiPrimaries,
        });
        self
    }

    /// The paper's Fig. 5(b) change-primary monitor.
    pub fn with_change_primary(mut self, window_ms: f64, check_every_ms: f64) -> Self {
        self.monitors.requests = Some(RequestsSpec {
            window_ms,
            check_every_ms,
        });
        self
    }

    /// Failure detection + automatic failover (§4.4): each backup watches
    /// the primary's coord lease and probes it through the fabric; after
    /// `suspect_after_ms` of combined silence the backups race the election
    /// lock and the winner takes over at a bumped epoch.
    pub fn with_failure_detection(mut self, check_every_ms: f64, suspect_after_ms: f64) -> Self {
        self.monitors.detector = Some(DetectorSpec {
            check_every_ms,
            suspect_after_ms,
        });
        self
    }
}

/// Handle to a running deployment.
pub struct WieraDeployment {
    pub id: String,
    mesh: Arc<Mesh<DataMsg>>,
    /// The controller's address, used as the from-node of control RPCs.
    from: NodeId,
    replicas: TrackedRwLock<Vec<NodeId>>,
    primary: TrackedRwLock<Option<NodeId>>,
    consistency: TrackedRwLock<ConsistencyModel>,
    epoch: AtomicU64,
    /// Per-origin client handles for `put_from`/`get_from`, so both paths
    /// share the client layer's closest-first failover policy. Refreshed on
    /// membership changes.
    clients: TrackedMutex<HashMap<NodeId, Arc<WieraClient>>>,
    /// The spec each replica was spawned with (for repair re-spawns).
    pub(crate) spec_template: ReplicaSpec,
}

impl WieraDeployment {
    pub(crate) fn new(
        id: String,
        mesh: Arc<Mesh<DataMsg>>,
        from: NodeId,
        replicas: Vec<NodeId>,
        primary: Option<NodeId>,
        consistency: ConsistencyModel,
        spec_template: ReplicaSpec,
    ) -> Arc<Self> {
        Arc::new(WieraDeployment {
            id,
            mesh,
            from,
            replicas: TrackedRwLock::new("dep.replicas", replicas),
            primary: TrackedRwLock::new("dep.primary", primary),
            consistency: TrackedRwLock::new("dep.consistency", consistency),
            epoch: AtomicU64::new(1),
            clients: TrackedMutex::new("dep.clients", HashMap::new()),
            spec_template,
        })
    }

    pub fn replicas(&self) -> Vec<NodeId> {
        self.replicas.read().clone()
    }

    pub fn primary(&self) -> Option<NodeId> {
        self.primary.read().clone()
    }

    pub fn consistency(&self) -> ConsistencyModel {
        *self.consistency.read()
    }

    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// The replica in (or closest to) `region`, by base RTT.
    pub fn replica_in(&self, region: Region) -> Option<NodeId> {
        let reps = self.replicas.read();
        reps.iter()
            .min_by(|a, b| {
                let ra = self.mesh.fabric.base_rtt_ms(region, a.region);
                let rb = self.mesh.fabric.base_rtt_ms(region, b.region);
                ra.total_cmp(&rb)
            })
            .cloned()
    }

    fn broadcast_control(&self, make: impl Fn(u64) -> DataMsg + Send + Sync) -> u64 {
        let epoch = self.epoch.fetch_add(1, Ordering::SeqCst) + 1;
        let reps = self.replicas();
        std::thread::scope(|s| {
            for rep in &reps {
                let msg = make(epoch);
                let from = self.from.clone();
                let mesh = &self.mesh;
                s.spawn(move || {
                    let bytes = msg.wire_bytes();
                    let _ = mesh.rpc(&from, rep, msg, bytes, CTRL_TIMEOUT);
                });
            }
        });
        epoch
    }

    /// Install the current membership on every replica, and refresh any
    /// cached per-origin clients so they fail over across the new list.
    pub fn push_membership(&self) {
        let reps = self.replicas();
        let primary = self.primary();
        self.broadcast_control(|epoch| DataMsg::SetPeers {
            peers: reps.clone(),
            primary: primary.clone(),
            epoch,
        });
        for client in self.clients.lock().values() {
            client.update_replicas(reps.clone());
        }
    }

    /// Switch the whole deployment's consistency model (§3.3.2): every
    /// replica drains, blocks, swaps, unblocks.
    pub fn change_consistency(&self, to: ConsistencyModel) {
        if *self.consistency.read() == to {
            return;
        }
        self.broadcast_control(|epoch| DataMsg::ChangeConsistency { to, epoch });
        *self.consistency.write() = to;
    }

    /// Move the primary (Fig. 5(b)).
    pub fn change_primary(&self, new_primary: NodeId) {
        if self.primary().as_ref() == Some(&new_primary) {
            return;
        }
        let np = new_primary.clone();
        self.broadcast_control(|epoch| DataMsg::ChangePrimary {
            new_primary: np.clone(),
            epoch,
        });
        *self.primary.write() = Some(new_primary);
    }

    /// Replace a dead replica in the membership (repair, §4.4).
    pub(crate) fn replace_replica(&self, dead: &NodeId, fresh: NodeId) {
        {
            let mut reps = self.replicas.write();
            reps.retain(|r| r != dead);
            reps.push(fresh.clone());
        }
        {
            let mut p = self.primary.write();
            if p.as_ref() == Some(dead) {
                *p = Some(fresh);
            }
        }
        self.push_membership();
    }

    /// Application operations through the deployment, addressed to a chosen
    /// replica (the client layer adds closest-first routing + failover).
    pub fn op(&self, from: &NodeId, to: &NodeId, msg: DataMsg) -> Result<OpView, AppError> {
        app_rpc(&self.mesh, from, to, msg)
    }

    /// The cached client acting on behalf of `from`: closest-first routing
    /// plus failover, identical to what an external application would get.
    fn client_for(&self, from: &NodeId) -> Arc<WieraClient> {
        let mut clients = self.clients.lock();
        clients
            .entry(from.clone())
            .or_insert_with(|| {
                WieraClient::builder(self.mesh.clone(), from.region, from.name.to_string())
                    .replicas(self.replicas())
                    .build()
            })
            .clone()
    }

    /// Convenience: put via the replica closest to `from`.
    pub fn put_from(&self, from: &NodeId, key: &str, value: Bytes) -> Result<OpView, AppError> {
        self.client_for(from).put(key, value)
    }

    /// Convenience: get via the replica closest to `from`.
    pub fn get_from(&self, from: &NodeId, key: &str) -> Result<OpView, AppError> {
        self.client_for(from).get(key)
    }

    /// Ask each replica to stop. Two passes: first every replica flushes its
    /// pending eventual-mode queue (while all its peers are still alive to
    /// receive the batches), then every replica stops. A single
    /// flush-as-you-stop pass would make the last replica flush into
    /// already-stopped peers and silently drop queued updates.
    pub fn stop_all(&self) {
        for rep in self.replicas() {
            let _ = self
                .mesh
                .rpc(&self.from, &rep, DataMsg::FlushQueue, 64, CTRL_TIMEOUT);
        }
        for rep in self.replicas() {
            let _ = self
                .mesh
                .rpc(&self.from, &rep, DataMsg::Stop, 64, CTRL_TIMEOUT);
        }
    }

    /// Compiled-policy helper: the consistency the policy's insert rule
    /// encodes; eventual only for a policy with no insert rule (WP018).
    pub fn policy_consistency(policy: &CompiledPolicy) -> ConsistencyModel {
        policy.consistency.unwrap_or(ConsistencyModel::Eventual)
    }
}
