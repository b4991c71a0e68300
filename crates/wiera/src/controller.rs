//! The Wiera controller process: WUI + Global Policy Manager + Tiera Server
//! Manager (paper Fig. 2), co-located with the coordination service in
//! US-East exactly as the evaluation deploys it.

use crate::deployment::{DeploymentConfig, WieraDeployment};
use crate::fleet::copy_lacking;
use crate::msg::{ChangeRequest, DataMsg, FailCode, ReplicaSpec};
use crate::resolve_region;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use wiera_net::{Delivery, Mesh, NodeId, Region};
use wiera_policy::{compile, parse, CompiledPolicy, ConsistencyModel};
use wiera_sim::lockreg::{TrackedMutex, TrackedRwLock};
use wiera_sim::{MetricsRegistry, SimDuration, SimInstant, Tracer};

const CTRL_TIMEOUT: SimDuration = SimDuration::from_secs(120);

/// Controller tunables.
#[derive(Debug, Clone)]
pub struct ControllerConfig {
    /// Where the Wiera process runs (the paper: US-East).
    pub region: Region,
    /// TSM heartbeat period.
    pub heartbeat: SimDuration,
    /// A server missing heartbeats for this long is dead.
    pub server_timeout: SimDuration,
    /// Period of the replica-repair scan (§4.4). `None` disables it.
    pub repair_interval: Option<SimDuration>,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            region: Region::UsEast,
            heartbeat: SimDuration::from_secs(5),
            server_timeout: SimDuration::from_secs(15),
            repair_interval: None,
        }
    }
}

struct ServerInfo {
    node: NodeId,
    last_seen: SimInstant,
    alive: bool,
}

struct DeploymentEntry {
    deployment: Arc<WieraDeployment>,
    config: DeploymentConfig,
}

/// The running controller.
pub struct WieraController {
    pub node: NodeId,
    mesh: Arc<Mesh<DataMsg>>,
    config: ControllerConfig,
    /// GPM: registered policies by id.
    policies: TrackedRwLock<HashMap<String, CompiledPolicy>>,
    /// TSM: known Tiera servers by region.
    servers: TrackedMutex<HashMap<Region, ServerInfo>>,
    deployments: TrackedRwLock<HashMap<String, DeploymentEntry>>,
    stop: Arc<AtomicBool>,
}

impl WieraController {
    /// Start the controller: register on the mesh, start the handler and
    /// the TSM heartbeat/repair threads. Thread-spawn failures are returned
    /// instead of panicking so embedders can surface them.
    pub fn launch(mesh: Arc<Mesh<DataMsg>>, config: ControllerConfig) -> Result<Arc<Self>, String> {
        let node = NodeId::new(config.region, "wiera");
        let inbox = mesh.register(node.clone());
        let stop = Arc::new(AtomicBool::new(false));
        let ctrl = Arc::new(WieraController {
            node,
            mesh,
            config,
            policies: TrackedRwLock::new("ctrl.policies", HashMap::new()),
            servers: TrackedMutex::new("ctrl.servers", HashMap::new()),
            deployments: TrackedRwLock::new("ctrl.deployments", HashMap::new()),
            stop: stop.clone(),
        });

        {
            let c = ctrl.clone();
            std::thread::Builder::new()
                .name("wiera-controller".into())
                .spawn(move || {
                    while !c.stop.load(Ordering::Acquire) {
                        match inbox.recv_timeout(std::time::Duration::from_millis(50)) {
                            Ok(d) => c.handle(d),
                            Err(crossbeam::channel::RecvTimeoutError::Timeout) => continue,
                            Err(crossbeam::channel::RecvTimeoutError::Disconnected) => return,
                        }
                    }
                })
                .map_err(|e| format!("cannot spawn controller thread: {e}"))?;
        }
        {
            // TSM heartbeat thread: "periodically sends a ping message to
            // check on their health" (§4.1).
            let c = ctrl.clone();
            std::thread::Builder::new()
                .name("wiera-tsm-heartbeat".into())
                .spawn(move || {
                    while !c.stop.load(Ordering::Acquire) {
                        c.mesh.clock.sleep(c.config.heartbeat);
                        if c.stop.load(Ordering::Acquire) {
                            return;
                        }
                        c.heartbeat_servers();
                    }
                })
                .map_err(|e| format!("cannot spawn TSM heartbeat thread: {e}"))?;
        }
        if let Some(interval) = ctrl.config.repair_interval {
            let c = ctrl.clone();
            std::thread::Builder::new()
                .name("wiera-repair".into())
                .spawn(move || {
                    while !c.stop.load(Ordering::Acquire) {
                        c.mesh.clock.sleep(interval);
                        if c.stop.load(Ordering::Acquire) {
                            return;
                        }
                        c.repair_deployments();
                    }
                })
                .map_err(|e| format!("cannot spawn repair thread: {e}"))?;
        }
        Ok(ctrl)
    }

    pub fn stop(&self) {
        self.stop.store(true, Ordering::Release);
        self.mesh.unregister(&self.node);
    }

    // ---- GPM ---------------------------------------------------------------

    /// Register a policy by id from source text (GPM "creates a new policy
    /// with a policy id sent from the application").
    pub fn register_policy(&self, id: &str, source: &str) -> Result<(), String> {
        let spec = parse(source).map_err(|e| e.to_string())?;
        let compiled = compile(&spec).map_err(|e| e.to_string())?;
        self.policies.write().insert(id.to_string(), compiled);
        Ok(())
    }

    /// Register every canned paper policy under its id. The canned corpus
    /// is lint-gated in CI, so a rejection here means a build skew between
    /// wiera-policy and this crate — reported, not panicked.
    pub fn register_canned_policies(&self) -> Result<(), String> {
        for (id, _, src) in wiera_policy::canned::ALL {
            self.register_policy(id, src)
                .map_err(|e| format!("canned policy '{id}' rejected: {e}"))?;
        }
        Ok(())
    }

    pub fn policy(&self, id: &str) -> Option<CompiledPolicy> {
        self.policies.read().get(id).cloned()
    }

    // ---- TSM ---------------------------------------------------------------

    fn server_for(&self, region: Region) -> Option<NodeId> {
        self.servers
            .lock()
            .get(&region)
            .filter(|s| s.alive)
            .map(|s| s.node.clone())
    }

    fn alive_spare_server(&self, used: &[Region]) -> Option<NodeId> {
        // Deterministic choice: lowest region index among live servers not
        // already hosting (or having hosted) a replica of the deployment.
        self.servers
            .lock()
            .values()
            .filter(|s| s.alive && !used.contains(&s.node.region))
            .min_by_key(|s| s.node.region.index())
            .map(|s| s.node.clone())
    }

    fn heartbeat_servers(&self) {
        let targets: Vec<NodeId> = self
            .servers
            .lock()
            .values()
            .map(|s| s.node.clone())
            .collect();
        for t in targets {
            let ok = self
                .mesh
                .rpc(
                    &self.node,
                    &t,
                    DataMsg::Ping,
                    64,
                    SimDuration::from_secs(10),
                )
                .is_ok_and(|r| matches!(r.msg, DataMsg::Pong));
            let now = self.mesh.clock.now();
            let mut servers = self.servers.lock();
            if let Some(info) = servers.get_mut(&t.region) {
                if ok {
                    info.last_seen = now;
                    info.alive = true;
                } else if now.elapsed_since(info.last_seen) > self.config.server_timeout {
                    info.alive = false;
                }
            }
        }
    }

    // ---- WUI (Table 1) -----------------------------------------------------

    /// `startInstances(wiera_instance_id, policy)`: launch Tiera instances
    /// in every region the policy names, wire them together, and return the
    /// deployment handle.
    pub fn start_instances(
        self: &Arc<Self>,
        instance_id: &str,
        policy_id: &str,
        config: DeploymentConfig,
    ) -> Result<Arc<WieraDeployment>, String> {
        let policy = self
            .policy(policy_id)
            .ok_or_else(|| format!("unknown policy '{policy_id}'"))?;
        if self.deployments.read().contains_key(instance_id) {
            return Err(format!("instance id '{instance_id}' already running"));
        }
        let consistency = WieraDeployment::policy_consistency(&policy);
        let needs_coord = matches!(consistency, ConsistencyModel::MultiPrimaries)
            || config.monitors.latency.is_some();

        let mut replicas: Vec<NodeId> = Vec::new();
        let mut primary: Option<NodeId> = None;
        let mut template: Option<ReplicaSpec> = None;

        for region_layout in &policy.regions {
            let region = resolve_region(&region_layout.region_name)
                .ok_or_else(|| format!("unknown region '{}'", region_layout.region_name))?;
            let server = self
                .server_for(region)
                .ok_or_else(|| format!("no live Tiera server in {region}"))?;
            let spec = ReplicaSpec {
                deployment: instance_id.to_string(),
                name: region_layout.label.clone(),
                consistency,
                flush_ms: config.flush_ms,
                tiers: region_layout.instance.tiers.clone(),
                rules: policy.rules.clone(),
                max_versions: config.max_versions,
                monitors: config.monitors.clone(),
                needs_coord,
                shard_group: config.shard_group,
                service_time_ms: config.service_time_ms,
                overload: config.overload,
            };
            if template.is_none() {
                template = Some(spec.clone());
            }
            let msg = DataMsg::SpawnReplica { spec };
            let bytes = msg.wire_bytes();
            let reply = self
                .mesh
                .rpc(&self.node, &server, msg, bytes, CTRL_TIMEOUT)
                .map_err(|e| format!("spawn rpc: {e}"))?;
            match reply.msg {
                DataMsg::Spawned { node } => {
                    if region_layout.primary {
                        primary = Some(node.clone());
                    }
                    replicas.push(node);
                }
                DataMsg::Fail { why, .. } => return Err(format!("spawn failed: {why}")),
                other => return Err(format!("bad spawn reply {other:?}")),
            }
        }
        if replicas.is_empty() {
            return Err("policy declares no regions".into());
        }
        // Primary-backup without an explicit primary: first region.
        if primary.is_none() && matches!(consistency, ConsistencyModel::PrimaryBackup { .. }) {
            primary = replicas.first().cloned();
        }

        let deployment = WieraDeployment::new(
            instance_id.to_string(),
            self.mesh.clone(),
            self.node.clone(),
            replicas,
            primary,
            consistency,
            match template {
                Some(t) => t,
                None => return Err("policy declares no regions".into()),
            },
        );
        // §4.1 step 6: propagate membership to all instances.
        deployment.push_membership();
        self.deployments.write().insert(
            instance_id.to_string(),
            DeploymentEntry {
                deployment: deployment.clone(),
                config,
            },
        );
        Ok(deployment)
    }

    /// `stopInstances(wiera_instance_id)`.
    pub fn stop_instances(&self, instance_id: &str) -> Result<(), String> {
        let entry = self
            .deployments
            .write()
            .remove(instance_id)
            .ok_or_else(|| format!("unknown instance id '{instance_id}'"))?;
        entry.deployment.stop_all();
        Ok(())
    }

    /// `getInstances(wiera_instance_id)`: the instance list, which §4.1
    /// step 8 says applications use to pick the closest one.
    pub fn get_instances(&self, instance_id: &str) -> Option<Vec<NodeId>> {
        self.deployments
            .read()
            .get(instance_id)
            .map(|e| e.deployment.replicas())
    }

    pub fn deployment(&self, instance_id: &str) -> Option<Arc<WieraDeployment>> {
        self.deployments
            .read()
            .get(instance_id)
            .map(|e| e.deployment.clone())
    }

    // ---- message handling ----------------------------------------------------

    fn handle(self: &Arc<Self>, d: Delivery<DataMsg>) {
        match d.msg {
            DataMsg::ServerHello { region } => {
                let now = self.mesh.clock.now();
                self.servers.lock().insert(
                    region,
                    ServerInfo {
                        node: d.from.clone(),
                        last_seen: now,
                        alive: true,
                    },
                );
                if let Some(slot) = d.reply {
                    slot.reply(DataMsg::Ok, SimDuration::from_micros(300), 64);
                }
            }
            DataMsg::RequestChange { deployment, change } => {
                // Monitor escalation: apply on a worker so the controller
                // keeps serving heartbeats during the (blocking) switch. The
                // reply slot lives in a shared cell so a failed spawn can
                // still answer the RPC with a Fail instead of timing out.
                let c = self.clone();
                let slot_cell = Arc::new(Mutex::new(d.reply));
                let worker_cell = slot_cell.clone();
                let spawned = std::thread::Builder::new()
                    .name("wiera-change".into())
                    .spawn(move || {
                        let applied = c.apply_change(&deployment, change);
                        if let Some(slot) = worker_cell.lock().take() {
                            let msg = if applied {
                                DataMsg::Ok
                            } else {
                                DataMsg::Fail {
                                    code: FailCode::Internal,
                                    why: "change not applied".into(),
                                }
                            };
                            let bytes = msg.wire_bytes();
                            slot.reply(msg, SimDuration::from_millis(1), bytes);
                        }
                    });
                if let Err(e) = spawned {
                    MetricsRegistry::global().inc("controller_worker_spawn_errors", &[]);
                    if let Some(slot) = slot_cell.lock().take() {
                        let msg = DataMsg::Fail {
                            code: FailCode::Internal,
                            why: format!("cannot spawn change worker: {e}"),
                        };
                        let bytes = msg.wire_bytes();
                        slot.reply(msg, SimDuration::from_millis(1), bytes);
                    }
                }
            }
            DataMsg::Ping => {
                if let Some(slot) = d.reply {
                    slot.reply(DataMsg::Pong, SimDuration::from_micros(100), 64);
                }
            }
            other => {
                if let Some(slot) = d.reply {
                    let msg = DataMsg::Fail {
                        code: FailCode::Internal,
                        why: format!("controller got {other:?}"),
                    };
                    let bytes = msg.wire_bytes();
                    slot.reply(msg, SimDuration::ZERO, bytes);
                }
            }
        }
    }

    fn apply_change(&self, deployment_id: &str, change: ChangeRequest) -> bool {
        let Some(dep) = self.deployment(deployment_id) else {
            return false;
        };
        match change {
            ChangeRequest::Consistency(to) => {
                if dep.consistency() == to {
                    return false;
                }
                MetricsRegistry::global()
                    .inc("controller_change_requests", &[("kind", "consistency")]);
                dep.change_consistency(to);
                true
            }
            ChangeRequest::Primary(node) => {
                if dep.primary().as_ref() == Some(&node) {
                    return false;
                }
                MetricsRegistry::global().inc("controller_change_requests", &[("kind", "primary")]);
                Tracer::global().point(
                    self.mesh.clock.now(),
                    "wiera",
                    "change_primary",
                    Some(format!("{deployment_id} -> {}", node.name)),
                );
                dep.change_primary(node);
                true
            }
        }
    }

    // ---- repair (§4.4) -------------------------------------------------------

    fn repair_deployments(self: &Arc<Self>) {
        let deployments: Vec<(Arc<WieraDeployment>, DeploymentConfig)> = self
            .deployments
            .read()
            .values()
            .map(|e| (e.deployment.clone(), e.config.clone()))
            .collect();
        for (dep, cfg) in deployments {
            let Some(min) = cfg.min_replicas else {
                continue;
            };
            let replicas = dep.replicas();
            let mut alive = Vec::new();
            let mut dead = Vec::new();
            for r in &replicas {
                let ok = self
                    .mesh
                    .rpc(&self.node, r, DataMsg::Ping, 64, SimDuration::from_secs(10))
                    .is_ok_and(|r| matches!(r.msg, DataMsg::Pong));
                if ok {
                    alive.push(r.clone());
                } else {
                    dead.push(r.clone());
                }
            }
            if alive.len() >= min || dead.is_empty() {
                continue;
            }
            let Some(donor) = alive.first().cloned() else {
                continue;
            };
            // Avoid both the surviving replicas' regions and the crashed
            // ones (the dead instance's region may be the failure domain).
            let used: Vec<Region> = replicas.iter().map(|r| r.region).collect();
            let Some(spare) = self.alive_spare_server(&used) else {
                continue;
            };

            // Spawn a fresh replica on the spare server.
            let mut spec = dep.spec_template.clone();
            spec.name = format!("repair-{}", dep.epoch());
            let msg = DataMsg::SpawnReplica { spec };
            let bytes = msg.wire_bytes();
            let Ok(reply) = self.mesh.rpc(&self.node, &spare, msg, bytes, CTRL_TIMEOUT) else {
                continue;
            };
            let DataMsg::Spawned { node: fresh } = reply.msg else {
                continue;
            };

            // Clone a live donor into the fresh replica with the fleet's
            // copy step: all the donor holds is what an empty replica lacks.
            let target = (&fresh, std::slice::from_ref(&fresh));
            let _ = copy_lacking(&self.mesh, &self.node, &[donor], target, None, &dep.id);
            for d in dead {
                dep.replace_replica(&d, fresh.clone());
            }
        }
    }
}
