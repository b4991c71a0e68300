//! The Tiera server: one per region, spawning instances on TSM request.
//!
//! §4.1: "whenever a Tiera server launches, it connects to the Tiera Server
//! Manager first to let Wiera know that it is ready to spawn instances",
//! then spawns instances (which "run within the Tiera server process") as
//! deployment requests arrive.

use crate::detector::FailureDetector;
use crate::monitor::{LatencyMonitor, MonitorHandle, RequestsMonitor};
use crate::msg::{DataMsg, FailCode, ReplicaSpec};
use crate::replica::{ReplicaConfig, ReplicaNode};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use tiera::engine::InstanceEngine;
use tiera::InstanceConfig;
use wiera_coord::{CoordClient, CoordConfig, CoordMsg};
use wiera_net::{Delivery, Mesh, NodeId, Region};
use wiera_sim::lockreg::TrackedMutex;
use wiera_sim::SimDuration;

/// Everything a server needs to reach the coordination service on behalf of
/// the replicas it spawns.
pub struct CoordAccess {
    pub mesh: Arc<Mesh<CoordMsg>>,
    pub service: NodeId,
    pub config: CoordConfig,
}

struct ReplicaHolder {
    replica: Arc<ReplicaNode>,
    _engine: InstanceEngine,
    _monitors: Vec<MonitorHandle>,
}

/// A running Tiera server.
pub struct TieraServer {
    pub node: NodeId,
    pub region: Region,
    mesh: Arc<Mesh<DataMsg>>,
    controller: NodeId,
    coord: Option<Arc<CoordAccess>>,
    replicas: TrackedMutex<HashMap<String, ReplicaHolder>>,
    stop: Arc<AtomicBool>,
}

impl TieraServer {
    /// Launch the server: register on the mesh, announce to the TSM, and
    /// start serving spawn requests.
    pub fn launch(
        mesh: Arc<Mesh<DataMsg>>,
        region: Region,
        controller: NodeId,
        coord: Option<Arc<CoordAccess>>,
    ) -> Result<Arc<Self>, String> {
        let node = NodeId::new(
            region,
            format!("tiera-server-{}", region.name().to_lowercase()),
        );
        let inbox = mesh.register(node.clone());
        let stop = Arc::new(AtomicBool::new(false));
        let server = Arc::new(TieraServer {
            node: node.clone(),
            region,
            mesh: mesh.clone(),
            controller: controller.clone(),
            coord,
            replicas: TrackedMutex::new("server.replicas", HashMap::new()),
            stop: stop.clone(),
        });

        // Announce to the TSM (§4.1 step 0).
        let hello = DataMsg::ServerHello { region };
        let bytes = hello.wire_bytes();
        let _ = mesh.rpc(&node, &controller, hello, bytes, SimDuration::from_secs(30));

        {
            let server = server.clone();
            std::thread::Builder::new()
                .name(format!("tiera-server-{region}"))
                .spawn(move || {
                    while !server.stop.load(Ordering::Acquire) {
                        match inbox.recv_timeout(std::time::Duration::from_millis(50)) {
                            Ok(d) => server.handle(d),
                            Err(crossbeam::channel::RecvTimeoutError::Timeout) => continue,
                            Err(crossbeam::channel::RecvTimeoutError::Disconnected) => return,
                        }
                    }
                })
                .map_err(|e| format!("cannot spawn tiera server thread: {e}"))?;
        }
        Ok(server)
    }

    pub fn stop(&self) {
        // A replica's stop waits for its flush's acks: not under the lock.
        let holders: Vec<ReplicaHolder> = self.replicas.lock().drain().map(|(_, h)| h).collect();
        for h in holders {
            h.replica.stop();
        }
        self.stop.store(true, Ordering::Release);
        self.mesh.unregister(&self.node);
    }

    /// In-process handle to a replica this server spawned (white-box
    /// observability for tests and benchmark harnesses; the control plane
    /// itself only uses the wire).
    pub fn replica(&self, name: &str) -> Option<Arc<ReplicaNode>> {
        self.replicas.lock().get(name).map(|h| h.replica.clone())
    }

    pub fn replica_names(&self) -> Vec<String> {
        self.replicas.lock().keys().cloned().collect()
    }

    fn handle(self: &Arc<Self>, d: Delivery<DataMsg>) {
        match d.msg {
            DataMsg::SpawnReplica { spec } => {
                let result = self.spawn_replica(&spec);
                if let Some(slot) = d.reply {
                    let msg = match result {
                        Ok(node) => DataMsg::Spawned { node },
                        Err(why) => DataMsg::Fail {
                            code: FailCode::Internal,
                            why,
                        },
                    };
                    let bytes = msg.wire_bytes();
                    // Spawning a VM-resident process takes a moment.
                    slot.reply(msg, SimDuration::from_millis(50), bytes);
                }
            }
            DataMsg::StopReplica { node } => {
                let holder = {
                    let mut reps = self.replicas.lock();
                    let key = reps
                        .iter()
                        .find(|(_, h)| h.replica.node == node)
                        .map(|(k, _)| k.clone());
                    key.and_then(|k| reps.remove(&k))
                };
                if let Some(h) = holder {
                    h.replica.stop();
                }
                if let Some(slot) = d.reply {
                    slot.reply(DataMsg::Ok, SimDuration::from_millis(1), 64);
                }
            }
            DataMsg::Ping => {
                if let Some(slot) = d.reply {
                    slot.reply(DataMsg::Pong, SimDuration::from_micros(100), 64);
                }
            }
            DataMsg::Stop => {
                if let Some(slot) = d.reply {
                    slot.reply(DataMsg::Ok, SimDuration::ZERO, 64);
                }
                self.stop();
            }
            other => {
                if let Some(slot) = d.reply {
                    let msg = DataMsg::Fail {
                        code: FailCode::Internal,
                        why: format!("server got {other:?}"),
                    };
                    let bytes = msg.wire_bytes();
                    slot.reply(msg, SimDuration::ZERO, bytes);
                }
            }
        }
    }

    /// §4.1 steps 4–5: spawn the instance, wire it to the coordination
    /// service if the policy needs global locks, start its background
    /// policy engine and monitor threads.
    fn spawn_replica(self: &Arc<Self>, spec: &ReplicaSpec) -> Result<NodeId, String> {
        let node = NodeId::new(self.region, format!("{}/{}", spec.deployment, spec.name));
        // Instances run within the server process (§4.1); keys are scoped by
        // deployment so several Wiera instances can share one server.
        let key = format!("{}/{}", spec.deployment, spec.name);
        if self.replicas.lock().contains_key(&key) {
            return Err(format!("replica '{key}' already running on this server"));
        }

        let mut icfg = InstanceConfig::new(spec.name.clone(), self.region)
            .with_rules(spec.rules.clone())
            .with_sleep(true, false);
        for t in &spec.tiers {
            icfg = icfg.with_tier(&t.label, &t.kind_name, t.size_bytes);
        }
        if let Some(n) = spec.max_versions {
            icfg = icfg.with_max_versions(n);
        }

        // The coord session backs both the multi-primaries lock path and the
        // failure lifecycle (lease znode + election lock), so a detector
        // also needs one.
        let coord_client = if spec.needs_coord || spec.monitors.detector.is_some() {
            let access = self
                .coord
                .as_ref()
                .ok_or("no coordination service configured")?;
            let me = NodeId::new(self.region, format!("{}/coord", node.name));
            Some(
                CoordClient::connect(
                    access.mesh.clone(),
                    me,
                    access.service.clone(),
                    &access.config,
                )
                .map_err(|e| format!("coord connect: {e}"))?,
            )
        } else {
            None
        };

        let replica = ReplicaNode::spawn(
            self.mesh.clone(),
            ReplicaConfig {
                node: node.clone(),
                instance: icfg,
                consistency: spec.consistency,
                flush_interval: SimDuration::from_millis_f64(spec.flush_ms),
                coord: coord_client,
                forward_gets_to: None,
                shard_group: spec.shard_group,
                service_time: spec.service_time_ms.map(SimDuration::from_millis_f64),
                overload: spec.overload.map(|o| crate::replica::OverloadConfig {
                    target_delay: SimDuration::from_millis_f64(o.target_delay_ms),
                    interval: SimDuration::from_millis_f64(o.interval_ms),
                }),
            },
        )
        .map_err(|e| format!("replica spawn: {e}"))?;
        let engine = InstanceEngine::start(replica.instance().clone())
            .map_err(|e| format!("instance engine: {e}"))?;

        let mut monitors = Vec::new();
        let coord_region = self
            .coord
            .as_ref()
            .map(|c| c.service.region)
            .unwrap_or(Region::UsEast);
        if let Some(lat) = &spec.monitors.latency {
            monitors.push(
                LatencyMonitor::start(
                    replica.clone(),
                    lat.clone(),
                    self.controller.clone(),
                    spec.deployment.clone(),
                    self.mesh.clone(),
                    coord_region,
                )
                .map_err(|e| format!("latency monitor: {e}"))?,
            );
        }
        if let Some(req) = &spec.monitors.requests {
            monitors.push(
                RequestsMonitor::start(
                    replica.clone(),
                    req.clone(),
                    self.controller.clone(),
                    spec.deployment.clone(),
                    self.mesh.clone(),
                )
                .map_err(|e| format!("requests monitor: {e}"))?,
            );
        }
        if let Some(det) = &spec.monitors.detector {
            monitors.push(
                FailureDetector::start(replica.clone(), det.clone())
                    .map_err(|e| format!("failure detector: {e}"))?,
            );
        }

        self.replicas.lock().insert(
            key,
            ReplicaHolder {
                replica,
                _engine: engine,
                _monitors: monitors,
            },
        );
        Ok(node)
    }
}
