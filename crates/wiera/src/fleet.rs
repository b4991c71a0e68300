//! Fleet sharding: many replica groups behind one consistent-hash map.
//!
//! One Wiera deployment replicates every object to all of its replicas,
//! which caps aggregate throughput at a single group's write path. A
//! *fleet* launches many deployments (groups) and partitions the keyspace
//! over them with a [`ShardMap`]: keys hash onto a fixed ring, ring arcs
//! belong to shards, and each shard is owned by exactly one group. Three
//! parties share the map:
//!
//! * the **fleet manager** ([`WieraFleet`]) owns the authoritative copy
//!   and is the only writer — every ownership change goes through
//!   [`WieraFleet::move_shard`], which bumps the map version;
//! * every **replica** holds its group's slice (installed over the wire
//!   with `SetShards`) and refuses operations on keys it does not own
//!   (`WrongShard`), so a stale route is an error, never a silent
//!   misplacement;
//! * every **client** routes through a [`FleetView`], re-reading it on a
//!   `WrongShard` redirect.
//!
//! The move handoff is copy → flip → delta → install → verify → retire:
//! after the source group is flipped to the bumped map version it refuses
//! new writes for the shard, so every *acked* write is present in the
//! delta copy; the target refuses too until its own install, and clients
//! simply retry through the window. Only after the target passes a
//! digest verification does the source retire (delete) the shard.
//!
//! Every copy in the handoff — bulk, delta, verify — and the controller's
//! repair clone is one [`copy_lacking`] step: anti-entropy's digest rule
//! picks what the target lacks and a `Replicate` applies it.

use crate::controller::WieraController;
use crate::deployment::{DeploymentConfig, WieraDeployment};
use crate::msg::{lacking, DataMsg, KeyDigest};
use parking_lot::RwLock;
use std::sync::Arc;
use wiera_coord::ShardMap;
use wiera_net::{Mesh, NodeId};
use wiera_sim::{MetricsRegistry, SimDuration, Tracer};

const CTRL_TIMEOUT: SimDuration = SimDuration::from_secs(120);

/// How a fleet is laid out: the shard ring and the per-group deployment
/// template. Every group runs the same policy and deployment config — the
/// fleet scales by adding groups, not by specializing them.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Policy id (registered with the controller) every group runs.
    pub policy_id: String,
    /// Number of shards on the ring. Fixed for the fleet's lifetime;
    /// rebalancing moves shards, it never re-hashes keys.
    pub shards: u32,
    /// Virtual nodes per shard (smooths arc lengths).
    pub vnodes: u32,
    /// Initial number of replica groups.
    pub groups: u32,
    /// Deployment template; `shard_group` is overwritten per group.
    pub deployment: DeploymentConfig,
}

impl FleetConfig {
    pub fn new(policy_id: impl Into<String>) -> FleetConfig {
        FleetConfig {
            policy_id: policy_id.into(),
            shards: 64,
            vnodes: 8,
            groups: 1,
            deployment: DeploymentConfig::default(),
        }
    }

    pub fn with_groups(mut self, groups: u32) -> Self {
        self.groups = groups;
        self
    }

    pub fn with_shards(mut self, shards: u32, vnodes: u32) -> Self {
        self.shards = shards;
        self.vnodes = vnodes;
        self
    }

    pub fn with_deployment(mut self, deployment: DeploymentConfig) -> Self {
        self.deployment = deployment;
        self
    }
}

/// The client-facing routing state: the current shard map plus every
/// group's replica list. Shared behind an `Arc` between the fleet manager
/// (the writer) and all clients (readers) — installing a new map here is
/// what re-routes clients after a move.
pub struct FleetView {
    map: RwLock<Arc<ShardMap>>,
    groups: RwLock<Vec<Vec<NodeId>>>,
}

impl FleetView {
    pub fn new(map: ShardMap, groups: Vec<Vec<NodeId>>) -> Arc<FleetView> {
        Arc::new(FleetView {
            map: RwLock::new(Arc::new(map)),
            groups: RwLock::new(groups),
        })
    }

    /// The degenerate pre-fleet view: one group, one shard, every key
    /// routes to `replicas`. What a builder given `.replicas(..)` builds.
    pub fn single_group(replicas: Vec<NodeId>) -> Arc<FleetView> {
        FleetView::new(ShardMap::single(), vec![replicas])
    }

    /// The current map (cheap: an `Arc` clone).
    pub fn map(&self) -> Arc<ShardMap> {
        self.map.read().clone()
    }

    /// Install a newer map. Version-guarded like every other map holder:
    /// an older or equal version is ignored, so a racing stale writer can
    /// never regress routing. Returns whether the map was adopted.
    pub fn install(&self, map: ShardMap) -> bool {
        let mut slot = self.map.write();
        if map.version() <= slot.version() {
            return false;
        }
        *slot = Arc::new(map);
        true
    }

    /// Replace one group's replica list (membership change, repair).
    pub fn set_group(&self, group: u32, replicas: Vec<NodeId>) {
        let mut groups = self.groups.write();
        let idx = group as usize;
        if groups.len() <= idx {
            groups.resize_with(idx + 1, Vec::new);
        }
        groups[idx] = replicas;
    }

    pub fn group_replicas(&self, group: u32) -> Vec<NodeId> {
        self.groups
            .read()
            .get(group as usize)
            .cloned()
            .unwrap_or_default()
    }

    /// Every replica of every group (no particular order).
    pub fn all_replicas(&self) -> Vec<NodeId> {
        self.groups.read().iter().flatten().cloned().collect()
    }

    pub fn num_groups(&self) -> usize {
        self.groups.read().len()
    }
}

/// A running fleet: `groups` deployments launched through the controller,
/// the authoritative shard map, and the rebalancing protocol.
pub struct WieraFleet {
    pub id: String,
    controller: Arc<WieraController>,
    mesh: Arc<Mesh<DataMsg>>,
    /// The from-node of fleet control RPCs.
    from: NodeId,
    view: Arc<FleetView>,
    /// Group deployments, indexed by group id.
    deployments: RwLock<Vec<Arc<WieraDeployment>>>,
    config: FleetConfig,
}

fn group_id(fleet: &str, group: u32) -> String {
    // No '/' — the per-deployment election lock is keyed on the first
    // '/'-segment of replica names, so a slash here would collapse every
    // group's election onto one lock.
    format!("{fleet}-g{group}")
}

impl WieraFleet {
    /// Launch `config.groups` deployments of `config.policy_id` and
    /// install every group's initial shard slice.
    pub fn launch(
        controller: Arc<WieraController>,
        mesh: Arc<Mesh<DataMsg>>,
        id: &str,
        config: FleetConfig,
    ) -> Result<Arc<WieraFleet>, String> {
        let map = ShardMap::new(config.shards, config.vnodes, config.groups)?;
        let mut deployments = Vec::new();
        let mut groups = Vec::new();
        for g in 0..config.groups {
            let mut dep_cfg = config.deployment.clone();
            dep_cfg.shard_group = Some(g);
            let dep = controller.start_instances(&group_id(id, g), &config.policy_id, dep_cfg)?;
            groups.push(dep.replicas());
            deployments.push(dep);
        }
        let from = NodeId::new(controller.node.region, format!("{id}/fleet"));
        let fleet = Arc::new(WieraFleet {
            id: id.to_string(),
            controller,
            mesh,
            from,
            view: FleetView::new(map.clone(), groups),
            deployments: RwLock::new(deployments),
            config,
        });
        for g in 0..map.num_groups() {
            fleet.install_group_slice(&map, g, &fleet.view.group_replicas(g), true)?;
        }
        Ok(fleet)
    }

    /// The routing view to hand to clients (`WieraClient::builder(..)
    /// .fleet(..)`).
    pub fn view(&self) -> Arc<FleetView> {
        self.view.clone()
    }

    pub fn num_groups(&self) -> u32 {
        self.deployments.read().len() as u32
    }

    pub fn group(&self, group: u32) -> Option<Arc<WieraDeployment>> {
        self.deployments.read().get(group as usize).cloned()
    }

    /// Launch one more (empty) group: it owns no shards and refuses every
    /// key until [`WieraFleet::move_shard`] grants it one. Elastic
    /// scale-out is `add_group()` followed by a batch of moves.
    pub fn add_group(&self) -> Result<u32, String> {
        let g = self.num_groups();
        let mut dep_cfg = self.config.deployment.clone();
        dep_cfg.shard_group = Some(g);
        let dep = self.controller.start_instances(
            &group_id(&self.id, g),
            &self.config.policy_id,
            dep_cfg,
        )?;
        let reps = dep.replicas();
        self.deployments.write().push(dep);
        self.view.set_group(g, reps.clone());
        let map = self.view.map();
        self.install_group_slice(&map, g, &reps, true)?;
        Ok(g)
    }

    /// Move `shard` to `to_group` with the drained handoff: flush → copy →
    /// flip source → delta copy → install target → verify → re-route
    /// clients → retire source. Between the source flip and the target
    /// install nobody serves the shard — both sides refuse `WrongShard`
    /// and clients retry — which is exactly what makes the handoff safe:
    /// an *acked* write either predates the flip (and rides the delta
    /// copy) or postdates the target install (and lives there already).
    pub fn move_shard(&self, shard: u32, to_group: u32) -> Result<(), String> {
        let old = self.view.map();
        if shard >= old.num_shards() {
            return Err(format!(
                "shard {shard} out of range (fleet has {})",
                old.num_shards()
            ));
        }
        if to_group >= self.num_groups() {
            return Err(format!(
                "group {to_group} not launched (fleet has {} groups)",
                self.num_groups()
            ));
        }
        let src = old.group_of_shard(shard);
        if src == to_group {
            return Ok(());
        }
        MetricsRegistry::global().inc("wiera_shard_moves", &[("fleet", self.id.as_str())]);
        Tracer::global().point(
            self.mesh.clock.now(),
            "fleet",
            "move_shard",
            Some(format!("{} shard {shard}: g{src} -> g{to_group}", self.id)),
        );

        let src_reps = self.view.group_replicas(src);
        let dst_reps = self.view.group_replicas(to_group);
        let dst_primary = self
            .group(to_group)
            .and_then(|d| d.primary())
            .or_else(|| dst_reps.first().cloned())
            .ok_or_else(|| format!("target group {to_group} has no replicas"))?;

        // 1. Drain the source's async replication queues so the copy below
        //    sees every acked write. Best-effort per replica (a crashed
        //    backup has nothing queued that was acked anywhere).
        for r in &src_reps {
            let _ = rpc_ok(&self.mesh, &self.from, r, DataMsg::FlushQueue);
        }

        // 2. Bulk copy while the source still serves (long tail of data
        //    moves without blocking anyone).
        let copy = || {
            let target = (&dst_primary, dst_reps.as_slice());
            copy_lacking(
                &self.mesh,
                &self.from,
                &src_reps,
                target,
                Some(shard),
                &self.id,
            )
        };
        copy()?;

        // 3. Flip the source to the bumped map: from here on the source
        //    group refuses the shard, so the delta below is final. Strict —
        //    a source replica that never flips could serve stale routes
        //    and later refuse the retire, so the move aborts instead.
        let new = old.assign(shard, to_group)?;
        self.install_group_slice(&new, src, &src_reps, true)?;

        // 4. Delta copy: writes acked between the bulk copy and the flip.
        copy()?;

        // 5. The target takes ownership and starts serving. The target
        //    primary must ack; a crashed backup catches up via restart
        //    anti-entropy and a later `refresh_shard_views`.
        self.install_group_slice(&new, to_group, &dst_reps, false)?;

        // 6. Verify the handoff before anything is deleted: the target
        //    primary lacks no key the source holds for the shard. The copy
        //    is the one repair round; a key still lacking after it aborts
        //    the move before the retire, leaving the data on the source.
        let still = copy()?;
        if let Some(first) = still.first() {
            return Err(format!(
                "handoff verification failed for shard {shard}: {} keys missing at target \
                 (first: {first:?})",
                still.len()
            ));
        }

        // 7. Re-route clients.
        self.view.install(new.clone());

        // 8. Retire: the source group deletes the shard's objects. The
        //    replica double-checks (map version current, shard no longer
        //    owned) before deleting anything.
        for r in &src_reps {
            let msg = DataMsg::DropShard {
                shard,
                map_version: new.version(),
            };
            rpc_ok(&self.mesh, &self.from, r, msg).map_err(|e| format!("retire on {r}: {e}"))?;
        }
        Ok(())
    }

    /// Re-push every group's current shard slice (same map version).
    /// Best-effort heal after chaos: a replica that restarted with a stale
    /// ownership view re-adopts the current one. Returns how many replicas
    /// acked.
    pub fn refresh_shard_views(&self) -> usize {
        let map = self.view.map();
        let mut acked = 0;
        for g in 0..self.num_groups() {
            for r in &self.view.group_replicas(g) {
                let msg = DataMsg::SetShards {
                    shards: map.shards_of_group(g),
                    num_shards: map.num_shards(),
                    vnodes: map.vnodes(),
                    map_version: map.version(),
                };
                if rpc_ok(&self.mesh, &self.from, r, msg).is_ok() {
                    acked += 1;
                }
            }
        }
        acked
    }

    /// Stop every group deployment.
    pub fn stop_all(&self) {
        let n = self.num_groups();
        for g in 0..n {
            let _ = self.controller.stop_instances(&group_id(&self.id, g));
        }
    }

    // ---- handoff internals -------------------------------------------------

    /// Send `group`'s slice of `map` to its replicas. `strict` demands an
    /// ack from every replica; otherwise the group's primary must ack and
    /// the rest are best-effort.
    fn install_group_slice(
        &self,
        map: &ShardMap,
        group: u32,
        replicas: &[NodeId],
        strict: bool,
    ) -> Result<(), String> {
        let primary = self.group(group).and_then(|d| d.primary());
        for r in replicas {
            let msg = DataMsg::SetShards {
                shards: map.shards_of_group(group),
                num_shards: map.num_shards(),
                vnodes: map.vnodes(),
                map_version: map.version(),
            };
            if let Err(e) = rpc_ok(&self.mesh, &self.from, r, msg) {
                let required = strict || primary.as_ref() == Some(r) || primary.is_none();
                if required {
                    return Err(format!("set_shards v{} on {r}: {e}", map.version()));
                }
                MetricsRegistry::global()
                    .inc("wiera_shard_view_skipped", &[("fleet", self.id.as_str())]);
            }
        }
        Ok(())
    }
}

/// One copy step, the only way objects move between replicas outside the
/// write path: read the digest tables of the target primary and of each
/// source, of `shard`'s keys only when given, fetch from each source only
/// the keys the target lacks by the anti-entropy rule ([`lacking`]), and
/// send them to the target
/// replicas as one `Replicate` at the epoch the target's digest carries.
/// Where several sources hold a key, a later source is asked for it only if
/// it holds it newer than every copy already fetched, and the receiver's
/// last-write-wins keeps the newest copy. The target primary must ack; the
/// other target replicas are best-effort (`wiera_shard_copy_skipped`).
/// Returns the keys the target primary still lacks afterwards, a key whose
/// fetch failed included.
pub(crate) fn copy_lacking(
    mesh: &Mesh<DataMsg>,
    from: &NodeId,
    sources: &[NodeId],
    (primary, replicas): (&NodeId, &[NodeId]),
    shard: Option<u32>,
    fleet: &str,
) -> Result<Vec<String>, String> {
    // `newest` is the target's table followed by every entry fetched since;
    // `lacking` reads a key's last entry, the newest one. `wanted` is every
    // entry the target lacked, fetched or not.
    let (mut newest, epoch) = digest_of(mesh, from, primary, shard)?;
    let (mut wanted, mut items) = (Vec::new(), Vec::new());
    for source in sources {
        let Ok((entries, _)) = digest_of(mesh, from, source, shard) else {
            continue;
        };
        let fetch: Vec<KeyDigest> = lacking(&entries, &newest).into_iter().cloned().collect();
        if fetch.is_empty() {
            continue;
        }
        wanted.extend_from_slice(&fetch);
        let msg = DataMsg::FetchObjects {
            keys: fetch.iter().map(|d| d.key.clone()).collect(),
        };
        let bytes = msg.wire_bytes();
        if let Ok(DataMsg::SyncReply { objects }) = mesh
            .rpc(from, source, msg, bytes, CTRL_TIMEOUT)
            .map(|r| r.msg)
        {
            items.extend(objects);
            newest.extend(fetch);
        }
    }
    if wanted.is_empty() {
        return Ok(Vec::new());
    }
    let items: Arc<[_]> = items.into();
    for r in replicas.iter().filter(|_| !items.is_empty()) {
        let msg = DataMsg::Replicate {
            items: items.clone(),
            epoch,
        };
        if let Err(e) = rpc_ok(mesh, from, r, msg) {
            if r == primary {
                return Err(format!("copy to target primary {r}: {e}"));
            }
            MetricsRegistry::global().inc("wiera_shard_copy_skipped", &[("fleet", fleet)]);
        }
    }
    let (now, _) = digest_of(mesh, from, primary, shard)?;
    let mut still: Vec<String> = lacking(&wanted, &now)
        .into_iter()
        .map(|d| d.key.clone())
        .collect();
    still.sort_unstable();
    still.dedup();
    Ok(still)
}

/// `node`'s digest table, of `shard`'s keys when given, and epoch.
fn digest_of(
    mesh: &Mesh<DataMsg>,
    from: &NodeId,
    node: &NodeId,
    shard: Option<u32>,
) -> Result<(Vec<KeyDigest>, u64), String> {
    let msg = DataMsg::DigestRequest { shard };
    let bytes = msg.wire_bytes();
    match mesh
        .rpc(from, node, msg, bytes, CTRL_TIMEOUT)
        .map(|r| r.msg)
    {
        Ok(DataMsg::DigestReply { entries, epoch, .. }) => Ok((entries, epoch)),
        Ok(other) => Err(format!("bad digest reply from {node}: {other:?}")),
        Err(e) => Err(format!("digest from {node}: {e}")),
    }
}

/// Send one control message and wait for its ack: `Ok`, or the
/// `ReplicateAck` of a copy (whether or not any item won).
fn rpc_ok(
    mesh: &Mesh<DataMsg>,
    from: &NodeId,
    target: &NodeId,
    msg: DataMsg,
) -> Result<(), String> {
    let bytes = msg.wire_bytes();
    let reply = mesh
        .rpc(from, target, msg, bytes, CTRL_TIMEOUT)
        .map_err(|e| e.to_string())?;
    match reply.msg {
        DataMsg::Ok | DataMsg::ReplicateAck { .. } => Ok(()),
        DataMsg::Fail { code, why } => Err(format!("{code}: {why}")),
        other => Err(format!("unexpected reply {other:?}")),
    }
}
