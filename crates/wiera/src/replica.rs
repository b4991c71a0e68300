//! A replica: one Tiera instance wrapped in a mesh endpoint, executing the
//! deployment's consistency protocol.
//!
//! **One write path and one read path: a single op is a batch of one.** The
//! paper's put is one event → response chain (Figs. 3–4); here it is one
//! function, `write_items`, over a slice of items — `Put` and `ForwardPut`
//! hand it theirs, one item or many. It picks the model once
//! (multi-primaries: sorted key locks → local write → synchronous copy →
//! per-item rollback if fenced; primary-backup: the primary or whoever was
//! forwarded to → local write → copy or queue, a backup → forward;
//! eventual: local write → queue), counts the op, and records its history
//! spans. Only two leaves act differently for one item than for many, and
//! they read the count off the slice: `write_local` (`put` for one, one
//! `apply_batch` pass for many) and `forward` (one `ForwardPut` either way —
//! the only forward message, so every forwarded write is fenced and
//! attributed — answered `MultiReply`). Beyond them the count
//! only picks a label (`put`/`mput` spans, `deposed_put`/`deposed_mput`
//! fences). `read_keys` is the same shape for gets over `read_local` and
//! `read_forwarded`. Nothing configures arity, and every data op is
//! answered in one shape, `MultiReply` — except that a client op of one
//! item whose item failed answers `Fail`, which the client's failover loop
//! acts on.
//!
//! **The peer-facing side is written once too.** One message replicates
//! (`Replicate`: a synchronous copy of one put or a batch, a queue flush, an
//! anti-entropy push), applied by one loop, `apply_updates`. One rule,
//! `admit_epoch`, fences every epoch-bearing message. One reader,
//! `latest_objects`, serves every peer that reads the store: a keyed
//! `FetchObjects`, the digest table, the anti-entropy push. One rule,
//! `msg::lacking`, decides what is copied: anti-entropy's pull and push
//! here, and the fleet's copy step (shard handoff, replica repair).
//!
//! Threading model (mirrors §4's description of instances running servers):
//!
//! * a **pool** of reused threads serves the inbox. The one holding it (the
//!   *leader*) handles every delivery itself with the [`wiera_sim::block`]
//!   hook armed: a message that never blocks costs no hand-off, and a
//!   handler about to block — an application op on a WAN round trip, its
//!   admission slot or the gate; a switch, a `FlushQueue` or a stop waiting
//!   for its flush's acks — first hands the inbox to the most recently parked
//!   thread or a new one. So a blocked handler never stops this replica
//!   applying a peer's update: two multi-primaries writers, or two replicas
//!   switched at once, would otherwise wait on each other. The handler's
//!   thread then finishes, parks, replies, and leads again or retires after
//!   an idle second. Steady state creates no thread;
//! * a **flusher thread** distributes queued updates on the `flush_interval`
//!   grid (the paper: "applications can specify how frequently queued
//!   updates need to be distributed"). There is one flush: the queue as one
//!   confirmed `Replicate`, which the flusher, a switch's drain, a
//!   `FlushQueue` and a planned stop all send, one at a time;
//! * a **gate** blocks application operations while a consistency switch is
//!   in progress (§3.3.2: new requests "blocked and queued until the change
//!   takes effect").

use crate::msg::{lacking, DataMsg, FailCode, ItemResult, KeyDigest, PutItem, SyncObject};
use bytes::Bytes;
use parking_lot::Condvar;
use std::cell::Cell;
use std::collections::{HashMap, HashSet, VecDeque};
use std::ops::Range;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use tiera::instance::Replicated;
use tiera::{BatchOp, InstanceConfig, TieraError, TieraInstance};
use wiera_coord::{CoordClient, CoordError, LockGuard, ShardMap};
use wiera_net::{Delivery, Mesh, NodeId};
use wiera_policy::ConsistencyModel;
use wiera_sim::lockreg::{TrackedMutex, TrackedRwLock};
use wiera_sim::registry::{CounterHandle, OpSeries};
use wiera_sim::{MetricsRegistry, SimDuration, SimInstant, Tracer};

/// RPC timeout for data-path calls.
pub(crate) const DATA_TIMEOUT: SimDuration = SimDuration::from_secs(120);
/// How long the put-latency window is retained for monitors.
const WINDOW_RETENTION: SimDuration = SimDuration::from_secs(120);

/// Per-replica protocol state, swappable at run time.
struct ProtoState {
    consistency: ConsistencyModel,
    peers: Vec<NodeId>,
    primary: Option<NodeId>,
    epoch: u64,
}

impl ProtoState {
    /// Move to `epoch` if it is newer: a replica's epoch never goes back.
    fn adopt(&mut self, epoch: u64) {
        self.epoch = self.epoch.max(epoch);
    }
}

/// Gate blocking application operations during a consistency switch.
struct Gate {
    closed: TrackedMutex<bool>,
    cond: Condvar,
}

impl Gate {
    fn new() -> Gate {
        Gate {
            closed: TrackedMutex::new("replica.gate", false),
            cond: Condvar::new(),
        }
    }

    fn close(&self) {
        *self.closed.lock() = true;
    }

    fn open(&self) {
        *self.closed.lock() = false;
        self.cond.notify_all();
    }

    /// Wait for the gate to open; a closed one runs the block hook unlocked.
    fn wait_open(&self) {
        if !*self.closed.lock() {
            return;
        }
        wiera_sim::block::before_block();
        let mut closed = self.closed.lock();
        while *closed {
            self.cond.wait(closed.inner_mut());
        }
    }
}

/// Structured failure raised inside the replica's protocol paths, carried
/// to the wire as [`DataMsg::Fail`].
#[derive(Debug, Clone)]
struct OpFail {
    code: FailCode,
    why: String,
}

impl OpFail {
    fn new(code: FailCode, why: impl Into<String>) -> OpFail {
        OpFail {
            code,
            why: why.into(),
        }
    }

    fn blocked(why: impl Into<String>) -> OpFail {
        OpFail::new(FailCode::Blocked, why)
    }

    fn internal(why: impl Into<String>) -> OpFail {
        OpFail::new(FailCode::Internal, why)
    }

    /// The refusal a fenced sender sees.
    fn stale_epoch(got: u64, current: u64) -> OpFail {
        OpFail::new(
            FailCode::StaleEpoch,
            format!("stale epoch {got} < {current}"),
        )
    }

    /// The wire reply carrying this failure.
    fn into_msg(self) -> DataMsg {
        DataMsg::Fail {
            code: self.code,
            why: self.why,
        }
    }
}

impl From<TieraError> for OpFail {
    fn from(e: TieraError) -> OpFail {
        OpFail::new(fail_code(&e), e.to_string())
    }
}

/// CoDel-style load-shedding configuration for a replica's admission queue.
///
/// The admission model ([`ReplicaConfig::service_time`]) gives each replica a
/// modeled single-server queue; its *sojourn delay* (how long a newly
/// admitted op would wait for its service slot) is the congestion signal.
/// Transient bursts ride through: shedding starts only once the delay has
/// stayed above `target_delay` continuously for `interval`, and stops the
/// moment the backlog dips back under target — the same standing-queue test
/// CoDel applies to packet sojourn times. Only client operations are shed;
/// replication, anti-entropy and control traffic is handled inline and is
/// never subject to admission, so a replica keeps converging even while it
/// refuses new client load.
#[derive(Debug, Clone, Copy)]
pub struct OverloadConfig {
    /// Acceptable standing backlog in the admission queue.
    pub target_delay: SimDuration,
    /// How long the backlog must stay above `target_delay` before client
    /// ops are shed with [`FailCode::Overloaded`].
    pub interval: SimDuration,
}

/// Per-op budget carried by [`DataMsg::WithBudget`], unwrapped at dispatch.
#[derive(Debug, Clone, Copy, Default)]
struct OpBudget {
    /// Absolute deadline on the shared modeled clock.
    deadline: Option<SimInstant>,
    /// The caller accepts a possibly-stale degraded answer under overload.
    allow_degraded: bool,
}

/// Construction parameters for a replica.
pub struct ReplicaConfig {
    pub node: NodeId,
    pub instance: InstanceConfig,
    pub consistency: ConsistencyModel,
    /// Queue distribution period for asynchronous propagation.
    pub flush_interval: SimDuration,
    /// Coordination client for the multi-primaries global lock.
    pub coord: Option<Arc<CoordClient>>,
    /// Route application GETs to another node (§5.4's remote-memory reads).
    pub forward_gets_to: Option<NodeId>,
    /// The fleet shard group this replica belongs to (None outside fleets).
    pub shard_group: Option<u32>,
    /// Modeled per-op service time: ops queue behind a single modeled
    /// server, so a saturated replica caps out at `1/service_time` ops/sec
    /// regardless of client count. `None` (the default) disables the
    /// admission model entirely.
    pub service_time: Option<SimDuration>,
    /// CoDel-style shedding over the admission queue. `None` (the default)
    /// never sheds; only meaningful together with `service_time`.
    pub overload: Option<OverloadConfig>,
}

/// A replica's installed slice of the fleet shard map: the ring (rebuilt
/// locally from the pinned hash — only parameters travel) plus the shard
/// ids this replica's group owns at `version`.
struct ShardView {
    ring: ShardMap,
    owned: HashSet<u32>,
    version: u64,
}

/// Observable counters for cost accounting and monitors.
#[derive(Default)]
pub struct ReplicaStats {
    /// Bytes sent to peer instances (inter-DC egress).
    pub egress_bytes: AtomicU64,
    /// Replication messages that failed (peer unreachable).
    pub replication_failures: AtomicU64,
    /// Consistency switches executed.
    pub switches: AtomicU64,
    /// Pool threads started for a blocked op to hand the inbox to (none in
    /// steady state: pool threads are reused).
    pub worker_spawns: AtomicU64,
    /// Times the inbox changed hands because an op was about to block (or
    /// unwound before it did).
    pub handoffs: AtomicU64,
}

/// The application-op series, each resolved on its first record: puts per
/// consistency model (see [`model_slot`]), gets per route (local,
/// forwarded).
#[derive(Default)]
struct OpCounts {
    puts: [OnceLock<OpSeries>; 4],
    put_errors: [OnceLock<Arc<CounterHandle>>; 4],
    gets: [OnceLock<OpSeries>; 2],
    get_errors: [OnceLock<Arc<CounterHandle>>; 2],
}

fn model_slot(model: ConsistencyModel) -> usize {
    match model {
        ConsistencyModel::MultiPrimaries => 0,
        ConsistencyModel::PrimaryBackup { sync: true } => 1,
        ConsistencyModel::PrimaryBackup { sync: false } => 2,
        ConsistencyModel::Eventual => 3,
    }
}

/// The running replica.
pub struct ReplicaNode {
    pub node: NodeId,
    mesh: Arc<Mesh<DataMsg>>,
    inst: Arc<TieraInstance>,
    state: TrackedRwLock<ProtoState>,
    gate: Gate,
    /// Updates awaiting asynchronous distribution; a flush sends the whole
    /// queue as one [`DataMsg::Replicate`] to every peer.
    queue: TrackedMutex<VecDeque<SyncObject>>,
    /// Held by the running flush: flushes of one replica take turns, so a
    /// barrier flush also waits out a periodic one still awaiting its acks.
    flush_turn: TrackedMutex<()>,
    /// Coordination client; swapped for a fresh session on restart (the
    /// crashed session's ephemeral lease is gone for good).
    coord: TrackedRwLock<Option<Arc<CoordClient>>>,
    flush_interval: SimDuration,
    forward_gets_to: TrackedRwLock<Option<NodeId>>,
    stop: Arc<AtomicBool>,
    /// Bumped on every restart; pool and flusher threads exit when their
    /// spawn-time generation no longer matches (so a restarted node never
    /// has two leaders racing on one inbox).
    generation: AtomicU64,
    /// True while anti-entropy catch-up runs after a restart; reads are
    /// refused (clients fail over) until the node has converged.
    catching_up: AtomicBool,
    /// Parked pool threads; see [`ReplicaNode::hand_on`].
    pool: TrackedMutex<Pool>,
    pub stats: ReplicaStats,
    /// Fleet shard ownership; `None` until a [`DataMsg::SetShards`] arrives
    /// (single-group deployments never install one and serve every key).
    shard_view: TrackedRwLock<Option<ShardView>>,
    /// The fleet shard group this replica belongs to, for failover events.
    shard_group: Option<u32>,
    /// Modeled single-server admission: when `service_time` is set, each
    /// application op claims the next free service slot and sleeps until
    /// its slot completes, so throughput saturates per replica.
    service_time: Option<SimDuration>,
    service_until: TrackedMutex<SimInstant>,
    /// Load-shedding policy over the admission queue, if enabled.
    overload: Option<OverloadConfig>,
    /// CoDel state: when the admission backlog first exceeded the target
    /// delay without dipping back under it (`None` = backlog acceptable).
    shed_above_since: TrackedMutex<Option<SimInstant>>,
    /// (time, put latency ms) samples for the latency monitor.
    put_window: TrackedMutex<VecDeque<(SimInstant, f64)>>,
    /// Puts received directly from applications (time-stamped).
    direct_puts: TrackedMutex<VecDeque<SimInstant>>,
    /// Puts forwarded to us, per origin replica (primary-side bookkeeping).
    forwarded_puts: TrackedMutex<HashMap<NodeId, VecDeque<SimInstant>>>,
    op_counts: OpCounts,
}

impl ReplicaNode {
    /// Build the instance, register on the mesh, and start the first pool
    /// thread and the flusher. Errors (a policy-driven instance config the
    /// engine rejects, or thread-spawn failure) are returned instead of
    /// panicking so the deployment layer can report them over RPC.
    pub fn spawn(mesh: Arc<Mesh<DataMsg>>, config: ReplicaConfig) -> Result<Arc<Self>, String> {
        let inst = TieraInstance::build(config.instance, mesh.clock.clone())
            .map_err(|e| format!("replica instance config rejected: {e}"))?;
        let stop = Arc::new(AtomicBool::new(false));
        let node = config.node.clone();
        let inbox = mesh.register(node.clone());

        let replica = Arc::new(ReplicaNode {
            node,
            mesh,
            inst,
            state: TrackedRwLock::new(
                "replica.state",
                ProtoState {
                    consistency: config.consistency,
                    peers: Vec::new(),
                    primary: None,
                    epoch: 0,
                },
            ),
            gate: Gate::new(),
            queue: TrackedMutex::new("replica.queue", VecDeque::new()),
            flush_turn: TrackedMutex::new("replica.flush", ()),
            coord: TrackedRwLock::new("replica.coord", config.coord),
            flush_interval: config.flush_interval,
            forward_gets_to: TrackedRwLock::new("replica.forward_gets", config.forward_gets_to),
            stop: stop.clone(),
            generation: AtomicU64::new(0),
            catching_up: AtomicBool::new(false),
            pool: TrackedMutex::new("replica.pool", Pool::default()),
            stats: ReplicaStats::default(),
            shard_view: TrackedRwLock::new("replica.shards", None),
            shard_group: config.shard_group,
            service_time: config.service_time,
            service_until: TrackedMutex::new("replica.service_until", SimInstant::EPOCH),
            overload: config.overload,
            shed_above_since: TrackedMutex::new("replica.shed_above_since", None),
            put_window: TrackedMutex::new("replica.put_window", VecDeque::new()),
            direct_puts: TrackedMutex::new("replica.direct_puts", VecDeque::new()),
            forwarded_puts: TrackedMutex::new("replica.forwarded_puts", HashMap::new()),
            op_counts: OpCounts::default(),
        });
        replica.create_lease();
        replica.start_threads(inbox)?;
        Ok(replica)
    }

    /// Hold an ephemeral lease znode in coord (§4.4): the lease vanishes
    /// with the session, which is how the failure detector learns this
    /// replica died.
    fn create_lease(&self) {
        if let Some(coord) = self.coord_client() {
            let _ = coord.create_znode(&lease_path(&self.node), true);
        }
    }

    /// Replace the `expired` coord session with a fresh one and re-create
    /// the lease on it: the old session's lease and locks are gone, and a
    /// new lease announces this replica as live again. Callers that raced
    /// on the same expiry share the first one's session.
    fn renew_session(&self, expired: &Arc<CoordClient>) -> Result<Arc<CoordClient>, CoordError> {
        let fresh = expired.reconnect()?;
        {
            let mut slot = self.coord.write();
            match slot.as_ref() {
                Some(current) if !Arc::ptr_eq(current, expired) => return Ok(current.clone()),
                _ => *slot = Some(fresh.clone()),
            }
        }
        self.create_lease();
        Ok(fresh)
    }

    /// Take the coord lock at `path`. A refusal because this replica's
    /// session expired (at high time scales a briefly starved heartbeat
    /// thread is enough) renews the session and retries once.
    fn coord_lock(
        &self,
        coord: &Arc<CoordClient>,
        path: &str,
    ) -> Result<(LockGuard, SimDuration), CoordError> {
        match coord.lock(path) {
            Err(CoordError::SessionExpired(_)) => self.renew_session(coord)?.lock(path),
            taken => taken,
        }
    }

    /// Start the first leader and the flusher for the current generation.
    /// Threads from an earlier generation (pre-crash) exit on their own when
    /// they observe the mismatch.
    fn start_threads(self: &Arc<Self>, inbox: Inbox) -> Result<(), String> {
        let gen = self.generation.load(Ordering::Acquire);
        self.hand_on(gen, inbox)
            .map_err(|_| "cannot spawn replica pool thread".to_string())?;
        // Flusher thread, on the `flush_interval` grid: a flush's round trip
        // does not stretch the period. A round that overran its slot is
        // followed by the next one at once.
        {
            let r = self.clone();
            std::thread::Builder::new()
                .name(format!("flusher-{}", r.node))
                .spawn(move || {
                    let clock = r.mesh.clock.clone();
                    let mut due = clock.now();
                    while r.live(gen) {
                        due += r.flush_interval;
                        let now = clock.now();
                        if due > now {
                            clock.sleep(due.elapsed_since(now));
                        } else {
                            due = now;
                        }
                        if !r.live(gen) {
                            return;
                        }
                        r.flush_queue();
                    }
                })
                .map_err(|e| format!("cannot spawn replica flusher thread: {e}"))?;
        }
        Ok(())
    }

    pub fn instance(&self) -> &Arc<TieraInstance> {
        &self.inst
    }

    pub fn consistency(&self) -> ConsistencyModel {
        self.state.read().consistency
    }

    pub fn is_primary(&self) -> bool {
        self.state.read().primary.as_ref() == Some(&self.node)
    }

    pub fn primary(&self) -> Option<NodeId> {
        self.state.read().primary.clone()
    }

    pub fn peers(&self) -> Vec<NodeId> {
        self.state.read().peers.clone()
    }

    pub fn epoch(&self) -> u64 {
        self.state.read().epoch
    }

    /// The fleet shard group this replica was spawned into, if any.
    pub fn shard_group(&self) -> Option<u32> {
        self.shard_group
    }

    pub fn queue_len(&self) -> usize {
        self.queue.lock().len()
    }

    pub fn set_forward_gets_to(&self, target: Option<NodeId>) {
        *self.forward_gets_to.write() = target;
    }

    pub fn is_stopped(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }

    pub(crate) fn coord_client(&self) -> Option<Arc<CoordClient>> {
        self.coord.read().clone()
    }

    pub(crate) fn mesh(&self) -> &Arc<Mesh<DataMsg>> {
        &self.mesh
    }

    /// Planned shutdown: flush the eventual-mode queue first, so already
    /// acknowledged writes are applied at their peers, then halt. (A planned
    /// stop dropping queued `Replicate`s was a data-loss bug.)
    pub fn stop(&self) {
        self.flush_queue();
        self.halt();
    }

    /// Take the node off the mesh and stop its threads without flushing.
    fn halt(&self) {
        self.stop.store(true, Ordering::Release);
        self.pool.lock().parked.clear(); // a dropped mailbox wakes its thread
        self.mesh.unregister(&self.node);
    }

    /// Unplanned crash (§4.4): the site drops off the mesh mid-flight,
    /// queued-but-unflushed updates are lost, volatile tiers lose their
    /// contents (durable tiers survive per the tier model), and coord
    /// heartbeats stop so the lease expires after the session timeout.
    pub fn crash(&self) {
        self.halt();
        self.queue.lock().clear();
        let wiped = self.inst.crash_volatile();
        if let Some(coord) = self.coord_client() {
            coord.pause_heartbeats();
        }
        let region = self.node.region.name();
        MetricsRegistry::global().inc("wiera_crashes", &[("region", region)]);
        let now = self.mesh.clock.now();
        Tracer::global()
            .span(now, "wiera", "crash")
            .region(region)
            .node(self.node.name.clone())
            .detail(format!("volatile_versions_lost={wiped}"))
            .finish(now);
    }

    /// Restart after [`Self::crash`]: re-register on the mesh, open a fresh
    /// coord session + lease, adopt the deployment's current epoch, and run
    /// anti-entropy catch-up against the primary before serving reads.
    pub fn restart(self: &Arc<Self>) -> Result<AntiEntropyReport, String> {
        if !self.stop.load(Ordering::Acquire) {
            return Err("restart: node is not stopped".into());
        }
        self.generation.fetch_add(1, Ordering::AcqRel);
        self.catching_up.store(true, Ordering::Release);
        let inbox = self.mesh.register(self.node.clone());
        self.stop.store(false, Ordering::Release);
        self.start_threads(inbox)?;
        // Fresh coord session: the crashed session's ephemeral lease is gone
        // (or about to expire).
        if let Some(old) = self.coord_client() {
            self.renew_session(&old)
                .map_err(|e| format!("restart: coord reconnect failed: {e}"))?;
        }
        let report = self.anti_entropy();
        self.catching_up.store(false, Ordering::Release);
        let region = self.node.region.to_string();
        MetricsRegistry::global().inc("wiera_restarts", &[("region", region.as_str())]);
        Ok(report)
    }

    // ---- monitor-facing observability --------------------------------------

    /// Put-latency samples newer than `since`.
    pub fn put_latencies_since(&self, since: SimInstant) -> Vec<(SimInstant, f64)> {
        self.put_window
            .lock()
            .iter()
            .filter(|(t, _)| *t >= since)
            .copied()
            .collect()
    }

    /// Number of application puts this replica received directly since `since`.
    pub fn direct_puts_since(&self, since: SimInstant) -> usize {
        self.direct_puts
            .lock()
            .iter()
            .filter(|t| **t >= since)
            .count()
    }

    /// Forwarded put counts per origin since `since` (primary-side).
    pub fn forwarded_puts_since(&self, since: SimInstant) -> Vec<(NodeId, usize)> {
        self.forwarded_puts
            .lock()
            .iter()
            .map(|(n, ts)| (n.clone(), ts.iter().filter(|t| **t >= since).count()))
            .collect()
    }

    // ---- message dispatch ---------------------------------------------------

    /// Route one delivery on the leading pool thread, whose block hook is
    /// armed. The answer is returned for `pool_thread` to send.
    fn dispatch(self: &Arc<Self>, d: Delivery<DataMsg>) -> Reply {
        let mut d = d;
        // Peel the budget envelope first so routing sees the inner op.
        let mut budget = OpBudget::default();
        if let DataMsg::WithBudget {
            deadline_us,
            allow_degraded,
            inner,
        } = d.msg
        {
            budget = OpBudget {
                deadline: deadline_us.map(|us| SimInstant::EPOCH + SimDuration::from_micros(us)),
                allow_degraded,
            };
            d.msg = *inner;
        }
        match &d.msg {
            // Application operations pass the gate and admission first.
            DataMsg::Put { .. }
            | DataMsg::Get { .. }
            | DataMsg::GetVersion { .. }
            | DataMsg::GetVersionList { .. }
            | DataMsg::Update { .. }
            | DataMsg::Remove { .. }
            | DataMsg::RemoveVersion { .. }
            | DataMsg::ForwardPut { .. } => self.handle_app_op(d, budget),
            // Replication and control are never gated or shed.
            _ => self.handle_inline(d),
        }
    }

    fn handle_inline(self: &Arc<Self>, d: Delivery<DataMsg>) -> Reply {
        let (msg, took) = match d.msg {
            DataMsg::Replicate { items, epoch } => {
                // `items` is the sender's shared batch, applied by reference.
                match self.admit_epoch(epoch, "replicate", |_| ()) {
                    Ok(()) => {
                        let (won, took) = self.apply_updates(&items);
                        (DataMsg::ReplicateAck { applied: won > 0 }, took)
                    }
                    Err(fail) => (fail.into_msg(), SimDuration::from_micros(100)),
                }
            }
            DataMsg::SetPeers {
                peers,
                primary,
                epoch,
            } => {
                let msg = self
                    .set_peers(peers, primary, epoch)
                    .map_or_else(OpFail::into_msg, |()| DataMsg::Ok);
                (msg, SimDuration::from_micros(200))
            }
            DataMsg::ChangeConsistency { to, epoch } => match self.switch_consistency(to, epoch) {
                Ok(took) => (DataMsg::Ok, took),
                Err(fail) => (fail.into_msg(), SimDuration::ZERO),
            },
            DataMsg::ChangePrimary { new_primary, epoch } => {
                let installed = self.admit_epoch(epoch, "change_primary", |s| {
                    s.primary = Some(new_primary);
                    s.adopt(epoch);
                });
                let msg = installed.map_or_else(OpFail::into_msg, |()| DataMsg::Ok);
                (msg, SimDuration::from_micros(200))
            }
            DataMsg::Ping => (DataMsg::Pong, SimDuration::from_micros(100)),
            DataMsg::FetchObjects { keys } => {
                let want: HashSet<&str> = keys.iter().map(String::as_str).collect();
                let objects = self.latest_objects(|key| want.contains(key));
                (DataMsg::SyncReply { objects }, SimDuration::from_millis(5))
            }
            DataMsg::DigestRequest { shard } => {
                // A replica never sharded holds no shard's keys.
                let ring = self.shard_view.read().as_ref().map(|v| v.ring.clone());
                let of_shard = |key: &str| ring.as_ref().map(|r| r.shard_of(key));
                let entries = self.digests(|key| shard.is_none() || of_shard(key) == shard);
                let (epoch, primary) = {
                    let s = self.state.read();
                    (s.epoch, s.primary.clone())
                };
                let msg = DataMsg::DigestReply {
                    entries,
                    epoch,
                    primary,
                };
                (msg, SimDuration::from_millis(2))
            }
            DataMsg::FlushQueue => (DataMsg::Ok, self.flush_queue()),
            DataMsg::SetShards {
                shards,
                num_shards,
                vnodes,
                map_version,
            } => match self.install_shards(shards, num_shards, vnodes, map_version) {
                Ok(()) => (DataMsg::Ok, SimDuration::from_micros(300)),
                Err((code, why)) => {
                    self.note_fenced("set_shards");
                    (DataMsg::Fail { code, why }, SimDuration::from_micros(200))
                }
            },
            DataMsg::DropShard { shard, map_version } => {
                match self.drop_shard(shard, map_version) {
                    Ok(n) => (DataMsg::Ok, SimDuration::from_millis(1 + n.min(50) as u64)),
                    Err((code, why)) => {
                        self.note_fenced("drop_shard");
                        (DataMsg::Fail { code, why }, SimDuration::from_micros(200))
                    }
                }
            }
            DataMsg::Stop => {
                self.stop();
                (DataMsg::Ok, SimDuration::ZERO)
            }
            other => (
                DataMsg::Fail {
                    code: FailCode::Internal,
                    why: format!("unexpected message {other:?}"),
                },
                SimDuration::ZERO,
            ),
        };
        (d.reply, msg, took)
    }

    /// Two-phase consistency switch (§3.3.2): close the gate, drain the
    /// update queue so every queued write is applied at every peer before
    /// the new regime, swap the model, reopen. Returns the modeled switch
    /// time, or the refusal of a stale control message.
    ///
    /// The epoch is adopted on admission, before the drain: the queued
    /// updates then leave stamped with it, so a peer that switched first
    /// accepts them instead of fencing them as a deposed sender's.
    fn switch_consistency(&self, to: ConsistencyModel, epoch: u64) -> Result<SimDuration, OpFail> {
        let changes = self.admit_epoch(epoch, "change_consistency", |s| {
            s.adopt(epoch);
            s.consistency != to
        })?;
        if !changes {
            return Ok(SimDuration::ZERO);
        }
        let started = self.mesh.clock.now();
        self.gate.close();
        let drain_cost = self.flush_queue();
        self.state.write().consistency = to;
        self.gate.open();
        self.stats.switches.fetch_add(1, Ordering::Relaxed);
        let took = drain_cost + SimDuration::from_millis(1);
        let to_label = to.to_string();
        MetricsRegistry::global().inc("wiera_consistency_switches", &[("to", to_label.as_str())]);
        MetricsRegistry::global().observe("wiera_consistency_switch_time", &[], took);
        Tracer::global()
            .span(started, "wiera", "consistency_switch")
            .region(self.node.region.name())
            .node(self.node.name.clone())
            .detail(to_label)
            .finish(started + took);
        Ok(took)
    }

    /// Distribute the update queue and wait until every peer has applied
    /// it: the whole queue drained into **one** [`DataMsg::Replicate`]
    /// (n queued updates × p peers cost p messages, not n×p), sent through
    /// the gather a synchronous put copies with. The flusher calls it every
    /// period; a switch's drain, a `FlushQueue` and a planned stop are
    /// barriers on it. Flushes take turns, so a barrier also waits out an
    /// earlier periodic flush still awaiting its acks. The items are
    /// re-queued for a peer that failed or timed out, keeping the latest
    /// version per key (a peer that applied them re-applies idempotently
    /// under LWW); a `StaleEpoch` refusal is settled, as a fenced peer
    /// would refuse a retry too. Returns the slowest peer's round trip.
    fn flush_queue(&self) -> SimDuration {
        // Waiting for the turn may park this thread: hand the inbox on first.
        wiera_sim::block::before_block();
        let _turn = self.flush_turn.lock();
        let items: Arc<[SyncObject]> = {
            let mut q = self.queue.lock();
            if q.is_empty() {
                return SimDuration::ZERO;
            }
            q.drain(..).collect::<Vec<_>>().into()
        };
        // ws-audit: allow(WS103): only another flush of this replica waits for the turn; a peer acks a Replicate without it
        let sent = self.replicate_sync(self.peers(), Arc::clone(&items));
        if sent.failed {
            let mut q = self.queue.lock();
            for item in items.iter() {
                match q.iter_mut().find(|o| o.key == item.key) {
                    Some(queued) if item.version > queued.version => *queued = item.clone(),
                    Some(_) => {}
                    None => q.push_back(item.clone()),
                }
            }
        }
        sent.latency
    }

    /// The one reader of this replica's store on its peer-facing side: the
    /// latest version of every key `want` accepts, with its bytes, in store
    /// key order. A full-state sync, a fetch of named keys, the digest table
    /// and the anti-entropy push all read through it; a key `want` refuses
    /// costs no value read. A version whose bytes vanished (tier eviction
    /// racing the read) is skipped; the next sync retries it.
    fn latest_objects(&self, want: impl Fn(&str) -> bool) -> Vec<SyncObject> {
        let meta = self.inst.meta();
        let mut out = Vec::new();
        for key in meta.keys().into_iter().filter(|k| want(k)) {
            let latest = meta.with(&key, |o| o.latest().map(|m| (m.version, m.modified)));
            let Some(Some((version, modified))) = latest else {
                continue;
            };
            if let Some(value) = self
                .inst
                .get_version(&key, version)
                .ok()
                .and_then(|g| g.value)
            {
                out.push(SyncObject {
                    key,
                    version,
                    modified,
                    value,
                });
            }
        }
        out
    }

    /// Apply updates replicated from a peer — one or a batch, a copy or an
    /// anti-entropy pull — in one engine pass, last-write-wins per item
    /// (§4.2): a losing item does not block the rest. Returns how many won
    /// and the modeled time. Value clones are refcount bumps.
    fn apply_updates(&self, updates: &[SyncObject]) -> (usize, SimDuration) {
        let outcomes = self.inst.apply_replicated(&replicated(updates));
        let now = self.mesh.clock.now();
        let (mut applied, mut took) = (0, SimDuration::ZERO);
        for (o, out) in updates.iter().zip(outcomes) {
            if let Ok(Some(out)) = out {
                applied += 1;
                took += out.latency;
                self.record_history(
                    "replicate_apply",
                    &o.key,
                    o.version,
                    &o.value,
                    false,
                    now..now + out.latency,
                );
            }
        }
        if applied == 0 {
            took = SimDuration::from_micros(200);
        }
        (applied, took)
    }

    /// Drive the admission model into an artificial backlog, as if
    /// `backlog` of service time were already queued, with the overload
    /// patience window already elapsed (white-box; lets tests and check
    /// scenarios exercise shedding and degraded reads deterministically
    /// instead of racing real load). `SimDuration::ZERO` heals.
    pub fn force_backlog(&self, backlog: SimDuration) {
        let now = self.mesh.clock.now();
        *self.service_until.lock() = now + backlog;
        *self.shed_above_since.lock() = Some(SimInstant::EPOCH);
    }

    // ---- failure lifecycle: anti-entropy and election (§4.4) ---------------

    /// Per-key latest version + content digest — the anti-entropy exchange
    /// unit (values stay home; only fingerprints travel). Public so tests
    /// and the chaos harness can assert digest-equal convergence.
    pub fn digest_table(&self) -> Vec<KeyDigest> {
        self.digests(|_| true)
    }

    /// The digest table of the keys `want` accepts.
    fn digests(&self, want: impl Fn(&str) -> bool) -> Vec<KeyDigest> {
        self.latest_objects(want)
            .into_iter()
            .map(|o| KeyDigest {
                digest: value_digest(&o.value),
                key: o.key,
                version: o.version,
                modified: o.modified,
            })
            .collect()
    }

    /// Digest-based catch-up swept over every peer, primary first: per
    /// peer, exchange per-key version/digest tables, pull what the peer
    /// holds newer, push what survived locally (durable tiers) that the
    /// peer never saw. Also adopts the deployment's current epoch. Usable
    /// both on rejoin and after a partition heals.
    ///
    /// Sweeping the whole peer set — not just one neighbour — is what lets
    /// a single post-heal pass converge: an update that only one surviving
    /// replica still holds (say, the node distributing it crashed with the
    /// retries still queued) must reach every peer, not whichever one this
    /// node happens to diff against first.
    pub fn anti_entropy(self: &Arc<Self>) -> AntiEntropyReport {
        let targets: Vec<NodeId> = {
            let s = self.state.read();
            let mut v: Vec<NodeId> = s
                .primary
                .clone()
                .filter(|p| *p != self.node)
                .into_iter()
                .collect();
            for p in &s.peers {
                if *p != self.node && !v.contains(p) {
                    v.push(p.clone());
                }
            }
            v
        };
        let mut total = AntiEntropyReport::default();
        for peer in targets {
            if let Some((pulled, pushed)) = self.sync_with_peer(&peer) {
                total.pulled += pulled;
                total.pushed += pushed;
                total.peer.get_or_insert(peer);
            }
        }
        let region = self.node.region.to_string();
        let labels = [("region", region.as_str())];
        let metrics = MetricsRegistry::global();
        metrics
            .counter("wiera_anti_entropy_pulled", &labels)
            .add(total.pulled as u64);
        metrics
            .counter("wiera_anti_entropy_pushed", &labels)
            .add(total.pushed as u64);
        total
    }

    /// One anti-entropy exchange with one peer. Returns `(pulled, pushed)`,
    /// or `None` if the peer was unreachable.
    fn sync_with_peer(self: &Arc<Self>, peer: &NodeId) -> Option<(usize, usize)> {
        let msg = DataMsg::DigestRequest { shard: None };
        let bytes = msg.wire_bytes();
        let reply = match self.mesh.rpc(&self.node, peer, msg, bytes, DATA_TIMEOUT) {
            Ok(r) => r,
            Err(_) => return None,
        };
        let (entries, peer_epoch, peer_primary) = match reply.msg {
            DataMsg::DigestReply {
                entries,
                epoch,
                primary,
            } => (entries, epoch, primary),
            _ => return None,
        };
        // Rejoin at the deployment's current epoch: the fence that kept our
        // stale writes out now lets us back in. A deposed primary also
        // adopts the new leadership here — otherwise it would rejoin at the
        // current epoch still believing itself primary (split-brain).
        {
            let mut s = self.state.write();
            if peer_epoch > s.epoch {
                s.adopt(peer_epoch);
                if let Some(p) = peer_primary {
                    s.primary = Some(p);
                }
            }
        }
        let mine = self.digest_table();
        let want: Vec<String> = lacking(&entries, &mine)
            .into_iter()
            .map(|r| r.key.clone())
            .collect();
        let push: HashSet<&str> = lacking(&mine, &entries)
            .into_iter()
            .map(|l| l.key.as_str())
            .collect();
        let mut pulled = 0usize;
        if !want.is_empty() {
            let msg = DataMsg::FetchObjects { keys: want };
            let bytes = msg.wire_bytes();
            if let Ok(r) = self.mesh.rpc(&self.node, peer, msg, bytes, DATA_TIMEOUT) {
                if let DataMsg::SyncReply { objects } = r.msg {
                    pulled = self.apply_updates(&objects).0;
                }
            }
        }
        let mut pushed = 0usize;
        if !push.is_empty() {
            let items: Arc<[SyncObject]> = self.latest_objects(|key| push.contains(key)).into();
            let sent = self.replicate_sync(vec![peer.clone()], Arc::clone(&items));
            if !sent.failed {
                pushed = items.len();
            }
        }
        Some((pulled, pushed))
    }

    /// Failover election (§4.4): grab the deployment-wide coord lock,
    /// re-confirm the primary is still the suspect (a racing backup may
    /// already have won), probe the suspect one last time, then bump the
    /// epoch, take over, and broadcast [`DataMsg::ChangePrimary`]. The coord
    /// lock serializes racing backups; the epoch bump fences the deposed
    /// primary. Returns true if this node became the primary.
    pub fn run_election(self: &Arc<Self>, suspect: &NodeId) -> bool {
        let Some(coord) = self.coord_client() else {
            return false;
        };
        let Ok((guard, _)) = self.coord_lock(&coord, &election_path(&self.node)) else {
            return false;
        };
        // Re-check under the lock: a concurrent winner already re-pointed
        // the primary (and bumped the epoch) — nothing left to do.
        if self.primary().as_ref() != Some(suspect) {
            drop(guard);
            return false;
        }
        // One last probe: a slow-but-alive primary is not deposed.
        let ping = DataMsg::Ping;
        let bytes = ping.wire_bytes();
        if self
            .mesh
            .rpc(&self.node, suspect, ping, bytes, SimDuration::from_secs(30))
            .is_ok_and(|r| matches!(r.msg, DataMsg::Pong))
        {
            drop(guard);
            return false;
        }
        let epoch = {
            let mut s = self.state.write();
            s.epoch += 1;
            s.primary = Some(self.node.clone());
            s.epoch
        };
        let region = self.node.region.name();
        // Failover events are per shard group: a fleet runs one primary per
        // group, so the event names which group's leadership moved instead
        // of implying a deployment-global primary.
        let group_label = self
            .shard_group
            .map(|g| g.to_string())
            .unwrap_or_else(|| "-".into());
        MetricsRegistry::global().inc(
            "wiera_failovers",
            &[("region", region), ("group", group_label.as_str())],
        );
        let now = self.mesh.clock.now();
        Tracer::global()
            .span(now, "wiera", "failover")
            .region(region)
            .node(self.node.name.clone())
            .detail(format!(
                "deposed={suspect} epoch={epoch} group={group_label}"
            ))
            .finish(now);
        for peer in self.peers() {
            if peer == *suspect || peer == self.node {
                continue;
            }
            let msg = DataMsg::ChangePrimary {
                new_primary: self.node.clone(),
                epoch,
            };
            let bytes = msg.wire_bytes();
            let _ = self
                .mesh
                .rpc(&self.node, &peer, msg, bytes, SimDuration::from_secs(60));
        }
        drop(guard);
        true
    }

    fn note_fenced(&self, what: &str) {
        MetricsRegistry::global().inc("wiera_fenced_total", &[("msg", what)]);
    }

    /// The one epoch rule (§4.4), for every message that carries an epoch:
    /// one stamped below this replica's epoch comes from a deposed primary
    /// or a stale controller and is refused — counted under `what`, and
    /// answered with the returned `StaleEpoch` failure. One at or above it
    /// is admitted, and `install` runs on the protocol state under the same
    /// write lock, so no other epoch change can land between the test and
    /// what the message installs. A control message adopts its epoch there,
    /// with the primary or model that goes with it. A data message
    /// (`Replicate`, `ForwardPut`) only passes the fence: it carries no
    /// primary, and a deposed primary that took a newer epoch from one would
    /// then pass the fence it must fail.
    fn admit_epoch<T>(
        &self,
        epoch: u64,
        what: &'static str,
        install: impl FnOnce(&mut ProtoState) -> T,
    ) -> Result<T, OpFail> {
        let mut s = self.state.write();
        if epoch < s.epoch {
            let current = s.epoch;
            drop(s);
            self.note_fenced(what);
            return Err(OpFail::stale_epoch(epoch, current));
        }
        Ok(install(&mut s))
    }

    /// Adopt a peer list and primary at `epoch`, under the epoch rule.
    fn set_peers(
        &self,
        peers: Vec<NodeId>,
        primary: Option<NodeId>,
        epoch: u64,
    ) -> Result<(), OpFail> {
        self.admit_epoch(epoch, "set_peers", |s| {
            s.peers = peers.into_iter().filter(|p| *p != self.node).collect();
            s.primary = primary;
            s.adopt(epoch);
        })
    }

    // ---- fleet sharding (shard map slice, ownership, retirement) -----------

    /// Adopt a shard-map slice at `map_version`. Like epochs, versions are
    /// monotonic: a lower version than the installed one is a stale fleet
    /// manager and is refused with `WrongShard`.
    fn install_shards(
        &self,
        shards: Vec<u32>,
        num_shards: u32,
        vnodes: u32,
        map_version: u64,
    ) -> Result<(), (FailCode, String)> {
        // Rebuild the ring locally from parameters; `key_hash` is pinned,
        // so every party materializes the identical ring.
        let ring = ShardMap::new(num_shards, vnodes, 1)
            .map_err(|e| (FailCode::Internal, format!("bad shard parameters: {e}")))?;
        let mut view = self.shard_view.write();
        if let Some(v) = view.as_ref() {
            if map_version < v.version {
                return Err((
                    FailCode::WrongShard,
                    format!("stale shard map v{map_version} < v{}", v.version),
                ));
            }
        }
        *view = Some(ShardView {
            ring,
            owned: shards.into_iter().collect(),
            version: map_version,
        });
        Ok(())
    }

    /// Retire a moved shard: delete every local object belonging to it.
    /// Refused unless this replica has already adopted a map at or above
    /// `map_version` that no longer assigns it the shard — so a stale (or
    /// reordered) retire can never destroy data still being served.
    fn drop_shard(&self, shard: u32, map_version: u64) -> Result<usize, (FailCode, String)> {
        let view = self.shard_view.read();
        let Some(v) = view.as_ref() else {
            return Ok(0); // never sharded: nothing to retire
        };
        if map_version < v.version {
            return Err((
                FailCode::WrongShard,
                format!("stale retire v{map_version} < v{}", v.version),
            ));
        }
        if v.owned.contains(&shard) {
            return Err((
                FailCode::WrongShard,
                format!("still serving shard {shard} at map v{}", v.version),
            ));
        }
        let mut dropped = 0usize;
        for key in self.inst.meta().keys() {
            if v.ring.shard_of(&key) == shard {
                let _ = self.inst.remove(&key);
                dropped += 1;
            }
        }
        let region = self.node.region.to_string();
        MetricsRegistry::global()
            .counter("wiera_shard_retired_keys", &[("region", region.as_str())])
            .add(dropped as u64);
        Ok(dropped)
    }

    /// The `WrongShard` gate on the application path: with a shard view
    /// installed, any op whose key hashes outside this group's owned
    /// shards is refused whole (batches included — the client re-splits on
    /// a fresh map). Without a view (single-group deployments) every key
    /// is served, preserving pre-fleet behavior.
    fn wrong_shard_refusal(&self, msg: &DataMsg) -> Option<DataMsg> {
        let view = self.shard_view.read();
        let v = view.as_ref()?;
        let key = msg
            .op_keys()
            .into_iter()
            .find(|k| !v.owned.contains(&v.ring.shard_of(k)))?;
        let shard = v.ring.shard_of(key);
        let region = self.node.region.to_string();
        MetricsRegistry::global().inc("wiera_wrong_shard_total", &[("region", region.as_str())]);
        Some(DataMsg::Fail {
            code: FailCode::WrongShard,
            why: format!(
                "shard {shard} (key '{key}') not owned at map v{}",
                v.version
            ),
        })
    }

    /// Single-server admission: claim the next free service slot and wait
    /// until it completes. Models a saturable replica — under closed-loop
    /// load, throughput caps at `1/service_time` per replica, which is
    /// what makes fleet scaling measurable in sim time.
    fn claim_service_slot(&self, service_time: SimDuration) {
        let now = self.mesh.clock.now();
        let done = {
            let mut until = self.service_until.lock();
            let start = if *until > now { *until } else { now };
            *until = start + service_time;
            *until
        };
        self.mesh.clock.sleep(done.elapsed_since(now));
    }

    /// The CoDel standing-queue test: shed when the admission backlog has
    /// stayed above the configured target continuously for the configured
    /// interval. Transient bursts start the patience timer but are still
    /// admitted; a backlog that dips back under target resets it.
    fn should_shed(&self, now: SimInstant) -> bool {
        let Some(cfg) = self.overload else {
            return false;
        };
        let until = *self.service_until.lock();
        let backlog = if until > now {
            until.elapsed_since(now)
        } else {
            SimDuration::ZERO
        };
        let mut above = self.shed_above_since.lock();
        if backlog <= cfg.target_delay {
            *above = None;
            return false;
        }
        match *above {
            None => {
                *above = Some(now);
                false
            }
            Some(since) => now.elapsed_since(since) >= cfg.interval,
        }
    }

    /// Degraded read: answer an eventual-policy Get from local state
    /// without paying the admission queue. The reply is explicitly marked
    /// `degraded` and the history event carries `degraded=1`, so the
    /// consistency oracle knows this read opted out of freshness.
    fn degraded_get(&self, key: &str) -> Option<(DataMsg, SimDuration)> {
        let started = self.mesh.clock.now();
        let out = self.inst.get(key).ok()?;
        let value = out.value?;
        let region = self.node.region.name();
        MetricsRegistry::global().inc("wiera_degraded_reads_total", &[("region", region)]);
        self.record_history(
            "get",
            key,
            out.version,
            &value,
            true,
            started..started + out.latency,
        );
        let results = vec![ItemResult::Value {
            value,
            version: out.version,
            modified: out.modified,
            degraded: true,
        }];
        Some((DataMsg::MultiReply { results }, out.latency))
    }

    // ---- application operations ---------------------------------------------

    fn handle_app_op(self: &Arc<Self>, d: Delivery<DataMsg>, budget: OpBudget) -> Reply {
        self.gate.wait_open();
        let Delivery { msg: op, reply, .. } = d;
        let refusal = |code, why: &str, took_us| {
            let why = why.into();
            (
                DataMsg::Fail { code, why },
                SimDuration::from_micros(took_us),
            )
        };
        // A rejoining node refuses reads until anti-entropy has converged:
        // serving a pre-crash view would be a stale read the model forbids.
        if self.catching_up.load(Ordering::Acquire)
            && matches!(
                op,
                DataMsg::Get { .. } | DataMsg::GetVersion { .. } | DataMsg::GetVersionList { .. }
            )
        {
            let why = "rejoining: anti-entropy catch-up in progress";
            let (msg, took) = refusal(FailCode::Blocked, why, 200);
            return (reply, msg, took);
        }
        // Fleet routing enforcement: a key outside this group's owned
        // shards means the client routed on a stale map (or the shard is
        // mid-move) — refuse so it refreshes and re-routes.
        if let Some(fail) = self.wrong_shard_refusal(&op) {
            return (reply, fail, SimDuration::from_micros(200));
        }
        let region = self.node.region.name();
        // A spent budget fails fast, before any queueing or engine work.
        if budget
            .deadline
            .is_some_and(|dl| self.mesh.clock.now() >= dl)
        {
            MetricsRegistry::global().inc("wiera_deadline_exceeded_total", &[("region", region)]);
            let why = "op budget spent before admission";
            let (msg, took) = refusal(FailCode::DeadlineExceeded, why, 100);
            return (reply, msg, took);
        }
        // Admission control: replication and control traffic never comes
        // here; ForwardPut is protocol traffic that already
        // paid admission at the origin replica, so only direct client ops
        // are sheddable.
        let sheddable = !matches!(op, DataMsg::ForwardPut { .. });
        if sheddable && self.should_shed(self.mesh.clock.now()) {
            // A client that tolerates staleness gets a local answer instead
            // of a refusal (eventual policy only — under a strong model a
            // stale local read would violate the consistency contract).
            if budget.allow_degraded && matches!(self.consistency(), ConsistencyModel::Eventual) {
                if let DataMsg::Get { keys } = &op {
                    let degraded = match keys.as_slice() {
                        [key] => self.degraded_get(key),
                        _ => None,
                    };
                    if let Some((msg, took)) = degraded {
                        return (reply, msg, took);
                    }
                }
            }
            MetricsRegistry::global().inc("wiera_shed_total", &[("region", region)]);
            let why = "admission backlog above target; retry elsewhere";
            let (msg, took) = refusal(FailCode::Overloaded, why, 100);
            return (reply, msg, took);
        }
        if let Some(service_time) = self.service_time {
            self.claim_service_slot(service_time);
            // The queue wait may have burned the whole budget; drop the op
            // now rather than doing work nobody is waiting for.
            if budget
                .deadline
                .is_some_and(|dl| self.mesh.clock.now() >= dl)
            {
                MetricsRegistry::global()
                    .inc("wiera_deadline_exceeded_total", &[("region", region)]);
                let why = "op budget spent waiting for admission";
                let (msg, took) = refusal(FailCode::DeadlineExceeded, why, 100);
                return (reply, msg, took);
            }
        }
        let (msg, took) = tiera::deadline::with_deadline(budget.deadline, || match op {
            DataMsg::Put { items } => {
                let (results, took) = self.write_items(&items, None);
                (item_reply(results), took)
            }
            DataMsg::ForwardPut {
                items,
                origin,
                epoch,
            } => match self.admit_epoch(epoch, "forward_put", |_| ()) {
                Ok(()) => {
                    let (results, took) = self.write_items(&items, Some(origin));
                    (DataMsg::MultiReply { results }, took)
                }
                // A backup that has not heard about the failover yet
                // forwards at a stale epoch; refuse so it re-routes.
                Err(fail) => (fail.into_msg(), SimDuration::from_millis(1)),
            },
            DataMsg::Get { keys } => {
                let (results, took) = self.read_keys(&keys, None);
                (item_reply(results), took)
            }
            DataMsg::GetVersion { key, version } => {
                let (results, took) = self.read_keys(&[key], Some(version));
                (item_reply(results), took)
            }
            DataMsg::GetVersionList { key } => match self.inst.get_version_list(&key) {
                Ok(versions) => (
                    DataMsg::VersionList { versions },
                    SimDuration::from_micros(300),
                ),
                Err(e) => (
                    DataMsg::Fail {
                        code: fail_code(&e),
                        why: e.to_string(),
                    },
                    SimDuration::from_micros(300),
                ),
            },
            DataMsg::Update {
                key,
                version,
                value,
            } => match self.inst.update(&key, version, value) {
                Ok(out) => {
                    let results = vec![ItemResult::Put {
                        version: out.version,
                    }];
                    (item_reply(results), out.latency)
                }
                Err(e) => (
                    DataMsg::Fail {
                        code: fail_code(&e),
                        why: e.to_string(),
                    },
                    SimDuration::from_millis(1),
                ),
            },
            DataMsg::Remove { key } => match self.inst.remove(&key) {
                Ok(()) => (DataMsg::Removed, SimDuration::from_millis(1)),
                Err(e) => (
                    DataMsg::Fail {
                        code: fail_code(&e),
                        why: e.to_string(),
                    },
                    SimDuration::from_millis(1),
                ),
            },
            DataMsg::RemoveVersion { key, version } => {
                match self.inst.remove_version(&key, version) {
                    Ok(()) => (DataMsg::Removed, SimDuration::from_millis(1)),
                    Err(e) => (
                        DataMsg::Fail {
                            code: fail_code(&e),
                            why: e.to_string(),
                        },
                        SimDuration::from_millis(1),
                    ),
                }
            }
            other => (
                DataMsg::Fail {
                    code: FailCode::Internal,
                    why: format!("not an app op: {other:?}"),
                },
                SimDuration::ZERO,
            ),
        });
        // Sent by `pool_thread`: at once, or after parking if the op blocked.
        (reply, msg, took)
    }

    // ---- the pool -------------------------------------------------------------

    /// Give generation `gen`'s inbox to the last thread to park, or to a new
    /// one (`Ok(true)`). Popping a mailbox under the set's lock is the claim:
    /// that thread can neither be given a second inbox nor retire. A halted
    /// node's inbox is dropped; one no thread can start for comes back.
    fn hand_on(self: &Arc<Self>, gen: u64, inbox: Inbox) -> Result<bool, Inbox> {
        let (claimed, refuse) = {
            let mut pool = self.pool.lock();
            if !self.live(gen) {
                return Ok(false);
            }
            (pool.parked.pop(), pool.refuse_spawns)
        };
        let started = claimed.is_none();
        let mailbox = match claimed {
            // A parked thread is blocked on its mailbox and cannot be gone.
            Some((_, mailbox)) => mailbox,
            None => {
                let (mailbox, handed) = crossbeam::channel::unbounded();
                let r = self.clone();
                let spawned = if refuse {
                    Err(std::io::Error::other("injected: no thread"))
                } else {
                    std::thread::Builder::new()
                        .name("replica-pool".into())
                        .spawn(move || r.pool_thread(gen, handed))
                };
                if let Err(e) = spawned {
                    let labels = [("region", self.node.region.name())];
                    MetricsRegistry::global().inc("wiera_worker_spawn_errors", &labels);
                    eprintln!("replica {}: cannot spawn pool thread: {e}", self.node);
                    return Err(inbox);
                }
                mailbox
            }
        };
        let _ = mailbox.send(Handoff {
            inbox,
            mailbox: mailbox.clone(),
        });
        Ok(started)
    }

    /// True while generation `gen` is the running one.
    fn live(&self, gen: u64) -> bool {
        !self.stop.load(Ordering::Acquire) && self.generation.load(Ordering::Acquire) == gen
    }

    /// Body of a pool thread of generation `gen`: lead each inbox it is handed
    /// until a handler blocks (then park, reply, and wait to lead again until
    /// the idle period passes) or the node halts.
    fn pool_thread(self: Arc<Self>, gen: u64, handed: crossbeam::channel::Receiver<Handoff>) {
        let me = std::thread::current().id();
        let mut next = handed.recv().ok();
        while let Some(Handoff { mut inbox, mailbox }) = next.take() {
            let reply = loop {
                if !self.live(gen) {
                    return;
                }
                let d = match inbox.recv_timeout(std::time::Duration::from_millis(50)) {
                    Ok(d) => d,
                    Err(crossbeam::channel::RecvTimeoutError::Timeout) => continue,
                    Err(crossbeam::channel::RecvTimeoutError::Disconnected) => return,
                };
                let lead = Lead::arm(inbox, &self, gen);
                let reply = self.dispatch(d);
                // Still held: the handler never blocked. Answer and lead on.
                let Some(kept) = lead.held.take() else {
                    break reply;
                };
                answer(reply);
                inbox = kept;
            };
            let idle = {
                // `halt` sets `stop` and then empties the set under this
                // lock, so a thread either parks before that and is released
                // by it, or sees the flag here: a stopped or restarted node
                // keeps no thread of an older generation.
                let mut pool = self.pool.lock();
                self.live(gen).then(|| {
                    pool.parked.push((me, mailbox));
                    pool.idle.unwrap_or(WORKER_IDLE)
                })
            };
            // The reply goes out only now, when this thread can already be
            // claimed: the next op blocking at the instant its caller hears
            // back finds it parked instead of forcing a new thread.
            answer(reply);
            let Some(idle) = idle else { return };
            next = match handed.recv_timeout(idle) {
                Ok(handoff) => Some(handoff),
                Err(_) => {
                    // Retiring and being claimed exclude each other under the
                    // lock: if this thread's entry is gone, whoever took it
                    // is sending an inbox or has dropped the mailbox.
                    let retired = {
                        let mut pool = self.pool.lock();
                        let at = pool.parked.iter().position(|(id, _)| *id == me);
                        at.map(|i| pool.parked.remove(i)).is_some()
                    };
                    if retired {
                        None
                    } else {
                        handed.recv().ok()
                    }
                }
            };
        }
    }

    /// Application put under the current consistency model — the one write
    /// path. A single put is a batch of one: `items` is the whole op,
    /// `origin` the backup that forwarded it (`None` when a client sent it
    /// here). Returns per-item results in request order and the modeled
    /// latency the caller perceives. A failure of the op as a whole (no
    /// coordinator, no primary, forwarding failure) fails every item with
    /// the same code; an engine error fails only its own item.
    fn write_items(
        &self,
        items: &[PutItem],
        origin: Option<NodeId>,
    ) -> (Vec<ItemResult>, SimDuration) {
        let started = self.mesh.clock.now();
        let forwarded = origin.is_some();
        // Requests-monitor accounting (Fig. 8): direct vs forwarded-by-origin.
        match origin {
            None => stamp_window(&mut self.direct_puts.lock(), started, items.len()),
            Some(origin) => stamp_window(
                self.forwarded_puts.lock().entry(origin).or_default(),
                started,
                items.len(),
            ),
        }
        let model = self.consistency();
        let (results, took) = self
            .write_under(model, items, forwarded)
            .unwrap_or_else(|f| {
                (
                    batch_failure(items.len(), f.code, &f.why),
                    SimDuration::ZERO,
                )
            });
        let ok = results
            .iter()
            .filter(|r| matches!(r, ItemResult::Put { .. }))
            .count() as u64;
        // An op that acknowledged nothing is charged the flat refusal cost.
        let took = if ok == 0 {
            SimDuration::from_millis(1)
        } else {
            took
        };
        // A put is counted where the client asked for it; the primary's half
        // of a forwarded put only leaves its history span.
        if !forwarded {
            let slot = model_slot(model);
            let labels = || [model.to_string(), self.node.region.to_string()];
            let failed = results.len() as u64 - ok;
            if failed > 0 {
                let errors = self.op_counts.put_errors[slot].get_or_init(|| {
                    let [model, region] = labels();
                    let labels = [("consistency", model.as_str()), ("region", region.as_str())];
                    MetricsRegistry::global().counter("wiera_put_errors", &labels)
                });
                errors.add(failed);
            }
            if ok > 0 {
                let puts = self.op_counts.puts[slot].get_or_init(|| {
                    let [model, region] = labels();
                    let labels = [("consistency", model.as_str()), ("region", region.as_str())];
                    let metrics = MetricsRegistry::global();
                    OpSeries {
                        total: metrics.counter("wiera_put_total", &labels),
                        latency: metrics.histogram("wiera_put_latency", &labels),
                    }
                });
                puts.record(ok, took);
                let now = self.mesh.clock.now();
                let mut window = self.put_window.lock();
                window.push_back((now, took.as_millis_f64()));
                trim_window(&mut window, now, |(t, _)| *t);
            }
        }
        // One span per written item per serving node: on a forwarded put the
        // oracle merges the backup's outer span with the primary's inner
        // one, the only evidence the primary holds the version.
        let label = if items.len() == 1 { "put" } else { "mput" };
        for (item, res) in items.iter().zip(&results) {
            if let ItemResult::Put { version } = res {
                let interval = started..started + took;
                self.record_history(label, &item.key, *version, &item.value, false, interval);
            }
        }
        (results, took)
    }

    /// The protocol decision of a put, made once for the whole op (Figs.
    /// 3–4). Multi-primaries: global key locks → local write → synchronous
    /// copy → release. Primary-backup: the primary (or whoever a backup
    /// forwarded to — a forwarded put is applied, never forwarded again)
    /// writes locally and copies synchronously or queues; a backup
    /// forwards. Eventual: local write + queue.
    fn write_under(
        &self,
        model: ConsistencyModel,
        items: &[PutItem],
        forwarded: bool,
    ) -> Result<(Vec<ItemResult>, SimDuration), OpFail> {
        let mut guards = Vec::new();
        let mut lock_cost = SimDuration::ZERO;
        let sync = match model {
            // A forwarded put is applied here whatever this node believes
            // of itself; one that raced a switch away from primary-backup
            // is queued like an eventual write.
            _ if forwarded => model == ConsistencyModel::PrimaryBackup { sync: true },
            ConsistencyModel::PrimaryBackup { sync } if self.is_primary() => sync,
            ConsistencyModel::PrimaryBackup { .. } => return self.forward(items),
            ConsistencyModel::MultiPrimaries => {
                let coord = self
                    .coord_client()
                    .ok_or_else(|| OpFail::blocked("multi-primaries requires a coordinator"))?;
                // Every distinct key in sorted order: a total order across
                // concurrent writers, so overlapping batches cannot deadlock.
                let mut keys: Vec<&str> = items.iter().map(|i| i.key.as_str()).collect();
                keys.sort_unstable();
                keys.dedup();
                for key in keys {
                    let (guard, cost) = self
                        .coord_lock(&coord, &format!("/keys/{key}"))
                        .map_err(|e| OpFail::blocked(format!("lock: {e}")))?;
                    guards.push(guard);
                    lock_cost += cost;
                }
                true
            }
            ConsistencyModel::Eventual => false,
        };
        let (mut results, written, engine) = self.write_local(items);
        let copy = if sync {
            let written: Arc<[SyncObject]> = written.into();
            let bcast = self.replicate_sync(self.peers(), Arc::clone(&written));
            if bcast.fenced {
                // Deposed (§4.4): a peer at a higher epoch refused the copy.
                // Undo the never-acknowledged local writes so they cannot
                // resurface through reads or anti-entropy, and fail each
                // written item so the client retries at the elected primary.
                for w in written.iter() {
                    let _ = self.inst.remove_version(&w.key, w.version);
                }
                self.note_fenced(if items.len() == 1 {
                    "deposed_put"
                } else {
                    "deposed_mput"
                });
                for r in results.iter_mut() {
                    if matches!(r, ItemResult::Put { .. }) {
                        *r = ItemResult::Err {
                            code: FailCode::StaleEpoch,
                            why: "fenced: this node's epoch is stale".into(),
                        };
                    }
                }
            }
            bcast.latency
        } else {
            self.queue.lock().extend(written);
            SimDuration::ZERO
        };
        drop(guards); // asynchronous release, off the latency path
        Ok((results, lock_cost + engine + copy))
    }

    /// Arity leaf 1 of 2: write `items` into the local instance — `put` for
    /// one, one `apply_batch` engine pass for many. Returns per-item
    /// results, the objects written (the replication payload) and the
    /// engine latency.
    fn write_local(&self, items: &[PutItem]) -> (Vec<ItemResult>, Vec<SyncObject>, SimDuration) {
        let (outs, engine) = match items {
            [one] => {
                let out = self.inst.put(&one.key, one.value.clone());
                let engine = out.as_ref().map_or(SimDuration::ZERO, |o| o.latency);
                (vec![out], engine)
            }
            _ => {
                let ops: Vec<BatchOp> = items
                    .iter()
                    .map(|i| BatchOp::Put {
                        key: i.key.clone(),
                        value: i.value.clone(),
                    })
                    .collect();
                self.inst.apply_batch(&ops)
            }
        };
        let mut results = Vec::with_capacity(outs.len());
        let mut written = Vec::with_capacity(outs.len());
        for (item, out) in items.iter().zip(outs) {
            match out {
                Ok(o) => {
                    results.push(ItemResult::Put { version: o.version });
                    written.push(SyncObject {
                        key: item.key.clone(),
                        version: o.version,
                        modified: o.modified,
                        value: item.value.clone(),
                    });
                }
                Err(e) => results.push(ItemResult::Err {
                    code: fail_code(&e),
                    why: e.to_string(),
                }),
            }
        }
        (results, written, engine)
    }

    /// Arity leaf 2 of 2 (Fig. 3(b), non-primary side): forward the whole
    /// op to the primary as one `ForwardPut` and relay its per-item answer.
    fn forward(&self, items: &[PutItem]) -> Result<(Vec<ItemResult>, SimDuration), OpFail> {
        let primary = self
            .primary()
            .ok_or_else(|| OpFail::blocked("no primary configured"))?;
        let msg = DataMsg::ForwardPut {
            items: items.to_vec(),
            origin: self.node.clone(),
            epoch: self.epoch(),
        };
        let bytes = msg.wire_bytes();
        self.stats.egress_bytes.fetch_add(bytes, Ordering::Relaxed);
        let reply = self
            .mesh
            .rpc(&self.node, &primary, msg, bytes, DATA_TIMEOUT)
            .map_err(|e| OpFail::blocked(format!("forward failed: {e}")))?;
        let total = reply.total();
        match reply.msg {
            DataMsg::MultiReply { results } => Ok((results, total)),
            DataMsg::Fail { code, why } => Err(OpFail::new(code, why)),
            other => Err(OpFail::internal(format!("bad forward reply {other:?}"))),
        }
    }

    /// Copy `items` to `peers` and wait for every ack: one `Replicate` at
    /// the current epoch, shared by refcount across the sends, in one
    /// gather on this thread — a synchronous put's copy to every peer, a
    /// flush of the update queue, an anti-entropy push to one peer. Latency
    /// is the slowest peer. `fenced` in the outcome means a peer at a higher
    /// epoch refused us — we are a deposed primary and a write must not be
    /// acknowledged; `failed`, that some peer did not apply the items.
    fn replicate_sync(&self, peers: Vec<NodeId>, items: Arc<[SyncObject]>) -> BroadcastOutcome {
        if peers.is_empty() || items.is_empty() {
            return BroadcastOutcome::default();
        }
        let msg = DataMsg::Replicate {
            items,
            epoch: self.epoch(),
        };
        let bytes = msg.wire_bytes();
        // Egress is counted where a request is posted, as for a forwarded
        // put: the bytes leave whether or not an ack ever comes back.
        self.stats
            .egress_bytes
            .fetch_add(bytes * peers.len() as u64, Ordering::Relaxed);
        let calls = peers.into_iter().map(|p| (p, msg.clone())).collect();
        let mut out = BroadcastOutcome::default();
        for reply in self.mesh.rpc_gather(&self.node, calls, bytes, DATA_TIMEOUT) {
            let settled = reply.ok().and_then(|r| match &r.msg {
                DataMsg::ReplicateAck { .. } => Some((r.total(), false)),
                DataMsg::Fail {
                    code: FailCode::StaleEpoch,
                    ..
                } => Some((r.total(), true)),
                // Anything else means the peer did not apply the items;
                // count it like a transport failure.
                _ => None,
            });
            match settled {
                Some((total, fenced)) => {
                    out.latency = out.latency.max(total);
                    out.fenced |= fenced;
                }
                None => {
                    out.failed = true;
                    self.stats
                        .replication_failures
                        .fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        out
    }

    /// Application get — the one read path. A single get is a batch of one:
    /// `keys` is the whole op, `version` pins an explicit version (single
    /// ops only; `None` reads the latest). Served locally, or forwarded
    /// whole when the deployment routes gets elsewhere (§5.4's "all get
    /// operations forwarded to the AWS instance's memory tier"). A missing
    /// key fails only its own item.
    fn read_keys(&self, keys: &[String], version: Option<u64>) -> (Vec<ItemResult>, SimDuration) {
        let started = self.mesh.clock.now();
        // Clone the route and release the lock before any network hop: the
        // guard would otherwise stay alive across the forwarded RPC,
        // stalling route updates for the call's duration.
        let target = self.forward_gets_to.read().clone();
        let (route, (results, took)) = match target.filter(|t| *t != self.node) {
            Some(target) => (1, self.read_forwarded(&target, keys, version)),
            None => (0, self.read_local(keys, version)),
        };
        let ok = results
            .iter()
            .filter(|r| matches!(r, ItemResult::Value { .. }))
            .count() as u64;
        // An op that answered nothing is charged the flat refusal cost.
        let took = if ok == 0 {
            SimDuration::from_millis(1)
        } else {
            took
        };
        let region = || self.node.region.to_string();
        let route_label = ["local", "forwarded"][route];
        let failed = results.len() as u64 - ok;
        if failed > 0 {
            let errors = self.op_counts.get_errors[route].get_or_init(|| {
                let region = region();
                let labels = [("region", region.as_str()), ("route", route_label)];
                MetricsRegistry::global().counter("wiera_get_errors", &labels)
            });
            errors.add(failed);
        }
        if ok > 0 {
            let gets = self.op_counts.gets[route].get_or_init(|| {
                let region = region();
                let labels = [("region", region.as_str()), ("route", route_label)];
                let metrics = MetricsRegistry::global();
                OpSeries {
                    total: metrics.counter("wiera_get_total", &labels),
                    latency: metrics.histogram("wiera_get_latency", &labels),
                }
            });
            gets.record(ok, took);
        }
        // Reads of the latest version enter the consistency history; a read
        // of an explicitly named old version promises no freshness.
        if version.is_none() {
            let label = if keys.len() == 1 { "get" } else { "mget" };
            for (key, res) in keys.iter().zip(&results) {
                if let ItemResult::Value { value, version, .. } = res {
                    let interval = started..started + took;
                    self.record_history(label, key, *version, value, false, interval);
                }
            }
        }
        (results, took)
    }

    /// Local half of the read path and its arity leaf: `get`/`get_version`
    /// for one key, one `apply_batch` engine pass for many.
    fn read_local(&self, keys: &[String], version: Option<u64>) -> (Vec<ItemResult>, SimDuration) {
        let (outs, took) = match keys {
            [key] => {
                let out = match version {
                    Some(v) => self.inst.get_version(key, v),
                    None => self.inst.get(key),
                };
                let took = out.as_ref().map_or(SimDuration::ZERO, |o| o.latency);
                (vec![out], took)
            }
            _ => {
                let ops: Vec<BatchOp> = keys
                    .iter()
                    .map(|k| BatchOp::Get { key: k.clone() })
                    .collect();
                self.inst.apply_batch(&ops)
            }
        };
        let results = keys
            .iter()
            .zip(outs)
            .map(|(key, out)| match out {
                Ok(o) => match o.value {
                    Some(value) => ItemResult::Value {
                        value,
                        version: o.version,
                        modified: o.modified,
                        degraded: false,
                    },
                    None => ItemResult::Err {
                        code: FailCode::Internal,
                        why: format!("get '{key}' returned metadata but no bytes"),
                    },
                },
                Err(e) => ItemResult::Err {
                    code: fail_code(&e),
                    why: e.to_string(),
                },
            })
            .collect();
        (results, took)
    }

    /// Forwarded half of the read path: the op forwarded whole, one `Get`
    /// (or a `GetVersion` for a pinned version).
    fn read_forwarded(
        &self,
        target: &NodeId,
        keys: &[String],
        version: Option<u64>,
    ) -> (Vec<ItemResult>, SimDuration) {
        let msg = match (keys, version) {
            ([key], Some(version)) => DataMsg::GetVersion {
                key: key.clone(),
                version,
            },
            _ => DataMsg::Get {
                keys: keys.to_vec(),
            },
        };
        let bytes = msg.wire_bytes();
        let fail = |code, why: String| batch_failure(keys.len(), code, &why);
        match self.mesh.rpc(&self.node, target, msg, bytes, DATA_TIMEOUT) {
            Ok(r) => {
                let total = r.total();
                let results = match r.msg {
                    DataMsg::MultiReply { results } => results,
                    DataMsg::Fail { code, why } => fail(code, why),
                    other => fail(FailCode::Internal, format!("bad get reply {other:?}")),
                };
                (results, total)
            }
            Err(e) => (
                fail(FailCode::Blocked, format!("forwarded get failed: {e}")),
                SimDuration::ZERO,
            ),
        }
    }

    /// Emit one consistency-history event on the sim-time axis. The
    /// `wiera-check` oracle reconstructs operation intervals from these
    /// `subsystem = "history"` trace events and checks them against the
    /// deployment's deduced consistency model. A `degraded` read is marked
    /// `degraded=1`: it opted out of freshness.
    fn record_history(
        &self,
        op: &'static str,
        key: &str,
        version: u64,
        value: &Bytes,
        degraded: bool,
        interval: Range<SimInstant>,
    ) {
        Tracer::global()
            .span(interval.start, "history", op)
            .region(self.node.region.name())
            .node(self.node.name.clone())
            .object(key, version, value_digest(value), degraded)
            .finish(interval.end);
    }

    // ---- direct (in-process) API for deployments and tests -----------------

    /// Install peers/primary directly (used by the deployment layer when the
    /// controller and replica share a process). A stale `epoch` is ignored.
    pub fn set_peers_direct(&self, peers: Vec<NodeId>, primary: Option<NodeId>, epoch: u64) {
        let _ = self.set_peers(peers, primary, epoch);
    }
}

/// An answer on its way back to the caller, if one waits for it.
type Reply = (Option<wiera_net::ReplySlot<DataMsg>>, DataMsg, SimDuration);

/// Send an answer, if a caller waits for it.
fn answer((slot, msg, took): Reply) {
    if let Some(slot) = slot {
        let bytes = msg.wire_bytes();
        slot.reply(msg, took, bytes);
    }
}

/// The inbox of one node generation; the pool thread holding it leads.
type Inbox = crossbeam::channel::Receiver<Delivery<DataMsg>>;

/// What a parked pool thread receives: the inbox, and its own mailbox back
/// to park on again. The sender in the set is the only one while a thread is
/// parked, so emptying the set releases every parked thread.
struct Handoff {
    inbox: Inbox,
    mailbox: crossbeam::channel::Sender<Handoff>,
}

/// The inbox while its leader handles a delivery, with the block hook
/// armed to hand it on. Dropping the guard runs a hook still armed, which
/// hands on the inbox of an op that unwound before it blocked.
struct Lead {
    held: Rc<Cell<Option<Inbox>>>,
}

impl Lead {
    /// Hold `inbox` as `node`'s leader of generation `gen`, the hook armed.
    fn arm(inbox: Inbox, node: &Arc<ReplicaNode>, gen: u64) -> Lead {
        let held = Rc::new(Cell::new(Some(inbox)));
        let (hook_held, node) = (held.clone(), node.clone());
        wiera_sim::block::set(move || {
            let Some(inbox) = hook_held.take() else {
                return;
            };
            match node.hand_on(gen, inbox) {
                // No thread to take it: lead on, blocked.
                Err(inbox) => hook_held.set(Some(inbox)),
                Ok(started) => {
                    node.stats.handoffs.fetch_add(1, Ordering::Relaxed);
                    if started {
                        node.stats.worker_spawns.fetch_add(1, Ordering::Relaxed);
                        let labels = [("region", node.node.region.name())];
                        MetricsRegistry::global().inc("wiera_worker_spawns_total", &labels);
                    }
                }
            }
        });
        Lead { held }
    }
}

impl Drop for Lead {
    fn drop(&mut self) {
        wiera_sim::block::before_block();
    }
}

/// How long a parked pool thread waits to lead before it retires. Only
/// bounds how long a burst's extra threads linger: a halting node releases
/// its parked threads at once, and a parked thread costs nothing but its
/// stack.
const WORKER_IDLE: std::time::Duration = std::time::Duration::from_secs(1);

/// The replica's parked pool threads.
#[derive(Default)]
struct Pool {
    /// Mailboxes of the threads waiting to lead, most recently parked last.
    parked: Vec<(std::thread::ThreadId, crossbeam::channel::Sender<Handoff>)>,
    /// Replaces [`WORKER_IDLE`] for threads parking from now on (tests only).
    idle: Option<std::time::Duration>,
    /// Fail every thread start, as an OS out of threads would (tests only).
    refuse_spawns: bool,
}

/// Slowest-peer latency of a synchronous replication fan-out, whether any
/// peer fenced us as a stale-epoch (deposed) sender, and whether any peer
/// failed to apply it.
#[derive(Debug, Clone, Copy, Default)]
struct BroadcastOutcome {
    latency: SimDuration,
    fenced: bool,
    failed: bool,
}

/// What an anti-entropy round moved (§4.4 rejoin catch-up).
#[derive(Debug, Clone, Default)]
pub struct AntiEntropyReport {
    /// Objects pulled because the local copy was missing or older.
    pub pulled: usize,
    /// Surviving local objects pushed because the peer's copy was older.
    pub pushed: usize,
    /// The peer diffed against, if one was reachable.
    pub peer: Option<NodeId>,
}

/// Coord lease znode for a replica: `/leases/{deployment}/{name}` (the node
/// name already carries the deployment prefix).
pub fn lease_path(node: &NodeId) -> String {
    format!("/leases/{}", node.name)
}

/// Coord election lock for the deployment a replica belongs to.
pub fn election_path(node: &NodeId) -> String {
    let deployment = node.name.split('/').next().unwrap_or("");
    format!("/election/{deployment}")
}

/// Map an engine error to its wire-level failure kind.
fn fail_code(e: &TieraError) -> FailCode {
    match e {
        TieraError::NotFound(_) => FailCode::NotFound,
        TieraError::VersionNotFound(..) => FailCode::VersionMissing,
        TieraError::DeadlineExceeded => FailCode::DeadlineExceeded,
        _ => FailCode::Internal,
    }
}

/// A client op's answer: its per-item results, except that an op of one
/// item whose item failed answers `Fail`, so the client's failover loop
/// acts on the refusal (it retries a `StaleEpoch`, for one).
fn item_reply(mut results: Vec<ItemResult>) -> DataMsg {
    match results.as_mut_slice() {
        [ItemResult::Err { code, why }] => DataMsg::Fail {
            code: *code,
            why: std::mem::take(why),
        },
        _ => DataMsg::MultiReply { results },
    }
}

/// Stamp `n` puts at `at` into a requests-monitor window.
fn stamp_window(window: &mut VecDeque<SimInstant>, at: SimInstant, n: usize) {
    window.extend(std::iter::repeat_n(at, n));
    trim_window(window, at, |t| *t);
}

/// Drop what has aged out of a time-ordered monitor window: every window
/// keeps [`WINDOW_RETENTION`] and no more, however long the replica runs.
fn trim_window<T>(window: &mut VecDeque<T>, now: SimInstant, at: impl Fn(&T) -> SimInstant) {
    let cutoff = now - WINDOW_RETENTION;
    while window.front().is_some_and(|e| at(e) < cutoff) {
        window.pop_front();
    }
}

/// Fan an op-level failure out to every item of the op.
fn batch_failure(len: usize, code: FailCode, why: &str) -> Vec<ItemResult> {
    (0..len)
        .map(|_| ItemResult::Err {
            code,
            why: why.to_string(),
        })
        .collect()
}

/// Replicated objects as the engine's batch entry takes them.
fn replicated(objects: &[SyncObject]) -> Vec<Replicated<'_>> {
    objects
        .iter()
        .map(|o| Replicated {
            key: &o.key,
            version: o.version,
            modified: o.modified,
            value: &o.value,
        })
        .collect()
}

/// Digest of a value body, so history events and anti-entropy tables carry
/// a compact, comparable fingerprint of what was written or read. The body
/// is read eight bytes at a time, the last word zero-padded, into a state
/// seeded with the length. A step is a bijection of the state for a fixed
/// word and of the word for a fixed state, and so is the finalizer: two
/// bodies of one word count cannot collide if they have the same length and
/// differ in one word, or the same words and different lengths.
fn value_digest(value: &Bytes) -> u64 {
    let absorb = |h: u64, word: [u8; 8]| {
        (h.rotate_left(5) ^ u64::from_le_bytes(word)).wrapping_mul(0x9e37_79b9_7f4a_7c15)
    };
    let mut words = value.chunks_exact(8);
    let mut h = value.len() as u64;
    for word in &mut words {
        h = absorb(h, word.try_into().unwrap_or_default());
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut word = [0u8; 8];
        word[..tail.len()].copy_from_slice(tail);
        h = absorb(h, word);
    }
    // Murmur3's 64-bit finalizer, so every input bit reaches every output bit.
    h = (h ^ (h >> 33)).wrapping_mul(0xff51_afd7_ed55_8ccd);
    h = (h ^ (h >> 33)).wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// Result of a client-visible operation, with the modeled latency the
/// application perceived.
#[derive(Debug, Clone)]
pub struct OpView {
    pub version: u64,
    pub value: Option<Bytes>,
    pub modified: SimInstant,
    pub latency: SimDuration,
    pub served_by: NodeId,
    /// The value was served degraded (possibly stale; eventual policy under
    /// overload, with the client's explicit consent). Always `false` for
    /// writes and for reads served normally.
    pub degraded: bool,
}

/// Historical name for the unified [`crate::errors::WieraError`], kept so
/// replica-layer signatures keep reading as application errors.
pub use crate::errors::WieraError as AppError;

/// Translate a replica's reply to a single-key op into the client-visible
/// [`OpView`], the one place where wire messages become typed results
/// (shared by [`app_rpc`] and `WieraClient`). A put or get of one is
/// answered with one item, which [`view_of_item`] reads.
pub(crate) fn view_of_reply(
    msg: DataMsg,
    latency: SimDuration,
    served_by: &NodeId,
) -> Result<OpView, AppError> {
    let version = match msg {
        DataMsg::MultiReply { mut results } if results.len() == 1 => {
            return view_of_item(results.remove(0), latency, served_by);
        }
        DataMsg::VersionList { versions } => versions.last().copied().unwrap_or(0),
        DataMsg::Removed | DataMsg::Ok => 0,
        DataMsg::Fail { code, why } => return Err(AppError::Remote { code, why }),
        other => return Err(AppError::internal(format!("unexpected reply {other:?}"))),
    };
    // The rest carry no value: they read like an ack of `version`.
    view_of_item(ItemResult::Put { version }, latency, served_by)
}

/// Translate one item of a reply into an [`OpView`]. The latency is the
/// whole op's round trip: every item completed when the op did.
pub(crate) fn view_of_item(
    item: ItemResult,
    latency: SimDuration,
    served_by: &NodeId,
) -> Result<OpView, AppError> {
    let (version, value, modified, degraded) = match item {
        ItemResult::Put { version } => (version, None, SimInstant::EPOCH, false),
        ItemResult::Value {
            value,
            version,
            modified,
            degraded,
        } => (version, Some(value), modified, degraded),
        ItemResult::Err { code, why } => return Err(AppError::Remote { code, why }),
    };
    Ok(OpView {
        version,
        value,
        modified,
        latency,
        served_by: served_by.clone(),
        degraded,
    })
}

/// Send an RPC to a replica as an application would, translating the reply.
/// Used by the client layer and by tests.
pub fn app_rpc(
    mesh: &Arc<Mesh<DataMsg>>,
    from: &NodeId,
    to: &NodeId,
    msg: DataMsg,
) -> Result<OpView, AppError> {
    let bytes = msg.wire_bytes();
    let reply = mesh
        .rpc(from, to, msg, bytes, DATA_TIMEOUT)
        .map_err(AppError::Net)?;
    let latency = reply.total();
    view_of_reply(reply.msg, latency, to)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wiera_net::{Fabric, NetError, Region, RpcReply};
    use wiera_sim::ScaledClock;

    fn mesh(scale: f64) -> Arc<Mesh<DataMsg>> {
        Mesh::new(
            Arc::new(Fabric::multicloud(5).without_jitter()),
            ScaledClock::shared(scale),
        )
    }

    /// The configuration every test replica starts from; `tier1_bytes` is
    /// the memory tier's capacity (an object larger than it fails its put).
    fn config(
        region: Region,
        name: &str,
        consistency: ConsistencyModel,
        tier1_bytes: u64,
    ) -> ReplicaConfig {
        ReplicaConfig {
            node: NodeId::new(region, name),
            instance: InstanceConfig::new(name, region)
                .with_tier("tier1", "Memcached", tier1_bytes)
                .with_tier("tier2", "EBS", 1 << 30)
                .with_sleep(true, false),
            consistency,
            flush_interval: SimDuration::from_millis(200),
            coord: None,
            forward_gets_to: None,
            shard_group: None,
            service_time: None,
            overload: None,
        }
    }

    fn spawn(mesh: &Arc<Mesh<DataMsg>>, config: ReplicaConfig) -> Arc<ReplicaNode> {
        ReplicaNode::spawn(mesh.clone(), config).expect("replica spawns")
    }

    fn replica(
        mesh: &Arc<Mesh<DataMsg>>,
        region: Region,
        name: &str,
        consistency: ConsistencyModel,
    ) -> Arc<ReplicaNode> {
        spawn(mesh, config(region, name, consistency, 1 << 30))
    }

    fn wire(replicas: &[&Arc<ReplicaNode>], primary: Option<&Arc<ReplicaNode>>) {
        let peers: Vec<NodeId> = replicas.iter().map(|r| r.node.clone()).collect();
        for r in replicas {
            r.set_peers_direct(peers.clone(), primary.map(|p| p.node.clone()), 1);
        }
    }

    #[test]
    fn eventual_put_is_fast_and_replicates_in_background() {
        let m = mesh(3000.0);
        let a = replica(&m, Region::UsEast, "a", ConsistencyModel::Eventual);
        let b = replica(&m, Region::EuWest, "b", ConsistencyModel::Eventual);
        wire(&[&a, &b], None);
        let client = NodeId::new(Region::UsEast, "cli");
        let put = app_rpc(
            &m,
            &client,
            &a.node,
            DataMsg::Put {
                items: vec![PutItem {
                    key: "k".into(),
                    value: Bytes::from_static(b"v"),
                }],
            },
        )
        .unwrap();
        // Eventual put: local write + intra-DC hop only — well under 10 ms.
        assert!(
            put.latency.as_millis_f64() < 10.0,
            "eventual put {}",
            put.latency
        );
        // The EU replica converges once the flusher runs (200 ms interval +
        // 40 ms WAN, compressed 3000x).
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(3);
        loop {
            if b.instance().get("k").is_ok() {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "replication never arrived"
            );
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert_eq!(b.instance().get("k").unwrap().value.unwrap().as_ref(), b"v");
    }

    #[test]
    fn primary_backup_sync_forwarding_and_latency() {
        let m = mesh(3000.0);
        let p = replica(
            &m,
            Region::UsWest,
            "p",
            ConsistencyModel::PrimaryBackup { sync: true },
        );
        let s = replica(
            &m,
            Region::UsEast,
            "s",
            ConsistencyModel::PrimaryBackup { sync: true },
        );
        wire(&[&p, &s], Some(&p));
        let client = NodeId::new(Region::UsEast, "cli");
        // Put at the secondary: forwarded to US-West, which broadcasts back.
        let put = app_rpc(
            &m,
            &client,
            &s.node,
            DataMsg::Put {
                items: vec![PutItem {
                    key: "k".into(),
                    value: Bytes::from_static(b"v"),
                }],
            },
        )
        .unwrap();
        // ≥ 2 cross-country RTTs (forward + sync copy) ≈ 140 ms+.
        assert!(
            put.latency.as_millis_f64() > 130.0,
            "forwarded sync put {}",
            put.latency
        );
        // Both replicas hold the data immediately after the ack.
        assert!(p.instance().get("k").is_ok());
        assert!(s.instance().get("k").is_ok());
        // Primary recorded the forwarded put for the requests monitor.
        let fwd = p.forwarded_puts_since(SimInstant::EPOCH);
        assert_eq!(fwd.len(), 1);
        assert_eq!(fwd[0].1, 1);
    }

    #[test]
    fn primary_put_at_primary_is_one_local_write_plus_broadcast() {
        let m = mesh(3000.0);
        let p = replica(
            &m,
            Region::UsWest,
            "p",
            ConsistencyModel::PrimaryBackup { sync: true },
        );
        let s = replica(
            &m,
            Region::AsiaEast,
            "s",
            ConsistencyModel::PrimaryBackup { sync: true },
        );
        wire(&[&p, &s], Some(&p));
        let client = NodeId::new(Region::UsWest, "cli");
        let put = |key: &str| {
            let msg = DataMsg::Put {
                items: vec![PutItem {
                    key: key.into(),
                    value: Bytes::from_static(b"v"),
                }],
            };
            app_rpc(&m, &client, &p.node, msg).unwrap()
        };
        // One US-West↔Tokyo round trip (110 ms) dominates.
        let ms = put("k").latency.as_millis_f64();
        assert!((100.0..200.0).contains(&ms), "primary sync put {ms}ms");
        // Two more backups, 70 and 145 ms away: the put costs the slowest
        // round trip, not the sum (325 ms), and every copy left the primary.
        let pb = ConsistencyModel::PrimaryBackup { sync: true };
        let near = replica(&m, Region::UsEast, "near", pb);
        let far = replica(&m, Region::EuWest, "far", pb);
        wire(&[&p, &s, &near, &far], Some(&p));
        let egress = p.stats.egress_bytes.load(Ordering::Relaxed);
        let ms = put("k3").latency.as_millis_f64();
        assert!((145.0..200.0).contains(&ms), "three-backup sync put {ms}ms");
        for backup in [&s, &near, &far] {
            assert!(backup.instance().get("k3").is_ok());
        }
        let sent = p.stats.egress_bytes.load(Ordering::Relaxed) - egress;
        assert_eq!(sent, 3 * replication_bytes(&[item("k3", b'v', 1)]));
        assert_eq!(p.stats.replication_failures.load(Ordering::Relaxed), 0);
    }

    /// Wait (bounded) for another thread to bring about `cond`.
    fn eventually(what: &str, cond: impl Fn() -> bool) {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while !cond() {
            assert!(std::time::Instant::now() < deadline, "never: {what}");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }

    fn put_msg(key: &str) -> DataMsg {
        DataMsg::Put {
            items: vec![PutItem {
                key: key.into(),
                value: Bytes::from_static(b"v"),
            }],
        }
    }

    fn parked_workers(r: &ReplicaNode) -> usize {
        r.pool.lock().parked.len()
    }

    fn spawns(r: &ReplicaNode) -> u64 {
        r.stats.worker_spawns.load(Ordering::Relaxed)
    }

    #[test]
    fn sync_fan_out_keeps_the_acks_it_got_when_one_backup_never_answers() {
        let m = mesh(3000.0);
        let pb = ConsistencyModel::PrimaryBackup { sync: true };
        let p = replica(&m, Region::UsWest, "p", pb);
        let a = replica(&m, Region::UsEast, "a", pb);
        let b = replica(&m, Region::AsiaEast, "b", pb);
        // A backup that takes every copy and never acknowledges one.
        let mute = NodeId::new(Region::EuWest, "mute");
        let held = m.register(mute.clone());
        let peers = vec![p.node.clone(), mute, a.node.clone(), b.node.clone()];
        for r in [&p, &a, &b] {
            r.set_peers_direct(peers.clone(), Some(p.node.clone()), 1);
        }
        let client = NodeId::new(Region::UsWest, "cli");
        let w0 = std::time::Instant::now();
        // The caller's own bound must outlast the fan-out's.
        let patience = SimDuration::from_hours(1);
        let reply = m.rpc(&client, &p.node, put_msg("k"), 0, patience).unwrap();
        // DATA_TIMEOUT at 3000x is under the 250 ms wall floor; the silent
        // backup costs that bound once and nothing else waits behind it.
        let took = w0.elapsed();
        assert!(took < std::time::Duration::from_millis(500), "{took:?}");
        let put = view_of_reply(reply.msg, reply.remote_time, &p.node).unwrap();
        let ms = put.latency.as_millis_f64();
        assert!((110.0..145.0).contains(&ms), "slowest *acked* copy {ms}ms");
        assert!(a.instance().get("k").is_ok() && b.instance().get("k").is_ok());
        assert_eq!(p.stats.replication_failures.load(Ordering::Relaxed), 1);
        drop(held);
    }

    #[test]
    fn sync_fan_out_is_fenced_by_one_stale_epoch_refusal() {
        let m = mesh(3000.0);
        let pb = ConsistencyModel::PrimaryBackup { sync: true };
        let p = replica(&m, Region::UsWest, "p", pb);
        let a = replica(&m, Region::UsEast, "a", pb);
        // A peer already at a higher epoch: it refuses the copy.
        let ahead = NodeId::new(Region::EuWest, "ahead");
        let inbox = m.register(ahead.clone());
        let refuser = std::thread::spawn(move || {
            let d = inbox.recv().unwrap();
            let fail = OpFail::stale_epoch(1, 2).into_msg();
            let bytes = fail.wire_bytes();
            let took = SimDuration::from_micros(100);
            d.reply.unwrap().reply(fail, took, bytes);
        });
        let peers = vec![p.node.clone(), a.node.clone(), ahead];
        for r in [&p, &a] {
            r.set_peers_direct(peers.clone(), Some(p.node.clone()), 1);
        }
        let client = NodeId::new(Region::UsWest, "cli");
        match app_rpc(&m, &client, &p.node, put_msg("k")) {
            Err(AppError::Remote { code, .. }) => assert_eq!(code, FailCode::StaleEpoch),
            other => panic!("expected StaleEpoch, got {other:?}"),
        }
        assert!(p.instance().get("k").is_err(), "unacked write rolled back");
        assert_eq!(p.stats.replication_failures.load(Ordering::Relaxed), 0);
        refuser.join().unwrap();
    }

    // ---- the pool: one test per row of DESIGN.md §3's failure table ---------

    fn handoffs(r: &ReplicaNode) -> u64 {
        r.stats.handoffs.load(Ordering::Relaxed)
    }

    #[test]
    fn ops_behind_a_closed_gate_get_a_worker_each_and_finish_when_it_opens() {
        const N: u64 = 6;
        let m = mesh(3000.0);
        let a = replica(&m, Region::UsEast, "a", ConsistencyModel::Eventual);
        wire(&[&a], None);
        a.gate.close();
        let clients: Vec<_> = (0..N)
            .map(|i| {
                let (m, to) = (m.clone(), a.node.clone());
                std::thread::spawn(move || {
                    let cli = NodeId::new(Region::UsEast, format!("cli{i}"));
                    app_rpc(&m, &cli, &to, put_msg(&format!("k{i}"))).map(|v| v.version)
                })
            })
            .collect();
        // All N are inside `wait_open`, each on a thread of its own, and one
        // more leads: none is parked and none waits for another to finish.
        eventually("a thread per blocked op", || handoffs(&a) == N);
        assert_eq!(spawns(&a), N);
        assert_eq!(parked_workers(&a), 0);
        a.gate.open();
        for c in clients {
            assert_eq!(c.join().unwrap().unwrap(), 1);
        }
        // The burst's threads are reused, not replaced.
        eventually("all but the leader parked", || {
            parked_workers(&a) == N as usize
        });
        let cli = NodeId::new(Region::UsEast, "cli");
        app_rpc(&m, &cli, &a.node, put_msg("k0")).unwrap();
        assert_eq!(spawns(&a), N);
    }

    /// Test constructor: a PB-sync primary and its backup, the primary's
    /// pool threads idling `idle` instead of [`WORKER_IDLE`]. Every put at
    /// the primary blocks on its copy, so each one hands the inbox on.
    fn sync_pair(
        m: &Arc<Mesh<DataMsg>>,
        idle: std::time::Duration,
    ) -> (Arc<ReplicaNode>, Arc<ReplicaNode>) {
        let pb = ConsistencyModel::PrimaryBackup { sync: true };
        let p = replica(m, Region::UsEast, "p", pb);
        let b = replica(m, Region::UsWest, "b", pb);
        wire(&[&p, &b], Some(&p));
        p.pool.lock().idle = Some(idle);
        (p, b)
    }

    #[test]
    fn op_handed_over_as_a_worker_retires_runs_exactly_once() {
        let m = mesh(3000.0);
        // Idle period zero: a thread starts to retire the moment it parks, so
        // every hand-over below races one. Either the thread was claimed
        // first and leads, or it retired first and a new one does.
        let (p, _b) = sync_pair(&m, std::time::Duration::ZERO);
        let cli = NodeId::new(Region::UsEast, "cli");
        for i in 1..=300 {
            // Same key: a put that ran twice would skip a version, one that
            // never ran would fail the call.
            let put = app_rpc(&m, &cli, &p.node, put_msg("k")).unwrap();
            assert_eq!(put.version, i);
        }
        assert_eq!(p.instance().get_version_list("k").unwrap().len(), 300);
        assert_eq!(handoffs(&p), 300);
        assert!((1..=300).contains(&spawns(&p)));
        eventually("parked threads retired", || parked_workers(&p) == 0);
    }

    /// Put `key` to `r` from a thread of its own, leaving it blocked at
    /// `r`'s closed gate; returns once the op has handed the inbox on.
    fn put_held_at_the_gate(
        m: &Arc<Mesh<DataMsg>>,
        r: &Arc<ReplicaNode>,
        key: &str,
    ) -> std::thread::JoinHandle<Result<OpView, AppError>> {
        let before = handoffs(r);
        r.gate.close();
        let (m, to, msg) = (m.clone(), r.node.clone(), put_msg(key));
        let cli = NodeId::new(Region::UsEast, "held-cli");
        let caller = std::thread::spawn(move || app_rpc(&m, &cli, &to, msg));
        eventually("the op handed the inbox on", || handoffs(r) == before + 1);
        caller
    }

    #[test]
    fn stop_and_crash_restart_leave_no_worker_of_the_old_generation() {
        let m = mesh(3000.0);
        let cli = NodeId::new(Region::UsEast, "cli");
        // The flusher and each pool thread hold the node.
        let threads = |r: &Arc<ReplicaNode>| Arc::strong_count(r) - 1;

        let a = replica(&m, Region::UsEast, "a", ConsistencyModel::Eventual);
        wire(&[&a], None);
        let held = put_held_at_the_gate(&m, &a, "k");
        a.gate.open();
        held.join().unwrap().unwrap();
        eventually("its thread parked", || parked_workers(&a) == 1);
        a.stop();
        assert_eq!(parked_workers(&a), 0);
        eventually("every thread of the stopped node gone", || threads(&a) == 0);

        let b = replica(&m, Region::UsEast, "b", ConsistencyModel::Eventual);
        wire(&[&b], None);
        let held = put_held_at_the_gate(&m, &b, "k");
        b.gate.open();
        held.join().unwrap().unwrap();
        eventually("its thread parked", || parked_workers(&b) == 1);
        // A second op is still running (held at the gate) across the crash;
        // it handed the inbox to the parked thread.
        let blocked = put_held_at_the_gate(&m, &b, "k2");
        assert_eq!((parked_workers(&b), spawns(&b)), (0, 1));
        b.crash();
        b.restart().unwrap();
        b.gate.open();
        let _ = blocked.join().unwrap();
        // The old leader lost its inbox and the old op's thread finished and
        // left instead of parking: what remains is the new leader and the
        // new flusher.
        eventually("old threads gone", || threads(&b) == 2);
        assert_eq!(parked_workers(&b), 0);
        // The restarted node serves ops, on a leader of the new generation.
        let put = app_rpc(&m, &cli, &b.node, put_msg("k3")).unwrap();
        assert_eq!((put.version, spawns(&b)), (1, 1));
        b.stop();
    }

    /// A [`ScaledClock`] whose next `now()` on a pool thread panics once
    /// armed: the first thing an eventual put does after the gate is to read
    /// the clock for admission, so the op panics before it could block.
    struct PanicOnNextRead {
        inner: ScaledClock,
        armed: AtomicBool,
    }

    impl wiera_sim::Clock for PanicOnNextRead {
        fn now(&self) -> SimInstant {
            let pool = std::thread::current().name() == Some("replica-pool");
            if pool && self.armed.swap(false, Ordering::SeqCst) {
                panic!("injected: op failure (expected in this test's output)");
            }
            self.inner.now()
        }
        fn sleep(&self, d: SimDuration) {
            self.inner.sleep(d);
        }
        fn scale(&self) -> f64 {
            self.inner.scale()
        }
    }

    #[test]
    fn panicking_op_loses_only_its_own_worker() {
        let clock = Arc::new(PanicOnNextRead {
            inner: ScaledClock::new(3000.0),
            armed: AtomicBool::new(false),
        });
        let m = Mesh::new(
            Arc::new(Fabric::multicloud(5).without_jitter()),
            clock.clone(),
        );
        let a = replica(&m, Region::UsEast, "a", ConsistencyModel::Eventual);
        wire(&[&a], None);
        let cli = NodeId::new(Region::UsEast, "cli");
        assert_eq!(app_rpc(&m, &cli, &a.node, put_msg("k")).unwrap().version, 1);
        clock.armed.store(true, Ordering::SeqCst);
        let patience = SimDuration::from_hours(1);
        match m.rpc(&cli, &a.node, put_msg("k"), 0, patience) {
            Err(NetError::NoReply(_)) => {}
            other => panic!("expected NoReply, got {other:?}"),
        }
        // Before it blocked: the leader died with its op, but not the inbox.
        // The next op and a Ping are served, by the thread the unwinding op
        // handed it to.
        let served = |version| {
            assert_eq!(
                app_rpc(&m, &cli, &a.node, put_msg("k")).unwrap().version,
                version
            );
            let pong = m.rpc(&cli, &a.node, DataMsg::Ping, 0, patience).unwrap();
            assert!(matches!(pong.msg, DataMsg::Pong));
        };
        served(2);
        assert_eq!((spawns(&a), handoffs(&a)), (1, 1));
        // After it blocked: the op had handed the inbox on already, and only
        // its own thread dies.
        let held = put_held_at_the_gate(&m, &a, "k");
        clock.armed.store(true, Ordering::SeqCst);
        a.gate.open();
        match held.join().unwrap() {
            Err(AppError::Net(NetError::NoReply(_))) => {}
            other => panic!("expected NoReply, got {other:?}"),
        }
        served(3);
        assert_eq!((spawns(&a), handoffs(&a)), (2, 2));
    }

    #[test]
    fn a_failed_thread_start_leaves_the_inbox_with_its_leader() {
        let m = mesh(3000.0);
        let (p, _b) = sync_pair(&m, WORKER_IDLE);
        p.pool.lock().refuse_spawns = true;
        let cli = NodeId::new(Region::UsEast, "cli");
        let region = p.node.region.to_string();
        let errors = MetricsRegistry::global()
            .counter("wiera_worker_spawn_errors", &[("region", region.as_str())]);
        let before = errors.get();
        // The put blocks on its copy with no thread to take the inbox: its
        // leader keeps the inbox, blocked, as a lone handler thread would.
        assert_eq!(app_rpc(&m, &cli, &p.node, put_msg("k")).unwrap().version, 1);
        assert!(errors.get() > before);
        assert_eq!((spawns(&p), handoffs(&p)), (0, 0));
        // Once threads start again, the next blocked op hands it on.
        p.pool.lock().refuse_spawns = false;
        assert_eq!(app_rpc(&m, &cli, &p.node, put_msg("k")).unwrap().version, 2);
        assert_eq!((spawns(&p), handoffs(&p)), (1, 1));
    }

    #[test]
    fn local_eventual_ops_never_hand_the_inbox_on() {
        let m = mesh(3000.0);
        // Instance sleeps off: a sleeping instance pays its modeled engine
        // time in a real sleep whenever the thread's debt reaches a timer
        // quantum, and that sleep parks the thread.
        let mut cfg = config(Region::UsEast, "a", ConsistencyModel::Eventual, 1 << 30);
        cfg.instance = cfg.instance.with_sleep(false, false);
        let a = spawn(&m, cfg);
        wire(&[&a], None);
        let cli = NodeId::new(Region::UsEast, "cli");
        app_rpc(&m, &cli, &a.node, put_msg("k")).unwrap();
        for _ in 0..500 {
            let got = app_rpc(
                &m,
                &cli,
                &a.node,
                DataMsg::Get {
                    keys: vec!["k".into()],
                },
            );
            assert_eq!(got.unwrap().version, 1);
        }
        assert_eq!((handoffs(&a), spawns(&a)), (0, 0));
    }

    /// Send `op` to `r`, wait until it has handed the inbox on, and check
    /// that a Ping sent then is answered while the op is still blocked.
    /// `tick` runs while waiting for the Pong (a manual clock must move for
    /// the ping's own network time). Returns the op's caller.
    fn ping_while_blocked(
        m: &Arc<Mesh<DataMsg>>,
        r: &Arc<ReplicaNode>,
        op: DataMsg,
        tick: impl Fn(),
    ) -> std::thread::JoinHandle<Result<RpcReply<DataMsg>, NetError>> {
        let rpc = |msg: DataMsg, from: &str| {
            let (m, to) = (m.clone(), r.node.clone());
            let cli = NodeId::new(Region::UsEast, from);
            std::thread::spawn(move || m.rpc(&cli, &to, msg, 0, SimDuration::from_hours(1)))
        };
        let before = handoffs(r);
        let caller = rpc(op, "blocked-cli");
        eventually("the op handed the inbox on", || handoffs(r) == before + 1);
        let pinger = rpc(DataMsg::Ping, "pinger");
        eventually("the ping answered", || {
            tick();
            pinger.is_finished()
        });
        assert!(matches!(pinger.join().unwrap().unwrap().msg, DataMsg::Pong));
        assert!(!caller.is_finished(), "the op ended before the Pong");
        caller
    }

    fn acked(caller: std::thread::JoinHandle<Result<RpcReply<DataMsg>, NetError>>) -> u64 {
        let reply = caller.join().unwrap().unwrap();
        let node = NodeId::new(Region::UsEast, "any");
        view_of_reply(reply.msg, reply.remote_time, &node)
            .unwrap()
            .version
    }

    /// An eventual replica behind a modeled single server of `service_time`
    /// per op: a put sleeps that long for its admission slot.
    fn slow_server(m: &Arc<Mesh<DataMsg>>, service_time: SimDuration) -> Arc<ReplicaNode> {
        let cfg = config(Region::UsEast, "slow", ConsistencyModel::Eventual, 1 << 30);
        let r = spawn(
            m,
            ReplicaConfig {
                service_time: Some(service_time),
                ..cfg
            },
        );
        wire(&[&r], None);
        r
    }

    #[test]
    fn a_leader_blocked_on_a_peer_a_real_sleep_or_the_gate_has_handed_the_inbox_on() {
        let m = mesh(3000.0);
        // A mesh RPC wait: a backup forwards to a primary that holds it.
        let pb = ConsistencyModel::PrimaryBackup { sync: true };
        let a = replica(&m, Region::UsEast, "a", pb);
        let mute = NodeId::new(Region::UsWest, "mute");
        let held = m.register(mute.clone());
        a.set_peers_direct(vec![mute.clone(), a.node.clone()], Some(mute), 1);
        let caller = ping_while_blocked(&m, &a, put_msg("k"), || ());
        let forwarded = held.recv().unwrap();
        assert!(matches!(forwarded.msg, DataMsg::ForwardPut { .. }));
        let ack = DataMsg::MultiReply {
            results: vec![ItemResult::Put { version: 7 }],
        };
        forwarded.reply.unwrap().reply(ack, SimDuration::ZERO, 0);
        assert_eq!(acked(caller), 7);

        // A real `ScaledClock` sleep: 900 s modeled is 0.3 s of wall.
        let s = slow_server(&m, SimDuration::from_secs(900));
        assert_eq!(acked(ping_while_blocked(&m, &s, put_msg("k"), || ())), 1);

        // A closed gate.
        let g = replica(&m, Region::UsEast, "g", ConsistencyModel::Eventual);
        wire(&[&g], None);
        g.gate.close();
        let caller = ping_while_blocked(&m, &g, put_msg("k"), || ());
        g.gate.open();
        assert_eq!(acked(caller), 1);
    }

    #[test]
    fn a_leader_in_a_manual_clock_sleep_has_handed_the_inbox_on() {
        let clock = wiera_sim::ManualClock::new();
        let fabric = Arc::new(Fabric::multicloud(5).without_jitter());
        let m = Mesh::new(fabric, clock.clone());
        let s = slow_server(&m, SimDuration::from_hours(1));
        let tick = || clock.advance(SimDuration::from_millis(1));
        let caller = ping_while_blocked(&m, &s, put_msg("k"), tick);
        clock.advance(SimDuration::from_hours(2));
        eventually("the op ended", || {
            tick();
            caller.is_finished()
        });
        assert_eq!(acked(caller), 1);
    }

    #[test]
    fn lww_on_concurrent_eventual_writes() {
        let m = mesh(3000.0);
        let a = replica(&m, Region::UsEast, "a", ConsistencyModel::Eventual);
        let b = replica(&m, Region::EuWest, "b", ConsistencyModel::Eventual);
        wire(&[&a, &b], None);
        let ca = NodeId::new(Region::UsEast, "ca");
        let cb = NodeId::new(Region::EuWest, "cb");
        // Both write version 1 concurrently; after convergence both replicas
        // agree on a single winner (the later modified timestamp).
        app_rpc(
            &m,
            &ca,
            &a.node,
            DataMsg::Put {
                items: vec![PutItem {
                    key: "k".into(),
                    value: Bytes::from_static(b"from-a"),
                }],
            },
        )
        .unwrap();
        std::thread::sleep(std::time::Duration::from_millis(10));
        app_rpc(
            &m,
            &cb,
            &b.node,
            DataMsg::Put {
                items: vec![PutItem {
                    key: "k".into(),
                    value: Bytes::from_static(b"from-b"),
                }],
            },
        )
        .unwrap();

        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(3);
        let (va, vb) = loop {
            let va = a.instance().get("k").ok().and_then(|o| o.value);
            let vb = b.instance().get("k").ok().and_then(|o| o.value);
            if let (Some(va), Some(vb)) = (&va, &vb) {
                if va == vb {
                    break (va.clone(), vb.clone());
                }
            }
            assert!(
                std::time::Instant::now() < deadline,
                "never converged: {va:?} vs {vb:?}"
            );
            std::thread::sleep(std::time::Duration::from_millis(10));
        };
        assert_eq!(va, vb);
        assert_eq!(va.as_ref(), b"from-b", "later write wins");
    }

    #[test]
    fn consistency_switch_drains_queue_first() {
        let m = mesh(3000.0);
        let a = replica(&m, Region::UsEast, "a", ConsistencyModel::Eventual);
        let b = replica(&m, Region::UsWest, "b", ConsistencyModel::Eventual);
        wire(&[&a, &b], None);
        let client = NodeId::new(Region::UsEast, "cli");
        app_rpc(
            &m,
            &client,
            &a.node,
            DataMsg::Put {
                items: vec![PutItem {
                    key: "q".into(),
                    value: Bytes::from_static(b"queued"),
                }],
            },
        )
        .unwrap();
        // Immediately switch (before the 200 ms flusher runs): the switch
        // must drain the queue synchronously.
        let ctrl = NodeId::new(Region::UsEast, "ctrl");
        let reply = m
            .rpc(
                &ctrl,
                &a.node,
                DataMsg::ChangeConsistency {
                    to: ConsistencyModel::MultiPrimaries,
                    epoch: 2,
                },
                64,
                SimDuration::from_secs(60),
            )
            .unwrap();
        assert!(matches!(reply.msg, DataMsg::Ok));
        assert_eq!(a.queue_len(), 0);
        assert_eq!(a.consistency(), ConsistencyModel::MultiPrimaries);
        assert!(
            b.instance().get("q").is_ok(),
            "queued update applied before switch completed"
        );
        assert_eq!(a.stats.switches.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn stale_epoch_control_messages_ignored() {
        let m = mesh(3000.0);
        let a = replica(&m, Region::UsEast, "a", ConsistencyModel::Eventual);
        wire(&[&a], None);
        a.set_peers_direct(vec![], None, 5);
        let ctrl = NodeId::new(Region::UsEast, "ctrl");
        m.rpc(
            &ctrl,
            &a.node,
            DataMsg::ChangeConsistency {
                to: ConsistencyModel::MultiPrimaries,
                epoch: 3,
            },
            64,
            SimDuration::from_secs(30),
        )
        .unwrap();
        assert_eq!(
            a.consistency(),
            ConsistencyModel::Eventual,
            "stale epoch ignored"
        );
        assert_eq!(a.epoch(), 5);
    }

    /// The epoch rule, one row per epoch-bearing message: stamped below the
    /// replica's epoch it is refused with `StaleEpoch`, counted under its
    /// own label, and changes nothing; stamped at the epoch it is admitted.
    #[test]
    fn every_epoch_bearing_message_is_fenced_by_one_rule() {
        let m = mesh(3000.0);
        let a = replica(&m, Region::UsEast, "fence", PB_SYNC);
        a.set_peers_direct(vec![], Some(a.node.clone()), 5);
        let (ctrl, other) = (
            NodeId::new(Region::UsEast, "ctrl"),
            NodeId::new(Region::UsWest, "other"),
        );
        let msg = |what: &str, epoch: u64| match what {
            "replicate" => DataMsg::Replicate {
                items: Arc::new([SyncObject {
                    key: "r".into(),
                    version: 1,
                    modified: SimInstant::EPOCH,
                    value: Bytes::from_static(b"v"),
                }]),
                epoch,
            },
            "forward_put" => DataMsg::ForwardPut {
                items: vec![item("f", 1, 16)],
                origin: other.clone(),
                epoch,
            },
            "change_consistency" => DataMsg::ChangeConsistency {
                to: ConsistencyModel::Eventual,
                epoch,
            },
            "change_primary" => DataMsg::ChangePrimary {
                new_primary: other.clone(),
                epoch,
            },
            _ => DataMsg::SetPeers {
                peers: vec![other.clone()],
                primary: Some(other.clone()),
                epoch,
            },
        };
        let rows = [
            "replicate",
            "forward_put",
            "change_consistency",
            "change_primary",
            "set_peers",
        ];
        let send = |what: &str, epoch: u64| {
            let patience = SimDuration::from_hours(1);
            m.rpc(&ctrl, &a.node, msg(what, epoch), 64, patience)
                .expect("replica answers")
                .msg
        };
        let state = || (a.epoch(), a.primary(), a.consistency(), a.peers());
        let before = state();
        for what in rows {
            let fenced = MetricsRegistry::global().counter("wiera_fenced_total", &[("msg", what)]);
            let fenced0 = fenced.get();
            match send(what, 4) {
                DataMsg::Fail {
                    code: FailCode::StaleEpoch,
                    why,
                } => assert_eq!(why, "stale epoch 4 < 5", "{what}"),
                other => panic!("{what} at a stale epoch answered {other:?}"),
            }
            // Other tests may fence under the same label concurrently.
            assert!(fenced.get() > fenced0, "{what}: counted");
            assert_eq!(state(), before, "{what}: state untouched");
        }
        assert_eq!(a.digest_table(), Vec::new(), "nothing written");
        for what in rows {
            let reply = send(what, 5);
            assert!(!matches!(reply, DataMsg::Fail { .. }), "{what}: {reply:?}");
        }
        assert_eq!(a.epoch(), 5);
        assert_eq!(a.primary(), Some(other.clone()));
        assert_eq!(a.consistency(), ConsistencyModel::Eventual);
        assert_eq!(sorted_digests(&a).len(), 2, "the copy and the forward");
    }

    /// An eventual replica whose periodic flush never runs: only a barrier
    /// (a switch, a `FlushQueue`, a stop) sends its queue.
    fn unflushed(m: &Arc<Mesh<DataMsg>>, region: Region, name: &str) -> Arc<ReplicaNode> {
        let flush_interval = SimDuration::from_hours(10_000);
        let cfg = config(region, name, ConsistencyModel::Eventual, 1 << 30);
        spawn(
            m,
            ReplicaConfig {
                flush_interval,
                ..cfg
            },
        )
    }

    /// A consistency switch adopts its epoch before it drains the queue: a
    /// peer that took the same switch first accepts the drained updates
    /// instead of fencing them as a deposed sender's.
    #[test]
    fn a_switch_drains_its_queue_at_the_epoch_it_adopts() {
        let m = mesh(3000.0);
        let a = unflushed(&m, Region::UsEast, "a");
        let b = replica(&m, Region::UsWest, "b", ConsistencyModel::Eventual);
        wire(&[&a, &b], None);
        assert_eq!(put_items(&m, &a.node, &[item("q", 1, 16)]), [Ok(1)]);
        assert_eq!(a.queue_len(), 1);
        let switch = |r: &ReplicaNode| {
            let ctrl = NodeId::new(r.node.region, "ctrl");
            let msg = DataMsg::ChangeConsistency { to: MP, epoch: 2 };
            let reply = m.rpc(&ctrl, &r.node, msg, 64, SimDuration::from_hours(1));
            assert!(matches!(reply.map(|r| r.msg), Ok(DataMsg::Ok)));
        };
        switch(&b);
        switch(&a);
        assert_eq!(a.queue_len(), 0);
        assert!(
            b.instance().get("q").is_ok(),
            "the peer applied the drained update"
        );
    }

    /// A switch's drain is a barrier: the switch answers only once its peer
    /// has applied the drained update. The peer's leader is held at its
    /// closed gate with no thread to hand its inbox to, so the update waits
    /// in that inbox until the gate opens.
    #[test]
    fn a_switch_answers_only_once_its_peer_applied_the_drained_update() {
        // At 100x the gather's DATA_TIMEOUT is 1.2 s of wall; the peer is
        // released within a few ms of the switch starting to wait.
        let m = mesh(100.0);
        let a = unflushed(&m, Region::UsEast, "a");
        let b = unflushed(&m, Region::EuWest, "b");
        wire(&[&a, &b], None);
        let region = b.node.region.to_string();
        let refused = MetricsRegistry::global()
            .counter("wiera_worker_spawn_errors", &[("region", region.as_str())]);
        let refused0 = refused.get();
        b.pool.lock().refuse_spawns = true;
        b.gate.close();
        let held = {
            let (m, to) = (m.clone(), b.node.clone());
            let cli = NodeId::new(Region::EuWest, "held-cli");
            std::thread::spawn(move || app_rpc(&m, &cli, &to, put_msg("k")))
        };
        eventually("b's leader blocked at its gate", || {
            refused.get() > refused0
        });
        assert_eq!(put_items(&m, &a.node, &[item("q", 1, 16)]), [Ok(1)]);
        let handoffs0 = handoffs(&a);
        let switch = {
            let (m, a_node, b) = (m.clone(), a.node.clone(), b.clone());
            std::thread::spawn(move || {
                let ctrl = NodeId::new(Region::UsEast, "ctrl");
                let msg = DataMsg::ChangeConsistency { to: MP, epoch: 2 };
                let reply = m.rpc(&ctrl, &a_node, msg, 64, SimDuration::from_hours(1));
                // Read the peer the moment the switch has answered.
                (reply.map(|r| r.msg), b.instance().get("q").is_ok())
            })
        };
        // A drain that waits for acks hands a's inbox on first.
        eventually("the switch answered or waits for its ack", || {
            switch.is_finished() || handoffs(&a) > handoffs0
        });
        b.pool.lock().refuse_spawns = false;
        b.gate.open();
        let (reply, applied) = switch.join().unwrap();
        assert!(matches!(reply, Ok(DataMsg::Ok)), "{reply:?}");
        assert!(
            applied,
            "the switch answered before its peer applied the update"
        );
        assert_eq!(held.join().unwrap().unwrap().version, 1);
        assert_eq!(a.stats.replication_failures.load(Ordering::Relaxed), 0);
    }

    /// Two replicas switched by one gather of `ChangeConsistency`, as
    /// `WieraDeployment::change_consistency` sends it, each drain an update
    /// to the other. Each switch hands its inbox on while it waits for its
    /// ack, so each replica applies the other's update and neither gather
    /// times out.
    #[test]
    fn two_replicas_switched_at_once_apply_each_others_drained_update() {
        let m = mesh(100.0);
        let a = unflushed(&m, Region::UsEast, "a");
        let b = unflushed(&m, Region::UsWest, "b");
        wire(&[&a, &b], None);
        assert_eq!(put_items(&m, &a.node, &[item("from-a", 1, 16)]), [Ok(1)]);
        assert_eq!(put_items(&m, &b.node, &[item("from-b", 2, 16)]), [Ok(1)]);
        let ctrl = NodeId::new(Region::UsEast, "ctrl");
        let msg = DataMsg::ChangeConsistency { to: MP, epoch: 2 };
        let calls = vec![(a.node.clone(), msg.clone()), (b.node.clone(), msg)];
        for reply in m.rpc_gather(&ctrl, calls, 64, SimDuration::from_hours(1)) {
            assert!(matches!(reply.map(|r| r.msg), Ok(DataMsg::Ok)));
        }
        assert!(a.instance().get("from-b").is_ok(), "a holds b's update");
        assert!(b.instance().get("from-a").is_ok(), "b holds a's update");
        for r in [&a, &b] {
            assert_eq!(r.stats.replication_failures.load(Ordering::Relaxed), 0);
            assert_eq!((r.queue_len(), r.consistency()), (0, MP));
        }
    }

    /// One reader answers a fetch of named keys (unknown ones are skipped)
    /// and the digest table, both from each key's latest version.
    #[test]
    fn one_reader_serves_keyed_fetches_and_the_digest_table() {
        let m = mesh(3000.0);
        let a = replica(&m, Region::UsEast, "reader", ConsistencyModel::Eventual);
        wire(&[&a], None);
        let sent = [item("x", 1, 16), item("y", 2, 16), item("z", 3, 16)];
        assert_eq!(put_items(&m, &a.node, &sent), [Ok(1); 3]);
        assert_eq!(put_items(&m, &a.node, &[item("y", 4, 8)]), [Ok(2)]);
        let fetch = |keys: Vec<String>| {
            let ctrl = NodeId::new(Region::UsEast, "ctrl");
            let msg = DataMsg::FetchObjects { keys };
            let reply = m.rpc(&ctrl, &a.node, msg, 64, SimDuration::from_hours(1));
            let Ok(DataMsg::SyncReply { mut objects }) = reply.map(|r| r.msg) else {
                panic!("fetch answered with something else");
            };
            objects.sort_by(|p, q| p.key.cmp(&q.key));
            objects
                .into_iter()
                .map(|o| (o.key, o.version, o.value))
                .collect::<Vec<_>>()
        };
        let all = fetch(vec!["x".into(), "y".into(), "z".into()]);
        let latest =
            |key: &str, version, fill, len| (key.to_string(), version, item(key, fill, len).value);
        assert_eq!(
            all,
            [
                latest("x", 1, 1, 16),
                latest("y", 2, 4, 8),
                latest("z", 1, 3, 16)
            ]
        );
        let named = fetch(vec!["z".into(), "missing".into(), "y".into()]);
        assert_eq!(named, all[1..]);
        let digests: Vec<(String, u64, u64)> = sorted_digests(&a)
            .into_iter()
            .map(|d| (d.key, d.version, d.digest))
            .collect();
        let want: Vec<(String, u64, u64)> = all
            .iter()
            .map(|(key, version, value)| (key.clone(), *version, value_digest(value)))
            .collect();
        assert_eq!(digests, want);
    }

    #[test]
    fn get_forwarding_routes_reads_remotely() {
        let m = mesh(3000.0);
        let azure = replica(
            &m,
            Region::AzureUsEast,
            "az",
            ConsistencyModel::PrimaryBackup { sync: true },
        );
        let aws = replica(
            &m,
            Region::UsEast,
            "aws",
            ConsistencyModel::PrimaryBackup { sync: true },
        );
        wire(&[&azure, &aws], Some(&azure));
        azure.set_forward_gets_to(Some(aws.node.clone()));
        let client = NodeId::new(Region::AzureUsEast, "cli");
        app_rpc(
            &m,
            &client,
            &azure.node,
            DataMsg::Put {
                items: vec![PutItem {
                    key: "k".into(),
                    value: Bytes::from_static(b"v"),
                }],
            },
        )
        .unwrap();
        let got = app_rpc(
            &m,
            &client,
            &azure.node,
            DataMsg::Get {
                keys: vec!["k".into()],
            },
        )
        .unwrap();
        assert_eq!(got.value.unwrap().as_ref(), b"v");
        // Read crossed to AWS and back: ≥ 2 ms RTT but well under local-disk
        // alternatives is the point of §5.4; just assert it paid the hop.
        assert!(
            got.latency.as_millis_f64() > 1.5,
            "remote get {}",
            got.latency
        );
    }

    #[test]
    fn version_list_and_remove_through_the_wire() {
        let m = mesh(3000.0);
        let a = replica(&m, Region::UsEast, "a", ConsistencyModel::Eventual);
        wire(&[&a], None);
        let cli = NodeId::new(Region::UsEast, "cli");
        app_rpc(
            &m,
            &cli,
            &a.node,
            DataMsg::Put {
                items: vec![PutItem {
                    key: "k".into(),
                    value: Bytes::from_static(b"1"),
                }],
            },
        )
        .unwrap();
        app_rpc(
            &m,
            &cli,
            &a.node,
            DataMsg::Put {
                items: vec![PutItem {
                    key: "k".into(),
                    value: Bytes::from_static(b"2"),
                }],
            },
        )
        .unwrap();
        let list = app_rpc(
            &m,
            &cli,
            &a.node,
            DataMsg::GetVersionList { key: "k".into() },
        )
        .unwrap();
        assert_eq!(list.version, 2, "latest version from the list");
        let v1 = app_rpc(
            &m,
            &cli,
            &a.node,
            DataMsg::GetVersion {
                key: "k".into(),
                version: 1,
            },
        )
        .unwrap();
        assert_eq!(v1.value.unwrap().as_ref(), b"1");
        app_rpc(
            &m,
            &cli,
            &a.node,
            DataMsg::RemoveVersion {
                key: "k".into(),
                version: 1,
            },
        )
        .unwrap();
        assert!(app_rpc(
            &m,
            &cli,
            &a.node,
            DataMsg::GetVersion {
                key: "k".into(),
                version: 1
            }
        )
        .is_err());
        app_rpc(&m, &cli, &a.node, DataMsg::Remove { key: "k".into() }).unwrap();
        assert!(app_rpc(
            &m,
            &cli,
            &a.node,
            DataMsg::Get {
                keys: vec!["k".into()]
            }
        )
        .is_err());
    }

    /// Spawn a replica with the admission model and CoDel shedding enabled
    /// (zero patience interval, so the second op above target sheds —
    /// deterministic for tests).
    fn overloaded_replica(
        m: &Arc<Mesh<DataMsg>>,
        consistency: ConsistencyModel,
    ) -> Arc<ReplicaNode> {
        let overload = OverloadConfig {
            target_delay: SimDuration::from_millis(10),
            interval: SimDuration::ZERO,
        };
        spawn(
            m,
            ReplicaConfig {
                service_time: Some(SimDuration::from_millis(1)),
                overload: Some(overload),
                ..config(Region::UsEast, "ov", consistency, 1 << 30)
            },
        )
    }

    /// Force the admission queue into a standing-overload state: a huge
    /// modeled backlog that has been above target since the epoch.
    fn force_overload(r: &Arc<ReplicaNode>) {
        r.force_backlog(SimDuration::from_secs(3600));
    }

    #[test]
    fn overloaded_replica_sheds_clients_but_not_replication() {
        let m = mesh(3000.0);
        let a = overloaded_replica(&m, ConsistencyModel::Eventual);
        wire(&[&a], None);
        let cli = NodeId::new(Region::UsEast, "cli");
        force_overload(&a);
        // Client traffic is shed with the retryable Overloaded code.
        let err = app_rpc(
            &m,
            &cli,
            &a.node,
            DataMsg::Put {
                items: vec![PutItem {
                    key: "k".into(),
                    value: Bytes::from_static(b"v"),
                }],
            },
        )
        .unwrap_err();
        match &err {
            AppError::Remote { code, .. } => assert_eq!(*code, FailCode::Overloaded),
            other => panic!("expected Overloaded, got {other:?}"),
        }
        assert!(err.retryable(), "shed ops must be retryable");
        // Replication is handled inline, bypassing admission entirely: a
        // peer's update still applies while clients are refused.
        let peer = NodeId::new(Region::EuWest, "peer");
        let reply = m
            .rpc(
                &peer,
                &a.node,
                DataMsg::Replicate {
                    items: Arc::new([SyncObject {
                        key: "r".into(),
                        version: 1,
                        modified: m.clock.now(),
                        value: Bytes::from_static(b"from-peer"),
                    }]),
                    epoch: 1,
                },
                128,
                SimDuration::from_secs(30),
            )
            .expect("replication admitted under overload");
        assert!(matches!(reply.msg, DataMsg::ReplicateAck { applied: true }));
        assert_eq!(
            a.instance().get("r").unwrap().value.unwrap().as_ref(),
            b"from-peer"
        );
    }

    #[test]
    fn degraded_get_answers_locally_when_shedding() {
        let m = mesh(3000.0);
        let a = overloaded_replica(&m, ConsistencyModel::Eventual);
        wire(&[&a], None);
        let cli = NodeId::new(Region::UsEast, "cli");
        app_rpc(
            &m,
            &cli,
            &a.node,
            DataMsg::Put {
                items: vec![PutItem {
                    key: "k".into(),
                    value: Bytes::from_static(b"v"),
                }],
            },
        )
        .unwrap();
        force_overload(&a);
        // Without consent the read is shed…
        let err = app_rpc(
            &m,
            &cli,
            &a.node,
            DataMsg::Get {
                keys: vec!["k".into()],
            },
        )
        .unwrap_err();
        assert!(matches!(
            err,
            AppError::Remote {
                code: FailCode::Overloaded,
                ..
            }
        ));
        // …with consent it is served from local state, explicitly marked.
        let got = app_rpc(
            &m,
            &cli,
            &a.node,
            DataMsg::WithBudget {
                deadline_us: None,
                allow_degraded: true,
                inner: Box::new(DataMsg::Get {
                    keys: vec!["k".into()],
                }),
            },
        )
        .unwrap();
        assert!(got.degraded, "reply must carry the staleness marker");
        assert_eq!(got.value.unwrap().as_ref(), b"v");
    }

    #[test]
    fn value_digest_separates_every_single_byte_change_and_every_length() {
        let body = |len: usize| -> Vec<u8> { (0..len).map(|i| (i * 37 + 11) as u8).collect() };
        for len in 0..=300 {
            let original = body(len);
            let digest = value_digest(&Bytes::from(body(len)));
            for at in 0..len {
                for flip in [0x01, 0x80, 0xff] {
                    let mut changed = original.clone();
                    changed[at] ^= flip;
                    assert_ne!(
                        value_digest(&Bytes::from(changed)),
                        digest,
                        "length {len}: byte {at} ^ {flip:#x} kept the digest"
                    );
                }
            }
            // Equal bodies in separate buffers digest equally.
            assert_eq!(value_digest(&Bytes::from(body(len))), digest);
        }
        // Bodies that differ only by trailing zero bytes.
        for prefix in [&b""[..], b"v", b"value-7"] {
            let mut seen = HashSet::new();
            for zeros in 0..=300 {
                let mut padded = prefix.to_vec();
                padded.resize(prefix.len() + zeros, 0);
                assert!(
                    seen.insert(value_digest(&Bytes::from(padded))),
                    "{prefix:?} + {zeros} zero bytes collides with a shorter padding"
                );
            }
        }
    }

    #[test]
    fn spent_budget_fails_fast_with_deadline_exceeded() {
        let m = mesh(3000.0);
        let a = replica(&m, Region::UsEast, "a", ConsistencyModel::Eventual);
        wire(&[&a], None);
        let cli = NodeId::new(Region::UsEast, "cli");
        // Deadline at the epoch: already spent when the replica sees it.
        let err = app_rpc(
            &m,
            &cli,
            &a.node,
            DataMsg::WithBudget {
                deadline_us: Some(0),
                allow_degraded: false,
                inner: Box::new(DataMsg::Put {
                    items: vec![PutItem {
                        key: "k".into(),
                        value: Bytes::from_static(b"v"),
                    }],
                }),
            },
        )
        .unwrap_err();
        match &err {
            AppError::Remote { code, .. } => assert_eq!(*code, FailCode::DeadlineExceeded),
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        assert!(!err.retryable(), "a spent budget must not auto-retry");
        assert!(a.instance().get("k").is_err(), "no work after the deadline");
        // A generous budget behaves exactly like an unwrapped op.
        let ok = app_rpc(
            &m,
            &cli,
            &a.node,
            DataMsg::WithBudget {
                deadline_us: Some(3_600_000_000),
                allow_degraded: false,
                inner: Box::new(DataMsg::Put {
                    items: vec![PutItem {
                        key: "k".into(),
                        value: Bytes::from_static(b"v"),
                    }],
                }),
            },
        )
        .unwrap();
        assert_eq!(ok.version, 1);
        assert!(!ok.degraded);
    }

    /// The fleet's copy step clones what an empty replica lacks from every
    /// source, over the wire, as one `Replicate`: a key two sources hold
    /// lands at its newer version, and nothing is left lacking.
    #[test]
    fn copy_step_clones_what_the_target_lacks_from_every_source() {
        let m = mesh(3000.0);
        let a = replica(&m, Region::UsEast, "a", ConsistencyModel::Eventual);
        let b = replica(&m, Region::UsWest, "b", ConsistencyModel::Eventual);
        let c = replica(&m, Region::EuWest, "c", ConsistencyModel::Eventual);
        wire(&[&a], None);
        wire(&[&c], None);
        let keys: Vec<PutItem> = (0..5).map(|i| item(&format!("k{i}"), 1, 8)).collect();
        assert_eq!(put_items(&m, &a.node, &keys), [Ok(1); 5]);
        for fill in [2, 3] {
            put_items(&m, &c.node, &[item("k0", fill, 8)]);
        }
        let ctrl = NodeId::new(Region::UsEast, "ctrl");
        let sources = [a.node.clone(), c.node.clone()];
        let target = (&b.node, std::slice::from_ref(&b.node));
        let still = crate::fleet::copy_lacking(&m, &ctrl, &sources, target, None, "t");
        assert_eq!(still, Ok(Vec::new()));
        let copied = sorted_digests(&b);
        assert_eq!(copied[1..], sorted_digests(&a)[1..]);
        assert_eq!(copied[0], sorted_digests(&c)[0]);
        assert_eq!(copied[0].version, 2);
    }

    /// A shard move's copy step asks about the moved shard only: a
    /// filtered digest request lists that shard's keys and no other, by the
    /// replica's installed ring, and the copy clones only them.
    #[test]
    fn a_shard_filtered_copy_step_lists_and_copies_only_that_shard() {
        let m = mesh(3000.0);
        let a = replica(&m, Region::UsEast, "a", ConsistencyModel::Eventual);
        let b = replica(&m, Region::UsWest, "b", ConsistencyModel::Eventual);
        wire(&[&a], None);
        for r in [&a, &b] {
            r.install_shards((0..16).collect(), 16, 8, 1).unwrap();
        }
        let items: Vec<PutItem> = (0..40).map(|i| item(&format!("k{i}"), 1, 8)).collect();
        assert_eq!(put_items(&m, &a.node, &items), [Ok(1); 40]);
        let ring = ShardMap::new(16, 8, 1).unwrap();
        let shard = ring.shard_of("k0");
        let mut in_shard: Vec<String> = items
            .iter()
            .map(|i| i.key.clone())
            .filter(|k| ring.shard_of(k) == shard)
            .collect();
        in_shard.sort();
        assert!(in_shard.len() < items.len());
        let ctrl = NodeId::new(Region::UsEast, "ctrl");
        let ask = DataMsg::DigestRequest { shard: Some(shard) };
        let reply = m.rpc(&ctrl, &a.node, ask, 64, DATA_TIMEOUT).unwrap();
        let DataMsg::DigestReply { entries, .. } = reply.msg else {
            panic!("expected a digest reply, got {:?}", reply.msg);
        };
        let mut listed: Vec<String> = entries.into_iter().map(|e| e.key).collect();
        listed.sort();
        assert_eq!(listed, in_shard);
        let target = (&b.node, std::slice::from_ref(&b.node));
        let sources = [a.node.clone()];
        let still = crate::fleet::copy_lacking(&m, &ctrl, &sources, target, Some(shard), "t");
        assert_eq!(still, Ok(Vec::new()));
        let copied: Vec<String> = sorted_digests(&b).into_iter().map(|e| e.key).collect();
        assert_eq!(copied, in_shard);
    }

    // ---- one write path and one read path: a single op is a batch of one ----

    const MP: ConsistencyModel = ConsistencyModel::MultiPrimaries;
    const PB_SYNC: ConsistencyModel = ConsistencyModel::PrimaryBackup { sync: true };
    const PB_ASYNC: ConsistencyModel = ConsistencyModel::PrimaryBackup { sync: false };

    fn item(key: &str, fill: u8, len: usize) -> PutItem {
        PutItem {
            key: key.into(),
            value: Bytes::from(vec![fill; len]),
        }
    }

    /// Send `items` the way a client does, one `Put` of one item or many,
    /// and return the reply as it came off the wire.
    fn put_reply(m: &Arc<Mesh<DataMsg>>, to: &NodeId, items: &[PutItem]) -> DataMsg {
        let msg = DataMsg::Put {
            items: items.to_vec(),
        };
        let cli = NodeId::new(to.region, "cli");
        let bytes = msg.wire_bytes();
        let patience = SimDuration::from_hours(1);
        m.rpc(&cli, to, msg, bytes, patience)
            .expect("replica answers")
            .msg
    }

    /// Send `items` as [`put_reply`] does and return each item's version or
    /// failure code.
    fn put_items(
        m: &Arc<Mesh<DataMsg>>,
        to: &NodeId,
        items: &[PutItem],
    ) -> Vec<Result<u64, FailCode>> {
        put_results(put_reply(m, to, items))
    }

    fn put_results(reply: DataMsg) -> Vec<Result<u64, FailCode>> {
        let results = match reply {
            DataMsg::MultiReply { results } => results,
            DataMsg::Fail { code, why } => vec![ItemResult::Err { code, why }],
            other => panic!("put answered with {other:?}"),
        };
        results
            .into_iter()
            .map(|r| match r {
                ItemResult::Put { version } => Ok(version),
                ItemResult::Err { code, .. } => Err(code),
                other => panic!("put answered with {other:?}"),
            })
            .collect()
    }

    /// Drain `r`'s update queue: answered once its peers have applied it.
    fn flush(m: &Arc<Mesh<DataMsg>>, r: &ReplicaNode) {
        let ctrl = NodeId::new(r.node.region, "ctrl");
        let reply = m.rpc(
            &ctrl,
            &r.node,
            DataMsg::FlushQueue,
            64,
            SimDuration::from_hours(1),
        );
        assert!(matches!(reply.map(|r| r.msg), Ok(DataMsg::Ok)));
    }

    /// A coordination service on the data mesh's clock, and sessions on it.
    struct Coord {
        mesh: Arc<Mesh<wiera_coord::CoordMsg>>,
        service: Arc<wiera_coord::CoordService>,
        config: wiera_coord::CoordConfig,
    }

    impl Coord {
        fn on_clock_of(m: &Arc<Mesh<DataMsg>>) -> Coord {
            // Generous: compressed 3000x, the default would be a few wall ms.
            Coord::with_sessions(m, SimDuration::from_secs(6000), SimDuration::from_secs(50))
        }

        fn with_sessions(
            m: &Arc<Mesh<DataMsg>>,
            timeout: SimDuration,
            sweep: SimDuration,
        ) -> Coord {
            let fabric = Arc::new(Fabric::multicloud(5).without_jitter());
            let mesh = Mesh::new(fabric, m.clock.clone());
            let config = wiera_coord::CoordConfig {
                session_timeout: timeout,
                sweep_interval: sweep,
            };
            let zk = NodeId::new(Region::UsEast, "zk");
            let service = wiera_coord::CoordService::spawn(mesh.clone(), zk, config.clone())
                .expect("coord service spawns");
            Coord {
                mesh,
                service,
                config,
            }
        }

        fn session(&self, region: Region, name: &str) -> Arc<CoordClient> {
            let me = NodeId::new(region, format!("{name}/coord"));
            CoordClient::connect(
                self.mesh.clone(),
                me,
                self.service.node.clone(),
                &self.config,
            )
            .expect("coord session opens")
        }
    }

    fn sorted_digests(r: &ReplicaNode) -> Vec<KeyDigest> {
        let mut table = r.digest_table();
        table.sort_by(|a, b| a.key.cmp(&b.key));
        table
    }

    /// The labels of the put spans `r` left in the consistency history.
    fn put_spans(r: &ReplicaNode) -> Vec<String> {
        Tracer::global()
            .events()
            .into_iter()
            .filter(|e| e.subsystem == "history" && (e.op == "put" || e.op == "mput"))
            .filter(|e| e.node.as_deref() == Some(r.node.name.as_ref()))
            .map(|e| e.op)
            .collect()
    }

    fn egress(r: &ReplicaNode) -> u64 {
        r.stats.egress_bytes.load(Ordering::Relaxed)
    }

    /// Wire size of the one `Replicate` that copies `items`, whether a
    /// synchronous copy or a flush of the update queue sends it.
    fn replication_bytes(items: &[PutItem]) -> u64 {
        let items = items
            .iter()
            .map(|i| SyncObject {
                key: i.key.clone(),
                version: 1,
                modified: SimInstant::EPOCH,
                value: i.value.clone(),
            })
            .collect();
        DataMsg::Replicate { items, epoch: 1 }.wire_bytes()
    }

    /// The equivalence table: every consistency model × the node the client
    /// asked × one item or three (one key twice). Every row makes the same
    /// assertions, so a single put and a batch cannot drift apart again.
    #[test]
    fn a_put_is_one_op_for_any_model_entry_node_and_item_count() {
        let m = mesh(3000.0);
        let coord = Coord::on_clock_of(&m);
        // No other test serves puts in this region: the put counters of
        // these labels move only by what a row does.
        let region = Region::UsWest2;
        let mut row = 0;
        for model in [MP, PB_SYNC, PB_ASYNC, ConsistencyModel::Eventual] {
            for at_backup in [false, true] {
                for n in [1usize, 3] {
                    row += 1;
                    let at = if at_backup { "backup" } else { "primary" };
                    let what = format!("row {row}: {model}, at the {at}, {n} item(s)");
                    let node = |name: String| {
                        let session = (model == MP).then(|| coord.session(region, &name));
                        spawn(
                            &m,
                            ReplicaConfig {
                                coord: session,
                                ..config(region, &name, model, 1 << 30)
                            },
                        )
                    };
                    let (p, b) = (node(format!("eq{row}p")), node(format!("eq{row}b")));
                    let has_primary = matches!(model, ConsistencyModel::PrimaryBackup { .. });
                    wire(&[&p, &b], has_primary.then_some(&p));
                    let (target, other) = if at_backup { (&b, &p) } else { (&p, &b) };
                    let forwarded = at_backup && has_primary;
                    let sent = [
                        item("k", 0x11, 16),
                        item("j", 0x22, 24),
                        item("k", 0x33, 32),
                    ];
                    let sent = &sent[..n];

                    let model_label = model.to_string();
                    let region_label = region.to_string();
                    let labels = [
                        ("consistency", model_label.as_str()),
                        ("region", region_label.as_str()),
                    ];
                    let puts = MetricsRegistry::global().counter("wiera_put_total", &labels);
                    let errors = MetricsRegistry::global().counter("wiera_put_errors", &labels);
                    let (puts0, errors0) = (puts.get(), errors.get());

                    // One reply shape, a `MultiReply` of a result per item;
                    // the ack of one item is a bare 64-byte header.
                    let reply = put_reply(&m, &target.node, sent);
                    let shape = match &reply {
                        DataMsg::MultiReply { results } => results.len(),
                        other => panic!("{what}: answered {other:?}"),
                    };
                    assert_eq!(shape, n, "{what}");
                    let acks = if n == 1 { 64 } else { 64 + 8 * n as u64 };
                    assert_eq!(reply.wire_bytes(), acks, "{what}");

                    // Versions: the second write of "k" follows the first.
                    let versions = put_results(reply);
                    let want: &[Result<u64, FailCode>] = &[Ok(1), Ok(1), Ok(2)];
                    assert_eq!(versions, want[..n], "{what}");

                    // Both replicas converge on the same table, timestamps
                    // included.
                    flush(&m, &p);
                    flush(&m, &b);
                    let table = sorted_digests(&p);
                    assert_eq!(table, sorted_digests(&b), "{what}");
                    let latest: Vec<(&str, u64)> =
                        table.iter().map(|d| (d.key.as_str(), d.version)).collect();
                    let want: &[(&str, u64)] = if n == 1 {
                        &[("k", 1)]
                    } else {
                        &[("j", 1), ("k", 2)]
                    };
                    assert_eq!(latest, want, "{what}");

                    // One span per item per serving node, labelled by arity.
                    let label = if n == 1 { "put" } else { "mput" };
                    assert_eq!(put_spans(target), vec![label; n], "{what}");
                    let inner = if forwarded { n } else { 0 };
                    assert_eq!(put_spans(other), vec![label; inner], "{what}");

                    // Counted once per item, where the client asked.
                    assert_eq!(puts.get() - puts0, n as u64, "{what}");
                    assert_eq!(errors.get() - errors0, 0, "{what}");

                    // Exactly the messages the row should send left each node.
                    let (writer, relay) = if forwarded {
                        (other, target)
                    } else {
                        (target, other)
                    };
                    assert_eq!(egress(writer), replication_bytes(sent), "{what}");
                    let forward = DataMsg::ForwardPut {
                        items: sent.to_vec(),
                        origin: b.node.clone(),
                        epoch: 1,
                    };
                    let relayed = if forwarded { forward.wire_bytes() } else { 0 };
                    assert_eq!(egress(relay), relayed, "{what}");

                    for r in [&p, &b] {
                        r.stop();
                        if let Some(session) = r.coord_client() {
                            let _ = session.close();
                        }
                    }
                }
            }
        }
    }

    /// A backup whose coord session expired (its heartbeats stalled) still
    /// wins the election against a crashed primary: the refused lock renews
    /// the session and its lease, and the election retries once.
    #[test]
    fn an_expired_session_is_renewed_and_the_election_retried() {
        let m = mesh(3000.0);
        let coord = Coord::with_sessions(&m, SimDuration::from_secs(30), SimDuration::from_secs(2));
        let p = replica(&m, Region::UsWest, "exp-p", PB_SYNC);
        let b = spawn(
            &m,
            ReplicaConfig {
                coord: Some(coord.session(Region::UsEast, "exp-b")),
                ..config(Region::UsEast, "exp-b", PB_SYNC, 1 << 30)
            },
        );
        wire(&[&p, &b], Some(&p));
        let expired = b.coord_client().expect("the backup has a session");
        expired.pause_heartbeats();
        eventually("the backup's session expires", || {
            coord.service.session_count() == 0
        });
        p.crash();
        assert!(b.run_election(&p.node), "the backup must win the election");
        assert_eq!(b.primary(), Some(b.node.clone()));
        assert_eq!(b.epoch(), 2);
        let renewed = b.coord_client().expect("the backup keeps a session");
        assert!(!Arc::ptr_eq(&renewed, &expired));
        assert_eq!(coord.service.session_count(), 1);
        assert_eq!(renewed.exists(&lease_path(&b.node)), Ok(true));
        b.stop();
        let _ = renewed.close();
    }

    /// The fenced rows of the table: a deposed writer's synchronous batch is
    /// rolled back item by item under both models that copy synchronously.
    #[test]
    fn deposed_sync_batch_is_rolled_back_item_by_item() {
        let m = mesh(3000.0);
        let coord = Coord::on_clock_of(&m);
        let fenced =
            MetricsRegistry::global().counter("wiera_fenced_total", &[("msg", "deposed_mput")]);
        for model in [PB_SYNC, MP] {
            let node = |region: Region, name: &str| {
                let session = (model == MP).then(|| coord.session(region, name));
                // A memory tier of 1 KiB: a larger object fails in the engine.
                spawn(
                    &m,
                    ReplicaConfig {
                        coord: session,
                        ..config(region, name, model, 1024)
                    },
                )
            };
            let p = node(Region::UsWest, &format!("dep-p-{model}"));
            let b = node(Region::UsEast, &format!("dep-b-{model}"));
            wire(&[&p, &b], Some(&p));
            // The peer has been through a failover `p` never heard of.
            b.set_peers_direct(vec![p.node.clone()], Some(b.node.clone()), 2);
            let fenced0 = fenced.get();
            let sent = [item("a", 1, 16), item("big", 2, 2048), item("c", 3, 16)];
            let results = put_items(&m, &p.node, &sent);
            // Each written item is refused; the one the engine rejected keeps
            // its own error.
            let want = [
                Err(FailCode::StaleEpoch),
                Err(FailCode::Internal),
                Err(FailCode::StaleEpoch),
            ];
            assert_eq!(results, want, "{model}");
            assert_eq!(
                p.digest_table(),
                Vec::new(),
                "{model}: unacked writes rolled back"
            );
            assert_eq!(
                b.digest_table(),
                Vec::new(),
                "{model}: the stale copy was refused"
            );
            assert_eq!(fenced.get() - fenced0, 1, "{model}: fenced once per op");
            // A put of one is refused with `Fail` itself, so a client's
            // failover loop retries it at the elected primary.
            match put_reply(&m, &p.node, &sent[..1]) {
                DataMsg::Fail { code, .. } => assert_eq!(code, FailCode::StaleEpoch, "{model}"),
                other => panic!("{model}: a deposed put of one answered {other:?}"),
            }
            assert_eq!(p.digest_table(), Vec::new(), "{model}");
            p.stop();
            b.stop();
        }
    }

    // ---- forwarded batches: fenced, attributed, never shed or re-forwarded --

    fn batch_of_three() -> [PutItem; 3] {
        [item("x", 1, 16), item("y", 2, 16), item("z", 3, 16)]
    }

    #[test]
    fn backup_behind_the_primarys_epoch_is_fenced_for_a_batch_as_for_a_put() {
        let m = mesh(3000.0);
        let p = replica(&m, Region::UsWest, "p", PB_SYNC);
        let s = replica(&m, Region::UsEast, "s", PB_SYNC);
        wire(&[&p, &s], Some(&p));
        // The primary's leadership was confirmed at epoch 2; `s` missed it.
        p.set_peers_direct(vec![s.node.clone()], Some(p.node.clone()), 2);
        assert_eq!(
            put_items(&m, &s.node, &[item("k", 1, 16)]),
            [Err(FailCode::StaleEpoch)]
        );
        assert_eq!(
            put_items(&m, &s.node, &batch_of_three()),
            [Err(FailCode::StaleEpoch); 3]
        );
        assert_eq!(p.digest_table(), Vec::new());
    }

    #[test]
    fn forwarded_batch_is_counted_under_its_origin_not_as_direct_puts() {
        let m = mesh(3000.0);
        let p = replica(&m, Region::UsWest, "p", PB_SYNC);
        let s = replica(&m, Region::UsEast, "s", PB_SYNC);
        wire(&[&p, &s], Some(&p));
        assert_eq!(put_items(&m, &s.node, &batch_of_three()), [Ok(1); 3]);
        // The requests monitor (Fig. 8) sees batched remote traffic too.
        assert_eq!(
            p.forwarded_puts_since(SimInstant::EPOCH),
            vec![(s.node.clone(), 3)]
        );
        assert_eq!(p.direct_puts_since(SimInstant::EPOCH), 0);
        assert_eq!(s.direct_puts_since(SimInstant::EPOCH), 3);
    }

    #[test]
    fn forwarded_batch_is_served_by_a_primary_that_sheds_its_own_clients() {
        // Slow clock: the backlog must outlast a stalled test thread.
        let m = mesh(200.0);
        let p = overloaded_replica(&m, PB_SYNC);
        let s = replica(&m, Region::UsWest, "s", PB_SYNC);
        wire(&[&p, &s], Some(&p));
        // A standing backlog the forwarded op can still wait out.
        p.force_backlog(SimDuration::from_secs(30));
        assert_eq!(
            put_items(&m, &p.node, &batch_of_three()),
            [Err(FailCode::Overloaded)]
        );
        // Shed for the primary's own clients, served for the backup's: the
        // forwarded op already paid admission at `s`.
        assert_eq!(put_items(&m, &s.node, &batch_of_three()), [Ok(1); 3]);
    }

    #[test]
    fn forwarded_batch_is_applied_by_its_receiver_never_forwarded_again() {
        let m = mesh(3000.0);
        let x = replica(&m, Region::UsWest, "x", PB_SYNC);
        let s = replica(&m, Region::UsEast, "s", PB_SYNC);
        // `s` believes `x` leads; `x` itself knows of no primary at all.
        s.set_peers_direct(vec![x.node.clone()], Some(x.node.clone()), 1);
        x.set_peers_direct(vec![s.node.clone()], None, 1);
        assert_eq!(put_items(&m, &s.node, &batch_of_three()), [Ok(1); 3]);
        assert_eq!(sorted_digests(&x).len(), 3);
        assert_eq!(egress(&x), replication_bytes(&batch_of_three()));
    }

    // ---- monitor windows and read timestamps --------------------------------

    #[test]
    fn monitor_windows_keep_the_retention_period_and_no_more() {
        let m = mesh(3000.0);
        let p = replica(&m, Region::UsWest, "p", PB_SYNC);
        let s = replica(&m, Region::UsEast, "s", PB_SYNC);
        wire(&[&p, &s], Some(&p));
        let mut recent = SimInstant::EPOCH;
        for round in 0..3 {
            if round > 0 {
                m.clock.sleep(WINDOW_RETENTION + SimDuration::from_secs(10));
            }
            recent = m.clock.now();
            assert_eq!(put_items(&m, &p.node, &[item("d", round, 16)]).len(), 1);
            assert_eq!(put_items(&m, &s.node, &batch_of_three()).len(), 3);
        }
        // Three rounds more than a retention period apart: only the last
        // is still held, and a recent `since` is answered as before.
        assert_eq!(p.direct_puts.lock().len(), 1);
        assert_eq!(p.forwarded_puts.lock()[&s.node].len(), 3);
        assert_eq!(p.put_window.lock().len(), 1);
        assert_eq!(p.direct_puts_since(recent), 1);
        assert_eq!(p.forwarded_puts_since(recent), vec![(s.node.clone(), 3)]);
        assert_eq!(p.put_latencies_since(recent).len(), 1);
    }

    #[test]
    fn get_reports_the_modified_time_the_put_stamped() {
        let m = mesh(3000.0);
        let p = replica(&m, Region::UsWest, "p", PB_SYNC);
        let s = replica(&m, Region::UsEast, "s", PB_SYNC);
        wire(&[&p, &s], Some(&p));
        assert_eq!(put_items(&m, &p.node, &[item("k", 1, 16)]), [Ok(1)]);
        let stamped = |r: &ReplicaNode| {
            let meta = r.instance().meta();
            meta.with("k", |o| o.version(1).unwrap().modified)
                .expect("k exists")
        };
        let at = stamped(&p);
        assert!(at > SimInstant::EPOCH);
        // The backup holds the primary's stamp, not one of its own.
        assert_eq!(stamped(&s), at);
        let cli = NodeId::new(Region::UsWest, "cli");
        let get = |to: &ReplicaNode, msg: DataMsg| app_rpc(&m, &cli, &to.node, msg).unwrap();
        assert_eq!(
            get(
                &p,
                DataMsg::Get {
                    keys: vec!["k".into()]
                }
            )
            .modified,
            at
        );
        let pinned = DataMsg::GetVersion {
            key: "k".into(),
            version: 1,
        };
        assert_eq!(get(&s, pinned).modified, at);
        // Batched and forwarded reads carry it through unchanged.
        s.set_forward_gets_to(Some(p.node.clone()));
        let keys = vec!["k".to_string(), "missing".to_string()];
        let (results, _) = s.read_keys(&keys, None);
        match results.as_slice() {
            [ItemResult::Value { modified, .. }, ItemResult::Err { code, .. }] => {
                assert_eq!((*modified, *code), (at, FailCode::NotFound));
            }
            other => panic!("{other:?}"),
        }
    }
}
