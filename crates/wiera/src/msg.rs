//! Wire protocol of the Wiera system (the Thrift IDL stand-in).
//!
//! One message enum covers the three RPC surfaces the paper describes:
//! application ↔ instance (PUT/GET and the Table 2 versioning API),
//! instance ↔ instance (replication, forwarding, state sync), and
//! controller ↔ instance (consistency switches, primary changes, health).

use bytes::Bytes;
use std::sync::Arc;
use wiera_net::NodeId;
use wiera_policy::ConsistencyModel;
use wiera_sim::SimInstant;

/// Everything that travels between Wiera nodes.
#[derive(Debug, Clone)]
pub enum DataMsg {
    // ---- application ↔ instance (Table 2 API) ----
    /// Op-budget envelope around an application request. Carries the
    /// absolute deadline (on the shared modeled clock, so every hop can
    /// drop work that can no longer be answered in time) and whether the
    /// caller accepts a possibly-stale degraded answer under overload.
    /// Replicas unwrap it before dispatching the inner op.
    WithBudget {
        /// Absolute deadline, µs since [`SimInstant::EPOCH`]. `None`
        /// means unbounded (legacy behavior).
        deadline_us: Option<u64>,
        /// Under overload an eventual-policy Get may be answered from
        /// local state without queueing; the reply is marked `degraded`.
        allow_degraded: bool,
        inner: Box<DataMsg>,
    },
    Put {
        key: String,
        value: Bytes,
    },
    Get {
        key: String,
    },
    GetVersion {
        key: String,
        version: u64,
    },
    GetVersionList {
        key: String,
    },
    Update {
        key: String,
        version: u64,
        value: Bytes,
    },
    Remove {
        key: String,
    },
    RemoveVersion {
        key: String,
        version: u64,
    },
    /// Bulk write: many puts in one request, client → replica only (a
    /// backup relays it as [`DataMsg::ForwardPut`]). The whole batch pays a
    /// single wire header; per-item outcomes come back in
    /// [`DataMsg::MultiReply`] in request order.
    MultiPut {
        items: Vec<PutItem>,
    },
    /// Bulk read; per-item outcomes come back in [`DataMsg::MultiReply`].
    MultiGet {
        keys: Vec<String>,
    },
    /// Per-item results for a `MultiPut`/`MultiGet`, in request order.
    MultiReply {
        results: Vec<ItemResult>,
    },

    /// Successful write: the version written and where it landed.
    PutAck {
        version: u64,
    },
    /// Successful read. `degraded` is the explicit staleness marker: the
    /// value was served from local state under overload (eventual policy
    /// only, and only when the request allowed it) and may lag the newest
    /// acknowledged write.
    GetReply {
        value: Bytes,
        version: u64,
        modified: SimInstant,
        degraded: bool,
    },
    VersionList {
        versions: Vec<u64>,
    },
    Removed,
    /// Request-level failure, with a machine-checkable kind so callers
    /// branch on `code` instead of substring-matching `why`.
    Fail {
        code: FailCode,
        why: String,
    },

    // ---- instance ↔ instance ----
    /// Propagate object versions to a peer — a synchronous copy of one put
    /// or of a batch, a coalesced flush of the update queue, an
    /// anti-entropy push: the only replication message. The receiver
    /// applies last-write-wins per item. `epoch` fences a deposed primary:
    /// receivers at a higher epoch refuse it. `items` is an `Arc` slice so
    /// the fan-out to N peers shares one immutable batch instead of
    /// deep-cloning it per send.
    Replicate {
        items: Arc<[SyncObject]>,
        epoch: u64,
    },
    /// Last-write-wins outcome at the receiver (§4.2): `applied` is true
    /// when at least one item won its LWW race.
    ReplicateAck {
        applied: bool,
    },
    /// A non-primary forwarding an application put — single or batched —
    /// to the primary: the only forward message, so every forwarded write
    /// is epoch-fenced (a primary at a higher epoch refuses stale forwards)
    /// and attributed to `origin`. Answered like the op it carries:
    /// [`DataMsg::PutAck`] for one item, [`DataMsg::MultiReply`] for many.
    ForwardPut {
        items: Vec<PutItem>,
        origin: NodeId,
        epoch: u64,
    },
    /// The latest version of each object in `keys`, or of every object when
    /// `keys` is `None` (full-state transfer for replica repair, §4.4).
    /// Answered with [`DataMsg::SyncReply`].
    FetchObjects {
        keys: Option<Vec<String>>,
    },
    SyncReply {
        objects: Vec<SyncObject>,
    },
    /// Anti-entropy (§4.4): a rejoining replica asks a peer for its per-key
    /// latest version + content digest, to diff against local state without
    /// shipping the values.
    DigestRequest,
    DigestReply {
        entries: Vec<KeyDigest>,
        epoch: u64,
        /// The replier's view of the primary, so a deposed primary that
        /// rejoins adopts the post-failover leadership along with the epoch
        /// (epoch and primary always travel together).
        primary: Option<NodeId>,
    },

    // ---- controller ↔ instance ----
    /// Two-phase consistency switch (§3.3.2): drain queues, block new
    /// requests, adopt the model, unblock. `epoch` guards against stale
    /// control messages.
    ChangeConsistency {
        to: ConsistencyModel,
        epoch: u64,
    },
    /// Re-point every replica at a new primary (Fig. 5(b)).
    ChangePrimary {
        new_primary: NodeId,
        epoch: u64,
    },
    /// Install the peer list (TIM step 6 of §4.1).
    SetPeers {
        peers: Vec<NodeId>,
        primary: Option<NodeId>,
        epoch: u64,
    },
    /// Install a replica's slice of the fleet shard map: the shards its
    /// group owns under `map_version`, plus the ring parameters so the
    /// replica rebuilds the identical ring locally ([`ShardMap`] hashing
    /// is pinned). Versioned like epochs: a receiver at a higher map
    /// version refuses the install (`WrongShard`), so a stale fleet
    /// manager can never regress ownership.
    SetShards {
        shards: Vec<u32>,
        num_shards: u32,
        vnodes: u32,
        map_version: u64,
    },
    /// Retire a shard after a completed move handoff: delete every local
    /// object of `shard`. Guarded by `map_version` — refused unless the
    /// replica has already adopted a map at or above that version that no
    /// longer assigns it the shard.
    DropShard {
        shard: u32,
        map_version: u64,
    },
    /// Liveness probe (TSM heartbeat / network monitor ping).
    Ping,
    Pong,
    /// Synchronously drain the eventual-mode replication queue (planned
    /// shutdown: flush before stop so queued updates are never dropped).
    FlushQueue,
    /// Graceful stop.
    Stop,
    Ok,

    // ---- Tiera server ↔ controller (TSM protocol, §4.1) ----
    /// A Tiera server announcing itself to the TSM ("whenever a Tiera
    /// server launches, it connects to the TSM first").
    ServerHello {
        region: wiera_net::Region,
    },
    /// TSM asking a server to spawn an instance replica (step 3 of §4.1).
    SpawnReplica {
        spec: ReplicaSpec,
    },
    /// The server's answer: the new replica's address (step 5).
    Spawned {
        node: NodeId,
    },
    StopReplica {
        node: NodeId,
    },
    /// Bulk state install on a freshly repaired replica (§4.4).
    LoadState {
        objects: Vec<SyncObject>,
    },

    // ---- instance → controller (monitor escalation, §4.3) ----
    /// A monitor thread asking Wiera to change the deployment's policy
    /// (the `change_policy()` response).
    RequestChange {
        deployment: String,
        change: ChangeRequest,
    },
}

/// What a monitor asks the controller to change.
#[derive(Debug, Clone, PartialEq)]
pub enum ChangeRequest {
    Consistency(ConsistencyModel),
    Primary(NodeId),
}

/// Everything a Tiera server needs to spawn a replica.
#[derive(Debug, Clone)]
pub struct ReplicaSpec {
    pub deployment: String,
    /// Instance name, unique within the deployment (e.g. the region label).
    pub name: String,
    pub consistency: ConsistencyModel,
    /// Queue distribution period, ms.
    pub flush_ms: f64,
    pub tiers: Vec<wiera_policy::TierLayout>,
    pub rules: Vec<wiera_policy::Rule>,
    pub max_versions: Option<usize>,
    /// Monitor configuration (latency/requests), if dynamism is enabled.
    pub monitors: MonitorSpec,
    /// Whether the replica should take the multi-primaries lock path.
    pub needs_coord: bool,
    /// The fleet shard group this replica belongs to, if the deployment is
    /// one group of a sharded fleet. Failover and suspect events carry this
    /// id so per-group primaries are never conflated with a global one.
    pub shard_group: Option<u32>,
    /// Modeled per-op service time at this replica, ms. `None` (the
    /// default) keeps the pre-fleet behavior: ops cost only their wire and
    /// storage time. Benchmarks set it to model a saturable server, so
    /// aggregate throughput scales with the number of groups instead of
    /// with client count alone.
    pub service_time_ms: Option<f64>,
    /// CoDel-style load shedding over the admission queue. `None` (the
    /// default) never sheds; only meaningful with `service_time_ms` set.
    pub overload: Option<OverloadSpec>,
}

/// Wire form of the replica's shedding policy (see the replica's
/// `OverloadConfig` for semantics: shed client ops once the admission
/// backlog has stayed above `target_delay_ms` for `interval_ms`).
#[derive(Debug, Clone, Copy)]
pub struct OverloadSpec {
    pub target_delay_ms: f64,
    pub interval_ms: f64,
}

/// Which monitor threads a replica should run (§3.2.3 / §4.3).
#[derive(Debug, Clone, Default)]
pub struct MonitorSpec {
    /// LatencyMonitoring: switch consistency on (threshold, period).
    pub latency: Option<LatencySpec>,
    /// RequestsMonitoring: move the primary toward forwarding hot spots.
    pub requests: Option<RequestsSpec>,
    /// Failure detection (§4.4): watch the primary's coord lease and
    /// heartbeat silence; elect a replacement when it goes suspect.
    pub detector: Option<DetectorSpec>,
}

#[derive(Debug, Clone)]
pub struct LatencySpec {
    /// Put-latency threshold in ms (the paper's 800 ms).
    pub threshold_ms: f64,
    /// Sustained-violation period in ms (the paper's 30 s).
    pub period_ms: f64,
    /// How often the dedicated thread evaluates, ms.
    pub check_every_ms: f64,
    /// The weak model to fall back to.
    pub weak: ConsistencyModel,
    /// The strong model to restore.
    pub strong: ConsistencyModel,
}

#[derive(Debug, Clone)]
pub struct RequestsSpec {
    /// History window compared (the paper checks "the last 30 seconds").
    pub window_ms: f64,
    /// Evaluation period (the paper's 15 s).
    pub check_every_ms: f64,
}

/// Failure-detector configuration (§4.4). The worst-case sim-time window
/// from crash to a declared suspect is `coord session timeout + sweep
/// interval` (lease expiry) plus one `check_every_ms` detector tick; the
/// `suspect_after_ms` silence floor guards against declaring a node dead on
/// one dropped probe.
#[derive(Debug, Clone)]
pub struct DetectorSpec {
    /// How often the detector thread probes, ms.
    pub check_every_ms: f64,
    /// Minimum heartbeat/probe silence before a lease-less node is declared
    /// suspect, ms.
    pub suspect_after_ms: f64,
}

/// One object version in a state-sync transfer.
#[derive(Debug, Clone)]
pub struct SyncObject {
    pub key: String,
    pub version: u64,
    pub modified: SimInstant,
    pub value: Bytes,
}

/// One key's latest version + FNV content digest in a [`DataMsg::DigestReply`]
/// — the anti-entropy summary a rejoining replica diffs against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyDigest {
    pub key: String,
    pub version: u64,
    pub modified: SimInstant,
    pub digest: u64,
}

/// Failure kinds a replica can report. Coarse on purpose: clients branch
/// on these, humans read `why`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FailCode {
    /// The object does not exist.
    NotFound,
    /// The object exists but the requested version does not.
    VersionMissing,
    /// The request cannot be served right now (no primary configured,
    /// coordination lock unavailable, consistency switch in flight).
    Blocked,
    /// Anything else: engine errors, protocol violations, bad requests.
    Internal,
    /// The sender's deployment epoch is older than the receiver's: a deposed
    /// primary (or a stale controller broadcast) was fenced off (§4.4).
    StaleEpoch,
    /// The key's shard is not owned by this replica's group under the
    /// current shard map — the client routed on a stale map (or the shard
    /// is mid-move and nobody serves it yet). Retryable: refresh the map
    /// and re-route.
    WrongShard,
    /// The replica shed the request before queueing it: its admission
    /// controller judged the backlog unserviceable within an acceptable
    /// delay. Retryable — another replica (or a later attempt) may have
    /// headroom.
    Overloaded,
    /// The request's deadline expired before the work completed; partial
    /// work was dropped. Not retryable: the budget is spent, and a fresh
    /// attempt needs a fresh deadline from the caller.
    DeadlineExceeded,
}

impl std::fmt::Display for FailCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            FailCode::NotFound => "not-found",
            FailCode::VersionMissing => "version-missing",
            FailCode::Blocked => "blocked",
            FailCode::Internal => "internal",
            FailCode::StaleEpoch => "stale-epoch",
            FailCode::WrongShard => "wrong-shard",
            FailCode::Overloaded => "overloaded",
            FailCode::DeadlineExceeded => "deadline-exceeded",
        };
        f.write_str(s)
    }
}

/// One write in a [`DataMsg::MultiPut`].
#[derive(Debug, Clone)]
pub struct PutItem {
    pub key: String,
    pub value: Bytes,
}

/// One outcome in a [`DataMsg::MultiReply`], mirroring the single-op
/// replies item by item.
#[derive(Debug, Clone)]
pub enum ItemResult {
    /// The item's write succeeded (cf. [`DataMsg::PutAck`]).
    Put { version: u64 },
    /// The item's read succeeded (cf. [`DataMsg::GetReply`]).
    Value {
        value: Bytes,
        version: u64,
        modified: SimInstant,
    },
    /// The item failed; the rest of the batch is unaffected.
    Err { code: FailCode, why: String },
}

impl ItemResult {
    /// The single-op reply this item mirrors: how a batch of one answers.
    pub(crate) fn into_reply(self) -> DataMsg {
        match self {
            ItemResult::Put { version } => DataMsg::PutAck { version },
            ItemResult::Value {
                value,
                version,
                modified,
            } => DataMsg::GetReply {
                value,
                version,
                modified,
                degraded: false,
            },
            ItemResult::Err { code, why } => DataMsg::Fail { code, why },
        }
    }

    /// Payload bytes this item contributes to its batch reply (no
    /// per-item header beyond a small fixed tag).
    fn wire_bytes(&self) -> u64 {
        match self {
            ItemResult::Put { .. } => 8,
            ItemResult::Value { value, .. } => 16 + value.len() as u64,
            ItemResult::Err { why, .. } => 8 + why.len() as u64,
        }
    }
}

impl DataMsg {
    /// Approximate wire size for network modeling: header plus payload.
    ///
    /// Batched messages pay the 64-byte header **once per batch** plus a
    /// small fixed per-item tag — this amortization is the wire-level half
    /// of the bulk-operation win (the other half is fewer round trips).
    pub fn wire_bytes(&self) -> u64 {
        const HDR: u64 = 64;
        /// Per-item framing inside a batch (length prefixes + tag).
        const ITEM: u64 = 8;
        match self {
            // The envelope adds a deadline + flags word on top of the
            // inner request's cost.
            DataMsg::WithBudget { inner, .. } => 16 + inner.wire_bytes(),
            DataMsg::Put { key, value } => HDR + key.len() as u64 + value.len() as u64,
            DataMsg::Update { key, value, .. } => HDR + key.len() as u64 + value.len() as u64,
            DataMsg::GetReply { value, .. } => HDR + value.len() as u64,
            // One replicated object frames like the put it copies; many pay
            // the header once plus a version/timestamp frame per object.
            DataMsg::Replicate { items, .. } if items.len() == 1 => {
                HDR + items[0].key.len() as u64 + items[0].value.len() as u64
            }
            DataMsg::Replicate { items, .. } => HDR + objects_bytes(items),
            DataMsg::SyncReply { objects } => HDR + objects_bytes(objects),
            DataMsg::DigestReply { entries, .. } => {
                HDR + entries.iter().map(|e| e.key.len() as u64 + 24).sum::<u64>()
            }
            DataMsg::FetchObjects { keys } => {
                HDR + keys
                    .iter()
                    .flatten()
                    .map(|k| k.len() as u64 + ITEM)
                    .sum::<u64>()
            }
            // A forwarded put costs what the op it relays would: one item
            // frames like a `Put`, many like a `MultiPut`.
            DataMsg::ForwardPut { items, .. } if items.len() == 1 => {
                HDR + items[0].key.len() as u64 + items[0].value.len() as u64
            }
            DataMsg::MultiPut { items } | DataMsg::ForwardPut { items, .. } => {
                HDR + items
                    .iter()
                    .map(|i| i.key.len() as u64 + i.value.len() as u64 + ITEM)
                    .sum::<u64>()
            }
            DataMsg::MultiGet { keys } => {
                HDR + keys.iter().map(|k| k.len() as u64 + ITEM).sum::<u64>()
            }
            DataMsg::SetShards { shards, .. } => HDR + shards.len() as u64 * 4 + 16,
            DataMsg::MultiReply { results } => {
                HDR + results.iter().map(|r| r.wire_bytes()).sum::<u64>()
            }
            DataMsg::Get { key } | DataMsg::Remove { key } | DataMsg::GetVersionList { key } => {
                HDR + key.len() as u64
            }
            DataMsg::GetVersion { key, .. } | DataMsg::RemoveVersion { key, .. } => {
                HDR + key.len() as u64
            }
            _ => HDR,
        }
    }

    /// The keys an application op addresses, in request order (empty for
    /// every other message): what shard ownership is checked against.
    pub(crate) fn op_keys(&self) -> Vec<&str> {
        match self {
            DataMsg::Put { key, .. }
            | DataMsg::Get { key }
            | DataMsg::GetVersion { key, .. }
            | DataMsg::GetVersionList { key }
            | DataMsg::Update { key, .. }
            | DataMsg::Remove { key }
            | DataMsg::RemoveVersion { key, .. } => vec![key.as_str()],
            DataMsg::MultiPut { items } | DataMsg::ForwardPut { items, .. } => {
                items.iter().map(|i| i.key.as_str()).collect()
            }
            DataMsg::MultiGet { keys } => keys.iter().map(String::as_str).collect(),
            _ => Vec::new(),
        }
    }
}

/// Payload bytes of a list of object versions: key, value and a fixed
/// version/timestamp frame per object.
fn objects_bytes(objects: &[SyncObject]) -> u64 {
    objects
        .iter()
        .map(|o| o.key.len() as u64 + o.value.len() as u64 + 32)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_size_tracks_payload() {
        let small = DataMsg::Put {
            key: "k".into(),
            value: Bytes::from_static(b"x"),
        };
        let big = DataMsg::Put {
            key: "k".into(),
            value: Bytes::from(vec![0u8; 4096]),
        };
        assert!(big.wire_bytes() > small.wire_bytes() + 4000);
        assert_eq!(DataMsg::Ping.wire_bytes(), 64);
        // A full fetch is one header; a keyed one adds each key and its frame.
        assert_eq!(DataMsg::FetchObjects { keys: None }.wire_bytes(), 64);
        let keys = Some(vec!["user00000001".to_string(), "k".to_string()]);
        let named = DataMsg::FetchObjects { keys }.wire_bytes();
        assert_eq!(named, 64 + (12 + 8) + (1 + 8));
    }

    #[test]
    fn sync_reply_counts_all_objects() {
        let objects = vec![
            SyncObject {
                key: "a".into(),
                version: 1,
                modified: SimInstant::EPOCH,
                value: Bytes::from(vec![0u8; 100]),
            },
            SyncObject {
                key: "b".into(),
                version: 2,
                modified: SimInstant::EPOCH,
                value: Bytes::from(vec![0u8; 200]),
            },
        ];
        let m = DataMsg::SyncReply { objects };
        assert!(m.wire_bytes() > 300);
    }

    #[test]
    fn batched_puts_amortize_the_header() {
        let items: Vec<PutItem> = (0..64)
            .map(|i| PutItem {
                key: format!("user{i:08}"),
                value: Bytes::from(vec![0u8; 32]),
            })
            .collect();
        let singles: u64 = items
            .iter()
            .map(|i| {
                DataMsg::Put {
                    key: i.key.clone(),
                    value: i.value.clone(),
                }
                .wire_bytes()
                    + DataMsg::PutAck { version: 1 }.wire_bytes()
            })
            .sum();
        let batch = DataMsg::MultiPut { items }.wire_bytes()
            + DataMsg::MultiReply {
                results: (0..64).map(|_| ItemResult::Put { version: 1 }).collect(),
            }
            .wire_bytes();
        assert!(
            batch * 2 <= singles,
            "batch {batch} should cost at most half of per-op {singles}"
        );
    }

    #[test]
    fn forwarded_put_costs_what_the_op_it_relays_costs() {
        let items: Vec<PutItem> = (0..3)
            .map(|i| PutItem {
                key: format!("user{i:08}"),
                value: Bytes::from(vec![0u8; 100 + i]),
            })
            .collect();
        let forward = |items: &[PutItem]| DataMsg::ForwardPut {
            items: items.to_vec(),
            origin: NodeId::new(wiera_net::Region::UsEast, "backup"),
            epoch: 7,
        };
        let single = DataMsg::Put {
            key: items[0].key.clone(),
            value: items[0].value.clone(),
        };
        assert_eq!(forward(&items[..1]).wire_bytes(), single.wire_bytes());
        let batch = DataMsg::MultiPut {
            items: items.clone(),
        };
        assert_eq!(forward(&items).wire_bytes(), batch.wire_bytes());
        assert_eq!(forward(&items).op_keys(), batch.op_keys());
        assert_eq!(single.op_keys(), ["user00000000"]);
        assert!(DataMsg::Ping.op_keys().is_empty());
    }

    #[test]
    fn batched_gets_amortize_the_header() {
        let keys: Vec<String> = (0..64).map(|i| format!("user{i:08}")).collect();
        let singles: u64 = keys
            .iter()
            .map(|k| {
                DataMsg::Get { key: k.clone() }.wire_bytes()
                    + DataMsg::GetReply {
                        value: Bytes::from(vec![0u8; 32]),
                        version: 1,
                        modified: SimInstant::EPOCH,
                        degraded: false,
                    }
                    .wire_bytes()
            })
            .sum();
        let batch = DataMsg::MultiGet { keys }.wire_bytes()
            + DataMsg::MultiReply {
                results: (0..64)
                    .map(|_| ItemResult::Value {
                        value: Bytes::from(vec![0u8; 32]),
                        version: 1,
                        modified: SimInstant::EPOCH,
                    })
                    .collect(),
            }
            .wire_bytes();
        assert!(
            batch * 2 <= singles,
            "batch {batch} should cost at most half of per-op {singles}"
        );
    }

    #[test]
    fn replicate_batch_amortizes_the_header() {
        let items: Vec<SyncObject> = (0..8)
            .map(|i| SyncObject {
                key: format!("k{i}"),
                version: i,
                modified: SimInstant::EPOCH,
                value: Bytes::from(vec![0u8; 16]),
            })
            .collect();
        let replicate = |items: &[SyncObject]| DataMsg::Replicate {
            items: items.into(),
            epoch: 1,
        };
        let singles: u64 = items.chunks(1).map(|one| replicate(one).wire_bytes()).sum();
        let batch = replicate(&items).wire_bytes();
        assert!(batch < singles, "batch {batch} vs singles {singles}");
        // One object frames like the put it copies.
        let put = DataMsg::Put {
            key: items[0].key.clone(),
            value: items[0].value.clone(),
        };
        assert_eq!(replicate(&items[..1]).wire_bytes(), put.wire_bytes());
    }
}
