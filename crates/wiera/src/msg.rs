//! Wire protocol of the Wiera system (the Thrift IDL stand-in).
//!
//! One message enum covers the three RPC surfaces the paper describes:
//! application ↔ instance (PUT/GET and the Table 2 versioning API),
//! instance ↔ instance (replication, forwarding, state sync), and
//! controller ↔ instance (consistency switches, primary changes, health).

use bytes::Bytes;
use std::collections::HashMap;
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
    /// Write `items`: a single put is a put of one, a bulk write a put of
    /// many (a backup relays it as [`DataMsg::ForwardPut`]). A batch pays a
    /// single wire header; one item frames exactly like a lone put.
    /// Answered with [`DataMsg::MultiReply`] in request order.
    Put {
        items: Vec<PutItem>,
    },
    /// Read the latest version of each of `keys`; a single get is a get of
    /// one. Answered with [`DataMsg::MultiReply`] in request order.
    Get {
        keys: Vec<String>,
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
    /// Per-item results of a `Put`, `Get`, `GetVersion`, `Update` or
    /// `ForwardPut`, in request order. A client op of one item whose item
    /// failed is answered [`DataMsg::Fail`] instead, so the client's
    /// failover loop sees the failure.
    MultiReply {
        results: Vec<ItemResult>,
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
    /// and attributed to `origin`. Answered with [`DataMsg::MultiReply`]
    /// whatever the item count.
    ForwardPut {
        items: Vec<PutItem>,
        origin: NodeId,
        epoch: u64,
    },
    /// The latest version of each object in `keys` (unknown keys are
    /// skipped): what a digest diff found lacking, anti-entropy's pull and
    /// the fleet's copy step. Answered with [`DataMsg::SyncReply`].
    FetchObjects {
        keys: Vec<String>,
    },
    SyncReply {
        objects: Vec<SyncObject>,
    },
    /// Anti-entropy (§4.4): a rejoining replica asks a peer for its per-key
    /// latest version + content digest, to diff against local state without
    /// shipping the values. A shard move's copy step asks about one shard's
    /// keys only, by the replica's installed ring.
    DigestRequest {
        shard: Option<u32>,
    },
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

/// The one rule that decides what is copied between replicas: the entries
/// of `from` that `to` lacks — absent there, older there, or
/// at the same version with other content written earlier (the receiver's
/// last-write-wins test then accepts every one of them). Where `to` lists a
/// key twice, its last entry counts.
pub(crate) fn lacking<'a>(from: &'a [KeyDigest], to: &[KeyDigest]) -> Vec<&'a KeyDigest> {
    let have: HashMap<&str, &KeyDigest> = to.iter().map(|d| (d.key.as_str(), d)).collect();
    from.iter()
        .filter(|f| match have.get(f.key.as_str()) {
            None => true,
            Some(h) => {
                f.version > h.version
                    || (f.version == h.version && f.digest != h.digest && f.modified > h.modified)
            }
        })
        .collect()
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

/// One write in a [`DataMsg::Put`].
#[derive(Debug, Clone)]
pub struct PutItem {
    pub key: String,
    pub value: Bytes,
}

/// One outcome in a [`DataMsg::MultiReply`].
#[derive(Debug, Clone)]
pub enum ItemResult {
    /// The item's write succeeded.
    Put { version: u64 },
    /// The item's read succeeded. `degraded` is the explicit staleness
    /// marker: the value was served from local state under overload
    /// (eventual policy only, and only when the request allowed it) and may
    /// lag the newest acknowledged write.
    Value {
        value: Bytes,
        version: u64,
        modified: SimInstant,
        degraded: bool,
    },
    /// The item failed; the rest of the batch is unaffected.
    Err { code: FailCode, why: String },
}

impl ItemResult {
    /// Payload bytes this item contributes to a batch reply (no per-item
    /// header beyond a small fixed tag).
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
        match self {
            // The envelope adds a deadline + flags word on top of the
            // inner request's cost.
            DataMsg::WithBudget { inner, .. } => 16 + inner.wire_bytes(),
            DataMsg::Update { key, value, .. } => HDR + key.len() as u64 + value.len() as u64,
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
                HDR + keys.iter().map(|k| k.len() as u64 + ITEM).sum::<u64>()
            }
            DataMsg::DigestRequest { shard: Some(_) } => HDR + 4,
            // One item frames like the lone op it is, with no per-item
            // frame; a batch adds one per item.
            DataMsg::Put { items } | DataMsg::ForwardPut { items, .. } => {
                let payload = items.iter().map(|i| i.key.len() + i.value.len());
                HDR + payload.sum::<usize>() as u64 + frames(items.len())
            }
            DataMsg::Get { keys } => {
                HDR + keys.iter().map(String::len).sum::<usize>() as u64 + frames(keys.len())
            }
            DataMsg::SetShards { shards, .. } => HDR + shards.len() as u64 * 4 + 16,
            // One result frames like the single-op reply it stands for: an
            // ack or a failure is a bare header, a read adds its value.
            DataMsg::MultiReply { results } => match results.as_slice() {
                [ItemResult::Value { value, .. }] => HDR + value.len() as u64,
                [_] => HDR,
                _ => HDR + results.iter().map(|r| r.wire_bytes()).sum::<u64>(),
            },
            DataMsg::GetVersion { key, .. }
            | DataMsg::GetVersionList { key }
            | DataMsg::Remove { key }
            | DataMsg::RemoveVersion { key, .. } => HDR + key.len() as u64,
            _ => HDR,
        }
    }

    /// The keys an application op addresses, in request order (empty for
    /// every other message): what shard ownership is checked against.
    pub(crate) fn op_keys(&self) -> Vec<&str> {
        match self {
            DataMsg::GetVersion { key, .. }
            | DataMsg::GetVersionList { key }
            | DataMsg::Update { key, .. }
            | DataMsg::Remove { key }
            | DataMsg::RemoveVersion { key, .. } => vec![key.as_str()],
            DataMsg::Put { items } | DataMsg::ForwardPut { items, .. } => {
                items.iter().map(|i| i.key.as_str()).collect()
            }
            DataMsg::Get { keys } => keys.iter().map(String::as_str).collect(),
            _ => Vec::new(),
        }
    }
}

/// Per-item framing inside a batch (length prefixes + tag).
const ITEM: u64 = 8;

/// Per-item framing of an op of `n` items: none for one, which frames like
/// the lone op it is, and [`ITEM`] each for a batch.
fn frames(n: usize) -> u64 {
    match n {
        1 => 0,
        n => n as u64 * ITEM,
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

    fn put_of(items: &[PutItem]) -> DataMsg {
        DataMsg::Put {
            items: items.to_vec(),
        }
    }

    fn sized_item(key: &str, len: usize) -> PutItem {
        PutItem {
            key: key.into(),
            value: Bytes::from(vec![0u8; len]),
        }
    }

    fn read_of(len: usize, degraded: bool) -> ItemResult {
        ItemResult::Value {
            value: Bytes::from(vec![0u8; len]),
            version: 1,
            modified: SimInstant::EPOCH,
            degraded,
        }
    }

    fn answer_of(results: Vec<ItemResult>) -> DataMsg {
        DataMsg::MultiReply { results }
    }

    #[test]
    fn wire_size_tracks_payload() {
        let small = put_of(&[sized_item("k", 1)]);
        let big = put_of(&[sized_item("k", 4096)]);
        assert!(big.wire_bytes() > small.wire_bytes() + 4000);
        assert_eq!(DataMsg::Ping.wire_bytes(), 64);
        // A fetch is one header plus each key and its frame.
        assert_eq!(DataMsg::FetchObjects { keys: Vec::new() }.wire_bytes(), 64);
        let keys = vec!["user00000001".to_string(), "k".to_string()];
        let named = DataMsg::FetchObjects { keys }.wire_bytes();
        assert_eq!(named, 64 + (12 + 8) + (1 + 8));
        // A one-item op and its answer pay no per-item frame: a put is
        // 64+k+v, a get or get_version 64+k, an ack or a failure 64, a read
        // 64+v (degraded or not).
        let key = "user00000001".to_string();
        assert_eq!(small.wire_bytes(), 66);
        assert_eq!(put_of(&[sized_item(&key, 1024)]).wire_bytes(), 1100);
        let get = DataMsg::Get {
            keys: vec![key.clone()],
        };
        assert_eq!(get.wire_bytes(), 76);
        let pinned = DataMsg::GetVersion { key, version: 3 };
        assert_eq!(pinned.wire_bytes(), 76);
        assert_eq!(
            answer_of(vec![ItemResult::Put { version: 1 }]).wire_bytes(),
            64
        );
        assert_eq!(answer_of(vec![read_of(1024, false)]).wire_bytes(), 1088);
        assert_eq!(answer_of(vec![read_of(1024, true)]).wire_bytes(), 1088);
        let fail = DataMsg::Fail {
            code: FailCode::StaleEpoch,
            why: "fenced: this node's epoch is stale".into(),
        };
        assert_eq!(fail.wire_bytes(), 64);
        let failed = ItemResult::Err {
            code: FailCode::NotFound,
            why: "no such key".into(),
        };
        assert_eq!(answer_of(vec![failed]).wire_bytes(), 64);
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
            .map(|i| sized_item(&format!("user{i:08}"), 32))
            .collect();
        let ack = || answer_of(vec![ItemResult::Put { version: 1 }]);
        let singles: u64 = items
            .chunks(1)
            .map(|one| put_of(one).wire_bytes() + ack().wire_bytes())
            .sum();
        let batch = put_of(&items).wire_bytes()
            + answer_of((0..64).map(|_| ItemResult::Put { version: 1 }).collect()).wire_bytes();
        assert!(
            batch * 2 <= singles,
            "batch {batch} should cost at most half of per-op {singles}"
        );
    }

    #[test]
    fn forwarded_put_costs_what_the_op_it_relays_costs() {
        let items: Vec<PutItem> = (0..3)
            .map(|i| sized_item(&format!("user{i:08}"), 100 + i))
            .collect();
        let forward = |items: &[PutItem]| DataMsg::ForwardPut {
            items: items.to_vec(),
            origin: NodeId::new(wiera_net::Region::UsEast, "backup"),
            epoch: 7,
        };
        let single = put_of(&items[..1]);
        assert_eq!(forward(&items[..1]).wire_bytes(), single.wire_bytes());
        // Forward of one: 64 + 12-byte key + 100-byte value, no item frame.
        assert_eq!(forward(&items[..1]).wire_bytes(), 176);
        let batch = put_of(&items);
        assert_eq!(forward(&items).wire_bytes(), batch.wire_bytes());
        assert_eq!(
            batch.wire_bytes(),
            64 + (12 + 100 + 8) + (12 + 101 + 8) + (12 + 102 + 8)
        );
        assert_eq!(forward(&items).op_keys(), batch.op_keys());
        assert_eq!(single.op_keys(), ["user00000000"]);
        assert!(DataMsg::Ping.op_keys().is_empty());
    }

    #[test]
    fn batched_gets_amortize_the_header() {
        let keys: Vec<String> = (0..64).map(|i| format!("user{i:08}")).collect();
        let get = |keys: &[String]| DataMsg::Get {
            keys: keys.to_vec(),
        };
        let singles: u64 = keys
            .chunks(1)
            .map(|one| get(one).wire_bytes() + answer_of(vec![read_of(32, false)]).wire_bytes())
            .sum();
        let batch = get(&keys).wire_bytes()
            + answer_of((0..64).map(|_| read_of(32, false)).collect()).wire_bytes();
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
        // One object frames like the put of one it copies: 64 + 2 + 16.
        let put = put_of(&[sized_item(&items[0].key, 16)]);
        assert_eq!(replicate(&items[..1]).wire_bytes(), put.wire_bytes());
        assert_eq!(put.wire_bytes(), 82);
    }
}
