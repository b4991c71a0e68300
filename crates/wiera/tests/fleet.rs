//! Fleet sharding integration tests: a consistent-hash fleet of replica
//! groups behind the shard-aware client.
//!
//! * single-key ops route by key hash to the owning group only;
//! * batch ops split per group and report per-item results in order;
//! * a `WrongShard` refusal surfaces as a retryable error when the map
//!   never settles;
//! * `move_shard` relocates a shard's data with the drained handoff and
//!   re-routes clients through the shared view;
//! * writes concurrent with a move are never lost once acked;
//! * `add_group` grows the fleet elastically.

use bytes::Bytes;
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use wiera::client::WieraClient;
use wiera::deployment::DeploymentConfig;
use wiera::fleet::{FleetConfig, WieraFleet};
use wiera::msg::{DataMsg, FailCode};
use wiera::testkit::{bodies, Cluster};
use wiera_net::{NodeId, Region};
use wiera_sim::SimDuration;

/// Full-cluster tests; run serially so RPC wall timeouts are not starved
/// on small CI hosts.
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn payload(tag: &str) -> Bytes {
    Bytes::from(format!("value-{tag}").into_bytes())
}

/// A two-region cluster with a primary-backup-sync policy registered, so
/// an acked write is synchronously on every replica of its group.
fn fleet_cluster(seed: u64) -> Cluster {
    let cluster = Cluster::launch(&[Region::UsEast, Region::UsWest], 3000.0, seed);
    cluster
        .register_policy_over(
            "fleetpol",
            &[("US-East", true), ("US-West", false)],
            bodies::PRIMARY_BACKUP_SYNC,
        )
        .unwrap();
    cluster
}

fn launch_fleet(cluster: &Cluster, id: &str, groups: u32) -> Arc<WieraFleet> {
    WieraFleet::launch(
        cluster.controller.clone(),
        cluster.data_mesh.clone(),
        id,
        FleetConfig::new("fleetpol")
            .with_groups(groups)
            .with_shards(16, 8)
            .with_deployment(DeploymentConfig::default()),
    )
    .unwrap()
}

fn fleet_client(cluster: &Cluster, fleet: &WieraFleet, name: &str) -> Arc<WieraClient> {
    WieraClient::builder(cluster.data_mesh.clone(), Region::UsEast, name)
        .fleet(fleet.view())
        .max_attempts(40)
        .build()
}

/// The keys a group's replicas currently hold (union of digest tables).
fn group_keys(cluster: &Cluster, fleet_id: &str, group: u32) -> HashSet<String> {
    let mut keys = HashSet::new();
    for rep in cluster.deployment_replicas(&format!("{fleet_id}-g{group}")) {
        for e in rep.digest_table() {
            keys.insert(e.key);
        }
    }
    keys
}

#[test]
fn single_key_ops_route_to_the_owning_group_only() {
    let _serial = serial();
    let cluster = fleet_cluster(61);
    let fleet = launch_fleet(&cluster, "route", 2);
    let client = fleet_client(&cluster, &fleet, "router");

    let keys: Vec<String> = (0..48).map(|i| format!("route/user{i:04}")).collect();
    for key in &keys {
        client.put(key, payload(key)).unwrap();
    }

    let map = fleet.view().map();
    let g0 = group_keys(&cluster, "route", 0);
    let g1 = group_keys(&cluster, "route", 1);
    let mut per_group = [0usize; 2];
    for key in &keys {
        let group = map.group_of(key);
        per_group[group as usize] += 1;
        let (own, other) = if group == 0 { (&g0, &g1) } else { (&g1, &g0) };
        assert!(
            own.contains(key),
            "{key} missing from its owning group {group}"
        );
        assert!(
            !other.contains(key),
            "{key} leaked into group {}",
            1 - group
        );
        // And reads come back with the right bytes.
        let got = client.get(key).unwrap();
        assert_eq!(got.value.unwrap(), payload(key));
    }
    assert!(
        per_group[0] > 0 && per_group[1] > 0,
        "keys must spread over both groups, got {per_group:?}"
    );

    fleet.stop_all();
    cluster.shutdown();
}

#[test]
fn batch_ops_split_per_group_and_preserve_item_order() {
    let _serial = serial();
    let cluster = fleet_cluster(62);
    let fleet = launch_fleet(&cluster, "batch", 2);
    let client = fleet_client(&cluster, &fleet, "batcher");

    let items: Vec<(String, Bytes)> = (0..40)
        .map(|i| {
            let key = format!("batch/item{i:04}");
            let value = payload(&key);
            (key, value)
        })
        .collect();
    let map = fleet.view().map();
    let groups: HashSet<u32> = items.iter().map(|(k, _)| map.group_of(k)).collect();
    assert!(groups.len() > 1, "batch must span several groups");

    let put = client.put_batch(&items).unwrap();
    assert_eq!(put.len(), items.len());
    for (i, r) in put.iter().enumerate() {
        r.as_ref()
            .unwrap_or_else(|e| panic!("put_batch item {i} failed: {e}"));
    }

    let keys: Vec<String> = items.iter().map(|(k, _)| k.clone()).collect();
    let got = client.get_batch(&keys).unwrap();
    assert_eq!(got.len(), items.len());
    for (i, r) in got.into_iter().enumerate() {
        let view = r.unwrap_or_else(|e| panic!("get_batch item {i} failed: {e}"));
        assert_eq!(
            view.value.unwrap(),
            items[i].1,
            "get_batch item {i} must match its put in input order"
        );
    }

    fleet.stop_all();
    cluster.shutdown();
}

/// A two-group batch with every replica of group `down` crashed: that
/// group's items fail, the other group's succeed, each item at its input
/// position. The client runs the lowest-numbered group (0) on the calling
/// thread and the other on a scoped thread, so `down = 0` and `down = 1`
/// cover a failure on either side.
fn batch_with_one_group_down(down: u32, seed: u64) {
    let _serial = serial();
    let cluster = fleet_cluster(seed);
    let id = format!("down{down}");
    let fleet = launch_fleet(&cluster, &id, 2);
    let client = WieraClient::builder(cluster.data_mesh.clone(), Region::UsEast, "isolated")
        .fleet(fleet.view())
        .max_attempts(3)
        .build();

    let items: Vec<(String, Bytes)> = (0..40)
        .map(|i| {
            let key = format!("{id}/item{i:04}");
            let value = payload(&key);
            (key, value)
        })
        .collect();
    let keys: Vec<String> = items.iter().map(|(k, _)| k.clone()).collect();
    let map = fleet.view().map();
    let owners: Vec<u32> = keys.iter().map(|k| map.group_of(k)).collect();
    assert!(
        owners.contains(&0) && owners.contains(&1),
        "batch must span both groups"
    );
    let first = client.put_batch(&items).unwrap();
    assert!(first.iter().all(Result::is_ok), "healthy fleet: {first:?}");

    for rep in cluster.deployment_replicas(&format!("{id}-g{down}")) {
        rep.crash();
    }
    let put = client.put_batch(&items).unwrap();
    let got = client.get_batch(&keys).unwrap();
    assert_eq!((put.len(), got.len()), (items.len(), items.len()));
    for (i, (key, value)) in items.iter().enumerate() {
        if owners[i] == down {
            assert!(put[i].is_err(), "put of {key} in the down group succeeded");
            assert!(got[i].is_err(), "get of {key} in the down group succeeded");
        } else {
            put[i]
                .as_ref()
                .unwrap_or_else(|e| panic!("put of {key} in the healthy group: {e}"));
            let view = got[i]
                .as_ref()
                .unwrap_or_else(|e| panic!("get of {key} in the healthy group: {e}"));
            assert_eq!(view.value.as_ref(), Some(value), "item {i} out of order");
        }
    }

    fleet.stop_all();
    cluster.shutdown();
}

#[test]
fn a_batch_whose_inline_group_is_down_still_serves_the_other_group() {
    batch_with_one_group_down(0, 66);
}

#[test]
fn a_batch_whose_spawned_group_is_down_still_serves_the_inline_group() {
    batch_with_one_group_down(1, 67);
}

#[test]
fn unsettled_map_surfaces_as_retryable_wrong_shard() {
    let _serial = serial();
    let cluster = fleet_cluster(63);
    let fleet = launch_fleet(&cluster, "stale", 2);
    let client = WieraClient::builder(cluster.data_mesh.clone(), Region::UsEast, "staler")
        .fleet(fleet.view())
        .max_attempts(3)
        .map_refresh_backoff_ms(5.0)
        .build();

    let map = fleet.view().map();
    let key = (0..)
        .map(|i| format!("stale/key{i}"))
        .find(|k| map.group_of(k) == 0)
        .unwrap();
    let shard = map.shard_of(&key);

    // Simulate a fleet manager crash mid-move: group 0 is flipped off the
    // shard at a bumped version, but no group ever takes ownership and the
    // client view is never updated. Every route must refuse.
    let from = NodeId::new(Region::UsEast, "test-driver");
    let remaining: Vec<u32> = map
        .shards_of_group(0)
        .into_iter()
        .filter(|s| *s != shard)
        .collect();
    for rep in cluster.deployment_replicas("stale-g0") {
        let msg = DataMsg::SetShards {
            shards: remaining.clone(),
            num_shards: map.num_shards(),
            vnodes: map.vnodes(),
            map_version: map.version() + 1,
        };
        let bytes = msg.wire_bytes();
        let reply = cluster
            .data_mesh
            .rpc(&from, &rep.node, msg, bytes, SimDuration::from_secs(30))
            .unwrap();
        assert!(matches!(reply.msg, DataMsg::Ok));
    }

    let err = client.put(&key, payload(&key)).unwrap_err();
    assert_eq!(err.code(), Some(FailCode::WrongShard));
    assert!(
        err.retryable(),
        "a WrongShard refusal is transient by contract: {err}"
    );

    fleet.stop_all();
    cluster.shutdown();
}

#[test]
fn move_shard_relocates_data_and_reroutes_clients() {
    let _serial = serial();
    let cluster = fleet_cluster(64);
    let fleet = launch_fleet(&cluster, "mover", 2);
    let client = fleet_client(&cluster, &fleet, "mover-app");

    let keys: Vec<String> = (0..120).map(|i| format!("mover/obj{i:04}")).collect();
    for key in &keys {
        client.put(key, payload(key)).unwrap();
    }

    // Pick a group-0 shard that actually holds keys.
    let old = fleet.view().map();
    let shard = old
        .shards_of_group(0)
        .into_iter()
        .find(|s| keys.iter().any(|k| old.shard_of(k) == *s))
        .unwrap();
    let moved: Vec<&String> = keys.iter().filter(|k| old.shard_of(k) == shard).collect();
    let stayed: Vec<&String> = keys
        .iter()
        .filter(|k| old.group_of(k) == 0 && old.shard_of(k) != shard)
        .collect();
    assert!(!moved.is_empty());

    fleet.move_shard(shard, 1).unwrap();

    let new = fleet.view().map();
    assert_eq!(new.version(), old.version() + 1);
    assert_eq!(new.group_of_shard(shard), 1);

    // Every key is still readable through the (re-routed) client.
    for key in &keys {
        let got = client.get(key).unwrap();
        assert_eq!(
            got.value.unwrap(),
            payload(key.as_str()),
            "{key} after move"
        );
    }

    // The data physically moved: present in group 1, retired from group 0;
    // unmoved group-0 keys stayed put.
    let g0 = group_keys(&cluster, "mover", 0);
    let g1 = group_keys(&cluster, "mover", 1);
    for key in &moved {
        assert!(g1.contains(key.as_str()), "{key} missing from target group");
        assert!(!g0.contains(key.as_str()), "{key} not retired from source");
    }
    for key in &stayed {
        assert!(g0.contains(key.as_str()), "{key} must stay on group 0");
    }

    fleet.stop_all();
    cluster.shutdown();
}

#[test]
fn concurrent_writes_during_a_move_are_never_lost_once_acked() {
    let _serial = serial();
    let cluster = fleet_cluster(65);
    let fleet = launch_fleet(&cluster, "chaosmove", 2);
    let client = fleet_client(&cluster, &fleet, "chaos-writer");

    // Keys all living in one group-0 shard, so the move window hits them.
    let map = fleet.view().map();
    let shard = map.shards_of_group(0)[0];
    let keys: Vec<String> = (0..)
        .map(|i| format!("chaosmove/hot{i}"))
        .filter(|k| map.shard_of(k) == shard)
        .take(6)
        .collect();
    for key in &keys {
        client.put(key, payload("seed")).unwrap();
    }

    let stop = AtomicBool::new(false);
    let acked: Vec<(String, u64)> = std::thread::scope(|s| {
        let writer = s.spawn(|| {
            // Hammer the moving shard; record (key, version) of every ack.
            // WrongShard redirects during the handoff are absorbed by the
            // client's routed loop; an op that still fails is simply not
            // acked and carries no guarantee.
            let mut acked = Vec::new();
            let mut round = 0u64;
            while !stop.load(Ordering::Relaxed) {
                for key in &keys {
                    let value = Bytes::from(format!("round-{round}"));
                    if let Ok(view) = client.put(key, value) {
                        acked.push((key.clone(), view.version));
                    }
                }
                round += 1;
            }
            acked
        });
        fleet.move_shard(shard, 1).unwrap();
        stop.store(true, Ordering::Relaxed);
        writer.join().unwrap()
    });
    assert!(!acked.is_empty(), "writer never got a single ack");

    // Every acked write survives the move: the key reads back at an
    // equal-or-newer version through the re-routed client.
    let new = fleet.view().map();
    assert_eq!(new.group_of_shard(shard), 1);
    for (key, version) in &acked {
        let got = client
            .get(key)
            .unwrap_or_else(|e| panic!("acked key {key} unreadable after move: {e}"));
        assert!(
            got.version >= *version,
            "acked write lost: {key} acked at v{version}, now v{}",
            got.version
        );
    }

    fleet.stop_all();
    cluster.shutdown();
}

#[test]
fn add_group_scales_the_fleet_elastically() {
    let _serial = serial();
    let cluster = fleet_cluster(66);
    let fleet = launch_fleet(&cluster, "grow", 1);
    let client = fleet_client(&cluster, &fleet, "grower");

    let keys: Vec<String> = (0..60).map(|i| format!("grow/obj{i:04}")).collect();
    for key in &keys {
        client.put(key, payload(key)).unwrap();
    }

    let g = fleet.add_group().unwrap();
    assert_eq!(g, 1);
    assert_eq!(fleet.num_groups(), 2);
    // The new group owns nothing yet.
    assert!(fleet.view().map().shards_of_group(1).is_empty());

    // Rebalance half the ring onto the new group.
    let shards = fleet.view().map().shards_of_group(0);
    for shard in shards.iter().take(shards.len() / 2) {
        fleet.move_shard(*shard, 1).unwrap();
    }
    let map = fleet.view().map();
    assert!(!map.shards_of_group(1).is_empty());

    // All keys survive the rebalance, served by whichever group owns them.
    let g1 = group_keys(&cluster, "grow", 1);
    let mut on_new_group = 0usize;
    for key in &keys {
        let got = client.get(key).unwrap();
        assert_eq!(got.value.unwrap(), payload(key));
        if map.group_of(key) == 1 {
            assert!(g1.contains(key.as_str()), "{key} missing from new group");
            on_new_group += 1;
        }
    }
    assert!(on_new_group > 0, "rebalance moved no keys");

    fleet.stop_all();
    cluster.shutdown();
}
