//! Failure-lifecycle integration tests (§4.4): lease-based detection,
//! automatic failover with epoch fencing, crash/restart with anti-entropy
//! rejoin, and the shutdown-flush ordering fix.
//!
//! All timing below is *sim-time*: the coordination service expires a
//! silent session after 10 s and sweeps every 2 s, so with a detector
//! configured at `check_every=2 s, suspect_after=5 s` the crash-to-election
//! bound is `10 + 2 + 5 + 2` plus one election round trip — comfortably
//! under the 60 s budget the assertions use.

use bytes::Bytes;
use std::sync::Arc;
use wiera::client::WieraClient;
use wiera::deployment::DeploymentConfig;
use wiera::msg::{FailCode, KeyDigest, PutItem};
use wiera::replica::ReplicaNode;
use wiera::testkit::{bodies, Cluster};
use wiera_net::Region;
use wiera_sim::{MetricsRegistry, SimDuration};

/// These tests crash nodes, cut links, and wait on wall-clock-paced
/// detector threads; run them serially so pacing is not starved.
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn payload(n: usize) -> Bytes {
    Bytes::from(vec![0x42u8; n])
}

fn wait_until(mut cond: impl FnMut() -> bool, wall_ms: u64, what: &str) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_millis(wall_ms);
    while !cond() {
        assert!(
            std::time::Instant::now() < deadline,
            "timed out waiting for {what}"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
}

fn by_region(replicas: &[Arc<ReplicaNode>], region: Region) -> Arc<ReplicaNode> {
    replicas
        .iter()
        .find(|r| r.node.region == region)
        .unwrap_or_else(|| panic!("no replica in {region}"))
        .clone()
}

/// Digest tables as sorted (key, version, digest) tuples: content equality.
/// `modified` is excluded — the primary stamps its local apply time, which
/// legitimately differs by the modeled write latency from the timestamp the
/// broadcast carried.
fn sorted_digests(r: &ReplicaNode) -> Vec<(String, u64, u64)> {
    let mut d: Vec<(String, u64, u64)> = r
        .digest_table()
        .into_iter()
        .map(
            |KeyDigest {
                 key,
                 version,
                 digest,
                 ..
             }| (key, version, digest),
        )
        .collect();
    d.sort();
    d
}

/// The deterministic acceptance scenario: crash a primary-backup(sync)
/// primary mid-workload; a backup must be elected within the detection +
/// election bound, post-failover writes must succeed, and the restarted
/// node must converge via anti-entropy to a digest-equal state.
#[test]
fn pb_sync_primary_crash_elects_backup_and_rejoins_digest_equal() {
    let _serial = serial();
    let cluster = Cluster::launch(
        &[Region::UsEast, Region::UsWest, Region::EuWest],
        3000.0,
        71,
    );
    cluster
        .register_policy_over(
            "fl",
            &[("US-East", true), ("US-West", false), ("EU-West", false)],
            bodies::PRIMARY_BACKUP_SYNC,
        )
        .unwrap();
    let dep = cluster
        .controller
        .start_instances(
            "fl",
            "fl",
            DeploymentConfig {
                flush_ms: 500.0,
                ..Default::default()
            }
            .with_failure_detection(2_000.0, 5_000.0),
        )
        .unwrap();
    let replicas = cluster.deployment_replicas("fl");
    let east = by_region(&replicas, Region::UsEast);
    let west = by_region(&replicas, Region::UsWest);
    let eu = by_region(&replicas, Region::EuWest);
    assert_eq!(dep.primary().unwrap(), east.node);

    let client = WieraClient::builder(cluster.data_mesh.clone(), Region::UsWest, "app")
        .replicas(dep.replicas())
        .build();
    // Pre-crash workload: forwarded to the primary, synchronously
    // replicated everywhere.
    for i in 0..8 {
        client.put(&format!("k{i}"), payload(64)).unwrap();
    }
    let epoch_before = west.epoch();

    let crashed_at = cluster.clock.now();
    east.crash();
    // Detection: the lease expires (session 10 s + sweep 2 s), probes keep
    // failing, suspicion matures (5 s), a backup wins the election lock.
    wait_until(
        || west.primary() == Some(west.node.clone()) || eu.primary() == Some(eu.node.clone()),
        30_000,
        "a backup to elect itself primary",
    );
    let elected_after = cluster.clock.now().elapsed_since(crashed_at);
    assert!(
        elected_after <= SimDuration::from_secs(60),
        "failover took {elected_after:?} sim-time, beyond the detection+election bound"
    );
    let new_primary = if west.primary() == Some(west.node.clone()) {
        west.clone()
    } else {
        eu.clone()
    };
    assert!(
        new_primary.epoch() > epoch_before,
        "the winner must bump the epoch"
    );
    // The surviving backup learns the new leadership.
    let other = if new_primary.node == west.node {
        eu.clone()
    } else {
        west.clone()
    };
    wait_until(
        || other.primary() == Some(new_primary.node.clone()),
        10_000,
        "ChangePrimary to reach the surviving backup",
    );

    // Post-failover workload lands on the new primary (the client's
    // stale-epoch/transport retries paper over the transition).
    for i in 8..14 {
        client.put(&format!("k{i}"), payload(64)).unwrap();
    }

    // Restart the deposed primary: volatile tiers are gone, durable tiers
    // survive, and anti-entropy pulls everything written while it was down.
    let report = east.restart().unwrap();
    assert!(
        report.pulled >= 6,
        "rejoin must pull the writes missed while down, got {report:?}"
    );
    assert_eq!(
        east.epoch(),
        new_primary.epoch(),
        "the rejoined node must adopt the post-failover epoch"
    );
    assert_eq!(
        east.primary(),
        Some(new_primary.node.clone()),
        "the rejoined node must adopt the new primary, not still claim leadership"
    );
    assert_eq!(
        sorted_digests(&east),
        sorted_digests(&new_primary),
        "anti-entropy must leave the rejoined node digest-equal to the primary"
    );
    for i in 0..14 {
        assert!(
            east.instance().get(&format!("k{i}")).is_ok(),
            "k{i} missing on the rejoined node"
        );
    }
    cluster.shutdown();
}

/// A primary partitioned away (alive, but silent to both peers and coord)
/// is deposed; when the partition heals its writes are fenced by the epoch
/// check and rolled back rather than acknowledged.
#[test]
fn deposed_primary_is_fenced_and_rolled_back_after_partition_heals() {
    let _serial = serial();
    let cluster = Cluster::launch(
        &[Region::UsEast, Region::UsWest, Region::EuWest],
        3000.0,
        72,
    );
    // Primary in US-West so the coord service (US-East) stays reachable
    // from the backups while the primary is cut off.
    cluster
        .register_policy_over(
            "fence",
            &[("US-East", false), ("US-West", true), ("EU-West", false)],
            bodies::PRIMARY_BACKUP_SYNC,
        )
        .unwrap();
    let dep = cluster
        .controller
        .start_instances(
            "fence",
            "fence",
            DeploymentConfig {
                flush_ms: 500.0,
                ..Default::default()
            }
            .with_failure_detection(2_000.0, 5_000.0),
        )
        .unwrap();
    let replicas = cluster.deployment_replicas("fence");
    let east = by_region(&replicas, Region::UsEast);
    let west = by_region(&replicas, Region::UsWest);
    let eu = by_region(&replicas, Region::EuWest);
    assert_eq!(dep.primary().unwrap(), west.node);

    let east_client = WieraClient::builder(cluster.data_mesh.clone(), Region::UsEast, "app")
        .replicas(dep.replicas())
        .build();
    east_client.put("pre", payload(32)).unwrap();
    let old_epoch = west.epoch();

    // Cut the primary off from both backups (and from coord, which lives
    // in US-East): alive, but silent.
    cluster.fabric.partition(Region::UsWest, Region::UsEast);
    cluster.fabric.partition(Region::UsWest, Region::EuWest);
    wait_until(
        || east.primary() == Some(east.node.clone()) || eu.primary() == Some(eu.node.clone()),
        30_000,
        "a backup to depose the partitioned primary",
    );
    let new_primary = if east.primary() == Some(east.node.clone()) {
        east.clone()
    } else {
        eu.clone()
    };
    assert!(new_primary.epoch() > old_epoch);

    cluster
        .fabric
        .heal_partition(Region::UsWest, Region::UsEast);
    cluster
        .fabric
        .heal_partition(Region::UsWest, Region::EuWest);

    // The deposed primary never heard the ChangePrimary: it still believes
    // it leads at the old epoch. Its next write must be refused by every
    // peer and rolled back locally — never acknowledged.
    assert_eq!(west.primary(), Some(west.node.clone()));
    let fenced_before = MetricsRegistry::global()
        .snapshot()
        .counter_sum("wiera_fenced_total");
    let app = wiera_net::NodeId::new(Region::UsWest, "app-direct");
    let err = wiera::replica::app_rpc(
        &cluster.data_mesh,
        &app,
        &west.node,
        wiera::msg::DataMsg::Put {
            items: vec![PutItem {
                key: "split".into(),
                value: payload(32),
            }],
        },
    )
    .unwrap_err();
    assert_eq!(
        err.code(),
        Some(FailCode::StaleEpoch),
        "a deposed primary's write must surface the fence: {err}"
    );
    assert!(
        west.instance().get("split").is_err(),
        "the fenced write must be rolled back, not linger locally"
    );
    assert!(
        MetricsRegistry::global()
            .snapshot()
            .counter_sum("wiera_fenced_total")
            > fenced_before,
        "fencing must be observable in metrics"
    );

    // Anti-entropy heals the deposed primary's view and data in place (no
    // restart needed after a partition).
    let report = west.anti_entropy();
    assert_eq!(west.epoch(), new_primary.epoch());
    assert_eq!(west.primary(), Some(new_primary.node.clone()));
    assert_eq!(
        sorted_digests(&west),
        sorted_digests(&new_primary),
        "post-heal convergence must be digest-equal, report {report:?}"
    );
    cluster.shutdown();
}

/// Regression test for the shutdown-flush ordering bug: `stop_all` must
/// flush every replica's queued eventual-mode updates while all peers are
/// still alive. A single flush-as-you-stop pass dropped the last replica's
/// queue on the floor (its peers were already gone).
#[test]
fn stop_all_flushes_queued_updates_before_stopping() {
    let _serial = serial();
    let cluster = Cluster::launch(
        &[Region::UsEast, Region::UsWest, Region::EuWest],
        3000.0,
        73,
    );
    cluster
        .register_policy_over(
            "flush",
            &[("US-East", false), ("US-West", false), ("EU-West", false)],
            bodies::EVENTUAL,
        )
        .unwrap();
    let dep = cluster
        .controller
        .start_instances(
            "flush",
            "flush",
            DeploymentConfig {
                // Modeled hours: nothing flushes on its own.
                flush_ms: 3_600_000.0,
                ..Default::default()
            },
        )
        .unwrap();
    let replicas = cluster.deployment_replicas("flush");
    // Writes queued on different origins, none propagated yet.
    dep.put_from(
        &wiera_net::NodeId::new(Region::UsEast, "app-e"),
        "from-east",
        payload(16),
    )
    .unwrap();
    dep.put_from(
        &wiera_net::NodeId::new(Region::EuWest, "app-w"),
        "from-eu",
        payload(16),
    )
    .unwrap();
    assert!(
        replicas.iter().any(|r| r.queue_len() > 0),
        "precondition: updates must still be queued"
    );

    dep.stop_all();

    for r in &replicas {
        assert!(r.is_stopped());
        assert_eq!(r.queue_len(), 0, "{}: queue must drain on stop", r.node);
        for key in ["from-east", "from-eu"] {
            assert!(
                r.instance().get(key).is_ok(),
                "{}: '{key}' lost in shutdown",
                r.node
            );
        }
    }
    cluster.shutdown();
}

/// A controller-driven `change_primary` racing a partition of the target:
/// the cut replica misses the announcement, but re-announcing after the
/// heal converges every replica on the same primary and epoch.
#[test]
fn change_primary_racing_partition_converges_after_heal() {
    let _serial = serial();
    let cluster = Cluster::launch(
        &[Region::UsEast, Region::UsWest, Region::EuWest],
        3000.0,
        74,
    );
    cluster
        .register_policy_over(
            "race",
            &[("US-East", true), ("US-West", false), ("EU-West", false)],
            bodies::PRIMARY_BACKUP_SYNC,
        )
        .unwrap();
    let dep = cluster
        .controller
        .start_instances(
            "race",
            "race",
            DeploymentConfig {
                flush_ms: 500.0,
                ..Default::default()
            },
        )
        .unwrap();
    let replicas = cluster.deployment_replicas("race");
    let west = by_region(&replicas, Region::UsWest);
    let eu = by_region(&replicas, Region::EuWest);

    // Cut EU off mid-migration: the ChangePrimary broadcast reaches only
    // part of the deployment.
    cluster.fabric.partition(Region::EuWest, Region::UsEast);
    cluster.fabric.partition(Region::EuWest, Region::UsWest);
    dep.change_primary(west.node.clone());
    assert_eq!(west.primary(), Some(west.node.clone()));
    assert_ne!(
        eu.primary(),
        Some(west.node.clone()),
        "the partitioned replica cannot have heard the announcement"
    );

    cluster
        .fabric
        .heal_partition(Region::EuWest, Region::UsEast);
    cluster
        .fabric
        .heal_partition(Region::EuWest, Region::UsWest);
    // Re-announcing membership is idempotent for the replicas that already
    // switched and repairs the one that missed it.
    dep.push_membership();
    for r in &replicas {
        assert_eq!(
            r.primary(),
            Some(west.node.clone()),
            "{}: must converge on the migrated primary",
            r.node
        );
    }
    let epochs: Vec<u64> = replicas.iter().map(|r| r.epoch()).collect();
    assert!(
        epochs.windows(2).all(|w| w[0] == w[1]),
        "epochs must agree after the heal: {epochs:?}"
    );

    // The moved-to primary actually serves writes.
    let client = WieraClient::builder(cluster.data_mesh.clone(), Region::UsWest, "app")
        .replicas(dep.replicas())
        .build();
    client.put("after-heal", payload(16)).unwrap();
    assert!(west.instance().get("after-heal").is_ok());
    cluster.shutdown();
}
