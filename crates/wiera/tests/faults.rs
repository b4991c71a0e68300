//! Fault-tolerance tests at the Wiera layer: partitions during replication,
//! degraded strong puts, timeout behaviour, and epoch fencing under churn.

use bytes::Bytes;
use std::sync::atomic::Ordering;
use wiera::client::WieraClient;
use wiera::controller::ControllerConfig;
use wiera::deployment::DeploymentConfig;
use wiera::testkit::{bodies, Cluster};
use wiera_coord::CoordConfig;
use wiera_net::Region;
use wiera_sim::SimDuration;

fn payload(n: usize) -> Bytes {
    Bytes::from(vec![0x31u8; n])
}

/// These tests each stand up a full cluster with many threads; on small CI
/// hosts, running them concurrently starves RPC wall-clock timeouts.
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
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

#[test]
fn multi_primaries_put_succeeds_with_partitioned_peer() {
    let _serial = serial();
    // Strong put with one replica unreachable: the broadcast records the
    // failure but the put completes (the paper's replica-count repair deals
    // with the lost replica separately).
    let cluster = Cluster::launch(
        &[Region::UsWest, Region::UsEast, Region::EuWest],
        3000.0,
        31,
    );
    let dep = cluster
        .controller
        .start_instances("mp", "multi-primaries", DeploymentConfig::default())
        .unwrap();
    let client = WieraClient::builder(cluster.data_mesh.clone(), Region::UsWest, "app")
        .replicas(dep.replicas())
        .build();
    client.put("before", payload(64)).unwrap();

    cluster.fabric.set_partitioned(Region::EuWest, true);
    let put = client.put("during", payload(64)).unwrap();
    assert!(put.version >= 1, "put must succeed despite the partition");

    let replicas = cluster.deployment_replicas("mp");
    let west = replicas
        .iter()
        .find(|r| r.node.region == Region::UsWest)
        .unwrap();
    assert!(
        west.stats.replication_failures.load(Ordering::Relaxed) >= 1,
        "the failed broadcast leg must be recorded"
    );
    // The reachable peer got the data; the partitioned one did not.
    let east = replicas
        .iter()
        .find(|r| r.node.region == Region::UsEast)
        .unwrap();
    let eu = replicas
        .iter()
        .find(|r| r.node.region == Region::EuWest)
        .unwrap();
    assert!(east.instance().get("during").is_ok());
    assert!(eu.instance().get("during").is_err());

    // Partition heals; later writes flow again.
    cluster.fabric.set_partitioned(Region::EuWest, false);
    client.put("after", payload(64)).unwrap();
    assert!(eu.instance().get("after").is_ok());
    cluster.shutdown();
}

#[test]
fn eventual_replication_retries_not_required_for_liveness() {
    let _serial = serial();
    // Queue flushes that fail while a peer is partitioned are counted and
    // dropped (best effort, like the paper's prototype); the local replica
    // keeps serving and later writes replicate once the peer returns.
    let cluster = Cluster::launch(&[Region::UsEast, Region::UsWest], 3000.0, 32);
    cluster
        .register_policy_over(
            "ev",
            &[("US-East", false), ("US-West", false)],
            bodies::EVENTUAL,
        )
        .unwrap();
    let dep = cluster
        .controller
        .start_instances(
            "ev",
            "ev",
            DeploymentConfig {
                flush_ms: 100.0,
                ..Default::default()
            },
        )
        .unwrap();
    let client = WieraClient::builder(cluster.data_mesh.clone(), Region::UsEast, "app")
        .replicas(dep.replicas())
        .build();

    cluster.fabric.set_partitioned(Region::UsWest, true);
    for i in 0..5 {
        client.put(&format!("lost-{i}"), payload(32)).unwrap();
    }
    let replicas = cluster.deployment_replicas("ev");
    let east = replicas
        .iter()
        .find(|r| r.node.region == Region::UsEast)
        .unwrap()
        .clone();
    wait_until(
        || east.stats.replication_failures.load(Ordering::Relaxed) >= 5,
        5000,
        "failed flushes recorded",
    );
    assert!(
        east.instance().get("lost-0").is_ok(),
        "local replica unaffected"
    );

    cluster.fabric.set_partitioned(Region::UsWest, false);
    client.put("recovered", payload(32)).unwrap();
    let west = replicas
        .iter()
        .find(|r| r.node.region == Region::UsWest)
        .unwrap()
        .clone();
    wait_until(
        || west.instance().get("recovered").is_ok(),
        5000,
        "post-heal replication",
    );
    cluster.shutdown();
}

#[test]
fn strong_put_latency_tracks_injected_delay() {
    let _serial = serial();
    // A degraded link shows up 1:1 in strong put latency — the observable
    // signal the Fig. 5(a) policy conditions on.
    let cluster = Cluster::launch(&[Region::UsWest, Region::UsEast], 3000.0, 33);
    cluster
        .register_policy_over(
            "mp2",
            &[("US-West", false), ("US-East", false)],
            bodies::MULTI_PRIMARIES,
        )
        .unwrap();
    let dep = cluster
        .controller
        .start_instances("mp2", "mp2", DeploymentConfig::default())
        .unwrap();
    let client = WieraClient::builder(cluster.data_mesh.clone(), Region::UsWest, "app")
        .replicas(dep.replicas())
        .build();
    let base = client.put("a", payload(64)).unwrap().latency;
    cluster.fabric.inject_link_delay(
        Region::UsWest,
        Region::UsEast,
        SimDuration::from_millis(400),
    );
    let slowed = client.put("b", payload(64)).unwrap().latency;
    // The injected 400 ms one-way delay hits both the lock leg and the
    // broadcast leg.
    assert!(
        slowed.as_millis_f64() > base.as_millis_f64() + 700.0,
        "injected delay must dominate: {base} -> {slowed}"
    );
    cluster.shutdown();
}

#[test]
fn client_times_out_against_black_hole_then_fails_over() {
    let _serial = serial();
    // A replica that is registered but whose region is partitioned is a
    // black hole: the client's RPC errors and failover finds the healthy
    // replica.
    let cluster = Cluster::launch(
        &[Region::UsEast, Region::UsWest, Region::EuWest],
        3000.0,
        34,
    );
    let dep = cluster
        .controller
        .start_instances(
            "fo2",
            "eventual",
            DeploymentConfig {
                flush_ms: 50.0,
                ..Default::default()
            },
        )
        .unwrap();
    // Write and wait for full replication first.
    let seed_client = WieraClient::builder(cluster.data_mesh.clone(), Region::UsWest, "seed")
        .replicas(dep.replicas())
        .build();
    seed_client.put("k", payload(16)).unwrap();
    let replicas = cluster.deployment_replicas("fo2");
    wait_until(
        || replicas.iter().all(|r| r.instance().get("k").is_ok()),
        5000,
        "replication",
    );
    // A client in EU-West reads while US-West (its... not closest — EU is
    // closest). Partition EU-West's replica region: the EU client itself
    // lives there, so instead partition the *closest remote* choice for a
    // US-East client: US-East replica itself.
    let client = WieraClient::builder(cluster.data_mesh.clone(), Region::UsEast, "app")
        .replicas(dep.replicas())
        .build();
    let east = replicas
        .iter()
        .find(|r| r.node.region == Region::UsEast)
        .unwrap();
    east.stop(); // crash: unregistered from the mesh
    let got = client.get("k").unwrap();
    assert_ne!(got.served_by.region, Region::UsEast);
    cluster.shutdown();
}

#[test]
fn concurrent_multi_primaries_writers_serialize_via_lock() {
    let _serial = serial();
    // Two writers in different regions hammer the same key under
    // MultiPrimaries: the global lock serializes them, so versions are
    // strictly increasing with no lost updates. The coord session outlives
    // any stall of its heartbeat thread: at the default 10 s, compressed
    // 3000x, one 4 ms stall expired it and the next lock was refused.
    let coord = CoordConfig {
        session_timeout: SimDuration::from_secs(6000),
        sweep_interval: SimDuration::from_secs(50),
    };
    let regions = [Region::UsWest, Region::UsEast];
    let cluster = Cluster::launch_full(&regions, 3000.0, 35, ControllerConfig::default(), coord);
    cluster
        .register_policy_over(
            "mp3",
            &[("US-West", false), ("US-East", false)],
            bodies::MULTI_PRIMARIES,
        )
        .unwrap();
    let dep = cluster
        .controller
        .start_instances("mp3", "mp3", DeploymentConfig::default())
        .unwrap();
    let mut handles = Vec::new();
    for region in [Region::UsWest, Region::UsEast] {
        let client = WieraClient::builder(cluster.data_mesh.clone(), region, format!("w-{region}"))
            .replicas(dep.replicas())
            .build();
        handles.push(std::thread::spawn(move || {
            let mut versions = Vec::new();
            for _ in 0..8 {
                versions.push(client.put("contended", payload(16)).unwrap().version);
            }
            versions
        }));
    }
    let mut all: Vec<u64> = handles
        .into_iter()
        .flat_map(|h| h.join().unwrap())
        .collect();
    all.sort();
    let expected: Vec<u64> = (1..=16).collect();
    assert_eq!(
        all, expected,
        "16 serialized writes → versions 1..=16, no duplicates"
    );
    cluster.shutdown();
}
