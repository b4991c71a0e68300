//! System-level integration tests: the full Fig. 2 architecture — WUI →
//! GPM/TSM → Tiera servers → replicas — exercised over the wire.

use bytes::Bytes;
use std::sync::Arc;
use wiera::client::WieraClient;
use wiera::deployment::DeploymentConfig;
use wiera::testkit::{bodies, Cluster};
use wiera_net::Region;
use wiera_policy::ConsistencyModel;
use wiera_sim::SimDuration;

/// Timing-sensitive tests (monitors, repair, background writers) interfere
/// with each other's wall-clock pacing when run concurrently; serialize them.
static HEAVY: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn heavy_guard() -> std::sync::MutexGuard<'static, ()> {
    HEAVY.lock().unwrap_or_else(|e| e.into_inner())
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

#[test]
fn wui_lifecycle_start_get_stop() {
    let cluster = Cluster::launch(&[Region::UsEast, Region::UsWest], 2000.0, 1);
    let dep = cluster
        .controller
        .start_instances("app-1", "eventual", DeploymentConfig::default())
        .unwrap();
    assert_eq!(dep.replicas().len(), 2);
    let listed = cluster.controller.get_instances("app-1").unwrap();
    assert_eq!(listed.len(), 2);
    // Duplicate id rejected.
    assert!(cluster
        .controller
        .start_instances("app-1", "eventual", DeploymentConfig::default())
        .is_err());
    // Unknown policy rejected.
    assert!(cluster
        .controller
        .start_instances("app-2", "no-such-policy", DeploymentConfig::default())
        .is_err());
    cluster.controller.stop_instances("app-1").unwrap();
    assert!(cluster.controller.get_instances("app-1").is_none());
    cluster.shutdown();
}

#[test]
fn register_policy_refuses_an_insert_rule_that_matches_no_protocol() {
    let cluster = Cluster::launch(&[Region::UsEast, Region::UsWest], 2000.0, 1);
    // Stores locally and nothing else: no lock, no forward, no queue.
    let src = wiera_policy::canned::policy_over(
        "store-only",
        &[("US-East", false), ("US-West", false)],
        &[("LocalMemory", "5G")],
        "event(insert.into) : response { store(what:insert.object, to:local_instance) }",
    );
    let err = cluster
        .controller
        .register_policy("store-only", &src)
        .unwrap_err();
    assert!(err.contains("WP018"), "{err}");
    assert!(cluster.controller.policy("store-only").is_none());
    cluster.shutdown();
}

#[test]
fn multi_primaries_put_pays_lock_and_broadcast() {
    let _serial = heavy_guard();
    let cluster = Cluster::launch(&[Region::UsWest, Region::UsEast, Region::EuWest], 3000.0, 2);
    let dep = cluster
        .controller
        .start_instances("mp", "multi-primaries", DeploymentConfig::default())
        .unwrap();
    assert_eq!(dep.consistency(), ConsistencyModel::MultiPrimaries);

    let client = WieraClient::builder(cluster.data_mesh.clone(), Region::UsWest, "app")
        .replicas(dep.replicas())
        .build();
    let put = client.put("k", payload(1024)).unwrap();
    // Lock RTT to US-East (70 ms) + slowest replica RTT from US-West
    // (EU-West, 145 ms) + local writes: a strong put in the hundreds of ms,
    // like the paper's ≈400 ms.
    let ms = put.latency.as_millis_f64();
    assert!(ms > 180.0, "strong put too fast: {ms}ms");
    assert!(ms < 800.0, "strong put too slow: {ms}ms");

    // Synchronous: all three replicas can serve the data immediately.
    for r in cluster.deployment_replicas("mp") {
        assert!(
            r.instance().get("k").is_ok(),
            "replica {} missing data",
            r.node
        );
    }

    // Reads are local and fast.
    let got = client.get("k").unwrap();
    assert!(
        got.latency.as_millis_f64() < 15.0,
        "local get {}",
        got.latency
    );
    assert_eq!(got.value.unwrap().len(), 1024);
    cluster.shutdown();
}

#[test]
fn eventual_put_fast_then_converges() {
    let cluster = Cluster::launch(&[Region::UsEast, Region::AsiaEast], 3000.0, 3);
    cluster
        .register_policy_over(
            "ev-wide",
            &[("US-East", false), ("Asia-East", false)],
            bodies::EVENTUAL,
        )
        .expect("test policy compiles");
    let dep = cluster
        .controller
        .start_instances(
            "ev",
            "ev-wide",
            DeploymentConfig {
                flush_ms: 100.0,
                ..Default::default()
            },
        )
        .unwrap();
    let client = WieraClient::builder(cluster.data_mesh.clone(), Region::UsEast, "app")
        .replicas(dep.replicas())
        .build();
    let put = client.put("k", payload(512)).unwrap();
    assert!(
        put.latency.as_millis_f64() < 10.0,
        "eventual put {}",
        put.latency
    );

    let replicas = cluster.deployment_replicas("ev");
    let tokyo = replicas
        .iter()
        .find(|r| r.node.region == Region::AsiaEast)
        .unwrap()
        .clone();
    wait_until(
        || tokyo.instance().get("k").is_ok(),
        3000,
        "async replication to Tokyo",
    );
    cluster.shutdown();
}

#[test]
fn client_failover_to_second_closest() {
    let cluster = Cluster::launch(&[Region::UsEast, Region::UsWest, Region::EuWest], 3000.0, 4);
    let dep = cluster
        .controller
        .start_instances(
            "fo",
            "eventual",
            DeploymentConfig {
                flush_ms: 50.0,
                ..Default::default()
            },
        )
        .unwrap();
    let client = WieraClient::builder(cluster.data_mesh.clone(), Region::UsEast, "app")
        .replicas(dep.replicas())
        .build();
    client.put("k", payload(64)).unwrap();
    // Let replication reach all replicas first.
    let replicas = cluster.deployment_replicas("fo");
    wait_until(
        || replicas.iter().all(|r| r.instance().get("k").is_ok()),
        3000,
        "replication before partition",
    );
    // Partition the closest (US-East) replica away.
    cluster.fabric.set_partitioned(Region::UsEast, false); // no-op sanity
    let closest = client.closest().unwrap();
    assert_eq!(closest.region, Region::UsEast);
    cluster.fabric.set_partitioned(Region::UsEast, true);
    // The client in US-East is *itself* in the partitioned region, so cut
    // the replica instead: stop it.
    cluster.fabric.set_partitioned(Region::UsEast, false);
    let east = replicas
        .iter()
        .find(|r| r.node.region == Region::UsEast)
        .unwrap();
    east.stop();
    let got = client.get("k").unwrap();
    assert_eq!(
        got.served_by.region,
        Region::UsWest,
        "failed over to second closest"
    );
    assert_eq!(got.value.unwrap().len(), 64);
    cluster.shutdown();
}

#[test]
fn runtime_consistency_switch_via_deployment() {
    let _serial = heavy_guard();
    let cluster = Cluster::launch(&[Region::UsWest, Region::UsEast, Region::EuWest], 3000.0, 5);
    let dep = cluster
        .controller
        .start_instances("sw", "multi-primaries", DeploymentConfig::default())
        .unwrap();
    let client = WieraClient::builder(cluster.data_mesh.clone(), Region::UsWest, "app")
        .replicas(dep.replicas())
        .build();
    let strong = client.put("a", payload(128)).unwrap();
    dep.change_consistency(ConsistencyModel::Eventual);
    for r in cluster.deployment_replicas("sw") {
        assert_eq!(r.consistency(), ConsistencyModel::Eventual);
    }
    let weak = client.put("b", payload(128)).unwrap();
    assert!(
        weak.latency.as_millis_f64() < strong.latency.as_millis_f64() / 3.0,
        "eventual put ({}) should be far cheaper than strong ({})",
        weak.latency,
        strong.latency
    );
    // Switch back.
    dep.change_consistency(ConsistencyModel::MultiPrimaries);
    let strong2 = client.put("c", payload(128)).unwrap();
    assert!(strong2.latency.as_millis_f64() > 100.0);
    cluster.shutdown();
}

#[test]
fn change_primary_redirects_forwarding() {
    let _serial = heavy_guard();
    let cluster = Cluster::launch(&[Region::UsWest, Region::AsiaEast], 3000.0, 6);
    cluster
        .register_policy_over(
            "pb-pacific",
            &[("US-West", true), ("Asia-East", false)],
            bodies::PRIMARY_BACKUP_SYNC,
        )
        .expect("test policy compiles");
    let dep = cluster
        .controller
        .start_instances("cp", "pb-pacific", DeploymentConfig::default())
        .unwrap();
    // Policy marks Region1 (US-West) primary.
    assert_eq!(dep.primary().unwrap().region, Region::UsWest);
    let replicas = cluster.deployment_replicas("cp");
    let tokyo = replicas
        .iter()
        .find(|r| r.node.region == Region::AsiaEast)
        .unwrap()
        .clone();

    let client_tokyo =
        WieraClient::builder(cluster.data_mesh.clone(), Region::AsiaEast, "app-tokyo")
            .replicas(dep.replicas())
            .build();
    let before = client_tokyo.put("k1", payload(64)).unwrap();
    assert!(
        before.latency.as_millis_f64() > 100.0,
        "forwarded put {}",
        before.latency
    );

    dep.change_primary(tokyo.node.clone());
    for r in &replicas {
        assert_eq!(r.primary().unwrap(), tokyo.node);
    }
    let after = client_tokyo.put("k2", payload(64)).unwrap();
    // Before: forward Tokyo→US-West (one RTT) + sync copy back (another RTT)
    // ≈ 220 ms. After: local write + one sync copy ≈ 110 ms. Use a margin
    // that tolerates jitter rather than sitting exactly on the 2x boundary.
    assert!(
        after.latency.as_millis_f64() < before.latency.as_millis_f64() * 0.65,
        "local-primary put ({}) must be well under the forwarded put ({})",
        after.latency,
        before.latency
    );
    cluster.shutdown();
}

#[test]
fn latency_monitor_switches_and_recovers_end_to_end() {
    let _serial = heavy_guard();
    // Fig. 7 in miniature: multi-primaries with the Fig. 5(a) monitor
    // (threshold 800 ms, period 6 s modeled). Inject a sustained delay into
    // EU-West; the monitor must switch the deployment to eventual, and once
    // the delay clears, restore multi-primaries.
    let cluster = Cluster::launch(&[Region::UsWest, Region::UsEast, Region::EuWest], 1000.0, 7);
    let dep = cluster
        .controller
        .start_instances(
            "dyn",
            "multi-primaries",
            DeploymentConfig::default().with_dynamic_consistency(800.0, 10_000.0),
        )
        .unwrap();
    let client = WieraClient::builder(cluster.data_mesh.clone(), Region::UsWest, "app")
        .replicas(dep.replicas())
        .build();

    // Background writer keeps puts flowing so the monitor has samples.
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let writer = {
        let client = client.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            let mut i = 0u64;
            while !stop.load(std::sync::atomic::Ordering::Acquire) {
                let _ = client.put(&format!("k{}", i % 16), payload(64));
                i += 1;
                std::thread::sleep(std::time::Duration::from_millis(15));
            }
        })
    };

    // Inject a 1-second one-way delay at EU-West: strong puts now take >2s.
    cluster
        .fabric
        .inject_node_delay(Region::EuWest, SimDuration::from_millis(1000));
    wait_until(
        || dep.consistency() == ConsistencyModel::Eventual,
        20_000,
        "switch to eventual under sustained delay",
    );

    // Clear the delay: the network-monitor estimate recovers and the
    // deployment returns to strong consistency.
    cluster.fabric.clear_node_delay(Region::EuWest);
    wait_until(
        || dep.consistency() == ConsistencyModel::MultiPrimaries,
        20_000,
        "switch back to multi-primaries after recovery",
    );

    stop.store(true, std::sync::atomic::Ordering::Release);
    writer.join().unwrap();
    cluster.shutdown();
}

#[test]
fn requests_monitor_moves_primary_toward_load() {
    let _serial = heavy_guard();
    // Fig. 5(b)/§5.2 in miniature: primary in US-West, but all the traffic
    // comes from Tokyo. The requests monitor must move the primary there.
    let cluster = Cluster::launch(&[Region::UsWest, Region::AsiaEast], 6000.0, 8);
    cluster
        .register_policy_over(
            "pba-pacific",
            &[("US-West", true), ("Asia-East", false)],
            bodies::PRIMARY_BACKUP_ASYNC,
        )
        .expect("test policy compiles");
    let dep = cluster
        .controller
        .start_instances(
            "tuba",
            "pba-pacific",
            DeploymentConfig {
                flush_ms: 200.0,
                ..DeploymentConfig::default().with_change_primary(6_000.0, 1_500.0)
            },
        )
        .unwrap();
    assert_eq!(dep.primary().unwrap().region, Region::UsWest);
    let client_tokyo =
        WieraClient::builder(cluster.data_mesh.clone(), Region::AsiaEast, "app-tokyo")
            .replicas(dep.replicas())
            .build();
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let writer = {
        let c = client_tokyo.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            let mut i = 0u64;
            while !stop.load(std::sync::atomic::Ordering::Acquire) {
                let _ = c.put(&format!("k{}", i % 8), payload(64));
                i += 1;
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
        })
    };
    wait_until(
        || dep.primary().map(|p| p.region) == Some(Region::AsiaEast),
        20_000,
        "primary migration toward Tokyo",
    );
    stop.store(true, std::sync::atomic::Ordering::Release);
    writer.join().unwrap();
    cluster.shutdown();
}

#[test]
fn replica_repair_restores_replication_factor() {
    let _serial = heavy_guard();
    let cluster = Cluster::launch_with(
        &[Region::UsEast, Region::UsWest, Region::EuWest],
        4000.0,
        9,
        wiera::controller::ControllerConfig {
            repair_interval: Some(SimDuration::from_secs(3)),
            ..Default::default()
        },
    );
    let dep = cluster
        .controller
        .start_instances(
            "rep",
            "eventual",
            DeploymentConfig {
                flush_ms: 50.0,
                min_replicas: Some(2),
                ..Default::default()
            },
        )
        .unwrap();
    // The eventual policy declares two regions (US-West, US-East); EU-West
    // hosts a spare server.
    let client = WieraClient::builder(cluster.data_mesh.clone(), Region::UsEast, "app")
        .replicas(dep.replicas())
        .build();
    for i in 0..10 {
        client.put(&format!("k{i}"), payload(64)).unwrap();
    }
    let replicas = cluster.deployment_replicas("rep");
    wait_until(
        || replicas.iter().all(|r| r.instance().get("k9").is_ok()),
        3000,
        "initial replication",
    );
    // Kill the US-West replica.
    let west = replicas
        .iter()
        .find(|r| r.node.region == Region::UsWest)
        .unwrap();
    west.stop();
    // Repair: a fresh replica appears on the spare (EU-West) server with the
    // data cloned from the donor.
    wait_until(
        || {
            dep.replicas().iter().any(|r| r.region == Region::EuWest)
                && !dep.replicas().iter().any(|r| r.region == Region::UsWest)
        },
        30_000,
        "repair replaces the dead replica",
    );
    let fresh = cluster.deployment_replicas("rep");
    let eu = fresh
        .iter()
        .find(|r| r.node.region == Region::EuWest)
        .unwrap();
    for i in 0..10 {
        assert!(
            eu.instance().get(&format!("k{i}")).is_ok(),
            "repaired replica has k{i}"
        );
    }
    cluster.shutdown();
}

#[test]
fn clock_scale_sanity() {
    // The cluster's scaled clock compresses the paper's timescales: 30
    // modeled seconds pass in well under a wall second at 3000x.
    let cluster = Cluster::launch(&[Region::UsEast], 3000.0, 10);
    let t0 = cluster.clock.now();
    std::thread::sleep(std::time::Duration::from_millis(20));
    let elapsed = cluster.clock.now().elapsed_since(t0);
    assert!(elapsed > SimDuration::from_secs(30), "elapsed {elapsed}");
    cluster.shutdown();
}
