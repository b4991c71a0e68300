//! Steady state creates no thread: row (a) of the replica pool's failure
//! table (DESIGN.md §3). The other rows need the replica's internals and live in
//! `replica.rs`; this one reads the process's thread list, so it is the only
//! test of its binary — nothing else may be starting threads beside it.

use bytes::Bytes;
use std::collections::BTreeSet;
use std::sync::atomic::Ordering;
use wiera::testkit::{bodies, Cluster};
use wiera::{DeploymentConfig, WieraClient};
use wiera_net::Region;

/// Ids of this process's threads named `replica-pool`.
fn pool_threads() -> BTreeSet<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("thread list")
        .filter_map(Result::ok)
        .filter(|task| {
            std::fs::read_to_string(task.path().join("comm"))
                .is_ok_and(|name| name.trim_end() == "replica-pool")
        })
        .map(|task| task.file_name().to_string_lossy().into_owned())
        .collect()
}

#[test]
fn five_hundred_sync_puts_after_warm_up_start_no_thread() {
    let cluster = Cluster::launch(&[Region::UsEast, Region::UsWest], 2000.0, 7);
    let regions = [("US-East", true), ("US-West", false)];
    cluster
        .register_policy_over("steady", &regions, bodies::PRIMARY_BACKUP_SYNC)
        .unwrap();
    let deployment = cluster
        .controller
        .start_instances("steady", "steady", DeploymentConfig::default())
        .unwrap();
    let client = WieraClient::builder(cluster.data_mesh.clone(), Region::UsEast, "app")
        .replicas(deployment.replicas())
        .build();
    let replicas = cluster.deployment_replicas("steady");
    assert_eq!(replicas.len(), 2);
    let spawns = || -> Vec<u64> {
        let stats = replicas.iter().map(|r| &r.stats);
        stats
            .map(|s| s.worker_spawns.load(Ordering::Relaxed))
            .collect()
    };
    let put = |i: usize| {
        let value = Bytes::from(vec![i as u8; 1024]);
        client.put(&format!("k{}", i % 50), value).unwrap();
    };

    (0..8).for_each(put);
    let (warm_spawns, warm_threads) = (spawns(), pool_threads());
    let started: u64 = warm_spawns.iter().sum();
    // One thread started, on the primary, for the first put's copy to hand
    // the inbox to; it and the primary's first leader alternate put after
    // put. The backup's leader applies each copy inline.
    assert_eq!((started, warm_threads.len()), (1, 3), "pool threads");

    (8..508).for_each(put);
    assert_eq!(spawns(), warm_spawns, "a put started a pool thread");
    assert_eq!(pool_threads(), warm_threads, "a new pool thread");

    deployment.stop_all();
    cluster.shutdown();
}
