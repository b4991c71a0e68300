//! Steady-state data-path ops record their metrics through handles resolved
//! once: after warm-up, engine ops and replicated puts and gets make no
//! lookup by name in the metrics registry.
//!
//! Lives alone in its own integration-test binary because the registry and
//! its lookup count are process-global.

use bytes::Bytes;
use tiera::{BatchOp, InstanceConfig, TieraInstance};
use wiera::client::WieraClient;
use wiera::deployment::DeploymentConfig;
use wiera::testkit::{bodies, Cluster};
use wiera_net::Region;
use wiera_sim::{ManualClock, MetricsRegistry};

fn value(i: usize) -> Bytes {
    Bytes::from(vec![i as u8; 256])
}

#[test]
fn steady_state_ops_make_no_lookup_by_name() {
    let registry = MetricsRegistry::global();

    // Engine: write-through to a memory tier too small for the keys, so
    // puts evict, some gets miss to tier 2 and version GC deletes; single
    // ops and batches.
    let spec = wiera_policy::parse(wiera_policy::canned::PERSISTENT_INSTANCE).unwrap();
    let cfg = InstanceConfig::new("handles", Region::UsEast)
        .with_tier("tier1", "Memcached", 64 << 10)
        .with_tier("tier2", "EBS", 1 << 30)
        .with_tier("tier3", "S3", 0)
        .with_rules(wiera_policy::compile(&spec).unwrap().rules)
        .with_max_versions(1);
    let inst = TieraInstance::build(cfg, ManualClock::new()).unwrap();
    let engine_op = |i: usize| match i % 5 {
        0 | 1 => inst.put(&format!("k{}", i % 700), value(i)).map(drop),
        2 | 3 => inst.get(&format!("k{}", i % 700)).map(drop),
        _ => {
            let ops = vec![
                BatchOp::Put {
                    key: format!("k{}", i % 700),
                    value: value(i),
                },
                BatchOp::Get {
                    key: format!("k{}", (i + 1) % 700),
                },
            ];
            inst.apply_batch(&ops);
            Ok(())
        }
    };
    for i in 0..700 {
        inst.put(&format!("k{i}"), value(i)).unwrap();
    }
    for i in 0..1000 {
        engine_op(i).unwrap();
    }
    let before = registry.resolutions();
    for i in 1000..2000 {
        engine_op(i).unwrap();
    }
    assert_eq!(
        registry.resolutions(),
        before,
        "engine ops looked series up"
    );
    assert!(
        inst.tier("tier1")
            .unwrap()
            .as_local()
            .unwrap()
            .stats
            .snapshot()
            .evictions
            > 0,
        "the engine ops never evicted"
    );

    // Full stack: client → mesh → replica → engine → synchronous backup.
    let cluster = Cluster::launch(&[Region::UsEast, Region::UsWest], 2000.0, 7);
    cluster
        .register_policy_over(
            "handles-pb",
            &[("US-East", true), ("US-West", false)],
            bodies::PRIMARY_BACKUP_SYNC,
        )
        .unwrap();
    let dep = cluster
        .controller
        .start_instances("handles-pb", "handles-pb", DeploymentConfig::default())
        .unwrap();
    let client = WieraClient::builder(cluster.data_mesh.clone(), Region::UsEast, "handles-app")
        .replicas(dep.replicas())
        .build();
    let put = |i: usize| client.put(&format!("p{i}"), value(i)).unwrap();
    for i in 0..50 {
        put(i);
        client.get(&format!("p{i}")).unwrap();
    }
    let before = registry.resolutions();
    for i in 50..250 {
        put(i);
    }
    for i in 50..150 {
        client.get(&format!("p{i}")).unwrap();
    }
    assert_eq!(
        registry.resolutions(),
        before,
        "replicated puts and gets looked series up"
    );
    // The handles did record: the smoke gate's invariants read these.
    let snap = registry.snapshot();
    for series in ["net_rpc_total", "wiera_put_total", "wiera_get_total"] {
        assert!(snap.counter_sum(series) > 0, "{series} recorded nothing");
    }
    cluster.shutdown();
}
