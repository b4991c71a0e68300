//! Zero-copy replication test: a value written once by the client must cross
//! the whole replicated data path — client → primary ingest → tier store →
//! `Replicate` fan-out → backup apply → backup tier store — without a
//! single deep copy. The bytes shim's process-global copy counter meters
//! every physical byte copy; `Bytes` clones (including the shared
//! `Arc<[SyncObject]>` batch) are refcount bumps and count nothing.
//!
//! Lives alone in its own integration-test binary because the counter is
//! process-global.

use wiera::client::WieraClient;
use wiera::deployment::DeploymentConfig;
use wiera::testkit::{bodies, Cluster};
use wiera_net::Region;

#[test]
fn replication_fan_out_does_not_deep_copy_values() {
    // Three regions: one primary, two backups — the fan-out case where the
    // old code cloned the full item vector once per backup.
    let cluster = Cluster::launch(
        &[Region::UsEast, Region::UsWest, Region::EuWest],
        3000.0,
        42,
    );
    cluster
        .register_policy_over(
            "zc-repl",
            &[("US-East", true), ("US-West", false), ("EU-West", false)],
            bodies::PRIMARY_BACKUP_SYNC,
        )
        .unwrap();
    let dep = cluster
        .controller
        .start_instances("zc-repl", "zc-repl", DeploymentConfig::default())
        .unwrap();
    let client = WieraClient::builder(cluster.data_mesh.clone(), Region::UsEast, "zc-app")
        .replicas(dep.replicas())
        .build();

    static PAYLOAD: &[u8] = &[0x5a; 2048];
    let items: Vec<(String, bytes::Bytes)> = (0..16)
        .map(|i| (format!("zc-{i:02}"), bytes::Bytes::from_static(PAYLOAD)))
        .collect();

    bytes::reset_copied_bytes();
    for r in client.put_batch(&items).unwrap() {
        r.unwrap();
    }
    let copied = bytes::copied_bytes();
    assert_eq!(
        copied, 0,
        "replicating 16 puts to 2 backups copied {copied} bytes; the batch \
         must be shared by refcount end to end"
    );

    // The values really did replicate: read back from a backup region.
    let got = client.get("zc-00").unwrap();
    assert_eq!(got.value.unwrap().as_ref(), PAYLOAD);

    cluster.shutdown();
}
