//! Automated policy generation — the paper's future work, live.
//!
//! ```sh
//! cargo run --release --example placement_advisor
//! ```
//!
//! §3.1 sketches a "data placement manager" that would generate global
//! policies automatically from monitor data. This example closes that loop:
//! observed per-region load + live RTTs go into the advisor, which picks
//! placement/consistency, *generates the policy in the paper's notation*,
//! registers it with the controller, and launches it — then we verify the
//! deployment behaves as estimated.

use bytes::Bytes;
use wiera::advisor::{advise, AdvisorConfig, MetricWeights, RegionLoad};
use wiera::client::WieraClient;
use wiera::deployment::DeploymentConfig;
use wiera::testkit::Cluster;
use wiera_net::Region;
use wiera_tiers::TierKind;

fn main() {
    let regions = [
        Region::UsWest,
        Region::UsEast,
        Region::EuWest,
        Region::AsiaEast,
    ];
    let cluster = Cluster::launch(&regions, 1000.0, 13);

    // What the workload monitor would have aggregated: an EU-heavy service.
    let loads = vec![
        RegionLoad {
            region: Region::EuWest,
            puts_per_sec: 4.0,
            gets_per_sec: 80.0,
        },
        RegionLoad {
            region: Region::UsEast,
            puts_per_sec: 1.0,
            gets_per_sec: 20.0,
        },
        RegionLoad {
            region: Region::AsiaEast,
            puts_per_sec: 0.2,
            gets_per_sec: 4.0,
        },
    ];
    let weights = MetricWeights {
        get_latency: 2.0,
        put_latency: 1.0,
        cost: 0.5,
        min_replicas: 2,
        require_strong: false,
    };
    let cfg = AdvisorConfig {
        candidate_regions: regions.to_vec(),
        dataset_gb: 50.0,
        object_bytes: 2048.0,
        tier: TierKind::EbsSsd,
        coordinator: Region::UsEast,
    };

    let advice = advise(&cluster.fabric, &loads, &weights, &cfg).expect("a configuration exists");
    println!("advisor chose:");
    println!(
        "  replicas    : {:?}",
        advice.replicas.iter().map(|r| r.name()).collect::<Vec<_>>()
    );
    println!("  primary     : {}", advice.primary);
    println!("  consistency : {}", advice.consistency);
    println!("  est. get    : {:.1} ms", advice.est_get_ms);
    println!("  est. put    : {:.1} ms", advice.est_put_ms);
    println!("  est. cost   : ${:.2}/month", advice.est_monthly_cost);

    // Generate the policy in the paper's notation and deploy it.
    let policy = advice
        .to_policy("AdvisedPolicy", "1G", "10G")
        .expect("the advised policy compiles");
    println!("\ngenerated policy:\n{policy}");
    cluster
        .controller
        .register_policy("advised", &policy.to_string())
        .unwrap();
    let dep = cluster
        .controller
        .start_instances("advised-app", "advised", DeploymentConfig::default())
        .unwrap();

    // Measure from the dominant region and compare against the estimate.
    let client = WieraClient::builder(cluster.data_mesh.clone(), Region::EuWest, "eu-app")
        .replicas(dep.replicas())
        .build();
    let mut put_ms = 0.0;
    let mut get_ms = 0.0;
    let n = 20;
    for i in 0..n {
        put_ms += client
            .put(&format!("k{i}"), Bytes::from(vec![0u8; 2048]))
            .unwrap()
            .latency
            .as_millis_f64();
        get_ms += client
            .get(&format!("k{i}"))
            .unwrap()
            .latency
            .as_millis_f64();
    }
    println!(
        "\nmeasured from EU-West: put {:.1} ms, get {:.1} ms (estimates were for the \
         traffic-weighted mix across all regions)",
        put_ms / n as f64,
        get_ms / n as f64
    );
    assert!(
        advice.replicas.contains(&Region::EuWest),
        "an EU-heavy workload must place a replica in EU-West"
    );
    cluster.shutdown();
    println!("done.");
}
