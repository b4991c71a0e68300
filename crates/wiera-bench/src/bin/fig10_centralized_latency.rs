//! Fig. 10: operation latency against a centralized S3-IA tier in US-East,
//! from each region.
//!
//! §5.3's single-cold-replica variant: every region's instance reads cold
//! data from one shared S3-IA tier in US-East. The paper reports the worst
//! get around 200 ms (from Asia-East); puts stay local in each region, so
//! the put latency to the central store "can be ignored" — we report it
//! anyway to show what it would cost.

use bytes::Bytes;
use serde::Serialize;
use std::sync::Arc;
use wiera::msg::{DataMsg, PutItem};
use wiera::replica::{app_rpc, ReplicaConfig, ReplicaNode};
use wiera_net::{Fabric, Mesh, NodeId, Region};
use wiera_policy::ConsistencyModel;
use wiera_sim::{ScaledClock, SimDuration, Summary};

#[derive(Serialize)]
struct RegionResult {
    region: String,
    get: Summary,
    put: Summary,
}

#[derive(Serialize)]
struct Record {
    experiment: &'static str,
    object_bytes: usize,
    samples: usize,
    central_tier: &'static str,
    central_region: String,
    regions: Vec<RegionResult>,
}

const OBJ: usize = 4096;
const SAMPLES: usize = 120;
const SMOKE_SAMPLES: usize = 24;

fn main() {
    wiera_bench::reset_observability();
    let samples = if wiera_bench::is_smoke() {
        SMOKE_SAMPLES
    } else {
        SAMPLES
    };
    let fabric = Arc::new(Fabric::multicloud(wiera_bench::default_seed()));
    let mesh = Mesh::new(fabric, ScaledClock::shared(4000.0));

    // The centralized cold-data instance: one S3-IA tier in US-East.
    let central = ReplicaNode::spawn(
        mesh.clone(),
        ReplicaConfig {
            node: NodeId::new(Region::UsEast, "central-s3ia"),
            instance: tiera::InstanceConfig::new("central", Region::UsEast)
                .with_tier("tier1", "S3-IA", 0)
                .with_sleep(true, false),
            consistency: ConsistencyModel::Eventual,
            flush_interval: SimDuration::from_secs(1),
            coord: None,
            forward_gets_to: None,
            shard_group: None,
            service_time: None,
            overload: None,
        },
    )
    .expect("replica spawns");
    central.set_peers_direct(vec![], None, 1);

    // Preload the cold objects.
    let loader = NodeId::new(Region::UsEast, "loader");
    for i in 0..samples {
        app_rpc(
            &mesh,
            &loader,
            &central.node,
            DataMsg::Put {
                items: vec![PutItem {
                    key: format!("cold-{i}"),
                    value: Bytes::from(vec![7u8; OBJ]),
                }],
            },
        )
        .unwrap();
    }

    let mut regions = Vec::new();
    for region in [
        Region::UsEast,
        Region::UsWest,
        Region::EuWest,
        Region::AsiaEast,
    ] {
        let client = NodeId::new(region, format!("app-{region}"));
        let mut get = wiera_sim::Histogram::new();
        let mut put = wiera_sim::Histogram::new();
        for i in 0..samples {
            let g = app_rpc(
                &mesh,
                &client,
                &central.node,
                DataMsg::Get {
                    keys: vec![format!("cold-{i}")],
                },
            )
            .unwrap();
            get.record(g.latency);
            let p = app_rpc(
                &mesh,
                &client,
                &central.node,
                DataMsg::Put {
                    items: vec![PutItem {
                        key: format!("w-{region}-{i}"),
                        value: Bytes::from(vec![1u8; OBJ]),
                    }],
                },
            )
            .unwrap();
            put.record(p.latency);
        }
        regions.push(RegionResult {
            region: region.to_string(),
            get: get.summary(),
            put: put.summary(),
        });
    }
    central.stop();
    mesh.shutdown();

    let rows: Vec<Vec<String>> = regions
        .iter()
        .map(|r| {
            vec![
                r.region.clone(),
                format!("{:.1}", r.get.mean_ms),
                format!("{:.1}", r.get.p95_ms),
                format!("{:.1}", r.put.mean_ms),
            ]
        })
        .collect();
    wiera_bench::print_table(
        "Fig. 10: latency to centralized US-East S3-IA (ms, 4KB)",
        &["From region", "Get mean", "Get p95", "Put mean"],
        &rows,
    );

    // Shape checks: local is cheapest, Asia-East worst with get ≈ 200 ms.
    let mean = |name: &str| {
        regions
            .iter()
            .find(|r| r.region == name)
            .unwrap()
            .get
            .mean_ms
    };
    assert!(mean("US-East") < mean("US-West"));
    assert!(mean("US-West") < mean("Asia-East"));
    let asia = mean("Asia-East");
    assert!(
        (150.0..260.0).contains(&asia),
        "Asia-East get should land near the paper's ~200ms, got {asia}"
    );
    println!("\nshape-check: US-East < US-West/EU-West < Asia-East (~200ms)  [OK]");

    wiera_bench::emit(
        "fig10_centralized_latency",
        &Record {
            experiment: "fig10",
            object_bytes: OBJ,
            samples,
            central_tier: "S3-IA",
            central_region: Region::UsEast.to_string(),
            regions,
        },
    );
    wiera_bench::emit_metrics("fig10_centralized_latency");
}
