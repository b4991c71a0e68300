//! Bulk-operation throughput: what batching buys end to end.
//!
//! Drives the same YCSB-A mix through `WieraClient` at batch sizes
//! {1, 8, 64, 256} against a two-region synchronous primary-backup
//! deployment. A batch ships as ONE `Put`/`Get` message (one
//! 64-byte wire header amortized over the batch), the replica applies it
//! through `Instance::apply_batch` (locks and metadata overhead paid once),
//! and the primary fans ONE `Replicate` per backup instead of one
//! message per key.
//!
//! Two effects stack:
//!
//! * **Completion time** — per-op driving pays a full client↔replica round
//!   trip (plus a replication round trip for every put) per key; batches
//!   pay those once per round.
//! * **Wire bytes** — every message costs a modeled 64-byte header; with
//!   32-byte values the header dominates, so coalescing shrinks total
//!   bytes on the wire, not just message count.
//!
//! Shape check: batch 64 must cut BOTH modeled completion time and total
//! wire bytes at least 2× vs per-op driving.

use serde::Serialize;
use std::sync::Arc;
use wiera::client::WieraClient;
use wiera::deployment::DeploymentConfig;
use wiera::testkit::{bodies, Cluster};
use wiera_net::Region;
use wiera_sim::{MetricsRegistry, SimDuration, SimRng};
use wiera_workload::{ClientDriver, Ledger, WorkloadSpec};

const SCALE: f64 = 2000.0;
/// Small values make the fixed 64-byte wire header the dominant cost, the
/// regime where coalescing matters most (metadata-heavy workloads).
const VALUE_BYTES: usize = 32;
const KEYS: usize = 200;

#[derive(Serialize)]
struct Row {
    batch: usize,
    ops: u64,
    errors: u64,
    completion_ms: f64,
    wire_bytes: u64,
    rpcs: u64,
    mean_put_ms: f64,
    mean_get_ms: f64,
}

#[derive(Serialize)]
struct Record {
    experiment: &'static str,
    value_bytes: usize,
    ops_per_run: u64,
    rows: Vec<Row>,
}

/// Run `n_ops` of YCSB-A at one batch size on a fresh cluster; report
/// modeled completion time and the wire bytes the run generated.
fn run_at_batch(seed: u64, n_ops: u64, batch: usize) -> Row {
    let cluster = Cluster::launch(&[Region::UsEast, Region::UsWest], SCALE, seed);
    cluster
        .register_policy_over(
            "bulk",
            &[("US-East", true), ("US-West", false)],
            bodies::PRIMARY_BACKUP_SYNC,
        )
        .unwrap();
    let dep = cluster
        .controller
        .start_instances("bulk", "bulk", DeploymentConfig::default())
        .unwrap();
    let client = WieraClient::builder(cluster.data_mesh.clone(), Region::UsEast, "bulk-app")
        .replicas(dep.replicas())
        .build();

    let ledger = Arc::new(Ledger::new());
    let driver = ClientDriver::new(
        WorkloadSpec::ycsb_a(KEYS, VALUE_BYTES),
        ledger,
        SimDuration::ZERO,
    );
    let mut rng = SimRng::new(seed.wrapping_add(batch as u64));

    // Preload so reads hit data rather than all missing on the first round
    // (key names follow the spec's "user%08d" scheme).
    let preload: Vec<(String, bytes::Bytes)> = (0..KEYS.min(64))
        .map(|i| {
            (
                format!("user{i:08}"),
                bytes::Bytes::from(vec![0u8; VALUE_BYTES]),
            )
        })
        .collect();
    for r in client.put_batch(&preload).unwrap() {
        r.unwrap();
    }

    // Measure only the driven workload: drop setup traffic from the counters.
    wiera_bench::reset_observability();
    let t0 = cluster.clock.now();
    driver.run_batched_ops(&*client, &cluster.clock, &mut rng, n_ops, batch);
    let completion_ms = cluster.clock.now().elapsed_since(t0).as_millis_f64();
    let snap = MetricsRegistry::global().snapshot();
    let wire_bytes = snap.counter_sum("net_rpc_bytes");
    let rpcs = snap.counter_sum("net_rpc_total");

    let report = driver.report();
    cluster.shutdown();
    Row {
        batch,
        ops: report.ops,
        errors: report.errors,
        completion_ms,
        wire_bytes,
        rpcs,
        mean_put_ms: report.put_latency.mean_ms,
        mean_get_ms: report.get_latency.mean_ms,
    }
}

fn main() {
    let seed = wiera_bench::default_seed();
    let n_ops: u64 = if wiera_bench::is_smoke() { 256 } else { 1024 };

    let rows: Vec<Row> = [1usize, 8, 64, 256]
        .iter()
        .map(|&b| run_at_batch(seed, n_ops, b))
        .collect();

    wiera_bench::print_table(
        &format!(
            "Bulk throughput: YCSB-A, {VALUE_BYTES} B values, {n_ops} ops, PB-sync US-East→US-West"
        ),
        &[
            "Batch",
            "Completion (ms)",
            "Wire bytes",
            "RPCs",
            "Put (ms)",
            "Get (ms)",
            "Errors",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.batch.to_string(),
                    format!("{:.1}", r.completion_ms),
                    r.wire_bytes.to_string(),
                    r.rpcs.to_string(),
                    format!("{:.2}", r.mean_put_ms),
                    format!("{:.2}", r.mean_get_ms),
                    r.errors.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    );

    let by = |b: usize| rows.iter().find(|r| r.batch == b).unwrap();
    for r in &rows {
        assert_eq!(r.ops, n_ops, "batch {} must drive every op", r.batch);
        assert_eq!(r.errors, 0, "batch {} saw errors", r.batch);
    }
    assert!(
        by(64).completion_ms * 2.0 <= by(1).completion_ms,
        "batch 64 must cut completion time ≥2×: {} vs {}",
        by(64).completion_ms,
        by(1).completion_ms
    );
    assert!(
        by(64).wire_bytes * 2 <= by(1).wire_bytes,
        "batch 64 must cut wire bytes ≥2×: {} vs {}",
        by(64).wire_bytes,
        by(1).wire_bytes
    );
    assert!(
        by(64).rpcs < by(1).rpcs,
        "batching must collapse message count"
    );

    println!("\nshape-check: batch 64 cuts completion time and wire bytes ≥2× vs per-op  [OK]");
    let record = Record {
        experiment: "bulk_throughput",
        value_bytes: VALUE_BYTES,
        ops_per_run: n_ops,
        rows,
    };
    wiera_bench::emit("bulk_throughput", &record);
    wiera_bench::emit_metrics("bulk_throughput");
}
