//! Run every paper experiment in sequence.
//!
//! ```sh
//! cargo run --release -p wiera-bench --bin run_all            # full runs
//! cargo run --release -p wiera-bench --bin run_all -- --smoke # CI gate
//! ```
//!
//! Each experiment is a separate binary (so they can also be run and
//! tweaked individually); this driver executes them all, stops on the
//! first failure, and summarizes. JSON results land in `results/`.
//!
//! `--smoke` is the CI bench gate: it sets `WIERA_SMOKE=1` so experiments
//! shrink their workloads to CI-sized runs, then checks that every
//! experiment wrote a parseable `results/<name>.json`, and asserts
//! invariants over the exported `results/metrics_<name>.json` registry
//! snapshots (RPCs flowed, tiers served ops, latencies were recorded, and
//! replicas started a bounded number of threads for the ops they served).

use std::process::Command;
use wiera_sim::RegistrySnapshot;

const EXPERIMENTS: [(&str, &str); 14] = [
    ("table4_costs", "Table 4: storage tier prices"),
    ("fig9_tier_latency", "Fig. 9: per-tier 4KB latency"),
    (
        "fig10_centralized_latency",
        "Fig. 10: centralized S3-IA latency",
    ),
    ("sec53_cost_savings", "§5.3: cold-data cost savings"),
    (
        "fig7_dynamic_consistency",
        "Fig. 7: run-time consistency switching",
    ),
    (
        "fig8_table3_change_primary",
        "Fig. 8 + Table 3: changing primary",
    ),
    (
        "fig11_sysbench_iops",
        "Fig. 11: SysBench local disk vs remote memory",
    ),
    (
        "fig12_rubis_throughput",
        "Fig. 12: RUBiS local disk vs remote memory",
    ),
    (
        "ablation_consistency",
        "Ablations: fan-out, lock placement, flush interval",
    ),
    (
        "bulk_throughput",
        "Bulk ops: batching vs per-op completion time and wire bytes",
    ),
    (
        "chaos",
        "§4.4 chaos campaign: fault masking across all protocols",
    ),
    (
        "hotpath",
        "Hot path: wall-clock engine throughput + copied-bytes counter",
    ),
    (
        "fleet_throughput",
        "Fleet sharding: aggregate ops/sec scaling over 1→8 replica groups",
    ),
    (
        "brownout",
        "Brownout: goodput under a degraded tier, hedged vs plain clients",
    ),
];

/// Binaries that export a `results/metrics_<name>.json` registry snapshot,
/// with the counter/histogram invariants the smoke gate asserts on each.
const METRIC_CHECKS: [(&str, &[Invariant]); 10] = [
    (
        "fig9_tier_latency",
        &[
            Invariant::CounterPositive("tiera_ops_total"),
            Invariant::CounterPositive("tier_ops_total"),
            Invariant::HistogramPositive("tier_op_latency"),
            Invariant::HistogramPositive("tiera_op_latency"),
        ],
    ),
    (
        "fig10_centralized_latency",
        &[
            Invariant::CounterPositive("net_rpc_total"),
            Invariant::HistogramPositive("net_rpc_latency"),
            Invariant::CounterPositive("tiera_ops_total"),
            Invariant::CounterZero("net_rpc_timeouts"),
        ],
    ),
    (
        "fig7_dynamic_consistency",
        &[
            Invariant::CounterPositive("net_rpc_total"),
            Invariant::CounterPositive("wiera_put_total"),
            Invariant::CounterPositive("wiera_consistency_switches"),
            Invariant::HistogramPositive("wiera_put_latency"),
        ],
    ),
    (
        "fig8_table3_change_primary",
        &[
            Invariant::CounterPositive("net_rpc_total"),
            Invariant::CounterPositive("wiera_put_total"),
            Invariant::CounterPositive("wiera_get_total"),
            Invariant::CounterPositive("controller_change_requests"),
        ],
    ),
    (
        "fig11_sysbench_iops",
        &[
            Invariant::CounterPositive("net_rpc_total"),
            Invariant::CounterPositive("tiera_ops_total"),
            Invariant::HistogramPositive("wiera_get_latency"),
        ],
    ),
    (
        "bulk_throughput",
        &[
            Invariant::CounterPositive("net_rpc_total"),
            Invariant::CounterPositive("net_rpc_bytes"),
            Invariant::CounterPositive("tiera_ops_total"),
            workers_reused(1),
        ],
    ),
    (
        "chaos",
        &[
            Invariant::CounterPositive("chaos_faults"),
            Invariant::CounterPositive("wiera_crashes"),
            Invariant::CounterPositive("wiera_restarts"),
            Invariant::CounterPositive("wiera_anti_entropy_pulled"),
            Invariant::CounterPositive("client_retries"),
        ],
    ),
    (
        "hotpath",
        &[
            Invariant::CounterPositive("tiera_ops_total"),
            Invariant::CounterPositive("tier_ops_total"),
            workers_reused(1),
        ],
    ),
    (
        "fleet_throughput",
        &[
            Invariant::CounterPositive("net_rpc_total"),
            Invariant::CounterPositive("wiera_put_total"),
            Invariant::CounterPositive("wiera_get_total"),
            // The map is stable while the pool runs: with no shard moving,
            // every op must route correctly on the first try.
            Invariant::CounterZero("wiera_wrong_shard_total"),
            workers_reused(30),
        ],
    ),
    (
        "brownout",
        &[
            Invariant::CounterPositive("net_rpc_total"),
            Invariant::CounterPositive("wiera_get_total"),
            // Hedges must fire and win under the browned-out tier.
            Invariant::CounterPositive("client_hedges"),
            // Sequential clients never build an admission backlog, so the
            // armed overload machinery must not shed a single op.
            Invariant::CounterZero("wiera_shed_total"),
            workers_reused(5),
        ],
    ),
];

/// Replicas run application ops on reused workers: the threads they started
/// are a small share of the ops they served, where a thread per op reads
/// 100 % (less on batches, which count their items). 1 % where one client at
/// a time drives a replica; the brownout and fleet smoke runs are only 30–100
/// ops per client with up to 8 clients blocked on one replica at once, and a
/// worker per blocked op is what the set is for (measured 2 % and 12 %).
const fn workers_reused(percent: u64) -> Invariant {
    const OPS: &[&str] = &[
        "wiera_put_total",
        "wiera_put_errors",
        "wiera_get_total",
        "wiera_get_errors",
    ];
    Invariant::CounterAtMostPercentOf("wiera_worker_spawns_total", percent, OPS)
}

enum Invariant {
    /// Summed counter (across labels) must be > 0.
    CounterPositive(&'static str),
    /// Summed counter must be exactly 0.
    CounterZero(&'static str),
    /// Histogram must have recorded at least one sample.
    HistogramPositive(&'static str),
    /// Summed counter must be at most this percentage of the sum of the
    /// listed counters (which must not all be zero).
    CounterAtMostPercentOf(&'static str, u64, &'static [&'static str]),
}

impl Invariant {
    fn check(&self, snap: &RegistrySnapshot) -> Result<(), String> {
        match self {
            Invariant::CounterPositive(name) => {
                let v = snap.counter_sum(name);
                if v == 0 {
                    return Err(format!("counter {name} expected > 0, got 0"));
                }
            }
            Invariant::CounterZero(name) => {
                let v = snap.counter_sum(name);
                if v != 0 {
                    return Err(format!("counter {name} expected 0, got {v}"));
                }
            }
            Invariant::HistogramPositive(name) => {
                let v = snap.histogram_count(name);
                if v == 0 {
                    return Err(format!("histogram {name} expected samples, got none"));
                }
            }
            Invariant::CounterAtMostPercentOf(name, percent, of) => {
                let v = snap.counter_sum(name);
                let base: u64 = of.iter().map(|c| snap.counter_sum(c)).sum();
                if base == 0 || v * 100 > base * percent {
                    let of = of.join(" + ");
                    return Err(format!(
                        "counter {name} expected <= {percent}% of {of} = {base}, got {v}"
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Validate results + metrics files after a smoke run. Returns the list of
/// problems found (empty = gate passes).
fn validate_smoke() -> Vec<String> {
    let dir = wiera_bench::results_dir();
    let mut problems = Vec::new();

    for (bin, _) in EXPERIMENTS {
        let path = dir.join(format!("{bin}.json"));
        match std::fs::read_to_string(&path) {
            Err(e) => problems.push(format!("{bin}: missing {}: {e}", path.display())),
            Ok(body) => {
                if let Err(e) = serde_json::from_str::<serde_json::Value>(&body) {
                    problems.push(format!("{bin}: unparseable {}: {e}", path.display()));
                }
            }
        }
    }

    for (bin, invariants) in METRIC_CHECKS {
        let path = dir.join(format!("metrics_{bin}.json"));
        let snap: RegistrySnapshot = match std::fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|body| serde_json::from_str(&body).map_err(|e| e.to_string()))
        {
            Ok(snap) => snap,
            Err(e) => {
                problems.push(format!(
                    "{bin}: bad metrics snapshot {}: {e}",
                    path.display()
                ));
                continue;
            }
        };
        for inv in invariants {
            if let Err(e) = inv.check(&snap) {
                problems.push(format!("{bin}: {e}"));
            }
        }
    }
    problems
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let self_exe = std::env::current_exe().expect("own path");
    let bin_dir = self_exe.parent().expect("bin dir").to_path_buf();
    let mut failures = Vec::new();
    let started = std::time::Instant::now();

    for (bin, what) in EXPERIMENTS {
        println!("\n────────────────────────────────────────────────────────");
        println!("▶ {bin}: {what}");
        println!("────────────────────────────────────────────────────────");
        let path = bin_dir.join(bin);
        let mut cmd = Command::new(&path);
        if smoke {
            cmd.env("WIERA_SMOKE", "1");
        }
        let status = cmd
            .status()
            .unwrap_or_else(|e| panic!("failed to launch {}: {e}", path.display()));
        if !status.success() {
            failures.push(bin.to_string());
            eprintln!("✗ {bin} FAILED ({status})");
        }
    }

    if smoke {
        println!("\n── smoke gate: results + metrics invariants ─────────────");
        let problems = validate_smoke();
        if problems.is_empty() {
            println!("✓ all result files parse; all metric invariants hold");
        } else {
            for p in &problems {
                eprintln!("✗ {p}");
            }
            failures.extend(problems);
        }

        println!("\n── smoke gate: source audit ──────────────────────────────");
        let audit = bin_dir.join("wiera-audit");
        if audit.exists() {
            match Command::new(&audit).arg("--deny-warnings").status() {
                Ok(s) if s.success() => {
                    println!("✓ wiera-audit: workspace sources are clean");
                }
                Ok(s) => failures.push(format!("wiera-audit exited {s}")),
                Err(e) => failures.push(format!("failed to launch wiera-audit: {e}")),
            }
        } else {
            // Built separately (`cargo build --release -p wiera-audit`);
            // the dedicated static-audit CI job always runs it.
            println!("– wiera-audit binary not present; skipping source audit");
        }

        println!("\n── smoke gate: protocol model check ──────────────────────");
        let model = bin_dir.join("wiera-model");
        if model.exists() {
            std::fs::create_dir_all("results").ok();
            match Command::new(&model)
                .args(["--report", "results/model_report.json"])
                .status()
            {
                Ok(s) if s.success() => {
                    println!(
                        "✓ wiera-model: all protocols explore clean \
                         (results/model_report.json)"
                    );
                }
                Ok(s) => failures.push(format!("wiera-model exited {s}")),
                Err(e) => failures.push(format!("failed to launch wiera-model: {e}")),
            }
        } else {
            // Built separately (`cargo build --release -p wiera-model`);
            // the dedicated model-check CI job always runs it.
            println!("– wiera-model binary not present; skipping model check");
        }
    }

    println!("\n════════════════════════════════════════════════════════");
    if failures.is_empty() {
        println!(
            "all {} experiments reproduced their paper shapes in {:.0?}",
            EXPERIMENTS.len(),
            started.elapsed()
        );
    } else {
        println!("FAILED: {failures:?}");
        std::process::exit(1);
    }
}
