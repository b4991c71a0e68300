//! The benchmark's contract: workload names, metric names, units and
//! bounds. `BENCHMARK.json` at the repository root is `--spec`'s output;
//! `check.sh` fails when the two drift apart.

/// Seconds one run measures (`run_seconds`).
pub const RUN_SECONDS: u64 = 20;

pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "engine_fit",
        why: "batched 40/60 put/get on one TieraInstance whose 12.8 MB fit its memory tier: metastore and tier slot map do all the work, no network, replica or sleep",
    },
    WorkloadSpec {
        name: "engine_spill",
        why: "single 20/80 Zipf put/get on a write-through instance whose data is 4x its memory tier: LRU eviction, tier-1 miss, tier-2 read; same layers as engine_fit, other paths",
    },
    WorkloadSpec {
        name: "pbsync_put",
        why: "single 1 KiB puts through client, mesh, replica and synchronous US-East to US-West backup fan-out: the whole write path, engine a few percent of it",
    },
    WorkloadSpec {
        name: "eventual_batch_mixed",
        why: "put_batch/get_batch/get_batch of 64 on the same two regions under eventual consistency: client and replica layers batched and read-heavy, replication in the background queue",
    },
];

pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median an end-to-end metric may lose.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        higher_is_better: higher,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, higher: bool) -> MetricSpec {
    e2e(name, unit, higher, 0.0)
}

pub const END_TO_END: [MetricSpec; 5] = [
    e2e("ops_per_s", "ops/s", true, 0.25),
    e2e("op_p50_us", "us", false, 0.25),
    e2e("modeled_p50_ms", "ms", false, 0.01),
    e2e("modeled_p99_ms", "ms", false, 0.01),
    e2e("setup_s", "s", false, 0.25),
];

pub const PER_LAYER: [MetricSpec; 42] = [
    layer("sim.sleep_overshoot_us", "us", false),
    layer("net.rpc_local_us", "us", false),
    layer("net.rpc_wan_us", "us", false),
    layer("net.rpc_wan_modeled_ms", "ms", false),
    layer("net.send_deliver_us", "us", false),
    layer("tiers.put_ns", "ns", false),
    layer("tiers.get_ns", "ns", false),
    layer("tiers.evict_put_us", "us", false),
    layer("tiers.evictions", "count", false),
    layer("tiers.tier1_hit_ratio", "ratio", true),
    layer("tiers.tier2_reads_per_get", "ratio", false),
    layer("metastore.write_ns", "ns", false),
    layer("metastore.read_ns", "ns", false),
    layer("metastore.lock_skew", "ratio", false),
    layer("instance.put_ns", "ns", false),
    layer("instance.get_ns", "ns", false),
    layer("instance.batch_ns_per_op", "ns", false),
    layer("instance.self_put_ns", "ns", false),
    layer("instance.self_get_ns", "ns", false),
    layer("instance.copied_bytes_per_op", "B", false),
    layer("coord.group_of_ns", "ns", false),
    layer("policy.compile_us", "us", false),
    layer("deployment.launch_ms", "ms", false),
    layer("replica.put_us", "us", false),
    layer("replica.get_us", "us", false),
    layer("replica.self_put_us", "us", false),
    layer("replica.repl_sync_us", "us", false),
    layer("replica.queue_len_max", "count", false),
    layer("replica.drain_ms", "ms", false),
    layer("replica.egress_bytes_per_put", "B", false),
    layer("replica.replication_failures", "count", false),
    layer("client.put_us", "us", false),
    layer("client.get_us", "us", false),
    layer("client.put_batch_us_per_op", "us", false),
    layer("client.get_batch_us_per_op", "us", false),
    layer("client.self_put_us", "us", false),
    layer("client.op_p99_us", "us", false),
    layer("process.cpu_us_per_op", "us", false),
    layer("process.ctxsw_per_op", "ratio", false),
    layer("process.threads_peak", "count", false),
    layer("process.peak_rss_mb", "MiB", false),
    layer("trace.overhead_pct", "%", false),
];

fn better(m: &MetricSpec) -> &'static str {
    if m.higher_is_better {
        "higher"
    } else {
        "lower"
    }
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    let list = |items: Vec<String>| items.join(",\n");
    out.push_str("  \"workloads\": [\n");
    out.push_str(&list(
        WORKLOADS
            .iter()
            .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
            .collect(),
    ));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    out.push_str(&list(
        END_TO_END
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                    m.name,
                    m.unit,
                    better(m),
                    m.bound
                )
            })
            .collect(),
    ));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    out.push_str(&list(
        PER_LAYER
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                    m.name,
                    m.unit,
                    better(m)
                )
            })
            .collect(),
    ));
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_units_and_bounds_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name) && seen.insert(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(name_ok(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(!m.unit.is_empty() && m.unit.len() <= 16, "{}", m.name);
            assert!(
                m.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}",
                m.name
            );
            assert!(m.bound <= 0.25);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s");
        assert!(setup.is_some_and(|m| m.unit == "s" && !m.higher_is_better));
        let largest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.map(|m| m.bound), Some(largest));
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(benchmark_json().len() < 64 * 1024);
    }
}
