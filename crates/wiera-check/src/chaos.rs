//! Seeded chaos campaign (§4.4): randomized fault scripts against every
//! consistency protocol, gated by the same checkers as the corpus.
//!
//! A campaign stands up one three-region cluster per protocol, runs a
//! seeded workload of client writes interleaved with randomized faults
//! drawn from a per-protocol menu, then drives recovery to quiescence and
//! verifies two things:
//!
//! * **post-heal convergence** — after every fault is healed, queues
//!   drained and anti-entropy run, all replicas must be digest-equal
//!   (same per-key latest version + content fingerprint);
//! * **zero findings** — the consistency-history oracle and the lock-order
//!   detector, replayed over everything the campaign recorded, must come
//!   back clean.
//!
//! The fault menus are protocol-aware on purpose: a fault is only
//! scheduled where the protocol *claims* to mask it. Sync primary-backup
//! gets its primary crashed (the failure detector must elect a backup and
//! epoch fencing must hold); eventual gets partitions (queued distribution
//! must retry through the heal); multi-primaries gets coordination-session
//! expiry (the lock service must promote past the dead session). Faults a
//! protocol does *not* mask (e.g. partitioning a sync primary-backup
//! deployment, which necessarily serves stale reads at the cut backup; or
//! crashing an *async* primary-backup primary, which loses writes acked
//! before the propagation queue flushed) are deliberately absent — the
//! campaign checks recovery machinery, not the CAP theorem.
//!
//! Everything is derived from one `u64` seed, so a failing campaign is
//! replayable: `wiera-check --chaos <seed>`.

use bytes::Bytes;
use std::sync::Arc;
use wiera::client::{RetryPolicy, WieraClient};
use wiera::deployment::DeploymentConfig;
use wiera::replica::ReplicaNode;
use wiera::testkit::{bodies, Cluster};
use wiera_coord::{CoordClient, CoordConfig};
use wiera_net::{NodeId, Region};
use wiera_policy::diag::{sort_diagnostics, worst_is_deny, Code, Diagnostic};
use wiera_sim::lockreg::LockRegistry;
use wiera_sim::{MetricsRegistry, SimRng, Tracer};

use crate::history::check_trace;
use crate::lockdiag::registry_diagnostics;
use crate::scenarios;

/// One protocol's campaign outcome.
pub struct ChaosReport {
    pub protocol: &'static str,
    pub seed: u64,
    /// The fault script actually executed, in order (replay documentation).
    pub script: Vec<String>,
    pub ops_attempted: usize,
    /// Operations that failed even after client retries. Nonzero is normal
    /// — writes issued inside a detection window have nowhere to land —
    /// but every failure must be an *error the client saw*, never a lost ack.
    pub ops_failed: usize,
    /// All replicas digest-equal after heal + drain + anti-entropy.
    pub converged: bool,
    pub diags: Vec<Diagnostic>,
}

impl ChaosReport {
    pub fn passed(&self, deny_warnings: bool) -> bool {
        self.converged && !worst_is_deny(&self.diags, deny_warnings)
    }
}

/// The faults a campaign can schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Fault {
    /// Crash whichever replica currently claims the primary role; the
    /// detector must elect a backup, the crashed node restarts later.
    CrashPrimary,
    /// Crash a non-primary replica; restarts later.
    CrashBackup,
    /// Cut one region pair, heal after the burst.
    PartitionAndHeal,
    /// A side coordination session holding a lock goes silent; expiry must
    /// promote the queued waiter while the workload keeps running.
    CoordSessionExpiry,
    /// Degrade one replica's durable tier by 4x, restore after the burst.
    SlowTier,
    /// Brownout: one replica's durable tier slows 50x — not down, just
    /// nearly unusable. The failover/degradation machinery must keep ops
    /// flowing; heal restores full speed.
    SlowTierBrownout,
    /// Inject per-message latency jitter at one region's edge, remove
    /// after the burst. Retries and timeouts must absorb it without
    /// consistency damage.
    LatencyJitter,
}

struct Protocol {
    name: &'static str,
    body: &'static str,
    /// (region name, primary) triples passed to the policy.
    layout: &'static [(&'static str, bool)],
    /// Faults this protocol claims to mask.
    menu: &'static [Fault],
    /// Run the lease-based failure detector (needed wherever a primary
    /// can crash).
    detector: bool,
}

/// The campaign roster: the paper's three protocols, with primary-backup
/// in both propagation modes. Primaries sit in US-West so the coordination
/// service (US-East, like the paper) stays reachable from the backups
/// while the primary is down.
const PROTOCOLS: &[Protocol] = &[
    Protocol {
        name: "eventual",
        body: bodies::EVENTUAL,
        layout: &[("US-East", false), ("US-West", false), ("EU-West", false)],
        menu: &[
            Fault::CrashBackup,
            Fault::PartitionAndHeal,
            Fault::SlowTier,
            Fault::SlowTierBrownout,
            Fault::LatencyJitter,
        ],
        detector: false,
    },
    Protocol {
        name: "pb-sync",
        body: bodies::PRIMARY_BACKUP_SYNC,
        layout: &[("US-East", false), ("US-West", true), ("EU-West", false)],
        menu: &[
            Fault::CrashPrimary,
            Fault::CrashBackup,
            Fault::SlowTier,
            Fault::SlowTierBrownout,
            Fault::LatencyJitter,
        ],
        detector: true,
    },
    Protocol {
        name: "pb-async",
        body: bodies::PRIMARY_BACKUP_ASYNC,
        layout: &[("US-East", false), ("US-West", true), ("EU-West", false)],
        // No CrashPrimary: async propagation acks before the queue flushes,
        // so a primary crash loses acked writes by design — the oracle
        // would (correctly) deny. Backup crashes are maskable: the acked
        // copy survives on the primary and rejoin pulls it back.
        menu: &[
            Fault::CrashBackup,
            Fault::SlowTier,
            Fault::SlowTierBrownout,
            Fault::LatencyJitter,
        ],
        detector: true,
    },
    Protocol {
        name: "multi-primaries",
        body: bodies::MULTI_PRIMARIES,
        layout: &[("US-East", true), ("US-West", false), ("EU-West", false)],
        menu: &[
            Fault::CoordSessionExpiry,
            Fault::SlowTier,
            Fault::LatencyJitter,
        ],
        detector: false,
    },
];

const REGIONS: [Region; 3] = [Region::UsEast, Region::UsWest, Region::EuWest];
const SCALE: f64 = 2000.0;
const KEYS: usize = 6;
const BURSTS: usize = 3;
const PUTS_PER_BURST: usize = 4;

/// Run the full campaign: every protocol, faults drawn from its menu in a
/// seed-determined order. Serialized (shares the global tracer, lock
/// registry and metrics with everything else in the process).
pub fn run_campaign(seed: u64) -> Vec<ChaosReport> {
    static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    PROTOCOLS.iter().map(|p| run_protocol(p, seed)).collect()
}

fn wall(ms: u64) {
    std::thread::sleep(std::time::Duration::from_millis(ms));
}

fn wait_for(mut cond: impl FnMut() -> bool, wall_ms: u64) -> bool {
    let deadline = std::time::Instant::now() + std::time::Duration::from_millis(wall_ms);
    while !cond() {
        if std::time::Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    true
}

/// Content view of a replica: sorted (key, version, digest). `modified` is
/// excluded — the primary's local stamp differs from the replicated stamp
/// by the modeled write latency.
fn content(r: &ReplicaNode) -> Vec<(String, u64, u64)> {
    let mut d: Vec<(String, u64, u64)> = r
        .digest_table()
        .into_iter()
        .map(|e| (e.key, e.version, e.digest))
        .collect();
    d.sort();
    d
}

fn current_primary(replicas: &[Arc<ReplicaNode>]) -> Option<Arc<ReplicaNode>> {
    replicas
        .iter()
        .find(|r| !r.is_stopped() && r.primary() == Some(r.node.clone()))
        .cloned()
}

fn err_diag(context: &str, e: impl std::fmt::Display) -> Diagnostic {
    Diagnostic::note(
        Code::Wc013,
        format!("chaos campaign step failed ({context}: {e}); campaign incomplete"),
    )
}

fn run_protocol(p: &Protocol, seed: u64) -> ChaosReport {
    Tracer::global().clear();
    LockRegistry::global().reset();
    let mut rng = SimRng::new(seed).child(p.name);
    let mut script = Vec::new();
    let mut extra_diags = Vec::new();
    let mut ops_attempted = 0usize;
    let mut ops_failed = 0usize;

    let cluster = Cluster::launch(&REGIONS, SCALE, seed);
    let id = format!("chaos-{}", p.name);
    if let Err(e) = cluster.register_policy_over(&id, p.layout, p.body) {
        return ChaosReport {
            protocol: p.name,
            seed,
            script,
            ops_attempted,
            ops_failed,
            converged: false,
            diags: vec![err_diag("register policy", e)],
        };
    }
    let mut cfg = DeploymentConfig {
        flush_ms: 400.0,
        ..Default::default()
    };
    if p.detector {
        cfg = cfg.with_failure_detection(1_500.0, 4_000.0);
    }
    let dep = match cluster.controller.start_instances(&id, &id, cfg) {
        Ok(d) => d,
        Err(e) => {
            return ChaosReport {
                protocol: p.name,
                seed,
                script,
                ops_attempted,
                ops_failed,
                converged: false,
                diags: vec![err_diag("start instances", e)],
            };
        }
    };
    let replicas = cluster.deployment_replicas(&id);
    let model = scenarios::deduced_model_for(p.layout, p.body);

    // One client per region, sharing the campaign seed so retry jitter is
    // replayable too.
    let clients: Vec<Arc<WieraClient>> = REGIONS
        .iter()
        .map(|&region| {
            WieraClient::builder(
                cluster.data_mesh.clone(),
                region,
                format!("chaos-app-{region}"),
            )
            .replicas(dep.replicas())
            .policy(RetryPolicy {
                seed: rng.child("client").seed(),
                max_attempts: 6,
                ..Default::default()
            })
            .build()
        })
        .collect();

    // The seed-determined fault schedule: one fault per burst, drawn from
    // the protocol's menu without immediate repeats.
    let mut faults = Vec::new();
    let mut prev: Option<Fault> = None;
    while faults.len() < BURSTS.min(p.menu.len().max(2)) {
        let f = p.menu[rng.gen_range_usize(0, p.menu.len())];
        if p.menu.len() > 1 && prev == Some(f) {
            continue;
        }
        prev = Some(f);
        faults.push(f);
    }

    let mut crashed: Vec<Arc<ReplicaNode>> = Vec::new();
    for (burst, &fault) in faults.iter().enumerate() {
        // Inject.
        let mut heal: Box<dyn FnMut()> = match fault {
            Fault::CrashPrimary => {
                if let Some(primary) = current_primary(&replicas) {
                    script.push(format!("burst {burst}: crash-primary {}", primary.node));
                    primary.crash();
                    MetricsRegistry::global().inc("chaos_faults", &[("kind", "crash-primary")]);
                    crashed.push(primary);
                    // Give the detector a chance; don't insist (a backup
                    // may still be mid-election when the burst runs —
                    // those writes fail and are counted).
                    let reps = replicas.clone();
                    wait_for(|| current_primary(&reps).is_some(), 20_000);
                } else {
                    script.push(format!("burst {burst}: crash-primary skipped (none live)"));
                }
                Box::new(|| {})
            }
            Fault::CrashBackup => {
                let live_backup = replicas
                    .iter()
                    .find(|r| !r.is_stopped() && r.primary() != Some(r.node.clone()))
                    .cloned();
                if let Some(b) = live_backup {
                    script.push(format!("burst {burst}: crash-backup {}", b.node));
                    b.crash();
                    MetricsRegistry::global().inc("chaos_faults", &[("kind", "crash-backup")]);
                    crashed.push(b);
                } else {
                    script.push(format!("burst {burst}: crash-backup skipped (none live)"));
                }
                Box::new(|| {})
            }
            Fault::PartitionAndHeal => {
                let i = rng.gen_range_usize(0, REGIONS.len());
                let j = (i + 1 + rng.gen_range_usize(0, REGIONS.len() - 1)) % REGIONS.len();
                let (a, b) = (REGIONS[i], REGIONS[j]);
                script.push(format!("burst {burst}: partition {a}<->{b}"));
                cluster.fabric.partition(a, b);
                MetricsRegistry::global().inc("chaos_faults", &[("kind", "partition")]);
                let fabric = cluster.fabric.clone();
                Box::new(move || fabric.heal_partition(a, b))
            }
            Fault::CoordSessionExpiry => {
                script.push(format!("burst {burst}: coord-session-expiry"));
                MetricsRegistry::global().inc("chaos_faults", &[("kind", "session-expiry")]);
                match inject_session_expiry(&cluster, burst) {
                    Ok(()) => {}
                    Err(e) => extra_diags.push(err_diag("session expiry", e)),
                }
                Box::new(|| {})
            }
            Fault::SlowTier => {
                let idx = rng.gen_range_usize(0, replicas.len());
                let r = replicas[idx].clone();
                script.push(format!("burst {burst}: slow-tier on {}", r.node));
                MetricsRegistry::global().inc("chaos_faults", &[("kind", "slow-tier")]);
                if let Some(t) = r.instance().tier("tier2").and_then(|t| t.as_local()) {
                    t.set_degraded(4.0);
                }
                Box::new(move || {
                    if let Some(t) = r.instance().tier("tier2").and_then(|t| t.as_local()) {
                        t.set_degraded(1.0);
                    }
                })
            }
            Fault::SlowTierBrownout => {
                let idx = rng.gen_range_usize(0, replicas.len());
                let r = replicas[idx].clone();
                script.push(format!("burst {burst}: tier-brownout on {}", r.node));
                MetricsRegistry::global().inc("chaos_faults", &[("kind", "tier-brownout")]);
                if let Some(t) = r.instance().tier("tier2").and_then(|t| t.as_local()) {
                    t.set_degraded(50.0);
                }
                Box::new(move || {
                    if let Some(t) = r.instance().tier("tier2").and_then(|t| t.as_local()) {
                        t.set_degraded(1.0);
                    }
                })
            }
            Fault::LatencyJitter => {
                let region = REGIONS[rng.gen_range_usize(0, REGIONS.len())];
                let ms = 50.0 + rng.gen_range_f64(0.0, 200.0);
                script.push(format!("burst {burst}: latency-jitter {region} {ms:.0}ms"));
                MetricsRegistry::global().inc("chaos_faults", &[("kind", "latency-jitter")]);
                cluster.fabric.set_region_jitter_ms(region, Some(ms));
                let fabric = cluster.fabric.clone();
                Box::new(move || fabric.set_region_jitter_ms(region, None))
            }
        };

        // Workload burst under the fault.
        for _ in 0..PUTS_PER_BURST {
            let key = format!("c{}", rng.gen_range_usize(0, KEYS));
            let client = &clients[rng.gen_range_usize(0, clients.len())];
            let fill = rng.gen_range_usize(1, 255) as u8;
            ops_attempted += 1;
            if client.put(&key, Bytes::from(vec![fill; 64])).is_err() {
                ops_failed += 1;
            }
            wall(5);
        }
        wall(20);
        heal();
        wall(20);
    }

    // ---- recovery to quiescence -------------------------------------------
    // Restart every crashed node (rejoin at the current epoch, anti-entropy
    // catch-up), then drain queues and run one more anti-entropy pass per
    // replica so post-heal state is fully exchanged.
    for r in &crashed {
        if let Err(e) = r.restart() {
            extra_diags.push(err_diag(&format!("restart {}", r.node), e));
        }
    }
    wall(60); // a few flush intervals for queued distribution to drain
    for r in &replicas {
        let msg = wiera::msg::DataMsg::FlushQueue;
        let from = NodeId::new(Region::UsEast, "chaos-driver");
        let bytes = msg.wire_bytes();
        let _ = cluster.data_mesh.rpc(
            &from,
            &r.node,
            msg,
            bytes,
            wiera_sim::SimDuration::from_secs(120),
        );
    }
    for r in &replicas {
        r.anti_entropy();
    }
    wall(20);

    let tables: Vec<Vec<(String, u64, u64)>> = replicas.iter().map(|r| content(r)).collect();
    let converged = tables.windows(2).all(|w| w[0] == w[1]);
    if !converged {
        script.push("post-heal digest mismatch".into());
    }

    // Post-convergence reads from every region (gives the oracle read
    // events to check against the writes).
    if converged {
        for client in &clients {
            for i in 0..KEYS {
                let key = format!("c{i}");
                ops_attempted += 1;
                match client.get(&key) {
                    Ok(_) => {}
                    Err(e) if e.is_not_found() => {} // key never written this run
                    Err(_) => ops_failed += 1,
                }
            }
        }
    }

    dep.stop_all();
    cluster.shutdown();
    wall(20);

    let mut diags = check_trace(Tracer::global(), model);
    diags.extend(registry_diagnostics(LockRegistry::global()));
    diags.extend(extra_diags);
    sort_diagnostics(&mut diags);
    ChaosReport {
        protocol: p.name,
        seed,
        script,
        ops_attempted,
        ops_failed,
        converged,
        diags,
    }
}

/// A side session takes a coordination lock and goes silent; the service
/// must expire it and promote the waiter without disturbing the workload.
fn inject_session_expiry(cluster: &Cluster, burst: usize) -> Result<(), String> {
    let cfg = CoordConfig::default();
    let hung = CoordClient::connect(
        cluster.coord_mesh.clone(),
        NodeId::new(Region::UsWest, format!("chaos-hung-{burst}")),
        cluster.coord.node.clone(),
        &cfg,
    )
    .map_err(|e| format!("hung connect: {e}"))?;
    let waiter = CoordClient::connect(
        cluster.coord_mesh.clone(),
        NodeId::new(Region::UsEast, format!("chaos-waiter-{burst}")),
        cluster.coord.node.clone(),
        &cfg,
    )
    .map_err(|e| format!("waiter connect: {e}"))?;
    let path = format!("/chaos/expiry-{burst}");
    let (g, _) = hung.lock(&path).map_err(|e| format!("hung lock: {e}"))?;
    hung.pause_heartbeats();
    std::mem::forget(g);
    let (g2, _) = waiter
        .lock(&path)
        .map_err(|e| format!("waiter lock: {e}"))?;
    drop(g2);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One fixed-seed campaign must pass outright: convergence on every
    /// protocol and zero gating findings even with warnings denied.
    #[test]
    fn fixed_seed_campaign_is_clean_and_converges() {
        let reports = run_campaign(20_160_601); // HPDC '16
        assert_eq!(reports.len(), PROTOCOLS.len());
        for r in &reports {
            assert!(
                r.passed(true),
                "protocol {} seed {} failed: converged={} script={:?} diags={:?}",
                r.protocol,
                r.seed,
                r.converged,
                r.script,
                r.diags
            );
            assert!(r.ops_attempted > 0);
        }
    }

    /// The schedule is a pure function of the seed: two runs with the same
    /// seed must execute the same fault script. Crash victims are the one
    /// exception — a crash fault hits whichever node holds (or doesn't
    /// hold) the primary role *at injection time*, and after an earlier
    /// election that role assignment is timing-dependent — so the victim
    /// name is normalized away while every RNG-drawn part (fault kinds and
    /// order, partition pairs, jitter magnitudes, target indices) must
    /// replay exactly.
    #[test]
    fn fault_script_is_replayable_from_seed() {
        let a = run_campaign(42);
        let b = run_campaign(42);
        let normalize = |line: &str| -> String {
            for prefix in ["crash-primary ", "crash-backup "] {
                if let Some(at) = line.find(prefix) {
                    if !line.ends_with("(none live)") {
                        return format!("{}{}<victim>", &line[..at], prefix);
                    }
                }
            }
            line.to_string()
        };
        let scripts = |rs: &[ChaosReport]| -> Vec<Vec<String>> {
            rs.iter()
                .map(|r| r.script.iter().map(|l| normalize(l)).collect())
                .collect()
        };
        assert_eq!(scripts(&a), scripts(&b));
    }
}
