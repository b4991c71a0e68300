//! Canned scenario corpus + adversarial self-tests.
//!
//! Each *corpus* scenario stands up a real multi-region cluster (the same
//! harness the system tests use), runs a workload under one of the paper's
//! three consistency protocols — including outage and session-expiry fault
//! injection — and hands the recorded history plus the global lock-order
//! graph to the checkers. The corpus must come back clean: any finding here
//! is a real (or conservatively-possible) defect in the runtime.
//!
//! The *adversarial* scenarios are the converse: each plants a known bug —
//! an ABBA lock-order cycle acquired by two non-overlapping threads, a
//! stale read slipped into a sync primary-backup history — and declares the
//! WC code the checker must produce. `wiera-check --adversarial` fails if
//! any plant goes undetected, which keeps the oracle itself honest.
//!
//! Scenarios share process-global state (the [`Tracer`], the
//! [`LockRegistry`], wall-clock timing), so [`run_scenario`] serializes
//! them behind one mutex.

use bytes::Bytes;
use std::sync::Arc;
use wiera::controller::ControllerConfig;
use wiera::deployment::DeploymentConfig;
use wiera::testkit::{bodies, Cluster};
use wiera_coord::{CoordClient, CoordConfig};
use wiera_net::{NodeId, Region};
use wiera_policy::diag::{sort_diagnostics, Code, Diagnostic};
use wiera_policy::ConsistencyModel;
use wiera_sim::lockreg::{LockRegistry, TrackedMutex};
use wiera_sim::{SimDuration, TraceEvent, Tracer};

use crate::history::{check_history, check_trace, extract_history};
use crate::lockdiag::registry_diagnostics;

/// Whether a scenario is expected to be clean or to trip the checker.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScenarioKind {
    /// Part of the canned corpus: zero findings expected.
    Corpus,
    /// Contains a planted bug: the listed codes MUST be reported.
    Adversarial,
}

/// A runnable check scenario.
pub struct Scenario {
    pub name: &'static str,
    pub kind: ScenarioKind,
    pub describe: &'static str,
    /// Codes that must appear in the report (adversarial only).
    pub expect: &'static [Code],
    run: fn() -> Vec<Diagnostic>,
}

/// The outcome of one scenario run.
pub struct ScenarioReport {
    pub name: &'static str,
    pub kind: ScenarioKind,
    pub diags: Vec<Diagnostic>,
}

impl ScenarioReport {
    /// For adversarial scenarios: were all planted bugs detected?
    pub fn detected_all(&self, expect: &[Code]) -> bool {
        expect
            .iter()
            .all(|c| self.diags.iter().any(|d| d.code == *c))
    }
}

/// Every scenario, corpus first — the order the CLI runs them in.
pub fn all_scenarios() -> &'static [Scenario] {
    &[
        Scenario {
            name: "eventual-two-regions",
            kind: ScenarioKind::Corpus,
            describe: "eventual consistency over two regions: local writes, \
                       queued distribution, convergence after quiescence",
            expect: &[],
            run: run_eventual_two_regions,
        },
        Scenario {
            name: "primary-backup-sync",
            kind: ScenarioKind::Corpus,
            describe: "sync primary-backup: forwarded writes from the backup \
                       region, linearizability of the recorded history",
            expect: &[],
            run: run_primary_backup_sync,
        },
        Scenario {
            name: "multi-primaries-locked",
            kind: ScenarioKind::Corpus,
            describe: "multi-primaries: writes from both regions under the \
                       global coordination lock, linearizability",
            expect: &[],
            run: run_multi_primaries,
        },
        Scenario {
            name: "batched-bulk-ops",
            kind: ScenarioKind::Corpus,
            describe: "sync primary-backup driven through the client batch \
                       API: a batch forwarded from the backup region, \
                       partial-failure batched get, linearizability of the \
                       per-item mput/mget spans",
            expect: &[],
            run: run_batched_bulk_ops,
        },
        Scenario {
            name: "batched-eventual-coalesced",
            kind: ScenarioKind::Corpus,
            describe: "eventual consistency with batched writes: one \
                       coalesced Replicate per peer per flush, \
                       convergence after quiescence",
            expect: &[],
            run: run_batched_eventual,
        },
        Scenario {
            name: "pb-outage",
            kind: ScenarioKind::Corpus,
            describe: "sync primary-backup with a backup-region partition \
                       injected and healed mid-run",
            expect: &[],
            run: run_pb_outage,
        },
        Scenario {
            name: "session-expiry",
            kind: ScenarioKind::Corpus,
            describe: "multi-primaries workload while a hung coordination \
                       session expires and its lock is re-granted",
            expect: &[],
            run: run_session_expiry,
        },
        Scenario {
            name: "fleet-sharded-routing",
            kind: ScenarioKind::Corpus,
            describe: "two-group consistent-hash fleet under sync \
                       primary-backup: shard-routed single-key and batch \
                       traffic from both regions, linearizability per key",
            expect: &[],
            run: run_fleet_sharded_routing,
        },
        Scenario {
            name: "fleet-shard-move",
            kind: ScenarioKind::Corpus,
            describe: "shard move under concurrent writers with a \
                       target-group backup crashed mid-handoff: every acked \
                       write survives, the target group is digest-equal \
                       after heal, and the history stays clean",
            expect: &[],
            run: run_fleet_shard_move,
        },
        Scenario {
            name: "overload-degraded-read",
            kind: ScenarioKind::Corpus,
            describe: "eventual deployment with admission control: a forced \
                       backlog sheds plain clients to the healthy region, a \
                       consenting client gets an explicitly-marked degraded \
                       local read, and the history stays clean after heal",
            expect: &[],
            run: run_overload_degraded_read,
        },
        Scenario {
            name: "adv-abba-deadlock",
            kind: ScenarioKind::Adversarial,
            describe: "planted ABBA: two threads take two tracked locks in \
                       opposing orders without ever interleaving",
            expect: &[Code::Wc001],
            run: run_adv_abba,
        },
        Scenario {
            name: "adv-stale-read-pb-sync",
            kind: ScenarioKind::Adversarial,
            describe: "planted stale read in a sync primary-backup history",
            expect: &[Code::Wc010],
            run: run_adv_stale_read,
        },
    ]
}

/// Run one scenario by name. Serialized: scenarios share the global tracer,
/// the global lock registry and wall-clock timing.
pub fn run_scenario(name: &str) -> Option<ScenarioReport> {
    static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let scenario = all_scenarios().iter().find(|s| s.name == name)?;
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut diags = (scenario.run)();
    sort_diagnostics(&mut diags);
    Some(ScenarioReport {
        name: scenario.name,
        kind: scenario.kind,
        diags,
    })
}

// ---- shared plumbing -------------------------------------------------------

/// Wall-clock pause that lets in-flight mesh deliveries and queued
/// replication drain. On the modeled axis this is a *long* quiescent gap
/// (wall ms × time-scale), which is what separates the write and read
/// phases for the interval checks.
fn quiesce(wall_ms: u64) {
    std::thread::sleep(std::time::Duration::from_millis(wall_ms));
}

/// The model a (layout, body) pair deduces to: the one the oracle checks
/// against, shared with the chaos campaign. The tier stack plays no part
/// in the deduction, so the regions are rendered without one.
pub(crate) fn deduced_model_for(layout: &[(&str, bool)], body: &str) -> Option<ConsistencyModel> {
    let src = wiera_policy::canned::policy_over("deduce", layout, &[], body);
    wiera_policy::compile(&wiera_policy::parse(&src).ok()?)
        .ok()?
        .consistency
}

struct Bench {
    cluster: Cluster,
    dep: Arc<wiera::deployment::WieraDeployment>,
    model: Option<ConsistencyModel>,
}

/// Stand up a cluster, register + start the policy, and reset the global
/// tracer and lock registry so the report covers exactly this scenario.
fn bench(
    id: &str,
    regions: &[Region],
    layout: &[(&str, bool)],
    body: &str,
    time_scale: f64,
) -> Result<Bench, String> {
    bench_with(
        id,
        regions,
        layout,
        body,
        time_scale,
        DeploymentConfig::default(),
    )
}

/// [`bench`] with a caller-supplied deployment config (overload knobs,
/// flush cadence, …).
fn bench_with(
    id: &str,
    regions: &[Region],
    layout: &[(&str, bool)],
    body: &str,
    time_scale: f64,
    dep_config: DeploymentConfig,
) -> Result<Bench, String> {
    Tracer::global().clear();
    LockRegistry::global().reset();
    // Session expiry is judged in sim time but heartbeat threads run on the
    // wall clock: at scale 2000 the default 10-sim-second timeout is 5 wall
    // milliseconds, so one scheduler stall on a loaded host (CI compiling
    // test binaries in parallel) expires a healthy session mid-scenario.
    // Widen the timeout to a ~100ms wall tolerance, capped under the
    // client's 300-sim-second lock wait so the session-expiry scenario's
    // queued waiter still gets promoted; genuinely hung sessions still
    // expire, just later.
    let mut coord_config = CoordConfig::default();
    let wall_floor = SimDuration::from_secs_f64((0.1 * time_scale).min(250.0));
    if coord_config.session_timeout < wall_floor {
        coord_config.session_timeout = wall_floor;
    }
    let cluster = Cluster::launch_full(
        regions,
        time_scale,
        7,
        ControllerConfig::default(),
        coord_config,
    );
    cluster.register_policy_over(id, layout, body)?;
    let dep = cluster.controller.start_instances(id, id, dep_config)?;
    let model = deduced_model_for(layout, body);
    Ok(Bench {
        cluster,
        dep,
        model,
    })
}

/// Shut the cluster down, then run both checkers over what was recorded.
fn collect(b: Bench, extra: Vec<Diagnostic>) -> Vec<Diagnostic> {
    // Stop traffic sources before reading the trace so the history is
    // complete and the lock graph stops growing.
    b.dep.stop_all();
    b.cluster.shutdown();
    quiesce(20);

    let mut diags = check_trace(Tracer::global(), b.model);
    // Scenario workloads always record puts and gets; an empty history here
    // means the instrumentation broke, so the WC013 note stands.
    diags.extend(registry_diagnostics(LockRegistry::global()));
    diags.extend(extra);
    diags
}

fn err_diag(context: &str, e: impl std::fmt::Display) -> Vec<Diagnostic> {
    vec![Diagnostic::note(
        Code::Wc013,
        format!("scenario could not run to completion ({context}: {e}); history unchecked"),
    )]
}

fn app(region: Region, name: &str) -> NodeId {
    NodeId::new(region, name)
}

// ---- corpus ----------------------------------------------------------------

fn run_eventual_two_regions() -> Vec<Diagnostic> {
    let b = match bench(
        "chk-eventual",
        &[Region::UsEast, Region::EuWest],
        &[("US-East", true), ("EU-West", false)],
        bodies::EVENTUAL,
        2000.0,
    ) {
        Ok(b) => b,
        Err(e) => return err_diag("launch", e),
    };
    let east = app(Region::UsEast, "app-e");
    let west = app(Region::EuWest, "app-w");
    // Independent keys from each side (concurrent same-key eventual writers
    // collide on locally-assigned versions — legal, but then the history
    // carries no convergence signal worth asserting on).
    for i in 0..3 {
        if let Err(e) = b
            .dep
            .put_from(&east, &format!("e{i}"), Bytes::from(vec![i as u8; 64]))
        {
            return collect(b, err_diag("put east", e));
        }
        if let Err(e) = b.dep.put_from(
            &west,
            &format!("w{i}"),
            Bytes::from(vec![0x80 | i as u8; 64]),
        ) {
            return collect(b, err_diag("put west", e));
        }
    }
    // Overwrite one key twice from its home node: exercises read-your-writes.
    let _ = b.dep.put_from(&east, "e0", Bytes::from(vec![0xEE; 64]));
    quiesce(80); // let the queued updates distribute
    for key in ["e0", "e1", "w0"] {
        if let Err(e) = b.dep.get_from(&east, key) {
            return collect(b, err_diag("get east", e));
        }
        if let Err(e) = b.dep.get_from(&west, key) {
            return collect(b, err_diag("get west", e));
        }
    }
    collect(b, Vec::new())
}

fn run_primary_backup_sync() -> Vec<Diagnostic> {
    let b = match bench(
        "chk-pb-sync",
        &[Region::UsEast, Region::UsWest],
        &[("US-East", true), ("US-West", false)],
        bodies::PRIMARY_BACKUP_SYNC,
        2000.0,
    ) {
        Ok(b) => b,
        Err(e) => return err_diag("launch", e),
    };
    let east = app(Region::UsEast, "app-e");
    let west = app(Region::UsWest, "app-w");
    // Writes from the primary side and the backup side (the latter are
    // forwarded, recording nested put spans that must merge cleanly).
    for (i, writer) in [&east, &west, &east, &west].iter().enumerate() {
        if let Err(e) = b.dep.put_from(writer, "k", Bytes::from(vec![i as u8; 128])) {
            return collect(b, err_diag("put", e));
        }
        quiesce(15);
    }
    quiesce(40);
    for reader in [&east, &west] {
        if let Err(e) = b.dep.get_from(reader, "k") {
            return collect(b, err_diag("get", e));
        }
    }
    collect(b, Vec::new())
}

fn run_multi_primaries() -> Vec<Diagnostic> {
    let b = match bench(
        "chk-mp",
        &[Region::UsEast, Region::EuWest],
        &[("US-East", true), ("EU-West", false)],
        bodies::MULTI_PRIMARIES,
        2000.0,
    ) {
        Ok(b) => b,
        Err(e) => return err_diag("launch", e),
    };
    let east = app(Region::UsEast, "app-e");
    let west = app(Region::EuWest, "app-w");
    for (i, writer) in [&east, &west, &west, &east].iter().enumerate() {
        if let Err(e) = b
            .dep
            .put_from(writer, "m", Bytes::from(vec![0x10 + i as u8; 96]))
        {
            return collect(b, err_diag("put", e));
        }
        quiesce(10);
    }
    quiesce(40);
    for reader in [&east, &west] {
        if let Err(e) = b.dep.get_from(reader, "m") {
            return collect(b, err_diag("get", e));
        }
    }
    collect(b, Vec::new())
}

fn run_batched_bulk_ops() -> Vec<Diagnostic> {
    let b = match bench(
        "chk-batch",
        &[Region::UsEast, Region::UsWest],
        &[("US-East", true), ("US-West", false)],
        bodies::PRIMARY_BACKUP_SYNC,
        2000.0,
    ) {
        Ok(b) => b,
        Err(e) => return err_diag("launch", e),
    };
    let east = wiera::WieraClient::builder(b.cluster.data_mesh.clone(), Region::UsEast, "app-e")
        .replicas(b.dep.replicas())
        .build();
    let west = wiera::WieraClient::builder(b.cluster.data_mesh.clone(), Region::UsWest, "app-w")
        .replicas(b.dep.replicas())
        .build();
    let keys: Vec<String> = (0..3).map(|i| format!("b{i}")).collect();
    // Round 1 from the primary side, round 2 from the backup side (one
    // forwarded batch); both record per-item mput spans the oracle must
    // merge and linearize.
    for (round, client) in [(0u8, &east), (1u8, &west)] {
        let items: Vec<(String, bytes::Bytes)> = keys
            .iter()
            .map(|k| (k.clone(), Bytes::from(vec![0x40 | round; 64])))
            .collect();
        match client.put_batch(&items) {
            Ok(results) => {
                for (key, r) in keys.iter().zip(results) {
                    if let Err(e) = r {
                        return collect(b, err_diag(&format!("batch put {key}"), e));
                    }
                }
            }
            Err(e) => return collect(b, err_diag("batch put", e)),
        }
        quiesce(20);
    }
    quiesce(40);
    // Read the batch back from both sides, with one key that was never
    // written: its per-item NotFound must not disturb the others.
    let mut read_keys = keys.clone();
    read_keys.push("b-missing".into());
    for client in [&east, &west] {
        match client.get_batch(&read_keys) {
            Ok(results) => {
                for (key, r) in read_keys.iter().zip(results) {
                    match r {
                        Ok(_) => {}
                        Err(e) if e.is_not_found() && key == "b-missing" => {}
                        Err(e) => {
                            return collect(b, err_diag(&format!("batch get {key}"), e));
                        }
                    }
                }
            }
            Err(e) => return collect(b, err_diag("batch get", e)),
        }
    }
    collect(b, Vec::new())
}

fn run_batched_eventual() -> Vec<Diagnostic> {
    let b = match bench(
        "chk-batch-ev",
        &[Region::UsEast, Region::EuWest],
        &[("US-East", true), ("EU-West", false)],
        bodies::EVENTUAL,
        2000.0,
    ) {
        Ok(b) => b,
        Err(e) => return err_diag("launch", e),
    };
    let east = wiera::WieraClient::builder(b.cluster.data_mesh.clone(), Region::UsEast, "app-e")
        .replicas(b.dep.replicas())
        .build();
    // Two batches of local writes to distinct keys: each flush interval must
    // drain the whole queue as one coalesced Replicate per peer, and
    // the LWW applies at the peer must converge.
    for round in 0..2u8 {
        let items: Vec<(String, bytes::Bytes)> = (0..4)
            .map(|i| {
                (
                    format!("ev{i}"),
                    Bytes::from(vec![(round << 4) | i as u8; 48]),
                )
            })
            .collect();
        match east.put_batch(&items) {
            Ok(results) => {
                if let Some(e) = results.into_iter().filter_map(Result::err).next() {
                    return collect(b, err_diag("batch put", e));
                }
            }
            Err(e) => return collect(b, err_diag("batch put", e)),
        }
        quiesce(40); // at least one coalesced flush between rounds
    }
    quiesce(80);
    let read_keys: Vec<String> = (0..4).map(|i| format!("ev{i}")).collect();
    for client_region in [Region::UsEast, Region::EuWest] {
        let reader =
            wiera::WieraClient::builder(b.cluster.data_mesh.clone(), client_region, "app-r")
                .replicas(b.dep.replicas())
                .build();
        match reader.get_batch(&read_keys) {
            Ok(results) => {
                if let Some(e) = results.into_iter().filter_map(Result::err).next() {
                    return collect(b, err_diag("batch get", e));
                }
            }
            Err(e) => return collect(b, err_diag("batch get", e)),
        }
    }
    collect(b, Vec::new())
}

fn run_pb_outage() -> Vec<Diagnostic> {
    let b = match bench(
        "chk-pb-outage",
        &[Region::UsEast, Region::AsiaEast],
        &[("US-East", true), ("Asia-East", false)],
        bodies::PRIMARY_BACKUP_SYNC,
        2000.0,
    ) {
        Ok(b) => b,
        Err(e) => return err_diag("launch", e),
    };
    let east = app(Region::UsEast, "app-e");
    let asia = app(Region::AsiaEast, "app-a");
    if let Err(e) = b.dep.put_from(&east, "o", Bytes::from(vec![1u8; 128])) {
        return collect(b, err_diag("put pre-outage", e));
    }
    quiesce(30);
    // Outage: cut the backup region off, read at the primary meanwhile.
    b.cluster.fabric.set_partitioned(Region::AsiaEast, true);
    quiesce(20);
    if let Err(e) = b.dep.get_from(&east, "o") {
        b.cluster.fabric.clear_all_dynamics();
        return collect(b, err_diag("get during outage", e));
    }
    // Heal, then write again and read everywhere.
    b.cluster.fabric.clear_all_dynamics();
    quiesce(30);
    if let Err(e) = b.dep.put_from(&east, "o", Bytes::from(vec![2u8; 128])) {
        return collect(b, err_diag("put post-heal", e));
    }
    quiesce(40);
    for reader in [&east, &asia] {
        if let Err(e) = b.dep.get_from(reader, "o") {
            return collect(b, err_diag("get post-heal", e));
        }
    }
    collect(b, Vec::new())
}

fn run_session_expiry() -> Vec<Diagnostic> {
    let b = match bench(
        "chk-expiry",
        &[Region::UsEast, Region::UsWest],
        &[("US-East", true), ("US-West", false)],
        bodies::MULTI_PRIMARIES,
        1000.0,
    ) {
        Ok(b) => b,
        Err(e) => return err_diag("launch", e),
    };
    let east = app(Region::UsEast, "app-e");
    let west = app(Region::UsWest, "app-w");
    if let Err(e) = b.dep.put_from(&east, "s", Bytes::from(vec![7u8; 64])) {
        return collect(b, err_diag("put", e));
    }

    // A side session takes an unrelated coordination lock and hangs; its
    // session must expire and the queued waiter must be promoted while the
    // data workload keeps running.
    let cfg = CoordConfig::default();
    let hung = match CoordClient::connect(
        b.cluster.coord_mesh.clone(),
        NodeId::new(Region::UsWest, "chk-hung"),
        b.cluster.coord.node.clone(),
        &cfg,
    ) {
        Ok(c) => c,
        Err(e) => return collect(b, err_diag("coord connect", e)),
    };
    let waiter = match CoordClient::connect(
        b.cluster.coord_mesh.clone(),
        NodeId::new(Region::UsEast, "chk-waiter"),
        b.cluster.coord.node.clone(),
        &cfg,
    ) {
        Ok(c) => c,
        Err(e) => return collect(b, err_diag("coord connect", e)),
    };
    let held = match hung.lock("/chk/expiry") {
        Ok((g, _)) => g,
        Err(e) => return collect(b, err_diag("coord lock", e)),
    };
    hung.pause_heartbeats();
    std::mem::forget(held); // the hung holder never releases
    let promoted = match waiter.lock("/chk/expiry") {
        Ok((g, _)) => g,
        Err(e) => return collect(b, err_diag("waiter lock", e)),
    };
    drop(promoted);

    // The data path must be unaffected by the coord-session churn.
    if let Err(e) = b.dep.put_from(&west, "s", Bytes::from(vec![8u8; 64])) {
        return collect(b, err_diag("put post-expiry", e));
    }
    quiesce(40);
    for reader in [&east, &west] {
        if let Err(e) = b.dep.get_from(reader, "s") {
            return collect(b, err_diag("get", e));
        }
    }
    collect(b, Vec::new())
}

fn run_overload_degraded_read() -> Vec<Diagnostic> {
    let b = match bench_with(
        "chk-overload",
        &[Region::UsEast, Region::EuWest],
        &[("US-East", true), ("EU-West", false)],
        bodies::EVENTUAL,
        2000.0,
        DeploymentConfig {
            overload: Some(wiera::OverloadSpec {
                target_delay_ms: 5.0,
                interval_ms: 0.0,
            }),
            ..Default::default()
        },
    ) {
        Ok(b) => b,
        Err(e) => return err_diag("launch", e),
    };
    let plain = wiera::WieraClient::builder(b.cluster.data_mesh.clone(), Region::UsEast, "app-p")
        .replicas(b.dep.replicas())
        .build();
    let consenting =
        wiera::WieraClient::builder(b.cluster.data_mesh.clone(), Region::UsEast, "app-d")
            .replicas(b.dep.replicas())
            .allow_degraded(true)
            .build();

    // Seed and let queued distribution reach EU.
    if let Err(e) = plain.put("ov", Bytes::from(vec![0x11; 64])) {
        return collect(b, err_diag("seed put", e));
    }
    quiesce(60);

    // Brown out the US-East replica's admission queue (white-box: a huge
    // standing backlog, patience already spent).
    let reps = b.cluster.deployment_replicas("chk-overload");
    let Some(east_rep) = reps
        .iter()
        .find(|r| r.node.region == Region::UsEast)
        .cloned()
    else {
        return collect(b, err_diag("setup", "no US-East replica"));
    };
    east_rep.force_backlog(SimDuration::from_secs(3600));

    let mut extra = Vec::new();
    // A plain client is shed at US-East and must be served by the healthy
    // EU replica — graceful routing, not an error.
    match plain.get("ov") {
        Ok(view) => {
            if view.served_by.region != Region::EuWest {
                extra.push(Diagnostic::deny(
                    Code::Wc013,
                    format!(
                        "shed client was served by {} instead of failing \
                         over to the healthy region",
                        view.served_by
                    ),
                ));
            }
            if view.degraded {
                extra.push(Diagnostic::deny(
                    Code::Wc010,
                    "non-consenting client received a degraded read",
                ));
            }
        }
        Err(e) => return collect(b, err_diag("shed failover get", e)),
    }
    // A consenting client gets a local answer despite the backlog — and
    // the reply must carry the explicit degraded marker.
    match consenting.get("ov") {
        Ok(view) => {
            if view.served_by.region != Region::UsEast {
                extra.push(Diagnostic::deny(
                    Code::Wc013,
                    format!(
                        "degraded-consenting get was served by {} instead \
                         of the overloaded local replica",
                        view.served_by
                    ),
                ));
            } else if !view.degraded {
                extra.push(Diagnostic::deny(
                    Code::Wc010,
                    "read served from an overloaded replica's local state \
                     without the degraded marker",
                ));
            }
        }
        Err(e) => return collect(b, err_diag("degraded get", e)),
    }

    // Heal the backlog; normal service resumes and the history must close
    // clean (the one degraded read is marked, everything else is fresh).
    east_rep.force_backlog(SimDuration::ZERO);
    if let Err(e) = plain.put("ov", Bytes::from(vec![0x22; 64])) {
        return collect(b, err_diag("post-heal put", e));
    }
    quiesce(60);
    for (region, name) in [(Region::UsEast, "app-p"), (Region::EuWest, "app-r")] {
        let reader = wiera::WieraClient::builder(b.cluster.data_mesh.clone(), region, name)
            .replicas(b.dep.replicas())
            .build();
        if let Err(e) = reader.get("ov") {
            return collect(b, err_diag("post-heal get", e));
        }
    }
    collect(b, extra)
}

// ---- fleet sharding --------------------------------------------------------

struct FleetBench {
    cluster: Cluster,
    fleet: Arc<wiera::fleet::WieraFleet>,
    model: Option<ConsistencyModel>,
}

/// Stand up a two-region cluster and a sharded fleet of `groups` sync
/// primary-backup deployments over it, tracer and lock registry reset.
/// PB-sync on purpose: every ack is synchronously replicated, so the
/// post-move digest comparison and the per-key linearizability check are
/// exact (an eventual-mode fleet would race its own queues).
fn fleet_bench(id: &str, groups: u32, time_scale: f64) -> Result<FleetBench, String> {
    Tracer::global().clear();
    LockRegistry::global().reset();
    let layout: &[(&str, bool)] = &[("US-East", true), ("US-West", false)];
    let mut coord_config = CoordConfig::default();
    let wall_floor = SimDuration::from_secs_f64((0.1 * time_scale).min(250.0));
    if coord_config.session_timeout < wall_floor {
        coord_config.session_timeout = wall_floor;
    }
    let cluster = Cluster::launch_full(
        &[Region::UsEast, Region::UsWest],
        time_scale,
        7,
        ControllerConfig::default(),
        coord_config,
    );
    cluster.register_policy_over(id, layout, bodies::PRIMARY_BACKUP_SYNC)?;
    let fleet = wiera::fleet::WieraFleet::launch(
        cluster.controller.clone(),
        cluster.data_mesh.clone(),
        id,
        wiera::fleet::FleetConfig::new(id)
            .with_groups(groups)
            .with_shards(16, 8),
    )?;
    let model = deduced_model_for(layout, bodies::PRIMARY_BACKUP_SYNC);
    Ok(FleetBench {
        cluster,
        fleet,
        model,
    })
}

fn fleet_collect(b: FleetBench, extra: Vec<Diagnostic>) -> Vec<Diagnostic> {
    b.fleet.stop_all();
    b.cluster.shutdown();
    quiesce(20);
    let mut diags = check_trace(Tracer::global(), b.model);
    diags.extend(registry_diagnostics(LockRegistry::global()));
    diags.extend(extra);
    diags
}

fn fleet_client(b: &FleetBench, region: Region, name: &str) -> Arc<wiera::WieraClient> {
    wiera::WieraClient::builder(b.cluster.data_mesh.clone(), region, name)
        .fleet(b.fleet.view())
        .max_attempts(40)
        .build()
}

fn run_fleet_sharded_routing() -> Vec<Diagnostic> {
    let b = match fleet_bench("chk-fleet", 2, 2000.0) {
        Ok(b) => b,
        Err(e) => return err_diag("launch", e),
    };
    let east = fleet_client(&b, Region::UsEast, "app-e");
    let west = fleet_client(&b, Region::UsWest, "app-w");
    let keys: Vec<String> = (0..8).map(|i| format!("f{i}")).collect();
    // Interleaved single-key writes from both regions: each key's history
    // lives entirely inside its owning group, and must linearize there.
    for round in 0..2u8 {
        for (i, key) in keys.iter().enumerate() {
            let client = if i % 2 == 0 { &east } else { &west };
            if let Err(e) = client.put(key, Bytes::from(vec![(round << 4) | i as u8; 64])) {
                return fleet_collect(b, err_diag("put", e));
            }
        }
        quiesce(15);
    }
    // One batch per side: split per owning group, fanned out concurrently.
    let items: Vec<(String, Bytes)> = keys
        .iter()
        .map(|k| (k.clone(), Bytes::from(vec![0xF0; 64])))
        .collect();
    match east.put_batch(&items) {
        Ok(results) => {
            if let Some(e) = results.into_iter().filter_map(Result::err).next() {
                return fleet_collect(b, err_diag("batch put", e));
            }
        }
        Err(e) => return fleet_collect(b, err_diag("batch put", e)),
    }
    quiesce(40);
    for client in [&east, &west] {
        match client.get_batch(&keys) {
            Ok(results) => {
                if let Some(e) = results.into_iter().filter_map(Result::err).next() {
                    return fleet_collect(b, err_diag("batch get", e));
                }
            }
            Err(e) => return fleet_collect(b, err_diag("batch get", e)),
        }
    }
    fleet_collect(b, Vec::new())
}

fn run_fleet_shard_move() -> Vec<Diagnostic> {
    let b = match fleet_bench("chk-move", 2, 2000.0) {
        Ok(b) => b,
        Err(e) => return err_diag("launch", e),
    };
    let client = fleet_client(&b, Region::UsEast, "app-m");
    // Keys all in one group-0 shard, so the move window covers them.
    let map = b.fleet.view().map();
    let shard = map.shards_of_group(0)[0];
    let keys: Vec<String> = (0..)
        .map(|i| format!("mv{i}"))
        .filter(|k| map.shard_of(k) == shard)
        .take(5)
        .collect();
    for key in &keys {
        if let Err(e) = client.put(key, Bytes::from(vec![0x01; 64])) {
            return fleet_collect(b, err_diag("seed put", e));
        }
    }

    // Chaos: a target-group backup is down for the whole handoff. The move
    // must still complete (the target primary carries the install) and the
    // restarted backup must converge through rejoin anti-entropy plus a
    // shard-view refresh.
    let target_reps = b.cluster.deployment_replicas("chk-move-g1");
    let Some(backup) = target_reps
        .iter()
        .find(|r| r.primary() != Some(r.node.clone()))
        .cloned()
    else {
        return fleet_collect(b, err_diag("setup", "target group has no backup"));
    };
    backup.crash();

    // Concurrent writers hammer the moving shard; every ack is recorded.
    // The move starts once the writer holds its first ack, so the handoff
    // window always has a write to check.
    let stop = std::sync::atomic::AtomicBool::new(false);
    let (first_ack, writing) = std::sync::mpsc::channel();
    let (acked, move_result) = std::thread::scope(|s| {
        let (stop, keys, client) = (&stop, &keys, &client);
        let writer = s.spawn(move || {
            let mut acked: Vec<(String, u64)> = Vec::new();
            let mut round = 0u8;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                for key in keys {
                    if let Ok(view) = client.put(key, Bytes::from(vec![round; 64])) {
                        acked.push((key.clone(), view.version));
                        let _ = first_ack.send(());
                    }
                }
                round = round.wrapping_add(1);
            }
            acked
        });
        // A writer that never gets an ack leaves the window unchecked (WC013).
        let _ = writing.recv_timeout(std::time::Duration::from_secs(30));
        let move_result = b.fleet.move_shard(shard, 1);
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        (writer.join().unwrap_or_default(), move_result)
    });
    if let Err(e) = move_result {
        return fleet_collect(b, err_diag("move_shard", e));
    }

    // Heal: restart the crashed backup, let rejoin anti-entropy pull the
    // moved objects, and re-push the current shard map slice.
    let mut extra = Vec::new();
    if let Err(e) = backup.restart() {
        extra.push(Diagnostic::note(
            Code::Wc013,
            format!("backup restart failed ({e}); heal incomplete"),
        ));
    }
    quiesce(60);
    for r in &target_reps {
        r.anti_entropy();
    }
    b.fleet.refresh_shard_views();
    quiesce(40);

    // Every acked write must be readable at an equal-or-newer version
    // through the re-routed client: a WrongShard window is retried, never
    // a lost ack.
    if acked.is_empty() {
        extra.push(Diagnostic::note(
            Code::Wc013,
            "no write was acked during the move; handoff window unchecked",
        ));
    }
    for (key, version) in &acked {
        match client.get(key) {
            Ok(view) if view.version >= *version => {}
            Ok(view) => extra.push(Diagnostic::deny(
                Code::Wc010,
                format!(
                    "acked write lost across shard move: {key} acked at \
                     v{version}, target serves v{}",
                    view.version
                ),
            )),
            Err(e) => extra.push(Diagnostic::deny(
                Code::Wc010,
                format!("acked key {key} unreadable after shard move: {e}"),
            )),
        }
    }

    // Post-heal digest equality across the target group (the moved shard's
    // new home), including the restarted backup.
    let tables: Vec<Vec<(String, u64, u64)>> = target_reps
        .iter()
        .map(|r| {
            let mut t: Vec<(String, u64, u64)> = r
                .digest_table()
                .into_iter()
                .map(|e| (e.key, e.version, e.digest))
                .collect();
            t.sort();
            t
        })
        .collect();
    if !tables.windows(2).all(|w| w[0] == w[1]) {
        extra.push(Diagnostic::deny(
            Code::Wc012,
            "target group digest mismatch after shard move + heal",
        ));
    }
    // And the source group retired the shard: no moved key lingers there.
    for r in b.cluster.deployment_replicas("chk-move-g0") {
        for e in r.digest_table() {
            if keys.contains(&e.key) {
                extra.push(Diagnostic::deny(
                    Code::Wc012,
                    format!("moved key {} not retired from source {}", e.key, r.node),
                ));
            }
        }
    }
    fleet_collect(b, extra)
}

// ---- adversarial -----------------------------------------------------------

fn run_adv_abba() -> Vec<Diagnostic> {
    // Scoped registry: the plant must not leak WC001 into corpus runs.
    let reg = LockRegistry::new();
    let a = Arc::new(TrackedMutex::new_in(&reg, "adv.lock-a", 0u32));
    let b = Arc::new(TrackedMutex::new_in(&reg, "adv.lock-b", 0u32));

    // Thread 1: a → b. Thread 2 (started only after 1 finished, so the
    // orders never interleave): b → a. A dynamic detector would see
    // nothing; the order graph still has the cycle.
    let (a1, b1) = (a.clone(), b.clone());
    let t1 = std::thread::spawn(move || {
        let ga = a1.lock();
        let gb = b1.lock();
        drop(gb);
        drop(ga);
    });
    let _ = t1.join();
    let t2 = std::thread::spawn(move || {
        let gb = b.lock();
        let ga = a.lock();
        drop(ga);
        drop(gb);
    });
    let _ = t2.join();

    registry_diagnostics(&reg)
}

fn run_adv_stale_read() -> Vec<Diagnostic> {
    // A synthetic history in the exact format the replicas record, checked
    // against the model deduced from the real sync primary-backup policy.
    let model = deduced_model_for(
        &[("US-East", true), ("US-West", false)],
        bodies::PRIMARY_BACKUP_SYNC,
    );
    let span = |t: u64, dur: u64, op: &str, node: &str, ver: u64, val: u64| TraceEvent {
        t_us: t,
        subsystem: "history".into(),
        op: op.into(),
        region: None,
        node: Some(node.into()),
        dur_us: Some(dur),
        detail: Some(format!("key=k ver={ver} val={val:016x}")),
    };
    let events = vec![
        span(0, 100_000, "put", "primary", 1, 0xaaaa),
        span(50_000, 1_000, "replicate_apply", "backup", 1, 0xaaaa),
        span(200_000, 100_000, "put", "primary", 2, 0xbbbb),
        // The v2 replicate never lands at the backup, and the backup then
        // serves v1 after v2's write completed: a stale read.
        span(400_000, 10_000, "get", "backup", 1, 0xaaaa),
    ];
    let (history, mut diags) = extract_history(&events);
    diags.extend(check_history(&history, model));
    diags
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adversarial_abba_is_detected() {
        let report = run_scenario("adv-abba-deadlock").unwrap();
        assert!(
            report.detected_all(&[Code::Wc001]),
            "planted ABBA not flagged: {:?}",
            report.diags
        );
    }

    #[test]
    fn adversarial_stale_read_is_detected() {
        let report = run_scenario("adv-stale-read-pb-sync").unwrap();
        assert!(
            report.detected_all(&[Code::Wc010]),
            "planted stale read not flagged: {:?}",
            report.diags
        );
        assert!(report
            .diags
            .iter()
            .any(|d| d.message.contains("stale read")));
    }

    #[test]
    fn scenario_names_are_unique_and_resolvable() {
        let mut names: Vec<&str> = all_scenarios().iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all_scenarios().len());
        assert!(run_scenario("no-such-scenario").is_none());
    }
}
