//! The four workloads: what each one builds, how it issues one client call,
//! and what must hold when it is done.

use crate::gen::{Inputs, KeyDist, Mix, Op, BATCH};
use bytes::Bytes;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tiera::{BatchOp, InstanceConfig, OpOutcome, TieraError, TieraInstance};
use wiera::replica::OpView;
use wiera::testkit::{bodies, Cluster};
use wiera::{DeploymentConfig, ReplicaNode, WieraClient, WieraDeployment, WieraError};
use wiera_net::Region;
use wiera_sim::ScaledClock;

/// Modeled seconds per wall second, for every clock the benchmark makes.
/// At 200 every replicated put carries 350 µs of pure sleep; from 20 000 up
/// the heartbeat and flush threads spin and triple the CPU per op.
pub const TIME_SCALE: f64 = 2000.0;

/// Keys read back through the workload's own API after the measured phase.
const READ_BACK_KEYS: usize = 1024;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    EngineFit,
    EngineSpill,
    PbsyncPut,
    EventualBatchMixed,
}

/// The constants of one workload.
pub struct Params {
    pub keys: usize,
    pub value_bytes: usize,
    pub dist: KeyDist,
    pub mix: Mix,
    /// Calls of the workload's own mix issued, after preload, before the
    /// measured phase. A fixed count, sized so set-up takes 3 to 4 s here.
    pub warmup_calls: usize,
}

impl Kind {
    const ALL: [Kind; 4] = [
        Kind::EngineFit,
        Kind::EngineSpill,
        Kind::PbsyncPut,
        Kind::EventualBatchMixed,
    ];

    /// The workload's name in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Kind::EngineFit => "engine_fit",
            Kind::EngineSpill => "engine_spill",
            Kind::PbsyncPut => "pbsync_put",
            Kind::EventualBatchMixed => "eventual_batch_mixed",
        }
    }

    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|kind| kind.name() == name)
    }

    pub fn params(self) -> Params {
        match self {
            Kind::EngineFit => Params {
                keys: 50_000,
                value_bytes: 256,
                dist: KeyDist::Uniform,
                mix: Mix::PutShare(0.4),
                warmup_calls: 16_500,
            },
            Kind::EngineSpill => Params {
                keys: 16_384,
                value_bytes: 256,
                dist: KeyDist::Zipf(0.99),
                mix: Mix::PutShare(0.2),
                warmup_calls: 600_000,
            },
            Kind::PbsyncPut => Params {
                keys: 20_000,
                value_bytes: 1024,
                dist: KeyDist::Uniform,
                mix: Mix::PutShare(1.0),
                warmup_calls: 8_000,
            },
            Kind::EventualBatchMixed => Params {
                keys: 50_000,
                value_bytes: 256,
                dist: KeyDist::Zipf(0.99),
                mix: Mix::PutGetGetBatches,
                warmup_calls: 2_600,
            },
        }
    }
}

impl Params {
    pub fn inputs(&self, seed: u64) -> Inputs {
        Inputs::generate(seed, self.keys, self.value_bytes, self.dist, self.mix)
    }
}

pub enum ClientBatch {
    Put(Vec<(String, Bytes)>),
    Get(Vec<String>),
}

/// The arguments of every batched call, built in set-up: the batch APIs take
/// owned keys, and the timed loop must not allocate them.
pub enum Calls {
    Single,
    Engine(Vec<Vec<BatchOp>>),
    Client(Vec<ClientBatch>),
}

impl Calls {
    pub fn build(kind: Kind, inputs: &Inputs) -> Calls {
        let key = |op: &Op| inputs.keys[op.key as usize].clone();
        let value = |op: &Op| inputs.pool[op.payload as usize].clone();
        match kind {
            Kind::EngineSpill | Kind::PbsyncPut => Calls::Single,
            Kind::EngineFit => Calls::Engine(
                inputs
                    .ring
                    .chunks(BATCH)
                    .map(|batch| {
                        batch
                            .iter()
                            .map(|op| match op.put {
                                true => BatchOp::Put {
                                    key: key(op),
                                    value: value(op),
                                },
                                false => BatchOp::Get { key: key(op) },
                            })
                            .collect()
                    })
                    .collect(),
            ),
            Kind::EventualBatchMixed => Calls::Client(
                inputs
                    .ring
                    .chunks(BATCH)
                    .map(|batch| match batch[0].put {
                        true => {
                            ClientBatch::Put(batch.iter().map(|op| (key(op), value(op))).collect())
                        }
                        false => ClientBatch::Get(batch.iter().map(key).collect()),
                    })
                    .collect(),
            ),
        }
    }
}

/// A launched two-region deployment with one client in US-East.
pub struct Stack {
    pub cluster: Cluster,
    pub dep: Arc<WieraDeployment>,
    pub client: Arc<WieraClient>,
    pub replicas: Vec<Arc<ReplicaNode>>,
}

impl Stack {
    /// `regions` lists (policy region name, is primary); the first is where
    /// the client sits.
    pub fn launch(
        id: &str,
        regions: &[(&str, bool)],
        body: &str,
        seed: u64,
    ) -> Result<Stack, String> {
        let cluster = Cluster::launch(&[Region::UsEast, Region::UsWest], TIME_SCALE, seed);
        let dep = deploy(&cluster, id, regions, body)?;
        let client = WieraClient::builder(cluster.data_mesh.clone(), Region::UsEast, "bench-app")
            .replicas(dep.replicas())
            .seed(seed)
            .build();
        let replicas = cluster.deployment_replicas(id);
        if replicas.len() != regions.len() {
            return Err(format!(
                "{id}: {} of {} replicas up",
                replicas.len(),
                regions.len()
            ));
        }
        Ok(Stack {
            cluster,
            dep,
            client,
            replicas,
        })
    }

    pub fn queue_len_max(&self) -> usize {
        self.replicas
            .iter()
            .map(|r| r.queue_len())
            .max()
            .unwrap_or(0)
    }

    /// Wait until no replica has updates queued; `None` after 10 s.
    pub fn drain(&self) -> Option<Duration> {
        let t0 = Instant::now();
        while self.queue_len_max() > 0 {
            if t0.elapsed() > Duration::from_secs(10) {
                return None;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Some(t0.elapsed())
    }

    /// True when every replica holds the same (key, version, digest) table.
    /// `modified` is left out: the primary stamps its own apply time, which
    /// differs from the stamp the broadcast carried by the modeled write
    /// latency.
    fn digests_equal(&self) -> bool {
        let content = |r: &ReplicaNode| -> Vec<(String, u64, u64)> {
            let table = r.digest_table().into_iter();
            table.map(|d| (d.key, d.version, d.digest)).collect()
        };
        let tables: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .replicas
                .iter()
                .map(|r| s.spawn(move || content(r)))
                .collect();
            handles.into_iter().map(|h| h.join().ok()).collect()
        });
        tables.iter().all(|t| t.is_some() && *t == tables[0])
    }
}

/// Register `body` over `regions` and start it with one version per key:
/// with unbounded versions the resident set grows ≈27 MB/s and a run never
/// reaches a steady state.
pub fn deploy(
    cluster: &Cluster,
    id: &str,
    regions: &[(&str, bool)],
    body: &str,
) -> Result<Arc<WieraDeployment>, String> {
    cluster.register_policy_over(id, regions, body)?;
    cluster.controller.start_instances(
        id,
        id,
        DeploymentConfig {
            max_versions: Some(1),
            ..DeploymentConfig::default()
        },
    )
}

pub enum System {
    Engine(Arc<TieraInstance>),
    Stack(Stack),
}

/// Counters read off the system under test; metrics are deltas of these.
#[derive(Default, Clone)]
pub struct Counters {
    pub evictions: u64,
    pub tier1_gets: u64,
    pub tier2_gets: u64,
    pub lock_counts: Vec<u64>,
    pub egress_bytes: u64,
    pub replication_failures: u64,
}

impl System {
    pub fn launch(kind: Kind, seed: u64) -> Result<System, String> {
        const US: [(&str, bool); 2] = [("US-East", true), ("US-West", false)];
        match kind {
            Kind::EngineFit => {
                let mut cfg = InstanceConfig::new("fit", Region::UsEast)
                    .with_tier("tier1", "LocalMemory", 8 << 30)
                    .with_max_versions(1);
                cfg.seed = seed;
                let inst = TieraInstance::build(cfg, ScaledClock::shared(TIME_SCALE))
                    .map_err(|e| e.to_string())?;
                Ok(System::Engine(inst))
            }
            Kind::EngineSpill => {
                let spec = wiera_policy::parse(wiera_policy::canned::PERSISTENT_INSTANCE)
                    .map_err(|e| e.to_string())?;
                let policy = wiera_policy::compile(&spec).map_err(|e| e.to_string())?;
                // Tier 1 holds 4096 of the 16 384 objects. It is kept that
                // small because an evicting put scans every slot of the tier.
                let mut cfg = InstanceConfig::new("spill", Region::UsEast)
                    .with_tier("tier1", "Memcached", 1 << 20)
                    .with_tier("tier2", "EBS", 8 << 30)
                    .with_tier("tier3", "S3", 0)
                    .with_rules(policy.rules)
                    .with_max_versions(1);
                cfg.seed = seed;
                let inst = TieraInstance::build(cfg, ScaledClock::shared(TIME_SCALE))
                    .map_err(|e| e.to_string())?;
                Ok(System::Engine(inst))
            }
            Kind::PbsyncPut => {
                Stack::launch("pbsync", &US, bodies::PRIMARY_BACKUP_SYNC, seed).map(System::Stack)
            }
            Kind::EventualBatchMixed => {
                Stack::launch("eventual", &US, bodies::EVENTUAL, seed).map(System::Stack)
            }
        }
    }

    pub fn shutdown(&self) {
        if let System::Stack(stack) = self {
            stack.dep.stop_all();
            stack.cluster.shutdown();
        }
    }

    pub fn counters(&self) -> Counters {
        match self {
            System::Engine(inst) => {
                let tier = |label: &str| {
                    inst.tier(label)
                        .and_then(|h| h.as_local())
                        .map(|t| t.stats.snapshot())
                };
                let tier1 = tier("tier1");
                Counters {
                    evictions: tier1.as_ref().map_or(0, |s| s.evictions),
                    tier1_gets: tier1.as_ref().map_or(0, |s| s.gets),
                    tier2_gets: tier("tier2").map_or(0, |s| s.gets),
                    lock_counts: inst.meta().write_lock_counts(),
                    ..Counters::default()
                }
            }
            System::Stack(stack) => Counters {
                egress_bytes: stack
                    .replicas
                    .iter()
                    .map(|r| r.stats.egress_bytes.load(Ordering::Relaxed))
                    .sum(),
                replication_failures: stack
                    .replicas
                    .iter()
                    .map(|r| r.stats.replication_failures.load(Ordering::Relaxed))
                    .sum(),
                ..Counters::default()
            },
        }
    }
}

/// 0..n cut into ranges of one batch each.
fn chunks(n: usize) -> impl Iterator<Item = std::ops::Range<usize>> {
    (0..n)
        .step_by(BATCH)
        .map(move |start| start..(start + BATCH).min(n))
}

/// (modeled µs, value read) of an op that succeeded.
type Settled<'r> = Option<(u64, Option<&'r Bytes>)>;

fn outcome(r: &Result<OpOutcome, TieraError>) -> Settled<'_> {
    let o = r.as_ref().ok()?;
    Some((o.latency.as_micros(), o.value.as_ref()))
}

fn view(r: &Result<OpView, WieraError>) -> Settled<'_> {
    let v = r.as_ref().ok()?;
    Some((v.latency.as_micros(), v.value.as_ref()))
}

/// What one client call did.
pub struct CallOut {
    pub start: Instant,
    pub end: Instant,
    /// Ops in the call, and how many of them were puts.
    pub ops: usize,
    pub puts: usize,
    /// Modeled latency of each op that succeeded, µs.
    pub modeled_us: [u64; BATCH],
    pub modeled_n: usize,
}

impl CallOut {
    pub fn new() -> Self {
        let now = Instant::now();
        CallOut {
            start: now,
            end: now,
            ops: 0,
            puts: 0,
            modeled_us: [0; BATCH],
            modeled_n: 0,
        }
    }
}

/// The closed-loop client: walks the op ring, issues calls, and checks
/// every value read against the payload it last wrote to that key.
pub struct Driver<'a> {
    kind: Kind,
    inputs: &'a Inputs,
    calls: &'a Calls,
    /// Next op of the ring.
    pos: usize,
    /// Payload each key holds, by pool index.
    last: Vec<u16>,
    pub attempted: u64,
    pub failed: u64,
}

impl<'a> Driver<'a> {
    pub fn new(kind: Kind, inputs: &'a Inputs, calls: &'a Calls) -> Self {
        Driver {
            kind,
            inputs,
            calls,
            pos: 0,
            last: vec![0; inputs.keys.len()],
            attempted: 0,
            failed: 0,
        }
    }

    /// Write every key once, in the workload's own call shape where that is
    /// fast enough: 20 000 single replicated puts alone would take 6 s, so
    /// the full-stack workloads preload through `put_batch`.
    pub fn preload(&mut self, system: &System) {
        let keys = &self.inputs.keys;
        let pool = &self.inputs.pool;
        for k in 0..keys.len() {
            self.last[k] = Inputs::preload_payload(k);
        }
        let value = |k: usize| pool[Inputs::preload_payload(k) as usize].clone();
        self.attempted += keys.len() as u64;
        let mut failed = 0;
        match (system, self.calls) {
            (System::Engine(inst), Calls::Engine(_)) => {
                for chunk in chunks(keys.len()) {
                    let ops: Vec<BatchOp> = chunk
                        .map(|k| BatchOp::Put {
                            key: keys[k].clone(),
                            value: value(k),
                        })
                        .collect();
                    let (results, _) = inst.apply_batch(&ops);
                    failed += results.iter().filter(|r| r.is_err()).count();
                }
            }
            (System::Engine(inst), _) => {
                failed += (0..keys.len())
                    .filter(|&k| inst.put(&keys[k], value(k)).is_err())
                    .count();
            }
            (System::Stack(stack), _) => {
                for chunk in (0..keys.len()).collect::<Vec<_>>().chunks(BATCH) {
                    let items: Vec<(String, Bytes)> =
                        chunk.iter().map(|&k| (keys[k].clone(), value(k))).collect();
                    match stack.client.put_batch(&items) {
                        Ok(results) => failed += results.iter().filter(|r| r.is_err()).count(),
                        Err(_) => failed += items.len(),
                    }
                }
            }
        }
        self.failed += failed as u64;
    }

    fn check_read(&mut self, key: usize, value: Option<&Bytes>) {
        let want = &self.inputs.pool[self.last[key] as usize];
        if value != Some(want) {
            self.failed += 1;
        }
    }

    /// Note one op's result: a failure, or its modeled latency plus either
    /// the new expectation (put) or the read-back check (get).
    fn settle(&mut self, op: &Op, result: Settled, out: &mut CallOut) {
        match result {
            None => self.failed += 1,
            Some((modeled_us, value)) => {
                out.modeled_us[out.modeled_n] = modeled_us;
                out.modeled_n += 1;
                if op.put {
                    self.last[op.key as usize] = op.payload;
                } else {
                    self.check_read(op.key as usize, value);
                }
            }
        }
    }

    /// Issue the next call of the ring. Only the call itself sits between
    /// `out.start` and `out.end`; checking happens after.
    pub fn call(&mut self, system: &System, out: &mut CallOut) {
        let inputs = self.inputs;
        out.modeled_n = 0;
        let first = &inputs.ring[self.pos];
        let key = &inputs.keys[first.key as usize];
        match (system, self.calls) {
            (System::Engine(inst), Calls::Engine(batches)) => {
                let ops = &inputs.ring[self.pos..self.pos + BATCH];
                let batch = &batches[self.pos / BATCH];
                out.start = Instant::now();
                let (results, _) = inst.apply_batch(batch);
                out.end = Instant::now();
                (out.ops, out.puts) = (BATCH, ops.iter().filter(|op| op.put).count());
                for (op, r) in ops.iter().zip(&results) {
                    self.settle(op, outcome(r), out);
                }
            }
            (System::Engine(inst), _) => {
                let value = first
                    .put
                    .then(|| inputs.pool[first.payload as usize].clone());
                out.start = Instant::now();
                let r = match value {
                    Some(v) => inst.put(key, v),
                    None => inst.get(key),
                };
                out.end = Instant::now();
                (out.ops, out.puts) = (1, usize::from(first.put));
                self.settle(first, outcome(&r), out);
            }
            (System::Stack(stack), Calls::Client(batches)) => {
                let ops = &inputs.ring[self.pos..self.pos + BATCH];
                let batch = &batches[self.pos / BATCH];
                out.start = Instant::now();
                let results = match batch {
                    ClientBatch::Put(items) => stack.client.put_batch(items),
                    ClientBatch::Get(keys) => stack.client.get_batch(keys),
                };
                out.end = Instant::now();
                (out.ops, out.puts) = (BATCH, ops.iter().filter(|op| op.put).count());
                match results {
                    Ok(results) => {
                        for (op, r) in ops.iter().zip(&results) {
                            self.settle(op, view(r), out);
                        }
                    }
                    Err(_) => self.failed += BATCH as u64,
                }
            }
            (System::Stack(stack), _) => {
                let value = first
                    .put
                    .then(|| inputs.pool[first.payload as usize].clone());
                out.start = Instant::now();
                let r = match value {
                    Some(v) => stack.client.put(key, v),
                    None => stack.client.get(key),
                };
                out.end = Instant::now();
                (out.ops, out.puts) = (1, usize::from(first.put));
                self.settle(first, view(&r), out);
            }
        }
        self.attempted += out.ops as u64;
        self.pos = (self.pos + out.ops) % inputs.ring.len();
    }

    /// Read a fixed sample of keys back through the workload's own API:
    /// the only value check a put-only workload gets.
    fn read_back(&mut self, system: &System) {
        let step = (self.inputs.keys.len() / READ_BACK_KEYS).max(1);
        let sample: Vec<usize> = (0..self.inputs.keys.len()).step_by(step).collect();
        self.attempted += sample.len() as u64;
        match system {
            System::Engine(inst) => {
                for &k in &sample {
                    match inst.get(&self.inputs.keys[k]) {
                        Ok(got) => self.check_read(k, got.value.as_ref()),
                        Err(_) => self.failed += 1,
                    }
                }
            }
            System::Stack(stack) => {
                for chunk in sample.chunks(BATCH) {
                    let keys: Vec<String> =
                        chunk.iter().map(|&k| self.inputs.keys[k].clone()).collect();
                    match stack.client.get_batch(&keys) {
                        Ok(results) => {
                            for (&k, r) in chunk.iter().zip(&results) {
                                match r {
                                    Ok(view) => self.check_read(k, view.value.as_ref()),
                                    Err(_) => self.failed += 1,
                                }
                            }
                        }
                        Err(_) => self.failed += chunk.len() as u64,
                    }
                }
            }
        }
    }

    /// Make the driver expect the wrong payload for `key`, so the next read
    /// of it must be reported as failed (the unit tests plant this).
    #[cfg(test)]
    pub fn plant_wrong_expectation(&mut self, key: usize) {
        self.last[key] = (self.last[key] + 1) % crate::gen::POOL as u16;
    }

    /// Checks after the measured phase. Every violation is reported on
    /// stderr and counted as one failed op. Returns how long the replicas'
    /// queues took to drain (full-stack workloads).
    pub fn finish(&mut self, system: &System) -> Option<Duration> {
        self.read_back(system);
        let mut violations: Vec<String> = Vec::new();
        let mut drained = None;
        match system {
            System::Engine(_) => {
                // Since launch: preload and warm-up count too.
                let evictions = system.counters().evictions;
                match self.kind {
                    Kind::EngineFit if evictions != 0 => {
                        violations.push(format!("{evictions} evictions on a working set that fits"))
                    }
                    Kind::EngineSpill if evictions == 0 => {
                        violations.push("no eviction on a working set 4x tier 1".into())
                    }
                    _ => {}
                }
            }
            System::Stack(stack) => {
                drained = stack.drain();
                if drained.is_none() {
                    violations.push(format!(
                        "replication queues still hold {} updates after 10 s",
                        stack.queue_len_max()
                    ));
                }
                // A batch that left the queue may still be on the wire.
                let settled = [10, 200, 1000].into_iter().any(|wait_ms| {
                    std::thread::sleep(Duration::from_millis(wait_ms));
                    stack.digests_equal()
                });
                if !settled {
                    violations.push("replica digest tables differ after the run".into());
                }
            }
        }
        for v in &violations {
            eprintln!("check failed: {v}");
        }
        self.attempted += violations.len() as u64;
        self.failed += violations.len() as u64;
        drained
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A few hundred calls of a workload on a cut-down key space.
    fn short_run(kind: Kind, keys: usize, plant: bool) -> (u64, u64) {
        let params = Params {
            keys,
            ..kind.params()
        };
        let inputs = params.inputs(11);
        let calls = Calls::build(kind, &inputs);
        let system = System::launch(kind, 11).expect("launch");
        let mut driver = Driver::new(kind, &inputs, &calls);
        driver.preload(&system);
        if plant {
            // The ring's first get, so the planted key is read before any
            // put to it can repair the expectation.
            let victim = inputs.ring.iter().find(|op| !op.put).expect("a get");
            driver.plant_wrong_expectation(victim.key as usize);
        }
        let mut out = CallOut::new();
        for _ in 0..300 {
            driver.call(&system, &mut out);
        }
        driver.finish(&system);
        system.shutdown();
        (driver.attempted, driver.failed)
    }

    #[test]
    fn engine_fit_reads_back_what_it_wrote() {
        let (attempted, failed) = short_run(Kind::EngineFit, 2048, false);
        assert!(attempted > 300 * BATCH as u64);
        assert_eq!(failed, 0);
    }

    #[test]
    fn planted_wrong_read_back_is_reported_as_failed() {
        let (_, failed) = short_run(Kind::EngineFit, 2048, true);
        assert!(failed >= 1);
        assert_ne!(crate::exit_code(false), 0);
    }

    #[test]
    fn engine_spill_evicts_and_still_reads_back() {
        let params = Kind::EngineSpill.params();
        assert_eq!(params.keys * params.value_bytes, 4 << 20);
        // 6000 keys overflow the 4096-object tier 1, so evictions happen.
        assert_eq!(short_run(Kind::EngineSpill, 6000, false).1, 0);
        // 2048 keys fit: the "must evict" check is the one failure.
        assert_eq!(short_run(Kind::EngineSpill, 2048, false).1, 1);
    }

    #[test]
    fn names_round_trip() {
        for w in &crate::spec::WORKLOADS {
            assert_eq!(Kind::from_name(w.name).map(Kind::name), Some(w.name));
        }
        assert!(Kind::from_name("nope").is_none());
    }
}
