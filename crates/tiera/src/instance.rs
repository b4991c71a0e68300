//! The Tiera instance: a policy-driven stack of storage tiers in one DC.
//!
//! The instance exposes Table 2's versioning API (put/get/getVersion/
//! getVersionList/update/remove/removeVersion) plus the replicated-update
//! entry point Wiera uses, and interprets compiled policy rules:
//!
//! * **insert rules** run synchronously on the put path (write-through
//!   copies are part of put latency, matching Fig. 1(b));
//! * **timer / tier-filled / cold-data rules** run as background maintenance
//!   (write-back flushes, capacity-triggered backups with bandwidth limits,
//!   cold-data migration) — driven by [`crate::engine::InstanceEngine`] or
//!   invoked directly by tests.
//!
//! All operations return their modeled latency; when `sleep_on_ops` is set
//! the calling thread also sleeps the scaled wall time so experiment
//! timelines stay aligned with modeled time.

use crate::metastore::{MetaShardGuard, MetaStore};
use crate::object::{storage_key, tiers_in, ObjectMeta, TierIdx, TierSet, VersionId, VersionMeta};
use crate::transform;
use bytes::Bytes;
use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use wiera_net::Region;
use wiera_policy::compile::{
    Action, CondValue, Condition, Env, EnvValue, EventKind, Rule, Selector, Target, TierLayout,
};
use wiera_sim::hash::ShortKey;
use wiera_sim::lockreg::TrackedMutex;
use wiera_sim::registry::{CounterHandle, OpSeries};
use wiera_sim::{
    Admit, BreakerConfig, BreakerState, CircuitBreaker, SharedClock, SimDuration, SimInstant,
};
use wiera_tiers::{SimTier, TierError, TierKind, TierSpec};

/// Metadata bookkeeping cost charged to every standalone data operation.
const META_OVERHEAD: SimDuration = SimDuration::from_micros(150);
/// Marginal metadata cost per item inside a batch: the batch pays
/// [`META_OVERHEAD`] once, then this per item.
const BATCH_ITEM_OVERHEAD: SimDuration = SimDuration::from_micros(10);

/// The ingest of a put no insert rule stores.
static DEFAULT_STORE: Action = Action::Store {
    what: Selector::InsertObject,
    to: Target::LocalInstance,
};

/// Where every put's bytes go, and what its version records: fixed by the
/// insert rules and the tiers, which never change, so worked out once.
#[derive(Default)]
struct PlacePlan {
    writes: Vec<TierIdx>,
    /// The tier a `store` chose: the version's location.
    location: TierIdx,
    /// The tiers `copy` actions wrote to.
    replicas: TierSet,
    dirty: bool,
    /// What the rules fail with once `writes` are made, if they do.
    error: Option<TieraError>,
    /// The final write's tier if it may take over a pruned version's slot.
    takes_over: Option<TierIdx>,
}

impl PlacePlan {
    /// Run the insert rules of event `insert.into`, a store into the first
    /// tier when none of them stored, then the write-through rules scoped to
    /// that tier (`insert.into == tier1`), whose stores move no location.
    fn of(rules: &[Rule], tiers: &[(String, TierHandle)]) -> PlacePlan {
        let into = |into: Option<&str>| {
            let event = EventKind::Insert {
                into: into.map(String::from),
            };
            let rules = rules.iter().filter(|r| r.event == event);
            rules.flat_map(|r| &r.actions).collect::<Vec<_>>()
        };
        let mut plan = PlacePlan::default();
        let outcome = (|| -> Result<(), TieraError> {
            let mut stored = None;
            for action in into(None) {
                stored = plan.add_action(tiers, action)?.or(stored);
            }
            plan.location = match stored {
                Some(tier) => tier,
                None => plan.add_action(tiers, &DEFAULT_STORE)?.unwrap_or_default(),
            };
            for action in into(Some(&tiers[usize::from(plan.location)].0)) {
                plan.add_action(tiers, action)?;
            }
            Ok(())
        })();
        plan.error = outcome.err();
        let last = plan.writes.last().copied().filter(|_| plan.error.is_none());
        plan.takes_over = last.filter(|&i| tiers[usize::from(i)].1.as_local().is_some());
        plan
    }

    /// Add one insert action's write to the plan. Returns the tier a
    /// `store` stores into.
    fn add_action(
        &mut self,
        tiers: &[(String, TierHandle)],
        action: &Action,
    ) -> Result<Option<TierIdx>, TieraError> {
        let (tier, stores) = match action {
            Action::SetAttr {
                path,
                value: CondValue::Bool(b),
            } if path.last().map(String::as_str) == Some("dirty") => {
                self.dirty = *b;
                return Ok(None);
            }
            Action::Store {
                what: Selector::InsertObject,
                to: Target::Tier(label),
            } => (tier_required(tiers, label)?, true),
            // `store(to:local_instance)`, the local leg of a global policy,
            // and the default ingest: the first tier.
            Action::Store {
                what: Selector::InsertObject,
                to: Target::LocalInstance,
            } => match tiers.is_empty() {
                true => return Err(TieraError::NoSuchTier("tier1".to_string())),
                false => (0, true),
            },
            Action::Copy {
                what: Selector::InsertObject,
                to: Target::Tier(label),
                ..
            } => (tier_required(tiers, label)?, false),
            // Global actions (lock/copy-to-regions/forward/queue/...) are
            // the Wiera layer's responsibility; the local engine ignores
            // them.
            _ => return Ok(None),
        };
        self.writes.push(tier);
        if !stores {
            self.replicas |= 1 << tier;
        }
        Ok(stores.then_some(tier))
    }
}

/// The index of the tier labeled `label` in `tiers`, or `NoSuchTier`.
fn tier_required(tiers: &[(String, TierHandle)], label: &str) -> Result<TierIdx, TieraError> {
    let i = tiers.iter().position(|(l, _)| l == label);
    i.map(|i| i as TierIdx)
        .ok_or_else(|| TieraError::NoSuchTier(label.to_string()))
}

/// Errors surfaced by instance operations.
#[derive(Debug, Clone, PartialEq)]
pub enum TieraError {
    NotFound(String),
    VersionNotFound(String, VersionId),
    Tier(TierError),
    NoSuchTier(String),
    ReadOnlyTier(String),
    Corrupt(String),
    /// The thread-scoped op budget (see [`crate::deadline`]) ran out before
    /// the operation started; no work was done.
    DeadlineExceeded,
}

impl std::fmt::Display for TieraError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TieraError::NotFound(k) => write!(f, "object '{k}' not found"),
            TieraError::VersionNotFound(k, v) => write!(f, "'{k}' has no version {v}"),
            TieraError::Tier(e) => write!(f, "tier error: {e}"),
            TieraError::NoSuchTier(t) => write!(f, "no tier labeled '{t}'"),
            TieraError::ReadOnlyTier(t) => write!(f, "tier '{t}' is read-only"),
            TieraError::Corrupt(w) => write!(f, "corrupt object data: {w}"),
            TieraError::DeadlineExceeded => write!(f, "op budget spent before the operation ran"),
        }
    }
}

impl std::error::Error for TieraError {}

impl From<TierError> for TieraError {
    fn from(e: TierError) -> Self {
        TieraError::Tier(e)
    }
}

/// Result of a data operation: the value (for reads), the version touched
/// with its modified-time, and the modeled latency of the whole operation.
#[derive(Debug, Clone)]
pub struct OpOutcome {
    pub value: Option<Bytes>,
    pub version: VersionId,
    /// The version's modified-time, read under the shard guard that served
    /// the op: a concurrent put pruning the version cannot blank it.
    pub modified: SimInstant,
    pub latency: SimDuration,
}

/// One item of a bulk batch submitted through [`TieraInstance::apply_batch`].
#[derive(Debug, Clone)]
pub enum BatchOp {
    Put { key: String, value: Bytes },
    Get { key: String },
}

/// One update replicated from another instance, as
/// [`TieraInstance::apply_replicated`] takes it.
#[derive(Debug, Clone, Copy)]
pub struct Replicated<'a> {
    pub key: &'a str,
    pub version: VersionId,
    pub modified: SimInstant,
    pub value: &'a Bytes,
}

/// One item of an engine pass: an application op or a replicated update.
#[derive(Clone, Copy)]
enum PassItem<'a> {
    Op(&'a BatchOp),
    Replicated(Replicated<'a>),
}

/// A storage tier slot inside an instance: a simulated cloud service, or —
/// for §3.2.2's modular instances — another whole Tiera instance mounted as
/// a (typically read-only) tier. Tier ops run under the caller's metastore
/// shard guard, so neither kind sleeps or touches a channel: a mounted
/// instance is entered through its non-sleeping `*_unslept` entries and its
/// modeled latency is slept once, by the outermost caller. Each op passes
/// the time it read the clock at; a mounted instance reads its own. An op
/// names one version of one key; a mounted instance stores it under the
/// key [`storage_key`] formats, and never takes over a pruned version's slot.
#[derive(Clone)]
pub enum TierHandle {
    Local(Arc<SimTier>),
    Instance {
        inst: Arc<TieraInstance>,
        read_only: bool,
    },
}

impl TierHandle {
    fn put(
        &self,
        key: &str,
        version: VersionId,
        val: Bytes,
        now: SimInstant,
        replaces: Option<VersionId>,
    ) -> Result<SimDuration, TieraError> {
        match self {
            TierHandle::Local(t) => Ok(t.put_at(key, version, val, now, replaces)?),
            TierHandle::Instance { inst, read_only } => {
                if *read_only {
                    return Err(TieraError::ReadOnlyTier(inst.name().to_string()));
                }
                Ok(inst
                    .put_unslept(&storage_key(key, version), val, &[])?
                    .latency)
            }
        }
    }

    fn get(
        &self,
        key: &str,
        version: VersionId,
        now: SimInstant,
    ) -> Result<(Bytes, SimDuration), TieraError> {
        match self {
            TierHandle::Local(t) => Ok(t.get_at(key, version, now)?),
            TierHandle::Instance { inst, .. } => {
                let out = inst.get_unslept(&storage_key(key, version))?;
                Ok((out.value.ok_or_else(|| no_bytes(key))?, out.latency))
            }
        }
    }

    fn delete(&self, key: &str, version: VersionId, now: SimInstant) -> Result<(), TieraError> {
        match self {
            TierHandle::Local(t) => Ok(t.delete_at(key, version, now)?),
            TierHandle::Instance { inst, read_only } => {
                if *read_only {
                    return Err(TieraError::ReadOnlyTier(inst.name().to_string()));
                }
                inst.remove(&storage_key(key, version))
            }
        }
    }

    /// Median access latency, for choosing the fastest holder on reads.
    fn typical_get_ms(&self) -> f64 {
        match self {
            TierHandle::Local(t) => t.spec().get_latency.typical_ms(),
            TierHandle::Instance { inst, .. } => inst
                .tiers
                .first()
                .map(|(_, h)| h.typical_get_ms())
                .unwrap_or(1.0),
        }
    }

    pub fn as_local(&self) -> Option<&Arc<SimTier>> {
        match self {
            TierHandle::Local(t) => Some(t),
            _ => None,
        }
    }
}

/// Construction parameters for an instance.
#[derive(Clone)]
pub struct InstanceConfig {
    pub name: String,
    pub region: Region,
    /// Tier stack, in policy order (tier1 first).
    pub tiers: Vec<TierLayout>,
    /// Compiled local rules (insert / timer / filled / cold).
    pub rules: Vec<Rule>,
    /// Keep at most this many versions per key (older ones are GCed).
    pub max_versions: Option<usize>,
    /// Sleep the scaled wall time of each operation on the calling thread.
    pub sleep_on_ops: bool,
    /// Sleep bandwidth-limited background transfers (engine threads only).
    pub sleep_background: bool,
    /// Key for the `encrypt` response.
    pub encryption_key: u64,
    pub seed: u64,
}

impl InstanceConfig {
    pub fn new(name: impl Into<String>, region: Region) -> Self {
        InstanceConfig {
            name: name.into(),
            region,
            tiers: Vec::new(),
            rules: Vec::new(),
            max_versions: None,
            sleep_on_ops: false,
            sleep_background: false,
            encryption_key: 0x77_1E_2A_5D,
            seed: 42,
        }
    }

    pub fn with_tier(mut self, label: &str, kind: &str, size_bytes: u64) -> Self {
        self.tiers.push(TierLayout {
            label: label.to_string(),
            kind_name: kind.to_string(),
            size_bytes,
        });
        self
    }

    pub fn with_rules(mut self, rules: Vec<Rule>) -> Self {
        self.rules = rules;
        self
    }

    pub fn with_sleep(mut self, ops: bool, background: bool) -> Self {
        self.sleep_on_ops = ops;
        self.sleep_background = background;
        self
    }

    pub fn with_max_versions(mut self, n: usize) -> Self {
        self.max_versions = Some(n);
        self
    }
}

/// Operation counters (the request statistics Wiera's monitors read).
#[derive(Debug, Default)]
pub struct InstanceStats {
    /// Puts received directly from applications.
    pub app_puts: AtomicU64,
    /// Gets received directly from applications.
    pub app_gets: AtomicU64,
    /// Updates applied on behalf of other instances (replication).
    pub replicated_updates: AtomicU64,
    /// Requests forwarded to this instance by others (primary role).
    pub forwarded_in: AtomicU64,
}

/// A tier's circuit breaker, with the `tiera_tier_deferrals` counter of the
/// reads it deprioritized, resolved on the first.
struct TierBreaker {
    breaker: CircuitBreaker,
    deferrals: OnceLock<Arc<CounterHandle>>,
}

/// The instance-level ops `tiera_ops_total` / `tiera_op_latency` count, in
/// the order of [`TieraInstance::series`] and of their labels in `note_op`.
#[derive(Clone, Copy)]
enum InstanceOp {
    Put,
    Get,
    Batch,
    Update,
    Remove,
}

/// The instance. Thread-safe; share via `Arc`.
pub struct TieraInstance {
    config: InstanceConfig,
    clock: SharedClock,
    tiers: Vec<(String, TierHandle)>,
    plan: PlacePlan,
    /// Each tier's place in a read's fastest-first holder order: the rank
    /// of its typical get latency (equal latencies share one), then of its
    /// label among the tiers ordered by both.
    read_rank: Vec<(usize, usize)>,
    meta: MetaStore,
    /// Edge-trigger memory for tier-filled rules (rule index → armed).
    filled_armed: TrackedMutex<HashMap<usize, bool>>,
    /// One circuit breaker per tier, keyed in tier order. The read path
    /// feeds every tier access into its breaker and *deprioritizes* (never
    /// rejects) holders whose breaker is not closed — a browned-out tier
    /// may be the only holder of a version.
    tier_breakers: Vec<TierBreaker>,
    /// Tiers that may hold bytes no metadata names, for good: one a read's
    /// heal dropped while down (a durable tier keeps its copy) or a delete
    /// found down. A version dropped from the metadata is deleted there too.
    strays: AtomicU64,
    pub stats: InstanceStats,
    /// Each op's registry series, resolved on its first record.
    series: [OnceLock<OpSeries>; 5],
}

impl TieraInstance {
    /// Build an instance, materializing each tier layout as a simulated
    /// cloud service. Unsized tiers (`size_bytes == 0`) are provider-managed
    /// (effectively unbounded, like S3).
    pub fn build(config: InstanceConfig, clock: SharedClock) -> Result<Arc<Self>, TieraError> {
        let mut tiers = Vec::new();
        for layout in &config.tiers {
            let kind: TierKind = layout
                .kind_name
                .parse()
                .map_err(|_| TieraError::NoSuchTier(layout.kind_name.clone()))?;
            let capacity = if layout.size_bytes == 0 {
                u64::MAX
            } else {
                layout.size_bytes
            };
            let seed =
                wiera_sim::derive_seed(config.seed, &format!("{}:{}", config.name, layout.label));
            let tier = SimTier::new(TierSpec::of(kind), capacity, clock.clone(), seed);
            tiers.push((layout.label.clone(), TierHandle::Local(tier)));
        }
        Ok(Self::assemble(config, clock, tiers))
    }

    /// An instance over `tiers`. Each tier gets a breaker whose latency
    /// threshold is relative to the tier's own typical get latency (with a
    /// small floor), so a memory tier and an archival tier each trip only
    /// on *their* kind of brownout; healthy jitter never reaches 20x the
    /// median EWMA-smoothed. The metastore names tiers by label in its
    /// image, by index everywhere else.
    fn assemble(
        config: InstanceConfig,
        clock: SharedClock,
        tiers: Vec<(String, TierHandle)>,
    ) -> Arc<Self> {
        // The data path passes sets of tiers as `TierSet` bits.
        assert!(tiers.len() <= TierSet::BITS as usize, "over 64 tiers");
        let typical = |i: usize| tiers[i].1.typical_get_ms();
        let tier_breakers = (0..tiers.len())
            .map(|i| {
                let threshold = SimDuration::from_millis_f64((typical(i) * 20.0).max(2.0));
                let cfg = BreakerConfig {
                    latency_threshold: Some(threshold),
                    ..BreakerConfig::default()
                };
                TierBreaker {
                    breaker: CircuitBreaker::new(format!("{}:{}", config.name, tiers[i].0), cfg),
                    deferrals: OnceLock::new(),
                }
            })
            .collect();
        let mut order: Vec<usize> = (0..tiers.len()).collect();
        order.sort_by(|&a, &b| {
            typical(a)
                .total_cmp(&typical(b))
                .then_with(|| tiers[a].0.cmp(&tiers[b].0))
        });
        let read_rank = (0..tiers.len())
            .map(|i| {
                let first_as_fast = order.iter().position(|&j| typical(j) == typical(i));
                let pos = order.iter().position(|&j| j == i);
                (first_as_fast.unwrap_or(0), pos.unwrap_or(0))
            })
            .collect();
        let labels = tiers.iter().map(|(l, _)| l.clone()).collect();
        let meta = MetaStore::for_tiers(labels, Self::mount_depth(&tiers));
        let plan = PlacePlan::of(&config.rules, &tiers);
        Arc::new(TieraInstance {
            config,
            clock,
            tiers,
            plan,
            read_rank,
            meta,
            filled_armed: TrackedMutex::new("inst.filled_armed", HashMap::new()),
            tier_breakers,
            strays: AtomicU64::new(0),
            stats: InstanceStats::default(),
            series: Default::default(),
        })
    }

    /// Mount another instance as an additional tier (§3.2.2 modular
    /// instances), typically read-only.
    pub fn mount_instance(
        self: &Arc<Self>,
        label: &str,
        inst: Arc<TieraInstance>,
        read_only: bool,
    ) -> Arc<Self> {
        // Instances are immutable after build, so the mounting instance is
        // a new one over the same (Arc'd) tiers plus the child. The child
        // already exists and can never mount its parent: mounts form a DAG,
        // which the metastore's depth-carrying lock class records.
        let mut tiers = self.tiers.clone();
        tiers.push((label.to_string(), TierHandle::Instance { inst, read_only }));
        Self::assemble(self.config.clone(), self.clock.clone(), tiers)
    }

    /// Mount levels between a tier stack's owner and its deepest leaf
    /// instance: 0 without a mounted-instance tier, else one more than the
    /// deepest child.
    fn mount_depth(tiers: &[(String, TierHandle)]) -> usize {
        tiers
            .iter()
            .filter_map(|(_, h)| match h {
                TierHandle::Instance { inst, .. } => Some(Self::mount_depth(&inst.tiers) + 1),
                TierHandle::Local(_) => None,
            })
            .max()
            .unwrap_or(0)
    }

    pub fn name(&self) -> &str {
        &self.config.name
    }

    pub fn region(&self) -> Region {
        self.config.region
    }

    pub fn clock(&self) -> &SharedClock {
        &self.clock
    }

    pub fn rules(&self) -> &[Rule] {
        &self.config.rules
    }

    pub fn meta(&self) -> &MetaStore {
        &self.meta
    }

    pub fn tier(&self, label: &str) -> Option<&TierHandle> {
        self.tier_index(label).map(|i| self.tier_at(i))
    }

    /// Position of the tier labeled `label` in the tier list; its breaker
    /// sits at the same position of `tier_breakers`.
    fn tier_index(&self, label: &str) -> Option<TierIdx> {
        let i = self.tiers.iter().position(|(l, _)| l == label)?;
        Some(i as TierIdx)
    }

    /// The tier at index `i` (a version's metadata names only this
    /// instance's tiers: only a write to a tier records it, and the tier
    /// list never changes).
    fn tier_at(&self, i: TierIdx) -> &TierHandle {
        &self.tiers[usize::from(i)].1
    }

    /// The label of the tier at index `i`.
    fn tier_label(&self, i: TierIdx) -> &str {
        &self.tiers[usize::from(i)].0
    }

    /// The label of the tier holding the authoritative copy of `key`'s
    /// latest version.
    pub fn location_of(&self, key: &str) -> Option<&str> {
        let location = self.meta.with(key, |o| Some(o.latest()?.location))??;
        Some(self.tier_label(location))
    }

    /// Every tier that may hold a version's bytes: holders and strays.
    fn copies(&self, m: &VersionMeta) -> TierSet {
        m.holders() | self.strays.load(Ordering::Relaxed)
    }

    /// The circuit breaker guarding one tier.
    pub fn tier_breaker(&self, label: &str) -> Option<&CircuitBreaker> {
        self.tier_index(label)
            .map(|i| &self.tier_breakers[usize::from(i)].breaker)
    }

    /// True while any tier's breaker is not closed — the instance-level
    /// brownout signal Wiera's replica health reporting reads.
    pub fn browned_out(&self) -> bool {
        self.tier_breakers
            .iter()
            .any(|t| t.breaker.state() != BreakerState::Closed)
    }

    /// Fail fast when the thread-scoped op budget is spent at `now`.
    fn check_deadline(&self, now: SimInstant) -> Result<(), TieraError> {
        if crate::deadline::expired(now) {
            wiera_sim::MetricsRegistry::global().inc(
                "tiera_deadline_exceeded",
                &[("instance", self.config.name.as_str())],
            );
            return Err(TieraError::DeadlineExceeded);
        }
        Ok(())
    }

    fn maybe_sleep(&self, d: SimDuration) {
        if self.config.sleep_on_ops {
            self.clock.sleep(d);
        }
    }

    // ---- Table 2 API -------------------------------------------------------

    /// Store a new version of `key` (PUT). Runs the insert rules; the
    /// returned latency covers every synchronous step they specify.
    pub fn put(&self, key: &str, value: Bytes) -> Result<OpOutcome, TieraError> {
        self.put_tagged(key, value, &[])
    }

    /// PUT with object-class tags (§2.2).
    pub fn put_tagged(
        &self,
        key: &str,
        value: Bytes,
        tags: &[&str],
    ) -> Result<OpOutcome, TieraError> {
        let outcome = self.put_unslept(key, value, tags)?;
        self.maybe_sleep(outcome.latency);
        Ok(outcome)
    }

    /// PUT without the trailing sleep: the entry a mounting instance uses
    /// while it holds its own shard guard.
    fn put_unslept(&self, key: &str, value: Bytes, tags: &[&str]) -> Result<OpOutcome, TieraError> {
        let now = self.clock.now();
        self.check_deadline(now)?;
        self.stats.app_puts.fetch_add(1, Ordering::Relaxed);
        let mut map = self.meta.shard_write(self.meta.shard_of(key));
        // ws-audit: allow(WS103): tier hops under the guard never sleep or touch a channel
        let outcome = self.ingest_locked(&mut map, key, value, tags, None, META_OVERHEAD, now);
        drop(map);
        let outcome = outcome?;
        self.note_op(InstanceOp::Put, outcome.latency);
        Ok(outcome)
    }

    /// Execute a bulk batch in one engine pass. The per-operation metadata
    /// overhead is paid **once for the whole batch** (plus a small per-item
    /// charge) instead of once per item, and the calling thread sleeps the
    /// batch's total modeled latency once rather than per item. Items are
    /// independent: one item's failure does not affect the others. Returns
    /// per-item outcomes in request order plus the batch's total latency.
    ///
    /// Items are grouped by metastore shard and each shard's lock is taken
    /// **once per batch** (see [`MetaStore::shard_write`]).
    #[allow(clippy::type_complexity)]
    pub fn apply_batch(
        &self,
        ops: &[BatchOp],
    ) -> (Vec<Result<OpOutcome, TieraError>>, SimDuration) {
        // The budget gates the whole batch: items admitted together run
        // together (checking per item would tear a half-expired batch).
        if let Err(e) = self.check_deadline(self.clock.now()) {
            return (ops.iter().map(|_| Err(e.clone())).collect(), META_OVERHEAD);
        }
        // An op always has an outcome.
        let pass = self.engine_pass(ops.len(), |i| PassItem::Op(&ops[i]));
        let mut results = Vec::with_capacity(ops.len());
        results.extend(pass.into_iter().flatten());
        let total = META_OVERHEAD + results.iter().flatten().map(|o| o.latency).sum();
        self.note_op(InstanceOp::Batch, total);
        self.maybe_sleep(total);
        (results, total)
    }

    /// Record one instance-level op into the global metrics registry.
    fn note_op(&self, op: InstanceOp, latency: SimDuration) {
        let series = self.series[op as usize].get_or_init(|| {
            let op = ["put", "get", "batch", "update", "remove"][op as usize];
            let labels = [("instance", self.config.name.as_str()), ("op", op)];
            let metrics = wiera_sim::MetricsRegistry::global();
            OpSeries {
                total: metrics.counter("tiera_ops_total", &labels),
                latency: metrics.histogram("tiera_op_latency", &labels),
            }
        });
        series.record(1, latency);
    }

    /// Apply updates replicated from another instance (§4.2) in one engine
    /// pass, like [`TieraInstance::apply_batch`]: last-write-wins on
    /// (version, modified-time), item by item. Returns each item's outcome
    /// in order, `Ok(None)` for an update that loses and is discarded.
    pub fn apply_replicated(
        &self,
        updates: &[Replicated<'_>],
    ) -> Vec<Result<Option<OpOutcome>, TieraError>> {
        let pass = self.engine_pass(updates.len(), |i| PassItem::Replicated(updates[i]));
        pass.into_iter().map(Option::transpose).collect()
    }

    /// Run the items `item(0..n)` in one engine pass: one sort groups them
    /// by metastore shard (one key's items keep their order), each shard's
    /// lock is taken once, and the pass reads the clock once, so its items
    /// share their created, modified and last-access stamp. Returns
    /// per-item outcomes in order; `None` is a replicated update that lost.
    fn engine_pass<'a>(
        &self,
        n: usize,
        item: impl Fn(usize) -> PassItem<'a>,
    ) -> Vec<Option<Result<OpOutcome, TieraError>>> {
        let key = |i| match item(i) {
            PassItem::Op(BatchOp::Put { key, .. } | BatchOp::Get { key }) => key.as_str(),
            PassItem::Replicated(u) => u.key,
        };
        let mut order: Vec<_> = (0..n).map(|i| (self.meta.shard_of(key(i)), i)).collect();
        order.sort_unstable();
        let mut results: Vec<_> = (0..n).map(|_| None).collect();
        let now = self.clock.now();
        for group in order.chunk_by(|a, b| a.0 == b.0) {
            let mut map = self.meta.shard_write(group[0].0);
            for &(_, i) in group {
                let (key, value, forced, overhead) = match item(i) {
                    PassItem::Op(BatchOp::Get { key }) => {
                        self.stats.app_gets.fetch_add(1, Ordering::Relaxed);
                        let found = map.get_mut(key.as_str());
                        let found = found.and_then(|o| Some((o.latest_version()?, o)));
                        results[i] = Some(match found {
                            Some((v, obj)) => self.read_version_locked(key, v, obj, now),
                            None => Err(TieraError::NotFound(key.clone())),
                        });
                        continue;
                    }
                    PassItem::Op(BatchOp::Put { key, value }) => {
                        self.stats.app_puts.fetch_add(1, Ordering::Relaxed);
                        (key.as_str(), value, None, BATCH_ITEM_OVERHEAD)
                    }
                    PassItem::Replicated(u) => {
                        // The last-write-wins test and the write it guards
                        // share one lock hold, so two racing updates cannot
                        // both pass it.
                        if map
                            .get(u.key)
                            .is_some_and(|o| !o.accepts_update(u.version, u.modified))
                        {
                            continue;
                        }
                        self.stats
                            .replicated_updates
                            .fetch_add(1, Ordering::Relaxed);
                        (u.key, u.value, Some((u.version, u.modified)), META_OVERHEAD)
                    }
                };
                // Tier hops under the shard guard only model latency: they
                // never sleep or touch a channel, mounted instance or not
                // (see `TierHandle`); the blocking candidates are widening
                // artifacts of `.put`.
                // ws-audit: allow(WS103): tier hops under the guard never sleep or touch a channel
                results[i] = Some(self.ingest_locked(
                    &mut map,
                    key,
                    value.clone(),
                    &[],
                    forced,
                    overhead,
                    now,
                ));
            }
        }
        results
    }

    /// Simulate a node crash (§4.4): volatile local tiers lose their
    /// contents, durable tiers survive. Per-version metadata is pruned to
    /// match — versions whose only holders were volatile tiers vanish,
    /// versions with a surviving durable copy are re-pointed at it. Returns
    /// how many versions were lost outright.
    pub fn crash_volatile(&self) -> usize {
        let mut wiped: TierSet = 0;
        for (i, (_, handle)) in self.tiers.iter().enumerate() {
            if let Some(t) = handle.as_local().filter(|t| t.spec().kind.volatile()) {
                t.wipe();
                wiped |= 1 << i;
            }
        }
        if wiped == 0 {
            return 0;
        }
        let mut lost = 0usize;
        for key in self.meta.keys() {
            let emptied = self.meta.with_mut(&key, |o| {
                o.versions.retain_mut(|m| {
                    m.replicas &= !wiped;
                    if wiped >> m.location & 1 == 1 {
                        // The first surviving copy, in tier order, takes over.
                        let Some(surviving) = tiers_in(m.replicas).next() else {
                            lost += 1;
                            return false;
                        };
                        m.replicas &= !(1 << surviving);
                        m.location = surviving;
                    }
                    true
                });
                o.versions.is_empty()
            });
            if emptied {
                self.meta.remove(&key);
            }
        }
        lost
    }

    /// Delete version `version` of `key` from the tiers in `set`; one that
    /// is down becomes a stray.
    fn delete_from(&self, set: TierSet, key: &str, version: VersionId, now: SimInstant) {
        for i in tiers_in(set) {
            if let Err(TieraError::Tier(TierError::Down)) =
                self.tier_at(i).delete(key, version, now)
            {
                self.strays.fetch_or(1 << i, Ordering::Relaxed);
            }
        }
    }

    /// Ingest one put — local, batched or replicated — into an already-locked
    /// metastore shard: the version is allocated and recorded under the same
    /// lock hold, so concurrent puts to one key never share a version.
    /// `forced` is a replicated update's `(version, modified-time)`;
    /// `overhead` the metadata bookkeeping charge (the full
    /// [`META_OVERHEAD`] for a standalone op, the marginal
    /// [`BATCH_ITEM_OVERHEAD`] inside a batch); `now` the time the op read
    /// the clock at. The versions it prunes are deleted from their tiers
    /// in the same lock hold.
    #[allow(clippy::too_many_arguments)]
    fn ingest_locked(
        &self,
        map: &mut MetaShardGuard<'_>,
        key: &str,
        value: Bytes,
        tags: &[&str],
        forced: Option<(VersionId, SimInstant)>,
        overhead: SimDuration,
        now: SimInstant,
    ) -> Result<OpOutcome, TieraError> {
        // One lookup: a new key's entry is built aside and inserted only
        // once its bytes are placed.
        let mut fresh = None;
        let obj = match map.get_mut(key) {
            Some(obj) => obj,
            None => fresh.insert(ObjectMeta::default()),
        };
        let version = match forced {
            Some((v, _)) => v,
            None => obj.next_version(),
        };
        // A new newest version in a full list prunes the oldest version: the
        // plan's final write takes over its slot if that tier may hold it.
        let keep = self.config.max_versions.unwrap_or(usize::MAX);
        let prunes = keep > 0 && obj.versions.len() >= keep && obj.latest_version() < Some(version);
        let oldest = obj.versions.first().filter(|_| prunes);
        let takeover = match (self.plan.takes_over, oldest) {
            (Some(tier), Some(m)) if self.copies(m) >> tier & 1 == 1 => Some((tier, m.version)),
            _ => None,
        };
        let (mut latency, mut written) = (overhead, 0);
        let writes = &self.plan.writes;
        let placed = writes.iter().enumerate().try_for_each(|(n, &tier)| {
            let replaces = takeover.filter(|_| n + 1 == writes.len()).map(|t| t.1);
            let handle = self.tier_at(tier);
            latency += handle.put(key, version, value.clone(), now, replaces)?;
            written |= 1 << tier;
            Ok(())
        });
        let failed = placed.err().or_else(|| self.plan.error.clone());
        if let Some(e) = failed {
            // A failed put leaves no bytes behind — unless the version is
            // already recorded (a replicated rewrite of it): then the
            // copies overwrote bytes its metadata points at.
            if obj.version(version).is_none() {
                self.delete_from(written, key, version, now);
            }
            return Err(e);
        }

        // Record metadata in the same lock hold that allocated the version.
        for t in tags {
            obj.tags.insert(t.to_string());
        }
        let plan = &self.plan;
        let mut m = VersionMeta::new(version, value.len() as u64, now, plan.location);
        m.dirty = plan.dirty;
        m.replicas = plan.replicas;
        if let Some((_, modified)) = forced {
            m.modified = modified;
        }
        let modified = m.modified;
        obj.add_version(m, self.config.max_versions, |old| {
            // The final write took over the first pruned version's slot.
            let taken = takeover
                .filter(|t| t.1 == old.version)
                .map_or(0, |t| 1 << t.0);
            self.delete_from(self.copies(&old) & !taken, key, old.version, now);
        });
        if let Some(obj) = fresh {
            map.insert(ShortKey::new(key), obj);
        }

        Ok(OpOutcome {
            value: None,
            version,
            modified,
            latency,
        })
    }

    /// Retrieve the latest version (GET).
    pub fn get(&self, key: &str) -> Result<OpOutcome, TieraError> {
        let out = self.get_unslept(key)?;
        self.maybe_sleep(out.latency);
        Ok(out)
    }

    /// GET without the trailing sleep: the entry a mounting instance uses
    /// while it holds its own shard guard.
    fn get_unslept(&self, key: &str) -> Result<OpOutcome, TieraError> {
        let now = self.clock.now();
        self.check_deadline(now)?;
        self.stats.app_gets.fetch_add(1, Ordering::Relaxed);
        let missing = || TieraError::NotFound(key.to_string());
        let out = self
            .meta
            .with_existing_mut(key, |o| {
                let version = o.latest_version().ok_or_else(missing)?;
                self.read_version_locked(key, version, o, now)
            })
            .unwrap_or_else(|| Err(missing()))?;
        self.note_op(InstanceOp::Get, out.latency);
        Ok(out)
    }

    /// Retrieve a specific version.
    pub fn get_version(&self, key: &str, version: VersionId) -> Result<OpOutcome, TieraError> {
        let now = self.clock.now();
        self.check_deadline(now)?;
        self.stats.app_gets.fetch_add(1, Ordering::Relaxed);
        let out = self.read_version(key, version, now)?;
        self.note_op(InstanceOp::Get, out.latency);
        self.maybe_sleep(out.latency);
        Ok(out)
    }

    /// List available versions of `key`.
    pub fn get_version_list(&self, key: &str) -> Result<Vec<VersionId>, TieraError> {
        self.meta
            .with(key, |o| o.versions.iter().map(|m| m.version).collect())
            .ok_or_else(|| TieraError::NotFound(key.to_string()))
    }

    /// Overwrite the bytes of one existing version in place (Table 2's
    /// `update`): same version number, refreshed modified-time.
    pub fn update(
        &self,
        key: &str,
        version: VersionId,
        value: Bytes,
    ) -> Result<OpOutcome, TieraError> {
        let now = self.clock.now();
        let missing = || TieraError::VersionNotFound(key.to_string(), version);
        // Holder lookup, rewrite and metadata edit share one shard session.
        let (latency, stale) = self
            .meta
            .with_existing_mut(key, |o| {
                let m = o.version_mut(version).ok_or_else(missing)?;
                let size = value.len() as u64;
                let stored = self
                    .tier_at(m.location)
                    .put(key, version, value, now, None)?;
                m.size = size;
                m.modified = now;
                m.touch(now);
                // In-place update invalidates intra-instance replicas; their
                // copies are deleted after the session.
                let stale = m.holders() & !(1 << m.location);
                m.replicas = 0;
                Ok((META_OVERHEAD + stored, stale))
            })
            .unwrap_or_else(|| Err(missing()))?;
        self.delete_from(stale, key, version, now);
        self.note_op(InstanceOp::Update, latency);
        self.maybe_sleep(latency);
        Ok(OpOutcome {
            value: None,
            version,
            modified: now,
            latency,
        })
    }

    /// Remove all versions of `key`.
    pub fn remove(&self, key: &str) -> Result<(), TieraError> {
        let obj = self
            .meta
            .remove(key)
            .ok_or_else(|| TieraError::NotFound(key.to_string()))?;
        self.note_op(InstanceOp::Remove, SimDuration::ZERO);
        let now = self.clock.now();
        for m in &obj.versions {
            self.delete_from(self.copies(m), key, m.version, now);
        }
        Ok(())
    }

    /// Remove one version of `key`.
    pub fn remove_version(&self, key: &str, version: VersionId) -> Result<(), TieraError> {
        let m = self
            .meta
            .remove_version(key, version)
            .ok_or_else(|| TieraError::VersionNotFound(key.to_string(), version))?;
        self.delete_from(self.copies(&m), key, version, self.clock.now());
        Ok(())
    }

    /// Read one version under one shard session covering holder lookup,
    /// heal and touch.
    fn read_version(
        &self,
        key: &str,
        version: VersionId,
        now: SimInstant,
    ) -> Result<OpOutcome, TieraError> {
        self.meta
            .with_existing_mut(key, |o| self.read_version_locked(key, version, o, now))
            .unwrap_or_else(|| Err(TieraError::VersionNotFound(key.to_string(), version)))
    }

    /// Read one version with its object's metadata already locked: try
    /// holders in [`TieraInstance::holder_order`], heal metadata in place
    /// when tiers have lost their copies, touch the access time. `now` is
    /// when the op read the clock: the tier reads and the breakers get it.
    /// A holder that no longer has the bytes (an evicted cache copy) is
    /// healed away but is no tier failure: only errors of the tier itself
    /// count against its breaker.
    fn read_version_locked(
        &self,
        key: &str,
        version: VersionId,
        obj: &mut ObjectMeta,
        now: SimInstant,
    ) -> Result<OpOutcome, TieraError> {
        let m = obj
            .version_mut(version)
            .ok_or_else(|| TieraError::VersionNotFound(key.to_string(), version))?;
        let mut latency = SimDuration::from_micros(100);
        // Holders tried and found empty, and those of them that were down.
        let (mut lost, mut down): (TierSet, TierSet) = (0, 0);
        for i in self.holder_order(m, now) {
            let breaker = &self.tier_breakers[usize::from(i)].breaker;
            match self.tier_at(i).get(key, version, now) {
                Ok((mut data, l)) => {
                    breaker.record_success(now, l);
                    latency += l;
                    if m.encrypted {
                        data = transform::decrypt(&data, self.config.encryption_key);
                    }
                    if m.compressed {
                        data = transform::decompress(&data).map_err(TieraError::Corrupt)?;
                    }
                    if lost != 0 {
                        if lost >> m.location & 1 == 1 {
                            m.location = i;
                        }
                        m.replicas &= !lost;
                        self.strays.fetch_or(down, Ordering::Relaxed);
                    }
                    m.touch(now);
                    return Ok(OpOutcome {
                        value: Some(data),
                        version,
                        modified: m.modified,
                        latency,
                    });
                }
                Err(TieraError::Tier(TierError::NotFound) | TieraError::NotFound(_)) => {
                    lost |= 1 << i;
                }
                Err(e) => {
                    breaker.record_failure(now);
                    lost |= 1 << i;
                    if e == TieraError::Tier(TierError::Down) {
                        down |= 1 << i;
                    }
                }
            }
        }
        Err(TieraError::NotFound(key.to_string()))
    }

    /// Order a version's holders for a read. Fastest typical latency first
    /// ([`TieraInstance::read_rank`]), with two breaker-driven exceptions. A holder whose
    /// breaker is not closed is *deprioritized*, never rejected — it may
    /// hold the only copy. And when an open breaker's cooldown has expired,
    /// that holder is promoted to the very front so this read doubles as
    /// the probe; without real probe traffic a healed tier could never
    /// close again while a healthy replica keeps absorbing all reads. The
    /// breakers are asked fastest holder first, before any holder is read.
    fn holder_order(&self, m: &VersionMeta, now: SimInstant) -> impl Iterator<Item = TierIdx> + '_ {
        let loc = m.location;
        let (mut probe, mut healthy, mut suspect): (TierSet, TierSet, TierSet) = (0, 0, 0);
        for i in self.fastest_first(m.holders(), loc) {
            let t = &self.tier_breakers[usize::from(i)];
            if t.breaker.state() == BreakerState::Closed {
                healthy |= 1 << i;
                continue;
            }
            let deferrals = t.deferrals.get_or_init(|| {
                wiera_sim::MetricsRegistry::global().counter(
                    "tiera_tier_deferrals",
                    &[
                        ("instance", self.config.name.as_str()),
                        ("tier", self.tier_label(i)),
                    ],
                )
            });
            deferrals.inc();
            if t.breaker.admit(now) == Admit::Probe {
                probe |= 1 << i;
            } else {
                suspect |= 1 << i;
            }
        }
        self.fastest_first(probe, loc)
            .chain(self.fastest_first(healthy, loc))
            .chain(self.fastest_first(suspect, loc))
    }

    /// The tiers of `set`, fastest typical get first; among equally fast
    /// tiers `loc` first, then label order — the order a stable sort by
    /// speed gives a version's holder list (location, then replica set).
    fn fastest_first(&self, mut set: TierSet, loc: TierIdx) -> impl Iterator<Item = TierIdx> + '_ {
        std::iter::from_fn(move || {
            let next = tiers_in(set).min_by_key(|&i| {
                let (speed, pos) = self.read_rank[usize::from(i)];
                (speed, i != loc, pos)
            })?;
            set &= !(1 << next);
            Some(next)
        })
    }

    // ---- background policy execution ---------------------------------------

    /// Execute the timer rule at index `rule` of [`Self::rules`] once (the
    /// engine calls this at the rule's period). Returns the number of
    /// objects acted on.
    pub fn run_timer_rule(&self, rule: usize) -> usize {
        let timed = self.config.rules.get(rule);
        let timed = timed.filter(|r| matches!(r.event, EventKind::Timer { .. }));
        timed.map_or(0, |r| self.run_sweep_actions(&r.actions, None))
    }

    /// Execute every timer rule once. Returns the number of objects acted on.
    pub fn run_timer_rules(&self) -> usize {
        (0..self.config.rules.len())
            .map(|rule| self.run_timer_rule(rule))
            .sum()
    }

    /// Evaluate tier-filled rules (edge-triggered) and run any that fire.
    pub fn run_filled_rules(&self) -> usize {
        let mut acted = 0;
        for (idx, rule) in self.config.rules.iter().enumerate() {
            let EventKind::TierFilled { tier, fraction } = &rule.event else {
                continue;
            };
            let Some(tier) = self.tier(tier).and_then(TierHandle::as_local) else {
                continue;
            };
            let filled = tier.filled_fraction();
            let mut armed = self.filled_armed.lock();
            let was_armed = *armed.entry(idx).or_insert(true);
            if filled >= *fraction && was_armed {
                armed.insert(idx, false);
                drop(armed);
                acted += self.run_sweep_actions(&rule.actions, None);
            } else if filled < *fraction && !was_armed {
                armed.insert(idx, true); // re-arm once back under threshold
            }
        }
        acted
    }

    /// Evaluate cold-data rules: act on versions idle longer than the rule's
    /// threshold (ColdDataMonitoring, §4.3).
    pub fn run_cold_rules(&self) -> usize {
        let now = self.clock.now();
        let mut acted = 0;
        for rule in &self.config.rules {
            let EventKind::ColdData { older_than_ms } = rule.event else {
                continue;
            };
            let cutoff = now - SimDuration::from_millis_f64(older_than_ms);
            for (key, version) in self.meta.cold_versions(cutoff) {
                acted += self.run_sweep_actions(&rule.actions, Some((&key, version)));
            }
        }
        acted
    }

    /// One background maintenance pass: filled + cold rules.
    pub fn run_maintenance(&self) -> usize {
        self.run_filled_rules() + self.run_cold_rules()
    }

    /// Execute sweep-style actions, optionally scoped to a single
    /// `(key, version)` (cold-data events name the object; sweep rules
    /// enumerate everything that matches their `what:` predicate).
    fn run_sweep_actions(&self, actions: &[Action], scope: Option<(&str, VersionId)>) -> usize {
        actions
            .iter()
            .map(|a| self.run_sweep_action(a, scope))
            .sum()
    }

    /// Whether `cond` holds at `now` for version `version` of `key`.
    fn version_matches(
        &self,
        cond: &Condition,
        (key, version): (&str, VersionId),
        now: SimInstant,
    ) -> bool {
        let env = |o: &ObjectMeta| {
            let m = o.version(version)?;
            let location = self.tier_label(m.location);
            let tags = &o.tags;
            Some(cond.eval(&ObjEnv {
                meta: m,
                tags,
                location,
                now,
            }))
        };
        self.meta.with(key, env).flatten().unwrap_or(false)
    }

    /// Run `f` on every version `cond` selects (within `scope` when given),
    /// all selected before the first runs; returns how many it ran on.
    fn sweep(
        &self,
        cond: &Condition,
        scope: Option<(&str, VersionId)>,
        f: impl Fn(&str, VersionId),
    ) -> usize {
        let candidates: Vec<(String, VersionId)> = match scope {
            Some((k, v)) => vec![(k.to_string(), v)],
            None => self.meta.all_versions(),
        };
        let now = self.clock.now();
        let targets: Vec<_> = candidates
            .iter()
            .filter(|(k, v)| self.version_matches(cond, (k, *v), now))
            .collect();
        targets.iter().for_each(|(k, v)| f(k, *v));
        targets.len()
    }

    fn run_sweep_action(&self, action: &Action, scope: Option<(&str, VersionId)>) -> usize {
        match action {
            Action::Copy {
                what: Selector::Where(cond),
                to: Target::Tier(to),
                bandwidth_bps,
            } => self.sweep(cond, scope, |k, v| {
                let _ = self.copy_version(k, v, to, *bandwidth_bps);
            }),
            Action::Move {
                what: Selector::Where(cond),
                to: Target::Tier(to),
                bandwidth_bps,
            } => self.sweep(cond, scope, |k, v| {
                let _ = self.move_version(k, v, to, *bandwidth_bps);
            }),
            Action::Delete {
                what: Selector::Where(cond),
            } => self.sweep(cond, scope, |k, v| {
                let _ = self.remove_version(k, v);
            }),
            Action::Compress {
                what: Selector::Where(cond),
            } => self.sweep(cond, scope, |k, v| {
                let _ = self.transform_version(k, v, true);
            }),
            Action::Encrypt {
                what: Selector::Where(cond),
            } => self.sweep(cond, scope, |k, v| {
                let _ = self.transform_version(k, v, false);
            }),
            Action::Grow { tier, by_bytes } => {
                if let Some(t) = self.tier(tier).and_then(TierHandle::as_local) {
                    t.grow(*by_bytes);
                    1
                } else {
                    0
                }
            }
            Action::If {
                cond,
                then,
                otherwise,
            } => {
                // Instance-level conditions: evaluate against the sweep scope
                // if any, else against an empty environment.
                let now = self.clock.now();
                let hit = scope.is_some_and(|scope| self.version_matches(cond, scope, now));
                if hit {
                    self.run_sweep_actions(then, scope)
                } else {
                    self.run_sweep_actions(otherwise, scope)
                }
            }
            // Global actions are handled by the Wiera layer.
            _ => 0,
        }
    }

    /// Copy one version's bytes into another tier (adds a replica, clears
    /// the dirty bit — this is the write-back flush / backup primitive).
    pub fn copy_version(
        &self,
        key: &str,
        version: VersionId,
        to: &str,
        bandwidth_bps: Option<f64>,
    ) -> Result<SimDuration, TieraError> {
        self.transfer_version(key, version, to, bandwidth_bps, false)
    }

    /// Move one version to another tier: the target becomes authoritative
    /// and all other copies are deleted (Fig. 6(a)'s cold-data migration).
    pub fn move_version(
        &self,
        key: &str,
        version: VersionId,
        to: &str,
        bandwidth_bps: Option<f64>,
    ) -> Result<SimDuration, TieraError> {
        self.transfer_version(key, version, to, bandwidth_bps, true)
    }

    /// Copy one version's bytes into tier `to`; with `retire_sources` the
    /// target then becomes the only holder. The read and the metadata edit
    /// are separate shard sessions: a bandwidth-limited transfer sleeps in
    /// between.
    fn transfer_version(
        &self,
        key: &str,
        version: VersionId,
        to: &str,
        bandwidth_bps: Option<f64>,
        retire_sources: bool,
    ) -> Result<SimDuration, TieraError> {
        let now = self.clock.now();
        let out = self.read_version(key, version, now)?;
        let data = out.value.ok_or_else(|| no_bytes(key))?;
        let to = tier_required(&self.tiers, to)?;
        let size = data.len();
        let mut latency = out.latency;
        latency += self.tier_at(to).put(key, version, data, now, None)?;
        if let Some(bw) = bandwidth_bps {
            let limited = SimDuration::from_secs_f64(size as f64 / bw.max(1.0));
            latency = latency.max(limited);
            if self.config.sleep_background {
                self.clock.sleep(limited);
            }
        }
        let retired: TierSet = self
            .meta
            .with_existing_mut(key, |o| {
                let Some(m) = o.version_mut(version) else {
                    return 0;
                };
                m.dirty = false;
                if !retire_sources {
                    m.replicas |= 1 << to;
                    return 0;
                }
                let sources = m.holders() & !(1 << to);
                m.location = to;
                m.replicas = 0;
                sources
            })
            .unwrap_or_default();
        self.delete_from(retired, key, version, self.clock.now());
        Ok(latency)
    }

    /// Compress (or encrypt) one version in place, under one shard session.
    fn transform_version(
        &self,
        key: &str,
        version: VersionId,
        compress: bool,
    ) -> Result<(), TieraError> {
        let missing = || TieraError::VersionNotFound(key.to_string(), version);
        let now = self.clock.now();
        self.meta
            .with_existing_mut(key, |o| {
                let m = o.version(version).ok_or_else(missing)?;
                let flags = (m.compressed || compress, m.encrypted || !compress);
                if flags == (m.compressed, m.encrypted) {
                    return Ok(());
                }
                // Re-encode from plaintext with the new flag set. Encoding
                // order is compress-then-encrypt (the read path decodes
                // decrypt-then-decompress), so layering stays correct
                // whichever transform is applied first by the policy.
                let read = self.read_version_locked(key, version, o, now)?;
                let mut stored = read.value.ok_or_else(|| no_bytes(key))?;
                if flags.0 {
                    stored = transform::compress(&stored);
                }
                if flags.1 {
                    stored = transform::encrypt(&stored, self.config.encryption_key);
                }
                // Rewrite in every holder.
                let m = o.version_mut(version).ok_or_else(missing)?;
                for h in tiers_in(m.holders()) {
                    self.tier_at(h)
                        .put(key, version, stored.clone(), now, None)?;
                }
                (m.compressed, m.encrypted) = flags;
                m.size = stored.len() as u64;
                Ok(())
            })
            .unwrap_or_else(|| Err(missing()))
    }
}

/// The error of a read of `key` that returned no bytes.
fn no_bytes(key: &str) -> TieraError {
    TieraError::Corrupt(format!("read of '{key}' returned no bytes"))
}

/// Evaluation environment exposing one version's metadata to policy
/// conditions (`object.location == tier1 && object.dirty == true`).
struct ObjEnv<'a> {
    meta: &'a VersionMeta,
    tags: &'a BTreeSet<String>,
    /// The label of `meta.location`, rendered when a rule reads it.
    location: &'a str,
    now: SimInstant,
}

impl Env for ObjEnv<'_> {
    fn lookup(&self, path: &[String]) -> Option<EnvValue> {
        if path.len() == 3 && path[0] == "object" && path[1] == "tag" {
            // `object.tag.tmp == true`
            return Some(EnvValue::Bool(self.tags.contains(&path[2])));
        }
        if path.len() != 2 || path[0] != "object" {
            return None;
        }
        Some(match path[1].as_str() {
            "location" => EnvValue::Str(self.location.to_string()),
            "dirty" => EnvValue::Bool(self.meta.dirty),
            "size" => EnvValue::Num(self.meta.size as f64),
            "version" => EnvValue::Num(self.meta.version as f64),
            "accessCount" => EnvValue::Num(self.meta.access_count as f64),
            "ageMs" => EnvValue::Num(self.now.elapsed_since(self.meta.created).as_millis_f64()),
            "idleMs" => EnvValue::Num(
                self.now
                    .elapsed_since(self.meta.last_access)
                    .as_millis_f64(),
            ),
            _ => return None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wiera_policy::{compile, parse};
    use wiera_sim::ManualClock;
    use wiera_tiers::TierKind;

    fn bytes(n: usize) -> Bytes {
        Bytes::from(vec![0x5Au8; n])
    }

    /// One update through the replicated-batch entry.
    fn replicate(
        inst: &TieraInstance,
        key: &str,
        version: VersionId,
        modified: SimInstant,
        value: &Bytes,
    ) -> Option<OpOutcome> {
        let update = Replicated {
            key,
            version,
            modified,
            value,
        };
        inst.apply_replicated(&[update]).remove(0).unwrap()
    }

    /// The labels of the tiers in `set`.
    fn labels(inst: &TieraInstance, set: TierSet) -> Vec<&str> {
        tiers_in(set).map(|i| inst.tier_label(i)).collect()
    }

    fn basic_instance() -> Arc<TieraInstance> {
        let cfg = InstanceConfig::new("t", Region::UsEast)
            .with_tier("tier1", "Memcached", 1 << 20)
            .with_tier("tier2", "EBS", 1 << 30);
        TieraInstance::build(cfg, ManualClock::new()).unwrap()
    }

    #[test]
    fn put_get_roundtrip_default_policy() {
        let inst = basic_instance();
        let put = inst.put("k", Bytes::from_static(b"hello")).unwrap();
        assert_eq!(put.version, 1);
        assert!(put.latency > SimDuration::ZERO);
        let got = inst.get("k").unwrap();
        assert_eq!(got.value.unwrap().as_ref(), b"hello");
        assert_eq!(got.version, 1);
    }

    #[test]
    fn overwrite_creates_new_version() {
        let inst = basic_instance();
        inst.put("k", Bytes::from_static(b"v1")).unwrap();
        let second = inst.put("k", Bytes::from_static(b"v2")).unwrap();
        assert_eq!(second.version, 2);
        assert_eq!(inst.get("k").unwrap().value.unwrap().as_ref(), b"v2");
        assert_eq!(
            inst.get_version("k", 1).unwrap().value.unwrap().as_ref(),
            b"v1",
            "old versions remain readable"
        );
        assert_eq!(inst.get_version_list("k").unwrap(), vec![1, 2]);
    }

    #[test]
    fn get_missing_and_bad_version() {
        let inst = basic_instance();
        assert!(matches!(inst.get("nope"), Err(TieraError::NotFound(_))));
        inst.put("k", bytes(8)).unwrap();
        assert!(matches!(
            inst.get_version("k", 9),
            Err(TieraError::VersionNotFound(_, 9))
        ));
    }

    #[test]
    fn update_rewrites_in_place() {
        let inst = basic_instance();
        inst.put("k", Bytes::from_static(b"aaa")).unwrap();
        inst.update("k", 1, Bytes::from_static(b"bbbb")).unwrap();
        let got = inst.get_version("k", 1).unwrap();
        assert_eq!(got.value.unwrap().as_ref(), b"bbbb");
        assert_eq!(
            inst.get_version_list("k").unwrap(),
            vec![1],
            "no new version"
        );
        assert!(matches!(
            inst.update("k", 7, bytes(1)),
            Err(TieraError::VersionNotFound(_, 7))
        ));
    }

    #[test]
    fn remove_and_remove_version() {
        let inst = basic_instance();
        inst.put("k", bytes(10)).unwrap();
        inst.put("k", bytes(10)).unwrap();
        inst.remove_version("k", 1).unwrap();
        assert_eq!(inst.get_version_list("k").unwrap(), vec![2]);
        inst.remove("k").unwrap();
        assert!(matches!(inst.get("k"), Err(TieraError::NotFound(_))));
        assert!(matches!(inst.remove("k"), Err(TieraError::NotFound(_))));
    }

    #[test]
    fn only_a_remove_that_removed_something_is_counted() {
        let cfg = InstanceConfig::new("remove-counting", Region::UsEast).with_tier(
            "tier1",
            "EBS",
            1 << 30,
        );
        let inst = TieraInstance::build(cfg, ManualClock::new()).unwrap();
        let removes = || {
            let snap = wiera_sim::MetricsRegistry::global().snapshot();
            snap.counters
                .get("tiera_ops_total{instance=remove-counting,op=remove}")
                .copied()
        };
        inst.put("k", bytes(10)).unwrap();
        inst.remove("k").unwrap();
        assert_eq!(removes(), Some(1));
        assert!(matches!(inst.remove("k"), Err(TieraError::NotFound(_))));
        assert!(matches!(inst.remove("never"), Err(TieraError::NotFound(_))));
        assert_eq!(removes(), Some(1));
    }

    #[test]
    fn version_gc_respects_max_versions() {
        let cfg = InstanceConfig::new("t", Region::UsEast)
            .with_tier("tier1", "EBS", 1 << 30)
            .with_max_versions(2);
        let inst = TieraInstance::build(cfg, ManualClock::new()).unwrap();
        for _ in 0..5 {
            inst.put("k", bytes(100)).unwrap();
        }
        assert_eq!(inst.get_version_list("k").unwrap(), vec![4, 5]);
        // Pruned version bytes are gone from the tier too.
        let t = inst.tier("tier1").unwrap().as_local().unwrap();
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn outcomes_carry_the_versions_modified_time() {
        let clock = ManualClock::new();
        let cfg = InstanceConfig::new("t", Region::UsEast)
            .with_tier("tier1", "EBS", 1 << 30)
            .with_max_versions(1);
        let inst = TieraInstance::build(cfg, clock.clone()).unwrap();
        let secs = |s| SimInstant::EPOCH + SimDuration::from_secs(s);
        clock.set(secs(3));
        let put = inst.put("k", bytes(10)).unwrap();
        clock.set(secs(4));
        // A read reports when its version was written, not when it was read
        // — from the same lock hold, so no later put can prune it first.
        assert_eq!(
            (put.modified, inst.get("k").unwrap().modified),
            (secs(3), secs(3))
        );
        assert_eq!(inst.put("k", bytes(10)).unwrap().modified, secs(4));
        let get = BatchOp::Get { key: "k".into() };
        let (outs, _) = inst.apply_batch(&[get]);
        assert_eq!(outs[0].as_ref().unwrap().modified, secs(4));
        // A replicated update keeps its writer's stamp.
        let update = replicate(&inst, "k", 3, secs(2), &bytes(10));
        assert_eq!(update.unwrap().modified, secs(2));
        assert_eq!(inst.get_version("k", 3).unwrap().modified, secs(2));
        clock.set(secs(9));
        assert_eq!(inst.update("k", 3, bytes(10)).unwrap().modified, secs(9));
    }

    #[test]
    fn last_write_wins_replication() {
        let clock = ManualClock::new();
        let inst = TieraInstance::build(
            InstanceConfig::new("t", Region::UsEast).with_tier("tier1", "EBS", 1 << 30),
            clock.clone(),
        )
        .unwrap();
        let t5 = SimInstant::EPOCH + SimDuration::from_secs(5);
        let t9 = SimInstant::EPOCH + SimDuration::from_secs(9);
        let value = |s: &'static str| Bytes::from_static(s.as_bytes());
        assert!(replicate(&inst, "k", 3, t5, &value("r3")).is_some());
        // Lower version loses.
        assert!(replicate(&inst, "k", 2, t9, &value("r2")).is_none());
        // Same version, newer mtime wins.
        assert!(replicate(&inst, "k", 3, t9, &value("r3b")).is_some());
        assert_eq!(inst.get("k").unwrap().value.unwrap().as_ref(), b"r3b");
        // Local put after replication continues the version sequence.
        let out = inst.put("k", Bytes::from_static(b"local")).unwrap();
        assert_eq!(out.version, 4);
    }

    #[test]
    fn a_replicated_batch_takes_one_session_per_shard_and_tests_each_item() {
        let inst = basic_instance();
        let t = |s| SimInstant::EPOCH + SimDuration::from_secs(s);
        let keys: Vec<String> = (0..40).map(|i| format!("k{i}")).collect();
        let value = bytes(8);
        let mut updates: Vec<Replicated> = keys
            .iter()
            .map(|key| Replicated {
                key,
                version: 2,
                modified: t(5),
                value: &value,
            })
            .collect();
        // Later in the same batch: an older write of k0 loses to the one
        // above, a newer write of k1 replaces it.
        let k0_older = Replicated {
            version: 1,
            ..updates[0]
        };
        let k1_newer = Replicated {
            modified: t(6),
            ..updates[1]
        };
        updates.extend([k0_older, k1_newer]);
        let before = inst.meta().write_lock_counts();
        let results = inst.apply_replicated(&updates);
        let after = inst.meta().write_lock_counts();
        let shards: BTreeSet<usize> = keys.iter().map(|k| inst.meta().shard_of(k)).collect();
        let taken: Vec<u64> = after.iter().zip(&before).map(|(a, b)| a - b).collect();
        for (shard, n) in taken.iter().enumerate() {
            assert_eq!(*n, u64::from(shards.contains(&shard)), "shard {shard}");
        }
        assert!(results[..40].iter().all(|r| matches!(r, Ok(Some(_)))));
        assert!(matches!(results[40], Ok(None)), "the older write loses");
        assert!(matches!(results[41], Ok(Some(_))), "the newer write wins");
        assert_eq!(inst.get("k1").unwrap().modified, t(6));
        assert_eq!(inst.get_version_list("k0").unwrap(), vec![2]);
        assert_eq!(inst.stats.replicated_updates.load(Ordering::Relaxed), 41);
    }

    #[test]
    fn low_latency_policy_stores_to_memory_with_dirty_bit() {
        let compiled =
            compile(&parse(wiera_policy::canned::LOW_LATENCY_INSTANCE).unwrap()).unwrap();
        let cfg = InstanceConfig::new("ll", Region::UsEast)
            .with_tier("tier1", "Memcached", 1 << 30)
            .with_tier("tier2", "EBS", 1 << 30)
            .with_rules(compiled.rules.clone());
        let inst = TieraInstance::build(cfg, ManualClock::new()).unwrap();
        let out = inst.put("k", bytes(4096)).unwrap();
        // Stored in memory only, marked dirty, fast.
        assert!(
            out.latency.as_millis_f64() < 5.0,
            "memory put {}",
            out.latency
        );
        inst.meta()
            .with("k", |o| {
                let m = o.latest().unwrap();
                assert_eq!(inst.tier_label(m.location), "tier1");
                assert!(m.dirty);
                assert_eq!(m.replicas, 0);
            })
            .unwrap();
        // Timer flush copies dirty objects to tier2 and clears dirty.
        let acted = inst.run_timer_rules();
        assert_eq!(acted, 1);
        inst.meta()
            .with("k", |o| {
                let m = o.latest().unwrap();
                assert!(!m.dirty);
                assert_eq!(labels(&inst, m.replicas), ["tier2"]);
            })
            .unwrap();
        // Second run: nothing dirty.
        assert_eq!(inst.run_timer_rules(), 0);
    }

    #[test]
    fn persistent_policy_write_through_and_backup() {
        let compiled = compile(&parse(wiera_policy::canned::PERSISTENT_INSTANCE).unwrap()).unwrap();
        let cfg = InstanceConfig::new("p", Region::UsEast)
            .with_tier("tier1", "Memcached", 1 << 30)
            .with_tier("tier2", "EBS", 200_000) // small so 50% fills fast
            .with_tier("tier3", "S3", 0)
            .with_rules(compiled.rules.clone());
        let inst = TieraInstance::build(cfg, ManualClock::new()).unwrap();
        // No explicit insert.into rule: default store to tier1, then the
        // write-through rule scoped to tier1 copies to tier2 synchronously.
        let out = inst.put("a", bytes(60_000)).unwrap();
        inst.meta()
            .with("a", |o| {
                let m = o.latest().unwrap();
                assert_eq!(inst.tier_label(m.location), "tier1");
                assert_eq!(
                    labels(&inst, m.replicas),
                    ["tier2"],
                    "write-through replica"
                );
            })
            .unwrap();
        assert!(out.latency.as_millis_f64() > 1.0, "includes the EBS write");
        // Fill tier2 past 50%: backup rule copies tier2 objects to S3.
        inst.put("b", bytes(60_000)).unwrap();
        assert_eq!(
            inst.run_filled_rules(),
            0,
            "location is tier1; what: matches location==tier2"
        );
        // The rule selects location==tier2; our objects live in tier1 with a
        // tier2 replica, so move one explicitly to exercise the filter.
        inst.move_version("a", 1, "tier2", None).unwrap();
        inst.move_version("b", 1, "tier2", None).unwrap();
        let acted = inst.run_filled_rules();
        assert_eq!(acted, 0, "edge already consumed at >=50% earlier check");
    }

    #[test]
    fn a_pruned_version_is_deleted_only_from_its_holders() {
        let compiled = compile(&parse(wiera_policy::canned::PERSISTENT_INSTANCE).unwrap()).unwrap();
        let cfg = InstanceConfig::new("prune", Region::UsEast)
            .with_tier("tier1", "Memcached", 1 << 30)
            .with_tier("tier2", "EBS", 1 << 30)
            .with_tier("tier3", "S3", 0)
            .with_rules(compiled.rules)
            .with_max_versions(1);
        let inst = TieraInstance::build(cfg, ManualClock::new()).unwrap();
        let local = |label| inst.tier(label).unwrap().as_local().unwrap().clone();
        let tiers = [local("tier1"), local("tier2"), local("tier3")];
        const N: u64 = 8;
        for _ in 0..N {
            inst.put("k", bytes(64)).unwrap();
        }
        for v in 1..N {
            assert!(tiers.iter().all(|t| !t.holds("k", v)), "v{v} pruned");
        }
        let deletes = tiers.each_ref().map(|t| t.stats.snapshot().deletes);
        // tier1 stores and tier2 takes the write-through copy: each held
        // every pruned version. tier3 never held one.
        assert_eq!(deletes, [N - 1, N - 1, 0]);
        assert!(tiers[..2].iter().all(|t| t.holds("k", N) && t.len() == 1));
        assert!(tiers[2].is_empty());
    }

    #[test]
    fn copies_the_metadata_stops_naming_are_deleted_too() {
        // Two EBS tiers: tier2 stores, tier1 takes a copy.
        let src = "Tiera T() {
            event(insert.into) : response {
                store(what:insert.object, to:tier2);
                copy(what:insert.object, to:tier1);
            }
        }";
        let compiled = compile(&parse(src).unwrap()).unwrap();
        let cfg = InstanceConfig::new("strays", Region::UsEast)
            .with_tier("tier1", "EBS", 1 << 30)
            .with_tier("tier2", "EBS", 1 << 30)
            .with_rules(compiled.rules)
            .with_max_versions(1);
        let inst = TieraInstance::build(cfg, ManualClock::new()).unwrap();
        let local = |label| inst.tier(label).unwrap().as_local().unwrap().clone();
        let (tier1, tier2) = (local("tier1"), local("tier2"));
        inst.put("k", bytes(16)).unwrap();
        // A read while tier2 is down drops it from v1's holders; the outage
        // does not lose a durable tier's copy.
        tier2.set_down(true);
        inst.get("k").unwrap();
        tier2.set_down(false);
        assert!(tier2.holds("k", 1));
        inst.put("k", bytes(16)).unwrap();
        assert!(!tier2.holds("k", 1), "the pruned version's stray copy");
        // An in-place update drops v2's replica in tier1, and its bytes.
        inst.update("k", 2, bytes(8)).unwrap();
        assert!(!tier1.holds("k", 2) && tier2.holds("k", 2));
    }

    #[test]
    fn a_failed_write_through_leaves_no_orphan_bytes() {
        let compiled = compile(&parse(wiera_policy::canned::PERSISTENT_INSTANCE).unwrap()).unwrap();
        let cfg = InstanceConfig::new("orphan", Region::UsEast)
            .with_tier("tier1", "Memcached", 1 << 30)
            .with_tier("tier2", "EBS", 1 << 30)
            .with_tier("tier3", "S3", 0)
            .with_rules(compiled.rules);
        let inst = TieraInstance::build(cfg, ManualClock::new()).unwrap();
        let local = |label| inst.tier(label).unwrap().as_local().unwrap().clone();
        let (tier1, tier2) = (local("tier1"), local("tier2"));
        inst.put("old", Bytes::from_static(b"kept")).unwrap();
        tier2.set_down(true);
        // tier1 takes the bytes, the write-through copy to tier2 fails.
        for key in ["new", "old"] {
            assert_eq!(
                inst.put(key, Bytes::from_static(b"hello")).unwrap_err(),
                TieraError::Tier(TierError::Down)
            );
        }
        assert_eq!((tier1.len(), tier1.used_bytes()), (1, 4), "only old@v1");
        assert!(!inst.meta().contains("new"), "a new key's entry is dropped");
        assert_eq!(inst.get_version_list("old").unwrap(), vec![1]);
        tier2.set_down(false);
        assert_eq!(inst.get("old").unwrap().value.unwrap().as_ref(), b"kept");
    }

    #[test]
    fn filled_rule_fires_once_per_crossing() {
        let src = "Tiera T() {
            event(tier1.filled == 50%) : response {
                copy(what:object.location == tier1, to:tier2);
            }
        }";
        let compiled = compile(&parse(src).unwrap()).unwrap();
        let cfg = InstanceConfig::new("f", Region::UsEast)
            .with_tier("tier1", "EBS", 1000)
            .with_tier("tier2", "S3", 0)
            .with_rules(compiled.rules);
        let inst = TieraInstance::build(cfg, ManualClock::new()).unwrap();
        inst.put("a", bytes(300)).unwrap();
        assert_eq!(inst.run_filled_rules(), 0, "under threshold");
        inst.put("b", bytes(300)).unwrap();
        assert_eq!(
            inst.run_filled_rules(),
            2,
            "crossed: both tier1 objects backed up"
        );
        assert_eq!(inst.run_filled_rules(), 0, "edge-triggered, no refire");
        // Drop below, then cross again → re-arms.
        inst.remove("a").unwrap();
        inst.remove("b").unwrap();
        assert_eq!(inst.run_filled_rules(), 0);
        inst.put("c", bytes(600)).unwrap();
        assert_eq!(inst.run_filled_rules(), 1, "re-armed after dropping below");
    }

    #[test]
    fn cold_rule_moves_idle_objects() {
        let compiled = compile(&parse(wiera_policy::canned::REDUCED_COST_POLICY).unwrap()).unwrap();
        let clock = ManualClock::new();
        let cfg = InstanceConfig::new("c", Region::UsWest)
            .with_tier("tier1", "LocalDisk", 1 << 30)
            .with_tier("tier2", "CheapestArchival", 0)
            .with_rules(compiled.rules.clone());
        let inst = TieraInstance::build(cfg, clock.clone()).unwrap();
        inst.put("cold", bytes(1000)).unwrap();
        clock.advance(SimDuration::from_hours(121));
        inst.put("hot", bytes(1000)).unwrap();
        let moved = inst.run_cold_rules();
        assert_eq!(moved, 1);
        assert_eq!(inst.location_of("cold"), Some("tier2"));
        assert_eq!(inst.location_of("hot"), Some("tier1"));
        // Cold object no longer occupies the disk tier.
        let disk = inst.tier("tier1").unwrap().as_local().unwrap();
        assert_eq!(disk.len(), 1);
    }

    #[test]
    fn read_falls_back_when_memory_evicts() {
        // Tiny memcached tier: second put evicts the first; the get must
        // fall back to the EBS replica and heal metadata.
        let src = "Tiera T() {
            event(insert.into) : response {
                store(what:insert.object, to:tier1);
                copy(what:insert.object, to:tier2);
            }
        }";
        let compiled = compile(&parse(src).unwrap()).unwrap();
        let cfg = InstanceConfig::new("e", Region::UsEast)
            .with_tier("tier1", "Memcached", 1500)
            .with_tier("tier2", "EBS", 1 << 30)
            .with_rules(compiled.rules);
        let clock = ManualClock::new();
        let inst = TieraInstance::build(cfg, clock.clone()).unwrap();
        inst.put("a", bytes(1000)).unwrap();
        clock.advance(SimDuration::from_secs(1));
        inst.put("b", bytes(1000)).unwrap(); // evicts "a" from memory
        let got = inst.get("a").unwrap();
        assert_eq!(got.value.unwrap().len(), 1000);
        assert_eq!(
            inst.location_of("a"),
            Some("tier2"),
            "healed to the surviving holder"
        );
    }

    #[test]
    fn equally_fast_holders_serve_the_authoritative_copy_first() {
        // Both EBS: the stored copy in tier2 is read before tier1's copy,
        // and once tier2 fails, tier1 serves and becomes the location.
        let src = "Tiera T() {
            event(insert.into) : response {
                store(what:insert.object, to:tier2);
                copy(what:insert.object, to:tier1);
            }
        }";
        let compiled = compile(&parse(src).unwrap()).unwrap();
        let cfg = InstanceConfig::new("tie", Region::UsEast)
            .with_tier("tier1", "EBS", 1 << 30)
            .with_tier("tier2", "EBS", 1 << 30)
            .with_rules(compiled.rules);
        let inst = TieraInstance::build(cfg, ManualClock::new()).unwrap();
        let local = |label| inst.tier(label).unwrap().as_local().unwrap().clone();
        let (tier1, tier2) = (local("tier1"), local("tier2"));
        inst.put("k", bytes(16)).unwrap();
        inst.get("k").unwrap();
        let gets = || (tier1.stats.snapshot().gets, tier2.stats.snapshot().gets);
        assert_eq!(gets(), (0, 1));
        tier2.set_down(true);
        inst.get("k").unwrap();
        assert_eq!(gets(), (1, 1));
        inst.meta()
            .with("k", |o| {
                let m = o.latest().unwrap();
                assert_eq!(inst.tier_label(m.location), "tier1");
                assert!(
                    !labels(&inst, m.replicas).contains(&"tier2"),
                    "the failed holder is dropped"
                );
            })
            .unwrap();
    }

    #[test]
    fn compress_and_encrypt_sweeps_roundtrip() {
        let src = "Tiera T(time t) {
            event(time=t) : response {
                compress(what:object.size > 100);
                encrypt(what:object.size > 0);
            }
        }";
        let compiled = compile(&parse(src).unwrap()).unwrap();
        let cfg = InstanceConfig::new("z", Region::UsEast)
            .with_tier("tier1", "EBS", 1 << 30)
            .with_rules(compiled.rules);
        let inst = TieraInstance::build(cfg, ManualClock::new()).unwrap();
        let payload = Bytes::from(vec![9u8; 5000]);
        inst.put("big", payload.clone()).unwrap();
        inst.put("small", Bytes::from_static(b"tiny")).unwrap();
        let acted = inst.run_timer_rules();
        assert!(acted >= 2);
        // Both read back as the original plaintext.
        assert_eq!(inst.get("big").unwrap().value.unwrap(), payload);
        assert_eq!(inst.get("small").unwrap().value.unwrap().as_ref(), b"tiny");
        inst.meta()
            .with("big", |o| {
                let m = o.latest().unwrap();
                assert!(m.compressed && m.encrypted);
                assert!(m.size < 5000, "compressed on disk");
            })
            .unwrap();
        inst.meta()
            .with("small", |o| {
                let m = o.latest().unwrap();
                assert!(!m.compressed && m.encrypted);
            })
            .unwrap();
        // Idempotent: running again changes nothing.
        inst.run_timer_rules();
        assert_eq!(inst.get("big").unwrap().value.unwrap(), payload);
    }

    #[test]
    fn grow_action_expands_tier() {
        let src = "Tiera T(time t) {
            event(time=t) : response { grow(what:tier1, by:1K); }
        }";
        let compiled = compile(&parse(src).unwrap()).unwrap();
        let cfg = InstanceConfig::new("g", Region::UsEast)
            .with_tier("tier1", "EBS", 1000)
            .with_rules(compiled.rules);
        let inst = TieraInstance::build(cfg, ManualClock::new()).unwrap();
        assert!(inst.put("big", bytes(1500)).is_err(), "too large initially");
        inst.run_timer_rules();
        inst.put("big", bytes(1500)).unwrap();
    }

    #[test]
    fn tagged_objects_and_tag_conditions() {
        let src = "Tiera T(time t) {
            event(time=t) : response { delete(what:object.tag.tmp == true); }
        }";
        let compiled = compile(&parse(src).unwrap()).unwrap();
        let cfg = InstanceConfig::new("tags", Region::UsEast)
            .with_tier("tier1", "EBS", 1 << 30)
            .with_rules(compiled.rules);
        let inst = TieraInstance::build(cfg, ManualClock::new()).unwrap();
        inst.put_tagged("scratch", bytes(10), &["tmp"]).unwrap();
        inst.put("keep", bytes(10)).unwrap();
        let acted = inst.run_timer_rules();
        assert_eq!(acted, 1);
        assert!(inst.get("scratch").is_err());
        assert!(inst.get("keep").is_ok());
    }

    /// A front instance whose insert rule places every object in `tier2`,
    /// the mounted `backing` instance.
    fn front_storing_into_mount(
        backing: &Arc<TieraInstance>,
        read_only: bool,
        clock: SharedClock,
    ) -> Arc<TieraInstance> {
        let src = "Tiera T() {
            event(insert.into) : response { store(what:insert.object, to:tier2); }
        }";
        let compiled = compile(&parse(src).unwrap()).unwrap();
        let cfg = InstanceConfig::new("intermediate", Region::UsEast)
            .with_tier("tier1", "Memcached", 1 << 20)
            .with_rules(compiled.rules);
        TieraInstance::build(cfg, clock).unwrap().mount_instance(
            "tier2",
            backing.clone(),
            read_only,
        )
    }

    fn s3_backing(clock: SharedClock) -> Arc<TieraInstance> {
        TieraInstance::build(
            InstanceConfig::new("raw-big-data", Region::UsEast).with_tier("tier1", "S3", 0),
            clock,
        )
        .unwrap()
    }

    #[test]
    fn modular_instance_as_readonly_tier() {
        let clock = ManualClock::new();
        let backing = s3_backing(clock.clone());
        backing
            .put("dataset@v1", Bytes::from_static(b"raw"))
            .unwrap();

        let front = TieraInstance::build(
            InstanceConfig::new("intermediate", Region::UsEast).with_tier(
                "tier1",
                "Memcached",
                1 << 20,
            ),
            clock.clone(),
        )
        .unwrap();
        let front = front.mount_instance("tier2", backing.clone(), true);
        // Writes to the read-only mounted tier fail…
        let h = front.tier("tier2").unwrap();
        assert!(matches!(
            h.put("x", 1, Bytes::from_static(b"y"), SimInstant::EPOCH, None),
            Err(TieraError::ReadOnlyTier(_))
        ));
        // …but reads pass through to the backing instance.
        let (data, lat) = h.get("dataset", 1, SimInstant::EPOCH).unwrap();
        assert_eq!(data.as_ref(), b"raw");
        assert!(lat > SimDuration::ZERO);
        // And the front instance still takes local writes.
        front.put("intermediate-result", bytes(64)).unwrap();
        assert!(front.get("intermediate-result").is_ok());

        // A policy that places objects in the read-only mount fails the op
        // and records nothing, single or batched.
        let front = front_storing_into_mount(&backing, true, clock.clone());
        assert!(matches!(
            front.put("k", bytes(8)),
            Err(TieraError::ReadOnlyTier(_))
        ));
        let (results, _) = front.apply_batch(&[BatchOp::Put {
            key: "k".into(),
            value: bytes(8),
        }]);
        assert!(matches!(results[0], Err(TieraError::ReadOnlyTier(_))));
        assert!(!front.meta().contains("k"));
    }

    #[test]
    fn mounted_instance_serves_ops_driven_through_the_parent() {
        let clock = ManualClock::new();
        let backing = s3_backing(clock.clone());
        let front = front_storing_into_mount(&backing, false, clock);
        // Whatever crosses the mount costs at least the child's own metadata
        // overhead plus its S3 tier's latency floor (0.4x the median), far
        // above anything the parent's memory tier could charge.
        let s3 = TierSpec::of(TierKind::S3);
        let floor = |typical_ms: f64| SimDuration::from_millis_f64(0.4 * typical_ms);
        let child_put = META_OVERHEAD + floor(s3.put_latency.typical_ms());
        let child_get = floor(s3.get_latency.typical_ms());

        let put = front.put("a", Bytes::from_static(b"through")).unwrap();
        assert!(put.latency >= META_OVERHEAD + child_put, "{}", put.latency);
        assert_eq!(front.location_of("a"), Some("tier2"));
        assert_eq!(
            backing
                .get(&storage_key("a", 1))
                .unwrap()
                .value
                .unwrap()
                .as_ref(),
            b"through",
            "the bytes live in the child"
        );
        let got = front.get("a").unwrap();
        assert_eq!(got.value.unwrap().as_ref(), b"through");
        assert!(got.latency >= child_get, "{}", got.latency);

        let (results, total) = front.apply_batch(&[
            BatchOp::Put {
                key: "b".into(),
                value: Bytes::from_static(b"batched"),
            },
            BatchOp::Get { key: "a".into() },
            BatchOp::Get { key: "b".into() },
        ]);
        let outs: Vec<&OpOutcome> = results.iter().map(|r| r.as_ref().unwrap()).collect();
        assert!(outs[0].latency >= BATCH_ITEM_OVERHEAD + child_put);
        assert_eq!(outs[1].value.as_ref().unwrap().as_ref(), b"through");
        assert_eq!(outs[2].value.as_ref().unwrap().as_ref(), b"batched");
        assert!(outs[1].latency >= child_get && outs[2].latency >= child_get);
        assert!(total >= child_put + child_get + child_get);

        // The parent held its shard guard across every hop into the child.
        // That nesting crossed lock classes (deeper to shallower), so the
        // registry saw an ordering edge, not two same-class instances.
        let snap = wiera_sim::lockreg::LockRegistry::global().snapshot();
        assert!(snap
            .edges
            .iter()
            .any(|e| e.from == "tiera.metastore@1" && e.to == "tiera.metastore"));
        assert!(!snap
            .same_class
            .iter()
            .any(|sc| sc.class.starts_with("tiera.metastore")));
    }

    #[test]
    fn concurrent_puts_through_a_mounted_stack_never_share_a_version() {
        const THREADS: usize = 8;
        const PUTS: usize = 500;
        let clock = ManualClock::new();
        let backing = s3_backing(clock.clone());
        let front = front_storing_into_mount(&backing, false, clock);
        let barrier = Arc::new(std::sync::Barrier::new(THREADS));
        let writers: Vec<_> = (0..THREADS)
            .map(|_| {
                let (front, barrier) = (front.clone(), barrier.clone());
                std::thread::spawn(move || {
                    barrier.wait();
                    for _ in 0..PUTS {
                        front.put("hot", Bytes::from_static(b"v")).unwrap();
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        assert_eq!(
            front.get_version_list("hot").unwrap().len(),
            THREADS * PUTS,
            "every acked put owns its version"
        );
    }

    #[test]
    fn apply_batch_amortizes_overhead_and_isolates_failures() {
        let inst = basic_instance();
        inst.put("seed", Bytes::from_static(b"s")).unwrap();
        let ops = vec![
            BatchOp::Put {
                key: "a".into(),
                value: Bytes::from_static(b"va"),
            },
            BatchOp::Get {
                key: "missing".into(),
            },
            BatchOp::Put {
                key: "a".into(),
                value: Bytes::from_static(b"va2"),
            },
            BatchOp::Get { key: "seed".into() },
        ];
        let (results, total) = inst.apply_batch(&ops);
        assert_eq!(results.len(), 4);
        assert_eq!(results[0].as_ref().unwrap().version, 1);
        assert!(
            matches!(results[1], Err(TieraError::NotFound(_))),
            "missing key fails alone"
        );
        assert_eq!(
            results[2].as_ref().unwrap().version,
            2,
            "same-key puts chain versions"
        );
        assert_eq!(
            results[3]
                .as_ref()
                .unwrap()
                .value
                .as_ref()
                .unwrap()
                .as_ref(),
            b"s"
        );
        // The batch pays the metadata overhead once: its total is below the
        // per-item sum plus one standalone overhead charge per extra item.
        let item_sum: SimDuration = results
            .iter()
            .flatten()
            .map(|o| o.latency)
            .fold(SimDuration::ZERO, |a, b| a + b);
        assert!(total >= item_sum, "total {total} covers items {item_sum}");
        assert!(
            total < item_sum + SimDuration::from_micros(300),
            "no per-item overhead stacking: {total} vs {item_sum}"
        );
    }

    #[test]
    fn expired_deadline_fails_ops_fast() {
        let clock = ManualClock::new();
        let inst = TieraInstance::build(
            InstanceConfig::new("dl", Region::UsEast).with_tier("tier1", "EBS", 1 << 30),
            clock.clone(),
        )
        .unwrap();
        inst.put("k", bytes(8)).unwrap();
        let deadline = SimInstant::EPOCH + SimDuration::from_millis(10);
        clock.advance(SimDuration::from_millis(20));
        crate::deadline::with_deadline(Some(deadline), || {
            assert_eq!(inst.get("k").unwrap_err(), TieraError::DeadlineExceeded);
            assert_eq!(
                inst.put("k", bytes(8)).unwrap_err(),
                TieraError::DeadlineExceeded
            );
            let (results, _) = inst.apply_batch(&[BatchOp::Get { key: "k".into() }]);
            assert_eq!(
                results[0].as_ref().unwrap_err(),
                &TieraError::DeadlineExceeded
            );
        });
        // Outside the scope the same ops succeed: nothing was torn down.
        assert!(inst.get("k").is_ok());
    }

    #[test]
    fn open_tier_breaker_reroutes_reads_to_replica_holder() {
        // Both tiers hold the object; brown out the fast one until its
        // breaker opens, then the read must go to the healthy slow tier.
        let src = "Tiera T() {
            event(insert.into) : response {
                store(what:insert.object, to:tier1);
                copy(what:insert.object, to:tier2);
            }
        }";
        let compiled = compile(&parse(src).unwrap()).unwrap();
        let cfg = InstanceConfig::new("bo", Region::UsEast)
            .with_tier("tier1", "Memcached", 1 << 20)
            .with_tier("tier2", "EBS", 1 << 30)
            .with_rules(compiled.rules);
        let clock = ManualClock::new();
        let inst = TieraInstance::build(cfg, clock.clone()).unwrap();
        inst.put("k", bytes(64)).unwrap();

        let mem = inst.tier("tier1").unwrap().as_local().unwrap().clone();
        mem.set_degraded(500.0);
        // Feed the breaker until the latency EWMA trips it.
        for _ in 0..40 {
            clock.advance(SimDuration::from_millis(5));
            inst.get("k").unwrap();
            if inst.tier_breaker("tier1").unwrap().state() == BreakerState::Open {
                break;
            }
        }
        assert_eq!(
            inst.tier_breaker("tier1").unwrap().state(),
            BreakerState::Open,
            "sustained brownout must open the tier breaker"
        );
        assert!(inst.browned_out());
        // With tier1 deprioritized, the read is served by tier2 at EBS
        // speed instead of the browned-out memory tier's 500x latency.
        let out = inst.get("k").unwrap();
        assert!(
            out.latency.as_millis_f64() < 50.0,
            "read rerouted around the brownout: {}",
            out.latency
        );
        // Heal: probes close the breaker again and memory-speed reads return.
        mem.set_degraded(1.0);
        for _ in 0..40 {
            clock.advance(SimDuration::from_millis(200));
            inst.get("k").unwrap();
            if inst.tier_breaker("tier1").unwrap().state() == BreakerState::Closed {
                break;
            }
        }
        assert_eq!(
            inst.tier_breaker("tier1").unwrap().state(),
            BreakerState::Closed,
            "healed tier must close again via probes"
        );
        assert!(!inst.browned_out());
    }

    #[test]
    fn reads_of_evicted_cache_copies_leave_the_tier_breaker_closed() {
        // A small write-through cache: the first keys written are evicted
        // from tier1 and served by tier2. A miss is no tier failure.
        let src = "Tiera T() {
            event(insert.into) : response {
                store(what:insert.object, to:tier1);
                copy(what:insert.object, to:tier2);
            }
        }";
        let compiled = compile(&parse(src).unwrap()).unwrap();
        let cfg = InstanceConfig::new("evicted-reads", Region::UsEast)
            .with_tier("tier1", "Memcached", 16 * 1000)
            .with_tier("tier2", "EBS", 1 << 30)
            .with_rules(compiled.rules);
        let clock = ManualClock::new();
        let inst = TieraInstance::build(cfg, clock.clone()).unwrap();
        let mem = inst.tier("tier1").unwrap().as_local().unwrap().clone();
        let key = |i: usize| format!("k{i:02}");
        for i in 0..32 {
            clock.advance(SimDuration::from_millis(1));
            inst.put(&key(i), bytes(1000)).unwrap();
        }
        assert_eq!(mem.len(), 16);
        for i in 0..12 {
            clock.advance(SimDuration::from_millis(1));
            assert_eq!(inst.get(&key(i)).unwrap().value.unwrap().len(), 1000);
            assert_eq!(inst.location_of(&key(i)), Some("tier2"), "healed");
        }
        let breaker = inst.tier_breaker("tier1").unwrap();
        assert_eq!(breaker.state(), BreakerState::Closed);
        // A resident key is still read from the cache, not deferred.
        let hits = mem.stats.snapshot().gets;
        inst.get(&key(31)).unwrap();
        assert_eq!(mem.stats.snapshot().gets, hits + 1);
        let snap = wiera_sim::MetricsRegistry::global().snapshot();
        let deferrals = "tiera_tier_deferrals{instance=evicted-reads,tier=tier1}";
        assert_eq!(snap.counters.get(deferrals).copied().unwrap_or(0), 0);
    }

    #[test]
    fn stats_count_app_operations() {
        let inst = basic_instance();
        inst.put("k", bytes(1)).unwrap();
        inst.get("k").unwrap();
        inst.get("k").unwrap();
        assert_eq!(inst.stats.app_puts.load(Ordering::Relaxed), 1);
        assert_eq!(inst.stats.app_gets.load(Ordering::Relaxed), 2);
    }
}
