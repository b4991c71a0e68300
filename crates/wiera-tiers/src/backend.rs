//! The live tier backend.
//!
//! A [`SimTier`] behaves like one storage service inside one DC: it stores
//! real bytes, charges modeled latency per operation (sampled from the
//! tier's [`TierSpec`]), enforces capacity (with LRU eviction for volatile
//! cache tiers, like Memcached does), applies IOPS token-bucket throttling
//! (Azure's 500-IOPS disk), meters cost, and supports the failure and
//! degradation injection the Wiera monitors react to.
//!
//! Operations return their modeled duration; callers (the Tiera instance)
//! decide whether to also sleep the scaled wall time.
//!
//! A slot holds one version of one object, named by `(key, version)`: an
//! instance stores each version of a key in its own slot, and a tier used
//! as a plain key-value store ([`SimTier::put`], [`SimTier::get`]) keeps
//! one slot per key, version 0. A key's own map entry holds one version,
//! normally its newest, so a put that takes over the slot of the version it
//! prunes rewrites that entry in place and the map never turns a key over.

use crate::cost::CostMeter;
use crate::spec::TierSpec;
use bytes::Bytes;
use parking_lot::Mutex;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use wiera_sim::hash::{fnv1a, FnvBuildHasher, ShortKey};
use wiera_sim::lockreg::TrackedRwLock;
use wiera_sim::registry::{CounterHandle, OpSeries};
use wiera_sim::{MetricsRegistry, SharedClock, SimDuration, SimInstant, SimRng};

/// Number of independently locked key partitions per tier.
const TIER_SHARDS: usize = 16;

/// Stable key → shard mapping (FNV-1a, endian-independent): every version
/// of a key sits in one shard.
fn shard_of(key: &str) -> usize {
    (fnv1a(key.as_bytes()) % TIER_SHARDS as u64) as usize
}

/// A slot's name: an object key (inline up to 23 bytes) and a version.
type SlotKey = (ShortKey, u64);

/// Errors a storage tier can surface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TierError {
    /// Object absent.
    NotFound,
    /// Non-evicting tier has no room for the object.
    Full { capacity: u64, used: u64, need: u64 },
    /// Object larger than the whole tier.
    TooLarge { capacity: u64, need: u64 },
    /// Service is down (crash / maintenance injection).
    Down,
}

impl std::fmt::Display for TierError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TierError::NotFound => write!(f, "object not found"),
            TierError::Full {
                capacity,
                used,
                need,
            } => {
                write!(f, "tier full: capacity={capacity} used={used} need={need}")
            }
            TierError::TooLarge { capacity, need } => {
                write!(f, "object ({need}B) exceeds tier capacity ({capacity}B)")
            }
            TierError::Down => write!(f, "tier is down"),
        }
    }
}

impl std::error::Error for TierError {}

pub type TierResult<T> = Result<T, TierError>;

/// Operation counters for one tier.
#[derive(Debug, Default)]
pub struct TierStats {
    pub puts: AtomicU64,
    pub gets: AtomicU64,
    pub deletes: AtomicU64,
    pub evictions: AtomicU64,
    pub cache_hits: AtomicU64,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TierStatsSnapshot {
    pub puts: u64,
    pub gets: u64,
    pub deletes: u64,
    pub evictions: u64,
    pub cache_hits: u64,
}

impl TierStats {
    pub fn snapshot(&self) -> TierStatsSnapshot {
        TierStatsSnapshot {
            puts: self.puts.load(Ordering::Relaxed),
            gets: self.gets.load(Ordering::Relaxed),
            deletes: self.deletes.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
        }
    }
}

struct Slot {
    version: u64,
    data: Bytes,
    last_access: SimInstant,
}

/// One independently locked partition of the slot map, with the age list
/// eviction reads.
#[derive(Default)]
struct SlotShard {
    /// One slot per key, normally its newest version's.
    newest: HashMap<ShortKey, Slot, FnvBuildHasher>,
    /// Every other slot.
    older: HashMap<SlotKey, Slot, FnvBuildHasher>,
    /// `(last_access, key)` of every slot as of the last rebuild, oldest
    /// first; an entry is current while its slot still carries that stamp.
    /// A slot touched since the rebuild was touched after every entry, so
    /// the first current entry is the shard's least recently used slot. A
    /// hit only stores a stamp: when its op read the clock, before the guard.
    by_age: VecDeque<(SimInstant, SlotKey)>,
}

impl SlotShard {
    fn slot(&self, key: &str, version: u64) -> Option<&Slot> {
        match self.newest.get(key) {
            Some(s) if s.version == version => Some(s),
            _ => self.older.get(&(ShortKey::new(key), version)),
        }
    }

    fn slot_mut(&mut self, key: &str, version: u64) -> Option<&mut Slot> {
        match self.newest.get_mut(key) {
            Some(s) if s.version == version => Some(s),
            _ => self.older.get_mut(&(ShortKey::new(key), version)),
        }
    }

    /// Store `slot` over its version's slot, and drop version `replaces`'
    /// slot, once `reserve(freed, released)`, asked with their bytes, is
    /// `Ok`; on `Err` hand the slot back. A newer version takes the key's
    /// entry, moving the one it held to `older` unless that is `replaces`.
    /// Probes the entry once, and `older` only when it is not empty.
    fn write_slot(
        &mut self,
        key: &str,
        slot: Slot,
        replaces: Option<u64>,
        reserve: impl FnOnce(u64, u64) -> Result<u64, u64>,
    ) -> Result<u64, (u64, Slot)> {
        let older = &mut self.older;
        let entry = self.newest.entry(ShortKey::new(key));
        let held = match &entry {
            Entry::Occupied(e) => Some((e.get().version, e.get().data.len() as u64)),
            Entry::Vacant(_) => None,
        };
        let sized = |v| match held {
            Some((h, bytes)) if h == v => (bytes, false),
            _ if older.is_empty() => (0, false),
            _ => match older.get(&(ShortKey::new(key), v)) {
                Some(s) => (s.data.len() as u64, true),
                None => (0, false),
            },
        };
        let (freed, released) = (sized(slot.version), replaces.map_or((0, false), sized));
        let used = match reserve(freed.0, released.0) {
            Ok(used) => used,
            Err(over) => return Err((over, slot)),
        };
        for (v, (_, in_older)) in [(slot.version, freed), (replaces.unwrap_or(0), released)] {
            if in_older {
                older.remove(&(ShortKey::new(key), v));
            }
        }
        match entry {
            Entry::Vacant(e) => {
                e.insert(slot);
            }
            Entry::Occupied(mut e) => match e.get().version {
                h if h == slot.version || Some(h) == replaces => drop(e.insert(slot)),
                h if h < slot.version => {
                    let held = e.insert(slot);
                    older.insert((ShortKey::new(key), h), held);
                }
                _ => drop(older.insert((ShortKey::new(key), slot.version), slot)),
            },
        }
        Ok(used)
    }

    fn remove(&mut self, key: &str, version: u64) -> Option<Slot> {
        match self.newest.get(key) {
            Some(s) if s.version == version => self.newest.remove(key),
            _ => self.older.remove(&(ShortKey::new(key), version)),
        }
    }

    fn slots(&self) -> impl Iterator<Item = (&str, &Slot)> {
        let older = self.older.iter().map(|((k, _), s)| (k.as_str(), s));
        self.newest
            .iter()
            .map(|(k, s)| (k.as_str(), s))
            .chain(older)
    }

    fn is_current(&self, (at, (key, version)): &(SimInstant, SlotKey)) -> bool {
        self.slot(key, *version)
            .is_some_and(|s| s.last_access == *at)
    }

    fn rebuild(&mut self) {
        let stamp = |(k, s): (&str, &Slot)| (s.last_access, (ShortKey::new(k), s.version));
        self.by_age = self.slots().map(stamp).collect();
        self.by_age
            .make_contiguous()
            .sort_unstable_by_key(|(at, _)| *at);
    }

    /// The least recently used slot other than `protect`: its stamp and key.
    /// Pops the stale entries ahead of it; when nothing but `protect` is
    /// listed, the slots touched since the last rebuild are not listed yet,
    /// so the list is rebuilt once.
    fn oldest_except(&mut self, protect: (&str, u64)) -> Option<(SimInstant, SlotKey)> {
        for rebuild in [false, true] {
            if rebuild {
                self.rebuild();
            }
            while self.by_age.front().is_some_and(|e| !self.is_current(e)) {
                self.by_age.pop_front();
            }
            let mut entries = self.by_age.iter();
            let found = match entries.next() {
                Some((_, (k, v))) if (k.as_str(), *v) == protect => {
                    entries.find(|e| self.is_current(e))
                }
                head => head,
            };
            if found.is_some() {
                return found.cloned();
            }
        }
        None
    }
}

/// The ops a tier records with their latency, in the order of
/// [`SimTier::series`] and of their labels in `note_op`.
#[derive(Clone, Copy)]
enum TierOp {
    Put,
    Get,
}

/// One simulated storage service instance. The slot map is sharded
/// ([`TIER_SHARDS`] independently locked partitions), and `used` is kept
/// with a compare-and-swap reservation per put, so a put is O(1) in slots.
pub struct SimTier {
    spec: TierSpec,
    capacity: AtomicU64,
    clock: SharedClock,
    rng: Mutex<SimRng>,
    shards: Vec<TrackedRwLock<SlotShard>>,
    used: AtomicU64,
    /// Token-bucket state for IOPS throttling: earliest time the next
    /// operation may start.
    next_free: Mutex<SimInstant>,
    /// Latency multiplier ≥ 1.0 for degradation injection, as `f64` bits:
    /// every latency sample reads it.
    degraded: AtomicU64,
    down: AtomicBool,
    /// Runtime page-cache toggle (in addition to the spec's static flag):
    /// models freeing/consuming the VM's memory at run time.
    page_cache_on: AtomicBool,
    pub stats: TierStats,
    meter: CostMeter,
    /// Cached `{tier=<kind>}` label value for registry recording.
    kind_label: String,
    /// Each op's registry series, resolved on its first record.
    series: [OnceLock<OpSeries>; 2],
    /// The deletes' `tier_ops_total` counter: a delete reclaims bytes no
    /// version names any more, and has no latency anyone waits for.
    deletes: OnceLock<Arc<CounterHandle>>,
}

impl SimTier {
    pub fn new(spec: TierSpec, capacity: u64, clock: SharedClock, seed: u64) -> Arc<Self> {
        let now = clock.now();
        let spec_page_cache = spec.page_cache;
        Arc::new(SimTier {
            rng: Mutex::new(SimRng::new(seed).child(&format!("tier:{}", spec.kind))),
            kind_label: spec.kind.to_string(),
            spec,
            capacity: AtomicU64::new(capacity),
            clock: clock.clone(),
            shards: (0..TIER_SHARDS)
                .map(|_| TrackedRwLock::new("tiers.slots", SlotShard::default()))
                .collect(),
            used: AtomicU64::new(0),
            next_free: Mutex::new(now),
            degraded: AtomicU64::new(1.0f64.to_bits()),
            down: AtomicBool::new(false),
            page_cache_on: AtomicBool::new(spec_page_cache),
            stats: TierStats::default(),
            meter: CostMeter::new(now),
            series: Default::default(),
            deletes: OnceLock::new(),
        })
    }

    pub fn spec(&self) -> &TierSpec {
        &self.spec
    }

    pub fn capacity(&self) -> u64 {
        self.capacity.load(Ordering::Relaxed)
    }

    /// Enlarge the tier (the `grow` response from the Tiera vocabulary).
    pub fn grow(&self, by: u64) {
        self.capacity.fetch_add(by, Ordering::Relaxed);
    }

    /// Toggle the OS page cache at run time (the paper throttles VM memory
    /// to turn it off; freeing memory turns it back on).
    pub fn set_page_cache(&self, on: bool) {
        self.page_cache_on.store(on, Ordering::Relaxed);
    }

    pub fn used_bytes(&self) -> u64 {
        self.used.load(Ordering::Relaxed)
    }

    pub fn filled_fraction(&self) -> f64 {
        if self.capacity() == 0 {
            0.0
        } else {
            self.used_bytes() as f64 / self.capacity() as f64
        }
    }

    pub fn len(&self) -> usize {
        let len = |s: &SlotShard| s.newest.len() + s.older.len();
        self.shards.iter().map(|s| len(&s.read())).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn meter(&self) -> &CostMeter {
        &self.meter
    }

    /// Sampled native latency for an op of `bytes`, including degradation.
    fn native_latency(&self, read: bool, bytes: u64) -> SimDuration {
        let dist = if read {
            &self.spec.get_latency
        } else {
            &self.spec.put_latency
        };
        let base = dist.sample(&mut self.rng.lock());
        let xfer =
            SimDuration::from_millis_f64(self.spec.per_mib_ms * bytes as f64 / (1024.0 * 1024.0));
        (base + xfer) * f64::from_bits(self.degraded.load(Ordering::Relaxed))
    }

    /// Apply the IOPS token bucket to an op arriving at `now`; returns
    /// queueing delay.
    fn throttle(&self, now: SimInstant) -> SimDuration {
        let Some(iops) = self.spec.iops_cap else {
            return SimDuration::ZERO;
        };
        let gap = SimDuration::from_secs_f64(1.0 / iops.max(1e-9));
        let mut nf = self.next_free.lock();
        let start = if *nf > now { *nf } else { now };
        *nf = start + gap;
        let wait = start - now;
        if wait > SimDuration::ZERO {
            MetricsRegistry::global().observe(
                "tier_throttle_wait",
                &[("tier", &self.kind_label)],
                wait,
            );
        }
        wait
    }

    fn check_up(&self) -> TierResult<()> {
        if self.down.load(Ordering::Acquire) {
            Err(TierError::Down)
        } else {
            Ok(())
        }
    }

    /// Record one completed operation into the shared registry.
    fn note_op(&self, op: TierOp, lat: SimDuration) {
        let series = self.series[op as usize].get_or_init(|| {
            let op = ["put", "get"][op as usize];
            let labels = [("tier", self.kind_label.as_str()), ("op", op)];
            let metrics = MetricsRegistry::global();
            OpSeries {
                total: metrics.counter("tier_ops_total", &labels),
                latency: metrics.histogram("tier_op_latency", &labels),
            }
        });
        series.record(1, lat);
    }

    fn note_capacity_rejection(&self) {
        MetricsRegistry::global().inc("tier_capacity_rejections", &[("tier", &self.kind_label)]);
    }

    /// Store an object (overwrite allowed). Returns modeled latency.
    ///
    /// Capacity is reserved with a compare-and-swap on the incremental
    /// `used` counter while the key's shard is locked (the overwritten
    /// slot's size cannot change underneath the reservation), so the path
    /// is O(1) in stored objects. When a volatile tier is over capacity the
    /// shard lock is released and globally-LRU victims are evicted one at a
    /// time — at most one shard lock is ever held.
    pub fn put(&self, key: &str, val: Bytes) -> TierResult<SimDuration> {
        self.put_at(key, 0, val, self.clock.now(), None)
    }

    /// [`SimTier::put`] of one version of `key`, by an op that read the
    /// clock at `now`; given `replaces` (not `version`), also that version's
    /// [`SimTier::delete_at`] under the same lock, counted as one.
    pub fn put_at(
        &self,
        key: &str,
        version: u64,
        val: Bytes,
        now: SimInstant,
        replaces: Option<u64>,
    ) -> TierResult<SimDuration> {
        self.check_up()?;
        let need = val.len() as u64;
        let capacity = self.capacity();
        if need > capacity {
            self.note_capacity_rejection();
            return Err(TierError::TooLarge { capacity, need });
        }
        let lat = self.throttle(now) + self.native_latency(false, need);
        let home = shard_of(key);
        let replaces = replaces.filter(|&p| p != version);
        let mut slot = Slot {
            version,
            data: val,
            last_access: now,
        };
        loop {
            let put =
                self.shards[home]
                    .write()
                    .write_slot(key, slot, replaces, |freed, released| {
                        self.try_reserve(freed, need, released, capacity)
                    });
            let (over, back) = match put {
                Ok(new_used) => {
                    self.meter.note_put(new_used, now);
                    self.stats.puts.fetch_add(1, Ordering::Relaxed);
                    self.note_op(TierOp::Put, lat);
                    if replaces.is_some() {
                        self.note_delete();
                    }
                    return Ok(lat);
                }
                Err(failed) => failed,
            };
            slot = back;
            // Over capacity. Durable tiers reject; volatile tiers evict the
            // globally least-recently-used object and retry (shard lock is
            // released first — eviction locks one shard at a time).
            if !self.spec.kind.volatile() || !self.evict_one_lru((key, version)) {
                self.note_capacity_rejection();
                return Err(TierError::Full {
                    capacity,
                    used: over,
                    need,
                });
            }
        }
    }

    /// Atomically reserve `need - freed` bytes against `capacity`, then give
    /// back `released`. Returns the new used total, or `Err(used excluding
    /// freed)` when it does not fit. Call with their slots' shard locked.
    fn try_reserve(&self, freed: u64, need: u64, released: u64, capacity: u64) -> Result<u64, u64> {
        let mut cur = self.used.load(Ordering::Relaxed);
        loop {
            let without = cur - freed;
            if without + need > capacity {
                return Err(without);
            }
            match self.used.compare_exchange_weak(
                cur,
                without + need - released,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Ok(without + need - released),
                Err(actual) => cur = actual,
            }
        }
    }

    /// Evict the globally least-recently-used slot (excluding `protect`):
    /// the oldest of the shards' oldest slots, removed under its own shard
    /// lock; never holds two shard locks. Returns false when there is
    /// nothing to evict.
    fn evict_one_lru(&self, protect: (&str, u64)) -> bool {
        let mut victim: Option<(usize, (SimInstant, SlotKey))> = None;
        for (i, shard) in self.shards.iter().enumerate() {
            let Some(entry) = shard.write().oldest_except(protect) else {
                continue;
            };
            if victim.as_ref().is_none_or(|v| entry.0 < v.1 .0) {
                victim = Some((i, entry));
            }
        }
        let Some((i, entry)) = victim else {
            return false;
        };
        let mut shard = self.shards[i].write();
        // A victim read, rewritten or removed since its shard was looked at
        // is no longer the oldest; report progress so the caller re-checks
        // capacity and looks again.
        if shard.is_current(&entry) {
            let (_, (key, version)) = &entry;
            if let Some(slot) = shard.remove(key, *version) {
                self.used
                    .fetch_sub(slot.data.len() as u64, Ordering::Relaxed);
                self.stats.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        true
    }

    /// Fetch an object. Returns the bytes and modeled latency.
    pub fn get(&self, key: &str) -> TierResult<(Bytes, SimDuration)> {
        self.get_at(key, 0, self.clock.now())
    }

    /// [`SimTier::get`] of one version of `key`, by an op that read the
    /// clock at `now`.
    pub fn get_at(
        &self,
        key: &str,
        version: u64,
        now: SimInstant,
    ) -> TierResult<(Bytes, SimDuration)> {
        self.check_up()?;
        let data = {
            let mut shard = self.shards[shard_of(key)].write();
            let slot = shard.slot_mut(key, version).ok_or(TierError::NotFound)?;
            slot.last_access = now;
            slot.data.clone()
        };
        let lat = if self.page_cache_on.load(Ordering::Relaxed) {
            self.stats.cache_hits.fetch_add(1, Ordering::Relaxed);
            self.spec.cache_hit_latency.sample(&mut self.rng.lock())
        } else {
            self.throttle(now) + self.native_latency(true, data.len() as u64)
        };
        self.stats.gets.fetch_add(1, Ordering::Relaxed);
        self.meter.note_get();
        self.note_op(TierOp::Get, lat);
        Ok((data, lat))
    }

    /// Remove an object. Removing a missing key is not an error (idempotent,
    /// like S3 DELETE). A delete reclaims bytes and models no latency.
    pub fn delete(&self, key: &str) -> TierResult<()> {
        self.delete_at(key, 0, self.clock.now())
    }

    /// [`SimTier::delete`] of one version of `key`, by an op that read the
    /// clock at `now`.
    pub fn delete_at(&self, key: &str, version: u64, now: SimInstant) -> TierResult<()> {
        self.check_up()?;
        if let Some(slot) = self.shards[shard_of(key)].write().remove(key, version) {
            let freed = slot.data.len() as u64;
            let new_used = self.used.fetch_sub(freed, Ordering::Relaxed) - freed;
            self.meter.set_bytes(new_used, now);
        }
        self.note_delete();
        Ok(())
    }

    /// Count one delete, a [`SimTier::delete_at`] or a put's takeover.
    fn note_delete(&self) {
        self.stats.deletes.fetch_add(1, Ordering::Relaxed);
        self.deletes
            .get_or_init(|| {
                let labels = [("tier", self.kind_label.as_str()), ("op", "delete")];
                MetricsRegistry::global().counter("tier_ops_total", &labels)
            })
            .inc();
    }

    pub fn contains(&self, key: &str) -> bool {
        self.holds(key, 0)
    }

    /// Whether the tier holds version `version` of `key`.
    pub fn holds(&self, key: &str, version: u64) -> bool {
        let shard = self.shards[shard_of(key)].read();
        shard.slot(key, version).is_some()
    }

    /// Every slot's object key and version (unordered).
    pub fn keys(&self) -> Vec<(ShortKey, u64)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let shard = shard.read();
            out.extend(shard.slots().map(|(k, s)| (ShortKey::new(k), s.version)));
        }
        out
    }

    /// Modeled time the object at `key` was last read or written.
    pub fn last_access(&self, key: &str) -> Option<SimInstant> {
        let shard = self.shards[shard_of(key)].read();
        shard.slot(key, 0).map(|s| s.last_access)
    }

    // ---- failure / degradation injection ---------------------------------

    /// Take the service down (ops fail with [`TierError::Down`]). Volatile
    /// tiers lose their contents, like a crashed Memcached node.
    pub fn set_down(&self, down: bool) {
        self.down.store(down, Ordering::Release);
        if down && self.spec.kind.volatile() {
            self.wipe();
        }
    }

    /// Multiply all native latencies by `factor` (≥ 1.0): a "poorly
    /// performing data tier" for dynamic policies to react to.
    pub fn set_degraded(&self, factor: f64) {
        self.degraded
            .store(factor.max(1.0).to_bits(), Ordering::Relaxed);
    }

    /// Drop all contents (volatile-tier crash, or test reset). Shards are
    /// cleared one at a time; `used` shrinks by exactly the bytes freed so
    /// concurrent puts keep accurate accounting.
    pub fn wipe(&self) {
        let now = self.clock.now();
        for shard in &self.shards {
            let mut shard = shard.write();
            let freed: u64 = shard.slots().map(|(_, s)| s.data.len() as u64).sum();
            *shard = SlotShard::default();
            drop(shard);
            self.used.fetch_sub(freed, Ordering::Relaxed);
        }
        self.meter.set_bytes(self.used.load(Ordering::Relaxed), now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kind::TierKind;
    use wiera_sim::{Clock, ManualClock, SimRng};

    fn mem(capacity: u64) -> Arc<SimTier> {
        SimTier::new(
            TierSpec::of(TierKind::Memcached),
            capacity,
            ManualClock::new(),
            1,
        )
    }

    fn ssd(capacity: u64) -> Arc<SimTier> {
        SimTier::new(
            TierSpec::of(TierKind::EbsSsd),
            capacity,
            ManualClock::new(),
            1,
        )
    }

    fn payload(n: usize) -> Bytes {
        Bytes::from(vec![0xABu8; n])
    }

    #[test]
    fn put_get_roundtrip() {
        let t = ssd(1 << 20);
        let lat = t.put("k1", payload(4096)).unwrap();
        assert!(lat > SimDuration::ZERO);
        let (data, glat) = t.get("k1").unwrap();
        assert_eq!(data.len(), 4096);
        assert!(glat > SimDuration::ZERO);
        assert_eq!(t.used_bytes(), 4096);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn get_missing_is_not_found() {
        let t = ssd(1 << 20);
        assert!(matches!(t.get("nope"), Err(TierError::NotFound)));
    }

    #[test]
    fn overwrite_replaces_and_accounts() {
        let t = ssd(1 << 20);
        t.put("k", payload(1000)).unwrap();
        t.put("k", payload(500)).unwrap();
        assert_eq!(t.used_bytes(), 500);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn delete_is_idempotent() {
        let t = ssd(1 << 20);
        t.put("k", payload(100)).unwrap();
        t.delete("k").unwrap();
        assert_eq!(t.used_bytes(), 0);
        t.delete("k").unwrap(); // no error
        assert!(!t.contains("k"));
    }

    #[test]
    fn a_version_has_one_slot_after_its_keys_newest_is_gone() {
        let t = ssd(1 << 20);
        let now = SimInstant::EPOCH;
        for v in 1..=4 {
            t.put_at("k", v, payload(100), now, None).unwrap();
        }
        // The newest slot goes; versions 1-3 stay in the side map.
        t.delete_at("k", 4, now).unwrap();
        t.put_at("k", 2, payload(10), now, None).unwrap();
        t.put_at("k", 0, payload(1), now, None).unwrap();
        t.put_at("k", 3, payload(20), now, None).unwrap();
        assert_eq!((t.len(), t.used_bytes()), (4, 100 + 10 + 20 + 1));
        assert_eq!(t.get_at("k", 3, now).unwrap().0.len(), 20);
        for v in [0, 1, 2, 3] {
            t.delete_at("k", v, now).unwrap();
            assert!(!t.holds("k", v), "v{v} deleted, no copy left");
        }
        assert_eq!((t.len(), t.used_bytes()), (0, 0));
    }

    #[test]
    fn a_takeover_leaves_what_a_put_then_a_delete_leaves() {
        // Few keys and versions in any order, so a put meets its version
        // and the one it replaces in the key's entry, in the side map or
        // nowhere; a small tier makes some puts evict or fail.
        for kind in [TierKind::Memcached, TierKind::EbsSsd] {
            let clock = ManualClock::new();
            let tier = |seed| SimTier::new(TierSpec::of(kind), 2000, clock.clone(), seed);
            let (taking, twin) = (tier(1), tier(1));
            let mut rng = SimRng::new(9);
            for op in 0..4000 {
                clock.advance(SimDuration::from_micros(1));
                let now = clock.now();
                let key = ["a", "b", "c"][rng.gen_range_usize(0, 3)];
                let version = rng.gen_range_usize(0, 5) as u64;
                match rng.gen_range_usize(0, 10) {
                    0..=5 => {
                        let val = payload(rng.gen_range_usize(0, 700));
                        let replaces = rng.gen_range_usize(0, 6) as u64;
                        let taken = taking.put_at(key, version, val.clone(), now, Some(replaces));
                        let put = twin.put_at(key, version, val, now, None);
                        assert_eq!(taken, put, "{kind} op {op}");
                        if put.is_ok() && replaces != version {
                            twin.delete_at(key, replaces, now).unwrap();
                        }
                    }
                    6..=7 => {
                        let got = taking.get_at(key, version, now).map(|g| g.0);
                        assert_eq!(got, twin.get_at(key, version, now).map(|g| g.0));
                    }
                    _ => {
                        taking.delete_at(key, version, now).unwrap();
                        twin.delete_at(key, version, now).unwrap();
                    }
                }
                let slots = [&taking, &twin].map(|t| {
                    let mut slots: Vec<_> =
                        t.keys().iter().map(|(k, v)| (k.to_string(), *v)).collect();
                    slots.sort();
                    slots
                });
                assert_eq!(slots[0], slots[1], "{kind} op {op}");
                assert_eq!(taking.used_bytes(), twin.used_bytes(), "{kind} op {op}");
                assert_eq!(taking.stats.snapshot(), twin.stats.snapshot());
            }
            let held: usize = taking
                .keys()
                .iter()
                .map(|(k, v)| taking.get_at(k, *v, clock.now()).unwrap().0.len())
                .sum();
            assert_eq!(taking.used_bytes(), held as u64, "{kind}");
            assert!(taking.stats.snapshot().deletes > 1000, "{kind}");
        }
    }

    #[test]
    fn durable_tier_rejects_when_full() {
        let t = ssd(1000);
        t.put("a", payload(800)).unwrap();
        match t.put("b", payload(400)) {
            Err(TierError::Full { used, need, .. }) => {
                assert_eq!(used, 800);
                assert_eq!(need, 400);
            }
            other => panic!("expected Full, got {other:?}"),
        }
    }

    #[test]
    fn oversized_object_rejected() {
        let t = ssd(1000);
        assert!(matches!(
            t.put("a", payload(2000)),
            Err(TierError::TooLarge { .. })
        ));
    }

    #[test]
    fn volatile_tier_evicts_lru() {
        let clock = ManualClock::new();
        let t = SimTier::new(TierSpec::of(TierKind::Memcached), 1000, clock.clone(), 1);
        t.put("old", payload(400)).unwrap();
        clock.advance(SimDuration::from_secs(1));
        t.put("newer", payload(400)).unwrap();
        clock.advance(SimDuration::from_secs(1));
        // Touch "old" so "newer" becomes the LRU victim.
        t.get("old").unwrap();
        clock.advance(SimDuration::from_secs(1));
        t.put("third", payload(400)).unwrap();
        assert!(t.contains("old"));
        assert!(!t.contains("newer"), "LRU victim should be evicted");
        assert!(t.contains("third"));
        assert_eq!(t.stats.snapshot().evictions, 1);
    }

    #[test]
    fn rewriting_the_oldest_slot_evicts_the_next_oldest_never_itself() {
        // `mate` shares the rewritten key's shard; in one variant its age
        // entry is still current, in the other a read made it stale, so the
        // next-oldest slot is found only by rebuilding the shard's list.
        for touch_mate in [false, true] {
            let clock = ManualClock::new();
            let t = SimTier::new(TierSpec::of(TierKind::Memcached), 1000, clock.clone(), 1);
            let tick = || clock.advance(SimDuration::from_micros(1));
            let home = shard_of("k0");
            let name = |i: usize| format!("k{i}");
            let mate = (1..).map(name).find(|k| shard_of(k) == home).unwrap();
            let others: Vec<String> = (1..)
                .map(name)
                .filter(|k| shard_of(k) != home)
                .take(3)
                .collect();
            for k in [&others[0], &name(0), &mate, &others[1]] {
                tick();
                t.put(k, payload(250)).unwrap();
            }
            // Evicting the global oldest lists every shard: k0 heads its own.
            tick();
            t.put(&others[2], payload(250)).unwrap();
            assert!(!t.contains(&others[0]));
            if touch_mate {
                tick();
                t.get(&mate).unwrap();
            }
            for k in &others[1..] {
                tick();
                t.get(k).unwrap();
            }
            tick();
            t.put("k0", payload(500)).unwrap();
            assert!(t.contains("k0"), "touch_mate={touch_mate}");
            assert!(!t.contains(&mate), "touch_mate={touch_mate}");
            assert!(others[1..].iter().all(|k| t.contains(k)));
            assert_eq!(t.stats.snapshot().evictions, 2);
            assert_eq!(t.used_bytes(), 1000);
        }
    }

    #[test]
    fn latency_ordering_matches_fig9() {
        let clock = ManualClock::new();
        let mk = |k: TierKind| SimTier::new(TierSpec::of(k), 1 << 30, clock.clone(), 7);
        let tiers = [
            mk(TierKind::EbsSsd),
            mk(TierKind::EbsHdd),
            mk(TierKind::S3),
            mk(TierKind::S3Ia),
        ];
        let mut means = Vec::new();
        for t in &tiers {
            let mut total = SimDuration::ZERO;
            for i in 0..200 {
                let key = format!("k{i}");
                t.put(&key, payload(4096)).unwrap();
                let (_, lat) = t.get(&key).unwrap();
                total += lat;
            }
            means.push(total.as_millis_f64() / 200.0);
        }
        assert!(means[0] < means[1], "SSD {} < HDD {}", means[0], means[1]);
        assert!(means[1] < means[2], "HDD {} < S3 {}", means[1], means[2]);
        assert!(
            means[2] <= means[3] * 1.2,
            "S3 {} ~<= S3-IA {}",
            means[2],
            means[3]
        );
    }

    #[test]
    fn page_cache_short_circuits_reads() {
        let clock = ManualClock::new();
        let spec = TierSpec::of(TierKind::EbsHdd).with_page_cache(true);
        let t = SimTier::new(spec, 1 << 20, clock, 3);
        t.put("k", payload(4096)).unwrap();
        let (_, lat) = t.get("k").unwrap();
        assert!(
            lat.as_millis_f64() < 1.0,
            "cached read {lat} should be <1ms"
        );
        assert_eq!(t.stats.snapshot().cache_hits, 1);
    }

    #[test]
    fn iops_cap_throttles_throughput() {
        let clock = ManualClock::new();
        let t = SimTier::new(TierSpec::of(TierKind::AzureDisk), 1 << 30, clock.clone(), 5);
        // Issue 100 back-to-back ops at the same modeled instant: the token
        // bucket must spread them at 1/500s intervals, so total queue delay
        // for the Nth op approaches N * 2ms.
        let mut last = SimDuration::ZERO;
        for i in 0..100 {
            let lat = t.put(&format!("k{i}"), payload(128)).unwrap();
            last = lat;
        }
        // 99 ops ahead in the queue → ≥ 99 * 2ms of queueing.
        assert!(last.as_millis_f64() > 99.0 * 2.0, "100th op latency {last}");
    }

    #[test]
    fn down_tier_fails_and_volatile_loses_data() {
        let t = mem(1 << 20);
        t.put("k", payload(10)).unwrap();
        t.set_down(true);
        assert!(matches!(t.get("k"), Err(TierError::Down)));
        assert!(matches!(t.put("x", payload(1)), Err(TierError::Down)));
        t.set_down(false);
        assert!(!t.contains("k"), "memcached crash loses contents");
    }

    #[test]
    fn durable_tier_survives_downtime() {
        let t = ssd(1 << 20);
        t.put("k", payload(10)).unwrap();
        t.set_down(true);
        t.set_down(false);
        assert!(t.contains("k"));
    }

    #[test]
    fn degradation_multiplies_latency() {
        let t = ssd(1 << 20);
        t.put("k", payload(4096)).unwrap();
        let (_, base) = t.get("k").unwrap();
        t.set_degraded(10.0);
        let (_, slow) = t.get("k").unwrap();
        assert!(
            slow.as_millis_f64() > base.as_millis_f64() * 3.0,
            "{base} -> {slow}"
        );
    }

    #[test]
    fn filled_fraction_tracks_usage() {
        let t = ssd(1000);
        assert_eq!(t.filled_fraction(), 0.0);
        t.put("a", payload(500)).unwrap();
        assert!((t.filled_fraction() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn meter_counts_requests() {
        let clock = ManualClock::new();
        let t = SimTier::new(TierSpec::of(TierKind::S3), 1 << 20, clock.clone(), 1);
        t.put("k", payload(10)).unwrap();
        t.get("k").unwrap();
        t.get("k").unwrap();
        let u = t.meter().usage(clock.now());
        assert_eq!(u.puts, 1);
        assert_eq!(u.gets, 2);
    }

    #[test]
    fn last_access_updates_on_get() {
        let clock = ManualClock::new();
        let t = SimTier::new(TierSpec::of(TierKind::EbsSsd), 1 << 20, clock.clone(), 1);
        t.put("k", payload(10)).unwrap();
        let t1 = t.last_access("k").unwrap();
        clock.advance(SimDuration::from_hours(5));
        t.get("k").unwrap();
        let t2 = t.last_access("k").unwrap();
        assert_eq!(t2.elapsed_since(t1), SimDuration::from_hours(5));
        assert_eq!(t.last_access("missing"), None);
    }
}
