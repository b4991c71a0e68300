//! Object-metadata store — the BerkeleyDB stand-in.
//!
//! The paper stores and persists all object metadata in BerkeleyDB (§4.2).
//! Here the store is an in-memory map with snapshot/restore to a serialized
//! byte image, which is what instance recovery needs from it.
//!
//! The map is **sharded**: keys are partitioned by FNV-1a hash into
//! [`META_SHARDS`] independent `TrackedRwLock`ed hash maps, so writers to
//! different keys never serialize on one engine-wide lock, and
//! `apply_batch` can group a bulk request by shard and take each shard's
//! lock exactly once per batch ([`MetaStore::shard_write`]). A shard is a
//! `HashMap` with the deterministic FNV hasher, so an op costs one hash
//! lookup, not a walk down B-tree nodes comparing key strings.
//!
//! A shard keys on [`ShortKey`] (a key of up to 23 bytes sits in the
//! bucket) and an [`ObjectMeta`] keeps its versions in one sorted vector;
//! DESIGN.md §11 has the rest of what one op touches.
//!
//! Nothing reads a shard in its own order: whole-store reads (`keys`,
//! cold-data sweeps, snapshots) visit shards one at a time — never holding
//! two shard locks of one store at once, which keeps wiera-check's
//! same-class-nesting rule clean — and sort or merge what they collect.
//! The snapshot image is one key-sorted map, whatever the insertion order,
//! in the format the B-tree layout wrote: tiers by label, not by index.

use crate::object::{ObjectMeta, TierSet, VersionId, VersionMeta};
use serde::Value;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use wiera_sim::hash::{fnv1a, FnvBuildHasher, ShortKey};
use wiera_sim::lockreg::{TrackedRwLock, TrackedWriteGuard};
use wiera_sim::SimInstant;

/// Number of independently locked key partitions.
pub const META_SHARDS: usize = 16;

/// One shard: the metadata of every key that hashes there.
type Shard = HashMap<ShortKey, ObjectMeta, FnvBuildHasher>;

/// Thread-safe metadata store for one instance.
pub struct MetaStore {
    shards: Vec<TrackedRwLock<Shard>>,
    /// Write-lock acquisitions per shard, for the batch-locking tests.
    write_acquisitions: Vec<AtomicU64>,
    /// The label of each tier index, as the snapshot image names tiers.
    labels: Vec<String>,
}

impl Default for MetaStore {
    fn default() -> Self {
        Self::new()
    }
}

/// One shard's write session: the map of every key that hashes there.
pub type MetaShardGuard<'a> = TrackedWriteGuard<'a, Shard>;

/// Lock class of a metastore whose instance sits `depth` mount levels above
/// its deepest mounted child (0: no mounted-instance tier). An instance
/// holds its own shard guard while it enters a mounted child, and a child is
/// always strictly shallower, so nesting crosses classes in one direction
/// only: no same-class nesting, no cycle.
fn depth_class(base: &str, depth: usize) -> String {
    match depth {
        0 => base.to_string(),
        d => format!("{base}@{d}"),
    }
}

impl MetaStore {
    /// A store whose image names tier `i` `tier<i+1>`, the policy
    /// language's default labels.
    pub fn new() -> Self {
        Self::for_tiers((1..=TierSet::BITS).map(|i| format!("tier{i}")).collect(), 0)
    }

    /// The store of an instance with tiers `labels`, `depth` mount levels
    /// above its leaves.
    pub(crate) fn for_tiers(labels: Vec<String>, depth: usize) -> Self {
        MetaStore {
            // The class literal stays inside the constructor call: that is
            // where wiera-audit reads lock classes from.
            shards: (0..META_SHARDS)
                .map(|_| {
                    TrackedRwLock::new(&depth_class("tiera.metastore", depth), Shard::default())
                })
                .collect(),
            write_acquisitions: (0..META_SHARDS).map(|_| AtomicU64::new(0)).collect(),
            labels,
        }
    }

    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Which shard owns `key`.
    pub fn shard_of(&self, key: &str) -> usize {
        (fnv1a(key.as_bytes()) % self.shards.len() as u64) as usize
    }

    /// Open one write session on a shard. `apply_batch` groups a bulk
    /// request by [`MetaStore::shard_of`] and calls this once per group, so
    /// a batch pays one lock acquisition per touched shard instead of
    /// several per item. Never hold two shard guards of one store at once.
    pub fn shard_write(&self, shard: usize) -> MetaShardGuard<'_> {
        self.write_acquisitions[shard].fetch_add(1, Ordering::Relaxed);
        self.shards[shard].write()
    }

    /// Per-shard write-lock acquisition counts since construction
    /// (observability for the batch-locking tests).
    pub fn write_lock_counts(&self) -> Vec<u64> {
        self.write_acquisitions
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// Run `f` over the object's metadata, creating the entry if absent.
    pub fn with_mut<R>(&self, key: &str, f: impl FnOnce(&mut ObjectMeta) -> R) -> R {
        let mut map = self.shard_write(self.shard_of(key));
        if let Some(obj) = map.get_mut(key) {
            return f(obj);
        }
        f(map.entry(ShortKey::new(key)).or_default())
    }

    /// Run `f` over existing metadata, mutably; `None` if the key is
    /// unknown (unlike [`MetaStore::with_mut`], never creates the entry).
    pub fn with_existing_mut<R>(
        &self,
        key: &str,
        f: impl FnOnce(&mut ObjectMeta) -> R,
    ) -> Option<R> {
        let mut map = self.shard_write(self.shard_of(key));
        map.get_mut(key).map(f)
    }

    /// Run `f` over existing metadata; `None` if the key is unknown.
    pub fn with<R>(&self, key: &str, f: impl FnOnce(&ObjectMeta) -> R) -> Option<R> {
        self.shards[self.shard_of(key)].read().get(key).map(f)
    }

    pub fn contains(&self, key: &str) -> bool {
        self.shards[self.shard_of(key)].read().contains_key(key)
    }

    pub fn remove(&self, key: &str) -> Option<ObjectMeta> {
        self.shard_write(self.shard_of(key)).remove(key)
    }

    /// Remove one version; drops the whole entry when no versions remain.
    /// Returns the removed version's metadata.
    pub fn remove_version(&self, key: &str, version: VersionId) -> Option<VersionMeta> {
        let mut map = self.shard_write(self.shard_of(key));
        let obj = map.get_mut(key)?;
        let i = obj.versions.iter().position(|m| m.version == version)?;
        let meta = obj.versions.remove(i);
        if obj.versions.is_empty() {
            map.remove(key);
        }
        Some(meta)
    }

    /// All keys, sorted (shards are visited one at a time).
    pub fn keys(&self) -> Vec<String> {
        let mut out = Vec::new();
        for shard in &self.shards {
            out.extend(shard.read().keys().map(|k| k.to_string()));
        }
        out.sort();
        out
    }

    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.read().is_empty())
    }

    /// Snapshot of `(key, version)` pairs whose last access is older than
    /// `cutoff` — the ColdDataMonitoring scan (§4.3). Sorted by key.
    pub fn cold_versions(&self, cutoff: SimInstant) -> Vec<(String, VersionId)> {
        self.versions_where(|m| m.last_access < cutoff)
    }

    /// All `(key, version)` pairs (for policy sweeps). Sorted by key.
    pub fn all_versions(&self) -> Vec<(String, VersionId)> {
        self.versions_where(|_| true)
    }

    /// The `(key, version)` pairs whose metadata `keep` accepts, sorted.
    fn versions_where(&self, keep: impl Fn(&VersionMeta) -> bool) -> Vec<(String, VersionId)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            for (k, obj) in shard.read().iter() {
                let kept = obj.versions.iter().filter(|m| keep(m));
                out.extend(kept.map(|m| (k.to_string(), m.version)));
            }
        }
        out.sort();
        out
    }

    /// Serialize to a persistent image (the "BerkeleyDB file"). Shards are
    /// merged, so the image format is identical to the pre-sharding store.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut merged: BTreeMap<String, Value> = BTreeMap::new();
        for shard in &self.shards {
            for (k, o) in shard.read().iter() {
                merged.insert(k.to_string(), o.image(&self.labels));
            }
        }
        serde_json::to_vec(&merged).unwrap_or_else(|e| panic!("metadata serializes: {e}"))
    }

    /// Restore from an image produced by [`MetaStore::snapshot`]. The
    /// restored store's tiers are the image's labels, in the order they
    /// first appear.
    pub fn restore(image: &[u8]) -> Result<Self, String> {
        let objects: BTreeMap<String, Value> =
            serde_json::from_slice(image).map_err(|e| e.to_string())?;
        let mut labels = Vec::new();
        let mut restored = Vec::with_capacity(objects.len());
        for (k, o) in objects {
            restored.push((k, ObjectMeta::from_image(&o, &mut labels)?));
        }
        let store = MetaStore::for_tiers(labels, 0);
        for (k, o) in restored {
            let shard = store.shard_of(&k);
            store.shards[shard].write().insert(ShortKey::new(&k), o);
        }
        Ok(store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wiera_sim::SimDuration;

    fn t(s: u64) -> SimInstant {
        SimInstant::EPOCH + SimDuration::from_secs(s)
    }

    #[test]
    fn with_mut_creates_entry() {
        let ms = MetaStore::new();
        assert!(!ms.contains("k"));
        let v = ms.with_mut("k", |o| {
            let v = o.next_version();
            o.add_version(VersionMeta::new(v, 8, t(0), 0), None, drop);
            v
        });
        assert_eq!(v, 1);
        assert!(ms.contains("k"));
        assert_eq!(ms.with("k", |o| o.latest_version()).flatten(), Some(1));
    }

    #[test]
    fn remove_version_drops_empty_entry() {
        let ms = MetaStore::new();
        ms.with_mut("k", |o| {
            o.add_version(VersionMeta::new(1, 8, t(0), 0), None, drop);
            o.add_version(VersionMeta::new(2, 8, t(1), 0), None, drop);
        });
        assert!(ms.remove_version("k", 1).is_some());
        assert!(ms.contains("k"));
        assert!(ms.remove_version("k", 2).is_some());
        assert!(!ms.contains("k"), "entry vanishes with its last version");
        assert!(ms.remove_version("k", 2).is_none());
    }

    #[test]
    fn cold_scan_finds_stale_versions() {
        let ms = MetaStore::new();
        ms.with_mut("hot", |o| {
            o.add_version(VersionMeta::new(1, 8, t(100), 0), None, drop);
        });
        ms.with_mut("cold", |o| {
            o.add_version(VersionMeta::new(1, 8, t(1), 0), None, drop);
        });
        let cold = ms.cold_versions(t(50));
        assert_eq!(cold, vec![("cold".to_string(), 1)]);
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let ms = MetaStore::new();
        ms.with_mut("a", |o| {
            o.tags.insert("tmp".into());
            let mut m = VersionMeta::new(1, 100, t(3), 1);
            m.dirty = true;
            m.replicas = 1 << 2;
            o.add_version(m, None, drop);
        });
        let image = ms.snapshot();
        let text = String::from_utf8(image.clone()).unwrap();
        assert!(text.contains(r#""location":"tier2","modified":3000000,"replicas":["tier3"]"#));
        let back = MetaStore::restore(&image).unwrap();
        assert_eq!(back.len(), 1);
        back.with("a", |o| {
            assert!(o.tags.contains("tmp"));
            let m = o.latest().unwrap();
            assert!(m.dirty);
            // The restored store's tiers are the image's labels, in order.
            assert_eq!((m.location, m.replicas), (0, 0b10));
        })
        .unwrap();
        assert_eq!(back.snapshot(), image);
        assert!(MetaStore::restore(b"not json").is_err());
    }

    #[test]
    fn all_versions_enumerates_everything() {
        let ms = MetaStore::new();
        for k in ["a", "b"] {
            ms.with_mut(k, |o| {
                o.add_version(VersionMeta::new(1, 8, t(0), 0), None, drop);
                o.add_version(VersionMeta::new(2, 8, t(1), 0), None, drop);
            });
        }
        let mut all = ms.all_versions();
        all.sort();
        assert_eq!(all.len(), 4);
        assert_eq!(all[0], ("a".to_string(), 1));
    }

    #[test]
    fn keys_spread_across_shards_and_stay_sorted() {
        let keys: Vec<String> = (0..256).map(|i| format!("key{i:04}")).collect();
        // The same keys inserted in opposite orders: the hash-map shards
        // hold them in different orders, and nothing read out may show it.
        let fill = |order: &mut dyn Iterator<Item = &String>| {
            let ms = MetaStore::new();
            for k in order {
                ms.with_mut(k, |o| {
                    o.add_version(VersionMeta::new(1, 8, t(1), 0), None, drop);
                    o.add_version(VersionMeta::new(2, 8, t(3), 0), None, drop);
                });
            }
            ms
        };
        let (ms, rev) = (fill(&mut keys.iter()), fill(&mut keys.iter().rev()));
        assert_eq!(ms.len(), 256);
        assert_eq!(ms.keys(), keys, "keys() is globally sorted");
        assert_eq!(rev.keys(), keys);
        assert_eq!(ms.snapshot(), rev.snapshot(), "one image per content");
        let (cold, all) = (ms.cold_versions(t(2)), ms.all_versions());
        assert_eq!(cold.len(), 256);
        assert_eq!(all.len(), 512);
        assert!(cold.windows(2).all(|w| w[0] < w[1]), "cold sorted");
        assert!(all.windows(2).all(|w| w[0] < w[1]), "all sorted");
        assert_eq!(cold, rev.cold_versions(t(2)));
        assert_eq!(all, rev.all_versions());
        // 256 uniform keys should land on well more than one shard.
        let hit: usize = (0..ms.shard_count())
            .filter(|&s| keys.iter().any(|k| ms.shard_of(k) == s))
            .count();
        assert!(hit > META_SHARDS / 2, "keys spread over shards, got {hit}");
    }

    #[test]
    fn shard_write_counts_acquisitions() {
        let ms = MetaStore::new();
        let before = ms.write_lock_counts();
        ms.with_mut("k", |_| ());
        let after = ms.write_lock_counts();
        let shard = ms.shard_of("k");
        assert_eq!(after[shard], before[shard] + 1);
        assert_eq!(
            after.iter().sum::<u64>(),
            before.iter().sum::<u64>() + 1,
            "exactly one shard lock taken"
        );
    }
}
