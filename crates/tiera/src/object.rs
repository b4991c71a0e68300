//! The versioned object model (§2.2, extended per §3.2.1).
//!
//! Objects are immutable, uninterpreted byte sequences addressed by a
//! globally unique key. Overwriting a key creates a *new version*; every
//! version carries the metadata the policy language can select on (size,
//! access frequency, dirty bit, times, location, tags) plus the versioning
//! metadata conflict handling needs (version number, last-modified time).

use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use wiera_sim::SimInstant;

/// Monotonically increasing per-key version number.
pub type VersionId = u64;

/// Metadata for one version of one object.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VersionMeta {
    pub version: VersionId,
    pub size: u64,
    pub created: SimInstant,
    pub modified: SimInstant,
    pub last_access: SimInstant,
    pub access_count: u64,
    /// Written but not yet propagated to a persistent tier (write-back).
    pub dirty: bool,
    /// Authoritative tier holding this version.
    pub location: String,
    /// Additional tiers holding copies (backups/caches within the instance).
    pub replicas: BTreeSet<String>,
    /// Whether the stored bytes are compressed/encrypted (policy responses).
    pub compressed: bool,
    pub encrypted: bool,
}

impl VersionMeta {
    pub fn new(version: VersionId, size: u64, now: SimInstant, location: &str) -> Self {
        VersionMeta {
            version,
            size,
            created: now,
            modified: now,
            last_access: now,
            access_count: 0,
            dirty: false,
            location: location.to_string(),
            replicas: BTreeSet::new(),
            compressed: false,
            encrypted: false,
        }
    }

    /// Every tier known to hold this version, authoritative first.
    pub fn holders(&self) -> Vec<&str> {
        let mut v = vec![self.location.as_str()];
        v.extend(
            self.replicas
                .iter()
                .map(|s| s.as_str())
                .filter(|s| *s != self.location),
        );
        v
    }

    pub fn touch(&mut self, now: SimInstant) {
        self.last_access = now;
        self.access_count += 1;
    }
}

/// All versions of one key, plus object-level attributes.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ObjectMeta {
    pub versions: BTreeMap<VersionId, VersionMeta>,
    /// Application-defined object classes ("tmp", "log", …) — §2.2.
    pub tags: BTreeSet<String>,
}

impl ObjectMeta {
    pub fn latest_version(&self) -> Option<VersionId> {
        self.versions.keys().next_back().copied()
    }

    pub fn latest(&self) -> Option<&VersionMeta> {
        self.versions.values().next_back()
    }

    pub fn latest_mut(&mut self) -> Option<&mut VersionMeta> {
        self.versions.values_mut().next_back()
    }

    /// Next version number to assign.
    pub fn next_version(&self) -> VersionId {
        self.latest_version().map(|v| v + 1).unwrap_or(1)
    }

    /// Last-write-wins acceptance test for a replicated update (§4.2):
    /// accept when the incoming version is higher, or equal but more
    /// recently modified.
    pub fn accepts_update(&self, version: VersionId, modified: SimInstant) -> bool {
        match self.latest() {
            None => true,
            Some(cur) => {
                version > cur.version || (version == cur.version && modified > cur.modified)
            }
        }
    }

    /// Prune to the newest `keep` versions, oldest first, yielding each
    /// pruned version id; a version is pruned as the iterator reaches it.
    pub fn prune_old_versions(&mut self, keep: usize) -> impl Iterator<Item = VersionId> + '_ {
        std::iter::from_fn(move || {
            (self.versions.len() > keep)
                .then(|| self.versions.pop_first())
                .flatten()
                .map(|(v, _)| v)
        })
    }
}

/// Composite storage key used inside tier backends: one slot per version.
pub fn storage_key(key: &str, version: VersionId) -> String {
    storage_key_in(String::new(), key, version)
}

/// [`storage_key`] written into `buf`, allocating only when `buf` lacks
/// room (a spent storage key of the same key never does), and then once:
/// the widest version number (20 digits) is reserved up front, where
/// `format!` grows its buffer from a guess.
pub(crate) fn storage_key_in(mut buf: String, key: &str, version: VersionId) -> String {
    use std::fmt::Write;
    buf.clear();
    buf.reserve(key.len() + "@v".len() + 20);
    buf.push_str(key);
    buf.push_str("@v");
    let _ = write!(buf, "{version}");
    buf
}

#[cfg(test)]
mod tests {
    use super::*;
    use wiera_sim::SimDuration;

    fn t(s: u64) -> SimInstant {
        SimInstant::EPOCH + SimDuration::from_secs(s)
    }

    #[test]
    fn version_numbers_increase() {
        let mut o = ObjectMeta::default();
        assert_eq!(o.next_version(), 1);
        o.versions.insert(1, VersionMeta::new(1, 10, t(0), "tier1"));
        assert_eq!(o.next_version(), 2);
        o.versions.insert(5, VersionMeta::new(5, 10, t(1), "tier1"));
        assert_eq!(o.latest_version(), Some(5));
        assert_eq!(o.next_version(), 6);
    }

    #[test]
    fn last_write_wins_rules() {
        let mut o = ObjectMeta::default();
        assert!(o.accepts_update(1, t(0)), "empty object accepts anything");
        o.versions.insert(3, VersionMeta::new(3, 10, t(5), "tier1"));
        assert!(
            o.accepts_update(4, t(1)),
            "higher version wins regardless of time"
        );
        assert!(!o.accepts_update(2, t(9)), "lower version always loses");
        assert!(o.accepts_update(3, t(6)), "same version, newer mtime wins");
        assert!(
            !o.accepts_update(3, t(5)),
            "same version, same mtime loses (tie keeps local)"
        );
        assert!(
            !o.accepts_update(3, t(4)),
            "same version, older mtime loses"
        );
    }

    #[test]
    fn holders_dedupes_location() {
        let mut m = VersionMeta::new(1, 10, t(0), "tier1");
        m.replicas.insert("tier1".into());
        m.replicas.insert("tier2".into());
        assert_eq!(m.holders(), vec!["tier1", "tier2"]);
    }

    #[test]
    fn touch_updates_access_metadata() {
        let mut m = VersionMeta::new(1, 10, t(0), "tier1");
        m.touch(t(7));
        m.touch(t(9));
        assert_eq!(m.access_count, 2);
        assert_eq!(m.last_access, t(9));
        assert_eq!(m.created, t(0), "created never moves");
    }

    #[test]
    fn prune_keeps_newest() {
        let mut o = ObjectMeta::default();
        for v in 1..=5 {
            o.versions.insert(v, VersionMeta::new(v, 10, t(v), "tier1"));
        }
        let doomed: Vec<VersionId> = o.prune_old_versions(2).collect();
        assert_eq!(doomed, vec![1, 2, 3]);
        assert_eq!(o.versions.keys().copied().collect::<Vec<_>>(), vec![4, 5]);
        assert_eq!(o.prune_old_versions(2).next(), None, "already at limit");
    }

    #[test]
    fn storage_keys_are_distinct_per_version() {
        assert_eq!(storage_key("k", 1), "k@v1");
        assert_eq!(storage_key("k", u64::MAX), format!("k@v{}", u64::MAX));
        assert_ne!(storage_key("k", 1), storage_key("k", 2));
        assert_ne!(storage_key("a@v1", 1), storage_key("a", 11)); // no accidental collision here
    }
}
