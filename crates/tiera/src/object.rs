//! The versioned object model (§2.2, extended per §3.2.1).
//!
//! Objects are immutable, uninterpreted byte sequences addressed by a
//! globally unique key. Overwriting a key creates a *new version*; every
//! version carries the metadata the policy language can select on (size,
//! access frequency, dirty bit, times, location, tags) plus the versioning
//! metadata conflict handling needs (version number, last-modified time).
//! A version names its tiers by index into its instance's tier list; the
//! labels are rendered only where a rule or a person reads them.

use serde::{Deserialize, Serialize, Value};
use std::collections::{BTreeMap, BTreeSet};
use wiera_sim::SimInstant;

/// Monotonically increasing per-key version number.
pub type VersionId = u64;

/// A tier of an instance: its index into the instance's tier list.
pub type TierIdx = u8;

/// A set of an instance's tiers, one bit per [`TierIdx`].
pub type TierSet = u64;

/// The tier indices in `set`, ascending.
pub(crate) fn tiers_in(mut set: TierSet) -> impl Iterator<Item = TierIdx> {
    std::iter::from_fn(move || {
        let i = set.trailing_zeros();
        set &= set.wrapping_sub(1);
        (i < TierSet::BITS).then_some(i as TierIdx)
    })
}

/// Metadata for one version of one object: 64 bytes, one cache line.
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
    pub location: TierIdx,
    /// Additional tiers holding copies (backups/caches within the instance).
    pub replicas: TierSet,
    /// Whether the stored bytes are compressed/encrypted (policy responses).
    pub compressed: bool,
    pub encrypted: bool,
}

impl VersionMeta {
    pub fn new(version: VersionId, size: u64, now: SimInstant, location: TierIdx) -> Self {
        VersionMeta {
            version,
            size,
            created: now,
            modified: now,
            last_access: now,
            access_count: 0,
            dirty: false,
            location,
            replicas: 0,
            compressed: false,
            encrypted: false,
        }
    }

    /// Every tier known to hold this version.
    pub fn holders(&self) -> TierSet {
        self.replicas | 1 << self.location
    }

    pub fn touch(&mut self, now: SimInstant) {
        self.last_access = now;
        self.access_count += 1;
    }
}

/// All versions of one key, plus object-level attributes.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ObjectMeta {
    /// Oldest first, by version number: one or a few versions sit in one
    /// allocation of exactly their size.
    pub versions: Vec<VersionMeta>,
    /// Application-defined object classes ("tmp", "log", …) — §2.2.
    pub tags: BTreeSet<String>,
}

impl ObjectMeta {
    pub fn latest_version(&self) -> Option<VersionId> {
        self.latest().map(|m| m.version)
    }

    pub fn latest(&self) -> Option<&VersionMeta> {
        self.versions.last()
    }

    pub fn version(&self, version: VersionId) -> Option<&VersionMeta> {
        self.versions.iter().find(|m| m.version == version)
    }

    pub fn version_mut(&mut self, version: VersionId) -> Option<&mut VersionMeta> {
        self.versions.iter_mut().find(|m| m.version == version)
    }

    /// Record `m` (over a version of its number) and keep the newest `keep`
    /// (`None`: all), handing each dropped version to `pruned`, oldest
    /// first. A full list takes a new newest version in the oldest's slot.
    pub fn add_version(
        &mut self,
        m: VersionMeta,
        keep: Option<usize>,
        mut pruned: impl FnMut(VersionMeta),
    ) {
        let keep = keep.unwrap_or(usize::MAX);
        match self
            .versions
            .binary_search_by_key(&m.version, |m| m.version)
        {
            Ok(i) => self.versions[i] = m,
            Err(i) if i == self.versions.len() && i >= keep && keep > 0 => {
                pruned(std::mem::replace(&mut self.versions[0], m));
                self.versions.rotate_left(1);
            }
            Err(i) => {
                if self.versions.capacity() == 0 {
                    self.versions.reserve_exact(1);
                }
                self.versions.insert(i, m);
            }
        }
        let excess = self.versions.len().saturating_sub(keep);
        self.versions.drain(..excess).for_each(&mut pruned);
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
}

/// An [`ObjectMeta`]'s image: `versions` keyed by number, as B-trees wrote,
/// each naming its tiers by label.
#[derive(Serialize, Deserialize)]
struct Image {
    versions: BTreeMap<VersionId, Value>,
    tags: BTreeSet<String>,
}

impl ObjectMeta {
    /// This object's image, naming tier `i` `labels[i]`.
    pub(crate) fn image(&self, labels: &[String]) -> Value {
        let label = |i: TierIdx| Value::String(labels[usize::from(i)].clone());
        let image = |m: &VersionMeta| {
            let mut image = m.to_value();
            if let Value::Object(fields) = &mut image {
                let replicas = tiers_in(m.replicas).map(label).collect();
                fields.insert("location".into(), label(m.location));
                fields.insert("replicas".into(), Value::Array(replicas));
            }
            (m.version, image)
        };
        let versions = self.versions.iter().map(image).collect();
        let tags = self.tags.clone();
        Image { versions, tags }.to_value()
    }

    /// Read an image [`ObjectMeta::image`] wrote; a tier label `labels`
    /// lacks is appended to it.
    pub(crate) fn from_image(v: &Value, labels: &mut Vec<String>) -> Result<Self, String> {
        let mut index = |label: &Value| {
            let label = label.as_str().ok_or("a tier label is not a string")?;
            if !labels.iter().any(|l| l == label) {
                labels.push(label.to_string());
            }
            match labels.iter().position(|l| l == label) {
                Some(i) if i < TierSet::BITS as usize => Ok(i as u64),
                _ => Err(format!("over {} tiers", TierSet::BITS)),
            }
        };
        let Image {
            versions: images,
            tags,
        } = Image::from_value(v)?;
        let mut versions = Vec::with_capacity(images.len());
        for mut image in images.into_values() {
            if let Value::Object(fields) = &mut image {
                let location = index(fields.get("location").unwrap_or(&Value::Null))?;
                let mut replicas: TierSet = 0;
                for label in fields
                    .get("replicas")
                    .and_then(Value::as_array)
                    .unwrap_or(&[])
                {
                    replicas |= 1 << index(label)?;
                }
                fields.insert("location".into(), Value::UInt(location));
                fields.insert("replicas".into(), Value::UInt(replicas));
            }
            versions.push(VersionMeta::from_value(&image)?);
        }
        Ok(ObjectMeta { versions, tags })
    }
}

/// Composite key `key@v<version>` under which an instance stores one version
/// in an instance mounted as its tier.
pub fn storage_key(key: &str, version: VersionId) -> String {
    format!("{key}@v{version}")
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
        o.add_version(VersionMeta::new(1, 10, t(0), 0), None, drop);
        assert_eq!(o.next_version(), 2);
        o.add_version(VersionMeta::new(5, 10, t(1), 0), None, drop);
        assert_eq!(o.latest_version(), Some(5));
        assert_eq!(o.next_version(), 6);
    }

    #[test]
    fn last_write_wins_rules() {
        let mut o = ObjectMeta::default();
        assert!(o.accepts_update(1, t(0)), "empty object accepts anything");
        o.add_version(VersionMeta::new(3, 10, t(5), 0), None, drop);
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
        let mut m = VersionMeta::new(1, 10, t(0), 0);
        m.replicas = 0b11;
        assert_eq!(m.holders(), 0b11);
        m.replicas = 0b100;
        assert_eq!(m.holders(), 0b101);
        assert_eq!(std::mem::size_of::<VersionMeta>(), 64);
    }

    #[test]
    fn touch_updates_access_metadata() {
        let mut m = VersionMeta::new(1, 10, t(0), 0);
        m.touch(t(7));
        m.touch(t(9));
        assert_eq!(m.access_count, 2);
        assert_eq!(m.last_access, t(9));
        assert_eq!(m.created, t(0), "created never moves");
    }

    #[test]
    fn prune_keeps_newest() {
        let versions = |o: &ObjectMeta| o.versions.iter().map(|m| m.version).collect::<Vec<_>>();
        let mut o = ObjectMeta::default();
        for v in [1, 2, 4, 5] {
            o.add_version(VersionMeta::new(v, 10, t(v), 0), None, drop);
        }
        o.add_version(VersionMeta::new(3, 10, t(3), 0), None, drop);
        assert_eq!(versions(&o), [1, 2, 3, 4, 5], "kept sorted");
        let mut doomed = Vec::new();
        let m = VersionMeta::new(6, 10, t(6), 0);
        o.add_version(m, Some(2), |m| doomed.push(m.version));
        assert_eq!(doomed, [1, 2, 3, 4]);
        assert_eq!(versions(&o), [5, 6]);
        // A full list takes a new newest version in the oldest's place...
        let m = VersionMeta::new(7, 10, t(7), 0);
        o.add_version(m, Some(2), |m| doomed.push(m.version));
        assert_eq!((versions(&o), &doomed[4..]), (vec![6, 7], &[5][..]));
        // ...and a rewrite of a kept version prunes nothing.
        let m = VersionMeta::new(7, 99, t(8), 0);
        o.add_version(m, Some(2), |_| panic!("nothing to prune"));
        assert_eq!(o.version(7).map(|m| m.size), Some(99));
        // One version per put never needs more than one slot.
        let mut one = ObjectMeta::default();
        for v in 1..=3 {
            one.add_version(VersionMeta::new(v, 10, t(v), 0), Some(1), drop);
        }
        assert_eq!((versions(&one), one.versions.capacity()), (vec![3], 1));
    }

    #[test]
    fn storage_keys_are_distinct_per_version() {
        let key = storage_key;
        assert_eq!(key("k", 1), "k@v1");
        assert_eq!(key("k", 0), "k@v0");
        assert_eq!(key("k", u64::MAX), format!("k@v{}", u64::MAX));
        assert_ne!(key("k", 1), key("k", 2));
        assert_ne!(key("a@v1", 1), key("a", 11)); // no accidental collision here
        for len in [20, 21, 100] {
            // Either side of the inline limit: `…@v7` of 23 and 24 bytes.
            let long = "é".repeat(len / 2) + &"k".repeat(len % 2);
            assert_eq!(key(&long, 7), format!("{long}@v7"));
            assert_eq!(key(&long, u64::MAX), format!("{long}@v{}", u64::MAX));
        }
    }
}
