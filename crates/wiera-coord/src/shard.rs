//! The fleet shard map: consistent-hash partitioning of the keyspace
//! across many replica groups.
//!
//! One Wiera deployment (a *replica group*) replicates every object it
//! owns to all of its replicas — which caps aggregate throughput at one
//! group's write path. The shard map is the coordinator-owned routing
//! table that spreads the keyspace over a **fleet** of groups: keys hash
//! onto a ring of virtual nodes, every ring point belongs to one of a
//! fixed number of shards, and each shard is assigned to exactly one
//! group. Rebalancing moves shards between groups; the map's `version`
//! increases monotonically on every assignment change, so replicas and
//! clients can order maps exactly like deployment epochs — a stale map
//! is detected (`WrongShard` refusal) rather than silently misrouting.
//!
//! The map is a small immutable value: mutation returns a new map at the
//! next version, and everyone shares it behind an `Arc`.

use std::sync::Arc;

/// FNV-1a (`wiera_sim::hash::fnv1a`) with a splitmix64 avalanche
/// finalizer. Plain FNV-1a clusters badly on short structured strings
/// (ring-point names, sequential user keys): at 64 shards a raw-FNV ring
/// leaves ~1/6 of the shards empty no matter how many vnodes are added.
/// The finalizer spreads the points uniformly over the circle. Stable
/// across processes and runs — the ring must hash identically at the
/// coordinator, every replica, and every client.
pub fn key_hash(key: &str) -> u64 {
    let mut h = wiera_sim::hash::fnv1a(key.as_bytes());
    // splitmix64 finalizer (Steele et al.): full avalanche in 3 rounds.
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^= h >> 31;
    h
}

/// A versioned consistent-hash routing table: `shards` shards, each with
/// `vnodes` points on the ring, each shard assigned to one replica group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMap {
    version: u64,
    vnodes: u32,
    /// Ring points sorted by hash value; each point names the shard that
    /// owns the arc ending at it.
    ring: Arc<[(u64, u32)]>,
    /// `assignment[shard]` is the group that currently owns the shard.
    assignment: Vec<u32>,
    groups: u32,
}

impl ShardMap {
    /// Build a fresh map at version 1 with shards assigned to groups
    /// round-robin. `vnodes` points per shard smooth the arc lengths.
    pub fn new(shards: u32, vnodes: u32, groups: u32) -> Result<ShardMap, String> {
        if shards == 0 || vnodes == 0 || groups == 0 {
            return Err(format!(
                "shard map needs at least one shard, vnode, and group \
                 (got {shards}/{vnodes}/{groups})"
            ));
        }
        let mut ring: Vec<(u64, u32)> = Vec::with_capacity((shards * vnodes) as usize);
        for s in 0..shards {
            for v in 0..vnodes {
                ring.push((key_hash(&format!("shard-{s}/vnode-{v}")), s));
            }
        }
        // Sort by point; on the (astronomically unlikely) equal-hash tie,
        // the lower shard id wins deterministically everywhere.
        ring.sort();
        let assignment = (0..shards).map(|s| s % groups).collect();
        Ok(ShardMap {
            version: 1,
            vnodes,
            ring: ring.into(),
            assignment,
            groups,
        })
    }

    /// The degenerate one-shard, one-group map: every key routes to shard 0
    /// on group 0. This is what a legacy (pre-fleet) client uses so that
    /// single-deployment and fleet routing share one code path. Infallible
    /// by construction, unlike [`ShardMap::new`].
    pub fn single() -> ShardMap {
        ShardMap {
            version: 1,
            vnodes: 1,
            ring: vec![(key_hash("shard-0/vnode-0"), 0)].into(),
            assignment: vec![0],
            groups: 1,
        }
    }

    /// Monotonic map version. Replicas and clients keep the highest
    /// version they have seen and refuse to regress, like epochs.
    pub fn version(&self) -> u64 {
        self.version
    }

    pub fn num_shards(&self) -> u32 {
        self.assignment.len() as u32
    }

    pub fn num_groups(&self) -> u32 {
        self.groups
    }

    pub fn vnodes(&self) -> u32 {
        self.vnodes
    }

    /// The shard a key belongs to: the ring point at or clockwise-after
    /// the key's hash (wrapping past the top back to the first point).
    pub fn shard_of(&self, key: &str) -> u32 {
        let h = key_hash(key);
        let idx = self.ring.partition_point(|&(point, _)| point < h);
        let (_, shard) = self.ring[idx % self.ring.len()];
        shard
    }

    /// The group that owns `key` under this map version.
    pub fn group_of(&self, key: &str) -> u32 {
        self.group_of_shard(self.shard_of(key))
    }

    /// The group that owns `shard`. Out-of-range shard ids map to group 0
    /// (callers validate; this keeps routing total).
    pub fn group_of_shard(&self, shard: u32) -> u32 {
        self.assignment.get(shard as usize).copied().unwrap_or(0)
    }

    /// Every shard currently assigned to `group`.
    pub fn shards_of_group(&self, group: u32) -> Vec<u32> {
        self.assignment
            .iter()
            .enumerate()
            .filter(|(_, g)| **g == group)
            .map(|(s, _)| s as u32)
            .collect()
    }

    /// Reassign one shard, yielding the successor map at `version + 1`.
    /// Assigning to a previously unseen group grows the fleet (elastic
    /// scale-out); the ring itself never changes, only ownership.
    pub fn assign(&self, shard: u32, group: u32) -> Result<ShardMap, String> {
        if shard >= self.num_shards() {
            return Err(format!(
                "shard {shard} out of range (map has {} shards)",
                self.num_shards()
            ));
        }
        let mut next = self.clone();
        next.assignment[shard as usize] = group;
        next.groups = next.groups.max(group + 1);
        next.version = self.version + 1;
        Ok(next)
    }

    /// Approximate serialized size, for wire modeling.
    pub fn wire_bytes(&self) -> u64 {
        16 + self.ring.len() as u64 * 12 + self.assignment.len() as u64 * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn round_robin_initial_assignment() {
        let m = ShardMap::new(8, 4, 3).unwrap();
        assert_eq!(m.version(), 1);
        assert_eq!(m.num_shards(), 8);
        assert_eq!(m.num_groups(), 3);
        assert_eq!(m.group_of_shard(0), 0);
        assert_eq!(m.group_of_shard(1), 1);
        assert_eq!(m.group_of_shard(2), 2);
        assert_eq!(m.group_of_shard(3), 0);
        assert_eq!(m.shards_of_group(0), vec![0, 3, 6]);
    }

    #[test]
    fn single_map_routes_everything_to_group_zero() {
        let m = ShardMap::single();
        assert_eq!(m.version(), 1);
        assert_eq!(m.num_shards(), 1);
        assert_eq!(m.num_groups(), 1);
        for k in ["", "a", "user42", "shard-0/vnode-0"] {
            assert_eq!(m.shard_of(k), 0);
            assert_eq!(m.group_of(k), 0);
        }
    }

    #[test]
    fn zero_sizes_are_rejected() {
        assert!(ShardMap::new(0, 4, 1).is_err());
        assert!(ShardMap::new(4, 0, 1).is_err());
        assert!(ShardMap::new(4, 4, 0).is_err());
    }

    #[test]
    fn assign_bumps_version_and_moves_only_that_shard() {
        let m1 = ShardMap::new(16, 8, 2).unwrap();
        let m2 = m1.assign(5, 1).unwrap();
        assert_eq!(m2.version(), 2);
        assert_eq!(m2.group_of_shard(5), 1);
        for s in 0..16 {
            if s != 5 {
                assert_eq!(m1.group_of_shard(s), m2.group_of_shard(s));
            }
        }
        // Routing is unchanged: only ownership moved, not the ring.
        for k in 0..200 {
            let key = format!("key-{k}");
            assert_eq!(m1.shard_of(&key), m2.shard_of(&key));
        }
        assert!(m1.assign(99, 0).is_err());
    }

    #[test]
    fn assigning_a_new_group_grows_the_fleet() {
        let m = ShardMap::new(8, 4, 2).unwrap();
        let m2 = m.assign(3, 5).unwrap();
        assert_eq!(m2.num_groups(), 6);
        assert_eq!(m2.group_of_shard(3), 5);
    }

    #[test]
    fn keys_spread_over_shards() {
        let m = ShardMap::new(64, 16, 8).unwrap();
        let mut counts = vec![0usize; 64];
        for k in 0..20_000 {
            counts[m.shard_of(&format!("user{k:08}")) as usize] += 1;
        }
        let max = counts.iter().max().copied().unwrap_or(0);
        let min = counts.iter().min().copied().unwrap_or(0);
        assert!(min > 0, "every shard owns keys");
        // Virtual nodes keep the arcs comparable: no shard takes more
        // than ~6x the smallest share at 16 vnodes.
        assert!(max < min * 6, "imbalanced: max {max} min {min}");
    }

    #[test]
    fn hash_is_stable() {
        // Pinned value: the ring must hash identically everywhere, so the
        // function can never silently change.
        assert_eq!(key_hash(""), 0xf52a_15e9_a9b5_e89b);
        assert_eq!(key_hash("a"), 0x02c0_bdbf_4814_20f8);
    }

    proptest! {
        /// The tentpole routing property: under ANY map version reachable
        /// by a sequence of shard moves, every key routes to exactly one
        /// shard, that shard is in range, its owning group is the
        /// assignment entry, and routing is independent of ownership
        /// changes (moves change WHO owns a shard, never WHICH shard a
        /// key hashes to).
        #[test]
        fn every_key_routes_to_exactly_one_shard(
            key_bytes in proptest::collection::vec(any::<u8>(), 0..48),
            shards in 1u32..96,
            vnodes in 1u32..12,
            groups in 1u32..9,
            moves in proptest::collection::vec((0u32..96, 0u32..12), 0..16),
        ) {
            let key = String::from_utf8_lossy(&key_bytes).into_owned();
            let mut map = ShardMap::new(shards, vnodes, groups).unwrap();
            let home = map.shard_of(&key);
            prop_assert!(home < map.num_shards());
            // Deterministic: the same key always lands on the same shard.
            prop_assert_eq!(map.shard_of(&key), home);
            let mut version = map.version();
            for (shard, group) in moves {
                let Ok(next) = map.assign(shard, group) else {
                    // Out-of-range shard id: the map must be unchanged.
                    prop_assert!(shard >= map.num_shards());
                    continue;
                };
                prop_assert_eq!(next.version(), version + 1);
                version = next.version();
                map = next;
                // Ownership moved; the key's shard did not.
                prop_assert_eq!(map.shard_of(&key), home);
                prop_assert_eq!(map.group_of(&key), map.group_of_shard(home));
                prop_assert!(map.group_of(&key) < map.num_groups());
                // Exactly one group owns the shard: the partition of
                // shards over groups is total and disjoint by construction.
                let owners = (0..map.num_groups())
                    .filter(|g| map.shards_of_group(*g).contains(&home))
                    .count();
                prop_assert_eq!(owners, 1);
            }
        }
    }
}
