//! A put that prunes the version it supersedes hands that version to its
//! final tier write, which takes over the pruned slot in place. Every case
//! here leaves the tiers as a write of the new version followed by a delete
//! of the pruned one would: the same resident slots, `used_bytes`, tier
//! stats and `tier_ops_total` counts, and no takeover when a write fails.

use bytes::Bytes;
use std::sync::Arc;
use tiera::instance::Replicated;
use tiera::object::storage_key;
use tiera::{InstanceConfig, TieraError, TieraInstance};
use wiera_net::Region;
use wiera_policy::{compile, parse};
use wiera_sim::{ManualClock, MetricsRegistry, SimInstant};
use wiera_tiers::{SimTier, TierError};

/// `n` bytes of `fill`, so each version's bytes tell it apart.
fn bytes(fill: u8, n: usize) -> Bytes {
    Bytes::from(vec![fill; n])
}

fn local(inst: &TieraInstance, label: &str) -> Arc<SimTier> {
    inst.tier(label).unwrap().as_local().unwrap().clone()
}

/// The tier's slots, sorted, each as `(key, version, bytes)`.
fn resident(tier: &SimTier) -> Vec<(String, u64, usize)> {
    let mut slots: Vec<_> = tier
        .keys()
        .into_iter()
        .map(|(k, v)| {
            let len = tier.get_at(&k, v, SimInstant::EPOCH).unwrap().0.len();
            (k.to_string(), v, len)
        })
        .collect();
    slots.sort();
    slots
}

/// `used_bytes` equals the bytes the tier's slots hold.
fn assert_exact(tier: &SimTier) {
    let held: usize = resident(tier).iter().map(|s| s.2).sum();
    assert_eq!(tier.used_bytes(), held as u64, "{}", tier.spec().kind);
}

/// `PERSISTENT_INSTANCE`'s write-through rules: tier1 stores, tier2 takes a
/// copy, so tier2 makes the final write.
fn write_through(tier2_capacity: u64, max_versions: usize) -> Arc<TieraInstance> {
    let compiled = compile(&parse(wiera_policy::canned::PERSISTENT_INSTANCE).unwrap()).unwrap();
    let config = InstanceConfig::new("takeover", Region::UsEast)
        .with_tier("tier1", "Memcached", 1 << 20)
        .with_tier("tier2", "EBS", tier2_capacity)
        .with_tier("tier3", "S3", 0)
        .with_rules(compiled.rules)
        .with_max_versions(max_versions);
    TieraInstance::build(config, ManualClock::new()).unwrap()
}

#[test]
fn a_failed_final_write_replaces_nothing() {
    // tier2 is full for a second 600-byte version while the first still
    // counts, as it would until a delete after the write.
    let inst = write_through(1000, 1);
    let (tier1, tier2) = (local(&inst, "tier1"), local(&inst, "tier2"));
    inst.put("k", bytes(1, 600)).unwrap();
    let err = inst.put("k", bytes(2, 600)).unwrap_err();
    assert!(
        matches!(err, TieraError::Tier(TierError::Full { used: 600, .. })),
        "{err:?}"
    );
    tier2.set_down(true);
    let err = inst.put("k", bytes(3, 100)).unwrap_err();
    assert_eq!(err, TieraError::Tier(TierError::Down));
    tier2.set_down(false);

    // Each failure deleted tier1's copy of the new version again.
    for (tier, deletes) in [(&tier1, 2), (&tier2, 0)] {
        assert_eq!(resident(tier), [("k".to_string(), 1, 600)]);
        assert_exact(tier);
        assert_eq!(tier.stats.snapshot().deletes, deletes);
    }
    let read = inst.get("k").unwrap();
    assert_eq!((read.version, read.value.unwrap()), (1, bytes(1, 600)));
    assert_eq!(inst.get_version_list("k").unwrap(), [1]);

    // A version that fits with the pruned one still counted takes over.
    let put = inst.put("k", bytes(4, 400)).unwrap();
    assert_eq!(put.version, 2);
    for tier in [&tier1, &tier2] {
        assert_eq!(resident(tier), [("k".to_string(), 2, 400)]);
        assert_exact(tier);
    }
    assert_eq!(tier2.stats.snapshot().deletes, 1);
}

#[test]
fn a_write_through_copy_takes_over_and_the_store_deletes() {
    // tier1 writes the new version and the prune deletes the old one from
    // it; tier2's copy is the final write and takes over. Counts match a
    // write and a delete per tier and version, in the tier stats and in
    // `tier_ops_total`, whose tier kinds no other test here uses.
    let src = "Tiera T() {
        event(insert.into) : response {
            store(what:insert.object, to:tier1);
            copy(what:insert.object, to:tier2);
        }
    }";
    let config = InstanceConfig::new("counted", Region::UsEast)
        .with_tier("tier1", "EBS-HDD", 1 << 20)
        .with_tier("tier2", "AzureBlob", 1 << 20)
        .with_rules(compile(&parse(src).unwrap()).unwrap().rules)
        .with_max_versions(1);
    let inst = TieraInstance::build(config, ManualClock::new()).unwrap();
    let ops = |kind: &str, op: &str| {
        let labels = [("tier", kind), ("op", op)];
        MetricsRegistry::global()
            .counter("tier_ops_total", &labels)
            .get()
    };
    let kinds = ["EBS-HDD", "AzureBlob"];
    let before = kinds.map(|k| (ops(k, "put"), ops(k, "delete")));
    const N: u64 = 6;
    for v in 1..=N {
        inst.put("k", bytes(v as u8, 100 + v as usize)).unwrap();
    }
    for (i, tier) in [local(&inst, "tier1"), local(&inst, "tier2")]
        .iter()
        .enumerate()
    {
        let stats = tier.stats.snapshot();
        assert_eq!((stats.puts, stats.deletes), (N, N - 1));
        assert_eq!(resident(tier), [("k".to_string(), N, 100 + N as usize)]);
        assert_exact(tier);
        let (puts, deletes) = before[i];
        assert_eq!(ops(kinds[i], "put") - puts, N, "{}", kinds[i]);
        assert_eq!(ops(kinds[i], "delete") - deletes, N - 1, "{}", kinds[i]);
    }
}

#[test]
fn three_versions_keep_their_slots_and_prune_the_oldest() {
    let inst = write_through(1 << 20, 3);
    for v in 1..=6u8 {
        inst.put("k", bytes(v, 10 * v as usize)).unwrap();
    }
    assert_eq!(inst.get_version_list("k").unwrap(), [4, 5, 6]);
    for v in 4..=6u64 {
        let read = inst.get_version("k", v).unwrap().value.unwrap();
        assert_eq!(read, bytes(v as u8, 10 * v as usize));
    }
    let want: Vec<_> = (4..=6)
        .map(|v| ("k".to_string(), v, 10 * v as usize))
        .collect();
    for label in ["tier1", "tier2"] {
        let tier = local(&inst, label);
        assert_eq!(resident(&tier), want, "{label}");
        assert_exact(&tier);
        assert_eq!(tier.stats.snapshot().deletes, 3, "{label}");
    }
}

#[test]
fn a_mounted_instance_as_final_tier_writes_then_deletes() {
    let clock = ManualClock::new();
    let child = TieraInstance::build(
        InstanceConfig::new("child", Region::UsEast).with_tier("tier1", "S3", 0),
        clock.clone(),
    )
    .unwrap();
    let src = "Tiera T() {
        event(insert.into) : response {
            store(what:insert.object, to:tier1);
            copy(what:insert.object, to:tier2);
        }
    }";
    let config = InstanceConfig::new("parent", Region::UsEast)
        .with_tier("tier1", "Memcached", 1 << 20)
        .with_rules(compile(&parse(src).unwrap()).unwrap().rules)
        .with_max_versions(1);
    let parent =
        TieraInstance::build(config, clock)
            .unwrap()
            .mount_instance("tier2", child.clone(), false);
    for v in 1..=3u8 {
        parent.put("k", bytes(v, 32)).unwrap();
    }
    let tier1 = local(&parent, "tier1");
    assert_eq!(resident(&tier1), [("k".to_string(), 3, 32)]);
    assert_exact(&tier1);
    // The child holds the latest version only, under its storage key: each
    // pruned version was removed from it as a whole object.
    assert_eq!(child.meta().keys(), [storage_key("k", 3)]);
    let child_tier = local(&child, "tier1");
    assert_eq!(child_tier.len(), 1);
    assert_exact(&child_tier);
    assert_eq!(parent.get("k").unwrap().value.unwrap(), bytes(3, 32));
}

#[test]
fn a_replicated_update_overwrites_its_version_or_takes_over_the_older() {
    let inst = write_through(1 << 20, 1);
    let at = |ms| SimInstant::EPOCH + wiera_sim::SimDuration::from_millis(ms);
    let apply = |version, modified, value: &Bytes| {
        let update = Replicated {
            key: "k",
            version,
            modified,
            value,
        };
        inst.apply_replicated(&[update]).remove(0).unwrap()
    };
    let tiers = [local(&inst, "tier1"), local(&inst, "tier2")];
    assert!(apply(1, at(1), &bytes(1, 50)).is_some());
    // Equal version, newer modified time: the version's own slot is
    // rewritten, nothing is pruned.
    assert!(apply(1, at(2), &bytes(2, 70)).is_some());
    for tier in &tiers {
        assert_eq!(resident(tier), [("k".to_string(), 1, 70)]);
        assert_eq!(tier.stats.snapshot().deletes, 0);
        assert_exact(tier);
    }
    // A higher version prunes version 1 and takes over its slot.
    assert!(apply(3, at(3), &bytes(3, 20)).is_some());
    for tier in &tiers {
        assert_eq!(resident(tier), [("k".to_string(), 3, 20)]);
        assert_eq!(tier.stats.snapshot().deletes, 1);
        assert_exact(tier);
    }
    let read = inst.get("k").unwrap();
    assert_eq!((read.version, read.value.unwrap()), (3, bytes(3, 20)));
    assert_eq!(read.modified, at(3));
}
