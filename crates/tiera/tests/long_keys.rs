//! Keys longer than the 23 bytes a metastore or tier-slot key keeps inline
//! take the heap path of both maps. Every op on such a key returns the
//! bytes written: put, overwrite, get, update, remove and a volatile-tier
//! crash that leaves only the write-through copies.

use bytes::Bytes;
use tiera::{InstanceConfig, TieraError, TieraInstance};
use wiera_net::Region;
use wiera_policy::{compile, parse};
use wiera_sim::ManualClock;

const KEYS: usize = 64;

/// A 40-byte key.
fn key(i: usize) -> String {
    let key = format!("photos/2016/06/01/album-{i:016}");
    assert_eq!(key.len(), 40);
    key
}

fn value(i: usize, round: u8) -> Bytes {
    Bytes::from(format!("{round}:{}", key(i)).into_bytes())
}

#[test]
fn forty_byte_keys_return_the_written_bytes() {
    let src = "Tiera T() {
        event(insert.into) : response {
            store(what:insert.object, to:tier1);
            copy(what:insert.object, to:tier2);
        }
    }";
    let compiled = compile(&parse(src).unwrap()).unwrap();
    let config = InstanceConfig::new("long-keys", Region::UsEast)
        .with_tier("tier1", "Memcached", 1 << 20)
        .with_tier("tier2", "EBS", 1 << 30)
        .with_rules(compiled.rules)
        .with_max_versions(2);
    let inst = TieraInstance::build(config, ManualClock::new()).unwrap();
    let read = |k: &str| inst.get(k).unwrap().value.unwrap();
    let read_version = |k: &str, v| inst.get_version(k, v).unwrap().value.unwrap();

    for i in 0..KEYS {
        let k = key(i);
        assert_eq!(inst.put(&k, value(i, 1)).unwrap().version, 1);
        assert_eq!(read(&k), value(i, 1));
        // Overwrites: the third version prunes the first.
        assert_eq!(inst.put(&k, value(i, 2)).unwrap().version, 2);
        assert_eq!(inst.put(&k, value(i, 3)).unwrap().version, 3);
        assert_eq!(read(&k), value(i, 3));
        assert_eq!(read_version(&k, 2), value(i, 2));
        assert!(matches!(
            inst.get_version(&k, 1),
            Err(TieraError::VersionNotFound(..))
        ));
        inst.update(&k, 3, value(i, 4)).unwrap();
        assert_eq!(read(&k), value(i, 4));
    }
    let tier = |label| inst.tier(label).unwrap().as_local().unwrap().clone();
    let (mem, disk) = (tier("tier1"), tier("tier2"));
    for i in 0..KEYS / 4 {
        inst.remove(&key(i)).unwrap();
        assert!(matches!(inst.get(&key(i)), Err(TieraError::NotFound(_))));
        assert!((1..=3).all(|v| !mem.holds(&key(i), v) && !disk.holds(&key(i), v)));
    }
    for i in KEYS / 4..KEYS / 2 {
        inst.remove_version(&key(i), 2).unwrap();
        assert_eq!(inst.get_version_list(&key(i)).unwrap(), vec![3]);
        assert!(!mem.holds(&key(i), 2) && !disk.holds(&key(i), 2));
    }

    // The crash loses the memory tier; the disk copies of the latest
    // versions survive. Each key's update dropped its version-3 copy in
    // tier2, so those versions are lost; the version-2 copies survive.
    let survivors = KEYS - KEYS / 2;
    assert_eq!(inst.crash_volatile(), KEYS - KEYS / 4);
    assert_eq!(mem.len(), 0);
    for i in KEYS / 2..KEYS {
        assert_eq!(read(&key(i)), value(i, 2), "{}", key(i));
        assert_eq!(inst.location_of(&key(i)), Some("tier2"));
    }
    assert_eq!(inst.meta().len(), survivors);
}
