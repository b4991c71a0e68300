//! A volatile tier evicts exactly the slots a full scan for the least
//! recently used one would, and keeps its byte accounting exact under
//! concurrent writers.

use bytes::Bytes;
use std::collections::HashMap;
use std::sync::Arc;
use wiera_sim::{Clock, ManualClock, ScaledClock, SimDuration, SimInstant, SimRng};
use wiera_tiers::{SimTier, TierError, TierKind, TierSpec};

const CAPACITY: u64 = 64 << 10;

/// The tier as a full scan sees it: each resident key's size and last access.
#[derive(Default)]
struct ScanModel {
    slots: HashMap<String, (u64, SimInstant)>,
    used: u64,
    evictions: u64,
}

impl ScanModel {
    /// A put into a volatile tier: evict the oldest slot other than `key`
    /// until the object fits. Returns the keys evicted, or `None` when the
    /// put fails.
    fn put(&mut self, key: &str, size: u64, now: SimInstant) -> Option<Vec<String>> {
        if size > CAPACITY {
            return None;
        }
        let mut evicted = Vec::new();
        loop {
            let freed = self.slots.get(key).map_or(0, |(s, _)| *s);
            if self.used - freed + size <= CAPACITY {
                self.used = self.used - freed + size;
                self.slots.insert(key.to_string(), (size, now));
                return Some(evicted);
            }
            let victim = self
                .slots
                .iter()
                .filter(|(k, _)| k.as_str() != key)
                .min_by_key(|(_, (_, at))| *at)
                .map(|(k, _)| k.clone())?;
            let (size, _) = self.slots.remove(&victim)?;
            self.used -= size;
            self.evictions += 1;
            evicted.push(victim);
        }
    }
}

fn payload(size: u64) -> Bytes {
    Bytes::from(vec![0x5A; size as usize])
}

fn assert_same_resident(tier: &SimTier, model: &ScanModel, seed: u64, op: usize) {
    let mut got: Vec<String> = tier.keys().iter().map(|(k, _)| k.to_string()).collect();
    let mut want: Vec<String> = model.slots.keys().cloned().collect();
    got.sort();
    want.sort();
    assert_eq!(got, want, "seed {seed}, op {op}: resident sets differ");
}

/// Replay one seeded sequence against the tier and the scan model.
fn replay(seed: u64, ops: usize) {
    let clock = ManualClock::new();
    let tier = SimTier::new(
        TierSpec::of(TierKind::Memcached),
        CAPACITY,
        clock.clone(),
        seed,
    );
    let mut model = ScanModel::default();
    let mut rng = SimRng::new(seed);
    // 24 hot keys take half the traffic; 2000 cold keys share the rest.
    let key = |rng: &mut SimRng| match rng.gen_bool(0.5) {
        true => format!("hot{}", rng.gen_range_usize(0, 24)),
        false => format!("cold{}", rng.gen_range_usize(0, 2000)),
    };
    let wipe_at = rng.gen_range_usize(ops / 4, 3 * ops / 4);
    for op in 0..ops {
        // Every op sees a later instant, so no two stamps tie.
        clock.advance(SimDuration::from_micros(1));
        let now = clock.now();
        let k = key(&mut rng);
        match rng.gen_range_usize(0, 100) {
            _ if op == wipe_at => {
                tier.wipe();
                model.slots.clear();
                model.used = 0;
            }
            0..=44 => {
                // Mostly small objects, now and then one of a quarter of
                // the tier, which evicts many slots at once.
                let size = match rng.gen_bool(0.02) {
                    true => CAPACITY / 4,
                    false => rng.gen_range_usize(64, 1024) as u64,
                };
                let evicted = model.put(&k, size, now);
                let stored = tier.put(&k, payload(size));
                assert_eq!(stored.is_ok(), evicted.is_some(), "seed {seed}, op {op}");
                assert_eq!(
                    tier.stats.snapshot().evictions,
                    model.evictions,
                    "seed {seed}, op {op}: eviction counts differ"
                );
                for victim in evicted.iter().flatten() {
                    assert!(
                        !tier.contains(victim),
                        "seed {seed}, op {op}: kept {victim}"
                    );
                }
                assert_eq!(tier.len(), model.slots.len(), "seed {seed}, op {op}");
                if op % 256 == 0 {
                    assert_same_resident(&tier, &model, seed, op);
                }
            }
            45..=89 => {
                let hit = tier.get(&k).is_ok();
                let slot = model.slots.get_mut(&k);
                assert_eq!(hit, slot.is_some(), "seed {seed}, op {op}: get of {k}");
                if let Some((_, at)) = slot {
                    *at = now;
                }
            }
            _ => {
                tier.delete(&k).unwrap();
                if let Some((size, _)) = model.slots.remove(&k) {
                    model.used -= size;
                }
            }
        }
        assert_eq!(tier.used_bytes(), model.used, "seed {seed}, op {op}");
    }
    assert_same_resident(&tier, &model, seed, ops);
    assert!(
        model.evictions > 1000,
        "seed {seed}: only {} evictions",
        model.evictions
    );
}

#[test]
fn evictions_match_a_full_scan_for_the_least_recently_used_slot() {
    for seed in 1..=20 {
        replay(seed, 20_000);
    }
}

#[test]
fn concurrent_writers_on_a_full_tier_keep_accounting_exact() {
    const CAP: u64 = 16 << 10;
    let tier = SimTier::new(
        TierSpec::of(TierKind::Memcached),
        CAP,
        ScaledClock::shared(2000.0),
        7,
    );
    let writers: Vec<_> = (0..4u64)
        .map(|w| {
            let tier = Arc::clone(&tier);
            std::thread::spawn(move || {
                let mut rng = SimRng::new(100 + w);
                for _ in 0..20_000 {
                    let k = format!("k{}", rng.gen_range_usize(0, 400));
                    match rng.gen_range_usize(0, 10) {
                        0..=5 => {
                            let size = rng.gen_range_usize(32, 700) as u64;
                            tier.put(&k, payload(size)).unwrap();
                        }
                        6..=8 => match tier.get(&k) {
                            Ok(_) | Err(TierError::NotFound) => {}
                            Err(e) => panic!("get {k}: {e}"),
                        },
                        _ => {
                            tier.delete(&k).unwrap();
                        }
                    }
                    assert!(tier.used_bytes() <= CAP, "{} > {CAP}", tier.used_bytes());
                }
            })
        })
        .collect();
    for w in writers {
        w.join().unwrap();
    }
    let resident: u64 = tier
        .keys()
        .iter()
        .map(|(k, _)| tier.get(k).unwrap().0.len() as u64)
        .sum();
    assert_eq!(tier.used_bytes(), resident);
    assert!(tier.stats.snapshot().evictions > 0);
}
