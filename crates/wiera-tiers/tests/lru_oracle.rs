//! A volatile tier evicts exactly the slots a full scan for the least
//! recently used one would, and keeps its byte accounting exact under
//! concurrent writers. A put that takes over the slot of the version it
//! replaces is modeled as a put of the new version, then a delete of the
//! old one.

use bytes::Bytes;
use std::collections::HashMap;
use std::sync::Arc;
use wiera_sim::{Clock, ManualClock, ScaledClock, SimDuration, SimInstant, SimRng};
use wiera_tiers::{SimTier, TierError, TierKind, TierSpec};

const CAPACITY: u64 = 64 << 10;

/// A slot's name: a key and a version.
type Slot = (String, u64);

/// The tier as a full scan sees it: each resident slot's size and last
/// access.
#[derive(Default)]
struct ScanModel {
    slots: HashMap<Slot, (u64, SimInstant)>,
    used: u64,
    evictions: u64,
}

impl ScanModel {
    /// A put into a volatile tier: evict the oldest slot other than `slot`
    /// until the object fits. Returns the slots evicted, or `None` when the
    /// put fails.
    fn put(&mut self, slot: &Slot, size: u64, now: SimInstant) -> Option<Vec<Slot>> {
        if size > CAPACITY {
            return None;
        }
        let mut evicted = Vec::new();
        loop {
            let freed = self.slots.get(slot).map_or(0, |(s, _)| *s);
            if self.used - freed + size <= CAPACITY {
                self.used = self.used - freed + size;
                self.slots.insert(slot.clone(), (size, now));
                return Some(evicted);
            }
            let victim = self
                .slots
                .iter()
                .filter(|(s, _)| *s != slot)
                .min_by_key(|(_, (_, at))| *at)
                .map(|(s, _)| s.clone())?;
            let (size, _) = self.slots.remove(&victim)?;
            self.used -= size;
            self.evictions += 1;
            evicted.push(victim);
        }
    }

    fn delete(&mut self, slot: &Slot) {
        if let Some((size, _)) = self.slots.remove(slot) {
            self.used -= size;
        }
    }
}

fn payload(size: u64) -> Bytes {
    Bytes::from(vec![0x5A; size as usize])
}

fn assert_same_resident(tier: &SimTier, model: &ScanModel, seed: u64, op: usize) {
    let mut got: Vec<Slot> = tier
        .keys()
        .iter()
        .map(|(k, v)| (k.to_string(), *v))
        .collect();
    let mut want: Vec<Slot> = model.slots.keys().cloned().collect();
    got.sort();
    want.sort();
    assert_eq!(got, want, "seed {seed}, op {op}: resident sets differ");
}

/// Replay one seeded sequence against the tier and the scan model. Each key
/// has a current version; half the puts rewrite it, the other half write
/// the next version and take over the current one's slot.
fn replay(seed: u64, ops: usize) {
    let clock = ManualClock::new();
    let tier = SimTier::new(
        TierSpec::of(TierKind::Memcached),
        CAPACITY,
        clock.clone(),
        seed,
    );
    let mut model = ScanModel::default();
    let mut current: HashMap<String, u64> = HashMap::new();
    let mut rng = SimRng::new(seed);
    // 24 hot keys take half the traffic; 2000 cold keys share the rest.
    let key = |rng: &mut SimRng| match rng.gen_bool(0.5) {
        true => format!("hot{}", rng.gen_range_usize(0, 24)),
        false => format!("cold{}", rng.gen_range_usize(0, 2000)),
    };
    let wipe_at = rng.gen_range_usize(ops / 4, 3 * ops / 4);
    let mut takeovers = 0;
    for op in 0..ops {
        // Every op sees a later instant, so no two stamps tie.
        clock.advance(SimDuration::from_micros(1));
        let now = clock.now();
        let k = key(&mut rng);
        let version = current.get(&k).copied().unwrap_or(0);
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
                let replaces = rng.gen_bool(0.5).then_some(version);
                let slot = (k.clone(), version + u64::from(replaces.is_some()));
                let evicted = model.put(&slot, size, now);
                let stored = tier.put_at(&k, slot.1, payload(size), now, replaces);
                assert_eq!(stored.is_ok(), evicted.is_some(), "seed {seed}, op {op}");
                if let (Some(p), Ok(_)) = (replaces, &stored) {
                    model.delete(&(k.clone(), p));
                    current.insert(k.clone(), slot.1);
                    takeovers += 1;
                }
                assert_eq!(
                    tier.stats.snapshot().evictions,
                    model.evictions,
                    "seed {seed}, op {op}: eviction counts differ"
                );
                for (key, version) in evicted.iter().flatten() {
                    assert!(
                        !tier.holds(key, *version),
                        "seed {seed}, op {op}: kept {key} v{version}"
                    );
                }
                assert_eq!(tier.len(), model.slots.len(), "seed {seed}, op {op}");
                if op % 256 == 0 {
                    assert_same_resident(&tier, &model, seed, op);
                }
            }
            45..=89 => {
                let hit = tier.get_at(&k, version, now).is_ok();
                let slot = model.slots.get_mut(&(k.clone(), version));
                assert_eq!(hit, slot.is_some(), "seed {seed}, op {op}: get of {k}");
                if let Some((_, at)) = slot {
                    *at = now;
                }
            }
            _ => {
                tier.delete_at(&k, version, now).unwrap();
                model.delete(&(k, version));
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
    assert!(takeovers > 1000, "seed {seed}: only {takeovers} takeovers");
    let stats = tier.stats.snapshot();
    assert!(stats.deletes >= takeovers, "a takeover counts its delete");
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
    /// Writer `w` writes versions `w * STRIDE + 1 ..`, so a version names
    /// its writer.
    const STRIDE: u64 = 1 << 32;
    let clock = ScaledClock::shared(2000.0);
    let tier = SimTier::new(TierSpec::of(TierKind::Memcached), CAP, clock.clone(), 7);
    let writers: Vec<_> = (0..4u64)
        .map(|w| {
            let (tier, clock) = (Arc::clone(&tier), clock.clone());
            std::thread::spawn(move || {
                let mut rng = SimRng::new(100 + w);
                // Each key's version this writer wrote last.
                let mut current: HashMap<String, u64> = HashMap::new();
                let mut next = w * STRIDE;
                for _ in 0..20_000 {
                    let k = format!("k{}", rng.gen_range_usize(0, 400));
                    let version = *current.entry(k.clone()).or_insert(w * STRIDE);
                    let now = clock.now();
                    match rng.gen_range_usize(0, 10) {
                        0..=5 => {
                            // Half the puts write a new version and take
                            // over the slot of the one they replace.
                            let size = rng.gen_range_usize(32, 700) as u64;
                            let replaces = rng.gen_bool(0.5).then_some(version);
                            let v = match replaces {
                                Some(_) => {
                                    next += 1;
                                    next
                                }
                                None => version,
                            };
                            tier.put_at(&k, v, payload(size), now, replaces).unwrap();
                            current.insert(k, v);
                        }
                        6..=8 => match tier.get_at(&k, version, now) {
                            Ok(_) | Err(TierError::NotFound) => {}
                            Err(e) => panic!("get {k}: {e}"),
                        },
                        _ => {
                            tier.delete_at(&k, version, now).unwrap();
                        }
                    }
                    assert!(tier.used_bytes() <= CAP, "{} > {CAP}", tier.used_bytes());
                }
                current
            })
        })
        .collect();
    let current: Vec<HashMap<String, u64>> =
        writers.into_iter().map(|w| w.join().unwrap()).collect();
    let slots = tier.keys();
    let resident: u64 = slots
        .iter()
        .map(|(k, v)| tier.get_at(k, *v, SimInstant::EPOCH).unwrap().0.len() as u64)
        .sum();
    assert_eq!(tier.used_bytes(), resident);
    assert!(tier.stats.snapshot().evictions > 0);
    // A put then a delete of the replaced version leaves each writer at
    // most its latest version of a key.
    for (k, v) in &slots {
        let writer = (v / STRIDE) as usize;
        assert_eq!(
            current[writer].get(k.as_str()),
            Some(v),
            "{} v{v}",
            k.as_str()
        );
    }
}
