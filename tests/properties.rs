//! Property-based tests on cross-crate invariants.

use bytes::Bytes;
use proptest::prelude::*;
use tiera::{InstanceConfig, TieraInstance};
use wiera_net::Region;
use wiera_policy::{compile, parse};
use wiera_sim::{Histogram, ManualClock, SimDuration, SimInstant};

// ---- policy language properties ---------------------------------------------

/// Strategy for simple generated Tiera policies.
fn gen_policy() -> impl Strategy<Value = String> {
    let tier_kinds = prop::sample::select(vec!["Memcached", "EBS-SSD", "EBS-HDD", "S3", "S3-IA"]);
    let sizes = prop::sample::select(vec!["1G", "5G", "512M", "10G"]);
    (
        prop::collection::vec((tier_kinds, sizes), 1..4),
        1u64..600,
        1u64..100,
    )
        .prop_map(|(tiers, timer_secs, filled_pct)| {
            let mut s = String::from("Tiera Generated(time t) {\n");
            for (i, (kind, size)) in tiers.iter().enumerate() {
                s.push_str(&format!("  tier{}: {{name: {kind}, size: {size}}};\n", i + 1));
            }
            s.push_str(
                "  event(insert.into) : response {\n    insert.object.dirty = true;\n    store(what:insert.object, to:tier1);\n  }\n",
            );
            s.push_str(&format!(
                "  event(time={timer_secs} seconds) : response {{\n    copy(what: object.location == tier1 && object.dirty == true, to:tier1);\n  }}\n"
            ));
            s.push_str(&format!(
                "  event(tier1.filled == {filled_pct}%) : response {{\n    delete(what:object.dirty == false);\n  }}\n"
            ));
            s.push('}');
            s
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any generated policy parses, compiles, and pretty-print round-trips
    /// to an identical AST.
    #[test]
    fn prop_policy_roundtrip(src in gen_policy()) {
        let spec = parse(&src).expect("generated policy parses");
        let compiled = compile(&spec).expect("generated policy compiles");
        prop_assert!(compiled.rules.len() == 3);
        let printed = spec.to_string();
        let reparsed = parse(&printed).expect("pretty-print reparses");
        prop_assert_eq!(spec, reparsed);
    }

    /// Histogram quantiles are monotone and bounded by min/max for any
    /// sample set.
    #[test]
    fn prop_histogram_quantiles(samples in prop::collection::vec(1u64..10_000_000, 1..300)) {
        let mut h = Histogram::new();
        for &s in &samples {
            h.record(SimDuration::from_micros(s));
        }
        let q10 = h.quantile(0.1);
        let q50 = h.quantile(0.5);
        let q99 = h.quantile(0.99);
        prop_assert!(q10 <= q50 && q50 <= q99);
        prop_assert!(q99 <= h.max());
        prop_assert!(h.mean() <= h.max());
        prop_assert!(h.min() <= h.mean());
        prop_assert_eq!(h.count(), samples.len() as u64);
    }

    /// Last-write-wins is order-independent: applying the same set of
    /// replicated updates in any order leaves every instance with the same
    /// winning value.
    #[test]
    fn prop_lww_convergence(
        mut updates in prop::collection::vec((1u64..6, 0u64..1000u64, any::<u8>()), 2..12),
        seed in any::<u64>(),
    ) {
        // Deduplicate (version, mtime) pairs: LWW ties on identical stamps
        // are resolved by arrival order, which genuinely diverges.
        updates.sort();
        updates.dedup_by_key(|(v, m, _)| (*v, *m));

        let build = || {
            TieraInstance::build(
                InstanceConfig::new("lww", Region::UsEast).with_tier("tier1", "EBS-SSD", 1 << 20),
                ManualClock::new(),
            )
            .unwrap()
        };
        let a = build();
        let b = build();
        // a gets them in sorted order, b in a seed-shuffled order.
        let mut shuffled = updates.clone();
        let mut rng = wiera_sim::SimRng::new(seed);
        for i in (1..shuffled.len()).rev() {
            let j = rng.gen_range_usize(0, i + 1);
            shuffled.swap(i, j);
        }
        let values: Vec<Bytes> = updates.iter().map(|u| Bytes::from(vec![u.2; 4])).collect();
        let values_shuffled: Vec<Bytes> =
            shuffled.iter().map(|u| Bytes::from(vec![u.2; 4])).collect();
        let item = |(v, m, _): &(u64, u64, u8), value| tiera::instance::Replicated {
            key: "k",
            version: *v,
            modified: SimInstant::EPOCH + SimDuration::from_millis(*m),
            value,
        };
        // a takes them one at a time, b as one batch.
        for (u, value) in updates.iter().zip(&values) {
            a.apply_replicated(&[item(u, value)]).remove(0).unwrap();
        }
        let batch: Vec<_> = shuffled.iter().zip(&values_shuffled).map(|(u, v)| item(u, v)).collect();
        prop_assert!(b.apply_replicated(&batch).iter().all(Result::is_ok));
        let va = a.get("k").unwrap().value.unwrap();
        let vb = b.get("k").unwrap().value.unwrap();
        prop_assert_eq!(va, vb, "replicas must converge regardless of delivery order");
    }

    /// Unit conversions scale linearly.
    #[test]
    fn prop_unit_conversions(v in 0.0f64..1e6) {
        use wiera_policy::units::{to_bytes, to_millis, Unit};
        let ms = to_millis(v, Unit::Seconds).unwrap();
        prop_assert!((ms - v * 1000.0).abs() < 1e-6 * v.max(1.0));
        if v < 1e6 {
            let b = to_bytes(v, Unit::KiB).unwrap();
            prop_assert_eq!(b, (v * 1024.0) as u64);
        }
    }
}

// ---- versioned-store properties ----------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Puts and version reads behave like an append-only log: version i
    /// always returns the i-th written payload, the latest wins.
    #[test]
    fn prop_version_log(payloads in prop::collection::vec(any::<u8>(), 1..20)) {
        let inst = TieraInstance::build(
            InstanceConfig::new("log", Region::UsEast).with_tier("tier1", "EBS-SSD", 1 << 20),
            ManualClock::new(),
        )
        .unwrap();
        for (i, p) in payloads.iter().enumerate() {
            let out = inst.put("k", Bytes::from(vec![*p; 8])).unwrap();
            prop_assert_eq!(out.version, i as u64 + 1);
        }
        for (i, p) in payloads.iter().enumerate() {
            let got = inst.get_version("k", i as u64 + 1).unwrap();
            prop_assert_eq!(got.value.unwrap()[0], *p);
        }
        let latest = inst.get("k").unwrap();
        prop_assert_eq!(latest.version, payloads.len() as u64);
        prop_assert_eq!(latest.value.unwrap()[0], *payloads.last().unwrap());
    }

    /// FS writes at arbitrary offsets are readable back exactly, across
    /// block boundaries.
    #[test]
    fn prop_fs_write_read(
        offset in 0u64..5000,
        data in prop::collection::vec(any::<u8>(), 1..3000),
    ) {
        use wiera_apps::fs::{FsConfig, WieraFs};
        use wiera_apps::testutil::MapStore;
        let store = MapStore::shared(SimDuration::from_micros(10), SimDuration::from_micros(10));
        let fs = WieraFs::new(store, FsConfig { block_size: 512, direct_io: true, cache_bytes: 0 });
        fs.create_filled("/f", 8192, 0).unwrap();
        fs.write_at("/f", offset, &data).unwrap();
        let (back, _) = fs.read_at("/f", offset, data.len()).unwrap();
        prop_assert_eq!(back.as_ref(), &data[..]);
    }
}
