//! Failure-injection tests for the Tiera instance: tiers going down,
//! degrading, losing volatile contents — the "poorly performing data
//! tiers" and failures Wiera's policies exist to react to.

use bytes::Bytes;
use tiera::{InstanceConfig, TieraError, TieraInstance};
use wiera_net::Region;
use wiera_policy::{compile, parse};
use wiera_sim::{ManualClock, SimDuration};

fn payload(n: usize) -> Bytes {
    Bytes::from(vec![0x77u8; n])
}

#[test]
fn put_surfaces_down_tier() {
    let inst = TieraInstance::build(
        InstanceConfig::new("t", Region::UsEast).with_tier("tier1", "EBS-SSD", 1 << 20),
        ManualClock::new(),
    )
    .unwrap();
    inst.tier("tier1")
        .unwrap()
        .as_local()
        .unwrap()
        .set_down(true);
    match inst.put("k", payload(10)) {
        Err(TieraError::Tier(wiera_tiers::TierError::Down)) => {}
        other => panic!("expected Down, got {other:?}"),
    }
    // Back up: operations resume.
    inst.tier("tier1")
        .unwrap()
        .as_local()
        .unwrap()
        .set_down(false);
    inst.put("k", payload(10)).unwrap();
    assert!(inst.get("k").is_ok());
}

#[test]
fn read_survives_memory_tier_crash_via_replica() {
    // Write-through policy: memory + disk copies. Crash the memory tier:
    // reads must fall back to the disk replica and heal metadata.
    let src = "Tiera T() {
        event(insert.into) : response {
            store(what:insert.object, to:tier1);
            copy(what:insert.object, to:tier2);
        }
    }";
    let compiled = compile(&parse(src).unwrap()).unwrap();
    let inst = TieraInstance::build(
        InstanceConfig::new("t", Region::UsEast)
            .with_tier("tier1", "Memcached", 1 << 20)
            .with_tier("tier2", "EBS-SSD", 1 << 20)
            .with_rules(compiled.rules),
        ManualClock::new(),
    )
    .unwrap();
    inst.put("k", payload(100)).unwrap();
    // Crash memcached: volatile contents are lost, service down.
    let mem = inst.tier("tier1").unwrap().as_local().unwrap();
    mem.set_down(true);
    let got = inst.get("k").unwrap();
    assert_eq!(got.value.unwrap().len(), 100);
    // The read healed the location to the surviving tier.
    assert_eq!(inst.location_of("k"), Some("tier2"));
    // Even after the (empty) memory tier recovers, reads keep working.
    mem.set_down(false);
    assert!(inst.get("k").is_ok());
}

#[test]
fn read_fails_cleanly_when_all_holders_lost() {
    let inst = TieraInstance::build(
        InstanceConfig::new("t", Region::UsEast).with_tier("tier1", "Memcached", 1 << 20),
        ManualClock::new(),
    )
    .unwrap();
    inst.put("k", payload(10)).unwrap();
    // Crash loses the only copy.
    inst.tier("tier1")
        .unwrap()
        .as_local()
        .unwrap()
        .set_down(true);
    assert!(matches!(inst.get("k"), Err(TieraError::NotFound(_))));
}

#[test]
fn degraded_tier_raises_instance_latency() {
    let inst = TieraInstance::build(
        InstanceConfig::new("t", Region::UsEast).with_tier("tier1", "EBS-SSD", 1 << 20),
        ManualClock::new(),
    )
    .unwrap();
    inst.put("k", payload(4096)).unwrap();
    let healthy = inst.get("k").unwrap().latency;
    inst.tier("tier1")
        .unwrap()
        .as_local()
        .unwrap()
        .set_degraded(20.0);
    let degraded = inst.get("k").unwrap().latency;
    assert!(
        degraded.as_millis_f64() > healthy.as_millis_f64() * 5.0,
        "degradation must show through the instance: {healthy} -> {degraded}"
    );
}

#[test]
fn metadata_snapshot_survives_restart() {
    // The BerkeleyDB stand-in: snapshot metadata, restore it, and confirm
    // every version and attribute round-trips.
    let clock = ManualClock::new();
    let inst = TieraInstance::build(
        InstanceConfig::new("t", Region::UsEast).with_tier("tier1", "EBS-SSD", 1 << 20),
        clock.clone(),
    )
    .unwrap();
    inst.put_tagged("a", payload(10), &["tmp"]).unwrap();
    clock.advance(SimDuration::from_secs(5));
    inst.put("a", payload(20)).unwrap();
    inst.put("b", payload(30)).unwrap();

    let image = inst.meta().snapshot();
    let restored = tiera::MetaStore::restore(&image).unwrap();
    assert_eq!(restored.len(), 2);
    restored
        .with("a", |o| {
            assert_eq!(o.versions.len(), 2);
            assert!(o.tags.contains("tmp"));
            assert_eq!(o.latest().unwrap().size, 20);
        })
        .unwrap();
    restored
        .with("b", |o| assert_eq!(o.latest().unwrap().size, 30))
        .unwrap();
}

#[test]
fn full_tier_rejects_but_instance_stays_usable() {
    let inst = TieraInstance::build(
        InstanceConfig::new("t", Region::UsEast).with_tier("tier1", "EBS-SSD", 1000),
        ManualClock::new(),
    )
    .unwrap();
    inst.put("a", payload(800)).unwrap();
    assert!(matches!(
        inst.put("b", payload(800)),
        Err(TieraError::Tier(_))
    ));
    // Existing data still readable; deleting makes room again.
    assert!(inst.get("a").is_ok());
    inst.remove("a").unwrap();
    inst.put("b", payload(800)).unwrap();
}

#[test]
fn glacier_archival_is_cheap_to_write_and_slow_to_read() {
    // Fig. 1(b)'s suggestion: "move data to Glacier instead of S3 ... to
    // reduce the price of cold data". Writes are cheap; retrieval takes
    // modeled hours — policies must keep Glacier off the synchronous path.
    let src = "Tiera T() {
        event(object.lastAccessedTime > 24 hours) : response {
            move(what:object.location == tier1, to:tier2);
        }
    }";
    let compiled = compile(&parse(src).unwrap()).unwrap();
    let clock = ManualClock::new();
    let inst = TieraInstance::build(
        InstanceConfig::new("g", Region::UsEast)
            .with_tier("tier1", "EBS-SSD", 1 << 20)
            .with_tier("tier2", "Glacier", 0)
            .with_rules(compiled.rules),
        clock.clone(),
    )
    .unwrap();
    inst.put("archive-me", payload(4096)).unwrap();
    clock.advance(SimDuration::from_hours(25));
    assert_eq!(inst.run_cold_rules(), 1);
    assert_eq!(inst.location_of("archive-me"), Some("tier2"));
    // Retrieval pays the archival penalty: hours of modeled latency.
    let got = inst.get("archive-me").unwrap();
    assert!(
        got.latency > SimDuration::from_hours(1),
        "glacier retrieval should take hours, got {}",
        got.latency
    );
}
