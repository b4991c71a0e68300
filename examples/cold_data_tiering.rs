//! Cold-data tiering and the cost it saves (paper Fig. 6(a) / §5.3).
//!
//! ```sh
//! cargo run --example cold_data_tiering
//! ```
//!
//! A Tiera instance runs the paper's ReducedCostPolicy: any object untouched
//! for 120 hours is moved from EBS-SSD to S3-IA by the ColdDataMonitoring
//! event. We write a dataset, keep 20% of it hot for a simulated month, and
//! print where everything ended up plus the metered bill vs. the all-SSD
//! alternative.

use bytes::Bytes;
use tiera::{InstanceConfig, TieraInstance};
use wiera_net::Region;
use wiera_policy::{compile, parse};
use wiera_sim::{Clock, ManualClock, SimDuration};
use wiera_tiers::cost::CostSpec;
use wiera_tiers::TierKind;

const POLICY: &str = "
Tiera ColdTiering(time t) {
    tier1: {name: EBS-SSD, size: 1G};
    tier2: {name: S3-IA};
    % Fig. 6(a): data untouched for 120 hours moves to cheap storage.
    event(object.lastAccessedTime > 120 hours) : response {
        move(what:object.location == tier1, to:tier2);
    }
}";

fn main() {
    let compiled = compile(&parse(POLICY).unwrap()).unwrap();
    let clock = ManualClock::new();
    let cfg = InstanceConfig::new("cold-demo", Region::UsEast)
        .with_tier("tier1", "EBS-SSD", 1 << 30)
        .with_tier("tier2", "S3-IA", 0)
        .with_rules(compiled.rules);
    let inst = TieraInstance::build(cfg, clock.clone()).unwrap();

    // 30 objects of 256 KiB; objects 0..6 stay hot.
    for i in 0..30 {
        inst.put(&format!("obj-{i}"), Bytes::from(vec![i as u8; 256 * 1024]))
            .unwrap();
    }
    println!("wrote 30 objects (7.5 MiB) into EBS-SSD");

    // A simulated month: advance a day at a time; touch the hot set; let the
    // cold-data rule run (the background engine would do this on its own —
    // we drive it explicitly so the demo is deterministic).
    for day in 1..=30 {
        clock.advance(SimDuration::from_hours(24));
        for i in 0..6 {
            inst.get(&format!("obj-{i}")).unwrap();
        }
        let moved = inst.run_cold_rules();
        if moved > 0 {
            println!("day {day:>2}: ColdDataMonitoring moved {moved} objects to S3-IA");
        }
    }

    // Where did everything land?
    let mut ssd = 0;
    let mut ia = 0;
    for i in 0..30 {
        if inst.location_of(&format!("obj-{i}")) == Some("tier1") {
            ssd += 1;
        } else {
            ia += 1;
        }
    }
    println!("\nfinal placement: {ssd} objects on EBS-SSD (hot), {ia} on S3-IA (cold)");
    assert_eq!(ssd, 6);
    assert_eq!(ia, 24);

    // The metered month, against each tier's Table 4 prices.
    let now = clock.now();
    let mut total = 0.0;
    for (label, kind) in [("tier1", TierKind::EbsSsd), ("tier2", TierKind::S3Ia)] {
        let tier = inst.tier(label).unwrap().as_local().unwrap();
        let bill = tier.meter().report(&CostSpec::of(kind), now);
        println!(
            "{label} ({kind}): storage ${:.6}, requests ${:.6}",
            bill.storage, bill.requests
        );
        total += bill.storage + bill.requests;
    }
    // What the same month would have cost all-SSD.
    let gb = 30.0 * 256.0 * 1024.0 / 1e9;
    let all_ssd = 0.10 * gb;
    println!(
        "\nmonth total ${total:.6} vs all-SSD ${all_ssd:.6} — saved {:.0}%",
        (1.0 - total / all_ssd) * 100.0
    );
    println!(
        "(migration lag and per-request costs matter at demo scale; at the paper's \
         10TB steady state this is the ~$700/month saving of §5.3 — run \
         `cargo run -p wiera-bench --bin sec53_cost_savings` for that arithmetic)"
    );
}
