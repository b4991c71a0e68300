//! The metadata store's persistent image (the BerkeleyDB file of §4.2)
//! is a format: an instance restarted from an image written by another
//! build must read it. The store below holds multi-version objects, tags,
//! an intra-instance replica and a key too long to sit inline in a shard's
//! bucket; its image must equal, byte for byte, the one recorded when
//! `ObjectMeta.versions` was still a version-keyed B-tree.

use bytes::Bytes;
use std::sync::Arc;
use tiera::{InstanceConfig, MetaStore, TieraInstance};
use wiera_net::Region;
use wiera_sim::{ManualClock, SimDuration};

const LONG_KEY: &str = "photos/2016/06/01/a-key-longer-than-23-bytes.jpg";

/// The image of [`populated`], as the B-tree layout wrote it.
const IMAGE: &str = concat!(
    r#"{"k0000001":{"tags":["tmp"],"versions":{"#,
    r#""1":{"access_count":1,"compressed":false,"created":1500000,"dirty":false,"encrypted":false,"last_access":4500000,"location":"tier1","modified":1500000,"replicas":["tier2"],"size":17,"version":1},"#,
    r#""2":{"access_count":1,"compressed":false,"created":3000000,"dirty":false,"encrypted":false,"last_access":4500000,"location":"tier1","modified":3000000,"replicas":[],"size":18,"version":2}}},"#,
    r#""k2":{"tags":[],"versions":{"#,
    r#""1":{"access_count":0,"compressed":false,"created":7500000,"dirty":false,"encrypted":false,"last_access":7500000,"location":"tier1","modified":7500000,"replicas":[],"size":21,"version":1}}},"#,
    r#""photos/2016/06/01/a-key-longer-than-23-bytes.jpg":{"tags":["log","tmp"],"versions":{"#,
    r#""1":{"access_count":0,"compressed":false,"created":6000000,"dirty":false,"encrypted":false,"last_access":6000000,"location":"tier1","modified":6000000,"replicas":[],"size":19,"version":1},"#,
    r#""2":{"access_count":0,"compressed":false,"created":7500000,"dirty":false,"encrypted":false,"last_access":7500000,"location":"tier1","modified":7500000,"replicas":[],"size":20,"version":2}}}}"#,
);

fn populated() -> Arc<TieraInstance> {
    let clock = ManualClock::new();
    let config = InstanceConfig::new("image", Region::UsEast)
        .with_tier("tier1", "LocalMemory", 1 << 20)
        .with_tier("tier2", "EBS-SSD", 1 << 20);
    let inst = TieraInstance::build(config, clock.clone()).unwrap();
    let step = || clock.advance(SimDuration::from_millis(1500));
    let value = |n: u8| Bytes::from(vec![n; 16 + usize::from(n)]);
    step();
    inst.put_tagged("k0000001", value(1), &["tmp"]).unwrap();
    step();
    inst.put("k0000001", value(2)).unwrap();
    step();
    inst.get("k0000001").unwrap();
    inst.copy_version("k0000001", 1, "tier2", None).unwrap();
    step();
    inst.put_tagged(LONG_KEY, value(3), &["log", "tmp"])
        .unwrap();
    step();
    inst.put(LONG_KEY, value(4)).unwrap();
    inst.put("k2", value(5)).unwrap();
    inst
}

#[test]
fn the_metadata_image_keeps_its_format() {
    let inst = populated();
    let image = inst.meta().snapshot();
    assert_eq!(String::from_utf8(image.clone()).unwrap(), IMAGE);

    let back = MetaStore::restore(&image).unwrap();
    assert_eq!(back.snapshot(), image, "restore round-trips the image");
    assert_eq!(back.keys(), ["k0000001", "k2", LONG_KEY]);
    let versions = |key| back.with(key, |o| o.versions.len()).unwrap();
    assert_eq!((versions("k0000001"), versions(LONG_KEY)), (2, 2));
}
