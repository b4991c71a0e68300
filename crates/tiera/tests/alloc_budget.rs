//! Heap-allocation budget of one engine op, heap footprint of one stored
//! object, and the live heap over overwrites, measured on a warm one-tier
//! instance with `max_versions 1` (every put prunes the version it
//! replaces). A global allocator counts
//! the allocations made, and the bytes held, by the calling thread only, so
//! other tests of this binary running in parallel do not pollute the count.
//!
//! Print the measured counts with `cargo test -p tiera --test alloc_budget
//! -- --nocapture`.

use bytes::Bytes;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use tiera::{BatchOp, InstanceConfig, TieraInstance};
use wiera_net::Region;
use wiera_sim::ManualClock;

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes allocated minus bytes freed on this thread.
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

/// Count one allocation that changes the bytes held by `delta`.
fn note_alloc(delta: i64) {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    note_bytes(delta);
}

fn note_bytes(delta: i64) {
    let _ = LIVE.try_with(|n| n.set(n.get() + delta));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size() as i64);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note_bytes(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const KEYS: usize = 1024;
const BATCH: usize = 64;

/// Allocations per op of `ops` calls of `f`, on this thread.
fn per_op(ops: usize, f: impl FnOnce()) -> f64 {
    let before = ALLOCS.with(Cell::get);
    f();
    (ALLOCS.with(Cell::get) - before) as f64 / ops as f64
}

/// A one-tier instance holding every key, warmed up by the ops measured.
fn warm_instance(keys: &[String], value: &Bytes) -> Arc<TieraInstance> {
    let config = InstanceConfig::new("alloc-budget", Region::UsEast)
        .with_tier("tier1", "LocalMemory", 8 << 30)
        .with_max_versions(1);
    let inst = TieraInstance::build(config, ManualClock::new()).unwrap();
    for _ in 0..2 {
        for k in keys {
            inst.put(k, value.clone()).unwrap();
            inst.get(k).unwrap();
        }
        for chunk in keys.chunks(BATCH) {
            let puts: Vec<BatchOp> = chunk
                .iter()
                .map(|k| BatchOp::Put {
                    key: k.clone(),
                    value: value.clone(),
                })
                .collect();
            let gets: Vec<BatchOp> = chunk
                .iter()
                .map(|k| BatchOp::Get { key: k.clone() })
                .collect();
            inst.apply_batch(&puts);
            inst.apply_batch(&gets);
        }
    }
    inst
}

#[test]
fn engine_ops_stay_within_their_allocation_budget() {
    let keys: Vec<String> = (0..KEYS).map(|i| format!("k{i:07}")).collect();
    let value = Bytes::from(vec![0x5Au8; 256]);
    let inst = warm_instance(&keys, &value);
    let batches = |put: bool| -> Vec<Vec<BatchOp>> {
        keys.chunks(BATCH)
            .map(|chunk| {
                chunk
                    .iter()
                    .map(|k| match put {
                        true => BatchOp::Put {
                            key: k.clone(),
                            value: value.clone(),
                        },
                        false => BatchOp::Get { key: k.clone() },
                    })
                    .collect()
            })
            .collect()
    };
    let (puts, gets) = (batches(true), batches(false));

    let batched_put = per_op(KEYS, || {
        for b in &puts {
            assert!(inst.apply_batch(b).0.iter().all(Result::is_ok));
        }
    });
    let batched_get = per_op(KEYS, || {
        for b in &gets {
            assert!(inst.apply_batch(b).0.iter().all(Result::is_ok));
        }
    });
    let single_put = per_op(KEYS, || {
        for k in &keys {
            inst.put(k, value.clone()).unwrap();
        }
    });
    let single_get = per_op(KEYS, || {
        for k in &keys {
            inst.get(k).unwrap();
        }
    });
    println!(
        "allocations per op: batched put {batched_put:.4}, batched get {batched_get:.4}, \
         single put {single_put:.4}, single get {single_get:.4}"
    );
    // A batch allocates its ordering and its results, three allocations
    // shared by its 64 items; a single op allocates nothing.
    assert!(batched_put <= 0.05, "batched put: {batched_put:.4}");
    assert!(batched_get <= 0.05, "batched get: {batched_get:.4}");
    assert_eq!(single_put, 0.0, "single put");
    assert_eq!(single_get, 0.0, "single get");
}

/// Heap bytes the warm instance holds per stored object, the payload
/// excluded (every put stores one shared buffer, allocated beforehand):
/// metastore entry, version list, tier slot and the instance's fixed cost
/// spread over the keys. A first instance, dropped before the count,
/// grows the process-wide metric series and registries the second one
/// then shares.
#[test]
fn a_stored_object_holds_at_most_512_heap_bytes() {
    let keys: Vec<String> = (0..KEYS).map(|i| format!("k{i:07}")).collect();
    let value = Bytes::from(vec![0x5Au8; 256]);
    drop(warm_instance(&keys, &value));
    let before = LIVE.with(Cell::get);
    let inst = warm_instance(&keys, &value);
    let per_object = (LIVE.with(Cell::get) - before) as f64 / KEYS as f64;
    println!("heap bytes per stored object: {per_object:.1}");
    assert_eq!(inst.meta().len(), KEYS);
    assert!(per_object <= 512.0, "{per_object:.1} B per object");
}

/// Live heap bytes of a one-tier `max_versions 1` instance holding `KEYS`
/// keys of `len` bytes, after each of five passes that overwrite every key.
fn live_heap_over_overwrite_passes(len: usize) -> Vec<i64> {
    let keys: Vec<String> = (0..KEYS).map(|i| format!("{i:0len$}")).collect();
    let value = Bytes::from(vec![0x5Au8; 256]);
    let before = LIVE.with(Cell::get);
    let config = InstanceConfig::new("overwrite-heap", Region::UsEast)
        .with_tier("tier1", "LocalMemory", 8 << 30)
        .with_max_versions(1);
    let inst = TieraInstance::build(config, ManualClock::new()).unwrap();
    for k in &keys {
        inst.put(k, value.clone()).unwrap();
    }
    (0..5)
        .map(|_| {
            for k in &keys {
                inst.put(k, value.clone()).unwrap();
            }
            LIVE.with(Cell::get) - before
        })
        .collect()
}

/// An overwrite that prunes the version it replaces gives back what the
/// new version takes: the live heap stays within 1 % over five passes,
/// for keys that sit inline in a slot (8, 20 bytes) and keys that do not
/// (40 bytes).
#[test]
fn overwrites_keep_the_live_heap_flat() {
    for len in [8, 20, 40] {
        let live = live_heap_over_overwrite_passes(len);
        println!("{len}-byte keys, live heap after each pass: {live:?}");
        let (lo, hi) = (live.iter().min().unwrap(), live.iter().max().unwrap());
        assert!(
            (hi - lo) as f64 <= 0.01 * *lo as f64,
            "{len}-byte keys: {live:?}"
        );
    }
}
