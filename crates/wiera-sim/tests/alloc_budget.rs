//! Heap-allocation budget of one trace record, measured with the ring full
//! so every record evicts the oldest one. A global allocator counts the
//! allocations made by the calling thread only, so other tests of this
//! binary running in parallel do not pollute the count.
//!
//! The ring of owned `TraceEvent`s that the compact records replaced made
//! 4 allocations per RPC span and 6 per history span in this loop.
//!
//! Print the measured counts with `cargo test -p wiera-sim --test
//! alloc_budget -- --nocapture`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use wiera_sim::{SimDuration, SimInstant, Tracer};

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const RING: usize = 4096;
const RECORDS: u64 = 8192;

fn at(us: u64) -> SimInstant {
    SimInstant::EPOCH + SimDuration::from_micros(us)
}

/// Allocations per record of `records` calls of `f`, on this thread.
fn per_record(records: u64, f: impl FnOnce()) -> f64 {
    let before = ALLOCS.with(Cell::get);
    f();
    (ALLOCS.with(Cell::get) - before) as f64 / records as f64
}

#[test]
fn a_trace_record_stays_within_its_allocation_budget() {
    let tracer = Tracer::with_capacity(RING);
    let node: Arc<str> = Arc::from("bench-eventual/US-East/r0");
    // What a replica records per history item: its region's static name,
    // its shared node name, the key and two integers.
    let history = |i: u64| {
        tracer
            .span(at(i), "history", "mput")
            .region("US-East")
            .node(node.clone())
            .object("k0004242", i, i.wrapping_mul(0x9e37_79b9), false)
            .finish(at(i + 900));
    };
    // What the mesh records per RPC: the callee's region and node.
    let rpc = |i: u64| {
        tracer
            .span(at(i), "net", "rpc")
            .region("US-West")
            .node(node.clone())
            .finish(at(i + 35_000));
    };
    // Fill the ring with history records, whose keys every later record
    // evicts and frees.
    for i in 0..RING as u64 {
        history(i);
    }
    assert_eq!(tracer.len(), RING);

    let rpc_allocs = per_record(RECORDS, || (0..RECORDS).for_each(rpc));
    let history_allocs = per_record(RECORDS, || (0..RECORDS).for_each(history));
    assert_eq!(tracer.dropped(), 2 * RECORDS);
    println!("allocations per record: rpc span {rpc_allocs:.4}, history span {history_allocs:.4}");
    assert_eq!(rpc_allocs, 0.0, "rpc span: {rpc_allocs:.4}");
    assert!(history_allocs <= 1.0, "history span: {history_allocs:.4}");
}
