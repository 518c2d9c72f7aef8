//! Proof that telemetry recording itself is allocation-free.
//!
//! The recorder sits inside the pipeline's hot loops, so recording a
//! counter, a stage span, a histogram sample, or absorbing another
//! recorder must never touch the heap — in the enabled build *and*,
//! trivially, in the telemetry-off build where every method is a no-op.
//! Only snapshot serialization (`to_json`) may allocate.
//!
//! This file intentionally contains exactly ONE `#[test]`: cargo runs
//! each integration-test file as its own binary, and a second
//! concurrently-running test would pollute the allocation counter.

use isobar_telemetry::{Counter, Phase, Recorder};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> usize {
    ALLOCS.load(Ordering::Relaxed)
}

#[test]
fn recording_performs_zero_allocations() {
    let mut rec = Recorder::new();
    let mut worker = Recorder::new();

    let before = allocs();
    for i in 0..10_000u64 {
        rec.add(Counter::ChunkInputBytes, i);
        rec.incr(Counter::ChunksCompressed);
        rec.record_stage(Phase::SolverCompress, i * 3);
        rec.record_tau_margin(i as f64 / 500.0);
        rec.record_eupa_trial((i % 2) as usize, ((i / 2) % 2) as usize, i);
        worker.record_stage(Phase::Analyze, i);
    }
    rec.record_eupa_selected(0, 1);
    rec.absorb(&worker);
    let during = allocs() - before;
    assert_eq!(during, 0, "recording allocated {during} times");

    // Snapshots of fixed-size arrays: cloning out of the recorder is
    // also heap-free (only to_json builds a String).
    let before = allocs();
    let snap = rec.snapshot();
    let during = allocs() - before;
    assert_eq!(during, 0, "snapshot() allocated {during} times");

    if isobar_telemetry::ENABLED {
        assert_eq!(snap.counter(Counter::ChunksCompressed), 10_000);
        assert_eq!(snap.stage(Phase::Analyze).count, 10_000);
    } else {
        assert!(snap.is_empty());
    }
}
