//! Proof that the bzip2-class solver's steady state is allocation-free
//! in both directions.
//!
//! Same method as `alloc_free_steady_state.rs` (which covers Deflate):
//! a counting global allocator, a warm-up that grows every buffer of
//! the solver's scratch compartment — RLE1 text, suffix array / inverse
//! BWT rows, SA-IS bucket stack, symbol and selector buffers, Huffman
//! tables, package-merge lists, decoder tables — and the output vector
//! to steady-state capacity, then one more call on a same-sized input
//! that must not touch the heap.
//!
//! This file intentionally contains exactly ONE `#[test]`: cargo runs
//! each integration-test file as its own binary, and a second
//! concurrently-running test would pollute the allocation counter.

use isobar_codecs::bwt::Bzip2Like;
use isobar_codecs::{Codec, CodecScratch, CompressionLevel};
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
        // Growing an existing buffer is an allocation event too.
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> usize {
    ALLOCS.load(Ordering::Relaxed)
}

/// Interleaved smooth/noisy doubles, 800 KB: two `Default` blocks, so
/// the second block of every call already runs on the first's buffers.
fn chunk(seed: u64) -> Vec<u8> {
    let mut state = seed;
    (0..100_000u64)
        .flat_map(|i| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let noise = state >> 32;
            let pred = (i / 100) % 50;
            ((pred << 32) | noise).to_le_bytes()
        })
        .collect()
}

#[test]
fn warm_bzip2like_into_calls_perform_zero_allocations() {
    let codec = Bzip2Like::new(CompressionLevel::Default);
    let mut scratch = CodecScratch::new();
    let mut packed = Vec::new();
    let mut restored = Vec::new();

    for seed in [0x9E37_79B9_7F4A_7C15, 0x2545_F491_4F6C_DD1D] {
        let warm = chunk(seed);
        codec.compress_into(&warm, &mut packed, &mut scratch);
        codec
            .decompress_into(&packed, &mut restored, &mut scratch)
            .unwrap();
        assert_eq!(restored, warm);
    }

    let hot = chunk(0x853C_49E6_748F_EA9B);
    let before = allocs();
    codec.compress_into(&hot, &mut packed, &mut scratch);
    let compressing = allocs() - before;
    let before = allocs();
    codec
        .decompress_into(&packed, &mut restored, &mut scratch)
        .unwrap();
    let decompressing = allocs() - before;
    assert_eq!(
        (compressing, decompressing),
        (0, 0),
        "steady-state (compress_into, decompress_into) allocations"
    );
    assert_eq!(restored, hot);
}
