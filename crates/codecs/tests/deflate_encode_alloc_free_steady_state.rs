//! Proof that a warm DEFLATE encode is allocation-free at every level,
//! whatever the input's size.
//!
//! Same method as `alloc_free_steady_state.rs` (one level, same-sized
//! inputs): a counting global allocator, and a warm-up longer than one
//! block and the window, with every literal and many length and
//! distance codes. It grows every buffer to its bound, and each bound
//! comes from the format: match tables, the `prev` ring, the one-block
//! symbol buffer, Huffman construction lists, header workspace. After
//! that, inputs four times larger each step must not touch the heap:
//! nothing on the encode path may be sized by the input beyond those
//! bounds. The output vector is the caller's and is reserved up front.
//!
//! This file intentionally contains exactly ONE `#[test]`: cargo runs
//! each integration-test file as its own binary, and a second
//! concurrently-running test would pollute the allocation counter.

use isobar_codecs::deflate::Deflate;
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

/// Interleaved smooth/noisy doubles: match-dense columns beside
/// literal-heavy ones, several blocks once large.
fn chunk(elements: usize, seed: u64) -> Vec<u8> {
    let mut state = seed;
    (0..elements)
        .flat_map(|i| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let noise = state >> 32;
            let pred = (i as u64 / 100) % 50;
            ((pred << 32) | noise).to_le_bytes()
        })
        .collect()
}

/// More than one block of tokens (65 536), every literal value, and
/// repeats at lengths 3..=258 and distances up to the window, so the
/// warm-up fills the symbol buffer and builds the widest Huffman codes.
fn rich() -> Vec<u8> {
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let mut data: Vec<u8> = (0..70_000)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 56) as u8
        })
        .collect();
    for len in 3..=258usize {
        let from = data.len() - len - (len * 97) % 30_000;
        let piece = data[from..from + len].to_vec();
        data.extend_from_slice(&piece);
        data.push(len as u8);
    }
    data
}

#[test]
fn warm_deflate_compress_into_allocates_nothing_on_growing_inputs() {
    let sizes = [2_500, 10_000, 40_000, 160_000];
    let largest = sizes[sizes.len() - 1] * 8;
    for level in CompressionLevel::ALL {
        let codec = Deflate::new(level);
        let mut scratch = CodecScratch::new();
        let mut out = Vec::with_capacity(2 * largest + 1024);

        codec.compress_into(&rich(), &mut out, &mut scratch);
        codec.compress_into(
            &chunk(sizes[0], 0x9E37_79B9_7F4A_7C15),
            &mut out,
            &mut scratch,
        );

        for (step, &elements) in sizes.iter().enumerate() {
            let data = chunk(elements, 0x853C_49E6_748F_EA9B ^ step as u64);
            let before = allocs();
            codec.compress_into(&data, &mut out, &mut scratch);
            let during = allocs() - before;
            assert_eq!(
                during,
                0,
                "{level} on {} bytes allocated {during} times",
                data.len()
            );
            assert_eq!(codec.decompress(&out).unwrap(), data, "{level}");
        }
    }
}
