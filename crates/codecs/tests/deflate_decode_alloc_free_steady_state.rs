//! Proof that the steady-state DEFLATE decode is allocation-free.
//!
//! Same method as `alloc_free_steady_state.rs` (which covers the
//! compress side): a counting global allocator, a warm-up that grows
//! the decode tables in the scratch's inflate compartment, the
//! once-per-process fixed-Huffman pair and the output vector to their
//! steady-state size, then one more `decompress_into` into the reused
//! `out` that must not touch the heap. The stream mixes dynamic blocks
//! (tables rebuilt in place per block) with a fixed and a stored block.
//!
//! This file intentionally contains exactly ONE `#[test]`: cargo runs
//! each integration-test file as its own binary, and a second
//! concurrently-running test would pollute the allocation counter.

use isobar_codecs::bitio::LsbBitWriter;
use isobar_codecs::deflate::tables::{fixed_dist_lengths, fixed_litlen_lengths};
use isobar_codecs::deflate::{adler32, deflate_raw, Deflate};
use isobar_codecs::huffman::HuffmanEncoder;
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

/// Interleaved smooth/noisy doubles, 320 KB: several dynamic blocks.
fn chunk(seed: u64) -> Vec<u8> {
    let mut state = seed;
    (0..40_000u64)
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

/// A zlib stream of a fixed-Huffman block, a stored block, then the
/// chunk's dynamic blocks; and the bytes it decodes to.
fn stream(level: CompressionLevel, data: &[u8]) -> (Vec<u8>, Vec<u8>) {
    let lit = HuffmanEncoder::from_lengths(&fixed_litlen_lengths());
    let dist = HuffmanEncoder::from_lengths(&fixed_dist_lengths());
    let mut w = LsbBitWriter::new();
    w.write_bits(0b01 << 1, 3); // not final, fixed Huffman
    for &byte in b"abc" {
        lit.write_lsb(&mut w, byte as usize);
    }
    lit.write_lsb(&mut w, 260); // length 6
    dist.write_lsb(&mut w, 2); // distance 3
    lit.write_lsb(&mut w, 256);
    w.write_bits(0b00 << 1, 3); // not final, stored
    w.align_to_byte();
    w.write_bytes(&[3, 0, !3, !0]);
    w.write_bytes(b"xyz");
    let mut zlib = vec![0x78, 0x01];
    zlib.extend_from_slice(&w.finish());
    zlib.extend_from_slice(&deflate_raw(data, level));
    let plain = [b"abcabcabcxyz", data].concat();
    zlib.extend_from_slice(&adler32(&plain).to_be_bytes());
    (zlib, plain)
}

#[test]
fn warm_deflate_decompress_into_performs_zero_allocations() {
    let codec = Deflate::new(CompressionLevel::Fast);
    let mut scratch = CodecScratch::new();
    let mut restored = Vec::new();

    for seed in [0x9E37_79B9_7F4A_7C15, 0x2545_F491_4F6C_DD1D] {
        let (packed, plain) = stream(CompressionLevel::Default, &chunk(seed));
        codec
            .decompress_into(&packed, &mut restored, &mut scratch)
            .unwrap();
        assert_eq!(restored, plain);
    }

    let (packed, plain) = stream(CompressionLevel::Best, &chunk(0x853C_49E6_748F_EA9B));
    let before = allocs();
    codec
        .decompress_into(&packed, &mut restored, &mut scratch)
        .unwrap();
    let during = allocs() - before;
    assert_eq!(
        during, 0,
        "steady-state decompress_into allocated {during} times"
    );
    assert_eq!(restored, plain);
}
