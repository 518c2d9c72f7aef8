//! Scratch-reuse equivalence: the allocation-free entry points must be
//! byte-identical to their allocating counterparts, no matter what a
//! previous call left behind in the scratch.
//!
//! This is the contract stated on [`Codec::compress_into`]: the serial
//! pipeline, the parallel workers, and the streaming writer all hold
//! one scratch across many chunks, so any state leakage between calls
//! would corrupt real containers. Every codec id is driven through the
//! same sequence of dissimilar inputs with a single scratch, and each
//! output is compared against a fresh `compress` call.

use isobar_codecs::{codec_for, CodecId, CodecScratch, CompressionLevel};
use proptest::prelude::*;

/// Inputs with deliberately different shapes so consecutive calls leave
/// very different state in the scratch (hash chains, Huffman tables,
/// token buffers, output capacity).
fn input_sequence() -> impl Strategy<Value = Vec<Vec<u8>>> {
    let one = prop_oneof![
        proptest::collection::vec(any::<u8>(), 0..2048),
        proptest::collection::vec(prop_oneof![Just(0u8), Just(7), Just(255)], 0..2048),
        proptest::collection::vec((any::<u8>(), 1usize..48), 0..64).prop_map(|runs| {
            runs.into_iter()
                .flat_map(|(b, n)| std::iter::repeat_n(b, n))
                .collect()
        }),
        Just(Vec::new()),
    ];
    proptest::collection::vec(one, 2..6)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn compress_into_with_reused_scratch_matches_compress(
        inputs in input_sequence(),
        codec_idx in 0usize..2,
        level_idx in 0usize..3,
    ) {
        let id = [CodecId::Deflate, CodecId::Bzip2Like][codec_idx];
        let codec = codec_for(id, CompressionLevel::ALL[level_idx]);
        let mut scratch = CodecScratch::new();
        // Dirty output buffer: stale bytes must never survive a call.
        let mut out = vec![0xEE; 513];
        for (i, data) in inputs.iter().enumerate() {
            codec.compress_into(data, &mut out, &mut scratch);
            let fresh = codec.compress(data);
            prop_assert_eq!(&out, &fresh, "{} input #{} diverged", id, i);
        }
    }

    #[test]
    fn decompress_into_with_reused_scratch_matches_decompress(
        inputs in input_sequence(),
        codec_idx in 0usize..2,
        level_idx in 0usize..3,
    ) {
        let id = [CodecId::Deflate, CodecId::Bzip2Like][codec_idx];
        let codec = codec_for(id, CompressionLevel::ALL[level_idx]);
        let mut scratch = CodecScratch::new();
        let mut out = vec![0xEE; 513];
        for (i, data) in inputs.iter().enumerate() {
            let packed = codec.compress(data);
            codec.decompress_into(&packed, &mut out, &mut scratch).unwrap();
            prop_assert_eq!(&out, data, "{} input #{} diverged", id, i);
        }
    }
}

/// A decode that fails part-way leaves its compartment in whatever
/// state it reached — half-built Huffman tables, a partly loaded BWT
/// column, a torn window. The next decode through the same scratch
/// must neither inherit that state nor be rejected because of it, and
/// the corrupt stream's verdict must not depend on what ran before.
#[test]
fn a_failed_decode_does_not_poison_the_scratch() {
    let valid_inputs = [
        b"after the failure, business as usual. ".repeat(300),
        (0..20_000u32).map(|i| ((i * i) >> 7) as u8).collect(),
        vec![0xFF; 259 * 8],
    ];
    for id in [CodecId::Deflate, CodecId::Bzip2Like] {
        let codec = codec_for(id, CompressionLevel::Default);
        let victim = codec.compress(&b"a stream about to be damaged ".repeat(400));
        let mut scratch = CodecScratch::new();
        let mut out = Vec::new();
        // Damage at several depths, so the failure lands in different
        // stages (header, tables, symbols, checksum).
        for at in (8..victim.len()).step_by(victim.len() / 23 + 1) {
            let mut corrupt = victim.clone();
            corrupt[at] ^= 0x55;
            let fresh = codec.decompress(&corrupt);
            let reused = codec.decompress_into(&corrupt, &mut out, &mut scratch);
            assert_eq!(reused.is_ok(), fresh.is_ok(), "{id}: flip at {at}");
            if let Ok(bytes) = fresh {
                assert_eq!(out, bytes, "{id}: flip at {at}");
            }
            for data in &valid_inputs {
                let packed = codec.compress(data);
                codec
                    .decompress_into(&packed, &mut out, &mut scratch)
                    .unwrap_or_else(|e| panic!("{id}: valid stream after flip at {at}: {e}"));
                assert_eq!(&out, data, "{id}: after flip at {at}");
            }
        }
    }
}

/// Deterministic smoke check: one scratch across every codec and level,
/// interleaved, with outputs compared to fresh compress calls. This
/// covers the cross-codec sharing (one `CodecScratch` serves both
/// solvers) that the per-codec property tests don't interleave.
#[test]
fn one_scratch_serves_both_codecs_interleaved() {
    let mut state = 0x1234_5678_9ABC_DEF0u64;
    let mut noise = |n: usize| -> Vec<u8> {
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 56) as u8
            })
            .collect()
    };
    let inputs = [
        b"structured structured structured".repeat(200),
        noise(10_000),
        vec![0u8; 5_000],
        noise(333),
    ];
    let mut scratch = CodecScratch::new();
    let mut out = Vec::new();
    for level in CompressionLevel::ALL {
        for id in [CodecId::Deflate, CodecId::Bzip2Like] {
            let codec = codec_for(id, level);
            for data in &inputs {
                codec.compress_into(data, &mut out, &mut scratch);
                assert_eq!(out, codec.compress(data), "{id} at {level}");
                let packed = std::mem::take(&mut out);
                codec
                    .decompress_into(&packed, &mut out, &mut scratch)
                    .unwrap();
                assert_eq!(&out, data, "{id} at {level} round trip");
            }
        }
    }
}
