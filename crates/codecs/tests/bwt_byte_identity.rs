//! Byte identity of the bzip2-class solver's streams.
//!
//! The solver's kernels (suffix array, MTF/zero-run, table selection,
//! Huffman emit) may be rewritten for speed, but the stream is a
//! format: containers and store segments written by one build must be
//! byte-for-byte what another build writes for the same input. The
//! hashes below were captured at the commit before the kernels were
//! replaced (PR 13, `6f6b3e5`) and must never change without a format
//! version bump.

use isobar_codecs::bwt::Bzip2Like;
use isobar_codecs::xxhash::xxh64;
use isobar_codecs::{Codec, CompressionLevel};

/// Deterministic byte source (PCG-style LCG, high bits).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn bytes(&mut self, n: usize) -> Vec<u8> {
        (0..n).map(|_| self.next() as u8).collect()
    }
}

fn corpus() -> Vec<(&'static str, Vec<u8>)> {
    let mut rng = Lcg(0x0150_BA12_5EED);
    let words: [&[u8]; 8] = [
        b"isobar ",
        b"preconditioner ",
        b"lossless ",
        b"compression ",
        b"throughput ",
        b"byte-column ",
        b"the ",
        b"of ",
    ];
    let mut text = Vec::new();
    while text.len() < 200_000 {
        text.extend_from_slice(words[(rng.next() % 8) as usize]);
    }
    let noise = rng.bytes(300_000);
    let all_equal = vec![0x5A; 100_000];
    // Two-column rows as the partitioner emits them for a width-8
    // element with two compressible columns: a slowly varying high
    // byte beside a small-alphabet low byte.
    let two_column: Vec<u8> = (0..150_000u32)
        .flat_map(|i| [(i / 700) as u8, (rng.next() % 5) as u8 * 17])
        .collect();
    let mut ff_runs = vec![0xFF; 259 * 40];
    for len in [1usize, 3, 4, 5, 258, 259, 260, 1000] {
        ff_runs.push(0x00);
        ff_runs.extend(std::iter::repeat_n(0xFF, len));
    }
    // Larger than the biggest block (900 KiB), so every level emits
    // more than one block; mixes all the shapes above.
    let mut large = Vec::with_capacity(1_000_000);
    while large.len() < 1_000_000 {
        match rng.next() % 4 {
            0 => large.extend_from_slice(&text[..10_000]),
            1 => large.extend(rng.bytes(10_000)),
            2 => large.extend(std::iter::repeat_n(rng.next() as u8, 10_000)),
            _ => large.extend_from_slice(&two_column[..10_000]),
        }
    }
    large.truncate(1_000_000);
    vec![
        ("empty", Vec::new()),
        ("one_byte", vec![0x42]),
        ("two_bytes", vec![0x42, 0x42]),
        ("text", text),
        ("noise", noise),
        ("all_equal", all_equal),
        ("two_column", two_column),
        ("ff_runs", ff_runs),
        ("large", large),
    ]
}

/// `(input, [fast, default, best])` — xxh64 (seed 0) of the stream.
const EXPECTED: &[(&str, [u64; 3])] = &[
    (
        "empty",
        [0x9f1ffc793b8a47da, 0x9f1ffc793b8a47da, 0x9f1ffc793b8a47da],
    ),
    (
        "one_byte",
        [0x9fec9034b7409242, 0x9fec9034b7409242, 0x9fec9034b7409242],
    ),
    (
        "two_bytes",
        [0x1be1cea740d45cdd, 0x1be1cea740d45cdd, 0x1be1cea740d45cdd],
    ),
    (
        "text",
        [0x704a7db58bee543f, 0x6dc274e32b7a5814, 0x6dc274e32b7a5814],
    ),
    (
        "noise",
        [0x41cd00afc175956d, 0x010488119273690e, 0x010488119273690e],
    ),
    (
        "all_equal",
        [0xd25cefd5ddc93783, 0xd25cefd5ddc93783, 0xd25cefd5ddc93783],
    ),
    (
        "two_column",
        [0xf197c06a36d72bbe, 0x2247d612a26a58f5, 0x2247d612a26a58f5],
    ),
    (
        "ff_runs",
        [0xf16252cd024b3e09, 0xf16252cd024b3e09, 0xf16252cd024b3e09],
    ),
    (
        "large",
        [0x7fead03a860b53b9, 0x1e11036793ba7d03, 0x0bab5b598aa9965a],
    ),
];

#[test]
fn streams_match_the_hashes_captured_before_the_kernel_rewrite() {
    let actual: Vec<(&str, [u64; 3])> = corpus()
        .iter()
        .map(|(name, data)| {
            let hashes = CompressionLevel::ALL.map(|level| {
                let codec = Bzip2Like::new(level);
                let packed = codec.compress(data);
                assert_eq!(
                    &codec.decompress(&packed).unwrap(),
                    data,
                    "{name} at {level}"
                );
                xxh64(&packed, 0)
            });
            (*name, hashes)
        })
        .collect();
    assert!(
        actual == EXPECTED,
        "stream hashes changed; actual table:\n{}",
        actual
            .iter()
            .map(|(name, h)| format!(
                "    (\"{name}\", [{:#018x}, {:#018x}, {:#018x}]),\n",
                h[0], h[1], h[2]
            ))
            .collect::<String>()
    );
}
