//! Byte identity of the DEFLATE solver's streams.
//!
//! The encoder (LZ77 matcher, block selection, Huffman emit) may be
//! rewritten for speed, but the stream is a format: containers and
//! store segments written by one build must be byte-for-byte what
//! another build writes for the same input. The hashes below were
//! captured before the inflate fast loop replaced the per-symbol
//! decoder (`f76fe8a`), and are the contract any encoder kernel change
//! is held to.

use isobar_codecs::deflate::Deflate;
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
    let mut rng = Lcg(0x0DEF_1A7E_5EED);
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
    // The partitioner's output for a smooth f32 field: the two high
    // byte-columns of each element, row-linearised. Plain IEEE
    // arithmetic, so the input is the same on every platform.
    let float_columns: Vec<u8> = (0..150_000u32)
        .flat_map(|i| {
            let t = (i % 6000) as f32 * 0.01;
            let b = (300.0 + t * (60.0 - t)).to_le_bytes();
            [b[2], b[3]]
        })
        .collect();
    // Short periods (distances 2–7 and 9–15) beside long runs.
    let mut periodic = Vec::new();
    for period in 1..16usize {
        let pattern = rng.bytes(period);
        for _ in 0..4000 / period {
            periodic.extend_from_slice(&pattern);
        }
    }
    // Larger than one 65536-token block at every level; mixes the
    // shapes above.
    let mut large = Vec::with_capacity(1_000_000);
    while large.len() < 1_000_000 {
        match rng.next() % 4 {
            0 => large.extend_from_slice(&text[..10_000]),
            1 => large.extend(rng.bytes(10_000)),
            2 => large.extend(std::iter::repeat_n(rng.next() as u8, 10_000)),
            _ => large.extend_from_slice(&float_columns[..10_000]),
        }
    }
    large.truncate(1_000_000);
    vec![
        ("empty", Vec::new()),
        ("one_byte", vec![0x42]),
        ("text", text),
        ("noise", noise),
        ("all_equal", all_equal),
        ("float_columns", float_columns),
        ("periodic", periodic),
        ("large", large),
    ]
}

/// `(input, [fast, default, best])` — xxh64 (seed 0) of the zlib stream.
const EXPECTED: &[(&str, [u64; 3])] = &[
    (
        "empty",
        [0x7d8f6afbd132c126, 0x551eee4565ffc69e, 0xfbb6c1011b3b4f02],
    ),
    (
        "one_byte",
        [0x2ebd2cb6ddfb711a, 0xf18f452d2de5f365, 0x9318404a2323c546],
    ),
    (
        "text",
        [0x58e203287e686bd1, 0xf06f69b684c3f3c1, 0x5dcad572a11ed950],
    ),
    (
        "noise",
        [0xe20887ad8bced1c2, 0x0425d2a222a8fb0f, 0x6092d12b3de9886a],
    ),
    (
        "all_equal",
        [0x470e3f562bb248c3, 0x379ffbf2c48400c2, 0xcebcc0feead297a5],
    ),
    (
        "float_columns",
        [0xbd23ccc195bb6cee, 0x470beba3c9071f23, 0x6180d348a903bbaa],
    ),
    (
        "periodic",
        [0xfcecbec35a0c6b7d, 0xd512e10902ebbfed, 0x2c864154fc78d3e5],
    ),
    (
        "large",
        [0x065336a30801b62b, 0x35862a62478e33b0, 0xa6623c0e1da3d3bd],
    ),
];

#[test]
fn streams_match_the_hashes_captured_before_the_decoder_rewrite() {
    let actual: Vec<(&str, [u64; 3])> = corpus()
        .iter()
        .map(|(name, data)| {
            let hashes = CompressionLevel::ALL.map(|level| {
                let codec = Deflate::new(level);
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
