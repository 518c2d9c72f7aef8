//! Batch byte identity: `IsobarCompressor::compress` must keep writing
//! the exact containers it wrote before the compress loop moved behind
//! `IsobarWriter`. The hashes were captured at commit 4893063 (the
//! parent of that change); a diff here is a format break for every
//! stored container, store segment and benchmark replay.

use isobar::{
    CodecId, CompressionLevel, IsobarCompressor, IsobarOptions, Linearization, Preference,
};
use isobar_codecs::xxhash::xxh64;

/// `elements` elements of `width` bytes: the low `noise_cols`
/// byte-columns are xorshift noise, the rest step slowly.
fn seeded(width: usize, elements: usize, noise_cols: usize, mut state: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(width * elements);
    for i in 0..elements {
        for col in 0..width {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            out.push(if col < noise_cols {
                (state >> 56) as u8
            } else {
                (i / (13 + col)) as u8
            });
        }
    }
    out
}

fn forced(
    preference: Preference,
    level: CompressionLevel,
    codec: CodecId,
    linearization: Linearization,
) -> IsobarOptions {
    IsobarOptions {
        preference,
        level,
        codec_override: Some(codec),
        linearization_override: Some(linearization),
        ..Default::default()
    }
}

#[test]
fn batch_containers_match_the_hashes_captured_at_the_parent_commit() {
    use CodecId::{Bzip2Like, Deflate};
    use CompressionLevel::{Best, Default as Normal, Fast};
    use Linearization::{Column, Row};
    let eupa = IsobarOptions::default(); // Ratio, no override
    let ratio_bz_col = forced(Preference::Ratio, Best, Bzip2Like, Column);
    let ratio_bz_row = forced(Preference::Ratio, Normal, Bzip2Like, Row);
    let speed_z_row = forced(Preference::Speed, Normal, Deflate, Row);
    let speed_z_col = forced(Preference::Speed, Fast, Deflate, Column);
    // (width, elements, noise columns, options, xxh64 of the container);
    // chunks of 4096 elements, so 10 000 is two chunks and a ragged tail.
    let cases = [
        (8, 10_000, 4, eupa, 0x7b3f_3339_d3a6_f788u64),
        (4, 9_000, 1, eupa, 0x41ee_62bd_7a3a_61ab),
        (1, 5_000, 0, eupa, 0xbfad_72ab_4451_338e),
        (8, 4_096, 8, eupa, 0x1ed1_96df_269a_7f24), // not improvable: passthrough
        (8, 0, 0, eupa, 0xf7d3_fea2_4e6b_2738),     // empty
        (8, 10_000, 4, ratio_bz_col, 0x93d7_6372_9aee_812b),
        (8, 10_000, 4, speed_z_row, 0x715c_6a2a_eb47_aac5),
        (4, 9_000, 1, speed_z_col, 0xfa36_cb74_9057_9841),
        (1, 5_000, 0, ratio_bz_row, 0x31e6_5081_c560_52ba),
        (4, 0, 0, speed_z_row, 0x899c_7113_bf15_f818),
    ];
    let mut changed = Vec::new();
    for (i, (width, elements, noise_cols, options, expected)) in cases.into_iter().enumerate() {
        let seed = 0x9E37_79B9_7F4A_7C15 ^ i as u64;
        let data = seeded(width, elements, noise_cols, seed);
        let options = IsobarOptions {
            chunk_elements: 4096,
            ..options
        };
        let packed = IsobarCompressor::new(options)
            .compress(&data, width)
            .unwrap();
        let hash = xxh64(&packed, 0);
        if hash != expected {
            changed.push(format!("case {i}: {hash:#018x} ({} bytes)", packed.len()));
        }
    }
    assert!(
        changed.is_empty(),
        "container bytes changed:\n{}",
        changed.join("\n")
    );
}
