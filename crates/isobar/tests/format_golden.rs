//! Golden tests pinning the on-disk container formats.
//!
//! ISOBAR containers are storage formats: bytes written today must
//! decode forever. These tests freeze the exact output for fixed
//! inputs and fixed options; if an intentional format change bumps the
//! version byte, regenerate the constants below (instructions inline).
//! An *unintentional* diff here means a compatibility break.
//!
//! Version history pinned here:
//! - v1: checksum-less chunk records (29-byte chunk header). Retired.
//! - v2: 37-byte chunk header ending in an XXH64 checksum over the
//!   record (current), in the batch and the streamed form.
//!
//! The `legacy_*` tests hold the retirement line: version-1 bytes and
//! the `ISBS` stream framing are refused by name, never misread.

use isobar::container::{ChunkMode, ChunkRecord, Header, CHECKSUM_SEED, HEADER_LEN};
use isobar::salvage::fsck_container;
use isobar::{
    CodecId, IsobarCompressor, IsobarError, IsobarOptions, IsobarReader, IsobarWriter,
    Linearization,
};
use isobar_codecs::xxhash::Xxh64;
use isobar_codecs::CompressionLevel;
use std::io::Write;

/// Fixed input: 65 536 elements of width 4 — two predictable columns, two
/// noise-like columns — generated from a frozen xorshift sequence.
fn fixed_input() -> Vec<u8> {
    let mut state = 0x0123_4567_89AB_CDEFu64;
    (0..65_536u32)
        .flat_map(|i| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            [
                7u8,
                (i % 13) as u8,
                (state >> 48) as u8,
                (state >> 56) as u8,
            ]
        })
        .collect()
}

fn fixed_options() -> IsobarOptions {
    IsobarOptions {
        codec_override: Some(CodecId::Deflate),
        linearization_override: Some(Linearization::Row),
        level: CompressionLevel::Default,
        chunk_elements: 65_536,
        ..Default::default()
    }
}

fn fixed_compressor() -> IsobarCompressor {
    IsobarCompressor::new(fixed_options())
}

/// FNV-1a over the container bytes: stable fingerprint without
/// embedding kilobytes of expected output.
fn fnv(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

#[test]
fn container_header_layout_is_frozen() {
    let packed = fixed_compressor().compress(&fixed_input(), 4).unwrap();

    // Byte-level header layout (28 bytes, little-endian fields).
    assert_eq!(&packed[0..4], b"ISBR", "magic");
    assert_eq!(packed[4], 2, "version");
    assert_eq!(packed[5], 4, "width");
    assert_eq!(packed[6], CodecId::Deflate as u8, "codec id");
    assert_eq!(packed[7], 1, "level byte (Default)");
    assert_eq!(packed[8], Linearization::Row as u8, "linearization");
    assert_eq!(&packed[12..16], &65_536u32.to_le_bytes(), "chunk elements");
    assert_eq!(
        &packed[16..24],
        &(4 * 65_536u64).to_le_bytes(),
        "total length"
    );

    // The header must parse back to the same values.
    let header = Header::read(&packed).unwrap();
    assert_eq!(header.width, 4);
    assert_eq!(header.total_len, 4 * 65_536);
}

#[test]
fn chunk_record_layout_is_frozen() {
    let packed = fixed_compressor().compress(&fixed_input(), 4).unwrap();
    let (record, _) = ChunkRecord::read(&packed[HEADER_LEN..], 4).unwrap();
    assert_eq!(record.mode, ChunkMode::Partitioned);
    assert_eq!(record.elements, 65_536);
    // The analyzer must select exactly columns 0 and 1 for this input.
    assert_eq!(record.mask, 0b0011, "column selection mask");
    assert_eq!(record.incompressible.len(), 2 * 65_536);
}

#[test]
fn container_bytes_are_bit_stable() {
    // Full-output fingerprint. If this fails and the change was NOT an
    // intentional format/codec revision, you have broken compatibility.
    // If it was intentional: bump container::VERSION, then update this
    // constant with the printed value.
    let packed = fixed_compressor().compress(&fixed_input(), 4).unwrap();
    let fingerprint = fnv(&packed);
    let expected = 0x3d7f_6544_6f6b_806au64; // regenerate: see above
    assert_eq!(
        fingerprint,
        expected,
        "container fingerprint changed: {fingerprint:#018x} (len {})",
        packed.len()
    );
}

#[test]
fn container_matches_documented_offsets() {
    // Walk a real container using ONLY the offsets and field sizes
    // written in docs/FORMAT.md — no parser structs. If this fails,
    // either the format or the document changed; they must move
    // together.
    let input = fixed_input();
    let packed = fixed_compressor().compress(&input, 4).unwrap();

    // File header, 28 bytes (docs/FORMAT.md "File header" table).
    assert_eq!(&packed[0..4], b"ISBR", "offset 0: magic");
    assert_eq!(packed[4], 2, "offset 4: version");
    assert_eq!(packed[5], 4, "offset 5: width");
    assert_eq!(packed[6], 1, "offset 6: codec id (1 = zlib-class)");
    assert_eq!(packed[7], 1, "offset 7: level (1 = default)");
    assert_eq!(packed[8], 0, "offset 8: linearization (0 = row)");
    assert_eq!(packed[9], 0, "offset 9: preference (0 = ratio)");
    assert_eq!(&packed[10..12], &[0, 0], "offsets 10-11: reserved");
    assert_eq!(
        u32::from_le_bytes(packed[12..16].try_into().unwrap()),
        65_536,
        "offset 12: chunk_elements"
    );
    assert_eq!(
        u64::from_le_bytes(packed[16..24].try_into().unwrap()),
        input.len() as u64,
        "offset 16: total_len"
    );
    let documented_checksum = u32::from_le_bytes(packed[24..28].try_into().unwrap());
    assert_eq!(
        documented_checksum,
        isobar_codecs::deflate::adler32(&input),
        "offset 24: Adler-32 of the original bytes"
    );

    // Chunk record at offset 28 (docs/FORMAT.md "Chunk record" table).
    let rec = &packed[28..];
    assert_eq!(rec[0], 1, "record offset 0: mode (1 = partitioned)");
    let elements = u32::from_le_bytes(rec[1..5].try_into().unwrap());
    assert_eq!(elements, 65_536, "record offset 1: elements");
    let mask = u64::from_le_bytes(rec[5..13].try_into().unwrap());
    assert_eq!(mask, 0b0011, "record offset 5: column mask");
    let comp_len = u64::from_le_bytes(rec[13..21].try_into().unwrap()) as usize;
    let incomp_len = u64::from_le_bytes(rec[21..29].try_into().unwrap()) as usize;
    assert_eq!(
        incomp_len,
        elements as usize * (4 - mask.count_ones() as usize),
        "incomp_len = elements x incompressible columns"
    );
    // Payloads: C' then I, and together they end the container.
    assert_eq!(
        28 + 37 + comp_len + incomp_len,
        packed.len(),
        "header + chunk header + payloads account for every byte"
    );

    // Record offset 29: XXH64 (seed 0) over the 29 non-checksum header
    // bytes followed by both payloads, exactly as documented.
    let stored = u64::from_le_bytes(rec[29..37].try_into().unwrap());
    let mut hasher = Xxh64::new(CHECKSUM_SEED);
    hasher.update(&rec[..29]);
    hasher.update(&rec[37..37 + comp_len + incomp_len]);
    assert_eq!(
        stored,
        hasher.digest(),
        "record offset 29: chunk XXH64 checksum"
    );

    // The verbatim section is the incompressible columns (2 and 3)
    // column-major: all of column 2, then all of column 3.
    let verbatim = &rec[37 + comp_len..37 + comp_len + incomp_len];
    let n = elements as usize;
    assert!(
        (0..n).all(|i| verbatim[i] == input[i * 4 + 2]),
        "first verbatim run is byte-column 2"
    );
    assert!(
        (0..n).all(|i| verbatim[n + i] == input[i * 4 + 3]),
        "second verbatim run is byte-column 3"
    );
}

#[test]
fn streamed_container_matches_documented_offsets() {
    // The streamed form by the docs/FORMAT.md tables alone: the batch
    // header with the length flag, the same records back to back, the
    // end marker, the trailer.
    let input = fixed_input();
    let options = IsobarOptions {
        chunk_elements: 32_768, // two records
        ..fixed_options()
    };
    let batch = IsobarCompressor::new(options).compress(&input, 4).unwrap();
    let mut writer = IsobarWriter::new(Vec::new(), 4, options).unwrap();
    writer.write_all(&input).unwrap();
    let (streamed, _) = writer.finish().unwrap();

    assert_eq!(
        &streamed[..16],
        &batch[..16],
        "offsets 0-15: as the batch form"
    );
    assert_eq!(
        u64::from_le_bytes(streamed[16..24].try_into().unwrap()),
        u64::MAX,
        "offset 16: total_len flags \"length in trailer\""
    );
    assert_eq!(&streamed[24..28], &[0; 4], "offset 24: checksum unused");
    let body = batch.len() - 28;
    assert_eq!(
        &streamed[28..28 + body],
        &batch[28..],
        "offset 28: the batch form's records, no marker between them"
    );
    let trailer = &streamed[28 + body..];
    assert_eq!(trailer.len(), 13, "the trailer ends the file");
    assert_eq!(trailer[0], 0xFF, "trailer offset 0: end marker");
    assert_eq!(
        u64::from_le_bytes(trailer[1..9].try_into().unwrap()),
        input.len() as u64,
        "trailer offset 1: total_len"
    );
    assert_eq!(
        u32::from_le_bytes(trailer[9..13].try_into().unwrap()),
        isobar_codecs::deflate::adler32(&input),
        "trailer offset 9: Adler-32 of the original bytes"
    );

    // The empty case: a header and a trailer, no zero-element record.
    let (empty, _) = IsobarWriter::new(Vec::new(), 4, options)
        .unwrap()
        .finish()
        .unwrap();
    assert_eq!(empty.len(), 28 + 13);
    assert_eq!(&empty[29..], &[0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0]);
}

// ---------------------------------------------------------------------
// Retired formats: refused by name, from literal bytes with no emitter
// ---------------------------------------------------------------------

/// The version-1 container the pre-checksum release wrote for the 128
/// bytes `0..128` as 64 elements of width 2: 28-byte header, one
/// 29-byte checksum-less passthrough record, zlib-class payload.
const LEGACY_CONTAINER_HEX: &str = "\
    495342520102010100000000400000008000000000000000c11f0b56004000000000000000000000\
    0088000000000000000000000000000000789c6360646266616563e7e0e4e2e6e1e5e31710141216\
    11151397909492969195935750545256515553d7d0d4d2d6d1d5d33730343236313533b7b0b4b2b6\
    b1b5b37770747276717573f7f0f4f2f6f1f5f30f080c0a0e090d0b8f888c8a8e898d8b4f484c4a4e\
    494d4bcfc8cccacec9cdcb2f282c2a2e292d2bafa8acaaaea9adab0700560b1fc1";

fn legacy_container_fixture() -> Vec<u8> {
    (0..LEGACY_CONTAINER_HEX.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&LEGACY_CONTAINER_HEX[i..i + 2], 16).unwrap())
        .collect()
}

#[test]
fn legacy_container_bytes_are_bit_stable() {
    // This fingerprint was taken from the version-1 emitter when
    // version 2 landed; the literal must stay those bytes, or the
    // refusal tests stop proving anything.
    let bytes = legacy_container_fixture();
    assert_eq!((bytes.len(), bytes[4]), (193, 1), "fixture is version 1");
    assert_eq!(fnv(&bytes), 0x78f6_5dc3_1870_dc73u64);
}

#[track_caller]
fn assert_refused_by_name(bytes: &[u8], name: &str) {
    for result in [
        IsobarCompressor::default().decompress(bytes).map(drop),
        IsobarReader::new(bytes).map(drop),
        fsck_container(bytes).map(drop),
    ] {
        match result {
            Err(e @ IsobarError::Retired(_)) => assert!(e.to_string().contains(name), "{e}"),
            other => panic!("expected a refusal by name, got {other:?}"),
        }
    }
}

#[test]
fn legacy_container_is_refused_by_name() {
    assert_refused_by_name(&legacy_container_fixture(), "version-1");
}

#[test]
fn legacy_stream_is_refused_by_name() {
    // The whole 9-byte `ISBS` header: magic, version 2, width 8,
    // zlib-class, default level, row linearization.
    assert_refused_by_name(b"ISBS\x02\x08\x01\x01\x00", "`ISBS`");
}
