//! Corrupt-input corpus: one hand-built specimen per documented defect
//! class of the container, batch form and streamed tail, each asserting
//! the *specific* typed error the format documentation promises (see
//! `docs/FORMAT.md`, "Error taxonomy & corruption handling").
//!
//! The fuzz harness (`isobar-fuzz-harness`) proves the blanket property
//! — no panic, bounded allocation, *some* `Err` — over random
//! mutations; this corpus pins down the contract for each known defect
//! so an error-path regression changes a named test, not a fuzz
//! statistic.

use isobar::telemetry::{Counter, ENABLED};
use isobar::{
    IsobarCompressor, IsobarError, IsobarOptions, IsobarReader, IsobarWriter, PipelineScratch,
    Preference, Recorder,
};
use std::io::Read;

/// Container header layout (all offsets from `container.rs`).
const HEADER_LEN: usize = 28;
const OFF_MAGIC: usize = 0;
const OFF_VERSION: usize = 4;
const OFF_WIDTH: usize = 5;
const OFF_CODEC: usize = 6;
const OFF_LEVEL: usize = 7;
const OFF_LINEARIZATION: usize = 8;
const OFF_CHUNK_ELEMENTS: usize = 12;
const OFF_TOTAL_LEN: usize = 16;
const OFF_CHECKSUM: usize = 24;

/// Chunk record layout (version 2), relative to the record's start.
const CHUNK_OFF_MODE: usize = 0;
const CHUNK_OFF_ELEMENTS: usize = 1;
const CHUNK_OFF_MASK: usize = 5;
const CHUNK_OFF_COMP_LEN: usize = 13;
const CHUNK_OFF_CHECKSUM: usize = 29;
const CHUNK_HEADER_LEN: usize = 37;

fn options() -> IsobarOptions {
    IsobarOptions {
        preference: Preference::Speed,
        chunk_elements: 256,
        ..Default::default()
    }
}

/// Mixed data: high columns predictable, low columns noisy, so chunks
/// come out Partitioned with a proper split mask.
fn mixed_data(elements: usize) -> Vec<u8> {
    (0..elements as u64)
        .flat_map(|i| (((i / 7) << 32) | (i.wrapping_mul(0x9E37_79B9) & 0xFFFF_FFFF)).to_le_bytes())
        .collect()
}

/// Pure noise: no column clears the analyzer threshold, so chunks come
/// out Passthrough (mask 0, no incompressible payload).
fn noise_data(elements: usize) -> Vec<u8> {
    // splitmix64: every output byte is high-entropy, so no column
    // clears the analyzer threshold.
    let mut state = 0x0123_4567_89AB_CDEFu64;
    (0..elements)
        .flat_map(|_| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)).to_le_bytes()
        })
        .collect()
}

/// A valid container whose first chunk is Partitioned.
fn partitioned_container() -> (Vec<u8>, Vec<u8>) {
    let data = mixed_data(1024);
    let container = IsobarCompressor::new(options())
        .compress(&data, 8)
        .expect("compress");
    assert_eq!(
        container[HEADER_LEN + CHUNK_OFF_MODE],
        1,
        "specimen must start with a Partitioned chunk"
    );
    (container, data)
}

/// A valid container whose first chunk is Passthrough.
fn passthrough_container() -> (Vec<u8>, Vec<u8>) {
    let data = noise_data(1024);
    let container = IsobarCompressor::new(options())
        .compress(&data, 8)
        .expect("compress");
    assert_eq!(
        container[HEADER_LEN + CHUNK_OFF_MODE],
        0,
        "specimen must start with a Passthrough chunk"
    );
    (container, data)
}

/// Decompress through the telemetry-recording entry point and return
/// the error alongside the corrupt-rejection count.
fn decompress_counted(container: &[u8]) -> (IsobarError, u64) {
    let mut recorder = Recorder::new();
    let err = IsobarCompressor::default()
        .decompress_recorded(container, &mut PipelineScratch::new(), &mut recorder)
        .expect_err("corrupt specimen must be rejected");
    (
        err,
        recorder
            .snapshot()
            .counter(Counter::ContainerCorruptRejected),
    )
}

/// Like [`decompress_counted`], but returns the checksum-mismatch
/// counter instead of the general rejection counter.
fn decompress_checksum_counted(container: &[u8]) -> (IsobarError, u64) {
    let mut recorder = Recorder::new();
    let err = IsobarCompressor::default()
        .decompress_recorded(container, &mut PipelineScratch::new(), &mut recorder)
        .expect_err("corrupt specimen must be rejected");
    (
        err,
        recorder.snapshot().counter(Counter::ChecksumMismatches),
    )
}

/// Decompress with integrity verification disabled — the path that
/// must fall through to the structural checks a checksum would
/// otherwise mask.
fn decompress_unverified(container: &[u8]) -> IsobarError {
    let opts = IsobarOptions {
        verify: false,
        ..Default::default()
    };
    IsobarCompressor::new(opts)
        .decompress_recorded(container, &mut PipelineScratch::new(), &mut Recorder::new())
        .expect_err("corrupt specimen must be rejected")
}

/// Strip `At` wrappers to reach the underlying defect.
fn unwrap_at(err: IsobarError) -> IsobarError {
    match err {
        IsobarError::At { source, .. } => *source,
        other => other,
    }
}

#[track_caller]
fn assert_corrupt(container: &[u8], expected: &str) {
    let (err, rejected) = decompress_counted(container);
    match unwrap_at(err) {
        IsobarError::Corrupt(what) => assert_eq!(what, expected),
        other => panic!("expected Corrupt({expected:?}), got {other:?}"),
    }
    if ENABLED {
        assert_eq!(rejected, 1, "rejection must bump the telemetry counter");
    }
}

// ---------------------------------------------------------------------
// Container header defects
// ---------------------------------------------------------------------

#[test]
fn container_bad_magic() {
    let (mut c, _) = partitioned_container();
    c[OFF_MAGIC] = b'X';
    assert_corrupt(&c, "bad magic");
}

#[test]
fn container_truncated_header() {
    let (c, _) = partitioned_container();
    let (err, rejected) = decompress_counted(&c[..HEADER_LEN - 1]);
    assert!(matches!(unwrap_at(err), IsobarError::Truncated));
    if ENABLED {
        assert_eq!(rejected, 1);
    }
}

#[test]
fn container_unsupported_version() {
    let (mut c, _) = partitioned_container();
    c[OFF_VERSION] = 99;
    assert_corrupt(&c, "unsupported version");
}

#[test]
fn container_bad_width() {
    let (mut c, _) = partitioned_container();
    c[OFF_WIDTH] = 0;
    assert_corrupt(&c, "bad element width");
    let (mut c, _) = partitioned_container();
    c[OFF_WIDTH] = 65;
    assert_corrupt(&c, "bad element width");
}

#[test]
fn container_unknown_codec() {
    let (mut c, _) = partitioned_container();
    c[OFF_CODEC] = 0xEE;
    let (err, _) = decompress_counted(&c);
    assert!(matches!(unwrap_at(err), IsobarError::Codec(_)));
}

#[test]
fn container_bad_level_byte() {
    let (mut c, _) = partitioned_container();
    c[OFF_LEVEL] = 9;
    assert_corrupt(&c, "bad level byte");
}

#[test]
fn container_bad_linearization() {
    let (mut c, _) = partitioned_container();
    c[OFF_LINEARIZATION] = 0xEE;
    assert_corrupt(&c, "bad linearization");
}

#[test]
fn container_zero_chunk_size() {
    let (mut c, _) = partitioned_container();
    c[OFF_CHUNK_ELEMENTS..OFF_CHUNK_ELEMENTS + 4].copy_from_slice(&0u32.to_le_bytes());
    assert_corrupt(&c, "zero chunk size");
}

#[test]
fn container_inflated_total_len_is_truncation() {
    // A total_len beyond what the chunk records reassemble makes the
    // parser expect more records than the buffer holds.
    let (mut c, _) = partitioned_container();
    c[OFF_TOTAL_LEN..OFF_TOTAL_LEN + 8].copy_from_slice(&u64::MAX.to_le_bytes());
    let (err, _) = decompress_counted(&c);
    assert!(matches!(unwrap_at(err), IsobarError::Truncated));
}

#[test]
fn container_shrunk_total_len_is_length_mismatch() {
    // A total_len short of the records' sum (but not on a chunk
    // boundary) survives record parsing and trips the reassembly check.
    let (mut c, _) = partitioned_container();
    c[OFF_TOTAL_LEN..OFF_TOTAL_LEN + 8].copy_from_slice(&7u64.to_le_bytes());
    assert_corrupt(&c, "reassembled length mismatch");
}

// ---------------------------------------------------------------------
// Chunk record defects (first record starts at HEADER_LEN; every error
// must carry that byte offset via `IsobarError::At`)
// ---------------------------------------------------------------------

#[test]
fn chunk_bad_mode_byte_reports_offset() {
    let (mut c, _) = partitioned_container();
    c[HEADER_LEN + CHUNK_OFF_MODE] = 7;
    let (err, _) = decompress_counted(&c);
    match err {
        IsobarError::At { offset, source } => {
            assert_eq!(offset, HEADER_LEN as u64);
            assert!(matches!(*source, IsobarError::Corrupt("bad chunk mode")));
        }
        other => panic!("expected At-wrapped error, got {other:?}"),
    }
    // The offset must survive into the rendered message.
    let (err, _) = decompress_counted(&c);
    assert!(err.to_string().contains("at byte offset 28"));
}

#[test]
fn chunk_oversized_element_count() {
    let (mut c, _) = partitioned_container();
    let at = HEADER_LEN + CHUNK_OFF_ELEMENTS;
    c[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    assert_corrupt(&c, "chunk exceeds header chunk size");
}

#[test]
fn chunk_mask_wider_than_element() {
    let (mut c, _) = partitioned_container();
    // Set mask bit 63; the container was written with width 8.
    c[HEADER_LEN + CHUNK_OFF_MASK + 7] |= 0x80;
    assert_corrupt(&c, "column mask wider than element");
}

#[test]
fn chunk_passthrough_with_column_mask() {
    // Flip a Partitioned record's mode byte to Passthrough; its mask
    // stays set, which no valid passthrough chunk carries.
    let (mut c, _) = partitioned_container();
    c[HEADER_LEN + CHUNK_OFF_MODE] = 0;
    assert_corrupt(&c, "passthrough chunk with column mask");
}

#[test]
fn chunk_incompressible_length_mismatch() {
    // Shrink the claimed element count: expected incompressible length
    // (elements × incompressible columns) no longer matches the field.
    let (mut c, _) = partitioned_container();
    let at = HEADER_LEN + CHUNK_OFF_ELEMENTS;
    let claimed = u32::from_le_bytes(c[at..at + 4].try_into().unwrap());
    c[at..at + 4].copy_from_slice(&(claimed - 1).to_le_bytes());
    assert_corrupt(&c, "incompressible length mismatch");
}

#[test]
fn chunk_inflated_comp_len_is_truncation() {
    // comp_len far beyond the buffer: the record claims payload bytes
    // the container cannot back.
    let (mut c, _) = partitioned_container();
    let at = HEADER_LEN + CHUNK_OFF_COMP_LEN;
    c[at..at + 8].copy_from_slice(&(1u64 << 40).to_le_bytes());
    let (err, _) = decompress_counted(&c);
    assert!(matches!(unwrap_at(err), IsobarError::Truncated));
}

#[test]
fn chunk_comp_len_overflow_is_rejected() {
    // comp_len + incomp_len overflowing usize must be caught before any
    // slicing arithmetic.
    let (mut c, _) = partitioned_container();
    let at = HEADER_LEN + CHUNK_OFF_COMP_LEN;
    c[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
    let (err, _) = decompress_counted(&c);
    match unwrap_at(err) {
        IsobarError::Corrupt(what) => assert_eq!(what, "chunk length overflow"),
        IsobarError::Truncated => {} // 32-bit usize path saturates earlier
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn chunk_truncated_payload() {
    let (c, _) = partitioned_container();
    let (err, _) = decompress_counted(&c[..c.len() - 1]);
    assert!(matches!(unwrap_at(err), IsobarError::Truncated));
}

#[test]
fn chunk_empty_record_rejected() {
    // A Passthrough record with elements == 0 passes structural
    // validation (0 × anything incompressible bytes) but would make the
    // reassembly loop spin forever. With verification on, the chunk
    // checksum catches the tampered header first; with it off, the
    // pipeline must still reject the record by name.
    let (mut c, _) = passthrough_container();
    let at = HEADER_LEN + CHUNK_OFF_ELEMENTS;
    c[at..at + 4].copy_from_slice(&0u32.to_le_bytes());
    let (err, _) = decompress_counted(&c);
    assert!(err.is_checksum_mismatch());
    match unwrap_at(decompress_unverified(&c)) {
        IsobarError::Corrupt(what) => assert_eq!(what, "empty chunk record"),
        other => panic!("expected Corrupt(\"empty chunk record\"), got {other:?}"),
    }
}

// ---------------------------------------------------------------------
// Payload / checksum defects
// ---------------------------------------------------------------------

#[test]
fn corrupt_verbatim_payload_fails_chunk_checksum() {
    // Flipping a byte in the first chunk's *incompressible* (verbatim)
    // region decodes cleanly structurally; the per-chunk xxhash64
    // pinpoints the damaged chunk by its record offset.
    let (mut c, _) = partitioned_container();
    let at = HEADER_LEN + CHUNK_OFF_COMP_LEN;
    let comp_len = u64::from_le_bytes(c[at..at + 8].try_into().unwrap()) as usize;
    let first_incomp = HEADER_LEN + CHUNK_HEADER_LEN + comp_len;
    c[first_incomp] ^= 0xFF;
    let (err, mismatches) = decompress_checksum_counted(&c);
    match err {
        IsobarError::ChecksumMismatch {
            offset,
            expected,
            actual,
        } => {
            assert_eq!(offset, HEADER_LEN as u64, "first record's offset");
            assert_ne!(expected, actual);
        }
        other => panic!("expected ChecksumMismatch, got {other:?}"),
    }
    if ENABLED {
        assert_eq!(mismatches, 1, "mismatch must bump its own counter");
    }
}

#[test]
fn corrupt_compressed_payload_fails_chunk_checksum() {
    // Same contract for the solver (compressed) payload region.
    let (mut c, _) = partitioned_container();
    c[HEADER_LEN + CHUNK_HEADER_LEN] ^= 0x01;
    let (err, mismatches) = decompress_checksum_counted(&c);
    match err {
        IsobarError::ChecksumMismatch { offset, .. } => {
            assert_eq!(offset, HEADER_LEN as u64);
        }
        other => panic!("expected ChecksumMismatch, got {other:?}"),
    }
    if ENABLED {
        assert_eq!(mismatches, 1);
    }
}

#[test]
fn corrupt_chunk_checksum_field_is_detected() {
    // Damage to the checksum *field itself* is indistinguishable from
    // payload damage and must be reported the same way.
    let (mut c, _) = partitioned_container();
    c[HEADER_LEN + CHUNK_OFF_CHECKSUM] ^= 0xFF;
    let (err, _) = decompress_checksum_counted(&c);
    assert!(matches!(
        err,
        IsobarError::ChecksumMismatch { offset: 28, .. }
    ));
}

#[test]
fn corrupt_container_checksum_field_is_detected() {
    // The whole-stream Adler-32 in the container header still guards
    // reassembly end-to-end; its mismatch points at the field itself.
    let (mut c, _) = partitioned_container();
    c[OFF_CHECKSUM] ^= 0xFF;
    let (err, _) = decompress_counted(&c);
    assert!(matches!(
        err,
        IsobarError::ChecksumMismatch {
            offset: 24, // OFF_CHECKSUM
            ..
        }
    ));
}

#[test]
fn verify_off_skips_payload_checksums() {
    // With verification disabled, a chunk whose payload bytes are
    // damaged but still structurally decodable is *not* rejected by
    // checksum — the knob exists so salvage and benchmarks can opt out.
    let (mut c, _) = partitioned_container();
    let at = HEADER_LEN + CHUNK_OFF_COMP_LEN;
    let comp_len = u64::from_le_bytes(c[at..at + 8].try_into().unwrap()) as usize;
    let first_incomp = HEADER_LEN + CHUNK_HEADER_LEN + comp_len;
    c[first_incomp] ^= 0xFF;
    let opts = IsobarOptions {
        verify: false,
        ..Default::default()
    };
    // Verbatim-region damage decodes without error once checksums are
    // off (the bytes are copied through, silently wrong) — exactly why
    // `verify` defaults to on.
    let out = IsobarCompressor::new(opts)
        .decompress(&c)
        .expect("verify-off must not reject on checksum");
    assert!(!out.is_empty());
}

#[test]
fn intact_specimens_round_trip() {
    // The corpus is only meaningful if the uncorrupted specimens are
    // actually valid.
    for (container, data) in [partitioned_container(), passthrough_container()] {
        let out = IsobarCompressor::default()
            .decompress(&container)
            .expect("pristine specimen decodes");
        assert_eq!(out, data);
    }
}

// ---------------------------------------------------------------------
// Streamed-form defects: the length flag, the end marker, the trailer
// ---------------------------------------------------------------------

const TRAILER_LEN: usize = 13;

fn stream_bytes() -> (Vec<u8>, Vec<u8>) {
    let data = mixed_data(1024);
    let mut writer = IsobarWriter::new(Vec::new(), 8, options()).expect("writer");
    std::io::Write::write_all(&mut writer, &data).expect("write");
    let (bytes, _) = writer.finish().expect("finish");
    (bytes, data)
}

/// Drive a corrupt streamed container to its error and return it with
/// the reader's corrupt-rejection count at the moment of failure.
fn stream_error(bytes: &[u8]) -> (IsobarError, u64) {
    let mut reader = IsobarReader::new(bytes).expect("header must parse");
    let mut sink = Vec::new();
    let io_err = reader
        .read_to_end(&mut sink)
        .expect_err("corrupt stream must be rejected");
    let err = io_err
        .get_ref()
        .and_then(|r| r.downcast_ref::<IsobarError>())
        .expect("stream errors carry a typed IsobarError")
        .clone();
    let rejected = reader
        .telemetry()
        .counter(Counter::ContainerCorruptRejected);
    // The slice decoder is the same walker: same verdict.
    let (slice_err, _) = decompress_counted(bytes);
    assert_eq!(slice_err, err);
    (err, rejected)
}

#[test]
fn stream_bad_magic() {
    let (mut s, _) = stream_bytes();
    s[OFF_MAGIC] = b'X';
    let err = IsobarReader::new(&s[..]).map(drop).unwrap_err();
    assert_eq!(unwrap_at(err), IsobarError::Corrupt("bad magic"));
}

#[test]
fn stream_unsupported_version() {
    let (mut s, _) = stream_bytes();
    s[OFF_VERSION] = 42;
    let err = IsobarReader::new(&s[..]).map(drop).unwrap_err();
    assert_eq!(unwrap_at(err), IsobarError::Corrupt("unsupported version"));
}

#[test]
fn stream_bad_marker_reports_offset_and_counts() {
    // Where a record or the end marker must start, any other byte is a
    // bad mode byte, located there.
    let (mut s, _) = stream_bytes();
    let marker_at = s.len() - TRAILER_LEN;
    s[marker_at] = 0xEE;
    let (err, rejected) = stream_error(&s);
    match err {
        IsobarError::At { offset, source } => {
            assert_eq!(offset, marker_at as u64);
            assert!(matches!(*source, IsobarError::Corrupt("bad chunk mode")));
        }
        other => panic!("expected At-wrapped error, got {other:?}"),
    }
    if ENABLED {
        assert_eq!(rejected, 1);
    }
}

#[test]
fn stream_torn_trailer() {
    // Torn inside the trailer, and with the end marker missing too.
    let (s, _) = stream_bytes();
    for keep in [3, 0] {
        let (err, rejected) = stream_error(&s[..s.len() - TRAILER_LEN + keep]);
        assert!(matches!(unwrap_at(err), IsobarError::Truncated));
        if ENABLED {
            assert_eq!(rejected, 1);
        }
    }
}

#[test]
fn stream_trailer_length_mismatch() {
    let (mut s, _) = stream_bytes();
    let total_at = s.len() - TRAILER_LEN + 1; // skip end marker
    let total = u64::from_le_bytes(s[total_at..total_at + 8].try_into().unwrap());
    s[total_at..total_at + 8].copy_from_slice(&(total + 1).to_le_bytes());
    let (err, _) = stream_error(&s);
    assert!(matches!(
        unwrap_at(err),
        IsobarError::Corrupt("reassembled length mismatch")
    ));
}

#[test]
fn stream_trailer_checksum_mismatch() {
    let (mut s, _) = stream_bytes();
    let last = s.len() - 1; // high byte of the trailer Adler-32
    s[last] ^= 0xFF;
    let (err, rejected) = stream_error(&s);
    match err {
        IsobarError::ChecksumMismatch { offset, .. } => assert_eq!(offset, s.len() as u64 - 4),
        other => panic!("expected ChecksumMismatch, got {other:?}"),
    }
    if ENABLED {
        assert_eq!(rejected, 1);
    }
}

#[test]
fn stream_frame_payload_flip_fails_chunk_checksum() {
    // A bit flip inside the first record's payload trips that record's
    // chunk checksum; the error carries the record's offset.
    let (mut s, _) = stream_bytes();
    s[HEADER_LEN + CHUNK_HEADER_LEN] ^= 0x01; // first payload byte
    let (err, rejected) = stream_error(&s);
    match err {
        IsobarError::ChecksumMismatch { offset, .. } => assert_eq!(offset, HEADER_LEN as u64),
        other => panic!("expected ChecksumMismatch, got {other:?}"),
    }
    if ENABLED {
        assert_eq!(rejected, 1);
    }
}

#[test]
fn intact_stream_round_trips() {
    let (s, data) = stream_bytes();
    let out = IsobarReader::new(&s[..])
        .expect("header")
        .read_to_vec()
        .expect("pristine stream decodes");
    assert_eq!(out, data);
    assert_eq!(IsobarCompressor::default().decompress(&s).unwrap(), data);
}
