//! Corrupt-input corpus for the checkpoint store: one specimen per
//! documented defect class of the on-disk layout (manifest, segment
//! framing, record payload), each asserting the specific `StoreError`
//! promised in `docs/FORMAT.md` and the telemetry counters it bumps.
//! Companion to `crates/isobar/tests/corrupt_corpus.rs`, which covers
//! the embedded container and stream formats.
//!
//! The pristine store is built once; every specimen materialises its
//! own copy in its own scratch directory, so no two tests ever create
//! or delete the same path.

use isobar::telemetry::{Counter, ENABLED};
use isobar::{IsobarOptions, Preference, Recorder};
use isobar_codecs::xxhash::xxh64;
use isobar_store::{
    encode_segment_trailer, Manifest, ShardedOptions, ShardedStoreWriter, StoreError, StoreReader,
    CHECKSUM_SEED, MANIFEST_FILE, MANIFEST_TRAILER_LEN, SEGMENT_TRAILER_LEN,
};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

/// The one segment a single-shard, single-generation store commits.
const SEGMENT: &str = "g0000000000000000-s000.seg";

type Files = BTreeMap<String, Vec<u8>>;

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "isobar-corrupt-corpus-{}-{name}",
        std::process::id()
    ))
}

fn demo_data(elements: usize) -> Vec<u8> {
    (0..elements as u64)
        .flat_map(|i| (((i / 5) << 32) | (i.wrapping_mul(0x9E37_79B9) & 0xFFFF_FFFF)).to_le_bytes())
        .collect()
}

/// File name → bytes of a small, valid, committed store with two
/// variables, built exactly once per test process.
fn pristine() -> &'static Files {
    static PRISTINE: OnceLock<Files> = OnceLock::new();
    PRISTINE.get_or_init(|| {
        let dir = tmp("pristine");
        let _ = std::fs::remove_dir_all(&dir);
        let writer = ShardedStoreWriter::create(
            &dir,
            IsobarOptions {
                preference: Preference::Speed,
                chunk_elements: 512,
                ..Default::default()
            },
            ShardedOptions {
                shards: 1,
                ..Default::default()
            },
        )
        .expect("create");
        writer.put(0, "u", demo_data(700), 8).expect("put u");
        writer.put(1, "v", demo_data(700), 8).expect("put v");
        writer.close().expect("close");
        let files: Files = std::fs::read_dir(&dir)
            .expect("list pristine store")
            .map(|e| {
                let e = e.expect("dir entry");
                (
                    e.file_name().into_string().expect("utf-8 file name"),
                    std::fs::read(e.path()).expect("read back"),
                )
            })
            .collect();
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(
            files.keys().collect::<Vec<_>>(),
            [MANIFEST_FILE, SEGMENT],
            "pristine store layout"
        );
        files
    })
}

/// Materialise the pristine store, altered by `edit`, in a scratch
/// directory of this specimen's own.
fn specimen(name: &str, edit: impl FnOnce(&mut Files)) -> PathBuf {
    let mut files = pristine().clone();
    edit(&mut files);
    let dir = tmp(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("specimen dir");
    for (file, bytes) in &files {
        std::fs::write(dir.join(file), bytes).expect("write specimen");
    }
    dir
}

/// Recompute a tampered manifest's trailing XXH64 so the tamper
/// reaches the structural checks behind the checksum.
fn reseal(manifest: &mut [u8]) {
    let at = manifest.len() - MANIFEST_TRAILER_LEN;
    let sum = xxh64(&manifest[..at], CHECKSUM_SEED);
    manifest[at..at + 8].copy_from_slice(&sum.to_le_bytes());
}

/// Decode the pristine manifest, apply `edit`, and re-encode it with a
/// valid checksum.
fn edit_manifest(files: &mut Files, edit: impl FnOnce(&mut Manifest)) {
    let mut manifest = Manifest::decode(&files[MANIFEST_FILE], true).expect("pristine manifest");
    edit(&mut manifest);
    files.insert(MANIFEST_FILE.into(), manifest.encode());
}

/// Open a specimen through the telemetry entry point and hand back the
/// error plus the (corrupt-rejected, checksum-mismatch) counter bumps.
fn open_corrupt(dir: &Path) -> (StoreError, u64, u64) {
    let mut recorder = Recorder::new();
    let err = StoreReader::open_recorded(dir, &mut recorder)
        .expect_err("corrupt specimen must be rejected");
    let _ = std::fs::remove_dir_all(dir);
    let snapshot = recorder.snapshot();
    (
        err,
        snapshot.counter(Counter::StoreCorruptRejected),
        snapshot.counter(Counter::ChecksumMismatches),
    )
}

#[track_caller]
fn assert_corrupt(dir: &Path, expected: &str) {
    let (err, rejected, mismatches) = open_corrupt(dir);
    match err {
        StoreError::Corrupt(what) => assert_eq!(what, expected),
        other => panic!("expected Corrupt({expected:?}), got {other:?}"),
    }
    if ENABLED {
        assert_eq!(rejected, 1, "rejection must bump the telemetry counter");
        assert_eq!(mismatches, 0, "structural damage is not a checksum event");
    }
}

#[track_caller]
fn assert_checksum_mismatch(dir: &Path, expected_offset: u64) {
    let (err, rejected, mismatches) = open_corrupt(dir);
    match err {
        StoreError::ChecksumMismatch { offset, .. } => assert_eq!(offset, expected_offset),
        other => panic!("expected a checksum mismatch, got {other:?}"),
    }
    if ENABLED {
        assert_eq!(rejected, 1, "rejection must bump the telemetry counter");
        assert_eq!(mismatches, 1, "checksum damage bumps its own counter");
    }
}

#[test]
fn intact_store_round_trips() {
    let dir = specimen("roundtrip", |_| {});
    let reader = StoreReader::open(&dir).expect("pristine store opens");
    assert_eq!(reader.get(0, "u").expect("u decodes"), demo_data(700));
    assert_eq!(reader.get(1, "v").expect("v decodes"), demo_data(700));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn missing_manifest_means_not_committed() {
    let dir = specimen("no-manifest", |files| {
        files.remove(MANIFEST_FILE);
    });
    assert_corrupt(
        &dir,
        "store directory has no manifest (store not committed?)",
    );
}

#[test]
fn manifest_bad_magic() {
    let dir = specimen("magic", |files| {
        files.get_mut(MANIFEST_FILE).unwrap()[0] = b'X';
    });
    assert_corrupt(&dir, "bad manifest magic");
}

#[test]
fn manifest_unsupported_version() {
    let dir = specimen("version", |files| {
        files.get_mut(MANIFEST_FILE).unwrap()[4] = 9;
    });
    assert_corrupt(&dir, "unsupported manifest version");
}

#[test]
fn manifest_missing_trailer_magic() {
    // Stomp the closing "ISMX": the manifest looks torn.
    let dir = specimen("trailer-magic", |files| {
        *files.get_mut(MANIFEST_FILE).unwrap().last_mut().unwrap() = b'?';
    });
    assert_corrupt(&dir, "missing manifest trailer");
}

#[test]
fn manifest_truncated() {
    // Below header + counts + trailer there is no room for a manifest…
    let dir = specimen("short", |files| {
        files.get_mut(MANIFEST_FILE).unwrap().truncate(12);
    });
    assert_corrupt(&dir, "manifest too short");
    // …and cutting into the trailer shifts its magic out of place.
    let dir = specimen("torn", |files| {
        let manifest = files.get_mut(MANIFEST_FILE).unwrap();
        manifest.truncate(manifest.len() - 5);
    });
    assert_corrupt(&dir, "missing manifest trailer");
}

#[test]
fn manifest_bit_flip_fails_manifest_checksum() {
    // One flipped bit anywhere in the manifest body must be caught by
    // the trailing checksum before any entry drives a seek.
    let dir = specimen("bit-flip", |files| {
        let manifest = files.get_mut(MANIFEST_FILE).unwrap();
        let mid = manifest.len() / 2;
        manifest[mid] ^= 0x04;
    });
    assert_checksum_mismatch(&dir, 0);
}

#[test]
fn manifest_counts_are_bounded_before_allocating() {
    // Claimed segment and entry counts must fit in the manifest before
    // the reader allocates for them — the length-field allocation bomb.
    let dir = specimen("segment-count", |files| {
        let manifest = files.get_mut(MANIFEST_FILE).unwrap();
        manifest[16..18].copy_from_slice(&u16::MAX.to_le_bytes());
        reseal(manifest);
    });
    assert_corrupt(&dir, "segment count exceeds manifest size");

    let dir = specimen("entry-count", |files| {
        let manifest = files.get_mut(MANIFEST_FILE).unwrap();
        // header 8 | generation 8 | segment count 2 | one segment row:
        // name_len 2 | name | data_len 8 | record_count 4 | entry count.
        let at = 18 + 2 + SEGMENT.len() + 12;
        manifest[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        reseal(manifest);
    });
    assert_corrupt(&dir, "entry count exceeds manifest size");
}

#[test]
fn manifest_trailing_bytes_after_index() {
    let dir = specimen("trailing", |files| {
        let manifest = files.get_mut(MANIFEST_FILE).unwrap();
        let at = manifest.len() - MANIFEST_TRAILER_LEN;
        manifest.splice(at..at, [0u8; 3]);
        reseal(manifest);
    });
    assert_corrupt(&dir, "trailing bytes after manifest index");
}

#[test]
fn entry_naming_an_unknown_segment() {
    let dir = specimen("unknown-segment", |files| {
        edit_manifest(files, |m| m.entries[0].segment = 7);
    });
    assert_corrupt(&dir, "entry references unknown segment");
}

#[test]
fn manifest_naming_a_path_outside_the_store() {
    // A correctly checksummed manifest whose segment row is a relative
    // path: decode must refuse it before the reader joins and opens it.
    let dir = specimen("escape", |files| {
        edit_manifest(files, |m| m.segments[0].file_name = "../escape.seg".into());
    });
    assert_corrupt(&dir, "manifest names a file that is not a segment");
}

#[test]
fn entry_range_outside_its_segment() {
    let dir = specimen("entry-range", |files| {
        edit_manifest(files, |m| {
            m.entries[1].entry.offset = m.segments[0].data_len - 1;
        });
    });
    assert_corrupt(&dir, "entry range outside its segment");

    // An offset + length that overflows u64 is its own message.
    let dir = specimen("entry-overflow", |files| {
        edit_manifest(files, |m| m.entries[0].entry.offset = u64::MAX);
    });
    assert_corrupt(&dir, "entry range overflow");
}

#[test]
fn segment_missing_is_an_io_error() {
    let dir = specimen("no-segment", |files| {
        files.remove(SEGMENT);
    });
    let (err, rejected, _) = open_corrupt(&dir);
    match err {
        StoreError::Io(e) => assert_eq!(e.kind(), std::io::ErrorKind::NotFound),
        other => panic!("expected Io(NotFound), got {other:?}"),
    }
    assert_eq!(rejected, 0, "a missing file is not a corrupt one");
}

#[test]
fn segment_length_disagrees_with_manifest() {
    let dir = specimen("segment-short", |files| {
        files.get_mut(SEGMENT).unwrap().pop();
    });
    assert_corrupt(&dir, "segment length disagrees with manifest");
}

#[test]
fn segment_bad_header() {
    let dir = specimen("segment-magic", |files| {
        files.get_mut(SEGMENT).unwrap()[0] = b'X';
    });
    assert_corrupt(&dir, "bad segment magic");
    let dir = specimen("segment-version", |files| {
        files.get_mut(SEGMENT).unwrap()[4] = 9;
    });
    assert_corrupt(&dir, "unsupported segment version");
}

#[test]
fn segment_trailer_damage() {
    let data_len = (pristine()[SEGMENT].len() - SEGMENT_TRAILER_LEN) as u64;

    let dir = specimen("segment-trailer-magic", |files| {
        *files.get_mut(SEGMENT).unwrap().last_mut().unwrap() = b'?';
    });
    assert_corrupt(&dir, "missing segment trailer");

    // A flipped bit in the trailer's counted fields fails its XXH64.
    let dir = specimen("segment-trailer-flip", |files| {
        files.get_mut(SEGMENT).unwrap()[data_len as usize + 8] ^= 0x01;
    });
    assert_checksum_mismatch(&dir, data_len + 12);

    // A well-formed trailer that disagrees with the manifest row: the
    // segment is not the one the manifest committed.
    let dir = specimen("segment-trailer-disagrees", |files| {
        let segment = files.get_mut(SEGMENT).unwrap();
        segment.truncate(data_len as usize);
        segment.extend_from_slice(&encode_segment_trailer(data_len, 99));
    });
    assert_corrupt(&dir, "segment trailer disagrees with manifest");
}

#[test]
fn payload_bit_flip_is_caught_at_get() {
    // A store that opens fine but whose record bytes were damaged must
    // surface the damage through `get` and bump the store-side
    // rejection counters.
    let offset = Manifest::decode(&pristine()[MANIFEST_FILE], true)
        .expect("pristine manifest")
        .entries[0]
        .entry
        .offset;
    let dir = specimen("payload", |files| {
        // Stomp the first container's magic byte.
        files.get_mut(SEGMENT).unwrap()[offset as usize] = b'X';
    });
    let reader = StoreReader::open(&dir).expect("manifest and framing are intact");
    let mut recorder = Recorder::new();
    let err = reader
        .get_recorded(0, "u", &mut recorder)
        .expect_err("damaged payload must be rejected");
    // The per-entry container checksum catches the damage before the
    // decoder ever parses the container.
    match err {
        StoreError::ChecksumMismatch { offset: at, .. } => assert_eq!(at, offset),
        other => panic!("expected a checksum mismatch, got {other:?}"),
    }
    if ENABLED {
        let snapshot = recorder.snapshot();
        assert_eq!(snapshot.counter(Counter::StoreCorruptRejected), 1);
        assert_eq!(snapshot.counter(Counter::ChecksumMismatches), 1);
    }
    // The undamaged neighbour still reads.
    assert_eq!(reader.get(1, "v").expect("v decodes"), demo_data(700));
    // With verification off the damage falls through to the embedded
    // container decoder, which rejects it structurally.
    let reader = StoreReader::open_with_verify(&dir, false).expect("structure is intact");
    let err = reader
        .get(0, "u")
        .expect_err("decoder still rejects the stomped magic");
    assert!(matches!(err, StoreError::Isobar(_)), "got {err:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
