//! On-disk layout constants and the index entry record.
//!
//! A store is a **directory** — a `MANIFEST` file (magic `ISSM`)
//! naming N segment files (magic `ISSG`), each appended by an
//! independent writer. The manifest embeds the whole index (entries
//! carry a segment ordinal) and is swapped in atomically, making it
//! the single commit point. See [`crate::manifest`] and
//! `docs/FORMAT.md`.

use crate::error::StoreError;
use isobar_codecs::xxhash::xxh64;
use std::ffi::OsString;
use std::path::{Path, PathBuf};

/// Magic of the retired single-file (v1/v2) store: "ISST". Kept only
/// so a leftover file is refused by name instead of misread.
pub const MAGIC: [u8; 4] = *b"ISST";
/// The store format version, carried by every manifest and segment
/// header.
pub const V3_VERSION: u8 = 3;
/// Segment file magic: "ISSG".
pub const SEGMENT_MAGIC: [u8; 4] = *b"ISSG";
/// Segment trailer magic: "ISGX".
pub const SEGMENT_TRAILER_MAGIC: [u8; 4] = *b"ISGX";
/// Segment header size: magic (4) + version (1) + shard ordinal (2) +
/// reserved (1).
pub const SEGMENT_HEADER_LEN: usize = 8;
/// Segment trailer size: data length (8) + record count (4) + trailer
/// XXH64 (8) + magic (4).
pub const SEGMENT_TRAILER_LEN: usize = 24;
/// Manifest file magic: "ISSM".
pub const MANIFEST_MAGIC: [u8; 4] = *b"ISSM";
/// Manifest trailer magic: "ISMX".
pub const MANIFEST_TRAILER_MAGIC: [u8; 4] = *b"ISMX";
/// Manifest header size: magic (4) + version (1) + reserved (3).
pub const MANIFEST_HEADER_LEN: usize = 8;
/// Manifest trailer size: manifest XXH64 (8) + magic (4).
pub const MANIFEST_TRAILER_LEN: usize = 12;
/// File name of the manifest inside a version-3 store directory.
pub const MANIFEST_FILE: &str = "MANIFEST";

/// Segment file name for one generation and shard:
/// `g<generation:016x>-s<shard:03>.seg`. Generations never collide, so
/// a rewrite's fresh segments coexist with the committed ones until
/// the manifest swap.
pub fn segment_file_name(generation: u64, shard: u16) -> String {
    format!("g{generation:016x}-s{shard:03}.seg")
}

/// Whether `name` is exactly what [`segment_file_name`] writes for some
/// generation and shard. Manifest decode rejects every other name, so
/// a manifest can never steer the reader to a path outside the store
/// directory; fsck and the orphan sweep use it to spot segments no
/// manifest references.
pub fn is_segment_file_name(name: &str) -> bool {
    name.strip_prefix('g')
        .and_then(|rest| rest.strip_suffix(".seg"))
        .and_then(|rest| rest.split_once("-s"))
        .and_then(|(generation, shard)| {
            Some((
                u64::from_str_radix(generation, 16).ok()?,
                shard.parse::<u16>().ok()?,
            ))
        })
        .is_some_and(|(generation, shard)| segment_file_name(generation, shard) == name)
}

/// Serialize the record header that precedes each embedded container:
/// `name_len u16 | name | step u32 | width u8 | container_len u64`.
pub fn encode_record_header(name: &str, step: u32, width: u8, container_len: u64) -> Vec<u8> {
    let name = name.as_bytes();
    let mut out = Vec::with_capacity(2 + name.len() + 4 + 1 + 8);
    out.extend_from_slice(&(name.len() as u16).to_le_bytes());
    out.extend_from_slice(name);
    out.extend_from_slice(&step.to_le_bytes());
    out.push(width);
    out.extend_from_slice(&container_len.to_le_bytes());
    out
}
/// Seed for every XXH64 checksum in the store format.
pub const CHECKSUM_SEED: u64 = 0;
/// Smallest possible serialized [`IndexEntry`]: name length prefix
/// (2), empty name, step (4), width (1), offset (8), container_len
/// (8), raw_len (8), checksum (8). Bounds a claimed entry count
/// against the manifest's actual size before allocating for it.
pub const MIN_ENTRY_LEN: usize = 2 + 4 + 1 + 8 + 8 + 8 + 8;

/// The shadow-file name a segment or manifest is journaled under
/// before the rename that commits it.
pub fn wip_path(path: &Path) -> PathBuf {
    let mut name = OsString::from(path.as_os_str());
    name.push(".wip");
    PathBuf::from(name)
}

/// XXH64 over a container's bytes — the per-entry integrity checksum
/// embedded in the manifest index.
pub fn entry_checksum(container: &[u8]) -> u64 {
    xxh64(container, CHECKSUM_SEED)
}

/// One index entry: where to find one variable of one time step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexEntry {
    /// Variable name.
    pub name: String,
    /// Simulation time step.
    pub step: u32,
    /// Element width the variable was written with.
    pub width: u8,
    /// File offset of the record's ISOBAR container.
    pub offset: u64,
    /// Length of the ISOBAR container in bytes.
    pub container_len: u64,
    /// Uncompressed variable size in bytes.
    pub raw_len: u64,
    /// XXH64 of the container bytes.
    pub checksum: u64,
}

impl IndexEntry {
    /// Serialize into `out`.
    pub fn write(&self, out: &mut Vec<u8>) {
        let name = self.name.as_bytes();
        out.extend_from_slice(&(name.len() as u16).to_le_bytes());
        out.extend_from_slice(name);
        out.extend_from_slice(&self.step.to_le_bytes());
        out.push(self.width);
        out.extend_from_slice(&self.offset.to_le_bytes());
        out.extend_from_slice(&self.container_len.to_le_bytes());
        out.extend_from_slice(&self.raw_len.to_le_bytes());
        out.extend_from_slice(&self.checksum.to_le_bytes());
    }

    /// Parse one entry from the front of `data`; returns the entry and
    /// bytes consumed.
    pub fn read(data: &[u8]) -> Result<(IndexEntry, usize), StoreError> {
        if data.len() < 2 {
            return Err(StoreError::Corrupt("index entry truncated"));
        }
        let name_len = u16::from_le_bytes(data[..2].try_into().expect("2 bytes")) as usize;
        let total = name_len + MIN_ENTRY_LEN;
        if data.len() < total {
            return Err(StoreError::Corrupt("index entry truncated"));
        }
        let name = std::str::from_utf8(&data[2..2 + name_len])
            .map_err(|_| StoreError::Corrupt("index entry name is not UTF-8"))?
            .to_string();
        let rest = &data[2 + name_len..];
        Ok((
            IndexEntry {
                name,
                step: u32::from_le_bytes(rest[..4].try_into().expect("4 bytes")),
                width: rest[4],
                offset: u64::from_le_bytes(rest[5..13].try_into().expect("8 bytes")),
                container_len: u64::from_le_bytes(rest[13..21].try_into().expect("8 bytes")),
                raw_len: u64::from_le_bytes(rest[21..29].try_into().expect("8 bytes")),
                checksum: u64::from_le_bytes(rest[29..37].try_into().expect("8 bytes")),
            },
            total,
        ))
    }

    /// Compression ratio achieved for this variable.
    pub fn ratio(&self) -> f64 {
        if self.container_len == 0 {
            1.0
        } else {
            self.raw_len as f64 / self.container_len as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> IndexEntry {
        IndexEntry {
            name: "potential_nl".into(),
            step: 300_000,
            width: 8,
            offset: 123_456_789,
            container_len: 42_000,
            raw_len: 64_000,
            checksum: 0xDEAD_BEEF_CAFE_F00D,
        }
    }

    #[test]
    fn entry_round_trips() {
        let mut buf = Vec::new();
        demo().write(&mut buf);
        buf.extend_from_slice(&[0xAA; 3]); // trailing data untouched
        let (entry, consumed) = IndexEntry::read(&buf).unwrap();
        assert_eq!(entry, demo());
        assert_eq!(consumed, buf.len() - 3);
    }

    #[test]
    fn truncated_entries_are_rejected() {
        let mut buf = Vec::new();
        demo().write(&mut buf);
        for cut in [0, 1, 5, buf.len() - 1] {
            assert!(IndexEntry::read(&buf[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn non_utf8_names_are_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&2u16.to_le_bytes());
        buf.extend_from_slice(&[0xFF, 0xFE]);
        buf.extend_from_slice(&[0u8; 37]);
        assert!(matches!(
            IndexEntry::read(&buf),
            Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn only_names_the_writer_produces_are_segment_names() {
        for (generation, shard) in [(0, 0), (7, 12), (u64::MAX, u16::MAX)] {
            assert!(is_segment_file_name(&segment_file_name(generation, shard)));
        }
        for name in [
            "g/../../x.seg",
            "../g0000000000000000-s000.seg",
            "g0000000000000000-s000.seg.wip",
            "g00000000000000AB-s000.seg",
            "g+000000000000000-s000.seg",
            "g0000000000000000-s0.seg",
            "g0000000000000000-s+00.seg",
            "g0000000000000000-s65536.seg",
            "g.seg",
        ] {
            assert!(!is_segment_file_name(name), "{name}");
        }
    }

    #[test]
    fn ratio_is_raw_over_container() {
        assert!((demo().ratio() - 64_000.0 / 42_000.0).abs() < 1e-12);
    }

    #[test]
    fn empty_name_round_trips() {
        let entry = IndexEntry {
            name: String::new(),
            ..demo()
        };
        let mut buf = Vec::new();
        entry.write(&mut buf);
        assert_eq!(IndexEntry::read(&buf).unwrap().0, entry);
    }

    #[test]
    fn entry_checksum_is_xxh64_of_container_bytes() {
        let container = b"ISBR-shaped bytes";
        assert_eq!(entry_checksum(container), xxh64(container, CHECKSUM_SEED));
        assert_ne!(entry_checksum(container), entry_checksum(b"other bytes"));
    }
}
