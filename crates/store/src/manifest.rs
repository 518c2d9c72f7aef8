//! Manifest and segment framing.
//!
//! A store is a directory: N immutable segment files plus a
//! `MANIFEST` that names them and embeds the whole index. The manifest
//! is the only mutable object and is replaced by atomic rename — the
//! single commit point for a generation. Segments are never rewritten;
//! a new generation appends fresh segment files next to the committed
//! ones and the new manifest references both, so writers of different
//! generations never collide on a file name.
//!
//! # Manifest layout (all little-endian)
//!
//! ```text
//! magic "ISSM" | version u8 (3) | reserved [0u8; 3]
//! generation u64
//! segment count u16
//! per segment: name_len u16 | file name | data_len u64 | record_count u32
//! entry count u32
//! per entry: segment u16 | name_len u16 | name | step u32 | width u8 |
//!            offset u64 | container_len u64 | raw_len u64 | checksum u64
//! trailer: manifest_xxh64 u64 (over everything above) | magic "ISMX"
//! ```
//!
//! # Segment layout
//!
//! ```text
//! magic "ISSG" | version u8 (3) | shard u16 | reserved u8
//! repeated records:
//!   name_len u16 | name | step u32 | width u8 | container_len u64 |
//!   ISOBAR container
//! trailer: data_len u64 | record_count u32 |
//!          trailer_xxh64 u64 (over the 12 preceding bytes) | magic "ISGX"
//! ```
//!
//! `data_len` is the byte offset at which the trailer begins, i.e. the
//! length of header plus records. Entry offsets in the manifest are
//! segment-relative.

use crate::error::StoreError;
use crate::format::{
    is_segment_file_name, IndexEntry, CHECKSUM_SEED, MANIFEST_HEADER_LEN, MANIFEST_MAGIC,
    MANIFEST_TRAILER_LEN, MANIFEST_TRAILER_MAGIC, MIN_ENTRY_LEN, SEGMENT_HEADER_LEN, SEGMENT_MAGIC,
    SEGMENT_TRAILER_LEN, SEGMENT_TRAILER_MAGIC, V3_VERSION,
};
use isobar_codecs::xxhash::xxh64;

/// One segment file as the manifest describes it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentMeta {
    /// File name of the segment, relative to the store directory.
    pub file_name: String,
    /// Bytes of header plus records — the offset at which the segment
    /// trailer begins.
    pub data_len: u64,
    /// Number of records in the segment.
    pub record_count: u32,
}

/// One index entry plus the ordinal of the segment that holds its
/// record, in the manifest's segment table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestEntry {
    /// Ordinal into [`Manifest::segments`].
    pub segment: u16,
    /// The entry itself; `offset` is segment-relative.
    pub entry: IndexEntry,
}

/// The decoded manifest of a version-3 store.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Manifest {
    /// Commit generation, starting at 0 and incremented by every
    /// writer or compaction that commits a new manifest.
    pub generation: u64,
    /// Segment table; entry ordinals point into this.
    pub segments: Vec<SegmentMeta>,
    /// The whole index, in put order. Later entries supersede earlier
    /// ones for the same `(step, name)`.
    pub entries: Vec<ManifestEntry>,
}

impl Manifest {
    /// Serialize to the complete on-disk manifest byte stream,
    /// including the checksummed trailer.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&MANIFEST_MAGIC);
        out.push(V3_VERSION);
        out.extend_from_slice(&[0u8; 3]);
        out.extend_from_slice(&self.generation.to_le_bytes());
        out.extend_from_slice(&(self.segments.len() as u16).to_le_bytes());
        for seg in &self.segments {
            let name = seg.file_name.as_bytes();
            out.extend_from_slice(&(name.len() as u16).to_le_bytes());
            out.extend_from_slice(name);
            out.extend_from_slice(&seg.data_len.to_le_bytes());
            out.extend_from_slice(&seg.record_count.to_le_bytes());
        }
        out.extend_from_slice(&(self.entries.len() as u32).to_le_bytes());
        for me in &self.entries {
            out.extend_from_slice(&me.segment.to_le_bytes());
            me.entry.write(&mut out);
        }
        out.extend_from_slice(&xxh64(&out, CHECKSUM_SEED).to_le_bytes());
        out.extend_from_slice(&MANIFEST_TRAILER_MAGIC);
        out
    }

    /// Parse a manifest byte stream. With `verify` on, the trailing
    /// XXH64 must match the bytes it covers; structural validation
    /// (magic, version, bounds on every count and range) happens
    /// either way.
    pub fn decode(data: &[u8], verify: bool) -> Result<Manifest, StoreError> {
        if data.len() < MANIFEST_HEADER_LEN + 8 + 2 + 4 + MANIFEST_TRAILER_LEN {
            return Err(StoreError::Corrupt("manifest too short"));
        }
        if data[..4] != MANIFEST_MAGIC {
            return Err(StoreError::Corrupt("bad manifest magic"));
        }
        if data[4] != V3_VERSION {
            return Err(StoreError::Corrupt("unsupported manifest version"));
        }
        let trailer_at = data.len() - MANIFEST_TRAILER_LEN;
        if data[trailer_at + 8..] != MANIFEST_TRAILER_MAGIC {
            return Err(StoreError::Corrupt("missing manifest trailer"));
        }
        if verify {
            let stored = u64::from_le_bytes(data[trailer_at..trailer_at + 8].try_into().unwrap());
            let actual = xxh64(&data[..trailer_at], CHECKSUM_SEED);
            if stored != actual {
                return Err(StoreError::ChecksumMismatch {
                    offset: 0,
                    expected: stored,
                    actual,
                });
            }
        }
        let body = &data[..trailer_at];
        let mut pos = MANIFEST_HEADER_LEN;
        let generation = u64::from_le_bytes(
            body.get(pos..pos + 8)
                .ok_or(StoreError::Corrupt("manifest truncated"))?
                .try_into()
                .unwrap(),
        );
        pos += 8;
        let seg_count = u16::from_le_bytes(
            body.get(pos..pos + 2)
                .ok_or(StoreError::Corrupt("manifest truncated"))?
                .try_into()
                .unwrap(),
        ) as usize;
        pos += 2;
        // Each segment row is at least 2 + 0 + 8 + 4 bytes; bound the
        // claimed count by the remaining bytes before allocating.
        if seg_count * (2 + 8 + 4) > body.len().saturating_sub(pos) {
            return Err(StoreError::Corrupt("segment count exceeds manifest size"));
        }
        let mut segments = Vec::with_capacity(seg_count);
        for _ in 0..seg_count {
            let name_len = u16::from_le_bytes(
                body.get(pos..pos + 2)
                    .ok_or(StoreError::Corrupt("manifest truncated"))?
                    .try_into()
                    .unwrap(),
            ) as usize;
            pos += 2;
            let name = body
                .get(pos..pos + name_len)
                .ok_or(StoreError::Corrupt("manifest truncated"))?;
            let file_name = std::str::from_utf8(name)
                .map_err(|_| StoreError::Corrupt("segment file name is not UTF-8"))?;
            if !is_segment_file_name(file_name) {
                return Err(StoreError::Corrupt(
                    "manifest names a file that is not a segment",
                ));
            }
            let file_name = file_name.to_string();
            pos += name_len;
            let tail = body
                .get(pos..pos + 12)
                .ok_or(StoreError::Corrupt("manifest truncated"))?;
            pos += 12;
            segments.push(SegmentMeta {
                file_name,
                data_len: u64::from_le_bytes(tail[..8].try_into().unwrap()),
                record_count: u32::from_le_bytes(tail[8..12].try_into().unwrap()),
            });
        }
        let entry_count = u32::from_le_bytes(
            body.get(pos..pos + 4)
                .ok_or(StoreError::Corrupt("manifest truncated"))?
                .try_into()
                .unwrap(),
        ) as usize;
        pos += 4;
        // A manifest entry is a segment ordinal plus an index entry
        // of at least MIN_ENTRY_LEN bytes.
        if entry_count * (2 + MIN_ENTRY_LEN) > body.len().saturating_sub(pos) {
            return Err(StoreError::Corrupt("entry count exceeds manifest size"));
        }
        let mut entries = Vec::with_capacity(entry_count);
        for _ in 0..entry_count {
            let segment = u16::from_le_bytes(
                body.get(pos..pos + 2)
                    .ok_or(StoreError::Corrupt("manifest truncated"))?
                    .try_into()
                    .unwrap(),
            );
            pos += 2;
            if segment as usize >= segments.len() {
                return Err(StoreError::Corrupt("entry references unknown segment"));
            }
            let (entry, used) = IndexEntry::read(&body[pos..])?;
            pos += used;
            let seg = &segments[segment as usize];
            let end = entry
                .offset
                .checked_add(entry.container_len)
                .ok_or(StoreError::Corrupt("entry range overflow"))?;
            if entry.offset < SEGMENT_HEADER_LEN as u64 || end > seg.data_len {
                return Err(StoreError::Corrupt("entry range outside its segment"));
            }
            entries.push(ManifestEntry { segment, entry });
        }
        if pos != body.len() {
            return Err(StoreError::Corrupt("trailing bytes after manifest index"));
        }
        Ok(Manifest {
            generation,
            segments,
            entries,
        })
    }
}

/// Serialize a segment header for one shard.
pub fn encode_segment_header(shard: u16) -> [u8; SEGMENT_HEADER_LEN] {
    let mut out = [0u8; SEGMENT_HEADER_LEN];
    out[..4].copy_from_slice(&SEGMENT_MAGIC);
    out[4] = V3_VERSION;
    out[5..7].copy_from_slice(&shard.to_le_bytes());
    out
}

/// Validate a segment header, returning the shard ordinal it claims.
pub fn decode_segment_header(data: &[u8]) -> Result<u16, StoreError> {
    if data.len() < SEGMENT_HEADER_LEN {
        return Err(StoreError::Corrupt("segment too short"));
    }
    if data[..4] != SEGMENT_MAGIC {
        return Err(StoreError::Corrupt("bad segment magic"));
    }
    if data[4] != V3_VERSION {
        return Err(StoreError::Corrupt("unsupported segment version"));
    }
    Ok(u16::from_le_bytes(data[5..7].try_into().unwrap()))
}

/// Serialize a segment trailer: `data_len`, `record_count`, the XXH64
/// of those 12 bytes, and the trailer magic.
pub fn encode_segment_trailer(data_len: u64, record_count: u32) -> [u8; SEGMENT_TRAILER_LEN] {
    let mut out = [0u8; SEGMENT_TRAILER_LEN];
    out[..8].copy_from_slice(&data_len.to_le_bytes());
    out[8..12].copy_from_slice(&record_count.to_le_bytes());
    let sum = xxh64(&out[..12], CHECKSUM_SEED);
    out[12..20].copy_from_slice(&sum.to_le_bytes());
    out[20..].copy_from_slice(&SEGMENT_TRAILER_MAGIC);
    out
}

/// Parse and verify the trailer at the end of a segment file, returning
/// `(data_len, record_count)`.
pub fn decode_segment_trailer(file: &[u8]) -> Result<(u64, u32), StoreError> {
    if file.len() < SEGMENT_HEADER_LEN + SEGMENT_TRAILER_LEN {
        return Err(StoreError::Corrupt("segment too short for a trailer"));
    }
    let trailer = &file[file.len() - SEGMENT_TRAILER_LEN..];
    if trailer[20..] != SEGMENT_TRAILER_MAGIC {
        return Err(StoreError::Corrupt("missing segment trailer"));
    }
    let stored = u64::from_le_bytes(trailer[12..20].try_into().unwrap());
    let actual = xxh64(&trailer[..12], CHECKSUM_SEED);
    if stored != actual {
        return Err(StoreError::ChecksumMismatch {
            offset: (file.len() - SEGMENT_TRAILER_LEN + 12) as u64,
            expected: stored,
            actual,
        });
    }
    let data_len = u64::from_le_bytes(trailer[..8].try_into().unwrap());
    let record_count = u32::from_le_bytes(trailer[8..12].try_into().unwrap());
    if data_len < SEGMENT_HEADER_LEN as u64 || data_len > (file.len() - SEGMENT_TRAILER_LEN) as u64
    {
        return Err(StoreError::Corrupt("segment data length out of range"));
    }
    Ok((data_len, record_count))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> Manifest {
        Manifest {
            generation: 7,
            segments: vec![
                SegmentMeta {
                    file_name: "g0000000000000007-s000.seg".into(),
                    data_len: 1000,
                    record_count: 2,
                },
                SegmentMeta {
                    file_name: "g0000000000000007-s001.seg".into(),
                    data_len: 500,
                    record_count: 1,
                },
            ],
            entries: vec![
                ManifestEntry {
                    segment: 0,
                    entry: IndexEntry {
                        name: "density".into(),
                        step: 3,
                        width: 8,
                        offset: 30,
                        container_len: 400,
                        raw_len: 4000,
                        checksum: 0x1111,
                    },
                },
                ManifestEntry {
                    segment: 1,
                    entry: IndexEntry {
                        name: "potential".into(),
                        step: 3,
                        width: 8,
                        offset: 32,
                        container_len: 200,
                        raw_len: 2000,
                        checksum: 0x2222,
                    },
                },
            ],
        }
    }

    #[test]
    fn manifest_round_trips() {
        let m = demo();
        let bytes = m.encode();
        assert_eq!(Manifest::decode(&bytes, true).unwrap(), m);
    }

    #[test]
    fn manifest_checksum_damage_is_caught() {
        let mut bytes = demo().encode();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        assert!(matches!(
            Manifest::decode(&bytes, true),
            Err(StoreError::ChecksumMismatch { .. }) | Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn manifest_truncations_are_rejected() {
        let bytes = demo().encode();
        for cut in [0, 3, 7, 20, bytes.len() - 1] {
            assert!(Manifest::decode(&bytes[..cut], false).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn entry_referencing_unknown_segment_is_rejected() {
        let mut m = demo();
        m.entries[0].segment = 9;
        let bytes = m.encode();
        assert!(matches!(
            Manifest::decode(&bytes, false),
            Err(StoreError::Corrupt("entry references unknown segment"))
        ));
    }

    #[test]
    fn entry_range_outside_segment_is_rejected() {
        let mut m = demo();
        m.entries[0].entry.container_len = 10_000;
        let bytes = m.encode();
        assert!(matches!(
            Manifest::decode(&bytes, false),
            Err(StoreError::Corrupt("entry range outside its segment"))
        ));
    }

    #[test]
    fn segment_framing_round_trips() {
        let header = encode_segment_header(5);
        assert_eq!(decode_segment_header(&header).unwrap(), 5);
        let mut file = header.to_vec();
        file.extend_from_slice(&[0xAB; 100]);
        let data_len = file.len() as u64;
        file.extend_from_slice(&encode_segment_trailer(data_len, 3));
        assert_eq!(decode_segment_trailer(&file).unwrap(), (data_len, 3));
    }

    #[test]
    fn segment_trailer_damage_is_caught() {
        let mut file = encode_segment_header(0).to_vec();
        file.extend_from_slice(&[0u8; 64]);
        let data_len = file.len() as u64;
        file.extend_from_slice(&encode_segment_trailer(data_len, 1));
        let at = file.len() - SEGMENT_TRAILER_LEN + 2;
        file[at] ^= 0xFF;
        assert!(decode_segment_trailer(&file).is_err());
    }

    #[test]
    fn empty_manifest_round_trips() {
        let m = Manifest::default();
        assert_eq!(Manifest::decode(&m.encode(), true).unwrap(), m);
    }
}
