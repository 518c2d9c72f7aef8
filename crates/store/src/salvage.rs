//! Store-level fsck and salvage.
//!
//! A store has two independent failure surfaces: the segments
//! (individual containers) and the manifest. Fsck reports both;
//! salvage recovers every intact record it can find, rebuilding the
//! index from a forward record walk when the manifest is unusable.
//!
//! # Resync rules for a lost manifest
//!
//! Each segment is walked forward from offset 8 by the one
//! checksum-anchor walk, [`isobar::salvage::resync_walk`]. The anchor
//! at an offset parses a record header in place (`name_len | name |
//! step | width | container_len`) and accepts it only when the embedded
//! container's `"ISBR"` magic sits exactly where that header ends, the
//! element width is plausible, the container fits in the file and the
//! name is UTF-8. Only then does it run a strict (verifying)
//! decompress — a false anchor has to forge the container checksums to
//! survive, so misidentified records do not reach the salvaged output.
//! A header that passes but whose container fails to verify is a lost
//! record.

use crate::error::StoreError;
use crate::format::{
    entry_checksum, is_segment_file_name, IndexEntry, MANIFEST_FILE, SEGMENT_HEADER_LEN,
};
use crate::manifest::Manifest;
use crate::reader::{require_directory, StoreReader};
use crate::sharded::{ShardedOptions, ShardedStoreWriter};
use isobar::salvage::{resync_walk, Segment};
use isobar::{IsobarCompressor, IsobarOptions};
use std::collections::{HashMap, HashSet};
use std::ops::Range;
use std::path::Path;

/// Verification outcome for one store entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryHealth {
    /// The entry's bytes match its manifest checksum.
    Verified,
    /// The entry's bytes contradict its checksum or cannot be read.
    Damaged,
}

/// Fsck status of one store entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EntryStatus {
    /// Simulation time step.
    pub step: u32,
    /// Variable name.
    pub name: String,
    /// Segment offset of the entry's container.
    pub offset: u64,
    /// Verification outcome.
    pub health: EntryHealth,
}

/// What [`fsck_store`] found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreFsckReport {
    /// Whether the manifest (or a segment's agreement with it) is
    /// damaged or unreadable. When true, `entries` may be empty even
    /// though data records exist.
    pub index_damaged: bool,
    /// Per-entry status, in index order.
    pub entries: Vec<EntryStatus>,
    /// Segment-shaped files in the store directory (including `.wip`
    /// journals) that the manifest does not reference — droppings of a
    /// crashed or in-flight writer. Harmless; compaction sweeps them.
    pub orphan_files: usize,
    /// Entries shadowed by a later put of the same `(step, variable)`.
    /// Dead weight, reclaimed by compaction.
    pub superseded_entries: usize,
}

impl StoreFsckReport {
    /// True when the manifest is intact and no entry is damaged.
    pub fn is_clean(&self) -> bool {
        !self.index_damaged
            && self
                .entries
                .iter()
                .all(|e| e.health != EntryHealth::Damaged)
    }

    /// Number of entries that failed verification.
    pub fn damaged_entries(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| e.health == EntryHealth::Damaged)
            .count()
    }
}

/// What [`salvage_store`] accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreSalvageReport {
    /// Records copied intact into the output store.
    pub entries_recovered: usize,
    /// Records that could not be recovered.
    pub entries_lost: usize,
    /// Whether the index was rebuilt from a forward record walk
    /// because the manifest was unusable.
    pub index_rebuilt: bool,
}

impl StoreSalvageReport {
    /// True when nothing was lost.
    pub fn is_complete(&self) -> bool {
        self.entries_lost == 0
    }
}

/// Health of one container: its bytes against its manifest checksum.
fn container_health(entry: &IndexEntry, container: &[u8]) -> EntryHealth {
    if entry_checksum(container) == entry.checksum {
        EntryHealth::Verified
    } else {
        EntryHealth::Damaged
    }
}

/// Segment-shaped files in `dir`, `.wip` journals included, in name
/// (so generation) order.
fn segment_files(dir: &Path) -> Result<Vec<String>, StoreError> {
    let mut files = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let name = entry?.file_name();
        let Some(name) = name.to_str() else { continue };
        if is_segment_file_name(name.strip_suffix(".wip").unwrap_or(name)) {
            files.push(name.to_string());
        }
    }
    files.sort();
    Ok(files)
}

/// Positions of `keys`, given in put order, grouped by key: keys in
/// first-appearance order, each key's positions in put order, so the
/// last one is its newest version.
fn versions_by_key<'a>(keys: impl Iterator<Item = (u32, &'a str)>) -> Vec<Vec<usize>> {
    let mut group_of = HashMap::new();
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for (at, key) in keys.enumerate() {
        let group = *group_of.entry(key).or_insert(groups.len());
        if group == groups.len() {
            groups.push(Vec::new());
        }
        groups[group].push(at);
    }
    groups
}

/// Walk a store directory and verify every entry without
/// decompressing payloads.
///
/// Never fails on damage — damage is the report's content. Errors are
/// reserved for I/O failures and paths that are not store directories.
pub fn fsck_store(path: impl AsRef<Path>) -> Result<StoreFsckReport, StoreError> {
    let dir = path.as_ref();
    require_directory(dir)?;
    // The manifest's segment table drives the orphan scan; if it
    // cannot be decoded at all, every segment file is effectively
    // unreferenced (and recoverable only by the salvage walk).
    let referenced: HashSet<String> = match std::fs::read(dir.join(MANIFEST_FILE)) {
        Ok(bytes) => Manifest::decode(&bytes, false)
            .map(|m| m.segments.into_iter().map(|s| s.file_name).collect())
            .unwrap_or_default(),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => HashSet::new(),
        Err(e) => return Err(e.into()),
    };
    let mut report = StoreFsckReport {
        index_damaged: false,
        entries: Vec::new(),
        orphan_files: segment_files(dir)?
            .iter()
            .filter(|name| !referenced.contains(*name))
            .count(),
        superseded_entries: 0,
    };
    let reader = match StoreReader::open(dir) {
        Ok(reader) => reader,
        Err(StoreError::Io(e)) => return Err(StoreError::Io(e)),
        // Manifest checksum mismatch or a segment disagreeing with it:
        // retry structurally to enumerate what we still can.
        Err(_) => {
            report.index_damaged = true;
            match StoreReader::open_with_verify(dir, false) {
                Ok(reader) => reader,
                Err(_) => return Ok(report),
            }
        }
    };
    report.superseded_entries = reader.superseded_count();
    for entry in reader.entries() {
        let health = match reader.get_container(entry) {
            Ok(container) => container_health(entry, &container),
            Err(StoreError::Io(e)) => return Err(StoreError::Io(e)),
            Err(_) => EntryHealth::Damaged,
        };
        report.entries.push(EntryStatus {
            step: entry.step,
            name: entry.name.clone(),
            offset: entry.offset,
            health,
        });
    }
    Ok(report)
}

/// Copy every recoverable record of the store directory at `input`
/// into a fresh single-shard store at `output`.
///
/// With a decodable manifest, the newest intact version of every live
/// `(step, variable)` is copied byte-for-byte (no decompress/recompress
/// round trip); when the newest version is damaged, older superseded
/// versions of the same key are tried newest-first — a supersede
/// history doubles as a recovery ladder. Without a usable manifest,
/// every segment file (including `.wip` journals of a crashed writer)
/// is walked with the resync rules from the module docs; each
/// candidate must survive a strict verifying decompress before it is
/// admitted, and the newest surviving version of each key wins. The
/// output is always a complete store — opening it verifies clean.
pub fn salvage_store(
    input: impl AsRef<Path>,
    output: impl AsRef<Path>,
) -> Result<StoreSalvageReport, StoreError> {
    let input = input.as_ref();
    require_directory(input)?;
    let writer = ShardedStoreWriter::create(
        output,
        IsobarOptions::default(),
        ShardedOptions {
            shards: 1,
            ..Default::default()
        },
    )?;
    let mut recovered = 0usize;
    let mut lost = 0usize;
    let manifest = StoreReader::open_with_verify(input, false);

    if let Ok(reader) = &manifest {
        // Index order is put order, so a key's newest position is its
        // live version.
        let keys = reader.entries().iter().map(|e| (e.step, e.name.as_str()));
        'keys: for versions in versions_by_key(keys) {
            for at in versions.into_iter().rev() {
                let entry = &reader.entries()[at];
                let container = match reader.get_container(entry) {
                    Ok(c) => c,
                    Err(StoreError::Io(e)) => return Err(StoreError::Io(e)),
                    Err(_) => continue,
                };
                if container_health(entry, &container) == EntryHealth::Damaged {
                    continue;
                }
                writer.put_container(
                    entry.step,
                    &entry.name,
                    entry.width,
                    container,
                    entry.raw_len,
                )?;
                recovered += 1;
                continue 'keys;
            }
            lost += 1;
        }
    } else {
        // Manifest unusable: walk every segment-shaped file in
        // generation order and rediscover records. Newest version of
        // each key wins: later files are later generations, and within
        // a file the walk runs in put order.
        let verifier = IsobarCompressor::new(IsobarOptions {
            verify: true,
            ..Default::default()
        });
        struct Candidate {
            step: u32,
            name: String,
            width: u8,
            container: Vec<u8>,
            raw_len: u64,
        }
        let mut candidates: Vec<Candidate> = Vec::new();
        for file in segment_files(input)? {
            let data = std::fs::read(input.join(file))?;
            let anchor = |pos| {
                let (step, name, width, at) = record_header(&data, pos)?;
                let container = &data[at.clone()];
                let Ok(raw) = verifier.decompress(container) else {
                    lost += 1;
                    return None;
                };
                let candidate = Candidate {
                    step,
                    name: name.to_string(),
                    width,
                    container: container.to_vec(),
                    raw_len: raw.len() as u64,
                };
                Some((candidate, at.end))
            };
            let (segments, _) = resync_walk(&data, SEGMENT_HEADER_LEN, |_| false, anchor);
            candidates.extend(segments.into_iter().filter_map(|s| match s {
                Segment::Record { record, .. } => Some(record),
                Segment::Gap { .. } => None,
            }));
        }
        for versions in versions_by_key(candidates.iter().map(|c| (c.step, c.name.as_str()))) {
            let c = &mut candidates[*versions.last().expect("a key has a version")];
            let container = std::mem::take(&mut c.container);
            writer.put_container(c.step, &c.name, c.width, container, c.raw_len)?;
            recovered += 1;
        }
    }
    writer.close()?;
    Ok(StoreSalvageReport {
        entries_recovered: recovered,
        entries_lost: lost,
        index_rebuilt: manifest.is_err(),
    })
}

/// The store record whose header starts at `pos` of segment `data`,
/// parsed in place: `(step, name, width, container range)`. `None`
/// unless the container's magic sits exactly where the header ends,
/// the width is 1..=64 and the container is non-empty and fits; the
/// name's UTF-8 check runs last, so a rejected offset costs O(1).
fn record_header(data: &[u8], pos: usize) -> Option<(u32, &str, u8, Range<usize>)> {
    let name_len = u16::from_le_bytes(data.get(pos..pos + 2)?.try_into().ok()?) as usize;
    let name_end = pos + 2 + name_len;
    let start = name_end + 4 + 1 + 8;
    if data.get(start..start + 4)? != isobar::container::MAGIC {
        return None;
    }
    let step = u32::from_le_bytes(data[name_end..name_end + 4].try_into().ok()?);
    let width = data[name_end + 4];
    let len = u64::from_le_bytes(data[name_end + 5..start].try_into().ok()?);
    if width == 0 || width > 64 || len == 0 || len > (data.len() - start) as u64 {
        return None;
    }
    let name = std::str::from_utf8(&data[pos + 2..name_end]).ok()?;
    Some((step, name, width, start..start + len as usize))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "isobar-store-salvage-{}-{name}",
            std::process::id()
        ))
    }

    fn payload(len: usize, phase: u64) -> Vec<u8> {
        (0..len)
            .map(|i| (((i as u64).wrapping_mul(2654435761) >> (phase % 13)) & 0xFF) as u8)
            .collect()
    }

    #[test]
    fn container_damage_is_reported_and_salvaged_around() {
        let dir = tmp("damaged");
        let out = tmp("damaged-out");
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&out);
        write_demo_v3(&dir, 1);
        let survivor_data = payload(16 * 1024, 7);

        // Flip one byte in the middle of the first entry's container.
        let reader = StoreReader::open(&dir).unwrap();
        let victim = reader.entries()[0].clone();
        let survivor = reader.entries()[1].clone();
        let seg_path = dir.join(reader.segment_file_name(&reader.entries()[0]).unwrap());
        drop(reader);
        let mut bytes = std::fs::read(&seg_path).unwrap();
        bytes[(victim.offset + victim.container_len / 2) as usize] ^= 0x40;
        std::fs::write(&seg_path, &bytes).unwrap();

        let report = fsck_store(&dir).unwrap();
        assert!(!report.is_clean());
        assert!(!report.index_damaged);
        assert_eq!(report.damaged_entries(), 1);
        assert_eq!(report.entries[0].health, EntryHealth::Damaged);
        assert_eq!(report.entries[1].health, EntryHealth::Verified);

        // The verifying reader refuses the damaged entry…
        let reader = StoreReader::open(&dir).unwrap();
        let err = reader.get(victim.step, &victim.name).unwrap_err();
        assert!(err.is_checksum_mismatch(), "got {err}");
        // …but still serves the intact one.
        assert_eq!(
            reader.get(survivor.step, &survivor.name).unwrap(),
            survivor_data
        );
        drop(reader);

        let salvage = salvage_store(&dir, &out).unwrap();
        assert_eq!(salvage.entries_recovered, 1);
        assert_eq!(salvage.entries_lost, 1);
        assert!(!salvage.index_rebuilt);

        let restored = StoreReader::open(&out).unwrap();
        assert_eq!(
            restored.get(survivor.step, &survivor.name).unwrap(),
            survivor_data
        );
        assert!(fsck_store(&out).unwrap().is_clean());
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&out).unwrap();
    }

    #[test]
    fn record_walk_ignores_false_anchors() {
        // A container whose *payload* happens to contain the bytes
        // "ISBR" must not yield a phantom record: the reconstructed
        // header will not parse into a record whose container passes a
        // verifying decompress.
        let dir = tmp("falseanchor");
        let out = tmp("falseanchor-out");
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&out);
        let mut data = payload(16 * 1024, 3);
        data[4096..4100].copy_from_slice(b"ISBR");
        data[8192..8196].copy_from_slice(b"ISBR");
        let writer = ShardedStoreWriter::create(
            &dir,
            IsobarOptions::default(),
            ShardedOptions {
                shards: 1,
                ..Default::default()
            },
        )
        .unwrap();
        writer.put(3, "tricky", data.clone(), 1).unwrap();
        writer.close().unwrap();

        // Break the manifest so salvage must walk records.
        let manifest = dir.join(MANIFEST_FILE);
        let mut bytes = std::fs::read(&manifest).unwrap();
        bytes[0] ^= 0xFF;
        std::fs::write(&manifest, &bytes).unwrap();

        let salvage = salvage_store(&dir, &out).unwrap();
        assert!(salvage.index_rebuilt);
        assert_eq!(salvage.entries_recovered, 1);
        let restored = StoreReader::open(&out).unwrap();
        assert_eq!(restored.get(3, "tricky").unwrap(), data);
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&out).unwrap();
    }

    #[test]
    fn manifest_less_walk_is_linear_on_an_isbr_flood() {
        // A segment of nothing but `ISBR` puts a container magic at
        // every fourth offset. The walk rejects each offset in O(1), so
        // 1 MiB salvages quickly even unoptimized.
        let dir = tmp("isbr-flood");
        let out = tmp("isbr-flood-out");
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&out);
        std::fs::create_dir_all(&dir).unwrap();
        let mut segment = crate::encode_segment_header(0).to_vec();
        segment.extend_from_slice(&b"ISBR".repeat(1 << 18));
        std::fs::write(dir.join("g0000000000000000-s000.seg"), &segment).unwrap();

        let started = std::time::Instant::now();
        let report = salvage_store(&dir, &out).unwrap();
        let elapsed = started.elapsed();
        assert!(elapsed.as_secs_f64() < 2.0, "took {elapsed:?}");
        assert_eq!(
            report,
            StoreSalvageReport {
                entries_recovered: 0,
                entries_lost: 0,
                index_rebuilt: true,
            }
        );
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&out).unwrap();
    }

    #[test]
    fn single_file_stores_are_refused_by_name() {
        let path = tmp("retired.isst");
        std::fs::write(&path, b"ISST\x02 anything").unwrap();
        assert!(matches!(
            StoreReader::open(&path),
            Err(StoreError::SingleFileUnsupported)
        ));
        assert!(matches!(
            fsck_store(&path),
            Err(StoreError::SingleFileUnsupported)
        ));
        let out = tmp("retired-out");
        assert!(matches!(
            salvage_store(&path, &out),
            Err(StoreError::SingleFileUnsupported)
        ));
        assert!(!out.exists(), "a refused salvage creates nothing");
        // Any other regular file is simply not a store; a missing
        // path stays an I/O error.
        std::fs::write(&path, b"ISBR").unwrap();
        assert!(matches!(
            StoreReader::open(&path),
            Err(StoreError::Corrupt("not a store directory"))
        ));
        std::fs::remove_file(&path).unwrap();
        assert!(matches!(StoreReader::open(&path), Err(StoreError::Io(_))));
    }

    fn write_demo_v3(dir: &PathBuf, generations: u32) -> Vec<u8> {
        let mut last = Vec::new();
        for g in 0..generations {
            let writer = ShardedStoreWriter::create(
                dir,
                IsobarOptions::default(),
                ShardedOptions {
                    shards: 2,
                    ..Default::default()
                },
            )
            .unwrap();
            let data = payload(16 * 1024, 1 + g as u64);
            writer.put(0, "density", data.clone(), 8).unwrap();
            writer
                .put(0, "potential", payload(16 * 1024, 7 + g as u64), 8)
                .unwrap();
            writer.close().unwrap();
            last = data;
        }
        last
    }

    #[test]
    fn v3_store_fscks_clean_and_counts_supersedes() {
        let dir = tmp("v3-clean");
        let _ = std::fs::remove_dir_all(&dir);
        write_demo_v3(&dir, 2);
        let report = fsck_store(&dir).unwrap();
        assert!(report.is_clean(), "{report:?}");
        assert!(report
            .entries
            .iter()
            .all(|e| e.health == EntryHealth::Verified));
        assert_eq!(report.entries.len(), 4, "both generations enumerated");
        assert_eq!(report.superseded_entries, 2);
        assert_eq!(report.orphan_files, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn v3_fsck_counts_orphan_droppings() {
        let dir = tmp("v3-orphans");
        let _ = std::fs::remove_dir_all(&dir);
        write_demo_v3(&dir, 1);
        // A crashed writer's droppings: an unreferenced sealed segment
        // and a torn .wip journal.
        std::fs::write(dir.join("g0000000000000007-s000.seg"), b"ISSGx").unwrap();
        std::fs::write(dir.join("g0000000000000007-s001.seg.wip"), b"IS").unwrap();
        let report = fsck_store(&dir).unwrap();
        assert!(report.is_clean(), "orphans are not damage");
        assert_eq!(report.orphan_files, 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn v3_salvage_falls_back_to_superseded_version_of_damaged_entry() {
        let dir = tmp("v3-fallback");
        let out = tmp("v3-fallback-out");
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&out);
        write_demo_v3(&dir, 2);

        // Damage the *live* (generation-1) version of "density" on
        // disk; the generation-0 version should be salvaged instead.
        let reader = StoreReader::open_with_verify(&dir, false).unwrap();
        let positions: Vec<usize> = reader
            .entries()
            .iter()
            .enumerate()
            .filter(|(_, e)| e.name == "density")
            .map(|(at, _)| at)
            .collect();
        assert_eq!(positions.len(), 2);
        let live = reader.entries()[*positions.last().unwrap()].clone();
        let live_seg = reader
            .segment_file_name(&reader.entries()[*positions.last().unwrap()])
            .unwrap()
            .to_string();
        let old = reader.entries()[positions[0]].clone();
        drop(reader);
        let seg_path = dir.join(&live_seg);
        let mut bytes = std::fs::read(&seg_path).unwrap();
        bytes[(live.offset + live.container_len / 2) as usize] ^= 0x40;
        std::fs::write(&seg_path, &bytes).unwrap();

        let report = salvage_store(&dir, &out).unwrap();
        assert!(report.is_complete(), "{report:?}");
        assert_eq!(report.entries_recovered, 2);
        assert!(!report.index_rebuilt);

        let restored = StoreReader::open(&out).unwrap();
        // The salvaged "density" is the generation-0 payload.
        let reader = StoreReader::open_with_verify(&dir, false).unwrap();
        assert_eq!(
            restored.get(0, "density").unwrap(),
            IsobarCompressor::new(IsobarOptions::default())
                .decompress(
                    &reader
                        .get_container(&reader.entries()[positions[0]])
                        .unwrap()
                )
                .unwrap(),
            "fell back to the superseded version at offset {}",
            old.offset
        );
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&out).unwrap();
    }

    #[test]
    fn v3_salvage_rebuilds_from_segments_when_manifest_is_gone() {
        let dir = tmp("v3-nomanifest");
        let out = tmp("v3-nomanifest-out");
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&out);
        let newest_density = write_demo_v3(&dir, 2);
        let segment_files = std::fs::read_dir(&dir)
            .unwrap()
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .file_name()
                    .to_str()
                    .is_some_and(is_segment_file_name)
            })
            .count();
        std::fs::remove_file(dir.join(MANIFEST_FILE)).unwrap();

        let report = fsck_store(&dir).unwrap();
        assert!(report.index_damaged);
        assert_eq!(
            report.orphan_files, segment_files,
            "all segments now unreferenced"
        );

        let salvage = salvage_store(&dir, &out).unwrap();
        assert!(salvage.index_rebuilt);
        assert_eq!(salvage.entries_recovered, 2, "one live version per key");
        assert_eq!(salvage.entries_lost, 0);

        let restored = StoreReader::open(&out).unwrap();
        assert_eq!(
            restored.get(0, "density").unwrap(),
            newest_density,
            "newest generation wins the walk"
        );
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&out).unwrap();
    }
}
