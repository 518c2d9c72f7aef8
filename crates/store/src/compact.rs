//! Compaction of version-3 sharded stores.
//!
//! Generations only ever append: superseding an entry leaves the old
//! record's bytes in place, and a long-running checkpoint cycle
//! accumulates dead data. Compaction rewrites every *live* entry into
//! a fresh generation whose manifest references only the new segments,
//! commits it through the same two-phase protocol as a normal close,
//! and then deletes every file the new manifest does not reference —
//! old segments and any orphans a crashed writer left behind.
//!
//! Records are copied container-for-container (no decompress/
//! recompress round trip), verified against their index checksums on
//! the way through. A crash at any point leaves either the old
//! manifest (with all its segments still present) or the new one — the
//! deletes happen strictly after the manifest swap commits.

use crate::error::StoreError;
use crate::format::{is_segment_file_name, MANIFEST_FILE};
use crate::reader::StoreReader;
use crate::sharded::{ShardedOptions, ShardedStoreWriter};
use isobar::telemetry::{Counter, Recorder};
use isobar::IsobarOptions;
use std::path::{Path, PathBuf};

/// What one compaction pass accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactReport {
    /// Live entries carried into the new generation.
    pub entries_kept: usize,
    /// Superseded entries left behind.
    pub entries_dropped: usize,
    /// Old-generation segments and orphan files deleted after the new
    /// manifest committed.
    pub files_removed: usize,
    /// Bytes of dead record data reclaimed (sum of dropped entries'
    /// containers; directory metadata not counted).
    pub bytes_reclaimed: u64,
}

/// Rewrite the version-3 store at `dir` down to its live entries.
///
/// `shards` controls the new generation's segment count (`None` keeps
/// the default). Returns what was kept, dropped, and reclaimed. Safe
/// against crashes at any point: the new generation commits before any
/// old file is unlinked.
pub fn compact_store(
    dir: impl AsRef<Path>,
    shards: Option<u16>,
) -> Result<CompactReport, StoreError> {
    let mut recorder = Recorder::new();
    compact_store_recorded(dir, shards, &mut recorder)
}

/// [`compact_store`], bumping [`Counter::StoreCompactionsRun`] (and the
/// sharded writer's commit counters) in `recorder`.
pub fn compact_store_recorded(
    dir: impl AsRef<Path>,
    shards: Option<u16>,
    recorder: &mut Recorder,
) -> Result<CompactReport, StoreError> {
    let dir = dir.as_ref();
    let _span = isobar::trace::span(
        isobar::telemetry::Phase::StoreCompact,
        isobar::trace::NO_CHUNK,
    );
    let reader = StoreReader::open(dir)?;
    // Mark each index position live (last entry per (step, name) wins)
    // by identity, so identical-looking duplicates cannot confuse the
    // byte accounting.
    let mut seen = std::collections::HashSet::new();
    let mut live_at = vec![false; reader.entries().len()];
    for (i, e) in reader.entries().iter().enumerate().rev() {
        if seen.insert((e.step, e.name.clone())) {
            live_at[i] = true;
        }
    }
    let live: Vec<_> = reader
        .entries()
        .iter()
        .zip(&live_at)
        .filter(|(_, live)| **live)
        .map(|(e, _)| e.clone())
        .collect();
    let entries_dropped = reader.entries().len() - live.len();
    let bytes_reclaimed: u64 = reader
        .entries()
        .iter()
        .zip(&live_at)
        .filter(|(_, live)| !**live)
        .map(|(e, _)| e.container_len)
        .sum();

    let sharded = ShardedOptions {
        shards: shards.unwrap_or(ShardedOptions::default().shards),
        ..ShardedOptions::default()
    };
    let writer = ShardedStoreWriter::create(dir, IsobarOptions::default(), sharded)?;
    for entry in &live {
        let container = reader.get_container(entry)?;
        writer.put_container(
            entry.step,
            &entry.name,
            entry.width,
            container,
            entry.raw_len,
        )?;
    }
    drop(reader);

    // Commit the compacted generation, then rebuild its manifest to
    // reference only the new segments: close() appends to the prior
    // manifest, so compaction swaps in a pruned one.
    let report = writer.close()?;
    let pruned = prune_manifest_to_generation(dir, report.generation)?;

    // Only now is it safe to unlink: everything the pruned manifest
    // does not reference is dead, including orphans from old crashes.
    let files_removed = sweep_unreferenced(dir, &pruned)?;

    recorder.incr(Counter::StoreCompactionsRun);
    recorder.absorb_snapshot(&report.telemetry);

    Ok(CompactReport {
        entries_kept: live.len(),
        entries_dropped,
        files_removed,
        bytes_reclaimed,
    })
}

/// Drop every manifest row (segment or entry) that predates
/// `generation`, committing the pruned manifest via shadow write +
/// rename. Returns the file names the pruned manifest references.
fn prune_manifest_to_generation(dir: &Path, generation: u64) -> Result<Vec<String>, StoreError> {
    use crate::manifest::{Manifest, ManifestEntry, SegmentMeta};
    use crate::vfs::{RealFs, StoreFile, StoreFs};

    let manifest_path = dir.join(MANIFEST_FILE);
    let manifest = Manifest::decode(&std::fs::read(&manifest_path)?, true)?;
    let keep_prefix = format!("g{generation:016x}-");
    let mut segments: Vec<SegmentMeta> = Vec::new();
    let mut ordinal_map = vec![None::<u16>; manifest.segments.len()];
    for (i, seg) in manifest.segments.iter().enumerate() {
        if seg.file_name.starts_with(&keep_prefix) {
            ordinal_map[i] = Some(segments.len() as u16);
            segments.push(seg.clone());
        }
    }
    let entries: Vec<ManifestEntry> = manifest
        .entries
        .into_iter()
        .filter_map(|me| {
            ordinal_map[me.segment as usize].map(|segment| ManifestEntry {
                segment,
                entry: me.entry,
            })
        })
        .collect();
    let pruned = Manifest {
        generation,
        segments,
        entries,
    };
    let referenced = pruned
        .segments
        .iter()
        .map(|s| s.file_name.clone())
        .collect();

    let fs = RealFs;
    let wip = crate::format::wip_path(&manifest_path);
    {
        let mut file = fs.create(&wip)?;
        file.write_all(&pruned.encode())?;
        file.sync_data()?;
    }
    fs.rename(&wip, &manifest_path)?;
    fs.sync_dir(dir)?;
    Ok(referenced)
}

/// Delete every segment-shaped file (including `.wip` orphans) in
/// `dir` that `referenced` does not name. Returns how many went.
fn sweep_unreferenced(dir: &Path, referenced: &[String]) -> Result<usize, StoreError> {
    let mut removed = 0usize;
    let mut to_remove: Vec<PathBuf> = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if name == MANIFEST_FILE {
            continue;
        }
        let stem = name.strip_suffix(".wip").unwrap_or(name);
        if is_segment_file_name(stem) && !referenced.iter().any(|r| r == name) {
            to_remove.push(entry.path());
        }
    }
    for path in to_remove {
        std::fs::remove_file(&path)?;
        removed += 1;
    }
    if removed > 0 {
        use crate::vfs::StoreFs;
        crate::vfs::RealFs.sync_dir(dir)?;
    }
    Ok(removed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sharded::ShardedOptions;
    use isobar::Preference;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("isobar-compact-{}-{name}", std::process::id()))
    }

    fn options() -> IsobarOptions {
        IsobarOptions {
            preference: Preference::Speed,
            chunk_elements: 10_000,
            ..Default::default()
        }
    }

    fn payload(len: usize, phase: u64) -> Vec<u8> {
        (0..len)
            .map(|i| (((i as u64).wrapping_mul(2654435761) >> (phase % 13)) & 0xFF) as u8)
            .collect()
    }

    #[test]
    fn compaction_drops_superseded_and_sweeps_old_segments() {
        let dir = tmp("drops");
        let _ = std::fs::remove_dir_all(&dir);
        let final_density = payload(16 * 1024, 11);

        // Three generations, each superseding density.
        for phase in [1u64, 5, 11] {
            let writer =
                ShardedStoreWriter::create(&dir, options(), ShardedOptions::default()).unwrap();
            let data = if phase == 11 {
                final_density.clone()
            } else {
                payload(16 * 1024, phase)
            };
            writer.put(0, "density", data, 8).unwrap();
            writer
                .put(phase as u32, "extra", payload(4 * 1024, phase), 8)
                .unwrap();
            writer.close().unwrap();
        }
        let before = StoreReader::open(&dir).unwrap();
        assert_eq!(before.entries().len(), 6);
        assert_eq!(before.superseded_count(), 2);
        let segment_files_before = std::fs::read_dir(&dir).unwrap().count();
        drop(before);

        let report = compact_store(&dir, Some(2)).unwrap();
        assert_eq!(report.entries_kept, 4);
        assert_eq!(report.entries_dropped, 2);
        assert!(report.bytes_reclaimed > 0);
        assert!(report.files_removed > 0);

        let after = StoreReader::open(&dir).unwrap();
        assert_eq!(after.entries().len(), 4);
        assert_eq!(after.superseded_count(), 0);
        assert_eq!(after.get(0, "density").unwrap(), final_density);
        assert_eq!(after.get(1, "extra").unwrap(), payload(4 * 1024, 1));
        assert_eq!(after.get(11, "extra").unwrap(), payload(4 * 1024, 11));
        assert!(
            std::fs::read_dir(&dir).unwrap().count() < segment_files_before,
            "old segments swept"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_sweeps_orphan_wip_files() {
        let dir = tmp("orphans");
        let _ = std::fs::remove_dir_all(&dir);
        let writer =
            ShardedStoreWriter::create(&dir, options(), ShardedOptions::default()).unwrap();
        writer.put(0, "x", payload(8 * 1024, 2), 8).unwrap();
        writer.close().unwrap();
        // Simulate a crashed writer's droppings.
        std::fs::write(dir.join("g00000000000000ff-s000.seg.wip"), b"torn").unwrap();
        std::fs::write(dir.join("g00000000000000fe-s001.seg"), b"orphan").unwrap();

        let report = compact_store(&dir, None).unwrap();
        assert!(report.files_removed >= 2, "orphans swept: {report:?}");
        let reader = StoreReader::open(&dir).unwrap();
        assert_eq!(reader.get(0, "x").unwrap(), payload(8 * 1024, 2));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compacting_a_single_file_store_is_an_error() {
        let path = tmp("notadir.isst");
        let _ = std::fs::remove_file(&path);
        std::fs::write(&path, b"ISST").unwrap();
        assert!(matches!(
            compact_store(&path, None),
            Err(StoreError::SingleFileUnsupported)
        ));
        std::fs::remove_file(&path).unwrap();
    }
}
