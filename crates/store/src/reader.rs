//! Random-access store reader.

use crate::error::StoreError;
use crate::format::{
    entry_checksum, IndexEntry, CHECKSUM_SEED, MAGIC, MANIFEST_FILE, SEGMENT_TRAILER_LEN,
};
use crate::manifest::{decode_segment_header, Manifest, SegmentMeta};
use isobar::telemetry::Counter;
use isobar::{IsobarCompressor, IsobarOptions, Recorder};
use isobar_codecs::xxhash::xxh64;
use std::fs::File;
use std::io::Read;
#[cfg(not(unix))]
use std::io::{Seek, SeekFrom};
use std::path::Path;

/// One open segment, read by positioned I/O so concurrent
/// [`StoreReader::get`] calls never contend on a shared cursor.
#[derive(Debug)]
struct SegmentHandle {
    #[cfg(unix)]
    file: File,
    #[cfg(not(unix))]
    file: std::sync::Mutex<File>,
}

impl SegmentHandle {
    fn new(file: File) -> SegmentHandle {
        SegmentHandle {
            #[cfg(unix)]
            file,
            #[cfg(not(unix))]
            file: std::sync::Mutex::new(file),
        }
    }

    /// Fill `buf` from `offset` without moving any shared cursor
    /// (`pread` on unix; a locked seek+read elsewhere).
    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> Result<(), StoreError> {
        #[cfg(unix)]
        {
            use std::os::unix::fs::FileExt;
            self.file.read_exact_at(buf, offset)?;
        }
        #[cfg(not(unix))]
        {
            let mut file = self
                .file
                .lock()
                .map_err(|_| StoreError::Corrupt("reader file lock poisoned"))?;
            file.seek(SeekFrom::Start(offset))?;
            file.read_exact(buf)?;
        }
        Ok(())
    }
}

/// Stores are directories. For anything else, say why it cannot be
/// read as one: a leftover single-file (v1/v2) store gets the typed
/// refusal, any other readable file is simply not a store, and a
/// missing path is the I/O error it always was.
pub(crate) fn require_directory(path: &Path) -> Result<(), StoreError> {
    if path.is_dir() {
        return Ok(());
    }
    let mut head = [0u8; MAGIC.len()];
    Err(
        match File::open(path).and_then(|mut file| file.read_exact(&mut head)) {
            Ok(()) if head == MAGIC => StoreError::SingleFileUnsupported,
            Err(e) if e.kind() != std::io::ErrorKind::UnexpectedEof => StoreError::Io(e),
            _ => StoreError::Corrupt("not a store directory"),
        },
    )
}

/// Reads a committed checkpoint store directory with per-variable
/// random access.
///
/// The same `(step, variable)` may appear more than once — later
/// entries supersede earlier ones, and lookups resolve last-wins.
#[derive(Debug)]
pub struct StoreReader {
    segments: Vec<SegmentHandle>,
    /// File name per segment ordinal, for reporting which file holds a
    /// given entry.
    seg_names: Vec<String>,
    index: Vec<IndexEntry>,
    /// Segment ordinal per index entry.
    seg_of: Vec<u16>,
    generation: u64,
    verify: bool,
}

impl StoreReader {
    /// Open a store and load its index, with integrity verification on
    /// (the default — see [`StoreReader::open_with_verify`]).
    pub fn open(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        Self::open_with_verify(path, true)
    }

    /// Open a store directory and load its manifest. A regular file
    /// with the retired single-file store magic is refused with
    /// [`StoreError::SingleFileUnsupported`].
    ///
    /// Every untrusted field is validated before it drives an
    /// allocation or a seek: the claimed segment and entry counts must
    /// fit inside the manifest (each serialized entry is at least
    /// [`MIN_ENTRY_LEN`](crate::MIN_ENTRY_LEN) bytes), every entry's
    /// `[offset, offset + container_len)` range must lie inside its
    /// segment's data region, and every segment file must be exactly
    /// as long as the manifest says.
    ///
    /// With `verify` on (the default via [`StoreReader::open`]), the
    /// manifest additionally has its XXH64 checked before any entry is
    /// parsed, every segment's sealed trailer must agree with the
    /// manifest, and every [`StoreReader::get`] checks the fetched
    /// container's XXH64 against its index entry. Mismatches surface
    /// as [`StoreError::ChecksumMismatch`].
    pub fn open_with_verify(path: impl AsRef<Path>, verify: bool) -> Result<Self, StoreError> {
        let dir = path.as_ref();
        require_directory(dir)?;
        let bytes = std::fs::read(dir.join(MANIFEST_FILE)).map_err(|e| {
            if e.kind() == std::io::ErrorKind::NotFound {
                StoreError::Corrupt("store directory has no manifest (store not committed?)")
            } else {
                StoreError::Io(e)
            }
        })?;
        let manifest = Manifest::decode(&bytes, verify)?;
        let mut segments = Vec::with_capacity(manifest.segments.len());
        for meta in &manifest.segments {
            let file = File::open(dir.join(&meta.file_name))?;
            Self::check_segment(&file, meta, verify)?;
            segments.push(SegmentHandle::new(file));
        }
        let mut index = Vec::with_capacity(manifest.entries.len());
        let mut seg_of = Vec::with_capacity(manifest.entries.len());
        for me in manifest.entries {
            seg_of.push(me.segment);
            index.push(me.entry);
        }
        let seg_names = manifest.segments.into_iter().map(|m| m.file_name).collect();
        Ok(StoreReader {
            segments,
            seg_names,
            index,
            seg_of,
            generation: manifest.generation,
            verify,
        })
    }

    /// Validate one segment file against its manifest row: header
    /// magic and exact length always; the sealed trailer's checksum
    /// and its agreement with the manifest when verifying.
    fn check_segment(file: &File, meta: &SegmentMeta, verify: bool) -> Result<(), StoreError> {
        let handle = SegmentHandle {
            #[cfg(unix)]
            file: file.try_clone()?,
            #[cfg(not(unix))]
            file: std::sync::Mutex::new(file.try_clone()?),
        };
        let file_len = file.metadata()?.len();
        let expected = meta
            .data_len
            .checked_add(SEGMENT_TRAILER_LEN as u64)
            .ok_or(StoreError::Corrupt("segment length overflow"))?;
        if file_len != expected {
            return Err(StoreError::Corrupt(
                "segment length disagrees with manifest",
            ));
        }
        let mut header = [0u8; crate::format::SEGMENT_HEADER_LEN];
        handle.read_exact_at(&mut header, 0)?;
        decode_segment_header(&header)?;
        if verify {
            let mut trailer = [0u8; SEGMENT_TRAILER_LEN];
            handle.read_exact_at(&mut trailer, meta.data_len)?;
            if trailer[20..] != crate::format::SEGMENT_TRAILER_MAGIC {
                return Err(StoreError::Corrupt("missing segment trailer"));
            }
            let stored = u64::from_le_bytes(trailer[12..20].try_into().expect("8 bytes"));
            let actual = xxh64(&trailer[..12], CHECKSUM_SEED);
            if stored != actual {
                return Err(StoreError::ChecksumMismatch {
                    offset: meta.data_len + 12,
                    expected: stored,
                    actual,
                });
            }
            let data_len = u64::from_le_bytes(trailer[..8].try_into().expect("8 bytes"));
            let record_count = u32::from_le_bytes(trailer[8..12].try_into().expect("4 bytes"));
            if data_len != meta.data_len || record_count != meta.record_count {
                return Err(StoreError::Corrupt(
                    "segment trailer disagrees with manifest",
                ));
            }
        }
        Ok(())
    }

    /// [`StoreReader::open`], bumping [`Counter::StoreCorruptRejected`]
    /// in `recorder` when the store is structurally invalid, plus
    /// [`Counter::ChecksumMismatches`] when the damage was caught by an
    /// integrity checksum.
    pub fn open_recorded(
        path: impl AsRef<Path>,
        recorder: &mut Recorder,
    ) -> Result<Self, StoreError> {
        let result = Self::open(path);
        match &result {
            Err(StoreError::Corrupt(_)) => recorder.incr(Counter::StoreCorruptRejected),
            Err(StoreError::ChecksumMismatch { .. }) => {
                recorder.incr(Counter::StoreCorruptRejected);
                recorder.incr(Counter::ChecksumMismatches);
            }
            _ => {}
        }
        result
    }

    /// Generation of the committed manifest.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of segment files backing this store.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// File name of the segment holding `entry`. The entry must come
    /// from this reader's index.
    pub fn segment_file_name(&self, entry: &IndexEntry) -> Result<&str, StoreError> {
        Ok(&self.seg_names[self.segment_of(entry)? as usize])
    }

    /// All index entries, in write order — including entries a later
    /// put has superseded (see [`StoreReader::live_entries`]).
    pub fn entries(&self) -> &[IndexEntry] {
        &self.index
    }

    /// The winning entry per `(step, variable)`: every index entry
    /// that no later entry supersedes, in write order.
    pub fn live_entries(&self) -> Vec<&IndexEntry> {
        let mut seen = std::collections::HashSet::new();
        let mut live: Vec<&IndexEntry> = self
            .index
            .iter()
            .rev()
            .filter(|e| seen.insert((e.step, e.name.as_str())))
            .collect();
        live.reverse();
        live
    }

    /// Entries shadowed by a later put of the same `(step, variable)`.
    pub fn superseded_count(&self) -> usize {
        self.index.len() - self.live_entries().len()
    }

    /// Distinct time steps present, ascending.
    pub fn steps(&self) -> Vec<u32> {
        let mut steps: Vec<u32> = self.index.iter().map(|e| e.step).collect();
        steps.sort_unstable();
        steps.dedup();
        steps
    }

    /// Distinct variable names, in first-appearance order.
    pub fn variables(&self) -> Vec<&str> {
        let mut seen = std::collections::HashSet::new();
        self.index
            .iter()
            .filter(|e| seen.insert(e.name.as_str()))
            .map(|e| e.name.as_str())
            .collect()
    }

    /// Index position of the winning entry for `(step, name)`: the
    /// last match, so later generations supersede earlier ones.
    fn position(&self, step: u32, name: &str) -> Result<usize, StoreError> {
        self.index
            .iter()
            .rposition(|e| e.step == step && e.name == name)
            .ok_or_else(|| StoreError::NotFound {
                step,
                name: name.to_string(),
            })
    }

    /// Locate the (winning) entry for `(step, name)`.
    pub fn entry(&self, step: u32, name: &str) -> Result<&IndexEntry, StoreError> {
        Ok(&self.index[self.position(step, name)?])
    }

    /// Segment ordinal of an entry borrowed from this reader's index.
    /// Falls back to an equality scan for entries that were cloned out.
    fn segment_of(&self, entry: &IndexEntry) -> Result<u16, StoreError> {
        let base = self.index.as_ptr() as usize;
        let p = entry as *const IndexEntry as usize;
        if p >= base {
            let i = (p - base) / std::mem::size_of::<IndexEntry>();
            if i < self.index.len() && std::ptr::eq(&self.index[i], entry) {
                return Ok(self.seg_of[i]);
            }
        }
        self.index
            .iter()
            .position(|e| e == entry)
            .map(|i| self.seg_of[i])
            .ok_or(StoreError::Corrupt("entry does not belong to this store"))
    }

    fn container_at(&self, position: usize) -> Result<Vec<u8>, StoreError> {
        let entry = &self.index[position];
        let segment = &self.segments[self.seg_of[position] as usize];
        let mut container = vec![0u8; entry.container_len as usize];
        segment.read_exact_at(&mut container, entry.offset)?;
        Ok(container)
    }

    /// Read one variable's raw container bytes without decompressing.
    /// Fsck and salvage use this to inspect records directly. The
    /// entry must come from this reader's index.
    pub fn get_container(&self, entry: &IndexEntry) -> Result<Vec<u8>, StoreError> {
        let segment = &self.segments[self.segment_of(entry)? as usize];
        let mut container = vec![0u8; entry.container_len as usize];
        segment.read_exact_at(&mut container, entry.offset)?;
        Ok(container)
    }

    /// Read and decompress one variable (the winning entry, if the
    /// pair was superseded).
    ///
    /// The entry's byte range was validated against its segment's
    /// length at open, so the container allocation here is
    /// bounded by real on-disk bytes. With verification on (the
    /// default), the container's XXH64 is checked against the index
    /// entry before decode. Reads use positioned I/O, so concurrent
    /// `get` calls from many threads do not serialize on a cursor.
    pub fn get(&self, step: u32, name: &str) -> Result<Vec<u8>, StoreError> {
        let _span = isobar::trace::span(isobar::trace::TraceTag::StoreGet, isobar::trace::NO_CHUNK);
        let position = self.position(step, name)?;
        let entry = self.index[position].clone();
        let container = self.container_at(position)?;
        if self.verify {
            let actual = entry_checksum(&container);
            if actual != entry.checksum {
                return Err(StoreError::ChecksumMismatch {
                    offset: entry.offset,
                    expected: entry.checksum,
                    actual,
                });
            }
        }
        let options = IsobarOptions {
            verify: self.verify,
            ..Default::default()
        };
        let data = IsobarCompressor::new(options).decompress(&container)?;
        if data.len() as u64 != entry.raw_len {
            return Err(StoreError::Corrupt("variable length mismatch"));
        }
        Ok(data)
    }

    /// [`StoreReader::get`], bumping [`Counter::StoreCorruptRejected`]
    /// in `recorder` when the stored variable fails to decode, plus
    /// [`Counter::ChecksumMismatches`] when the damage was caught by an
    /// integrity checksum.
    pub fn get_recorded(
        &self,
        step: u32,
        name: &str,
        recorder: &mut Recorder,
    ) -> Result<Vec<u8>, StoreError> {
        let result = self.get(step, name);
        match &result {
            Err(StoreError::Corrupt(_) | StoreError::Isobar(_)) => {
                recorder.incr(Counter::StoreCorruptRejected);
                if matches!(&result, Err(StoreError::Isobar(e)) if e.is_checksum_mismatch()) {
                    recorder.incr(Counter::ChecksumMismatches);
                }
            }
            Err(StoreError::ChecksumMismatch { .. }) => {
                recorder.incr(Counter::StoreCorruptRejected);
                recorder.incr(Counter::ChecksumMismatches);
            }
            _ => {}
        }
        result
    }

    /// Total raw and stored bytes across all live entries: the
    /// store-level compression ratio.
    pub fn overall_ratio(&self) -> f64 {
        let live = self.live_entries();
        let raw: u64 = live.iter().map(|e| e.raw_len).sum();
        let stored: u64 = live.iter().map(|e| e.container_len).sum();
        if stored == 0 {
            1.0
        } else {
            raw as f64 / stored as f64
        }
    }
}
