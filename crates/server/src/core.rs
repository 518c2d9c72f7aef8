//! The daemon's store engine, factored out of the connection plumbing
//! and generic over [`StoreFs`].
//!
//! [`StoreCore`] owns everything a serve run mutates between commits:
//! the lazily created [`ShardedStoreWriter`], the committed
//! [`StoreReader`], the read-your-writes overlay, and the write-ahead
//! journal ([`WalSet`]) behind the durability contract. The daemon
//! wraps these methods in its mutex, phase clocks, and counters; a
//! read holds the mutex only for [`StoreCore::lookup`], which hands
//! back an owned [`Snapshot`] to read, verify and decode after. The
//! crash-injection harness drives the *same* methods directly over a
//! fault-injecting filesystem, so the sweep exercises byte-for-byte
//! the fs-op sequence a real daemon performs — without a TCP stack in
//! the reproduction loop.
//!
//! # Durable put sequence
//!
//! ```text
//! store_put     — hand the payload to the sharded writer (may fail)
//! wal_append    — journal the record and fsync it     (ack barrier)
//! overlay_insert — make it read-your-writes visible
//! commit        — when over threshold / on shutdown
//! ```
//!
//! The journal append comes *after* the writer put so a put the
//! daemon rejects with `ServerError` is never resurrected by replay;
//! the ack only ever happens after `wal_append` returns, which is the
//! "acked means durable" barrier.
//!
//! # Read-your-writes from the journal
//!
//! An uncommitted put's bytes are already on disk, fsynced in its
//! tenant's journal before the ack, so the overlay does not keep them
//! in memory: `wal_append` records where the frame landed
//! ([`FrameLocation`]) and `overlay_insert` keeps that location, with
//! the width and length `stat` and `ls` need, and drops the payload. A
//! read of the key reads the frame back after the daemon's lock
//! ([`Snapshot::read`]) and verifies it against the checksum it was
//! written with. The sharded writer holds its own reference to a
//! payload only until the put is compressed, so uncommitted puts cost
//! journal space and page cache, not daemon memory.
//!
//! Two kinds of entry still hold their payload ([`PendingBytes::Held`]):
//! puts made with the journal off, which have nothing to read back
//! from, and records replayed from the journal at open, which stay in
//! memory until the next commit.

use crate::daemon::store_key;
use crate::wal::{self, FrameLocation, WalSet};
use isobar::telemetry::Phase;
use isobar::trace::NO_CHUNK;
use isobar::{IsobarOptions, TelemetrySnapshot};
use isobar_store::{
    RealFs, ShardedOptions, ShardedStoreWriter, StoreError, StoreFs, StoreReader, MANIFEST_FILE,
};
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Store-side tuning for [`StoreCore`], the subset of `ServeOptions`
/// the engine needs.
#[derive(Debug, Clone)]
pub struct CoreOptions {
    /// Compression options for stored variables.
    pub isobar: IsobarOptions,
    /// Shards per store generation.
    pub shards: u16,
    /// The sharded writer's queue depth per shard (see
    /// `ShardedOptions::queue_depth`).
    pub queue_depth: usize,
    /// Overlay size that triggers a generation commit.
    pub commit_threshold: u64,
    /// Journal puts (fsync before ack) and replay leftover journals on
    /// open. Off restores the pre-WAL contract: a crash between
    /// commits loses acked-but-uncommitted puts.
    pub wal: bool,
    /// Open the committed [`StoreReader`] view (on open and after each
    /// commit). The reader maps real files, so fault-injecting
    /// filesystems run with this off and verify through a separate
    /// real-fs open.
    pub open_reader: bool,
}

impl Default for CoreOptions {
    fn default() -> Self {
        CoreOptions {
            isobar: IsobarOptions::default(),
            shards: 4,
            queue_depth: 2,
            commit_threshold: 64 << 20,
            wal: true,
            open_reader: true,
        }
    }
}

/// Where an uncommitted put's bytes are.
#[derive(Debug, Clone)]
pub enum PendingBytes {
    /// In its tenant's journal, read back on demand.
    Journal(FrameLocation),
    /// In memory, shared so a read takes it without a copy: a put made
    /// with the journal off, or a record replayed at open.
    Held(Arc<Vec<u8>>),
}

/// One uncommitted put, kept for read-your-writes. A clone copies a
/// location or shares a held payload.
#[derive(Debug, Clone)]
pub struct OverlayEntry {
    /// Element width in bytes.
    pub width: u8,
    /// Payload length in bytes.
    pub raw_len: u64,
    /// Where the payload is.
    pub bytes: PendingBytes,
}

impl OverlayEntry {
    /// The payload of `(step, key)`: the held copy, or the journal
    /// frame read back and checked to be this put's.
    fn payload<F: StoreFs>(
        &self,
        fs: &F,
        step: u32,
        key: &str,
    ) -> Result<Arc<Vec<u8>>, StoreError> {
        match &self.bytes {
            PendingBytes::Held(data) => Ok(Arc::clone(data)),
            PendingBytes::Journal(at) => {
                let rec = wal::read_put(fs, at)?;
                let same = rec.step == step
                    && rec.width == self.width
                    && rec.payload.len() as u64 == self.raw_len
                    && store_key(&rec.tenant, &rec.name) == key;
                if !same {
                    return Err(StoreError::Corrupt("journal frame holds another put"));
                }
                Ok(Arc::new(rec.payload))
            }
        }
    }
}

/// What one read of a `(step, key)` resolved to: owned, so the caller
/// can drop its lock before reading.
pub enum Snapshot<F> {
    /// An uncommitted put, with the filesystem its journal is read
    /// through.
    Overlay(OverlayEntry, F),
    /// The committed view at lookup time. A later commit swaps in a
    /// new reader; this one stays valid, because a committed segment
    /// is never rewritten or deleted.
    Committed(Arc<StoreReader>),
}

impl<F: StoreFs> Snapshot<F> {
    /// The variable's bytes: the overlay payload, or the committed one
    /// read, verified and decoded now.
    ///
    /// A journal frame that does not read back is asked about through
    /// `retired`, which the caller answers under its lock with
    /// [`StoreCore::committed_since`]. A commit since the lookup may
    /// have retired the frame's journal (and the next put re-created
    /// the file, with another record at the same offset); the put is
    /// then in the committed view that commit opened, and is read from
    /// there. Otherwise the frame is damaged and its error stands.
    pub fn read(
        self,
        step: u32,
        key: &str,
        retired: impl FnOnce(&FrameLocation) -> Option<Arc<StoreReader>>,
    ) -> Result<Arc<Vec<u8>>, StoreError> {
        match self {
            Snapshot::Overlay(entry, fs) => match entry.payload(&fs, step, key) {
                Err(e) => {
                    let PendingBytes::Journal(at) = &entry.bytes else {
                        return Err(e);
                    };
                    match retired(at) {
                        Some(reader) => Ok(Arc::new(reader.get(step, key)?)),
                        None => Err(e),
                    }
                }
                read => read,
            },
            Snapshot::Committed(reader) => Ok(Arc::new(reader.get(step, key)?)),
        }
    }
}

/// The frame of the last journaled put, as `wal_append` recorded it.
struct Journaled {
    step: u32,
    key: String,
    width: u8,
    raw_len: u64,
    at: FrameLocation,
}

/// What journal replay found on open.
#[derive(Debug, Default, Clone)]
pub struct ReplaySummary {
    /// Records replayed into the overlay.
    pub records: u64,
    /// Journal files found.
    pub files: u64,
    /// Bytes dropped by torn-tail / corruption resync.
    pub skipped_bytes: u64,
}

/// What a generation commit produced.
#[derive(Debug, Clone)]
pub struct CommitOutcome {
    /// Generation number the manifest now carries.
    pub generation: u64,
    /// Telemetry from the closed writer's codec/I/O threads.
    pub telemetry: TelemetrySnapshot,
    /// Journal files retired now that their records are committed.
    pub wal_truncated: u64,
}

/// Where a [`StoreCore::get`] was answered from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GetSource {
    /// The uncommitted overlay (possibly WAL-replayed).
    Overlay,
    /// The committed reader.
    Committed,
}

/// The serve store engine: writer + reader + overlay + journal.
pub struct StoreCore<F: StoreFs + Clone>
where
    F::File: 'static,
{
    fs: F,
    dir: PathBuf,
    opts: CoreOptions,
    writer: Option<ShardedStoreWriter<F>>,
    /// Committed view; `None` before the first commit of a fresh store
    /// or when `open_reader` is off. A commit swaps in a new `Arc`.
    pub reader: Option<Arc<StoreReader>>,
    /// Read-your-writes index of uncommitted puts, keyed by
    /// `(step, store key)`.
    pub overlay: BTreeMap<(u32, String), OverlayEntry>,
    /// Raw bytes of the puts in the overlay, held or journaled.
    pub pending_bytes: u64,
    /// Generation of the last commit this engine performed.
    pub last_generation: Option<u64>,
    wal: Option<WalSet<F>>,
    /// The last `wal_append`'s frame, until `overlay_insert` takes it.
    journaled: Option<Journaled>,
    /// Keys replayed from the journal that no writer has seen yet;
    /// fed from the overlay when the next writer is created so they
    /// land in the next generation commit.
    unfed: Vec<(u32, String)>,
    /// What journal replay found when this engine opened.
    pub replay: ReplaySummary,
}

impl<F: StoreFs + Clone> StoreCore<F>
where
    F::File: 'static,
{
    /// Open the engine on `dir`: create the directory, open the
    /// committed view when one exists, and replay any leftover
    /// write-ahead journal into the overlay.
    pub fn open(fs: F, dir: impl AsRef<Path>, opts: CoreOptions) -> Result<Self, StoreError> {
        let dir = dir.as_ref().to_path_buf();
        fs.create_dir_all(&dir)?;
        let reader = if opts.open_reader && dir.join(MANIFEST_FILE).exists() {
            Some(Arc::new(StoreReader::open(&dir)?))
        } else {
            None
        };
        let mut core = StoreCore {
            fs: fs.clone(),
            dir: dir.clone(),
            opts,
            writer: None,
            reader,
            overlay: BTreeMap::new(),
            pending_bytes: 0,
            last_generation: None,
            wal: None,
            journaled: None,
            unfed: Vec::new(),
            replay: ReplaySummary::default(),
        };
        if core.opts.wal {
            let _span = isobar::trace::span(Phase::WalReplay, NO_CHUNK);
            let (wal, replay) = WalSet::open(fs, &dir)?;
            core.replay = ReplaySummary {
                records: replay.records.len() as u64,
                files: replay.files,
                skipped_bytes: replay.skipped_bytes,
            };
            for rec in replay.records {
                let key = crate::daemon::store_key(&rec.tenant, &rec.name);
                core.unfed.push((rec.step, key.clone()));
                core.overlay_insert(rec.step, key, rec.width, rec.payload);
            }
            // A key journaled twice (client retry, or a pre-crash
            // supersede) replays twice; the overlay keeps last-wins
            // and the writer feed below reads from the overlay, so
            // dedupe the feed list.
            core.unfed.sort();
            core.unfed.dedup();
            core.wal = Some(wal);
        }
        Ok(core)
    }

    /// Journal one put and fsync it. Once this returns the record is
    /// durable and the caller may ack. Records where the frame landed,
    /// for the `overlay_insert` of the same put. Returns the journaled
    /// frame bytes (0 when the journal is disabled).
    pub fn wal_append(
        &mut self,
        tenant: &str,
        step: u32,
        name: &str,
        width: u8,
        payload: &[u8],
    ) -> io::Result<u64> {
        self.journaled = None;
        let Some(wal) = &mut self.wal else {
            return Ok(0);
        };
        let appended = wal.append_put(tenant, step, name, width, payload)?;
        self.journaled = appended.at.map(|at| Journaled {
            step,
            key: store_key(tenant, name),
            width,
            raw_len: payload.len() as u64,
            at,
        });
        Ok(appended.frame_len as u64)
    }

    /// Hand one put to the sharded writer, creating the writer (and
    /// feeding it any WAL-replayed entries) on first use.
    pub fn store_put(
        &mut self,
        step: u32,
        key: &str,
        payload: impl Into<Arc<Vec<u8>>>,
        width: usize,
    ) -> Result<(), StoreError> {
        self.ensure_writer()?;
        let writer = self.writer.as_ref().expect("writer just created");
        writer.put(step, key, payload, width)
    }

    fn ensure_writer(&mut self) -> Result<(), StoreError> {
        if self.writer.is_some() {
            return Ok(());
        }
        let writer = ShardedStoreWriter::create_in(
            self.fs.clone(),
            &self.dir,
            self.opts.isobar,
            ShardedOptions {
                shards: self.opts.shards,
                queue_depth: self.opts.queue_depth,
            },
        )?;
        // Replayed journal records exist only in the overlay until a
        // writer carries them into a generation.
        for (step, key) in std::mem::take(&mut self.unfed) {
            if let Some(entry) = self.overlay.get(&(step, key.clone())) {
                let data = entry.payload(&self.fs, step, &key)?;
                writer.put(step, &key, data, usize::from(entry.width))?;
            }
        }
        self.writer = Some(writer);
        Ok(())
    }

    /// Insert one put into the read-your-writes overlay, superseding
    /// any earlier payload for the same `(step, key)`. After a
    /// [`StoreCore::wal_append`] of the same put the entry keeps the
    /// frame's location and `data` is dropped; otherwise it holds
    /// `data` (passing the `Arc` given to [`StoreCore::store_put`]
    /// shares one copy).
    pub fn overlay_insert(
        &mut self,
        step: u32,
        key: String,
        width: u8,
        data: impl Into<Arc<Vec<u8>>>,
    ) {
        let data = data.into();
        let raw_len = data.len() as u64;
        let bytes = match self.journaled.take() {
            Some(j) if (j.step, &j.key, j.width, j.raw_len) == (step, &key, width, raw_len) => {
                PendingBytes::Journal(j.at)
            }
            _ => PendingBytes::Held(data),
        };
        let entry = OverlayEntry {
            width,
            raw_len,
            bytes,
        };
        if let Some(old) = self.overlay.insert((step, key), entry) {
            self.pending_bytes = self.pending_bytes.saturating_sub(old.raw_len);
        }
        self.pending_bytes += raw_len;
    }

    /// Whether the overlay has crossed the commit threshold.
    pub fn over_threshold(&self) -> bool {
        self.pending_bytes >= self.opts.commit_threshold
    }

    /// Commit the current generation: two-phase writer close, journal
    /// truncation, reader reopen, overlay drain. `Ok(None)` means
    /// nothing was pending. On error the engine must be considered
    /// poisoned by the caller — the journal is only truncated after a
    /// successful close, so acked puts survive the failure.
    pub fn commit(&mut self) -> Result<Option<CommitOutcome>, StoreError> {
        if self.writer.is_none() {
            if self.unfed.is_empty() {
                return Ok(None);
            }
            // Replayed entries with no subsequent put still need a
            // generation of their own (e.g. replay directly into
            // shutdown).
            self.ensure_writer()?;
        }
        let writer = self.writer.take().expect("checked above");
        let report = writer.close()?;
        self.last_generation = Some(report.generation);
        // The manifest now owns every journaled put; retire the
        // journal before reopening the reader so a crash in between
        // replays nothing stale.
        let wal_truncated = match &mut self.wal {
            Some(wal) => wal.truncate()?,
            None => 0,
        };
        if self.opts.open_reader {
            self.reader = Some(Arc::new(StoreReader::open(&self.dir)?));
        }
        self.pending_bytes = 0;
        self.overlay.clear();
        self.unfed.clear();
        Ok(Some(CommitOutcome {
            generation: report.generation,
            telemetry: report.telemetry,
            wal_truncated,
        }))
    }

    /// Resolve a read of `(step, key)`: the overlay first, the
    /// committed reader second, `NotFound` when there is neither. A map
    /// probe and a pointer clone, so it is all a read does under the
    /// daemon's lock.
    pub fn lookup(&self, step: u32, key: &str) -> Result<Snapshot<F>, StoreError> {
        if let Some(entry) = self.overlay.get(&(step, key.to_string())) {
            return Ok(Snapshot::Overlay(entry.clone(), self.fs.clone()));
        }
        let reader = self.reader.clone().ok_or_else(|| StoreError::NotFound {
            step,
            name: key.to_string(),
        })?;
        Ok(Snapshot::Committed(reader))
    }

    /// Read one variable through [`StoreCore::lookup`].
    pub fn get(&self, step: u32, key: &str) -> Result<(Vec<u8>, GetSource), StoreError> {
        let snapshot = self.lookup(step, key)?;
        let source = match snapshot {
            Snapshot::Overlay(..) => GetSource::Overlay,
            Snapshot::Committed(_) => GetSource::Committed,
        };
        let data = snapshot.read(step, key, |at| self.committed_since(at))?;
        Ok((Arc::unwrap_or_clone(data), source))
    }

    /// For a journal frame that did not read back: the committed view,
    /// when a commit has retired the frame's journal since the lookup
    /// (that commit made the put committed first). `None` while the
    /// journal is live: the frame itself is at fault.
    pub fn committed_since(&self, at: &FrameLocation) -> Option<Arc<StoreReader>> {
        let live = self.wal.as_ref().is_some_and(|wal| wal.holds(at));
        if live {
            None
        } else {
            self.reader.clone()
        }
    }

    /// Whether a commit would do anything: a live writer, or replayed
    /// journal entries still waiting for a generation of their own.
    pub fn has_pending(&self) -> bool {
        self.writer.is_some() || !self.unfed.is_empty()
    }
}

impl StoreCore<RealFs> {
    /// [`StoreCore::open`] on the real filesystem.
    pub fn open_real(dir: impl AsRef<Path>, opts: CoreOptions) -> Result<Self, StoreError> {
        Self::open(RealFs, dir, opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("isobar-core-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn opts() -> CoreOptions {
        CoreOptions {
            shards: 2,
            queue_depth: 2,
            commit_threshold: 1 << 20,
            ..CoreOptions::default()
        }
    }

    fn durable_put(core: &mut StoreCore<RealFs>, step: u32, name: &str, payload: &[u8]) {
        core.store_put(step, name, payload.to_vec(), 8).unwrap();
        core.wal_append("", step, name, 8, payload).unwrap();
        core.overlay_insert(step, name.to_string(), 8, payload.to_vec());
    }

    #[test]
    fn acked_puts_survive_a_drop_without_commit() {
        let dir = tmp("replay");
        let mut core = StoreCore::open_real(&dir, opts()).unwrap();
        durable_put(&mut core, 0, "alpha", &[1; 512]);
        durable_put(&mut core, 1, "beta", &[2; 256]);
        // Simulate a crash: drop without commit. The un-closed writer
        // aborts its segments; only the journal survives.
        drop(core);

        let mut core = StoreCore::open_real(&dir, opts()).unwrap();
        assert_eq!(core.replay.records, 2);
        assert_eq!(core.get(0, "alpha").unwrap().0, vec![1; 512]);
        assert_eq!(core.get(1, "beta").unwrap().0, vec![2; 256]);
        // Replay directly into shutdown must still commit a generation.
        let outcome = core.commit().unwrap().expect("replayed entries pending");
        assert!(outcome.wal_truncated >= 1);
        drop(core);

        // After the commit the journal is gone and the data is in the
        // committed store.
        let core = StoreCore::open_real(&dir, opts()).unwrap();
        assert_eq!(core.replay.records, 0);
        assert_eq!(core.replay.files, 0);
        let (data, source) = core.get(0, "alpha").unwrap();
        assert_eq!(data, vec![1; 512]);
        assert_eq!(source, GetSource::Committed);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn commit_truncates_journal_and_supersede_keeps_last_write() {
        let dir = tmp("truncate");
        let mut core = StoreCore::open_real(&dir, opts()).unwrap();
        durable_put(&mut core, 0, "v", &[1; 104]);
        durable_put(&mut core, 0, "v", &[9; 80]);
        assert_eq!(core.pending_bytes, 80);
        let outcome = core.commit().unwrap().expect("pending put");
        assert_eq!(outcome.wal_truncated, 1);
        assert!(core.overlay.is_empty());
        drop(core);

        let core = StoreCore::open_real(&dir, opts()).unwrap();
        assert_eq!(core.replay.records, 0);
        assert_eq!(core.get(0, "v").unwrap().0, vec![9; 80]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wal_off_restores_the_old_contract() {
        let dir = tmp("no-wal");
        let mut core = StoreCore::open_real(
            &dir,
            CoreOptions {
                wal: false,
                ..opts()
            },
        )
        .unwrap();
        assert_eq!(core.wal_append("", 0, "v", 8, &[1; 10]).unwrap(), 0);
        core.store_put(0, "v", vec![1; 10], 8).unwrap();
        core.overlay_insert(0, "v".to_string(), 8, vec![1; 10]);
        drop(core);
        let core = StoreCore::open_real(&dir, opts()).unwrap();
        assert_eq!(core.replay.records, 0);
        assert!(core.get(0, "v").is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_committed_snapshot_still_decodes_after_two_more_commits() {
        let dir = tmp("snapshot");
        let mut core = StoreCore::open_real(&dir, opts()).unwrap();
        let field = |amplitude: f64| -> Vec<u8> {
            (0..4096)
                .flat_map(|i| ((f64::from(i) * 0.01).sin() * amplitude).to_le_bytes())
                .collect()
        };
        durable_put(&mut core, 0, "v", &field(1.0));
        let first = core.commit().unwrap().expect("pending put").generation;
        let Ok(Snapshot::Committed(snapshot)) = core.lookup(0, "v") else {
            panic!("a committed key must resolve to the committed reader");
        };
        for step in 1..3 {
            durable_put(&mut core, 0, "v", &field(f64::from(step) + 1.0));
            durable_put(&mut core, step, "w", &field(-1.0));
            core.commit().unwrap().expect("pending puts");
        }
        // The snapshot still reads its own generation, bit-exact, while
        // the engine has moved two generations on.
        assert_eq!(snapshot.generation(), first);
        assert_eq!(snapshot.get(0, "v").unwrap(), field(1.0));
        assert!(matches!(
            snapshot.get(1, "w"),
            Err(StoreError::NotFound { .. })
        ));
        assert_eq!(
            core.get(0, "v").unwrap(),
            (field(3.0), GetSource::Committed)
        );
        assert_eq!(core.last_generation, Some(first + 2));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The one journal file in `dir`.
    fn journal_file(dir: &Path) -> PathBuf {
        let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
            .unwrap()
            .map(|entry| entry.unwrap().path())
            .filter(|path| {
                let name = path.file_name().and_then(|n| n.to_str());
                name.is_some_and(crate::wal::is_wal_file_name)
            })
            .collect();
        assert_eq!(files.len(), 1, "one tenant, one journal");
        files.pop().unwrap()
    }

    #[test]
    fn an_acked_put_reads_back_from_the_journal_bit_exact() {
        let dir = tmp("journal-read");
        let mut core = StoreCore::open_real(&dir, opts()).unwrap();
        let payload: Vec<u8> = (0..40_000u32).map(|i| (i * 7 + i / 251) as u8).collect();
        durable_put(&mut core, 3, "v", &payload);
        let entry = &core.overlay[&(3, "v".to_string())];
        assert!(matches!(entry.bytes, PendingBytes::Journal(_)));
        assert_eq!((entry.width, entry.raw_len), (8, payload.len() as u64));
        assert_eq!(core.pending_bytes, payload.len() as u64);
        assert_eq!(
            core.get(3, "v").unwrap(),
            (payload.clone(), GetSource::Overlay)
        );
        // A snapshot reads the same bytes once the lookup is over.
        let snapshot = core.lookup(3, "v").unwrap();
        let data = snapshot.read(3, "v", |_| unreachable!()).unwrap();
        assert_eq!(*data, payload);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_old_snapshot_never_returns_the_record_that_reuses_its_frame() {
        let dir = tmp("journal-reuse");
        let mut core = StoreCore::open_real(&dir, opts()).unwrap();
        let (first, second) = (vec![1u8; 4096], vec![2u8; 4096]);
        durable_put(&mut core, 0, "v", &first);
        let before_commit = core.lookup(0, "v").unwrap();
        let before_reput = core.lookup(0, "v").unwrap();
        let Snapshot::Overlay(entry, _) = &before_commit else {
            panic!("an uncommitted put resolves to the overlay");
        };
        let PendingBytes::Journal(at) = entry.bytes.clone() else {
            panic!("a journaled put keeps its location");
        };
        core.commit().unwrap().expect("pending put");
        // The journal is gone: the read falls back to the committed copy.
        let data = before_commit
            .read(0, "v", |at| core.committed_since(at))
            .unwrap();
        assert_eq!(*data, first);
        // The same key again, the same length: the re-created journal
        // holds the new record at the old frame's offset.
        durable_put(&mut core, 0, "v", &second);
        let Snapshot::Overlay(entry, _) = core.lookup(0, "v").unwrap() else {
            panic!("an uncommitted put resolves to the overlay");
        };
        let PendingBytes::Journal(now) = entry.bytes else {
            panic!("a journaled put keeps its location");
        };
        assert_eq!(
            (now.path.clone(), now.offset, now.len),
            (at.path.clone(), at.offset, at.len)
        );
        assert_ne!(now.file, at.file);
        assert!(matches!(
            crate::wal::read_put(&RealFs, &at),
            Err(StoreError::ChecksumMismatch { .. })
        ));
        let data = before_reput
            .read(0, "v", |at| core.committed_since(at))
            .unwrap();
        assert_eq!(*data, first, "the committed copy, not the new record");
        assert_eq!(core.get(0, "v").unwrap(), (second, GetSource::Overlay));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_bit_flipped_frame_under_a_live_entry_is_a_typed_error() {
        let dir = tmp("journal-flip");
        let mut core = StoreCore::open_real(&dir, opts()).unwrap();
        // An older copy is committed: a damaged frame of the live put
        // must not fall back to it.
        durable_put(&mut core, 0, "v", &[4; 1000]);
        core.commit().unwrap().expect("pending put");
        durable_put(&mut core, 0, "v", &[5; 1000]);
        let path = journal_file(&dir);
        let mut bytes = std::fs::read(&path).unwrap();
        let at = bytes.len() - 100;
        bytes[at] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            core.get(0, "v"),
            Err(StoreError::ChecksumMismatch { .. })
        ));
        // A cut frame is an error too, not a short payload.
        std::fs::write(&path, &bytes[..at]).unwrap();
        assert!(matches!(core.get(0, "v"), Err(StoreError::Io(_))));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn without_the_journal_the_overlay_holds_the_payload() {
        let dir = tmp("held");
        let mut core = StoreCore::open_real(
            &dir,
            CoreOptions {
                wal: false,
                ..opts()
            },
        )
        .unwrap();
        durable_put(&mut core, 0, "v", &[7; 300]);
        let entry = &core.overlay[&(0, "v".to_string())];
        assert!(matches!(&entry.bytes, PendingBytes::Held(data) if **data == [7; 300]));
        assert_eq!(
            core.get(0, "v").unwrap(),
            (vec![7; 300], GetSource::Overlay)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_commit_is_a_no_op() {
        let dir = tmp("empty");
        let mut core = StoreCore::open_real(&dir, opts()).unwrap();
        assert!(core.commit().unwrap().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
