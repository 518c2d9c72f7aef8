//! The daemon's store engine, factored out of the connection plumbing
//! and generic over [`StoreFs`].
//!
//! [`StoreCore`] owns everything a serve run mutates between commits:
//! the lazily created [`ShardedStoreWriter`], the committed
//! [`StoreReader`], the read-your-writes overlay, and the write-ahead
//! journal ([`WalSet`]) behind the durability contract. The daemon
//! wraps these methods in its mutex, phase clocks, and counters; the
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

use crate::wal::{WalRecord, WalSet};
use isobar::trace::{TraceTag, NO_CHUNK};
use isobar::{IsobarOptions, TelemetrySnapshot};
use isobar_store::{
    RealFs, ShardedOptions, ShardedStoreWriter, StoreError, StoreFs, StoreReader, MANIFEST_FILE,
};
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};

/// Store-side tuning for [`StoreCore`], the subset of `ServeOptions`
/// the engine needs.
#[derive(Debug, Clone)]
pub struct CoreOptions {
    /// Compression options for stored variables.
    pub isobar: IsobarOptions,
    /// Shards per store generation.
    pub shards: u16,
    /// Bounded queue depth between producer and each shard.
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

/// One uncommitted put held for read-your-writes.
pub struct OverlayEntry {
    /// Element width in bytes.
    pub width: u8,
    /// Raw payload.
    pub data: Vec<u8>,
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
    /// or when `open_reader` is off.
    pub reader: Option<StoreReader>,
    /// Read-your-writes cache of uncommitted puts, keyed by
    /// `(step, store key)`.
    pub overlay: BTreeMap<(u32, String), OverlayEntry>,
    /// Bytes held in the overlay.
    pub pending_bytes: u64,
    /// Generation of the last commit this engine performed.
    pub last_generation: Option<u64>,
    wal: Option<WalSet<F>>,
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
            Some(StoreReader::open(&dir)?)
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
            unfed: Vec::new(),
            replay: ReplaySummary::default(),
        };
        if core.opts.wal {
            let _span = isobar::trace::span(TraceTag::ServeWalReplay, NO_CHUNK);
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
    /// durable and the caller may ack. Returns the journaled frame
    /// bytes (0 when the journal is disabled).
    pub fn wal_append(
        &mut self,
        tenant: &str,
        step: u32,
        name: &str,
        width: u8,
        payload: &[u8],
    ) -> io::Result<u64> {
        let Some(wal) = &mut self.wal else {
            return Ok(0);
        };
        let rec = WalRecord {
            tenant: tenant.to_string(),
            step,
            name: name.to_string(),
            width,
            payload: payload.to_vec(),
        };
        Ok(wal.append(&rec)? as u64)
    }

    /// Hand one put to the sharded writer, creating the writer (and
    /// feeding it any WAL-replayed entries) on first use.
    pub fn store_put(
        &mut self,
        step: u32,
        key: &str,
        payload: Vec<u8>,
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
                writer.put(step, &key, entry.data.clone(), usize::from(entry.width))?;
            }
        }
        self.writer = Some(writer);
        Ok(())
    }

    /// Insert one put into the read-your-writes overlay, superseding
    /// any earlier payload for the same `(step, key)`.
    pub fn overlay_insert(&mut self, step: u32, key: String, width: u8, data: Vec<u8>) {
        let len = data.len() as u64;
        if let Some(old) = self
            .overlay
            .insert((step, key), OverlayEntry { width, data })
        {
            self.pending_bytes = self.pending_bytes.saturating_sub(old.data.len() as u64);
        }
        self.pending_bytes += len;
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
            self.reader = Some(StoreReader::open(&self.dir)?);
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

    /// Read one variable: overlay first, committed reader second.
    /// Used by tests and the crash sweep; the daemon keeps its own
    /// phase-attributed copy of this lookup.
    pub fn get(&self, step: u32, key: &str) -> Result<(Vec<u8>, GetSource), StoreError> {
        if let Some(entry) = self.overlay.get(&(step, key.to_string())) {
            return Ok((entry.data.clone(), GetSource::Overlay));
        }
        match &self.reader {
            Some(reader) => Ok((reader.get(step, key)?, GetSource::Committed)),
            None => Err(StoreError::NotFound {
                step,
                name: key.to_string(),
            }),
        }
    }

    /// Whether a writer currently exists (a commit would be non-empty).
    pub fn has_writer(&self) -> bool {
        self.writer.is_some()
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
    fn empty_commit_is_a_no_op() {
        let dir = tmp("empty");
        let mut core = StoreCore::open_real(&dir, opts()).unwrap();
        assert!(core.commit().unwrap().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
