//! The store writer: sharded, concurrent, with overlapped codec and
//! I/O.
//!
//! In-situ checkpointing must not serialize compression and disk
//! writes behind one cursor. [`ShardedStoreWriter`] owns a store
//! *directory*: each shard is an independent segment file with its own two-stage
//! pipeline — a codec thread running the ISOBAR pipeline and an I/O
//! thread appending records — connected by a bounded (double-buffered)
//! queue, so shard `k`'s compression of variable `n+1` overlaps the
//! `write`/`fdatasync` of variable `n`, and different shards never
//! contend at all.
//!
//! # Two-phase commit protocol
//!
//! Segments and the manifest are journaled as `<name>.wip` shadow
//! files that no reader opens, and only take their final names once
//! durable:
//!
//! 1. every shard's records append to `g<gen>-s<shard>.seg.wip`. The
//!    I/O thread group-commits: whenever its queue drains (the codec
//!    stage is the bottleneck) it `fdatasync`s the backlog, hiding the
//!    flush behind compression of the next record;
//! 2. at close, each I/O thread seals its segment — trailer append,
//!    then a final `fdatasync` covering the residue — so every record
//!    a manifest could reference is durable before any manifest
//!    exists. Shards are disconnected and joined one at a time, in
//!    shard order, so the seals reach the filesystem in a fixed order
//!    (the crash sweep holds every killed rerun to one recorded
//!    operation stream); a shard's queued records still drain while
//!    an earlier shard seals;
//! 3. **phase 1**: each sealed `.wip` is renamed to its final segment
//!    name and the directory is fsynced. Segment names embed the
//!    generation, so these renames can never clobber a committed file;
//! 4. **phase 2**: the new manifest (prior generation's segment table
//!    and index, plus this writer's) is written to `MANIFEST.wip`,
//!    fsynced, renamed over `MANIFEST`, and the directory is fsynced.
//!
//! The manifest rename is the single commit point. A crash before it
//! leaves the committed store untouched — at worst orphan segments or
//! `.wip` files that no manifest references, which fsck reports and
//! compaction sweeps. A crash after it leaves the new store fully
//! committed. The crash-injection harness in `isobar-fuzz-harness`
//! proves the old-or-new invariant at every fs-op boundary of this
//! protocol.
//!
//! # Append and supersede semantics
//!
//! Opening an existing store directory appends a new generation:
//! committed segments are never rewritten, the new manifest simply
//! references them alongside the fresh ones. Re-putting an existing
//! `(step, variable)` is not an error — the later entry supersedes the
//! earlier one (readers resolve last-wins) and compaction reclaims the
//! dead bytes.

use crate::error::StoreError;
use crate::format::{
    encode_record_header, entry_checksum, segment_file_name, wip_path, IndexEntry, MANIFEST_FILE,
    SEGMENT_HEADER_LEN,
};
use crate::manifest::{
    encode_segment_header, encode_segment_trailer, Manifest, ManifestEntry, SegmentMeta,
};
use crate::vfs::{RealFs, StoreFile, StoreFs};
use isobar::telemetry::Counter;
use isobar::{IsobarCompressor, IsobarOptions, PipelineScratch, Recorder, TelemetrySnapshot};
use isobar_codecs::xxhash::xxh64;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TryRecvError};
use std::thread::JoinHandle;

/// Concurrency knobs for a [`ShardedStoreWriter`]. See `docs/STORE.md`
/// for tuning guidance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardedOptions {
    /// Number of independent segment writers. Each shard costs two
    /// threads (codec + I/O) and one open file.
    pub shards: u16,
    /// Bounded depth of each shard's producer→codec and codec→I/O
    /// queues. 1 is a classic double buffer (compress `n+1` while
    /// writing `n`); deeper queues absorb burstier producers.
    pub queue_depth: usize,
}

impl Default for ShardedOptions {
    fn default() -> Self {
        ShardedOptions {
            shards: 4,
            queue_depth: 2,
        }
    }
}

/// What a committed generation looks like, returned by
/// [`ShardedStoreWriter::close`].
#[derive(Debug, Clone)]
pub struct ShardedCommitReport {
    /// Generation number the manifest now carries.
    pub generation: u64,
    /// Segment files newly committed by this writer (empty shards are
    /// discarded, not committed).
    pub segments_committed: usize,
    /// Entries this writer appended, in put order (offsets are
    /// segment-relative).
    pub new_entries: Vec<IndexEntry>,
    /// Total entries in the committed manifest, including prior
    /// generations and superseded ones.
    pub total_entries: usize,
    /// Entries in the committed manifest shadowed by a later put of
    /// the same `(step, variable)`.
    pub superseded_entries: usize,
    /// Merged telemetry from every shard plus the commit itself.
    pub telemetry: TelemetrySnapshot,
}

enum ShardJob {
    Compress {
        seq: u64,
        step: u32,
        name: String,
        data: Vec<u8>,
        width: usize,
    },
    Raw {
        seq: u64,
        step: u32,
        name: String,
        width: u8,
        container: Vec<u8>,
        raw_len: u64,
    },
}

struct Prepared {
    seq: u64,
    step: u32,
    name: String,
    width: u8,
    container: Vec<u8>,
    raw_len: u64,
}

struct SealedSegment {
    /// Offset at which the trailer begins (header + records).
    data_len: u64,
    record_count: u32,
    entries: Vec<(u64, IndexEntry)>,
}

struct ShardPipe {
    tx: Option<SyncSender<ShardJob>>,
    codec: Option<JoinHandle<Result<TelemetrySnapshot, StoreError>>>,
    io: Option<JoinHandle<Result<SealedSegment, StoreError>>>,
    wip: PathBuf,
    final_name: String,
}

/// Concurrent multi-writer checkpoint store over a version-3 sharded
/// directory. See the module docs for the commit protocol.
///
/// `put` takes `&self`, so one writer can be shared across producer
/// threads; every put routes to a shard by `(step, variable)` hash and
/// flows through that shard's codec→I/O pipeline.
///
/// # Example
///
/// ```no_run
/// use isobar_store::{ShardedOptions, ShardedStoreWriter, StoreReader};
/// use isobar::IsobarOptions;
///
/// # fn demo(density: &[u8]) -> Result<(), isobar_store::StoreError> {
/// let writer = ShardedStoreWriter::create(
///     "run.isst.d",
///     IsobarOptions::default(),
///     ShardedOptions { shards: 4, queue_depth: 2 },
/// )?;
/// writer.put(0, "density", density.to_vec(), 8)?;
/// let report = writer.close()?;
/// assert_eq!(report.new_entries.len(), 1);
///
/// let reader = StoreReader::open("run.isst.d")?;
/// assert_eq!(reader.get(0, "density")?, density);
/// # Ok(()) }
/// ```
pub struct ShardedStoreWriter<F: StoreFs = RealFs>
where
    F::File: 'static,
{
    fs: F,
    dir: PathBuf,
    generation: u64,
    prior: Manifest,
    pipes: Vec<ShardPipe>,
    seq: AtomicU64,
    committed: bool,
}

impl ShardedStoreWriter<RealFs> {
    /// Create (or append a new generation to) the version-3 store
    /// directory at `dir`; the generation commits on
    /// [`ShardedStoreWriter::close`].
    pub fn create(
        dir: impl AsRef<Path>,
        options: IsobarOptions,
        sharded: ShardedOptions,
    ) -> Result<Self, StoreError> {
        Self::create_in(RealFs, dir, options, sharded)
    }
}

impl<F: StoreFs> ShardedStoreWriter<F>
where
    F::File: 'static,
{
    /// [`ShardedStoreWriter::create`] on an explicit filesystem.
    pub fn create_in(
        fs: F,
        dir: impl AsRef<Path>,
        options: IsobarOptions,
        sharded: ShardedOptions,
    ) -> Result<Self, StoreError> {
        let dir = dir.as_ref().to_path_buf();
        fs.create_dir_all(&dir)?;
        let (prior, generation) = match fs.read_file(&dir.join(MANIFEST_FILE)) {
            Ok(bytes) => {
                let prior = Manifest::decode(&bytes, true)?;
                let generation = prior
                    .generation
                    .checked_add(1)
                    .ok_or(StoreError::Corrupt("store generation overflow"))?;
                (prior, generation)
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => (Manifest::default(), 0),
            Err(e) => return Err(e.into()),
        };

        let shards = sharded.shards.max(1);
        let queue_depth = sharded.queue_depth.max(1);
        let mut pipes = Vec::with_capacity(shards as usize);
        for shard in 0..shards {
            let final_name = segment_file_name(generation, shard);
            let wip = wip_path(&dir.join(&final_name));
            let mut file = fs.create(&wip)?;
            file.write_all(&encode_segment_header(shard))?;

            let (tx, codec_rx) = sync_channel::<ShardJob>(queue_depth);
            let (io_tx, io_rx) = sync_channel::<Prepared>(queue_depth);
            let codec_options = options;
            let codec = std::thread::spawn(move || {
                let result = codec_loop(codec_rx, io_tx, codec_options, shard);
                isobar::trace::flush_thread();
                result
            });
            let io = std::thread::spawn(move || {
                let result = io_loop(io_rx, file, shard);
                isobar::trace::flush_thread();
                result
            });
            pipes.push(ShardPipe {
                tx: Some(tx),
                codec: Some(codec),
                io: Some(io),
                wip,
                final_name,
            });
        }
        Ok(ShardedStoreWriter {
            fs,
            dir,
            generation,
            prior,
            pipes,
            seq: AtomicU64::new(0),
            committed: false,
        })
    }

    /// The generation this writer will commit.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of shards (segment pipelines) this writer runs.
    pub fn shards(&self) -> usize {
        self.pipes.len()
    }

    fn route(&self, step: u32, name: &str) -> usize {
        (xxh64(name.as_bytes(), step as u64) % self.pipes.len() as u64) as usize
    }

    fn send(&self, shard: usize, job: ShardJob) -> Result<(), StoreError> {
        self.pipes[shard]
            .tx
            .as_ref()
            .expect("writer open until close")
            .send(job)
            .map_err(|_| StoreError::Corrupt("store shard worker terminated early"))
    }

    /// Queue one variable for compression and storage on its shard.
    /// Takes ownership of `data` so the producer can immediately reuse
    /// its own buffers; blocks only when the shard's bounded queues are
    /// full (back-pressure).
    ///
    /// Re-putting an existing `(step, name)` supersedes the earlier
    /// entry rather than failing. Errors from the shard pipeline
    /// surface at [`ShardedStoreWriter::close`]; a put after a shard
    /// died reports `Corrupt` rather than hanging.
    pub fn put(
        &self,
        step: u32,
        name: &str,
        data: Vec<u8>,
        width: usize,
    ) -> Result<(), StoreError> {
        if name.len() > u16::MAX as usize {
            return Err(StoreError::NameTooLong(name.len()));
        }
        let shard = self.route(step, name);
        self.send(
            shard,
            ShardJob::Compress {
                seq: self.seq.fetch_add(1, Ordering::Relaxed),
                step,
                name: name.to_string(),
                data,
                width,
            },
        )
    }

    /// Append an already-compressed container as one record, bypassing
    /// the codec stage. Compaction and salvage use this to
    /// move records between stores without a decompress/recompress
    /// round trip. The container bytes are trusted as-is — pair with
    /// [`StoreReader::get_container`](crate::StoreReader::get_container)
    /// on a verifying reader.
    pub fn put_container(
        &self,
        step: u32,
        name: &str,
        width: u8,
        container: Vec<u8>,
        raw_len: u64,
    ) -> Result<(), StoreError> {
        if name.len() > u16::MAX as usize {
            return Err(StoreError::NameTooLong(name.len()));
        }
        let shard = self.route(step, name);
        self.send(
            shard,
            ShardJob::Raw {
                seq: self.seq.fetch_add(1, Ordering::Relaxed),
                step,
                name: name.to_string(),
                width,
                container,
                raw_len,
            },
        )
    }

    /// Drain every shard, seal the segments, and run the two-phase
    /// manifest commit (see the module docs). Returns what was
    /// committed.
    ///
    /// A worker thread that *panicked* (rather than returning an
    /// error) is reported as [`StoreError::Corrupt`], and the
    /// generation is not committed — callers never see a propagated
    /// panic or a torn manifest. The `worker_panic` integration test
    /// injects a panicking filesystem to hold both join paths (and the
    /// equivalent swallow-and-sweep behavior of `Drop`) to this.
    pub fn close(mut self) -> Result<ShardedCommitReport, StoreError> {
        // Disconnect one shard at a time, in shard order: its codec
        // thread drains and hands off to its I/O thread, which seals
        // (trailer + fdatasync) before the next shard is disconnected.
        let mut telemetry = TelemetrySnapshot::default();
        let mut first_err: Option<StoreError> = None;
        let mut sealed: Vec<Option<SealedSegment>> = Vec::with_capacity(self.pipes.len());
        for pipe in &mut self.pipes {
            drop(pipe.tx.take());
            match pipe.codec.take().expect("close called once").join() {
                Ok(Ok(snapshot)) => telemetry.merge(&snapshot),
                Ok(Err(e)) => first_err = first_err.or(Some(e)),
                Err(_) => {
                    first_err =
                        first_err.or(Some(StoreError::Corrupt("store shard codec panicked")))
                }
            }
            match pipe.io.take().expect("close called once").join() {
                Ok(Ok(segment)) => sealed.push(Some(segment)),
                Ok(Err(e)) => {
                    first_err = first_err.or(Some(e));
                    sealed.push(None);
                }
                Err(_) => {
                    first_err = first_err.or(Some(StoreError::Corrupt("store shard I/O panicked")));
                    sealed.push(None);
                }
            }
        }
        if let Some(e) = first_err {
            // Drop cleans up the .wip segments.
            return Err(e);
        }

        let _span = isobar::trace::span(
            isobar::trace::TraceTag::StoreManifestCommit,
            isobar::trace::NO_CHUNK,
        );

        // Phase 1: give every non-empty sealed segment its final name;
        // empty shards are discarded. One directory fsync makes the
        // renames durable before any manifest references them.
        let mut manifest = Manifest {
            generation: self.generation,
            segments: self.prior.segments.clone(),
            entries: self.prior.entries.clone(),
        };
        let mut new_entries: Vec<(u64, u16, IndexEntry)> = Vec::new();
        for (pipe, segment) in self.pipes.iter().zip(&mut sealed) {
            let segment = segment.take().expect("errors returned above");
            if segment.record_count == 0 {
                self.fs.remove_file(&pipe.wip)?;
                continue;
            }
            self.fs
                .rename(&pipe.wip, &self.dir.join(&pipe.final_name))?;
            let ordinal = manifest.segments.len() as u16;
            manifest.segments.push(SegmentMeta {
                file_name: pipe.final_name.clone(),
                data_len: segment.data_len,
                record_count: segment.record_count,
            });
            for (seq, entry) in segment.entries {
                new_entries.push((seq, ordinal, entry));
            }
        }
        self.fs.sync_dir(&self.dir)?;
        let segments_committed = manifest.segments.len() - self.prior.segments.len();

        // The merged index is ordered by put sequence so last-wins
        // supersede semantics match producer order deterministically.
        new_entries.sort_by_key(|(seq, _, _)| *seq);
        let report_entries: Vec<IndexEntry> =
            new_entries.iter().map(|(_, _, e)| e.clone()).collect();
        manifest.entries.extend(
            new_entries
                .into_iter()
                .map(|(_, segment, entry)| ManifestEntry { segment, entry }),
        );

        // Phase 2: shadow-write the manifest and atomically swap it in.
        // This rename is the commit point for the whole generation.
        let encoded = manifest.encode();
        let manifest_path = self.dir.join(MANIFEST_FILE);
        let manifest_wip = wip_path(&manifest_path);
        {
            let mut file = self.fs.create(&manifest_wip)?;
            file.write_all(&encoded)?;
            file.sync_data()?;
        }
        self.fs.rename(&manifest_wip, &manifest_path)?;
        self.fs.sync_dir(&self.dir)?;
        self.committed = true;

        let superseded = superseded_count(&manifest.entries);
        let mut recorder = Recorder::new();
        recorder.add(Counter::StoreSegmentsCommitted, segments_committed as u64);
        recorder.add(Counter::StoreManifestBytes, encoded.len() as u64);
        recorder.add(Counter::StoreSupersededEntries, superseded as u64);
        telemetry.merge(&recorder.snapshot());

        Ok(ShardedCommitReport {
            generation: self.generation,
            segments_committed,
            new_entries: report_entries,
            total_entries: manifest.entries.len(),
            superseded_entries: superseded,
            telemetry,
        })
    }
}

/// Entries shadowed by a later entry for the same `(step, name)`.
pub(crate) fn superseded_count(entries: &[ManifestEntry]) -> usize {
    let mut seen = std::collections::HashSet::new();
    entries
        .iter()
        .rev()
        .filter(|me| !seen.insert((me.entry.step, me.entry.name.clone())))
        .count()
}

fn codec_loop(
    rx: Receiver<ShardJob>,
    io_tx: SyncSender<Prepared>,
    options: IsobarOptions,
    shard: u16,
) -> Result<TelemetrySnapshot, StoreError> {
    let compressor = IsobarCompressor::new(options);
    let mut scratch = PipelineScratch::new();
    let mut recorder = Recorder::new();
    for job in rx {
        let prepared = match job {
            ShardJob::Compress {
                seq,
                step,
                name,
                data,
                width,
            } => {
                let _span =
                    isobar::trace::span(isobar::trace::TraceTag::StoreShardCompress, shard as u32);
                let container =
                    compressor.compress_recorded(&data, width, &mut scratch, &mut recorder)?;
                recorder.incr(Counter::StorePuts);
                recorder.add(Counter::StoreRawBytes, data.len() as u64);
                recorder.add(Counter::StoreContainerBytes, container.len() as u64);
                Prepared {
                    seq,
                    step,
                    name,
                    width: width as u8,
                    container,
                    raw_len: data.len() as u64,
                }
            }
            ShardJob::Raw {
                seq,
                step,
                name,
                width,
                container,
                raw_len,
            } => Prepared {
                seq,
                step,
                name,
                width,
                container,
                raw_len,
            },
        };
        if io_tx.send(prepared).is_err() {
            return Err(StoreError::Corrupt("store shard I/O thread terminated"));
        }
    }
    Ok(recorder.snapshot())
}

fn io_loop<File: StoreFile>(
    rx: Receiver<Prepared>,
    mut file: File,
    shard: u16,
) -> Result<SealedSegment, StoreError> {
    let mut offset = SEGMENT_HEADER_LEN as u64;
    let mut record_count = 0u32;
    let mut entries = Vec::new();
    let mut unsynced = false;
    loop {
        let next = match rx.try_recv() {
            Ok(p) => Some(p),
            Err(TryRecvError::Empty) => {
                // The codec stage is still compressing the next record
                // — exactly the window in which an fdatasync costs no
                // wall time. Group-commit the backlog now instead of
                // in one serialized flush at seal time. When records
                // arrive faster than the disk (try_recv keeps
                // succeeding), writes batch and the sync waits.
                // (No need to clear `unsynced`: every path that loops
                // again writes a record and re-arms it.)
                if unsynced {
                    file.sync_data()?;
                }
                rx.recv().ok()
            }
            Err(TryRecvError::Disconnected) => None,
        };
        let Some(p) = next else { break };
        let _span = isobar::trace::span(isobar::trace::TraceTag::StoreShardAppend, shard as u32);
        let header = encode_record_header(&p.name, p.step, p.width, p.container.len() as u64);
        file.write_all(&header)?;
        file.write_all(&p.container)?;
        unsynced = true;
        let container_offset = offset + header.len() as u64;
        offset = container_offset + p.container.len() as u64;
        record_count += 1;
        entries.push((
            p.seq,
            IndexEntry {
                name: p.name,
                step: p.step,
                width: p.width,
                offset: container_offset,
                container_len: p.container.len() as u64,
                raw_len: p.raw_len,
                checksum: entry_checksum(&p.container),
            },
        ));
    }
    // Seal: the trailer makes the segment self-describing, and the
    // fdatasync makes every record durable before close() lets any
    // manifest reference this segment.
    file.write_all(&encode_segment_trailer(offset, record_count))?;
    file.sync_data()?;
    Ok(SealedSegment {
        data_len: offset,
        record_count,
        entries,
    })
}

impl<F: StoreFs> Drop for ShardedStoreWriter<F>
where
    F::File: 'static,
{
    fn drop(&mut self) {
        if self.committed {
            return;
        }
        // Disconnect and join each shard in shard order, as `close`
        // does, so no file is mid-write, then sweep every journal
        // file. Errors are swallowed — drop runs on error paths where
        // some files may never have existed.
        for pipe in &mut self.pipes {
            drop(pipe.tx.take());
            if let Some(codec) = pipe.codec.take() {
                let _ = codec.join();
            }
            if let Some(io) = pipe.io.take() {
                let _ = io.join();
            }
            let _ = self.fs.remove_file(&pipe.wip);
        }
        let _ = self
            .fs
            .remove_file(&wip_path(&self.dir.join(MANIFEST_FILE)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reader::StoreReader;
    use isobar::Preference;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("isobar-sharded-{}-{name}", std::process::id()))
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
    fn sharded_round_trip_across_shards() {
        let dir = tmp("roundtrip");
        let _ = std::fs::remove_dir_all(&dir);
        let writer = ShardedStoreWriter::create(
            &dir,
            options(),
            ShardedOptions {
                shards: 3,
                queue_depth: 2,
            },
        )
        .unwrap();
        let vars: Vec<(u32, String, Vec<u8>)> = (0..12u32)
            .map(|i| (i / 4, format!("var{}", i % 4), payload(16 * 1024, i as u64)))
            .collect();
        for (step, name, data) in &vars {
            writer.put(*step, name, data.clone(), 8).unwrap();
        }
        let report = writer.close().unwrap();
        assert_eq!(report.generation, 0);
        assert_eq!(report.new_entries.len(), 12);
        assert_eq!(report.total_entries, 12);
        assert_eq!(report.superseded_entries, 0);
        assert!(report.segments_committed >= 1);

        let reader = StoreReader::open(&dir).unwrap();
        for (step, name, data) in &vars {
            assert_eq!(&reader.get(*step, name).unwrap(), data);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn second_generation_appends_and_supersedes() {
        let dir = tmp("generations");
        let _ = std::fs::remove_dir_all(&dir);
        let first = payload(8 * 1024, 1);
        let second = payload(8 * 1024, 9);

        let writer =
            ShardedStoreWriter::create(&dir, options(), ShardedOptions::default()).unwrap();
        writer.put(0, "density", first.clone(), 8).unwrap();
        writer.put(0, "potential", payload(8 * 1024, 3), 8).unwrap();
        assert_eq!(writer.close().unwrap().generation, 0);

        // New generation: supersede density, add a new step.
        let writer =
            ShardedStoreWriter::create(&dir, options(), ShardedOptions::default()).unwrap();
        assert_eq!(writer.generation(), 1);
        writer.put(0, "density", second.clone(), 8).unwrap();
        writer.put(1, "density", payload(8 * 1024, 5), 8).unwrap();
        let report = writer.close().unwrap();
        assert_eq!(report.generation, 1);
        assert_eq!(report.total_entries, 4);
        assert_eq!(report.superseded_entries, 1);

        let reader = StoreReader::open(&dir).unwrap();
        assert_eq!(reader.get(0, "density").unwrap(), second, "last put wins");
        assert_eq!(reader.steps(), vec![0, 1]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_producers_share_one_writer() {
        let dir = tmp("concurrent");
        let _ = std::fs::remove_dir_all(&dir);
        let writer = ShardedStoreWriter::create(
            &dir,
            options(),
            ShardedOptions {
                shards: 4,
                queue_depth: 2,
            },
        )
        .unwrap();
        std::thread::scope(|scope| {
            for producer in 0..4u32 {
                let writer = &writer;
                scope.spawn(move || {
                    for step in 0..3u32 {
                        writer
                            .put(
                                step,
                                &format!("p{producer}"),
                                payload(8 * 1024, (producer * 3 + step) as u64),
                                8,
                            )
                            .unwrap();
                    }
                });
            }
        });
        let report = writer.close().unwrap();
        assert_eq!(report.new_entries.len(), 12);
        let reader = StoreReader::open(&dir).unwrap();
        for producer in 0..4u32 {
            for step in 0..3u32 {
                assert_eq!(
                    reader.get(step, &format!("p{producer}")).unwrap(),
                    payload(8 * 1024, (producer * 3 + step) as u64)
                );
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn dropped_writer_leaves_no_wip_droppings() {
        let dir = tmp("dropped");
        let _ = std::fs::remove_dir_all(&dir);
        let writer =
            ShardedStoreWriter::create(&dir, options(), ShardedOptions::default()).unwrap();
        writer.put(0, "x", payload(4 * 1024, 2), 8).unwrap();
        drop(writer);
        let leftovers: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
        assert!(leftovers.is_empty(), "found {leftovers:?}");
        assert!(StoreReader::open(&dir).is_err(), "nothing was committed");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn telemetry_reports_commit_and_puts() {
        let dir = tmp("telemetry");
        let _ = std::fs::remove_dir_all(&dir);
        let writer =
            ShardedStoreWriter::create(&dir, options(), ShardedOptions::default()).unwrap();
        writer.put(0, "a", payload(8 * 1024, 1), 8).unwrap();
        writer.put(0, "a", payload(8 * 1024, 2), 8).unwrap();
        let report = writer.close().unwrap();
        if isobar::telemetry::ENABLED {
            assert_eq!(report.telemetry.counter(Counter::StorePuts), 2);
            assert_eq!(report.telemetry.counter(Counter::StoreSupersededEntries), 1);
            assert!(report.telemetry.counter(Counter::StoreManifestBytes) > 0);
            assert!(report.telemetry.counter(Counter::StoreSegmentsCommitted) >= 1);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn oversized_names_are_rejected_up_front() {
        let dir = tmp("longname");
        let _ = std::fs::remove_dir_all(&dir);
        let writer =
            ShardedStoreWriter::create(&dir, options(), ShardedOptions::default()).unwrap();
        let long = "x".repeat(u16::MAX as usize + 1);
        assert!(matches!(
            writer.put(0, &long, vec![0u8; 8], 8),
            Err(StoreError::NameTooLong(_))
        ));
        drop(writer);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
