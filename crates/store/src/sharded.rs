//! The store writer: sharded, concurrent, with overlapped codec and
//! I/O.
//!
//! In-situ checkpointing must not serialize compression and disk
//! writes behind one cursor. [`ShardedStoreWriter`] owns a store
//! *directory* of `shards` segment files. Every put enters one bounded
//! FIFO queue served by a pool of `shards` codec workers: whichever
//! worker is free compresses the oldest queued put, whatever segment it
//! belongs to, so one expensive variable never leaves a codec thread
//! idle while puts wait behind it. Each segment has its own I/O thread
//! that appends the finished records, so compression of one put
//! overlaps the `write`/`fdatasync` of earlier ones.
//!
//! # Placement and order
//!
//! A record goes to segment `xxh64(name, step) % shards`, and each
//! segment's I/O thread appends its records in put order: `put` numbers
//! every job within its shard in the same critical section that queues
//! it, and an I/O thread holds a record that finishes early until every
//! earlier record of its shard is written. So the segment files and the
//! `MANIFEST` a sequence of puts produces never depend on which worker
//! compressed what, or when.
//!
//! # One decision per variable
//!
//! EUPA picks a solver and layout from trial compressions of a sample,
//! and the paper decides once per variable for a whole run (§III.F).
//! So the writer keeps one pick per `(name, width)` for its lifetime.
//! The first put of a key in put order is its *decider*: `put` names it
//! in the critical section that numbers the job. The decider analyses
//! its head chunk, runs EUPA and publishes the pick (head-chunk column
//! mask, solver, layout) before its solver runs. A later put of the key
//! analyses its own head chunk, waits for the decider's pick — never
//! for the decider's solver, and `put` itself never waits — and takes
//! it, with no EUPA trial, when the masks match; otherwise it runs EUPA
//! for itself. A decider that fails, panics or is dropped unrun
//! publishes nothing, and its later puts decide for themselves. The
//! queue is FIFO, so a decider is taken before any later put of its key
//! and no worker waits on a put no worker holds.
//!
//! # Memory bound
//!
//! The queue holds at most `shards × queue_depth` puts. At most
//! `shards × (queue_depth + 1)` more are taken by workers but not yet
//! appended (compressing, or finished and held for their turn); a
//! worker waits rather than take a job past that window. So at most
//! `shards × (2 × queue_depth + 1)` payloads sit between `put` and
//! append, however uneven the compression costs. A full window always
//! drains: queue order is put order, so the oldest unwritten record of
//! every shard is already taken.
//!
//! # Two-phase commit protocol
//!
//! Segments and the manifest are journaled as `<name>.wip` shadow
//! files that no reader opens, and only take their final names once
//! durable:
//!
//! 1. every shard's records append to `g<gen>-s<shard>.seg.wip`. The
//!    I/O thread group-commits: whenever it has nothing to write (the
//!    codec stage is the bottleneck) it `fdatasync`s the backlog,
//!    hiding the flush behind compression of the next record;
//! 2. at close, the workers are joined first, which drains the queue.
//!    Then each I/O thread seals its segment — trailer append, then a
//!    final `fdatasync` covering the residue — so every record a
//!    manifest could reference is durable before any manifest exists.
//!    I/O threads are disconnected and joined one at a time, in shard
//!    order, so the seals reach the filesystem in a fixed order (the
//!    crash sweep holds every killed rerun to one recorded operation
//!    stream);
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
use isobar::{
    CodecId, IsobarCompressor, IsobarOptions, Linearization, PipelineScratch, Recorder,
    TelemetrySnapshot,
};
use isobar_codecs::xxhash::xxh64;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// Concurrency knobs for a [`ShardedStoreWriter`]. See `docs/STORE.md`
/// for tuning guidance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardedOptions {
    /// Number of segment files, and of codec workers in the writer's
    /// pool. Each shard costs two threads (a codec worker and its
    /// segment's I/O thread) and one open file.
    pub shards: u16,
    /// How far puts run ahead of the disk, per shard: the pool's queue
    /// holds `shards × queue_depth` puts, and `shards × (queue_depth +
    /// 1)` more may be compressing or waiting for their turn to be
    /// appended. 1 is a classic double buffer (compress `n+1` while
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
    /// Merged telemetry from every codec worker plus the commit itself.
    pub telemetry: TelemetrySnapshot,
}

/// One put, queued for whichever codec worker is free.
struct Job {
    shard: u16,
    /// Position in the shard's put order: the order of its records in
    /// the segment.
    shard_seq: u64,
    /// Position in the writer's put order: the order of the manifest's
    /// new entries.
    seq: u64,
    step: u32,
    name: String,
    payload: Payload,
}

enum Payload {
    /// Elements for the worker to compress, and its part in the
    /// variable's decision.
    Elements {
        data: Arc<Vec<u8>>,
        width: usize,
        role: Role,
    },
    /// A finished container, appended as is.
    Container {
        width: u8,
        container: Vec<u8>,
        raw_len: u64,
    },
}

/// A put as `put` or `put_container` hands it to the pool.
enum Put {
    Elements { data: Arc<Vec<u8>>, width: usize },
    Container(Payload),
}

/// A solver and layout EUPA picked for a head chunk with column mask
/// `mask`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Pick {
    mask: u64,
    codec: CodecId,
    linearization: Linearization,
}

/// Where a variable's decision stands.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Verdict {
    Pending,
    Made(Pick),
    /// The decider failed, panicked or was dropped before it picked.
    Abandoned,
}

/// One `(name, width)`'s decision, shared by every put of it.
struct Decision {
    verdict: Mutex<Verdict>,
    settled: Condvar,
}

impl Decision {
    fn new() -> Decision {
        Decision {
            verdict: Mutex::new(Verdict::Pending),
            settled: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Verdict> {
        self.verdict.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Settle a pending decision and wake the puts waiting on it.
    fn settle(&self, verdict: Verdict) {
        let mut current = self.lock();
        if *current == Verdict::Pending {
            *current = verdict;
            drop(current);
            self.settled.notify_all();
        }
    }

    /// The decider's verdict, once it is not pending.
    fn wait(&self) -> Verdict {
        let mut verdict = self.lock();
        while *verdict == Verdict::Pending {
            verdict = self
                .settled
                .wait(verdict)
                .unwrap_or_else(PoisonError::into_inner);
        }
        *verdict
    }
}

/// A put's part in its variable's decision.
enum Role {
    /// The first put of the variable: it runs EUPA and publishes the
    /// pick. Dropped without publishing — the put failed or panicked,
    /// or its job was dropped — it abandons the decision, so no later
    /// put waits for it.
    Decides(Arc<Decision>),
    /// A later put: it takes the decider's pick if the masks match.
    Follows(Arc<Decision>),
}

impl Role {
    /// The (solver, layout) for a put whose head chunk has column mask
    /// `mask`; `eupa` runs EUPA on the put's own data.
    fn pick(
        &self,
        mask: u64,
        eupa: &mut dyn FnMut() -> (CodecId, Linearization),
        #[cfg(test)] pool: &Pool,
    ) -> (CodecId, Linearization) {
        match self {
            Role::Decides(decision) => {
                let (codec, linearization) = eupa();
                decision.settle(Verdict::Made(Pick {
                    mask,
                    codec,
                    linearization,
                }));
                (codec, linearization)
            }
            Role::Follows(decision) => {
                #[cfg(test)]
                if *decision.lock() == Verdict::Pending {
                    pool.waited_for_pick();
                }
                match decision.wait() {
                    Verdict::Made(pick) if pick.mask == mask => (pick.codec, pick.linearization),
                    _ => eupa(),
                }
            }
        }
    }
}

impl Drop for Role {
    fn drop(&mut self) {
        if let Role::Decides(decision) = self {
            decision.settle(Verdict::Abandoned);
        }
    }
}

/// A record ready to append, on its way to its shard's I/O thread.
struct Prepared {
    shard_seq: u64,
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

/// The queue between `put` and the codec workers, and the window of
/// jobs the workers have taken whose records are not appended yet.
struct Pool {
    state: Mutex<PoolState>,
    /// Workers wait here for a job they may take, or for the end. An
    /// event that makes one more job takeable (a push, an append that
    /// frees a window slot for a queued job) wakes one worker; an event
    /// that lets every worker exit wakes them all. Missing either one
    /// leaves a worker asleep with work to do, or `close` joining a
    /// worker that never wakes.
    work: Condvar,
    /// Producers wait here for room in the queue.
    room: Condvar,
    /// Bound on queued jobs: `shards × queue_depth`.
    queue_cap: usize,
    /// Bound on taken, unappended jobs: `shards × (queue_depth + 1)`.
    window_cap: usize,
    /// Signalled when a record reaches its I/O thread early.
    #[cfg(test)]
    early: Condvar,
}

struct PoolState {
    queue: VecDeque<Job>,
    /// One decision per `(name, width)` put since the writer opened.
    decisions: HashMap<(String, usize), Arc<Decision>>,
    /// The next sequence number of each shard.
    shard_seq: Vec<u64>,
    /// The next sequence number of the writer.
    seq: u64,
    /// Jobs taken by a worker whose record is not appended yet.
    taken: usize,
    /// No more puts come: workers exit once the queue is empty.
    closing: bool,
    /// A thread failed or the writer is dropped: puts fail, queued
    /// jobs are dropped, and workers exit after their current job.
    stopped: bool,
    /// The most jobs ever between `put` and append.
    #[cfg(test)]
    peak: usize,
    /// Records that reached their I/O thread before an earlier record
    /// of their shard.
    #[cfg(test)]
    held_early: u64,
    /// Hold the job of this name until this many records were held
    /// early.
    #[cfg(test)]
    gate: Option<(String, u64)>,
    /// Later puts that found their decider's pick not yet made.
    #[cfg(test)]
    waited_for_pick: u64,
    /// Hold the job of this name and step until this many later puts
    /// waited for a pick.
    #[cfg(test)]
    pick_gate: Option<(String, u32, u64)>,
}

impl Pool {
    fn new(shards: usize, queue_depth: usize) -> Pool {
        Pool {
            state: Mutex::new(PoolState {
                queue: VecDeque::new(),
                decisions: HashMap::new(),
                shard_seq: vec![0; shards],
                seq: 0,
                taken: 0,
                closing: false,
                stopped: false,
                #[cfg(test)]
                peak: 0,
                #[cfg(test)]
                held_early: 0,
                #[cfg(test)]
                gate: None,
                #[cfg(test)]
                waited_for_pick: 0,
                #[cfg(test)]
                pick_gate: None,
            }),
            work: Condvar::new(),
            room: Condvar::new(),
            queue_cap: shards * queue_depth,
            window_cap: shards * (queue_depth + 1),
            #[cfg(test)]
            early: Condvar::new(),
        }
    }

    /// The state lock. A thread that panicked did so outside it, so a
    /// poisoned lock still guards a consistent state.
    fn lock(&self) -> MutexGuard<'_, PoolState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn wait<'a>(&self, cv: &Condvar, st: MutexGuard<'a, PoolState>) -> MutexGuard<'a, PoolState> {
        cv.wait(st).unwrap_or_else(PoisonError::into_inner)
    }

    /// Queue one job, blocking while the queue is full. Numbering the
    /// job in the critical section that queues it keeps queue order
    /// equal to sequence order, which is what lets a full window drain;
    /// the same section makes the first put of a `(name, width)` its
    /// decider.
    fn push(&self, shard: u16, step: u32, name: String, put: Put) -> Result<(), StoreError> {
        let mut st = self.lock();
        while st.queue.len() >= self.queue_cap && !st.stopped {
            st = self.wait(&self.room, st);
        }
        if st.stopped {
            return Err(StoreError::Corrupt("store shard worker terminated early"));
        }
        let payload = match put {
            Put::Elements { data, width } => {
                let role = match st.decisions.entry((name.clone(), width)) {
                    Entry::Occupied(known) => Role::Follows(Arc::clone(known.get())),
                    Entry::Vacant(first) => {
                        Role::Decides(Arc::clone(first.insert(Arc::new(Decision::new()))))
                    }
                };
                Payload::Elements { data, width, role }
            }
            Put::Container(payload) => payload,
        };
        let shard_seq = st.shard_seq[shard as usize];
        st.shard_seq[shard as usize] += 1;
        let seq = st.seq;
        st.seq += 1;
        st.queue.push_back(Job {
            shard,
            shard_seq,
            seq,
            step,
            name,
            payload,
        });
        #[cfg(test)]
        {
            st.peak = st.peak.max(st.queue.len() + st.taken);
        }
        // With the window full, the next append wakes a worker instead.
        let takeable = st.taken < self.window_cap;
        drop(st);
        if takeable {
            self.work.notify_one();
        }
        Ok(())
    }

    /// The oldest queued job once the window has room for it; `None`
    /// once the pool is closed and drained, or stopped. A worker about
    /// to wait hands its trace ring to the collector first while
    /// tracing is on: it may wait until the next commit, and a flight
    /// dump taken before then must hold its spans.
    fn take(&self) -> Option<Job> {
        let mut st = self.lock();
        let mut flushed = false;
        loop {
            if st.stopped || (st.closing && st.queue.is_empty()) {
                return None;
            }
            if st.taken < self.window_cap {
                if let Some(job) = st.queue.pop_front() {
                    st.taken += 1;
                    let drained = st.closing && st.queue.is_empty();
                    drop(st);
                    self.room.notify_one();
                    if drained {
                        // Workers waiting on a full window may exit now.
                        self.work.notify_all();
                    }
                    return Some(job);
                }
            }
            if !flushed && isobar::trace::is_active() {
                drop(st);
                isobar::trace::flush_thread();
                flushed = true;
                st = self.lock();
                continue;
            }
            st = self.wait(&self.work, st);
        }
    }

    /// An I/O thread appended a record: its window slot is free. A
    /// worker is woken only if a job waits for that slot, so an idle
    /// worker is not woken for nothing after every append.
    fn appended(&self) {
        let mut st = self.lock();
        st.taken -= 1;
        let waiting = !st.queue.is_empty();
        drop(st);
        if waiting {
            self.work.notify_one();
        }
    }

    /// No more puts come: the workers drain the queue and exit.
    fn close(&self) {
        self.lock().closing = true;
        self.work.notify_all();
    }

    /// Fail every later put, drop the queued jobs, and let every
    /// worker exit after its current job.
    fn stop(&self) {
        let abandoned = {
            let mut st = self.lock();
            st.stopped = true;
            std::mem::take(&mut st.queue)
        };
        drop(abandoned);
        self.work.notify_all();
        self.room.notify_all();
        #[cfg(test)]
        self.early.notify_all();
    }

    #[cfg(test)]
    fn arrived_early(&self) {
        self.lock().held_early += 1;
        self.early.notify_all();
    }

    #[cfg(test)]
    fn hold_if_gated(&self, name: &str, step: u32) {
        let mut st = self.lock();
        while let Some((gated, until)) = &st.gate {
            if gated != name || st.held_early >= *until || st.stopped {
                break;
            }
            st = self.wait(&self.early, st);
        }
        while let Some((gated, gated_step, until)) = &st.pick_gate {
            if gated != name || *gated_step != step || st.waited_for_pick >= *until || st.stopped {
                break;
            }
            st = self.wait(&self.early, st);
        }
    }

    #[cfg(test)]
    fn waited_for_pick(&self) {
        self.lock().waited_for_pick += 1;
        self.early.notify_all();
    }
}

/// Stops the pool if its thread unwinds, so no put, worker or I/O
/// thread waits on a thread that is gone.
struct StopOnUnwind<'a>(&'a Pool);

impl Drop for StopOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.stop();
        }
    }
}

struct ShardPipe {
    tx: Option<Sender<Prepared>>,
    io: Option<JoinHandle<Result<SealedSegment, StoreError>>>,
    wip: PathBuf,
    final_name: String,
}

/// Concurrent multi-writer checkpoint store over a version-3 sharded
/// directory. See the module docs for the commit protocol.
///
/// `put` takes `&self`, so one writer can be shared across producer
/// threads; every put routes to a segment by `(step, variable)` hash,
/// is compressed by whichever codec worker is free, and is appended by
/// that segment's I/O thread in put order.
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
    pool: Arc<Pool>,
    workers: Vec<JoinHandle<Result<TelemetrySnapshot, StoreError>>>,
    pipes: Vec<ShardPipe>,
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
        let pool = Arc::new(Pool::new(usize::from(shards), sharded.queue_depth.max(1)));
        let mut pipes = Vec::with_capacity(usize::from(shards));
        for shard in 0..shards {
            let final_name = segment_file_name(generation, shard);
            let wip = wip_path(&dir.join(&final_name));
            let mut file = fs.create(&wip)?;
            file.write_all(&encode_segment_header(shard))?;

            let (tx, rx) = channel::<Prepared>();
            let pool = Arc::clone(&pool);
            let io = std::thread::spawn(move || {
                let _stop = StopOnUnwind(&pool);
                let result = io_loop(rx, file, shard, &pool);
                if result.is_err() {
                    pool.stop();
                }
                isobar::trace::flush_thread();
                result
            });
            pipes.push(ShardPipe {
                tx: Some(tx),
                io: Some(io),
                wip,
                final_name,
            });
        }
        let workers = (0..shards)
            .map(|_| {
                let pool = Arc::clone(&pool);
                let io: Vec<Sender<Prepared>> = pipes
                    .iter()
                    .map(|pipe| pipe.tx.clone().expect("writer open"))
                    .collect();
                std::thread::spawn(move || {
                    let _stop = StopOnUnwind(&pool);
                    let result = codec_worker(&pool, &io, options);
                    if result.is_err() {
                        pool.stop();
                    }
                    isobar::trace::flush_thread();
                    result
                })
            })
            .collect();
        Ok(ShardedStoreWriter {
            fs,
            dir,
            generation,
            prior,
            pool,
            workers,
            pipes,
            committed: false,
        })
    }

    /// The generation this writer will commit.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of shards (segment files and codec workers) this writer
    /// runs.
    pub fn shards(&self) -> usize {
        self.pipes.len()
    }

    fn push(&self, step: u32, name: &str, put: Put) -> Result<(), StoreError> {
        if name.len() > u16::MAX as usize {
            return Err(StoreError::NameTooLong(name.len()));
        }
        let shard = route(step, name, self.pipes.len());
        self.pool.push(shard, step, name.to_string(), put)
    }

    /// Queue one variable for compression and storage on its shard.
    /// Takes the payload by value (a `Vec<u8>`, or an `Arc` the caller
    /// also keeps, without a copy) so the producer can immediately
    /// reuse its own buffers; blocks only when the writer's bounded
    /// queue is full (back-pressure).
    ///
    /// Re-putting an existing `(step, name)` supersedes the earlier
    /// entry rather than failing. Errors from the codec workers or I/O
    /// threads surface at [`ShardedStoreWriter::close`]; a put after
    /// one failed reports `Corrupt` rather than hanging.
    pub fn put(
        &self,
        step: u32,
        name: &str,
        data: impl Into<Arc<Vec<u8>>>,
        width: usize,
    ) -> Result<(), StoreError> {
        let data = data.into();
        self.push(step, name, Put::Elements { data, width })
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
        self.push(
            step,
            name,
            Put::Container(Payload::Container {
                width,
                container,
                raw_len,
            }),
        )
    }

    /// Drain the pool, seal the segments, and run the two-phase
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
        // The workers first: they drain the queue and hand every record
        // to its I/O thread. Then disconnect one I/O thread at a time,
        // in shard order, each sealing (trailer + fdatasync) before the
        // next is disconnected.
        self.pool.close();
        let mut telemetry = TelemetrySnapshot::default();
        let mut first_err: Option<StoreError> = None;
        for worker in self.workers.drain(..) {
            match worker.join() {
                Ok(Ok(snapshot)) => telemetry.merge(&snapshot),
                Ok(Err(e)) => first_err = first_err.or(Some(e)),
                Err(_) => {
                    first_err =
                        first_err.or(Some(StoreError::Corrupt("store shard codec panicked")))
                }
            }
        }
        let mut sealed: Vec<Option<SealedSegment>> = Vec::with_capacity(self.pipes.len());
        for pipe in &mut self.pipes {
            drop(pipe.tx.take());
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
            isobar::telemetry::Phase::StoreManifestCommit,
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

/// The segment a `(step, name)` record goes to.
fn route(step: u32, name: &str, shards: usize) -> u16 {
    (xxh64(name.as_bytes(), step as u64) % shards as u64) as u16
}

/// One codec worker: take the oldest job the window allows, compress
/// it, and hand the record to its shard's I/O thread.
fn codec_worker(
    pool: &Pool,
    io: &[Sender<Prepared>],
    options: IsobarOptions,
) -> Result<TelemetrySnapshot, StoreError> {
    let compressor = IsobarCompressor::new(options);
    let mut scratch = PipelineScratch::new();
    let mut recorder = Recorder::new();
    while let Some(job) = pool.take() {
        let (width, container, raw_len) = match job.payload {
            Payload::Elements { data, width, role } => {
                #[cfg(test)]
                pool.hold_if_gated(&job.name, job.step);
                let _span = isobar::trace::span(
                    isobar::telemetry::Phase::StoreShardCompress,
                    u32::from(job.shard),
                );
                let container = compressor.compress_with_pick(
                    &data,
                    width,
                    &mut scratch,
                    &mut recorder,
                    |mask, eupa| {
                        role.pick(
                            mask,
                            eupa,
                            #[cfg(test)]
                            pool,
                        )
                    },
                )?;
                recorder.incr(Counter::StorePuts);
                recorder.add(Counter::StoreRawBytes, data.len() as u64);
                recorder.add(Counter::StoreContainerBytes, container.len() as u64);
                (width as u8, container, data.len() as u64)
            }
            Payload::Container {
                width,
                container,
                raw_len,
            } => (width, container, raw_len),
        };
        let prepared = Prepared {
            shard_seq: job.shard_seq,
            seq: job.seq,
            step: job.step,
            name: job.name,
            width,
            container,
            raw_len,
        };
        if io[usize::from(job.shard)].send(prepared).is_err() {
            // The shard's I/O thread is gone; its join says why.
            pool.stop();
            break;
        }
    }
    Ok(recorder.snapshot())
}

/// One shard's I/O thread: append records in shard order, holding any
/// that arrive early, and seal the segment once disconnected.
fn io_loop<File: StoreFile>(
    rx: Receiver<Prepared>,
    mut file: File,
    shard: u16,
    pool: &Pool,
) -> Result<SealedSegment, StoreError> {
    let mut offset = SEGMENT_HEADER_LEN as u64;
    let mut entries = Vec::new();
    let mut early: BTreeMap<u64, Prepared> = BTreeMap::new();
    let mut unsynced = false;
    loop {
        let next = entries.len() as u64;
        let p = match early.remove(&next) {
            Some(p) => p,
            None => {
                let p = match rx.try_recv() {
                    Ok(p) => p,
                    Err(TryRecvError::Empty) => {
                        // The codec stage is still compressing the next
                        // record — exactly the window in which an
                        // fdatasync costs no wall time. Group-commit
                        // the backlog now instead of in one serialized
                        // flush at seal time. When records arrive
                        // faster than the disk (try_recv keeps
                        // succeeding), writes batch and the sync waits.
                        if unsynced {
                            file.sync_data()?;
                            unsynced = false;
                        }
                        // Blocking: hand the trace ring over first, as
                        // `Pool::take` does.
                        if isobar::trace::is_active() {
                            isobar::trace::flush_thread();
                        }
                        match rx.recv() {
                            Ok(p) => p,
                            Err(_) => break,
                        }
                    }
                    Err(TryRecvError::Disconnected) => break,
                };
                if p.shard_seq != next {
                    #[cfg(test)]
                    pool.arrived_early();
                    early.insert(p.shard_seq, p);
                    continue;
                }
                p
            }
        };
        let _span = isobar::trace::span(isobar::telemetry::Phase::StoreShardAppend, shard as u32);
        let header = encode_record_header(&p.name, p.step, p.width, p.container.len() as u64);
        file.write_all(&header)?;
        file.write_all(&p.container)?;
        unsynced = true;
        let container_offset = offset + header.len() as u64;
        offset = container_offset + p.container.len() as u64;
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
        pool.appended();
    }
    if !early.is_empty() {
        // A failed worker never delivered an earlier record.
        return Err(StoreError::Corrupt("store shard lost a record"));
    }
    // Seal: the trailer makes the segment self-describing, and the
    // fdatasync makes every record durable before close() lets any
    // manifest reference this segment.
    let record_count = entries.len() as u32;
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
        // Drop what is queued, join every thread — the I/O threads in
        // shard order, as `close` does — so no file is mid-write, then
        // sweep every journal file. Errors are swallowed — drop runs
        // on error paths where some files may never have existed.
        self.pool.stop();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        for pipe in &mut self.pipes {
            drop(pipe.tx.take());
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

    /// A scratch directory under the temp dir, removed when dropped —
    /// also when its test fails.
    struct TempDir(PathBuf);

    impl std::ops::Deref for TempDir {
        type Target = Path;
        fn deref(&self) -> &Path {
            &self.0
        }
    }

    impl AsRef<Path> for TempDir {
        fn as_ref(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn tmp(name: &str) -> TempDir {
        TempDir(std::env::temp_dir().join(format!("isobar-sharded-{}-{name}", std::process::id())))
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

    /// `count` names that `route` sends to the shard of `(step, first)`.
    fn names_on_shard_of(first: &str, step: u32, shards: u16, count: usize) -> Vec<String> {
        let shard = route(step, first, usize::from(shards));
        (0..)
            .map(|i| format!("fast{i}"))
            .filter(|name| route(step, name, usize::from(shards)) == shard)
            .take(count)
            .collect()
    }

    /// Every file of a store directory, by name.
    fn store_files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
        std::fs::read_dir(dir)
            .unwrap()
            .map(|e| {
                let path = e.unwrap().path();
                let name = path.file_name().unwrap().to_string_lossy().into_owned();
                (name, std::fs::read(&path).unwrap())
            })
            .collect()
    }

    /// Run `f` on its own thread and fail if it has not finished within
    /// a minute.
    fn within_deadline(f: impl FnOnce() + Send + 'static) {
        let (done_tx, done) = std::sync::mpsc::channel();
        let handle = std::thread::spawn(move || {
            f();
            let _ = done_tx.send(());
        });
        if let Err(std::sync::mpsc::RecvTimeoutError::Timeout) =
            done.recv_timeout(std::time::Duration::from_secs(60))
        {
            panic!("the writer hung past the deadline");
        }
        if let Err(panic) = handle.join() {
            std::panic::resume_unwind(panic);
        }
    }

    type Puts = Vec<(u32, String, Vec<u8>)>;

    /// A slow put, fast puts behind it on its shard, then puts that
    /// spread over every shard.
    fn skewed_puts(shards: u16) -> Puts {
        let mut puts = vec![(0, "slow".to_string(), payload(256 * 1024, 1))];
        for (i, name) in names_on_shard_of("slow", 0, shards, 4)
            .into_iter()
            .enumerate()
        {
            puts.push((0, name, payload(4 * 1024, i as u64 + 2)));
        }
        for i in 0..6u32 {
            puts.push((1, format!("other{i}"), payload(8 * 1024, u64::from(i) + 7)));
        }
        puts
    }

    /// Store `puts` in a fresh `dir`. With `hold`, the pool keeps the
    /// `slow` put from compressing until that many records reached
    /// their I/O thread before an earlier record of their shard.
    /// Returns how many did.
    fn store(dir: &Path, shards: u16, queue_depth: usize, puts: &Puts, hold: Option<u64>) -> u64 {
        let _ = std::fs::remove_dir_all(dir);
        let writer = ShardedStoreWriter::create(
            dir,
            options(),
            ShardedOptions {
                shards,
                queue_depth,
            },
        )
        .unwrap();
        writer.pool.lock().gate = hold.map(|until| ("slow".to_string(), until));
        for (step, name, data) in puts {
            writer.put(*step, name, data.clone(), 8).unwrap();
        }
        let pool = Arc::clone(&writer.pool);
        writer.close().unwrap();
        let held_early = pool.lock().held_early;
        held_early
    }

    #[test]
    fn segments_are_byte_identical_whatever_order_records_finish() {
        for shards in [2u16, 3] {
            within_deadline(move || same_bytes_at(shards));
        }
    }

    fn same_bytes_at(shards: u16) {
        let puts = skewed_puts(shards);
        let (held, free) = (
            tmp(&format!("held-{shards}")),
            tmp(&format!("free-{shards}")),
        );
        // The four fast puts finish before the slow one ahead of
        // them: completion order really differs from put order.
        assert!(store(&held, shards, 2, &puts, Some(4)) >= 4);
        store(&free, shards, 2, &puts, None);
        let files = store_files(&held);
        assert_eq!(files, store_files(&free), "{shards} shards");
        assert!(files.contains_key(MANIFEST_FILE));

        // The manifest lists the puts in put order, and within each
        // segment their record offsets increase in that order.
        let manifest = Manifest::decode(&files[MANIFEST_FILE], true).unwrap();
        let listed: Vec<(u32, &str)> = manifest
            .entries
            .iter()
            .map(|me| (me.entry.step, me.entry.name.as_str()))
            .collect();
        let put: Vec<(u32, &str)> = puts.iter().map(|(s, n, _)| (*s, n.as_str())).collect();
        assert_eq!(listed, put);
        let mut last_offset = BTreeMap::new();
        for me in &manifest.entries {
            if let Some(prev) = last_offset.insert(me.segment, me.entry.offset) {
                assert!(me.entry.offset > prev, "{} out of put order", me.entry.name);
            }
        }
        let reader = StoreReader::open(&held).unwrap();
        for (step, name, data) in &puts {
            assert_eq!(&reader.get(*step, name).unwrap(), data);
        }
        std::fs::remove_dir_all(&held).unwrap();
        std::fs::remove_dir_all(&free).unwrap();
    }

    #[test]
    fn a_failed_put_fails_close_and_nothing_hangs() {
        for shards in [1u16, 2] {
            within_deadline(move || {
                let dir = tmp(&format!("failed-{shards}"));
                let _ = std::fs::remove_dir_all(&dir);
                let writer = ShardedStoreWriter::create(
                    &dir,
                    options(),
                    ShardedOptions {
                        shards,
                        queue_depth: 1,
                    },
                )
                .unwrap();
                // 803 bytes is no whole number of 8-byte elements.
                writer.put(0, "bad", vec![0u8; 803], 8).unwrap();
                for (i, name) in names_on_shard_of("bad", 0, shards, 8).iter().enumerate() {
                    match writer.put(0, name, payload(4 * 1024, i as u64), 8) {
                        Ok(()) | Err(StoreError::Corrupt(_)) => {}
                        Err(e) => panic!("unexpected put error: {e:?}"),
                    }
                }
                let err = writer.close().expect_err("a failed put must fail close");
                assert!(
                    matches!(
                        err,
                        StoreError::Isobar(isobar::IsobarError::MisalignedInput { .. })
                    ),
                    "{err:?}"
                );
                assert!(!dir.join(MANIFEST_FILE).exists(), "nothing was committed");
                let leftovers: Vec<_> = store_files(&dir).into_keys().collect();
                assert!(leftovers.is_empty(), "found {leftovers:?}");
                std::fs::remove_dir_all(&dir).unwrap();
            });
        }
    }

    #[test]
    fn puts_in_flight_stay_within_the_bound() {
        let dir = tmp("bound");
        let (shards, queue_depth) = (2u16, 1usize);
        let window = usize::from(shards) * (queue_depth + 1);
        let bound = usize::from(shards) * (2 * queue_depth + 1);
        let mut puts = vec![(0, "slow".to_string(), payload(64 * 1024, 1))];
        for (i, name) in names_on_shard_of("slow", 0, shards, 12)
            .into_iter()
            .enumerate()
        {
            puts.push((0, name, payload(1024, i as u64)));
        }
        // Hold the slow put until the rest of the window is full of
        // records that finished behind it.
        let _ = std::fs::remove_dir_all(&dir);
        let writer = ShardedStoreWriter::create(
            &dir,
            options(),
            ShardedOptions {
                shards,
                queue_depth,
            },
        )
        .unwrap();
        writer.pool.lock().gate = Some(("slow".to_string(), window as u64 - 1));
        for (step, name, data) in &puts {
            writer.put(*step, name, data.clone(), 8).unwrap();
        }
        let pool = Arc::clone(&writer.pool);
        writer.close().unwrap();
        let st = pool.lock();
        assert!(st.held_early >= window as u64 - 1);
        assert!(
            (window..=bound).contains(&st.peak),
            "peak {} outside {window}..={bound}",
            st.peak
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// `n` elements of 8 bytes: the columns set in `constant` hold one
    /// value each, and every other column steps through all 256 values
    /// evenly (no bin near the tolerance), so every chunk's column mask
    /// is `constant`.
    fn masked(n: usize, constant: u8, seed: u64) -> Vec<u8> {
        (0..n as u64)
            .flat_map(|i| {
                (0..8u64).map(move |c| {
                    if constant & (1 << c) != 0 {
                        17 * c as u8
                    } else {
                        (i.wrapping_mul(2 * c + 97) + seed) as u8
                    }
                })
            })
            .collect()
    }

    /// Store `puts` in a fresh `dir` with `pick_gate` set; returns how
    /// many later puts found their decider's pick not yet made, and the
    /// commit report.
    fn store_picking(
        dir: &Path,
        shards: u16,
        puts: &Puts,
        pick_gate: Option<(String, u32, u64)>,
    ) -> (u64, ShardedCommitReport) {
        let _ = std::fs::remove_dir_all(dir);
        let writer = ShardedStoreWriter::create(
            dir,
            options(),
            ShardedOptions {
                shards,
                queue_depth: 2,
            },
        )
        .unwrap();
        writer.pool.lock().pick_gate = pick_gate;
        for (step, name, data) in puts {
            writer.put(*step, name, data.clone(), 8).unwrap();
        }
        let pool = Arc::clone(&writer.pool);
        let report = writer.close().unwrap();
        let waited = pool.lock().waited_for_pick;
        (waited, report)
    }

    #[test]
    fn a_later_put_taken_before_its_decider_picked_writes_the_same_bytes() {
        for shards in [2u16, 3] {
            within_deadline(move || {
                let puts: Puts = vec![
                    (0, "slow".to_string(), masked(60_000, 0b0011_1100, 1)),
                    (1, "slow".to_string(), masked(60_000, 0b0011_1100, 2)),
                    (0, "other".to_string(), payload(8 * 1024, 3)),
                    (2, "slow".to_string(), masked(60_000, 0b0011_1100, 4)),
                ];
                let (held, free) = (
                    tmp(&format!("pick-held-{shards}")),
                    tmp(&format!("pick-free-{shards}")),
                );
                // Hold the decider until a later put of "slow" has
                // analysed its head chunk and found the pick not made.
                let gate = ("slow".to_string(), 0, 1);
                let (waited, _) = store_picking(&held, shards, &puts, Some(gate));
                assert!(waited >= 1, "no later put waited for the pick");
                store_picking(&free, shards, &puts, None);
                assert_eq!(store_files(&held), store_files(&free), "{shards} shards");
                let reader = StoreReader::open(&*held).unwrap();
                for (step, name, data) in &puts {
                    assert_eq!(&reader.get(*step, name).unwrap(), data);
                }
            });
        }
    }

    #[test]
    fn a_later_put_with_another_mask_decides_for_itself() {
        let dir = tmp("remask");
        let other = masked(40_000, 0b1100_0000, 2);
        let puts: Puts = vec![
            (0, "v".to_string(), masked(40_000, 0b0000_1111, 1)),
            (1, "v".to_string(), other.clone()),
            (2, "v".to_string(), masked(40_000, 0b0000_1111, 3)),
        ];
        let (_, report) = store_picking(&dir, 2, &puts, None);
        let reader = StoreReader::open(&*dir).unwrap();
        let entry = reader
            .entries()
            .iter()
            .find(|e| e.step == 1)
            .expect("step 1 stored")
            .clone();
        let fresh = IsobarCompressor::new(options())
            .compress(&other, 8)
            .unwrap();
        assert_eq!(reader.get_container(&entry).unwrap(), fresh);
        if isobar::telemetry::ENABLED {
            // Step 0 decides, step 1's mask differs, step 2 takes
            // step 0's pick.
            assert_eq!(report.telemetry.counter(Counter::EupaRuns), 2);
        }
    }

    #[test]
    fn a_failed_decider_leaves_no_later_put_waiting() {
        for shards in [1u16, 2] {
            within_deadline(move || {
                let dir = tmp(&format!("failed-decider-{shards}"));
                let writer = ShardedStoreWriter::create(
                    &dir,
                    options(),
                    ShardedOptions {
                        shards,
                        queue_depth: 2,
                    },
                )
                .unwrap();
                if shards > 1 {
                    // A second worker holds a later put waiting on the
                    // decider before the decider fails.
                    writer.pool.lock().pick_gate = Some(("bad".to_string(), 0, 1));
                }
                // 803 bytes is no whole number of 8-byte elements.
                writer.put(0, "bad", vec![0u8; 803], 8).unwrap();
                for step in 1..4u32 {
                    match writer.put(step, "bad", payload(4 * 1024, u64::from(step)), 8) {
                        Ok(()) | Err(StoreError::Corrupt(_)) => {}
                        Err(e) => panic!("unexpected put error: {e:?}"),
                    }
                }
                let pool = Arc::clone(&writer.pool);
                let err = writer.close().expect_err("a failed put must fail close");
                assert!(
                    matches!(
                        err,
                        StoreError::Isobar(isobar::IsobarError::MisalignedInput { .. })
                    ),
                    "{err:?}"
                );
                if shards > 1 {
                    assert!(pool.lock().waited_for_pick >= 1);
                }
            });
        }
    }

    #[test]
    fn a_decider_that_panics_abandons_its_decision() {
        within_deadline(|| {
            let decision = Arc::new(Decision::new());
            let decider = Role::Decides(Arc::clone(&decision));
            let follower = Role::Follows(decision);
            let pool = Arc::new(Pool::new(1, 1));
            let waiting = {
                let pool = Arc::clone(&pool);
                std::thread::spawn(move || {
                    follower.pick(0b1, &mut || (CodecId::Bzip2Like, Linearization::Row), &pool)
                })
            };
            // Let the follower find the pick pending, then panic while
            // holding the decider's role.
            while pool.lock().waited_for_pick == 0 {
                std::thread::yield_now();
            }
            let panicked = std::thread::spawn(move || {
                let _decider = decider;
                panic!("a decider panics before it picks");
            })
            .join();
            assert!(panicked.is_err());
            // The follower ran its own EUPA.
            assert_eq!(
                waiting.join().unwrap(),
                (CodecId::Bzip2Like, Linearization::Row)
            );
        });
    }

    #[test]
    fn three_steps_of_two_variables_run_eupa_twice() {
        let dir = tmp("decide-once");
        let puts: Puts = (0..3u32)
            .flat_map(|step| {
                let seed = u64::from(step);
                [
                    (step, "a".to_string(), masked(20_000, 0b0000_1111, seed)),
                    (
                        step,
                        "b".to_string(),
                        masked(20_000, 0b1111_0000, seed + 10),
                    ),
                ]
            })
            .collect();
        let (_, report) = store_picking(&dir, 2, &puts, None);
        if isobar::telemetry::ENABLED {
            assert_eq!(report.telemetry.counter(Counter::StorePuts), 6);
            assert_eq!(report.telemetry.counter(Counter::EupaRuns), 2);
        }
        let reader = StoreReader::open(&*dir).unwrap();
        for (step, name, data) in &puts {
            assert_eq!(&reader.get(*step, name).unwrap(), data);
        }
    }
}
