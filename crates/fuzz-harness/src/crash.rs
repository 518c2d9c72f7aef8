//! Crash-injection harness for the store's commit protocol.
//!
//! The store writer claims ("old or new, never torn"): a reader
//! opening the store directory after a crash at *any* point during a
//! new generation's commit sees either the previously committed
//! generation or the fully committed new one — never a hybrid, never a
//! partial. That claim cannot be proven on a real filesystem, which
//! crashes on nobody's schedule; this module proves it on a simulated
//! one.
//!
//! # Fault model
//!
//! [`FaultFs`] implements the writer's [`StoreFs`] interface over an
//! in-memory disk that distinguishes, per file, *written* bytes from
//! *durable* (fsynced) bytes, and per directory, *live* name bindings
//! from *committed* (dir-fsynced) ones — because on a real kernel,
//! data you did not fsync and renames you did not fsync may or may not
//! survive a crash, independently.
//!
//! # Sweep strategy
//!
//! The sweep records one real [`ShardedStoreWriter`] run's operation
//! stream and then *replays* it against a snapshot of the committed
//! disk, once per operation boundary, killing the replay exactly
//! there. A killed `write` may leave a torn prefix of seeded length —
//! the bytes the kernel happened to flush. At sampled kill points the
//! sweep additionally runs the real writer with an armed budget, so
//! the cheap replays are anchored to real writer behavior.
//!
//! After each kill, the harness materializes **every** combination of
//! {unsynced data survived, lost} × {unsynced renames survived, lost}
//! to a real temporary directory and opens it with the verifying
//! [`StoreReader`]. Shard threads interleave their writes (and time
//! their group-commit `fdatasync`s) nondeterministically, so views are
//! compared by *logical content* — the `(step, variable) → bytes` map
//! the reader serves — which must equal the old generation's or the
//! new one's.

use crate::rng::Rng;
use isobar::IsobarOptions;
use isobar_store::{ShardedOptions, ShardedStoreWriter, StoreFile, StoreFs, StoreReader};
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// One recorded filesystem operation, with enough payload to replay
/// it bit-for-bit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// File creation (a directory mutation).
    Create(PathBuf),
    /// A `write_all` on the file created `id`-th.
    Write {
        /// Arena index of the target file.
        id: usize,
        /// The exact bytes written.
        data: Vec<u8>,
    },
    /// An fdatasync on the file created `id`-th.
    SyncData {
        /// Arena index of the target file.
        id: usize,
    },
    /// An atomic rename (a directory mutation).
    Rename(PathBuf, PathBuf),
    /// A file removal (a directory mutation).
    Remove(PathBuf),
    /// A directory fsync, committing pending directory mutations.
    SyncDir,
    /// A whole-file read (no state change, but a kill boundary: the
    /// writer reads the prior manifest before writing).
    ReadFile(PathBuf),
    /// Directory creation (modeled as a no-op in the flat namespace,
    /// but recorded as a kill boundary).
    CreateDirAll(PathBuf),
    /// A directory listing (no state change, but a kill boundary: the
    /// serve daemon's WAL replay enumerates journal files on startup).
    ListDir(PathBuf),
}

#[derive(Debug, Clone, Default)]
struct FileData {
    /// Everything written so far (durable prefix + unsynced tail).
    content: Vec<u8>,
    /// Length of the durable (fsynced) prefix.
    synced: usize,
}

/// One simulated disk: a single-directory namespace with per-file
/// durability and crash-at-operation-N fault injection.
#[derive(Debug, Clone, Default)]
struct DiskState {
    /// Every file object ever created; bindings refer in here, so a
    /// rename moves a binding without touching content, and an
    /// uncommitted unlink cannot destroy bytes an older binding may
    /// still resurrect after a crash.
    arena: Vec<FileData>,
    /// Current name bindings, as running code observes them.
    live: BTreeMap<PathBuf, usize>,
    /// Bindings as of the last directory fsync — what a crash
    /// guarantees.
    committed: BTreeMap<PathBuf, usize>,
    /// After a crash every operation fails and mutates nothing.
    dead: bool,
    /// Operations remaining before the injected crash (`None`: never).
    remaining: Option<u64>,
    /// Seeds the torn-prefix length when the dying op is a write.
    torn_seed: u64,
    /// Operations observed, for dry-run enumeration and replay.
    record: Vec<Op>,
}

impl DiskState {
    /// Gate an operation: count down the kill budget and report
    /// whether the op may proceed. `Err` means the crash happened (or
    /// already had); the op must have no effect beyond what the caller
    /// was explicitly told to tear.
    fn enter(&mut self) -> io::Result<()> {
        if self.dead {
            return Err(io::Error::other("disk is dead after injected crash"));
        }
        if let Some(rem) = self.remaining.as_mut() {
            if *rem == 0 {
                self.dead = true;
                return Err(io::Error::other("injected crash"));
            }
            *rem -= 1;
        }
        Ok(())
    }

    /// Apply one recorded operation, unconditionally (replay path).
    fn apply(&mut self, op: &Op) {
        match op {
            Op::Create(path) => {
                let id = self.arena.len();
                self.arena.push(FileData::default());
                self.live.insert(path.clone(), id);
            }
            Op::Write { id, data } => self.arena[*id].content.extend_from_slice(data),
            Op::SyncData { id } => {
                let file = &mut self.arena[*id];
                file.synced = file.content.len();
            }
            Op::Rename(from, to) => {
                let id = self.live.remove(from).expect("replayed rename source");
                self.live.insert(to.clone(), id);
            }
            Op::Remove(path) => {
                self.live.remove(path);
            }
            Op::SyncDir => self.committed = self.live.clone(),
            Op::ReadFile(_) | Op::CreateDirAll(_) | Op::ListDir(_) => {}
        }
    }

    /// Apply the crash-time partial effect of the dying operation: a
    /// write may leave a torn, never-synced prefix; everything else
    /// dies without a trace.
    fn apply_torn(&mut self, op: &Op, torn_seed: u64) {
        if let Op::Write { id, data } = op {
            if !data.is_empty() {
                let torn = (torn_seed % (data.len() as u64 + 1)) as usize;
                self.arena[*id].content.extend_from_slice(&data[..torn]);
            }
        }
        self.dead = true;
    }
}

/// The fault-injecting filesystem handed to [`ShardedStoreWriter`].
#[derive(Debug, Clone)]
pub struct FaultFs {
    state: Arc<Mutex<DiskState>>,
}

/// Lock the shared disk, recovering from poison. This filesystem is
/// deliberately handed to writers whose worker threads die mid-flight
/// (that is the whole point of fault injection), and a thread that
/// panics while touching the disk poisons this mutex for every later
/// operation. Each operation mutates the [`DiskState`] under a single
/// lock hold, so the state a poisoned guard exposes is the state some
/// completed operation left — safe to keep simulating against.
/// Propagating the poison instead would cascade one injected worker
/// panic into an unwrap panic in the harness's own accounting.
fn locked(state: &Mutex<DiskState>) -> std::sync::MutexGuard<'_, DiskState> {
    state.lock().unwrap_or_else(|e| e.into_inner())
}

/// An open file on a [`FaultFs`].
#[derive(Debug)]
pub struct FaultFile {
    state: Arc<Mutex<DiskState>>,
    id: usize,
}

impl FaultFs {
    /// A fresh, empty disk with no fault armed.
    pub fn new() -> Self {
        FaultFs {
            state: Arc::new(Mutex::new(DiskState::default())),
        }
    }

    /// An independent copy of this disk's current state, with the
    /// operation record cleared and no fault armed.
    pub fn fork(&self) -> Self {
        let mut st = locked(&self.state).clone();
        st.record.clear();
        st.remaining = None;
        st.dead = false;
        FaultFs {
            state: Arc::new(Mutex::new(st)),
        }
    }

    /// Arm the disk to crash on the `kill_at`-th operation (0-based).
    /// If that operation is a write, a torn prefix of seeded length
    /// may land before the crash.
    pub fn arm(&self, kill_at: u64, torn_seed: u64) {
        let mut st = locked(&self.state);
        st.remaining = Some(kill_at);
        st.torn_seed = torn_seed;
    }

    /// Operations recorded so far, in order, with payloads.
    pub fn recorded_ops(&self) -> Vec<Op> {
        locked(&self.state).record.clone()
    }

    /// Whether the armed crash has fired.
    pub fn crashed(&self) -> bool {
        locked(&self.state).dead
    }

    /// Every post-crash state of the *whole namespace*: the cross
    /// product of {unsynced file data lost, survived} × {unsynced
    /// directory mutations lost, survived}, as full file maps.
    /// Deduplicated; the first view is the fully-durable one (synced
    /// bytes under committed names).
    pub fn crash_dir_views(&self) -> Vec<BTreeMap<PathBuf, Vec<u8>>> {
        let st = locked(&self.state);
        let mut views = Vec::new();
        for bindings in [&st.committed, &st.live] {
            for full_content in [false, true] {
                let view: BTreeMap<PathBuf, Vec<u8>> = bindings
                    .iter()
                    .map(|(path, &id)| {
                        let file = &st.arena[id];
                        let len = if full_content {
                            file.content.len()
                        } else {
                            file.synced
                        };
                        (path.clone(), file.content[..len].to_vec())
                    })
                    .collect();
                if !views.contains(&view) {
                    views.push(view);
                }
            }
        }
        views
    }

    /// Fork `base` and replay `ops[..kill_at]` against it, then apply
    /// the torn partial effect of `ops[kill_at]` — the disk exactly as
    /// an armed real run killed at that boundary leaves it.
    pub fn replay_killed(base: &FaultFs, ops: &[Op], kill_at: usize, torn_seed: u64) -> FaultFs {
        let fs = base.fork();
        {
            let mut st = locked(&fs.state);
            for op in &ops[..kill_at] {
                st.apply(op);
            }
            st.apply_torn(&ops[kill_at], torn_seed);
        }
        fs
    }
}

impl Default for FaultFs {
    fn default() -> Self {
        Self::new()
    }
}

impl StoreFile for FaultFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        let mut st = locked(&self.state);
        match st.enter() {
            Ok(()) => {
                let op = Op::Write {
                    id: self.id,
                    data: buf.to_vec(),
                };
                st.apply(&op);
                st.record.push(op);
                Ok(())
            }
            Err(e) => {
                // The kernel may have flushed part of this write
                // before the crash: leave a torn, never-synced prefix.
                if st.dead && !buf.is_empty() {
                    let torn = (st.torn_seed % (buf.len() as u64 + 1)) as usize;
                    let id = self.id;
                    st.arena[id].content.extend_from_slice(&buf[..torn]);
                }
                Err(e)
            }
        }
    }

    fn sync_data(&mut self) -> io::Result<()> {
        let mut st = locked(&self.state);
        st.enter()?;
        let op = Op::SyncData { id: self.id };
        st.apply(&op);
        st.record.push(op);
        Ok(())
    }
}

impl StoreFs for FaultFs {
    type File = FaultFile;

    fn create(&self, path: &Path) -> io::Result<FaultFile> {
        let mut st = locked(&self.state);
        st.enter()?;
        let id = st.arena.len();
        let op = Op::Create(path.to_path_buf());
        st.apply(&op);
        st.record.push(op);
        Ok(FaultFile {
            state: Arc::clone(&self.state),
            id,
        })
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut st = locked(&self.state);
        st.enter()?;
        if !st.live.contains_key(from) {
            return Err(io::Error::from(io::ErrorKind::NotFound));
        }
        let op = Op::Rename(from.to_path_buf(), to.to_path_buf());
        st.apply(&op);
        st.record.push(op);
        Ok(())
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        let mut st = locked(&self.state);
        st.enter()?;
        if !st.live.contains_key(path) {
            return Err(io::Error::from(io::ErrorKind::NotFound));
        }
        let op = Op::Remove(path.to_path_buf());
        st.apply(&op);
        st.record.push(op);
        Ok(())
    }

    fn sync_dir(&self, _dir: &Path) -> io::Result<()> {
        let mut st = locked(&self.state);
        st.enter()?;
        st.apply(&Op::SyncDir);
        st.record.push(Op::SyncDir);
        Ok(())
    }

    fn read_file(&self, path: &Path) -> io::Result<Vec<u8>> {
        let mut st = locked(&self.state);
        st.enter()?;
        let op = Op::ReadFile(path.to_path_buf());
        st.record.push(op);
        let id = *st
            .live
            .get(path)
            .ok_or_else(|| io::Error::from(io::ErrorKind::NotFound))?;
        Ok(st.arena[id].content.clone())
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        let mut st = locked(&self.state);
        st.enter()?;
        let op = Op::CreateDirAll(path.to_path_buf());
        st.apply(&op);
        st.record.push(op);
        Ok(())
    }

    fn list_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        let mut st = locked(&self.state);
        st.enter()?;
        let op = Op::ListDir(dir.to_path_buf());
        st.record.push(op);
        Ok(st
            .live
            .keys()
            .filter(|path| path.parent() == Some(dir))
            .cloned()
            .collect())
    }
}

/// Outcome of one full crash sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashSweepOutcome {
    /// Operation boundaries the writer was killed at — one injected
    /// crash (plus all its disk views) per point.
    pub kill_points: u64,
    /// Post-crash disk views opened and checked across all kill
    /// points.
    pub views_checked: u64,
    /// Views in which the reader saw the prior generation.
    pub saw_old: u64,
    /// Views in which the reader saw the fully committed new generation.
    pub saw_new: u64,
    /// Kill points where the real armed writer was run and its disk
    /// held to the same old-or-new invariant.
    pub real_runs: u64,
}

/// Variables per generation in the sweep: enough that even a
/// single-shard generation whose I/O thread never group-commits spans
/// more than 40 filesystem operations.
pub const CRASH_SWEEP_ENTRIES: u32 = 16;

/// Every this-many kill points, the sweep runs the real armed writer
/// and asserts the old-or-new invariant over its post-crash disk.
pub(crate) const REAL_RUN_STRIDE: usize = 37;

pub(crate) fn payload(rng: &mut Rng, len: usize) -> Vec<u8> {
    // Half structured (compressible), half noise, so containers carry
    // both compressed and incompressible regions through the crash.
    let mut data = vec![0u8; len];
    for (i, byte) in data.iter_mut().enumerate().take(len / 2) {
        *byte = (i / 7) as u8;
    }
    let tail_start = len / 2;
    rng.fill(&mut data[tail_start..]);
    data
}

/// Write one store generation: `CRASH_SWEEP_ENTRIES` variables whose
/// contents derive from `revision`, so generation 1 supersedes every
/// key of generation 0 with different bytes.
fn write_revision(
    fs: &FaultFs,
    dir: &Path,
    shards: u16,
    revision: u64,
    seed: u64,
) -> Result<(), String> {
    let mut rng = Rng::new(seed ^ revision.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let writer = ShardedStoreWriter::create_in(
        fs.clone(),
        dir,
        IsobarOptions::default(),
        ShardedOptions {
            shards,
            queue_depth: 2,
        },
    )
    .map_err(|e| format!("create: {e}"))?;
    for step in 0..CRASH_SWEEP_ENTRIES {
        let data = payload(&mut rng, 1024);
        writer
            .put(step, "density", data, 8)
            .map_err(|e| format!("put step {step}: {e}"))?;
    }
    writer.close().map_err(|e| format!("close: {e}"))?;
    Ok(())
}

/// `(step, variable) → decompressed bytes` of a store's live entries.
type LogicalContent = BTreeMap<(u32, String), Vec<u8>>;

/// The live logical content of a materialized store directory, via
/// the verifying reader.
pub(crate) fn logical_content(dir: &Path) -> Result<LogicalContent, String> {
    let reader = StoreReader::open(dir).map_err(|e| format!("verifying open failed: {e}"))?;
    let mut map = BTreeMap::new();
    for entry in reader.live_entries() {
        let data = reader
            .get(entry.step, &entry.name)
            .map_err(|e| format!("decode ({}, {}) failed: {e}", entry.step, entry.name))?;
        map.insert((entry.step, entry.name.clone()), data);
    }
    Ok(map)
}

/// Write one namespace view into `scratch` as a real directory, for
/// the real [`StoreReader`] to open. All simulated paths live directly
/// under the store directory, so only file names are kept.
pub(crate) fn materialize_dir(
    view: &BTreeMap<PathBuf, Vec<u8>>,
    scratch: &Path,
) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(scratch);
    std::fs::create_dir_all(scratch).map_err(|e| format!("scratch mkdir: {e}"))?;
    for (path, content) in view {
        let name = path
            .file_name()
            .ok_or_else(|| format!("unnameable simulated path {}", path.display()))?;
        std::fs::write(scratch.join(name), content).map_err(|e| format!("scratch write: {e}"))?;
    }
    Ok(())
}

/// The two generations a crashed commit may legitimately leave behind.
struct Generations {
    old: LogicalContent,
    new: LogicalContent,
}

/// Materialize every admissible post-crash view of `fs` and read each
/// back: it must be exactly the old or the new generation. Returns
/// `(old views, new views)`.
fn check_views(
    fs: &FaultFs,
    kill_at: usize,
    scratch: &Path,
    generations: &Generations,
) -> Result<(u64, u64), String> {
    let mut seen = (0u64, 0u64);
    for (view_index, view) in fs.crash_dir_views().into_iter().enumerate() {
        materialize_dir(&view, scratch)?;
        let content = logical_content(scratch).map_err(|e| {
            format!(
                "kill point {kill_at} view {view_index} ({} files): {e}",
                view.len()
            )
        })?;
        if content == generations.new {
            seen.1 += 1;
        } else if content == generations.old {
            seen.0 += 1;
        } else {
            return Err(format!(
                "kill point {kill_at} view {view_index}: store content matches neither \
                 generation ({} live keys, old {}, new {})",
                content.len(),
                generations.old.len(),
                generations.new.len()
            ));
        }
    }
    Ok(seen)
}

/// Kill a `shards`-shard store writer at every recorded
/// filesystem-operation boundary of a generation commit and prove that
/// every admissible post-crash directory still reads as exactly the
/// old generation's content or exactly the new one's.
///
/// The torn-write lengths are deterministic in `seed`. Returns the
/// sweep outcome or the first violation, formatted with enough detail
/// to replay.
pub fn crash_sweep(seed: u64, shards: u16) -> Result<CrashSweepOutcome, String> {
    let dir = Path::new("store.v3");
    let scratch = std::env::temp_dir().join(format!(
        "isobar-crash-sweep-{}-{seed:016x}-s{shards}",
        std::process::id()
    ));
    // The fully-durable view of a disk no crash has touched.
    let committed_content = |fs: &FaultFs| -> Result<LogicalContent, String> {
        let view = fs
            .crash_dir_views()
            .into_iter()
            .next()
            .ok_or("commit left no committed view")?;
        materialize_dir(&view, &scratch)?;
        logical_content(&scratch)
    };

    // Baseline: generation 0 committed cleanly through the real writer.
    let base = FaultFs::new();
    write_revision(&base, dir, shards, 0, seed)?;
    let old = committed_content(&base).map_err(|e| format!("baseline generation: {e}"))?;
    let base = base.fork(); // clear the baseline's op record

    // Record generation 1's full operation stream once.
    let recorder = base.fork();
    write_revision(&recorder, dir, shards, 1, seed)?;
    let ops = recorder.recorded_ops();
    let new = committed_content(&recorder).map_err(|e| format!("recorded generation: {e}"))?;
    if new == old {
        return Err("generations are identical; the sweep would prove nothing".into());
    }
    let generations = Generations { old, new };

    let mut outcome = CrashSweepOutcome {
        kill_points: 0,
        views_checked: 0,
        saw_old: 0,
        saw_new: 0,
        real_runs: 0,
    };
    let mut torn_rng = Rng::new(seed ^ 0xC4A5_11F1_A57E_D000);

    for kill_at in 0..ops.len() {
        let torn_seed = torn_rng.next_u64();
        let fs = FaultFs::replay_killed(&base, &ops, kill_at, torn_seed);
        let (saw_old, saw_new) = check_views(&fs, kill_at, &scratch, &generations)?;
        outcome.kill_points += 1;
        outcome.views_checked += saw_old + saw_new;
        outcome.saw_old += saw_old;
        outcome.saw_new += saw_new;

        // At sampled points (and both ends), run the real writer with
        // an armed budget. Its op interleaving is its own, so only the
        // old-or-new invariant is asserted — not disk equality.
        if kill_at % REAL_RUN_STRIDE == 0 || kill_at == ops.len() - 1 {
            let real = base.fork();
            real.arm(kill_at as u64, torn_seed);
            let survived = write_revision(&real, dir, shards, 1, seed).is_ok();
            let (saw_old, _) = check_views(&real, kill_at, &scratch, &generations)?;
            match (survived, real.crashed()) {
                (false, true) => {}
                // The I/O threads' group-commit fdatasync count depends
                // on thread timing, so this run may simply have needed
                // fewer operations than the armed budget. Then it is a
                // completed commit and must read as one.
                (true, false) if saw_old == 0 => {}
                (true, false) => {
                    return Err(format!(
                        "kill point {kill_at}: writer finished inside its armed budget \
                         ({} ops recorded) but {saw_old} views still read as the old generation",
                        ops.len()
                    ))
                }
                (true, true) => {
                    return Err(format!(
                        "kill point {kill_at}: writer reported success across an injected crash"
                    ))
                }
                (false, false) => {
                    return Err(format!(
                        "kill point {kill_at}: writer failed before the armed crash fired"
                    ))
                }
            }
            outcome.real_runs += 1;
        }
    }
    let _ = std::fs::remove_dir_all(&scratch);

    // A sweep that never reached the commit point, or whose kills all
    // landed after it, would vacuously pass — demand both outcomes.
    if outcome.saw_old == 0 || outcome.saw_new == 0 {
        return Err(format!(
            "degenerate sweep: {} old views, {} new views — kills missed the commit point",
            outcome.saw_old, outcome.saw_new
        ));
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What each admissible post-crash namespace holds at `path`.
    fn views_at(fs: &FaultFs, path: &Path) -> Vec<Option<Vec<u8>>> {
        fs.crash_dir_views()
            .into_iter()
            .map(|view| view.get(path).cloned())
            .collect()
    }

    /// The fully-durable content at `path`: synced bytes under a
    /// dir-synced name.
    fn durable_at(fs: &FaultFs, path: &Path) -> Option<Vec<u8>> {
        views_at(fs, path).swap_remove(0)
    }

    #[test]
    fn fault_fs_separates_durable_from_volatile() {
        let fs = FaultFs::new();
        let p = Path::new("f");
        let mut f = fs.create(p).unwrap();
        f.write_all(b"abc").unwrap();
        f.sync_data().unwrap();
        f.write_all(b"def").unwrap();
        // Name never dir-synced: committed view has no file at all.
        let views = views_at(&fs, p);
        assert!(views.contains(&None), "uncommitted creation can vanish");
        assert!(views.contains(&Some(b"abc".to_vec())), "synced data only");
        assert!(views.contains(&Some(b"abcdef".to_vec())), "volatile tail");
        fs.sync_dir(Path::new(".")).unwrap();
        assert_eq!(durable_at(&fs, p).unwrap(), b"abc");
    }

    #[test]
    fn poisoned_disk_lock_recovers() {
        // A worker thread dying while it holds the disk lock (exactly
        // what fault injection provokes) must not wedge every later
        // FaultFs operation behind a PoisonError.
        let fs = FaultFs::new();
        let clone = fs.clone();
        let poisoner = std::thread::spawn(move || {
            let _guard = clone.state.lock().unwrap();
            panic!("die while holding the disk lock");
        });
        assert!(poisoner.join().is_err(), "poisoner must have panicked");
        assert!(fs.state.lock().is_err(), "lock is actually poisoned");

        // The full public surface still works on the poisoned lock.
        let p = Path::new("f");
        let mut f = fs.create(p).unwrap();
        f.write_all(b"abc").unwrap();
        f.sync_data().unwrap();
        fs.sync_dir(Path::new(".")).unwrap();
        assert_eq!(durable_at(&fs, p).unwrap(), b"abc");
        assert!(!fs.crashed());
        assert_eq!(fs.recorded_ops().len(), 4);
        let fork = fs.fork();
        assert_eq!(fork.recorded_ops().len(), 0);
        assert_eq!(durable_at(&fork, p).unwrap(), b"abc");
    }

    #[test]
    fn armed_write_tears_at_seeded_length() {
        let fs = FaultFs::new();
        let p = Path::new("f");
        let mut f = fs.create(p).unwrap();
        fs.sync_dir(Path::new(".")).unwrap();
        fs.arm(0, 2); // next op dies; torn prefix = 2 % (len+1)
        assert!(f.write_all(b"abcd").is_err());
        assert!(fs.crashed());
        let views = views_at(&fs, p);
        assert!(views.contains(&Some(b"ab".to_vec())), "torn prefix kept");
        // After death, everything fails and nothing changes.
        assert!(f.write_all(b"x").is_err());
        assert!(fs.remove_file(p).is_err());
    }

    #[test]
    fn rename_is_volatile_until_dir_sync() {
        let fs = FaultFs::new();
        let a = Path::new("a");
        let b = Path::new("b");
        let mut f = fs.create(a).unwrap();
        f.write_all(b"xy").unwrap();
        f.sync_data().unwrap();
        fs.sync_dir(Path::new(".")).unwrap();
        fs.rename(a, b).unwrap();
        // Crash now: b exists only in the live namespace.
        let at_b = views_at(&fs, b);
        assert!(at_b.contains(&None), "unsynced rename can be lost");
        assert!(at_b.contains(&Some(b"xy".to_vec())));
        let at_a = views_at(&fs, a);
        assert!(at_a.contains(&Some(b"xy".to_vec())), "old name can persist");
        fs.sync_dir(Path::new(".")).unwrap();
        assert_eq!(durable_at(&fs, b).unwrap(), b"xy");
        assert!(durable_at(&fs, a).is_none());
    }
}
