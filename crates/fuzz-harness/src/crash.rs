//! Crash-injection sweep: kill a real run at every filesystem-operation
//! boundary and check what a crash there leaves behind.
//!
//! Two contracts rest on crash behaviour. The store writer promises
//! "old or new, never torn": a reader opening the store directory after
//! a crash at *any* point of a generation commit sees the previously
//! committed generation or the fully committed new one. The serve
//! daemon promises "acked means durable": a put whose `Ok` was written
//! survives an immediate crash. Neither can be proven on a real
//! filesystem, which crashes on nobody's schedule; this module proves
//! both on a simulated one, with one loop ([`crash_sweep`]) over two
//! [`Subject`]s ([`StoreCommit`], [`ServePuts`]).
//!
//! # Fault model
//!
//! [`FaultFs`] implements the writer's [`StoreFs`] interface over an
//! in-memory disk that distinguishes, per file, *written* bytes from
//! *durable* (fsynced) bytes, and per directory, *live* name bindings
//! from *committed* (dir-fsynced) ones — because on a real kernel,
//! data you did not fsync and renames you did not fsync may or may not
//! survive a crash, independently. An armed disk crashes on its N-th
//! operation; a dying write leaves a torn prefix of seeded length.
//!
//! # Sweep
//!
//! The sweep commits the subject's baseline, records one run of its
//! script, and then, for every recorded operation N, runs the script
//! again on a copy of the baseline armed to crash on operation N. Every
//! armed run must crash, after exactly the recorded operations `0..N`
//! and on exactly operation N: a run that finished, failed early or
//! took another path is an error, never a skipped point. After each
//! kill, every combination of {unsynced data survived, lost} ×
//! {unsynced renames survived, lost} is written to a real temporary
//! directory, reopened, and handed to the subject's oracle. The
//! finished recording is checked last as the end point: nothing
//! crashed, so every view must show the completed script.
//!
//! # Determinism
//!
//! Holding armed runs to the recording needs a subject's operation
//! stream to be a function of its seed. The writer's shard threads
//! would otherwise interleave on their own schedule, so the harness
//! paces puts: it sends the next put only after the disk has seen the
//! `fdatasync` the shard's I/O thread makes when its queue runs empty
//! behind the previous record (`FaultFs::await_syncs`). The writer
//! seals its shards one at a time, in shard order.

use crate::rng::Rng;
use isobar::{IsobarOptions, Preference};
use isobar_server::core::GetSource;
use isobar_server::daemon::store_key;
use isobar_server::{CoreOptions, StoreCore};
use isobar_store::{
    ShardedOptions, ShardedStoreWriter, StoreError, StoreFile, StoreFs, StoreReader,
};
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// One recorded filesystem operation, with its payload.
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
    /// Directory creation (a no-op in the flat namespace, but a kill
    /// boundary).
    CreateDirAll(PathBuf),
    /// A directory listing (no state change, but a kill boundary: the
    /// serve daemon's journal replay enumerates journal files).
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
    /// Operations remaining before the injected crash (`None`: never).
    remaining: Option<u64>,
    /// Seeds the torn-prefix length when the dying op is a write.
    torn_seed: u64,
    /// The operation the injected crash interrupted. After a crash
    /// every operation fails and mutates nothing.
    fatal: Option<Op>,
    /// Operations performed since the last fork, in order.
    record: Vec<Op>,
    /// File fdatasyncs performed, for pacing puts.
    syncs: usize,
}

impl DiskState {
    /// Perform one operation, or crash on it if the armed budget is
    /// spent: a dying write leaves a torn, never-synced prefix, every
    /// other dying op leaves no trace. A rename or removal of a missing
    /// name fails with `NotFound` and is not an operation at all.
    fn perform(&mut self, op: Op) -> io::Result<()> {
        if self.fatal.is_some() {
            return Err(io::Error::other("disk is dead after injected crash"));
        }
        if let Op::Rename(path, _) | Op::Remove(path) = &op {
            self.require_live(path)?;
        }
        if self.remaining == Some(0) {
            if let Op::Write { id, data } = &op {
                let torn = (self.torn_seed % (data.len() as u64 + 1)) as usize;
                self.arena[*id].content.extend_from_slice(&data[..torn]);
            }
            self.fatal = Some(op);
            return Err(io::Error::other("injected crash"));
        }
        if let Some(remaining) = &mut self.remaining {
            *remaining -= 1;
        }
        match &op {
            Op::Create(path) => {
                self.live.insert(path.clone(), self.arena.len());
                self.arena.push(FileData::default());
            }
            Op::Write { id, data } => self.arena[*id].content.extend_from_slice(data),
            Op::SyncData { id } => {
                let file = &mut self.arena[*id];
                file.synced = file.content.len();
                self.syncs += 1;
            }
            Op::Rename(from, to) => {
                let id = self.live.remove(from).expect("rename source checked");
                self.live.insert(to.clone(), id);
            }
            Op::Remove(path) => {
                self.live.remove(path);
            }
            Op::SyncDir => self.committed = self.live.clone(),
            Op::ReadFile(_) | Op::CreateDirAll(_) | Op::ListDir(_) => {}
        }
        self.record.push(op);
        Ok(())
    }

    fn require_live(&self, path: &Path) -> io::Result<usize> {
        self.live
            .get(path)
            .copied()
            .ok_or_else(|| io::Error::from(io::ErrorKind::NotFound))
    }
}

/// A disk and the condition variable its operations signal.
#[derive(Debug, Default)]
struct Disk {
    state: Mutex<DiskState>,
    changed: Condvar,
}

impl Disk {
    /// Lock the disk, recovering from poison. This filesystem is
    /// deliberately handed to writers whose worker threads die
    /// mid-flight, and a thread that panics while touching the disk
    /// poisons this mutex for every later operation. Each operation
    /// mutates the [`DiskState`] under a single lock hold, so the state
    /// a poisoned guard exposes is the state some completed operation
    /// left — safe to keep simulating against.
    fn lock(&self) -> MutexGuard<'_, DiskState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Perform `op` and wake every waiter; on success, hand back the
    /// lock so the caller reads the result under the same hold.
    fn perform(&self, op: Op) -> io::Result<MutexGuard<'_, DiskState>> {
        let mut st = self.lock();
        let result = st.perform(op);
        self.changed.notify_all();
        result.map(|()| st)
    }
}

/// The fault-injecting filesystem handed to the subjects.
#[derive(Debug, Clone, Default)]
pub struct FaultFs {
    disk: Arc<Disk>,
}

/// An open file on a [`FaultFs`].
#[derive(Debug)]
pub struct FaultFile {
    disk: Arc<Disk>,
    id: usize,
}

/// How long a paced put may wait for its fdatasync before the sweep
/// reports the writer as stuck.
const PACE_TIMEOUT: Duration = Duration::from_secs(30);

impl FaultFs {
    /// A fresh, empty disk with no fault armed.
    pub fn new() -> Self {
        Self::default()
    }

    /// An independent copy of this disk's current state, with the
    /// operation record cleared and no fault armed.
    pub fn fork(&self) -> Self {
        let mut st = self.disk.lock().clone();
        st.record.clear();
        st.remaining = None;
        st.fatal = None;
        FaultFs {
            disk: Arc::new(Disk {
                state: Mutex::new(st),
                changed: Condvar::new(),
            }),
        }
    }

    /// Arm the disk to crash on the `kill_at`-th operation from now
    /// (0-based). If that operation is a write, a torn prefix of
    /// seeded length lands before the crash.
    pub fn arm(&self, kill_at: u64, torn_seed: u64) {
        let mut st = self.disk.lock();
        st.remaining = Some(kill_at);
        st.torn_seed = torn_seed;
    }

    /// Operations recorded since the last fork, in order, with
    /// payloads.
    pub fn recorded_ops(&self) -> Vec<Op> {
        self.disk.lock().record.clone()
    }

    /// Whether the armed crash has fired.
    pub fn crashed(&self) -> bool {
        self.disk.lock().fatal.is_some()
    }

    /// Whether this disk performed exactly `ops[..kill_at]` and then
    /// crashed on `ops[kill_at]`: an armed run that took the recorded
    /// path to its kill point.
    pub fn died_on(&self, ops: &[Op], kill_at: usize) -> bool {
        let st = self.disk.lock();
        st.record == ops[..kill_at] && st.fatal.as_ref() == ops.get(kill_at)
    }

    /// File fdatasyncs performed so far.
    pub(crate) fn syncs(&self) -> usize {
        self.disk.lock().syncs
    }

    /// Block until the disk has performed `n` file fdatasyncs. Fails if
    /// the disk crashes first, or if none arrives for a long time.
    pub(crate) fn await_syncs(&self, n: usize) -> Result<(), String> {
        let st = self.disk.lock();
        let (st, timeout) = self
            .disk
            .changed
            .wait_timeout_while(st, PACE_TIMEOUT, |st| st.syncs < n && st.fatal.is_none())
            .unwrap_or_else(|e| e.into_inner());
        if st.fatal.is_some() {
            Err("disk crashed before the put's fdatasync".into())
        } else if timeout.timed_out() {
            Err(format!("no fdatasync within {PACE_TIMEOUT:?}"))
        } else {
            Ok(())
        }
    }

    /// Every post-crash state of the *whole namespace*: the cross
    /// product of {unsynced file data lost, survived} × {unsynced
    /// directory mutations lost, survived}, as full file maps.
    /// Deduplicated; the first view is the fully-durable one (synced
    /// bytes under committed names).
    pub fn crash_dir_views(&self) -> Vec<BTreeMap<PathBuf, Vec<u8>>> {
        let st = self.disk.lock();
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
}

impl StoreFile for FaultFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        let data = buf.to_vec();
        self.disk.perform(Op::Write { id: self.id, data }).map(drop)
    }

    fn sync_data(&mut self) -> io::Result<()> {
        self.disk.perform(Op::SyncData { id: self.id }).map(drop)
    }
}

impl StoreFs for FaultFs {
    type File = FaultFile;

    fn create(&self, path: &Path) -> io::Result<FaultFile> {
        let st = self.disk.perform(Op::Create(path.to_path_buf()))?;
        Ok(FaultFile {
            disk: Arc::clone(&self.disk),
            id: st.arena.len() - 1,
        })
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let op = Op::Rename(from.to_path_buf(), to.to_path_buf());
        self.disk.perform(op).map(drop)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.disk.perform(Op::Remove(path.to_path_buf())).map(drop)
    }

    fn sync_dir(&self, _dir: &Path) -> io::Result<()> {
        self.disk.perform(Op::SyncDir).map(drop)
    }

    fn read_file(&self, path: &Path) -> io::Result<Vec<u8>> {
        let st = self.disk.perform(Op::ReadFile(path.to_path_buf()))?;
        Ok(st.arena[st.require_live(path)?].content.clone())
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.disk
            .perform(Op::CreateDirAll(path.to_path_buf()))
            .map(drop)
    }

    fn list_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        Ok(self
            .disk
            .perform(Op::ListDir(dir.to_path_buf()))?
            .live
            .keys()
            .filter(|path| path.parent() == Some(dir))
            .cloned()
            .collect())
    }

    /// Reads what running code would see (synced or not) and records
    /// no operation, so read-backs never move a kill point.
    fn read_at(&self, path: &Path, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        let st = self.disk.lock();
        if st.fatal.is_some() {
            return Err(io::Error::other("disk is dead after injected crash"));
        }
        let content = &st.arena[st.require_live(path)?].content;
        let src = usize::try_from(offset)
            .ok()
            .and_then(|at| content.get(at..at.checked_add(buf.len())?))
            .ok_or_else(|| io::Error::from(io::ErrorKind::UnexpectedEof))?;
        buf.copy_from_slice(src);
        Ok(())
    }
}

/// Outcome of one full crash sweep. Each subject fills the counters
/// its oracle keeps and leaves the others at 0.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CrashSweepOutcome {
    /// Armed runs, one per recorded operation; each crashed on it.
    pub kill_points: u64,
    /// Post-crash directory views reopened and checked, the end
    /// point's included.
    pub views_checked: u64,
    /// [`StoreCommit`]: views that read as the old generation.
    pub saw_old: u64,
    /// [`StoreCommit`]: views that read as the new generation.
    pub saw_new: u64,
    /// [`ServePuts`]: acked (or baseline) puts read back bit-exact,
    /// summed over views.
    pub acked_verified: u64,
    /// [`ServePuts`]: of those, reads the replayed journal served; the
    /// rest came from a committed generation.
    pub journal_served: u64,
}

/// A script run under fault injection, and the oracle for what a crash
/// in it may leave behind.
pub trait Subject {
    /// What a run promised before it stopped (a commit reported, puts
    /// acked): the oracle's input.
    type Promise: Default;

    /// Seeds the payloads and the torn-write lengths.
    fn seed(&self) -> u64;

    /// Commit the state every run of the script starts from.
    fn baseline(&self, fs: &FaultFs) -> Result<(), String>;

    /// Run the script on `fs`, recording each promise as it is made.
    fn run(&self, fs: &FaultFs, promised: &mut Self::Promise) -> Result<(), String>;

    /// Check one reopened post-crash directory against what the run
    /// had promised, counting into `outcome`.
    fn check(
        &self,
        dir: &Path,
        promised: &Self::Promise,
        outcome: &mut CrashSweepOutcome,
    ) -> Result<(), String>;

    /// Why a sweep that passed still proved nothing, if it did.
    fn vacuous(&self, outcome: &CrashSweepOutcome) -> Option<String>;
}

/// A per-sweep scratch directory, removed when the sweep returns,
/// whether it passed or not.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        Scratch(std::env::temp_dir().join(format!(
            "isobar-crash-sweep-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        )))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Commit the subject's baseline and record one full run of its
/// script. Returns the baseline disk (every run forks it), the
/// recording's disk and what the recording promised.
pub fn record<S: Subject>(subject: &S) -> Result<(FaultFs, FaultFs, S::Promise), String> {
    let base = FaultFs::new();
    subject
        .baseline(&base)
        .map_err(|e| format!("baseline: {e}"))?;
    let recorder = base.fork();
    let mut promised = S::Promise::default();
    subject
        .run(&recorder, &mut promised)
        .map_err(|e| format!("recording run: {e}"))?;
    Ok((base, recorder, promised))
}

/// Kill a real run of `subject`'s script at every recorded operation
/// boundary, then check the finished recording as the end point; every
/// admissible post-crash view of every disk must pass the subject's
/// oracle.
///
/// Deterministic in the subject's seed. Returns the sweep outcome or
/// the first violation, naming the kill point and view.
pub fn crash_sweep<S: Subject>(subject: &S) -> Result<CrashSweepOutcome, String> {
    let scratch = Scratch::new();
    let (base, recorder, promised) = record(subject)?;
    let ops = recorder.recorded_ops();
    let mut outcome = CrashSweepOutcome::default();
    let mut torn_rng = Rng::new(subject.seed() ^ 0xC4A5_11F1_A57E_D000);
    for kill_at in 0..ops.len() {
        let armed = base.fork();
        armed.arm(kill_at as u64, torn_rng.next_u64());
        let mut promised = S::Promise::default();
        // The run's own error is the crash; `died_on` proves it was
        // nothing else.
        let _ = subject.run(&armed, &mut promised);
        if !armed.died_on(&ops, kill_at) {
            return Err(format!(
                "kill point {kill_at}: the armed run {} ({} ops recorded)",
                if armed.crashed() {
                    "left the recorded path before its crash"
                } else {
                    "finished without crashing"
                },
                ops.len()
            ));
        }
        outcome.kill_points += 1;
        let point = format!("kill point {kill_at}");
        check_views(subject, &armed, &promised, &point, &scratch, &mut outcome)?;
    }
    let point = "end point (no crash)";
    check_views(subject, &recorder, &promised, point, &scratch, &mut outcome)?;
    match subject.vacuous(&outcome) {
        Some(why) => Err(format!("degenerate sweep: {why}")),
        None => Ok(outcome),
    }
}

fn check_views<S: Subject>(
    subject: &S,
    fs: &FaultFs,
    promised: &S::Promise,
    point: &str,
    scratch: &Scratch,
    outcome: &mut CrashSweepOutcome,
) -> Result<(), String> {
    for (view_index, view) in fs.crash_dir_views().iter().enumerate() {
        materialize_dir(view, &scratch.0)?;
        subject
            .check(&scratch.0, promised, outcome)
            .map_err(|e| format!("{point} view {view_index} ({} files): {e}", view.len()))?;
        outcome.views_checked += 1;
    }
    Ok(())
}

/// Write one namespace view into `scratch` as a real directory. All
/// simulated paths live directly under the store directory, so only
/// file names are kept.
fn materialize_dir(view: &BTreeMap<PathBuf, Vec<u8>>, scratch: &Path) -> Result<(), String> {
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

fn payload(rng: &mut Rng, len: usize) -> Vec<u8> {
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

/// Compression options of both subjects' puts. The sweep proves the
/// commit and journal protocols, not a solver, and every kill point
/// compresses its run's payloads anew: the speed preference keeps that
/// cheap in unoptimized builds.
fn sweep_options() -> IsobarOptions {
    IsobarOptions {
        preference: Preference::Speed,
        ..IsobarOptions::default()
    }
}

/// Send one put, then wait for the fdatasync the shard's I/O thread
/// makes once its queue is empty behind the record: one flush per
/// record, whatever the thread timing.
fn paced_put(
    fs: &FaultFs,
    what: &str,
    put: impl FnOnce() -> Result<(), StoreError>,
) -> Result<(), String> {
    let syncs = fs.syncs();
    put().map_err(|e| format!("{what}: {e}"))?;
    fs.await_syncs(syncs + 1)
        .map_err(|e| format!("{what}: {e}"))
}

/// Variables per store generation: enough that a single-shard
/// generation spans more than 60 filesystem operations.
const CRASH_SWEEP_ENTRIES: u32 = 16;

/// `(step, variable) → decompressed bytes` of a store's live entries.
type LogicalContent = BTreeMap<(u32, String), Vec<u8>>;

/// The store subject: a sharded writer commits generation 1 over a
/// committed generation 0 that it wholly supersedes. Oracle: every view
/// reads as exactly the old generation or exactly the new one, and as
/// the new one once `close` has returned `Ok`.
#[derive(Debug, Clone, Copy)]
pub struct StoreCommit {
    /// Seeds the payloads and torn-write lengths.
    pub seed: u64,
    /// Shards per generation.
    pub shards: u16,
}

impl StoreCommit {
    /// Generation `revision`'s content: `CRASH_SWEEP_ENTRIES` variables
    /// whose bytes derive from `revision`, so generation 1 supersedes
    /// every key of generation 0 with different bytes.
    fn revision(&self, revision: u64) -> LogicalContent {
        let mut rng = Rng::new(self.seed ^ revision.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        (0..CRASH_SWEEP_ENTRIES)
            .map(|step| ((step, "density".to_string()), payload(&mut rng, 1024)))
            .collect()
    }

    fn write_revision(&self, fs: &FaultFs, revision: u64) -> Result<(), String> {
        let writer = ShardedStoreWriter::create_in(
            fs.clone(),
            "store.v3",
            sweep_options(),
            ShardedOptions {
                shards: self.shards,
                queue_depth: 2,
            },
        )
        .map_err(|e| format!("create: {e}"))?;
        for ((step, name), data) in self.revision(revision) {
            paced_put(fs, &format!("put step {step}"), || {
                writer.put(step, &name, data, 8)
            })?;
        }
        writer.close().map_err(|e| format!("close: {e}"))?;
        Ok(())
    }
}

impl Subject for StoreCommit {
    /// Whether `close` returned `Ok`.
    type Promise = bool;

    fn seed(&self) -> u64 {
        self.seed
    }

    fn baseline(&self, fs: &FaultFs) -> Result<(), String> {
        self.write_revision(fs, 0)
    }

    fn run(&self, fs: &FaultFs, committed: &mut bool) -> Result<(), String> {
        self.write_revision(fs, 1)?;
        *committed = true;
        Ok(())
    }

    fn check(
        &self,
        dir: &Path,
        committed: &bool,
        outcome: &mut CrashSweepOutcome,
    ) -> Result<(), String> {
        let reader = StoreReader::open(dir).map_err(|e| format!("verifying open failed: {e}"))?;
        let mut content = LogicalContent::new();
        for entry in reader.live_entries() {
            let data = reader
                .get(entry.step, &entry.name)
                .map_err(|e| format!("decode ({}, {}) failed: {e}", entry.step, entry.name))?;
            content.insert((entry.step, entry.name.clone()), data);
        }
        if content == self.revision(1) {
            outcome.saw_new += 1;
        } else if content != self.revision(0) {
            return Err(format!(
                "store content matches neither generation ({} live keys)",
                content.len()
            ));
        } else if *committed {
            return Err("close returned Ok, but the store reads as the old generation".into());
        } else {
            outcome.saw_old += 1;
        }
        Ok(())
    }

    fn vacuous(&self, outcome: &CrashSweepOutcome) -> Option<String> {
        (outcome.saw_old == 0 || outcome.saw_new == 0).then(|| {
            format!(
                "{} old views, {} new views — kills missed the commit point",
                outcome.saw_old, outcome.saw_new
            )
        })
    }
}

/// Tenant every scripted serve put uses.
const TENANT: &str = "crash-tenant";

/// Scripted serve puts before the mid-script commit.
const PUTS_BEFORE_COMMIT: usize = 7;

/// Scripted serve puts after the commit — acked but never committed,
/// so the journal alone protects them at the end of the script.
const PUTS_AFTER_COMMIT: usize = 5;

/// One scripted serve put.
#[derive(Debug, Clone)]
struct ScriptPut {
    step: u32,
    /// Bare variable name, as the wire protocol carries it (and as the
    /// journal records it).
    name: String,
    /// Full store key (tenant-prefixed), as the daemon builds it.
    key: String,
    payload: Vec<u8>,
}

impl ScriptPut {
    fn new(rng: &mut Rng, step: u32, name: String) -> Self {
        ScriptPut {
            step,
            key: store_key(TENANT, &name),
            name,
            payload: payload(rng, 256),
        }
    }
}

/// The serve subject: the daemon's store engine (`StoreCore`, the same
/// methods a live daemon calls) runs puts, a mid-script generation
/// commit, more puts, then an un-closed drop, like a daemon dying
/// between commits. A put counts as acked once its `wal_append` — the
/// ack barrier — returns. Oracle: every view, reopened through the
/// real engine (genuine startup journal replay), serves every acked
/// put bit-exact.
#[derive(Debug, Clone)]
pub struct ServePuts {
    seed: u64,
    /// Committed before the script: one key it never touches, one it
    /// supersedes.
    baseline: Vec<ScriptPut>,
    script: Vec<ScriptPut>,
    /// Count a put as acked before its `wal_append` runs. Only a test
    /// sets this, to prove the oracle catches a broken ack barrier.
    ack_before_journal: bool,
}

impl ServePuts {
    /// The script for `seed`. It includes a same-key rewrite inside
    /// the script (overlay and writer supersede) and a rewrite of a
    /// baseline-committed key (cross-generation supersede).
    pub fn new(seed: u64) -> Self {
        let mut rng = Rng::new(seed ^ 0xBA5E_11E0_0000_0001);
        let baseline = ["keep", "super"]
            .map(|name| ScriptPut::new(&mut rng, 0, name.to_string()))
            .into();
        let mut rng = Rng::new(seed ^ 0x5E7E_CA11_0000_0002);
        let script = (0..PUTS_BEFORE_COMMIT + PUTS_AFTER_COMMIT)
            .map(|i| {
                let (step, name) = match i {
                    2 => (0, "super".to_string()),
                    4 => (1, "v3".to_string()),
                    _ => ((i / 3) as u32, format!("v{i}")),
                };
                ScriptPut::new(&mut rng, step, name)
            })
            .collect();
        ServePuts {
            seed,
            baseline,
            script,
            ack_before_journal: false,
        }
    }

    /// Engine options for the session. The reader stays closed on the
    /// simulated disk (it maps real files) and the commit threshold is
    /// out of reach — the script commits explicitly.
    fn core_opts(open_reader: bool) -> CoreOptions {
        CoreOptions {
            isobar: sweep_options(),
            shards: 2,
            queue_depth: 2,
            commit_threshold: u64::MAX,
            wal: true,
            open_reader,
        }
    }

    /// `store_put` → `wal_append` (the ack barrier) → `overlay_insert`,
    /// as the daemon runs a put; `acked` counts the ack.
    fn put(
        &self,
        fs: &FaultFs,
        core: &mut StoreCore<FaultFs>,
        put: &ScriptPut,
        acked: &mut usize,
    ) -> Result<(), String> {
        paced_put(fs, &format!("store_put {}", put.key), || {
            core.store_put(put.step, &put.key, put.payload.clone(), 8)
        })?;
        if self.ack_before_journal {
            *acked += 1;
        }
        core.wal_append(TENANT, put.step, &put.name, 8, &put.payload)
            .map_err(|e| format!("wal_append {}: {e}", put.key))?;
        if !self.ack_before_journal {
            // The ack barrier returned: a real daemon writes `Ok` now.
            *acked += 1;
        }
        core.overlay_insert(put.step, put.key.clone(), 8, put.payload.clone());
        Ok(())
    }

    fn session(
        &self,
        fs: &FaultFs,
        puts: &[ScriptPut],
        acked: &mut usize,
    ) -> Result<StoreCore<FaultFs>, String> {
        let mut core = StoreCore::open(fs.clone(), "serve.store", Self::core_opts(false))
            .map_err(|e| format!("open: {e}"))?;
        for (i, put) in puts.iter().enumerate() {
            self.put(fs, &mut core, put, acked)?;
            if i + 1 == PUTS_BEFORE_COMMIT {
                core.commit().map_err(|e| format!("commit: {e}"))?;
            }
        }
        Ok(core)
    }
}

impl Subject for ServePuts {
    /// How many script puts were acked, in script order.
    type Promise = usize;

    fn seed(&self) -> u64 {
        self.seed
    }

    fn baseline(&self, fs: &FaultFs) -> Result<(), String> {
        let mut core = self.session(fs, &self.baseline, &mut 0)?;
        core.commit()
            .map_err(|e| format!("commit: {e}"))?
            .ok_or("baseline commit was empty")?;
        Ok(())
    }

    fn run(&self, fs: &FaultFs, acked: &mut usize) -> Result<(), String> {
        // Dropped un-closed: the writer aborts its segments and the
        // journal alone carries the post-commit puts.
        drop(self.session(fs, &self.script, acked)?);
        Ok(())
    }

    fn check(
        &self,
        dir: &Path,
        acked: &usize,
        outcome: &mut CrashSweepOutcome,
    ) -> Result<(), String> {
        let core = StoreCore::open_real(dir, Self::core_opts(true))
            .map_err(|e| format!("post-crash open failed: {e}"))?;
        // Acked means exactly this value (last wins). The first unacked
        // put is the only one whose journal record can have landed; its
        // client saw no ack, so its value is admissible too.
        let mut must: BTreeMap<(u32, &str), &[u8]> = BTreeMap::new();
        for put in self.baseline.iter().chain(&self.script[..*acked]) {
            must.insert((put.step, &put.key), &put.payload);
        }
        let in_flight = self.script.get(*acked);
        let admissible = |step: u32, key: &str, got: &[u8]| {
            must.get(&(step, key)) == Some(&got)
                || in_flight
                    .is_some_and(|p| (p.step, p.key.as_str(), &p.payload[..]) == (step, key, got))
        };
        for &(step, key) in must.keys() {
            let (got, source) = core
                .get(step, key)
                .map_err(|e| format!("acked put ({step}, {key}) lost after crash: {e}"))?;
            if !admissible(step, key, &got) {
                return Err(format!(
                    "put ({step}, {key}) corrupted after crash ({} bytes)",
                    got.len()
                ));
            }
            outcome.acked_verified += 1;
            outcome.journal_served += u64::from(source == GetSource::Overlay);
        }
        if let Some(p) = in_flight {
            if let Ok((got, _)) = core.get(p.step, &p.key) {
                if !admissible(p.step, &p.key, &got) {
                    return Err(format!(
                        "unacked put ({}, {}) read back corrupted ({} bytes)",
                        p.step,
                        p.key,
                        got.len()
                    ));
                }
            }
        }
        Ok(())
    }

    fn vacuous(&self, outcome: &CrashSweepOutcome) -> Option<String> {
        let committed = outcome.acked_verified - outcome.journal_served;
        (outcome.journal_served == 0 || committed == 0).then(|| {
            format!(
                "{} journal-served, {committed} committed-served — kills missed the journal \
                 or the commit",
                outcome.journal_served
            )
        })
    }
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
            let _guard = clone.disk.state.lock().unwrap();
            panic!("die while holding the disk lock");
        });
        assert!(poisoner.join().is_err(), "poisoner must have panicked");
        assert!(fs.disk.state.lock().is_err(), "lock is actually poisoned");

        // The full public surface still works on the poisoned lock.
        let p = Path::new("f");
        let mut f = fs.create(p).unwrap();
        f.write_all(b"abc").unwrap();
        f.sync_data().unwrap();
        fs.await_syncs(1).unwrap();
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
        let ops = fs.recorded_ops();
        fs.arm(0, 2); // next op dies; torn prefix = 2 % (len+1)
        assert!(f.write_all(b"abcd").is_err());
        assert!(fs.crashed());
        let views = views_at(&fs, p);
        assert!(views.contains(&Some(b"ab".to_vec())), "torn prefix kept");
        // After death, everything fails and nothing changes.
        assert!(f.write_all(b"x").is_err());
        assert!(fs.remove_file(p).is_err());
        assert!(fs.await_syncs(1).is_err(), "a dead disk never syncs");
        let died_on = [
            ops,
            vec![Op::Write {
                id: 0,
                data: b"abcd".to_vec(),
            }],
        ]
        .concat();
        assert!(fs.died_on(&died_on, 2));
        assert!(!fs.died_on(&died_on[..2], 1));
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

    /// Scratch directories this process's sweeps currently hold.
    fn scratch_dirs() -> usize {
        let prefix = format!("isobar-crash-sweep-{}-", std::process::id());
        std::fs::read_dir(std::env::temp_dir())
            .unwrap()
            .filter(|e| {
                e.as_ref()
                    .is_ok_and(|e| e.file_name().to_string_lossy().starts_with(&prefix))
            })
            .count()
    }

    #[test]
    fn an_ack_before_the_journal_is_caught_at_its_first_kill_point() {
        let seed = crate::DEFAULT_SEED;
        let broken = ServePuts {
            ack_before_journal: true,
            ..ServePuts::new(seed)
        };
        // The first operation of the first put's journal append: the
        // put is already (wrongly) acked, and nothing has journaled it.
        let (_, recorder, _) = record(&broken).unwrap();
        let first_journal_op = recorder
            .recorded_ops()
            .iter()
            .position(|op| matches!(op, Op::Create(p) if p.extension().is_some_and(|x| x == "waj")))
            .unwrap();
        let err = crash_sweep(&broken).expect_err("a broken ack barrier must fail the sweep");
        assert!(
            err.starts_with(&format!("kill point {first_journal_op} view 0 ")),
            "{err}"
        );
        assert!(err.contains("lost after crash"), "{err}");
        // The failed sweep removed its scratch directory. This is the
        // only sweep the library tests run, so none may remain.
        assert_eq!(scratch_dirs(), 0);
        // The correct script passes at the same seed.
        crash_sweep(&ServePuts::new(seed)).unwrap();
    }
}
