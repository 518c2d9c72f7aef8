//! A `StoreFs` over the real filesystem that counts what the store and
//! the serve core ask of it: the device-level picture (number and size
//! of writes, number of flushes) taken where the work happens.

use isobar_store::{RealFile, RealFs, StoreFile, StoreFs};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

#[derive(Default)]
struct Counters {
    creates: AtomicU64,
    writes: AtomicU64,
    bytes: AtomicU64,
    sync_data: AtomicU64,
    sync_dir: AtomicU64,
    renames: AtomicU64,
}

/// A snapshot of the counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FsCounts {
    pub creates: u64,
    pub writes: u64,
    pub bytes: u64,
    pub sync_data: u64,
    pub sync_dir: u64,
    pub renames: u64,
}

impl FsCounts {
    /// File and directory flushes together.
    pub fn syncs(&self) -> u64 {
        self.sync_data + self.sync_dir
    }

    pub fn since(&self, earlier: &FsCounts) -> FsCounts {
        FsCounts {
            creates: self.creates - earlier.creates,
            writes: self.writes - earlier.writes,
            bytes: self.bytes - earlier.bytes,
            sync_data: self.sync_data - earlier.sync_data,
            sync_dir: self.sync_dir - earlier.sync_dir,
            renames: self.renames - earlier.renames,
        }
    }
}

/// Clones share one set of counters.
#[derive(Clone, Default)]
pub struct CountingFs {
    counters: Arc<Counters>,
}

impl CountingFs {
    pub fn new() -> CountingFs {
        CountingFs::default()
    }

    pub fn counts(&self) -> FsCounts {
        // Relaxed: plain statistics, read after the writers are joined.
        let c = &self.counters;
        FsCounts {
            creates: c.creates.load(Ordering::Relaxed),
            writes: c.writes.load(Ordering::Relaxed),
            bytes: c.bytes.load(Ordering::Relaxed),
            sync_data: c.sync_data.load(Ordering::Relaxed),
            sync_dir: c.sync_dir.load(Ordering::Relaxed),
            renames: c.renames.load(Ordering::Relaxed),
        }
    }
}

pub struct CountingFile {
    inner: RealFile,
    counters: Arc<Counters>,
}

impl StoreFile for CountingFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        self.counters.writes.fetch_add(1, Ordering::Relaxed);
        self.counters
            .bytes
            .fetch_add(buf.len() as u64, Ordering::Relaxed);
        self.inner.write_all(buf)
    }

    fn sync_data(&mut self) -> io::Result<()> {
        self.counters.sync_data.fetch_add(1, Ordering::Relaxed);
        self.inner.sync_data()
    }
}

impl StoreFs for CountingFs {
    type File = CountingFile;

    fn create(&self, path: &Path) -> io::Result<CountingFile> {
        self.counters.creates.fetch_add(1, Ordering::Relaxed);
        Ok(CountingFile {
            inner: RealFs.create(path)?,
            counters: Arc::clone(&self.counters),
        })
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.counters.renames.fetch_add(1, Ordering::Relaxed);
        RealFs.rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        RealFs.remove_file(path)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        self.counters.sync_dir.fetch_add(1, Ordering::Relaxed);
        RealFs.sync_dir(dir)
    }

    fn read_file(&self, path: &Path) -> io::Result<Vec<u8>> {
        RealFs.read_file(path)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        RealFs.create_dir_all(path)
    }

    fn list_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        RealFs.list_dir(dir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isobar_server::{CoreOptions, StoreCore};

    /// Three puts and one commit through the serve core, the daemon's
    /// own order. One shard and one caller: the counts must repeat.
    fn scripted_session(dir: &Path) -> FsCounts {
        let _ = std::fs::remove_dir_all(dir);
        let fs = CountingFs::new();
        let opts = CoreOptions {
            shards: 1,
            open_reader: true,
            ..Default::default()
        };
        let mut core = StoreCore::open(fs.clone(), dir, opts).unwrap();
        for step in 0..3u32 {
            let payload: Vec<u8> = (0..64 * 1024u32)
                .flat_map(|i| (i / 7 + step).to_le_bytes())
                .collect();
            core.store_put(step, "t\u{1f}v", payload.clone(), 4)
                .unwrap();
            core.wal_append("t", step, "v", 4, &payload).unwrap();
            core.overlay_insert(step, "t\u{1f}v".to_string(), 4, payload);
        }
        core.commit().unwrap().expect("a generation was pending");
        let (restored, _) = core.get(2, "t\u{1f}v").unwrap();
        assert_eq!(restored.len(), 256 * 1024);
        drop(core);
        let _ = std::fs::remove_dir_all(dir);
        fs.counts()
    }

    #[test]
    fn a_scripted_core_session_counts_the_same_twice() {
        let base = Path::new(env!("CARGO_MANIFEST_DIR")).join("target/selftest-countingfs");
        let a = scripted_session(&base.join("a"));
        let b = scripted_session(&base.join("b"));
        let _ = std::fs::remove_dir_all(&base);
        // The sharded writer's io thread flushes whenever its queue
        // runs empty, so the number of `fdatasync`s depends on thread
        // timing (ROADMAP open item 1); everything else must repeat.
        let without_sync_data = |c: FsCounts| FsCounts { sync_data: 0, ..c };
        assert_eq!(without_sync_data(a), without_sync_data(b));
        assert!(a.sync_data.abs_diff(b.sync_data) <= 3, "{a:?} vs {b:?}");
        assert!(a.creates >= 3, "segment, journal and manifest: {a:?}");
        assert!(
            a.bytes > 3 * 256 * 1024,
            "raw journal bytes alone exceed the payloads: {a:?}"
        );
        assert!(a.sync_data >= 3, "one journal fsync per put: {a:?}");
        assert!(a.renames >= 2 && a.sync_dir >= 1, "{a:?}");
    }
}
