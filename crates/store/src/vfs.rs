//! Minimal filesystem abstraction behind the store writer.
//!
//! The commit protocol's crash-consistency claim ("a reader always
//! sees the old store or the new store, never a torn one") is only as
//! good as the sequence of writes, fsyncs, and renames that implements
//! it — and that sequence cannot be proven by integration tests on a
//! real filesystem, because a real filesystem never crashes on cue.
//!
//! [`StoreFs`] narrows the writer's view of the filesystem to exactly
//! the operations the protocol uses. Production code runs on
//! [`RealFs`]; the crash-injection harness (`isobar-fuzz-harness`)
//! substitutes an in-memory filesystem that kills the writer at every
//! operation boundary — including mid-write, with torn prefixes — and
//! then proves the invariant over the simulated on-disk state.

use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, Write};
use std::path::Path;

/// A writable file as the store writer sees it.
pub trait StoreFile: Send {
    /// Append all of `buf`. May buffer; durability requires
    /// [`StoreFile::sync_data`].
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()>;

    /// Flush any buffer and force written bytes to stable storage.
    fn sync_data(&mut self) -> io::Result<()>;
}

/// The slice of filesystem behavior the commit protocol relies on.
pub trait StoreFs: Send {
    /// The file handle type this filesystem produces.
    type File: StoreFile;

    /// Create (truncate) a file for writing.
    fn create(&self, path: &Path) -> io::Result<Self::File>;

    /// Atomically rename `from` to `to`, replacing `to` if it exists.
    /// Durability of the rename itself requires [`StoreFs::sync_dir`]
    /// on the parent directory.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;

    /// Delete a file (used to discard an uncommitted temporary).
    fn remove_file(&self, path: &Path) -> io::Result<()>;

    /// Force directory metadata (creations, renames) to stable
    /// storage.
    fn sync_dir(&self, dir: &Path) -> io::Result<()>;

    /// Read a whole file. The sharded writer uses this to load the
    /// committed manifest before starting a new generation.
    fn read_file(&self, path: &Path) -> io::Result<Vec<u8>>;

    /// Create a directory (and any missing parents). Succeeds if the
    /// directory already exists.
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;

    /// List the entries directly inside `dir` (full paths, files only,
    /// unspecified order). The serve daemon's write-ahead journal uses
    /// this on startup to discover leftover per-tenant journal files.
    fn list_dir(&self, dir: &Path) -> io::Result<Vec<std::path::PathBuf>>;

    /// Fill `buf` from the file at `path`, starting at `offset`. A
    /// read changes nothing a crash could lose, so it is not an
    /// operation of the commit protocol. The default reads the real
    /// file (`pread` on unix); a filesystem that keeps files elsewhere
    /// overrides it. The serve daemon reads uncommitted puts back from
    /// its journal with this.
    fn read_at(&self, path: &Path, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        let file = File::open(path)?;
        #[cfg(unix)]
        {
            use std::os::unix::fs::FileExt;
            file.read_exact_at(buf, offset)
        }
        #[cfg(not(unix))]
        {
            use std::io::{Read, Seek, SeekFrom};
            let mut file = file;
            file.seek(SeekFrom::Start(offset))?;
            file.read_exact(buf)
        }
    }
}

/// The real filesystem.
#[derive(Debug, Clone, Copy, Default)]
pub struct RealFs;

/// A buffered real file; [`StoreFile::sync_data`] flushes the buffer
/// and fsyncs.
pub struct RealFile {
    inner: BufWriter<File>,
}

impl StoreFile for RealFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        self.inner.write_all(buf)
    }

    fn sync_data(&mut self) -> io::Result<()> {
        self.inner.flush()?;
        self.inner.get_ref().sync_data()
    }
}

impl StoreFs for RealFs {
    type File = RealFile;

    fn create(&self, path: &Path) -> io::Result<RealFile> {
        Ok(RealFile {
            inner: BufWriter::new(File::create(path)?),
        })
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        // Directories cannot be opened for write; a read handle is
        // enough for fsync on every platform we target. Platforms
        // where directory fsync is unsupported report an error we
        // deliberately ignore — the rename already happened and
        // nothing stronger is available.
        let dir = if dir.as_os_str().is_empty() {
            Path::new(".")
        } else {
            dir
        };
        match OpenOptions::new().read(true).open(dir) {
            Ok(handle) => {
                let _ = handle.sync_all();
                Ok(())
            }
            Err(_) => Ok(()),
        }
    }

    fn read_file(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        std::fs::create_dir_all(path)
    }

    fn list_dir(&self, dir: &Path) -> io::Result<Vec<std::path::PathBuf>> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            if entry.file_type()?.is_file() {
                out.push(entry.path());
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_fs_write_sync_rename_cycle() {
        let dir = std::env::temp_dir();
        let wip = dir.join(format!("isobar-vfs-{}.wip", std::process::id()));
        let fin = dir.join(format!("isobar-vfs-{}.dat", std::process::id()));
        let fs = RealFs;
        let mut f = fs.create(&wip).unwrap();
        f.write_all(b"hello").unwrap();
        f.sync_data().unwrap();
        drop(f);
        fs.rename(&wip, &fin).unwrap();
        fs.sync_dir(&dir).unwrap();
        assert_eq!(std::fs::read(&fin).unwrap(), b"hello");
        assert!(!wip.exists());
        let mut middle = [0u8; 3];
        fs.read_at(&fin, 1, &mut middle).unwrap();
        assert_eq!(&middle, b"ell");
        assert!(fs.read_at(&fin, 3, &mut middle).is_err(), "past the end");
        fs.remove_file(&fin).unwrap();
    }
}
