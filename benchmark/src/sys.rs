//! Process-level helpers: the seeded generator every choice is drawn
//! from, CPU time and peak RSS from `/proc` (Linux only), and the
//! per-run scratch directory.

use std::path::{Path, PathBuf};

/// SplitMix64. The benchmark's own generator, so the op schedule does
/// not depend on a library the product also uses.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is far below what
    /// an op mix can show.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// User + system CPU seconds of this process, all threads, live and
/// exited. `/proc/self/stat` counts in clock ticks (100 Hz on Linux).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name may hold spaces; fields restart after ") ".
    let rest = stat.rsplit_once(") ").expect("stat has a command field").1;
    let field = |i: usize| -> f64 {
        rest.split(' ')
            .nth(i)
            .and_then(|f| f.parse().ok())
            .expect("numeric stat field")
    };
    // utime and stime are fields 14 and 15; `rest` starts at field 3.
    (field(11) + field(12)) / 100.0
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line");
    kib / 1024.0
}

/// A scratch directory unique to (process, workload), removed on drop.
pub struct Scratch {
    path: PathBuf,
}

impl Scratch {
    pub fn create(root: &Path, workload: &str) -> std::io::Result<Scratch> {
        let path = root.join(format!("{}-{workload}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(Scratch { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// A fresh, not yet existing sub-directory name.
    pub fn sub(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Total size of the regular files directly inside `dir`.
pub fn dir_bytes(dir: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let meta = entry?.metadata()?;
        if meta.is_file() {
            total += meta.len();
        }
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_repeats_per_seed_and_differs_across_seeds() {
        let a: Vec<u64> = (0..8)
            .map(|_| 0)
            .scan(Rng::new(7), |r, _| Some(r.next_u64()))
            .collect();
        let b: Vec<u64> = (0..8)
            .map(|_| 0)
            .scan(Rng::new(7), |r, _| Some(r.next_u64()))
            .collect();
        let c: Vec<u64> = (0..8)
            .map(|_| 0)
            .scan(Rng::new(8), |r, _| Some(r.next_u64()))
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut items: Vec<u32> = (0..36).collect();
        Rng::new(1).shuffle(&mut items);
        let mut sorted = items.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..36).collect::<Vec<_>>());
        assert_ne!(items, sorted);
    }

    #[test]
    fn proc_readers_return_plausible_values() {
        assert!(cpu_seconds() >= 0.0);
        assert!(peak_rss_mib() > 0.5);
    }

    #[test]
    fn scratch_is_keyed_by_pid_and_workload_and_removed() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("target/selftest-scratch");
        let (a, b) = {
            let a = Scratch::create(&root, "wl_a").unwrap();
            let b = Scratch::create(&root, "wl_b").unwrap();
            assert_ne!(a.path(), b.path());
            assert!(a.path().ends_with(format!("{}-wl_a", std::process::id())));
            std::fs::write(a.sub("f"), b"x").unwrap();
            assert_eq!(dir_bytes(a.path()).unwrap(), 1);
            (a.path().to_path_buf(), b.path().to_path_buf())
        };
        assert!(!a.exists() && !b.exists());
        let _ = std::fs::remove_dir_all(&root);
    }
}
