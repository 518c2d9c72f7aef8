//! Helpers shared by the end-to-end tests that drive the real `isobar`
//! binary: a scratch directory that removes itself, deterministic
//! noise, and a runner that returns the exit code.

#![allow(dead_code)]

use std::ffi::OsStr;
use std::path::PathBuf;
use std::process::Command;

/// The binary under test, built by cargo for this test run.
pub const ISOBAR: &str = env!("CARGO_BIN_EXE_isobar");

/// A fresh directory under the system temp dir, removed on drop.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn new(name: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("isobar-cli-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }

    /// `name` inside the directory, as an argument for the binary.
    pub fn path(&self, name: &str) -> String {
        self.0.join(name).to_str().unwrap().to_string()
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `len` bytes of xorshift64* noise: incompressible, and the same on
/// every run.
pub fn noise(len: usize, seed: u64) -> Vec<u8> {
    let mut state = seed | 1;
    let mut out = Vec::with_capacity(len + 8);
    while out.len() < len {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        out.extend_from_slice(&state.wrapping_mul(0x2545_F491_4F6C_DD1D).to_le_bytes());
    }
    out.truncate(len);
    out
}

/// Run `isobar ARGS` and return its exit code; stderr is echoed so a
/// failing assertion shows what the binary said.
pub fn code<S: AsRef<OsStr>>(args: &[S]) -> i32 {
    let out = Command::new(ISOBAR).args(args).output().unwrap();
    eprint!("{}", String::from_utf8_lossy(&out.stderr));
    out.status.code().expect("isobar was killed by a signal")
}

/// Run `isobar ARGS` and require exit 0.
pub fn ok<S: AsRef<OsStr>>(args: &[S]) {
    let shown: Vec<_> = args.iter().map(|a| a.as_ref().to_string_lossy()).collect();
    assert_eq!(code(args), 0, "isobar {}", shown.join(" "));
}
