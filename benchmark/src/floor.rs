//! Hardware floors measured in the same run, so every rate can also be
//! read as a share of what the sandbox can do at all, and the canary
//! that tells a disturbed run from a changed program.

use crate::stats::median;
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::time::Instant;

/// Copy size for the memory floor: 256 MiB, source and destination
/// each. The VM reports a 260 MiB shared L3 of which a 2-core guest
/// holds a small part; 4 MiB of L2 per core is what the copy must
/// exceed, and does 64 times over.
pub const MEMCPY_BYTES: usize = 256 << 20;

/// Single-thread copy bandwidth in MB/s (bytes copied, not read plus
/// written).
pub fn memcpy_mbps(bytes: usize) -> f64 {
    let src = vec![0x5Au8; bytes];
    let mut dst = vec![0u8; bytes];
    let rates: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            dst.copy_from_slice(black_box(&src));
            black_box(&mut dst);
            bytes as f64 / 1e6 / t.elapsed().as_secs_f64()
        })
        .collect();
    median(&rates)
}

/// Median milliseconds of a 4 KiB append + `fdatasync` in `dir`.
pub fn fdatasync_ms(dir: &Path, reps: usize) -> std::io::Result<f64> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join("floor.fdatasync");
    let mut file = std::fs::File::create(&path)?;
    let block = [0xA5u8; 4096];
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        file.write_all(&block)?;
        file.sync_data()?;
        times.push(t.elapsed().as_secs_f64() * 1e3);
    }
    drop(file);
    std::fs::remove_file(&path)?;
    Ok(median(&times))
}

/// Median microseconds of a 1-byte ping-pong over loopback TCP.
pub fn loopback_rtt_us(reps: usize) -> std::io::Result<f64> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let echo = std::thread::spawn(move || -> std::io::Result<()> {
        let (mut s, _) = listener.accept()?;
        s.set_nodelay(true)?;
        let mut b = [0u8; 1];
        while s.read(&mut b)? == 1 {
            s.write_all(&b)?;
        }
        Ok(())
    });
    let mut s = TcpStream::connect(addr)?;
    s.set_nodelay(true)?;
    let mut b = [7u8; 1];
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        s.write_all(&b)?;
        s.read_exact(&mut b)?;
        times.push(t.elapsed().as_secs_f64() * 1e6);
    }
    drop(s);
    echo.join().expect("echo thread")?;
    Ok(median(&times))
}

/// A fixed piece of work whose time moves only when the machine does:
/// an integer-hash loop (no memory traffic) and a dependent pointer
/// chase through 8 MiB, twice a core's L2. The chase is what notices a
/// neighbour taking cache and memory bandwidth, which is also what the
/// bwt solver is most sensitive to.
pub fn canary_ms() -> f64 {
    const SLOTS: usize = 2 << 20;
    // One cycle through every slot (Sattolo), from a fixed seed.
    let mut next: Vec<u32> = (0..SLOTS as u32).collect();
    let mut rng = crate::sys::Rng::new(0xC0FFEE);
    for i in (1..SLOTS).rev() {
        next.swap(i, rng.below(i as u64) as usize);
    }
    let t = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..20_000_000u64 {
        x = (x ^ i).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 29;
    }
    let mut at = (x % SLOTS as u64) as u32;
    for _ in 0..SLOTS {
        at = next[at as usize];
    }
    black_box(at);
    t.elapsed().as_secs_f64() * 1e3
}

/// Two canaries more than a tenth apart mean the machine changed phase
/// under the run.
pub fn disturbed(before_ms: f64, after_ms: f64) -> bool {
    (before_ms - after_ms).abs() / before_ms.min(after_ms) > 0.10
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_return_positive_values() {
        assert!(memcpy_mbps(1 << 20) > 0.0);
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("target/selftest-floor");
        assert!(fdatasync_ms(&dir, 3).unwrap() > 0.0);
        let _ = std::fs::remove_dir_all(&dir);
        assert!(loopback_rtt_us(20).unwrap() > 0.0);
    }

    #[test]
    fn disturbed_flags_a_tenth() {
        assert!(!disturbed(100.0, 109.0));
        assert!(disturbed(100.0, 111.0));
        assert!(disturbed(111.0, 100.0));
    }
}
