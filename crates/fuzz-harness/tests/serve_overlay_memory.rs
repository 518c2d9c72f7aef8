//! The serve core's memory under the counting allocator: with the
//! journal on, an uncommitted put costs the daemon no RAM once the
//! sharded writer has compressed it, because the overlay keeps the
//! location of its journal frame, not its bytes. With the journal off
//! the overlay must hold every payload until the commit, and the same
//! measurement shows it, which is what keeps the first check honest.
//!
//! 64 puts of 256 KiB go through `StoreCore` in the daemon's order
//! (`store_put` → `wal_append` → `overlay_insert`) with 2 shards, queue
//! depth 2 and no commit. Live heap bytes are read after put 32 and
//! after put 64.

use isobar::{CompressionLevel, IsobarOptions, Preference};
use isobar_fuzz_harness::alloc_track::{self, PeakAlloc};
use isobar_server::{CoreOptions, StoreCore};
use std::sync::{Arc, Mutex, MutexGuard};

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

/// The allocator's counters are process-global: the two tests must not
/// overlap.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn alone() -> MutexGuard<'static, ()> {
    ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner())
}

const PUTS: usize = 64;
const PAYLOAD: usize = 256 << 10;
const SHARDS: u16 = 2;
const QUEUE_DEPTH: usize = 2;
/// Payloads the sharded writer may hold between `put` and append.
const WRITER_WINDOW: usize = SHARDS as usize * (2 * QUEUE_DEPTH + 1) * PAYLOAD;

/// A smooth f64 field, different for every put.
fn field(put: usize) -> Vec<u8> {
    (0..PAYLOAD / 8)
        .flat_map(|i| ((i as f64 * 0.003 + put as f64).sin() * 1e3).to_le_bytes())
        .collect()
}

/// Live heap bytes after put 32 and after put 64.
fn live_heap(wal: bool) -> (usize, usize) {
    assert!(
        alloc_track::installed(),
        "the counting allocator is this binary's"
    );
    let dir = std::env::temp_dir().join(format!(
        "isobar-overlay-memory-{wal}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let options = CoreOptions {
        isobar: IsobarOptions {
            preference: Preference::Speed,
            level: CompressionLevel::Fast,
            ..IsobarOptions::default()
        },
        shards: SHARDS,
        queue_depth: QUEUE_DEPTH,
        commit_threshold: u64::MAX,
        wal,
        open_reader: true,
    };
    let mut core = StoreCore::open_real(&dir, options).unwrap();
    let mut live = Vec::new();
    for put in 0..PUTS {
        let name = format!("v{put}");
        let payload = Arc::new(field(put));
        core.store_put(0, &name, Arc::clone(&payload), 8).unwrap();
        core.wal_append("", 0, &name, 8, &payload).unwrap();
        core.overlay_insert(0, name, 8, payload);
        if put + 1 == PUTS / 2 || put + 1 == PUTS {
            live.push(alloc_track::current());
        }
    }
    assert_eq!(core.overlay.len(), PUTS);
    assert_eq!(core.pending_bytes, (PUTS * PAYLOAD) as u64);
    drop(core);
    let _ = std::fs::remove_dir_all(&dir);
    (live[0], live[1])
}

#[test]
fn journaled_puts_leave_the_heap_flat() {
    let _alone = alone();
    let (half, full) = live_heap(true);
    let growth = full.saturating_sub(half);
    println!("journal on: live heap {half} B after put 32, {full} B after put 64");
    assert!(
        growth < WRITER_WINDOW,
        "the heap grew {growth} B over 32 journaled puts; one writer window is {WRITER_WINDOW} B"
    );
}

#[test]
fn without_the_journal_the_overlay_holds_every_payload() {
    let _alone = alone();
    let (half, full) = live_heap(false);
    let growth = full.saturating_sub(half);
    println!("journal off: live heap {half} B after put 32, {full} B after put 64");
    assert!(
        growth >= PUTS / 2 * PAYLOAD,
        "the heap grew only {growth} B over 32 held puts"
    );
}
