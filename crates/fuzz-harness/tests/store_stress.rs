//! The concurrent store storm (`isobar_fuzz_harness::stress`) under the
//! counting allocator: producer threads write a second generation into
//! one `ShardedStoreWriter` while reader threads replay verified random
//! gets against the first, and every byte is re-checked after the final
//! commit.
//!
//! `small_storm_round_trips` runs in every `cargo test`; the full
//! 8 producers × 16 steps × 200 gets storm runs under `cargo test
//! --release -p isobar-fuzz-harness --test store_stress -- --ignored`
//! (add `--nocapture` to see its heap figures). Each seed is fixed, so
//! a failure replays by re-running the test it names.

use isobar_fuzz_harness::{alloc_track, alloc_track::PeakAlloc, stress, DEFAULT_SEED};
use std::sync::{Mutex, MutexGuard};

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

/// The allocator's counters are process-global: every test holds this
/// lock, so `--include-ignored` never runs two storms at once.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn alone() -> MutexGuard<'static, ()> {
    ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner())
}

fn storm(seed: u64, producers: usize, steps: u32, gets: u64) -> stress::StressOutcome {
    stress::store_stress(seed, producers, steps, gets)
        .unwrap_or_else(|e| panic!("store stress (seed {seed:#018x}): {e}"))
}

#[test]
fn small_storm_round_trips() {
    let _alone = alone();
    let outcome = storm(42, 3, 6, 20);
    assert_eq!(outcome.puts, 3 * 6 + 3 * 3);
    assert_eq!(outcome.gets, 3 * 20);
    assert_eq!(outcome.verified, 3 * 6);
    assert_eq!(outcome.superseded, 3 * 3);
}

#[test]
#[ignore = "full size: 8 producers x 16 steps x 200 gets; run with -- --ignored"]
fn full_storm_round_trips() {
    let _alone = alone();
    alloc_track::reset_peak();
    let (calls, bytes) = (alloc_track::calls(), alloc_track::allocated());
    let outcome = storm(DEFAULT_SEED, 8, 16, 200);
    let calls = alloc_track::calls() - calls;
    let bytes = alloc_track::allocated() - bytes;
    assert_eq!(outcome.puts, 8 * 16 + 8 * 8);
    assert_eq!(outcome.gets, 8 * 200);
    assert_eq!(outcome.verified, 8 * 16);
    assert_eq!(outcome.superseded, 8 * 8);
    let puts = outcome.puts as f64;
    println!(
        "store-stress: {} puts, {} concurrent gets, {} verified, {} superseded; \
         peak alloc {} KiB; per put {:.2} allocation calls, {:.1} bytes allocated \
         ({calls} calls, {bytes} bytes in all)",
        outcome.puts,
        outcome.gets,
        outcome.verified,
        outcome.superseded,
        alloc_track::peak() / 1024,
        calls as f64 / puts,
        bytes as f64 / puts,
    );
}
