//! Every decode layer under structure-aware fault injection: zero
//! panics, bounded allocation, and pristine inputs still round-trip.
//!
//! `every_layer_survives_fault_injection` runs 400 iterations per layer
//! in every `cargo test`; `every_layer_survives_10k_fault_injections`
//! runs the full 10,000 per layer (serve-frame included) under `cargo
//! test --release -p isobar-fuzz-harness --test fuzz_smoke -- --ignored`.
//! A failure names its layer, iteration, seed and mutation kinds; the
//! seed is fixed, so re-running the test it names replays it.
//!
//! This binary installs the counting allocator as its global allocator
//! (cargo builds each top-level test file into its own executable), and
//! the allocator's peak is process-global: every test here holds one
//! lock while it runs, so `--include-ignored` never overlaps two runs.

use isobar_fuzz_harness::{all_layers, alloc_track::PeakAlloc, DEFAULT_SEED};
use std::sync::Mutex;

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// What each layer did in 10,000 iterations at [`DEFAULT_SEED`]:
/// (name, accepted, rejected). The run is deterministic, the same on
/// every kernel tier, so a change that moves a count moves it on
/// purpose: update the row and say why.
const FULL: [(&str, u64, u64); 12] = [
    ("container", 669, 9331),
    ("stream", 670, 9330),
    ("store", 166, 9834),
    ("codec-deflate", 769, 9231),
    ("codec-bzip2", 820, 9180),
    ("codec-pfor", 4150, 5850),
    ("raw-inflate", 3862, 6138),
    ("raw-bwt", 268, 9732),
    ("raw-rle1", 10000, 0),
    ("float-fpc", 4942, 5058),
    ("float-fpzip", 4842, 5158),
    ("serve-frame", 3571, 6429),
];

/// Run every layer for `iters` iterations; the outcome of each, by
/// layer.
fn every_layer(iters: u64) -> Vec<(&'static str, u64, u64)> {
    let _alone = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    println!("kernels: {}", isobar::active_kernel_tier());
    let mut outcomes = Vec::new();
    for layer in all_layers() {
        let outcome = layer
            .run(DEFAULT_SEED, iters)
            .unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(outcome.iterations, iters);
        // A layer where no mutation is ever rejected would mean the
        // mutator is not reaching the decoder (RLE1 is the exception:
        // its decode is total, every input is a valid encoding).
        if layer.name() != "raw-rle1" {
            assert!(
                outcome.rejected > 0,
                "{}: no mutated input was ever rejected",
                layer.name()
            );
        }
        println!(
            "{:<14} {} iterations: {} accepted, {} rejected, peak decode alloc {} KiB",
            outcome.name,
            outcome.iterations,
            outcome.accepted,
            outcome.rejected,
            outcome.max_alloc / 1024
        );
        outcomes.push((outcome.name, outcome.accepted, outcome.rejected));
    }
    outcomes
}

#[test]
fn every_layer_survives_fault_injection() {
    every_layer(400);
}

#[test]
#[ignore = "full size: 10,000 iterations per layer; run with -- --ignored"]
fn every_layer_survives_10k_fault_injections() {
    assert_eq!(every_layer(10_000), FULL);
}
