//! The full commit-protocol crash sweep, as an integration test.
//!
//! This is the acceptance gate for the store's crash-consistency
//! claim: a writer killed at every single filesystem-operation
//! boundary of a generation commit — including mid-write, with torn
//! prefixes — must leave a disk from which the verifying reader
//! recovers exactly the old generation or exactly the new one, in
//! every combination of lost/survived unsynced data and directory
//! mutations.

use isobar_fuzz_harness::{crash, DEFAULT_SEED};

fn sweep(shards: u16) {
    let outcome = crash::crash_sweep(DEFAULT_SEED, shards).unwrap_or_else(|e| {
        panic!("crash sweep violation ({shards} shards, seed {DEFAULT_SEED:#018x}): {e}")
    });
    assert!(
        outcome.kill_points >= 40,
        "sweep must cover the full two-phase commit, got {} kill points",
        outcome.kill_points
    );
    assert!(
        outcome.views_checked >= outcome.kill_points,
        "every kill point contributes at least one disk view"
    );
    assert!(
        outcome.real_runs >= 2,
        "both ends are anchored to real armed runs"
    );
    // Kills before the manifest swap leave the old generation; kills
    // after it leave the new one — the sweep must witness both.
    assert!(outcome.saw_old > 0 && outcome.saw_new > 0);
}

#[test]
fn serial_commit_protocol_survives_kill_at_every_operation() {
    sweep(1);
}

#[test]
fn sharded_commit_protocol_survives_kill_at_every_operation() {
    sweep(2);
}
