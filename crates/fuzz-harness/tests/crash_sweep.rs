//! The full crash sweep over both subjects, as an integration test.
//!
//! This is the acceptance gate for the two crash contracts: a store
//! writer killed at every filesystem-operation boundary of a
//! generation commit — including mid-write, with torn prefixes — must
//! leave a disk from which the verifying reader recovers exactly the
//! old generation or exactly the new one, and the serve engine killed
//! at every boundary of its put/commit script must serve every acked
//! put bit-exact after startup journal replay, in every combination of
//! lost/survived unsynced data and directory mutations. Every kill
//! point is a real armed run, and the counts are exact: the sweep is
//! deterministic in its seed.

use isobar_fuzz_harness::crash::{
    self, CrashSweepOutcome, FaultFs, ServePuts, StoreCommit, Subject,
};
use isobar_fuzz_harness::DEFAULT_SEED;

fn sweep(subject: &impl Subject) -> CrashSweepOutcome {
    crash::crash_sweep(subject)
        .unwrap_or_else(|e| panic!("crash sweep violation (seed {DEFAULT_SEED:#018x}): {e}"))
}

fn store(shards: u16) -> StoreCommit {
    StoreCommit {
        seed: DEFAULT_SEED,
        shards,
    }
}

#[test]
fn serial_commit_protocol_survives_kill_at_every_operation() {
    let outcome = sweep(&store(1));
    assert_eq!(
        (outcome.kill_points, outcome.views_checked),
        (61, 172),
        "{outcome:?}"
    );
    // Kills before the manifest swap leave the old generation; the kill
    // at the last dir fsync and the end point read the new one.
    assert_eq!((outcome.saw_old, outcome.saw_new), (170, 2), "{outcome:?}");
}

#[test]
fn sharded_commit_protocol_survives_kill_at_every_operation() {
    let outcome = sweep(&store(2));
    assert_eq!(
        (outcome.kill_points, outcome.views_checked),
        (66, 186),
        "{outcome:?}"
    );
    assert_eq!((outcome.saw_old, outcome.saw_new), (184, 2), "{outcome:?}");
}

#[test]
fn serve_acked_puts_survive_kill_at_every_operation() {
    let outcome = sweep(&ServePuts::new(DEFAULT_SEED));
    assert_eq!(
        (outcome.kill_points, outcome.views_checked),
        (100, 218),
        "{outcome:?}"
    );
    // Both the replayed journal and a committed generation carried
    // acked puts through crashes.
    assert_eq!(
        (outcome.acked_verified, outcome.journal_served),
        (1371, 532),
        "{outcome:?}"
    );
}

/// Two recordings at one seed perform the same operations, bytes
/// included.
fn assert_recordings_agree(subject: &impl Subject) {
    let (_, first, _) = crash::record(subject).unwrap();
    let (_, second, _) = crash::record(subject).unwrap();
    assert!(!first.recorded_ops().is_empty());
    assert_eq!(first.recorded_ops(), second.recorded_ops());
}

#[test]
fn recordings_are_deterministic_in_the_seed() {
    assert_recordings_agree(&store(1));
    assert_recordings_agree(&store(2));
    assert_recordings_agree(&ServePuts::new(DEFAULT_SEED));
}

/// An armed run killed at N performs exactly the recording's first N
/// operations and dies on its N-th, and two such runs leave the same
/// disk, torn write included.
fn assert_armed_run_is_a_prefix(subject: &impl Subject) {
    let (base, recorder, _) = crash::record(subject).unwrap();
    let ops = recorder.recorded_ops();
    let torn_seed = 0x5EED;
    // The first, a middle and the last write, so the dying op leaves a
    // torn prefix.
    let writes: Vec<usize> = (0..ops.len())
        .filter(|&i| matches!(ops[i], crash::Op::Write { .. }))
        .collect();
    for kill_at in [
        writes[0],
        writes[writes.len() / 2],
        writes[writes.len() - 1],
    ] {
        let disks: Vec<FaultFs> = (0..2)
            .map(|_| {
                let armed = base.fork();
                armed.arm(kill_at as u64, torn_seed);
                let _ = subject.run(&armed, &mut Default::default());
                armed
            })
            .collect();
        assert!(disks[0].died_on(&ops, kill_at), "kill point {kill_at}");
        assert_eq!(disks[0].recorded_ops(), ops[..kill_at]);
        assert_eq!(
            disks[0].crash_dir_views(),
            disks[1].crash_dir_views(),
            "kill point {kill_at}"
        );
    }
}

#[test]
fn armed_runs_leave_the_recordings_prefix() {
    assert_armed_run_is_a_prefix(&store(2));
    assert_armed_run_is_a_prefix(&ServePuts::new(DEFAULT_SEED));
}
