//! Crash-injection sweep for the serve daemon's durability contract.
//!
//! `isobar serve` promises ("acked means durable"): once a put's `Ok`
//! response has been written, the payload survives an immediate
//! daemon crash — it is either in a committed generation or in the
//! fsynced write-ahead journal that startup replay restores. This
//! module proves that claim the same way [`crate::crash`] proves the
//! commit protocols: by killing the engine at *every* recorded
//! filesystem-operation boundary and re-opening every admissible
//! post-crash disk state.
//!
//! # What runs under fault injection
//!
//! The daemon's store engine is `isobar_server::StoreCore`, generic
//! over `StoreFs` and factored out of the TCP plumbing precisely so
//! this sweep can drive the byte-identical fs-op sequence a live
//! daemon performs: `store_put` → `wal_append` (the ack barrier) →
//! `overlay_insert`, with a mid-script generation commit and a tail of
//! acked-but-never-committed puts that only the journal protects.
//!
//! # Sweep strategy
//!
//! As in the sharded sweep, the scripted session's operation stream is
//! recorded once and replayed with a kill at each boundary (torn
//! in-flight writes included). A put counts as *acked* at a kill point
//! iff its `wal_append` had returned before the kill boundary — the
//! exact moment a real daemon writes the `Ok` frame. Every post-crash
//! view is materialized to a real directory and re-opened through
//! `StoreCore` on the real filesystem — running genuine startup
//! journal replay — and every acked put must read back bit-exact.
//! Unacked puts may appear or not (the client never saw an ack;
//! re-putting is idempotent), so only the acked direction is asserted.
//! At sampled kill points the real engine runs with an armed budget
//! and its own acked-set is verified the same way.

use crate::crash::{materialize_dir, payload, FaultFs, REAL_RUN_STRIDE};
use crate::rng::Rng;
use isobar::IsobarOptions;
use isobar_server::daemon::store_key;
use isobar_server::{CoreOptions, StoreCore};
use std::collections::BTreeMap;
use std::path::Path;

/// Outcome of one full serve crash sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeCrashOutcome {
    /// Operation boundaries the engine was killed at.
    pub kill_points: u64,
    /// Post-crash directory views re-opened and checked.
    pub views_checked: u64,
    /// Acked `(step, key)` entries verified bit-exact, summed over all
    /// views.
    pub acked_verified: u64,
    /// Verifications served from the WAL-replayed overlay — proof the
    /// journal, not just the committed store, carried acked data
    /// through a crash.
    pub overlay_served: u64,
    /// Verifications served from a committed generation.
    pub committed_served: u64,
    /// Kill points where the real armed engine was run and its own
    /// acked-set verified.
    pub real_runs: u64,
}

/// Tenant every scripted put uses.
const TENANT: &str = "crash-tenant";

/// Scripted puts before the mid-script commit.
const PUTS_BEFORE_COMMIT: usize = 7;

/// Scripted puts after the commit — acked but never committed, so the
/// journal alone protects them at the end of the op stream.
const PUTS_AFTER_COMMIT: usize = 5;

/// One scripted put, with the payload needed to verify it later.
#[derive(Debug, Clone)]
struct ScriptPut {
    step: u32,
    /// Bare variable name, as the wire protocol carries it (and as
    /// the journal records it).
    name: String,
    /// Full store key (tenant-prefixed), as the daemon builds it for
    /// the writer and the overlay.
    key: String,
    payload: Vec<u8>,
}

/// The scripted puts, derived from `seed`. Includes a same-key rewrite
/// inside the script (overlay and writer supersede) and a rewrite of a
/// baseline-committed key (cross-generation supersede).
fn script_puts(seed: u64) -> Vec<ScriptPut> {
    let mut rng = Rng::new(seed ^ 0x5E7E_CA11_0000_0002);
    let mut puts = Vec::new();
    for i in 0..(PUTS_BEFORE_COMMIT + PUTS_AFTER_COMMIT) {
        let (step, name) = match i {
            // Rewrite of a key the baseline generation committed.
            2 => (0, "super".to_string()),
            // Same-key rewrite within the script: the second write
            // must win in the overlay, the journal, and the store.
            4 => (1, "v3".to_string()),
            _ => ((i / 3) as u32, format!("v{i}")),
        };
        puts.push(ScriptPut {
            step,
            key: store_key(TENANT, &name),
            name,
            payload: payload(&mut rng, 256),
        });
    }
    puts
}

/// Engine options for the scripted session. The reader stays closed
/// (it maps real files, which a simulated disk cannot serve) and the
/// commit threshold is out of reach — the script commits explicitly.
fn core_opts(open_reader: bool) -> CoreOptions {
    CoreOptions {
        isobar: IsobarOptions::default(),
        shards: 2,
        queue_depth: 2,
        commit_threshold: u64::MAX,
        wal: true,
        open_reader,
    }
}

/// Drive the scripted serve session against `fs`. Returns the puts
/// acked so far — each with the recorded-op count at the moment its
/// ack barrier returned — plus whether the script ran to completion
/// (armed runs die midway; that is their purpose).
fn run_script(
    fs: &FaultFs,
    dir: &Path,
    puts: &[ScriptPut],
) -> (Vec<(ScriptPut, usize)>, Result<(), String>) {
    let mut acked = Vec::new();
    let mut core = match StoreCore::open(fs.clone(), dir, core_opts(false)) {
        Ok(core) => core,
        Err(e) => return (acked, Err(format!("open: {e}"))),
    };
    for (i, put) in puts.iter().enumerate() {
        if let Err(e) = core.store_put(put.step, &put.key, put.payload.clone(), 8) {
            return (acked, Err(format!("store_put {i}: {e}")));
        }
        if let Err(e) = core.wal_append(TENANT, put.step, &put.name, 8, &put.payload) {
            return (acked, Err(format!("wal_append {i}: {e}")));
        }
        // The ack barrier just returned: a real daemon writes `Ok` now.
        // Any kill at or after this op count must preserve the put.
        acked.push((put.clone(), fs.recorded_ops().len()));
        core.overlay_insert(put.step, put.key.clone(), 8, put.payload.clone());
        if i + 1 == PUTS_BEFORE_COMMIT {
            if let Err(e) = core.commit() {
                return (acked, Err(format!("mid-script commit: {e}")));
            }
        }
    }
    // The script ends mid-flight — the writer is dropped un-closed,
    // like a daemon dying between commits. The journal carries the
    // post-commit puts.
    drop(core);
    (acked, Ok(()))
}

/// What a post-crash read of one `(step, key)` may legally return.
struct Admissible {
    /// The key has an acked (or baseline-committed) value, so
    /// `NotFound` after the crash is a durability violation.
    must_exist: bool,
    /// Bit-exact values a read may serve. More than one only when an
    /// *unacked* in-flight journal write raced the crash: the client
    /// never saw an ack for it, so either the prior value or the
    /// in-flight one is admissible (the client re-puts regardless).
    values: Vec<Vec<u8>>,
}

/// Build the admissible read-back map at a given kill point: the
/// baseline's committed content, overlaid by every acked put
/// (last-wins, single admissible value — acked means exactly this),
/// widened by the one put whose ack barrier the kill interrupted.
/// Script puts are strictly sequential, so only the first unacked put
/// can have reached the disk at all.
fn expected_content(
    baseline: &BTreeMap<(u32, String), Vec<u8>>,
    acked: &[(ScriptPut, usize)],
    kill_at: usize,
    in_flight: Option<&ScriptPut>,
) -> BTreeMap<(u32, String), Admissible> {
    let mut expected: BTreeMap<(u32, String), Admissible> = baseline
        .iter()
        .map(|((step, key), value)| {
            (
                (*step, key.clone()),
                Admissible {
                    must_exist: true,
                    values: vec![value.clone()],
                },
            )
        })
        .collect();
    for (put, acked_at) in acked {
        if *acked_at <= kill_at {
            expected.insert(
                (put.step, put.key.clone()),
                Admissible {
                    must_exist: true,
                    values: vec![put.payload.clone()],
                },
            );
        }
    }
    if let Some(put) = in_flight {
        let slot = expected
            .entry((put.step, put.key.clone()))
            .or_insert(Admissible {
                must_exist: false,
                values: Vec::new(),
            });
        slot.values.push(put.payload.clone());
    }
    expected
}

/// Materialize one post-crash view, re-open it through the real
/// engine (running genuine WAL replay), and demand every must-exist
/// entry reads back as one of its admissible values. Returns
/// (overlay_served, committed_served) for the must-exist entries.
fn verify_view(
    view: &BTreeMap<std::path::PathBuf, Vec<u8>>,
    scratch: &Path,
    expected: &BTreeMap<(u32, String), Admissible>,
    kill_at: usize,
    view_index: usize,
) -> Result<(u64, u64), String> {
    use isobar_server::core::GetSource;
    materialize_dir(view, scratch)?;
    let core = StoreCore::open_real(scratch, core_opts(true)).map_err(|e| {
        format!("kill point {kill_at} view {view_index}: post-crash open failed: {e}")
    })?;
    let mut overlay_served = 0u64;
    let mut committed_served = 0u64;
    for ((step, key), want) in expected {
        let source = match core.get(*step, key) {
            Ok((got, source)) => {
                if !want.values.iter().any(|v| v == &got) {
                    return Err(format!(
                        "kill point {kill_at} view {view_index}: put ({step}, {key}) \
                         corrupted after crash ({} bytes, {} admissible values)",
                        got.len(),
                        want.values.len()
                    ));
                }
                source
            }
            // Absence of a never-acked put is fine.
            Err(_) if !want.must_exist => continue,
            Err(e) => {
                return Err(format!(
                    "kill point {kill_at} view {view_index}: acked put ({step}, {key}) \
                     lost after crash: {e}"
                ));
            }
        };
        if want.must_exist {
            match source {
                GetSource::Overlay => overlay_served += 1,
                GetSource::Committed => committed_served += 1,
            }
        }
    }
    Ok((overlay_served, committed_served))
}

/// Kill the serve store engine at every operation boundary of a
/// scripted session — puts, a mid-script generation commit, more puts,
/// then an un-closed drop — and prove that every put whose ack barrier
/// had returned reads back bit-exact from every admissible post-crash
/// disk state, through genuine startup journal replay.
///
/// Deterministic in `seed`. Returns the sweep outcome or the first
/// violation, formatted with enough detail to replay.
pub fn serve_crash_sweep(seed: u64) -> Result<ServeCrashOutcome, String> {
    let dir = Path::new("serve.store");
    let scratch = std::env::temp_dir().join(format!(
        "isobar-serve-crash-{}-{seed:016x}",
        std::process::id()
    ));
    let puts = script_puts(seed);

    // Baseline: a generation committed cleanly before the session
    // under test, holding one key the script never touches and one it
    // supersedes.
    let base = FaultFs::new();
    {
        let mut rng = Rng::new(seed ^ 0xBA5E_11E0_0000_0001);
        let mut core = StoreCore::open(base.clone(), dir, core_opts(false))
            .map_err(|e| format!("baseline open: {e}"))?;
        for name in ["keep", "super"] {
            let key = store_key(TENANT, name);
            let data = payload(&mut rng, 256);
            core.store_put(0, &key, data.clone(), 8)
                .map_err(|e| format!("baseline put {name}: {e}"))?;
            core.wal_append(TENANT, 0, name, 8, &data)
                .map_err(|e| format!("baseline journal {name}: {e}"))?;
            core.overlay_insert(0, key, 8, data);
        }
        core.commit()
            .map_err(|e| format!("baseline commit: {e}"))?
            .ok_or("baseline commit was empty")?;
    }
    let committed = base
        .crash_dir_views()
        .into_iter()
        .next()
        .ok_or("baseline commit left no committed view")?;
    materialize_dir(&committed, &scratch)?;
    let baseline = crate::crash::logical_content(&scratch)
        .map_err(|e| format!("baseline generation unreadable: {e}"))?;
    if baseline.len() != 2 {
        return Err(format!(
            "baseline holds {} keys, expected 2",
            baseline.len()
        ));
    }
    let base = base.fork(); // clear the baseline's op record

    // Record the scripted session's full operation stream once.
    let recorder = base.fork();
    let (acked, completed) = run_script(&recorder, dir, &puts);
    completed.map_err(|e| format!("recording run failed: {e}"))?;
    if acked.len() != puts.len() {
        return Err(format!(
            "recording run acked {} of {} puts",
            acked.len(),
            puts.len()
        ));
    }
    let ops = recorder.recorded_ops();

    let mut outcome = ServeCrashOutcome {
        kill_points: 0,
        views_checked: 0,
        acked_verified: 0,
        overlay_served: 0,
        committed_served: 0,
        real_runs: 0,
    };
    let mut torn_rng = Rng::new(seed ^ 0xC4A5_11F1_5E7E_D000);

    for kill_at in 0..ops.len() {
        let torn_seed = torn_rng.next_u64();
        let fs = FaultFs::replay_killed(&base, &ops, kill_at, torn_seed);
        // The first put whose ack barrier had not yet returned is the
        // only one whose journal bytes can have (partially) landed.
        let in_flight = acked
            .iter()
            .find(|(_, acked_at)| *acked_at > kill_at)
            .map(|(put, _)| put);
        let expected = expected_content(&baseline, &acked, kill_at, in_flight);
        outcome.kill_points += 1;
        for (view_index, view) in fs.crash_dir_views().into_iter().enumerate() {
            let (overlay, committed) =
                verify_view(&view, &scratch, &expected, kill_at, view_index)?;
            outcome.views_checked += 1;
            outcome.acked_verified += overlay + committed;
            outcome.overlay_served += overlay;
            outcome.committed_served += committed;
        }

        // At sampled points (and both ends), run the real engine with
        // an armed budget. Its shard threads interleave on their own
        // schedule, so its acked-set is its own — verified against its
        // own post-crash disk, not the replay's. A budget landing in
        // the final un-closed drop may miss entirely (the drop's
        // cleanup op count varies with thread scheduling); a survived
        // run is then verified with every put acked.
        if kill_at % REAL_RUN_STRIDE == 0 || kill_at == ops.len() - 1 {
            let real = base.fork();
            real.arm(kill_at as u64, torn_seed);
            let (real_acked, completed) = run_script(&real, dir, &puts);
            if completed.is_err() && !real.crashed() {
                return Err(format!(
                    "kill point {kill_at}: scripted session failed before the armed \
                     crash fired"
                ));
            }
            let expected = expected_content(
                &baseline,
                &real_acked,
                usize::MAX,
                puts.get(real_acked.len()),
            );
            for (view_index, view) in real.crash_dir_views().into_iter().enumerate() {
                verify_view(&view, &scratch, &expected, kill_at, view_index)?;
            }
            outcome.real_runs += 1;
        }
    }
    let _ = std::fs::remove_dir_all(&scratch);

    // A sweep whose acked puts were all served by committed
    // generations never exercised journal replay (or vice versa) —
    // demand both, plus kills that actually had acked puts at stake.
    if outcome.overlay_served == 0 || outcome.committed_served == 0 {
        return Err(format!(
            "degenerate serve sweep: {} overlay-served, {} committed-served — \
             kills missed the journal or the commit",
            outcome.overlay_served, outcome.committed_served
        ));
    }
    if outcome.acked_verified == 0 {
        return Err("degenerate serve sweep: no acked put was ever at stake".into());
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_crash_sweep_smoke() {
        // The full sweep runs in CI; the smoke test proves the
        // plumbing end-to-end on the default seed.
        let outcome = serve_crash_sweep(0xD00D_F00D_0000_0001).expect("sweep must hold");
        assert!(outcome.kill_points >= 90, "{outcome:?}");
        assert!(outcome.overlay_served > 0, "{outcome:?}");
        assert!(outcome.committed_served > 0, "{outcome:?}");
        assert!(outcome.real_runs >= 2, "{outcome:?}");
    }
}
