//! Concurrent store stress: many producers and readers hammering one
//! sharded store on the real filesystem.
//!
//! The sharded writer's concurrency claims — any number of producer
//! threads may `put` into one writer, and any number of reader threads
//! may `get` from one reader without contending on a cursor — are easy
//! to state and easy to break with a misplaced lock or a shared seek
//! position. This module stress-tests both at once: N producer threads
//! write generation 1 *while* M reader threads replay random reads
//! against the committed generation 0, then every byte of both
//! generations is verified. The `store_stress` test binary runs it
//! under the harness's counting allocator: a small storm in every
//! `cargo test`, and the full 8-producer storm, which also prints the
//! heap figures per put, under `-- --ignored`.

use crate::rng::Rng;
use isobar::IsobarOptions;
use isobar_store::{ShardedOptions, ShardedStoreWriter, StoreReader};
use std::path::Path;

/// What one stress run did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StressOutcome {
    /// Variables written across both generations.
    pub puts: u64,
    /// Random reads replayed against generation 0 during the storm.
    pub gets: u64,
    /// Entries verified byte-for-byte after the final commit.
    pub verified: u64,
    /// Entries of generation 0 superseded by generation 1.
    pub superseded: u64,
}

/// Deterministic payload for `(producer, step, revision)` — every
/// thread and the final verifier regenerate the same bytes.
fn payload(seed: u64, producer: usize, step: u32, revision: u64, len: usize) -> Vec<u8> {
    let mut rng = Rng::new(
        seed ^ (producer as u64) << 40 ^ (step as u64) << 8 ^ revision.wrapping_mul(0x9E37),
    );
    let mut data = vec![0u8; len];
    // Half structured, half noise: exercise both codec outcomes.
    for (i, byte) in data.iter_mut().enumerate().take(len / 2) {
        *byte = (i / 5) as u8;
    }
    let tail = len / 2;
    rng.fill(&mut data[tail..]);
    data
}

fn var_name(producer: usize) -> String {
    format!("var{producer:02}")
}

/// Run the storm: `producers` threads × `steps` puts each for
/// generation 0, then generation 1 rewrites the first half of the
/// steps while `producers` reader threads replay `gets_per_reader`
/// random verified reads against generation 0. Returns counts or the
/// first violation.
pub fn store_stress(
    seed: u64,
    producers: usize,
    steps: u32,
    gets_per_reader: u64,
) -> Result<StressOutcome, String> {
    let dir = std::env::temp_dir().join(format!(
        "isobar-store-stress-{}-{seed:016x}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let result = run_in(&dir, seed, producers, steps, gets_per_reader);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn run_in(
    dir: &Path,
    seed: u64,
    producers: usize,
    steps: u32,
    gets_per_reader: u64,
) -> Result<StressOutcome, String> {
    let options = IsobarOptions {
        preference: isobar::Preference::Speed,
        chunk_elements: 4096,
        ..Default::default()
    };
    let sharded = ShardedOptions {
        shards: 4,
        queue_depth: 2,
    };
    let len = 8 * 1024;
    let mut outcome = StressOutcome {
        puts: 0,
        gets: 0,
        verified: 0,
        superseded: 0,
    };

    // Generation 0: every producer writes its own variable at every
    // step, all through one shared writer.
    let writer = ShardedStoreWriter::create(dir, options, sharded)
        .map_err(|e| format!("gen 0 create: {e}"))?;
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for p in 0..producers {
            let writer = &writer;
            handles.push(scope.spawn(move || -> Result<(), String> {
                let name = var_name(p);
                for step in 0..steps {
                    writer
                        .put(step, &name, payload(seed, p, step, 0, len), 8)
                        .map_err(|e| format!("gen 0 put ({p}, {step}): {e}"))?;
                }
                Ok(())
            }));
        }
        for h in handles {
            h.join().map_err(|_| "gen 0 producer panicked")??;
        }
        Ok::<(), String>(())
    })?;
    outcome.puts += producers as u64 * steps as u64;
    writer.close().map_err(|e| format!("gen 0 close: {e}"))?;

    // The storm: reader threads replay random verified reads against
    // committed generation 0 while producer threads write generation 1
    // (first half of the steps, superseding).
    let reader = StoreReader::open(dir).map_err(|e| format!("gen 0 open: {e}"))?;
    let writer = ShardedStoreWriter::create(dir, options, sharded)
        .map_err(|e| format!("gen 1 create: {e}"))?;
    let rewrite_steps = steps / 2;
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for p in 0..producers {
            let writer = &writer;
            handles.push(scope.spawn(move || -> Result<u64, String> {
                let name = var_name(p);
                for step in 0..rewrite_steps {
                    writer
                        .put(step, &name, payload(seed, p, step, 1, len), 8)
                        .map_err(|e| format!("gen 1 put ({p}, {step}): {e}"))?;
                }
                Ok(0)
            }));
        }
        for r in 0..producers {
            let reader = &reader;
            handles.push(scope.spawn(move || -> Result<u64, String> {
                let mut rng = Rng::new(seed ^ 0xBEEF ^ (r as u64) << 16);
                let mut gets = 0u64;
                for _ in 0..gets_per_reader {
                    let p = (rng.next_u64() % producers as u64) as usize;
                    let step = (rng.next_u64() % steps as u64) as u32;
                    let got = reader
                        .get(step, &var_name(p))
                        .map_err(|e| format!("storm get ({p}, {step}): {e}"))?;
                    if got != payload(seed, p, step, 0, len) {
                        return Err(format!("storm get ({p}, {step}): wrong bytes"));
                    }
                    gets += 1;
                }
                Ok(gets)
            }));
        }
        for h in handles {
            outcome.gets += h.join().map_err(|_| "storm thread panicked")??;
        }
        Ok::<(), String>(())
    })?;
    outcome.puts += producers as u64 * rewrite_steps as u64;
    let report = writer.close().map_err(|e| format!("gen 1 close: {e}"))?;
    outcome.superseded = report.superseded_entries as u64;

    // Final verification: generation 1 wins on the rewritten steps,
    // generation 0 survives on the rest.
    let reader = StoreReader::open(dir).map_err(|e| format!("final open: {e}"))?;
    for p in 0..producers {
        let name = var_name(p);
        for step in 0..steps {
            let revision = if step < rewrite_steps { 1 } else { 0 };
            let got = reader
                .get(step, &name)
                .map_err(|e| format!("final get ({p}, {step}): {e}"))?;
            if got != payload(seed, p, step, revision, len) {
                return Err(format!(
                    "final get ({p}, {step}): wrong bytes (expected revision {revision})"
                ));
            }
            outcome.verified += 1;
        }
    }
    if outcome.superseded != producers as u64 * rewrite_steps as u64 {
        return Err(format!(
            "expected {} superseded entries, commit reported {}",
            producers as u64 * rewrite_steps as u64,
            outcome.superseded
        ));
    }
    Ok(outcome)
}
