//! In-situ checkpoint store: write a multi-variable simulation run,
//! restore selectively.
//!
//! Run with: `cargo run --release --example insitu_store`
//!
//! Models the deployment the paper targets: a fusion simulation dumps
//! several variables per checkpoint step; ISOBAR compresses each one
//! on the way to disk, and a later restart reads back exactly the
//! variables it needs, bit-for-bit.

use isobar::{IsobarOptions, Preference};
use isobar_datasets::catalog;
use isobar_store::{ShardedOptions, ShardedStoreWriter, StoreReader};

const STEPS: u32 = 5;
const ELEMENTS: usize = 120_000;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::env::temp_dir().join("isobar-demo-run.store");
    std::fs::remove_dir_all(&dir).ok();

    // --- simulation side: write checkpoints in-situ ------------------
    // The simulation hands off each variable and immediately moves on;
    // each shard's codec thread runs ISOBAR and its I/O thread the file
    // writes behind it, so compression overlaps compute.
    let variables = [
        ("zion", catalog::spec("gts_chkp_zion").expect("catalog")),
        ("zeon", catalog::spec("gts_chkp_zeon").expect("catalog")),
        ("phi", catalog::spec("gts_phi_l").expect("catalog")),
    ];
    let writer = ShardedStoreWriter::create(
        &dir,
        IsobarOptions {
            preference: Preference::Speed,
            ..Default::default()
        },
        ShardedOptions {
            shards: 2,
            queue_depth: 2, // at most two checkpoints in flight per shard
        },
    )?;
    let start = std::time::Instant::now();
    let mut raw_total = 0usize;
    let mut handoff_secs = 0.0;
    for step in 0..STEPS {
        for (name, spec) in &variables {
            // "Compute" the next field, then hand it off.
            let ds = spec.generate(ELEMENTS, 9000 + step as u64);
            raw_total += ds.bytes.len();
            let width = ds.width();
            let t = std::time::Instant::now();
            writer.put(step, name, ds.bytes, width)?;
            handoff_secs += t.elapsed().as_secs_f64();
        }
    }
    let handoff_share = handoff_secs / start.elapsed().as_secs_f64();
    let report = writer.close()?;
    let elapsed = start.elapsed().as_secs_f64();
    for entry in &report.new_entries {
        println!(
            "step {} {:<5} {:>9} -> {:>9} bytes (CR {:.3})",
            entry.step,
            entry.name,
            entry.raw_len,
            entry.container_len,
            entry.ratio()
        );
    }
    println!(
        "---\nwrote {} checkpoints in {} segments, {:.1} MB raw at {:.1} MB/s effective; \
         producer spent {:.1}% of the write loop in put()",
        report.new_entries.len(),
        report.segments_committed,
        raw_total as f64 / 1e6,
        raw_total as f64 / 1e6 / elapsed,
        handoff_share * 100.0
    );

    // --- restart side: selective restore ----------------------------
    let reader = StoreReader::open(&dir)?;
    println!(
        "store: steps {:?}, variables {:?}, overall CR {:.3}",
        reader.steps(),
        reader.variables(),
        reader.overall_ratio()
    );
    // Restore only the final step's ion checkpoint, as a restart would.
    let last = *reader.steps().last().expect("non-empty run");
    let restored = reader.get(last, "zion")?;
    let expected = variables[0].1.generate(ELEMENTS, 9000 + last as u64);
    assert_eq!(restored, expected.bytes);
    println!(
        "restored step {last} 'zion' bit-exactly ({} bytes)",
        restored.len()
    );

    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}
