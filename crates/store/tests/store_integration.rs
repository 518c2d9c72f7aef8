//! Integration tests for the checkpoint store: a simulated multi-step,
//! multi-variable run written in-situ and restored variable by
//! variable.

use isobar::{EupaSelector, IsobarOptions, Preference};
use isobar_datasets::catalog;
use isobar_store::{
    wip_path, ShardedOptions, ShardedStoreWriter, StoreError, StoreReader, MANIFEST_FILE,
};
use std::path::{Path, PathBuf};

/// A scratch store directory for one test; `name` is unique per test,
/// so no two tests ever create or delete the same path.
fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("isobar-store-test-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn options() -> IsobarOptions {
    IsobarOptions {
        preference: Preference::Speed,
        chunk_elements: 20_000,
        eupa: EupaSelector {
            sample_elements: 1024,
            sample_blocks: 2,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// The serial configuration: one shard, one segment per generation.
fn serial_writer(dir: &Path) -> ShardedStoreWriter {
    ShardedStoreWriter::create(
        dir,
        options(),
        ShardedOptions {
            shards: 1,
            ..Default::default()
        },
    )
    .unwrap()
}

fn file_names(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    names
}

#[test]
fn checkpoint_run_round_trips_every_variable() {
    let dir = tmp("run");
    let variables = ["zion", "zeon", "phi"];
    let steps = 4u32;
    let spec = catalog::spec("gts_chkp_zion").unwrap();

    let mut originals = Vec::new();
    let writer = serial_writer(&dir);
    for step in 0..steps {
        for (v, name) in variables.iter().enumerate() {
            let ds = spec.generate(25_000, (step as u64) << 8 | v as u64);
            writer.put(step, name, ds.bytes.clone(), 8).unwrap();
            originals.push((step, *name, ds.bytes));
        }
    }
    let report = writer.close().unwrap();
    assert_eq!(report.new_entries.len(), originals.len());
    for (entry, (_, _, bytes)) in report.new_entries.iter().zip(&originals) {
        assert_eq!(entry.raw_len as usize, bytes.len());
        assert!(entry.container_len < entry.raw_len, "compression happened");
    }

    let reader = StoreReader::open(&dir).unwrap();
    assert_eq!(reader.steps(), vec![0, 1, 2, 3]);
    assert_eq!(reader.variables(), variables.to_vec());
    assert!(reader.overall_ratio() > 1.0);

    // Random access in arbitrary order.
    for (step, name, bytes) in originals.iter().rev() {
        assert_eq!(&reader.get(*step, name).unwrap(), bytes, "{name}@{step}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn mixed_widths_per_variable() {
    let dir = tmp("widths");
    let doubles = catalog::spec("flash_velx").unwrap().generate(20_000, 1);
    let floats = catalog::spec("s3d_temp").unwrap().generate(20_000, 2);
    let writer = serial_writer(&dir);
    writer.put(0, "velx", doubles.bytes.clone(), 8).unwrap();
    writer.put(0, "temp", floats.bytes.clone(), 4).unwrap();
    writer.close().unwrap();
    let reader = StoreReader::open(&dir).unwrap();
    assert_eq!(reader.entry(0, "velx").unwrap().width, 8);
    assert_eq!(reader.entry(0, "temp").unwrap().width, 4);
    assert_eq!(reader.get(0, "velx").unwrap(), doubles.bytes);
    assert_eq!(reader.get(0, "temp").unwrap(), floats.bytes);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn missing_variables_are_not_found() {
    let dir = tmp("missing");
    let writer = serial_writer(&dir);
    writer.put(0, "present", vec![0u8; 80], 8).unwrap();
    writer.close().unwrap();
    let reader = StoreReader::open(&dir).unwrap();
    assert!(matches!(
        reader.get(0, "absent"),
        Err(StoreError::NotFound { .. })
    ));
    assert!(matches!(
        reader.get(9, "present"),
        Err(StoreError::NotFound { .. })
    ));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unclosed_store_is_rejected() {
    let dir = tmp("unclosed");
    {
        let writer = serial_writer(&dir);
        writer.put(0, "x", vec![1u8; 800], 8).unwrap();
        // Dropped without close(): the manifest swap never ran, so the
        // directory holds no manifest and the reader refuses.
    }
    assert!(matches!(
        StoreReader::open(&dir),
        Err(StoreError::Corrupt(
            "store directory has no manifest (store not committed?)"
        ))
    ));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn dropped_writer_leaves_no_partial_file() {
    // An abandoned writer must not leave its partial segment on disk,
    // where a later reader (or a backup sweep) could mistake it for a
    // checkpoint. Drop must remove the `.wip` journal and must never
    // have created a final segment name or a manifest at all.
    let dir = tmp("abandoned");
    {
        let writer = serial_writer(&dir);
        writer.put(0, "x", vec![1u8; 800], 8).unwrap();
        assert_eq!(
            file_names(&dir),
            ["g0000000000000000-s000.seg.wip"],
            "records journal to the .wip shadow file only"
        );
    }
    assert!(
        file_names(&dir).is_empty(),
        "drop must remove the journal and promote nothing"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn close_commits_atomically_and_cleans_journal() {
    let dir = tmp("committed");
    let writer = serial_writer(&dir);
    writer.put(0, "x", vec![7u8; 800], 8).unwrap();
    writer.close().unwrap();
    assert_eq!(
        file_names(&dir),
        [MANIFEST_FILE, "g0000000000000000-s000.seg"],
        "close must publish the manifest and consume every .wip journal"
    );
    assert!(!wip_path(&dir.join(MANIFEST_FILE)).exists());
    let reader = StoreReader::open(&dir).unwrap();
    assert_eq!(reader.get(0, "x").unwrap(), vec![7u8; 800]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncated_store_is_rejected() {
    let dir = tmp("trunc");
    let writer = serial_writer(&dir);
    writer.put(0, "x", vec![1u8; 8000], 8).unwrap();
    writer.close().unwrap();
    for file in file_names(&dir) {
        let path = dir.join(&file);
        let bytes = std::fs::read(&path).unwrap();
        for cut in [0usize, 4, bytes.len() / 2, bytes.len() - 1] {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            assert!(StoreReader::open(&dir).is_err(), "{file} cut at {cut}");
        }
        std::fs::write(&path, &bytes).unwrap();
    }
    assert!(StoreReader::open(&dir).is_ok(), "restored store opens");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn empty_store_round_trips() {
    let dir = tmp("empty");
    let report = serial_writer(&dir).close().unwrap();
    assert_eq!(report.segments_committed, 0, "empty shards are discarded");
    let reader = StoreReader::open(&dir).unwrap();
    assert!(reader.entries().is_empty());
    assert!(reader.steps().is_empty());
    assert_eq!(reader.overall_ratio(), 1.0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn store_telemetry_accounts_for_every_byte() {
    use isobar::telemetry::{Counter, ENABLED};

    let dir = tmp("telemetry");
    let ds = catalog::spec("gts_chkp_zion").unwrap().generate(25_000, 7);
    let writer = serial_writer(&dir);
    writer.put(0, "zion", ds.bytes.clone(), 8).unwrap();
    writer.put(1, "zion", ds.bytes.clone(), 8).unwrap();
    let report = writer.close().unwrap();
    let container_bytes: u64 = report.new_entries.iter().map(|e| e.container_len).sum();
    let snap = report.telemetry;

    if !ENABLED {
        assert!(snap.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
        return;
    }

    assert_eq!(snap.counter(Counter::StorePuts), 2);
    assert_eq!(
        snap.counter(Counter::StoreRawBytes),
        2 * ds.bytes.len() as u64
    );
    assert_eq!(snap.counter(Counter::StoreContainerBytes), container_bytes);
    assert_eq!(
        snap.counter(Counter::StoreManifestBytes),
        std::fs::metadata(dir.join(MANIFEST_FILE)).unwrap().len()
    );
    assert_eq!(snap.counter(Counter::StoreSegmentsCommitted), 1);
    // The underlying pipeline telemetry rides along.
    assert_eq!(snap.counter(Counter::EupaRuns), 2);
    assert!(snap.counter(Counter::AnalyzerBytes) >= 2 * ds.bytes.len() as u64);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn reader_is_shareable_across_threads() {
    let dir = tmp("threads");
    let ds = catalog::spec("gts_phi_l").unwrap().generate(20_000, 3);
    let writer = serial_writer(&dir);
    for step in 0..4u32 {
        writer.put(step, "phi", ds.bytes.clone(), 8).unwrap();
    }
    writer.close().unwrap();
    let reader = std::sync::Arc::new(StoreReader::open(&dir).unwrap());
    let handles: Vec<_> = (0..4u32)
        .map(|step| {
            let reader = reader.clone();
            let want = ds.bytes.clone();
            std::thread::spawn(move || {
                assert_eq!(reader.get(step, "phi").unwrap(), want);
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let _ = std::fs::remove_dir_all(&dir);
}
