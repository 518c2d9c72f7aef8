//! End-to-end checks that the telemetry snapshot produced by the
//! pipeline covers every stage and stays consistent across execution
//! strategies (serial vs parallel workers).

use isobar::telemetry::{Counter, Stage, ENABLED};
use isobar::{IsobarCompressor, IsobarOptions, Preference, Recorder};

/// Mixed data: high byte-columns predictable, low columns noisy —
/// the ISOBAR sweet spot, so both partitions are exercised.
fn mixed_data(elements: usize) -> Vec<u8> {
    (0..elements as u64)
        .flat_map(|i| ((i / 7) << 32 | (i.wrapping_mul(0x9E37_79B9) & 0xFFFF_FFFF)).to_le_bytes())
        .collect()
}

fn compressor(parallel: bool) -> IsobarCompressor {
    IsobarCompressor::new(IsobarOptions {
        preference: Preference::Speed,
        chunk_elements: 4096,
        parallel,
        ..Default::default()
    })
}

#[test]
fn report_snapshot_covers_every_stage() {
    let data = mixed_data(20_000);
    let isobar = compressor(false);
    let (packed, report) = isobar.compress_with_report(&data, 8).unwrap();
    let snap = &report.telemetry;

    if !ENABLED {
        assert!(snap.is_empty(), "telemetry-off build must record nothing");
        return;
    }

    // Analyzer: one pass per chunk, every byte seen, all 8 columns
    // classified per chunk.
    let chunks = report.chunks.len() as u64;
    assert!(chunks >= 2, "want multiple chunks, got {chunks}");
    assert_eq!(snap.counter(Counter::AnalyzerChunks), chunks);
    assert_eq!(snap.counter(Counter::AnalyzerBytes), data.len() as u64);
    assert_eq!(
        snap.counter(Counter::ColumnsCompressible) + snap.counter(Counter::ColumnsIncompressible),
        chunks * 8,
    );
    let margin_samples: u64 = snap.tau_margin.iter().sum();
    assert_eq!(margin_samples, chunks * 8);

    // Partitioner: compressible + verbatim bytes account for every
    // partitioned chunk's input.
    assert!(snap.counter(Counter::PartitionVerbatimBytes) > 0);
    assert!(snap.counter(Counter::PartitionCompressibleBytes) > 0);

    // EUPA ran once; under Speed it tried the declared-fastest
    // solver's two layouts and never visited the slower one.
    assert_eq!(snap.counter(Counter::EupaRuns), 1);
    assert_eq!(snap.eupa_selected.iter().sum::<u64>(), 1);
    assert_eq!(snap.eupa_trial_count, [1, 1, 0, 0]);

    // Chunk pipeline counters and stage timers.
    assert_eq!(snap.counter(Counter::ChunksCompressed), chunks);
    assert_eq!(snap.counter(Counter::ChunkInputBytes), data.len() as u64);
    // Per-chunk output counts headers + payloads; only the top-level
    // container header sits outside any chunk.
    assert_eq!(
        snap.counter(Counter::ChunkOutputBytes) as usize + isobar::container::HEADER_LEN,
        packed.len(),
    );
    assert_eq!(snap.stage(Stage::Analyze).count, chunks);
    assert_eq!(snap.stage(Stage::SolverCompress).count, chunks);
    assert_eq!(snap.stage(Stage::EupaSelect).count, 1);
    assert_eq!(snap.stage(Stage::ContainerWrite).count, 1);

    // Container accounting matches the real header overhead.
    let payload: u64 = report
        .chunks
        .iter()
        .map(|c| (c.compressed_len + c.incompressible_len) as u64)
        .sum();
    assert_eq!(
        snap.counter(Counter::ContainerMetadataBytes) + payload,
        packed.len() as u64,
    );

    // Decompression side.
    let mut rec = Recorder::new();
    let mut scratch = isobar::PipelineScratch::new();
    let restored = isobar
        .decompress_recorded(&packed, &mut scratch, &mut rec)
        .unwrap();
    assert_eq!(restored, data);
    let dsnap = rec.snapshot();
    assert_eq!(dsnap.counter(Counter::ChunksDecompressed), chunks);
    assert_eq!(dsnap.counter(Counter::ChunkDecodedBytes), data.len() as u64);
    assert_eq!(dsnap.stage(Stage::ContainerRead).count, 1);
    assert!(dsnap.stage(Stage::SolverDecompress).count >= 1);
}

#[test]
fn parallel_and_serial_totals_agree() {
    // No EUPA decision reads a clock, so under either preference the
    // pick — and with it every byte counter — is a pure function of
    // the data.
    for preference in [Preference::Ratio, Preference::Speed] {
        let compressor = |parallel| {
            IsobarCompressor::new(IsobarOptions {
                preference,
                chunk_elements: 4096,
                parallel,
                ..Default::default()
            })
        };
        let data = mixed_data(30_000);
        let (serial_bytes, serial) = compressor(false).compress_with_report(&data, 8).unwrap();
        let (parallel_bytes, parallel) = compressor(true).compress_with_report(&data, 8).unwrap();
        assert_eq!(serial_bytes, parallel_bytes, "{preference:?}");

        if !ENABLED {
            assert!(serial.telemetry.is_empty() && parallel.telemetry.is_empty());
            continue;
        }

        // Wall-clock timings differ run to run, but every byte/count
        // counter and histogram must be identical regardless of worker
        // scheduling — the merge is commutative.
        for c in Counter::ALL {
            if matches!(c, Counter::ScratchReuseHits | Counter::ScratchReuseMisses) {
                // Workers each warm their own scratch, so hit/miss split
                // differs; only the total is scheduling-independent.
                continue;
            }
            assert_eq!(
                serial.telemetry.counter(c),
                parallel.telemetry.counter(c),
                "counter {} diverged between serial and parallel under {preference:?}",
                c.name(),
            );
        }
        assert_eq!(
            serial.telemetry.counter(Counter::ScratchReuseHits)
                + serial.telemetry.counter(Counter::ScratchReuseMisses),
            parallel.telemetry.counter(Counter::ScratchReuseHits)
                + parallel.telemetry.counter(Counter::ScratchReuseMisses),
        );
        assert_eq!(serial.telemetry.tau_margin, parallel.telemetry.tau_margin);
        assert_eq!(
            serial.telemetry.eupa_selected,
            parallel.telemetry.eupa_selected
        );
        assert_eq!(
            serial.telemetry.eupa_trial_count,
            parallel.telemetry.eupa_trial_count
        );
    }
}

#[test]
fn recorded_compress_accumulates_across_calls() {
    let data = mixed_data(8_192);
    let isobar = compressor(false);
    let mut scratch = isobar::PipelineScratch::new();
    let mut rec = Recorder::new();
    let packed = isobar
        .compress_recorded(&data, 8, &mut scratch, &mut rec)
        .unwrap();
    isobar
        .compress_recorded(&data, 8, &mut scratch, &mut rec)
        .unwrap();
    let snap = rec.snapshot();

    if !ENABLED {
        assert!(snap.is_empty());
        return;
    }
    assert_eq!(snap.counter(Counter::EupaRuns), 2);
    assert_eq!(snap.counter(Counter::AnalyzerBytes), 2 * data.len() as u64);
    assert_eq!(isobar.decompress(&packed).unwrap(), data);
}

#[test]
fn stream_writer_and_reader_expose_telemetry() {
    use isobar::container::{CHUNK_HEADER_LEN, HEADER_LEN, TRAILER_LEN};
    use isobar::{IsobarReader, IsobarWriter};
    use std::io::Write;

    let data = mixed_data(12_000);
    let mut writer = IsobarWriter::new(
        Vec::new(),
        8,
        IsobarOptions {
            preference: Preference::Speed,
            chunk_elements: 4096,
            ..Default::default()
        },
    )
    .unwrap();
    writer.write_all(&data).unwrap();
    let (encoded, report) = writer.finish().unwrap();
    let wsnap = report.telemetry;

    let mut reader = IsobarReader::new(&encoded[..]).unwrap();
    let mut restored = Vec::new();
    std::io::Read::read_to_end(&mut reader, &mut restored).unwrap();
    assert_eq!(restored, data);
    let rsnap = reader.telemetry();

    if !ENABLED {
        assert!(wsnap.is_empty() && rsnap.is_empty());
        return;
    }
    let chunks = wsnap.counter(Counter::ChunksCompressed);
    assert!(chunks >= 2, "want multiple chunks, got {chunks}");
    assert_eq!(rsnap.counter(Counter::ChunksDecompressed), chunks);
    // Writer and reader see the same framing overhead: header +
    // per-chunk header + trailer.
    assert_eq!(
        wsnap.counter(Counter::ContainerMetadataBytes),
        rsnap.counter(Counter::ContainerMetadataBytes),
    );
    let payload: u64 =
        encoded.len() as u64 - (HEADER_LEN + TRAILER_LEN) as u64 - chunks * CHUNK_HEADER_LEN as u64;
    assert_eq!(
        wsnap.counter(Counter::ContainerMetadataBytes) + payload,
        encoded.len() as u64,
    );
    assert_eq!(rsnap.counter(Counter::ChunkDecodedBytes), data.len() as u64);
    assert_eq!(rsnap.stage(Stage::ContainerRead).count, 1);
}
