//! Layer replay for the library stack, measured from outside: the real
//! `compress_with_report` / `decompress` calls run beside a chunk by
//! chunk re-enactment through the layers' public functions (analyzer →
//! partitioner → solver → container), with a span around every call.
//! The re-enactment must reproduce the real call's bytes exactly;
//! otherwise the budget it prints would describe some other pipeline.

use crate::inputs::Verifier;
use crate::spec::Metrics;
use crate::stats::median;
use crate::trace::Tracer;
use isobar::analyzer::ColumnSelection;
use isobar::chunk::element_chunks;
use isobar::container::{ChunkMode, ChunkRecord, Header, CHUNK_HEADER_LEN, HEADER_LEN, VERSION};
use isobar::partitioner::{partition_into, reassemble_into};
use isobar::{Analyzer, CodecId, IsobarCompressor, IsobarOptions, Linearization};
use isobar_codecs::deflate::adler32;
use isobar_codecs::xxhash::xxh64;
use isobar_codecs::{codec_for, CodecScratch};
use isobar_simd::transpose::StreamLayout;
use std::hint::black_box;
use std::time::Instant;

/// One input to replay: element bytes and their width.
pub struct Sample<'a> {
    pub bytes: &'a [u8],
    pub width: usize,
}

/// Byte and decision counts gathered at the layer boundaries.
#[derive(Default)]
struct Counts {
    input_bytes: u64,
    chunks: u64,
    improvable_chunks: u64,
    columns: u64,
    compressible_columns: u64,
    partitioned_bytes: u64,
    reassembled_bytes: u64,
    solver_in: u64,
    solver_out: u64,
    metadata_bytes: u64,
    eupa_trials: u64,
    eupa_sample_bytes: u64,
    bwt_picks: u64,
    noverify_ns: u64,
}

/// Bytes EUPA trial-compresses for an input of `len` bytes: the
/// selector's sampling rule (`sample_blocks` runs of at most
/// `sample_elements`, capped at 1/16 of the input), times its trials.
/// Computed, not measured: the sample itself is private to the layer.
fn eupa_sample_bytes(options: &IsobarOptions, len: usize, width: usize, trials: usize) -> u64 {
    let n = len / width;
    let blocks = options.eupa.sample_blocks.max(1);
    let per_block = options
        .eupa
        .sample_elements
        .min((n / (16 * blocks)).max(512))
        .min(n);
    (options.eupa.sample_blocks * per_block * width * trials) as u64
}

/// Replay every sample through the layers. Returns (ops attempted, ops
/// failed, `pipeline.attributed_share`); panics if the replay and the
/// real call disagree.
pub fn lib_layers(
    t: &mut Tracer,
    m: &mut Metrics,
    samples: &[Sample],
    options: IsobarOptions,
    verifier: &Verifier,
) -> (u64, u64, f64) {
    let compressor = IsobarCompressor::new(options);
    let unverified = IsobarCompressor::new(IsobarOptions {
        verify: false,
        ..options
    });
    let analyzer = Analyzer::with_tau(options.tau);
    let mut c = Counts::default();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut first_ratio = 1.0;

    // Time inside the layer spans of the compress replay: its span
    // minus its own self time.
    let layered_ms = |t: &Tracer| t.total_ms("replay.compress") - t.self_ms("replay.compress");
    let mut attributed_per_op = Vec::new();

    for (op, s) in samples.iter().enumerate() {
        let op = op as u64;
        attempted += 1;
        let (layered_before, real_before) = (layered_ms(t), t.total_ms("pipeline.compress"));
        c.input_bytes += s.bytes.len() as u64;

        t.begin("pipeline.compress", op);
        let (packed, report) = compressor
            .compress_with_report(s.bytes, s.width)
            .expect("compress");
        t.end();
        t.begin("pipeline.decompress", op);
        let restored = compressor.decompress(&packed).expect("decompress");
        t.end();
        if !verifier.same(&restored, s.bytes) {
            failed += 1;
        }
        let t0 = Instant::now();
        black_box(unverified.decompress(&packed).expect("decompress"));
        c.noverify_ns += t0.elapsed().as_nanos() as u64;
        if op == 0 {
            first_ratio = report.ratio();
        }

        // Compress side. Like the real call, each op starts with cold
        // working memory; EUPA's cost includes the head-chunk analysis
        // it needs, as in the product.
        t.begin("replay.compress", op);
        let mut scratch = CodecScratch::new();
        let mut compressible = Vec::new();
        if let Some(decision) = &report.eupa {
            t.begin("eupa", op);
            let head = element_chunks(s.bytes, s.width, options.chunk_elements)
                .next()
                .unwrap_or(&[]);
            let head_sel = analyzer.analyze(head, s.width).expect("analyze");
            let sel = if head_sel.is_improvable() {
                head_sel
            } else {
                ColumnSelection::new(vec![true; s.width])
            };
            let mut eupa = options.eupa;
            eupa.level = options.level;
            black_box(eupa.select(s.bytes, s.width, &sel, options.preference));
            t.end();
            c.eupa_trials += decision.samples.len() as u64;
            c.eupa_sample_bytes +=
                eupa_sample_bytes(&options, s.bytes.len(), s.width, decision.samples.len());
        }
        // Under `Preference::Speed` the pick rests on measured sample
        // throughput, so the replay takes it from the real call.
        let (codec_id, lin) = (report.codec, report.linearization);
        c.bwt_picks += u64::from(codec_id == CodecId::Bzip2Like);
        let codec = codec_for(codec_id, options.level);
        let mut records = Vec::new();
        for (i, chunk) in element_chunks(s.bytes, s.width, options.chunk_elements).enumerate() {
            let selection = t.span("analyzer", op, || {
                analyzer.analyze(chunk, s.width).expect("analyze")
            });
            c.chunks += 1;
            c.columns += s.width as u64;
            let elements = (chunk.len() / s.width) as u32;
            let record = if selection.is_improvable() {
                c.improvable_chunks += 1;
                c.compressible_columns += selection.compressible().len() as u64;
                let mut incompressible = Vec::new();
                t.span("partitioner.partition", op, || {
                    partition_into(
                        chunk,
                        s.width,
                        &selection,
                        lin,
                        &mut compressible,
                        &mut incompressible,
                    )
                });
                c.partitioned_bytes += chunk.len() as u64;
                let mut compressed = Vec::with_capacity(compressible.len() / 2 + 64);
                t.span("codecs.compress", op, || {
                    codec.compress_into(&compressible, &mut compressed, &mut scratch)
                });
                c.solver_in += compressible.len() as u64;
                c.solver_out += compressed.len() as u64;
                ChunkRecord {
                    mode: ChunkMode::Partitioned,
                    elements,
                    mask: selection.to_mask().expect("mask"),
                    compressed,
                    incompressible,
                }
            } else {
                // Undetermined chunk: the solver sees all of it.
                c.compressible_columns += s.width as u64;
                let mut compressed = Vec::with_capacity(chunk.len() / 2 + 64);
                t.span("codecs.compress", op, || {
                    codec.compress_into(chunk, &mut compressed, &mut scratch)
                });
                c.solver_in += chunk.len() as u64;
                c.solver_out += compressed.len() as u64;
                ChunkRecord {
                    mode: ChunkMode::Passthrough,
                    elements,
                    mask: 0,
                    compressed,
                    incompressible: Vec::new(),
                }
            };
            let real = &report.chunks[i];
            assert!(
                real.mode == record.mode
                    && real.mask == record.mask
                    && real.compressed_len == record.compressed.len()
                    && real.incompressible_len == record.incompressible.len(),
                "replay diverged from the real call at op {op} chunk {i}: {real:?}"
            );
            records.push(record);
        }
        let replayed = t.span("container.write", op, || {
            let header = Header {
                version: VERSION,
                width: s.width as u8,
                codec: codec_id,
                level: options.level,
                linearization: lin,
                preference: options.preference.to_u8(),
                chunk_elements: options.chunk_elements as u32,
                total_len: s.bytes.len() as u64,
                checksum: adler32(s.bytes),
            };
            let body: usize = records.iter().map(ChunkRecord::encoded_len).sum();
            let mut out = Vec::with_capacity(HEADER_LEN + body);
            header.write(&mut out);
            for r in &records {
                r.write(&mut out);
            }
            out
        });
        t.end();
        assert!(
            replayed == packed,
            "replayed container differs from the real one at op {op}"
        );
        c.metadata_bytes += (HEADER_LEN + records.len() * CHUNK_HEADER_LEN) as u64;
        drop(records);
        attributed_per_op.push(
            (layered_ms(t) - layered_before) / (t.total_ms("pipeline.compress") - real_before),
        );

        // Decompress side.
        t.begin("replay.decompress", op);
        let (header, records) = t.span("container.read", op, || {
            let header = Header::read(&packed).expect("header");
            let mut records = Vec::new();
            let mut offset = HEADER_LEN;
            let mut claimed = 0u64;
            while claimed < header.total_len {
                let (record, used) = ChunkRecord::read_bounded(
                    &packed[offset..],
                    s.width,
                    header.chunk_elements,
                    header.version,
                    true,
                    offset as u64,
                )
                .expect("chunk record");
                claimed += u64::from(record.elements) * s.width as u64;
                offset += used;
                records.push(record);
            }
            (header, records)
        });
        let mut out = Vec::with_capacity(header.total_len as usize);
        let mut scratch = CodecScratch::new();
        let mut decoded = Vec::new();
        for record in &records {
            t.span("codecs.decompress", op, || {
                codec
                    .decompress_into(&record.compressed, &mut decoded, &mut scratch)
                    .expect("solver decompress")
            });
            if record.mode == ChunkMode::Partitioned {
                let selection = record.selection(s.width).expect("selection");
                let start = out.len();
                out.resize(start + decoded.len() + record.incompressible.len(), 0);
                t.span("partitioner.reassemble", op, || {
                    reassemble_into(
                        &decoded,
                        &record.incompressible,
                        s.width,
                        &selection,
                        lin,
                        &mut out[start..],
                    )
                });
                c.reassembled_bytes += (out.len() - start) as u64;
            } else {
                out.extend_from_slice(&decoded);
            }
        }
        let sum = t.span("container.read", op, || adler32(&out));
        t.end();
        assert!(
            sum == header.checksum && out == s.bytes,
            "replayed decompress differs at op {op}"
        );
    }

    let mb = |bytes: u64, ms: f64| {
        if ms > 0.0 {
            bytes as f64 / 1e3 / ms
        } else {
            0.0
        }
    };
    let share = |part: u64, whole: u64| {
        if whole > 0 {
            part as f64 / whole as f64
        } else {
            0.0
        }
    };

    let analyzer_ms = t.total_ms("analyzer");
    m.set("analyzer.busy_ms", analyzer_ms);
    m.set("analyzer.mbps", mb(c.input_bytes, analyzer_ms));
    m.set("analyzer.calls", t.count("analyzer") as f64);
    m.set(
        "analyzer.compressible_col_share",
        share(c.compressible_columns, c.columns),
    );
    m.set(
        "analyzer.improvable_chunk_share",
        share(c.improvable_chunks, c.chunks),
    );

    let (partition_ms, reassemble_ms) = (
        t.total_ms("partitioner.partition"),
        t.total_ms("partitioner.reassemble"),
    );
    m.set("partitioner.partition_ms", partition_ms);
    m.set("partitioner.reassemble_ms", reassemble_ms);
    m.set(
        "partitioner.mbps",
        mb(
            c.partitioned_bytes + c.reassembled_bytes,
            partition_ms + reassemble_ms,
        ),
    );
    m.set(
        "partitioner.solver_byte_share",
        share(c.solver_in, c.input_bytes),
    );

    let eupa_ms = t.total_ms("eupa");
    m.set("eupa.busy_ms", eupa_ms);
    m.set("eupa.trials", c.eupa_trials as f64);
    m.set(
        "eupa.sample_byte_share",
        share(c.eupa_sample_bytes, c.input_bytes),
    );
    m.set(
        "eupa.pick_bwt_share",
        share(c.bwt_picks, samples.len() as u64),
    );
    m.set(
        "eupa.ratio_regret",
        ratio_regret(&samples[0], options, first_ratio),
    );

    let (comp_ms, decomp_ms) = (
        t.total_ms("codecs.compress"),
        t.total_ms("codecs.decompress"),
    );
    m.set("codecs.compress_ms", comp_ms);
    m.set("codecs.compress_mbps", mb(c.solver_in, comp_ms));
    m.set("codecs.decompress_ms", decomp_ms);
    m.set("codecs.decompress_mbps", mb(c.solver_in, decomp_ms));
    m.set("codecs.in_bytes", c.solver_in as f64);
    m.set("codecs.out_bytes", c.solver_out as f64);
    m.set("codecs.stream_ratio", share(c.solver_in, c.solver_out));

    let write_ms = t.total_ms("container.write");
    m.set("container.write_ms", write_ms);
    m.set("container.read_ms", t.total_ms("container.read"));
    m.set("container.metadata_bytes", c.metadata_bytes as f64);

    let (real_comp_ms, real_decomp_ms) = (
        t.total_ms("pipeline.compress"),
        t.total_ms("pipeline.decompress"),
    );
    // The real call and its replay run a fraction of a second apart,
    // and the machine's speed can differ between them: the median over
    // the ops shrugs off the one op a burst fell on.
    let attributed = median(&attributed_per_op);
    m.set("pipeline.compress_ms", real_comp_ms);
    m.set("pipeline.decompress_ms", real_decomp_ms);
    m.set("pipeline.attributed_share", attributed);
    m.set(
        "pipeline.verify_share",
        1.0 - c.noverify_ns as f64 / 1e6 / real_decomp_ms,
    );

    simd_kernels(m, &samples[0], &analyzer, options.chunk_elements);
    m.set(
        "trace.rings_on_overhead_share",
        rings_on_overhead(&samples[0], &compressor),
    );
    (attempted, failed, attributed)
}

/// Best full-input ratio over the four codec × linearization overrides
/// divided by the ratio of the real call's pick.
fn ratio_regret(s: &Sample, options: IsobarOptions, picked_ratio: f64) -> f64 {
    let mut best: f64 = 0.0;
    for codec in [CodecId::Deflate, CodecId::Bzip2Like] {
        for lin in Linearization::ALL {
            let forced = IsobarCompressor::new(IsobarOptions {
                codec_override: Some(codec),
                linearization_override: Some(lin),
                ..options
            });
            let packed = forced
                .compress(s.bytes, s.width)
                .expect("override compress");
            best = best.max(s.bytes.len() as f64 / packed.len() as f64);
        }
    }
    best / picked_ratio
}

/// The public kernels at the active tier, on the first chunk.
fn simd_kernels(m: &mut Metrics, s: &Sample, analyzer: &Analyzer, chunk_elements: usize) {
    let tier = isobar_simd::active_tier();
    let chunk = element_chunks(s.bytes, s.width, chunk_elements)
        .next()
        .unwrap_or(&[]);
    let selection = analyzer.analyze(chunk, s.width).expect("analyze");
    let (a_cols, b_cols) = if selection.is_improvable() {
        (selection.compressible(), selection.incompressible())
    } else {
        ((0..s.width).collect(), Vec::new())
    };
    let n = chunk.len() / s.width;
    let mut hist = Vec::new();
    let mut a = vec![0u8; n * a_cols.len()];
    let mut b = vec![0u8; n * b_cols.len()];
    let rate = |f: &mut dyn FnMut()| {
        let rates: Vec<f64> = (0..7)
            .map(|_| {
                let t = Instant::now();
                f();
                chunk.len() as f64 / 1e6 / t.elapsed().as_secs_f64().max(1e-9)
            })
            .collect();
        median(&rates)
    };
    m.set(
        "simd.hist_mbps",
        rate(&mut || {
            isobar_simd::hist::byte_column_histograms(tier, black_box(chunk), s.width, &mut hist)
        }),
    );
    m.set(
        "simd.partition2_mbps",
        rate(&mut || {
            isobar_simd::transpose::partition2(
                tier,
                black_box(chunk),
                s.width,
                &a_cols,
                StreamLayout::ColumnMajor,
                &mut a,
                &b_cols,
                &mut b,
            )
        }),
    );
    m.set(
        "simd.xxh64_mbps",
        rate(&mut || {
            black_box(xxh64(black_box(chunk), 0));
        }),
    );
}

/// `compress` with the product's trace rings recording against the
/// same call with them idle: what watching costs.
fn rings_on_overhead(s: &Sample, compressor: &IsobarCompressor) -> f64 {
    let (mut off, mut on) = (Vec::new(), Vec::new());
    for _ in 0..2 {
        for active in [false, true] {
            isobar::trace::set_active(active);
            let t = Instant::now();
            black_box(compressor.compress(s.bytes, s.width).expect("compress"));
            let secs = t.elapsed().as_secs_f64();
            if active { &mut on } else { &mut off }.push(secs);
        }
    }
    isobar::trace::set_active(false);
    drop(isobar::trace::drain());
    (median(&on) - median(&off)) / median(&off)
}
