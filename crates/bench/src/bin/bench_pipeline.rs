//! End-to-end pipeline throughput benchmark with a JSON trajectory.
//!
//! Measures ISOBAR compression/decompression throughput on the paper's
//! headline workload — chunks of 375 000 eight-byte elements (≈ 3 MB)
//! of a hard-to-compress double field — and writes the numbers to a
//! JSON file (default `BENCH_pipeline.json`) so future changes have a
//! recorded baseline to regress against.
//!
//! Usage:
//!
//! ```text
//! bench_pipeline [--label NAME] [--out FILE] [--trace FILE]
//!                [--kernels scalar|auto]
//!                [--baseline-label NAME --baseline-mbps X ...]
//! ```
//!
//! `--baseline-mbps` takes `key=value` pairs (repeatable) naming a
//! prior run's results; each is embedded in the output together with
//! the speedup of this run over it. `--trace` writes a Chrome
//! trace-event timeline of one serial round trip (the same run that
//! feeds the stage breakdown), loadable in Perfetto.

use isobar::telemetry::{Stage, ENABLED};
use isobar::{CodecId, IsobarCompressor, IsobarOptions, Linearization, Preference, Recorder};
use isobar_codecs::CompressionLevel;
use isobar_datasets::catalog;
use std::fmt::Write as _;
use std::time::Instant;

/// Version of the JSON layout written by this benchmark. Bumped when
/// fields are added, renamed, or change meaning.
const BENCH_SCHEMA_VERSION: u32 = 2;

/// One paper chunk: 375 000 doubles ≈ 3 MB.
const CHUNK_ELEMENTS: usize = 375_000;
/// Whole workload: 8 chunks ≈ 24 MB.
const CHUNKS: usize = 8;
/// Timed repetitions per configuration (median reported).
const ITERS: usize = 5;

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaN throughputs"));
    samples[samples.len() / 2]
}

/// Median throughput of `f` over [`ITERS`] runs, in MB/s of `bytes`
/// (same sub-resolution clamp as every other harness number).
fn throughput_mbps(bytes: usize, mut f: impl FnMut()) -> f64 {
    let mut samples = Vec::with_capacity(ITERS);
    for _ in 0..ITERS {
        let start = Instant::now();
        f();
        samples.push(isobar_bench::mbps(bytes, start.elapsed().as_secs_f64()));
    }
    median(&mut samples)
}

fn options(level: CompressionLevel, parallel: bool) -> IsobarOptions {
    IsobarOptions {
        level,
        chunk_elements: CHUNK_ELEMENTS,
        codec_override: Some(CodecId::Deflate),
        linearization_override: Some(Linearization::Row),
        parallel,
        ..Default::default()
    }
}

fn main() {
    let mut label = String::from("current");
    let mut out_path = String::from("BENCH_pipeline.json");
    let mut trace_path: Option<String> = None;
    let mut baseline_label = String::new();
    let mut baseline: Vec<(String, f64)> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--label" => label = args.next().expect("--label NAME"),
            "--out" => out_path = args.next().expect("--out FILE"),
            "--trace" => trace_path = Some(args.next().expect("--trace FILE")),
            "--kernels" => {
                let raw = args.next().expect("--kernels scalar|auto");
                let selection =
                    isobar::KernelSelection::parse(&raw).expect("--kernels takes scalar or auto");
                isobar::set_kernels(selection);
            }
            "--baseline-label" => baseline_label = args.next().expect("--baseline-label NAME"),
            "--baseline-mbps" => {
                let pair = args.next().expect("--baseline-mbps key=value");
                let (key, value) = pair.split_once('=').expect("key=value");
                baseline.push((key.to_string(), value.parse().expect("numeric value")));
            }
            other => panic!("unknown argument {other:?}"),
        }
    }

    let kernel_tier = isobar::active_kernel_tier();
    let ds = catalog::spec("gts_chkp_zion")
        .expect("catalog entry")
        .generate(CHUNKS * CHUNK_ELEMENTS, 7);
    let bytes = ds.bytes.len();
    let width = ds.width();
    eprintln!(
        "workload: gts_chkp_zion, {} elements x {width} bytes = {:.1} MB, {CHUNKS} chunks, kernels {kernel_tier}",
        CHUNKS * CHUNK_ELEMENTS,
        bytes as f64 / 1e6
    );

    let mut results: Vec<(String, f64)> = Vec::new();
    let mut record = |name: &str, mbps: f64| {
        eprintln!("{name:<28} {mbps:>9.1} MB/s");
        results.push((name.to_string(), mbps));
    };

    // Headline: serial end-to-end compression (analyze + partition +
    // deflate + merge) at both solver effort levels.
    for (name, level) in [
        ("compress_serial_fast", CompressionLevel::Fast),
        ("compress_serial_default", CompressionLevel::Default),
    ] {
        let isobar = IsobarCompressor::new(options(level, false));
        record(
            name,
            throughput_mbps(bytes, || {
                isobar.compress(&ds.bytes, width).expect("aligned input");
            }),
        );
    }

    // Parallel chunk pipeline.
    let isobar = IsobarCompressor::new(options(CompressionLevel::Fast, true));
    record(
        "compress_parallel_fast",
        throughput_mbps(bytes, || {
            isobar.compress(&ds.bytes, width).expect("aligned input");
        }),
    );

    // EUPA-driven end-to-end path (no overrides).
    let isobar = IsobarCompressor::new(IsobarOptions {
        preference: Preference::Speed,
        chunk_elements: CHUNK_ELEMENTS,
        ..Default::default()
    });
    record(
        "compress_eupa_speed",
        throughput_mbps(bytes, || {
            isobar.compress(&ds.bytes, width).expect("aligned input");
        }),
    );

    // Decompression of the default-level container.
    let isobar = IsobarCompressor::new(options(CompressionLevel::Default, false));
    let packed = isobar.compress(&ds.bytes, width).expect("aligned input");
    let ratio = bytes as f64 / packed.len() as f64;
    record(
        "decompress_serial_default",
        throughput_mbps(bytes, || {
            isobar.decompress(&packed).expect("own container");
        }),
    );

    // Checksum-verification cost: the same container decoded with the
    // `verify` knob cleared. The pair quantifies what the default-on
    // integrity checking costs, and the regression gate holds both
    // paths — a change that slows verification itself shows up here
    // even if plain decode throughput is unchanged.
    let no_verify = IsobarCompressor::new(IsobarOptions {
        verify: false,
        ..options(CompressionLevel::Default, false)
    });
    record(
        "decompress_verify_off",
        throughput_mbps(bytes, || {
            no_verify.decompress(&packed).expect("own container");
        }),
    );

    // Checkpoint-store put through the sharded writer, whose per-shard
    // codec/io pipelines overlap compression with `fdatasync`. Each
    // timed run builds a fresh store and includes the full
    // create-to-commit wall time.
    let store_scratch =
        std::env::temp_dir().join(format!("isobar-bench-store-{}", std::process::id()));
    let chunk_bytes = CHUNK_ELEMENTS * width;
    let store_options = options(CompressionLevel::Fast, false);
    // One codec thread per core (capped at the default shard count):
    // extra shards on a narrow machine just evict each other's cache
    // working sets. See docs/STORE.md for the tuning rationale.
    let shards = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(4) as u16;
    eprintln!("store shards: {shards}");
    record(
        "store_put_sharded",
        throughput_mbps(bytes, || {
            let _ = std::fs::remove_dir_all(&store_scratch);
            let writer = isobar_store::ShardedStoreWriter::create(
                &store_scratch,
                store_options,
                isobar_store::ShardedOptions {
                    shards,
                    queue_depth: 2,
                },
            )
            .expect("create sharded store");
            for (step, chunk) in ds.bytes.chunks(chunk_bytes).enumerate() {
                writer
                    .put(step as u32, "field", chunk.to_vec(), width)
                    .expect("store put");
            }
            writer.close().expect("store commit");
            let _ = std::fs::remove_dir_all(&store_scratch);
        }),
    );

    // Verified random access against a committed sharded store: every
    // chunk read back (pread, checksum verified, decompressed) once
    // per timed run.
    {
        let _ = std::fs::remove_dir_all(&store_scratch);
        let writer = isobar_store::ShardedStoreWriter::create(
            &store_scratch,
            store_options,
            isobar_store::ShardedOptions {
                shards,
                queue_depth: 2,
            },
        )
        .expect("create sharded store");
        for (step, chunk) in ds.bytes.chunks(chunk_bytes).enumerate() {
            writer
                .put(step as u32, "field", chunk.to_vec(), width)
                .expect("store put");
        }
        writer.close().expect("store commit");
        let reader = isobar_store::StoreReader::open(&store_scratch).expect("open store");
        record(
            "store_get_sharded",
            throughput_mbps(bytes, || {
                for step in 0..CHUNKS {
                    let out = reader.get(step as u32, "field").expect("store get");
                    assert_eq!(out.len(), chunk_bytes);
                }
            }),
        );
    }
    let _ = std::fs::remove_dir_all(&store_scratch);

    // Daemon round-trip throughput: an in-process `isobar serve` on a
    // loopback socket, driven by concurrent mixed put/get clients (the
    // serve-soak harness at bench scale). Unlike the store rows this
    // includes the wire protocol, admission control, and tenancy
    // prefixing, so a slowdown anywhere on the network path lands in
    // the regression gate. Median of the usual ITERS runs; a soak that
    // reports any error is a hard failure, not a slow result.
    {
        let soak_config = isobar_bench::soak::SoakConfig {
            clients: 8,
            iters: 4,
            payload_bytes: chunk_bytes,
            server: isobar_server::ServeOptions {
                shards,
                ..Default::default()
            },
            chaos: None,
        };
        let mut samples = Vec::with_capacity(ITERS);
        for _ in 0..ITERS {
            let _ = std::fs::remove_dir_all(&store_scratch);
            let report =
                isobar_bench::soak::run_soak(&store_scratch, &soak_config).expect("serve soak run");
            assert!(report.errors.is_empty(), "soak errors: {:?}", report.errors);
            assert_eq!(report.server.protocol_errors, 0, "soak protocol errors");
            samples.push(report.mbps);
            let _ = std::fs::remove_dir_all(&store_scratch);
        }
        record("serve_soak_mixed", median(&mut samples));
    }

    // One instrumented round trip (serial default, outside the timed
    // loops) yielding the telemetry per-stage wall-time breakdown and,
    // with `--trace`, the span timeline of the same run.
    let stage_breakdown = if ENABLED || trace_path.is_some() {
        if trace_path.is_some() {
            if !isobar::trace::ENABLED {
                eprintln!("note: this binary was built without tracing; the trace will be empty");
            }
            isobar::trace::reset();
            isobar::trace::set_active(true);
        }
        let mut recorder = Recorder::new();
        let mut scratch = isobar::PipelineScratch::new();
        isobar
            .compress_recorded(&ds.bytes, width, &mut scratch, &mut recorder)
            .expect("aligned input");
        isobar
            .decompress_recorded(&packed, &mut scratch, &mut recorder)
            .expect("own container");
        if let Some(path) = &trace_path {
            isobar::trace::set_active(false);
            let trace = isobar::trace::drain();
            std::fs::write(path, trace.to_chrome_json()).expect("write trace JSON");
            eprintln!("trace: {} events -> {path}", trace.event_count());
        }
        let snap = recorder.snapshot();
        let lines: Vec<String> = Stage::ALL
            .iter()
            .filter(|&&s| snap.stage(s).count > 0)
            .map(|&s| {
                let stats = snap.stage(s);
                format!(
                    "    \"{}\": {{\"count\": {}, \"total_ms\": {:.3}, \"mean_us\": {:.3}}}",
                    s.name(),
                    stats.count,
                    stats.total_nanos as f64 / 1e6,
                    stats.mean_nanos() as f64 / 1e3,
                )
            })
            .collect();
        // A trace-only run (telemetry compiled out) has no breakdown.
        ENABLED.then_some(lines)
    } else {
        None
    };

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"schema_version\": {BENCH_SCHEMA_VERSION},");
    let _ = writeln!(json, "  \"label\": \"{label}\",");
    let _ = writeln!(json, "  \"kernel_tier\": \"{kernel_tier}\",");
    let _ = writeln!(json, "  \"dataset\": \"gts_chkp_zion\",");
    let _ = writeln!(json, "  \"chunk_elements\": {CHUNK_ELEMENTS},");
    let _ = writeln!(json, "  \"chunks\": {CHUNKS},");
    let _ = writeln!(json, "  \"element_width\": {width},");
    let _ = writeln!(json, "  \"input_bytes\": {bytes},");
    let _ = writeln!(json, "  \"ratio_default\": {ratio:.4},");
    let _ = writeln!(json, "  \"iters_per_result\": {ITERS},");
    json.push_str("  \"results_mbps\": {\n");
    for (i, (name, mbps)) in results.iter().enumerate() {
        let comma = if i + 1 < results.len() { "," } else { "" };
        let _ = writeln!(json, "    \"{name}\": {mbps:.1}{comma}");
    }
    json.push_str("  }");
    if let Some(lines) = &stage_breakdown {
        // Per-stage wall time from one instrumented serial round trip;
        // the throughput numbers above come from uninstrumented runs.
        json.push_str(",\n  \"stage_breakdown\": {\n");
        json.push_str(&lines.join(",\n"));
        json.push_str("\n  }");
    }
    if !baseline.is_empty() {
        json.push_str(",\n  \"baseline\": {\n");
        let _ = writeln!(json, "    \"label\": \"{baseline_label}\",");
        json.push_str("    \"results_mbps\": {\n");
        for (i, (name, mbps)) in baseline.iter().enumerate() {
            let comma = if i + 1 < baseline.len() { "," } else { "" };
            let _ = writeln!(json, "      \"{name}\": {mbps:.1}{comma}");
        }
        json.push_str("    }\n  },\n  \"speedup_vs_baseline\": {\n");
        let speedups: Vec<(usize, String)> = baseline
            .iter()
            .filter_map(|(name, base)| {
                results
                    .iter()
                    .position(|(n, _)| n == name)
                    .map(|i| (i, format!("    \"{name}\": {:.3}", results[i].1 / base)))
            })
            .collect();
        for (i, (_, line)) in speedups.iter().enumerate() {
            let comma = if i + 1 < speedups.len() { "," } else { "" };
            json.push_str(line);
            json.push_str(comma);
            json.push('\n');
        }
        json.push_str("  }");
    }
    json.push_str("\n}\n");

    std::fs::write(&out_path, &json).expect("write bench JSON");
    eprintln!("wrote {out_path}");
}
