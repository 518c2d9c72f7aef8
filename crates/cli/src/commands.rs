//! Command implementations for the `isobar` CLI.

use crate::args::{Command, CompressOptions, StatsFormat};
use isobar::container::Header;
use isobar::salvage::FsckReport;
use isobar::{Analyzer, IsobarCompressor, IsobarOptions, Recorder, TelemetrySnapshot};
use isobar_store::{EntryHealth, StoreFsckReport};
use std::fs;
use std::path::Path;

/// Exit code `fsck` returns when it finds damage (0 = clean, distinct
/// from 2 = processing error).
pub const EXIT_DAMAGE: u8 = 3;

/// Run a parsed command; returns the process exit code.
pub fn run(cmd: Command) -> Result<u8, String> {
    match cmd {
        Command::Compress {
            input,
            output,
            width,
            options,
            stream,
            quiet,
            stats,
            trace,
            kernels,
        } => traced(trace.as_deref(), || {
            apply_kernels(kernels);
            compress(&input, &output, width, options, stream, quiet, stats)
        })
        .map(|()| 0),
        Command::Decompress {
            input,
            output,
            skip_corrupt,
            verify,
            stats,
            trace,
            kernels,
        } => traced(trace.as_deref(), || {
            apply_kernels(kernels);
            decompress(&input, &output, skip_corrupt, verify, stats)
        })
        .map(|()| 0),
        Command::Analyze {
            input,
            width,
            tau,
            bits,
        } => analyze(&input, width, tau, bits).map(|()| 0),
        Command::Info { input } => info(&input).map(|()| 0),
        Command::Fsck { input } => fsck(&input),
        Command::Salvage { input, output } => salvage(&input, &output).map(|()| 0),
        Command::StorePut {
            dir,
            input,
            name,
            step,
            width,
            shards,
            queue_depth,
        } => store_put(&dir, &input, &name, step, width, shards, queue_depth).map(|()| 0),
        Command::StoreGet {
            dir,
            output,
            name,
            step,
            verify,
        } => store_get(&dir, &output, &name, step, verify).map(|()| 0),
        Command::StoreLs { dir, verify } => store_ls(&dir, verify).map(|()| 0),
        Command::StoreCompact { dir, shards } => store_compact(&dir, shards).map(|()| 0),
        Command::Serve {
            dir,
            addr,
            metrics,
            shards,
            queue_depth,
            max_payload,
            max_inflight,
            commit_threshold,
            max_connections,
            slow_ms,
            flight_recorder,
            debug_endpoint,
            wal,
            idle_timeout_secs,
            frame_deadline_secs,
        } => serve(
            &dir,
            &addr,
            metrics.as_deref(),
            isobar_server::ServeOptions {
                shards,
                queue_depth,
                max_payload,
                max_inflight_bytes: max_inflight,
                commit_threshold,
                max_connections,
                slow_ms,
                flight_recorder,
                debug_endpoint,
                wal,
                idle_timeout: (idle_timeout_secs != 0)
                    .then(|| std::time::Duration::from_secs(idle_timeout_secs)),
                frame_deadline: std::time::Duration::from_secs(frame_deadline_secs),
                isobar: IsobarOptions::default(),
            },
        )
        .map(|()| 0),
    }
}

/// Run the checkpoint daemon until SIGINT/SIGTERM, then drain
/// connections and commit the store through the two-phase protocol.
fn serve(
    dir: &Path,
    addr: &str,
    metrics: Option<&str>,
    options: isobar_server::ServeOptions,
) -> Result<(), String> {
    isobar_server::signals::install_shutdown_signals();
    let flight_on = options.flight_recorder.is_some();
    if flight_on {
        isobar_server::signals::install_usr1_signal();
    }
    let server = isobar_server::serve(dir, addr, metrics, options)
        .map_err(|e| format!("{}: {e}", dir.display()))?;
    eprintln!(
        "serving {} on {}{}",
        dir.display(),
        server.local_addr(),
        match server.metrics_addr() {
            Some(addr) => format!(" (metrics on http://{addr}/metrics)"),
            None => String::new(),
        },
    );
    // The signal handler only sets a flag (the async-signal-safe
    // minimum); this thread turns it into the actual drain (and, for
    // SIGUSR1, the flight-recorder dump).
    let handle = server.handle();
    while !isobar_server::signals::shutdown_requested() {
        if flight_on && isobar_server::signals::take_usr1() {
            match handle.dump_flight("sigusr1") {
                Some(path) => eprintln!("flight recorder dumped to {}", path.display()),
                None => eprintln!("flight recorder dump failed"),
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    eprintln!("shutdown requested; draining connections");
    server.shutdown();
    let report = server
        .join()
        .map_err(|e| format!("{}: {e}", dir.display()))?;
    eprintln!(
        "served {} requests ({} puts, {} gets, {} busy, {} bad frames); \
         {} commit{}{}",
        report.requests,
        report.puts,
        report.gets,
        report.busy_rejected,
        report.protocol_errors,
        report.commits,
        if report.commits == 1 { "" } else { "s" },
        match report.generation {
            Some(generation) => format!("; store at generation {generation}"),
            None => String::new(),
        },
    );
    if report.wal_replayed > 0 {
        eprintln!(
            "recovered {} journaled put{} from an earlier crash",
            report.wal_replayed,
            if report.wal_replayed == 1 { "" } else { "s" },
        );
    }
    if report.total_request_nanos > 0 {
        eprintln!(
            "request time {:.3} s total; lock-wait share {:.1}%{}",
            report.total_request_nanos as f64 / 1e9,
            report.lock_wait_share() * 100.0,
            match report.slow_requests {
                0 => String::new(),
                n => format!("; {n} slow, {} flight dumps", report.flight_dumps),
            },
        );
    }
    Ok(())
}

/// Pin the process-wide SIMD kernel dispatch before any pipeline is
/// constructed. `None` keeps the default resolution (the
/// `ISOBAR_KERNELS` environment variable, then CPU detection).
fn apply_kernels(kernels: Option<isobar::KernelSelection>) {
    if let Some(selection) = kernels {
        isobar::set_kernels(selection);
    }
}

/// The one refusal every command gives a retired single-file (v1/v2)
/// checkpoint store (`ISST`). Any other file is a container's to name.
fn refuse_retired_store(input: &Path, data: &[u8]) -> Result<(), String> {
    if data.starts_with(b"ISST") {
        return Err(format!(
            "{}: {}",
            input.display(),
            isobar_store::StoreError::SingleFileUnsupported
        ));
    }
    Ok(())
}

fn read(path: &Path) -> Result<Vec<u8>, String> {
    fs::read(path).map_err(|e| format!("{}: {e}", path.display()))
}

fn write(path: &Path, bytes: &[u8]) -> Result<(), String> {
    fs::write(path, bytes).map_err(|e| format!("{}: {e}", path.display()))
}

/// Print a telemetry snapshot in the requested format. JSON and
/// Prometheus exposition go to stdout (they are the machine-readable
/// artifacts); the table goes to stderr alongside the human summary.
fn print_stats(snapshot: &TelemetrySnapshot, format: StatsFormat) {
    if !isobar::telemetry::ENABLED {
        eprintln!("note: this binary was built without telemetry; all stats are zero");
    }
    match format {
        StatsFormat::Json => println!("{}", snapshot.to_json()),
        StatsFormat::Table => eprintln!("{}", snapshot.render_table()),
        StatsFormat::Prometheus => print!("{}", snapshot.to_prometheus()),
    }
}

/// Run `body` with tracing active, then drain every thread's span
/// buffer and write the run's Chrome trace-event timeline to `path`.
/// With no `--trace` flag this is a plain passthrough. The trace file
/// is still written when `body` fails: a timeline of a failed run is
/// exactly what a debugging session wants.
fn traced(path: Option<&Path>, body: impl FnOnce() -> Result<(), String>) -> Result<(), String> {
    let Some(path) = path else {
        return body();
    };
    if !isobar::trace::ENABLED {
        eprintln!("note: this binary was built without tracing; the trace will be empty");
    }
    isobar::trace::reset();
    isobar::trace::set_active(true);
    let result = body();
    isobar::trace::set_active(false);
    let trace = isobar::trace::drain();
    write(path, trace.to_chrome_json().as_bytes())?;
    if trace.dropped_count() > 0 {
        eprintln!(
            "trace: ring buffers overflowed; {} oldest events dropped",
            trace.dropped_count()
        );
    }
    eprintln!(
        "trace: {} events -> {}",
        trace.event_count(),
        path.display()
    );
    result
}

/// Compress `input` into a container. `stream` keeps one chunk in
/// flight instead of holding the input (the length then arrives in the
/// container's trailer); both ways run the same session and report.
fn compress(
    input: &Path,
    output: &Path,
    width: usize,
    options: CompressOptions,
    stream: bool,
    quiet: bool,
    stats: Option<StatsFormat>,
) -> Result<(), String> {
    let options = options_from(&options);
    let report = if stream {
        let mut src = fs::File::open(input).map_err(|e| format!("{}: {e}", input.display()))?;
        let dst = fs::File::create(output).map_err(|e| format!("{}: {e}", output.display()))?;
        let mut writer = isobar::IsobarWriter::new(std::io::BufWriter::new(dst), width, options)
            .map_err(|e| e.to_string())?;
        std::io::copy(&mut src, &mut writer).map_err(|e| e.to_string())?;
        writer.finish().map_err(|e| e.to_string())?.1
    } else {
        let (packed, report) = IsobarCompressor::new(options)
            .compress_with_report(&read(input)?, width)
            .map_err(|e| e.to_string())?;
        write(output, &packed)?;
        report
    };
    if let Some(format) = stats {
        print_stats(&report.telemetry, format);
    }
    if !quiet {
        eprintln!(
            "{} -> {}: {} -> {} bytes (CR {:.3}, {:.1} MB/s)",
            input.display(),
            output.display(),
            report.input_len,
            report.output_len,
            report.ratio(),
            report.throughput_mbps(),
        );
        eprintln!(
            "solver {} + {} linearization; {:.1}% of bytes classified noise; improvable: {}; kernels: {}",
            report.codec.name(),
            report.linearization,
            report.htc_pct(),
            report.improvable(),
            isobar::active_kernel_tier(),
        );
    }
    Ok(())
}

/// Restore a container of either form in constant memory.
///
/// `--skip-corrupt` switches to the whole-file salvage walker: resync
/// needs to look arbitrarily far ahead for the next checksum anchor,
/// which the constant-memory reader cannot do.
fn decompress(
    input: &Path,
    output: &Path,
    skip_corrupt: bool,
    verify: bool,
    stats: Option<StatsFormat>,
) -> Result<(), String> {
    let named = |e: &dyn std::fmt::Display| format!("{}: {e}", input.display());
    let telemetry = if skip_corrupt {
        let mut recorder = Recorder::new();
        let (restored, report) =
            isobar::salvage::salvage_decompress_recorded(&read(input)?, &mut recorder)
                .map_err(|e| named(&e))?;
        if !report.is_complete() || report.length_unverified {
            eprintln!(
                "{}: {} chunks recovered, {} lost; {} bytes zero-filled across {} damaged regions{}",
                input.display(),
                report.chunks_recovered,
                report.chunks_lost,
                report.bytes_lost,
                report.damage_regions,
                unverified_note(report.length_unverified),
            );
        }
        write(output, &restored)?;
        recorder.snapshot()
    } else {
        use std::io::{BufReader, BufWriter, Write};
        let src = fs::File::open(input).map_err(|e| named(&e))?;
        let mut reader = isobar::IsobarReader::with_verify(BufReader::new(src), verify)
            .map_err(|e| named(&e))?;
        let dst = fs::File::create(output).map_err(|e| format!("{}: {e}", output.display()))?;
        let mut dst = BufWriter::with_capacity(1 << 20, dst);
        let copied = std::io::copy(&mut reader, &mut dst).and_then(|_| dst.flush());
        if let Err(e) = copied {
            // A container that fails half way leaves no partial output.
            drop(dst);
            let _ = fs::remove_file(output);
            return Err(named(&e));
        }
        reader.telemetry()
    };
    if let Some(format) = stats {
        print_stats(&telemetry, format);
    }
    Ok(())
}

/// What a salvage summary appends when the declared length was gone.
fn unverified_note(length_unverified: bool) -> &'static str {
    if length_unverified {
        "; declared length missing or unusable, output ends with the last recovered chunk"
    } else {
        ""
    }
}

fn options_from(options: &CompressOptions) -> IsobarOptions {
    IsobarOptions {
        preference: options.preference,
        level: options.level,
        tau: options.tau,
        chunk_elements: options.chunk_elements,
        codec_override: options.codec,
        linearization_override: options.linearization,
        parallel: options.parallel,
        ..Default::default()
    }
}

fn analyze(input: &Path, width: usize, tau: f64, bits: bool) -> Result<(), String> {
    let data = read(input)?;
    let (selection, elapsed) = Analyzer::with_tau(tau)
        .analyze_timed(&data, width)
        .map_err(|e| e.to_string())?;
    println!(
        "{}: {} bytes, {} elements of width {width}",
        input.display(),
        data.len(),
        data.len() / width
    );
    println!(
        "analysis: {:.1} MB/s; tolerance factor τ = {tau}",
        isobar::throughput_mbps(data.len(), elapsed.as_secs_f64())
    );
    for (col, &compressible) in selection.bits().iter().enumerate() {
        println!(
            "  byte-column {col}: {}",
            if compressible {
                "compressible (signal)"
            } else {
                "incompressible (noise)"
            }
        );
    }
    println!(
        "hard-to-compress bytes: {:.1}%; improvable: {}",
        selection.htc_pct(),
        selection.is_improvable()
    );
    if bits {
        // Fig.-1-style per-bit-position profile (big-endian bit order).
        let freqs = isobar_datasets::bitfreq::bit_frequencies(&data, width);
        println!("bit profile (bit 1 = MSB of the element):");
        for (i, chunk) in freqs.chunks(16).enumerate() {
            let row: Vec<String> = chunk.iter().map(|p| format!("{p:.3}")).collect();
            println!(
                "  bits {:>2}-{:>2}: {}",
                i * 16 + 1,
                i * 16 + chunk.len(),
                row.join(" ")
            );
        }
        let noisy = isobar_datasets::bitfreq::noise_bit_fraction(&data, width, 0.02);
        println!(
            "coin-flip bits (within 0.02 of p = 0.5): {:.1}%",
            noisy * 100.0
        );
    }
    Ok(())
}

fn info(input: &Path) -> Result<(), String> {
    let packed = read(input)?;
    refuse_retired_store(input, &packed)?;
    let header = Header::read(&packed).map_err(|e| format!("{}: {e}", input.display()))?;
    println!("{}: ISOBAR container v{}", input.display(), header.version);
    println!("  element width:   {} bytes", header.width);
    println!("  solver:          {}", header.codec.name());
    println!("  linearization:   {}", header.linearization);
    println!("  chunk size:      {} elements", header.chunk_elements);
    println!("  container size:  {} bytes", packed.len());
    match header.declared_end(&packed) {
        Some(end) => {
            let place = if header.len_in_trailer() {
                " (streamed: from the trailer)"
            } else {
                ""
            };
            println!("  original size:   {} bytes{place}", end.total_len);
            println!(
                "  overall ratio:   {:.3}",
                end.total_len as f64 / packed.len() as f64
            );
            println!("  checksum:        {:#010x} (Adler-32)", end.checksum);
        }
        None => {
            println!("  original size:   unknown (streamed, trailer missing; run `isobar fsck`)")
        }
    }
    Ok(())
}

/// Walk and verify a container or store without decoding payloads.
/// Returns the process exit code: 0 for a clean file, [`EXIT_DAMAGE`]
/// when damage was found.
fn fsck(input: &Path) -> Result<u8, String> {
    // A directory is a checkpoint store; anything else is a container.
    if input.is_dir() {
        let report =
            isobar_store::fsck_store(input).map_err(|e| format!("{}: {e}", input.display()))?;
        print_store_fsck_report(input, &report);
        return Ok(if report.is_clean() { 0 } else { EXIT_DAMAGE });
    }
    let data = read(input)?;
    refuse_retired_store(input, &data)?;
    let report =
        isobar::salvage::fsck_container(&data).map_err(|e| format!("{}: {e}", input.display()))?;
    print_fsck_report(input, &report);
    Ok(if report.is_clean() { 0 } else { EXIT_DAMAGE })
}

fn print_fsck_report(input: &Path, report: &FsckReport) {
    println!("{}: ISOBAR container v{}", input.display(), report.version);
    for chunk in &report.chunks {
        println!(
            "  chunk @ {:>10}  {:>9} elements  verified",
            chunk.offset, chunk.elements
        );
    }
    for gap in &report.damage {
        println!(
            "  damage @ {:>9}  {} bytes unaccounted for",
            gap.offset, gap.len
        );
    }
    if report.missing_chunks > 0 {
        println!("  {} expected chunks missing", report.missing_chunks);
    }
    if report.total_len.is_none() {
        println!("  declared length missing or unusable");
    }
    println!(
        "{}: {}",
        input.display(),
        if report.is_clean() {
            "clean"
        } else {
            "DAMAGED"
        }
    );
}

fn print_store_fsck_report(input: &Path, report: &StoreFsckReport) {
    println!(
        "{}: ISOBAR checkpoint store v{}",
        input.display(),
        isobar_store::V3_VERSION
    );
    if report.index_damaged {
        println!("  manifest DAMAGED (salvage can rebuild it from a segment walk)");
    }
    for entry in &report.entries {
        println!(
            "  step {:>6} {:<24} @ {:>10}  {}",
            entry.step,
            entry.name,
            entry.offset,
            match entry.health {
                EntryHealth::Verified => "verified",
                EntryHealth::Damaged => "DAMAGED",
            }
        );
    }
    if report.superseded_entries > 0 {
        println!(
            "  {} superseded entr{} (reclaim with store compact)",
            report.superseded_entries,
            if report.superseded_entries == 1 {
                "y"
            } else {
                "ies"
            },
        );
    }
    if report.orphan_files > 0 {
        println!(
            "  {} unreferenced segment file{} (crashed-writer droppings; \
             store compact sweeps them)",
            report.orphan_files,
            if report.orphan_files == 1 { "" } else { "s" },
        );
    }
    println!(
        "{}: {}",
        input.display(),
        if report.is_clean() {
            "clean"
        } else {
            "DAMAGED"
        }
    );
}

/// Recover every intact chunk or entry from a damaged container or
/// store into a fresh, fully valid output.
fn salvage(input: &Path, output: &Path) -> Result<(), String> {
    if input.is_dir() {
        let report = isobar_store::salvage_store(input, output)
            .map_err(|e| format!("{}: {e}", input.display()))?;
        eprintln!(
            "{} -> {}: {} entries recovered, {} lost{}",
            input.display(),
            output.display(),
            report.entries_recovered,
            report.entries_lost,
            if report.index_rebuilt {
                " (manifest unusable; rebuilt from a segment walk)"
            } else {
                ""
            },
        );
        return Ok(());
    }
    let data = read(input)?;
    refuse_retired_store(input, &data)?;
    let (packed, report) = isobar::salvage::salvage_container(&data)
        .map_err(|e| format!("{}: {e}", input.display()))?;
    write(output, &packed)?;
    eprintln!(
        "{} -> {}: {} chunks recovered, {} lost ({} bytes zero-filled){}",
        input.display(),
        output.display(),
        report.chunks_recovered,
        report.chunks_lost,
        report.bytes_lost,
        unverified_note(report.length_unverified),
    );
    Ok(())
}

/// Compress one raw element array into a sharded store directory —
/// one more generation appended to `dir` (created on first put).
fn store_put(
    dir: &Path,
    input: &Path,
    name: &str,
    step: u32,
    width: usize,
    shards: u16,
    queue_depth: usize,
) -> Result<(), String> {
    use isobar_store::{ShardedOptions, ShardedStoreWriter};
    let data = read(input)?;
    let writer = ShardedStoreWriter::create(
        dir,
        IsobarOptions::default(),
        ShardedOptions {
            shards,
            queue_depth,
        },
    )
    .map_err(|e| format!("{}: {e}", dir.display()))?;
    writer
        .put(step, name, data, width)
        .map_err(|e| format!("{}: {e}", dir.display()))?;
    let report = writer
        .close()
        .map_err(|e| format!("{}: {e}", dir.display()))?;
    eprintln!(
        "{}: generation {} committed ({} segment{}, {} entr{} total{})",
        dir.display(),
        report.generation,
        report.segments_committed,
        if report.segments_committed == 1 {
            ""
        } else {
            "s"
        },
        report.total_entries,
        if report.total_entries == 1 {
            "y"
        } else {
            "ies"
        },
        if report.superseded_entries > 0 {
            format!(", {} superseded", report.superseded_entries)
        } else {
            String::new()
        },
    );
    Ok(())
}

/// Read one variable out of a store into a file.
fn store_get(dir: &Path, output: &Path, name: &str, step: u32, verify: bool) -> Result<(), String> {
    let reader = isobar_store::StoreReader::open_with_verify(dir, verify)
        .map_err(|e| format!("{}: {e}", dir.display()))?;
    let data = reader
        .get(step, name)
        .map_err(|e| format!("{}: {e}", dir.display()))?;
    write(output, &data)?;
    eprintln!(
        "{} -> {}: step {step} '{name}', {} bytes",
        dir.display(),
        output.display(),
        data.len()
    );
    Ok(())
}

/// List a store's generations, segments, and entries.
fn store_ls(dir: &Path, verify: bool) -> Result<(), String> {
    let reader = isobar_store::StoreReader::open_with_verify(dir, verify)
        .map_err(|e| format!("{}: {e}", dir.display()))?;
    println!(
        "{}: ISOBAR checkpoint store v{}, generation {}, {} segment{}",
        dir.display(),
        isobar_store::V3_VERSION,
        reader.generation(),
        reader.segment_count(),
        if reader.segment_count() == 1 { "" } else { "s" },
    );
    let live: std::collections::HashSet<*const isobar_store::IndexEntry> = reader
        .live_entries()
        .into_iter()
        .map(|e| e as *const _)
        .collect();
    for entry in reader.entries() {
        println!(
            "  step {:>6} {:<24} {:>12} raw -> {:>12} stored  {}{}",
            entry.step,
            entry.name,
            entry.raw_len,
            entry.container_len,
            reader
                .segment_file_name(entry)
                .unwrap_or("<unknown segment>"),
            if live.contains(&(entry as *const _)) {
                ""
            } else {
                "  (superseded)"
            },
        );
    }
    let superseded = reader.superseded_count();
    println!(
        "{}: {} entr{} ({} superseded), overall ratio {:.3}",
        dir.display(),
        reader.entries().len(),
        if reader.entries().len() == 1 {
            "y"
        } else {
            "ies"
        },
        superseded,
        reader.overall_ratio(),
    );
    Ok(())
}

/// Rewrite a store without its superseded entries.
fn store_compact(dir: &Path, shards: Option<u16>) -> Result<(), String> {
    let report =
        isobar_store::compact_store(dir, shards).map_err(|e| format!("{}: {e}", dir.display()))?;
    eprintln!(
        "{}: {} entries kept, {} dropped; {} file{} removed, {} bytes reclaimed",
        dir.display(),
        report.entries_kept,
        report.entries_dropped,
        report.files_removed,
        if report.files_removed == 1 { "" } else { "s" },
        report.bytes_reclaimed,
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::CompressOptions;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut dir = std::env::temp_dir();
        dir.push(format!("isobar-cli-test-{}-{name}", std::process::id()));
        dir
    }

    #[test]
    fn compress_decompress_files_round_trip() {
        let input = tmp("in.bin");
        let packed = tmp("out.isbr");
        let restored = tmp("restored.bin");

        let ds = isobar_datasets::catalog::spec("gts_phi_l")
            .unwrap()
            .generate(30_000, 1);
        fs::write(&input, &ds.bytes).unwrap();

        compress(
            &input,
            &packed,
            8,
            CompressOptions {
                chunk_elements: 30_000,
                ..Default::default()
            },
            false,
            true,
            None,
        )
        .unwrap();
        decompress(&packed, &restored, false, true, None).unwrap();
        assert_eq!(fs::read(&restored).unwrap(), ds.bytes);

        for p in [&input, &packed, &restored] {
            let _ = fs::remove_file(p);
        }
    }

    #[test]
    fn info_reports_header_fields() {
        let input = tmp("info-in.bin");
        let packed = tmp("info-out.isbr");
        fs::write(&input, vec![7u8; 800]).unwrap();
        compress(
            &input,
            &packed,
            8,
            CompressOptions::default(),
            false,
            true,
            None,
        )
        .unwrap();
        info(&packed).unwrap();
        for p in [&input, &packed] {
            let _ = fs::remove_file(p);
        }
    }

    #[test]
    fn stream_mode_round_trips_files() {
        let input = tmp("stream-in.bin");
        let packed = tmp("stream-out.isbr");
        let restored = tmp("stream-restored.bin");

        let ds = isobar_datasets::catalog::spec("flash_velx")
            .unwrap()
            .generate(30_000, 4);
        fs::write(&input, &ds.bytes).unwrap();

        compress(
            &input,
            &packed,
            8,
            CompressOptions {
                chunk_elements: 10_000,
                ..Default::default()
            },
            true,
            true,
            None,
        )
        .unwrap();
        info(&packed).unwrap();
        // `decompress` takes no framing flag: one reader, either form.
        run(Command::Decompress {
            input: packed.clone(),
            output: restored.clone(),
            skip_corrupt: false,
            verify: true,
            stats: None,
            trace: None,
            kernels: None,
        })
        .unwrap();
        assert_eq!(fs::read(&restored).unwrap(), ds.bytes);

        // ...and so does the library's slice `decompress`.
        let restored_slice = IsobarCompressor::default().decompress(&fs::read(&packed).unwrap());
        assert_eq!(restored_slice.unwrap(), ds.bytes);

        for p in [&input, &packed, &restored] {
            let _ = fs::remove_file(p);
        }
    }

    #[test]
    fn traced_compress_writes_chrome_json() {
        let input = tmp("trace-in.bin");
        let packed = tmp("trace-out.isbr");
        let trace_path = tmp("trace.json");
        fs::write(&input, vec![7u8; 1600]).unwrap();

        traced(Some(trace_path.as_path()), || {
            compress(
                &input,
                &packed,
                8,
                CompressOptions::default(),
                false,
                true,
                None,
            )
        })
        .unwrap();

        let json = fs::read_to_string(&trace_path).unwrap();
        assert!(json.trim_start().starts_with('['));
        assert!(json.trim_end().ends_with(']'));
        if isobar::trace::ENABLED {
            // The compress pipeline must have left spans behind.
            assert!(json.contains("chunk_compress"), "no spans in {json}");
        }

        for p in [&input, &packed, &trace_path] {
            let _ = fs::remove_file(p);
        }
    }

    #[test]
    fn missing_files_produce_errors_not_panics() {
        assert!(read(Path::new("/no/such/isobar/file")).is_err());
        assert!(decompress(
            Path::new("/no/such/file"),
            Path::new("/tmp/x"),
            false,
            true,
            None
        )
        .is_err());
    }

    #[test]
    fn decompress_rejects_non_containers() {
        let input = tmp("garbage.bin");
        fs::write(&input, b"this is not a container").unwrap();
        assert!(decompress(&input, &tmp("never-written"), false, true, None).is_err());
        let _ = fs::remove_file(&input);
    }

    /// Build a 3-chunk container, batch or streamed form, from
    /// deterministic bytes, returning (original data, packed container
    /// path, original input path).
    fn three_chunk_container(
        tag: &str,
        stream: bool,
    ) -> (Vec<u8>, std::path::PathBuf, std::path::PathBuf) {
        let input = tmp(&format!("{tag}-{stream}-in.bin"));
        let packed = tmp(&format!("{tag}-{stream}-out.isbr"));
        let ds = isobar_datasets::catalog::spec("gts_phi_l")
            .unwrap()
            .generate(30_000, 1);
        fs::write(&input, &ds.bytes).unwrap();
        compress(
            &input,
            &packed,
            8,
            CompressOptions {
                chunk_elements: 10_000,
                ..Default::default()
            },
            stream,
            true,
            None,
        )
        .unwrap();
        (ds.bytes, packed, input)
    }

    /// Flip a byte deep inside the last chunk's payload (a streamed
    /// container's trailer sits behind it): structure survives, the
    /// chunk checksum does not.
    fn damage_last_chunk(packed: &Path, stream: bool) {
        let mut bytes = fs::read(packed).unwrap();
        let at = bytes.len() - 3 - if stream { 13 } else { 0 };
        bytes[at] ^= 0xff;
        fs::write(packed, &bytes).unwrap();
    }

    #[test]
    fn fsck_exit_codes_distinguish_clean_from_damaged() {
        for stream in [false, true] {
            let (_, packed, input) = three_chunk_container("fsck", stream);
            assert_eq!(fsck(&packed).unwrap(), 0, "pristine container is clean");
            damage_last_chunk(&packed, stream);
            assert_eq!(fsck(&packed).unwrap(), EXIT_DAMAGE);

            // A non-ISOBAR file is a usage error, not damage.
            fs::write(&packed, b"plain text, no magic here").unwrap();
            assert!(fsck(&packed).is_err());

            for p in [&input, &packed] {
                let _ = fs::remove_file(p);
            }
        }
    }

    #[test]
    fn salvage_recovers_intact_chunks_bit_exact() {
        for stream in [false, true] {
            let (original, packed, input) = three_chunk_container("salvage", stream);
            damage_last_chunk(&packed, stream);

            let salvaged = tmp("salvage-out.isbr");
            let restored = tmp("salvage-restored.bin");
            salvage(&packed, &salvaged).unwrap();
            // The salvaged container is fully valid: fsck and strict
            // decompression must accept it.
            assert_eq!(fsck(&salvaged).unwrap(), 0);
            decompress(&salvaged, &restored, false, true, None).unwrap();
            let restored_bytes = fs::read(&restored).unwrap();
            assert_eq!(restored_bytes.len(), original.len());
            // Chunks 0 and 1 (10k elements x 8 bytes each) come back
            // bit-exact; the damaged third chunk is zero-filled.
            assert_eq!(restored_bytes[..160_000], original[..160_000]);
            assert!(restored_bytes[160_000..].iter().all(|&b| b == 0));

            for p in [&input, &packed, &salvaged, &restored] {
                let _ = fs::remove_file(p);
            }
        }
    }

    #[test]
    fn skip_corrupt_decompress_succeeds_on_damaged_container() {
        for stream in [false, true] {
            let (original, packed, input) = three_chunk_container("skip", stream);
            damage_last_chunk(&packed, stream);

            let restored = tmp("skip-restored.bin");
            // Strict mode refuses and leaves no partial output;
            // --skip-corrupt recovers what it can.
            assert!(decompress(&packed, &restored, false, true, None).is_err());
            assert!(!restored.exists());
            decompress(&packed, &restored, true, true, None).unwrap();
            let restored_bytes = fs::read(&restored).unwrap();
            assert_eq!(restored_bytes.len(), original.len());
            assert_eq!(restored_bytes[..160_000], original[..160_000]);

            for p in [&input, &packed, &restored] {
                let _ = fs::remove_file(p);
            }
        }
    }

    #[test]
    fn empty_input_is_a_clean_container_in_both_forms() {
        let input = tmp("empty-in.bin");
        let packed = tmp("empty-out.isbr");
        let salvaged = tmp("empty-salvaged.isbr");
        let restored = tmp("empty-restored.bin");
        fs::write(&input, b"").unwrap();
        for stream in [false, true] {
            compress(
                &input,
                &packed,
                8,
                CompressOptions::default(),
                stream,
                true,
                None,
            )
            .unwrap();
            assert_eq!(fsck(&packed).unwrap(), 0, "stream: {stream}");
            info(&packed).unwrap();
            decompress(&packed, &restored, false, true, None).unwrap();
            assert_eq!(fs::read(&restored).unwrap(), b"");
            salvage(&packed, &salvaged).unwrap();
            assert_eq!(fsck(&salvaged).unwrap(), 0);
        }
        for p in [&input, &packed, &salvaged, &restored] {
            let _ = fs::remove_file(p);
        }
    }

    #[test]
    fn retired_container_formats_are_refused_by_every_command() {
        // A version-1 header (what follows it is never looked at) and
        // the 9-byte header of the `ISBS` stream framing.
        let mut v1 = b"ISBR\x01\x02\x01\x01".to_vec();
        v1.resize(64, 0);
        let isbs = b"ISBS\x02\x08\x01\x01\x00".to_vec();
        let old = tmp("retired.isbr");
        let out = tmp("retired-container-out");
        for (bytes, name) in [(v1, "version-1"), (isbs, "`ISBS`")] {
            fs::write(&old, bytes).unwrap();
            for err in [
                info(&old).unwrap_err(),
                fsck(&old).unwrap_err(),
                salvage(&old, &out).unwrap_err(),
                decompress(&old, &out, false, true, None).unwrap_err(),
                decompress(&old, &out, true, true, None).unwrap_err(),
            ] {
                assert!(
                    err.contains(name) && err.ends_with("is no longer supported"),
                    "got {err:?}"
                );
            }
            assert!(!out.exists(), "a refused command writes nothing");
        }
        let _ = fs::remove_file(&old);
    }

    #[test]
    fn fsck_and_salvage_handle_stores() {
        let dir = tmp("fsck-store");
        let salvaged = tmp("fsck-store-salvaged");
        let input = tmp("fsck-store-in.bin");
        for d in [&dir, &salvaged] {
            let _ = fs::remove_dir_all(d);
        }
        let ds = isobar_datasets::catalog::spec("gts_phi_l")
            .unwrap()
            .generate(10_000, 1);
        fs::write(&input, &ds.bytes).unwrap();
        store_put(&dir, &input, "density", 1, 8, 1, 2).unwrap();
        store_put(&dir, &input, "density", 2, 8, 1, 2).unwrap();

        assert_eq!(fsck(&dir).unwrap(), 0);
        salvage(&dir, &salvaged).unwrap();
        assert_eq!(fsck(&salvaged).unwrap(), 0);

        for d in [&dir, &salvaged] {
            let _ = fs::remove_dir_all(d);
        }
        let _ = fs::remove_file(&input);
    }

    #[test]
    fn retired_single_file_stores_are_refused_by_every_command() {
        let old = tmp("retired.isst");
        let out = tmp("retired-out");
        fs::write(&old, b"ISST\x02 the rest does not matter").unwrap();
        let refusal = "single-file (v1/v2) stores are no longer supported";
        for err in [
            info(&old).unwrap_err(),
            fsck(&old).unwrap_err(),
            salvage(&old, &out).unwrap_err(),
            store_get(&old, &out, "density", 0, true).unwrap_err(),
            store_ls(&old, true).unwrap_err(),
        ] {
            assert!(err.ends_with(refusal), "got {err:?}");
        }
        assert!(!out.exists(), "a refused command writes nothing");
        let _ = fs::remove_file(&old);
    }

    #[test]
    fn store_family_round_trips_a_sharded_directory() {
        let dir = tmp("store-v3");
        let input = tmp("store-v3-in.bin");
        let newer = tmp("store-v3-newer.bin");
        let output = tmp("store-v3-out.bin");
        let _ = fs::remove_dir_all(&dir);
        let ds = isobar_datasets::catalog::spec("gts_phi_l")
            .unwrap()
            .generate(10_000, 1);
        fs::write(&input, &ds.bytes).unwrap();

        store_put(&dir, &input, "density", 0, 8, 2, 2).unwrap();
        store_get(&dir, &output, "density", 0, true).unwrap();
        assert_eq!(fs::read(&output).unwrap(), ds.bytes);
        assert_eq!(fsck(&dir).unwrap(), 0);
        store_ls(&dir, true).unwrap();

        // A second put of the same (step, name) supersedes; compaction
        // reclaims the shadowed version and get still serves the new.
        let ds2 = isobar_datasets::catalog::spec("gts_phi_l")
            .unwrap()
            .generate(10_000, 2);
        fs::write(&newer, &ds2.bytes).unwrap();
        store_put(&dir, &newer, "density", 0, 8, 2, 2).unwrap();
        store_compact(&dir, None).unwrap();
        store_get(&dir, &output, "density", 0, true).unwrap();
        assert_eq!(fs::read(&output).unwrap(), ds2.bytes);
        assert_eq!(fsck(&dir).unwrap(), 0);

        let _ = fs::remove_dir_all(&dir);
        for p in [&input, &newer, &output] {
            let _ = fs::remove_file(p);
        }
    }
}
