//! Command implementations for the `isobar` CLI.

use crate::args::{Command, Opts, RunFlags, StatsFormat, Sub};
use isobar::container::Header;
use isobar::salvage::FsckReport;
use isobar::{Analyzer, IsobarCompressor, IsobarOptions, Recorder, TelemetrySnapshot};
use isobar_store::{EntryHealth, ShardedOptions, StoreFsckReport};
use std::fmt::Display;
use std::fs;
use std::path::Path;

/// Exit code `fsck` returns when it finds damage (0 = clean, distinct
/// from 2 = processing error).
pub const EXIT_DAMAGE: u8 = 3;

/// Run a parsed command; returns the process exit code.
pub fn run(cmd: Command) -> Result<u8, String> {
    let Command {
        sub,
        paths,
        opts: o,
    } = cmd;
    // `parse` leaves exactly the operands each subcommand takes.
    let path = |i: usize| paths[i].as_path();
    match sub {
        Sub::Compress => traced(&o.run, || compress(path(0), path(1), &o)),
        Sub::Decompress => traced(&o.run, || decompress(path(0), path(1), &o)),
        Sub::Analyze => analyze(path(0), o.width, o.isobar.tau, o.bits),
        Sub::Info => info(path(0)),
        Sub::Fsck => return fsck(path(0)),
        Sub::Salvage => salvage(path(0), path(1)),
        Sub::StorePut => store_put(path(0), path(1), &o.name, o.step, o.width, o.sharded),
        Sub::StoreGet => store_get(path(0), path(1), &o.name, o.step, o.isobar.verify),
        Sub::StoreLs => store_ls(path(0), o.isobar.verify),
        Sub::StoreCompact => store_compact(path(0), o.sharded.shards),
        Sub::Serve => {
            let addr = o.listen_addr().to_string();
            serve(path(0), &addr, o.metrics.as_deref(), o.serve)
        }
        Sub::Help => {
            println!("{}", crate::args::usage());
            Ok(())
        }
    }
    .map(|()| 0)
}

/// Prefix an error with the path it concerns.
fn at<E: Display>(path: &Path) -> impl Fn(E) -> String + '_ {
    move |e| format!("{}: {e}", path.display())
}

/// `one` for a count of 1, else `many`: `"entr"` takes `"y"` / `"ies"`.
fn plural<N: PartialEq + From<u8>>(n: N, one: &'static str, many: &'static str) -> &'static str {
    if n == N::from(1) {
        one
    } else {
        many
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
    let server = isobar_server::serve(dir, addr, metrics, options).map_err(at(dir))?;
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
    let report = server.join().map_err(at(dir))?;
    eprintln!(
        "served {} requests ({} puts, {} gets, {} busy, {} bad frames); \
         {} commit{}{}",
        report.requests,
        report.puts,
        report.gets,
        report.busy_rejected,
        report.protocol_errors,
        report.commits,
        plural(report.commits, "", "s"),
        match report.generation {
            Some(generation) => format!("; store at generation {generation}"),
            None => String::new(),
        },
    );
    if report.wal_replayed > 0 {
        eprintln!(
            "recovered {} journaled put{} from an earlier crash",
            report.wal_replayed,
            plural(report.wal_replayed, "", "s"),
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

/// The one refusal every command gives a retired single-file (v1/v2)
/// checkpoint store (`ISST`). Any other file is a container's to name.
fn refuse_retired_store(input: &Path, data: &[u8]) -> Result<(), String> {
    if data.starts_with(b"ISST") {
        return Err(at(input)(isobar_store::StoreError::SingleFileUnsupported));
    }
    Ok(())
}

fn read(path: &Path) -> Result<Vec<u8>, String> {
    fs::read(path).map_err(at(path))
}

fn write(path: &Path, bytes: &[u8]) -> Result<(), String> {
    fs::write(path, bytes).map_err(at(path))
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

/// Pin the SIMD kernel dispatch if `--kernels=` asked (else the
/// `ISOBAR_KERNELS` environment variable, then CPU detection, decide),
/// then run `body`; with `--trace`, with tracing active, and write the
/// run's Chrome trace-event timeline afterwards. The trace file is
/// still written when `body` fails: a timeline of a failed run is
/// exactly what a debugging session wants.
fn traced(run: &RunFlags, body: impl FnOnce() -> Result<(), String>) -> Result<(), String> {
    if let Some(selection) = run.kernels {
        isobar::set_kernels(selection);
    }
    let Some(path) = run.trace.as_deref() else {
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

/// Compress `input` into a container. `--stream` keeps one chunk in
/// flight instead of holding the input (the length then arrives in the
/// container's trailer); both ways run the same session and report.
fn compress(input: &Path, output: &Path, o: &Opts) -> Result<(), String> {
    let (width, options) = (o.width, o.isobar);
    let report = if o.stream {
        let mut src = fs::File::open(input).map_err(at(input))?;
        let dst = fs::File::create(output).map_err(at(output))?;
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
    if let Some(format) = o.run.stats {
        print_stats(&report.telemetry, format);
    }
    if !o.quiet {
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
fn decompress(input: &Path, output: &Path, o: &Opts) -> Result<(), String> {
    let telemetry = if o.skip_corrupt {
        let mut recorder = Recorder::new();
        let (restored, report) =
            isobar::salvage::salvage_decompress_recorded(&read(input)?, &mut recorder)
                .map_err(at(input))?;
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
        let src = fs::File::open(input).map_err(at(input))?;
        let mut reader = isobar::IsobarReader::with_verify(BufReader::new(src), o.isobar.verify)
            .map_err(at(input))?;
        let dst = fs::File::create(output).map_err(at(output))?;
        let mut dst = BufWriter::with_capacity(1 << 20, dst);
        let copied = std::io::copy(&mut reader, &mut dst).and_then(|_| dst.flush());
        if let Err(e) = copied {
            // A container that fails half way leaves no partial output.
            drop(dst);
            let _ = fs::remove_file(output);
            return Err(at(input)(e));
        }
        reader.telemetry()
    };
    if let Some(format) = o.run.stats {
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
    let header = Header::read(&packed).map_err(at(input))?;
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
        let report = isobar_store::fsck_store(input).map_err(at(input))?;
        print_store_fsck_report(input, &report);
        return Ok(if report.is_clean() { 0 } else { EXIT_DAMAGE });
    }
    let data = read(input)?;
    refuse_retired_store(input, &data)?;
    let report = isobar::salvage::fsck_container(&data).map_err(at(input))?;
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
    print_verdict(input, report.is_clean());
}

/// The closing line of an fsck report.
fn print_verdict(input: &Path, clean: bool) {
    let verdict = if clean { "clean" } else { "DAMAGED" };
    println!("{}: {verdict}", input.display());
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
            plural(report.superseded_entries, "y", "ies"),
        );
    }
    if report.orphan_files > 0 {
        println!(
            "  {} unreferenced segment file{} (crashed-writer droppings; \
             store compact sweeps them)",
            report.orphan_files,
            plural(report.orphan_files, "", "s"),
        );
    }
    print_verdict(input, report.is_clean());
}

/// Recover every intact chunk or entry from a damaged container or
/// store into a fresh, fully valid output.
fn salvage(input: &Path, output: &Path) -> Result<(), String> {
    if input.is_dir() {
        let report = isobar_store::salvage_store(input, output).map_err(at(input))?;
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
    let (packed, report) = isobar::salvage::salvage_container(&data).map_err(at(input))?;
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
    options: ShardedOptions,
) -> Result<(), String> {
    let data = read(input)?;
    let writer = isobar_store::ShardedStoreWriter::create(dir, IsobarOptions::default(), options)
        .map_err(at(dir))?;
    writer.put(step, name, data, width).map_err(at(dir))?;
    let report = writer.close().map_err(at(dir))?;
    eprintln!(
        "{}: generation {} committed ({} segment{}, {} entr{} total{})",
        dir.display(),
        report.generation,
        report.segments_committed,
        plural(report.segments_committed, "", "s"),
        report.total_entries,
        plural(report.total_entries, "y", "ies"),
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
    let reader = isobar_store::StoreReader::open_with_verify(dir, verify).map_err(at(dir))?;
    let data = reader.get(step, name).map_err(at(dir))?;
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
    let reader = isobar_store::StoreReader::open_with_verify(dir, verify).map_err(at(dir))?;
    println!(
        "{}: ISOBAR checkpoint store v{}, generation {}, {} segment{}",
        dir.display(),
        isobar_store::V3_VERSION,
        reader.generation(),
        reader.segment_count(),
        plural(reader.segment_count(), "", "s"),
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
        plural(reader.entries().len(), "y", "ies"),
        superseded,
        reader.overall_ratio(),
    );
    Ok(())
}

/// Rewrite a store without its superseded entries.
fn store_compact(dir: &Path, shards: u16) -> Result<(), String> {
    let report = isobar_store::compact_store(dir, Some(shards)).map_err(at(dir))?;
    eprintln!(
        "{}: {} entries kept, {} dropped; {} file{} removed, {} bytes reclaimed",
        dir.display(),
        report.entries_kept,
        report.entries_dropped,
        report.files_removed,
        plural(report.files_removed, "", "s"),
        report.bytes_reclaimed,
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut dir = std::env::temp_dir();
        dir.push(format!("isobar-cli-test-{}-{name}", std::process::id()));
        dir
    }

    /// A quiet `compress --width 8` with these pipeline options.
    fn compress_opts(isobar: IsobarOptions, stream: bool) -> Opts {
        Opts {
            width: 8,
            isobar,
            stream,
            quiet: true,
            ..Default::default()
        }
    }

    /// `decompress` options, with `--skip-corrupt` if `skip_corrupt`.
    fn restore(skip_corrupt: bool) -> Opts {
        Opts {
            skip_corrupt,
            ..Default::default()
        }
    }

    /// `shards` segment pipelines at the library's queue depth.
    fn sharded(shards: u16) -> ShardedOptions {
        ShardedOptions {
            shards,
            ..Default::default()
        }
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
            &compress_opts(
                IsobarOptions {
                    chunk_elements: 30_000,
                    ..Default::default()
                },
                false,
            ),
        )
        .unwrap();
        decompress(&packed, &restored, &restore(false)).unwrap();
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
            &compress_opts(IsobarOptions::default(), false),
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
            &compress_opts(
                IsobarOptions {
                    chunk_elements: 10_000,
                    ..Default::default()
                },
                true,
            ),
        )
        .unwrap();
        info(&packed).unwrap();
        // `decompress` takes no framing flag: one reader, either form.
        let argv = [
            "decompress",
            packed.to_str().unwrap(),
            restored.to_str().unwrap(),
        ];
        run(crate::args::parse(&argv.map(String::from)).unwrap()).unwrap();
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

        let run = RunFlags {
            trace: Some(trace_path.clone()),
            ..Default::default()
        };
        traced(&run, || {
            compress(
                &input,
                &packed,
                &compress_opts(IsobarOptions::default(), false),
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
            &restore(false)
        )
        .is_err());
    }

    #[test]
    fn decompress_rejects_non_containers() {
        let input = tmp("garbage.bin");
        fs::write(&input, b"this is not a container").unwrap();
        assert!(decompress(&input, &tmp("never-written"), &restore(false)).is_err());
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
            &compress_opts(
                IsobarOptions {
                    chunk_elements: 10_000,
                    ..Default::default()
                },
                stream,
            ),
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
            decompress(&salvaged, &restored, &restore(false)).unwrap();
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
            assert!(decompress(&packed, &restored, &restore(false)).is_err());
            assert!(!restored.exists());
            decompress(&packed, &restored, &restore(true)).unwrap();
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
                &compress_opts(IsobarOptions::default(), stream),
            )
            .unwrap();
            assert_eq!(fsck(&packed).unwrap(), 0, "stream: {stream}");
            info(&packed).unwrap();
            decompress(&packed, &restored, &restore(false)).unwrap();
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
                decompress(&old, &out, &restore(false)).unwrap_err(),
                decompress(&old, &out, &restore(true)).unwrap_err(),
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
        store_put(&dir, &input, "density", 1, 8, sharded(1)).unwrap();
        store_put(&dir, &input, "density", 2, 8, sharded(1)).unwrap();

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

        store_put(&dir, &input, "density", 0, 8, sharded(2)).unwrap();
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
        store_put(&dir, &newer, "density", 0, 8, sharded(2)).unwrap();
        store_compact(&dir, ShardedOptions::default().shards).unwrap();
        store_get(&dir, &output, "density", 0, true).unwrap();
        assert_eq!(fs::read(&output).unwrap(), ds2.bytes);
        assert_eq!(fsck(&dir).unwrap(), 0);

        let _ = fs::remove_dir_all(&dir);
        for p in [&input, &newer, &output] {
            let _ = fs::remove_file(p);
        }
    }
}
