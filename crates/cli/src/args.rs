//! Hand-rolled argument parsing (no external dependencies).

use isobar::{CodecId, CompressionLevel, KernelSelection, Linearization, Preference};
use std::path::PathBuf;

/// Usage text printed on parse errors and `--help`.
pub const USAGE: &str = "\
usage:
  isobar compress   --width N [options] IN OUT   compress an element array
  isobar decompress IN OUT                       restore the original bytes
  isobar analyze    --width N IN                 byte-column report only
  isobar info       IN                           describe a container
  isobar fsck       IN                           verify integrity without
                                                 decompressing (exit 3 on damage)
  isobar salvage    IN OUT                       recover every intact chunk or
                                                 record from a damaged file
  isobar store put  DIR IN --name V --step N --width W
                                                 append one variable to a
                                                 sharded checkpoint store
  isobar store get  DIR OUT --name V --step N    read one variable back
  isobar store ls   DIR                          list a store's contents
  isobar store compact DIR                       drop superseded entries and
                                                 sweep unreferenced segments
  isobar serve      DIR [serve options]          run the checkpoint daemon in
                                                 front of a sharded store
                                                 (SIGINT/SIGTERM drain and
                                                 commit cleanly)

compress options:
  --width N            element width in bytes (1..=64, required)
  --prefer speed|ratio end-user preference (default: ratio)
  --ratio-floor F      first solver, fastest first, with sample CR >= F
  --codec zlib|bzlib2  skip EUPA, force this solver
  --linearize row|column  skip EUPA, force this linearization
  --level fast|default|best  solver effort (default: default)
  --tau F              analyzer tolerance factor (default: 1.42)
  --chunk N            chunk size in elements (default: 375000)
  --parallel           compress chunks on all cores
  --kernels=scalar|auto
                       pin the SIMD kernel dispatch (default: auto —
                       the best tier the CPU supports; also settable
                       via the ISOBAR_KERNELS environment variable)
  --stream             constant-memory mode: one chunk in flight, the
                       input is never held whole (its length then goes
                       in the container's trailer); not with --parallel
  --stats[=table|json|prometheus]
                       print per-stage telemetry after the run
                       (default format: table)
  --trace FILE         write a Chrome trace-event JSON timeline of the
                       run (load in Perfetto / chrome://tracing)
  --quiet              suppress the summary report

decompress options:
  --skip-corrupt       zero-fill damaged chunks instead of failing;
                       damage shows up under --stats
  --no-verify          skip embedded checksum verification (decode
                       speed over damage detection)
  --kernels=scalar|auto
                       pin the SIMD kernel dispatch (default: auto)
  --stats[=table|json|prometheus]
                       print per-stage telemetry after the run
  --trace FILE         write a Chrome trace-event JSON timeline

store options:
  --name V             variable name (put/get, required)
  --step N             time step (put/get, required)
  --width N            element width in bytes (put, required)
  --shards N           segment pipelines to write with (put/compact;
                       default 4)
  --queue-depth N      in-flight variables per shard before put blocks
                       (put; default 2)
  --no-verify          skip checksum verification on reads (get/ls)

serve options:
  --addr HOST:PORT     request listener address (default 127.0.0.1:7227;
                       port 0 picks an ephemeral port)
  --metrics HOST:PORT  also serve Prometheus text exposition on
                       http://HOST:PORT/metrics
  --shards N           segment pipelines per generation (default 4)
  --queue-depth N      in-flight variables per shard (default 2)
  --max-payload N      largest accepted put payload in bytes
                       (default 67108864 = 64 MiB)
  --max-inflight N     uncommitted-byte budget before puts get Busy
                       (default 268435456 = 256 MiB)
  --commit-every N     pending bytes that trigger a generation commit
                       (default 67108864 = 64 MiB)
  --max-connections N  concurrent connections before Busy (default 256)
  --slow-ms N          log requests at or past N milliseconds to
                       slow.jsonl and count them (default: off)
  --flight-recorder DIR
                       keep trace rings warm and write Chrome trace
                       dumps under DIR on SIGUSR1, panic, and slow
                       requests; slow.jsonl lands here too
  --debug-endpoint     also serve a /debug/stats JSON snapshot on the
                       --metrics listener
  --no-wal             skip the write-ahead journal: puts are acked
                       before they are durable, and a crash between
                       commits loses them (the pre-journal contract)
  --idle-timeout N     drop connections idle between requests for N
                       seconds; 0 keeps them forever (default 300)
  --frame-deadline N   abort requests whose frame stops making
                       progress for N seconds total (default 30)

info, fsck, salvage and decompress take a container in either form,
batch or streamed; fsck and salvage also take a checkpoint store (a
directory is treated as a v3 sharded store). fsck exits 0 for a clean
file and 3 when it finds damage.";

/// How `--stats` output should be rendered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatsFormat {
    /// Human-readable aligned table.
    Table,
    /// The snapshot's canonical JSON form.
    Json,
    /// Prometheus text exposition (scrapeable via a textfile collector).
    Prometheus,
}

impl StatsFormat {
    fn parse_flag(arg: &str) -> Option<Result<StatsFormat, String>> {
        match arg {
            "--stats" | "--stats=table" => Some(Ok(StatsFormat::Table)),
            "--stats=json" => Some(Ok(StatsFormat::Json)),
            "--stats=prometheus" => Some(Ok(StatsFormat::Prometheus)),
            _ => arg.strip_prefix("--stats=").map(|other| {
                Err(format!(
                    "--stats must be table|json|prometheus, got '{other}'"
                ))
            }),
        }
    }
}

/// Parse a `--kernels=scalar|auto` flag, if `arg` is one.
fn parse_kernels_flag(arg: &str) -> Option<Result<KernelSelection, String>> {
    arg.strip_prefix("--kernels=").map(|value| {
        KernelSelection::parse(value)
            .ok_or_else(|| format!("--kernels must be scalar|auto, got '{value}'"))
    })
}

/// A parsed command.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Compress `input` into `output`.
    Compress {
        /// Source file.
        input: PathBuf,
        /// Destination container.
        output: PathBuf,
        /// Element width.
        width: usize,
        /// Pipeline options.
        options: CompressOptions,
        /// Keep one chunk in flight instead of holding the input.
        stream: bool,
        /// Suppress the summary.
        quiet: bool,
        /// Print telemetry after the run, in this format.
        stats: Option<StatsFormat>,
        /// Write a Chrome trace-event timeline of the run here.
        trace: Option<PathBuf>,
        /// Pin the SIMD kernel dispatch (`--kernels=`), if given.
        kernels: Option<KernelSelection>,
    },
    /// Decompress `input` into `output`.
    Decompress {
        /// Source container.
        input: PathBuf,
        /// Destination file.
        output: PathBuf,
        /// Zero-fill damaged chunks instead of failing the run.
        skip_corrupt: bool,
        /// Verify embedded checksums while decoding (on by default;
        /// `--no-verify` clears it).
        verify: bool,
        /// Print telemetry after the run, in this format.
        stats: Option<StatsFormat>,
        /// Write a Chrome trace-event timeline of the run here.
        trace: Option<PathBuf>,
        /// Pin the SIMD kernel dispatch (`--kernels=`), if given.
        kernels: Option<KernelSelection>,
    },
    /// Analyze and report, without writing anything.
    Analyze {
        /// Source file.
        input: PathBuf,
        /// Element width.
        width: usize,
        /// Analyzer tolerance.
        tau: f64,
        /// Also print the per-bit-position probability profile.
        bits: bool,
    },
    /// Describe an existing container's header.
    Info {
        /// Container file.
        input: PathBuf,
    },
    /// Walk a container or store and verify every embedded checksum
    /// without decompressing payloads.
    Fsck {
        /// Container file or store directory to check.
        input: PathBuf,
    },
    /// Recover every intact chunk or record from a damaged file into
    /// a fresh, fully valid one.
    Salvage {
        /// Damaged container file or store directory.
        input: PathBuf,
        /// Destination for the salvaged file.
        output: PathBuf,
    },
    /// Append one variable to (creating if needed) a version-3
    /// sharded store directory.
    StorePut {
        /// Store directory.
        dir: PathBuf,
        /// Raw element-array file to compress and store.
        input: PathBuf,
        /// Variable name.
        name: String,
        /// Time step.
        step: u32,
        /// Element width in bytes.
        width: usize,
        /// Segment pipelines (shards) to write with.
        shards: u16,
        /// In-flight variables per shard before `put` blocks.
        queue_depth: usize,
    },
    /// Read one variable out of a store (any version) into a file.
    StoreGet {
        /// Store path (directory or single file).
        dir: PathBuf,
        /// Destination for the decompressed bytes.
        output: PathBuf,
        /// Variable name.
        name: String,
        /// Time step.
        step: u32,
        /// Verify checksums while reading (`--no-verify` clears it).
        verify: bool,
    },
    /// List a store's entries, segments, and space accounting.
    StoreLs {
        /// Store path (directory or single file).
        dir: PathBuf,
        /// Verify checksums while reading (`--no-verify` clears it).
        verify: bool,
    },
    /// Rewrite a version-3 store without its superseded entries and
    /// sweep unreferenced segment files.
    StoreCompact {
        /// Store directory.
        dir: PathBuf,
        /// Shards for the rewritten generation (default: keep 4).
        shards: Option<u16>,
    },
    /// Run the checkpoint daemon in front of a sharded store.
    Serve {
        /// Store directory (created if missing).
        dir: PathBuf,
        /// Request listener address.
        addr: String,
        /// Optional Prometheus `/metrics` listener address.
        metrics: Option<String>,
        /// Segment pipelines per generation.
        shards: u16,
        /// In-flight variables per shard.
        queue_depth: usize,
        /// Largest accepted put payload in bytes.
        max_payload: u64,
        /// Uncommitted-byte budget before puts answer Busy.
        max_inflight: u64,
        /// Pending bytes that trigger a generation commit.
        commit_threshold: u64,
        /// Concurrent connections before Busy.
        max_connections: usize,
        /// Slow-request threshold in milliseconds, if set.
        slow_ms: Option<u64>,
        /// Flight-recorder output directory, if enabled.
        flight_recorder: Option<PathBuf>,
        /// Serve `/debug/stats` on the metrics listener.
        debug_endpoint: bool,
        /// Journal puts before acking them (off restores the
        /// acked-but-lost-on-crash contract).
        wal: bool,
        /// Seconds a connection may idle between requests; 0 disables
        /// the reaper.
        idle_timeout_secs: u64,
        /// Seconds one request frame may take end to end.
        frame_deadline_secs: u64,
    },
}

/// Compression knobs gathered from flags.
#[derive(Debug, Clone, PartialEq)]
pub struct CompressOptions {
    /// EUPA preference.
    pub preference: Preference,
    /// Solver effort.
    pub level: CompressionLevel,
    /// Analyzer tolerance.
    pub tau: f64,
    /// Chunk size in elements.
    pub chunk_elements: usize,
    /// Forced solver, if any.
    pub codec: Option<CodecId>,
    /// Forced linearization, if any.
    pub linearization: Option<Linearization>,
    /// Multi-threaded chunk compression.
    pub parallel: bool,
}

impl Default for CompressOptions {
    fn default() -> Self {
        CompressOptions {
            preference: Preference::Ratio,
            level: CompressionLevel::Default,
            tau: isobar::DEFAULT_TAU,
            chunk_elements: isobar::chunk::DEFAULT_CHUNK_ELEMENTS,
            codec: None,
            linearization: None,
            parallel: false,
        }
    }
}

/// Parse `argv` (without the program name).
pub fn parse(argv: &[String]) -> Result<Command, String> {
    let mut it = argv.iter().peekable();
    let sub = it.next().ok_or("missing subcommand")?;
    match sub.as_str() {
        "compress" | "c" => parse_compress(&mut it),
        "decompress" | "d" => {
            let mut skip_corrupt = false;
            let mut verify = true;
            let mut stats = None;
            let mut trace = None;
            let mut kernels = None;
            let mut paths: Vec<PathBuf> = Vec::new();
            while let Some(arg) = it.next() {
                if let Some(parsed) = StatsFormat::parse_flag(arg) {
                    stats = Some(parsed?);
                    continue;
                }
                if let Some(parsed) = parse_kernels_flag(arg) {
                    kernels = Some(parsed?);
                    continue;
                }
                match arg.as_str() {
                    "--skip-corrupt" => skip_corrupt = true,
                    "--no-verify" => verify = false,
                    "--trace" => trace = Some(PathBuf::from(value(&mut it, "--trace")?)),
                    other if other.starts_with('-') => {
                        return Err(format!("unknown flag '{other}'"))
                    }
                    other => paths.push(PathBuf::from(other)),
                }
            }
            if skip_corrupt && !verify {
                return Err("--skip-corrupt needs checksums to find intact chunks; \
                     it cannot be combined with --no-verify"
                    .to_string());
            }
            let [input, output]: [PathBuf; 2] = paths
                .try_into()
                .map_err(|_| "decompress requires exactly IN and OUT paths".to_string())?;
            Ok(Command::Decompress {
                input,
                output,
                skip_corrupt,
                verify,
                stats,
                trace,
                kernels,
            })
        }
        "analyze" | "a" => parse_analyze(&mut it),
        "info" | "i" => {
            let input = one_path(&mut it)?;
            ensure_done(&mut it)?;
            Ok(Command::Info { input })
        }
        "fsck" => {
            let input = one_path(&mut it)?;
            ensure_done(&mut it)?;
            Ok(Command::Fsck { input })
        }
        "salvage" => {
            let input = one_path(&mut it)?;
            let output = one_path(&mut it).map_err(|_| "salvage requires IN and OUT paths")?;
            ensure_done(&mut it)?;
            Ok(Command::Salvage { input, output })
        }
        "store" => parse_store(&mut it),
        "serve" => parse_serve(&mut it),
        "--help" | "-h" | "help" => Err("".to_string()),
        other => Err(format!("unknown subcommand '{other}'")),
    }
}

type ArgIter<'a> = std::iter::Peekable<std::slice::Iter<'a, String>>;

fn parse_compress(it: &mut ArgIter<'_>) -> Result<Command, String> {
    let mut width: Option<usize> = None;
    let mut options = CompressOptions::default();
    let mut ratio_floor: Option<f64> = None;
    let mut quiet = false;
    let mut stream = false;
    let mut stats = None;
    let mut trace = None;
    let mut kernels = None;
    let mut paths: Vec<PathBuf> = Vec::new();

    while let Some(arg) = it.next() {
        if let Some(parsed) = StatsFormat::parse_flag(arg) {
            stats = Some(parsed?);
            continue;
        }
        if let Some(parsed) = parse_kernels_flag(arg) {
            kernels = Some(parsed?);
            continue;
        }
        match arg.as_str() {
            "--stream" => stream = true,
            "--trace" => trace = Some(PathBuf::from(value(it, "--trace")?)),
            "--width" | "-w" => {
                width = Some(value(it, "--width")?.parse().map_err(bad("--width"))?)
            }
            "--prefer" => {
                options.preference = match value(it, "--prefer")?.as_str() {
                    "speed" => Preference::Speed,
                    "ratio" => Preference::Ratio,
                    other => return Err(format!("--prefer must be speed|ratio, got '{other}'")),
                }
            }
            "--ratio-floor" => {
                ratio_floor = Some(
                    value(it, "--ratio-floor")?
                        .parse()
                        .map_err(bad("--ratio-floor"))?,
                )
            }
            "--codec" => {
                options.codec = Some(match value(it, "--codec")?.as_str() {
                    "zlib" | "deflate" => CodecId::Deflate,
                    "bzlib2" | "bzip2" => CodecId::Bzip2Like,
                    other => return Err(format!("--codec must be zlib|bzlib2, got '{other}'")),
                })
            }
            "--linearize" => {
                options.linearization = Some(match value(it, "--linearize")?.as_str() {
                    "row" => Linearization::Row,
                    "column" => Linearization::Column,
                    other => return Err(format!("--linearize must be row|column, got '{other}'")),
                })
            }
            "--level" => {
                options.level = match value(it, "--level")?.as_str() {
                    "fast" => CompressionLevel::Fast,
                    "default" => CompressionLevel::Default,
                    "best" => CompressionLevel::Best,
                    other => {
                        return Err(format!("--level must be fast|default|best, got '{other}'"))
                    }
                }
            }
            "--tau" => options.tau = value(it, "--tau")?.parse().map_err(bad("--tau"))?,
            "--chunk" => {
                options.chunk_elements = value(it, "--chunk")?.parse().map_err(bad("--chunk"))?
            }
            "--parallel" => options.parallel = true,
            "--quiet" | "-q" => quiet = true,
            other if other.starts_with('-') => return Err(format!("unknown flag '{other}'")),
            other => paths.push(PathBuf::from(other)),
        }
    }

    if let Some(floor) = ratio_floor {
        options.preference = Preference::SpeedWithRatioFloor(floor);
    }
    if stream && options.parallel {
        return Err(
            "--stream keeps one chunk in flight, --parallel needs several: use one".to_string(),
        );
    }
    let width = width.ok_or("compress requires --width")?;
    if width == 0 || width > 64 {
        return Err(format!("--width must be in 1..=64, got {width}"));
    }
    if options.chunk_elements == 0 {
        return Err("--chunk must be positive".to_string());
    }
    if !(options.tau > 0.0 && options.tau <= 256.0) {
        return Err("--tau must be in (0, 256]".to_string());
    }
    let [input, output]: [PathBuf; 2] = paths
        .try_into()
        .map_err(|_| "compress requires exactly IN and OUT paths".to_string())?;
    Ok(Command::Compress {
        input,
        output,
        width,
        options,
        stream,
        quiet,
        stats,
        trace,
        kernels,
    })
}

fn parse_analyze(it: &mut ArgIter<'_>) -> Result<Command, String> {
    let mut width: Option<usize> = None;
    let mut tau = isobar::DEFAULT_TAU;
    let mut bits = false;
    let mut paths: Vec<PathBuf> = Vec::new();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--width" | "-w" => {
                width = Some(value(it, "--width")?.parse().map_err(bad("--width"))?)
            }
            "--tau" => tau = value(it, "--tau")?.parse().map_err(bad("--tau"))?,
            "--bits" => bits = true,
            other if other.starts_with('-') => return Err(format!("unknown flag '{other}'")),
            other => paths.push(PathBuf::from(other)),
        }
    }
    let width = width.ok_or("analyze requires --width")?;
    let [input]: [PathBuf; 1] = paths
        .try_into()
        .map_err(|_| "analyze requires exactly one IN path".to_string())?;
    Ok(Command::Analyze {
        input,
        width,
        tau,
        bits,
    })
}

fn parse_store(it: &mut ArgIter<'_>) -> Result<Command, String> {
    let verb = it
        .next()
        .ok_or("store requires a verb: put|get|ls|compact")?;
    // The flags each verb takes, as the usage text lists them.
    let applies: &[&str] = match verb.as_str() {
        "put" => &["--name", "--step", "--width", "--shards", "--queue-depth"],
        "get" => &["--name", "--step", "--no-verify"],
        "ls" => &["--no-verify"],
        "compact" => &["--shards"],
        other => {
            return Err(format!(
                "unknown store verb '{other}' (try put|get|ls|compact)"
            ))
        }
    };

    let mut name: Option<String> = None;
    let mut step: Option<u32> = None;
    let mut width: Option<usize> = None;
    let mut shards: Option<u16> = None;
    let mut queue_depth: usize = 2;
    let mut verify = true;
    let mut paths: Vec<PathBuf> = Vec::new();
    while let Some(arg) = it.next() {
        let flag = if arg == "-w" { "--width" } else { arg.as_str() };
        match flag {
            "--name" | "--step" | "--width" | "--shards" | "--queue-depth" | "--no-verify"
                if !applies.contains(&flag) =>
            {
                return Err(format!("'{flag}' does not apply to 'store {verb}'"))
            }
            "--name" => name = Some(value(it, "--name")?),
            "--step" => step = Some(value(it, "--step")?.parse().map_err(bad("--step"))?),
            "--width" => width = Some(value(it, "--width")?.parse().map_err(bad("--width"))?),
            "--shards" => shards = Some(value(it, "--shards")?.parse().map_err(bad("--shards"))?),
            "--queue-depth" => {
                queue_depth = value(it, "--queue-depth")?
                    .parse()
                    .map_err(bad("--queue-depth"))?
            }
            "--no-verify" => verify = false,
            other if other.starts_with('-') => return Err(format!("unknown flag '{other}'")),
            other => paths.push(PathBuf::from(other)),
        }
    }
    if let Some(shards) = shards {
        if shards == 0 {
            return Err("--shards must be positive".to_string());
        }
    }

    match verb.as_str() {
        "put" => {
            let [dir, input]: [PathBuf; 2] = paths
                .try_into()
                .map_err(|_| "store put requires DIR and IN paths".to_string())?;
            let name = name.ok_or("store put requires --name")?;
            let step = step.ok_or("store put requires --step")?;
            let width = width.ok_or("store put requires --width")?;
            if width == 0 || width > 64 {
                return Err(format!("--width must be in 1..=64, got {width}"));
            }
            if queue_depth == 0 {
                return Err("--queue-depth must be positive".to_string());
            }
            Ok(Command::StorePut {
                dir,
                input,
                name,
                step,
                width,
                shards: shards.unwrap_or(4),
                queue_depth,
            })
        }
        "get" => {
            let [dir, output]: [PathBuf; 2] = paths
                .try_into()
                .map_err(|_| "store get requires DIR and OUT paths".to_string())?;
            Ok(Command::StoreGet {
                dir,
                output,
                name: name.ok_or("store get requires --name")?,
                step: step.ok_or("store get requires --step")?,
                verify,
            })
        }
        "ls" => {
            let [dir]: [PathBuf; 1] = paths
                .try_into()
                .map_err(|_| "store ls requires exactly one DIR path".to_string())?;
            Ok(Command::StoreLs { dir, verify })
        }
        "compact" => {
            let [dir]: [PathBuf; 1] = paths
                .try_into()
                .map_err(|_| "store compact requires exactly one DIR path".to_string())?;
            Ok(Command::StoreCompact { dir, shards })
        }
        _ => unreachable!("the verb was matched above"),
    }
}

fn parse_serve(it: &mut ArgIter<'_>) -> Result<Command, String> {
    let mut addr = "127.0.0.1:7227".to_string();
    let mut metrics: Option<String> = None;
    let mut shards: u16 = 4;
    let mut queue_depth: usize = 2;
    let mut max_payload: u64 = 64 << 20;
    let mut max_inflight: u64 = 256 << 20;
    let mut commit_threshold: u64 = 64 << 20;
    let mut max_connections: usize = 256;
    let mut slow_ms: Option<u64> = None;
    let mut flight_recorder: Option<PathBuf> = None;
    let mut debug_endpoint = false;
    let mut wal = true;
    let mut idle_timeout_secs: u64 = 300;
    let mut frame_deadline_secs: u64 = 30;
    let mut paths: Vec<PathBuf> = Vec::new();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => addr = value(it, "--addr")?,
            "--metrics" => metrics = Some(value(it, "--metrics")?),
            "--shards" => shards = value(it, "--shards")?.parse().map_err(bad("--shards"))?,
            "--queue-depth" => {
                queue_depth = value(it, "--queue-depth")?
                    .parse()
                    .map_err(bad("--queue-depth"))?
            }
            "--max-payload" => {
                max_payload = value(it, "--max-payload")?
                    .parse()
                    .map_err(bad("--max-payload"))?
            }
            "--max-inflight" => {
                max_inflight = value(it, "--max-inflight")?
                    .parse()
                    .map_err(bad("--max-inflight"))?
            }
            "--commit-every" => {
                commit_threshold = value(it, "--commit-every")?
                    .parse()
                    .map_err(bad("--commit-every"))?
            }
            "--max-connections" => {
                max_connections = value(it, "--max-connections")?
                    .parse()
                    .map_err(bad("--max-connections"))?
            }
            "--slow-ms" => {
                slow_ms = Some(value(it, "--slow-ms")?.parse().map_err(bad("--slow-ms"))?)
            }
            "--flight-recorder" => {
                flight_recorder = Some(PathBuf::from(value(it, "--flight-recorder")?))
            }
            "--debug-endpoint" => debug_endpoint = true,
            "--no-wal" => wal = false,
            "--idle-timeout" => {
                idle_timeout_secs = value(it, "--idle-timeout")?
                    .parse()
                    .map_err(bad("--idle-timeout"))?
            }
            "--frame-deadline" => {
                frame_deadline_secs = value(it, "--frame-deadline")?
                    .parse()
                    .map_err(bad("--frame-deadline"))?
            }
            other if other.starts_with('-') => return Err(format!("unknown flag '{other}'")),
            other => paths.push(PathBuf::from(other)),
        }
    }
    if shards == 0 {
        return Err("--shards must be positive".to_string());
    }
    if queue_depth == 0 {
        return Err("--queue-depth must be positive".to_string());
    }
    if max_connections == 0 {
        return Err("--max-connections must be positive".to_string());
    }
    if max_payload == 0 || max_payload > u32::MAX as u64 {
        return Err(format!(
            "--max-payload must be in 1..={}, got {max_payload}",
            u32::MAX
        ));
    }
    if debug_endpoint && metrics.is_none() {
        return Err("--debug-endpoint requires --metrics (it shares that listener)".to_string());
    }
    if frame_deadline_secs == 0 {
        return Err("--frame-deadline must be positive (it bounds slowloris clients)".to_string());
    }
    let [dir]: [PathBuf; 1] = paths
        .try_into()
        .map_err(|_| "serve requires exactly one DIR path".to_string())?;
    Ok(Command::Serve {
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
    })
}

fn value(it: &mut ArgIter<'_>, flag: &str) -> Result<String, String> {
    it.next()
        .map(|s| s.to_string())
        .ok_or_else(|| format!("{flag} requires a value"))
}

fn bad<E: std::fmt::Display>(flag: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{flag}: {e}")
}

fn one_path(it: &mut ArgIter<'_>) -> Result<PathBuf, String> {
    Ok(PathBuf::from(
        it.next().ok_or("missing input path")?.as_str(),
    ))
}

fn ensure_done(it: &mut ArgIter<'_>) -> Result<(), String> {
    match it.next() {
        None => Ok(()),
        Some(extra) => Err(format!("unexpected argument '{extra}'")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_minimal_compress() {
        let cmd = parse(&strings(&[
            "compress", "--width", "8", "in.bin", "out.isbr",
        ]))
        .unwrap();
        match cmd {
            Command::Compress {
                width,
                options,
                quiet,
                ..
            } => {
                assert_eq!(width, 8);
                assert_eq!(options, CompressOptions::default());
                assert!(!quiet);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_full_compress_flags() {
        let cmd = parse(&strings(&[
            "compress",
            "--width",
            "4",
            "--prefer",
            "speed",
            "--codec",
            "bzlib2",
            "--linearize",
            "column",
            "--level",
            "best",
            "--tau",
            "1.5",
            "--chunk",
            "1000",
            "--parallel",
            "--quiet",
            "a",
            "b",
        ]))
        .unwrap();
        match cmd {
            Command::Compress {
                width,
                options,
                quiet,
                ..
            } => {
                assert_eq!(width, 4);
                assert_eq!(options.preference, Preference::Speed);
                assert_eq!(options.codec, Some(CodecId::Bzip2Like));
                assert_eq!(options.linearization, Some(Linearization::Column));
                assert_eq!(options.level, CompressionLevel::Best);
                assert_eq!(options.tau, 1.5);
                assert_eq!(options.chunk_elements, 1000);
                assert!(options.parallel);
                assert!(quiet);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn ratio_floor_overrides_preference() {
        let cmd = parse(&strings(&[
            "compress",
            "--width",
            "8",
            "--ratio-floor",
            "1.1",
            "a",
            "b",
        ]))
        .unwrap();
        match cmd {
            Command::Compress { options, .. } => {
                assert_eq!(options.preference, Preference::SpeedWithRatioFloor(1.1));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(parse(&strings(&[])).is_err());
        assert!(parse(&strings(&["frobnicate"])).is_err());
        assert!(parse(&strings(&["compress", "a", "b"])).is_err()); // no width
        assert!(parse(&strings(&["compress", "--width", "0", "a", "b"])).is_err());
        assert!(parse(&strings(&["compress", "--width", "65", "a", "b"])).is_err());
        assert!(parse(&strings(&["compress", "--width", "8", "a"])).is_err()); // one path
        assert!(parse(&strings(&[
            "compress", "--width", "8", "--prefer", "zippy", "a", "b"
        ]))
        .is_err());
        assert!(parse(&strings(&[
            "compress", "--width", "8", "--tau", "0", "a", "b"
        ]))
        .is_err());
        assert!(parse(&strings(&["decompress", "only-one"])).is_err());
        assert!(parse(&strings(&["decompress", "a", "b", "c"])).is_err());
        assert!(parse(&strings(&["analyze", "a"])).is_err()); // no width
    }

    #[test]
    fn parses_other_subcommands() {
        assert_eq!(
            parse(&strings(&["decompress", "a", "b"])).unwrap(),
            Command::Decompress {
                input: "a".into(),
                output: "b".into(),
                skip_corrupt: false,
                verify: true,
                stats: None,
                trace: None,
                kernels: None,
            }
        );
        assert_eq!(
            parse(&strings(&["analyze", "--width", "8", "x"])).unwrap(),
            Command::Analyze {
                input: "x".into(),
                width: 8,
                tau: isobar::DEFAULT_TAU,
                bits: false,
            }
        );
        assert_eq!(
            parse(&strings(&["info", "x"])).unwrap(),
            Command::Info { input: "x".into() }
        );
        assert_eq!(
            parse(&strings(&["fsck", "x"])).unwrap(),
            Command::Fsck { input: "x".into() }
        );
        assert_eq!(
            parse(&strings(&["salvage", "x", "y"])).unwrap(),
            Command::Salvage {
                input: "x".into(),
                output: "y".into(),
            }
        );
        assert!(parse(&strings(&["salvage", "x"])).is_err());
        assert!(parse(&strings(&["fsck", "x", "y"])).is_err());
    }

    #[test]
    fn store_subcommands_parse() {
        assert_eq!(
            parse(&strings(&[
                "store",
                "put",
                "run.v3",
                "in.bin",
                "--name",
                "density",
                "--step",
                "3",
                "--width",
                "8",
                "--shards",
                "2",
                "--queue-depth",
                "4",
            ]))
            .unwrap(),
            Command::StorePut {
                dir: "run.v3".into(),
                input: "in.bin".into(),
                name: "density".into(),
                step: 3,
                width: 8,
                shards: 2,
                queue_depth: 4,
            }
        );
        assert_eq!(
            parse(&strings(&[
                "store", "get", "run.v3", "out.bin", "--name", "density", "--step", "3",
            ]))
            .unwrap(),
            Command::StoreGet {
                dir: "run.v3".into(),
                output: "out.bin".into(),
                name: "density".into(),
                step: 3,
                verify: true,
            }
        );
        assert_eq!(
            parse(&strings(&["store", "ls", "--no-verify", "run.v3"])).unwrap(),
            Command::StoreLs {
                dir: "run.v3".into(),
                verify: false,
            }
        );
        assert_eq!(
            parse(&strings(&["store", "compact", "run.v3"])).unwrap(),
            Command::StoreCompact {
                dir: "run.v3".into(),
                shards: None,
            }
        );
    }

    #[test]
    fn serve_parses_defaults_and_flags() {
        assert_eq!(
            parse(&strings(&["serve", "run.v3"])).unwrap(),
            Command::Serve {
                dir: "run.v3".into(),
                addr: "127.0.0.1:7227".into(),
                metrics: None,
                shards: 4,
                queue_depth: 2,
                max_payload: 64 << 20,
                max_inflight: 256 << 20,
                commit_threshold: 64 << 20,
                max_connections: 256,
                slow_ms: None,
                flight_recorder: None,
                debug_endpoint: false,
                wal: true,
                idle_timeout_secs: 300,
                frame_deadline_secs: 30,
            }
        );
        assert_eq!(
            parse(&strings(&[
                "serve",
                "run.v3",
                "--addr",
                "0.0.0.0:9000",
                "--metrics",
                "127.0.0.1:9001",
                "--shards",
                "2",
                "--queue-depth",
                "4",
                "--max-payload",
                "1048576",
                "--max-inflight",
                "8388608",
                "--commit-every",
                "4194304",
                "--max-connections",
                "64",
                "--slow-ms",
                "250",
                "--flight-recorder",
                "flight-out",
                "--debug-endpoint",
                "--no-wal",
                "--idle-timeout",
                "0",
                "--frame-deadline",
                "5",
            ]))
            .unwrap(),
            Command::Serve {
                dir: "run.v3".into(),
                addr: "0.0.0.0:9000".into(),
                metrics: Some("127.0.0.1:9001".into()),
                shards: 2,
                queue_depth: 4,
                max_payload: 1 << 20,
                max_inflight: 8 << 20,
                commit_threshold: 4 << 20,
                max_connections: 64,
                slow_ms: Some(250),
                flight_recorder: Some("flight-out".into()),
                debug_endpoint: true,
                wal: false,
                idle_timeout_secs: 0,
                frame_deadline_secs: 5,
            }
        );
    }

    #[test]
    fn serve_rejects_bad_inputs() {
        assert!(parse(&strings(&["serve"])).is_err(), "DIR is required");
        assert!(parse(&strings(&["serve", "a", "b"])).is_err());
        assert!(parse(&strings(&["serve", "d", "--shards", "0"])).is_err());
        assert!(parse(&strings(&["serve", "d", "--queue-depth", "0"])).is_err());
        assert!(parse(&strings(&["serve", "d", "--max-connections", "0"])).is_err());
        assert!(parse(&strings(&["serve", "d", "--max-payload", "0"])).is_err());
        // Payload lengths ride in a u32 frame field.
        assert!(parse(&strings(&["serve", "d", "--max-payload", "4294967296"])).is_err());
        assert!(parse(&strings(&["serve", "d", "--frobnicate"])).is_err());
        assert!(parse(&strings(&["serve", "d", "--slow-ms", "abc"])).is_err());
        // /debug/stats rides on the metrics listener; flag alone is an error.
        assert!(parse(&strings(&["serve", "d", "--debug-endpoint"])).is_err());
        // A zero frame deadline would let one stalled client pin a
        // worker forever.
        assert!(parse(&strings(&["serve", "d", "--frame-deadline", "0"])).is_err());
        assert!(parse(&strings(&["serve", "d", "--idle-timeout", "abc"])).is_err());
    }

    #[test]
    fn store_rejects_bad_inputs() {
        assert!(parse(&strings(&["store"])).is_err());
        assert!(parse(&strings(&["store", "frob", "x"])).is_err());
        // put without its required flags, or with a bad shard count.
        assert!(parse(&strings(&[
            "store", "put", "d", "i", "--step", "0", "--width", "8"
        ]))
        .is_err());
        assert!(parse(&strings(&[
            "store", "put", "d", "i", "--name", "v", "--width", "8"
        ]))
        .is_err());
        assert!(parse(&strings(&[
            "store", "put", "d", "i", "--name", "v", "--step", "0"
        ]))
        .is_err());
        assert!(parse(&strings(&[
            "store", "put", "d", "i", "--name", "v", "--step", "0", "--width", "8", "--shards",
            "0",
        ]))
        .is_err());
        // get needs both coordinates; ls exactly one path.
        assert!(parse(&strings(&["store", "get", "d", "o", "--name", "v"])).is_err());
        assert!(parse(&strings(&["store", "ls", "a", "b"])).is_err());
    }

    #[test]
    fn store_verbs_take_only_the_flags_the_usage_lists_for_them() {
        // A complete command line per verb, then every flag added to it.
        let put = ["d", "i", "--name", "v", "--step", "0", "--width", "8"];
        let get = ["d", "o", "--name", "v", "--step", "0"];
        let verbs: [(&str, &[&str], &str); 4] = [
            ("put", &put, "--name --step --width --shards --queue-depth"),
            ("get", &get, "--name --step --no-verify"),
            ("ls", &["d"], "--no-verify"),
            ("compact", &["d"], "--shards"),
        ];
        for (verb, complete, takes) in verbs {
            for flag in "--name --step --width -w --shards --queue-depth --no-verify".split(' ') {
                let long = if flag == "-w" { "--width" } else { flag };
                let mut line = vec!["store", verb];
                line.extend(complete);
                line.push(flag);
                if flag != "--no-verify" {
                    line.push("3");
                }
                let applies = takes.split(' ').any(|t| t == long);
                let refusal = format!("'{long}' does not apply to 'store {verb}'");
                let error = parse(&strings(&line)).err();
                assert_eq!(error, (!applies).then_some(refusal), "{line:?}");
            }
        }
        // A flag no verb knows is still "unknown", not "does not apply".
        let err = parse(&strings(&["store", "ls", "d", "--frob"])).unwrap_err();
        assert_eq!(err, "unknown flag '--frob'");
    }

    #[test]
    fn durability_flags_parse_for_decompress() {
        match parse(&strings(&["decompress", "--skip-corrupt", "a", "b"])).unwrap() {
            Command::Decompress {
                skip_corrupt,
                verify,
                ..
            } => {
                assert!(skip_corrupt);
                assert!(verify, "verification stays on by default");
            }
            other => panic!("unexpected {other:?}"),
        }
        match parse(&strings(&["decompress", "--no-verify", "a", "b"])).unwrap() {
            Command::Decompress { verify, .. } => assert!(!verify),
            other => panic!("unexpected {other:?}"),
        }
        // --skip-corrupt relies on checksums to find intact chunks.
        assert!(parse(&strings(&[
            "decompress",
            "--skip-corrupt",
            "--no-verify",
            "a",
            "b"
        ]))
        .is_err());
    }

    #[test]
    fn bits_flag_is_parsed_for_analyze() {
        match parse(&strings(&["analyze", "--width", "8", "--bits", "x"])).unwrap() {
            Command::Analyze { bits, .. } => assert!(bits),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn stream_flag_is_parsed_for_compress() {
        match parse(&strings(&[
            "compress", "--width", "8", "--stream", "a", "b",
        ]))
        .unwrap()
        {
            Command::Compress { stream, .. } => assert!(stream),
            other => panic!("unexpected {other:?}"),
        }
        match parse(&strings(&["compress", "--width", "8", "a", "b"])).unwrap() {
            Command::Compress { stream, .. } => assert!(!stream),
            other => panic!("unexpected {other:?}"),
        }
        // One chunk in flight and many at once contradict each other:
        // said so, not silently dropped.
        let err = parse(&strings(&[
            "compress",
            "--width",
            "8",
            "--stream",
            "--parallel",
            "a",
            "b",
        ]))
        .unwrap_err();
        assert!(err.contains("--stream") && err.contains("--parallel"));
    }

    #[test]
    fn stats_flag_variants_parse() {
        match parse(&strings(&["compress", "--width", "8", "--stats", "a", "b"])).unwrap() {
            Command::Compress { stats, .. } => assert_eq!(stats, Some(StatsFormat::Table)),
            other => panic!("unexpected {other:?}"),
        }
        match parse(&strings(&[
            "compress",
            "--width",
            "8",
            "--stats=json",
            "a",
            "b",
        ]))
        .unwrap()
        {
            Command::Compress { stats, .. } => assert_eq!(stats, Some(StatsFormat::Json)),
            other => panic!("unexpected {other:?}"),
        }
        match parse(&strings(&["decompress", "--stats=table", "a", "b"])).unwrap() {
            Command::Decompress { stats, .. } => assert_eq!(stats, Some(StatsFormat::Table)),
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse(&strings(&[
            "compress",
            "--width",
            "8",
            "--stats=xml",
            "a",
            "b"
        ]))
        .is_err());
    }

    #[test]
    fn kernels_flag_variants_parse() {
        match parse(&strings(&[
            "compress",
            "--width",
            "8",
            "--kernels=scalar",
            "a",
            "b",
        ]))
        .unwrap()
        {
            Command::Compress { kernels, .. } => {
                assert_eq!(kernels, Some(KernelSelection::Scalar))
            }
            other => panic!("unexpected {other:?}"),
        }
        match parse(&strings(&["decompress", "--kernels=auto", "a", "b"])).unwrap() {
            Command::Decompress { kernels, .. } => assert_eq!(kernels, Some(KernelSelection::Auto)),
            other => panic!("unexpected {other:?}"),
        }
        match parse(&strings(&["decompress", "a", "b"])).unwrap() {
            Command::Decompress { kernels, .. } => assert_eq!(kernels, None),
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse(&strings(&[
            "compress",
            "--width",
            "8",
            "--kernels=sse9",
            "a",
            "b"
        ]))
        .is_err());
    }

    #[test]
    fn trace_flag_takes_a_path() {
        match parse(&strings(&[
            "compress", "--width", "8", "--trace", "t.json", "a", "b",
        ]))
        .unwrap()
        {
            Command::Compress { trace, .. } => assert_eq!(trace, Some("t.json".into())),
            other => panic!("unexpected {other:?}"),
        }
        match parse(&strings(&["decompress", "--trace", "t.json", "a", "b"])).unwrap() {
            Command::Decompress { trace, .. } => assert_eq!(trace, Some("t.json".into())),
            other => panic!("unexpected {other:?}"),
        }
        // A dangling --trace must not silently eat a path operand count.
        assert!(parse(&strings(&["decompress", "a", "b", "--trace"])).is_err());
    }

    #[test]
    fn short_aliases_work() {
        assert!(matches!(
            parse(&strings(&["c", "-w", "8", "a", "b"])).unwrap(),
            Command::Compress { .. }
        ));
        assert!(matches!(
            parse(&strings(&["d", "a", "b"])).unwrap(),
            Command::Decompress { .. }
        ));
    }
}
