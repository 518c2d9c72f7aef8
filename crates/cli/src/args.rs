//! Argument parsing from one flag table (no external dependencies).
//!
//! Each row of [`FLAGS`] declares one flag: its name, alias and value,
//! the subcommands that take it, its help, the library option it writes
//! and the range that option must hold. [`parse`] walks argv against
//! the table, starting every option at its library `Default`; [`usage`]
//! renders the option sections from the same rows.

use isobar::{
    CodecId, CompressionLevel, IsobarOptions, KernelSelection, Linearization, Preference,
};
use isobar_server::ServeOptions;
use isobar_store::ShardedOptions;
use std::fmt::{Debug, Display};
use std::path::PathBuf;
use std::time::Duration;

/// The subcommand synopsis that heads the usage text.
const SYNOPSIS: &str = "\
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
  isobar serve      DIR [options]                run the checkpoint daemon in
                                                 front of a sharded store
                                                 (SIGINT/SIGTERM drain and
                                                 commit cleanly)
  isobar help                                    print this text";

/// The note that closes the usage text.
const NOTES: &str = "\
info, fsck, salvage and decompress take a container in either form,
batch or streamed; fsck and salvage also take a checkpoint store (a
directory is treated as a v3 sharded store). fsck exits 0 for a clean
file and 3 when it finds damage.";

/// Where `serve` listens unless `--addr` says otherwise.
const DEFAULT_ADDR: &str = "127.0.0.1:7227";

/// A subcommand, as the flag table names it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sub {
    Compress,
    Decompress,
    Analyze,
    Info,
    Fsck,
    Salvage,
    StorePut,
    StoreGet,
    StoreLs,
    StoreCompact,
    Serve,
    Help,
}

/// Every subcommand as it is typed (aliases aside), in usage order.
const SUBS: [(Sub, &str); 12] = [
    (Sub::Compress, "compress"),
    (Sub::Decompress, "decompress"),
    (Sub::Analyze, "analyze"),
    (Sub::Info, "info"),
    (Sub::Fsck, "fsck"),
    (Sub::Salvage, "salvage"),
    (Sub::StorePut, "store put"),
    (Sub::StoreGet, "store get"),
    (Sub::StoreLs, "store ls"),
    (Sub::StoreCompact, "store compact"),
    (Sub::Serve, "serve"),
    (Sub::Help, "help"),
];

impl Sub {
    fn name(self) -> &'static str {
        SUBS.iter()
            .find(|(sub, _)| *sub == self)
            .map_or("", |(_, name)| name)
    }
}

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

/// Telemetry, tracing and kernel pinning for one compress or
/// decompress run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunFlags {
    /// Print telemetry after the run, in this format (`--stats`).
    pub stats: Option<StatsFormat>,
    /// Write a Chrome trace-event timeline of the run here (`--trace`).
    pub trace: Option<PathBuf>,
    /// Pin the SIMD kernel dispatch (`--kernels=`), if given.
    pub kernels: Option<KernelSelection>,
}

/// A checked command line: the subcommand, exactly the operands it
/// takes, every flag it requires, and the values its flags set.
#[derive(Debug)]
pub struct Command {
    pub sub: Sub,
    pub paths: Vec<PathBuf>,
    pub opts: Opts,
}

/// Every value a flag can set, each starting at its library default.
#[derive(Debug, Default)]
pub struct Opts {
    /// Compress pipeline options; also analyze's `--tau` and the
    /// `--no-verify` of decompress and store get/ls.
    pub isobar: IsobarOptions,
    /// Store put and compact.
    pub sharded: ShardedOptions,
    pub serve: ServeOptions,
    /// `--addr`, if given; [`Opts::listen_addr`] is where serve listens.
    pub addr: Option<String>,
    pub metrics: Option<String>,
    pub width: usize,
    pub ratio_floor: Option<f64>,
    pub name: String,
    pub step: u32,
    pub stream: bool,
    pub quiet: bool,
    pub bits: bool,
    pub skip_corrupt: bool,
    pub run: RunFlags,
}

impl Opts {
    /// The address `serve` listens on.
    pub fn listen_addr(&self) -> &str {
        self.addr.as_deref().unwrap_or(DEFAULT_ADDR)
    }
}

/// One flag's value as it was typed.
struct Arg<'a> {
    flag: &'static str,
    /// What the value must be, as the usage spells it.
    expect: &'static str,
    raw: &'a str,
}

impl Arg<'_> {
    fn num<T: std::str::FromStr>(&self) -> Result<T, String>
    where
        T::Err: Display,
    {
        self.raw.parse().map_err(|e| format!("{}: {e}", self.flag))
    }

    fn refuse(&self) -> String {
        let (flag, expect, raw) = (self.flag, self.expect, self.raw);
        format!("{flag} must be {expect}, got '{raw}'")
    }

    fn pick<T: Copy>(&self, choices: &[(&str, T)]) -> Result<T, String> {
        let found = choices.iter().find(|(spelled, _)| *spelled == self.raw);
        found.map(|&(_, value)| value).ok_or_else(|| self.refuse())
    }
}

/// What a flag takes; each variant's text is the usage's metavar.
#[derive(Clone, Copy)]
enum Value {
    /// Nothing: `--name`.
    Switch,
    /// The next argument: `--name N`.
    Next(&'static str),
    /// A value attached with `=`: `--name=A|B`.
    Attached(&'static str),
    /// A value attached with `=`, or none, standing for `bare`:
    /// `--name[=A|B]`.
    Optional {
        choices: &'static str,
        bare: &'static str,
    },
}

use Value::{Attached, Next, Optional, Switch};

/// Where a flag's value comes from.
enum Take<'a> {
    /// A switch takes none.
    Nothing,
    /// The next argument.
    Next,
    /// Attached with `=`, or what a bare optional flag stands for.
    Given(&'a str),
}

type Setter = fn(&mut Opts, Arg<'_>) -> Result<(), String>;

/// A flag table row before its setter: `flag(..)`, then `.alias(..)`
/// and `.help(..)`; `.set(..)` makes it a [`Flag`].
struct Row {
    name: &'static str,
    alias: Option<&'static str>,
    value: Value,
    takes: &'static [Sub],
    help: &'static str,
}

const fn flag(name: &'static str, value: Value, takes: &'static [Sub]) -> Row {
    Row {
        name,
        alias: None,
        value,
        takes,
        help: "",
    }
}

impl Row {
    const fn alias(mut self, alias: &'static str) -> Row {
        self.alias = Some(alias);
        self
    }

    const fn help(mut self, help: &'static str) -> Row {
        self.help = help;
        self
    }

    const fn set(self, set: Setter) -> Flag {
        Flag {
            row: self,
            set,
            default: None,
            check: None,
        }
    }

    /// The value's metavar or choices; empty for a switch.
    fn metavar(&self) -> &'static str {
        match self.value {
            Switch => "",
            Next(metavar)
            | Attached(metavar)
            | Optional {
                choices: metavar, ..
            } => metavar,
        }
    }

    /// The flag as the usage spells it: `--width N, -w N`, `--stats[=A|B]`.
    fn spelling(&self) -> String {
        let value = match self.value {
            Switch => String::new(),
            Next(metavar) => format!(" {metavar}"),
            Attached(choices) => format!("={choices}"),
            Optional { choices, .. } => format!("[={choices}]"),
        };
        match self.alias {
            Some(alias) => format!("{}{value}, {alias}{value}", self.name),
            None => format!("{}{value}", self.name),
        }
    }

    /// Where this flag reads its value from when spelled `--name`
    /// (`attached` = `None`) or `--name=value`; `None` if it is never
    /// spelled that way.
    fn take<'a>(&self, attached: Option<&'a str>) -> Option<Take<'a>> {
        match (self.value, attached) {
            (Switch, None) => Some(Take::Nothing),
            (Next(_), None) => Some(Take::Next),
            (Attached(_) | Optional { .. }, Some(value)) => Some(Take::Given(value)),
            (Optional { bare, .. }, None) => Some(Take::Given(bare)),
            _ => None,
        }
    }
}

/// One row of the flag table.
struct Flag {
    row: Row,
    set: Setter,
    /// The default the usage states, read from the library's `Default`.
    default: Option<fn(&Opts, Sub) -> String>,
    /// The refusal for an out-of-range value. It runs after the walk,
    /// so the last spelling of a repeated flag is the one judged.
    check: Option<fn(&Opts) -> Option<String>>,
}

impl Flag {
    const fn shows(mut self, default: fn(&Opts, Sub) -> String) -> Flag {
        self.default = Some(default);
        self
    }

    const fn check(mut self, check: fn(&Opts) -> Option<String>) -> Flag {
        self.check = Some(check);
        self
    }
}

/// Store `value` in `slot`: the body of every setter.
fn put<T>(slot: &mut T, value: T) -> Result<(), String> {
    *slot = value;
    Ok(())
}

/// A library value as the usage spells it (`Ratio` → `ratio`).
fn lower(value: impl Debug) -> String {
    format!("{value:?}").to_lowercase()
}

/// `refusal` when `bad`.
fn refuse_if(bad: bool, refusal: &str) -> Option<String> {
    bad.then(|| refusal.to_string())
}

const COMPRESS: &[Sub] = &[Sub::Compress];
const RUN: &[Sub] = &[Sub::Compress, Sub::Decompress];
const KEY: &[Sub] = &[Sub::StorePut, Sub::StoreGet];
const SERVE: &[Sub] = &[Sub::Serve];

/// Every flag the CLI takes, one row each.
const FLAGS: &[Flag] = &[
    flag(
        "--width",
        Next("N"),
        &[Sub::Compress, Sub::Analyze, Sub::StorePut],
    )
    .alias("-w")
    .help("element width in bytes, 1..=64 (required)")
    .set(|o, a| put(&mut o.width, a.num()?))
    .check(|o| {
        let bad = !(1..=64).contains(&o.width);
        bad.then(|| format!("--width must be in 1..=64, got {}", o.width))
    }),
    flag("--prefer", Next("speed|ratio"), COMPRESS)
        .help("end-user preference")
        .set(|o, a| {
            let choices = [("speed", Preference::Speed), ("ratio", Preference::Ratio)];
            put(&mut o.isobar.preference, a.pick(&choices)?)
        })
        .shows(|o, _| lower(o.isobar.preference)),
    flag("--ratio-floor", Next("F"), COMPRESS)
        .help("first solver, fastest first, with sample CR >= F")
        .set(|o, a| put(&mut o.ratio_floor, Some(a.num()?)))
        .check(|o| {
            let floor = o.ratio_floor.filter(|f| !f.is_finite());
            floor.map(|f| format!("--ratio-floor must be finite, got {f}"))
        }),
    flag("--codec", Next("zlib|bzlib2"), COMPRESS)
        .help("skip EUPA, force this solver")
        .set(|o, a| {
            let choices = [
                ("zlib", CodecId::Deflate),
                ("deflate", CodecId::Deflate),
                ("bzlib2", CodecId::Bzip2Like),
                ("bzip2", CodecId::Bzip2Like),
            ];
            put(&mut o.isobar.codec_override, Some(a.pick(&choices)?))
        }),
    flag("--linearize", Next("row|column"), COMPRESS)
        .help("skip EUPA, force this linearization")
        .set(|o, a| {
            let choices = [
                ("row", Linearization::Row),
                ("column", Linearization::Column),
            ];
            put(
                &mut o.isobar.linearization_override,
                Some(a.pick(&choices)?),
            )
        }),
    flag("--level", Next("fast|default|best"), COMPRESS)
        .help("solver effort")
        .set(|o, a| {
            let choices = [
                ("fast", CompressionLevel::Fast),
                ("default", CompressionLevel::Default),
                ("best", CompressionLevel::Best),
            ];
            put(&mut o.isobar.level, a.pick(&choices)?)
        })
        .shows(|o, _| lower(o.isobar.level)),
    flag("--tau", Next("F"), &[Sub::Compress, Sub::Analyze])
        .help("analyzer tolerance factor, in (0, 256]")
        .set(|o, a| put(&mut o.isobar.tau, a.num()?))
        .shows(|o, _| o.isobar.tau.to_string())
        .check(|o| {
            let tau = o.isobar.tau;
            refuse_if(!(tau > 0.0 && tau <= 256.0), "--tau must be in (0, 256]")
        }),
    flag("--chunk", Next("N"), COMPRESS)
        .help("chunk size in elements")
        .set(|o, a| put(&mut o.isobar.chunk_elements, a.num()?))
        .shows(|o, _| o.isobar.chunk_elements.to_string())
        .check(|o| refuse_if(o.isobar.chunk_elements == 0, "--chunk must be positive")),
    flag("--parallel", Switch, COMPRESS)
        .help("compress chunks on all cores")
        .set(|o, _| put(&mut o.isobar.parallel, true)),
    flag("--stream", Switch, COMPRESS)
        .help(
            "constant memory: one chunk in flight, the input never\n\
             held whole (its length goes in the trailer)",
        )
        .set(|o, _| put(&mut o.stream, true)),
    flag("--quiet", Switch, COMPRESS)
        .alias("-q")
        .help("suppress the summary report")
        .set(|o, _| put(&mut o.quiet, true)),
    flag("--skip-corrupt", Switch, &[Sub::Decompress])
        .help("zero-fill damaged chunks instead of failing")
        .set(|o, _| put(&mut o.skip_corrupt, true)),
    flag(
        "--no-verify",
        Switch,
        &[Sub::Decompress, Sub::StoreGet, Sub::StoreLs],
    )
    .help("skip checksum verification")
    .set(|o, _| put(&mut o.isobar.verify, false)),
    flag("--kernels", Attached("scalar|auto"), RUN)
        .help("pin the SIMD kernels (or set ISOBAR_KERNELS)")
        .set(|o, a| {
            let kernels = KernelSelection::parse(a.raw).ok_or_else(|| a.refuse())?;
            put(&mut o.run.kernels, Some(kernels))
        })
        .shows(|_, _| lower(KernelSelection::default())),
    flag(
        "--stats",
        Optional {
            choices: "table|json|prometheus",
            bare: "table",
        },
        RUN,
    )
    .help("print per-stage telemetry after the run")
    .set(|o, a| {
        let choices = [
            ("table", StatsFormat::Table),
            ("json", StatsFormat::Json),
            ("prometheus", StatsFormat::Prometheus),
        ];
        put(&mut o.run.stats, Some(a.pick(&choices)?))
    }),
    flag("--trace", Next("FILE"), RUN)
        .help("write a Chrome trace-event JSON timeline of the run")
        .set(|o, a| put(&mut o.run.trace, Some(a.raw.into()))),
    flag("--bits", Switch, &[Sub::Analyze])
        .help("also print the per-bit-position profile")
        .set(|o, _| put(&mut o.bits, true)),
    flag("--name", Next("V"), KEY)
        .help("variable name (required)")
        .set(|o, a| put(&mut o.name, a.raw.into())),
    flag("--step", Next("N"), KEY)
        .help("time step (required)")
        .set(|o, a| put(&mut o.step, a.num()?)),
    flag(
        "--shards",
        Next("N"),
        &[Sub::StorePut, Sub::StoreCompact, Sub::Serve],
    )
    .help("segment files and codec workers per generation")
    .set(|o, a| {
        o.serve.shards = a.num()?;
        put(&mut o.sharded.shards, o.serve.shards)
    })
    .shows(|o, sub| match sub {
        Sub::Serve => o.serve.shards.to_string(),
        _ => o.sharded.shards.to_string(),
    })
    .check(|o| refuse_if(o.sharded.shards == 0, "--shards must be positive")),
    flag("--queue-depth", Next("N"), &[Sub::StorePut, Sub::Serve])
        .help("queued puts per shard")
        .set(|o, a| {
            o.serve.queue_depth = a.num()?;
            put(&mut o.sharded.queue_depth, o.serve.queue_depth)
        })
        .shows(|o, sub| match sub {
            Sub::Serve => o.serve.queue_depth.to_string(),
            _ => o.sharded.queue_depth.to_string(),
        })
        .check(|o| refuse_if(o.sharded.queue_depth == 0, "--queue-depth must be positive")),
    flag("--addr", Next("HOST:PORT"), SERVE)
        .help("request listener (port 0 picks one)")
        .set(|o, a| put(&mut o.addr, Some(a.raw.into())))
        .shows(|o, _| o.listen_addr().to_string()),
    flag("--metrics", Next("HOST:PORT"), SERVE)
        .help("also serve Prometheus text on /metrics")
        .set(|o, a| put(&mut o.metrics, Some(a.raw.into()))),
    flag("--max-payload", Next("N"), SERVE)
        .help("largest accepted put payload in bytes")
        .set(|o, a| put(&mut o.serve.max_payload, a.num()?))
        .shows(|o, _| o.serve.max_payload.to_string())
        .check(|o| {
            let (n, max) = (o.serve.max_payload, u32::MAX);
            let bad = n == 0 || n > u64::from(max);
            bad.then(|| format!("--max-payload must be in 1..={max}, got {n}"))
        }),
    flag("--max-inflight", Next("N"), SERVE)
        .help("uncommitted-byte budget before puts get Busy")
        .set(|o, a| put(&mut o.serve.max_inflight_bytes, a.num()?))
        .shows(|o, _| o.serve.max_inflight_bytes.to_string()),
    flag("--commit-every", Next("N"), SERVE)
        .help("pending bytes that trigger a generation commit")
        .set(|o, a| put(&mut o.serve.commit_threshold, a.num()?))
        .shows(|o, _| o.serve.commit_threshold.to_string()),
    flag("--max-connections", Next("N"), SERVE)
        .help("concurrent connections before Busy")
        .set(|o, a| put(&mut o.serve.max_connections, a.num()?))
        .shows(|o, _| o.serve.max_connections.to_string())
        .check(|o| {
            let bad = o.serve.max_connections == 0;
            refuse_if(bad, "--max-connections must be positive")
        }),
    flag("--slow-ms", Next("N"), SERVE)
        .help("count and log requests of N ms or more (off unless given)")
        .set(|o, a| put(&mut o.serve.slow_ms, Some(a.num()?))),
    flag("--flight-recorder", Next("DIR"), SERVE)
        .help("keep trace rings warm; dump them (and slow.jsonl) here")
        .set(|o, a| put(&mut o.serve.flight_recorder, Some(a.raw.into()))),
    flag("--debug-endpoint", Switch, SERVE)
        .help("also serve /debug/stats on the --metrics listener")
        .set(|o, _| put(&mut o.serve.debug_endpoint, true)),
    flag("--no-wal", Switch, SERVE)
        .help(
            "skip the write-ahead journal: an acked put may be\n\
             lost in a crash before the next commit",
        )
        .set(|o, _| put(&mut o.serve.wal, false)),
    flag("--idle-timeout", Next("N"), SERVE)
        .help("drop connections idle N seconds; 0 keeps them")
        .set(|o, a| {
            let secs = a.num()?;
            put(
                &mut o.serve.idle_timeout,
                (secs != 0).then(|| Duration::from_secs(secs)),
            )
        })
        .shows(|o, _| o.serve.idle_timeout.map_or(0, |t| t.as_secs()).to_string()),
    flag("--frame-deadline", Next("N"), SERVE)
        .help("abort requests whose frame takes over N seconds")
        .set(|o, a| put(&mut o.serve.frame_deadline, Duration::from_secs(a.num()?)))
        .shows(|o, _| o.serve.frame_deadline.as_secs().to_string())
        .check(|o| {
            let bad = o.serve.frame_deadline.is_zero();
            refuse_if(
                bad,
                "--frame-deadline must be positive (it bounds slowloris clients)",
            )
        }),
];

/// The usage text: the synopsis, then each subcommand's options as the
/// table declares them, with the defaults read from the library.
pub fn usage() -> String {
    let defaults = Opts::default();
    let mut text = SYNOPSIS.to_string();
    for (sub, name) in SUBS {
        let mut rows = FLAGS
            .iter()
            .filter(|f| f.row.takes.contains(&sub))
            .peekable();
        if rows.peek().is_some() {
            text += &format!("\n\n{name} options:");
        }
        for f in rows {
            let help = f.row.help.replace('\n', &format!("\n{:23}", ""));
            text += &match f.row.spelling() {
                short if short.len() <= 20 => format!("\n  {short:21}{help}"),
                long => format!("\n  {long}\n{:23}{help}", ""),
            };
            if let Some(default) = f.default {
                text += &format!(" (default: {})", default(&defaults, sub));
            }
        }
    }
    text + "\n\n" + NOTES
}

/// Parse `argv` (without the program name).
pub fn parse(argv: &[String]) -> Result<Command, String> {
    let mut args = argv.iter().map(String::as_str);
    let sub = match args.next().ok_or("missing subcommand")? {
        "compress" | "c" => Sub::Compress,
        "decompress" | "d" => Sub::Decompress,
        "analyze" | "a" => Sub::Analyze,
        "info" | "i" => Sub::Info,
        "fsck" => Sub::Fsck,
        "salvage" => Sub::Salvage,
        "store" => match args
            .next()
            .ok_or("store requires a verb: put|get|ls|compact")?
        {
            "put" => Sub::StorePut,
            "get" => Sub::StoreGet,
            "ls" => Sub::StoreLs,
            "compact" => Sub::StoreCompact,
            other => {
                return Err(format!(
                    "unknown store verb '{other}' (try put|get|ls|compact)"
                ))
            }
        },
        "serve" => Sub::Serve,
        "--help" | "-h" | "help" => Sub::Help,
        other => return Err(format!("unknown subcommand '{other}'")),
    };
    let mut o = Opts::default();
    if sub == Sub::Help {
        return Ok(Command {
            sub,
            paths: Vec::new(),
            opts: o,
        });
    }
    let (mut operands, mut seen) = (Vec::new(), Vec::new());
    while let Some(arg) = args.next() {
        if !arg.starts_with('-') {
            operands.push(arg);
            continue;
        }
        let (spelled, attached) = match arg.split_once('=') {
            Some((spelled, value)) => (spelled, Some(value)),
            None => (arg, None),
        };
        let (flag, take) = FLAGS
            .iter()
            .filter(|f| f.row.name == spelled || f.row.alias == Some(spelled))
            .find_map(|f| Some((f, f.row.take(attached)?)))
            .ok_or_else(|| format!("unknown flag '{arg}'"))?;
        let name = flag.row.name;
        if !flag.row.takes.contains(&sub) {
            return Err(format!("'{name}' does not apply to '{}'", sub.name()));
        }
        let raw = match take {
            Take::Nothing => "",
            Take::Given(value) => value,
            Take::Next => args
                .next()
                .ok_or_else(|| format!("{name} requires a value"))?,
        };
        let expect = flag.row.metavar();
        (flag.set)(
            &mut o,
            Arg {
                flag: name,
                expect,
                raw,
            },
        )?;
        seen.push(name);
    }
    let given = FLAGS.iter().filter(|f| seen.contains(&f.row.name));
    if let Some(refusal) = given.filter_map(|f| f.check).find_map(|check| check(&o)) {
        return Err(refusal);
    }

    // What each subcommand requires beyond its flags' own ranges, in
    // the order it is refused.
    let need = |flag: &str| {
        let refusal = format!("{} requires {flag}", sub.name());
        seen.contains(&flag).then_some(()).ok_or(refusal)
    };
    let count = |n: usize, refusal: &str| {
        (operands.len() == n)
            .then_some(())
            .ok_or(refusal.to_string())
    };
    match sub {
        Sub::Compress => {
            if let Some(floor) = o.ratio_floor {
                o.isobar.preference = Preference::SpeedWithRatioFloor(floor);
            }
            if o.stream && o.isobar.parallel {
                return Err(
                    "--stream keeps one chunk in flight, --parallel needs several: use one".into(),
                );
            }
            need("--width")?;
            count(2, "compress requires exactly IN and OUT paths")?;
        }
        Sub::Decompress => {
            if o.skip_corrupt && !o.isobar.verify {
                return Err("--skip-corrupt needs checksums to find intact chunks; \
                     it cannot be combined with --no-verify"
                    .into());
            }
            count(2, "decompress requires exactly IN and OUT paths")?;
        }
        Sub::Analyze => {
            need("--width")?;
            count(1, "analyze requires exactly one IN path")?;
        }
        Sub::Info | Sub::Fsck | Sub::Salvage => {
            let n = if sub == Sub::Salvage { 2 } else { 1 };
            if let Some(extra) = operands.get(n) {
                return Err(format!("unexpected argument '{extra}'"));
            }
            if operands.is_empty() {
                return Err("missing input path".into());
            }
            count(n, "salvage requires IN and OUT paths")?;
        }
        Sub::StorePut => {
            count(2, "store put requires DIR and IN paths")?;
            need("--name")?;
            need("--step")?;
            need("--width")?;
        }
        Sub::StoreGet => {
            count(2, "store get requires DIR and OUT paths")?;
            need("--name")?;
            need("--step")?;
        }
        Sub::StoreLs => count(1, "store ls requires exactly one DIR path")?,
        Sub::StoreCompact => count(1, "store compact requires exactly one DIR path")?,
        Sub::Serve => {
            if o.serve.debug_endpoint && o.metrics.is_none() {
                return Err("--debug-endpoint requires --metrics (it shares that listener)".into());
            }
            count(1, "serve requires exactly one DIR path")?;
        }
        Sub::Help => {}
    }
    let paths = operands.into_iter().map(PathBuf::from).collect();
    Ok(Command {
        sub,
        paths,
        opts: o,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_line(line: &str) -> Result<Command, String> {
        parse(
            &line
                .split_whitespace()
                .map(String::from)
                .collect::<Vec<_>>(),
        )
    }

    /// The options `line` parses to, checked to be `sub` with `paths`.
    #[track_caller]
    fn parsed(line: &str, sub: Sub, paths: &[&str]) -> Opts {
        let cmd = parse_line(line).unwrap();
        assert_eq!(cmd.sub, sub, "{line}");
        let want: Vec<PathBuf> = paths.iter().map(PathBuf::from).collect();
        assert_eq!(cmd.paths, want, "{line}");
        cmd.opts
    }

    /// The library option structs do not implement `PartialEq`; their
    /// `Debug` forms show every field.
    #[track_caller]
    fn assert_same<T: Debug>(got: T, want: T) {
        assert_eq!(format!("{got:?}"), format!("{want:?}"));
    }

    #[test]
    fn parses_minimal_compress() {
        let line = "compress --width 8 in.bin out.isbr";
        let o = parsed(line, Sub::Compress, &["in.bin", "out.isbr"]);
        assert_eq!(o.width, 8);
        assert_same(o.isobar, IsobarOptions::default());
        assert!(!o.quiet);
    }

    #[test]
    fn parses_full_compress_flags() {
        let o = parsed(
            "compress --width 4 --prefer speed --codec bzlib2 --linearize column --level best \
             --tau 1.5 --chunk 1000 --parallel --quiet a b",
            Sub::Compress,
            &["a", "b"],
        );
        assert_eq!(o.width, 4);
        assert_eq!(o.isobar.preference, Preference::Speed);
        assert_eq!(o.isobar.codec_override, Some(CodecId::Bzip2Like));
        assert_eq!(o.isobar.linearization_override, Some(Linearization::Column));
        assert_eq!(o.isobar.level, CompressionLevel::Best);
        assert_eq!(o.isobar.tau, 1.5);
        assert_eq!(o.isobar.chunk_elements, 1000);
        assert!(o.isobar.parallel);
        assert!(o.quiet);
    }

    #[test]
    fn ratio_floor_overrides_preference() {
        let line = "compress --width 8 --ratio-floor 1.1 a b";
        let o = parsed(line, Sub::Compress, &["a", "b"]);
        assert_eq!(o.isobar.preference, Preference::SpeedWithRatioFloor(1.1));
    }

    #[test]
    fn rejects_bad_inputs() {
        for line in [
            "",
            "frobnicate",
            "compress a b", // no width
            "compress --width 0 a b",
            "compress --width 65 a b",
            "compress --width 8 a", // one path
            "compress --width 8 --prefer zippy a b",
            "compress --width 8 --tau 0 a b",
            "decompress only-one",
            "decompress a b c",
            "analyze a", // no width
        ] {
            assert!(parse_line(line).is_err(), "{line}");
        }
        // analyze holds --width and --tau to compress's ranges (the
        // analyzer asserts τ ∈ (0, 256]); --ratio-floor must be finite.
        for (line, refusal) in [
            ("analyze --width 8 --tau 0 x", "--tau must be in (0, 256]"),
            ("analyze --width 8 --tau nan x", "--tau must be in (0, 256]"),
            ("analyze --width 8 --tau 300 x", "--tau must be in (0, 256]"),
            ("analyze --width 0 x", "--width must be in 1..=64, got 0"),
            ("analyze -w 65 x", "--width must be in 1..=64, got 65"),
            (
                "c -w 8 --ratio-floor nan a b",
                "--ratio-floor must be finite, got NaN",
            ),
            (
                "c -w 8 --ratio-floor inf a b",
                "--ratio-floor must be finite, got inf",
            ),
        ] {
            assert_eq!(parse_line(line).unwrap_err(), refusal, "{line}");
        }
    }

    #[test]
    fn parses_other_subcommands() {
        let o = parsed("decompress a b", Sub::Decompress, &["a", "b"]);
        assert!(!o.skip_corrupt && o.isobar.verify);
        assert_eq!(o.run, RunFlags::default());
        let o = parsed("analyze --width 8 x", Sub::Analyze, &["x"]);
        assert_eq!(
            (o.width, o.isobar.tau, o.bits),
            (8, isobar::DEFAULT_TAU, false)
        );
        parsed("info x", Sub::Info, &["x"]);
        parsed("fsck x", Sub::Fsck, &["x"]);
        parsed("salvage x y", Sub::Salvage, &["x", "y"]);
        assert!(parse_line("salvage x").is_err());
        assert!(parse_line("fsck x y").is_err());
    }

    #[test]
    fn store_subcommands_parse() {
        let line = "store put run.v3 in.bin --name density --step 3 --width 8 --shards 2 \
                    --queue-depth 4";
        let o = parsed(line, Sub::StorePut, &["run.v3", "in.bin"]);
        assert_eq!((o.name.as_str(), o.step, o.width), ("density", 3, 8));
        let sharded = ShardedOptions {
            shards: 2,
            queue_depth: 4,
        };
        assert_eq!(o.sharded, sharded);
        let line = "store get run.v3 out.bin --name density --step 3";
        let o = parsed(line, Sub::StoreGet, &["run.v3", "out.bin"]);
        assert_eq!(
            (o.name.as_str(), o.step, o.isobar.verify),
            ("density", 3, true)
        );
        let o = parsed("store ls --no-verify run.v3", Sub::StoreLs, &["run.v3"]);
        assert!(!o.isobar.verify);
        let o = parsed("store compact run.v3", Sub::StoreCompact, &["run.v3"]);
        assert_eq!(o.sharded, ShardedOptions::default());
        let line = "store put d i --name v --step 0 -w 8";
        assert_eq!(
            parsed(line, Sub::StorePut, &["d", "i"]).sharded,
            ShardedOptions::default()
        );
    }

    #[test]
    fn serve_parses_defaults_and_flags() {
        let o = parsed("serve run.v3", Sub::Serve, &["run.v3"]);
        // Loopback only unless --addr says otherwise.
        assert_eq!(o.listen_addr(), "127.0.0.1:7227");
        assert_eq!(o.metrics, None);
        assert_same(o.serve, ServeOptions::default());
        let line = "serve run.v3 --addr 0.0.0.0:9000 --metrics 127.0.0.1:9001 --shards 2 \
                    --queue-depth 4 --max-payload 1048576 --max-inflight 8388608 \
                    --commit-every 4194304 --max-connections 64 --slow-ms 250 \
                    --flight-recorder flight-out --debug-endpoint --no-wal --idle-timeout 0 \
                    --frame-deadline 5";
        let o = parsed(line, Sub::Serve, &["run.v3"]);
        assert_eq!(o.listen_addr(), "0.0.0.0:9000");
        assert_eq!(o.metrics.as_deref(), Some("127.0.0.1:9001"));
        let serve = ServeOptions {
            shards: 2,
            queue_depth: 4,
            max_payload: 1 << 20,
            max_inflight_bytes: 8 << 20,
            commit_threshold: 4 << 20,
            max_connections: 64,
            slow_ms: Some(250),
            flight_recorder: Some("flight-out".into()),
            debug_endpoint: true,
            wal: false,
            idle_timeout: None,
            frame_deadline: Duration::from_secs(5),
            isobar: IsobarOptions::default(),
        };
        assert_same(o.serve, serve);
    }

    #[test]
    fn serve_rejects_bad_inputs() {
        for line in [
            "serve", // DIR is required
            "serve a b",
            "serve d --shards 0",
            "serve d --queue-depth 0",
            "serve d --max-connections 0",
            "serve d --max-payload 0",
            // Payload lengths ride in a u32 frame field.
            "serve d --max-payload 4294967296",
            "serve d --frobnicate",
            "serve d --slow-ms abc",
            // /debug/stats rides on the metrics listener; flag alone is an error.
            "serve d --debug-endpoint",
            // A zero frame deadline would let one stalled client pin a
            // worker forever.
            "serve d --frame-deadline 0",
            "serve d --idle-timeout abc",
        ] {
            assert!(parse_line(line).is_err(), "{line}");
        }
    }

    #[test]
    fn store_rejects_bad_inputs() {
        for line in [
            "store",
            "store frob x",
            // put without its required flags, or with a bad shard count.
            "store put d i --step 0 --width 8",
            "store put d i --name v --width 8",
            "store put d i --name v --step 0",
            "store put d i --name v --step 0 --width 8 --shards 0",
            // get needs both coordinates; ls exactly one path.
            "store get d o --name v",
            "store ls a b",
        ] {
            assert!(parse_line(line).is_err(), "{line}");
        }
    }

    #[test]
    fn store_verbs_take_only_the_flags_the_usage_lists_for_them() {
        // A complete command line per verb, then every flag added to it.
        let verbs = [
            (
                "put",
                "d i --name v --step 0 --width 8",
                "--name --step --width --shards --queue-depth",
            ),
            ("get", "d o --name v --step 0", "--name --step --no-verify"),
            ("ls", "d", "--no-verify"),
            ("compact", "d", "--shards"),
        ];
        for (verb, complete, takes) in verbs {
            for flag in "--name --step --width -w --shards --queue-depth --no-verify".split(' ') {
                let long = if flag == "-w" { "--width" } else { flag };
                let value = if flag == "--no-verify" { "" } else { " 3" };
                let line = format!("store {verb} {complete} {flag}{value}");
                let applies = takes.split(' ').any(|t| t == long);
                let refusal = format!("'{long}' does not apply to 'store {verb}'");
                assert_eq!(
                    parse_line(&line).err(),
                    (!applies).then_some(refusal),
                    "{line}"
                );
            }
        }
        // A flag no verb knows is still "unknown", not "does not apply".
        let err = parse_line("store ls d --frob").unwrap_err();
        assert_eq!(err, "unknown flag '--frob'");
    }

    #[test]
    fn durability_flags_parse_for_decompress() {
        let o = parsed(
            "decompress --skip-corrupt a b",
            Sub::Decompress,
            &["a", "b"],
        );
        assert!(o.skip_corrupt);
        assert!(o.isobar.verify, "verification stays on by default");
        let o = parsed("decompress --no-verify a b", Sub::Decompress, &["a", "b"]);
        assert!(!o.isobar.verify);
        // --skip-corrupt relies on checksums to find intact chunks.
        assert!(parse_line("decompress --skip-corrupt --no-verify a b").is_err());
    }

    #[test]
    fn bits_flag_is_parsed_for_analyze() {
        assert!(parsed("analyze --width 8 --bits x", Sub::Analyze, &["x"]).bits);
    }

    #[test]
    fn stream_flag_is_parsed_for_compress() {
        let stream = |line: &str| parsed(line, Sub::Compress, &["a", "b"]).stream;
        assert!(stream("compress --width 8 --stream a b"));
        assert!(!stream("compress --width 8 a b"));
        // One chunk in flight and many at once contradict each other:
        // said so, not silently dropped.
        let err = parse_line("compress --width 8 --stream --parallel a b").unwrap_err();
        assert!(err.contains("--stream") && err.contains("--parallel"));
    }

    #[test]
    fn stats_flag_variants_parse() {
        let stats = |line: &str, sub| parsed(line, sub, &["a", "b"]).run.stats;
        let table = stats("compress --width 8 --stats a b", Sub::Compress);
        assert_eq!(table, Some(StatsFormat::Table));
        let json = stats("compress --width 8 --stats=json a b", Sub::Compress);
        assert_eq!(json, Some(StatsFormat::Json));
        let table = stats("decompress --stats=table a b", Sub::Decompress);
        assert_eq!(table, Some(StatsFormat::Table));
        assert!(parse_line("compress --width 8 --stats=xml a b").is_err());
    }

    #[test]
    fn kernels_flag_variants_parse() {
        let kernels = |line: &str, sub| parsed(line, sub, &["a", "b"]).run.kernels;
        let scalar = kernels("compress --width 8 --kernels=scalar a b", Sub::Compress);
        assert_eq!(scalar, Some(KernelSelection::Scalar));
        let auto = kernels("decompress --kernels=auto a b", Sub::Decompress);
        assert_eq!(auto, Some(KernelSelection::Auto));
        assert_eq!(kernels("decompress a b", Sub::Decompress), None);
        assert!(parse_line("compress --width 8 --kernels=sse9 a b").is_err());
    }

    #[test]
    fn trace_flag_takes_a_path() {
        let line = "compress --width 8 --trace t.json a b";
        let o = parsed(line, Sub::Compress, &["a", "b"]);
        assert_eq!(o.run.trace, Some("t.json".into()));
        let o = parsed(
            "decompress --trace t.json a b",
            Sub::Decompress,
            &["a", "b"],
        );
        assert_eq!(o.run.trace, Some("t.json".into()));
        // A dangling --trace must not silently eat a path operand count.
        assert!(parse_line("decompress a b --trace").is_err());
    }

    #[test]
    fn short_aliases_work() {
        parsed("c -w 8 a b", Sub::Compress, &["a", "b"]);
        parsed("d a b", Sub::Decompress, &["a", "b"]);
    }

    #[test]
    fn usage_lists_each_flag_under_exactly_the_subcommands_that_take_it() {
        let text = usage();
        let mut listed = Vec::new();
        let mut section = None;
        for line in text.lines() {
            if line.is_empty() {
                section = None;
            } else if let Some(sub) = line.strip_suffix(" options:") {
                section = Some(sub);
            } else if let (Some(sub), Some(rest)) = (section, line.strip_prefix("  -")) {
                let name = rest.split([' ', '=', '[', ',']).next().unwrap();
                listed.push(format!("{sub} -{name}"));
            }
        }
        let mut declared: Vec<String> = FLAGS
            .iter()
            .flat_map(|f| {
                f.row
                    .takes
                    .iter()
                    .map(|sub| format!("{} {}", sub.name(), f.row.name))
            })
            .collect();
        listed.sort();
        declared.sort();
        assert_eq!(listed, declared);
        // 33 flags and 2 aliases, each with help; the usage states
        // library defaults.
        assert_eq!(FLAGS.len(), 33);
        assert_eq!(FLAGS.iter().filter(|f| f.row.alias.is_some()).count(), 2);
        assert!(FLAGS.iter().all(|f| !f.row.help.is_empty()));
        for default in [
            ServeOptions::default().max_payload.to_string(),
            isobar::chunk::DEFAULT_CHUNK_ELEMENTS.to_string(),
            isobar::DEFAULT_TAU.to_string(),
            "127.0.0.1:7227".to_string(),
        ] {
            assert!(text.contains(&format!("(default: {default})")), "{default}");
        }
    }

    /// Every `isobar …` line in a fenced block of the README, docs/ and
    /// the verify skill parses (`$ `, `# …`, `&& …`, `; …` and `\`
    /// continuations stripped).
    #[test]
    fn documented_command_lines_parse() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut docs = vec![
            root.join("README.md"),
            root.join(".claude/skills/verify/SKILL.md"),
        ];
        for entry in std::fs::read_dir(root.join("docs")).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().is_some_and(|e| e == "md") {
                docs.push(path);
            }
        }
        let mut checked = 0;
        for doc in docs {
            let text = std::fs::read_to_string(&doc).unwrap();
            let mut lines = text.lines();
            let mut fenced = false;
            while let Some(line) = lines.next() {
                let line = line.trim();
                if line.starts_with("```") {
                    fenced = !fenced;
                    continue;
                }
                let line = line.strip_prefix("$ ").unwrap_or(line);
                if !fenced || !line.starts_with("isobar ") {
                    continue;
                }
                let mut command = line.to_string();
                while command.ends_with('\\') {
                    command.pop();
                    command += lines.next().unwrap_or_default();
                }
                for end in [" #", "&&", ";"] {
                    if let Some(at) = command.find(end) {
                        command.truncate(at);
                    }
                }
                let result = parse_line(command.trim_start_matches("isobar"));
                assert!(result.is_ok(), "{}: `{command}`: {result:?}", doc.display());
                checked += 1;
            }
        }
        assert!(
            checked >= 20,
            "only {checked} documented command lines found"
        );
    }
}
