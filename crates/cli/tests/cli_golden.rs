//! Golden argv corpus for the `isobar` binary: the exit code and the
//! first stderr line of every command line in `PARENT`.
//!
//! `PARENT` holds what the binary answered before one flag table
//! replaced its hand-written parse loops, taken by running that binary
//! (`code | argv | first stderr line`). Today's binary must answer the
//! same, except for the lines in `CHANGED` and the lines the "does not
//! apply" rule covers, each with its reason. No line reaches a codec:
//! inputs are missing and directories sit under `/dev/null`, so the
//! answers do not depend on cargo features (the `note: ` lines that a
//! telemetry- or trace-less build prints are skipped).

use std::path::{Path, PathBuf};
use std::process::Command;

const HELP: &str = "`--help`, `-h` and `help` printed `isobar: ` and the usage to \
     stderr with exit 1; they print the usage to stdout and exit 0";
const RANGE: &str = "analyze let --width and --tau through unchecked (exit 2 here; on a \
     real input `--tau 0` panicked in Analyzer::with_tau, exit 101); it refuses them as \
     compress does";
const FLOOR: &str = "a non-finite --ratio-floor was accepted; it is refused";
const DASH: &str = "info, fsck and salvage took a word starting with '-' as a path (exit 2 \
     on the missing file); like every other subcommand they read it as a flag";

/// The lines whose answer changed on purpose: argv, exit code, first
/// stderr line, reason.
const CHANGED: &[(&str, i32, &str, &str)] = &[
    ("--help", 0, "", HELP),
    ("-h", 0, "", HELP),
    ("help", 0, "", HELP),
    (
        "compress --width 8 --ratio-floor nan /nonexistent/in /dev/null/out",
        1,
        "isobar: --ratio-floor must be finite, got NaN",
        FLOOR,
    ),
    (
        "compress --width 8 --ratio-floor inf /nonexistent/in /dev/null/out",
        1,
        "isobar: --ratio-floor must be finite, got inf",
        FLOOR,
    ),
    (
        "analyze --width 0 /nonexistent/in",
        1,
        "isobar: --width must be in 1..=64, got 0",
        RANGE,
    ),
    (
        "analyze --width 65 /nonexistent/in",
        1,
        "isobar: --width must be in 1..=64, got 65",
        RANGE,
    ),
    (
        "analyze --width 8 --tau 0 /nonexistent/in",
        1,
        "isobar: --tau must be in (0, 256]",
        RANGE,
    ),
    (
        "analyze --width 8 --tau nan /nonexistent/in",
        1,
        "isobar: --tau must be in (0, 256]",
        RANGE,
    ),
    (
        "analyze --width 8 --tau 300 /nonexistent/in",
        1,
        "isobar: --tau must be in (0, 256]",
        RANGE,
    ),
    ("info --frob", 1, "isobar: unknown flag '--frob'", DASH),
    ("fsck --frob", 1, "isobar: unknown flag '--frob'", DASH),
    (
        "salvage --frob /dev/null/out",
        1,
        "isobar: unknown flag '--frob'",
        DASH,
    ),
];

/// A known flag on a subcommand that does not take it was refused as
/// `unknown flag` (or, after the operands of info/fsck/salvage, as an
/// unexpected argument); every subcommand now refuses it as the store
/// verbs already did: `'--x' does not apply to 'sub'`. The rule holds
/// only where the parent refused the line with one of those two
/// messages.
fn does_not_apply(argv: &[&str], parent: &(i32, String), got: &(i32, String)) -> bool {
    let sub = match argv {
        ["store", verb, ..] => format!("store {verb}"),
        [sub, ..] => match *sub {
            "c" => "compress",
            "d" => "decompress",
            "a" => "analyze",
            "i" => "info",
            other => other,
        }
        .to_string(),
        [] => return false,
    };
    let named = |flag: &str| got.1 == format!("isobar: '{flag}' does not apply to '{sub}'");
    let refused = ["isobar: unknown flag '", "isobar: unexpected argument '"];
    parent.0 == 1
        && refused.iter().any(|r| parent.1.starts_with(r))
        && got.0 == 1
        && argv.iter().any(|arg| match *arg {
            "-w" => named("--width"),
            "-q" => named("--quiet"),
            arg => arg.starts_with("--") && named(arg.split('=').next().unwrap_or(arg)),
        })
}

/// Run the binary in `cwd`: exit code and first stderr line that is
/// not a `note: `.
fn run(argv: &[&str], cwd: &Path) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_isobar"))
        .args(argv)
        .current_dir(cwd)
        .output()
        .expect("the isobar binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let first = stderr.lines().find(|l| !l.starts_with("note: "));
    (
        out.status.code().unwrap_or(-1),
        first.unwrap_or("").to_string(),
    )
}

/// An empty working directory, so no relative path exists.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("isobar-golden-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn every_command_line_answers_as_before_or_as_listed() {
    let cwd = scratch("corpus");
    let (mut lines, mut changed, mut applies) = (0, 0, 0);
    for entry in PARENT.lines() {
        let mut fields = entry.splitn(3, " | ");
        let code: i32 = fields.next().unwrap().parse().unwrap();
        let line = fields.next().unwrap();
        let parent = (code, fields.next().unwrap().to_string());
        let argv: Vec<&str> = line.split_whitespace().collect();
        let got = run(&argv, &cwd);
        let want = match CHANGED.iter().find(|c| c.0 == line) {
            Some(&(_, code, first, _)) => {
                changed += 1;
                assert_ne!(parent, (code, first.to_string()), "`{line}` did not change");
                (code, first.to_string())
            }
            None if does_not_apply(&argv, &parent, &got) => {
                applies += 1;
                got.clone()
            }
            None => parent,
        };
        assert_eq!(got, want, "isobar {line}");
        lines += 1;
    }
    assert_eq!(
        changed,
        CHANGED.len(),
        "a CHANGED line is missing from PARENT"
    );
    assert!(
        lines >= 150 && applies >= 300,
        "{lines} lines, {applies} 'does not apply'"
    );
    assert_eq!(
        std::fs::read_dir(&cwd).unwrap().count(),
        0,
        "a line wrote a file"
    );
    std::fs::remove_dir(&cwd).unwrap();
}

#[test]
fn help_prints_the_usage_to_stdout() {
    for spelling in ["--help", "-h", "help"] {
        let out = Command::new(env!("CARGO_BIN_EXE_isobar"))
            .arg(spelling)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(0), "{spelling}");
        assert!(out.stderr.is_empty(), "{spelling}");
        let usage = String::from_utf8(out.stdout).unwrap();
        assert!(usage.starts_with("usage:") && usage.contains("serve options:"));
    }
}

#[test]
fn analyze_refuses_a_bad_tau_on_a_real_input_instead_of_panicking() {
    let input = concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml");
    let cwd = scratch("tau");
    for tau in ["0", "nan", "300"] {
        let got = run(&["analyze", "--width", "8", "--tau", tau, input], &cwd);
        assert_eq!(got, (1, "isobar: --tau must be in (0, 256]".to_string()));
    }
    std::fs::remove_dir(&cwd).unwrap();
}

/// What the binary answered before the flag table: `code | argv | first
/// stderr line`.
const PARENT: &str = r#"2 | compress --width 8 /nonexistent/in /dev/null/out | isobar: /nonexistent/in: No such file or directory (os error 2)
2 | compress --width 4 --prefer speed --codec bzlib2 --linearize column --level best --tau 1.5 --chunk 1000 --parallel --quiet /nonexistent/in /dev/null/out | isobar: /nonexistent/in: No such file or directory (os error 2)
2 | compress --width 8 --ratio-floor 1.1 /nonexistent/in /dev/null/out | isobar: /nonexistent/in: No such file or directory (os error 2)
1 |  | isobar: missing subcommand
1 | frobnicate | isobar: unknown subcommand 'frobnicate'
1 | compress /nonexistent/in /dev/null/out | isobar: compress requires --width
1 | compress --width 0 /nonexistent/in /dev/null/out | isobar: --width must be in 1..=64, got 0
1 | compress --width 65 /nonexistent/in /dev/null/out | isobar: --width must be in 1..=64, got 65
1 | compress --width 8 /nonexistent/in | isobar: compress requires exactly IN and OUT paths
1 | compress --width 8 --prefer zippy /nonexistent/in /dev/null/out | isobar: --prefer must be speed|ratio, got 'zippy'
1 | compress --width 8 --tau 0 /nonexistent/in /dev/null/out | isobar: --tau must be in (0, 256]
1 | decompress only-one | isobar: decompress requires exactly IN and OUT paths
1 | decompress /nonexistent/in /dev/null/out c | isobar: decompress requires exactly IN and OUT paths
1 | analyze /nonexistent/in | isobar: analyze requires --width
2 | decompress /nonexistent/in /dev/null/out | isobar: /nonexistent/in: No such file or directory (os error 2)
2 | analyze --width 8 /nonexistent/in | isobar: /nonexistent/in: No such file or directory (os error 2)
2 | info /nonexistent/in | isobar: /nonexistent/in: No such file or directory (os error 2)
2 | fsck /nonexistent/in | isobar: /nonexistent/in: No such file or directory (os error 2)
2 | salvage /nonexistent/in /dev/null/out | isobar: /nonexistent/in: No such file or directory (os error 2)
1 | salvage /nonexistent/in | isobar: salvage requires IN and OUT paths
1 | fsck /nonexistent/in y | isobar: unexpected argument 'y'
2 | store put /dev/null/store /nonexistent/in --name density --step 3 --width 8 --shards 2 --queue-depth 4 | isobar: /nonexistent/in: No such file or directory (os error 2)
2 | store get /dev/null/store /dev/null/out --name density --step 3 | isobar: /dev/null/store: store I/O error: Not a directory (os error 20)
2 | store ls --no-verify /dev/null/store | isobar: /dev/null/store: store I/O error: Not a directory (os error 20)
2 | store compact /dev/null/store | isobar: /dev/null/store: store I/O error: Not a directory (os error 20)
2 | serve /dev/null/store | isobar: /dev/null/store: serve store error: store I/O error: Not a directory (os error 20)
2 | serve /dev/null/store --addr 0.0.0.0:9000 --metrics 127.0.0.1:9001 --shards 2 --queue-depth 4 --max-payload 1048576 --max-inflight 8388608 --commit-every 4194304 --max-connections 64 --slow-ms 250 --flight-recorder /dev/null/flight --debug-endpoint --no-wal --idle-timeout 0 --frame-deadline 5 | isobar: /dev/null/store: serve store error: store I/O error: Not a directory (os error 20)
1 | serve | isobar: serve requires exactly one DIR path
1 | serve /dev/null/store b | isobar: serve requires exactly one DIR path
1 | serve /dev/null/store --shards 0 | isobar: --shards must be positive
1 | serve /dev/null/store --queue-depth 0 | isobar: --queue-depth must be positive
1 | serve /dev/null/store --max-connections 0 | isobar: --max-connections must be positive
1 | serve /dev/null/store --max-payload 0 | isobar: --max-payload must be in 1..=4294967295, got 0
1 | serve /dev/null/store --max-payload 4294967296 | isobar: --max-payload must be in 1..=4294967295, got 4294967296
1 | serve /dev/null/store --frobnicate | isobar: unknown flag '--frobnicate'
1 | serve /dev/null/store --slow-ms abc | isobar: --slow-ms: invalid digit found in string
1 | serve /dev/null/store --debug-endpoint | isobar: --debug-endpoint requires --metrics (it shares that listener)
1 | serve /dev/null/store --frame-deadline 0 | isobar: --frame-deadline must be positive (it bounds slowloris clients)
1 | serve /dev/null/store --idle-timeout abc | isobar: --idle-timeout: invalid digit found in string
1 | store | isobar: store requires a verb: put|get|ls|compact
1 | store frob x | isobar: unknown store verb 'frob' (try put|get|ls|compact)
1 | store put /dev/null/store /nonexistent/in --step 0 --width 8 | isobar: store put requires --name
1 | store put /dev/null/store /nonexistent/in --name v --width 8 | isobar: store put requires --step
1 | store put /dev/null/store /nonexistent/in --name v --step 0 | isobar: store put requires --width
1 | store put /dev/null/store /nonexistent/in --name v --step 0 --width 8 --shards 0 | isobar: --shards must be positive
1 | store get /dev/null/store /dev/null/out --name v | isobar: store get requires --step
1 | store ls /dev/null/store b | isobar: store ls requires exactly one DIR path
1 | store ls /dev/null/store --frob | isobar: unknown flag '--frob'
2 | decompress --skip-corrupt /nonexistent/in /dev/null/out | isobar: /nonexistent/in: No such file or directory (os error 2)
2 | decompress --no-verify /nonexistent/in /dev/null/out | isobar: /nonexistent/in: No such file or directory (os error 2)
1 | decompress --skip-corrupt --no-verify /nonexistent/in /dev/null/out | isobar: --skip-corrupt needs checksums to find intact chunks; it cannot be combined with --no-verify
2 | analyze --width 8 --bits /nonexistent/in | isobar: /nonexistent/in: No such file or directory (os error 2)
2 | compress --width 8 --stream /nonexistent/in /dev/null/out | isobar: /nonexistent/in: No such file or directory (os error 2)
1 | compress --width 8 --stream --parallel /nonexistent/in /dev/null/out | isobar: --stream keeps one chunk in flight, --parallel needs several: use one
2 | compress --width 8 --stats /nonexistent/in /dev/null/out | isobar: /nonexistent/in: No such file or directory (os error 2)
2 | compress --width 8 --stats=json /nonexistent/in /dev/null/out | isobar: /nonexistent/in: No such file or directory (os error 2)
2 | decompress --stats=table /nonexistent/in /dev/null/out | isobar: /nonexistent/in: No such file or directory (os error 2)
1 | compress --width 8 --stats=xml /nonexistent/in /dev/null/out | isobar: --stats must be table|json|prometheus, got 'xml'
2 | compress --width 8 --kernels=scalar /nonexistent/in /dev/null/out | isobar: /nonexistent/in: No such file or directory (os error 2)
2 | decompress --kernels=auto /nonexistent/in /dev/null/out | isobar: /nonexistent/in: No such file or directory (os error 2)
1 | compress --width 8 --kernels=sse9 /nonexistent/in /dev/null/out | isobar: --kernels must be scalar|auto, got 'sse9'
2 | compress --width 8 --trace /dev/null/t.json /nonexistent/in /dev/null/out | isobar: /dev/null/t.json: Not a directory (os error 20)
2 | decompress --trace /dev/null/t.json /nonexistent/in /dev/null/out | isobar: /dev/null/t.json: Not a directory (os error 20)
1 | decompress /nonexistent/in /dev/null/out --trace | isobar: --trace requires a value
2 | c -w 8 /nonexistent/in /dev/null/out | isobar: /nonexistent/in: No such file or directory (os error 2)
2 | d /nonexistent/in /dev/null/out | isobar: /nonexistent/in: No such file or directory (os error 2)
2 | compress --width 8 /nonexistent/in /dev/null/out --width 8 | isobar: /nonexistent/in: No such file or directory (os error 2)
2 | compress --width 8 /nonexistent/in /dev/null/out -w 8 | isobar: /nonexistent/in: No such file or directory (os error 2)
2 | compress --width 8 /nonexistent/in /dev/null/out --prefer speed | isobar: /nonexistent/in: No such file or directory (os error 2)
2 | compress --width 8 /nonexistent/in /dev/null/out --ratio-floor 1.1 | isobar: /nonexistent/in: No such file or directory (os error 2)
2 | compress --width 8 /nonexistent/in /dev/null/out --codec zlib | isobar: /nonexistent/in: No such file or directory (os error 2)
2 | compress --width 8 /nonexistent/in /dev/null/out --linearize row | isobar: /nonexistent/in: No such file or directory (os error 2)
2 | compress --width 8 /nonexistent/in /dev/null/out --level fast | isobar: /nonexistent/in: No such file or directory (os error 2)
2 | compress --width 8 /nonexistent/in /dev/null/out --tau 1.5 | isobar: /nonexistent/in: No such file or directory (os error 2)
2 | compress --width 8 /nonexistent/in /dev/null/out --chunk 1000 | isobar: /nonexistent/in: No such file or directory (os error 2)
2 | compress --width 8 /nonexistent/in /dev/null/out --parallel | isobar: /nonexistent/in: No such file or directory (os error 2)
2 | compress --width 8 /nonexistent/in /dev/null/out --stream | isobar: /nonexistent/in: No such file or directory (os error 2)
2 | compress --width 8 /nonexistent/in /dev/null/out --quiet | isobar: /nonexistent/in: No such file or directory (os error 2)
2 | compress --width 8 /nonexistent/in /dev/null/out -q | isobar: /nonexistent/in: No such file or directory (os error 2)
1 | compress --width 8 /nonexistent/in /dev/null/out --skip-corrupt | isobar: unknown flag '--skip-corrupt'
1 | compress --width 8 /nonexistent/in /dev/null/out --no-verify | isobar: unknown flag '--no-verify'
2 | compress --width 8 /nonexistent/in /dev/null/out --kernels=scalar | isobar: /nonexistent/in: No such file or directory (os error 2)
2 | compress --width 8 /nonexistent/in /dev/null/out --stats=json | isobar: /nonexistent/in: No such file or directory (os error 2)
2 | compress --width 8 /nonexistent/in /dev/null/out --trace /dev/null/t.json | isobar: /dev/null/t.json: Not a directory (os error 20)
1 | compress --width 8 /nonexistent/in /dev/null/out --bits | isobar: unknown flag '--bits'
1 | compress --width 8 /nonexistent/in /dev/null/out --name v | isobar: unknown flag '--name'
1 | compress --width 8 /nonexistent/in /dev/null/out --step 3 | isobar: unknown flag '--step'
1 | compress --width 8 /nonexistent/in /dev/null/out --shards 2 | isobar: unknown flag '--shards'
1 | compress --width 8 /nonexistent/in /dev/null/out --queue-depth 3 | isobar: unknown flag '--queue-depth'
1 | compress --width 8 /nonexistent/in /dev/null/out --addr 127.0.0.1:0 | isobar: unknown flag '--addr'
1 | compress --width 8 /nonexistent/in /dev/null/out --metrics 127.0.0.1:0 | isobar: unknown flag '--metrics'
1 | compress --width 8 /nonexistent/in /dev/null/out --max-payload 1048576 | isobar: unknown flag '--max-payload'
1 | compress --width 8 /nonexistent/in /dev/null/out --max-inflight 8388608 | isobar: unknown flag '--max-inflight'
1 | compress --width 8 /nonexistent/in /dev/null/out --commit-every 4194304 | isobar: unknown flag '--commit-every'
1 | compress --width 8 /nonexistent/in /dev/null/out --max-connections 64 | isobar: unknown flag '--max-connections'
1 | compress --width 8 /nonexistent/in /dev/null/out --slow-ms 250 | isobar: unknown flag '--slow-ms'
1 | compress --width 8 /nonexistent/in /dev/null/out --flight-recorder /dev/null/flight | isobar: unknown flag '--flight-recorder'
1 | compress --width 8 /nonexistent/in /dev/null/out --debug-endpoint | isobar: unknown flag '--debug-endpoint'
1 | compress --width 8 /nonexistent/in /dev/null/out --no-wal | isobar: unknown flag '--no-wal'
1 | compress --width 8 /nonexistent/in /dev/null/out --idle-timeout 0 | isobar: unknown flag '--idle-timeout'
1 | compress --width 8 /nonexistent/in /dev/null/out --frame-deadline 5 | isobar: unknown flag '--frame-deadline'
1 | decompress /nonexistent/in /dev/null/out --width 8 | isobar: unknown flag '--width'
1 | decompress /nonexistent/in /dev/null/out -w 8 | isobar: unknown flag '-w'
1 | decompress /nonexistent/in /dev/null/out --prefer speed | isobar: unknown flag '--prefer'
1 | decompress /nonexistent/in /dev/null/out --ratio-floor 1.1 | isobar: unknown flag '--ratio-floor'
1 | decompress /nonexistent/in /dev/null/out --codec zlib | isobar: unknown flag '--codec'
1 | decompress /nonexistent/in /dev/null/out --linearize row | isobar: unknown flag '--linearize'
1 | decompress /nonexistent/in /dev/null/out --level fast | isobar: unknown flag '--level'
1 | decompress /nonexistent/in /dev/null/out --tau 1.5 | isobar: unknown flag '--tau'
1 | decompress /nonexistent/in /dev/null/out --chunk 1000 | isobar: unknown flag '--chunk'
1 | decompress /nonexistent/in /dev/null/out --parallel | isobar: unknown flag '--parallel'
1 | decompress /nonexistent/in /dev/null/out --stream | isobar: unknown flag '--stream'
1 | decompress /nonexistent/in /dev/null/out --quiet | isobar: unknown flag '--quiet'
1 | decompress /nonexistent/in /dev/null/out -q | isobar: unknown flag '-q'
2 | decompress /nonexistent/in /dev/null/out --skip-corrupt | isobar: /nonexistent/in: No such file or directory (os error 2)
2 | decompress /nonexistent/in /dev/null/out --no-verify | isobar: /nonexistent/in: No such file or directory (os error 2)
2 | decompress /nonexistent/in /dev/null/out --kernels=scalar | isobar: /nonexistent/in: No such file or directory (os error 2)
2 | decompress /nonexistent/in /dev/null/out --stats=json | isobar: /nonexistent/in: No such file or directory (os error 2)
2 | decompress /nonexistent/in /dev/null/out --trace /dev/null/t.json | isobar: /dev/null/t.json: Not a directory (os error 20)
1 | decompress /nonexistent/in /dev/null/out --bits | isobar: unknown flag '--bits'
1 | decompress /nonexistent/in /dev/null/out --name v | isobar: unknown flag '--name'
1 | decompress /nonexistent/in /dev/null/out --step 3 | isobar: unknown flag '--step'
1 | decompress /nonexistent/in /dev/null/out --shards 2 | isobar: unknown flag '--shards'
1 | decompress /nonexistent/in /dev/null/out --queue-depth 3 | isobar: unknown flag '--queue-depth'
1 | decompress /nonexistent/in /dev/null/out --addr 127.0.0.1:0 | isobar: unknown flag '--addr'
1 | decompress /nonexistent/in /dev/null/out --metrics 127.0.0.1:0 | isobar: unknown flag '--metrics'
1 | decompress /nonexistent/in /dev/null/out --max-payload 1048576 | isobar: unknown flag '--max-payload'
1 | decompress /nonexistent/in /dev/null/out --max-inflight 8388608 | isobar: unknown flag '--max-inflight'
1 | decompress /nonexistent/in /dev/null/out --commit-every 4194304 | isobar: unknown flag '--commit-every'
1 | decompress /nonexistent/in /dev/null/out --max-connections 64 | isobar: unknown flag '--max-connections'
1 | decompress /nonexistent/in /dev/null/out --slow-ms 250 | isobar: unknown flag '--slow-ms'
1 | decompress /nonexistent/in /dev/null/out --flight-recorder /dev/null/flight | isobar: unknown flag '--flight-recorder'
1 | decompress /nonexistent/in /dev/null/out --debug-endpoint | isobar: unknown flag '--debug-endpoint'
1 | decompress /nonexistent/in /dev/null/out --no-wal | isobar: unknown flag '--no-wal'
1 | decompress /nonexistent/in /dev/null/out --idle-timeout 0 | isobar: unknown flag '--idle-timeout'
1 | decompress /nonexistent/in /dev/null/out --frame-deadline 5 | isobar: unknown flag '--frame-deadline'
2 | analyze --width 8 /nonexistent/in --width 8 | isobar: /nonexistent/in: No such file or directory (os error 2)
2 | analyze --width 8 /nonexistent/in -w 8 | isobar: /nonexistent/in: No such file or directory (os error 2)
1 | analyze --width 8 /nonexistent/in --prefer speed | isobar: unknown flag '--prefer'
1 | analyze --width 8 /nonexistent/in --ratio-floor 1.1 | isobar: unknown flag '--ratio-floor'
1 | analyze --width 8 /nonexistent/in --codec zlib | isobar: unknown flag '--codec'
1 | analyze --width 8 /nonexistent/in --linearize row | isobar: unknown flag '--linearize'
1 | analyze --width 8 /nonexistent/in --level fast | isobar: unknown flag '--level'
2 | analyze --width 8 /nonexistent/in --tau 1.5 | isobar: /nonexistent/in: No such file or directory (os error 2)
1 | analyze --width 8 /nonexistent/in --chunk 1000 | isobar: unknown flag '--chunk'
1 | analyze --width 8 /nonexistent/in --parallel | isobar: unknown flag '--parallel'
1 | analyze --width 8 /nonexistent/in --stream | isobar: unknown flag '--stream'
1 | analyze --width 8 /nonexistent/in --quiet | isobar: unknown flag '--quiet'
1 | analyze --width 8 /nonexistent/in -q | isobar: unknown flag '-q'
1 | analyze --width 8 /nonexistent/in --skip-corrupt | isobar: unknown flag '--skip-corrupt'
1 | analyze --width 8 /nonexistent/in --no-verify | isobar: unknown flag '--no-verify'
1 | analyze --width 8 /nonexistent/in --kernels=scalar | isobar: unknown flag '--kernels=scalar'
1 | analyze --width 8 /nonexistent/in --stats=json | isobar: unknown flag '--stats=json'
1 | analyze --width 8 /nonexistent/in --trace /dev/null/t.json | isobar: unknown flag '--trace'
2 | analyze --width 8 /nonexistent/in --bits | isobar: /nonexistent/in: No such file or directory (os error 2)
1 | analyze --width 8 /nonexistent/in --name v | isobar: unknown flag '--name'
1 | analyze --width 8 /nonexistent/in --step 3 | isobar: unknown flag '--step'
1 | analyze --width 8 /nonexistent/in --shards 2 | isobar: unknown flag '--shards'
1 | analyze --width 8 /nonexistent/in --queue-depth 3 | isobar: unknown flag '--queue-depth'
1 | analyze --width 8 /nonexistent/in --addr 127.0.0.1:0 | isobar: unknown flag '--addr'
1 | analyze --width 8 /nonexistent/in --metrics 127.0.0.1:0 | isobar: unknown flag '--metrics'
1 | analyze --width 8 /nonexistent/in --max-payload 1048576 | isobar: unknown flag '--max-payload'
1 | analyze --width 8 /nonexistent/in --max-inflight 8388608 | isobar: unknown flag '--max-inflight'
1 | analyze --width 8 /nonexistent/in --commit-every 4194304 | isobar: unknown flag '--commit-every'
1 | analyze --width 8 /nonexistent/in --max-connections 64 | isobar: unknown flag '--max-connections'
1 | analyze --width 8 /nonexistent/in --slow-ms 250 | isobar: unknown flag '--slow-ms'
1 | analyze --width 8 /nonexistent/in --flight-recorder /dev/null/flight | isobar: unknown flag '--flight-recorder'
1 | analyze --width 8 /nonexistent/in --debug-endpoint | isobar: unknown flag '--debug-endpoint'
1 | analyze --width 8 /nonexistent/in --no-wal | isobar: unknown flag '--no-wal'
1 | analyze --width 8 /nonexistent/in --idle-timeout 0 | isobar: unknown flag '--idle-timeout'
1 | analyze --width 8 /nonexistent/in --frame-deadline 5 | isobar: unknown flag '--frame-deadline'
1 | info /nonexistent/in --width 8 | isobar: unexpected argument '--width'
1 | info /nonexistent/in -w 8 | isobar: unexpected argument '-w'
1 | info /nonexistent/in --prefer speed | isobar: unexpected argument '--prefer'
1 | info /nonexistent/in --ratio-floor 1.1 | isobar: unexpected argument '--ratio-floor'
1 | info /nonexistent/in --codec zlib | isobar: unexpected argument '--codec'
1 | info /nonexistent/in --linearize row | isobar: unexpected argument '--linearize'
1 | info /nonexistent/in --level fast | isobar: unexpected argument '--level'
1 | info /nonexistent/in --tau 1.5 | isobar: unexpected argument '--tau'
1 | info /nonexistent/in --chunk 1000 | isobar: unexpected argument '--chunk'
1 | info /nonexistent/in --parallel | isobar: unexpected argument '--parallel'
1 | info /nonexistent/in --stream | isobar: unexpected argument '--stream'
1 | info /nonexistent/in --quiet | isobar: unexpected argument '--quiet'
1 | info /nonexistent/in -q | isobar: unexpected argument '-q'
1 | info /nonexistent/in --skip-corrupt | isobar: unexpected argument '--skip-corrupt'
1 | info /nonexistent/in --no-verify | isobar: unexpected argument '--no-verify'
1 | info /nonexistent/in --kernels=scalar | isobar: unexpected argument '--kernels=scalar'
1 | info /nonexistent/in --stats=json | isobar: unexpected argument '--stats=json'
1 | info /nonexistent/in --trace /dev/null/t.json | isobar: unexpected argument '--trace'
1 | info /nonexistent/in --bits | isobar: unexpected argument '--bits'
1 | info /nonexistent/in --name v | isobar: unexpected argument '--name'
1 | info /nonexistent/in --step 3 | isobar: unexpected argument '--step'
1 | info /nonexistent/in --shards 2 | isobar: unexpected argument '--shards'
1 | info /nonexistent/in --queue-depth 3 | isobar: unexpected argument '--queue-depth'
1 | info /nonexistent/in --addr 127.0.0.1:0 | isobar: unexpected argument '--addr'
1 | info /nonexistent/in --metrics 127.0.0.1:0 | isobar: unexpected argument '--metrics'
1 | info /nonexistent/in --max-payload 1048576 | isobar: unexpected argument '--max-payload'
1 | info /nonexistent/in --max-inflight 8388608 | isobar: unexpected argument '--max-inflight'
1 | info /nonexistent/in --commit-every 4194304 | isobar: unexpected argument '--commit-every'
1 | info /nonexistent/in --max-connections 64 | isobar: unexpected argument '--max-connections'
1 | info /nonexistent/in --slow-ms 250 | isobar: unexpected argument '--slow-ms'
1 | info /nonexistent/in --flight-recorder /dev/null/flight | isobar: unexpected argument '--flight-recorder'
1 | info /nonexistent/in --debug-endpoint | isobar: unexpected argument '--debug-endpoint'
1 | info /nonexistent/in --no-wal | isobar: unexpected argument '--no-wal'
1 | info /nonexistent/in --idle-timeout 0 | isobar: unexpected argument '--idle-timeout'
1 | info /nonexistent/in --frame-deadline 5 | isobar: unexpected argument '--frame-deadline'
1 | fsck /nonexistent/in --width 8 | isobar: unexpected argument '--width'
1 | fsck /nonexistent/in -w 8 | isobar: unexpected argument '-w'
1 | fsck /nonexistent/in --prefer speed | isobar: unexpected argument '--prefer'
1 | fsck /nonexistent/in --ratio-floor 1.1 | isobar: unexpected argument '--ratio-floor'
1 | fsck /nonexistent/in --codec zlib | isobar: unexpected argument '--codec'
1 | fsck /nonexistent/in --linearize row | isobar: unexpected argument '--linearize'
1 | fsck /nonexistent/in --level fast | isobar: unexpected argument '--level'
1 | fsck /nonexistent/in --tau 1.5 | isobar: unexpected argument '--tau'
1 | fsck /nonexistent/in --chunk 1000 | isobar: unexpected argument '--chunk'
1 | fsck /nonexistent/in --parallel | isobar: unexpected argument '--parallel'
1 | fsck /nonexistent/in --stream | isobar: unexpected argument '--stream'
1 | fsck /nonexistent/in --quiet | isobar: unexpected argument '--quiet'
1 | fsck /nonexistent/in -q | isobar: unexpected argument '-q'
1 | fsck /nonexistent/in --skip-corrupt | isobar: unexpected argument '--skip-corrupt'
1 | fsck /nonexistent/in --no-verify | isobar: unexpected argument '--no-verify'
1 | fsck /nonexistent/in --kernels=scalar | isobar: unexpected argument '--kernels=scalar'
1 | fsck /nonexistent/in --stats=json | isobar: unexpected argument '--stats=json'
1 | fsck /nonexistent/in --trace /dev/null/t.json | isobar: unexpected argument '--trace'
1 | fsck /nonexistent/in --bits | isobar: unexpected argument '--bits'
1 | fsck /nonexistent/in --name v | isobar: unexpected argument '--name'
1 | fsck /nonexistent/in --step 3 | isobar: unexpected argument '--step'
1 | fsck /nonexistent/in --shards 2 | isobar: unexpected argument '--shards'
1 | fsck /nonexistent/in --queue-depth 3 | isobar: unexpected argument '--queue-depth'
1 | fsck /nonexistent/in --addr 127.0.0.1:0 | isobar: unexpected argument '--addr'
1 | fsck /nonexistent/in --metrics 127.0.0.1:0 | isobar: unexpected argument '--metrics'
1 | fsck /nonexistent/in --max-payload 1048576 | isobar: unexpected argument '--max-payload'
1 | fsck /nonexistent/in --max-inflight 8388608 | isobar: unexpected argument '--max-inflight'
1 | fsck /nonexistent/in --commit-every 4194304 | isobar: unexpected argument '--commit-every'
1 | fsck /nonexistent/in --max-connections 64 | isobar: unexpected argument '--max-connections'
1 | fsck /nonexistent/in --slow-ms 250 | isobar: unexpected argument '--slow-ms'
1 | fsck /nonexistent/in --flight-recorder /dev/null/flight | isobar: unexpected argument '--flight-recorder'
1 | fsck /nonexistent/in --debug-endpoint | isobar: unexpected argument '--debug-endpoint'
1 | fsck /nonexistent/in --no-wal | isobar: unexpected argument '--no-wal'
1 | fsck /nonexistent/in --idle-timeout 0 | isobar: unexpected argument '--idle-timeout'
1 | fsck /nonexistent/in --frame-deadline 5 | isobar: unexpected argument '--frame-deadline'
1 | salvage /nonexistent/in /dev/null/out --width 8 | isobar: unexpected argument '--width'
1 | salvage /nonexistent/in /dev/null/out -w 8 | isobar: unexpected argument '-w'
1 | salvage /nonexistent/in /dev/null/out --prefer speed | isobar: unexpected argument '--prefer'
1 | salvage /nonexistent/in /dev/null/out --ratio-floor 1.1 | isobar: unexpected argument '--ratio-floor'
1 | salvage /nonexistent/in /dev/null/out --codec zlib | isobar: unexpected argument '--codec'
1 | salvage /nonexistent/in /dev/null/out --linearize row | isobar: unexpected argument '--linearize'
1 | salvage /nonexistent/in /dev/null/out --level fast | isobar: unexpected argument '--level'
1 | salvage /nonexistent/in /dev/null/out --tau 1.5 | isobar: unexpected argument '--tau'
1 | salvage /nonexistent/in /dev/null/out --chunk 1000 | isobar: unexpected argument '--chunk'
1 | salvage /nonexistent/in /dev/null/out --parallel | isobar: unexpected argument '--parallel'
1 | salvage /nonexistent/in /dev/null/out --stream | isobar: unexpected argument '--stream'
1 | salvage /nonexistent/in /dev/null/out --quiet | isobar: unexpected argument '--quiet'
1 | salvage /nonexistent/in /dev/null/out -q | isobar: unexpected argument '-q'
1 | salvage /nonexistent/in /dev/null/out --skip-corrupt | isobar: unexpected argument '--skip-corrupt'
1 | salvage /nonexistent/in /dev/null/out --no-verify | isobar: unexpected argument '--no-verify'
1 | salvage /nonexistent/in /dev/null/out --kernels=scalar | isobar: unexpected argument '--kernels=scalar'
1 | salvage /nonexistent/in /dev/null/out --stats=json | isobar: unexpected argument '--stats=json'
1 | salvage /nonexistent/in /dev/null/out --trace /dev/null/t.json | isobar: unexpected argument '--trace'
1 | salvage /nonexistent/in /dev/null/out --bits | isobar: unexpected argument '--bits'
1 | salvage /nonexistent/in /dev/null/out --name v | isobar: unexpected argument '--name'
1 | salvage /nonexistent/in /dev/null/out --step 3 | isobar: unexpected argument '--step'
1 | salvage /nonexistent/in /dev/null/out --shards 2 | isobar: unexpected argument '--shards'
1 | salvage /nonexistent/in /dev/null/out --queue-depth 3 | isobar: unexpected argument '--queue-depth'
1 | salvage /nonexistent/in /dev/null/out --addr 127.0.0.1:0 | isobar: unexpected argument '--addr'
1 | salvage /nonexistent/in /dev/null/out --metrics 127.0.0.1:0 | isobar: unexpected argument '--metrics'
1 | salvage /nonexistent/in /dev/null/out --max-payload 1048576 | isobar: unexpected argument '--max-payload'
1 | salvage /nonexistent/in /dev/null/out --max-inflight 8388608 | isobar: unexpected argument '--max-inflight'
1 | salvage /nonexistent/in /dev/null/out --commit-every 4194304 | isobar: unexpected argument '--commit-every'
1 | salvage /nonexistent/in /dev/null/out --max-connections 64 | isobar: unexpected argument '--max-connections'
1 | salvage /nonexistent/in /dev/null/out --slow-ms 250 | isobar: unexpected argument '--slow-ms'
1 | salvage /nonexistent/in /dev/null/out --flight-recorder /dev/null/flight | isobar: unexpected argument '--flight-recorder'
1 | salvage /nonexistent/in /dev/null/out --debug-endpoint | isobar: unexpected argument '--debug-endpoint'
1 | salvage /nonexistent/in /dev/null/out --no-wal | isobar: unexpected argument '--no-wal'
1 | salvage /nonexistent/in /dev/null/out --idle-timeout 0 | isobar: unexpected argument '--idle-timeout'
1 | salvage /nonexistent/in /dev/null/out --frame-deadline 5 | isobar: unexpected argument '--frame-deadline'
2 | store put /dev/null/store /nonexistent/in --name v --step 0 --width 8 --width 8 | isobar: /nonexistent/in: No such file or directory (os error 2)
2 | store put /dev/null/store /nonexistent/in --name v --step 0 --width 8 -w 8 | isobar: /nonexistent/in: No such file or directory (os error 2)
1 | store put /dev/null/store /nonexistent/in --name v --step 0 --width 8 --prefer speed | isobar: unknown flag '--prefer'
1 | store put /dev/null/store /nonexistent/in --name v --step 0 --width 8 --ratio-floor 1.1 | isobar: unknown flag '--ratio-floor'
1 | store put /dev/null/store /nonexistent/in --name v --step 0 --width 8 --codec zlib | isobar: unknown flag '--codec'
1 | store put /dev/null/store /nonexistent/in --name v --step 0 --width 8 --linearize row | isobar: unknown flag '--linearize'
1 | store put /dev/null/store /nonexistent/in --name v --step 0 --width 8 --level fast | isobar: unknown flag '--level'
1 | store put /dev/null/store /nonexistent/in --name v --step 0 --width 8 --tau 1.5 | isobar: unknown flag '--tau'
1 | store put /dev/null/store /nonexistent/in --name v --step 0 --width 8 --chunk 1000 | isobar: unknown flag '--chunk'
1 | store put /dev/null/store /nonexistent/in --name v --step 0 --width 8 --parallel | isobar: unknown flag '--parallel'
1 | store put /dev/null/store /nonexistent/in --name v --step 0 --width 8 --stream | isobar: unknown flag '--stream'
1 | store put /dev/null/store /nonexistent/in --name v --step 0 --width 8 --quiet | isobar: unknown flag '--quiet'
1 | store put /dev/null/store /nonexistent/in --name v --step 0 --width 8 -q | isobar: unknown flag '-q'
1 | store put /dev/null/store /nonexistent/in --name v --step 0 --width 8 --skip-corrupt | isobar: unknown flag '--skip-corrupt'
1 | store put /dev/null/store /nonexistent/in --name v --step 0 --width 8 --no-verify | isobar: '--no-verify' does not apply to 'store put'
1 | store put /dev/null/store /nonexistent/in --name v --step 0 --width 8 --kernels=scalar | isobar: unknown flag '--kernels=scalar'
1 | store put /dev/null/store /nonexistent/in --name v --step 0 --width 8 --stats=json | isobar: unknown flag '--stats=json'
1 | store put /dev/null/store /nonexistent/in --name v --step 0 --width 8 --trace /dev/null/t.json | isobar: unknown flag '--trace'
1 | store put /dev/null/store /nonexistent/in --name v --step 0 --width 8 --bits | isobar: unknown flag '--bits'
2 | store put /dev/null/store /nonexistent/in --name v --step 0 --width 8 --name v | isobar: /nonexistent/in: No such file or directory (os error 2)
2 | store put /dev/null/store /nonexistent/in --name v --step 0 --width 8 --step 3 | isobar: /nonexistent/in: No such file or directory (os error 2)
2 | store put /dev/null/store /nonexistent/in --name v --step 0 --width 8 --shards 2 | isobar: /nonexistent/in: No such file or directory (os error 2)
2 | store put /dev/null/store /nonexistent/in --name v --step 0 --width 8 --queue-depth 3 | isobar: /nonexistent/in: No such file or directory (os error 2)
1 | store put /dev/null/store /nonexistent/in --name v --step 0 --width 8 --addr 127.0.0.1:0 | isobar: unknown flag '--addr'
1 | store put /dev/null/store /nonexistent/in --name v --step 0 --width 8 --metrics 127.0.0.1:0 | isobar: unknown flag '--metrics'
1 | store put /dev/null/store /nonexistent/in --name v --step 0 --width 8 --max-payload 1048576 | isobar: unknown flag '--max-payload'
1 | store put /dev/null/store /nonexistent/in --name v --step 0 --width 8 --max-inflight 8388608 | isobar: unknown flag '--max-inflight'
1 | store put /dev/null/store /nonexistent/in --name v --step 0 --width 8 --commit-every 4194304 | isobar: unknown flag '--commit-every'
1 | store put /dev/null/store /nonexistent/in --name v --step 0 --width 8 --max-connections 64 | isobar: unknown flag '--max-connections'
1 | store put /dev/null/store /nonexistent/in --name v --step 0 --width 8 --slow-ms 250 | isobar: unknown flag '--slow-ms'
1 | store put /dev/null/store /nonexistent/in --name v --step 0 --width 8 --flight-recorder /dev/null/flight | isobar: unknown flag '--flight-recorder'
1 | store put /dev/null/store /nonexistent/in --name v --step 0 --width 8 --debug-endpoint | isobar: unknown flag '--debug-endpoint'
1 | store put /dev/null/store /nonexistent/in --name v --step 0 --width 8 --no-wal | isobar: unknown flag '--no-wal'
1 | store put /dev/null/store /nonexistent/in --name v --step 0 --width 8 --idle-timeout 0 | isobar: unknown flag '--idle-timeout'
1 | store put /dev/null/store /nonexistent/in --name v --step 0 --width 8 --frame-deadline 5 | isobar: unknown flag '--frame-deadline'
1 | store get /dev/null/store /dev/null/out --name v --step 0 --width 8 | isobar: '--width' does not apply to 'store get'
1 | store get /dev/null/store /dev/null/out --name v --step 0 -w 8 | isobar: '--width' does not apply to 'store get'
1 | store get /dev/null/store /dev/null/out --name v --step 0 --prefer speed | isobar: unknown flag '--prefer'
1 | store get /dev/null/store /dev/null/out --name v --step 0 --ratio-floor 1.1 | isobar: unknown flag '--ratio-floor'
1 | store get /dev/null/store /dev/null/out --name v --step 0 --codec zlib | isobar: unknown flag '--codec'
1 | store get /dev/null/store /dev/null/out --name v --step 0 --linearize row | isobar: unknown flag '--linearize'
1 | store get /dev/null/store /dev/null/out --name v --step 0 --level fast | isobar: unknown flag '--level'
1 | store get /dev/null/store /dev/null/out --name v --step 0 --tau 1.5 | isobar: unknown flag '--tau'
1 | store get /dev/null/store /dev/null/out --name v --step 0 --chunk 1000 | isobar: unknown flag '--chunk'
1 | store get /dev/null/store /dev/null/out --name v --step 0 --parallel | isobar: unknown flag '--parallel'
1 | store get /dev/null/store /dev/null/out --name v --step 0 --stream | isobar: unknown flag '--stream'
1 | store get /dev/null/store /dev/null/out --name v --step 0 --quiet | isobar: unknown flag '--quiet'
1 | store get /dev/null/store /dev/null/out --name v --step 0 -q | isobar: unknown flag '-q'
1 | store get /dev/null/store /dev/null/out --name v --step 0 --skip-corrupt | isobar: unknown flag '--skip-corrupt'
2 | store get /dev/null/store /dev/null/out --name v --step 0 --no-verify | isobar: /dev/null/store: store I/O error: Not a directory (os error 20)
1 | store get /dev/null/store /dev/null/out --name v --step 0 --kernels=scalar | isobar: unknown flag '--kernels=scalar'
1 | store get /dev/null/store /dev/null/out --name v --step 0 --stats=json | isobar: unknown flag '--stats=json'
1 | store get /dev/null/store /dev/null/out --name v --step 0 --trace /dev/null/t.json | isobar: unknown flag '--trace'
1 | store get /dev/null/store /dev/null/out --name v --step 0 --bits | isobar: unknown flag '--bits'
2 | store get /dev/null/store /dev/null/out --name v --step 0 --name v | isobar: /dev/null/store: store I/O error: Not a directory (os error 20)
2 | store get /dev/null/store /dev/null/out --name v --step 0 --step 3 | isobar: /dev/null/store: store I/O error: Not a directory (os error 20)
1 | store get /dev/null/store /dev/null/out --name v --step 0 --shards 2 | isobar: '--shards' does not apply to 'store get'
1 | store get /dev/null/store /dev/null/out --name v --step 0 --queue-depth 3 | isobar: '--queue-depth' does not apply to 'store get'
1 | store get /dev/null/store /dev/null/out --name v --step 0 --addr 127.0.0.1:0 | isobar: unknown flag '--addr'
1 | store get /dev/null/store /dev/null/out --name v --step 0 --metrics 127.0.0.1:0 | isobar: unknown flag '--metrics'
1 | store get /dev/null/store /dev/null/out --name v --step 0 --max-payload 1048576 | isobar: unknown flag '--max-payload'
1 | store get /dev/null/store /dev/null/out --name v --step 0 --max-inflight 8388608 | isobar: unknown flag '--max-inflight'
1 | store get /dev/null/store /dev/null/out --name v --step 0 --commit-every 4194304 | isobar: unknown flag '--commit-every'
1 | store get /dev/null/store /dev/null/out --name v --step 0 --max-connections 64 | isobar: unknown flag '--max-connections'
1 | store get /dev/null/store /dev/null/out --name v --step 0 --slow-ms 250 | isobar: unknown flag '--slow-ms'
1 | store get /dev/null/store /dev/null/out --name v --step 0 --flight-recorder /dev/null/flight | isobar: unknown flag '--flight-recorder'
1 | store get /dev/null/store /dev/null/out --name v --step 0 --debug-endpoint | isobar: unknown flag '--debug-endpoint'
1 | store get /dev/null/store /dev/null/out --name v --step 0 --no-wal | isobar: unknown flag '--no-wal'
1 | store get /dev/null/store /dev/null/out --name v --step 0 --idle-timeout 0 | isobar: unknown flag '--idle-timeout'
1 | store get /dev/null/store /dev/null/out --name v --step 0 --frame-deadline 5 | isobar: unknown flag '--frame-deadline'
1 | store ls /dev/null/store --width 8 | isobar: '--width' does not apply to 'store ls'
1 | store ls /dev/null/store -w 8 | isobar: '--width' does not apply to 'store ls'
1 | store ls /dev/null/store --prefer speed | isobar: unknown flag '--prefer'
1 | store ls /dev/null/store --ratio-floor 1.1 | isobar: unknown flag '--ratio-floor'
1 | store ls /dev/null/store --codec zlib | isobar: unknown flag '--codec'
1 | store ls /dev/null/store --linearize row | isobar: unknown flag '--linearize'
1 | store ls /dev/null/store --level fast | isobar: unknown flag '--level'
1 | store ls /dev/null/store --tau 1.5 | isobar: unknown flag '--tau'
1 | store ls /dev/null/store --chunk 1000 | isobar: unknown flag '--chunk'
1 | store ls /dev/null/store --parallel | isobar: unknown flag '--parallel'
1 | store ls /dev/null/store --stream | isobar: unknown flag '--stream'
1 | store ls /dev/null/store --quiet | isobar: unknown flag '--quiet'
1 | store ls /dev/null/store -q | isobar: unknown flag '-q'
1 | store ls /dev/null/store --skip-corrupt | isobar: unknown flag '--skip-corrupt'
2 | store ls /dev/null/store --no-verify | isobar: /dev/null/store: store I/O error: Not a directory (os error 20)
1 | store ls /dev/null/store --kernels=scalar | isobar: unknown flag '--kernels=scalar'
1 | store ls /dev/null/store --stats=json | isobar: unknown flag '--stats=json'
1 | store ls /dev/null/store --trace /dev/null/t.json | isobar: unknown flag '--trace'
1 | store ls /dev/null/store --bits | isobar: unknown flag '--bits'
1 | store ls /dev/null/store --name v | isobar: '--name' does not apply to 'store ls'
1 | store ls /dev/null/store --step 3 | isobar: '--step' does not apply to 'store ls'
1 | store ls /dev/null/store --shards 2 | isobar: '--shards' does not apply to 'store ls'
1 | store ls /dev/null/store --queue-depth 3 | isobar: '--queue-depth' does not apply to 'store ls'
1 | store ls /dev/null/store --addr 127.0.0.1:0 | isobar: unknown flag '--addr'
1 | store ls /dev/null/store --metrics 127.0.0.1:0 | isobar: unknown flag '--metrics'
1 | store ls /dev/null/store --max-payload 1048576 | isobar: unknown flag '--max-payload'
1 | store ls /dev/null/store --max-inflight 8388608 | isobar: unknown flag '--max-inflight'
1 | store ls /dev/null/store --commit-every 4194304 | isobar: unknown flag '--commit-every'
1 | store ls /dev/null/store --max-connections 64 | isobar: unknown flag '--max-connections'
1 | store ls /dev/null/store --slow-ms 250 | isobar: unknown flag '--slow-ms'
1 | store ls /dev/null/store --flight-recorder /dev/null/flight | isobar: unknown flag '--flight-recorder'
1 | store ls /dev/null/store --debug-endpoint | isobar: unknown flag '--debug-endpoint'
1 | store ls /dev/null/store --no-wal | isobar: unknown flag '--no-wal'
1 | store ls /dev/null/store --idle-timeout 0 | isobar: unknown flag '--idle-timeout'
1 | store ls /dev/null/store --frame-deadline 5 | isobar: unknown flag '--frame-deadline'
1 | store compact /dev/null/store --width 8 | isobar: '--width' does not apply to 'store compact'
1 | store compact /dev/null/store -w 8 | isobar: '--width' does not apply to 'store compact'
1 | store compact /dev/null/store --prefer speed | isobar: unknown flag '--prefer'
1 | store compact /dev/null/store --ratio-floor 1.1 | isobar: unknown flag '--ratio-floor'
1 | store compact /dev/null/store --codec zlib | isobar: unknown flag '--codec'
1 | store compact /dev/null/store --linearize row | isobar: unknown flag '--linearize'
1 | store compact /dev/null/store --level fast | isobar: unknown flag '--level'
1 | store compact /dev/null/store --tau 1.5 | isobar: unknown flag '--tau'
1 | store compact /dev/null/store --chunk 1000 | isobar: unknown flag '--chunk'
1 | store compact /dev/null/store --parallel | isobar: unknown flag '--parallel'
1 | store compact /dev/null/store --stream | isobar: unknown flag '--stream'
1 | store compact /dev/null/store --quiet | isobar: unknown flag '--quiet'
1 | store compact /dev/null/store -q | isobar: unknown flag '-q'
1 | store compact /dev/null/store --skip-corrupt | isobar: unknown flag '--skip-corrupt'
1 | store compact /dev/null/store --no-verify | isobar: '--no-verify' does not apply to 'store compact'
1 | store compact /dev/null/store --kernels=scalar | isobar: unknown flag '--kernels=scalar'
1 | store compact /dev/null/store --stats=json | isobar: unknown flag '--stats=json'
1 | store compact /dev/null/store --trace /dev/null/t.json | isobar: unknown flag '--trace'
1 | store compact /dev/null/store --bits | isobar: unknown flag '--bits'
1 | store compact /dev/null/store --name v | isobar: '--name' does not apply to 'store compact'
1 | store compact /dev/null/store --step 3 | isobar: '--step' does not apply to 'store compact'
2 | store compact /dev/null/store --shards 2 | isobar: /dev/null/store: store I/O error: Not a directory (os error 20)
1 | store compact /dev/null/store --queue-depth 3 | isobar: '--queue-depth' does not apply to 'store compact'
1 | store compact /dev/null/store --addr 127.0.0.1:0 | isobar: unknown flag '--addr'
1 | store compact /dev/null/store --metrics 127.0.0.1:0 | isobar: unknown flag '--metrics'
1 | store compact /dev/null/store --max-payload 1048576 | isobar: unknown flag '--max-payload'
1 | store compact /dev/null/store --max-inflight 8388608 | isobar: unknown flag '--max-inflight'
1 | store compact /dev/null/store --commit-every 4194304 | isobar: unknown flag '--commit-every'
1 | store compact /dev/null/store --max-connections 64 | isobar: unknown flag '--max-connections'
1 | store compact /dev/null/store --slow-ms 250 | isobar: unknown flag '--slow-ms'
1 | store compact /dev/null/store --flight-recorder /dev/null/flight | isobar: unknown flag '--flight-recorder'
1 | store compact /dev/null/store --debug-endpoint | isobar: unknown flag '--debug-endpoint'
1 | store compact /dev/null/store --no-wal | isobar: unknown flag '--no-wal'
1 | store compact /dev/null/store --idle-timeout 0 | isobar: unknown flag '--idle-timeout'
1 | store compact /dev/null/store --frame-deadline 5 | isobar: unknown flag '--frame-deadline'
1 | serve /dev/null/store --width 8 | isobar: unknown flag '--width'
1 | serve /dev/null/store -w 8 | isobar: unknown flag '-w'
1 | serve /dev/null/store --prefer speed | isobar: unknown flag '--prefer'
1 | serve /dev/null/store --ratio-floor 1.1 | isobar: unknown flag '--ratio-floor'
1 | serve /dev/null/store --codec zlib | isobar: unknown flag '--codec'
1 | serve /dev/null/store --linearize row | isobar: unknown flag '--linearize'
1 | serve /dev/null/store --level fast | isobar: unknown flag '--level'
1 | serve /dev/null/store --tau 1.5 | isobar: unknown flag '--tau'
1 | serve /dev/null/store --chunk 1000 | isobar: unknown flag '--chunk'
1 | serve /dev/null/store --parallel | isobar: unknown flag '--parallel'
1 | serve /dev/null/store --stream | isobar: unknown flag '--stream'
1 | serve /dev/null/store --quiet | isobar: unknown flag '--quiet'
1 | serve /dev/null/store -q | isobar: unknown flag '-q'
1 | serve /dev/null/store --skip-corrupt | isobar: unknown flag '--skip-corrupt'
1 | serve /dev/null/store --no-verify | isobar: unknown flag '--no-verify'
1 | serve /dev/null/store --kernels=scalar | isobar: unknown flag '--kernels=scalar'
1 | serve /dev/null/store --stats=json | isobar: unknown flag '--stats=json'
1 | serve /dev/null/store --trace /dev/null/t.json | isobar: unknown flag '--trace'
1 | serve /dev/null/store --bits | isobar: unknown flag '--bits'
1 | serve /dev/null/store --name v | isobar: unknown flag '--name'
1 | serve /dev/null/store --step 3 | isobar: unknown flag '--step'
2 | serve /dev/null/store --shards 2 | isobar: /dev/null/store: serve store error: store I/O error: Not a directory (os error 20)
2 | serve /dev/null/store --queue-depth 3 | isobar: /dev/null/store: serve store error: store I/O error: Not a directory (os error 20)
2 | serve /dev/null/store --addr 127.0.0.1:0 | isobar: /dev/null/store: serve store error: store I/O error: Not a directory (os error 20)
2 | serve /dev/null/store --metrics 127.0.0.1:0 | isobar: /dev/null/store: serve store error: store I/O error: Not a directory (os error 20)
2 | serve /dev/null/store --max-payload 1048576 | isobar: /dev/null/store: serve store error: store I/O error: Not a directory (os error 20)
2 | serve /dev/null/store --max-inflight 8388608 | isobar: /dev/null/store: serve store error: store I/O error: Not a directory (os error 20)
2 | serve /dev/null/store --commit-every 4194304 | isobar: /dev/null/store: serve store error: store I/O error: Not a directory (os error 20)
2 | serve /dev/null/store --max-connections 64 | isobar: /dev/null/store: serve store error: store I/O error: Not a directory (os error 20)
2 | serve /dev/null/store --slow-ms 250 | isobar: /dev/null/store: serve store error: store I/O error: Not a directory (os error 20)
2 | serve /dev/null/store --flight-recorder /dev/null/flight | isobar: /dev/null/store: serve store error: store I/O error: Not a directory (os error 20)
2 | serve /dev/null/store --no-wal | isobar: /dev/null/store: serve store error: store I/O error: Not a directory (os error 20)
2 | serve /dev/null/store --idle-timeout 0 | isobar: /dev/null/store: serve store error: store I/O error: Not a directory (os error 20)
2 | serve /dev/null/store --frame-deadline 5 | isobar: /dev/null/store: serve store error: store I/O error: Not a directory (os error 20)
1 | --help | isobar: 
1 | -h | isobar: 
1 | help | isobar: 
1 | store put | isobar: store put requires DIR and IN paths
1 | store get /dev/null/store /dev/null/out --step 0 | isobar: store get requires --name
1 | store get /dev/null/store /dev/null/out --name v --step x | isobar: --step: invalid digit found in string
1 | store put /dev/null/store /nonexistent/in --name v --step 0 --width 8 --queue-depth 0 | isobar: --queue-depth must be positive
1 | store put /dev/null/store /nonexistent/in --name v --step 0 --width 0 | isobar: --width must be in 1..=64, got 0
1 | store put /dev/null/store /nonexistent/in --name v --step 0 -w 65 | isobar: --width must be in 1..=64, got 65
1 | store put /dev/null/store /nonexistent/in --name v --step -1 --width 8 | isobar: --step: invalid digit found in string
1 | store compact /dev/null/store --shards 0 | isobar: --shards must be positive
1 | store compact /dev/null/store --shards x | isobar: --shards: invalid digit found in string
1 | store compact /dev/null/store b | isobar: store compact requires exactly one DIR path
1 | store ls | isobar: store ls requires exactly one DIR path
1 | store get /dev/null/store --name v --step 0 | isobar: store get requires DIR and OUT paths
1 | compress --width x /nonexistent/in /dev/null/out | isobar: --width: invalid digit found in string
1 | compress --width 8 --chunk 0 /nonexistent/in /dev/null/out | isobar: --chunk must be positive
1 | compress --width 8 --chunk x /nonexistent/in /dev/null/out | isobar: --chunk: invalid digit found in string
1 | compress --width 8 --tau nan /nonexistent/in /dev/null/out | isobar: --tau must be in (0, 256]
1 | compress --width 8 --tau 300 /nonexistent/in /dev/null/out | isobar: --tau must be in (0, 256]
1 | compress --width 8 --tau x /nonexistent/in /dev/null/out | isobar: --tau: invalid float literal
1 | compress --width 8 --ratio-floor x /nonexistent/in /dev/null/out | isobar: --ratio-floor: invalid float literal
2 | compress --width 8 --ratio-floor nan /nonexistent/in /dev/null/out | isobar: /nonexistent/in: No such file or directory (os error 2)
2 | compress --width 8 --ratio-floor inf /nonexistent/in /dev/null/out | isobar: /nonexistent/in: No such file or directory (os error 2)
2 | compress --width 8 --ratio-floor 1.1 --prefer ratio /nonexistent/in /dev/null/out | isobar: /nonexistent/in: No such file or directory (os error 2)
1 | compress --width 8 --codec lz4 /nonexistent/in /dev/null/out | isobar: --codec must be zlib|bzlib2, got 'lz4'
2 | compress --width 8 --codec deflate /nonexistent/in /dev/null/out | isobar: /nonexistent/in: No such file or directory (os error 2)
2 | compress --width 8 --codec bzip2 /nonexistent/in /dev/null/out | isobar: /nonexistent/in: No such file or directory (os error 2)
1 | compress --width 8 --linearize diagonal /nonexistent/in /dev/null/out | isobar: --linearize must be row|column, got 'diagonal'
1 | compress --width 8 --level max /nonexistent/in /dev/null/out | isobar: --level must be fast|default|best, got 'max'
1 | compress --width 8 --prefer /nonexistent/in /dev/null/out | isobar: --prefer must be speed|ratio, got '/nonexistent/in'
1 | compress --width 8 --stats= /nonexistent/in /dev/null/out | isobar: --stats must be table|json|prometheus, got ''
2 | compress --width 8 --stats=prometheus /nonexistent/in /dev/null/out | isobar: /nonexistent/in: No such file or directory (os error 2)
1 | compress --width 8 --kernels /nonexistent/in /dev/null/out | isobar: unknown flag '--kernels'
1 | compress --width 8 --kernels scalar /nonexistent/in /dev/null/out | isobar: unknown flag '--kernels'
1 | compress --width 8 --kernels= /nonexistent/in /dev/null/out | isobar: --kernels must be scalar|auto, got ''
1 | compress --width=8 /nonexistent/in /dev/null/out | isobar: unknown flag '--width=8'
1 | compress --quiet=1 --width 8 /nonexistent/in /dev/null/out | isobar: unknown flag '--quiet=1'
1 | compress --width 8 - /nonexistent/in /dev/null/out | isobar: unknown flag '-'
2 | compress --width 0 --width 8 /nonexistent/in /dev/null/out | isobar: /nonexistent/in: No such file or directory (os error 2)
1 | compress --width 8 --width | isobar: --width requires a value
1 | compress --width 8 /nonexistent/in /dev/null/out --prefer | isobar: --prefer requires a value
1 | compress --width 8 --trace | isobar: --trace requires a value
2 | compress --width 8 --stream --stream /nonexistent/in /dev/null/out | isobar: /nonexistent/in: No such file or directory (os error 2)
1 | decompress /nonexistent/in /dev/null/out --bogus | isobar: unknown flag '--bogus'
1 | decompress /nonexistent/in | isobar: decompress requires exactly IN and OUT paths
1 | decompress | isobar: decompress requires exactly IN and OUT paths
1 | decompress /nonexistent/in /dev/null/out --stats=csv | isobar: --stats must be table|json|prometheus, got 'csv'
1 | decompress /nonexistent/in /dev/null/out --kernels=avx512 | isobar: --kernels must be scalar|auto, got 'avx512'
1 | analyze --width 8 /nonexistent/in b | isobar: analyze requires exactly one IN path
1 | analyze --width 8 | isobar: analyze requires exactly one IN path
2 | analyze -w 8 /nonexistent/in | isobar: /nonexistent/in: No such file or directory (os error 2)
1 | analyze --width x /nonexistent/in | isobar: --width: invalid digit found in string
2 | analyze --width 0 /nonexistent/in | isobar: /nonexistent/in: No such file or directory (os error 2)
2 | analyze --width 65 /nonexistent/in | isobar: /nonexistent/in: No such file or directory (os error 2)
2 | analyze --width 8 --tau 0 /nonexistent/in | isobar: /nonexistent/in: No such file or directory (os error 2)
2 | analyze --width 8 --tau nan /nonexistent/in | isobar: /nonexistent/in: No such file or directory (os error 2)
2 | analyze --width 8 --tau 300 /nonexistent/in | isobar: /nonexistent/in: No such file or directory (os error 2)
2 | analyze --width 8 --tau 2 /nonexistent/in | isobar: /nonexistent/in: No such file or directory (os error 2)
1 | info | isobar: missing input path
1 | info /nonexistent/in b | isobar: unexpected argument 'b'
2 | info --frob | isobar: --frob: No such file or directory (os error 2)
2 | fsck --frob | isobar: --frob: No such file or directory (os error 2)
2 | salvage --frob /dev/null/out | isobar: --frob: No such file or directory (os error 2)
1 | salvage /nonexistent/in /dev/null/out c | isobar: unexpected argument 'c'
1 | salvage | isobar: missing input path
1 | serve /dev/null/store --addr | isobar: --addr requires a value
1 | serve /dev/null/store --shards x | isobar: --shards: invalid digit found in string
1 | serve /dev/null/store --shards 70000 | isobar: --shards: number too large to fit in target type
2 | serve /dev/null/store --max-payload 4294967295 | isobar: /dev/null/store: serve store error: store I/O error: Not a directory (os error 20)
1 | serve /dev/null/store --max-inflight x | isobar: --max-inflight: invalid digit found in string
1 | serve /dev/null/store --commit-every x | isobar: --commit-every: invalid digit found in string
2 | serve /dev/null/store --metrics 127.0.0.1:0 --debug-endpoint | isobar: /dev/null/store: serve store error: store I/O error: Not a directory (os error 20)
1 | serve /dev/null/store --frame-deadline x | isobar: --frame-deadline: invalid digit found in string
1 | serve /dev/null/store --max-connections x | isobar: --max-connections: invalid digit found in string
1 | serve /dev/null/store --flight-recorder | isobar: --flight-recorder requires a value
2 | serve /dev/null/store --shards 0 --shards 2 | isobar: /dev/null/store: serve store error: store I/O error: Not a directory (os error 20)
1 | serve /dev/null/store --idle-timeout -1 | isobar: --idle-timeout: invalid digit found in string"#;
