//! The daemon's observability surfaces through the real binary:
//! `isobar serve` with the flight recorder and the debug endpoint, one
//! put and one get over raw TCP, `/metrics` and `/debug/stats`, a
//! SIGUSR1 dump and a slow-request dump that are valid Chrome traces
//! (the slow one holding the put's `lock_wait` span), `slow.jsonl`
//! records that attribute their wall time to named phases, and after
//! SIGINT a restart on the same store that serves the key from the
//! committed generation.
//!
//! The request frames are built by hand from the tables in
//! docs/SERVE.md, not through the server crate's encoder, so a change
//! to the wire format fails here. Signals go through `/bin/kill`.

mod common;

use common::{Scratch, ISOBAR};
use isobar::telemetry::json::{self, JsonValue};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::mpsc::{self, Receiver};
use std::time::{Duration, Instant};

const PUT: u8 = 1;
const GET: u8 = 2;
const STAT: u8 = 3;
const DEADLINE: Duration = Duration::from_secs(30);

/// A request frame: the 19-byte `ISRQ` header, then tenant, name and
/// payload.
fn frame(op: u8, tenant: &str, name: &str, step: u32, width: u8, payload: &[u8]) -> Vec<u8> {
    let mut f = b"ISRQ".to_vec();
    f.extend([1, op]);
    f.extend((tenant.len() as u16).to_le_bytes());
    f.extend((name.len() as u16).to_le_bytes());
    f.extend(step.to_le_bytes());
    f.push(width);
    f.extend((payload.len() as u32).to_le_bytes());
    f.extend(tenant.as_bytes());
    f.extend(name.as_bytes());
    f.extend(payload);
    f
}

/// Send one frame; read the 11-byte `ISRP` header and its payload.
fn round_trip(s: &mut TcpStream, request: &[u8]) -> (u8, Vec<u8>) {
    s.write_all(request).unwrap();
    let mut header = [0u8; 11];
    s.read_exact(&mut header).unwrap();
    assert_eq!(&header[..4], b"ISRP", "{header:?}");
    let len = u32::from_le_bytes(header[6..10].try_into().unwrap());
    let mut payload = vec![0u8; len as usize];
    s.read_exact(&mut payload).unwrap();
    (header[5], payload)
}

/// 100 little-endian i64s, 0 through 99.
fn payload() -> Vec<u8> {
    (0..100i64).flat_map(i64::to_le_bytes).collect()
}

/// `GET path` over HTTP/1.0: the response head and body.
fn http_get(addr: &str, path: &str) -> (String, String) {
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(DEADLINE)).unwrap();
    write!(s, "GET {path} HTTP/1.0\r\n\r\n").unwrap();
    let mut text = String::new();
    s.read_to_string(&mut text).unwrap();
    let (head, body) = text.split_once("\r\n\r\n").expect("no end of headers");
    assert!(head.starts_with("HTTP/1.0 200 OK"), "GET {path}: {head}");
    (head.to_string(), body.to_string())
}

fn stats(metrics: &str) -> JsonValue {
    json::parse(&http_get(metrics, "/debug/stats").1).unwrap()
}

fn count(v: &JsonValue, key: &str) -> u64 {
    v.get(key)
        .and_then(JsonValue::as_u64)
        .unwrap_or_else(|| panic!("no count {key}"))
}

/// A running `isobar serve`, with its stderr lines on a channel.
struct Daemon {
    child: Child,
    stderr: Receiver<String>,
    addr: String,
    metrics: Option<String>,
}

impl Daemon {
    /// Start the daemon on ephemeral ports and read both addresses off
    /// its `serving DIR on ADDR (metrics on http://ADDR/metrics)` line.
    fn start(store: &str, flags: &[&str]) -> Daemon {
        let mut child = Command::new(ISOBAR)
            .args(["serve", store, "--addr", "127.0.0.1:0"])
            .args(flags)
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap();
        let (tx, stderr) = mpsc::channel();
        let pipe = BufReader::new(child.stderr.take().unwrap());
        std::thread::spawn(move || {
            for line in pipe.lines().map_while(Result::ok) {
                eprintln!("daemon: {line}");
                let _ = tx.send(line);
            }
        });
        let mut daemon = Daemon {
            child,
            stderr,
            addr: String::new(),
            metrics: None,
        };
        let line = daemon.wait_for_line("serving ");
        let (head, metrics) = match line.split_once(" (metrics on http://") {
            Some((head, rest)) => (head, rest.strip_suffix("/metrics)")),
            None => (line.as_str(), None),
        };
        daemon.addr = head.rsplit_once(" on ").unwrap().1.to_string();
        daemon.metrics = metrics.map(str::to_string);
        daemon
    }

    /// The next stderr line starting with `prefix`.
    fn wait_for_line(&mut self, prefix: &str) -> String {
        let deadline = Instant::now() + DEADLINE;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            match self.stderr.recv_timeout(left) {
                Ok(line) if line.starts_with(prefix) => return line,
                Ok(_) => {}
                Err(e) => panic!("no stderr line starting {prefix:?}: {e}"),
            }
        }
    }

    fn connect(&self) -> TcpStream {
        let s = TcpStream::connect(&self.addr).unwrap();
        s.set_read_timeout(Some(DEADLINE)).unwrap();
        s
    }

    fn signal(&self, name: &str) {
        let pid = self.child.id().to_string();
        let status = Command::new("/bin/kill")
            .args([name, &pid])
            .status()
            .unwrap();
        assert!(status.success(), "kill {name} {pid}: {status}");
    }

    /// Signal the daemon to stop and wait for it to exit.
    fn stop(mut self, signal: &str) -> ExitStatus {
        self.signal(signal);
        self.child.wait().unwrap()
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A Chrome trace file that `isobar::span::check_chrome_trace` accepts;
/// its text.
fn valid_trace(path: &std::path::Path) -> String {
    let text = std::fs::read_to_string(path).unwrap();
    if let Err(e) = isobar::span::check_chrome_trace(&text) {
        panic!("{}: {e}", path.display());
    }
    text
}

#[test]
fn flight_recorder_stats_and_a_committed_read_after_restart() {
    let dir = Scratch::new("serve");
    let (store, flight) = (dir.path("obs.store"), dir.path("flight"));
    std::fs::create_dir(&flight).unwrap();
    let flags = [
        "--metrics",
        "127.0.0.1:0",
        "--slow-ms",
        "0",
        "--flight-recorder",
        &flight,
        "--debug-endpoint",
    ];
    let mut daemon = Daemon::start(&store, &flags);
    let metrics = daemon.metrics.clone().expect("no metrics address");

    let mut s = daemon.connect();
    let (status, _) = round_trip(&mut s, &frame(PUT, "ci", "var0", 0, 8, &payload()));
    assert_eq!(status, 0, "put");
    let (status, body) = round_trip(&mut s, &frame(GET, "ci", "var0", 0, 8, b""));
    assert_eq!((status, body), (0, payload()), "get");
    drop(s);

    // A request reaches the ledger after its response is written: wait
    // until the put and the get are both folded in.
    let deadline = Instant::now() + DEADLINE;
    while count(&stats(&metrics), "requests") != 2 {
        assert!(
            Instant::now() < deadline,
            "the ledger never held 2 requests"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    let (head, text) = http_get(&metrics, "/metrics");
    assert!(
        head.to_ascii_lowercase()
            .contains("content-type: text/plain; version=0.0.4"),
        "{head}"
    );
    for family in [
        "isobar_serve_request_duration_seconds_bucket{op=\"put\",le=\"+Inf\"}",
        "isobar_serve_tenant_request_duration_seconds_bucket{tenant=\"ci\",le=\"+Inf\"}",
        "isobar_serve_phase_seconds_total{phase=\"lock_wait\"}",
    ] {
        assert!(text.contains(family), "/metrics has no {family}");
    }
    let stats = stats(&metrics);
    for key in [
        "requests",
        "puts",
        "gets",
        "generation",
        "overlay_bytes",
        "total_request_nanos",
        "slow_requests",
        "lock_wait_nanos",
        "phases",
        "ops",
        "tenants",
        "recent_requests",
    ] {
        assert!(stats.get(key).is_some(), "/debug/stats has no {key}");
    }
    assert!(count(&stats, "puts") >= 1 && count(&stats, "gets") >= 1);
    let recent = stats.get("recent_requests").and_then(JsonValue::as_array);
    assert!(!recent.unwrap().is_empty(), "no request records");
    // /metrics and /debug/stats render the same ledger.
    let scraped: Vec<&str> = text
        .lines()
        .filter_map(|l| l.strip_prefix("isobar_serve_requests_total "))
        .collect();
    assert_eq!(scraped, [count(&stats, "requests").to_string()]);

    daemon.signal("-USR1");
    let line = daemon.wait_for_line("flight recorder dumped to ");
    let dump = line.strip_prefix("flight recorder dumped to ").unwrap();
    assert!(dump.contains("flight-sigusr1-"), "{dump}");
    valid_trace(dump.as_ref());

    // Under --slow-ms 0 the first put dumps from its own handler
    // thread: that dump is valid too and holds the put's lock_wait
    // span, under the ledger's own phase name (a build without
    // telemetry records no spans).
    let slow_dumps: Vec<String> = std::fs::read_dir(&flight)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.to_string_lossy().contains("flight-slow-"))
        .map(|p| valid_trace(&p))
        .collect();
    assert!(!slow_dumps.is_empty(), "no slow dump despite --slow-ms 0");
    if isobar::trace::ENABLED {
        assert!(
            slow_dumps
                .iter()
                .any(|t| t.contains("\"name\": \"lock_wait\"")),
            "no lock_wait span in a slow dump"
        );
    }
    let log = std::fs::read_to_string(dir.path("flight/slow.jsonl")).unwrap();
    assert!(!log.is_empty(), "slow.jsonl is empty despite --slow-ms 0");
    for line in log.lines() {
        let record = json::parse(line).unwrap();
        let (attributed, total) = (
            count(&record, "attributed_nanos"),
            count(&record, "total_nanos"),
        );
        assert!(attributed as f64 <= total as f64 * 1.01, "{line}");
        let phases = match record.get("phases") {
            Some(JsonValue::Object(phases)) => phases,
            _ => panic!("no phases object: {line}"),
        };
        let sum: u64 = phases.iter().map(|(_, v)| v.as_u64().unwrap()).sum();
        assert_eq!(sum, attributed, "{line}");
    }

    let status = daemon.stop("-INT");
    assert!(status.success(), "SIGINT: {status}");

    // The final commit holds: a restart serves var0 from the store.
    let daemon = Daemon::start(&store, &[]);
    let mut s = daemon.connect();
    let (status, body) = round_trip(&mut s, &frame(GET, "ci", "var0", 0, 8, b""));
    assert_eq!((status, body), (0, payload()), "committed get");
    let (status, body) = round_trip(&mut s, &frame(STAT, "ci", "var0", 0, 8, b""));
    let line = String::from_utf8(body).unwrap();
    assert_eq!(status, 0, "{line}");
    assert!(line.contains("committed=true"), "{line}");
    assert!(
        line.contains(&format!("raw_len={} ", payload().len())),
        "{line}"
    );
    drop(s);
    let status = daemon.stop("-TERM");
    assert!(status.success(), "SIGTERM: {status}");
}
