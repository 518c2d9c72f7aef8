//! Serve-side observability: the daemon's request ledger,
//! phase-attributed request timing, the flight recorder, and the
//! slow-request log.
//!
//! Every request the daemon dispatches carries one [`RequestObs`]: the
//! time it spent in each phase, its op, tenant, status and byte counts,
//! and the generation commit it triggered, if any. When the request
//! finishes, that record is folded once, under one lock, into the
//! daemon's [`ServeReport`]: the ledger that `/metrics`, `/debug/stats`,
//! the recent-request ring and [`Server::join`](crate::Server::join) all
//! read. Counts derive from the record (a put is counted because its
//! status is `Ok`), so no two surfaces can disagree, and the ledger does
//! not depend on the telemetry feature.
//!
//! * **Phases** — the [`Phase::SERVE`] sections of the request path
//!   (accept, header-parse, admission, payload-read, lock-wait,
//!   overlay, store-put/get, commit, write-response) accumulate
//!   nanoseconds into the request's [`RequestObs`]. One [`Span`]
//!   times each: its closing reading moves the ledger's boundary
//!   clock, and both readings go to the trace ring, so a
//!   flight-recorder dump shows the same decomposition, under the same
//!   names, on a timeline. `lock_wait` divided by total request time is
//!   the store-lock convoy share.
//! * **Histograms** — per-op and per-tenant HDR-style
//!   [`LatencyHistogram`]s record every request's wall time, always on,
//!   exported through `/metrics` and `/debug/stats`.
//!
//! The flight recorder keeps the daemon's trace rings warm
//! (`isobar_trace` is activated when a dump directory is configured)
//! and writes Chrome trace dumps on SIGUSR1, on panic, and — rate
//! limited — when a request exceeds the `--slow-ms` threshold. Slow
//! requests additionally append one JSON line each to `slow.jsonl`
//! with their full phase breakdown.

use crate::core::CommitOutcome;
use crate::protocol::{Opcode, Status};
use isobar::span::Span;
use isobar::telemetry::json::{self, JsonValue};
use isobar::telemetry::latency::LatencyHistogram;
use isobar::telemetry::Phase;
use isobar::TelemetrySnapshot;
use std::collections::VecDeque;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, Once};
use std::time::Instant;

/// Request ops with their own latency histogram, in `op_index` order.
pub const OP_NAMES: [&str; 4] = ["put", "get", "stat", "ls"];

/// Distinct tenants tracked with their own histogram before new ones
/// collapse into the `_other` bucket (bounds `/metrics` cardinality).
pub const MAX_TENANT_HISTOGRAMS: usize = 32;

/// Completed requests kept in the in-memory ring for `/debug/stats`.
pub const RECENT_REQUESTS: usize = 256;

/// Minimum spacing between slow-request flight dumps. The JSONL slow
/// log records *every* slow request; only the (expensive) trace dumps
/// are rate limited.
pub const SLOW_DUMP_INTERVAL_SECS: u64 = 5;

/// Whether a request of `total_nanos` wall time is slow under the
/// `--slow-ms` threshold: at or above it; never without one.
pub fn is_slow(total_nanos: u64, slow_ms: Option<u64>) -> bool {
    slow_ms.is_some_and(|ms| total_nanos >= ms.saturating_mul(1_000_000))
}

/// Histogram index for a request op.
fn op_index(opcode: Opcode) -> usize {
    match opcode {
        Opcode::Put => 0,
        Opcode::Get => 1,
        Opcode::Stat => 2,
        Opcode::Ls => 3,
    }
}

/// Stable lowercase name for a response status (slow-log and
/// `/debug/stats` vocabulary).
fn status_name(status: Status) -> &'static str {
    match status {
        Status::Ok => "ok",
        Status::Busy => "busy",
        Status::NotFound => "not_found",
        Status::BadRequest => "bad_request",
        Status::ServerError => "server_error",
        Status::ShuttingDown => "shutting_down",
    }
}

/// A `{"accept": N, ...}` object of per-phase nanoseconds.
fn phases_json(phase_nanos: &[u64; Phase::SERVE.len()]) -> JsonValue {
    json::object(
        Phase::SERVE
            .iter()
            .zip(phase_nanos)
            .map(|(phase, &nanos)| (phase.name(), nanos.into())),
    )
}

/// One request's record, threaded through the handlers and folded into
/// the [`ServeReport`] when the request finishes; the recent-request
/// ring keeps the last [`RECENT_REQUESTS`] of them.
///
/// Attribution is a *boundary clock*: `mark` is the end of the last
/// attributed stretch, and each phase charges everything from there to
/// its own end. Phases therefore tile the request — inter-phase
/// bookkeeping (dispatch, allocations, the instrumentation itself) is
/// charged to the phase it precedes instead of leaking into an
/// unattributed gap, which is what lets the slow log promise ≥95%
/// attribution even for microsecond-scale requests.
#[derive(Debug, Clone)]
pub struct RequestObs {
    /// Nanoseconds attributed to each serve phase, indexed by
    /// `Phase as usize`.
    pub phase_nanos: [u64; Phase::SERVE.len()],
    /// The request's op, once its header decoded.
    pub op: Option<Opcode>,
    /// Tenant the request named (empty for the default tenant).
    pub tenant: String,
    /// The status the daemon answered (or, where the connection failed
    /// while draining a rejected payload, meant to answer); `None` when
    /// the connection failed before the daemon chose one.
    pub status: Option<Status>,
    /// Payload bytes a successful put stored or a successful get
    /// returned.
    pub bytes: u64,
    /// Frame bytes the put appended (and fsynced) to the write-ahead
    /// journal.
    pub wal_bytes: u64,
    /// The generation commit this request triggered; the ledger takes
    /// it when the request is folded in. Boxed so the recent-request
    /// ring stays small.
    pub commit: Option<Box<CommitOutcome>>,
    /// Wall time of the whole request, nanoseconds, set when it
    /// finishes.
    pub total_nanos: u64,
    /// The request's first byte: the one reading its wall time, its
    /// frame deadline and its first phase all measure from.
    pub start: Instant,
    /// End of the last attributed stretch.
    mark: Instant,
}

impl Default for RequestObs {
    fn default() -> Self {
        let start = Instant::now();
        RequestObs {
            phase_nanos: [0; Phase::SERVE.len()],
            op: None,
            tenant: String::new(),
            status: None,
            bytes: 0,
            wal_bytes: 0,
            commit: None,
            total_nanos: 0,
            start,
            mark: start,
        }
    }
}

impl RequestObs {
    /// Fresh accumulator: `start` and the boundary clock are one
    /// reading, taken now, so construct it at the request's first byte.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stamp the wall time: from [`RequestObs::start`] to now, plus the
    /// accept hand-off, which happened before the first byte arrived.
    pub fn finish(&mut self) {
        self.total_nanos = (self.start.elapsed().as_nanos() as u64)
            .saturating_add(self.phase_nanos[Phase::Accept as usize]);
    }

    /// Add pre-measured time to a phase without touching the boundary
    /// clock (the accept hand-off, measured on the accept thread).
    #[inline]
    pub fn add(&mut self, phase: Phase, nanos: u64) {
        self.phase_nanos[phase as usize] = self.phase_nanos[phase as usize].saturating_add(nanos);
    }

    /// Run `f` as `phase`, timed by one [`Span`]: the ring gets the
    /// span's two readings, which bracket `f` tightly for the timeline;
    /// the phase is charged everything from the last boundary to the
    /// closing reading, which becomes the next boundary.
    #[inline]
    pub fn time<T>(&mut self, phase: Phase, f: impl FnOnce() -> T) -> T {
        let span = Span::open(phase, isobar::trace::NO_CHUNK);
        let out = f();
        let (_, end) = span.close();
        self.add(phase, end.duration_since(self.mark).as_nanos() as u64);
        self.mark = end;
        out
    }

    /// Nanoseconds attributed across all phases.
    pub fn attributed_nanos(&self) -> u64 {
        self.phase_nanos
            .iter()
            .fold(0u64, |a, &b| a.saturating_add(b))
    }

    /// The record as one JSON object (a slow-log line, a
    /// `recent_requests` entry). A request that ended without a status
    /// reads `"aborted"`.
    pub fn to_json(&self) -> JsonValue {
        let op = self.op.map_or("invalid", |op| OP_NAMES[op_index(op)]);
        json::object([
            ("op", op.into()),
            ("tenant", self.tenant.as_str().into()),
            ("status", self.status.map_or("aborted", status_name).into()),
            ("total_nanos", self.total_nanos.into()),
            ("attributed_nanos", self.attributed_nanos().into()),
            ("phases", phases_json(&self.phase_nanos)),
        ])
    }
}

/// The daemon's request ledger: every count and time it keeps, in one
/// record behind one lock. Each finished request is folded in once;
/// `/metrics`, `/debug/stats` and the report [`Server::join`]
/// returns all read it.
///
/// [`Server::join`]: crate::Server::join
#[derive(Debug, Clone, Default)]
pub struct ServeReport {
    /// Connections accepted.
    pub connections: u64,
    /// Requests with a well-formed header that were dispatched.
    pub requests: u64,
    /// Successful puts.
    pub puts: u64,
    /// Successful gets.
    pub gets: u64,
    /// Requests rejected by admission control (connection or byte
    /// budget).
    pub busy_rejected: u64,
    /// Malformed frames rejected with [`Status::BadRequest`].
    pub protocol_errors: u64,
    /// Lookups that answered [`Status::NotFound`].
    pub not_found: u64,
    /// Payload bytes accepted by successful puts.
    pub put_bytes: u64,
    /// Payload bytes returned by successful gets.
    pub get_bytes: u64,
    /// Store generations committed (threshold rolls plus the final
    /// shutdown commit).
    pub commits: u64,
    /// Generation number of the last commit, if any put was committed.
    pub generation: Option<u64>,
    /// Records appended (and fsynced) to the write-ahead journal, one
    /// per journaled put.
    pub wal_appends: u64,
    /// Journal frame bytes appended (and fsynced) before their puts'
    /// acks.
    pub wal_bytes: u64,
    /// Write-ahead journal records replayed into the overlay when the
    /// daemon started (acked puts recovered from a previous crash).
    pub wal_replayed: u64,
    /// Journal files retired by generation commits.
    pub wal_truncations: u64,
    /// Requests past the `slow_ms` threshold.
    pub slow_requests: u64,
    /// Flight-recorder trace dumps written.
    pub flight_dumps: u64,
    /// Cumulative request wall time, nanoseconds.
    pub total_request_nanos: u64,
    /// Cumulative nanoseconds attributed to each serve phase, indexed
    /// by `Phase as usize`.
    pub phase_nanos: [u64; Phase::SERVE.len()],
    /// Pipeline telemetry merged from every generation commit.
    pub telemetry: TelemetrySnapshot,
    /// Per-op request-latency histograms, indexed by `op_index`.
    pub per_op: [LatencyHistogram; 4],
    /// Per-tenant histograms, first-come order, capped at
    /// [`MAX_TENANT_HISTOGRAMS`]; the overflow bucket is named
    /// `_other`.
    pub tenants: Vec<(String, LatencyHistogram)>,
    /// Most recent completed requests, oldest first.
    pub recent: VecDeque<RequestObs>,
}

impl ServeReport {
    /// Every counter under its stable name: `/metrics` renders each as
    /// `isobar_serve_<name>_total`, `/debug/stats` as a top-level key.
    pub fn counters(&self) -> [(&'static str, u64); 16] {
        [
            ("connections", self.connections),
            ("requests", self.requests),
            ("puts", self.puts),
            ("gets", self.gets),
            ("busy_rejected", self.busy_rejected),
            ("protocol_errors", self.protocol_errors),
            ("not_found", self.not_found),
            ("put_bytes", self.put_bytes),
            ("get_bytes", self.get_bytes),
            ("commits", self.commits),
            ("wal_appends", self.wal_appends),
            ("wal_bytes", self.wal_bytes),
            ("wal_replayed", self.wal_replayed),
            ("wal_truncations", self.wal_truncations),
            ("slow_requests", self.slow_requests),
            ("flight_dumps", self.flight_dumps),
        ]
    }

    /// Cumulative nanoseconds spent blocked on the store mutex — the
    /// numerator of the lock-convoy share.
    pub fn lock_wait_nanos(&self) -> u64 {
        self.phase_nanos[Phase::LockWait as usize]
    }

    /// Fraction of all request wall time spent blocked on the store
    /// mutex (0 when nothing was served).
    pub fn lock_wait_share(&self) -> f64 {
        if self.total_request_nanos == 0 {
            return 0.0;
        }
        self.lock_wait_nanos() as f64 / self.total_request_nanos as f64
    }

    /// Fold one finished, dispatched request in: its counts (from its
    /// op, status and bytes), the commit it triggered, its phase times,
    /// its histograms and its ring entry. `slow` says it crossed the
    /// slow threshold, `dumped` that its slow flight dump was written.
    pub(crate) fn fold(&mut self, mut request: RequestObs, slow: bool, dumped: bool) {
        self.requests += 1;
        match (request.op, request.status) {
            (Some(Opcode::Put), Some(Status::Ok)) => {
                self.puts += 1;
                self.put_bytes += request.bytes;
            }
            (Some(Opcode::Get), Some(Status::Ok)) => {
                self.gets += 1;
                self.get_bytes += request.bytes;
            }
            (_, Some(Status::Busy)) => self.busy_rejected += 1,
            (_, Some(Status::BadRequest)) => self.protocol_errors += 1,
            (_, Some(Status::NotFound)) => self.not_found += 1,
            _ => {}
        }
        if request.wal_bytes > 0 {
            self.wal_appends += 1;
            self.wal_bytes += request.wal_bytes;
        }
        if let Some(outcome) = request.commit.take() {
            self.fold_commit(&outcome);
        }
        self.slow_requests += u64::from(slow);
        self.flight_dumps += u64::from(dumped);
        let total = request.total_nanos;
        if let Some(op) = request.op {
            self.per_op[op_index(op)].record(total);
        }
        let known = self.tenants.iter().any(|(t, _)| *t == request.tenant);
        let tenant = if known || self.tenants.len() < MAX_TENANT_HISTOGRAMS {
            request.tenant.as_str()
        } else {
            "_other"
        };
        let slot = match self.tenants.iter().position(|(t, _)| t == tenant) {
            Some(slot) => slot,
            None => {
                self.tenants
                    .push((tenant.to_string(), LatencyHistogram::new()));
                self.tenants.len() - 1
            }
        };
        self.tenants[slot].1.record(total);
        for (sum, &part) in self.phase_nanos.iter_mut().zip(&request.phase_nanos) {
            *sum = sum.saturating_add(part);
        }
        self.total_request_nanos = self.total_request_nanos.saturating_add(total);
        if self.recent.len() == RECENT_REQUESTS {
            self.recent.pop_front();
        }
        self.recent.push_back(request);
    }

    /// Count one generation commit and merge its pipeline telemetry.
    /// Requests fold in completion order, not commit order, so the
    /// generation keeps the highest one seen.
    pub(crate) fn fold_commit(&mut self, outcome: &CommitOutcome) {
        self.commits += 1;
        self.generation = self.generation.max(Some(outcome.generation));
        self.wal_truncations += outcome.wal_truncated;
        self.telemetry.merge(&outcome.telemetry);
    }

    /// Render `/metrics`: the merged pipeline snapshot, every counter as
    /// `isobar_serve_<name>_total`, the per-op and per-tenant
    /// request-duration histograms and the cumulative per-phase seconds.
    pub fn to_prometheus(&self) -> String {
        let mut out = self.telemetry.to_prometheus();
        for (name, value) in self.counters() {
            out.push_str(&format!(
                "# HELP isobar_serve_{name}_total Serve daemon counter {name}.\n\
                 # TYPE isobar_serve_{name}_total counter\n\
                 isobar_serve_{name}_total {value}\n"
            ));
        }
        out.push_str(
            "# HELP isobar_serve_request_duration_seconds Request wall time by op.\n\
             # TYPE isobar_serve_request_duration_seconds histogram\n",
        );
        for (op, hist) in OP_NAMES.iter().zip(&self.per_op) {
            hist.render_prometheus(
                &mut out,
                "isobar_serve_request_duration_seconds",
                &format!("op=\"{op}\""),
            );
        }
        if !self.tenants.is_empty() {
            out.push_str(
                "# HELP isobar_serve_tenant_request_duration_seconds Request wall time by tenant.\n\
                 # TYPE isobar_serve_tenant_request_duration_seconds histogram\n",
            );
            for (tenant, hist) in &self.tenants {
                // The text format's three label escapes: `\`, `"` and
                // newline.
                let tenant = tenant
                    .replace('\\', r"\\")
                    .replace('"', r#"\""#)
                    .replace('\n', r"\n");
                hist.render_prometheus(
                    &mut out,
                    "isobar_serve_tenant_request_duration_seconds",
                    &format!("tenant=\"{tenant}\""),
                );
            }
        }
        out.push_str(
            "# HELP isobar_serve_phase_seconds_total Cumulative request time by phase.\n\
             # TYPE isobar_serve_phase_seconds_total counter\n",
        );
        for phase in Phase::SERVE {
            out.push_str(&format!(
                "isobar_serve_phase_seconds_total{{phase=\"{}\"}} {:.9}\n",
                phase.name(),
                self.phase_nanos[phase as usize] as f64 / 1e9,
            ));
        }
        out
    }

    /// The ledger half of the `/debug/stats` JSON object, as ordered
    /// members: every counter, the generation, totals, phase
    /// breakdown, per-op and per-tenant histogram summaries, and the
    /// recent-request ring. The daemon puts its store gauges first.
    pub fn debug_json_members(&self) -> Vec<(&'static str, JsonValue)> {
        let ops = OP_NAMES.iter().zip(&self.per_op);
        let tenants = self.tenants.iter().map(|(t, h)| (t.as_str(), h.to_json()));
        let counters = self.counters().into_iter().map(|(k, v)| (k, v.into()));
        counters
            .chain([
                (
                    "generation",
                    self.generation.map_or(JsonValue::Null, JsonValue::from),
                ),
                ("total_request_nanos", self.total_request_nanos.into()),
                ("lock_wait_nanos", self.lock_wait_nanos().into()),
                ("phases", phases_json(&self.phase_nanos)),
                ("ops", json::object(ops.map(|(op, h)| (*op, h.to_json())))),
                ("tenants", json::object(tenants)),
                (
                    "recent_requests",
                    json::array(self.recent.iter().map(RequestObs::to_json)),
                ),
            ])
            .collect()
    }
}

static PANIC_DIR: Mutex<Option<PathBuf>> = Mutex::new(None);
static PANIC_HOOK: Once = Once::new();

/// Dump the flight recorder when any thread panics, chaining to the
/// previous hook (so the default backtrace still prints). The dump
/// directory is process-global and follows the most recent daemon;
/// installing is idempotent.
pub fn install_panic_dump(dir: &Path) {
    *PANIC_DIR.lock().unwrap_or_else(|e| e.into_inner()) = Some(dir.to_path_buf());
    PANIC_HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let dir = PANIC_DIR.lock().unwrap_or_else(|e| e.into_inner()).clone();
            if let Some(dir) = dir {
                let _ = dump_flight_trace(&dir, "panic");
            }
            previous(info);
        }));
    });
}

static DUMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Write the current contents of the trace rings as a Chrome trace
/// file `flight-<reason>-<seq>.trace.json` under `dir`. The calling
/// thread's ring is flushed first, so a slow request dumping from its
/// own handler thread always includes its own spans. Draining resets
/// the rings — each dump carries the window since the previous one.
pub fn dump_flight_trace(dir: &Path, reason: &str) -> std::io::Result<PathBuf> {
    isobar::trace::flush_thread();
    let trace = isobar::trace::drain();
    let json = trace.to_chrome_json();
    std::fs::create_dir_all(dir)?;
    let seq = DUMP_SEQ.fetch_add(1, Ordering::Relaxed);
    let path = dir.join(format!("flight-{reason}-{seq}.trace.json"));
    std::fs::write(&path, json)?;
    Ok(path)
}

/// The slow-request log (`slow.jsonl` under the flight-recorder
/// directory, created on first use) and the rate limit on
/// slow-triggered flight dumps. The mutex serializes appends across
/// handler threads.
#[derive(Debug, Default)]
pub struct SlowLog {
    /// The open log file, and when the last slow dump was due.
    state: Mutex<(Option<std::fs::File>, Option<Instant>)>,
}

impl SlowLog {
    /// Append `request` as one JSON line under `dir`. Returns whether a
    /// slow-triggered flight dump is due (at most one per
    /// [`SLOW_DUMP_INTERVAL_SECS`]).
    pub fn append(&self, dir: &Path, request: &RequestObs) -> bool {
        let mut guard = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let (file, last_dump) = &mut *guard;
        if file.is_none() {
            let _ = std::fs::create_dir_all(dir);
            *file = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(dir.join("slow.jsonl"))
                .ok();
        }
        if let Some(file) = file.as_mut() {
            let line = format!("{}\n", request.to_json());
            let _ = file.write_all(line.as_bytes());
        }
        let due = last_dump.is_none_or(|t| t.elapsed().as_secs() >= SLOW_DUMP_INTERVAL_SECS);
        if due {
            *last_dump = Some(Instant::now());
        }
        due
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(op: Opcode, tenant: &str, total_nanos: u64) -> RequestObs {
        RequestObs {
            op: Some(op),
            tenant: tenant.to_string(),
            status: Some(Status::Ok),
            total_nanos,
            ..RequestObs::new()
        }
    }

    #[test]
    fn phase_tables_are_consistent() {
        // `phase_nanos[Phase::X as usize]` is the phase's time, and the
        // array's sum the attributed total.
        let mut rec = RequestObs::new();
        for (i, p) in Phase::SERVE.iter().enumerate() {
            assert_eq!(*p as usize, i, "{}", p.name());
            rec.add(*p, 1 << i);
        }
        assert_eq!(rec.attributed_nanos(), (1 << Phase::SERVE.len()) - 1);
        let json = rec.to_json().to_string();
        for p in Phase::SERVE {
            let field = format!("\"{}\": {}", p.name(), 1u64 << p as usize);
            assert!(json.contains(&field), "{field}: {json}");
        }
    }

    #[test]
    fn phase_tiling_and_wall_time_share_one_origin() {
        let mut rec = RequestObs::new();
        rec.add(Phase::Accept, 700);
        rec.time(Phase::HeaderParse, || std::hint::black_box(1));
        rec.time(Phase::StorePut, || {
            (0..1000u64).map(std::hint::black_box).sum::<u64>()
        });
        // The tiled phases sum to the stretch from the first byte to
        // the last boundary, to the nanosecond.
        let tiled = rec.attributed_nanos() - 700;
        assert_eq!(tiled, (rec.mark - rec.start).as_nanos() as u64);
        rec.finish();
        assert!(rec.total_nanos >= rec.attributed_nanos(), "{rec:?}");
        assert!(rec.total_nanos >= 700 + tiled);
    }

    #[test]
    fn request_record_json_carries_every_phase() {
        let mut rec = request(Opcode::Put, "acme \"lab\"\n", 1000);
        rec.phase_nanos[Phase::LockWait as usize] = 400;
        let json = rec.to_json().to_string();
        assert!(json.contains("\"lock_wait\": 400"), "{json}");
        assert!(json.contains("\"attributed_nanos\": 400"), "{json}");
        let doc = json::parse(&json).unwrap();
        assert_eq!(
            doc.get("tenant").and_then(|t| t.as_str()),
            Some("acme \"lab\"\n")
        );
        for phase in Phase::SERVE {
            assert!(json.contains(phase.name()), "{}", phase.name());
        }
        rec.status = None;
        assert!(rec
            .to_json()
            .to_string()
            .contains("\"status\": \"aborted\""));
    }

    #[test]
    fn tenant_histograms_cap_with_other_bucket() {
        let mut ledger = ServeReport::default();
        for i in 0..MAX_TENANT_HISTOGRAMS + 10 {
            ledger.fold(
                request(Opcode::Get, &format!("tenant-{i}"), 1_000),
                false,
                false,
            );
        }
        // A tenant seen before the cap keeps its own histogram.
        ledger.fold(request(Opcode::Get, "tenant-0", 1_000), false, false);
        assert_eq!(ledger.tenants.len(), MAX_TENANT_HISTOGRAMS + 1);
        let other = ledger.tenants.iter().find(|(t, _)| t == "_other").unwrap();
        assert_eq!(other.1.count(), 10);
        assert_eq!(ledger.tenants[0].1.count(), 2);
    }

    #[test]
    fn tenant_labels_use_prometheus_escapes() {
        let mut ledger = ServeReport::default();
        ledger.fold(request(Opcode::Put, "a\"b\\c\nd", 1_000), false, false);
        let text = ledger.to_prometheus();
        let family = "isobar_serve_tenant_request_duration_seconds";
        let samples: Vec<&str> = text.lines().filter(|l| l.starts_with(family)).collect();
        // Ten `le` buckets, `+Inf`, `_sum` and `_count`: one line each.
        assert_eq!(samples.len(), 13, "{text}");
        for line in samples {
            assert!(line.contains(r#"{tenant="a\"b\\c\nd""#), "{line}");
            let (_, value) = line.rsplit_once(' ').unwrap();
            assert!(value.parse::<f64>().is_ok(), "{line}");
        }
    }

    #[test]
    fn slow_threshold_counts_and_rate_limits_dumps() {
        // Below the threshold: not slow; at it and above it: slow.
        assert!(!is_slow(10_000_000, Some(100)));
        assert!(!is_slow(99_999_999, Some(100)));
        assert!(is_slow(100_000_000, Some(100)));
        assert!(is_slow(200_000_000, Some(100)));
        assert!(is_slow(0, Some(0)));
        // No threshold, nothing is slow.
        assert!(!is_slow(u64::MAX, None));
        let dir = std::env::temp_dir().join(format!("isobar-slowlog-{}", std::process::id()));
        let log = SlowLog::default();
        let slow = request(Opcode::Put, "", 200);
        // The first slow request's dump is due; the next one, straight
        // after, is rate limited, but both are logged.
        assert!(log.append(&dir, &slow));
        assert!(!log.append(&dir, &slow));
        let text = std::fs::read_to_string(dir.join("slow.jsonl")).unwrap();
        assert_eq!(text.lines().count(), 2);
        let mut ledger = ServeReport::default();
        ledger.fold(slow.clone(), true, true);
        ledger.fold(slow.clone(), true, false);
        ledger.fold(slow, false, false);
        assert_eq!((ledger.slow_requests, ledger.flight_dumps), (2, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn generation_keeps_the_latest_commit_when_folds_arrive_out_of_order() {
        let commit = |generation| CommitOutcome {
            generation,
            telemetry: TelemetrySnapshot::default(),
            wal_truncated: 0,
        };
        let mut ledger = ServeReport::default();
        assert_eq!(ledger.generation, None);
        // Request B committed generation 8 but folds before request A,
        // which committed generation 7.
        for generation in [8, 7] {
            let mut req = request(Opcode::Put, "", 1_000);
            req.commit = Some(Box::new(commit(generation)));
            ledger.fold(req, false, false);
        }
        assert_eq!((ledger.commits, ledger.generation), (2, Some(8)));
        ledger.fold_commit(&commit(9));
        assert_eq!((ledger.commits, ledger.generation), (3, Some(9)));
    }

    #[test]
    fn recent_ring_is_bounded() {
        let mut ledger = ServeReport::default();
        for i in 0..RECENT_REQUESTS + 50 {
            ledger.fold(request(Opcode::Put, "", i as u64), false, false);
        }
        assert_eq!(ledger.recent.len(), RECENT_REQUESTS);
        // Oldest entries were evicted.
        assert_eq!(ledger.recent.front().unwrap().total_nanos, 50);
    }
}
