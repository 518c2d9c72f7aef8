//! Serve-side observability: phase-attributed request timing, always-on
//! latency histograms, the flight recorder, and the `/debug/stats`
//! snapshot.
//!
//! Every request the daemon dispatches is timed twice over:
//!
//! * **Phases** — named sections of the request path (accept,
//!   header-parse, admission, payload-read, lock-wait, overlay,
//!   store-put/get, commit, write-response) accumulate nanoseconds into
//!   a per-request [`RequestObs`], and each phase also emits an
//!   `isobar_trace` span so a flight-recorder dump shows the same
//!   decomposition on a timeline. The cumulative per-phase totals are
//!   the scoreboard for de-convoying the store lock (ROADMAP item 1):
//!   `lock_wait` divided by total request time is the convoy share.
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

use isobar::telemetry::latency::LatencyHistogram;
use isobar::trace::TraceTag;
use std::collections::VecDeque;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, Once};
use std::time::Instant;

/// Request ops with their own latency histogram, indexed by
/// [`op_index`].
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

/// Histogram index for a request op.
pub fn op_index(opcode: crate::protocol::Opcode) -> usize {
    match opcode {
        crate::protocol::Opcode::Put => 0,
        crate::protocol::Opcode::Get => 1,
        crate::protocol::Opcode::Stat => 2,
        crate::protocol::Opcode::Ls => 3,
    }
}

/// Stable lowercase name for a response status (slow-log and
/// `/debug/stats` vocabulary).
pub fn status_name(status: crate::protocol::Status) -> &'static str {
    match status {
        crate::protocol::Status::Ok => "ok",
        crate::protocol::Status::Busy => "busy",
        crate::protocol::Status::NotFound => "not_found",
        crate::protocol::Status::BadRequest => "bad_request",
        crate::protocol::Status::ServerError => "server_error",
        crate::protocol::Status::ShuttingDown => "shutting_down",
    }
}

/// One named section of the request path. The discriminant indexes
/// [`RequestObs::phase_nanos`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum ServePhase {
    /// `accept(2)` returning to the handler thread starting (attributed
    /// to the connection's first request).
    Accept,
    /// Reading and decoding the request header and identifier fields.
    HeaderParse,
    /// The byte-budget admission decision for a put.
    Admission,
    /// Reading a put payload off the socket.
    PayloadRead,
    /// Blocking on the store mutex.
    LockWait,
    /// Read-your-writes overlay lookup or insert.
    Overlay,
    /// Sharded-store put (writer creation + pipeline submit).
    StorePut,
    /// Write-ahead journal append + fsync — the durability barrier a
    /// put's `Ok` waits on.
    WalFsync,
    /// Committed-store get / stat / ls scan.
    StoreGet,
    /// A store generation commit triggered by this request.
    Commit,
    /// Encoding and writing the response frame.
    WriteResponse,
}

impl ServePhase {
    /// Number of phases (array size).
    pub const COUNT: usize = 11;

    /// Every phase, in stable order.
    pub const ALL: [ServePhase; ServePhase::COUNT] = [
        ServePhase::Accept,
        ServePhase::HeaderParse,
        ServePhase::Admission,
        ServePhase::PayloadRead,
        ServePhase::LockWait,
        ServePhase::Overlay,
        ServePhase::StorePut,
        ServePhase::WalFsync,
        ServePhase::StoreGet,
        ServePhase::Commit,
        ServePhase::WriteResponse,
    ];

    /// Stable snake_case name (JSONL keys, Prometheus `phase` label).
    pub fn name(self) -> &'static str {
        match self {
            ServePhase::Accept => "accept",
            ServePhase::HeaderParse => "header_parse",
            ServePhase::Admission => "admission",
            ServePhase::PayloadRead => "payload_read",
            ServePhase::LockWait => "lock_wait",
            ServePhase::Overlay => "overlay",
            ServePhase::StorePut => "store_put",
            ServePhase::WalFsync => "wal_fsync",
            ServePhase::StoreGet => "store_get",
            ServePhase::Commit => "commit",
            ServePhase::WriteResponse => "write_response",
        }
    }

    /// The trace span tag emitted while this phase runs.
    pub fn trace_tag(self) -> TraceTag {
        match self {
            ServePhase::Accept => TraceTag::ServeAccept,
            ServePhase::HeaderParse => TraceTag::ServeHeaderParse,
            ServePhase::Admission => TraceTag::ServeAdmission,
            ServePhase::PayloadRead => TraceTag::ServePayloadRead,
            ServePhase::LockWait => TraceTag::ServeLockWait,
            ServePhase::Overlay => TraceTag::ServeOverlay,
            ServePhase::StorePut => TraceTag::ServeStorePut,
            ServePhase::WalFsync => TraceTag::ServeWalFsync,
            ServePhase::StoreGet => TraceTag::ServeStoreGet,
            ServePhase::Commit => TraceTag::ServeCommit,
            ServePhase::WriteResponse => TraceTag::ServeWriteResponse,
        }
    }
}

/// Per-request phase accumulator, threaded through the handlers like
/// the telemetry `Recorder`.
///
/// Attribution is a *boundary clock*: `mark` is the end of the last
/// attributed stretch, and each phase charges everything from there to
/// its own end. Phases therefore tile the request — inter-phase
/// bookkeeping (dispatch, allocations, the instrumentation itself) is
/// charged to the phase it precedes instead of leaking into an
/// unattributed gap, which is what lets the slow log promise ≥95%
/// attribution even for microsecond-scale requests.
#[derive(Debug)]
pub struct RequestObs {
    /// Nanoseconds attributed to each phase, indexed by
    /// `ServePhase as usize`.
    pub phase_nanos: [u64; ServePhase::COUNT],
    /// Histogram slot ([`op_index`]), or `usize::MAX` before dispatch.
    pub op: usize,
    /// Tenant the request named (empty for the default tenant).
    pub tenant: String,
    /// Final response status name (see [`status_name`]).
    pub status: &'static str,
    /// End of the last attributed stretch.
    mark: Instant,
}

impl Default for RequestObs {
    fn default() -> Self {
        RequestObs {
            phase_nanos: [0; ServePhase::COUNT],
            op: usize::MAX,
            tenant: String::new(),
            status: "ok",
            mark: Instant::now(),
        }
    }
}

impl RequestObs {
    /// Fresh accumulator; the boundary clock starts now, so construct
    /// it at the request's first byte.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add pre-measured time to a phase without touching the boundary
    /// clock (the accept hand-off, measured on the accept thread).
    #[inline]
    pub fn add(&mut self, phase: ServePhase, nanos: u64) {
        self.phase_nanos[phase as usize] = self.phase_nanos[phase as usize].saturating_add(nanos);
    }

    /// Charge everything since the last boundary to `phase` and move
    /// the boundary here.
    #[inline]
    pub fn charge(&mut self, phase: ServePhase) {
        let now = Instant::now();
        self.add(phase, now.duration_since(self.mark).as_nanos() as u64);
        self.mark = now;
    }

    /// Run `f` attributed to `phase`: one trace span, then a boundary
    /// charge. The span brackets `f` tightly for the timeline; the
    /// phase accounting additionally absorbs whatever ran since the
    /// previous boundary.
    #[inline]
    pub fn time<T>(&mut self, phase: ServePhase, f: impl FnOnce() -> T) -> T {
        let out = {
            let _span = isobar::trace::span(phase.trace_tag(), isobar::trace::NO_CHUNK);
            f()
        };
        self.charge(phase);
        out
    }

    /// [`RequestObs::time`] without the trace span, for sections that
    /// already emit their own (the commit path).
    #[inline]
    pub fn time_unspanned<T>(&mut self, phase: ServePhase, f: impl FnOnce() -> T) -> T {
        let out = f();
        self.charge(phase);
        out
    }

    /// Nanoseconds attributed across all phases.
    pub fn attributed_nanos(&self) -> u64 {
        self.phase_nanos
            .iter()
            .fold(0u64, |a, &b| a.saturating_add(b))
    }
}

/// One completed request, as kept in the recent-request ring and
/// written to the slow log.
#[derive(Debug, Clone)]
pub struct RequestRecord {
    /// Histogram slot of the request op (see [`op_index`]); out of
    /// range renders as `invalid`.
    pub op: usize,
    /// Tenant the request named.
    pub tenant: String,
    /// Response status name.
    pub status: &'static str,
    /// Wall time of the whole request, nanoseconds.
    pub total_nanos: u64,
    /// Per-phase attribution, indexed by `ServePhase as usize`.
    pub phase_nanos: [u64; ServePhase::COUNT],
}

impl RequestRecord {
    /// Op name (`put`/`get`/`stat`/`ls`, or `invalid`).
    pub fn op_name(&self) -> &'static str {
        OP_NAMES.get(self.op).copied().unwrap_or("invalid")
    }

    /// Serialize as one JSON object (one slow-log line, sans newline).
    pub fn to_json(&self) -> String {
        let attributed: u64 = self
            .phase_nanos
            .iter()
            .fold(0u64, |a, &b| a.saturating_add(b));
        let mut out = String::with_capacity(256);
        out.push_str(&format!(
            "{{\"op\": \"{}\", \"tenant\": \"{}\", \"status\": \"{}\", \
             \"total_nanos\": {}, \"attributed_nanos\": {}, \"phases\": {{",
            self.op_name(),
            escape_json(&self.tenant),
            self.status,
            self.total_nanos,
            attributed,
        ));
        for (i, phase) in ServePhase::ALL.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{}\": {}", phase.name(), self.phase_nanos[i]));
        }
        out.push_str("}}");
        out
    }
}

pub(crate) fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Mutable observability state, one per daemon, behind a mutex taken
/// once per request (the same discipline as the telemetry snapshot
/// merge).
#[derive(Debug, Default)]
pub struct ObsState {
    /// Per-op request-latency histograms, indexed by [`op_index`].
    pub per_op: [LatencyHistogram; 4],
    /// Per-tenant histograms, first-come order, capped at
    /// [`MAX_TENANT_HISTOGRAMS`]; the overflow bucket is named
    /// `_other`.
    pub tenants: Vec<(String, LatencyHistogram)>,
    /// Cumulative per-phase nanoseconds across every request.
    pub phase_nanos: [u64; ServePhase::COUNT],
    /// Cumulative request wall time, nanoseconds.
    pub total_request_nanos: u64,
    /// Requests past the slow threshold.
    pub slow_requests: u64,
    /// Flight-recorder dumps written.
    pub flight_dumps: u64,
    /// Most recent completed requests, oldest first.
    pub recent: VecDeque<RequestRecord>,
    /// Last slow-triggered dump, for rate limiting.
    pub last_slow_dump: Option<Instant>,
}

impl ObsState {
    /// Fold one completed request into the histograms, phase totals,
    /// and recent ring. Returns whether the request was slow (past
    /// `slow_nanos`) and whether a slow-triggered flight dump is due.
    pub fn record_request(
        &mut self,
        record: RequestRecord,
        slow_nanos: Option<u64>,
        dumps_enabled: bool,
    ) -> (bool, bool) {
        if record.op < OP_NAMES.len() {
            self.per_op[record.op].record(record.total_nanos);
        }
        match self.tenants.iter().position(|(t, _)| *t == record.tenant) {
            Some(i) => self.tenants[i].1.record(record.total_nanos),
            None if self.tenants.len() < MAX_TENANT_HISTOGRAMS => {
                let mut hist = LatencyHistogram::new();
                hist.record(record.total_nanos);
                self.tenants.push((record.tenant.clone(), hist));
            }
            None => match self.tenants.iter().position(|(t, _)| t == "_other") {
                Some(i) => self.tenants[i].1.record(record.total_nanos),
                None => {
                    let mut hist = LatencyHistogram::new();
                    hist.record(record.total_nanos);
                    self.tenants.push(("_other".to_string(), hist));
                }
            },
        }
        for (total, &part) in self.phase_nanos.iter_mut().zip(&record.phase_nanos) {
            *total = total.saturating_add(part);
        }
        self.total_request_nanos = self.total_request_nanos.saturating_add(record.total_nanos);
        let slow = slow_nanos.is_some_and(|t| record.total_nanos >= t);
        if self.recent.len() == RECENT_REQUESTS {
            self.recent.pop_front();
        }
        self.recent.push_back(record);
        let mut dump_due = false;
        if slow {
            self.slow_requests += 1;
            if dumps_enabled {
                let due = self
                    .last_slow_dump
                    .is_none_or(|t| t.elapsed().as_secs() >= SLOW_DUMP_INTERVAL_SECS);
                if due {
                    self.last_slow_dump = Some(Instant::now());
                    dump_due = true;
                }
            }
        }
        (slow, dump_due)
    }

    /// Append the observability metric families to a Prometheus
    /// exposition body: per-op and per-tenant request-duration
    /// histograms plus the cumulative per-phase seconds counters.
    pub fn render_prometheus(&self, out: &mut String) {
        out.push_str(
            "# HELP isobar_serve_request_duration_seconds Request wall time by op.\n\
             # TYPE isobar_serve_request_duration_seconds histogram\n",
        );
        for (op, hist) in OP_NAMES.iter().zip(&self.per_op) {
            hist.render_prometheus(
                out,
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
                hist.render_prometheus(
                    out,
                    "isobar_serve_tenant_request_duration_seconds",
                    &format!("tenant=\"{}\"", escape_json(tenant)),
                );
            }
        }
        out.push_str(
            "# HELP isobar_serve_phase_seconds_total Cumulative request time by phase.\n\
             # TYPE isobar_serve_phase_seconds_total counter\n",
        );
        for phase in ServePhase::ALL {
            out.push_str(&format!(
                "isobar_serve_phase_seconds_total{{phase=\"{}\"}} {:.9}\n",
                phase.name(),
                self.phase_nanos[phase as usize] as f64 / 1e9,
            ));
        }
    }

    /// Append the observability half of the `/debug/stats` JSON object:
    /// totals, phase breakdown, per-op and per-tenant histogram
    /// summaries, and the recent-request ring. Emits `"key": value`
    /// pairs without surrounding braces so the daemon can splice in its
    /// own fields (connections, overlay, backlog).
    pub fn write_debug_json(&self, out: &mut String) {
        out.push_str(&format!(
            "\"total_request_nanos\": {}, \"slow_requests\": {}, \"flight_dumps\": {}",
            self.total_request_nanos, self.slow_requests, self.flight_dumps
        ));
        out.push_str(", \"lock_wait_nanos\": ");
        out.push_str(&self.phase_nanos[ServePhase::LockWait as usize].to_string());
        out.push_str(", \"phases\": {");
        for (i, phase) in ServePhase::ALL.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{}\": {}", phase.name(), self.phase_nanos[i]));
        }
        out.push_str("}, \"ops\": {");
        for (i, (op, hist)) in OP_NAMES.iter().zip(&self.per_op).enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{op}\": "));
            hist.write_json(out);
        }
        out.push_str("}, \"tenants\": {");
        for (i, (tenant, hist)) in self.tenants.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{}\": ", escape_json(tenant)));
            hist.write_json(out);
        }
        out.push_str("}, \"recent_requests\": [");
        for (i, rec) in self.recent.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&rec.to_json());
        }
        out.push(']');
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

/// Append one record to the slow-request log (`slow.jsonl` under the
/// flight-recorder directory). Creates the file on first use. The
/// mutex serializes appends across handler threads.
#[derive(Debug, Default)]
pub struct SlowLog {
    file: Mutex<Option<std::fs::File>>,
}

impl SlowLog {
    /// Append `record` as one JSON line under `dir`.
    pub fn append(&self, dir: &Path, record: &RequestRecord) {
        let mut guard = self.file.lock().unwrap_or_else(|e| e.into_inner());
        if guard.is_none() {
            let _ = std::fs::create_dir_all(dir);
            *guard = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(dir.join("slow.jsonl"))
                .ok();
        }
        if let Some(file) = guard.as_mut() {
            let mut line = record.to_json();
            line.push('\n');
            let _ = file.write_all(line.as_bytes());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_tables_are_consistent() {
        for (i, p) in ServePhase::ALL.iter().enumerate() {
            assert_eq!(*p as usize, i, "{}", p.name());
        }
        let mut names: Vec<&str> = ServePhase::ALL.iter().map(|p| p.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ServePhase::COUNT);
    }

    #[test]
    fn request_record_json_carries_every_phase() {
        let mut rec = RequestRecord {
            op: 0,
            tenant: "acme \"lab\"".into(),
            status: "ok",
            total_nanos: 1000,
            phase_nanos: [0; ServePhase::COUNT],
        };
        rec.phase_nanos[ServePhase::LockWait as usize] = 400;
        let json = rec.to_json();
        assert!(json.contains("\"lock_wait\": 400"), "{json}");
        assert!(json.contains("\"attributed_nanos\": 400"), "{json}");
        assert!(json.contains("\\\"lab\\\""), "quotes escaped: {json}");
        for phase in ServePhase::ALL {
            assert!(json.contains(phase.name()), "{}", phase.name());
        }
    }

    #[test]
    fn tenant_histograms_cap_with_other_bucket() {
        let mut state = ObsState::default();
        for i in 0..MAX_TENANT_HISTOGRAMS + 10 {
            let record = RequestRecord {
                op: 1,
                tenant: format!("tenant-{i}"),
                status: "ok",
                total_nanos: 1_000,
                phase_nanos: [0; ServePhase::COUNT],
            };
            state.record_request(record, None, false);
        }
        assert_eq!(state.tenants.len(), MAX_TENANT_HISTOGRAMS + 1);
        let other = state.tenants.iter().find(|(t, _)| t == "_other").unwrap();
        assert_eq!(other.1.count(), 10);
    }

    #[test]
    fn slow_threshold_counts_and_rate_limits_dumps() {
        let mut state = ObsState::default();
        let record = |nanos| RequestRecord {
            op: 0,
            tenant: String::new(),
            status: "ok",
            total_nanos: nanos,
            phase_nanos: [0; ServePhase::COUNT],
        };
        // Below the threshold: not slow.
        let (slow, dump) = state.record_request(record(10), Some(100), true);
        assert!(!slow && !dump);
        // At the threshold: slow, and the first dump fires.
        let (slow, dump) = state.record_request(record(100), Some(100), true);
        assert!(slow && dump);
        // Immediately after: slow again, but the dump is rate limited.
        let (slow, dump) = state.record_request(record(200), Some(100), true);
        assert!(slow && !dump);
        assert_eq!(state.slow_requests, 2);
        // No threshold, nothing is slow.
        let (slow, _) = state.record_request(record(u64::MAX), None, true);
        assert!(!slow);
    }

    #[test]
    fn recent_ring_is_bounded() {
        let mut state = ObsState::default();
        for i in 0..RECENT_REQUESTS + 50 {
            let rec = RequestRecord {
                op: 0,
                tenant: String::new(),
                status: "ok",
                total_nanos: i as u64,
                phase_nanos: [0; ServePhase::COUNT],
            };
            state.record_request(rec, None, false);
        }
        assert_eq!(state.recent.len(), RECENT_REQUESTS);
        // Oldest entries were evicted.
        assert_eq!(state.recent.front().unwrap().total_nanos, 50);
    }
}
