//! The `isobar serve` daemon: a blocking, thread-per-connection TCP
//! server in front of a `ShardedStoreWriter`/`StoreReader` pair.
//!
//! # Architecture
//!
//! One accept thread hands each connection to its own handler thread
//! (the workspace is std-only: no async runtime). All store access
//! funnels through one mutex-guarded `StoreState`: puts go to the
//! sharded writer *and* to the write-ahead journal, and the overlay
//! records where each journal frame landed, so gets are
//! read-your-writes before the next commit; gets fall back to the
//! committed `StoreReader`. A read holds the mutex only to resolve its
//! key to an owned snapshot (a journal frame's location or an
//! `Arc<StoreReader>`), then reads, verifies and decodes after
//! releasing it. When the overlay crosses the commit threshold the
//! daemon rolls a generation: the writer's two-phase manifest commit
//! runs, a new reader replaces the old, the overlay drains.
//!
//! # Backpressure
//!
//! Admission control is byte-denominated and happens *between* a
//! request's header and its payload: if accepting the payload would
//! push pending bytes past `max_inflight_bytes`, the daemon discards
//! the payload in bounded chunks (keeping the stream frame-aligned)
//! and answers [`Status::Busy`]. Nothing queues unboundedly — the
//! client is told to back off, exactly like the bounded `sync_channel`
//! discipline inside the sharded writer itself.
//!
//! # Shutdown
//!
//! [`Server::shutdown`] flips a flag and pokes the listeners so
//! blocked accepts return. Handler threads notice the flag at their
//! next frame boundary — an in-flight request is always answered
//! before its connection drains. [`Server::join`] then runs the final
//! two-phase store commit, so SIGTERM never tears a manifest: the
//! store on disk is the last committed generation plus one clean
//! final one.

use crate::core::{CommitOutcome, CoreOptions, Snapshot, StoreCore};
use crate::obs::{self, RequestObs, ServeReport, SlowLog};
use crate::protocol::{
    discard_exact, parse_request_header, read_bounded, write_response, Opcode, RequestHeader,
    Status, MAX_NAME_LEN, MAX_TENANT_LEN, REQUEST_HEADER_LEN, TENANT_SEPARATOR,
};
use isobar::telemetry::json::{self, JsonValue};
use isobar::telemetry::Phase;
use isobar::trace::NO_CHUNK;
use isobar::IsobarOptions;
use isobar_store::{RealFs, StoreError};
use std::collections::BTreeMap;
use std::fmt;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, Once};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning knobs for [`serve`]. Defaults suit a local soak test; see
/// `docs/SERVE.md` for guidance.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Shards per store generation: segment files, and codec workers
    /// in the writer's pool.
    pub shards: u16,
    /// The sharded writer's queue depth per shard (see
    /// `ShardedOptions::queue_depth`).
    pub queue_depth: usize,
    /// Largest accepted `put` payload, in bytes.
    pub max_payload: u64,
    /// Admission limit: total uncommitted payload bytes (overlay plus
    /// reservations) past which puts get [`Status::Busy`].
    pub max_inflight_bytes: u64,
    /// Overlay size that triggers a generation commit.
    pub commit_threshold: u64,
    /// Connections beyond this are answered [`Status::Busy`] at accept.
    pub max_connections: usize,
    /// Requests whose wall time reaches this many milliseconds are
    /// counted slow, logged to `slow.jsonl` (when the flight recorder
    /// is on), and trigger a rate-limited flight dump. `None` disables
    /// slow accounting.
    pub slow_ms: Option<u64>,
    /// Directory for flight-recorder output (Chrome trace dumps and
    /// the slow-request log). Setting this also activates trace
    /// recording for the daemon's lifetime.
    pub flight_recorder: Option<PathBuf>,
    /// Serve a `/debug/stats` JSON snapshot on the metrics listener.
    pub debug_endpoint: bool,
    /// Journal every put to a per-tenant write-ahead log and fsync it
    /// before acking, and replay leftover journals on startup. This is
    /// the "acked means durable" contract; turning it off restores the
    /// pre-WAL behavior where a crash between generation commits loses
    /// acked-but-uncommitted puts.
    pub wal: bool,
    /// Disconnect a connection that sits idle (no new frame started)
    /// this long, so parked sockets cannot pin handler threads
    /// forever. `None` waits indefinitely.
    pub idle_timeout: Option<Duration>,
    /// Ceiling on one frame's total read time (header, identifier
    /// fields, and payload combined). A client that trickles bytes
    /// slower than this — a slowloris — is disconnected rather than
    /// allowed to hold a worker mid-frame.
    pub frame_deadline: Duration,
    /// Compression options for stored variables.
    pub isobar: IsobarOptions,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            shards: 4,
            queue_depth: 2,
            max_payload: 64 << 20,
            max_inflight_bytes: 256 << 20,
            commit_threshold: 64 << 20,
            max_connections: 256,
            slow_ms: None,
            flight_recorder: None,
            debug_endpoint: false,
            wal: true,
            idle_timeout: Some(Duration::from_secs(300)),
            frame_deadline: Duration::from_secs(30),
            isobar: IsobarOptions::default(),
        }
    }
}

/// Largest unread payload the daemon will drain to keep a connection
/// frame-aligned after a malformed-field rejection. Anything larger is
/// answered and then disconnected — burning a worker on megabytes of
/// payload from a client that cannot even frame its identifiers is a
/// denial-of-service grant, not a courtesy. (Busy rejections always
/// drain: those clients are healthy and will retry on the connection.)
pub const MAX_DRAIN_BYTES: u64 = 1 << 20;

/// Why the daemon could not start or finish.
#[derive(Debug)]
pub enum ServeError {
    /// A socket operation failed.
    Io(io::Error),
    /// The store failed (open, put pipeline, or commit).
    Store(StoreError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "serve transport error: {e}"),
            ServeError::Store(e) => write!(f, "serve store error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<io::Error> for ServeError {
    fn from(e: io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<StoreError> for ServeError {
    fn from(e: StoreError) -> Self {
        ServeError::Store(e)
    }
}

/// Build the store key for a `(tenant, name)` pair. Tenants are
/// namespaces by key prefixing; the separator byte is rejected inside
/// either field by the protocol decoder, so tenants cannot collide.
pub fn store_key(tenant: &str, name: &str) -> String {
    if tenant.is_empty() {
        name.to_string()
    } else {
        let mut key = String::with_capacity(tenant.len() + 1 + name.len());
        key.push_str(tenant);
        key.push(TENANT_SEPARATOR as char);
        key.push_str(name);
        key
    }
}

/// Split a store key back into `(tenant, name)`.
fn split_key(key: &str) -> (&str, &str) {
    match key.find(TENANT_SEPARATOR as char) {
        Some(i) => (&key[..i], &key[i + 1..]),
        None => ("", key),
    }
}

/// Everything store-shaped, behind one mutex. The engine itself
/// (writer, reader, overlay, journal) lives in [`StoreCore`]; this
/// adds the daemon-only admission and poison state.
struct StoreState {
    core: StoreCore<RealFs>,
    /// Bytes reserved by admitted puts whose payloads are still being
    /// read off their sockets.
    reserved_bytes: u64,
    /// A failed commit poisons the store: every later mutation is
    /// answered `ServerError` with this message instead of risking a
    /// torn manifest.
    failed: Option<String>,
}

impl StoreState {
    /// Commit the current generation: two-phase writer close, journal
    /// truncation, reader reopen, overlay drain. A failure poisons the
    /// store.
    fn commit(&mut self) -> Result<Option<CommitOutcome>, StoreError> {
        if !self.core.has_pending() {
            return Ok(None);
        }
        self.core
            .commit()
            .inspect_err(|e| self.failed = Some(e.to_string()))
    }
}

struct Shared {
    opts: ServeOptions,
    shutdown: AtomicBool,
    store: Mutex<StoreState>,
    /// The request ledger, folded into once per request.
    ledger: Mutex<ServeReport>,
    slow_log: SlowLog,
}

impl Shared {
    fn lock_ledger(&self) -> MutexGuard<'_, ServeReport> {
        self.ledger.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Finish one dispatched request: stamp its wall time, log it when
    /// it is slow (with a rate-limited flight dump, written on this
    /// handler thread so the request's own spans are in the file), and
    /// fold it into the ledger — the request's one accounting lock.
    fn finish_request(&self, mut request: RequestObs) {
        request.finish();
        let slow = obs::is_slow(request.total_nanos, self.opts.slow_ms);
        let dumped = match &self.opts.flight_recorder {
            Some(dir) if slow => {
                self.slow_log.append(dir, &request) && obs::dump_flight_trace(dir, "slow").is_ok()
            }
            _ => false,
        };
        self.lock_ledger().fold(request, slow, dumped);
    }

    /// Write a flight-recorder Chrome trace dump, if a dump directory
    /// is configured. Returns the file written.
    fn dump_flight(&self, reason: &str) -> Option<PathBuf> {
        let dir = self.opts.flight_recorder.as_ref()?;
        let path = obs::dump_flight_trace(dir, reason).ok()?;
        self.lock_ledger().flight_dumps += 1;
        Some(path)
    }
}

/// A running daemon. Dropping it shuts down and joins all threads.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    metrics_addr: Option<SocketAddr>,
    accept: Option<JoinHandle<()>>,
    metrics_thread: Option<JoinHandle<()>>,
}

/// A cheap clone for triggering shutdown from another thread (e.g. a
/// signal watcher).
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
    addr: SocketAddr,
    metrics_addr: Option<SocketAddr>,
}

impl ServerHandle {
    /// Stop accepting, drain in-flight requests. Idempotent.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        poke(self.addr);
        if let Some(addr) = self.metrics_addr {
            poke(addr);
        }
    }

    /// Dump the flight recorder now (the SIGUSR1 path). Returns the
    /// Chrome trace file written, or `None` when no `flight_recorder`
    /// directory is configured or the write failed.
    pub fn dump_flight(&self, reason: &str) -> Option<PathBuf> {
        self.shared.dump_flight(reason)
    }
}

/// Unblock a listener stuck in `accept` by connecting to it.
fn poke(addr: SocketAddr) {
    let _ = TcpStream::connect_timeout(&addr, Duration::from_millis(500));
}

/// Start the daemon on `addr` (use port 0 for an ephemeral port), with
/// an optional Prometheus `/metrics` HTTP listener on `metrics_addr`.
pub fn serve(
    dir: impl AsRef<Path>,
    addr: &str,
    metrics_addr: Option<&str>,
    opts: ServeOptions,
) -> Result<Server, ServeError> {
    let dir = dir.as_ref().to_path_buf();
    // Open the engine: committed view (eagerly, when one exists, so
    // gets work before the first put of this run) plus write-ahead
    // journal replay of anything a previous run acked but never
    // committed.
    let core = StoreCore::open_real(
        &dir,
        CoreOptions {
            isobar: opts.isobar,
            shards: opts.shards,
            queue_depth: opts.queue_depth,
            commit_threshold: opts.commit_threshold,
            wal: opts.wal,
            open_reader: true,
        },
    )?;
    let ledger = ServeReport {
        wal_replayed: core.replay.records,
        ..ServeReport::default()
    };
    let listener = TcpListener::bind(addr)?;
    let local_addr = listener.local_addr()?;
    let metrics_listener = match metrics_addr {
        Some(addr) => Some(TcpListener::bind(addr)?),
        None => None,
    };
    let metrics_local = match &metrics_listener {
        Some(l) => Some(l.local_addr()?),
        None => None,
    };
    if let Some(flight_dir) = &opts.flight_recorder {
        // Keep the trace rings warm for the daemon's lifetime and dump
        // them on panic. Activation is process-global, matching the
        // CLI's `--trace` behavior.
        isobar::trace::set_active(true);
        obs::install_panic_dump(flight_dir);
    }
    let shared = Arc::new(Shared {
        opts,
        shutdown: AtomicBool::new(false),
        store: Mutex::new(StoreState {
            core,
            reserved_bytes: 0,
            failed: None,
        }),
        ledger: Mutex::new(ledger),
        slow_log: SlowLog::default(),
    });

    let accept = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || accept_loop(&shared, listener))
    };
    let metrics_thread = metrics_listener.map(|listener| {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || metrics_loop(&shared, listener))
    });

    Ok(Server {
        shared,
        addr: local_addr,
        metrics_addr: metrics_local,
        accept: Some(accept),
        metrics_thread,
    })
}

impl Server {
    /// Address the request listener is bound to.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Address the `/metrics` listener is bound to, if one was asked
    /// for.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// A cloneable handle for triggering shutdown from elsewhere.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shared: Arc::clone(&self.shared),
            addr: self.addr,
            metrics_addr: self.metrics_addr,
        }
    }

    /// Stop accepting, drain in-flight requests. Idempotent;
    /// [`Server::join`] afterwards completes the final commit.
    pub fn shutdown(&self) {
        self.handle().shutdown();
    }

    /// Wait for the drain to finish, run the final two-phase store
    /// commit, and report what the run did. Call [`Server::shutdown`]
    /// (or have a signal watcher call it) first — `join` on a live
    /// server blocks until someone does.
    pub fn join(mut self) -> Result<ServeReport, ServeError> {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        if let Some(metrics) = self.metrics_thread.take() {
            let _ = metrics.join();
        }
        let shared = &self.shared;
        let committed = {
            let _span = isobar::trace::span(Phase::Commit, NO_CHUNK);
            let mut state = shared.store.lock().unwrap_or_else(|e| e.into_inner());
            state.commit()
        };
        let report = {
            let mut ledger = shared.lock_ledger();
            if let Ok(Some(outcome)) = &committed {
                ledger.fold_commit(outcome);
            }
            ledger.clone()
        };
        committed?;
        Ok(report)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // A dropped server still drains and joins; the final commit is
        // only reachable through join(), so callers that care about
        // the committed generation must use it.
        self.shutdown();
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        if let Some(metrics) = self.metrics_thread.take() {
            let _ = metrics.join();
        }
    }
}

fn accept_loop(shared: &Arc<Shared>, listener: TcpListener) {
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        handlers.retain(|h| !h.is_finished());
        if handlers.len() >= shared.opts.max_connections {
            shared.lock_ledger().busy_rejected += 1;
            let mut stream = stream;
            let _ = write_response(&mut stream, Status::Busy, b"connection limit reached");
            continue;
        }
        shared.lock_ledger().connections += 1;
        let shared = Arc::clone(shared);
        // Stamp the hand-off so the gap between accept and the handler
        // thread starting is attributed to the first request's accept
        // phase.
        let accepted = Instant::now();
        handlers.push(std::thread::spawn(move || {
            let accept_nanos = accepted.elapsed().as_nanos() as u64;
            handle_connection(&shared, stream, accept_nanos);
            isobar::trace::flush_thread();
        }));
    }
    for handler in handlers {
        let _ = handler.join();
    }
}

/// What polling for the start of the next frame produced.
enum FirstByte {
    Byte(u8),
    Eof,
    Shutdown,
    Error,
}

/// Set a socket read timeout, logging the failure once per process.
/// Returns `false` when the timeout could not be set — callers must
/// then drop the connection rather than serve it with *no* timeout,
/// which would hand a stalled peer a thread forever.
fn set_read_timeout_checked(stream: &TcpStream, timeout: Duration) -> bool {
    match stream.set_read_timeout(Some(timeout)) {
        Ok(()) => true,
        Err(e) => {
            static LOGGED: Once = Once::new();
            LOGGED.call_once(|| {
                eprintln!(
                    "isobar-serve: set_read_timeout failed ({e}); \
                     closing connections instead of serving without timeouts"
                );
            });
            false
        }
    }
}

/// Wait for the first byte of the next frame with a short poll
/// timeout so the thread notices shutdown while idle. Reading only
/// one byte here means a timeout can never strand a partial read —
/// frame alignment is preserved across polls. A connection that idles
/// past `idle_timeout` is reported as an error so the handler drops
/// it: parked sockets must not pin worker threads indefinitely.
fn poll_first_byte(stream: &mut TcpStream, shared: &Shared) -> FirstByte {
    if !set_read_timeout_checked(stream, Duration::from_millis(100)) {
        return FirstByte::Error;
    }
    let idle_deadline = shared.opts.idle_timeout.map(|t| Instant::now() + t);
    let mut byte = [0u8; 1];
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return FirstByte::Shutdown;
        }
        if let Some(deadline) = idle_deadline {
            if Instant::now() >= deadline {
                return FirstByte::Error;
            }
        }
        match stream.read(&mut byte) {
            Ok(0) => return FirstByte::Eof,
            Ok(_) => return FirstByte::Byte(byte[0]),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut
                    || e.kind() == io::ErrorKind::Interrupted =>
            {
                continue
            }
            Err(_) => return FirstByte::Error,
        }
    }
}

/// The connection for the duration of one frame, with the per-frame
/// read deadline enforced on every read: the socket timeout is
/// re-armed to the remaining budget before each read, so a client
/// trickling one byte per timeout window (a slowloris) is bounded by
/// `frame_deadline` in total, not per read. Writes pass through.
struct FrameStream<'a> {
    stream: &'a mut TcpStream,
    deadline: Instant,
}

impl Read for FrameStream<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let now = Instant::now();
        if now >= self.deadline {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "frame deadline exceeded",
            ));
        }
        let remaining = (self.deadline - now).max(Duration::from_millis(1));
        if !set_read_timeout_checked(self.stream, remaining) {
            return Err(io::Error::other("cannot arm frame deadline"));
        }
        match self.stream.read(buf) {
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "frame deadline exceeded",
            )),
            other => other,
        }
    }
}

impl Write for FrameStream<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.stream.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.stream.flush()
    }
}

fn handle_connection(shared: &Shared, mut stream: TcpStream, accept_nanos: u64) {
    let _ = stream.set_nodelay(true);
    let mut accept_pending = accept_nanos;
    loop {
        let first = match poll_first_byte(&mut stream, shared) {
            FirstByte::Byte(b) => b,
            FirstByte::Eof | FirstByte::Error => break,
            FirstByte::Shutdown => {
                let _ = write_response(&mut stream, Status::ShuttingDown, b"daemon draining");
                break;
            }
        };
        // The request clock starts at its first byte; client think
        // time between frames is not request latency.
        let mut obs = RequestObs::new();
        obs.add(Phase::Accept, std::mem::take(&mut accept_pending));
        // The frame has started: every read from here on runs under
        // the per-frame deadline, so a stalled or trickling client
        // cannot pin the thread past `frame_deadline` in total.
        let mut frame = FrameStream {
            stream: &mut stream,
            deadline: obs.start + shared.opts.frame_deadline,
        };
        // Everything since the first byte — the timeout setup syscall,
        // the header read and decode — is header-parse time (one
        // boundary-clock stretch). `None`: the header never arrived.
        let header = obs.time(Phase::HeaderParse, || {
            let mut header_buf = [0u8; REQUEST_HEADER_LEN];
            header_buf[0] = first;
            frame.read_exact(&mut header_buf[1..]).map_err(|_| None)?;
            parse_request_header(&header_buf, shared.opts.max_payload).map_err(Some)
        });
        let header = match header {
            Ok(header) => header,
            Err(e) => {
                // A frame whose header never decoded: a protocol error,
                // but no dispatched request.
                shared.lock_ledger().protocol_errors += 1;
                if let Some(e) = e {
                    let _ =
                        write_response(&mut frame, Status::BadRequest, e.to_string().as_bytes());
                }
                // The stream may be mid-frame; alignment is gone.
                break;
            }
        };
        obs.op = Some(header.opcode);
        let keep = {
            let _span = isobar::trace::span(Phase::ServeRequest, NO_CHUNK);
            handle_request(shared, &mut frame, &header, &mut obs)
        };
        shared.finish_request(obs);
        if !keep {
            break;
        }
    }
}

/// Acquire the store mutex with the wait attributed to the request's
/// lock-wait phase (the store-lock convoy scoreboard).
fn lock_store<'a>(shared: &'a Shared, obs: &mut RequestObs) -> MutexGuard<'a, StoreState> {
    obs.time(Phase::LockWait, || {
        shared.store.lock().unwrap_or_else(|e| e.into_inner())
    })
}

/// Release the store mutex with the handoff attributed to lock-wait:
/// under contention an unlock wakes a waiter (a futex syscall), and
/// that cost belongs on the same convoy scoreboard as the waits.
fn unlock_store(state: MutexGuard<'_, StoreState>, obs: &mut RequestObs) {
    obs.time(Phase::LockWait, || drop(state));
}

/// Write the response frame with the time attributed to the
/// write-response phase, stamping the request's final status.
fn respond(stream: &mut FrameStream<'_>, obs: &mut RequestObs, status: Status, body: &[u8]) {
    obs.status = Some(status);
    obs.time(Phase::WriteResponse, || {
        let _ = write_response(stream, status, body);
    });
}

/// Serve one request whose header has been decoded. Returns whether
/// the connection is still frame-aligned and should be kept open.
fn handle_request(
    shared: &Shared,
    stream: &mut FrameStream<'_>,
    header: &RequestHeader,
    obs: &mut RequestObs,
) -> bool {
    // Tenant and name are small (caps enforced by the header parse).
    let fields = obs.time(Phase::HeaderParse, || {
        crate::protocol::read_request_fields(&mut *stream, header)
    });
    let (tenant, name) = match fields {
        Ok(fields) => fields,
        Err(crate::protocol::FrameError::Proto(e)) => {
            // The identifier bytes were consumed, so the stream is
            // still frame-aligned for everything but the payload.
            // Drain a small payload to keep the connection; a large
            // one is answered and dropped (bounded drain).
            if u64::from(header.payload_len) > MAX_DRAIN_BYTES {
                respond(stream, obs, Status::BadRequest, e.to_string().as_bytes());
                return false;
            }
            if header.payload_len > 0 {
                let drained = obs.time(Phase::PayloadRead, || {
                    discard_exact(stream, u64::from(header.payload_len))
                });
                if drained.is_err() {
                    obs.status = Some(Status::BadRequest);
                    return false;
                }
            }
            respond(stream, obs, Status::BadRequest, e.to_string().as_bytes());
            return true;
        }
        Err(crate::protocol::FrameError::Io(_)) => return false,
    };
    obs.tenant = tenant.clone();
    match header.opcode {
        Opcode::Put => handle_put(shared, stream, header, &tenant, &name, obs),
        Opcode::Get => handle_get(shared, stream, header.step, &tenant, &name, obs),
        Opcode::Stat => handle_stat(shared, stream, header.step, &tenant, &name, obs),
        Opcode::Ls => handle_ls(shared, stream, &tenant, obs),
    }
}

/// Reject a put whose payload is still unread: drain it in bounded
/// chunks to stay frame-aligned (under the frame deadline), then
/// answer `status`. Unlike the malformed-field path, a Busy or
/// ShuttingDown rejection always drains — well-behaved clients retry
/// on the same connection.
fn reject_put(
    stream: &mut FrameStream<'_>,
    obs: &mut RequestObs,
    payload_len: u32,
    status: Status,
    message: &str,
) -> bool {
    let drained = obs.time(Phase::PayloadRead, || {
        discard_exact(stream, u64::from(payload_len))
    });
    if drained.is_err() {
        obs.status = Some(status);
        return false;
    }
    respond(stream, obs, status, message.as_bytes());
    true
}

fn handle_put(
    shared: &Shared,
    stream: &mut FrameStream<'_>,
    header: &RequestHeader,
    tenant: &str,
    name: &str,
    obs: &mut RequestObs,
) -> bool {
    let len = u64::from(header.payload_len);
    if shared.shutdown.load(Ordering::SeqCst) {
        return reject_put(
            stream,
            obs,
            header.payload_len,
            Status::ShuttingDown,
            "daemon draining",
        );
    }
    // Admission: reserve the bytes before reading them, or refuse.
    {
        let mut state = lock_store(shared, obs);
        let verdict = obs.time(Phase::Admission, || {
            if let Some(msg) = &state.failed {
                return Some((Status::ServerError, msg.clone()));
            }
            if state.core.pending_bytes + state.reserved_bytes + len
                > shared.opts.max_inflight_bytes
            {
                return Some((
                    Status::Busy,
                    "in-flight byte budget full, retry later".to_string(),
                ));
            }
            state.reserved_bytes += len;
            None
        });
        unlock_store(state, obs);
        if let Some((status, message)) = verdict {
            return reject_put(stream, obs, header.payload_len, status, &message);
        }
    }
    let unreserve = |shared: &Shared| {
        let mut state = shared.store.lock().unwrap_or_else(|e| e.into_inner());
        state.reserved_bytes = state.reserved_bytes.saturating_sub(len);
    };
    let payload = obs.time(Phase::PayloadRead, || {
        read_bounded(&mut *stream, header.payload_len as usize)
    });
    let payload = match payload {
        Ok(payload) => payload,
        Err(_) => {
            unreserve(shared);
            return false;
        }
    };
    let mut state = lock_store(shared, obs);
    state.reserved_bytes = state.reserved_bytes.saturating_sub(len);
    let result = put_locked(&mut state, header, tenant, name, payload, obs);
    unlock_store(state, obs);
    match result {
        Ok(()) => {
            obs.bytes = len;
            respond(stream, obs, Status::Ok, b"");
            true
        }
        Err(e) => {
            respond(stream, obs, Status::ServerError, e.to_string().as_bytes());
            true
        }
    }
}

/// The store side of a put: lazy writer creation, the sharded put
/// itself, the journal fsync (the ack barrier), the overlay insert,
/// and a threshold commit. Caller holds the store lock. The journal
/// append runs *after* the writer put so a put the daemon is about to
/// reject with `ServerError` is never resurrected by replay.
fn put_locked(
    state: &mut StoreState,
    header: &RequestHeader,
    tenant: &str,
    name: &str,
    payload: Vec<u8>,
    obs: &mut RequestObs,
) -> Result<(), StoreError> {
    let key = store_key(tenant, name);
    // One copy of the payload: the writer holds it until the put is
    // compressed; the overlay keeps it only with the journal off.
    let payload = Arc::new(payload);
    obs.time(Phase::StorePut, || {
        state.core.store_put(
            header.step,
            &key,
            Arc::clone(&payload),
            usize::from(header.width),
        )
    })?;
    obs.wal_bytes = obs.time(Phase::WalFsync, || {
        state
            .core
            .wal_append(tenant, header.step, name, header.width, &payload)
    })?;
    obs.time(Phase::Overlay, || {
        state
            .core
            .overlay_insert(header.step, key, header.width, payload);
    });
    if state.core.over_threshold() {
        let outcome = obs.time(Phase::Commit, || state.commit())?;
        obs.commit = outcome.map(Box::new);
    }
    Ok(())
}

fn handle_get(
    shared: &Shared,
    stream: &mut FrameStream<'_>,
    step: u32,
    tenant: &str,
    name: &str,
    obs: &mut RequestObs,
) -> bool {
    let key = store_key(tenant, name);
    let state = lock_store(shared, obs);
    let snapshot = obs.time(Phase::Overlay, || state.core.lookup(step, &key));
    unlock_store(state, obs);
    // A journal frame that fails to read back asks the lock again
    // whether a commit has retired it since.
    let retired = |at: &_| {
        let state = shared.store.lock().unwrap_or_else(|e| e.into_inner());
        state.core.committed_since(at)
    };
    match snapshot.and_then(|s| obs.time(Phase::StoreGet, || s.read(step, &key, retired))) {
        Ok(data) => {
            obs.bytes = data.len() as u64;
            respond(stream, obs, Status::Ok, &data);
        }
        Err(e) => respond_miss(stream, obs, step, name, e),
    }
    true
}

fn handle_stat(
    shared: &Shared,
    stream: &mut FrameStream<'_>,
    step: u32,
    tenant: &str,
    name: &str,
    obs: &mut RequestObs,
) -> bool {
    let key = store_key(tenant, name);
    let state = lock_store(shared, obs);
    let snapshot = obs.time(Phase::Overlay, || state.core.lookup(step, &key));
    unlock_store(state, obs);
    let line = obs.time(Phase::StoreGet, || match snapshot? {
        Snapshot::Overlay(entry, _) => Ok(format!(
            "name={name} step={step} raw_len={} width={} committed=false\n",
            entry.raw_len, entry.width
        )),
        Snapshot::Committed(reader) => reader.entry(step, &key).map(|entry| {
            format!(
                "name={name} step={step} raw_len={} container_len={} width={} committed=true\n",
                entry.raw_len, entry.container_len, entry.width
            )
        }),
    });
    match line {
        Ok(line) => respond(stream, obs, Status::Ok, line.as_bytes()),
        Err(e) => respond_miss(stream, obs, step, name, e),
    }
    true
}

/// Answer a get or stat that failed: `NotFound` for a missing
/// variable, `ServerError` for anything else.
fn respond_miss(
    stream: &mut FrameStream<'_>,
    obs: &mut RequestObs,
    step: u32,
    name: &str,
    error: StoreError,
) {
    let (status, message) = match error {
        StoreError::NotFound { .. } => (
            Status::NotFound,
            format!("no variable '{name}' at step {step}"),
        ),
        e => (Status::ServerError, e.to_string()),
    };
    respond(stream, obs, status, message.as_bytes());
}

fn handle_ls(
    shared: &Shared,
    stream: &mut FrameStream<'_>,
    tenant: &str,
    obs: &mut RequestObs,
) -> bool {
    // ((step, name), raw_len) for a store key of this tenant.
    let row = |step: u32, key: &str, raw_len: u64| {
        let (entry_tenant, name) = split_key(key);
        (entry_tenant == tenant).then(|| ((step, name.to_string()), raw_len))
    };
    // Only the tenant's overlay rows are copied under the lock; the
    // committed view is walked after it.
    let state = lock_store(shared, obs);
    let (reader, pending) = obs.time(Phase::Overlay, || {
        let overlay = state.core.overlay.iter();
        let pending: Vec<_> = overlay
            .filter_map(|((step, key), entry)| row(*step, key, entry.raw_len))
            .collect();
        (state.core.reader.clone(), pending)
    });
    unlock_store(state, obs);
    // A later row wins the collect, so overlay rows shadow committed ones.
    let rows: BTreeMap<(u32, String), u64> = obs.time(Phase::StoreGet, || {
        let live = reader.iter().flat_map(|reader| reader.live_entries());
        let committed = live.filter_map(|entry| row(entry.step, &entry.name, entry.raw_len));
        committed.chain(pending).collect()
    });
    let mut body = String::new();
    for ((step, name), raw_len) in rows {
        body.push_str(&format!("{step}\t{name}\t{raw_len}\n"));
    }
    respond(stream, obs, Status::Ok, body.as_bytes());
    true
}

/// Minimal HTTP/1.0 responder for `GET /metrics`: renders the shared
/// telemetry snapshot in Prometheus text exposition. Requests are
/// bounded (4 KiB, 2 s) and handled serially — this is an
/// observability side-channel, not a data path.
fn metrics_loop(shared: &Arc<Shared>, listener: TcpListener) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(mut stream) = stream else { continue };
        if !set_read_timeout_checked(&stream, Duration::from_secs(2)) {
            // No timeout means an idle scraper could pin this (serial)
            // loop forever; dropping the connection is the safe
            // fallback.
            continue;
        }
        let mut request = [0u8; 4096];
        let mut filled = 0;
        // Read until the header terminator or the cap; anything longer
        // is ignored.
        while filled < request.len() {
            match stream.read(&mut request[filled..]) {
                Ok(0) => break,
                Ok(n) => {
                    filled += n;
                    if request[..filled].windows(4).any(|w| w == b"\r\n\r\n") {
                        break;
                    }
                }
                Err(_) => break,
            }
        }
        let line = std::str::from_utf8(&request[..filled])
            .unwrap_or("")
            .lines()
            .next()
            .unwrap_or("");
        let path = line.split_whitespace().nth(1).unwrap_or("");
        if line.starts_with("GET ") && path == "/metrics" {
            let body = shared.lock_ledger().to_prometheus();
            let _ = write!(
                stream,
                "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\n\r\n{}",
                body.len(),
                body
            );
        } else if line.starts_with("GET ") && path == "/debug/stats" && shared.opts.debug_endpoint {
            let body = debug_stats_json(shared);
            let _ = write!(
                stream,
                "HTTP/1.0 200 OK\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{}",
                body.len(),
                body
            );
        } else {
            let _ = write!(
                stream,
                "HTTP/1.0 404 Not Found\r\nContent-Length: 0\r\n\r\n"
            );
        }
        let _ = stream.flush();
    }
}

/// Render the `/debug/stats` JSON snapshot: the store gauges (the
/// store lock is sampled, not held, across the ledger render) spliced
/// together with the ledger's counters, totals, histograms, and
/// recent-request ring.
fn debug_stats_json(shared: &Shared) -> String {
    let (overlay_entries, overlay_bytes, reserved_bytes, failed) = {
        let state = shared.store.lock().unwrap_or_else(|e| e.into_inner());
        (
            state.core.overlay.len() as u64,
            state.core.pending_bytes,
            state.reserved_bytes,
            state.failed.clone(),
        )
    };
    let gauges = [
        ("overlay_entries", overlay_entries.into()),
        ("overlay_bytes", overlay_bytes.into()),
        ("reserved_bytes", reserved_bytes.into()),
        (
            "in_flight_bytes",
            overlay_bytes.saturating_add(reserved_bytes).into(),
        ),
        ("commit_backlog_bytes", overlay_bytes.into()),
        ("commit_threshold", shared.opts.commit_threshold.into()),
        ("failed", failed.map_or(JsonValue::Null, JsonValue::String)),
    ];
    let ledger = shared.lock_ledger().debug_json_members();
    json::object(gauges.into_iter().chain(ledger)).to_string()
}

const _: () = {
    // The tenant and name caps must fit the store's u16 name-length
    // limit once joined with the separator.
    assert!(MAX_TENANT_LEN + 1 + MAX_NAME_LEN < u16::MAX as usize);
};
