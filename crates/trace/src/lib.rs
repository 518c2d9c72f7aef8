#![warn(missing_docs)]

//! Temporal tracing for the ISOBAR pipeline: per-thread span/event ring
//! buffers with Chrome trace-event export.
//!
//! The telemetry crate answers *how much* — aggregate counters and
//! per-stage wall-time totals. This crate answers *when*: which chunk
//! was in which stage on which thread at what nanosecond, so one run's
//! timeline can be inspected in Perfetto / `chrome://tracing` and
//! stalls, worker interleaving, and EUPA sampling decisions become
//! visible instead of averaged away.
//!
//! # Recording model
//!
//! * Every thread owns a fixed-capacity ring buffer of [`TraceEvent`]s
//!   (overwrite-oldest). Recording is a couple of plain writes into
//!   thread-local memory — no locks, no atomics beyond one relaxed
//!   load of the global on/off flag, no allocation after the ring's
//!   one-time creation.
//! * [`span`] returns a guard that records one begin/end span when
//!   dropped; [`instant`] / [`instant_args`] record point events.
//! * When a thread exits, its ring drains into a global registry; the
//!   collector ([`drain`]) gathers the registry plus the calling
//!   thread's ring into a [`Trace`].
//! * Tracing is *inactive* until [`set_active`]`(true)` — an idle call
//!   site costs one relaxed atomic load and a branch.
//!
//! # The off switch
//!
//! Building without the `enabled` feature (the workspace's trace-off
//! configuration, `cargo build --no-default-features`) turns every
//! recording function into an empty `#[inline]` body and [`SpanGuard`]
//! into a zero-sized type with no `Drop` impl: all call sites compile
//! away, mirroring `isobar_telemetry::ENABLED`.
//!
//! # Example
//!
//! ```
//! use isobar_trace as trace;
//!
//! trace::reset();
//! trace::set_active(true);
//! {
//!     let _span = trace::span(trace::TraceTag::Analyze, 0);
//!     // ... stage work ...
//! }
//! trace::set_active(false);
//! let collected = trace::drain();
//! let json = collected.to_chrome_json();
//! if trace::ENABLED {
//!     assert!(json.contains("\"ph\": \"B\""));
//! }
//! ```

use std::fmt::Write as _;

/// Compile-time flag: `true` when this build records trace events.
pub const ENABLED: bool = cfg!(feature = "enabled");

/// Chunk index used for events that do not belong to a chunk (EUPA,
/// container metadata, store operations).
pub const NO_CHUNK: u32 = u32::MAX;

/// Default per-thread ring capacity, in events.
pub const DEFAULT_THREAD_CAPACITY: usize = 16 * 1024;

/// What a span or instant event describes.
///
/// The discriminant is stable; [`TraceTag::name`] is the Chrome trace
/// `name` field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum TraceTag {
    /// EUPA selection round (one per dataset/stream).
    EupaSelect,
    /// One EUPA trial compression (instant; args carry CR and MB/s).
    EupaTrial,
    /// The combination EUPA finally selected (instant).
    EupaSelected,
    /// Byte-column frequency analysis of one chunk.
    Analyze,
    /// Splitting one chunk into C and I streams.
    Partition,
    /// Solver compression of one chunk's compressible stream.
    SolverCompress,
    /// Serializing one chunk's record into the container body.
    ChunkMerge,
    /// Whole per-chunk compress pipeline (analyze→partition→solve).
    ChunkCompress,
    /// Solver decompression of one chunk.
    SolverDecompress,
    /// Scattering C + I back into element order for one chunk.
    Reassemble,
    /// Whole per-chunk decode pipeline.
    ChunkDecode,
    /// Container serialization: the header and the records of one
    /// feed (each record under its own `ChunkMerge`).
    ContainerWrite,
    /// Container parsing: one record fetched and verified (the chunk
    /// field carries its index), or all of them ahead of a parallel
    /// decode.
    ContainerRead,
    /// Checkpoint store: one variable read and decompressed.
    StoreGet,
    /// Sharded store: codec-thread compression of one variable (the
    /// chunk field carries the shard ordinal).
    StoreShardCompress,
    /// Sharded store: I/O-thread append of one record to its segment
    /// (the chunk field carries the shard ordinal).
    StoreShardAppend,
    /// Sharded store: the two-phase manifest commit at close.
    StoreManifestCommit,
    /// Sharded store: one compaction pass rewriting live entries.
    StoreCompact,
    /// Serve daemon: one request decoded, dispatched, and answered.
    ServeRequest,
    /// Serve daemon: one store generation committed (threshold roll
    /// or shutdown drain).
    ServeCommit,
    /// Serve daemon: gap between `accept(2)` returning and the handler
    /// thread picking the connection up (attributed to the
    /// connection's first request).
    ServeAccept,
    /// Serve daemon: reading and decoding one 19-byte request header.
    ServeHeaderParse,
    /// Serve daemon: byte-budget admission decision for one PUT.
    ServeAdmission,
    /// Serve daemon: reading one PUT payload off the socket.
    ServePayloadRead,
    /// Serve daemon: blocking on the store mutex.
    ServeLockWait,
    /// Serve daemon: read-your-writes overlay lookup or insert.
    ServeOverlay,
    /// Serve daemon: sharded-store put for one variable.
    ServeStorePut,
    /// Serve daemon: sharded-store (or overlay-miss) get.
    ServeStoreGet,
    /// Serve daemon: encoding and writing one response frame.
    ServeWriteResponse,
    /// Serve daemon: appending one put to the write-ahead journal and
    /// fsyncing it (the durability cost paid before an `Ok` ack).
    ServeWalFsync,
    /// Serve daemon: replaying leftover write-ahead journal records
    /// into the overlay on startup.
    ServeWalReplay,
}

impl TraceTag {
    /// Number of tags.
    pub const COUNT: usize = 31;

    /// Stable snake_case name, used as the Chrome trace event name.
    pub fn name(self) -> &'static str {
        match self {
            TraceTag::EupaSelect => "eupa_select",
            TraceTag::EupaTrial => "eupa_trial",
            TraceTag::EupaSelected => "eupa_selected",
            TraceTag::Analyze => "analyze",
            TraceTag::Partition => "partition",
            TraceTag::SolverCompress => "solver_compress",
            TraceTag::ChunkMerge => "chunk_merge",
            TraceTag::ChunkCompress => "chunk_compress",
            TraceTag::SolverDecompress => "solver_decompress",
            TraceTag::Reassemble => "reassemble",
            TraceTag::ChunkDecode => "chunk_decode",
            TraceTag::ContainerWrite => "container_write",
            TraceTag::ContainerRead => "container_read",
            TraceTag::StoreGet => "store_get",
            TraceTag::StoreShardCompress => "store_shard_compress",
            TraceTag::StoreShardAppend => "store_shard_append",
            TraceTag::StoreManifestCommit => "store_manifest_commit",
            TraceTag::StoreCompact => "store_compact",
            TraceTag::ServeRequest => "serve_request",
            TraceTag::ServeCommit => "serve_commit",
            TraceTag::ServeAccept => "serve_accept",
            TraceTag::ServeHeaderParse => "serve_header_parse",
            TraceTag::ServeAdmission => "serve_admission",
            TraceTag::ServePayloadRead => "serve_payload_read",
            TraceTag::ServeLockWait => "serve_lock_wait",
            TraceTag::ServeOverlay => "serve_overlay",
            TraceTag::ServeStorePut => "serve_store_put",
            TraceTag::ServeStoreGet => "serve_store_get",
            TraceTag::ServeWriteResponse => "serve_write_response",
            TraceTag::ServeWalFsync => "serve_wal_fsync",
            TraceTag::ServeWalReplay => "serve_wal_replay",
        }
    }
}

/// One recorded event: a begin/end span or an instant, stamped with a
/// monotonic nanosecond clock shared by every thread in the process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// What the event describes.
    pub tag: TraceTag,
    /// Chunk index, or [`NO_CHUNK`].
    pub chunk: u32,
    /// Span start (or the instant's timestamp), nanoseconds since the
    /// process trace epoch.
    pub begin_nanos: u64,
    /// Span end; equals `begin_nanos` for instants.
    pub end_nanos: u64,
    /// True for instant events.
    pub instant: bool,
    /// Optional numeric payload (EUPA trials: compression ratio and
    /// throughput in MB/s).
    pub args: Option<(f64, f64)>,
}

/// Everything one thread recorded, in ring order (oldest first).
#[derive(Debug, Clone, Default)]
pub struct ThreadTrace {
    /// Small dense thread id assigned at first record.
    pub tid: u32,
    /// Events, oldest first.
    pub events: Vec<TraceEvent>,
    /// Events overwritten because the ring was full.
    pub dropped: u64,
}

/// A drained collection of per-thread event buffers.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// One entry per thread that recorded anything.
    pub threads: Vec<ThreadTrace>,
}

#[cfg(feature = "enabled")]
mod imp {
    use super::{ThreadTrace, TraceEvent};
    use std::cell::RefCell;
    use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
    use std::sync::{Mutex, OnceLock};
    use std::time::Instant;

    pub(crate) static ACTIVE: AtomicBool = AtomicBool::new(false);
    static NEXT_TID: AtomicU32 = AtomicU32::new(1);
    static CAPACITY: AtomicUsize = AtomicUsize::new(super::DEFAULT_THREAD_CAPACITY);
    static DRAINED: Mutex<Vec<ThreadTrace>> = Mutex::new(Vec::new());
    static EPOCH: OnceLock<Instant> = OnceLock::new();

    #[inline]
    pub(crate) fn now_nanos() -> u64 {
        EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
    }

    /// Fixed-capacity overwrite-oldest event ring owned by one thread.
    struct Ring {
        tid: u32,
        slots: Vec<TraceEvent>,
        cap: usize,
        /// Overwrite cursor, meaningful once `slots.len() == cap`.
        next: usize,
        dropped: u64,
    }

    impl Ring {
        fn new() -> Ring {
            let cap = CAPACITY.load(Ordering::Relaxed).max(1);
            Ring {
                tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
                // The ring's single allocation: reserved up front so
                // pushes on the hot path never reallocate.
                slots: Vec::with_capacity(cap),
                cap,
                next: 0,
                dropped: 0,
            }
        }

        #[inline]
        fn push(&mut self, ev: TraceEvent) {
            if self.slots.len() < self.cap {
                self.slots.push(ev);
            } else {
                // Full: overwrite the oldest event.
                self.slots[self.next] = ev;
                self.next = (self.next + 1) % self.cap;
                self.dropped += 1;
            }
        }

        fn into_thread_trace(self) -> ThreadTrace {
            let mut ring = std::mem::ManuallyDrop::new(self);
            let slots = std::mem::take(&mut ring.slots);
            let events = if ring.dropped == 0 {
                slots
            } else {
                // Rotate so events come out oldest-first.
                let mut events = Vec::with_capacity(slots.len());
                events.extend_from_slice(&slots[ring.next..]);
                events.extend_from_slice(&slots[..ring.next]);
                events
            };
            ThreadTrace {
                tid: ring.tid,
                events,
                dropped: ring.dropped,
            }
        }
    }

    impl Drop for Ring {
        fn drop(&mut self) {
            // Thread exit: hand the recorded events to the collector.
            // `into_thread_trace` wraps in ManuallyDrop, so this only
            // runs for rings dropped in place (TLS teardown).
            let ring = Ring {
                tid: self.tid,
                slots: std::mem::take(&mut self.slots),
                cap: self.cap,
                next: self.next,
                dropped: self.dropped,
            };
            flush_ring(ring);
        }
    }

    fn flush_ring(ring: Ring) {
        let trace = ring.into_thread_trace();
        if !trace.events.is_empty() {
            if let Ok(mut drained) = DRAINED.lock() {
                drained.push(trace);
            }
        }
    }

    thread_local! {
        static RING: RefCell<Option<Ring>> = const { RefCell::new(None) };
    }

    #[inline]
    pub(crate) fn record(ev: TraceEvent) {
        let _ = RING.try_with(|cell| {
            if let Ok(mut ring) = cell.try_borrow_mut() {
                ring.get_or_insert_with(Ring::new).push(ev);
            }
        });
    }

    pub(crate) fn flush_thread() {
        let _ = RING.try_with(|cell| {
            if let Ok(mut ring) = cell.try_borrow_mut() {
                if let Some(ring) = ring.take() {
                    flush_ring(ring);
                }
            }
        });
    }

    pub(crate) fn take_drained() -> Vec<ThreadTrace> {
        DRAINED
            .lock()
            .map(|mut d| std::mem::take(&mut *d))
            .unwrap_or_default()
    }

    pub(crate) fn set_capacity(cap: usize) {
        CAPACITY.store(cap.max(1), Ordering::Relaxed);
    }
}

/// Turn recording on or off process-wide. Off is the default; an
/// inactive call site costs one relaxed atomic load.
#[inline]
pub fn set_active(active: bool) {
    #[cfg(feature = "enabled")]
    {
        imp::ACTIVE.store(active, std::sync::atomic::Ordering::Relaxed);
    }
    #[cfg(not(feature = "enabled"))]
    {
        let _ = active;
    }
}

/// Whether recording is currently active (always `false` in the
/// trace-off build).
#[inline]
pub fn is_active() -> bool {
    #[cfg(feature = "enabled")]
    {
        imp::ACTIVE.load(std::sync::atomic::Ordering::Relaxed)
    }
    #[cfg(not(feature = "enabled"))]
    {
        false
    }
}

/// Set the per-thread ring capacity (events). Applies to rings created
/// after the call; existing rings keep their size. Mainly for tests.
pub fn set_thread_capacity(capacity: usize) {
    #[cfg(feature = "enabled")]
    {
        imp::set_capacity(capacity);
    }
    #[cfg(not(feature = "enabled"))]
    {
        let _ = capacity;
    }
}

/// Begin a span of `tag` for `chunk` (use [`NO_CHUNK`] when the work
/// is not chunk-scoped). The span records when the guard drops.
///
/// When tracing is inactive (or compiled out) the guard is inert.
#[inline]
pub fn span(tag: TraceTag, chunk: u32) -> SpanGuard {
    #[cfg(feature = "enabled")]
    {
        if !is_active() {
            return SpanGuard {
                armed: false,
                tag,
                chunk,
                begin_nanos: 0,
            };
        }
        SpanGuard {
            armed: true,
            tag,
            chunk,
            begin_nanos: imp::now_nanos(),
        }
    }
    #[cfg(not(feature = "enabled"))]
    {
        let _ = (tag, chunk);
        SpanGuard {}
    }
}

/// Record an instant event.
#[inline]
pub fn instant(tag: TraceTag, chunk: u32) {
    #[cfg(feature = "enabled")]
    {
        if is_active() {
            let now = imp::now_nanos();
            imp::record(TraceEvent {
                tag,
                chunk,
                begin_nanos: now,
                end_nanos: now,
                instant: true,
                args: None,
            });
        }
    }
    #[cfg(not(feature = "enabled"))]
    {
        let _ = (tag, chunk);
    }
}

/// Record an instant event carrying two numeric arguments (EUPA trials
/// record the measured compression ratio and throughput in MB/s).
#[inline]
pub fn instant_args(tag: TraceTag, chunk: u32, a: f64, b: f64) {
    #[cfg(feature = "enabled")]
    {
        if is_active() {
            let now = imp::now_nanos();
            imp::record(TraceEvent {
                tag,
                chunk,
                begin_nanos: now,
                end_nanos: now,
                instant: true,
                args: Some((a, b)),
            });
        }
    }
    #[cfg(not(feature = "enabled"))]
    {
        let _ = (tag, chunk, a, b);
    }
}

/// Move the calling thread's ring into the global registry.
///
/// Worker threads must call this as the last thing they do: the TLS
/// destructor also flushes, but `std::thread::scope` can return as
/// soon as a worker's closure finishes — *before* its TLS destructors
/// run — so a collector relying only on the destructor would race the
/// exiting thread. The destructor remains as a best-effort fallback
/// for threads that forget.
pub fn flush_thread() {
    #[cfg(feature = "enabled")]
    {
        imp::flush_thread();
    }
}

/// Collect everything recorded so far: the calling thread's ring plus
/// every ring flushed by exited (or explicitly flushed) threads.
///
/// Rings of *other still-live* threads are not reachable; in the
/// ISOBAR pipelines every worker calls [`flush_thread`] before its
/// scoped closure returns, so by the time the spawning thread collects,
/// all worker events are in the registry. Draining resets the recorded
/// state.
pub fn drain() -> Trace {
    #[cfg(feature = "enabled")]
    {
        imp::flush_thread();
        let mut threads = imp::take_drained();
        threads.sort_by_key(|t| t.tid);
        Trace { threads }
    }
    #[cfg(not(feature = "enabled"))]
    {
        Trace::default()
    }
}

/// Discard everything recorded so far (the calling thread's ring and
/// the global registry). Does not change the active flag.
pub fn reset() {
    #[cfg(feature = "enabled")]
    {
        imp::flush_thread();
        let _ = imp::take_drained();
    }
}

/// Records one begin/end span on drop. Inert when tracing was
/// inactive at creation or compiled out.
#[must_use = "a span guard that is immediately dropped records a zero-length span"]
pub struct SpanGuard {
    #[cfg(feature = "enabled")]
    armed: bool,
    #[cfg(feature = "enabled")]
    tag: TraceTag,
    #[cfg(feature = "enabled")]
    chunk: u32,
    #[cfg(feature = "enabled")]
    begin_nanos: u64,
}

#[cfg(feature = "enabled")]
impl Drop for SpanGuard {
    #[inline]
    fn drop(&mut self) {
        if self.armed {
            imp::record(TraceEvent {
                tag: self.tag,
                chunk: self.chunk,
                begin_nanos: self.begin_nanos,
                end_nanos: imp::now_nanos(),
                instant: false,
                args: None,
            });
        }
    }
}

impl Trace {
    /// Total events across all threads.
    pub fn event_count(&self) -> usize {
        self.threads.iter().map(|t| t.events.len()).sum()
    }

    /// Total events lost to ring overwrites.
    pub fn dropped_count(&self) -> u64 {
        self.threads.iter().map(|t| t.dropped).sum()
    }

    /// Serialize to the Chrome trace-event JSON array format, loadable
    /// in Perfetto and `chrome://tracing`.
    ///
    /// Spans become balanced `B`/`E` pairs, instants become `i` events
    /// with `"s": "t"` (thread scope). Per thread, events are emitted
    /// in non-decreasing timestamp order with proper nesting (ties
    /// break as end-before-begin, outer-begin-before-inner-begin), so
    /// any stack-based consumer sees a well-formed timeline.
    pub fn to_chrome_json(&self) -> String {
        // Ordering ranks for same-timestamp events: close inner spans
        // before opening new ones, open outer (longer) spans first.
        const RANK_END: u8 = 0;
        const RANK_BEGIN: u8 = 1;
        const RANK_INSTANT: u8 = 2;

        let mut out = String::with_capacity(128 + self.event_count() * 96);
        out.push_str("[\n");
        let mut first = true;
        for thread in &self.threads {
            // (ts, rank, duration key, event, is_begin)
            let mut points: Vec<(u64, u8, u64, &TraceEvent, bool)> =
                Vec::with_capacity(thread.events.len() * 2);
            for ev in &thread.events {
                if ev.instant {
                    points.push((ev.begin_nanos, RANK_INSTANT, 0, ev, false));
                } else {
                    let dur = ev.end_nanos.saturating_sub(ev.begin_nanos);
                    // Begins: longer span first (outer before inner).
                    points.push((ev.begin_nanos, RANK_BEGIN, u64::MAX - dur, ev, true));
                    // Ends: shorter span first (inner before outer).
                    points.push((ev.end_nanos, RANK_END, dur, ev, false));
                }
            }
            points.sort_by_key(|&(ts, rank, dur_key, _, _)| (ts, rank, dur_key));
            for (ts, rank, _, ev, is_begin) in points {
                if !first {
                    out.push_str(",\n");
                }
                first = false;
                let ph = if rank == RANK_INSTANT {
                    "i"
                } else if is_begin {
                    "B"
                } else {
                    "E"
                };
                let _ = write!(
                    out,
                    "{{\"name\": \"{}\", \"cat\": \"isobar\", \"ph\": \"{ph}\", \
                     \"ts\": {}.{:03}, \"pid\": 1, \"tid\": {}",
                    ev.tag.name(),
                    ts / 1_000,
                    ts % 1_000,
                    thread.tid,
                );
                if rank == RANK_INSTANT {
                    out.push_str(", \"s\": \"t\"");
                }
                // Args only on the opening edge (and instants) so E
                // events stay minimal, as the format recommends.
                if is_begin || rank == RANK_INSTANT {
                    out.push_str(", \"args\": {");
                    let mut sep = "";
                    if ev.chunk != NO_CHUNK {
                        let _ = write!(out, "\"chunk\": {}", ev.chunk);
                        sep = ", ";
                    }
                    if let Some((a, b)) = ev.args {
                        // JSON has no Infinity/NaN literal; degenerate
                        // measurements (zero-time trials) clamp to 0.
                        let a = if a.is_finite() { a } else { 0.0 };
                        let b = if b.is_finite() { b } else { 0.0 };
                        let _ = write!(out, "{sep}\"ratio\": {a:.4}, \"throughput_mbps\": {b:.2}");
                    }
                    out.push('}');
                }
                out.push('}');
            }
        }
        out.push_str("\n]\n");
        out
    }
}

/// Why a Chrome trace export failed [`validate_chrome_phases`].
///
/// Every variant carries the zero-based line number of the offending
/// event line so a failing export can be located in the raw JSON.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceValidationError {
    /// An event line whose `"ph"` field is missing or not one
    /// character.
    MalformedPhase {
        /// Zero-based line number in the JSON text.
        line: usize,
    },
    /// An event line whose `"ts"` field is missing or not a number.
    MalformedTimestamp {
        /// Zero-based line number in the JSON text.
        line: usize,
    },
    /// A phase character this exporter never emits (only `B`, `E`,
    /// and `i` are valid).
    UnknownPhase {
        /// Zero-based line number in the JSON text.
        line: usize,
        /// The unexpected phase character.
        ph: char,
    },
    /// An `E` event with no open `B` to close.
    UnbalancedEnd {
        /// Zero-based line number in the JSON text.
        line: usize,
    },
    /// `B` events still open when the input ended.
    UnclosedSpans {
        /// How many spans never saw their `E`.
        open: usize,
    },
    /// A timestamp earlier than its predecessor.
    NonMonotonicTimestamp {
        /// Zero-based line number in the JSON text.
        line: usize,
        /// The offending timestamp (microseconds).
        ts: f64,
        /// The preceding timestamp it fell behind (microseconds).
        prev: f64,
    },
}

impl std::fmt::Display for TraceValidationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceValidationError::MalformedPhase { line } => {
                write!(f, "line {line}: \"ph\" missing or not one character")
            }
            TraceValidationError::MalformedTimestamp { line } => {
                write!(f, "line {line}: \"ts\" missing or not a number")
            }
            TraceValidationError::UnknownPhase { line, ph } => {
                write!(f, "line {line}: unknown phase '{ph}' (expected B, E, or i)")
            }
            TraceValidationError::UnbalancedEnd { line } => {
                write!(f, "line {line}: E event with no open span")
            }
            TraceValidationError::UnclosedSpans { open } => {
                write!(f, "{open} span(s) never closed")
            }
            TraceValidationError::NonMonotonicTimestamp { line, ts, prev } => {
                write!(
                    f,
                    "line {line}: timestamp {ts} goes back in time (prev {prev})"
                )
            }
        }
    }
}

impl std::error::Error for TraceValidationError {}

/// Phase counts from a validated Chrome export.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChromePhaseSummary {
    /// Completed `B`/`E` pairs.
    pub spans: usize,
    /// `i` events.
    pub instants: usize,
}

/// Validate the phase structure of a [`Trace::to_chrome_json`] export:
/// every event line's `ph` must be `B`, `E`, or `i`, begins and ends
/// must balance *per thread*, and each thread's timestamps must be
/// non-decreasing.
///
/// This is a line-oriented check of *this crate's own* export (one
/// event per line as the exporter emits it), deliberately
/// dependency-free — CI smoke tests and debug assertions can call it
/// without a JSON parser. Events are grouped by their `"tid"` field
/// (missing tid ⇒ thread 0): the exporter orders events within a
/// thread but threads are emitted one after another with independent
/// clocks, so depth and monotonicity are tracked per tid — a
/// multi-thread serve dump validates exactly like a single-thread
/// pipeline export. Returns the phase counts on success and a typed
/// [`TraceValidationError`] (never a panic) on any malformed input.
pub fn validate_chrome_phases(json: &str) -> Result<ChromePhaseSummary, TraceValidationError> {
    struct TidState {
        tid: u64,
        depth: usize,
        last_ts: f64,
    }
    let mut summary = ChromePhaseSummary::default();
    // Per-thread stacks; a Vec scan beats a HashMap for the handful of
    // tids a real export carries.
    let mut tids: Vec<TidState> = Vec::new();
    for (line_no, line) in json.lines().enumerate() {
        if !line.contains("\"ph\"") {
            continue;
        }
        let ph = match line.split("\"ph\": \"").nth(1).map(|rest| {
            let mut chars = rest.chars();
            (chars.next(), chars.next())
        }) {
            Some((Some(ph), Some('"'))) => ph,
            _ => return Err(TraceValidationError::MalformedPhase { line: line_no }),
        };
        let ts: f64 = line
            .split("\"ts\": ")
            .nth(1)
            .and_then(|rest| {
                // The exporter emits a plain non-negative decimal.
                let end = rest
                    .find(|c: char| !c.is_ascii_digit() && c != '.')
                    .unwrap_or(rest.len());
                rest[..end].parse().ok()
            })
            .ok_or(TraceValidationError::MalformedTimestamp { line: line_no })?;
        let tid: u64 = line
            .split("\"tid\": ")
            .nth(1)
            .and_then(|rest| {
                let end = rest
                    .find(|c: char| !c.is_ascii_digit())
                    .unwrap_or(rest.len());
                rest[..end].parse().ok()
            })
            .unwrap_or(0);
        let state = match tids.iter_mut().find(|s| s.tid == tid) {
            Some(state) => state,
            None => {
                tids.push(TidState {
                    tid,
                    depth: 0,
                    last_ts: f64::NEG_INFINITY,
                });
                tids.last_mut().expect("just pushed")
            }
        };
        if ts < state.last_ts {
            return Err(TraceValidationError::NonMonotonicTimestamp {
                line: line_no,
                ts,
                prev: state.last_ts,
            });
        }
        state.last_ts = ts;
        match ph {
            'B' => state.depth += 1,
            'E' => {
                if state.depth == 0 {
                    return Err(TraceValidationError::UnbalancedEnd { line: line_no });
                }
                state.depth -= 1;
                summary.spans += 1;
            }
            'i' => summary.instants += 1,
            other => {
                return Err(TraceValidationError::UnknownPhase {
                    line: line_no,
                    ph: other,
                })
            }
        }
    }
    let open: usize = tids.iter().map(|s| s.depth).sum();
    if open > 0 {
        return Err(TraceValidationError::UnclosedSpans { open });
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    // Trace state is process-global; tests in this module serialize on
    // a lock and fully reset around themselves.
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn inactive_recording_is_empty() {
        let _guard = locked();
        reset();
        set_active(false);
        let _span = span(TraceTag::Analyze, 0);
        instant(TraceTag::EupaTrial, 1);
        drop(_span);
        assert_eq!(drain().event_count(), 0);
    }

    #[test]
    fn spans_and_instants_round_trip() {
        let _guard = locked();
        reset();
        set_active(true);
        {
            let _outer = span(TraceTag::ChunkCompress, 3);
            let _inner = span(TraceTag::Analyze, 3);
            instant_args(TraceTag::EupaTrial, 1, 1.5, 250.0);
        }
        set_active(false);
        let trace = drain();
        if !ENABLED {
            assert_eq!(trace.event_count(), 0);
            return;
        }
        assert_eq!(trace.threads.len(), 1);
        let events = &trace.threads[0].events;
        assert_eq!(events.len(), 3);
        // Ring order: instant first (recorded at its own time), then
        // inner span (ends first), then outer.
        assert!(events
            .iter()
            .any(|e| e.instant && e.args == Some((1.5, 250.0))));
        let outer = events
            .iter()
            .find(|e| e.tag == TraceTag::ChunkCompress)
            .unwrap();
        let inner = events.iter().find(|e| e.tag == TraceTag::Analyze).unwrap();
        assert!(outer.begin_nanos <= inner.begin_nanos);
        assert!(inner.end_nanos <= outer.end_nanos);
        assert_eq!(outer.chunk, 3);
    }

    #[test]
    fn ring_overwrites_oldest_when_full() {
        let _guard = locked();
        reset();
        set_thread_capacity(4);
        set_active(true);
        for i in 0..10u32 {
            instant(TraceTag::ChunkMerge, i);
        }
        set_active(false);
        set_thread_capacity(DEFAULT_THREAD_CAPACITY);
        let trace = drain();
        if !ENABLED {
            return;
        }
        assert_eq!(trace.threads.len(), 1);
        let t = &trace.threads[0];
        assert_eq!(t.events.len(), 4);
        assert_eq!(t.dropped, 6);
        // Oldest-first after the rotation: chunks 6, 7, 8, 9.
        let chunks: Vec<u32> = t.events.iter().map(|e| e.chunk).collect();
        assert_eq!(chunks, vec![6, 7, 8, 9]);
    }

    #[test]
    fn worker_thread_rings_drain_at_exit() {
        let _guard = locked();
        reset();
        set_active(true);
        std::thread::scope(|scope| {
            for _ in 0..3 {
                scope.spawn(|| {
                    {
                        let _span = span(TraceTag::ChunkDecode, 0);
                    }
                    // Deterministic hand-off: scope can unblock before
                    // TLS destructors run, so workers flush explicitly.
                    flush_thread();
                });
            }
        });
        set_active(false);
        let trace = drain();
        if !ENABLED {
            return;
        }
        assert_eq!(trace.threads.len(), 3);
        let mut tids: Vec<u32> = trace.threads.iter().map(|t| t.tid).collect();
        tids.dedup();
        assert_eq!(tids.len(), 3, "thread ids are distinct");
    }

    #[test]
    fn chrome_json_is_balanced_and_monotonic() {
        let _guard = locked();
        reset();
        set_active(true);
        {
            let _outer = span(TraceTag::ChunkCompress, 0);
            {
                let _inner = span(TraceTag::Analyze, 0);
            }
            {
                let _inner = span(TraceTag::SolverCompress, 0);
            }
            instant(TraceTag::EupaSelected, NO_CHUNK);
        }
        set_active(false);
        let json = drain().to_chrome_json();
        if !ENABLED {
            assert_eq!(json.trim(), "[\n\n]");
            return;
        }
        // Balanced B/E, stack-valid nesting, non-decreasing ts.
        let summary = validate_chrome_phases(&json).expect("own export validates");
        assert_eq!(summary.spans, 3);
        assert_eq!(summary.instants, 1);
    }

    #[test]
    fn validator_reports_typed_errors_not_panics() {
        // Each fixture is a hand-corrupted export line; the validator
        // must answer with the matching typed error, never a panic.
        let ok = "{\"name\": \"a\", \"ph\": \"B\", \"ts\": 1.000, \"tid\": 1},\n\
                  {\"name\": \"a\", \"ph\": \"E\", \"ts\": 2.000, \"tid\": 1}";
        assert_eq!(
            validate_chrome_phases(ok),
            Ok(ChromePhaseSummary {
                spans: 1,
                instants: 0
            })
        );

        // The historical panic path: a phase the exporter never emits.
        let bad_ph = "{\"name\": \"a\", \"ph\": \"X\", \"ts\": 1.000, \"tid\": 1}";
        assert_eq!(
            validate_chrome_phases(bad_ph),
            Err(TraceValidationError::UnknownPhase { line: 0, ph: 'X' })
        );

        // Multi-character / truncated ph field.
        let malformed = "{\"name\": \"a\", \"ph\": \"\", \"ts\": 1.000}";
        assert_eq!(
            validate_chrome_phases(malformed),
            Err(TraceValidationError::MalformedPhase { line: 0 })
        );

        // ph present but ts missing.
        let no_ts = "{\"name\": \"a\", \"ph\": \"B\"}";
        assert_eq!(
            validate_chrome_phases(no_ts),
            Err(TraceValidationError::MalformedTimestamp { line: 0 })
        );

        // E with nothing open.
        let stray_end = "{\"name\": \"a\", \"ph\": \"E\", \"ts\": 1.000}";
        assert_eq!(
            validate_chrome_phases(stray_end),
            Err(TraceValidationError::UnbalancedEnd { line: 0 })
        );

        // B never closed.
        let unclosed = "{\"name\": \"a\", \"ph\": \"B\", \"ts\": 1.000}";
        assert_eq!(
            validate_chrome_phases(unclosed),
            Err(TraceValidationError::UnclosedSpans { open: 1 })
        );

        // Time runs backwards.
        let backwards = "{\"name\": \"a\", \"ph\": \"i\", \"ts\": 5.000},\n\
                         {\"name\": \"b\", \"ph\": \"i\", \"ts\": 1.000}";
        assert_eq!(
            validate_chrome_phases(backwards),
            Err(TraceValidationError::NonMonotonicTimestamp {
                line: 1,
                ts: 1.0,
                prev: 5.0
            })
        );

        // Errors render as messages (the Display path is what CI logs).
        let err = validate_chrome_phases(bad_ph).unwrap_err();
        assert!(err.to_string().contains("unknown phase 'X'"));
    }

    #[test]
    fn validator_tracks_threads_independently() {
        // The exporter emits threads back to back, each with its own
        // clock: thread 2 restarting behind thread 1 is well-formed,
        // and a global monotonicity check would reject every
        // multi-thread dump.
        let multi = "{\"name\": \"a\", \"ph\": \"B\", \"ts\": 10.000, \"tid\": 1},\n\
                     {\"name\": \"a\", \"ph\": \"E\", \"ts\": 20.000, \"tid\": 1},\n\
                     {\"name\": \"b\", \"ph\": \"B\", \"ts\": 1.000, \"tid\": 2},\n\
                     {\"name\": \"b\", \"ph\": \"E\", \"ts\": 2.000, \"tid\": 2}";
        assert_eq!(
            validate_chrome_phases(multi),
            Ok(ChromePhaseSummary {
                spans: 2,
                instants: 0
            })
        );

        // A B on one thread cannot satisfy an E on another.
        let cross = "{\"name\": \"a\", \"ph\": \"B\", \"ts\": 1.000, \"tid\": 1},\n\
                     {\"name\": \"b\", \"ph\": \"E\", \"ts\": 2.000, \"tid\": 2}";
        assert_eq!(
            validate_chrome_phases(cross),
            Err(TraceValidationError::UnbalancedEnd { line: 1 })
        );

        // Unclosed spans are summed across threads.
        let open = "{\"name\": \"a\", \"ph\": \"B\", \"ts\": 1.000, \"tid\": 1},\n\
                    {\"name\": \"b\", \"ph\": \"B\", \"ts\": 1.000, \"tid\": 2}";
        assert_eq!(
            validate_chrome_phases(open),
            Err(TraceValidationError::UnclosedSpans { open: 2 })
        );
    }

    #[test]
    fn disabled_api_is_inert() {
        // Exercise the whole surface so the trace-off build's empty
        // bodies stay covered.
        let _guard = locked();
        reset();
        assert_eq!(is_active(), is_active());
        flush_thread();
        let t = Trace::default();
        assert_eq!(t.event_count(), 0);
        assert_eq!(t.dropped_count(), 0);
        assert!(t.to_chrome_json().starts_with('['));
    }
}
