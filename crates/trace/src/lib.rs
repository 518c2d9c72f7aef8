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
//! * An event is named by a `&'static str`: the name of an
//!   `isobar_telemetry::Phase`, which converts into one. This crate
//!   stays dependency-free and never names the enum.
//! * [`record_span`] records a span from two clock readings the caller
//!   already took (the guard that also feeds a stage total or the
//!   serve ledger); [`span`] returns a guard for sections that only
//!   appear on the timeline; [`instant_args`] records a point event.
//! * When a thread exits or calls [`flush_thread`], its ring drains
//!   into a global registry, capped at [`REGISTRY_CAPACITY`] events
//!   (oldest dropped first); the collector ([`drain`]) gathers the
//!   registry plus the calling thread's ring into a [`Trace`].
//! * Tracing is *inactive* until [`set_active`]`(true)` — an idle call
//!   site costs one relaxed atomic load and a branch.
//!
//! # The off switch
//!
//! Building without the `enabled` feature (the workspace's
//! telemetry-off configuration, `cargo build --no-default-features`)
//! turns every recording function into an empty `#[inline]` body and
//! [`SpanGuard`] into a zero-sized type with no `Drop` impl: all call
//! sites compile away, mirroring `isobar_telemetry::ENABLED`.
//!
//! # Example
//!
//! ```
//! use isobar_trace as trace;
//!
//! trace::reset();
//! trace::set_active(true);
//! {
//!     let _span = trace::span("analyze", 0);
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
use std::time::Instant;

/// Compile-time flag: `true` when this build records trace events.
pub const ENABLED: bool = cfg!(feature = "enabled");

/// Chunk index used for events that do not belong to a chunk (EUPA,
/// container metadata, store operations).
pub const NO_CHUNK: u32 = u32::MAX;

/// Default per-thread ring capacity, in events.
pub const DEFAULT_THREAD_CAPACITY: usize = 16 * 1024;

/// Events the registry of flushed rings holds for the collector (16 MiB
/// of events); past it the oldest are dropped. A daemon that records
/// and never collects stays bounded.
pub const REGISTRY_CAPACITY: usize = 16 * DEFAULT_THREAD_CAPACITY;

/// One recorded event: a begin/end span or an instant, stamped with a
/// monotonic nanosecond clock shared by every thread in the process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// What the event describes: a phase's name.
    pub name: &'static str,
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
    /// Events the registry dropped, oldest first, to stay under
    /// [`REGISTRY_CAPACITY`].
    pub dropped: u64,
}

#[cfg(feature = "enabled")]
mod imp {
    use super::{ThreadTrace, TraceEvent, REGISTRY_CAPACITY};
    use std::cell::RefCell;
    use std::collections::VecDeque;
    use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
    use std::sync::{Mutex, OnceLock};
    use std::time::Instant;

    pub(crate) static ACTIVE: AtomicBool = AtomicBool::new(false);
    static NEXT_TID: AtomicU32 = AtomicU32::new(1);
    static CAPACITY: AtomicUsize = AtomicUsize::new(super::DEFAULT_THREAD_CAPACITY);
    static DRAINED: Mutex<Registry> = Mutex::new(Registry {
        threads: VecDeque::new(),
        events: 0,
        dropped: 0,
    });
    static EPOCH: OnceLock<Instant> = OnceLock::new();

    /// Flushed rings waiting for the collector, oldest first.
    struct Registry {
        threads: VecDeque<ThreadTrace>,
        /// Events held across `threads`, at most [`REGISTRY_CAPACITY`].
        events: usize,
        /// Events dropped to stay under the cap, with the ring
        /// overwrites of every trace dropped whole.
        dropped: u64,
    }

    impl Registry {
        fn push(&mut self, trace: ThreadTrace) {
            self.events += trace.events.len();
            self.threads.push_back(trace);
            while self.events > REGISTRY_CAPACITY {
                let oldest = &mut self.threads[0];
                let evict = (self.events - REGISTRY_CAPACITY).min(oldest.events.len());
                oldest.events.drain(..evict);
                self.events -= evict;
                self.dropped += evict as u64;
                if oldest.events.is_empty() {
                    self.dropped += oldest.dropped;
                    self.threads.pop_front();
                }
            }
        }
    }

    /// Nanoseconds from the process trace epoch (fixed by the first
    /// activation) to `t`.
    #[inline]
    pub(crate) fn since_epoch(t: Instant) -> u64 {
        t.saturating_duration_since(epoch()).as_nanos() as u64
    }

    pub(crate) fn epoch() -> Instant {
        *EPOCH.get_or_init(Instant::now)
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

        /// Hand the recorded events over, oldest first, in a vector
        /// sized to them, and empty the ring in place: it keeps its
        /// thread id and its one allocation.
        fn take_trace(&mut self) -> ThreadTrace {
            let mut events = Vec::with_capacity(self.slots.len());
            events.extend_from_slice(&self.slots[self.next..]);
            events.extend_from_slice(&self.slots[..self.next]);
            self.slots.clear();
            self.next = 0;
            ThreadTrace {
                tid: self.tid,
                events,
                dropped: std::mem::take(&mut self.dropped),
            }
        }
    }

    impl Drop for Ring {
        fn drop(&mut self) {
            // Thread exit: hand the recorded events to the collector.
            flush_ring(self.take_trace());
        }
    }

    fn flush_ring(trace: ThreadTrace) {
        if !trace.events.is_empty() {
            DRAINED
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(trace);
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
                if let Some(ring) = ring.as_mut() {
                    flush_ring(ring.take_trace());
                }
            }
        });
    }

    /// Empty the registry: its traces, oldest first, and its count of
    /// dropped events.
    pub(crate) fn take_drained() -> (Vec<ThreadTrace>, u64) {
        let mut registry = DRAINED.lock().unwrap_or_else(|e| e.into_inner());
        registry.events = 0;
        let threads = std::mem::take(&mut registry.threads).into();
        (threads, std::mem::take(&mut registry.dropped))
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
        // Fix the epoch first, so every span opened while active
        // begins at or after it.
        imp::epoch();
        imp::ACTIVE.store(active, std::sync::atomic::Ordering::Relaxed);
    }
    #[cfg(not(feature = "enabled"))]
    {
        let _ = active;
    }
}

/// Whether recording is currently active (always `false` in the
/// telemetry-off build).
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

/// Record one span of `name` for `chunk` from two clock readings the
/// caller took (use [`NO_CHUNK`] when the work is not chunk-scoped).
/// Nothing is recorded while tracing is inactive (or compiled out).
#[inline]
pub fn record_span(name: impl Into<&'static str>, chunk: u32, begin: Instant, end: Instant) {
    #[cfg(feature = "enabled")]
    {
        if is_active() {
            imp::record(TraceEvent {
                name: name.into(),
                chunk,
                begin_nanos: imp::since_epoch(begin),
                end_nanos: imp::since_epoch(end),
                instant: false,
                args: None,
            });
        }
    }
    #[cfg(not(feature = "enabled"))]
    {
        let _ = (name, chunk, begin, end);
    }
}

/// Begin a timeline-only span of `name` for `chunk`: it records when
/// the guard drops. A section that also feeds a total times itself
/// once and hands both readings to [`record_span`] instead.
///
/// When tracing is inactive (or compiled out) the guard is inert and
/// reads no clock.
#[inline]
pub fn span(name: impl Into<&'static str>, chunk: u32) -> SpanGuard {
    #[cfg(feature = "enabled")]
    {
        SpanGuard {
            name: name.into(),
            chunk,
            begin: is_active().then(Instant::now),
        }
    }
    #[cfg(not(feature = "enabled"))]
    {
        let _ = (name, chunk);
        SpanGuard {}
    }
}

/// Record an instant event carrying two numeric arguments (EUPA trials
/// record the measured compression ratio and throughput in MB/s).
#[inline]
pub fn instant_args(name: impl Into<&'static str>, chunk: u32, a: f64, b: f64) {
    #[cfg(feature = "enabled")]
    {
        if is_active() {
            let now = imp::since_epoch(Instant::now());
            imp::record(TraceEvent {
                name: name.into(),
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
        let _ = (name, chunk, a, b);
    }
}

/// Move the events in the calling thread's ring into the global
/// registry; the ring stays, empty, under the same thread id.
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
/// every ring flushed by exited (or explicitly flushed) threads, one
/// [`ThreadTrace`] per thread id.
///
/// Rings of *other still-live* threads are not reachable; in the
/// ISOBAR pipelines every worker calls [`flush_thread`] before its
/// scoped closure returns, and the store's long-lived workers flush
/// whenever they are about to block, so by the time a thread collects,
/// their events are in the registry. Draining resets the recorded
/// state.
pub fn drain() -> Trace {
    #[cfg(feature = "enabled")]
    {
        imp::flush_thread();
        let (mut threads, dropped) = imp::take_drained();
        // Stable: one thread's flushes stay in the order they came, and
        // fold into its first.
        threads.sort_by_key(|t| t.tid);
        threads.dedup_by(|later, first| {
            let same = later.tid == first.tid;
            if same {
                first.events.append(&mut later.events);
                first.dropped += later.dropped;
            }
            same
        });
        Trace { threads, dropped }
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
/// inactive at creation or at the drop, or compiled out.
#[must_use = "a span guard that is immediately dropped records a zero-length span"]
pub struct SpanGuard {
    #[cfg(feature = "enabled")]
    name: &'static str,
    #[cfg(feature = "enabled")]
    chunk: u32,
    /// The opening clock reading; `None` when tracing was inactive.
    #[cfg(feature = "enabled")]
    begin: Option<Instant>,
}

#[cfg(feature = "enabled")]
impl Drop for SpanGuard {
    #[inline]
    fn drop(&mut self) {
        if let Some(begin) = self.begin {
            record_span(self.name, self.chunk, begin, Instant::now());
        }
    }
}

impl Trace {
    /// Total events across all threads.
    pub fn event_count(&self) -> usize {
        self.threads.iter().map(|t| t.events.len()).sum()
    }

    /// Total events lost to ring overwrites and the registry's cap.
    pub fn dropped_count(&self) -> u64 {
        self.dropped + self.threads.iter().map(|t| t.dropped).sum::<u64>()
    }

    /// Serialize to the Chrome trace-event JSON array format, loadable
    /// in Perfetto and `chrome://tracing`, one event per line.
    ///
    /// Spans become balanced `B`/`E` pairs, instants become `i` events
    /// with `"s": "t"` (thread scope). Per thread, events are emitted
    /// in non-decreasing timestamp order with proper nesting, so any
    /// stack-based consumer sees a well-formed timeline. At one
    /// timestamp: spans that end there close first (inner first), then
    /// zero-length spans open and close in place, then spans that
    /// begin there open (outer first), then instants. Equal intervals
    /// nest in ring order: an inner span closes, and is recorded,
    /// before its parent.
    pub fn to_chrome_json(&self) -> String {
        const RANK_END: u8 = 0;
        const RANK_ZERO: u8 = 1;
        const RANK_BEGIN: u8 = 2;
        const RANK_INSTANT: u8 = 3;

        let mut out = String::with_capacity(128 + self.event_count() * 96);
        out.push_str("[\n");
        let mut first = true;
        for thread in &self.threads {
            // (ts, rank, tie keys, event, ph)
            let mut points: Vec<(u64, u8, u64, u64, &TraceEvent, char)> =
                Vec::with_capacity(thread.events.len() * 2);
            for (i, ev) in thread.events.iter().enumerate() {
                let (t, i) = (ev.begin_nanos, i as u64);
                let dur = ev.end_nanos.saturating_sub(t);
                if ev.instant {
                    points.push((t, RANK_INSTANT, i, 0, ev, 'i'));
                } else if dur == 0 {
                    points.push((t, RANK_ZERO, i, 0, ev, 'B'));
                    points.push((t, RANK_ZERO, i, 1, ev, 'E'));
                } else {
                    points.push((t, RANK_BEGIN, u64::MAX - dur, u64::MAX - i, ev, 'B'));
                    points.push((ev.end_nanos, RANK_END, dur, i, ev, 'E'));
                }
            }
            points.sort_unstable_by_key(|&(ts, rank, k1, k2, _, _)| (ts, rank, k1, k2));
            for (ts, _, _, _, ev, ph) in points {
                if !first {
                    out.push_str(",\n");
                }
                first = false;
                let _ = write!(
                    out,
                    "{{\"name\": \"{}\", \"cat\": \"isobar\", \"ph\": \"{ph}\", \
                     \"ts\": {}.{:03}, \"pid\": 1, \"tid\": {}",
                    ev.name,
                    ts / 1_000,
                    ts % 1_000,
                    thread.tid,
                );
                if ph == 'i' {
                    out.push_str(", \"s\": \"t\"");
                }
                // Args only on the opening edge (and instants) so E
                // events stay minimal, as the format recommends.
                if ph != 'E' {
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
        let _span = span("analyze", 0);
        instant_args("eupa_trial", 1, 0.0, 0.0);
        drop(_span);
        assert_eq!(drain().event_count(), 0);
    }

    #[test]
    fn spans_and_instants_round_trip() {
        let _guard = locked();
        reset();
        set_active(true);
        {
            let _outer = span("chunk_compress", 3);
            let _inner = span("analyze", 3);
            instant_args("eupa_trial", 1, 1.5, 250.0);
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
        let outer = events.iter().find(|e| e.name == "chunk_compress").unwrap();
        let inner = events.iter().find(|e| e.name == "analyze").unwrap();
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
            instant_args("chunk_merge", i, 0.0, 0.0);
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
    fn flushed_rings_are_trimmed_merged_per_thread_and_capped() {
        let _guard = locked();
        reset();
        set_active(true);
        // One thread flushing a full default ring, again and again:
        // one past the registry's cap.
        let flushes = REGISTRY_CAPACITY / DEFAULT_THREAD_CAPACITY + 1;
        for flush in 0..flushes {
            for i in 0..DEFAULT_THREAD_CAPACITY {
                let chunk = flush * DEFAULT_THREAD_CAPACITY + i;
                instant_args("chunk_merge", chunk as u32, 0.0, 0.0);
            }
            flush_thread();
        }
        instant_args("chunk_merge", u32::MAX - 1, 0.0, 0.0);
        set_active(false);
        let trace = drain();
        if !ENABLED {
            return;
        }
        // The registry kept the newest REGISTRY_CAPACITY events, the
        // one the collector flushed last included, as one thread.
        assert_eq!(trace.threads.len(), 1);
        let events = &trace.threads[0].events;
        assert_eq!(events.len(), REGISTRY_CAPACITY);
        let dropped = DEFAULT_THREAD_CAPACITY + 1;
        assert_eq!(trace.dropped_count(), dropped as u64);
        assert_eq!(events[0].chunk, dropped as u32);
        assert_eq!(events[REGISTRY_CAPACITY - 1].chunk, u32::MAX - 1);

        // A flushed ring hands over only what it recorded.
        set_active(true);
        instant_args("chunk_merge", 0, 0.0, 0.0);
        flush_thread();
        set_active(false);
        let trace = drain();
        assert_eq!(trace.threads[0].events.len(), 1);
        assert_eq!(trace.threads[0].events.capacity(), 1);
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
                        let _span = span("chunk_decode", 0);
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

    /// The `ph` field of every line of an export, in order.
    fn phases(json: &str) -> String {
        json.lines()
            .filter_map(|line| line.split("\"ph\": \"").nth(1))
            .map(|rest| rest.chars().next().unwrap())
            .collect()
    }

    #[test]
    fn chrome_json_is_balanced_and_monotonic() {
        let _guard = locked();
        reset();
        set_active(true);
        {
            let _outer = span("chunk_compress", 0);
            {
                let _inner = span("analyze", 0);
            }
            {
                let _inner = span("solver_compress", 0);
            }
            instant_args("eupa_selected", NO_CHUNK, 1.0, 1.0);
        }
        set_active(false);
        let json = drain().to_chrome_json();
        if !ENABLED {
            assert_eq!(json.trim(), "[\n\n]");
            return;
        }
        assert_eq!(phases(&json), "BBEBEiE", "{json}");
    }

    #[test]
    fn a_zero_length_span_opens_before_it_closes() {
        // A span whose two clock readings are equal, at the instant a
        // longer span ends and another begins: the ends close first,
        // the zero-length span opens and closes in place, then the
        // next span opens.
        let event = |name, begin_nanos, end_nanos| TraceEvent {
            name,
            chunk: NO_CHUNK,
            begin_nanos,
            end_nanos,
            instant: false,
            args: None,
        };
        let trace = Trace {
            threads: vec![ThreadTrace {
                tid: 1,
                events: vec![
                    event("chunk_merge", 1_000, 1_000),
                    event("analyze", 0, 1_000),
                    event("partition", 1_000, 2_000),
                ],
                dropped: 0,
            }],
            dropped: 0,
        };
        let json = trace.to_chrome_json();
        let names: Vec<&str> = json
            .lines()
            .filter_map(|line| line.split('"').nth(3))
            .collect();
        assert_eq!(phases(&json), "BEBEBE", "{json}");
        assert_eq!(
            names,
            [
                "analyze",
                "analyze",
                "chunk_merge",
                "chunk_merge",
                "partition",
                "partition"
            ]
        );
    }

    #[test]
    fn disabled_api_is_inert() {
        // Exercise the whole surface so the telemetry-off build's empty
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
