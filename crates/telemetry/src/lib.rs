#![warn(missing_docs)]

//! Pipeline telemetry: counters, histograms, and stage timers for the
//! ISOBAR workflow, designed to cost nothing when disabled.
//!
//! The ISOBAR paper's argument rests on *measurable* per-stage behavior
//! — which byte-columns the analyzer classifies as compressible (§II.A),
//! what the EUPA selector picks (§II.C), and what throughput each stage
//! sustains (Tables V/IX). This crate provides the recording substrate
//! every other crate in the workspace threads through its hot paths:
//!
//! * [`Recorder`] — a per-thread bundle of counters, stage timers, and
//!   histograms. Recording a value is a couple of integer adds into
//!   fixed-size arrays: no allocation, no locks, no atomics.
//! * [`TelemetrySnapshot`] — the plain-data view of a recorder.
//!   Snapshots are serializable to JSON ([`TelemetrySnapshot::to_json`],
//!   readable with [`json::parse`]) and mergeable
//!   ([`TelemetrySnapshot::merge`]) so per-worker recorders can be
//!   aggregated at a pipeline join in any order.
//! * [`StageTimer`] — a guard that measures one stage span and folds it
//!   into a recorder.
//!
//! # The off switch
//!
//! Building this crate without its `enabled` feature (the workspace's
//! *telemetry-off* configuration, `cargo build --no-default-features`)
//! turns [`Recorder`] into a zero-sized type whose methods are empty
//! `#[inline]` bodies and [`StageTimer`] into a guard that never reads
//! the clock. Every call site compiles away; the allocation-free hot
//! paths of the compression pipeline are byte-for-byte unaffected. Code
//! that wants to skip work feeding a recorder (e.g. the analyzer's
//! τ-margin scan) can branch on the compile-time constant [`ENABLED`].
//!
//! # Example
//!
//! ```
//! use isobar_telemetry::{Counter, Recorder, Stage};
//!
//! let mut rec = Recorder::new();
//! rec.add(Counter::ChunkInputBytes, 3_000_000);
//! rec.record_stage(Stage::SolverCompress, 1_250_000);
//!
//! let snap = rec.snapshot();
//! let doc = isobar_telemetry::json::parse(&snap.to_json()).unwrap();
//! let bytes = doc.get("counters").and_then(|c| c.get("chunk_input_bytes"));
//! let recorded = snap.counters[Counter::ChunkInputBytes as usize]; // 0 when compiled out
//! assert_eq!(bytes.and_then(|v| v.as_u64()), Some(recorded));
//! ```

pub mod json;
pub mod latency;
mod snapshot;

pub use latency::{LatencyHistogram, LATENCY_BUCKETS};
pub use snapshot::{
    kernel_tier_name, StageStats, TelemetrySnapshot, EUPA_COMBOS, HISTOGRAM_BUCKETS,
    SNAPSHOT_SCHEMA_VERSION,
};

/// Compile-time flag: `true` when this build records telemetry.
///
/// Branch on this to skip *computing* a value that exists only to be
/// recorded (the recording call itself is already free when disabled).
pub const ENABLED: bool = cfg!(feature = "enabled");

/// One named monotonic counter.
///
/// The discriminant doubles as the index into
/// [`TelemetrySnapshot::counters`]; the JSON key is [`Counter::name`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Chunks classified by the analyzer.
    AnalyzerChunks,
    /// Bytes the analyzer histogrammed.
    AnalyzerBytes,
    /// Byte-columns that passed the frequency test (signal).
    ColumnsCompressible,
    /// Byte-columns that failed the frequency test (noise).
    ColumnsIncompressible,
    /// Bytes routed to the solver by the partitioner (paper's C).
    PartitionCompressibleBytes,
    /// Bytes stored verbatim by the partitioner (paper's I) — the
    /// counter behind Table IV's "HTC Bytes (%)".
    PartitionVerbatimBytes,
    /// EUPA selection rounds (one per dataset/stream, unless overridden).
    EupaRuns,
    /// Chunks pushed through the compression pipeline.
    ChunksCompressed,
    /// Chunks decoded back.
    ChunksDecompressed,
    /// Chunks encoded whole (undetermined data, Algorithm 1 lines 2–3).
    ChunksPassthrough,
    /// Chunks split into C + I (improvable data, lines 5–7).
    ChunksPartitioned,
    /// Original bytes entering the per-chunk compress loop.
    ChunkInputBytes,
    /// Container bytes produced by the per-chunk compress loop
    /// (payloads + per-chunk metadata).
    ChunkOutputBytes,
    /// Bytes reconstructed by the decode loop.
    ChunkDecodedBytes,
    /// Container metadata bytes (file headers, chunk headers, and a
    /// streamed container's trailer).
    ContainerMetadataBytes,
    /// Chunk compressions that reused warm scratch capacity.
    ScratchReuseHits,
    /// Chunk compressions that had to grow the scratch.
    ScratchReuseMisses,
    /// Variables written to a checkpoint store.
    StorePuts,
    /// ISOBAR container bytes appended to a store.
    StoreContainerBytes,
    /// Raw (uncompressed) bytes handed to a store.
    StoreRawBytes,
    /// Containers rejected as corrupt during decode, by the slice
    /// `decompress` or the reader.
    ContainerCorruptRejected,
    /// Stores rejected as corrupt while opening or reading.
    StoreCorruptRejected,
    /// Checksum verification failures across all formats (container
    /// chunks and trailers, store entries/index).
    ChecksumMismatches,
    /// Chunks stored verbatim because the solver panicked mid-compress
    /// (the pipeline's graceful-degradation fallback).
    ChunksVerbatimFallback,
    /// Damaged chunks/frames/entries skipped by salvage-mode decode.
    ChunksSkippedCorrupt,
    /// Segment files committed by sharded-store manifest commits.
    StoreSegmentsCommitted,
    /// Manifest bytes written by sharded-store commits.
    StoreManifestBytes,
    /// Index entries superseded by a later put of the same
    /// `(step, variable)` pair in a sharded store.
    StoreSupersededEntries,
    /// Sharded-store compaction passes completed.
    StoreCompactionsRun,
    /// Requests decoded and dispatched by the serve daemon.
    ServeRequests,
    /// Payload bytes accepted by serve `put` requests.
    ServePutBytes,
    /// Payload bytes returned by serve `get` requests.
    ServeGetBytes,
    /// Requests rejected with `Busy` by serve admission control.
    ServeBusyRejected,
    /// Malformed request frames rejected by the serve decoder.
    ServeProtocolErrors,
    /// Store generations committed by the serve daemon (threshold
    /// rolls plus the final shutdown commit).
    ServeCommits,
    /// Requests whose wall time exceeded the serve daemon's
    /// `--slow-ms` threshold (each also lands in the slow-request
    /// JSONL log when the flight recorder is on).
    ServeSlowRequests,
    /// Flight-recorder Chrome-trace dumps written by the serve daemon
    /// (SIGUSR1, panic, or slow-request triggers).
    ServeFlightDumps,
    /// Records appended (and fsynced) to the serve daemon's
    /// write-ahead journal — one per acked put while the WAL is on.
    ServeWalAppends,
    /// Payload bytes made durable through the serve write-ahead
    /// journal before their acks.
    ServeWalBytes,
    /// Journal records replayed into the overlay on daemon startup
    /// (acked writes recovered after a crash).
    ServeWalReplayed,
    /// Write-ahead journal truncations (one per generation commit
    /// that had journaled puts to retire).
    ServeWalTruncations,
}

impl Counter {
    /// Number of counters (array size).
    pub const COUNT: usize = 41;

    /// Every counter, in stable JSON order.
    pub const ALL: [Counter; Counter::COUNT] = [
        Counter::AnalyzerChunks,
        Counter::AnalyzerBytes,
        Counter::ColumnsCompressible,
        Counter::ColumnsIncompressible,
        Counter::PartitionCompressibleBytes,
        Counter::PartitionVerbatimBytes,
        Counter::EupaRuns,
        Counter::ChunksCompressed,
        Counter::ChunksDecompressed,
        Counter::ChunksPassthrough,
        Counter::ChunksPartitioned,
        Counter::ChunkInputBytes,
        Counter::ChunkOutputBytes,
        Counter::ChunkDecodedBytes,
        Counter::ContainerMetadataBytes,
        Counter::ScratchReuseHits,
        Counter::ScratchReuseMisses,
        Counter::StorePuts,
        Counter::StoreContainerBytes,
        Counter::StoreRawBytes,
        Counter::ContainerCorruptRejected,
        Counter::StoreCorruptRejected,
        Counter::ChecksumMismatches,
        Counter::ChunksVerbatimFallback,
        Counter::ChunksSkippedCorrupt,
        Counter::StoreSegmentsCommitted,
        Counter::StoreManifestBytes,
        Counter::StoreSupersededEntries,
        Counter::StoreCompactionsRun,
        Counter::ServeRequests,
        Counter::ServePutBytes,
        Counter::ServeGetBytes,
        Counter::ServeBusyRejected,
        Counter::ServeProtocolErrors,
        Counter::ServeCommits,
        Counter::ServeSlowRequests,
        Counter::ServeFlightDumps,
        Counter::ServeWalAppends,
        Counter::ServeWalBytes,
        Counter::ServeWalReplayed,
        Counter::ServeWalTruncations,
    ];

    /// Stable snake_case name used as the JSON key.
    pub fn name(self) -> &'static str {
        match self {
            Counter::AnalyzerChunks => "analyzer_chunks",
            Counter::AnalyzerBytes => "analyzer_bytes",
            Counter::ColumnsCompressible => "columns_compressible",
            Counter::ColumnsIncompressible => "columns_incompressible",
            Counter::PartitionCompressibleBytes => "partition_compressible_bytes",
            Counter::PartitionVerbatimBytes => "partition_verbatim_bytes",
            Counter::EupaRuns => "eupa_runs",
            Counter::ChunksCompressed => "chunks_compressed",
            Counter::ChunksDecompressed => "chunks_decompressed",
            Counter::ChunksPassthrough => "chunks_passthrough",
            Counter::ChunksPartitioned => "chunks_partitioned",
            Counter::ChunkInputBytes => "chunk_input_bytes",
            Counter::ChunkOutputBytes => "chunk_output_bytes",
            Counter::ChunkDecodedBytes => "chunk_decoded_bytes",
            Counter::ContainerMetadataBytes => "container_metadata_bytes",
            Counter::ScratchReuseHits => "scratch_reuse_hits",
            Counter::ScratchReuseMisses => "scratch_reuse_misses",
            Counter::StorePuts => "store_puts",
            Counter::StoreContainerBytes => "store_container_bytes",
            Counter::StoreRawBytes => "store_raw_bytes",
            Counter::ContainerCorruptRejected => "container_corrupt_rejected",
            Counter::StoreCorruptRejected => "store_corrupt_rejected",
            Counter::ChecksumMismatches => "checksum_mismatches",
            Counter::ChunksVerbatimFallback => "chunks_verbatim_fallback",
            Counter::ChunksSkippedCorrupt => "chunks_skipped_corrupt",
            Counter::StoreSegmentsCommitted => "store_segments_committed",
            Counter::StoreManifestBytes => "store_manifest_bytes",
            Counter::StoreSupersededEntries => "store_superseded_entries",
            Counter::StoreCompactionsRun => "store_compactions_run",
            Counter::ServeRequests => "serve_requests",
            Counter::ServePutBytes => "serve_put_bytes",
            Counter::ServeGetBytes => "serve_get_bytes",
            Counter::ServeBusyRejected => "serve_busy_rejected",
            Counter::ServeProtocolErrors => "serve_protocol_errors",
            Counter::ServeCommits => "serve_commits",
            Counter::ServeSlowRequests => "serve_slow_requests",
            Counter::ServeFlightDumps => "serve_flight_dumps",
            Counter::ServeWalAppends => "serve_wal_appends",
            Counter::ServeWalBytes => "serve_wal_bytes",
            Counter::ServeWalReplayed => "serve_wal_replayed",
            Counter::ServeWalTruncations => "serve_wal_truncations",
        }
    }
}

/// One timed pipeline stage.
///
/// The discriminant doubles as the index into
/// [`TelemetrySnapshot::stages`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Stage {
    /// EUPA trial compression of the sample set (§II.C).
    EupaSelect,
    /// Byte-column frequency analysis (§II.A; the paper's TP_A).
    Analyze,
    /// Splitting a chunk into C and I streams (§II.B).
    Partition,
    /// Solver compression of the compressible stream.
    SolverCompress,
    /// Solver decompression.
    SolverDecompress,
    /// Scattering C + I back into the original element order.
    Reassemble,
    /// Serializing container metadata + payloads.
    ContainerWrite,
    /// Parsing container metadata.
    ContainerRead,
}

impl Stage {
    /// Number of stages (array size).
    pub const COUNT: usize = 8;

    /// Every stage, in stable JSON order.
    pub const ALL: [Stage; Stage::COUNT] = [
        Stage::EupaSelect,
        Stage::Analyze,
        Stage::Partition,
        Stage::SolverCompress,
        Stage::SolverDecompress,
        Stage::Reassemble,
        Stage::ContainerWrite,
        Stage::ContainerRead,
    ];

    /// Stable snake_case name used as the JSON key.
    pub fn name(self) -> &'static str {
        match self {
            Stage::EupaSelect => "eupa_select",
            Stage::Analyze => "analyze",
            Stage::Partition => "partition",
            Stage::SolverCompress => "solver_compress",
            Stage::SolverDecompress => "solver_decompress",
            Stage::Reassemble => "reassemble",
            Stage::ContainerWrite => "container_write",
            Stage::ContainerRead => "container_read",
        }
    }
}

/// Per-thread telemetry recorder.
///
/// One recorder belongs to one thread, exactly like the pipeline's
/// `PipelineScratch`: serial loops keep one, parallel paths create one
/// per worker and [`Recorder::absorb`] them at the join. All recording
/// methods are branch-light integer arithmetic on inline arrays; in the
/// telemetry-off build the struct is zero-sized and every method is an
/// empty inline body.
#[derive(Debug, Default, Clone)]
pub struct Recorder {
    #[cfg(feature = "enabled")]
    snap: TelemetrySnapshot,
}

impl Recorder {
    /// Fresh recorder with every counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `value` to a counter.
    #[inline]
    pub fn add(&mut self, counter: Counter, value: u64) {
        #[cfg(feature = "enabled")]
        {
            self.snap.counters[counter as usize] += value;
        }
        #[cfg(not(feature = "enabled"))]
        {
            let _ = (counter, value);
        }
    }

    /// Increment a counter by one.
    #[inline]
    pub fn incr(&mut self, counter: Counter) {
        self.add(counter, 1);
    }

    /// Fold one timed span of `stage` (in nanoseconds) into the stats.
    #[inline]
    pub fn record_stage(&mut self, stage: Stage, nanos: u64) {
        #[cfg(feature = "enabled")]
        {
            self.snap.stages[stage as usize].record(nanos);
        }
        #[cfg(not(feature = "enabled"))]
        {
            let _ = (stage, nanos);
        }
    }

    /// Record one column's τ-margin: the column's peak byte frequency
    /// divided by the tolerance `τ·N/256`. Values ≥ 1 mean the column
    /// passed the frequency test; the histogram shows how close the
    /// whole dataset sits to the τ decision boundary (the paper's
    /// stability claim for τ ∈ [1.4, 1.5]).
    #[inline]
    pub fn record_tau_margin(&mut self, margin: f64) {
        #[cfg(feature = "enabled")]
        {
            self.snap.tau_margin[snapshot::margin_bucket(margin)] += 1;
        }
        #[cfg(not(feature = "enabled"))]
        {
            let _ = margin;
        }
    }

    /// Record one EUPA trial compression of combination
    /// `(codec_idx, lin_idx)` (see [`EUPA_COMBOS`] for the indexing).
    #[inline]
    pub fn record_eupa_trial(&mut self, codec_idx: usize, lin_idx: usize, nanos: u64) {
        #[cfg(feature = "enabled")]
        {
            let combo = snapshot::combo_index(codec_idx, lin_idx);
            self.snap.eupa_trial_count[combo] += 1;
            self.snap.eupa_trial_nanos[combo] += nanos;
        }
        #[cfg(not(feature = "enabled"))]
        {
            let _ = (codec_idx, lin_idx, nanos);
        }
    }

    /// Record the SIMD kernel tier the pipeline is running on (an
    /// `isobar-simd` `KernelTier::as_u8` tag). Idempotent per process —
    /// every pipeline in a process resolves the same tier.
    #[inline]
    pub fn set_kernel_tier(&mut self, tier: u8) {
        #[cfg(feature = "enabled")]
        {
            self.snap.kernel_tier = tier;
        }
        #[cfg(not(feature = "enabled"))]
        {
            let _ = tier;
        }
    }

    /// Record the combination EUPA finally selected.
    #[inline]
    pub fn record_eupa_selected(&mut self, codec_idx: usize, lin_idx: usize) {
        #[cfg(feature = "enabled")]
        {
            self.snap.eupa_selected[snapshot::combo_index(codec_idx, lin_idx)] += 1;
        }
        #[cfg(not(feature = "enabled"))]
        {
            let _ = (codec_idx, lin_idx);
        }
    }

    /// Merge another recorder into this one (the pipeline-join
    /// aggregation). Commutative and associative: absorbing per-worker
    /// recorders in any order yields the same totals.
    #[inline]
    pub fn absorb(&mut self, other: &Recorder) {
        #[cfg(feature = "enabled")]
        {
            self.snap.merge(&other.snap);
        }
        #[cfg(not(feature = "enabled"))]
        {
            let _ = other;
        }
    }

    /// Merge an already-taken snapshot into this recorder — the same
    /// aggregation as [`Recorder::absorb`] for totals that arrive as
    /// plain data (e.g. a `CompressionReport`'s telemetry).
    #[inline]
    pub fn absorb_snapshot(&mut self, snapshot: &TelemetrySnapshot) {
        #[cfg(feature = "enabled")]
        {
            self.snap.merge(snapshot);
        }
        #[cfg(not(feature = "enabled"))]
        {
            let _ = snapshot;
        }
    }

    /// Zero every counter, timer, and histogram.
    pub fn reset(&mut self) {
        #[cfg(feature = "enabled")]
        {
            self.snap = TelemetrySnapshot::default();
        }
    }

    /// The current totals as plain data. In the telemetry-off build
    /// this is always the all-zero snapshot.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        #[cfg(feature = "enabled")]
        {
            self.snap.clone()
        }
        #[cfg(not(feature = "enabled"))]
        {
            TelemetrySnapshot::default()
        }
    }
}

/// Measures one stage span. In the telemetry-off build this is a
/// zero-sized guard that never reads the clock.
///
/// ```
/// use isobar_telemetry::{Recorder, Stage, StageTimer};
///
/// let mut rec = Recorder::new();
/// let timer = StageTimer::start(Stage::Partition);
/// // ... do the stage's work ...
/// timer.finish(&mut rec);
/// ```
#[must_use = "a timer that is never finished records nothing"]
pub struct StageTimer {
    #[cfg(feature = "enabled")]
    stage: Stage,
    #[cfg(feature = "enabled")]
    start: std::time::Instant,
}

impl StageTimer {
    /// Start timing `stage`.
    #[inline]
    pub fn start(stage: Stage) -> Self {
        #[cfg(feature = "enabled")]
        {
            StageTimer {
                stage,
                start: std::time::Instant::now(),
            }
        }
        #[cfg(not(feature = "enabled"))]
        {
            let _ = stage;
            StageTimer {}
        }
    }

    /// Stop the clock and fold the span into `recorder`.
    #[inline]
    pub fn finish(self, recorder: &mut Recorder) {
        #[cfg(feature = "enabled")]
        {
            recorder.record_stage(self.stage, self.start.elapsed().as_nanos() as u64);
        }
        #[cfg(not(feature = "enabled"))]
        {
            let _ = recorder;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_starts_at_zero_and_accumulates() {
        let mut rec = Recorder::new();
        assert_eq!(rec.snapshot(), TelemetrySnapshot::default());
        rec.add(Counter::ChunkInputBytes, 100);
        rec.incr(Counter::ChunksCompressed);
        rec.record_stage(Stage::Analyze, 500);
        let snap = rec.snapshot();
        if ENABLED {
            assert_eq!(snap.counter(Counter::ChunkInputBytes), 100);
            assert_eq!(snap.counter(Counter::ChunksCompressed), 1);
            assert_eq!(snap.stage(Stage::Analyze).count, 1);
            assert_eq!(snap.stage(Stage::Analyze).total_nanos, 500);
        } else {
            assert_eq!(snap, TelemetrySnapshot::default());
        }
    }

    #[test]
    fn absorb_is_order_independent() {
        let mut a = Recorder::new();
        a.add(Counter::AnalyzerBytes, 10);
        a.record_stage(Stage::SolverCompress, 5);
        a.record_tau_margin(0.4);
        let mut b = Recorder::new();
        b.add(Counter::AnalyzerBytes, 32);
        b.record_stage(Stage::SolverCompress, 9);
        b.record_eupa_trial(0, 1, 77);

        let mut ab = a.clone();
        ab.absorb(&b);
        let mut ba = b.clone();
        ba.absorb(&a);
        assert_eq!(ab.snapshot(), ba.snapshot());
    }

    #[test]
    fn stage_timer_records_one_span() {
        let mut rec = Recorder::new();
        let timer = StageTimer::start(Stage::ContainerWrite);
        timer.finish(&mut rec);
        if ENABLED {
            assert_eq!(rec.snapshot().stage(Stage::ContainerWrite).count, 1);
        }
    }

    #[test]
    fn enum_tables_are_consistent() {
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i, "{}", c.name());
        }
        for (i, s) in Stage::ALL.iter().enumerate() {
            assert_eq!(*s as usize, i, "{}", s.name());
        }
        // Names are unique (they are JSON keys).
        let mut names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Counter::COUNT);
    }
}
