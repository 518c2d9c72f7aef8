#![warn(missing_docs)]

//! Pipeline telemetry: counters, histograms, and stage totals for the
//! ISOBAR workflow, designed to cost nothing when disabled.
//!
//! The ISOBAR paper's argument rests on *measurable* per-stage behavior
//! — which byte-columns the analyzer classifies as compressible (§II.A),
//! what the EUPA selector picks (§II.C), and what throughput each stage
//! sustains (Tables V/IX). This crate provides the recording substrate
//! every other crate in the workspace threads through its hot paths:
//!
//! * [`Phase`] — the one name of every timed section or instant: the
//!   recorder's chunk stages, the serve daemon's request phases and
//!   the trace timeline's events.
//! * [`Recorder`] — a per-thread bundle of counters, stage totals, and
//!   histograms. Recording a value is a couple of integer adds into
//!   fixed-size arrays: no allocation, no locks, no atomics.
//! * [`TelemetrySnapshot`] — the plain-data view of a recorder.
//!   Snapshots are serializable to JSON ([`TelemetrySnapshot::to_json`],
//!   readable with [`json::parse`]) and mergeable
//!   ([`TelemetrySnapshot::merge`]) so per-worker recorders can be
//!   aggregated at a pipeline join in any order.
//!
//! The guard that times a section — one clock reading at each edge,
//! handed to the recorder and to the trace ring — is `isobar::span`,
//! the one crate that sees both.
//!
//! # The off switch
//!
//! Building this crate without its `enabled` feature (the workspace's
//! *telemetry-off* configuration, `cargo build --no-default-features`)
//! turns [`Recorder`] into a zero-sized type whose methods are empty
//! `#[inline]` bodies. Every call site compiles away; the
//! allocation-free hot paths of the compression pipeline are
//! byte-for-byte unaffected. Code that wants to skip work feeding a
//! recorder (e.g. the analyzer's τ-margin scan, or reading the clock
//! for a stage) can branch on the compile-time constant [`ENABLED`].
//!
//! # Example
//!
//! ```
//! use isobar_telemetry::{Counter, Phase, Recorder};
//!
//! let mut rec = Recorder::new();
//! rec.add(Counter::ChunkInputBytes, 3_000_000);
//! rec.record_stage(Phase::SolverCompress, 1_250_000);
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
}

impl Counter {
    /// Number of counters (array size).
    pub const COUNT: usize = 29;

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
        }
    }
}

/// One named section or instant of the pipeline, the store or the
/// daemon: the one vocabulary of the recorder's stages, the serve
/// ledger's phases and the trace ring's events.
///
/// [`Phase::name`] is the section's JSON key, Prometheus label and
/// Chrome trace event name. The [`Phase::SERVE`] phases come first, so
/// their discriminant indexes the serve ledger's per-phase arrays; the
/// [`Phase::STAGES`] follow and fill [`TelemetrySnapshot::stages`] in
/// order; the rest appear only on the trace timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Phase {
    /// Serve: `accept(2)` returning to the handler thread starting
    /// (attributed to the connection's first request).
    Accept,
    /// Serve: reading and decoding the request header and identifier
    /// fields.
    HeaderParse,
    /// Serve: the byte-budget admission decision for a put.
    Admission,
    /// Serve: reading a put payload off the socket.
    PayloadRead,
    /// Serve: blocking on (or handing off) the store mutex.
    LockWait,
    /// Serve: read-your-writes overlay lookup or insert.
    Overlay,
    /// Serve: sharded-store put (writer creation + pipeline submit).
    StorePut,
    /// Serve: write-ahead journal append + fsync, the durability
    /// barrier a put's `Ok` waits on.
    WalFsync,
    /// A read of the committed store: one variable read and decoded by
    /// the store reader, or a serve get / stat / ls scan.
    StoreGet,
    /// Serve: a store generation commit (threshold roll or shutdown
    /// drain).
    Commit,
    /// Serve: encoding and writing the response frame.
    WriteResponse,
    /// EUPA trial compression of the sample set (§II.C).
    EupaSelect,
    /// Byte-column frequency analysis of one chunk (§II.A; the paper's
    /// TP_A).
    Analyze,
    /// Splitting one chunk into C and I streams (§II.B).
    Partition,
    /// Solver compression of one chunk's solver stream.
    SolverCompress,
    /// Solver decompression of one chunk.
    SolverDecompress,
    /// Scattering C + I back into element order for one chunk.
    Reassemble,
    /// Serializing container metadata + payloads.
    ContainerWrite,
    /// Fetching and verifying container records.
    ContainerRead,
    /// One EUPA trial compression (instant; args carry CR and MB/s).
    EupaTrial,
    /// The combination EUPA finally selected (instant).
    EupaSelected,
    /// Whole per-chunk compress pipeline (analyze→partition→solve).
    ChunkCompress,
    /// Serializing one chunk's record head into the container body.
    ChunkMerge,
    /// Whole per-chunk decode pipeline.
    ChunkDecode,
    /// Sharded store: codec-thread compression of one variable.
    StoreShardCompress,
    /// Sharded store: I/O-thread append of one record to its segment.
    StoreShardAppend,
    /// Sharded store: the two-phase manifest commit at close.
    StoreManifestCommit,
    /// Sharded store: one compaction pass rewriting live entries.
    StoreCompact,
    /// Serve: one request dispatched and answered.
    ServeRequest,
    /// Serve: replaying leftover write-ahead journal records into the
    /// overlay on startup.
    WalReplay,
}

impl Phase {
    /// The serve request phases, in discriminant order: the daemon's
    /// ledger attributes every request's wall time to these.
    pub const SERVE: [Phase; 11] = [
        Phase::Accept,
        Phase::HeaderParse,
        Phase::Admission,
        Phase::PayloadRead,
        Phase::LockWait,
        Phase::Overlay,
        Phase::StorePut,
        Phase::WalFsync,
        Phase::StoreGet,
        Phase::Commit,
        Phase::WriteResponse,
    ];

    /// The chunk stages the [`Recorder`] times, in stable JSON order.
    pub const STAGES: [Phase; 8] = [
        Phase::EupaSelect,
        Phase::Analyze,
        Phase::Partition,
        Phase::SolverCompress,
        Phase::SolverDecompress,
        Phase::Reassemble,
        Phase::ContainerWrite,
        Phase::ContainerRead,
    ];

    /// Stable snake_case name.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Accept => "accept",
            Phase::HeaderParse => "header_parse",
            Phase::Admission => "admission",
            Phase::PayloadRead => "payload_read",
            Phase::LockWait => "lock_wait",
            Phase::Overlay => "overlay",
            Phase::StorePut => "store_put",
            Phase::WalFsync => "wal_fsync",
            Phase::StoreGet => "store_get",
            Phase::Commit => "commit",
            Phase::WriteResponse => "write_response",
            Phase::EupaSelect => "eupa_select",
            Phase::Analyze => "analyze",
            Phase::Partition => "partition",
            Phase::SolverCompress => "solver_compress",
            Phase::SolverDecompress => "solver_decompress",
            Phase::Reassemble => "reassemble",
            Phase::ContainerWrite => "container_write",
            Phase::ContainerRead => "container_read",
            Phase::EupaTrial => "eupa_trial",
            Phase::EupaSelected => "eupa_selected",
            Phase::ChunkCompress => "chunk_compress",
            Phase::ChunkMerge => "chunk_merge",
            Phase::ChunkDecode => "chunk_decode",
            Phase::StoreShardCompress => "store_shard_compress",
            Phase::StoreShardAppend => "store_shard_append",
            Phase::StoreManifestCommit => "store_manifest_commit",
            Phase::StoreCompact => "store_compact",
            Phase::ServeRequest => "serve_request",
            Phase::WalReplay => "serve_wal_replay",
        }
    }

    /// Index of a chunk stage in [`TelemetrySnapshot::stages`]; panics
    /// for a phase that is not one of the [`Phase::STAGES`].
    pub(crate) fn stage_slot(self) -> usize {
        self as usize - Phase::EupaSelect as usize
    }
}

/// The trace ring records a phase by its name.
impl From<Phase> for &'static str {
    fn from(phase: Phase) -> &'static str {
        phase.name()
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

    /// Fold one timed span of chunk stage `stage` (in nanoseconds)
    /// into the stats.
    #[inline]
    pub fn record_stage(&mut self, stage: Phase, nanos: u64) {
        #[cfg(feature = "enabled")]
        {
            self.snap.stages[stage.stage_slot()].record(nanos);
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_starts_at_zero_and_accumulates() {
        let mut rec = Recorder::new();
        assert_eq!(rec.snapshot(), TelemetrySnapshot::default());
        rec.add(Counter::ChunkInputBytes, 100);
        rec.incr(Counter::ChunksCompressed);
        rec.record_stage(Phase::Analyze, 500);
        let snap = rec.snapshot();
        if ENABLED {
            assert_eq!(snap.counter(Counter::ChunkInputBytes), 100);
            assert_eq!(snap.counter(Counter::ChunksCompressed), 1);
            assert_eq!(snap.stage(Phase::Analyze).count, 1);
            assert_eq!(snap.stage(Phase::Analyze).total_nanos, 500);
        } else {
            assert_eq!(snap, TelemetrySnapshot::default());
        }
    }

    #[test]
    fn absorb_is_order_independent() {
        let mut a = Recorder::new();
        a.add(Counter::AnalyzerBytes, 10);
        a.record_stage(Phase::SolverCompress, 5);
        a.record_tau_margin(0.4);
        let mut b = Recorder::new();
        b.add(Counter::AnalyzerBytes, 32);
        b.record_stage(Phase::SolverCompress, 9);
        b.record_eupa_trial(0, 1, 77);

        let mut ab = a.clone();
        ab.absorb(&b);
        let mut ba = b.clone();
        ba.absorb(&a);
        assert_eq!(ab.snapshot(), ba.snapshot());
    }

    #[test]
    fn enum_tables_are_consistent() {
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i, "{}", c.name());
        }
        for (i, p) in Phase::SERVE.iter().enumerate() {
            assert_eq!(*p as usize, i, "{}", p.name());
        }
        for (i, p) in Phase::STAGES.iter().enumerate() {
            assert_eq!(p.stage_slot(), i, "{}", p.name());
        }
        // Names are unique (they are JSON keys and trace event names).
        let mut names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Counter::COUNT);
        let keyed = Phase::SERVE.iter().chain(&Phase::STAGES);
        let mut names: Vec<&str> = keyed.map(|p| p.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Phase::SERVE.len() + Phase::STAGES.len());
    }
}
