//! The end-to-end ISOBAR-compress workflow (paper Fig. 2).
//!
//! [`IsobarCompressor::compress`] drives the full pipeline: EUPA
//! selection on random samples, per-chunk byte-column analysis,
//! partitioning, solver compression of the compressible part, and
//! merging into the self-describing container.
//! [`IsobarCompressor::decompress`] inverts it byte-exactly.

use crate::analyzer::{Analyzer, ColumnSelection};
use crate::chunk::DEFAULT_CHUNK_ELEMENTS;
use crate::container::{ChunkMode, ChunkRecord};
use crate::error::IsobarError;
use crate::eupa::{EupaDecision, EupaSelector, Preference};
use crate::partitioner::{partition_into, reassemble_into};
use crate::span::stage;
use crate::stream::{isobar_error, IsobarReader, IsobarWriter, Pick};
use isobar_codecs::deflate::adler32;
use isobar_codecs::{Codec, CodecId, CodecScratch, CompressionLevel};
use isobar_linearize::Linearization;
use isobar_telemetry::{Counter, Phase, Recorder, TelemetrySnapshot};
use isobar_trace as trace;
use std::io::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Configuration for [`IsobarCompressor`].
#[derive(Debug, Clone, Copy)]
pub struct IsobarOptions {
    /// End-user preference driving EUPA (paper input E).
    pub preference: Preference,
    /// Solver effort level.
    pub level: CompressionLevel,
    /// Analyzer tolerance factor τ.
    pub tau: f64,
    /// Chunk size in elements (paper recommends 375 000 ≈ 3 MB).
    pub chunk_elements: usize,
    /// Skip EUPA and force this solver (the paper permits explicit
    /// parameter fixing).
    pub codec_override: Option<CodecId>,
    /// Skip EUPA and force this linearization.
    pub linearization_override: Option<Linearization>,
    /// EUPA sampling configuration.
    pub eupa: EupaSelector,
    /// Compress chunks on multiple threads (extension; the paper's
    /// numbers are single-core). `decompress` honours it too: the same
    /// compressor decodes chunks on the worker pool. Output bytes do not
    /// depend on it.
    pub parallel: bool,
    /// Verify embedded checksums while decoding (default on). Turning
    /// this off trades end-to-end integrity detection for decompress
    /// throughput; structural validation still happens either way.
    pub verify: bool,
}

impl Default for IsobarOptions {
    fn default() -> Self {
        IsobarOptions {
            preference: Preference::Ratio,
            level: CompressionLevel::Default,
            tau: crate::analyzer::DEFAULT_TAU,
            chunk_elements: DEFAULT_CHUNK_ELEMENTS,
            codec_override: None,
            linearization_override: None,
            eupa: EupaSelector::default(),
            parallel: false,
            verify: true,
        }
    }
}

/// Throughput in MB/s (paper convention: 10⁶ bytes) with the elapsed
/// time clamped to a one-microsecond floor.
///
/// Sub-resolution timings — empty inputs, coarse clocks, stages that
/// finish in nanoseconds — would otherwise divide into absurd
/// (`10⁹ MB/s`) or infinite figures that poison averages, speedup
/// ratios, and JSON output downstream. One microsecond caps the
/// reportable rate at `bytes × 10⁶ MB/s` while leaving every honestly
/// measurable timing untouched.
pub fn throughput_mbps(bytes: usize, secs: f64) -> f64 {
    bytes as f64 / 1e6 / secs.max(1e-6)
}

/// Per-chunk outcome, for reporting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChunkDecision {
    /// How the chunk was encoded.
    pub mode: ChunkMode,
    /// Elements in the chunk.
    pub elements: usize,
    /// Hard-to-compress byte percentage found by the analyzer.
    pub htc_pct: f64,
    /// Analyzer column mask.
    pub mask: u64,
    /// Solver output size.
    pub compressed_len: usize,
    /// Verbatim incompressible bytes.
    pub incompressible_len: usize,
}

/// What happened during one compression run.
#[derive(Debug, Clone)]
pub struct CompressionReport {
    /// Solver chosen (EUPA or override).
    pub codec: CodecId,
    /// Linearization chosen (EUPA or override).
    pub linearization: Linearization,
    /// EUPA sample evidence (empty when both overrides were set).
    pub eupa: Option<EupaDecision>,
    /// Per-chunk decisions.
    pub chunks: Vec<ChunkDecision>,
    /// Input length in bytes.
    pub input_len: usize,
    /// Container length in bytes.
    pub output_len: usize,
    /// Time spent in EUPA sampling.
    pub eupa_secs: f64,
    /// Wall time of the whole compress call.
    pub total_secs: f64,
    /// Telemetry recorded during this call — per-stage wall times,
    /// partitioner byte routing, analyzer column outcomes, EUPA trial
    /// timings. All-zero in the telemetry-off build.
    pub telemetry: TelemetrySnapshot,
}

impl CompressionReport {
    /// Compression ratio (Eq. 1).
    pub fn ratio(&self) -> f64 {
        if self.output_len == 0 {
            1.0
        } else {
            self.input_len as f64 / self.output_len as f64
        }
    }

    /// Compression throughput in MB/s over the whole call (see
    /// [`throughput_mbps`] for the degenerate-timing clamp).
    pub fn throughput_mbps(&self) -> f64 {
        throughput_mbps(self.input_len, self.total_secs)
    }

    /// Whether the analyzer identified the dataset as improvable
    /// (Table IV's "Improvable?"): true when any chunk partitioned.
    pub fn improvable(&self) -> bool {
        self.chunks.iter().any(|c| c.mode == ChunkMode::Partitioned)
    }

    /// Element-weighted mean hard-to-compress byte percentage.
    pub fn htc_pct(&self) -> f64 {
        let total: usize = self.chunks.iter().map(|c| c.elements).sum();
        if total == 0 {
            return 0.0;
        }
        self.chunks
            .iter()
            .map(|c| c.htc_pct * c.elements as f64)
            .sum::<f64>()
            / total as f64
    }
}

/// Reusable working memory for the per-chunk pipeline loop.
///
/// Holds the solver's [`CodecScratch`] plus the partition buffer that
/// feeds it, so a caller compressing many chunks (or many datasets)
/// through one scratch performs no per-chunk setup allocations in
/// steady state. One scratch belongs to one thread: the serial loops
/// keep one, the parallel paths create one per worker.
#[derive(Default)]
pub struct PipelineScratch {
    pub(crate) codec: CodecScratch,
    /// Partition output fed to the solver during compression, or the
    /// solver's decoded output awaiting reassembly during decompression.
    pub(crate) compressible: Vec<u8>,
    /// EUPA's sample of the input.
    pub(crate) sample: Vec<u8>,
    /// An EUPA trial's verbatim stream and solver output; only their
    /// lengths are used.
    pub(crate) trial_verbatim: Vec<u8>,
    pub(crate) trial_output: Vec<u8>,
}

impl PipelineScratch {
    /// Fresh, empty scratch; buffers grow to steady state on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// The ISOBAR-compress preconditioner.
#[derive(Debug, Clone, Copy)]
pub struct IsobarCompressor {
    options: IsobarOptions,
    /// SIMD kernel tier, resolved once here so the per-chunk hot loops
    /// never re-dispatch. `isobar_simd::set_kernels` (the CLI's
    /// `--kernels=` flag) affects compressors constructed afterwards.
    tier: isobar_simd::KernelTier,
}

impl Default for IsobarCompressor {
    fn default() -> Self {
        IsobarCompressor::new(IsobarOptions::default())
    }
}

impl IsobarCompressor {
    /// Create a compressor with the given options.
    pub fn new(options: IsobarOptions) -> Self {
        IsobarCompressor {
            options,
            tier: isobar_simd::active_tier(),
        }
    }

    /// The SIMD kernel tier this pipeline runs on.
    pub fn kernel_tier(&self) -> isobar_simd::KernelTier {
        self.tier
    }

    /// Convenience constructor: defaults with the given preference.
    pub fn with_preference(preference: Preference) -> Self {
        IsobarCompressor::new(IsobarOptions {
            preference,
            ..Default::default()
        })
    }

    /// The active options.
    pub fn options(&self) -> &IsobarOptions {
        &self.options
    }

    /// Compress `data` as elements of `width` bytes.
    ///
    /// # Example
    ///
    /// ```
    /// use isobar::IsobarCompressor;
    ///
    /// let data: Vec<u8> = (0..2000u64).flat_map(u64::to_le_bytes).collect();
    /// let isobar = IsobarCompressor::default();
    /// let packed = isobar.compress(&data, 8).unwrap();
    /// assert_eq!(isobar.decompress(&packed).unwrap(), data);
    /// ```
    pub fn compress(&self, data: &[u8], width: usize) -> Result<Vec<u8>, IsobarError> {
        self.compress_with_report(data, width).map(|(out, _)| out)
    }

    /// Compress and return the detailed report (per-chunk decisions,
    /// stage timings, and the [`CompressionReport::telemetry`]
    /// snapshot) used by the benchmark harness and `--stats`.
    ///
    /// # Example
    ///
    /// ```
    /// use isobar::telemetry::Counter;
    /// use isobar::IsobarCompressor;
    ///
    /// let data: Vec<u8> = (0..2000u64).flat_map(u64::to_le_bytes).collect();
    /// let (packed, report) = IsobarCompressor::default()
    ///     .compress_with_report(&data, 8)
    ///     .unwrap();
    /// assert_eq!(report.input_len, data.len());
    /// assert_eq!(report.output_len, packed.len());
    /// if isobar::telemetry::ENABLED {
    ///     let snap = &report.telemetry;
    ///     assert_eq!(snap.counter(Counter::AnalyzerBytes), data.len() as u64);
    /// }
    /// ```
    pub fn compress_with_report(
        &self,
        data: &[u8],
        width: usize,
    ) -> Result<(Vec<u8>, CompressionReport), IsobarError> {
        self.compress_session(data, width, &mut PipelineScratch::new(), None)
    }

    /// [`IsobarCompressor::compress`] reusing caller-held working
    /// memory and recording telemetry into a caller-held [`Recorder`]
    /// — the steady-state entry point for long-lived callers (the
    /// checkpoint store, benchmark loops) that compress many datasets
    /// in sequence and aggregate counters across the calls.
    pub fn compress_recorded(
        &self,
        data: &[u8],
        width: usize,
        scratch: &mut PipelineScratch,
        recorder: &mut Recorder,
    ) -> Result<Vec<u8>, IsobarError> {
        self.compress_with_pick(data, width, scratch, recorder, |_, eupa| eupa())
    }

    /// [`IsobarCompressor::compress_recorded`] with the caller in the
    /// solver and layout decision, so a caller that compresses one
    /// variable many times can decide once (the paper's §III.F).
    ///
    /// `pick` is called once, after the head chunk is analysed — that
    /// analysis is the chunk's own, made once either way — with the
    /// head chunk's column mask and a closure that runs EUPA on `data`.
    /// It returns the (solver, layout) to compress with: EUPA's, or a
    /// pick the caller kept from an earlier call whose head chunk had
    /// the same mask, which then costs no EUPA trial. Overrides in the
    /// options win over the pick; with both set, `pick` is not called.
    pub fn compress_with_pick(
        &self,
        data: &[u8],
        width: usize,
        scratch: &mut PipelineScratch,
        recorder: &mut Recorder,
        mut pick: impl FnMut(
            u64,
            &mut dyn FnMut() -> (CodecId, Linearization),
        ) -> (CodecId, Linearization),
    ) -> Result<Vec<u8>, IsobarError> {
        let (out, report) = self.compress_session(data, width, scratch, Some(&mut pick))?;
        recorder.absorb_snapshot(&report.telemetry);
        Ok(out)
    }

    /// The batch call as one [`IsobarWriter`] session: declare the
    /// length, decide on the whole input (whose head chunk is the
    /// container's first) — through `pick` when given — feed once,
    /// finish.
    fn compress_session(
        &self,
        data: &[u8],
        width: usize,
        scratch: &mut PipelineScratch,
        pick: Option<&mut Pick<'_>>,
    ) -> Result<(Vec<u8>, CompressionReport), IsobarError> {
        let mut session = IsobarWriter::with_scratch(Vec::new(), width, self.options, scratch)?;
        session.declare(data.len(), adler32(data))?;
        session.decide_on(data, true, pick).map_err(isobar_error)?;
        session.write_all(data).map_err(isobar_error)?;
        session.finish().map_err(isobar_error)
    }

    /// Decompress an ISOBAR container, batch or streamed form, back to
    /// the original bytes.
    pub fn decompress(&self, data: &[u8]) -> Result<Vec<u8>, IsobarError> {
        self.decompress_recorded(data, &mut PipelineScratch::new(), &mut Recorder::new())
    }

    /// [`IsobarCompressor::decompress`] reusing caller-held working
    /// memory across calls and recording telemetry into a caller-held
    /// [`Recorder`].
    ///
    /// Any failure is a rejection of untrusted input: the error carries
    /// the byte offset of the structure that failed to parse (via
    /// [`IsobarError::At`]) and bumps
    /// [`Counter::ContainerCorruptRejected`].
    pub fn decompress_recorded(
        &self,
        data: &[u8],
        scratch: &mut PipelineScratch,
        recorder: &mut Recorder,
    ) -> Result<Vec<u8>, IsobarError> {
        recorder.set_kernel_tier(self.tier.as_u8());
        // The slice is decoded by the one strict walker, as a reader
        // whose source happens to be in memory.
        let mut reader = IsobarReader::with_scratch(data, self.options.verify, scratch)
            .inspect_err(|_| recorder.incr(Counter::ContainerCorruptRejected))?;
        let result = reader.decode_all(self.options.parallel, data.len());
        recorder.absorb(reader.recorder());
        result
    }
}

/// Run `work(i, scratch, recorder)` for every `i < n` on a scoped
/// thread pool — the chunks of one feed when compressing, the records
/// of one container when decoding; results keep index order.
pub(crate) fn pooled<T: Send>(
    n: usize,
    recorder: &mut Recorder,
    work: impl Fn(usize, &mut PipelineScratch, &mut Recorder) -> T + Sync,
) -> Vec<T> {
    let workers = std::thread::available_parallelism()
        .map(|w| w.get())
        .unwrap_or(4)
        .min(n);
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    // Per-worker recorders merge here at the join; the merge is
    // commutative, so work-stealing order cannot change the totals.
    let merged = Mutex::new(Recorder::new());

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                // One scratch per worker: every chunk this thread picks
                // up reuses the same solver tables and partition buffer.
                // The recorder follows the same thread-ownership rule.
                let mut scratch = PipelineScratch::new();
                let mut local = Recorder::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let result = work(i, &mut scratch, &mut local);
                    *slots[i].lock().expect("slot poisoned") = Some(result);
                }
                merged.lock().expect("recorder poisoned").absorb(&local);
                // The scope unblocks when this closure returns — before
                // TLS destructors — so hand the trace ring over now.
                trace::flush_thread();
            });
        }
    });
    recorder.absorb(&merged.into_inner().expect("recorder poisoned"));

    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("slot poisoned")
                .expect("slot filled")
        })
        .collect()
}

/// One compressed chunk: its record, and what the report says of it.
pub(crate) struct ChunkResult {
    pub(crate) record: ChunkRecord,
    pub(crate) decision: ChunkDecision,
}

/// Run the solver behind a panic boundary. Returns `false` (with the
/// output cleared and the scratch replaced — a panicking codec may
/// have left its internal state torn) when the solver panicked; the
/// caller falls back to storing the chunk verbatim instead of
/// aborting the whole file.
fn compress_guarded(
    codec: &dyn Codec,
    input: &[u8],
    out: &mut Vec<u8>,
    scratch: &mut CodecScratch,
) -> bool {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    let ok = catch_unwind(AssertUnwindSafe(|| {
        codec.compress_into(input, out, scratch)
    }))
    .is_ok();
    if !ok {
        out.clear();
        *scratch = CodecScratch::default();
    }
    ok
}

/// Classify the columns of chunk `chunk_index`, recording what a
/// chunk's analysis records: the column counters, the τ margins and the
/// stage time.
pub(crate) fn analyze_chunk(
    chunk: &[u8],
    width: usize,
    chunk_index: u32,
    analyzer: &Analyzer,
    recorder: &mut Recorder,
) -> Result<ColumnSelection, IsobarError> {
    stage(recorder, Phase::Analyze, chunk_index, |recorder| {
        analyzer.analyze_recorded(chunk, width, recorder)
    })
}

/// Encode one chunk: analyze — unless the session already did, as it
/// does for the head chunk EUPA sampled under (`analyzed`) — then
/// partition+solve or pass through (Algorithm 1). The one place a chunk
/// becomes a record — the serial session loop and the parallel pool
/// both call it.
///
/// The record must own its payload bytes (it outlives the scratch), so
/// the solver output and the verbatim stream are freshly allocated; the
/// partition buffer feeding the solver and all solver-internal state
/// come from `scratch` and are reused across chunks.
#[allow(clippy::too_many_arguments)] // internal helper; the chunk index rides along for tracing
pub(crate) fn compress_chunk(
    chunk: &[u8],
    width: usize,
    chunk_index: u32,
    analyzer: &Analyzer,
    analyzed: Option<ColumnSelection>,
    codec: &dyn Codec,
    linearization: Linearization,
    scratch: &mut PipelineScratch,
    recorder: &mut Recorder,
) -> Result<ChunkResult, IsobarError> {
    let _chunk_span = trace::span(Phase::ChunkCompress, chunk_index);
    let selection = match analyzed {
        Some(selection) => selection,
        None => analyze_chunk(chunk, width, chunk_index, analyzer, recorder)?,
    };

    let mut record = ChunkRecord {
        mode: ChunkMode::Passthrough,
        elements: (chunk.len() / width) as u32,
        mask: 0,
        compressed: Vec::new(),
        incompressible: Vec::new(),
    };
    let solver_input: &[u8] = if selection.is_improvable() {
        // A warm scratch whose partition buffer already holds enough
        // capacity is a reuse hit: the chunk compresses without
        // growing any pipeline-owned buffer.
        let cap_before = scratch.compressible.capacity();
        stage(recorder, Phase::Partition, chunk_index, |_| {
            partition_into(
                chunk,
                width,
                &selection,
                linearization,
                &mut scratch.compressible,
                &mut record.incompressible,
            )
        });
        recorder.incr(
            if cap_before > 0 && scratch.compressible.capacity() == cap_before {
                Counter::ScratchReuseHits
            } else {
                Counter::ScratchReuseMisses
            },
        );
        recorder.add(
            Counter::PartitionCompressibleBytes,
            scratch.compressible.len() as u64,
        );
        recorder.add(
            Counter::PartitionVerbatimBytes,
            record.incompressible.len() as u64,
        );
        record.mode = ChunkMode::Partitioned;
        record.mask = selection.to_mask()?;
        &scratch.compressible
    } else {
        // Undetermined: Algorithm 1 lines 2–3 — whole chunk through
        // the solver.
        chunk
    };
    record.compressed.reserve(solver_input.len() / 2 + 64);
    let solved = stage(recorder, Phase::SolverCompress, chunk_index, |_| {
        compress_guarded(
            codec,
            solver_input,
            &mut record.compressed,
            &mut scratch.codec,
        )
    });
    if !solved {
        // Graceful degradation: the chunk's raw bytes, unprocessed.
        record = ChunkRecord {
            mode: ChunkMode::Verbatim,
            mask: 0,
            compressed: chunk.to_vec(),
            incompressible: Vec::new(),
            ..record
        };
    }
    recorder.incr(match record.mode {
        ChunkMode::Partitioned => Counter::ChunksPartitioned,
        ChunkMode::Passthrough => Counter::ChunksPassthrough,
        ChunkMode::Verbatim => Counter::ChunksVerbatimFallback,
    });

    recorder.incr(Counter::ChunksCompressed);
    recorder.add(Counter::ChunkInputBytes, chunk.len() as u64);
    recorder.add(Counter::ChunkOutputBytes, record.encoded_len() as u64);

    let decision = ChunkDecision {
        mode: record.mode,
        elements: record.elements as usize,
        htc_pct: selection.htc_pct(),
        mask: record.mask,
        compressed_len: record.compressed.len(),
        incompressible_len: record.incompressible.len(),
    };
    Ok(ChunkResult { record, decision })
}

#[allow(clippy::too_many_arguments)] // internal helper; the chunk index rides along for tracing
pub(crate) fn decode_chunk_record(
    record: &ChunkRecord,
    width: usize,
    chunk_index: u32,
    codec: &dyn Codec,
    linearization: Linearization,
    out: &mut Vec<u8>,
    scratch: &mut PipelineScratch,
    recorder: &mut Recorder,
) -> Result<(), IsobarError> {
    let _chunk_span = trace::span(Phase::ChunkDecode, chunk_index);
    let expected = record.elements as usize * width;
    match record.mode {
        ChunkMode::Passthrough => {
            stage(recorder, Phase::SolverDecompress, chunk_index, |_| {
                codec.decompress_into(
                    &record.compressed,
                    &mut scratch.compressible,
                    &mut scratch.codec,
                )
            })?;
            if scratch.compressible.len() != expected {
                return Err(IsobarError::Corrupt("passthrough chunk length mismatch"));
            }
            out.extend_from_slice(&scratch.compressible);
        }
        ChunkMode::Verbatim => {
            // Raw bytes, stored when the solver panicked at compress
            // time; length was validated against elements × width.
            if record.compressed.len() != expected {
                return Err(IsobarError::Corrupt("verbatim chunk length mismatch"));
            }
            out.extend_from_slice(&record.compressed);
        }
        ChunkMode::Partitioned => {
            let selection = record.selection(width)?;
            stage(recorder, Phase::SolverDecompress, chunk_index, |_| {
                codec.decompress_into(
                    &record.compressed,
                    &mut scratch.compressible,
                    &mut scratch.codec,
                )
            })?;
            if scratch.compressible.len() + record.incompressible.len() != expected {
                return Err(IsobarError::Corrupt("partitioned chunk length mismatch"));
            }
            // Scatter both streams straight into the output buffer — no
            // intermediate per-chunk allocation or copy.
            let start = out.len();
            out.resize(start + expected, 0);
            stage(recorder, Phase::Reassemble, chunk_index, |_| {
                reassemble_into(
                    &scratch.compressible,
                    &record.incompressible,
                    width,
                    &selection,
                    linearization,
                    &mut out[start..],
                )
            });
        }
    }
    recorder.incr(Counter::ChunksDecompressed);
    recorder.add(Counter::ChunkDecodedBytes, expected as u64);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::container::{Header, HEADER_LEN, VERSION};

    /// Improvable data: half predictable, half noise per element.
    fn improvable_data(n: usize) -> Vec<u8> {
        let mut state = 0x853C49E6748FEA9Bu64;
        (0..n)
            .flat_map(|i| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let noise = state >> 32;
                let pred = (i as u64 / 100) % 50;
                ((pred << 32) | noise).to_le_bytes()
            })
            .collect()
    }

    /// Uniform noise: undetermined (all columns incompressible).
    fn noise_data(n: usize) -> Vec<u8> {
        let mut state = 0x2545F4914F6CDD1Du64;
        (0..n * 8)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 56) as u8
            })
            .collect()
    }

    fn compressor(pref: Preference) -> IsobarCompressor {
        // Chunks well above the statistical floor (the analyzer's
        // τ·N/256 test needs a few tens of thousands of elements to be
        // stable — the paper's Fig. 8 point), but small enough for fast
        // unit tests. Test inputs are multiples of the chunk size so no
        // statistically-marginal tail chunk appears.
        IsobarCompressor::new(IsobarOptions {
            preference: pref,
            chunk_elements: 25_000,
            eupa: EupaSelector {
                sample_elements: 2048,
                sample_blocks: 2,
                ..Default::default()
            },
            ..Default::default()
        })
    }

    #[test]
    fn improvable_round_trip_with_report() {
        let data = improvable_data(50_000);
        let isobar = compressor(Preference::Speed);
        let (packed, report) = isobar.compress_with_report(&data, 8).unwrap();
        assert_eq!(isobar.decompress(&packed).unwrap(), data);
        assert!(report.improvable());
        assert!(report.ratio() > 1.0, "ratio {}", report.ratio());
        assert_eq!(report.chunks.len(), 2);
        assert!((report.htc_pct() - 50.0).abs() < 1e-9);
        assert_eq!(report.input_len, data.len());
        assert_eq!(report.output_len, packed.len());
    }

    #[test]
    fn undetermined_round_trip() {
        let data = noise_data(50_000);
        let isobar = compressor(Preference::Speed);
        let (packed, report) = isobar.compress_with_report(&data, 8).unwrap();
        assert_eq!(isobar.decompress(&packed).unwrap(), data);
        assert!(!report.improvable());
        assert!(report
            .chunks
            .iter()
            .all(|c| c.mode == ChunkMode::Passthrough));
    }

    #[test]
    fn both_preferences_round_trip() {
        let data = improvable_data(20_000);
        for pref in [Preference::Ratio, Preference::Speed] {
            let isobar = compressor(pref);
            let packed = isobar.compress(&data, 8).unwrap();
            assert_eq!(isobar.decompress(&packed).unwrap(), data, "{pref:?}");
        }
    }

    #[test]
    fn overrides_bypass_eupa() {
        let data = improvable_data(20_000);
        let isobar = IsobarCompressor::new(IsobarOptions {
            codec_override: Some(CodecId::Bzip2Like),
            linearization_override: Some(Linearization::Column),
            chunk_elements: 10_000,
            ..Default::default()
        });
        let (packed, report) = isobar.compress_with_report(&data, 8).unwrap();
        assert_eq!(report.codec, CodecId::Bzip2Like);
        assert_eq!(report.linearization, Linearization::Column);
        assert!(report.eupa.is_none());
        assert_eq!(report.eupa_secs, 0.0);
        assert_eq!(isobar.decompress(&packed).unwrap(), data);
    }

    #[test]
    fn all_widths_round_trip() {
        for width in [1usize, 2, 3, 4, 5, 8, 12, 16] {
            let mut state = 7u64;
            let data: Vec<u8> = (0..width * 5000)
                .map(|i| {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    if i % width < width / 2 {
                        (state >> 33) as u8
                    } else {
                        (i / width % 16) as u8
                    }
                })
                .collect();
            let isobar = compressor(Preference::Speed);
            let packed = isobar.compress(&data, width).unwrap();
            assert_eq!(isobar.decompress(&packed).unwrap(), data, "width {width}");
        }
    }

    #[test]
    fn empty_input_round_trips() {
        let isobar = compressor(Preference::Ratio);
        let packed = isobar.compress(&[], 8).unwrap();
        assert_eq!(isobar.decompress(&packed).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn misaligned_and_bad_width_rejected() {
        let isobar = compressor(Preference::Ratio);
        assert!(matches!(
            isobar.compress(&[0u8; 10], 8),
            Err(IsobarError::MisalignedInput { .. })
        ));
        assert!(matches!(
            isobar.compress(&[], 0),
            Err(IsobarError::BadWidth(0))
        ));
    }

    #[test]
    fn parallel_output_is_byte_identical_to_serial() {
        let data = improvable_data(60_000);
        let serial = IsobarCompressor::new(IsobarOptions {
            chunk_elements: 8_000,
            codec_override: Some(CodecId::Deflate),
            linearization_override: Some(Linearization::Row),
            ..Default::default()
        });
        let parallel = IsobarCompressor::new(IsobarOptions {
            parallel: true,
            ..*serial.options()
        });
        let a = serial.compress(&data, 8).unwrap();
        let b = parallel.compress(&data, 8).unwrap();
        assert_eq!(a, b);
        assert_eq!(parallel.decompress(&b).unwrap(), data);
        // Cross-decodes: parallel decode of serial output and vice versa.
        assert_eq!(parallel.decompress(&a).unwrap(), data);
        assert_eq!(serial.decompress(&b).unwrap(), data);

        // Scratch reuse must not change a single byte either: run two
        // dissimilar datasets through one warm scratch and compare
        // against the fresh-scratch outputs above.
        let other = noise_data(20_000);
        let mut scratch = PipelineScratch::new();
        let mut recorder = Recorder::new();
        let warm_other = serial
            .compress_recorded(&other, 8, &mut scratch, &mut recorder)
            .unwrap();
        let warm_a = serial
            .compress_recorded(&data, 8, &mut scratch, &mut recorder)
            .unwrap();
        assert_eq!(warm_other, serial.compress(&other, 8).unwrap());
        assert_eq!(warm_a, a);
        assert_eq!(
            serial
                .decompress_recorded(&warm_a, &mut scratch, &mut recorder)
                .unwrap(),
            data
        );
        assert_eq!(
            serial
                .decompress_recorded(&warm_other, &mut scratch, &mut recorder)
                .unwrap(),
            other
        );
    }

    /// A solver that dies on every chunk — the failure the pipeline's
    /// catch_unwind fallback must absorb.
    struct PanickyCodec;

    impl Codec for PanickyCodec {
        fn id(&self) -> CodecId {
            CodecId::Deflate
        }
        fn compress(&self, _data: &[u8]) -> Vec<u8> {
            panic!("injected solver failure")
        }
        fn decompress(&self, _data: &[u8]) -> Result<Vec<u8>, isobar_codecs::CodecError> {
            panic!("injected solver failure")
        }
    }

    #[test]
    fn solver_panic_falls_back_to_verbatim_chunk() {
        let data = improvable_data(10_000);
        let analyzer = Analyzer::with_tau(crate::analyzer::DEFAULT_TAU);
        let mut scratch = PipelineScratch::new();
        let mut recorder = Recorder::new();
        let record = compress_chunk(
            &data,
            8,
            0,
            &analyzer,
            None,
            &PanickyCodec,
            Linearization::Row,
            &mut scratch,
            &mut recorder,
        )
        .expect("panic must degrade, not propagate")
        .record;
        assert_eq!(record.mode, ChunkMode::Verbatim);
        assert_eq!(record.compressed, data);
        assert!(record.incompressible.is_empty());
        if isobar_telemetry::ENABLED {
            assert_eq!(
                recorder.snapshot().counter(Counter::ChunksVerbatimFallback),
                1
            );
        }

        // A container carrying the fallback chunk decodes back to the
        // original bytes without consulting any solver.
        let header = Header {
            version: VERSION,
            width: 8,
            codec: CodecId::Deflate,
            level: CompressionLevel::Default,
            linearization: Linearization::Row,
            preference: 0,
            chunk_elements: (data.len() / 8) as u32,
            total_len: data.len() as u64,
            checksum: adler32(&data),
        };
        let mut packed = Vec::new();
        header.write(&mut packed);
        record.write(&mut packed);
        assert_eq!(
            IsobarCompressor::default().decompress(&packed).unwrap(),
            data
        );
    }

    #[test]
    fn verify_off_decodes_and_skips_checksum_rejection() {
        let data = improvable_data(20_000);
        let isobar = compressor(Preference::Speed);
        let packed = isobar.compress(&data, 8).unwrap();
        let relaxed = IsobarCompressor::new(IsobarOptions {
            verify: false,
            ..*isobar.options()
        });
        // Clean container: identical output either way.
        assert_eq!(relaxed.decompress(&packed).unwrap(), data);

        // Flip one bit inside the last chunk's payload: verify-on
        // pinpoints the damaged chunk via its checksum.
        let mut bad = packed.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x40;
        assert!(isobar.decompress(&bad).unwrap_err().is_checksum_mismatch());
    }

    #[test]
    fn throughput_is_finite_even_for_degenerate_timings() {
        let report = CompressionReport {
            codec: CodecId::Deflate,
            linearization: Linearization::Row,
            eupa: None,
            chunks: Vec::new(),
            input_len: 1_000_000,
            output_len: 10,
            eupa_secs: 0.0,
            total_secs: 0.0,
            telemetry: TelemetrySnapshot::default(),
        };
        assert!(report.throughput_mbps().is_finite());
        // Normal timings still divide through as before.
        let normal = CompressionReport {
            total_secs: 2.0,
            ..report
        };
        assert!((normal.throughput_mbps() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn parallel_decompress_rejects_corruption_like_serial() {
        let data = improvable_data(40_000);
        let isobar = IsobarCompressor::new(IsobarOptions {
            chunk_elements: 8_000,
            parallel: true,
            codec_override: Some(CodecId::Deflate),
            linearization_override: Some(Linearization::Row),
            ..Default::default()
        });
        let packed = isobar.compress(&data, 8).unwrap();
        let mut bad = packed.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x04;
        match isobar.decompress(&bad) {
            Err(_) => {}
            Ok(out) => assert_eq!(out, data, "silent corruption"),
        }
    }

    #[test]
    fn corrupted_container_is_rejected() {
        let data = improvable_data(20_000);
        let isobar = compressor(Preference::Speed);
        let packed = isobar.compress(&data, 8).unwrap();

        // Truncations at various depths.
        for cut in [0, HEADER_LEN - 1, HEADER_LEN + 3, packed.len() - 1] {
            assert!(isobar.decompress(&packed[..cut]).is_err(), "cut {cut}");
        }
        // Bit flip in a payload.
        let mut bad = packed.clone();
        let mid = packed.len() / 2;
        bad[mid] ^= 0x01;
        assert!(isobar.decompress(&bad).is_err());
    }

    #[test]
    fn incompressible_bytes_are_stored_not_expanded() {
        // The container must not pay solver overhead on the noise
        // columns: output ≤ input + small metadata.
        let data = noise_data(40_000);
        let isobar = compressor(Preference::Speed);
        let (packed, _) = isobar.compress_with_report(&data, 8).unwrap();
        assert!(
            packed.len() < data.len() + data.len() / 50 + 256,
            "{} vs {}",
            packed.len(),
            data.len()
        );
    }

    #[test]
    fn report_throughput_and_timings_are_populated() {
        let data = improvable_data(30_000);
        let isobar = compressor(Preference::Speed);
        let (_, report) = isobar.compress_with_report(&data, 8).unwrap();
        assert!(report.total_secs > 0.0);
        assert!(report.eupa_secs > 0.0);
        if isobar_telemetry::ENABLED {
            for stage in [Phase::Analyze, Phase::SolverCompress] {
                assert!(report.telemetry.stage(stage).total_nanos > 0);
            }
        }
        assert!(report.throughput_mbps() > 0.0);
    }
}
