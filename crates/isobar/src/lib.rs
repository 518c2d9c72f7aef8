#![warn(missing_docs)]

//! ISOBAR-compress: a byte-column preconditioner for general-purpose
//! lossless compressors.
//!
//! Reproduction of Schendel, Jin, Shah, et al., *ISOBAR Preconditioner
//! for Effective and High-throughput Lossless Data Compression*
//! (ICDE 2012). ISOBAR treats an array of fixed-width elements
//! (doubles, floats, 64-bit integers) as a byte matrix and observes
//! that in hard-to-compress scientific data only *some* byte-columns
//! are noise; the rest are highly predictable. The workflow (paper
//! Fig. 2):
//!
//! 1. [`analyzer`] builds a byte-value frequency histogram per
//!    byte-column and classifies each column as compressible or
//!    incompressible against the tolerance `τ·N/256` (τ = 1.42).
//! 2. [`partitioner`] routes compressible columns to the solver and
//!    stores incompressible columns verbatim (Algorithm 1).
//! 3. [`eupa`] (End User's Preference Adaptive selector) picks the
//!    solver (zlib-class or bzlib2-class) and the linearization (row
//!    or column) by trial compression of random samples, optimizing
//!    the user's preference: compression ratio or throughput.
//! 4. [`chunk`]/[`container`] process the input in ~3 MB chunks and
//!    merge metadata, compressed bytes, and incompressible bytes into
//!    a self-describing output stream (Fig. 7).
//!
//! The top-level entry points are [`IsobarCompressor::compress`] and
//! [`IsobarCompressor::decompress`] in [`pipeline`]; round-trips are
//! byte-exact. Every stage records into the [`telemetry`] substrate
//! (free when compiled out — see the `docs/FORMAT.md` and README
//! "Observability" notes): [`CompressionReport::telemetry`] carries the
//! per-call snapshot, and the `*_recorded` variants
//! ([`IsobarCompressor::compress_recorded`],
//! [`Analyzer::analyze_recorded`], [`EupaSelector::select_recorded`])
//! accumulate into a caller-held [`Recorder`]. [`IsobarWriter`] in
//! [`stream`] is the incremental session behind every `compress*`
//! call. The on-disk layouts (the `ISBR` container in its batch and
//! streamed forms, the checkpoint store) are specified byte-by-byte in
//! `docs/FORMAT.md`.
//!
//! # Example
//!
//! ```
//! use isobar::{IsobarCompressor, IsobarOptions, Preference};
//!
//! // 8-byte elements: top half predictable, bottom half noise.
//! let data: Vec<u8> = (0..4000u64)
//!     .flat_map(|i| ((i / 7) << 32 | (i.wrapping_mul(0x9E3779B9) & 0xFFFF_FFFF)).to_le_bytes())
//!     .collect();
//!
//! let isobar = IsobarCompressor::new(IsobarOptions {
//!     preference: Preference::Speed,
//!     ..Default::default()
//! });
//! let packed = isobar.compress(&data, 8).unwrap();
//! assert_eq!(isobar.decompress(&packed).unwrap(), data);
//! ```

pub mod analyzer;
pub mod chunk;
pub mod container;
pub mod error;
pub mod eupa;
pub mod partitioner;
pub mod pipeline;
pub mod salvage;
pub mod stream;

pub use analyzer::{Analyzer, ColumnSelection, DEFAULT_TAU};
pub use error::IsobarError;
pub use eupa::{EupaDecision, EupaSelector, Preference};
pub use pipeline::{
    throughput_mbps, ChunkDecision, CompressionReport, IsobarCompressor, IsobarOptions,
    PipelineScratch,
};
pub use salvage::{FsckReport, SalvageReport};
pub use stream::{IsobarReader, IsobarWriter};

pub use isobar_codecs::{Codec, CodecId, CompressionLevel};
pub use isobar_linearize::Linearization;
pub use isobar_simd::{
    active_tier as active_kernel_tier, set_kernels, KernelSelection, KernelTier,
};

/// Re-export of the telemetry substrate so downstream crates can name
/// counters, stages, and snapshots without a direct dependency. See
/// [`isobar_telemetry`] for the recording model and the telemetry-off
/// build configuration.
pub use isobar_telemetry as telemetry;
pub use isobar_telemetry::{Recorder, TelemetrySnapshot};

/// Re-export of the tracing crate, so downstream crates can record
/// spans, activate tracing, and drain Chrome-trace output without a
/// direct dependency. See [`isobar_trace`] for the recording model and
/// the trace-off build configuration.
pub use isobar_trace as trace;
