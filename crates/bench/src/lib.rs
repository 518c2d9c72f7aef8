#![warn(missing_docs)]

//! The table/figure harness behind the one `bench` binary.
//!
//! Every function in [`experiments`] regenerates one table or figure of
//! the ISOBAR paper (`bench table6`, `bench all --out results/`, `bench
//! check`). They draw on one per-process measurement cache ([`Bench`])
//! and write through one tagged output ([`Report`]), and share dataset
//! scaling, timing, and measurement helpers so the numbers are computed
//! the same way everywhere:
//!
//! * **Scaling** — dataset sizes are proportional to the paper's
//!   (Table III) times `ISOBAR_SCALE` (default 0.02, i.e. a ~100 MB
//!   corpus instead of ~5 GB). Set the environment variable to trade
//!   runtime for fidelity; classifications are stable from about
//!   0.005 upward.
//! * **Timing** — single-threaded wall time, matching the paper's
//!   single-core Lens-node measurements. Compression throughput (TP_C)
//!   counts *original* bytes per second; decompression throughput
//!   (TP_D) counts *reconstructed* bytes per second.

/// Append formatted text to a [`Report`], without a line end.
macro_rules! out {
    ($out:expr, $($arg:tt)*) => { $out.write(format_args!($($arg)*)) };
}
/// Append one formatted line to a [`Report`].
macro_rules! outln {
    ($out:expr, $($arg:tt)*) => {{ out!($out, $($arg)*); $out.say("") }};
}

pub mod bit_analyzer;
mod cache;
pub mod experiments;
mod report;

pub use cache::Bench;
pub use report::{banner_scale, Report, T};

use isobar::{CompressionReport, IsobarCompressor, IsobarOptions, Preference};
use isobar_codecs::Codec;
use std::time::Instant;

/// Default corpus scale relative to the paper's dataset sizes.
pub const DEFAULT_SCALE: f64 = 0.02;

/// Deterministic seed used by every experiment.
pub const SEED: u64 = 0x15_0BA2;

/// Scale factor from `ISOBAR_SCALE`, defaulting to [`DEFAULT_SCALE`].
pub fn scale() -> f64 {
    std::env::var("ISOBAR_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_SCALE)
}

/// Wall-clock a closure.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64())
}

/// Throughput in MB/s (paper convention: 10^6 bytes), with the
/// pipeline's one-microsecond floor on the elapsed time.
pub use isobar::throughput_mbps as mbps;

/// One standalone-codec measurement.
#[derive(Debug, Clone, Copy)]
pub struct CodecRun {
    /// Compression ratio (Eq. 1).
    pub ratio: f64,
    /// Compression throughput, MB/s.
    pub comp_mbps: f64,
    /// Decompression throughput, MB/s.
    pub decomp_mbps: f64,
}

/// Measure a standalone codec on a dataset (compress + verify + time
/// decompress).
pub fn run_codec(codec: &dyn Codec, data: &[u8]) -> CodecRun {
    let (packed, comp_secs) = time(|| codec.compress(data));
    let (unpacked, decomp_secs) = time(|| codec.decompress(&packed).expect("own stream"));
    assert_eq!(unpacked, data, "codec round-trip failure");
    CodecRun {
        ratio: data.len() as f64 / packed.len() as f64,
        comp_mbps: mbps(data.len(), comp_secs),
        decomp_mbps: mbps(data.len(), decomp_secs),
    }
}

/// One full ISOBAR pipeline measurement.
#[derive(Debug, Clone)]
pub struct IsobarRun {
    /// Compression ratio (Eq. 1).
    pub ratio: f64,
    /// Compression throughput, MB/s (whole pipeline: EUPA + analysis +
    /// partition + solver + merge).
    pub comp_mbps: f64,
    /// Decompression throughput, MB/s.
    pub decomp_mbps: f64,
    /// The detailed report (EUPA decision, per-chunk outcomes).
    pub report: CompressionReport,
}

/// Harness-standard options for a preference.
pub fn default_options(preference: Preference) -> IsobarOptions {
    IsobarOptions {
        preference,
        ..Default::default()
    }
}

/// Measure the full ISOBAR pipeline with explicit options.
pub fn run_isobar_with(data: &[u8], width: usize, options: IsobarOptions) -> IsobarRun {
    let isobar = IsobarCompressor::new(options);
    let ((packed, report), comp_secs) = time(|| {
        isobar
            .compress_with_report(data, width)
            .expect("aligned input")
    });
    let (unpacked, decomp_secs) = time(|| isobar.decompress(&packed).expect("own container"));
    assert_eq!(unpacked, data, "ISOBAR round-trip failure");
    IsobarRun {
        ratio: report.ratio(),
        comp_mbps: mbps(data.len(), comp_secs),
        decomp_mbps: mbps(data.len(), decomp_secs),
        report,
    }
}

/// ΔCR percentage (Eq. 3).
pub fn delta_cr_pct(isobar_ratio: f64, standard_ratio: f64) -> f64 {
    (isobar_ratio / standard_ratio - 1.0) * 100.0
}

/// Speed-up (Eq. 2).
pub fn speedup(isobar_mbps: f64, standard_mbps: f64) -> f64 {
    isobar_mbps / standard_mbps
}

#[cfg(test)]
mod tests {
    use super::*;
    use isobar_codecs::deflate::Deflate;

    #[test]
    fn mbps_handles_zero_time() {
        assert!(mbps(100, 0.0).is_finite());
        assert!(mbps(100, 0.0) > 0.0);
        assert!((mbps(2_000_000, 2.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn delta_cr_matches_equation_3() {
        assert!((delta_cr_pct(1.2, 1.0) - 20.0).abs() < 1e-9);
        assert!((delta_cr_pct(1.0, 1.25) + 20.0).abs() < 1e-9);
    }

    #[test]
    fn run_codec_round_trips_and_reports() {
        let data = b"measure me measure me measure me".repeat(100);
        let run = run_codec(&Deflate::default(), &data);
        assert!(run.ratio > 1.0);
        assert!(run.comp_mbps > 0.0 && run.decomp_mbps > 0.0);
    }

    #[test]
    fn run_isobar_round_trips_and_reports() {
        let spec = isobar_datasets::catalog::spec("gts_phi_l").unwrap();
        let ds = spec.generate(50_000, SEED);
        let run = run_isobar_with(&ds.bytes, ds.width(), default_options(Preference::Speed));
        assert!(run.ratio > 1.0);
        assert!(run.report.improvable());
    }

    #[test]
    fn scale_env_parsing_defaults() {
        // Do not mutate the environment (tests run in parallel); just
        // check the default path.
        if std::env::var("ISOBAR_SCALE").is_err() {
            assert_eq!(scale(), DEFAULT_SCALE);
        }
    }
}
