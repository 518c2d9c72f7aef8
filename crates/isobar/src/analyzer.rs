//! ISOBAR-analyzer: byte-column compressibility classification (§II.A).
//!
//! For each of the ω byte-columns of an `N × ω` element matrix the
//! analyzer builds a 256-bin value histogram. A column is
//! *incompressible* (noise) when **every** bin stays at or below the
//! tolerance `τ·N/256`: no byte value is frequent enough for entropy
//! coding to exploit. The paper fixes τ = 1.42 after observing that
//! compression-ratio improvements are stable for τ ∈ [1.4, 1.5].

use crate::error::IsobarError;
use isobar_telemetry::{Counter, Recorder};

/// The paper's tolerance factor (§II.A).
pub const DEFAULT_TAU: f64 = 1.42;

/// Per-column classification produced by the analyzer: `true` means the
/// column is compressible (signal), `false` incompressible (noise).
/// This is the paper's output array S with 1 = compressible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnSelection {
    bits: Vec<bool>,
}

impl ColumnSelection {
    /// Wrap a per-column bit vector (index = byte-column).
    pub fn new(bits: Vec<bool>) -> Self {
        ColumnSelection { bits }
    }

    /// Element width ω.
    pub fn width(&self) -> usize {
        self.bits.len()
    }

    /// Per-column bits, index = byte-column, `true` = compressible.
    pub fn bits(&self) -> &[bool] {
        &self.bits
    }

    /// Indices of compressible columns.
    pub fn compressible(&self) -> Vec<usize> {
        (0..self.bits.len()).filter(|&c| self.bits[c]).collect()
    }

    /// Indices of incompressible columns.
    pub fn incompressible(&self) -> Vec<usize> {
        (0..self.bits.len()).filter(|&c| !self.bits[c]).collect()
    }

    /// Percentage of hard-to-compress (incompressible) bytes —
    /// Table IV's "HTC Bytes (%)".
    pub fn htc_pct(&self) -> f64 {
        if self.bits.is_empty() {
            return 0.0;
        }
        self.incompressible().len() as f64 / self.bits.len() as f64 * 100.0
    }

    /// The partitioner's classification (§II.B): a dataset is
    /// *improvable* unless the selection is all-0 or all-1.
    pub fn is_improvable(&self) -> bool {
        let ones = self.bits.iter().filter(|&&b| b).count();
        ones != 0 && ones != self.bits.len()
    }

    /// Pack into a bitmask for container metadata (bit c = column c).
    ///
    /// Errors on selections wider than 64 columns — `1u64 << c` would
    /// overflow the shift (a panic in debug builds, silent wraparound
    /// in release) and the container's mask field is a fixed `u64`.
    pub fn to_mask(&self) -> Result<u64, IsobarError> {
        if self.bits.len() > 64 {
            return Err(IsobarError::BadWidth(self.bits.len()));
        }
        Ok(self
            .bits
            .iter()
            .enumerate()
            .fold(0u64, |m, (c, &b)| if b { m | (1 << c) } else { m }))
    }

    /// Unpack from a container bitmask. Errors on widths > 64 for the
    /// same shift-overflow reason as [`ColumnSelection::to_mask`].
    pub fn from_mask(mask: u64, width: usize) -> Result<Self, IsobarError> {
        if width > 64 {
            return Err(IsobarError::BadWidth(width));
        }
        Ok(ColumnSelection {
            bits: (0..width).map(|c| mask & (1 << c) != 0).collect(),
        })
    }
}

/// The ISOBAR-analyzer.
#[derive(Debug, Clone, Copy)]
pub struct Analyzer {
    tau: f64,
    /// Histogram kernel tier, resolved once at construction.
    tier: isobar_simd::KernelTier,
}

impl Default for Analyzer {
    fn default() -> Self {
        Analyzer {
            tau: DEFAULT_TAU,
            tier: isobar_simd::active_tier(),
        }
    }
}

impl Analyzer {
    /// Create an analyzer with a custom tolerance factor τ ∈ (0, 256].
    ///
    /// Lower τ lowers the bar for "compressible": as τ → 0 every
    /// column passes; at τ = 256 the tolerance equals N, which not even
    /// a constant column exceeds, so everything reads incompressible.
    pub fn with_tau(tau: f64) -> Self {
        assert!(tau > 0.0 && tau <= 256.0, "tau must be in (0, 256]");
        Analyzer {
            tau,
            tier: isobar_simd::active_tier(),
        }
    }

    /// The configured tolerance factor.
    pub fn tau(&self) -> f64 {
        self.tau
    }

    /// Classify every byte-column of `data` (`N` elements of `width`
    /// bytes).
    ///
    /// # Example
    ///
    /// ```
    /// use isobar::Analyzer;
    ///
    /// // 4-byte elements: a constant column, a small-alphabet column,
    /// // and two pseudo-random (noise) columns.
    /// let mut state = 0x9E3779B97F4A7C15u64;
    /// let data: Vec<u8> = (0..50_000u32)
    ///     .flat_map(|i| {
    ///         state ^= state << 13;
    ///         state ^= state >> 7;
    ///         state ^= state << 17;
    ///         [0x42, (i % 10) as u8, (state >> 48) as u8, (state >> 56) as u8]
    ///     })
    ///     .collect();
    ///
    /// let selection = Analyzer::default().analyze(&data, 4)?;
    /// assert_eq!(selection.bits(), &[true, true, false, false]);
    /// assert_eq!(selection.htc_pct(), 50.0);
    /// assert!(selection.is_improvable());
    /// # Ok::<(), isobar::IsobarError>(())
    /// ```
    pub fn analyze(&self, data: &[u8], width: usize) -> Result<ColumnSelection, IsobarError> {
        let (hists, tolerance) = self.fill_histograms(data, width)?;
        let bits = hists
            .iter()
            .map(|hist| hist.iter().any(|&count| count as f64 > tolerance))
            .collect();
        Ok(ColumnSelection::new(bits))
    }

    /// [`Analyzer::analyze`], additionally recording per-column
    /// frequency-test outcomes and the τ-margin distribution.
    ///
    /// The *τ-margin* of a column is its peak combined bin count
    /// divided by the tolerance `τ·N/256`: margins above 1 pass the
    /// frequency test (compressible), margins below fail. The recorded
    /// histogram shows how far a dataset sits from the τ decision
    /// boundary — the empirical basis for the paper's claim that
    /// results are stable for τ ∈ [1.4, 1.5]. A column whose verdict
    /// was certain before its last element stops being counted, so its
    /// margin is a lower bound: still above 1 when compressible, still
    /// below 1 when not.
    ///
    /// Classification is bit-identical to [`Analyzer::analyze`]; in the
    /// telemetry-off build the margin scan is skipped entirely and this
    /// *is* `analyze`.
    pub fn analyze_recorded(
        &self,
        data: &[u8],
        width: usize,
        recorder: &mut Recorder,
    ) -> Result<ColumnSelection, IsobarError> {
        if !isobar_telemetry::ENABLED {
            return self.analyze(data, width);
        }
        let (hists, tolerance) = self.fill_histograms(data, width)?;
        let mut bits = Vec::with_capacity(width);
        for hist in &hists {
            // `max > tolerance` ⇔ `any bin > tolerance`: same verdict
            // as analyze(), but the peak also yields the margin.
            let peak = hist.iter().copied().max().unwrap_or(0);
            let compressible = peak as f64 > tolerance;
            if tolerance > 0.0 {
                recorder.record_tau_margin(peak as f64 / tolerance);
            }
            recorder.incr(if compressible {
                Counter::ColumnsCompressible
            } else {
                Counter::ColumnsIncompressible
            });
            bits.push(compressible);
        }
        recorder.incr(Counter::AnalyzerChunks);
        recorder.add(Counter::AnalyzerBytes, data.len() as u64);
        Ok(ColumnSelection::new(bits))
    }

    /// The shared histogram pass: one 256-bin histogram per column,
    /// plus the tolerance `τ·N/256` they are judged against. Counting
    /// runs on the dispatched `isobar-simd` kernel (block-transposed
    /// multi-bank accumulation on SIMD tiers, dual-bank scalar
    /// otherwise), which stops counting a column once "any bin >
    /// tolerance" is certain either way; a stopped column's counts are
    /// partial but its verdict is the full count's, and counts are
    /// exact on every tier, so classification is bit-identical across
    /// tiers.
    fn fill_histograms(
        &self,
        data: &[u8],
        width: usize,
    ) -> Result<(Vec<[u32; 256]>, f64), IsobarError> {
        if width == 0 || width > 64 {
            return Err(IsobarError::BadWidth(width));
        }
        if !data.len().is_multiple_of(width) {
            return Err(IsobarError::MisalignedInput {
                len: data.len(),
                width,
            });
        }
        let n = data.len() / width;
        let tolerance = self.tau * n as f64 / 256.0;
        let mut hists = Vec::new();
        isobar_simd::hist::byte_column_histograms_until_decided(
            self.tier, data, width, tolerance, &mut hists,
        );
        Ok((hists, tolerance))
    }

    /// Analysis throughput helper: classify and report wall time — the
    /// paper's TP_A column (Table V) measures exactly this pass.
    pub fn analyze_timed(
        &self,
        data: &[u8],
        width: usize,
    ) -> Result<(ColumnSelection, std::time::Duration), IsobarError> {
        let start = std::time::Instant::now();
        let sel = self.analyze(data, width)?;
        Ok((sel, start.elapsed()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// n elements of width 4: col 0 constant, col 1 uniform random,
    /// col 2 binary, col 3 mildly skewed.
    fn mixed_data(n: usize) -> Vec<u8> {
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut out = Vec::with_capacity(n * 4);
        for i in 0..n {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            out.push(7); // constant
            out.push((state >> 24) as u8); // uniform
            out.push((i % 2) as u8); // two values
                                     // Spiked: 10% a fixed value, else uniform.
            let skewed = if state.is_multiple_of(10) {
                0x42
            } else {
                (state >> 32) as u8
            };
            out.push(skewed);
        }
        out
    }

    #[test]
    fn classifies_constant_uniform_and_skewed_columns() {
        let data = mixed_data(100_000);
        let sel = Analyzer::default().analyze(&data, 4).unwrap();
        assert_eq!(sel.bits(), &[true, false, true, true]);
        assert_eq!(sel.compressible(), vec![0, 2, 3]);
        assert_eq!(sel.incompressible(), vec![1]);
        assert_eq!(sel.htc_pct(), 25.0);
        assert!(sel.is_improvable());
    }

    #[test]
    fn all_uniform_is_not_improvable() {
        let mut state = 3u64;
        let data: Vec<u8> = (0..400_000)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 33) as u8
            })
            .collect();
        let sel = Analyzer::default().analyze(&data, 4).unwrap();
        assert_eq!(sel.bits(), &[false; 4]);
        assert!(!sel.is_improvable());
        assert_eq!(sel.htc_pct(), 100.0);
    }

    #[test]
    fn all_constant_is_not_improvable() {
        let data = vec![9u8; 4000];
        let sel = Analyzer::default().analyze(&data, 4).unwrap();
        assert_eq!(sel.bits(), &[true; 4]);
        assert!(!sel.is_improvable());
        assert_eq!(sel.htc_pct(), 0.0);
    }

    #[test]
    fn tau_extremes_flip_the_classification() {
        let data = mixed_data(100_000);
        // τ = 256: the tolerance equals N, which no bin can exceed —
        // every column reads incompressible.
        let none = Analyzer::with_tau(256.0).analyze(&data, 4).unwrap();
        assert_eq!(none.bits(), &[false, false, false, false]);
        // τ near 0: any nonzero bin clears the tolerance — every
        // column reads compressible.
        let all = Analyzer::with_tau(0.0001).analyze(&data, 4).unwrap();
        assert_eq!(all.bits(), &[true, true, true, true]);
        // τ in the paper's band behaves as in the first test — covered
        // there. Here check a larger band is stable (τ∈[1.4,1.5]).
        for tau in [1.40, 1.42, 1.45, 1.50] {
            let sel = Analyzer::with_tau(tau).analyze(&data, 4).unwrap();
            assert_eq!(sel.bits(), &[true, false, true, true], "tau {tau}");
        }
    }

    #[test]
    fn misaligned_input_is_rejected() {
        let err = Analyzer::default().analyze(&[0u8; 10], 4).unwrap_err();
        assert!(matches!(
            err,
            IsobarError::MisalignedInput { len: 10, width: 4 }
        ));
    }

    #[test]
    fn silly_widths_are_rejected() {
        assert!(matches!(
            Analyzer::default().analyze(&[], 0),
            Err(IsobarError::BadWidth(0))
        ));
        assert!(matches!(
            Analyzer::default().analyze(&[0u8; 130], 65),
            Err(IsobarError::BadWidth(65))
        ));
    }

    #[test]
    fn empty_input_classifies_all_compressible_vacuously() {
        // No element exceeds a zero tolerance, so all columns read as
        // incompressible... except there are no counts at all. The
        // convention: empty input → all incompressible → undetermined,
        // and the pipeline just passes it through.
        let sel = Analyzer::default().analyze(&[], 8).unwrap();
        assert_eq!(sel.width(), 8);
        assert!(!sel.is_improvable());
    }

    #[test]
    fn mask_round_trips() {
        let sel = ColumnSelection::new(vec![true, false, true, true, false, false, true, false]);
        let mask = sel.to_mask().unwrap();
        assert_eq!(mask, 0b0100_1101);
        assert_eq!(ColumnSelection::from_mask(mask, 8).unwrap(), sel);
    }

    #[test]
    fn mask_round_trips_at_full_width() {
        // Width 64 exercises the `1 << 63` edge without overflowing.
        let bits: Vec<bool> = (0..64).map(|c| c % 3 == 0 || c == 63).collect();
        let sel = ColumnSelection::new(bits);
        let mask = sel.to_mask().unwrap();
        assert_ne!(mask & (1 << 63), 0);
        assert_eq!(ColumnSelection::from_mask(mask, 64).unwrap(), sel);
    }

    #[test]
    fn mask_rejects_overwide_selections() {
        let sel = ColumnSelection::new(vec![true; 65]);
        assert!(matches!(sel.to_mask(), Err(IsobarError::BadWidth(65))));
        assert!(matches!(
            ColumnSelection::from_mask(0, 65),
            Err(IsobarError::BadWidth(65))
        ));
    }

    #[test]
    fn recorded_analysis_matches_plain_and_counts_columns() {
        let data = mixed_data(100_000);
        let mut rec = Recorder::new();
        let plain = Analyzer::default().analyze(&data, 4).unwrap();
        let recorded = Analyzer::default()
            .analyze_recorded(&data, 4, &mut rec)
            .unwrap();
        assert_eq!(plain, recorded);
        let snap = rec.snapshot();
        if isobar_telemetry::ENABLED {
            assert_eq!(snap.counter(Counter::ColumnsCompressible), 3);
            assert_eq!(snap.counter(Counter::ColumnsIncompressible), 1);
            assert_eq!(snap.counter(Counter::AnalyzerChunks), 1);
            assert_eq!(snap.counter(Counter::AnalyzerBytes), data.len() as u64);
            // One margin sample per column; the constant column's
            // margin (N vs τ·N/256) lands in the open-ended top bucket,
            // the uniform column's (≈1/τ) well below 1.
            assert_eq!(snap.tau_margin.iter().sum::<u64>(), 4);
            assert!(snap.tau_margin[15] >= 1);
        } else {
            assert!(snap.is_empty());
        }
    }

    #[test]
    fn analysis_is_fast_relative_to_compression() {
        // TP_A in the paper is ~500 MB/s on 2012 hardware; just assert
        // the pass is single-digit-milliseconds per MB here (debug
        // builds are slow, so the bound is loose).
        let data = mixed_data(250_000); // 1 MB
        let (_, elapsed) = Analyzer::default().analyze_timed(&data, 4).unwrap();
        assert!(elapsed.as_secs_f64() < 1.0, "{elapsed:?}");
    }
}
