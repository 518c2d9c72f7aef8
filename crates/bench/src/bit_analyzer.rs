//! Bit-level analysis — the alternative §II.A argues *against*.
//!
//! The paper chooses byte-level analysis for two reasons: general
//! compressors entropy-code bytes, and byte histograms have "greater
//! variance of entropy" than per-bit marginals, making identification
//! more accurate and faster. This module implements the bit-level
//! alternative so the claim can be tested (see the
//! `ablation_granularity` binary, its only user):
//!
//! * a bit position is *predictable* when the probability of its
//!   dominant value exceeds `0.5 + epsilon` (Fig. 1's view);
//! * a byte-column is classified compressible when any of its 8 bits is
//!   predictable.
//!
//! The known blind spot, demonstrated in the tests: a byte-column
//! alternating between two complementary values (e.g. `0x55`/`0xAA`)
//! is perfectly compressible (1 bit of entropy per byte), yet *every
//! one of its bits* is a marginal coin flip — bit-level analysis
//! misclassifies it as noise, byte-level analysis does not.

use isobar::{ColumnSelection, IsobarError};

/// Default dominance margin: a bit is predictable when its dominant
/// value occurs with probability ≥ 0.5 + ε.
pub const DEFAULT_EPSILON: f64 = 0.05;

/// Bit-granularity analyzer (ablation baseline).
#[derive(Debug, Clone, Copy)]
pub struct BitAnalyzer {
    epsilon: f64,
}

impl Default for BitAnalyzer {
    fn default() -> Self {
        BitAnalyzer {
            epsilon: DEFAULT_EPSILON,
        }
    }
}

impl BitAnalyzer {
    /// Create an analyzer with a custom dominance margin ε ∈ (0, 0.5).
    pub fn with_epsilon(epsilon: f64) -> Self {
        assert!(epsilon > 0.0 && epsilon < 0.5);
        BitAnalyzer { epsilon }
    }

    /// Probability of the dominant value at each bit position
    /// (bit index = column·8 + bit-within-byte, LSB first).
    pub fn bit_probabilities(&self, data: &[u8], width: usize) -> Result<Vec<f64>, IsobarError> {
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
        let mut ones = vec![0u64; width * 8];
        for element in data.chunks_exact(width) {
            for (c, &byte) in element.iter().enumerate() {
                // Unrolled per-bit counting keeps this within ~2× of
                // the byte analyzer; a naive inner loop is ~8×.
                for bit in 0..8 {
                    ones[c * 8 + bit] += ((byte >> bit) & 1) as u64;
                }
            }
        }
        Ok(ones
            .iter()
            .map(|&count| {
                if n == 0 {
                    1.0
                } else {
                    let p = count as f64 / n as f64;
                    p.max(1.0 - p)
                }
            })
            .collect())
    }

    /// Classify byte-columns from bit marginals: a column is
    /// compressible when any of its bits is predictable.
    pub fn analyze(&self, data: &[u8], width: usize) -> Result<ColumnSelection, IsobarError> {
        let probs = self.bit_probabilities(data, width)?;
        let bits = probs
            .chunks(8)
            .map(|byte_bits| byte_bits.iter().any(|&p| p >= 0.5 + self.epsilon))
            .collect();
        Ok(ColumnSelection::new(bits))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isobar::Analyzer;

    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    /// width 4: [constant, uniform noise, counter-low, complementary pair]
    fn demo_data(n: usize) -> Vec<u8> {
        let mut state = 0x1234_5678_9ABC_DEF5u64;
        (0..n)
            .flat_map(|i| {
                let r = xorshift(&mut state);
                [
                    0x5A,
                    (r >> 40) as u8,
                    (i % 32) as u8,
                    if r & (1 << 20) == 0 { 0x55 } else { 0xAA },
                ]
            })
            .collect()
    }

    #[test]
    fn bit_probabilities_match_expectations() {
        let data = demo_data(100_000);
        let probs = BitAnalyzer::default().bit_probabilities(&data, 4).unwrap();
        // Constant column: all bits certain.
        assert!(probs[0..8].iter().all(|&p| p == 1.0));
        // Uniform column: all bits ≈ 0.5.
        assert!(probs[8..16].iter().all(|&p| p < 0.52));
        // Complementary pair column: every bit is a marginal coin flip
        // even though the byte has 1 bit of entropy.
        assert!(
            probs[24..32].iter().all(|&p| p < 0.52),
            "{:?}",
            &probs[24..32]
        );
    }

    #[test]
    fn bit_level_agrees_on_clear_cut_columns() {
        let data = demo_data(100_000);
        let bit_sel = BitAnalyzer::default().analyze(&data, 4).unwrap();
        assert!(bit_sel.bits()[0], "constant column is compressible");
        assert!(!bit_sel.bits()[1], "uniform column is noise");
        assert!(bit_sel.bits()[2], "counter column is compressible");
    }

    #[test]
    fn bit_level_misclassifies_complementary_pairs_byte_level_does_not() {
        // The §II.A argument, concretely: byte-level sees two fat bins
        // (0x55, 0xAA each at p = 0.5 ≫ τ/256) — compressible. The bit
        // marginals are all 0.5 — bit-level calls it noise.
        let data = demo_data(100_000);
        let byte_sel = Analyzer::default().analyze(&data, 4).unwrap();
        let bit_sel = BitAnalyzer::default().analyze(&data, 4).unwrap();
        assert!(byte_sel.bits()[3], "byte-level: compressible (correct)");
        assert!(!bit_sel.bits()[3], "bit-level: noise (the blind spot)");
    }

    #[test]
    fn rejects_bad_shapes_like_the_byte_analyzer() {
        let analyzer = BitAnalyzer::default();
        assert!(analyzer.analyze(&[0u8; 10], 4).is_err());
        assert!(analyzer.analyze(&[], 0).is_err());
    }

    #[test]
    fn empty_input_is_all_predictable_vacuously() {
        let sel = BitAnalyzer::default().analyze(&[], 8).unwrap();
        assert_eq!(sel.width(), 8);
        assert!(sel.bits().iter().all(|&b| b));
    }
}
