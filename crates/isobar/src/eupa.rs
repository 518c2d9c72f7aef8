//! EUPA-selector: End User's Preference Adaptive selection of solver
//! and linearization (§II.C).
//!
//! The selector draws random sample blocks from the input, runs every
//! {solver} × {linearization} combination through the preconditioning
//! pipeline on those samples, measures compression ratio and
//! throughput, and picks the combination that best serves the end
//! user's preference: best ratio (archival) or best speed (in-situ),
//! optionally with a minimum-ratio floor.

use crate::analyzer::ColumnSelection;
use crate::partitioner::partition_into;
use crate::pipeline::PipelineScratch;
use isobar_codecs::{codec_for, CodecId, CompressionLevel};
use isobar_linearize::Linearization;
use isobar_telemetry::{Counter, Recorder, Stage, StageTimer};
use isobar_trace as trace;
use isobar_trace::TraceTag;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// The end user's performance preference (paper: "throughput or ratio").
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Preference {
    /// Maximize compression ratio (the paper's ISOBAR-CR).
    Ratio,
    /// Maximize compression throughput (the paper's ISOBAR-Sp).
    Speed,
    /// Fastest combination whose sample ratio is at least this floor;
    /// falls back to the best ratio when none qualifies.
    SpeedWithRatioFloor(f64),
}

impl Preference {
    /// Metadata byte for the container header.
    pub fn to_u8(self) -> u8 {
        match self {
            Preference::Ratio => 0,
            Preference::Speed => 1,
            Preference::SpeedWithRatioFloor(_) => 2,
        }
    }
}

/// Measured performance of one solver × linearization combination on
/// the sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleResult {
    /// Solver tried.
    pub codec: CodecId,
    /// Linearization tried.
    pub linearization: Linearization,
    /// Sample compression ratio (original / preconditioned output).
    pub ratio: f64,
    /// Sample compression throughput in MB/s.
    pub throughput_mbps: f64,
}

/// The selector's decision plus the evidence it was based on.
#[derive(Debug, Clone)]
pub struct EupaDecision {
    /// Chosen solver.
    pub codec: CodecId,
    /// Chosen linearization for the compressible columns.
    pub linearization: Linearization,
    /// All sample measurements, for reporting and ablation.
    pub samples: Vec<SampleResult>,
}

/// Sample-based solver/linearization selector.
#[derive(Debug, Clone, Copy)]
pub struct EupaSelector {
    /// Elements per sample block.
    pub sample_elements: usize,
    /// Number of random sample blocks.
    pub sample_blocks: usize,
    /// Solver effort level used both for sampling and compression.
    pub level: CompressionLevel,
    /// RNG seed for reproducible block placement.
    pub seed: u64,
}

impl Default for EupaSelector {
    fn default() -> Self {
        EupaSelector {
            sample_elements: 16 * 1024,
            sample_blocks: 4,
            level: CompressionLevel::Default,
            seed: 0x0150_BA12,
        }
    }
}

impl EupaSelector {
    /// Draw the sample bytes: `sample_blocks` random contiguous runs of
    /// `sample_elements` elements (deterministic in the seed).
    ///
    /// The total sample is capped at 1/16 of the input so that trial
    /// compression of 4 combinations costs at most ~25% of one real
    /// pass even on small inputs; tiny inputs still sample at least a
    /// statistics-worthy block.
    fn sample_into(&self, data: &[u8], width: usize, out: &mut Vec<u8>) {
        out.clear();
        let n = data.len() / width;
        let budget = (n / (16 * self.sample_blocks.max(1))).max(512);
        let per_block = self.sample_elements.min(budget).min(n);
        if n == 0 || per_block == 0 {
            return;
        }
        let mut rng = StdRng::seed_from_u64(self.seed);
        for _ in 0..self.sample_blocks {
            let start = rng.gen_range(0..=n - per_block);
            out.extend_from_slice(&data[start * width..(start + per_block) * width]);
        }
    }

    /// Evaluate all combinations on the sample and decide.
    ///
    /// `selection` is the analyzer's verdict for this dataset (the
    /// sample inherits it — byte-column statistics are position
    /// independent). For undetermined datasets pass an all-compressible
    /// selection so the whole sample is routed through the solver.
    ///
    /// # Example
    ///
    /// ```
    /// use isobar::{Analyzer, EupaSelector, Preference};
    ///
    /// // 8-byte elements: a predictable top half, a noisy bottom half.
    /// let data: Vec<u8> = (0..50_000u64)
    ///     .flat_map(|i| ((i / 50) << 32 | (i.wrapping_mul(0x9E37_79B9) & 0xFFFF_FFFF)).to_le_bytes())
    ///     .collect();
    ///
    /// let selection = Analyzer::default().analyze(&data, 8)?;
    /// let decision = EupaSelector::default().select(&data, 8, &selection, Preference::Speed);
    /// // All four solver × linearization combinations were measured...
    /// assert_eq!(decision.samples.len(), 4);
    /// // ...and the winner is one of them.
    /// assert!(decision.samples.iter().any(|s| {
    ///     s.codec == decision.codec && s.linearization == decision.linearization
    /// }));
    /// # Ok::<(), isobar::IsobarError>(())
    /// ```
    pub fn select(
        &self,
        data: &[u8],
        width: usize,
        selection: &ColumnSelection,
        preference: Preference,
    ) -> EupaDecision {
        self.select_recorded(
            data,
            width,
            selection,
            preference,
            &mut PipelineScratch::new(),
            &mut Recorder::new(),
        )
    }

    /// [`EupaSelector::select`] on the caller's working memory — the
    /// trials partition and compress through the same scratch the
    /// chunks will, so they neither set up solver state of their own
    /// nor leave the pipeline's cold — additionally recording each
    /// trial compression (combination, wall time) and the decision.
    pub fn select_recorded(
        &self,
        data: &[u8],
        width: usize,
        selection: &ColumnSelection,
        preference: Preference,
        scratch: &mut PipelineScratch,
        recorder: &mut Recorder,
    ) -> EupaDecision {
        let stage = StageTimer::start(Stage::EupaSelect);
        let select_span = trace::span(TraceTag::EupaSelect, trace::NO_CHUNK);
        recorder.incr(Counter::EupaRuns);
        let PipelineScratch {
            codec: codec_scratch,
            compressible,
            sample,
            trial_verbatim,
            trial_output,
        } = scratch;
        self.sample_into(data, width, sample);
        let mut samples = Vec::with_capacity(4);
        for (codec_idx, codec_id) in [CodecId::Deflate, CodecId::Bzip2Like]
            .into_iter()
            .enumerate()
        {
            let codec = codec_for(codec_id, self.level);
            for lin in Linearization::ALL {
                let start = Instant::now();
                partition_into(sample, width, selection, lin, compressible, trial_verbatim);
                codec.compress_into(compressible, trial_output, codec_scratch);
                let elapsed = start.elapsed();
                recorder.record_eupa_trial(codec_idx, lin as usize, elapsed.as_nanos() as u64);
                let elapsed = elapsed.as_secs_f64();
                let out_len = trial_output.len() + trial_verbatim.len();
                let ratio = if out_len == 0 {
                    1.0
                } else {
                    sample.len() as f64 / out_len as f64
                };
                let throughput_mbps = crate::pipeline::throughput_mbps(sample.len(), elapsed);
                // One trace event per sampled codec × linearization,
                // carrying the measured evidence; the `chunk` field
                // holds the combo index (codec_idx * 2 + lin_idx).
                trace::instant_args(
                    TraceTag::EupaTrial,
                    (codec_idx * 2 + lin as usize) as u32,
                    ratio,
                    throughput_mbps,
                );
                samples.push(SampleResult {
                    codec: codec_id,
                    linearization: lin,
                    ratio,
                    throughput_mbps,
                });
            }
        }
        let best = choose(&samples, preference);
        let codec_idx = match best.codec {
            CodecId::Deflate => 0,
            CodecId::Bzip2Like => 1,
        };
        recorder.record_eupa_selected(codec_idx, best.linearization as usize);
        trace::instant_args(
            TraceTag::EupaSelected,
            (codec_idx * 2 + best.linearization as usize) as u32,
            best.ratio,
            best.throughput_mbps,
        );
        drop(select_span);
        stage.finish(recorder);
        EupaDecision {
            codec: best.codec,
            linearization: best.linearization,
            samples,
        }
    }
}

fn choose(samples: &[SampleResult], preference: Preference) -> SampleResult {
    debug_assert!(!samples.is_empty());
    // Exact ratio ties are common — with a single compressible column,
    // row and column linearization emit byte-identical streams — and
    // breaking them with throughput measured on a sub-millisecond
    // sample made the decision (and therefore the container bytes)
    // depend on scheduler noise: a serial and a parallel run of the
    // same input could disagree. Ties fall through to `max_by`, which
    // keeps the *last* tied combination in enumeration order — column
    // linearization over row, the layout the partitioner produces
    // natively.
    let by_ratio = |a: &&SampleResult, b: &&SampleResult| a.ratio.partial_cmp(&b.ratio).unwrap();
    let by_speed = |a: &&SampleResult, b: &&SampleResult| {
        a.throughput_mbps
            .partial_cmp(&b.throughput_mbps)
            .unwrap()
            .then(a.ratio.partial_cmp(&b.ratio).unwrap())
    };
    match preference {
        Preference::Ratio => *samples.iter().max_by(by_ratio).unwrap(),
        Preference::Speed => *samples.iter().max_by(by_speed).unwrap(),
        Preference::SpeedWithRatioFloor(floor) => samples
            .iter()
            .filter(|s| s.ratio >= floor)
            .max_by(by_speed)
            .copied()
            .unwrap_or_else(|| *samples.iter().max_by(by_ratio).unwrap()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyzer::Analyzer;

    fn gts_like(n: usize) -> Vec<u8> {
        // The catalog's GTS generator: 6 noise bytes, 2 predictable.
        isobar_datasets::catalog::spec("gts_phi_l")
            .expect("catalog entry")
            .generate(n, 7)
            .bytes
    }

    #[test]
    fn speed_preference_picks_fastest_measured_combination() {
        // The selector's contract: under a speed preference the chosen
        // combination is the one with the highest measured sample
        // throughput. (Which solver that is depends on build flags and
        // hardware; the paper-shape claim "zlib wins on speed" is
        // checked by the release-mode bench harness, not here.)
        let data = gts_like(100_000);
        let sel = Analyzer::default().analyze(&data, 8).unwrap();
        let decision = EupaSelector::default().select(&data, 8, &sel, Preference::Speed);
        assert_eq!(decision.samples.len(), 4);
        let best = decision
            .samples
            .iter()
            .map(|s| s.throughput_mbps)
            .fold(f64::MIN, f64::max);
        let chosen = decision
            .samples
            .iter()
            .find(|s| s.codec == decision.codec && s.linearization == decision.linearization)
            .unwrap();
        assert!((chosen.throughput_mbps - best).abs() < 1e-12);
    }

    #[test]
    fn ratio_preference_picks_best_measured_ratio() {
        let data = gts_like(100_000);
        let sel = Analyzer::default().analyze(&data, 8).unwrap();
        let decision = EupaSelector::default().select(&data, 8, &sel, Preference::Ratio);
        let best = decision
            .samples
            .iter()
            .map(|s| s.ratio)
            .fold(f64::MIN, f64::max);
        let chosen = decision
            .samples
            .iter()
            .find(|s| s.codec == decision.codec && s.linearization == decision.linearization)
            .unwrap();
        assert!((chosen.ratio - best).abs() < 1e-12);
    }

    #[test]
    fn ratio_floor_falls_back_to_best_ratio() {
        // An absurd floor (CR ≥ 1000) disqualifies everything; the
        // selector must then behave like Preference::Ratio.
        let data = gts_like(50_000);
        let sel = Analyzer::default().analyze(&data, 8).unwrap();
        let eupa = EupaSelector::default();
        let floored = eupa.select(&data, 8, &sel, Preference::SpeedWithRatioFloor(1000.0));
        let ratio = eupa.select(&data, 8, &sel, Preference::Ratio);
        assert_eq!(floored.codec, ratio.codec);
        assert_eq!(floored.linearization, ratio.linearization);
    }

    #[test]
    fn selection_is_deterministic_in_the_seed() {
        let data = gts_like(50_000);
        let sel = Analyzer::default().analyze(&data, 8).unwrap();
        let eupa = EupaSelector::default();
        let a = eupa.select(&data, 8, &sel, Preference::Ratio);
        let b = eupa.select(&data, 8, &sel, Preference::Ratio);
        assert_eq!(a.codec, b.codec);
        assert_eq!(a.linearization, b.linearization);
        // Ratios are measured on identical samples, so identical too.
        for (x, y) in a.samples.iter().zip(&b.samples) {
            assert_eq!(x.ratio, y.ratio);
        }
    }

    #[test]
    fn a_warm_scratch_does_not_change_what_is_measured() {
        // The pipeline hands EUPA the scratch its chunks use; whatever
        // an earlier dataset left there, the sample bytes and trial
        // outputs — hence ratios and the Ratio decision — must be
        // those of a fresh selector.
        let eupa = EupaSelector::default();
        let mut scratch = PipelineScratch::new();
        for (name, width) in [("gts_phi_l", 8), ("s3d_temp", 4), ("msg_sppm", 8)] {
            let data = isobar_datasets::catalog::spec(name)
                .expect("catalog entry")
                .generate(60_000, 3)
                .bytes;
            let sel = Analyzer::default().analyze(&data, width).unwrap();
            let fresh = eupa.select(&data, width, &sel, Preference::Ratio);
            let warm = eupa.select_recorded(
                &data,
                width,
                &sel,
                Preference::Ratio,
                &mut scratch,
                &mut Recorder::new(),
            );
            assert_eq!(
                (warm.codec, warm.linearization),
                (fresh.codec, fresh.linearization)
            );
            for (w, f) in warm.samples.iter().zip(&fresh.samples) {
                assert_eq!(
                    w.ratio, f.ratio,
                    "{name}: {:?} {:?}",
                    w.codec, w.linearization
                );
            }
        }
    }

    #[test]
    fn tiny_inputs_are_handled() {
        let data = gts_like(10);
        let sel = Analyzer::default().analyze(&data, 8).unwrap();
        for pref in [Preference::Ratio, Preference::Speed] {
            let d = EupaSelector::default().select(&data, 8, &sel, pref);
            assert_eq!(d.samples.len(), 4);
        }
    }

    #[test]
    fn preference_metadata_bytes() {
        assert_eq!(Preference::Ratio.to_u8(), 0);
        assert_eq!(Preference::Speed.to_u8(), 1);
        assert_eq!(Preference::SpeedWithRatioFloor(1.1).to_u8(), 2);
    }
}
