//! EUPA-selector: End User's Preference Adaptive selection of solver
//! and linearization (§II.C).
//!
//! The selector draws random sample blocks from the input and runs
//! {solver} × {linearization} combinations through the preconditioning
//! pipeline on those samples, solvers in declared speed order
//! ([`SOLVERS_BY_SPEED`]), until the end user's preference is decided:
//! best ratio (archival) needs every solver; best speed (in-situ) is
//! decided by the first, or by the first that reaches a minimum-ratio
//! floor. Throughput is measured and reported as evidence but no
//! comparison reads it, so the decision is a pure function of (bytes,
//! width, options): equal input, equal container bytes.

use crate::analyzer::ColumnSelection;
use crate::partitioner::partition_into;
use crate::pipeline::PipelineScratch;
use isobar_codecs::{codec_for, CodecId, CompressionLevel, SOLVERS_BY_SPEED};
use isobar_linearize::Linearization;
use isobar_telemetry::{Counter, Phase, Recorder};
use isobar_trace as trace;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// The end user's performance preference (paper: "throughput or ratio").
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Preference {
    /// Maximize compression ratio (the paper's ISOBAR-CR): every solver
    /// × linearization is tried and the best sample ratio wins.
    Ratio,
    /// Maximize compression throughput (the paper's ISOBAR-Sp): the
    /// declared-fastest solver ([`SOLVERS_BY_SPEED`]; the slower ones
    /// are not tried), column linearization unless row's sample ratio
    /// is more than 1% higher. Where a slower-declared solver measures
    /// faster (EXPERIMENTS.md deviation D6 lists the cases) use a
    /// ratio floor or [`Preference::Ratio`].
    Speed,
    /// The first solver, in declared speed order, with a layout whose
    /// sample ratio is at least this floor; falls back to the best
    /// ratio when none qualifies.
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

    /// The sample ratio at which a solver is taken without trying the
    /// slower ones; `None` when every solver must be tried.
    fn ratio_floor(self) -> Option<f64> {
        match self {
            Preference::Ratio => None,
            Preference::Speed => Some(0.0),
            Preference::SpeedWithRatioFloor(floor) => Some(floor),
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
    /// Sample compression throughput in MB/s: evidence for the report,
    /// the trace and telemetry, never compared — a sub-millisecond
    /// timing would make the container bytes depend on scheduler noise.
    pub throughput_mbps: f64,
}

/// The selector's decision plus the evidence it was based on.
#[derive(Debug, Clone)]
pub struct EupaDecision {
    /// Chosen solver.
    pub codec: CodecId,
    /// Chosen linearization for the compressible columns.
    pub linearization: Linearization,
    /// The trials that ran, row then column per solver visited: all
    /// four under [`Preference::Ratio`], the first solver's two under
    /// [`Preference::Speed`].
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
    /// The total sample is capped at 1/16 of the input, which bounds
    /// the per-byte work of 4 trial compressions at about a quarter of
    /// one real pass; tiny inputs still sample at least a
    /// statistics-worthy block. The cap does not bound the trials'
    /// fixed costs: every bzlib2 trial block builds 24 Huffman codes
    /// however short it is. On a 256 KiB `serve_ingest` put (a 16 KiB
    /// sample) EUPA took 41–45% of the compress call while each code
    /// build grew an arena of package trees, and takes 34–36% since
    /// it does not (three traced runs each, 2-core Xeon; EXPERIMENTS.md,
    /// "Huffman code construction").
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

    /// Trial-compress the sample, solvers in declared speed order, and
    /// stop as soon as `preference` is decided: [`Preference::Ratio`]
    /// runs all four combinations, [`Preference::Speed`] the first
    /// solver's two, a ratio floor as many solvers as it takes to reach
    /// it. No comparison reads a clock, so the decision depends on
    /// nothing but the arguments.
    ///
    /// `selection` is the analyzer's verdict for this dataset (the
    /// sample inherits it — byte-column statistics are position
    /// independent). For undetermined datasets pass an all-compressible
    /// selection so the whole sample is routed through the solver.
    ///
    /// # Example
    ///
    /// ```
    /// use isobar::{Analyzer, CodecId, EupaSelector, Preference};
    ///
    /// // 8-byte elements: a predictable top half, a noisy bottom half.
    /// let data: Vec<u8> = (0..50_000u64)
    ///     .flat_map(|i| ((i / 50) << 32 | (i.wrapping_mul(0x9E37_79B9) & 0xFFFF_FFFF)).to_le_bytes())
    ///     .collect();
    ///
    /// let selection = Analyzer::default().analyze(&data, 8)?;
    /// let eupa = EupaSelector::default();
    /// // Speed is decided by the declared-fastest solver's two layouts...
    /// let speed = eupa.select(&data, 8, &selection, Preference::Speed);
    /// assert_eq!(speed.samples.len(), 2);
    /// assert_eq!(speed.codec, CodecId::Deflate);
    /// // ...ratio needs all four solver × linearization combinations,
    /// // and the winner is one of them.
    /// let ratio = eupa.select(&data, 8, &selection, Preference::Ratio);
    /// assert_eq!(ratio.samples.len(), 4);
    /// assert!(ratio.samples.iter().any(|s| {
    ///     s.codec == ratio.codec && s.linearization == ratio.linearization
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
    /// The compress session times the whole call as the `eupa_select`
    /// stage.
    pub fn select_recorded(
        &self,
        data: &[u8],
        width: usize,
        selection: &ColumnSelection,
        preference: Preference,
        scratch: &mut PipelineScratch,
        recorder: &mut Recorder,
    ) -> EupaDecision {
        recorder.incr(Counter::EupaRuns);
        let PipelineScratch {
            codec: codec_scratch,
            compressible,
            sample,
            trial_verbatim,
            trial_output,
        } = scratch;
        self.sample_into(data, width, sample);
        let mut samples = Vec::with_capacity(2 * SOLVERS_BY_SPEED.len());
        let mut decided = None;
        for codec_id in SOLVERS_BY_SPEED {
            let codec = codec_for(codec_id, self.level);
            let codec_idx = trial_matrix_row(codec_id);
            let [row, column] = Linearization::ALL.map(|lin| {
                let start = Instant::now();
                partition_into(sample, width, selection, lin, compressible, trial_verbatim);
                codec.compress_into(compressible, trial_output, codec_scratch);
                let elapsed = start.elapsed();
                recorder.record_eupa_trial(codec_idx, lin as usize, elapsed.as_nanos() as u64);
                let out_len = trial_output.len() + trial_verbatim.len();
                let ratio = if out_len == 0 {
                    1.0
                } else {
                    sample.len() as f64 / out_len as f64
                };
                let throughput_mbps =
                    crate::pipeline::throughput_mbps(sample.len(), elapsed.as_secs_f64());
                // One trace instant per trial, carrying the evidence; its
                // `chunk` field is the combo index (codec_idx * 2 + lin_idx).
                trace::instant_args(
                    Phase::EupaTrial,
                    (codec_idx * 2 + lin as usize) as u32,
                    ratio,
                    throughput_mbps,
                );
                SampleResult {
                    codec: codec_id,
                    linearization: lin,
                    ratio,
                    throughput_mbps,
                }
            });
            samples.extend([row, column]);
            // A speed preference takes the first solver with a layout
            // at its floor; the slower solvers are then never run.
            decided = preference
                .ratio_floor()
                .and_then(|floor| speed_layout(row, column, floor));
            if decided.is_some() {
                break;
            }
        }
        let best = decided.unwrap_or_else(|| best_ratio(&samples));
        let codec_idx = trial_matrix_row(best.codec);
        recorder.record_eupa_selected(codec_idx, best.linearization as usize);
        trace::instant_args(
            Phase::EupaSelected,
            (codec_idx * 2 + best.linearization as usize) as u32,
            best.ratio,
            best.throughput_mbps,
        );
        EupaDecision {
            codec: best.codec,
            linearization: best.linearization,
            samples,
        }
    }
}

/// The solver's row in the telemetry trial matrix (`EUPA_COMBOS`).
fn trial_matrix_row(codec: CodecId) -> usize {
    match codec {
        CodecId::Deflate => 0,
        CodecId::Bzip2Like => 1,
    }
}

/// How many times Column's sample ratio Row's must exceed before a
/// speed preference takes Row. Column is the partitioner's native
/// layout (no interleave in `partition_into`, none in
/// `reassemble_into`), and sample ratios closer than this order
/// differently on the full data from one seed to the next (gts-like
/// variables read 1.1864 vs 1.1867 and lose 1.2% when Row is taken).
const ROW_MARGIN: f64 = 1.01;

/// Under a speed preference, the layout for the solver whose two trials
/// these are: of the layouts whose sample ratio reaches `floor`, Column
/// unless Row's is more than [`ROW_MARGIN`] times higher; `None` when
/// neither reaches it.
fn speed_layout(row: SampleResult, column: SampleResult, floor: f64) -> Option<SampleResult> {
    match (row.ratio >= floor, column.ratio >= floor) {
        (true, true) if row.ratio > column.ratio * ROW_MARGIN => Some(row),
        (_, true) => Some(column),
        (true, false) => Some(row),
        (false, false) => None,
    }
}

/// The best sample ratio. Exact ties are common — with a single
/// compressible column, row and column linearization emit
/// byte-identical streams — and `max_by` keeps the *last* tied
/// combination in enumeration order: column linearization over row,
/// the layout the partitioner produces natively.
fn best_ratio(samples: &[SampleResult]) -> SampleResult {
    *samples
        .iter()
        .max_by(|a, b| a.ratio.total_cmp(&b.ratio))
        .expect("every solver ran its trials")
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
    fn speed_preference_runs_only_the_declared_fastest_solver() {
        // Speed is decided by the first solver in declared speed order:
        // its two layouts are tried, the slower solver never runs (and
        // never allocates its scratch). Ratio still tries all four.
        let data = gts_like(100_000);
        let sel = Analyzer::default().analyze(&data, 8).unwrap();
        for (pref, trials) in [
            (Preference::Speed, [1, 1, 0, 0]),
            (Preference::Ratio, [1, 1, 1, 1]),
        ] {
            let mut recorder = Recorder::new();
            let decision = EupaSelector::default().select_recorded(
                &data,
                8,
                &sel,
                pref,
                &mut PipelineScratch::new(),
                &mut recorder,
            );
            let tried: Vec<_> = decision
                .samples
                .iter()
                .map(|s| (s.codec, s.linearization))
                .collect();
            let all = [
                (CodecId::Deflate, Linearization::Row),
                (CodecId::Deflate, Linearization::Column),
                (CodecId::Bzip2Like, Linearization::Row),
                (CodecId::Bzip2Like, Linearization::Column),
            ];
            assert_eq!(
                tried,
                all[..trials.iter().sum::<u64>() as usize],
                "{pref:?}"
            );
            assert!(tried.contains(&(decision.codec, decision.linearization)));
            if pref == Preference::Speed {
                assert_eq!(decision.codec, SOLVERS_BY_SPEED[0]);
            }
            // The measurement is still taken, for the report.
            assert!(decision.samples.iter().all(|s| s.throughput_mbps > 0.0));
            if isobar_telemetry::ENABLED {
                let snap = recorder.snapshot();
                assert_eq!(snap.eupa_trial_count, trials, "{pref:?}");
                assert_eq!(snap.eupa_selected.iter().sum::<u64>(), 1);
            }
        }
    }

    fn sample(codec: CodecId, linearization: Linearization, ratio: f64, mbps: f64) -> SampleResult {
        SampleResult {
            codec,
            linearization,
            ratio,
            throughput_mbps: mbps,
        }
    }

    #[test]
    fn speed_layout_is_column_unless_row_is_over_one_percent_better() {
        let (row, column) = (Linearization::Row, Linearization::Column);
        let z = CodecId::Deflate;
        let pick = |row_ratio, column_ratio, floor| {
            // Row "measures" ten times faster: no comparison may care.
            speed_layout(
                sample(z, row, row_ratio, 1000.0),
                sample(z, column, column_ratio, 100.0),
                floor,
            )
            .map(|s| s.linearization)
        };
        // A tie, Column ahead, and Row ahead inside the band: Column.
        assert_eq!(pick(1.5, 1.5, 0.0), Some(column));
        assert_eq!(pick(1.2, 1.5, 0.0), Some(column));
        assert_eq!(pick(1.1867, 1.1864, 0.0), Some(column));
        assert_eq!(pick(1.5149, 1.5, 0.0), Some(column));
        // Beyond it: Row.
        assert_eq!(pick(1.5151, 1.5, 0.0), Some(row));
        // A floor only one layout reaches decides for that layout; one
        // neither reaches sends the selector on to the next solver.
        assert_eq!(pick(1.4, 1.5, 1.45), Some(column));
        assert_eq!(pick(1.5, 1.4, 1.45), Some(row));
        assert_eq!(pick(1.5, 1.4, 1.3), Some(row));
        assert_eq!(pick(1.41, 1.4, 1.3), Some(column));
        assert_eq!(pick(1.5, 1.5, 1.6), None);
    }

    #[test]
    fn best_ratio_is_the_exact_maximum_and_ties_go_to_column() {
        let (row, column) = (Linearization::Row, Linearization::Column);
        let (z, bz) = (CodecId::Deflate, CodecId::Bzip2Like);
        let four = |ratios: [f64; 4]| {
            let best = best_ratio(&[
                sample(z, row, ratios[0], 400.0),
                sample(z, column, ratios[1], 300.0),
                sample(bz, row, ratios[2], 20.0),
                sample(bz, column, ratios[3], 10.0),
            ]);
            (best.codec, best.linearization)
        };
        // No band under Ratio: the smallest lead wins.
        assert_eq!(four([1.2001, 1.2, 1.1, 1.1]), (z, row));
        assert_eq!(four([1.2, 1.2, 1.3001, 1.3]), (bz, row));
        // Exact ties keep the last in enumeration order.
        assert_eq!(four([1.2, 1.2, 1.1, 1.1]), (z, column));
        assert_eq!(four([1.2, 1.2, 1.2, 1.2]), (bz, column));
    }

    #[test]
    fn ratio_floor_stops_at_the_first_solver_that_meets_it() {
        let data = gts_like(100_000);
        let sel = Analyzer::default().analyze(&data, 8).unwrap();
        let eupa = EupaSelector::default();
        let all = eupa.select(&data, 8, &sel, Preference::Ratio).samples;
        let best_of = |codec| {
            let of_codec = all.iter().filter(|s| s.codec == codec);
            of_codec.map(|s| s.ratio).fold(f64::MIN, f64::max)
        };
        let (zlib, bzlib2) = (best_of(CodecId::Deflate), best_of(CodecId::Bzip2Like));
        assert!(bzlib2 > zlib * 1.01, "zlib {zlib} bzlib2 {bzlib2}");

        // A floor the first solver meets: its two trials, and it.
        let met = eupa.select(&data, 8, &sel, Preference::SpeedWithRatioFloor(zlib));
        assert_eq!((met.samples.len(), met.codec), (2, CodecId::Deflate));
        // A floor only bzlib2 meets: all four, and bzlib2.
        let floor = (zlib + bzlib2) / 2.0;
        let slower = eupa.select(&data, 8, &sel, Preference::SpeedWithRatioFloor(floor));
        assert_eq!(
            (slower.samples.len(), slower.codec),
            (4, CodecId::Bzip2Like)
        );
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
        for (pref, trials) in [(Preference::Ratio, 4), (Preference::Speed, 2)] {
            let d = EupaSelector::default().select(&data, 8, &sel, pref);
            assert_eq!(d.samples.len(), trials);
        }
    }

    #[test]
    fn preference_metadata_bytes() {
        assert_eq!(Preference::Ratio.to_u8(), 0);
        assert_eq!(Preference::Speed.to_u8(), 1);
        assert_eq!(Preference::SpeedWithRatioFloor(1.1).to_u8(), 2);
    }
}
