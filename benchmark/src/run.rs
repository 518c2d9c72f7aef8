//! What every workload shares: the run arguments, the end-to-end
//! record, set-up timing and the CPU-time meter.

use crate::stats::{block_rates, fastest_mean, percentile, slice_rates, Estimate};
use std::path::PathBuf;
use std::time::Instant;

pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    pub trace: bool,
    /// Root under which this run makes (and removes) its scratch
    /// directory and writes its trace file.
    pub dir: PathBuf,
    /// 1/20-scale inputs and a single set-up, for the self-check tests.
    pub quick: bool,
}

impl RunArgs {
    /// Scale a size or count down in `--quick` mode.
    pub fn scaled(&self, full: usize) -> usize {
        if self.quick {
            (full / 20).max(1)
        } else {
            full
        }
    }

    /// Whether the set-up is timed at all: only the full-scale untraced
    /// run reports `setup_s`.
    pub fn times_setup(&self) -> bool {
        !(self.quick || self.trace)
    }
}

/// Blocks a timed phase is cut into.
pub const BLOCKS: usize = 10;
/// Blocks a throughput is the mean of: the fastest three (see
/// [`fastest_mean`]).
const FASTEST: usize = 3;

/// A throughput with the spread of its blocks.
pub struct Rate {
    pub mbps: f64,
    /// Median, quartiles and count of the per-block rates, printed
    /// beside the estimate.
    pub blocks: Estimate,
}

impl Rate {
    /// From (bytes, seconds) samples of a compute-bound phase: cut into
    /// blocks of equal op count, mean of the fastest blocks.
    pub fn of_fastest_blocks(samples: &[(u64, f64)]) -> Rate {
        let rates = block_rates(samples, BLOCKS);
        Rate {
            mbps: fastest_mean(&rates, FASTEST),
            blocks: Estimate::of(&rates),
        }
    }

    /// From completion events of a phase with periodic background work
    /// (the serve daemon's commits): bytes over the whole phase. A
    /// one-second slice either holds a commit or does not, so neither
    /// the median nor the fastest of the slices says what is sustained.
    pub fn of_whole_phase(events: &[(f64, u64)], phase_s: f64, measured_s: f64) -> Rate {
        let bytes: u64 = events.iter().map(|e| e.1).sum();
        Rate {
            mbps: bytes as f64 / 1e6 / phase_s,
            blocks: Estimate::of(&slice_rates(events, measured_s, BLOCKS)),
        }
    }
}

/// The time of one op, as its workload can know it.
pub enum Latency {
    /// Nearest-rank p50 over these per-op samples (ms, ascending).
    Samples(Vec<f64>),
    /// The workload runs one op at a time, so an op's wall time and
    /// the rate are one measurement: `bytes` at the reported rate.
    AtRate { bytes: u64, mbps: f64 },
}

impl Latency {
    pub fn p50_ms(&self) -> f64 {
        match self {
            Latency::Samples(ms) => percentile(ms, 50.0).0,
            Latency::AtRate { bytes, mbps } => *bytes as f64 / 1e3 / mbps.max(1e-9),
        }
    }

    /// For the reader: how many samples the percentile rests on.
    pub fn describe(&self) -> String {
        match self {
            Latency::Samples(ms) => {
                format!(
                    "p50 of {} samples, {} beyond",
                    ms.len(),
                    percentile(ms, 50.0).1
                )
            }
            Latency::AtRate { bytes, .. } => format!("{bytes} bytes at the reported rate"),
        }
    }
}

/// What the untraced run of a workload measured.
pub struct EndToEnd {
    /// MB/s accepted on the write side.
    pub ingest: Rate,
    /// MB/s returned and verified.
    pub restore: Rate,
    pub ratio: f64,
    pub cpu_s_per_gb: f64,
    pub put: Latency,
    pub get: Latency,
    pub attempted: u64,
    pub failed: u64,
    pub setup_s: Estimate,
    pub input_hash: u64,
    pub schedule_hash: u64,
}

/// Set-ups a timed run makes at least, and at most.
const SETUP_REPS: (usize, usize) = (3, 9);
/// A cheap set-up is repeated until this much time has gone into it:
/// the median of three 60 ms set-ups moves with every descheduling.
const SETUP_BUDGET_S: f64 = 1.0;

/// Run the whole set-up several times, keep the last result, and
/// report the median time: one descheduled set-up must not move
/// `setup_s`. The closure gets the repetition's index.
pub fn measure_setup<T>(args: &RunArgs, mut setup: impl FnMut(usize) -> T) -> (T, Estimate) {
    let (min_reps, max_reps) = if args.times_setup() {
        SETUP_REPS
    } else {
        (1, 1)
    };
    let mut times = Vec::new();
    let mut last = None;
    while times.len() < min_reps
        || (times.len() < max_reps && times.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup(times.len()));
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), Estimate::of(&times))
}

/// Process CPU time (all threads, read with [`cpu_seconds`] around the
/// timed sections only), one sample per op or round.
#[derive(Default)]
pub struct CpuMeter {
    samples: Vec<(u64, f64)>,
}

impl CpuMeter {
    /// One sample: `cpu_s` CPU seconds moved `bytes` bytes.
    pub fn add(&mut self, bytes: u64, cpu_s: f64) {
        self.samples.push((bytes, cpu_s));
    }

    /// CPU seconds per 10^9 bytes moved, from the same blocks as the
    /// throughput: memory contention inflates CPU time as it does wall
    /// time. A single sample (the serve phase) is its own block.
    pub fn per_gb(&self) -> f64 {
        let mb_per_cpu_s = fastest_mean(&block_rates(&self.samples, BLOCKS), FASTEST);
        1e3 / mb_per_cpu_s.max(1e-9)
    }
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}
