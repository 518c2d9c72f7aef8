//! Estimators. A run reports a throughput from per-block rates (see
//! [`fastest_mean`]) and a latency as a nearest-rank percentile over
//! all per-op samples; a run set is compared by median and quartiles
//! across runs, with the quartile rule the driver uses (Python's
//! `statistics.quantiles(values, n=4)`).

/// Median (mean of the two middle values for an even count). 0 for an
/// empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile by the exclusive method (what Python's
/// `statistics.quantiles(values, n=4)` returns). Needs two values;
/// with fewer both quartiles are the median.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let m = values.len();
    if m < 2 {
        let x = median(values);
        return (x, x);
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// A median with its quartiles and sample count.
#[derive(Debug, Clone, Copy, Default)]
pub struct Estimate {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Estimate {
    pub fn of(values: &[f64]) -> Estimate {
        let (q1, q3) = quartiles(values);
        Estimate {
            median: median(values),
            q1,
            q3,
            n: values.len(),
        }
    }

    /// Distance between the quartiles as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Nearest-rank percentile (`p` in 0..=100) of an ascending slice, and
/// how many samples lie beyond it. 0 for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> (f64, usize) {
    if sorted.is_empty() {
        return (0.0, 0);
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    let rank = rank.clamp(1, sorted.len());
    (sorted[rank - 1], sorted.len() - rank)
}

/// Cut `samples` of (bytes, seconds) into at most `blocks` contiguous
/// groups of near-equal count and return each group's rate in MB/s
/// (10^6 bytes). A descheduled op then spoils one block, not the mean.
pub fn block_rates(samples: &[(u64, f64)], blocks: usize) -> Vec<f64> {
    let blocks = blocks.min(samples.len());
    (0..blocks)
        .map(|b| {
            let lo = b * samples.len() / blocks;
            let hi = (b + 1) * samples.len() / blocks;
            let bytes: u64 = samples[lo..hi].iter().map(|s| s.0).sum();
            let secs: f64 = samples[lo..hi].iter().map(|s| s.1).sum();
            bytes as f64 / 1e6 / secs.max(1e-9)
        })
        .collect()
}

/// Mean of the `k` largest values (of all of them, if fewer).
///
/// Why not the median of the block rates: on a shared box a neighbour
/// only ever slows a block, and does so in bursts of seconds to tens of
/// seconds. Replaying estimators over a seven-minute per-op timeline of
/// such a period, ten-run sets of the median of ten blocks spread 10%
/// between their quartiles (worst 16%), the mean of the three fastest
/// blocks 6% (worst 10%), whatever the run length from 10 to 20 s. The
/// fastest blocks are the program's speed when the machine leaves it
/// alone; three of them, not one, so that with few ops per block the
/// estimate still covers every rotating input.
pub fn fastest_mean(values: &[f64], k: usize) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| b.total_cmp(a));
    v.truncate(k.max(1));
    v.iter().sum::<f64>() / v.len() as f64
}

/// Rates in MB/s over `slices` equal wall-time slices of `[0, span_s)`
/// from (completion time in seconds, bytes) events; events at or past
/// `span_s` are left out.
pub fn slice_rates(events: &[(f64, u64)], span_s: f64, slices: usize) -> Vec<f64> {
    let width = span_s / slices as f64;
    let mut bytes = vec![0u64; slices];
    for &(at, b) in events {
        let i = (at / width) as usize;
        if at >= 0.0 && i < slices {
            bytes[i] += b;
        }
    }
    bytes.iter().map(|&b| b as f64 / 1e6 / width).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), (10.0, 40.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), (50.0, 50));
        assert_eq!(percentile(&v, 99.0), (99.0, 1));
        assert_eq!(percentile(&v, 100.0), (100.0, 0));
        assert_eq!(percentile(&[5.0], 90.0), (5.0, 0));
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 50.0), (2.0, 1));
        assert_eq!(percentile(&[], 50.0), (0.0, 0));
    }

    #[test]
    fn block_rates_isolate_one_slow_op() {
        // Ten ops of 1 MB; nine take 10 ms, one takes 100 ms.
        let mut samples = vec![(1_000_000u64, 0.01); 10];
        samples[4].1 = 0.1;
        let rates = block_rates(&samples, 10);
        assert_eq!(rates.len(), 10);
        assert_eq!(
            rates.iter().filter(|&&r| (r - 100.0).abs() < 1e-9).count(),
            9
        );
        assert!((median(&rates) - 100.0).abs() < 1e-9);
        // Fewer samples than blocks: one block per sample.
        assert_eq!(block_rates(&samples[..3], 10).len(), 3);
        // 25 samples in 10 blocks: every sample lands in one block.
        let many = vec![(1u64, 1.0); 25];
        assert_eq!(block_rates(&many, 10).len(), 10);
    }

    #[test]
    fn fastest_mean_takes_the_top_k() {
        assert_eq!(fastest_mean(&[1.0, 9.0, 5.0, 7.0], 3), 7.0);
        assert_eq!(fastest_mean(&[4.0, 2.0], 3), 3.0);
        assert_eq!(fastest_mean(&[], 3), 0.0);
    }

    #[test]
    fn slice_rates_bin_by_completion_time() {
        let events = [
            (0.05, 1_000_000u64),
            (0.15, 2_000_000),
            (0.99, 1_000_000),
            (1.2, 9),
        ];
        let rates = slice_rates(&events, 1.0, 10);
        assert_eq!(rates.len(), 10);
        assert!((rates[0] - 10.0).abs() < 1e-9);
        assert!((rates[1] - 20.0).abs() < 1e-9);
        assert!((rates[9] - 10.0).abs() < 1e-9);
        assert_eq!(rates[5], 0.0);
    }
}
