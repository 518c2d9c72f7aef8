//! HDR-style log-linear latency histogram for always-on request
//! timing.
//!
//! The serve daemon records every request's wall time into one of
//! these per op (and per tenant). Recording is a handful of integer
//! operations on a fixed array — no allocation, no locks, no floating
//! point — so the histograms can stay on even in production soaks.
//! Buckets are log-linear ([`SUB_BITS`] sub-buckets per power of two),
//! bounding the relative quantile error at `2^-SUB_BITS` (6.25%)
//! while covering nanoseconds to ~34 seconds in [`LATENCY_BUCKETS`]
//! slots.

use crate::json::{self, JsonValue};

/// Sub-bucket resolution: each power-of-two octave is split into
/// `2^SUB_BITS` linear sub-buckets.
pub const SUB_BITS: u32 = 4;

/// Total bucket count. With [`SUB_BITS`] = 4 this covers values up to
/// `2^35` ns (~34 s); larger values clamp into the last bucket.
pub const LATENCY_BUCKETS: usize = 512;

const SUB_COUNT: u64 = 1 << SUB_BITS;

/// Coarse upper bounds (seconds) used when rendering a histogram as
/// Prometheus `le` buckets. Fixed and few, so scrape cardinality stays
/// bounded no matter how many ops/tenants are exported.
pub const PROMETHEUS_LE_SECONDS: [f64; 10] = [
    0.000_01, 0.000_1, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0,
];

#[inline]
fn bucket_index(nanos: u64) -> usize {
    if nanos < SUB_COUNT {
        return nanos as usize;
    }
    let msb = 63 - u64::from(nanos.leading_zeros());
    let idx = ((msb - u64::from(SUB_BITS) + 1) << SUB_BITS)
        | ((nanos >> (msb - u64::from(SUB_BITS))) & (SUB_COUNT - 1));
    (idx as usize).min(LATENCY_BUCKETS - 1)
}

/// Exclusive upper bound (nanoseconds) of bucket `idx`.
#[inline]
fn bucket_upper_bound(idx: usize) -> u64 {
    if idx < SUB_COUNT as usize {
        return idx as u64 + 1;
    }
    let octave = (idx >> SUB_BITS) as u64; // msb - SUB_BITS + 1
    let sub = (idx as u64) & (SUB_COUNT - 1);
    let msb = octave + u64::from(SUB_BITS) - 1;
    let width = 1u64 << (msb - u64::from(SUB_BITS));
    (1u64 << msb) + sub * width + width
}

/// Fixed-size log-linear latency histogram (see module docs).
///
/// Plain data: record into a thread-local or per-request instance and
/// [`LatencyHistogram::merge`] at a join, exactly like
/// [`TelemetrySnapshot`](crate::TelemetrySnapshot).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    counts: [u64; LATENCY_BUCKETS],
    count: u64,
    sum_nanos: u64,
    max_nanos: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            counts: [0; LATENCY_BUCKETS],
            count: 0,
            sum_nanos: 0,
            max_nanos: 0,
        }
    }
}

impl LatencyHistogram {
    /// Empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one duration.
    #[inline]
    pub fn record(&mut self, nanos: u64) {
        let idx = bucket_index(nanos);
        self.counts[idx] = self.counts[idx].saturating_add(1);
        self.count = self.count.saturating_add(1);
        self.sum_nanos = self.sum_nanos.saturating_add(nanos);
        self.max_nanos = self.max_nanos.max(nanos);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded durations, nanoseconds.
    pub fn sum_nanos(&self) -> u64 {
        self.sum_nanos
    }

    /// Largest recorded duration, nanoseconds (0 when empty).
    pub fn max_nanos(&self) -> u64 {
        self.max_nanos
    }

    /// Mean duration, nanoseconds (0 when empty).
    pub fn mean_nanos(&self) -> u64 {
        self.sum_nanos.checked_div(self.count).unwrap_or(0)
    }

    /// Fold another histogram into this one. Commutative; all
    /// additions saturate.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine = mine.saturating_add(*theirs);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum_nanos = self.sum_nanos.saturating_add(other.sum_nanos);
        self.max_nanos = self.max_nanos.max(other.max_nanos);
    }

    /// Nearest-rank percentile in nanoseconds: the upper bound of the
    /// bucket holding the `ceil(p · count)`-th smallest sample (so the
    /// true value is at most 6.25% below the answer), clamped to the
    /// observed maximum. Returns 0 for an empty histogram; `p` is
    /// clamped to `(0, 1]`.
    fn percentile_nanos(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let p = if p.is_nan() { 1.0 } else { p.clamp(0.0, 1.0) };
        let rank = ((p * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen = seen.saturating_add(c);
            if seen >= rank {
                return bucket_upper_bound(idx).min(self.max_nanos);
            }
        }
        self.max_nanos
    }

    /// Append this histogram to `out` as one Prometheus histogram
    /// family sample set (`_bucket` lines over
    /// [`PROMETHEUS_LE_SECONDS`], `_sum`, `_count`). `labels` is the
    /// rendered label list *without* braces (e.g. `op="put"`), empty
    /// for none; the caller emits the `# HELP`/`# TYPE` header once
    /// per family. Output is byte-stable for a given histogram.
    pub fn render_prometheus(&self, out: &mut String, family: &str, labels: &str) {
        let sep = if labels.is_empty() { "" } else { "," };
        let mut bucket = 0usize;
        let mut cumulative = 0u64;
        for le in PROMETHEUS_LE_SECONDS {
            let le_nanos = (le * 1e9) as u64;
            while bucket < LATENCY_BUCKETS && bucket_upper_bound(bucket) <= le_nanos {
                cumulative = cumulative.saturating_add(self.counts[bucket]);
                bucket += 1;
            }
            out.push_str(&format!(
                "{family}_bucket{{{labels}{sep}le=\"{le}\"}} {cumulative}\n"
            ));
        }
        out.push_str(&format!(
            "{family}_bucket{{{labels}{sep}le=\"+Inf\"}} {}\n",
            self.count
        ));
        let braces = if labels.is_empty() {
            String::new()
        } else {
            format!("{{{labels}}}")
        };
        out.push_str(&format!(
            "{family}_sum{braces} {:.9}\n{family}_count{braces} {}\n",
            self.sum_nanos as f64 / 1e9,
            self.count
        ));
    }

    /// This histogram as the `/debug/stats` JSON object:
    /// `{"count": N, "sum_nanos": N, "max_nanos": N, "mean_nanos": N,
    /// "p50_nanos": N, "p90_nanos": N, "p99_nanos": N}`.
    pub fn to_json(&self) -> JsonValue {
        json::object([
            ("count", self.count.into()),
            ("sum_nanos", self.sum_nanos.into()),
            ("max_nanos", self.max_nanos.into()),
            ("mean_nanos", self.mean_nanos().into()),
            ("p50_nanos", self.percentile_nanos(0.50).into()),
            ("p90_nanos", self.percentile_nanos(0.90).into()),
            ("p99_nanos", self.percentile_nanos(0.99).into()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotonic_and_continuous() {
        // Exact in the linear region.
        for v in 0..SUB_COUNT {
            assert_eq!(bucket_index(v), v as usize);
        }
        // Adjacent values never skip a bucket, including across every
        // octave boundary.
        for shift in 4..36 {
            let edge = 1u64 << shift;
            for v in [edge - 1, edge, edge + 1] {
                let a = bucket_index(v);
                let b = bucket_index(v + 1);
                assert!(b >= a, "index went backwards at {v}");
                assert!(b - a <= 1, "index skipped at {v}: {a} -> {b}");
            }
        }
        // Bucket bounds tile: each bucket starts where the last ended.
        for idx in 16..LATENCY_BUCKETS - 1 {
            assert_eq!(
                bucket_index(bucket_upper_bound(idx)),
                idx + 1,
                "bucket {idx} upper bound not the next bucket's start"
            );
        }
        // Huge values clamp instead of indexing out of range.
        assert_eq!(bucket_index(u64::MAX), LATENCY_BUCKETS - 1);
    }

    #[test]
    fn bucket_bounds_are_tight() {
        // Every value past the linear region lands in a bucket whose
        // upper bound is within 6.25% above it (the log-linear error
        // guarantee; below 16 ns buckets are exact to 1 ns).
        for &v in &[16u64, 17, 100, 999, 12_345, 1_000_000, 5_000_000_000] {
            let idx = bucket_index(v);
            let upper = bucket_upper_bound(idx);
            assert!(upper > v, "upper {upper} not above {v}");
            let err = (upper - v) as f64 / v as f64;
            assert!(err <= 0.0626, "error {err} too large for {v}");
        }
    }

    #[test]
    fn percentiles_track_known_distribution() {
        let mut h = LatencyHistogram::new();
        // 100 samples: 1..=100 microseconds.
        for i in 1..=100u64 {
            h.record(i * 1_000);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.mean_nanos(), 50_500);
        let p50 = h.percentile_nanos(0.50);
        let p99 = h.percentile_nanos(0.99);
        // Within the 6.25% bucket error of the true values.
        assert!((46_000..=54_000).contains(&p50), "p50 {p50}");
        assert!((93_000..=106_000).contains(&p99), "p99 {p99}");
        assert_eq!(h.percentile_nanos(1.0), 100_000);
        // Empty histogram answers zero, no panic.
        assert_eq!(LatencyHistogram::new().percentile_nanos(0.99), 0);
    }

    #[test]
    fn merge_matches_recording_into_one() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut whole = LatencyHistogram::new();
        for i in 0..50u64 {
            a.record(i * 97);
            whole.record(i * 97);
        }
        for i in 0..70u64 {
            b.record(i * 13 + 5);
            whole.record(i * 13 + 5);
        }
        a.merge(&b);
        assert_eq!(a, whole);
    }

    #[test]
    fn prometheus_rendering_is_cumulative_and_labeled() {
        let mut h = LatencyHistogram::new();
        h.record(500); // 0.5 us
        h.record(2_000_000); // 2 ms
        h.record(700_000_000); // 0.7 s
        let mut out = String::new();
        h.render_prometheus(&mut out, "isobar_serve_request_seconds", "op=\"put\"");
        assert!(out.contains("isobar_serve_request_seconds_bucket{op=\"put\",le=\"0.00001\"} 1"));
        assert!(out.contains("isobar_serve_request_seconds_bucket{op=\"put\",le=\"0.005\"} 2"));
        assert!(out.contains("isobar_serve_request_seconds_bucket{op=\"put\",le=\"1\"} 3"));
        assert!(out.contains("isobar_serve_request_seconds_bucket{op=\"put\",le=\"+Inf\"} 3"));
        assert!(out.contains("isobar_serve_request_seconds_count{op=\"put\"} 3"));
        // Unlabeled rendering has no stray comma or braces.
        let mut bare = String::new();
        h.render_prometheus(&mut bare, "f", "");
        assert!(bare.contains("f_bucket{le=\"+Inf\"} 3"));
        assert!(bare.contains("f_count 3"));
    }

    #[test]
    fn json_shape_has_percentile_fields() {
        let mut h = LatencyHistogram::new();
        h.record(1_000);
        let out = h.to_json().to_string();
        for key in [
            "\"count\"",
            "\"sum_nanos\"",
            "\"max_nanos\"",
            "\"mean_nanos\"",
            "\"p50_nanos\"",
            "\"p90_nanos\"",
            "\"p99_nanos\"",
        ] {
            assert!(out.contains(key), "missing {key} in {out}");
        }
    }
}
