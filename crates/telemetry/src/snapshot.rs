//! Plain-data snapshot of a recorder, with JSON in/out and merging.

use crate::json;
use crate::{Counter, Stage};

/// Version stamped into every serialized snapshot. Bump when the JSON
/// shape changes incompatibly.
pub const SNAPSHOT_SCHEMA_VERSION: u64 = 1;

/// Buckets in the τ-margin histogram. Linear, 0.25 wide, covering
/// margins in `[0, 4)`; the last bucket also absorbs everything ≥ 3.75.
pub const HISTOGRAM_BUCKETS: usize = 16;

/// EUPA combination names, indexed `codec_idx * 2 + lin_idx` where
/// codec 0 = zlib (Deflate), 1 = bzlib2, and linearization 0 = row,
/// 1 = column — matching the four candidates of the paper's §II.C.
pub const EUPA_COMBOS: [&str; 4] = ["zlib_row", "zlib_column", "bzlib2_row", "bzlib2_column"];

// Only called from the recording paths, which compile away when the
// `enabled` feature is off.
#[cfg_attr(not(feature = "enabled"), allow(dead_code))]
#[inline]
pub(crate) fn margin_bucket(margin: f64) -> usize {
    if margin.is_nan() || margin <= 0.0 {
        return 0;
    }
    ((margin * 4.0) as usize).min(HISTOGRAM_BUCKETS - 1)
}

/// Display name for a [`TelemetrySnapshot::kernel_tier`] tag. Mirrors
/// `isobar-simd`'s `KernelTier::name` (this crate stays dependency-free,
/// so the tiny mapping is duplicated; unknown tags render as `scalar`).
pub fn kernel_tier_name(tier: u8) -> &'static str {
    match tier {
        1 => "sse2",
        2 => "avx2",
        3 => "neon",
        _ => "scalar",
    }
}

#[cfg_attr(not(feature = "enabled"), allow(dead_code))]
#[inline]
pub(crate) fn combo_index(codec_idx: usize, lin_idx: usize) -> usize {
    debug_assert!(codec_idx < 2 && lin_idx < 2);
    (codec_idx * 2 + lin_idx).min(EUPA_COMBOS.len() - 1)
}

/// Aggregated wall-time statistics for one pipeline stage.
///
/// `min_nanos`/`max_nanos` are meaningful only when `count > 0`.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StageStats {
    /// Spans recorded.
    pub count: u64,
    /// Sum of all span durations, nanoseconds.
    pub total_nanos: u64,
    /// Shortest span, nanoseconds (0 when no spans recorded).
    pub min_nanos: u64,
    /// Longest span, nanoseconds.
    pub max_nanos: u64,
}

impl StageStats {
    #[cfg_attr(not(feature = "enabled"), allow(dead_code))]
    #[inline]
    pub(crate) fn record(&mut self, nanos: u64) {
        if self.count == 0 {
            self.min_nanos = nanos;
            self.max_nanos = nanos;
        } else {
            self.min_nanos = self.min_nanos.min(nanos);
            self.max_nanos = self.max_nanos.max(nanos);
        }
        self.count += 1;
        self.total_nanos += nanos;
    }

    /// Fold another stage's stats into this one. Commutative.
    ///
    /// Count and total saturate rather than wrap: merging snapshots
    /// from long-running workers must never overflow in release builds
    /// (where `+` wraps silently).
    pub fn merge(&mut self, other: &StageStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        self.count = self.count.saturating_add(other.count);
        self.total_nanos = self.total_nanos.saturating_add(other.total_nanos);
        self.min_nanos = self.min_nanos.min(other.min_nanos);
        self.max_nanos = self.max_nanos.max(other.max_nanos);
    }

    /// Mean span duration in nanoseconds (0 when nothing recorded).
    pub fn mean_nanos(&self) -> u64 {
        self.total_nanos.checked_div(self.count).unwrap_or(0)
    }
}

/// Every telemetry total as plain, fixed-size data.
///
/// The struct is all inline arrays: cloning or defaulting one never
/// allocates, which is what lets the recorder live inside hot loops.
/// Heap memory is only touched by [`TelemetrySnapshot::to_json`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetrySnapshot {
    /// Monotonic counters, indexed by `Counter as usize`.
    pub counters: [u64; Counter::COUNT],
    /// Per-stage wall-time stats, indexed by `Stage as usize`.
    pub stages: [StageStats; Stage::COUNT],
    /// Histogram of analyzer τ-margins (see
    /// [`Recorder::record_tau_margin`](crate::Recorder::record_tau_margin)).
    pub tau_margin: [u64; HISTOGRAM_BUCKETS],
    /// How often EUPA selected each combination, indexed per [`EUPA_COMBOS`].
    pub eupa_selected: [u64; EUPA_COMBOS.len()],
    /// EUPA trial compressions run per combination.
    pub eupa_trial_count: [u64; EUPA_COMBOS.len()],
    /// Total nanoseconds spent trial-compressing each combination.
    pub eupa_trial_nanos: [u64; EUPA_COMBOS.len()],
    /// SIMD kernel tier the pipeline ran on (`isobar-simd`'s
    /// `KernelTier::as_u8`: 0 = scalar or unrecorded, 1 = sse2,
    /// 2 = avx2, 3 = neon).
    pub kernel_tier: u8,
}

impl Default for TelemetrySnapshot {
    fn default() -> Self {
        TelemetrySnapshot {
            counters: [0; Counter::COUNT],
            stages: [StageStats::default(); Stage::COUNT],
            tau_margin: [0; HISTOGRAM_BUCKETS],
            eupa_selected: [0; EUPA_COMBOS.len()],
            eupa_trial_count: [0; EUPA_COMBOS.len()],
            eupa_trial_nanos: [0; EUPA_COMBOS.len()],
            kernel_tier: 0,
        }
    }
}

impl TelemetrySnapshot {
    /// Read one counter by name rather than index.
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters[counter as usize]
    }

    /// Read one stage's stats by name rather than index.
    pub fn stage(&self, stage: Stage) -> StageStats {
        self.stages[stage as usize]
    }

    /// True when nothing was ever recorded (e.g. the telemetry-off build).
    pub fn is_empty(&self) -> bool {
        *self == TelemetrySnapshot::default()
    }

    /// Fold another snapshot into this one. Commutative and
    /// associative, so per-thread snapshots merge in any order.
    ///
    /// All additions saturate: merging many long-running worker
    /// snapshots pins at `u64::MAX` instead of wrapping, which in a
    /// release build would silently reset a counter to near zero.
    pub fn merge(&mut self, other: &TelemetrySnapshot) {
        for (mine, theirs) in self.counters.iter_mut().zip(&other.counters) {
            *mine = mine.saturating_add(*theirs);
        }
        for (mine, theirs) in self.stages.iter_mut().zip(&other.stages) {
            mine.merge(theirs);
        }
        for (mine, theirs) in self.tau_margin.iter_mut().zip(&other.tau_margin) {
            *mine = mine.saturating_add(*theirs);
        }
        for (mine, theirs) in self.eupa_selected.iter_mut().zip(&other.eupa_selected) {
            *mine = mine.saturating_add(*theirs);
        }
        for (mine, theirs) in self
            .eupa_trial_count
            .iter_mut()
            .zip(&other.eupa_trial_count)
        {
            *mine = mine.saturating_add(*theirs);
        }
        for (mine, theirs) in self
            .eupa_trial_nanos
            .iter_mut()
            .zip(&other.eupa_trial_nanos)
        {
            *mine = mine.saturating_add(*theirs);
        }
        // Within one process every worker runs the same tier; the max
        // keeps a recorded tier over an unrecorded (0 = scalar) one.
        self.kernel_tier = self.kernel_tier.max(other.kernel_tier);
    }

    /// Serialize as pretty-printed JSON with a stable key order.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n");
        json::field_u64(&mut out, 1, "schema_version", SNAPSHOT_SCHEMA_VERSION, true);
        json::field_u64(
            &mut out,
            1,
            "kernel_tier",
            u64::from(self.kernel_tier),
            true,
        );

        out.push_str("  \"counters\": {\n");
        for (i, counter) in Counter::ALL.iter().enumerate() {
            json::field_u64(
                &mut out,
                2,
                counter.name(),
                self.counters[i],
                i + 1 < Counter::COUNT,
            );
        }
        out.push_str("  },\n");

        out.push_str("  \"stages\": {\n");
        for (i, stage) in Stage::ALL.iter().enumerate() {
            let s = &self.stages[i];
            out.push_str("    \"");
            out.push_str(stage.name());
            out.push_str("\": {");
            out.push_str(&format!(
                "\"count\": {}, \"total_nanos\": {}, \"min_nanos\": {}, \"max_nanos\": {}",
                s.count, s.total_nanos, s.min_nanos, s.max_nanos
            ));
            out.push('}');
            if i + 1 < Stage::COUNT {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  },\n");

        out.push_str("  \"histograms\": {\n");
        out.push_str("    \"tau_margin\": ");
        json::array_u64(&mut out, &self.tau_margin);
        out.push('\n');
        out.push_str("  },\n");

        out.push_str("  \"eupa\": {\n");
        out.push_str("    \"combos\": [");
        for (i, name) in EUPA_COMBOS.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push('"');
            out.push_str(name);
            out.push('"');
        }
        out.push_str("],\n");
        out.push_str("    \"selected\": ");
        json::array_u64(&mut out, &self.eupa_selected);
        out.push_str(",\n    \"trial_count\": ");
        json::array_u64(&mut out, &self.eupa_trial_count);
        out.push_str(",\n    \"trial_nanos\": ");
        json::array_u64(&mut out, &self.eupa_trial_nanos);
        out.push('\n');
        out.push_str("  }\n");
        out.push('}');
        out
    }

    /// Render a human-readable table (the CLI's `--stats=table` view).
    /// Zero rows are skipped so quick runs stay readable.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str("telemetry\n");
        out.push_str(&format!(
            "  kernel tier: {}\n",
            kernel_tier_name(self.kernel_tier)
        ));
        out.push_str("  counters\n");
        let mut any = false;
        for (i, counter) in Counter::ALL.iter().enumerate() {
            if self.counters[i] != 0 {
                any = true;
                out.push_str(&format!(
                    "    {:<30} {:>16}\n",
                    counter.name(),
                    self.counters[i]
                ));
            }
        }
        if !any {
            out.push_str("    (none)\n");
        }
        out.push_str("  stages (count / total ms / mean us)\n");
        any = false;
        for (i, stage) in Stage::ALL.iter().enumerate() {
            let s = &self.stages[i];
            if s.count != 0 {
                any = true;
                out.push_str(&format!(
                    "    {:<30} {:>8} {:>12.3} {:>12.3}\n",
                    stage.name(),
                    s.count,
                    s.total_nanos as f64 / 1e6,
                    s.mean_nanos() as f64 / 1e3,
                ));
            }
        }
        if !any {
            out.push_str("    (none)\n");
        }
        if self.tau_margin.iter().any(|&b| b != 0) {
            out.push_str("  tau_margin histogram (bucket width 0.25, last open-ended)\n");
            for (i, &count) in self.tau_margin.iter().enumerate() {
                if count != 0 {
                    out.push_str(&format!(
                        "    [{:>5.2}, {:>5.2}) {:>16}\n",
                        i as f64 * 0.25,
                        (i + 1) as f64 * 0.25,
                        count
                    ));
                }
            }
        }
        if self.eupa_trial_count.iter().any(|&c| c != 0) {
            out.push_str("  eupa (selected / trials / trial ms)\n");
            for (i, name) in EUPA_COMBOS.iter().enumerate() {
                out.push_str(&format!(
                    "    {:<30} {:>8} {:>8} {:>12.3}\n",
                    name,
                    self.eupa_selected[i],
                    self.eupa_trial_count[i],
                    self.eupa_trial_nanos[i] as f64 / 1e6,
                ));
            }
        }
        out
    }

    /// Render in the Prometheus text exposition format (version 0.0.4,
    /// what `promtool` and node-exporter text collectors accept).
    ///
    /// Every counter becomes its own `isobar_<name>_total` counter
    /// family; every stage becomes an
    /// `isobar_stage_<name>_duration_seconds` summary (`_count`,
    /// `_sum`, and `quantile="0"`/`"1"` samples carrying the observed
    /// min/max); the τ-margin histogram becomes a native Prometheus
    /// histogram with cumulative `le` buckets; EUPA totals are
    /// `combo`-labeled counter families. Output is byte-stable for a
    /// given snapshot (enum declaration order, fixed float precision),
    /// so it can be golden-tested.
    pub fn to_prometheus(&self) -> String {
        let secs = |nanos: u64| format!("{:.9}", nanos as f64 / 1e9);
        let mut out = String::with_capacity(8192);

        out.push_str(&format!(
            "# HELP isobar_kernel_tier_info SIMD kernel tier the pipeline ran on.\n\
             # TYPE isobar_kernel_tier_info gauge\n\
             isobar_kernel_tier_info{{tier=\"{}\"}} 1\n",
            kernel_tier_name(self.kernel_tier)
        ));

        for (i, counter) in Counter::ALL.iter().enumerate() {
            let name = counter.name();
            out.push_str(&format!(
                "# HELP isobar_{name}_total ISOBAR pipeline counter {name}.\n\
                 # TYPE isobar_{name}_total counter\n\
                 isobar_{name}_total {}\n",
                self.counters[i]
            ));
        }

        for (i, stage) in Stage::ALL.iter().enumerate() {
            let s = &self.stages[i];
            let name = stage.name();
            let family = format!("isobar_stage_{name}_duration_seconds");
            out.push_str(&format!(
                "# HELP {family} Wall time of {name} pipeline spans.\n\
                 # TYPE {family} summary\n\
                 {family}{{quantile=\"0\"}} {}\n\
                 {family}{{quantile=\"1\"}} {}\n\
                 {family}_sum {}\n\
                 {family}_count {}\n",
                secs(s.min_nanos),
                secs(s.max_nanos),
                secs(s.total_nanos),
                s.count
            ));
        }

        out.push_str(
            "# HELP isobar_tau_margin Distribution of analyzer tau margins \
             (distance of each byte-column frequency from the tau threshold).\n\
             # TYPE isobar_tau_margin histogram\n",
        );
        let mut cumulative = 0u64;
        for (i, &count) in self.tau_margin.iter().enumerate() {
            cumulative = cumulative.saturating_add(count);
            if i + 1 < HISTOGRAM_BUCKETS {
                out.push_str(&format!(
                    "isobar_tau_margin_bucket{{le=\"{:.2}\"}} {cumulative}\n",
                    (i + 1) as f64 * 0.25
                ));
            }
        }
        out.push_str(&format!(
            "isobar_tau_margin_bucket{{le=\"+Inf\"}} {cumulative}\n\
             isobar_tau_margin_sum 0\n\
             isobar_tau_margin_count {cumulative}\n"
        ));

        let eupa_family =
            |out: &mut String, family: &str, help: &str, values: &[u64], seconds: bool| {
                out.push_str(&format!(
                    "# HELP {family} {help}\n# TYPE {family} counter\n"
                ));
                for (name, &value) in EUPA_COMBOS.iter().zip(values) {
                    if seconds {
                        out.push_str(&format!("{family}{{combo=\"{name}\"}} {}\n", secs(value)));
                    } else {
                        out.push_str(&format!("{family}{{combo=\"{name}\"}} {value}\n"));
                    }
                }
            };
        eupa_family(
            &mut out,
            "isobar_eupa_selected_total",
            "Times EUPA selected each codec x linearization combination.",
            &self.eupa_selected,
            false,
        );
        eupa_family(
            &mut out,
            "isobar_eupa_trials_total",
            "EUPA trial compressions run per combination.",
            &self.eupa_trial_count,
            false,
        );
        eupa_family(
            &mut out,
            "isobar_eupa_trial_seconds_total",
            "Wall time spent trial-compressing each combination.",
            &self.eupa_trial_nanos,
            true,
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn margin_buckets_cover_the_line() {
        assert_eq!(margin_bucket(-1.0), 0);
        assert_eq!(margin_bucket(0.0), 0);
        assert_eq!(margin_bucket(0.1), 0);
        assert_eq!(margin_bucket(0.25), 1);
        assert_eq!(margin_bucket(1.0), 4);
        assert_eq!(margin_bucket(3.74), 14);
        assert_eq!(margin_bucket(3.75), 15);
        assert_eq!(margin_bucket(1e9), 15);
        assert_eq!(margin_bucket(f64::NAN), 0);
    }

    #[test]
    fn stage_stats_merge_handles_empty_sides() {
        let mut a = StageStats::default();
        let mut b = StageStats::default();
        b.record(10);
        b.record(30);
        a.merge(&b);
        assert_eq!(a, b);
        let empty = StageStats::default();
        a.merge(&empty);
        assert_eq!(a, b);
        assert_eq!(a.mean_nanos(), 20);
    }

    #[test]
    fn json_output_is_byte_stable() {
        let mut snap = TelemetrySnapshot::default();
        snap.counters[0] = 5;
        assert_eq!(snap.to_json(), snap.clone().to_json());
        // Key order is the declaration order of the enums, not hash order.
        let json = snap.to_json();
        let chunks_pos = json.find("\"analyzer_chunks\"").unwrap();
        let bytes_pos = json.find("\"analyzer_bytes\"").unwrap();
        assert!(chunks_pos < bytes_pos);
    }

    #[test]
    fn merge_is_commutative() {
        let mut a = TelemetrySnapshot::default();
        a.counters[3] = 10;
        a.stages[1].record(100);
        a.tau_margin[2] = 4;
        let mut b = TelemetrySnapshot::default();
        b.counters[3] = 5;
        b.counters[7] = 9;
        b.stages[1].record(50);
        b.eupa_selected[0] = 1;

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.counters[3], 15);
        assert_eq!(ab.stages[1].count, 2);
        assert_eq!(ab.stages[1].min_nanos, 50);
        assert_eq!(ab.stages[1].max_nanos, 100);
    }

    #[test]
    fn merge_saturates_instead_of_wrapping() {
        // Regression: release builds wrap on `+`, so a near-full
        // counter merged with another would silently reset to ~0.
        let mut a = TelemetrySnapshot::default();
        a.counters[0] = u64::MAX - 1;
        a.tau_margin[0] = u64::MAX;
        a.eupa_selected[0] = u64::MAX;
        a.eupa_trial_count[0] = u64::MAX;
        a.eupa_trial_nanos[0] = u64::MAX;
        a.stages[0] = StageStats {
            count: u64::MAX,
            total_nanos: u64::MAX,
            min_nanos: 1,
            max_nanos: 9,
        };
        let mut b = TelemetrySnapshot::default();
        b.counters[0] = 5;
        b.tau_margin[0] = 5;
        b.eupa_selected[0] = 5;
        b.eupa_trial_count[0] = 5;
        b.eupa_trial_nanos[0] = 5;
        b.stages[0] = StageStats {
            count: 3,
            total_nanos: 3,
            min_nanos: 2,
            max_nanos: 4,
        };

        a.merge(&b);
        assert_eq!(a.counters[0], u64::MAX);
        assert_eq!(a.tau_margin[0], u64::MAX);
        assert_eq!(a.eupa_selected[0], u64::MAX);
        assert_eq!(a.eupa_trial_count[0], u64::MAX);
        assert_eq!(a.eupa_trial_nanos[0], u64::MAX);
        assert_eq!(a.stages[0].count, u64::MAX);
        assert_eq!(a.stages[0].total_nanos, u64::MAX);
        assert_eq!(a.stages[0].min_nanos, 1);
        assert_eq!(a.stages[0].max_nanos, 9);
    }

    #[test]
    fn prometheus_families_are_complete_and_well_formed() {
        let mut snap = TelemetrySnapshot::default();
        snap.counters[0] = 42;
        snap.stages[0].record(1_500);
        snap.tau_margin[1] = 3;
        snap.eupa_selected = [1, 0, 0, 0];
        let text = snap.to_prometheus();

        // Every counter and stage surfaces as its own family with both
        // header lines; the histogram's buckets are cumulative.
        for counter in Counter::ALL {
            let family = format!("isobar_{}_total", counter.name());
            assert!(text.contains(&format!("# HELP {family} ")), "{family}");
            assert!(text.contains(&format!("# TYPE {family} counter\n")));
            assert!(text.contains(&format!("\n{family} ")));
        }
        for stage in Stage::ALL {
            let family = format!("isobar_stage_{}_duration_seconds", stage.name());
            assert!(text.contains(&format!("# TYPE {family} summary\n")));
            assert!(text.contains(&format!("{family}_count ")));
            assert!(text.contains(&format!("{family}_sum ")));
        }
        assert!(text.contains("# TYPE isobar_tau_margin histogram"));
        assert!(text.contains("isobar_tau_margin_bucket{le=\"0.25\"} 0"));
        assert!(text.contains("isobar_tau_margin_bucket{le=\"0.50\"} 3"));
        assert!(text.contains("isobar_tau_margin_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("isobar_eupa_selected_total{combo=\"zlib_row\"} 1"));
        // Exposition format: every non-comment line is `name[{labels}] value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            assert_eq!(line.rsplitn(2, ' ').count(), 2, "bad sample line: {line}");
        }
    }

    #[test]
    fn render_table_mentions_nonzero_rows_only() {
        let mut snap = TelemetrySnapshot::default();
        snap.counters[Counter::ChunksCompressed as usize] = 3;
        let table = snap.render_table();
        assert!(table.contains("chunks_compressed"));
        assert!(!table.contains("store_puts"));
    }
}
