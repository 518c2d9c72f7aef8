#![warn(missing_docs)]

//! Runtime-dispatched SIMD kernels for the ISOBAR hot paths.
//!
//! Five loops dominate the pipeline's wall time outside the entropy
//! coders: the analyzer's per-byte-column histograms, the partitioner's
//! column gather/scatter (and its inverse on decode), the blind
//! byte-shuffle transpose, XXH64 stripe processing, and the DEFLATE
//! matcher's longest-match compare. Each gets a kernel here with a
//! portable scalar implementation — always compiled, always the test
//! oracle — plus `std::arch` x86-64 variants selected at **runtime**
//! with [`is_x86_feature_detected!`], so one binary runs correctly on
//! any CPU and fast on the ones that matter.
//!
//! # Dispatch model
//!
//! A [`KernelTier`] names one implementation level. [`active_tier`] resolves the process-wide tier once
//! (from the `ISOBAR_KERNELS` environment variable, then CPU
//! detection) and caches it, and [`set_kernels`] overrides it — the CLI
//! maps `--kernels=scalar|auto` onto that. Pipelines resolve the tier
//! **once at construction** and thread it through their hot loops, so
//! dispatch costs nothing per call; every kernel also takes an explicit
//! tier so tests can run scalar and SIMD side by side in one process.
//!
//! Every kernel is exact: SIMD output is byte-identical to the scalar
//! oracle (checked by differential proptests in this crate and pinned
//! end-to-end by the format golden tests upstream). There are no
//! floating-point kernels and no fast-math shortcuts.
//!
//! On non-x86 targets CPU detection picks [`KernelTier::Neon`] on
//! aarch64 (the kernels there use the portable wide-word paths — cheap
//! and safe without hand-written NEON) and [`KernelTier::Scalar`]
//! elsewhere.

pub mod adler;
pub mod hist;
pub mod memcmp;
pub mod transpose;
pub mod xxh64;

use std::sync::atomic::{AtomicU8, Ordering};

/// One kernel implementation level. Ordering is meaningless across
/// architectures — match on variants, never compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum KernelTier {
    /// Portable scalar code: the oracle every other tier must match.
    Scalar = 0,
    /// x86-64 SSE2 (baseline on every x86-64 CPU).
    Sse2 = 1,
    /// x86-64 AVX2 (implies SSSE3/SSE4; kernels may use either).
    Avx2 = 2,
    /// aarch64: portable wide-word paths (no hand-written intrinsics).
    Neon = 3,
}

impl KernelTier {
    /// Stable lower-case name used in telemetry, bench labels and CLI
    /// output.
    pub fn name(self) -> &'static str {
        match self {
            KernelTier::Scalar => "scalar",
            KernelTier::Sse2 => "sse2",
            KernelTier::Avx2 => "avx2",
            KernelTier::Neon => "neon",
        }
    }

    /// Numeric tag for telemetry snapshots (matches the enum
    /// discriminant; 0 doubles as "scalar or unrecorded").
    pub fn as_u8(self) -> u8 {
        self as u8
    }

    /// Inverse of [`KernelTier::as_u8`].
    pub fn from_u8(raw: u8) -> Option<Self> {
        match raw {
            0 => Some(KernelTier::Scalar),
            1 => Some(KernelTier::Sse2),
            2 => Some(KernelTier::Avx2),
            3 => Some(KernelTier::Neon),
            _ => None,
        }
    }
}

impl std::fmt::Display for KernelTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// What the user asked for: pin to the scalar oracle, or let CPU
/// detection pick the fastest tier. This is the value behind the CLI's
/// `--kernels=` flag and the `ISOBAR_KERNELS` environment variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelSelection {
    /// Force the portable scalar kernels everywhere.
    Scalar,
    /// Use the best tier the CPU supports (the default).
    #[default]
    Auto,
}

impl KernelSelection {
    /// Parse a `--kernels=` / `ISOBAR_KERNELS` value.
    pub fn parse(value: &str) -> Option<Self> {
        match value {
            "scalar" => Some(KernelSelection::Scalar),
            "auto" => Some(KernelSelection::Auto),
            _ => None,
        }
    }

    /// Resolve to a concrete tier on this machine.
    pub fn resolve(self) -> KernelTier {
        match self {
            KernelSelection::Scalar => KernelTier::Scalar,
            KernelSelection::Auto => detect_tier(),
        }
    }
}

/// Probe the CPU for the best supported tier. Unlike [`active_tier`]
/// this ignores the environment and any [`set_kernels`] override.
fn detect_tier() -> KernelTier {
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx2") {
            return KernelTier::Avx2;
        }
        // SSE2 is part of the x86-64 baseline, but go through the
        // detector anyway so the fallback chain is uniform.
        if is_x86_feature_detected!("sse2") {
            return KernelTier::Sse2;
        }
        KernelTier::Scalar
    }
    #[cfg(target_arch = "aarch64")]
    {
        KernelTier::Neon
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        KernelTier::Scalar
    }
}

/// Process-wide resolved tier: 0 = not yet resolved, otherwise
/// `tier as u8 + 1`.
static ACTIVE: AtomicU8 = AtomicU8::new(0);

/// The process-wide kernel tier, resolved once and cached.
///
/// Resolution order: a prior [`set_kernels`] call wins; otherwise the
/// `ISOBAR_KERNELS` environment variable (`scalar` or `auto`; unset or
/// unrecognized reads as `auto`); otherwise CPU detection.
pub fn active_tier() -> KernelTier {
    let cached = ACTIVE.load(Ordering::Relaxed);
    if cached != 0 {
        return KernelTier::from_u8(cached - 1).unwrap_or(KernelTier::Scalar);
    }
    let tier = std::env::var("ISOBAR_KERNELS")
        .ok()
        .and_then(|v| KernelSelection::parse(&v))
        .unwrap_or_default()
        .resolve();
    // A concurrent set_kernels() may have stored first; keep its value.
    let _ = ACTIVE.compare_exchange(0, tier.as_u8() + 1, Ordering::Relaxed, Ordering::Relaxed);
    let now = ACTIVE.load(Ordering::Relaxed);
    KernelTier::from_u8(now - 1).unwrap_or(KernelTier::Scalar)
}

/// Override the process-wide tier (the CLI's `--kernels=` flag).
/// Affects pipelines constructed after the call.
pub fn set_kernels(selection: KernelSelection) {
    ACTIVE.store(selection.resolve().as_u8() + 1, Ordering::Relaxed);
}

/// Every tier that can run on this machine, scalar first — what
/// differential tests and the kernel microbenches iterate over.
pub fn testable_tiers() -> Vec<KernelTier> {
    let mut tiers = vec![KernelTier::Scalar];
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("sse2") {
            tiers.push(KernelTier::Sse2);
        }
        if is_x86_feature_detected!("avx2") {
            tiers.push(KernelTier::Avx2);
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        tiers.push(KernelTier::Neon);
    }
    tiers
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for (tier, name) in [
            (KernelTier::Scalar, "scalar"),
            (KernelTier::Sse2, "sse2"),
            (KernelTier::Avx2, "avx2"),
            (KernelTier::Neon, "neon"),
        ] {
            assert_eq!(tier.name(), name);
            assert_eq!(KernelTier::from_u8(tier.as_u8()), Some(tier));
            assert_eq!(tier.to_string(), tier.name());
        }
        assert_eq!(KernelTier::from_u8(9), None);
    }

    #[test]
    fn selection_parses_and_resolves() {
        assert_eq!(
            KernelSelection::parse("scalar"),
            Some(KernelSelection::Scalar)
        );
        assert_eq!(KernelSelection::parse("auto"), Some(KernelSelection::Auto));
        assert_eq!(KernelSelection::parse("fast"), None);
        assert_eq!(KernelSelection::Scalar.resolve(), KernelTier::Scalar);
        assert_eq!(KernelSelection::Auto.resolve(), detect_tier());
    }

    #[test]
    fn testable_tiers_start_scalar_and_include_detected() {
        let tiers = testable_tiers();
        assert_eq!(tiers[0], KernelTier::Scalar);
        assert!(tiers.contains(&detect_tier()));
    }

    #[test]
    fn active_tier_is_stable_across_calls() {
        let first = active_tier();
        assert_eq!(active_tier(), first);
    }
}
