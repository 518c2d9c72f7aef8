//! The analyzer's early-exit count decides every column exactly as the
//! full count does: for arbitrary bytes, widths 1..=16 (above 8 only the
//! scalar path runs) and tolerances τ·N/256 for τ ∈ (0, 256], on every
//! tier this machine can run. A plain `cargo test` runs the smoke size;
//! `-- --ignored` runs 10,000 cases.

use isobar_simd::{hist, testable_tiers, KernelTier};
use proptest::prelude::*;
use proptest::test_runner::seed_for;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// How one column's bytes are drawn.
#[derive(Debug, Clone, Copy)]
enum Column {
    /// Any byte, uniformly.
    Noise,
    /// One value.
    Constant(u8),
    /// Values below `alphabet`, the low ones more often.
    Skewed { alphabet: u16 },
    /// Runs of one value, `run` elements long, drawn from `alphabet`.
    Runs { alphabet: u16, run: u16 },
}

fn column() -> impl Strategy<Value = Column> {
    prop_oneof![
        Just(Column::Noise),
        any::<u8>().prop_map(Column::Constant),
        (1u16..257).prop_map(|alphabet| Column::Skewed { alphabet }),
        (1u16..257, 1u16..200).prop_map(|(alphabet, run)| Column::Runs { alphabet, run }),
    ]
}

/// Element counts from empty through several blocks: a block is
/// 32 KiB of live columns (2,048 elements at width 16, 32,768 at
/// width 1), so short chunks finish inside the first block.
fn shaped_data() -> impl Strategy<Value = (usize, Vec<u8>)> {
    (
        1usize..17,
        prop_oneof![0usize..600, 0usize..20_000],
        any::<u64>(),
    )
        .prop_flat_map(|(width, n, seed)| {
            (
                Just(width),
                Just(n),
                Just(seed),
                proptest::collection::vec(column(), width),
            )
        })
        .prop_map(|(width, n, seed, columns)| {
            let mut state = seed | 1;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 32
            };
            let mut data = vec![0u8; n * width];
            for (c, kind) in columns.iter().enumerate() {
                let mut held = 0u8;
                for i in 0..n {
                    let r = next();
                    data[i * width + c] = match *kind {
                        Column::Noise => r as u8,
                        Column::Constant(v) => v,
                        Column::Skewed { alphabet } => {
                            // The minimum of two draws favours low values.
                            let a = (r & 0xFFFF) % u64::from(alphabet);
                            let b = (r >> 16) % u64::from(alphabet);
                            a.min(b) as u8
                        }
                        Column::Runs { alphabet, run } => {
                            if i % usize::from(run) == 0 {
                                held = (r % u64::from(alphabet)) as u8;
                            }
                            held
                        }
                    };
                }
            }
            (width, data)
        })
}

/// τ across (0, 256], weighted toward the paper's band and toward
/// tolerances below one element.
fn tau() -> impl Strategy<Value = f64> {
    prop_oneof![
        1e-6f64..1.0,
        1.0f64..2.0,
        2.0f64..256.0,
        Just(256.0),
        Just(1.42),
    ]
}

fn verdicts(hists: &[[u32; 256]], tolerance: f64) -> Vec<bool> {
    hists
        .iter()
        .map(|h| h.iter().any(|&count| count as f64 > tolerance))
        .collect()
}

/// Draw `cases` cases from a seed fixed by `name` and hold each to the
/// full count's verdicts.
fn early_exit_matches_full_count(name: &str, cases: u32) {
    let mut rng = StdRng::seed_from_u64(seed_for(name));
    let strategy = (shaped_data(), tau());
    for case in 0..cases {
        let ((width, data), tau) = strategy.generate(&mut rng);
        let n = data.len() / width;
        // The analyzer's tolerance, computed as it computes it.
        let tolerance = tau * n as f64 / 256.0;
        let mut full = Vec::new();
        hist::byte_column_histograms(KernelTier::Scalar, &data, width, &mut full);
        let expected = verdicts(&full, tolerance);
        for tier in testable_tiers() {
            let mut early = Vec::new();
            hist::byte_column_histograms_until_decided(tier, &data, width, tolerance, &mut early);
            let at = format!("case {case}: tier {tier} width {width} n {n} tolerance {tolerance}");
            assert_eq!(verdicts(&early, tolerance), expected, "{at}");
            // A stopped column holds a prefix of the full count.
            for (e, f) in early.iter().zip(&full) {
                assert!(e.iter().zip(f.iter()).all(|(a, b)| a <= b), "{at}");
            }
        }
    }
}

#[test]
fn early_exit_verdicts_equal_full_count() {
    early_exit_matches_full_count("early_exit_verdicts_equal_full_count", 128);
}

#[test]
#[ignore = "full size: 10,000 cases; run with -- --ignored"]
fn early_exit_verdicts_equal_full_count_10k() {
    early_exit_matches_full_count("early_exit_verdicts_equal_full_count_10k", 10_000);
}

#[test]
fn a_column_stops_once_its_verdict_is_certain() {
    // Width 2, 100,000 elements: column 0 constant (compressible after
    // the first block), column 1 noise (counted to within a block of the end).
    let mut state = 7u64;
    let data: Vec<u8> = (0..100_000u32)
        .flat_map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            [9, (state >> 56) as u8]
        })
        .collect();
    let tolerance = 1.42 * 100_000.0 / 256.0;
    for tier in testable_tiers() {
        let mut early = Vec::new();
        hist::byte_column_histograms_until_decided(tier, &data, 2, tolerance, &mut early);
        let counted = |c: usize| early[c].iter().map(|&x| u64::from(x)).sum::<u64>();
        assert!(counted(0) < 20_000, "{tier}: {}", counted(0));
        assert!(counted(1) > 90_000, "{tier}: {}", counted(1));
        assert_eq!(verdicts(&early, tolerance), [true, false], "{tier}");
    }
}

#[test]
fn a_column_that_crosses_the_tolerance_on_its_last_elements_is_compressible() {
    // Column 0 steps evenly through all 256 values for its first `p`
    // elements, then repeats 0 to the end. Its peak — 0's count — lands
    // exactly on the tolerance, or one above it, only when the last
    // element is counted, so a rule that rules a column out one element
    // too early, or rounds the tolerance the wrong way, misreads it.
    for tier in testable_tiers() {
        for width in [1usize, 3, 4, 8, 12] {
            for n in [700usize, 5_000, 70_000] {
                for p in [n / 3, n / 2, n - 1] {
                    let data: Vec<u8> = (0..n)
                        .flat_map(|i| {
                            (0..width).map(move |c| match (c, i < p) {
                                (0, true) => (i % 256) as u8,
                                (0, false) => 0,
                                _ => (i * (2 * c + 97)) as u8,
                            })
                        })
                        .collect();
                    let last = (p.div_ceil(256) + (n - p)) as f64;
                    for tolerance in [last - 1.0, last - 0.5, last - 1e-9, last, last + 0.5] {
                        let mut full = Vec::new();
                        hist::byte_column_histograms(KernelTier::Scalar, &data, width, &mut full);
                        let mut early = Vec::new();
                        hist::byte_column_histograms_until_decided(
                            tier, &data, width, tolerance, &mut early,
                        );
                        assert_eq!(
                            verdicts(&early, tolerance),
                            verdicts(&full, tolerance),
                            "tier {tier} width {width} n {n} p {p} tolerance {tolerance}"
                        );
                        assert_eq!(verdicts(&full, tolerance)[0], last > tolerance);
                    }
                }
            }
        }
    }
}
