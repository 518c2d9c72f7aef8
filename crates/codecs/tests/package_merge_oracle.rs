//! Length-limited Huffman code lengths against an oracle: the arena
//! package-merge `package_merge_into` replaced, kept here (module
//! `oracle`, `huffman.rs` at `3304277`). The oracle stores every
//! package as an arena node, merges (weight, node) lists and counts
//! each leaf by walking the selected packages' trees with a stack; it
//! shares no code with the library.
//!
//! On every frequency table — 1 to 290 symbols, any limit from the
//! smallest that fits to 24, heavy ties, runs of unused symbols,
//! Fibonacci weights that make the limit bind, weights up to 2⁴⁰, and
//! the histograms bzip2's table refinement builds on catalog data — the
//! library must assign the oracle's lengths, through one scratch reused
//! across alphabets that shrink and regrow.

use std::cell::RefCell;

use isobar_codecs::bwt::bwt_forward;
use isobar_codecs::huffman::{package_merge_into, PackageMergeScratch};
use isobar_codecs::mtf::mtf_zrle_encode;
use isobar_codecs::rle::rle1_encode;
use isobar_datasets::catalog;
use proptest::collection::vec;
use proptest::prelude::*;

mod oracle {
    /// Package-merge arena node: a leaf symbol or a merged pair.
    enum Node {
        Leaf(u16),
        Pair(u32, u32),
    }

    #[derive(Default)]
    pub struct Scratch {
        leaves: Vec<(u64, u16)>,
        arena: Vec<Node>,
        singletons: Vec<(u64, u32)>,
        current: Vec<(u64, u32)>,
        next: Vec<(u64, u32)>,
        merged: Vec<(u64, u32)>,
        stack: Vec<u32>,
    }

    pub fn package_merge(freqs: &[u64], max_len: u8, s: &mut Scratch) -> Vec<u8> {
        let mut lengths = vec![0u8; freqs.len()];
        s.leaves.clear();
        s.leaves.extend(
            freqs
                .iter()
                .enumerate()
                .filter(|&(_, &f)| f > 0)
                .map(|(sym, &f)| (f, sym as u16)),
        );
        match s.leaves.len() {
            0 => return lengths,
            1 => {
                lengths[s.leaves[0].1 as usize] = 1;
                return lengths;
            }
            n => assert!((n as u64) <= 1u64 << max_len),
        }
        s.leaves.sort_unstable();

        s.arena.clear();
        s.singletons.clear();
        for &(w, sym) in &s.leaves {
            s.arena.push(Node::Leaf(sym));
            s.singletons.push((w, s.arena.len() as u32 - 1));
        }

        s.current.clear();
        s.current.extend_from_slice(&s.singletons);
        for _ in 1..max_len {
            s.next.clear();
            for pair in s.current.chunks_exact(2) {
                s.arena.push(Node::Pair(pair[0].1, pair[1].1));
                s.next
                    .push((pair[0].0 + pair[1].0, s.arena.len() as u32 - 1));
            }
            let packaged = s.next.len();
            s.next.extend_from_slice(&s.singletons);
            merge_sorted_halves(&mut s.next, packaged, &mut s.merged);
            std::mem::swap(&mut s.current, &mut s.next);
        }

        s.stack.clear();
        s.stack.extend(
            s.current
                .iter()
                .take(2 * (s.leaves.len() - 1))
                .map(|&(_, idx)| idx),
        );
        while let Some(idx) = s.stack.pop() {
            match s.arena[idx as usize] {
                Node::Leaf(sym) => lengths[sym as usize] += 1,
                Node::Pair(a, b) => {
                    s.stack.push(a);
                    s.stack.push(b);
                }
            }
        }
        lengths
    }

    /// Stable merge of two weight-sorted halves, the packaged half
    /// first on a tie.
    fn merge_sorted_halves(items: &mut Vec<(u64, u32)>, mid: usize, merged: &mut Vec<(u64, u32)>) {
        merged.clear();
        let (mut i, mut j) = (0usize, mid);
        while i < mid && j < items.len() {
            if items[i].0 <= items[j].0 {
                merged.push(items[i]);
                i += 1;
            } else {
                merged.push(items[j]);
                j += 1;
            }
        }
        merged.extend_from_slice(&items[i..mid]);
        merged.extend_from_slice(&items[j..]);
        std::mem::swap(items, merged);
    }
}

thread_local! {
    /// One scratch per side for every case a test thread runs.
    static SCRATCH: RefCell<(PackageMergeScratch, oracle::Scratch)> = RefCell::default();
}

/// The library's lengths and the oracle's for one table, on the
/// thread's kept scratch.
fn both(freqs: &[u64], max_len: u8) -> (Vec<u8>, Vec<u8>) {
    SCRATCH.with_borrow_mut(|(ours, theirs)| {
        let mut lengths = vec![0xAA; freqs.len()];
        package_merge_into(freqs, max_len, ours, &mut lengths);
        (lengths, oracle::package_merge(freqs, max_len, theirs))
    })
}

/// The smallest length limit whose codes can number `freqs`' used
/// symbols.
fn min_limit(freqs: &[u64]) -> u8 {
    let used = freqs.iter().filter(|&&f| f > 0).count();
    (usize::BITS - used.saturating_sub(1).leading_zeros()).max(1) as u8
}

fn fibonacci(count: usize) -> Vec<u64> {
    let mut fib = vec![1u64, 1];
    while fib.len() < count {
        fib.push(fib[fib.len() - 1] + fib[fib.len() - 2]);
    }
    fib.truncate(count);
    fib
}

/// Frequency tables of 1–290 symbols.
fn freqs() -> impl Strategy<Value = Vec<u64>> {
    prop_oneof![
        // Arbitrary weights up to 2⁴⁰, a quarter of the symbols unused.
        vec(
            (0u8..4, 1u64..(1 << 40) + 1).prop_map(|(unused, w)| if unused == 0 { 0 } else { w }),
            1..=290
        ),
        // Heavy ties: three distinct weights and unused symbols.
        vec(0u64..4, 1..=290),
        // Runs of unused symbols between used ones.
        vec((0usize..60, 1u64..2000), 1..40).prop_map(|runs| {
            let mut freqs: Vec<u64> = runs
                .into_iter()
                .flat_map(|(zeros, w)| std::iter::repeat_n(0, zeros).chain([w]))
                .collect();
            freqs.truncate(290);
            freqs
        }),
        // Fibonacci weights, rotated, scaled, with a tail of ties: an
        // unlimited code would be as deep as the sequence is long.
        (2usize..58, 0usize..57, 1u64..5, 0usize..200).prop_map(|(count, rotate, scale, ties)| {
            let mut freqs: Vec<u64> = fibonacci(count).iter().map(|f| f * scale).collect();
            freqs.rotate_left(rotate % count);
            freqs.extend(std::iter::repeat_n(scale, ties.min(290 - count)));
            freqs
        }),
        // Powers of two up to 2⁴⁰.
        vec((0u32..41).prop_map(|e| 1u64 << e), 1..=290),
    ]
}

/// A table and a limit it fits in.
fn case() -> impl Strategy<Value = (Vec<u64>, u8)> {
    freqs().prop_flat_map(|freqs| {
        let lowest = min_limit(&freqs);
        (Just(freqs), lowest..25)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn lengths_match_the_arena_package_merge((freqs, max_len) in case()) {
        let (ours, theirs) = both(&freqs, max_len);
        prop_assert_eq!(ours, theirs, "limit {}", max_len);
    }

    #[test]
    fn lengths_match_when_the_top_level_is_exactly_the_selection(
        (max_len, weights, gaps) in (1u8..9).prop_flat_map(|max_len| (
            Just(max_len),
            vec(prop_oneof![1u64..4, 1u64..(1 << 40) + 1], 1usize << max_len),
            vec(0usize..3, 1usize << max_len),
        ))
    ) {
        // n = 2^limit used symbols: the top level holds exactly the
        // 2(n − 1) items that are selected, and every code is `limit`
        // bits long.
        let freqs: Vec<u64> = weights
            .iter()
            .zip(&gaps)
            .flat_map(|(&w, &zeros)| std::iter::repeat_n(0, zeros).chain([w]))
            .collect();
        let (ours, theirs) = both(&freqs, max_len);
        prop_assert!(ours.iter().all(|&l| l == 0 || l == max_len));
        prop_assert_eq!(ours, theirs);
    }

    #[test]
    fn lengths_match_through_a_scratch_that_shrinks_and_regrows(
        mut batch in vec(case(), 2..10)
    ) {
        // Largest, smallest, next largest, next smallest, ...: every
        // step changes the alphabet's size the other way.
        batch.sort_by_key(|(freqs, _)| freqs.len());
        let mut order = Vec::with_capacity(batch.len());
        while let Some(largest) = batch.pop() {
            order.push(largest);
            if !batch.is_empty() {
                order.push(batch.remove(0));
            }
        }
        for (freqs, max_len) in &order {
            let (ours, theirs) = both(freqs, *max_len);
            prop_assert_eq!(ours, theirs, "limit {}", max_len);
        }
    }
}

#[test]
fn trivial_and_extreme_tables_match() {
    let cases: Vec<(Vec<u64>, u8)> = vec![
        (vec![], 1),
        (vec![0; 290], 24),
        (vec![0, 9, 0], 1),
        (vec![3, 3], 1),
        (vec![1, 1 << 40], 24),
        (vec![1; 290], 9),
        (vec![1; 290], 24),
        (vec![1 << 40; 256], 8),
        (fibonacci(57), 6),
        (fibonacci(57), 24),
    ];
    for (freqs, max_len) in &cases {
        let (ours, theirs) = both(freqs, *max_len);
        assert_eq!(ours, theirs, "{freqs:?} limit {max_len}");
    }
}

/// Tables per block by symbol count, table-refinement passes, symbols
/// per group and the length limit: bzip2's constants.
fn num_tables_for(n_syms: usize) -> usize {
    match n_syms {
        0..=199 => 2,
        200..=599 => 3,
        600..=1199 => 4,
        1200..=2399 => 5,
        _ => 6,
    }
}
const TABLE_PASSES: usize = 4;
const GROUP_SIZE: usize = 50;
const BWT_MAX_LEN: u8 = 20;

/// Every histogram bzip2's table refinement hands the code builder for
/// one block, pass 1 to pass 4: groups start round-robin, each pass
/// builds the tables from their groups' symbols (every count at least
/// one) and moves each group to its cheapest table, the first on a
/// tie. Lengths come from the oracle.
fn refinement_histograms(block: &[u8]) -> Vec<Vec<u64>> {
    let mut symbols = Vec::new();
    mtf_zrle_encode(bwt_forward(&rle1_encode(block)).into_iter(), &mut symbols);
    let n_tables = num_tables_for(symbols.len());
    let mut selectors: Vec<usize> = (0..symbols.len().div_ceil(GROUP_SIZE))
        .map(|g| g % n_tables)
        .collect();
    let mut scratch = oracle::Scratch::default();
    let mut histograms = Vec::new();
    for _ in 0..TABLE_PASSES {
        let mut freqs = vec![vec![1u64; 258]; n_tables];
        for (group, &table) in symbols.chunks(GROUP_SIZE).zip(&selectors) {
            for &sym in group {
                freqs[table][sym as usize] += 1;
            }
        }
        let lengths: Vec<Vec<u8>> = freqs
            .iter()
            .map(|f| oracle::package_merge(f, BWT_MAX_LEN, &mut scratch))
            .collect();
        for (group, table) in symbols.chunks(GROUP_SIZE).zip(&mut selectors) {
            let cost =
                |t: usize| -> u32 { group.iter().map(|&s| lengths[t][s as usize] as u32).sum() };
            *table = (1..n_tables).fold(0, |best, t| if cost(t) < cost(best) { t } else { best });
        }
        histograms.extend(freqs);
    }
    histograms
}

#[test]
fn lengths_match_on_bzip2_refinement_histograms_of_catalog_data() {
    // The benchmark's checkpoint mix: f64 noise-dominated, f64 mixed,
    // f32 mixed, i64 ids, f64 highly repetitive, f64 skewed.
    const MIX: [&str; 6] = [
        "gts_chkp_zion",
        "flash_gamc",
        "s3d_temp",
        "xgc_igid",
        "msg_sppm",
        "obs_error",
    ];
    let mut checked = 0;
    for name in MIX {
        let spec = catalog::spec(name).expect("catalog dataset");
        let data = spec.generate((512 << 10) / spec.element.width(), 7).bytes;
        // EUPA's trial size and the `Default` block.
        for block in [&data[..16 << 10], &data[..]] {
            for freqs in refinement_histograms(block) {
                let (ours, theirs) = both(&freqs, BWT_MAX_LEN);
                assert_eq!(ours, theirs, "{name}, {} bytes", block.len());
                checked += 1;
            }
        }
    }
    assert!(checked >= 12 * 4 * 2, "{checked} histograms");
}
