//! Analyzer histogram kernel: one 256-bin count per byte-column.
//!
//! The analyzer's frequency test only needs exact per-column byte
//! counts, so any accumulation order is legal. The scalar oracle uses
//! the dual-bank trick (even/odd elements in separate banks, halving
//! the store-to-load dependency on hot counters). The SIMD tiers go
//! further: each block of elements is transposed with the
//! [`crate::transpose`] unpack-tree kernel so every column becomes
//! contiguous, then scanned into **eight** interleaved banks — turning
//! the strided, dependency-bound loop into sequential loads with eight
//! independent counter chains. Counts are u32 sums either way, so the
//! result is bit-identical across tiers.
//!
//! The frequency test asks one question per column — does any bin
//! exceed the tolerance? — and counts only grow, so the answer is often
//! certain long before the last element.
//! [`byte_column_histograms_until_decided`] stops counting a column at
//! the first block boundary where it is, on the same counting body as
//! [`byte_column_histograms`] (which has no stop rule).

use crate::transpose::{self, StreamLayout};
use crate::KernelTier;

/// Fill one exact 256-bin histogram per byte-column of `data`
/// (`data.len() / width` elements of `width` bytes). `out` is cleared
/// and resized to `width` histograms.
///
/// # Panics
///
/// Panics if `width == 0` or `data.len()` is not a multiple of `width`.
pub fn byte_column_histograms(
    tier: KernelTier,
    data: &[u8],
    width: usize,
    out: &mut Vec<[u32; 256]>,
) {
    count(tier, data, width, None, out);
}

/// [`byte_column_histograms`] for the analyzer's frequency test: stop
/// counting a column as soon as the answer to "does any bin exceed
/// `tolerance`?" is certain, and the whole pass once every column's is.
///
/// After each block of elements a column is dropped when a bin already
/// exceeds `tolerance` (counts only grow), or when its peak plus the
/// elements left cannot exceed it. A dropped column's histogram holds
/// the counts up to that block, so "any bin > `tolerance`" reads the
/// same on it as on the full count — only the counts below the verdict
/// are partial.
///
/// # Panics
///
/// Panics as [`byte_column_histograms`] does, or if `tolerance` is
/// negative or NaN.
pub fn byte_column_histograms_until_decided(
    tier: KernelTier,
    data: &[u8],
    width: usize,
    tolerance: f64,
    out: &mut Vec<[u32; 256]>,
) {
    assert!(tolerance >= 0.0, "tolerance must be non-negative");
    // Counts are integers: `count > tolerance` ⇔ `count > ⌊tolerance⌋`.
    count(tier, data, width, Some(tolerance.floor() as u64), out);
}

/// Bytes of live columns per transposed block: the column scratch,
/// L1-resident alongside one column's banks (4096 elements at width 8).
/// Fewer live columns make longer blocks.
const BLOCK_BYTES: usize = 32 * 1024;

/// Bytes of live columns per strided block (no scratch): this only sets
/// how often the stop rule is checked, which on a noise column — live
/// to the end — costs a fold of its banks per block.
const STRIDED_BLOCK_BYTES: usize = 64 * 1024;

/// Independent counter banks per column on the SIMD tiers. A
/// compressible column is nearly constant, so consecutive increments
/// hit the *same* bin; with B banks the same-address store→load
/// dependency recurs only every B increments, and eight banks is enough
/// to hide the ~5-cycle forwarding latency entirely (measured ~2x over
/// four banks on the paper's skewed checkpoint columns).
const BANKS: usize = 8;

/// The one counting body: each block of elements is counted into
/// per-column banks for the columns still live, then, under a stop
/// rule (`limit`: the largest count that is not compressible), every
/// live column whose verdict is certain is dropped. Counts are u32
/// sums in any order, so the result is bit-identical across tiers.
///
/// The scalar tier (the oracle, and every tier at widths outside 2..=8)
/// counts strided with two banks, even and odd elements apart, halving
/// the store-to-load dependency on hot counters. The SIMD tiers first
/// transpose the live columns of the block with the [`crate::transpose`]
/// unpack-tree kernel, so every column becomes contiguous, then scan it
/// into [`BANKS`] interleaved banks — sequential loads, independent
/// counter chains, and a test that counts a constant 32-byte run in one
/// add. Under a stop rule, blocks are transposed only until the rule is
/// first checked: a column still live after that has no value above the
/// limit in what was counted, so the run test rarely pays, and the
/// transpose would move every live column to count a few; the live
/// columns are then counted strided, still into eight banks each.
fn count(
    tier: KernelTier,
    data: &[u8],
    width: usize,
    limit: Option<u64>,
    out: &mut Vec<[u32; 256]>,
) {
    assert!(width > 0 && data.len().is_multiple_of(width));
    out.clear();
    out.resize(width, [0u32; 256]);
    let n = data.len() / width;
    if n == 0 {
        return;
    }
    let simd = cfg!(target_arch = "x86_64")
        && matches!(tier, KernelTier::Sse2 | KernelTier::Avx2)
        && (2..=8).contains(&width);
    let banks_per_col = if simd { BANKS } else { 2 };
    let mut banks = vec![[0u32; 256]; width * banks_per_col];
    let mut scratch = vec![0u8; if simd { BLOCK_BYTES.min(n * width) } else { 0 }];
    let mut live: Vec<usize> = (0..width).collect();
    let mut start = 0usize;
    let mut checked = false;
    while start < n && !live.is_empty() {
        let block_bytes = if checked {
            STRIDED_BLOCK_BYTES
        } else {
            BLOCK_BYTES
        };
        let m = (n - start).min((block_bytes / live.len()).max(1));
        let block = &data[start * width..(start + m) * width];
        if simd && checked {
            for &c in &live {
                accumulate8_strided(block, width, c, &mut banks[c * BANKS..(c + 1) * BANKS]);
            }
        } else if simd {
            let scr = &mut scratch[..m * live.len()];
            transpose::partition2(
                tier,
                block,
                width,
                &live,
                StreamLayout::ColumnMajor,
                scr,
                &[],
                &mut [],
            );
            for (&c, col) in live.iter().zip(scr.chunks_exact(m)) {
                accumulate8(col, &mut banks[c * BANKS..(c + 1) * BANKS]);
            }
        } else {
            accumulate_strided(block, width, &live, &mut banks);
        }
        start += m;
        let left = (n - start) as u64;
        // No verdict is possible while too few elements are counted to
        // exceed the limit and too many are left to rule it out.
        if let Some(limit) = limit.filter(|&limit| start as u64 > limit || left <= limit) {
            checked = true;
            live.retain(|&c| {
                let banks = &banks[c * banks_per_col..(c + 1) * banks_per_col];
                let peak = u64::from(fold(banks, &mut out[c]));
                peak <= limit && peak + left > limit
            });
        }
    }
    for (hist, col) in out.iter_mut().zip(banks.chunks_exact(banks_per_col)) {
        fold(col, hist);
    }
}

/// Sum one column's banks into its histogram; returns its peak bin.
/// Eight bins at a time, summed across the banks in registers, so the
/// loop vectorizes and each bin is stored once.
fn fold(banks: &[[u32; 256]], hist: &mut [u32; 256]) -> u32 {
    let mut peak = [0u32; 8];
    for (i, out) in hist.chunks_exact_mut(8).enumerate() {
        let mut sum = [0u32; 8];
        for bank in banks {
            for (s, &b) in sum.iter_mut().zip(&bank[i * 8..i * 8 + 8]) {
                *s += b;
            }
        }
        for (p, &s) in peak.iter_mut().zip(&sum) {
            *p = (*p).max(s);
        }
        out.copy_from_slice(&sum);
    }
    peak.into_iter().max().unwrap_or(0)
}

/// Scan column `c` of `block` in place, element by element, into eight
/// interleaved banks: [`accumulate8`] without the transpose and without
/// its constant-run test.
fn accumulate8_strided(block: &[u8], width: usize, c: usize, banks: &mut [[u32; 256]]) {
    let [b0, b1, b2, b3, b4, b5, b6, b7] = banks else {
        unreachable!("exactly BANKS banks per column");
    };
    let mut rows = block.chunks_exact(8 * width);
    for r in rows.by_ref() {
        b0[r[c] as usize] += 1;
        b1[r[width + c] as usize] += 1;
        b2[r[2 * width + c] as usize] += 1;
        b3[r[3 * width + c] as usize] += 1;
        b4[r[4 * width + c] as usize] += 1;
        b5[r[5 * width + c] as usize] += 1;
        b6[r[6 * width + c] as usize] += 1;
        b7[r[7 * width + c] as usize] += 1;
    }
    for r in rows.remainder().chunks_exact(width) {
        b0[r[c] as usize] += 1;
    }
}

/// Dual-bank strided accumulation of the `live` columns of `block`
/// (the scalar oracle): per column, even elements into one bank and odd
/// into the next. With every column live the columns are interleaved,
/// so the 2 × `width` counter chains overlap even on a column that
/// repeats one value; a subset is counted column by column.
fn accumulate_strided(block: &[u8], width: usize, live: &[usize], banks: &mut [[u32; 256]]) {
    let pairs = block.chunks_exact(width * 2);
    let rest = pairs.remainder();
    if live.len() == width {
        for pair in pairs {
            for (c, bank) in banks.chunks_exact_mut(2).enumerate() {
                bank[0][pair[c] as usize] += 1;
                bank[1][pair[width + c] as usize] += 1;
            }
        }
    } else {
        for &c in live {
            let [even, odd] = &mut banks[2 * c..2 * c + 2] else {
                unreachable!("two banks per column");
            };
            for pair in pairs.clone() {
                even[pair[c] as usize] += 1;
                odd[pair[width + c] as usize] += 1;
            }
        }
    }
    if !rest.is_empty() {
        for &c in live {
            banks[2 * c][rest[c] as usize] += 1;
        }
    }
}

/// Scan one contiguous column into eight interleaved banks.
///
/// A compressible column is dominated by long runs of one value (the
/// high bytes of a smooth field barely move), so each 32-byte block is
/// first tested for being a single-value run — four u64 compares — and
/// counted with one `+= 32` when it is. Only blocks that fail the test
/// pay the per-byte increments; a uniformly random (incompressible)
/// column costs four extra compares per 32 bytes, in the noise.
// Kept out of line: inlined into the block loop, its constant-run path
// ran 1.2-1.3x slower on msg_sppm's repetitive columns.
#[inline(never)]
fn accumulate8(col: &[u8], banks: &mut [[u32; 256]]) {
    let [b0, b1, b2, b3, b4, b5, b6, b7] = banks else {
        unreachable!("exactly BANKS banks per column");
    };
    let word =
        |blk: &[u8], o: usize| u64::from_ne_bytes(blk[o..o + 8].try_into().expect("8 bytes"));
    let mut blocks = col.chunks_exact(32);
    for blk in blocks.by_ref() {
        // Short-circuit so a noise column pays one load + compare per
        // block, not four: the first mismatching word bails out.
        let bcast = u64::from_ne_bytes([blk[0]; 8]);
        if word(blk, 0) == bcast
            && word(blk, 8) == bcast
            && word(blk, 16) == bcast
            && word(blk, 24) == bcast
        {
            b0[blk[0] as usize] += 32;
            continue;
        }
        for o in blk.chunks_exact(8) {
            b0[o[0] as usize] += 1;
            b1[o[1] as usize] += 1;
            b2[o[2] as usize] += 1;
            b3[o[3] as usize] += 1;
            b4[o[4] as usize] += 1;
            b5[o[5] as usize] += 1;
            b6[o[6] as usize] += 1;
            b7[o[7] as usize] += 1;
        }
    }
    for &b in blocks.remainder() {
        b0[b as usize] += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testable_tiers;

    fn naive(data: &[u8], width: usize) -> Vec<[u32; 256]> {
        let mut out = vec![[0u32; 256]; width];
        for row in data.chunks_exact(width) {
            for (c, &b) in row.iter().enumerate() {
                out[c][b as usize] += 1;
            }
        }
        out
    }

    fn pattern(len: usize) -> Vec<u8> {
        let mut state = 0x1234_5678_9ABC_DEF0u64;
        (0..len)
            .map(|i| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                if i % 3 == 0 {
                    7
                } else {
                    (state >> 53) as u8
                }
            })
            .collect()
    }

    #[test]
    fn counts_match_naive_across_tiers() {
        for tier in testable_tiers() {
            for width in [1usize, 2, 3, 5, 8, 12] {
                for n in [0usize, 1, 3, 16, 17, 4095, 4096, 4097, 9000] {
                    let data = pattern(n * width);
                    let mut got = Vec::new();
                    byte_column_histograms(tier, &data, width, &mut got);
                    assert_eq!(got, naive(&data, width), "{tier} w{width} n{n}");
                }
            }
        }
    }

    #[test]
    fn rows_wider_than_a_block_are_counted() {
        let data: Vec<u8> = (0..3 * 40_000).map(|i| (i % 7) as u8).collect();
        let mut got = Vec::new();
        byte_column_histograms(KernelTier::Scalar, &data, 40_000, &mut got);
        assert_eq!(got, naive(&data, 40_000));
        byte_column_histograms_until_decided(KernelTier::Scalar, &data, 40_000, 0.5, &mut got);
        assert_eq!(got.len(), 40_000);
    }

    #[test]
    fn output_vector_is_reset_between_calls() {
        let mut out = vec![[7u32; 256]; 3];
        byte_column_histograms(KernelTier::Scalar, &[1, 2, 1, 2], 2, &mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0][1], 2);
        assert_eq!(out[1][2], 2);
        assert_eq!(out[0][7], 0);
    }

    #[test]
    #[should_panic]
    fn zero_width_panics() {
        byte_column_histograms(KernelTier::Scalar, &[], 0, &mut Vec::new());
    }
}
