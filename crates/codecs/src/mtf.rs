//! Move-to-front transform over a generic small alphabet.
//!
//! After the BWT, symbol runs cluster locally; MTF converts that local
//! clustering into a global skew towards small ranks (mostly zeros),
//! which the zero-run encoder and Huffman stage then exploit — the same
//! chain bzip2 uses.
//!
//! The solver runs MTF and the zero-run stage ([`crate::rle`]'s RLE2)
//! as one pass in each direction: [`mtf_zrle_encode`] and
//! [`mtf_zrle_decode`]. The separate [`mtf_encode`] / [`mtf_decode`]
//! are the reference the fused kernels are tested against.

use crate::bwt::BWT_ALPHA;
use crate::codec::CodecError;
use crate::rle::{flush_zero_run, RUNB};

/// MTF + zero-run encode a BWT last column (symbols `< 257`) in one
/// pass, appending to `out`: equal to
/// `zrle_encode(&mtf_encode(column, 257))`.
///
/// After a BWT most symbols repeat their predecessor, so the front of
/// the list is tested first and a hit only lengthens the pending zero
/// run. A miss finds the symbol and rotates the list in the same scan,
/// touching each slot once.
///
/// # Panics
///
/// Panics if a symbol is outside the alphabet.
pub fn mtf_zrle_encode(column: impl ExactSizeIterator<Item = u16>, out: &mut Vec<u16>) {
    // A zero run of r ranks becomes at most r symbols.
    out.reserve(column.len());
    let mut table: [u16; BWT_ALPHA] = std::array::from_fn(|i| i as u16);
    let mut zero_run = 0u64;
    for sym in column {
        if table[0] == sym {
            zero_run += 1;
            continue;
        }
        flush_zero_run(out, &mut zero_run);
        let mut carried = std::mem::replace(&mut table[0], sym);
        let mut rank = 1usize;
        loop {
            let here = std::mem::replace(&mut table[rank], carried);
            if here == sym {
                break;
            }
            carried = here;
            rank += 1;
        }
        out.push(rank as u16 + 1);
    }
    flush_zero_run(out, &mut zero_run);
}

/// Zero-run + MTF decode in one pass: the inverse of
/// [`mtf_zrle_encode`], equal to
/// `mtf_decode(&zrle_decode_bounded(symbols, max_len)?, 257)`.
///
/// The decoded column is handed to `emit` as `(symbol, repeat)` runs
/// instead of being stored. Fails before emitting anything past
/// `max_len` symbols in total, and on a rank outside the alphabet.
/// Returns the column's length.
pub fn mtf_zrle_decode(
    symbols: &[u16],
    max_len: usize,
    mut emit: impl FnMut(u16, usize),
) -> Result<usize, CodecError> {
    let overflow = CodecError::Corrupt("zero-run expansion exceeds bound");
    let mut table: [u16; BWT_ALPHA] = std::array::from_fn(|i| i as u16);
    let mut len = 0usize;
    let mut i = 0usize;
    while i < symbols.len() {
        if symbols[i] <= RUNB {
            // One bijective base-2 number, least significant digit
            // first. `place ≤ run + 1 ≤ max_len + 1`: no overflow.
            let (mut run, mut place) = (0usize, 1usize);
            while i < symbols.len() && symbols[i] <= RUNB {
                run += place * (symbols[i] as usize + 1);
                if run > max_len - len {
                    return Err(overflow);
                }
                place *= 2;
                i += 1;
            }
            emit(table[0], run);
            len += run;
        } else {
            let rank = symbols[i] as usize - 1;
            if rank >= BWT_ALPHA {
                return Err(CodecError::Corrupt("MTF rank outside alphabet"));
            }
            if len == max_len {
                return Err(overflow);
            }
            let sym = table[rank];
            table.copy_within(0..rank, 1);
            table[0] = sym;
            emit(sym, 1);
            len += 1;
            i += 1;
        }
    }
    Ok(len)
}

/// Move-to-front encode `input` over the alphabet `0..alphabet_size`.
///
/// Each output value is the current rank of the input symbol; the symbol
/// is then moved to rank 0.
pub fn mtf_encode(input: &[u16], alphabet_size: usize) -> Vec<u16> {
    debug_assert!(alphabet_size <= u16::MAX as usize + 1);
    let mut table: Vec<u16> = (0..alphabet_size as u16).collect();
    let mut out = Vec::with_capacity(input.len());
    for &sym in input {
        let rank = table
            .iter()
            .position(|&t| t == sym)
            .expect("symbol outside alphabet");
        out.push(rank as u16);
        // Rotate the prefix: move `sym` to the front.
        table.copy_within(0..rank, 1);
        table[0] = sym;
    }
    out
}

/// Inverse of [`mtf_encode`].
pub fn mtf_decode(ranks: &[u16], alphabet_size: usize) -> Vec<u16> {
    let mut table: Vec<u16> = (0..alphabet_size as u16).collect();
    let mut out = Vec::with_capacity(ranks.len());
    for &rank in ranks {
        let sym = table[rank as usize];
        out.push(sym);
        table.copy_within(0..rank as usize, 1);
        table[0] = sym;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rle::{zrle_decode_bounded, zrle_encode};
    use proptest::prelude::*;

    fn fused_decode(symbols: &[u16], max_len: usize) -> Result<Vec<u16>, CodecError> {
        let mut column = Vec::new();
        let len = mtf_zrle_decode(symbols, max_len, |sym, repeat| {
            column.extend(std::iter::repeat_n(sym, repeat))
        })?;
        assert_eq!(len, column.len());
        Ok(column)
    }

    /// BWT-like columns: long runs, local clusters, and noise.
    fn columns() -> impl Strategy<Value = Vec<u16>> {
        prop_oneof![
            proptest::collection::vec(0u16..257, 0..600),
            proptest::collection::vec((0u16..257, 1usize..40), 0..60).prop_map(|runs| {
                runs.into_iter()
                    .flat_map(|(sym, n)| std::iter::repeat_n(sym, n))
                    .collect()
            }),
            proptest::collection::vec(250u16..257, 0..600),
        ]
    }

    proptest! {
        #[test]
        fn fused_kernels_match_the_two_stage_reference(column in columns()) {
            let reference = zrle_encode(&mtf_encode(&column, BWT_ALPHA));
            let mut fused = vec![0xABCD]; // appends, never clears
            mtf_zrle_encode(column.iter().copied(), &mut fused);
            prop_assert_eq!(&fused[1..], &reference[..]);
            prop_assert_eq!(fused_decode(&reference, column.len()).unwrap(), column);
        }

        #[test]
        fn fused_decode_agrees_with_the_reference_on_arbitrary_symbols(
            symbols in proptest::collection::vec(
                prop_oneof![0u16..2, 0u16..2, 0u16..2, 2u16..260], 0..200),
            max_len in 0usize..3000,
        ) {
            let reference = zrle_decode_bounded(&symbols, max_len).and_then(|ranks| {
                if ranks.iter().any(|&r| r as usize >= BWT_ALPHA) {
                    return Err(CodecError::Corrupt("MTF rank outside alphabet"));
                }
                Ok(mtf_decode(&ranks, BWT_ALPHA))
            });
            prop_assert_eq!(fused_decode(&symbols, max_len).ok(), reference.ok());
        }
    }

    #[test]
    fn fused_decode_bounds_runs_of_any_digit_count() {
        // 10 000 RUNB digits would be a 2^10001-long run.
        let symbols = vec![1u16; 10_000];
        assert!(fused_decode(&symbols, 1 << 20).is_err());
        assert_eq!(fused_decode(&[0, 0], 3).unwrap(), vec![0; 3]);
        assert!(fused_decode(&[0, 0], 2).is_err());
        assert!(fused_decode(&[5, 0], 1).is_err());
    }

    #[test]
    fn known_small_example() {
        // Alphabet {0,1,2,3}; classic MTF walk-through.
        let input = [1u16, 1, 1, 3, 3, 0];
        let ranks = mtf_encode(&input, 4);
        assert_eq!(ranks, vec![1, 0, 0, 3, 0, 2]);
        assert_eq!(mtf_decode(&ranks, 4), input);
    }

    #[test]
    fn runs_become_zeros() {
        let input = vec![7u16; 100];
        let ranks = mtf_encode(&input, 16);
        assert_eq!(ranks[0], 7);
        assert!(ranks[1..].iter().all(|&r| r == 0));
    }

    #[test]
    fn round_trips_full_byte_alphabet() {
        let input: Vec<u16> = (0..2000u32).map(|i| ((i * 31) % 256) as u16).collect();
        let ranks = mtf_encode(&input, 256);
        assert_eq!(mtf_decode(&ranks, 256), input);
    }

    #[test]
    fn round_trips_bwt_sized_alphabet() {
        // The BWT stage uses a 257-symbol alphabet (bytes + sentinel).
        let input: Vec<u16> = (0..1000u32).map(|i| ((i * 97) % 257) as u16).collect();
        let ranks = mtf_encode(&input, 257);
        assert!(ranks.iter().all(|&r| r < 257));
        assert_eq!(mtf_decode(&ranks, 257), input);
    }

    #[test]
    fn empty_input() {
        assert!(mtf_encode(&[], 256).is_empty());
        assert!(mtf_decode(&[], 256).is_empty());
    }

    #[test]
    fn first_symbol_rank_equals_its_value() {
        // With the identity initial table, the first rank is the symbol.
        for sym in [0u16, 1, 100, 255] {
            assert_eq!(mtf_encode(&[sym], 256)[0], sym);
        }
    }
}
