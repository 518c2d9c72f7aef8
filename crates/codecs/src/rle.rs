//! Run-length encoding stages of the bzip2-class solver.
//!
//! Two distinct RLE stages, matching bzip2's structure:
//!
//! * **RLE1** ([`rle1_encode`]/[`rle1_decode`]) runs on raw bytes before
//!   the BWT. Runs of 4–259 identical bytes become the 4 bytes plus a
//!   count byte. Its original purpose in bzip2 was to protect the sorter
//!   from degenerate repeats; we keep it for format fidelity and because
//!   it cheaply shrinks constant byte-columns.
//! * **RLE2** ([`zrle_encode`]/[`zrle_decode`]) runs on MTF ranks after
//!   the BWT. Zero runs dominate there, so runs are written in bijective
//!   base 2 using two symbols RUNA/RUNB, exactly like bzip2; nonzero
//!   ranks are shifted up by one.

/// Threshold after which RLE1 inserts an explicit count byte.
const RLE1_RUN: usize = 4;
/// Longest run one count byte can extend (4 literal + count in 0..=255).
const RLE1_MAX: usize = RLE1_RUN + 255;

/// RLE1: collapse runs of ≥ 4 identical bytes into `bbbb` + count.
pub fn rle1_encode(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    rle1_encode_into(data, &mut out);
    out
}

/// `data` starts with [`RLE1_RUN`] identical bytes.
#[inline]
fn starts_with_run(data: &[u8]) -> bool {
    matches!(data, [a, b, c, d, ..] if a == b && b == c && c == d)
}

/// [`rle1_encode`] replacing the contents of a caller-owned buffer.
pub fn rle1_encode_into(data: &[u8], out: &mut Vec<u8>) {
    out.clear();
    out.reserve(data.len() + data.len() / 4 + 1);
    // Everything up to and including a run's first four bytes is
    // copied as one stretch; only the run's tail becomes a count.
    let (mut copied, mut i) = (0usize, 0usize);
    while i < data.len() {
        if !starts_with_run(&data[i..]) {
            i += 1;
            continue;
        }
        let byte = data[i];
        let mut run = RLE1_RUN;
        while run < RLE1_MAX && data.get(i + run) == Some(&byte) {
            run += 1;
        }
        out.extend_from_slice(&data[copied..i + RLE1_RUN]);
        out.push((run - RLE1_RUN) as u8);
        i += run;
        copied = i;
    }
    out.extend_from_slice(&data[copied..]);
}

/// Inverse of [`rle1_encode`]. Total: every byte string decodes, and a
/// stream that ends where a count byte is due decodes as if the count
/// were 0.
pub fn rle1_decode(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() * 2);
    if rle1_decode_into(data, &mut out, usize::MAX).is_err() {
        // Without a bound the only failure is the missing count byte.
        let padded = [data, &[0]].concat();
        rle1_decode_into(&padded, &mut out, usize::MAX).expect("count byte supplied");
    }
    out
}

/// Strict, bounded RLE1 decode appended to `out`: the form the codec
/// uses on untrusted blocks. Fails — leaving `out` at its original
/// length — if the stream ends where a count byte is due, or if it
/// would expand to more than `max_len` bytes (five input bytes can
/// demand 259 of output, so the bound must not be left to the input).
pub fn rle1_decode_into(
    data: &[u8],
    out: &mut Vec<u8>,
    max_len: usize,
) -> Result<(), crate::codec::CodecError> {
    use crate::codec::CodecError::Corrupt;
    let start = out.len();
    let fail = |out: &mut Vec<u8>, what| {
        out.truncate(start);
        Err(Corrupt(what))
    };
    let overflow = "RLE1 expansion exceeds block maximum";
    let (mut copied, mut i) = (0usize, 0usize);
    while i < data.len() {
        if !starts_with_run(&data[i..]) {
            i += 1;
            continue;
        }
        let Some(&extra) = data.get(i + RLE1_RUN) else {
            return fail(out, "RLE1 stream ends before a run's count byte");
        };
        let stretch = &data[copied..i + RLE1_RUN];
        if stretch.len() + extra as usize > max_len - (out.len() - start) {
            return fail(out, overflow);
        }
        out.extend_from_slice(stretch);
        out.extend(std::iter::repeat_n(data[i], extra as usize));
        i += RLE1_RUN + 1;
        copied = i;
    }
    if data.len() - copied > max_len - (out.len() - start) {
        return fail(out, overflow);
    }
    out.extend_from_slice(&data[copied..]);
    Ok(())
}

/// RLE2 symbol: RUNA (contributes `2^k`) in bijective base-2 runs.
pub const RUNA: u16 = 0;
/// RLE2 symbol: RUNB (contributes `2·2^k`) in bijective base-2 runs.
pub const RUNB: u16 = 1;

/// Zero-run encode MTF ranks: zero runs become RUNA/RUNB sequences
/// (bijective base 2), nonzero ranks `r` become symbol `r + 1`.
///
/// The output alphabet is `0..alphabet_size + 1`: RUNA, RUNB, then the
/// shifted ranks `2..=alphabet_size`.
pub fn zrle_encode(ranks: &[u16]) -> Vec<u16> {
    let mut out = Vec::with_capacity(ranks.len() / 2 + 8);
    let mut zero_run = 0u64;
    for &rank in ranks {
        if rank == 0 {
            zero_run += 1;
        } else {
            flush_zero_run(&mut out, &mut zero_run);
            out.push(rank + 1);
        }
    }
    flush_zero_run(&mut out, &mut zero_run);
    out
}

pub(crate) fn flush_zero_run(out: &mut Vec<u16>, run: &mut u64) {
    // Bijective base 2: n = Σ dᵢ·2^i with dᵢ ∈ {1, 2};
    // digit 1 → RUNA, digit 2 → RUNB, least significant first.
    let mut n = *run;
    while n > 0 {
        if n & 1 == 1 {
            out.push(RUNA);
            n = (n - 1) / 2;
        } else {
            out.push(RUNB);
            n = (n - 2) / 2;
        }
    }
    *run = 0;
}

/// Inverse of [`zrle_encode`].
pub fn zrle_decode(symbols: &[u16]) -> Vec<u16> {
    zrle_decode_bounded(symbols, usize::MAX).expect("unbounded decode cannot overflow")
}

/// Inverse of [`zrle_encode`] with an output-size bound, so corrupt or
/// adversarial run lengths fail cleanly instead of exhausting memory.
pub fn zrle_decode_bounded(
    symbols: &[u16],
    max_len: usize,
) -> Result<Vec<u16>, crate::codec::CodecError> {
    let overflow = crate::codec::CodecError::Corrupt("zero-run expansion exceeds bound");
    let mut out = Vec::with_capacity(symbols.len().min(max_len));
    let mut i = 0usize;
    while i < symbols.len() {
        if symbols[i] <= RUNB {
            // Decode one bijective base-2 number.
            let mut run = 0u64;
            let mut place = 1u64;
            while i < symbols.len() && symbols[i] <= RUNB {
                run = run
                    .checked_add(
                        place
                            .checked_mul(symbols[i] as u64 + 1)
                            .ok_or(overflow.clone())?,
                    )
                    .ok_or(overflow.clone())?;
                place = place.saturating_mul(2);
                i += 1;
            }
            if run > (max_len - out.len()) as u64 {
                return Err(overflow);
            }
            out.extend(std::iter::repeat_n(0u16, run as usize));
        } else {
            if out.len() >= max_len {
                return Err(overflow);
            }
            out.push(symbols[i] - 1);
            i += 1;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rle1_round_trip(data: &[u8]) {
        let encoded = rle1_encode(data);
        assert_eq!(rle1_decode(&encoded), data, "input {data:?}");
    }

    #[test]
    fn rle1_short_runs_pass_through() {
        rle1_round_trip(b"");
        rle1_round_trip(b"abc");
        rle1_round_trip(b"aabbcc");
        rle1_round_trip(b"aaab");
        assert_eq!(rle1_encode(b"aaab"), b"aaab");
    }

    #[test]
    fn rle1_collapses_long_runs() {
        let data = vec![b'x'; 100];
        let encoded = rle1_encode(&data);
        assert_eq!(encoded, vec![b'x', b'x', b'x', b'x', 96]);
        rle1_round_trip(&data);
    }

    #[test]
    fn rle1_exact_threshold_runs() {
        // Runs of exactly 4 need a zero count byte.
        rle1_round_trip(b"aaaa");
        assert_eq!(rle1_encode(b"aaaa"), vec![b'a', b'a', b'a', b'a', 0]);
        rle1_round_trip(b"aaaab");
        rle1_round_trip(b"baaaa");
    }

    #[test]
    fn rle1_runs_longer_than_one_count_byte() {
        for len in [259usize, 260, 300, 518, 519, 1000] {
            rle1_round_trip(&vec![7u8; len]);
        }
    }

    #[test]
    fn rle1_mixed_content() {
        let mut data = Vec::new();
        for i in 0..50u8 {
            data.extend(std::iter::repeat_n(i, 1 + (i as usize * 13) % 40));
        }
        rle1_round_trip(&data);
    }

    #[test]
    fn rle1_strict_decode_bounds_its_output_and_wants_every_count_byte() {
        use crate::codec::CodecError::Corrupt;
        let mut out = b"kept".to_vec();
        // 5 bytes → 259; the bound counts only what this call appends.
        assert!(rle1_decode_into(&[7, 7, 7, 7, 255], &mut out, 259).is_ok());
        assert_eq!(out.len(), 4 + 259);
        out.truncate(4);
        assert_eq!(
            rle1_decode_into(&[1, 2, 7, 7, 7, 7, 255], &mut out, 260),
            Err(Corrupt("RLE1 expansion exceeds block maximum"))
        );
        assert_eq!(
            rle1_decode_into(&[1, 2, 7, 7, 7, 7], &mut out, 260),
            Err(Corrupt("RLE1 stream ends before a run's count byte"))
        );
        assert_eq!(out, b"kept", "a failed decode appends nothing");
        // The total form reads the missing count as 0.
        assert_eq!(rle1_decode(&[1, 2, 7, 7, 7, 7]), [1, 2, 7, 7, 7, 7]);
    }

    fn zrle_round_trip(ranks: &[u16]) {
        let encoded = zrle_encode(ranks);
        assert_eq!(zrle_decode(&encoded), ranks, "input {ranks:?}");
    }

    #[test]
    fn zrle_basic_round_trips() {
        zrle_round_trip(&[]);
        zrle_round_trip(&[0]);
        zrle_round_trip(&[5]);
        zrle_round_trip(&[0, 0, 0, 7, 0, 0, 1, 2, 3]);
    }

    #[test]
    fn zrle_bijective_base2_runs() {
        // Run lengths 1..=6 encode as A, B, AA, BA, AB, BB.
        assert_eq!(zrle_encode(&[0]), vec![RUNA]);
        assert_eq!(zrle_encode(&[0, 0]), vec![RUNB]);
        assert_eq!(zrle_encode(&[0, 0, 0]), vec![RUNA, RUNA]);
        assert_eq!(zrle_encode(&[0, 0, 0, 0]), vec![RUNB, RUNA]);
        assert_eq!(zrle_encode(&[0; 5]), vec![RUNA, RUNB]);
        assert_eq!(zrle_encode(&[0; 6]), vec![RUNB, RUNB]);
    }

    #[test]
    fn zrle_long_zero_runs_are_logarithmic() {
        let ranks = vec![0u16; 1_000_000];
        let encoded = zrle_encode(&ranks);
        assert!(encoded.len() <= 20, "got {} symbols", encoded.len());
        zrle_round_trip(&ranks);
    }

    #[test]
    fn zrle_nonzero_ranks_are_shifted() {
        assert_eq!(zrle_encode(&[1, 2, 3]), vec![2, 3, 4]);
    }

    #[test]
    fn zrle_all_run_lengths_up_to_100() {
        for len in 1..=100usize {
            let mut ranks = vec![0u16; len];
            ranks.push(9);
            zrle_round_trip(&ranks);
        }
    }
}
