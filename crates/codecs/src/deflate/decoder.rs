//! DEFLATE decoder (inflate): bit stream → bytes (RFC 1951).
//!
//! A compressed block is decoded by one loop in two regimes. While at
//! least 8 input bytes remain, the fast loop holds the bit state in
//! locals, tops the accumulator up with one 8-byte load per symbol
//! (≥ 56 bits, more than the 48 the longest length/distance pair
//! needs) and writes through an index into `out`, which it keeps
//! 258 + 16 bytes longer than the output so matches copy in 8-byte
//! words. The last few bytes go through the checked per-symbol loop.
//! Both regimes return the same [`CodecError`] for the same stream.
//!
//! The zero-filled tail past the output outlives the block that grew
//! it: every block, stored ones included, writes through the same
//! `Output`, and `out` is cut to length once, when the call returns.
//! Filling the tail therefore costs time linear in the output however
//! many blocks the stream has.

use std::sync::OnceLock;

use crate::bitio::LsbBitReader;
use crate::codec::CodecError;
use crate::huffman::{FastDecoder, FastEntry, HuffmanDecoder};

use super::tables::*;

/// Reusable decode tables, one set per [`crate::CodecScratch`]: a
/// dynamic block's three codes are rebuilt here in place.
#[derive(Debug, Default)]
pub(crate) struct InflateScratch {
    lit: FastDecoder,
    dist: FastDecoder,
    codelen: HuffmanDecoder,
}

/// Longest match (258) plus the widest overshoot of the word copy.
const SLACK: usize = 258 + 16;

/// The output of one inflate call: `buf[..len]` is decoded, the rest of
/// `buf` a zero-filled tail that decoding writes ahead into.
struct Output<'a> {
    buf: &'a mut Vec<u8>,
    len: usize,
    /// `buf`'s length when the call began.
    start: usize,
}

impl Output<'_> {
    /// Make `buf` at least `need` long. The tail grows to as long as
    /// what this call has decoded, plus [`SLACK`], or up to the capacity
    /// `buf` already has when that suffices: `buf` stays within about
    /// twice the output, and since nothing is cut off before the call
    /// returns, each byte of it is zero-filled once.
    fn make_room(&mut self, need: usize) {
        if self.buf.len() >= need {
            return;
        }
        let mut target = need.max(2 * self.len - self.start + SLACK);
        if target > self.buf.capacity() && need <= self.buf.capacity() {
            target = self.buf.capacity();
        }
        self.buf.resize(target, 0);
    }
}

/// Decompress a raw DEFLATE stream (no zlib wrapper).
///
/// `size_hint` pre-sizes the output buffer when the caller knows the
/// decompressed size (the zlib wrapper does not carry one; ISOBAR's
/// container does). The hint may come from an untrusted length field,
/// so the pre-allocation is capped at DEFLATE's maximum expansion of
/// the actual input (1 bit per output byte plus slack, ~1032×): a lying
/// hint costs only incremental growth while decoding, never an
/// up-front allocation the stream cannot back. A true hint also covers
/// the fast loop's slack past the output, so the buffer never regrows.
pub fn inflate_raw(data: &[u8], size_hint: usize) -> Result<Vec<u8>, CodecError> {
    let mut r = LsbBitReader::new(data);
    let max_expansion = data.len().saturating_mul(1040).saturating_add(256);
    let mut out = Vec::with_capacity(size_hint.min(max_expansion) + SLACK);
    inflate_into(&mut r, &mut out)?;
    Ok(out)
}

/// Decompress from an existing reader into `out`; leaves the reader
/// positioned after the final block (byte-aligned trailing data such as
/// checksums can then be read).
pub fn inflate_into(r: &mut LsbBitReader<'_>, out: &mut Vec<u8>) -> Result<(), CodecError> {
    inflate_with(r, out, &mut InflateScratch::default())
}

/// [`inflate_into`] building its tables in `scratch`.
pub(crate) fn inflate_with(
    r: &mut LsbBitReader<'_>,
    out: &mut Vec<u8>,
    scratch: &mut InflateScratch,
) -> Result<(), CodecError> {
    let start = out.len();
    let mut out = Output {
        buf: out,
        len: start,
        start,
    };
    let result = read_blocks(r, &mut out, scratch);
    out.buf.truncate(out.len);
    result
}

fn read_blocks(
    r: &mut LsbBitReader<'_>,
    out: &mut Output<'_>,
    scratch: &mut InflateScratch,
) -> Result<(), CodecError> {
    loop {
        let is_final = r.read_bit()? == 1;
        match r.read_bits(2)? {
            0b00 => read_stored_block(r, out)?,
            0b01 => {
                let (lit, dist) = fixed_decoders();
                read_compressed_block(r, out, lit, dist)?;
            }
            0b10 => {
                read_dynamic_header(r, scratch)?;
                read_compressed_block(r, out, &scratch.lit, &scratch.dist)?;
            }
            _ => return Err(CodecError::Corrupt("reserved block type 11")),
        }
        if is_final {
            return Ok(());
        }
    }
}

/// The fixed-Huffman pair (RFC 1951 §3.2.6), built once per process.
fn fixed_decoders() -> &'static (FastDecoder, FastDecoder) {
    static FIXED: OnceLock<(FastDecoder, FastDecoder)> = OnceLock::new();
    FIXED.get_or_init(|| {
        let valid = "the fixed codes are not over-subscribed";
        let (mut lit, mut dist) = (FastDecoder::default(), FastDecoder::default());
        lit.rebuild(&fixed_litlen_lengths(), length_value)
            .expect(valid);
        dist.rebuild(&fixed_dist_lengths(), distance_value)
            .expect(valid);
        (lit, dist)
    })
}

fn read_stored_block(r: &mut LsbBitReader<'_>, out: &mut Output<'_>) -> Result<(), CodecError> {
    r.align_to_byte();
    let mut header = [0u8; 4];
    r.read_bytes(&mut header)?;
    let len = u16::from_le_bytes([header[0], header[1]]);
    let nlen = u16::from_le_bytes([header[2], header[3]]);
    if len != !nlen {
        return Err(CodecError::Corrupt("stored block LEN/NLEN mismatch"));
    }
    let end = out.len + len as usize;
    out.make_room(end);
    r.read_bytes(&mut out.buf[out.len..end])?;
    out.len = end;
    Ok(())
}

/// Read a dynamic block's code lengths and rebuild `s.lit` / `s.dist`.
fn read_dynamic_header(r: &mut LsbBitReader<'_>, s: &mut InflateScratch) -> Result<(), CodecError> {
    let hlit = r.read_bits(5)? as usize + 257;
    let hdist = r.read_bits(5)? as usize + 1;
    let hclen = r.read_bits(4)? as usize + 4;
    if hlit > NUM_LITLEN || hdist > NUM_DIST + 2 {
        return Err(CodecError::Corrupt("dynamic header counts out of range"));
    }

    let mut cl_lengths = [0u8; NUM_CODELEN];
    for &sym in CODELEN_ORDER.iter().take(hclen) {
        cl_lengths[sym] = r.read_bits(3)? as u8;
    }
    s.codelen.rebuild(&cl_lengths)?;

    let mut all_lengths = [0u8; NUM_LITLEN + NUM_DIST + 2];
    let lengths = &mut all_lengths[..hlit + hdist];
    let mut i = 0usize;
    while i < lengths.len() {
        let sym = s.codelen.decode_lsb(r)?;
        match sym {
            0..=15 => {
                lengths[i] = sym as u8;
                i += 1;
            }
            16 => {
                if i == 0 {
                    return Err(CodecError::Corrupt("repeat code with no previous length"));
                }
                let prev = lengths[i - 1];
                let run = r.read_bits(2)? as usize + 3;
                fill_run(lengths, &mut i, prev, run)?;
            }
            17 => {
                let run = r.read_bits(3)? as usize + 3;
                fill_run(lengths, &mut i, 0, run)?;
            }
            18 => {
                let run = r.read_bits(7)? as usize + 11;
                fill_run(lengths, &mut i, 0, run)?;
            }
            _ => return Err(CodecError::Corrupt("invalid code-length symbol")),
        }
    }

    s.lit.rebuild(&lengths[..hlit], length_value)?;
    s.dist.rebuild(&lengths[hlit..], distance_value)
}

/// `(base, extra bits)` of a literal/length symbol: a length code's
/// own, `(0, 0)` for literals, end-of-block and the two unused codes.
fn length_value(sym: usize) -> (u16, u8) {
    match sym.checked_sub(257) {
        Some(idx) if idx < LENGTH_BASE.len() => (LENGTH_BASE[idx], LENGTH_EXTRA[idx]),
        _ => (0, 0),
    }
}

/// `(base, extra bits)` of a distance symbol; `(0, 0)` for the two
/// unused codes.
fn distance_value(sym: usize) -> (u16, u8) {
    if sym < NUM_DIST {
        (DIST_BASE[sym], DIST_EXTRA[sym])
    } else {
        (0, 0)
    }
}

fn fill_run(lengths: &mut [u8], i: &mut usize, value: u8, run: usize) -> Result<(), CodecError> {
    if *i + run > lengths.len() {
        return Err(CodecError::Corrupt("code-length run overflows header"));
    }
    lengths[*i..*i + run].fill(value);
    *i += run;
    Ok(())
}

/// Decode one Huffman-coded block: the fast loop while 8 input bytes
/// remain, then the checked per-symbol loop for the rest.
fn read_compressed_block(
    r: &mut LsbBitReader<'_>,
    out: &mut Output<'_>,
    lit: &FastDecoder,
    dist: &FastDecoder,
) -> Result<(), CodecError> {
    if fast_loop(r, out, lit, dist)? {
        return Ok(());
    }
    checked_loop(r, out, lit, dist)
}

/// The per-symbol loop: every read checked against the end of input.
fn checked_loop(
    r: &mut LsbBitReader<'_>,
    out: &mut Output<'_>,
    lit: &FastDecoder,
    dist: &FastDecoder,
) -> Result<(), CodecError> {
    loop {
        let sym = lit.decode_lsb(r)? as usize;
        match sym {
            0..=255 => {
                out.make_room(out.len + 1);
                out.buf[out.len] = sym as u8;
                out.len += 1;
            }
            256 => return Ok(()),
            257..=285 => {
                let idx = sym - 257;
                let len =
                    LENGTH_BASE[idx] as usize + r.read_bits(LENGTH_EXTRA[idx] as u32)? as usize;
                let dsym = dist.decode_lsb(r)? as usize;
                if dsym >= NUM_DIST {
                    return Err(CodecError::Corrupt("invalid distance symbol"));
                }
                let d = DIST_BASE[dsym] as usize + r.read_bits(DIST_EXTRA[dsym] as u32)? as usize;
                if d > out.len {
                    return Err(CodecError::Corrupt("distance reaches before output start"));
                }
                out.make_room(out.len + len);
                let (buf, at) = (&mut out.buf[..], out.len);
                for k in at..at + len {
                    buf[k] = buf[k - d];
                }
                out.len += len;
            }
            _ => return Err(CodecError::Corrupt("invalid literal/length symbol")),
        }
    }
}

/// Decode symbols of one block while at least 8 input bytes remain:
/// `Ok(true)` at its end-of-block code, `Ok(false)` once the input runs
/// short (the reader then points at the next symbol). Every bit a
/// symbol reads was loaded from the stream, so the only errors are the
/// checked loop's `Corrupt` ones, in its order.
fn fast_loop(
    r: &mut LsbBitReader<'_>,
    out: &mut Output<'_>,
    lit: &FastDecoder,
    dist: &FastDecoder,
) -> Result<bool, CodecError> {
    let (data, acc, nbits, pos) = r.state();
    if pos + 8 > data.len() {
        return Ok(false);
    }
    let mut bits = Bits { acc, nbits, pos };
    if bits.nbits == 64 {
        // Give a byte back so the refill's shift stays below 64.
        bits.acc &= (1 << 56) - 1;
        bits.nbits = 56;
        bits.pos -= 1;
    }
    bits.refill(data);
    let mut entry = lit.resolve(bits.acc);
    let stop = loop {
        out.make_room(out.len + SLACK);
        let (buf, op) = (&mut out.buf[..], &mut out.len);
        match run(&mut bits, &mut entry, buf, op, data, lit, dist) {
            Stop::OutputFull => continue,
            stop => break stop,
        }
    };
    r.set_state(bits.acc, bits.nbits, bits.pos);
    match stop {
        Stop::EndOfBlock => Ok(true),
        Stop::Corrupt(what) => Err(CodecError::Corrupt(what)),
        Stop::InputShort | Stop::OutputFull => Ok(false),
    }
}

/// The fast loop's bit state: the reader's fields, held in locals.
///
/// After a refill `acc` holds 64 stream bits — bits past the counted
/// whole bytes are the next bytes' own, so loading them again ORs in
/// equal bits. A symbol takes at most 15 + 5 + 15 + 13 = 48 of them,
/// which leaves the 15 the next lookup reads: the next literal/length
/// entry is resolved before the refill it would otherwise wait on.
#[derive(Clone, Copy)]
struct Bits {
    acc: u64,
    /// Counted bits, at most 63 between refills.
    nbits: u32,
    pos: usize,
}

impl Bits {
    /// Top `acc` up to at least 56 counted bits; needs 8 bytes at `pos`.
    #[inline(always)]
    fn refill(&mut self, data: &[u8]) {
        let word: [u8; 8] = data[self.pos..self.pos + 8].try_into().expect("8 bytes");
        self.acc |= u64::from_le_bytes(word) << self.nbits;
        let bytes = (63 - self.nbits) / 8;
        self.pos += bytes as usize;
        self.nbits += 8 * bytes;
    }

    #[inline(always)]
    fn consume(&mut self, entry: FastEntry) {
        self.acc >>= entry.taken();
        self.nbits -= entry.taken();
    }
}

/// Why [`run`] returned.
enum Stop {
    EndOfBlock,
    InputShort,
    OutputFull,
    Corrupt(&'static str),
}

/// The fast loop proper, over `out` as it stands: no call and no
/// allocation inside, so the bit state stays in registers. `entry` is
/// the resolved next literal/length code, carried across calls.
#[inline(never)]
fn run(
    state: &mut Bits,
    entry: &mut FastEntry,
    out: &mut [u8],
    op: &mut usize,
    data: &[u8],
    lit: &FastDecoder,
    dist: &FastDecoder,
) -> Stop {
    let mut bits = *state;
    let (mut next, mut at) = (*entry, *op);
    let stop = loop {
        if at + SLACK > out.len() {
            break Stop::OutputFull;
        } else if bits.pos + 8 > data.len() {
            break Stop::InputShort;
        }
        bits.refill(data);

        let litlen = next;
        if litlen.len() == 0 {
            break Stop::Corrupt("invalid Huffman code");
        }
        let len = litlen.value(bits.acc);
        bits.consume(litlen);
        let sym = litlen.sym();
        if sym < 256 {
            out[at] = sym as u8;
            at += 1;
            next = lit.resolve(bits.acc);
            continue;
        } else if sym == EOB {
            break Stop::EndOfBlock;
        } else if sym > 285 {
            break Stop::Corrupt("invalid literal/length symbol");
        }

        let distance = dist.resolve(bits.acc);
        if distance.len() == 0 {
            break Stop::Corrupt("invalid Huffman code");
        } else if distance.sym() >= NUM_DIST {
            break Stop::Corrupt("invalid distance symbol");
        }
        let d = distance.value(bits.acc);
        bits.consume(distance);
        if d > at {
            break Stop::Corrupt("distance reaches before output start");
        }
        next = lit.resolve(bits.acc);
        copy_match(out, at, d, len);
        at += len;
    };
    *state = bits;
    (*entry, *op) = (next, at);
    stop
}

/// Copy `len` bytes from `d` back to `op`, writing up to [`SLACK`] − 258
/// bytes past the match: 8-byte words when no word overlaps its own
/// source, 8-byte fills for a run of one byte, bytes otherwise.
#[inline(always)]
fn copy_match(buf: &mut [u8], op: usize, d: usize, len: usize) {
    let src = op - d;
    if d >= 8 {
        copy_word(buf, src, op);
        copy_word(buf, src + 8, op + 8);
        let mut k = 16;
        while k < len {
            copy_word(buf, src + k, op + k);
            k += 8;
        }
    } else if d == 1 {
        let word = [buf[src]; 8];
        let mut k = 0;
        while k < len {
            buf[op + k..op + k + 8].copy_from_slice(&word);
            k += 8;
        }
    } else {
        for k in 0..len {
            buf[op + k] = buf[src + k];
        }
    }
}

#[inline(always)]
fn copy_word(buf: &mut [u8], from: usize, to: usize) {
    let word: [u8; 8] = buf[from..from + 8].try_into().expect("8 bytes");
    buf[to..to + 8].copy_from_slice(&word);
}

#[cfg(test)]
mod tests {
    use super::super::encoder::deflate_raw;
    use super::*;
    use crate::codec::CompressionLevel;

    fn round_trip(data: &[u8]) {
        for level in CompressionLevel::ALL {
            let packed = deflate_raw(data, level);
            let unpacked = inflate_raw(&packed, data.len()).unwrap();
            assert_eq!(unpacked, data, "level {level:?}, {} bytes", data.len());
        }
    }

    #[test]
    fn round_trips_basic_inputs() {
        round_trip(b"");
        round_trip(b"a");
        round_trip(b"hello, hello, hello world");
        round_trip(&[0u8; 100_000]);
    }

    #[test]
    fn round_trips_text_like_data() {
        let data = b"the quick brown fox jumps over the lazy dog. ".repeat(2000);
        round_trip(&data);
    }

    #[test]
    fn round_trips_pseudorandom_data() {
        let mut state = 0x9E3779B97F4A7C15u64;
        let data: Vec<u8> = (0..300_000)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 56) as u8
            })
            .collect();
        round_trip(&data);
    }

    #[test]
    fn round_trips_all_byte_values() {
        let data: Vec<u8> = (0..=255u8).cycle().take(70_000).collect();
        round_trip(&data);
    }

    #[test]
    fn round_trips_multi_block_input() {
        // Force more than one 65536-token block with incompressible data.
        let mut state = 1u64;
        let data: Vec<u8> = (0..200_000)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 33) as u8
            })
            .collect();
        round_trip(&data);
    }

    #[test]
    fn truncated_stream_reports_eof() {
        let packed = deflate_raw(
            b"some reasonably long input to compress",
            CompressionLevel::Default,
        );
        for cut in [0, 1, packed.len() / 2, packed.len() - 1] {
            let err = inflate_raw(&packed[..cut], 0).unwrap_err();
            assert!(
                matches!(err, CodecError::UnexpectedEof | CodecError::Corrupt(_)),
                "cut {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn reserved_block_type_is_rejected() {
        // BFINAL=1, BTYPE=11.
        let err = inflate_raw(&[0b0000_0111], 0).unwrap_err();
        assert_eq!(err, CodecError::Corrupt("reserved block type 11"));
    }

    #[test]
    fn stored_block_len_nlen_mismatch_is_rejected() {
        // BFINAL=1, BTYPE=00, then bogus LEN/NLEN.
        let stream = [0b0000_0001, 0x05, 0x00, 0x00, 0x00];
        let err = inflate_raw(&stream, 0).unwrap_err();
        assert_eq!(err, CodecError::Corrupt("stored block LEN/NLEN mismatch"));
    }

    #[test]
    fn distance_before_output_start_is_rejected() {
        // Hand-build a fixed-Huffman block whose first token is a match:
        // any distance then reaches before the start of output.
        use crate::bitio::LsbBitWriter;
        use crate::huffman::HuffmanEncoder;
        let lit = HuffmanEncoder::from_lengths(&fixed_litlen_lengths());
        let dist = HuffmanEncoder::from_lengths(&fixed_dist_lengths());
        let mut w = LsbBitWriter::new();
        w.write_bits(1, 1);
        w.write_bits(0b01, 2);
        lit.write_lsb(&mut w, 257); // length 3, no extra bits
        dist.write_lsb(&mut w, 0); // distance 1, no extra bits
        lit.write_lsb(&mut w, 256);
        let stream = w.finish();
        let err = inflate_raw(&stream, 0).unwrap_err();
        assert_eq!(
            err,
            CodecError::Corrupt("distance reaches before output start")
        );
    }

    #[test]
    fn many_tiny_blocks_decode_in_linear_time() {
        // 100 000 fixed blocks of one 258-byte match each (~3 bytes of
        // stream apiece), an empty stored block after every other one:
        // ~26 MB of output from ~550 KB. Were the output's zero-filled
        // tail cut off and refilled per block, this would zero-fill
        // terabytes; decoded in linear time it takes well under a
        // second, even in a debug build.
        use crate::bitio::LsbBitWriter;
        use crate::huffman::HuffmanEncoder;
        const BLOCKS: usize = 100_000;
        let lit = HuffmanEncoder::from_lengths(&fixed_litlen_lengths());
        let dist = HuffmanEncoder::from_lengths(&fixed_dist_lengths());
        let mut w = LsbBitWriter::new();
        w.write_bits(0b010, 3); // not final, fixed
        lit.write_lsb(&mut w, b'x' as usize);
        lit.write_lsb(&mut w, 256);
        for i in 0..BLOCKS {
            w.write_bits(0b010, 3);
            lit.write_lsb(&mut w, 285); // length 258, no extra bits
            dist.write_lsb(&mut w, 0); // distance 1
            lit.write_lsb(&mut w, 256);
            if i % 2 == 0 {
                w.write_bits(0b000, 3); // not final, stored
                w.align_to_byte();
                w.write_bits(0xFFFF_0000, 32); // LEN 0, NLEN !0
            }
        }
        w.write_bits(0b011, 3); // final, fixed, empty
        lit.write_lsb(&mut w, 256);
        let stream = w.finish();

        let want = 1 + 258 * BLOCKS;
        let clock = std::time::Instant::now();
        for hint in [0, want] {
            let got = inflate_raw(&stream, hint).unwrap();
            assert_eq!(got.len(), want, "hint {hint}");
            assert!(got.iter().all(|&b| b == b'x'), "hint {hint}");
        }
        let secs = clock.elapsed().as_secs_f64();
        assert!(secs < 60.0, "two decodes of {want} bytes took {secs:.1} s");
    }
}
