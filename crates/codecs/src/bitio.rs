//! Bit-granular input/output streams.
//!
//! DEFLATE packs bits LSB-first within each byte (RFC 1951 §3.1.1) while
//! bzip2-style streams pack MSB-first, so both orders are provided. The
//! writers accumulate into a 64-bit register and spill whole bytes, which
//! keeps the per-bit cost to a couple of shifts; the readers mirror that.

use crate::codec::CodecError;

/// Writes bits LSB-first within each output byte (DEFLATE order).
#[derive(Debug, Default)]
pub struct LsbBitWriter {
    out: Vec<u8>,
    /// Pending bits, least significant bit is the oldest unwritten bit.
    acc: u64,
    /// Number of valid bits in `acc` (always < 32 between calls).
    nbits: u32,
}

impl LsbBitWriter {
    /// Create an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a writer whose output buffer starts with `prefix` bytes.
    pub fn with_prefix(prefix: Vec<u8>) -> Self {
        LsbBitWriter {
            out: prefix,
            acc: 0,
            nbits: 0,
        }
    }

    /// Append the low `count` bits of `bits` (0 ≤ count ≤ 32).
    ///
    /// Bytes are spilled four at a time: the accumulator holds up to 31
    /// pending bits between calls, so a 32-bit write always fits and the
    /// flush is a single 4-byte copy instead of a per-byte loop. Block
    /// headers and the bzip2-class framing write through here; a DEFLATE
    /// block's symbols go through the crate's batched writer.
    #[inline]
    pub fn write_bits(&mut self, bits: u32, count: u32) {
        debug_assert!(count <= 32);
        debug_assert!(count == 32 || bits < (1u32 << count));
        debug_assert!(self.nbits < 32);
        self.acc |= (bits as u64) << self.nbits;
        self.nbits += count;
        if self.nbits >= 32 {
            self.out.extend_from_slice(&(self.acc as u32).to_le_bytes());
            self.acc >>= 32;
            self.nbits -= 32;
        }
    }

    /// Pad with zero bits to the next byte boundary.
    pub fn align_to_byte(&mut self) {
        // Bits above `nbits` in the accumulator are always zero, so the
        // partial byte comes out zero-padded.
        let bytes = (self.nbits as usize).div_ceil(8);
        self.out.extend_from_slice(&self.acc.to_le_bytes()[..bytes]);
        self.acc = 0;
        self.nbits = 0;
    }

    /// Append whole bytes; the stream must be byte-aligned.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        assert_eq!(self.nbits, 0, "write_bytes requires byte alignment");
        self.out.extend_from_slice(bytes);
    }

    /// Total bits written so far (including pending sub-byte bits).
    pub fn bit_len(&self) -> u64 {
        self.out.len() as u64 * 8 + self.nbits as u64
    }

    /// Flush any partial byte and return the buffer.
    pub fn finish(mut self) -> Vec<u8> {
        self.align_to_byte();
        self.out
    }

    /// Start a run of at most `max_bits` further bits, with its room
    /// reserved once here. The writer takes the bits back, and drops the
    /// unused room, when the batch is dropped.
    pub(crate) fn batch(&mut self, max_bits: u64) -> LsbBatch<'_> {
        let mut out = std::mem::take(&mut self.out);
        let pos = out.len();
        // Every flush stores 8 bytes at the first unfinished byte, which
        // lies at most (pending + max_bits) / 8 bytes past `pos`.
        let room = (u64::from(self.nbits) + max_bits) / 8 + 8;
        out.resize(
            pos + usize::try_from(room).expect("batch fits in memory"),
            0,
        );
        let mut batch = LsbBatch {
            acc: self.acc,
            nbits: self.nbits,
            writer: self,
            out,
            pos,
        };
        // Leave fewer than 8 pending bits, so a whole token fits.
        batch.flush();
        batch
    }
}

/// A run of writes into an [`LsbBitWriter`] whose room is reserved up
/// front ([`LsbBitWriter::batch`]). The pending bits live in a local
/// 64-bit accumulator; [`LsbBatch::flush`] stores all 8 of its bytes
/// with one bounds check and advances past the whole ones.
pub(crate) struct LsbBatch<'w> {
    writer: &'w mut LsbBitWriter,
    /// The writer's buffer, `room` bytes longer than what is written.
    out: Vec<u8>,
    /// Index of the first byte not yet finished.
    pos: usize,
    /// Pending bits, oldest in the LSB; zero above `nbits`.
    acc: u64,
    nbits: u32,
}

impl LsbBatch<'_> {
    /// Append the low `count` bits of `bits`. Between two flushes at
    /// most 56 bits may be put, so the accumulator never overflows.
    #[inline(always)]
    pub(crate) fn put(&mut self, bits: u64, count: u32) {
        debug_assert!(self.nbits + count <= 64);
        debug_assert!(count == 64 || bits < (1u64 << count));
        self.acc |= bits << self.nbits;
        self.nbits += count;
    }

    /// Store the accumulator and move past its whole bytes, leaving
    /// fewer than 8 bits pending.
    #[inline(always)]
    pub(crate) fn flush(&mut self) {
        debug_assert!(self.nbits < 64);
        self.out[self.pos..self.pos + 8].copy_from_slice(&self.acc.to_le_bytes());
        let bytes = self.nbits / 8;
        self.pos += bytes as usize;
        self.acc >>= bytes * 8;
        self.nbits -= bytes * 8;
    }
}

impl Drop for LsbBatch<'_> {
    fn drop(&mut self) {
        self.flush();
        self.out.truncate(self.pos);
        self.writer.out = std::mem::take(&mut self.out);
        self.writer.acc = self.acc;
        self.writer.nbits = self.nbits;
    }
}

/// Reads bits LSB-first within each byte (DEFLATE order).
#[derive(Debug)]
pub struct LsbBitReader<'a> {
    data: &'a [u8],
    /// Index of the next byte to load into `acc`.
    pos: usize,
    /// Loaded bits, next stream bit in the LSB; zero above `nbits`.
    acc: u64,
    nbits: u32,
}

impl<'a> LsbBitReader<'a> {
    /// Wrap a byte slice for bit-level reading.
    pub fn new(data: &'a [u8]) -> Self {
        LsbBitReader {
            data,
            pos: 0,
            acc: 0,
            nbits: 0,
        }
    }

    /// The input, and the bit state `(acc, nbits, pos)` for a loop that
    /// holds it in locals (the inflate fast loop).
    pub(crate) fn state(&self) -> (&'a [u8], u64, u32, usize) {
        (self.data, self.acc, self.nbits, self.pos)
    }

    /// Resume from a state taken by [`LsbBitReader::state`] and advanced
    /// over the same input. Bits of `acc` above `nbits` are dropped.
    pub(crate) fn set_state(&mut self, acc: u64, nbits: u32, pos: usize) {
        debug_assert!(nbits <= 64 && pos <= self.data.len());
        self.acc = acc & u64::MAX.checked_shr(64 - nbits).unwrap_or(0);
        self.nbits = nbits;
        self.pos = pos;
    }

    #[inline]
    fn refill(&mut self) {
        while self.nbits <= 56 && self.pos < self.data.len() {
            self.acc |= (self.data[self.pos] as u64) << self.nbits;
            self.pos += 1;
            self.nbits += 8;
        }
    }

    /// Read `count` bits (0 ≤ count ≤ 32), LSB of the result is the
    /// first bit of the stream.
    #[inline]
    pub fn read_bits(&mut self, count: u32) -> Result<u32, CodecError> {
        debug_assert!(count <= 32);
        if self.nbits < count {
            self.refill();
            if self.nbits < count {
                return Err(CodecError::UnexpectedEof);
            }
        }
        let mask = if count == 32 {
            u64::MAX >> 32
        } else {
            (1u64 << count) - 1
        };
        let bits = (self.acc & mask) as u32;
        self.acc >>= count;
        self.nbits -= count;
        Ok(bits)
    }

    /// Read a single bit.
    #[inline]
    pub fn read_bit(&mut self) -> Result<u32, CodecError> {
        self.read_bits(1)
    }

    /// Peek at the next `count` bits (≤ 16) without consuming them.
    ///
    /// Past the end of the stream the missing bits read as zero; the
    /// caller detects true over-reads when it later `consume`s. This is
    /// the contract table-driven Huffman decoders need — they peek a
    /// fixed window that may straddle the stream's last code.
    #[inline]
    pub fn peek_bits(&mut self, count: u32) -> u32 {
        debug_assert!(count <= 16);
        if self.nbits < count {
            self.refill();
        }
        (self.acc & ((1u64 << count) - 1)) as u32
    }

    /// Consume `count` bits previously peeked. Errors if the stream
    /// holds fewer than `count` bits.
    #[inline]
    pub fn consume(&mut self, count: u32) -> Result<(), CodecError> {
        if self.nbits < count {
            self.refill();
            if self.nbits < count {
                return Err(CodecError::UnexpectedEof);
            }
        }
        self.acc >>= count;
        self.nbits -= count;
        Ok(())
    }

    /// Discard bits up to the next byte boundary.
    pub fn align_to_byte(&mut self) {
        let drop = self.nbits % 8;
        self.acc >>= drop;
        self.nbits -= drop;
    }

    /// Read whole bytes; the reader must be byte-aligned. The bytes
    /// still in the accumulator come first, the rest is one slice copy.
    pub fn read_bytes(&mut self, buf: &mut [u8]) -> Result<(), CodecError> {
        assert_eq!(self.nbits % 8, 0, "read_bytes requires byte alignment");
        let buffered = buf.len().min(self.nbits as usize / 8);
        let (head, rest) = buf.split_at_mut(buffered);
        for slot in head {
            *slot = self.acc as u8;
            self.acc >>= 8;
            self.nbits -= 8;
        }
        let src = self
            .data
            .get(self.pos..self.pos + rest.len())
            .ok_or(CodecError::UnexpectedEof)?;
        rest.copy_from_slice(src);
        self.pos += rest.len();
        Ok(())
    }

    /// Bytes not yet consumed (after the bit cursor), for trailing data
    /// such as checksums.
    pub fn remaining_bytes(&mut self) -> &'a [u8] {
        self.align_to_byte();
        // Return buffered whole bytes plus the unread tail. Buffered
        // bytes were already taken out of `data`, so step back.
        let buffered = (self.nbits / 8) as usize;
        &self.data[self.pos - buffered..]
    }
}

/// Writes bits MSB-first within each output byte (bzip2 order).
#[derive(Debug, Default)]
pub struct MsbBitWriter {
    out: Vec<u8>,
    /// Pending bits in the low `nbits`; anything above is already
    /// written and ignored.
    acc: u64,
    /// Number of pending bits (always < 32 between calls).
    nbits: u32,
}

impl MsbBitWriter {
    /// Create an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a writer whose output buffer starts with `prefix` bytes.
    pub fn with_prefix(prefix: Vec<u8>) -> Self {
        MsbBitWriter {
            out: prefix,
            acc: 0,
            nbits: 0,
        }
    }

    /// Append the low `count` bits of `bits` (0 ≤ count ≤ 32), most
    /// significant first. Like the LSB writer, bytes are spilled four
    /// at a time: one call per Huffman symbol makes this the hottest
    /// call of the bzip2-class encoder.
    #[inline]
    pub fn write_bits(&mut self, bits: u32, count: u32) {
        debug_assert!(count <= 32);
        debug_assert!(count == 32 || bits < (1u32 << count));
        debug_assert!(self.nbits < 32);
        self.acc = (self.acc << count) | bits as u64;
        self.nbits += count;
        if self.nbits >= 32 {
            self.nbits -= 32;
            let word = (self.acc >> self.nbits) as u32;
            self.out.extend_from_slice(&word.to_be_bytes());
        }
    }

    /// Total bits written so far.
    pub fn bit_len(&self) -> u64 {
        self.out.len() as u64 * 8 + self.nbits as u64
    }

    /// Flush (zero-padding the final byte) and return the buffer.
    pub fn finish(mut self) -> Vec<u8> {
        let bytes = (self.nbits as usize).div_ceil(8);
        let word = (self.acc << (32 - self.nbits)) as u32;
        self.out.extend_from_slice(&word.to_be_bytes()[..bytes]);
        self.out
    }
}

/// Reads bits MSB-first within each byte (bzip2 order).
#[derive(Debug)]
pub struct MsbBitReader<'a> {
    data: &'a [u8],
    pos: usize,
    acc: u64,
    nbits: u32,
}

impl<'a> MsbBitReader<'a> {
    /// Wrap a byte slice for bit-level reading.
    pub fn new(data: &'a [u8]) -> Self {
        MsbBitReader {
            data,
            pos: 0,
            acc: 0,
            nbits: 0,
        }
    }

    /// Top up the accumulator: four bytes at a time while the input
    /// lasts, then byte by byte.
    #[inline]
    fn refill(&mut self) {
        if self.nbits <= 32 {
            if let Some(word) = self.data.get(self.pos..self.pos + 4) {
                let word = u32::from_be_bytes([word[0], word[1], word[2], word[3]]);
                self.acc = (self.acc << 32) | word as u64;
                self.pos += 4;
                self.nbits += 32;
                return;
            }
        }
        while self.nbits <= 48 && self.pos < self.data.len() {
            self.acc = (self.acc << 8) | self.data[self.pos] as u64;
            self.pos += 1;
            self.nbits += 8;
        }
    }

    /// Read `count` bits (0 ≤ count ≤ 32), first stream bit becomes the
    /// MSB of the result.
    #[inline]
    pub fn read_bits(&mut self, count: u32) -> Result<u32, CodecError> {
        let bits = self.peek_bits(count);
        self.consume(count)?;
        Ok(bits)
    }

    /// Read a single bit.
    #[inline]
    pub fn read_bit(&mut self) -> Result<u32, CodecError> {
        self.read_bits(1)
    }

    /// Peek at the next `count` bits (≤ 32) without consuming them.
    /// Past the end of the stream the missing bits read as zero; the
    /// over-read surfaces when the caller `consume`s — the contract a
    /// table-driven Huffman decoder needs, since its fixed window may
    /// straddle the stream's last code.
    #[inline]
    pub fn peek_bits(&mut self, count: u32) -> u32 {
        debug_assert!(count <= 32);
        if self.nbits < count {
            self.refill();
        }
        let bits = if self.nbits >= count {
            self.acc >> (self.nbits - count)
        } else {
            self.acc << (count - self.nbits)
        };
        bits as u32 & mask32(count)
    }

    /// Consume `count` bits. Errors if the stream holds fewer.
    #[inline]
    pub fn consume(&mut self, count: u32) -> Result<(), CodecError> {
        if self.nbits < count {
            self.refill();
            if self.nbits < count {
                return Err(CodecError::UnexpectedEof);
            }
        }
        self.nbits -= count;
        Ok(())
    }

    /// Bits left in the stream (accumulator + unread bytes). Decoders
    /// use this to reject length fields that claim more symbols than
    /// the remaining stream could possibly encode.
    #[inline]
    pub fn remaining_bits(&self) -> usize {
        self.nbits as usize + (self.data.len() - self.pos) * 8
    }
}

#[inline]
fn mask32(count: u32) -> u32 {
    if count == 32 {
        u32::MAX
    } else {
        (1u32 << count) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lsb_single_bits_round_trip() {
        let mut w = LsbBitWriter::new();
        let pattern = [1u32, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1];
        for &b in &pattern {
            w.write_bits(b, 1);
        }
        let bytes = w.finish();
        let mut r = LsbBitReader::new(&bytes);
        for &b in &pattern {
            assert_eq!(r.read_bit().unwrap(), b);
        }
    }

    #[test]
    fn lsb_multi_bit_fields_round_trip() {
        let mut w = LsbBitWriter::new();
        let fields = [
            (0x5u32, 3),
            (0x1ff, 9),
            (0x0, 1),
            (0xffff_ffff, 32),
            (0x2a, 7),
        ];
        for &(v, n) in &fields {
            w.write_bits(v, n);
        }
        let bytes = w.finish();
        let mut r = LsbBitReader::new(&bytes);
        for &(v, n) in &fields {
            assert_eq!(r.read_bits(n).unwrap(), v, "field of {n} bits");
        }
    }

    #[test]
    fn lsb_bit_order_matches_deflate_convention() {
        // RFC 1951: the first bit written lands in the LSB of the first
        // byte. Writing 1,0,0,0,0,0,0,0 must yield 0x01.
        let mut w = LsbBitWriter::new();
        w.write_bits(1, 1);
        w.write_bits(0, 7);
        assert_eq!(w.finish(), vec![0x01]);
    }

    #[test]
    fn lsb_align_and_bytes() {
        let mut w = LsbBitWriter::new();
        w.write_bits(0b101, 3);
        w.align_to_byte();
        w.write_bytes(&[0xde, 0xad]);
        let bytes = w.finish();
        assert_eq!(bytes, vec![0b101, 0xde, 0xad]);

        let mut r = LsbBitReader::new(&bytes);
        assert_eq!(r.read_bits(3).unwrap(), 0b101);
        r.align_to_byte();
        let mut buf = [0u8; 2];
        r.read_bytes(&mut buf).unwrap();
        assert_eq!(buf, [0xde, 0xad]);
    }

    #[test]
    fn lsb_reader_eof_is_detected() {
        let mut r = LsbBitReader::new(&[0xff]);
        assert_eq!(r.read_bits(8).unwrap(), 0xff);
        assert_eq!(r.read_bits(1), Err(CodecError::UnexpectedEof));
    }

    #[test]
    fn lsb_remaining_bytes_accounts_for_buffered_data() {
        let data = [0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09];
        let mut r = LsbBitReader::new(&data);
        assert_eq!(r.read_bits(8).unwrap(), 0x01);
        // The reader prefetches aggressively; remaining_bytes must still
        // report everything after the logical cursor.
        assert_eq!(r.remaining_bytes(), &data[1..]);
    }

    #[test]
    fn msb_bit_order_matches_bzip2_convention() {
        // First bit written lands in the MSB of the first byte.
        let mut w = MsbBitWriter::new();
        w.write_bits(1, 1);
        w.write_bits(0, 7);
        assert_eq!(w.finish(), vec![0x80]);
    }

    #[test]
    fn msb_fields_round_trip() {
        let mut w = MsbBitWriter::new();
        let fields = [
            (0x5u32, 3),
            (0x1ff, 9),
            (0x0, 1),
            (0xdead_beef, 32),
            (0x2a, 7),
        ];
        for &(v, n) in &fields {
            w.write_bits(v, n);
        }
        let bytes = w.finish();
        let mut r = MsbBitReader::new(&bytes);
        for &(v, n) in &fields {
            assert_eq!(r.read_bits(n).unwrap(), v, "field of {n} bits");
        }
    }

    #[test]
    fn msb_reader_eof_is_detected() {
        let mut r = MsbBitReader::new(&[0b1010_0000]);
        assert_eq!(r.read_bits(4).unwrap(), 0b1010);
        assert_eq!(r.read_bits(4).unwrap(), 0);
        assert_eq!(r.read_bit(), Err(CodecError::UnexpectedEof));
    }

    #[test]
    fn batch_writes_what_write_bits_writes_from_every_pending_offset() {
        // Seeded (value, count) sequences, flushed after one to three
        // fields (never more than 56 bits), against the same fields
        // through `write_bits`, from each pending-bit offset the writer
        // can hold between calls.
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for seed in 0..8 {
            for offset in 0..32u32 {
                let prefix = next() as u32 & mask32(offset);
                let fields: Vec<(u32, u32)> = (0..200 + seed * 37)
                    .map(|_| {
                        let count = (next() % 19) as u32;
                        (next() as u32 & mask32(count), count)
                    })
                    .collect();
                let total: u64 = fields.iter().map(|&(_, n)| u64::from(n)).sum();

                let mut plain = LsbBitWriter::with_prefix(vec![0xA5; seed]);
                plain.write_bits(prefix, offset);
                for &(v, n) in &fields {
                    plain.write_bits(v, n);
                }

                let mut batched = LsbBitWriter::with_prefix(vec![0xA5; seed]);
                batched.write_bits(prefix, offset);
                {
                    let mut b = batched.batch(total);
                    for group in fields.chunks(1 + (seed % 3)) {
                        for &(v, n) in group {
                            b.put(u64::from(v), n);
                        }
                        b.flush();
                    }
                }
                assert_eq!(
                    batched.bit_len(),
                    plain.bit_len(),
                    "seed {seed}, offset {offset}"
                );
                assert_eq!(
                    batched.finish(),
                    plain.finish(),
                    "seed {seed}, offset {offset}"
                );
            }
        }
    }

    #[test]
    fn writers_report_bit_len() {
        let mut w = LsbBitWriter::new();
        w.write_bits(0, 13);
        assert_eq!(w.bit_len(), 13);
        let mut m = MsbBitWriter::new();
        m.write_bits(0, 13);
        assert_eq!(m.bit_len(), 13);
    }

    #[test]
    fn empty_streams_are_fine() {
        assert!(LsbBitWriter::new().finish().is_empty());
        assert!(MsbBitWriter::new().finish().is_empty());
        let mut r = LsbBitReader::new(&[]);
        assert_eq!(r.read_bits(0).unwrap(), 0);
        assert_eq!(r.read_bit(), Err(CodecError::UnexpectedEof));
    }
}
