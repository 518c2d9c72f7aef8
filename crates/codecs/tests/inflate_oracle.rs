//! The inflate fast loop against an oracle: the per-symbol decoder it
//! replaced, kept here verbatim (module `oracle`, from `f76fe8a`'s
//! `deflate/decoder.rs`, plus that commit's zlib wrapper), together
//! with the same commit's `LsbBitReader`, `HuffmanDecoder` and
//! `FastDecoder`. The oracle shares with the library only the RFC 1951
//! tables, `canonical_codes` / `reverse_bits` (the encoder's too, so
//! `deflate_byte_identity` pins them) and `adler32`: table building,
//! bit reading and stored-block copies are checked, not just the loop.
//!
//! On every input — valid streams of arbitrary data at each level, and
//! the same streams bit-flipped or truncated — the library must return
//! what the oracle returns: the same bytes, or the same `CodecError`.

use isobar_codecs::deflate::{deflate_raw, inflate_raw, Deflate};
use isobar_codecs::{Codec, CodecError, CodecScratch, CompressionLevel};
use proptest::prelude::*;

mod oracle {
    use isobar_codecs::deflate::adler32;
    use isobar_codecs::deflate::tables::*;
    use isobar_codecs::huffman::{canonical_codes, reverse_bits, MAX_SUPPORTED_LEN};
    use isobar_codecs::CodecError;

    /// Reads bits LSB-first within each byte (DEFLATE order).
    pub struct LsbBitReader<'a> {
        data: &'a [u8],
        /// Index of the next byte to load into `acc`.
        pos: usize,
        acc: u64,
        nbits: u32,
    }

    impl<'a> LsbBitReader<'a> {
        pub fn new(data: &'a [u8]) -> Self {
            LsbBitReader {
                data,
                pos: 0,
                acc: 0,
                nbits: 0,
            }
        }

        fn refill(&mut self) {
            while self.nbits <= 56 && self.pos < self.data.len() {
                self.acc |= (self.data[self.pos] as u64) << self.nbits;
                self.pos += 1;
                self.nbits += 8;
            }
        }

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

        pub fn read_bit(&mut self) -> Result<u32, CodecError> {
            self.read_bits(1)
        }

        pub fn peek_bits(&mut self, count: u32) -> u32 {
            debug_assert!(count <= 16);
            if self.nbits < count {
                self.refill();
            }
            (self.acc & ((1u64 << count) - 1)) as u32
        }

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

        pub fn align_to_byte(&mut self) {
            let drop = self.nbits % 8;
            self.acc >>= drop;
            self.nbits -= drop;
        }

        pub fn read_bytes(&mut self, buf: &mut [u8]) -> Result<(), CodecError> {
            assert_eq!(self.nbits % 8, 0, "read_bytes requires byte alignment");
            for slot in buf.iter_mut() {
                if self.nbits >= 8 {
                    *slot = self.acc as u8;
                    self.acc >>= 8;
                    self.nbits -= 8;
                } else if self.pos < self.data.len() {
                    *slot = self.data[self.pos];
                    self.pos += 1;
                } else {
                    return Err(CodecError::UnexpectedEof);
                }
            }
            Ok(())
        }

        pub fn remaining_bytes(&mut self) -> &'a [u8] {
            self.align_to_byte();
            let buffered = (self.nbits / 8) as usize;
            &self.data[self.pos - buffered..]
        }
    }

    /// Canonical decoding tables (count/offset per length), walked one
    /// bit at a time.
    #[derive(Default)]
    pub struct HuffmanDecoder {
        first_code: [u32; MAX_SUPPORTED_LEN as usize + 1],
        first_index: [u32; MAX_SUPPORTED_LEN as usize + 1],
        count: [u32; MAX_SUPPORTED_LEN as usize + 1],
        symbols: Vec<u16>,
        max_len: u8,
    }

    impl HuffmanDecoder {
        pub fn from_lengths(lengths: &[u8]) -> Result<Self, CodecError> {
            let mut decoder = HuffmanDecoder::default();
            decoder.rebuild(lengths)?;
            Ok(decoder)
        }

        fn rebuild(&mut self, lengths: &[u8]) -> Result<(), CodecError> {
            self.max_len = 0;
            self.symbols.clear();
            let max_len = lengths.iter().copied().max().unwrap_or(0);
            if max_len > MAX_SUPPORTED_LEN {
                return Err(CodecError::Corrupt("code length exceeds supported maximum"));
            }
            self.count.fill(0);
            for &len in lengths {
                self.count[len as usize] += 1;
            }
            self.count[0] = 0;

            // Kraft check: sum of 2^(max-len) must not exceed 2^max.
            let kraft: u64 = (1..=max_len as usize)
                .map(|len| (self.count[len] as u64) << (max_len as usize - len))
                .sum();
            if max_len > 0 && kraft > 1u64 << max_len {
                return Err(CodecError::Corrupt("over-subscribed Huffman code"));
            }

            let mut code = 0u32;
            let mut index = 0u32;
            for len in 1..=max_len as usize {
                code = (code + self.count[len - 1]) << 1;
                self.first_code[len] = code;
                self.first_index[len] = index;
                index += self.count[len];
            }

            self.symbols.resize(index as usize, 0);
            let mut next = self.first_index;
            for (sym, &len) in lengths.iter().enumerate() {
                if len > 0 {
                    self.symbols[next[len as usize] as usize] = sym as u16;
                    next[len as usize] += 1;
                }
            }
            self.max_len = max_len;
            Ok(())
        }

        fn lookup(&self, code: u32, len: usize) -> Option<u16> {
            let offset = code.wrapping_sub(self.first_code[len]);
            if offset < self.count[len] {
                Some(self.symbols[(self.first_index[len] + offset) as usize])
            } else {
                None
            }
        }

        pub fn decode_lsb(&self, r: &mut LsbBitReader<'_>) -> Result<u16, CodecError> {
            let mut code = 0u32;
            for len in 1..=self.max_len as usize {
                code = (code << 1) | r.read_bit()?;
                if let Some(sym) = self.lookup(code, len) {
                    return Ok(sym);
                }
            }
            Err(CodecError::Corrupt("invalid Huffman code"))
        }
    }

    const FAST_ROOT_BITS: u32 = 10;

    #[derive(Clone, Copy, Default)]
    struct FastEntry {
        /// Decoded symbol, or base index into the secondary table when
        /// `escape` is set.
        sym: u16,
        /// Bits to consume (full code length); 0 marks an unassigned
        /// slot of an incomplete code.
        len: u8,
        /// Slot requires a secondary-table lookup.
        escape: bool,
    }

    /// One `2^10` primary lookup, per-prefix secondary tables.
    pub struct FastDecoder {
        primary: Vec<FastEntry>,
        secondary: Vec<FastEntry>,
    }

    impl FastDecoder {
        pub fn from_lengths(lengths: &[u8]) -> Result<Self, CodecError> {
            let max_len = lengths.iter().copied().max().unwrap_or(0);
            if max_len > 15 {
                return Err(CodecError::Corrupt("fast decoder supports ≤ 15-bit codes"));
            }
            // Reuse the validation logic (Kraft check) of the slow decoder.
            HuffmanDecoder::from_lengths(lengths)?;
            let codes = canonical_codes(lengths);

            let mut primary = vec![FastEntry::default(); 1 << FAST_ROOT_BITS];

            // Short codes: fill every primary slot whose low `len` bits
            // match the bit-reversed code.
            for (sym, (&len, &code)) in lengths.iter().zip(&codes).enumerate() {
                if len == 0 || len as u32 > FAST_ROOT_BITS {
                    continue;
                }
                let rev = reverse_bits(code, len) as usize;
                let stride = 1usize << len;
                let mut slot = rev;
                while slot < primary.len() {
                    primary[slot] = FastEntry {
                        sym: sym as u16,
                        len,
                        escape: false,
                    };
                    slot += stride;
                }
            }

            // Long codes: group by their first FAST_ROOT_BITS stream bits.
            let mut secondary: Vec<FastEntry> = Vec::new();
            let root_mask = (1usize << FAST_ROOT_BITS) - 1;
            let mut groups: std::collections::BTreeMap<usize, Vec<u16>> =
                std::collections::BTreeMap::new();
            for (sym, &len) in lengths.iter().enumerate() {
                if len as u32 > FAST_ROOT_BITS {
                    let rev = reverse_bits(codes[sym], len) as usize;
                    groups.entry(rev & root_mask).or_default().push(sym as u16);
                }
            }
            for (prefix, syms) in groups {
                let sub_bits = syms
                    .iter()
                    .map(|&s| lengths[s as usize] as u32 - FAST_ROOT_BITS)
                    .max()
                    .ok_or(CodecError::Corrupt("empty escape group"))?;
                let base = secondary.len();
                secondary.resize(base + (1usize << sub_bits), FastEntry::default());
                for &sym in &syms {
                    let len = lengths[sym as usize];
                    let rev = reverse_bits(codes[sym as usize], len) as usize;
                    let high = rev >> FAST_ROOT_BITS; // bits after the root window
                    let stride = 1usize << (len as u32 - FAST_ROOT_BITS);
                    let mut slot = high;
                    while slot < 1usize << sub_bits {
                        secondary[base + slot] = FastEntry {
                            sym,
                            len,
                            escape: false,
                        };
                        slot += stride;
                    }
                }
                primary[prefix] = FastEntry {
                    sym: base as u16,
                    len: sub_bits as u8,
                    escape: true,
                };
            }

            Ok(FastDecoder { primary, secondary })
        }

        pub fn decode_lsb(&self, r: &mut LsbBitReader<'_>) -> Result<u16, CodecError> {
            let window = r.peek_bits(FAST_ROOT_BITS) as usize;
            let entry = self.primary[window];
            if !entry.escape {
                if entry.len == 0 {
                    // Unassigned slot: either an incomplete-code gap or a
                    // truncated stream (peek zero-fills past the end).
                    return Err(CodecError::Corrupt("invalid Huffman code"));
                }
                r.consume(entry.len as u32)?;
                return Ok(entry.sym);
            }
            let sub_bits = entry.len as u32;
            let long = r.peek_bits(FAST_ROOT_BITS + sub_bits) as usize;
            let sub = self.secondary[entry.sym as usize + (long >> FAST_ROOT_BITS)];
            if sub.len == 0 {
                return Err(CodecError::Corrupt("invalid Huffman code"));
            }
            r.consume(sub.len as u32)?;
            Ok(sub.sym)
        }
    }

    pub fn inflate_raw(data: &[u8], size_hint: usize) -> Result<Vec<u8>, CodecError> {
        let mut r = LsbBitReader::new(data);
        let max_expansion = data.len().saturating_mul(1040).saturating_add(256);
        let mut out = Vec::with_capacity(size_hint.min(max_expansion));
        inflate_into(&mut r, &mut out)?;
        Ok(out)
    }

    pub fn zlib_decompress(data: &[u8]) -> Result<Vec<u8>, CodecError> {
        if data.len() < 6 {
            return Err(CodecError::UnexpectedEof);
        }
        let (cmf, flg) = (data[0], data[1]);
        if cmf & 0x0f != 8 {
            return Err(CodecError::Corrupt("zlib header: not deflate"));
        }
        if (u16::from(cmf) * 256 + u16::from(flg)) % 31 != 0 {
            return Err(CodecError::Corrupt("zlib header check failed"));
        }
        if flg & 0x20 != 0 {
            return Err(CodecError::Corrupt("preset dictionaries unsupported"));
        }
        let mut r = LsbBitReader::new(&data[2..]);
        let mut out = Vec::new();
        inflate_into(&mut r, &mut out)?;
        let trailer = r.remaining_bytes();
        if trailer.len() < 4 {
            return Err(CodecError::UnexpectedEof);
        }
        let expected = u32::from_be_bytes([trailer[0], trailer[1], trailer[2], trailer[3]]);
        let actual = adler32(&out);
        if expected != actual {
            return Err(CodecError::ChecksumMismatch { expected, actual });
        }
        Ok(out)
    }

    pub fn inflate_into(r: &mut LsbBitReader<'_>, out: &mut Vec<u8>) -> Result<(), CodecError> {
        loop {
            let is_final = r.read_bit()? == 1;
            match r.read_bits(2)? {
                0b00 => read_stored_block(r, out)?,
                0b01 => {
                    let lit = FastDecoder::from_lengths(&fixed_litlen_lengths())?;
                    let dist = FastDecoder::from_lengths(&fixed_dist_lengths())?;
                    read_compressed_block(r, out, &lit, &dist)?;
                }
                0b10 => {
                    let (lit, dist) = read_dynamic_header(r)?;
                    read_compressed_block(r, out, &lit, &dist)?;
                }
                _ => return Err(CodecError::Corrupt("reserved block type 11")),
            }
            if is_final {
                return Ok(());
            }
        }
    }

    fn read_stored_block(r: &mut LsbBitReader<'_>, out: &mut Vec<u8>) -> Result<(), CodecError> {
        r.align_to_byte();
        let mut header = [0u8; 4];
        r.read_bytes(&mut header)?;
        let len = u16::from_le_bytes([header[0], header[1]]);
        let nlen = u16::from_le_bytes([header[2], header[3]]);
        if len != !nlen {
            return Err(CodecError::Corrupt("stored block LEN/NLEN mismatch"));
        }
        let start = out.len();
        out.resize(start + len as usize, 0);
        r.read_bytes(&mut out[start..])?;
        Ok(())
    }

    fn read_dynamic_header(
        r: &mut LsbBitReader<'_>,
    ) -> Result<(FastDecoder, FastDecoder), CodecError> {
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
        let cl_decoder = HuffmanDecoder::from_lengths(&cl_lengths)?;

        let mut lengths = vec![0u8; hlit + hdist];
        let mut i = 0usize;
        while i < lengths.len() {
            let sym = cl_decoder.decode_lsb(r)?;
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
                    fill_run(&mut lengths, &mut i, prev, run)?;
                }
                17 => {
                    let run = r.read_bits(3)? as usize + 3;
                    fill_run(&mut lengths, &mut i, 0, run)?;
                }
                18 => {
                    let run = r.read_bits(7)? as usize + 11;
                    fill_run(&mut lengths, &mut i, 0, run)?;
                }
                _ => return Err(CodecError::Corrupt("invalid code-length symbol")),
            }
        }

        let lit = FastDecoder::from_lengths(&lengths[..hlit])?;
        let dist = FastDecoder::from_lengths(&lengths[hlit..])?;
        Ok((lit, dist))
    }

    fn fill_run(
        lengths: &mut [u8],
        i: &mut usize,
        value: u8,
        run: usize,
    ) -> Result<(), CodecError> {
        if *i + run > lengths.len() {
            return Err(CodecError::Corrupt("code-length run overflows header"));
        }
        lengths[*i..*i + run].fill(value);
        *i += run;
        Ok(())
    }

    fn read_compressed_block(
        r: &mut LsbBitReader<'_>,
        out: &mut Vec<u8>,
        lit: &FastDecoder,
        dist: &FastDecoder,
    ) -> Result<(), CodecError> {
        loop {
            let sym = lit.decode_lsb(r)? as usize;
            match sym {
                0..=255 => out.push(sym as u8),
                256 => return Ok(()),
                257..=285 => {
                    let idx = sym - 257;
                    let len =
                        LENGTH_BASE[idx] as usize + r.read_bits(LENGTH_EXTRA[idx] as u32)? as usize;
                    let dsym = dist.decode_lsb(r)? as usize;
                    if dsym >= NUM_DIST {
                        return Err(CodecError::Corrupt("invalid distance symbol"));
                    }
                    let d =
                        DIST_BASE[dsym] as usize + r.read_bits(DIST_EXTRA[dsym] as u32)? as usize;
                    if d > out.len() {
                        return Err(CodecError::Corrupt("distance reaches before output start"));
                    }
                    let start = out.len() - d;
                    out.reserve(len);
                    for k in 0..len {
                        let b = out[start + k];
                        out.push(b);
                    }
                }
                _ => return Err(CodecError::Corrupt("invalid literal/length symbol")),
            }
        }
    }
}

/// Inputs shaped like the solver's diet as well as the usual ones: the
/// high byte-columns of a smooth float field, low-entropy bytes, runs,
/// and short periods (distances 2–7, which take the byte-wise copy).
fn inputs() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        proptest::collection::vec(any::<u8>(), 0..2048),
        proptest::collection::vec(prop_oneof![Just(0u8), Just(1), Just(255)], 0..16_384),
        (0u32..1000, 1u32..4000, 1usize..8192).prop_map(|(phase, scale, n)| {
            (0..n)
                .flat_map(|i| {
                    let v = ((i as f32 + phase as f32 / 1000.0) / scale as f32).sin() * 100.0;
                    let b = v.to_le_bytes();
                    [b[2], b[3]]
                })
                .collect()
        }),
        (proptest::collection::vec(any::<u8>(), 1..8), 16usize..4096)
            .prop_map(|(pattern, n)| pattern.iter().copied().cycle().take(n).collect()),
        proptest::collection::vec((any::<u8>(), 1usize..300), 0..64).prop_map(|runs| {
            runs.into_iter()
                .flat_map(|(b, n)| std::iter::repeat_n(b, n))
                .collect()
        }),
    ]
}

fn level(i: usize) -> CompressionLevel {
    CompressionLevel::ALL[i]
}

fn same(stream: &[u8], hint: usize) {
    assert_eq!(inflate_raw(stream, hint), oracle::inflate_raw(stream, hint));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn valid_streams_agree(data in inputs(), lvl in 0usize..3) {
        let stream = deflate_raw(&data, level(lvl));
        prop_assert_eq!(inflate_raw(&stream, data.len()), Ok(data.clone()));
        same(&stream, data.len());
    }

    #[test]
    fn bit_flipped_streams_agree(
        data in inputs(),
        lvl in 0usize..3,
        flips in proptest::collection::vec(any::<proptest::sample::Index>(), 1..4),
    ) {
        let mut stream = deflate_raw(&data, level(lvl));
        prop_assume!(!stream.is_empty());
        for flip in flips {
            let bit = flip.index(stream.len() * 8);
            stream[bit / 8] ^= 1 << (bit % 8);
        }
        same(&stream, data.len());
    }

    #[test]
    fn truncated_streams_agree(data in inputs(), lvl in 0usize..3, cut in any::<proptest::sample::Index>()) {
        let stream = deflate_raw(&data, level(lvl));
        let cut = cut.index(stream.len() + 1);
        same(&stream[..cut], data.len());
    }

    #[test]
    fn garbage_agrees(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        same(&bytes, 0);
    }
}

#[test]
fn every_single_bit_flip_agrees_through_a_reused_scratch() {
    // A float-column stream long enough for the fast loop to run, at
    // every level; every bit flipped in turn. The zlib path decodes
    // into one `out` and one scratch throughout, so stale tables or a
    // stale output tail would show up as a disagreement.
    let data: Vec<u8> = (0..300u32)
        .flat_map(|i| {
            let b = ((i as f32 * 0.01).sin() * 50.0 + 100.0).to_le_bytes();
            [b[1], b[2], b[3]]
        })
        .collect();
    let mut scratch = CodecScratch::new();
    let mut out = Vec::new();
    for lvl in 0..3 {
        let codec = Deflate::new(level(lvl));
        let stream = codec.compress(&data);
        for bit in 0..stream.len() * 8 {
            let mut flipped = stream.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            let want = oracle::zlib_decompress(&flipped);
            let got = codec
                .decompress_into(&flipped, &mut out, &mut scratch)
                .map(|()| out.clone());
            assert_eq!(got, want, "level {lvl}, bit {bit}");
        }
    }
}

#[test]
fn errors_agree_on_hand_built_corruptions() {
    let data = b"the quick brown fox jumps over the lazy dog ".repeat(200);
    let stream = deflate_raw(&data, CompressionLevel::Default);
    for cut in 0..stream.len() {
        let got = inflate_raw(&stream[..cut], 0);
        assert_eq!(got, oracle::inflate_raw(&stream[..cut], 0), "cut {cut}");
        assert!(matches!(
            got,
            Err(CodecError::UnexpectedEof | CodecError::Corrupt(_))
        ));
    }
}
