//! DEFLATE encoder: token blocks → bit stream (RFC 1951).
//!
//! The encode path is built around [`DeflateScratch`]: the LZ77 tables,
//! the per-block symbol buffer, the Huffman construction lists, and the
//! dynamic-header workspace all live there and are reused from chunk to
//! chunk. The level's matcher fills one block at a time; each token is
//! counted into the literal/length and distance histograms and packed
//! into its symbols as it arrives, so no whole-input token vector ever
//! exists, each match's length and distance codes are looked up once,
//! and nothing on this path allocates once the scratch is warm. A
//! block's symbols go out through one batched bit writer whose room
//! is the bit cost the block-type choice computed.

use crate::bitio::LsbBitWriter;
use crate::codec::CompressionLevel;
use crate::huffman::{HuffmanEncoder, PackageMergeScratch};
use crate::lz77::{FastMatcher, Matcher, MatcherScratch, Sink, Token};

use super::tables::*;

/// Tokens per emitted block. Each block gets its own Huffman codes, so
/// this bounds how stale the statistics can get on heterogeneous input.
const BLOCK_TOKENS: usize = 1 << 16;

/// Symbol words the block buffer grows by when a block outgrows it:
/// small, so a short input touches hardly more memory than its tokens.
const SYMS_STEP: usize = 1 << 12;

/// Reusable working memory for the DEFLATE encode path.
///
/// Owned by the caller and threaded through [`deflate_raw_into`]; every
/// buffer reaches its steady-state capacity during the first chunk and
/// is only cleared, never reallocated, afterwards.
#[derive(Default)]
pub struct DeflateScratch {
    matcher: MatcherScratch,
    /// Room for one block's tokens as [`pack`]ed symbol words: as many
    /// as the largest block so far needed, at most [`BLOCK_TOKENS`].
    syms: Vec<u32>,
    block: BlockScratch,
}

impl DeflateScratch {
    /// Fresh, empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Per-block encoder state: Huffman tables and header workspace.
#[derive(Default)]
struct BlockScratch {
    pm: PackageMergeScratch,
    dyn_lit: HuffmanEncoder,
    dyn_dist: HuffmanEncoder,
    /// Fixed-code encoders, built once on first use (their lengths are
    /// constants from RFC 1951 §3.2.6).
    fixed_lit: HuffmanEncoder,
    fixed_dist: HuffmanEncoder,
    header: DynamicHeader,
    /// The chosen codes of the block being written, as the emit reads
    /// them.
    emit: EmitCodes,
}

impl BlockScratch {
    /// Build a block's dynamic codes and the header that describes them.
    fn build_dynamic(&mut self, counts: &Counts) {
        self.dyn_lit
            .rebuild_from_freqs(&counts.litlen, MAX_CODE_LEN, &mut self.pm);
        self.dyn_dist
            .rebuild_from_freqs(&dynamic_dist_freqs(counts), MAX_CODE_LEN, &mut self.pm);
        self.header.build(
            self.dyn_lit.lengths(),
            self.dyn_dist.lengths(),
            &mut self.pm,
        );
    }
}

/// The histogram a block's dynamic distance code is built from: its
/// own, with at least one distance code, so the header never encodes an
/// empty alphabet.
fn dynamic_dist_freqs(counts: &Counts) -> [u64; NUM_DIST] {
    let mut freqs = counts.dist;
    if freqs.iter().all(|&f| f == 0) {
        freqs[0] = 1;
    }
    freqs
}

/// Compress `data` into a raw DEFLATE stream (no zlib wrapper).
pub fn deflate_raw(data: &[u8], level: CompressionLevel) -> Vec<u8> {
    let mut w = LsbBitWriter::new();
    deflate_raw_into(data, level, &mut DeflateScratch::default(), &mut w);
    w.finish()
}

/// Compress `data` into `w` as a raw DEFLATE stream, borrowing all
/// working memory from `scratch`.
pub fn deflate_raw_into(
    data: &[u8],
    level: CompressionLevel,
    scratch: &mut DeflateScratch,
    w: &mut LsbBitWriter,
) {
    let DeflateScratch {
        matcher,
        syms,
        block,
    } = scratch;
    // Each level's matcher fills a block straight into its histograms.
    match level {
        CompressionLevel::Fast => {
            let mut m = FastMatcher::new(data, matcher);
            write_blocks(data, syms, block, w, |b, room| {
                m.fill_into(room, b);
                m.is_done()
            });
        }
        CompressionLevel::Default | CompressionLevel::Best => {
            let mut m = Matcher::new(data, level, matcher);
            write_blocks(data, syms, block, w, |b, room| {
                m.fill(room, |t| b.push(t));
                m.is_done()
            });
        }
    }
}

/// Emit `data` as blocks of at most [`BLOCK_TOKENS`] tokens. `fill`
/// appends up to the given number of the block's next tokens and says
/// whether the input is used up, which makes that block the final one.
fn write_blocks(
    data: &[u8],
    syms: &mut Vec<u32>,
    s: &mut BlockScratch,
    w: &mut LsbBitWriter,
    mut fill: impl FnMut(&mut Block<'_>, usize) -> bool,
) {
    let mut byte_start = 0usize;
    loop {
        let mut block = Block::new(syms);
        let is_final = loop {
            let room = block.syms.len() - block.len;
            let done = fill(&mut block, room);
            if done || block.len == BLOCK_TOKENS {
                break done;
            }
            // Out of room before the block is full: grow the buffer a
            // step and go on filling the same block. The matchers resume
            // exactly where they stopped, so the tokens do not change.
            let Block {
                len,
                counts,
                byte_len,
                ..
            } = block;
            syms.resize((syms.len() + SYMS_STEP).min(BLOCK_TOKENS), 0);
            block = Block {
                syms: &mut syms[..],
                len,
                counts,
                byte_len,
            };
        };
        if block.len == 0 {
            // Zero-length input still needs one final block.
            debug_assert!(byte_start == 0 && data.is_empty());
            write_stored_blocks(w, data, true);
            return;
        }
        block.counts.litlen[EOB] += 1;
        let byte_len = block.byte_len;
        let before = w.bit_len();
        let raw = &data[byte_start..byte_start + byte_len];
        let syms = &block.syms[..block.len];
        if let Some(cost) = write_block(w, &block.counts, syms, raw, is_final, s) {
            debug_assert_eq!(
                w.bit_len() - before,
                cost,
                "block cost model and emit disagree"
            );
        }
        byte_start += byte_len;
        if is_final {
            return;
        }
    }
}

/// A block's literal/length and distance histograms.
struct Counts {
    litlen: [u64; NUM_LITLEN],
    dist: [u64; NUM_DIST],
}

impl Counts {
    /// The extra bits the block's matches carry.
    fn extra_bits(&self) -> u64 {
        let lengths = self.litlen[257..257 + LENGTH_EXTRA.len()].iter();
        lengths
            .zip(LENGTH_EXTRA)
            .chain(self.dist.iter().zip(DIST_EXTRA))
            .map(|(&n, extra)| n * u64::from(extra))
            .sum()
    }
}

/// One block being filled: its tokens packed as symbol words, their
/// histograms and the input bytes they cover. The matcher writes each
/// word into a slice of fixed length (the caller grows it between
/// fills), and the block is never passed whole to a call, so its
/// counters stay in registers.
struct Block<'v> {
    /// Room for the block's words; the first `len` are filled.
    syms: &'v mut [u32],
    len: usize,
    counts: Counts,
    byte_len: usize,
}

impl<'v> Block<'v> {
    fn new(syms: &'v mut [u32]) -> Self {
        Block {
            syms,
            len: 0,
            counts: Counts {
                litlen: [0; NUM_LITLEN],
                dist: [0; NUM_DIST],
            },
            byte_len: 0,
        }
    }

    /// Count `token` and append its symbols.
    #[inline(always)]
    fn push(&mut self, token: Token) {
        match token {
            Token::Literal(b) => self.literal(b),
            Token::Match { len, dist } => self.copy(usize::from(len), usize::from(dist)),
        }
    }
}

impl Sink for Block<'_> {
    #[inline(always)]
    fn literal(&mut self, byte: u8) {
        self.counts.litlen[usize::from(byte)] += 1;
        self.byte_len += 1;
        self.syms[self.len] = u32::from(byte) | NO_DIST << 14;
        self.len += 1;
    }

    /// Each match's length and distance codes are looked up once, here.
    #[inline(always)]
    fn copy(&mut self, len: usize, dist: usize) {
        let (lc, _, lval) = length_code(len as u16);
        let (dc, _, dval) = dist_code(dist as u16);
        self.counts.litlen[257 + lc] += 1;
        self.counts.dist[dc] += 1;
        self.byte_len += len;
        self.syms[self.len] = pack(257 + lc, lval, dc, dval);
        self.len += 1;
    }
}

/// The distance slot of a literal's symbol word: no distance symbol
/// uses it, and its [`EmitCodes`] entry writes nothing.
const NO_DIST: u32 = 31;

/// A match as the emit pass needs it, in one word: bits 0–8 the
/// literal/length symbol, 9–13 the length's extra-bit value, 14–18 the
/// distance symbol, 19–31 the distance's extra-bit value. A literal is
/// its byte value with [`NO_DIST`] as its distance symbol. The
/// extra-bit counts follow from the symbols.
#[inline(always)]
fn pack(lit_sym: usize, lval: u16, dist_sym: usize, dval: u16) -> u32 {
    lit_sym as u32 | u32::from(lval) << 9 | (dist_sym as u32) << 14 | u32::from(dval) << 19
}

/// Pick the cheapest representation (stored / fixed / dynamic) and emit
/// the block. Its histogram already counts the end-of-block symbol.
///
/// Returns the cost it chose for a Huffman-coded block, which is exactly
/// the bits it wrote, and `None` for stored blocks, whose cost is only
/// the comparison's estimate.
fn write_block(
    w: &mut LsbBitWriter,
    counts: &Counts,
    syms: &[u32],
    raw: &[u8],
    is_final: bool,
    s: &mut BlockScratch,
) -> Option<u64> {
    s.build_dynamic(counts);
    let extra_bits = counts.extra_bits();
    let dyn_body = s.dyn_lit.cost_bits(&counts.litlen) + s.dyn_dist.cost_bits(&counts.dist);
    let dyn_cost = 3 + s.header.cost_bits + dyn_body + extra_bits;

    if s.fixed_lit.lengths().is_empty() {
        s.fixed_lit.rebuild_from_lengths(&fixed_litlen_lengths());
        s.fixed_dist.rebuild_from_lengths(&fixed_dist_lengths());
    }
    let fixed_body = s.fixed_lit.cost_bits(&counts.litlen) + s.fixed_dist.cost_bits(&counts.dist);
    let fixed_cost = 3 + fixed_body + extra_bits;

    // Stored cost: alignment + 4-byte length header per 65535-byte piece.
    let stored_pieces = raw.len().div_ceil(65535).max(1) as u64;
    let stored_cost = stored_pieces * (4 * 8) + raw.len() as u64 * 8 + 7;

    if stored_cost < dyn_cost && stored_cost < fixed_cost {
        write_stored_blocks(w, raw, is_final);
        return None;
    }
    w.write_bits(is_final as u32, 1);
    if fixed_cost <= dyn_cost {
        w.write_bits(0b01, 2);
        s.emit.set(&s.fixed_lit, &s.fixed_dist);
        write_syms(w, syms, &s.emit, fixed_body + extra_bits);
        Some(fixed_cost)
    } else {
        w.write_bits(0b10, 2);
        s.header.write(w);
        s.emit.set(&s.dyn_lit, &s.dyn_dist);
        write_syms(w, syms, &s.emit, dyn_body + extra_bits);
        Some(dyn_cost)
    }
}

/// The `Fast` encoder's two stages on one input, for the
/// `deflate_encode/*` rows of `crates/bench/benches/codecs.rs`. Each
/// method is the call the encoder itself makes, on scratch this holds
/// warm; the return values only keep the work observable.
#[doc(hidden)]
pub struct EncodeStages<'a> {
    data: &'a [u8],
    tokens: Vec<Token>,
    scratch: DeflateScratch,
    out: Vec<u8>,
}

impl<'a> EncodeStages<'a> {
    /// Tokenize `data` once and check that the stages reproduce the
    /// stream [`deflate_raw`] writes.
    pub fn new(data: &'a [u8]) -> Self {
        let mut scratch = DeflateScratch::new();
        let tokens = crate::lz77::tokenize(data, CompressionLevel::Fast, &mut scratch.matcher);
        let mut stages = EncodeStages {
            data,
            tokens,
            scratch,
            out: Vec::new(),
        };
        stages.blocks();
        assert!(
            stages.out == deflate_raw(data, CompressionLevel::Fast),
            "stages must reproduce the stream"
        );
        stages
    }

    /// The matcher alone, its tokens only counted.
    pub fn matcher(&mut self) -> usize {
        let mut count = 0;
        FastMatcher::new(self.data, &mut self.scratch.matcher).fill(usize::MAX, |_| count += 1);
        count
    }

    /// Histograms, Huffman build and emit of the kept tokens: every
    /// block `compress_into` writes.
    pub fn blocks(&mut self) -> usize {
        self.out.clear();
        let mut w = LsbBitWriter::with_prefix(std::mem::take(&mut self.out));
        let mut tokens = self.tokens.iter().copied();
        let s = &mut self.scratch;
        write_blocks(self.data, &mut s.syms, &mut s.block, &mut w, |b, room| {
            tokens.by_ref().take(room).for_each(|t| b.push(t));
            tokens.len() == 0
        });
        self.out = w.finish();
        self.out.len()
    }

    /// Every histogram the encoder builds a Huffman code from, by
    /// alphabet — literal/length, distance, code length — one of each
    /// per block.
    pub fn code_freqs(&mut self) -> [Vec<Vec<u64>>; 3] {
        let s = &mut self.scratch;
        s.syms.resize(BLOCK_TOKENS, 0);
        let mut freqs: [Vec<Vec<u64>>; 3] = Default::default();
        for tokens in self.tokens.chunks(BLOCK_TOKENS) {
            let mut block = Block::new(&mut s.syms);
            tokens.iter().for_each(|&t| block.push(t));
            block.counts.litlen[EOB] += 1;
            s.block.build_dynamic(&block.counts);
            freqs[0].push(block.counts.litlen.to_vec());
            freqs[1].push(dynamic_dist_freqs(&block.counts).to_vec());
            freqs[2].push(s.block.header.cl_freqs.to_vec());
        }
        freqs
    }
}

/// Emit `raw` as one or more stored blocks (type 00).
fn write_stored_blocks(w: &mut LsbBitWriter, raw: &[u8], is_final: bool) {
    let pieces = raw.len().div_ceil(65535).max(1);
    for i in 0..pieces {
        let piece = &raw[i * 65535..raw.len().min((i + 1) * 65535)];
        w.write_bits((is_final && i + 1 == pieces) as u32, 1);
        w.write_bits(0b00, 2);
        w.align_to_byte();
        let len = piece.len() as u16;
        w.write_bytes(&len.to_le_bytes());
        w.write_bytes(&(!len).to_le_bytes());
        w.write_bytes(piece);
    }
}

/// A block's two codes as the emit loop reads them: per symbol one
/// word holding its LSB-first code (bits 0–15), the code's length (bits
/// 16–23) and that length plus the symbol's extra-bit count (bits
/// 24–31). Indexed by the symbol fields of a [`pack`]ed word (9 and 5
/// bits wide), so no lookup needs a bounds check; slot [`NO_DIST`] and
/// the symbols without a code stay 0.
struct EmitCodes {
    lit: [u32; 512],
    dist: [u32; 32],
}

impl Default for EmitCodes {
    fn default() -> Self {
        EmitCodes {
            lit: [0; 512],
            dist: [0; 32],
        }
    }
}

impl EmitCodes {
    fn set(&mut self, lit: &HuffmanEncoder, dist: &HuffmanEncoder) {
        fn entry(enc: &HuffmanEncoder, sym: usize, extra: u8) -> u32 {
            if enc.len(sym) == 0 {
                return 0;
            }
            let (code, len) = enc.code_lsb(sym);
            code | len << 16 | (len + u32::from(extra)) << 24
        }
        for (sym, slot) in self.lit[..NUM_LITLEN].iter_mut().enumerate() {
            let extra = sym.checked_sub(257).and_then(|i| LENGTH_EXTRA.get(i));
            *slot = entry(lit, sym, extra.copied().unwrap_or(0));
        }
        for (sym, slot) in self.dist[..NUM_DIST].iter_mut().enumerate() {
            *slot = entry(dist, sym, DIST_EXTRA[sym]);
        }
    }
}

/// Emit a block's symbols and its end-of-block code, `bits` in all,
/// through one batch whose room is reserved for exactly those bits.
fn write_syms(w: &mut LsbBitWriter, syms: &[u32], codes: &EmitCodes, bits: u64) {
    // LSB-first concatenation makes `code | extra << code_len` the code
    // followed by its extra bits. A match puts at most 48 bits (15 + 5
    // and 15 + 13), so one flush per token keeps the batch's 56-bit
    // bound. A literal runs the same two steps (its extra values are 0
    // and its distance slot is empty), so the loop has no branch on the
    // token kind.
    #[inline(always)]
    fn code_with_extra(entry: u32, extra: u32) -> (u64, u32) {
        let code = u64::from(entry & 0xffff) | u64::from(extra) << (entry >> 16 & 0xff);
        (code, entry >> 24)
    }
    let mut b = w.batch(bits);
    for &word in syms {
        let (code, n) = code_with_extra(codes.lit[(word & 0x1ff) as usize], word >> 9 & 0x1f);
        b.put(code, n);
        let (code, n) = code_with_extra(codes.dist[(word >> 14 & 0x1f) as usize], word >> 19);
        b.put(code, n);
        b.flush();
    }
    let eob = codes.lit[EOB];
    b.put(u64::from(eob & 0xffff), eob >> 24);
}

/// A dynamic block header: the RLE-compressed code lengths plus the
/// code-length code that describes them (RFC 1951 §3.2.7).
///
/// Reusable: [`DynamicHeader::build`] refills the same buffers for each
/// block instead of constructing a fresh header.
#[derive(Default)]
struct DynamicHeader {
    hlit: usize,
    hdist: usize,
    hclen: usize,
    cl_encoder: HuffmanEncoder,
    /// Concatenated (trimmed) literal + distance lengths.
    all: Vec<u8>,
    /// RLE symbols: (code-length symbol 0..=18, extra value, extra bits).
    rle: Vec<(u8, u16, u8)>,
    /// How often each code-length symbol occurs in `rle`.
    cl_freqs: [u64; NUM_CODELEN],
    cost_bits: u64,
}

impl DynamicHeader {
    fn build(&mut self, lit_lengths: &[u8], dist_lengths: &[u8], pm: &mut PackageMergeScratch) {
        self.hlit = trimmed_len(lit_lengths, 257);
        self.hdist = trimmed_len(dist_lengths, 1);

        // Both buffers take their largest size on first use (at most one
        // RLE symbol per length), so no later block regrows them.
        self.all.clear();
        self.all.reserve(NUM_LITLEN + NUM_DIST);
        self.all.extend_from_slice(&lit_lengths[..self.hlit]);
        self.all.extend_from_slice(&dist_lengths[..self.hdist]);
        self.rle.clear();
        self.rle.reserve(NUM_LITLEN + NUM_DIST);
        rle_code_lengths_into(&self.all, &mut self.rle);

        self.cl_freqs = [0; NUM_CODELEN];
        for &(sym, _, _) in &self.rle {
            self.cl_freqs[sym as usize] += 1;
        }
        self.cl_encoder
            .rebuild_from_freqs(&self.cl_freqs, MAX_CODELEN_LEN, pm);

        self.hclen = CODELEN_ORDER
            .iter()
            .rposition(|&sym| self.cl_encoder.len(sym) > 0)
            .map_or(4, |i| (i + 1).max(4));

        let body_bits: u64 = self
            .rle
            .iter()
            .map(|&(sym, _, extra)| self.cl_encoder.len(sym as usize) as u64 + extra as u64)
            .sum();
        self.cost_bits = 5 + 5 + 4 + self.hclen as u64 * 3 + body_bits;
    }

    fn write(&self, w: &mut LsbBitWriter) {
        w.write_bits((self.hlit - 257) as u32, 5);
        w.write_bits((self.hdist - 1) as u32, 5);
        w.write_bits((self.hclen - 4) as u32, 4);
        for &sym in CODELEN_ORDER.iter().take(self.hclen) {
            w.write_bits(self.cl_encoder.len(sym) as u32, 3);
        }
        for &(sym, value, extra) in &self.rle {
            self.cl_encoder.write_lsb(w, sym as usize);
            if extra > 0 {
                w.write_bits(value as u32, extra as u32);
            }
        }
    }
}

/// Number of leading lengths to transmit: trailing zeros are implied,
/// but at least `min` entries must be sent.
fn trimmed_len(lengths: &[u8], min: usize) -> usize {
    lengths
        .iter()
        .rposition(|&l| l > 0)
        .map_or(min, |i| (i + 1).max(min))
}

/// RLE-compress a code-length sequence using symbols 16 (repeat previous
/// 3–6 times), 17 (3–10 zeros) and 18 (11–138 zeros).
fn rle_code_lengths_into(lengths: &[u8], out: &mut Vec<(u8, u16, u8)>) {
    out.clear();
    let mut i = 0usize;
    while i < lengths.len() {
        let len = lengths[i];
        let mut run = 1usize;
        while i + run < lengths.len() && lengths[i + run] == len {
            run += 1;
        }
        if len == 0 {
            let mut left = run;
            while left >= 11 {
                let take = left.min(138);
                out.push((18, (take - 11) as u16, 7));
                left -= take;
            }
            if left >= 3 {
                out.push((17, (left - 3) as u16, 3));
                left = 0;
            }
            for _ in 0..left {
                out.push((0, 0, 0));
            }
        } else {
            // First occurrence is literal; the rest can use symbol 16.
            out.push((len, 0, 0));
            let mut left = run - 1;
            while left >= 3 {
                let take = left.min(6);
                out.push((16, (take - 3) as u16, 2));
                left -= take;
            }
            for _ in 0..left {
                out.push((len, 0, 0));
            }
        }
        i += run;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rle_code_lengths(lengths: &[u8]) -> Vec<(u8, u16, u8)> {
        let mut out = Vec::new();
        rle_code_lengths_into(lengths, &mut out);
        out
    }

    fn expand_rle(rle: &[(u8, u16, u8)]) -> Vec<u8> {
        let mut out: Vec<u8> = Vec::new();
        for &(sym, value, _) in rle {
            match sym {
                0..=15 => out.push(sym),
                16 => {
                    let prev = *out.last().expect("16 with no previous");
                    out.extend(std::iter::repeat_n(prev, value as usize + 3));
                }
                17 => out.extend(std::iter::repeat_n(0, value as usize + 3)),
                18 => out.extend(std::iter::repeat_n(0, value as usize + 11)),
                _ => unreachable!(),
            }
        }
        out
    }

    #[test]
    fn rle_round_trips_assorted_length_sequences() {
        let cases: Vec<Vec<u8>> = vec![
            vec![],
            vec![5],
            vec![0; 200],
            vec![8; 144],
            vec![1, 2, 3, 4, 5],
            vec![7, 7, 7, 7, 7, 7, 7, 7, 0, 0, 0, 0, 9, 9],
            {
                let mut v = vec![0; 138];
                v.extend([3; 7]);
                v.extend([0; 11]);
                v.push(15);
                v
            },
        ];
        for case in cases {
            let rle = rle_code_lengths(&case);
            assert_eq!(expand_rle(&rle), case, "case {case:?}");
            // Every extra-bit field must fit its width.
            for &(sym, value, extra) in &rle {
                assert!(sym <= 18);
                if extra > 0 {
                    assert!(value < (1 << extra));
                }
            }
        }
    }

    #[test]
    fn trimmed_len_honours_minimum_and_trailing_zeros() {
        assert_eq!(trimmed_len(&[0; 30], 1), 1);
        assert_eq!(trimmed_len(&[0, 0, 5, 0, 0], 1), 3);
        let mut lit = [0u8; 288];
        lit[256] = 7;
        assert_eq!(trimmed_len(&lit, 257), 257);
        lit[285] = 4;
        assert_eq!(trimmed_len(&lit, 257), 286);
    }

    #[test]
    fn header_cost_accounts_for_all_bits() {
        let mut lit = [0u8; NUM_LITLEN];
        lit[..257].iter_mut().for_each(|l| *l = 9);
        lit[256] = 9;
        let dist = [5u8; NUM_DIST];
        let mut header = DynamicHeader::default();
        header.build(&lit, &dist, &mut PackageMergeScratch::new());
        let mut w = LsbBitWriter::new();
        header.write(&mut w);
        assert_eq!(w.bit_len(), header.cost_bits);
    }

    #[test]
    fn empty_input_produces_valid_stream() {
        let out = deflate_raw(&[], CompressionLevel::Default);
        assert!(!out.is_empty());
    }

    #[test]
    fn one_block_takes_the_header_buffers_to_their_largest_size() {
        // Their size depends on the block's code lengths, so a scratch
        // warmed on a block with few symbols must not regrow them for a
        // block with many.
        for level in CompressionLevel::ALL {
            let mut scratch = DeflateScratch::new();
            let mut w = LsbBitWriter::new();
            deflate_raw_into(b"tiny, tiny, tiny", level, &mut scratch, &mut w);
            let header = &scratch.block.header;
            assert!(header.all.capacity() >= NUM_LITLEN + NUM_DIST, "{level}");
            assert!(header.rle.capacity() >= NUM_LITLEN + NUM_DIST, "{level}");
        }
    }

    /// The inputs of `tests/deflate_byte_identity.rs`, rebuilt from the
    /// same seed and recipe.
    fn identity_corpus() -> Vec<Vec<u8>> {
        let mut state = 0x0DEF_1A7E_5EEDu64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let words: [&[u8]; 8] = [
            b"isobar ",
            b"preconditioner ",
            b"lossless ",
            b"compression ",
            b"throughput ",
            b"byte-column ",
            b"the ",
            b"of ",
        ];
        let mut text = Vec::new();
        while text.len() < 200_000 {
            text.extend_from_slice(words[(next() % 8) as usize]);
        }
        let noise: Vec<u8> = (0..300_000).map(|_| next() as u8).collect();
        let float_columns: Vec<u8> = (0..150_000u32)
            .flat_map(|i| {
                let t = (i % 6000) as f32 * 0.01;
                let b = (300.0 + t * (60.0 - t)).to_le_bytes();
                [b[2], b[3]]
            })
            .collect();
        let mut periodic = Vec::new();
        for period in 1..16usize {
            let pattern: Vec<u8> = (0..period).map(|_| next() as u8).collect();
            for _ in 0..4000 / period {
                periodic.extend_from_slice(&pattern);
            }
        }
        let mut large = Vec::with_capacity(1_000_000);
        while large.len() < 1_000_000 {
            match next() % 4 {
                0 => large.extend_from_slice(&text[..10_000]),
                1 => large.extend((0..10_000).map(|_| next() as u8)),
                2 => large.extend(std::iter::repeat_n(next() as u8, 10_000)),
                _ => large.extend_from_slice(&float_columns[..10_000]),
            }
        }
        large.truncate(1_000_000);
        vec![
            vec![0x42],
            text,
            noise,
            vec![0x5A; 100_000],
            float_columns,
            periodic,
            large,
        ]
    }

    #[test]
    fn every_coded_block_writes_exactly_the_cost_it_chose() {
        // `write_syms` reserves a block's room from the cost `write_block`
        // chose, so the cost model and the emit must agree to the bit.
        // The blocks are cut as `write_blocks` cuts them, from the same
        // tokens, and the stream must be `deflate_raw`'s.
        let (mut coded, mut stored) = (0, 0);
        for data in identity_corpus() {
            for level in CompressionLevel::ALL {
                let mut scratch = DeflateScratch::new();
                let DeflateScratch {
                    matcher,
                    syms,
                    block: s,
                } = &mut scratch;
                let mut tokens = crate::lz77::tokenize(&data, level, matcher).into_iter();
                syms.resize(BLOCK_TOKENS, 0);
                let mut w = LsbBitWriter::new();
                let mut byte_start = 0;
                loop {
                    let mut block = Block::new(syms);
                    tokens
                        .by_ref()
                        .take(BLOCK_TOKENS)
                        .for_each(|t| block.push(t));
                    let is_final = tokens.len() == 0;
                    block.counts.litlen[EOB] += 1;
                    let raw = &data[byte_start..byte_start + block.byte_len];
                    let before = w.bit_len();
                    let chosen = write_block(
                        &mut w,
                        &block.counts,
                        &block.syms[..block.len],
                        raw,
                        is_final,
                        s,
                    );
                    match chosen {
                        Some(cost) => {
                            assert_eq!(w.bit_len() - before, cost, "{level}, {} bytes", data.len());
                            coded += 1;
                        }
                        None => stored += 1,
                    }
                    byte_start += block.byte_len;
                    if is_final {
                        break;
                    }
                }
                assert_eq!(w.finish(), deflate_raw(&data, level), "{level}");
            }
        }
        assert!(
            coded > 20 && stored > 0,
            "{coded} coded, {stored} stored blocks"
        );
    }

    #[test]
    fn scratch_reuse_is_byte_identical_to_fresh_encode() {
        // The same scratch driven across dissimilar inputs must emit
        // exactly the bytes a fresh encode does.
        let inputs: Vec<Vec<u8>> = vec![
            b"abcabcabcabcabcabc".repeat(100),
            vec![0x11; 100_000],
            (0..150_000u32)
                .map(|i| (i.wrapping_mul(2654435761) >> 24) as u8)
                .collect(),
            Vec::new(),
            b"tail".to_vec(),
        ];
        for level in CompressionLevel::ALL {
            let mut scratch = DeflateScratch::new();
            for data in &inputs {
                let mut w = LsbBitWriter::new();
                deflate_raw_into(data, level, &mut scratch, &mut w);
                assert_eq!(
                    w.finish(),
                    deflate_raw(data, level),
                    "level {level:?}, len {}",
                    data.len()
                );
            }
        }
    }
}
