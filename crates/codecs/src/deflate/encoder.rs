//! DEFLATE encoder: token blocks → bit stream (RFC 1951).
//!
//! The encode path is built around [`DeflateScratch`]: the LZ77 tables,
//! the per-block symbol buffer, the Huffman construction lists, and the
//! dynamic-header workspace all live there and are reused from chunk to
//! chunk. The level's matcher fills one block at a time; each token is
//! counted into the literal/length and distance histograms and packed
//! into its symbols as it arrives, so no whole-input token vector ever
//! exists, each match's length and distance codes are looked up once,
//! and nothing on this path allocates once the scratch is warm.

use crate::bitio::LsbBitWriter;
use crate::codec::CompressionLevel;
use crate::huffman::{HuffmanEncoder, PackageMergeScratch};
use crate::lz77::{FastMatcher, Matcher, MatcherScratch, Token};

use super::tables::*;

/// Tokens per emitted block. Each block gets its own Huffman codes, so
/// this bounds how stale the statistics can get on heterogeneous input.
const BLOCK_TOKENS: usize = 1 << 16;

/// Reusable working memory for the DEFLATE encode path.
///
/// Owned by the caller and threaded through [`deflate_raw_into`]; every
/// buffer reaches its steady-state capacity during the first chunk and
/// is only cleared, never reallocated, afterwards.
#[derive(Default)]
pub struct DeflateScratch {
    matcher: MatcherScratch,
    /// Current block's tokens as [`pack`]ed symbol words
    /// (≤ [`BLOCK_TOKENS`]).
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
}

impl BlockScratch {
    /// Build `block`'s dynamic codes and the header that describes them.
    fn build_dynamic(&mut self, block: &Block<'_>) {
        self.dyn_lit
            .rebuild_from_freqs(&block.litlen, MAX_CODE_LEN, &mut self.pm);
        self.dyn_dist
            .rebuild_from_freqs(&dynamic_dist_freqs(block), MAX_CODE_LEN, &mut self.pm);
        self.header.build(
            self.dyn_lit.lengths(),
            self.dyn_dist.lengths(),
            &mut self.pm,
        );
    }
}

/// The histogram `block`'s dynamic distance code is built from: its
/// own, with at least one distance code, so the header never encodes an
/// empty alphabet.
fn dynamic_dist_freqs(block: &Block<'_>) -> [u64; NUM_DIST] {
    let mut freqs = block.dist;
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
            write_blocks(data, syms, block, w, |b| {
                m.fill(BLOCK_TOKENS, |t| b.push(t));
                m.is_done()
            });
        }
        CompressionLevel::Default | CompressionLevel::Best => {
            let mut m = Matcher::new(data, level, matcher);
            write_blocks(data, syms, block, w, |b| {
                m.fill(BLOCK_TOKENS, |t| b.push(t));
                m.is_done()
            });
        }
    }
}

/// Emit `data` as blocks of at most [`BLOCK_TOKENS`] tokens. `fill`
/// appends the next block's tokens and says whether the input is used
/// up, which makes that block the final one.
fn write_blocks(
    data: &[u8],
    syms: &mut Vec<u32>,
    s: &mut BlockScratch,
    w: &mut LsbBitWriter,
    mut fill: impl FnMut(&mut Block<'_>) -> bool,
) {
    let mut byte_start = 0usize;
    loop {
        let mut block = Block::new(syms);
        let is_final = fill(&mut block);
        if block.syms.is_empty() {
            // Zero-length input still needs one final block.
            debug_assert!(byte_start == 0 && data.is_empty());
            write_stored_blocks(w, data, true);
            return;
        }
        block.litlen[EOB] += 1;
        let byte_len = block.byte_len;
        write_block(
            w,
            &block,
            &data[byte_start..byte_start + byte_len],
            is_final,
            s,
        );
        byte_start += byte_len;
        if is_final {
            return;
        }
    }
}

/// One block being filled: its tokens packed as symbol words, their
/// literal/length and distance histograms, the extra-bit payload of its
/// matches and the input bytes it covers.
struct Block<'v> {
    syms: &'v mut Vec<u32>,
    litlen: [u64; NUM_LITLEN],
    dist: [u64; NUM_DIST],
    extra_bits: u64,
    byte_len: usize,
}

impl<'v> Block<'v> {
    fn new(syms: &'v mut Vec<u32>) -> Self {
        syms.clear();
        Block {
            syms,
            litlen: [0; NUM_LITLEN],
            dist: [0; NUM_DIST],
            extra_bits: 0,
            byte_len: 0,
        }
    }

    /// Count `token` and append its symbols, each code looked up once.
    #[inline(always)]
    fn push(&mut self, token: Token) {
        match token {
            Token::Literal(b) => {
                self.litlen[b as usize] += 1;
                self.byte_len += 1;
                self.syms.push(u32::from(b));
            }
            Token::Match { len, dist } => {
                let (lc, lextra, lval) = length_code(len);
                let (dc, dextra, dval) = dist_code(dist);
                self.litlen[257 + lc] += 1;
                self.dist[dc] += 1;
                self.extra_bits += u64::from(lextra) + u64::from(dextra);
                self.byte_len += len as usize;
                self.syms.push(pack(257 + lc, lval, dc, dval));
            }
        }
    }
}

/// A match as the emit pass needs it, in one word: bits 0–8 the
/// literal/length symbol, 9–13 the length's extra-bit value, 14–18 the
/// distance symbol, 19–31 the distance's extra-bit value. A literal is
/// its byte value alone. The extra-bit counts follow from the symbols.
#[inline(always)]
fn pack(lit_sym: usize, lval: u16, dist_sym: usize, dval: u16) -> u32 {
    lit_sym as u32 | u32::from(lval) << 9 | (dist_sym as u32) << 14 | u32::from(dval) << 19
}

/// Pick the cheapest representation (stored / fixed / dynamic) and emit
/// the block. Its histogram already counts the end-of-block symbol.
fn write_block(
    w: &mut LsbBitWriter,
    block: &Block<'_>,
    raw: &[u8],
    is_final: bool,
    s: &mut BlockScratch,
) {
    s.build_dynamic(block);
    let dyn_cost = 3
        + s.header.cost_bits
        + s.dyn_lit.cost_bits(&block.litlen)
        + s.dyn_dist.cost_bits(&block.dist)
        + block.extra_bits;

    if s.fixed_lit.lengths().is_empty() {
        s.fixed_lit.rebuild_from_lengths(&fixed_litlen_lengths());
        s.fixed_dist.rebuild_from_lengths(&fixed_dist_lengths());
    }
    let fixed_cost = 3
        + s.fixed_lit.cost_bits(&block.litlen)
        + s.fixed_dist.cost_bits(&block.dist)
        + block.extra_bits;

    // Stored cost: alignment + 4-byte length header per 65535-byte piece.
    let stored_pieces = raw.len().div_ceil(65535).max(1) as u64;
    let stored_cost = stored_pieces * (4 * 8) + raw.len() as u64 * 8 + 7;

    if stored_cost < dyn_cost && stored_cost < fixed_cost {
        write_stored_blocks(w, raw, is_final);
    } else if fixed_cost <= dyn_cost {
        w.write_bits(is_final as u32, 1);
        w.write_bits(0b01, 2);
        write_syms(w, block.syms, &s.fixed_lit, &s.fixed_dist);
    } else {
        w.write_bits(is_final as u32, 1);
        w.write_bits(0b10, 2);
        s.header.write(w);
        write_syms(w, block.syms, &s.dyn_lit, &s.dyn_dist);
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
        write_blocks(self.data, &mut s.syms, &mut s.block, &mut w, |b| {
            tokens.by_ref().take(BLOCK_TOKENS).for_each(|t| b.push(t));
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
        let mut freqs: [Vec<Vec<u64>>; 3] = Default::default();
        for tokens in self.tokens.chunks(BLOCK_TOKENS) {
            let mut block = Block::new(&mut s.syms);
            tokens.iter().for_each(|&t| block.push(t));
            block.litlen[EOB] += 1;
            s.block.build_dynamic(&block);
            freqs[0].push(block.litlen.to_vec());
            freqs[1].push(dynamic_dist_freqs(&block).to_vec());
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

fn write_syms(w: &mut LsbBitWriter, syms: &[u32], lit: &HuffmanEncoder, dist: &HuffmanEncoder) {
    for &word in syms {
        let sym = (word & 0x1ff) as usize;
        if sym < 256 {
            lit.write_lsb(w, sym);
            continue;
        }
        // Fuse each Huffman code with its extra bits into one write:
        // LSB-first concatenation makes `code | extra << code_len`
        // bit-identical to two calls.
        let (code, nbits) = lit.code_lsb(sym);
        let lextra = u32::from(LENGTH_EXTRA[sym - 257]);
        w.write_bits(code | (word >> 9 & 0x1f) << nbits, nbits + lextra);
        let dsym = (word >> 14 & 0x1f) as usize;
        let (code, nbits) = dist.code_lsb(dsym);
        let dextra = u32::from(DIST_EXTRA[dsym]);
        w.write_bits(code | (word >> 19) << nbits, nbits + dextra);
    }
    lit.write_lsb(w, EOB);
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
