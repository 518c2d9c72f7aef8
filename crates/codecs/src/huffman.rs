//! Canonical Huffman coding with length-limited code construction.
//!
//! Both solvers entropy-code with canonical Huffman codes: DEFLATE limits
//! code lengths to 15 bits (7 for the code-length alphabet), the bzip2
//! codec to 20. Lengths are computed with the package-merge algorithm,
//! which is optimal under a length limit — unlike the heuristic
//! "build-then-flatten" approach, it never produces a suboptimal Kraft
//! packing. Alphabets here are small (≤ 290 symbols), so the simple
//! list-based package-merge is more than fast enough.

use crate::bitio::{LsbBitReader, LsbBitWriter, MsbBitReader, MsbBitWriter};
use crate::codec::CodecError;

/// Maximum supported code length (fits the `u32` code registers).
pub const MAX_SUPPORTED_LEN: u8 = 24;

/// Package-merge arena node: a leaf symbol or a merged pair.
enum Node {
    Leaf(u16),
    Pair(u32, u32),
}

/// Reusable working memory for [`package_merge_into`].
///
/// The lists package-merge builds are bounded by the alphabet size times
/// the length limit, so after one warm-up run the buffers never grow
/// again and repeated code constructions stay off the allocator.
#[derive(Default)]
pub struct PackageMergeScratch {
    leaves: Vec<(u64, u16)>,
    arena: Vec<Node>,
    singletons: Vec<(u64, u32)>,
    current: Vec<(u64, u32)>,
    next: Vec<(u64, u32)>,
    merged: Vec<(u64, u32)>,
    stack: Vec<u32>,
}

impl PackageMergeScratch {
    /// Fresh, empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Compute optimal length-limited code lengths for `freqs`.
///
/// Returns one length per symbol; symbols with zero frequency get length
/// 0 (no code). If only one symbol occurs it is assigned length 1, as
/// both container formats require at least one bit per symbol.
///
/// # Panics
///
/// Panics if `max_len` is 0, exceeds [`MAX_SUPPORTED_LEN`], or cannot
/// accommodate the number of distinct symbols (`2^max_len` codes).
pub fn package_merge(freqs: &[u64], max_len: u8) -> Vec<u8> {
    let mut lengths = vec![0u8; freqs.len()];
    package_merge_into(
        freqs,
        max_len,
        &mut PackageMergeScratch::default(),
        &mut lengths,
    );
    lengths
}

/// [`package_merge`] writing into caller-owned `lengths` and borrowing
/// all intermediate lists from `scratch`.
///
/// `lengths` must have exactly one slot per symbol; it is fully
/// overwritten.
pub fn package_merge_into(
    freqs: &[u64],
    max_len: u8,
    s: &mut PackageMergeScratch,
    lengths: &mut [u8],
) {
    assert!((1..=MAX_SUPPORTED_LEN).contains(&max_len));
    assert_eq!(lengths.len(), freqs.len(), "one length slot per symbol");
    lengths.fill(0);
    s.leaves.clear();
    s.leaves.extend(
        freqs
            .iter()
            .enumerate()
            .filter(|&(_, &f)| f > 0)
            .map(|(sym, &f)| (f, sym as u16)),
    );
    match s.leaves.len() {
        0 => return,
        1 => {
            lengths[s.leaves[0].1 as usize] = 1;
            return;
        }
        n => assert!(
            (n as u64) <= 1u64 << max_len,
            "{n} symbols cannot fit in {max_len}-bit codes"
        ),
    }
    s.leaves.sort_unstable();

    // Package-merge with packages stored in an arena as binary trees;
    // `level` runs from the deepest tree level up. After `max_len`
    // rounds, the cheapest 2·(n−1) packages tell us how often each
    // leaf is "used", which is exactly its code length. Arena nodes
    // make the merge O(n·L) instead of cloning symbol lists.
    s.arena.clear();
    s.singletons.clear();
    // Singleton packages, sorted by weight: (weight, arena index).
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
        // Both `next` (so far) and `singletons` are weight-sorted:
        // merge instead of re-sorting.
        let packaged = s.next.len();
        s.next.extend_from_slice(&s.singletons);
        merge_sorted_halves(&mut s.next, packaged, &mut s.merged);
        std::mem::swap(&mut s.current, &mut s.next);
    }

    // Count leaf occurrences in the cheapest 2(n−1) packages with an
    // explicit stack (package trees can be max_len deep).
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
}

/// Merge a slice whose `[..mid]` and `[mid..]` halves are each sorted
/// by weight into a single sorted order (stable; ties keep the
/// packaged-before-singleton order the algorithm expects). `merged` is
/// a reusable spill buffer; on return it holds the pre-merge contents.
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

/// Assign canonical code values to `lengths` (RFC 1951 §3.2.2 rules:
/// shorter codes first, ties broken by symbol order).
///
/// Returns the code value for each symbol, MSB-first. Symbols with
/// length 0 get code 0 (unused).
pub fn canonical_codes(lengths: &[u8]) -> Vec<u32> {
    let mut codes = Vec::new();
    canonical_codes_into(lengths, &mut codes);
    codes
}

/// [`canonical_codes`] writing into a caller-owned buffer. The per-length
/// bookkeeping lives in stack arrays, so a warm `codes` buffer makes the
/// whole assignment allocation-free.
pub fn canonical_codes_into(lengths: &[u8], codes: &mut Vec<u32>) {
    let max_len = lengths.iter().copied().max().unwrap_or(0);
    debug_assert!(max_len <= MAX_SUPPORTED_LEN);
    let mut len_count = [0u32; MAX_SUPPORTED_LEN as usize + 1];
    for &len in lengths {
        len_count[len as usize] += 1;
    }
    len_count[0] = 0;
    let mut next_code = [0u32; MAX_SUPPORTED_LEN as usize + 2];
    let mut code = 0u32;
    for len in 1..=max_len as usize {
        code = (code + len_count[len - 1]) << 1;
        next_code[len] = code;
    }
    codes.clear();
    codes.extend(lengths.iter().map(|&len| {
        if len == 0 {
            0
        } else {
            let c = next_code[len as usize];
            next_code[len as usize] += 1;
            c
        }
    }));
}

/// Reverse the low `len` bits of `code` (for LSB-first bit streams).
#[inline]
pub fn reverse_bits(code: u32, len: u8) -> u32 {
    code.reverse_bits() >> (32 - len as u32)
}

/// Encoding table: canonical codes plus their bit-reversed twins so the
/// hot path has no per-symbol reversal.
///
/// An encoder can be rebuilt in place ([`HuffmanEncoder::rebuild_from_freqs`],
/// [`HuffmanEncoder::rebuild_from_lengths`]): the internal tables are
/// reused, so rebuilding for a same-sized alphabet never allocates.
#[derive(Debug, Clone, Default)]
pub struct HuffmanEncoder {
    lengths: Vec<u8>,
    /// Canonical (MSB-first) code values.
    codes: Vec<u32>,
    /// Bit-reversed codes for LSB-first (DEFLATE) streams.
    rev_codes: Vec<u32>,
}

impl HuffmanEncoder {
    /// Build an encoder from per-symbol code lengths.
    pub fn from_lengths(lengths: &[u8]) -> Self {
        let mut enc = HuffmanEncoder::default();
        enc.rebuild_from_lengths(lengths);
        enc
    }

    /// Build optimal length-limited lengths from frequencies, then the
    /// encoder for them.
    pub fn from_freqs(freqs: &[u64], max_len: u8) -> Self {
        Self::from_lengths(&package_merge(freqs, max_len))
    }

    /// Replace this encoder's code with one built from `lengths`,
    /// reusing the internal tables.
    pub fn rebuild_from_lengths(&mut self, lengths: &[u8]) {
        self.lengths.clear();
        self.lengths.extend_from_slice(lengths);
        canonical_codes_into(&self.lengths, &mut self.codes);
        self.rev_codes.clear();
        self.rev_codes
            .extend(self.codes.iter().zip(&self.lengths).map(|(&c, &l)| {
                if l == 0 {
                    0
                } else {
                    reverse_bits(c, l)
                }
            }));
    }

    /// Replace this encoder's code with an optimal length-limited one
    /// for `freqs`, borrowing package-merge working memory from `pm`.
    pub fn rebuild_from_freqs(&mut self, freqs: &[u64], max_len: u8, pm: &mut PackageMergeScratch) {
        self.lengths.clear();
        self.lengths.resize(freqs.len(), 0);
        package_merge_into(freqs, max_len, pm, &mut self.lengths);
        canonical_codes_into(&self.lengths, &mut self.codes);
        self.rev_codes.clear();
        self.rev_codes
            .extend(self.codes.iter().zip(&self.lengths).map(|(&c, &l)| {
                if l == 0 {
                    0
                } else {
                    reverse_bits(c, l)
                }
            }));
    }

    /// Code length for `sym` (0 = unused symbol).
    #[inline]
    pub fn len(&self, sym: usize) -> u8 {
        self.lengths[sym]
    }

    /// Per-symbol code lengths.
    pub fn lengths(&self) -> &[u8] {
        &self.lengths
    }

    /// Canonical MSB-first code value for `sym`.
    #[inline]
    pub fn code(&self, sym: usize) -> u32 {
        self.codes[sym]
    }

    /// Emit `sym` into an LSB-first (DEFLATE) stream.
    #[inline]
    pub fn write_lsb(&self, w: &mut LsbBitWriter, sym: usize) {
        debug_assert!(self.lengths[sym] > 0, "symbol {sym} has no code");
        w.write_bits(self.rev_codes[sym], self.lengths[sym] as u32);
    }

    /// Bit-reversed (LSB-first) code and its length for `sym`, for
    /// callers that fuse the code with trailing extra bits into a single
    /// [`LsbBitWriter::write_bits`] call.
    #[inline]
    pub fn code_lsb(&self, sym: usize) -> (u32, u32) {
        debug_assert!(self.lengths[sym] > 0, "symbol {sym} has no code");
        (self.rev_codes[sym], self.lengths[sym] as u32)
    }

    /// Emit `sym` into an MSB-first (bzip2) stream.
    #[inline]
    pub fn write_msb(&self, w: &mut MsbBitWriter, sym: usize) {
        debug_assert!(self.lengths[sym] > 0, "symbol {sym} has no code");
        w.write_bits(self.codes[sym], self.lengths[sym] as u32);
    }

    /// Total encoded size in bits of a message with the given symbol
    /// frequencies — used for block-type cost comparisons.
    pub fn cost_bits(&self, freqs: &[u64]) -> u64 {
        freqs
            .iter()
            .zip(&self.lengths)
            .map(|(&f, &l)| f * l as u64)
            .sum()
    }
}

/// Reject an over-subscribed code (Kraft sum > 1), which would make two
/// codes ambiguous; `count[len]` is the number of codes of each length.
fn check_kraft(count: &[u32], max_len: u8) -> Result<(), CodecError> {
    // Sum of 2^(max-len) must not exceed 2^max.
    let kraft: u64 = (1..=max_len as usize)
        .map(|len| (count[len] as u64) << (max_len as usize - len))
        .sum();
    if max_len > 0 && kraft > 1u64 << max_len {
        return Err(CodecError::Corrupt("over-subscribed Huffman code"));
    }
    Ok(())
}

/// Canonical decoding tables (count/offset per length).
///
/// Decoding walks the code one bit at a time, comparing against the
/// first-code of each length. DEFLATE uses it for the small
/// code-length alphabet and to validate lengths; [`MsbDecoder`] uses it
/// for codes longer than its lookup window. [`HuffmanDecoder::rebuild`]
/// reuses the symbol table, so rebuilding never allocates once warm.
#[derive(Debug, Clone, Default)]
pub struct HuffmanDecoder {
    /// `first_code[len]` — canonical value of the first code of `len` bits.
    first_code: [u32; MAX_SUPPORTED_LEN as usize + 1],
    /// `first_index[len]` — index into `symbols` of that first code.
    first_index: [u32; MAX_SUPPORTED_LEN as usize + 1],
    /// Number of codes of each length.
    count: [u32; MAX_SUPPORTED_LEN as usize + 1],
    /// Symbols sorted by (length, symbol).
    symbols: Vec<u16>,
    max_len: u8,
}

impl HuffmanDecoder {
    /// Build a decoder from per-symbol code lengths.
    ///
    /// Rejects over-subscribed length sets (Kraft sum > 1), which could
    /// otherwise make two codes ambiguous. Incomplete sets are accepted
    /// (DEFLATE permits them for distance codes); reads that fall in the
    /// gap surface as [`CodecError::Corrupt`].
    pub fn from_lengths(lengths: &[u8]) -> Result<Self, CodecError> {
        let mut decoder = HuffmanDecoder::default();
        decoder.rebuild(lengths)?;
        Ok(decoder)
    }

    /// Replace this decoder's code with the one `lengths` describes
    /// (same validity rules as [`HuffmanDecoder::from_lengths`]). On
    /// error the decoder is left describing the empty code.
    pub fn rebuild(&mut self, lengths: &[u8]) -> Result<(), CodecError> {
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
        check_kraft(&self.count, max_len)?;

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

    #[inline]
    fn lookup(&self, code: u32, len: usize) -> Option<u16> {
        let offset = code.wrapping_sub(self.first_code[len]);
        if offset < self.count[len] {
            Some(self.symbols[(self.first_index[len] + offset) as usize])
        } else {
            None
        }
    }

    /// Decode one symbol from an LSB-first (DEFLATE) stream.
    #[inline]
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

/// Bits resolved by one probe of [`MsbDecoder`]'s lookup table.
pub const MSB_ROOT_BITS: u32 = 10;

/// Table-driven canonical Huffman decoder for MSB-first (bzip2-class)
/// streams. The next [`MSB_ROOT_BITS`] bits index a table that resolves
/// every code up to that length in one probe; the few longer codes (up
/// to [`MAX_SUPPORTED_LEN`]; the solver stops at 20) fall back to the
/// canonical first-code comparison, one length at a time.
///
/// Meant to be kept and rebuilt per table per block:
/// [`MsbDecoder::rebuild`] reuses both tables.
#[derive(Debug, Clone, Default)]
pub struct MsbDecoder {
    canonical: HuffmanDecoder,
    /// `symbol << 5 | length` for each window whose leading bits are a
    /// code of at most `MSB_ROOT_BITS`; 0 where the code is longer or
    /// the window falls in an incomplete code's gap.
    root: Vec<u16>,
}

impl MsbDecoder {
    /// Build a decoder from per-symbol code lengths; validity rules as
    /// for [`HuffmanDecoder::from_lengths`].
    pub fn from_lengths(lengths: &[u8]) -> Result<Self, CodecError> {
        let mut decoder = MsbDecoder::default();
        decoder.rebuild(lengths)?;
        Ok(decoder)
    }

    /// Replace this decoder's code with the one `lengths` describes.
    pub fn rebuild(&mut self, lengths: &[u8]) -> Result<(), CodecError> {
        assert!(lengths.len() <= 1 << 11, "symbols must fit 11 bits");
        self.root.clear();
        self.root.resize(1 << MSB_ROOT_BITS, 0);
        self.canonical.rebuild(lengths)?;
        let canonical = &self.canonical;
        // Canonical codes ascend in (length, symbol) order, which is
        // the order of `symbols`: the root table fills front to back.
        let mut slot = 0usize;
        for len in 1..=(canonical.max_len as usize).min(MSB_ROOT_BITS as usize) {
            let first = canonical.first_index[len] as usize;
            let span = 1usize << (MSB_ROOT_BITS as usize - len);
            for &sym in &canonical.symbols[first..first + canonical.count[len] as usize] {
                self.root[slot..slot + span].fill(sym << 5 | len as u16);
                slot += span;
            }
        }
        Ok(())
    }

    /// Decode one symbol. A window that matches no code is
    /// [`CodecError::Corrupt`]; a code that runs past the end of the
    /// stream is [`CodecError::UnexpectedEof`].
    #[inline]
    pub fn decode(&self, r: &mut MsbBitReader<'_>) -> Result<u16, CodecError> {
        let entry = self.root[r.peek_bits(MSB_ROOT_BITS) as usize];
        if entry != 0 {
            r.consume((entry & 31) as u32)?;
            return Ok(entry >> 5);
        }
        self.decode_long(r)
    }

    #[cold]
    fn decode_long(&self, r: &mut MsbBitReader<'_>) -> Result<u16, CodecError> {
        let max_len = self.canonical.max_len as u32;
        let window = r.peek_bits(max_len);
        for len in MSB_ROOT_BITS + 1..=max_len {
            if let Some(sym) = self
                .canonical
                .lookup(window >> (max_len - len), len as usize)
            {
                r.consume(len)?;
                return Ok(sym);
            }
        }
        Err(CodecError::Corrupt("invalid Huffman code"))
    }
}

/// Bits resolved by the primary lookup table of [`FastDecoder`].
pub const FAST_ROOT_BITS: u32 = 10;

/// Longest code [`FastDecoder`] accepts (DEFLATE's limit).
const FAST_MAX_LEN: u8 = 15;

/// One lookup-table slot of [`FastDecoder`], packed into one register:
/// bits 0–7 the bits the symbol takes with its extra bits, 8–15 its
/// code length (0 marks an unassigned slot of an incomplete code),
/// 16–31 the base its extra bits add to, 32–47 the symbol. An escape
/// slot (bit 63) holds the secondary table's index and width instead.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct FastEntry(u64);

impl FastEntry {
    const ESCAPE: u64 = 1 << 63;

    fn leaf(sym: usize, len: u8, (base, extra): (u16, u8)) -> Self {
        let taken = u64::from(len + extra);
        FastEntry((sym as u64) << 32 | u64::from(base) << 16 | u64::from(len) << 8 | taken)
    }

    fn escape(index: usize, sub_bits: u8) -> Self {
        FastEntry(Self::ESCAPE | (index as u64) << 32 | u64::from(sub_bits) << 8)
    }

    fn is_escape(self) -> bool {
        self.0 & Self::ESCAPE != 0
    }

    /// Code length; 0 for a window no code covers.
    #[inline(always)]
    pub(crate) fn len(self) -> u32 {
        (self.0 >> 8) as u8 as u32
    }

    /// Code length plus extra bits.
    #[inline(always)]
    pub(crate) fn taken(self) -> u32 {
        self.0 as u8 as u32
    }

    /// The decoded symbol.
    #[inline(always)]
    pub(crate) fn sym(self) -> usize {
        (self.0 >> 32) as u16 as usize
    }

    /// Base plus the extra bits that follow the code in `bits` (the
    /// window the entry was resolved from).
    #[inline(always)]
    pub(crate) fn value(self, bits: u64) -> usize {
        let base = (self.0 >> 16) as u16 as usize;
        base + ((bits & ((1 << self.taken()) - 1)) >> self.len()) as usize
    }
}

/// Table-driven canonical Huffman decoder for LSB-first (DEFLATE)
/// streams: one `2^10` primary lookup resolves codes up to 10 bits in a
/// single probe; longer codes (≤ 15 in DEFLATE) escape to per-prefix
/// secondary tables. This is the classic zlib `inflate` structure and
/// decodes several times faster than bit-at-a-time walking.
///
/// A decoder kept across blocks is rebuilt in place: once its secondary
/// table has grown to the largest code it has seen, rebuilding it does
/// not touch the allocator.
#[derive(Debug, Clone)]
pub struct FastDecoder {
    primary: [FastEntry; 1 << FAST_ROOT_BITS],
    secondary: Vec<FastEntry>,
}

impl Default for FastDecoder {
    /// The empty code: every window is unassigned.
    fn default() -> Self {
        FastDecoder {
            primary: [FastEntry::default(); 1 << FAST_ROOT_BITS],
            secondary: Vec::new(),
        }
    }
}

impl FastDecoder {
    /// Build from per-symbol code lengths (max length ≤ 15).
    ///
    /// Same validity rules as [`HuffmanDecoder::from_lengths`]:
    /// over-subscribed sets are rejected, incomplete sets decode to
    /// [`CodecError::Corrupt`] when a gap is hit.
    pub fn from_lengths(lengths: &[u8]) -> Result<Self, CodecError> {
        let mut decoder = FastDecoder::default();
        decoder.rebuild(lengths, |_| (0, 0))?;
        Ok(decoder)
    }

    /// Replace this decoder's code with the one `lengths` describes
    /// (same validity rules as [`FastDecoder::from_lengths`]), reusing
    /// both tables; `value(sym)` is the `(base, extra bits)` pair stored
    /// beside each symbol. On error the tables are unspecified; rebuild
    /// before the next decode.
    pub(crate) fn rebuild(
        &mut self,
        lengths: &[u8],
        value: impl Fn(usize) -> (u16, u8),
    ) -> Result<(), CodecError> {
        let max_len = lengths.iter().copied().max().unwrap_or(0);
        if max_len > FAST_MAX_LEN {
            return Err(CodecError::Corrupt("fast decoder supports ≤ 15-bit codes"));
        }
        let mut count = [0u32; FAST_MAX_LEN as usize + 1];
        for &len in lengths {
            count[len as usize] += 1;
        }
        count[0] = 0;
        check_kraft(&count, max_len)?;
        let mut first_code = [0u32; FAST_MAX_LEN as usize + 1];
        let mut code = 0u32;
        for len in 1..=max_len as usize {
            code = (code + count[len - 1]) << 1;
            first_code[len] = code;
        }
        // Canonical codes are handed out in symbol order, so each pass
        // below re-derives them from a copy of `first_code`.
        let codes = || {
            let mut next = first_code;
            lengths.iter().map(move |&len| {
                if len == 0 {
                    return (0, 0);
                }
                let code = next[len as usize];
                next[len as usize] += 1;
                (len, reverse_bits(code, len) as usize)
            })
        };

        // Short codes fill every primary slot whose low `len` bits match
        // the bit-reversed code; long codes only record, per root-window
        // prefix, how many bits past the window their group needs.
        self.primary.fill(FastEntry::default());
        let root_mask = (1usize << FAST_ROOT_BITS) - 1;
        let mut sub_bits = [0u8; 1 << FAST_ROOT_BITS];
        for (sym, (len, rev)) in codes().enumerate() {
            if len == 0 {
                continue;
            } else if len as u32 <= FAST_ROOT_BITS {
                let entry = FastEntry::leaf(sym, len, value(sym));
                for slot in self.primary.iter_mut().skip(rev).step_by(1 << len) {
                    *slot = entry;
                }
            } else {
                let group = &mut sub_bits[rev & root_mask];
                *group = (*group).max(len - FAST_ROOT_BITS as u8);
            }
        }

        // One secondary table per prefix, in prefix order.
        self.secondary.clear();
        for (prefix, &bits) in sub_bits.iter().enumerate() {
            if bits > 0 {
                self.primary[prefix] = FastEntry::escape(self.secondary.len(), bits);
                let size = self.secondary.len() + (1 << bits);
                self.secondary.resize(size, FastEntry::default());
            }
        }
        for (sym, (len, rev)) in codes().enumerate() {
            if (len as u32) <= FAST_ROOT_BITS {
                continue;
            }
            let group = self.primary[rev & root_mask];
            let entry = FastEntry::leaf(sym, len, value(sym));
            let table = &mut self.secondary[group.sym()..][..1 << group.len()];
            let high = rev >> FAST_ROOT_BITS; // bits after the root window
            for slot in table
                .iter_mut()
                .skip(high)
                .step_by(1 << (len as u32 - FAST_ROOT_BITS))
            {
                *slot = entry;
            }
        }
        Ok(())
    }

    /// The entry for the code at the front of `bits` (stream order,
    /// first bit in the LSB; at least 15 bits must be real stream
    /// bits). An entry of length 0 is a window no code covers.
    #[inline(always)]
    pub(crate) fn resolve(&self, bits: u64) -> FastEntry {
        let entry = self.primary[bits as usize & ((1 << FAST_ROOT_BITS) - 1)];
        if !entry.is_escape() {
            return entry;
        }
        let high = (bits >> FAST_ROOT_BITS) as usize & ((1 << entry.len()) - 1);
        self.secondary[entry.sym() + high]
    }

    /// Decode one symbol from an LSB-first stream.
    #[inline]
    pub fn decode_lsb(&self, r: &mut LsbBitReader<'_>) -> Result<u16, CodecError> {
        let window = r.peek_bits(FAST_ROOT_BITS) as usize;
        let entry = self.primary[window];
        if !entry.is_escape() {
            if entry.len() == 0 {
                // Unassigned slot: either an incomplete-code gap or a
                // truncated stream (peek zero-fills past the end).
                return Err(CodecError::Corrupt("invalid Huffman code"));
            }
            r.consume(entry.len())?;
            return Ok(entry.sym() as u16);
        }
        let sub_bits = entry.len();
        let long = r.peek_bits(FAST_ROOT_BITS + sub_bits) as usize;
        let sub = self.secondary[entry.sym() + (long >> FAST_ROOT_BITS)];
        if sub.len() == 0 {
            return Err(CodecError::Corrupt("invalid Huffman code"));
        }
        r.consume(sub.len())?;
        Ok(sub.sym() as u16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kraft_sum(lengths: &[u8]) -> f64 {
        lengths
            .iter()
            .filter(|&&l| l > 0)
            .map(|&l| 0.5f64.powi(l as i32))
            .sum()
    }

    #[test]
    fn package_merge_handles_trivial_alphabets() {
        assert_eq!(package_merge(&[], 15), Vec::<u8>::new());
        assert_eq!(package_merge(&[0, 0, 0], 15), vec![0, 0, 0]);
        assert_eq!(package_merge(&[0, 7, 0], 15), vec![0, 1, 0]);
        // Two symbols: one bit each regardless of skew.
        assert_eq!(package_merge(&[1, 1000], 15), vec![1, 1]);
    }

    #[test]
    fn package_merge_matches_unlimited_huffman_on_balanced_input() {
        // Uniform frequencies over a power-of-two alphabet: all lengths
        // equal log2(n).
        let lens = package_merge(&[5; 8], 15);
        assert!(lens.iter().all(|&l| l == 3));
    }

    #[test]
    fn package_merge_respects_length_limit() {
        // Fibonacci-ish frequencies force deep trees without a limit.
        let freqs: Vec<u64> = vec![1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377];
        for limit in [4u8, 5, 8, 15] {
            let lens = package_merge(&freqs, limit);
            assert!(lens.iter().all(|&l| l <= limit), "limit {limit}: {lens:?}");
            let k = kraft_sum(&lens);
            assert!(k <= 1.0 + 1e-12, "limit {limit}: Kraft sum {k}");
        }
    }

    #[test]
    fn package_merge_is_optimal_against_entropy() {
        // The weighted length must be within 1 bit/symbol of entropy
        // when the limit is generous (standard Huffman bound).
        let freqs: Vec<u64> = (1..=64).map(|i| i * i).collect();
        let total: u64 = freqs.iter().sum();
        let lens = package_merge(&freqs, 15);
        let avg_len: f64 = freqs
            .iter()
            .zip(&lens)
            .map(|(&f, &l)| f as f64 * l as f64)
            .sum::<f64>()
            / total as f64;
        let entropy: f64 = freqs
            .iter()
            .map(|&f| {
                let p = f as f64 / total as f64;
                -p * p.log2()
            })
            .sum();
        assert!(avg_len >= entropy - 1e-9);
        assert!(avg_len < entropy + 1.0);
    }

    #[test]
    #[should_panic(expected = "cannot fit")]
    fn package_merge_rejects_impossible_limits() {
        package_merge(&[1; 9], 3);
    }

    #[test]
    fn rebuilt_encoder_matches_fresh_build_across_scratch_reuse() {
        // One scratch and one encoder carried across differently-shaped
        // alphabets must produce the same tables as fresh builds.
        let mut pm = PackageMergeScratch::new();
        let mut enc = HuffmanEncoder::default();
        let freq_sets: Vec<Vec<u64>> = vec![
            (0..64u64).map(|i| 1 + (i * 37) % 101).collect(),
            vec![0; 300],
            (0..286u64).map(|i| i % 5).collect(),
            vec![0, 42, 0],
            vec![1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144],
        ];
        for freqs in &freq_sets {
            enc.rebuild_from_freqs(freqs, 15, &mut pm);
            let fresh = HuffmanEncoder::from_freqs(freqs, 15);
            assert_eq!(enc.lengths(), fresh.lengths(), "freqs {freqs:?}");
            for sym in 0..freqs.len() {
                assert_eq!(enc.code(sym), fresh.code(sym), "sym {sym}");
            }
        }
    }

    #[test]
    fn canonical_codes_follow_rfc1951_example() {
        // RFC 1951 §3.2.2 worked example: lengths (3,3,3,3,3,2,4,4)
        // produce codes 010..111, 00, 1110, 1111.
        let lengths = [3u8, 3, 3, 3, 3, 2, 4, 4];
        let codes = canonical_codes(&lengths);
        assert_eq!(
            codes,
            vec![0b010, 0b011, 0b100, 0b101, 0b110, 0b00, 0b1110, 0b1111]
        );
    }

    #[test]
    fn reverse_bits_matches_manual_reversal() {
        assert_eq!(reverse_bits(0b110, 3), 0b011);
        assert_eq!(reverse_bits(0b1, 1), 0b1);
        assert_eq!(reverse_bits(0b10000000, 8), 0b00000001);
    }

    #[test]
    fn encode_decode_round_trip_lsb_and_msb() {
        let freqs: Vec<u64> = (0..64u64).map(|i| 1 + (i * 37) % 101).collect();
        let enc = HuffmanEncoder::from_freqs(&freqs, 15);
        let dec = HuffmanDecoder::from_lengths(enc.lengths()).unwrap();
        let msb = MsbDecoder::from_lengths(enc.lengths()).unwrap();

        let message: Vec<usize> = (0..4096).map(|i| (i * 17 + i / 7) % 64).collect();

        let mut lw = LsbBitWriter::new();
        let mut mw = MsbBitWriter::new();
        for &sym in &message {
            enc.write_lsb(&mut lw, sym);
            enc.write_msb(&mut mw, sym);
        }
        let lbytes = lw.finish();
        let mbytes = mw.finish();

        let mut lr = LsbBitReader::new(&lbytes);
        let mut mr = MsbBitReader::new(&mbytes);
        for &sym in &message {
            assert_eq!(dec.decode_lsb(&mut lr).unwrap() as usize, sym);
            assert_eq!(msb.decode(&mut mr).unwrap() as usize, sym);
        }
    }

    #[test]
    fn msb_decoder_resolves_codes_on_both_sides_of_the_root_window() {
        // The solver's alphabet and length limit, skewed until codes
        // reach well past the 10-bit window.
        let freqs: Vec<u64> = (0..258u64).map(|i| 1 + (1 << (i % 20))).collect();
        let enc = HuffmanEncoder::from_freqs(&freqs, 20);
        assert!(enc.lengths().iter().any(|&l| l > 15));
        assert!(enc.lengths().iter().any(|&l| (1..=10).contains(&l)));
        // One kept decoder, rebuilt over a different code first.
        let mut dec = MsbDecoder::from_lengths(&[1, 1]).unwrap();
        dec.rebuild(enc.lengths()).unwrap();

        let message: Vec<usize> = (0..20_000).map(|i| (i * 131 + i / 3) % 258).collect();
        let mut w = MsbBitWriter::new();
        for &sym in &message {
            enc.write_msb(&mut w, sym);
        }
        let bytes = w.finish();
        let mut r = MsbBitReader::new(&bytes);
        for &sym in &message {
            assert_eq!(dec.decode(&mut r).unwrap() as usize, sym);
        }
    }

    #[test]
    fn msb_decoder_rejects_truncation_gaps_and_bad_lengths() {
        let enc = HuffmanEncoder::from_freqs(&[5u64, 3, 2, 1, 1], 20);
        let dec = MsbDecoder::from_lengths(enc.lengths()).unwrap();
        assert!(dec.decode(&mut MsbBitReader::new(&[])).is_err());

        // A 12-bit code cut after its first byte: the zero-filled
        // window may match, the consume must not.
        let mut lengths = vec![1u8, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 12];
        let dec = MsbDecoder::from_lengths(&lengths).unwrap();
        assert_eq!(
            dec.decode(&mut MsbBitReader::new(&[0xFF])),
            Err(CodecError::UnexpectedEof)
        );
        assert_eq!(dec.decode(&mut MsbBitReader::new(&[0xFF, 0xF0])), Ok(12));

        // Incomplete code: a single 2-bit code leaves gaps.
        let dec = MsbDecoder::from_lengths(&[2]).unwrap();
        assert_eq!(
            dec.decode(&mut MsbBitReader::new(&[0xC0])),
            Err(CodecError::Corrupt("invalid Huffman code"))
        );
        // ...also beyond the root window.
        let dec = MsbDecoder::from_lengths(&[12]).unwrap();
        assert!(dec.decode(&mut MsbBitReader::new(&[0xFF, 0xFF])).is_err());
        assert_eq!(dec.decode(&mut MsbBitReader::new(&[0x00, 0x00])), Ok(0));

        lengths[0] = 1;
        lengths[1] = 1;
        lengths[2] = 1;
        assert!(MsbDecoder::from_lengths(&lengths).is_err());
        assert!(MsbDecoder::from_lengths(&[25]).is_err());
    }

    #[test]
    fn decoder_rejects_oversubscribed_lengths() {
        // Three 1-bit codes cannot coexist.
        assert!(HuffmanDecoder::from_lengths(&[1, 1, 1]).is_err());
    }

    #[test]
    fn decoder_accepts_incomplete_code_but_flags_gap() {
        // Single 2-bit code: valid (DEFLATE allows it for distances),
        // but a read hitting the unassigned space must error.
        let dec = HuffmanDecoder::from_lengths(&[2]).unwrap();
        let mut w = LsbBitWriter::new();
        w.write_bits(0b11, 2); // canonical code for the symbol is 00
        w.write_bits(0, 6);
        let bytes = w.finish();
        let mut r = LsbBitReader::new(&bytes);
        assert!(dec.decode_lsb(&mut r).is_err());
    }

    #[test]
    fn cost_bits_matches_sum_of_lengths() {
        let freqs = [10u64, 1, 0, 5];
        let enc = HuffmanEncoder::from_freqs(&freqs, 15);
        let expected: u64 = freqs
            .iter()
            .enumerate()
            .map(|(s, &f)| f * enc.len(s) as u64)
            .sum();
        assert_eq!(enc.cost_bits(&freqs), expected);
    }

    #[test]
    fn fast_decoder_matches_slow_decoder() {
        // Skewed frequencies over a large alphabet force code lengths
        // on both sides of the 10-bit root window.
        let freqs: Vec<u64> = (0..286u64).map(|i| 1 + (1 << (i % 14))).collect();
        let enc = HuffmanEncoder::from_freqs(&freqs, 15);
        assert!(
            enc.lengths().iter().any(|&l| l > 10),
            "need long codes to exercise the secondary tables"
        );
        assert!(enc.lengths().iter().any(|&l| (1..=10).contains(&l)));
        let slow = HuffmanDecoder::from_lengths(enc.lengths()).unwrap();
        let fast = FastDecoder::from_lengths(enc.lengths()).unwrap();

        let message: Vec<usize> = (0..20_000).map(|i| (i * 131 + i / 3) % 286).collect();
        let mut w = LsbBitWriter::new();
        for &sym in &message {
            enc.write_lsb(&mut w, sym);
        }
        let bytes = w.finish();

        let mut r1 = LsbBitReader::new(&bytes);
        let mut r2 = LsbBitReader::new(&bytes);
        for &sym in &message {
            assert_eq!(slow.decode_lsb(&mut r1).unwrap() as usize, sym);
            assert_eq!(fast.decode_lsb(&mut r2).unwrap() as usize, sym);
        }
    }

    #[test]
    fn fast_decoder_rejects_truncation_and_gaps() {
        let enc = HuffmanEncoder::from_freqs(&[5u64, 3, 2, 1, 1], 15);
        let fast = FastDecoder::from_lengths(enc.lengths()).unwrap();
        // Empty stream: the peek zero-fills, consume must fail (or the
        // zero pattern is an unassigned slot).
        let mut r = LsbBitReader::new(&[]);
        assert!(fast.decode_lsb(&mut r).is_err());

        // Incomplete code: single 2-bit code leaves gaps.
        let fast = FastDecoder::from_lengths(&[2]).unwrap();
        let mut w = LsbBitWriter::new();
        w.write_bits(0b11, 2);
        w.write_bits(0, 6);
        let bytes = w.finish();
        let mut r = LsbBitReader::new(&bytes);
        assert!(fast.decode_lsb(&mut r).is_err());
    }

    #[test]
    fn fast_decoder_rejects_unsupported_lengths() {
        // A 16-bit code is fine for the generic decoder but outside the
        // fast decoder's supported range.
        let mut lengths = vec![1u8];
        lengths.push(16);
        assert!(FastDecoder::from_lengths(&lengths).is_err());
        assert!(HuffmanDecoder::from_lengths(&lengths).is_ok());
    }

    #[test]
    fn single_symbol_alphabet_round_trips() {
        let enc = HuffmanEncoder::from_freqs(&[0, 42, 0], 15);
        assert_eq!(enc.len(1), 1);
        let dec = MsbDecoder::from_lengths(enc.lengths()).unwrap();
        let mut w = MsbBitWriter::new();
        for _ in 0..17 {
            enc.write_msb(&mut w, 1);
        }
        let bytes = w.finish();
        let mut r = MsbBitReader::new(&bytes);
        for _ in 0..17 {
            assert_eq!(dec.decode(&mut r).unwrap(), 1);
        }
    }
}
