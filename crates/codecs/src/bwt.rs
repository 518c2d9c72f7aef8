//! The bzip2-class solver: RLE1 → BWT → MTF → zero-run RLE → Huffman.
//!
//! This is the reproduction's stand-in for the paper's "bzlib2". It
//! follows the same block-oriented architecture as bzip2: the input is
//! split into blocks (size set by [`CompressionLevel`]), each block is
//! run-length preconditioned, Burrows–Wheeler transformed (via the
//! linear-time SA-IS suffix array in [`crate::suffix`]), move-to-front
//! and zero-run coded in one pass ([`crate::mtf`]), and entropy coded
//! with up to six canonical Huffman tables chosen per 50-symbol group.
//!
//! Differences from the bzip2 file format (this codec defines its own
//! container; interoperability is not a goal): the BWT uses an explicit
//! sentinel instead of a stored rotation index, and the integrity
//! checksum is Adler-32 over the whole payload.
//!
//! Every buffer a block needs lives in [`BwtScratch`], the solver's
//! compartment of [`CodecScratch`]. The kernels may change; the stream
//! may not (`tests/bwt_byte_identity.rs`).

use crate::bitio::{MsbBitReader, MsbBitWriter};
use crate::codec::{Codec, CodecError, CodecId, CodecScratch, CompressionLevel};
use crate::deflate::adler32;
use crate::huffman::{HuffmanEncoder, MsbDecoder, PackageMergeScratch};
use crate::mtf::{mtf_zrle_decode, mtf_zrle_encode};
use crate::rle::{rle1_decode_into, rle1_encode_into};
use crate::suffix::{suffix_array_bytes, suffix_array_into, SuffixScratch};

/// BWT alphabet: 256 byte values (shifted +1) plus the sentinel 0.
pub(crate) const BWT_ALPHA: usize = 257;
/// Entropy alphabet: RUNA, RUNB, then MTF ranks 1..=256 shifted by one.
const ENTROPY_ALPHA: usize = 258;
/// Maximum Huffman code length for the entropy stage.
const MAX_CODE_LEN: u8 = 20;
/// Bits used to store each code length in the block header.
const LEN_FIELD_BITS: u32 = 5;

/// The last-column symbol of the sorted-rotation row that starts at
/// `pos`: the symbol before it, or the sentinel before position 0.
#[inline(always)]
fn last_column(text: &[u8], pos: u32) -> u16 {
    match pos {
        0 => 0,
        _ => text[pos as usize - 1] as u16 + 1,
    }
}

/// Burrows–Wheeler transform of `data`.
///
/// Returns the last column of the sorted rotations of `data + sentinel`,
/// as symbols over the 257-value `BWT_ALPHA` alphabet (byte `b` appears
/// as `b + 1`; the sentinel 0 appears exactly once). Output length is
/// `data.len() + 1`.
///
/// # Example
///
/// ```
/// use isobar_codecs::bwt::{bwt_forward, bwt_inverse};
///
/// let bwt = bwt_forward(b"banana");
/// // Rendered with '$' for the sentinel: the classic "annb$aa".
/// let rendered: String = bwt
///     .iter()
///     .map(|&s| if s == 0 { '$' } else { (s - 1) as u8 as char })
///     .collect();
/// assert_eq!(rendered, "annb$aa");
/// assert_eq!(bwt_inverse(&bwt).unwrap(), b"banana");
/// ```
pub fn bwt_forward(data: &[u8]) -> Vec<u16> {
    suffix_array_bytes(data)
        .iter()
        .map(|&pos| last_column(data, pos))
        .collect()
}

/// Longest last column the inverse transform takes: the LF-mapping
/// shares a `u32` with the row's byte, which leaves it 24 bits. The
/// codec's own blocks ([`MAX_RLE1_LEN`] + 1 rows) are far below it.
const MAX_COLUMN_LEN: usize = 1 << 24;

/// A BWT last column being loaded for inversion: one `u32` per row —
/// the row's byte while loading, `lf << 8 | byte` once
/// [`Column::invert_into`] has indexed it — beside the byte histogram
/// and the sentinel's row. Loading and walking one array instead of a
/// symbol array plus an LF array halves the cache lines the
/// latency-bound walk touches.
struct Column<'a> {
    rows: &'a mut [u32],
    filled: usize,
    counts: [u32; 256],
    sentinels: usize,
    sentinel_row: usize,
}

impl<'a> Column<'a> {
    fn new(rows: &'a mut [u32]) -> Self {
        assert!(rows.len() <= MAX_COLUMN_LEN, "LF mapping needs 24 bits");
        Column {
            rows,
            filled: 0,
            counts: [0; 256],
            sentinels: 0,
            sentinel_row: 0,
        }
    }

    /// Append `repeat` rows holding `symbol` (`< BWT_ALPHA`); the
    /// caller keeps the total within `rows.len()`.
    #[inline]
    fn push(&mut self, symbol: u16, repeat: usize) {
        let rows = &mut self.rows[self.filled..self.filled + repeat];
        match symbol.checked_sub(1) {
            Some(byte) => {
                rows.fill(byte as u32);
                self.counts[byte as usize] += repeat as u32;
            }
            None => {
                self.sentinel_row = self.filled;
                self.sentinels += repeat;
            }
        }
        self.filled += repeat;
    }

    /// Invert the fully loaded column into `out` (one byte per row
    /// except the sentinel's).
    fn invert_into(self, out: &mut [u8]) -> Result<(), CodecError> {
        debug_assert_eq!(self.filled, self.rows.len());
        debug_assert_eq!(out.len() + 1, self.rows.len());
        if self.sentinels != 1 {
            return Err(CodecError::Corrupt("BWT block must contain one sentinel"));
        }
        // LF mapping: a row's rank among the rows sharing its byte,
        // offset by where that byte starts in the sorted first column.
        // The sentinel sorts first and maps to row 0.
        let mut next = [0u32; 256];
        let mut sum = 1u32;
        for (slot, &count) in next.iter_mut().zip(&self.counts) {
            *slot = sum;
            sum += count;
        }
        let (before, rest) = self.rows.split_at_mut(self.sentinel_row);
        rest[0] = 0;
        for row in before.iter_mut().chain(&mut rest[1..]) {
            let slot = &mut next[*row as usize];
            *row |= *slot << 8;
            *slot += 1;
        }

        // Walk from row 0 (the sentinel's rotation); each step
        // prepends one byte. A single sentinel does not guarantee a
        // single cycle: a crafted last column can close the walk
        // early and revisit the sentinel's row.
        let mut row = 0usize;
        for slot in out.iter_mut().rev() {
            if row == self.sentinel_row {
                return Err(CodecError::Corrupt("BWT sentinel encountered mid-walk"));
            }
            let entry = self.rows[row];
            *slot = entry as u8;
            row = (entry >> 8) as usize;
        }
        if row != self.sentinel_row {
            return Err(CodecError::Corrupt("BWT walk did not close its cycle"));
        }
        Ok(())
    }
}

/// Inverse BWT: recover the original bytes from the last column.
///
/// Validates that the input contains exactly one sentinel and no symbol
/// outside the alphabet, and that its LF walk is a single cycle. Columns
/// longer than 2²⁴ rows are rejected (no block of the codec comes near).
pub fn bwt_inverse(bwt: &[u16]) -> Result<Vec<u8>, CodecError> {
    if bwt.is_empty() {
        return Err(CodecError::Corrupt("empty BWT block"));
    }
    if bwt.len() > MAX_COLUMN_LEN {
        return Err(CodecError::Corrupt("BWT block exceeds format maximum"));
    }
    let mut rows = vec![0u32; bwt.len()];
    let mut column = Column::new(&mut rows);
    for &sym in bwt {
        if sym as usize >= BWT_ALPHA {
            return Err(CodecError::Corrupt("BWT symbol outside alphabet"));
        }
        column.push(sym, 1);
    }
    let mut out = vec![0u8; bwt.len() - 1];
    column.invert_into(&mut out)?;
    Ok(out)
}

/// The solver's compartment of [`CodecScratch`]: every buffer a block
/// needs in either direction, so warm `compress_into` /
/// `decompress_into` calls do not allocate. The two directions share
/// what they can (a block's suffix array and its inverse-BWT rows are
/// the same `n + 1` words), which keeps the compartment at what one
/// block's temporaries used to peak at.
#[derive(Default)]
pub struct BwtScratch {
    /// The current block after RLE1 (the BWT's text).
    rle1: Vec<u8>,
    /// Compress: the text's suffix array. Decompress: the last column
    /// as [`Column`] rows.
    rows: Vec<u32>,
    suffix: SuffixScratch,
    /// The block's entropy-stage symbols (zero-run coded MTF ranks).
    symbols: Vec<u16>,
    /// Huffman table chosen for each [`GROUP_SIZE`]-symbol group.
    selectors: Vec<u8>,
    tables: TableScratch,
    decoders: [MsbDecoder; MAX_TABLES],
}

/// The bzip2-class block codec.
#[derive(Debug, Clone, Copy, Default)]
pub struct Bzip2Like {
    level: CompressionLevel,
}

impl Bzip2Like {
    /// Create the codec at the given effort level.
    pub fn new(level: CompressionLevel) -> Self {
        Bzip2Like { level }
    }

    /// The configured effort level.
    pub fn level(&self) -> CompressionLevel {
        self.level
    }

    /// Block size in bytes (bzip2 trades memory and speed for ratio the
    /// same way: 100k–900k by level).
    pub fn block_size(&self) -> usize {
        match self.level {
            CompressionLevel::Fast => 128 * 1024,
            CompressionLevel::Default => 512 * 1024,
            CompressionLevel::Best => MAX_BLOCK_LEN,
        }
    }
}

impl Codec for Bzip2Like {
    fn id(&self) -> CodecId {
        CodecId::Bzip2Like
    }

    fn compress(&self, data: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        self.compress_into(data, &mut out, &mut CodecScratch::new());
        out
    }

    fn compress_into(&self, data: &[u8], out: &mut Vec<u8>, scratch: &mut CodecScratch) {
        out.clear();
        let mut w = MsbBitWriter::with_prefix(std::mem::take(out));
        let num_blocks = data.len().div_ceil(self.block_size());
        w.write_bits(num_blocks as u32, 32);
        for block in data.chunks(self.block_size()) {
            encode_block(&mut w, block, &mut scratch.bwt);
        }
        w.write_bits(adler32(data), 32);
        *out = w.finish();
    }

    fn decompress(&self, data: &[u8]) -> Result<Vec<u8>, CodecError> {
        let mut out = Vec::new();
        self.decompress_into(data, &mut out, &mut CodecScratch::new())?;
        Ok(out)
    }

    fn decompress_into(
        &self,
        data: &[u8],
        out: &mut Vec<u8>,
        scratch: &mut CodecScratch,
    ) -> Result<(), CodecError> {
        let mut r = MsbBitReader::new(data);
        let num_blocks = r.read_bits(32)? as usize;
        // Sanity bound: each block encodes at least a few bits.
        if num_blocks > data.len().saturating_mul(8) + 1 {
            return Err(CodecError::Corrupt("implausible block count"));
        }
        out.clear();
        for _ in 0..num_blocks {
            decode_block(&mut r, out, &mut scratch.bwt)?;
        }
        let expected = r.read_bits(32)?;
        let actual = adler32(out);
        if expected != actual {
            return Err(CodecError::ChecksumMismatch { expected, actual });
        }
        Ok(())
    }
}

/// Symbols per selector group (bzip2's constant).
const GROUP_SIZE: usize = 50;
/// Maximum number of Huffman tables per block (bzip2's constant).
const MAX_TABLES: usize = 6;
/// Refinement passes when assigning groups to tables.
const TABLE_PASSES: usize = 4;
/// Width of one table's lane in a packed cost word: a group's cost
/// under one table is at most `GROUP_SIZE × MAX_CODE_LEN` = 1000 bits,
/// and `MAX_TABLES` lanes fit a `u64`.
const COST_LANE_BITS: u32 = 10;
const COST_LANE_MASK: u64 = (1 << COST_LANE_BITS) - 1;
const _: () = assert!((GROUP_SIZE * MAX_CODE_LEN as usize) as u64 <= COST_LANE_MASK);
const _: () = assert!(MAX_TABLES as u32 * COST_LANE_BITS <= 64);

/// bzip2's table-count schedule by symbol count.
fn num_tables_for(n_syms: usize) -> usize {
    match n_syms {
        0..=199 => 2,
        200..=599 => 3,
        600..=1199 => 4,
        1200..=2399 => 5,
        _ => MAX_TABLES,
    }
}

/// [`build_tables`]' result — the first `n_tables` encoders — and the
/// package-merge lists it rebuilds them on.
#[derive(Default)]
struct TableScratch {
    encoders: [HuffmanEncoder; MAX_TABLES],
    pm: PackageMergeScratch,
}

/// Assign each 50-symbol group to one of `n_tables` Huffman tables and
/// build the tables, bzip2-style: start from a round-robin assignment,
/// then alternate "rebuild tables from their groups" and "reassign each
/// group to its cheapest table" for a few passes.
///
/// A group is priced under all tables at once: each symbol's code
/// lengths under the tables sit in one `u64`, a [`COST_LANE_BITS`] lane
/// per table (table 0 lowest), so summing those words adds every lane
/// in one add per symbol.
fn build_tables(symbols: &[u16], n_tables: usize, t: &mut TableScratch, selectors: &mut Vec<u8>) {
    let count = |freqs: &mut [u64; ENTROPY_ALPHA], group: &[u16]| {
        for &sym in group {
            freqs[sym as usize] += 1;
        }
    };
    selectors.clear();
    selectors.extend((0..symbols.len().div_ceil(GROUP_SIZE)).map(|g| (g % n_tables) as u8));
    // The +1 floor guarantees every symbol has a code in every table,
    // so any later reassignment stays encodable.
    let mut freqs = [[1u64; ENTROPY_ALPHA]; MAX_TABLES];
    for (group, &sel) in symbols.chunks(GROUP_SIZE).zip(selectors.iter()) {
        count(&mut freqs[sel as usize], group);
    }
    let encoders = &mut t.encoders[..n_tables];
    for pass in 1..=TABLE_PASSES {
        for (enc, freqs) in encoders.iter_mut().zip(&freqs) {
            enc.rebuild_from_freqs(freqs, MAX_CODE_LEN, &mut t.pm);
        }
        let packed_lens: [u64; ENTROPY_ALPHA] = std::array::from_fn(|sym| {
            encoders.iter().rev().fold(0, |lanes, enc| {
                lanes << COST_LANE_BITS | enc.len(sym) as u64
            })
        });

        // Reassign each group to the cheapest table (the first, on a
        // tie), counting the next pass's frequencies on the way.
        freqs = [[1; ENTROPY_ALPHA]; MAX_TABLES];
        for (group, sel) in symbols.chunks(GROUP_SIZE).zip(selectors.iter_mut()) {
            let lanes: u64 = group.iter().map(|&s| packed_lens[s as usize]).sum();
            let cost = |table: usize| lanes >> (table as u32 * COST_LANE_BITS) & COST_LANE_MASK;
            let best = (1..n_tables).fold(0, |best, table| {
                if cost(table) < cost(best) {
                    table
                } else {
                    best
                }
            });
            *sel = best as u8;
            if pass < TABLE_PASSES {
                count(&mut freqs[best], group);
            }
        }
    }
}

/// Serialize one table's code lengths with bzip2's delta scheme: a
/// 5-bit starting length, then per symbol `10` (increment), `11`
/// (decrement), `0` (emit current and advance). Adjacent symbols have
/// similar lengths, so this averages ~1–2 bits/symbol versus 5 for
/// fixed fields.
fn write_delta_lengths(w: &mut MsbBitWriter, enc: &HuffmanEncoder) {
    let mut cur = enc.len(0) as i32;
    w.write_bits(cur as u32, LEN_FIELD_BITS);
    for sym in 0..ENTROPY_ALPHA {
        let len = enc.len(sym) as i32;
        while cur != len {
            w.write_bits(1, 1);
            if len > cur {
                w.write_bits(0, 1);
                cur += 1;
            } else {
                w.write_bits(1, 1);
                cur -= 1;
            }
        }
        w.write_bits(0, 1);
    }
}

/// Inverse of [`write_delta_lengths`].
fn read_delta_lengths(r: &mut MsbBitReader<'_>) -> Result<[u8; ENTROPY_ALPHA], CodecError> {
    let mut cur = r.read_bits(LEN_FIELD_BITS)? as i32;
    let mut lengths = [0u8; ENTROPY_ALPHA];
    for len in lengths.iter_mut() {
        loop {
            if r.read_bit()? == 0 {
                break;
            }
            if r.read_bit()? == 0 {
                cur += 1;
            } else {
                cur -= 1;
            }
            if !(1..=MAX_CODE_LEN as i32).contains(&cur) {
                return Err(CodecError::Corrupt("delta-coded length out of range"));
            }
        }
        if !(1..=MAX_CODE_LEN as i32).contains(&cur) {
            return Err(CodecError::Corrupt("delta-coded length out of range"));
        }
        *len = cur as u8;
    }
    Ok(lengths)
}

fn encode_block(w: &mut MsbBitWriter, block: &[u8], s: &mut BwtScratch) {
    // Size the per-row buffers for the worst RLE1 expansion of a block
    // this long, not for what this block happens to need: same-sized
    // blocks then never regrow them, whatever their content.
    let max_rows = block.len() + block.len() / 4 + 2;
    reserve_total(&mut s.rows, max_rows);
    reserve_total(&mut s.symbols, max_rows);
    reserve_total(&mut s.selectors, max_rows.div_ceil(GROUP_SIZE));
    rle1_encode_into(block, &mut s.rle1);
    encode_rle1_block(w, s);
}

/// Grow `buf`'s capacity to at least `total` elements.
fn reserve_total<T>(buf: &mut Vec<T>, total: usize) {
    buf.reserve_exact(total.saturating_sub(buf.len()));
}

/// Encode the block whose RLE1 form is in `s.rle1`.
fn encode_rle1_block(w: &mut MsbBitWriter, s: &mut BwtScratch) {
    suffix_array_into(&s.rle1, &mut s.rows, &mut s.suffix);
    entropy_symbols(s);
    let n_tables = num_tables_for(s.symbols.len());
    build_tables(&s.symbols, n_tables, &mut s.tables, &mut s.selectors);
    emit_block(w, s);
}

/// BWT last column (read off the suffix array in `s.rows`) → MTF →
/// zero-run, into `s.symbols`.
fn entropy_symbols(s: &mut BwtScratch) {
    s.symbols.clear();
    let column = s.rows.iter().map(|&pos| last_column(&s.rle1, pos));
    mtf_zrle_encode(column, &mut s.symbols);
}

/// Write the block: lengths, tables, selectors, Huffman-coded symbols.
fn emit_block(w: &mut MsbBitWriter, s: &BwtScratch) {
    let encoders = &s.tables.encoders[..num_tables_for(s.symbols.len())];
    w.write_bits(s.rle1.len() as u32, 32);
    w.write_bits(s.symbols.len() as u32, 32);
    w.write_bits(encoders.len() as u32, 3);
    for enc in encoders {
        write_delta_lengths(w, enc);
    }
    // Selectors, move-to-front then unary coded (bzip2's scheme): the
    // MTF rank r is written as r one-bits and a terminating zero.
    let mut mtf_order: [u8; MAX_TABLES] = std::array::from_fn(|t| t as u8);
    for &sel in &s.selectors {
        let rank = mtf_order.iter().position(|&t| t == sel).expect("table");
        w.write_bits(((1u32 << rank) - 1) << 1, rank as u32 + 1);
        mtf_order.copy_within(0..rank, 1);
        mtf_order[0] = sel;
    }
    for (group, &sel) in s.symbols.chunks(GROUP_SIZE).zip(&s.selectors) {
        let enc = &encoders[sel as usize];
        for &sym in group {
            enc.write_msb(w, sym as usize);
        }
    }
}

/// Largest block any encoder level cuts (`Best`); no valid block's RLE1
/// stream expands past it.
const MAX_BLOCK_LEN: usize = 900 * 1024;

/// Largest RLE1 stream any encoder level can emit per block: the
/// biggest block size times the worst-case RLE1 expansion (a +1 count
/// byte per 4-byte run, 5/4). A corrupt header claiming more is
/// rejected before any allocation scales with it.
const MAX_RLE1_LEN: usize = MAX_BLOCK_LEN + MAX_BLOCK_LEN / 4;

fn decode_block(
    r: &mut MsbBitReader<'_>,
    out: &mut Vec<u8>,
    s: &mut BwtScratch,
) -> Result<(), CodecError> {
    let rle1_len = read_block_symbols(r, s)?;
    invert_block(s, rle1_len)?;
    rle1_decode_into(&s.rle1, out, MAX_BLOCK_LEN)
}

/// Read one block's header, tables and selectors and Huffman-decode
/// its symbols into `s.symbols`. Returns the block's RLE1 length.
fn read_block_symbols(r: &mut MsbBitReader<'_>, s: &mut BwtScratch) -> Result<usize, CodecError> {
    let rle1_len = r.read_bits(32)? as usize;
    let num_symbols = r.read_bits(32)? as usize;
    // The two 32-bit length fields are untrusted: bound them against
    // what the format and the remaining input could possibly produce
    // before they size any buffer.
    if rle1_len > MAX_RLE1_LEN {
        return Err(CodecError::Corrupt("block length exceeds format maximum"));
    }
    if num_symbols > rle1_len + 1 {
        // Every zero-run/literal symbol expands to at least one MTF
        // rank, and the rank stream is exactly rle1_len + 1 long.
        return Err(CodecError::Corrupt("symbol count exceeds block length"));
    }
    if num_symbols > r.remaining_bits() {
        // Every Huffman-coded symbol costs at least one input bit.
        return Err(CodecError::Corrupt("symbol count exceeds input size"));
    }
    let n_tables = r.read_bits(3)? as usize;
    if !(1..=MAX_TABLES).contains(&n_tables) {
        return Err(CodecError::Corrupt("bad Huffman table count"));
    }
    let decoders = &mut s.decoders[..n_tables];
    for decoder in decoders.iter_mut() {
        decoder.rebuild(&read_delta_lengths(r)?)?;
    }

    let mut mtf_order: [u8; MAX_TABLES] = std::array::from_fn(|t| t as u8);
    s.selectors.clear();
    for _ in 0..num_symbols.div_ceil(GROUP_SIZE) {
        let mut rank = 0usize;
        while r.read_bit()? == 1 {
            rank += 1;
            if rank >= n_tables {
                return Err(CodecError::Corrupt("selector rank out of range"));
            }
        }
        let sel = mtf_order[rank];
        mtf_order.copy_within(0..rank, 1);
        mtf_order[0] = sel;
        s.selectors.push(sel);
    }

    s.symbols.clear();
    s.symbols.reserve(num_symbols);
    for (g, &sel) in s.selectors.iter().enumerate() {
        let decoder = &decoders[sel as usize];
        for _ in 0..GROUP_SIZE.min(num_symbols - g * GROUP_SIZE) {
            s.symbols.push(decoder.decode(r)?);
        }
    }
    Ok(rle1_len)
}

/// Zero-run → MTF → inverse BWT: `s.symbols` to the block's RLE1 form
/// (`rle1_len` bytes) in `s.rle1`.
fn invert_block(s: &mut BwtScratch, rle1_len: usize) -> Result<(), CodecError> {
    // Stale rows from an earlier block are harmless: the length check
    // rejects any block that does not overwrite every one.
    s.rows.resize(rle1_len + 1, 0);
    let mut column = Column::new(&mut s.rows);
    let rows = mtf_zrle_decode(&s.symbols, rle1_len + 1, |sym, repeat| {
        column.push(sym, repeat)
    })?;
    if rows != rle1_len + 1 {
        return Err(CodecError::Corrupt("zero-run expansion length mismatch"));
    }
    s.rle1.resize(rle1_len, 0);
    column.invert_into(&mut s.rle1)
}

/// The solver's stages on one block, one method each, for the
/// per-stage rows of `crates/bench/benches/codecs.rs`. Every method is
/// the call the codec itself makes, on scratch this holds warm; the
/// return values only keep the work observable.
#[doc(hidden)]
pub struct BlockStages {
    enc: BwtScratch,
    dec: BwtScratch,
    packed: Vec<u8>,
    rle1_len: usize,
}

impl BlockStages {
    /// Run every stage once on `block` (at most one `Best` block), so
    /// each stage's input is in place whatever order they are timed in.
    pub fn new(block: &[u8]) -> Self {
        assert!(!block.is_empty() && block.len() <= MAX_BLOCK_LEN);
        let mut stages = BlockStages {
            enc: BwtScratch::default(),
            dec: BwtScratch::default(),
            packed: Vec::new(),
            rle1_len: 0,
        };
        let mut w = MsbBitWriter::new();
        encode_block(&mut w, block, &mut stages.enc);
        stages.packed = w.finish();
        stages.rle1_len = stages.huffman_decode();
        stages.inverse_bwt();
        assert!(stages.dec.rle1 == stages.enc.rle1, "stages must round-trip");
        stages
    }

    /// SA-IS over the block's RLE1 form.
    pub fn suffix_array(&mut self) -> u32 {
        suffix_array_into(&self.enc.rle1, &mut self.enc.rows, &mut self.enc.suffix);
        self.enc.rows[1]
    }

    /// Last column → MTF → zero-run.
    pub fn mtf_zero_run(&mut self) -> usize {
        entropy_symbols(&mut self.enc);
        self.enc.symbols.len()
    }

    /// Table construction and group assignment.
    pub fn build_tables(&mut self) -> u8 {
        let enc = &mut self.enc;
        let n_tables = num_tables_for(enc.symbols.len());
        build_tables(&enc.symbols, n_tables, &mut enc.tables, &mut enc.selectors);
        enc.selectors[0]
    }

    /// Block header, tables, selectors and Huffman-coded symbols.
    pub fn huffman_emit(&mut self) -> usize {
        self.packed.clear();
        let mut w = MsbBitWriter::with_prefix(std::mem::take(&mut self.packed));
        emit_block(&mut w, &self.enc);
        self.packed = w.finish();
        self.packed.len()
    }

    /// Block header, table rebuild and Huffman decode.
    pub fn huffman_decode(&mut self) -> usize {
        read_block_symbols(&mut MsbBitReader::new(&self.packed), &mut self.dec).expect("own block")
    }

    /// Zero-run → MTF → LF index → walk.
    pub fn inverse_bwt(&mut self) -> u8 {
        invert_block(&mut self.dec, self.rle1_len).expect("own block");
        self.dec.rle1[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mtf::mtf_encode;
    use crate::rle::{rle1_encode, zrle_encode};

    /// [`build_tables`] on fresh scratch, returning what it chose.
    fn tables_for(symbols: &[u16], n_tables: usize) -> (Vec<HuffmanEncoder>, Vec<u8>) {
        let mut tables = TableScratch::default();
        let mut selectors = Vec::new();
        build_tables(symbols, n_tables, &mut tables, &mut selectors);
        (tables.encoders[..n_tables].to_vec(), selectors)
    }

    #[test]
    fn bwt_known_example() {
        // "banana" + $ sorted rotations end-column is "annb$aa".
        let bwt = bwt_forward(b"banana");
        let rendered: Vec<char> = bwt
            .iter()
            .map(|&s| if s == 0 { '$' } else { (s - 1) as u8 as char })
            .collect();
        assert_eq!(rendered, vec!['a', 'n', 'n', 'b', '$', 'a', 'a']);
    }

    #[test]
    fn bwt_round_trips() {
        let cases: Vec<Vec<u8>> = vec![
            b"".to_vec(),
            b"a".to_vec(),
            b"banana".to_vec(),
            b"mississippi".to_vec(),
            vec![0u8; 500],
            (0..=255u8).collect(),
            b"abcabcabcabc".repeat(50),
        ];
        for case in cases {
            let bwt = bwt_forward(&case);
            assert_eq!(bwt.len(), case.len() + 1);
            assert_eq!(bwt_inverse(&bwt).unwrap(), case, "case len {}", case.len());
        }
    }

    #[test]
    fn bwt_groups_symbols() {
        // On periodic text the BWT should have long runs — measure that
        // the number of adjacent changes drops versus the input.
        let data = b"the rain in spain stays mainly in the plain ".repeat(40);
        let bwt = bwt_forward(&data);
        let changes = |xs: &[u16]| xs.windows(2).filter(|w| w[0] != w[1]).count();
        let input_syms: Vec<u16> = data.iter().map(|&b| b as u16 + 1).collect();
        assert!(changes(&bwt) < changes(&input_syms) / 2);
    }

    #[test]
    fn bwt_inverse_rejects_garbage() {
        assert!(bwt_inverse(&[]).is_err());
        // No sentinel.
        assert!(bwt_inverse(&[5, 6, 7]).is_err());
        // Two sentinels.
        assert!(bwt_inverse(&[0, 5, 0]).is_err());
        // Symbol out of range.
        assert!(bwt_inverse(&[0, 300]).is_err());
    }

    fn round_trip(data: &[u8]) {
        for level in CompressionLevel::ALL {
            let codec = Bzip2Like::new(level);
            let packed = codec.compress(data);
            assert_eq!(
                codec.decompress(&packed).unwrap(),
                data,
                "level {level:?}, {} bytes",
                data.len()
            );
        }
    }

    #[test]
    fn codec_round_trips_basic_inputs() {
        round_trip(b"");
        round_trip(b"a");
        round_trip(b"hello hello hello");
        round_trip(&vec![0xAB; 10_000]);
    }

    #[test]
    fn codec_round_trips_text() {
        let data = b"it was the best of times, it was the worst of times. ".repeat(1000);
        round_trip(&data);
        let packed = Bzip2Like::default().compress(&data);
        assert!(
            packed.len() * 10 < data.len(),
            "text should compress well: {} -> {}",
            data.len(),
            packed.len()
        );
    }

    #[test]
    fn codec_round_trips_pseudorandom_data() {
        let mut state = 42u64;
        let data: Vec<u8> = (0..200_000)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) as u8
            })
            .collect();
        round_trip(&data);
    }

    #[test]
    fn codec_spans_multiple_blocks() {
        let codec = Bzip2Like::new(CompressionLevel::Fast);
        let data = b"block boundary test ".repeat(20_000); // 400 KB > 128 KiB blocks
        let packed = codec.compress(&data);
        assert_eq!(codec.decompress(&packed).unwrap(), data);
    }

    #[test]
    fn corrupted_stream_is_rejected_or_harmless() {
        // A flipped bit must never yield silently wrong data: either
        // the decoder errors (structure or checksum) or the flip hit
        // dead space (e.g. a never-selected Huffman table) and the
        // output is still exactly right.
        let codec = Bzip2Like::default();
        let data = b"payload payload payload".repeat(100);
        let packed = codec.compress(&data);
        let mut rejected = 0usize;
        for pos in (0..packed.len()).step_by(7) {
            let mut bad = packed.clone();
            bad[pos] ^= 0x40;
            match codec.decompress(&bad) {
                Err(_) => rejected += 1,
                Ok(out) => assert_eq!(out, data, "silent corruption at byte {pos}"),
            }
        }
        // The overwhelming majority of flips must be detected.
        assert!(
            rejected * 10 >= (packed.len() / 7) * 8,
            "only {rejected} rejections"
        );
    }

    #[test]
    fn table_count_schedule_matches_bzip2() {
        assert_eq!(num_tables_for(0), 2);
        assert_eq!(num_tables_for(199), 2);
        assert_eq!(num_tables_for(200), 3);
        assert_eq!(num_tables_for(599), 3);
        assert_eq!(num_tables_for(600), 4);
        assert_eq!(num_tables_for(1199), 4);
        assert_eq!(num_tables_for(1200), 5);
        assert_eq!(num_tables_for(2400), 6);
        assert_eq!(num_tables_for(1_000_000), 6);
    }

    #[test]
    fn build_tables_covers_every_group_and_symbol() {
        // A bimodal stream: groups alternate between two disjoint
        // symbol distributions — exactly what multiple tables exploit.
        let mut symbols: Vec<u16> = Vec::new();
        for block in 0..40 {
            let base = if block % 2 == 0 { 2u16 } else { 120 };
            symbols.extend((0..50).map(|i| base + (i % 8) as u16));
        }
        let (encoders, selectors) = tables_for(&symbols, 3);
        assert_eq!(encoders.len(), 3);
        assert_eq!(selectors.len(), 40);
        assert!(selectors.iter().all(|&s| s < 3));
        // Every symbol must be encodable under every table (the +1
        // frequency floor guarantees it).
        for enc in &encoders {
            for sym in 0..ENTROPY_ALPHA {
                assert!(enc.len(sym) > 0, "symbol {sym} lacks a code");
            }
        }
        // The alternating halves should land on different tables.
        assert_ne!(selectors[0], selectors[1]);
    }

    #[test]
    fn multi_table_coding_beats_single_table_on_bimodal_blocks() {
        // Construct data whose BWT-MTF stream changes statistics along
        // the block: text-like section followed by binary-like section.
        let mut data = b"continuous prose with ordinary letter statistics. ".repeat(400);
        let mut state = 77u64;
        data.extend((0..20_000).map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 59) as u8 // tiny alphabet, different distribution
        }));
        let packed = Bzip2Like::default().compress(&data);
        assert_eq!(Bzip2Like::default().decompress(&packed).unwrap(), data);

        // Single-table reference: force n_tables = 1 via a direct call.
        let rle1 = rle1_encode(&data);
        let bwt = bwt_forward(&rle1);
        let ranks = mtf_encode(&bwt, BWT_ALPHA);
        let symbols = zrle_encode(&ranks);
        let (encoders, _) = tables_for(&symbols, 1);
        let single_payload_bits: u64 = symbols
            .iter()
            .map(|&s| encoders[0].len(s as usize) as u64)
            .sum();
        let (encoders, selectors) = tables_for(&symbols, num_tables_for(symbols.len()));
        let multi_payload_bits: u64 = symbols
            .chunks(GROUP_SIZE)
            .zip(&selectors)
            .flat_map(|(g, &sel)| g.iter().map(move |&s| (sel, s)))
            .map(|(sel, s)| encoders[sel as usize].len(s as usize) as u64)
            .sum();
        assert!(
            multi_payload_bits < single_payload_bits,
            "multi {multi_payload_bits} vs single {single_payload_bits} bits"
        );
    }

    #[test]
    fn delta_lengths_round_trip() {
        let freqs: Vec<u64> = (0..ENTROPY_ALPHA as u64).map(|i| 1 + i * i % 511).collect();
        let enc = HuffmanEncoder::from_freqs(&freqs, MAX_CODE_LEN);
        let mut w = MsbBitWriter::new();
        write_delta_lengths(&mut w, &enc);
        let bytes = w.finish();
        // Far below the 5-bit-per-symbol fixed encoding.
        assert!(bytes.len() * 8 < ENTROPY_ALPHA * 5);
        let mut r = MsbBitReader::new(&bytes);
        let lengths = read_delta_lengths(&mut r).unwrap();
        assert_eq!(&lengths[..], enc.lengths());
    }

    /// A one-block stream whose block carries `rle1` as its RLE1 form
    /// (the checksum is left 0: these specimens fail before it).
    fn stream_with_rle1_block(rle1: Vec<u8>) -> Vec<u8> {
        let mut s = BwtScratch {
            rle1,
            ..Default::default()
        };
        let mut w = MsbBitWriter::new();
        w.write_bits(1, 32);
        encode_rle1_block(&mut w, &mut s);
        w.write_bits(0, 32);
        w.finish()
    }

    #[test]
    fn rle1_expansion_is_bounded_by_the_largest_block() {
        // An RLE1 stream of nothing but 0xFF decodes every 5 bytes into
        // 259: the longest stream the header check admits would expand
        // to 59 MB, from a block a few dozen bytes long.
        let bomb = stream_with_rle1_block(vec![0xFF; MAX_RLE1_LEN]);
        assert!(bomb.len() < 100, "{} bytes", bomb.len());
        let mut out = Vec::new();
        let result =
            Bzip2Like::default().decompress_into(&bomb, &mut out, &mut CodecScratch::new());
        assert_eq!(
            result,
            Err(CodecError::Corrupt("RLE1 expansion exceeds block maximum"))
        );
        assert!(out.is_empty() && out.capacity() <= 2 * MAX_BLOCK_LEN);

        // The same shape right at the bound is what `Best` emits for
        // 0xFF input, and still decodes.
        let full = vec![0xFF; MAX_BLOCK_LEN / 259 * 259];
        let codec = Bzip2Like::new(CompressionLevel::Best);
        assert_eq!(codec.decompress(&codec.compress(&full)).unwrap(), full);
    }

    #[test]
    fn missing_rle1_count_byte_is_rejected() {
        // No encoder ends a block on a 4-run without its count byte.
        let cut = stream_with_rle1_block(b"xyzaaaa".to_vec());
        assert_eq!(
            Bzip2Like::default().decompress(&cut),
            Err(CodecError::Corrupt(
                "RLE1 stream ends before a run's count byte"
            ))
        );
    }

    #[test]
    fn truncated_stream_is_rejected() {
        let codec = Bzip2Like::default();
        let packed = codec.compress(b"something long enough to truncate meaningfully");
        for cut in [0, 2, packed.len() / 2] {
            assert!(codec.decompress(&packed[..cut]).is_err(), "cut {cut}");
        }
    }
}
