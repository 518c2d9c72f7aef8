//! LZ77 match finding: the front half of the DEFLATE solver.
//!
//! Both matchers turn a byte stream into literals and back-references
//! within a 32 KiB window. There is one per effort profile:
//!
//! * [`Matcher`] (`Default`, `Best`) uses zlib's data structures, a head
//!   table indexed by a 3-byte hash plus a prev chain threaded through
//!   the window. It also uses zlib's lazy-matching heuristic: defer a
//!   match by one position if the next position matches longer.
//! * [`FastMatcher`] (`Fast`) is a greedy loop after libdeflate's
//!   level-1 recipe. It hashes 4-byte grams into a table of two-slot
//!   buckets that hold the two most recent positions per hash, so one
//!   probe reads at most two candidates from one 8-byte entry. It stops
//!   probing for a few positions at a time deep inside matchless
//!   stretches, and leaves the span of a long match unindexed.
//!
//! Both fill a caller's block one token at a time through
//! [`Matcher::fill`] / [`FastMatcher::fill`] and resume where they
//! stopped, so the encoder never holds a whole-input token vector.
//!
//! Neither matcher owns its tables: they live in a [`MatcherScratch`]
//! that callers keep across invocations, so the per-chunk steady state
//! touches no allocator and rewrites no table. The head table is
//! invalidated by bumping a generation counter, the bucket table by
//! raising a position base that every earlier entry lies below. The
//! prev chain is a ring over the window (zlib's `prev[pos & WMASK]`):
//! a chain walk stops at the window's edge, so a slot is only read while
//! it still holds what its own position wrote.

use crate::codec::CompressionLevel;

/// DEFLATE window size: matches may reach back this far.
pub const WINDOW_SIZE: usize = 32 * 1024;
/// Minimum back-reference length (shorter matches cost more than literals).
pub const MIN_MATCH: usize = 3;
/// Maximum back-reference length representable in DEFLATE.
pub const MAX_MATCH: usize = 258;

const HASH_BITS: u32 = 15;
const HASH_SIZE: usize = 1 << HASH_BITS;

/// Gram length of the Fast profile's hash, and so its shortest match.
/// Preconditioned byte streams have tiny alphabets, so 3-grams collide
/// into enormous chains; 4-grams cut the collision rate by the alphabet
/// size at the cost of never finding length-3 matches.
const FAST_GRAM: usize = 4;
/// The Fast profile stops at the first match this long.
const FAST_NICE_LEN: usize = 16;
/// The Fast profile indexes the span of a match only up to this length
/// (zlib's `max_insert_length`). Long matches on repetitive data
/// otherwise spend most of the matcher's time hashing positions that
/// later searches rarely benefit from.
const FAST_MAX_INSERT: usize = 16;
/// Consecutive match-probe misses before the Fast matcher starts
/// blind-skipping positions (zlib's `deflate_fast` insertion degrade).
const SKIP_TRIGGER: u32 = 32;
/// Cap on how many positions a single blind skip may cover.
const MAX_SKIP: u32 = 16;

/// One LZ77 token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Token {
    /// A single literal byte.
    Literal(u8),
    /// A back-reference: copy `len` bytes starting `dist` bytes back.
    Match {
        /// Match length in `MIN_MATCH..=MAX_MATCH`.
        len: u16,
        /// Distance in `1..=WINDOW_SIZE`.
        dist: u16,
    },
}

/// Tokenize a whole buffer at `level` (a convenience for tests and
/// benchmarks; the encoder fills one block at a time).
pub fn tokenize(data: &[u8], level: CompressionLevel, scratch: &mut MatcherScratch) -> Vec<Token> {
    let mut tokens = Vec::with_capacity(data.len() / 4 + 16);
    match level {
        CompressionLevel::Fast => {
            FastMatcher::new(data, scratch).fill(usize::MAX, |t| tokens.push(t))
        }
        _ => Matcher::new(data, level, scratch).fill(usize::MAX, |t| tokens.push(t)),
    }
    tokens
}

/// Chain-walk knobs of the lazy matcher, mirroring zlib's per-level
/// configuration table.
#[derive(Debug, Clone, Copy)]
struct MatcherParams {
    /// Upper bound on hash-chain links followed per position.
    max_chain: usize,
    /// Stop searching early once a match of this length is found.
    nice_len: usize,
    /// Only attempt lazy matching when the current match is no longer.
    lazy_threshold: usize,
}

impl MatcherParams {
    fn for_level(level: CompressionLevel) -> Self {
        // Chain depths are tuned for ISOBAR's workload: preconditioned
        // scientific byte streams have tiny effective alphabets, so
        // 3-byte grams collide heavily and deep chains burn time for
        // almost no ratio.
        match level {
            CompressionLevel::Fast => panic!("the Fast level has its own matcher, FastMatcher"),
            CompressionLevel::Default => MatcherParams {
                max_chain: 32,
                nice_len: 64,
                lazy_threshold: 16,
            },
            CompressionLevel::Best => MatcherParams {
                max_chain: 256,
                nice_len: MAX_MATCH,
                lazy_threshold: MAX_MATCH,
            },
        }
    }
}

#[inline]
fn hash3(data: &[u8], pos: usize) -> usize {
    // Multiplicative hash of the next three bytes; constants chosen for
    // good dispersion of low-entropy scientific bytes.
    let v = u32::from(data[pos]) | u32::from(data[pos + 1]) << 8 | u32::from(data[pos + 2]) << 16;
    (v.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
}

/// The little-endian 4-byte gram at `pos`.
#[inline(always)]
fn gram4(data: &[u8], pos: usize) -> u32 {
    u32::from_le_bytes(data[pos..pos + 4].try_into().expect("4 bytes"))
}

#[inline(always)]
fn hash4(gram: u32) -> usize {
    (gram.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
}

/// Reusable tables for both matchers.
///
/// A head entry is only trusted when its generation tag matches the
/// current generation, so starting a new buffer costs one counter bump
/// instead of a 32 768-entry rewrite. `prev` is a ring over the window
/// (fewer slots for an input shorter than the window), written before
/// it can be read within a generation: a chain only reaches positions
/// inserted this generation, and stops at the window's edge before a
/// later position could have reused the slot, so stale contents are
/// harmless. The Fast matcher's bucket table is separate and is
/// allocated only by the Fast level.
#[derive(Default)]
pub struct MatcherScratch {
    /// Generation tag (high 32 bits) fused with the head position (low
    /// 32 bits): one cache line touched per probe instead of two
    /// parallel arrays.
    heads: Vec<u64>,
    generation: u32,
    prev: Vec<i32>,
    buckets: BucketTable,
}

impl MatcherScratch {
    /// Fresh, empty scratch; tables are allocated on first use.
    pub fn new() -> Self {
        Self::default()
    }

    fn begin(&mut self, data_len: usize) {
        if self.heads.is_empty() {
            self.heads = vec![0; HASH_SIZE];
            self.generation = 0;
        }
        // One ring slot per position, up to the window: a short input
        // never pays for the whole ring.
        let slots = data_len.min(WINDOW_SIZE);
        if self.prev.len() < slots {
            self.prev.resize(slots, 0);
        }
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            // The 32-bit tag wrapped: ancient entries could alias the
            // new generation, so pay for one full reset every 2^32 uses.
            self.heads.fill(0);
            self.generation = 1;
        }
    }

    /// Head of the chain for hash bucket `h`, or -1 if the bucket was
    /// last written in an earlier generation (i.e. for another buffer).
    #[inline]
    fn head(&self, h: usize) -> i32 {
        let entry = self.heads[h];
        if (entry >> 32) as u32 == self.generation {
            entry as i32
        } else {
            -1
        }
    }
}

/// The two most recent positions per 4-gram hash, for [`FastMatcher`];
/// slot 0 is the newer.
///
/// A slot holds `base + pos`, with the base of the call that wrote it.
/// Each call's base lies above every value an earlier call stored, so a
/// slot below the current base is stale and reads as empty: no per-call
/// clear and no generation tag. When the bases reach the top of `u32`
/// the table is cleared once and they restart at 1 (0 is the empty
/// slot). An input longer than that range wraps its own values; a
/// wrapped value always lies outside the window, so it is never used.
#[derive(Default)]
struct BucketTable {
    slots: Vec<[u32; 2]>,
    /// Position base of the current call.
    base: u32,
    /// The first value no call has stored yet: the next call's base.
    end: u32,
}

impl BucketTable {
    fn begin(&mut self, data_len: usize) {
        if self.slots.is_empty() {
            self.slots = vec![[0; 2]; HASH_SIZE];
            self.end = 1;
        }
        let len = u32::try_from(data_len).unwrap_or(u32::MAX);
        if self.end.checked_add(len).is_none() {
            self.slots.fill([0; 2]);
            self.end = 1;
        }
        self.base = self.end;
        self.end = self.base.saturating_add(len);
    }
}

/// Lazy hash-chain match finder for `Default` and `Best`, over a
/// complete input buffer.
///
/// ISOBAR feeds each chunk's compressible bytes to the solver as one
/// buffer, so an in-memory (non-streaming) matcher fits the workload and
/// keeps indexing simple.
pub struct Matcher<'a, 's> {
    data: &'a [u8],
    scratch: &'s mut MatcherScratch,
    params: MatcherParams,
    /// Kernel tier for the wide common-prefix compare, resolved once
    /// here so the inner loop pays no dispatch cost.
    tier: isobar_simd::KernelTier,
    pos: usize,
    /// Match found by the last lazy probe, valid for the current `pos`.
    /// When the matcher defers (emits a literal because `pos + 1`
    /// matches longer), that probe result is kept so the next call does
    /// not repeat the chain walk; no table insert happens between the
    /// probe and its reuse, so the cached result is exact.
    pending: Option<(usize, usize)>,
}

impl<'a, 's> Matcher<'a, 's> {
    /// Create a matcher for `data` at the given effort level, borrowing
    /// its hash tables from `scratch`.
    ///
    /// # Panics
    ///
    /// Panics at [`CompressionLevel::Fast`], which has its own matcher,
    /// [`FastMatcher`].
    pub fn new(data: &'a [u8], level: CompressionLevel, scratch: &'s mut MatcherScratch) -> Self {
        let params = MatcherParams::for_level(level);
        scratch.begin(data.len());
        Matcher {
            data,
            scratch,
            params,
            tier: isobar_simd::active_tier(),
            pos: 0,
            pending: None,
        }
    }

    #[inline]
    fn insert(&mut self, pos: usize) {
        if pos + MIN_MATCH <= self.data.len() {
            let h = hash3(self.data, pos);
            let s = &mut *self.scratch;
            s.prev[pos % WINDOW_SIZE] = s.head(h);
            s.heads[h] = (u64::from(s.generation) << 32) | pos as u64;
        }
    }

    /// Find the longest match at `pos`, returning `(len, dist)` or
    /// `None` when no match of at least [`MIN_MATCH`] exists.
    #[inline]
    fn longest_match(&self, pos: usize) -> Option<(usize, usize)> {
        self.longest_match_over(pos, MIN_MATCH - 1)
    }

    /// Find the longest match at `pos` strictly longer than `floor`, or
    /// `None` when nothing beats it. The chain is walked exactly as
    /// [`Matcher::longest_match`] would, so when a result is returned it
    /// is the overall longest match — the floor only lets the byte
    /// filter reject can't-improve candidates in one compare, which is
    /// what makes the lazy probe cheap.
    fn longest_match_over(&self, pos: usize, floor: usize) -> Option<(usize, usize)> {
        let data = self.data;
        if pos + MIN_MATCH > data.len() {
            return None;
        }
        let max_len = (data.len() - pos).min(MAX_MATCH);
        if floor >= max_len {
            // No candidate can beat the floor in the room left.
            return None;
        }
        let window_start = pos.saturating_sub(WINDOW_SIZE);
        let mut best_len = floor;
        let mut best_dist = 0usize;
        let s = &*self.scratch;
        let mut candidate = s.head(hash3(data, pos));
        let mut chain_left = self.params.max_chain;
        // Hoisted probe bytes: the byte just past the current best match
        // is the cheapest rejection test, and it only changes when the
        // best improves.
        let first = data[pos];
        let mut scan = data[pos + best_len];

        while candidate >= 0 && chain_left > 0 {
            let cand = candidate as usize;
            if cand < window_start {
                break;
            }
            debug_assert!(cand < pos);
            // Check the byte just past the current best first: cheapest
            // way to reject chains that cannot improve on it.
            if data[cand + best_len] == scan && data[cand] == first {
                let len = common_prefix(self.tier, data, cand, pos, max_len);
                if len > best_len {
                    best_len = len;
                    best_dist = pos - cand;
                    if len >= self.params.nice_len || len >= max_len {
                        // `nice_len` ends the search by policy; `max_len`
                        // ends it because no longer match can exist.
                        break;
                    }
                    scan = data[pos + best_len];
                }
            }
            candidate = s.prev[cand % WINDOW_SIZE];
            chain_left -= 1;
        }

        if best_len > floor {
            Some((best_len, best_dist))
        } else {
            None
        }
    }

    /// Whether the whole input has been tokenized.
    #[inline]
    pub fn is_done(&self) -> bool {
        self.pos >= self.data.len()
    }

    /// Pass up to `max_tokens` further tokens to `sink`, fewer only when
    /// the input runs out; the next call resumes where this one stopped.
    #[inline]
    pub fn fill(&mut self, max_tokens: usize, mut sink: impl FnMut(Token)) {
        for _ in 0..max_tokens {
            let Some(token) = self.next_token() else {
                return;
            };
            sink(token);
        }
    }

    /// Produce the next token, or `None` once the input is exhausted.
    /// Every call advances by at least one byte and emits exactly one
    /// token.
    fn next_token(&mut self) -> Option<Token> {
        let data = self.data;
        let pos = self.pos;
        if pos >= data.len() {
            return None;
        }
        // A lazy probe from the previous call already searched this
        // position; reuse its result instead of walking the chain again.
        let found = match self.pending.take() {
            Some(m) => Some(m),
            None => self.longest_match(pos),
        };
        let Some((len, dist)) = found else {
            self.insert(pos);
            self.pos += 1;
            return Some(Token::Literal(data[pos]));
        };
        // Lazy matching: if the next position holds a longer match,
        // emit this byte as a literal and defer.
        let lazy = len <= self.params.lazy_threshold;
        if lazy {
            self.insert(pos);
            // Floored probe: only a strictly longer match at pos + 1
            // matters, and when one exists the probe returns the overall
            // longest, which becomes the cached match for the deferred
            // position.
            if let Some(next) = self.longest_match_over(pos + 1, len) {
                self.pending = Some(next);
                self.pos += 1; // position already inserted above
                return Some(Token::Literal(data[pos]));
            }
        }
        // Index the covered positions so later matches can reach into
        // this span; the lazy probe already inserted pos itself.
        let start = if lazy { pos + 1 } else { pos };
        for p in start..pos + len {
            self.insert(p);
        }
        self.pos += len;
        Some(Token::Match {
            len: len as u16,
            dist: dist as u16,
        })
    }
}

/// Greedy match finder for [`CompressionLevel::Fast`], over a complete
/// input buffer (see the module documentation for the recipe).
pub struct FastMatcher<'a, 's> {
    data: &'a [u8],
    table: &'s mut BucketTable,
    /// Kernel tier for the wide common-prefix compare.
    tier: isobar_simd::KernelTier,
    pos: usize,
    /// Consecutive probed positions without a match.
    miss_run: u32,
    /// Positions left to emit blindly (no probe, no insert).
    blind: u32,
}

impl<'a, 's> FastMatcher<'a, 's> {
    /// Create a matcher for `data`, borrowing its bucket table from
    /// `scratch`.
    pub fn new(data: &'a [u8], scratch: &'s mut MatcherScratch) -> Self {
        scratch.buckets.begin(data.len());
        FastMatcher {
            data,
            table: &mut scratch.buckets,
            tier: isobar_simd::active_tier(),
            pos: 0,
            miss_run: 0,
            blind: 0,
        }
    }

    /// Whether the whole input has been tokenized.
    #[inline]
    pub fn is_done(&self) -> bool {
        self.pos >= self.data.len()
    }

    /// Pass up to `max_tokens` further tokens to `sink`, fewer only when
    /// the input runs out; the next call resumes where this one stopped,
    /// blind stretch included.
    #[inline]
    pub fn fill(&mut self, max_tokens: usize, mut sink: impl FnMut(Token)) {
        let data = self.data;
        let tier = self.tier;
        let base = self.table.base;
        let buckets: &mut [[u32; 2]; HASH_SIZE] = self
            .table
            .slots
            .as_mut_slice()
            .try_into()
            .expect("bucket table allocated by begin");
        let (mut pos, mut miss_run, mut blind) = (self.pos, self.miss_run, self.blind);
        // Positions with a whole gram ahead of them: only these are
        // probed and indexed.
        let gram_end = data.len().saturating_sub(FAST_GRAM - 1);
        let mut left = max_tokens;
        while left > 0 && pos < gram_end {
            left -= 1;
            // Blind stretch: deep inside a matchless run, stop probing
            // and indexing entirely for a few positions.
            if blind > 0 {
                blind -= 1;
                sink(Token::Literal(data[pos]));
                pos += 1;
                continue;
            }
            let gram = gram4(data, pos);
            let h = hash4(gram);
            // Index `pos` now, match or not; the probe reads the bucket
            // as it was before.
            let bucket = buckets[h];
            buckets[h] = [base.wrapping_add(pos as u32), bucket[0]];
            let max_len = (data.len() - pos).min(MAX_MATCH);
            let Some((len, dist)) = probe(data, tier, pos, gram, max_len, bucket, base) else {
                sink(Token::Literal(data[pos]));
                pos += 1;
                miss_run += 1;
                if miss_run >= SKIP_TRIGGER {
                    blind = ((miss_run - SKIP_TRIGGER) >> 5).min(MAX_SKIP);
                }
                continue;
            };
            miss_run = 0;
            // Index the covered span of a short match so later matches
            // can reach into it; a long one only at its head (above).
            if len <= FAST_MAX_INSERT {
                for p in pos + 1..(pos + len).min(gram_end) {
                    let h = hash4(gram4(data, p));
                    buckets[h] = [base.wrapping_add(p as u32), buckets[h][0]];
                }
            }
            sink(Token::Match {
                len: len as u16,
                dist: dist as u16,
            });
            pos += len;
        }
        // The last bytes are too short for a gram: literals whatever the
        // skip state.
        while left > 0 && pos < data.len() {
            left -= 1;
            sink(Token::Literal(data[pos]));
            pos += 1;
        }
        self.pos = pos;
        self.miss_run = miss_run;
        self.blind = blind;
    }
}

/// Longest match at `pos` among a bucket's two candidates (newer
/// first), as `(len, dist)`, or `None` below [`FAST_GRAM`] bytes. Stops
/// at the first candidate that is stale or outside the window (the other
/// is older still) and at the first match of [`FAST_NICE_LEN`] bytes or
/// of all the room left; a later candidate must be strictly longer to
/// win.
#[inline(always)]
fn probe(
    data: &[u8],
    tier: isobar_simd::KernelTier,
    pos: usize,
    gram: u32,
    max_len: usize,
    bucket: [u32; 2],
    base: u32,
) -> Option<(usize, usize)> {
    let window_start = pos.saturating_sub(WINDOW_SIZE);
    let mut best: Option<(usize, usize)> = None;
    for entry in bucket {
        if entry < base {
            break;
        }
        let cand = (entry - base) as usize;
        if cand < window_start {
            break;
        }
        debug_assert!(cand < pos);
        if gram4(data, cand) != gram {
            continue;
        }
        let len = FAST_GRAM
            + common_prefix(
                tier,
                data,
                cand + FAST_GRAM,
                pos + FAST_GRAM,
                max_len - FAST_GRAM,
            );
        if best.is_none_or(|(best_len, _)| len > best_len) {
            best = Some((len, pos - cand));
            if len >= FAST_NICE_LEN || len >= max_len {
                break;
            }
        }
    }
    best
}

/// Length of the common prefix of `data[a..]` and `data[b..]`, capped at
/// `max_len`, via the dispatched wide-compare kernel (8-byte scalar,
/// 16-byte SSE2, or 32-byte AVX2 steps; the first differing lane's
/// trailing zeros locate the exact mismatch byte, so the result is
/// identical to a byte-at-a-time scan).
#[inline]
fn common_prefix(
    tier: isobar_simd::KernelTier,
    data: &[u8],
    a: usize,
    b: usize,
    max_len: usize,
) -> usize {
    isobar_simd::memcmp::common_prefix(tier, &data[a..a + max_len], &data[b..b + max_len])
}

/// Reconstruct the original bytes from a token stream (the LZ77 half of
/// the decoder; used directly by tests and indirectly via inflate).
pub fn detokenize(tokens: &[Token]) -> Vec<u8> {
    let mut out = Vec::new();
    for token in tokens {
        match *token {
            Token::Literal(b) => out.push(b),
            Token::Match { len, dist } => {
                let start = out.len() - dist as usize;
                // Overlapping copies are semantically byte-at-a-time.
                for i in 0..len as usize {
                    let b = out[start + i];
                    out.push(b);
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tokens_of(data: &[u8], level: CompressionLevel) -> Vec<Token> {
        tokenize(data, level, &mut MatcherScratch::new())
    }

    fn round_trip(data: &[u8], level: CompressionLevel) -> Vec<Token> {
        let tokens = tokens_of(data, level);
        assert_eq!(detokenize(&tokens), data, "level {level:?}");
        tokens
    }

    #[test]
    fn empty_and_tiny_inputs() {
        for level in CompressionLevel::ALL {
            assert!(round_trip(b"", level).is_empty());
            round_trip(b"a", level);
            round_trip(b"ab", level);
            round_trip(b"abc", level);
        }
    }

    #[test]
    fn repeated_data_produces_matches() {
        let data = b"abcabcabcabcabcabcabcabc";
        let tokens = round_trip(data, CompressionLevel::Default);
        assert!(
            tokens.iter().any(|t| matches!(t, Token::Match { .. })),
            "expected at least one match in {tokens:?}"
        );
        // The dominant match should have distance 3.
        assert!(tokens
            .iter()
            .any(|t| matches!(t, Token::Match { dist: 3, .. })));
    }

    #[test]
    fn run_of_identical_bytes_uses_distance_one() {
        let data = vec![0x42u8; 1000];
        let tokens = round_trip(&data, CompressionLevel::Default);
        // RLE via LZ77: literal + dist-1 matches.
        assert!(tokens.len() < 20, "got {} tokens", tokens.len());
        assert!(tokens
            .iter()
            .any(|t| matches!(t, Token::Match { dist: 1, .. })));
    }

    #[test]
    fn incompressible_data_is_all_literals_but_round_trips() {
        // A linear-congruential byte stream with no 3-byte repeats in
        // range produces few or no matches; correctness is what matters.
        let mut state = 0x12345678u32;
        let data: Vec<u8> = (0..4096)
            .map(|_| {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                (state >> 24) as u8
            })
            .collect();
        for level in CompressionLevel::ALL {
            round_trip(&data, level);
        }
    }

    #[test]
    fn matches_never_exceed_format_limits() {
        let mut data = Vec::new();
        for i in 0..40_000u32 {
            data.extend_from_slice(&(i % 7).to_le_bytes());
        }
        for level in CompressionLevel::ALL {
            let tokens = round_trip(&data, level);
            for t in &tokens {
                if let Token::Match { len, dist } = t {
                    assert!((*len as usize) >= MIN_MATCH && (*len as usize) <= MAX_MATCH);
                    assert!((*dist as usize) >= 1 && (*dist as usize) <= WINDOW_SIZE);
                }
            }
        }
    }

    #[test]
    fn long_range_matches_stay_inside_window() {
        // Repeat a block at a distance beyond the window: the matcher
        // must not reference it.
        let block: Vec<u8> = (0..=255u8).cycle().take(1024).collect();
        let mut data = block.clone();
        data.extend(std::iter::repeat_n(0xAA, WINDOW_SIZE + 500));
        data.extend_from_slice(&block);
        for level in CompressionLevel::ALL {
            round_trip(&data, level);
        }
    }

    #[test]
    fn lazy_matching_improves_or_equals_greedy_token_count() {
        // Classic lazy-match case: "abc" then "bcd..." where deferring
        // one literal yields a longer match.
        let data = b"xabcy_abcde_bcdef_abcdef_bcdefg".repeat(64);
        let fast = tokens_of(&data, CompressionLevel::Fast);
        let best = tokens_of(&data, CompressionLevel::Best);
        assert_eq!(detokenize(&fast), data.as_slice());
        assert_eq!(detokenize(&best), data.as_slice());
        assert!(best.len() <= fast.len());
    }

    #[test]
    fn reused_scratch_produces_identical_tokens() {
        // A dirty scratch (previous buffer's chains and buckets, bumped
        // generation and base) must not change the token stream of a
        // later buffer, whichever level dirtied it.
        let poison: Vec<u8> = (0..60_000u32)
            .flat_map(|i| (i % 251).to_le_bytes())
            .collect();
        let data = b"the quick brown fox jumps over the lazy dog. ".repeat(300);
        for level in CompressionLevel::ALL {
            let mut dirty = MatcherScratch::new();
            for dirtying in CompressionLevel::ALL {
                tokenize(&poison, dirtying, &mut dirty);
            }
            let reused = tokenize(&data, level, &mut dirty);
            assert_eq!(reused, tokens_of(&data, level), "level {level:?}");
        }
    }

    #[test]
    fn streaming_matches_batch_tokenization() {
        // Blocks of a few tokens resume exactly where the last stopped.
        let data = b"abcabcabc_noise_1234567_abcabcabc".repeat(100);
        for level in CompressionLevel::ALL {
            let mut scratch = MatcherScratch::new();
            let mut streamed = Vec::new();
            match level {
                CompressionLevel::Fast => {
                    let mut m = FastMatcher::new(&data, &mut scratch);
                    while !m.is_done() {
                        m.fill(7, |t| streamed.push(t));
                    }
                }
                _ => {
                    let mut m = Matcher::new(&data, level, &mut scratch);
                    while !m.is_done() {
                        m.fill(7, |t| streamed.push(t));
                    }
                }
            }
            assert_eq!(streamed, tokens_of(&data, level), "level {level:?}");
        }
    }

    #[test]
    fn run_skip_keeps_fast_output_decodable_on_noise() {
        // Pure noise drives the Fast matcher deep into its blind-skip
        // regime; the stream must still round-trip exactly.
        let mut state = 0x9E3779B97F4A7C15u64;
        let data: Vec<u8> = (0..200_000)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 56) as u8
            })
            .collect();
        round_trip(&data, CompressionLevel::Fast);
    }

    #[test]
    fn bucket_base_near_the_top_of_u32_changes_no_token() {
        // Bases climb by each input's length; near `u32::MAX` an input
        // either still fits above the base (values up to u32::MAX - 1)
        // or forces the one-time clear and a restart at 1. Either way
        // the table, dirtied by the same input (every slot a position
        // that would be a live candidate if read as one), must yield a
        // fresh table's tokens.
        let data: Vec<u8> = (0..50_000u32)
            .flat_map(|i| [(i / 7 % 13) as u8, (i % 5) as u8])
            .chain(b"0123456789abcdef".repeat(50))
            .collect();
        let fresh = tokens_of(&data, CompressionLevel::Fast);
        let len = data.len() as u32;
        for end in [u32::MAX - len, u32::MAX - len + 1, u32::MAX - 3, u32::MAX] {
            let mut scratch = MatcherScratch::new();
            tokenize(&data, CompressionLevel::Fast, &mut scratch);
            scratch.buckets.end = end;
            let tokens = tokenize(&data, CompressionLevel::Fast, &mut scratch);
            assert_eq!(tokens, fresh, "next base {end:#x}");
            let b = &scratch.buckets;
            if end == u32::MAX - len {
                assert_eq!((b.base, b.end), (end, u32::MAX), "fits without a clear");
            } else {
                assert_eq!((b.base, b.end), (1, 1 + len), "cleared and restarted");
            }
        }
    }

    #[test]
    fn overlapping_copy_semantics() {
        let tokens = vec![
            Token::Literal(b'a'),
            Token::Literal(b'b'),
            Token::Match { len: 6, dist: 2 },
        ];
        assert_eq!(detokenize(&tokens), b"abababab");
    }
}
