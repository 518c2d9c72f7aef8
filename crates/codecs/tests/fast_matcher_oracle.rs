//! The `Fast` matcher against an oracle: the head + prev-chain matcher
//! it replaced, kept here (module `oracle`, the `Fast` profile of
//! `bf8f605`'s `lz77::Matcher`). The oracle has its own hash tables,
//! generation counter and byte-at-a-time prefix compare; it shares only
//! the `Token` type with the library.
//!
//! On every input — arbitrary bytes, float byte-columns, noise and runs,
//! fresh or through one scratch reused across dissimilar inputs — the
//! library's bucket-table loop, driven one 65 536-token block at a time
//! as the encoder drives it, must produce the oracle's token stream.

use isobar_codecs::lz77::{FastMatcher, MatcherScratch, Token};
use proptest::prelude::*;

mod oracle {
    use isobar_codecs::lz77::Token;

    const WINDOW_SIZE: usize = 32 * 1024;
    const MAX_MATCH: usize = 258;
    const HASH_BITS: u32 = 15;
    const HASH_SIZE: usize = 1 << HASH_BITS;
    const HASH_LEN: usize = 4;
    const MAX_CHAIN: usize = 2;
    const NICE_LEN: usize = 16;
    const MAX_INSERT: usize = 16;
    const SKIP_TRIGGER: u32 = 32;
    const MAX_SKIP: u32 = 16;

    fn hash4(data: &[u8], pos: usize) -> usize {
        let v = u32::from_le_bytes(data[pos..pos + 4].try_into().expect("4 bytes"));
        (v.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
    }

    /// Generation-tagged head table plus one `prev` link per position.
    #[derive(Default)]
    pub struct Scratch {
        heads: Vec<u64>,
        generation: u32,
        prev: Vec<i32>,
    }

    impl Scratch {
        fn begin(&mut self, data_len: usize) {
            if self.heads.is_empty() {
                self.heads = vec![0; HASH_SIZE];
                self.generation = 0;
            }
            self.generation = self.generation.wrapping_add(1);
            if self.generation == 0 {
                self.heads.fill(0);
                self.generation = 1;
            }
            if self.prev.len() < data_len {
                self.prev.resize(data_len, 0);
            }
        }

        fn head(&self, h: usize) -> i32 {
            let entry = self.heads[h];
            if (entry >> 32) as u32 == self.generation {
                entry as i32
            } else {
                -1
            }
        }
    }

    pub struct Matcher<'a, 's> {
        data: &'a [u8],
        scratch: &'s mut Scratch,
        pos: usize,
        miss_run: u32,
        blind: u32,
    }

    impl<'a, 's> Matcher<'a, 's> {
        pub fn new(data: &'a [u8], scratch: &'s mut Scratch) -> Self {
            scratch.begin(data.len());
            Matcher {
                data,
                scratch,
                pos: 0,
                miss_run: 0,
                blind: 0,
            }
        }

        /// Positions left in the current blind stretch.
        pub fn blind(&self) -> u32 {
            self.blind
        }

        fn insert(&mut self, pos: usize) {
            if pos + HASH_LEN <= self.data.len() {
                let h = hash4(self.data, pos);
                let s = &mut *self.scratch;
                s.prev[pos] = s.head(h);
                s.heads[h] = (u64::from(s.generation) << 32) | pos as u64;
            }
        }

        fn longest_match(&self, pos: usize) -> Option<(usize, usize)> {
            let data = self.data;
            if pos + HASH_LEN > data.len() {
                return None;
            }
            let max_len = (data.len() - pos).min(MAX_MATCH);
            let floor = HASH_LEN - 1;
            let window_start = pos.saturating_sub(WINDOW_SIZE);
            let mut best_len = floor;
            let mut best_dist = 0usize;
            let s = &*self.scratch;
            let mut candidate = s.head(hash4(data, pos));
            let mut chain_left = MAX_CHAIN;
            let first = data[pos];
            let mut scan = data[pos + best_len];
            while candidate >= 0 && chain_left > 0 {
                let cand = candidate as usize;
                if cand < window_start {
                    break;
                }
                if data[cand + best_len] == scan && data[cand] == first {
                    let len = (0..max_len)
                        .take_while(|&i| data[cand + i] == data[pos + i])
                        .count();
                    if len > best_len {
                        best_len = len;
                        best_dist = pos - cand;
                        if len >= NICE_LEN || len >= max_len {
                            break;
                        }
                        scan = data[pos + best_len];
                    }
                }
                candidate = s.prev[cand];
                chain_left -= 1;
            }
            (best_len > floor).then_some((best_len, best_dist))
        }

        pub fn next_token(&mut self) -> Option<Token> {
            let data = self.data;
            let pos = self.pos;
            if pos >= data.len() {
                return None;
            }
            if self.blind > 0 {
                self.blind -= 1;
                self.pos += 1;
                return Some(Token::Literal(data[pos]));
            }
            match self.longest_match(pos) {
                None => {
                    self.insert(pos);
                    self.pos += 1;
                    self.miss_run += 1;
                    if self.miss_run >= SKIP_TRIGGER {
                        self.blind = ((self.miss_run - SKIP_TRIGGER) >> 5).min(MAX_SKIP);
                    }
                    Some(Token::Literal(data[pos]))
                }
                Some((len, dist)) => {
                    self.miss_run = 0;
                    let end = if len <= MAX_INSERT {
                        pos + len
                    } else {
                        pos + 1
                    };
                    for p in pos..end {
                        self.insert(p);
                    }
                    self.pos += len;
                    Some(Token::Match {
                        len: len as u16,
                        dist: dist as u16,
                    })
                }
            }
        }
    }

    pub fn tokenize(data: &[u8], scratch: &mut Scratch) -> Vec<Token> {
        let mut m = Matcher::new(data, scratch);
        std::iter::from_fn(|| m.next_token()).collect()
    }
}

/// Tokens per block, as the encoder fills them.
const BLOCK_TOKENS: usize = 1 << 16;

/// The library's tokens, filled one block at a time.
fn library(data: &[u8], scratch: &mut MatcherScratch) -> Vec<Token> {
    let mut m = FastMatcher::new(data, scratch);
    let mut tokens = Vec::new();
    while !m.is_done() {
        m.fill(BLOCK_TOKENS, |t| tokens.push(t));
    }
    tokens
}

fn xorshift_noise(seed: u64, n: usize) -> Vec<u8> {
    let mut state = seed | 1;
    (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 56) as u8
        })
        .collect()
}

/// Arbitrary bytes, low-entropy bytes, float byte-columns (the
/// partitioner's output for a smooth field, row- or column-linearised),
/// noise long enough to reach the longest blind stretches, runs, and
/// short periods.
fn inputs() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        proptest::collection::vec(any::<u8>(), 0..2048),
        proptest::collection::vec(prop_oneof![Just(0u8), Just(1), Just(255)], 0..16_384),
        (
            any::<bool>(),
            1usize..4,
            1u32..20_000,
            any::<u64>(),
            1usize..40_000
        )
            .prop_map(|(f64_field, columns, period, seed, n)| {
                let mut state = seed | 1;
                let elements: Vec<Vec<u8>> = (0..n)
                    .map(|i| {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        let x =
                            (i as f64 / period as f64).sin() * 1e3 + (state >> 40) as f64 * 1e-9;
                        let bytes = if f64_field {
                            x.to_le_bytes().to_vec()
                        } else {
                            (x as f32).to_le_bytes().to_vec()
                        };
                        bytes[bytes.len() - columns..].to_vec()
                    })
                    .collect();
                if seed % 2 == 0 {
                    elements.concat()
                } else {
                    (0..columns)
                        .flat_map(|c| elements.iter().map(move |e| e[c]))
                        .collect()
                }
            }),
        (any::<u64>(), 0usize..50_000).prop_map(|(seed, n)| xorshift_noise(seed, n)),
        proptest::collection::vec((any::<u8>(), 1usize..600), 0..64).prop_map(|runs| {
            runs.into_iter()
                .flat_map(|(b, n)| std::iter::repeat_n(b, n))
                .collect()
        }),
        (proptest::collection::vec(any::<u8>(), 1..24), 16usize..8192)
            .prop_map(|(pattern, n)| pattern.iter().copied().cycle().take(n).collect()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn tokens_match_the_chain_matcher(data in inputs()) {
        let want = oracle::tokenize(&data, &mut oracle::Scratch::default());
        prop_assert_eq!(library(&data, &mut MatcherScratch::new()), want);
    }

    #[test]
    fn tokens_match_through_one_reused_scratch(batch in proptest::collection::vec(inputs(), 2..6)) {
        // Each side keeps its own tables dirty across the batch, as the
        // pipeline does chunk after chunk.
        let mut ours = MatcherScratch::new();
        let mut theirs = oracle::Scratch::default();
        for data in &batch {
            prop_assert_eq!(library(data, &mut ours), oracle::tokenize(data, &mut theirs));
        }
    }
}

#[test]
fn a_blind_stretch_straddling_a_block_boundary_resumes_exactly() {
    // Noise first, so the matcher is deep in its skip regime (16 of
    // every 17 positions blind) when the first block fills up; then a
    // repetitive tail, so matches follow in the second block.
    let mut data = xorshift_noise(0x05EE_D0FB_114D, BLOCK_TOKENS + 3_000);
    data.extend(b"isobar preconditioner ".repeat(2_000));

    let mut scratch = oracle::Scratch::default();
    let mut m = oracle::Matcher::new(&data, &mut scratch);
    let mut want: Vec<Token> = Vec::new();
    let mut blind_before_boundary = 0;
    while let Some(t) = m.next_token() {
        want.push(t);
        if want.len() == BLOCK_TOKENS - 1 {
            blind_before_boundary = m.blind();
        }
    }
    // The last token of the first block and the first of the second
    // are both inside one blind stretch.
    assert!(
        blind_before_boundary >= 2,
        "the input no longer puts a blind stretch across the boundary ({blind_before_boundary})"
    );
    assert!(want.len() > BLOCK_TOKENS && want.iter().any(|t| matches!(t, Token::Match { .. })));

    let mut ours = MatcherScratch::new();
    assert_eq!(library(&data, &mut ours), want);
    // And again on the now dirty scratch.
    assert_eq!(library(&data, &mut ours), want);
}
