//! Suffix array construction with SA-IS (induced sorting).
//!
//! The bzip2-class solver needs sorted suffixes to compute the
//! Burrows–Wheeler transform of each block. SA-IS runs in O(n) time,
//! which keeps the BWT cost linear in the 900 KiB blocks the solver
//! uses. The algorithm is Nong, Zhang & Chan (2009) in the
//! space-frugal shape Yuta Mori's `sais-lite` gave it:
//!
//! * The text is sorted in its native width (`u8` at the top level,
//!   `u32` names in the recursion) with a *virtual* sentinel: nothing
//!   is appended, the end of the text simply compares smallest.
//! * There is no S/L type array. A suffix's type follows from two
//!   adjacent text symbols at the moment it is placed, and the one bit
//!   the next pass needs — "my predecessor is of the other type, do
//!   not induce from me" — rides in the entry's sign bit.
//! * LMS-substring lengths, names, the reduced string and the
//!   recursion all live in the suffix array's own unused space; the
//!   only memory beside the output is two bucket arrays per level,
//!   borrowed from [`SuffixScratch`].
//!
//! Entries are stored as `u32` and read as `i32` for the sign tests,
//! so the finished array is the caller's `Vec<u32>` with no copy.

/// Reusable bucket storage for [`suffix_array_into`]: one counts array
/// and one cursor array per recursion level (2 × 256 entries at the
/// top, 2 × the number of distinct LMS names below).
#[derive(Debug, Default)]
pub struct SuffixScratch {
    buckets: Vec<u32>,
}

/// Suffix array of `text` with an implicit, smallest sentinel.
///
/// `sa` is resized to `text.len() + 1`: `sa[0]` is the sentinel suffix
/// (`text.len()`), followed by the start positions of all suffixes of
/// `text` in lexicographic order. Warm calls (an `sa` and `scratch`
/// that have seen an input at least this large) do not allocate.
///
/// # Panics
///
/// Panics if `text` has `i32::MAX` bytes or more (positions must leave
/// the sign bit free).
pub fn suffix_array_into(text: &[u8], sa: &mut Vec<u32>, scratch: &mut SuffixScratch) {
    let n = text.len();
    assert!(n < i32::MAX as usize, "text too long for 31-bit positions");
    sa.resize(n + 1, 0);
    sa[0] = n as u32;
    match n {
        0 => {}
        1 => sa[1] = 0,
        _ => {
            scratch.buckets.clear();
            sais(text, &mut sa[1..], 256, &mut scratch.buckets);
        }
    }
}

/// Allocating convenience form of [`suffix_array_into`].
pub fn suffix_array_bytes(text: &[u8]) -> Vec<u32> {
    let mut sa = Vec::new();
    suffix_array_into(text, &mut sa, &mut SuffixScratch::default());
    sa
}

/// A text symbol: a byte at the top level, an LMS-substring name in
/// the recursion.
trait Symbol: Copy + Ord {
    fn index(self) -> usize;
}

impl Symbol for u8 {
    #[inline(always)]
    fn index(self) -> usize {
        self as usize
    }
}

impl Symbol for u32 {
    #[inline(always)]
    fn index(self) -> usize {
        self as usize
    }
}

/// Entry is a flagged position (sign bit set).
#[inline(always)]
fn flagged(v: u32) -> bool {
    (v as i32) < 0
}

/// Entry is an unflagged position other than 0 (0 doubles as "empty":
/// suffix 0 has no predecessor, so nothing is ever induced from it).
#[inline(always)]
fn live(v: u32) -> bool {
    (v as i32) > 0
}

fn count_symbols<S: Symbol>(t: &[S], counts: &mut [u32]) {
    counts.fill(0);
    for &c in t {
        counts[c.index()] += 1;
    }
}

/// Bucket boundaries from symbol counts: starts, or ends (exclusive).
fn bucket_bounds(counts: &[u32], bounds: &mut [u32], ends: bool) {
    let mut sum = 0u32;
    for (bound, &count) in bounds.iter_mut().zip(counts) {
        *bound = if ends { sum + count } else { sum };
        sum += count;
    }
}

/// Visit every LMS position of `t` (an S-type position whose left
/// neighbour is L-type) from right to left. The last symbol is L-type
/// (the virtual sentinel is smaller), and position 0 is never LMS.
fn for_each_lms_rev<S: Symbol>(t: &[S], mut visit: impl FnMut(usize)) {
    let mut s_type = false;
    for i in (1..t.len()).rev() {
        let (c0, c1) = (t[i - 1], t[i]);
        let left_s_type = c0 < c1 || (c0 == c1 && s_type);
        if s_type && !left_s_type {
            visit(i);
        }
        s_type = left_s_type;
    }
}

/// SA-IS over `t` (alphabet `0..k`, at least two symbols long) into
/// `sa[..t.len()]`; whatever `sa` holds beyond that is free space the
/// recursion may use. Returns the number of levels it took (1 = no
/// recursion), which the tests use to prove the deep paths ran.
fn sais<S: Symbol>(t: &[S], sa: &mut [u32], k: usize, buckets: &mut Vec<u32>) -> usize {
    let n = t.len();
    debug_assert!(n >= 2 && sa.len() >= n);
    let base = buckets.len();
    buckets.resize(base + 2 * k, 0);
    let mut levels = 1;

    // Stage 1: drop the LMS positions at their buckets' ends and
    // induce-sort the LMS substrings from them.
    let (m, names) = {
        let (counts, cursors) = buckets[base..].split_at_mut(k);
        count_symbols(t, counts);
        bucket_bounds(counts, cursors, true);
        sa[..n].fill(0);
        let mut m = 0usize;
        for_each_lms_rev(t, |p| {
            let cursor = &mut cursors[t[p].index()];
            *cursor -= 1;
            sa[*cursor as usize] = p as u32;
            m += 1;
        });
        if m > 1 {
            sort_lms_substrings(t, sa, counts, cursors);
            (m, name_lms_substrings(t, sa, m))
        } else {
            (m, m)
        }
    };

    // Stage 2: names that collide mean LMS-substring order is not yet
    // LMS-suffix order; sort the string of names (at most n/2 long) in
    // the head of `sa`, with the names themselves parked at its tail.
    if names < m {
        let names_at = sa.len() - m;
        let mut j = m;
        for i in (m..m + (n >> 1)).rev() {
            let name = sa[i];
            if name != 0 {
                j -= 1;
                sa[names_at + j] = name - 1;
            }
        }
        debug_assert_eq!(j, 0);
        let (head, tail) = sa.split_at_mut(names_at);
        levels += sais(&*tail, head, names, buckets);
        // Rank in the reduced string → LMS position in the text.
        let mut j = m;
        for_each_lms_rev(t, |p| {
            j -= 1;
            tail[j] = p as u32;
        });
        for rank in &mut head[..m] {
            *rank = tail[*rank as usize];
        }
    }

    // Stage 3: spread the sorted LMS suffixes (now `sa[..m]`) to their
    // buckets' ends, clearing everything else, and induce the rest.
    let (counts, cursors) = buckets[base..].split_at_mut(k);
    if m > 1 {
        bucket_bounds(counts, cursors, true);
        let mut j = n;
        for i in (0..m).rev() {
            let p = sa[i];
            let end = &mut cursors[t[p as usize].index()];
            *end -= 1;
            let slot = *end as usize;
            sa[slot + 1..j].fill(0);
            sa[slot] = p;
            j = slot;
        }
        sa[..j].fill(0);
    }
    induce_suffixes(t, &mut sa[..n], counts, cursors);
    buckets.truncate(base);
    levels
}

/// Induced sort of the LMS *substrings*: on return the flagged entries
/// of `sa`, read left to right, are the LMS positions in substring
/// order, and every other entry is 0.
fn sort_lms_substrings<S: Symbol>(t: &[S], sa: &mut [u32], counts: &[u32], cursors: &mut [u32]) {
    let n = t.len();
    // L pass, left to right. An unflagged entry j says "j - 1 is
    // L-type": place it at its bucket's head, flagged when *its* left
    // neighbour is S-type (it will seed the S pass, not this one).
    bucket_bounds(counts, cursors, false);
    let mut place_l = |sa: &mut [u32], q: usize| {
        let c = t[q];
        let entry = if q > 0 && t[q - 1] < c {
            !(q as u32)
        } else {
            q as u32
        };
        let head = &mut cursors[c.index()];
        sa[*head as usize] = entry;
        *head += 1;
    };
    place_l(sa, n - 1); // induced by the virtual sentinel
    for i in 0..n {
        let j = sa[i];
        if live(j) {
            place_l(sa, j as usize - 1);
            sa[i] = 0;
        } else if flagged(j) {
            sa[i] = !j;
        }
    }
    // S pass, right to left. What is left are L-type entries with an
    // S-type left neighbour; each placed S-type entry is flagged when
    // its own left neighbour is L-type — that is, when it is LMS.
    bucket_bounds(counts, cursors, true);
    for i in (0..n).rev() {
        let j = sa[i];
        if live(j) {
            let q = j as usize - 1;
            let c = t[q];
            let entry = if q > 0 && t[q - 1] > c {
                !(q as u32)
            } else {
                q as u32
            };
            let tail = &mut cursors[c.index()];
            *tail -= 1;
            sa[*tail as usize] = entry;
            sa[i] = 0;
        }
    }
}

/// Compact the `m` sorted LMS substrings to `sa[..m]` and name them:
/// `sa[m + p / 2]` receives the 1-based name of the substring starting
/// at `p` (LMS positions are at least 2 apart, so the slots are
/// distinct, and `2m ≤ n` keeps them inside `sa[..n]`). Returns the
/// number of distinct names.
fn name_lms_substrings<S: Symbol>(t: &[S], sa: &mut [u32], m: usize) -> usize {
    let n = t.len();
    let mut found = 0;
    for i in 0..n {
        let v = sa[i];
        if flagged(v) {
            sa[i] = 0;
            sa[found] = !v;
            found += 1;
            if found == m {
                break;
            }
        }
    }
    debug_assert_eq!(found, m);

    // Substring lengths, parked where the names will go. A substring
    // runs to the next LMS position inclusive; the last one runs to
    // the end of the text (and owns the sentinel).
    let mut end = n - 1;
    for_each_lms_rev(t, |p| {
        sa[m + (p >> 1)] = (end - p + 1) as u32;
        end = p;
    });

    let mut name = 0u32;
    let (mut q, mut q_len) = (n, 0usize);
    for i in 0..m {
        let p = sa[i] as usize;
        let p_len = sa[m + (p >> 1)] as usize;
        // `q + p_len < n` excludes the sentinel-owning substring,
        // which sorts before any look-alike and equals nothing.
        let same = p_len == q_len && q + p_len < n && t[p..p + p_len] == t[q..q + p_len];
        if !same {
            name += 1;
            q = p;
            q_len = p_len;
        }
        sa[m + (p >> 1)] = name;
    }
    name as usize
}

/// Final induction: `sa` holds the sorted LMS suffixes at their
/// buckets' ends and 0 elsewhere; on return it is the suffix array.
///
/// The L pass complements every entry it visits, which turns the
/// entries it flagged (L-type, S-type left neighbour) into the S
/// pass's seeds and parks everything else below zero, where the S pass
/// skips it and complements it back.
fn induce_suffixes<S: Symbol>(t: &[S], sa: &mut [u32], counts: &[u32], cursors: &mut [u32]) {
    let n = t.len();
    bucket_bounds(counts, cursors, false);
    let mut place_l = |sa: &mut [u32], q: usize| {
        let c = t[q];
        let entry = if q > 0 && t[q - 1] < c {
            !(q as u32)
        } else {
            q as u32
        };
        let head = &mut cursors[c.index()];
        sa[*head as usize] = entry;
        *head += 1;
    };
    place_l(sa, n - 1); // induced by the virtual sentinel
    for i in 0..n {
        let j = sa[i];
        sa[i] = !j;
        if live(j) {
            place_l(sa, j as usize - 1);
        }
    }
    bucket_bounds(counts, cursors, true);
    for i in (0..n).rev() {
        let j = sa[i];
        if live(j) {
            let q = j as usize - 1;
            let c = t[q];
            let entry = if q == 0 || t[q - 1] > c {
                !(q as u32)
            } else {
                q as u32
            };
            let tail = &mut cursors[c.index()];
            *tail -= 1;
            sa[*tail as usize] = entry;
        } else {
            sa[i] = !j;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// O(n² log n) reference for cross-checking: plain slice ordering,
    /// in which a proper prefix sorts first — the virtual sentinel.
    fn naive_suffix_array(bytes: &[u8]) -> Vec<u32> {
        let mut sa: Vec<u32> = (0..=bytes.len() as u32).collect();
        sa.sort_by(|&a, &b| bytes[a as usize..].cmp(&bytes[b as usize..]));
        sa
    }

    fn check(bytes: &[u8]) {
        assert_eq!(
            suffix_array_bytes(bytes),
            naive_suffix_array(bytes),
            "input {bytes:?}"
        );
    }

    /// Recursion levels SA-IS needs for `bytes`.
    fn levels(bytes: &[u8]) -> usize {
        let mut sa = vec![0u32; bytes.len()];
        sais(bytes, &mut sa, 256, &mut Vec::new())
    }

    #[test]
    fn classic_textbook_strings() {
        check(b"banana");
        check(b"mississippi");
        check(b"abracadabra");
        check(b"GTCCCGATGTCATGTCAGGA");
    }

    #[test]
    fn degenerate_inputs() {
        check(b"");
        check(b"a");
        check(b"aa");
        check(b"aaaaaaaaaa");
        check(b"ab");
        check(b"ba");
        check(b"abababababab");
        check(&[0u8, 0, 0, 1, 0, 0]);
        check(&[255u8; 32]);
    }

    #[test]
    fn forces_recursion_with_repeated_lms_names() {
        // Periodic strings create identical LMS substrings, exercising
        // the recursive branch.
        for s in [
            &b"abcabcabcabcabcabcabcabc"[..],
            b"aabaabaabaabaab",
            b"xyzxyzxyxyzxyzxyxyzxyzxy",
        ] {
            check(s);
            assert!(levels(s) >= 2, "{s:?} did not recurse");
        }
    }

    /// Fibonacci words: every level's reduced string is again
    /// Fibonacci-like, so the recursion goes as deep as the length
    /// allows.
    fn fibonacci_word(len: usize, a: u8, b: u8) -> Vec<u8> {
        let (mut prev, mut cur) = (vec![b], vec![a]);
        while cur.len() < len {
            let next = [cur.as_slice(), prev.as_slice()].concat();
            prev = std::mem::replace(&mut cur, next);
        }
        cur.truncate(len);
        cur
    }

    #[test]
    fn deep_recursion_matches_naive() {
        for (a, b) in [(b'a', b'b'), (b'b', b'a'), (0, 255)] {
            let word = fibonacci_word(3000, a, b);
            assert!(
                levels(&word) >= 3,
                "Fibonacci word recursed {} levels",
                levels(&word)
            );
            check(&word);
        }
        // Period-2 rows (the partitioner's two-column output): every
        // second position is LMS, the worst case for the reduction.
        let rows: Vec<u8> = (0..2000u32)
            .flat_map(|i| [200 + (i / 500) as u8, (i % 3) as u8])
            .collect();
        assert!(levels(&rows) >= 2);
        check(&rows);
    }

    #[test]
    fn every_short_length_over_tiny_alphabets() {
        // Exhaustive over the binary alphabet up to length 12, then
        // seeded samples of every length 0..=64 over 2–4 symbols.
        for len in 0..=12usize {
            for bits in 0..1u32 << len {
                let s: Vec<u8> = (0..len).map(|i| (bits >> i & 1) as u8).collect();
                check(&s);
            }
        }
        let mut state = 0xdead_beefu32;
        for len in 0..=64usize {
            for alphabet in 2..=4u32 {
                for _ in 0..8 {
                    let s: Vec<u8> = (0..len)
                        .map(|_| {
                            state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                            ((state >> 24) % alphabet) as u8
                        })
                        .collect();
                    check(&s);
                }
            }
        }
    }

    #[test]
    fn byte_wrapper_places_sentinel_first() {
        let sa = suffix_array_bytes(b"banana");
        assert_eq!(sa.len(), 7);
        assert_eq!(sa[0], 6, "sentinel suffix must sort first");
        // banana suffix order: a, ana, anana, banana, na, nana
        assert_eq!(&sa[1..], &[5, 3, 1, 0, 4, 2]);
    }

    #[test]
    fn suffix_array_is_a_permutation() {
        let bytes: Vec<u8> = (0..5000u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 24) as u8)
            .collect();
        let sa = suffix_array_bytes(&bytes);
        let mut seen = vec![false; sa.len()];
        for &p in &sa {
            assert!(!seen[p as usize], "duplicate position {p}");
            seen[p as usize] = true;
        }
        for w in sa.windows(2).step_by(97) {
            assert!(bytes[w[0] as usize..] < bytes[w[1] as usize..]);
        }
    }

    #[test]
    fn reused_buffers_match_fresh_ones() {
        // A long input first, so the shorter ones run in dirty,
        // oversized buffers.
        let mut sa = Vec::new();
        let mut scratch = SuffixScratch::default();
        let inputs: [&[u8]; 5] = [
            &fibonacci_word(5000, 1, 0),
            b"mississippi",
            b"",
            b"z",
            &[7u8; 300],
        ];
        for input in inputs {
            suffix_array_into(input, &mut sa, &mut scratch);
            assert_eq!(sa, naive_suffix_array(input));
        }
    }

    /// Strings that stress ties and recursion: tiny alphabets, and
    /// short motifs repeated with occasional mutations.
    fn adversarial_inputs() -> impl Strategy<Value = Vec<u8>> {
        prop_oneof![
            proptest::collection::vec(0u8..2, 0..400),
            proptest::collection::vec(0u8..3, 0..400),
            proptest::collection::vec(0u8..4, 0..400),
            proptest::collection::vec(any::<u8>(), 0..400),
            (
                proptest::collection::vec(0u8..4, 1..9),
                1usize..80,
                proptest::collection::vec((0usize..640, 0u8..4), 0..4)
            )
                .prop_map(|(motif, reps, edits)| {
                    let mut s = motif.repeat(reps);
                    for (at, byte) in edits {
                        let len = s.len();
                        s[at % len] = byte;
                    }
                    s
                }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn matches_naive_on_adversarial_inputs(bytes in adversarial_inputs()) {
            prop_assert_eq!(suffix_array_bytes(&bytes), naive_suffix_array(&bytes));
        }
    }
}
