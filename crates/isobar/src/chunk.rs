//! Input chunking (§II.D).
//!
//! Extreme-scale inputs are processed in fixed-size element chunks so
//! the analyzer's statistics stay local and memory stays bounded. The
//! paper finds compression ratios settle once chunks reach ≈ 375 000
//! doubles (≈ 3 MB, Fig. 8), consistent with block-size folklore for
//! adaptive compressors; that is the default here.

/// Default chunk size in elements (the paper's recommendation).
pub const DEFAULT_CHUNK_ELEMENTS: usize = 375_000;

/// Iterate over `data` in chunks of `chunk_elements` elements of
/// `width` bytes; the final chunk may be short.
pub fn element_chunks(
    data: &[u8],
    width: usize,
    chunk_elements: usize,
) -> impl Iterator<Item = &[u8]> {
    debug_assert!(width > 0 && data.len().is_multiple_of(width));
    debug_assert!(chunk_elements > 0);
    data.chunks(chunk_elements * width)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_cover_input_exactly() {
        let data: Vec<u8> = (0..100u8).collect(); // 25 elements of width 4
        let chunks: Vec<&[u8]> = element_chunks(&data, 4, 10).collect();
        assert_eq!(chunks.len(), 3);
        assert_eq!(chunks[0].len(), 40);
        assert_eq!(chunks[1].len(), 40);
        assert_eq!(chunks[2].len(), 20); // short tail
        let rebuilt: Vec<u8> = chunks.concat();
        assert_eq!(rebuilt, data);
    }

    #[test]
    fn exact_multiple_has_no_tail() {
        let data = vec![0u8; 80];
        let chunks: Vec<&[u8]> = element_chunks(&data, 4, 10).collect();
        assert_eq!(chunks.len(), 2);
        assert!(chunks.iter().all(|c| c.len() == 40));
    }

    #[test]
    fn empty_input_has_no_chunks() {
        assert_eq!(element_chunks(&[], 8, 100).count(), 0);
    }

    #[test]
    fn chunk_count_matches_iterator() {
        for len_elems in [1usize, 9, 10, 11, 100, 375_000 / 8] {
            let data = vec![0u8; len_elems * 8];
            assert_eq!(
                element_chunks(&data, 8, 10).count(),
                len_elems.div_ceil(10),
                "{len_elems} elements"
            );
        }
    }

    #[test]
    fn default_is_the_papers_three_megabytes() {
        assert_eq!(DEFAULT_CHUNK_ELEMENTS * 8, 3_000_000);
    }
}
