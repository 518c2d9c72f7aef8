//! Static DEFLATE symbol tables (RFC 1951 §3.2.5–§3.2.6).

/// Number of literal/length symbols (0–285 used, 286/287 reserved).
pub const NUM_LITLEN: usize = 288;
/// Number of distance symbols (0–29 used).
pub const NUM_DIST: usize = 30;
/// End-of-block symbol.
pub const EOB: usize = 256;
/// Code-length alphabet size (symbols 0–18).
pub const NUM_CODELEN: usize = 19;
/// Maximum code length for literal/length and distance codes.
pub const MAX_CODE_LEN: u8 = 15;
/// Maximum code length for the code-length code itself.
pub const MAX_CODELEN_LEN: u8 = 7;

/// Order in which code-length code lengths are stored in a dynamic
/// block header (RFC 1951 §3.2.7).
pub const CODELEN_ORDER: [usize; NUM_CODELEN] = [
    16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15,
];

/// Base match length for each length code 257..=285.
pub const LENGTH_BASE: [u16; 29] = [
    3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31, 35, 43, 51, 59, 67, 83, 99, 115, 131,
    163, 195, 227, 258,
];

/// Extra bits for each length code 257..=285.
pub const LENGTH_EXTRA: [u8; 29] = [
    0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0,
];

/// Base distance for each distance code 0..=29.
pub const DIST_BASE: [u16; 30] = [
    1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193, 257, 385, 513, 769, 1025, 1537,
    2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577,
];

/// Extra bits for each distance code 0..=29.
pub const DIST_EXTRA: [u8; 30] = [
    0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13,
    13,
];

/// Length (minus [`MIN_MATCH`](crate::lz77::MIN_MATCH)) → length code.
/// Every match resolves its symbol here, so a direct 256-entry lookup
/// beats searching the base table.
static LENGTH_TO_CODE: [u8; 256] = build_length_table();

const fn build_length_table() -> [u8; 256] {
    let mut t = [0u8; 256];
    let mut code = 0;
    while code < 29 {
        let start = LENGTH_BASE[code] as usize;
        // Length 258 gets code 285 (base 258, 0 extra), never 284 + extra.
        let end = if code + 1 < 29 {
            LENGTH_BASE[code + 1] as usize
        } else {
            259
        };
        let mut len = start;
        while len < end {
            t[len - 3] = code as u8;
            len += 1;
        }
        code += 1;
    }
    t
}

/// Two-level distance table, zlib-style: index `dist - 1` directly for
/// distances up to 256, and `256 + ((dist - 1) >> 7)` beyond. Codes for
/// distances above 256 have at least 7 extra bits, so their base ranges
/// are 128-aligned and the high half of the table is exact.
static DIST_TO_CODE: [u8; 512] = build_dist_table();

const fn build_dist_table() -> [u8; 512] {
    const fn code_of(dist: u16) -> u8 {
        let mut i = 29;
        loop {
            if DIST_BASE[i] <= dist {
                return i as u8;
            }
            i -= 1;
        }
    }
    let mut t = [0u8; 512];
    let mut d = 1usize;
    while d <= 256 {
        t[d - 1] = code_of(d as u16);
        d += 1;
    }
    let mut i = 2usize; // (dist - 1) >> 7 for dist in 257..=32768
    while i < 256 {
        t[256 + i] = code_of(((i << 7) + 1) as u16);
        i += 1;
    }
    t
}

/// Map a match length (3..=258) to `(length code - 257, extra bits, extra value)`.
#[inline]
pub fn length_code(len: u16) -> (usize, u8, u16) {
    debug_assert!((3..=258).contains(&len));
    let idx = LENGTH_TO_CODE[(len - 3) as usize] as usize;
    (idx, LENGTH_EXTRA[idx], len - LENGTH_BASE[idx])
}

/// Map a distance (1..=32768) to `(distance code, extra bits, extra value)`.
#[inline]
pub fn dist_code(dist: u16) -> (usize, u8, u16) {
    debug_assert!(dist >= 1);
    let x = (dist - 1) as usize;
    let idx = if x < 256 {
        DIST_TO_CODE[x] as usize
    } else {
        DIST_TO_CODE[256 + (x >> 7)] as usize
    };
    (idx, DIST_EXTRA[idx], dist - DIST_BASE[idx])
}

/// Fixed literal/length code lengths (RFC 1951 §3.2.6).
pub fn fixed_litlen_lengths() -> [u8; NUM_LITLEN] {
    let mut lens = [0u8; NUM_LITLEN];
    for (sym, len) in lens.iter_mut().enumerate() {
        *len = match sym {
            0..=143 => 8,
            144..=255 => 9,
            256..=279 => 7,
            _ => 8,
        };
    }
    lens
}

/// Fixed distance code lengths: all 5 bits.
pub fn fixed_dist_lengths() -> [u8; NUM_DIST] {
    [5u8; NUM_DIST]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn length_code_covers_all_lengths_exactly() {
        for len in 3u16..=258 {
            let (code, extra, value) = length_code(len);
            assert!(code < 29);
            assert_eq!(LENGTH_BASE[code] + value, len);
            assert!(
                value < (1 << extra) || extra == 0 && value == 0,
                "len {len}"
            );
        }
        // Spot-check boundary values against the RFC table.
        assert_eq!(length_code(3), (0, 0, 0));
        assert_eq!(length_code(10), (7, 0, 0));
        assert_eq!(length_code(11), (8, 1, 0));
        assert_eq!(length_code(12), (8, 1, 1));
        assert_eq!(length_code(257), (27, 5, 30));
        assert_eq!(length_code(258), (28, 0, 0));
    }

    #[test]
    fn dist_code_covers_all_distances_exactly() {
        for dist in 1u16..=32767 {
            let (code, extra, value) = dist_code(dist);
            assert!(code < 30);
            assert_eq!(DIST_BASE[code] + value, dist);
            if extra > 0 {
                assert!(value < (1 << extra));
            } else {
                assert_eq!(value, 0);
            }
        }
        assert_eq!(dist_code(1), (0, 0, 0));
        assert_eq!(dist_code(4), (3, 0, 0));
        assert_eq!(dist_code(5), (4, 1, 0));
        assert_eq!(dist_code(24577), (29, 13, 0));
    }

    #[test]
    fn fixed_tables_match_rfc() {
        let lit = fixed_litlen_lengths();
        assert_eq!(lit[0], 8);
        assert_eq!(lit[143], 8);
        assert_eq!(lit[144], 9);
        assert_eq!(lit[255], 9);
        assert_eq!(lit[256], 7);
        assert_eq!(lit[279], 7);
        assert_eq!(lit[280], 8);
        assert_eq!(lit[287], 8);
        assert!(fixed_dist_lengths().iter().all(|&l| l == 5));
    }
}
