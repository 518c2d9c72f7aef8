//! Interoperability with reference zlib.
//!
//! The decoder must accept streams produced by the canonical zlib
//! library, and the encoder's streams must decode under the RFC
//! 1950/1951 rules. The fixtures below were produced by CPython's
//! `zlib.compress(data, 6)` (which wraps madler/zlib) and are embedded
//! verbatim, beside one stream per block kind and copy path in
//! `tests/zlib_fixtures/` (see [`block_kind_fixtures`] for the
//! generator); `deflate_interop_checked_externally` in this repository's
//! EXPERIMENTS.md records the reverse check (reference zlib inflating
//! our output).

use isobar_codecs::deflate::Deflate;
use isobar_codecs::{Codec, CodecScratch};

struct Fixture {
    plain: Vec<u8>,
    zlib_stream: &'static [u8],
}

fn fixtures() -> Vec<Fixture> {
    vec![
        Fixture {
            plain: b"hello".to_vec(),
            zlib_stream: &[120, 156, 203, 72, 205, 201, 201, 7, 0, 6, 44, 2, 21],
        },
        Fixture {
            plain: Vec::new(),
            zlib_stream: &[120, 156, 3, 0, 0, 0, 0, 1],
        },
        Fixture {
            plain: vec![b'a'; 40],
            zlib_stream: &[120, 156, 75, 76, 36, 14, 0, 0, 54, 235, 15, 41],
        },
        Fixture {
            plain: b"the quick brown fox jumps over the lazy dog. ".repeat(20),
            zlib_stream: &[
                120, 156, 43, 201, 72, 85, 40, 44, 205, 76, 206, 86, 72, 42, 202, 47, 207, 83, 72,
                203, 175, 80, 200, 42, 205, 45, 40, 86, 200, 47, 75, 45, 82, 40, 1, 74, 231, 36,
                86, 85, 42, 164, 228, 167, 235, 129, 121, 163, 138, 71, 21, 143, 42, 166, 170, 98,
                0, 229, 33, 69, 156,
            ],
        },
        Fixture {
            plain: (0..=255u8).collect::<Vec<u8>>().repeat(3),
            zlib_stream: &[
                120, 156, 99, 96, 100, 98, 102, 97, 101, 99, 231, 224, 228, 226, 230, 225, 229,
                227, 23, 16, 20, 18, 22, 17, 21, 19, 151, 144, 148, 146, 150, 145, 149, 147, 87,
                80, 84, 82, 86, 81, 85, 83, 215, 208, 212, 210, 214, 209, 213, 211, 55, 48, 52, 50,
                54, 49, 53, 51, 183, 176, 180, 178, 182, 177, 181, 179, 119, 112, 116, 114, 118,
                113, 117, 115, 247, 240, 244, 242, 246, 241, 245, 243, 15, 8, 12, 10, 14, 9, 13,
                11, 143, 136, 140, 138, 142, 137, 141, 139, 79, 72, 76, 74, 78, 73, 77, 75, 207,
                200, 204, 202, 206, 201, 205, 203, 47, 40, 44, 42, 46, 41, 45, 43, 175, 168, 172,
                170, 174, 169, 173, 171, 111, 104, 108, 106, 110, 105, 109, 107, 239, 232, 236,
                234, 238, 233, 237, 235, 159, 48, 113, 210, 228, 41, 83, 167, 77, 159, 49, 115,
                214, 236, 57, 115, 231, 205, 95, 176, 112, 209, 226, 37, 75, 151, 45, 95, 177, 114,
                213, 234, 53, 107, 215, 173, 223, 176, 113, 211, 230, 45, 91, 183, 109, 223, 177,
                115, 215, 238, 61, 123, 247, 237, 63, 112, 240, 208, 225, 35, 71, 143, 29, 63, 113,
                242, 212, 233, 51, 103, 207, 157, 191, 112, 241, 210, 229, 43, 87, 175, 93, 191,
                113, 243, 214, 237, 59, 119, 239, 221, 127, 240, 240, 209, 227, 39, 79, 159, 61,
                127, 241, 242, 213, 235, 55, 111, 223, 189, 255, 240, 241, 211, 231, 47, 95, 191,
                125, 255, 241, 243, 215, 239, 63, 127, 255, 253, 103, 24, 245, 255, 136, 246, 63,
                0, 160, 98, 126, 144,
            ],
        },
    ]
}

#[test]
fn decodes_reference_zlib_streams() {
    let codec = Deflate::default();
    for (i, fixture) in fixtures().iter().enumerate() {
        let decoded = codec
            .decompress(fixture.zlib_stream)
            .unwrap_or_else(|e| panic!("fixture {i}: {e}"));
        assert_eq!(decoded, fixture.plain, "fixture {i}");
    }
}

fn lcg(state: u64) -> u64 {
    state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407)
}

fn text() -> Vec<u8> {
    let mut text: Vec<u8> = (0..1000u32)
        .flat_map(|i| format!("{i}:{};", i * i % 97).into_bytes())
        .collect();
    text.truncate(4096);
    text
}

fn runs() -> Vec<u8> {
    (0..4096u32).map(|i| (i / 37 % 7) as u8).collect()
}

fn noise() -> Vec<u8> {
    let mut state = 1u64;
    (0..1000)
        .map(|_| {
            state = lcg(state);
            (state >> 56) as u8
        })
        .collect()
}

/// The three high byte-columns of a random-walk f32 field, column after
/// column: what the partitioner hands the solver.
fn float_columns() -> Vec<u8> {
    let (mut state, mut walk) = (7u64, 0i64);
    let mut columns = [Vec::new(), Vec::new(), Vec::new()];
    for _ in 0..21_846 {
        state = lcg(state);
        walk += (state >> 33) as i64 % 5 - 2;
        let bytes = ((250.0 + walk as f64 * 0.05) as f32).to_le_bytes();
        for (column, byte) in columns.iter_mut().zip([bytes[3], bytes[2], bytes[1]]) {
            column.push(byte);
        }
    }
    columns.concat()
}

/// Streams of every block kind and of the decoder's every copy path,
/// from CPython's zlib 1.2.13 (`zlib.compressobj(level, DEFLATED, 15,
/// 8, strategy)`): `Z_FIXED` (fixed-Huffman blocks), `Z_RLE` (only
/// distance-1 matches), `Z_HUFFMAN_ONLY` (literals only), level 0
/// (stored blocks), a `Z_SYNC_FLUSH` + `Z_FULL_FLUSH` stream (empty
/// stored blocks mid-stream) and a 64 KiB float-column stream at the
/// default strategy. The plaintexts are rebuilt above from the same
/// integer formulas. Run from `tests/zlib_fixtures/`, this wrote them:
///
/// ```text
/// python3 - <<'EOF'
/// import struct, zlib
/// def lcg(s): return (s * 6364136223846793005 + 1442695040888963407) % 2**64
/// def text(): return b"".join(b"%d:%d;" % (i, i * i % 97) for i in range(1000))[:4096]
/// def runs(): return bytes(i // 37 % 7 for i in range(4096))
/// def noise():
///     s, out = 1, bytearray()
///     for _ in range(1000): s = lcg(s); out.append(s >> 56)
///     return bytes(out)
/// def float_columns():
///     s, v, cols = 7, 0, [bytearray(), bytearray(), bytearray()]
///     for _ in range(21846):
///         s = lcg(s); v += (s >> 33) % 5 - 2
///         b = struct.pack("<f", 250.0 + v * 0.05)
///         for col, byte in zip(cols, (b[3], b[2], b[1])): col.append(byte)
///     return bytes(b"".join(cols))
/// def deflate(data, level=6, strategy=zlib.Z_DEFAULT_STRATEGY):
///     c = zlib.compressobj(level, zlib.DEFLATED, 15, 8, strategy)
///     return c.compress(data) + c.flush()
/// def flushes():
///     t, c = text(), zlib.compressobj(6)
///     return (c.compress(t[:1500]) + c.flush(zlib.Z_SYNC_FLUSH) + c.compress(t[1500:3000])
///             + c.flush(zlib.Z_FULL_FLUSH) + c.compress(t[3000:]) + c.flush())
/// for name, stream in [("fixed", deflate(text(), strategy=zlib.Z_FIXED)),
///                      ("rle", deflate(runs(), strategy=zlib.Z_RLE)),
///                      ("huffman_only", deflate(text(), strategy=zlib.Z_HUFFMAN_ONLY)),
///                      ("stored", deflate(noise(), level=0)),
///                      ("flushes", flushes()),
///                      ("float_columns", deflate(float_columns()))]:
///     open(name + ".zz", "wb").write(stream)
/// EOF
/// ```
fn block_kind_fixtures() -> Vec<(&'static str, Vec<u8>, &'static [u8])> {
    vec![
        ("fixed", text(), include_bytes!("zlib_fixtures/fixed.zz")),
        ("rle", runs(), include_bytes!("zlib_fixtures/rle.zz")),
        (
            "huffman_only",
            text(),
            include_bytes!("zlib_fixtures/huffman_only.zz"),
        ),
        ("stored", noise(), include_bytes!("zlib_fixtures/stored.zz")),
        (
            "flushes",
            text(),
            include_bytes!("zlib_fixtures/flushes.zz"),
        ),
        (
            "float_columns",
            float_columns(),
            include_bytes!("zlib_fixtures/float_columns.zz"),
        ),
    ]
}

#[test]
fn decodes_reference_streams_of_every_block_kind() {
    let codec = Deflate::default();
    let mut scratch = CodecScratch::new();
    let mut out = Vec::new();
    for (name, plain, stream) in block_kind_fixtures() {
        assert_eq!(codec.decompress(stream).as_ref(), Ok(&plain), "{name}");
        // Again through one reused scratch and output buffer.
        codec
            .decompress_into(stream, &mut out, &mut scratch)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(out, plain, "{name}");
    }
}

#[test]
fn reference_streams_round_trip_through_our_encoder() {
    // Not byte-identical output (block decisions differ), but our
    // encoder must reproduce the same plaintext through our decoder —
    // and the plaintexts here are the reference corpus.
    let codec = Deflate::default();
    for fixture in fixtures() {
        let ours = codec.compress(&fixture.plain);
        assert_eq!(codec.decompress(&ours).unwrap(), fixture.plain);
    }
}
