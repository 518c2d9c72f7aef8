//! The DEFLATE solver: RFC 1951 compression in an RFC 1950 (zlib)
//! container — the reproduction's stand-in for the paper's "zlib".
//!
//! Pipeline: LZ77 matching ([`crate::lz77`]: greedy over two-slot hash
//! buckets at `Fast`, hash chains with lazy evaluation at `Default` and
//! `Best`) → per-block canonical Huffman coding with
//! stored/fixed/dynamic block selection ([`encoder`]) → zlib framing
//! with an Adler-32 integrity checksum.

pub mod decoder;
pub mod encoder;
pub mod tables;

pub use decoder::{inflate_into, inflate_raw};
pub use encoder::{deflate_raw, deflate_raw_into, DeflateScratch};

use crate::bitio::{LsbBitReader, LsbBitWriter};
use crate::codec::{Codec, CodecError, CodecId, CodecScratch, CompressionLevel};

/// Compute the Adler-32 checksum of `data` (RFC 1950 §8.2).
pub fn adler32(data: &[u8]) -> u32 {
    let mut state = Adler32::new();
    state.update(data);
    state.finish()
}

/// Incremental Adler-32 state, for streaming consumers.
#[derive(Debug, Clone)]
pub struct Adler32 {
    a: u32,
    b: u32,
}

impl Default for Adler32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Adler32 {
    /// Fresh state (checksum of the empty string is 1).
    pub fn new() -> Self {
        Adler32 { a: 1, b: 0 }
    }

    /// Fold `data` into the running checksum via the dispatched kernel
    /// (AVX2 `maddubs` folding, or the scalar recurrence that LLVM
    /// already auto-vectorizes to ~2.6 GB/s). One cached atomic load
    /// per call, amortized over the whole buffer.
    pub fn update(&mut self, data: &[u8]) {
        let (a, b) = isobar_simd::adler::fold(isobar_simd::active_tier(), self.a, self.b, data);
        self.a = a;
        self.b = b;
    }

    /// Current checksum value; the state stays usable.
    pub fn finish(&self) -> u32 {
        (self.b << 16) | self.a
    }
}

/// DEFLATE in a zlib wrapper, as a [`Codec`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Deflate {
    level: CompressionLevel,
}

impl Deflate {
    /// Create the codec at the given effort level.
    pub fn new(level: CompressionLevel) -> Self {
        Deflate { level }
    }

    /// The configured effort level.
    pub fn level(&self) -> CompressionLevel {
        self.level
    }
}

impl Codec for Deflate {
    fn id(&self) -> CodecId {
        CodecId::Deflate
    }

    fn compress(&self, data: &[u8]) -> Vec<u8> {
        // Delegate to the scratch path with one-shot scratch: the two
        // entry points are byte-identical by construction.
        let mut out = Vec::with_capacity(data.len() / 2 + 64);
        self.compress_into(data, &mut out, &mut CodecScratch::new());
        out
    }

    fn compress_into(&self, data: &[u8], out: &mut Vec<u8>, scratch: &mut CodecScratch) {
        // zlib header: CMF = 0x78 (deflate, 32 KiB window); FLG chosen so
        // (CMF·256 + FLG) % 31 == 0 with FLEVEL matching our level.
        let cmf: u8 = 0x78;
        let flevel: u8 = match self.level {
            CompressionLevel::Fast => 0,
            CompressionLevel::Default => 2,
            CompressionLevel::Best => 3,
        };
        let mut flg = flevel << 6;
        let rem = (u16::from(cmf) * 256 + u16::from(flg)) % 31;
        if rem != 0 {
            flg += (31 - rem) as u8;
        }
        out.clear();
        out.push(cmf);
        out.push(flg);
        // The bit writer takes over the reused output buffer, so the
        // deflate body lands in place without an intermediate vector.
        let mut w = LsbBitWriter::with_prefix(std::mem::take(out));
        deflate_raw_into(data, self.level, &mut scratch.deflate, &mut w);
        *out = w.finish();
        out.extend_from_slice(&adler32(data).to_be_bytes());
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
        if data.len() < 6 {
            return Err(CodecError::UnexpectedEof);
        }
        let (cmf, flg) = (data[0], data[1]);
        if cmf & 0x0f != 8 {
            return Err(CodecError::Corrupt("zlib header: not deflate"));
        }
        if (u16::from(cmf) * 256 + u16::from(flg)) % 31 != 0 {
            return Err(CodecError::Corrupt("zlib header check failed"));
        }
        if flg & 0x20 != 0 {
            return Err(CodecError::Corrupt("preset dictionaries unsupported"));
        }
        let mut r = LsbBitReader::new(&data[2..]);
        out.clear();
        decoder::inflate_with(&mut r, out, &mut scratch.inflate)?;
        let trailer = r.remaining_bytes();
        if trailer.len() < 4 {
            return Err(CodecError::UnexpectedEof);
        }
        let expected = u32::from_be_bytes([trailer[0], trailer[1], trailer[2], trailer[3]]);
        let actual = adler32(out);
        if expected != actual {
            return Err(CodecError::ChecksumMismatch { expected, actual });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adler32_known_vectors() {
        // Reference values from the zlib implementation.
        assert_eq!(adler32(b""), 1);
        assert_eq!(adler32(b"a"), 0x0062_0062);
        assert_eq!(adler32(b"abc"), 0x024d_0127);
        assert_eq!(adler32(b"Wikipedia"), 0x11E6_0398);
    }

    #[test]
    fn adler32_chunking_is_transparent() {
        // The NMAX folding must not change results on long inputs.
        let data: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        let mut a: u32 = 1;
        let mut b: u32 = 0;
        for &byte in &data {
            a = (a + byte as u32) % 65_521;
            b = (b + a) % 65_521;
        }
        assert_eq!(adler32(&data), (b << 16) | a);
    }

    #[test]
    fn incremental_adler_matches_one_shot_for_any_split() {
        let data: Vec<u8> = (0..10_000u32).map(|i| (i * 7 % 256) as u8).collect();
        let want = adler32(&data);
        for split in [0usize, 1, 13, 5552, 5553, 9999, 10_000] {
            let mut state = Adler32::new();
            state.update(&data[..split]);
            state.update(&data[split..]);
            assert_eq!(state.finish(), want, "split {split}");
        }
        // Many tiny updates.
        let mut state = Adler32::new();
        for byte in &data {
            state.update(std::slice::from_ref(byte));
        }
        assert_eq!(state.finish(), want);
    }

    #[test]
    fn zlib_round_trip_all_levels() {
        let data = b"compressible compressible compressible data".repeat(500);
        for level in CompressionLevel::ALL {
            let codec = Deflate::new(level);
            let packed = codec.compress(&data);
            assert!(packed.len() < data.len());
            assert_eq!(codec.decompress(&packed).unwrap(), data);
        }
    }

    #[test]
    fn zlib_header_is_standards_conformant() {
        let packed = Deflate::default().compress(b"x");
        assert_eq!(packed[0] & 0x0f, 8, "CM must be 8 (deflate)");
        assert_eq!(
            (u16::from(packed[0]) * 256 + u16::from(packed[1])) % 31,
            0,
            "FCHECK must make the header a multiple of 31"
        );
    }

    #[test]
    fn corrupted_payload_fails_checksum() {
        let codec = Deflate::default();
        let data = b"some payload that is long enough to matter".repeat(30);
        let mut packed = codec.compress(&data);
        // Flip a bit inside the deflate payload (not the header).
        let mid = packed.len() / 2;
        packed[mid] ^= 0x10;
        assert!(codec.decompress(&packed).is_err());
    }

    #[test]
    fn corrupted_header_is_rejected() {
        let codec = Deflate::default();
        let mut packed = codec.compress(b"data");
        packed[0] = 0x79; // CM becomes 9
        assert!(matches!(
            codec.decompress(&packed),
            Err(CodecError::Corrupt(_))
        ));
    }

    #[test]
    fn empty_input_round_trips() {
        let codec = Deflate::default();
        let packed = codec.compress(b"");
        assert_eq!(codec.decompress(&packed).unwrap(), b"");
    }
}
