//! The [`Codec`] trait and common codec plumbing.
//!
//! ISOBAR is a *preconditioner*: it can drive any byte-oriented lossless
//! compressor. This module defines the solver interface that the
//! preconditioner (and the benchmark harness) programs against, the
//! identifiers used in container metadata, and the error type shared by
//! all decoders.

use std::error::Error;
use std::fmt;

/// Errors produced while decoding a compressed stream.
///
/// Compression itself is infallible for all codecs in this workspace:
/// any byte stream can be compressed (in the worst case into stored
/// blocks slightly larger than the input). Decompression validates the
/// stream and reports corruption instead of panicking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The stream ended before the decoder finished.
    UnexpectedEof,
    /// A structural invariant of the format was violated.
    Corrupt(&'static str),
    /// An integrity checksum did not match the decoded payload.
    ChecksumMismatch {
        /// Checksum stored in the stream.
        expected: u32,
        /// Checksum computed over the decoded bytes.
        actual: u32,
    },
    /// The stream header names a codec this build does not provide.
    UnknownCodec(u8),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEof => write!(f, "unexpected end of compressed stream"),
            CodecError::Corrupt(what) => write!(f, "corrupt stream: {what}"),
            CodecError::ChecksumMismatch { expected, actual } => write!(
                f,
                "checksum mismatch: stream says {expected:#010x}, payload hashes to {actual:#010x}"
            ),
            CodecError::UnknownCodec(id) => write!(f, "unknown codec id {id}"),
        }
    }
}

impl Error for CodecError {}

/// Effort knob shared by both solvers, mirroring zlib's level argument.
///
/// The paper's EUPA-selector trades compression ratio against
/// throughput; exposing the same axis per codec lets the selector (and
/// the ablation benches) explore intermediate points.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum CompressionLevel {
    /// Greedy matching, short hash chains: maximum throughput.
    Fast,
    /// Lazy matching with moderate chain depth (zlib level ≈ 6).
    #[default]
    Default,
    /// Deep chains and aggressive lazy matching (zlib level ≈ 9).
    Best,
}

impl CompressionLevel {
    /// All levels, in increasing-effort order. Useful for sweeps.
    pub const ALL: [CompressionLevel; 3] = [
        CompressionLevel::Fast,
        CompressionLevel::Default,
        CompressionLevel::Best,
    ];
}

impl fmt::Display for CompressionLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            CompressionLevel::Fast => "fast",
            CompressionLevel::Default => "default",
            CompressionLevel::Best => "best",
        };
        f.write_str(name)
    }
}

/// Stable identifier for a codec, stored in ISOBAR container metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum CodecId {
    /// DEFLATE in a zlib wrapper — the paper's "zlib" solver.
    Deflate = 1,
    /// The BWT block codec — the paper's "bzlib2" solver.
    Bzip2Like = 2,
}

impl CodecId {
    /// Parse a codec id byte from container metadata.
    pub fn from_u8(raw: u8) -> Result<Self, CodecError> {
        match raw {
            1 => Ok(CodecId::Deflate),
            2 => Ok(CodecId::Bzip2Like),
            other => Err(CodecError::UnknownCodec(other)),
        }
    }

    /// Human-readable name matching the paper's terminology.
    pub fn name(self) -> &'static str {
        match self {
            CodecId::Deflate => "zlib",
            CodecId::Bzip2Like => "bzlib2",
        }
    }
}

impl fmt::Display for CodecId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Reusable working memory for the allocation-free codec entry points
/// ([`Codec::compress_into`] / [`Codec::decompress_into`]).
///
/// One scratch serves every codec: each implementation uses its own
/// compartment and ignores the rest, so a caller can hold a single
/// scratch per worker (or per serial loop) and reuse it across chunks
/// regardless of which solver EUPA picked. All buffers start empty and
/// grow to their steady-state capacity during the first chunk.
#[derive(Default)]
pub struct CodecScratch {
    pub(crate) deflate: crate::deflate::encoder::DeflateScratch,
    pub(crate) bwt: crate::bwt::BwtScratch,
}

impl CodecScratch {
    /// Fresh, empty scratch; compartments are populated on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// A byte-oriented lossless compressor: the "solver" in the paper's
/// preconditioner/solver framing.
///
/// Implementations must round-trip exactly: for every `data`,
/// `decompress(&compress(data)) == data`. The `*_into` methods must be
/// byte-identical to their allocating counterparts for the same input —
/// scratch state carried over from earlier buffers must never change
/// the output (the `scratch_reuse` property suite enforces this).
pub trait Codec: Send + Sync {
    /// Stable identifier for container metadata.
    fn id(&self) -> CodecId;

    /// Compress `data`. Infallible; worst case the output is slightly
    /// larger than the input (stored blocks).
    fn compress(&self, data: &[u8]) -> Vec<u8>;

    /// Decompress a stream produced by [`Codec::compress`].
    fn decompress(&self, data: &[u8]) -> Result<Vec<u8>, CodecError>;

    /// Compress `data`, replacing the contents of `out` and borrowing
    /// working memory from `scratch`.
    ///
    /// The default delegates to [`Codec::compress`]; codecs with native
    /// support reuse both `out` and `scratch` so a warm steady state
    /// performs no allocations at all.
    fn compress_into(&self, data: &[u8], out: &mut Vec<u8>, scratch: &mut CodecScratch) {
        let _ = scratch;
        out.clear();
        out.extend_from_slice(&self.compress(data));
    }

    /// Decompress a stream produced by [`Codec::compress`], replacing
    /// the contents of `out`.
    ///
    /// The default delegates to [`Codec::decompress`]; codecs with
    /// native support decode straight into the reused `out` buffer.
    fn decompress_into(
        &self,
        data: &[u8],
        out: &mut Vec<u8>,
        scratch: &mut CodecScratch,
    ) -> Result<(), CodecError> {
        let _ = scratch;
        let bytes = self.decompress(data)?;
        out.clear();
        out.extend_from_slice(&bytes);
        Ok(())
    }

    /// Human-readable name (defaults to the id's name).
    fn name(&self) -> &'static str {
        self.id().name()
    }
}

/// Construct the codec registered under `id` at the given level.
pub fn codec_for(id: CodecId, level: CompressionLevel) -> Box<dyn Codec> {
    match id {
        CodecId::Deflate => Box::new(crate::deflate::Deflate::new(level)),
        CodecId::Bzip2Like => Box::new(crate::bwt::Bzip2Like::new(level)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codec_id_round_trips_through_u8() {
        for id in [CodecId::Deflate, CodecId::Bzip2Like] {
            assert_eq!(CodecId::from_u8(id as u8).unwrap(), id);
        }
    }

    #[test]
    fn unknown_codec_id_is_rejected() {
        assert_eq!(CodecId::from_u8(0), Err(CodecError::UnknownCodec(0)));
        assert_eq!(CodecId::from_u8(200), Err(CodecError::UnknownCodec(200)));
    }

    #[test]
    fn codec_names_match_paper_terminology() {
        assert_eq!(CodecId::Deflate.name(), "zlib");
        assert_eq!(CodecId::Bzip2Like.name(), "bzlib2");
    }

    #[test]
    fn error_messages_are_descriptive() {
        let err = CodecError::ChecksumMismatch {
            expected: 1,
            actual: 2,
        };
        let msg = err.to_string();
        assert!(msg.contains("0x00000001"));
        assert!(msg.contains("0x00000002"));
        assert!(CodecError::UnexpectedEof.to_string().contains("end"));
    }

    #[test]
    fn levels_are_ordered_by_effort() {
        assert!(CompressionLevel::Fast < CompressionLevel::Default);
        assert!(CompressionLevel::Default < CompressionLevel::Best);
        assert_eq!(CompressionLevel::default(), CompressionLevel::Default);
    }

    #[test]
    fn codec_factory_builds_both_solvers() {
        for id in [CodecId::Deflate, CodecId::Bzip2Like] {
            let codec = codec_for(id, CompressionLevel::Default);
            assert_eq!(codec.id(), id);
        }
    }
}
