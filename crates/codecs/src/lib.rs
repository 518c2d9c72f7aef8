#![warn(missing_docs)]

//! From-scratch general-purpose lossless codecs used as ISOBAR "solvers".
//!
//! The ISOBAR paper (ICDE 2012) preconditions input for general-purpose
//! lossless compressors, using zlib and bzlib2 as its reference solvers.
//! This crate reimplements both families from first principles so the
//! whole reproduction is self-contained:
//!
//! * [`deflate`] — a DEFLATE (RFC 1951) encoder/decoder with a zlib
//!   (RFC 1950) container: LZ77 matching (greedy at the fast level, hash
//!   chains with lazy evaluation above it), fixed and dynamic canonical
//!   Huffman blocks, stored-block fallback.
//! * [`bwt`] — a bzip2-class block codec: run-length preconditioning,
//!   Burrows–Wheeler transform (suffix-array based), move-to-front,
//!   zero-run encoding, and canonical Huffman entropy coding.
//!
//! Shared substrates live in their own modules: [`bitio`] (LSB- and
//! MSB-first bit streams), [`huffman`] (package-merge length-limited code
//! construction plus canonical encode/decode tables), [`lz77`] (match
//! finding), [`suffix`] (SA-IS suffix array construction), [`mtf`] and
//! [`rle`].
//!
//! All codecs implement the [`Codec`] trait, which is the interface the
//! ISOBAR pipeline drives. Every codec round-trips arbitrary byte
//! streams exactly; this is enforced by unit and property tests.
//!
//! # Example
//!
//! ```
//! use isobar_codecs::{Codec, deflate::Deflate, bwt::Bzip2Like};
//!
//! let data: Vec<u8> = b"how much wood would a woodchuck chuck".repeat(100);
//! for codec in [&Deflate::default() as &dyn Codec, &Bzip2Like::default()] {
//!     let packed = codec.compress(&data);
//!     assert!(packed.len() < data.len());
//!     assert_eq!(codec.decompress(&packed).unwrap(), data);
//! }
//! ```

pub mod bitio;
pub mod bwt;
pub mod codec;
pub mod deflate;
pub mod huffman;
pub mod lz77;
pub mod mtf;
pub mod pfor;
pub mod rle;
pub mod shuffle;
pub mod suffix;
pub mod xxhash;

pub use codec::{
    codec_for, Codec, CodecError, CodecId, CodecScratch, CompressionLevel, SOLVERS_BY_SPEED,
};
