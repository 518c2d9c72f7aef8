//! The merged output container (§II.D, Fig. 7).
//!
//! One framing serves the whole-file and the incremental writer: a file
//! header carrying the EUPA decision and chunking parameters, then per
//! chunk its analyzer metadata, the solver-compressed bytes C′, and the
//! verbatim incompressible bytes I, back to back. A writer that knows
//! the input up front puts its length and Adler-32 in the header (the
//! batch form); one that is fed incrementally flags the header with
//! [`LEN_IN_TRAILER`] and appends both after the last record, behind an
//! [`END_MARKER`] (the streamed form). Everything is little-endian and
//! self-describing so decompression needs no out-of-band information.
//!
//! Every chunk header embeds an XXH64 checksum covering its other fixed
//! fields and both payloads. Decoders verify it before touching the
//! payloads (behind the pipeline's default-on `verify` knob) and salvage
//! mode uses intact checksums as resync anchors.

use crate::analyzer::ColumnSelection;
use crate::error::IsobarError;
use isobar_codecs::xxhash::Xxh64;
use isobar_codecs::{CodecId, CompressionLevel};
use isobar_linearize::Linearization;

/// Container magic: "ISBR".
pub const MAGIC: [u8; 4] = *b"ISBR";
/// Container format version, the only one this build reads or writes.
pub const VERSION: u8 = 2;
/// Fixed header size in bytes.
pub const HEADER_LEN: usize = 28;
/// Fixed per-chunk metadata size in bytes, ending in the 64-bit chunk
/// checksum.
pub const CHUNK_HEADER_LEN: usize = 37;
/// The chunk-header bytes the checksum covers: all but the checksum.
const CHECKSUMMED_LEN: usize = CHUNK_HEADER_LEN - 8;
/// Seed for every XXH64 checksum in the ISOBAR formats.
pub const CHECKSUM_SEED: u64 = 0;
/// `total_len` of a streamed container's header: the length and the
/// Adler-32 follow the last record, in the trailer.
pub const LEN_IN_TRAILER: u64 = u64::MAX;
/// Byte ending a streamed container's records; not a valid mode byte.
pub const END_MARKER: u8 = 0xFF;
/// Streamed trailer size: end marker, total length (u64), Adler-32.
pub const TRAILER_LEN: usize = 13;

/// The chunk checksum: XXH64 over the non-checksum header fields
/// followed by both payloads.
fn chunk_checksum(head: &[u8], compressed: &[u8], incompressible: &[u8]) -> u64 {
    let mut hasher = Xxh64::new(CHECKSUM_SEED);
    hasher.update(&head[..CHECKSUMMED_LEN]);
    hasher.update(compressed);
    hasher.update(incompressible);
    hasher.digest()
}

/// File header fields.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Header {
    /// Format version ([`VERSION`]).
    pub version: u8,
    /// Element width ω in bytes.
    pub width: u8,
    /// EUPA-chosen solver.
    pub codec: CodecId,
    /// Solver effort level.
    pub level: CompressionLevel,
    /// EUPA-chosen linearization for compressible columns.
    pub linearization: Linearization,
    /// Preference byte (for provenance only; not needed to decode).
    pub preference: u8,
    /// Chunk size in elements.
    pub chunk_elements: u32,
    /// Original (uncompressed) length in bytes, or [`LEN_IN_TRAILER`].
    pub total_len: u64,
    /// Adler-32 of the original bytes (0 in the streamed form).
    pub checksum: u32,
}

impl Header {
    /// Serialize into the output buffer.
    pub fn write(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&MAGIC);
        out.push(self.version);
        out.push(self.width);
        out.push(self.codec as u8);
        out.push(level_to_u8(self.level));
        out.push(self.linearization as u8);
        out.push(self.preference);
        out.extend_from_slice(&[0u8; 2]); // reserved
        out.extend_from_slice(&self.chunk_elements.to_le_bytes());
        out.extend_from_slice(&self.total_len.to_le_bytes());
        out.extend_from_slice(&self.checksum.to_le_bytes());
    }

    /// Parse from the front of `data`. The two retired formats — the
    /// `ISBS` stream framing and checksum-less version-1 containers —
    /// are refused by name with [`IsobarError::Retired`].
    pub fn read(data: &[u8]) -> Result<Header, IsobarError> {
        if data.starts_with(b"ISBS") {
            return Err(IsobarError::Retired("the `ISBS` stream framing"));
        }
        if data.len() < HEADER_LEN {
            return Err(IsobarError::Truncated);
        }
        if data[..4] != MAGIC {
            return Err(IsobarError::Corrupt("bad magic"));
        }
        let version = data[4];
        if version == 1 {
            return Err(IsobarError::Retired(
                "a version-1 (checksum-less) container",
            ));
        }
        if version != VERSION {
            return Err(IsobarError::Corrupt("unsupported version"));
        }
        let width = data[5];
        if width == 0 || width as usize > 64 {
            return Err(IsobarError::Corrupt("bad element width"));
        }
        let codec = CodecId::from_u8(data[6]).map_err(IsobarError::Codec)?;
        let level = level_from_u8(data[7]).ok_or(IsobarError::Corrupt("bad level byte"))?;
        let linearization =
            Linearization::from_u8(data[8]).ok_or(IsobarError::Corrupt("bad linearization"))?;
        let preference = data[9];
        let chunk_elements = u32::from_le_bytes(data[12..16].try_into().expect("4 bytes"));
        if chunk_elements == 0 {
            return Err(IsobarError::Corrupt("zero chunk size"));
        }
        let total_len = u64::from_le_bytes(data[16..24].try_into().expect("8 bytes"));
        let checksum = u32::from_le_bytes(data[24..28].try_into().expect("4 bytes"));
        Ok(Header {
            version,
            width,
            codec,
            level,
            linearization,
            preference,
            chunk_elements,
            total_len,
            checksum,
        })
    }

    /// Whether this is the streamed form: the length and Adler-32 sit
    /// in the trailer, not here.
    pub fn len_in_trailer(&self) -> bool {
        self.total_len == LEN_IN_TRAILER
    }

    /// The batch form's length and Adler-32, as a trailer would say it.
    pub(crate) fn own_end(&self) -> Trailer {
        Trailer {
            total_len: self.total_len,
            checksum: self.checksum,
        }
    }

    /// The length and Adler-32 the container `data` declares: this
    /// header's own fields in the batch form, the trailer's in the
    /// streamed form — `None` when `data` does not end in a trailer.
    pub fn declared_end(&self, data: &[u8]) -> Option<Trailer> {
        if !self.len_in_trailer() {
            return Some(self.own_end());
        }
        let at = data.len().checked_sub(TRAILER_LEN)?;
        (at >= HEADER_LEN && data[at] == END_MARKER)
            .then(|| Trailer::parse(data[at + 1..].try_into().expect("12 bytes")))
    }
}

/// What a streamed container appends after its [`END_MARKER`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Trailer {
    /// Original (uncompressed) length in bytes.
    pub total_len: u64,
    /// Adler-32 of the original bytes.
    pub checksum: u32,
}

impl Trailer {
    /// The end marker and both fields, as written.
    pub fn to_bytes(self) -> [u8; TRAILER_LEN] {
        let mut bytes = [END_MARKER; TRAILER_LEN];
        bytes[1..9].copy_from_slice(&self.total_len.to_le_bytes());
        bytes[9..].copy_from_slice(&self.checksum.to_le_bytes());
        bytes
    }

    /// Parse the twelve bytes that follow the end marker.
    pub fn parse(fields: &[u8; TRAILER_LEN - 1]) -> Trailer {
        Trailer {
            total_len: u64::from_le_bytes(fields[..8].try_into().expect("8 bytes")),
            checksum: u32::from_le_bytes(fields[8..].try_into().expect("4 bytes")),
        }
    }
}

/// How one chunk was encoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ChunkMode {
    /// Undetermined chunk: the whole chunk went through the solver
    /// (Algorithm 1, lines 2–3).
    Passthrough = 0,
    /// Improvable chunk: compressible columns solved, incompressible
    /// stored (Algorithm 1, lines 5–7).
    Partitioned = 1,
    /// Raw chunk bytes stored unprocessed: the pipeline's
    /// graceful-degradation fallback when the solver panicked on this
    /// chunk. `compressed` holds the original `elements × width` bytes;
    /// the mask is 0 and there is no incompressible stream.
    Verbatim = 2,
}

impl ChunkMode {
    /// Parse a record's first byte.
    pub fn from_u8(raw: u8) -> Result<ChunkMode, IsobarError> {
        match raw {
            0 => Ok(ChunkMode::Passthrough),
            1 => Ok(ChunkMode::Partitioned),
            2 => Ok(ChunkMode::Verbatim),
            _ => Err(IsobarError::Corrupt("bad chunk mode")),
        }
    }
}

/// Per-chunk record: metadata + payloads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkRecord {
    /// Encoding mode.
    pub mode: ChunkMode,
    /// Elements in this chunk.
    pub elements: u32,
    /// Analyzer column mask (bit c set = column c compressible); 0 for
    /// passthrough chunks.
    pub mask: u64,
    /// Solver output C′.
    pub compressed: Vec<u8>,
    /// Verbatim incompressible bytes I (column-major).
    pub incompressible: Vec<u8>,
}

impl ChunkRecord {
    /// Exact serialized size of [`ChunkRecord::write`]'s output, so
    /// callers can reserve the full container up front.
    pub fn encoded_len(&self) -> usize {
        CHUNK_HEADER_LEN + self.compressed.len() + self.incompressible.len()
    }

    /// The fixed header bytes, chunk checksum computed and embedded.
    pub fn head_bytes(&self) -> [u8; CHUNK_HEADER_LEN] {
        let mut head = [0u8; CHUNK_HEADER_LEN];
        head[0] = self.mode as u8;
        head[1..5].copy_from_slice(&self.elements.to_le_bytes());
        head[5..13].copy_from_slice(&self.mask.to_le_bytes());
        head[13..21].copy_from_slice(&(self.compressed.len() as u64).to_le_bytes());
        head[21..29].copy_from_slice(&(self.incompressible.len() as u64).to_le_bytes());
        let checksum = chunk_checksum(&head, &self.compressed, &self.incompressible);
        head[CHECKSUMMED_LEN..].copy_from_slice(&checksum.to_le_bytes());
        head
    }

    /// Serialize into the output buffer: header, C′, then I.
    pub fn write(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.head_bytes());
        out.extend_from_slice(&self.compressed);
        out.extend_from_slice(&self.incompressible);
    }

    /// Parse one record from the front of `data`, verifying its
    /// checksum; returns the record and the number of bytes consumed.
    ///
    /// Equivalent to [`ChunkRecord::read_bounded`] with no element
    /// ceiling; callers that know the header's `chunk_elements` should
    /// prefer the bounded form.
    pub fn read(data: &[u8], width: usize) -> Result<(ChunkRecord, usize), IsobarError> {
        Self::read_bounded(data, width, u32::MAX, VERSION, true, 0)
    }

    /// Parse one record from the front of `data`, rejecting records
    /// that claim more than `max_elements` elements (a valid container
    /// never exceeds the header's `chunk_elements`); returns the record
    /// and the number of bytes consumed.
    ///
    /// When `verify` is set the payload is verified before the record
    /// is returned; a mismatch reports
    /// [`IsobarError::ChecksumMismatch`] located at `base_offset` (the
    /// record's absolute offset in the container). `_version` is the
    /// header's version byte; there is one record layout, so it selects
    /// nothing.
    pub fn read_bounded(
        data: &[u8],
        width: usize,
        max_elements: u32,
        _version: u8,
        verify: bool,
        base_offset: u64,
    ) -> Result<(ChunkRecord, usize), IsobarError> {
        let header = ChunkHeader::validate(data, width, max_elements)?;
        let total = CHUNK_HEADER_LEN
            .checked_add(header.comp_len)
            .and_then(|t| t.checked_add(header.incomp_len))
            .ok_or(IsobarError::Corrupt("chunk length overflow"))?;
        if data.len() < total {
            return Err(IsobarError::Truncated);
        }
        let (compressed, incompressible) = data[CHUNK_HEADER_LEN..total].split_at(header.comp_len);
        if verify {
            header.verify(data, compressed, incompressible, base_offset)?;
        }
        let record = ChunkRecord {
            mode: header.mode,
            elements: header.elements,
            mask: header.mask,
            compressed: compressed.to_vec(),
            incompressible: incompressible.to_vec(),
        };
        Ok((record, total))
    }

    /// The analyzer selection this record encodes. Errors on widths
    /// > 64, which no valid header can carry.
    pub fn selection(&self, width: usize) -> Result<ColumnSelection, IsobarError> {
        ColumnSelection::from_mask(self.mask, width)
    }
}

/// The validated fixed part of a chunk record.
///
/// Produced by [`ChunkHeader::validate`], which performs every
/// structural check *before the caller allocates anything* — the
/// reader uses it to vet the fixed bytes before deciding how much
/// payload to pull off the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkHeader {
    /// Encoding mode.
    pub mode: ChunkMode,
    /// Elements in the chunk.
    pub elements: u32,
    /// Analyzer column mask.
    pub mask: u64,
    /// Solver payload length C′.
    pub comp_len: usize,
    /// Verbatim payload length I.
    pub incomp_len: usize,
    /// Embedded chunk checksum.
    pub checksum: u64,
}

impl ChunkHeader {
    /// Parse and validate the fixed chunk header at the front of
    /// `data`, without touching (or requiring) any payload bytes.
    ///
    /// Checks, in order: mode byte, header completeness, element count
    /// against `max_elements`, mask width, per-mode mask constraints,
    /// and the per-mode payload-length consistency equations.
    /// Allocation-free. The checksum is *read*, not verified — payload
    /// verification belongs to whoever holds the payload bytes
    /// ([`ChunkRecord::read_bounded`]).
    pub fn validate(
        data: &[u8],
        width: usize,
        max_elements: u32,
    ) -> Result<ChunkHeader, IsobarError> {
        let mode = ChunkMode::from_u8(*data.first().ok_or(IsobarError::Truncated)?)?;
        if data.len() < CHUNK_HEADER_LEN {
            return Err(IsobarError::Truncated);
        }
        let elements = u32::from_le_bytes(data[1..5].try_into().expect("4 bytes"));
        let mask = u64::from_le_bytes(data[5..13].try_into().expect("8 bytes"));
        let comp_len = u64::from_le_bytes(data[13..21].try_into().expect("8 bytes")) as usize;
        let incomp_len = u64::from_le_bytes(data[21..29].try_into().expect("8 bytes")) as usize;
        let checksum = u64::from_le_bytes(data[29..37].try_into().expect("8 bytes"));

        if elements > max_elements {
            return Err(IsobarError::Corrupt("chunk exceeds header chunk size"));
        }
        if mask & !mask_low(width) != 0 {
            return Err(IsobarError::Corrupt("column mask wider than element"));
        }
        if mode != ChunkMode::Partitioned && mask != 0 {
            return Err(IsobarError::Corrupt("passthrough chunk with column mask"));
        }
        let incompressible_cols = width - (mask & mask_low(width)).count_ones() as usize;
        let expected_incomp = match mode {
            ChunkMode::Passthrough | ChunkMode::Verbatim => 0,
            ChunkMode::Partitioned => elements as usize * incompressible_cols,
        };
        if incomp_len != expected_incomp {
            return Err(IsobarError::Corrupt("incompressible length mismatch"));
        }
        if mode == ChunkMode::Verbatim && comp_len != elements as usize * width {
            return Err(IsobarError::Corrupt("verbatim chunk length mismatch"));
        }
        Ok(ChunkHeader {
            mode,
            elements,
            mask,
            comp_len,
            incomp_len,
            checksum,
        })
    }

    /// Verify the embedded checksum against the header bytes `head`
    /// this was validated from and the payloads that followed them; a
    /// mismatch is located at `offset`, the record's in the container.
    pub fn verify(
        &self,
        head: &[u8],
        compressed: &[u8],
        incompressible: &[u8],
        offset: u64,
    ) -> Result<(), IsobarError> {
        let actual = chunk_checksum(head, compressed, incompressible);
        if actual == self.checksum {
            return Ok(());
        }
        Err(IsobarError::ChecksumMismatch {
            offset,
            expected: self.checksum,
            actual,
        })
    }
}

#[inline]
fn mask_low(width: usize) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

/// Map a compression level to its metadata byte.
fn level_to_u8(level: CompressionLevel) -> u8 {
    match level {
        CompressionLevel::Fast => 0,
        CompressionLevel::Default => 1,
        CompressionLevel::Best => 2,
    }
}

/// Inverse of [`level_to_u8`].
fn level_from_u8(raw: u8) -> Option<CompressionLevel> {
    match raw {
        0 => Some(CompressionLevel::Fast),
        1 => Some(CompressionLevel::Default),
        2 => Some(CompressionLevel::Best),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_header() -> Header {
        Header {
            version: VERSION,
            width: 8,
            codec: CodecId::Deflate,
            level: CompressionLevel::Default,
            linearization: Linearization::Row,
            preference: 1,
            chunk_elements: 375_000,
            total_len: 12345,
            checksum: 0xDEADBEEF,
        }
    }

    #[test]
    fn header_round_trips() {
        let mut buf = Vec::new();
        demo_header().write(&mut buf);
        assert_eq!(buf.len(), HEADER_LEN);
        assert_eq!(Header::read(&buf).unwrap(), demo_header());
    }

    #[test]
    fn header_rejects_corruption() {
        let mut buf = Vec::new();
        demo_header().write(&mut buf);
        assert!(matches!(
            Header::read(&buf[..10]),
            Err(IsobarError::Truncated)
        ));

        let mut bad = buf.clone();
        bad[0] = b'X';
        assert!(Header::read(&bad).is_err());

        let mut bad = buf.clone();
        bad[4] = 99; // version
        assert!(Header::read(&bad).is_err());

        let mut bad = buf.clone();
        bad[6] = 77; // codec id
        assert!(Header::read(&bad).is_err());

        let mut bad = buf.clone();
        bad[7] = 9; // level
        assert!(Header::read(&bad).is_err());

        let mut bad = buf;
        bad[12..16].copy_from_slice(&0u32.to_le_bytes()); // chunk size 0
        assert!(Header::read(&bad).is_err());
    }

    #[test]
    fn chunk_record_round_trips() {
        let record = ChunkRecord {
            mode: ChunkMode::Partitioned,
            elements: 100,
            mask: 0b1100_0011, // 4 compressible columns of 8
            compressed: vec![1, 2, 3, 4, 5],
            incompressible: vec![9; 400],
        };
        let mut buf = Vec::new();
        record.write(&mut buf);
        buf.extend_from_slice(&[0xFF; 7]); // trailing data must be left alone
        let (parsed, consumed) = ChunkRecord::read(&buf, 8).unwrap();
        assert_eq!(parsed, record);
        assert_eq!(consumed, buf.len() - 7);
    }

    #[test]
    fn passthrough_record_round_trips() {
        let record = ChunkRecord {
            mode: ChunkMode::Passthrough,
            elements: 50,
            mask: 0,
            compressed: vec![7; 64],
            incompressible: vec![],
        };
        let mut buf = Vec::new();
        record.write(&mut buf);
        let (parsed, consumed) = ChunkRecord::read(&buf, 8).unwrap();
        assert_eq!(parsed, record);
        assert_eq!(consumed, buf.len());
    }

    #[test]
    fn chunk_record_rejects_inconsistent_lengths() {
        let record = ChunkRecord {
            mode: ChunkMode::Partitioned,
            elements: 100,
            mask: 0b0000_1111,
            compressed: vec![],
            incompressible: vec![0; 400], // correct for 4 incompressible cols
        };
        let mut buf = Vec::new();
        record.write(&mut buf);
        // Claim a different element count → expected incompressible
        // length no longer matches.
        buf[1..5].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            ChunkRecord::read(&buf, 8),
            Err(IsobarError::Corrupt(_))
        ));
    }

    #[test]
    fn chunk_record_rejects_wide_mask_and_truncation() {
        let record = ChunkRecord {
            mode: ChunkMode::Partitioned,
            elements: 10,
            mask: 0b1_0000_0000, // bit 8 set but width is 8
            compressed: vec![],
            incompressible: vec![0; 80],
        };
        let mut buf = Vec::new();
        record.write(&mut buf);
        assert!(matches!(
            ChunkRecord::read(&buf, 8),
            Err(IsobarError::Corrupt(_))
        ));

        let ok = ChunkRecord {
            mode: ChunkMode::Passthrough,
            elements: 10,
            mask: 0,
            compressed: vec![5; 100],
            incompressible: vec![],
        };
        let mut buf = Vec::new();
        ok.write(&mut buf);
        assert!(matches!(
            ChunkRecord::read(&buf[..buf.len() - 1], 8),
            Err(IsobarError::Truncated)
        ));
    }

    #[test]
    fn passthrough_record_rejects_nonzero_mask() {
        let record = ChunkRecord {
            mode: ChunkMode::Passthrough,
            elements: 10,
            mask: 0,
            compressed: vec![5; 16],
            incompressible: vec![],
        };
        let mut buf = Vec::new();
        record.write(&mut buf);
        // A passthrough record must carry mask == 0; set a bit.
        buf[5] = 0b0000_0001;
        assert_eq!(
            ChunkRecord::read(&buf, 8),
            Err(IsobarError::Corrupt("passthrough chunk with column mask"))
        );
    }

    #[test]
    fn bounded_read_rejects_oversized_element_count() {
        let record = ChunkRecord {
            mode: ChunkMode::Passthrough,
            elements: 1000,
            mask: 0,
            compressed: vec![5; 16],
            incompressible: vec![],
        };
        let mut buf = Vec::new();
        record.write(&mut buf);
        assert!(ChunkRecord::read_bounded(&buf, 8, 1000, VERSION, true, 0).is_ok());
        assert_eq!(
            ChunkRecord::read_bounded(&buf, 8, 999, VERSION, true, 0),
            Err(IsobarError::Corrupt("chunk exceeds header chunk size"))
        );
    }

    #[test]
    fn retired_formats_are_refused_by_name() {
        let mut v1 = Vec::new();
        Header {
            version: 1,
            ..demo_header()
        }
        .write(&mut v1);
        // The whole 9-byte header of the retired stream framing.
        let isbs = b"ISBS\x02\x08\x01\x01\x00";
        for old in [&v1[..], &isbs[..]] {
            assert!(matches!(Header::read(old), Err(IsobarError::Retired(_))));
        }
    }

    #[test]
    fn declared_end_comes_from_the_header_or_the_trailer() {
        let end = Trailer {
            total_len: 12345,
            checksum: 0xDEADBEEF,
        };
        let batch = demo_header();
        assert!(!batch.len_in_trailer());
        assert_eq!(batch.declared_end(&[]), Some(end));

        let streamed = Header {
            total_len: LEN_IN_TRAILER,
            checksum: 0,
            ..batch
        };
        let mut file = Vec::new();
        streamed.write(&mut file);
        assert_eq!(streamed.declared_end(&file), None, "no trailer yet");
        file.extend_from_slice(&end.to_bytes());
        assert_eq!(file.len(), HEADER_LEN + TRAILER_LEN);
        assert_eq!(streamed.declared_end(&file), Some(end));
        file.pop();
        assert_eq!(streamed.declared_end(&file), None, "torn trailer");
    }

    #[test]
    fn verbatim_record_round_trips() {
        let record = ChunkRecord {
            mode: ChunkMode::Verbatim,
            elements: 12,
            mask: 0,
            compressed: vec![0xAB; 96], // 12 elements × width 8
            incompressible: vec![],
        };
        let mut buf = Vec::new();
        record.write(&mut buf);
        let (parsed, consumed) = ChunkRecord::read(&buf, 8).unwrap();
        assert_eq!(parsed, record);
        assert_eq!(consumed, buf.len());

        // The raw length must match elements × width exactly.
        let mut bad = Vec::new();
        ChunkRecord {
            compressed: vec![0xAB; 95],
            ..record.clone()
        }
        .write(&mut bad);
        assert!(matches!(
            ChunkHeader::validate(&bad, 8, u32::MAX),
            Err(IsobarError::Corrupt("verbatim chunk length mismatch"))
        ));
    }

    #[test]
    fn checksum_mismatch_reports_offset_and_values() {
        let record = ChunkRecord {
            mode: ChunkMode::Passthrough,
            elements: 10,
            mask: 0,
            compressed: vec![7; 40],
            incompressible: vec![],
        };
        let mut buf = Vec::new();
        record.write(&mut buf);
        // Undamaged parses with or without verification.
        assert!(ChunkRecord::read_bounded(&buf, 8, u32::MAX, VERSION, true, 555).is_ok());

        // Flip one payload bit: only the checksum notices.
        let mut bad = buf.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x10;
        match ChunkRecord::read_bounded(&bad, 8, u32::MAX, VERSION, true, 555) {
            Err(IsobarError::ChecksumMismatch {
                offset,
                expected,
                actual,
            }) => {
                assert_eq!(offset, 555);
                assert_ne!(expected, actual);
            }
            other => panic!("expected checksum mismatch, got {other:?}"),
        }
        // verify=false skips the check and returns the damaged payload.
        let (parsed, _) =
            ChunkRecord::read_bounded(&bad, 8, u32::MAX, VERSION, false, 555).unwrap();
        assert_ne!(parsed.compressed, record.compressed);
    }

    #[test]
    fn level_bytes_round_trip() {
        for level in CompressionLevel::ALL {
            assert_eq!(level_from_u8(level_to_u8(level)), Some(level));
        }
        assert_eq!(level_from_u8(3), None);
    }
}
