//! Integrity walking (`fsck`) and best-effort recovery (`salvage`).
//!
//! The decode pipeline is strict: the first structural defect or
//! checksum mismatch aborts the whole operation. This module is the
//! permissive counterpart for operators holding damaged media — the
//! same record walk in its anchor-resync mode, over either form of the
//! container:
//!
//! - [`fsck_container`] walks a container without decoding payloads,
//!   verifies every embedded chunk checksum, and reports per-chunk
//!   health.
//! - [`salvage_decompress`] decodes everything it can, zero-filling
//!   the regions covered by damaged chunks so that every intact chunk
//!   lands at its original offset (bit-exact).
//! - [`salvage_container`] re-encodes the salvaged bytes into a fresh,
//!   fully valid batch-form container with the same shape.
//!
//! # Resync rules
//!
//! Stated once, in docs/FORMAT.md "fsck and salvage". [`resync_walk`]
//! is the one forward walk; store and journal salvage call it with
//! their own anchors. Here the anchor is a chunk record whose header
//! is structurally valid and whose payload matches its embedded XXH64,
//! and a streamed container's trailer is believed only where it ends
//! the file exactly. Lost output positions come from element
//! accounting: every non-final chunk holds `chunk_elements` elements,
//! and surplus missing chunks go to the longest damaged regions first.

use crate::container::{
    ChunkRecord, Header, Trailer, END_MARKER, HEADER_LEN, TRAILER_LEN, VERSION,
};
use crate::error::IsobarError;
use crate::pipeline::{decode_chunk_record, IsobarCompressor, IsobarOptions, PipelineScratch};
use isobar_codecs::codec_for;
use isobar_telemetry::{Counter, Recorder};

/// One chunk record the walker recognized: structure and embedded
/// checksum both check out.
#[derive(Debug, Clone, Copy)]
pub struct ChunkStatus {
    /// Byte offset of the record in the container.
    pub offset: u64,
    /// Elements the record claims.
    pub elements: u32,
}

/// A contiguous byte range the walker could not account for.
#[derive(Debug, Clone, Copy)]
pub struct DamageRegion {
    /// Byte offset where parsing or verification first failed.
    pub offset: u64,
    /// Bytes skipped before the next anchor (or end of input).
    pub len: u64,
}

/// What `fsck` found.
#[derive(Debug, Clone)]
pub struct FsckReport {
    /// Format version byte from the header.
    pub version: u8,
    /// Every chunk record the walker recognized, in file order.
    pub chunks: Vec<ChunkStatus>,
    /// Byte regions lost to damage.
    pub damage: Vec<DamageRegion>,
    /// Chunks the element accounting says existed but were not found
    /// (0 when `damage` is empty); with the length unverified, one per
    /// damaged region that records follow.
    pub missing_chunks: u64,
    /// The original length the container declares; `None` when it is
    /// unverified (see the module docs).
    pub total_len: Option<u64>,
}

impl FsckReport {
    /// No damage found, no chunk missing, and the length accounted for.
    pub fn is_clean(&self) -> bool {
        self.damage.is_empty() && self.missing_chunks == 0 && self.total_len.is_some()
    }
}

/// What `salvage` recovered.
#[derive(Debug, Clone, Copy, Default)]
pub struct SalvageReport {
    /// Chunk records decoded bit-exact.
    pub chunks_recovered: u64,
    /// Chunks replaced with zero fill (damaged, undecodable, or
    /// missing entirely).
    pub chunks_lost: u64,
    /// Output bytes that are zero fill rather than recovered data.
    pub bytes_lost: u64,
    /// Damaged byte regions the walker skipped.
    pub damage_regions: u64,
    /// The container's declared length was missing or unusable, so the
    /// output's length rests on the recovered records alone.
    pub length_unverified: bool,
}

impl SalvageReport {
    /// True when every chunk came back.
    pub fn is_complete(&self) -> bool {
        self.chunks_lost == 0
    }
}

/// One element of a [`resync_walk`], in file order.
#[derive(Debug)]
pub enum Segment<R> {
    /// A record the anchor accepted.
    Record {
        /// Byte offset of the record in the walked data.
        offset: u64,
        /// What the anchor parsed there.
        record: R,
    },
    /// A run of bytes at which no anchor was accepted.
    Gap {
        /// Byte offset of the first skipped byte.
        offset: u64,
        /// Bytes skipped.
        len: u64,
    },
}

/// The one checksum-anchor resync walk, behind container fsck/salvage,
/// the store's manifest-less segment walk and the serve journal replay.
///
/// From `start` until the end of `data` or the first offset `stop`
/// accepts: `anchor(pos)` returns a record ending at `next > pos`, and
/// the walk goes on from `next`, or `None`, and `pos` is a gap byte.
/// `anchor` runs once per offset visited. Returns the records and gaps
/// in file order, and the offset the walk ended at.
pub fn resync_walk<R>(
    data: &[u8],
    start: usize,
    mut stop: impl FnMut(usize) -> bool,
    mut anchor: impl FnMut(usize) -> Option<(R, usize)>,
) -> (Vec<Segment<R>>, usize) {
    let mut segments = Vec::new();
    let mut pos = start;
    while pos < data.len() && !stop(pos) {
        let offset = pos as u64;
        if let Some((record, next)) = anchor(pos) {
            debug_assert!(next > pos, "an anchor must consume its record");
            segments.push(Segment::Record { offset, record });
            pos = next;
            continue;
        }
        // A gap that is the last segment ends exactly here.
        match segments.last_mut() {
            Some(Segment::Gap { len, .. }) => *len += 1,
            _ => segments.push(Segment::Gap { offset, len: 1 }),
        }
        pos += 1;
    }
    (segments, pos)
}

/// A container walked in anchor-resync mode.
struct Walk {
    header: Header,
    segments: Vec<Segment<ChunkRecord>>,
    /// The declared length and Adler-32, when present and whole
    /// elements.
    end: Option<Trailer>,
}

impl Walk {
    /// Walk the chunk records of `data`, resynchronizing past damage
    /// via checksum anchors (see the module docs). Errors only when the
    /// file header itself is unusable.
    fn new(data: &[u8]) -> Result<Walk, IsobarError> {
        let header = Header::read(data).map_err(|e| e.at(0))?;
        // Parse and verify a record at `pos`. An empty record is
        // structurally valid but can never appear in healthy output,
        // so it is no anchor.
        let anchor = |pos: usize| {
            ChunkRecord::read_bounded(
                &data[pos..],
                header.width as usize,
                header.chunk_elements,
                VERSION,
                true,
                pos as u64,
            )
            .ok()
            .filter(|(record, _)| record.elements != 0)
            .map(|(record, used)| (record, pos + used))
        };
        let at_trailer = |pos: usize| {
            header.len_in_trailer() && data.len() - pos == TRAILER_LEN && data[pos] == END_MARKER
        };
        let (segments, pos) = resync_walk(data, HEADER_LEN, at_trailer, anchor);
        let end = if pos < data.len() {
            // The walk stopped at a trailer.
            Some(Trailer::parse(
                data[pos + 1..].try_into().expect("12 bytes"),
            ))
        } else {
            (!header.len_in_trailer()).then(|| header.own_end())
        };
        let end = end.filter(|end| end.total_len % u64::from(header.width) == 0);
        Ok(Walk {
            header,
            segments,
            end,
        })
    }

    fn records(&self) -> impl Iterator<Item = (u64, &ChunkRecord)> {
        self.segments.iter().filter_map(|s| match s {
            Segment::Record { offset, record } => Some((*offset, record)),
            Segment::Gap { .. } => None,
        })
    }

    fn gaps(&self) -> impl Iterator<Item = DamageRegion> + '_ {
        self.segments.iter().filter_map(|s| match *s {
            Segment::Gap { offset, len } => Some(DamageRegion { offset, len }),
            Segment::Record { .. } => None,
        })
    }

    /// Whole chunks the element accounting expects for `total_len`
    /// original bytes but the walk did not find. With the length
    /// unverified, one per gap that records follow.
    fn missing_chunks(&self, total_len: Option<u64>) -> u64 {
        match total_len {
            Some(total_len) => (total_len / u64::from(self.header.width))
                .div_ceil(u64::from(self.header.chunk_elements))
                .saturating_sub(self.records().count() as u64),
            None => {
                let last_record = self.records().last().map_or(0, |(offset, _)| offset);
                self.gaps().filter(|gap| gap.offset < last_record).count() as u64
            }
        }
    }
}

/// Walk + verify a container, batch or streamed, without decoding
/// payloads.
///
/// Errors only when the file header itself is unusable; damage past
/// the header is what the report is *for*.
pub fn fsck_container(data: &[u8]) -> Result<FsckReport, IsobarError> {
    let walk = Walk::new(data)?;
    let total_len = walk.end.map(|end| end.total_len);
    Ok(FsckReport {
        version: walk.header.version,
        chunks: walk
            .records()
            .map(|(offset, record)| ChunkStatus {
                offset,
                elements: record.elements,
            })
            .collect(),
        damage: walk.gaps().collect(),
        missing_chunks: walk.missing_chunks(total_len),
        total_len,
    })
}

/// Decode a damaged container, zero-filling what cannot be recovered
/// so every intact chunk lands at its original offset.
///
/// Errors only when the file header is unusable — otherwise the output
/// has exactly the declared length, or with that unverified
/// ([`SalvageReport::length_unverified`]) ends with the last recovered
/// chunk.
pub fn salvage_decompress(data: &[u8]) -> Result<(Vec<u8>, SalvageReport), IsobarError> {
    salvage_decompress_recorded(data, &mut Recorder::new())
}

/// [`salvage_decompress`] recording telemetry — each lost chunk bumps
/// [`Counter::ChunksSkippedCorrupt`] — into a caller-held recorder.
pub fn salvage_decompress_recorded(
    data: &[u8],
    recorder: &mut Recorder,
) -> Result<(Vec<u8>, SalvageReport), IsobarError> {
    let walk = Walk::new(data)?;
    let header = &walk.header;
    let width = header.width as usize;
    // A declared length that cannot even be reserved (a torn file's
    // last bytes misread as a trailer, a corrupted field) is not
    // trusted to size the output.
    let mut out = Vec::new();
    let reservable =
        |len: &u64| usize::try_from(*len).is_ok_and(|len| out.try_reserve_exact(len).is_ok());
    let total_len = walk.end.map(|end| end.total_len).filter(reservable);
    let total_elements = total_len.map_or(u64::MAX, |len| len / width as u64);
    let codec = codec_for(header.codec, header.level);

    // Element accounting: how many whole chunks vanished, and how many
    // to attribute to each damaged region (longest-first).
    let gap_shares = share_missing(&walk, walk.missing_chunks(total_len));

    let mut report = SalvageReport {
        length_unverified: total_len.is_none(),
        ..Default::default()
    };
    let mut scratch = PipelineScratch::new();
    let mut gap_index = 0usize;
    let mut chunk_index = 0u32;
    // Elements still owed to records not yet emitted — used to clamp
    // zero fill so a gap can never push recovered data past its slot.
    let mut elements_ahead: u64 = walk.records().map(|(_, r)| u64::from(r.elements)).sum();

    for seg in &walk.segments {
        match seg {
            Segment::Record { record, .. } => {
                elements_ahead -= record.elements as u64;
                let produced = out.len();
                let decoded = decode_chunk_record(
                    record,
                    width,
                    chunk_index,
                    codec.as_ref(),
                    header.linearization,
                    &mut out,
                    &mut scratch,
                    recorder,
                )
                .is_ok();
                if decoded {
                    report.chunks_recovered += 1;
                } else {
                    // Checksum passed but the payload would not decode:
                    // fall back to this chunk's worth of zeros.
                    out.truncate(produced);
                    let fill = record.elements as usize * width;
                    out.resize(produced + fill, 0);
                    report.chunks_lost += 1;
                    report.bytes_lost += fill as u64;
                    recorder.incr(Counter::ChunksSkippedCorrupt);
                }
                chunk_index += 1;
            }
            Segment::Gap { .. } => {
                let share = gap_shares[gap_index];
                gap_index += 1;
                report.damage_regions += 1;
                let produced_elements = (out.len() / width) as u64;
                let budget = total_elements
                    .saturating_sub(produced_elements)
                    .saturating_sub(elements_ahead);
                let fill_elements = (share * header.chunk_elements as u64).min(budget);
                let fill = (fill_elements * width as u64) as usize;
                out.resize(out.len() + fill, 0);
                report.chunks_lost += share;
                report.bytes_lost += fill as u64;
                for _ in 0..share {
                    recorder.incr(Counter::ChunksSkippedCorrupt);
                }
            }
        }
    }
    // Accounting shortfalls (e.g. damage at the very end of the file)
    // land as trailing zero fill; overshoot cannot happen because gaps
    // are budget-clamped and records were length-validated.
    if let Some(total_len) = total_len {
        report.bytes_lost += (total_len as usize).saturating_sub(out.len()) as u64;
        out.resize(total_len as usize, 0);
    }
    Ok((out, report))
}

/// Rebuild a damaged container into a fresh, fully valid batch-form
/// container: salvage the bytes ([`salvage_decompress`]), then
/// re-encode them with the original geometry (width, chunk size,
/// solver, linearization). Recovered chunks keep their exact contents;
/// damaged spans become well-formed chunks of zeros.
pub fn salvage_container(data: &[u8]) -> Result<(Vec<u8>, SalvageReport), IsobarError> {
    let header = Header::read(data).map_err(|e| e.at(0))?;
    let (bytes, report) = salvage_decompress(data)?;
    let compressor = IsobarCompressor::new(IsobarOptions {
        codec_override: Some(header.codec),
        linearization_override: Some(header.linearization),
        level: header.level,
        chunk_elements: header.chunk_elements as usize,
        ..Default::default()
    });
    let packed = compressor.compress(&bytes, header.width as usize)?;
    Ok((packed, report))
}

/// Attribute `missing` whole chunks across the walk's damaged regions:
/// one each, then surplus to the longest regions first (earliest wins
/// ties). Returns one share per gap, in walk order.
fn share_missing(walk: &Walk, missing: u64) -> Vec<u64> {
    let gaps: Vec<u64> = walk.gaps().map(|gap| gap.len).collect();
    let mut shares = vec![0u64; gaps.len()];
    let mut remaining = missing;
    for share in shares.iter_mut().take(missing as usize) {
        *share = 1;
        remaining -= 1;
    }
    if remaining > 0 && !gaps.is_empty() {
        // Longest gap first; ties go to the earlier region.
        let longest = (0..gaps.len())
            .min_by_key(|&i| (std::cmp::Reverse(gaps[i]), i))
            .expect("non-empty");
        shares[longest] += remaining;
    }
    shares
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::container::CHUNK_HEADER_LEN;
    use crate::stream::IsobarWriter;
    use std::io::Write as _;

    fn mixed_data(elements: usize) -> Vec<u8> {
        (0..elements as u64)
            .flat_map(|i| {
                (((i / 7) << 32) | (i.wrapping_mul(0x9E37_79B9) & 0xFFFF_FFFF)).to_le_bytes()
            })
            .collect()
    }

    fn small_chunk_container() -> (Vec<u8>, Vec<u8>) {
        let data = mixed_data(1024);
        let packed = IsobarCompressor::new(IsobarOptions {
            chunk_elements: 256,
            ..Default::default()
        })
        .compress(&data, 8)
        .expect("compress");
        (packed, data)
    }

    /// Byte offset of chunk record `n` (0-based) in a container.
    fn record_offset(packed: &[u8], n: usize) -> usize {
        let header = Header::read(packed).unwrap();
        let mut pos = HEADER_LEN;
        for _ in 0..n {
            let (_, used) = ChunkRecord::read_bounded(
                &packed[pos..],
                header.width as usize,
                header.chunk_elements,
                header.version,
                true,
                pos as u64,
            )
            .unwrap();
            pos += used;
        }
        pos
    }

    #[test]
    fn fsck_reports_clean_container() {
        let (packed, _) = small_chunk_container();
        let report = fsck_container(&packed).expect("header");
        assert!(report.is_clean());
        assert_eq!(report.chunks.len(), 4);
        assert_eq!(report.total_len, Some(8 * 1024));
    }

    #[test]
    fn fsck_pinpoints_damaged_chunk() {
        let (mut packed, _) = small_chunk_container();
        let second = record_offset(&packed, 1);
        packed[second + CHUNK_HEADER_LEN + 3] ^= 0xFF; // payload bit rot
        let report = fsck_container(&packed).expect("header");
        assert!(!report.is_clean());
        assert_eq!(report.chunks.len(), 3, "three chunks still verify");
        assert_eq!(report.missing_chunks, 1);
        assert_eq!(report.damage.len(), 1);
        assert_eq!(report.damage[0].offset, second as u64);
    }

    #[test]
    fn salvage_recovers_intact_chunks_bit_exact() {
        let (mut packed, data) = small_chunk_container();
        let second = record_offset(&packed, 1);
        packed[second + CHUNK_HEADER_LEN] ^= 0xFF;
        let (out, report) = salvage_decompress(&packed).expect("salvage");
        assert_eq!(out.len(), data.len());
        // Chunks 0, 2, 3 (each 256 elements x 8 bytes) are bit-exact.
        let cs = 256 * 8;
        assert_eq!(&out[..cs], &data[..cs], "chunk 0 recovered");
        assert_eq!(&out[2 * cs..], &data[2 * cs..], "chunks 2-3 recovered");
        assert!(out[cs..2 * cs].iter().all(|&b| b == 0), "chunk 1 zeroed");
        assert_eq!(report.chunks_recovered, 3);
        assert_eq!(report.chunks_lost, 1);
        assert_eq!(report.bytes_lost, cs as u64);
    }

    #[test]
    fn salvage_survives_damage_spanning_record_header() {
        // Destroy the second record's *header* (not just payload): the
        // walker must resync on the third record's checksum anchor.
        let (mut packed, data) = small_chunk_container();
        let second = record_offset(&packed, 1);
        for b in &mut packed[second..second + CHUNK_HEADER_LEN] {
            *b = 0xAA;
        }
        let (out, report) = salvage_decompress(&packed).expect("salvage");
        let cs = 256 * 8;
        assert_eq!(out.len(), data.len());
        assert_eq!(&out[..cs], &data[..cs]);
        assert_eq!(&out[2 * cs..], &data[2 * cs..]);
        assert_eq!(report.chunks_recovered, 3);
        assert_eq!(report.damage_regions, 1);
    }

    #[test]
    fn salvage_container_rebuilds_valid_container() {
        let (mut packed, data) = small_chunk_container();
        let second = record_offset(&packed, 1);
        packed[second + CHUNK_HEADER_LEN] ^= 0xFF;
        let (rebuilt, report) = salvage_container(&packed).expect("salvage");
        assert_eq!(report.chunks_lost, 1);
        // The rebuilt container must pass a strict, verifying decode.
        let out = IsobarCompressor::default()
            .decompress(&rebuilt)
            .expect("rebuilt container is fully valid");
        let cs = 256 * 8;
        assert_eq!(&out[..cs], &data[..cs]);
        assert_eq!(&out[2 * cs..], &data[2 * cs..]);
        assert!(fsck_container(&rebuilt).unwrap().is_clean());
    }

    #[test]
    fn salvage_of_clean_container_is_lossless() {
        let (packed, data) = small_chunk_container();
        let (out, report) = salvage_decompress(&packed).expect("salvage");
        assert_eq!(out, data);
        assert!(report.is_complete());
        assert_eq!(report.chunks_recovered, 4);
    }

    #[test]
    fn stream_fsck_and_salvage() {
        let data = mixed_data(1024);
        let mut writer = IsobarWriter::new(
            Vec::new(),
            8,
            IsobarOptions {
                chunk_elements: 256,
                ..Default::default()
            },
        )
        .expect("writer");
        writer.write_all(&data).expect("write");
        let (mut bytes, _) = writer.finish().expect("finish");

        let report = fsck_container(&bytes).expect("header");
        assert!(report.is_clean());
        assert_eq!(report.chunks.len(), 4);
        assert_eq!(report.total_len, Some(data.len() as u64));

        // Damage the second record's payload.
        let at = report.chunks[1].offset as usize + CHUNK_HEADER_LEN;
        bytes[at] ^= 0xFF;
        let report = fsck_container(&bytes).expect("header");
        assert_eq!(report.chunks.len(), 3);
        assert_eq!(report.damage.len(), 1);
        assert_eq!(report.missing_chunks, 1);

        // Salvage zero-fills the damaged record in place, exactly as it
        // does for the batch form.
        let (out, rep) = salvage_decompress(&bytes).expect("salvage");
        let cs = 256 * 8;
        assert_eq!(out.len(), data.len());
        assert_eq!(&out[..cs], &data[..cs]);
        assert!(out[cs..2 * cs].iter().all(|&b| b == 0), "chunk 1 zeroed");
        assert_eq!(&out[2 * cs..], &data[2 * cs..]);
        assert_eq!((rep.chunks_recovered, rep.chunks_lost), (3, 1));
        assert!(!rep.length_unverified);

        // ...and re-frames it in the batch form.
        let (rebuilt, _) = salvage_container(&bytes).expect("salvage");
        assert!(!Header::read(&rebuilt).unwrap().len_in_trailer());
        assert_eq!(
            IsobarCompressor::default().decompress(&rebuilt).unwrap(),
            out
        );

        // With the trailer torn off as well, every verifying chunk
        // still comes back (the interior gap counts for one chunk) and
        // the length is reported as unverified.
        let torn = &bytes[..bytes.len() - 5];
        let report = fsck_container(torn).expect("header");
        assert!(!report.is_clean());
        assert_eq!(report.total_len, None);
        let (out_torn, rep) = salvage_decompress(torn).expect("salvage");
        assert_eq!(out_torn, out);
        assert_eq!(rep.chunks_recovered, 3);
        assert!(rep.length_unverified);
    }

    #[test]
    fn unallocatable_declared_length_is_not_trusted() {
        // A corrupted length field must not size the output: the
        // records alone do.
        let (mut packed, data) = small_chunk_container();
        packed[16 + 6] = 0x7F; // total_len becomes ~2^55
        assert!(!fsck_container(&packed).unwrap().is_clean());
        let (out, report) = salvage_decompress(&packed).expect("salvage");
        assert_eq!(out, data);
        assert!(report.length_unverified && report.is_complete());
    }
}
