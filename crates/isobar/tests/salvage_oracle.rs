//! Container fsck and salvage against an oracle: the anchor-resync
//! `Walk` that `isobar::salvage::resync_walk` replaced, with the
//! element accounting of `fsck_container` / `salvage_decompress`
//! around it (module `oracle`). The oracle shares with the library only
//! the container parsers (`Header::read`, `ChunkRecord::read_bounded`,
//! `Trailer::parse`). It decodes a recovered record by framing it as a
//! one-chunk batch container and running the strict decoder with
//! checksums off, which reaches the same per-chunk decode salvage uses.
//!
//! On every input — batch and streamed containers at widths 2, 4 and
//! 8, valid, bit-flipped, truncated and garbage-spliced — the library
//! must return what the oracle returns: the same `FsckReport`, the same
//! `SalvageReport` and the same bytes, or the same error.

use isobar::salvage::{fsck_container, salvage_decompress};
use isobar::{IsobarCompressor, IsobarOptions, IsobarWriter, Preference};
use proptest::prelude::*;
use std::io::Write;

mod oracle {
    use isobar::container::{
        ChunkRecord, Header, Trailer, END_MARKER, HEADER_LEN, TRAILER_LEN, VERSION,
    };
    use isobar::salvage::{ChunkStatus, DamageRegion, FsckReport, SalvageReport};
    use isobar::{IsobarCompressor, IsobarError, IsobarOptions};

    enum Segment {
        Record { offset: u64, record: ChunkRecord },
        Gap { offset: u64, len: u64 },
    }

    struct Walk {
        header: Header,
        segments: Vec<Segment>,
        end: Option<Trailer>,
    }

    impl Walk {
        fn new(data: &[u8]) -> Result<Walk, IsobarError> {
            let header = Header::read(data).map_err(|e| e.at(0))?;
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
            };
            let at_trailer = |pos: usize| {
                header.len_in_trailer()
                    && data.len() - pos == TRAILER_LEN
                    && data[pos] == END_MARKER
            };
            let mut segments = Vec::new();
            let mut pos = HEADER_LEN;
            while pos < data.len() && !at_trailer(pos) {
                let offset = pos as u64;
                if let Some((record, used)) = anchor(pos) {
                    segments.push(Segment::Record { offset, record });
                    pos += used;
                } else {
                    pos += 1;
                    while pos < data.len() && !at_trailer(pos) && anchor(pos).is_none() {
                        pos += 1;
                    }
                    let len = pos as u64 - offset;
                    segments.push(Segment::Gap { offset, len });
                }
            }
            let end = if pos < data.len() {
                Some(Trailer::parse(
                    data[pos + 1..].try_into().expect("12 bytes"),
                ))
            } else {
                (!header.len_in_trailer()).then_some(Trailer {
                    total_len: header.total_len,
                    checksum: header.checksum,
                })
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

        fn missing_chunks(&self, total_len: Option<u64>) -> u64 {
            match total_len {
                Some(total_len) => (total_len / u64::from(self.header.width))
                    .div_ceil(u64::from(self.header.chunk_elements))
                    .saturating_sub(self.records().count() as u64),
                None => {
                    let last_record = self
                        .segments
                        .iter()
                        .rposition(|s| matches!(s, Segment::Record { .. }))
                        .unwrap_or(0);
                    let gaps = |s: &&Segment| matches!(s, Segment::Gap { .. });
                    self.segments[..last_record].iter().filter(gaps).count() as u64
                }
            }
        }
    }

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
            damage: walk
                .segments
                .iter()
                .filter_map(|s| match *s {
                    Segment::Gap { offset, len } => Some(DamageRegion { offset, len }),
                    Segment::Record { .. } => None,
                })
                .collect(),
            missing_chunks: walk.missing_chunks(total_len),
            total_len,
        })
    }

    /// Decode one verified record as a one-chunk batch container.
    fn decode(header: &Header, record: &ChunkRecord, out: &mut Vec<u8>) -> bool {
        let mut single = Vec::new();
        Header {
            total_len: u64::from(record.elements) * u64::from(header.width),
            checksum: 0,
            ..*header
        }
        .write(&mut single);
        record.write(&mut single);
        let unverified = IsobarCompressor::new(IsobarOptions {
            verify: false,
            ..Default::default()
        });
        match unverified.decompress(&single) {
            Ok(bytes) => {
                out.extend_from_slice(&bytes);
                true
            }
            Err(_) => false,
        }
    }

    pub fn salvage_decompress(data: &[u8]) -> Result<(Vec<u8>, SalvageReport), IsobarError> {
        let walk = Walk::new(data)?;
        let header = &walk.header;
        let width = header.width as usize;
        let mut out = Vec::new();
        let reservable =
            |len: &u64| usize::try_from(*len).is_ok_and(|len| out.try_reserve_exact(len).is_ok());
        let total_len = walk.end.map(|end| end.total_len).filter(reservable);
        let total_elements = total_len.map_or(u64::MAX, |len| len / width as u64);
        let gap_shares = share_missing(&walk.segments, walk.missing_chunks(total_len));
        let mut report = SalvageReport {
            length_unverified: total_len.is_none(),
            ..Default::default()
        };
        let mut gap_index = 0usize;
        let mut elements_ahead: u64 = walk.records().map(|(_, r)| u64::from(r.elements)).sum();
        for seg in &walk.segments {
            match seg {
                Segment::Record { record, .. } => {
                    elements_ahead -= record.elements as u64;
                    let produced = out.len();
                    if decode(header, record, &mut out) {
                        report.chunks_recovered += 1;
                    } else {
                        out.truncate(produced);
                        let fill = record.elements as usize * width;
                        out.resize(produced + fill, 0);
                        report.chunks_lost += 1;
                        report.bytes_lost += fill as u64;
                    }
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
                }
            }
        }
        if let Some(total_len) = total_len {
            report.bytes_lost += (total_len as usize).saturating_sub(out.len()) as u64;
            out.resize(total_len as usize, 0);
        }
        Ok((out, report))
    }

    fn share_missing(segments: &[Segment], missing: u64) -> Vec<u64> {
        let gaps: Vec<u64> = segments
            .iter()
            .filter_map(|s| match s {
                Segment::Gap { len, .. } => Some(*len),
                _ => None,
            })
            .collect();
        let mut shares = vec![0u64; gaps.len()];
        let mut remaining = missing;
        for share in shares.iter_mut().take(missing as usize) {
            *share = 1;
            remaining -= 1;
        }
        if remaining > 0 && !gaps.is_empty() {
            let longest = (0..gaps.len())
                .min_by_key(|&i| (std::cmp::Reverse(gaps[i]), i))
                .expect("non-empty");
            shares[longest] += remaining;
        }
        shares
    }
}

fn same(data: &[u8]) {
    let debug = |r: &dyn std::fmt::Debug| format!("{r:?}");
    assert_eq!(
        fsck_container(data)
            .map(|r| debug(&r))
            .map_err(|e| e.to_string()),
        oracle::fsck_container(data)
            .map(|r| debug(&r))
            .map_err(|e| e.to_string())
    );
    assert_eq!(
        salvage_decompress(data)
            .map(|(bytes, r)| (bytes, debug(&r)))
            .map_err(|e| e.to_string()),
        oracle::salvage_decompress(data)
            .map(|(bytes, r)| (bytes, debug(&r)))
            .map_err(|e| e.to_string())
    );
}

/// A container of `elements` elements of `width` bytes, in chunks of
/// `chunk` elements, batch or streamed.
fn container(width: usize, elements: usize, chunk: usize, streamed: bool, seed: u64) -> Vec<u8> {
    let mut state = seed | 1;
    let data: Vec<u8> = (0..elements * width)
        .map(|i| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            if i % width == 0 {
                state as u8
            } else {
                (i / width / 32) as u8
            }
        })
        .collect();
    let options = IsobarOptions {
        preference: Preference::Speed,
        chunk_elements: chunk,
        ..Default::default()
    };
    if streamed {
        let mut writer = IsobarWriter::new(Vec::new(), width, options).unwrap();
        writer.write_all(&data).unwrap();
        writer.finish().unwrap().0
    } else {
        IsobarCompressor::new(options)
            .compress(&data, width)
            .unwrap()
    }
}

/// Whether byte `i` of a `len`-byte container may be mutated: neither
/// the header's declared length (bytes 16..24) nor the last 12 bytes (a
/// streamed trailer's). A forged length there would have both sides
/// zero-fill up to gigabytes.
fn mutable(i: usize, len: usize) -> bool {
    !(16..24).contains(&i) && i + 12 < len
}

fn containers() -> impl Strategy<Value = Vec<u8>> {
    (
        prop_oneof![Just(2usize), Just(4), Just(8)],
        0usize..700,
        prop_oneof![Just(64usize), Just(128), Just(256)],
        any::<bool>(),
        any::<u64>(),
    )
        .prop_map(|(width, elements, chunk, streamed, seed)| {
            container(width, elements, chunk, streamed, seed)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn valid_containers_agree(data in containers()) {
        prop_assert!(fsck_container(&data).unwrap().is_clean());
        same(&data);
    }

    #[test]
    fn bit_flipped_containers_agree(
        mut data in containers(),
        flips in proptest::collection::vec(any::<proptest::sample::Index>(), 1..4),
    ) {
        for flip in flips {
            let bit = flip.index(data.len() * 8);
            if mutable(bit / 8, data.len()) {
                data[bit / 8] ^= 1 << (bit % 8);
            }
        }
        same(&data);
    }

    #[test]
    fn truncated_containers_agree(data in containers(), cut in any::<proptest::sample::Index>()) {
        same(&data[..cut.index(data.len() + 1)]);
    }

    #[test]
    fn garbage_spliced_containers_agree(
        mut data in containers(),
        at in any::<proptest::sample::Index>(),
        garbage in proptest::collection::vec(any::<u8>(), 1..64),
        overwrite in any::<bool>(),
    ) {
        let len = data.len();
        let at = at.index(len + 1);
        if overwrite {
            for (i, byte) in (at..len).zip(garbage) {
                if mutable(i, len) {
                    data[i] = byte;
                }
            }
        } else if at >= 24 && at + 12 <= len {
            data.splice(at..at, garbage);
        }
        same(&data);
    }
}
