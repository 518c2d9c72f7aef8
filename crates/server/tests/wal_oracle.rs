//! Journal replay against an oracle: the probe-loop `parse_wal` that
//! the shared `isobar::salvage::resync_walk` replaced, kept here with
//! its own record decoder (module `oracle`). It shares with the
//! library only the journal constants and `xxh64`.
//!
//! On every journal of 1–4 records — valid, bit-flipped, truncated,
//! garbage-spliced, and with its file header torn — the library must
//! return the oracle's records. Skipped bytes agree too, except that
//! the oracle counted a torn file header twice (once as the header,
//! once more in the scan that restarts at offset 0); the library counts
//! each byte once.

use isobar_server::wal::{
    encode_record, parse_wal, WalRecord, WAL_HEADER_LEN, WAL_MAGIC, WAL_VERSION,
};
use proptest::prelude::*;

mod oracle {
    use isobar_codecs::xxhash::xxh64;
    use isobar_server::wal::{
        WalRecord, MAX_WAL_BODY, WAL_HEADER_LEN, WAL_MAGIC, WAL_RECORD_MAGIC, WAL_RECORD_SEED,
        WAL_VERSION,
    };

    pub struct WalSalvage {
        pub records: Vec<WalRecord>,
        pub skipped_bytes: u64,
    }

    fn parse_body(body: &[u8]) -> Option<WalRecord> {
        let mut at = 0usize;
        let take = |at: &mut usize, n: usize| -> Option<&[u8]> {
            let out = body.get(*at..*at + n)?;
            *at += n;
            Some(out)
        };
        let step = u32::from_le_bytes(take(&mut at, 4)?.try_into().ok()?);
        let width = take(&mut at, 1)?[0];
        let tenant_len = u16::from_le_bytes(take(&mut at, 2)?.try_into().ok()?) as usize;
        let tenant = std::str::from_utf8(take(&mut at, tenant_len)?).ok()?;
        let name_len = u16::from_le_bytes(take(&mut at, 2)?.try_into().ok()?) as usize;
        let name = std::str::from_utf8(take(&mut at, name_len)?).ok()?;
        let payload_len = u32::from_le_bytes(take(&mut at, 4)?.try_into().ok()?) as usize;
        let payload = take(&mut at, payload_len)?;
        if at != body.len() {
            return None;
        }
        Some(WalRecord {
            tenant: tenant.to_string(),
            step,
            name: name.to_string(),
            width,
            payload: payload.to_vec(),
        })
    }

    fn try_record_at(bytes: &[u8], at: usize) -> Option<(WalRecord, usize)> {
        let frame = bytes.get(at..)?;
        if frame.len() < 4 + 4 + 8 || frame[..4] != WAL_RECORD_MAGIC {
            return None;
        }
        let body_len = u32::from_le_bytes(frame[4..8].try_into().ok()?);
        if body_len > MAX_WAL_BODY {
            return None;
        }
        let body_len = body_len as usize;
        let body = frame.get(8..8 + body_len)?;
        let stored = frame.get(8 + body_len..8 + body_len + 8)?;
        let stored = u64::from_le_bytes(stored.try_into().ok()?);
        if xxh64(body, WAL_RECORD_SEED) != stored {
            return None;
        }
        Some((parse_body(body)?, at + 8 + body_len + 8))
    }

    pub fn parse_wal(bytes: &[u8]) -> WalSalvage {
        let mut out = WalSalvage {
            records: Vec::new(),
            skipped_bytes: 0,
        };
        let mut at = if bytes.len() >= WAL_HEADER_LEN
            && bytes[..4] == WAL_MAGIC
            && bytes[4] == WAL_VERSION
        {
            WAL_HEADER_LEN
        } else {
            out.skipped_bytes += bytes.len().min(WAL_HEADER_LEN) as u64;
            0
        };
        while at < bytes.len() {
            match try_record_at(bytes, at) {
                Some((rec, next)) => {
                    out.records.push(rec);
                    at = next;
                }
                None => {
                    let mut found = None;
                    let mut probe = at + 1;
                    while probe + 4 <= bytes.len() {
                        if bytes[probe..probe + 4] == WAL_RECORD_MAGIC {
                            if let Some(hit) = try_record_at(bytes, probe) {
                                found = Some((probe, hit));
                                break;
                            }
                        }
                        probe += 1;
                    }
                    match found {
                        Some((probe, (rec, next))) => {
                            out.skipped_bytes += (probe - at) as u64;
                            out.records.push(rec);
                            at = next;
                        }
                        None => {
                            out.skipped_bytes += (bytes.len() - at) as u64;
                            break;
                        }
                    }
                }
            }
        }
        out
    }
}

fn header_is_whole(bytes: &[u8]) -> bool {
    bytes.len() >= WAL_HEADER_LEN && bytes[..4] == WAL_MAGIC && bytes[4] == WAL_VERSION
}

fn same(bytes: &[u8]) {
    let got = parse_wal(bytes);
    let want = oracle::parse_wal(bytes);
    assert_eq!(got.records, want.records);
    let header = if header_is_whole(bytes) {
        WAL_HEADER_LEN
    } else {
        0
    };
    let counted_twice = if header == 0 {
        bytes.len().min(WAL_HEADER_LEN) as u64
    } else {
        0
    };
    assert_eq!(got.skipped_bytes, want.skipped_bytes - counted_twice);
    let framed: usize = got.records.iter().map(WalRecord::encoded_len).sum();
    assert_eq!(header + framed + got.skipped_bytes as usize, bytes.len());
}

fn records() -> impl Strategy<Value = Vec<WalRecord>> {
    let record = (
        prop_oneof![Just(""), Just("acme"), Just("zeta")],
        0u32..4,
        prop_oneof![Just("a"), Just("density"), Just("v")],
        1u8..9,
        proptest::collection::vec(any::<u8>(), 0..96),
    )
        .prop_map(|(tenant, step, name, width, payload)| WalRecord {
            tenant: tenant.to_string(),
            step,
            name: name.to_string(),
            width,
            payload,
        });
    proptest::collection::vec(record, 1..=4)
}

fn journal(records: &[WalRecord]) -> Vec<u8> {
    let mut bytes = WAL_MAGIC.to_vec();
    bytes.extend_from_slice(&[WAL_VERSION, 0, 0, 0]);
    for r in records {
        bytes.extend_from_slice(&encode_record(r));
    }
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn valid_journals_agree(recs in records()) {
        let bytes = journal(&recs);
        prop_assert_eq!(&parse_wal(&bytes).records, &recs);
        same(&bytes);
    }

    #[test]
    fn bit_flipped_journals_agree(
        recs in records(),
        flips in proptest::collection::vec(any::<proptest::sample::Index>(), 1..4),
    ) {
        let mut bytes = journal(&recs);
        for flip in flips {
            let bit = flip.index(bytes.len() * 8);
            bytes[bit / 8] ^= 1 << (bit % 8);
        }
        same(&bytes);
    }

    #[test]
    fn truncated_journals_agree(recs in records(), cut in any::<proptest::sample::Index>()) {
        let bytes = journal(&recs);
        same(&bytes[..cut.index(bytes.len() + 1)]);
    }

    #[test]
    fn garbage_spliced_journals_agree(
        recs in records(),
        at in any::<proptest::sample::Index>(),
        garbage in proptest::collection::vec(any::<u8>(), 1..64),
        overwrite in any::<bool>(),
    ) {
        let mut bytes = journal(&recs);
        let at = at.index(bytes.len() + 1);
        if overwrite {
            let end = (at + garbage.len()).min(bytes.len());
            bytes[at..end].copy_from_slice(&garbage[..end - at]);
        } else {
            bytes.splice(at..at, garbage);
        }
        same(&bytes);
    }

    #[test]
    fn garbage_agrees(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        same(&bytes);
    }
}
