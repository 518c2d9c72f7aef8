//! Per-tenant write-ahead journal behind the serve daemon's
//! "acked means durable" contract.
//!
//! A put is appended to its tenant's journal file and fsynced *before*
//! the daemon writes [`Status::Ok`](crate::protocol::Status::Ok), so a
//! `kill -9` between generation commits can no longer lose an
//! acknowledged write: on the next startup the daemon replays every
//! leftover journal record into the overlay (and from there into the
//! next generation commit). The journal truncates after each
//! successful generation commit — at that point every journaled put is
//! durable in the store's manifest-committed segments and the records
//! are dead weight.
//!
//! # File layout
//!
//! One journal file per tenant, named `wal-<xxh64(tenant):016x>.waj`
//! in the store directory (the hash keeps arbitrary tenant bytes out
//! of file names; records carry the full tenant string, so a hash
//! collision merely shares a file and is still correct). Each file is:
//!
//! ```text
//! "ISWJ" version=01 reserved[3]          8-byte file header
//! record*                                append-only records
//! ```
//!
//! and each record is length-prefixed and XXH64-framed:
//!
//! ```text
//! "ISWR"            4  anchor magic (resync point)
//! body_len          4  u32 LE
//! body              …  step u32 | width u8 | tenant_len u16 | tenant
//!                      | name_len u16 | name | payload_len u32 | payload
//! checksum          8  u64 LE, xxh64(body, WAL_RECORD_SEED)
//! ```
//!
//! # Torn tails
//!
//! A crash can tear the last record (the kernel flushed a prefix of
//! the dying write). Replay walks records sequentially and, at the
//! first length or checksum mismatch, scans forward for the next
//! `ISWR` anchor whose record verifies — the one checksum-anchor walk
//! ([`isobar::salvage::resync_walk`]) container and store salvage use.
//! A torn tail therefore costs exactly the unacked record being
//! written at crash time, never an acked one (acked records were
//! fsynced first).
//!
//! All I/O goes through the [`StoreFs`] VFS so the crash-injection
//! harness can kill the daemon at every journal operation boundary
//! and prove the no-acked-loss claim (`--serve-crash-sweep`).

use isobar::salvage::{resync_walk, Segment};
use isobar_codecs::xxhash::xxh64;
use isobar_store::{StoreFile, StoreFs};
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};

/// Journal file magic.
pub const WAL_MAGIC: [u8; 4] = *b"ISWJ";

/// Journal format version.
pub const WAL_VERSION: u8 = 1;

/// Record anchor magic, the resync point for torn-tail recovery.
pub const WAL_RECORD_MAGIC: [u8; 4] = *b"ISWR";

/// Journal file header length.
pub const WAL_HEADER_LEN: usize = 8;

/// Fixed seed for record checksums (distinct from the container and
/// store seeds so a misfiled frame never verifies).
pub const WAL_RECORD_SEED: u64 = 0x1507_BA86_0A11_ED01;

/// Seed for the tenant-to-file-name hash.
const WAL_NAME_SEED: u64 = 0x007E_4A17;

/// Journal file name prefix.
pub const WAL_FILE_PREFIX: &str = "wal-";

/// Journal file name suffix.
pub const WAL_FILE_SUFFIX: &str = ".waj";

/// Upper bound on a record body accepted during replay; larger length
/// fields are treated as corruption (bounded-allocation discipline,
/// matching the protocol decoder). Generous next to the daemon's
/// 64 MiB default payload cap.
pub const MAX_WAL_BODY: u32 = 1 << 28;

/// Journal file name for a tenant.
pub fn wal_file_name(tenant: &str) -> String {
    format!(
        "{WAL_FILE_PREFIX}{:016x}{WAL_FILE_SUFFIX}",
        xxh64(tenant.as_bytes(), WAL_NAME_SEED)
    )
}

/// Whether a file name looks like a journal file.
pub fn is_wal_file_name(name: &str) -> bool {
    name.starts_with(WAL_FILE_PREFIX) && name.ends_with(WAL_FILE_SUFFIX)
}

/// One journaled put.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// Tenant namespace (empty for the default tenant).
    pub tenant: String,
    /// Checkpoint step.
    pub step: u32,
    /// Variable name within the tenant.
    pub name: String,
    /// Element width in bytes.
    pub width: u8,
    /// Raw payload exactly as the client sent it.
    pub payload: Vec<u8>,
}

impl WalRecord {
    /// Encoded frame size of this record.
    pub fn encoded_len(&self) -> usize {
        4 + 4 + self.body_len() + 8
    }

    fn body_len(&self) -> usize {
        4 + 1 + 2 + self.tenant.len() + 2 + self.name.len() + 4 + self.payload.len()
    }
}

/// Encode one record as a framed journal entry.
pub fn encode_record(rec: &WalRecord) -> Vec<u8> {
    debug_assert!(rec.tenant.len() <= u16::MAX as usize);
    debug_assert!(rec.name.len() <= u16::MAX as usize);
    debug_assert!(rec.payload.len() <= u32::MAX as usize);
    let body_len = rec.body_len();
    let mut out = Vec::with_capacity(4 + 4 + body_len + 8);
    out.extend_from_slice(&WAL_RECORD_MAGIC);
    out.extend_from_slice(&(body_len as u32).to_le_bytes());
    let body_start = out.len();
    out.extend_from_slice(&rec.step.to_le_bytes());
    out.push(rec.width);
    out.extend_from_slice(&(rec.tenant.len() as u16).to_le_bytes());
    out.extend_from_slice(rec.tenant.as_bytes());
    out.extend_from_slice(&(rec.name.len() as u16).to_le_bytes());
    out.extend_from_slice(rec.name.as_bytes());
    out.extend_from_slice(&(rec.payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&rec.payload);
    let checksum = xxh64(&out[body_start..], WAL_RECORD_SEED);
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

/// Parse one record body (everything between the length prefix and the
/// checksum). `None` means the body is internally inconsistent.
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

/// What salvaging one journal file produced.
#[derive(Debug, Default)]
pub struct WalSalvage {
    /// Records that verified, in append order.
    pub records: Vec<WalRecord>,
    /// Bytes skipped by the anchor resync (torn tail, torn file header
    /// or corruption), each counted once.
    pub skipped_bytes: u64,
}

/// Try to decode one record frame at `bytes[at..]`. Returns the record
/// and the offset just past it.
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

/// Salvage-parse one journal file's bytes: sequential decode with
/// checksum-anchor resync ([`resync_walk`]) past anything that does
/// not verify. Never fails — a journal that is all garbage simply
/// yields no records. Every byte is the file header, a record, or
/// skipped.
pub fn parse_wal(bytes: &[u8]) -> WalSalvage {
    // Tolerate a missing or torn file header by starting the walk at 0;
    // a well-formed file simply has no anchor inside its header.
    let start =
        if bytes.len() >= WAL_HEADER_LEN && bytes[..4] == WAL_MAGIC && bytes[4] == WAL_VERSION {
            WAL_HEADER_LEN
        } else {
            0
        };
    let mut out = WalSalvage::default();
    for segment in resync_walk(bytes, start, |_| false, |at| try_record_at(bytes, at)).0 {
        match segment {
            Segment::Record { record, .. } => out.records.push(record),
            Segment::Gap { len, .. } => out.skipped_bytes += len,
        }
    }
    out
}

/// What replaying a directory's journals found, returned from
/// [`WalSet::open`].
#[derive(Debug, Default)]
pub struct WalReplay {
    /// Every salvaged record across all journal files, file-name order
    /// then append order.
    pub records: Vec<WalRecord>,
    /// Journal files found on startup.
    pub files: u64,
    /// Bytes dropped by torn-tail / corruption resync.
    pub skipped_bytes: u64,
}

/// The open journal set for one daemon: per-tenant files with live
/// append handles, over any [`StoreFs`].
pub struct WalSet<F: StoreFs> {
    fs: F,
    dir: PathBuf,
    /// Open append handles, keyed by journal file name.
    open: BTreeMap<String, F::File>,
}

impl<F: StoreFs> WalSet<F> {
    /// Open the journal set for `dir`: salvage every leftover journal
    /// file, rewrite each as a compacted journal (dropping torn
    /// tails and regaining an append handle — the VFS has no
    /// open-for-append), and return the records to replay.
    pub fn open(fs: F, dir: &Path) -> io::Result<(Self, WalReplay)> {
        let mut replay = WalReplay::default();
        let mut set = WalSet {
            fs,
            dir: dir.to_path_buf(),
            open: BTreeMap::new(),
        };
        let mut names: Vec<(String, PathBuf)> = match set.fs.list_dir(dir) {
            Ok(paths) => paths
                .into_iter()
                .filter_map(|p| {
                    let name = p.file_name()?.to_str()?.to_string();
                    is_wal_file_name(&name).then_some((name, p))
                })
                .collect(),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        names.sort();
        let mut dirty = false;
        for (name, path) in names {
            replay.files += 1;
            let salvage = parse_wal(&set.fs.read_file(&path)?);
            replay.skipped_bytes += salvage.skipped_bytes;
            if salvage.records.is_empty() {
                set.fs.remove_file(&path)?;
                dirty = true;
                continue;
            }
            // Rewrite through a .wip so a crash mid-rewrite leaves
            // either the old journal or the new one, never a torn mix.
            let wip = path.with_extension("waj.wip");
            let mut file = set.fs.create(&wip)?;
            file.write_all(&file_header())?;
            for rec in &salvage.records {
                file.write_all(&encode_record(rec))?;
            }
            file.sync_data()?;
            set.fs.rename(&wip, &path)?;
            dirty = true;
            set.open.insert(name, file);
            replay.records.extend(salvage.records);
        }
        if dirty {
            set.fs.sync_dir(dir)?;
        }
        Ok((set, replay))
    }

    /// Append one record to its tenant's journal and fsync it. On
    /// return the record is durable: the daemon may ack. Returns the
    /// encoded frame length.
    pub fn append(&mut self, rec: &WalRecord) -> io::Result<usize> {
        let name = wal_file_name(&rec.tenant);
        let frame = encode_record(rec);
        match self.open.get_mut(&name) {
            Some(file) => {
                file.write_all(&frame)?;
                file.sync_data()?;
            }
            None => {
                let path = self.dir.join(&name);
                let mut file = self.fs.create(&path)?;
                file.write_all(&file_header())?;
                file.write_all(&frame)?;
                file.sync_data()?;
                // Commit the new file's directory entry; without this
                // a crash could drop the whole journal file, acked
                // records and all.
                self.fs.sync_dir(&self.dir)?;
                self.open.insert(name, file);
            }
        }
        Ok(frame.len())
    }

    /// Retire every journal file. Called after a generation commit is
    /// durable — each journaled put now lives in manifest-committed
    /// segments. Returns how many files were removed.
    pub fn truncate(&mut self) -> io::Result<u64> {
        let names: Vec<String> = self.open.keys().cloned().collect();
        if names.is_empty() {
            return Ok(0);
        }
        // Drop handles first so nothing buffers into an unlinked file.
        self.open.clear();
        let mut removed = 0u64;
        for name in names {
            match self.fs.remove_file(&self.dir.join(&name)) {
                Ok(()) => removed += 1,
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(e) => return Err(e),
            }
        }
        self.fs.sync_dir(&self.dir)?;
        Ok(removed)
    }

    /// Journal files currently open for append.
    pub fn open_files(&self) -> usize {
        self.open.len()
    }
}

fn file_header() -> [u8; WAL_HEADER_LEN] {
    let mut header = [0u8; WAL_HEADER_LEN];
    header[..4].copy_from_slice(&WAL_MAGIC);
    header[4] = WAL_VERSION;
    header
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(tenant: &str, step: u32, name: &str, payload: &[u8]) -> WalRecord {
        WalRecord {
            tenant: tenant.to_string(),
            step,
            name: name.to_string(),
            width: 8,
            payload: payload.to_vec(),
        }
    }

    fn journal(records: &[WalRecord]) -> Vec<u8> {
        let mut bytes = file_header().to_vec();
        for r in records {
            bytes.extend_from_slice(&encode_record(r));
        }
        bytes
    }

    #[test]
    fn record_round_trips() {
        let r = rec("acme", 7, "density", b"payload bytes");
        let bytes = journal(std::slice::from_ref(&r));
        let salvage = parse_wal(&bytes);
        assert_eq!(salvage.records, vec![r]);
        assert_eq!(salvage.skipped_bytes, 0);
    }

    #[test]
    fn encoded_len_matches_encoding() {
        let r = rec("", 0, "v", b"x");
        assert_eq!(encode_record(&r).len(), r.encoded_len());
    }

    #[test]
    fn torn_tail_drops_only_the_last_record() {
        let a = rec("t", 1, "a", &[1; 100]);
        let b = rec("t", 2, "b", &[2; 100]);
        let full = journal(&[a.clone(), b.clone()]);
        // Every truncation point inside the second record keeps the
        // first and drops the second.
        let second_start = WAL_HEADER_LEN + a.encoded_len();
        for cut in second_start + 1..full.len() {
            let salvage = parse_wal(&full[..cut]);
            assert_eq!(salvage.records, vec![a.clone()], "cut at {cut}");
            assert!(salvage.skipped_bytes > 0, "cut at {cut}");
        }
        // Truncation inside the first record loses everything: the
        // torn record never verifies and no later anchor survives the
        // cut. (That record was unacked — its fsync never returned.)
        let salvage = parse_wal(&full[..second_start - 1]);
        assert!(salvage.records.is_empty(), "tail byte of record 1 cut");
    }

    #[test]
    fn corrupt_middle_resyncs_to_the_next_anchor() {
        let a = rec("t", 1, "a", &[1; 64]);
        let b = rec("t", 2, "b", &[2; 64]);
        let c = rec("t", 3, "c", &[3; 64]);
        let mut bytes = journal(&[a.clone(), b, c.clone()]);
        // Flip one payload byte in the middle record.
        let b_start = WAL_HEADER_LEN + a.encoded_len();
        bytes[b_start + 20] ^= 0xff;
        let salvage = parse_wal(&bytes);
        assert_eq!(salvage.records, vec![a, c]);
        assert!(salvage.skipped_bytes > 0);
    }

    #[test]
    fn garbage_and_truncated_headers_parse_to_nothing() {
        assert!(parse_wal(&[]).records.is_empty());
        assert!(parse_wal(b"IS").records.is_empty());
        assert!(parse_wal(&[0xAA; 300]).records.is_empty());
        // A bogus giant length field must not allocate; the record is
        // skipped via resync.
        let mut bytes = file_header().to_vec();
        bytes.extend_from_slice(&WAL_RECORD_MAGIC);
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&[0; 64]);
        assert!(parse_wal(&bytes).records.is_empty());
    }

    #[test]
    fn every_byte_is_header_record_or_skipped_once() {
        let a = rec("t", 1, "a", &[1; 40]);
        let b = rec("t", 2, "b", &[2; 40]);
        let c = rec("t", 3, "c", &[3; 40]);
        let full = journal(&[a.clone(), b.clone(), c.clone()]);
        let mut torn_header = full.clone();
        torn_header[1] ^= 0xff;
        let torn_tail = full[..full.len() - 5].to_vec();
        let mut flipped = full.clone();
        flipped[WAL_HEADER_LEN + a.encoded_len() + 20] ^= 0xff;
        for (bytes, header, kept) in [
            (vec![0xAA; 300], 0, vec![]),
            (torn_header, 0, vec![a.clone(), b.clone(), c.clone()]),
            (torn_tail, WAL_HEADER_LEN, vec![a.clone(), b]),
            (flipped, WAL_HEADER_LEN, vec![a, c]),
        ] {
            let salvage = parse_wal(&bytes);
            assert_eq!(salvage.records, kept);
            let framed: usize = kept.iter().map(WalRecord::encoded_len).sum();
            assert_eq!(
                header + framed + salvage.skipped_bytes as usize,
                bytes.len()
            );
        }
    }

    #[test]
    fn file_names_are_stable_and_recognizable() {
        assert_eq!(wal_file_name("acme"), wal_file_name("acme"));
        assert_ne!(wal_file_name("acme"), wal_file_name("zeta"));
        assert!(is_wal_file_name(&wal_file_name("")));
        assert!(!is_wal_file_name("MANIFEST"));
        assert!(!is_wal_file_name("wal-0.tmp"));
    }

    #[test]
    fn wal_set_appends_replays_and_truncates_on_real_fs() {
        use isobar_store::RealFs;
        let dir = std::env::temp_dir().join(format!("isobar-wal-set-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        let (mut set, replay) = WalSet::open(RealFs, &dir).unwrap();
        assert_eq!(replay.records.len(), 0);
        set.append(&rec("", 0, "a", b"one")).unwrap();
        set.append(&rec("acme", 1, "b", b"two")).unwrap();
        set.append(&rec("acme", 2, "b", b"three")).unwrap();
        assert_eq!(set.open_files(), 2);
        drop(set);

        // "Restart": everything acked comes back, in deterministic
        // order, and the files survive the compaction rewrite.
        let (mut set, replay) = WalSet::open(RealFs, &dir).unwrap();
        assert_eq!(replay.files, 2);
        assert_eq!(replay.records.len(), 3);
        let steps: Vec<u32> = replay.records.iter().map(|r| r.step).collect();
        assert!(steps.contains(&0) && steps.contains(&1) && steps.contains(&2));

        // A torn tail on one journal costs exactly the torn record.
        let torn_path = dir.join(wal_file_name("acme"));
        let bytes = std::fs::read(&torn_path).unwrap();
        std::fs::write(&torn_path, &bytes[..bytes.len() - 3]).unwrap();
        let (_, replay) = WalSet::open(RealFs, &dir).unwrap();
        assert_eq!(replay.records.len(), 2);
        assert!(replay.skipped_bytes > 0);

        assert_eq!(set.truncate().unwrap(), 2);
        let (_, replay) = WalSet::open(RealFs, &dir).unwrap();
        assert_eq!(replay.files, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
