#![warn(missing_docs)]

//! In-situ checkpoint store built on ISOBAR-compress.
//!
//! The paper motivates ISOBAR with checkpoint/restart pipelines: a
//! simulation periodically dumps named variables (density, potential,
//! particle phase, …) and must write them faster than the file system
//! can absorb raw data — losslessly, because a perturbed restart
//! diverges. This crate provides the minimal storage substrate that
//! workflow needs, in the spirit of the ADIOS ecosystem the paper's
//! authors work in:
//!
//! * [`ShardedStoreWriter`] — append variables step by step into a
//!   store *directory*: N independent segment pipelines (a codec and
//!   an I/O thread each, so compression overlaps `fdatasync`), each
//!   variable compressed through the full ISOBAR pipeline as it is
//!   written, committed crash-consistently by a two-phase manifest
//!   rename. `ShardedOptions { shards: 1, .. }` is the serial
//!   configuration.
//! * [`StoreReader`] — random access by `(step, variable)` without
//!   touching unrelated data, via the checksummed index in the
//!   manifest and positioned reads (`pread`). Integrity verification
//!   is on by default.
//! * [`fsck_store`] / [`salvage_store`] — damage reporting and
//!   best-effort recovery of intact records from a damaged store.
//! * [`compact_store`] — reclaim superseded entries and sweep
//!   unreferenced segment files.
//!
//! # Directory format
//!
//! A store is a *directory*: a `MANIFEST` file (magic `"ISSM"`)
//! holding the segment table and the full index, plus one or more
//! segment files `g<generation>-s<shard>.seg` (magic `"ISSG"`), each an
//! 8-byte header, a run of records
//! (`name_len u16 | name | step u32 | width u8 | container_len u64 |
//! ISOBAR container`) and a checksummed 24-byte trailer. Writers append
//! a *generation*: new segments plus a rewritten manifest, committed by
//! the atomic rename of `MANIFEST.wip` over `MANIFEST`. Duplicate
//! `(step, variable)` pairs are allowed across generations — the
//! latest wins, and [`compact_store`] reclaims the shadowed versions.
//! See `docs/FORMAT.md` for the byte-level grammar.
//!
//! # Example
//!
//! ```no_run
//! use isobar_store::{ShardedOptions, ShardedStoreWriter, StoreReader};
//! use isobar::{IsobarOptions, Preference};
//!
//! # fn demo(density: &[u8], potential: &[u8]) -> Result<(), isobar_store::StoreError> {
//! let writer = ShardedStoreWriter::create(
//!     "run.store",
//!     IsobarOptions {
//!         preference: Preference::Speed,
//!         ..Default::default()
//!     },
//!     ShardedOptions::default(),
//! )?;
//! writer.put(0, "density", density.to_vec(), 8)?;
//! writer.put(0, "potential", potential.to_vec(), 8)?;
//! writer.close()?;
//!
//! let reader = StoreReader::open("run.store")?;
//! let restored = reader.get(0, "density")?;
//! assert_eq!(restored, density);
//! # Ok(()) }
//! ```

mod compact;
mod error;
mod format;
mod manifest;
mod reader;
mod salvage;
mod sharded;
mod vfs;

pub use compact::{compact_store, compact_store_recorded, CompactReport};
pub use error::StoreError;
pub use format::{
    entry_checksum, is_segment_file_name, segment_file_name, wip_path, IndexEntry, CHECKSUM_SEED,
    MAGIC, MANIFEST_FILE, MANIFEST_HEADER_LEN, MANIFEST_MAGIC, MANIFEST_TRAILER_LEN,
    MANIFEST_TRAILER_MAGIC, MIN_ENTRY_LEN, SEGMENT_HEADER_LEN, SEGMENT_MAGIC, SEGMENT_TRAILER_LEN,
    SEGMENT_TRAILER_MAGIC, V3_VERSION,
};
pub use manifest::{
    decode_segment_header, decode_segment_trailer, encode_segment_header, encode_segment_trailer,
    Manifest, ManifestEntry, SegmentMeta,
};
pub use reader::StoreReader;
pub use salvage::{
    fsck_store, salvage_store, EntryHealth, EntryStatus, StoreFsckReport, StoreSalvageReport,
};
pub use sharded::{ShardedCommitReport, ShardedOptions, ShardedStoreWriter};
pub use vfs::{RealFile, RealFs, StoreFile, StoreFs};
