#![warn(missing_docs)]

//! Structure-aware fault-injection fuzzing for every ISOBAR decode
//! surface.
//!
//! The untrusted-input surface of this workspace — batch containers,
//! the streaming framing, the checkpoint store, and every codec and
//! float-codec `decompress` path — promises to be *panic-free* and
//! *allocation-bounded* on arbitrary bytes, returning typed errors
//! instead. This crate checks that promise the only way it can be
//! checked: by generating valid artifacts and breaking them, tens of
//! thousands of times, deterministically.
//!
//! * [`rng`] — a self-contained xorshift64* generator, so a seed in a
//!   CI failure message replays the exact byte-for-byte mutation
//!   sequence anywhere. The harness has no other entropy source.
//! * [`mutate`] — the fault model: bit flips, byte stomps,
//!   truncations, random extensions, length-field inflation,
//!   duplicated slices, zeroed ranges, and torn tails.
//! * [`alloc_track`] — a counting global allocator enforcing that a
//!   decode call's live-heap growth stays within a fixed budget plus a
//!   small multiple of the input size.
//! * [`layers`] — one [`layers::Layer`] per decode surface, each with
//!   its own pool of valid artifacts and pass/fail rules.
//! * [`crash`] — crash-injection for the store's commit protocol: an
//!   in-memory filesystem that kills the writer at every operation
//!   boundary (with torn in-flight writes) and proves a reader always
//!   sees the old generation or the new one, never a hybrid — for the
//!   two-phase manifest commit at one shard and across shards.
//! * [`serve_crash`] — the same record-and-replay kill sweep over the
//!   serve daemon's store engine, proving the "acked means durable"
//!   contract: every put whose write-ahead-journal fsync returned
//!   before the kill reads back bit-exact after startup replay.
//! * [`stress`] — a concurrent storm over one sharded store: N
//!   producer threads writing while N reader threads replay verified
//!   random reads, with every byte re-checked after the final commit.
//!
//! The `isobar-fuzz-harness` binary runs every layer (default 10 000
//! iterations each) and exits non-zero on the first violation; the
//! `fuzz_smoke` integration test runs a reduced count in `cargo test`.

pub mod alloc_track;
pub mod crash;
pub mod layers;
pub mod mutate;
pub mod rng;
pub mod serve_crash;
pub mod stress;

pub use layers::{
    all_layers, Layer, LayerOutcome, ALLOC_SCALE, DEFAULT_SEED, FIXED_ALLOC_BUDGET,
    FPZIP_ALLOC_SCALE,
};
