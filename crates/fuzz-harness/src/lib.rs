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
//!   failure message replays the exact byte-for-byte mutation sequence
//!   anywhere. The harness has no other entropy source.
//! * [`mutate`] — the fault model: bit flips, byte stomps,
//!   truncations, random extensions, length-field inflation,
//!   duplicated slices, zeroed ranges, and torn tails.
//! * [`alloc_track`] — a counting global allocator enforcing that a
//!   decode call's live-heap growth stays within a fixed budget plus a
//!   small multiple of the input size.
//! * [`layers`] — one [`layers::Layer`] per decode surface, each with
//!   its own pool of valid artifacts and pass/fail rules.
//! * [`crash`] — crash injection: an in-memory filesystem that kills a
//!   real run at every operation boundary (with torn in-flight writes),
//!   one deterministic sweep loop, and two subjects — the store
//!   writer's generation commit (a reader sees the old generation or
//!   the new one, never a hybrid) and the serve daemon's put path
//!   (every put whose journal fsync returned reads back bit-exact
//!   after startup replay).
//! * [`stress`] — a concurrent storm over one sharded store: N
//!   producer threads writing while N reader threads replay verified
//!   random reads, with every byte re-checked after the final commit.
//!
//! Every proof here is a `cargo test` of this crate: `fuzz_smoke`
//! (every layer, 400 iterations each), `crash_sweep` (both subjects,
//! every kill point) and `store_stress` (a small storm) run in every
//! `cargo test`; `cargo test --release -- --ignored` adds the full
//! sizes, 10,000 iterations per layer and the 8-producer storm. Every
//! run uses [`DEFAULT_SEED`], so a failing test replays by running it
//! again.

pub mod alloc_track;
pub mod crash;
pub mod layers;
pub mod mutate;
pub mod rng;
pub mod stress;

pub use layers::{
    all_layers, Layer, LayerOutcome, ALLOC_SCALE, DEFAULT_SEED, FIXED_ALLOC_BUDGET,
    FPZIP_ALLOC_SCALE,
};
