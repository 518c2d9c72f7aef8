//! One fuzz layer per untrusted decode surface.
//!
//! Each [`Layer`] owns a pool of *valid* artifacts (built once,
//! deterministically) and a decode closure. The runner repeatedly
//! picks an artifact, corrupts a clone of it with 1–3 structure-aware
//! faults ([`crate::mutate`]), and feeds it to the decoder under three
//! invariants:
//!
//! 1. **No panics.** Every outcome must be `Ok` or a typed `Err`.
//! 2. **Bounded allocation.** Live-heap growth during the decode call
//!    must stay under [`FIXED_ALLOC_BUDGET`] plus [`ALLOC_SCALE`] times
//!    the input-plus-original size (enforced when the test binary's
//!    counting allocator is installed — see [`crate::alloc_track`]).
//! 3. **Honest generators.** One iteration in ~64 skips mutation and
//!    asserts an exact round-trip, so a layer cannot pass by rejecting
//!    everything.
//!
//! Running any layer twice with the same seed replays the identical
//! mutation sequence, which is what makes a failure reproducible
//! anywhere from the one-line report.

use crate::alloc_track;
use crate::mutate::mutate;
use crate::rng::Rng;
use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};

use isobar::{CodecId, IsobarCompressor, IsobarOptions, IsobarReader, IsobarWriter};
use isobar_codecs::bwt::{bwt_forward, bwt_inverse};
use isobar_codecs::deflate::{deflate_raw, inflate_raw};
use isobar_codecs::pfor::{pfor_compress_bytes, pfor_decompress_bytes};
use isobar_codecs::rle::{rle1_decode, rle1_encode};
use isobar_codecs::{codec_for, CodecScratch, CompressionLevel};
use isobar_float_codecs::{Dims, Fpc, FpzipLike};
use isobar_server::protocol::{encode_request, read_response, FrameError, Request};
use isobar_server::{serve, Client, Opcode, ServeOptions, Status};
use isobar_store::{ShardedOptions, ShardedStoreWriter, StoreReader};

/// Fixed allocation headroom a decode call may use regardless of input
/// size: covers prediction tables (FPC decodes with up to 16 MiB of
/// hash tables for its default table size), BWT working state for a
/// maximum-size block, and allocator slack.
pub const FIXED_ALLOC_BUDGET: usize = 64 << 20;

/// Default input-proportional allocation factor: a decode call may
/// additionally keep this many live bytes per byte of (corrupt input +
/// original payload). Generous against legitimate decompression
/// expansion, tiny against a length-field allocation bomb. Layers
/// whose format permits a larger legitimate expansion override it —
/// see [`FPZIP_ALLOC_SCALE`].
pub const ALLOC_SCALE: usize = 64;

/// Allocation factor for the fpzip layer. A saturated adaptive model
/// prices its most likely symbol at ~0.0014 bits, so a *valid* fpzip
/// stream can decode roughly 5 700 residuals (45 000 output bytes) per
/// payload byte; the truncation (overrun) check in the decoder caps a
/// lying header at that same rate, and this budget verifies the cap.
pub const FPZIP_ALLOC_SCALE: usize = 50_000;

/// The fixed seed every fuzz, crash-sweep and stress test runs under.
pub const DEFAULT_SEED: u64 = 0x0150_BA2D_F00D_5EED;

/// A valid encoded artifact plus the payload it decodes back to.
pub struct Artifact {
    /// The encoded form handed to the mutator.
    pub bytes: Vec<u8>,
    /// The original payload, for round-trip checks and alloc budgets.
    pub original: Vec<u8>,
}

/// Outcome of running one layer to completion.
#[derive(Debug, Clone)]
pub struct LayerOutcome {
    /// Layer name.
    pub name: &'static str,
    /// Iterations executed.
    pub iterations: u64,
    /// Decodes that returned `Ok` (mutation survived or was pristine).
    pub accepted: u64,
    /// Decodes that returned a typed error.
    pub rejected: u64,
    /// Largest live-heap growth observed during a single decode call.
    pub max_alloc: usize,
}

/// Decode driver: `(artifact, corrupted bytes, pristine)` →
/// `Ok(true)` accepted, `Ok(false)` rejected with a typed error, or
/// `Err` describing a harness-level contract violation.
type DecodeFn = Box<dyn Fn(&Artifact, &[u8], bool) -> Result<bool, String>>;

/// One decode surface under fault injection.
pub struct Layer {
    name: &'static str,
    pool: Vec<Artifact>,
    alloc_scale: usize,
    decode: DecodeFn,
}

impl Layer {
    /// The layer's name (stable; it leads every failure report).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Run `iters` fault-injection iterations under `seed`.
    ///
    /// Returns `Err` with a reproducible one-line description on the
    /// first panic, allocation-bound violation, pristine round-trip
    /// failure, or harness error.
    pub fn run(&self, seed: u64, iters: u64) -> Result<LayerOutcome, String> {
        let mut rng = Rng::new(seed ^ fnv1a(self.name));
        let mut accepted = 0u64;
        let mut rejected = 0u64;
        let mut max_alloc = 0usize;
        for i in 0..iters {
            let artifact = &self.pool[rng.below(self.pool.len())];
            let pristine = rng.one_in(64);
            let mut bytes = artifact.bytes.clone();
            let mut kinds: Vec<&'static str> = Vec::new();
            if !pristine {
                for _ in 0..1 + rng.below(3) {
                    kinds.push(mutate(&mut rng, &mut bytes));
                }
            }
            let budget =
                FIXED_ALLOC_BUDGET + self.alloc_scale * (bytes.len() + artifact.original.len());
            let before = alloc_track::current();
            alloc_track::reset_peak();
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                (self.decode)(artifact, &bytes, pristine)
            }));
            let delta = alloc_track::peak().saturating_sub(before);
            max_alloc = max_alloc.max(delta);
            let context = format!(
                "layer {} iteration {i} seed {seed:#018x} mutations [{}]",
                self.name,
                kinds.join(", ")
            );
            match outcome {
                Err(payload) => {
                    return Err(format!("PANIC ({}) in {context}", panic_message(&payload)))
                }
                Ok(Err(msg)) => return Err(format!("{msg} in {context}")),
                Ok(Ok(true)) => accepted += 1,
                Ok(Ok(false)) => rejected += 1,
            }
            if alloc_track::installed() && delta > budget {
                return Err(format!(
                    "allocation bound exceeded: {delta} live bytes while decoding {} \
                     input bytes (budget {budget}) in {context}",
                    bytes.len()
                ));
            }
        }
        Ok(LayerOutcome {
            name: self.name,
            iterations: iters,
            accepted,
            rejected,
            max_alloc,
        })
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "non-string panic payload"
    }
}

fn fnv1a(s: &str) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for b in s.bytes() {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// All fuzz layers, covering every format layer (the container in its
/// batch and streamed forms, checkpoint store) and every codec decode path
/// (deflate/zlib, bzip2-class BWT, PFOR, raw inflate, raw BWT block,
/// RLE1, FPC, fpzip-class — the range coder is exercised through the
/// fpzip layer, and Huffman/LZ77/MTF/ZRLE through the deflate and BWT
/// streams).
pub fn all_layers() -> Vec<Layer> {
    vec![
        container_layer(),
        stream_layer(),
        store_layer(),
        codec_layer("codec-deflate", CodecId::Deflate),
        codec_layer("codec-bzip2", CodecId::Bzip2Like),
        pfor_layer(),
        inflate_layer(),
        bwt_layer(),
        rle1_layer(),
        fpc_layer(),
        fpzip_layer(),
        serve_frame_layer(),
    ]
}

// ---------------------------------------------------------------------
// Deterministic payload generators.

fn smooth_f64(n: usize) -> Vec<u8> {
    (0..n)
        .flat_map(|i| (100.0 * (i as f64 * 0.01).sin()).to_le_bytes())
        .collect()
}

fn mixed_u64(n: usize, rng: &mut Rng) -> Vec<u8> {
    // Top half predictable, bottom half noise — the shape ISOBAR's
    // analyzer is built for, so containers exercise partitioned chunks.
    (0..n as u64)
        .flat_map(|i| (((i / 7) << 32) | (rng.next_u64() & 0xFFFF_FFFF)).to_le_bytes())
        .collect()
}

fn noise(len: usize, rng: &mut Rng) -> Vec<u8> {
    let mut out = vec![0u8; len];
    rng.fill(&mut out);
    out
}

fn text(len: usize) -> Vec<u8> {
    b"the quick brown fox jumps over the lazy dog; "
        .iter()
        .copied()
        .cycle()
        .take(len)
        .collect()
}

/// The three high byte-columns of a random-walk f32 field, column after
/// column, 64 KiB: the in-situ read path's solver stream, long enough
/// that inflate spends it in the fast loop rather than the checked tail.
fn float_columns() -> Vec<u8> {
    let (mut state, mut walk) = (7u64, 0i64);
    let mut columns = [Vec::new(), Vec::new(), Vec::new()];
    for _ in 0..21_846 {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        walk += (state >> 33) as i64 % 5 - 2;
        let bytes = ((250.0 + walk as f64 * 0.05) as f32).to_le_bytes();
        for (column, byte) in columns.iter_mut().zip([bytes[3], bytes[2], bytes[1]]) {
            column.push(byte);
        }
    }
    columns.concat()
}

fn small_options() -> IsobarOptions {
    IsobarOptions {
        chunk_elements: 256,
        ..Default::default()
    }
}

// ---------------------------------------------------------------------
// Format layers.

/// One strict decode of a (possibly corrupted) container, by both entry
/// points — the slice `decompress` and [`IsobarReader`] — which must
/// agree on the verdict and on every output byte, whichever form the
/// container is in.
fn decode_container(artifact: &Artifact, bytes: &[u8], pristine: bool) -> Result<bool, String> {
    let slice = IsobarCompressor::default().decompress(bytes);
    let reader = IsobarReader::new(bytes).and_then(|r| r.read_to_vec());
    if slice.as_ref().ok() != reader.as_ref().ok() {
        return Err(format!(
            "slice decoder and reader disagree: {:?} vs {:?}",
            slice.map(|out| out.len()),
            reader.map(|out| out.len())
        ));
    }
    match slice {
        Ok(out) if pristine && out != artifact.original => {
            Err("pristine container round-trip mismatch".into())
        }
        Ok(_) => Ok(true),
        Err(_) if pristine => Err("pristine container rejected".into()),
        Err(_) => Ok(false),
    }
}

/// Batch-form containers, as `IsobarCompressor::compress` writes them.
fn container_layer() -> Layer {
    let mut rng = Rng::new(0xC0DE_C0DE);
    let mk = |data: Vec<u8>, width: usize, codec: Option<CodecId>| {
        let opts = IsobarOptions {
            codec_override: codec,
            ..small_options()
        };
        let bytes = IsobarCompressor::new(opts)
            .compress(&data, width)
            .expect("pool compress");
        Artifact {
            bytes,
            original: data,
        }
    };
    let pool = vec![
        mk(smooth_f64(1024), 8, None),
        mk(mixed_u64(1024, &mut rng), 8, Some(CodecId::Deflate)),
        mk(noise(4096, &mut rng), 4, Some(CodecId::Bzip2Like)),
        mk(text(6000), 8, None),
    ];
    Layer {
        name: "container",
        pool,
        alloc_scale: ALLOC_SCALE,
        decode: Box::new(decode_container),
    }
}

/// Streamed-form containers, as `IsobarWriter` writes them: the length
/// flag, the end marker and the trailer are the mutated surface.
fn stream_layer() -> Layer {
    let mut rng = Rng::new(0x57_BEA4);
    let mk = |data: Vec<u8>, width: usize| {
        let mut writer =
            IsobarWriter::new(Vec::new(), width, small_options()).expect("pool stream");
        std::io::Write::write_all(&mut writer, &data).expect("pool stream write");
        let (bytes, _) = writer.finish().expect("pool stream finish");
        Artifact {
            bytes,
            original: data,
        }
    };
    let pool = vec![
        mk(smooth_f64(1024), 8),
        mk(mixed_u64(768, &mut rng), 8),
        mk(noise(2048, &mut rng), 4),
    ];
    Layer {
        name: "stream",
        pool,
        alloc_scale: ALLOC_SCALE,
        decode: Box::new(decode_container),
    }
}

/// The store as it ships: a directory of `MANIFEST` plus one segment,
/// written by the single-shard [`ShardedStoreWriter`]. The pool holds
/// one artifact per file, so each iteration corrupts either the
/// manifest or the segment, materialises the directory with the other
/// file pristine, and drives open + get for every entry.
fn store_layer() -> Layer {
    let mut rng = Rng::new(0x5708E);
    let vars: Vec<(u32, &'static str, Vec<u8>)> = vec![
        (0, "density", smooth_f64(512)),
        (0, "potential", mixed_u64(512, &mut rng)),
        (1, "density", noise(2048, &mut rng)),
    ];
    let dir = std::env::temp_dir().join(format!("isobar-fuzz-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let writer = ShardedStoreWriter::create(
        &dir,
        small_options(),
        ShardedOptions {
            shards: 1,
            ..Default::default()
        },
    )
    .expect("pool store create");
    for (step, name, data) in &vars {
        writer
            .put(*step, name, data.clone(), 8)
            .expect("pool store put");
    }
    writer.close().expect("pool store close");
    let original: Vec<u8> = vars
        .iter()
        .flat_map(|(_, _, d)| d.iter().copied())
        .collect();
    let files: Vec<(std::ffi::OsString, Vec<u8>)> = std::fs::read_dir(&dir)
        .expect("pool store list")
        .map(|e| {
            let e = e.expect("pool store dir entry");
            (
                e.file_name(),
                std::fs::read(e.path()).expect("pool store read"),
            )
        })
        .collect();
    assert_eq!(files.len(), 2, "one manifest and one segment");
    let pool = files
        .iter()
        .map(|(_, bytes)| Artifact {
            bytes: bytes.clone(),
            original: original.clone(),
        })
        .collect();

    Layer {
        name: "store",
        pool,
        alloc_scale: ALLOC_SCALE,
        decode: Box::new(move |artifact, bytes, pristine| {
            // The corrupted bytes replace the file this artifact was
            // read from; every other file is restored to pristine.
            for (file, content) in &files {
                let content = if *content == artifact.bytes {
                    bytes
                } else {
                    content
                };
                std::fs::write(dir.join(file), content)
                    .map_err(|e| format!("harness: temp store write failed: {e}"))?;
            }
            if !pristine {
                // The manifest checksum stops most damage at the door;
                // fsck and salvage open damaged stores unverified, so
                // the structural checks behind it must hold alone.
                if let Ok(reader) = StoreReader::open_with_verify(&dir, false) {
                    for entry in reader.live_entries() {
                        let _ = reader.get(entry.step, &entry.name);
                    }
                }
            }
            match StoreReader::open(&dir) {
                Ok(reader) => {
                    let mut all_ok = true;
                    for (step, name, data) in &vars {
                        match reader.get(*step, name) {
                            Ok(out) => {
                                if pristine && out != *data {
                                    return Err(format!(
                                        "pristine store round-trip mismatch for {name}@{step}"
                                    ));
                                }
                            }
                            Err(_) if pristine => {
                                return Err(format!("pristine store rejected {name}@{step}"))
                            }
                            Err(_) => all_ok = false,
                        }
                    }
                    Ok(all_ok)
                }
                Err(_) if pristine => Err("pristine store failed to open".into()),
                Err(_) => Ok(false),
            }
        }),
    }
}

// ---------------------------------------------------------------------
// Codec layers.

fn codec_layer(name: &'static str, id: CodecId) -> Layer {
    let mut rng = Rng::new(fnv1a(name));
    let mut pool = Vec::new();
    let mut add = |level, data: Vec<u8>| {
        pool.push(Artifact {
            bytes: codec_for(id, level).compress(&data),
            original: data,
        })
    };
    add(CompressionLevel::Fast, text(8000));
    add(CompressionLevel::Default, noise(4096, &mut rng));
    add(CompressionLevel::Best, smooth_f64(512));
    add(CompressionLevel::Default, vec![0u8; 4096]);
    if id == CodecId::Bzip2Like {
        // A full `Best` block whose RLE1 stream is nothing but 0xFF
        // (every 5 bytes decode to 259): valid, and one mutated length
        // field away from the expansion the decoder must bound.
        add(CompressionLevel::Best, vec![0xFF; 259 * 3558]);
    }
    let codec = codec_for(id, CompressionLevel::Default);
    // Every mutation is also decoded through one scratch that lives as
    // long as the layer, so state a rejected stream left behind cannot
    // turn a later rejection into an acceptance (or the reverse).
    let long_lived = RefCell::new((CodecScratch::new(), Vec::new()));
    Layer {
        name,
        pool,
        alloc_scale: ALLOC_SCALE,
        decode: Box::new(move |artifact, bytes, pristine| {
            let fresh = codec.decompress(bytes);
            let (scratch, out) = &mut *long_lived.borrow_mut();
            let reused = codec
                .decompress_into(bytes, out, scratch)
                .ok()
                .map(|()| &*out);
            if reused != fresh.as_ref().ok() {
                return Err("long-lived scratch changed the decode result".into());
            }
            match fresh {
                Ok(out) => {
                    if pristine && out != artifact.original {
                        return Err("pristine codec round-trip mismatch".into());
                    }
                    Ok(true)
                }
                Err(_) if pristine => Err("pristine codec stream rejected".into()),
                Err(_) => Ok(false),
            }
        }),
    }
}

fn pfor_layer() -> Layer {
    let mut rng = Rng::new(0x9F0A);
    let monotone: Vec<u8> = (0..512u64)
        .flat_map(|i| (1000 + i * 3).to_le_bytes())
        .collect();
    let pool = vec![
        Artifact {
            bytes: pfor_compress_bytes(&monotone, true),
            original: monotone.clone(),
        },
        Artifact {
            bytes: pfor_compress_bytes(&monotone, false),
            original: monotone,
        },
        Artifact {
            bytes: pfor_compress_bytes(&noise(4096, &mut rng), false),
            original: noise(4096, &mut rng),
        },
    ];
    // The third artifact's original differs from its encoded payload
    // (two independent noise draws); repair it for honest round-trips.
    let mut pool = pool;
    pool[2].original = pfor_decompress_bytes(&pool[2].bytes).expect("pool pfor");
    Layer {
        name: "codec-pfor",
        pool,
        alloc_scale: ALLOC_SCALE,
        decode: Box::new(
            |artifact, bytes, pristine| match pfor_decompress_bytes(bytes) {
                Ok(out) => {
                    if pristine && out != artifact.original {
                        return Err("pristine PFOR round-trip mismatch".into());
                    }
                    Ok(true)
                }
                Err(_) if pristine => Err("pristine PFOR stream rejected".into()),
                Err(_) => Ok(false),
            },
        ),
    }
}

fn inflate_layer() -> Layer {
    let mut rng = Rng::new(0x1F1A7E);
    let mk = |data: Vec<u8>, level: CompressionLevel| Artifact {
        bytes: deflate_raw(&data, level),
        original: data,
    };
    let pool = vec![
        mk(text(8000), CompressionLevel::Default),
        mk(noise(4096, &mut rng), CompressionLevel::Fast),
        mk(vec![7u8; 5000], CompressionLevel::Best),
        mk(float_columns(), CompressionLevel::Fast),
    ];
    Layer {
        name: "raw-inflate",
        pool,
        alloc_scale: ALLOC_SCALE,
        decode: Box::new(|artifact, bytes, pristine| {
            match inflate_raw(bytes, artifact.original.len()) {
                Ok(out) => {
                    if pristine && out != artifact.original {
                        return Err("pristine inflate round-trip mismatch".into());
                    }
                    Ok(true)
                }
                Err(_) if pristine => Err("pristine deflate stream rejected".into()),
                Err(_) => Ok(false),
            }
        }),
    }
}

fn bwt_layer() -> Layer {
    let mut rng = Rng::new(0xB3717);
    let mk = |data: Vec<u8>| {
        let bwt = bwt_forward(&data);
        let bytes: Vec<u8> = bwt.iter().flat_map(|s| s.to_le_bytes()).collect();
        Artifact {
            bytes,
            original: data,
        }
    };
    let pool = vec![
        mk(text(3000)),
        mk(noise(1024, &mut rng)),
        mk(vec![0u8; 800]),
    ];
    Layer {
        name: "raw-bwt",
        pool,
        alloc_scale: ALLOC_SCALE,
        decode: Box::new(|artifact, bytes, pristine| {
            // Reinterpret the (mutated) bytes as the u16 last column; a
            // trailing odd byte is dropped, which is itself a fault.
            let symbols: Vec<u16> = bytes
                .chunks_exact(2)
                .map(|c| u16::from_le_bytes([c[0], c[1]]))
                .collect();
            match bwt_inverse(&symbols) {
                Ok(out) => {
                    if pristine && out != artifact.original {
                        return Err("pristine BWT round-trip mismatch".into());
                    }
                    Ok(true)
                }
                Err(_) if pristine => Err("pristine BWT block rejected".into()),
                Err(_) => Ok(false),
            }
        }),
    }
}

fn rle1_layer() -> Layer {
    let mut rng = Rng::new(0x41E1);
    let mk = |data: Vec<u8>| Artifact {
        bytes: rle1_encode(&data),
        original: data,
    };
    let pool = vec![
        mk(vec![9u8; 10_000]),
        mk(noise(2048, &mut rng)),
        mk(text(4000)),
    ];
    Layer {
        name: "raw-rle1",
        pool,
        alloc_scale: ALLOC_SCALE,
        decode: Box::new(|artifact, bytes, pristine| {
            // RLE1 decode is total: every byte string is a valid
            // encoding. The layer still checks panic-freedom, the
            // allocation bound (expansion is ≤ ~52× input), and exact
            // pristine round-trips.
            let out = rle1_decode(bytes);
            if pristine && out != artifact.original {
                return Err("pristine RLE1 round-trip mismatch".into());
            }
            Ok(true)
        }),
    }
}

// ---------------------------------------------------------------------
// Float-codec layers.

fn fpc_layer() -> Layer {
    let mut rng = Rng::new(0xF9C);
    let fpc = Fpc::default();
    let mk = |data: Vec<u8>| Artifact {
        bytes: fpc.compress(&data),
        original: data,
    };
    let pool = vec![
        mk(smooth_f64(1024)),
        mk(noise(4096, &mut rng)),
        mk(vec![0u8; 2048]),
    ];
    Layer {
        name: "float-fpc",
        pool,
        alloc_scale: ALLOC_SCALE,
        decode: Box::new(
            move |artifact, bytes, pristine| match fpc.decompress(bytes) {
                Ok(out) => {
                    if pristine && out != artifact.original {
                        return Err("pristine FPC round-trip mismatch".into());
                    }
                    Ok(true)
                }
                Err(_) if pristine => Err("pristine FPC stream rejected".into()),
                Err(_) => Ok(false),
            },
        ),
    }
}

// ---------------------------------------------------------------------
// Network layer.

/// Mutated request frames against a *live in-process daemon*: the
/// layer starts `isobar serve` on a loopback socket once, and every
/// iteration opens a connection, writes the (possibly corrupted)
/// frame, half-closes the write side (so a frame whose header claims
/// more bytes than were sent reads EOF instead of waiting out the
/// daemon's frame timeout), and reads the daemon's answer.
///
/// The layer's verdict mapping:
///
/// * `Ok` / `NotFound` — the mutation survived decoding (accepted).
/// * `BadRequest` / `Busy`, or the daemon closing the connection
///   without answering — a typed rejection.
/// * `ServerError` / `ShuttingDown`, a read timeout (the daemon
///   hung), or a malformed *response* frame — a contract violation
///   that fails the layer, exactly like a panic. The daemon runs in
///   this process, so an actual panic in its connection threads also
///   surfaces (the connection drops and, more loudly, the panic
///   prints), and its allocations count against this layer's budget —
///   a length-field bomb that tricked the daemon into a giant buffer
///   would trip the allocation bound even though the allocation
///   happens server-side.
fn serve_frame_layer() -> Layer {
    use std::sync::atomic::{AtomicUsize, Ordering};
    // all_layers() may be called more than once per process (the fuzz
    // binary and tests); each daemon needs its own store directory.
    static INSTANCE: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "isobar-fuzz-serve-{}-{}",
        std::process::id(),
        INSTANCE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let server = serve(
        &dir,
        "127.0.0.1:0",
        None,
        ServeOptions {
            shards: 1,
            // Small bounds so lying length fields are cheap to reject
            // and threshold commits actually happen under fuzz load.
            max_payload: 1 << 20,
            commit_threshold: 256 << 10,
            ..Default::default()
        },
    )
    .expect("pool serve daemon");
    let addr = server.local_addr();

    // Seed the store so get/stat/ls artifacts address live entries.
    let seed = smooth_f64(256);
    {
        let mut client = Client::connect(addr).expect("pool serve client");
        let resp = client
            .put("fuzz", 0, "density", 8, seed.clone())
            .expect("pool serve seed put");
        assert_eq!(resp.status, Status::Ok, "pool seed put must succeed");
    }

    let mk = |req: Request| Artifact {
        bytes: encode_request(&req),
        original: req.payload,
    };
    let query = |opcode: Opcode, tenant: &str, name: &str| {
        mk(Request {
            opcode,
            tenant: tenant.to_string(),
            name: name.to_string(),
            step: 0,
            width: 0,
            payload: Vec::new(),
        })
    };
    let mut rng = Rng::new(0x5EA7_F4A3);
    let pool = vec![
        mk(Request {
            opcode: Opcode::Put,
            tenant: "fuzz".to_string(),
            name: "density".to_string(),
            step: 1,
            width: 8,
            payload: smooth_f64(128),
        }),
        mk(Request {
            opcode: Opcode::Put,
            tenant: String::new(),
            name: "wide".to_string(),
            step: 0,
            width: 4,
            payload: noise(1024, &mut rng),
        }),
        query(Opcode::Get, "fuzz", "density"),
        query(Opcode::Stat, "fuzz", "density"),
        query(Opcode::Ls, "fuzz", ""),
    ];

    Layer {
        name: "serve-frame",
        pool,
        alloc_scale: ALLOC_SCALE,
        decode: Box::new(move |_, bytes, pristine| {
            // The closure owns the daemon; dropping the layer shuts it
            // down and joins its threads.
            let _daemon = &server;
            let mut stream = std::net::TcpStream::connect(addr)
                .map_err(|e| format!("harness: serve connect failed: {e}"))?;
            stream
                .set_read_timeout(Some(std::time::Duration::from_secs(10)))
                .map_err(|e| format!("harness: serve socket setup failed: {e}"))?;
            let _ = stream.set_nodelay(true);
            if std::io::Write::write_all(&mut stream, bytes).is_err() {
                // The daemon rejected the header mid-frame and closed;
                // the reset killing our write is a typed rejection.
                if pristine {
                    return Err("pristine frame write was refused".into());
                }
                return Ok(false);
            }
            let _ = stream.shutdown(std::net::Shutdown::Write);
            match read_response(&mut stream, 2 << 20) {
                Ok(resp) => match resp.status {
                    Status::Ok | Status::NotFound => Ok(true),
                    Status::BadRequest | Status::Busy => {
                        if pristine {
                            return Err(format!(
                                "pristine frame answered {:?}: {}",
                                resp.status,
                                String::from_utf8_lossy(&resp.payload)
                            ));
                        }
                        Ok(false)
                    }
                    Status::ServerError | Status::ShuttingDown => Err(format!(
                        "daemon answered {:?} to a mutated frame: {}",
                        resp.status,
                        String::from_utf8_lossy(&resp.payload)
                    )),
                },
                Err(FrameError::Io(e))
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    Err("daemon hung on a mutated frame (read timeout)".into())
                }
                Err(_) if pristine => Err("pristine frame got no valid response".into()),
                // Connection closed without an answer: the daemon
                // dropped an untrustworthy stream. Typed rejection.
                Err(_) => Ok(false),
            }
        }),
    }
}

fn fpzip_layer() -> Layer {
    let fpz = FpzipLike;
    let linear = smooth_f64(1024);
    let grid: Vec<u8> = (0..32 * 32)
        .flat_map(|i| {
            let (x, y) = (i % 32, i / 32);
            (((x as f64) * 0.2).sin() + ((y as f64) * 0.3).cos()).to_le_bytes()
        })
        .collect();
    let pool = vec![
        Artifact {
            bytes: fpz
                .compress_f64(&linear, Dims::linear(1024))
                .expect("pool fpzip"),
            original: linear,
        },
        Artifact {
            bytes: fpz
                .compress_f64(
                    &grid,
                    Dims {
                        nx: 32,
                        ny: 32,
                        nz: 1,
                    },
                )
                .expect("pool fpzip grid"),
            original: grid,
        },
    ];
    Layer {
        name: "float-fpzip",
        pool,
        alloc_scale: FPZIP_ALLOC_SCALE,
        decode: Box::new(
            move |artifact, bytes, pristine| match fpz.decompress(bytes) {
                Ok(out) => {
                    if pristine && out != artifact.original {
                        return Err("pristine fpzip round-trip mismatch".into());
                    }
                    Ok(true)
                }
                Err(_) if pristine => Err("pristine fpzip stream rejected".into()),
                Err(_) => Ok(false),
            },
        ),
    }
}
