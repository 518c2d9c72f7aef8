//! Equal input ⇒ equal bytes under a speed preference: no EUPA
//! comparison reads a clock, so a loaded machine, a warm scratch, the
//! thread pool and the way a stream is fed all leave the container
//! unchanged.

use isobar::container::{HEADER_LEN, TRAILER_LEN};
use isobar::{
    CompressionLevel, IsobarCompressor, IsobarOptions, IsobarWriter, PipelineScratch, Preference,
    Recorder,
};
use isobar_codecs::xxhash::xxh64;
use isobar_datasets::catalog;
use std::collections::BTreeSet;
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};

const ROUNDS: usize = 20;
const ELEMENTS: usize = 12_000;

/// Stops the spinning thread even when an assertion unwinds past it
/// (the scope joins the thread before the panic can surface).
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

/// What both container forms share: the header up to the length fields
/// and the records.
fn identity(container: &[u8], streamed: bool) -> u64 {
    let end = container.len() - if streamed { TRAILER_LEN } else { 0 };
    xxh64(&[&container[..16], &container[HEADER_LEN..end]].concat(), 0)
}

#[test]
fn speed_preference_bytes_do_not_depend_on_load_scratch_threads_or_feeding() {
    // Improvable f64 (its two zlib sample ratios sit inside the layout
    // rule's tie band), improvable f32, not improvable.
    let inputs: Vec<(Vec<u8>, usize)> = ["gts_phi_l", "s3d_temp", "msg_sppm"]
        .iter()
        .map(|name| {
            let ds = catalog::spec(name)
                .expect("catalog entry")
                .generate(ELEMENTS, 7);
            let width = ds.width();
            (ds.bytes, width)
        })
        .collect();
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let _stop = StopOnDrop(&stop);
        // Competes for the core the trials are timed on.
        scope.spawn(|| {
            let mut x = 1u64;
            while !stop.load(Ordering::Relaxed) {
                x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
            }
        });
        for level in [CompressionLevel::Fast, CompressionLevel::Default] {
            let options = IsobarOptions {
                preference: Preference::Speed,
                level,
                chunk_elements: 4096, // two chunks and a ragged third
                ..Default::default()
            };
            let serial = IsobarCompressor::new(options);
            let parallel = IsobarCompressor::new(IsobarOptions {
                parallel: true,
                ..options
            });
            let mut hashes = vec![BTreeSet::new(); inputs.len()];
            // One scratch for all inputs in turn: each call finds it
            // warm from another dataset.
            let (mut scratch, mut recorder) = (PipelineScratch::new(), Recorder::new());
            for round in 0..ROUNDS {
                for ((data, width), seen) in inputs.iter().zip(&mut hashes) {
                    let fresh = serial.compress(data, *width).unwrap();
                    let warm = serial
                        .compress_recorded(data, *width, &mut scratch, &mut recorder)
                        .unwrap();
                    let pooled = parallel.compress(data, *width).unwrap();
                    let mut writer = IsobarWriter::new(Vec::new(), *width, options).unwrap();
                    writer.decide(data).unwrap();
                    for piece in data.chunks(1_000 + 37 * round) {
                        writer.write_all(piece).unwrap();
                    }
                    let (streamed, _) = writer.finish().unwrap();
                    seen.extend([&fresh, &warm, &pooled].map(|c| identity(c, false)));
                    seen.insert(identity(&streamed, true));
                }
            }
            for (seen, name) in hashes.iter().zip(["f64", "f32", "not improvable"]) {
                assert_eq!(seen.len(), 1, "{name} at {level}: {seen:x?}");
            }
        }
    });
}
