//! The three library workloads: `IsobarCompressor` called the way
//! `isobar compress` calls it, over rotating slabs of one catalog
//! dataset.

use crate::inputs::{hash_inputs, slabs, Variable, Verifier};
use crate::replay::{self, Sample};
use crate::run::{measure_setup, CpuMeter, EndToEnd, Latency, Rate, RunArgs};
use crate::spec::Metrics;
use crate::stats::Estimate;
use crate::sys::cpu_seconds;
use crate::trace::Tracer;
use isobar::{CompressionLevel, IsobarCompressor, IsobarOptions, Preference};
use std::hint::black_box;
use std::time::Instant;

pub struct LibWorkload {
    pub dataset: &'static str,
    pub slab_bytes: usize,
    pub options: IsobarOptions,
}

/// Slabs rotated through; the fourth op is the first to see bytes the
/// compressor has seen before.
const SLABS: usize = 4;

pub fn definition(name: &str) -> Option<LibWorkload> {
    let speed = IsobarOptions {
        preference: Preference::Speed,
        level: CompressionLevel::Fast,
        ..Default::default()
    };
    Some(match name {
        // 4 chunks of 375 000 doubles.
        "ratio_noise_f64" => LibWorkload {
            dataset: "gts_chkp_zion",
            slab_bytes: 12_000_000,
            options: IsobarOptions::default(),
        },
        // 4 chunks of 375 000 singles.
        "speed_mixed_f32" => LibWorkload {
            dataset: "s3d_temp",
            slab_bytes: 6_000_000,
            options: speed,
        },
        // 2 chunks of 375 000 doubles, not improvable.
        "ratio_passthrough" => LibWorkload {
            dataset: "msg_sppm",
            slab_bytes: 6_000_000,
            options: IsobarOptions::default(),
        },
        _ => return None,
    })
}

fn set_up(def: &LibWorkload, args: &RunArgs) -> (Vec<Variable>, Estimate) {
    let compressor = IsobarCompressor::new(def.options);
    measure_setup(args, |_| {
        let slabs = slabs(def.dataset, args.scaled(def.slab_bytes), SLABS, args.seed);
        // Warm-up op: page in the code and grow the allocator once.
        let s = &slabs[0];
        let packed = compressor
            .compress(&s.bytes, s.width)
            .expect("warm-up compress");
        black_box(compressor.decompress(&packed).expect("warm-up decompress"));
        slabs
    })
}

pub fn run(def: &LibWorkload, args: &RunArgs) -> EndToEnd {
    let verifier = Verifier::from_env();
    let compressor = IsobarCompressor::new(def.options);
    let (slabs, setup_s) = set_up(def, args);
    let input_hash = hash_inputs(slabs.iter().map(|s| s.bytes.as_slice()));

    let mut cpu = CpuMeter::default();
    let mut puts: Vec<(u64, f64)> = Vec::new();
    let mut gets: Vec<(u64, f64)> = Vec::new();
    let mut packed_len = [0usize; SLABS];
    let (mut attempted, mut failed) = (0u64, 0u64);
    let phase = Instant::now();
    let mut op = 0usize;
    // At least one full rotation, so `ratio` always covers every slab.
    while op < SLABS || phase.elapsed().as_secs_f64() < args.seconds {
        let slab = &slabs[op % SLABS];
        let len = slab.bytes.len() as u64;
        op += 1;
        attempted += 1;
        let cpu_before = cpu_seconds();
        let t = Instant::now();
        let compressed = compressor.compress_with_report(black_box(&slab.bytes), slab.width);
        let put_s = t.elapsed().as_secs_f64();
        let Ok((packed, _report)) = compressed else {
            cpu.add(len, cpu_seconds() - cpu_before);
            failed += 1;
            continue;
        };
        let t = Instant::now();
        let restored = compressor.decompress(black_box(&packed));
        let get_s = t.elapsed().as_secs_f64();
        cpu.add(2 * len, cpu_seconds() - cpu_before);
        match restored {
            Ok(out) if verifier.same(&out, &slab.bytes) => {
                puts.push((len, put_s));
                gets.push((len, get_s));
                packed_len[(op - 1) % SLABS] = packed.len();
            }
            _ => failed += 1,
        }
    }

    let raw: usize = slabs.iter().map(|s| s.bytes.len()).sum();
    let at_rest: usize = packed_len.iter().sum();
    let (ingest, restore) = (
        Rate::of_fastest_blocks(&puts),
        Rate::of_fastest_blocks(&gets),
    );
    let slab_bytes = slabs[0].bytes.len() as u64;
    let (put, get) = (
        Latency::AtRate {
            bytes: slab_bytes,
            mbps: ingest.mbps,
        },
        Latency::AtRate {
            bytes: slab_bytes,
            mbps: restore.mbps,
        },
    );
    EndToEnd {
        ingest,
        restore,
        ratio: raw as f64 / at_rest.max(1) as f64,
        cpu_s_per_gb: cpu.per_gb(),
        put,
        get,
        attempted,
        failed,
        setup_s,
        input_hash,
        // The schedule is the rotation itself.
        schedule_hash: SLABS as u64,
    }
}

/// The traced run: the first slab, four times, through the layer
/// replay.
pub fn run_traced(
    def: &LibWorkload,
    args: &RunArgs,
    tracer: &mut Tracer,
    m: &mut Metrics,
) -> (u64, u64) {
    let verifier = Verifier::from_env();
    let (slabs, _) = set_up(def, args);
    let first = &slabs[0];
    let samples: Vec<Sample> = (0..4)
        .map(|_| Sample {
            bytes: &first.bytes,
            width: first.width,
        })
        .collect();
    let (attempted, failed, attributed) =
        replay::lib_layers(tracer, m, &samples, def.options, &verifier);
    // A budget that does not add up is not printed. (At 1/20 scale the
    // fixed costs of a call outweigh its layers.)
    assert!(
        args.quick || attributed >= 0.90,
        "layer spans cover only {attributed:.3} of the compress call"
    );

    // The same ops with and without the harness's spans around them.
    let compressor = IsobarCompressor::new(def.options);
    let timed = |tracer: &mut Tracer| {
        let t = Instant::now();
        for (i, s) in samples.iter().enumerate() {
            let packed = tracer
                .span("harness.compress", i as u64, || {
                    compressor.compress(s.bytes, s.width)
                })
                .expect("compress");
            let out = tracer
                .span("harness.decompress", i as u64, || {
                    compressor.decompress(&packed)
                })
                .expect("decompress");
            black_box(out);
        }
        t.elapsed().as_secs_f64()
    };
    let untraced_s = timed(&mut Tracer::new(Instant::now(), 0, false));
    let traced_s = timed(tracer);
    m.set(
        "trace.harness_overhead_share",
        (traced_s - untraced_s) / untraced_s,
    );
    for layer in ["store.", "core.", "daemon.", "client."] {
        m.absent_layer(layer);
    }
    (attempted, failed)
}
