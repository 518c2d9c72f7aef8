//! Criterion benches for the standalone codecs.
//!
//! Throughput of compression and decompression for both ISOBAR solvers
//! and both floating-point baselines, on a representative
//! hard-to-compress buffer (gts-like doubles). These are the numbers
//! behind Table V's zlib/bzlib2 columns and Table X's FPC/fpzip
//! columns. The `bwt_stages` groups split the bzlib2-class solver's
//! time on one block into its stages, on the two shapes of input the
//! pipeline feeds it, so a regression can be read off the table; the
//! `deflate_decode` group does the same for the zlib-class solver's
//! read path.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use isobar::partitioner::{partition, partition_into};
use isobar::{Analyzer, EupaSelector, Linearization, Preference};
use isobar_codecs::bwt::{BlockStages, Bzip2Like};
use isobar_codecs::deflate::encoder::EncodeStages;
use isobar_codecs::lz77::{tokenize, MatcherScratch};
use isobar_codecs::{deflate::Deflate, Codec, CodecScratch, CompressionLevel};
use isobar_datasets::catalog;
use isobar_float_codecs::{Dims, Fpc, FpzipLike};

const ELEMENTS: usize = 375_000; // one paper chunk ≈ 3 MB

fn bench_general_codecs(c: &mut Criterion) {
    let ds = catalog::spec("gts_chkp_zion")
        .expect("catalog entry")
        .generate(ELEMENTS, 7);
    let mut group = c.benchmark_group("general_codecs");
    group.throughput(Throughput::Bytes(ds.bytes.len() as u64));
    group.sample_size(10);

    for codec in [&Deflate::default() as &dyn Codec, &Bzip2Like::default()] {
        group.bench_with_input(
            BenchmarkId::new("compress", codec.name()),
            &ds.bytes,
            |b, data| b.iter(|| codec.compress(data)),
        );
        let packed = codec.compress(&ds.bytes);
        group.bench_with_input(
            BenchmarkId::new("decompress", codec.name()),
            &packed,
            |b, data| b.iter(|| codec.decompress(data).expect("own stream")),
        );
    }
    group.finish();
}

/// One `Default`-level block of each solver input the benchmark's
/// `ratio_*` workloads produce: the compressible columns of a
/// `gts_chkp_zion` chunk (two of eight, row-linearised — every second
/// byte is the slowly varying exponent) and a raw `msg_sppm` chunk
/// (not improvable, so the solver gets all of it).
fn bench_bwt_stages(c: &mut Criterion) {
    let chunk = |name: &str| {
        catalog::spec(name)
            .expect("catalog entry")
            .generate(ELEMENTS, 7)
            .bytes
    };
    let gts = chunk("gts_chkp_zion");
    let selection = Analyzer::default().analyze(&gts, 8).expect("aligned");
    let gts = partition(&gts, 8, &selection, Linearization::Row).compressible;
    let block_len = Bzip2Like::default().block_size();
    for (name, input) in [
        ("gts_chkp_zion_partitioned", gts),
        ("msg_sppm", chunk("msg_sppm")),
    ] {
        let block = &input[..block_len];
        let mut stages = BlockStages::new(block);
        let mut group = c.benchmark_group(format!("bwt_stages/{name}"));
        group.throughput(Throughput::Bytes(block.len() as u64));
        group.sample_size(10);
        group.bench_function("suffix_array", |b| b.iter(|| stages.suffix_array()));
        group.bench_function("mtf_zero_run", |b| b.iter(|| stages.mtf_zero_run()));
        group.bench_function("build_tables", |b| b.iter(|| stages.build_tables()));
        group.bench_function("huffman_emit", |b| b.iter(|| stages.huffman_emit()));
        group.bench_function("huffman_decode", |b| b.iter(|| stages.huffman_decode()));
        group.bench_function("inverse_bwt", |b| b.iter(|| stages.inverse_bwt()));
        group.finish();
    }
}

/// The solver streams of the in-situ (`Speed` + `Fast`) path: one 6 MB
/// slab each of an f32 field, an f64 field and a repetitive f64 field,
/// analysed, laid out as EUPA picks and partitioned exactly as the
/// pipeline does; the compressible bytes it hands the solver.
fn fast_solver_inputs() -> Vec<(&'static str, Vec<u8>)> {
    const SLAB_BYTES: usize = 6 << 20;
    let eupa = EupaSelector {
        level: CompressionLevel::Fast,
        ..EupaSelector::default()
    };
    ["s3d_temp", "flash_gamc", "msg_sppm"]
        .into_iter()
        .map(|name| {
            let spec = catalog::spec(name).expect("catalog entry");
            let width = spec.element.width();
            let slab = spec.generate(SLAB_BYTES / width, 7).bytes;
            let selection = Analyzer::default().analyze(&slab, width).expect("aligned");
            let decision = eupa.select(&slab, width, &selection, Preference::Speed);
            let (mut raw, mut rest) = (Vec::new(), Vec::new());
            partition_into(
                &slab,
                width,
                &selection,
                decision.linearization,
                &mut raw,
                &mut rest,
            );
            (name, raw)
        })
        .collect()
}

/// DEFLATE encode of the in-situ solver inputs at `Fast`, whole and by
/// stage: the matcher alone, then histograms + Huffman build + emit of
/// its tokens. Throughput is over the solver-input bytes.
fn bench_deflate_encode(c: &mut Criterion) {
    let codec = Deflate::new(CompressionLevel::Fast);
    let mut group = c.benchmark_group("deflate_encode");
    group.sample_size(10);
    for (name, raw) in fast_solver_inputs() {
        group.throughput(Throughput::Bytes(raw.len() as u64));
        let mut stages = EncodeStages::new(&raw);
        group.bench_function(&format!("{name}/matcher"), |b| b.iter(|| stages.matcher()));
        group.bench_function(&format!("{name}/blocks"), |b| b.iter(|| stages.blocks()));
        let mut scratch = CodecScratch::new();
        let mut packed = Vec::new();
        group.bench_function(&format!("{name}/compress_into"), |b| {
            b.iter(|| codec.compress_into(&raw, &mut packed, &mut scratch))
        });
        assert_eq!(
            codec.decompress(&packed).expect("own stream"),
            raw,
            "{name}"
        );
    }
    group.finish();
}

/// DEFLATE decode of the same solver inputs' `Fast` streams into a
/// reused buffer. Throughput is over the decoded (solver-input) bytes.
fn bench_deflate_decode(c: &mut Criterion) {
    let codec = Deflate::new(CompressionLevel::Fast);
    let mut group = c.benchmark_group("deflate_decode");
    group.sample_size(10);
    for (name, raw) in fast_solver_inputs() {
        let mut scratch = CodecScratch::new();
        let mut packed = Vec::new();
        codec.compress_into(&raw, &mut packed, &mut scratch);
        let mut out = Vec::new();
        group.throughput(Throughput::Bytes(raw.len() as u64));
        group.bench_function(name, |b| {
            b.iter(|| {
                codec
                    .decompress_into(&packed, &mut out, &mut scratch)
                    .expect("own stream")
            })
        });
        assert_eq!(out, raw, "{name}");
    }
    group.finish();
}

fn bench_float_codecs(c: &mut Criterion) {
    let ds = catalog::spec("gts_chkp_zion")
        .expect("catalog entry")
        .generate(ELEMENTS, 7);
    let mut group = c.benchmark_group("float_codecs");
    group.throughput(Throughput::Bytes(ds.bytes.len() as u64));
    group.sample_size(10);

    let fpc = Fpc::default();
    group.bench_function("compress/fpc", |b| b.iter(|| fpc.compress(&ds.bytes)));
    let fpc_packed = fpc.compress(&ds.bytes);
    group.bench_function("decompress/fpc", |b| {
        b.iter(|| fpc.decompress(&fpc_packed).expect("own stream"))
    });

    let fpz = FpzipLike;
    let dims = Dims::linear(ELEMENTS);
    group.bench_function("compress/fpzip", |b| {
        b.iter(|| fpz.compress_f64(&ds.bytes, dims).expect("aligned"))
    });
    let fpz_packed = fpz.compress_f64(&ds.bytes, dims).expect("aligned");
    group.bench_function("decompress/fpzip", |b| {
        b.iter(|| fpz.decompress(&fpz_packed).expect("own stream"))
    });
    group.finish();
}

/// Input profiles for the LZ77 matcher, spanning its fast paths:
/// constant data (maximal match lengths), mixed-entropy scientific
/// doubles (the pipeline's real diet), and pure noise (probe misses,
/// where the Fast level's run-skip heuristic pays off).
fn matcher_profiles() -> Vec<(&'static str, Vec<u8>)> {
    const BYTES: usize = 1 << 20;
    let constant = vec![0x5Au8; BYTES];
    let mixed = catalog::spec("gts_chkp_zion")
        .expect("catalog entry")
        .generate(BYTES / 8, 7)
        .bytes;
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let noise: Vec<u8> = (0..BYTES)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 56) as u8
        })
        .collect();
    vec![
        ("constant", constant),
        ("mixed_doubles", mixed),
        ("noise", noise),
    ]
}

fn bench_matcher(c: &mut Criterion) {
    let mut group = c.benchmark_group("lz77_matcher");
    group.sample_size(10);
    for (profile, data) in matcher_profiles() {
        group.throughput(Throughput::Bytes(data.len() as u64));
        for level in CompressionLevel::ALL {
            // The scratch persists across iterations, matching how the
            // pipeline drives the matcher chunk after chunk.
            let mut scratch = MatcherScratch::default();
            group.bench_with_input(
                BenchmarkId::new(format!("tokenize/{level}"), profile),
                &data,
                |b, data| b.iter(|| tokenize(data, level, &mut scratch).len()),
            );
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_general_codecs,
    bench_bwt_stages,
    bench_deflate_encode,
    bench_deflate_decode,
    bench_float_codecs,
    bench_matcher
);
criterion_main!(benches);
