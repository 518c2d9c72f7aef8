//! Criterion benches for the standalone codecs.
//!
//! Throughput of compression and decompression for both ISOBAR solvers
//! and both floating-point baselines, on a representative
//! hard-to-compress buffer (gts-like doubles). These are the numbers
//! behind Table V's zlib/bzlib2 columns and Table X's FPC/fpzip
//! columns. The `bwt_stages` groups split the bzlib2-class solver's
//! time on one block into its stages, on the two shapes of input the
//! pipeline feeds it, at a `Default` block and at EUPA's 16 KiB trial
//! size, so a regression can be read off the table; the
//! `deflate_decode` group does the same for the zlib-class solver's
//! read path. `huffman/package_merge` times one length-limited code
//! construction on the histograms both solvers build codes from.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use isobar::partitioner::{partition, partition_into};
use isobar::{Analyzer, EupaSelector, Linearization, Preference};
use isobar_codecs::bwt::{BlockStages, Bzip2Like};
use isobar_codecs::deflate::encoder::EncodeStages;
use isobar_codecs::huffman::{package_merge_into, PackageMergeScratch};
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

/// Each solver input the benchmark's `ratio_*` workloads produce: the
/// compressible columns of a `gts_chkp_zion` chunk (two of eight,
/// row-linearised — every second byte is the slowly varying exponent)
/// and a raw `msg_sppm` chunk (not improvable, so the solver gets all
/// of it).
fn bwt_solver_inputs() -> [(&'static str, Vec<u8>); 2] {
    let chunk = |name: &str| {
        catalog::spec(name)
            .expect("catalog entry")
            .generate(ELEMENTS, 7)
            .bytes
    };
    let gts = chunk("gts_chkp_zion");
    let selection = Analyzer::default().analyze(&gts, 8).expect("aligned");
    let gts = partition(&gts, 8, &selection, Linearization::Row).compressible;
    [
        ("gts_chkp_zion_partitioned", gts),
        ("msg_sppm", chunk("msg_sppm")),
    ]
}

/// The blocks the `bwt_stages` rows split: one `Default`-level block of
/// each solver input, and its first 16 KiB — the size of one EUPA trial
/// block, where table construction is a fixed cost next to a small
/// suffix array.
fn bwt_stage_blocks() -> Vec<(String, Vec<u8>)> {
    let block_len = Bzip2Like::default().block_size();
    bwt_solver_inputs()
        .into_iter()
        .flat_map(|(name, input)| {
            [
                (name.to_string(), input[..block_len].to_vec()),
                (format!("{name}_16k"), input[..16 << 10].to_vec()),
            ]
        })
        .collect()
}

fn bench_bwt_stages(c: &mut Criterion) {
    for (name, block) in bwt_stage_blocks() {
        let mut stages = BlockStages::new(&block);
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

/// One length-limited Huffman code construction, on every histogram
/// each solver builds a code from for catalog data, one per iteration
/// in turn through one kept scratch: the bzlib2-class solver's tables
/// on the `bwt_stages` blocks, and the `Fast` DEFLATE encoder's three
/// codes per block of the `deflate_encode` inputs.
fn bench_package_merge(c: &mut Criterion) {
    let mut bwt = Vec::new();
    for (_, block) in bwt_stage_blocks() {
        bwt.extend(BlockStages::new(&block).table_freqs());
    }
    let [mut litlen, mut dist, mut codelen] = [Vec::new(), Vec::new(), Vec::new()];
    for (_, raw) in fast_solver_inputs() {
        let [l, d, cl] = EncodeStages::new(&raw).code_freqs();
        litlen.extend(l);
        dist.extend(d);
        codelen.extend(cl);
    }
    let mut group = c.benchmark_group("huffman/package_merge");
    group.sample_size(10);
    for (name, max_len, tables) in [
        ("bwt_258_l20", 20, bwt),
        ("litlen_286_l15", 15, litlen),
        ("dist_30_l15", 15, dist),
        ("codelen_19_l7", 7, codelen),
    ] {
        assert!(!tables.is_empty(), "{name}: no histograms harvested");
        let mut scratch = PackageMergeScratch::new();
        let mut lengths = vec![0u8; tables[0].len()];
        let mut next = 0;
        group.bench_function(name, |b| {
            b.iter(|| {
                let freqs = &tables[next % tables.len()];
                next += 1;
                package_merge_into(freqs, max_len, &mut scratch, &mut lengths);
                lengths[0]
            })
        });
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

/// The solver streams of Table X's ISOBAR-Sp rows at the `Default`
/// level: one paper chunk of each dataset, analysed, laid out as a
/// `Ratio` EUPA picks at `Default` and partitioned; the compressible
/// bytes it hands the solver.
fn default_solver_inputs() -> Vec<(&'static str, Vec<u8>)> {
    ["gts_chkp_zion", "xgc_iphase", "flash_velx", "flash_gamc"]
        .into_iter()
        .map(|name| {
            let spec = catalog::spec(name).expect("catalog entry");
            let width = spec.element.width();
            let chunk = spec.generate(ELEMENTS, 7).bytes;
            let selection = Analyzer::default().analyze(&chunk, width).expect("aligned");
            let decision =
                EupaSelector::default().select(&chunk, width, &selection, Preference::Ratio);
            let (mut raw, mut rest) = (Vec::new(), Vec::new());
            partition_into(
                &chunk,
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

fn bench_matcher(c: &mut Criterion) {
    let mut group = c.benchmark_group("lz77_matcher");
    group.sample_size(10);
    // The scratch persists across iterations, matching how the pipeline
    // drives the matcher chunk after chunk.
    let mut tokenize_row = |level: CompressionLevel, input: &str, data: &[u8]| {
        group.throughput(Throughput::Bytes(data.len() as u64));
        let mut scratch = MatcherScratch::default();
        group.bench_with_input(
            BenchmarkId::new(format!("tokenize/{level}"), input),
            data,
            |b, data| b.iter(|| tokenize(data, level, &mut scratch).len()),
        );
    };
    for (profile, data) in matcher_profiles() {
        for level in CompressionLevel::ALL {
            tokenize_row(level, profile, &data);
        }
    }
    // The `Default` chain walk on the streams where it costs the most.
    for (name, raw) in default_solver_inputs() {
        tokenize_row(CompressionLevel::Default, name, &raw);
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_general_codecs,
    bench_bwt_stages,
    bench_deflate_encode,
    bench_deflate_decode,
    bench_package_merge,
    bench_float_codecs,
    bench_matcher
);
criterion_main!(benches);
