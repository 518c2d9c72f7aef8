//! The paper's tables and figures, the §III.F / §IV text claims and
//! four ablations: one function each, `bench NAME` on the command line.
//!
//! Cells wrapped in [`T`] come from a clock; everything else must
//! repeat to the last digit and is what `bench check` compares.

use crate::bit_analyzer::BitAnalyzer;
use crate::{default_options, delta_cr_pct, mbps, run_isobar_with, speedup, time};
use crate::{Bench, CodecRun, Report, SEED, T};
use isobar::{Analyzer, IsobarOptions, Preference};
use isobar_codecs::pfor::{pfor_compress_bytes, pfor_decompress_bytes};
use isobar_codecs::{deflate::Deflate, shuffle::ShuffledCodec, Codec, CodecId};
use isobar_datasets::{bitfreq, catalog, stats};
use isobar_float_codecs::{Dims, Fpc, FpzipLike};
use CodecId::{Bzip2Like as Bzlib2, Deflate as Zlib};
use Preference::{Ratio, Speed};

mod ablation_eupa;

/// One experiment: fills a report from the shared cache.
pub type Experiment = fn(&mut Bench) -> Report;

/// Every experiment by its `bench` subcommand and `results/` file name.
pub const EXPERIMENTS: [(&str, Experiment); 19] = [
    ("table2", table2),
    ("table3", table3),
    ("table4", table4),
    ("table5", table5),
    ("table6", |b| improvement(b, Speed)),
    ("table7", |b| improvement(b, Ratio)),
    ("table8", table8),
    ("table9", table9),
    ("table10", table10),
    ("fig1", fig1),
    ("fig8", fig8),
    ("fig9", |b| orderings(b, false)),
    ("fig10", |b| orderings(b, true)),
    ("timesteps", timesteps),
    ("related_work", related_work),
    ("ablation_tau", ablation_tau),
    ("ablation_eupa", ablation_eupa::ablation_eupa),
    ("ablation_shuffle", ablation_shuffle),
    ("ablation_granularity", ablation_granularity),
];

/// Re-derive one experiment at the scale `committed` declares (which
/// must be `bench`'s) and compare the exact cells.
pub fn check(run: Experiment, committed: &str, bench: &mut Bench) -> Result<(), String> {
    match crate::banner_scale(committed) {
        Some(scale) if scale == bench.scale() => run(bench).diff(committed),
        Some(scale) => Err(format!(
            "line 2: scale {scale}, but this check runs at {}",
            bench.scale()
        )),
        None => Err("line 2: no `scale N` banner; write it with `bench all --out DIR`".into()),
    }
}

/// The standard banner: what, scale, seed.
fn write_banner(out: &mut Report, b: &Bench, what: &str) {
    outln!(out, "== {what} ==");
    let scale = b.scale();
    outln!(
        out,
        "scale {scale} (set ISOBAR_SCALE to change); seed {SEED:#x}; single-threaded"
    );
    out.say("");
}

/// A report opened with the standard banner.
pub(crate) fn banner(b: &Bench, what: &str) -> Report {
    let mut out = Report::default();
    write_banner(&mut out, b, what);
    out
}

fn yes_no(flag: bool) -> &'static str {
    ["no", "yes"][usize::from(flag)]
}

/// The 16 improvable double/integer datasets of Tables VI and VII, in
/// the paper's order.
#[rustfmt::skip]
const IMPROVABLE_64BIT: [&str; 16] = [
    "gts_chkp_zeon", "gts_chkp_zion", "gts_phi_l", "gts_phi_nl", "xgc_iphase", "flash_gamc",
    "flash_velx", "flash_vely", "msg_lu", "msg_sp", "msg_sweep3d", "num_brain", "num_comet",
    "num_control", "obs_info", "obs_temp",
];

/// Table II — headline summary. One representative dataset per
/// application: ΔCR against the best standard ratio, throughputs and
/// speed-ups against the faster standard compressor. Speed preference.
fn table2(b: &mut Bench) -> Report {
    let mut out = banner(b, "Table II: ISOBAR-compress performance summary");
    // The paper's four headline rows map to these datasets (its GTS row
    // matches gts_chkp_zion, XGC is xgc_iphase, S3D is s3d_vmag, FLASH
    // is flash_velx — cross-referenced against Tables V/IX/X).
    #[rustfmt::skip]
    let rows = [
        ("GTS", "gts_chkp_zion", [10.15, 111.7, 8.05, 551.90, 5.01]),
        ("XGC", "xgc_iphase", [14.09, 76.83, 21.17, 388.87, 51.92]),
        ("S3D", "s3d_vmag", [32.56, 104.73, 31.45, 424.79, 63.12]),
        ("FLASH", "flash_velx", [17.52, 455.83, 35.89, 1617.02, 14.19]),
    ];
    out.say("Dataset    ΔCR(%)  TPc(MB/s)     SpC  TPd(MB/s)     SpD   (paper: ΔCR, TPc, SpC, TPd, SpD)");
    for (app, name, [p_dcr, p_tpc, p_spc, p_tpd, p_spd]) in rows {
        let (zlib, bzip2) = (b.codec(name, Zlib), b.codec(name, Bzlib2));
        let isobar = b.isobar(name, Speed);
        let fastest_comp = zlib.comp_mbps.max(bzip2.comp_mbps);
        let fastest_decomp = zlib.decomp_mbps.max(bzip2.decomp_mbps);
        outln!(
            out,
            "{app:<7} {:>9.2} {:>10.2} {:>7.2} {:>10.2} {:>7.2}   \
             ({p_dcr:>6.2}, {p_tpc:>7.2}, {p_spc:>6.2}, {p_tpd:>8.2}, {p_spd:>6.2})",
            delta_cr_pct(isobar.ratio, zlib.ratio.max(bzip2.ratio)),
            T(isobar.comp_mbps),
            T(speedup(isobar.comp_mbps, fastest_comp)),
            T(isobar.decomp_mbps),
            T(speedup(isobar.decomp_mbps, fastest_decomp)),
        );
    }
    out
}

/// Table III — dataset statistics next to the paper's. Sizes scale with
/// ISOBAR_SCALE; the distributional classes should track the paper's.
fn table3(b: &mut Bench) -> Report {
    let mut out = banner(b, "Table III: statistical information about test datasets");
    out.say("Dataset         Type                  MB  Elems(k)    Uniq%  H(bits)    Rand%   (paper: uniq, H, rand)");
    for spec in catalog::all() {
        let st = stats::dataset_stats(&b.dataset(spec.name));
        outln!(
            out,
            "{:<15} {:<15} {:>8.1} {:>9.0} {:>8.1} {:>8.2} {:>8.1}   ({:>5.1}, {:>5.2}, {:>5.1})",
            spec.name,
            spec.element.name(),
            st.size_bytes as f64 / 1e6,
            st.elements as f64 / 1e3,
            st.unique_pct,
            st.entropy_bits,
            st.randomness_pct,
            spec.paper_unique_pct,
            spec.paper_entropy,
            spec.paper_randomness_pct,
        );
    }
    out.say("");
    out.say("note: measured Shannon entropy scales with log2(elements), so at");
    out.say("reduced scale it sits below the paper's absolute values; the");
    out.say("randomness % (entropy relative to an all-unique set, Eq. 6) is the");
    out.say("scale-free comparison. Near-unique datasets (uniq ≥ 85%) are");
    out.say("generated fully unique — see DESIGN.md, substitutions.");
    out
}

/// Table IV — the analyzer's verdict on all 24 datasets against the
/// paper's classification.
fn table4(b: &mut Bench) -> Report {
    let mut out = banner(b, "Table IV: ISOBAR-analyzer's predictions");
    out.say("Dataset          HTC?  HTC bytes%  Improvable?   (paper: HTC%, improvable)");
    let specs = catalog::all();
    let mut agreements = 0usize;
    for spec in &specs {
        let ds = b.dataset(spec.name);
        let sel = Analyzer::default().analyze(&ds.bytes, ds.width());
        let sel = sel.expect("aligned data");
        agreements += usize::from(
            sel.is_improvable() == spec.paper_improvable
                && (sel.htc_pct() - spec.paper_htc_pct).abs() < 1e-9,
        );
        outln!(
            out,
            "{:<15} {:>5} {:>11.1} {:>12}   ({:>5.1}, {})",
            spec.name,
            yes_no(sel.htc_pct() > 0.0),
            sel.htc_pct(),
            yes_no(sel.is_improvable()),
            spec.paper_htc_pct,
            yes_no(spec.paper_improvable),
        );
    }
    let n = specs.len();
    let expected = specs.iter().filter(|s| s.paper_improvable).count();
    out.say("");
    outln!(
        out,
        "classification agreement with the paper: {agreements}/{n} datasets"
    );
    outln!(
        out,
        "paper: 19 of 24 improvable; here: {expected} of {n} expected"
    );
    out
}

/// Table V — standalone zlib and bzlib2, analyzer throughput TP_A and
/// the pipeline under both preferences, all 24 datasets. NI where the
/// dataset is not identified as improvable, as in the paper.
fn table5(b: &mut Bench) -> Report {
    let mut out = banner(b, "Table V: performance comparison");
    out.say("                |   zlib          | bzlib2          |     TP_A | ISO-CR          | ISO-Sp         ");
    out.say("Dataset         |     CR      TPc |     CR      TPc |     MB/s |     CR      TPc |     CR      TPc");
    for spec in catalog::all() {
        let ds = b.dataset(spec.name);
        let (zlib, bzip2) = (b.codec(spec.name, Zlib), b.codec(spec.name, Bzlib2));
        let (sel, analysis_secs) = time(|| Analyzer::default().analyze(&ds.bytes, ds.width()));
        sel.expect("aligned data");
        out!(
            out,
            "{:<15} | {:>6.3} {:>8.2} | {:>6.3} {:>8.2} | {:>8.1} |",
            spec.name,
            zlib.ratio,
            T(zlib.comp_mbps),
            bzip2.ratio,
            T(bzip2.comp_mbps),
            T(mbps(ds.bytes.len(), analysis_secs)),
        );
        let (cr_run, sp_run) = (b.isobar(spec.name, Ratio), b.isobar(spec.name, Speed));
        if cr_run.report.improvable() {
            let (cr_tpc, sp_tpc) = (T(cr_run.comp_mbps), T(sp_run.comp_mbps));
            let (cr, sp) = (cr_run.ratio, sp_run.ratio);
            outln!(out, " {cr:>6.3} {cr_tpc:>8.2} | {sp:>6.3} {sp_tpc:>8.2}");
        } else {
            outln!(out, " {0:>6} {0:>8} | {0:>6} {0:>8}", "NI");
        }
    }
    out.say("");
    out.say("NI: not identified as improvable (paper convention). Paper shapes to");
    out.say("check: ISOBAR-CR > max(zlib, bzlib2) CR on improvable rows; ISOBAR-Sp");
    out.say("TPc well above both standalone compressors; TP_A in the hundreds of MB/s.");
    out
}

/// The standard compressor a preference is compared against (footnote 2
/// of Tables VI and VII): the one with the highest compression
/// throughput under `Speed`, with the best ratio under `Ratio`.
fn rival(b: &mut Bench, name: &str, preference: Preference) -> CodecRun {
    let (zlib, bzip2) = (b.codec(name, Zlib), b.codec(name, Bzlib2));
    let zlib_leads = match preference {
        Ratio => zlib.ratio >= bzip2.ratio,
        _ => zlib.comp_mbps >= bzip2.comp_mbps,
    };
    [bzip2, zlib][usize::from(zlib_leads)]
}

/// The measured cells of a Table VI/VII/VIII row: EUPA's pick, then ΔCR
/// and Sp against [`rival`].
fn improvement_cells(out: &mut Report, b: &mut Bench, name: &str, preference: Preference) {
    let (isobar, rival) = (b.isobar(name, preference), rival(b, name, preference));
    outln!(
        out,
        " {:>7} {:>8} {:>8.2} {:>8.3}",
        isobar.report.codec.name(),
        isobar.report.linearization,
        delta_cr_pct(isobar.ratio, rival.ratio),
        T(speedup(isobar.comp_mbps, rival.comp_mbps)),
    );
}

/// Table VI (`Speed`) and Table VII (`Ratio`) — improvement over the
/// relevant standard compressor on the 16 improvable 64-bit datasets.
fn improvement(b: &mut Bench, preference: Preference) -> Report {
    let mut out = match preference {
        Ratio => banner(b, "Table VII: improvement of ISOBAR-CR preference"),
        _ => banner(b, "Table VI: improvement of ISOBAR-Sp preference"),
    };
    out.say("Dataset           Codec       LS   ΔCR(%)       Sp");
    for name in IMPROVABLE_64BIT {
        out!(out, "{name:<15}");
        improvement_cells(&mut out, b, name, preference);
    }
    out.say("");
    if preference == Ratio {
        out.say("paper: ΔCR in [5.2%, 22.8%]; Sp straddles 1 (ratio mode may be slower");
        out.say("than the fastest standard compressor — it optimizes size, not speed).");
    } else {
        out.say("paper: ΔCR in [4.7%, 18.9%], Sp in [1.5, 37]; zlib chosen for all rows.");
    }
    out
}

/// Table VIII — the two single-precision S3D datasets under both
/// preferences.
fn table8(b: &mut Bench) -> Report {
    let mut out = banner(b, "Table VIII: performance on single-precision datasets");
    out.say("Preference  Dataset      Codec       LS   ΔCR(%)       Sp");
    for name in ["s3d_temp", "s3d_vmag"] {
        assert_eq!(b.dataset(name).width(), 4, "single-precision is 4-byte");
        for (label, preference) in [("ISOBAR-CR", Ratio), ("ISOBAR-Sp", Speed)] {
            out!(out, "{label:<11} {name:<10}");
            improvement_cells(&mut out, b, name, preference);
        }
    }
    out.say("");
    out.say("paper: ΔCR 34–47%, Sp 2.5–9.4; both datasets identified improvable.");
    out
}

/// Table IX — decompression throughput on the 19 improvable datasets:
/// standalone zlib and bzlib2, ISOBAR-Sp, speed-up over the faster.
fn table9(b: &mut Bench) -> Report {
    let mut out = banner(b, "Table IX: decompression throughput comparison");
    out.say("Dataset          zlib MB/s  bzlib2 MB/s  ISOBAR MB/s     Sp");
    let mut speedups = Vec::new();
    for name in catalog::improvable_names() {
        let zlib = b.codec(name, Zlib).decomp_mbps;
        let bzip2 = b.codec(name, Bzlib2).decomp_mbps;
        let isobar = b.isobar(name, Speed).decomp_mbps;
        let sp = speedup(isobar, zlib.max(bzip2));
        speedups.push(sp);
        outln!(
            out,
            "{name:<15} {:>10.2} {:>12.2} {:>12.2} {:>6.1}",
            T(zlib),
            T(bzip2),
            T(isobar),
            T(sp),
        );
    }
    out.say("");
    outln!(
        out,
        "speed-up > 3.0 on {}/{} datasets (paper: 15 of 19); all > 1.0: {}",
        T(speedups.iter().filter(|&&s| s > 3.0).count()),
        speedups.len(),
        T(speedups.iter().all(|&s| s > 1.0)),
    );
    out
}

/// Table X — ISOBAR-Sp against FPC and the fpzip-class codec on the
/// paper's nine double-precision rows, plus the column means.
fn table10(b: &mut Bench) -> Report {
    #[rustfmt::skip]
    const DATASETS: [&str; 9] = [
        "gts_chkp_zeon", "gts_chkp_zion", "gts_phi_l", "gts_phi_nl", "xgc_igid", "xgc_iphase",
        "flash_gamc", "flash_velx", "flash_vely",
    ];
    let mut out = banner(b, "Table X: ISOBAR-Sp vs FPC vs fpzip");
    out.say("                | ISOBAR                   |    FPC                   |  fpzip                  ");
    out.say("Dataset         |     CR      TPc      TPd |     CR      TPc      TPd |     CR      TPc      TPd");
    let row = |out: &mut Report, name: &str, cells: [[f64; 3]; 3]| {
        out!(out, "{name:<15}");
        for [cr, tpc, tpd] in cells {
            out!(out, " | {cr:>6.3} {:>8.2} {:>8.2}", T(tpc), T(tpd));
        }
        out.say("");
    };
    let mut sums = [[0.0f64; 3]; 3];
    for name in DATASETS {
        let ds = b.dataset(name);
        let len = ds.bytes.len();
        let measured = |packed: &[u8], secs, unpacked: Vec<u8>, decomp_secs| {
            assert_eq!(unpacked, ds.bytes, "round-trip failure");
            let ratio = len as f64 / packed.len() as f64;
            [ratio, mbps(len, secs), mbps(len, decomp_secs)]
        };
        let isobar = b.isobar(name, Speed);
        let fpc = Fpc::default();
        let (packed, secs) = time(|| fpc.compress(&ds.bytes));
        let (unpacked, dsecs) = time(|| fpc.decompress(&packed).expect("fpc stream"));
        let fpc = measured(&packed, secs, unpacked, dsecs);
        let dims = Dims::linear(ds.element_count());
        let (packed, secs) = time(|| FpzipLike.compress_f64(&ds.bytes, dims).expect("aligned"));
        let (unpacked, dsecs) = time(|| FpzipLike.decompress(&packed).expect("fpzip stream"));
        let fpzip = measured(&packed, secs, unpacked, dsecs);
        let cells = [
            [isobar.ratio, isobar.comp_mbps, isobar.decomp_mbps],
            fpc,
            fpzip,
        ];
        for (sum, cell) in sums.iter_mut().flatten().zip(cells.iter().flatten()) {
            *sum += cell;
        }
        row(&mut out, name, cells);
    }
    let means = sums.map(|codec| codec.map(|sum| sum / DATASETS.len() as f64));
    row(&mut out, "mean", means);
    out.say("");
    out.say("paper means: ISOBAR CR 1.476 / TPc 185.8 / TPd 735.7; FPC 1.276 / 47.3 / 47.2;");
    out.say("fpzip 1.469 / 35.8 / 29.6 — the shape to check: ISOBAR leads mean CR and both");
    out.say("throughputs; FPC is faster than fpzip but compresses less.");
    out
}

/// Figure 1 — probability of the dominant bit value at each bit
/// position (big-endian element order, as the paper plots them) of four
/// representative datasets: an ASCII profile plus the raw series.
fn fig1(b: &mut Bench) -> Report {
    let mut out = banner(b, "Figure 1: bit frequencies of 4 representative datasets");
    for name in ["xgc_igid", "gts_chkp_zeon", "flash_gamc", "msg_sppm"] {
        let ds = b.dataset(name);
        let freqs = bitfreq::bit_frequencies(&ds.bytes, ds.width());
        outln!(out, "{name} (bit 1 = MSB/sign ... bit {}):", freqs.len());
        // One character per bit, '█' = certain, '·' = coin flip.
        let profile = freqs.iter().map(|&p| match p {
            p if p >= 0.995 => '█',
            p if p >= 0.9 => '▓',
            p if p >= 0.7 => '▒',
            p if p >= 0.55 => '░',
            _ => '·',
        });
        outln!(out, "  [{}]", profile.collect::<String>());
        for (i, chunk) in freqs.chunks(16).enumerate() {
            let row: Vec<String> = chunk.iter().map(|p| format!("{p:.3}")).collect();
            let (from, to) = (i * 16 + 1, i * 16 + chunk.len());
            outln!(out, "  bits {from:>2}-{to:>2}: {}", row.join(" "));
        }
        let noise = bitfreq::noise_bit_fraction(&ds.bytes, ds.width(), 0.02);
        outln!(out, "  coin-flip bits: {:.1}%", noise * 100.0);
        out.say("");
    }
    out.say("paper shape: xgc_igid / gts / flash have wide 0.5-probability plateaus");
    out.say("(hard-to-compress); msg_sppm stays near 1.0 across most positions.");
    out
}

/// Figure 8 — ISOBAR-Sp compression ratio against chunk size on five
/// datasets long enough to fill several of the largest chunks.
fn fig8(b: &mut Bench) -> Report {
    #[rustfmt::skip]
    const CHUNK_SIZES: [usize; 8] = [1_000, 5_000, 10_000, 50_000, 100_000, 200_000, 375_000, 750_000];
    let mut out = banner(b, "Figure 8: chunking size for settled compression ratios");
    out!(out, "{:<15}", "chunk elems:");
    for c in CHUNK_SIZES {
        out!(out, "{c:>10}");
    }
    out.say("");
    for name in [
        "gts_chkp_zion",
        "flash_velx",
        "msg_lu",
        "num_brain",
        "obs_temp",
    ] {
        let spec = catalog::spec(name).expect("catalog entry");
        let ds = spec.generate(spec.scaled_elements(b.scale()).max(1_500_000), SEED);
        out!(out, "{name:<15}");
        for chunk_elements in CHUNK_SIZES {
            let options = IsobarOptions {
                chunk_elements,
                ..default_options(Speed)
            };
            let run = run_isobar_with(&ds.bytes, ds.width(), options);
            out!(out, "{:>10.4}", run.ratio);
        }
        out.say("");
    }
    out.say("");
    out.say("paper shape: ratios rise then flatten; the curve is stable from");
    out.say("≈ 375 000 elements (3 MB of doubles) onward.");
    out
}

/// Figure 9 (ΔCR) and Figure 10 (compression speed-up, `speedups`) of
/// ISOBAR-Sp over standalone zlib with the elements in original,
/// Hilbert-curve and random order: byte-column statistics are
/// permutation invariant, so neither should move much.
fn orderings(b: &mut Bench, speedups: bool) -> Report {
    let mut out = if speedups {
        banner(
            b,
            "Figure 10: compression speed-up under original / Hilbert / random order",
        )
    } else {
        banner(
            b,
            "Figure 9: ΔCR(%) under original / Hilbert / random element order",
        )
    };
    out.say("Dataset           original    Hilbert     random");
    #[rustfmt::skip]
    let datasets = ["gts_chkp_zion", "xgc_iphase", "flash_velx", "msg_sweep3d", "num_brain", "obs_temp"];
    for name in datasets {
        out!(out, "{name:<15}");
        for (delta_cr, sp) in b.orderings(name) {
            if speedups {
                out!(out, "{:>10.2}", T(sp));
            } else {
                out!(out, "{delta_cr:>10.2}");
            }
        }
        out.say("");
    }
    out.say("");
    if speedups {
        out.say("paper shape: speed-ups are consistent across the three orderings.");
    } else {
        out.say("paper shape: the three columns are nearly equal per dataset; even the");
        out.say("fully random ordering keeps a ~10%+ improvement on improvable data.");
    }
    out
}

/// §III.F — mean and standard deviation of ΔCR and Sp (vs zlib) over 20
/// GTS time-step snapshots, and whether EUPA's decision stayed put.
fn timesteps(b: &mut Bench) -> Report {
    const STEPS: usize = 20;
    fn mean_std(xs: &[f64]) -> (f64, f64) {
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        (mean, var.sqrt())
    }
    let mut out = banner(b, "Section III.F: consistency across simulation time steps");
    for name in ["gts_phi_l", "gts_phi_nl"] {
        let spec = catalog::spec(name).expect("catalog entry");
        let n = spec.scaled_elements(b.scale());
        let (mut delta_crs, mut speedups) = (Vec::new(), Vec::new());
        let mut decisions = std::collections::HashSet::new();
        let mut improvable_steps = 0usize;
        for step in 0..STEPS {
            let ds = spec.generate(n, SEED.wrapping_add(step as u64));
            let len = ds.bytes.len();
            let (packed, zlib_secs) = time(|| Deflate::default().compress(&ds.bytes));
            let run = run_isobar_with(&ds.bytes, ds.width(), default_options(Speed));
            delta_crs.push(delta_cr_pct(run.ratio, len as f64 / packed.len() as f64));
            speedups.push(speedup(run.comp_mbps, mbps(len, zlib_secs)));
            decisions.insert((run.report.codec, run.report.linearization));
            improvable_steps += usize::from(run.report.improvable());
        }
        let (dcr_mean, dcr_std) = mean_std(&delta_crs);
        let (sp_mean, sp_std) = mean_std(&speedups);
        let constant = decisions.len() == 1;
        outln!(out, "{name}: {STEPS} time steps of {n} doubles");
        outln!(out, "  ΔCR: mean {dcr_mean:.2}% stddev {dcr_std:.2}%");
        outln!(out, "  Sp : mean {:.3} stddev {:.3}", T(sp_mean), T(sp_std));
        outln!(
            out,
            "  EUPA decision constant across steps: {constant} ({decisions:?})"
        );
        outln!(out, "  improvable on {improvable_steps}/{STEPS} steps");
        out.say("");
    }
    out.say("paper: linear regime ΔCR 14.4% ± 1.8, Sp 5.95 ± 0.07; nonlinear ΔCR");
    out.say("13.4% ± 2.7, Sp 3.75 ± 0.05; one EUPA decision for the whole run.");
    out
}

/// One `| CR TPc` column group of the related-work and shuffle tables.
fn cr_tpc(out: &mut Report, ratio: f64, comp_mbps: f64) {
    out!(out, " | {ratio:>6.3} {:>8.2}", T(comp_mbps));
}

/// §IV — PFOR and PFOR-DELTA (Zukowski et al., ICDE 2006) on the u64
/// view of each dataset against the two general solvers: the paper calls
/// it about 4× faster with ratios that hardly beat theirs.
fn related_work(b: &mut Bench) -> Report {
    let mut out = banner(b, "Related work (§IV): PFOR and PFOR-DELTA vs zlib/bzlib2");
    out.say(
        "                |   zlib          | bzlib2          |   PFOR          | PFOR-Δ         ",
    );
    out.say(
        "Dataset         |     CR      TPc |     CR      TPc |     CR      TPc |     CR      TPc",
    );
    #[rustfmt::skip]
    let datasets = ["xgc_igid", "gts_chkp_zion", "flash_velx", "msg_sppm", "num_plasma", "obs_temp"];
    for name in datasets {
        let ds = b.dataset(name);
        let len = ds.bytes.len();
        assert_eq!(ds.width(), 8, "PFOR here is u64-oriented");
        out!(out, "{name:<15}");
        for id in [Zlib, Bzlib2] {
            let run = b.codec(name, id);
            cr_tpc(&mut out, run.ratio, run.comp_mbps);
        }
        for delta in [false, true] {
            let (packed, secs) = time(|| pfor_compress_bytes(&ds.bytes, delta));
            assert_eq!(pfor_decompress_bytes(&packed).expect("pfor"), ds.bytes);
            cr_tpc(&mut out, len as f64 / packed.len() as f64, mbps(len, secs));
        }
        out.say("");
    }
    out.say("");
    out.say("paper shape: PFOR several times faster than both general solvers;");
    out.say("its ratio only wins on narrow-range integers (xgc_igid), and loses");
    out.say("badly on repetitive data (msg_sppm, num_plasma).");
    out
}

/// Ablation — the analyzer tolerance τ swept across (1, 2]: the paper
/// fixes 1.42 because the improvement is stable over [1.4, 1.5].
fn ablation_tau(b: &mut Bench) -> Report {
    let mut out = banner(b, "Ablation: analyzer tolerance factor τ");
    for name in ["gts_chkp_zion", "flash_gamc", "msg_sweep3d", "msg_bt"] {
        let ds = b.dataset(name);
        outln!(out, "{name}:");
        out.say("       τ     HTC %   improvable    ISO CR");
        for tau in [1.05, 1.2, 1.3, 1.4, 1.42, 1.45, 1.5, 1.7, 2.0] {
            let sel = Analyzer::with_tau(tau).analyze(&ds.bytes, ds.width());
            let sel = sel.expect("aligned data");
            let options = IsobarOptions {
                tau,
                ..default_options(Speed)
            };
            outln!(
                out,
                "  {tau:>6.2} {:>9.1} {:>12} {:>9.4}",
                sel.htc_pct(),
                yes_no(sel.is_improvable()),
                run_isobar_with(&ds.bytes, ds.width(), options).ratio,
            );
        }
        out.say("");
    }
    out.say("expected shape: classifications and ratios are flat across");
    out.say("τ ∈ [1.4, 1.5] (the paper's stability band); extreme τ degrades.");
    out
}

/// Ablation — blind byte-shuffle + zlib (Blosc/bitshuffle style), which
/// pays the solver for every byte, against ISOBAR-Sp, which drops the
/// noise columns from its input.
fn ablation_shuffle(b: &mut Bench) -> Report {
    let mut out = banner(
        b,
        "Ablation: blind byte-shuffle vs ISOBAR's selective partitioning",
    );
    out.say("                |   zlib          | shuf+z          | ISOBAR         ");
    out.say("Dataset         |     CR      TPc |     CR      TPc |     CR      TPc");
    #[rustfmt::skip]
    let datasets = ["gts_chkp_zion", "flash_gamc", "s3d_vmag", "msg_sweep3d", "msg_sppm", "msg_bt"];
    for name in datasets {
        let ds = b.dataset(name);
        let len = ds.bytes.len();
        let zlib = b.codec(name, Zlib);
        let shuffled = ShuffledCodec::new(Deflate::default(), ds.width());
        let (packed, secs) = time(|| shuffled.compress(&ds.bytes));
        assert_eq!(shuffled.decompress(&packed).expect("own stream"), ds.bytes);
        let isobar = b.isobar(name, Speed);
        out!(out, "{name:<15}");
        cr_tpc(&mut out, zlib.ratio, zlib.comp_mbps);
        cr_tpc(&mut out, len as f64 / packed.len() as f64, mbps(len, secs));
        cr_tpc(&mut out, isobar.ratio, isobar.comp_mbps);
        out.say("");
    }
    out.say("");
    out.say("expected shape: shuffling improves the ratio over plain zlib but");
    out.say("pays the solver for every byte; ISOBAR matches or beats the shuffle");
    out.say("ratio at a multiple of its throughput on noisy datasets, because the");
    out.say("incompressible columns bypass the solver entirely.");
    out
}

/// Ablation — byte-level against bit-level analysis (§II.A): agreement
/// with the paper's classification and analyzer throughput.
fn ablation_granularity(b: &mut Bench) -> Report {
    let mut out = banner(b, "Ablation: byte-level vs bit-level analysis granularity");
    out.say("Dataset            byte HTC%     bit HTC%    byte MB/s     bit MB/s");
    let specs = catalog::all();
    let n = specs.len();
    let (mut correct, mut mbps_sums) = ([0usize; 2], [0.0f64; 2]);
    for spec in &specs {
        let ds = b.dataset(spec.name);
        let (data, width) = (&ds.bytes, ds.width());
        let (byte_sel, byte_secs) = time(|| Analyzer::default().analyze(data, width));
        let (bit_sel, bit_secs) = time(|| BitAnalyzer::default().analyze(data, width));
        let htc = [byte_sel, bit_sel].map(|sel| sel.expect("aligned").htc_pct());
        let rates = [byte_secs, bit_secs].map(|secs| mbps(data.len(), secs));
        for i in 0..2 {
            correct[i] += usize::from(htc[i] == spec.paper_htc_pct);
            mbps_sums[i] += rates[i];
        }
        outln!(
            out,
            "{:<15} {:>12.1} {:>12.1} {:>12.0} {:>12.0}",
            spec.name,
            htc[0],
            htc[1],
            T(rates[0]),
            T(rates[1]),
        );
    }
    let (byte, bit) = (correct[0], correct[1]);
    out.say("");
    outln!(
        out,
        "classification agreement with paper: byte {byte}/{n} vs bit {bit}/{n}"
    );
    outln!(
        out,
        "mean analysis throughput: byte {:.0} MB/s vs bit {:.0} MB/s",
        T(mbps_sums[0] / n as f64),
        T(mbps_sums[1] / n as f64)
    );
    out.say("");
    out.say("structural blind spot (see bit_analyzer tests): a column that");
    out.say("alternates between complementary byte values has 1 bit of entropy");
    out.say("per byte, yet every bit marginal is 0.5 — bit-level analysis calls");
    out.say("it noise, byte-level analysis correctly keeps it for the solver.");
    out
}
