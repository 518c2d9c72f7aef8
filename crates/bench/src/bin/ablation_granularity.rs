//! Ablation — analysis granularity: byte-level vs bit-level (§II.A).
//!
//! The paper picks byte-level analysis for accuracy and speed. This
//! ablation measures both claims on the catalog (classification
//! agreement with the paper's ground truth, and analyzer throughput),
//! plus the structural counterexample where bit marginals are blind.

use isobar::Analyzer;
use isobar_bench::bit_analyzer::BitAnalyzer;
use isobar_bench::*;
use isobar_datasets::catalog;

fn main() {
    banner("Ablation: byte-level vs bit-level analysis granularity");
    let byte_analyzer = Analyzer::default();
    let bit_analyzer = BitAnalyzer::default();

    println!(
        "{:<15} {:>12} {:>12} {:>12} {:>12}",
        "Dataset", "byte HTC%", "bit HTC%", "byte MB/s", "bit MB/s"
    );
    let mut byte_correct = 0usize;
    let mut bit_correct = 0usize;
    let mut byte_mbps = 0.0;
    let mut bit_mbps = 0.0;
    let specs = catalog::all();
    for spec in &specs {
        let ds = generate(spec);
        let (byte_sel, byte_secs) = time(|| {
            byte_analyzer
                .analyze(&ds.bytes, ds.width())
                .expect("aligned")
        });
        let (bit_sel, bit_secs) = time(|| {
            bit_analyzer
                .analyze(&ds.bytes, ds.width())
                .expect("aligned")
        });
        byte_correct += (byte_sel.htc_pct() == spec.paper_htc_pct) as usize;
        bit_correct += (bit_sel.htc_pct() == spec.paper_htc_pct) as usize;
        byte_mbps += mbps(ds.bytes.len(), byte_secs);
        bit_mbps += mbps(ds.bytes.len(), bit_secs);
        println!(
            "{:<15} {:>12.1} {:>12.1} {:>12.0} {:>12.0}",
            spec.name,
            byte_sel.htc_pct(),
            bit_sel.htc_pct(),
            mbps(ds.bytes.len(), byte_secs),
            mbps(ds.bytes.len(), bit_secs),
        );
    }
    println!();
    println!(
        "classification agreement with paper: byte {}/{} vs bit {}/{}",
        byte_correct,
        specs.len(),
        bit_correct,
        specs.len()
    );
    println!(
        "mean analysis throughput: byte {:.0} MB/s vs bit {:.0} MB/s",
        byte_mbps / specs.len() as f64,
        bit_mbps / specs.len() as f64
    );
    println!();
    println!("structural blind spot (see bit_analyzer tests): a column that");
    println!("alternates between complementary byte values has 1 bit of entropy");
    println!("per byte, yet every bit marginal is 0.5 — bit-level analysis calls");
    println!("it noise, byte-level analysis correctly keeps it for the solver.");
}
