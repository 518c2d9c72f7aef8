//! The one harness binary: every table, figure and ablation of the
//! reproduction, and the check that keeps `results/` true.
//!
//! ```text
//! bench NAME               print one experiment (table2 … ablation_granularity)
//! bench all --out DIR      write all 19 as DIR/NAME.txt
//! bench check [DIR]        re-derive DIR (default results/) and compare exact cells
//! ```
//!
//! `all` and `check` share one measurement cache per process, so each
//! dataset is generated and each (dataset, codec) pair timed once.
//! `check` runs at the scale the committed banners declare and compares
//! every cell that does not come from a clock (`isobar_bench::T`).
//! Throughput, latency and per-layer budgets are measured by the
//! repository benchmark (`benchmark/README.md`), not here.

use isobar_bench::experiments::{self, EXPERIMENTS};
use isobar_bench::{banner_scale, Bench};
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "usage: bench NAME | all --out DIR | check [DIR]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let result = match args[..] {
        ["all", "--out", dir] => all(dir.trim_end_matches('/')),
        ["check"] => check("results"),
        ["check", dir] => check(dir.trim_end_matches('/')),
        [name] => one(name),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("bench: {message}");
            ExitCode::FAILURE
        }
    }
}

/// `bench NAME`: print one experiment.
fn one(name: &str) -> Result<(), String> {
    let Some((_, run)) = EXPERIMENTS.iter().find(|(n, _)| *n == name) else {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|(n, _)| *n).collect();
        return Err(format!("{USAGE}\nNAME is one of: {}", names.join(" ")));
    };
    let report = run(&mut Bench::new(isobar_bench::scale()));
    print!("{}", report.text());
    report.failure.map_or(Ok(()), |why| Err(why.to_string()))
}

/// `bench all --out DIR`: every experiment over one cache, one file each.
fn all(dir: &str) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{dir}: {e}"))?;
    let mut bench = Bench::new(isobar_bench::scale());
    let mut failure = Ok(());
    for (name, run) in EXPERIMENTS {
        let start = Instant::now();
        let report = run(&mut bench);
        let path = format!("{dir}/{name}.txt");
        std::fs::write(&path, report.text()).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("{path}: {:.1} s", start.elapsed().as_secs_f64());
        if let Some(why) = report.failure {
            failure = Err(format!("{name}: {why}"));
        }
    }
    eprintln!("{} things generated or timed, each once", bench.log.len());
    failure
}

/// `bench check [DIR]`: re-derive every committed file at the scale its
/// banner declares; name each file, line and cell that no longer holds.
fn check(dir: &str) -> Result<(), String> {
    let read = |name: &str| {
        let path = format!("{dir}/{name}.txt");
        std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))
    };
    // A first file without a banner is reported by its own check below.
    let scale = banner_scale(&read(EXPERIMENTS[0].0)?).unwrap_or_else(isobar_bench::scale);
    if std::env::var("ISOBAR_SCALE").is_ok() && isobar_bench::scale() != scale {
        return Err(format!(
            "{dir} was generated at scale {scale}; ISOBAR_SCALE asks for {}",
            isobar_bench::scale()
        ));
    }
    let mut bench = Bench::new(scale);
    let mut stale = 0;
    for (name, run) in EXPERIMENTS {
        match experiments::check(run, &read(name)?, &mut bench) {
            Ok(()) => println!("{dir}/{name}.txt: exact cells hold"),
            Err(what) => {
                stale += 1;
                eprintln!("{dir}/{name}.txt: {what}");
            }
        }
    }
    match stale {
        0 => Ok(()),
        n => Err(format!(
            "{n} of {} files are stale; regenerate with `bench all --out {dir}`",
            EXPERIMENTS.len()
        )),
    }
}
