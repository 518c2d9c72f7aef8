//! The repository benchmark. See `README.md` beside this package and
//! `BENCHMARK.json` at the repository root.
//!
//! `run --workload NAME --seed N --seconds S --trace 0|1` runs one
//! workload in this process and prints, as the last line of standard
//! output, one JSON object with the run's verdict and metrics: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. With no or several `--workload`, or with `--runs`,
//! `--out` or `--append-history`, it runs each named workload in a
//! child process of its own, one after the other, and saves the run
//! set. `aa SET_A SET_B` compares two saved sets.

mod counting_fs;
mod floor;
mod inputs;
mod lib_wl;
mod replay;
mod run;
mod runset;
mod serve_wl;
mod spec;
mod stats;
mod store_wl;
mod sys;
mod trace;

use run::{EndToEnd, RunArgs};
use runset::RunRecord;
use spec::{Metrics, Spec};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;
use trace::Tracer;

const USAGE: &str = "usage:
  isobar-benchmark run [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1]
                       [--dir PATH] [--quick] [--runs K] [--out FILE] [--append-history]
  isobar-benchmark aa SET_A SET_B";

/// Default root of scratch directories and trace files, relative to the
/// working directory: a run reads and writes only below where it is
/// started.
const DEFAULT_DIR: &str = ".bench_scratch";

struct Cli {
    workloads: Vec<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    dir: PathBuf,
    quick: bool,
    runs: u64,
    out: Option<PathBuf>,
    append_history: bool,
}

fn parse_cli(spec: &Spec, args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workloads: Vec::new(),
        seed: 7,
        seconds: spec.run_seconds,
        trace: false,
        dir: PathBuf::from(DEFAULT_DIR),
        quick: false,
        runs: 1,
        out: None,
        append_history: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?.clone();
                if !spec.workloads.contains(&name) {
                    return Err(format!(
                        "unknown workload {name}; known: {}",
                        spec.workloads.join(", ")
                    ));
                }
                cli.workloads.push(name);
            }
            "--seed" => cli.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cli.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(cli.seconds > 0.0 && cli.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".to_string());
                }
            }
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--dir" => cli.dir = PathBuf::from(value()?),
            "--runs" => cli.runs = value()?.parse().map_err(|e| format!("--runs: {e}"))?,
            "--out" => cli.out = Some(PathBuf::from(value()?)),
            "--quick" => cli.quick = true,
            "--append-history" => cli.append_history = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(cli)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let spec = Spec::load();
    let code = match args.first().map(String::as_str) {
        Some("run") => match parse_cli(&spec, &args[1..]) {
            Ok(cli)
                if cli.workloads.len() == 1
                    && cli.runs == 1
                    && cli.out.is_none()
                    && !cli.append_history =>
            {
                run_one(&spec, &cli)
            }
            Ok(cli) => run_set(&spec, &cli),
            Err(e) => {
                eprintln!("{e}\n{USAGE}");
                2
            }
        },
        Some("aa") if args.len() == 3 => {
            match runset::aa(&spec, Path::new(&args[1]), Path::new(&args[2])) {
                Ok(code) => code,
                Err(e) => {
                    eprintln!("{e}");
                    2
                }
            }
        }
        _ => {
            eprintln!("{USAGE}");
            2
        }
    };
    std::process::exit(code);
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One workload, in this process.
fn run_one(spec: &Spec, cli: &Cli) -> i32 {
    let args = RunArgs {
        workload: cli.workloads[0].clone(),
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
        dir: cli.dir.clone(),
        quick: cli.quick,
    };
    println!(
        "workload {} seed {} seconds {} trace {} quick {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.quick
    );
    let canary_before = floor::canary_ms();
    let (attempted, failed, metrics, hashes) = if args.trace {
        let (attempted, failed, metrics) = traced(spec, &args, canary_before);
        (attempted, failed, metrics, (0, 0))
    } else {
        let e = untraced(&args);
        print_estimates(&e);
        let mut m = Metrics::new(&spec.end_to_end);
        m.set("ingest_mbps", e.ingest.mbps);
        m.set("restore_mbps", e.restore.mbps);
        m.set("ratio", e.ratio);
        m.set("cpu_s_per_gb", e.cpu_s_per_gb);
        m.set("put_p50_ms", e.put.p50_ms());
        m.set("get_p50_ms", e.get.p50_ms());
        m.set(
            "ok_ops_share",
            (e.attempted - e.failed) as f64 / e.attempted.max(1) as f64,
        );
        m.set("peak_rss_mb", sys::peak_rss_mib());
        m.set("setup_s", e.setup_s.median);
        (e.attempted, e.failed, m, (e.input_hash, e.schedule_hash))
    };
    let canary_after = floor::canary_ms();
    let correct = failed == 0 && attempted > 0;

    let values = metrics.finish();
    for (m, v) in &values {
        println!("metric {} {} {}", m.name, v, m.unit);
    }
    println!(
        "info {{\"kernel_tier\":\"{}\",\"nproc\":{},\"disturbed\":{},\"canary_before_ms\":{canary_before},\"canary_after_ms\":{canary_after},\"input_hash\":\"{:016x}\",\"schedule_hash\":\"{:016x}\"}}",
        isobar::active_kernel_tier().name(),
        nproc(),
        floor::disturbed(canary_before, canary_after),
        hashes.0,
        hashes.1
    );
    let body: Vec<String> = values
        .iter()
        .map(|(m, v)| {
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    i32::from(!correct)
}

fn untraced(args: &RunArgs) -> EndToEnd {
    if let Some(def) = lib_wl::definition(&args.workload) {
        lib_wl::run(&def, args)
    } else if let Some(def) = serve_wl::definition(&args.workload) {
        serve_wl::run(&def, args)
    } else {
        store_wl::run(args)
    }
}

/// In-run quartiles of the block rates and the latency percentiles'
/// sample counts, for the reader; the result line carries one value
/// per metric.
fn print_estimates(e: &EndToEnd) {
    for (name, est) in [
        ("ingest_mbps blocks", &e.ingest.blocks),
        ("restore_mbps blocks", &e.restore.blocks),
        ("setup_s", &e.setup_s),
    ] {
        println!(
            "estimate {name} median {} q1 {} q3 {} n {}",
            est.median, est.q1, est.q3, est.n
        );
    }
    for (name, latency) in [("put_p50_ms", &e.put), ("get_p50_ms", &e.get)] {
        println!(
            "estimate {name} {} ms: {}",
            latency.p50_ms(),
            latency.describe()
        );
    }
}

/// The traced run: per-layer metrics, floors, and the Chrome trace
/// file under `<dir>/traces/`.
fn traced<'a>(spec: &'a Spec, args: &RunArgs, canary_before: f64) -> (u64, u64, Metrics<'a>) {
    let mut m = Metrics::new(&spec.per_layer);
    let mut main_tracer = Tracer::new(Instant::now(), 0, true);
    let (attempted, failed, client_tracers) = if let Some(def) = lib_wl::definition(&args.workload)
    {
        let (a, f) = lib_wl::run_traced(&def, args, &mut main_tracer, &mut m);
        (a, f, Vec::new())
    } else if let Some(def) = serve_wl::definition(&args.workload) {
        serve_wl::run_traced(&def, args, &mut main_tracer, &mut m)
    } else {
        let (a, f) = store_wl::run_traced(args, &mut main_tracer, &mut m);
        (a, f, Vec::new())
    };

    let floors =
        sys::Scratch::create(&args.dir, &format!("{}-floor", args.workload)).expect("scratch dir");
    let copy = if args.quick {
        floor::MEMCPY_BYTES / 16
    } else {
        floor::MEMCPY_BYTES
    };
    m.set("floor.memcpy_mbps", floor::memcpy_mbps(copy));
    m.set(
        "floor.fdatasync_ms",
        floor::fdatasync_ms(floors.path(), 50).expect("fdatasync probe"),
    );
    m.set(
        "floor.loopback_rtt_us",
        floor::loopback_rtt_us(1000).expect("loopback probe"),
    );
    m.set("floor.canary_before_ms", canary_before);
    m.set("floor.canary_after_ms", floor::canary_ms());

    let traces = args.dir.join("traces");
    std::fs::create_dir_all(&traces).expect("trace dir");
    let mut all: Vec<&Tracer> = vec![&main_tracer];
    all.extend(client_tracers.iter());
    let path = traces.join(format!("{}.trace.json", args.workload));
    std::fs::write(&path, trace::chrome_json(&all)).expect("write trace");
    println!("trace {}", path.display());
    (attempted, failed, m)
}

/// Several runs, each a child process of its own so CPU time and peak
/// RSS belong to one workload; never two at once.
fn run_set(spec: &Spec, cli: &Cli) -> i32 {
    let workloads = if cli.workloads.is_empty() {
        &spec.workloads
    } else {
        &cli.workloads
    };
    let exe = std::env::current_exe().expect("own path");
    let mut records = Vec::new();
    let mut bad = 0;
    // Workloads outside, seeds inside: the order in which the driver
    // is taken to make its ten runs of each workload.
    for workload in workloads {
        for r in 0..cli.runs {
            let seed = cli.seed + r;
            let mut child = Command::new(&exe);
            child
                .args(["run", "--workload", workload])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &cli.seconds.to_string()])
                .args(["--trace", if cli.trace { "1" } else { "0" }])
                .arg("--dir")
                .arg(&cli.dir);
            if cli.quick {
                child.arg("--quick");
            }
            let output = child.output().expect("spawn child run");
            let stdout = String::from_utf8_lossy(&output.stdout);
            print!("{stdout}");
            let result = stdout.lines().last().unwrap_or("").to_string();
            let info = stdout
                .lines()
                .find_map(|l| l.strip_prefix("info "))
                .unwrap_or("{}")
                .to_string();
            if !output.status.success() || !result.starts_with('{') {
                eprintln!("{workload} seed {seed}: exit {:?}", output.status.code());
                bad += 1;
                continue;
            }
            records.push(RunRecord {
                workload: workload.clone(),
                seed,
                trace: cli.trace,
                result,
                info,
            });
        }
    }
    let lines: String = records.iter().map(|r| r.to_line() + "\n").collect();
    if let Some(out) = &cli.out {
        std::fs::write(out, &lines).expect("write run set");
    }
    let (values, facts) = runset::collect(&lines).expect("own lines parse");
    println!(
        "{:<18} {:<14} {:>12} {:>12} {:>12} {:>3} {:>7}",
        "workload", "metric", "q1", "median", "q3", "n", "iqr%"
    );
    for ((workload, metric), v) in &values {
        let e = stats::Estimate::of(v);
        println!(
            "{workload:<18} {metric:<14} {:>12.4} {:>12.4} {:>12.4} {:>3} {:>7.2}",
            e.q1,
            e.median,
            e.q3,
            e.n,
            e.spread() * 100.0
        );
    }
    if cli.append_history && !cli.trace {
        let commit = Command::new("git")
            .args([
                "-C",
                env!("CARGO_MANIFEST_DIR"),
                "rev-parse",
                "--short=12",
                "HEAD",
            ])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map_or("unknown".to_string(), |o| {
                String::from_utf8_lossy(&o.stdout).trim().to_string()
            });
        let line = runset::history_line(
            spec,
            &commit,
            cli.seed,
            isobar::active_kernel_tier().name(),
            nproc(),
            &values,
            &facts,
        );
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("history.jsonl");
        let mut history = std::fs::read_to_string(&path).unwrap_or_default();
        history.push_str(&line);
        history.push('\n');
        std::fs::write(&path, history).expect("append history");
    }
    i32::from(bad > 0 || facts.incorrect_runs > 0)
}
