//! The one harness binary: every table, figure and ablation of the
//! reproduction, the check that keeps `results/` true, and trace
//! validation.
//!
//! ```text
//! bench NAME               print one experiment (table2 … ablation_granularity)
//! bench all --out DIR      write all 19 as DIR/NAME.txt
//! bench check [DIR]        re-derive DIR (default results/) and compare exact cells
//! bench trace-check FILE   validate a Chrome trace written by --trace
//! ```
//!
//! `all` and `check` share one measurement cache per process, so each
//! dataset is generated and each (dataset, codec) pair timed once.
//! `check` runs at the scale the committed banners declare and compares
//! every cell that does not come from a clock (`isobar_bench::T`).
//!
//! `trace-check` is the CI smoke test for the span pipeline: a top-level
//! array whose begin/end events are balanced and properly nested per
//! thread, with non-decreasing timestamps per thread. Throughput,
//! latency and per-layer budgets are measured by the repository
//! benchmark (`benchmark/README.md`), not here.

use isobar::telemetry::json::{self, JsonValue};
use isobar_bench::experiments::{self, EXPERIMENTS};
use isobar_bench::{banner_scale, Bench};
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "usage: bench NAME | all --out DIR | check [DIR] | trace-check FILE";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let result = match args[..] {
        ["trace-check", ref rest @ ..] => trace_check(rest),
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

fn load(path: &str) -> Result<JsonValue, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// One begin/end/instant event, reduced to what validation needs.
struct ChromeEvent {
    name: String,
    phase: char,
    ts: f64,
    tid: u64,
}

fn chrome_events(doc: &JsonValue, path: &str) -> Result<Vec<ChromeEvent>, String> {
    let items = doc
        .as_array()
        .ok_or(format!("{path}: top level is not an array"))?;
    items
        .iter()
        .enumerate()
        .map(|(i, item)| {
            let field = |key: &str| {
                item.get(key)
                    .ok_or(format!("{path}: event {i} has no \"{key}\""))
            };
            let phase = match field("ph")?.as_str() {
                Some(p) if p.len() == 1 => p.chars().next().expect("one char"),
                _ => return Err(format!("{path}: event {i} has a malformed \"ph\"")),
            };
            Ok(ChromeEvent {
                name: field("name")?
                    .as_str()
                    .ok_or(format!("{path}: event {i} \"name\" is not a string"))?
                    .to_string(),
                phase,
                ts: field("ts")?
                    .as_f64()
                    .ok_or(format!("{path}: event {i} \"ts\" is not a number"))?,
                tid: field("tid")?
                    .as_u64()
                    .ok_or(format!("{path}: event {i} \"tid\" is not an integer"))?,
            })
        })
        .collect()
}

fn trace_check(args: &[&str]) -> Result<(), String> {
    let &[path] = args else {
        return Err("trace-check requires exactly one FILE".to_string());
    };
    let events = chrome_events(&load(path)?, path)?;

    // Per-thread: timestamps non-decreasing, B/E balanced and nested
    // (every E closes the innermost open B of the same name).
    let mut stacks: std::collections::BTreeMap<u64, Vec<String>> = Default::default();
    let mut last_ts: std::collections::BTreeMap<u64, f64> = Default::default();
    let mut spans = 0usize;
    let mut instants = 0usize;
    for (i, event) in events.iter().enumerate() {
        if let Some(prev) = last_ts.insert(event.tid, event.ts) {
            if event.ts < prev {
                return Err(format!(
                    "{path}: event {i} ({}) goes back in time on tid {} ({} < {prev})",
                    event.name, event.tid, event.ts
                ));
            }
        }
        let stack = stacks.entry(event.tid).or_default();
        match event.phase {
            'B' => stack.push(event.name.clone()),
            'E' => match stack.pop() {
                Some(open) if open == event.name => spans += 1,
                Some(open) => {
                    return Err(format!(
                        "{path}: event {i} ends \"{}\" but \"{open}\" is open on tid {}",
                        event.name, event.tid
                    ))
                }
                None => {
                    return Err(format!(
                        "{path}: event {i} ends \"{}\" with nothing open on tid {}",
                        event.name, event.tid
                    ))
                }
            },
            'i' => instants += 1,
            other => return Err(format!("{path}: event {i} has unknown phase '{other}'")),
        }
    }
    for (tid, stack) in &stacks {
        if let Some(open) = stack.last() {
            return Err(format!("{path}: \"{open}\" never ends on tid {tid}"));
        }
    }
    println!(
        "{path}: valid Chrome trace ({spans} spans, {instants} instants, {} threads)",
        stacks.len()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_trace_validates() {
        let doc = json::parse(
            r#"[
                {"name": "outer", "cat": "isobar", "ph": "B", "ts": 1, "pid": 1, "tid": 1},
                {"name": "inner", "cat": "isobar", "ph": "B", "ts": 2, "pid": 1, "tid": 1},
                {"name": "mark", "cat": "isobar", "ph": "i", "ts": 3, "pid": 1, "tid": 1, "s": "t"},
                {"name": "inner", "cat": "isobar", "ph": "E", "ts": 4, "pid": 1, "tid": 1},
                {"name": "outer", "cat": "isobar", "ph": "E", "ts": 5, "pid": 1, "tid": 1}
            ]"#,
        )
        .unwrap();
        let events = chrome_events(&doc, "x").unwrap();
        assert_eq!(events.len(), 5);
    }

    #[test]
    fn unbalanced_or_disordered_traces_are_rejected() {
        // chrome_events accepts the shape; trace_check logic rejects.
        // Exercise through the stack walk by writing temp files.
        let dir = std::env::temp_dir();
        let path = dir.join(format!("isobar-bench-trace-{}.json", std::process::id()));
        let cases = [
            // E without B.
            r#"[{"name": "a", "ph": "E", "ts": 1, "pid": 1, "tid": 1}]"#,
            // B never closed.
            r#"[{"name": "a", "ph": "B", "ts": 1, "pid": 1, "tid": 1}]"#,
            // Mismatched nesting.
            r#"[
                {"name": "a", "ph": "B", "ts": 1, "pid": 1, "tid": 1},
                {"name": "b", "ph": "B", "ts": 2, "pid": 1, "tid": 1},
                {"name": "a", "ph": "E", "ts": 3, "pid": 1, "tid": 1},
                {"name": "b", "ph": "E", "ts": 4, "pid": 1, "tid": 1}
            ]"#,
            // Time goes backwards within a thread.
            r#"[
                {"name": "a", "ph": "B", "ts": 5, "pid": 1, "tid": 1},
                {"name": "a", "ph": "E", "ts": 1, "pid": 1, "tid": 1}
            ]"#,
        ];
        for case in cases {
            std::fs::write(&path, case).unwrap();
            assert!(
                trace_check(&[&path.display().to_string()]).is_err(),
                "accepted: {case}"
            );
        }
        // Interleaved threads are fine: stacks are per-tid.
        std::fs::write(
            &path,
            r#"[
                {"name": "a", "ph": "B", "ts": 1, "pid": 1, "tid": 1},
                {"name": "b", "ph": "B", "ts": 1, "pid": 1, "tid": 2},
                {"name": "a", "ph": "E", "ts": 2, "pid": 1, "tid": 1},
                {"name": "b", "ph": "E", "ts": 2, "pid": 1, "tid": 2}
            ]"#,
        )
        .unwrap();
        trace_check(&[&path.display().to_string()]).unwrap();
        let _ = std::fs::remove_file(&path);
    }
}
