//! Self-checks of the benchmark, at 1/20 scale (`--quick`, one-second
//! phases): what it prints matches what `BENCHMARK.json` declares, the
//! seed decides the inputs and the schedule, a failed comparison fails
//! the command, and nothing is left behind.

use isobar::telemetry::json::{self, JsonValue};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const EXE: &str = env!("CARGO_BIN_EXE_isobar-benchmark");
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

fn scratch_root(test: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(test);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn quick_run(dir: &Path, workload: &str, seed: u64, trace: bool) -> Output {
    Command::new(EXE)
        .args(["run", "--quick", "--seconds", "1", "--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--dir")
        .arg(dir)
        .output()
        .expect("spawn benchmark")
}

fn last_line(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .last()
        .unwrap_or("")
        .to_string()
}

fn info(out: &Output) -> JsonValue {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .find_map(|l| l.strip_prefix("info "))
        .expect("an info line");
    json::parse(line).expect("info parses")
}

fn declared(section: &str) -> Vec<(String, String)> {
    let spec = json::parse(BENCHMARK_JSON).unwrap();
    spec.get(section)
        .and_then(JsonValue::as_array)
        .unwrap()
        .iter()
        .map(|m| {
            let unit = m.get("unit").and_then(JsonValue::as_str).unwrap_or("");
            (
                m.get("name").unwrap().as_str().unwrap().to_string(),
                unit.to_string(),
            )
        })
        .collect()
}

/// The result line carries exactly the four contract keys, and its
/// metrics are exactly the declared ones, once each, finite, with the
/// declared unit.
fn check_result_line(line: &str, expected: &[(String, String)], context: &str) {
    let result = json::parse(line).unwrap_or_else(|e| panic!("{context}: {e}: {line}"));
    let JsonValue::Object(members) = &result else {
        panic!("{context}: result is not an object")
    };
    let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        ["correct", "attempted", "failed", "metrics"],
        "{context}"
    );
    assert_eq!(
        result.get("correct"),
        Some(&JsonValue::Bool(true)),
        "{context}"
    );
    assert!(
        result.get("attempted").unwrap().as_u64().unwrap() >= 1,
        "{context}"
    );
    assert_eq!(result.get("failed").unwrap().as_u64(), Some(0), "{context}");
    let JsonValue::Object(metrics) = result.get("metrics").unwrap() else {
        panic!("{context}: metrics is not an object")
    };
    let mut emitted: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let mut wanted: Vec<&str> = expected.iter().map(|(n, _)| n.as_str()).collect();
    emitted.sort_unstable();
    wanted.sort_unstable();
    assert_eq!(
        emitted, wanted,
        "{context}: emitted names differ from BENCHMARK.json"
    );
    for (name, unit) in expected {
        let m = result.get("metrics").unwrap().get(name).unwrap();
        let value = m.get("value").and_then(JsonValue::as_f64);
        assert!(
            value.is_some_and(f64::is_finite),
            "{context}: {name} = {value:?}"
        );
        assert_eq!(
            m.get("unit").and_then(JsonValue::as_str),
            Some(unit.as_str()),
            "{context}: {name}"
        );
    }
}

#[test]
fn every_workload_emits_exactly_the_declared_metrics_and_cleans_up() {
    let dir = scratch_root("declared");
    let workloads = declared("workloads");
    assert_eq!(workloads.len(), 6);
    let (end_to_end, per_layer) = (declared("end_to_end"), declared("per_layer"));
    for (workload, _) in &workloads {
        for (trace, expected) in [(false, &end_to_end), (true, &per_layer)] {
            let out = quick_run(&dir, workload, 7, trace);
            let context = format!("{workload} trace {}", u8::from(trace));
            assert!(
                out.status.success(),
                "{context}: {}\n{}",
                String::from_utf8_lossy(&out.stdout),
                String::from_utf8_lossy(&out.stderr)
            );
            check_result_line(&last_line(&out), expected, &context);
            if !trace {
                // Every end-to-end metric must be usable as a ratio base.
                let result = json::parse(&last_line(&out)).unwrap();
                for (name, _) in &end_to_end {
                    let v = result
                        .get("metrics")
                        .unwrap()
                        .get(name)
                        .unwrap()
                        .get("value")
                        .unwrap();
                    assert!(
                        v.as_f64().unwrap() > 0.0,
                        "{context}: {name} is not positive"
                    );
                }
            }
        }
    }
    // Scratch directories are gone; only the trace files remain.
    let left: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    assert_eq!(left, ["traces"], "left behind in {}", dir.display());
    for (workload, _) in &workloads {
        let trace =
            std::fs::read_to_string(dir.join("traces").join(format!("{workload}.trace.json")))
                .unwrap();
        let parsed = json::parse(&trace).expect("chrome trace parses");
        assert!(!parsed
            .get("traceEvents")
            .unwrap()
            .as_array()
            .unwrap()
            .is_empty());
    }
}

#[test]
fn the_seed_decides_inputs_and_schedule() {
    let dir = scratch_root("seed");
    for workload in ["serve_ingest", "store_ckpt_mix"] {
        let hashes = |seed: u64| {
            let i = info(&quick_run(&dir, workload, seed, false));
            let get = |k: &str| i.get(k).and_then(JsonValue::as_str).unwrap().to_string();
            (get("input_hash"), get("schedule_hash"))
        };
        let (a, b, c) = (hashes(7), hashes(7), hashes(8));
        assert_eq!(a, b, "{workload}: same seed, different inputs or schedule");
        assert_ne!(a.0, c.0, "{workload}: another seed gave the same inputs");
        assert_ne!(a.1, c.1, "{workload}: another seed gave the same schedule");
    }
}

#[test]
fn a_corrupted_comparison_fails_the_command() {
    let dir = scratch_root("corrupt");
    let out = Command::new(EXE)
        .args([
            "run",
            "--quick",
            "--seconds",
            "1",
            "--workload",
            "speed_mixed_f32",
            "--dir",
        ])
        .arg(&dir)
        .env("ISOBAR_BENCH_CORRUPT_VERIFY", "1")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let result = json::parse(&last_line(&out)).unwrap();
    assert_eq!(result.get("correct"), Some(&JsonValue::Bool(false)));
    assert!(result.get("failed").unwrap().as_u64().unwrap() > 0);
}

#[test]
fn run_sets_are_saved_and_compared() {
    let dir = scratch_root("sets");
    std::fs::create_dir_all(&dir).unwrap();
    let set = |name: &str| {
        let path = dir.join(name);
        let out = Command::new(EXE)
            // `Preference::Ratio`: the pick, and so the ratio, does not
            // depend on how loaded the machine running the tests is.
            .args([
                "run",
                "--quick",
                "--seconds",
                "1",
                "--runs",
                "2",
                "--workload",
                "ratio_noise_f64",
            ])
            .arg("--dir")
            .arg(&dir)
            .arg("--out")
            .arg(&path)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(std::fs::read_to_string(&path).unwrap().lines().count(), 2);
        path
    };
    let (a, b) = (set("a.jsonl"), set("b.jsonl"));
    let aa = |x: &Path, y: &Path| Command::new(EXE).arg("aa").arg(x).arg(y).output().unwrap();
    let same = aa(&a, &a);
    assert_eq!(
        same.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&same.stdout)
    );
    assert!(String::from_utf8_lossy(&same.stdout).contains("within"));
    assert!(aa(&a, &b).status.code().is_some_and(|c| c == 0 || c == 1));
    // A set whose ratio halved exceeds any bound.
    let worse = dir.join("worse.jsonl");
    let halved: String = std::fs::read_to_string(&a)
        .unwrap()
        .lines()
        .map(|line| {
            let key = "\"ratio\": {\"value\": ";
            let start = line.find(key).unwrap() + key.len();
            let end = start + line[start..].find(',').unwrap();
            let ratio: f64 = line[start..end].parse().unwrap();
            format!("{}{}{}\n", &line[..start], ratio / 2.0, &line[end..])
        })
        .collect();
    std::fs::write(&worse, halved).unwrap();
    let out = aa(&a, &worse);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stdout).contains("exceeds"));
}
