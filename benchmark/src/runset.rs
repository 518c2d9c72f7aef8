//! Run sets: the saved results of several runs per workload, the A/A
//! comparison between two of them, and the history line one of them
//! appends. A set is compared the way the driver compares: per
//! (workload, metric) the median across runs, and the distance between
//! the quartiles as a share of the median.

use crate::spec::{MetricSpec, Spec};
use crate::stats::Estimate;
use isobar::telemetry::json::{self, JsonValue};
use std::collections::BTreeMap;
use std::path::Path;

/// One run as saved in a set: one JSON object per line.
pub struct RunRecord {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    /// The run's final result line, verbatim.
    pub result: String,
    /// The run's `info` object, verbatim.
    pub info: String,
}

impl RunRecord {
    pub fn to_line(&self) -> String {
        format!(
            "{{\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"result\":{},\"info\":{}}}",
            self.workload,
            self.seed,
            u8::from(self.trace),
            self.result,
            self.info
        )
    }
}

/// (workload, metric) → the metric's value in every untraced run.
pub type Values = BTreeMap<(String, String), Vec<f64>>;

/// The per-run facts a history line keeps beside the metrics.
#[derive(Default)]
pub struct SetFacts {
    pub runs: usize,
    pub disturbed_runs: usize,
    pub incorrect_runs: usize,
}

fn metric_values(result: &JsonValue) -> Vec<(String, f64)> {
    match result.get("metrics") {
        Some(JsonValue::Object(members)) => members
            .iter()
            .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
            .collect(),
        _ => Vec::new(),
    }
}

/// Gather the end-to-end values of a set's lines.
pub fn collect(lines: &str) -> Result<(Values, SetFacts), String> {
    let mut values = Values::new();
    let mut facts = SetFacts::default();
    for (i, line) in lines
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let rec = json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let workload = rec
            .get("workload")
            .and_then(JsonValue::as_str)
            .ok_or(format!("line {}: no workload", i + 1))?;
        if rec.get("trace").and_then(JsonValue::as_u64) != Some(0) {
            continue;
        }
        let result = rec
            .get("result")
            .ok_or(format!("line {}: no result", i + 1))?;
        facts.runs += 1;
        facts.incorrect_runs += usize::from(result.get("correct") != Some(&JsonValue::Bool(true)));
        let disturbed = rec.get("info").and_then(|i| i.get("disturbed"));
        facts.disturbed_runs += usize::from(disturbed == Some(&JsonValue::Bool(true)));
        for (metric, value) in metric_values(result) {
            values
                .entry((workload.to_string(), metric))
                .or_default()
                .push(value);
        }
    }
    Ok((values, facts))
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Within,
    Exceeds,
    /// The run-to-run spread of a side is wider than the bound, so the
    /// pair cannot tell a regression from noise.
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Within => "within",
            Verdict::Exceeds => "exceeds",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// By how much of A's median B is worse (negative when better).
pub fn worsening(metric: &MetricSpec, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    let change = (b - a) / a.abs();
    if metric.higher_is_better {
        -change
    } else {
        change
    }
}

pub fn verdict(metric: &MetricSpec, a: &Estimate, b: &Estimate) -> Verdict {
    let bound = metric.bound.expect("end-to-end metrics carry a bound");
    // `setup_s` is held to its medians only: a set-up is too short for
    // its spread to mean anything.
    if metric.name != "setup_s" && a.spread().max(b.spread()) > bound {
        Verdict::Unresolved
    } else if worsening(metric, a.median, b.median) > bound {
        Verdict::Exceeds
    } else {
        Verdict::Within
    }
}

/// Print one row per (workload, end-to-end metric); returns the number
/// of `exceeds` and `unresolved` rows.
pub fn compare(spec: &Spec, a: &Values, b: &Values) -> (usize, usize) {
    println!(
        "{:<18} {:<14} {:>12} {:>7} {:>12} {:>7} {:>8} {:>6}  verdict",
        "workload", "metric", "A median", "A iqr%", "B median", "B iqr%", "worse%", "bound%"
    );
    let (mut exceeds, mut unresolved) = (0, 0);
    for workload in &spec.workloads {
        for metric in &spec.end_to_end {
            let key = (workload.clone(), metric.name.clone());
            let (va, vb) = match (a.get(&key), b.get(&key)) {
                (Some(va), Some(vb)) => (va, vb),
                // A workload neither set ran is not part of the question.
                (None, None) => continue,
                _ => {
                    println!("{workload:<18} {:<14} missing from one set", metric.name);
                    unresolved += 1;
                    continue;
                }
            };
            let (ea, eb) = (Estimate::of(va), Estimate::of(vb));
            let v = verdict(metric, &ea, &eb);
            exceeds += usize::from(v == Verdict::Exceeds);
            unresolved += usize::from(v == Verdict::Unresolved);
            println!(
                "{workload:<18} {:<14} {:>12.4} {:>7.2} {:>12.4} {:>7.2} {:>8.2} {:>6.1}  {}",
                metric.name,
                ea.median,
                ea.spread() * 100.0,
                eb.median,
                eb.spread() * 100.0,
                worsening(metric, ea.median, eb.median) * 100.0,
                metric.bound.unwrap_or(0.0) * 100.0,
                v.name()
            );
        }
    }
    (exceeds, unresolved)
}

/// `aa SET_A SET_B`: exit code 1 on any `exceeds`.
pub fn aa(spec: &Spec, path_a: &Path, path_b: &Path) -> Result<i32, String> {
    let read = |p: &Path| std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()));
    let (a, _) = collect(&read(path_a)?)?;
    let (b, _) = collect(&read(path_b)?)?;
    let (exceeds, unresolved) = compare(spec, &a, &b);
    println!("{exceeds} exceeds, {unresolved} unresolved");
    Ok(i32::from(exceeds > 0))
}

/// One history line for a set: what was measured, on what, with
/// quartiles, so the baseline is a trajectory and not an overwritten
/// file.
pub fn history_line(
    spec: &Spec,
    commit: &str,
    seed: u64,
    tier: &str,
    nproc: usize,
    values: &Values,
    facts: &SetFacts,
) -> String {
    let mut out = format!(
        "{{\"commit\":\"{commit}\",\"seed\":{seed},\"kernel_tier\":\"{tier}\",\"nproc\":{nproc},\"runs\":{},\"disturbed_runs\":{},\"workloads\":{{",
        facts.runs, facts.disturbed_runs
    );
    let mut first_workload = true;
    for workload in &spec.workloads {
        let rows: Vec<String> = spec
            .end_to_end
            .iter()
            .filter_map(|m| {
                let e = Estimate::of(values.get(&(workload.clone(), m.name.clone()))?);
                Some(format!(
                    "\"{}\":{{\"q1\":{},\"median\":{},\"q3\":{},\"n\":{}}}",
                    m.name, e.q1, e.median, e.q3, e.n
                ))
            })
            .collect();
        if rows.is_empty() {
            continue;
        }
        if !first_workload {
            out.push(',');
        }
        first_workload = false;
        out.push_str(&format!("\"{workload}\":{{{}}}", rows.join(",")));
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str, higher: bool, bound: f64) -> MetricSpec {
        MetricSpec {
            name: name.to_string(),
            unit: "x".to_string(),
            higher_is_better: higher,
            bound: Some(bound),
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let up = metric("ingest_mbps", true, 0.10);
        let down = metric("put_p50_ms", false, 0.10);
        let tight = |m: f64| Estimate::of(&[m * 0.99, m, m * 1.01, m, m]);
        assert_eq!(verdict(&up, &tight(100.0), &tight(95.0)), Verdict::Within);
        assert_eq!(verdict(&up, &tight(100.0), &tight(85.0)), Verdict::Exceeds);
        assert_eq!(verdict(&up, &tight(100.0), &tight(150.0)), Verdict::Within);
        assert_eq!(verdict(&down, &tight(10.0), &tight(11.5)), Verdict::Exceeds);
        assert_eq!(verdict(&down, &tight(10.0), &tight(8.0)), Verdict::Within);
        let wide = Estimate::of(&[70.0, 85.0, 100.0, 115.0, 130.0]);
        assert_eq!(verdict(&up, &wide, &tight(100.0)), Verdict::Unresolved);
        let setup = metric("setup_s", false, 0.25);
        assert_eq!(verdict(&setup, &wide, &tight(100.0)), Verdict::Within);
    }

    #[test]
    fn a_set_round_trips_through_its_lines() {
        let rec = |seed: u64, v: f64, trace: bool| {
            RunRecord {
            workload: "w".to_string(),
            seed,
            trace,
            result: format!("{{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{{\"ratio\":{{\"value\":{v},\"unit\":\"x\"}}}}}}"),
            info: "{\"disturbed\":true}".to_string(),
        }
        };
        let lines = [rec(1, 1.5, false), rec(2, 2.5, false), rec(3, 9.0, true)]
            .iter()
            .map(RunRecord::to_line)
            .collect::<Vec<_>>()
            .join("\n");
        let (values, facts) = collect(&lines).unwrap();
        assert_eq!(
            values[&("w".to_string(), "ratio".to_string())],
            vec![1.5, 2.5]
        );
        assert_eq!(
            (facts.runs, facts.disturbed_runs, facts.incorrect_runs),
            (2, 2, 0)
        );
        assert!(collect("not json").is_err());
    }
}
