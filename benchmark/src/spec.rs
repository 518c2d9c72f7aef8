//! `BENCHMARK.json` is the one place workload and metric names, units,
//! directions and bounds are written down; the code emits metrics by
//! name and refuses a name the file does not declare.

use isobar::telemetry::json::{self, JsonValue};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

#[derive(Debug, Clone)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen;
    /// per-layer metrics have none.
    pub bound: Option<f64>,
}

#[derive(Debug, Clone)]
pub struct Spec {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

fn field<'a>(v: &'a JsonValue, key: &str) -> &'a JsonValue {
    v.get(key)
        .unwrap_or_else(|| panic!("BENCHMARK.json: missing key {key}"))
}

fn text(v: &JsonValue, key: &str) -> String {
    field(v, key)
        .as_str()
        .unwrap_or_else(|| panic!("BENCHMARK.json: {key} is not a string"))
        .to_string()
}

fn items<'a>(v: &'a JsonValue, key: &str) -> &'a [JsonValue] {
    field(v, key)
        .as_array()
        .unwrap_or_else(|| panic!("BENCHMARK.json: {key} is not an array"))
}

impl Spec {
    pub fn load() -> Spec {
        let root = json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let metrics = |key: &str| -> Vec<MetricSpec> {
            items(&root, key)
                .iter()
                .map(|m| MetricSpec {
                    name: text(m, "name"),
                    unit: text(m, "unit"),
                    higher_is_better: text(m, "better") == "higher",
                    bound: m.get("bound").and_then(JsonValue::as_f64),
                })
                .collect()
        };
        Spec {
            run_seconds: field(&root, "run_seconds")
                .as_f64()
                .expect("run_seconds is a number"),
            workloads: items(&root, "workloads")
                .iter()
                .map(|w| text(w, "name"))
                .collect(),
            end_to_end: metrics("end_to_end"),
            per_layer: metrics("per_layer"),
        }
    }
}

/// The metrics of one run, checked against the declared list: a name
/// can be set once, must be declared, and every declared name must be
/// set before the run reports.
pub struct Metrics<'a> {
    declared: &'a [MetricSpec],
    values: Vec<Option<f64>>,
}

impl<'a> Metrics<'a> {
    pub fn new(declared: &'a [MetricSpec]) -> Metrics<'a> {
        Metrics {
            declared,
            values: vec![None; declared.len()],
        }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .declared
            .iter()
            .position(|m| m.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared in BENCHMARK.json"));
        assert!(self.values[i].is_none(), "metric {name} set twice");
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.values[i] = Some(value);
    }

    /// Zero every still unset metric of a layer this workload does not
    /// run (`prefix` is the layer name with its dot).
    pub fn absent_layer(&mut self, prefix: &str) {
        for (m, v) in self.declared.iter().zip(&mut self.values) {
            if m.name.starts_with(prefix) && v.is_none() {
                *v = Some(0.0);
            }
        }
    }

    /// Every declared metric with its value, in declared order.
    pub fn finish(self) -> Vec<(&'a MetricSpec, f64)> {
        self.declared
            .iter()
            .zip(self.values)
            .map(|(m, v)| {
                (
                    m,
                    v.unwrap_or_else(|| panic!("metric {} was never set", m.name)),
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        let first_ok = name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric());
        first_ok
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn benchmark_json_is_within_the_contract_limits() {
        let spec = Spec::load();
        assert!((2..=8).contains(&spec.workloads.len()));
        assert!((1..=16).contains(&spec.end_to_end.len()));
        assert!((1..=128).contains(&spec.per_layer.len()));
        assert!(spec.run_seconds >= 1.0 && spec.run_seconds <= 60.0);
        assert_eq!(spec.run_seconds.fract(), 0.0);
        let mut names: Vec<&str> = spec
            .workloads
            .iter()
            .map(String::as_str)
            .chain(spec.end_to_end.iter().map(|m| m.name.as_str()))
            .chain(spec.per_layer.iter().map(|m| m.name.as_str()))
            .collect();
        assert!(names.iter().all(|n| name_ok(n)), "{names:?}");
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for m in &spec.end_to_end {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}: {bound}", m.name);
        }
        for m in spec.end_to_end.iter().chain(&spec.per_layer) {
            assert!(!m.unit.is_empty() && m.unit.len() <= 16, "{}", m.unit);
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-')));
        }
        let setup = spec
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .unwrap();
        assert!(setup.unit == "s" && !setup.higher_is_better);
        assert!(BENCHMARK_JSON.len() <= 64 * 1024);
    }

    #[test]
    #[should_panic(expected = "set twice")]
    fn a_metric_cannot_be_set_twice() {
        let spec = Spec::load();
        let mut m = Metrics::new(&spec.end_to_end);
        m.set("ratio", 1.0);
        m.set("ratio", 2.0);
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn an_undeclared_metric_is_refused() {
        let spec = Spec::load();
        Metrics::new(&spec.end_to_end).set("no_such_metric", 1.0);
    }
}
