//! Spans recorded by the benchmark around its calls into each layer.
//! They stay in memory until the run ends and are then written as
//! Chrome trace JSON. A layer's self time is its span minus the part
//! its child spans cover.

use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span on the same tracer.
    pub parent: Option<usize>,
    /// Spans of one op (one compress call, one request) share this.
    pub op_id: u64,
}

/// One thread's span list. A disabled tracer records nothing, so the
/// same code path serves the untraced comparison run.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    tid: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(epoch: Instant, tid: u32, enabled: bool) -> Tracer {
        Tracer {
            epoch,
            enabled,
            tid,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// The instant span times count from; tracers of one run share it.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    pub fn begin(&mut self, name: &'static str, op_id: u64) {
        if !self.enabled {
            return;
        }
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.open.push(self.spans.len());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.iter().rev().nth(1).copied(),
            op_id,
        });
    }

    /// Close the innermost open span.
    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let i = self.open.pop().expect("end without begin");
        self.spans[i].end_ns = self.epoch.elapsed().as_nanos() as u64;
    }

    pub fn span<T>(&mut self, name: &'static str, op_id: u64, f: impl FnOnce() -> T) -> T {
        self.begin(name, op_id);
        let out = f();
        self.end();
        out
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration of the spans called `name`, in milliseconds.
    pub fn total_ms(&self, name: &str) -> f64 {
        let ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        ns as f64 / 1e6
    }

    /// Total self time of the spans called `name`: duration minus the
    /// duration of direct children.
    pub fn self_ms(&self, name: &str) -> f64 {
        let mut ns: i128 = 0;
        for (i, s) in self.spans.iter().enumerate() {
            if s.name == name {
                ns += (s.end_ns - s.start_ns) as i128;
            }
            if let Some(p) = s.parent {
                if self.spans[p].name == name && p != i {
                    ns -= (s.end_ns - s.start_ns) as i128;
                }
            }
        }
        ns as f64 / 1e6
    }

    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Durations in milliseconds of the spans called `name`, ascending.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect();
        v.sort_by(f64::total_cmp);
        v
    }
}

/// Chrome trace-event JSON (complete `X` events, microseconds) for the
/// tracers of one run.
pub fn chrome_json(tracers: &[&Tracer]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    for t in tracers {
        assert!(t.open.is_empty(), "span left open on tracer {}", t.tid);
        for s in &t.spans {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let parent = s.parent.map_or(-1, |p| p as i64);
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"op_id\":{},\"parent\":{}}}}}",
                s.name,
                t.tid,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.op_id,
                parent
            ));
        }
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_is_span_minus_direct_children() {
        let mut t = Tracer::new(Instant::now(), 0, true);
        t.begin("outer", 1);
        std::thread::sleep(Duration::from_millis(4));
        t.begin("inner", 1);
        std::thread::sleep(Duration::from_millis(8));
        t.span("leaf", 1, || std::thread::sleep(Duration::from_millis(2)));
        t.end();
        t.end();
        assert_eq!(t.count("outer"), 1);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[2].parent, Some(1));
        let outer = t.total_ms("outer");
        let inner = t.total_ms("inner");
        let leaf = t.total_ms("leaf");
        assert!(outer >= inner && inner >= leaf && leaf >= 2.0);
        assert!((t.self_ms("outer") - (outer - inner)).abs() < 1e-6);
        assert!((t.self_ms("inner") - (inner - leaf)).abs() < 1e-6);
        assert!((t.self_ms("leaf") - leaf).abs() < 1e-6);
        let json = chrome_json(&[&t]);
        let parsed = isobar::telemetry::json::parse(&json).unwrap();
        assert_eq!(
            parsed.get("traceEvents").unwrap().as_array().unwrap().len(),
            3
        );
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(Instant::now(), 0, false);
        assert_eq!(t.span("x", 0, || 5), 5);
        assert!(t.spans().is_empty());
    }
}
