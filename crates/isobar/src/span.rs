//! One clock per timed section.
//!
//! A [`Span`] reads `Instant::now()` once when it opens and once when it
//! closes, and hands those same two readings to the trace ring (when the
//! rings are active) and to the section's one accumulator: a
//! [`Recorder`] stage ([`stage`], [`Span::record`]), the report's EUPA
//! seconds, or the serve daemon's request ledger. So a stage total and
//! the sum of its spans on the timeline are the same nanoseconds.
//! Sections that feed no total appear on the timeline alone, through
//! [`trace::span`]. [`check_chrome_trace`] checks what the rings export.

use isobar_telemetry::json;
use isobar_telemetry::{Phase, Recorder};
use isobar_trace as trace;
use std::time::{Duration, Instant};

/// One open timed section of phase `phase`.
///
/// ```
/// use isobar::span::Span;
/// use isobar::telemetry::Phase;
/// use isobar::Recorder;
///
/// let mut rec = Recorder::new();
/// let span = Span::open(Phase::Partition, 0);
/// // ... the section's work ...
/// let elapsed = span.record(&mut rec);
/// if isobar::telemetry::ENABLED {
///     let stats = rec.snapshot().stage(Phase::Partition);
///     assert_eq!(stats.total_nanos, elapsed.as_nanos() as u64);
/// }
/// ```
#[must_use = "a span records nothing until it is closed"]
pub struct Span {
    phase: Phase,
    chunk: u32,
    start: Instant,
}

impl Span {
    /// Open a section of `phase` for `chunk` ([`trace::NO_CHUNK`] when
    /// the work is not chunk-scoped): the opening clock reading.
    #[inline]
    pub fn open(phase: Phase, chunk: u32) -> Span {
        Span {
            phase,
            chunk,
            start: Instant::now(),
        }
    }

    /// Close the section: the closing clock reading. Both readings go
    /// to the trace ring when it is active, and back to the caller for
    /// its accumulator.
    #[inline]
    pub fn close(self) -> (Instant, Instant) {
        let end = Instant::now();
        trace::record_span(self.phase, self.chunk, self.start, end);
        (self.start, end)
    }

    /// Close the section and fold its duration into `recorder` as the
    /// phase's stage time; returns the duration.
    #[inline]
    pub fn record(self, recorder: &mut Recorder) -> Duration {
        let phase = self.phase;
        let (start, end) = self.close();
        let elapsed = end - start;
        recorder.record_stage(phase, elapsed.as_nanos() as u64);
        elapsed
    }
}

/// Run `f` as chunk stage `phase` of `chunk`, timed by one [`Span`]
/// into `recorder` (which `f` may record into too). In the
/// telemetry-off build this is `f(recorder)`: no clock is read.
#[inline]
pub fn stage<T>(
    recorder: &mut Recorder,
    phase: Phase,
    chunk: u32,
    f: impl FnOnce(&mut Recorder) -> T,
) -> T {
    if !isobar_telemetry::ENABLED {
        return f(recorder);
    }
    let span = Span::open(phase, chunk);
    let out = f(recorder);
    span.record(recorder);
    out
}

/// Check a Chrome trace-event export, a top-level array as
/// [`trace::Trace::to_chrome_json`] writes it: per thread (`tid`),
/// timestamps never go back, and every `E` closes the innermost open
/// `B` of the same name, with none left open; `i` events are instants.
/// Returns the completed spans, the instants and the threads, or what
/// is wrong, naming the event.
pub fn check_chrome_trace(text: &str) -> Result<(usize, usize, usize), String> {
    let doc = json::parse(text)?;
    let events = doc.as_array().ok_or("top level is not an array")?;
    // (tid, last timestamp, open span names)
    let mut threads: Vec<(u64, f64, Vec<&str>)> = Vec::new();
    let (mut spans, mut instants) = (0, 0);
    for (i, event) in events.iter().enumerate() {
        let field = |key: &str| event.get(key).ok_or(format!("event {i} has no \"{key}\""));
        let name = field("name")?
            .as_str()
            .ok_or(format!("event {i} \"name\" is not a string"))?;
        let ph = field("ph")?
            .as_str()
            .filter(|ph| ph.chars().count() == 1)
            .ok_or(format!("event {i} has a malformed \"ph\""))?;
        let ts = field("ts")?
            .as_f64()
            .ok_or(format!("event {i} \"ts\" is not a number"))?;
        let tid = field("tid")?
            .as_u64()
            .ok_or(format!("event {i} \"tid\" is not an integer"))?;
        if !threads.iter().any(|t| t.0 == tid) {
            threads.push((tid, ts, Vec::new()));
        }
        let (_, last_ts, open) = threads.iter_mut().find(|t| t.0 == tid).expect("pushed");
        if ts < *last_ts {
            return Err(format!(
                "event {i} ({name}) goes back in time on tid {tid} ({ts} < {last_ts})"
            ));
        }
        *last_ts = ts;
        match ph {
            "B" => open.push(name),
            "E" => match open.pop() {
                Some(innermost) if innermost == name => spans += 1,
                Some(innermost) => {
                    return Err(format!(
                        "event {i} ends \"{name}\" but \"{innermost}\" is open on tid {tid}"
                    ))
                }
                None => {
                    return Err(format!(
                        "event {i} ends \"{name}\" with nothing open on tid {tid}"
                    ))
                }
            },
            "i" => instants += 1,
            other => return Err(format!("event {i} has unknown phase '{other}'")),
        }
    }
    if let Some((tid, _, open)) = threads.iter().find(|t| !t.2.is_empty()) {
        return Err(format!(
            "\"{}\" never ends on tid {tid}",
            open[open.len() - 1]
        ));
    }
    Ok((spans, instants, threads.len()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(ph: &str, name: &str, ts: &str, tid: u32) -> String {
        format!(
            "{{\"name\": \"{name}\", \"ph\": \"{ph}\", \"ts\": {ts}, \"pid\": 1, \"tid\": {tid}}}"
        )
    }

    fn array(events: &[String]) -> String {
        format!("[\n{}\n]", events.join(",\n"))
    }

    #[test]
    fn validator_rejects_malformed_events_with_a_message() {
        // Each case is a hand-corrupted export; the answer names what
        // is wrong instead of panicking.
        let cases = [
            // Not an array, not JSON.
            ("{}".to_string(), "not an array"),
            ("[{".to_string(), ""),
            // A phase the exporter never emits.
            (array(&[event("X", "a", "1", 1)]), "unknown phase 'X'"),
            // An empty ph field.
            (array(&[event("", "a", "1", 1)]), "malformed \"ph\""),
            // ph present but ts missing.
            (
                "[{\"name\": \"a\", \"ph\": \"B\", \"tid\": 1}]".to_string(),
                "no \"ts\"",
            ),
            // E with nothing open.
            (array(&[event("E", "a", "1", 1)]), "nothing open"),
            // B never closed.
            (array(&[event("B", "a", "1", 1)]), "never ends"),
            // Mismatched nesting: the outer span ends first.
            (
                array(&[
                    event("B", "a", "1", 1),
                    event("B", "b", "2", 1),
                    event("E", "a", "3", 1),
                    event("E", "b", "4", 1),
                ]),
                "but \"b\" is open",
            ),
            // Time runs backwards within a thread.
            (
                array(&[event("i", "a", "5.000", 1), event("i", "b", "1.000", 1)]),
                "goes back in time",
            ),
        ];
        for (text, why) in cases {
            let err = check_chrome_trace(&text).expect_err(&text);
            assert!(err.contains(why), "{text}: {err}");
        }
    }

    #[test]
    fn validator_tracks_threads_independently() {
        let nested = array(&[
            event("B", "outer", "1", 1),
            event("B", "inner", "2", 1),
            event("i", "mark", "3", 1),
            event("E", "inner", "4", 1),
            event("E", "outer", "5", 1),
        ]);
        assert_eq!(check_chrome_trace(&nested), Ok((2, 1, 1)));
        // The exporter emits threads back to back, each with its own
        // clock: thread 2 restarting behind thread 1 is well formed.
        let multi = array(&[
            event("B", "a", "10.000", 1),
            event("E", "a", "20.000", 1),
            event("B", "b", "1.000", 2),
            event("E", "b", "2.000", 2),
        ]);
        assert_eq!(check_chrome_trace(&multi), Ok((2, 0, 2)));
        // Interleaved threads are fine too: stacks are per tid.
        let interleaved = array(&[
            event("B", "a", "1", 1),
            event("B", "b", "1", 2),
            event("E", "a", "2", 1),
            event("E", "b", "2", 2),
        ]);
        assert_eq!(check_chrome_trace(&interleaved), Ok((2, 0, 2)));
        // A B on one thread cannot satisfy an E on another.
        let cross = array(&[event("B", "a", "1", 1), event("E", "a", "2", 2)]);
        assert!(check_chrome_trace(&cross).is_err());
        // An unclosed span on any thread fails.
        let open = array(&[
            event("B", "a", "1", 1),
            event("E", "a", "2", 1),
            event("B", "b", "1", 2),
        ]);
        assert!(check_chrome_trace(&open).unwrap_err().contains("tid 2"));
    }

    #[test]
    fn a_stage_span_and_its_total_are_one_reading() {
        // `stage` hands back what the section returned and records one
        // span's worth of time: none in the telemetry-off build.
        let mut rec = Recorder::new();
        assert_eq!(stage(&mut rec, Phase::Analyze, 0, |_| 7), 7);
        let stats = rec.snapshot().stage(Phase::Analyze);
        assert_eq!(stats.count, u64::from(isobar_telemetry::ENABLED));
        assert_eq!(stats.total_nanos, stats.max_nanos);
    }
}
