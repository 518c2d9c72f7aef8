//! `--trace` through the real binary: a `--parallel` compress and its
//! decompress round-trip with tracing on, and a `--prefer speed --level
//! fast` compress (EUPA stops after the first solver and analyzes the
//! head chunk ahead of the selection), each writing a Chrome trace that
//! `isobar::span::check_chrome_trace` accepts: begin/end events
//! balanced and nested by name per thread, timestamps monotonic per
//! thread, the invariants Perfetto needs to render a timeline at all.

mod common;

use common::{noise, ok, Scratch};

/// The trace at `path` is valid; a build with telemetry recorded spans.
fn check(path: &str) {
    let text = std::fs::read_to_string(path).unwrap();
    let (spans, _, _) =
        isobar::span::check_chrome_trace(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
    if isobar::trace::ENABLED {
        assert!(spans > 0, "{path}: no spans");
    }
}

#[test]
fn traced_round_trips_write_valid_chrome_traces() {
    let dir = Scratch::new("trace");
    let (input, packed, restored) = (dir.path("in.bin"), dir.path("out.isbr"), dir.path("r.bin"));
    let (trace_c, trace_d, trace_s) = (dir.path("c.json"), dir.path("d.json"), dir.path("s.json"));
    let data = noise(6_000_000, 3);
    std::fs::write(&input, &data).unwrap();
    let parallel = ["compress", "--width", "8", "--parallel"];
    ok(&[&parallel[..], &["--trace", &trace_c, &input, &packed]].concat());
    ok(&["decompress", "--trace", &trace_d, &packed, &restored]);
    assert!(
        std::fs::read(&restored).unwrap() == data,
        "round trip lost bytes"
    );
    check(&trace_c);
    check(&trace_d);

    let speed = [
        "compress", "--width", "8", "--prefer", "speed", "--level", "fast",
    ];
    ok(&[
        &speed[..],
        &["--trace", &trace_s, &input, &dir.path("s.isbr")],
    ]
    .concat());
    check(&trace_s);
}
