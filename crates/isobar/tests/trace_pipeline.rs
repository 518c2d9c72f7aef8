//! Integration tests for span tracing through the batch pipeline.
//!
//! Trace state is process-global (one active flag, one drain
//! registry), so every test here serializes on [`TRACE_LOCK`] and
//! drains completely before releasing it. Assertions are gated on
//! [`isobar::trace::ENABLED`] so the suite stays green in the
//! trace-off build; the machine running CI may have a single core, so
//! nothing here asserts a minimum number of worker threads.

use isobar::trace::{self, TraceTag};
use isobar::{CodecId, IsobarCompressor, IsobarOptions, Linearization, Preference};
use std::sync::Mutex;

static TRACE_LOCK: Mutex<()> = Mutex::new(());

const CHUNK_ELEMENTS: usize = 4096;
const CHUNKS: usize = 4;

/// Improvable 8-byte elements: predictable top half, noisy bottom half
/// (the shape from Fig. 1 of the paper), so the analyzer partitions
/// every chunk and the Partition stage appears in the trace.
fn mixed_data() -> Vec<u8> {
    (0..(CHUNKS * CHUNK_ELEMENTS) as u64)
        .flat_map(|i| ((i / 7) << 32 | (i.wrapping_mul(0x9E37_79B9) & 0xFFFF_FFFF)).to_le_bytes())
        .collect()
}

fn compressor() -> IsobarCompressor {
    IsobarCompressor::new(IsobarOptions {
        chunk_elements: CHUNK_ELEMENTS,
        parallel: true,
        codec_override: Some(CodecId::Deflate),
        linearization_override: Some(Linearization::Row),
        ..Default::default()
    })
}

/// Count of non-instant spans with this tag and chunk, across threads.
fn span_count(t: &trace::Trace, tag: TraceTag, chunk: u32) -> usize {
    t.threads
        .iter()
        .flat_map(|th| &th.events)
        .filter(|e| !e.instant && e.tag == tag && e.chunk == chunk)
        .count()
}

#[test]
fn parallel_compress_spans_are_complete_and_ordered() {
    let _guard = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let data = mixed_data();
    let isobar = compressor();

    trace::reset();
    trace::set_active(true);
    let packed = isobar.compress(&data, 8).expect("aligned input");
    trace::set_active(false);
    let t = trace::drain();

    assert_eq!(isobar.decompress(&packed).expect("own container"), data);
    if !trace::ENABLED {
        assert_eq!(t.event_count(), 0);
        return;
    }
    assert_eq!(t.dropped_count(), 0, "ring overflowed in a small run");

    for thread in &t.threads {
        // Events land in the ring at completion time, so each
        // thread's sequence is monotonic in end time; each span's
        // clock must also run forward.
        let mut last_end = 0;
        for e in &thread.events {
            assert!(
                e.begin_nanos <= e.end_nanos,
                "span {:?} ends before it begins",
                e.tag
            );
            assert!(
                e.end_nanos >= last_end,
                "tid {} events out of completion order",
                thread.tid
            );
            last_end = e.end_nanos;
        }
        // A thread runs one stage at a time: any two of its spans are
        // either disjoint or fully nested, never partially overlapping.
        let spans: Vec<_> = thread.events.iter().filter(|e| !e.instant).collect();
        for (i, a) in spans.iter().enumerate() {
            for b in &spans[i + 1..] {
                let disjoint = a.end_nanos <= b.begin_nanos || b.end_nanos <= a.begin_nanos;
                let nested = (a.begin_nanos >= b.begin_nanos && a.end_nanos <= b.end_nanos)
                    || (b.begin_nanos >= a.begin_nanos && b.end_nanos <= a.end_nanos);
                assert!(
                    disjoint || nested,
                    "tid {}: {:?} and {:?} partially overlap",
                    thread.tid,
                    a,
                    b
                );
            }
        }
    }

    // Every chunk flows through Analyze → Partition → Solver → Merge
    // exactly once, no matter which worker picked it up.
    for chunk in 0..CHUNKS as u32 {
        for tag in [
            TraceTag::ChunkCompress,
            TraceTag::Analyze,
            TraceTag::Partition,
            TraceTag::SolverCompress,
            TraceTag::ChunkMerge,
        ] {
            assert_eq!(
                span_count(&t, tag, chunk),
                1,
                "{tag:?} count for chunk {chunk}"
            );
        }
    }
    assert_eq!(span_count(&t, TraceTag::ContainerWrite, trace::NO_CHUNK), 1);

    // The Chrome export must carry every span as a begin/end pair.
    let json = t.to_chrome_json();
    assert!(json.trim_start().starts_with('['));
    assert!(json.trim_end().ends_with(']'));
    let begins = json.matches("\"ph\": \"B\"").count();
    let ends = json.matches("\"ph\": \"E\"").count();
    let span_total = t
        .threads
        .iter()
        .flat_map(|th| &th.events)
        .filter(|e| !e.instant)
        .count();
    assert_eq!(begins, span_total);
    assert_eq!(ends, span_total);
}

#[test]
fn parallel_decode_spans_cover_every_chunk_once() {
    let _guard = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let data = mixed_data();
    let isobar = compressor();
    let packed = isobar.compress(&data, 8).expect("aligned input");

    trace::reset();
    trace::set_active(true);
    assert_eq!(isobar.decompress(&packed).expect("own container"), data);
    trace::set_active(false);
    let t = trace::drain();

    if !trace::ENABLED {
        assert_eq!(t.event_count(), 0);
        return;
    }
    assert_eq!(span_count(&t, TraceTag::ContainerRead, trace::NO_CHUNK), 1);
    for chunk in 0..CHUNKS as u32 {
        for tag in [
            TraceTag::ChunkDecode,
            TraceTag::SolverDecompress,
            TraceTag::Reassemble,
        ] {
            assert_eq!(
                span_count(&t, tag, chunk),
                1,
                "{tag:?} count for chunk {chunk}"
            );
        }
    }
}

#[test]
fn eupa_traces_the_trials_that_ran_and_analyzes_the_head_chunk_once() {
    let _guard = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let data = mixed_data();
    // (preference, combo indices of the trials: codec × 2 + layout)
    for (preference, trials) in [
        (Preference::Speed, vec![0, 1]),
        (Preference::Ratio, vec![0, 1, 2, 3]),
    ] {
        let isobar = IsobarCompressor::new(IsobarOptions {
            preference,
            chunk_elements: CHUNK_ELEMENTS,
            ..Default::default()
        });
        trace::reset();
        trace::set_active(true);
        isobar.compress(&data, 8).expect("aligned input");
        trace::set_active(false);
        let t = trace::drain();
        if !trace::ENABLED {
            assert_eq!(t.event_count(), 0);
            return;
        }
        let instants = |tag| -> Vec<u32> {
            let events = t.threads.iter().flat_map(|th| &th.events);
            events
                .filter(|e| e.instant && e.tag == tag)
                .map(|e| e.chunk)
                .collect()
        };
        // A solver that was not visited leaves no trial behind.
        assert_eq!(instants(TraceTag::EupaTrial), trials, "{preference:?}");
        let selected = instants(TraceTag::EupaSelected);
        assert!(
            selected.len() == 1 && trials.contains(&selected[0]),
            "{preference:?}: {selected:?}"
        );
        assert_eq!(span_count(&t, TraceTag::EupaSelect, trace::NO_CHUNK), 1);
        // EUPA samples under the head chunk's classification, which is
        // chunk 0's own: one analysis, like every other chunk.
        for chunk in 0..CHUNKS as u32 {
            assert_eq!(span_count(&t, TraceTag::Analyze, chunk), 1, "chunk {chunk}");
        }
    }
}

#[test]
fn inactive_tracing_records_nothing() {
    let _guard = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    trace::reset();
    // No set_active(true): the whole run must leave the rings empty.
    let data = mixed_data();
    let isobar = compressor();
    let packed = isobar.compress(&data, 8).expect("aligned input");
    assert_eq!(isobar.decompress(&packed).expect("own container"), data);
    assert_eq!(trace::drain().event_count(), 0);
}
