//! Every key the JSON reports emit, pinned in order: `/debug/stats`
//! (top level and a latency-histogram object), one `slow.jsonl` record
//! with its phases, and a telemetry snapshot's `to_json` (top level,
//! each stage object, the EUPA block). Scripts and dashboards read
//! these names; a change to any of them is a format change, not a
//! refactor.

use isobar::telemetry::json::{self, JsonValue};
use isobar::TelemetrySnapshot;
use isobar_server::{serve, Client, ServeOptions, Status};
use std::io::{Read, Write};
use std::net::TcpStream;

/// The keys of a JSON object, in document order.
fn keys(value: &JsonValue) -> Vec<&str> {
    match value {
        JsonValue::Object(members) => members.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("not an object: {other:?}"),
    }
}

const SERVE_PHASES: [&str; 11] = [
    "accept",
    "header_parse",
    "admission",
    "payload_read",
    "lock_wait",
    "overlay",
    "store_put",
    "wal_fsync",
    "store_get",
    "commit",
    "write_response",
];

const HISTOGRAM: [&str; 7] = [
    "count",
    "sum_nanos",
    "max_nanos",
    "mean_nanos",
    "p50_nanos",
    "p90_nanos",
    "p99_nanos",
];

#[test]
fn report_json_keys_are_pinned_in_order() {
    let dir = std::env::temp_dir().join(format!("isobar-json-keys-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let flight = dir.join("flight");
    let opts = ServeOptions {
        slow_ms: Some(0),
        flight_recorder: Some(flight.clone()),
        debug_endpoint: true,
        ..Default::default()
    };
    let server = serve(&dir, "127.0.0.1:0", Some("127.0.0.1:0"), opts).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let resp = client.put("acme", 1, "v", 8, vec![7u8; 512]).unwrap();
    assert_eq!(resp.status, Status::Ok);
    // Same-connection barrier: the put is folded once this answers.
    let resp = client.ls("acme").unwrap();
    assert_eq!(resp.status, Status::Ok);

    let mut http = TcpStream::connect(server.metrics_addr().unwrap()).unwrap();
    http.write_all(b"GET /debug/stats HTTP/1.0\r\n\r\n")
        .unwrap();
    let mut response = String::new();
    http.read_to_string(&mut response).unwrap();
    let (_, body) = response.split_once("\r\n\r\n").unwrap();
    let stats = json::parse(body).unwrap();
    assert_eq!(
        keys(&stats),
        [
            "overlay_entries",
            "overlay_bytes",
            "reserved_bytes",
            "in_flight_bytes",
            "commit_backlog_bytes",
            "commit_threshold",
            "failed",
            "connections",
            "requests",
            "puts",
            "gets",
            "busy_rejected",
            "protocol_errors",
            "not_found",
            "put_bytes",
            "get_bytes",
            "commits",
            "wal_appends",
            "wal_bytes",
            "wal_replayed",
            "wal_truncations",
            "slow_requests",
            "flight_dumps",
            "generation",
            "total_request_nanos",
            "lock_wait_nanos",
            "phases",
            "ops",
            "tenants",
            "recent_requests",
        ]
    );
    assert_eq!(keys(stats.get("phases").unwrap()), SERVE_PHASES);
    let ops = stats.get("ops").unwrap();
    assert_eq!(keys(ops), ["put", "get", "stat", "ls"]);
    assert_eq!(keys(ops.get("put").unwrap()), HISTOGRAM);
    assert_eq!(
        keys(stats.get("tenants").unwrap().get("acme").unwrap()),
        HISTOGRAM
    );

    drop(client);
    server.shutdown();
    server.join().unwrap();

    let log = std::fs::read_to_string(flight.join("slow.jsonl")).unwrap();
    let record = json::parse(log.lines().next().unwrap()).unwrap();
    assert_eq!(
        keys(&record),
        [
            "op",
            "tenant",
            "status",
            "total_nanos",
            "attributed_nanos",
            "phases"
        ]
    );
    assert_eq!(keys(record.get("phases").unwrap()), SERVE_PHASES);
    let _ = std::fs::remove_dir_all(&dir);

    let snapshot = json::parse(&TelemetrySnapshot::default().to_json()).unwrap();
    assert_eq!(
        keys(&snapshot),
        [
            "schema_version",
            "kernel_tier",
            "counters",
            "stages",
            "histograms",
            "eupa"
        ]
    );
    let stages = snapshot.get("stages").unwrap();
    assert_eq!(
        keys(stages),
        [
            "eupa_select",
            "analyze",
            "partition",
            "solver_compress",
            "solver_decompress",
            "reassemble",
            "container_write",
            "container_read",
        ]
    );
    for stage in keys(stages) {
        assert_eq!(
            keys(stages.get(stage).unwrap()),
            ["count", "total_nanos", "min_nanos", "max_nanos"],
            "{stage}"
        );
    }
    assert_eq!(
        keys(snapshot.get("eupa").unwrap()),
        ["combos", "selected", "trial_count", "trial_nanos"]
    );
}
