#![warn(missing_docs)]

//! ISOBAR-as-a-service: a TCP daemon exposing the sharded checkpoint
//! store over a length-prefixed binary protocol.
//!
//! The paper's deployment target is ISOBAR as a transform stage inside
//! I/O middleware serving many concurrent producers. This crate is the
//! Rust equivalent: [`serve`] starts a daemon that accepts
//! `put`/`get`/`stat`/`ls` requests over TCP, compresses puts through
//! the ISOBAR pipeline into a [`isobar_store::ShardedStoreWriter`],
//! serves gets from an uncommitted overlay or the committed
//! [`isobar_store::StoreReader`], isolates tenants by key prefixing,
//! applies byte-denominated admission control (explicit
//! [`protocol::Status::Busy`] instead of unbounded queueing), and
//! commits the store through the two-phase manifest protocol both on
//! a pending-byte threshold and on graceful shutdown.
//!
//! Protocol layout and semantics are documented in [`protocol`] and
//! `docs/SERVE.md`; observability (Prometheus `/metrics`, trace
//! spans) in `docs/OBSERVABILITY.md`.

pub mod chaos;
pub mod client;
pub mod core;
pub mod daemon;
pub mod obs;
pub mod protocol;
pub mod retry;
pub mod signals;
pub mod wal;

pub use chaos::{ChaosConfig, ChaosStream};
pub use client::Client;
pub use core::{CoreOptions, StoreCore};
pub use daemon::{serve, ServeError, ServeOptions, ServeReport, Server, ServerHandle};
pub use obs::{RequestRecord, ServePhase};
pub use protocol::{
    FrameError, Opcode, ProtoError, Request, RequestHeader, Response, Status, MAX_NAME_LEN,
    MAX_TENANT_LEN, PROTOCOL_VERSION,
};
pub use retry::{RetryClient, RetryPolicy};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{encode_request, REQUEST_HEADER_LEN};
    use std::io::{Read, Write};
    use std::net::TcpStream;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut dir = std::env::temp_dir();
        dir.push(format!("isobar-serve-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn small_options() -> ServeOptions {
        ServeOptions {
            shards: 2,
            queue_depth: 2,
            max_payload: 1 << 20,
            max_inflight_bytes: 4 << 20,
            commit_threshold: 2 << 20,
            ..Default::default()
        }
    }

    /// One tenant per client thread in the multi-client tests.
    const TENANTS: [&str; 4] = ["acme", "globex", "initech", "umbrella"];

    fn payload(len: usize, seed: u8) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed))
            .collect()
    }

    #[test]
    fn put_get_stat_ls_round_trip_with_tenancy() {
        let dir = tmp("roundtrip");
        let server = serve(&dir, "127.0.0.1:0", None, small_options()).unwrap();
        let addr = server.local_addr();

        let mut acme = Client::connect(addr).unwrap();
        let mut umbrella = Client::connect(addr).unwrap();

        let density = payload(4096, 1);
        let resp = acme.put("acme", 3, "density", 8, density.clone()).unwrap();
        assert_eq!(resp.status, Status::Ok, "{resp:?}");

        // Uncommitted data reads back (read-your-writes overlay).
        let resp = acme.get("acme", 3, "density").unwrap();
        assert_eq!(resp.status, Status::Ok);
        assert_eq!(resp.payload, density);

        // Tenants are isolated: same name, other tenant → NotFound.
        let resp = umbrella.get("umbrella", 3, "density").unwrap();
        assert_eq!(resp.status, Status::NotFound);

        // stat and ls see the pending entry.
        let resp = acme.stat("acme", 3, "density").unwrap();
        assert_eq!(resp.status, Status::Ok);
        let text = String::from_utf8(resp.payload).unwrap();
        assert!(text.contains("raw_len=4096"), "{text}");
        assert!(text.contains("committed=false"), "{text}");

        let resp = acme.ls("acme").unwrap();
        assert_eq!(resp.status, Status::Ok);
        let text = String::from_utf8(resp.payload).unwrap();
        assert_eq!(text, "3\tdensity\t4096\n");
        let resp = umbrella.ls("umbrella").unwrap();
        assert!(resp.payload.is_empty(), "other tenant's ls is empty");

        // Unknown variable → NotFound with a diagnostic.
        let resp = acme.get("acme", 99, "nope").unwrap();
        assert_eq!(resp.status, Status::NotFound);

        drop(acme);
        drop(umbrella);
        server.shutdown();
        let report = server.join().unwrap();
        assert_eq!(report.puts, 1);
        assert_eq!(report.protocol_errors, 0);
        assert!(report.commits >= 1, "shutdown commits the store");

        // The committed store is a valid v3 store holding the data
        // under the prefixed key.
        let reader = isobar_store::StoreReader::open(&dir).unwrap();
        let key = daemon::store_key("acme", "density");
        assert_eq!(reader.get(3, &key).unwrap(), density);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn committed_data_survives_restart_and_threshold_commit_rolls() {
        let dir = tmp("restart");
        let opts = ServeOptions {
            commit_threshold: 8 * 1024, // commit after ~one put
            ..small_options()
        };
        {
            let server = serve(&dir, "127.0.0.1:0", None, opts.clone()).unwrap();
            let mut client = Client::connect(server.local_addr()).unwrap();
            let resp = client.put("", 0, "phi", 8, payload(16 * 1024, 2)).unwrap();
            assert_eq!(resp.status, Status::Ok);
            // The threshold commit already ran; a get now comes from
            // the committed reader, not the overlay.
            let resp = client.get("", 0, "phi").unwrap();
            assert_eq!(resp.status, Status::Ok);
            assert_eq!(resp.payload, payload(16 * 1024, 2));
            drop(client);
            server.shutdown();
            let report = server.join().unwrap();
            assert!(report.commits >= 1);
        }
        // A fresh daemon over the same directory serves the old data.
        let server = serve(&dir, "127.0.0.1:0", None, opts).unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        let resp = client.get("", 0, "phi").unwrap();
        assert_eq!(resp.status, Status::Ok);
        assert_eq!(resp.payload, payload(16 * 1024, 2));
        drop(client);
        server.shutdown();
        server.join().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn admission_control_answers_busy_not_queue_growth() {
        let dir = tmp("busy");
        let opts = ServeOptions {
            max_inflight_bytes: 8 * 1024,
            commit_threshold: u64::MAX, // never roll: pending bytes only grow
            ..small_options()
        };
        let server = serve(&dir, "127.0.0.1:0", None, opts).unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();

        let resp = client.put("", 0, "a", 8, payload(8 * 1024, 3)).unwrap();
        assert_eq!(resp.status, Status::Ok);
        // The budget is now full: the next put is refused outright.
        let resp = client.put("", 0, "b", 8, payload(8 * 1024, 4)).unwrap();
        assert_eq!(resp.status, Status::Busy);
        // The connection survives a Busy (stream stays frame-aligned)
        // and non-put work still proceeds.
        let resp = client.get("", 0, "a").unwrap();
        assert_eq!(resp.status, Status::Ok);

        drop(client);
        server.shutdown();
        let report = server.join().unwrap();
        assert_eq!(report.busy_rejected, 1);
        assert_eq!(report.puts, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn malformed_frames_get_bad_request_and_daemon_survives() {
        let dir = tmp("malformed");
        let server = serve(&dir, "127.0.0.1:0", None, small_options()).unwrap();
        let addr = server.local_addr();

        // Garbage magic: typed BadRequest, then the daemon closes the
        // connection (alignment is unrecoverable).
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(b"GARBAGE-GARBAGE-GARBAGE").unwrap();
        let resp = protocol::read_response(&mut stream, 1 << 20).unwrap();
        assert_eq!(resp.status, Status::BadRequest);

        // A fresh connection still works afterwards.
        let mut client = Client::connect(addr).unwrap();
        let resp = client.put("", 0, "x", 8, payload(64, 5)).unwrap();
        assert_eq!(resp.status, Status::Ok);

        // A request with a reserved separator in the tenant is a
        // BadRequest but keeps the connection (fields were consumed).
        let mut evil = Request {
            opcode: Opcode::Get,
            tenant: String::new(),
            name: "x".into(),
            step: 0,
            width: 0,
            payload: Vec::new(),
        };
        evil.tenant = "a\u{1f}b".into();
        let frame = encode_request(&evil);
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(&frame).unwrap();
        let resp = protocol::read_response(&mut stream, 1 << 20).unwrap();
        assert_eq!(resp.status, Status::BadRequest);
        // Same connection, valid follow-up:
        let good = encode_request(&Request {
            opcode: Opcode::Get,
            tenant: String::new(),
            name: "x".into(),
            step: 0,
            width: 0,
            payload: Vec::new(),
        });
        stream.write_all(&good).unwrap();
        let resp = protocol::read_response(&mut stream, 1 << 20).unwrap();
        assert_eq!(resp.status, Status::Ok);

        drop(client);
        drop(stream);
        server.shutdown();
        let report = server.join().unwrap();
        assert_eq!(report.protocol_errors, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn oversized_payload_is_rejected_from_the_header_alone() {
        let dir = tmp("oversized");
        let server = serve(&dir, "127.0.0.1:0", None, small_options()).unwrap();
        // Claim a payload far over max_payload but never send it: the
        // daemon must reject from the header without allocating or
        // waiting for the bytes.
        let mut header = [0u8; REQUEST_HEADER_LEN];
        header[..4].copy_from_slice(b"ISRQ");
        header[4] = PROTOCOL_VERSION;
        header[5] = Opcode::Put as u8;
        header[8..10].copy_from_slice(&1u16.to_le_bytes()); // name_len
        header[14] = 8; // width
        header[15..19].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream.write_all(&header).unwrap();
        let resp = protocol::read_response(&mut stream, 1 << 20).unwrap();
        assert_eq!(resp.status, Status::BadRequest);
        let text = String::from_utf8(resp.payload).unwrap();
        assert!(text.contains("exceeds"), "{text}");
        drop(stream);
        server.shutdown();
        server.join().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn metrics_endpoint_serves_prometheus_exposition() {
        let dir = tmp("metrics");
        let server = serve(&dir, "127.0.0.1:0", Some("127.0.0.1:0"), small_options()).unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        let resp = client.put("", 1, "v", 8, payload(256, 6)).unwrap();
        assert_eq!(resp.status, Status::Ok);
        let resp = client.get("", 1, "v").unwrap();
        assert_eq!(resp.status, Status::Ok);
        // Recorder merges land after each response is written; a
        // third request on the same connection is a barrier that
        // guarantees the put's and get's counters are merged.
        let resp = client.ls("").unwrap();
        assert_eq!(resp.status, Status::Ok);

        let metrics_addr = server.metrics_addr().unwrap();
        let mut http = TcpStream::connect(metrics_addr).unwrap();
        http.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").unwrap();
        let mut body = String::new();
        http.read_to_string(&mut body).unwrap();
        assert!(body.starts_with("HTTP/1.0 200 OK"), "{body}");
        // The Prometheus text exposition Content-Type, version pinned.
        assert!(
            body.contains("Content-Type: text/plain; version=0.0.4\r\n"),
            "{body}"
        );
        assert!(body.contains("isobar_serve_requests_total"), "{body}");
        // The always-on latency histograms are in the exposition.
        assert!(
            body.contains("isobar_serve_request_duration_seconds_bucket{op=\"put\",le=\"+Inf\"}"),
            "{body}"
        );
        assert!(
            body.contains("isobar_serve_phase_seconds_total{phase=\"lock_wait\"}"),
            "{body}"
        );
        if isobar::telemetry::ENABLED {
            assert!(body.contains("isobar_serve_put_bytes_total 256"), "{body}");
            assert!(body.contains("isobar_serve_get_bytes_total 256"), "{body}");
        }

        // Unknown paths get a 404, not a panic or a hang.
        let mut http = TcpStream::connect(metrics_addr).unwrap();
        http.write_all(b"GET /nope HTTP/1.0\r\n\r\n").unwrap();
        let mut body = String::new();
        http.read_to_string(&mut body).unwrap();
        assert!(body.starts_with("HTTP/1.0 404"), "{body}");

        drop(client);
        server.shutdown();
        server.join().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn flight_recorder_logs_slow_requests_and_debug_stats_serves_json() {
        let dir = tmp("flight");
        let flight_dir = dir.join("flight");
        let opts = ServeOptions {
            slow_ms: Some(0), // every request is "slow": full coverage
            flight_recorder: Some(flight_dir.clone()),
            debug_endpoint: true,
            ..small_options()
        };
        let server = serve(&dir, "127.0.0.1:0", Some("127.0.0.1:0"), opts).unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        let resp = client.put("acme", 1, "v", 8, payload(1024, 9)).unwrap();
        assert_eq!(resp.status, Status::Ok);
        let resp = client.get("acme", 1, "v").unwrap();
        assert_eq!(resp.status, Status::Ok);
        // Same-connection barrier: the put and get are fully recorded
        // once the ls response arrives.
        let resp = client.ls("acme").unwrap();
        assert_eq!(resp.status, Status::Ok);

        let metrics_addr = server.metrics_addr().unwrap();
        let mut http = TcpStream::connect(metrics_addr).unwrap();
        http.write_all(b"GET /debug/stats HTTP/1.0\r\n\r\n")
            .unwrap();
        let mut body = String::new();
        http.read_to_string(&mut body).unwrap();
        assert!(body.starts_with("HTTP/1.0 200 OK"), "{body}");
        assert!(body.contains("Content-Type: application/json"), "{body}");
        for key in [
            "\"connections\"",
            "\"in_flight_bytes\"",
            "\"overlay_bytes\"",
            "\"commit_threshold\"",
            "\"lock_wait_nanos\"",
            "\"phases\"",
            "\"ops\"",
            "\"tenants\"",
            "\"recent_requests\"",
        ] {
            assert!(body.contains(key), "missing {key}: {body}");
        }
        assert!(
            body.contains("\"acme\""),
            "tenant histogram present: {body}"
        );

        drop(client);
        // The SIGUSR1 path: dump through the handle, then check the
        // file is a valid Chrome trace.
        let dump = server.handle().dump_flight("test").expect("dump written");
        let json = std::fs::read_to_string(&dump).unwrap();
        isobar::trace::validate_chrome_phases(&json).unwrap();

        server.shutdown();
        let report = server.join().unwrap();
        assert_eq!(report.slow_requests, 3, "{report:?}");
        assert!(report.flight_dumps >= 1, "{report:?}");
        assert!(report.total_request_nanos > 0);
        // Every slow request wrote one JSONL line with its phase
        // breakdown attributing most of the wall time.
        let log = std::fs::read_to_string(flight_dir.join("slow.jsonl")).unwrap();
        let lines: Vec<&str> = log.lines().collect();
        assert_eq!(lines.len(), 3, "{log}");
        for line in &lines {
            for key in ["\"total_nanos\"", "\"attributed_nanos\"", "\"lock_wait\""] {
                assert!(line.contains(key), "missing {key}: {line}");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trace_ring_wraparound_keeps_chrome_dump_valid() {
        let dir = tmp("wraparound");
        let flight_dir = dir.join("flight");
        let opts = ServeOptions {
            commit_threshold: 16 * 1024, // several generation rolls
            flight_recorder: Some(flight_dir),
            ..small_options()
        };
        let server = serve(&dir, "127.0.0.1:0", None, opts).unwrap();
        // Tiny rings created after this point: sustained load wraps
        // them many times over, overwriting oldest events.
        isobar::trace::set_thread_capacity(8);
        let mut client = Client::connect(server.local_addr()).unwrap();
        for i in 0..200u32 {
            let resp = client.put("", i, "w", 8, payload(512, i as u8)).unwrap();
            assert_eq!(resp.status, Status::Ok);
            let resp = client.get("", i, "w").unwrap();
            assert_eq!(resp.status, Status::Ok);
        }
        isobar::trace::set_thread_capacity(isobar::trace::DEFAULT_THREAD_CAPACITY);
        drop(client);
        // A dump after heavy wraparound must still be a well-formed
        // Chrome trace: every B has its E, timestamps monotonic per
        // thread (rings hold only complete spans, so overwrite-oldest
        // cannot strand a begin).
        let dump = server.handle().dump_flight("wrap").expect("dump written");
        let json = std::fs::read_to_string(&dump).unwrap();
        isobar::trace::validate_chrome_phases(&json).unwrap();
        server.shutdown();
        server.join().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shutdown_drains_and_commits_cleanly() {
        let dir = tmp("drain");
        let server = serve(&dir, "127.0.0.1:0", None, small_options()).unwrap();
        let addr = server.local_addr();
        // Four clients, all connected before any of them sends, each
        // putting and reading back under its own tenant.
        let connected = std::sync::Barrier::new(TENANTS.len());
        std::thread::scope(|scope| {
            for (i, tenant) in TENANTS.into_iter().enumerate() {
                let connected = &connected;
                scope.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    connected.wait();
                    for step in 0..2u32 {
                        let data = payload(2048, (4 * step) as u8 + i as u8);
                        let resp = client.put(tenant, step, "v", 8, data.clone()).unwrap();
                        assert_eq!(resp.status, Status::Ok, "{resp:?}");
                        let resp = client.get(tenant, step, "v").unwrap();
                        assert_eq!(resp.status, Status::Ok);
                        assert_eq!(resp.payload, data, "{tenant} step {step}");
                    }
                });
            }
        });
        // Shut down via the cloneable handle (the signal-watcher path).
        let handle = server.handle();
        handle.shutdown();
        let report = server.join().unwrap();
        assert_eq!(report.puts, 8);
        assert_eq!(report.gets, 8);
        assert_eq!(report.protocol_errors, 0);
        assert!(report.commits >= 1);
        // The on-disk store is clean: a reader opens it and the data
        // round-trips.
        let reader = isobar_store::StoreReader::open(&dir).unwrap();
        for (i, tenant) in TENANTS.into_iter().enumerate() {
            assert_eq!(
                reader.get(1, &daemon::store_key(tenant, "v")).unwrap(),
                payload(2048, 4 + i as u8)
            );
        }
        // After shutdown a new connection is refused or immediately
        // answered with ShuttingDown — either way, no new work.
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn wal_files_in(dir: &std::path::Path) -> Vec<std::path::PathBuf> {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return Vec::new();
        };
        entries
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(wal::is_wal_file_name)
            })
            .collect()
    }

    #[test]
    fn acked_puts_survive_an_ungraceful_stop_via_wal_replay() {
        let dir = tmp("wal-replay");
        let data_a = payload(4096, 11);
        let data_b = payload(2048, 12);
        {
            let server = serve(&dir, "127.0.0.1:0", None, small_options()).unwrap();
            let mut client = Client::connect(server.local_addr()).unwrap();
            let resp = client.put("acme", 5, "alpha", 8, data_a.clone()).unwrap();
            assert_eq!(resp.status, Status::Ok);
            let resp = client.put("", 6, "beta", 8, data_b.clone()).unwrap();
            assert_eq!(resp.status, Status::Ok);
            // Acked puts are journaled on disk before their Ok.
            assert!(!wal_files_in(&dir).is_empty(), "journal exists pre-crash");
            drop(client);
            // Drop without join(): the daemon dies without its final
            // commit, like a crash. The un-closed writer aborts its
            // segments; only the journal survives.
            drop(server);
        }
        assert!(!wal_files_in(&dir).is_empty(), "journal survives the crash");

        let server = serve(&dir, "127.0.0.1:0", None, small_options()).unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        // Replayed data serves before any new put or commit.
        let resp = client.get("acme", 5, "alpha").unwrap();
        assert_eq!(resp.status, Status::Ok);
        assert_eq!(resp.payload, data_a);
        let resp = client.get("", 6, "beta").unwrap();
        assert_eq!(resp.status, Status::Ok);
        assert_eq!(resp.payload, data_b);
        drop(client);
        server.shutdown();
        let report = server.join().unwrap();
        assert_eq!(report.wal_replayed, 2, "{report:?}");
        assert!(report.commits >= 1, "replayed puts get a generation");
        // After the commit the journal is truncated and the data is in
        // the committed store under the prefixed keys.
        assert!(wal_files_in(&dir).is_empty(), "journal retired");
        let reader = isobar_store::StoreReader::open(&dir).unwrap();
        assert_eq!(
            reader.get(5, &daemon::store_key("acme", "alpha")).unwrap(),
            data_a
        );
        assert_eq!(reader.get(6, "beta").unwrap(), data_b);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wal_disabled_restores_the_old_contract() {
        let dir = tmp("wal-off");
        let opts = ServeOptions {
            wal: false,
            ..small_options()
        };
        {
            let server = serve(&dir, "127.0.0.1:0", None, opts.clone()).unwrap();
            let mut client = Client::connect(server.local_addr()).unwrap();
            let resp = client.put("", 0, "v", 8, payload(1024, 13)).unwrap();
            assert_eq!(resp.status, Status::Ok);
            assert!(wal_files_in(&dir).is_empty(), "no journal when disabled");
            drop(client);
            drop(server); // crash: no final commit
        }
        let server = serve(&dir, "127.0.0.1:0", None, opts).unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        let resp = client.get("", 0, "v").unwrap();
        assert_eq!(resp.status, Status::NotFound, "acked put lost, as before");
        drop(client);
        server.shutdown();
        let report = server.join().unwrap();
        assert_eq!(report.wal_replayed, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn graceful_drain_acks_a_slow_inflight_put_and_commits_cleanly() {
        let dir = tmp("slow-drain");
        let server = serve(&dir, "127.0.0.1:0", None, small_options()).unwrap();
        let data = payload(64 * 1024, 14);
        let frame = encode_request(&Request {
            opcode: Opcode::Put,
            tenant: String::new(),
            name: "slow".into(),
            step: 9,
            width: 8,
            payload: data.clone(),
        });
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        // Send everything but the payload's second half, then let the
        // daemon observe the shutdown while the put is mid-read.
        let split = frame.len() - 32 * 1024;
        stream.write_all(&frame[..split]).unwrap();
        stream.flush().unwrap();
        std::thread::sleep(std::time::Duration::from_millis(200));
        server.shutdown();
        std::thread::sleep(std::time::Duration::from_millis(200));
        stream.write_all(&frame[split..]).unwrap();
        stream.flush().unwrap();
        // The in-flight request is answered deterministically: the
        // daemon finishes reading and acks (it passed admission before
        // the drain began).
        let resp = protocol::read_response(&mut stream, 1 << 20).unwrap();
        assert_eq!(resp.status, Status::Ok, "{resp:?}");
        drop(stream);
        let report = server.join().unwrap();
        assert_eq!(report.puts, 1);
        assert!(report.commits >= 1);
        // The final commit retired the journal — no torn WAL left
        // behind — and the store holds the exact bytes.
        assert!(wal_files_in(&dir).is_empty(), "no journal after drain");
        let reader = isobar_store::StoreReader::open(&dir).unwrap();
        assert_eq!(reader.get(9, "slow").unwrap(), data);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn retry_client_rides_through_chaos_with_bit_exact_data() {
        let dir = tmp("chaos-retry");
        let server = serve(&dir, "127.0.0.1:0", None, small_options()).unwrap();
        let addr = server.local_addr();
        // Four retrying clients at once, one tenant each, every
        // connection behind the same fault mix.
        std::thread::scope(|scope| {
            for (i, tenant) in TENANTS.into_iter().enumerate() {
                scope.spawn(move || {
                    let mut resets = 0u64;
                    let mut client = retry::RetryClient::new(
                        retry::RetryPolicy::default(),
                        0xC0FFEE + i as u64,
                        move || {
                            let stream = TcpStream::connect(addr)?;
                            stream.set_nodelay(true)?;
                            stream.set_read_timeout(Some(std::time::Duration::from_secs(5)))?;
                            stream.set_write_timeout(Some(std::time::Duration::from_secs(5)))?;
                            resets += 1;
                            Ok(Client::from_stream(ChaosStream::new(
                                stream,
                                ChaosConfig {
                                    // Aggressive: every op rolls fragmentation,
                                    // 2% resets mid-frame.
                                    short_read_per_mille: 300,
                                    short_write_per_mille: 300,
                                    reset_per_mille: 20,
                                    ..ChaosConfig::quiet(resets)
                                },
                            )))
                        },
                    );
                    for step in 0..16u32 {
                        let data = payload(2048, step as u8 + 16 * i as u8);
                        let resp = client.put(tenant, step, "var", 8, &data).unwrap();
                        assert_eq!(resp.status, Status::Ok);
                        let resp = client.get(tenant, step, "var").unwrap();
                        assert_eq!(resp.status, Status::Ok);
                        assert_eq!(resp.payload, data, "{tenant}: bit-exact at step {step}");
                    }
                    assert!(client.stats.attempts >= 32);
                });
            }
        });
        server.shutdown();
        let report = server.join().unwrap();
        // Every logical op succeeded exactly once from the client's
        // view; the daemon may have seen more puts from ambiguous
        // retries (idempotent re-puts), never fewer.
        assert!(report.puts >= 64, "{report:?}");
        assert!(report.gets >= 64, "{report:?}");
        let reader = isobar_store::StoreReader::open(&dir).unwrap();
        for (i, tenant) in TENANTS.into_iter().enumerate() {
            for step in 0..16u32 {
                assert_eq!(
                    reader.get(step, &daemon::store_key(tenant, "var")).unwrap(),
                    payload(2048, step as u8 + 16 * i as u8)
                );
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn slowloris_cannot_pin_a_worker_past_the_frame_deadline() {
        let dir = tmp("slowloris");
        let opts = ServeOptions {
            frame_deadline: std::time::Duration::from_millis(300),
            ..small_options()
        };
        let server = serve(&dir, "127.0.0.1:0", None, opts).unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        // Start a frame, then trickle nothing: the daemon must cut the
        // connection at the deadline instead of waiting forever.
        stream.write_all(b"IS").unwrap();
        stream.flush().unwrap();
        let started = std::time::Instant::now();
        let mut buf = [0u8; 64];
        // EOF (or reset) must arrive promptly after the deadline.
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(10)))
            .unwrap();
        let n = stream.read(&mut buf).unwrap_or(0);
        assert_eq!(n, 0, "connection closed, not answered");
        assert!(
            started.elapsed() < std::time::Duration::from_secs(5),
            "cut at the deadline, not the 30s legacy timeout"
        );
        drop(stream);
        // The daemon is still healthy for well-behaved clients.
        let mut client = Client::connect(server.local_addr()).unwrap();
        let resp = client.put("", 0, "ok", 8, payload(64, 15)).unwrap();
        assert_eq!(resp.status, Status::Ok);
        drop(client);
        server.shutdown();
        server.join().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn signal_flag_round_trip() {
        signals::reset_for_tests();
        assert!(!signals::shutdown_requested());
        signals::install_shutdown_signals();
        signals::install_usr1_signal();
        assert!(!signals::shutdown_requested());
        assert!(!signals::take_usr1());
        signals::reset_for_tests();
    }
}
