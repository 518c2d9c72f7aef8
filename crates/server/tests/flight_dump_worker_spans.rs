//! A flight dump taken while the store writer is open holds the spans
//! of the store's shard workers, not only those of the request
//! handlers. Its own process: the trace registry is process-global,
//! and another test's dump would drain the spans this one waits for.

use isobar_server::{serve, Client, ServeOptions, Status};
use std::time::{Duration, Instant};

#[test]
fn a_dump_before_any_commit_holds_the_puts_compression_span() {
    if !isobar::trace::ENABLED {
        return; // the telemetry-off build records no spans
    }
    let dir = std::env::temp_dir().join(format!("isobar-flight-workers-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = ServeOptions {
        flight_recorder: Some(dir.join("flight")),
        commit_threshold: u64::MAX, // only the shutdown commits
        ..Default::default()
    };
    let server = serve(&dir, "127.0.0.1:0", None, opts).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let data: Vec<u8> = (0..64 * 1024u32).map(|i| (i % 251) as u8).collect();
    let resp = client.put("acme", 0, "v", 8, data).unwrap();
    assert_eq!(resp.status, Status::Ok);

    // The shard's codec thread compresses the put and then idles until
    // the commit at shutdown; its span must reach a dump before that.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let dump = server.handle().dump_flight("probe").expect("dump written");
        let json = std::fs::read_to_string(&dump).unwrap();
        isobar::span::check_chrome_trace(&json).unwrap();
        if json.contains("\"name\": \"store_shard_compress\"") {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "no store_shard_compress span in a dump before the commit"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    drop(client);
    server.shutdown();
    let report = server.join().unwrap();
    assert_eq!(report.commits, 1, "the dump came before any commit");
    let _ = std::fs::remove_dir_all(&dir);
}
