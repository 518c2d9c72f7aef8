//! `serve_ingest` and `serve_restore`: an in-process `isobar serve`
//! daemon on loopback, loaded by two closed-loop clients (one tenant
//! and one connection each; a client sends its next request only after
//! the previous reply). Payloads are 256 KiB cuts of the six-variable
//! mix; every get is compared with the bytes that were put.

use crate::counting_fs::CountingFs;
use crate::inputs::{hash_inputs, payload_pool, Payload, Verifier};
use crate::replay::{self, Sample};
use crate::run::{measure_setup, sorted, CpuMeter, EndToEnd, Latency, Rate, RunArgs};
use crate::spec::Metrics;
use crate::stats::percentile;
use crate::sys::{cpu_seconds, dir_bytes, Rng, Scratch};
use crate::trace::Tracer;
use isobar::IsobarOptions;
use isobar_codecs::xxhash::xxh64;
use isobar_server::daemon::store_key;
use isobar_server::{
    serve, Client, CoreOptions, ServeOptions, ServePhase, ServeReport, Server, Status, StoreCore,
};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::Instant;

const CLIENTS: usize = 2;
const PAYLOAD_BYTES: usize = 256 << 10;
/// Payloads cut from each mix variable: 72 in the pool.
const PAYLOADS_PER_VAR: usize = 12;
/// With no preload a get reads back one of the client's latest keys: a
/// checkpoint writer checking what it just stored. Those keys sit in
/// the daemon's overlay until the next commit, so the get's latency is
/// that of the store lock under write load, and not a blend of overlay
/// copies and committed reads that shifts as the run ages.
const RECENT: usize = 8;
/// Ops per client in the traced slice and in the core replay.
const SLICE_OPS: u64 = 300;

pub struct ServeWorkload {
    /// Keys each client stores before the timed phase; with a preload
    /// the daemon is restarted and gets read only preloaded keys.
    pub preload_keys: usize,
    /// Share of ops that are puts, in percent.
    pub put_pct: u64,
    /// Keys each client reads back and compares after the timed phase;
    /// if any, the restore-side metrics come from this pass.
    pub read_back_keys: usize,
}

pub fn definition(name: &str) -> Option<ServeWorkload> {
    Some(match name {
        // A get in the timed mix waits for the store lock, which the
        // other client's put holds about half the time: its latency has
        // two peaks of near-equal weight and 130 samples a run, and the
        // p50 of ten runs spread 36-47%. So the mix keeps its gets (they
        // are compared and counted) but `restore_mbps` and `get_p50_ms`
        // are measured on a read-back of each client's first 100 keys,
        // committed by then, with no put in flight.
        "serve_ingest" => ServeWorkload {
            preload_keys: 0,
            put_pct: 90,
            read_back_keys: 100,
        },
        // 2 x 120 x 256 KiB = 60 MiB committed before the timed phase;
        // the program has no read cache, the OS page cache holds it all.
        "serve_restore" => ServeWorkload {
            preload_keys: 120,
            put_pct: 10,
            read_back_keys: 0,
        },
        _ => return None,
    })
}

impl ServeWorkload {
    fn scaled(&self, args: &RunArgs) -> ServeWorkload {
        ServeWorkload {
            preload_keys: if self.preload_keys > 0 {
                args.scaled(self.preload_keys)
            } else {
                0
            },
            put_pct: self.put_pct,
            read_back_keys: args.scaled(self.read_back_keys).min(self.read_back_keys),
        }
    }
}

fn serve_options() -> ServeOptions {
    ServeOptions {
        shards: 2,
        ..Default::default()
    }
}

fn tenant(client: usize) -> String {
    format!("tenant{client}")
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Put { key: usize, pool: usize },
    Get { key: usize },
}

/// A shuffled deck dealt to the end and then reshuffled: over every
/// `len` draws each card comes up exactly once, so what a run draws
/// depends on the seed only in its order. With independent draws the
/// put share and the payload mix would differ from seed to seed, and
/// so would every rate.
#[derive(Clone)]
struct Deck {
    cards: Vec<usize>,
    dealt: usize,
}

impl Deck {
    fn new(cards: Vec<usize>) -> Deck {
        Deck {
            dealt: cards.len(),
            cards,
        }
    }

    fn draw(&mut self, rng: &mut Rng) -> usize {
        if self.dealt == self.cards.len() {
            rng.shuffle(&mut self.cards);
            self.dealt = 0;
        }
        self.dealt += 1;
        self.cards[self.dealt - 1]
    }
}

/// One client's op sequence: a pure function of (seed, client), as
/// long as every put is acked.
#[derive(Clone)]
struct Schedule {
    rng: Rng,
    /// Ten ops, `put_pct / 10` of them puts (card 1).
    kinds: Deck,
    /// Every pool index once.
    payloads: Deck,
    /// Keys gets may ask for: the preloaded ones, or with no preload
    /// the client's `RECENT` latest.
    preloaded: usize,
    /// Pool index of every key this client has stored.
    keys: Vec<usize>,
}

impl Schedule {
    fn new(seed: u64, client: usize, def: &ServeWorkload, pool_len: usize) -> Schedule {
        let puts = (def.put_pct / 10) as usize;
        Schedule {
            rng: Rng::new(seed ^ (client as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F)),
            kinds: Deck::new((0..10).map(|i| usize::from(i < puts)).collect()),
            payloads: Deck::new((0..pool_len).collect()),
            preloaded: def.preload_keys,
            keys: Vec::new(),
        }
    }

    fn next(&mut self) -> Op {
        // Nothing is readable until the preload, if any, is complete:
        // until then every op is a put.
        let (first, readable) = match self.preloaded {
            0 => (
                self.keys.len().saturating_sub(RECENT),
                self.keys.len().min(RECENT),
            ),
            n if self.keys.len() < n => (0, 0),
            n => (0, n),
        };
        if readable == 0 || self.kinds.draw(&mut self.rng) == 1 {
            Op::Put {
                key: self.keys.len(),
                pool: self.payloads.draw(&mut self.rng),
            }
        } else {
            Op::Get {
                key: first + self.rng.below(readable as u64) as usize,
            }
        }
    }

    fn acked(&mut self, op: Op) {
        if let Op::Put { pool, .. } = op {
            self.keys.push(pool);
        }
    }

    /// Hash of the first `n` ops, assuming every put is acked.
    fn hash(&self, n: usize) -> u64 {
        let mut s = self.clone();
        let mut bytes = Vec::with_capacity(n * 9);
        for _ in 0..n {
            let op = s.next();
            s.acked(op);
            let (kind, a, b) = match op {
                Op::Put { key, pool } => (0u8, key, pool),
                Op::Get { key } => (1u8, key, 0),
            };
            bytes.push(kind);
            bytes.extend_from_slice(&(a as u32).to_le_bytes());
            bytes.extend_from_slice(&(b as u32).to_le_bytes());
        }
        xxh64(&bytes, 0)
    }
}

fn key_name(key: usize) -> String {
    format!("k{key:06}")
}

fn key_step(key: usize) -> u32 {
    (key % 8) as u32
}

#[derive(Clone, Copy)]
enum Limit {
    /// Scheduled ops until the phase is this old.
    Seconds(f64),
    /// This many scheduled ops.
    Ops(u64),
    /// Gets of the client's first keys, in order.
    ReadBack(u64),
}

/// One completed op: seconds since the phase began, payload bytes,
/// latency in ms.
type Done = (f64, u64, f64);

#[derive(Default)]
struct ClientResult {
    puts: Vec<Done>,
    gets: Vec<Done>,
    attempted: u64,
    failed: u64,
    /// Failed ops the daemon refused with `Busy`.
    busy: u64,
}

enum Failure {
    Busy,
    Other,
}

struct ClientState {
    conn: Client,
    tenant: String,
    schedule: Schedule,
}

impl ClientState {
    /// Run one op against the daemon and verify it. Returns the payload
    /// bytes moved.
    fn run_op(
        &mut self,
        op: Op,
        pool: &[Payload],
        t: &mut Tracer,
        op_id: u64,
        verifier: &Verifier,
    ) -> Result<u64, Failure> {
        let mut put_len = 0;
        let (response, expected) = match op {
            Op::Put { key, pool: p } => {
                let payload = pool[p].bytes.clone();
                put_len = payload.len() as u64;
                let response = t.span("client.put", op_id, || {
                    self.conn.put(
                        &self.tenant,
                        key_step(key),
                        &key_name(key),
                        pool[p].width,
                        payload,
                    )
                });
                (response, None)
            }
            Op::Get { key } => {
                let response = t.span("client.get", op_id, || {
                    self.conn.get(&self.tenant, key_step(key), &key_name(key))
                });
                (response, Some(&pool[self.schedule.keys[key]].bytes))
            }
        };
        match (response, expected) {
            (Ok(r), None) if r.status == Status::Ok => {
                self.schedule.acked(op);
                Ok(put_len)
            }
            (Ok(r), Some(expect))
                if r.status == Status::Ok && verifier.same(&r.payload, expect) =>
            {
                Ok(expect.len() as u64)
            }
            (Ok(r), _) if r.status == Status::Busy => Err(Failure::Busy),
            _ => Err(Failure::Other),
        }
    }
}

/// The closed loop of one client.
fn client_loop(
    state: &mut ClientState,
    pool: &[Payload],
    limit: Limit,
    phase: Instant,
    t: &mut Tracer,
    verifier: &Verifier,
) -> ClientResult {
    let mut out = ClientResult::default();
    loop {
        let op = match limit {
            Limit::Seconds(s) if phase.elapsed().as_secs_f64() >= s => break,
            Limit::Ops(n) | Limit::ReadBack(n) if out.attempted >= n => break,
            Limit::ReadBack(_) => Op::Get {
                key: out.attempted as usize,
            },
            _ => state.schedule.next(),
        };
        out.attempted += 1;
        let t0 = Instant::now();
        let result = state.run_op(op, pool, t, out.attempted, verifier);
        let latency_ms = t0.elapsed().as_secs_f64() * 1e3;
        let done = |bytes| (phase.elapsed().as_secs_f64(), bytes, latency_ms);
        match (result, op) {
            (Ok(bytes), Op::Put { .. }) => out.puts.push(done(bytes)),
            (Ok(bytes), Op::Get { .. }) => out.gets.push(done(bytes)),
            (Err(failure), _) => {
                out.failed += 1;
                out.busy += u64::from(matches!(failure, Failure::Busy));
            }
        }
    }
    out
}

/// All clients at once, one thread each. Returns their results and the
/// wall time of the whole phase.
fn run_clients(
    clients: &mut [ClientState],
    pool: &[Payload],
    limit: Limit,
    tracers: &mut [Tracer],
    verifier: &Verifier,
) -> (Vec<ClientResult>, f64) {
    let phase = Instant::now();
    let results = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(tracers.iter_mut())
            .map(|(state, t)| {
                scope.spawn(move || client_loop(state, pool, limit, phase, t, verifier))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    (results, phase.elapsed().as_secs_f64())
}

fn idle_tracers() -> Vec<Tracer> {
    (0..CLIENTS)
        .map(|_| Tracer::new(Instant::now(), 0, false))
        .collect()
}

/// A running daemon with its connected clients.
struct Rig {
    // Dropped in declaration order: connections first, so the daemon's
    // drain finds no open client.
    clients: Vec<ClientState>,
    server: Server,
    pool: Vec<Payload>,
    /// The daemon's data directory.
    dir: PathBuf,
    /// Wall time of the `serve()` call the timed phase runs against.
    start_ms: f64,
}

impl Rig {
    /// Graceful shutdown: close the connections, drain, final commit.
    /// Returns the daemon's report and each client's schedule, which
    /// knows what was stored.
    fn shut_down(self) -> (ServeReport, Vec<Schedule>, Vec<Payload>) {
        let schedules = self.clients.into_iter().map(|c| c.schedule).collect();
        self.server.shutdown();
        let report = self.server.join().expect("join");
        (report, schedules, self.pool)
    }
}

fn connect(addr: SocketAddr, schedules: Vec<Schedule>) -> Vec<ClientState> {
    schedules
        .into_iter()
        .enumerate()
        .map(|(c, schedule)| ClientState {
            conn: Client::connect(addr).expect("connect"),
            tenant: tenant(c),
            schedule,
        })
        .collect()
}

/// Generate the pool, start the daemon, preload and restart if the
/// workload asks for it, connect, and run one warm-up op per client.
fn set_up(def: &ServeWorkload, args: &RunArgs, dir: PathBuf, verifier: &Verifier) -> Rig {
    // 16 KiB at 1/20 scale: a whole number of elements of either width.
    let payload_bytes = if args.quick {
        PAYLOAD_BYTES / 16
    } else {
        PAYLOAD_BYTES
    };
    let pool = payload_pool(PAYLOADS_PER_VAR * payload_bytes, payload_bytes, args.seed);
    let schedules: Vec<Schedule> = (0..CLIENTS)
        .map(|c| Schedule::new(args.seed, c, def, pool.len()))
        .collect();
    let mut off = idle_tracers();

    let t0 = Instant::now();
    let mut server = serve(&dir, "127.0.0.1:0", None, serve_options()).expect("serve");
    let mut start_ms = t0.elapsed().as_secs_f64() * 1e3;
    let mut clients = connect(server.local_addr(), schedules);
    if def.preload_keys > 0 {
        // Until the preload is complete every scheduled op is a put.
        let preload = Limit::Ops(def.preload_keys as u64);
        let (loaded, _) = run_clients(&mut clients, &pool, preload, &mut off, verifier);
        assert!(loaded.iter().all(|r| r.failed == 0), "preload failed");
        // Final commit, then a fresh daemon on the committed store.
        let schedules: Vec<Schedule> = clients.into_iter().map(|c| c.schedule).collect();
        server.shutdown();
        server.join().expect("join after preload");
        let t0 = Instant::now();
        server = serve(&dir, "127.0.0.1:0", None, serve_options()).expect("serve again");
        start_ms = t0.elapsed().as_secs_f64() * 1e3;
        clients = connect(server.local_addr(), schedules);
    }
    // Warm-up: one put and one get per client, taken outside the
    // schedule's random stream so the timed sequence does not shift.
    for c in &mut clients {
        let key = c.schedule.keys.len();
        let warm = [
            Op::Put { key, pool: 0 },
            Op::Get {
                key: if def.preload_keys > 0 { 0 } else { key },
            },
        ];
        for op in warm {
            if c.run_op(op, &pool, &mut off[0], 0, verifier).is_err() {
                panic!("warm-up op failed");
            }
        }
    }
    Rig {
        clients,
        server,
        pool,
        dir,
        start_ms,
    }
}

fn raw_bytes_stored(schedules: &[Schedule], pool: &[Payload]) -> u64 {
    schedules
        .iter()
        .flat_map(|s| s.keys.iter().map(|&p| pool[p].bytes.len() as u64))
        .sum()
}

pub fn run(def: &ServeWorkload, args: &RunArgs) -> EndToEnd {
    let def = &def.scaled(args);
    let verifier = Verifier::from_env();
    let scratch = Scratch::create(&args.dir, &args.workload).expect("scratch dir");
    let (mut rig, setup_s) = measure_setup(args, |rep| {
        set_up(def, args, scratch.sub(&format!("data{rep}")), &verifier)
    });
    let input_hash = hash_inputs(rig.pool.iter().map(|p| p.bytes.as_slice()));
    let schedule_hash = rig
        .clients
        .iter()
        .fold(0u64, |h, c| h.rotate_left(17) ^ c.schedule.hash(1000));

    let cpu_before = cpu_seconds();
    let limit = Limit::Seconds(args.seconds);
    let (results, phase_s) = run_clients(
        &mut rig.clients,
        &rig.pool,
        limit,
        &mut idle_tracers(),
        &verifier,
    );
    let cpu_s = cpu_seconds() - cpu_before;

    let read_back = (def.read_back_keys > 0).then(|| {
        let stored = rig.clients.iter().map(|c| c.schedule.keys.len());
        let keys = stored.min().unwrap_or(0).min(def.read_back_keys);
        run_clients(
            &mut rig.clients,
            &rig.pool,
            Limit::ReadBack(keys as u64),
            &mut idle_tracers(),
            &verifier,
        )
    });

    // Bytes at rest are taken after the graceful shutdown's final commit.
    let dir = rig.dir.clone();
    let (_report, schedules, pool) = rig.shut_down();
    let raw_bytes = raw_bytes_stored(&schedules, &pool);
    let at_rest = dir_bytes(&dir).expect("list data dir");

    let all = |results: &[ClientResult], gets: bool| -> Vec<Done> {
        results
            .iter()
            .flat_map(|r| if gets { &r.gets } else { &r.puts })
            .copied()
            .collect()
    };
    let rate = |done: &[Done], wall_s: f64, measured_s: f64| {
        let events: Vec<(f64, u64)> = done.iter().map(|d| (d.0, d.1)).collect();
        Rate::of_whole_phase(&events, wall_s, measured_s)
    };
    let latency = |done: &[Done]| Latency::Samples(sorted(done.iter().map(|d| d.2).collect()));
    let (puts, mixed_gets) = (all(&results, false), all(&results, true));
    let mut cpu = CpuMeter::default();
    cpu.add(puts.iter().chain(&mixed_gets).map(|d| d.1).sum(), cpu_s);
    let (restore, get) = match &read_back {
        Some((back, wall_s)) => {
            let gets = all(back, true);
            (rate(&gets, *wall_s, *wall_s), latency(&gets))
        }
        None => (
            rate(&mixed_gets, phase_s, args.seconds),
            latency(&mixed_gets),
        ),
    };
    let back = read_back.map_or(Vec::new(), |(back, _)| back);
    let every = || results.iter().chain(&back);
    EndToEnd {
        ingest: rate(&puts, phase_s, args.seconds),
        restore,
        ratio: raw_bytes as f64 / at_rest.max(1) as f64,
        cpu_s_per_gb: cpu.per_gb(),
        put: latency(&puts),
        get,
        attempted: every().map(|r| r.attempted).sum(),
        failed: every().map(|r| r.failed).sum(),
        setup_s,
        input_hash,
        schedule_hash,
    }
}

/// One put through the serve core in the daemon's own order; returns
/// whether it triggered a commit.
fn core_put<F: isobar_store::StoreFs + Clone>(
    core: &mut StoreCore<F>,
    t: &mut Tracer,
    op_id: u64,
    key: usize,
    payload: &Payload,
) -> bool
where
    F::File: 'static,
{
    let (tenant, name, step) = (tenant(0), key_name(key), key_step(key));
    let skey = store_key(&tenant, &name);
    let bytes = payload.bytes.clone();
    t.span("core.store_put", op_id, || {
        core.store_put(step, &skey, bytes.clone(), usize::from(payload.width))
    })
    .expect("core store_put");
    t.span("core.wal_append", op_id, || {
        core.wal_append(&tenant, step, &name, payload.width, &bytes)
    })
    .expect("core wal_append");
    t.span("core.overlay_insert", op_id, || {
        core.overlay_insert(step, skey, payload.width, bytes)
    });
    core.over_threshold()
        && t.span("core.commit", op_id, || core.commit())
            .expect("core commit")
            .is_some()
}

/// Single-threaded replay of client 0's first ops against the serve
/// core on a counting filesystem: one caller and no timers, so the
/// byte and write counts repeat (flush counts nearly: the sharded
/// writer flushes whenever its queue runs empty).
fn core_replay(
    def: &ServeWorkload,
    args: &RunArgs,
    dir: &Path,
    pool: &[Payload],
    t: &mut Tracer,
    m: &mut Metrics,
    verifier: &Verifier,
) -> (u64, u64) {
    let fs = CountingFs::new();
    let serve = serve_options();
    let options = CoreOptions {
        isobar: serve.isobar,
        shards: serve.shards,
        queue_depth: serve.queue_depth,
        commit_threshold: serve.commit_threshold,
        wal: serve.wal,
        open_reader: true,
    };
    let mut core = StoreCore::open(fs.clone(), dir, options).expect("open core");
    let mut schedule = Schedule::new(args.seed, 0, def, pool.len());
    let mut off = Tracer::new(Instant::now(), 0, false);
    for _ in 0..def.preload_keys {
        let op = schedule.next();
        let Op::Put { key, pool: p } = op else {
            unreachable!("every op is a put until the preload is complete")
        };
        core_put(&mut core, &mut off, 0, key, &pool[p]);
        schedule.acked(op);
    }
    if def.preload_keys > 0 {
        core.commit().expect("preload commit");
    }
    let before = fs.counts();
    let (mut put_bytes, mut puts, mut commits, mut failed) = (0u64, 0u64, 0u64, 0u64);
    let ops = args.scaled(SLICE_OPS as usize) as u64;
    for op_id in 1..=ops {
        let op = schedule.next();
        match op {
            Op::Put { key, pool: p } => {
                commits += u64::from(core_put(&mut core, t, op_id, key, &pool[p]));
                put_bytes += pool[p].bytes.len() as u64;
                puts += 1;
            }
            Op::Get { key } => {
                let skey = store_key(&tenant(0), &key_name(key));
                let got = t.span("core.get", op_id, || core.get(key_step(key), &skey));
                match got {
                    Ok((bytes, _)) if verifier.same(&bytes, &pool[schedule.keys[key]].bytes) => {}
                    _ => failed += 1,
                }
            }
        }
        schedule.acked(op);
    }
    // What a graceful shutdown would still write.
    let last = t
        .span("core.commit", ops + 1, || core.commit())
        .expect("final commit");
    commits += u64::from(last.is_some());
    drop(core);
    let counts = fs.counts().since(&before);

    m.set("core.store_put_ms", t.total_ms("core.store_put"));
    m.set("core.wal_append_ms", t.total_ms("core.wal_append"));
    m.set("core.overlay_insert_ms", t.total_ms("core.overlay_insert"));
    m.set("core.commit_ms", t.total_ms("core.commit"));
    m.set("core.get_ms", t.total_ms("core.get"));
    m.set("core.commits", commits as f64);
    m.set(
        "core.fs_bytes_per_user_byte",
        counts.bytes as f64 / put_bytes.max(1) as f64,
    );
    m.set(
        "core.fs_syncs_per_put",
        counts.syncs() as f64 / puts.max(1) as f64,
    );
    (ops, failed)
}

/// The traced run: a slice of the workload untraced, the same number
/// of ops with a span around every client call, the daemon's own phase
/// report, the core replay, and the library layers over one payload of
/// each mix variable. Returns (attempted, failed) and the clients'
/// tracers.
pub fn run_traced(
    def: &ServeWorkload,
    args: &RunArgs,
    t: &mut Tracer,
    m: &mut Metrics,
) -> (u64, u64, Vec<Tracer>) {
    let def = &def.scaled(args);
    let verifier = Verifier::from_env();
    let scratch = Scratch::create(&args.dir, &args.workload).expect("scratch dir");
    let mut rig = set_up(def, args, scratch.sub("data"), &verifier);
    let start_ms = rig.start_ms;

    let slice = Limit::Ops(args.scaled(SLICE_OPS as usize) as u64);
    let (untraced, untraced_s) = run_clients(
        &mut rig.clients,
        &rig.pool,
        slice,
        &mut idle_tracers(),
        &verifier,
    );
    let mut client_tracers: Vec<Tracer> = (0..CLIENTS)
        .map(|c| Tracer::new(t.epoch(), c as u32 + 1, true))
        .collect();
    let (traced, traced_s) = run_clients(
        &mut rig.clients,
        &rig.pool,
        slice,
        &mut client_tracers,
        &verifier,
    );
    m.set(
        "trace.harness_overhead_share",
        (traced_s - untraced_s) / untraced_s,
    );

    let (report, _, pool) = t.span("daemon.drain", 0, || rig.shut_down());
    let total = report.total_request_nanos.max(1) as f64;
    let attributed = report.phase_nanos.iter().sum::<u64>() as f64 / total;
    assert!(
        attributed >= 0.95,
        "daemon phases cover only {attributed:.3} of request time"
    );
    let share = |p: ServePhase| report.phase_nanos[p as usize] as f64 / total;
    m.set("daemon.lock_wait_share", share(ServePhase::LockWait));
    m.set("daemon.store_put_share", share(ServePhase::StorePut));
    m.set("daemon.wal_fsync_share", share(ServePhase::WalFsync));
    m.set("daemon.store_get_share", share(ServePhase::StoreGet));
    m.set("daemon.commit_share", share(ServePhase::Commit));
    m.set("daemon.payload_read_share", share(ServePhase::PayloadRead));
    m.set(
        "daemon.write_response_share",
        share(ServePhase::WriteResponse),
    );
    m.set("daemon.request_s", total / 1e9);
    m.set("daemon.commits", report.commits as f64);
    m.set("daemon.busy_rejected", report.busy_rejected as f64);
    m.set("daemon.start_ms", start_ms);
    m.set("daemon.drain_ms", t.total_ms("daemon.drain"));

    let durations = |name: &str| {
        sorted(
            client_tracers
                .iter()
                .flat_map(|c| c.durations_ms(name))
                .collect(),
        )
    };
    let (put_ms, get_ms) = (durations("client.put"), durations("client.get"));
    m.set("client.put_p90_ms", percentile(&put_ms, 90.0).0);
    m.set("client.put_p99_ms", percentile(&put_ms, 99.0).0);
    m.set("client.get_p90_ms", percentile(&get_ms, 90.0).0);
    m.set("client.get_p99_ms", percentile(&get_ms, 99.0).0);
    m.set("client.put_samples", put_ms.len() as f64);
    m.set("client.get_samples", get_ms.len() as f64);
    // The clients never retry, so a refusal is a failed op.
    m.set(
        "client.busy_retries",
        traced.iter().map(|r| r.busy).sum::<u64>() as f64,
    );

    let (core_ops, core_failed) =
        core_replay(def, args, &scratch.sub("core"), &pool, t, m, &verifier);

    let per_var = pool.len() / crate::inputs::MIX.len();
    let samples: Vec<Sample> = pool
        .iter()
        .step_by(per_var.max(1))
        .map(|p| Sample {
            bytes: &p.bytes,
            width: usize::from(p.width),
        })
        .collect();
    let (lib_ops, lib_failed, _) =
        replay::lib_layers(t, m, &samples, IsobarOptions::default(), &verifier);
    m.absent_layer("store.");

    let client = |rs: &[ClientResult], f: fn(&ClientResult) -> u64| rs.iter().map(f).sum::<u64>();
    (
        client(&untraced, |r| r.attempted) + client(&traced, |r| r.attempted) + core_ops + lib_ops,
        client(&untraced, |r| r.failed) + client(&traced, |r| r.failed) + core_failed + lib_failed,
        client_tracers,
    )
}
