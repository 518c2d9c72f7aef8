//! `store_ckpt_mix`: the in-situ checkpoint deployment. One producer
//! thread writes steps of the six-variable mix into a fresh sharded
//! store, closes it, reopens it and reads every variable back in a
//! shuffled order.

use crate::counting_fs::CountingFs;
use crate::inputs::{hash_inputs, mix, Variable, Verifier};
use crate::replay::{self, Sample};
use crate::run::{measure_setup, sorted, CpuMeter, EndToEnd, Latency, Rate, RunArgs};
use crate::spec::Metrics;
use crate::stats::{median, percentile, Estimate};
use crate::sys::{cpu_seconds, dir_bytes, Rng, Scratch};
use crate::trace::Tracer;
use isobar::{CompressionLevel, IsobarOptions, Preference};
use isobar_codecs::xxhash::xxh64;
use isobar_store::{RealFs, ShardedOptions, ShardedStoreWriter, StoreFs, StoreReader};
use std::path::Path;
use std::time::Instant;

/// Steps per round and bytes per variable: 18 puts, 54 MB a round.
const STEPS: u32 = 3;
const VAR_BYTES: usize = 3_000_000;

fn options() -> IsobarOptions {
    IsobarOptions {
        preference: Preference::Speed,
        level: CompressionLevel::Fast,
        ..Default::default()
    }
}

const SHARDED: ShardedOptions = ShardedOptions {
    shards: 2,
    queue_depth: 2,
};

struct Round {
    ingest_s: f64,
    restore_s: f64,
    /// Process CPU seconds over the two timed sections.
    cpu_s: f64,
    raw_bytes: u64,
    at_rest_bytes: u64,
    get_ms: Vec<f64>,
    segments: usize,
    attempted: u64,
    failed: u64,
}

/// One round in `dir` (which must not exist). `create`→`close` and
/// `open`→last `get` are timed.
#[allow(clippy::too_many_arguments)]
fn round<F: StoreFs>(
    fs: F,
    dir: &Path,
    vars: &[Variable],
    steps: u32,
    rng: &mut Rng,
    t: &mut Tracer,
    verifier: &Verifier,
) -> Round
where
    F::File: 'static,
{
    let puts: Vec<(u32, usize)> = (0..steps)
        .flat_map(|step| (0..vars.len()).map(move |v| (step, v)))
        .collect();
    let mut order = puts.clone();
    rng.shuffle(&mut order);
    let raw_bytes: u64 = puts.iter().map(|&(_, v)| vars[v].bytes.len() as u64).sum();
    let mut failed = 0u64;

    let cpu_before = cpu_seconds();
    let started = Instant::now();
    let writer = ShardedStoreWriter::create_in(fs, dir, options(), SHARDED).expect("create store");
    for (op, &(step, v)) in puts.iter().enumerate() {
        let var = &vars[v];
        // The writer takes ownership, as it would of a simulation's
        // output buffer. The copy (about 0.4 ms of a 25 ms put) is made
        // here and not ahead of the round, where 54 MB of copies made
        // the peak RSS depend on when the allocator returned them.
        let bytes = var.bytes.clone();
        let put = t.span("store.put", op as u64, || {
            writer.put(step, var.name, bytes, var.width)
        });
        failed += u64::from(put.is_err());
    }
    let closed = t.span("store.close", 0, || writer.close());
    let ingest_s = started.elapsed().as_secs_f64();
    let mut cpu_s = cpu_seconds() - cpu_before;
    failed += u64::from(closed.is_err());
    let at_rest_bytes = dir_bytes(dir).expect("list store dir");

    let cpu_before = cpu_seconds();
    let started = Instant::now();
    let reader = t
        .span("store.open", 0, || StoreReader::open(dir))
        .expect("open store");
    let mut get_ms = Vec::with_capacity(order.len());
    for (op, &(step, v)) in order.iter().enumerate() {
        let t0 = Instant::now();
        let got = t.span("store.get", op as u64, || reader.get(step, vars[v].name));
        get_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        match got {
            Ok(bytes) if verifier.same(&bytes, &vars[v].bytes) => {}
            _ => failed += 1,
        }
    }
    let restore_s = started.elapsed().as_secs_f64();
    cpu_s += cpu_seconds() - cpu_before;
    let segments = reader.segment_count();
    drop(reader);
    std::fs::remove_dir_all(dir).expect("remove store dir");
    Round {
        ingest_s,
        restore_s,
        cpu_s,
        raw_bytes,
        at_rest_bytes,
        get_ms,
        segments,
        attempted: 2 * order.len() as u64,
        failed,
    }
}

fn set_up(args: &RunArgs, scratch: &Scratch, verifier: &Verifier) -> (Vec<Variable>, Estimate) {
    measure_setup(args, |rep| {
        let vars = mix(args.scaled(VAR_BYTES), args.seed);
        // Warm-up: one single-step round.
        round(
            RealFs,
            &scratch.sub(&format!("warmup{rep}")),
            &vars,
            1,
            &mut Rng::new(args.seed),
            &mut Tracer::new(Instant::now(), 0, false),
            verifier,
        );
        vars
    })
}

pub fn run(args: &RunArgs) -> EndToEnd {
    let verifier = Verifier::from_env();
    let scratch = Scratch::create(&args.dir, &args.workload).expect("scratch dir");
    let (vars, setup_s) = set_up(args, &scratch, &verifier);
    let input_hash = hash_inputs(vars.iter().map(|v| v.bytes.as_slice()));
    let mut rng = Rng::new(args.seed);
    // The first round's read order stands for the whole schedule.
    let mut first_order: Vec<u8> = (0..STEPS as u8 * vars.len() as u8).collect();
    rng.clone().shuffle(&mut first_order);
    let schedule_hash = xxh64(&first_order, 0);

    let mut off = Tracer::new(Instant::now(), 0, false);
    let mut rounds = Vec::new();
    let phase = Instant::now();
    while rounds.is_empty() || phase.elapsed().as_secs_f64() < args.seconds {
        let dir = scratch.sub(&format!("round{}", rounds.len()));
        rounds.push(round(
            RealFs, &dir, &vars, STEPS, &mut rng, &mut off, &verifier,
        ));
    }

    let puts: Vec<(u64, f64)> = rounds.iter().map(|r| (r.raw_bytes, r.ingest_s)).collect();
    let gets: Vec<(u64, f64)> = rounds.iter().map(|r| (r.raw_bytes, r.restore_s)).collect();
    let ratios: Vec<f64> = rounds
        .iter()
        .map(|r| r.raw_bytes as f64 / r.at_rest_bytes.max(1) as f64)
        .collect();
    let mut cpu = CpuMeter::default();
    for r in &rounds {
        cpu.add(2 * r.raw_bytes, r.cpu_s);
    }
    let ingest = Rate::of_fastest_blocks(&puts);
    // A put only queues the variable, so its cost is the round's write
    // time spread over its puts: one variable at the reported rate.
    let put = Latency::AtRate {
        bytes: rounds[0].raw_bytes / (STEPS as u64 * vars.len() as u64),
        mbps: ingest.mbps,
    };
    EndToEnd {
        ingest,
        restore: Rate::of_fastest_blocks(&gets),
        ratio: median(&ratios),
        cpu_s_per_gb: cpu.per_gb(),
        put,
        get: Latency::Samples(sorted(
            rounds
                .iter()
                .flat_map(|r| r.get_ms.iter().copied())
                .collect(),
        )),
        attempted: rounds.iter().map(|r| r.attempted).sum(),
        failed: rounds.iter().map(|r| r.failed).sum(),
        setup_s,
        input_hash,
        schedule_hash,
    }
}

/// The traced run: one round on a counting filesystem with spans
/// around every store call, then the library layers over the six
/// variables.
pub fn run_traced(args: &RunArgs, t: &mut Tracer, m: &mut Metrics) -> (u64, u64) {
    let verifier = Verifier::from_env();
    let scratch = Scratch::create(&args.dir, &args.workload).expect("scratch dir");
    let (vars, _) = set_up(args, &scratch, &verifier);

    // Untraced, traced, untraced: the traced round is compared with
    // the mean of its neighbours, so a drift across the three cancels.
    let untraced_round = |name: &str| {
        round(
            RealFs,
            &scratch.sub(name),
            &vars,
            STEPS,
            &mut Rng::new(args.seed),
            &mut Tracer::new(Instant::now(), 0, false),
            &verifier,
        )
    };
    let before = untraced_round("untraced0");
    let fs = CountingFs::new();
    let traced = round(
        fs.clone(),
        &scratch.sub("traced"),
        &vars,
        STEPS,
        &mut Rng::new(args.seed),
        t,
        &verifier,
    );
    let after = untraced_round("untraced1");
    let timed = |r: &Round| r.ingest_s + r.restore_s;
    let untraced_s = (timed(&before) + timed(&after)) / 2.0;
    let counts = fs.counts();

    let gets = t.durations_ms("store.get");
    m.set("store.put_blocked_ms", t.total_ms("store.put"));
    m.set("store.close_ms", t.total_ms("store.close"));
    m.set("store.open_ms", t.total_ms("store.open"));
    m.set("store.get_p50_ms", percentile(&gets, 50.0).0);
    m.set("store.get_p90_ms", percentile(&gets, 90.0).0);
    m.set("store.segments", traced.segments as f64);
    m.set("store.fs_writes", counts.writes as f64);
    m.set("store.fs_bytes", counts.bytes as f64);
    m.set("store.fs_syncs", counts.syncs() as f64);
    m.set(
        "store.disk_bytes_per_user_byte",
        traced.at_rest_bytes as f64 / traced.raw_bytes as f64,
    );
    m.set(
        "trace.harness_overhead_share",
        (timed(&traced) - untraced_s) / untraced_s,
    );

    let samples: Vec<Sample> = vars
        .iter()
        .map(|v| Sample {
            bytes: &v.bytes,
            width: v.width,
        })
        .collect();
    let (lib_attempted, lib_failed, _) = replay::lib_layers(t, m, &samples, options(), &verifier);
    for layer in ["core.", "daemon.", "client."] {
        m.absent_layer(layer);
    }
    (
        before.attempted + traced.attempted + after.attempted + lib_attempted,
        before.failed + traced.failed + after.failed + lib_failed,
    )
}
