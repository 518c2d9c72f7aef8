//! Fuzz driver: run every decode layer under fault injection.
//!
//! ```text
//! isobar-fuzz-harness [--iters N] [--seed HEX] [--layer NAME]... [--list] [--kernels scalar|auto]
//! isobar-fuzz-harness --crash-sweep [--seed HEX]
//! isobar-fuzz-harness --serve-crash-sweep [--seed HEX]
//! isobar-fuzz-harness --store-stress [--seed HEX]
//! ```
//!
//! Exits 0 when every layer completes its iterations with zero panics
//! and zero allocation-bound violations; exits 1 with a reproducible
//! one-line report otherwise. `--crash-sweep` instead runs the store's
//! two-phase manifest-commit crash-injection sweep at one and at two
//! shards (see the `crash` module), `--serve-crash-sweep` the serve daemon's acked-means-durable sweep
//! over the write-ahead journal (see the `serve_crash` module), and
//! `--store-stress` the concurrent producer/reader storm over one
//! sharded store under the counting allocator (see the `stress`
//! module).

use isobar_fuzz_harness::{
    all_layers, alloc_track, alloc_track::PeakAlloc, crash, serve_crash, stress, DEFAULT_SEED,
};

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

fn main() {
    let mut iters: u64 = 10_000;
    let mut seed: u64 = DEFAULT_SEED;
    let mut selected: Vec<String> = Vec::new();
    let mut list = false;
    let mut crash_sweep = false;
    let mut serve_crash_sweep = false;
    let mut store_stress = false;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--iters" => {
                iters = expect_value(&args, &mut i, "--iters")
                    .parse()
                    .unwrap_or_else(|_| usage("--iters takes a positive integer"));
            }
            "--seed" => {
                let raw = expect_value(&args, &mut i, "--seed");
                let raw = raw.trim_start_matches("0x");
                seed = u64::from_str_radix(raw, 16)
                    .unwrap_or_else(|_| usage("--seed takes a hex value"));
            }
            "--layer" => {
                selected.push(expect_value(&args, &mut i, "--layer"));
            }
            "--kernels" => {
                let raw = expect_value(&args, &mut i, "--kernels");
                let selection = isobar::KernelSelection::parse(&raw)
                    .unwrap_or_else(|| usage("--kernels takes scalar or auto"));
                isobar::set_kernels(selection);
            }
            "--list" => list = true,
            "--crash-sweep" => crash_sweep = true,
            "--serve-crash-sweep" => serve_crash_sweep = true,
            "--store-stress" => store_stress = true,
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown argument {other}")),
        }
        i += 1;
    }

    if crash_sweep {
        for shards in [1, 2] {
            match crash::crash_sweep(seed, shards) {
                Ok(o) => {
                    println!(
                        "crash-sweep    {shards} shard(s): {} kill points, {} views checked: {} old, {} new — two-phase manifest commit holds",
                        o.kill_points, o.views_checked, o.saw_old, o.saw_new
                    );
                }
                Err(e) => {
                    eprintln!("FAIL crash-sweep ({shards} shard(s), seed {seed:#018x}): {e}");
                    std::process::exit(1);
                }
            }
        }
    }
    if serve_crash_sweep {
        match serve_crash::serve_crash_sweep(seed) {
            Ok(o) => {
                println!(
                    "serve-crash    {} kill points, {} views checked, {} acked puts verified ({} journal-served, {} committed) — acked means durable",
                    o.kill_points, o.views_checked, o.acked_verified, o.overlay_served, o.committed_served
                );
            }
            Err(e) => {
                eprintln!("FAIL serve-crash-sweep (seed {seed:#018x}): {e}");
                std::process::exit(1);
            }
        }
    }
    if store_stress {
        alloc_track::reset_peak();
        match stress::store_stress(seed, 8, 16, 200) {
            Ok(o) => {
                println!(
                    "store-stress   {} puts, {} concurrent gets, {} verified, {} superseded, peak alloc {} KiB — sharded store holds under contention",
                    o.puts,
                    o.gets,
                    o.verified,
                    o.superseded,
                    alloc_track::peak() / 1024
                );
            }
            Err(e) => {
                eprintln!("FAIL store-stress (seed {seed:#018x}): {e}");
                std::process::exit(1);
            }
        }
    }
    if crash_sweep || serve_crash_sweep || store_stress {
        return;
    }

    let layers = all_layers();
    if list {
        for layer in &layers {
            println!("{}", layer.name());
        }
        return;
    }
    for name in &selected {
        if !layers.iter().any(|l| l.name() == name) {
            usage(&format!("unknown layer {name} (try --list)"));
        }
    }

    println!("kernels: {}", isobar::active_kernel_tier());

    let mut failed = false;
    for layer in &layers {
        if !selected.is_empty() && !selected.iter().any(|n| n == layer.name()) {
            continue;
        }
        match layer.run(seed, iters) {
            Ok(o) => println!(
                "{:<14} {} iterations: {} accepted, {} rejected, peak decode alloc {} KiB",
                o.name,
                o.iterations,
                o.accepted,
                o.rejected,
                o.max_alloc / 1024
            ),
            Err(e) => {
                eprintln!("FAIL {e}");
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}

fn expect_value(args: &[String], i: &mut usize, flag: &str) -> String {
    *i += 1;
    args.get(*i)
        .cloned()
        .unwrap_or_else(|| usage(&format!("{flag} requires a value")))
}

fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("error: {msg}");
    }
    eprintln!(
        "usage: isobar-fuzz-harness [--iters N] [--seed HEX] [--layer NAME]... [--list] [--crash-sweep] [--serve-crash-sweep] [--store-stress] [--kernels scalar|auto]"
    );
    std::process::exit(if msg.is_empty() { 0 } else { 2 });
}
