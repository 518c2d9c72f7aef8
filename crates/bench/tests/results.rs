//! `results/` is a checked artefact: the experiments that time nothing
//! are re-derived here on every `cargo test`, and the cache behind
//! `bench all` is shown to measure each thing once.

use isobar_bench::experiments::{check, Experiment, EXPERIMENTS};
use isobar_bench::{banner_scale, Bench};

fn experiment(name: &str) -> Experiment {
    EXPERIMENTS.iter().find(|(n, _)| *n == name).unwrap().1
}

/// A dataset-generator or analyzer change that moves the paper's
/// Table IV or Fig. 1 fails here; `bench check` covers the other 17.
#[test]
fn table4_and_fig1_still_match_the_committed_results() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
    let read = |name: &str| std::fs::read_to_string(format!("{dir}/{name}.txt")).unwrap();
    let mut bench = Bench::new(banner_scale(&read("table4")).expect("a banner"));
    for name in ["table4", "fig1"] {
        if let Err(what) = check(experiment(name), &read(name), &mut bench) {
            panic!("results/{name}.txt: {what}\nregenerate with `bench all --out results/` and say why it moved");
        }
    }
}

/// Tiny datasets; the three experiments left out fix their own input
/// sizes (fig8 ≥ 1.5 M elements, timesteps 20 seeds, ablation_eupa
/// 750 k × 24 × 3 levels), take minutes unoptimised, and time nothing
/// through the cache.
#[test]
fn each_dataset_is_generated_and_each_pair_timed_once_per_process() {
    let logged = |b: &Bench, what: &str| b.log.iter().filter(|l| l.ends_with(what)).count();
    let mut all = Bench::new(1e-4);
    for (name, run) in EXPERIMENTS {
        if !["fig8", "timesteps", "ablation_eupa"].contains(&name) {
            assert!(run(&mut all).failure.is_none());
        }
    }
    let mut once = all.log.clone();
    once.sort();
    once.dedup();
    assert_eq!(
        once.len(),
        all.log.len(),
        "something ran twice: {:?}",
        all.log
    );
    assert_eq!(all.log.iter().filter(|l| !l.contains(' ')).count(), 24);
    for what in [" zlib", " bzlib2", " ISOBAR Speed", " ISOBAR Ratio"] {
        assert_eq!(logged(&all, what), 24, "{what}");
    }
    assert_eq!(logged(&all, " permuted"), 6);
    assert_eq!(all.log.len(), 24 * 5 + 6);

    let mut one = Bench::new(1e-4);
    experiment("table6")(&mut one);
    assert_eq!(logged(&one, " ISOBAR Speed"), 16);
    assert_eq!(one.log.len(), 16 * 4, "{:?}", one.log);
}

#[test]
fn check_refuses_a_missing_banner_and_a_foreign_scale() {
    let (table4, mut b) = (experiment("table4"), Bench::new(1e-4));
    let committed = table4(&mut b).text();
    check(table4, &committed, &mut b).unwrap();
    let err = check(table4, &committed, &mut Bench::new(0.02)).unwrap_err();
    assert!(err.starts_with("line 2: scale 0.0001, but"), "{err}");
    let redirected = format!("    Finished `release`\n     Running `x`\n{committed}");
    let err = check(table4, &redirected, &mut b).unwrap_err();
    assert!(err.starts_with("line 2: no `scale N` banner"), "{err}");
    let moved = committed.replace("xgc_igid", "xgc_igix");
    assert!(check(table4, &moved, &mut b)
        .unwrap_err()
        .contains("cell 1"));
}
