//! `hotloop` — the distance-cascade hot loop isolated on the `metro_like`
//! scenario, emitting a BENCH JSON point.
//!
//! Three monolithic runs over the same dataset pin down what each tier of
//! the candidate-filter cascade buys. They run one greedy loop and differ
//! only in the tier a fresh pair cell is seeded at (`GloveConfig::pruning`):
//!
//! * **exact** — `Pruning::Off`, exact seeds: the paper's full-matrix
//!   kernel, every candidate pair evaluated to completion (the
//!   byte-identity anchor). This bench and the oracle tests are the only
//!   places exact seeds run;
//! * **pre-cascade** — `Pruning::HullOnly`, hull seeds: the hull-bound-only
//!   pruner that predates the cascade (tier 1 alone);
//! * **cascade** — `Pruning::Cascade`, the default, signature seeds: tier-0
//!   bit-packed signatures, tier-1 hulls and tier-2 early-abandoned exact
//!   evaluations.
//!
//! All three must publish byte-identical datasets and agree on
//! `pairs_computed + pairs_pruned` (every candidate is decided exactly
//! once); the JSON records wall clock, decisions per second
//! (`GloveStats::pairs_per_second`) and the per-tier skip split so CI can
//! track where candidates die. In `--bench` mode the cascade must clear
//! ≥ 2x the pre-cascade decision throughput — the tentpole number of the
//! hot-loop acceleration work.
//!
//! Modes mirror the other e2e benches: `--bench` measures at full size
//! (600 users), `--test` shrinks the population for CI smoke runs, and
//! `--users N` overrides either way.

use glove_bench::metro_bench_dataset;
use glove_core::glove::{anonymize, GloveOutput};
use glove_core::{GloveConfig, Pruning};
use std::time::Instant;

fn run(ds: &glove_core::Dataset, pruning: Pruning) -> (f64, GloveOutput) {
    let config = GloveConfig {
        k: 2,
        threads: 0,
        pruning,
        ..GloveConfig::default()
    };
    let started = Instant::now();
    let out = anonymize(ds, &config).expect("anonymization succeeds");
    (started.elapsed().as_secs_f64(), out)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let test_mode = args.iter().any(|a| a == "--test") || !args.iter().any(|a| a == "--bench");
    let mut users = if test_mode { 96 } else { 600 };
    if let Some(pos) = args.iter().position(|a| a == "--users") {
        users = args
            .get(pos + 1)
            .and_then(|v| v.parse().ok())
            .expect("--users N");
    }

    eprintln!("[hotloop] generating metro_like ({users} users)…");
    let ds = metro_bench_dataset(users);
    let samples = ds.num_samples();

    eprintln!("[hotloop] exact run (pruning off)…");
    let (exact_s, exact) = run(&ds, Pruning::Off);
    eprintln!("[hotloop] pre-cascade run (hull bound only)…");
    let (hull_s, hull) = run(&ds, Pruning::HullOnly);
    eprintln!("[hotloop] cascade run (signatures + hulls + early abandon)…");
    let (casc_s, casc) = run(&ds, Pruning::Cascade);

    // Exactness anchors: the cascade is a pure filter — all three modes
    // publish byte-identical datasets, and every candidate the exact kernel
    // evaluates is decided exactly once by each pruner.
    assert_eq!(
        hull.dataset.fingerprints, exact.dataset.fingerprints,
        "hull-only pruning diverged from the exact kernel"
    );
    assert_eq!(
        casc.dataset.fingerprints, exact.dataset.fingerprints,
        "cascade pruning diverged from the exact kernel"
    );
    for (label, out) in [("pre-cascade", &hull), ("cascade", &casc)] {
        assert_eq!(
            out.stats.pairs_computed + out.stats.pairs_pruned,
            exact.stats.pairs_computed,
            "{label}: candidate decisions do not cover the exact kernel's pairs"
        );
    }
    assert_eq!(hull.stats.pairs_skipped_tier0, 0);
    assert_eq!(hull.stats.pairs_abandoned, 0);

    let decisions = casc.stats.candidate_pairs();
    let exact_pps = exact.stats.pairs_per_second();
    let hull_pps = hull.stats.pairs_per_second();
    let casc_pps = casc.stats.pairs_per_second();
    let speedup_vs_hull = casc_pps / hull_pps.max(1e-9);
    let speedup_vs_exact = casc_pps / exact_pps.max(1e-9);

    let pct = |n: u64| n as f64 / decisions.max(1) as f64 * 100.0;
    let json = format!(
        "{{\"name\":\"hotloop\",\"scenario\":\"metro_like\",\"users\":{users},\
         \"samples\":{samples},\"mode\":\"{}\",\
         \"exact_s\":{exact_s:.3},\"precascade_s\":{hull_s:.3},\"cascade_s\":{casc_s:.3},\
         \"exact_pairs_per_s\":{exact_pps:.1},\"precascade_pairs_per_s\":{hull_pps:.1},\
         \"cascade_pairs_per_s\":{casc_pps:.1},\
         \"speedup_vs_precascade\":{speedup_vs_hull:.2},\
         \"speedup_vs_exact\":{speedup_vs_exact:.2},\
         \"candidate_pairs\":{decisions},\
         \"pairs_computed\":{},\"pairs_skipped_tier0\":{},\"pairs_skipped_tier1\":{},\
         \"pairs_abandoned\":{},\
         \"tier0_pct\":{:.1},\"tier1_pct\":{:.1},\"abandoned_pct\":{:.1},\"exact_pct\":{:.1},\
         \"precascade_computed\":{},\"precascade_pruned\":{},\
         \"peak_arena_bytes\":{},\"peak_store_bytes\":{},\"peak_rss_bytes\":{}}}",
        if test_mode { "test" } else { "bench" },
        casc.stats.pairs_computed,
        casc.stats.pairs_skipped_tier0,
        casc.stats.pairs_skipped_tier1,
        casc.stats.pairs_abandoned,
        pct(casc.stats.pairs_skipped_tier0),
        pct(casc.stats.pairs_skipped_tier1),
        pct(casc.stats.pairs_abandoned),
        pct(casc.stats.pairs_computed),
        hull.stats.pairs_computed,
        hull.stats.pairs_pruned,
        casc.stats.ledger.peak_arena_bytes,
        casc.stats.ledger.peak_store_bytes,
        casc.stats.ledger.peak_rss_bytes,
    );
    println!("BENCH {json}");
    let dir = std::env::var("BENCH_DIR").unwrap_or_else(|_| {
        let root = format!("{}/../..", env!("CARGO_MANIFEST_DIR"));
        if std::path::Path::new(&root).is_dir() {
            root
        } else {
            ".".to_string()
        }
    });
    let path = format!("{dir}/BENCH_hotloop.json");
    if let Err(e) = std::fs::write(&path, format!("{json}\n")) {
        eprintln!("[hotloop] could not write {path}: {e}");
    }
    println!(
        "hotloop/metro_{users}: exact {exact_s:.2}s, pre-cascade {hull_s:.2}s, \
         cascade {casc_s:.2}s -> {speedup_vs_hull:.1}x decisions/s vs pre-cascade \
         (tier0 {:.0}%, tier1 {:.0}%, abandoned {:.0}%, exact {:.0}%)",
        pct(casc.stats.pairs_skipped_tier0),
        pct(casc.stats.pairs_skipped_tier1),
        pct(casc.stats.pairs_abandoned),
        pct(casc.stats.pairs_computed),
    );
    // The floor is checked last, so a run below it still leaves its point.
    if !test_mode {
        assert!(
            speedup_vs_hull >= 2.0,
            "cascade must at least double pre-cascade decision throughput, \
             got {speedup_vs_hull:.2}x ({hull_pps:.0} -> {casc_pps:.0} pairs/s)"
        );
    }
}
