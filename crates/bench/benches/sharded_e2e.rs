//! `sharded_e2e` — end-to-end sharded vs monolithic GLOVE on the
//! `metro_like` scenario, emitting a BENCH JSON point.
//!
//! Unlike the Criterion-shimmed benches, this target measures full runs
//! directly (monolithic, `--shards 8`, and the sharded run again with hull
//! seeds, `Pruning::HullOnly`, for the before/after delta of the cascade's
//! signature seeds), prints a `BENCH {...}` line and writes the same JSON
//! point to `BENCH_sharded_e2e.json` in the working directory, so CI can
//! archive the speedup trajectory across commits.
//!
//! Modes mirror the criterion shim: `cargo bench --bench sharded_e2e` (the
//! plain `--bench` flag) measures at full size; `--test` (as in CI's
//! `cargo bench -- --test`) shrinks the population so the smoke run stays
//! fast. `--users N` overrides the population either way.

use glove_bench::metro_bench_dataset;
use glove_core::api::RunBuilder;
use glove_core::glove::anonymize;
use glove_core::{GloveConfig, Pruning, ShardPolicy};
use std::time::Instant;

const SHARDS: usize = 8;

/// Wall-clock slack absorbing single-run timer noise when asserting the
/// run-API overhead bound (the recorded JSON carries the raw ratio).
const OVERHEAD_SLACK_S: f64 = 0.25;

fn run(
    ds: &glove_core::Dataset,
    shard: Option<ShardPolicy>,
    pruning: Pruning,
) -> (f64, glove_core::glove::GloveOutput) {
    let config = GloveConfig {
        k: 2,
        threads: 0,
        shard,
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

    eprintln!("[sharded_e2e] generating metro_like ({users} users)…");
    let ds = metro_bench_dataset(users);
    let samples = ds.num_samples();

    eprintln!("[sharded_e2e] monolithic run…");
    let (mono_s, mono) = run(&ds, None, Pruning::Cascade);
    eprintln!("[sharded_e2e] sharded run ({SHARDS} activity shards)…");
    let (shard_s, sharded) = run(&ds, Some(ShardPolicy::activity(SHARDS)), Pruning::Cascade);

    // The same sharded run with hull seeds (tier-1 hull pruning only): the
    // before/after delta of the hot-loop cascade, on record in the JSON.
    // The cascade is a pure filter, so the published output must not move.
    eprintln!("[sharded_e2e] sharded run, cascade off (before/after delta)…");
    let (precascade_s, precascade) =
        run(&ds, Some(ShardPolicy::activity(SHARDS)), Pruning::HullOnly);
    let cascade_speedup = precascade_s / shard_s.max(1e-9);
    assert_eq!(
        precascade.dataset.fingerprints, sharded.dataset.fingerprints,
        "cascade changed the sharded output"
    );

    // The same sharded run through the unified run API: output must be
    // byte-identical and the orchestration overhead negligible (< 1% with
    // timer-noise slack; the raw ratio is recorded in the JSON).
    eprintln!("[sharded_e2e] sharded run through RunBuilder…");
    let started = Instant::now();
    let outcome = RunBuilder::new(GloveConfig {
        k: 2,
        threads: 0,
        ..GloveConfig::default()
    })
    .sharded(ShardPolicy::activity(SHARDS))
    .run(&ds)
    .expect("builder run succeeds");
    let api_s = started.elapsed().as_secs_f64();
    let api_overhead_pct = (api_s / shard_s.max(1e-9) - 1.0) * 100.0;
    assert_eq!(
        outcome
            .output
            .dataset()
            .expect("single release")
            .fingerprints,
        sharded.dataset.fingerprints,
        "run API diverged from the direct sharded call"
    );
    assert_eq!(outcome.report.pairs_computed, sharded.stats.pairs_computed);
    assert!(
        api_s <= shard_s * 1.01 + OVERHEAD_SLACK_S,
        "run-API overhead too high: direct {shard_s:.3} s vs builder {api_s:.3} s \
         ({api_overhead_pct:.2}%)"
    );

    // The benchmark doubles as an invariant check: both outputs must be
    // 2-anonymous and conserve the population.
    assert!(mono.dataset.is_k_anonymous(2));
    assert!(sharded.dataset.is_k_anonymous(2));
    assert_eq!(mono.dataset.num_users(), users);
    assert_eq!(sharded.dataset.num_users(), users);

    let speedup = mono_s / shard_s.max(1e-9);
    let json = format!(
        "{{\"name\":\"sharded_e2e\",\"scenario\":\"metro_like\",\"users\":{users},\
         \"samples\":{samples},\"shards\":{SHARDS},\"mode\":\"{}\",\
         \"monolithic_s\":{mono_s:.3},\"sharded_s\":{shard_s:.3},\"speedup\":{speedup:.2},\
         \"sharded_precascade_s\":{precascade_s:.3},\"cascade_speedup\":{cascade_speedup:.2},\
         \"sharded_api_s\":{api_s:.3},\"api_overhead_pct\":{api_overhead_pct:.2},\
         \"monolithic_pairs\":{},\"sharded_pairs\":{},\
         \"monolithic_pruned\":{},\"sharded_pruned\":{},\
         \"sharded_tier0\":{},\"sharded_tier1\":{},\"sharded_abandoned\":{},\
         \"peak_arena_bytes\":{},\"peak_store_bytes\":{},\"peak_rss_bytes\":{}}}",
        if test_mode { "test" } else { "bench" },
        mono.stats.pairs_computed,
        sharded.stats.pairs_computed,
        mono.stats.pairs_pruned,
        sharded.stats.pairs_pruned,
        sharded.stats.pairs_skipped_tier0,
        sharded.stats.pairs_skipped_tier1,
        sharded.stats.pairs_abandoned,
        sharded.stats.ledger.peak_arena_bytes,
        sharded.stats.ledger.peak_store_bytes,
        sharded.stats.ledger.peak_rss_bytes,
    );
    println!("BENCH {json}");
    // Benches run with the package as working directory; anchor the JSON at
    // the workspace root so CI can pick up BENCH_*.json uniformly. An
    // explicit BENCH_DIR env var wins; if the compile-time workspace path
    // does not exist at run time (prebuilt binary, moved checkout), fall
    // back to the current directory rather than dropping the artifact.
    let dir = std::env::var("BENCH_DIR").unwrap_or_else(|_| {
        let root = format!("{}/../..", env!("CARGO_MANIFEST_DIR"));
        if std::path::Path::new(&root).is_dir() {
            root
        } else {
            ".".to_string()
        }
    });
    let path = format!("{dir}/BENCH_sharded_e2e.json");
    if let Err(e) = std::fs::write(&path, format!("{json}\n")) {
        eprintln!("[sharded_e2e] could not write {path}: {e}");
    }
    println!(
        "sharded_e2e/metro_{users}: monolithic {mono_s:.2}s, {SHARDS} shards {shard_s:.2}s \
         -> {speedup:.1}x (cascade {cascade_speedup:.1}x over hull-only {precascade_s:.2}s)"
    );
}
