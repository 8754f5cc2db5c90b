//! `metro_1m` — the million-user metro: the ROADMAP north-star workload,
//! end to end, emitting a BENCH JSON point with first-class memory figures.
//!
//! One run of the full pipeline at metropolitan scale: the `metro_like`
//! generator at one million subscribers and two-level sharding (outer
//! spatial Z-order cut, inner activity cut). The JSON records, next to the
//! usual counters, the memory ledger: peak arena bytes, peak sample bytes
//! (32 per sample the arenas' slots hold) and the kernel's own peak-RSS
//! (`VmHWM`), which the scheduled CI job compares against a committed
//! `BENCH_metro_1m.json` baseline.
//!
//! The run checks k-anonymity and subscriber conservation. The published
//! bytes themselves are pinned in the push gate: `exact_work` digests the
//! releases of fixed-seed metro inputs, and `kernel_identity` holds every
//! Eq. 10 kernel to the naive scan's bits.
//!
//! Modes mirror the other e2e benches: `--bench` runs the full million
//! (about an hour single-core — sized for the scheduled CI job, not the
//! push gate), `--test` shrinks everything for CI smoke runs, and
//! `--users N` overrides either way.

use glove_bench::metro_bench_dataset;
use glove_core::glove::anonymize;
use glove_core::{GloveConfig, ShardPolicy};
use std::time::Instant;

/// Target subscribers per two-level shard: small enough that one shard's
/// pair matrix stays cache-friendly, large enough that the under-`k`
/// coalescer never fires on real populations.
const USERS_PER_SHARD: usize = 1_000;

fn config(users: usize) -> GloveConfig {
    let shards = (users / USERS_PER_SHARD).max(1);
    GloveConfig {
        k: 2,
        threads: 0,
        shard: (shards > 1).then(|| ShardPolicy::two_level(shards)),
        ..GloveConfig::default()
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let test_mode = args.iter().any(|a| a == "--test") || !args.iter().any(|a| a == "--bench");
    let mut users = if test_mode { 2_000 } else { 1_000_000 };
    if let Some(pos) = args.iter().position(|a| a == "--users") {
        users = args
            .get(pos + 1)
            .and_then(|v| v.parse().ok())
            .expect("--users N");
    }

    eprintln!("[metro_1m] generating metro_like ({users} users)…");
    let started = Instant::now();
    let ds = metro_bench_dataset(users);
    let generate_s = started.elapsed().as_secs_f64();
    let samples = ds.num_samples();
    let shards = (users / USERS_PER_SHARD).max(1);

    eprintln!("[metro_1m] two-level sharded run ({shards} shards, {samples} samples)…");
    let started = Instant::now();
    let out = anonymize(&ds, &config(users)).expect("run succeeds");
    let elapsed_s = started.elapsed().as_secs_f64();
    assert!(out.dataset.is_k_anonymous(2));
    assert_eq!(out.dataset.num_users(), users);

    let ledger = out.stats.ledger;
    assert!(
        ledger.peak_rss_bytes > 0 || !cfg!(target_os = "linux"),
        "peak-RSS must be readable on Linux"
    );
    let pairs_per_s = out.stats.pairs_per_second();
    let json = format!(
        "{{\"name\":\"metro_1m\",\"scenario\":\"metro_like\",\"users\":{users},\
         \"samples\":{samples},\"shards\":{shards},\"mode\":\"{}\",\
         \"generate_s\":{generate_s:.3},\"elapsed_s\":{elapsed_s:.3},\
         \"pairs_per_s\":{pairs_per_s:.0},\
         \"fingerprints_out\":{},\"merges\":{},\"pairs_computed\":{},\
         \"pairs_pruned\":{},\"pairs_skipped_tier0\":{},\"pairs_skipped_tier1\":{},\
         \"pairs_abandoned\":{},\
         \"peak_arena_bytes\":{},\"peak_store_bytes\":{},\"peak_rss_bytes\":{}}}",
        if test_mode { "test" } else { "bench" },
        out.dataset.fingerprints.len(),
        out.stats.merges,
        out.stats.pairs_computed,
        out.stats.pairs_pruned,
        out.stats.pairs_skipped_tier0,
        out.stats.pairs_skipped_tier1,
        out.stats.pairs_abandoned,
        ledger.peak_arena_bytes,
        ledger.peak_store_bytes,
        ledger.peak_rss_bytes,
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
    let path = format!("{dir}/BENCH_metro_1m.json");
    if let Err(e) = std::fs::write(&path, format!("{json}\n")) {
        eprintln!("[metro_1m] could not write {path}: {e}");
    }
    println!(
        "metro_1m/metro_{users}: {shards} two-level shards in {elapsed_s:.1}s \
         ({pairs_per_s:.0} pairs/s); peak arena {:.1} MiB, samples {:.1} MiB, \
         process peak-RSS {:.1} MiB",
        ledger.peak_arena_bytes as f64 / (1 << 20) as f64,
        ledger.peak_store_bytes as f64 / (1 << 20) as f64,
        ledger.peak_rss_bytes as f64 / (1 << 20) as f64,
    );
}
