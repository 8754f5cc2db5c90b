//! `stream_e2e` — end-to-end streamed vs batch GLOVE on the `metro_like`
//! scenario, emitting a BENCH JSON point.
//!
//! Like `sharded_e2e`, this target measures full runs directly rather than
//! through the Criterion shim: one monolithic batch run and streamed runs
//! (daily windows, fresh carry) over the same events — under the default
//! `Pruning::Cascade` and under `Pruning::HullOnly` for the before/after
//! delta. Daily windows sit below the cascade's engagement gate, so both
//! runs seed hull bounds — printing a `BENCH {...}` line and writing the
//! JSON point to `BENCH_stream_e2e.json` so CI can archive the trajectory.
//!
//! The two fingerprints CI watches:
//!
//! * **events/s** — streamed anonymization throughput, end to end;
//! * **peak-resident fingerprints/samples** — the engine's memory bound,
//!   which must follow the *window* population, not the dataset: the run
//!   asserts `peak_resident_samples` stays well below the dataset's sample
//!   count and `peak_resident_fingerprints` within the largest window's
//!   population.
//!
//! Modes mirror the criterion shim: `--bench` measures at full size,
//! `--test` (CI smoke) shrinks the population. `--users N` overrides.

use glove_bench::metro_bench_dataset;
use glove_core::api::{NullObserver, RunBuilder};
use glove_core::glove::anonymize;
use glove_core::stream::{events_of, run_stream};
use glove_core::{CarryPolicy, GloveConfig, Pruning, StreamConfig, UnderKPolicy};
use std::time::Instant;

const WINDOW_MIN: u32 = 1_440; // daily epochs over the 14-day metro span

/// Wall-clock slack absorbing single-run timer noise when asserting the
/// run-API overhead bound (the recorded JSON carries the raw ratio).
const OVERHEAD_SLACK_S: f64 = 0.25;

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

    eprintln!("[stream_e2e] generating metro_like ({users} users)…");
    let ds = metro_bench_dataset(users);
    let samples = ds.num_samples();
    let events = events_of(&ds);

    eprintln!("[stream_e2e] monolithic batch run…");
    let started = Instant::now();
    let batch = anonymize(&ds, &GloveConfig::default()).expect("batch run succeeds");
    let batch_s = started.elapsed().as_secs_f64();

    eprintln!("[stream_e2e] streamed run ({WINDOW_MIN} min windows, fresh carry)…");
    let config = StreamConfig {
        window_min: WINDOW_MIN,
        carry: CarryPolicy::Fresh,
        under_k: UnderKPolicy::Defer,
        glove: GloveConfig::default(),
    };
    let started = Instant::now();
    let run =
        run_stream(ds.name.clone(), events.iter().copied(), config).expect("streamed run succeeds");
    let stream_s = started.elapsed().as_secs_f64();

    // The same streamed run with the distance cascade off (tier-1 hull
    // pruning only): the before/after delta of the hot-loop cascade, on
    // record in the JSON. Daily metro windows hold ~4 samples per
    // fingerprint — below the cascade's mean-length engagement gate — so
    // the delta here is expected to sit near 1.0 (the gate exists exactly
    // because tier 0 measured ~0.8x on this workload); the batch-regime
    // delta lives in BENCH_hotloop.json. The cascade is a pure filter, so
    // every epoch's published output must not move.
    eprintln!("[stream_e2e] streamed run, cascade off (before/after delta)…");
    let precascade_config = StreamConfig {
        glove: GloveConfig {
            pruning: Pruning::HullOnly,
            ..GloveConfig::default()
        },
        ..config
    };
    let started = Instant::now();
    let precascade = run_stream(ds.name.clone(), events.iter().copied(), precascade_config)
        .expect("streamed run succeeds");
    let precascade_s = started.elapsed().as_secs_f64();
    let cascade_speedup = precascade_s / stream_s.max(1e-9);
    assert_eq!(precascade.epochs.len(), run.epochs.len());
    for (before, after) in precascade.epochs.iter().zip(&run.epochs) {
        assert_eq!(
            before.output.dataset.fingerprints, after.output.dataset.fingerprints,
            "cascade changed the streamed output at epoch {}",
            after.epoch
        );
    }

    // The same streamed run through the unified run API (bounded-memory
    // run_events path): epoch outputs must be identical and the
    // orchestration overhead negligible (< 1% with timer-noise slack; the
    // raw ratio is recorded in the JSON).
    eprintln!("[stream_e2e] streamed run through RunBuilder…");
    let started = Instant::now();
    let outcome = RunBuilder::new(config.glove)
        .stream(config)
        .run_events(
            &ds.name,
            &mut events.iter().copied().map(Ok),
            &mut NullObserver,
        )
        .expect("builder run succeeds");
    let api_s = started.elapsed().as_secs_f64();
    let api_overhead_pct = (api_s / stream_s.max(1e-9) - 1.0) * 100.0;
    let api_epochs = outcome.output.epochs();
    assert_eq!(api_epochs.len(), run.epochs.len());
    for (new, old) in api_epochs.iter().zip(&run.epochs) {
        assert_eq!(
            new.output.dataset.fingerprints, old.output.dataset.fingerprints,
            "run API diverged from the direct streamed call at epoch {}",
            old.epoch
        );
    }
    assert!(
        api_s <= stream_s * 1.01 + OVERHEAD_SLACK_S,
        "run-API overhead too high: direct {stream_s:.3} s vs builder {api_s:.3} s \
         ({api_overhead_pct:.2}%)"
    );

    // The benchmark doubles as an invariant check.
    assert!(batch.dataset.is_k_anonymous(2));
    assert_eq!(batch.dataset.num_users(), users);
    for epoch in &run.epochs {
        assert!(epoch.output.dataset.is_k_anonymous(2));
    }
    let max_window_users = run
        .stats
        .per_epoch
        .iter()
        .map(|e| e.users_in)
        .max()
        .unwrap_or(0);
    // Memory follows the window, not the dataset: the sample high-water
    // mark must sit far below the dataset (daily windows over a 14-day
    // span), and the fingerprint mark within the largest window population
    // (deferred under-k users ride along).
    assert!(
        run.stats.peak_resident_samples * 2 < samples,
        "peak resident samples {} not bounded by the window (dataset {})",
        run.stats.peak_resident_samples,
        samples
    );
    assert!(
        run.stats.peak_resident_fingerprints
            <= max_window_users + run.stats.deferred_users as usize,
        "peak resident fingerprints {} exceeded the window population {}",
        run.stats.peak_resident_fingerprints,
        max_window_users
    );
    // The arenas' slot samples obey the same bound: they peak at one
    // window's samples (plus merge products), never at the dataset — half
    // the bytes of the whole dataset's samples is a generous ceiling with
    // daily windows over a 14-day span.
    let dataset_vec_bytes = samples as u64 * std::mem::size_of::<glove_core::Sample>() as u64;
    assert!(
        run.stats.ledger.peak_store_bytes * 2 < dataset_vec_bytes,
        "peak sample bytes {} not bounded by the window (whole dataset {} bytes)",
        run.stats.ledger.peak_store_bytes,
        dataset_vec_bytes
    );

    let events_per_s = run.stats.events as f64 / stream_s.max(1e-9);
    let json = format!(
        "{{\"name\":\"stream_e2e\",\"scenario\":\"metro_like\",\"users\":{users},\
         \"samples\":{samples},\"events\":{},\"window_min\":{WINDOW_MIN},\"mode\":\"{}\",\
         \"batch_s\":{batch_s:.3},\"stream_s\":{stream_s:.3},\"stream_api_s\":{api_s:.3},\
         \"stream_precascade_s\":{precascade_s:.3},\"cascade_speedup\":{cascade_speedup:.2},\
         \"api_overhead_pct\":{api_overhead_pct:.2},\"events_per_s\":{events_per_s:.0},\
         \"epochs\":{},\"peak_resident_fingerprints\":{},\"max_window_users\":{max_window_users},\
         \"peak_resident_samples\":{},\"suppressed_user_slices\":{},\
         \"deferred_user_slices\":{},\
         \"stream_tier0\":{},\"stream_tier1\":{},\"stream_abandoned\":{},\
         \"peak_arena_bytes\":{},\"peak_store_bytes\":{},\"peak_rss_bytes\":{}}}",
        run.stats.events,
        if test_mode { "test" } else { "bench" },
        run.stats.epochs,
        run.stats.peak_resident_fingerprints,
        run.stats.peak_resident_samples,
        run.stats.suppressed_users,
        run.stats.deferred_users,
        run.stats.pairs_skipped_tier0,
        run.stats.pairs_skipped_tier1,
        run.stats.pairs_abandoned,
        run.stats.ledger.peak_arena_bytes,
        run.stats.ledger.peak_store_bytes,
        run.stats.ledger.peak_rss_bytes,
    );
    println!("BENCH {json}");
    // Benches run with the package as working directory; anchor the JSON at
    // the workspace root so CI can pick up BENCH_*.json uniformly (see
    // sharded_e2e for the fallback rationale).
    let dir = std::env::var("BENCH_DIR").unwrap_or_else(|_| {
        let root = format!("{}/../..", env!("CARGO_MANIFEST_DIR"));
        if std::path::Path::new(&root).is_dir() {
            root
        } else {
            ".".to_string()
        }
    });
    let path = format!("{dir}/BENCH_stream_e2e.json");
    if let Err(e) = std::fs::write(&path, format!("{json}\n")) {
        eprintln!("[stream_e2e] could not write {path}: {e}");
    }
    println!(
        "stream_e2e/metro_{users}: batch {batch_s:.2}s, streamed {stream_s:.2}s \
         (cascade {cascade_speedup:.1}x over hull-only {precascade_s:.2}s; \
         {} daily epochs, {events_per_s:.0} events/s, peak {} fps / {} samples resident \
         vs {} total)",
        run.stats.epochs,
        run.stats.peak_resident_fingerprints,
        run.stats.peak_resident_samples,
        samples
    );
}
