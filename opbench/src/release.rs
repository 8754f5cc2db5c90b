//! `release-sharded`: operator path 1 at the shape of the scale path.
//!
//! A metro dataset file of 5,000 subscribers (14 days, about 41 samples
//! each) is read with `io::read_file`, anonymized by
//! `RunBuilder::sharded(ShardPolicy::two_level(16))` with k = 2, Table 2
//! suppression and 2 threads, and written with `io::write_file`. The
//! cascade engages on every shard and the greedy loop takes nearly all of
//! the wall time, so engine, kernel and shard changes show here while the
//! serve layers are idle.

use crate::stats::{mean, median};
use crate::{kernels, probe, repeat_for, Ctx, Outcome};
use glove_cli::io;
use glove_core::accuracy::{position_accuracy_m, time_accuracy_min};
use glove_core::api::RunBuilder;
use glove_core::config::{GloveConfig, ShardPolicy, SuppressionThresholds};
use glove_core::glove::GloveStats;
use glove_core::{shard, Dataset};
use glove_synth::ScenarioConfig;
use std::time::Instant;

const USERS: usize = 5_000;
const SHARDS: usize = 16;
const THREADS: usize = 2;
const K: usize = 2;
/// `io::read_file` repetitions timed for `setup_s` before each release and
/// after the last, so the median sees the whole run's host conditions.
const SETUP_READS: usize = 2;

fn glove_config() -> GloveConfig {
    GloveConfig {
        k: K,
        suppression: SuppressionThresholds::table2(),
        threads: THREADS,
        ..GloveConfig::default()
    }
}

/// The exact work counters of a release; they must repeat on every
/// release of the same input.
fn counters(stats: &GloveStats) -> [u64; 8] {
    [
        stats.merges,
        stats.pairs_computed,
        stats.pairs_pruned,
        stats.pairs_skipped_tier0,
        stats.pairs_skipped_tier1,
        stats.pairs_abandoned,
        stats.suppressed.user_samples,
        stats.reshaped_samples,
    ]
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let started = Instant::now();
    let mut cfg = ScenarioConfig::metro_like(USERS);
    cfg.seed = ctx.scenario_seed(1);
    let input = ctx.tmp.join("metro.txt");
    let (users_in, user_samples_in) = {
        let synth = glove_synth::generate(&cfg);
        io::write_file(&synth.dataset, &input).map_err(|e| format!("writing input: {e}"))?;
        (synth.dataset.num_users(), synth.dataset.num_user_samples())
    };
    println!(
        "input: {users_in} subscribers, {user_samples_in} samples ({:.1} per subscriber), generated in {:.2} s",
        user_samples_in as f64 / users_in as f64,
        started.elapsed().as_secs_f64()
    );
    probe::reset_peak_rss().map_err(|e| format!("resetting VmHWM: {e}"))?;

    let read = |path| io::read_file(path).map_err(|e| format!("reading {}: {e}", path.display()));
    let setup_reads = || -> Result<Vec<f64>, String> {
        (0..SETUP_READS)
            .map(|_| {
                let start = Instant::now();
                read(&input).map(|ds| {
                    drop(ds);
                    start.elapsed().as_secs_f64()
                })
            })
            .collect()
    };
    let mut setup = Vec::new();

    let config = glove_config();
    let output = ctx.tmp.join("release.txt");
    let tracer = &ctx.tracer;
    let mut outcome = Outcome::default();
    let mut release_s: Vec<(bool, f64)> = Vec::new();
    let mut reference: Option<[u64; 8]> = None;
    let mut last: Option<GloveStats> = None;
    // A traced run alternates untraced and traced releases so the
    // difference between the two is the tracing overhead.
    let min_releases = if ctx.trace { 2 } else { 1 };
    let releases = repeat_for(ctx.seconds, min_releases, |i| {
        setup.extend(setup_reads()?);
        let traced = ctx.trace && i % 2 == 1;
        tracer.set_enabled(traced);
        let root = tracer.open();
        let t0 = Instant::now();
        let ds: Dataset = tracer.span("io.read_file", Some(root), i, || read(&input))?;
        let run = tracer
            .span("glove.run", Some(root), i, || {
                RunBuilder::new(config)
                    .sharded(ShardPolicy::two_level(SHARDS))
                    .run(&ds)
            })
            .map_err(|e| format!("release {i}: {e}"))?;
        let released = run
            .output
            .dataset()
            .ok_or("the sharded engine returned epochs, not a release")?;
        tracer
            .span("io.write_file", Some(root), i, || {
                io::write_file(released, &output)
            })
            .map_err(|e| format!("writing release: {e}"))?;
        let t1 = Instant::now();
        tracer.record(root, None, "release", i, t0, t1);
        tracer.set_enabled(false);
        release_s.push((traced, (t1 - t0).as_secs_f64()));

        let stats = run
            .report
            .detail
            .as_glove()
            .ok_or("sharded report carries no GLOVE statistics")?
            .clone();
        outcome.check(
            released.is_k_anonymous(K) && released.num_users() == users_in,
            || {
                format!(
                    "release {i}: {} of {users_in} subscribers, {}-anonymous: {}",
                    released.num_users(),
                    K,
                    released.is_k_anonymous(K)
                )
            },
        );
        let now = counters(&stats);
        let expected = *reference.get_or_insert(now);
        outcome.require(now == expected, || {
            format!(
                "release {i}: work counters {now:?} differ from the first release's {expected:?}"
            )
        });
        if traced || last.is_none() {
            last = Some(stats);
        }
        Ok(())
    })?;
    setup.extend(setup_reads()?);
    let peak_rss_mb = probe::peak_rss_mib()?;
    let stats = last.expect("at least one release ran");

    // The release file as an operator would receive it.
    let back = read(&output)?;
    let release_bytes = std::fs::metadata(&output).map_or(0, |m| m.len());
    outcome.require(
        back.is_k_anonymous(K) && back.num_users() == users_in,
        || "the release file read back is not a k-anonymous cover of every subscriber".into(),
    );
    let retention = 1.0 - stats.suppressed.user_samples as f64 / user_samples_in as f64;
    let untraced: Vec<f64> = release_s.iter().filter(|r| !r.0).map(|r| r.1).collect();
    let release = median(&untraced);
    println!(
        "{releases} releases: {:.3?} s; median {:.3} s, {} k={K} groups",
        release_s.iter().map(|r| r.1).collect::<Vec<_>>(),
        release,
        back.fingerprints.len(),
    );
    println!(
        "counters: merges {} pairs {} computed {} tier0 {} tier1 {} abandoned {}",
        stats.merges,
        stats.candidate_pairs(),
        stats.pairs_computed,
        stats.pairs_skipped_tier0,
        stats.pairs_skipped_tier1,
        stats.pairs_abandoned
    );

    let e = &mut outcome.end_to_end;
    e.insert("release_s", release);
    e.insert("ingest_events_per_s", user_samples_in as f64 / release);
    println!("setup_s: median of {} io::read_file calls", setup.len());
    e.insert("setup_s", median(&setup));
    e.insert("peak_rss_mb", peak_rss_mb);
    e.insert("retention", retention);
    e.insert("pos_accuracy_m", mean(&position_accuracy_m(&back)));
    e.insert("time_accuracy_min", mean(&time_accuracy_min(&back)));

    if ctx.trace {
        tracer.set_enabled(true);
        let input_ds = read(&input)?;
        let partition_s = median(
            &(0..3u32)
                .map(|rep| {
                    let start = Instant::now();
                    std::hint::black_box(shard::partition(
                        &input_ds,
                        &ShardPolicy::two_level(SHARDS),
                        &config,
                    ));
                    let end = Instant::now();
                    tracer.record(tracer.open(), None, "shard.partition", rep, start, end);
                    (end - start).as_secs_f64()
                })
                .collect::<Vec<_>>(),
        );
        let k = kernels::probe(&input_ds.fingerprints, &config.stretch, ctx.seed, tracer);
        tracer.set_enabled(false);

        let layers = ctx.tracer.layers();
        let mean_span = |name: &str| layers.get(name).map_or(0.0, |t| t.total_s / t.count as f64);
        let traced: Vec<f64> = release_s.iter().filter(|r| r.0).map(|r| r.1).collect();
        let shard_max = stats
            .per_shard
            .iter()
            .map(|s| s.elapsed_s)
            .fold(0.0, f64::max);
        let shard_mean =
            stats.per_shard.iter().map(|s| s.elapsed_s).sum::<f64>() / stats.per_shard.len() as f64;
        let l = &mut outcome.layers;
        crate::zero_layers(l);
        l.insert("io.read_file_s", mean_span("io.read_file"));
        l.insert("io.write_file_s", mean_span("io.write_file"));
        l.insert("io.release_bytes", release_bytes as f64);
        l.insert("shard.partition_s", partition_s);
        l.insert("shard.max_s", shard_max);
        l.insert("shard.skew", shard_max / shard_mean);
        l.insert("glove.run_s", mean_span("glove.run"));
        l.insert("glove.candidate_pairs", stats.candidate_pairs() as f64);
        l.insert("glove.pairs_computed", stats.pairs_computed as f64);
        l.insert("glove.pairs_tier0", stats.pairs_skipped_tier0 as f64);
        l.insert("glove.pairs_tier1", stats.pairs_skipped_tier1 as f64);
        l.insert("glove.pairs_abandoned", stats.pairs_abandoned as f64);
        l.insert("glove.merges", stats.merges as f64);
        l.insert("glove.pairs_per_s", stats.pairs_per_second());
        l.insert("compact.signature_build_s", k.signature_build_s);
        l.insert(
            "ledger.peak_arena_mb",
            stats.ledger.peak_arena_bytes as f64 / 1048576.0,
        );
        l.insert(
            "ledger.peak_store_mb",
            stats.ledger.peak_store_bytes as f64 / 1048576.0,
        );
        l.insert("stretch.kernel_pairs_per_s", k.kernel_pairs_per_s);
        l.insert("stretch.hull_build_s", k.hull_build_s);
        l.insert("suppress.samples", stats.suppressed.samples as f64);
        l.insert("reshape.samples", stats.reshaped_samples as f64);
        l.insert(
            "trace.overhead_pct",
            (median(&traced) - release) / release * 100.0,
        );
        println!(
            "tracing overhead on release_s: traced {:.4} s vs untraced {:.4} s",
            median(&traced),
            release
        );
    }
    Ok(outcome)
}
