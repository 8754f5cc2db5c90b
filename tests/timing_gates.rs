//! Timing floors: the repository's three wall-clock claims, each read as
//! the median of alternating pairs rather than one timer read once.
//!
//! * **(a) cascade throughput** — on 600 metro subscribers (k = 2,
//!   `threads: 0`) the cascade settles candidate pairs at least twice as
//!   fast as hull-only seeding (`GloveStats::pairs_per_second`);
//! * **(b) builder overhead** — a run through `RunBuilder` takes at most
//!   1.01 × the direct call + [`BUILDER_SLACK_S`]: a sharded release
//!   (`activity(8)`) against `anonymize`, and a daily-window stream
//!   (`run_events`) against `run_stream`;
//! * **(c) parallel attack** — the multi-point attack on every core beats
//!   one worker whenever more than one worker exists.
//!
//! Each test runs [`PAIRS`] pairs, alternating which side goes first so
//! host drift hits both, prints the medians and quartiles of both sides
//! and of the per-pair figure, and asserts its floor on the median of that
//! figure. Both sides of a pair must also publish the same bytes.
//!
//! Every test is ignored: a timing means something only in a release build
//! on a host nothing else shares, so CI runs them alone, one at a time:
//!
//! ```sh
//! cargo test -q --release --test timing_gates -- --ignored --test-threads=1
//! ```

use glove::attack::{multi_point_attack, AdversaryNoise, MultiPointAttack, PublishedView};
use glove::core::api::{NullObserver, RunBuilder};
use glove::core::glove::anonymize;
use glove::core::parallel::effective_threads;
use glove::core::stream::{events_of, run_stream, EpochOutput};
use glove::core::{
    CarryPolicy, Dataset, Fingerprint, GloveConfig, Pruning, ShardPolicy, StreamConfig,
    UnderKPolicy,
};
use glove::stats::Summary;
use glove::synth::{generate, ScenarioConfig};
use std::time::Instant;

/// Pairs per gate.
const PAIRS: usize = 10;

/// Subscribers in every gate's input.
const USERS: usize = 600;

/// The builder floor's fixed slack, seconds: about the whole 600-user
/// sharded run (direct medians 0.045–0.060 s on a 2-vCPU host) and a
/// third of the daily-window stream (0.13–0.17 s), so an overhead of that
/// order fails the floor.
const BUILDER_SLACK_S: f64 = 0.05;

/// The gates' input: `users` metro subscribers on 300 towers, fixed seed.
fn metro(users: usize) -> Dataset {
    let mut cfg = ScenarioConfig::metro_like(users);
    cfg.num_towers = 300;
    cfg.seed = 0x000B_EAC5;
    generate(&cfg).dataset
}

/// Runs [`PAIRS`] pairs of `a` and `b`, `a` first in even pairs and `b`
/// first in odd ones, and returns each side's figures in pair order.
fn alternate<T>(
    mut a: impl FnMut() -> (f64, T),
    mut b: impl FnMut() -> (f64, T),
    same: impl Fn(&T, &T) -> bool,
) -> (Vec<f64>, Vec<f64>) {
    let mut xs = Vec::with_capacity(PAIRS);
    let mut ys = Vec::with_capacity(PAIRS);
    for pair in 0..PAIRS {
        let ((x, tx), (y, ty)) = if pair % 2 == 0 {
            let first = a();
            (first, b())
        } else {
            let second = b();
            (a(), second)
        };
        assert!(
            same(&tx, &ty),
            "pair {pair}: the two sides published different bytes"
        );
        xs.push(x);
        ys.push(y);
    }
    (xs, ys)
}

/// Prints the median and quartiles of `values` and returns the median.
fn summarize(label: &str, unit: &str, values: &[f64]) -> f64 {
    let s = Summary::of(values).expect("finite figures");
    println!(
        "{label}: median {:.4} {unit}, quartiles {:.4}–{:.4} ({} runs)",
        s.median, s.p25, s.p75, s.n
    );
    s.median
}

/// Seconds one call of `f` takes, with its result.
fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let started = Instant::now();
    let out = f();
    (started.elapsed().as_secs_f64(), out)
}

#[test]
#[ignore = "timing floor: release build on an unshared host (see the module doc)"]
fn cascade_settles_pairs_twice_as_fast_as_hull_only() {
    let ds = metro(USERS);
    let run = |pruning| {
        let config = GloveConfig {
            k: 2,
            threads: 0,
            pruning,
            ..GloveConfig::default()
        };
        let out = anonymize(&ds, &config).expect("anonymization succeeds");
        (out.stats.pairs_per_second(), out.dataset.fingerprints)
    };
    let (cascade, hull) = alternate(
        || run(Pruning::Cascade),
        || run(Pruning::HullOnly),
        |a, b| a == b,
    );
    summarize("cascade", "decisions/s", &cascade);
    summarize("hull-only", "decisions/s", &hull);
    let ratios: Vec<f64> = cascade.iter().zip(&hull).map(|(c, h)| c / h).collect();
    let ratio = summarize("cascade / hull-only", "x", &ratios);
    assert!(
        ratio >= 2.0,
        "cascade must at least double hull-only decision throughput: median ratio {ratio:.2}"
    );
}

/// Asserts the builder's overhead floor on per-pair seconds.
fn assert_builder_overhead(label: &str, builder: &[f64], direct: &[f64]) {
    summarize(&format!("{label}, builder"), "s", builder);
    summarize(&format!("{label}, direct"), "s", direct);
    let slack: Vec<f64> = builder
        .iter()
        .zip(direct)
        .map(|(b, d)| b - 1.01 * d)
        .collect();
    let slack = summarize(&format!("{label}, builder - 1.01 x direct"), "s", &slack);
    assert!(
        slack <= BUILDER_SLACK_S,
        "{label}: builder overhead above 1 % + {BUILDER_SLACK_S} s: median excess {slack:.3} s"
    );
}

#[test]
#[ignore = "timing floor: release build on an unshared host (see the module doc)"]
fn sharded_builder_costs_no_more_than_the_direct_call() {
    let ds = metro(USERS);
    let config = GloveConfig {
        k: 2,
        threads: 0,
        ..GloveConfig::default()
    };
    let sharded = GloveConfig {
        shard: Some(ShardPolicy::activity(8)),
        ..config
    };
    let (builder, direct) = alternate(
        || {
            let (s, outcome) = timed(|| {
                RunBuilder::new(config)
                    .sharded(ShardPolicy::activity(8))
                    .run(&ds)
                    .expect("builder run succeeds")
            });
            (s, outcome.expect_dataset().fingerprints)
        },
        || {
            let (s, out) = timed(|| anonymize(&ds, &sharded).expect("direct run succeeds"));
            (s, out.dataset.fingerprints)
        },
        |a, b| a == b,
    );
    assert_builder_overhead("sharded", &builder, &direct);
}

#[test]
#[ignore = "timing floor: release build on an unshared host (see the module doc)"]
fn stream_builder_costs_no_more_than_the_direct_call() {
    let ds = metro(USERS);
    let events = events_of(&ds);
    let config = StreamConfig {
        window_min: 1_440,
        carry: CarryPolicy::Fresh,
        under_k: UnderKPolicy::Defer,
        glove: GloveConfig::default(),
    };
    let epochs = |outputs: &[EpochOutput]| -> Vec<Vec<Fingerprint>> {
        outputs
            .iter()
            .map(|e| e.output.dataset.fingerprints.clone())
            .collect()
    };
    let (builder, direct) = alternate(
        || {
            let (s, outcome) = timed(|| {
                RunBuilder::new(config.glove)
                    .stream(config)
                    .run_events(
                        &ds.name,
                        &mut events.iter().copied().map(Ok),
                        &mut NullObserver,
                    )
                    .expect("builder run succeeds")
            });
            (s, epochs(outcome.output.epochs()))
        },
        || {
            let (s, run) = timed(|| {
                run_stream(ds.name.clone(), events.iter().copied(), config)
                    .expect("direct run succeeds")
            });
            (s, epochs(&run.epochs))
        },
        |a, b| a == b,
    );
    assert_builder_overhead("daily-window stream", &builder, &direct);
}

#[test]
#[ignore = "timing floor: release build on an unshared host (see the module doc)"]
fn parallel_attack_beats_one_worker() {
    if effective_threads(0) <= 1 {
        println!("one worker only: nothing to compare");
        return;
    }
    let ds = metro(USERS);
    let published = anonymize(&ds, &GloveConfig::default())
        .expect("anonymization succeeds")
        .dataset;
    let cfg = MultiPointAttack {
        points: 4,
        trials: 400,
        seed: 0x00A7_7AC4,
        noise: AdversaryNoise::exact(),
        threads: 0,
    };
    let attack = |threads| {
        let cfg = MultiPointAttack { threads, ..cfg };
        timed(|| multi_point_attack(&ds, &PublishedView::Dataset(&published), &cfg))
    };
    let (single, parallel) = alternate(|| attack(1), || attack(0), |a, b| a == b);
    summarize("one worker", "s", &single);
    summarize("every core", "s", &parallel);
    let speedups: Vec<f64> = single.iter().zip(&parallel).map(|(s, p)| s / p).collect();
    let speedup = summarize("speedup", "x", &speedups);
    assert!(
        speedup > 1.0,
        "the parallel attack is no faster than one worker: median speedup {speedup:.2}"
    );
}
