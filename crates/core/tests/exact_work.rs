//! Exact-work pins: the deterministic work of two fixed-seed metro runs.
//!
//! The greedy loop's merge order, the cascade's tier attribution and the
//! published bytes are pure functions of the input, so a change that only
//! reorganises *how* the engine walks its candidates must leave every one of
//! these numbers where it is. A moved number means the walk order moved:
//! different cells reached a tier, or a tie broke on a different partner.
//!
//! Two inputs cover both sides of the cascade's engagement gate:
//!
//! * a daily-window stream (~4 samples per fingerprint, hull-only pruning,
//!   no early abandonment) — the shape of operator path 2;
//! * a two-level sharded batch release (~41 samples per fingerprint, the
//!   full cascade) — the shape of operator path 1.
//!
//! Each input runs at k = 2, the operator workloads' setting, where every
//! merge of two singletons is final, and at k = 3, where merged fingerprints
//! re-enter the arena: their rows are filled by a fresh walk, partners
//! escalate the new cells against their cached minima, and the arena
//! compacts. Every run uses two engine threads, so the parallel matrix build
//! and the parallel shard fan-out are part of what is pinned.
//!
//! The oracle modes run the same fixtures: `Pruning::Off` seeds every cell
//! exact (the paper's full-matrix kernel) on both inputs, and
//! `Pruning::HullOnly` seeds hull bounds on the sharded release (on the
//! stream it is the production mode already). Their rows pin the oracles'
//! own work, and each row's digest is the production row's digest at the
//! same k: every mode publishes the same bytes.

use glove_core::api::{NullObserver, RunBuilder, RunReport};
use glove_core::config::{
    CarryPolicy, GloveConfig, Pruning, ShardPolicy, StreamConfig, SuppressionThresholds,
    UnderKPolicy,
};
use glove_core::{Dataset, Fingerprint};
use glove_synth::{generate, ScenarioConfig, ScenarioEvents};

/// The exact work of one run and a digest of what it published.
#[derive(Debug, PartialEq, Eq)]
struct Work {
    k: usize,
    merges: u64,
    pairs_computed: u64,
    pairs_pruned: u64,
    tier0: u64,
    tier1: u64,
    abandoned: u64,
    digest: u64,
}

impl Work {
    fn of(k: usize, r: &RunReport, digest: Fnv) -> Self {
        Self {
            k,
            merges: r.merges,
            pairs_computed: r.pairs_computed,
            pairs_pruned: r.pairs_pruned,
            tier0: r.pairs_skipped_tier0,
            tier1: r.pairs_skipped_tier1,
            abandoned: r.pairs_abandoned,
            digest: digest.0,
        }
    }
}

/// FNV-1a over a little-endian word stream.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn fingerprint(&mut self, fp: &Fingerprint) {
        self.word(fp.users().len() as u64);
        for &u in fp.users() {
            self.word(u64::from(u));
        }
        self.word(fp.samples().len() as u64);
        for s in fp.samples() {
            self.word(s.x as u64);
            self.word(s.y as u64);
            self.word(u64::from(s.dx));
            self.word(u64::from(s.dy));
            self.word(u64::from(s.t));
            self.word(u64::from(s.dt));
        }
    }

    fn dataset(&mut self, ds: &Dataset) {
        self.word(ds.fingerprints.len() as u64);
        for fp in &ds.fingerprints {
            self.fingerprint(fp);
        }
    }
}

fn glove_config(k: usize, pruning: Pruning) -> GloveConfig {
    GloveConfig {
        k,
        suppression: SuppressionThresholds::table2(),
        threads: 2,
        pruning,
        ..GloveConfig::default()
    }
}

/// Daily windows over a 14-day metro stream: every arena sits below the
/// cascade gate. Runs at k = 2 and k = 3.
fn daily_stream_work(pruning: Pruning) -> Vec<Work> {
    let mut scenario = ScenarioConfig::metro_like(240);
    scenario.seed = 0x9E37_79B9;
    let events: Vec<_> = ScenarioEvents::new(&scenario).collect();
    [2, 3]
        .into_iter()
        .map(|k| {
            let stream = StreamConfig {
                window_min: 1_440,
                carry: CarryPolicy::Fresh,
                under_k: UnderKPolicy::Suppress,
                glove: glove_config(k, pruning),
            };
            let mut iter = events.iter().copied().map(Ok);
            let outcome = RunBuilder::new(glove_config(k, pruning))
                .stream(stream)
                .run_events("pin-stream", &mut iter, &mut NullObserver)
                .expect("stream run succeeds");
            let mut digest = Fnv::new();
            for epoch in outcome.output.epochs() {
                digest.word(epoch.epoch);
                digest.word(epoch.window_start_min);
                digest.dataset(&epoch.output.dataset);
            }
            assert_eq!(outcome.output.epochs().len(), 14);
            Work::of(k, &outcome.report, digest)
        })
        .collect()
}

/// A two-level sharded release of 14-day fingerprints: every shard clears
/// the cascade gate. Runs at k = 2 and k = 3.
fn sharded_release_work(pruning: Pruning) -> Vec<Work> {
    let mut scenario = ScenarioConfig::metro_like(400);
    scenario.seed = 0x51ED_2701;
    let dataset = generate(&scenario).dataset;
    assert!(
        dataset.num_samples() >= 16 * dataset.fingerprints.len(),
        "input must clear the cascade gate"
    );
    [2, 3]
        .into_iter()
        .map(|k| {
            let outcome = RunBuilder::new(glove_config(k, pruning))
                .sharded(ShardPolicy::two_level(4))
                .run(&dataset)
                .expect("sharded run succeeds");
            let mut digest = Fnv::new();
            digest.dataset(outcome.output.dataset().expect("one release"));
            Work::of(k, &outcome.report, digest)
        })
        .collect()
}

/// The production stream: every arena seeds hull bounds.
#[test]
fn daily_stream_below_the_gate_does_pinned_work() {
    assert_eq!(
        daily_stream_work(Pruning::Cascade),
        [
            Work {
                k: 2,
                merges: 1258,
                pairs_computed: 33617,
                pairs_pruned: 190921,
                tier0: 0,
                tier1: 190921,
                abandoned: 0,
                digest: 10749736970523958424,
            },
            Work {
                k: 3,
                merges: 1717,
                pairs_computed: 52819,
                pairs_pruned: 276515,
                tier0: 0,
                tier1: 276515,
                abandoned: 0,
                digest: 2089264330655700623,
            },
        ]
    );
}

/// The production release: every shard seeds signature bounds, so all
/// three tiers and resumed scans are exercised.
#[test]
fn sharded_release_above_the_gate_does_pinned_work() {
    assert_eq!(
        sharded_release_work(Pruning::Cascade),
        [
            Work {
                k: 2,
                merges: 200,
                pairs_computed: 1637,
                pairs_pruned: 18163,
                tier0: 4487,
                tier1: 2886,
                abandoned: 10790,
                digest: 6233984399905977298,
            },
            Work {
                k: 3,
                merges: 275,
                pairs_computed: 2364,
                pairs_pruned: 26897,
                tier0: 6384,
                tier1: 4344,
                abandoned: 16169,
                digest: 3711053512811730129,
            },
        ]
    );
}

/// The exact oracle on the stream: every pair of every window is
/// evaluated, and the published bytes are the production stream's.
#[test]
fn daily_stream_oracle_does_pinned_work() {
    assert_eq!(
        daily_stream_work(Pruning::Off),
        [
            Work {
                k: 2,
                merges: 1258,
                pairs_computed: 224538,
                pairs_pruned: 0,
                tier0: 0,
                tier1: 0,
                abandoned: 0,
                digest: 10749736970523958424,
            },
            Work {
                k: 3,
                merges: 1717,
                pairs_computed: 329334,
                pairs_pruned: 0,
                tier0: 0,
                tier1: 0,
                abandoned: 0,
                digest: 2089264330655700623,
            },
        ]
    );
}

/// Both oracles on the sharded release: the exact seed evaluates every
/// pair, the hull seed dismisses the rest at tier 1, and both publish the
/// production release's bytes.
#[test]
fn sharded_release_oracles_do_pinned_work() {
    assert_eq!(
        sharded_release_work(Pruning::Off),
        [
            Work {
                k: 2,
                merges: 200,
                pairs_computed: 19800,
                pairs_pruned: 0,
                tier0: 0,
                tier1: 0,
                abandoned: 0,
                digest: 6233984399905977298,
            },
            Work {
                k: 3,
                merges: 275,
                pairs_computed: 29261,
                pairs_pruned: 0,
                tier0: 0,
                tier1: 0,
                abandoned: 0,
                digest: 3711053512811730129,
            },
        ]
    );
    assert_eq!(
        sharded_release_work(Pruning::HullOnly),
        [
            Work {
                k: 2,
                merges: 200,
                pairs_computed: 12512,
                pairs_pruned: 7288,
                tier0: 0,
                tier1: 7288,
                abandoned: 0,
                digest: 6233984399905977298,
            },
            Work {
                k: 3,
                merges: 275,
                pairs_computed: 18672,
                pairs_pruned: 10589,
                tier0: 0,
                tier1: 10589,
                abandoned: 0,
                digest: 3711053512811730129,
            },
        ]
    );
}
