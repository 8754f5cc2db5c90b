//! Regression pin of the Sticky-vs-Fresh cross-epoch linkage gap — the
//! quantified leak the policy plane's adaptive loop exists to close.
//!
//! On the fixed-seed 600-user metro workload with two-day windows the
//! cross-epoch signature adversary links ~42% of group transitions under
//! `Sticky` carry but only ~17% under `Fresh` (measured 0.4237 vs 0.1729
//! at the pin date). These are the numbers DESIGN.md cites and the
//! adaptive loop (`tests/adaptive_loop.rs`) budgets against; a quiet
//! shift in either one means the stream engine's carry behaviour or the
//! adversary changed, and both the frontier experiment and the tuner's
//! budget need re-reading.
//!
//! A 64-user companion pins the gap's direction on a second input.

use glove::attack::{cross_epoch_attack, CrossEpochAttack, CrossEpochOutcome};
use glove::core::stream::{events_of, run_stream};
use glove::core::{CarryPolicy, Dataset, StreamConfig};
use glove::synth::{generate, ScenarioConfig};

const WINDOW_MIN: u32 = 2_880; // two-day epochs over the metro span

/// The pinned input: `users` metro subscribers on 300 towers, fixed seed.
fn metro(users: usize) -> Dataset {
    let mut cfg = ScenarioConfig::metro_like(users);
    cfg.num_towers = 300;
    cfg.seed = 0x000B_EAC5;
    generate(&cfg).dataset
}

fn linkage(users: usize, carry: CarryPolicy) -> CrossEpochOutcome {
    let ds = metro(users);
    let events = events_of(&ds);
    let config = StreamConfig {
        window_min: WINDOW_MIN,
        carry,
        ..StreamConfig::default()
    };
    let run =
        run_stream(ds.name.clone(), events.iter().copied(), config).expect("streamed run succeeds");
    let epochs: Vec<Dataset> = run.epochs.into_iter().map(|e| e.output.dataset).collect();
    cross_epoch_attack(&epochs, &CrossEpochAttack::default())
}

#[test]
fn metro_600_sticky_vs_fresh_linkage_gap_is_pinned() {
    let fresh = linkage(600, CarryPolicy::Fresh);
    let sticky = linkage(600, CarryPolicy::Sticky);
    assert!(
        fresh.attempts() > 1_000 && sticky.attempts() > 1_000,
        "the adversary must score a real population: {} / {} attempts",
        fresh.attempts(),
        sticky.attempts()
    );
    let (f, s) = (fresh.linkage_rate(), sticky.linkage_rate());
    assert!(
        (0.10..=0.25).contains(&f),
        "fresh linkage drifted from the ~17% pin: {f:.4}"
    );
    assert!(
        (0.35..=0.50).contains(&s),
        "sticky linkage drifted from the ~42% pin: {s:.4}"
    );
    assert!(
        s - f >= 0.15,
        "the sticky-vs-fresh gap collapsed: {s:.4} - {f:.4}"
    );
    // Persistence is the structural side of the same leak: sticky carry
    // republishes group member sets nearly every window, fresh regrouping
    // almost never does.
    assert!(
        sticky.persistence_rate() >= 0.70,
        "sticky persistence drifted: {:.4}",
        sticky.persistence_rate()
    );
    assert!(
        fresh.persistence_rate() <= 0.15,
        "fresh persistence drifted: {:.4}",
        fresh.persistence_rate()
    );
}

/// The direction and rough size of the gap on a smaller population.
#[test]
fn small_metro_sticky_links_well_above_fresh() {
    let fresh = linkage(64, CarryPolicy::Fresh);
    let sticky = linkage(64, CarryPolicy::Sticky);
    assert!(fresh.attempts() > 0 && sticky.attempts() > 0);
    assert!(
        sticky.linkage_rate() >= fresh.linkage_rate() + 0.10,
        "sticky must leak well above fresh: {:.4} vs {:.4}",
        sticky.linkage_rate(),
        fresh.linkage_rate()
    );
    assert!(sticky.persistence_rate() > fresh.persistence_rate());
}
