//! The attack-guided policy loop's contract, end to end on the metro
//! workload (DESIGN.md "The policy plane and the adaptive loop").
//!
//! The loop runs the most exposed configuration (Sticky carry at the base
//! k), scores it with the cross-epoch linkage adversary, hands the attack
//! report to [`glove::attack::adapt_policy`] against the default
//! [`glove::attack::AttackBudget`], and re-runs the same feed under the
//! adapted plane. The contract:
//!
//! * the Sticky run leaks more than a Fresh run, so there is something to
//!   close;
//! * the tuner takes at least one action;
//! * the adapted run links no more than the Fresh run;
//! * its k-retention stays within 10 points of the Sticky run's.

use glove::attack::{
    adapt_policy, cross_epoch_attack, Attack, AttackBudget, CrossEpochAttack, PublishedView,
};
use glove::core::api::{NullObserver, RunBuilder};
use glove::core::policy::PolicyPlane;
use glove::core::stream::{events_of, StreamEvent};
use glove::core::{CarryPolicy, Dataset, StreamConfig};
use glove::synth::{generate, ScenarioConfig};

const WINDOW_MIN: u32 = 2_880; // two-day epochs over the metro span

/// The loop's input: `users` metro subscribers on 300 towers, fixed seed.
fn metro(users: usize) -> Dataset {
    let mut cfg = ScenarioConfig::metro_like(users);
    cfg.num_towers = 300;
    cfg.seed = 0x000B_EAC5;
    generate(&cfg).dataset
}

/// A streamed release and what the cross-epoch adversary makes of it.
struct Scored {
    linkage: f64,
    /// Published subscriber slices over those that entered a window.
    retention: f64,
    published: Vec<Dataset>,
}

fn run_scored(
    name: &str,
    events: &[StreamEvent],
    base: &StreamConfig,
    plane: Option<&PolicyPlane>,
) -> Scored {
    let mut builder = RunBuilder::new(base.glove).stream(*base);
    if let Some(plane) = plane {
        builder = builder.policy(plane.clone());
    }
    let run = builder
        .run_events(name, &mut events.iter().copied().map(Ok), &mut NullObserver)
        .expect("stream succeeds");
    let stats = run.report.detail.as_stream().expect("stream detail");
    let entered = stats.entered_user_slices() + stats.suppressed_users;
    let published: Vec<Dataset> = run
        .output
        .epochs()
        .iter()
        .map(|e| e.output.dataset.clone())
        .collect();
    let kept: u64 = published.iter().map(|d| d.num_users() as u64).sum();
    Scored {
        linkage: cross_epoch_attack(&published, &CrossEpochAttack::default()).linkage_rate(),
        retention: kept as f64 / entered.max(1) as f64,
        published,
    }
}

#[test]
fn metro_600_adaptive_loop_closes_the_linkage_gap() {
    let ds = metro(600);
    let events = events_of(&ds);
    let base_of = |carry| StreamConfig {
        window_min: WINDOW_MIN,
        carry,
        ..StreamConfig::default()
    };
    let fresh = run_scored(&ds.name, &events, &base_of(CarryPolicy::Fresh), None);
    let sticky_base = base_of(CarryPolicy::Sticky);
    let sticky = run_scored(&ds.name, &events, &sticky_base, None);

    // One tuner round on the sticky run's attack report.
    let report = CrossEpochAttack::default()
        .run(&ds, &PublishedView::Epochs(&sticky.published))
        .expect("cross-epoch attack runs");
    assert_eq!(report.success_rate, sticky.linkage);
    let adapted_plane = adapt_policy(
        &PolicyPlane::uniform(),
        &sticky_base,
        std::slice::from_ref(&report),
        &AttackBudget::default(),
        0,
    )
    .expect("adaptation succeeds");
    let adapted = run_scored(&ds.name, &events, &sticky_base, Some(&adapted_plane.plane));

    assert!(
        sticky.linkage > fresh.linkage,
        "sticky must leak more than fresh: {:.4} vs {:.4}",
        sticky.linkage,
        fresh.linkage
    );
    assert!(
        !adapted_plane.actions.is_empty(),
        "an over-budget sticky run must trigger at least one action"
    );
    assert!(
        adapted.linkage <= fresh.linkage + 1e-9,
        "adapted linkage {:.4} above the fresh baseline {:.4}",
        adapted.linkage,
        fresh.linkage
    );
    assert!(
        adapted.retention >= sticky.retention - 0.10,
        "adapted run gave up too much k-retention: {:.4} vs sticky {:.4}",
        adapted.retention,
        sticky.retention
    );
}
