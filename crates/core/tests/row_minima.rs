//! Row minima under the engine's shortcuts: the sweep that settles every
//! row after the matrix build, and the candidate lists that answer stale
//! rescans without scanning the active set.
//!
//! Neither may change a published byte or a work counter. `Pruning::Off`
//! keeps no lists and scans every stale row in full, so it is the oracle:
//! every other mode must publish its bytes, and every mode must report
//! the same stats on one and two threads. Debug builds also check each
//! list hit against a read-only full scan.
//!
//! Inputs are drawn on coarse integer grids, so tied efforts, tied bounds
//! and identical samples are common; fingerprint lengths reach both sides
//! of the cascade's 16-sample engagement gate. At k ≥ 3 merged groups stay
//! active, so lists take appended rows, and runs of 20–150 fingerprints
//! compact their arena once retired slots dominate.
//!
//! CI also runs this file in a release build:
//! `cargo test -q --release -p glove-core --test row_minima`.

use glove_core::glove::{anonymize_with_plan, GloveOutput, GloveStats};
use glove_core::policy::KPlan;
use glove_core::{Dataset, Fingerprint, GloveConfig, Pruning, Sample, UserId};
use proptest::collection::vec;
use proptest::prelude::*;

/// Strategy: a sample on a grid of 8 × 8 cells of 1 km and 24 slots of an
/// hour, with extents of one or two cells and slots.
fn arb_sample() -> impl Strategy<Value = Sample> {
    (0i64..8, 0i64..8, 1u32..3, 0u32..24, 1u32..3).prop_map(|(x, y, d, t, dt)| {
        Sample::new(x * 1_000, y * 1_000, d * 1_000, d * 1_000, t * 60, dt * 60)
            .expect("valid extents")
    })
}

/// Strategy: 20–150 single-subscriber fingerprints of 1–60 samples, each
/// cut to a length cap drawn from 1–60 per dataset, so the mean length
/// falls on either side of the engagement gate. About one subscriber in
/// four repeats an earlier one's samples, so zero efforts tie in groups
/// larger than a list.
fn arb_dataset() -> impl Strategy<Value = Dataset> {
    let fingerprint = (vec(arb_sample(), 1..=60), 0u8..4);
    (vec(fingerprint, 20..=150), 1usize..=60).prop_map(|(drawn, cap)| {
        let mut fps: Vec<Fingerprint> = Vec::with_capacity(drawn.len());
        for (u, (mut samples, copy)) in drawn.into_iter().enumerate() {
            samples.truncate(cap);
            if copy == 0 && u > 0 {
                samples = fps[u / 2].samples().to_vec();
            }
            fps.push(Fingerprint::with_users(vec![u as UserId], samples).expect("non-empty"));
        }
        Dataset::new("row-minima", fps).expect("unique users")
    })
}

/// A run's stats with the wall-clock fields cleared.
fn work(out: &GloveOutput) -> GloveStats {
    let mut stats = out.stats.clone();
    stats.elapsed_s = 0.0;
    stats.ledger.peak_rss_bytes = 0;
    stats
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_mode_publishes_the_oracles_bytes_on_any_thread_count(
        ds in arb_dataset(),
        k in 2usize..=4,
        floor in 0u32..3,
    ) {
        // A cohort floor raises every seventh user's k by one or two; 0
        // runs without a plan.
        let plan = (floor > 0).then(|| {
            let deeper = (0..ds.num_users() as UserId).step_by(7);
            KPlan::new(k, deeper.map(|u| (u, k + floor as usize)).collect())
        });
        let run = |pruning, threads| {
            let config = GloveConfig {
                k,
                pruning,
                threads,
                ..GloveConfig::default()
            };
            anonymize_with_plan(&ds, &config, plan.as_ref()).expect("enough subscribers")
        };
        let oracle = run(Pruning::Off, 1);
        for pruning in [Pruning::Off, Pruning::HullOnly, Pruning::Cascade] {
            let one = run(pruning, 1);
            prop_assert_eq!(&one.dataset.fingerprints, &oracle.dataset.fingerprints);
            prop_assert_eq!(one.stats.merges, oracle.stats.merges);
            prop_assert_eq!(one.stats.candidate_pairs(), oracle.stats.candidate_pairs());
            if pruning == Pruning::HullOnly {
                // Hull seeds start every cell at tier 1 and run every
                // survivor to completion.
                prop_assert_eq!(one.stats.pairs_skipped_tier0, 0);
                prop_assert_eq!(one.stats.pairs_abandoned, 0);
            }
            let two = run(pruning, 2);
            prop_assert_eq!(&two.dataset.fingerprints, &one.dataset.fingerprints);
            prop_assert_eq!(work(&two), work(&one));
        }
    }
}
