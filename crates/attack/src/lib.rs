//! # glove-attack — the adversary subsystem
//!
//! The paper motivates GLOVE with two published attacks on mobile traffic
//! micro-data (§1, §2.3):
//!
//! * **Top-location knowledge** (Zang & Bolot, MobiCom'11 — the paper's
//!   ref. `[5]`): the adversary knows a target's few most frequently visited
//!   cells. Half the subscribers of a 25-million-user dataset were unique
//!   given just their top 3 locations.
//! * **Random-point knowledge** (de Montjoye et al., 2013 — ref. `[6]`): the
//!   adversary knows a handful of random spatiotemporal points of the
//!   target. Four points identified 95 % of 1.5 M users.
//!
//! Real adversaries go further — *k-fingerprinting* (Hayes & Danezis)
//! trains classifiers on observed traffic, and online attackers correlate
//! serial releases — so this crate scales the adversary the same way the
//! rest of the workspace scales the defense. Three attacks run behind the
//! common [`Attack`] trait, all parallelized over `glove_core::parallel`
//! and all reporting through the serializable [`AttackReport`] that embeds
//! into the unified `RunReport`:
//!
//! * [`MultiPointAttack`] — `p` known (time, location) points per target
//!   with configurable observation noise, ranking candidates by
//!   consistency ([`multi_point_attack`]); the `p = 1`…`n` generalization
//!   of ref. `[6]`, whose random-point adversary is this attack with
//!   [`AdversaryNoise::exact`].
//! * [`TopLocationClassifier`] — trains per-record location profiles on
//!   one period of the *published* output and links a later period back
//!   by feature similarity ([`classifier_attack`]); the longitudinal
//!   version of ref. `[5]` in the k-fingerprinting mold.
//! * [`CrossEpochAttack`] — consumes the per-epoch outputs of a streaming
//!   run and measures how often groups can be chained across windows
//!   ([`cross_epoch_attack`]); the [`AttackObserver`] scores epochs
//!   incrementally as a stream emits them. This is the measurement behind
//!   DESIGN.md's `Sticky`-vs-`Fresh` linkability caveat.
//!
//! Raw-data uniqueness statistics ([`top_location_uniqueness`]) complete
//! the picture: on raw data the attacks pinpoint most subscribers; after
//! GLOVE every record hides ≥ k of them, so the anonymity set is bounded
//! below by k *whatever* the adversary's `p`.
//!
//! The [`adapt`] module closes the loop: [`adapt_policy`] compares a set
//! of attack reports against a declared [`AttackBudget`] and emits the
//! `glove_core::policy::PolicyPlane` for the next epochs — demoting
//! `Sticky` carry when linkage breaches budget, deepening breached
//! cohorts' k floors, raising the global k against classifier
//! adversaries.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adapt;
pub mod classifier;
pub mod linkage;
pub mod multi;
pub mod report;

pub use adapt::{adapt_policy, AdaptAction, AdaptOutcome, AttackBudget};
pub use classifier::{
    classifier_attack, LinkageOutcome, Profile, TargetLink, TopLocationClassifier,
};
pub use linkage::{
    cross_epoch_attack, cross_epoch_attack_cohort, AttackObserver, CrossEpochAttack,
    CrossEpochOutcome, CrossEpochTracker, EpochLinkStat,
};
pub use multi::{
    multi_point_attack, AdversaryNoise, MultiPointAttack, MultiPointOutcome, TrialOutcome,
};
pub use report::{Attack, AttackReport, CohortBreakdown, PublishedView};

use glove_core::model::{NATIVE_PITCH_M, NATIVE_QUANTUM_MIN};
use glove_core::{Dataset, Fingerprint, Sample};
use std::collections::HashMap;

/// A spatiotemporal point of adversary knowledge: the target was inside
/// the native cell whose west/south edge is `(x, y)` — a
/// [`NATIVE_PITCH_M`]-sized square — at some instant of minute `t`
/// (i.e. during the half-open minute `[t, t + 1)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KnownPoint {
    /// Cell west edge, meters.
    pub x: i64,
    /// Cell south edge, meters.
    pub y: i64,
    /// Event minute.
    pub t: u32,
}

impl KnownPoint {
    /// True if a published (possibly generalized) sample is consistent
    /// with this knowledge: the sample's box *intersects* the known
    /// cell-minute, so the target cannot be ruled out as the record's
    /// subscriber.
    ///
    /// All axes use half-open interval intersection. The knowledge cell is
    /// `[x, x + 100) × [y, y + 100)`, the knowledge minute `[t, t + 1)`;
    /// a box touching only at an edge does **not** intersect. On the
    /// grid-aligned boxes GLOVE emits, intersection coincides with the
    /// older corner-containment check, but on arbitrarily offset boxes
    /// (W4M resampling, uniform generalization) corner containment wrongly
    /// ruled out records that partially cover the cell — silently
    /// *shrinking* anonymity sets and inflating attack rates. The boundary
    /// semantics are pinned by this module's unit tests.
    pub fn consistent_with(&self, s: &Sample) -> bool {
        self.consistent_within(s, 0, 0)
    }

    /// [`KnownPoint::consistent_with`] under an adversary-noise envelope:
    /// the sample's box is dilated by `space_m` meters per spatial axis
    /// and `time_min` minutes per time direction before the intersection
    /// test, so a point perturbed by at most the envelope can never rule
    /// out the record it was observed from.
    pub fn consistent_within(&self, s: &Sample, space_m: u32, time_min: u32) -> bool {
        let (sp, tm) = (i64::from(space_m), i64::from(time_min));
        let cell = i64::from(NATIVE_PITCH_M);
        let quantum = i64::from(NATIVE_QUANTUM_MIN);
        // Spatial: dilated box [s.x - sp, s.x_end() + sp) must intersect
        // the knowledge cell [x, x + cell).
        if s.x - sp >= self.x + cell || self.x >= s.x_end() + sp {
            return false;
        }
        if s.y - sp >= self.y + cell || self.y >= s.y_end() + sp {
            return false;
        }
        // Temporal: dilated window [s.t - tm, s.t_end() + tm) must
        // intersect the knowledge minute [t, t + 1). Signed arithmetic —
        // the window start may dip below zero under dilation.
        let t = i64::from(self.t);
        i64::from(s.t) - tm < t + quantum && t < s.t_end() as i64 + tm
    }
}

/// The top-L most frequent cells of a fingerprint, ties broken by cell
/// coordinates (descending frequency, ascending position) so the result is
/// deterministic. Returned sorted for set comparison.
pub fn top_locations(fp: &Fingerprint, l: usize) -> Vec<(i64, i64)> {
    let mut counts: HashMap<(i64, i64), u32> = HashMap::new();
    for s in fp.samples() {
        *counts.entry((s.x, s.y)).or_default() += 1;
    }
    let mut ranked: Vec<((i64, i64), u32)> = counts.into_iter().collect();
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let mut top: Vec<(i64, i64)> = ranked.into_iter().take(l).map(|(cell, _)| cell).collect();
    top.sort_unstable();
    top
}

/// The fraction of subscribers whose top-L location set is unique within
/// the dataset — the attack-`[5]` uniqueness statistic. Each subscriber of a
/// merged fingerprint shares that fingerprint's top locations, so merged
/// groups are inherently non-unique.
pub fn top_location_uniqueness(dataset: &Dataset, l: usize) -> f64 {
    assert!(l >= 1, "need at least one location of knowledge");
    let signatures: Vec<Vec<(i64, i64)>> = dataset
        .fingerprints
        .iter()
        .map(|fp| top_locations(fp, l))
        .collect();
    let mut signature_population: HashMap<&[(i64, i64)], usize> = HashMap::new();
    for (fp, sig) in dataset.fingerprints.iter().zip(&signatures) {
        *signature_population.entry(sig.as_slice()).or_default() += fp.multiplicity();
    }
    let total: usize = dataset.num_users();
    if total == 0 {
        return 0.0;
    }
    let unique_users: usize = dataset
        .fingerprints
        .iter()
        .zip(&signatures)
        .filter(|(_, sig)| signature_population[sig.as_slice()] == 1)
        .map(|(fp, _)| fp.multiplicity())
        .sum();
    unique_users as f64 / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use glove_core::glove::anonymize;
    use glove_core::GloveConfig;

    /// The random-point adversary of ref. `[6]`: `points` exact points of
    /// each of `trials` targets drawn from `original`, matched against
    /// `published`.
    fn exact_attack(
        original: &Dataset,
        published: &Dataset,
        points: usize,
        trials: usize,
        seed: u64,
    ) -> MultiPointOutcome {
        multi_point_attack(
            original,
            &PublishedView::Dataset(published),
            &MultiPointAttack {
                points,
                trials,
                seed,
                noise: AdversaryNoise::exact(),
                threads: 0,
            },
        )
    }

    fn raw_dataset() -> Dataset {
        // Six users: two share a routine (same cells, different minutes),
        // the rest are distinctive.
        let fps = vec![
            Fingerprint::from_points(0, &[(0, 0, 10), (5_000, 0, 700), (0, 0, 1_400)]).unwrap(),
            Fingerprint::from_points(1, &[(0, 0, 12), (5_000, 0, 705), (0, 0, 1_410)]).unwrap(),
            Fingerprint::from_points(2, &[(90_000, 0, 100), (90_000, 500, 800)]).unwrap(),
            Fingerprint::from_points(3, &[(0, 70_000, 50), (300, 70_000, 900)]).unwrap(),
            Fingerprint::from_points(4, &[(40_000, 40_000, 10), (40_100, 40_000, 1_000)]).unwrap(),
            Fingerprint::from_points(5, &[(20_000, 60_000, 600), (20_000, 60_100, 610)]).unwrap(),
        ];
        Dataset::new("attack-raw", fps).unwrap()
    }

    #[test]
    fn known_point_consistency_semantics() {
        let p = KnownPoint {
            x: 100,
            y: 200,
            t: 50,
        };
        let exact = Sample::point(100, 200, 50);
        assert!(p.consistent_with(&exact));
        let covering = Sample::new(0, 0, 1_000, 1_000, 0, 100).unwrap();
        assert!(p.consistent_with(&covering));
        let elsewhere = Sample::point(5_000, 200, 50);
        assert!(!p.consistent_with(&elsewhere));
        let too_late = Sample::new(0, 0, 1_000, 1_000, 51, 10).unwrap();
        assert!(!p.consistent_with(&too_late));
    }

    #[test]
    fn spatial_boundaries_are_half_open_intersections() {
        // Knowledge cell: [100, 200) × [200, 300).
        let p = KnownPoint {
            x: 100,
            y: 200,
            t: 50,
        };
        // A box ending exactly at the cell's west edge does not intersect.
        let west_adjacent = Sample::new(0, 200, 100, 100, 50, 1).unwrap();
        assert!(!p.consistent_with(&west_adjacent));
        // One meter further east it does.
        let west_grazing = Sample::new(1, 200, 100, 100, 50, 1).unwrap();
        assert!(p.consistent_with(&west_grazing));
        // A box starting exactly at the cell's east edge does not intersect…
        let east_adjacent = Sample::new(200, 200, 100, 100, 50, 1).unwrap();
        assert!(!p.consistent_with(&east_adjacent));
        // …but one starting at the last meter of the cell does — this is
        // the case the older corner-containment check wrongly excluded.
        let east_grazing = Sample::new(199, 200, 100, 100, 50, 1).unwrap();
        assert!(p.consistent_with(&east_grazing));
        // Same semantics on the y axis.
        let north_grazing = Sample::new(100, 299, 100, 100, 50, 1).unwrap();
        assert!(p.consistent_with(&north_grazing));
        let north_adjacent = Sample::new(100, 300, 100, 100, 50, 1).unwrap();
        assert!(!p.consistent_with(&north_adjacent));
    }

    #[test]
    fn temporal_boundaries_are_half_open_intersections() {
        // Knowledge minute: [50, 51).
        let p = KnownPoint { x: 0, y: 0, t: 50 };
        // Window [40, 50) ends exactly at the knowledge minute: no overlap.
        let ends_at = Sample::new(0, 0, 100, 100, 40, 10).unwrap();
        assert!(!p.consistent_with(&ends_at));
        // Window [40, 51) includes minute 50.
        let ends_after = Sample::new(0, 0, 100, 100, 40, 11).unwrap();
        assert!(p.consistent_with(&ends_after));
        // Window [50, 51) is exactly the knowledge minute.
        let exact = Sample::new(0, 0, 100, 100, 50, 1).unwrap();
        assert!(p.consistent_with(&exact));
        // Window [51, 60) starts after the knowledge minute: no overlap.
        let starts_after = Sample::new(0, 0, 100, 100, 51, 9).unwrap();
        assert!(!p.consistent_with(&starts_after));
    }

    #[test]
    fn noise_dilation_is_symmetric_and_sound() {
        let p = KnownPoint {
            x: 1_000,
            y: 0,
            t: 50,
        };
        // 300 m west of the cell: inconsistent exactly; a 300 m envelope
        // makes the dilated box *touch* the cell (still no overlap under
        // half-open semantics), one more meter overlaps.
        let west = Sample::new(600, 0, 100, 100, 50, 1).unwrap();
        assert!(!p.consistent_with(&west));
        assert!(!p.consistent_within(&west, 300, 0));
        assert!(p.consistent_within(&west, 301, 0));
        // Ten minutes early: needs a 10-minute envelope.
        let early = Sample::new(1_000, 0, 100, 100, 30, 10).unwrap();
        assert!(!p.consistent_within(&early, 0, 10));
        assert!(p.consistent_within(&early, 0, 11));
        // Time dilation below zero must not underflow.
        let origin = KnownPoint { x: 0, y: 0, t: 0 };
        let at_zero = Sample::new(0, 0, 100, 100, 0, 1).unwrap();
        assert!(origin.consistent_within(&at_zero, 0, 1_000));
    }

    #[test]
    fn top_locations_ranked_by_frequency() {
        let fp = Fingerprint::from_points(
            0,
            &[
                (0, 0, 1),
                (0, 0, 2),
                (0, 0, 3),
                (500, 0, 4),
                (500, 0, 5),
                (900, 0, 6),
            ],
        )
        .unwrap();
        assert_eq!(top_locations(&fp, 1), vec![(0, 0)]);
        assert_eq!(top_locations(&fp, 2), vec![(0, 0), (500, 0)]);
        // Asking for more than exist returns what exists.
        assert_eq!(top_locations(&fp, 10).len(), 3);
    }

    #[test]
    fn raw_data_is_top_location_unique() {
        let ds = raw_dataset();
        // Users 0 and 1 share all cells -> not unique; the other four are.
        let uniqueness = top_location_uniqueness(&ds, 2);
        assert!((uniqueness - 4.0 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn merged_records_defeat_top_location_linkage() {
        let ds = raw_dataset();
        let out = anonymize(&ds, &GloveConfig::default()).expect("anonymization succeeds");
        assert_eq!(top_location_uniqueness(&out.dataset, 3), 0.0);
    }

    #[test]
    fn random_points_pinpoint_raw_users() {
        let ds = raw_dataset();
        let outcome = exact_attack(&ds, &ds, 2, 60, 1);
        // The four distinctive users are pinpointed whenever drawn; the twin
        // pair still collapses to themselves only (distinct minutes!), so on
        // raw data at native granularity everyone is unique.
        assert_eq!(outcome.min_anonymity(), 1);
        assert!(outcome.pinpoint_rate() > 0.9);
    }

    #[test]
    fn glove_bounds_the_anonymity_set_at_k() {
        let ds = raw_dataset();
        let out = anonymize(&ds, &GloveConfig::default()).expect("anonymization succeeds");
        let outcome = exact_attack(&ds, &out.dataset, 2, 80, 2);
        assert!(
            outcome.min_anonymity() >= 2,
            "k-anonymity must bound the anonymity set: {:?}",
            outcome.anonymity_sets()
        );
        assert_eq!(outcome.pinpoint_rate(), 0.0);
    }

    #[test]
    fn adversary_with_more_points_is_stronger_on_raw_data() {
        let ds = raw_dataset();
        let weak = exact_attack(&ds, &ds, 1, 100, 3);
        let strong = exact_attack(&ds, &ds, 2, 100, 3);
        assert!(strong.mean_anonymity() <= weak.mean_anonymity());
    }

    #[test]
    fn attack_is_deterministic_given_seed() {
        let ds = raw_dataset();
        let a = exact_attack(&ds, &ds, 2, 40, 9);
        let b = exact_attack(&ds, &ds, 2, 40, 9);
        assert_eq!(a, b);
    }

    #[test]
    fn skips_targets_with_too_little_history() {
        let fps = vec![
            Fingerprint::from_points(0, &[(0, 0, 1)]).unwrap(),
            Fingerprint::from_points(1, &[(500, 0, 2)]).unwrap(),
        ];
        let ds = Dataset::new("short", fps).unwrap();
        let outcome = exact_attack(&ds, &ds, 3, 10, 4);
        assert!(outcome.trials.is_empty());
    }

    #[test]
    fn inconsistent_knowledge_reports_the_full_population() {
        // If suppression removed the known points from the published data,
        // no record is consistent and the adversary learns nothing: the
        // anonymity set is the whole population.
        let original = raw_dataset();
        // A published dataset that covers none of the original points.
        let published = Dataset::new(
            "elsewhere",
            vec![
                Fingerprint::from_points(0, &[(900_000, 900_000, 9_000)]).unwrap(),
                Fingerprint::from_points(1, &[(900_100, 900_000, 9_001)]).unwrap(),
            ],
        )
        .unwrap();
        let outcome = exact_attack(&original, &published, 2, 20, 5);
        assert!(outcome
            .anonymity_sets()
            .iter()
            .all(|&s| s == published.num_users()));
        assert_eq!(outcome.pinpoint_rate(), 0.0);
    }
}
