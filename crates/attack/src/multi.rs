//! The multi-point linkage adversary: the generalization of the
//! de-Montjoye-style random-point attack (ref. `[6]`) from one observation
//! to arbitrarily many, with configurable observation noise.
//!
//! The adversary holds `p` known spatiotemporal points per target, drawn
//! uniformly over the target's *samples* (so frequently-visited cells are
//! proportionally more likely to be observed — sampling over distinct
//! locations would bias the adversary towards rare cells). Candidate
//! subscribers in the published data are ranked by how many of the `p`
//! points their records are consistent with:
//!
//! * the **anonymity set** is the set of subscribers consistent with *all*
//!   `p` points (the classic record-linkage count; empty means the
//!   adversary learned nothing and the set degrades to the population);
//! * the **top-rank set** is the set of subscribers tied at the maximal
//!   consistency count — the candidates a best-effort adversary would
//!   name. A trial is *linked* when the target is in that set.
//!
//! Observation noise models an imperfect adversary (cell-tower
//! triangulation error, clock skew): each known point is perturbed
//! uniformly within `±noise` per axis, and the consistency predicate
//! dilates published boxes by the same bound, so the target's own record
//! can never be ruled out by the adversary's own error (the attack stays
//! sound, per *Adaptive Traffic Fingerprinting* the adversary knows their
//! noise envelope).
//!
//! Trials are independent and parallelized over [`glove_core::parallel`]:
//! each trial derives its own deterministic RNG from `(seed, trial)`, so
//! results are identical for every thread count — metro-scale runs (50 k
//! subscribers) fan out across all cores.

use crate::report::{Attack, AttackReport, PublishedView};
use crate::KnownPoint;
use glove_core::parallel::{effective_threads, par_map};
use glove_core::{Dataset, Fingerprint, GloveError, UserId};
use rand::prelude::*;
use rand::rngs::StdRng;
use std::collections::{HashMap, HashSet};

/// Observation-noise envelope of the adversary: each known point may be
/// off by up to `space_m` meters per spatial axis and `time_min` minutes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AdversaryNoise {
    /// Maximum spatial error per axis, meters.
    pub space_m: u32,
    /// Maximum temporal error, minutes.
    pub time_min: u32,
}

impl AdversaryNoise {
    /// The exact adversary (no observation error).
    pub fn exact() -> Self {
        Self::default()
    }
}

/// Configuration of the multi-point linkage adversary.
#[derive(Debug, Clone, Copy)]
pub struct MultiPointAttack {
    /// Points of knowledge per target (`p`; ref. `[6]` uses 4–5).
    pub points: usize,
    /// Targets drawn (with replacement).
    pub trials: usize,
    /// Base RNG seed; trial `i` uses a generator derived from `(seed, i)`,
    /// so the attack is deterministic for every thread count.
    pub seed: u64,
    /// Observation-noise envelope.
    pub noise: AdversaryNoise,
    /// Worker threads (0 = one per core).
    pub threads: usize,
}

impl Default for MultiPointAttack {
    fn default() -> Self {
        Self {
            points: 4,
            trials: 200,
            seed: 0x00A7_7AC4,
            noise: AdversaryNoise::exact(),
            threads: 0,
        }
    }
}

/// One scored trial of the multi-point adversary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrialOutcome {
    /// Subscribers behind the drawn target record (ground truth, kept so
    /// outcomes can be re-scored per cohort after the run).
    pub target_users: Vec<UserId>,
    /// The (possibly noisy) points the adversary held.
    pub knowledge: Vec<KnownPoint>,
    /// Subscribers consistent with *all* points (before the
    /// learned-nothing fallback).
    pub consistent_users: usize,
    /// The anonymity-set size: `consistent_users`, or the whole population
    /// when no subscriber is consistent (the adversary learned nothing).
    pub anonymity_set: usize,
    /// Subscribers tied at the maximal consistency count (the population
    /// when no point matched anything).
    pub top_rank_users: usize,
    /// True if the target is inside the top-rank set.
    pub linked: bool,
}

/// Result of a multi-point linkage run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultiPointOutcome {
    /// Subscribers in one release of the published view.
    pub population: usize,
    /// Per-trial outcomes, in trial order.
    pub trials: Vec<TrialOutcome>,
}

impl MultiPointOutcome {
    /// Fraction of trials that pinpointed a single subscriber.
    pub fn pinpoint_rate(&self) -> f64 {
        if self.trials.is_empty() {
            return 0.0;
        }
        self.trials.iter().filter(|t| t.anonymity_set == 1).count() as f64
            / self.trials.len() as f64
    }

    /// Fraction of trials whose top-rank set contains the target.
    pub fn linked_rate(&self) -> f64 {
        if self.trials.is_empty() {
            return 0.0;
        }
        self.trials.iter().filter(|t| t.linked).count() as f64 / self.trials.len() as f64
    }

    /// Smallest anonymity set observed across trials.
    pub fn min_anonymity(&self) -> usize {
        self.trials
            .iter()
            .map(|t| t.anonymity_set)
            .min()
            .unwrap_or(0)
    }

    /// Mean anonymity-set size.
    pub fn mean_anonymity(&self) -> f64 {
        if self.trials.is_empty() {
            return 0.0;
        }
        self.trials.iter().map(|t| t.anonymity_set).sum::<usize>() as f64 / self.trials.len() as f64
    }

    /// Mean size of the top-rank candidate set.
    pub fn mean_top_rank(&self) -> f64 {
        if self.trials.is_empty() {
            return 0.0;
        }
        self.trials.iter().map(|t| t.top_rank_users).sum::<usize>() as f64
            / self.trials.len() as f64
    }

    /// The per-trial anonymity-set sizes.
    pub fn anonymity_sets(&self) -> Vec<usize> {
        self.trials.iter().map(|t| t.anonymity_set).collect()
    }

    /// Re-scores the run on the trials whose target belongs to `cohort`:
    /// `(trials in cohort, linked rate among them)`. Zero cohort trials
    /// yield a rate of 0.
    pub fn linked_rate_within(&self, cohort: &HashSet<UserId>) -> (usize, f64) {
        let in_cohort: Vec<&TrialOutcome> = self
            .trials
            .iter()
            .filter(|t| t.target_users.iter().any(|u| cohort.contains(u)))
            .collect();
        if in_cohort.is_empty() {
            return (0, 0.0);
        }
        let linked = in_cohort.iter().filter(|t| t.linked).count();
        (in_cohort.len(), linked as f64 / in_cohort.len() as f64)
    }
}

/// Derives the deterministic RNG of one trial.
fn trial_rng(seed: u64, trial: usize) -> StdRng {
    // Golden-ratio stride decorrelates consecutive trials; seed_from_u64
    // SplitMix64-expands the sum, so nearby seeds stay independent.
    StdRng::seed_from_u64(seed.wrapping_add((trial as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)))
}

/// Runs the multi-point linkage attack of `cfg`: knowledge is drawn from
/// `original` (the ground truth), candidates are ranked in `published`.
///
/// Targets whose fingerprints hold fewer than `points` samples are never
/// drawn (the adversary cannot know more points than exist); if no target
/// qualifies the outcome holds no trials.
pub fn multi_point_attack(
    original: &Dataset,
    published: &PublishedView<'_>,
    cfg: &MultiPointAttack,
) -> MultiPointOutcome {
    assert!(cfg.points >= 1, "the adversary needs at least one point");
    let population = published.population();
    let candidates: Vec<&Fingerprint> = original
        .fingerprints
        .iter()
        .filter(|fp| fp.len() >= cfg.points)
        .collect();
    if candidates.is_empty() {
        return MultiPointOutcome {
            population,
            trials: Vec::new(),
        };
    }
    let records: Vec<&Fingerprint> = published.records().collect();
    // Trials are batched per worker: one contiguous slice of the trial
    // range per thread, so the channel hand-off and scheduling overhead are
    // paid once per batch instead of once per trial (tiny trials otherwise
    // spend more time in the executor than in the attack). Each trial still
    // derives its own RNG from `(seed, trial)`, so the concatenated batches
    // are identical for every thread count.
    let workers = effective_threads(cfg.threads).min(cfg.trials.max(1));
    let batch_len = cfg.trials.div_ceil(workers.max(1));
    let batches = par_map(workers, cfg.threads, |w| {
        let lo = w * batch_len;
        let hi = (lo + batch_len).min(cfg.trials);
        (lo..hi)
            .map(|trial| run_trial(cfg, &candidates, &records, population, trial))
            .collect::<Vec<_>>()
    });
    let trials: Vec<TrialOutcome> = batches.into_iter().flatten().collect();
    MultiPointOutcome { population, trials }
}

fn run_trial(
    cfg: &MultiPointAttack,
    candidates: &[&Fingerprint],
    records: &[&Fingerprint],
    population: usize,
    trial: usize,
) -> TrialOutcome {
    let mut rng = trial_rng(cfg.seed, trial);
    let target = candidates[rng.gen_range(0..candidates.len())];

    // Knowledge: `points` distinct samples of the target, uniform over the
    // sample list (NOT over distinct cells — the adversary observes the
    // target in proportion to how often the target is actually there).
    let mut indices: Vec<usize> = (0..target.len()).collect();
    indices.shuffle(&mut rng);
    let knowledge: Vec<KnownPoint> = indices[..cfg.points]
        .iter()
        .map(|&i| {
            let s = target.samples()[i];
            let mut p = KnownPoint {
                x: s.x,
                y: s.y,
                t: s.t,
            };
            if cfg.noise.space_m > 0 {
                let n = i64::from(cfg.noise.space_m);
                p.x += rng.gen_range(-n..=n);
                p.y += rng.gen_range(-n..=n);
            }
            if cfg.noise.time_min > 0 {
                let n = i64::from(cfg.noise.time_min);
                let t = i64::from(p.t) + rng.gen_range(-n..=n);
                p.t = t.max(0) as u32;
            }
            p
        })
        .collect();

    // Consistency counts per subscriber: a point supports a subscriber when
    // any published record carrying that subscriber is consistent with it
    // (per-record for single releases; across epochs for streamed views).
    let mut counts: HashMap<UserId, u32> = HashMap::new();
    let mut seen: HashSet<UserId> = HashSet::new();
    for point in &knowledge {
        seen.clear();
        for fp in records {
            if fp
                .samples()
                .iter()
                .any(|s| point.consistent_within(s, cfg.noise.space_m, cfg.noise.time_min))
            {
                seen.extend(fp.users().iter().copied());
            }
        }
        for &u in &seen {
            *counts.entry(u).or_default() += 1;
        }
    }

    let consistent_users = counts
        .values()
        .filter(|&&c| c as usize == cfg.points)
        .count();
    let max_count = counts.values().copied().max().unwrap_or(0);
    let (top_rank_users, linked) = if max_count == 0 {
        // Nothing matched any point: the adversary's best guess is uniform
        // over the population, which is not a link.
        (population, false)
    } else {
        let top: HashSet<UserId> = counts
            .iter()
            .filter(|(_, &c)| c == max_count)
            .map(|(&u, _)| u)
            .collect();
        let linked = target.users().iter().any(|u| top.contains(u));
        (top.len(), linked)
    };
    TrialOutcome {
        target_users: target.users().to_vec(),
        knowledge,
        consistent_users,
        anonymity_set: if consistent_users == 0 {
            population
        } else {
            consistent_users
        },
        top_rank_users,
        linked,
    }
}

impl Attack for MultiPointAttack {
    fn name(&self) -> &'static str {
        "multi-point"
    }

    fn run(
        &self,
        original: &Dataset,
        published: &PublishedView<'_>,
    ) -> Result<AttackReport, GloveError> {
        let outcome = multi_point_attack(original, published, self);
        Ok(AttackReport {
            attack: self.name().to_string(),
            dataset: published.name().to_string(),
            population: outcome.population,
            trials: outcome.trials.len(),
            success_rate: outcome.pinpoint_rate(),
            mean_anonymity: outcome.mean_anonymity(),
            min_anonymity: outcome.min_anonymity(),
            metrics: vec![
                ("points".to_string(), self.points as f64),
                ("noise_space_m".to_string(), f64::from(self.noise.space_m)),
                ("noise_time_min".to_string(), f64::from(self.noise.time_min)),
                ("linked_rate".to_string(), outcome.linked_rate()),
                ("mean_top_rank".to_string(), outcome.mean_top_rank()),
            ],
            cohorts: Vec::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glove_core::glove::anonymize;
    use glove_core::{GloveConfig, Sample};

    fn raw_dataset() -> Dataset {
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
    fn thread_count_never_changes_the_outcome() {
        let ds = raw_dataset();
        let mut cfg = MultiPointAttack {
            points: 2,
            trials: 64,
            seed: 7,
            noise: AdversaryNoise {
                space_m: 300,
                time_min: 10,
            },
            threads: 1,
        };
        let a = multi_point_attack(&ds, &PublishedView::Dataset(&ds), &cfg);
        cfg.threads = 4;
        let b = multi_point_attack(&ds, &PublishedView::Dataset(&ds), &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn more_points_never_weaken_the_adversary() {
        let ds = raw_dataset();
        let view = PublishedView::Dataset(&ds);
        let base = MultiPointAttack {
            trials: 100,
            seed: 3,
            ..MultiPointAttack::default()
        };
        let mut prev_mean = f64::INFINITY;
        for points in [1usize, 2, 3] {
            let outcome = multi_point_attack(&ds, &view, &MultiPointAttack { points, ..base });
            let mean = outcome.mean_anonymity();
            assert!(
                mean <= prev_mean + 1e-9,
                "p={points}: mean anonymity {mean} grew from {prev_mean}"
            );
            prev_mean = mean;
        }
    }

    #[test]
    fn noisy_adversary_still_links_raw_targets_soundly() {
        // The dilated predicate must keep the target's own record
        // consistent regardless of the drawn perturbation.
        let ds = raw_dataset();
        let cfg = MultiPointAttack {
            points: 2,
            trials: 120,
            seed: 11,
            noise: AdversaryNoise {
                space_m: 250,
                time_min: 15,
            },
            threads: 1,
        };
        let outcome = multi_point_attack(&ds, &PublishedView::Dataset(&ds), &cfg);
        for trial in &outcome.trials {
            assert!(
                trial.consistent_users >= 1,
                "noise must never exclude the target's own record"
            );
        }
        assert_eq!(outcome.linked_rate(), 1.0, "top-rank set holds the target");
    }

    #[test]
    fn sampling_follows_sample_frequency_not_distinct_cells() {
        // A skewed subscriber: 9 samples in the home cell, 1 elsewhere. The
        // adversary's observation must land in the home cell ~90% of the
        // time — uniform-over-distinct-locations would say 50%.
        let mut points = vec![(0i64, 0i64, 0u32); 0];
        for t in 0..9u32 {
            points.push((0, 0, 10 + t));
        }
        points.push((50_000, 0, 100));
        let ds = Dataset::new("skew", vec![Fingerprint::from_points(0, &points).unwrap()]).unwrap();
        let cfg = MultiPointAttack {
            points: 1,
            trials: 3_000,
            seed: 5,
            noise: AdversaryNoise::exact(),
            threads: 0,
        };
        let outcome = multi_point_attack(&ds, &PublishedView::Dataset(&ds), &cfg);
        let home = outcome
            .trials
            .iter()
            .filter(|t| t.knowledge[0].x == 0)
            .count() as f64
            / outcome.trials.len() as f64;
        assert!(
            (0.87..=0.93).contains(&home),
            "home-cell observation rate {home} far from the 0.9 sample share"
        );
    }

    #[test]
    fn anonymized_epoch_view_is_bounded_by_k() {
        let ds = raw_dataset();
        let out = anonymize(&ds, &GloveConfig::default()).unwrap();
        let epochs = [out.dataset.clone()];
        let cfg = MultiPointAttack {
            points: 2,
            trials: 60,
            seed: 2,
            ..MultiPointAttack::default()
        };
        let outcome = multi_point_attack(&ds, &PublishedView::Epochs(&epochs), &cfg);
        assert!(outcome.min_anonymity() >= 2);
        assert_eq!(outcome.pinpoint_rate(), 0.0);
        // The same adversary pinpoints most subscribers of the raw data.
        let raw = multi_point_attack(&ds, &PublishedView::Dataset(&ds), &cfg);
        assert!(
            raw.pinpoint_rate() > 0.5,
            "raw data should be identifiable, got {}",
            raw.pinpoint_rate()
        );
    }

    #[test]
    fn attack_trait_report_carries_the_metrics() {
        let ds = raw_dataset();
        let cfg = MultiPointAttack {
            points: 2,
            trials: 40,
            seed: 9,
            ..MultiPointAttack::default()
        };
        let report = cfg.run(&ds, &PublishedView::Dataset(&ds)).unwrap();
        assert_eq!(report.attack, "multi-point");
        assert_eq!(report.trials, 40);
        assert_eq!(report.metric("points"), Some(2.0));
        assert!(report.metric("linked_rate").is_some());
    }

    #[test]
    fn cohort_rescoring_partitions_the_trials() {
        let ds = raw_dataset();
        let cfg = MultiPointAttack {
            points: 2,
            trials: 80,
            seed: 13,
            ..MultiPointAttack::default()
        };
        let outcome = multi_point_attack(&ds, &PublishedView::Dataset(&ds), &cfg);
        let cohort: HashSet<UserId> = [2u32, 3].into_iter().collect();
        let rest: HashSet<UserId> = [0u32, 1, 4, 5].into_iter().collect();
        let (in_cohort, _) = outcome.linked_rate_within(&cohort);
        let (in_rest, _) = outcome.linked_rate_within(&rest);
        assert_eq!(in_cohort + in_rest, outcome.trials.len());
        assert!(in_cohort > 0, "80 trials over 6 users must hit the cohort");
        assert_eq!(outcome.linked_rate_within(&HashSet::new()), (0, 0.0));
        for t in &outcome.trials {
            assert_eq!(t.target_users.len(), 1, "raw targets are single-user");
        }
    }

    #[test]
    fn empty_candidate_pool_yields_no_trials() {
        let ds = Dataset::new(
            "short",
            vec![Fingerprint::new(0, vec![Sample::point(0, 0, 1)]).unwrap()],
        )
        .unwrap();
        let cfg = MultiPointAttack {
            points: 5,
            trials: 10,
            ..MultiPointAttack::default()
        };
        let outcome = multi_point_attack(&ds, &PublishedView::Dataset(&ds), &cfg);
        assert!(outcome.trials.is_empty());
        assert_eq!(outcome.pinpoint_rate(), 0.0);
        assert_eq!(outcome.mean_anonymity(), 0.0);
    }
}
