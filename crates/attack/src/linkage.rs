//! The cross-epoch linkage adversary: quantifying what serial publication
//! leaks that no single epoch does.
//!
//! Every epoch a streaming run emits is k-anonymous *in isolation*, but
//! DESIGN.md ("Streaming anonymization") is explicit that this guarantees
//! nothing across epochs: under [`glove_core::CarryPolicy::Sticky`] the
//! same cohort republishes every window — a longitudinal quasi-identifier —
//! while `Fresh` reshuffles groups and exposes the classic
//! serial-publication intersection problem instead. This module measures
//! the first leak directly:
//!
//! * the adversary sees only the published epoch datasets, in order;
//! * for each group of epoch `e+1` they name the epoch-`e` group(s) with
//!   the most similar location profile (the realizable **signature
//!   link** — a tied set when profiles collide);
//! * ground truth (member overlap, never shown to the adversary) scores
//!   whether the true predecessor is among the named candidates, and how
//!   often a group's exact member set simply *persists* from `e` to `e+1`
//!   (the structural ceiling `Sticky` creates).
//!
//! The Sticky-vs-Fresh gap in these two rates is the number DESIGN.md
//! promises but nothing measured before this module existed. The
//! [`AttackObserver`] scores epochs incrementally as a stream run emits
//! them (only the previous epoch's groups stay resident, preserving the
//! engine's bounded-memory property), so the adversary plugs into any
//! [`glove_core::api::RunBuilder`] stream run as a plain observer.

use crate::classifier::{profile_of, profile_similarity, Profile};
use crate::report::{Attack, AttackReport, PublishedView};
use glove_core::api::Observer;
use glove_core::parallel::par_map;
use glove_core::stream::EpochOutput;
use glove_core::{Dataset, GloveError, UserId};
use std::collections::HashSet;

/// Configuration of the cross-epoch linkage adversary.
#[derive(Debug, Clone, Copy)]
pub struct CrossEpochAttack {
    /// Profile cells kept per group (`L` of the location signature).
    pub l: usize,
    /// Worker threads for the per-epoch linking pass (0 = one per core).
    pub threads: usize,
}

impl Default for CrossEpochAttack {
    fn default() -> Self {
        Self { l: 8, threads: 0 }
    }
}

/// Linkage statistics of one consecutive epoch pair `(e, e+1)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochLinkStat {
    /// The later epoch's sequence number.
    pub epoch: u64,
    /// Groups published in the later epoch.
    pub groups: usize,
    /// Subscribers published in the later epoch (conservation anchor:
    /// equals the epoch dataset's user count).
    pub users: usize,
    /// Groups with a ground-truth predecessor (member overlap ≥ 1).
    pub attempts: usize,
    /// Attempts where the adversary's signature pick is the true
    /// predecessor.
    pub signature_hits: usize,
    /// Groups whose exact member set already published in the previous
    /// epoch.
    pub persisted: usize,
    /// Attempts whose group holds at least one tracked-cohort member
    /// (0 when no cohort is tracked).
    pub cohort_attempts: usize,
    /// Cohort attempts the signature adversary linked correctly.
    pub cohort_hits: usize,
}

/// Accumulated result of a cross-epoch linkage run.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CrossEpochOutcome {
    /// Epochs consumed.
    pub epochs: usize,
    /// Per consecutive-pair statistics, in emission order.
    pub pairs: Vec<EpochLinkStat>,
}

impl CrossEpochOutcome {
    /// Total linkage attempts across all pairs.
    pub fn attempts(&self) -> usize {
        self.pairs.iter().map(|p| p.attempts).sum()
    }

    /// Fraction of attempts the signature adversary linked correctly.
    pub fn linkage_rate(&self) -> f64 {
        let attempts = self.attempts();
        if attempts == 0 {
            0.0
        } else {
            self.pairs.iter().map(|p| p.signature_hits).sum::<usize>() as f64 / attempts as f64
        }
    }

    /// Fraction of later-epoch groups whose exact member set persisted
    /// from the previous epoch.
    pub fn persistence_rate(&self) -> f64 {
        let groups: usize = self.pairs.iter().map(|p| p.groups).sum();
        if groups == 0 {
            0.0
        } else {
            self.pairs.iter().map(|p| p.persisted).sum::<usize>() as f64 / groups as f64
        }
    }

    /// Total linkage attempts on groups holding tracked-cohort members.
    pub fn cohort_attempts(&self) -> usize {
        self.pairs.iter().map(|p| p.cohort_attempts).sum()
    }

    /// Linkage rate restricted to attempts on cohort-holding groups
    /// (0 when the tracker holds no cohort or no such attempt occurred).
    pub fn cohort_linkage_rate(&self) -> f64 {
        let attempts = self.cohort_attempts();
        if attempts == 0 {
            0.0
        } else {
            self.pairs.iter().map(|p| p.cohort_hits).sum::<usize>() as f64 / attempts as f64
        }
    }
}

/// One epoch's published groups, reduced to what linking needs.
struct EpochGroups {
    /// Sorted member lists (the fingerprint invariant keeps them sorted).
    members: Vec<Vec<UserId>>,
    /// Location profiles, index-aligned with `members`.
    profiles: Vec<Option<Profile>>,
}

/// The incremental state machine behind both the batch entry point and
/// the streaming [`AttackObserver`]: feed epochs in order, read the
/// outcome any time. Only the previous epoch's groups stay resident.
#[derive(Default)]
pub struct CrossEpochTracker {
    cfg: CrossEpochAttack,
    /// Ground-truth cohort whose groups get the extra per-pair counters.
    cohort: Option<HashSet<UserId>>,
    prev: Option<EpochGroups>,
    outcome: CrossEpochOutcome,
}

impl CrossEpochTracker {
    /// A tracker for `cfg`.
    pub fn new(cfg: CrossEpochAttack) -> Self {
        Self {
            cfg,
            cohort: None,
            prev: None,
            outcome: CrossEpochOutcome::default(),
        }
    }

    /// A tracker that additionally scores the attempts on groups holding
    /// at least one `cohort` member (ground truth; the adversary itself
    /// never reads it).
    pub fn with_cohort(cfg: CrossEpochAttack, cohort: HashSet<UserId>) -> Self {
        Self {
            cohort: Some(cohort),
            ..Self::new(cfg)
        }
    }

    /// Consumes the next emitted epoch.
    pub fn absorb(&mut self, epoch: u64, ds: &Dataset) {
        let current = EpochGroups {
            members: ds
                .fingerprints
                .iter()
                .map(|fp| fp.users().to_vec())
                .collect(),
            profiles: ds
                .fingerprints
                .iter()
                .map(|fp| profile_of(fp.users(), fp.samples().iter().copied(), self.cfg.l))
                .collect(),
        };
        self.outcome.epochs += 1;
        if let Some(prev) = &self.prev {
            let stat = link_pair(
                prev,
                &current,
                epoch,
                ds.num_users(),
                self.cfg.threads,
                self.cohort.as_ref(),
            );
            self.outcome.pairs.push(stat);
        }
        self.prev = Some(current);
    }

    /// The outcome accumulated so far.
    pub fn outcome(&self) -> &CrossEpochOutcome {
        &self.outcome
    }

    /// Consumes the tracker, returning the final outcome.
    pub fn into_outcome(self) -> CrossEpochOutcome {
        self.outcome
    }
}

/// Sorted-list intersection size.
fn overlap(a: &[UserId], b: &[UserId]) -> usize {
    let (mut i, mut j, mut n) = (0usize, 0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
}

fn link_pair(
    prev: &EpochGroups,
    current: &EpochGroups,
    epoch: u64,
    users: usize,
    threads: usize,
    cohort: Option<&HashSet<UserId>>,
) -> EpochLinkStat {
    // (has truth predecessor, signature hit, persisted, holds cohort
    // member) per current group.
    let scored: Vec<(bool, bool, bool, bool)> = par_map(current.members.len(), threads, |g| {
        let members = &current.members[g];
        // Ground truth: the previous group sharing the most members
        // (deterministic tie-break on the lowest index).
        let mut truth: Option<(usize, usize)> = None; // (index, overlap)
        for (i, prev_members) in prev.members.iter().enumerate() {
            let o = overlap(members, prev_members);
            if o > 0 && truth.map(|(_, best)| o > best).unwrap_or(true) {
                truth = Some((i, o));
            }
        }
        // The adversary names the tied top-similarity set (profiles can
        // collide, e.g. two groups sharing a dense cell); the link counts
        // when the true predecessor is among the named candidates. A best
        // similarity of zero means no previous group shares a single cell
        // with this one — the adversary learned nothing, never a link
        // (mirroring the multi-point max_count == 0 convention).
        let hit = match (truth, current.profiles[g].as_ref()) {
            (Some((truth_idx, _)), Some(profile)) => {
                let mut best = 0.0f64;
                for candidate in prev.profiles.iter().flatten() {
                    best = best.max(profile_similarity(profile, candidate));
                }
                best > 0.0
                    && prev.profiles[truth_idx]
                        .as_ref()
                        .map(|c| (profile_similarity(profile, c) - best).abs() < 1e-12)
                        .unwrap_or(false)
            }
            _ => false,
        };
        let has_truth = truth.is_some();
        let persisted = prev.members.iter().any(|m| m == members);
        let in_cohort = cohort
            .map(|c| members.iter().any(|u| c.contains(u)))
            .unwrap_or(false);
        (has_truth, hit, persisted, in_cohort)
    });
    EpochLinkStat {
        epoch,
        groups: current.members.len(),
        users,
        attempts: scored.iter().filter(|(t, _, _, _)| *t).count(),
        signature_hits: scored.iter().filter(|(_, h, _, _)| *h).count(),
        persisted: scored.iter().filter(|(_, _, p, _)| *p).count(),
        cohort_attempts: scored.iter().filter(|(t, _, _, c)| *t && *c).count(),
        cohort_hits: scored.iter().filter(|(t, h, _, c)| *t && *h && *c).count(),
    }
}

/// Runs the cross-epoch linkage attack over a sequence of epoch datasets.
pub fn cross_epoch_attack(epochs: &[Dataset], cfg: &CrossEpochAttack) -> CrossEpochOutcome {
    let mut tracker = CrossEpochTracker::new(*cfg);
    for (i, ds) in epochs.iter().enumerate() {
        tracker.absorb(i as u64, ds);
    }
    tracker.into_outcome()
}

/// [`cross_epoch_attack`] with the extra per-pair counters for the groups
/// holding `cohort` members (e.g. a long-tail ground-truth cohort).
pub fn cross_epoch_attack_cohort(
    epochs: &[Dataset],
    cfg: &CrossEpochAttack,
    cohort: HashSet<UserId>,
) -> CrossEpochOutcome {
    let mut tracker = CrossEpochTracker::with_cohort(*cfg, cohort);
    for (i, ds) in epochs.iter().enumerate() {
        tracker.absorb(i as u64, ds);
    }
    tracker.into_outcome()
}

impl Attack for CrossEpochAttack {
    fn name(&self) -> &'static str {
        "cross-epoch"
    }

    fn run(
        &self,
        _original: &Dataset,
        published: &PublishedView<'_>,
    ) -> Result<AttackReport, GloveError> {
        let PublishedView::Epochs(epochs) = published else {
            return Err(GloveError::InvalidConfig(
                "the cross-epoch adversary needs the per-epoch outputs of a streaming run".into(),
            ));
        };
        let outcome = cross_epoch_attack(epochs, self);
        Ok(AttackReport {
            attack: self.name().to_string(),
            dataset: published.name().to_string(),
            population: published.population(),
            trials: outcome.attempts(),
            success_rate: outcome.linkage_rate(),
            mean_anonymity: 0.0,
            min_anonymity: 0,
            metrics: vec![
                ("l".to_string(), self.l as f64),
                ("epochs".to_string(), outcome.epochs as f64),
                ("cohort_persistence".to_string(), outcome.persistence_rate()),
            ],
            cohorts: Vec::new(),
        })
    }
}

/// An [`Observer`] scoring cross-epoch linkage as a streaming run emits
/// its epochs — plug it into `RunBuilder::run_observed`/`run_events` and
/// read the outcome after the run. Works with `keep_epochs(false)`: only
/// the previous epoch's groups are retained, so the stream engine's
/// bounded-memory property survives the adversary.
pub struct AttackObserver {
    tracker: CrossEpochTracker,
}

impl AttackObserver {
    /// An observer for the `cfg` adversary.
    pub fn new(cfg: CrossEpochAttack) -> Self {
        Self {
            tracker: CrossEpochTracker::new(cfg),
        }
    }

    /// The linkage outcome accumulated so far.
    pub fn outcome(&self) -> &CrossEpochOutcome {
        self.tracker.outcome()
    }

    /// The accumulated outcome as an [`AttackReport`] (for embedding into
    /// run reporting via [`AttackReport::to_run_detail`]).
    pub fn report(&self, dataset: &str, population: usize) -> AttackReport {
        let outcome = self.tracker.outcome();
        AttackReport {
            attack: "cross-epoch".to_string(),
            dataset: dataset.to_string(),
            population,
            trials: outcome.attempts(),
            success_rate: outcome.linkage_rate(),
            mean_anonymity: 0.0,
            min_anonymity: 0,
            metrics: vec![
                ("epochs".to_string(), outcome.epochs as f64),
                ("cohort_persistence".to_string(), outcome.persistence_rate()),
            ],
            cohorts: Vec::new(),
        }
    }
}

impl Observer for AttackObserver {
    fn on_epoch(&mut self, epoch: &EpochOutput) -> std::io::Result<()> {
        self.tracker.absorb(epoch.epoch, &epoch.output.dataset);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glove_core::api::{NullObserver, RunBuilder};
    use glove_core::stream::{events_of, run_stream, StreamEvent};
    use glove_core::{CarryPolicy, Fingerprint, GloveConfig, Sample, StreamConfig};

    /// Eight subscribers in two stable spatial cohorts, one event per user
    /// every 30 min over `span` minutes.
    fn cohort_events(span: u32) -> Vec<StreamEvent> {
        let mut events = Vec::new();
        let mut t = 0;
        while t < span {
            for user in 0..8u32 {
                let cluster = i64::from(user % 2) * 60_000;
                events.push(StreamEvent {
                    user,
                    sample: Sample::point(cluster + i64::from(user) * 100, 0, t + user % 3),
                });
            }
            t += 30;
        }
        events.sort_unstable_by_key(|e| (e.sample.t, e.user));
        events
    }

    fn streamed_epochs(carry: CarryPolicy) -> Vec<Dataset> {
        let config = StreamConfig {
            window_min: 120,
            carry,
            ..StreamConfig::default()
        };
        run_stream("cohorts", cohort_events(480), config)
            .expect("stream succeeds")
            .epochs
            .into_iter()
            .map(|e| e.output.dataset)
            .collect()
    }

    #[test]
    fn sticky_carry_is_more_linkable_than_fresh() {
        let cfg = CrossEpochAttack { l: 8, threads: 1 };
        let sticky = cross_epoch_attack(&streamed_epochs(CarryPolicy::Sticky), &cfg);
        let fresh = cross_epoch_attack(&streamed_epochs(CarryPolicy::Fresh), &cfg);
        assert!(
            sticky.persistence_rate() >= fresh.persistence_rate(),
            "sticky persistence {} below fresh {}",
            sticky.persistence_rate(),
            fresh.persistence_rate()
        );
        assert!(
            sticky.persistence_rate() > 0.9,
            "stable cohorts under sticky must persist: {}",
            sticky.persistence_rate()
        );
        assert!(sticky.linkage_rate() >= 0.9, "sticky cohorts must chain");
    }

    #[test]
    fn observer_matches_the_batch_entry_point() {
        let epochs = streamed_epochs(CarryPolicy::Sticky);
        let cfg = CrossEpochAttack { l: 8, threads: 1 };
        let batch = cross_epoch_attack(&epochs, &cfg);

        let mut observer = AttackObserver::new(cfg);
        let per_user: Vec<Fingerprint> = {
            let mut by_user: std::collections::BTreeMap<u32, Vec<Sample>> = Default::default();
            for e in cohort_events(480) {
                by_user.entry(e.user).or_default().push(e.sample);
            }
            by_user
                .into_iter()
                .map(|(u, s)| Fingerprint::with_users(vec![u], s).unwrap())
                .collect()
        };
        let ds = Dataset::new("cohorts", per_user).unwrap();
        let stream = StreamConfig {
            window_min: 120,
            carry: CarryPolicy::Sticky,
            ..StreamConfig::default()
        };
        RunBuilder::new(GloveConfig::default())
            .stream(stream)
            .keep_epochs(false)
            .run_events(
                "cohorts",
                &mut events_of(&ds).into_iter().map(Ok),
                &mut observer,
            )
            .expect("stream run succeeds");
        assert_eq!(observer.outcome(), &batch);
        let report = observer.report("cohorts", ds.num_users());
        assert_eq!(report.attack, "cross-epoch");
        assert_eq!(report.trials, batch.attempts());
        let _ = NullObserver; // silence unused-import lint on shims
    }

    #[test]
    fn group_accounting_conserves_each_epochs_users() {
        let epochs = streamed_epochs(CarryPolicy::Fresh);
        let outcome = cross_epoch_attack(&epochs, &CrossEpochAttack::default());
        assert_eq!(outcome.epochs, epochs.len());
        assert_eq!(outcome.pairs.len(), epochs.len().saturating_sub(1));
        for (stat, ds) in outcome.pairs.iter().zip(&epochs[1..]) {
            assert_eq!(stat.groups, ds.fingerprints.len());
            assert_eq!(stat.users, ds.num_users());
            assert!(stat.attempts <= stat.groups);
            assert!(stat.signature_hits <= stat.attempts);
        }
    }

    #[test]
    fn cohort_counters_bound_and_match_the_full_population() {
        let epochs = streamed_epochs(CarryPolicy::Sticky);
        let cfg = CrossEpochAttack { l: 8, threads: 1 };
        let plain = cross_epoch_attack(&epochs, &cfg);
        assert_eq!(plain.cohort_attempts(), 0, "no cohort tracked");

        // The full population as cohort reproduces the overall counters.
        let everyone: HashSet<UserId> = (0..8u32).collect();
        let full = cross_epoch_attack_cohort(&epochs, &cfg, everyone);
        assert_eq!(full.cohort_attempts(), full.attempts());
        assert_eq!(full.cohort_linkage_rate(), full.linkage_rate());

        // A strict subset stays bounded by the overall counters.
        let some: HashSet<UserId> = [0u32, 1].into_iter().collect();
        let sub = cross_epoch_attack_cohort(&epochs, &cfg, some);
        assert!(sub.cohort_attempts() <= sub.attempts());
        assert!(sub.cohort_attempts() > 0, "users 0/1 publish every epoch");
        for pair in &sub.pairs {
            assert!(pair.cohort_hits <= pair.cohort_attempts);
            assert!(pair.cohort_attempts <= pair.attempts);
        }
    }

    #[test]
    fn dataset_view_is_rejected() {
        let ds = Dataset::new(
            "one",
            vec![Fingerprint::new(0, vec![Sample::point(0, 0, 1)]).unwrap()],
        )
        .unwrap();
        let err = CrossEpochAttack::default()
            .run(&ds, &PublishedView::Dataset(&ds))
            .unwrap_err();
        assert!(matches!(err, GloveError::InvalidConfig(_)));
    }
}
