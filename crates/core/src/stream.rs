//! Streaming anonymization: windowed online GLOVE with carry-over groups.
//!
//! The batch algorithm of [`crate::glove`] needs the whole dataset in memory
//! before Alg. 1 can run, which rules out the continuous-publication regime
//! real CDR pipelines face — and the regime online fingerprinting attackers
//! operate in. This module closes that gap: a [`StreamEngine`] consumes
//! time-ordered [`StreamEvent`]s, closes an *epoch* every
//! [`StreamConfig::window_min`] minutes, runs the (pruned, optionally
//! sharded) greedy loop on the epoch's per-user slices, and emits an
//! anonymized [`EpochOutput`] per window — keeping only the current window
//! (plus any deferred under-`k` users) resident.
//!
//! ### Window semantics
//!
//! * An event belongs to window `⌊t / W⌋` of its sample's *start* minute.
//!   A sample whose box straddles the boundary stays in the window it
//!   started in — windows partition events, not time boxes.
//! * Each closed window's per-user slices form one epoch dataset
//!   (fingerprints ordered by ascending first user id) and are anonymized
//!   with the configured [`crate::config::GloveConfig`]. Every epoch output
//!   is independently k-anonymous.
//! * [`CarryPolicy::Fresh`] regroups every window. With one window covering
//!   the whole horizon the streamed output is **byte-identical** to the
//!   monolithic batch run — the exactness anchor every streaming change
//!   must preserve (see `crates/core/tests/stream_properties.rs`).
//! * [`CarryPolicy::Sticky`] seeds the next epoch's pair arena with the
//!   previous window's groups: users who shared a published fingerprint and
//!   are active again enter pre-merged, so stable cohorts keep their merge
//!   partners. See DESIGN.md for what this does *not* guarantee about
//!   cross-epoch linkability.
//! * A window whose population is below `k` cannot be released at all;
//!   [`UnderKPolicy`] either suppresses those users for the window or
//!   defers them (samples ride along) to the next epoch. Both paths are
//!   accounted in [`StreamStats`].
//!
//! ### The policy plane
//!
//! [`StreamEngine::with_policy`] runs the engine under a
//! [`crate::policy::PolicyPlane`]: at every window boundary the plane is
//! resolved against the *emitted-epoch index* the window would publish as,
//! snapshotting the k, window length, carry policy, under-k policy and
//! suppression thresholds in force for that window (plus the per-user k
//! plan of any cohort floors). Empty windows do not advance the epoch
//! clock. A [`crate::policy::SharedPolicy`] swapped mid-window takes
//! effect when the next window opens. The uniform plane resolves to the
//! base [`StreamConfig`] everywhere and is byte-identical to the
//! pre-policy engine.
//!
//! ### Bounded memory
//!
//! The engine's resident state is the current window's per-user buffers,
//! deferred users, and the previous window's group memberships (user ids
//! only, `Sticky`). [`StreamStats::peak_resident_fingerprints`] /
//! [`StreamStats::peak_resident_samples`] record the high-water marks, so
//! tests can demonstrate that memory follows the window population, not
//! the dataset (`daily_window_residency_is_bounded_by_the_window` in
//! `crates/core/tests/stream_properties.rs`).
//!
//! ### Intake and publication
//!
//! The engine has two halves. The *intake* half keeps the window clock,
//! the policy snapshot, the under-k / deferral ledger, the residency marks
//! and epoch numbering; it closes windows. The *publish* half pre-merges
//! `Sticky` seeds against the previous epoch's groups, runs GLOVE and
//! builds the epoch's [`EpochStat`]. [`StreamEngine::push`] runs both
//! inline. The run API's stream engine (behind
//! [`crate::api::RunBuilder::stream`] and [`run_stream`]) pipelines them
//! instead: each closed window is published on one stage thread while the
//! next window fills, through a rendezvous hand-off, so one window
//! publishing, one window filling and one event are resident at most. The
//! residency marks count the filling side, as inline. Epochs and
//! statistics are those of the inline loop.

use crate::api::json::{field, field_or, Json, JsonValue};
use crate::api::{NullObserver, RunDetail, RunOutput, StreamGlove};
use crate::config::{CarryPolicy, GloveConfig, StreamConfig, UnderKPolicy};
use crate::error::GloveError;
use crate::glove::{anonymize_with_plan, GloveOutput};
use crate::json_struct;
use crate::ledger::MemoryLedger;
use crate::merge::merge_fingerprints;
use crate::model::{Dataset, Fingerprint, Sample, UserId};
use crate::policy::{EffectivePolicy, KPlan, PolicyPlane, SharedPolicy};
use crate::suppress::SuppressionLedger;
use std::collections::BTreeMap;
use std::sync::mpsc::{channel, sync_channel, Receiver, SyncSender};
use std::thread::{Scope, ScopedJoinHandle};
use std::time::Instant;

/// One logged network event entering the stream: a subscriber observed in a
/// spatiotemporal box. Events must reach the engine in non-decreasing
/// `sample.t` order (the order a probe on the live network produces).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamEvent {
    /// The subscriber the event belongs to.
    pub user: UserId,
    /// Where/when the subscriber was observed.
    pub sample: Sample,
}

/// Per-epoch slice of a streaming run's statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EpochStat {
    /// Epoch sequence number (0-based, counting emitted epochs).
    pub epoch: u64,
    /// Start of the epoch's window, minutes since the stream origin.
    pub window_start_min: u64,
    /// Fingerprints entering the epoch's pair arena (after seeding).
    pub fingerprints_in: usize,
    /// Subscribers entering the epoch (deferred users included).
    pub users_in: usize,
    /// Pre-merged carry-over groups seeded into the arena (`Sticky` only).
    pub seeded_groups: usize,
    /// k-anonymous groups the epoch published.
    pub groups_out: usize,
    /// Merges performed inside the epoch.
    pub merges: u64,
    /// Eq. 10 evaluations inside the epoch.
    pub pairs_computed: u64,
    /// Pair evaluations skipped by the admissible bound inside the epoch.
    pub pairs_pruned: u64,
    /// Prunes decided by the tier-0 bit-packed signature bound alone.
    pub pairs_skipped_tier0: u64,
    /// Prunes decided by the tier-1 stretch-hull bound.
    pub pairs_skipped_tier1: u64,
    /// Exact evaluations abandoned early by the partial-mean cutoff.
    pub pairs_abandoned: u64,
    /// Anonymity level in force for this epoch — the policy plane's
    /// resolved global k (equals the base configuration's k under the
    /// uniform plane).
    pub policy_k: usize,
    /// Window length (minutes) in force when this epoch's window opened.
    pub policy_window_min: u32,
    /// Carry policy in force for this epoch.
    pub policy_carry: CarryPolicy,
    /// Under-k policy in force for this epoch.
    pub policy_under_k: UnderKPolicy,
    /// Users whose k requirement was raised above the epoch's global k by
    /// a cohort rule (0 under the uniform plane).
    pub policy_cohort_users: usize,
    /// Wall-clock seconds of the epoch's anonymization run.
    pub elapsed_s: f64,
}

/// The policy snapshot travels as one nested `policy` object.
impl Json for EpochStat {
    fn to_value(&self) -> JsonValue {
        JsonValue::obj(vec![
            ("epoch", self.epoch.to_value()),
            ("window_start_min", self.window_start_min.to_value()),
            ("fingerprints_in", self.fingerprints_in.to_value()),
            ("users_in", self.users_in.to_value()),
            ("seeded_groups", self.seeded_groups.to_value()),
            ("groups_out", self.groups_out.to_value()),
            ("merges", self.merges.to_value()),
            ("pairs_computed", self.pairs_computed.to_value()),
            ("pairs_pruned", self.pairs_pruned.to_value()),
            ("pairs_skipped_tier0", self.pairs_skipped_tier0.to_value()),
            ("pairs_skipped_tier1", self.pairs_skipped_tier1.to_value()),
            ("pairs_abandoned", self.pairs_abandoned.to_value()),
            (
                "policy",
                JsonValue::obj(vec![
                    ("k", self.policy_k.to_value()),
                    ("window_min", self.policy_window_min.to_value()),
                    ("carry", self.policy_carry.to_value()),
                    ("under_k", self.policy_under_k.to_value()),
                    ("cohort_users", self.policy_cohort_users.to_value()),
                ]),
            ),
            ("elapsed_s", self.elapsed_s.to_value()),
        ])
    }

    fn from_value(v: &JsonValue) -> Result<Self, String> {
        // Reports written before the policy plane existed carry no policy
        // object and read back the zero snapshot.
        let none = JsonValue::Obj(Vec::new());
        let policy = v.get("policy").unwrap_or(&none);
        Ok(EpochStat {
            epoch: field(v, "epoch")?,
            window_start_min: field(v, "window_start_min")?,
            fingerprints_in: field(v, "fingerprints_in")?,
            users_in: field(v, "users_in")?,
            seeded_groups: field(v, "seeded_groups")?,
            groups_out: field(v, "groups_out")?,
            merges: field(v, "merges")?,
            pairs_computed: field(v, "pairs_computed")?,
            pairs_pruned: field(v, "pairs_pruned")?,
            pairs_skipped_tier0: field(v, "pairs_skipped_tier0")?,
            pairs_skipped_tier1: field(v, "pairs_skipped_tier1")?,
            pairs_abandoned: field(v, "pairs_abandoned")?,
            policy_k: field_or(policy, "k", 0)?,
            policy_window_min: field_or(policy, "window_min", 0)?,
            policy_carry: field_or(policy, "carry", CarryPolicy::default())?,
            policy_under_k: field_or(policy, "under_k", UnderKPolicy::default())?,
            policy_cohort_users: field_or(policy, "cohort_users", 0)?,
            elapsed_s: field(v, "elapsed_s")?,
        })
    }
}

/// Statistics of a whole streaming run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StreamStats {
    /// Events consumed.
    pub events: u64,
    /// Epochs emitted (windows that published a dataset).
    pub epochs: u64,
    /// Peak number of per-user buffers resident at once (current window
    /// plus deferred users) — the memory bound is the window population,
    /// not the dataset.
    pub peak_resident_fingerprints: usize,
    /// Peak number of samples resident at once.
    pub peak_resident_samples: usize,
    /// Merges across all epochs.
    pub merges: u64,
    /// Eq. 10 evaluations across all epochs.
    pub pairs_computed: u64,
    /// Pair evaluations skipped by the admissible bound across all epochs.
    pub pairs_pruned: u64,
    /// Prunes decided by the tier-0 bit-packed signature bound alone.
    pub pairs_skipped_tier0: u64,
    /// Prunes decided by the tier-1 stretch-hull bound.
    pub pairs_skipped_tier1: u64,
    /// Exact evaluations abandoned early by the partial-mean cutoff.
    pub pairs_abandoned: u64,
    /// Pre-merged carry-over groups seeded across all epochs (`Sticky`).
    pub seeded_groups: u64,
    /// User-window slices dropped because their window fell below `k`
    /// (includes deferred users flushed unpublished at end of stream).
    pub suppressed_users: u64,
    /// Samples dropped with those users.
    pub suppressed_samples: u64,
    /// Users who entered deferral (counted once per continuous stretch of
    /// deferral, however many quiet windows it spans).
    pub deferred_users: u64,
    /// Samples booked into deferral, each counted exactly once.
    pub deferred_samples: u64,
    /// Sample suppression performed while pre-merging `Sticky` seed groups
    /// (per-epoch anonymization suppression is inside each epoch's
    /// [`GloveOutput`]).
    pub seed_suppressed: SuppressionLedger,
    /// Events dropped by a load-shedding ingress *before* reaching the
    /// engine (the `glove serve` daemon's bounded-queue ledger). The engine
    /// itself never sheds: [`StreamEngine::push`] books this as 0, and an
    /// ingest front-end that drops events under pressure accounts for them
    /// here so `events + shed_events` is the offered load.
    pub shed_events: u64,
    /// Per-epoch breakdown, in emission order.
    pub per_epoch: Vec<EpochStat>,
    /// Peak memory accounting across all epochs (element-wise maxima —
    /// epochs run sequentially and release their footprint in between).
    pub ledger: MemoryLedger,
    /// Total wall-clock seconds spent anonymizing epochs.
    pub elapsed_s: f64,
}

json_struct!(StreamStats {
    events,
    epochs,
    peak_resident_fingerprints,
    peak_resident_samples,
    merges,
    pairs_computed,
    pairs_pruned,
    pairs_skipped_tier0,
    pairs_skipped_tier1,
    pairs_abandoned,
    seeded_groups,
    suppressed_users,
    suppressed_samples,
    deferred_users,
    deferred_samples,
    seed_suppressed,
    // Absent in reports written before the shed ledger existed.
    shed_events = 0,
    per_epoch,
    ledger: "memory",
    elapsed_s,
});

impl StreamStats {
    /// User-window slices that entered an emitted epoch (a user active in
    /// three windows counts three times). Slices an epoch's residual policy
    /// discarded are still counted here — the actually-published total is
    /// `entered_user_slices() − Σ epoch discarded_users`.
    pub fn entered_user_slices(&self) -> u64 {
        self.per_epoch.iter().map(|e| e.users_in as u64).sum()
    }
}

/// One emitted epoch: the anonymized dataset of a closed window.
#[derive(Debug, Clone)]
pub struct EpochOutput {
    /// Epoch sequence number (matches [`EpochStat::epoch`]).
    pub epoch: u64,
    /// Start of the window, minutes since the stream origin.
    pub window_start_min: u64,
    /// The anonymized epoch dataset plus the epoch's own GLOVE statistics.
    pub output: GloveOutput,
}

/// Accumulated result of a convenience [`run_stream`] call.
#[derive(Debug, Clone)]
pub struct StreamRun {
    /// All emitted epochs, in order.
    pub epochs: Vec<EpochOutput>,
    /// Whole-run statistics.
    pub stats: StreamStats,
}

/// The windowed online GLOVE engine.
///
/// ```
/// use glove_core::prelude::*;
/// use glove_core::stream::{StreamEngine, StreamEvent};
///
/// let config = StreamConfig { window_min: 60, ..StreamConfig::default() };
/// let mut engine = StreamEngine::new("live", config).unwrap();
/// // Two subscribers moving together inside the first hour.
/// for t in [5, 10, 20] {
///     for user in [0, 1] {
///         engine
///             .push(StreamEvent { user, sample: Sample::point(100 * t as i64, 0, t) })
///             .unwrap();
///     }
/// }
/// let (last, stats) = engine.finish().unwrap();
/// let epoch = last.expect("one window closed at end of stream");
/// assert!(epoch.output.dataset.is_k_anonymous(2));
/// assert_eq!(stats.events, 6);
/// ```
#[derive(Debug)]
pub struct StreamEngine {
    intake: Intake,
    publisher: Publisher,
}

impl StreamEngine {
    /// Creates an engine for a named stream (the name becomes the epoch
    /// datasets' name, exactly as a batch run would see it). Runs under the
    /// uniform policy plane: every epoch gets exactly `config`.
    pub fn new(name: impl Into<String>, config: StreamConfig) -> Result<Self, GloveError> {
        Self::with_policy(name, config, crate::policy::shared(PolicyPlane::uniform()))
    }

    /// Creates an engine whose per-epoch behavior is governed by a policy
    /// plane over `config`. The handle is shared: a writer (the `serve`
    /// RECONFIG path, the adaptive loop) may swap the plane while the
    /// stream runs; the new plane takes effect when the next window opens.
    pub fn with_policy(
        name: impl Into<String>,
        config: StreamConfig,
        policy: SharedPolicy,
    ) -> Result<Self, GloveError> {
        config.validate()?;
        policy.read().expect("policy lock poisoned").validate()?;
        Ok(Self {
            publisher: Publisher {
                name: name.into(),
                glove: config.glove,
                prev_groups: Vec::new(),
            },
            intake: Intake::new(config, policy),
        })
    }

    /// The stream configuration.
    pub fn config(&self) -> &StreamConfig {
        &self.intake.config
    }

    /// The engine's policy handle (clone it to retune the plane mid-run).
    pub fn policy(&self) -> &SharedPolicy {
        &self.intake.policy
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &StreamStats {
        &self.intake.stats
    }

    /// Consumes one event. Returns the epoch output of the window the event
    /// closed, if any (at most one window can be non-empty at a time, so at
    /// most one epoch is emitted per push).
    ///
    /// # Errors
    ///
    /// [`GloveError::OutOfOrderEvent`] if the event starts earlier than an
    /// already-consumed event; any [`GloveError`] the per-epoch
    /// anonymization produces.
    pub fn push(&mut self, event: StreamEvent) -> Result<Option<EpochOutput>, GloveError> {
        let closed = self.intake.push(event)?;
        closed.map(|window| self.publish(window)).transpose()
    }

    /// Ends the stream: closes the final window (if any) and flushes the
    /// deferred ledger. Returns the final epoch output (if the last window
    /// published) and the whole-run statistics.
    pub fn finish(mut self) -> Result<(Option<EpochOutput>, StreamStats), GloveError> {
        let last = self.intake.close_window();
        let last = last.map(|window| self.publish(window)).transpose()?;
        Ok((last, self.intake.finish()))
    }

    /// Runs both halves inline on the caller.
    fn publish(&mut self, window: ClosedWindow) -> Result<EpochOutput, GloveError> {
        let published = self.publisher.publish(window)?;
        Ok(self.intake.absorb(published))
    }
}

/// A window the intake half closed for publication: every member's
/// samples (deferred users folded in) and the policy it opened under.
#[derive(Debug)]
struct ClosedWindow {
    epoch: u64,
    window_start_min: u64,
    buffers: BTreeMap<UserId, Vec<Sample>>,
    eff: EffectivePolicy,
    plan: Option<KPlan>,
}

/// What the publish half made of one closed window.
#[derive(Debug)]
struct Published {
    epoch: EpochOutput,
    stat: EpochStat,
    /// Suppression performed while pre-merging the window's `Sticky` seeds.
    seed_suppressed: SuppressionLedger,
}

/// The intake half of the engine: the window clock, the policy snapshot,
/// the under-k / deferral ledger, the residency marks, epoch numbering,
/// and the run statistics the published epochs fold into.
#[derive(Debug)]
struct Intake {
    config: StreamConfig,
    /// The policy plane resolved at every window boundary. The uniform
    /// plane (the default) reproduces `config` for every epoch.
    policy: SharedPolicy,
    /// True once the first event has opened a window.
    window_open: bool,
    /// Start of the window currently being filled, minutes.
    window_start: u64,
    /// Length of the window currently being filled, minutes.
    window_len: u64,
    /// Policy snapshot of the filling window, resolved when it opened — a
    /// plane swapped mid-window takes effect at the next boundary.
    eff: EffectivePolicy,
    /// Per-user k plan of the filling window (`None` under uniform k).
    plan: Option<KPlan>,
    /// Per-user sample buffers of the current window.
    buffers: BTreeMap<UserId, Vec<Sample>>,
    /// Users deferred from under-`k` windows, with their accumulated
    /// samples.
    deferred: BTreeMap<UserId, Vec<Sample>>,
    /// Largest event timestamp seen (order enforcement).
    last_t: u32,
    /// Epoch number of the next window that publishes.
    next_epoch: u64,
    resident_samples: usize,
    /// Users present in `buffers` *and* `deferred` (a deferred user active
    /// again). Maintained incrementally so the per-event residency note
    /// stays O(1) instead of scanning the deferred ledger.
    deferred_active: usize,
    stats: StreamStats,
}

impl Intake {
    fn new(config: StreamConfig, policy: SharedPolicy) -> Self {
        let eff = EffectivePolicy::of(&config);
        Self {
            config,
            policy,
            window_open: false,
            window_start: 0,
            window_len: u64::from(eff.window_min),
            eff,
            plan: None,
            buffers: BTreeMap::new(),
            deferred: BTreeMap::new(),
            last_t: 0,
            next_epoch: 0,
            resident_samples: 0,
            deferred_active: 0,
            stats: StreamStats::default(),
        }
    }

    /// Buffers one event, first closing the window it falls past.
    fn push(&mut self, event: StreamEvent) -> Result<Option<ClosedWindow>, GloveError> {
        let t = event.sample.t;
        if self.stats.events > 0 && t < self.last_t {
            return Err(GloveError::OutOfOrderEvent(format!(
                "event for user {} at t = {t} after clock reached {}",
                event.user, self.last_t
            )));
        }
        self.last_t = t;
        let t64 = u64::from(t);

        let mut closed = None;
        if !self.window_open {
            self.open_window(t64, 0);
        } else if t64 >= self.window_start + self.window_len {
            closed = self.close_window();
            let from = self.window_start + self.window_len;
            self.open_window(t64, from);
        }

        self.stats.events += 1;
        let buffer = self.buffers.entry(event.user).or_default();
        // A freshly created buffer (only inserts leave a buffer non-empty)
        // for a user sitting in the deferred ledger starts an overlap.
        if buffer.is_empty() && self.deferred.contains_key(&event.user) {
            self.deferred_active += 1;
        }
        buffer.push(event.sample);
        self.resident_samples += 1;
        self.note_residency();
        Ok(closed)
    }

    /// Ends the intake: users still deferred never found a publishable
    /// window.
    fn finish(mut self) -> StreamStats {
        for samples in self.deferred.values() {
            self.stats.suppressed_users += 1;
            self.stats.suppressed_samples += samples.len() as u64;
        }
        self.stats.ledger.capture_rss();
        self.stats
    }

    fn note_residency(&mut self) {
        // One resident buffer set per *user*: a deferred user who is active
        // again in the current window holds samples in both maps but is a
        // single carried-over fingerprint (the two sample lists merge at
        // window close), so counting both maps would double-count them in
        // the high-water mark. `deferred_active` tracks that overlap
        // incrementally. Carried `Sticky` group memberships are bare
        // user-id lists and are never counted as resident fingerprints.
        let resident = self.buffers.len() + self.deferred.len() - self.deferred_active;
        self.stats.peak_resident_fingerprints = self.stats.peak_resident_fingerprints.max(resident);
        self.stats.peak_resident_samples =
            self.stats.peak_resident_samples.max(self.resident_samples);
    }

    /// Opens the window containing minute `t`, walking forward from
    /// `from` (0 for the first window, the previous window's end
    /// otherwise), and snapshots the policy in force for it.
    ///
    /// The policy of a window is resolved once, here, against the epoch
    /// index it would be emitted as (`next_epoch`) — empty windows do
    /// not advance the epoch clock, so every window skipped in the jump
    /// below would have resolved identically, and the gap can be crossed
    /// in one division. Under the uniform plane this computes exactly
    /// `⌊t / W⌋ · W`, the pre-policy window arithmetic.
    fn open_window(&mut self, t: u64, from: u64) {
        let plane = self.policy.read().expect("policy lock poisoned");
        self.eff = plane.resolve(self.next_epoch, None, &self.config);
        self.plan = plane.kplan(self.next_epoch, &self.config);
        drop(plane);
        let len = u64::from(self.eff.window_min);
        self.window_len = len;
        self.window_start = from + ((t.saturating_sub(from)) / len) * len;
        self.window_open = true;
    }

    /// Closes the currently-filling window: applies the under-`k` policy,
    /// folds deferred users in and numbers the epoch. Returns the window
    /// when it publishes.
    fn close_window(&mut self) -> Option<ClosedWindow> {
        if !self.window_open {
            return None;
        }
        self.window_open = false;
        if self.buffers.is_empty() && self.deferred.is_empty() {
            return None;
        }

        // Population of the closing window: this window's users plus any
        // still-deferred users not active again. It must cover the deepest
        // k any of them requires — a cohort floor can sit above the global
        // k — which is the rule the epoch's GLOVE run checks.
        let population = self.buffers.len()
            + self
                .deferred
                .keys()
                .filter(|u| !self.buffers.contains_key(u))
                .count();
        let need = self.plan.as_ref().map_or(self.eff.k, |plan| {
            self.buffers
                .keys()
                .chain(self.deferred.keys())
                .map(|&u| plan.k_of(u))
                .fold(self.eff.k, usize::max)
        });
        if population < need {
            let buffers = std::mem::take(&mut self.buffers);
            // The live buffers drain (suppressed or folded into the
            // deferred ledger), so no user can be in both maps anymore.
            self.deferred_active = 0;
            match self.eff.under_k {
                UnderKPolicy::Suppress => {
                    // `deferred` is only populated under `Defer`, so the
                    // suppressed ledger is exactly this window's buffers.
                    for (_, samples) in buffers {
                        self.stats.suppressed_users += 1;
                        self.stats.suppressed_samples += samples.len() as u64;
                        self.resident_samples -= samples.len();
                    }
                }
                UnderKPolicy::Defer => {
                    // Count only what is *newly* deferred: a user re-deferred
                    // across consecutive quiet windows contributes one slice,
                    // and each sample is booked exactly once.
                    for (user, mut samples) in buffers {
                        self.stats.deferred_samples += samples.len() as u64;
                        match self.deferred.entry(user) {
                            std::collections::btree_map::Entry::Occupied(mut e) => {
                                e.get_mut().append(&mut samples);
                            }
                            std::collections::btree_map::Entry::Vacant(e) => {
                                self.stats.deferred_users += 1;
                                e.insert(samples);
                            }
                        }
                    }
                }
            }
            return None;
        }

        // Deferred users join the closing window's population.
        let mut buffers = std::mem::take(&mut self.buffers);
        for (user, mut samples) in std::mem::take(&mut self.deferred) {
            buffers.entry(user).or_default().append(&mut samples);
        }
        self.deferred_active = 0;
        self.resident_samples = 0;
        let epoch = self.next_epoch;
        self.next_epoch += 1;
        Some(ClosedWindow {
            epoch,
            window_start_min: self.window_start,
            buffers,
            eff: self.eff,
            plan: self.plan.take(),
        })
    }

    /// Folds a published window into the run statistics and returns its
    /// epoch.
    fn absorb(&mut self, published: Published) -> EpochOutput {
        let Published {
            epoch,
            stat,
            seed_suppressed,
        } = published;
        let glove = &epoch.output.stats;
        let stats = &mut self.stats;
        stats.epochs += 1;
        stats.merges += glove.merges;
        stats.pairs_computed += glove.pairs_computed;
        stats.pairs_pruned += glove.pairs_pruned;
        stats.pairs_skipped_tier0 += glove.pairs_skipped_tier0;
        stats.pairs_skipped_tier1 += glove.pairs_skipped_tier1;
        stats.pairs_abandoned += glove.pairs_abandoned;
        stats.seeded_groups += stat.seeded_groups as u64;
        stats.seed_suppressed.absorb(seed_suppressed);
        stats.ledger.merge_max(&glove.ledger);
        stats.elapsed_s += stat.elapsed_s;
        stats.per_epoch.push(stat);
        epoch
    }
}

/// The publish half of the engine: the `Sticky` seed pre-merge against the
/// previous epoch's groups, the epoch's GLOVE run and its [`EpochStat`]
/// row.
#[derive(Debug)]
struct Publisher {
    name: String,
    glove: GloveConfig,
    /// Group memberships of the previous emitted epoch (`Sticky` seeds).
    prev_groups: Vec<Vec<UserId>>,
}

impl Publisher {
    fn publish(&mut self, window: ClosedWindow) -> Result<Published, GloveError> {
        let ClosedWindow {
            epoch,
            window_start_min,
            buffers,
            eff,
            plan,
        } = window;
        let users_in = buffers.len();
        let mut seed_suppressed = SuppressionLedger::default();
        let (fingerprints, seeded_groups) = self.seed(buffers, &eff, &mut seed_suppressed)?;
        let fingerprints_in = fingerprints.len();
        let epoch_ds = Dataset::new(self.name.clone(), fingerprints)?;

        // The epoch's GLOVE run inherits the base configuration with the
        // policy-resolved k and suppression in force; the per-user k plan
        // (cohort floors) rides alongside. Under the uniform plane this is
        // exactly the base `GloveConfig` with no plan.
        let glove = GloveConfig {
            k: eff.k,
            suppression: eff.suppression,
            ..self.glove
        };
        let started = Instant::now();
        let output = anonymize_with_plan(&epoch_ds, &glove, plan.as_ref())?;
        let elapsed_s = started.elapsed().as_secs_f64();

        // Remember group memberships for the next epoch's seeds.
        self.prev_groups = output
            .dataset
            .fingerprints
            .iter()
            .map(|fp| fp.users().to_vec())
            .collect();

        let stat = EpochStat {
            epoch,
            window_start_min,
            fingerprints_in,
            users_in,
            seeded_groups,
            groups_out: output.dataset.fingerprints.len(),
            merges: output.stats.merges,
            pairs_computed: output.stats.pairs_computed,
            pairs_pruned: output.stats.pairs_pruned,
            pairs_skipped_tier0: output.stats.pairs_skipped_tier0,
            pairs_skipped_tier1: output.stats.pairs_skipped_tier1,
            pairs_abandoned: output.stats.pairs_abandoned,
            policy_k: eff.k,
            policy_window_min: eff.window_min,
            policy_carry: eff.carry,
            policy_under_k: eff.under_k,
            policy_cohort_users: plan.as_ref().map_or(0, |p| {
                epoch_ds
                    .fingerprints
                    .iter()
                    .flat_map(|f| f.users())
                    .filter(|&&u| p.k_of(u) > p.base())
                    .count()
            }),
            elapsed_s,
        };
        Ok(Published {
            epoch: EpochOutput {
                epoch,
                window_start_min,
                output,
            },
            stat,
            seed_suppressed,
        })
    }

    /// Turns the closed window's buffers into epoch fingerprints: singletons
    /// under `Fresh`, previous-epoch cohorts pre-merged under `Sticky`.
    /// Fingerprints are ordered by ascending first user id, which makes the
    /// single-full-window `Fresh` epoch dataset identical to a batch input
    /// ordered by user id.
    fn seed(
        &self,
        buffers: BTreeMap<UserId, Vec<Sample>>,
        eff: &EffectivePolicy,
        suppressed: &mut SuppressionLedger,
    ) -> Result<(Vec<Fingerprint>, usize), GloveError> {
        let mut singles: BTreeMap<UserId, Fingerprint> = BTreeMap::new();
        for (user, samples) in buffers {
            singles.insert(user, Fingerprint::with_users(vec![user], samples)?);
        }

        if eff.carry == CarryPolicy::Fresh || self.prev_groups.is_empty() {
            return Ok((singles.into_values().collect(), 0));
        }

        // Sticky: pre-merge each previous group's members that are active
        // in this window. Merging in ascending user-id order keeps the seed
        // deterministic.
        let cfg = &self.glove.stretch;
        let mut seeded: Vec<Fingerprint> = Vec::new();
        let mut seeded_groups = 0usize;
        for group in &self.prev_groups {
            let mut present: Vec<Fingerprint> =
                group.iter().filter_map(|u| singles.remove(u)).collect();
            if present.is_empty() {
                continue;
            }
            let mut merged = present.remove(0);
            let premerged = !present.is_empty();
            for fp in present {
                let outcome = merge_fingerprints(&merged, &fp, cfg, &eff.suppression)?;
                suppressed.absorb(outcome.suppressed);
                merged = outcome.fingerprint;
            }
            if premerged {
                seeded_groups += 1;
            }
            seeded.push(merged);
        }
        // New arrivals (never grouped before) enter as singletons.
        seeded.extend(singles.into_values());
        seeded.sort_by_key(|fp| fp.users()[0]);
        Ok((seeded, seeded_groups))
    }
}

/// Hands one finished epoch to whoever drives a [`Pipeline`]; an error
/// stops the delivery of every later epoch.
pub(crate) type Deliver<'a> = dyn FnMut(EpochOutput) -> Result<(), GloveError> + 'a;

/// Drives `engine` as a two-stage pipeline: the caller keeps the intake
/// half (event pull, window clock, ledgers, the observer) while one scoped
/// stage thread publishes the window that closed last. `body` feeds events
/// through [`Pipeline::feed`] and ends the stream with
/// [`Pipeline::finish`]. Epochs, statistics and work counters are those of
/// the inline [`StreamEngine::push`] loop; only when the caller sees each
/// epoch moves.
pub(crate) fn pipelined<T>(
    engine: StreamEngine,
    body: impl FnOnce(Pipeline<'_, '_>) -> Result<T, GloveError>,
) -> Result<T, GloveError> {
    let StreamEngine { intake, publisher } = engine;
    std::thread::scope(|scope| {
        body(Pipeline {
            scope,
            intake,
            publisher: Some(publisher),
            stage: None,
        })
    })
}

/// The stream pipeline of [`pipelined`]. A closed window is handed to the
/// stage over a rendezvous channel, so at most one window publishes while
/// the next one fills; finished epochs come back in order and reach the
/// caller after the next consumed event, or in [`Pipeline::finish`].
pub(crate) struct Pipeline<'scope, 'env> {
    scope: &'scope Scope<'scope, 'env>,
    intake: Intake,
    /// The publish half while no stage thread holds it.
    publisher: Option<Publisher>,
    /// The stage thread, spawned when the first window closes.
    stage: Option<Stage<'scope>>,
}

/// The running publish stage: windows in, epochs out, in order.
struct Stage<'scope> {
    windows: SyncSender<ClosedWindow>,
    epochs: Receiver<Result<Published, GloveError>>,
    thread: ScopedJoinHandle<'scope, Publisher>,
}

impl<'scope> Stage<'scope> {
    /// Starts the stage thread. It publishes windows in arrival order and
    /// stops after the first failure, or once nobody takes its epochs,
    /// handing the publish half back.
    fn spawn(scope: &'scope Scope<'scope, '_>, mut publisher: Publisher) -> Self {
        let (windows, inbox) = sync_channel::<ClosedWindow>(0);
        let (outbox, epochs) = channel();
        let thread = scope.spawn(move || {
            for window in inbox {
                let published = publisher.publish(window);
                let failed = published.is_err();
                if outbox.send(published).is_err() || failed {
                    break;
                }
            }
            publisher
        });
        Self {
            windows,
            epochs,
            thread,
        }
    }
}

impl Pipeline<'_, '_> {
    /// Consumes `events`, handing every closed window to the stage and
    /// delivering the epochs it has finished after each consumed event.
    ///
    /// # Errors
    ///
    /// A failed or out-of-order event ends the feed: every window closed
    /// before it is still published and delivered, then its error returns.
    /// A failed publication or delivery returns its error in place of later
    /// epochs, with the stage thread joined.
    pub(crate) fn feed(
        &mut self,
        events: &mut dyn Iterator<Item = Result<StreamEvent, GloveError>>,
        deliver: &mut Deliver<'_>,
    ) -> Result<(), GloveError> {
        for event in events {
            match event.and_then(|event| self.intake.push(event)) {
                Ok(Some(window)) => self.hand_off(window, deliver)?,
                Ok(None) => {}
                Err(e) => {
                    self.drain(deliver)?;
                    return Err(e);
                }
            }
            while let Some(published) = self.stage.as_ref().and_then(|s| s.epochs.try_recv().ok()) {
                if let Err(e) = published.and_then(|p| deliver(self.intake.absorb(p))) {
                    self.stop();
                    return Err(e);
                }
            }
        }
        Ok(())
    }

    /// Ends the stream: closes the final window, delivers every epoch
    /// still in flight and returns the whole-run statistics.
    pub(crate) fn finish(mut self, deliver: &mut Deliver<'_>) -> Result<StreamStats, GloveError> {
        if let Some(window) = self.intake.close_window() {
            self.hand_off(window, deliver)?;
        }
        self.drain(deliver)?;
        Ok(self.intake.finish())
    }

    /// Hands `window` to the stage, spawning it for the first window.
    /// Blocks while the stage still publishes the previous window.
    fn hand_off(
        &mut self,
        window: ClosedWindow,
        deliver: &mut Deliver<'_>,
    ) -> Result<(), GloveError> {
        let stage = self.stage.get_or_insert_with(|| {
            let publisher = self
                .publisher
                .take()
                .expect("the publish half is on the caller while no stage runs");
            Stage::spawn(self.scope, publisher)
        });
        if stage.windows.send(window).is_ok() {
            return Ok(());
        }
        // The stage stops early only after a failed publication, so
        // draining delivers what it finished first and returns that failure.
        self.drain(deliver)
    }

    /// Closes the stage's input, delivers every epoch it still finishes up
    /// to the first failed publication or delivery, and joins it. Returns
    /// that failure, if any.
    fn drain(&mut self, deliver: &mut Deliver<'_>) -> Result<(), GloveError> {
        let Some(stage) = self.stage.take() else {
            return Ok(());
        };
        drop(stage.windows);
        let result = stage
            .epochs
            .iter()
            .try_for_each(|published| deliver(self.intake.absorb(published?)));
        // After a failure, dropping the receiver stops the stage once the
        // window it is publishing is done.
        drop(stage.epochs);
        self.join(stage.thread);
        result
    }

    /// Closes the stage's input and output without delivering and joins
    /// it: the path of a failed delivery.
    fn stop(&mut self) {
        if let Some(stage) = self.stage.take() {
            drop(stage.windows);
            drop(stage.epochs);
            self.join(stage.thread);
        }
    }

    /// Takes the publish half back from a stopped stage; a panic on the
    /// stage resumes here.
    fn join(&mut self, thread: ScopedJoinHandle<'_, Publisher>) {
        match thread.join() {
            Ok(publisher) => self.publisher = Some(publisher),
            Err(panic) => std::panic::resume_unwind(panic),
        }
    }
}

/// Runs `events` through the run API's stream engine — the one
/// [`crate::api::RunBuilder::stream`] selects — with a [`NullObserver`]
/// under the uniform policy plane, returning every epoch and the report's
/// [`StreamStats`]. Use [`crate::api::RunBuilder::run_events`] for a
/// policy plane, or to write epochs out (and drop them) as they close.
pub fn run_stream(
    name: impl Into<String>,
    events: impl IntoIterator<Item = StreamEvent>,
    config: StreamConfig,
) -> Result<StreamRun, GloveError> {
    let uniform = crate::policy::shared(PolicyPlane::uniform());
    run_collected(&name.into(), events, config, uniform)
}

/// Runs the stream engine over `events` under `policy` with no observer,
/// keeping every epoch.
fn run_collected(
    name: &str,
    events: impl IntoIterator<Item = StreamEvent>,
    config: StreamConfig,
    policy: SharedPolicy,
) -> Result<StreamRun, GloveError> {
    let outcome = StreamGlove::new(config, policy, true)?.run_events(
        name,
        None,
        &mut events.into_iter().map(Ok),
        &mut NullObserver,
    )?;
    match (outcome.output, outcome.report.detail) {
        (RunOutput::Epochs(epochs), RunDetail::Stream(stats)) => Ok(StreamRun { epochs, stats }),
        _ => unreachable!("the stream engine publishes epochs and reports StreamStats"),
    }
}

/// Flattens a dataset into the time-ordered event stream an online observer
/// would have seen: one event per (subscriber, sample), ordered by
/// `(t, user, x, y)`. The inverse view used by the batch-equivalence anchor
/// and by the CLI when replaying a dataset file through `glove stream`.
pub fn events_of(dataset: &Dataset) -> Vec<StreamEvent> {
    let mut events: Vec<StreamEvent> = dataset
        .fingerprints
        .iter()
        .flat_map(|fp| {
            fp.users().iter().flat_map(move |&user| {
                fp.samples()
                    .iter()
                    .map(move |&sample| StreamEvent { user, sample })
            })
        })
        .collect();
    events.sort_unstable_by_key(|e| {
        (
            e.sample.t,
            e.user,
            e.sample.x,
            e.sample.y,
            e.sample.dx,
            e.sample.dy,
            e.sample.dt,
        )
    });
    events
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CarryPolicy, GloveConfig, UnderKPolicy};
    use crate::glove::anonymize;

    /// `n` users in two tight spatial clusters, one event per user every
    /// `period` minutes over `span` minutes.
    fn regular_events(n: u32, period: u32, span: u32) -> Vec<StreamEvent> {
        let mut events = Vec::new();
        let mut t = 0;
        while t < span {
            for user in 0..n {
                let cluster = i64::from(user % 2) * 60_000;
                events.push(StreamEvent {
                    user,
                    sample: Sample::point(cluster + i64::from(user) * 100, 0, t + user % 3),
                });
            }
            t += period;
        }
        events.sort_unstable_by_key(|e| (e.sample.t, e.user));
        events
    }

    fn cfg(window_min: u32) -> StreamConfig {
        StreamConfig {
            window_min,
            ..StreamConfig::default()
        }
    }

    /// [`run_stream`] under a policy plane.
    fn run_planned(
        name: &str,
        events: Vec<StreamEvent>,
        config: StreamConfig,
        plane: PolicyPlane,
    ) -> Result<StreamRun, GloveError> {
        run_collected(name, events, config, crate::policy::shared(plane))
    }

    #[test]
    fn single_full_window_matches_batch_run() {
        let events = regular_events(8, 60, 600);
        let mut per_user: BTreeMap<UserId, Vec<Sample>> = BTreeMap::new();
        for e in &events {
            per_user.entry(e.user).or_default().push(e.sample);
        }
        let fps = per_user
            .into_iter()
            .map(|(u, s)| Fingerprint::with_users(vec![u], s).unwrap())
            .collect();
        let ds = Dataset::new("stream-unit", fps).unwrap();
        let batch = anonymize(&ds, &GloveConfig::default()).unwrap();

        let run = run_stream("stream-unit", events, cfg(100_000)).unwrap();
        assert_eq!(run.epochs.len(), 1);
        let streamed = &run.epochs[0].output;
        assert_eq!(streamed.dataset.name, batch.dataset.name);
        assert_eq!(streamed.dataset.fingerprints, batch.dataset.fingerprints);
        assert_eq!(streamed.stats.merges, batch.stats.merges);
    }

    #[test]
    fn windows_emit_incrementally_and_stay_k_anonymous() {
        let events = regular_events(6, 30, 360);
        let run = run_stream("windows", events, cfg(120)).unwrap();
        assert_eq!(run.epochs.len(), 3, "360 min of events, 120 min windows");
        for (i, epoch) in run.epochs.iter().enumerate() {
            assert_eq!(epoch.epoch as usize, i);
            assert!(epoch.output.dataset.is_k_anonymous(2));
            assert_eq!(epoch.output.dataset.num_users(), 6);
        }
        assert_eq!(run.stats.epochs, 3);
        assert_eq!(run.stats.events, 6 * 12);
        // Memory followed the window, not the stream: at most 6 users and
        // 6 * 4 rounds of samples were ever resident.
        assert_eq!(run.stats.peak_resident_fingerprints, 6);
        assert!(run.stats.peak_resident_samples <= 6 * 4);
    }

    #[test]
    fn rejects_out_of_order_events() {
        let mut engine = StreamEngine::new("order", cfg(60)).unwrap();
        engine
            .push(StreamEvent {
                user: 0,
                sample: Sample::point(0, 0, 50),
            })
            .unwrap();
        let err = engine
            .push(StreamEvent {
                user: 1,
                sample: Sample::point(0, 0, 49),
            })
            .unwrap_err();
        assert!(matches!(err, GloveError::OutOfOrderEvent(_)));
    }

    #[test]
    fn under_k_window_suppresses_by_default() {
        // Window 0 holds a lone user; windows 1.. hold a full population.
        let mut events = vec![StreamEvent {
            user: 9,
            sample: Sample::point(0, 0, 10),
        }];
        events.extend(regular_events(4, 30, 120).into_iter().map(|mut e| {
            e.sample.t += 60;
            e
        }));
        let run = run_stream("underk", events, cfg(60)).unwrap();
        assert_eq!(run.stats.suppressed_users, 1);
        assert_eq!(run.stats.suppressed_samples, 1);
        assert!(run.epochs.iter().all(|e| !e
            .output
            .dataset
            .fingerprints
            .iter()
            .any(|f| f.users().contains(&9))));
    }

    #[test]
    fn under_k_defer_publishes_in_next_epoch() {
        let mut events = vec![StreamEvent {
            user: 9,
            sample: Sample::point(0, 0, 10),
        }];
        events.extend(regular_events(4, 30, 120).into_iter().map(|mut e| {
            e.sample.t += 60;
            e
        }));
        let config = StreamConfig {
            window_min: 60,
            under_k: UnderKPolicy::Defer,
            ..StreamConfig::default()
        };
        let run = run_stream("defer", events, config).unwrap();
        assert_eq!(run.stats.deferred_users, 1);
        assert_eq!(run.stats.suppressed_users, 0);
        let first = &run.epochs[0].output.dataset;
        assert_eq!(first.num_users(), 5, "deferred user joins the next epoch");
        // The deferred user's window-0 sample was published.
        let published_t: Vec<u32> = first
            .fingerprints
            .iter()
            .filter(|f| f.users().contains(&9))
            .flat_map(|f| f.samples().iter().map(|s| s.t))
            .collect();
        assert!(published_t.contains(&10) || published_t.iter().any(|&t| t <= 60));
    }

    #[test]
    fn consecutive_quiet_windows_book_deferrals_once() {
        // User 3 alone in windows 0 and 1 (one sample each); a full
        // population only in window 2. Re-deferral must not double-count.
        let mut events = vec![
            StreamEvent {
                user: 3,
                sample: Sample::point(0, 0, 10),
            },
            StreamEvent {
                user: 3,
                sample: Sample::point(0, 0, 70),
            },
        ];
        events.extend(regular_events(3, 30, 60).into_iter().map(|mut e| {
            e.sample.t += 120;
            e
        }));
        let config = StreamConfig {
            window_min: 60,
            under_k: UnderKPolicy::Defer,
            ..StreamConfig::default()
        };
        let run = run_stream("requeue", events, config).unwrap();
        assert_eq!(run.stats.deferred_users, 1, "one user entered deferral");
        assert_eq!(
            run.stats.deferred_samples, 2,
            "each deferred sample booked exactly once"
        );
        assert_eq!(run.stats.suppressed_users, 0);
        assert_eq!(run.epochs.len(), 1);
        let published = &run.epochs[0].output.dataset;
        assert_eq!(published.num_users(), 4, "deferred user published");
        // Both early samples made it out.
        let early: usize = published
            .fingerprints
            .iter()
            .filter(|f| f.users().contains(&3))
            .flat_map(|f| f.samples())
            .filter(|s| s.t < 120)
            .count();
        assert!(early >= 1, "deferred samples must be published");
    }

    #[test]
    fn deferred_users_flushed_at_end_are_suppressed() {
        let events = vec![StreamEvent {
            user: 3,
            sample: Sample::point(0, 0, 10),
        }];
        let config = StreamConfig {
            window_min: 60,
            under_k: UnderKPolicy::Defer,
            ..StreamConfig::default()
        };
        let run = run_stream("flush", events, config).unwrap();
        assert!(run.epochs.is_empty());
        assert_eq!(run.stats.deferred_users, 1);
        assert_eq!(run.stats.suppressed_users, 1, "flush counts as suppression");
    }

    #[test]
    fn reactivated_deferred_user_is_one_resident_fingerprint() {
        // User 3 is alone in window 0 (deferred); all four users are active
        // in window 1. While window 1 fills, user 3 has samples in both the
        // deferred ledger and the live buffer — the high-water mark must
        // count them once, so the peak equals the four distinct users (the
        // pre-fix union-less accounting reported five).
        let mut events = vec![StreamEvent {
            user: 3,
            sample: Sample::point(0, 0, 10),
        }];
        for user in 0..4u32 {
            events.push(StreamEvent {
                user,
                sample: Sample::point(i64::from(user) * 100, 0, 70 + user),
            });
        }
        let config = StreamConfig {
            window_min: 60,
            under_k: UnderKPolicy::Defer,
            ..StreamConfig::default()
        };
        let run = run_stream("reactivate", events, config).unwrap();
        assert_eq!(run.stats.deferred_users, 1);
        assert_eq!(
            run.stats.peak_resident_fingerprints, 4,
            "a deferred user active again must not be double-counted"
        );
        assert_eq!(run.stats.peak_resident_samples, 5, "all samples resident");
        assert_eq!(run.epochs.len(), 1);
        assert_eq!(run.epochs[0].output.dataset.num_users(), 4);
    }

    #[test]
    fn sticky_carry_keeps_stable_cohorts() {
        // Two clear cohorts repeating identically across four windows.
        let events = regular_events(8, 30, 480);
        let config = StreamConfig {
            window_min: 120,
            carry: CarryPolicy::Sticky,
            ..StreamConfig::default()
        };
        let run = run_stream("sticky", events, config).unwrap();
        assert_eq!(run.epochs.len(), 4);
        assert!(
            run.stats.seeded_groups > 0,
            "later epochs must reuse groups"
        );
        let groups_of = |e: &EpochOutput| -> Vec<Vec<UserId>> {
            let mut g: Vec<Vec<UserId>> = e
                .output
                .dataset
                .fingerprints
                .iter()
                .map(|f| f.users().to_vec())
                .collect();
            g.sort();
            g
        };
        let first = groups_of(&run.epochs[1]);
        for later in &run.epochs[2..] {
            assert_eq!(
                groups_of(later),
                first,
                "sticky cohorts reshuffled between epochs"
            );
        }
    }

    #[test]
    fn fresh_and_sticky_agree_on_first_epoch() {
        let events = regular_events(6, 30, 120);
        let sticky = StreamConfig {
            window_min: 120,
            carry: CarryPolicy::Sticky,
            ..StreamConfig::default()
        };
        let fresh = cfg(120);
        let a = run_stream("agree", events.clone(), fresh).unwrap();
        let b = run_stream("agree", events, sticky).unwrap();
        assert_eq!(
            a.epochs[0].output.dataset.fingerprints, b.epochs[0].output.dataset.fingerprints,
            "no carry state exists before the first epoch"
        );
    }

    #[test]
    fn empty_stream_finishes_cleanly() {
        let engine = StreamEngine::new("empty", cfg(60)).unwrap();
        let (last, stats) = engine.finish().unwrap();
        assert!(last.is_none());
        assert_eq!(stats.events, 0);
        assert_eq!(stats.epochs, 0);
    }

    #[test]
    fn events_of_round_trips_single_user_datasets() {
        let fps = vec![
            Fingerprint::from_points(0, &[(0, 0, 5), (100, 0, 9)]).unwrap(),
            Fingerprint::from_points(1, &[(200, 0, 7)]).unwrap(),
        ];
        let ds = Dataset::new("ev", fps).unwrap();
        let events = events_of(&ds);
        assert_eq!(events.len(), 3);
        let ts: Vec<u32> = events.iter().map(|e| e.sample.t).collect();
        assert_eq!(ts, vec![5, 7, 9], "events are time-ordered");
        // Multi-user fingerprints fan out one event per subscriber.
        let shared = Fingerprint::with_users(vec![5, 6], vec![Sample::point(0, 0, 3)]).unwrap();
        let ds2 = Dataset::new("ev2", vec![shared]).unwrap();
        assert_eq!(events_of(&ds2).len(), 2);
    }

    #[test]
    fn policy_uniform_plane_is_byte_identical() {
        let events = regular_events(6, 30, 360);
        let plain = run_stream("uniform", events.clone(), cfg(120)).unwrap();
        let planned = run_planned("uniform", events, cfg(120), PolicyPlane::uniform()).unwrap();
        assert_eq!(plain.epochs.len(), planned.epochs.len());
        for (a, b) in plain.epochs.iter().zip(&planned.epochs) {
            assert_eq!(a.output.dataset.fingerprints, b.output.dataset.fingerprints);
            assert_eq!(a.window_start_min, b.window_start_min);
        }
        // Wall-clock timings differ between runs; everything else must not.
        let strip = |mut s: StreamStats| {
            s.elapsed_s = 0.0;
            for e in &mut s.per_epoch {
                e.elapsed_s = 0.0;
            }
            s.ledger.peak_rss_bytes = 0;
            s
        };
        assert_eq!(strip(plain.stats), strip(planned.stats));
    }

    #[test]
    fn policy_switches_k_at_epoch_boundary() {
        use crate::policy::{PolicyOverride, PolicyRule};
        // k = 2 for epoch 0, k = 4 from epoch 1 on.
        let mut plane = PolicyPlane::uniform();
        plane.rules.push(PolicyRule {
            from_epoch: 1,
            to_epoch: None,
            cohort: None,
            set: PolicyOverride {
                k: Some(4),
                ..PolicyOverride::default()
            },
        });
        let events = regular_events(8, 30, 240);
        let run = run_planned("swk", events, cfg(120), plane).unwrap();
        assert_eq!(run.epochs.len(), 2);
        assert!(run.epochs[0].output.dataset.is_k_anonymous(2));
        assert!(run.epochs[1].output.dataset.is_k_anonymous(4));
        assert_eq!(run.stats.per_epoch[0].policy_k, 2);
        assert_eq!(run.stats.per_epoch[1].policy_k, 4);
        // Epoch 0 is allowed to publish pairs that epoch 1 must not.
        assert!(run.epochs[1]
            .output
            .dataset
            .fingerprints
            .iter()
            .all(|f| f.multiplicity() >= 4));
    }

    #[test]
    fn policy_switches_window_length_at_boundary() {
        use crate::policy::{PolicyOverride, PolicyRule};
        // Epoch 0 closes after 120 min; epochs 1.. use 60-min windows.
        let mut plane = PolicyPlane::uniform();
        plane.rules.push(PolicyRule {
            from_epoch: 1,
            to_epoch: None,
            cohort: None,
            set: PolicyOverride {
                window_min: Some(60),
                ..PolicyOverride::default()
            },
        });
        let events = regular_events(6, 30, 240);
        let run = run_planned("sww", events, cfg(120), plane).unwrap();
        assert_eq!(run.epochs.len(), 3, "120 + 60 + 60 covers 240 min");
        let starts: Vec<u64> = run.epochs.iter().map(|e| e.window_start_min).collect();
        assert_eq!(starts, vec![0, 120, 180]);
        assert_eq!(run.stats.per_epoch[0].policy_window_min, 120);
        assert_eq!(run.stats.per_epoch[1].policy_window_min, 60);
    }

    #[test]
    fn policy_cohort_floor_deepens_members_groups() {
        use crate::policy::{CohortSpec, PolicyOverride, PolicyRule};
        // Users 0 and 2 must hide at depth 4 while the global k stays 2.
        let plane = PolicyPlane {
            cohorts: vec![CohortSpec {
                name: "vip".into(),
                users: vec![0, 2],
            }],
            rules: vec![PolicyRule {
                from_epoch: 0,
                to_epoch: None,
                cohort: Some("vip".into()),
                set: PolicyOverride {
                    k: Some(4),
                    ..PolicyOverride::default()
                },
            }],
        };
        let events = regular_events(8, 30, 120);
        let run = run_planned("coh", events, cfg(120), plane).unwrap();
        assert_eq!(run.epochs.len(), 1);
        let ds = &run.epochs[0].output.dataset;
        assert!(ds.is_k_anonymous(2), "global floor still holds");
        for fp in &ds.fingerprints {
            if fp.users().contains(&0) || fp.users().contains(&2) {
                assert!(
                    fp.multiplicity() >= 4,
                    "cohort member published at depth {} < 4",
                    fp.multiplicity()
                );
            }
        }
        assert_eq!(run.stats.per_epoch[0].policy_cohort_users, 2);
    }

    #[test]
    fn policy_swap_applies_at_next_window() {
        use crate::policy::{PolicyOverride, PolicyRule};
        let handle = crate::policy::shared(PolicyPlane::uniform());
        let mut engine = StreamEngine::with_policy("swap", cfg(60), handle.clone()).unwrap();
        let feed = |engine: &mut StreamEngine, base: u32| {
            let mut out = Vec::new();
            for t in [0u32, 30] {
                for user in 0..6u32 {
                    if let Some(e) = engine
                        .push(StreamEvent {
                            user,
                            sample: Sample::point(i64::from(user) * 100, 0, base + t),
                        })
                        .unwrap()
                    {
                        out.push(e);
                    }
                }
            }
            out
        };
        feed(&mut engine, 0);
        // Retune between epochs: k = 6 for every epoch from now on.
        let mut plane = PolicyPlane::uniform();
        plane.rules.push(PolicyRule {
            from_epoch: 0,
            to_epoch: None,
            cohort: None,
            set: PolicyOverride {
                k: Some(6),
                ..PolicyOverride::default()
            },
        });
        *handle.write().unwrap() = plane;
        let mut emitted = feed(&mut engine, 60);
        let (last, stats) = engine.finish().unwrap();
        emitted.extend(last);
        assert_eq!(emitted.len(), 2);
        // Epoch 0 was already filling when the swap landed: old policy.
        assert_eq!(stats.per_epoch[0].policy_k, 2);
        // Epoch 1 opened after the swap: new policy.
        assert_eq!(stats.per_epoch[1].policy_k, 6);
        assert!(emitted[1].output.dataset.is_k_anonymous(6));
    }

    /// Windows 0 and 2 hold users 0–5, window 1 only users 0–2, one
    /// 60-minute window each; user 0 sits in a cohort held at k = 4.
    fn cohort_floor_run(under_k: UnderKPolicy) -> Result<StreamRun, GloveError> {
        use crate::policy::{CohortSpec, PolicyOverride, PolicyRule};
        let plane = PolicyPlane {
            cohorts: vec![CohortSpec {
                name: "vip".into(),
                users: vec![0],
            }],
            rules: vec![PolicyRule {
                from_epoch: 0,
                to_epoch: None,
                cohort: Some("vip".into()),
                set: PolicyOverride {
                    k: Some(4),
                    ..PolicyOverride::default()
                },
            }],
        };
        let mut events = Vec::new();
        for (start, users) in [(0u32, 6u32), (60, 3), (120, 6)] {
            for user in 0..users {
                events.push(StreamEvent {
                    user,
                    sample: Sample::point(i64::from(user) * 100, 0, start + 10 + user),
                });
            }
        }
        let config = StreamConfig {
            window_min: 60,
            under_k,
            ..StreamConfig::default()
        };
        run_planned("floor", events, config, plane)
    }

    #[test]
    fn quiet_window_below_a_cohort_floor_follows_the_under_k_policy() {
        // Window 1 holds 3 users: enough for the global k = 2, not for
        // user 0's k = 4. It must be treated as under-k, not abort the run.
        let suppressed = cohort_floor_run(UnderKPolicy::Suppress).unwrap();
        let starts: Vec<u64> = suppressed
            .epochs
            .iter()
            .map(|e| e.window_start_min)
            .collect();
        assert_eq!(starts, [0, 120]);
        assert_eq!(suppressed.stats.suppressed_users, 3);
        assert_eq!(suppressed.stats.suppressed_samples, 3);
        assert_eq!(suppressed.stats.deferred_users, 0);

        let deferred = cohort_floor_run(UnderKPolicy::Defer).unwrap();
        let starts: Vec<u64> = deferred.epochs.iter().map(|e| e.window_start_min).collect();
        assert_eq!(starts, [0, 120]);
        assert_eq!(deferred.stats.deferred_users, 3);
        assert_eq!(deferred.stats.deferred_samples, 3);
        assert_eq!(deferred.stats.suppressed_users, 0);
        assert!(
            deferred.epochs[1]
                .output
                .dataset
                .fingerprints
                .iter()
                .flat_map(|f| f.samples())
                .any(|s| s.t < 120),
            "the deferred samples publish with window 2"
        );

        for run in [&suppressed, &deferred] {
            for epoch in &run.epochs {
                let group = epoch
                    .output
                    .dataset
                    .fingerprints
                    .iter()
                    .find(|f| f.users().contains(&0))
                    .expect("user 0 publishes in every epoch");
                assert!(group.multiplicity() >= 4, "cohort floor broken");
            }
        }
    }

    /// Runs `body` on its own thread and fails the test if it has not
    /// returned within 10 s (a deadlock fails instead of hanging).
    fn within_10s<T: Send + 'static>(body: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(body());
        });
        rx.recv_timeout(std::time::Duration::from_secs(10))
            .expect("the pipeline hung")
    }

    /// A closed window of `users` co-located users in window 0.
    fn window_of(epoch: u64, users: u32) -> ClosedWindow {
        ClosedWindow {
            epoch,
            window_start_min: 0,
            buffers: (0..users)
                .map(|u| (u, vec![Sample::point(i64::from(u) * 100, 0, 10)]))
                .collect(),
            eff: EffectivePolicy::of(&cfg(60)),
            plan: None,
        }
    }

    /// Hands the windows to a pipeline's stage, then finishes; returns the
    /// outcome and the epochs delivered.
    fn stage_run(windows: Vec<ClosedWindow>) -> (Result<StreamStats, GloveError>, Vec<u64>) {
        within_10s(move || {
            let engine = StreamEngine::new("stage", cfg(60)).unwrap();
            let mut delivered = Vec::new();
            let result = pipelined(engine, |mut pipeline| {
                let mut deliver = |e: EpochOutput| {
                    delivered.push(e.epoch);
                    Ok(())
                };
                for window in windows {
                    pipeline.hand_off(window, &mut deliver)?;
                }
                pipeline.finish(&mut deliver)
            });
            (result, delivered)
        })
    }

    #[test]
    fn a_window_the_stage_rejects_returns_its_error_without_a_hang() {
        // A lone user cannot be 2-anonymous: the stage's GLOVE run fails.
        let (result, delivered) = stage_run(vec![window_of(0, 1)]);
        assert!(matches!(result, Err(GloveError::Unsatisfiable(_))));
        assert!(delivered.is_empty());

        // A finished epoch ahead of the failure is still delivered, and a
        // hand-off after it surfaces the failure instead of blocking.
        let (result, delivered) =
            stage_run(vec![window_of(0, 4), window_of(1, 1), window_of(2, 4)]);
        assert!(matches!(result, Err(GloveError::Unsatisfiable(_))));
        assert_eq!(delivered, [0]);

        let (result, delivered) = stage_run(vec![window_of(0, 4), window_of(1, 4)]);
        assert_eq!(result.unwrap().epochs, 2);
        assert_eq!(delivered, [0, 1]);
    }

    #[test]
    fn epoch_stats_account_for_population() {
        let events = regular_events(6, 30, 240);
        let run = run_stream("stats", events, cfg(120)).unwrap();
        assert_eq!(run.stats.per_epoch.len(), 2);
        for e in &run.stats.per_epoch {
            assert_eq!(e.users_in, 6);
            assert!(e.groups_out >= 1);
            assert!(e.merges >= 1);
        }
        assert_eq!(
            run.stats.entered_user_slices(),
            12,
            "6 users in each of 2 windows"
        );
    }
}
