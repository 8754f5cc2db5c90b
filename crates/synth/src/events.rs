//! An event-iterator view of a scenario: the same synthetic CDR process as
//! [`crate::generate`], delivered as a single time-ordered stream of
//! [`StreamEvent`]s instead of a materialized [`glove_core::Dataset`].
//!
//! This is the generator-side half of the streaming pipeline: the batch
//! path builds every fingerprint up front (O(dataset) resident memory in
//! `Sample`-sized records plus `Fingerprint`/`Dataset` structure), while
//! [`ScenarioEvents`] keeps only compact per-user cursors — the pending
//! event *minutes* (4 bytes each), the itinerary blocks and a mid-stream
//! RNG — and synthesizes each 40-byte sample lazily at its emission minute.
//! Feeding `glove stream` (or a [`glove_core::stream::StreamEngine`])
//! directly from this iterator keeps the whole synth→anonymize pipeline's
//! resident sample count bounded by the window population.
//!
//! The two paths cannot drift: both are built from the same
//! `spawn_user`/`synth_sample` helpers in [`crate::scenario`], and the
//! equivalence is pinned by tests (`stream_matches_generated_dataset`).

use crate::scenario::{
    deploy_towers, min_events, screening_guard, spawn_user, ScenarioConfig, ScenarioError,
};
use crate::towers::TowerNetwork;
use crate::workloads::Cohort;
use glove_core::stream::StreamEvent;
use glove_core::UserId;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::scenario::synth_sample;
use crate::scenario::UserGen;

/// Time-ordered iterator over every event of a scenario.
///
/// Events are ordered by `(minute, user id)` — the same canonical order
/// [`glove_core::stream::events_of`] produces from a materialized dataset —
/// so the stream can be consumed by a
/// [`glove_core::stream::StreamEngine`] as-is. Device-churn scenarios
/// route each event to the person's primary or secondary id exactly like
/// the batch generator (secondary ids allocated past `num_users` in
/// person-acceptance order).
///
/// ```
/// use glove_synth::{ScenarioConfig, ScenarioEvents};
///
/// let mut cfg = ScenarioConfig::civ_like(5);
/// cfg.num_towers = 150;
/// let events: Vec<_> = ScenarioEvents::new(&cfg).collect();
/// assert!(events.windows(2).all(|w| w[0].sample.t <= w[1].sample.t));
/// ```
pub struct ScenarioEvents {
    cfg: ScenarioConfig,
    towers: TowerNetwork,
    users: Vec<UserCursor>,
    /// Min-heap of `(next event minute, emitted user id, person index)` —
    /// one entry per person with events remaining. Minutes are unique per
    /// person and ids unique per (person, route), so ordering by
    /// `(minute, id)` is total.
    heap: BinaryHeap<Reverse<(u32, UserId, u32)>>,
    screened_out: usize,
    /// Ground-truth cohort per emitted user id (primaries then split
    /// secondaries), matching [`crate::SynthDataset::cohorts`].
    cohorts: Vec<Cohort>,
}

/// One person's generation state plus its emission position.
struct UserCursor {
    gen: UserGen,
    /// Index of the next minute to synthesize.
    next: usize,
    /// Secondary user id, for persons with a split churn plan.
    secondary: Option<UserId>,
}

impl UserCursor {
    /// The id the event at minute `t` is logged under.
    fn emit_id(&self, person: u32, t: u32) -> UserId {
        match self.secondary {
            Some(sec) if self.gen.churn.routes_secondary(t) => sec,
            _ => person as UserId,
        }
    }
}

impl ScenarioEvents {
    /// Builds the event view of a scenario. Screening and per-user streams
    /// are identical to [`crate::generate`] (deterministic per seed).
    ///
    /// # Panics
    /// Panics with the [`ScenarioError`] message on a degenerate
    /// configuration (use [`Self::try_new`] for a `Result`), and on a
    /// pathologically low screening acceptance rate, exactly like
    /// [`crate::generate`].
    pub fn new(cfg: &ScenarioConfig) -> Self {
        match Self::try_new(cfg) {
            Ok(events) => events,
            Err(e) => panic!("invalid scenario configuration: {e}"),
        }
    }

    /// [`Self::new`] with the degenerate-configuration panic lifted into a
    /// typed [`ScenarioError`].
    pub fn try_new(cfg: &ScenarioConfig) -> Result<Self, ScenarioError> {
        cfg.validate()?;
        let towers = deploy_towers(cfg);
        let mut users = Vec::with_capacity(cfg.num_users);
        let mut screened_out = 0usize;
        let mut candidate = 0u64;
        while users.len() < cfg.num_users {
            screening_guard(cfg, candidate, screened_out);
            match spawn_user(cfg, candidate) {
                Some(gen) => users.push(UserCursor {
                    gen,
                    next: 0,
                    secondary: None,
                }),
                None => screened_out += 1,
            }
            candidate += 1;
        }
        // Secondary churn ids: past num_users, in person-acceptance order —
        // the identical allocation the batch generator performs.
        let mut cohorts: Vec<Cohort> = users.iter().map(|c| c.gen.cohort).collect();
        let mut next_secondary = cfg.num_users as UserId;
        for cursor in users.iter_mut() {
            if cursor.gen.churn.is_split() {
                cursor.secondary = Some(next_secondary);
                cohorts.push(cursor.gen.cohort);
                next_secondary += 1;
            }
        }
        let mut heap = BinaryHeap::with_capacity(users.len());
        for (person, cursor) in users.iter().enumerate() {
            // Screening guarantees at least `min_events` minutes per user.
            debug_assert!(cursor.gen.minutes.len() >= min_events(cfg));
            let t0 = cursor.gen.minutes[0];
            heap.push(Reverse((
                t0,
                cursor.emit_id(person as u32, t0),
                person as u32,
            )));
        }
        Ok(Self {
            cfg: cfg.clone(),
            towers,
            users,
            heap,
            screened_out,
            cohorts,
        })
    }

    /// Candidates rejected by the activity screening before `num_users`
    /// accepted candidates were found (matches
    /// [`crate::SynthDataset::screened_out`]).
    pub fn screened_out(&self) -> usize {
        self.screened_out
    }

    /// The deployed tower network (identical to the batch path's).
    pub fn towers(&self) -> &TowerNetwork {
        &self.towers
    }

    /// Ground-truth cohort per emitted user id — primaries `0..num_users`,
    /// then churn secondaries — matching
    /// [`crate::SynthDataset::cohorts`].
    pub fn cohorts(&self) -> &[Cohort] {
        &self.cohorts
    }

    /// Total user ids this stream emits (persons plus churn secondaries).
    pub fn num_user_ids(&self) -> usize {
        self.cohorts.len()
    }

    /// Events not yet emitted.
    pub fn remaining(&self) -> usize {
        self.users
            .iter()
            .map(|c| c.gen.minutes.len() - c.next)
            .sum()
    }
}

impl Iterator for ScenarioEvents {
    type Item = StreamEvent;

    fn next(&mut self) -> Option<StreamEvent> {
        let Reverse((t, user, person)) = self.heap.pop()?;
        let cursor = &mut self.users[person as usize];
        let sample = synth_sample(
            &self.cfg,
            &self.towers,
            &cursor.gen.itinerary,
            &mut cursor.gen.rng,
            t,
        );
        cursor.next += 1;
        if let Some(&next_t) = cursor.gen.minutes.get(cursor.next) {
            let id = cursor.emit_id(person, next_t);
            self.heap.push(Reverse((next_t, id, person)));
        }
        Some(StreamEvent { user, sample })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.remaining();
        (n, Some(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::generate;
    use std::collections::BTreeMap;

    fn small_cfg(n: usize) -> ScenarioConfig {
        let mut cfg = ScenarioConfig::civ_like(n);
        cfg.num_towers = 200;
        cfg
    }

    #[test]
    fn stream_matches_generated_dataset() {
        // The anchor: grouping the event stream by user must reproduce the
        // batch generator's fingerprints sample for sample.
        let cfg = small_cfg(20);
        let batch = generate(&cfg);
        let stream = ScenarioEvents::new(&cfg);
        assert_eq!(stream.screened_out(), batch.screened_out);

        let mut per_user: BTreeMap<UserId, Vec<glove_core::Sample>> = BTreeMap::new();
        for e in stream {
            per_user.entry(e.user).or_default().push(e.sample);
        }
        assert_eq!(per_user.len(), batch.dataset.fingerprints.len());
        for (user, samples) in per_user {
            let fp = &batch.dataset.fingerprints[user as usize];
            assert_eq!(fp.users(), &[user]);
            assert_eq!(
                fp.samples(),
                &samples[..],
                "event stream diverged from the batch generator for user {user}"
            );
        }
    }

    #[test]
    fn stream_is_globally_time_ordered() {
        let cfg = small_cfg(12);
        let events: Vec<StreamEvent> = ScenarioEvents::new(&cfg).collect();
        assert!(!events.is_empty());
        for w in events.windows(2) {
            assert!(
                (w[0].sample.t, w[0].user) < (w[1].sample.t, w[1].user)
                    || w[0].sample.t < w[1].sample.t,
                "events out of (t, user) order"
            );
        }
    }

    #[test]
    fn size_hint_tracks_remaining() {
        let cfg = small_cfg(6);
        let mut stream = ScenarioEvents::new(&cfg);
        let (lo, hi) = stream.size_hint();
        assert_eq!(Some(lo), hi);
        let total = lo;
        let consumed = 10.min(total);
        for _ in 0..consumed {
            stream.next().unwrap();
        }
        assert_eq!(stream.remaining(), total - consumed);
    }

    #[test]
    fn stream_is_deterministic() {
        let cfg = small_cfg(8);
        let a: Vec<StreamEvent> = ScenarioEvents::new(&cfg).collect();
        let b: Vec<StreamEvent> = ScenarioEvents::new(&cfg).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn every_preset_streams_byte_identical_to_batch() {
        // The parity anchor over the whole preset surface, including the
        // workload scenarios: churn id routing, corridor overlays and
        // long-tail cohorts must all reproduce the batch fingerprints, and
        // however adversarial the workload, its release is 2-anonymous.
        for &name in crate::scenario::PRESETS {
            let mut cfg = ScenarioConfig::preset(name, 24).expect("advertised preset");
            cfg.num_towers = cfg.num_towers.min(250);
            let batch = generate(&cfg);
            let stream = ScenarioEvents::try_new(&cfg).expect("presets validate");
            assert_eq!(stream.cohorts(), &batch.cohorts[..], "cohorts for {name}");
            assert_eq!(
                stream.num_user_ids(),
                batch.dataset.fingerprints.len(),
                "user-id count for {name}"
            );

            let mut per_user: BTreeMap<UserId, Vec<glove_core::Sample>> = BTreeMap::new();
            for e in stream {
                per_user.entry(e.user).or_default().push(e.sample);
            }
            assert_eq!(
                per_user.len(),
                batch.dataset.fingerprints.len(),
                "id population for {name}"
            );
            for (user, samples) in per_user {
                let fp = &batch.dataset.fingerprints[user as usize];
                assert_eq!(fp.users(), &[user]);
                assert_eq!(
                    fp.samples(),
                    &samples[..],
                    "preset {name} diverged from batch for user {user}"
                );
            }

            let release = glove_core::glove::anonymize(&batch.dataset, &Default::default())
                .expect("anonymization succeeds");
            assert!(
                release.dataset.is_k_anonymous(2),
                "preset {name}: anonymized release below k = 2"
            );
        }
    }

    #[test]
    fn churn_streams_emit_ids_past_num_users() {
        let mut cfg = ScenarioConfig::churn_like(30);
        cfg.num_towers = 250;
        let stream = ScenarioEvents::new(&cfg);
        let ids = stream.num_user_ids();
        assert!(
            ids > cfg.num_users,
            "churn preset produced no secondary ids ({ids} ids for {} persons)",
            cfg.num_users
        );
        let max_id = ScenarioEvents::new(&cfg)
            .map(|e| e.user)
            .max()
            .expect("events");
        assert_eq!(max_id as usize, ids - 1);
    }

    #[test]
    fn try_new_surfaces_validation_errors() {
        let mut cfg = small_cfg(4);
        cfg.num_users = 0;
        assert!(matches!(
            ScenarioEvents::try_new(&cfg),
            Err(ScenarioError::NoUsers)
        ));
    }
}
