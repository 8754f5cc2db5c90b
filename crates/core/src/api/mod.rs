//! The unified run API: one engine-agnostic way to execute any
//! anonymization backend.
//!
//! The workspace grew four disjoint entry points — [`crate::glove::anonymize`]
//! (batch), the sharded routing inside it, [`crate::stream`]'s engine, and
//! the baselines crate's free functions — each with its own stats type, so
//! every consumer re-stitched configuration and reporting by hand. This
//! module replaces that with three layers:
//!
//! * [`Anonymizer`] — the object-safe engine trait (`prepare → run`).
//!   [`RunBuilder::build`] assembles the core's two engines behind it: one
//!   GLOVE engine for single releases (monolithic or sharded, as the
//!   config's shard policy says) and the streaming engine. The
//!   `glove-baselines` crate implements it for the uniform and W4M
//!   comparators;
//! * [`Observer`] — progress hooks (phases, shards, epochs, pair counters)
//!   with [`NullObserver`], [`LogObserver`] and [`JsonlReportWriter`] sinks;
//! * [`RunReport`] — one serializable result summary whatever the engine,
//!   with the legacy stats types embedded as detail sections.
//!
//! [`RunBuilder`] is the front door: it assembles the engine from one
//! [`GloveConfig`] and runs it.
//!
//! ```
//! use glove_core::api::RunBuilder;
//! use glove_core::prelude::*;
//!
//! let fingerprints = (0..6)
//!     .map(|u| Fingerprint::from_points(u, &[(100 * i64::from(u), 0, 60 + u)]).unwrap())
//!     .collect();
//! let dataset = Dataset::new("demo", fingerprints).unwrap();
//!
//! let outcome = RunBuilder::new(GloveConfig::default()).run(&dataset).unwrap();
//! assert!(outcome.expect_dataset().is_k_anonymous(2));
//! ```
//!
//! **Exactness.** The builder adds orchestration only: its single-release
//! and stream runs produce **byte-identical** output to
//! [`crate::glove::anonymize`] and [`crate::stream::run_stream`] (enforced
//! by `crates/core/tests/api_properties.rs`), so the equivalence anchors of
//! the sharded and streaming engines carry over unchanged.

pub mod json;
pub mod observer;
pub mod report;

pub use observer::{JsonlReportWriter, LogObserver, NullObserver, Observer};
pub use report::{PhaseMetric, RunDetail, RunReport};

use crate::config::{GloveConfig, ShardPolicy, StreamConfig};
use crate::error::GloveError;
use crate::glove::{anonymize_with_plan, check_run, GloveOutput};
use crate::model::Dataset;
use crate::policy::{KPlan, PolicyPlane, SharedPolicy};
use crate::stream::{EpochOutput, StreamEngine, StreamEvent};
use crate::suppress::SuppressionLedger;
use std::time::Instant;

/// Events fed to a streaming run: the item type of
/// [`RunBuilder::run_events`]. Producers that cannot fail (e.g. an
/// in-memory replay) wrap every event in `Ok`.
pub type EventResult = Result<StreamEvent, GloveError>;

/// The published output of a run: one dataset for single-release engines,
/// one [`EpochOutput`] per window for streaming runs.
#[derive(Debug, Clone)]
pub enum RunOutput {
    /// A single released dataset (batch, sharded, baselines).
    Dataset(Dataset),
    /// The emitted epochs of a streaming run, in emission order. Empty when
    /// the run was configured with [`RunBuilder::keep_epochs`]`(false)` and
    /// the epochs were consumed by observers instead.
    Epochs(Vec<EpochOutput>),
}

impl RunOutput {
    /// The single released dataset, if this is a single-release output.
    pub fn dataset(&self) -> Option<&Dataset> {
        match self {
            RunOutput::Dataset(ds) => Some(ds),
            RunOutput::Epochs(_) => None,
        }
    }

    /// The emitted epochs (empty slice for single-release outputs).
    pub fn epochs(&self) -> &[EpochOutput] {
        match self {
            RunOutput::Dataset(_) => &[],
            RunOutput::Epochs(epochs) => epochs,
        }
    }
}

/// Result of one run through the unified API: what was published plus the
/// engine-agnostic report.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// The published output.
    pub output: RunOutput,
    /// The unified run report (also delivered to
    /// [`Observer::on_report`]).
    pub report: RunReport,
}

impl RunOutcome {
    /// Consumes the outcome of a single-release engine, returning its
    /// dataset.
    ///
    /// # Panics
    /// Panics on a streaming outcome — use [`RunOutput::epochs`] there.
    pub fn expect_dataset(self) -> Dataset {
        match self.output {
            RunOutput::Dataset(ds) => ds,
            RunOutput::Epochs(_) => {
                panic!("streaming outcome holds epochs, not a single dataset")
            }
        }
    }
}

/// An anonymization engine behind the unified run API.
///
/// The trait is object-safe: harnesses hold `Vec<Box<dyn Anonymizer>>` and
/// drive every defense through the same loop. The contract:
///
/// * [`Anonymizer::prepare`] is a cheap fail-fast validation of the
///   engine's configuration against a dataset; it performs no work, and it
///   fails with the error `run` would fail with up front.
/// * [`Anonymizer::run`] executes the engine, emitting the observer
///   callbacks in the order documented in [`observer`], and returns the
///   published output with its [`RunReport`]. `run` validates on its own —
///   calling `prepare` first is optional.
pub trait Anonymizer {
    /// Stable engine identifier (`"glove-batch"`, `"uniform"`, …); also the
    /// `engine` field of the run's report.
    fn engine(&self) -> &'static str;

    /// Validates the configuration against `dataset` without running.
    fn prepare(&self, dataset: &Dataset) -> Result<(), GloveError>;

    /// Runs the engine over `dataset`, reporting progress to `observer`.
    fn run(&self, dataset: &Dataset, observer: &mut dyn Observer)
        -> Result<RunOutcome, GloveError>;
}

/// Times one phase of an engine's run, emitting the bracketing
/// [`Observer::on_phase_start`] / [`Observer::on_phase_end`] events around
/// `body` and returning its value with the elapsed wall-clock seconds.
///
/// Exposed so out-of-crate [`Anonymizer`] implementations (the
/// `glove-baselines` adapters, future backends) share the exact phase
/// mechanics of the core engines instead of re-implementing the contract.
pub fn phase<T>(
    engine: &str,
    name: &str,
    observer: &mut dyn Observer,
    body: impl FnOnce(&mut dyn Observer) -> Result<T, GloveError>,
) -> Result<(T, f64), GloveError> {
    observer.on_phase_start(engine, name);
    let started = Instant::now();
    let value = body(observer)?;
    let elapsed_s = started.elapsed().as_secs_f64();
    observer.on_phase_end(engine, name, elapsed_s);
    Ok((value, elapsed_s))
}

/// Builds the report of a batch/sharded GLOVE run.
fn glove_report(
    engine: &str,
    input: &Dataset,
    k: usize,
    output: &GloveOutput,
    elapsed_s: f64,
    phases: Vec<PhaseMetric>,
) -> RunReport {
    let stats = &output.stats;
    RunReport {
        engine: engine.to_string(),
        dataset: input.name.clone(),
        k,
        fingerprints_in: input.fingerprints.len(),
        users_in: input.num_users(),
        samples_in: input.num_samples(),
        fingerprints_out: output.dataset.fingerprints.len(),
        users_out: output.dataset.num_users(),
        samples_out: output.dataset.num_samples(),
        merges: stats.merges,
        pairs_computed: stats.pairs_computed,
        pairs_pruned: stats.pairs_pruned,
        pairs_skipped_tier0: stats.pairs_skipped_tier0,
        pairs_skipped_tier1: stats.pairs_skipped_tier1,
        pairs_abandoned: stats.pairs_abandoned,
        suppressed_samples: stats.suppressed.samples,
        suppressed_user_samples: stats.suppressed.user_samples,
        created_samples: 0,
        deleted_samples: 0,
        discarded_fingerprints: stats.discarded_fingerprints,
        discarded_users: stats.discarded_users,
        elapsed_s,
        phases,
        detail: RunDetail::Glove(stats.clone()),
    }
}

/// The GLOVE engine of single releases: Alg. 1 over the whole dataset,
/// or over the shards `config.shard` names, stitched back together
/// (`core::shard`). It runs `config` as given, through the same
/// [`anonymize_with_plan`] call as [`crate::glove::anonymize`], so output
/// is byte-identical by construction.
#[derive(Debug, Clone)]
struct ReleaseGlove {
    config: GloveConfig,
    policy: Option<SharedPolicy>,
}

impl ReleaseGlove {
    /// Resolves the epoch-0 view of the policy plane: the effective
    /// [`GloveConfig`] (global k / suppression overrides applied) plus the
    /// [`KPlan`] carrying cohort k floors. A single release publishes
    /// exactly one epoch, so index 0 is the only one that can ever apply;
    /// window and carry rules are stream-only and ignored here.
    fn resolve(&self) -> Result<(GloveConfig, Option<KPlan>), GloveError> {
        let Some(handle) = &self.policy else {
            return Ok((self.config, None));
        };
        let plane = handle.read().expect("policy lock poisoned");
        plane.validate()?;
        let base = StreamConfig {
            glove: self.config,
            ..StreamConfig::default()
        };
        let eff = plane.resolve(0, None, &base);
        let effective = GloveConfig {
            k: eff.k,
            suppression: eff.suppression,
            ..self.config
        };
        Ok((effective, plane.kplan(0, &base)))
    }
}

impl Anonymizer for ReleaseGlove {
    /// `glove-sharded` exactly when the run shards: when `config.shard`
    /// names more than one shard.
    fn engine(&self) -> &'static str {
        match self.config.shard {
            Some(policy) if policy.shards > 1 => "glove-sharded",
            _ => "glove-batch",
        }
    }

    fn prepare(&self, dataset: &Dataset) -> Result<(), GloveError> {
        let (config, plan) = self.resolve()?;
        check_run(dataset, &config, plan.as_ref())
    }

    fn run(
        &self,
        dataset: &Dataset,
        observer: &mut dyn Observer,
    ) -> Result<RunOutcome, GloveError> {
        let engine = self.engine();
        let started = Instant::now();
        let (config, plan) = self.resolve()?;
        let ((), prep_s) = phase(engine, "prepare", observer, |_| {
            check_run(dataset, &config, plan.as_ref())
        })?;
        let (output, run_s) = phase(engine, "run", observer, |obs| {
            let output = anonymize_with_plan(dataset, &config, plan.as_ref())?;
            for stat in &output.stats.per_shard {
                obs.on_shard(stat);
            }
            obs.on_progress(
                output.stats.merges,
                output.stats.pairs_computed,
                output.stats.pairs_pruned,
            );
            Ok(output)
        })?;
        let phases = vec![
            PhaseMetric {
                phase: "prepare".into(),
                elapsed_s: prep_s,
            },
            PhaseMetric {
                phase: "run".into(),
                elapsed_s: run_s,
            },
        ];
        let report = glove_report(
            engine,
            dataset,
            config.k,
            &output,
            started.elapsed().as_secs_f64(),
            phases,
        );
        observer.on_report(&report);
        Ok(RunOutcome {
            output: RunOutput::Dataset(output.dataset),
            report,
        })
    }
}

/// The streaming engine: windowed online GLOVE over the dataset's
/// time-ordered event view, or over a raw event iterator
/// ([`RunBuilder::run_events`], [`crate::stream::run_stream`]).
#[derive(Debug, Clone)]
pub(crate) struct StreamGlove {
    config: StreamConfig,
    policy: SharedPolicy,
    keep_epochs: bool,
}

impl StreamGlove {
    /// A stream engine over `config` under `policy`, both validated;
    /// `keep_epochs` keeps every emitted epoch in the outcome.
    pub(crate) fn new(
        config: StreamConfig,
        policy: SharedPolicy,
        keep_epochs: bool,
    ) -> Result<Self, GloveError> {
        policy.read().expect("policy lock poisoned").validate()?;
        config.validate()?;
        Ok(Self {
            config,
            policy,
            keep_epochs,
        })
    }

    /// The one driver of a stream run: `events` through the pipeline of
    /// [`crate::stream`], each epoch delivered to `observer`. `name` names
    /// the stream, exactly as [`crate::stream::StreamEngine::new`] would
    /// see it. `input` is the dataset the events were flattened from, if
    /// any: without it the report's `fingerprints_in` and `users_in` are 0;
    /// `samples_in` counts the events consumed either way.
    ///
    /// One window publishing, one window filling and one event are resident
    /// at most. Each closed window is anonymized on a stage thread while
    /// this thread pulls the next window's events; the iterator and
    /// `observer` are only used on the calling thread. An epoch reaches
    /// [`Observer::on_epoch`] after the next consumed event once it is
    /// published, or during the `flush` phase. Epochs, statistics and work
    /// counters equal a hand-driven [`crate::stream::StreamEngine::push`]
    /// loop's. On an event error, every window closed before it is still
    /// published and observed before the error returns. When `on_epoch`
    /// fails, no later epoch is delivered: the stage thread is joined and
    /// [`GloveError::EpochSink`] returns.
    pub(crate) fn run_events(
        &self,
        name: &str,
        input: Option<&Dataset>,
        events: &mut dyn Iterator<Item = EventResult>,
        observer: &mut dyn Observer,
    ) -> Result<RunOutcome, GloveError> {
        let engine_id = self.engine();
        let started = Instant::now();
        let mut phases = Vec::new();

        let (engine, prep_s) = phase(engine_id, "prepare", observer, |_| {
            StreamEngine::with_policy(name.to_string(), self.config, self.policy.clone())
        })?;
        phases.push(PhaseMetric {
            phase: "prepare".into(),
            elapsed_s: prep_s,
        });

        // Published totals and the suppression ledger are folded in epoch
        // by epoch so dropping epochs (keep_epochs == false) loses nothing.
        let mut epochs: Vec<EpochOutput> = Vec::new();
        let mut out_fingerprints = 0usize;
        let mut out_users = 0usize;
        let mut out_samples = 0usize;
        let mut suppressed = SuppressionLedger::default();
        let mut residual_fps = 0u64;
        let mut residual_users = 0u64;
        let mut cum = (0u64, 0u64, 0u64); // merges, pairs computed, pruned
        let mut absorb = |epoch: EpochOutput, obs: &mut dyn Observer| {
            obs.on_epoch(&epoch).map_err(|e| GloveError::EpochSink {
                epoch: epoch.epoch,
                message: e.to_string(),
            })?;
            out_fingerprints += epoch.output.dataset.fingerprints.len();
            out_users += epoch.output.dataset.num_users();
            out_samples += epoch.output.dataset.num_samples();
            suppressed.absorb(epoch.output.stats.suppressed);
            residual_fps += epoch.output.stats.discarded_fingerprints;
            residual_users += epoch.output.stats.discarded_users;
            cum.0 += epoch.output.stats.merges;
            cum.1 += epoch.output.stats.pairs_computed;
            cum.2 += epoch.output.stats.pairs_pruned;
            obs.on_progress(cum.0, cum.1, cum.2);
            if self.keep_epochs {
                epochs.push(epoch);
            }
            Ok(())
        };

        // Each closed window is anonymized on the pipeline's stage thread
        // while the next one fills; the event pull and the observer stay
        // on this thread.
        let (stats, run_s, flush_s) = crate::stream::pipelined(engine, |mut pipeline| {
            let ((), run_s) = phase(engine_id, "run", observer, |obs| {
                pipeline.feed(events, &mut |epoch| absorb(epoch, obs))
            })?;
            let (stats, flush_s) = phase(engine_id, "flush", observer, |obs| {
                pipeline.finish(&mut |epoch| absorb(epoch, obs))
            })?;
            Ok((stats, run_s, flush_s))
        })?;
        phases.push(PhaseMetric {
            phase: "run".into(),
            elapsed_s: run_s,
        });
        phases.push(PhaseMetric {
            phase: "flush".into(),
            elapsed_s: flush_s,
        });
        suppressed.absorb(stats.seed_suppressed);
        observer.on_progress(stats.merges, stats.pairs_computed, stats.pairs_pruned);

        let report = RunReport {
            engine: engine_id.to_string(),
            dataset: name.to_string(),
            k: self.config.glove.k,
            fingerprints_in: input.map(|ds| ds.fingerprints.len()).unwrap_or(0),
            users_in: input.map(Dataset::num_users).unwrap_or(0),
            samples_in: stats.events as usize,
            fingerprints_out: out_fingerprints,
            users_out: out_users,
            samples_out: out_samples,
            merges: stats.merges,
            pairs_computed: stats.pairs_computed,
            pairs_pruned: stats.pairs_pruned,
            pairs_skipped_tier0: stats.pairs_skipped_tier0,
            pairs_skipped_tier1: stats.pairs_skipped_tier1,
            pairs_abandoned: stats.pairs_abandoned,
            suppressed_samples: suppressed.samples,
            suppressed_user_samples: suppressed.user_samples,
            created_samples: 0,
            deleted_samples: 0,
            // Under-k user-slices are per-user fingerprints that never
            // published; the per-epoch residual discards add on top.
            discarded_fingerprints: stats.suppressed_users + residual_fps,
            discarded_users: stats.suppressed_users + residual_users,
            elapsed_s: started.elapsed().as_secs_f64(),
            phases,
            detail: RunDetail::Stream(stats),
        };
        observer.on_report(&report);
        Ok(RunOutcome {
            output: RunOutput::Epochs(epochs),
            report,
        })
    }
}

impl Anonymizer for StreamGlove {
    fn engine(&self) -> &'static str {
        "glove-stream"
    }

    fn prepare(&self, dataset: &Dataset) -> Result<(), GloveError> {
        self.policy
            .read()
            .expect("policy lock poisoned")
            .validate()?;
        check_run(dataset, &self.config.glove, None)
    }

    fn run(
        &self,
        dataset: &Dataset,
        observer: &mut dyn Observer,
    ) -> Result<RunOutcome, GloveError> {
        let events = crate::stream::events_of(dataset);
        self.run_events(
            &dataset.name,
            Some(dataset),
            &mut events.into_iter().map(Ok),
            observer,
        )
    }
}

/// Builds and executes one anonymization run from a single [`GloveConfig`]:
/// the one way to a core engine. Without [`RunBuilder::stream`] it runs one
/// release, sharded exactly when the config's shard policy names more than
/// one shard; with it, a stream of releases.
///
/// ```
/// use glove_core::api::RunBuilder;
/// use glove_core::prelude::*;
///
/// let config = GloveConfig { k: 2, ..GloveConfig::default() };
/// let builder = RunBuilder::new(config).sharded(ShardPolicy::activity(4));
/// // builder.run(&dataset)? — identical output to `anonymize` with that
/// // shard policy.
/// # let _ = builder;
/// ```
#[derive(Debug)]
pub struct RunBuilder {
    config: GloveConfig,
    stream: Option<StreamConfig>,
    keep_epochs: bool,
    policy: Option<SharedPolicy>,
}

impl RunBuilder {
    /// A builder over `config`, run as given: sharded when `config.shard`
    /// names more than one shard, monolithic otherwise.
    pub fn new(config: GloveConfig) -> Self {
        Self {
            config,
            stream: None,
            keep_epochs: true,
            policy: None,
        }
    }

    /// Attaches a policy plane. Single releases apply its epoch-0 rules
    /// (global k / suppression overrides, cohort k floors); a stream
    /// re-resolves it at every window boundary. A [`PolicyPlane::uniform`]
    /// plane leaves every run byte-identical to running without one.
    pub fn policy(mut self, plane: PolicyPlane) -> Self {
        self.policy = Some(crate::policy::shared(plane));
        self
    }

    /// Attaches an already-shared policy handle, keeping a clone with the
    /// caller so a live streaming run can be retuned mid-flight (the swap
    /// applies at the next window boundary).
    pub fn shared_policy(mut self, policy: SharedPolicy) -> Self {
        self.policy = Some(policy);
        self
    }

    /// Runs every release monolithically: clears the config's shard
    /// policy.
    pub fn batch(mut self) -> Self {
        self.config.shard = None;
        self
    }

    /// Shards every release (every window, in a stream) by `policy`: sets
    /// the config's shard policy.
    pub fn sharded(mut self, policy: ShardPolicy) -> Self {
        self.config.shard = Some(policy);
        self
    }

    /// Selects the streaming engine. `stream.glove` is replaced by this
    /// builder's [`GloveConfig`] (including any per-window sharding it
    /// carries).
    pub fn stream(mut self, stream: StreamConfig) -> Self {
        self.stream = Some(stream);
        self
    }

    /// Stream runs only: whether the outcome retains emitted epochs
    /// (default `true`; set `false` for bounded-memory runs whose epochs an
    /// observer writes out incrementally).
    pub fn keep_epochs(mut self, keep: bool) -> Self {
        self.keep_epochs = keep;
        self
    }

    /// Validates the configuration and assembles the engine as a trait
    /// object.
    ///
    /// # Errors
    /// [`GloveError::InvalidConfig`] for invalid k / stretch / shard /
    /// window parameters or policy plane.
    pub fn build(self) -> Result<Box<dyn Anonymizer>, GloveError> {
        if self.stream.is_some() {
            return Ok(Box::new(self.stream_engine()?));
        }
        if let Some(handle) = &self.policy {
            handle.read().expect("policy lock poisoned").validate()?;
        }
        self.config.validate()?;
        Ok(Box::new(ReleaseGlove {
            config: self.config,
            policy: self.policy,
        }))
    }

    /// Builds the engine and runs it over `dataset` with no observer.
    pub fn run(self, dataset: &Dataset) -> Result<RunOutcome, GloveError> {
        self.run_observed(dataset, &mut NullObserver)
    }

    /// Builds the engine and runs it over `dataset`, reporting progress to
    /// `observer`.
    pub fn run_observed(
        self,
        dataset: &Dataset,
        observer: &mut dyn Observer,
    ) -> Result<RunOutcome, GloveError> {
        self.build()?.run(dataset, observer)
    }

    /// Stream runs only: runs over a raw time-ordered event iterator with
    /// bounded memory. `name` names the stream, as a dataset's name would.
    /// One window publishing, one window filling and one event are
    /// resident at most; the iterator and `observer` are used on the
    /// calling thread only. Every closed window reaches
    /// [`Observer::on_epoch`] after the next consumed event once it is
    /// published, or in the `flush` phase. On an event error the windows
    /// closed before it are still delivered, then the error returns; when
    /// `on_epoch` fails, no later epoch is delivered and
    /// [`GloveError::EpochSink`] returns. The report's `fingerprints_in`
    /// and `users_in` are 0 (no dataset was seen); `samples_in` counts the
    /// events consumed.
    ///
    /// # Errors
    /// [`GloveError::InvalidConfig`] without [`RunBuilder::stream`].
    pub fn run_events(
        self,
        name: &str,
        events: &mut dyn Iterator<Item = EventResult>,
        observer: &mut dyn Observer,
    ) -> Result<RunOutcome, GloveError> {
        self.stream_engine()?
            .run_events(name, None, events, observer)
    }

    /// The stream engine: the builder's [`GloveConfig`] replaces
    /// `stream.glove`, under the builder's policy plane (uniform when none
    /// is attached) and epoch retention.
    fn stream_engine(self) -> Result<StreamGlove, GloveError> {
        let Some(stream) = self.stream else {
            return Err(GloveError::InvalidConfig(
                "run_events needs a stream configuration (RunBuilder::stream)".into(),
            ));
        };
        StreamGlove::new(
            StreamConfig {
                glove: self.config,
                ..stream
            },
            self.policy
                .unwrap_or_else(|| crate::policy::shared(PolicyPlane::uniform())),
            self.keep_epochs,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::glove::anonymize;
    use crate::model::Fingerprint;

    fn toy(n: u32) -> Dataset {
        let fps = (0..n)
            .map(|u| {
                Fingerprint::from_points(
                    u,
                    &[(
                        i64::from(u % 2) * 40_000 + i64::from(u) * 100,
                        0,
                        60 + u % 5,
                    )],
                )
                .unwrap()
            })
            .collect();
        Dataset::new("toy", fps).unwrap()
    }

    #[test]
    fn batch_matches_legacy_anonymize() {
        let ds = toy(12);
        let config = GloveConfig::default();
        let legacy = anonymize(&ds, &config).unwrap();
        let outcome = RunBuilder::new(config).run(&ds).unwrap();
        assert_eq!(outcome.report.engine, "glove-batch");
        assert_eq!(outcome.report.merges, legacy.stats.merges);
        let ds_out = outcome.expect_dataset();
        assert_eq!(ds_out.name, legacy.dataset.name);
        assert_eq!(ds_out.fingerprints, legacy.dataset.fingerprints);
    }

    #[test]
    fn new_inherits_shard_routing_from_config() {
        let engine = |builder: RunBuilder| builder.build().unwrap().engine();
        let config = GloveConfig {
            shard: Some(ShardPolicy::activity(4)),
            ..GloveConfig::default()
        };
        assert_eq!(engine(RunBuilder::new(config)), "glove-sharded");
        assert_eq!(
            engine(RunBuilder::new(GloveConfig::default())),
            "glove-batch"
        );
        // batch() strips the sharding again, and one shard is no sharding.
        assert_eq!(engine(RunBuilder::new(config).batch()), "glove-batch");
        assert_eq!(
            engine(RunBuilder::new(config).sharded(ShardPolicy::activity(1))),
            "glove-batch"
        );
    }

    #[test]
    fn builder_rejects_invalid_configs() {
        let bad_k = GloveConfig {
            k: 1,
            ..GloveConfig::default()
        };
        assert!(matches!(
            RunBuilder::new(bad_k).build(),
            Err(GloveError::InvalidConfig(_))
        ));
        let bad_window = StreamConfig {
            window_min: 0,
            ..StreamConfig::default()
        };
        assert!(matches!(
            RunBuilder::new(GloveConfig::default())
                .stream(bad_window)
                .build(),
            Err(GloveError::InvalidConfig(_))
        ));
        let bad_shards = ShardPolicy::activity(0);
        assert!(matches!(
            RunBuilder::new(GloveConfig::default())
                .sharded(bad_shards)
                .build(),
            Err(GloveError::InvalidConfig(_))
        ));
    }

    #[test]
    fn run_events_requires_stream_mode() {
        let err = RunBuilder::new(GloveConfig::default())
            .run_events("x", &mut std::iter::empty(), &mut NullObserver)
            .unwrap_err();
        assert!(matches!(err, GloveError::InvalidConfig(_)));
    }

    #[test]
    fn log_observer_writes_lines() {
        let ds = toy(8);
        let mut log = LogObserver::new(Vec::new());
        RunBuilder::new(GloveConfig::default())
            .run_observed(&ds, &mut log)
            .unwrap();
        let text = String::from_utf8(log.into_inner()).unwrap();
        assert!(text.contains("phase prepare started"), "log:\n{text}");
        assert!(text.contains("phase run done"), "log:\n{text}");
        assert!(text.contains("[glove-batch] finished"), "log:\n{text}");
    }
}
