//! The unified run API: one engine-agnostic way to execute any
//! anonymization backend.
//!
//! The workspace grew four disjoint entry points — [`crate::glove::anonymize`]
//! (batch), the sharded routing inside it, [`crate::stream`]'s engine, and
//! the baselines crate's free functions — each with its own stats type, so
//! every consumer re-stitched configuration and reporting by hand. This
//! module replaces that with three layers:
//!
//! * [`Anonymizer`] — the object-safe engine trait (`prepare → run`);
//!   implemented here for the batch ([`BatchGlove`]), sharded
//!   ([`ShardedGlove`]) and streaming ([`StreamGlove`]) engines, and by the
//!   `glove-baselines` crate for the uniform and W4M comparators;
//! * [`Observer`] — progress hooks (phases, shards, epochs, pair counters)
//!   with [`NullObserver`], [`LogObserver`] and [`MetricsSink`] sinks;
//! * [`RunReport`] — one serializable result summary whatever the engine,
//!   with the legacy stats types embedded as detail sections.
//!
//! [`RunBuilder`] is the front door: it selects the mode from one
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
//! **Exactness.** The builder adds orchestration only: its batch, sharded
//! and stream paths produce **byte-identical** output to the legacy entry
//! points (enforced by `crates/core/tests/api_properties.rs`), so the
//! equivalence anchors of the sharded and streaming engines carry over
//! unchanged.

pub mod json;
pub mod observer;
pub mod report;

pub use observer::{JsonlReportWriter, LogObserver, MetricsSink, NullObserver, Observer};
pub use report::{PhaseMetric, RunDetail, RunReport};

use crate::config::{GloveConfig, ShardPolicy, StreamConfig};
use crate::error::GloveError;
use crate::glove::{anonymize_with_plan, GloveOutput};
use crate::model::Dataset;
use crate::policy::{KPlan, PolicyPlane, SharedPolicy};
use crate::stream::{EpochOutput, StreamEngine, StreamEvent};
use crate::suppress::SuppressionLedger;
use observer::Tee;
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
///   engine's configuration against a dataset; it performs no work.
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

/// Resolves the epoch-0 view of a policy plane against a batch
/// configuration: the effective [`GloveConfig`] (global k / suppression
/// overrides applied) plus the [`KPlan`] carrying cohort k floors.
/// Single-release engines publish exactly one epoch, so index 0 is the
/// only one that can ever apply; window and carry rules are stream-only
/// and ignored here.
fn resolve_batch_policy(
    policy: Option<&SharedPolicy>,
    config: &GloveConfig,
) -> Result<(GloveConfig, Option<KPlan>), GloveError> {
    let Some(handle) = policy else {
        return Ok((*config, None));
    };
    let plane = handle.read().expect("policy lock poisoned");
    plane.validate()?;
    let base = StreamConfig {
        glove: *config,
        ..StreamConfig::default()
    };
    let eff = plane.resolve(0, None, &base);
    let effective = GloveConfig {
        k: eff.k,
        suppression: eff.suppression,
        ..*config
    };
    Ok((effective, plane.kplan(0, &base)))
}

/// The monolithic batch engine (Alg. 1 over the whole dataset). Any
/// sharding in the supplied configuration is stripped — use
/// [`ShardedGlove`] for sharded runs.
#[derive(Debug, Clone)]
pub struct BatchGlove {
    config: GloveConfig,
    policy: Option<SharedPolicy>,
}

impl BatchGlove {
    /// A batch engine with `config` (its `shard` field is cleared).
    pub fn new(config: GloveConfig) -> Self {
        Self {
            config: GloveConfig {
                shard: None,
                ..config
            },
            policy: None,
        }
    }

    /// Attaches a policy plane; its epoch-0 rules override k and
    /// suppression, cohort rules become per-user k floors. A
    /// [`PolicyPlane::uniform`] plane leaves output byte-identical.
    pub fn with_policy(mut self, policy: SharedPolicy) -> Self {
        self.policy = Some(policy);
        self
    }

    /// The engine's effective configuration.
    pub fn config(&self) -> &GloveConfig {
        &self.config
    }
}

impl Anonymizer for BatchGlove {
    fn engine(&self) -> &'static str {
        "glove-batch"
    }

    fn prepare(&self, dataset: &Dataset) -> Result<(), GloveError> {
        self.config.validate()?;
        let (effective, _) = resolve_batch_policy(self.policy.as_ref(), &self.config)?;
        check_population(dataset, effective.k)
    }

    fn run(
        &self,
        dataset: &Dataset,
        observer: &mut dyn Observer,
    ) -> Result<RunOutcome, GloveError> {
        let (effective, plan) = resolve_batch_policy(self.policy.as_ref(), &self.config)?;
        run_glove(self.engine(), dataset, &effective, plan.as_ref(), observer)
    }
}

/// The sharded engine: the dataset is partitioned by `policy`, each shard
/// anonymized independently and the outputs stitched (`core::shard`).
#[derive(Debug, Clone)]
pub struct ShardedGlove {
    config: GloveConfig,
    policy: Option<SharedPolicy>,
}

impl ShardedGlove {
    /// A sharded engine with `config` and `policy` (overriding any `shard`
    /// already in the config).
    pub fn new(config: GloveConfig, policy: ShardPolicy) -> Self {
        Self {
            config: GloveConfig {
                shard: Some(policy),
                ..config
            },
            policy: None,
        }
    }

    /// Attaches a policy plane (see [`BatchGlove::with_policy`]); cohort k
    /// floors are enforced inside every shard's greedy loop.
    pub fn with_policy(mut self, policy: SharedPolicy) -> Self {
        self.policy = Some(policy);
        self
    }

    /// The engine's effective configuration.
    pub fn config(&self) -> &GloveConfig {
        &self.config
    }
}

impl Anonymizer for ShardedGlove {
    fn engine(&self) -> &'static str {
        "glove-sharded"
    }

    fn prepare(&self, dataset: &Dataset) -> Result<(), GloveError> {
        self.config.validate()?;
        let (effective, _) = resolve_batch_policy(self.policy.as_ref(), &self.config)?;
        check_population(dataset, effective.k)
    }

    fn run(
        &self,
        dataset: &Dataset,
        observer: &mut dyn Observer,
    ) -> Result<RunOutcome, GloveError> {
        let (effective, plan) = resolve_batch_policy(self.policy.as_ref(), &self.config)?;
        run_glove(self.engine(), dataset, &effective, plan.as_ref(), observer)
    }
}

/// The checks [`crate::glove::anonymize`] performs up front, reproduced so
/// `prepare` can fail fast with the same errors.
fn check_population(dataset: &Dataset, k: usize) -> Result<(), GloveError> {
    if dataset.fingerprints.is_empty() {
        return Err(GloveError::InvalidDataset(
            "cannot anonymize an empty dataset".into(),
        ));
    }
    if dataset.num_users() < k {
        return Err(GloveError::Unsatisfiable(format!(
            "dataset has {} subscribers, fewer than k = {}",
            dataset.num_users(),
            k
        )));
    }
    Ok(())
}

/// Shared body of the batch and sharded engines (the same
/// [`crate::glove::anonymize`] call the legacy entry point exposes, so
/// output is byte-identical by construction).
fn run_glove(
    engine: &str,
    dataset: &Dataset,
    config: &GloveConfig,
    plan: Option<&KPlan>,
    observer: &mut dyn Observer,
) -> Result<RunOutcome, GloveError> {
    let started = Instant::now();
    let mut phases = Vec::new();

    let ((), prep_s) = phase(engine, "prepare", observer, |_| {
        config.validate()?;
        check_population(dataset, config.k)
    })?;
    phases.push(PhaseMetric {
        phase: "prepare".into(),
        elapsed_s: prep_s,
    });

    let (output, run_s) = phase(engine, "run", observer, |obs| {
        let output = anonymize_with_plan(dataset, config, plan)?;
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
    phases.push(PhaseMetric {
        phase: "run".into(),
        elapsed_s: run_s,
    });

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

/// The streaming engine: windowed online GLOVE over the dataset's
/// time-ordered event view (or a raw event iterator via
/// [`StreamGlove::run_events`]).
#[derive(Debug, Clone)]
pub struct StreamGlove {
    config: StreamConfig,
    policy: SharedPolicy,
    keep_epochs: bool,
}

impl StreamGlove {
    /// A streaming engine with `config` (which embeds the per-epoch
    /// [`GloveConfig`]).
    pub fn new(config: StreamConfig) -> Self {
        Self {
            config,
            policy: crate::policy::shared(PolicyPlane::uniform()),
            keep_epochs: true,
        }
    }

    /// Attaches a policy plane: per-epoch/per-cohort overrides resolved at
    /// every window boundary. Keeping the [`SharedPolicy`] handle lets the
    /// caller retune a live run (the swap lands at the next boundary).
    pub fn with_policy(mut self, policy: SharedPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Whether emitted epochs are retained in the [`RunOutput`] (default
    /// `true`). Set `false` when an [`Observer`] consumes epochs
    /// incrementally and the run should stay bounded-memory.
    pub fn keep_epochs(mut self, keep: bool) -> Self {
        self.keep_epochs = keep;
        self
    }

    /// The engine's configuration.
    pub fn config(&self) -> &StreamConfig {
        &self.config
    }

    /// Runs the engine over a raw time-ordered event iterator (the
    /// bounded-memory path: one window publishing, one window filling and
    /// one event are resident at most). `name` names the stream, exactly
    /// as [`crate::stream::StreamEngine::new`] would see it. Input counters
    /// of the report that require the full dataset (`fingerprints_in`,
    /// `users_in`) are 0; `samples_in` counts the events consumed.
    ///
    /// Each closed window is anonymized on a stage thread while this
    /// thread pulls the next window's events; the iterator and `observer`
    /// are only used on the calling thread. An epoch reaches
    /// [`Observer::on_epoch`] after the next consumed event once it is
    /// published, or during the `flush` phase. Epochs, statistics and work
    /// counters equal a hand-driven [`crate::stream::StreamEngine::push`]
    /// loop's. On an event error, every window closed before it is still
    /// published and observed before the error returns.
    pub fn run_events(
        &self,
        name: &str,
        events: &mut dyn Iterator<Item = EventResult>,
        observer: &mut dyn Observer,
    ) -> Result<RunOutcome, GloveError> {
        self.drive(name, None, events, observer)
    }

    fn drive(
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
            out_fingerprints += epoch.output.dataset.fingerprints.len();
            out_users += epoch.output.dataset.num_users();
            out_samples += epoch.output.dataset.num_samples();
            suppressed.absorb(epoch.output.stats.suppressed);
            residual_fps += epoch.output.stats.discarded_fingerprints;
            residual_users += epoch.output.stats.discarded_users;
            cum.0 += epoch.output.stats.merges;
            cum.1 += epoch.output.stats.pairs_computed;
            cum.2 += epoch.output.stats.pairs_pruned;
            obs.on_epoch(&epoch);
            obs.on_progress(cum.0, cum.1, cum.2);
            if self.keep_epochs {
                epochs.push(epoch);
            }
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
        self.config.validate()?;
        self.policy
            .read()
            .expect("policy lock poisoned")
            .validate()?;
        check_population(dataset, self.config.glove.k)
    }

    fn run(
        &self,
        dataset: &Dataset,
        observer: &mut dyn Observer,
    ) -> Result<RunOutcome, GloveError> {
        let events = crate::stream::events_of(dataset);
        self.drive(
            &dataset.name,
            Some(dataset),
            &mut events.into_iter().map(Ok),
            observer,
        )
    }
}

/// The publication regime of a [`RunBuilder`].
pub enum RunMode {
    /// One monolithic Alg. 1 run over the whole dataset.
    Batch,
    /// Partitioned runs stitched back together (`core::shard`).
    Sharded(ShardPolicy),
    /// Windowed online runs over the event view (`core::stream`). The
    /// embedded [`StreamConfig::glove`] is replaced by the builder's
    /// [`GloveConfig`] — one config drives every mode.
    Stream(StreamConfig),
    /// Any engine behind the [`Anonymizer`] trait — the hook the
    /// `glove-baselines` adapters (uniform, W4M-LC) plug into.
    Custom(Box<dyn Anonymizer>),
}

impl std::fmt::Debug for RunMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunMode::Batch => write!(f, "Batch"),
            RunMode::Sharded(policy) => write!(f, "Sharded({policy:?})"),
            RunMode::Stream(config) => write!(f, "Stream({config:?})"),
            RunMode::Custom(engine) => write!(f, "Custom({})", engine.engine()),
        }
    }
}

/// Builds and executes one anonymization run from a single [`GloveConfig`].
///
/// ```
/// use glove_core::api::RunBuilder;
/// use glove_core::prelude::*;
///
/// let config = GloveConfig { k: 2, ..GloveConfig::default() };
/// let builder = RunBuilder::new(config).sharded(ShardPolicy::activity(4));
/// // builder.run(&dataset)? — identical output to the legacy entry point.
/// # let _ = builder;
/// ```
#[derive(Debug)]
pub struct RunBuilder {
    config: GloveConfig,
    mode: RunMode,
    keep_epochs: bool,
    policy: Option<SharedPolicy>,
}

impl RunBuilder {
    /// A builder over `config`. The initial mode follows the config's
    /// legacy routing: `Sharded` when `config.shard` names more than one
    /// shard, `Batch` otherwise. Mode methods override it.
    pub fn new(config: GloveConfig) -> Self {
        let mode = match config.shard {
            Some(policy) if policy.shards > 1 => RunMode::Sharded(policy),
            _ => RunMode::Batch,
        };
        Self {
            config,
            mode,
            keep_epochs: true,
            policy: None,
        }
    }

    /// Attaches a policy plane. Single-release modes apply its epoch-0
    /// rules (global k / suppression overrides, cohort k floors); stream
    /// mode re-resolves it at every window boundary. A
    /// [`PolicyPlane::uniform`] plane leaves every mode byte-identical to
    /// running without one.
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

    /// Selects the monolithic batch engine (strips any sharding).
    pub fn batch(mut self) -> Self {
        self.mode = RunMode::Batch;
        self
    }

    /// Selects the sharded engine with `policy`.
    pub fn sharded(mut self, policy: ShardPolicy) -> Self {
        self.mode = RunMode::Sharded(policy);
        self
    }

    /// Selects the streaming engine. `stream.glove` is replaced by this
    /// builder's [`GloveConfig`] (including any per-epoch sharding it
    /// carries).
    pub fn stream(mut self, stream: StreamConfig) -> Self {
        self.mode = RunMode::Stream(stream);
        self
    }

    /// Selects a custom engine behind the [`Anonymizer`] trait (the
    /// baselines adapters, or any external backend).
    pub fn custom(mut self, engine: Box<dyn Anonymizer>) -> Self {
        self.mode = RunMode::Custom(engine);
        self
    }

    /// Stream mode only: whether the outcome retains emitted epochs
    /// (default `true`; set `false` for bounded-memory runs whose epochs an
    /// observer writes out incrementally).
    pub fn keep_epochs(mut self, keep: bool) -> Self {
        self.keep_epochs = keep;
        self
    }

    /// The currently selected mode.
    pub fn mode(&self) -> &RunMode {
        &self.mode
    }

    /// Validates the configuration and assembles the engine as a trait
    /// object.
    ///
    /// # Errors
    /// [`GloveError::InvalidConfig`] for invalid k / stretch / shard /
    /// window parameters.
    pub fn build(self) -> Result<Box<dyn Anonymizer>, GloveError> {
        if let Some(handle) = &self.policy {
            handle.read().expect("policy lock poisoned").validate()?;
        }
        match self.mode {
            RunMode::Batch => {
                let mut engine = BatchGlove::new(self.config);
                engine.config.validate()?;
                if let Some(policy) = self.policy {
                    engine = engine.with_policy(policy);
                }
                Ok(Box::new(engine))
            }
            RunMode::Sharded(policy) => {
                let mut engine = ShardedGlove::new(self.config, policy);
                engine.config.validate()?;
                if let Some(plane) = self.policy {
                    engine = engine.with_policy(plane);
                }
                Ok(Box::new(engine))
            }
            RunMode::Stream(stream) => Ok(Box::new(stream_engine(
                self.config,
                stream,
                self.keep_epochs,
                self.policy,
            )?)),
            RunMode::Custom(engine) => {
                if self.policy.is_some() {
                    return Err(GloveError::InvalidConfig(
                        "custom engines do not accept a policy plane".into(),
                    ));
                }
                Ok(engine)
            }
        }
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

    /// Stream mode only: runs over a raw time-ordered event iterator
    /// (bounded memory; see [`StreamGlove::run_events`]).
    ///
    /// # Errors
    /// [`GloveError::InvalidConfig`] when the builder is not in stream
    /// mode.
    pub fn run_events(
        self,
        name: &str,
        events: &mut dyn Iterator<Item = EventResult>,
        observer: &mut dyn Observer,
    ) -> Result<RunOutcome, GloveError> {
        match self.mode {
            RunMode::Stream(stream) => {
                stream_engine(self.config, stream, self.keep_epochs, self.policy)?
                    .run_events(name, events, observer)
            }
            other => Err(GloveError::InvalidConfig(format!(
                "run_events requires stream mode, builder is in {other:?} mode"
            ))),
        }
    }

    /// Runs with both a caller observer and an internal [`MetricsSink`],
    /// returning the sink alongside the outcome — convenience for harnesses
    /// that want machine-readable phase metrics without writing a sink
    /// themselves.
    pub fn run_metered(
        self,
        dataset: &Dataset,
        observer: &mut dyn Observer,
    ) -> Result<(RunOutcome, MetricsSink), GloveError> {
        let mut sink = MetricsSink::new();
        let outcome = {
            let mut tee = Tee {
                first: observer,
                second: &mut sink,
            };
            self.run_observed(dataset, &mut tee)?
        };
        Ok((outcome, sink))
    }
}

/// The stream engine a [`RunBuilder`] in stream mode assembles: `glove`
/// replaces `stream.glove`, the merged configuration is validated, and the
/// epoch retention and policy plane are applied.
fn stream_engine(
    glove: GloveConfig,
    stream: StreamConfig,
    keep_epochs: bool,
    policy: Option<SharedPolicy>,
) -> Result<StreamGlove, GloveError> {
    let config = StreamConfig { glove, ..stream };
    config.validate()?;
    let engine = StreamGlove::new(config).keep_epochs(keep_epochs);
    Ok(match policy {
        Some(policy) => engine.with_policy(policy),
        None => engine,
    })
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
        let config = GloveConfig {
            shard: Some(ShardPolicy::activity(4)),
            ..GloveConfig::default()
        };
        assert!(matches!(
            RunBuilder::new(config).mode(),
            RunMode::Sharded(_)
        ));
        assert!(matches!(
            RunBuilder::new(GloveConfig::default()).mode(),
            RunMode::Batch
        ));
        // Explicit batch() strips the sharding again.
        assert!(matches!(
            RunBuilder::new(config).batch().mode(),
            RunMode::Batch
        ));
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
    fn observers_see_phases_progress_and_report() {
        let ds = toy(10);
        let (outcome, sink) = RunBuilder::new(GloveConfig::default())
            .run_metered(&ds, &mut NullObserver)
            .unwrap();
        let phases: Vec<&str> = sink.phases().iter().map(|p| p.phase.as_str()).collect();
        assert_eq!(phases, ["prepare", "run"]);
        assert_eq!(sink.reports().len(), 1);
        assert_eq!(sink.reports()[0], outcome.report);
        assert_eq!(sink.progress().0, outcome.report.merges);
        assert_eq!(outcome.report.phases, sink.phases());
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
