//! # glove — hiding mobile traffic fingerprints (CoNEXT'15 reproduction)
//!
//! Facade crate re-exporting the whole workspace behind one dependency:
//!
//! * [`core`] — the paper's contribution: the k-gap anonymizability measure
//!   and the GLOVE k-anonymization algorithm;
//! * [`geo`] — Lambert azimuthal equal-area projection and 100 m gridding;
//! * [`synth`] — the synthetic CDR substrate standing in for the
//!   proprietary D4D datasets;
//! * [`stats`] — CDFs, quantiles, the Tail Weight Index, radius of gyration;
//! * [`baselines`] — uniform generalization and W4M-LC, the evaluation
//!   comparators;
//! * [`attack`] — the adversary subsystem: multi-point linkage with
//!   observation noise, the top-location classifier, and cross-epoch
//!   linkage over streamed releases, behind one `Attack` trait;
//! * [`eval`] — the experiment harness regenerating the paper's tables and
//!   figures;
//! * [`cli`] — the library side of the `glove` binary (dataset text format
//!   and subcommand implementations).
//!
//! ## Quickstart
//!
//! Every engine runs through one [`core::api::RunBuilder`] and returns the
//! same serializable [`core::api::RunReport`]:
//!
//! ```
//! use glove::prelude::*;
//!
//! // Synthesize a small CDR dataset and 2-anonymize it.
//! let mut scenario = ScenarioConfig::civ_like(20);
//! scenario.num_towers = 300;
//! let synth = generate(&scenario);
//!
//! let outcome = RunBuilder::new(GloveConfig::default())
//!     .run(&synth.dataset)
//!     .unwrap();
//! assert_eq!(outcome.report.engine, "glove-batch");
//! let published = outcome.expect_dataset();
//! assert!(published.is_k_anonymous(2));
//! assert_eq!(published.num_users(), 20);
//! ```
//!
//! See the `examples/` directory for complete workflows and DESIGN.md for
//! the system inventory and experiment index.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use glove_attack as attack;
pub use glove_baselines as baselines;
pub use glove_cli as cli;
pub use glove_core as core;
pub use glove_eval as eval;
pub use glove_geo as geo;
pub use glove_stats as stats;
pub use glove_synth as synth;

/// One-stop imports for typical use.
pub mod prelude {
    pub use glove_attack::{
        classifier_attack, cross_epoch_attack, multi_point_attack, top_location_uniqueness,
        AdversaryNoise, Attack, AttackObserver, AttackReport, CrossEpochAttack, MultiPointAttack,
        PublishedView, TopLocationClassifier,
    };
    pub use glove_baselines::{
        generalize_uniform, w4m_lc, GeneralizationLevel, UniformAnonymizer, W4mAnonymizer,
        W4mConfig,
    };
    pub use glove_core::api::{
        Anonymizer, JsonlReportWriter, LogObserver, NullObserver, Observer, RunBuilder, RunDetail,
        RunOutcome, RunOutput, RunReport,
    };
    pub use glove_core::glove::{anonymize, GloveOutput, GloveStats};
    pub use glove_core::kgap::{kgap, kgap_all, kgap_decomposed_all};
    pub use glove_core::shard::ShardStat;
    pub use glove_core::stream::{
        events_of, run_stream, EpochOutput, StreamEngine, StreamEvent, StreamRun, StreamStats,
    };
    pub use glove_core::{
        CarryPolicy, Dataset, Fingerprint, GloveConfig, GloveError, ResidualPolicy, Sample,
        ShardBy, ShardPolicy, StreamConfig, StretchConfig, SuppressionThresholds, UnderKPolicy,
        UserId,
    };
    pub use glove_stats::{radius_of_gyration, twi, Ecdf, Summary};
    pub use glove_synth::{
        city_subset, generate, time_subset, user_subset, ScenarioConfig, ScenarioEvents,
        SynthDataset,
    };
}
