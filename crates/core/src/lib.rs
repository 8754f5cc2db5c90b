//! # glove-core — hiding mobile traffic fingerprints with GLOVE
//!
//! This crate implements the primary contribution of *"Hiding Mobile Traffic
//! Fingerprints with GLOVE"* (Gramaglia & Fiore, ACM CoNEXT 2015): the
//! anonymizability *k-gap* measure and the GLOVE k-anonymization algorithm
//! for movement micro-data extracted from mobile (cellular) traffic.
//!
//! ## The problem
//!
//! Every interaction of a phone with the cellular network leaves a
//! *spatiotemporal sample* — where (which cell) and when (which minute). The
//! set of samples of one subscriber over the collection period is their
//! *mobile fingerprint*. Fingerprints are nearly always unique within even
//! nation-wide datasets, and uniform coarsening of space and time cannot make
//! them indistinguishable without destroying the data.
//!
//! ## What this crate provides
//!
//! * [`model`] — samples as spatiotemporal boxes, fingerprints, datasets;
//! * [`stretch`] — the *sample stretch effort* `δ_ab(i,j)` (paper Eqs. 1–9)
//!   and *fingerprint stretch effort* `Δ_ab` (Eq. 10): the loss of accuracy
//!   needed to merge samples/fingerprints through generalization;
//! * [`kgap`] — the *k-gap* `Δᵏ_a` (Eq. 11): how hard a subscriber is to hide
//!   in a crowd of `k`, plus the spatial/temporal decomposition behind the
//!   paper's root-cause analysis (§5.3);
//! * [`merge`] — the two-stage fingerprint merge with per-sample
//!   generalization (Eqs. 12–13) and optional suppression (§7.1);
//! * [`reshape`] — resolution of temporal overlaps in merged fingerprints;
//! * [`glove`] — Algorithm 1: greedy global merging until every published
//!   fingerprint hides at least `k` subscribers, with admissible pair
//!   pruning;
//! * [`compact`] — bit-packed occupancy signatures: the popcount/XOR tier-0
//!   filter of the distance cascade inside the greedy merge;
//! * [`shard`] — the sharded engine: activity/spatially bucketed partitions
//!   anonymized independently and stitched (the §6.3 batching idea);
//! * [`stream`] — the streaming engine: windowed online GLOVE over
//!   time-ordered events with carry-over groups and bounded resident
//!   memory;
//! * [`ledger`] — the memory-audit ledger: peak arena bytes, peak sample
//!   bytes and process peak-RSS recorded with every run;
//! * [`accuracy`] — spatiotemporal accuracy metrics of anonymized output;
//! * [`parallel`] — the data-parallel kernel that stands in for the paper's
//!   GPU implementation (§6.3);
//! * [`policy`] — the policy plane: `(epoch, cohort) → EffectivePolicy`
//!   resolution over a base configuration, with the uniform plane as the
//!   byte-identical default;
//! * [`api`] — the unified run API: the [`api::Anonymizer`] trait over
//!   every engine (including the baselines adapters of `glove-baselines`),
//!   the [`api::RunBuilder`] mode selector, [`api::Observer`] progress
//!   hooks and the serializable [`api::RunReport`].
//!
//! ## Quickstart
//!
//! ```
//! use glove_core::prelude::*;
//!
//! // Three toy subscribers (paper Fig. 1): samples are (x, y, t) points at
//! // the native 100 m / 1 min granularity.
//! let fingerprints = vec![
//!     Fingerprint::from_points(0, &[(1_000, 2_000, 8 * 60), (5_000, 5_200, 14 * 60)]).unwrap(),
//!     Fingerprint::from_points(1, &[(1_200, 2_100, 8 * 60), (5_100, 5_000, 15 * 60)]).unwrap(),
//!     Fingerprint::from_points(2, &[(900, 1_800, 7 * 60), (4_800, 5_400, 20 * 60)]).unwrap(),
//! ];
//! let dataset = Dataset::new("toy", fingerprints).unwrap();
//!
//! let config = GloveConfig { k: 3, ..GloveConfig::default() };
//! let output = glove_core::glove::anonymize(&dataset, &config).unwrap();
//!
//! // All three users now share one generalized fingerprint.
//! assert_eq!(output.dataset.fingerprints.len(), 1);
//! assert_eq!(output.dataset.fingerprints[0].multiplicity(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accuracy;
pub mod api;
pub mod compact;
pub mod config;
pub mod error;
pub mod glove;
pub mod kgap;
pub mod ledger;
pub mod merge;
pub mod model;
pub mod parallel;
pub mod policy;
pub mod reshape;
pub mod shard;
pub mod stream;
pub mod stretch;
pub mod suppress;

/// Convenient re-exports of the types used in almost every interaction with
/// the crate.
pub mod prelude {
    pub use crate::api::{
        Anonymizer, JsonlReportWriter, LogObserver, NullObserver, Observer, RunBuilder, RunDetail,
        RunOutcome, RunOutput, RunReport,
    };
    pub use crate::config::{
        CarryPolicy, GloveConfig, Pruning, ResidualPolicy, ShardBy, ShardPolicy, StreamConfig,
        StretchConfig, SuppressionThresholds, UnderKPolicy,
    };
    pub use crate::error::GloveError;
    pub use crate::glove::{anonymize, GloveOutput, GloveStats};
    pub use crate::kgap::{kgap, kgap_all};
    pub use crate::ledger::MemoryLedger;
    pub use crate::model::{Dataset, Fingerprint, Sample, UserId};
    pub use crate::policy::{
        CohortSpec, EffectivePolicy, KPlan, PolicyOverride, PolicyPlane, PolicyRule, SharedPolicy,
    };
    pub use crate::shard::ShardStat;
    pub use crate::stream::{
        events_of, run_stream, EpochOutput, EpochStat, StreamEngine, StreamEvent, StreamRun,
        StreamStats,
    };
    pub use crate::stretch::{fingerprint_stretch, sample_stretch};
}

pub use config::{
    CarryPolicy, GloveConfig, Pruning, ResidualPolicy, ShardBy, ShardPolicy, StreamConfig,
    StretchConfig, SuppressionThresholds, UnderKPolicy,
};
pub use error::GloveError;
pub use model::{Dataset, Fingerprint, Sample, UserId};
