//! Configuration of the stretch-effort algebra and the GLOVE algorithm.
//!
//! Every configuration type here has one JSON shape (the [`Json`] impls
//! beside each declaration), which the `glove serve` `HELLO` frame uses to
//! inline a tenant's full [`StreamConfig`]. Decoding is *tolerant*: an
//! absent key takes the library default (the struct's own `Default`, so a
//! partial `stretch` object keeps the paper's caps), a minimal
//! `{"glove": {"k": 3}}` is a valid configuration, and unknown keys are
//! ignored. [`GloveConfig::pruning`] picks test oracles whose output is
//! byte-identical, so it does not travel: a served tenant always runs the
//! library default, and the keys an older client still sends (`pruning`,
//! `cascade`, `columnar`) are ignored like any unknown key. Decoding does
//! not validate; the serve session calls [`StreamConfig::validate`] so an
//! invalid configuration fails with the engine's own error text.

use crate::api::json::{Json, JsonValue};
use crate::error::GloveError;
use crate::json_struct;

/// One spelling table per config enum, behind `as_str`, `FromStr` and the
/// [`Json`] impl, so CLI flags and summaries, eval labels, run reports, the
/// serve wire and the policy plane all spell a variant alike.
macro_rules! spelled {
    ($ty:ident, $what:literal, { $v0:ident => $s0:literal $(, $v:ident => $s:literal)* $(,)? }) => {
        impl $ty {
            /// The variant's spelling.
            pub fn as_str(self) -> &'static str {
                match self {
                    $ty::$v0 => $s0,
                    $($ty::$v => $s,)*
                }
            }
        }

        impl std::str::FromStr for $ty {
            type Err = String;

            fn from_str(s: &str) -> Result<Self, Self::Err> {
                match s {
                    $s0 => Ok($ty::$v0),
                    $($s => Ok($ty::$v),)*
                    other => Err(format!(
                        concat!($what, " must be ", $s0, $("|", $s,)* ", got '{}'"),
                        other
                    )),
                }
            }
        }

        impl Json for $ty {
            fn to_value(&self) -> JsonValue {
                JsonValue::Str(self.as_str().to_string())
            }

            fn from_value(v: &JsonValue) -> Result<Self, String> {
                String::from_value(v)?.parse()
            }
        }
    };
}

/// Parameters of the sample stretch effort `δ` (paper §4.1, Eqs. 1–3).
///
/// The defaults are the paper's choices: `φmax_σ = 20 km`, `φmax_τ = 8 h`,
/// `w_σ = w_τ = ½`. Footnote 3 of the paper explains the calibration: the
/// ratio `φmax_σ / φmax_τ` fixes which spatial loss is "worth" which temporal
/// loss (≈ 0.5 km ↔ 15 min), and values beyond the caps are considered
/// uninformative (effort saturates at 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StretchConfig {
    /// Spatial saturation threshold `φmax_σ`, meters. Default 20 000 m.
    pub phi_max_space_m: f64,
    /// Temporal saturation threshold `φmax_τ`, minutes. Default 480 min.
    pub phi_max_time_min: f64,
    /// Spatial weight `w_σ`. Default 0.5.
    pub w_space: f64,
    /// Temporal weight `w_τ`. Default 0.5.
    pub w_time: f64,
    /// Weight the per-direction stretches by group multiplicity (the
    /// `n_a/(n_a+n_b)` factors of Eqs. 4 and 7). Disabling this is an
    /// ablation of the paper's design choice: merged groups then count like
    /// single users when pricing further merges. Default: true.
    pub population_weighting: bool,
}

impl Default for StretchConfig {
    fn default() -> Self {
        Self {
            phi_max_space_m: 20_000.0,
            phi_max_time_min: 480.0,
            w_space: 0.5,
            w_time: 0.5,
            population_weighting: true,
        }
    }
}

json_struct!(StretchConfig: Default {
    phi_max_space_m,
    phi_max_time_min,
    w_space,
    w_time,
    population_weighting,
});

impl StretchConfig {
    /// Validates the configuration: positive caps, non-negative weights
    /// summing to 1 (which keeps `δ ∈ [0, 1]`, Eq. 1).
    pub fn validate(&self) -> Result<(), GloveError> {
        if !(self.phi_max_space_m.is_finite() && self.phi_max_space_m > 0.0) {
            return Err(GloveError::InvalidConfig(
                "phi_max_space_m must be positive and finite".into(),
            ));
        }
        if !(self.phi_max_time_min.is_finite() && self.phi_max_time_min > 0.0) {
            return Err(GloveError::InvalidConfig(
                "phi_max_time_min must be positive and finite".into(),
            ));
        }
        if self.w_space < 0.0 || self.w_time < 0.0 {
            return Err(GloveError::InvalidConfig(
                "stretch weights must be non-negative".into(),
            ));
        }
        if (self.w_space + self.w_time - 1.0).abs() > 1e-9 {
            return Err(GloveError::InvalidConfig(
                "stretch weights must sum to 1 so that delta stays in [0, 1]".into(),
            ));
        }
        Ok(())
    }
}

/// Suppression thresholds of §7.1: during a merge, a sample whose
/// generalization would exceed either bound is discarded instead of merged.
///
/// `None` on an axis disables the threshold on that axis (the paper's Fig. 9
/// right plot uses temporal-only thresholds; footnote 8 notes spatial-only
/// thresholding gains little).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SuppressionThresholds {
    /// Maximum tolerated spatial extent of a merged sample, meters
    /// (`max(dx, dy)` is compared against this).
    pub max_space_m: Option<u32>,
    /// Maximum tolerated temporal extent of a merged sample, minutes.
    pub max_time_min: Option<u32>,
}

json_struct!(SuppressionThresholds: Default {
    max_space_m,
    max_time_min,
});

impl SuppressionThresholds {
    /// Thresholds used for the paper's Table 2 runs: 15 km and 6 h.
    pub fn table2() -> Self {
        Self {
            max_space_m: Some(15_000),
            max_time_min: Some(360),
        }
    }

    /// True if no axis is constrained (suppression disabled).
    pub fn is_disabled(&self) -> bool {
        self.max_space_m.is_none() && self.max_time_min.is_none()
    }
}

/// What to do with the at-most-one fingerprint that can remain with
/// multiplicity `< k` when Alg. 1's main loop runs out of mergeable pairs
/// (see DESIGN.md "Residual fingerprints").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ResidualPolicy {
    /// Merge the residual fingerprint into the nearest (minimum stretch
    /// effort) already-k-anonymized group. Keeps every subscriber in the
    /// published dataset. This is the default.
    #[default]
    MergeIntoNearest,
    /// Drop the residual fingerprint (its subscribers are not published).
    Suppress,
}

spelled!(ResidualPolicy, "residual policy", {
    MergeIntoNearest => "merge",
    Suppress => "suppress",
});

/// How the sharded engine assigns fingerprints to shards (see
/// `core::shard` and DESIGN.md "Sharded anonymization").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShardBy {
    /// Bucket by activity: fingerprints are ordered by sample count and cut
    /// into contiguous runs, so each shard holds similar-length fingerprints
    /// — the §6.3 batching idea ("grouping fingerprints of similar activity").
    /// This is the default.
    #[default]
    Activity,
    /// Bucket spatially: fingerprints are ordered by the Z-order index of
    /// their centroid's cell on a coarse grid (one cell per `φmax_σ`), so
    /// each shard holds geographically coherent users and cheap merges stay
    /// available within the shard.
    Spatial,
    /// Hierarchical two-level bucketing for metro-scale datasets: an outer
    /// spatial Z-order cut into `⌈√shards⌉` contiguous buckets, each
    /// re-sorted by activity and cut again so the total shard count comes
    /// out to `shards`. Shards are then both geographically coherent (outer
    /// level keeps cheap merges available) *and* length-homogeneous (inner
    /// level keeps the quadratic kernel's work per shard balanced).
    TwoLevel,
}

spelled!(ShardBy, "shard key", {
    Activity => "activity",
    Spatial => "spatial",
    TwoLevel => "two-level",
});

/// Sharding policy: split the dataset into `shards` buckets, anonymize each
/// independently, and stitch the outputs back together.
///
/// Sharding trades away cross-shard merges (a pair living in different
/// shards can never be grouped) for a `shards`-fold reduction of the
/// quadratic pair matrix and embarrassing parallelism across shards.
/// k-anonymity is preserved: every shard is anonymized to the same `k`, so
/// every published fingerprint still hides ≥ `k` subscribers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardPolicy {
    /// Number of shards to cut the dataset into. `1` behaves exactly like a
    /// monolithic run. Shards that would fall below `k` subscribers are
    /// coalesced with a neighbour, so the effective count can be lower.
    pub shards: usize,
    /// Shard assignment key.
    pub by: ShardBy,
}

json_struct!(ShardPolicy {
    shards,
    by = ShardBy::default(),
});

impl ShardPolicy {
    /// An activity-bucketed policy with `shards` shards.
    pub fn activity(shards: usize) -> Self {
        Self {
            shards,
            by: ShardBy::Activity,
        }
    }

    /// A spatially-bucketed policy with `shards` shards.
    pub fn spatial(shards: usize) -> Self {
        Self {
            shards,
            by: ShardBy::Spatial,
        }
    }

    /// A hierarchical two-level (spatial outer, activity inner) policy with
    /// `shards` shards.
    pub fn two_level(shards: usize) -> Self {
        Self {
            shards,
            by: ShardBy::TwoLevel,
        }
    }
}

/// Continuity policy of the streaming engine (`core::stream`): what an
/// epoch inherits from the previous one (see DESIGN.md "Streaming
/// anonymization").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CarryPolicy {
    /// Regroup from scratch every window: each epoch's groups are chosen
    /// only from that window's data. Maximizes per-epoch accuracy and is the
    /// policy under which a single full-horizon window reproduces the batch
    /// run byte for byte. This is the default.
    #[default]
    Fresh,
    /// Seed each epoch's pair arena with the previous window's groups:
    /// subscribers who shared a published fingerprint and are all active
    /// again enter pre-merged, so stable cohorts keep their merge partners
    /// across epochs instead of being reshuffled.
    Sticky,
}

spelled!(CarryPolicy, "carry policy", {
    Fresh => "fresh",
    Sticky => "sticky",
});

/// What the streaming engine does with a window whose population is below
/// `k` (no k-anonymous release is possible for that window at all).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum UnderKPolicy {
    /// Drop the window's users for this epoch; their samples are never
    /// published. Counted in the stream's under-k ledger. This is the
    /// default (publication never lags the stream).
    #[default]
    Suppress,
    /// Defer the window's users to the next epoch: their samples ride along
    /// and are published once a window with enough co-travellers closes.
    /// Users still deferred when the stream ends are suppressed.
    Defer,
}

spelled!(UnderKPolicy, "under-k policy", {
    Suppress => "suppress",
    Defer => "defer",
});

/// Configuration of the streaming engine (`core::stream`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamConfig {
    /// Window (epoch) length `W` in minutes: an epoch closes, is anonymized
    /// and emitted every time the event clock crosses a multiple of `W`.
    /// Default: 1440 (one day).
    pub window_min: u32,
    /// Cross-epoch continuity policy.
    pub carry: CarryPolicy,
    /// Policy for windows whose population falls below `k`.
    pub under_k: UnderKPolicy,
    /// The per-epoch GLOVE configuration (k, stretch, suppression, sharding,
    /// pruning, threads) — each closed window is anonymized with exactly
    /// this configuration.
    pub glove: GloveConfig,
}

impl Default for StreamConfig {
    fn default() -> Self {
        Self {
            window_min: 1_440,
            carry: CarryPolicy::default(),
            under_k: UnderKPolicy::default(),
            glove: GloveConfig::default(),
        }
    }
}

json_struct!(StreamConfig: Default {
    window_min,
    carry,
    under_k,
    glove,
});

impl StreamConfig {
    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), GloveError> {
        if self.window_min == 0 {
            return Err(GloveError::InvalidConfig(
                "stream window length must be at least 1 minute".into(),
            ));
        }
        self.glove.validate()
    }
}

/// How the greedy loop seeds a fresh pair cell of its effort matrix (see
/// DESIGN.md "Distance cascade"). A cell then only escalates, tier by tier,
/// while its value could still decide a row minimum; every seed is
/// admissible, so all three modes publish byte-identical output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Pruning {
    /// Seed with the bit-packed signature bound of `core::compact` and let
    /// exact evaluations abandon early — when the mean fingerprint length
    /// clears the engine's engagement gate. Below it the filter costs more
    /// than it saves, so the run seeds hull bounds instead. This is the
    /// default.
    #[default]
    Cascade,
    /// Seed with the hull bound whatever the fingerprint length: the
    /// pre-cascade pruner, kept as a comparator.
    HullOnly,
    /// Seed with the exact Eq. 10 value: the paper's full-matrix kernel,
    /// kept as the oracle every pruned run must reproduce.
    Off,
}

/// Full configuration of a GLOVE run (Alg. 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GloveConfig {
    /// The anonymity level `k`: every published fingerprint must hide at
    /// least `k` subscribers. Default 2.
    pub k: usize,
    /// Stretch-effort parameters.
    pub stretch: StretchConfig,
    /// Optional suppression thresholds (§7.1). Default: disabled.
    pub suppression: SuppressionThresholds,
    /// Residual-fingerprint policy. Default: merge into nearest group.
    pub residual: ResidualPolicy,
    /// Apply the reshaping step of §6.2 to every published fingerprint,
    /// resolving temporal overlaps. Default: true.
    pub reshape: bool,
    /// Worker threads for the parallel kernel; 0 = one per available core.
    pub threads: usize,
    /// Optional sharding policy. `None` (the default) runs the monolithic
    /// Alg. 1 over the whole dataset.
    pub shard: Option<ShardPolicy>,
    /// Admissible pair pruning: the tier at which the greedy loop seeds a
    /// fresh pair cell (see [`Pruning`]). Every mode publishes
    /// byte-identical output; only the work behind each decision changes
    /// (`pairs_computed` and the per-tier skip counters of `GloveStats`).
    /// Default: [`Pruning::Cascade`].
    pub pruning: Pruning,
}

impl Default for GloveConfig {
    fn default() -> Self {
        Self {
            k: 2,
            stretch: StretchConfig::default(),
            suppression: SuppressionThresholds::default(),
            residual: ResidualPolicy::default(),
            reshape: true,
            threads: 0,
            shard: None,
            pruning: Pruning::default(),
        }
    }
}

json_struct!(GloveConfig: Default {
    k,
    stretch,
    suppression,
    residual,
    reshape,
    threads,
    shard,
} skip {
    pruning,
});

impl GloveConfig {
    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), GloveError> {
        if self.k < 2 {
            return Err(GloveError::InvalidConfig(
                "k must be at least 2 (k = 1 is the identity transformation)".into(),
            ));
        }
        if let Some(policy) = &self.shard {
            if policy.shards == 0 {
                return Err(GloveError::InvalidConfig(
                    "shard count must be at least 1".into(),
                ));
            }
        }
        self.stretch.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let c = StretchConfig::default();
        assert_eq!(c.phi_max_space_m, 20_000.0);
        assert_eq!(c.phi_max_time_min, 480.0);
        assert_eq!(c.w_space, 0.5);
        assert_eq!(c.w_time, 0.5);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn rejects_bad_weights() {
        let c = StretchConfig {
            w_space: 0.7,
            w_time: 0.7,
            ..StretchConfig::default()
        };
        assert!(c.validate().is_err());
        let c = StretchConfig {
            w_space: -0.5,
            w_time: 1.5,
            ..StretchConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn rejects_bad_caps() {
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let c = StretchConfig {
                phi_max_space_m: bad,
                ..StretchConfig::default()
            };
            assert!(c.validate().is_err(), "cap {bad} should be rejected");
        }
    }

    #[test]
    fn glove_config_rejects_k_below_two() {
        let c = GloveConfig {
            k: 1,
            ..GloveConfig::default()
        };
        assert!(c.validate().is_err());
        let c = GloveConfig::default();
        assert!(c.validate().is_ok());
    }

    #[test]
    fn suppression_disabled_detection() {
        assert!(SuppressionThresholds::default().is_disabled());
        assert!(!SuppressionThresholds::table2().is_disabled());
    }

    #[test]
    fn stream_config_validation_and_parsing() {
        assert!(StreamConfig::default().validate().is_ok());
        let c = StreamConfig {
            window_min: 0,
            ..StreamConfig::default()
        };
        assert!(c.validate().is_err());
        let c = StreamConfig {
            glove: GloveConfig {
                k: 1,
                ..GloveConfig::default()
            },
            ..StreamConfig::default()
        };
        assert!(c.validate().is_err(), "inner glove config is validated too");

        assert_eq!("fresh".parse::<CarryPolicy>().unwrap(), CarryPolicy::Fresh);
        assert_eq!(
            "sticky".parse::<CarryPolicy>().unwrap(),
            CarryPolicy::Sticky
        );
        assert!("warm".parse::<CarryPolicy>().is_err());
        assert_eq!(
            "suppress".parse::<UnderKPolicy>().unwrap(),
            UnderKPolicy::Suppress
        );
        assert_eq!(
            "defer".parse::<UnderKPolicy>().unwrap(),
            UnderKPolicy::Defer
        );
        assert!("drop".parse::<UnderKPolicy>().is_err());
    }

    #[test]
    fn shard_policy_validation_and_parsing() {
        let c = GloveConfig {
            shard: Some(ShardPolicy::activity(0)),
            ..GloveConfig::default()
        };
        assert!(c.validate().is_err());
        let c = GloveConfig {
            shard: Some(ShardPolicy::spatial(8)),
            ..GloveConfig::default()
        };
        assert!(c.validate().is_ok());

        assert_eq!("activity".parse::<ShardBy>().unwrap(), ShardBy::Activity);
        assert_eq!("spatial".parse::<ShardBy>().unwrap(), ShardBy::Spatial);
        assert!("geohash".parse::<ShardBy>().is_err());
    }

    #[test]
    fn default_round_trips() {
        let c = StreamConfig::default();
        let back = StreamConfig::from_value(&c.to_value()).unwrap();
        assert_eq!(back, c);
        assert_eq!(
            c.to_value().render(),
            concat!(
                r#"{"window_min":1440,"carry":"fresh","under_k":"suppress","#,
                r#""glove":{"k":2,"stretch":{"phi_max_space_m":20000,"#,
                r#""phi_max_time_min":480,"w_space":0.5,"w_time":0.5,"#,
                r#""population_weighting":true},"#,
                r#""suppression":{"max_space_m":null,"max_time_min":null},"#,
                r#""residual":"merge","reshape":true,"threads":0,"shard":null}}"#,
            )
        );
    }

    #[test]
    fn non_default_round_trips_exactly() {
        let c = StreamConfig {
            window_min: 720,
            carry: CarryPolicy::Sticky,
            under_k: UnderKPolicy::Defer,
            glove: GloveConfig {
                k: 7,
                stretch: StretchConfig {
                    phi_max_space_m: 12_345.678,
                    phi_max_time_min: 90.5,
                    w_space: 0.3,
                    w_time: 0.7,
                    population_weighting: false,
                },
                suppression: SuppressionThresholds::table2(),
                residual: ResidualPolicy::Suppress,
                reshape: false,
                threads: 3,
                shard: Some(ShardPolicy::two_level(9)),
                ..GloveConfig::default()
            },
        };
        let back = StreamConfig::from_value(&c.to_value()).unwrap();
        assert_eq!(back, c);
        assert_eq!(
            c.to_value().render(),
            concat!(
                r#"{"window_min":720,"carry":"sticky","under_k":"defer","#,
                r#""glove":{"k":7,"stretch":{"phi_max_space_m":12345.678,"#,
                r#""phi_max_time_min":90.5,"w_space":0.3,"w_time":0.7,"#,
                r#""population_weighting":false},"#,
                r#""suppression":{"max_space_m":15000,"max_time_min":360},"#,
                r#""residual":"suppress","reshape":false,"threads":3,"#,
                r#""shard":{"shards":9,"by":"two-level"}}}"#,
            )
        );
    }

    #[test]
    fn minimal_json_takes_defaults() {
        let v = JsonValue::parse(r#"{"glove": {"k": 3}}"#).unwrap();
        let c = StreamConfig::from_value(&v).unwrap();
        assert_eq!(c.glove.k, 3);
        assert_eq!(c.window_min, StreamConfig::default().window_min);
        assert_eq!(c.glove.pruning, Pruning::Cascade);
    }

    #[test]
    fn a_partial_stretch_object_keeps_the_library_caps() {
        let v = JsonValue::parse(r#"{"glove":{"stretch":{"w_space":0.3,"w_time":0.7}}}"#).unwrap();
        let c = StreamConfig::from_value(&v).unwrap();
        let defaults = StretchConfig::default();
        assert_eq!(c.glove.stretch.phi_max_space_m, defaults.phi_max_space_m);
        assert_eq!(c.glove.stretch.phi_max_time_min, defaults.phi_max_time_min);
        assert_eq!(
            (c.glove.stretch.w_space, c.glove.stretch.w_time),
            (0.3, 0.7)
        );
    }

    #[test]
    fn old_clients_oracle_keys_are_ignored() {
        // An older `glove send` always sends the three oracle switches; the
        // tenant still runs the library defaults.
        let v = JsonValue::parse(
            r#"{"glove": {"k": 3, "pruning": false, "cascade": false, "columnar": false}}"#,
        )
        .unwrap();
        let c = StreamConfig::from_value(&v).unwrap();
        let defaults = GloveConfig::default();
        assert_eq!(c.glove.k, 3);
        assert_eq!(c.glove.pruning, defaults.pruning);
        assert_eq!(c.glove, GloveConfig { k: 3, ..defaults });
    }

    #[test]
    fn bad_fields_are_rejected() {
        for text in [
            r#"{"window_min": "day"}"#,
            r#"{"carry": "warm"}"#,
            r#"{"glove": {"residual": "drop"}}"#,
            r#"{"glove": {"shard": {"by": "geohash", "shards": 2}}}"#,
        ] {
            let v = JsonValue::parse(text).unwrap();
            assert!(StreamConfig::from_value(&v).is_err(), "{text}");
        }
    }
}
