//! The unified, serializable run report every engine produces.
//!
//! [`RunReport`] supersedes the ad-hoc stats plumbing that used to leak
//! into every consumer (`GloveStats` for batch/sharded runs, `StreamStats`
//! for streams, the baselines' own types): one top-level shape carries the
//! counters every engine shares, and the engine-specific types survive as
//! embedded **detail sections** ([`RunDetail`]) for consumers that need the
//! per-shard / per-epoch breakdowns.
//!
//! Reports serialize to JSON ([`RunReport::to_json`]) and parse back
//! ([`RunReport::from_json`]) with exact round-trip fidelity — enforced by
//! the `api_properties` test suite — so they can travel through JSONL
//! artifacts and external tooling without this crate.

use crate::api::json::{field, Json, JsonValue};
use crate::glove::GloveStats;
use crate::json_struct;
use crate::stream::StreamStats;

/// Wall-clock duration of one run phase (see the ordering guarantees in
/// [`crate::api::observer`]).
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseMetric {
    /// Phase name (`"prepare"`, `"run"`, `"flush"`, …).
    pub phase: String,
    /// Elapsed wall-clock seconds.
    pub elapsed_s: f64,
}

json_struct!(PhaseMetric { phase, elapsed_s });

/// Engine-specific detail embedded in a [`RunReport`].
#[derive(Debug, Clone, PartialEq, Default)]
pub enum RunDetail {
    /// No engine-specific detail.
    #[default]
    None,
    /// Batch / sharded GLOVE statistics (per-shard breakdown included).
    Glove(GloveStats),
    /// Streaming statistics (per-epoch breakdown included).
    Stream(StreamStats),
    /// Detail of an engine outside this crate (the baselines adapters),
    /// as a JSON tree under the engine's name.
    External {
        /// The producing engine's identifier.
        engine: String,
        /// Engine-defined payload.
        data: JsonValue,
    },
}

impl RunDetail {
    /// The embedded GLOVE stats, if this is a batch/sharded detail.
    pub fn as_glove(&self) -> Option<&GloveStats> {
        match self {
            RunDetail::Glove(stats) => Some(stats),
            _ => None,
        }
    }

    /// The embedded stream stats, if this is a streaming detail.
    pub fn as_stream(&self) -> Option<&StreamStats> {
        match self {
            RunDetail::Stream(stats) => Some(stats),
            _ => None,
        }
    }

    /// The embedded external payload, if any.
    pub fn as_external(&self) -> Option<&JsonValue> {
        match self {
            RunDetail::External { data, .. } => Some(data),
            _ => None,
        }
    }
}

/// The detail renders as `null` or as an object tagged by its `type`.
impl Json for RunDetail {
    fn to_value(&self) -> JsonValue {
        match self {
            RunDetail::None => JsonValue::Null,
            RunDetail::Glove(stats) => JsonValue::obj(vec![
                ("type", JsonValue::Str("glove".into())),
                ("stats", stats.to_value()),
            ]),
            RunDetail::Stream(stats) => JsonValue::obj(vec![
                ("type", JsonValue::Str("stream".into())),
                ("stats", stats.to_value()),
            ]),
            RunDetail::External { engine, data } => JsonValue::obj(vec![
                ("type", JsonValue::Str("external".into())),
                ("engine", engine.to_value()),
                ("data", data.clone()),
            ]),
        }
    }

    fn from_value(v: &JsonValue) -> Result<Self, String> {
        if *v == JsonValue::Null {
            return Ok(RunDetail::None);
        }
        match v.get("type").and_then(JsonValue::as_str) {
            Some("glove") => Ok(RunDetail::Glove(field(v, "stats")?)),
            Some("stream") => Ok(RunDetail::Stream(field(v, "stats")?)),
            Some("external") => Ok(RunDetail::External {
                engine: field(v, "engine")?,
                data: field(v, "data")?,
            }),
            other => Err(format!("unknown detail type {other:?}")),
        }
    }
}

/// The unified result summary of one anonymization run, whatever the
/// engine.
///
/// Counters an engine does not produce stay zero (e.g. `merges` for the
/// uniform baseline, `created_samples` for every engine but W4M); `k` is 0
/// for engines without an anonymity parameter.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunReport {
    /// Engine identifier (`"glove-batch"`, `"glove-sharded"`,
    /// `"glove-stream"`, `"uniform"`, `"w4m-lc"`).
    pub engine: String,
    /// Input dataset / stream name.
    pub dataset: String,
    /// Anonymity level of the run (0 when the engine has none).
    pub k: usize,
    /// Fingerprints in the input (0 when unknown, e.g. a pure event
    /// stream).
    pub fingerprints_in: usize,
    /// Subscribers in the input (0 when unknown).
    pub users_in: usize,
    /// Samples in the input; for event streams, the events consumed.
    pub samples_in: usize,
    /// Published fingerprints (summed over epochs for streams).
    pub fingerprints_out: usize,
    /// Published subscribers (user-slices summed over epochs for streams).
    pub users_out: usize,
    /// Published samples (summed over epochs for streams).
    pub samples_out: usize,
    /// Pairwise merges performed.
    pub merges: u64,
    /// Eq. 10 evaluations performed.
    pub pairs_computed: u64,
    /// Pair evaluations skipped by the admissible bound.
    pub pairs_pruned: u64,
    /// Pairs dismissed by the tier-0 bit-packed signature bound of the
    /// distance cascade (0 for engines or configurations without it).
    pub pairs_skipped_tier0: u64,
    /// Pairs dismissed by the tier-1 hull bound of the distance cascade.
    pub pairs_skipped_tier1: u64,
    /// Exact evaluations started but abandoned early by the partial-mean
    /// bound (tier 2 of the distance cascade).
    pub pairs_abandoned: u64,
    /// Samples dropped by §7.1 suppression (merge decisions).
    pub suppressed_samples: u64,
    /// Suppressed samples weighted by fingerprint multiplicity.
    pub suppressed_user_samples: u64,
    /// Synthetic samples fabricated (W4M resampling; GLOVE never creates).
    pub created_samples: u64,
    /// Original samples deleted by resampling (W4M).
    pub deleted_samples: u64,
    /// Fingerprints discarded (residual suppression, W4M trashing, stream
    /// under-k user-slices).
    pub discarded_fingerprints: u64,
    /// Subscribers dropped with those fingerprints.
    pub discarded_users: u64,
    /// Total wall-clock seconds of the run.
    pub elapsed_s: f64,
    /// Wall-clock phases, in execution order.
    pub phases: Vec<PhaseMetric>,
    /// Engine-specific detail section.
    pub detail: RunDetail,
}

json_struct!(RunReport {
    engine,
    dataset,
    k,
    fingerprints_in,
    users_in,
    samples_in,
    fingerprints_out,
    users_out,
    samples_out,
    merges,
    pairs_computed,
    pairs_pruned,
    pairs_skipped_tier0,
    pairs_skipped_tier1,
    pairs_abandoned,
    suppressed_samples,
    suppressed_user_samples,
    created_samples,
    deleted_samples,
    discarded_fingerprints,
    discarded_users,
    elapsed_s,
    phases,
    detail,
});

impl RunReport {
    /// Fraction of candidate pairs the admissible bound skipped, in
    /// `[0, 1]` (0 when the engine evaluates no pairs).
    pub fn pruned_fraction(&self) -> f64 {
        let candidates = self.pairs_computed + self.pairs_pruned;
        if candidates > 0 {
            self.pairs_pruned as f64 / candidates as f64
        } else {
            0.0
        }
    }

    /// Serializes the report as compact JSON.
    pub fn to_json(&self) -> String {
        self.to_value().render()
    }

    /// Parses a report serialized by [`RunReport::to_json`].
    pub fn from_json(text: &str) -> Result<RunReport, String> {
        Self::from_value(&JsonValue::parse(text)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CarryPolicy, UnderKPolicy};
    use crate::ledger::MemoryLedger;
    use crate::shard::ShardStat;
    use crate::stream::EpochStat;
    use crate::suppress::SuppressionLedger;

    fn sample_report() -> RunReport {
        RunReport {
            engine: "glove-sharded".into(),
            dataset: "civ-like".into(),
            k: 2,
            fingerprints_in: 100,
            users_in: 100,
            samples_in: 1_234,
            fingerprints_out: 50,
            users_out: 100,
            samples_out: 900,
            merges: 50,
            pairs_computed: 4_000,
            pairs_pruned: 950,
            pairs_skipped_tier0: 600,
            pairs_skipped_tier1: 300,
            pairs_abandoned: 50,
            suppressed_samples: 3,
            suppressed_user_samples: 5,
            created_samples: 0,
            deleted_samples: 0,
            discarded_fingerprints: 1,
            discarded_users: 1,
            elapsed_s: 0.12345,
            phases: vec![
                PhaseMetric {
                    phase: "prepare".into(),
                    elapsed_s: 0.0001,
                },
                PhaseMetric {
                    phase: "run".into(),
                    elapsed_s: 0.123,
                },
            ],
            detail: RunDetail::Glove(GloveStats {
                merges: 50,
                pairs_computed: 4_000,
                pairs_pruned: 950,
                pairs_skipped_tier0: 600,
                pairs_skipped_tier1: 300,
                pairs_abandoned: 50,
                per_shard: vec![ShardStat {
                    shard: 0,
                    fingerprints_in: 100,
                    users_in: 100,
                    fingerprints_out: 50,
                    merges: 50,
                    pairs_computed: 4_000,
                    pairs_pruned: 950,
                    pairs_skipped_tier0: 600,
                    pairs_skipped_tier1: 300,
                    pairs_abandoned: 50,
                    ledger: MemoryLedger {
                        peak_arena_bytes: 1 << 20,
                        peak_store_bytes: 24 * 1_234,
                        peak_rss_bytes: 64 << 20,
                    },
                    elapsed_s: 0.11,
                }],
                suppressed: SuppressionLedger {
                    samples: 3,
                    user_samples: 5,
                },
                reshaped_samples: 7,
                discarded_fingerprints: 1,
                discarded_users: 1,
                ledger: MemoryLedger {
                    peak_arena_bytes: 1 << 20,
                    peak_store_bytes: 24 * 1_234,
                    peak_rss_bytes: 64 << 20,
                },
                elapsed_s: 0.12,
            }),
        }
    }

    /// What `sample_report()` renders between its `engine` and `detail`
    /// keys, in every variant below.
    const SAMPLE_FIELDS: &str = concat!(
        r#""dataset":"civ-like","k":2,"fingerprints_in":100,"users_in":100,"#,
        r#""samples_in":1234,"fingerprints_out":50,"users_out":100,"#,
        r#""samples_out":900,"merges":50,"pairs_computed":4000,"pairs_pruned":950,"#,
        r#""pairs_skipped_tier0":600,"pairs_skipped_tier1":300,"#,
        r#""pairs_abandoned":50,"suppressed_samples":3,"suppressed_user_samples":5,"#,
        r#""created_samples":0,"deleted_samples":0,"discarded_fingerprints":1,"#,
        r#""discarded_users":1,"elapsed_s":0.12345,"phases":[{"phase":"prepare","#,
        r#""elapsed_s":0.0001},{"phase":"run","elapsed_s":0.123}],"#,
    );

    /// The exact text of a `sample_report()` variant.
    fn pinned(engine: &str, detail: &str) -> String {
        format!(r#"{{"engine":"{engine}",{SAMPLE_FIELDS}"detail":{detail}}}"#)
    }

    #[test]
    fn report_json_round_trips() {
        let report = sample_report();
        let parsed = RunReport::from_json(&report.to_json()).unwrap();
        assert_eq!(parsed, report);
        let detail = concat!(
            r#"{"type":"glove","stats":{"merges":50,"pairs_computed":4000,"#,
            r#""pairs_pruned":950,"pairs_skipped_tier0":600,"pairs_skipped_tier1":300,"#,
            r#""pairs_abandoned":50,"per_shard":[{"shard":0,"fingerprints_in":100,"#,
            r#""users_in":100,"fingerprints_out":50,"merges":50,"pairs_computed":4000,"#,
            r#""pairs_pruned":950,"pairs_skipped_tier0":600,"pairs_skipped_tier1":300,"#,
            r#""pairs_abandoned":50,"memory":{"peak_arena_bytes":1048576,"#,
            r#""peak_store_bytes":29616,"peak_rss_bytes":67108864},"#,
            r#""elapsed_s":0.11}],"suppressed":{"samples":3,"user_samples":5},"#,
            r#""reshaped_samples":7,"discarded_fingerprints":1,"discarded_users":1,"#,
            r#""memory":{"peak_arena_bytes":1048576,"peak_store_bytes":29616,"#,
            r#""peak_rss_bytes":67108864},"elapsed_s":0.12}}"#,
        );
        assert_eq!(report.to_json(), pinned("glove-sharded", detail));
    }

    #[test]
    fn stream_detail_round_trips() {
        let mut report = sample_report();
        report.engine = "glove-stream".into();
        report.detail = RunDetail::Stream(StreamStats {
            events: 10_000,
            epochs: 3,
            peak_resident_fingerprints: 42,
            peak_resident_samples: 321,
            merges: 77,
            pairs_computed: 5_000,
            pairs_pruned: 123,
            pairs_skipped_tier0: 70,
            pairs_skipped_tier1: 40,
            pairs_abandoned: 13,
            seeded_groups: 4,
            suppressed_users: 2,
            suppressed_samples: 9,
            deferred_users: 1,
            deferred_samples: 3,
            seed_suppressed: SuppressionLedger::default(),
            shed_events: 6,
            ledger: MemoryLedger {
                peak_arena_bytes: 512 << 10,
                peak_store_bytes: 24 * 321,
                peak_rss_bytes: 48 << 20,
            },
            per_epoch: vec![EpochStat {
                epoch: 0,
                window_start_min: 1_440,
                fingerprints_in: 40,
                users_in: 40,
                seeded_groups: 0,
                groups_out: 20,
                merges: 20,
                pairs_computed: 780,
                pairs_pruned: 12,
                pairs_skipped_tier0: 7,
                pairs_skipped_tier1: 4,
                pairs_abandoned: 1,
                policy_k: 2,
                policy_window_min: 1_440,
                policy_carry: CarryPolicy::Sticky,
                policy_under_k: UnderKPolicy::Defer,
                policy_cohort_users: 3,
                elapsed_s: 0.05,
            }],
            elapsed_s: 0.2,
        });
        let parsed = RunReport::from_json(&report.to_json()).unwrap();
        assert_eq!(parsed, report);
        let detail = concat!(
            r#"{"type":"stream","stats":{"events":10000,"epochs":3,"#,
            r#""peak_resident_fingerprints":42,"peak_resident_samples":321,"merges":77,"#,
            r#""pairs_computed":5000,"pairs_pruned":123,"pairs_skipped_tier0":70,"#,
            r#""pairs_skipped_tier1":40,"pairs_abandoned":13,"seeded_groups":4,"#,
            r#""suppressed_users":2,"suppressed_samples":9,"deferred_users":1,"#,
            r#""deferred_samples":3,"seed_suppressed":{"samples":0,"user_samples":0},"#,
            r#""shed_events":6,"per_epoch":[{"epoch":0,"window_start_min":1440,"#,
            r#""fingerprints_in":40,"users_in":40,"seeded_groups":0,"groups_out":20,"#,
            r#""merges":20,"pairs_computed":780,"pairs_pruned":12,"#,
            r#""pairs_skipped_tier0":7,"pairs_skipped_tier1":4,"pairs_abandoned":1,"#,
            r#""policy":{"k":2,"window_min":1440,"carry":"sticky","under_k":"defer","#,
            r#""cohort_users":3},"elapsed_s":0.05}],"#,
            r#""memory":{"peak_arena_bytes":524288,"peak_store_bytes":7704,"#,
            r#""peak_rss_bytes":50331648},"elapsed_s":0.2}}"#,
        );
        assert_eq!(report.to_json(), pinned("glove-stream", detail));
    }

    #[test]
    fn external_detail_round_trips() {
        let mut report = sample_report();
        report.engine = "w4m-lc".into();
        report.detail = RunDetail::External {
            engine: "w4m-lc".into(),
            data: JsonValue::obj(vec![
                ("mean_position_error_m", JsonValue::Num(812.5)),
                ("mean_time_error_min", JsonValue::Num(44.25)),
            ]),
        };
        let parsed = RunReport::from_json(&report.to_json()).unwrap();
        assert_eq!(parsed, report);
        let detail = concat!(
            r#"{"type":"external","engine":"w4m-lc","#,
            r#""data":{"mean_position_error_m":812.5,"mean_time_error_min":44.25}}"#,
        );
        assert_eq!(report.to_json(), pinned("w4m-lc", detail));
        assert_eq!(
            parsed
                .detail
                .as_external()
                .and_then(|d| d.get("mean_position_error_m"))
                .and_then(JsonValue::as_f64),
            Some(812.5)
        );
    }

    #[test]
    fn none_detail_round_trips() {
        let mut report = sample_report();
        report.detail = RunDetail::None;
        let parsed = RunReport::from_json(&report.to_json()).unwrap();
        assert_eq!(parsed, report);
        assert_eq!(report.to_json(), pinned("glove-sharded", "null"));
    }

    #[test]
    fn from_json_rejects_mangled_reports() {
        let report = sample_report();
        let json = report.to_json();
        assert!(RunReport::from_json(&json.replace("\"engine\"", "\"motor\"")).is_err());
        assert!(RunReport::from_json("{}").is_err());
        assert!(RunReport::from_json("not json").is_err());
    }

    /// Regression: counters used to ride through `f64`, which silently
    /// rounds integers past 2⁵³ — a week-long metro run's pair count no
    /// longer survives that path. The dedicated integer path must
    /// round-trip every `u64` exactly.
    #[test]
    fn counters_beyond_2_53_round_trip_exactly() {
        let mut report = sample_report();
        report.pairs_computed = (1u64 << 53) + 1;
        report.pairs_pruned = u64::MAX;
        report.merges = (1u64 << 60) + 7;
        let json = report.to_json();
        assert!(
            json.contains(&((1u64 << 53) + 1).to_string()),
            "integer counters must render as exact integer literals"
        );
        let parsed = RunReport::from_json(&json).unwrap();
        assert_eq!(parsed.pairs_computed, (1u64 << 53) + 1);
        assert_eq!(parsed.pairs_pruned, u64::MAX);
        assert_eq!(parsed.merges, (1u64 << 60) + 7);
        assert_eq!(parsed, report);

        // The nested suppression ledgers take the same exact path.
        let exact = SuppressionLedger {
            samples: (1u64 << 53) + 1,
            user_samples: u64::MAX,
        };
        if let RunDetail::Glove(stats) = &mut report.detail {
            stats.suppressed = exact;
        }
        let parsed = RunReport::from_json(&report.to_json()).unwrap();
        assert_eq!(parsed.detail.as_glove().unwrap().suppressed, exact);
        assert_eq!(parsed, report);
        report.detail = RunDetail::Stream(StreamStats {
            seed_suppressed: exact,
            ..StreamStats::default()
        });
        let parsed = RunReport::from_json(&report.to_json()).unwrap();
        assert_eq!(parsed.detail.as_stream().unwrap().seed_suppressed, exact);
        assert_eq!(parsed, report);
    }

    #[test]
    fn memory_ledger_round_trips_in_detail() {
        let report = sample_report();
        let parsed = RunReport::from_json(&report.to_json()).unwrap();
        let stats = parsed.detail.as_glove().unwrap();
        assert_eq!(stats.ledger.peak_arena_bytes, 1 << 20);
        assert_eq!(stats.ledger.peak_store_bytes, 24 * 1_234);
        assert_eq!(stats.ledger.peak_rss_bytes, 64 << 20);
        assert_eq!(stats.per_shard[0].ledger, stats.ledger);
    }

    #[test]
    fn reports_written_with_resident_pages_still_decode() {
        // A `report.jsonl` written while the ledger still counted columnar
        // pages carries `"resident_pages"` in every memory object.
        let report = sample_report();
        let old = report.to_json().replace(
            r#""peak_rss_bytes""#,
            r#""resident_pages":1,"peak_rss_bytes""#,
        );
        assert_eq!(old.matches(r#""resident_pages":1"#).count(), 2);
        assert_eq!(RunReport::from_json(&old).unwrap(), report);
    }

    #[test]
    fn pruned_fraction_is_well_defined() {
        let mut report = sample_report();
        assert!((report.pruned_fraction() - 950.0 / 4_950.0).abs() < 1e-12);
        report.pairs_computed = 0;
        report.pairs_pruned = 0;
        assert_eq!(report.pruned_fraction(), 0.0);
    }
}
