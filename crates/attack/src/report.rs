//! The common attack contract: every adversary in this crate runs behind
//! one object-safe [`Attack`] trait and produces one serializable
//! [`AttackReport`], so harnesses (CLI, eval, tests) drive any adversary
//! through the same loop — mirroring how `glove_core::api::Anonymizer`
//! unifies the defenses.
//!
//! Reports embed into the unified run reporting of PR 4: an
//! [`AttackReport`] converts losslessly to a
//! [`glove_core::api::RunDetail::External`] detail section and to a full
//! [`RunReport`] (engine `"glove-attack"`), both of which round-trip
//! through JSON byte-identically (enforced by this module's tests and the
//! attack property suite).

use glove_core::api::json::{field, field_or, Json, JsonValue};
use glove_core::api::{RunDetail, RunReport};
use glove_core::{json_struct, Dataset, Fingerprint, GloveError};

/// What the adversary links against: one released dataset, or the
/// per-epoch outputs of a streaming run (in emission order).
#[derive(Debug, Clone, Copy)]
pub enum PublishedView<'a> {
    /// A single released dataset (batch, sharded, baselines).
    Dataset(&'a Dataset),
    /// The epoch datasets of a streaming run, in emission order.
    Epochs(&'a [Dataset]),
}

impl<'a> PublishedView<'a> {
    /// Every published record in the view, epochs flattened in emission
    /// order.
    pub fn records(&self) -> Box<dyn Iterator<Item = &'a Fingerprint> + 'a> {
        match self {
            PublishedView::Dataset(ds) => Box::new(ds.fingerprints.iter()),
            PublishedView::Epochs(epochs) => {
                Box::new(epochs.iter().flat_map(|ds| ds.fingerprints.iter()))
            }
        }
    }

    /// The subscriber population of one release: the dataset's user count,
    /// or the largest epoch population (a user appears once per epoch they
    /// are active in, so summing across epochs would double-count).
    pub fn population(&self) -> usize {
        match self {
            PublishedView::Dataset(ds) => ds.num_users(),
            PublishedView::Epochs(epochs) => {
                epochs.iter().map(Dataset::num_users).max().unwrap_or(0)
            }
        }
    }

    /// The name of the published data (the first epoch's name for epoch
    /// views).
    pub fn name(&self) -> &'a str {
        match self {
            PublishedView::Dataset(ds) => &ds.name,
            PublishedView::Epochs(epochs) => {
                epochs.first().map(|ds| ds.name.as_str()).unwrap_or("")
            }
        }
    }
}

/// An adversary behind the common attack contract.
///
/// The trait is object-safe: harnesses hold `Vec<Box<dyn Attack>>` and run
/// every adversary through the same loop. `original` is the ground truth
/// the adversary's knowledge is drawn from; `published` is what was
/// released.
pub trait Attack {
    /// Stable attack identifier (`"multi-point"`, `"top-location"`,
    /// `"cross-epoch"`); also the `attack` field of the report.
    fn name(&self) -> &'static str;

    /// Runs the adversary, returning its report.
    ///
    /// # Errors
    /// [`GloveError::InvalidConfig`] when the attack cannot consume the
    /// supplied view (e.g. the cross-epoch adversary needs epochs).
    fn run(
        &self,
        original: &Dataset,
        published: &PublishedView<'_>,
    ) -> Result<AttackReport, GloveError>;
}

/// Success of one attack restricted to a ground-truth cohort (e.g. the
/// long-tail users a scenario labels), for per-cohort risk reporting.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CohortBreakdown {
    /// Cohort label (e.g. `"night-shift"`, `"long-tail"`).
    pub cohort: String,
    /// Attempts scored against cohort members.
    pub trials: usize,
    /// Adversary success rate on those attempts, in `[0, 1]`.
    pub success_rate: f64,
}

json_struct!(CohortBreakdown {
    cohort,
    trials,
    success_rate,
});

/// The serializable result of one attack run — the adversary-side
/// counterpart of [`RunReport`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AttackReport {
    /// Attack identifier (matches [`Attack::name`]).
    pub attack: String,
    /// Name of the published data the attack linked against.
    pub dataset: String,
    /// Subscribers in one release of the published view.
    pub population: usize,
    /// Linkage attempts scored (trials for sampled attacks, targets for
    /// exhaustive ones).
    pub trials: usize,
    /// Primary adversary success rate in `[0, 1]` (pinpoint rate for
    /// point-knowledge attacks, top-1 linkage rate for classifiers).
    pub success_rate: f64,
    /// Mean anonymity-set size across attempts (0 when not applicable).
    pub mean_anonymity: f64,
    /// Smallest anonymity set observed (0 when not applicable).
    pub min_anonymity: usize,
    /// Ordered attack-specific metrics (name, value).
    pub metrics: Vec<(String, f64)>,
    /// Optional per-cohort success breakdown (empty when the harness
    /// tracked no cohorts; reports without the field parse as empty).
    pub cohorts: Vec<CohortBreakdown>,
}

impl AttackReport {
    /// Looks up an attack-specific metric by name.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Looks up a cohort breakdown by label.
    pub fn cohort(&self, label: &str) -> Option<&CohortBreakdown> {
        self.cohorts.iter().find(|c| c.cohort == label)
    }

    /// The report with `cohorts` attached (builder-style).
    #[must_use]
    pub fn with_cohorts(mut self, cohorts: Vec<CohortBreakdown>) -> Self {
        self.cohorts = cohorts;
        self
    }

    /// The report as a [`RunDetail`] section, ready to embed in a
    /// [`RunReport`].
    pub fn to_run_detail(&self) -> RunDetail {
        RunDetail::External {
            engine: format!("glove-attack:{}", self.attack),
            data: self.to_value(),
        }
    }

    /// Parses a report back out of a [`RunDetail`] produced by
    /// [`AttackReport::to_run_detail`].
    pub fn from_run_detail(detail: &RunDetail) -> Result<AttackReport, String> {
        match detail {
            RunDetail::External { engine, data } if engine.starts_with("glove-attack:") => {
                Self::from_value(data)
            }
            _ => Err("detail section does not hold an attack report".into()),
        }
    }

    /// Wraps the attack result in a full [`RunReport`] (engine
    /// `"glove-attack"`), so attack runs travel through the exact same
    /// JSONL artifacts, sinks and tooling as anonymization runs. Counters
    /// that only anonymization produces stay zero.
    pub fn to_run_report(&self) -> RunReport {
        RunReport {
            engine: "glove-attack".to_string(),
            dataset: self.dataset.clone(),
            users_in: self.population,
            detail: self.to_run_detail(),
            ..RunReport::default()
        }
    }
}

/// `metrics` travels as an array of `{"name", "value"}` objects.
impl Json for AttackReport {
    fn to_value(&self) -> JsonValue {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value)| {
                JsonValue::obj(vec![("name", name.to_value()), ("value", value.to_value())])
            })
            .collect();
        JsonValue::obj(vec![
            ("attack", self.attack.to_value()),
            ("dataset", self.dataset.to_value()),
            ("population", self.population.to_value()),
            ("trials", self.trials.to_value()),
            ("success_rate", self.success_rate.to_value()),
            ("mean_anonymity", self.mean_anonymity.to_value()),
            ("min_anonymity", self.min_anonymity.to_value()),
            ("metrics", JsonValue::Arr(metrics)),
            ("cohorts", self.cohorts.to_value()),
        ])
    }

    fn from_value(v: &JsonValue) -> Result<Self, String> {
        let metrics: Vec<JsonValue> = field(v, "metrics")?;
        Ok(AttackReport {
            attack: field(v, "attack")?,
            dataset: field(v, "dataset")?,
            population: field(v, "population")?,
            trials: field(v, "trials")?,
            success_rate: field(v, "success_rate")?,
            mean_anonymity: field(v, "mean_anonymity")?,
            min_anonymity: field(v, "min_anonymity")?,
            metrics: metrics
                .iter()
                .map(|m| Ok((field(m, "name")?, field(m, "value")?)))
                .collect::<Result<_, String>>()?,
            // Lenient on purpose: reports written before the cohort
            // breakdown existed carry no "cohorts" key and parse as empty.
            cohorts: field_or(v, "cohorts", Vec::new())?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glove_core::Sample;

    fn sample_report() -> AttackReport {
        AttackReport {
            attack: "multi-point".into(),
            dataset: "metro-like".into(),
            population: 600,
            trials: 200,
            success_rate: 0.125,
            mean_anonymity: 3.5,
            min_anonymity: 2,
            metrics: vec![
                ("points".into(), 3.0),
                ("linked_rate".into(), 0.0625),
                ("noise_space_m".into(), 0.0),
            ],
            cohorts: vec![
                CohortBreakdown {
                    cohort: "night-shift".into(),
                    trials: 24,
                    success_rate: 0.25,
                },
                CohortBreakdown {
                    cohort: "long-tail".into(),
                    trials: 40,
                    success_rate: 0.2,
                },
            ],
        }
    }

    #[test]
    fn attack_report_round_trips_through_json() {
        let report = sample_report();
        let parsed = AttackReport::from_value(&report.to_value()).unwrap();
        assert_eq!(parsed, report);
        assert_eq!(
            report.to_value().render(),
            concat!(
                r#"{"attack":"multi-point","dataset":"metro-like","population":600,"#,
                r#""trials":200,"success_rate":0.125,"mean_anonymity":3.5,"#,
                r#""min_anonymity":2,"metrics":[{"name":"points","value":3},"#,
                r#"{"name":"linked_rate","value":0.0625},"#,
                r#"{"name":"noise_space_m","value":0}],"#,
                r#""cohorts":[{"cohort":"night-shift","trials":24,"success_rate":0.25},"#,
                r#"{"cohort":"long-tail","trials":40,"success_rate":0.2}]}"#,
            )
        );
        assert_eq!(report.metric("points"), Some(3.0));
        assert_eq!(report.metric("missing"), None);
        assert_eq!(report.cohort("night-shift").map(|c| c.trials), Some(24));
        assert_eq!(report.cohort("typical"), None);

        // Counts take the exact integer path: 2^53 + 1 has no f64.
        let big = AttackReport {
            trials: (1 << 53) + 1,
            ..report
        };
        assert_eq!(AttackReport::from_value(&big.to_value()).unwrap(), big);
    }

    #[test]
    fn reports_without_a_cohorts_field_parse_as_empty() {
        // Pre-breakdown artifacts stay readable.
        let mut report = sample_report();
        report.cohorts.clear();
        let json = report.to_value().render();
        let legacy = JsonValue::parse(&json.replace(",\"cohorts\":[]", "")).unwrap();
        assert!(legacy.get("cohorts").is_none(), "field really removed");
        let parsed = AttackReport::from_value(&legacy).unwrap();
        assert_eq!(parsed, report);

        // A present-but-mangled breakdown is an error, not silently empty.
        let mangled =
            JsonValue::parse(&json.replace("\"cohorts\":[]", "\"cohorts\":[{\"trials\":1}]"))
                .unwrap();
        assert!(AttackReport::from_value(&mangled).is_err());
    }

    #[test]
    fn attack_report_round_trips_through_run_report_byte_identically() {
        let report = sample_report();
        let run = report.to_run_report();
        let json = run.to_json();
        let parsed = RunReport::from_json(&json).unwrap();
        assert_eq!(parsed, run);
        assert_eq!(parsed.to_json(), json, "render must be byte-stable");
        let back = AttackReport::from_run_detail(&parsed.detail).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn from_value_rejects_mangled_reports() {
        let json = sample_report().to_value().render();
        let mangled = JsonValue::parse(&json.replace("\"attack\"", "\"vector\"")).unwrap();
        assert!(AttackReport::from_value(&mangled).is_err());
        assert!(AttackReport::from_run_detail(&RunDetail::None).is_err());
    }

    #[test]
    fn published_view_flattens_epochs() {
        let a = Dataset::new(
            "e0",
            vec![Fingerprint::new(0, vec![Sample::point(0, 0, 1)]).unwrap()],
        )
        .unwrap();
        let b = Dataset::new(
            "e1",
            vec![
                Fingerprint::new(0, vec![Sample::point(0, 0, 70)]).unwrap(),
                Fingerprint::new(1, vec![Sample::point(100, 0, 75)]).unwrap(),
            ],
        )
        .unwrap();
        let epochs = [a.clone(), b];
        let view = PublishedView::Epochs(&epochs);
        assert_eq!(view.records().count(), 3);
        assert_eq!(view.population(), 2, "largest epoch, not the sum");
        assert_eq!(view.name(), "e0");
        let single = PublishedView::Dataset(&a);
        assert_eq!(single.records().count(), 1);
        assert_eq!(single.population(), 1);
    }
}
