//! Adapters plugging the baselines into the unified run API
//! ([`glove_core::api`]), so evaluation harnesses compare every defense —
//! GLOVE's engines and the paper's comparators — through one
//! [`Anonymizer`] trait with one [`RunReport`] shape.
//!
//! The adapters add no algorithmic behavior: [`UniformAnonymizer`] wraps
//! [`crate::generalize_uniform`] and [`W4mAnonymizer`] wraps
//! [`crate::w4m_lc`] verbatim (equivalence is enforced by
//! `crates/baselines/tests/baseline_properties.rs`). What they add is the
//! contract: `prepare` turns the legacy panics into proper
//! [`GloveError`]s, `run` emits the standard observer phases, and the
//! engine-specific statistics land in the report's
//! [`RunDetail::External`] section as JSON.

use crate::uniform::{generalize_uniform, GeneralizationLevel};
use crate::w4m::{w4m_lc, W4mConfig};
use glove_core::api::json::{Json, JsonValue};
use glove_core::api::{
    phase, Anonymizer, Observer, PhaseMetric, RunDetail, RunOutcome, RunOutput, RunReport,
};
use glove_core::{Dataset, GloveError};
use std::time::Instant;

/// Uniform spatiotemporal generalization (§5.2) behind the run API.
///
/// The baseline has no anonymity parameter `k` — it coarsens
/// unconditionally — so its reports carry `k = 0` and all merge/pair
/// counters stay zero. The external detail section records the level.
#[derive(Debug, Clone, Copy)]
pub struct UniformAnonymizer {
    /// The generalization level to apply.
    pub level: GeneralizationLevel,
}

impl UniformAnonymizer {
    /// An adapter for `level`.
    pub fn new(level: GeneralizationLevel) -> Self {
        Self { level }
    }
}

impl Anonymizer for UniformAnonymizer {
    fn engine(&self) -> &'static str {
        "uniform"
    }

    fn prepare(&self, dataset: &Dataset) -> Result<(), GloveError> {
        if dataset.fingerprints.is_empty() {
            return Err(GloveError::InvalidDataset(
                "cannot generalize an empty dataset".into(),
            ));
        }
        if self.level.space_m == 0 || self.level.time_min == 0 {
            return Err(GloveError::InvalidConfig(
                "generalization level must be at least 1 m / 1 min".into(),
            ));
        }
        Ok(())
    }

    fn run(
        &self,
        dataset: &Dataset,
        observer: &mut dyn Observer,
    ) -> Result<RunOutcome, GloveError> {
        let engine = self.engine();
        let started = Instant::now();
        let mut phases = Vec::new();

        let ((), prep_s) = phase(engine, "prepare", observer, |_| self.prepare(dataset))?;
        phases.push(PhaseMetric {
            phase: "prepare".into(),
            elapsed_s: prep_s,
        });
        let (output, run_s) = phase(engine, "run", observer, |_| {
            Ok(generalize_uniform(dataset, &self.level))
        })?;
        phases.push(PhaseMetric {
            phase: "run".into(),
            elapsed_s: run_s,
        });
        observer.on_progress(0, 0, 0);

        // Coarsening dedups samples that became identical; the delta is the
        // baseline's only "suppression"-like effect.
        let deleted = dataset.num_samples().saturating_sub(output.num_samples()) as u64;
        let report = RunReport {
            engine: engine.to_string(),
            dataset: dataset.name.clone(),
            k: 0,
            fingerprints_in: dataset.fingerprints.len(),
            users_in: dataset.num_users(),
            samples_in: dataset.num_samples(),
            fingerprints_out: output.fingerprints.len(),
            users_out: output.num_users(),
            samples_out: output.num_samples(),
            deleted_samples: deleted,
            elapsed_s: started.elapsed().as_secs_f64(),
            phases,
            detail: RunDetail::External {
                engine: engine.to_string(),
                data: JsonValue::obj(vec![
                    ("space_m", self.level.space_m.to_value()),
                    ("time_min", self.level.time_min.to_value()),
                    ("label", self.level.label().to_value()),
                ]),
            },
            ..RunReport::default()
        };
        observer.on_report(&report);
        Ok(RunOutcome {
            output: RunOutput::Dataset(output),
            report,
        })
    }
}

/// W4M-LC (§7.2, Table 2) behind the run API.
///
/// Unlike the raw [`w4m_lc`] function — which panics on `k < 2` or merged
/// input — the adapter's [`Anonymizer::prepare`] reports those conditions
/// as [`GloveError`]s, so a harness can probe applicability before paying
/// for a run.
#[derive(Debug, Clone, Copy)]
pub struct W4mAnonymizer {
    /// The W4M-LC configuration.
    pub config: W4mConfig,
}

impl W4mAnonymizer {
    /// An adapter for `config`.
    pub fn new(config: W4mConfig) -> Self {
        Self { config }
    }
}

impl Anonymizer for W4mAnonymizer {
    fn engine(&self) -> &'static str {
        "w4m-lc"
    }

    fn prepare(&self, dataset: &Dataset) -> Result<(), GloveError> {
        if self.config.k < 2 {
            return Err(GloveError::InvalidConfig(
                "W4M requires k >= 2 (k = 1 is the identity transformation)".into(),
            ));
        }
        if !(self.config.delta_m.is_finite() && self.config.delta_m > 0.0) {
            return Err(GloveError::InvalidConfig(
                "W4M cylinder diameter must be positive and finite".into(),
            ));
        }
        if !(0.0..=1.0).contains(&self.config.trash_fraction) {
            return Err(GloveError::InvalidConfig(
                "W4M trash fraction must lie in [0, 1]".into(),
            ));
        }
        if dataset.fingerprints.is_empty() {
            return Err(GloveError::InvalidDataset(
                "cannot anonymize an empty dataset".into(),
            ));
        }
        if dataset.fingerprints.iter().any(|f| f.multiplicity() != 1) {
            return Err(GloveError::InvalidDataset(
                "W4M operates on single-subscriber trajectories; input holds merged \
                 fingerprints"
                    .into(),
            ));
        }
        Ok(())
    }

    fn run(
        &self,
        dataset: &Dataset,
        observer: &mut dyn Observer,
    ) -> Result<RunOutcome, GloveError> {
        let engine = self.engine();
        let started = Instant::now();
        let mut phases = Vec::new();

        let ((), prep_s) = phase(engine, "prepare", observer, |_| self.prepare(dataset))?;
        phases.push(PhaseMetric {
            phase: "prepare".into(),
            elapsed_s: prep_s,
        });
        let (output, run_s) = phase(engine, "run", observer, |_| {
            Ok(w4m_lc(dataset, &self.config))
        })?;
        phases.push(PhaseMetric {
            phase: "run".into(),
            elapsed_s: run_s,
        });
        observer.on_progress(0, 0, 0);

        let stats = &output.stats;
        let report = RunReport {
            engine: engine.to_string(),
            dataset: dataset.name.clone(),
            k: self.config.k,
            fingerprints_in: dataset.fingerprints.len(),
            users_in: dataset.num_users(),
            samples_in: dataset.num_samples(),
            fingerprints_out: output.dataset.fingerprints.len(),
            users_out: output.dataset.num_users(),
            samples_out: output.dataset.num_samples(),
            created_samples: stats.created_samples,
            deleted_samples: stats.deleted_samples,
            discarded_fingerprints: stats.discarded_fingerprints,
            discarded_users: stats.discarded_fingerprints,
            elapsed_s: started.elapsed().as_secs_f64(),
            phases,
            detail: RunDetail::External {
                engine: engine.to_string(),
                data: stats.to_value(),
            },
            ..RunReport::default()
        };
        observer.on_report(&report);
        Ok(RunOutcome {
            output: RunOutput::Dataset(output.dataset),
            report,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glove_core::api::NullObserver;
    use glove_core::Fingerprint;

    fn traj_dataset(n: usize) -> Dataset {
        let fps = (0..n)
            .map(|u| {
                let pts: Vec<(i64, i64, u32)> = (0..12)
                    .map(|i| ((u as i64 % 4) * 500 + 400 * i, 0, 10 * i as u32))
                    .collect();
                Fingerprint::from_points(u as u32, &pts).unwrap()
            })
            .collect();
        Dataset::new("traj", fps).unwrap()
    }

    #[test]
    fn uniform_adapter_matches_direct_call() {
        let ds = traj_dataset(6);
        let level = GeneralizationLevel {
            space_m: 1_000,
            time_min: 30,
        };
        let direct = generalize_uniform(&ds, &level);
        let outcome = UniformAnonymizer::new(level)
            .run(&ds, &mut NullObserver)
            .unwrap();
        assert_eq!(outcome.report.engine, "uniform");
        assert_eq!(outcome.report.k, 0);
        let published = outcome.expect_dataset();
        assert_eq!(published.name, direct.name);
        assert_eq!(published.fingerprints, direct.fingerprints);
    }

    #[test]
    fn w4m_adapter_matches_direct_call() {
        let ds = traj_dataset(8);
        let cfg = W4mConfig {
            trash_fraction: 0.0,
            ..W4mConfig::default()
        };
        let direct = w4m_lc(&ds, &cfg);
        let outcome = W4mAnonymizer::new(cfg).run(&ds, &mut NullObserver).unwrap();
        assert_eq!(outcome.report.engine, "w4m-lc");
        assert_eq!(outcome.report.created_samples, direct.stats.created_samples);
        assert_eq!(outcome.report.deleted_samples, direct.stats.deleted_samples);
        let published = outcome.expect_dataset();
        assert_eq!(published.fingerprints, direct.dataset.fingerprints);
    }

    #[test]
    fn w4m_prepare_reports_errors_instead_of_panicking() {
        let ds = traj_dataset(4);
        let bad_k = W4mAnonymizer::new(W4mConfig {
            k: 1,
            ..W4mConfig::default()
        });
        assert!(matches!(
            bad_k.prepare(&ds),
            Err(GloveError::InvalidConfig(_))
        ));

        let merged = Dataset::new(
            "merged",
            vec![
                Fingerprint::with_users(vec![0, 1], vec![glove_core::Sample::point(0, 0, 5)])
                    .unwrap(),
            ],
        )
        .unwrap();
        assert!(matches!(
            W4mAnonymizer::new(W4mConfig::default()).prepare(&merged),
            Err(GloveError::InvalidDataset(_))
        ));
    }

    #[test]
    fn external_detail_is_readable_and_round_trips() {
        let ds = traj_dataset(8);
        let outcome = W4mAnonymizer::new(W4mConfig {
            trash_fraction: 0.0,
            ..W4mConfig::default()
        })
        .run(&ds, &mut NullObserver)
        .unwrap();
        let parsed = RunReport::from_json(&outcome.report.to_json()).unwrap();
        assert_eq!(parsed, outcome.report);
        let detail = parsed.detail.as_external().expect("external detail");
        assert_eq!(
            detail.render(),
            concat!(
                r#"{"discarded_fingerprints":0,"created_samples":0,"deleted_samples":0,"#,
                r#""published_samples":96,"mean_position_error_m":0,"#,
                r#""mean_time_error_min":0}"#,
            )
        );
        assert!(detail
            .get("mean_position_error_m")
            .and_then(JsonValue::as_f64)
            .is_some());
    }
}
