//! The single-release anonymization verbs — `glove anonymize` (GLOVE,
//! monolithic or sharded), `glove generalize` (uniform baseline) and
//! `glove w4m` (W4M-LC baseline). Each runs one engine behind the
//! [`Anonymizer`] trait — GLOVE's from [`RunBuilder`], the baselines'
//! adapters directly — and reads its printed summary off the unified
//! [`glove_core::api::RunReport`].

use crate::io;
use glove_baselines::{GeneralizationLevel, UniformAnonymizer, W4mAnonymizer, W4mConfig, W4mStats};
use glove_core::accuracy::{mean_position_accuracy_m, mean_time_accuracy_min};
use glove_core::api::json::Json;
use glove_core::api::{Anonymizer, NullObserver, RunBuilder};
use glove_core::{GloveConfig, ResidualPolicy, ShardBy, ShardPolicy, SuppressionThresholds};
use std::error::Error;
use std::path::Path;

/// Options of `glove anonymize`.
#[derive(Debug, Clone)]
pub struct AnonymizeOpts {
    /// Anonymity level.
    pub k: usize,
    /// Optional spatial suppression threshold, meters.
    pub suppress_space_m: Option<u32>,
    /// Optional temporal suppression threshold, minutes.
    pub suppress_time_min: Option<u32>,
    /// Residual policy (`merge` or `suppress`).
    pub residual: ResidualPolicy,
    /// Worker threads (0 = all cores).
    pub threads: usize,
    /// Optional shard count; `None` runs monolithically.
    pub shards: Option<usize>,
    /// Shard assignment key (only meaningful with `shards`).
    pub shard_by: ShardBy,
}

impl AnonymizeOpts {
    /// The GLOVE configuration these options describe. The builder shards
    /// the run when the embedded shard policy names more than one shard.
    pub fn to_config(&self) -> GloveConfig {
        GloveConfig {
            k: self.k,
            suppression: SuppressionThresholds {
                max_space_m: self.suppress_space_m,
                max_time_min: self.suppress_time_min,
            },
            residual: self.residual,
            threads: self.threads,
            shard: self.shards.map(|shards| ShardPolicy {
                shards,
                by: self.shard_by,
            }),
            ..GloveConfig::default()
        }
    }
}

/// `glove anonymize`: run GLOVE through the builder and write the
/// anonymized dataset.
pub fn anonymize_cmd(
    input: &Path,
    out: &Path,
    opts: &AnonymizeOpts,
) -> Result<String, Box<dyn Error>> {
    let ds = io::read_file(input)?;
    let outcome = RunBuilder::new(opts.to_config()).run(&ds)?;
    let published = outcome.output.dataset().expect("single-release engine");
    io::write_file(published, out)?;

    let r = &outcome.report;
    let stats = outcome.report.detail.as_glove().expect("glove detail");
    let candidates = r.pairs_computed + r.pairs_pruned;
    let pct = |n: u64| {
        if candidates > 0 {
            n as f64 / candidates as f64 * 100.0
        } else {
            0.0
        }
    };
    let mut msg = format!(
        "wrote {}: {} groups covering {} subscribers (k = {})\n\
         merges: {}, elapsed {:.1} s\n\
         pairs: {} computed + {} pruned of {} candidates ({:.1}% skipped by the \
         admissible bound), {:.0} pairs/s\n\
         cascade: {:.1}% tier-0 signature, {:.1}% tier-1 hull, {:.1}% abandoned, \
         {:.1}% exact\n\
         suppressed samples: {} ({} user-samples), reshaped: {}\n\
         discarded fingerprints: {} ({} subscribers)\n\
         memory: {:.1} MiB arena peak, {:.1} MiB sample peak, \
         {:.1} MiB process peak-RSS\n\
         mean accuracy: {:.0} m position, {:.0} min time",
        out.display(),
        r.fingerprints_out,
        r.users_out,
        r.k,
        r.merges,
        stats.elapsed_s,
        r.pairs_computed,
        r.pairs_pruned,
        candidates,
        r.pruned_fraction() * 100.0,
        stats.pairs_per_second(),
        pct(r.pairs_skipped_tier0),
        pct(r.pairs_skipped_tier1),
        pct(r.pairs_abandoned),
        pct(r.pairs_computed),
        r.suppressed_samples,
        r.suppressed_user_samples,
        stats.reshaped_samples,
        r.discarded_fingerprints,
        r.discarded_users,
        stats.ledger.peak_arena_bytes as f64 / (1 << 20) as f64,
        stats.ledger.peak_store_bytes as f64 / (1 << 20) as f64,
        stats.ledger.peak_rss_bytes as f64 / (1 << 20) as f64,
        mean_position_accuracy_m(published),
        mean_time_accuracy_min(published),
    );
    if !stats.per_shard.is_empty() {
        msg.push_str(&format!(
            "\nshards: {} ({})",
            stats.per_shard.len(),
            opts.shard_by.as_str()
        ));
        for sh in &stats.per_shard {
            msg.push_str(&format!(
                "\n  shard {}: {} fps ({} users) -> {} groups, {} merges, {} pairs \
                 (t0 {} / t1 {} / ab {}), {:.2} s",
                sh.shard,
                sh.fingerprints_in,
                sh.users_in,
                sh.fingerprints_out,
                sh.merges,
                sh.pairs_computed,
                sh.pairs_skipped_tier0,
                sh.pairs_skipped_tier1,
                sh.pairs_abandoned,
                sh.elapsed_s,
            ));
        }
    }
    Ok(msg)
}

/// `glove generalize`: the uniform spatiotemporal generalization baseline,
/// through its run-API adapter.
pub fn generalize_cmd(
    input: &Path,
    out: &Path,
    space_m: u32,
    time_min: u32,
) -> Result<String, Box<dyn Error>> {
    let ds = io::read_file(input)?;
    let level = GeneralizationLevel { space_m, time_min };
    let outcome = UniformAnonymizer::new(level).run(&ds, &mut NullObserver)?;
    let r = &outcome.report;
    let (samples_in, samples_out) = (r.samples_in, r.samples_out);
    io::write_file(outcome.output.dataset().expect("single-release"), out)?;
    Ok(format!(
        "wrote {}: uniform generalization at {} m / {} min ({} samples -> {})",
        out.display(),
        space_m,
        time_min,
        samples_in,
        samples_out,
    ))
}

/// `glove w4m`: the W4M-LC baseline, through its run-API adapter.
pub fn w4m_cmd(input: &Path, out: &Path, k: usize, delta_m: f64) -> Result<String, Box<dyn Error>> {
    let ds = io::read_file(input)?;
    let outcome = W4mAnonymizer::new(W4mConfig {
        k,
        delta_m,
        ..W4mConfig::default()
    })
    .run(&ds, &mut NullObserver)?;
    let r = &outcome.report;
    let detail = W4mStats::from_value(r.detail.as_external().expect("w4m external detail"))?;
    let msg = format!(
        "wrote {}: W4M-LC k = {k}, delta = {delta_m} m\n\
         discarded fingerprints: {}, created samples: {}, deleted samples: {}\n\
         mean position error: {:.0} m, mean time error: {:.0} min",
        out.display(),
        r.discarded_fingerprints,
        r.created_samples,
        r.deleted_samples,
        detail.mean_position_error_m,
        detail.mean_time_error_min,
    );
    io::write_file(outcome.output.dataset().expect("single-release"), out)?;
    Ok(msg)
}

#[cfg(test)]
mod tests {
    use super::super::test_util::temp;
    use super::super::{audit, info, synth};
    use super::*;

    fn default_opts() -> AnonymizeOpts {
        AnonymizeOpts {
            k: 2,
            suppress_space_m: None,
            suppress_time_min: None,
            residual: ResidualPolicy::MergeIntoNearest,
            threads: 1,
            shards: None,
            shard_by: ShardBy::Activity,
        }
    }

    #[test]
    fn synth_info_audit_anonymize_pipeline() {
        let data = temp("pipeline-data");
        let anon = temp("pipeline-anon");

        let msg = synth("civ", 20, Some(7), Some(&data), None).unwrap();
        assert!(msg.contains("20 users"));

        let msg = info(&data).unwrap();
        assert!(msg.contains("subscribers:   20"));
        assert!(msg.contains("k-anonymity:   1"));

        let msg = audit(&data, 2, 1).unwrap();
        assert!(msg.contains("already k-anonymous: 0.0%"));

        let msg = anonymize_cmd(&data, &anon, &default_opts()).unwrap();
        assert!(msg.contains("20 subscribers"));

        let anonymized = io::read_file(&anon).unwrap();
        assert!(anonymized.is_k_anonymous(2));
        assert_eq!(anonymized.num_users(), 20);

        let _ = std::fs::remove_file(&data);
        let _ = std::fs::remove_file(&anon);
    }

    #[test]
    fn sharded_anonymize_reports_per_shard_stats() {
        let data = temp("shard-data");
        let anon = temp("shard-anon");
        synth("civ", 24, Some(11), Some(&data), None).unwrap();
        let opts = AnonymizeOpts {
            shards: Some(4),
            ..default_opts()
        };
        let msg = anonymize_cmd(&data, &anon, &opts).unwrap();
        assert!(msg.contains("shards: 4 (activity)"), "message: {msg}");
        assert!(msg.contains("shard 0:"), "message: {msg}");
        assert!(msg.contains("shard 3:"), "message: {msg}");
        let anonymized = io::read_file(&anon).unwrap();
        assert!(anonymized.is_k_anonymous(2));
        assert_eq!(anonymized.num_users(), 24);
        let _ = std::fs::remove_file(&data);
        let _ = std::fs::remove_file(&anon);
    }

    #[test]
    fn two_level_sharded_anonymize_reports_memory() {
        let data = temp("twolevel-data");
        let anon = temp("twolevel-anon");
        synth("civ", 24, Some(13), Some(&data), None).unwrap();
        let opts = AnonymizeOpts {
            shards: Some(4),
            shard_by: ShardBy::TwoLevel,
            ..default_opts()
        };
        let msg = anonymize_cmd(&data, &anon, &opts).unwrap();
        assert!(msg.contains("(two-level)"), "message: {msg}");
        assert!(msg.contains("MiB arena peak"), "message: {msg}");
        assert!(msg.contains("MiB process peak-RSS"), "message: {msg}");
        let anonymized = io::read_file(&anon).unwrap();
        assert!(anonymized.is_k_anonymous(2));
        assert_eq!(anonymized.num_users(), 24);
        let _ = std::fs::remove_file(&data);
        let _ = std::fs::remove_file(&anon);
    }

    #[test]
    fn generalize_and_w4m_baselines_run() {
        let data = temp("baseline-data");
        let gen = temp("baseline-gen");
        let w4m = temp("baseline-w4m");

        synth("sen", 12, Some(3), Some(&data), None).unwrap();
        let msg = generalize_cmd(&data, &gen, 5_000, 120).unwrap();
        assert!(msg.contains("5000 m / 120 min"));
        let generalized = io::read_file(&gen).unwrap();
        assert!(generalized
            .fingerprints
            .iter()
            .all(|f| f.samples().iter().all(|s| s.dx >= 5_000)));

        let msg = w4m_cmd(&data, &w4m, 2, 2_000.0).unwrap();
        assert!(msg.contains("W4M-LC k = 2"));
        assert!(io::read_file(&w4m).is_ok());

        let _ = std::fs::remove_file(&data);
        let _ = std::fs::remove_file(&gen);
        let _ = std::fs::remove_file(&w4m);
    }

    #[test]
    fn anonymize_surfaces_pruning_counters() {
        let data = temp("pruned-data");
        let anon = temp("pruned-anon");
        synth("civ", 16, Some(21), Some(&data), None).unwrap();
        let msg = anonymize_cmd(&data, &anon, &default_opts()).unwrap();
        assert!(msg.contains("computed +"), "message: {msg}");
        assert!(msg.contains("pruned of"), "message: {msg}");
        assert!(
            msg.contains("candidates") && msg.contains("% skipped"),
            "message: {msg}"
        );
        assert!(msg.contains("% tier-0 signature"), "message: {msg}");
        assert!(msg.contains("% tier-1 hull"), "message: {msg}");
        assert!(msg.contains("% abandoned"), "message: {msg}");
        let _ = std::fs::remove_file(&data);
        let _ = std::fs::remove_file(&anon);
    }
}
