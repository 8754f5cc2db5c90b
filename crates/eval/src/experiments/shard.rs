//! Shard-vs-monolithic comparison: the §6.3 batching idea quantified.
//!
//! Runs GLOVE on the same dataset monolithically and sharded (activity and
//! spatial partitioners at several shard counts) and reports, per
//! configuration:
//!
//! * wall-clock time and speedup over the monolithic run;
//! * k-anonymity retention — the minimum multiplicity across published
//!   fingerprints (must stay ≥ k) and the fraction of subscribers retained;
//! * the accuracy price of forfeiting cross-shard merges (mean published
//!   position/time accuracy vs the monolithic output).

use crate::context::EvalContext;
use crate::report::{fmt, pct, Report};
use glove_core::accuracy::{mean_position_accuracy_m, mean_time_accuracy_min};
use glove_core::api::RunBuilder;
use glove_core::{GloveConfig, ShardBy, ShardPolicy};
use std::time::Instant;

/// One measured configuration.
struct Row {
    label: String,
    elapsed_s: f64,
    pairs: u64,
    pruned: u64,
    skipped_tier0: u64,
    skipped_tier1: u64,
    abandoned: u64,
    merges: u64,
    min_multiplicity: usize,
    users_retained: f64,
    pos_acc_m: f64,
    time_acc_min: f64,
    peak_arena_bytes: u64,
    peak_store_bytes: u64,
    peak_rss_bytes: u64,
}

impl Row {
    /// One serialized row; the stdout table shows `users_retained` as a
    /// percentage and memory in MiB, the CSV plain fractions and raw bytes.
    fn cells(&self, mono_s: f64, retained_as_pct: bool) -> Vec<String> {
        let mib = |b: u64| fmt(b as f64 / (1 << 20) as f64);
        let mut cells = vec![
            self.label.clone(),
            fmt(self.elapsed_s),
            fmt(mono_s / self.elapsed_s.max(1e-9)),
            self.pairs.to_string(),
            self.pruned.to_string(),
            self.skipped_tier0.to_string(),
            self.skipped_tier1.to_string(),
            self.abandoned.to_string(),
            self.merges.to_string(),
            self.min_multiplicity.to_string(),
            if retained_as_pct {
                pct(self.users_retained)
            } else {
                fmt(self.users_retained)
            },
            fmt(self.pos_acc_m),
            fmt(self.time_acc_min),
        ];
        if retained_as_pct {
            cells.extend([mib(self.peak_arena_bytes), mib(self.peak_rss_bytes)]);
        } else {
            cells.extend([
                self.peak_arena_bytes.to_string(),
                self.peak_store_bytes.to_string(),
                self.peak_rss_bytes.to_string(),
            ]);
        }
        cells
    }
}

fn run_one(
    ds: &glove_core::Dataset,
    k: usize,
    threads: usize,
    shard: Option<ShardPolicy>,
    label: &str,
) -> Row {
    let config = GloveConfig {
        k,
        threads,
        ..GloveConfig::default()
    };
    // One builder path serves both modes; `new` defaults to batch and
    // `sharded` overrides it.
    let builder = match shard {
        Some(policy) => RunBuilder::new(config).sharded(policy),
        None => RunBuilder::new(config).batch(),
    };
    let started = Instant::now();
    let outcome = builder.run(ds).expect("anonymization succeeds");
    let elapsed_s = started.elapsed().as_secs_f64();
    let published = outcome.output.dataset().expect("single-release engine");
    let ledger = outcome
        .report
        .detail
        .as_glove()
        .expect("glove detail")
        .ledger;
    Row {
        label: label.to_string(),
        elapsed_s,
        pairs: outcome.report.pairs_computed,
        pruned: outcome.report.pairs_pruned,
        skipped_tier0: outcome.report.pairs_skipped_tier0,
        skipped_tier1: outcome.report.pairs_skipped_tier1,
        abandoned: outcome.report.pairs_abandoned,
        merges: outcome.report.merges,
        min_multiplicity: published
            .fingerprints
            .iter()
            .map(|f| f.multiplicity())
            .min()
            .unwrap_or(0),
        users_retained: outcome.report.users_out as f64 / ds.num_users() as f64,
        pos_acc_m: mean_position_accuracy_m(published),
        time_acc_min: mean_time_accuracy_min(published),
        peak_arena_bytes: ledger.peak_arena_bytes,
        peak_store_bytes: ledger.peak_store_bytes,
        peak_rss_bytes: ledger.peak_rss_bytes,
    }
}

/// The `shard` experiment entry point.
pub fn shard(ctx: &mut EvalContext) -> Report {
    let mut report = Report::new(
        "shard",
        "sharded vs monolithic GLOVE (batching idea of paper §6.3)",
    );
    let k = 2;
    let threads = ctx.cfg.threads;
    let ds = ctx.civ().dataset.clone();
    let shard_counts = [2usize, 4];

    let mut rows = vec![run_one(&ds, k, threads, None, "monolithic")];
    for &s in &shard_counts {
        for by in [ShardBy::Activity, ShardBy::Spatial, ShardBy::TwoLevel] {
            rows.push(run_one(
                &ds,
                k,
                threads,
                Some(ShardPolicy { shards: s, by }),
                &format!("{}x{s}", by.as_str()),
            ));
        }
    }

    let mono_s = rows[0].elapsed_s;
    let table: Vec<Vec<String>> = rows.iter().map(|r| r.cells(mono_s, true)).collect();
    report.table(
        &[
            "mode",
            "wall [s]",
            "speedup",
            "pairs",
            "pruned",
            "tier0",
            "tier1",
            "abandoned",
            "merges",
            "min mult",
            "users kept",
            "pos acc [m]",
            "time acc [min]",
            "arena [MiB]",
            "rss [MiB]",
        ],
        &table,
    );
    report.line("");
    report.line(format!(
        "k-anonymity retention: every mode must show min mult >= {k} and 100% users kept \
         (default residual policy)."
    ));
    report.line(
        "Speedup comes from the shards-fold smaller pair matrices; the accuracy \
         columns price the forfeited cross-shard merges.",
    );
    for r in &rows {
        assert!(
            r.min_multiplicity >= k,
            "{}: published fingerprint below k",
            r.label
        );
    }

    report.csv(
        &ctx.cfg.out_dir,
        "shard_vs_monolithic.csv",
        &[
            "mode",
            "wall_s",
            "speedup",
            "pairs",
            "pruned",
            "pairs_skipped_tier0",
            "pairs_skipped_tier1",
            "pairs_abandoned",
            "merges",
            "min_multiplicity",
            "users_retained",
            "pos_acc_m",
            "time_acc_min",
            "peak_arena_bytes",
            "peak_store_bytes",
            "peak_rss_bytes",
        ],
        &rows
            .iter()
            .map(|r| r.cells(mono_s, false))
            .collect::<Vec<_>>(),
    );
    report
}
