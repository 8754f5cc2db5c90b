//! Ablations of GLOVE's design choices (DESIGN.md §5):
//!
//! * **pruning** in the Eq. 10 inner loop, which skips the blocks of the
//!   shorter fingerprint that cannot hold a sample's match (an
//!   implementation choice: must not change results, should change speed);
//! * **reshaping** (§6.2: costs spatial granularity, buys disjoint
//!   timelines);
//! * **population weighting** in Eqs. 4/7 (the paper's argument: weighting
//!   protects the accuracy of the many against the few);
//! * **residual policy** (merge-into-nearest vs suppress — our extension
//!   point where Alg. 1 is silent).

use crate::context::EvalContext;
use crate::report::{fmt, pct, Report};
use glove_core::accuracy::{mean_position_accuracy_m, mean_time_accuracy_min};
use glove_core::api::RunBuilder;
use glove_core::stretch::{fingerprint_stretch, fingerprint_stretch_naive};
use glove_core::{GloveConfig, ResidualPolicy, StretchConfig};
use std::time::Instant;

/// Runs all ablations on a civ-like dataset.
pub fn ablation(ctx: &mut EvalContext) -> Report {
    let mut report = Report::new("ablation", "design-choice ablations (DESIGN.md §5)");
    let ds = ctx.civ().dataset.clone();
    let threads = ctx.cfg.threads;
    let mut csv_rows = Vec::new();

    // --- Pruning: identical results, measured speedup ----------------------
    {
        let cfg = StretchConfig::default();
        let n = ds.fingerprints.len().min(80);
        let run = |f: &dyn Fn(usize, usize) -> f64| {
            let started = Instant::now();
            let mut acc = 0.0;
            for i in 0..n {
                for j in 0..i {
                    acc += f(i, j);
                }
            }
            (acc, started.elapsed().as_secs_f64())
        };
        let (sum_pruned, t_pruned) =
            run(&|i, j| fingerprint_stretch(&ds.fingerprints[i], &ds.fingerprints[j], &cfg));
        let (sum_naive, t_naive) =
            run(&|i, j| fingerprint_stretch_naive(&ds.fingerprints[i], &ds.fingerprints[j], &cfg));
        assert!(
            (sum_pruned - sum_naive).abs() < 1e-9,
            "pruning changed results"
        );
        report.line(format!(
            "pruning: identical results; {} s pruned vs {} s naive (speedup x{})",
            fmt(t_pruned),
            fmt(t_naive),
            fmt(t_naive / t_pruned.max(1e-9))
        ));
        csv_rows.push(vec![
            "pruning_speedup".into(),
            fmt(t_naive / t_pruned.max(1e-9)),
            String::new(),
        ]);
    }
    report.line("");

    // --- Reshaping, weighting, residual policy: four GLOVE variants --------
    let variants: Vec<(&str, GloveConfig)> = vec![
        (
            "baseline",
            GloveConfig {
                threads,
                ..GloveConfig::default()
            },
        ),
        (
            "no-reshape",
            GloveConfig {
                reshape: false,
                threads,
                ..GloveConfig::default()
            },
        ),
        (
            "no-weighting",
            GloveConfig {
                stretch: StretchConfig {
                    population_weighting: false,
                    ..StretchConfig::default()
                },
                threads,
                ..GloveConfig::default()
            },
        ),
        // The residual policies only differ when |M| mod k != 0, which never
        // happens for k = 2 on an even population — compare them at k = 3.
        (
            "residual-merge-k3",
            GloveConfig {
                k: 3,
                threads,
                ..GloveConfig::default()
            },
        ),
        (
            "residual-suppress-k3",
            GloveConfig {
                k: 3,
                residual: ResidualPolicy::Suppress,
                threads,
                ..GloveConfig::default()
            },
        ),
    ];

    let mut rows = Vec::new();
    for (label, config) in variants {
        eprintln!("[eval] ablation variant {label}…");
        let outcome = RunBuilder::new(config)
            .run(&ds)
            .expect("anonymization succeeds");
        let published = outcome.expect_dataset();
        assert!(published.is_k_anonymous(config.k));
        // Count residual time overlaps (readability metric of §6.2).
        let overlaps: usize = published
            .fingerprints
            .iter()
            .map(|fp| {
                fp.samples()
                    .windows(2)
                    .filter(|w| w[0].overlaps_in_time(&w[1]))
                    .count()
            })
            .sum();
        let mean_pos = mean_position_accuracy_m(&published);
        let mean_time = mean_time_accuracy_min(&published);
        rows.push(vec![
            label.to_string(),
            fmt(mean_pos / 1_000.0),
            fmt(mean_time),
            overlaps.to_string(),
            pct(published.num_users() as f64 / ds.num_users() as f64),
        ]);
        csv_rows.push(vec![label.into(), fmt(mean_pos), fmt(mean_time)]);
    }
    report.table(
        &[
            "variant",
            "mean pos [km]",
            "mean time [min]",
            "time overlaps",
            "users kept",
        ],
        &rows,
    );
    report.line("");
    report.line("Expected: no-reshape keeps finer space but leaves overlapping windows;");
    report.line("no-weighting sacrifices large groups to small ones (worse mean accuracy);");
    report.line("residual-suppress drops the odd leftover subscriber instead of merging.");

    report.csv(
        &ctx.cfg.out_dir,
        "ablation.csv",
        &["variant", "value_a", "value_b"],
        &csv_rows,
    );
    report
}
