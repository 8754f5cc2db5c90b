//! Record-linkage attack evaluation — the motivating threat model of §1
//! and §2.3, demonstrated before and after GLOVE, plus the scaled-up
//! adversaries of the attack subsystem (multi-point with noise,
//! top-location classifier, cross-epoch stream linkage).
//!
//! Not a figure of the paper itself, but the empirical closure of its
//! argument: the uniqueness statistics the paper cites (refs. `[5]` and
//! `[6]`) hold on the synthetic data too, and GLOVE's k-anonymity bounds
//! the adversary's anonymity set at k regardless of how many true points
//! they know (quasi-identifier-blind anonymity, §2.3). Two CSV series go
//! beyond the paper:
//!
//! * `attack_success_vs_k.csv` — multi-point success (p ∈ {1, 2, 3, 5})
//!   against the raw release and GLOVE at increasing k on the metro
//!   scenario, the Fig. 7/8-style attacker-success axis;
//! * `attack_stream_linkage.csv` — cross-epoch group linkage of streamed
//!   output under `Fresh` vs `Sticky` carry, quantifying the DESIGN.md
//!   caveat that `Sticky` trades cross-epoch unlinkability for stability.

use crate::context::EvalContext;
use crate::report::{fmt, pct, Report};
use glove_attack::{
    cross_epoch_attack, multi_point_attack, top_location_uniqueness, AdversaryNoise,
    CrossEpochAttack, MultiPointAttack, PublishedView,
};
use glove_core::stream::{events_of, run_stream};
use glove_core::{CarryPolicy, Dataset, StreamConfig, SuppressionThresholds};

/// Window length of the streamed-linkage measurement: two-day epochs over
/// the metro scenario's multi-day horizon.
const STREAM_WINDOW_MIN: u32 = 2_880;

/// Runs all adversaries against raw and anonymized releases.
pub fn attack(ctx: &mut EvalContext) -> Report {
    let mut report = Report::new(
        "attack",
        "record-linkage adversaries before/after GLOVE (paper §1, §2.3)",
    );
    let mut csv_rows = Vec::new();

    for (name, ds) in ctx.both() {
        let out = ctx.glove(&ds, 2, SuppressionThresholds::default());

        // Adversary [5]: top-L locations.
        let mut rows = Vec::new();
        for l in [1usize, 2, 3] {
            let raw = top_location_uniqueness(&ds, l);
            let anon = top_location_uniqueness(&out.dataset, l);
            rows.push(vec![format!("top-{l} locations"), pct(raw), pct(anon)]);
            csv_rows.push(vec![name.clone(), format!("top{l}"), fmt(raw), fmt(anon)]);
        }

        // Adversary [6]: p random spatiotemporal points.
        for points in [2usize, 4] {
            let cfg = MultiPointAttack {
                points,
                trials: 300,
                seed: 0x00A7_7AC4 + points as u64,
                noise: AdversaryNoise::exact(),
                threads: ctx.cfg.threads,
            };
            let raw = multi_point_attack(&ds, &PublishedView::Dataset(&ds), &cfg);
            let anon = multi_point_attack(&ds, &PublishedView::Dataset(&out.dataset), &cfg);
            rows.push(vec![
                format!("{points} random points"),
                pct(raw.pinpoint_rate()),
                pct(anon.pinpoint_rate()),
            ]);
            rows.push(vec![
                format!("  min anonymity set"),
                raw.min_anonymity().to_string(),
                anon.min_anonymity().to_string(),
            ]);
            csv_rows.push(vec![
                name.clone(),
                format!("random{points}"),
                fmt(raw.pinpoint_rate()),
                fmt(anon.pinpoint_rate()),
            ]);
        }

        report.line(format!("dataset: {name}"));
        report.table(&["adversary", "raw data", "after GLOVE k=2"], &rows);
        report.line("");
    }

    report.line("Context: ref. `[5]` found 50% top-3 uniqueness at 25M users; ref. `[6]`");
    report.line("pinpointed ~95% of users from 4 points. After GLOVE every record hides");
    report.line(">= k subscribers, so the pinpoint rate must be exactly 0.");
    report.line("");

    report.csv(
        &ctx.cfg.out_dir,
        "attack_linkage.csv",
        &["dataset", "adversary", "raw", "after_glove"],
        &csv_rows,
    );

    success_vs_k(ctx, &mut report);
    stream_linkage(ctx, &mut report);
    report
}

/// Multi-point attacker success vs k on the metro scenario.
fn success_vs_k(ctx: &mut EvalContext, report: &mut Report) {
    let threads = ctx.cfg.threads;
    let ds = ctx.metro().dataset.clone();
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for k in [1usize, 2, 4] {
        let published = if k == 1 {
            ds.clone() // the raw release
        } else {
            ctx.glove(&ds, k, SuppressionThresholds::default()).dataset
        };
        for points in [1usize, 2, 3, 5] {
            let cfg = MultiPointAttack {
                points,
                trials: 200,
                seed: 0x00A7_7AC4 + points as u64,
                noise: AdversaryNoise::exact(),
                threads,
            };
            let outcome = multi_point_attack(&ds, &PublishedView::Dataset(&published), &cfg);
            rows.push(vec![
                k.to_string(),
                points.to_string(),
                pct(outcome.pinpoint_rate()),
                pct(outcome.linked_rate()),
                fmt(outcome.mean_anonymity()),
                outcome.min_anonymity().to_string(),
            ]);
            csv.push(vec![
                ds.name.clone(),
                k.to_string(),
                points.to_string(),
                fmt(outcome.pinpoint_rate()),
                fmt(outcome.linked_rate()),
                fmt(outcome.mean_anonymity()),
                outcome.min_anonymity().to_string(),
            ]);
        }
    }
    report.line(format!(
        "multi-point attacker success vs k ({}, k = 1 is the raw release):",
        ds.name
    ));
    report.table(
        &[
            "k",
            "points",
            "pinpoint",
            "linked",
            "mean anon set",
            "min anon set",
        ],
        &rows,
    );
    report.line("");
    report.csv(
        &ctx.cfg.out_dir,
        "attack_success_vs_k.csv",
        &[
            "dataset",
            "k",
            "points",
            "pinpoint_rate",
            "linked_rate",
            "mean_anonymity",
            "min_anonymity",
        ],
        &csv,
    );
}

/// Cross-epoch linkage of streamed output: the Sticky-vs-Fresh gap.
fn stream_linkage(ctx: &mut EvalContext, report: &mut Report) {
    let threads = ctx.cfg.threads;
    let ds = ctx.metro().dataset.clone();
    let events = events_of(&ds);
    let attack_cfg = CrossEpochAttack { l: 8, threads };

    let mut measured = Vec::new();
    for carry in [CarryPolicy::Fresh, CarryPolicy::Sticky] {
        let tag = carry.as_str();
        let mut config = StreamConfig {
            window_min: STREAM_WINDOW_MIN,
            carry,
            ..StreamConfig::default()
        };
        config.glove.threads = threads;
        let run = run_stream(ds.name.clone(), events.iter().copied(), config)
            .expect("streamed run succeeds");
        let epochs: Vec<Dataset> = run.epochs.into_iter().map(|e| e.output.dataset).collect();
        let outcome = cross_epoch_attack(&epochs, &attack_cfg);
        measured.push((tag, outcome));
    }

    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for (tag, outcome) in &measured {
        rows.push(vec![
            tag.to_string(),
            outcome.epochs.to_string(),
            outcome.attempts().to_string(),
            pct(outcome.linkage_rate()),
            pct(outcome.persistence_rate()),
        ]);
        csv.push(vec![
            ds.name.clone(),
            tag.to_string(),
            STREAM_WINDOW_MIN.to_string(),
            outcome.epochs.to_string(),
            outcome.attempts().to_string(),
            fmt(outcome.linkage_rate()),
            fmt(outcome.persistence_rate()),
        ]);
    }
    // The headline number: how much extra cross-epoch linkability Sticky
    // concedes relative to Fresh (positive = Sticky leaks more).
    let gap_linkage = measured[1].1.linkage_rate() - measured[0].1.linkage_rate();
    let gap_persistence = measured[1].1.persistence_rate() - measured[0].1.persistence_rate();
    csv.push(vec![
        ds.name.clone(),
        "gap".to_string(),
        STREAM_WINDOW_MIN.to_string(),
        String::new(),
        String::new(),
        fmt(gap_linkage),
        fmt(gap_persistence),
    ]);

    report.line(format!(
        "cross-epoch linkage of streamed output ({}, {} min windows):",
        ds.name, STREAM_WINDOW_MIN
    ));
    report.table(
        &["carry", "epochs", "attempts", "sig. linkage", "persistence"],
        &rows,
    );
    report.line(format!(
        "sticky-vs-fresh gap: {} linkage, {} persistence — what Sticky's group \
         stability concedes to a longitudinal adversary (DESIGN.md, Adversary model).",
        pct(gap_linkage),
        pct(gap_persistence),
    ));
    report.csv(
        &ctx.cfg.out_dir,
        "attack_stream_linkage.csv",
        &[
            "dataset",
            "carry",
            "window_min",
            "epochs",
            "link_attempts",
            "signature_linkage",
            "cohort_persistence",
        ],
        &csv,
    );
}
