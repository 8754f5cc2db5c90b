//! The defense frontier: utility vs cross-epoch attacker success, and
//! where the adaptive loop lands on it.
//!
//! The policy plane (DESIGN.md "The policy plane and the adaptive loop")
//! turns defense strength into a tunable: per-epoch/per-cohort overrides
//! of `k` and the carry policy. This experiment maps the static frontier —
//! every `carry × k` point of a windowed metro run, scored by the
//! cross-epoch linkage adversary on one axis and k-retention/accuracy on
//! the other — then closes the loop: the `Sticky, k = 2` run's attack
//! report is fed to [`glove_attack::adapt_policy`] against the default
//! [`glove_attack::AttackBudget`], and the adapted plane is re-run and
//! scored as one more point. The adapted point must land at or below the
//! `Fresh` baseline's linkage without giving up more retention than the
//! budget's `k` cap allows — `tests/adaptive_loop.rs` asserts exactly
//! that; here the whole frontier is laid out for plotting.

use crate::context::EvalContext;
use crate::report::{fmt, pct, Report};
use glove_core::accuracy::mean_position_accuracy_m;
use glove_core::api::{NullObserver, RunBuilder, RunOutput};
use glove_core::policy::PolicyPlane;
use glove_core::stream::{events_of, StreamEvent, StreamRun};
use glove_core::{CarryPolicy, Dataset, GloveConfig, StreamConfig, UnderKPolicy};

/// One frontier point.
struct Point {
    policy: String,
    carry: &'static str,
    k: usize,
    epochs: u64,
    linkage: f64,
    persistence: f64,
    retention: f64,
    pos_acc_m: f64,
}

impl Point {
    fn cells(&self, as_pct: bool) -> Vec<String> {
        let frac = |v: f64| if as_pct { pct(v) } else { fmt(v) };
        vec![
            self.policy.clone(),
            self.carry.to_string(),
            self.k.to_string(),
            self.epochs.to_string(),
            frac(self.linkage),
            frac(self.persistence),
            frac(self.retention),
            fmt(self.pos_acc_m),
        ]
    }
}

/// What to run and how to label the resulting [`Point`].
struct PointSpec<'a> {
    plane: Option<&'a PolicyPlane>,
    policy: &'a str,
    carry: &'static str,
    k: usize,
    l: usize,
}

/// Runs a windowed stream (optionally under a policy plane) and scores it
/// with the cross-epoch adversary.
fn run_point(name: &str, events: &[StreamEvent], base: &StreamConfig, spec: PointSpec) -> Point {
    let mut builder = RunBuilder::new(base.glove).stream(*base);
    if let Some(plane) = spec.plane {
        builder = builder.policy(plane.clone());
    }
    let outcome = builder
        .run_events(name, &mut events.iter().copied().map(Ok), &mut NullObserver)
        .expect("stream succeeds");
    let stats = outcome
        .report
        .detail
        .as_stream()
        .expect("stream detail")
        .clone();
    let epochs = match outcome.output {
        RunOutput::Epochs(epochs) => epochs,
        RunOutput::Dataset(_) => unreachable!("stream mode emits epochs"),
    };
    let run = StreamRun { epochs, stats };

    let published: Vec<Dataset> = run
        .epochs
        .iter()
        .map(|e| e.output.dataset.clone())
        .collect();
    let link = glove_attack::cross_epoch_attack(
        &published,
        &glove_attack::CrossEpochAttack {
            l: spec.l,
            threads: base.glove.threads,
        },
    );

    let entered = run.stats.entered_user_slices() + run.stats.suppressed_users;
    let published_users: u64 = published.iter().map(|d| d.num_users() as u64).sum();
    let weighted_acc = {
        let mut pos = 0.0;
        let mut weight = 0.0;
        for ds in &published {
            let w = ds.num_samples() as f64;
            pos += mean_position_accuracy_m(ds) * w;
            weight += w;
        }
        if weight > 0.0 {
            pos / weight
        } else {
            0.0
        }
    };
    Point {
        policy: spec.policy.to_string(),
        carry: spec.carry,
        k: spec.k,
        epochs: run.stats.epochs,
        linkage: link.linkage_rate(),
        persistence: link.persistence_rate(),
        retention: if entered > 0 {
            published_users as f64 / entered as f64
        } else {
            0.0
        },
        pos_acc_m: weighted_acc,
    }
}

/// The `frontier` experiment entry point.
pub fn frontier(ctx: &mut EvalContext) -> Report {
    let mut report = Report::new(
        "frontier",
        "defense frontier: utility vs cross-epoch linkage, with the adaptive point",
    );
    let threads = ctx.cfg.threads;
    let ds = ctx.metro().dataset.clone();
    let events = events_of(&ds);
    // Six windows over the horizon give the adversary five epoch pairs.
    let window_min = (ds.span_min() as u32 / 6).max(1);
    let base_of = |k: usize, carry: CarryPolicy| StreamConfig {
        window_min,
        carry,
        under_k: UnderKPolicy::Suppress,
        glove: GloveConfig {
            k,
            threads,
            ..GloveConfig::default()
        },
    };
    const L: usize = 8;

    let mut points = Vec::new();
    for carry in [CarryPolicy::Fresh, CarryPolicy::Sticky] {
        let tag = carry.as_str();
        for k in [2usize, 4, 6] {
            eprintln!("[eval] frontier: static {tag} k={k}…");
            points.push(run_point(
                &ds.name,
                &events,
                &base_of(k, carry),
                PointSpec {
                    plane: None,
                    policy: "static",
                    carry: tag,
                    k,
                    l: L,
                },
            ));
        }
    }

    // Close the loop on the most exposed static point: Sticky at the base
    // k. Its attack report drives the tuner; the adapted plane re-runs the
    // same feed from epoch 0 (a next-deployment re-plan).
    let sticky_base = base_of(2, CarryPolicy::Sticky);
    let sticky_run = {
        let outcome = RunBuilder::new(sticky_base.glove)
            .stream(sticky_base)
            .run_events(
                &ds.name,
                &mut events.iter().copied().map(Ok),
                &mut NullObserver,
            )
            .expect("stream succeeds");
        match outcome.output {
            RunOutput::Epochs(epochs) => epochs
                .into_iter()
                .map(|e| e.output.dataset)
                .collect::<Vec<_>>(),
            RunOutput::Dataset(_) => unreachable!("stream mode emits epochs"),
        }
    };
    let cross = glove_attack::CrossEpochAttack { l: L, threads };
    let attack_report = glove_attack::Attack::run(
        &cross,
        &ds,
        &glove_attack::PublishedView::Epochs(&sticky_run),
    )
    .expect("cross-epoch attack runs");
    let budget = glove_attack::AttackBudget::default();
    let adapted = glove_attack::adapt_policy(
        &PolicyPlane::uniform(),
        &sticky_base,
        std::slice::from_ref(&attack_report),
        &budget,
        0,
    )
    .expect("adaptation succeeds");
    report.line(format!(
        "tuner input: sticky k=2 linkage {} vs budget {} — {} action(s):",
        pct(attack_report.success_rate),
        pct(budget.max_linkage),
        adapted.actions.len(),
    ));
    for action in &adapted.actions {
        report.line(format!("  - {action}"));
    }
    report.line("");
    eprintln!("[eval] frontier: adapted re-run…");
    points.push(run_point(
        &ds.name,
        &events,
        &sticky_base,
        PointSpec {
            plane: Some(&adapted.plane),
            policy: "adapted",
            carry: CarryPolicy::Sticky.as_str(),
            k: 2,
            l: L,
        },
    ));

    report.table(
        &[
            "policy",
            "carry",
            "k",
            "epochs",
            "linkage",
            "persisted",
            "retention",
            "pos acc [m]",
        ],
        &points.iter().map(|p| p.cells(true)).collect::<Vec<_>>(),
    );
    report.line("");
    report.line(
        "Each row is one frontier point: attacker success (cross-epoch signature \
         linkage and group persistence) against utility (k-retention, published \
         position accuracy). The adapted row re-runs the sticky base under the \
         tuner's plane; tests/adaptive_loop.rs asserts it reaches the fresh \
         baseline's linkage with bounded retention loss.",
    );

    report.csv(
        &ctx.cfg.out_dir,
        "defense_frontier.csv",
        &[
            "policy",
            "carry",
            "k",
            "epochs",
            "linkage_rate",
            "persistence_rate",
            "retention",
            "pos_acc_m",
        ],
        &points.iter().map(|p| p.cells(false)).collect::<Vec<_>>(),
    );
    report
}
