//! Streaming vs batch GLOVE: pricing the window length.
//!
//! Runs GLOVE on the same dataset as one batch job and as a windowed stream
//! at several window lengths (both carry policies) and reports, per
//! configuration:
//!
//! * **k-retention** — the fraction of user-window slices that reach a
//!   published k-anonymous group (slices lost to under-`k` windows are the
//!   price of short windows on sparse data);
//! * **accuracy** — mean published position/time accuracy across all
//!   epochs vs the batch output (shorter windows have fewer merge partners
//!   per epoch, so accuracy degrades gracefully with `W`);
//! * **cost and residency** — anonymization wall clock, events/s, and the
//!   peak resident fingerprints/samples that bound the engine's memory.
//!
//! The full-horizon `fresh` row doubles as the equivalence anchor: its
//! single epoch must equal the batch output exactly.

use crate::context::EvalContext;
use crate::report::{fmt, pct, Report};
use glove_core::accuracy::{mean_position_accuracy_m, mean_time_accuracy_min};
use glove_core::api::{NullObserver, RunBuilder, RunOutput};
use glove_core::stream::{events_of, StreamEvent, StreamRun};
use glove_core::{CarryPolicy, GloveConfig, StreamConfig, SuppressionThresholds, UnderKPolicy};

/// One measured configuration.
struct Row {
    label: String,
    window_min: u32,
    epochs: u64,
    retention: f64,
    pos_acc_m: f64,
    time_acc_min: f64,
    events_per_s: f64,
    peak_fps: usize,
    peak_samples: usize,
    peak_store_bytes: u64,
    peak_rss_bytes: u64,
}

impl Row {
    fn cells(&self, retained_as_pct: bool) -> Vec<String> {
        vec![
            self.label.clone(),
            self.window_min.to_string(),
            self.epochs.to_string(),
            if retained_as_pct {
                pct(self.retention)
            } else {
                fmt(self.retention)
            },
            fmt(self.pos_acc_m),
            fmt(self.time_acc_min),
            fmt(self.events_per_s),
            self.peak_fps.to_string(),
            self.peak_samples.to_string(),
            self.peak_store_bytes.to_string(),
            self.peak_rss_bytes.to_string(),
        ]
    }
}

/// Sample-weighted mean accuracy across all epoch outputs.
fn stream_accuracy(run: &StreamRun) -> (f64, f64) {
    let mut pos = 0.0;
    let mut time = 0.0;
    let mut weight = 0.0;
    for epoch in &run.epochs {
        let ds = &epoch.output.dataset;
        let w = ds.num_samples() as f64;
        pos += mean_position_accuracy_m(ds) * w;
        time += mean_time_accuracy_min(ds) * w;
        weight += w;
    }
    if weight > 0.0 {
        (pos / weight, time / weight)
    } else {
        (0.0, 0.0)
    }
}

fn run_one(
    name: &str,
    events: &[StreamEvent],
    window_min: u32,
    carry: CarryPolicy,
    threads: usize,
    label: &str,
) -> (Row, StreamRun) {
    let glove = GloveConfig {
        threads,
        ..GloveConfig::default()
    };
    let config = StreamConfig {
        window_min,
        carry,
        under_k: UnderKPolicy::Suppress,
        glove,
    };
    let started = std::time::Instant::now();
    let outcome = RunBuilder::new(glove)
        .stream(config)
        .run_events(name, &mut events.iter().copied().map(Ok), &mut NullObserver)
        .expect("stream succeeds");
    let elapsed = started.elapsed().as_secs_f64();
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
    for epoch in &run.epochs {
        assert!(
            epoch.output.dataset.is_k_anonymous(2),
            "{label}: epoch {} below k",
            epoch.epoch
        );
    }
    let entered = run.stats.entered_user_slices() + run.stats.suppressed_users;
    let published: u64 = run
        .epochs
        .iter()
        .map(|e| e.output.dataset.num_users() as u64)
        .sum();
    let (pos_acc_m, time_acc_min) = stream_accuracy(&run);
    let row = Row {
        label: label.to_string(),
        window_min,
        epochs: run.stats.epochs,
        retention: if entered > 0 {
            published as f64 / entered as f64
        } else {
            0.0
        },
        pos_acc_m,
        time_acc_min,
        events_per_s: run.stats.events as f64 / elapsed.max(1e-9),
        peak_fps: run.stats.peak_resident_fingerprints,
        peak_samples: run.stats.peak_resident_samples,
        peak_store_bytes: run.stats.ledger.peak_store_bytes,
        peak_rss_bytes: run.stats.ledger.peak_rss_bytes,
    };
    (row, run)
}

/// The `stream` experiment entry point.
pub fn stream(ctx: &mut EvalContext) -> Report {
    let mut report = Report::new(
        "stream",
        "windowed online GLOVE vs the monolithic batch run",
    );
    let threads = ctx.cfg.threads;
    let ds = ctx.civ().dataset.clone();
    let batch = ctx.glove(&ds, 2, SuppressionThresholds::default());
    let events = events_of(&ds);
    let span = ds.span_min() as u32 + 1;

    let mut rows = Vec::new();

    // Full-horizon single window: the equivalence anchor.
    let (row, run) = run_one(
        &ds.name,
        &events,
        span,
        CarryPolicy::Fresh,
        threads,
        "batch-window",
    );
    assert_eq!(run.epochs.len(), 1, "full horizon must be one window");
    assert_eq!(
        run.epochs[0].output.dataset.fingerprints, batch.dataset.fingerprints,
        "single-window fresh stream diverged from the batch run"
    );
    rows.push(row);

    for window in [5_760u32, 1_440] {
        for carry in [CarryPolicy::Fresh, CarryPolicy::Sticky] {
            let label = format!("{}-w{window}", carry.as_str());
            let (row, _) = run_one(&ds.name, &events, window, carry, threads, &label);
            rows.push(row);
        }
    }

    let table: Vec<Vec<String>> = rows.iter().map(|r| r.cells(true)).collect();
    report.table(
        &[
            "mode",
            "window [min]",
            "epochs",
            "slices kept",
            "pos acc [m]",
            "time acc [min]",
            "events/s",
            "peak fps",
            "peak samples",
            "store [B]",
            "rss [B]",
        ],
        &table,
    );
    report.line("");
    report.line(format!(
        "batch reference: {:.0} m / {:.0} min accuracy over {} samples.",
        mean_position_accuracy_m(&batch.dataset),
        mean_time_accuracy_min(&batch.dataset),
        batch.dataset.num_samples(),
    ));
    report.line(
        "The batch-window row is the exactness anchor (single full-horizon window, \
         fresh carry: output equals the batch run). Shorter windows trade \
         k-retention and accuracy for bounded latency and memory; sticky carry \
         keeps stable cohorts' merge partners across epochs.",
    );

    report.csv(
        &ctx.cfg.out_dir,
        "stream_window.csv",
        &[
            "mode",
            "window_min",
            "epochs",
            "slices_retained",
            "pos_acc_m",
            "time_acc_min",
            "events_per_s",
            "peak_resident_fingerprints",
            "peak_resident_samples",
            "peak_store_bytes",
            "peak_rss_bytes",
        ],
        &rows.iter().map(|r| r.cells(false)).collect::<Vec<_>>(),
    );
    report
}
