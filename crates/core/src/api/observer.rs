//! Observer hooks of the run API: progress callbacks every engine emits
//! through one trait, with ready-made sinks.
//!
//! ### Ordering guarantees
//!
//! Every [`crate::api::Anonymizer`] implementation in this workspace upholds
//! the following contract (see DESIGN.md "Run API"):
//!
//! 1. **Phases are sequential.** Every [`Observer::on_phase_start`] is
//!    matched by exactly one [`Observer::on_phase_end`] with the same
//!    `(engine, phase)` before the next phase starts; phases never nest or
//!    overlap.
//! 2. **Shard callbacks fire in stitch order**, once per shard, inside the
//!    `run` phase (after the shard fan-out completes — per-shard wall clocks
//!    are in the [`crate::shard::ShardStat`] itself, not in callback
//!    timing).
//! 3. **Epoch callbacks fire in emission order**, *incrementally*: a
//!    closed window is anonymized on a stage thread while the next one
//!    fills, and its epoch is observed after the next event the run
//!    consumes once the stage has finished it — before the event pull
//!    passes the first event of the window after next — or in the `flush`
//!    phase. A sink may therefore write (and drop) epochs as they close:
//!    the bounded-memory property of the streaming engine survives the
//!    hook. Epochs that finish while events still arrive are observed
//!    inside the `run` phase; the rest, including the final window that
//!    only the end of the stream closes, inside the `flush` phase.
//! 4. **Progress counters are cumulative and monotone** across
//!    [`Observer::on_progress`] calls; the final call carries the same
//!    totals as the run's [`crate::api::RunReport`].
//! 5. **[`Observer::on_report`] fires exactly once, last**, with the same
//!    report returned in the [`crate::api::RunOutcome`].
//!
//! Only [`Observer::on_epoch`] can fail. A sink that writes epochs out
//! returns its write's result; the stream run stops at the first error:
//! no later epoch reaches the observer, the pipeline's stage thread is
//! joined, and the run returns [`crate::GloveError::EpochSink`] naming the
//! epoch. The other hooks only record, so they cannot fail.

use crate::api::report::RunReport;
use crate::shard::ShardStat;
use crate::stream::EpochOutput;
use std::io::Write;

/// Progress hooks of one anonymization run. All methods default to no-ops,
/// so implementations override only what they consume.
pub trait Observer {
    /// A wall-clock phase of the run began (`"prepare"`, `"run"`,
    /// `"flush"`, …).
    fn on_phase_start(&mut self, engine: &str, phase: &str) {
        let _ = (engine, phase);
    }

    /// The phase ended after `elapsed_s` seconds.
    fn on_phase_end(&mut self, engine: &str, phase: &str, elapsed_s: f64) {
        let _ = (engine, phase, elapsed_s);
    }

    /// A shard of a sharded run finished (stitch order).
    fn on_shard(&mut self, stat: &ShardStat) {
        let _ = stat;
    }

    /// A streaming epoch was emitted (emission order, incremental). It
    /// arrives after the next consumed event once its window has been
    /// anonymized, or in the `flush` phase; always on the thread that
    /// drives the run. An error ends the run: no later epoch is delivered.
    fn on_epoch(&mut self, epoch: &EpochOutput) -> std::io::Result<()> {
        let _ = epoch;
        Ok(())
    }

    /// Cumulative merge/pair-effort counters (monotone across calls).
    fn on_progress(&mut self, merges: u64, pairs_computed: u64, pairs_pruned: u64) {
        let _ = (merges, pairs_computed, pairs_pruned);
    }

    /// The run finished; `report` is the same value the caller receives in
    /// the [`crate::api::RunOutcome`]. Fires exactly once, last.
    fn on_report(&mut self, report: &RunReport) {
        let _ = report;
    }
}

/// The do-nothing observer (the default of [`crate::api::RunBuilder::run`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl Observer for NullObserver {}

/// An observer that writes one human-readable line per event to a
/// [`Write`] sink — `LogObserver::stderr()` for interactive progress,
/// `LogObserver::new(Vec::new())` to capture lines in tests.
///
/// The sink is flushed when [`Observer::on_report`] fires and again on
/// drop, so a buffered writer (e.g. `BufWriter<File>` inside a
/// long-running daemon) never holds the final record of a finished run in
/// memory only.
#[derive(Debug)]
pub struct LogObserver<W: Write> {
    // `Option` so `into_inner` can move the sink out despite the `Drop`
    // impl; `None` only after `into_inner`.
    out: Option<W>,
}

impl LogObserver<std::io::Stderr> {
    /// A logger writing to standard error.
    pub fn stderr() -> Self {
        Self {
            out: Some(std::io::stderr()),
        }
    }
}

impl<W: Write> LogObserver<W> {
    /// A logger writing to `out`.
    pub fn new(out: W) -> Self {
        Self { out: Some(out) }
    }

    /// Consumes the logger, returning its sink (without a final flush —
    /// the caller owns the sink again).
    pub fn into_inner(mut self) -> W {
        self.out.take().expect("sink present until into_inner")
    }

    fn sink(&mut self) -> &mut W {
        self.out.as_mut().expect("sink present until into_inner")
    }
}

impl<W: Write> Drop for LogObserver<W> {
    fn drop(&mut self) {
        if let Some(out) = self.out.as_mut() {
            let _ = out.flush();
        }
    }
}

impl<W: Write> Observer for LogObserver<W> {
    fn on_phase_start(&mut self, engine: &str, phase: &str) {
        let _ = writeln!(self.sink(), "[{engine}] phase {phase} started");
    }

    fn on_phase_end(&mut self, engine: &str, phase: &str, elapsed_s: f64) {
        let _ = writeln!(
            self.sink(),
            "[{engine}] phase {phase} done in {elapsed_s:.3} s"
        );
    }

    fn on_shard(&mut self, stat: &ShardStat) {
        let _ = writeln!(
            self.sink(),
            "[shard {}] {} fps ({} users) -> {} groups, {} merges, {} pairs (+{} pruned), {:.3} s",
            stat.shard,
            stat.fingerprints_in,
            stat.users_in,
            stat.fingerprints_out,
            stat.merges,
            stat.pairs_computed,
            stat.pairs_pruned,
            stat.elapsed_s,
        );
    }

    /// A log line that cannot be written never stops the run.
    fn on_epoch(&mut self, epoch: &EpochOutput) -> std::io::Result<()> {
        let _ = writeln!(
            self.sink(),
            "[epoch {}] window @ {} min: {} groups, {} users",
            epoch.epoch,
            epoch.window_start_min,
            epoch.output.dataset.fingerprints.len(),
            epoch.output.dataset.num_users(),
        );
        Ok(())
    }

    fn on_progress(&mut self, merges: u64, pairs_computed: u64, pairs_pruned: u64) {
        let _ = writeln!(
            self.sink(),
            "[progress] {merges} merges, {pairs_computed} pairs computed, {pairs_pruned} pruned",
        );
    }

    fn on_report(&mut self, report: &RunReport) {
        let _ = writeln!(
            self.sink(),
            "[{}] finished: {} -> {} fingerprints in {:.3} s",
            report.engine,
            report.fingerprints_in,
            report.fingerprints_out,
            report.elapsed_s,
        );
        let _ = self.sink().flush();
    }
}

/// An observer that streams every finished [`RunReport`] to a [`Write`]
/// sink as one JSON object per line (JSONL), flushing after each record,
/// for long-running processes.
///
/// Unlike an in-memory sink serialized at exit, each record reaches the
/// underlying writer inside [`Observer::on_report`] itself: a daemon
/// killed between runs never loses an already-finished report. The sink is
/// flushed once more on drop, and the first write error is buffered and
/// retrievable via [`JsonlReportWriter::take_error`] ([`Observer::on_report`]
/// cannot fail).
#[derive(Debug)]
pub struct JsonlReportWriter<W: Write> {
    out: Option<W>,
    written: usize,
    error: Option<std::io::Error>,
}

impl<W: Write> JsonlReportWriter<W> {
    /// A JSONL report sink writing to `out`.
    pub fn new(out: W) -> Self {
        Self {
            out: Some(out),
            written: 0,
            error: None,
        }
    }

    /// Reports written (and flushed) so far.
    pub fn written(&self) -> usize {
        self.written
    }

    /// Takes the first buffered I/O error, if any write or flush failed.
    pub fn take_error(&mut self) -> Option<std::io::Error> {
        self.error.take()
    }

    /// Consumes the sink, returning the writer (already flushed after the
    /// last record).
    pub fn into_inner(mut self) -> W {
        self.out.take().expect("sink present until into_inner")
    }

    fn record(&mut self, line: &str) {
        let out = self.out.as_mut().expect("sink present until into_inner");
        let attempt = out
            .write_all(line.as_bytes())
            .and_then(|()| out.write_all(b"\n"))
            .and_then(|()| out.flush());
        match attempt {
            Ok(()) => self.written += 1,
            Err(e) => {
                if self.error.is_none() {
                    self.error = Some(e);
                }
            }
        }
    }
}

impl<W: Write> Drop for JsonlReportWriter<W> {
    fn drop(&mut self) {
        if let Some(out) = self.out.as_mut() {
            let _ = out.flush();
        }
    }
}

impl<W: Write> Observer for JsonlReportWriter<W> {
    fn on_report(&mut self, report: &RunReport) {
        self.record(&report.to_json());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::io::BufWriter;
    use std::path::PathBuf;

    fn temp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("glove-observer-{}-{}", std::process::id(), name));
        p
    }

    fn report(engine: &str) -> RunReport {
        RunReport {
            engine: engine.to_string(),
            dataset: "t".to_string(),
            ..RunReport::default()
        }
    }

    // Regression: a daemon killed right after a run finishes must not lose
    // the final record to an unflushed `BufWriter`. `mem::forget` simulates
    // the kill — destructors never run, exactly like SIGKILL — so the bytes
    // must already be on disk when `on_report` returns.
    #[test]
    fn log_observer_record_survives_kill_after_on_report() {
        let path = temp("log-kill");
        let file = fs::File::create(&path).unwrap();
        let mut log = LogObserver::new(BufWriter::new(file));
        log.on_report(&report("glove-stream"));
        std::mem::forget(log); // simulated SIGKILL: no Drop, no flush
        let text = fs::read_to_string(&path).unwrap();
        assert!(
            text.contains("[glove-stream] finished"),
            "final record lost without on_report flush: {text:?}"
        );
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn jsonl_report_writer_record_survives_kill_after_on_report() {
        let path = temp("jsonl-kill");
        let file = fs::File::create(&path).unwrap();
        let mut sink = JsonlReportWriter::new(BufWriter::new(file));
        sink.on_report(&report("glove-serve"));
        assert_eq!(sink.written(), 1);
        std::mem::forget(sink); // simulated SIGKILL
        let text = fs::read_to_string(&path).unwrap();
        let line = text.lines().next().expect("one JSONL record");
        let parsed = RunReport::from_json(line).unwrap();
        assert_eq!(parsed.engine, "glove-serve");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn log_observer_flushes_on_drop() {
        let path = temp("log-drop");
        {
            let file = fs::File::create(&path).unwrap();
            let mut log = LogObserver::new(BufWriter::new(file));
            // A mid-run line only — without the report-time flush, only
            // Drop pushes it to disk.
            log.on_phase_start("glove-batch", "run");
        }
        let text = fs::read_to_string(&path).unwrap();
        assert!(
            text.contains("phase run started"),
            "drop flush lost: {text:?}"
        );
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn jsonl_report_writer_buffers_write_errors() {
        struct Failing;
        impl Write for Failing {
            fn write(&mut self, _b: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk gone"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut sink = JsonlReportWriter::new(Failing);
        sink.on_report(&report("x"));
        assert_eq!(sink.written(), 0);
        assert!(sink.take_error().is_some());
        assert!(sink.take_error().is_none(), "error is taken once");
    }

    #[test]
    fn log_observer_into_inner_returns_sink() {
        let mut log = LogObserver::new(Vec::new());
        log.on_progress(1, 2, 3);
        let buf = log.into_inner();
        assert!(String::from_utf8(buf).unwrap().contains("1 merges"));
    }
}
