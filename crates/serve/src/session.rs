//! Tenant sessions: one bounded ingest queue feeding one engine worker.
//!
//! A session is the PR 4 run-API seam bound to a socket: the worker thread
//! drives `RunBuilder::new(glove).stream(config).keep_epochs(false)
//! .run_events(tenant, queue, observer)` — exactly the loop a library
//! caller would run — while the connection thread feeds the queue with
//! decoded `EVENTS` frames. Because the engine consumes the identical
//! event sequence in the identical order, the session's epochs are
//! byte-identical to a direct [`glove_core::stream::StreamEngine`] run
//! over the same events (the anchor `tests/serve_e2e.rs` pins).
//!
//! ### Backpressure vs shedding
//!
//! The queue is a bounded FIFO under one lock, whose length is the exact
//! occupancy gauge; `offer` never blocks the connection thread. When the
//! queue is full the session either
//! answers `BUSY` (default — the client retries the unsent suffix after a
//! backoff, and nothing is lost) or, when the tenant opted into
//! `shed`, drops the remainder of the batch and books the drops in the
//! shed ledger ([`StreamStats::shed_events`] — queryable over the wire via
//! `STATS`, and part of the final `REPORT`). Accepted events are never
//! shed: once `offer` counts an event as accepted, only an engine error
//! can keep it out of an epoch.

use crate::protocol::{write_frame, Frame};
use glove_core::api::report::RunDetail;
use glove_core::api::{JsonlReportWriter, Observer, RunBuilder, RunReport};
use glove_core::config::StreamConfig;
use glove_core::policy::{PolicyPlane, SharedPolicy};
use glove_core::stream::{EpochOutput, StreamEvent, StreamStats};
use glove_core::{Dataset, GloveError};
use std::collections::VecDeque;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

/// The epoch persistence hook: called with each closed epoch's dataset and
/// its target file path. Injected (rather than imported) so this crate
/// never depends on the CLI's text-format module — the CLI injects its
/// canonical dataset writer, tests inject capture closures.
pub type EpochWriteFn = dyn Fn(&Dataset, &Path) -> std::io::Result<()> + Send + Sync;

/// A shared frame sink for server pushes (`EPOCH`), serialized by a mutex
/// because the connection thread writes replies to the same socket.
pub type PushSink = Arc<Mutex<dyn Write + Send>>;

/// Everything needed to open one tenant session.
pub struct SessionConfig {
    /// Tenant name (names the engine run and the output subdirectory).
    pub tenant: String,
    /// `true`: drop events instead of signalling `BUSY` when the queue is
    /// full.
    pub shed: bool,
    /// The tenant's full streaming configuration.
    pub stream: StreamConfig,
    /// The session's initial policy plane ([`PolicyPlane::uniform`] for
    /// plain runs). Swappable mid-run via [`Session::swap_policy`] (the
    /// `RECONFIG` frame); the engine picks swaps up at its next window
    /// boundary.
    pub policy: PolicyPlane,
    /// Bounded queue capacity, events.
    pub queue_events: usize,
    /// Backoff suggested to clients in `BUSY` replies, milliseconds.
    pub retry_ms: u32,
    /// The tenant's own output directory (already tenant-specific);
    /// `None` disables epoch/report persistence.
    pub out_dir: Option<PathBuf>,
    /// Writes one epoch dataset to one path; `None` disables epoch files
    /// (epochs are still counted and pushed as `EPOCH` frames).
    pub epoch_writer: Option<Arc<EpochWriteFn>>,
}

/// Live counters of one session, shared between the connection thread,
/// the worker, and `STATS` snapshots.
#[derive(Debug)]
pub struct SessionMetrics {
    tenant: String,
    k: usize,
    accepted: AtomicU64,
    shed: AtomicU64,
    epochs: AtomicU64,
    queue_peak: AtomicU64,
    progress: Mutex<(u64, u64, u64)>,
    final_report: Mutex<Option<RunReport>>,
}

impl SessionMetrics {
    fn new(tenant: String, k: usize) -> Self {
        Self {
            tenant,
            k,
            accepted: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            epochs: AtomicU64::new(0),
            queue_peak: AtomicU64::new(0),
            progress: Mutex::new((0, 0, 0)),
            final_report: Mutex::new(None),
        }
    }

    /// The tenant the counters belong to.
    pub fn tenant(&self) -> &str {
        &self.tenant
    }

    /// Events accepted into the queue so far (never shed).
    pub fn accepted(&self) -> u64 {
        self.accepted.load(Ordering::SeqCst)
    }

    /// Events dropped by the shed policy so far.
    pub fn shed(&self) -> u64 {
        self.shed.load(Ordering::SeqCst)
    }

    /// Epochs emitted so far.
    pub fn epochs(&self) -> u64 {
        self.epochs.load(Ordering::SeqCst)
    }

    /// High-water mark of the bounded queue (events): the queue's length
    /// read under its own lock right after each push, so it never exceeds
    /// the configured capacity — the bounded-memory proof of the shed tests.
    pub fn queue_peak(&self) -> u64 {
        self.queue_peak.load(Ordering::SeqCst)
    }

    /// The final report, once the session finished successfully.
    pub fn final_report(&self) -> Option<RunReport> {
        self.final_report.lock().expect("metrics lock").clone()
    }

    /// A report for `STATS`: the final report once the run finished,
    /// otherwise a coarse mid-run snapshot (engine `"glove-serve"`) whose
    /// stream detail carries the live accepted/shed/epoch counters and the
    /// latest cumulative progress counters. Snapshot totals count queue
    /// admissions, which can lead the engine's consumed-event count by up
    /// to the queue capacity.
    pub fn snapshot_report(&self) -> RunReport {
        if let Some(report) = self.final_report() {
            return report;
        }
        let (merges, pairs_computed, pairs_pruned) = *self.progress.lock().expect("metrics lock");
        let stats = StreamStats {
            events: self.accepted(),
            epochs: self.epochs(),
            shed_events: self.shed(),
            merges,
            pairs_computed,
            pairs_pruned,
            ..StreamStats::default()
        };
        RunReport {
            engine: "glove-serve".to_string(),
            dataset: self.tenant.clone(),
            k: self.k,
            samples_in: usize::try_from(self.accepted()).unwrap_or(usize::MAX),
            merges,
            pairs_computed,
            pairs_pruned,
            detail: RunDetail::Stream(stats),
            ..RunReport::default()
        }
    }
}

/// Most events the worker takes from the queue per lock acquisition.
const TAKE_EVENTS: usize = 256;

/// The bounded event queue between a connection thread and its worker.
///
/// The occupancy gauge is the deque's own length, read and written under
/// the lock that guards every push and take. A counter kept beside a
/// channel has to move before or after the handoff, so for a moment it
/// reads one event more (or fewer) than the queue holds; this one cannot.
///
/// The worker takes up to [`TAKE_EVENTS`] events per lock acquisition.
/// Taking them one at a time would re-acquire the lock for every event,
/// and an offer arriving while the worker drains a full queue would wait
/// behind the whole drain. At most `capacity + TAKE_EVENTS` events are
/// buffered in all.
struct EventQueue {
    state: Mutex<QueueState>,
    ready: Condvar,
    capacity: usize,
}

struct QueueState {
    events: VecDeque<StreamEvent>,
    /// The session stopped offering: the worker drains what is left, then
    /// sees the end of the stream.
    closed: bool,
    /// The worker is gone: further offers answer [`Offer::Dead`].
    dead: bool,
}

impl EventQueue {
    fn new(capacity: usize) -> Self {
        Self {
            state: Mutex::new(QueueState {
                events: VecDeque::new(),
                closed: false,
                dead: false,
            }),
            ready: Condvar::new(),
            capacity,
        }
    }

    /// The queue state. Every update leaves it valid, so a guard poisoned
    /// by a thread that panicked while holding it is taken over as is.
    fn lock(&self) -> MutexGuard<'_, QueueState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Appends the longest prefix of `events` that fits and books the new
    /// length in `peak`. Returns how many were taken, or `None` once the
    /// queue is closed or its worker gone.
    fn push(&self, events: Vec<StreamEvent>, peak: &AtomicU64) -> Option<usize> {
        let mut q = self.lock();
        if q.closed || q.dead {
            return None;
        }
        let taken = (self.capacity - q.events.len()).min(events.len());
        q.events.extend(events.into_iter().take(taken));
        peak.fetch_max(q.events.len() as u64, Ordering::SeqCst);
        drop(q);
        if taken > 0 {
            self.ready.notify_one();
        }
        Some(taken)
    }

    /// Moves the oldest events, up to [`TAKE_EVENTS`], into `held`,
    /// blocking while the queue is empty and open; `false` once it is
    /// closed and drained.
    fn take(&self, held: &mut VecDeque<StreamEvent>) -> bool {
        let mut q = self.lock();
        loop {
            if !q.events.is_empty() {
                let n = q.events.len().min(TAKE_EVENTS);
                held.extend(q.events.drain(..n));
                return true;
            }
            if q.closed {
                return false;
            }
            q = self.ready.wait(q).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// The offering side is done: the worker ends after draining.
    fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_all();
    }

    /// The consuming side is gone: queued events are dropped and offers
    /// answer [`Offer::Dead`].
    fn abandon(&self) {
        let mut q = self.lock();
        q.dead = true;
        q.events.clear();
    }
}

/// Result of offering one `EVENTS` batch to the queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Offer {
    /// The whole batch was accounted for: `accepted` enqueued, `shed`
    /// dropped by policy.
    Accepted {
        /// Events enqueued.
        accepted: u32,
        /// Events dropped (shed sessions only).
        shed: u32,
    },
    /// The queue filled after `accepted` events; the client should resend
    /// the remainder after `retry_ms`.
    Busy {
        /// Events enqueued before the queue filled.
        accepted: u32,
        /// Suggested backoff, milliseconds.
        retry_ms: u32,
    },
    /// The worker is gone (engine error or panic); [`Session::finish`]
    /// returns the cause.
    Dead,
}

/// One open tenant session (owned by its connection thread).
pub struct Session {
    metrics: Arc<SessionMetrics>,
    queue: Arc<EventQueue>,
    worker: Option<JoinHandle<Result<RunReport, String>>>,
    policy: SharedPolicy,
    shed: bool,
    retry_ms: u32,
}

impl Session {
    /// Validates the configuration, creates the output directory, and
    /// spawns the engine worker. `push` (when given) receives `EPOCH`
    /// frames as windows close.
    pub fn spawn(config: SessionConfig, push: Option<PushSink>) -> Result<Session, GloveError> {
        config.stream.validate()?;
        config.policy.validate()?;
        if let Some(dir) = &config.out_dir {
            std::fs::create_dir_all(dir).map_err(|e| {
                GloveError::InvalidConfig(format!(
                    "cannot create tenant output dir {}: {e}",
                    dir.display()
                ))
            })?;
        }
        let metrics = Arc::new(SessionMetrics::new(
            config.tenant.clone(),
            config.stream.glove.k,
        ));
        let (shed, retry_ms) = (config.shed, config.retry_ms);
        let policy = glove_core::policy::shared(config.policy.clone());
        let queue = Arc::new(EventQueue::new(config.queue_events.max(1)));
        let worker = {
            let metrics = Arc::clone(&metrics);
            let policy = Arc::clone(&policy);
            let queue = Arc::clone(&queue);
            std::thread::Builder::new()
                .name(format!("glove-serve-{}", config.tenant))
                .spawn(move || run_worker(config, queue, metrics, policy, push))
                .map_err(|e| GloveError::InvalidConfig(format!("cannot spawn worker: {e}")))?
        };
        Ok(Session {
            metrics,
            queue,
            worker: Some(worker),
            policy,
            shed,
            retry_ms,
        })
    }

    /// Swaps the session's policy plane (the `RECONFIG` handler). The
    /// plane is validated before installation; the engine picks it up at
    /// its next window boundary — the window currently filling keeps the
    /// policy it opened under. Returns the installed rule count.
    pub fn swap_policy(&self, plane: PolicyPlane) -> Result<u32, GloveError> {
        plane.validate()?;
        let rules = plane.rules.len() as u32;
        *self.policy.write().expect("policy lock poisoned") = plane;
        Ok(rules)
    }

    /// The session's live counters.
    pub fn metrics(&self) -> &Arc<SessionMetrics> {
        &self.metrics
    }

    /// Offers a batch to the bounded queue without blocking. See
    /// [`Offer`] for the three outcomes.
    pub fn offer(&mut self, events: Vec<StreamEvent>) -> Offer {
        let total = events.len();
        let Some(taken) = self.queue.push(events, &self.metrics.queue_peak) else {
            return Offer::Dead;
        };
        self.metrics
            .accepted
            .fetch_add(taken as u64, Ordering::SeqCst);
        let accepted = taken as u32;
        let rest = (total - taken) as u32;
        if rest == 0 {
            Offer::Accepted { accepted, shed: 0 }
        } else if self.shed {
            self.metrics
                .shed
                .fetch_add(u64::from(rest), Ordering::SeqCst);
            Offer::Accepted {
                accepted,
                shed: rest,
            }
        } else {
            Offer::Busy {
                accepted,
                retry_ms: self.retry_ms,
            }
        }
    }

    /// Closes the queue, drains the worker (every accepted event is
    /// consumed before the engine's final flush), and returns the final
    /// report — or the engine/sink failure that ended the run early.
    pub fn finish(&mut self) -> Result<RunReport, String> {
        self.queue.close();
        match self.worker.take() {
            Some(handle) => handle
                .join()
                .map_err(|_| "session worker panicked".to_string())?,
            None => self
                .metrics
                .final_report()
                .ok_or_else(|| "session already finished without a report".to_string()),
        }
    }
}

impl Drop for Session {
    /// A session dropped without [`Session::finish`] still ends its
    /// worker: the queue closes, the worker drains it and finishes.
    fn drop(&mut self) {
        self.queue.close();
    }
}

/// The blocking queue-drain iterator the worker feeds to `run_events`.
struct QueueIter {
    queue: Arc<EventQueue>,
    /// Events taken from the queue and not yet handed to the engine.
    held: VecDeque<StreamEvent>,
}

impl Drop for QueueIter {
    /// The worker is done with the queue, normally or not: later offers
    /// must learn it.
    fn drop(&mut self) {
        self.queue.abandon();
    }
}

impl Iterator for QueueIter {
    type Item = Result<StreamEvent, GloveError>;

    fn next(&mut self) -> Option<Self::Item> {
        // `None` once the session closed the queue and it drained: the
        // clean end of the stream.
        if self.held.is_empty() && !self.queue.take(&mut self.held) {
            return None;
        }
        self.held.pop_front().map(Ok)
    }
}

/// The observer bound to the socket: persists epochs, pushes `EPOCH`
/// frames, and mirrors progress counters into the shared metrics. A failed
/// epoch write ends the run at that epoch.
struct ServeObserver {
    tenant: String,
    out_dir: Option<PathBuf>,
    epoch_writer: Option<Arc<EpochWriteFn>>,
    push: Option<PushSink>,
    metrics: Arc<SessionMetrics>,
}

impl Observer for ServeObserver {
    fn on_epoch(&mut self, epoch: &EpochOutput) -> std::io::Result<()> {
        if let (Some(writer), Some(dir)) = (&self.epoch_writer, &self.out_dir) {
            let path = dir.join(format!("epoch-{:04}.txt", epoch.epoch));
            writer(&epoch.output.dataset, &path).map_err(|e| {
                std::io::Error::new(e.kind(), format!("writing {}: {e}", path.display()))
            })?;
        }
        self.metrics.epochs.fetch_add(1, Ordering::SeqCst);
        if let Some(push) = &self.push {
            let frame = Frame::Epoch {
                tenant: self.tenant.clone(),
                epoch: epoch.epoch,
                window_start_min: epoch.window_start_min,
                groups: epoch.output.dataset.fingerprints.len() as u64,
                users: epoch.output.dataset.num_users() as u64,
            };
            // A peer that stopped reading must not stall or kill the run;
            // epoch files and the final report are the durable record.
            if let Ok(mut w) = push.lock() {
                let _ = write_frame(&mut *w, &frame);
            }
        }
        Ok(())
    }

    fn on_progress(&mut self, merges: u64, pairs_computed: u64, pairs_pruned: u64) {
        *self.metrics.progress.lock().expect("metrics lock") =
            (merges, pairs_computed, pairs_pruned);
    }
}

fn run_worker(
    config: SessionConfig,
    queue: Arc<EventQueue>,
    metrics: Arc<SessionMetrics>,
    policy: SharedPolicy,
    push: Option<PushSink>,
) -> Result<RunReport, String> {
    let SessionConfig {
        tenant,
        stream,
        out_dir,
        epoch_writer,
        ..
    } = config;
    let mut observer = ServeObserver {
        tenant: tenant.clone(),
        out_dir: out_dir.clone(),
        epoch_writer,
        push,
        metrics: Arc::clone(&metrics),
    };
    let mut events = QueueIter {
        queue,
        held: VecDeque::new(),
    };
    let outcome = RunBuilder::new(stream.glove)
        .stream(stream)
        .keep_epochs(false)
        .shared_policy(policy)
        .run_events(&tenant, &mut events, &mut observer)
        .map_err(|e| e.to_string())?;

    let mut report = outcome.report;
    if let RunDetail::Stream(stats) = &mut report.detail {
        stats.shed_events = metrics.shed();
        report.samples_in = usize::try_from(stats.events + stats.shed_events).unwrap_or(usize::MAX);
    }
    // Best-effort durable record (flushed per record, so even a killed
    // daemon keeps it): the wire REPORT and the metrics are authoritative.
    if let Some(dir) = &out_dir {
        if let Ok(file) = std::fs::File::create(dir.join("report.jsonl")) {
            let mut sink = JsonlReportWriter::new(std::io::BufWriter::new(file));
            sink.on_report(&report);
        }
    }
    *metrics.final_report.lock().expect("metrics lock") = Some(report.clone());
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use glove_core::stream::{events_of, run_stream};
    use glove_core::Sample;

    fn two_user_events(n: u32) -> Vec<StreamEvent> {
        (0..n)
            .flat_map(|t| {
                [0u32, 1u32].map(|user| StreamEvent {
                    user,
                    sample: Sample::point(i64::from(t) * 100, 0, t + 1),
                })
            })
            .collect()
    }

    fn config(window_min: u32) -> StreamConfig {
        StreamConfig {
            window_min,
            glove: glove_core::GloveConfig {
                threads: 1,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn session_matches_direct_engine_run() {
        let events = two_user_events(200);
        let captured: Arc<Mutex<Vec<Dataset>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&captured);
        let writer: Arc<EpochWriteFn> = Arc::new(move |ds: &Dataset, _path: &Path| {
            sink.lock().unwrap().push(ds.clone());
            Ok(())
        });
        let dir = std::env::temp_dir().join(format!("glove-serve-session-{}", std::process::id()));
        let mut session = Session::spawn(
            SessionConfig {
                tenant: "t".into(),
                shed: false,
                stream: config(60),
                policy: PolicyPlane::uniform(),
                queue_events: 8,
                retry_ms: 1,
                out_dir: Some(dir.clone()),
                epoch_writer: Some(writer),
            },
            None,
        )
        .unwrap();

        // Feed in small batches, honouring BUSY like a client would.
        let mut pending = events.clone();
        while !pending.is_empty() {
            let batch: Vec<_> = pending.drain(..pending.len().min(16)).collect();
            let mut rest = batch;
            loop {
                match session.offer(rest.clone()) {
                    Offer::Accepted { accepted, shed } => {
                        assert_eq!(shed, 0);
                        assert_eq!(accepted as usize, rest.len());
                        break;
                    }
                    Offer::Busy { accepted, .. } => {
                        rest.drain(..accepted as usize);
                        std::thread::sleep(std::time::Duration::from_millis(1));
                    }
                    Offer::Dead => panic!("worker died"),
                }
            }
        }
        let report = session.finish().unwrap();
        let stats = report.detail.as_stream().unwrap();
        assert_eq!(stats.events, events.len() as u64);
        assert_eq!(stats.shed_events, 0);
        assert_eq!(session.metrics().accepted(), events.len() as u64);

        let reference = run_stream("t", events, config(60)).unwrap();
        let got = captured.lock().unwrap();
        assert_eq!(got.len(), reference.epochs.len());
        for (a, b) in got.iter().zip(&reference.epochs) {
            assert_eq!(a.fingerprints, b.output.dataset.fingerprints);
        }
        // Identical modulo wall-clock timing.
        let strip = |e: &glove_core::stream::EpochStat| {
            let mut e = e.clone();
            e.elapsed_s = 0.0;
            e
        };
        assert_eq!(
            stats.per_epoch.iter().map(strip).collect::<Vec<_>>(),
            reference
                .stats
                .per_epoch
                .iter()
                .map(strip)
                .collect::<Vec<_>>()
        );
        // The flushed-per-record report file exists and parses.
        let text = std::fs::read_to_string(dir.join("report.jsonl")).unwrap();
        let back = RunReport::from_json(text.lines().next().unwrap()).unwrap();
        assert_eq!(back.detail.as_stream().unwrap().events, stats.events);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reconfig_applies_at_next_window() {
        use glove_core::policy::{PolicyOverride, PolicyRule};
        let feed = |t0: u32, t1: u32| -> Vec<StreamEvent> {
            (t0..t1)
                .flat_map(|t| {
                    (0u32..6).map(move |user| StreamEvent {
                        user,
                        sample: Sample::point(i64::from(user) * 100, 0, t),
                    })
                })
                .collect()
        };
        let mut session = Session::spawn(
            SessionConfig {
                tenant: "tune".into(),
                shed: false,
                stream: config(60),
                policy: PolicyPlane::uniform(),
                queue_events: 1024,
                retry_ms: 1,
                out_dir: None,
                epoch_writer: None,
            },
            None,
        )
        .unwrap();

        // Window 0 runs under the uniform plane.
        assert!(matches!(session.offer(feed(1, 60)), Offer::Accepted { .. }));

        // Retune mid-run: k = 6 from epoch 1 on. The rule starts at epoch 1
        // and the swap happens-before any window-1 event is offered, so the
        // outcome is deterministic no matter when the worker drains window 0.
        let mut plane = PolicyPlane::uniform();
        plane.rules.push(PolicyRule {
            from_epoch: 1,
            to_epoch: None,
            cohort: None,
            set: PolicyOverride {
                k: Some(6),
                ..PolicyOverride::default()
            },
        });
        assert_eq!(session.swap_policy(plane).unwrap(), 1);

        assert!(matches!(
            session.offer(feed(61, 120)),
            Offer::Accepted { .. }
        ));
        let report = session.finish().unwrap();
        let stats = report.detail.as_stream().unwrap();
        let ks: Vec<usize> = stats.per_epoch.iter().map(|e| e.policy_k).collect();
        assert_eq!(ks, [2, 6]);
    }

    #[test]
    fn shed_session_bounds_the_queue_and_books_drops() {
        // A deliberately stalled consumer: the writer sleeps, so the tiny
        // queue fills and the shed ledger must pick up the overflow.
        let writer: Arc<EpochWriteFn> = Arc::new(|_ds: &Dataset, _path: &Path| {
            std::thread::sleep(std::time::Duration::from_millis(30));
            Ok(())
        });
        let dir = std::env::temp_dir().join(format!("glove-serve-shed-{}", std::process::id()));
        let mut session = Session::spawn(
            SessionConfig {
                tenant: "shed".into(),
                shed: true,
                stream: config(10),
                policy: PolicyPlane::uniform(),
                queue_events: 4,
                retry_ms: 1,
                out_dir: Some(dir.clone()),
                epoch_writer: Some(writer),
            },
            None,
        )
        .unwrap();
        let events = two_user_events(600);
        let mut offered = 0u64;
        let mut accepted = 0u64;
        let mut shed = 0u64;
        for chunk in events.chunks(50) {
            offered += chunk.len() as u64;
            match session.offer(chunk.to_vec()) {
                Offer::Accepted {
                    accepted: a,
                    shed: s,
                } => {
                    accepted += u64::from(a);
                    shed += u64::from(s);
                }
                other => panic!("shed session never answers {other:?}"),
            }
        }
        let report = session.finish().unwrap();
        let stats = report.detail.as_stream().unwrap();
        assert!(stats.shed_events > 0, "stall must shed: {stats:?}");
        assert_eq!(stats.shed_events, shed);
        assert_eq!(stats.events, accepted);
        assert_eq!(stats.events + stats.shed_events, offered);
        assert_eq!(report.samples_in as u64, offered);
        assert!(
            session.metrics().queue_peak() <= 4,
            "bounded queue exceeded its capacity: {}",
            session.metrics().queue_peak()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn out_of_order_events_kill_the_worker_with_engine_error() {
        let mut session = Session::spawn(
            SessionConfig {
                tenant: "ooo".into(),
                shed: false,
                stream: config(60),
                policy: PolicyPlane::uniform(),
                queue_events: 4,
                retry_ms: 1,
                out_dir: None,
                epoch_writer: None,
            },
            None,
        )
        .unwrap();
        let late_then_early = vec![
            StreamEvent {
                user: 0,
                sample: Sample::point(0, 0, 100),
            },
            StreamEvent {
                user: 1,
                sample: Sample::point(0, 0, 5),
            },
        ];
        let _ = session.offer(late_then_early);
        let err = session.finish().unwrap_err();
        assert!(err.contains("out-of-order"), "unexpected error: {err}");
    }

    #[test]
    fn epoch_sink_failure_aborts_the_run() {
        let writer: Arc<EpochWriteFn> =
            Arc::new(|_ds: &Dataset, _path: &Path| Err(std::io::Error::other("disk full")));
        let mut session = Session::spawn(
            SessionConfig {
                tenant: "sink".into(),
                shed: false,
                stream: config(10),
                policy: PolicyPlane::uniform(),
                queue_events: 64,
                retry_ms: 1,
                out_dir: Some(
                    std::env::temp_dir()
                        .join(format!("glove-serve-sinkfail-{}", std::process::id())),
                ),
                epoch_writer: Some(writer),
            },
            None,
        )
        .unwrap();
        let mut rest = two_user_events(400);
        loop {
            match session.offer(rest.clone()) {
                Offer::Accepted { .. } | Offer::Dead => break,
                Offer::Busy { accepted, .. } => {
                    rest.drain(..accepted as usize);
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
            }
        }
        let err = session.finish().unwrap_err();
        assert!(err.contains("disk full"), "unexpected error: {err}");
    }

    #[test]
    fn snapshot_report_carries_live_counters() {
        let mut session = Session::spawn(
            SessionConfig {
                tenant: "snap".into(),
                shed: true,
                stream: config(1_000_000),
                policy: PolicyPlane::uniform(),
                queue_events: 2,
                retry_ms: 1,
                out_dir: None,
                epoch_writer: None,
            },
            None,
        )
        .unwrap();
        let ds_events = events_of(
            &glove_core::Dataset::new(
                "snap-src",
                vec![
                    glove_core::Fingerprint::new(0, vec![Sample::point(0, 0, 1)]).unwrap(),
                    glove_core::Fingerprint::new(1, vec![Sample::point(0, 0, 2)]).unwrap(),
                ],
            )
            .unwrap(),
        );
        let _ = session.offer(ds_events);
        let snap = session.metrics().snapshot_report();
        assert_eq!(snap.engine, "glove-serve");
        assert_eq!(snap.dataset, "snap");
        let report = session.finish().unwrap();
        assert_eq!(report.engine, "glove-stream");
        // After the run, the snapshot is the final report.
        assert_eq!(session.metrics().snapshot_report(), report);
    }
}
