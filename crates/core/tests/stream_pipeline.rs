//! The stream pipeline: `RunBuilder::run_events` (and `run_stream`, which
//! wraps it) anonymizes each closed window on a stage thread while the next
//! one fills. These tests pin what that may and may not change:
//!
//! * **Parity** — every epoch and every `StreamStats` counter equals a
//!   hand-driven `StreamEngine::push` loop, the inline reference, across
//!   carry policies, under-k policies and policy planes.
//! * **Bound** — the hand-off is a rendezvous: when epoch `d` reaches the
//!   observer, the event pull has gone no further than the first event of
//!   window `d + 2`.
//! * **Input errors** — an event error inside a window still delivers
//!   exactly the epochs the inline loop delivers before it, then returns
//!   the error, and never hangs.
//! * **Sink errors** — an observer that fails on an epoch ends the run
//!   there: no later epoch is delivered, the pull stops, and the run
//!   returns `GloveError::EpochSink` without a hang.

use glove_core::api::{NullObserver, Observer, RunBuilder};
use glove_core::glove::GloveStats;
use glove_core::policy::{shared, CohortSpec, PolicyOverride, PolicyPlane, PolicyRule};
use glove_core::stream::{EpochOutput, StreamEngine, StreamEvent, StreamStats};
use glove_core::{CarryPolicy, Fingerprint, GloveConfig, GloveError, StreamConfig, UnderKPolicy};
use glove_synth::{ScenarioConfig, ScenarioEvents};
use std::cell::Cell;
use std::rc::Rc;
use std::time::Duration;

/// A seeded metro event stream: `users` subscribers over `days` days.
fn metro_events(users: usize, days: u32, seed: u64) -> Vec<StreamEvent> {
    let mut cfg = ScenarioConfig::metro_like(users);
    cfg.span_days = days;
    cfg.num_towers = 80;
    cfg.seed = seed;
    ScenarioEvents::new(&cfg).collect()
}

fn stream_config(window_min: u32, carry: CarryPolicy, under_k: UnderKPolicy) -> StreamConfig {
    StreamConfig {
        window_min,
        carry,
        under_k,
        glove: GloveConfig {
            threads: 2,
            ..GloveConfig::default()
        },
    }
}

/// The planes every parity case runs under.
fn planes() -> Vec<(&'static str, PolicyPlane)> {
    let floor = PolicyPlane {
        cohorts: vec![CohortSpec {
            name: "floor".into(),
            users: vec![0, 3, 7, 11, 19],
        }],
        rules: vec![PolicyRule {
            from_epoch: 0,
            to_epoch: None,
            cohort: Some("floor".into()),
            set: PolicyOverride {
                k: Some(4),
                ..PolicyOverride::default()
            },
        }],
    };
    let mut shorter = PolicyPlane::uniform();
    shorter.rules.push(PolicyRule {
        from_epoch: 2,
        to_epoch: None,
        cohort: None,
        set: PolicyOverride {
            window_min: Some(120),
            ..PolicyOverride::default()
        },
    });
    vec![
        ("uniform", PolicyPlane::uniform()),
        ("cohort floor", floor),
        ("window from epoch 2", shorter),
    ]
}

/// An epoch with its wall-clock and process-wide fields zeroed: what must
/// be identical however the run was driven.
fn canon_epoch(epoch: &EpochOutput) -> (u64, u64, String, Vec<Fingerprint>, GloveStats) {
    let mut stats = epoch.output.stats.clone();
    stats.elapsed_s = 0.0;
    stats.ledger.peak_rss_bytes = 0;
    (
        epoch.epoch,
        epoch.window_start_min,
        epoch.output.dataset.name.clone(),
        epoch.output.dataset.fingerprints.clone(),
        stats,
    )
}

/// Run statistics with every `elapsed_s` zeroed (and the process-wide
/// peak RSS, which depends on whatever ran before in this process).
fn canon_stats(mut stats: StreamStats) -> StreamStats {
    stats.elapsed_s = 0.0;
    stats.ledger.peak_rss_bytes = 0;
    for epoch in &mut stats.per_epoch {
        epoch.elapsed_s = 0.0;
    }
    stats
}

/// The inline reference: a hand-driven `StreamEngine::push` loop.
fn inline_run(
    events: &[StreamEvent],
    config: StreamConfig,
    plane: &PolicyPlane,
) -> (Vec<EpochOutput>, StreamStats) {
    let mut engine = StreamEngine::with_policy("metro", config, shared(plane.clone())).unwrap();
    let mut epochs = Vec::new();
    for &event in events {
        epochs.extend(engine.push(event).unwrap());
    }
    let (last, stats) = engine.finish().unwrap();
    epochs.extend(last);
    (epochs, stats)
}

#[test]
fn pipelined_runs_match_the_inline_engine() {
    for seed in [11, 12] {
        let events = metro_events(40, 3, seed);
        for carry in [CarryPolicy::Fresh, CarryPolicy::Sticky] {
            for under_k in [UnderKPolicy::Suppress, UnderKPolicy::Defer] {
                for (plane_name, plane) in planes() {
                    let case = format!("seed {seed}, {carry:?}, {under_k:?}, {plane_name}");
                    let config = stream_config(360, carry, under_k);
                    let (reference, ref_stats) = inline_run(&events, config, &plane);
                    assert!(reference.len() >= 4, "{case}: too few epochs to pipeline");
                    let expected: Vec<_> = reference.iter().map(canon_epoch).collect();
                    let ref_stats = canon_stats(ref_stats);

                    let built = RunBuilder::new(config.glove)
                        .stream(config)
                        .policy(plane.clone())
                        .run_events(
                            "metro",
                            &mut events.iter().copied().map(Ok),
                            &mut NullObserver,
                        )
                        .unwrap();
                    let got: Vec<_> = built.output.epochs().iter().map(canon_epoch).collect();
                    assert_eq!(got, expected, "{case}: run_events epochs");
                    let stats = built.report.detail.as_stream().unwrap().clone();
                    assert_eq!(canon_stats(stats), ref_stats, "{case}: run_events stats");
                }
            }
        }
    }
}

/// Records, for every delivered epoch, how many events the pull had
/// yielded when it arrived; fails on epoch `fail_at`, if set.
#[derive(Default)]
struct PullAtEpoch {
    pulled: Rc<Cell<usize>>,
    seen: Vec<(u64, usize)>,
    epochs: Vec<EpochOutput>,
    fail_at: Option<u64>,
}

impl Observer for PullAtEpoch {
    fn on_epoch(&mut self, epoch: &EpochOutput) -> std::io::Result<()> {
        self.seen.push((epoch.epoch, self.pulled.get()));
        self.epochs.push(epoch.clone());
        if self.fail_at == Some(epoch.epoch) {
            return Err(std::io::Error::other("disk full"));
        }
        Ok(())
    }
}

#[test]
fn an_epoch_arrives_before_the_pull_passes_the_window_after_next() {
    let window = 720;
    let events = metro_events(60, 4, 21);
    let config = stream_config(window, CarryPolicy::Fresh, UnderKPolicy::Suppress);
    let (reference, _) = inline_run(&events, config, &PolicyPlane::uniform());
    // Every window publishes, so epoch d is window d.
    for (d, epoch) in reference.iter().enumerate() {
        assert_eq!(epoch.window_start_min, d as u64 * u64::from(window));
    }
    let first_of = |w: usize| {
        let start = w as u64 * u64::from(window);
        events.iter().position(|e| u64::from(e.sample.t) >= start)
    };

    let mut observer = PullAtEpoch::default();
    let pulled = Rc::clone(&observer.pulled);
    let mut pull = events.iter().map(|&e| {
        pulled.set(pulled.get() + 1);
        Ok(e)
    });
    RunBuilder::new(config.glove)
        .stream(config)
        .keep_epochs(false)
        .run_events("metro", &mut pull, &mut observer)
        .unwrap();

    assert_eq!(observer.seen.len(), reference.len());
    for &(d, pulled) in &observer.seen {
        let d = d as usize;
        let closed_by = first_of(d + 1).map_or(events.len(), |i| i + 1);
        assert!(
            pulled >= closed_by,
            "epoch {d} delivered after {pulled} events, before its window closed at {closed_by}"
        );
        if let Some(bound) = first_of(d + 2) {
            assert!(
                pulled <= bound + 1,
                "epoch {d} delivered after {pulled} events; the first event of window {} is \
                 event {}",
                d + 2,
                bound + 1
            );
        }
    }
}

/// Runs `body` on its own thread; a body still running after 10 s fails
/// the test instead of hanging it.
fn within_10s<T: Send + 'static>(body: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(body());
    });
    rx.recv_timeout(Duration::from_secs(10))
        .expect("the pipeline hung")
}

#[test]
fn an_input_error_delivers_the_closed_windows_first() {
    let window = 720u32;
    let events = metro_events(40, 4, 31);
    let config = stream_config(window, CarryPolicy::Sticky, UnderKPolicy::Defer);
    // Split inside window 3: the events before `cut`, then a bad one.
    let start3 = 3 * window;
    let first3 = events.iter().position(|e| e.sample.t >= start3).unwrap();
    let cut = first3 + 5;
    assert!(
        events[cut].sample.t < start3 + window,
        "cut lands inside window 3"
    );
    let late = StreamEvent {
        user: 0,
        sample: glove_core::Sample::point(0, 0, start3 - 1),
    };

    // The inline loop: epochs before the out-of-order event.
    let mut engine = StreamEngine::new("metro", config).unwrap();
    let mut expected = Vec::new();
    for &event in &events[..cut] {
        expected.extend(engine.push(event).unwrap());
    }
    assert!(matches!(
        engine.push(late),
        Err(GloveError::OutOfOrderEvent(_))
    ));
    assert_eq!(expected.len(), 3, "windows 0–2 published before the error");
    let expected: Vec<_> = expected.iter().map(canon_epoch).collect();

    let failures = [
        (Ok(late), "out-of-order event"),
        (
            Err(GloveError::InvalidDataset("truncated event file".into())),
            "truncated event file",
        ),
    ];
    for (failure, error) in failures {
        let head = events[..cut].to_vec();
        let (result, delivered) = within_10s(move || {
            let mut observer = PullAtEpoch::default();
            let mut feed = head.into_iter().map(Ok).chain(std::iter::once(failure));
            let result = RunBuilder::new(config.glove)
                .stream(config)
                .keep_epochs(false)
                .run_events("metro", &mut feed, &mut observer)
                .map(|_| ());
            (result, observer.epochs)
        });
        let got: Vec<_> = delivered.iter().map(canon_epoch).collect();
        assert_eq!(
            got.len(),
            expected.len(),
            "epochs delivered before {result:?}"
        );
        assert_eq!(got, expected, "epochs delivered before {result:?}");
        let message = result.expect_err("the bad event fails the run").to_string();
        assert!(message.contains(error), "{message}");
    }
}

#[test]
fn a_failing_sink_ends_the_run_at_its_epoch() {
    // The input of the bound test above: every window publishes, so epoch
    // d is window d, and the stream holds 8 windows.
    let window = 720;
    let events = metro_events(60, 4, 21);
    let config = stream_config(window, CarryPolicy::Fresh, UnderKPolicy::Suppress);
    let first3 = events
        .iter()
        .position(|e| e.sample.t >= 3 * window)
        .expect("a fourth window");

    let (result, seen, pulled) = within_10s(move || {
        let mut observer = PullAtEpoch {
            fail_at: Some(1),
            ..PullAtEpoch::default()
        };
        let pulled = Rc::clone(&observer.pulled);
        let mut pull = events.into_iter().map(|e| {
            pulled.set(pulled.get() + 1);
            Ok(e)
        });
        let result = RunBuilder::new(config.glove)
            .stream(config)
            .keep_epochs(false)
            .run_events("metro", &mut pull, &mut observer)
            .map(|_| ());
        (result, observer.seen, pulled.get())
    });

    let err = result.expect_err("the failed epoch fails the run");
    assert!(
        matches!(&err, GloveError::EpochSink { epoch: 1, message } if message.contains("disk full")),
        "{err:?}"
    );
    assert!(err.to_string().contains("epoch 1"), "{err}");
    let delivered: Vec<u64> = seen.iter().map(|&(d, _)| d).collect();
    assert_eq!(delivered, [0, 1], "no epoch after the failed one");
    assert!(
        pulled <= first3 + 1,
        "the pull went on to event {pulled}; the first event of window 3 is event {}",
        first3 + 1
    );
}
