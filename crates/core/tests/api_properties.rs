//! Properties of the unified run API (`glove_core::api`):
//!
//! * **Equivalence** — `RunBuilder` output is byte-identical to
//!   `anonymize` (monolithic and sharded) and `run_stream` (the PR 2/3
//!   exactness anchors must survive the new surface);
//! * **trait-object safety** — engines run behind the `Box<dyn Anonymizer>`
//!   that `RunBuilder::build` returns;
//! * **builder validation** — invalid configurations fail at `build()`, and
//!   `prepare` fails where `run` would;
//! * **report round-trip** — reports of real runs survive JSON
//!   serialization exactly;
//! * **observer ordering** — the callback contract of
//!   `glove_core::api::observer` holds on real runs.

use glove_core::api::{
    Anonymizer, NullObserver, Observer, PhaseMetric, RunBuilder, RunOutput, RunReport,
};
use glove_core::glove::anonymize;
use glove_core::policy::{CohortSpec, PolicyOverride, PolicyPlane, PolicyRule};
use glove_core::prelude::*;
use glove_core::shard::ShardStat;
use glove_core::stream::{events_of, run_stream, EpochOutput};

/// Zeroes the wall-clock and OS-measured fields of a stream detail so two
/// runs of the same work compare equal (timing and resident-set size are
/// the legitimately non-deterministic parts of a report).
fn normalize_stream(report: &RunReport) -> glove_core::stream::StreamStats {
    let mut stats = report.detail.as_stream().expect("stream detail").clone();
    stats.elapsed_s = 0.0;
    stats.ledger.peak_rss_bytes = 0;
    for epoch in &mut stats.per_epoch {
        epoch.elapsed_s = 0.0;
    }
    stats
}

/// Deterministic mixed-activity dataset: two spatial clusters, varying
/// sample counts and slight temporal jitter.
fn dataset(n: usize) -> Dataset {
    let fps = (0..n)
        .map(|u| {
            let cluster = (u % 2) as i64;
            let extra = u % 4;
            let mut points = vec![(
                cluster * 150_000 + (u as i64 % 9) * 200,
                0,
                30 + u as u32 % 7,
            )];
            for e in 0..extra {
                points.push((
                    cluster * 150_000 + 400 * (e as i64 + 1),
                    500,
                    400 + 350 * e as u32 + u as u32 % 5,
                ));
            }
            Fingerprint::from_points(u as u32, &points).unwrap()
        })
        .collect();
    Dataset::new("api-prop", fps).unwrap()
}

#[test]
fn batch_builder_output_is_identical_to_legacy_anonymize() {
    let ds = dataset(24);
    for k in [2usize, 3] {
        let config = GloveConfig {
            k,
            threads: 1,
            ..GloveConfig::default()
        };
        let legacy = anonymize(&ds, &config).unwrap();
        let outcome = RunBuilder::new(config).run(&ds).unwrap();
        let published = outcome.expect_dataset();
        assert_eq!(published.name, legacy.dataset.name);
        assert_eq!(
            published.fingerprints, legacy.dataset.fingerprints,
            "k={k}: builder diverged from legacy batch output"
        );
    }
}

#[test]
fn sharded_builder_output_is_identical_to_legacy_anonymize() {
    let ds = dataset(32);
    for by in [ShardBy::Activity, ShardBy::Spatial] {
        let policy = ShardPolicy { shards: 4, by };
        let config = GloveConfig {
            shard: Some(policy),
            threads: 1,
            ..GloveConfig::default()
        };
        let legacy = anonymize(&ds, &config).unwrap();
        // Mode selected explicitly, from a shard-free config.
        let outcome = RunBuilder::new(GloveConfig {
            shard: None,
            ..config
        })
        .sharded(policy)
        .run(&ds)
        .unwrap();
        assert_eq!(outcome.report.engine, "glove-sharded");
        let stats = outcome.report.detail.as_glove().unwrap();
        assert_eq!(stats.per_shard.len(), legacy.stats.per_shard.len());
        assert_eq!(outcome.report.pairs_computed, legacy.stats.pairs_computed);
        assert_eq!(
            outcome.expect_dataset().fingerprints,
            legacy.dataset.fingerprints,
            "{by:?}: builder diverged from legacy sharded output"
        );
    }
}

#[test]
fn stream_builder_epochs_are_identical_to_legacy_run_stream() {
    let ds = dataset(18);
    let events = events_of(&ds);
    for (window, carry) in [
        (300u32, CarryPolicy::Fresh),
        (300, CarryPolicy::Sticky),
        (10_000, CarryPolicy::Fresh),
    ] {
        let config = StreamConfig {
            window_min: window,
            carry,
            under_k: UnderKPolicy::Defer,
            glove: GloveConfig {
                threads: 1,
                ..GloveConfig::default()
            },
        };
        let legacy = run_stream(ds.name.clone(), events.iter().copied(), config).unwrap();
        let builder = || RunBuilder::new(config.glove).stream(config);
        let from_dataset = builder().run(&ds).unwrap();
        let from_events = builder()
            .run_events(
                &ds.name,
                &mut events.iter().copied().map(Ok),
                &mut NullObserver,
            )
            .unwrap();
        for outcome in [from_dataset, from_events] {
            let epochs = outcome.output.epochs();
            assert_eq!(epochs.len(), legacy.epochs.len(), "window={window}");
            for (new, old) in epochs.iter().zip(&legacy.epochs) {
                assert_eq!(new.epoch, old.epoch);
                assert_eq!(new.window_start_min, old.window_start_min);
                assert_eq!(
                    new.output.dataset.fingerprints, old.output.dataset.fingerprints,
                    "window={window}: epoch {} diverged",
                    new.epoch
                );
            }
            assert_eq!(
                outcome.report.detail.as_stream().map(|s| s.events),
                Some(legacy.stats.events)
            );
        }
    }
}

#[test]
fn uniform_policy_plane_is_byte_identical_across_engines() {
    // The PR 10 exactness anchor: attaching `PolicyPlane::uniform()` to a
    // run must be a no-op for every engine mode — batch, sharded, and both
    // stream carries — down to the published fingerprint bytes and (for
    // streams) the full normalized stats report.
    let ds = dataset(24);
    let config = GloveConfig {
        threads: 1,
        ..GloveConfig::default()
    };

    // Batch.
    let plain = RunBuilder::new(config).run(&ds).unwrap();
    let planed = RunBuilder::new(config)
        .policy(PolicyPlane::uniform())
        .run(&ds)
        .unwrap();
    assert_eq!(
        planed.expect_dataset().fingerprints,
        plain.expect_dataset().fingerprints,
        "batch: uniform plane changed the published bytes"
    );

    // Sharded.
    let policy = ShardPolicy::activity(4);
    let plain = RunBuilder::new(config).sharded(policy).run(&ds).unwrap();
    let planed = RunBuilder::new(config)
        .sharded(policy)
        .policy(PolicyPlane::uniform())
        .run(&ds)
        .unwrap();
    assert_eq!(
        planed.expect_dataset().fingerprints,
        plain.expect_dataset().fingerprints,
        "sharded: uniform plane changed the published bytes"
    );

    // Stream, both carries (Fresh regroups every window; Sticky carries
    // the grouping forward — the plane must be invisible to both paths).
    for carry in [CarryPolicy::Fresh, CarryPolicy::Sticky] {
        let stream_cfg = StreamConfig {
            window_min: 300,
            carry,
            glove: config,
            ..StreamConfig::default()
        };
        let plain = RunBuilder::new(config).stream(stream_cfg).run(&ds).unwrap();
        let planed = RunBuilder::new(config)
            .stream(stream_cfg)
            .policy(PolicyPlane::uniform())
            .run(&ds)
            .unwrap();
        let (a, b) = (planed.output.epochs(), plain.output.epochs());
        assert_eq!(a.len(), b.len(), "{carry:?}: epoch count diverged");
        for (new, old) in a.iter().zip(b) {
            assert_eq!(new.epoch, old.epoch);
            assert_eq!(
                new.output.dataset.fingerprints, old.output.dataset.fingerprints,
                "{carry:?}: uniform plane changed epoch {} bytes",
                new.epoch
            );
        }
        assert_eq!(
            normalize_stream(&planed.report),
            normalize_stream(&plain.report),
            "{carry:?}: uniform plane changed the stream report"
        );
    }
}

#[test]
fn full_horizon_stream_through_builder_matches_batch_through_builder() {
    // The PR 3 exactness anchor, expressed entirely in the new surface.
    let ds = dataset(16);
    let config = GloveConfig {
        threads: 1,
        ..GloveConfig::default()
    };
    let batch = RunBuilder::new(config).run(&ds).unwrap().expect_dataset();
    let stream = RunBuilder::new(config)
        .stream(StreamConfig {
            window_min: ds.span_min() as u32 + 1,
            ..StreamConfig::default()
        })
        .run(&ds)
        .unwrap();
    let epochs = stream.output.epochs();
    assert_eq!(epochs.len(), 1);
    assert_eq!(epochs[0].output.dataset.fingerprints, batch.fingerprints);
}

#[test]
fn engines_run_as_trait_objects() {
    let ds = dataset(20);
    let config = GloveConfig {
        threads: 1,
        ..GloveConfig::default()
    };
    let engines: Vec<Box<dyn Anonymizer>> = vec![
        RunBuilder::new(config).build().unwrap(),
        RunBuilder::new(config)
            .sharded(ShardPolicy::activity(2))
            .build()
            .unwrap(),
        RunBuilder::new(config)
            .stream(StreamConfig {
                window_min: 500,
                ..StreamConfig::default()
            })
            .build()
            .unwrap(),
    ];
    let ids: Vec<&str> = engines.iter().map(|e| e.engine()).collect();
    assert_eq!(ids, ["glove-batch", "glove-sharded", "glove-stream"]);
    for engine in engines {
        engine.prepare(&ds).expect("prepare succeeds");
        let outcome = engine.run(&ds, &mut NullObserver).expect("run succeeds");
        assert_eq!(outcome.report.engine, engine.engine());
        match outcome.output {
            RunOutput::Dataset(published) => {
                assert!(published.is_k_anonymous(2));
                assert_eq!(published.num_users(), 20);
            }
            RunOutput::Epochs(epochs) => {
                assert!(!epochs.is_empty());
                for epoch in &epochs {
                    assert!(epoch.output.dataset.is_k_anonymous(2));
                }
            }
        }
    }
}

#[test]
fn prepare_rejects_without_running() {
    let ds = dataset(4);
    let undersized = RunBuilder::new(GloveConfig {
        k: 10,
        ..GloveConfig::default()
    })
    .build()
    .unwrap();
    assert!(matches!(
        undersized.prepare(&ds),
        Err(GloveError::Unsatisfiable(_))
    ));
    let empty = Dataset::new("empty", vec![]).unwrap();
    for builder in [
        RunBuilder::new(GloveConfig::default()),
        RunBuilder::new(GloveConfig::default()).stream(StreamConfig::default()),
    ] {
        assert!(matches!(
            builder.build().unwrap().prepare(&empty),
            Err(GloveError::InvalidDataset(_))
        ));
    }

    // A cohort floor above the population: prepare fails with the error
    // run gives, monolithic and sharded alike.
    let ds = dataset(6);
    let floor = PolicyPlane {
        cohorts: vec![CohortSpec {
            name: "deep".into(),
            users: vec![0],
        }],
        rules: vec![PolicyRule {
            from_epoch: 0,
            to_epoch: None,
            cohort: Some("deep".into()),
            set: PolicyOverride {
                k: Some(10),
                ..PolicyOverride::default()
            },
        }],
    };
    for builder in [
        RunBuilder::new(GloveConfig::default()),
        RunBuilder::new(GloveConfig::default()).sharded(ShardPolicy::activity(2)),
    ] {
        let engine = builder.policy(floor.clone()).build().unwrap();
        let prepared = engine.prepare(&ds).unwrap_err();
        assert!(
            matches!(prepared, GloveError::Unsatisfiable(_)),
            "{}: {prepared}",
            engine.engine()
        );
        let ran = engine.run(&ds, &mut NullObserver).unwrap_err();
        assert_eq!(prepared, ran, "{}", engine.engine());
    }
}

#[test]
fn builder_validation_errors() {
    // Invalid k.
    assert!(RunBuilder::new(GloveConfig {
        k: 0,
        ..GloveConfig::default()
    })
    .build()
    .is_err());
    // Invalid stretch weights.
    assert!(RunBuilder::new(GloveConfig {
        stretch: StretchConfig {
            w_space: 0.9,
            w_time: 0.9,
            ..StretchConfig::default()
        },
        ..GloveConfig::default()
    })
    .build()
    .is_err());
    // Zero-shard policy.
    assert!(RunBuilder::new(GloveConfig::default())
        .sharded(ShardPolicy::activity(0))
        .build()
        .is_err());
    // Zero-length stream window.
    assert!(RunBuilder::new(GloveConfig::default())
        .stream(StreamConfig {
            window_min: 0,
            ..StreamConfig::default()
        })
        .build()
        .is_err());
    // run_events outside stream mode.
    assert!(RunBuilder::new(GloveConfig::default())
        .run_events("x", &mut std::iter::empty(), &mut NullObserver)
        .is_err());
    // The happy path still builds.
    assert!(RunBuilder::new(GloveConfig::default()).build().is_ok());
}

#[test]
fn reports_of_real_runs_round_trip_through_json() {
    let ds = dataset(20);
    let config = GloveConfig {
        threads: 1,
        suppression: SuppressionThresholds {
            max_space_m: Some(20_000),
            max_time_min: None,
        },
        ..GloveConfig::default()
    };
    let outcomes = vec![
        RunBuilder::new(config).run(&ds).unwrap(),
        RunBuilder::new(config)
            .sharded(ShardPolicy::activity(2))
            .run(&ds)
            .unwrap(),
        RunBuilder::new(config)
            .stream(StreamConfig {
                window_min: 400,
                ..StreamConfig::default()
            })
            .run(&ds)
            .unwrap(),
    ];
    for outcome in outcomes {
        let json = outcome.report.to_json();
        let parsed = RunReport::from_json(&json).unwrap();
        assert_eq!(
            parsed, outcome.report,
            "report of {} does not round-trip",
            outcome.report.engine
        );
    }
}

/// Records every callback in arrival order for ordering assertions.
#[derive(Default)]
struct TraceObserver {
    events: Vec<String>,
    phases: Vec<PhaseMetric>,
    progress: Vec<(u64, u64, u64)>,
    reports: Vec<RunReport>,
}

impl TraceObserver {
    fn epochs_seen(&self) -> usize {
        self.events
            .iter()
            .filter(|e| e.starts_with("epoch:"))
            .count()
    }
}

impl Observer for TraceObserver {
    fn on_phase_start(&mut self, engine: &str, phase: &str) {
        self.events.push(format!("start:{engine}:{phase}"));
    }
    fn on_phase_end(&mut self, engine: &str, phase: &str, elapsed_s: f64) {
        self.events.push(format!("end:{engine}:{phase}"));
        self.phases.push(PhaseMetric {
            phase: phase.to_string(),
            elapsed_s,
        });
    }
    fn on_shard(&mut self, stat: &ShardStat) {
        self.events.push(format!("shard:{}", stat.shard));
    }
    fn on_epoch(&mut self, epoch: &EpochOutput) -> std::io::Result<()> {
        self.events.push(format!("epoch:{}", epoch.epoch));
        Ok(())
    }
    fn on_progress(&mut self, merges: u64, pairs_computed: u64, pairs_pruned: u64) {
        self.events.push("progress".into());
        self.progress.push((merges, pairs_computed, pairs_pruned));
    }
    fn on_report(&mut self, report: &RunReport) {
        self.events.push("report".into());
        self.reports.push(report.clone());
    }
}

/// Checks the phase bracketing/ordering contract over a recorded trace.
fn assert_contract(trace: &TraceObserver) {
    let mut open: Option<&str> = None;
    for event in &trace.events {
        if let Some(rest) = event.strip_prefix("start:") {
            assert!(open.is_none(), "phase {rest} started inside another phase");
            open = Some(rest);
        } else if let Some(rest) = event.strip_prefix("end:") {
            assert_eq!(open, Some(rest), "phase end without matching start");
            open = None;
        }
    }
    assert!(open.is_none(), "unclosed phase at end of run");
    assert_eq!(trace.events.last().map(String::as_str), Some("report"));
    assert_eq!(trace.reports.len(), 1);
    for pair in trace.progress.windows(2) {
        assert!(pair[0].0 <= pair[1].0, "merge counter regressed");
        assert!(pair[0].1 <= pair[1].1, "pair counter regressed");
        assert!(pair[0].2 <= pair[1].2, "pruned counter regressed");
    }
    let last = trace.progress.last().expect("at least one progress call");
    let report = &trace.reports[0];
    assert_eq!(
        (report.merges, report.pairs_computed, report.pairs_pruned),
        *last,
        "final progress must equal the report totals"
    );
    assert_eq!(
        report.phases, trace.phases,
        "the report's phases must be the phases the observer saw"
    );
}

#[test]
fn observer_ordering_contract_holds_for_all_engines() {
    let ds = dataset(20);
    let config = GloveConfig {
        threads: 1,
        ..GloveConfig::default()
    };

    let mut batch = TraceObserver::default();
    RunBuilder::new(config)
        .run_observed(&ds, &mut batch)
        .unwrap();
    assert_contract(&batch);

    let mut sharded = TraceObserver::default();
    RunBuilder::new(config)
        .sharded(ShardPolicy::activity(3))
        .run_observed(&ds, &mut sharded)
        .unwrap();
    assert_contract(&sharded);
    let shard_events: Vec<String> = sharded
        .events
        .iter()
        .filter(|e| e.starts_with("shard:"))
        .cloned()
        .collect();
    assert_eq!(
        shard_events,
        vec!["shard:0", "shard:1", "shard:2"],
        "shards must arrive in stitch order"
    );

    let mut stream = TraceObserver::default();
    RunBuilder::new(config)
        .stream(StreamConfig {
            window_min: 300,
            ..StreamConfig::default()
        })
        .run_observed(&ds, &mut stream)
        .unwrap();
    assert_contract(&stream);
    let epoch_ids: Vec<&String> = stream
        .events
        .iter()
        .filter(|e| e.starts_with("epoch:"))
        .collect();
    assert!(!epoch_ids.is_empty(), "stream run must emit epochs");
    for (i, id) in epoch_ids.iter().enumerate() {
        assert_eq!(**id, format!("epoch:{i}"), "epochs out of emission order");
    }
}

#[test]
fn keep_epochs_false_drops_outputs_but_keeps_the_report() {
    let ds = dataset(16);
    let config = GloveConfig {
        threads: 1,
        ..GloveConfig::default()
    };
    let stream_cfg = StreamConfig {
        window_min: 300,
        ..StreamConfig::default()
    };
    let kept = RunBuilder::new(config).stream(stream_cfg).run(&ds).unwrap();
    let mut trace = TraceObserver::default();
    let dropped = RunBuilder::new(config)
        .stream(stream_cfg)
        .keep_epochs(false)
        .run_observed(&ds, &mut trace)
        .unwrap();
    assert!(!kept.output.epochs().is_empty());
    assert!(dropped.output.epochs().is_empty(), "epochs must be dropped");
    // The observer still saw every epoch, and the report lost nothing.
    assert_eq!(trace.epochs_seen(), kept.output.epochs().len());
    assert_eq!(
        dropped.report.fingerprints_out,
        kept.report.fingerprints_out
    );
    assert_eq!(dropped.report.users_out, kept.report.users_out);
    assert_eq!(dropped.report.samples_out, kept.report.samples_out);
    assert_eq!(
        normalize_stream(&dropped.report),
        normalize_stream(&kept.report)
    );
}

#[test]
fn run_events_matches_dataset_run() {
    let ds = dataset(14);
    let config = GloveConfig {
        threads: 1,
        ..GloveConfig::default()
    };
    let stream_cfg = StreamConfig {
        window_min: 400,
        ..StreamConfig::default()
    };
    let via_dataset = RunBuilder::new(config).stream(stream_cfg).run(&ds).unwrap();
    let events = events_of(&ds);
    let via_events = RunBuilder::new(config)
        .stream(stream_cfg)
        .run_events(&ds.name, &mut events.into_iter().map(Ok), &mut NullObserver)
        .unwrap();
    assert_eq!(
        via_events.output.epochs().len(),
        via_dataset.output.epochs().len()
    );
    for (a, b) in via_events
        .output
        .epochs()
        .iter()
        .zip(via_dataset.output.epochs())
    {
        assert_eq!(a.output.dataset.fingerprints, b.output.dataset.fingerprints);
    }
    // Event runs cannot know the input dataset shape…
    assert_eq!(via_events.report.fingerprints_in, 0);
    assert_eq!(via_events.report.users_in, 0);
    // …but everything observable from the stream itself must agree.
    assert_eq!(via_events.report.samples_in, via_dataset.report.samples_in);
    assert_eq!(
        normalize_stream(&via_events.report),
        normalize_stream(&via_dataset.report)
    );
}

#[test]
fn run_events_surfaces_producer_errors() {
    let config = GloveConfig {
        threads: 1,
        ..GloveConfig::default()
    };
    let mut events = vec![
        Ok(glove_core::stream::StreamEvent {
            user: 0,
            sample: Sample::point(0, 0, 5),
        }),
        Err(GloveError::InvalidDataset(
            "malformed record at line 2".into(),
        )),
    ]
    .into_iter();
    let err = RunBuilder::new(config)
        .stream(StreamConfig::default())
        .run_events("broken", &mut events, &mut NullObserver)
        .unwrap_err();
    assert!(matches!(err, GloveError::InvalidDataset(_)));
}

mod json_strings {
    //! Round-trip property of the `core::api::json` subset writer for the
    //! strings that travel through JSONL artifacts (scenario names, engine
    //! ids, attack labels): arbitrary content — control characters and
    //! non-ASCII included — must parse back identically, and the rendered
    //! form must never break the one-line JSONL framing.

    use glove_core::api::json::JsonValue;
    use glove_core::api::{RunDetail, RunReport};
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// Arbitrary unicode strings, biased towards the troublesome ranges:
    /// C0/C1 controls, DEL, the U+2028/U+2029 separators, and astral
    /// characters, alongside plain text.
    fn arb_string() -> impl Strategy<Value = String> {
        vec((0usize..6, 0u32..0x0011_0000), 0..24).prop_map(|picks| {
            picks
                .into_iter()
                .filter_map(|(bucket, raw)| match bucket {
                    0 => char::from_u32(raw % 0x20),        // C0 controls
                    1 => char::from_u32(0x7F + raw % 0x21), // DEL + C1
                    2 => Some(['\u{2028}', '\u{2029}'][raw as usize % 2]),
                    3 => char::from_u32(0x1F300 + raw % 0x100), // astral
                    4 => char::from_u32(0xC0 + raw % 0x300),    // accented / CJK-ish
                    _ => char::from_u32(0x20 + raw % 0x5F),     // printable ASCII
                })
                .collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn strings_round_trip_and_stay_on_one_line(s in arb_string()) {
            let value = JsonValue::Str(s.clone());
            let rendered = value.render();
            // JSONL framing: nothing a line-oriented reader splits on.
            for terminator in ['\n', '\r', '\u{2028}', '\u{2029}'] {
                prop_assert!(
                    !rendered.contains(terminator),
                    "rendered string leaked {terminator:?}: {rendered:?}"
                );
            }
            prop_assert!(
                rendered.chars().all(|c| c as u32 >= 0x20 && !(0x7F..=0x9F).contains(&(c as u32))),
                "rendered string leaked a raw control character: {rendered:?}"
            );
            let parsed = JsonValue::parse(&rendered).unwrap();
            prop_assert_eq!(parsed, value);
        }

        #[test]
        fn reports_with_arbitrary_names_round_trip_byte_identically(
            name in arb_string(),
            engine in arb_string(),
        ) {
            let report = RunReport {
                engine: engine.clone(),
                dataset: name.clone(),
                detail: RunDetail::External {
                    engine,
                    data: JsonValue::Str(name),
                },
                ..RunReport::default()
            };
            let json = report.to_json();
            prop_assert!(!json.contains('\n'), "a report is one JSONL line");
            let parsed = RunReport::from_json(&json).unwrap();
            prop_assert_eq!(&parsed, &report);
            prop_assert_eq!(parsed.to_json(), json, "render must be byte-stable");
        }
    }
}
