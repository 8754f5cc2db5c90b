//! Property harness for the streaming engine, mirroring the exactness
//! discipline of `shard_properties.rs`:
//!
//! * **Batch equivalence** — with a single window covering the full horizon
//!   and `CarryPolicy::Fresh`, the streamed output serializes byte-for-byte
//!   identically to the monolithic batch run on the same (user-ordered)
//!   dataset.
//! * **Window invariants** — for arbitrary window lengths and both carry
//!   policies, every emitted epoch is independently k-anonymous and every
//!   user-window slice is accounted for: published, suppressed or deferred.
//! * **Determinism** — a streamed run is a pure function of the event
//!   sequence and the configuration; thread counts never change the output.
//! * **Residency follows the window** — on a 14-day metro stream cut into
//!   daily windows, the engine's sample, fingerprint and slot-byte peaks
//!   stay at one window's worth, far below the whole stream's.

use glove_core::stream::{events_of, run_stream, StreamRun};
use glove_core::{
    CarryPolicy, Dataset, Fingerprint, GloveConfig, Pruning, Sample, StreamConfig, UnderKPolicy,
    UserId,
};
use glove_synth::{generate, ScenarioConfig};
use proptest::collection::vec;
use proptest::prelude::*;

/// Strategy: a point-like sample clustered around a handful of "cities" so
/// both cheap and expensive merges occur, with timestamps inside a 2-day
/// horizon so multi-window runs see several epochs.
fn arb_sample() -> impl Strategy<Value = Sample> {
    (
        0usize..3,
        -6_000i64..6_000,
        -6_000i64..6_000,
        0u32..2_880,
        1u32..60,
    )
        .prop_map(|(city, ox, oy, t, dt)| {
            let (cx, cy) = [(0, 0), (90_000, 0), (0, 120_000)][city];
            Sample::new(cx + ox, cy + oy, 100, 100, t, dt).expect("valid extents")
        })
}

/// Strategy: a dataset of single-subscriber fingerprints in ascending user
/// id order — the canonical shape of raw CDR data, and the shape for which
/// the streamed single-window run must equal the batch run.
fn arb_dataset(users: std::ops::RangeInclusive<usize>) -> impl Strategy<Value = Dataset> {
    vec(vec(arb_sample(), 1..=6), users).prop_map(|fps| {
        let fps = fps
            .into_iter()
            .enumerate()
            .map(|(u, samples)| {
                Fingerprint::with_users(vec![u as UserId], samples).expect("non-empty")
            })
            .collect();
        Dataset::new("stream-prop", fps).expect("unique users")
    })
}

/// Canonical serialization for bit-exact comparison (the CLI text format
/// lives in `glove-cli`; this standalone encoding keeps the property inside
/// `glove-core`).
fn serialize(ds: &Dataset) -> String {
    let mut out = String::new();
    out.push_str(&format!("# {}\n", ds.name));
    for fp in &ds.fingerprints {
        out.push_str(&format!("F {:?}\n", fp.users()));
        for s in fp.samples() {
            out.push_str(&format!(
                "S {} {} {} {} {} {}\n",
                s.x, s.y, s.dx, s.dy, s.t, s.dt
            ));
        }
    }
    out
}

fn stream_config(window_min: u32, carry: CarryPolicy, under_k: UnderKPolicy) -> StreamConfig {
    StreamConfig {
        window_min,
        carry,
        under_k,
        glove: GloveConfig::default(),
    }
}

/// Every user-window slice must be accounted for: published in some epoch,
/// suppressed, or deferred-then-flushed (flushes are counted as
/// suppressions too, so published + suppressed covers everything).
fn assert_slices_conserved(run: &StreamRun) {
    let entered = run.stats.entered_user_slices();
    let discarded: u64 = run
        .epochs
        .iter()
        .map(|e| e.output.stats.discarded_users)
        .sum();
    let out_users: u64 = run
        .epochs
        .iter()
        .map(|e| e.output.dataset.num_users() as u64)
        .sum();
    assert_eq!(
        out_users + discarded,
        entered,
        "epoch outputs must cover every entering slice minus residual discards"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The exactness anchor: one window over the whole horizon with `Fresh`
    /// carry serializes identically to the batch run.
    #[test]
    fn full_horizon_fresh_stream_is_byte_identical_to_batch(ds in arb_dataset(4..=12)) {
        let batch = glove_core::glove::anonymize(&ds, &GloveConfig::default())
            .expect("batch run succeeds");
        // One window covering every event: span is < 2 940 min by strategy.
        let config = stream_config(10_000, CarryPolicy::Fresh, UnderKPolicy::Suppress);
        let run = run_stream(ds.name.clone(), events_of(&ds), config)
            .expect("streamed run succeeds");
        prop_assert_eq!(run.epochs.len(), 1, "a single window must close once");
        let streamed = &run.epochs[0].output;
        prop_assert_eq!(
            serialize(&streamed.dataset),
            serialize(&batch.dataset),
            "single-window Fresh stream diverged from the batch run"
        );
        prop_assert_eq!(streamed.stats.merges, batch.stats.merges);
        prop_assert_eq!(streamed.stats.pairs_computed, batch.stats.pairs_computed);
        prop_assert_eq!(run.stats.suppressed_users, 0);
    }

    /// Windowed runs: every epoch independently k-anonymous, all slices
    /// accounted, peak residency bounded by the stream population.
    #[test]
    fn windowed_epochs_are_k_anonymous_and_conserve_slices(
        ds in arb_dataset(4..=12),
        window_sel in 0usize..3,
        sticky in 0usize..2,
        defer in 0usize..2,
    ) {
        let window = [240u32, 480, 1_440][window_sel];
        let carry = if sticky == 1 { CarryPolicy::Sticky } else { CarryPolicy::Fresh };
        let under_k = if defer == 1 { UnderKPolicy::Defer } else { UnderKPolicy::Suppress };
        let config = stream_config(window, carry, under_k);
        let run = run_stream(ds.name.clone(), events_of(&ds), config)
            .expect("streamed run succeeds");
        for epoch in &run.epochs {
            prop_assert!(
                epoch.output.dataset.is_k_anonymous(2),
                "epoch {} not 2-anonymous", epoch.epoch
            );
        }
        assert_slices_conserved(&run);
        // Residency invariant: resident fingerprints are counted per
        // *distinct user* — a deferred user active again in the current
        // window, or a user re-entering a Sticky carry-over group, is one
        // buffer set, never two — so the high-water mark is bounded by the
        // stream's user population whatever the carry/under-k policies.
        prop_assert!(
            run.stats.peak_resident_fingerprints <= ds.fingerprints.len(),
            "residency {} exceeded the stream population {} (double-counted \
             deferred or carried users?)",
            run.stats.peak_resident_fingerprints,
            ds.fingerprints.len()
        );
        let total_events: usize = ds.fingerprints.iter().map(Fingerprint::len).sum();
        prop_assert!(
            run.stats.peak_resident_samples <= total_events,
            "resident samples exceeded the events ever pushed"
        );
        prop_assert_eq!(run.stats.events as usize, total_events);
    }

    /// Thread counts never influence streamed output (the per-epoch loop is
    /// thread-count invariant, and the engine adds no nondeterminism).
    #[test]
    fn streamed_output_is_thread_invariant(
        ds in arb_dataset(4..=10),
        sticky in 0usize..2,
    ) {
        let carry = if sticky == 1 { CarryPolicy::Sticky } else { CarryPolicy::Fresh };
        let mut config = stream_config(480, carry, UnderKPolicy::Defer);
        config.glove.threads = 1;
        let a = run_stream(ds.name.clone(), events_of(&ds), config)
            .expect("single-threaded run succeeds");
        config.glove.threads = 4;
        let b = run_stream(ds.name.clone(), events_of(&ds), config)
            .expect("multi-threaded run succeeds");
        prop_assert_eq!(a.epochs.len(), b.epochs.len());
        for (ea, eb) in a.epochs.iter().zip(&b.epochs) {
            prop_assert_eq!(
                serialize(&ea.output.dataset),
                serialize(&eb.output.dataset),
                "thread count changed a streamed epoch"
            );
        }
    }

    /// Pruning inside streamed epochs is exact, matching the batch
    /// guarantee: epochs under the cascade, under hull-only seeds and
    /// unpruned serialize identically.
    #[test]
    fn streamed_pruning_is_exact(ds in arb_dataset(4..=10)) {
        let mut config = stream_config(480, CarryPolicy::Fresh, UnderKPolicy::Suppress);
        let pruned = run_stream(ds.name.clone(), events_of(&ds), config)
            .expect("pruned run succeeds");
        for pruning in [Pruning::HullOnly, Pruning::Off] {
            config.glove.pruning = pruning;
            let other = run_stream(ds.name.clone(), events_of(&ds), config)
                .expect("oracle run succeeds");
            prop_assert_eq!(pruned.epochs.len(), other.epochs.len());
            for (a, b) in pruned.epochs.iter().zip(&other.epochs) {
                prop_assert_eq!(
                    serialize(&a.output.dataset),
                    serialize(&b.output.dataset),
                    "{:?} changed a streamed epoch", pruning
                );
            }
            prop_assert!(pruned.stats.pairs_computed <= other.stats.pairs_computed);
        }
    }
}

/// Daily windows over 96 metro subscribers' 14 days: what the engine holds
/// at once is bounded by the window, not by the stream. Deferred under-k
/// users ride along with the window they wait in.
#[test]
fn daily_window_residency_is_bounded_by_the_window() {
    let mut scenario = ScenarioConfig::metro_like(96);
    scenario.num_towers = 300;
    scenario.seed = 0x000B_EAC5;
    let ds = generate(&scenario).dataset;
    let samples = ds.num_samples();
    let config = stream_config(1_440, CarryPolicy::Fresh, UnderKPolicy::Defer);
    let run = run_stream(ds.name.clone(), events_of(&ds), config).expect("streamed run succeeds");
    let stats = &run.stats;

    assert!(
        stats.peak_resident_samples * 2 < samples,
        "peak resident samples {} not bounded by the window (stream {samples})",
        stats.peak_resident_samples
    );
    let max_window_users = stats
        .per_epoch
        .iter()
        .map(|e| e.users_in)
        .max()
        .unwrap_or(0);
    assert!(
        stats.peak_resident_fingerprints <= max_window_users + stats.deferred_users as usize,
        "peak resident fingerprints {} above the largest window's {max_window_users} users \
         plus {} deferred",
        stats.peak_resident_fingerprints,
        stats.deferred_users
    );
    // The arenas' slots hold one window's samples (plus merge products),
    // at 32 bytes each.
    let sample_bytes = (samples * std::mem::size_of::<Sample>()) as u64;
    assert!(
        stats.ledger.peak_store_bytes * 2 < sample_bytes,
        "peak slot sample bytes {} not bounded by the window (stream {sample_bytes} bytes)",
        stats.ledger.peak_store_bytes
    );
}
