//! Property harness for the sharded engine and the admissible pair pruning:
//!
//! * **Shard invariants** — for random datasets and any shard count, the
//!   sharded output preserves the ≥ k guarantee for every published
//!   fingerprint and conserves users (none lost except those counted in
//!   `discarded_users`).
//! * **Exactness** — pruned and unpruned GLOVE produce identical `Dataset`
//!   serializations and identical `merges` counts on randomized inputs: the
//!   lower bound is admissible, not approximate.
//! * **Cascade admissibility** — the tier-0 popcount bound from bit-packed
//!   signatures never exceeds the exact Eq. (10) stretch (no false prunes),
//!   and resumable cutoff evaluations stay admissible at every abandon and
//!   complete to a value bit-identical to the direct exact computation.
//! * **Two-level stitch determinism** — the two-level partition is a pure
//!   function of dataset and policy, so repeated sharded runs (and runs
//!   at different worker counts) publish identical datasets in identical
//!   stitch order.

use glove_core::compact::{signature_lower_bound, CompactSignature, SignatureSpace};
use glove_core::glove::anonymize;
use glove_core::shard::partition;
use glove_core::stretch::{
    fingerprint_stretch, fingerprint_stretch_cutoff_resume, StretchEval, StretchProgress,
};
use glove_core::{
    Dataset, Fingerprint, GloveConfig, Pruning, ResidualPolicy, Sample, ShardBy, ShardPolicy,
    StretchConfig, UserId,
};
use proptest::collection::vec;
use proptest::prelude::*;

/// Strategy: an arbitrary (possibly generalized) sample. Coordinates are
/// clustered around a handful of "cities" so that both overlapping and
/// well-separated hulls occur — the two regimes of the pruning bound.
fn arb_sample() -> impl Strategy<Value = Sample> {
    (
        0usize..4,
        -9_000i64..9_000,
        -9_000i64..9_000,
        1u32..5_000,
        1u32..5_000,
        0u32..20_160,
        1u32..700,
    )
        .prop_map(|(city, ox, oy, dx, dy, t, dt)| {
            let (cx, cy) = [(0, 0), (120_000, 0), (0, 150_000), (300_000, 280_000)][city];
            Sample::new(cx + ox, cy + oy, dx, dy, t, dt).expect("valid extents")
        })
}

/// Strategy: a dataset of `users` single-subscriber fingerprints with 1..=8
/// samples each.
fn arb_dataset(users: std::ops::RangeInclusive<usize>) -> impl Strategy<Value = Dataset> {
    vec(vec(arb_sample(), 1..=8), users).prop_map(|fps| {
        let fps = fps
            .into_iter()
            .enumerate()
            .map(|(u, samples)| {
                Fingerprint::with_users(vec![u as UserId], samples).expect("non-empty")
            })
            .collect();
        Dataset::new("shard-prop", fps).expect("unique users")
    })
}

/// Strategy: a standalone (possibly multi-subscriber) fingerprint with
/// 1..=8 samples, for pairwise kernel properties.
fn arb_fingerprint() -> impl Strategy<Value = Fingerprint> {
    (vec(arb_sample(), 1..=8), 1usize..=3).prop_map(|(samples, users)| {
        let users = (0..users as UserId).collect();
        Fingerprint::with_users(users, samples).expect("non-empty")
    })
}

/// Canonical serialization for bit-exact comparison of published datasets
/// (the CLI text format lives in `glove-cli`; this standalone encoding keeps
/// the property inside `glove-core`).
fn serialize(ds: &Dataset) -> String {
    let mut out = String::new();
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Sharded runs keep the ≥ k invariant for every fingerprint and
    /// conserve users, for any shard count and both partitioners.
    #[test]
    fn sharded_output_is_k_anonymous_and_conserves_users(
        ds in arb_dataset(6..=16),
        k in 2usize..=3,
        shards in 1usize..=6,
        spatial in 0usize..3,
        suppress_residual in 0usize..2,
    ) {
        let by = match spatial {
            1 => ShardBy::Spatial,
            2 => ShardBy::TwoLevel,
            _ => ShardBy::Activity,
        };
        let config = GloveConfig {
            k,
            residual: if suppress_residual == 1 {
                ResidualPolicy::Suppress
            } else {
                ResidualPolicy::MergeIntoNearest
            },
            shard: Some(ShardPolicy { shards, by }),
            threads: 1,
            ..GloveConfig::default()
        };
        let out = anonymize(&ds, &config).expect("sharded anonymization succeeds");
        for fp in &out.dataset.fingerprints {
            prop_assert!(
                fp.multiplicity() >= k,
                "published fingerprint hides {} < k = {k} users",
                fp.multiplicity()
            );
        }
        prop_assert_eq!(
            out.dataset.num_users() as u64 + out.stats.discarded_users,
            ds.num_users() as u64,
            "subscribers lost outside the discarded ledger"
        );
        // Every input user appears exactly once (or was discarded): the
        // Dataset constructor enforces uniqueness, so counting suffices
        // together with the conservation check above.
        if suppress_residual == 0 {
            prop_assert_eq!(out.stats.discarded_users, 0u64);
        }
    }

    /// Pruned vs unpruned GLOVE: identical serializations, identical merge
    /// counts — the bound is admissible, so pruning can only skip pairs
    /// that provably never become a row minimum.
    #[test]
    fn pruned_and_unpruned_runs_are_identical(
        ds in arb_dataset(4..=14),
        k in 2usize..=3,
    ) {
        let pruned_cfg = GloveConfig { k, threads: 1, pruning: Pruning::Cascade, ..GloveConfig::default() };
        let unpruned_cfg = GloveConfig { k, threads: 1, pruning: Pruning::Off, ..GloveConfig::default() };
        let pruned = anonymize(&ds, &pruned_cfg).expect("pruned run succeeds");
        let unpruned = anonymize(&ds, &unpruned_cfg).expect("unpruned run succeeds");
        prop_assert_eq!(
            serialize(&pruned.dataset),
            serialize(&unpruned.dataset),
            "pruning changed the published dataset"
        );
        prop_assert_eq!(pruned.stats.merges, unpruned.stats.merges);
        prop_assert_eq!(
            pruned.stats.suppressed.user_samples,
            unpruned.stats.suppressed.user_samples
        );
        prop_assert!(pruned.stats.pairs_computed <= unpruned.stats.pairs_computed);
        prop_assert_eq!(unpruned.stats.pairs_pruned, 0u64);
    }

    /// Exactness also holds through the sharded path (the per-shard loop is
    /// the same pruned arena).
    #[test]
    fn sharded_pruned_and_unpruned_runs_are_identical(
        ds in arb_dataset(8..=16),
        shards in 2usize..=4,
    ) {
        let base = GloveConfig {
            shard: Some(ShardPolicy { shards, by: ShardBy::Activity }),
            threads: 1,
            ..GloveConfig::default()
        };
        let pruned = anonymize(&ds, &GloveConfig { pruning: Pruning::Cascade, ..base })
            .expect("pruned run succeeds");
        let unpruned = anonymize(&ds, &GloveConfig { pruning: Pruning::Off, ..base })
            .expect("unpruned run succeeds");
        prop_assert_eq!(serialize(&pruned.dataset), serialize(&unpruned.dataset));
        prop_assert_eq!(pruned.stats.merges, unpruned.stats.merges);
    }

    /// Tier 0 of the distance cascade is admissible: the popcount bound
    /// computed from the bit-packed occupancy signatures alone never exceeds
    /// the exact Eq. (10) stretch, so a tier-0 prune can never drop a pair
    /// that would have become the round's best merge (no false prunes).
    #[test]
    fn signature_bound_never_exceeds_exact_stretch(
        a in arb_fingerprint(),
        b in arb_fingerprint(),
    ) {
        let cfg = StretchConfig::default();
        let space = SignatureSpace::of(&cfg);
        let bound = signature_lower_bound(
            &CompactSignature::of(&a, &space),
            &CompactSignature::of(&b, &space),
            &cfg,
            &space,
        );
        let exact = fingerprint_stretch(&a, &b, &cfg);
        prop_assert!(
            bound <= exact,
            "tier-0 bound {bound} exceeds exact stretch {exact}"
        );
    }

    /// Resumable cutoff evaluations are admissible and exact: every abandon
    /// under a finite cutoff reports a lower bound strictly above the cutoff
    /// yet never above the true stretch, and once the scan completes (here
    /// forced by an infinite cutoff) the result is bit-identical to the
    /// direct exact computation — the saved prefix is cutoff-independent.
    #[test]
    fn resumed_cutoff_evaluations_are_admissible_and_exact(
        a in arb_fingerprint(),
        b in arb_fingerprint(),
        fractions in vec(0.0f64..1.0, 1..=5),
    ) {
        let cfg = StretchConfig::default();
        let exact = fingerprint_stretch(&a, &b, &cfg);
        let mut cutoffs: Vec<f64> = fractions.iter().map(|f| f * exact).collect();
        cutoffs.sort_by(f64::total_cmp);
        cutoffs.push(f64::INFINITY);
        let mut progress = StretchProgress::start();
        for cutoff in cutoffs {
            match fingerprint_stretch_cutoff_resume(&a, &b, &cfg, cutoff, &mut progress) {
                StretchEval::Exact(d) => {
                    prop_assert_eq!(
                        d.to_bits(),
                        exact.to_bits(),
                        "resumed completion diverged: {} vs exact {}",
                        d,
                        exact
                    );
                    break;
                }
                StretchEval::AtLeast(lb) => {
                    prop_assert!(
                        lb > cutoff,
                        "abandon must certify the cutoff is beaten: {lb} <= {cutoff}"
                    );
                    prop_assert!(
                        lb <= exact,
                        "carried bound {lb} exceeds the true stretch {exact}"
                    );
                }
            }
        }
    }

    /// The two-level partition is a pure function of dataset and policy:
    /// identical bucket lists on repeated calls, buckets conserve every
    /// index exactly once, and the stitched run output does not depend on
    /// the worker-thread count.
    #[test]
    fn two_level_stitch_is_deterministic(
        ds in arb_dataset(8..=16),
        shards in 2usize..=5,
    ) {
        let policy = ShardPolicy::two_level(shards);
        let config = GloveConfig::default();
        let a = partition(&ds, &policy, &config);
        let b = partition(&ds, &policy, &config);
        prop_assert_eq!(&a, &b, "two-level partition is not deterministic");
        let mut seen: Vec<usize> = a.iter().flatten().copied().collect();
        seen.sort_unstable();
        prop_assert_eq!(
            seen,
            (0..ds.fingerprints.len()).collect::<Vec<_>>(),
            "two-level partition lost or duplicated fingerprints"
        );

        let run = |threads| {
            let cfg = GloveConfig {
                shard: Some(policy),
                threads,
                ..GloveConfig::default()
            };
            anonymize(&ds, &cfg).expect("two-level run succeeds")
        };
        let serial = run(1);
        let parallel = run(4);
        prop_assert_eq!(
            serialize(&serial.dataset),
            serialize(&parallel.dataset),
            "two-level stitch order depends on the worker count"
        );
        prop_assert_eq!(serial.stats.merges, parallel.stats.merges);
    }
}
