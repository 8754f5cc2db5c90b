//! Sharded GLOVE: the §6.3 batching idea as an architectural seam.
//!
//! The paper reaches national scale by "grouping fingerprints of similar
//! activity" into batches its GPU kernel can digest; the same observation
//! powers scalable fingerprinting work on both the defense and attack side.
//! This module makes that batching a first-class engine: a [`Dataset`] is
//! cut into [`ShardPolicy::shards`] buckets, the monolithic Alg. 1 loop runs
//! per shard across [`crate::parallel`] workers, and the outputs — dataset,
//! [`crate::glove::GloveStats`] and the suppression ledger — are stitched
//! back together.
//!
//! ### Semantics (see DESIGN.md "Sharded anonymization")
//!
//! * **k-anonymity still holds.** Every shard is anonymized to the same
//!   `k`, so every published fingerprint hides ≥ `k` subscribers — the
//!   property is per-record and survives concatenation.
//! * **What is forfeited**: cross-shard merges. A pair split across shards
//!   can never be grouped, so accuracy can only be equal or worse than the
//!   monolithic run — the partitioners exist to keep the loss small by
//!   putting likely merge partners (similar activity, or spatial neighbours)
//!   in the same shard.
//! * **What is gained**: the O(n²) pair matrix shrinks `shards`-fold in
//!   total (each shard is quadratic only in its own size), and shards are
//!   embarrassingly parallel. This is the scaling knob every later PR
//!   (async pipelines, multi-node) hangs off.
//!
//! Shards that would hold fewer than `k` subscribers are coalesced with a
//! neighbouring bucket, so every shard is independently satisfiable; users
//! are conserved up to the per-shard residual policy (suppressed residuals
//! are counted in `discarded_users` exactly as in a monolithic run).

use crate::config::{GloveConfig, ShardBy, ShardPolicy};
use crate::error::GloveError;
use crate::glove::{run_monolithic, GloveOutput, GloveStats};
use crate::json_struct;
use crate::ledger::MemoryLedger;
use crate::model::{Dataset, Fingerprint};
use crate::parallel::par_map;
use crate::policy::KPlan;
use glove_geo::{Grid, MetricPoint};
use std::time::Instant;

/// Per-shard slice of a sharded run's statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ShardStat {
    /// Shard index (stitch order).
    pub shard: usize,
    /// Fingerprints assigned to the shard.
    pub fingerprints_in: usize,
    /// Subscribers assigned to the shard.
    pub users_in: usize,
    /// k-anonymous groups the shard published.
    pub fingerprints_out: usize,
    /// Merges performed inside the shard.
    pub merges: u64,
    /// Eq. 10 evaluations inside the shard.
    pub pairs_computed: u64,
    /// Pair evaluations skipped by the admissible bound inside the shard.
    pub pairs_pruned: u64,
    /// Prunes decided by the tier-0 bit-packed signature bound alone.
    pub pairs_skipped_tier0: u64,
    /// Prunes decided by the tier-1 stretch-hull bound.
    pub pairs_skipped_tier1: u64,
    /// Exact evaluations abandoned early by the partial-mean cutoff.
    pub pairs_abandoned: u64,
    /// Peak memory accounting of the shard's own run.
    pub ledger: MemoryLedger,
    /// Wall-clock seconds of the shard's own run (shards overlap in time
    /// when workers run them concurrently).
    pub elapsed_s: f64,
}

json_struct!(ShardStat {
    shard,
    fingerprints_in,
    users_in,
    fingerprints_out,
    merges,
    pairs_computed,
    pairs_pruned,
    pairs_skipped_tier0,
    pairs_skipped_tier1,
    pairs_abandoned,
    ledger: "memory",
    elapsed_s,
});

/// Computes the shard assignment: a list of fingerprint-index buckets, in
/// stitch order. Every bucket holds at least `k` subscribers — an
/// undersized bucket is folded forward into its successor, and a trailing
/// undersized remainder joins the last viable bucket — so each shard is
/// independently k-anonymizable.
///
/// The assignment is a pure function of the dataset and the policy —
/// thread counts never influence it, keeping sharded runs bit-identical
/// across `threads` settings.
pub fn partition(dataset: &Dataset, policy: &ShardPolicy, config: &GloveConfig) -> Vec<Vec<usize>> {
    let n = dataset.fingerprints.len();
    let shards = policy.shards.max(1).min(n.max(1));

    // Order fingerprints by the shard key, stably by input index, and cut
    // into contiguous buckets.
    let mut order: Vec<usize> = (0..n).collect();
    let buckets: Vec<Vec<usize>> = match policy.by {
        ShardBy::Activity => {
            order.sort_by_key(|&i| (dataset.fingerprints[i].len(), i));
            cut(&order, shards)
        }
        ShardBy::Spatial => {
            let keys = spatial_keys(dataset, config);
            order.sort_by_key(|&i| (keys[i], i));
            cut(&order, shards)
        }
        ShardBy::TwoLevel => {
            // Outer level: a Z-order spatial cut into ⌈√shards⌉ contiguous
            // buckets keeps each bucket geographically coherent. Inner
            // level: every outer bucket is re-sorted by activity and cut
            // again, with the total shard count distributed near-evenly
            // across outer buckets — shards end up both spatially coherent
            // and length-homogeneous.
            let keys = spatial_keys(dataset, config);
            order.sort_by_key(|&i| (keys[i], i));
            let outer_n = (shards as f64).sqrt().ceil() as usize;
            let outer = cut(&order, outer_n);
            let base = shards / outer.len();
            let extra = shards % outer.len();
            let mut buckets = Vec::with_capacity(shards);
            for (o, mut bucket) in outer.into_iter().enumerate() {
                bucket.sort_by_key(|&i| (dataset.fingerprints[i].len(), i));
                let inner_n = (base + usize::from(o < extra)).max(1);
                buckets.extend(cut(&bucket, inner_n));
            }
            buckets
        }
    };

    // Coalesce buckets below the `k`-subscriber floor forward into their
    // successor (an undersized run keeps accumulating until it clears the
    // floor); only a trailing remainder falls back to the last emitted
    // bucket.
    let users_of = |bucket: &[usize]| -> usize {
        bucket
            .iter()
            .map(|&i| dataset.fingerprints[i].multiplicity())
            .sum()
    };
    let mut coalesced: Vec<Vec<usize>> = Vec::with_capacity(buckets.len());
    let mut pending: Vec<usize> = Vec::new();
    for bucket in buckets {
        pending.extend(bucket);
        if users_of(&pending) >= config.k {
            coalesced.push(std::mem::take(&mut pending));
        }
    }
    if !pending.is_empty() {
        match coalesced.last_mut() {
            Some(last) => last.extend(pending),
            // Fewer than k subscribers in total is rejected before
            // partitioning; a single bucket is still returned for
            // robustness.
            None => coalesced.push(pending),
        }
    }
    coalesced
}

/// Cuts an ordered index run into `parts` near-equal contiguous buckets
/// (first `n % parts` buckets get one extra element; empty buckets are
/// dropped when `parts > n`).
fn cut(order: &[usize], parts: usize) -> Vec<Vec<usize>> {
    let n = order.len();
    let parts = parts.max(1).min(n.max(1));
    let base = n / parts;
    let extra = n % parts;
    let mut buckets = Vec::with_capacity(parts);
    let mut cursor = 0usize;
    for s in 0..parts {
        let len = base + usize::from(s < extra);
        if len == 0 {
            continue;
        }
        buckets.push(order[cursor..cursor + len].to_vec());
        cursor += len;
    }
    buckets
}

/// Z-order spatial sort keys: one grid cell per spatial saturation cap, so
/// fingerprints whose merge could cost less than a saturated move share a
/// locality.
fn spatial_keys(dataset: &Dataset, config: &GloveConfig) -> Vec<u64> {
    let grid = Grid::new(config.stretch.phi_max_space_m.max(1.0));
    dataset
        .fingerprints
        .iter()
        .map(|fp| grid.cell_of(centroid(fp)).z_index())
        .collect()
}

/// Mean of the sample-box centers of a fingerprint, on the metric plane.
fn centroid(fp: &Fingerprint) -> MetricPoint {
    let mut x = 0.0;
    let mut y = 0.0;
    for s in fp.samples() {
        x += s.x as f64 + f64::from(s.dx) / 2.0;
        y += s.y as f64 + f64::from(s.dy) / 2.0;
    }
    let n = fp.len() as f64;
    MetricPoint { x: x / n, y: y / n }
}

/// Runs GLOVE shard by shard and stitches the outputs. Called by
/// [`crate::glove::anonymize`] when the config carries a [`ShardPolicy`]
/// with more than one shard; callers guarantee a validated config and a
/// dataset holding at least `k` subscribers.
pub(crate) fn anonymize_sharded(
    dataset: &Dataset,
    config: &GloveConfig,
    policy: ShardPolicy,
    plan: Option<&KPlan>,
) -> Result<GloveOutput, GloveError> {
    let started = Instant::now();
    let chunks = partition(dataset, &policy, config);

    // The shard fan-out is the primary parallel axis; when there are fewer
    // shards than workers, each shard run gets a slice of the remaining
    // thread budget. The monolithic loop is thread-count invariant (see
    // crates/core/tests/determinism.rs), so the split affects wall clock
    // only — the partition alone fixes the output.
    let budget = crate::parallel::effective_threads(config.threads);
    let inner = GloveConfig {
        shard: None,
        threads: (budget / chunks.len().max(1)).max(1),
        ..*config
    };
    let shard_inputs: Vec<Dataset> = chunks
        .iter()
        .enumerate()
        .map(|(s, idxs)| {
            Dataset::new(
                format!("{}-shard{s}", dataset.name),
                idxs.iter()
                    .map(|&i| dataset.fingerprints[i].clone())
                    .collect(),
            )
        })
        .collect::<Result<_, _>>()?;

    // A shard whose population cannot cover its deepest plan requirement
    // would fail mid-run; detect it up front with the same error the
    // monolithic entry point raises.
    if let Some(p) = plan {
        for input in &shard_inputs {
            let need = input
                .fingerprints
                .iter()
                .map(|f| p.required_k(f.users()))
                .max()
                .unwrap_or(config.k)
                .max(config.k);
            if input.num_users() < need {
                return Err(GloveError::Unsatisfiable(format!(
                    "shard '{}' has {} subscribers, fewer than the policy k = {}",
                    input.name,
                    input.num_users(),
                    need
                )));
            }
        }
    }

    // Workers take shards costliest first, so the last shard to start is a
    // cheap one and the workers finish close together. The outputs are put
    // back in shard order, so only the wall clock depends on this order.
    let order = dispatch_order(&shard_inputs);
    let ranked = par_map(order.len(), config.threads, |r| {
        run_monolithic(&shard_inputs[order[r]], &inner, plan)
    });
    let mut outputs: Vec<_> = order.into_iter().zip(ranked).collect();
    outputs.sort_unstable_by_key(|&(s, _)| s);

    let mut stats = GloveStats::default();
    let mut published = Vec::new();
    for (s, output) in outputs {
        let output = output?;
        stats.merges += output.stats.merges;
        stats.pairs_computed += output.stats.pairs_computed;
        stats.pairs_pruned += output.stats.pairs_pruned;
        stats.pairs_skipped_tier0 += output.stats.pairs_skipped_tier0;
        stats.pairs_skipped_tier1 += output.stats.pairs_skipped_tier1;
        stats.pairs_abandoned += output.stats.pairs_abandoned;
        stats.suppressed.absorb(output.stats.suppressed);
        stats.reshaped_samples += output.stats.reshaped_samples;
        stats.discarded_fingerprints += output.stats.discarded_fingerprints;
        stats.discarded_users += output.stats.discarded_users;
        stats.ledger.absorb(&output.stats.ledger);
        stats.per_shard.push(ShardStat {
            shard: s,
            fingerprints_in: shard_inputs[s].fingerprints.len(),
            users_in: shard_inputs[s].num_users(),
            fingerprints_out: output.dataset.fingerprints.len(),
            merges: output.stats.merges,
            pairs_computed: output.stats.pairs_computed,
            pairs_pruned: output.stats.pairs_pruned,
            pairs_skipped_tier0: output.stats.pairs_skipped_tier0,
            pairs_skipped_tier1: output.stats.pairs_skipped_tier1,
            pairs_abandoned: output.stats.pairs_abandoned,
            ledger: output.stats.ledger,
            elapsed_s: output.stats.elapsed_s,
        });
        published.extend(output.dataset.fingerprints);
    }
    stats.ledger.capture_rss();
    stats.elapsed_s = started.elapsed().as_secs_f64();

    // Every shard's run checked its own groups' k floors, so the stitched
    // release needs no check of its own.
    let dataset = Dataset::new(format!("{}-glove-k{}", dataset.name, config.k), published)?;
    Ok(GloveOutput { dataset, stats })
}

/// The order in which shards are handed to workers: by descending sample
/// count, the estimate of a shard's cost, with ties in shard order.
fn dispatch_order(shard_inputs: &[Dataset]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..shard_inputs.len()).collect();
    order.sort_by_key(|&s| (std::cmp::Reverse(shard_inputs[s].num_samples()), s));
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::glove::anonymize;

    /// Two spatial clusters, heterogeneous activity.
    fn clustered_dataset(n: usize) -> Dataset {
        let fps = (0..n)
            .map(|u| {
                let cluster = (u % 2) as i64;
                let extra = u % 4; // 1..=4 samples: activity spread
                let mut points = vec![(cluster * 200_000, 0, 60 + u as u32 % 7)];
                for e in 0..extra {
                    points.push((
                        cluster * 200_000 + 500 * (e as i64 + 1),
                        300,
                        500 + 300 * e as u32 + u as u32 % 5,
                    ));
                }
                Fingerprint::from_points(u as u32, &points).unwrap()
            })
            .collect();
        Dataset::new("clustered", fps).unwrap()
    }

    #[test]
    fn shards_are_dispatched_costliest_first_with_ties_in_shard_order() {
        let input = |first: u32, lens: &[u32]| {
            let fps = lens
                .iter()
                .zip(first..)
                .map(|(&n, user)| {
                    let points: Vec<_> = (0..n).map(|t| (0, 0, t)).collect();
                    Fingerprint::from_points(user, &points).expect("non-empty")
                })
                .collect();
            Dataset::new("shard", fps).expect("valid shard")
        };
        // 3, 5, 3 and 5 samples.
        let inputs = [
            input(0, &[1, 2]),
            input(10, &[5]),
            input(20, &[3]),
            input(30, &[4, 1]),
        ];
        assert_eq!(dispatch_order(&inputs), vec![1, 3, 0, 2]);
    }

    #[test]
    fn partition_conserves_and_balances() {
        let ds = clustered_dataset(40);
        let config = GloveConfig::default();
        for by in [ShardBy::Activity, ShardBy::Spatial] {
            let policy = ShardPolicy { shards: 4, by };
            let chunks = partition(&ds, &policy, &config);
            assert_eq!(chunks.len(), 4);
            let mut all: Vec<usize> = chunks.iter().flatten().copied().collect();
            all.sort_unstable();
            assert_eq!(all, (0..40).collect::<Vec<_>>(), "every fp exactly once");
            for c in &chunks {
                assert_eq!(c.len(), 10, "even fingerprint split");
            }
        }
    }

    #[test]
    fn activity_partition_groups_similar_lengths() {
        let ds = clustered_dataset(40);
        let config = GloveConfig::default();
        let chunks = partition(&ds, &ShardPolicy::activity(4), &config);
        // Within the ordered chunks, max length of chunk i <= min length of
        // chunk i+1 (contiguous cut of the length-sorted order).
        for w in chunks.windows(2) {
            let max_prev = w[0].iter().map(|&i| ds.fingerprints[i].len()).max();
            let min_next = w[1].iter().map(|&i| ds.fingerprints[i].len()).min();
            assert!(max_prev <= min_next);
        }
    }

    #[test]
    fn spatial_partition_separates_clusters() {
        let ds = clustered_dataset(40);
        let config = GloveConfig::default();
        let chunks = partition(&ds, &ShardPolicy::spatial(2), &config);
        assert_eq!(chunks.len(), 2);
        // The two 200 km-apart clusters must not share a shard.
        for c in &chunks {
            let clusters: std::collections::BTreeSet<i64> = c
                .iter()
                .map(|&i| ds.fingerprints[i].samples()[0].x / 100_000)
                .collect();
            assert_eq!(clusters.len(), 1, "shard mixes spatial clusters");
        }
    }

    #[test]
    fn undersized_buckets_are_coalesced() {
        // 5 fingerprints, k = 4: at most one viable shard.
        let ds = clustered_dataset(5);
        let config = GloveConfig {
            k: 4,
            ..GloveConfig::default()
        };
        let chunks = partition(&ds, &ShardPolicy::activity(4), &config);
        for c in &chunks {
            let users: usize = c.iter().map(|&i| ds.fingerprints[i].multiplicity()).sum();
            assert!(users >= 4, "shard below the k floor");
        }
        let total: usize = chunks.iter().map(Vec::len).sum();
        assert_eq!(total, 5);
    }

    #[test]
    fn sharded_run_preserves_k_anonymity_and_users() {
        let ds = clustered_dataset(32);
        let config = GloveConfig {
            shard: Some(ShardPolicy::activity(4)),
            ..GloveConfig::default()
        };
        let out = anonymize(&ds, &config).unwrap();
        assert!(out.dataset.is_k_anonymous(2));
        assert_eq!(out.dataset.num_users(), 32);
        assert_eq!(out.stats.per_shard.len(), 4);
        let shard_merges: u64 = out.stats.per_shard.iter().map(|s| s.merges).sum();
        assert_eq!(shard_merges, out.stats.merges);
        let users_in: usize = out.stats.per_shard.iter().map(|s| s.users_in).sum();
        assert_eq!(users_in, 32);
    }

    #[test]
    fn single_shard_policy_matches_monolithic() {
        let ds = clustered_dataset(12);
        let mono = anonymize(&ds, &GloveConfig::default()).unwrap();
        let config = GloveConfig {
            shard: Some(ShardPolicy::activity(1)),
            ..GloveConfig::default()
        };
        let sharded = anonymize(&ds, &config).unwrap();
        assert_eq!(mono.dataset.fingerprints, sharded.dataset.fingerprints);
        assert!(sharded.stats.per_shard.is_empty());
    }

    #[test]
    fn sharded_output_fingerprints_stay_within_shard_users() {
        // Users assigned to different shards never share a published group.
        let ds = clustered_dataset(24);
        let config = GloveConfig {
            shard: Some(ShardPolicy::spatial(2)),
            ..GloveConfig::default()
        };
        let chunks = partition(&ds, &ShardPolicy::spatial(2), &config);
        let mut shard_of: std::collections::BTreeMap<u32, usize> =
            std::collections::BTreeMap::new();
        for (s, c) in chunks.iter().enumerate() {
            for &i in c {
                for &u in ds.fingerprints[i].users() {
                    shard_of.insert(u, s);
                }
            }
        }
        let out = anonymize(&ds, &config).unwrap();
        for fp in &out.dataset.fingerprints {
            let shards: std::collections::BTreeSet<usize> =
                fp.users().iter().map(|u| shard_of[u]).collect();
            assert_eq!(shards.len(), 1, "published group spans shards");
        }
    }

    #[test]
    fn sharded_residual_suppress_counts_add_up() {
        let ds = clustered_dataset(21);
        let config = GloveConfig {
            k: 2,
            residual: crate::config::ResidualPolicy::Suppress,
            shard: Some(ShardPolicy::activity(3)),
            ..GloveConfig::default()
        };
        let out = anonymize(&ds, &config).unwrap();
        assert!(out.dataset.is_k_anonymous(2));
        assert_eq!(
            out.dataset.num_users() as u64 + out.stats.discarded_users,
            21
        );
    }

    #[test]
    fn more_shards_than_fingerprints_is_clamped() {
        let ds = clustered_dataset(6);
        let config = GloveConfig {
            shard: Some(ShardPolicy::activity(64)),
            ..GloveConfig::default()
        };
        let out = anonymize(&ds, &config).unwrap();
        assert!(out.dataset.is_k_anonymous(2));
        assert_eq!(out.dataset.num_users(), 6);
        assert!(out.stats.per_shard.len() <= 3);
    }
}
