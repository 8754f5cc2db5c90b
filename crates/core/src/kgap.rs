//! The k-gap anonymizability measure of §4.2 (Eq. 11) and its
//! spatial/temporal decomposition (§5.3).
//!
//! The k-gap `Δᵏ_a` of a subscriber is the average fingerprint stretch
//! effort from `a` to its k−1 nearest fingerprints: how much accuracy the
//! dataset must give up to hide `a` in a crowd of `k`. `Δᵏ_a = 0` means `a`
//! is already k-anonymous; `Δᵏ_a = 1` means `a` is so isolated that hiding
//! them saturates both the spatial and temporal caps.
//!
//! That textbook definition — Eq. 11 verbatim — assumes every record hides
//! exactly one subscriber, which is true of raw input but false of
//! anonymized output, where a published record is a merged group. [`kgap`]
//! and [`kgap_all`] are therefore **multiplicity-aware**: a record hiding
//! ≥ `k` subscribers has a gap of 0, and otherwise the crowd of `k` is
//! assembled counting each neighbouring record's multiplicity (see the
//! function docs and DESIGN.md "k-gap on anonymized output"). On raw
//! single-subscriber data this reduces exactly to Eq. 11. The sweep
//! helpers [`kgap_many`] and [`kgap_decomposed_all`] are §5 *raw-data*
//! workloads and keep the single-subscriber assumption.
//!
//! For the root-cause analysis of §5.3, [`kgap_decomposed_all`] additionally
//! returns, per subscriber, the matched per-sample efforts split into their
//! spatial (`w_σ φ_σ`) and temporal (`w_τ φ_τ`) components — the sets `Sᵏ_a`
//! and `Tᵏ_a` whose tail weights explain why uniform generalization fails.

use crate::config::StretchConfig;
use crate::model::Dataset;
use crate::parallel::par_map;
use crate::stretch::{fingerprint_stretch, fingerprint_stretch_decomposed};

/// Computes the k-gap of a single fingerprint (by index) against the rest of
/// the dataset.
///
/// Records that already hide `k` or more subscribers (merged groups in an
/// anonymized dataset) have a k-gap of 0; otherwise the crowd of `k` is
/// assembled from the nearest fingerprints, each contributing as many
/// subscribers as it hides, and the gap is the contribution-weighted mean
/// effort to them. On raw single-subscriber data this reduces exactly to
/// Eq. 11: the average effort to the k−1 nearest fingerprints.
///
/// Returns `None` when the dataset holds fewer than `k` subscribers (no
/// crowd of `k` exists) or `k < 2`.
///
/// ```
/// use glove_core::prelude::*;
///
/// let ds = Dataset::new("demo", vec![
///     Fingerprint::from_points(0, &[(0, 0, 600)]).unwrap(),
///     Fingerprint::from_points(1, &[(0, 0, 600)]).unwrap(),  // twin of 0
///     Fingerprint::from_points(2, &[(50_000, 0, 6_000)]).unwrap(), // loner
/// ]).unwrap();
/// let cfg = StretchConfig::default();
///
/// // User 0 has an identical twin: already 2-anonymous.
/// assert_eq!(kgap(&ds, 0, 2, &cfg), Some(0.0));
/// // The loner is expensive to hide.
/// assert!(kgap(&ds, 2, 2, &cfg).unwrap() > 0.5);
/// ```
pub fn kgap(dataset: &Dataset, index: usize, k: usize, cfg: &StretchConfig) -> Option<f64> {
    if k < 2 || dataset.num_users() < k {
        return None;
    }
    let a = &dataset.fingerprints[index];
    let mut need = k.saturating_sub(a.multiplicity());
    if need == 0 {
        return Some(0.0);
    }
    let mut efforts: Vec<(f64, usize)> = dataset
        .fingerprints
        .iter()
        .enumerate()
        .filter(|&(j, _)| j != index)
        .map(|(j, b)| (fingerprint_stretch(a, b, cfg), j))
        .collect();
    // Every record contributes at least one subscriber, so at most `need`
    // fingerprints are consumed: select that prefix in O(n) and sort only
    // it, rather than sorting all n-1 efforts.
    let cmp = |x: &(f64, usize), y: &(f64, usize)| {
        x.0.partial_cmp(&y.0).expect("finite").then(x.1.cmp(&y.1))
    };
    let take = need.min(efforts.len());
    if take < efforts.len() {
        efforts.select_nth_unstable_by(take - 1, cmp);
        efforts.truncate(take);
    }
    efforts.sort_unstable_by(cmp);
    let mut total = 0.0;
    let mut taken = 0usize;
    for (d, j) in efforts {
        let contributed = dataset.fingerprints[j].multiplicity().min(need);
        total += d * contributed as f64;
        taken += contributed;
        need -= contributed;
        if need == 0 {
            break;
        }
    }
    Some(total / taken as f64)
}

/// Computes the k-gap of every fingerprint in the dataset, in parallel.
///
/// Returns one value per fingerprint, in dataset order. This is the workload
/// behind the paper's Fig. 3 and Fig. 4 CDFs — and, on an anonymized
/// dataset, the audit that every published record reports a gap of 0.
pub fn kgap_all(dataset: &Dataset, k: usize, threads: usize, cfg: &StretchConfig) -> Vec<f64> {
    assert!(k >= 2, "k-gap requires k >= 2");
    assert!(
        dataset.num_users() >= k,
        "dataset must contain at least k subscribers"
    );
    par_map(dataset.fingerprints.len(), threads, |i| {
        kgap(dataset, i, k, cfg).expect("bounds checked above")
    })
}

/// Computes the k-gap of every fingerprint for *several* values of `k` in a
/// single pass over the pairwise efforts (the Fig. 3b workload: one curve
/// per k). Returns one vector per requested `k`, in the same order.
///
/// This is a §5 analysis workload over *raw* data: records are assumed to
/// be single-subscriber (use [`kgap`] for multiplicity-aware audits of
/// anonymized output).
///
/// `ks` must be sorted ascending, all ≥ 2 and ≤ the number of fingerprints.
pub fn kgap_many(
    dataset: &Dataset,
    ks: &[usize],
    threads: usize,
    cfg: &StretchConfig,
) -> Vec<Vec<f64>> {
    assert!(!ks.is_empty(), "need at least one k");
    assert!(ks.windows(2).all(|w| w[0] < w[1]), "ks must be ascending");
    let k_max = *ks.last().expect("non-empty");
    assert!(ks[0] >= 2, "k-gap requires k >= 2");
    assert!(
        dataset.fingerprints.len() >= k_max,
        "dataset must contain at least max(k) fingerprints"
    );

    // Per fingerprint: the k_max - 1 smallest efforts, sorted ascending.
    let nearest: Vec<Vec<f64>> = par_map(dataset.fingerprints.len(), threads, |i| {
        let a = &dataset.fingerprints[i];
        let mut efforts: Vec<f64> = dataset
            .fingerprints
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != i)
            .map(|(_, b)| fingerprint_stretch(a, b, cfg))
            .collect();
        let kn = k_max - 1;
        efforts.select_nth_unstable_by(kn - 1, |x, y| x.partial_cmp(y).expect("finite"));
        let mut head = efforts[..kn].to_vec();
        head.sort_by(|x, y| x.partial_cmp(y).expect("finite"));
        head
    });

    ks.iter()
        .map(|&k| {
            let kn = k - 1;
            nearest
                .iter()
                .map(|head| head[..kn].iter().sum::<f64>() / kn as f64)
                .collect()
        })
        .collect()
}

/// Per-subscriber decomposition of the k-gap (§5.3).
#[derive(Debug, Clone)]
pub struct KgapDecomposition {
    /// The k-gap `Δᵏ_a`.
    pub kgap: f64,
    /// Matched per-sample efforts `δ` across all k−1 neighbours (the inputs
    /// to the Fig. 5a "δ" TWI curve).
    pub deltas: Vec<f64>,
    /// Spatial components `w_σ φ_σ` of those efforts — the set `Sᵏ_a`.
    pub spatial: Vec<f64>,
    /// Temporal components `w_τ φ_τ` of those efforts — the set `Tᵏ_a`.
    pub temporal: Vec<f64>,
}

impl KgapDecomposition {
    /// The temporal share of the total stretch effort,
    /// `Σ T / (Σ S + Σ T)` — the quantity plotted in Fig. 5b. `None` when
    /// the total effort is zero (the fingerprint is already hidden).
    pub fn temporal_share(&self) -> Option<f64> {
        let s: f64 = self.spatial.iter().sum();
        let t: f64 = self.temporal.iter().sum();
        let total = s + t;
        if total > 0.0 {
            Some(t / total)
        } else {
            None
        }
    }
}

/// Computes, for every fingerprint, the k-gap together with the
/// spatial/temporal decomposition of the matched sample efforts over the
/// k−1 nearest fingerprints. Like [`kgap_many`], this is a raw-data (§5.3)
/// workload assuming single-subscriber records.
pub fn kgap_decomposed_all(
    dataset: &Dataset,
    k: usize,
    threads: usize,
    cfg: &StretchConfig,
) -> Vec<KgapDecomposition> {
    assert!(k >= 2, "k-gap requires k >= 2");
    assert!(
        dataset.fingerprints.len() >= k,
        "dataset must contain at least k fingerprints"
    );
    par_map(dataset.fingerprints.len(), threads, |i| {
        let a = &dataset.fingerprints[i];
        // Rank all neighbours by effort.
        let mut efforts: Vec<(f64, usize)> = dataset
            .fingerprints
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != i)
            .map(|(j, b)| (fingerprint_stretch(a, b, cfg), j))
            .collect();
        let kn = k - 1;
        efforts.select_nth_unstable_by(kn - 1, |x, y| {
            x.0.partial_cmp(&y.0).expect("finite").then(x.1.cmp(&y.1))
        });
        let neighbours = &efforts[..kn];

        let mut deltas = Vec::new();
        let mut spatial = Vec::new();
        let mut temporal = Vec::new();
        let mut total = 0.0;
        for &(_, j) in neighbours {
            let (d, parts) = fingerprint_stretch_decomposed(a, &dataset.fingerprints[j], cfg);
            total += d;
            for (s, t) in parts {
                deltas.push(s + t);
                spatial.push(s);
                temporal.push(t);
            }
        }
        KgapDecomposition {
            kgap: total / kn as f64,
            deltas,
            spatial,
            temporal,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Fingerprint;

    fn cfg() -> StretchConfig {
        StretchConfig::default()
    }

    fn three_user_dataset() -> Dataset {
        // Users 0 and 1 are near-identical; user 2 is far away in time.
        let fps = vec![
            Fingerprint::from_points(0, &[(0, 0, 100), (5_000, 0, 700)]).unwrap(),
            Fingerprint::from_points(1, &[(100, 0, 102), (5_100, 0, 705)]).unwrap(),
            Fingerprint::from_points(2, &[(0, 0, 5_000), (5_000, 0, 9_000)]).unwrap(),
        ];
        Dataset::new("three", fps).unwrap()
    }

    #[test]
    fn kgap_of_duplicate_is_zero() {
        let fps = vec![
            Fingerprint::from_points(0, &[(0, 0, 100)]).unwrap(),
            Fingerprint::from_points(1, &[(0, 0, 100)]).unwrap(),
        ];
        let ds = Dataset::new("dup", fps).unwrap();
        assert_eq!(kgap(&ds, 0, 2, &cfg()), Some(0.0));
        assert_eq!(kgap(&ds, 1, 2, &cfg()), Some(0.0));
    }

    #[test]
    fn kgap_picks_nearest_neighbour() {
        let ds = three_user_dataset();
        // For user 0, the nearest is user 1, not the far-away user 2.
        let g0 = kgap(&ds, 0, 2, &cfg()).unwrap();
        let d01 = fingerprint_stretch(&ds.fingerprints[0], &ds.fingerprints[1], &cfg());
        assert!((g0 - d01).abs() < 1e-12);
    }

    #[test]
    fn kgap_grows_with_k() {
        let ds = three_user_dataset();
        let g2 = kgap(&ds, 0, 2, &cfg()).unwrap();
        let g3 = kgap(&ds, 0, 3, &cfg()).unwrap();
        assert!(g3 >= g2, "hiding in a larger crowd cannot be cheaper");
    }

    #[test]
    fn kgap_requires_enough_fingerprints() {
        let ds = three_user_dataset();
        assert!(kgap(&ds, 0, 4, &cfg()).is_none());
        assert!(kgap(&ds, 0, 1, &cfg()).is_none());
    }

    #[test]
    fn kgap_accounts_for_record_multiplicity() {
        use crate::model::Sample;
        let fps = vec![
            Fingerprint::with_users(vec![0, 1], vec![Sample::point(0, 0, 100)]).unwrap(),
            Fingerprint::from_points(2, &[(0, 0, 5_000)]).unwrap(),
        ];
        let ds = Dataset::new("merged", fps).unwrap();
        // The merged pair already hides 2 subscribers: gap 0.
        assert_eq!(kgap(&ds, 0, 2, &cfg()), Some(0.0));
        // The loner can borrow 1 of the group's 2 users; the cost is the
        // full pair effort.
        let d = fingerprint_stretch(&ds.fingerprints[0], &ds.fingerprints[1], &cfg());
        let g = kgap(&ds, 1, 2, &cfg()).unwrap();
        assert!((g - d).abs() < 1e-12);
        // At k = 3 even the group needs one companion.
        assert!(kgap(&ds, 0, 3, &cfg()).unwrap() > 0.0);
        // An anonymized dataset audits as all-zero.
        let gaps = kgap_all(&ds, 2, 1, &cfg());
        assert_eq!(gaps[0], 0.0);
    }

    #[test]
    fn kgap_all_matches_singles() {
        let ds = three_user_dataset();
        let all = kgap_all(&ds, 2, 2, &cfg());
        for (i, &v) in all.iter().enumerate() {
            assert_eq!(Some(v), kgap(&ds, i, 2, &cfg()));
        }
    }

    #[test]
    fn kgap_many_matches_individual_calls() {
        let fps = (0..8)
            .map(|u| {
                Fingerprint::from_points(
                    u,
                    &[
                        ((u as i64) * 700, 0, 100 + u * 13),
                        (0, (u as i64) * 300, 900 + u * 7),
                    ],
                )
                .unwrap()
            })
            .collect();
        let ds = Dataset::new("many", fps).unwrap();
        let many = kgap_many(&ds, &[2, 3, 5], 1, &cfg());
        assert_eq!(many.len(), 3);
        for (slot, k) in [(0usize, 2usize), (1, 3), (2, 5)] {
            let single = kgap_all(&ds, k, 1, &cfg());
            for (a, b) in many[slot].iter().zip(&single) {
                assert!((a - b).abs() < 1e-12, "k={k}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn decomposition_total_matches_kgap() {
        let ds = three_user_dataset();
        let plain = kgap_all(&ds, 2, 1, &cfg());
        let decomposed = kgap_decomposed_all(&ds, 2, 1, &cfg());
        for (p, d) in plain.iter().zip(&decomposed) {
            assert!((p - d.kgap).abs() < 1e-12);
            // Per-sample parts recompose into deltas.
            for ((&delta, &s), &t) in d.deltas.iter().zip(&d.spatial).zip(&d.temporal) {
                assert!((delta - (s + t)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn temporal_share_detects_time_dominated_cost() {
        // Same place, far apart in time: the share must be 1.
        let fps = vec![
            Fingerprint::from_points(0, &[(0, 0, 0)]).unwrap(),
            Fingerprint::from_points(1, &[(0, 0, 10_000)]).unwrap(),
        ];
        let ds = Dataset::new("time-only", fps).unwrap();
        let d = kgap_decomposed_all(&ds, 2, 1, &cfg());
        assert_eq!(d[0].temporal_share(), Some(1.0));
    }

    #[test]
    fn temporal_share_none_for_identical() {
        let fps = vec![
            Fingerprint::from_points(0, &[(0, 0, 0)]).unwrap(),
            Fingerprint::from_points(1, &[(0, 0, 0)]).unwrap(),
        ];
        let ds = Dataset::new("ident", fps).unwrap();
        let d = kgap_decomposed_all(&ds, 2, 1, &cfg());
        assert_eq!(d[0].temporal_share(), None);
    }
}
