//! The residual merge under a per-cohort k plan.
//!
//! When the greedy loop ends, at most one fingerprint is left below its k
//! requirement, and `ResidualPolicy::MergeIntoNearest` folds it into the
//! nearest finished group. Under a uniform k one absorption always
//! suffices. Under a plan it may not: the residual can carry a deeper k
//! than the group it lands in can cover, so the merge must keep absorbing
//! finished groups until the result meets the deepest k it holds.

use glove_core::glove::anonymize_with_plan;
use glove_core::model::{Dataset, Fingerprint, UserId};
use glove_core::policy::KPlan;
use glove_core::GloveConfig;

#[test]
fn residual_merge_meets_the_deepest_k_it_holds() {
    // Six single-sample users on one line: user 0 and its neighbour 5 form
    // the residual pair, 1–2 and 3–4 form two finished pairs far away.
    // User 0 requires k = 5, so the residual pair must absorb both.
    let xs = [0, 50_000, 50_050, 90_000, 90_050, 100];
    let fps = xs
        .iter()
        .enumerate()
        .map(|(u, &x)| Fingerprint::from_points(u as u32, &[(x, 0, 600 + 2 * u as u32)]).unwrap())
        .collect();
    let ds = Dataset::new("cohort-residual", fps).unwrap();
    let plan = KPlan::new(2, [(0, 5)].into_iter().collect());
    let out = anonymize_with_plan(&ds, &GloveConfig::default(), Some(&plan))
        .expect("six subscribers can cover k = 5");
    let groups: Vec<Vec<UserId>> = out
        .dataset
        .fingerprints
        .iter()
        .map(|f| f.users().to_vec())
        .collect();
    assert_eq!(groups, [vec![0, 1, 2, 3, 4, 5]]);
    // Three pairwise merges in the loop, then two absorptions.
    assert_eq!(out.stats.merges, 5);
}
