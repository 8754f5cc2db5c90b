//! W4M-LC — *Wait for Me* with Linear spatiotemporal distance and Chunking.
//!
//! Re-implementation of the benchmark used in §7.2 / Table 2 (Abul, Bonchi &
//! Nanni, "Anonymization of moving objects databases by clustering and
//! perturbation", Information Systems 35(8), 2010). The original tool is a
//! closed academic artifact; this module rebuilds the algorithm from its
//! published description, with the configuration the paper uses: cylinder
//! diameter `δ = 2 km` and 10 % trashing (DESIGN.md §1 documents the
//! substitution).
//!
//! The method models an anonymity group as a *cylinder*: trajectories in a
//! cluster are perturbed until they all fit within a tube of spatial
//! diameter `δ` around the cluster centre, synchronized on a common
//! timeline. Concretely:
//!
//! 1. **Chunking (LC):** the dataset is processed in chunks to bound the
//!    O(U²) distance matrix — the variant the paper says is the only one
//!    that scales to mobile traffic data.
//! 2. **Linear spatiotemporal distance:** trajectories are interpreted as
//!    piecewise-linear functions of time; the distance between two is the
//!    mean Euclidean distance at sampled instants over the union of their
//!    spans (endpoint-clamped outside a trajectory's own span).
//! 3. **Greedy k-member clustering with trashing:** repeatedly cluster the
//!    most central unclustered trajectory with its k−1 nearest neighbours;
//!    pivots whose neighbourhoods are wider than a quantile threshold are
//!    *trashed* (discarded), up to the configured trash rate.
//! 4. **Perturbation:** members are resampled by index onto the cluster's
//!    common length (creating synthetic samples by linear interpolation —
//!    the operation that violates PPDP truthfulness, P2 in §2.2, and
//!    deleting surplus ones), time-synchronized to the cluster timeline and
//!    spatially pulled into the `δ/2` radius around the centre.
//!
//! On dense, homogeneously sampled GPS logs these perturbations are small.
//! On sparse, heterogeneous CDR fingerprints the resampling fabricates a
//! large share of the published points and the time synchronization moves
//! events by hours — exactly the failure mode Table 2 exposes.

use glove_core::{json_struct, Dataset, Fingerprint, Sample, UserId};

/// Configuration of a W4M-LC run.
#[derive(Debug, Clone, Copy)]
pub struct W4mConfig {
    /// Anonymity level `k`: clusters hold at least `k` trajectories.
    pub k: usize,
    /// Cylinder diameter `δ` in meters (paper setting: 2 000 m).
    pub delta_m: f64,
    /// Maximum fraction of trajectories that may be trashed (paper: 0.10).
    pub trash_fraction: f64,
    /// Chunk size of the LC variant.
    pub chunk_size: usize,
    /// Number of instants sampled when evaluating the linear spatiotemporal
    /// distance between two trajectories.
    pub distance_samples: usize,
}

impl Default for W4mConfig {
    fn default() -> Self {
        Self {
            k: 2,
            delta_m: 2_000.0,
            trash_fraction: 0.10,
            chunk_size: 500,
            distance_samples: 24,
        }
    }
}

/// Outcome statistics in Table 2's vocabulary.
#[derive(Debug, Clone, Copy, Default)]
pub struct W4mStats {
    /// Trajectories discarded by trashing (Table 2 "Discarded fingerprints").
    pub discarded_fingerprints: u64,
    /// Synthetic samples fabricated by resampling ("Created samples").
    pub created_samples: u64,
    /// Original samples dropped by resampling ("Deleted samples").
    pub deleted_samples: u64,
    /// Total published samples.
    pub published_samples: u64,
    /// Mean Euclidean displacement between each published point and the
    /// user's true (interpolated) position at the published instant, meters.
    pub mean_position_error_m: f64,
    /// Mean absolute temporal displacement of published points against the
    /// member's own timeline, minutes.
    pub mean_time_error_min: f64,
}

json_struct!(W4mStats {
    discarded_fingerprints,
    created_samples,
    deleted_samples,
    published_samples,
    mean_position_error_m,
    mean_time_error_min,
});

/// Result of a W4M-LC run.
#[derive(Debug, Clone)]
pub struct W4mOutput {
    /// The anonymized dataset ((k, δ)-anonymity: per cluster, identical
    /// timelines and positions within a `δ`-cylinder).
    pub dataset: Dataset,
    /// Run statistics.
    pub stats: W4mStats,
}

/// A trajectory view of a fingerprint: centre points of its samples.
#[derive(Debug, Clone)]
struct Traj {
    user: UserId,
    /// `(x, y, t)` with x/y in meters (box centres), t in minutes.
    points: Vec<(f64, f64, f64)>,
}

impl Traj {
    fn of(fp: &Fingerprint) -> Self {
        let points = fp
            .samples()
            .iter()
            .map(|s| {
                (
                    s.x as f64 + f64::from(s.dx) / 2.0,
                    s.y as f64 + f64::from(s.dy) / 2.0,
                    f64::from(s.t),
                )
            })
            .collect();
        Self {
            user: fp.users()[0],
            points,
        }
    }

    fn start(&self) -> f64 {
        self.points.first().expect("non-empty").2
    }

    fn end(&self) -> f64 {
        self.points.last().expect("non-empty").2
    }

    /// Position at time `t` by linear interpolation, endpoint-clamped.
    fn position_at(&self, t: f64) -> (f64, f64) {
        let pts = &self.points;
        if t <= pts[0].2 {
            return (pts[0].0, pts[0].1);
        }
        if t >= pts[pts.len() - 1].2 {
            let last = pts[pts.len() - 1];
            return (last.0, last.1);
        }
        // Binary search for the segment containing t.
        let mut lo = 0;
        let mut hi = pts.len() - 1;
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if pts[mid].2 <= t {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let (x0, y0, t0) = pts[lo];
        let (x1, y1, t1) = pts[hi];
        if t1 <= t0 {
            return (x1, y1);
        }
        let w = (t - t0) / (t1 - t0);
        (x0 + (x1 - x0) * w, y0 + (y1 - y0) * w)
    }

    /// Resamples the trajectory to `m` points by fractional index (linear
    /// interpolation in both space and time) — W4M's sequence alignment.
    fn resample(&self, m: usize) -> Vec<(f64, f64, f64)> {
        let n = self.points.len();
        if m == 0 {
            return Vec::new();
        }
        if n == 1 || m == 1 {
            return vec![self.points[n / 2]; m.max(1)];
        }
        (0..m)
            .map(|i| {
                let pos = i as f64 * (n - 1) as f64 / (m - 1) as f64;
                let lo = pos.floor() as usize;
                let hi = (lo + 1).min(n - 1);
                let w = pos - lo as f64;
                let (x0, y0, t0) = self.points[lo];
                let (x1, y1, t1) = self.points[hi];
                (x0 + (x1 - x0) * w, y0 + (y1 - y0) * w, t0 + (t1 - t0) * w)
            })
            .collect()
    }
}

/// Linear spatiotemporal distance between two trajectories: mean Euclidean
/// distance at `samples` instants spanning the union of the two spans.
fn lstd(a: &Traj, b: &Traj, samples: usize) -> f64 {
    let lo = a.start().min(b.start());
    let hi = a.end().max(b.end());
    let samples = samples.max(2);
    let mut total = 0.0;
    for i in 0..samples {
        let t = lo + (hi - lo) * i as f64 / (samples - 1) as f64;
        let (ax, ay) = a.position_at(t);
        let (bx, by) = b.position_at(t);
        let dx = ax - bx;
        let dy = ay - by;
        total += (dx * dx + dy * dy).sqrt();
    }
    total / samples as f64
}

/// Runs W4M-LC over a dataset of single-subscriber fingerprints.
///
/// # Panics
/// Panics if `k < 2` or the dataset contains merged (multi-subscriber)
/// fingerprints — W4M operates on raw trajectories.
pub fn w4m_lc(dataset: &Dataset, cfg: &W4mConfig) -> W4mOutput {
    assert!(cfg.k >= 2, "W4M requires k >= 2");
    assert!(
        dataset.fingerprints.iter().all(|f| f.multiplicity() == 1),
        "W4M operates on single-subscriber trajectories"
    );

    let mut stats = W4mStats::default();
    let mut published: Vec<Fingerprint> = Vec::new();
    let mut pos_err_total = 0.0f64;
    let mut time_err_total = 0.0f64;
    let mut err_points = 0u64;

    let trajs: Vec<Traj> = dataset.fingerprints.iter().map(Traj::of).collect();
    let chunk_size = cfg.chunk_size.max(cfg.k);

    for chunk in trajs.chunks(chunk_size) {
        let u = chunk.len();
        if u < cfg.k {
            stats.discarded_fingerprints += u as u64;
            continue;
        }
        // Pairwise LSTD matrix for the chunk.
        let mut dist = vec![0.0f64; u * u];
        for i in 0..u {
            for j in (i + 1)..u {
                let d = lstd(&chunk[i], &chunk[j], cfg.distance_samples);
                dist[i * u + j] = d;
                dist[j * u + i] = d;
            }
        }

        // Neighbourhood width of each trajectory: mean distance to its k-1
        // nearest. The (1 - trash_fraction) quantile is the trash threshold.
        let widths: Vec<f64> = (0..u)
            .map(|i| {
                let mut row: Vec<f64> = (0..u)
                    .filter(|&j| j != i)
                    .map(|j| dist[i * u + j])
                    .collect();
                row.sort_by(|a, b| a.partial_cmp(b).unwrap());
                row[..cfg.k - 1].iter().sum::<f64>() / (cfg.k - 1) as f64
            })
            .collect();
        let mut sorted_widths = widths.clone();
        sorted_widths.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let q_idx = (((1.0 - cfg.trash_fraction) * u as f64).floor() as usize).min(u - 1);
        let trash_threshold = sorted_widths[q_idx];

        // Greedy clustering with trashing.
        let mut unclustered: Vec<usize> = (0..u).collect();
        while unclustered.len() >= cfg.k {
            // Most central pivot: minimum neighbourhood width among the
            // still-unclustered set.
            let (pivot_pos, pivot, pivot_width) = {
                let mut best = (0usize, unclustered[0], f64::INFINITY);
                for (pos, &i) in unclustered.iter().enumerate() {
                    let mut row: Vec<f64> = unclustered
                        .iter()
                        .filter(|&&j| j != i)
                        .map(|&j| dist[i * u + j])
                        .collect();
                    row.sort_by(|a, b| a.partial_cmp(b).unwrap());
                    let w = row[..cfg.k - 1].iter().sum::<f64>() / (cfg.k - 1) as f64;
                    if w < best.2 {
                        best = (pos, i, w);
                    }
                }
                best
            };

            if pivot_width > trash_threshold {
                // Everything left is outlier territory: trash the pivot and
                // keep looking among the rest.
                unclustered.swap_remove(pivot_pos);
                stats.discarded_fingerprints += 1;
                continue;
            }

            // Gather the pivot's k-1 nearest unclustered neighbours.
            let mut others: Vec<usize> = unclustered
                .iter()
                .copied()
                .filter(|&j| j != pivot)
                .collect();
            others.sort_by(|&a, &b| {
                dist[pivot * u + a]
                    .partial_cmp(&dist[pivot * u + b])
                    .unwrap()
                    .then(a.cmp(&b))
            });
            let mut cluster = vec![pivot];
            cluster.extend_from_slice(&others[..cfg.k - 1]);
            unclustered.retain(|i| !cluster.contains(i));

            anonymize_cluster(
                &cluster.iter().map(|&i| &chunk[i]).collect::<Vec<_>>(),
                cfg,
                &mut published,
                &mut stats,
                &mut pos_err_total,
                &mut time_err_total,
                &mut err_points,
            );
        }
        // Leftovers below k cannot be anonymized.
        stats.discarded_fingerprints += unclustered.len() as u64;
    }

    if err_points > 0 {
        stats.mean_position_error_m = pos_err_total / err_points as f64;
        stats.mean_time_error_min = time_err_total / err_points as f64;
    }

    let dataset = Dataset::new(format!("{}-w4m-k{}", dataset.name, cfg.k), published)
        .expect("published users are unique");
    W4mOutput { dataset, stats }
}

/// Perturbs one cluster into its cylinder and publishes its members.
#[allow(clippy::too_many_arguments)]
fn anonymize_cluster(
    members: &[&Traj],
    cfg: &W4mConfig,
    published: &mut Vec<Fingerprint>,
    stats: &mut W4mStats,
    pos_err_total: &mut f64,
    time_err_total: &mut f64,
    err_points: &mut u64,
) {
    // Common length: rounded mean member length (W4M aligns sequences to a
    // shared sampling; the mean makes short members fabricate samples and
    // long members drop them, as Table 2 reports on both counters).
    let m_star = (members.iter().map(|m| m.points.len()).sum::<usize>() as f64
        / members.len() as f64)
        .round()
        .max(1.0) as usize;

    // Resample everyone to the common length; the cluster centre is the
    // point-wise mean.
    let resampled: Vec<Vec<(f64, f64, f64)>> = members.iter().map(|m| m.resample(m_star)).collect();
    let centre: Vec<(f64, f64, f64)> = (0..m_star)
        .map(|i| {
            let n = members.len() as f64;
            let (mut sx, mut sy, mut st) = (0.0, 0.0, 0.0);
            for r in &resampled {
                sx += r[i].0;
                sy += r[i].1;
                st += r[i].2;
            }
            (sx / n, sy / n, st / n)
        })
        .collect();

    for (member, res) in members.iter().zip(&resampled) {
        let orig_len = member.points.len();
        stats.created_samples += (m_star.saturating_sub(orig_len)) as u64;
        stats.deleted_samples += (orig_len.saturating_sub(m_star)) as u64;

        let mut samples = Vec::with_capacity(m_star);
        let mut last_t: Option<u32> = None;
        for i in 0..m_star {
            let (cx, cy, ct) = centre[i];
            // Spatial pull into the delta/2 cylinder around the centre.
            let (px, py) = {
                let dx = res[i].0 - cx;
                let dy = res[i].1 - cy;
                let d = (dx * dx + dy * dy).sqrt();
                let radius = cfg.delta_m / 2.0;
                if d <= radius {
                    (res[i].0, res[i].1)
                } else {
                    let scale = radius / d;
                    (cx + dx * scale, cy + dy * scale)
                }
            };
            // Full temporal synchronization onto the cluster timeline.
            let mut pt = ct.round().max(0.0) as u32;
            if let Some(prev) = last_t {
                // Keep the published timeline strictly increasing.
                if pt <= prev {
                    pt = prev + 1;
                }
            }
            last_t = Some(pt);

            // Errors against the member's own ground truth.
            let (tx, ty) = member.position_at(f64::from(pt));
            let dxe = px - tx;
            let dye = py - ty;
            *pos_err_total += (dxe * dxe + dye * dye).sqrt();
            *time_err_total += (f64::from(pt) - res[i].2).abs();
            *err_points += 1;

            // Publish on the native 100 m grid.
            let gx = (px / 100.0).floor() as i64 * 100;
            let gy = (py / 100.0).floor() as i64 * 100;
            samples.push(Sample::point(gx, gy, pt));
        }
        stats.published_samples += samples.len() as u64;
        published.push(
            Fingerprint::with_users(vec![member.user], samples)
                .expect("m_star >= 1 guarantees samples"),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trajectory with evenly spaced samples along a line.
    fn line_fp(
        user: UserId,
        x0: i64,
        step_m: i64,
        t0: u32,
        step_min: u32,
        n: usize,
    ) -> Fingerprint {
        let points: Vec<(i64, i64, u32)> = (0..n)
            .map(|i| (x0 + step_m * i as i64, 0, t0 + step_min * i as u32))
            .collect();
        Fingerprint::from_points(user, &points).unwrap()
    }

    fn gps_like_dataset(n: usize) -> Dataset {
        // Dense homogeneous sampling: the workload W4M was designed for.
        let fps = (0..n)
            .map(|u| line_fp(u as u32, (u as i64 % 5) * 300, 500, 0, 10, 50))
            .collect();
        Dataset::new("gps", fps).unwrap()
    }

    #[test]
    fn lstd_of_identical_is_zero() {
        let f = line_fp(0, 0, 500, 0, 10, 20);
        let t = Traj::of(&f);
        assert_eq!(lstd(&t, &t, 16), 0.0);
    }

    #[test]
    fn lstd_of_parallel_lines_is_their_offset() {
        let a = Traj::of(&line_fp(0, 0, 500, 0, 10, 20));
        let mut b_pts: Vec<(i64, i64, u32)> = (0..20)
            .map(|i| (500 * i as i64, 3_000, 10 * i as u32))
            .collect();
        b_pts[0].1 = 3_000;
        let b = Traj::of(&Fingerprint::from_points(1, &b_pts).unwrap());
        let d = lstd(&a, &b, 16);
        assert!((d - 3_000.0).abs() < 1.0, "got {d}");
    }

    #[test]
    fn position_interpolates_linearly() {
        let t = Traj::of(&line_fp(0, 0, 1_000, 0, 10, 3)); // x: 0,1000,2000 at t 0,10,20
        let (x, _) = t.position_at(5.0);
        assert!((x - 550.0).abs() < 1.0); // 500 + 50 box-centre offset
        let (x, _) = t.position_at(100.0);
        assert!((x - 2_050.0).abs() < 1.0, "clamped at the end");
    }

    #[test]
    fn resample_preserves_endpoints() {
        let t = Traj::of(&line_fp(0, 0, 1_000, 0, 10, 5));
        let r = t.resample(9);
        assert_eq!(r.len(), 9);
        assert!((r[0].2 - t.points[0].2).abs() < 1e-9);
        assert!((r[8].2 - t.points[4].2).abs() < 1e-9);
    }

    #[test]
    fn publishes_k_anonymity_sized_clusters() {
        let ds = gps_like_dataset(20);
        let out = w4m_lc(&ds, &W4mConfig::default());
        // Every published user appears once; total published + discarded = 20.
        assert_eq!(
            out.dataset.fingerprints.len() as u64 + out.stats.discarded_fingerprints,
            20
        );
        assert!(out.dataset.fingerprints.len() >= 16, "trash rate near 10%");
    }

    #[test]
    fn cluster_members_share_a_timeline() {
        let ds = gps_like_dataset(10);
        let out = w4m_lc(
            &ds,
            &W4mConfig {
                trash_fraction: 0.0,
                ..W4mConfig::default()
            },
        );
        // Group fingerprints by their timeline; every group must have >= k
        // members for (k, delta)-anonymity.
        use std::collections::HashMap;
        let mut groups: HashMap<Vec<u32>, usize> = HashMap::new();
        for fp in &out.dataset.fingerprints {
            let timeline: Vec<u32> = fp.samples().iter().map(|s| s.t).collect();
            *groups.entry(timeline).or_default() += 1;
        }
        for (timeline, count) in groups {
            assert!(count >= 2, "timeline {timeline:?} shared by only {count}");
        }
    }

    #[test]
    fn members_lie_within_the_cylinder() {
        let ds = gps_like_dataset(8);
        let cfg = W4mConfig {
            trash_fraction: 0.0,
            ..W4mConfig::default()
        };
        let out = w4m_lc(&ds, &cfg);
        // Published positions at each shared instant must span at most delta
        // (pairwise within the cylinder diameter, with grid-snap slack).
        use std::collections::HashMap;
        let mut by_time: HashMap<Vec<u32>, Vec<Vec<(i64, i64)>>> = HashMap::new();
        for fp in &out.dataset.fingerprints {
            let timeline: Vec<u32> = fp.samples().iter().map(|s| s.t).collect();
            by_time
                .entry(timeline)
                .or_default()
                .push(fp.samples().iter().map(|s| (s.x, s.y)).collect());
        }
        for (_, members) in by_time {
            let m = members[0].len();
            for i in 0..m {
                for a in 0..members.len() {
                    for b in (a + 1)..members.len() {
                        let (ax, ay) = members[a][i];
                        let (bx, by) = members[b][i];
                        let d = (((ax - bx).pow(2) + (ay - by).pow(2)) as f64).sqrt();
                        assert!(
                            d <= cfg.delta_m + 200.0,
                            "points {d} m apart exceed the cylinder"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn heterogeneous_lengths_create_and_delete_samples() {
        // One long and one short trajectory in a 2-cluster: resampling to
        // the median length must fabricate samples for the short one or
        // delete from the long one.
        let fps = vec![
            line_fp(0, 0, 500, 0, 10, 40),
            line_fp(1, 200, 500, 5, 10, 10),
        ];
        let ds = Dataset::new("hetero", fps).unwrap();
        let out = w4m_lc(
            &ds,
            &W4mConfig {
                trash_fraction: 0.0,
                ..W4mConfig::default()
            },
        );
        // Mean-length alignment: the short member fabricates samples AND the
        // long member loses some (both Table 2 counters are non-zero).
        assert!(out.stats.created_samples > 0);
        assert!(out.stats.deleted_samples > 0);
        assert!(out.stats.mean_time_error_min >= 0.0);
    }

    #[test]
    fn gps_like_data_has_small_errors() {
        // Sanity: on its home turf (dense, similar trajectories) W4M's
        // errors stay moderate — the Table 2 blow-up is specific to CDR.
        let ds = gps_like_dataset(12);
        let out = w4m_lc(
            &ds,
            &W4mConfig {
                trash_fraction: 0.0,
                ..W4mConfig::default()
            },
        );
        assert!(out.stats.mean_position_error_m < 3_000.0);
        assert!(out.stats.mean_time_error_min < 60.0);
    }

    #[test]
    #[should_panic(expected = "k >= 2")]
    fn rejects_k_one() {
        let ds = gps_like_dataset(4);
        let _ = w4m_lc(
            &ds,
            &W4mConfig {
                k: 1,
                ..W4mConfig::default()
            },
        );
    }

    #[test]
    fn small_chunks_still_cover_everyone() {
        let ds = gps_like_dataset(17);
        let out = w4m_lc(
            &ds,
            &W4mConfig {
                chunk_size: 5,
                ..W4mConfig::default()
            },
        );
        assert_eq!(
            out.dataset.fingerprints.len() as u64 + out.stats.discarded_fingerprints,
            17
        );
    }
}
