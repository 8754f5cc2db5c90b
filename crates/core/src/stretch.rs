//! The stretch-effort algebra of §4: how much accuracy must be sacrificed to
//! merge samples (Eqs. 1–9) and fingerprints (Eq. 10) through
//! generalization.
//!
//! * [`sample_stretch`] — `δ_ab(i,j) = w_σ φ_σ + w_τ φ_τ ∈ [0, 1]`;
//! * [`sample_stretch_parts`] — the same, decomposed into its spatial and
//!   temporal addends (needed by the §5.3 analysis);
//! * [`fingerprint_stretch`] — `Δ_ab`: each sample of the *longer*
//!   fingerprint matched to its minimum-effort partner in the shorter one,
//!   averaged;
//! * [`fingerprint_stretch_decomposed`] — `Δ_ab` plus the per-sample matched
//!   efforts, feeding the tail-weight analysis of Fig. 5.
//!
//! The per-pair inner loop is the hottest code in the workspace (it runs
//! `O(|M|² · n̄²)` times). Every kernel decodes the shorter operand once per
//! evaluation into integer lanes and matches each sample of the longer one
//! against them in one branch-free loop. From 24 samples in the shorter
//! operand on, the lanes are also cut into blocks of 8, each with its box,
//! and each outer sample folds only the blocks whose floor could still
//! hold its minimum, walking outward from its own start time; shorter
//! operands, such as stream windows, fold every lane. Each per-sample
//! minimum is the same bits either way: property tests check the block walk
//! against the plain loop, and every kernel against the naive scan.

use std::cell::RefCell;
use std::ops::ControlFlow;

use crate::config::StretchConfig;
use crate::model::{Fingerprint, Sample};

/// The spatial covering stretch of Eqs. (4)–(6), *before* capping and
/// normalization: the population-weighted sum of how far `a`'s box must grow
/// to cover `b`'s and vice versa, in meters.
///
/// `na` and `nb` are the multiplicities of the (possibly already merged)
/// fingerprints the samples belong to.
#[inline]
pub fn raw_spatial_stretch_m(a: &Sample, na: f64, b: &Sample, nb: f64) -> f64 {
    // l_σ(a, b): westward/southward growth of a to reach b's lower edges.
    // r_σ(a, b): eastward/northward growth of a to reach b's upper edges.
    let l_ab = (a.x - a.x.min(b.x)) + (a.y - a.y.min(b.y));
    let r_ab = (a.x_end().max(b.x_end()) - a.x_end()) + (a.y_end().max(b.y_end()) - a.y_end());
    let l_ba = (b.x - a.x.min(b.x)) + (b.y - a.y.min(b.y));
    let r_ba = (a.x_end().max(b.x_end()) - b.x_end()) + (a.y_end().max(b.y_end()) - b.y_end());
    ((l_ab + r_ab) as f64 * na + (l_ba + r_ba) as f64 * nb) / (na + nb)
}

/// The temporal covering stretch of Eqs. (7)–(9), before capping and
/// normalization, in minutes.
#[inline]
pub fn raw_temporal_stretch_min(a: &Sample, na: f64, b: &Sample, nb: f64) -> f64 {
    let (at, ae) = (i64::from(a.t), a.t_end() as i64);
    let (bt, be) = (i64::from(b.t), b.t_end() as i64);
    let l_ab = at - at.min(bt);
    let r_ab = ae.max(be) - ae;
    let l_ba = bt - at.min(bt);
    let r_ba = ae.max(be) - be;
    ((l_ab + r_ab) as f64 * na + (l_ba + r_ba) as f64 * nb) / (na + nb)
}

/// The two addends of Eq. (1): `(w_σ φ_σ, w_τ φ_τ)`, each already capped to
/// its saturation threshold (Eqs. 2–3) and weighted.
#[inline]
pub fn sample_stretch_parts(
    a: &Sample,
    na: f64,
    b: &Sample,
    nb: f64,
    cfg: &StretchConfig,
) -> (f64, f64) {
    let (na, nb) = if cfg.population_weighting {
        (na, nb)
    } else {
        (1.0, 1.0)
    };
    let phi_s = (raw_spatial_stretch_m(a, na, b, nb) / cfg.phi_max_space_m).min(1.0);
    let phi_t = (raw_temporal_stretch_min(a, na, b, nb) / cfg.phi_max_time_min).min(1.0);
    (cfg.w_space * phi_s, cfg.w_time * phi_t)
}

/// The sample stretch effort `δ_ab(i,j)` of Eq. (1): the loss of accuracy
/// required to merge two samples through generalization, in `[0, 1]`.
///
/// `δ = 0` iff the two boxes are identical; `δ = 1` means both the spatial
/// and temporal stretches saturate their caps and the merged sample would be
/// uninformative.
#[inline]
pub fn sample_stretch(a: &Sample, na: f64, b: &Sample, nb: f64, cfg: &StretchConfig) -> f64 {
    let (s, t) = sample_stretch_parts(a, na, b, nb, cfg);
    s + t
}

/// The fingerprint stretch effort `Δ_ab` of Eq. (10): for each sample of the
/// longer fingerprint, the minimum sample stretch effort to the shorter
/// fingerprint; averaged over the longer fingerprint.
///
/// The multiplicities of `a` and `b` weight the per-sample efforts per
/// Eqs. (4) and (7), which is how Alg. 1 accounts for the number of
/// subscribers affected when merging already-merged fingerprints.
///
/// ```
/// use glove_core::prelude::*;
///
/// let a = Fingerprint::from_points(0, &[(0, 0, 480), (5_000, 0, 1_020)]).unwrap();
/// let b = Fingerprint::from_points(1, &[(200, 0, 490), (5_100, 0, 1_050)]).unwrap();
/// let cfg = StretchConfig::default();
///
/// let d = fingerprint_stretch(&a, &b, &cfg);
/// assert!(d > 0.0 && d < 0.1, "similar routines are cheap to merge: {d}");
/// assert_eq!(d, fingerprint_stretch(&b, &a, &cfg), "Δ is symmetric");
/// ```
pub fn fingerprint_stretch(a: &Fingerprint, b: &Fingerprint, cfg: &StretchConfig) -> f64 {
    match a.len().cmp(&b.len()) {
        std::cmp::Ordering::Greater => directed_stretch(a, b, cfg),
        std::cmp::Ordering::Less => directed_stretch(b, a, cfg),
        // Eq. (10) leaves the orientation ambiguous for equal lengths (the
        // paper computes the matrix once per unordered pair, so it never
        // observes the asymmetry). We canonicalize by averaging the two
        // directions, which keeps Δ symmetric in its arguments.
        std::cmp::Ordering::Equal => {
            (directed_stretch(a, b, cfg) + directed_stretch(b, a, cfg)) / 2.0
        }
    }
}

/// Lanes per block of the block walk ([`Lanes::min_stretch`]).
///
/// Chosen with a length-bucketed microbenchmark (since removed) that timed
/// one Δ per pair over 799 pairs of 800 metro subscribers per bucket, at
/// mean lengths of 27, 40, 99, 213 and 452 samples. Medians of three runs
/// on a 2-vCPU Intel Xeon host: blocks of 8 were the fastest at
/// 40 samples, the metro mean; blocks of 16 were 8 % slower there and
/// 7–31 % faster from 99 samples up; blocks of 4 were 13–72 % slower than
/// blocks of 8 in every bucket from 40 samples up.
const BLOCK: usize = 8;

/// From this many samples in the shorter operand on, [`Lanes::fill`] cuts
/// the lanes into blocks of [`BLOCK`] and each outer sample walks them;
/// below it, each outer sample runs the plain lane loop over every
/// candidate. Stream windows (~4 samples) never reach it. On the same
/// microbenchmark, thresholds of 16, 24, 32 and 48 could not be told apart
/// in the 27- and 40-sample buckets (runs spread by ~20 %), nor in
/// single-thread runs of `release-sharded`'s engine at seed 7; 24, the
/// shortest operand with a block on each side of a middle one, is kept.
const BLOCK_MIN_LEN: usize = 24;

/// One candidate of the lane loop: a sample of the shorter operand, decoded
/// into the `i64` edges and extents Eqs. (4)–(9) read.
#[derive(Debug, Clone, Copy)]
struct Lane {
    x: i64,
    x_end: i64,
    y: i64,
    y_end: i64,
    /// `dx + dy`: the spatial extent the candidate's own box already covers.
    dxy: i64,
    t: i64,
    t_end: i64,
    dt: i64,
}

impl Lane {
    #[inline]
    fn of(q: &Sample) -> Self {
        Self {
            x: q.x,
            x_end: q.x_end(),
            y: q.y,
            y_end: q.y_end(),
            dxy: i64::from(q.dx) + i64::from(q.dy),
            t: i64::from(q.t),
            t_end: q.t_end() as i64,
            dt: i64::from(q.dt),
        }
    }

    /// The box of this one lane, as a hull of one sample.
    #[inline]
    fn hull(&self) -> StretchHull {
        StretchHull {
            x_min: self.x,
            x_end: self.x_end,
            y_min: self.y,
            y_end: self.y_end,
            t_min: self.t,
            t_end: self.t_end,
            len: 1,
        }
    }
}

/// [`BLOCK`] consecutive lanes of the shorter operand, summarized for the
/// block walk.
#[derive(Debug, Clone, Copy)]
struct Block {
    /// The box of the block's lanes; `len` is their count.
    hull: StretchHull,
    /// The largest `t_end` over this block and every earlier one. Windows
    /// differ in length, so a block's own `t_end` says nothing about the
    /// blocks before it; this running maximum does.
    t_end_max: i64,
}

/// The shorter operand of one Eq. (10) evaluation, decoded once into
/// integer lanes, so the inner loop streams dense `i64` records instead of
/// widening every candidate's edges and extents once per outer sample.
///
/// A lane is one 64-byte record per candidate rather than one column per
/// field: the minimum's compare-and-select chain keeps the loop scalar
/// across candidates (LLVM pairs the spatial and temporal halves into
/// two-wide SSE2 operations instead), and a single record pointer leaves
/// room in the registers that eight column pointers spilled. Against a
/// loop that calls [`sample_stretch`] on each candidate, on `Vec<Sample>`
/// metro pairs (2-vCPU Intel Xeon host), records measured 1.26–1.30x and
/// columns 1.21–1.22x.
#[derive(Debug, Default)]
struct Lanes {
    /// One lane per sample, in the operand's order (by start time).
    lanes: Vec<Lane>,
    /// The lanes cut into blocks of [`BLOCK`], in the same order; empty
    /// below [`BLOCK_MIN_LEN`] lanes.
    blocks: Vec<Block>,
}

impl Lanes {
    /// Decodes `samples` into the lanes, and from [`BLOCK_MIN_LEN`] samples
    /// on into blocks, replacing what they held. The samples must be sorted
    /// by start time, as every fingerprint's are.
    fn fill(&mut self, samples: &[Sample]) {
        self.lanes.clear();
        self.lanes.extend(samples.iter().map(Lane::of));
        debug_assert!(self.lanes.windows(2).all(|w| w[0].t <= w[1].t));
        self.blocks.clear();
        if self.lanes.len() >= BLOCK_MIN_LEN {
            self.cut_blocks();
        }
    }

    /// Cuts the lanes into blocks of [`BLOCK`], each with its box and the
    /// running `t_end` maximum.
    ///
    /// This and [`Lanes::walk`] stay out of line so that what a short
    /// operand runs — the decode and the plain loop — stays inlined into
    /// [`fold_minima`]. Inlined, the two made 4-sample pairs (a stream
    /// window's) 6–14 % slower on [`fingerprint_stretch`] (2-vCPU Intel
    /// Xeon host, alternating runs).
    #[inline(never)]
    fn cut_blocks(&mut self) {
        let mut t_end_max = i64::MIN;
        self.blocks.extend(self.lanes.chunks(BLOCK).map(|chunk| {
            let hull = chunk[1..]
                .iter()
                .fold(chunk[0].hull(), |h, q| h.union(&q.hull(), chunk.len()));
            t_end_max = t_end_max.max(hull.t_end);
            Block { hull, t_end_max }
        }));
    }

    /// The minimum sample stretch effort from `s` to any candidate in the
    /// lanes, bit-identical to folding [`sample_stretch`] over them.
    ///
    /// `na` and `nb` are the multiplicities of `s`'s and the candidates'
    /// fingerprints, already replaced by 1 when population weighting is
    /// off. Below [`BLOCK_MIN_LEN`] candidates this is the plain lane loop
    /// ([`fold_lanes`]) over all of them, from there on the block walk
    /// ([`Lanes::walk`]).
    #[inline(always)]
    fn min_stretch(&self, s: &Sample, na: f64, nb: f64, cfg: &StretchConfig) -> f64 {
        let s = Lane::of(s);
        if self.blocks.is_empty() {
            fold_lanes(&self.lanes, &s, na, nb, cfg, f64::INFINITY)
        } else {
            self.walk(&s, na, nb, cfg)
        }
    }

    /// The block walk: the minimum of [`Lanes::min_stretch`], folding only
    /// the blocks that could still hold it.
    ///
    /// * It starts at the first block whose start is at or after `s`'s and
    ///   steps outward, each time on the side whose next block has the
    ///   smaller time gap to `s`: on the right that block's start (starts
    ///   only grow rightward), on the left the running `t_end` maximum
    ///   (which only shrinks leftward);
    /// * it skips a block whose [`sample_hull_floor`] against the block's
    ///   box, minus [`FLOOR_SLACK`], exceeds the best effort so far, and
    ///   folds the others with the plain loop;
    /// * it stops once the time term of that floor alone, [`time_floor`] of
    ///   the gap, does: the other side's gap is no smaller and gaps only
    ///   grow outward, so every block left unvisited is skipped too.
    ///
    /// Every effort in a skipped block is at least the block's floor, less
    /// a few ulps of rounding that the slack covers, so it is strictly above
    /// the best: it can neither be nor tie the minimum, and the minimum of
    /// non-NaN values does not depend on the visiting order.
    #[inline(never)]
    fn walk(&self, s: &Lane, na: f64, nb: f64, cfg: &StretchConfig) -> f64 {
        let blocks = &self.blocks;
        let mut hi = blocks.partition_point(|b| b.hull.t_min < s.t);
        let mut lo = hi;
        let mut best = f64::INFINITY;
        loop {
            let left = match lo.checked_sub(1) {
                Some(b) => s.t - blocks[b].t_end_max,
                None => i64::MAX,
            };
            let right = match blocks.get(hi) {
                Some(b) => b.hull.t_min - s.t_end,
                None => i64::MAX,
            };
            let (b, gap) = if left <= right {
                if lo == 0 {
                    break; // both sides are exhausted
                }
                lo -= 1;
                (lo, left)
            } else {
                hi += 1;
                (hi - 1, right)
            };
            let block = &blocks[b];
            // The first block visited is never skipped: nothing beats ∞.
            if best < f64::INFINITY && sample_hull_floor(s, &block.hull, cfg) - FLOOR_SLACK > best {
                // `gap` is the smaller side's, so its time term bounds the
                // floor of every block not yet visited on either side.
                if gap > 0 && time_floor(gap, cfg) - FLOOR_SLACK > best {
                    break;
                }
                continue;
            }
            let start = b * BLOCK;
            let members = &self.lanes[start..start + block.hull.len];
            best = fold_lanes(members, s, na, nb, cfg, best);
        }
        best
    }
}

/// The plain lane loop: folds the effort from `s` to every candidate in
/// `lanes` into `best` with branch-free selects.
///
/// The covering box of `s` and `q` spans
/// `u = (max(x_end) − min(x)) + (max(y_end) − min(y))`, so the growth
/// `l_ab + r_ab` of Eqs. (5)–(6) is `u − (dx_s + dy_s)` and `l_ba + r_ba`
/// is `u − (dx_q + dy_q)`; time works the same way. These are the exact
/// integer sums [`raw_spatial_stretch_m`] and [`raw_temporal_stretch_min`]
/// form, and the `f64` operations after them are theirs, in their order.
/// No value is NaN (the caps are positive and the multiplicities at least
/// 1), so the selects equal `f64::min` and the minimum does not depend on
/// the visiting order.
#[inline]
fn fold_lanes(
    lanes: &[Lane],
    s: &Lane,
    na: f64,
    nb: f64,
    cfg: &StretchConfig,
    mut best: f64,
) -> f64 {
    let n = na + nb;
    for q in lanes {
        let u = (s.x_end.max(q.x_end) - s.x.min(q.x)) + (s.y_end.max(q.y_end) - s.y.min(q.y));
        let raw_s = ((u - s.dxy) as f64 * na + (u - q.dxy) as f64 * nb) / n;
        let ut = s.t_end.max(q.t_end) - s.t.min(q.t);
        let raw_t = ((ut - s.dt) as f64 * na + (ut - q.dt) as f64 * nb) / n;
        let phi_s = raw_s / cfg.phi_max_space_m;
        let phi_s = if phi_s < 1.0 { phi_s } else { 1.0 };
        let phi_t = raw_t / cfg.phi_max_time_min;
        let phi_t = if phi_t < 1.0 { phi_t } else { 1.0 };
        let d = cfg.w_space * phi_s + cfg.w_time * phi_t;
        best = if d < best { d } else { best };
    }
    best
}

/// Per-thread scratch of the Eq. (10) kernels, reused by every evaluation
/// on the thread, so a daily-window pair pays no allocation.
#[derive(Debug, Default)]
struct Scratch {
    /// The shorter operand of the current direction.
    lanes: Lanes,
    /// The suffix floors a cutoff-aware direction owes, one per outer
    /// sample it has yet to visit.
    floors: Vec<f64>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// The one inner loop of Eq. (10): adds the minimum effort of each sample
/// of `long[first..]` into `short` to `total`, in order. After sample `i`,
/// `check(i, total)` may stop the scan with its own break value; a scan
/// that is never stopped returns the final sum. [`directed_stretch`] never
/// stops it, [`directed_resume`] stops it when the cutoff is proven.
fn fold_minima<B>(
    long: &Fingerprint,
    short: &Fingerprint,
    first: usize,
    mut total: f64,
    lanes: &mut Lanes,
    cfg: &StretchConfig,
    mut check: impl FnMut(usize, f64) -> ControlFlow<B>,
) -> ControlFlow<B, f64> {
    let (na, nb) = if cfg.population_weighting {
        (long.multiplicity() as f64, short.multiplicity() as f64)
    } else {
        (1.0, 1.0)
    };
    lanes.fill(short.samples());
    for (i, s) in long.samples().iter().enumerate().skip(first) {
        total += lanes.min_stretch(s, na, nb, cfg);
        check(i, total)?;
    }
    ControlFlow::Continue(total)
}

/// One direction of Eq. (10): match every sample of `long` into `short`.
/// The public [`fingerprint_stretch`], the exact seeds of `Pruning::Off`
/// and the residual merge run here; it is [`fold_minima`] with no stopping
/// test, so it returns the bits [`directed_resume`] returns with an
/// infinite cutoff.
fn directed_stretch(long: &Fingerprint, short: &Fingerprint, cfg: &StretchConfig) -> f64 {
    let never = |_, _| ControlFlow::<std::convert::Infallible>::Continue(());
    let ControlFlow::Continue(total) = SCRATCH.with_borrow_mut(|scratch| {
        fold_minima(long, short, 0, 0.0, &mut scratch.lanes, cfg, never)
    });
    total / long.len() as f64
}

/// Result of a cutoff-aware Eq. (10) evaluation: either the exact stretch
/// effort, or — if the evaluation was abandoned early — an admissible lower
/// bound on it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StretchEval {
    /// The evaluation ran to completion; the value is bit-identical to what
    /// [`fingerprint_stretch`] returns for the same pair.
    Exact(f64),
    /// The evaluation was abandoned because the partial mean — strengthened
    /// by the per-sample hull floors still owed by the unvisited suffix —
    /// already proved `Δ_ab` strictly above the cutoff; the carried value is
    /// a lower bound on the true effort (and itself strictly above the
    /// cutoff).
    AtLeast(f64),
}

/// Saved position of an abandoned [`fingerprint_stretch_cutoff_resume`]
/// evaluation of one fixed pair.
///
/// The exact prefix sum of per-sample minima is a deterministic function of
/// the two fingerprints alone — the cutoff only decides *where* the scan
/// stops, never what it accumulates — so an abandoned evaluation can resume
/// from its saved prefix under a later (typically larger) cutoff instead of
/// restarting from sample zero, and a resumed evaluation that runs to
/// completion returns the same bits as an uninterrupted one.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StretchProgress {
    /// First direction's exact mean — meaningful once `dir == 1`
    /// (equal-length pairs only).
    d1: f64,
    /// Exact prefix sum of the direction currently being scanned.
    total: f64,
    /// Outer samples of the current direction already folded into `total`.
    next: u32,
    /// 0 while the first directed scan is incomplete, 1 afterwards.
    dir: u8,
}

impl StretchProgress {
    /// Progress of an evaluation that has not started.
    #[inline]
    pub fn start() -> Self {
        Self::default()
    }
}

/// Cutoff-aware, resumable variant of [`fingerprint_stretch`] — tier 2 of
/// the distance cascade.
///
/// Evaluates `Δ_ab` but abandons as soon as the effort accumulated so far
/// proves the result *strictly* exceeds `cutoff`, returning the proven
/// lower bound instead of finishing the scan. With `cutoff =
/// f64::INFINITY` the function never abandons and
/// `Exact(fingerprint_stretch(a, b, cfg))` is returned bit-for-bit (the
/// accumulation order and arithmetic are identical).
///
/// Admissibility of the partial mean: Eq. (10) averages per-sample minima,
/// each ≥ 0, so after `i` of `n` outer samples the final sum is at least
/// the partial sum (IEEE addition of a non-negative term is monotone and
/// correctly rounded, so this survives floating point) and the final mean
/// is at least `partial_total / n`. The unvisited suffix is additionally
/// booked at its per-sample hull floors rather than at zero (the suffix
/// strengthening) — each floor is an admissible lower bound
/// on the matching effort of one outer sample, and the comparison concedes
/// a rounding slack so the strengthened bound stays below the *computed*
/// value too. For equal-length fingerprints the canonical `Δ` averages
/// both directions; the per-direction mappings `m ↦ m/2` (second direction
/// still unknown, bounded below by 0) and `m ↦ (d₁+m)/2` (first direction
/// exact) keep the carried value a lower bound on the averaged result.
///
/// Abandonment is *strict* (`> cutoff`, never `≥`), so a pair whose true
/// effort ties the cutoff is always evaluated exactly — callers that use
/// the running best-pair value as the cutoff keep their tie-breaking
/// behavior, and hence their output, byte-identical.
///
/// The evaluation picks this pair up where `progress` says it previously
/// abandoned; a fresh one starts from [`StretchProgress::start`]. On
/// [`StretchEval::AtLeast`] the updated `progress` records the exact work
/// already done; passing it back in (for the *same* pair and config) skips
/// straight to the first unvisited sample. On [`StretchEval::Exact`] the
/// result is bit-identical to an uninterrupted evaluation — callers cache
/// it and never evaluate the pair again.
pub fn fingerprint_stretch_cutoff_resume(
    a: &Fingerprint,
    b: &Fingerprint,
    cfg: &StretchConfig,
    cutoff: f64,
    progress: &mut StretchProgress,
) -> StretchEval {
    // Only a finite cutoff arms the suffix floors that read the hulls.
    let hulls = cutoff
        .is_finite()
        .then(|| (StretchHull::of(a), StretchHull::of(b)));
    let hulls = hulls.as_ref().map(|(ha, hb)| (ha, hb));
    fingerprint_stretch_cutoff_resume_hulled(a, b, hulls, cfg, cutoff, progress)
}

/// [`fingerprint_stretch_cutoff_resume`] for a caller that already holds
/// the operands' hulls, `(hull of a, hull of b)`: the arena passes
/// the ones it maintains instead of rebuilding the shorter operand's hull
/// on every evaluation.
///
/// The hulls only feed the suffix floors, which are armed when `hulls` is
/// given and `cutoff` is finite. Given [`StretchHull::of`] of each
/// operand, every result and saved `progress` equals the public entry
/// point's. A larger hull would only lower the floors, which stay
/// admissible, so abandonment would stay sound but come later.
pub(crate) fn fingerprint_stretch_cutoff_resume_hulled(
    a: &Fingerprint,
    b: &Fingerprint,
    hulls: Option<(&StretchHull, &StretchHull)>,
    cfg: &StretchConfig,
    cutoff: f64,
    progress: &mut StretchProgress,
) -> StretchEval {
    // Suffix floors are pure overhead when the caller never abandons
    // (`cutoff = ∞`), so only arm them for a finite cutoff.
    let hulls = hulls.filter(|_| cutoff.is_finite());
    let (hull_a, hull_b) = (hulls.map(|h| h.0), hulls.map(|h| h.1));
    match a.len().cmp(&b.len()) {
        std::cmp::Ordering::Greater => directed_resume(a, b, hull_b, cfg, cutoff, |m| m, progress),
        std::cmp::Ordering::Less => directed_resume(b, a, hull_a, cfg, cutoff, |m| m, progress),
        std::cmp::Ordering::Equal => {
            if progress.dir == 0 {
                match directed_resume(a, b, hull_b, cfg, cutoff, |m| m / 2.0, progress) {
                    StretchEval::Exact(d1) => {
                        progress.d1 = d1;
                        progress.dir = 1;
                        progress.total = 0.0;
                        progress.next = 0;
                    }
                    abandoned => return abandoned,
                }
            }
            let d1 = progress.d1;
            match directed_resume(b, a, hull_a, cfg, cutoff, |m| (d1 + m) / 2.0, progress) {
                StretchEval::Exact(d2) => StretchEval::Exact((d1 + d2) / 2.0),
                abandoned => abandoned,
            }
        }
    }
}

/// Slack conceded by the suffix-strengthened abandonment test of
/// [`directed_resume`].
///
/// The per-sample hull floors and their running remainder are rounded
/// independently of the exact accumulation, so a floor-augmented bound can
/// exceed the *computed* Eq. (10) value by a few ulps even though it never
/// exceeds the real-arithmetic one. Admissibility must hold against the
/// computed value (that is what the exact path publishes and what ties are
/// broken on), so the test concedes this margin — vastly larger than the
/// worst accumulated IEEE error for any realistic fingerprint length
/// (`< len·ε` in the mean) — both before abandoning and in the carried
/// bound. The concession only ever makes abandonment rarer, never unsound.
const FLOOR_SLACK: f64 = 1e-9;

/// Admissible floor on the matching effort of one outer sample `s` into
/// any sample inside `hull`: the per-sample analog of
/// [`stretch_lower_bound`]. The suffix floors take it against the hull of
/// the shorter fingerprint, the block walk against the box of one block.
///
/// Every candidate match lies inside `hull`, per-axis interval gaps only
/// shrink as intervals grow, the raw stretches of Eqs. (4)–(9) dominate the
/// gaps (the direction weights sum to 1), and the saturation caps are
/// monotone — so no sample inside the hull can be matched from `s` below
/// this value.
#[inline]
fn sample_hull_floor(s: &Lane, hull: &StretchHull, cfg: &StretchConfig) -> f64 {
    let gx = interval_gap(s.x, s.x_end, hull.x_min, hull.x_end);
    let gy = interval_gap(s.y, s.y_end, hull.y_min, hull.y_end);
    let gt = interval_gap(s.t, s.t_end, hull.t_min, hull.t_end);
    gap_floor(gx + gy, gt, cfg)
}

/// The floor formula shared by every Eq. (1) bound built from gaps: with
/// `gxy` the summed spatial gaps and `gt` the temporal gap (both at least
/// 0), `w_σ·min(gxy/φmax_σ, 1) + w_τ·min(gt/φmax_τ, 1)`. It grows with
/// either gap.
#[inline]
fn gap_floor(gxy: i64, gt: i64, cfg: &StretchConfig) -> f64 {
    if gxy == 0 && gt == 0 {
        return 0.0;
    }
    let phi_s = (gxy as f64 / cfg.phi_max_space_m).min(1.0);
    cfg.w_space * phi_s + time_floor(gt, cfg)
}

/// The time term of [`gap_floor`], `w_τ·min(gt/φmax_τ, 1)`: a floor of its
/// own, since the space term is never negative.
#[inline]
fn time_floor(gt: i64, cfg: &StretchConfig) -> f64 {
    cfg.w_time * (gt as f64 / cfg.phi_max_time_min).min(1.0)
}

/// One direction of [`fingerprint_stretch_cutoff_resume`]. `bound_of` maps
/// the partial mean of *this* direction to a lower bound on the caller's
/// final result (identity for unequal lengths; the averaging maps for the
/// equal-length case). Runs the same [`fold_minima`] loop as
/// [`directed_stretch`], starting from — and on abandonment saving back
/// to — the `total`/`next` prefix recorded in `progress`.
///
/// The plain partial mean books every unvisited sample at zero effort, so
/// it only proves abandonment near the end of the scan — on dense metro
/// fingerprints an abandoned evaluation used to cost almost as much as a
/// full one. `short_hull` (the hull of `short`, given only for a finite
/// cutoff) therefore arms a suffix strengthening: each outer sample owes
/// at least its [`sample_hull_floor`] toward the final sum, and `owed`
/// carries the floors of the samples not yet visited. Each floor is
/// computed once, by the pre-scan check (prefix plus everything owed),
/// which frequently abandons in O(|long|) integer gap arithmetic before
/// the shorter operand is even decoded into its lanes.
fn directed_resume(
    long: &Fingerprint,
    short: &Fingerprint,
    short_hull: Option<&StretchHull>,
    cfg: &StretchConfig,
    cutoff: f64,
    bound_of: impl Fn(f64) -> f64,
    progress: &mut StretchProgress,
) -> StretchEval {
    let len = long.len() as f64;
    let first = progress.next as usize;
    if first >= long.len() {
        // The whole direction is already folded (the previous call abandoned
        // on the final bound check); its mean is now exact.
        return StretchEval::Exact(progress.total / len);
    }
    SCRATCH.with_borrow_mut(|Scratch { lanes, floors }| {
        floors.clear();
        let mut owed = 0.0;
        if let Some(hull) = short_hull {
            for s in &long.samples()[first..] {
                let floor = sample_hull_floor(&Lane::of(s), hull, cfg);
                floors.push(floor);
                owed += floor;
            }
            let lb = bound_of((progress.total + owed) / len) - FLOOR_SLACK;
            if lb > cutoff {
                return StretchEval::AtLeast(lb);
            }
        }
        let check = |i: usize, total: f64| {
            // No floors are stored when none are armed.
            if let Some(floor) = floors.get(i - first) {
                owed -= floor;
            }
            let lb = bound_of((total + owed.max(0.0)) / len) - FLOOR_SLACK;
            if lb > cutoff {
                ControlFlow::Break((i, total, lb))
            } else {
                ControlFlow::Continue(())
            }
        };
        match fold_minima(long, short, first, progress.total, lanes, cfg, check) {
            ControlFlow::Continue(total) => StretchEval::Exact(total / len),
            ControlFlow::Break((i, total, lb)) => {
                progress.total = total;
                progress.next = (i + 1) as u32;
                StretchEval::AtLeast(lb)
            }
        }
    })
}

/// `Δ_ab` together with the matched per-sample efforts, decomposed into
/// `(w_σ φ_σ, w_τ φ_τ)` pairs — one per sample of the longer fingerprint.
/// These are the elements of the sets `S^k_a` and `T^k_a` of §5.3.
pub fn fingerprint_stretch_decomposed(
    a: &Fingerprint,
    b: &Fingerprint,
    cfg: &StretchConfig,
) -> (f64, Vec<(f64, f64)>) {
    let mut parts = Vec::new();
    match a.len().cmp(&b.len()) {
        std::cmp::Ordering::Greater => directed_decomposed(a, b, cfg, &mut parts),
        std::cmp::Ordering::Less => directed_decomposed(b, a, cfg, &mut parts),
        // Equal lengths: union of both directions' matched terms, so that
        // mean(parts) still equals the canonical (averaged) Δ.
        std::cmp::Ordering::Equal => {
            directed_decomposed(a, b, cfg, &mut parts);
            directed_decomposed(b, a, cfg, &mut parts);
        }
    }
    let total: f64 = parts.iter().map(|(s, t)| s + t).sum();
    (total / parts.len() as f64, parts)
}

/// One direction of the decomposition: appends one `(w_σ φ_σ, w_τ φ_τ)`
/// pair per sample of `long` (its minimum-effort match into `short`).
fn directed_decomposed(
    long: &Fingerprint,
    short: &Fingerprint,
    cfg: &StretchConfig,
    parts: &mut Vec<(f64, f64)>,
) {
    let n_long = long.multiplicity() as f64;
    let n_short = short.multiplicity() as f64;
    for s in long.samples() {
        let mut best = f64::INFINITY;
        let mut best_parts = (0.0, 0.0);
        for q in short.samples() {
            let (ps, pt) = sample_stretch_parts(s, n_long, q, n_short, cfg);
            let d = ps + pt;
            if d < best {
                best = d;
                best_parts = (ps, pt);
            }
        }
        parts.push(best_parts);
    }
}

/// Per-fingerprint summary powering the admissible *pair* pruning of the
/// GLOVE arena: the spatiotemporal hull (the smallest box covering every
/// sample) plus the sample count.
///
/// Computed once per fingerprint in O(n), it yields [`stretch_lower_bound`]
/// in O(1) per pair — cheap enough to precede every full Eq. (10)
/// evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StretchHull {
    /// West edge of the hull, meters.
    pub x_min: i64,
    /// East edge (exclusive) of the hull, meters.
    pub x_end: i64,
    /// South edge of the hull, meters.
    pub y_min: i64,
    /// North edge (exclusive) of the hull, meters.
    pub y_end: i64,
    /// Start of the hull's time window, minutes.
    pub t_min: i64,
    /// End (exclusive) of the hull's time window, minutes.
    pub t_end: i64,
    /// Number of samples summarized.
    pub len: usize,
}

impl StretchHull {
    /// Computes the hull of a fingerprint.
    pub fn of(fp: &Fingerprint) -> Self {
        let samples = fp.samples();
        let first = samples[0];
        let mut hull = Self {
            x_min: first.x,
            x_end: first.x_end(),
            y_min: first.y,
            y_end: first.y_end(),
            t_min: i64::from(first.t),
            t_end: first.t_end() as i64,
            len: samples.len(),
        };
        for s in &samples[1..] {
            hull.x_min = hull.x_min.min(s.x);
            hull.x_end = hull.x_end.max(s.x_end());
            hull.y_min = hull.y_min.min(s.y);
            hull.y_end = hull.y_end.max(s.y_end());
            hull.t_min = hull.t_min.min(i64::from(s.t));
            hull.t_end = hull.t_end.max(s.t_end() as i64);
        }
        hull
    }

    /// The union of two hulls, with `len` the sample count of the merged
    /// fingerprint it summarizes.
    ///
    /// This is the incremental-maintenance primitive of the merge loop:
    /// when a GLOVE merge suppresses no samples, every merged sample is the
    /// bounding box of a group containing at least one sample from each
    /// parent region it covers, and every parent sample is covered by some
    /// merged sample — so the merged fingerprint's hull is *exactly* the
    /// union of the parents' hulls and needs no O(n) recomputation. (When
    /// the merge does suppress samples, the union is merely a superset and
    /// the caller must fall back to [`StretchHull::of`]: a too-large hull
    /// would weaken the bound's admissibility guarantee in the other
    /// direction — the bound stays sound, but the equality invariant the
    /// incremental path relies on would silently drift.)
    pub fn union(&self, other: &Self, len: usize) -> Self {
        Self {
            x_min: self.x_min.min(other.x_min),
            x_end: self.x_end.max(other.x_end),
            y_min: self.y_min.min(other.y_min),
            y_end: self.y_end.max(other.y_end),
            t_min: self.t_min.min(other.t_min),
            t_end: self.t_end.max(other.t_end),
            len,
        }
    }
}

/// Gap between two half-open intervals `[a0, a1)` and `[b0, b1)`; 0 when
/// they overlap or touch.
#[inline]
fn interval_gap(a0: i64, a1: i64, b0: i64, b1: i64) -> i64 {
    (b0 - a1).max(a0 - b1).max(0)
}

/// An admissible lower bound on the fingerprint stretch effort `Δ_ab` of
/// Eq. (10), computed from the two hull summaries alone.
///
/// Derivation (see DESIGN.md "Admissible pair pruning" for the long form):
/// for any samples `s ∈ a`, `q ∈ b`, the raw per-axis covering stretch of
/// Eqs. (4)–(9) is, in each direction, at least the gap between the two
/// intervals on that axis; since the direction weights `n_a/(n_a+n_b)` and
/// `n_b/(n_a+n_b)` sum to 1, the weighted average is also at least the gap
/// (this holds with population weighting on or off). Samples lie inside
/// their fingerprint's hull and set distances shrink as sets grow, so every
/// per-sample gap is at least the hull gap. Capping (`min(·, 1)`) is
/// monotone, hence
///
/// ```text
/// δ_ab(i,j) ≥ w_σ·min((gx+gy)/φmax_σ, 1) + w_τ·min(gt/φmax_τ, 1)
/// ```
///
/// for every sample pair, where `gx, gy, gt` are the per-axis hull gaps.
/// `Δ_ab` averages per-sample *minima* of `δ`, each of which obeys the same
/// bound, so `Δ_ab` does too — in both orientations of Eq. (10) and for the
/// equal-length average, making the bound independent of which fingerprint
/// is longer.
///
/// The bound is exactly 0 when the hulls overlap on every axis, so it only
/// ever *prunes* genuinely separated pairs; it never misranks a pair.
#[inline]
pub fn stretch_lower_bound(a: &StretchHull, b: &StretchHull, cfg: &StretchConfig) -> f64 {
    let gx = interval_gap(a.x_min, a.x_end, b.x_min, b.x_end);
    let gy = interval_gap(a.y_min, a.y_end, b.y_min, b.y_end);
    let gt = interval_gap(a.t_min, a.t_end, b.t_min, b.t_end);
    gap_floor(gx + gy, gt, cfg)
}

/// Naive reference implementation of Eq. (10) (no pruning). Exposed for
/// testing and benchmarking the pruned version against.
pub fn fingerprint_stretch_naive(a: &Fingerprint, b: &Fingerprint, cfg: &StretchConfig) -> f64 {
    let directed = |long: &Fingerprint, short: &Fingerprint| -> f64 {
        let n_long = long.multiplicity() as f64;
        let n_short = short.multiplicity() as f64;
        let mut total = 0.0;
        for s in long.samples() {
            let mut best = f64::INFINITY;
            for q in short.samples() {
                let d = sample_stretch(s, n_long, q, n_short, cfg);
                if d < best {
                    best = d;
                }
            }
            total += best;
        }
        total / long.len() as f64
    };
    match a.len().cmp(&b.len()) {
        std::cmp::Ordering::Greater => directed(a, b),
        std::cmp::Ordering::Less => directed(b, a),
        std::cmp::Ordering::Equal => (directed(a, b) + directed(b, a)) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Fingerprint;
    use proptest::collection::vec;
    use proptest::prelude::*;

    fn cfg() -> StretchConfig {
        StretchConfig::default()
    }

    #[test]
    fn identical_samples_have_zero_stretch() {
        let s = Sample::point(1_000, 2_000, 500);
        assert_eq!(sample_stretch(&s, 1.0, &s, 1.0, &cfg()), 0.0);
    }

    #[test]
    fn stretch_is_symmetric_for_equal_weights() {
        let a = Sample::point(0, 0, 10);
        let b = Sample::new(5_000, -2_000, 300, 700, 100, 45).unwrap();
        let d_ab = sample_stretch(&a, 1.0, &b, 1.0, &cfg());
        let d_ba = sample_stretch(&b, 1.0, &a, 1.0, &cfg());
        assert!((d_ab - d_ba).abs() < 1e-12);
    }

    #[test]
    fn stretch_is_in_unit_interval_and_saturates() {
        let a = Sample::point(0, 0, 0);
        // Farther than both caps: delta saturates at exactly 1.
        let b = Sample::point(1_000_000, 1_000_000, 10_000);
        let d = sample_stretch(&a, 1.0, &b, 1.0, &cfg());
        assert_eq!(d, 1.0);
    }

    #[test]
    fn disjoint_boxes_spatial_stretch_matches_hand_computation() {
        // a = [0,100)x[0,100), b = [300,400)x[0,100): covering b from a needs
        // r = 300 east; covering a from b needs l = 300 west. Equal weights
        // -> raw spatial stretch = (300 + 300)/2 = 300.
        let a = Sample::point(0, 0, 0);
        let b = Sample::point(300, 0, 0);
        let raw = raw_spatial_stretch_m(&a, 1.0, &b, 1.0);
        assert_eq!(raw, 300.0);
    }

    #[test]
    fn overlapping_boxes_cost_less_than_disjoint() {
        let a = Sample::new(0, 0, 200, 200, 0, 1).unwrap();
        let overlapping = Sample::new(100, 0, 200, 200, 0, 1).unwrap();
        let disjoint = Sample::new(400, 0, 200, 200, 0, 1).unwrap();
        let d_overlap = sample_stretch(&a, 1.0, &overlapping, 1.0, &cfg());
        let d_disjoint = sample_stretch(&a, 1.0, &disjoint, 1.0, &cfg());
        assert!(d_overlap < d_disjoint);
    }

    #[test]
    fn containment_still_costs_the_container_side() {
        // b inside a: a needs no growth, but b must grow to cover a, so the
        // weighted effort is positive (Eq. 4 sums both directions).
        let a = Sample::new(0, 0, 1_000, 1_000, 0, 60).unwrap();
        let b = Sample::new(400, 400, 100, 100, 20, 1).unwrap();
        let d = sample_stretch(&a, 1.0, &b, 1.0, &cfg());
        assert!(d > 0.0);
        // With all the weight on a (na >> nb), the effort vanishes because
        // a's users lose nothing.
        let d_weighted = sample_stretch(&a, 1e9, &b, 1.0, &cfg());
        assert!(d_weighted < 1e-6);
    }

    #[test]
    fn population_weighting_can_be_ablated() {
        // With weighting off, swapping the multiplicities changes nothing
        // and the result equals the unweighted effort.
        let unweighted_cfg = StretchConfig {
            population_weighting: false,
            ..StretchConfig::default()
        };
        let a = Sample::point(0, 0, 0);
        let b = Sample::new(-500, -500, 2_000, 2_000, 0, 1).unwrap();
        let d1 = sample_stretch(&a, 9.0, &b, 1.0, &unweighted_cfg);
        let d2 = sample_stretch(&a, 1.0, &b, 9.0, &unweighted_cfg);
        let d3 = sample_stretch(&a, 1.0, &b, 1.0, &unweighted_cfg);
        assert_eq!(d1, d2);
        assert_eq!(d1, d3);
        // And with weighting on the two differ (covered by the test below).
    }

    #[test]
    fn weights_shift_cost_toward_larger_group() {
        // Stretching a group of 9 users costs more than stretching 1 user:
        // the effort of the direction affecting more users dominates.
        let a = Sample::point(0, 0, 0); // would need to grow a lot
        let b = Sample::new(-500, -500, 2_000, 2_000, 0, 1).unwrap(); // covers a
                                                                      // a covers nothing of b; b already covers a.
        let d_a_heavy = sample_stretch(&a, 9.0, &b, 1.0, &cfg());
        let d_b_heavy = sample_stretch(&a, 1.0, &b, 9.0, &cfg());
        // When a (the sample that must grow) carries 9 users, cost is higher.
        assert!(d_a_heavy > d_b_heavy);
    }

    #[test]
    fn temporal_stretch_hand_computation() {
        // a = [0, 1), b = [60, 61): gap covering needs 60 min on each side's
        // account; equal weights -> raw = (60 + 60)/2 = 60.
        let a = Sample::point(0, 0, 0);
        let b = Sample::point(0, 0, 60);
        assert_eq!(raw_temporal_stretch_min(&a, 1.0, &b, 1.0), 60.0);
        // delta = 0.5 * 60/480 = 0.0625
        let d = sample_stretch(&a, 1.0, &b, 1.0, &cfg());
        assert!((d - 0.0625).abs() < 1e-12);
    }

    #[test]
    fn fingerprint_stretch_zero_on_identical() {
        let f = Fingerprint::from_points(0, &[(0, 0, 10), (5_000, 3_000, 400)]).unwrap();
        let g = Fingerprint::with_users(vec![1], f.samples().to_vec()).unwrap();
        assert_eq!(fingerprint_stretch(&f, &g, &cfg()), 0.0);
    }

    #[test]
    fn fingerprint_stretch_averages_over_longer() {
        // long has 2 samples; one matches short exactly (δ=0), the other is
        // 60 min away in time only (δ=0.0625). Average = 0.03125.
        let long = Fingerprint::from_points(0, &[(0, 0, 0), (0, 0, 60)]).unwrap();
        let short = Fingerprint::from_points(1, &[(0, 0, 0)]).unwrap();
        let d = fingerprint_stretch(&long, &short, &cfg());
        assert!((d - 0.03125).abs() < 1e-12);
        // Orientation is by length, so the argument order must not matter.
        let d2 = fingerprint_stretch(&short, &long, &cfg());
        assert_eq!(d, d2);
    }

    #[test]
    fn pruned_matches_naive_on_structured_data() {
        let cfg = cfg();
        let a = Fingerprint::from_points(
            0,
            &[
                (0, 0, 5),
                (1_000, 0, 100),
                (2_000, 500, 101),
                (0, 0, 700),
                (9_000, 9_000, 1_440),
                (0, 0, 10_000),
            ],
        )
        .unwrap();
        let b = Fingerprint::from_points(
            1,
            &[
                (50, 50, 8),
                (1_200, 100, 95),
                (-4_000, 2_000, 650),
                (100, 0, 9_500),
            ],
        )
        .unwrap();
        let pruned = fingerprint_stretch(&a, &b, &cfg);
        let naive = fingerprint_stretch_naive(&a, &b, &cfg);
        assert!((pruned - naive).abs() < 1e-12);
    }

    #[test]
    fn hull_lower_bound_is_admissible_on_structured_data() {
        let cfg = cfg();
        // Spatially and temporally separated fingerprints: the bound is
        // positive and never exceeds the true effort.
        let a = Fingerprint::from_points(0, &[(0, 0, 10), (2_000, 500, 200)]).unwrap();
        let b = Fingerprint::from_points(1, &[(60_000, 0, 5_000), (64_000, 900, 5_400)]).unwrap();
        let ha = StretchHull::of(&a);
        let hb = StretchHull::of(&b);
        let lb = stretch_lower_bound(&ha, &hb, &cfg);
        let exact = fingerprint_stretch(&a, &b, &cfg);
        assert!(lb > 0.0);
        assert!(
            lb <= exact + 1e-12,
            "bound {lb} must not exceed the true effort {exact}"
        );
        // Symmetric in its arguments.
        assert_eq!(lb, stretch_lower_bound(&hb, &ha, &cfg));
    }

    #[test]
    fn hull_lower_bound_is_zero_for_overlapping_hulls() {
        let cfg = cfg();
        let a = Fingerprint::from_points(0, &[(0, 0, 10), (5_000, 5_000, 900)]).unwrap();
        let b = Fingerprint::from_points(1, &[(2_500, 2_500, 500)]).unwrap();
        let lb = stretch_lower_bound(&StretchHull::of(&a), &StretchHull::of(&b), &cfg);
        assert_eq!(lb, 0.0);
    }

    #[test]
    fn hull_covers_every_sample() {
        let f = Fingerprint::from_points(3, &[(100, -300, 7), (-2_000, 900, 1_440)]).unwrap();
        let h = StretchHull::of(&f);
        assert_eq!(h.len, 2);
        for s in f.samples() {
            assert!(h.x_min <= s.x && s.x_end() <= h.x_end);
            assert!(h.y_min <= s.y && s.y_end() <= h.y_end);
            assert!(h.t_min <= i64::from(s.t) && s.t_end() as i64 <= h.t_end);
        }
    }

    #[test]
    fn cutoff_infinity_is_bitwise_exact() {
        // Unequal and equal lengths, both inner paths trivially covered by
        // structured data; the exact path of the cutoff evaluator must be
        // bit-identical to the plain one.
        let a = Fingerprint::from_points(0, &[(0, 0, 5), (3_000, 200, 300), (0, 0, 900)]).unwrap();
        let b = Fingerprint::from_points(1, &[(100, 0, 20), (2_500, 0, 310)]).unwrap();
        let c = Fingerprint::from_points(2, &[(40, 80, 25), (2_600, -100, 330)]).unwrap();
        for (x, y) in [(&a, &b), (&b, &a), (&b, &c)] {
            let exact = fingerprint_stretch(x, y, &cfg());
            match fingerprint_stretch_cutoff_resume(
                x,
                y,
                &cfg(),
                f64::INFINITY,
                &mut StretchProgress::start(),
            ) {
                StretchEval::Exact(d) => {
                    assert_eq!(d.to_bits(), exact.to_bits(), "must be bit-identical")
                }
                StretchEval::AtLeast(_) => panic!("infinite cutoff must never abandon"),
            }
        }
    }

    #[test]
    fn cutoff_abandonment_is_admissible_and_strict() {
        let cfg = cfg();
        let a = Fingerprint::from_points(0, &[(0, 0, 10), (500, 0, 2_000), (0, 0, 4_000)]).unwrap();
        let b = Fingerprint::from_points(1, &[(90_000, 0, 10_000)]).unwrap();
        let exact = fingerprint_stretch(&a, &b, &cfg);
        assert!(exact > 0.5);
        // A cutoff below the true effort: abandonment must return a lower
        // bound that is strictly above the cutoff yet never above the truth.
        match fingerprint_stretch_cutoff_resume(&a, &b, &cfg, 0.1, &mut StretchProgress::start()) {
            StretchEval::AtLeast(lb) => {
                assert!(lb > 0.1);
                assert!(lb <= exact + 1e-12);
            }
            StretchEval::Exact(d) => assert_eq!(d, exact, "finishing anyway is also fine"),
        }
        // A cutoff that ties the true effort must NOT abandon (strictness
        // preserves tie-breaking downstream).
        match fingerprint_stretch_cutoff_resume(&a, &b, &cfg, exact, &mut StretchProgress::start())
        {
            StretchEval::Exact(d) => assert_eq!(d.to_bits(), exact.to_bits()),
            StretchEval::AtLeast(lb) => {
                panic!("tie with the cutoff must evaluate exactly, got AtLeast({lb})")
            }
        }
    }

    #[test]
    fn cutoff_equal_length_bounds_stay_admissible() {
        let cfg = cfg();
        let a = Fingerprint::from_points(0, &[(0, 0, 10), (1_000, 0, 5_000)]).unwrap();
        let b = Fingerprint::from_points(1, &[(70_000, 0, 10), (71_000, 0, 5_000)]).unwrap();
        let exact = fingerprint_stretch(&a, &b, &cfg);
        for cutoff in [0.0, 0.1, 0.24, 0.4] {
            match fingerprint_stretch_cutoff_resume(
                &a,
                &b,
                &cfg,
                cutoff,
                &mut StretchProgress::start(),
            ) {
                StretchEval::AtLeast(lb) => {
                    assert!(lb > cutoff, "abandonment must prove the cutoff exceeded");
                    assert!(lb <= exact + 1e-12, "bound {lb} exceeds exact {exact}");
                }
                StretchEval::Exact(d) => assert_eq!(d.to_bits(), exact.to_bits()),
            }
        }
    }

    #[test]
    fn hull_union_matches_recomputation() {
        let a = Fingerprint::from_points(0, &[(0, 0, 10), (5_000, -2_000, 700)]).unwrap();
        let b = Fingerprint::from_points(1, &[(-3_000, 9_000, 40), (200, 100, 1_440)]).unwrap();
        let mut samples = a.samples().to_vec();
        samples.extend_from_slice(b.samples());
        let merged = Fingerprint::with_users(vec![0, 1], samples).unwrap();
        let union = StretchHull::of(&a).union(&StretchHull::of(&b), merged.len());
        assert_eq!(union, StretchHull::of(&merged));
    }

    /// A fingerprint of 1–160 samples (both sides of the switch to the
    /// block walk) shared by 1–8 subscribers numbered from `user`. Its
    /// samples cluster around a drawn origin, so two such fingerprints are
    /// often apart and their suffix floors positive.
    fn arb_fingerprint(user: u32) -> impl Strategy<Value = Fingerprint> {
        let sample = (
            -10_000i64..10_000,
            -10_000i64..10_000,
            1u32..5_000,
            0u32..2_000,
            1u32..600,
        );
        let origin = (0i64..200_000, 0u32..20_000);
        (origin, vec(sample, 1..=160), 1u32..=8).prop_map(move |((x0, t0), points, n)| {
            let samples = points
                .into_iter()
                .map(|(x, y, d, t, dt)| {
                    Sample::new(x0 + x, y, d, d, t0 + t, dt).expect("valid extents")
                })
                .collect();
            Fingerprint::with_users((user..user + n).collect(), samples).expect("non-empty")
        })
    }

    /// The first `n` samples of `fp`, same subscribers.
    fn truncated(fp: &Fingerprint, n: usize) -> Fingerprint {
        Fingerprint::with_users(fp.users().to_vec(), fp.samples()[..n].to_vec()).expect("n >= 1")
    }

    fn eval_bits(eval: StretchEval) -> (bool, u64) {
        match eval {
            StretchEval::Exact(d) => (true, d.to_bits()),
            StretchEval::AtLeast(lb) => (false, lb.to_bits()),
        }
    }

    fn progress_bits(p: &StretchProgress) -> (u64, u64, u32, u8) {
        (p.d1.to_bits(), p.total.to_bits(), p.next, p.dir)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The entry point the arena calls with its maintained hulls
        /// returns the public entry point's evaluation and saved progress
        /// at every step of a resumed sequence of cutoffs.
        #[test]
        fn hulled_entry_point_matches_the_public_one_step_for_step(
            a in arb_fingerprint(0),
            b in arb_fingerprint(100),
            shape in 0u8..4,
            fractions in vec(0.0f64..1.2, 1..=6),
        ) {
            let (a, b) = if shape == 0 {
                let n = a.len().min(b.len());
                (truncated(&a, n), truncated(&b, n))
            } else {
                (a, b)
            };
            let cfg = cfg();
            let exact = fingerprint_stretch(&a, &b, &cfg);
            let hulls = (StretchHull::of(&a), StretchHull::of(&b));
            let (mut public, mut hulled) = (StretchProgress::start(), StretchProgress::start());
            for cutoff in fractions.iter().map(|f| f * exact).chain([f64::INFINITY]) {
                let want = fingerprint_stretch_cutoff_resume(&a, &b, &cfg, cutoff, &mut public);
                let got = fingerprint_stretch_cutoff_resume_hulled(
                    &a,
                    &b,
                    Some((&hulls.0, &hulls.1)),
                    &cfg,
                    cutoff,
                    &mut hulled,
                );
                prop_assert_eq!(eval_bits(got), eval_bits(want));
                prop_assert_eq!(progress_bits(&hulled), progress_bits(&public));
                if let StretchEval::Exact(d) = want {
                    prop_assert_eq!(d.to_bits(), exact.to_bits());
                    break;
                }
            }
        }
    }

    /// A length for the shorter operand of the block tests: just around
    /// [`BLOCK_MIN_LEN`] or around a multiple of [`BLOCK`] (one less,
    /// equal, one more), from two blocks to twenty-four.
    fn arb_block_len() -> impl Strategy<Value = usize> {
        (0u8..4, 2usize..=24, 0usize..3).prop_map(|(pick, blocks, off)| {
            let base = if pick == 0 {
                BLOCK_MIN_LEN
            } else {
                blocks * BLOCK
            };
            base + off - 1
        })
    }

    /// A drawn sample before placement: position and start as fractions of
    /// the case's reach and span, a box side, and a window that is up to
    /// 2^20 minutes long in one draw of 16 and below two hours otherwise.
    type RawSample = (f64, f64, u32, f64, u8, (u32, f64), u32);

    fn arb_raw_sample() -> impl Strategy<Value = RawSample> {
        (
            0.0f64..1.0,
            0.0f64..1.0,
            1u32..2_000,
            0.0f64..1.0,
            0u8..16,
            (0u32..=20, 0.0f64..1.0),
            1u32..120,
        )
    }

    /// Places a raw sample within `2^reach` metres and `2^span` minutes.
    fn placed((fx, fy, d, ft, pick, (e, f), dt): RawSample, reach: u32, span: u32) -> Sample {
        let scale = |e: u32, f: f64| (f * (1u64 << e) as f64) as i64;
        let dt = if pick == 0 {
            1 + scale(e, f) as u32
        } else {
            dt
        };
        Sample::new(
            scale(reach, fx),
            scale(reach, fy),
            d,
            d,
            scale(span, ft) as u32,
            dt,
        )
        .expect("extents are at least 1")
    }

    /// The shorter operand, the outer samples, their multiplicities and
    /// the configuration of one block test.
    type BlockCase = (Fingerprint, Vec<Sample>, u32, u32, StretchConfig);

    /// A case of the block tests: a shorter operand whose length is drawn
    /// by [`arb_block_len`], 1–48 outer samples from the same spread, both
    /// multiplicities (1–64) and a configuration with caps from a metre to
    /// a continent and from a minute to two weeks, either weighting and
    /// any weight split. The spread is drawn per case, from 2^8 to 2^20 m
    /// and from 2^6 to 2^16 minutes, so time gaps range from far below the
    /// time cap to far above it.
    fn arb_block_case() -> impl Strategy<Value = BlockCase> {
        (
            (8u32..=20, 6u32..=16),
            vec(arb_raw_sample(), 24 * BLOCK + 1),
            arb_block_len(),
            vec(arb_raw_sample(), 1..=48),
            (1u32..=64, 1u32..=64),
            (1.0f64..5e6, 1.0f64..2e4, 0.0f64..=1.0, 0u8..2),
        )
            .prop_map(
                |((reach, span), short, len, outer, (na, nb), (cs, ct, w, weighting))| {
                    let short = short
                        .into_iter()
                        .take(len)
                        .map(|r| placed(r, reach, span))
                        .collect();
                    let short = Fingerprint::with_users((100..100 + nb).collect(), short)
                        .expect("non-empty");
                    let outer = outer.into_iter().map(|r| placed(r, reach, span)).collect();
                    let cfg = StretchConfig {
                        phi_max_space_m: cs,
                        phi_max_time_min: ct,
                        w_space: w,
                        w_time: 1.0 - w,
                        population_weighting: weighting == 1,
                    };
                    cfg.validate().expect("drawn configs are valid");
                    (short, outer, na, nb, cfg)
                },
            )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// For every outer sample, the block walk returns the plain lane
        /// loop's minimum over every candidate, bit for bit.
        #[test]
        fn block_walk_matches_the_plain_lane_loop(
            (short, outer, na, nb, cfg) in arb_block_case(),
        ) {
            let mut lanes = Lanes::default();
            lanes.fill(short.samples());
            prop_assert_eq!(lanes.blocks.is_empty(), short.len() < BLOCK_MIN_LEN);
            let (wa, wb) = if cfg.population_weighting {
                (f64::from(na), f64::from(nb))
            } else {
                (1.0, 1.0)
            };
            for s in &outer {
                let walked = lanes.min_stretch(s, wa, wb, &cfg);
                let plain = fold_lanes(&lanes.lanes, &Lane::of(s), wa, wb, &cfg, f64::INFINITY);
                prop_assert_eq!(walked.to_bits(), plain.to_bits(), "outer sample {:?}", s);
            }
        }

        /// A block's floor never exceeds the computed effort from any outer
        /// sample to any member of the block, and each block's running
        /// `t_end` covers every lane up to its end.
        #[test]
        fn block_floor_never_exceeds_a_member_effort(
            (short, outer, na, nb, cfg) in arb_block_case(),
        ) {
            let mut lanes = Lanes::default();
            lanes.fill(short.samples());
            for (b, block) in lanes.blocks.iter().enumerate() {
                let members = &short.samples()[b * BLOCK..b * BLOCK + block.hull.len];
                let end = short.samples()[..b * BLOCK + block.hull.len]
                    .iter()
                    .map(|q| q.t_end() as i64)
                    .max();
                prop_assert_eq!(Some(block.t_end_max), end);
                for s in &outer {
                    let floor = sample_hull_floor(&Lane::of(s), &block.hull, &cfg);
                    for q in members {
                        let d = sample_stretch(s, f64::from(na), q, f64::from(nb), &cfg);
                        prop_assert!(floor <= d, "block {b} floor {floor} exceeds {d}");
                    }
                }
            }
        }
    }

    #[test]
    fn decomposed_total_matches_plain() {
        let a = Fingerprint::from_points(0, &[(0, 0, 5), (3_000, 200, 300), (0, 0, 900)]).unwrap();
        let b = Fingerprint::from_points(1, &[(100, 0, 20), (2_500, 0, 310)]).unwrap();
        let (total, parts) = fingerprint_stretch_decomposed(&a, &b, &cfg());
        assert_eq!(parts.len(), 3);
        let recomputed: f64 = parts.iter().map(|(s, t)| s + t).sum::<f64>() / 3.0;
        assert!((total - recomputed).abs() < 1e-12);
        let plain = fingerprint_stretch(&a, &b, &cfg());
        assert!((total - plain).abs() < 1e-12);
    }
}
