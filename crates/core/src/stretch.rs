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
//! against all of them in one branch-free loop. Only when the shorter
//! fingerprint has at least 128 samples do the kernels switch to a walk
//! that prunes candidates with a temporal-gap lower bound. Both paths are
//! checked bit for bit against the naive scan by property tests.

use std::cell::RefCell;
use std::ops::ControlFlow;

use crate::config::StretchConfig;
use crate::model::{Fingerprint, Sample};

/// Read-only, random-access sequence of samples — the storage abstraction
/// the Eq. (10) kernels are generic over, so one set of arithmetic (and
/// therefore bit-identical results) serves both `Vec<Sample>`-backed
/// fingerprints and the columnar pages of
/// [`SampleStore`](crate::compact::SampleStore).
pub trait SampleSeq: Copy {
    /// Number of samples in the sequence.
    fn len(self) -> usize;
    /// The `i`-th sample, assembled by value (columnar backends decode it
    /// from their column arrays, slice backends copy it out — both are
    /// exact integer moves, so downstream arithmetic is identical).
    fn get(self, i: usize) -> Sample;
    /// True when the sequence holds no samples (never, for fingerprints).
    fn is_empty(self) -> bool {
        self.len() == 0
    }
}

impl SampleSeq for &[Sample] {
    #[inline]
    fn len(self) -> usize {
        <[Sample]>::len(self)
    }

    #[inline]
    fn get(self, i: usize) -> Sample {
        self[i]
    }
}

/// One side of a generic Eq. (10) evaluation: a sample sequence plus the
/// multiplicity that weights it (Eqs. 4 and 7).
#[derive(Debug, Clone, Copy)]
pub struct StretchOperand<S: SampleSeq> {
    /// The samples.
    pub samples: S,
    /// Subscribers behind the sequence (`n_a` in the paper's weighting).
    pub multiplicity: usize,
}

impl<'a> StretchOperand<&'a [Sample]> {
    /// The operand view of a fingerprint.
    #[inline]
    pub fn of(fp: &'a Fingerprint) -> Self {
        Self {
            samples: fp.samples(),
            multiplicity: fp.multiplicity(),
        }
    }
}

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

/// Convenience wrapper for unweighted (single-subscriber) samples.
#[inline]
pub fn sample_stretch_unweighted(a: &Sample, b: &Sample, cfg: &StretchConfig) -> f64 {
    sample_stretch(a, 1.0, b, 1.0, cfg)
}

/// Separation between two time windows in minutes (0 when they overlap).
///
/// This is a lower bound on the raw temporal stretch of Eqs. (7)–(9): to
/// merge two samples, at least the gap between their windows must be covered
/// on both sides, and the weighted sum of per-side stretches is minimized at
/// exactly `gap` (weights sum to 1).
#[inline]
pub fn time_gap_min(a: &Sample, b: &Sample) -> f64 {
    interval_gap(
        i64::from(a.t),
        a.t_end() as i64,
        i64::from(b.t),
        b.t_end() as i64,
    ) as f64
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
    fingerprint_stretch_seq(StretchOperand::of(a), StretchOperand::of(b), cfg)
}

/// Storage-generic form of [`fingerprint_stretch`]: the same Eq. (10)
/// arithmetic over any [`SampleSeq`] backing, so columnar-store slices and
/// `Vec<Sample>` fingerprints produce bit-identical efforts.
pub fn fingerprint_stretch_seq<A: SampleSeq, B: SampleSeq>(
    a: StretchOperand<A>,
    b: StretchOperand<B>,
    cfg: &StretchConfig,
) -> f64 {
    match a.samples.len().cmp(&b.samples.len()) {
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

/// From this many samples in the shorter fingerprint on, each outer sample
/// is matched by the temporal-gap walk of [`min_stretch_to`], which visits
/// only the candidates whose windows could still beat the best match found.
/// Shorter operands — every metro and daily-window fingerprint — go through
/// the lane loop ([`Lanes::min_stretch`]), which visits every candidate but
/// pays nothing per candidate beyond the Eq. (1) arithmetic. On 5,000-user
/// metro fingerprints (~42 samples) a threshold of 0 made
/// [`fingerprint_stretch`] about 3.5x slower than the lane loop (2-vCPU
/// Intel Xeon host, 5,000 pairs, fastest of 15 runs).
const PRUNE_MIN_SHORT_LEN: usize = 128;

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
}

/// The shorter operand of one Eq. (10) evaluation, decoded once into
/// integer lanes, so the inner loop streams dense `i64` records instead of
/// decoding every candidate from its page once per outer sample.
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
struct Lanes(Vec<Lane>);

impl Lanes {
    /// Decodes `samples` into the lanes, replacing what they held.
    fn fill<S: SampleSeq>(&mut self, samples: S) {
        self.0.clear();
        self.0
            .extend((0..samples.len()).map(|j| Lane::of(&samples.get(j))));
    }

    /// The minimum sample stretch effort from `s` to any candidate in the
    /// lanes, bit-identical to folding [`sample_stretch`] over them.
    ///
    /// `na` and `nb` are the multiplicities of `s`'s and the candidates'
    /// fingerprints, already replaced by 1 when population weighting is
    /// off. The covering box of `s` and `q` spans
    /// `u = (max(x_end) − min(x)) + (max(y_end) − min(y))`, so the growth
    /// `l_ab + r_ab` of Eqs. (5)–(6) is `u − (dx_s + dy_s)` and `l_ba + r_ba`
    /// is `u − (dx_q + dy_q)`; time works the same way. These are the exact
    /// integer sums [`raw_spatial_stretch_m`] and [`raw_temporal_stretch_min`]
    /// form, and the `f64` operations after them are theirs, in their
    /// order. No value is NaN (the caps are positive and the multiplicities
    /// at least 1), so the branch-free selects equal `f64::min` and the
    /// minimum does not depend on the visiting order.
    #[inline]
    fn min_stretch(&self, s: &Sample, na: f64, nb: f64, cfg: &StretchConfig) -> f64 {
        let s = Lane::of(s);
        let n = na + nb;
        let mut best = f64::INFINITY;
        for q in &self.0 {
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
fn fold_minima<L: SampleSeq, S: SampleSeq, B>(
    long: StretchOperand<L>,
    short: StretchOperand<S>,
    first: usize,
    mut total: f64,
    lanes: &mut Lanes,
    cfg: &StretchConfig,
    mut check: impl FnMut(usize, f64) -> ControlFlow<B>,
) -> ControlFlow<B, f64> {
    let n_long = long.multiplicity as f64;
    let n_short = short.multiplicity as f64;
    if short.samples.len() < PRUNE_MIN_SHORT_LEN {
        let (na, nb) = if cfg.population_weighting {
            (n_long, n_short)
        } else {
            (1.0, 1.0)
        };
        lanes.fill(short.samples);
        for i in first..long.samples.len() {
            total += lanes.min_stretch(&long.samples.get(i), na, nb, cfg);
            check(i, total)?;
        }
    } else {
        // Largest window length in the shorter fingerprint, needed to make
        // the temporal pruning bound valid on samples sorted by start time.
        let short_max_dt = seq_max_dt(short.samples);
        for i in first..long.samples.len() {
            let s = long.samples.get(i);
            total += min_stretch_to(&s, n_long, short.samples, n_short, short_max_dt, cfg);
            check(i, total)?;
        }
    }
    ControlFlow::Continue(total)
}

/// One direction of Eq. (10): match every sample of `long` into `short`.
/// The public [`fingerprint_stretch`], the exact seeds of `Pruning::Off`
/// and the residual merge run here; it is [`fold_minima`] with no stopping
/// test, so it returns the bits [`directed_resume`] returns with an
/// infinite cutoff.
fn directed_stretch<L: SampleSeq, S: SampleSeq>(
    long: StretchOperand<L>,
    short: StretchOperand<S>,
    cfg: &StretchConfig,
) -> f64 {
    let never = |_, _| ControlFlow::<std::convert::Infallible>::Continue(());
    let ControlFlow::Continue(total) = SCRATCH.with_borrow_mut(|scratch| {
        fold_minima(long, short, 0, 0.0, &mut scratch.lanes, cfg, never)
    });
    total / long.samples.len() as f64
}

/// Largest window length in a sample sequence.
#[inline]
fn seq_max_dt<S: SampleSeq>(samples: S) -> u32 {
    (0..samples.len())
        .map(|j| samples.get(j).dt)
        .max()
        .expect("fingerprints are never empty")
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
    fingerprint_stretch_cutoff_resume_seq(
        StretchOperand::of(a),
        StretchOperand::of(b),
        cfg,
        cutoff,
        progress,
    )
}

/// Storage-generic form of [`fingerprint_stretch_cutoff_resume`]: the tier-2
/// cascade evaluation over any [`SampleSeq`] backing. Bit-identical to the
/// fingerprint entry point for the same samples, cutoff and progress.
pub fn fingerprint_stretch_cutoff_resume_seq<A: SampleSeq, B: SampleSeq>(
    a: StretchOperand<A>,
    b: StretchOperand<B>,
    cfg: &StretchConfig,
    cutoff: f64,
    progress: &mut StretchProgress,
) -> StretchEval {
    // Only a finite cutoff arms the suffix floors that read the hulls.
    let hulls = cutoff.is_finite().then(|| {
        (
            StretchHull::of_seq(a.samples),
            StretchHull::of_seq(b.samples),
        )
    });
    let hulls = hulls.as_ref().map(|(ha, hb)| (ha, hb));
    fingerprint_stretch_cutoff_resume_hulled(a, b, hulls, cfg, cutoff, progress)
}

/// [`fingerprint_stretch_cutoff_resume_seq`] for a caller that already
/// holds the operands' hulls, `(hull of a, hull of b)`: the arena passes
/// the ones it maintains instead of rebuilding the shorter operand's hull
/// on every evaluation.
///
/// The hulls only feed the suffix floors, which are armed when `hulls` is
/// given and `cutoff` is finite. Given [`StretchHull::of_seq`] of each
/// operand, every result and saved `progress` equals the public entry
/// point's. A larger hull would only lower the floors, which stay
/// admissible, so abandonment would stay sound but come later.
pub(crate) fn fingerprint_stretch_cutoff_resume_hulled<A: SampleSeq, B: SampleSeq>(
    a: StretchOperand<A>,
    b: StretchOperand<B>,
    hulls: Option<(&StretchHull, &StretchHull)>,
    cfg: &StretchConfig,
    cutoff: f64,
    progress: &mut StretchProgress,
) -> StretchEval {
    // Suffix floors are pure overhead when the caller never abandons
    // (`cutoff = ∞`), so only arm them for a finite cutoff.
    let hulls = hulls.filter(|_| cutoff.is_finite());
    let (hull_a, hull_b) = (hulls.map(|h| h.0), hulls.map(|h| h.1));
    match a.samples.len().cmp(&b.samples.len()) {
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

/// Admissible floor on the matching effort of one outer sample: the
/// per-sample analog of [`stretch_lower_bound`], against the hull of the
/// shorter fingerprint.
///
/// Every candidate match lies inside `hull`, per-axis interval gaps only
/// shrink as intervals grow, the raw stretches of Eqs. (4)–(9) dominate the
/// gaps (the direction weights sum to 1), and the saturation caps are
/// monotone — so no sample of the hulled fingerprint can be matched from
/// `s` below this value.
#[inline]
fn sample_hull_floor(s: &Sample, hull: &StretchHull, cfg: &StretchConfig) -> f64 {
    let gx = interval_gap(s.x, s.x_end(), hull.x_min, hull.x_end);
    let gy = interval_gap(s.y, s.y_end(), hull.y_min, hull.y_end);
    let gt = interval_gap(i64::from(s.t), s.t_end() as i64, hull.t_min, hull.t_end);
    if gx == 0 && gy == 0 && gt == 0 {
        return 0.0;
    }
    let phi_s = ((gx + gy) as f64 / cfg.phi_max_space_m).min(1.0);
    let phi_t = (gt as f64 / cfg.phi_max_time_min).min(1.0);
    cfg.w_space * phi_s + cfg.w_time * phi_t
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
fn directed_resume<L: SampleSeq, S: SampleSeq>(
    long: StretchOperand<L>,
    short: StretchOperand<S>,
    short_hull: Option<&StretchHull>,
    cfg: &StretchConfig,
    cutoff: f64,
    bound_of: impl Fn(f64) -> f64,
    progress: &mut StretchProgress,
) -> StretchEval {
    let len = long.samples.len() as f64;
    let first = progress.next as usize;
    if first >= long.samples.len() {
        // The whole direction is already folded (the previous call abandoned
        // on the final bound check); its mean is now exact.
        return StretchEval::Exact(progress.total / len);
    }
    SCRATCH.with_borrow_mut(|Scratch { lanes, floors }| {
        floors.clear();
        let mut owed = 0.0;
        if let Some(hull) = short_hull {
            for i in first..long.samples.len() {
                let floor = sample_hull_floor(&long.samples.get(i), hull, cfg);
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

/// Minimum sample stretch effort from `s` (of a fingerprint with
/// multiplicity `ns`) to any sample of `short` (multiplicity `n_short`),
/// pruned by a temporal-gap lower bound.
///
/// `short`'s samples are sorted by start time (a `Fingerprint` invariant),
/// but their window lengths `dt` vary, so `t_end` is not monotone in the
/// sort order. The bounds therefore use `short_max_dt`:
///
/// * walking left from the pivot, every remaining candidate `q` has
///   `q.t ≤ samples[lo-1].t`, hence `q.t_end ≤ samples[lo-1].t + max_dt` and
///   `gap ≥ s.t − samples[lo-1].t − max_dt`;
/// * walking right, `q.t ≥ samples[hi].t`, hence `gap ≥ samples[hi].t −
///   s.t_end`.
///
/// Since the raw temporal stretch is at least the gap and `δ ≥ w_τ·φ_τ`,
/// once both bounds exceed the best effort found no better match can exist.
fn min_stretch_to<S: SampleSeq>(
    s: &Sample,
    ns: f64,
    samples: S,
    n_short: f64,
    short_max_dt: u32,
    cfg: &StretchConfig,
) -> f64 {
    let m = samples.len();
    let max_dt = i64::from(short_max_dt);
    let s_t = i64::from(s.t);
    let s_end = s.t_end() as i64;
    // Start position: first sample with start time >= s.t (a manual
    // partition_point — the generic sequence has no slice methods).
    let pivot = {
        let (mut lo, mut hi) = (0usize, m);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if samples.get(mid).t < s.t {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    };
    let mut best = f64::INFINITY;
    // A candidate with window gap >= gap_cutoff cannot beat `best`:
    // δ >= w_τ·min(gap/φmax_τ, 1). Expressed as a gap so the per-candidate
    // check is a subtraction and comparison, not a division.
    let mut gap_cutoff = i64::MAX;
    let cutoff_of = |best: f64| -> i64 {
        if best >= cfg.w_time {
            // Even a saturated temporal stretch cannot prune.
            i64::MAX
        } else {
            (best / cfg.w_time * cfg.phi_max_time_min).ceil() as i64
        }
    };

    let mut lo = pivot; // next candidate to the left is lo - 1
    let mut hi = pivot; // next candidate to the right is hi
    loop {
        // Minimum possible gap of the next candidate on each side (and, by
        // sort order + max_dt, of everything beyond it).
        let left_gap = if lo > 0 {
            s_t - i64::from(samples.get(lo - 1).t) - max_dt
        } else {
            i64::MAX
        };
        let right_gap = if hi < m {
            i64::from(samples.get(hi).t) - s_end
        } else {
            i64::MAX
        };
        if left_gap >= gap_cutoff && right_gap >= gap_cutoff {
            break;
        }
        // Visit the side with the smaller gap bound first.
        if left_gap <= right_gap {
            let q = samples.get(lo - 1);
            let d = sample_stretch(s, ns, &q, n_short, cfg);
            if d < best {
                best = d;
                gap_cutoff = cutoff_of(best);
            }
            lo -= 1;
        } else {
            let q = samples.get(hi);
            let d = sample_stretch(s, ns, &q, n_short, cfg);
            if d < best {
                best = d;
                gap_cutoff = cutoff_of(best);
            }
            hi += 1;
        }
    }
    debug_assert!(best.is_finite(), "fingerprints are never empty");
    best
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
        Self::of_seq(fp.samples())
    }

    /// Computes the hull of any non-empty sample sequence.
    pub fn of_seq<S: SampleSeq>(samples: S) -> Self {
        let first = samples.get(0);
        let mut hull = Self {
            x_min: first.x,
            x_end: first.x_end(),
            y_min: first.y,
            y_end: first.y_end(),
            t_min: i64::from(first.t),
            t_end: first.t_end() as i64,
            len: samples.len(),
        };
        for i in 1..samples.len() {
            let s = samples.get(i);
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
    if gx == 0 && gy == 0 && gt == 0 {
        return 0.0;
    }
    let phi_s = ((gx + gy) as f64 / cfg.phi_max_space_m).min(1.0);
    let phi_t = (gt as f64 / cfg.phi_max_time_min).min(1.0);
    cfg.w_space * phi_s + cfg.w_time * phi_t
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
        assert_eq!(sample_stretch_unweighted(&s, &s, &cfg()), 0.0);
    }

    #[test]
    fn stretch_is_symmetric_for_equal_weights() {
        let a = Sample::point(0, 0, 10);
        let b = Sample::new(5_000, -2_000, 300, 700, 100, 45).unwrap();
        let d_ab = sample_stretch_unweighted(&a, &b, &cfg());
        let d_ba = sample_stretch_unweighted(&b, &a, &cfg());
        assert!((d_ab - d_ba).abs() < 1e-12);
    }

    #[test]
    fn stretch_is_in_unit_interval_and_saturates() {
        let a = Sample::point(0, 0, 0);
        // Farther than both caps: delta saturates at exactly 1.
        let b = Sample::point(1_000_000, 1_000_000, 10_000);
        let d = sample_stretch_unweighted(&a, &b, &cfg());
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
        let d_overlap = sample_stretch_unweighted(&a, &overlapping, &cfg());
        let d_disjoint = sample_stretch_unweighted(&a, &disjoint, &cfg());
        assert!(d_overlap < d_disjoint);
    }

    #[test]
    fn containment_still_costs_the_container_side() {
        // b inside a: a needs no growth, but b must grow to cover a, so the
        // weighted effort is positive (Eq. 4 sums both directions).
        let a = Sample::new(0, 0, 1_000, 1_000, 0, 60).unwrap();
        let b = Sample::new(400, 400, 100, 100, 20, 1).unwrap();
        let d = sample_stretch_unweighted(&a, &b, &cfg());
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
        let d3 = sample_stretch_unweighted(&a, &b, &unweighted_cfg);
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
        let d = sample_stretch_unweighted(&a, &b, &cfg());
        assert!((d - 0.0625).abs() < 1e-12);
    }

    #[test]
    fn time_gap_is_zero_for_overlap() {
        let a = Sample::new(0, 0, 100, 100, 10, 20).unwrap();
        let b = Sample::new(0, 0, 100, 100, 25, 20).unwrap();
        assert_eq!(time_gap_min(&a, &b), 0.0);
        let c = Sample::new(0, 0, 100, 100, 100, 5).unwrap();
        assert_eq!(time_gap_min(&a, &c), 70.0);
        assert_eq!(time_gap_min(&c, &a), 70.0);
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
    /// temporal walk) shared by 1–8 subscribers numbered from `user`. Its
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
                    StretchOperand::of(&a),
                    StretchOperand::of(&b),
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
