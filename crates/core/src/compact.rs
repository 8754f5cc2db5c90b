//! Bit-packed per-fingerprint occupancy signatures — tier 0 of the
//! distance cascade (see DESIGN.md "Distance cascade").
//!
//! The paper's hot loop evaluates Eq. (10) over `O(|M|²)` fingerprint
//! pairs; PR 2 put an O(1) hull bound in front of every evaluation. This
//! module adds an even earlier filter in the spirit of HDR-style popcount
//! fingerprint cascades: each fingerprint is summarized, per axis (x, y,
//! t), as a 256-bit *occupancy bitmap* over coarse buckets, plus a small
//! pyramid of *dilated* bitmaps (the occupancy grown by 1, 2, 4 and 8
//! buckets on each side). Two signatures compare with XOR + popcount only
//! — word-parallel, branch-light, SIMD-friendly — and yield an admissible
//! lower bound on the Eq. (10) stretch effort:
//!
//! * **Disjointness via the Hamming identity.** For bitmaps `A`, `B`:
//!   `popcount(A ⊕ B) = popcount(A) + popcount(B)` iff `A ∧ B = 0`. The
//!   per-level popcounts are precomputed at build time, so one disjointness
//!   test is `SIG_WORDS` XOR/popcount pairs and one comparison.
//! * **Gap floor from dilation.** If a fingerprint's raw occupancy is
//!   disjoint from the other's radius-`r` dilation, every pair of their
//!   samples is separated by at least `r` buckets' worth of distance on
//!   that axis (proof below). Testing the dilation levels in ascending
//!   radius order gives the largest provable per-axis gap.
//! * **Same bound shape as the hull.** The three per-axis gap floors feed
//!   the exact formula of [`crate::stretch::stretch_lower_bound`], so the
//!   admissibility argument carries over unchanged.
//!
//! ### Why bucket wrap-around is safe
//!
//! Bucket indices are reduced modulo [`SIG_BUCKETS`], so distant
//! coordinates can alias onto the same bit. Aliasing can only create
//! *spurious intersections*, never spurious disjointness: if the unwrapped
//! raw set of `a` intersects the unwrapped dilation of `b` at bucket `u`,
//! then `u mod 256` is set in both wrapped bitmaps, so the wrapped test
//! also reports an intersection. Contrapositively, wrapped disjointness
//! implies unwrapped disjointness — collisions weaken the bound toward 0
//! but can never inflate it. The bound stays one-sided (admissible) for
//! arbitrarily large datasets.
//!
//! ### The gap floor, precisely
//!
//! Let `w` be the bucket width on an axis. A sample interval `[lo, hi)`
//! marks the (inclusive) bucket range `⌊lo/w⌋ ..= ⌊hi/w⌋` — one bucket of
//! over-marking at the exclusive end, which is conservative. Suppose `a`'s
//! raw bitmap is disjoint from `b`'s radius-`r` dilation and take any
//! samples `s ∈ a`, `q ∈ b` with (wlog) `q` to the right of `s`. `s`'s
//! highest marked bucket `i₁` satisfies `s.hi < (i₁+1)·w`; `q`'s lowest
//! marked bucket `j₀` satisfies `q.lo ≥ j₀·w`; and disjointness from the
//! dilation forces `j₀ − i₁ ≥ r + 1`. Hence the axis gap
//! `q.lo − s.hi > (j₀ − i₁ − 1)·w ≥ r·w`. With
//! [`SignatureSpace::of`] choosing `w = ⌈φmax / 8⌉` and the largest
//! dilation radius 8, a fully separated axis proves a gap of `8·w ≥ φmax`
//! — exactly the saturation point of the capped stretch, so no resolution
//! is wasted.

use crate::config::StretchConfig;
use crate::model::Fingerprint;

/// 64-bit words per axis bitmap.
pub const SIG_WORDS: usize = 4;

/// Buckets (bits) per axis bitmap.
pub const SIG_BUCKETS: usize = SIG_WORDS * 64;

/// Dilation radii of the signature pyramid, in buckets, ascending. The
/// largest radius times the bucket width reaches the saturation cap of the
/// corresponding axis (see [`SignatureSpace::of`]).
pub const DILATION_RADII: [i64; 4] = [1, 2, 4, 8];

/// Bucket geometry shared by every signature of one run, derived from the
/// stretch configuration so that the coarsest provable gap saturates the
/// capped per-axis stretch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SignatureSpace {
    /// Spatial bucket width, meters (both x and y).
    pub bucket_space_m: i64,
    /// Temporal bucket width, minutes.
    pub bucket_time_min: i64,
}

impl SignatureSpace {
    /// Derives bucket widths from the stretch caps: `⌈φmax / r_max⌉` per
    /// axis (at least 1), where `r_max` is the largest dilation radius. A
    /// fully separated axis then proves a gap of `r_max · width ≥ φmax`,
    /// saturating that axis' capped stretch contribution.
    pub fn of(cfg: &StretchConfig) -> Self {
        let max_r = DILATION_RADII[DILATION_RADII.len() - 1] as f64;
        Self {
            bucket_space_m: ((cfg.phi_max_space_m / max_r).ceil() as i64).max(1),
            bucket_time_min: ((cfg.phi_max_time_min / max_r).ceil() as i64).max(1),
        }
    }
}

/// One axis of a signature: the raw occupancy bitmap, its dilation
/// pyramid, and their precomputed popcounts (so disjointness tests need no
/// second pass).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct AxisSig {
    raw: [u64; SIG_WORDS],
    raw_ones: u32,
    dilated: [[u64; SIG_WORDS]; DILATION_RADII.len()],
    dilated_ones: [u32; DILATION_RADII.len()],
}

impl AxisSig {
    /// Marks the buckets covering `[lo, hi]` (inclusive, conservative) in
    /// the raw bitmap and every dilation level.
    fn mark(&mut self, lo: i64, hi: i64, width: i64) {
        let b_lo = lo.div_euclid(width);
        let b_hi = hi.div_euclid(width);
        mark_range(&mut self.raw, b_lo, b_hi);
        for (level, &r) in DILATION_RADII.iter().enumerate() {
            mark_range(&mut self.dilated[level], b_lo - r, b_hi + r);
        }
    }

    /// Caches the popcount of every bitmap (called once after marking).
    fn seal(&mut self) {
        self.raw_ones = ones(&self.raw);
        for (level, words) in self.dilated.iter().enumerate() {
            self.dilated_ones[level] = ones(words);
        }
    }
}

/// Sets the wrapped bits of the inclusive bucket range `[lo, hi]`;
/// saturates to all-ones when the range covers the whole ring.
fn mark_range(words: &mut [u64; SIG_WORDS], lo: i64, hi: i64) {
    if hi - lo + 1 >= SIG_BUCKETS as i64 {
        *words = [u64::MAX; SIG_WORDS];
        return;
    }
    for b in lo..=hi {
        let bit = b.rem_euclid(SIG_BUCKETS as i64) as usize;
        words[bit / 64] |= 1u64 << (bit % 64);
    }
}

#[inline]
fn ones(words: &[u64; SIG_WORDS]) -> u32 {
    words.iter().map(|w| w.count_ones()).sum()
}

/// XOR/popcount Hamming distance between two axis bitmaps — the cascade's
/// tier-0 distance primitive. Word-parallel and branch-free; equals
/// `popcount(a) + popcount(b)` exactly when the bitmaps are disjoint.
#[inline]
pub fn hamming(a: &[u64; SIG_WORDS], b: &[u64; SIG_WORDS]) -> u32 {
    a.iter()
        .zip(b.iter())
        .map(|(x, y)| (x ^ y).count_ones())
        .sum()
}

/// Bit-packed cell-minute occupancy signature of one fingerprint: one
/// `AxisSig` per axis (x, y, t), built once in `O(n̄)` per fingerprint
/// and compared in `O(1)` per pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactSignature {
    x: AxisSig,
    y: AxisSig,
    t: AxisSig,
}

impl CompactSignature {
    /// Builds the signature of a fingerprint on the given bucket geometry.
    pub fn of(fp: &Fingerprint, space: &SignatureSpace) -> Self {
        let mut x = AxisSig::default();
        let mut y = AxisSig::default();
        let mut t = AxisSig::default();
        for s in fp.samples() {
            x.mark(s.x, s.x_end(), space.bucket_space_m);
            y.mark(s.y, s.y_end(), space.bucket_space_m);
            t.mark(i64::from(s.t), s.t_end() as i64, space.bucket_time_min);
        }
        x.seal();
        y.seal();
        t.seal();
        Self { x, y, t }
    }
}

/// Largest dilation radius `r` (in buckets) such that `a`'s raw occupancy
/// is disjoint from `b`'s radius-`r` dilation, i.e. a proven per-axis gap
/// floor of `r` buckets. Disjointness is anti-monotone in the radius
/// (larger dilations are supersets), so the ascending scan stops at the
/// first intersection — the common all-overlapping case costs exactly one
/// Hamming test.
#[inline]
fn axis_gap_buckets(a: &AxisSig, b: &AxisSig) -> i64 {
    let mut gap = 0;
    for (level, &r) in DILATION_RADII.iter().enumerate() {
        if hamming(&a.raw, &b.dilated[level]) == a.raw_ones + b.dilated_ones[level] {
            gap = r;
        } else {
            break;
        }
    }
    gap
}

/// An admissible lower bound on the fingerprint stretch effort `Δ_ab` of
/// Eq. (10), computed from the two bit-packed signatures alone — tier 0 of
/// the distance cascade.
///
/// Each axis contributes a proven gap floor (see the module docs for the
/// derivation); the floors feed the same capped-and-weighted formula as
/// [`crate::stretch::stretch_lower_bound`], whose admissibility proof
/// ("every per-sample gap is at least the proven gap; capping is monotone;
/// direction weights sum to 1") applies verbatim with the hull gaps
/// replaced by the signature gap floors. The bound is 0 whenever the
/// occupancies interleave, so it only prunes genuinely separated pairs and
/// never misranks one.
///
/// The value depends only on the unordered pair up to the choice of which
/// signature's raw bitmap meets which dilation; callers must keep the
/// argument orientation deterministic (the arena always passes the larger
/// slot id first), which keeps runs byte-identical.
#[inline]
pub fn signature_lower_bound(
    a: &CompactSignature,
    b: &CompactSignature,
    cfg: &StretchConfig,
    space: &SignatureSpace,
) -> f64 {
    let gx = axis_gap_buckets(&a.x, &b.x) * space.bucket_space_m;
    let gy = axis_gap_buckets(&a.y, &b.y) * space.bucket_space_m;
    let gt = axis_gap_buckets(&a.t, &b.t) * space.bucket_time_min;
    if gx == 0 && gy == 0 && gt == 0 {
        return 0.0;
    }
    let phi_s = ((gx + gy) as f64 / cfg.phi_max_space_m).min(1.0);
    let phi_t = (gt as f64 / cfg.phi_max_time_min).min(1.0);
    cfg.w_space * phi_s + cfg.w_time * phi_t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stretch::{fingerprint_stretch, stretch_lower_bound, StretchHull};

    fn cfg() -> StretchConfig {
        StretchConfig::default()
    }

    fn sig(fp: &Fingerprint) -> CompactSignature {
        CompactSignature::of(fp, &SignatureSpace::of(&cfg()))
    }

    #[test]
    fn default_space_saturates_the_caps() {
        let space = SignatureSpace::of(&cfg());
        assert_eq!(space.bucket_space_m, 2_500);
        assert_eq!(space.bucket_time_min, 60);
        let max_r = DILATION_RADII[DILATION_RADII.len() - 1];
        assert!(max_r * space.bucket_space_m >= 20_000);
        assert!(max_r * space.bucket_time_min >= 480);
    }

    #[test]
    fn hamming_identity_detects_disjointness() {
        let a = [0b1010u64, 0, 0, 0];
        let b = [0b0101u64, 0, 0, 0];
        let c = [0b0010u64, 0, 0, 0];
        assert_eq!(hamming(&a, &b), ones(&a) + ones(&b), "disjoint");
        assert_ne!(hamming(&a, &c), ones(&a) + ones(&c), "overlapping");
    }

    #[test]
    fn overlapping_fingerprints_bound_to_zero() {
        let a = Fingerprint::from_points(0, &[(0, 0, 10), (5_000, 5_000, 90)]).unwrap();
        let b = Fingerprint::from_points(1, &[(2_500, 2_500, 50)]).unwrap();
        assert_eq!(
            signature_lower_bound(&sig(&a), &sig(&b), &cfg(), &SignatureSpace::of(&cfg())),
            0.0
        );
    }

    #[test]
    fn separated_fingerprints_get_a_positive_admissible_bound() {
        let space = SignatureSpace::of(&cfg());
        let a = Fingerprint::from_points(0, &[(0, 0, 10), (2_000, 500, 200)]).unwrap();
        let b = Fingerprint::from_points(1, &[(60_000, 0, 5_000), (64_000, 900, 5_400)]).unwrap();
        let lb = signature_lower_bound(&sig(&a), &sig(&b), &cfg(), &space);
        let exact = fingerprint_stretch(&a, &b, &cfg());
        assert!(lb > 0.0);
        assert!(lb <= exact + 1e-12, "bound {lb} must not exceed {exact}");
    }

    #[test]
    fn bound_is_admissible_on_a_structured_sweep() {
        // A deterministic sweep over spatial/temporal offsets, including
        // offsets past the caps and offsets that wrap the 256-bucket ring.
        let space = SignatureSpace::of(&cfg());
        for dx in [0i64, 1_000, 2_600, 10_000, 25_000, 640_000, 645_000] {
            for dt in [0u32, 30, 70, 500, 15_360, 15_400] {
                let a = Fingerprint::from_points(0, &[(0, 0, 100), (3_000, 1_000, 400)]).unwrap();
                let b =
                    Fingerprint::from_points(1, &[(dx, 500, 100 + dt), (dx + 2_000, 0, 350 + dt)])
                        .unwrap();
                let lb = signature_lower_bound(&sig(&a), &sig(&b), &cfg(), &space);
                let exact = fingerprint_stretch(&a, &b, &cfg());
                assert!(
                    lb <= exact + 1e-12,
                    "dx={dx} dt={dt}: signature bound {lb} exceeds exact {exact}"
                );
            }
        }
    }

    #[test]
    fn wrapped_aliases_only_weaken_the_bound() {
        // 640 km = exactly 256 spatial buckets: the two x-occupancies alias
        // onto the same bits, so the spatial gap floor collapses to 0 —
        // which is admissible (the bound may only under-estimate).
        let space = SignatureSpace::of(&cfg());
        let a = Fingerprint::from_points(0, &[(0, 0, 100)]).unwrap();
        let b = Fingerprint::from_points(1, &[(space.bucket_space_m * SIG_BUCKETS as i64, 0, 100)])
            .unwrap();
        let lb = signature_lower_bound(&sig(&a), &sig(&b), &cfg(), &space);
        assert_eq!(lb, 0.0, "aliased occupancies must not claim a gap");
        // The hull bound still sees the separation: the tiers complement
        // each other rather than subsume one another.
        let hull = stretch_lower_bound(&StretchHull::of(&a), &StretchHull::of(&b), &cfg());
        assert!(hull > 0.0);
    }

    #[test]
    fn fully_separated_axis_saturates_like_the_hull_bound() {
        // Far beyond both caps on every axis: the signature proves the
        // saturated bound w_σ + w_τ = 1 exactly, matching the hull bound.
        let a = Fingerprint::from_points(0, &[(0, 0, 100)]).unwrap();
        let b = Fingerprint::from_points(1, &[(100_000, 0, 20_000)]).unwrap();
        let space = SignatureSpace::of(&cfg());
        let lb = signature_lower_bound(&sig(&a), &sig(&b), &cfg(), &space);
        assert_eq!(lb, 1.0);
        let exact = fingerprint_stretch(&a, &b, &cfg());
        assert!(lb <= exact + 1e-12);
    }

    #[test]
    fn wide_samples_saturate_the_ring() {
        // A sample spanning more than the whole ring occupies every bucket;
        // every pair then overlaps and the bound is 0.
        let space = SignatureSpace::of(&cfg());
        let wide = Fingerprint::with_users(
            vec![0],
            vec![crate::model::Sample::new(0, 0, 2_000_000, 100, 0, 1).unwrap()],
        )
        .unwrap();
        let far = Fingerprint::from_points(1, &[(5_000_000, 0, 0)]).unwrap();
        let lb = signature_lower_bound(&sig(&wide), &sig(&far), &cfg(), &space);
        assert_eq!(lb, 0.0);
    }
}
