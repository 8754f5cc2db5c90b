//! Bitwise identity of every Eq. (10) kernel with the naive reference.
//!
//! The kernels decode the shorter operand into integer lanes and match
//! against it with branch-free selects; from 24 samples in the shorter
//! operand they cut the lanes into blocks of 8 and fold only the blocks
//! that could still hold each outer sample's minimum. Both paths must
//! return the exact bits of [`fingerprint_stretch_naive`], which folds
//! [`sample_stretch`](glove_core::stretch::sample_stretch) in the textbook
//! order — a last-bit drift would reorder tied pairs and move published
//! bytes. The fingerprints here cover lengths on both sides of the switch
//! to blocks and of block boundaries, equal-length pairs (whose Δ averages
//! two directions), windows up to 2^20 minutes, multiplicities up to 64,
//! weighting on and off, non-default caps and weights (so saturated and
//! unsaturated terms both occur) and coordinates up to ±2^40 m.
//!
//! CI also runs this file in a release build, where LLVM vectorizes what a
//! debug build leaves scalar:
//! `cargo test -q --release -p glove-core --test kernel_identity`.

use glove_core::config::StretchConfig;
use glove_core::model::{Fingerprint, Sample};
use glove_core::stretch::{
    fingerprint_stretch, fingerprint_stretch_cutoff_resume, fingerprint_stretch_naive, StretchEval,
    StretchProgress,
};
use proptest::collection::vec;
use proptest::prelude::*;

/// Largest fingerprint drawn: twenty blocks of 8.
const MAX_LEN: usize = 160;

/// `f · 2^e`, truncated.
fn scaled(e: u32, f: f64) -> i64 {
    (f * (1i64 << e) as f64) as i64
}

/// Strategy: a sample placed relative to its pair's origin. One sample in
/// eight is placed at any scale up to 2^40 m and 2^30 minutes, so its terms
/// saturate; the rest lie within 2^14 m and 2^12 minutes, where most terms
/// stay below their caps. Extents reach 2^16 m; one window in 16 reaches
/// 2^20 minutes, so an early sample can cover later ones, and the rest
/// reach 2^10 minutes.
fn arb_sample() -> impl Strategy<Value = Sample> {
    (
        (0u8..8, 0u32..=40, -1.0f64..1.0, 0u32..=40, -1.0f64..1.0),
        (0u32..=16, 0.0f64..1.0, 0u32..=16, 0.0f64..1.0),
        (0u32..=30, 0.0f64..1.0, 0u32..=20, 0.0f64..1.0, 0u8..16),
    )
        .prop_map(
            |((pick, ex, fx, ey, fy), (edx, fdx, edy, fdy), (et, ft, edt, fdt, long))| {
                let far = |e: u32, near: u32| if pick == 0 { e } else { e % (near + 1) };
                let extent = |e, f| 1 + scaled(e, f) as u32;
                let edt = if long == 0 { edt } else { edt % 11 };
                Sample::new(
                    scaled(far(ex, 14), fx),
                    scaled(far(ey, 14), fy),
                    extent(edx, fdx),
                    extent(edy, fdy),
                    scaled(far(et, 12), ft) as u32,
                    extent(edt, fdt),
                )
                .expect("extents are at least 1")
            },
        )
}

/// Strategy: a stretch configuration with caps from a metre to a continent
/// and from a minute to two weeks, either weighting, and any weight split.
fn arb_config() -> impl Strategy<Value = StretchConfig> {
    (1.0f64..5e6, 1.0f64..2e4, 0.0f64..=1.0, 0u8..2).prop_map(|(space, time, w, weighting)| {
        let cfg = StretchConfig {
            phi_max_space_m: space,
            phi_max_time_min: time,
            w_space: w,
            w_time: 1.0 - w,
            population_weighting: weighting == 1,
        };
        cfg.validate().expect("drawn configs are valid");
        cfg
    })
}

/// Strategy: a pair of fingerprints with 1–160 samples each and
/// multiplicities 1–64, around one origin anywhere within ±2^40 m and 2^30
/// minutes. One pair in four has equal lengths. In half the pairs neither
/// side has more than 8 samples: a last-bit drift in one sample's effort
/// survives into `Δ` mostly when few efforts are summed. In a quarter,
/// each length lies within one of 24 (where the blocks start) or of a
/// multiple of 8 (where a block ends); the rest draw any length.
fn arb_pair() -> impl Strategy<Value = (Fingerprint, Fingerprint)> {
    let span = 1i64 << 40;
    (
        (-span..span, -span..span, 0u32..1 << 30),
        vec(arb_sample(), MAX_LEN),
        vec(arb_sample(), MAX_LEN),
        (1usize..=MAX_LEN, 1usize..=MAX_LEN),
        (0u8..4, 0u8..4),
        (1u32..=64, 1u32..=64),
    )
        .prop_map(
            |((x0, y0, t0), mut a, mut b, (a_len, b_len), (shape, equal), (na, nb))| {
                let len = |n: usize| match shape {
                    0 | 1 => 1 + n % 8,
                    // 23..=25, or 8·m − 1 ..= 8·m + 1 for m in 2..=19.
                    2 if n % 2 == 0 => 23 + n % 3,
                    2 => 8 * (2 + n / 6 % 18) + n / 2 % 3 - 1,
                    _ => n,
                };
                a.truncate(len(a_len));
                b.truncate(if equal == 0 { a.len() } else { len(b_len) });
                let fp = |first: u32, n: u32, samples: Vec<Sample>| {
                    let placed = samples
                        .into_iter()
                        .map(|s| Sample::new(s.x + x0, s.y + y0, s.dx, s.dy, s.t + t0, s.dt))
                        .collect::<Result<_, _>>()
                        .expect("extents are at least 1");
                    Fingerprint::with_users((first..first + n).collect(), placed)
                        .expect("non-empty fingerprint")
                };
                (fp(0, na, a), fp(1_000, nb, b))
            },
        )
}

/// The value and variant of an evaluation, with the value as raw bits.
fn bits(eval: StretchEval) -> (bool, u64) {
    match eval {
        StretchEval::Exact(d) => (true, d.to_bits()),
        StretchEval::AtLeast(lb) => (false, lb.to_bits()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// The plain kernel and the cutoff-aware one at an infinite cutoff
    /// return the naive value bit for bit, in both argument orders.
    #[test]
    fn every_kernel_returns_the_naive_bits((a, b) in arb_pair(), cfg in arb_config()) {
        let naive = fingerprint_stretch_naive(&a, &b, &cfg);
        prop_assert_eq!(fingerprint_stretch(&a, &b, &cfg).to_bits(), naive.to_bits());
        prop_assert_eq!(fingerprint_stretch(&b, &a, &cfg).to_bits(), naive.to_bits());

        let mut progress = StretchProgress::start();
        let eval = fingerprint_stretch_cutoff_resume(&a, &b, &cfg, f64::INFINITY, &mut progress);
        prop_assert_eq!(bits(eval), (true, naive.to_bits()));
    }

    /// A random sequence of finite cutoffs, each resuming where the last
    /// one abandoned, then an infinite one: every abandonment certifies its
    /// cutoff without overshooting the true value, and the completed scan
    /// returns the naive bits.
    #[test]
    fn resumed_evaluations_finish_on_the_naive_bits(
        (a, b) in arb_pair(),
        cfg in arb_config(),
        fractions in vec(0.0f64..1.2, 1..=6),
    ) {
        let naive = fingerprint_stretch_naive(&a, &b, &cfg);
        let mut progress = StretchProgress::start();
        let mut finished = false;
        let cutoffs = fractions.iter().map(|f| f * naive).chain([f64::INFINITY]);
        for cutoff in cutoffs {
            match fingerprint_stretch_cutoff_resume(&a, &b, &cfg, cutoff, &mut progress) {
                StretchEval::Exact(d) => {
                    prop_assert_eq!(d.to_bits(), naive.to_bits());
                    finished = true;
                    break;
                }
                StretchEval::AtLeast(lb) => {
                    prop_assert!(lb > cutoff, "abandoned at {lb} without beating {cutoff}");
                    prop_assert!(lb <= naive, "bound {lb} above the true value {naive}");
                }
            }
        }
        prop_assert!(finished, "an infinite cutoff must complete the scan");
    }
}
