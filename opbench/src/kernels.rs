//! Standalone timings of the kernels the greedy loop is built on, over a
//! workload's own fingerprints: tier-0 signatures (`core::compact`), stretch
//! hulls and the Eq. 10 kernel (`core::stretch`). The traced run reports
//! them next to the engine's counters, so a kernel change shows here even
//! when the engine's share of the end-to-end time hides it.

use crate::stats::median;
use crate::trace::Tracer;
use glove_core::compact::{CompactSignature, SignatureSpace};
use glove_core::config::StretchConfig;
use glove_core::stretch::fingerprint_stretch;
use glove_core::stretch::StretchHull;
use glove_core::Fingerprint;
use std::hint::black_box;
use std::time::Instant;

/// Pairs in the fixed kernel pair list.
const KERNEL_PAIRS: usize = 20_000;
/// Repetitions of each timing; the median is reported.
const REPS: usize = 5;

/// What the kernel probes measured.
pub struct KernelTimes {
    pub signature_build_s: f64,
    pub hull_build_s: f64,
    pub kernel_pairs_per_s: f64,
}

/// Median of `REPS` timings of `body`; each is also recorded as a span.
fn timed<T>(tracer: &Tracer, name: &'static str, body: impl Fn() -> T) -> f64 {
    let samples: Vec<f64> = (0..REPS)
        .map(|rep| {
            let start = Instant::now();
            black_box(body());
            let end = Instant::now();
            tracer.record(tracer.open(), None, name, rep as u32, start, end);
            (end - start).as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// Times signature and hull builds over every fingerprint and the Eq. 10
/// kernel over a pair list drawn from `seed`.
pub fn probe(
    fps: &[Fingerprint],
    stretch: &StretchConfig,
    seed: u64,
    tracer: &Tracer,
) -> KernelTimes {
    assert!(
        fps.len() >= 2,
        "kernel probes need at least two fingerprints"
    );
    let space = SignatureSpace::of(stretch);
    let signature_build_s = timed(tracer, "compact.signature_build", || {
        fps.iter()
            .map(|fp| CompactSignature::of(fp, &space))
            .collect::<Vec<_>>()
    });
    let hull_build_s = timed(tracer, "stretch.hull_build", || {
        fps.iter().map(StretchHull::of).collect::<Vec<_>>()
    });

    let mut rng = seed | 1;
    let mut next = |n: usize| {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        (rng % n as u64) as usize
    };
    let pairs: Vec<(usize, usize)> = (0..KERNEL_PAIRS)
        .map(|_| {
            let a = next(fps.len());
            let b = (a + 1 + next(fps.len() - 1)) % fps.len();
            (a, b)
        })
        .collect();
    let kernel_s = timed(tracer, "stretch.kernel", || {
        pairs
            .iter()
            .map(|&(a, b)| fingerprint_stretch(&fps[a], &fps[b], stretch))
            .sum::<f64>()
    });
    KernelTimes {
        signature_build_s,
        hull_build_s,
        kernel_pairs_per_s: KERNEL_PAIRS as f64 / kernel_s,
    }
}
