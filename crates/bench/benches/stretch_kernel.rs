//! Benchmarks of the pairwise stretch kernel — the computation the paper
//! runs on a GPU at 20–50 k fingerprint pairs per second (§6.3).
//!
//! * `sample_stretch` — one δ evaluation (Eqs. 1–9), the innermost loop;
//! * `fingerprint_stretch/{pruned,naive}` — one Δ evaluation (Eq. 10),
//!   through the production kernel and the naive scan;
//! * `fingerprint_stretch/len/<n>` — one Δ evaluation per pair of
//!   consecutive subscribers of 800 metro users whose mean fingerprint
//!   length is `n` (27 to ~450 samples), the microbenchmark that chose the
//!   kernel's block size and the length from which it walks blocks;
//! * `stretch_matrix` — the full initialization matrix of Alg. 1 on a small
//!   population (reports pairs, so pairs/s is throughput × pairs).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use glove_bench::bench_dataset;
use glove_core::stretch::{
    fingerprint_stretch, fingerprint_stretch_naive, sample_stretch, sample_stretch_unweighted,
};
use glove_core::{Sample, StretchConfig};
use glove_synth::{generate, ScenarioConfig};
use std::hint::black_box;

fn bench_sample_stretch(c: &mut Criterion) {
    let cfg = StretchConfig::default();
    let a = Sample::point(1_000, 2_000, 480);
    let b = Sample::new(5_000, -2_000, 700, 300, 520, 45).unwrap();
    c.bench_function("sample_stretch/point_vs_box", |bencher| {
        bencher.iter(|| sample_stretch_unweighted(black_box(&a), black_box(&b), &cfg))
    });
    c.bench_function("sample_stretch/weighted", |bencher| {
        bencher.iter(|| sample_stretch(black_box(&a), 7.0, black_box(&b), 3.0, &cfg))
    });
}

fn bench_fingerprint_stretch(c: &mut Criterion) {
    let cfg = StretchConfig::default();
    let ds = bench_dataset(24);
    let a = &ds.fingerprints[0];
    let b = &ds.fingerprints[1];
    let mut group = c.benchmark_group("fingerprint_stretch");
    group.bench_function("pruned", |bencher| {
        bencher.iter(|| fingerprint_stretch(black_box(a), black_box(b), &cfg))
    });
    group.bench_function("naive", |bencher| {
        bencher.iter(|| fingerprint_stretch_naive(black_box(a), black_box(b), &cfg))
    });
    group.finish();
}

fn bench_stretch_by_length(c: &mut Criterion) {
    let cfg = StretchConfig::default();
    let test_mode = std::env::args().any(|a| a == "--test");
    let users = if test_mode { 40 } else { 800 };
    let mut group = c.benchmark_group("fingerprint_stretch/len");
    // Median events per day; the metro preset's own is 2.2.
    for rate in [1.2, 2.2, 6.0, 13.0, 28.0] {
        let mut scenario = ScenarioConfig::metro_like(users);
        scenario.num_towers = 300;
        scenario.seed = 0x000B_EAC6; // fixed: benches must compare like against like
        scenario.traffic.events_per_day_median = rate;
        let ds = generate(&scenario).dataset;
        let mean_len = ds.num_samples() / ds.fingerprints.len();
        group.throughput(Throughput::Elements(ds.fingerprints.len() as u64 - 1));
        group.bench_with_input(
            BenchmarkId::from_parameter(mean_len),
            &ds.fingerprints,
            |bencher, fps| {
                bencher.iter(|| {
                    fps.windows(2)
                        .map(|pair| fingerprint_stretch(&pair[0], &pair[1], &cfg))
                        .sum::<f64>()
                })
            },
        );
    }
    group.finish();
}

fn bench_stretch_matrix(c: &mut Criterion) {
    let cfg = StretchConfig::default();
    let mut group = c.benchmark_group("stretch_matrix");
    group.sample_size(10);
    for users in [16usize, 32, 64] {
        let ds = bench_dataset(users);
        let pairs = (users * (users - 1) / 2) as u64;
        group.throughput(Throughput::Elements(pairs));
        group.bench_with_input(BenchmarkId::from_parameter(users), &ds, |bencher, ds| {
            bencher.iter(|| {
                let mut acc = 0.0;
                for i in 0..ds.fingerprints.len() {
                    for j in 0..i {
                        acc += fingerprint_stretch(&ds.fingerprints[i], &ds.fingerprints[j], &cfg);
                    }
                }
                black_box(acc)
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_sample_stretch,
    bench_fingerprint_stretch,
    bench_stretch_by_length,
    bench_stretch_matrix
);
criterion_main!(benches);
