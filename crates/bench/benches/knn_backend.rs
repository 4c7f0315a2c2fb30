//! Criterion micro-benchmarks: KD-tree vs brute-force kNN backends.
//!
//! Design-choice evidence for the automatic backend switch in
//! `suod_linalg::KnnIndex`: the KD-tree wins decisively at low
//! dimensionality and loses its edge as `d` grows (the switch threshold
//! is `d <= DEFAULT_KDTREE_CROSSOVER_DIM`, i.e. d <= 6).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use suod_linalg::{DistanceMetric, KernelConfig, KnnIndex, Matrix};

fn random_points(n: usize, d: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let data: Vec<f64> = (0..n * d).map(|_| rng.random_range(-10.0..10.0)).collect();
    Matrix::from_vec(n, d, data).expect("sized buffer")
}

fn bench_backends(c: &mut Criterion) {
    let mut group = c.benchmark_group("knn_query_n4000_k10");
    group.sample_size(20);
    for d in [3usize, 8, 15] {
        let pts = random_points(4000, d, 7);
        let queries = random_points(50, d, 8);
        let brute_force = KernelConfig::default().with_kdtree_crossover_dim(0);
        let brute =
            KnnIndex::build_with(&pts, DistanceMetric::Euclidean, brute_force, 1).expect("rows");
        let tree = KnnIndex::build(&pts, DistanceMetric::Euclidean).expect("rows");
        assert!(tree.uses_kdtree());
        group.bench_with_input(BenchmarkId::new("brute", d), &d, |b, _| {
            b.iter(|| {
                for q in 0..queries.nrows() {
                    black_box(brute.query(queries.row(q), 10));
                }
            })
        });
        group.bench_with_input(BenchmarkId::new("kdtree", d), &d, |b, _| {
            b.iter(|| {
                for q in 0..queries.nrows() {
                    black_box(tree.query(queries.row(q), 10));
                }
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_backends);
criterion_main!(benches);
