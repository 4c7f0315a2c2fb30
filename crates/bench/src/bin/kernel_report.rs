//! Distance-kernel backend report: the per-pair reference loop vs blocked
//! vs GEMM, scalar vs SIMD, f64 vs mixed precision.
//!
//! Sweeps the pairwise-distance kernels over `(n, d)` in
//! `{2k, 20k} x {8, 32, 128}` for the untiled reference loop
//! ([`reference_pairwise_distances`], the test oracle no config selects)
//! and every [`DistanceBackend`] — timing the
//! GEMM backend once per [`SimdLane`] (forced via
//! [`set_simd_lane_override`]) and once per [`Precision`] — times the
//! batched brute-force kNN fast path, and sweeps the KD-tree-vs-brute
//! crossover dimension that justifies
//! [`suod_linalg::DEFAULT_KDTREE_CROSSOVER_DIM`]. Results go to
//! `BENCH_kernels.json` in the working directory so the perf trajectory
//! is tracked across PRs; the report header records the git revision,
//! the detected lane, and whether the host supports AVX2+FMA, so every
//! number in the file says what produced it.
//!
//! Every timing is the minimum of [`REPS`] runs (minimum, not mean — the
//! quantity of interest is achievable speed, not scheduler noise). All
//! timings are single-thread: backend wins here are algorithmic
//! (packing, cache tiling, the norm trick, vector width), not
//! parallelism.
//!
//! Flags: `--quick` shrinks problem sizes for smoke runs; `--smoke`
//! times only the 20k x 32 pairwise cell and exits non-zero unless the
//! blocked backend beats the reference loop AND (when the host supports
//! AVX2+FMA)
//! the AVX2 gemm lane beats the forced-scalar gemm lane (the CI
//! regression gates for the tiled and vectorized kernels).

use std::fmt::Write as _;
use suod_bench::{git_rev, host_cores, min_time, Scale};
use suod_linalg::distance::reference_pairwise_distances;
use suod_linalg::{
    pairwise_distances_with, set_simd_lane_override, DistanceBackend, DistanceMetric, KernelConfig,
    KnnIndex, Matrix, Precision, SimdLane, DEFAULT_KDTREE_CROSSOVER_DIM,
};

const REPS: usize = 3;

fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    Matrix::from_vec(
        rows,
        cols,
        (0..rows * cols)
            .map(|_| rng.random_range(-2.0..2.0))
            .collect(),
    )
    .expect("shape consistent")
}

/// Times `f` with the process-wide lane override forced to `lane`,
/// restoring automatic detection afterwards. On hosts without AVX2+FMA
/// an `Avx2` request degrades to scalar (mirroring `SimdLane::detect`),
/// so the numbers are honest on every machine.
fn time_with_lane(lane: SimdLane, f: impl FnMut()) -> f64 {
    set_simd_lane_override(Some(lane));
    let t = min_time(REPS, f);
    set_simd_lane_override(None);
    t
}

fn gemm_config(precision: Precision) -> KernelConfig {
    KernelConfig {
        backend: DistanceBackend::Gemm,
        precision,
        kdtree_crossover_dim: 0,
        ..KernelConfig::default()
    }
}

/// One pairwise cell's timings across backends, lanes and precisions.
struct PairwiseCell {
    reference_s: f64,
    blocked_s: f64,
    gemm_scalar_s: f64,
    gemm_simd_s: f64,
    gemm_mixed_scalar_s: f64,
    gemm_mixed_simd_s: f64,
}

impl PairwiseCell {
    fn measure(n: usize, d: usize) -> Self {
        let a = random_matrix(n, d, n as u64 ^ d as u64);
        let metric = DistanceMetric::Euclidean;
        let reference_s = min_time(REPS, || {
            let _ = reference_pairwise_distances(&a, &a, metric);
        });
        let blocked_s = min_time(REPS, || {
            let _ = pairwise_distances_with(&a, &a, metric, KernelConfig::default(), 1, None)
                .expect("shapes agree");
        });
        let gemm = |lane, precision| {
            time_with_lane(lane, || {
                let _ = pairwise_distances_with(
                    &a,
                    &a,
                    DistanceMetric::Euclidean,
                    gemm_config(precision),
                    1,
                    None,
                )
                .expect("shapes agree");
            })
        };
        Self {
            reference_s,
            blocked_s,
            gemm_scalar_s: gemm(SimdLane::Scalar, Precision::F64),
            gemm_simd_s: gemm(SimdLane::Avx2, Precision::F64),
            gemm_mixed_scalar_s: gemm(SimdLane::Scalar, Precision::Mixed),
            gemm_mixed_simd_s: gemm(SimdLane::Avx2, Precision::Mixed),
        }
    }

    fn json(&self) -> String {
        let mut s = String::from("{");
        let _ = write!(
            s,
            "\"reference_s\": {:.6}, \"blocked_s\": {:.6}, \"gemm_scalar_s\": {:.6}, \
             \"gemm_simd_s\": {:.6}, \"gemm_mixed_scalar_s\": {:.6}, \
             \"gemm_mixed_simd_s\": {:.6}, \"blocked_speedup\": {:.4}, \
             \"gemm_speedup\": {:.4}, \"simd_speedup\": {:.4}, \"mixed_speedup\": {:.4}}}",
            self.reference_s,
            self.blocked_s,
            self.gemm_scalar_s,
            self.gemm_simd_s,
            self.gemm_mixed_scalar_s,
            self.gemm_mixed_simd_s,
            self.reference_s / self.blocked_s,
            self.reference_s / self.gemm_simd_s,
            self.gemm_scalar_s / self.gemm_simd_s,
            self.gemm_simd_s / self.gemm_mixed_simd_s,
        );
        s
    }
}

fn brute_config(backend: DistanceBackend) -> KernelConfig {
    KernelConfig {
        backend,
        kdtree_crossover_dim: 0,
        ..KernelConfig::default()
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = Scale::from_args();
    let host_cores = host_cores();
    let avx2 = SimdLane::supported() == SimdLane::Avx2;
    let rev = git_rev();

    if args.iter().any(|a| a == "--smoke") {
        // CI gates on the acceptance cell (20k x 32): the tiled blocked
        // kernel must beat the reference loop, and on AVX2 hosts the vector
        // lane must beat the forced-scalar lane.
        let (n, d) = (20_000, 32);
        println!("kernel smoke: pairwise {n}x{d} (avx2 supported: {avx2})");
        let cell = PairwiseCell::measure(n, d);
        println!(
            "reference {:.3}s  blocked {:.3}s ({:.2}x)  gemm scalar {:.3}s  gemm simd {:.3}s \
             ({:.2}x over scalar)  mixed simd {:.3}s",
            cell.reference_s,
            cell.blocked_s,
            cell.reference_s / cell.blocked_s,
            cell.gemm_scalar_s,
            cell.gemm_simd_s,
            cell.gemm_scalar_s / cell.gemm_simd_s,
            cell.gemm_mixed_simd_s,
        );
        if cell.blocked_s >= cell.reference_s {
            eprintln!("FAIL: blocked backend no faster than the reference loop");
            std::process::exit(1);
        }
        if avx2 && cell.gemm_simd_s >= cell.gemm_scalar_s {
            eprintln!("FAIL: AVX2 gemm lane no faster than forced-scalar gemm");
            std::process::exit(1);
        }
        println!("OK");
        return;
    }

    println!(
        "Distance-kernel backend report (rev {rev}, host cores: {host_cores}, \
         avx2+fma: {avx2}, single-thread timings)"
    );

    // --- Pairwise sweep. ---------------------------------------------------
    let sizes: &[usize] = &scale.pick(vec![500, 2_000], vec![2_000, 20_000], vec![2_000, 20_000]);
    let dims: &[usize] = &[8, 32, 128];
    let mut pairwise_rows: Vec<String> = Vec::new();
    for &n in sizes {
        for &d in dims {
            let cell = PairwiseCell::measure(n, d);
            println!(
                "pairwise {n:>6}x{d:<4} reference {:>8.3}s  blocked {:>8.3}s ({:>4.2}x)  \
                 gemm[scalar] {:>8.3}s  gemm[simd] {:>8.3}s ({:>4.2}x lane)  \
                 mixed[simd] {:>8.3}s ({:>4.2}x prec)",
                cell.reference_s,
                cell.blocked_s,
                cell.reference_s / cell.blocked_s,
                cell.gemm_scalar_s,
                cell.gemm_simd_s,
                cell.gemm_scalar_s / cell.gemm_simd_s,
                cell.gemm_mixed_simd_s,
                cell.gemm_simd_s / cell.gemm_mixed_simd_s,
            );
            pairwise_rows.push(format!("\"n{n}_d{d}\": {}", cell.json()));
        }
    }

    // --- Batched brute-force kNN fast path. --------------------------------
    let (knn_n, knn_q, knn_d, knn_k) = scale.pick(
        (2_000, 200, 32, 10),
        (20_000, 2_000, 32, 10),
        (20_000, 2_000, 32, 10),
    );
    let train = random_matrix(knn_n, knn_d, 21);
    let queries = random_matrix(knn_q, knn_d, 22);
    let build = |config| {
        KnnIndex::build_with(&train, DistanceMetric::Euclidean, config, 1).expect("non-empty")
    };
    let knn_time = |config: KernelConfig| {
        let index = build(config);
        min_time(REPS, || {
            let _ = index.query_batch(&queries, knn_k, 1).expect("shapes agree");
        })
    };
    // Reference: one untiled `query()` scan per row on a blocked index.
    let reference_index = build(brute_config(DistanceBackend::Blocked));
    let knn_reference = min_time(REPS, || {
        for i in 0..queries.nrows() {
            let _ = reference_index.query(queries.row(i), knn_k);
        }
    });
    let knn_blocked = knn_time(brute_config(DistanceBackend::Blocked));
    let knn_gemm = knn_time(brute_config(DistanceBackend::Gemm));
    let knn_mixed = knn_time(gemm_config(Precision::Mixed));
    println!(
        "knn_batch {knn_n}tr/{knn_q}q d{knn_d} k{knn_k}  reference {knn_reference:>8.3}s  \
         blocked {knn_blocked:>8.3}s ({:>4.2}x)  gemm {knn_gemm:>8.3}s ({:>4.2}x)  \
         gemm+mixed {knn_mixed:>8.3}s ({:>4.2}x)",
        knn_reference / knn_blocked,
        knn_reference / knn_gemm,
        knn_reference / knn_mixed,
    );

    // --- KD-tree crossover sweep. ------------------------------------------
    // Tree build + query vs brute-force blocked batch, per dimension: the
    // crossover default is the largest d where the tree still wins.
    let (cx_n, cx_q, cx_k) = scale.pick((2_000, 200, 10), (10_000, 1_000, 10), (10_000, 1_000, 10));
    let mut crossover_rows: Vec<String> = Vec::new();
    let mut derived_crossover = 0usize;
    for &d in &[4usize, 6, 8, 10, 12, 14, 16] {
        let train = random_matrix(cx_n, d, 31 + d as u64);
        let queries = random_matrix(cx_q, d, 32 + d as u64);
        let tree_cfg = KernelConfig {
            kdtree_crossover_dim: usize::MAX,
            ..KernelConfig::default()
        };
        let tree = KnnIndex::build_with(&train, DistanceMetric::Euclidean, tree_cfg, 1)
            .expect("non-empty");
        assert!(tree.uses_kdtree(), "crossover sweep needs a real tree");
        let brute = KnnIndex::build_with(
            &train,
            DistanceMetric::Euclidean,
            brute_config(DistanceBackend::Blocked),
            1,
        )
        .expect("non-empty");
        let tree_s = min_time(REPS, || {
            let _ = tree.query_batch(&queries, cx_k, 1).expect("shapes");
        });
        let brute_s = min_time(REPS, || {
            let _ = brute.query_batch(&queries, cx_k, 1).expect("shapes");
        });
        if tree_s < brute_s {
            derived_crossover = d;
        }
        println!(
            "crossover d={d:<3} tree {tree_s:>8.4}s  brute(blocked) {brute_s:>8.4}s  \
             tree_wins={}",
            tree_s < brute_s
        );
        crossover_rows.push(format!(
            "\"{d}\": {{\"tree_s\": {tree_s:.6}, \"brute_s\": {brute_s:.6}}}"
        ));
    }
    println!(
        "crossover: largest tree-winning d = {derived_crossover} \
         (shipped default: {DEFAULT_KDTREE_CROSSOVER_DIM})"
    );

    // --- Report. -----------------------------------------------------------
    let json = format!(
        "{{\n  \"git_rev\": \"{rev}\",\n  \"host_cores\": {host_cores},\n  \
         \"avx2_fma_supported\": {avx2},\n  \"lane_detected\": \"{}\",\n  \
         \"precisions\": [\"f64\", \"mixed\"],\n  \"scale\": \"{scale:?}\",\n  \
         \"n_threads\": 1,\n  \"pairwise\": {{\n    {}\n  }},\n  \
         \"knn_batch_n{knn_n}_q{knn_q}_d{knn_d}_k{knn_k}\": {{\"reference_s\": {knn_reference:.6}, \
         \"blocked_s\": {knn_blocked:.6}, \"gemm_s\": {knn_gemm:.6}, \
         \"gemm_mixed_s\": {knn_mixed:.6}}},\n  \
         \"kdtree_crossover_n{cx_n}_q{cx_q}_k{cx_k}\": {{\n    {}\n  }},\n  \
         \"crossover_derived\": {derived_crossover},\n  \
         \"crossover_default\": {DEFAULT_KDTREE_CROSSOVER_DIM}\n}}\n",
        SimdLane::detect(),
        pairwise_rows.join(",\n    "),
        crossover_rows.join(",\n    "),
    );
    std::fs::write("BENCH_kernels.json", &json).expect("write BENCH_kernels.json");
    println!("wrote BENCH_kernels.json");
}
