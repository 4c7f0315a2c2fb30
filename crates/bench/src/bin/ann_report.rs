//! Approximate-neighbor backend report: exact GEMM sweep vs HNSW.
//!
//! Benchmarks the [`NeighborBackend::Hnsw`] graph index against the exact
//! GEMM-backed sweep at `n in {20k, 100k, 500k}` (index build time, full
//! leave-one-out query sweep time, recall@k on a sampled query set), and
//! times one end-to-end proximity-pool `Suod::fit` pair (exact vs HNSW)
//! with per-detector ROC-AUC deltas on planted outliers. Results go to
//! `BENCH_neighbors.json` in the working directory so the recall/speed
//! tradeoff is tracked across PRs; the header records the git revision,
//! detected SIMD lane, and the HNSW parameters that produced the numbers.
//!
//! The exact sweep is `O(n^2 d)`, so on the single-core CI hosts the
//! `n = 500k` exact cell is *extrapolated* quadratically from the largest
//! measured exact cell and flagged `"exact_extrapolated": true` in the
//! JSON; HNSW is measured for real at every size. All timings are
//! single-thread: the win here is algorithmic (graph search vs exhaustive
//! scan), not parallelism.
//!
//! Recall@k counts a retrieved neighbour as correct when it is at least
//! as close as the true k-th neighbour — the fair definition under
//! distance ties (duplicate rows make index-set comparison ill-posed).
//!
//! Flags: `--quick` shrinks problem sizes for smoke runs; `--smoke`
//! times only the n = 100k index cell and exits non-zero unless HNSW
//! build + query beats the exact build + sweep while holding
//! recall@10 >= 0.95 (the CI regression gate for the approximate
//! backend).

use std::fmt::Write as _;
use std::time::Instant;
use suod::prelude::*;
use suod_bench::{git_rev, host_cores, min_time};
use suod_linalg::{DistanceBackend, DistanceMetric, KnnIndex, SimdLane};
use suod_metrics::roc_auc;

/// Feature dimension and neighbour count for every index cell.
const DIM: usize = 16;
const K: usize = 10;
/// Query rows sampled for recall measurement (exact ground truth for a
/// sample is affordable even where the full exact sweep is not).
const RECALL_SAMPLE: usize = 2_000;

/// Inlier blob plus ~0.05% scattered planted outliers; returns labels.
/// Outliers land in a huge box, and contamination is kept very sparse on
/// purpose: in d = 16 the box's pairwise distances concentrate near
/// `spread * sqrt(2d/12) ~ 1.42 * ||x||`, so past a few hundred outliers
/// the closest few start undercutting the blob distance and become each
/// other's nearest neighbours — which degrades the *exact* LOF-family
/// scores and makes the exact-vs-HNSW AUC comparison measure the data
/// shape instead of the index. At 0.05% every outlier's k-neighbourhood
/// is pure blob for both backends.
fn planted_outliers(n: usize, d: usize, seed: u64) -> (Matrix, Vec<i32>) {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let n_out = (n / 2000).max(8);
    let mut data = Vec::with_capacity(n * d);
    let mut y = vec![0; n];
    for (i, label) in y.iter_mut().enumerate() {
        let outlier = i >= n - n_out;
        let spread = if outlier { 80.0 } else { 1.5 };
        if outlier {
            *label = 1;
        }
        for _ in 0..d {
            data.push((rng.random_range(0.0..1.0) - 0.5) * spread);
        }
    }
    (Matrix::from_vec(n, d, data).expect("shape consistent"), y)
}

fn exact_config() -> KernelConfig {
    KernelConfig {
        backend: DistanceBackend::Gemm,
        kdtree_crossover_dim: 0,
        ..KernelConfig::default()
    }
}

fn hnsw_config() -> KernelConfig {
    KernelConfig {
        backend: DistanceBackend::Gemm,
        neighbor: NeighborBackend::Hnsw(HnswParams::default()),
        kdtree_crossover_dim: 0,
        ..KernelConfig::default()
    }
}

/// One index cell: build + full self-sweep timings for both backends,
/// plus sampled recall@k of HNSW against exact ground truth.
struct IndexCell {
    exact_build_s: f64,
    exact_query_s: f64,
    hnsw_build_s: f64,
    hnsw_query_s: f64,
    recall: f64,
    /// True when the exact timings were extrapolated `O(n^2)` from a
    /// smaller measured cell instead of run for real.
    exact_extrapolated: bool,
}

impl IndexCell {
    /// Measures one cell. `exact_base` is `Some((n_base, build_s,
    /// query_s))` from the largest measured exact cell; when the exact
    /// sweep at this `n` is infeasible, its timings are extrapolated
    /// quadratically from that base instead of measured.
    fn measure(x: &Matrix, measure_exact: bool, exact_base: Option<(usize, f64, f64)>) -> Self {
        let n = x.nrows();
        let reps = if n <= 20_000 { 3 } else { 1 };

        let mut hnsw_build_s = f64::INFINITY;
        let mut hnsw: Option<KnnIndex> = None;
        for _ in 0..reps {
            let start = Instant::now();
            let index = KnnIndex::build_with(x, DistanceMetric::Euclidean, hnsw_config(), 1)
                .expect("non-empty");
            hnsw_build_s = hnsw_build_s.min(start.elapsed().as_secs_f64());
            hnsw = Some(index);
        }
        let hnsw = hnsw.expect("reps >= 1");
        assert!(hnsw.uses_hnsw(), "hnsw backend must engage at n = {n}");
        let mut found: Vec<Vec<suod_linalg::Neighbor>> = Vec::new();
        let hnsw_query_s = min_time(reps, || {
            found = hnsw.self_query_batch(K, 1);
        });

        // Exact ground truth for the sampled queries is always
        // affordable (sample x n scan), even when the full sweep is not:
        // it is what makes the 500k recall number real rather than
        // extrapolated.
        let exact = KnnIndex::build_with(x, DistanceMetric::Euclidean, exact_config(), 1)
            .expect("non-empty");
        let stride = (n / RECALL_SAMPLE).max(1);
        let sampled: Vec<usize> = (0..n).step_by(stride).take(RECALL_SAMPLE).collect();
        let mut hits = 0usize;
        let mut total = 0usize;
        for &i in &sampled {
            let truth = exact.query_excluding(x.row(i), K, i);
            let radius = truth.last().expect("k >= 1").distance;
            total += truth.len();
            hits += found[i]
                .iter()
                .filter(|f| f.distance <= radius * (1.0 + 1e-12) + 1e-12)
                .count();
        }
        let recall = hits as f64 / total as f64;

        let (exact_build_s, exact_query_s, exact_extrapolated) = if measure_exact {
            let exact_build_s = min_time(reps, || {
                let _ = KnnIndex::build_with(x, DistanceMetric::Euclidean, exact_config(), 1)
                    .expect("non-empty");
            });
            let exact_query_s = min_time(reps, || {
                let _ = exact.self_query_batch(K, 1);
            });
            (exact_build_s, exact_query_s, false)
        } else {
            let (n_base, build_s, query_s) = exact_base.expect("extrapolation base measured first");
            let scale = (n as f64 / n_base as f64).powi(2);
            (build_s * scale, query_s * scale, true)
        };

        Self {
            exact_build_s,
            exact_query_s,
            hnsw_build_s,
            hnsw_query_s,
            recall,
            exact_extrapolated,
        }
    }

    fn exact_total(&self) -> f64 {
        self.exact_build_s + self.exact_query_s
    }

    fn hnsw_total(&self) -> f64 {
        self.hnsw_build_s + self.hnsw_query_s
    }

    fn json(&self) -> String {
        let mut s = String::from("{");
        let _ = write!(
            s,
            "\"exact_build_s\": {:.6}, \"exact_query_s\": {:.6}, \
             \"hnsw_build_s\": {:.6}, \"hnsw_query_s\": {:.6}, \
             \"speedup\": {:.4}, \"recall_at_{K}\": {:.4}, \
             \"exact_extrapolated\": {}}}",
            self.exact_build_s,
            self.exact_query_s,
            self.hnsw_build_s,
            self.hnsw_query_s,
            self.exact_total() / self.hnsw_total(),
            self.recall,
            self.exact_extrapolated,
        );
        s
    }
}

fn proximity_pool() -> Vec<ModelSpec> {
    vec![
        ModelSpec::Knn {
            n_neighbors: 10,
            method: KnnMethod::Largest,
        },
        ModelSpec::Lof {
            n_neighbors: 12,
            metric: Metric::Euclidean,
        },
        ModelSpec::Loop { n_neighbors: 10 },
        ModelSpec::Cof { n_neighbors: 10 },
        ModelSpec::Abod { n_neighbors: 8 },
    ]
}

/// End-to-end proximity-pool fit: wall time, per-detector training-score
/// ROC-AUC, and the fit's exactness-fallback counter.
fn pool_fit(backend: NeighborBackend, x: &Matrix, y: &[i32]) -> (f64, Vec<f64>, u64) {
    // Projection off: each detector would otherwise fit in its own JL
    // subspace (distinct fingerprints), defeating the shared neighbour
    // cache and diluting the backend comparison with 5x index builds.
    let mut model = Suod::builder()
        .base_estimators(proximity_pool())
        .kernel(KernelConfig::default().with_neighbor(backend))
        .n_workers(1)
        .with_projection(false)
        .with_approximation(false)
        .seed(7)
        .build()
        .expect("valid config");
    let start = Instant::now();
    model.fit(x).expect("fit succeeds");
    let fit_s = start.elapsed().as_secs_f64();
    let fallbacks = model
        .diagnostics()
        .expect("fit records diagnostics")
        .ann_fallbacks();
    let scores = model.training_scores().expect("fitted");
    let aucs: Vec<f64> = (0..scores.ncols())
        .map(|m| {
            let col: Vec<f64> = (0..scores.nrows()).map(|i| scores.get(i, m)).collect();
            roc_auc(y, &col).expect("labelled")
        })
        .collect();
    (fit_s, aucs, fallbacks)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = suod_bench::Scale::from_args();
    let host_cores = host_cores();
    let rev = git_rev();
    let params = HnswParams::default();

    if args.iter().any(|a| a == "--smoke") {
        // CI gates on the acceptance cell (n = 100k): HNSW build + query
        // must beat the exact build + sweep while holding recall >= 0.95.
        let n = 100_000;
        println!("ann smoke: index cell n = {n}, d = {DIM}, k = {K} (single-thread)");
        let (x, _) = planted_outliers(n, DIM, n as u64);
        let cell = IndexCell::measure(&x, true, None);
        println!(
            "exact build {:.3}s + sweep {:.3}s = {:.3}s   hnsw build {:.3}s + sweep {:.3}s \
             = {:.3}s ({:.2}x)   recall@{K} {:.4}",
            cell.exact_build_s,
            cell.exact_query_s,
            cell.exact_total(),
            cell.hnsw_build_s,
            cell.hnsw_query_s,
            cell.hnsw_total(),
            cell.exact_total() / cell.hnsw_total(),
            cell.recall,
        );
        if cell.hnsw_total() >= cell.exact_total() {
            eprintln!("FAIL: hnsw build+query no faster than exact at n = {n}");
            std::process::exit(1);
        }
        if cell.recall < 0.95 {
            eprintln!(
                "FAIL: recall@{K} {:.4} below 0.95 at default ef_search",
                cell.recall
            );
            std::process::exit(1);
        }
        println!("OK");
        return;
    }

    println!(
        "Approximate-neighbor backend report (rev {rev}, host cores: {host_cores}, \
         lane: {}, single-thread timings)",
        SimdLane::detect()
    );
    println!(
        "hnsw params: m = {}, ef_construction = {}, ef_search = {}",
        params.m, params.ef_construction, params.ef_search
    );

    // --- Index cells: build + full self-sweep, exact vs HNSW. --------------
    // The exact sweep is O(n^2 d); cells past `exact_cap` extrapolate the
    // exact timings quadratically from the largest measured cell (flagged
    // in the JSON) — HNSW is measured for real everywhere.
    let sizes: Vec<usize> = scale.pick(
        vec![5_000, 20_000],
        vec![20_000, 100_000, 500_000],
        vec![20_000, 100_000, 500_000],
    );
    let exact_cap = scale.pick(20_000, 100_000, 500_000);
    let mut index_rows: Vec<String> = Vec::new();
    let mut exact_base: Option<(usize, f64, f64)> = None;
    for &n in &sizes {
        let (x, _) = planted_outliers(n, DIM, n as u64);
        let measure_exact = n <= exact_cap;
        let cell = IndexCell::measure(&x, measure_exact, exact_base);
        if measure_exact {
            exact_base = Some((n, cell.exact_build_s, cell.exact_query_s));
        }
        println!(
            "index n = {n:>6}  exact {:>9.3}s{}  hnsw {:>8.3}s (build {:>7.3}s + sweep \
             {:>7.3}s)  {:>6.2}x  recall@{K} {:.4}",
            cell.exact_total(),
            if cell.exact_extrapolated { "*" } else { " " },
            cell.hnsw_total(),
            cell.hnsw_build_s,
            cell.hnsw_query_s,
            cell.exact_total() / cell.hnsw_total(),
            cell.recall,
        );
        index_rows.push(format!("\"n{n}\": {}", cell.json()));
    }
    if sizes.iter().any(|&n| n > exact_cap) {
        println!(
            "  (* exact timings extrapolated O(n^2) from n = {})",
            exact_cap
        );
    }

    // --- End-to-end proximity-pool fit at the acceptance size. -------------
    let pool_n = scale.pick(10_000, 100_000, 100_000);
    let (x, y) = planted_outliers(pool_n, DIM, 77);
    println!("pool fit n = {pool_n}: 5 proximity detectors (knn/lof/loop/cof/abod), 1 worker");
    let (exact_fit_s, exact_aucs, _) = pool_fit(NeighborBackend::Exact, &x, &y);
    let (hnsw_fit_s, hnsw_aucs, fallbacks) =
        pool_fit(NeighborBackend::Hnsw(HnswParams::default()), &x, &y);
    let max_auc_delta = exact_aucs
        .iter()
        .zip(&hnsw_aucs)
        .map(|(e, h)| (e - h).abs())
        .fold(0.0f64, f64::max);
    println!(
        "pool fit exact {exact_fit_s:.3}s  hnsw {hnsw_fit_s:.3}s ({:.2}x)  \
         max |auc delta| {max_auc_delta:.4}  ann fallbacks {fallbacks}",
        exact_fit_s / hnsw_fit_s,
    );
    for (m, (e, h)) in exact_aucs.iter().zip(&hnsw_aucs).enumerate() {
        println!(
            "  detector {m}: auc exact {e:.4}  hnsw {h:.4}  delta {:+.4}",
            h - e
        );
    }

    // --- Report. -----------------------------------------------------------
    let auc_list = |aucs: &[f64]| {
        aucs.iter()
            .map(|a| format!("{a:.4}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let json = format!(
        "{{\n  \"git_rev\": \"{rev}\",\n  \"host_cores\": {host_cores},\n  \
         \"lane_detected\": \"{}\",\n  \"scale\": \"{scale:?}\",\n  \"n_threads\": 1,\n  \
         \"d\": {DIM},\n  \"k\": {K},\n  \"recall_sample\": {RECALL_SAMPLE},\n  \
         \"hnsw_params\": {{\"m\": {}, \"ef_construction\": {}, \"ef_search\": {}}},\n  \
         \"exact_extrapolation_note\": \"exact cells past n={exact_cap} are extrapolated \
         O(n^2) from the largest measured exact cell (single-core host); hnsw and recall \
         are measured at every n\",\n  \"index\": {{\n    {}\n  }},\n  \
         \"pool_fit_n{pool_n}\": {{\"detectors\": [\"knn\", \"lof\", \"loop\", \"cof\", \
         \"abod\"], \"exact_fit_s\": {exact_fit_s:.6}, \"hnsw_fit_s\": {hnsw_fit_s:.6}, \
         \"speedup\": {:.4}, \"ann_fallbacks\": {fallbacks}, \
         \"max_auc_delta\": {max_auc_delta:.4}, \"auc_exact\": [{}], \
         \"auc_hnsw\": [{}]}}\n}}\n",
        SimdLane::detect(),
        params.m,
        params.ef_construction,
        params.ef_search,
        index_rows.join(",\n    "),
        exact_fit_s / hnsw_fit_s,
        auc_list(&exact_aucs),
        auc_list(&hnsw_aucs),
    );
    std::fs::write("BENCH_neighbors.json", &json).expect("write BENCH_neighbors.json");
    println!("wrote BENCH_neighbors.json");
}
