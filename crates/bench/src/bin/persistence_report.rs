//! Persistence report: snapshot round-trip cost and the warm-refit
//! saving over a cold fit.
//!
//! Fits a proximity-heavy heterogeneous pool on a registry analog, then
//! measures (1) `save`/`load` wall time and the snapshot's size on
//! disk, (2) a cold refit of the full recipe, and (3) a
//! [`Suod::warm_refit`] that changes a single spec — the survivors and
//! the retained neighbour cache are reused, so the warm path must cost
//! a fraction of the cold one. Results go to `BENCH_persistence.json`
//! in the working directory; the header records the git revision, core
//! count, and SIMD lane, so every number says what produced it.
//!
//! Flags: `--quick` shrinks the dataset for smoke runs; `--smoke` runs
//! the CI gates and exits non-zero unless (1) the loaded pool's
//! combined scores are bit-identical to the saved one's, and (2) the
//! one-spec warm refit is at least [`SMOKE_WARM_SPEEDUP`]x cheaper than
//! the cold fit.

use std::time::Instant;
use suod::prelude::*;
use suod_bench::{git_rev, host_cores, Scale};
use suod_datasets::registry;
use suod_linalg::SimdLane;

/// CI gate: minimum cold-fit / warm-refit wall-time ratio. A one-spec
/// change to a proximity-heavy pool reuses every neighbour graph and
/// all but one model, so the real ratio is far higher; the gate exists
/// to catch the warm path silently degrading into a full refit.
const SMOKE_WARM_SPEEDUP: f64 = 2.0;

/// Five proximity detectors sharing one neighbour cache plus a cheap
/// histogram model — the spec the warm refit will swap out.
fn pool() -> Vec<ModelSpec> {
    vec![
        ModelSpec::Knn {
            n_neighbors: 5,
            method: KnnMethod::Largest,
        },
        ModelSpec::Lof {
            n_neighbors: 8,
            metric: Metric::Euclidean,
        },
        ModelSpec::Abod { n_neighbors: 6 },
        ModelSpec::Cof { n_neighbors: 7 },
        ModelSpec::Loop { n_neighbors: 9 },
        ModelSpec::Hbos {
            n_bins: 10,
            tolerance: 0.3,
        },
    ]
}

fn builder() -> SuodBuilder {
    // Projection off so the proximity models share one feature space
    // (and therefore one cached neighbour graph per (metric, k)).
    Suod::builder()
        .base_estimators(pool())
        .with_projection(false)
        .with_approximation(false)
        .n_workers(1)
        .seed(7)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = Scale::from_args();
    let host_cores = host_cores();
    let avx2 = SimdLane::supported() == SimdLane::Avx2;
    let rev = git_rev();

    let fraction = scale.pick(0.15, 0.5, 1.0);
    let ds = registry::load_scaled("cardio", 17, fraction).expect("registry analog");

    // Cold fit: the baseline every other number compares against.
    let start = Instant::now();
    let mut clf = builder().build().expect("valid config");
    clf.fit(&ds.x).expect("fit succeeds");
    let cold_fit_s = start.elapsed().as_secs_f64();
    let reference = clf.combined_scores(&ds.x).expect("scores");

    // Snapshot round trip through bytes (no filesystem noise in the
    // timing) plus the on-disk size for the record.
    let start = Instant::now();
    let bytes = clf.save_to_bytes().expect("save");
    let save_s = start.elapsed().as_secs_f64();
    let snapshot_bytes = bytes.len();
    let start = Instant::now();
    let loaded = Suod::load_from_bytes(&bytes).expect("load");
    let load_s = start.elapsed().as_secs_f64();
    let loaded_scores = loaded.combined_scores(&ds.x).expect("scores");
    let round_trip_exact = loaded_scores == reference;

    // Warm refit: swap the one cheap spec; all five proximity models
    // and their shared neighbour graphs are carried over.
    let mut changed = pool();
    changed[5] = ModelSpec::Hbos {
        n_bins: 16,
        tolerance: 0.2,
    };
    let start = Instant::now();
    clf.warm_refit(&ds.x, changed.clone()).expect("warm refit");
    let warm_refit_s = start.elapsed().as_secs_f64();

    // Cold fit of the same changed recipe, for the honest comparison.
    let start = Instant::now();
    let mut cold2 = builder().base_estimators(changed).build().expect("valid");
    cold2.fit(&ds.x).expect("fit succeeds");
    let cold_refit_s = start.elapsed().as_secs_f64();
    let warm_exact = clf.combined_scores(&ds.x).expect("scores")
        == cold2.combined_scores(&ds.x).expect("scores");
    let speedup = cold_refit_s / warm_refit_s.max(1e-9);

    println!(
        "Persistence report (rev {rev}, host cores: {host_cores}, avx2+fma: {avx2}, \
         cardio x{fraction}, {} rows x {} features, 6 models)",
        ds.x.nrows(),
        ds.x.ncols()
    );
    println!("cold fit:    {cold_fit_s:.3}s");
    println!("save:        {save_s:.6}s ({snapshot_bytes} bytes)");
    println!("load:        {load_s:.6}s (round-trip scores exact: {round_trip_exact})");
    println!("cold refit:  {cold_refit_s:.3}s (one spec changed)");
    println!("warm refit:  {warm_refit_s:.3}s ({speedup:.1}x cheaper, exact: {warm_exact})");

    if args.iter().any(|a| a == "--smoke") {
        if !round_trip_exact {
            eprintln!("FAIL: loaded snapshot scores differ from the fitted pool");
            std::process::exit(1);
        }
        if !warm_exact {
            eprintln!("FAIL: warm refit scores differ from a cold fit of the same recipe");
            std::process::exit(1);
        }
        if warm_refit_s * SMOKE_WARM_SPEEDUP > cold_refit_s {
            eprintln!(
                "FAIL: warm refit {warm_refit_s:.3}s is not {SMOKE_WARM_SPEEDUP}x cheaper \
                 than the {cold_refit_s:.3}s cold refit"
            );
            std::process::exit(1);
        }
        println!("OK");
        return;
    }

    let json = format!(
        "{{\n  \"git_rev\": \"{rev}\",\n  \"host_cores\": {host_cores},\n  \
         \"avx2_fma_supported\": {avx2},\n  \"lane_detected\": \"{}\",\n  \
         \"scale\": \"{scale:?}\",\n  \"dataset\": \"cardio(x{fraction})\",\n  \
         \"n_rows\": {},\n  \"n_features\": {},\n  \"n_models\": 6,\n  \
         \"snapshot_format\": \"{}\",\n  \"snapshot_bytes\": {snapshot_bytes},\n  \
         \"cold_fit_s\": {cold_fit_s:.6},\n  \"save_s\": {save_s:.6},\n  \
         \"load_s\": {load_s:.6},\n  \"round_trip_exact\": {round_trip_exact},\n  \
         \"cold_refit_s\": {cold_refit_s:.6},\n  \"warm_refit_s\": {warm_refit_s:.6},\n  \
         \"warm_speedup\": {speedup:.2},\n  \"warm_exact\": {warm_exact}\n}}\n",
        SimdLane::detect(),
        ds.x.nrows(),
        ds.x.ncols(),
        suod::SNAPSHOT_FORMAT,
    );
    std::fs::write("BENCH_persistence.json", &json).expect("write BENCH_persistence.json");
    println!("wrote BENCH_persistence.json");
}
