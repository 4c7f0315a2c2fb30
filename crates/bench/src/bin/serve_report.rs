//! Online-serving report: throughput and latency percentiles for the
//! micro-batching score service under an open-loop load generator.
//!
//! Sweeps (batch window x worker count x injected fault rate) over a
//! fitted heterogeneous pool: each cell fits the pool, starts a
//! [`ScoreService`], fires a fixed open-loop request trace at it (no
//! retry on `Busy` — rejections are *measured*, not hidden), and records
//! the service's own counters and latency percentiles. Results go to
//! `BENCH_serve.json` in the working directory so the serving perf
//! trajectory is tracked across PRs; the header records the git
//! revision, core count, and SIMD lane, so every number says what
//! produced it.
//!
//! Flags: `--quick` shrinks the trace for smoke runs; `--smoke` runs the
//! CI gates and exits non-zero unless (1) the nominal-load cell drops
//! zero requests, (2) its p99 latency is under [`SMOKE_P99_MS`], and
//! (3) survivor scores under injected predict chaos are bit-identical
//! across worker counts on a manual-clock trace.

use std::sync::Arc;
use std::time::{Duration, Instant};
use suod::prelude::*;
use suod_bench::{git_rev, host_cores, Scale};
use suod_datasets::registry;
use suod_linalg::SimdLane;
use suod_serve::{ManualClock, ScoreOutcome, ScoreService, ServeConfig, SubmitError};

/// CI gate: nominal-load p99 admission-to-response latency ceiling.
/// Generous — the gate exists to catch order-of-magnitude regressions
/// (a stuck dispatcher, an accidental sleep), not scheduler jitter.
const SMOKE_P99_MS: u64 = 500;

/// Six cheap healthy models; with `chaos` two predict-time saboteurs
/// (one panicking, one NaN-scoring) are appended at the end so the
/// healthy prefix keeps identical derived seeds.
fn pool(chaos: bool) -> Vec<ModelSpec> {
    let mut pool = vec![
        ModelSpec::Hbos {
            n_bins: 10,
            tolerance: 0.3,
        },
        ModelSpec::Hbos {
            n_bins: 20,
            tolerance: 0.5,
        },
        ModelSpec::IForest {
            n_estimators: 20,
            max_features: 0.8,
        },
        ModelSpec::Loda {
            n_members: 20,
            n_bins: 10,
        },
        ModelSpec::Pca {
            variance_retained: 0.9,
        },
        ModelSpec::Knn {
            n_neighbors: 5,
            method: KnnMethod::Largest,
        },
    ];
    if chaos {
        pool.push(ModelSpec::Chaos {
            mode: ChaosMode::PanicOnPredict,
            n_neighbors: 5,
        });
        pool.push(ModelSpec::Chaos {
            mode: ChaosMode::NanOnPredict,
            n_neighbors: 5,
        });
    }
    pool
}

fn fit(x: &Matrix, chaos: bool, workers: usize) -> Suod {
    let mut clf = Suod::builder()
        .base_estimators(pool(chaos))
        .min_healthy_fraction(0.5)
        .n_workers(workers)
        .seed(17)
        .build()
        .expect("valid configuration");
    clf.fit(x).expect("fit succeeds");
    clf
}

/// One sweep cell's measurements.
struct Cell {
    wall_s: f64,
    rows_per_s: f64,
    report: suod_serve::ServeReport,
    dropped: u64,
}

/// Open-loop load: `n_requests` requests of `rows_per_request` rows at a
/// fixed inter-arrival gap. `Busy` rejections are counted as dropped and
/// NOT retried — an open-loop generator measures the service as offered
/// load sees it.
fn run_cell(
    x: &Matrix,
    queries: &[Matrix],
    window_ms: u64,
    workers: usize,
    chaos: bool,
    interarrival: Duration,
) -> Cell {
    let clf = fit(x, chaos, workers);
    let config = ServeConfig {
        queue_capacity: 64,
        batch_window: Duration::from_millis(window_ms),
        // Sustained fault rate: the saboteurs must keep faulting, so the
        // budget never quarantines them inside a cell.
        predict_failure_budget: u32::MAX,
        min_healthy_fraction: 0.5,
        ..ServeConfig::default()
    };
    let mut service = ScoreService::new(clf, config).expect("valid serve config");
    service.spawn_dispatcher();
    let service = Arc::new(service);

    let start = Instant::now();
    let mut tickets = Vec::with_capacity(queries.len());
    let mut dropped = 0u64;
    for query in queries {
        match service.submit(query.clone()) {
            Ok(t) => tickets.push(t),
            Err(SubmitError::Busy { .. }) => dropped += 1,
            Err(e) => panic!("submit failed: {e}"),
        }
        std::thread::sleep(interarrival);
    }
    let mut rows_scored = 0usize;
    for ticket in tickets {
        match ticket.wait() {
            ScoreOutcome::Scored(batch) => rows_scored += batch.combined.len(),
            ScoreOutcome::Shed { .. } => dropped += 1,
            ScoreOutcome::Failed(msg) => panic!("request failed: {msg}"),
            other => panic!("unexpected outcome: {other:?}"),
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    let report = service.report();
    Cell {
        wall_s,
        rows_per_s: rows_scored as f64 / wall_s,
        report,
        dropped,
    }
}

/// Deterministic chaos trace on a manual clock: returns every scored
/// request's combined-score bits plus the final active mask, for the
/// cross-worker bit-identity gate.
fn chaos_trace_bits(x: &Matrix, queries: &[Matrix], workers: usize) -> (Vec<Vec<u64>>, Vec<bool>) {
    let config = ServeConfig {
        predict_failure_budget: 3,
        min_healthy_fraction: 0.5,
        ..ServeConfig::default()
    };
    let clock = Arc::new(ManualClock::new());
    let service =
        ScoreService::with_parts(fit(x, true, workers), config, clock, suod_observe::noop())
            .expect("valid serve config");
    let mut tickets = Vec::new();
    for query in queries {
        tickets.push(service.submit(query.clone()).expect("queue has room"));
        service.process_once();
    }
    let bits = tickets
        .into_iter()
        .map(|t| match t.wait() {
            ScoreOutcome::Scored(batch) => batch
                .combined
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<u64>>(),
            other => panic!("chaos trace request not scored: {other:?}"),
        })
        .collect();
    (bits, service.active_models())
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = Scale::from_args();
    let host_cores = host_cores();
    let avx2 = SimdLane::supported() == SimdLane::Avx2;
    let rev = git_rev();

    // The saboteurs' panics are caught at the task boundary; keep the
    // default hook from flooding stderr with backtraces.
    std::panic::set_hook(Box::new(|_| {}));

    let ds = registry::load_scaled("cardio", 17, 0.25).expect("registry analog");
    let rows_per_request = 16usize;
    let n_requests = scale.pick(16usize, 48, 96);
    let n_rows = ds.x.nrows();
    let queries: Vec<Matrix> = (0..n_requests)
        .map(|r| {
            let rows: Vec<Vec<f64>> = (0..rows_per_request)
                .map(|i| ds.x.row((r * rows_per_request + i) % n_rows).to_vec())
                .collect();
            Matrix::from_rows(&rows).expect("rectangular request")
        })
        .collect();

    if args.iter().any(|a| a == "--smoke") {
        println!(
            "serve smoke: {n_requests} requests x {rows_per_request} rows (cores: {host_cores})"
        );
        // Gate 1+2: nominal load (2ms window, 2 workers, no chaos) must
        // drop nothing and answer within the p99 ceiling.
        let cell = run_cell(
            &ds.x,
            &queries,
            2,
            2.min(host_cores),
            false,
            Duration::from_millis(2),
        );
        println!(
            "nominal: {:.3}s wall, {:.0} rows/s, p99 {}ms, dropped {}",
            cell.wall_s, cell.rows_per_s, cell.report.p99_latency_ms, cell.dropped
        );
        if cell.dropped > 0 {
            eprintln!("FAIL: {} requests dropped at nominal load", cell.dropped);
            std::process::exit(1);
        }
        if cell.report.p99_latency_ms > SMOKE_P99_MS {
            eprintln!(
                "FAIL: nominal p99 {}ms exceeds {SMOKE_P99_MS}ms ceiling",
                cell.report.p99_latency_ms
            );
            std::process::exit(1);
        }
        // Gate 3: survivor bit-identity across worker counts while
        // predict chaos is quarantining models mid-trace.
        let reference = chaos_trace_bits(&ds.x, &queries, 1);
        for workers in [2usize, 4] {
            let run = chaos_trace_bits(&ds.x, &queries, workers);
            if run != reference {
                eprintln!("FAIL: chaos survivor scores differ between 1 and {workers} workers");
                std::process::exit(1);
            }
        }
        println!(
            "chaos trace: {} requests bit-identical at 1/2/4 workers, active mask {:?}",
            reference.0.len(),
            reference.1
        );
        println!("OK");
        return;
    }

    println!(
        "Serving report (rev {rev}, host cores: {host_cores}, avx2+fma: {avx2}, \
         {n_requests} requests x {rows_per_request} rows, open loop)"
    );
    let windows: &[u64] = &[0, 2, 5];
    let worker_counts: Vec<usize> = [1usize, 2, 4]
        .iter()
        .copied()
        .filter(|&w| w == 1 || w <= host_cores)
        .collect();
    let mut cells: Vec<String> = Vec::new();
    for &window_ms in windows {
        for &workers in &worker_counts {
            for chaos in [false, true] {
                let cell = run_cell(
                    &ds.x,
                    &queries,
                    window_ms,
                    workers,
                    chaos,
                    Duration::from_millis(1),
                );
                let r = &cell.report;
                println!(
                    "window {window_ms}ms workers {workers} chaos {}  {:.3}s wall  \
                     {:>7.0} rows/s  p50 {}ms  p99 {}ms  dropped {}  faults {}",
                    u8::from(chaos),
                    cell.wall_s,
                    cell.rows_per_s,
                    r.p50_latency_ms,
                    r.p99_latency_ms,
                    cell.dropped,
                    r.predict_faults,
                );
                cells.push(format!(
                    "\"window{window_ms}ms_workers{workers}_chaos{}\": {{\
                     \"wall_s\": {:.6}, \"rows_per_s\": {:.1}, \
                     \"admitted\": {}, \"rejected\": {}, \"shed\": {}, \
                     \"requests_scored\": {}, \"batches\": {}, \
                     \"p50_ms\": {}, \"p99_ms\": {}, \"max_ms\": {}, \
                     \"dropped\": {}, \"predict_faults\": {}}}",
                    u8::from(chaos),
                    cell.wall_s,
                    cell.rows_per_s,
                    r.admitted,
                    r.rejected,
                    r.shed,
                    r.requests_scored,
                    r.batches,
                    r.p50_latency_ms,
                    r.p99_latency_ms,
                    r.max_latency_ms,
                    cell.dropped,
                    r.predict_faults,
                ));
            }
        }
    }

    let json = format!(
        "{{\n  \"git_rev\": \"{rev}\",\n  \"host_cores\": {host_cores},\n  \
         \"avx2_fma_supported\": {avx2},\n  \"lane_detected\": \"{}\",\n  \
         \"scale\": \"{scale:?}\",\n  \"dataset\": \"cardio(x0.25)\",\n  \
         \"rows_per_request\": {rows_per_request},\n  \"n_requests\": {n_requests},\n  \
         \"cells\": {{\n    {}\n  }}\n}}\n",
        SimdLane::detect(),
        cells.join(",\n    "),
    );
    std::fs::write("BENCH_serve.json", &json).expect("write BENCH_serve.json");
    println!("wrote BENCH_serve.json");
}
