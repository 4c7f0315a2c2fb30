//! The pool every workload fits, the run context, and the fit -> save ->
//! load -> score cycle with its correctness checks.

use crate::trace::Tracer;
use std::sync::Arc;
use std::time::Instant;
use suod::{Suod, SNAPSHOT_FORMAT};
use suod_datasets::{registry, Dataset};
use suod_linalg::Matrix;
use suod_observe::Observer;

/// The pool is fixed: the workload seed changes the data and the request
/// order, never the models.
pub const POOL_SIZE: usize = 12;
pub const POOL_SEED: u64 = 42;
pub const FIT_WORKERS: usize = 2;

/// Everything a workload needs to know about the run.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    /// Dataset size factor; 1.0 except in the self-test.
    pub scale: f64,
    /// Set-up repetitions whose median is `setup_s`.
    pub setups: usize,
    pub tracer: Option<Arc<Tracer>>,
    pub process_start: Instant,
}

impl Ctx {
    /// The observer handed to every public hook: the tracer in a traced
    /// run, the no-op observer otherwise.
    pub fn observer(&self) -> Arc<dyn Observer> {
        match &self.tracer {
            Some(t) => t.clone(),
            None => suod_observe::noop(),
        }
    }

    /// Runs `f`, returning its result and wall seconds, and records a
    /// harness span named `name` when tracing.
    pub fn timed<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        if let Some(t) = &self.tracer {
            t.record_harness(name, start, end);
        }
        (out, (end - start).as_secs_f64())
    }

    pub fn set_tracing(&self, on: bool) {
        if let Some(t) = &self.tracer {
            t.set_enabled(on);
        }
    }
}

pub fn dataset(name: &str, seed: u64, scale: f64) -> Result<Dataset, String> {
    registry::load_scaled(name, seed, scale).map_err(|e| format!("dataset {name}: {e}"))
}

pub fn build_pool(observer: Arc<dyn Observer>) -> Result<Suod, String> {
    Suod::builder()
        .base_estimators(suod::random_pool(POOL_SIZE, POOL_SEED))
        .with_projection(true)
        .with_approximation(true)
        .with_bps(true)
        .n_workers(FIT_WORKERS)
        .seed(POOL_SEED)
        .observer(observer)
        .build()
        .map_err(|e| format!("pool configuration: {e}"))
}

pub fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|v| v.to_bits()).collect()
}

/// Number of positions where two score vectors differ in any bit.
pub fn mismatches(a: &[u64], b: &[u64]) -> u64 {
    if a.len() != b.len() {
        return a.len().max(b.len()) as u64;
    }
    a.iter().zip(b).filter(|(x, y)| x != y).count() as u64
}

/// One fit -> save -> load -> score pass over a dataset.
pub struct Cycle {
    pub loaded: Suod,
    pub snapshot: Vec<u8>,
    /// Offline combined scores of the loaded pool on every row.
    pub scores: Vec<f64>,
    pub fit_s: f64,
    pub save_s: f64,
    pub load_s: f64,
    /// Wall seconds of each offline `combined_scores` pass.
    pub predict_s: Vec<f64>,
    /// Scores that differ between the loaded and the fitted pool, or
    /// between the observed and the plain predict path.
    pub mismatches: u64,
    /// Scored rows whose predict spans were recorded.
    pub traced_rows: usize,
    /// Per surviving model (the index space of predict spans): whether
    /// a PSA regressor serves it.
    pub approximated: Vec<bool>,
    /// Shared neighbour-cache hits and misses of the fit.
    pub cache_hits: u64,
    pub cache_misses: u64,
}

/// Fits the pool on `x`, round-trips it through a snapshot, scores every
/// row `predict_reps` times on the loaded pool, and bit-checks the loaded
/// pool against the fitted one.
pub fn cycle(ctx: &Ctx, x: &Matrix, predict_reps: usize) -> Result<Cycle, String> {
    let mut fitted = build_pool(ctx.observer())?;
    let (fit, fit_s) = ctx.timed("fit", || fitted.fit(x).map(|_| ()));
    fit.map_err(|e| format!("fit: {e}"))?;
    let (snapshot, save_s) = ctx.timed("save_to_bytes", || fitted.save_to_bytes());
    let snapshot = snapshot.map_err(|e| format!("save_to_bytes: {e}"))?;
    let (loaded, load_s) = ctx.timed("load_from_bytes", || Suod::load_from_bytes(&snapshot));
    let loaded = loaded.map_err(|e| format!("load_from_bytes ({SNAPSHOT_FORMAT}): {e}"))?;

    let mut scores = Vec::new();
    let mut predict_s = Vec::with_capacity(predict_reps);
    for _ in 0..predict_reps.max(1) {
        let (out, secs) = ctx.timed("combined_scores", || loaded.combined_scores(x));
        scores = out.map_err(|e| format!("combined_scores: {e}"))?;
        predict_s.push(secs);
    }
    let reference = fitted
        .combined_scores(x)
        .map_err(|e| format!("combined_scores on the fitted pool: {e}"))?;
    let mut bad = mismatches(&bits(&scores), &bits(&reference));

    // The fitted pool predicts through the installed observer; the
    // traced run also scores the loaded pool through the observed path
    // and checks that it agrees.
    let tracing = ctx.tracer.as_ref().is_some_and(|t| t.is_enabled());
    let mut traced_rows = if tracing { x.nrows() } else { 0 };
    if tracing {
        let observer = ctx.observer();
        let (out, _) = ctx.timed("decision_function_observed", || {
            loaded.decision_function_observed(x, &observer)
        });
        let (matrix, _report) = out.map_err(|e| format!("decision_function_observed: {e}"))?;
        let combined = loaded
            .combine_score_matrix(&matrix)
            .map_err(|e| format!("combine_score_matrix: {e}"))?;
        bad += mismatches(&bits(&combined), &bits(&scores));
        traced_rows += x.nrows();
    }

    let approximated = approximated_by_position(&fitted)?;
    let execution = fitted
        .diagnostics()
        .ok_or_else(|| "fitted pool has no diagnostics".to_string())?
        .execution();
    Ok(Cycle {
        cache_hits: execution.cache_hits,
        cache_misses: execution.cache_misses,
        loaded,
        snapshot,
        scores,
        fit_s,
        save_s,
        load_s,
        predict_s,
        mismatches: bad,
        traced_rows,
        approximated,
    })
}

fn approximated_by_position(fitted: &Suod) -> Result<Vec<bool>, String> {
    let diagnostics = fitted
        .diagnostics()
        .ok_or_else(|| "fitted pool has no diagnostics".to_string())?;
    let surviving = fitted
        .surviving_models()
        .map_err(|e| format!("surviving_models: {e}"))?;
    Ok(surviving
        .iter()
        .map(|&(index, _)| {
            diagnostics
                .models()
                .get(index)
                .is_some_and(|m| m.approximated)
        })
        .collect())
}

/// ROC-AUC and precision at n of `scores` against the labels.
pub fn accuracy(labels: &[i32], scores: &[f64]) -> Result<(f64, f64), String> {
    let auc = suod_metrics::roc_auc(labels, scores).map_err(|e| format!("roc_auc: {e}"))?;
    let pan = suod_metrics::precision_at_n(labels, scores, None)
        .map_err(|e| format!("precision_at_n: {e}"))?;
    Ok((auc, pan))
}

/// Peak resident set size of this process in MiB (`getrusage`, which
/// Linux reports in KiB).
pub fn peak_rss_mb() -> f64 {
    #[repr(C)]
    struct Rusage {
        utime: [i64; 2],
        stime: [i64; 2],
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `Rusage` matches the C layout of `struct rusage` on 64-bit
    // Linux (two timevals then fourteen longs), and RUSAGE_SELF (0) only
    // writes into the struct passed in.
    let rc = unsafe { getrusage(0, &mut usage) };
    if rc == 0 {
        usage.maxrss as f64 / 1024.0
    } else {
        0.0
    }
}

/// `0..n` in an order drawn from `seed` (Fisher-Yates over splitmix64).
pub fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}
