//! The workloads. Each measures every end-to-end metric, and in a traced
//! run every per-layer metric; see `README.md` for what each metric means
//! on each workload.

use crate::layers::{attribute, LayerInput};
use crate::pool::{accuracy, cycle, dataset, peak_rss_mb, Ctx, Cycle};
use crate::serve::{closed_loop, codec_micro, BulkResult, Requests, Server, Tally};
use crate::stats::{median, quantile, summarize, Summary};
use std::time::{Duration, Instant};
use suod_datasets::Dataset;

pub const WORKLOADS: &[&str] = &["fit_highdim", "serve_bulk_reload"];

/// `musk` analog (d = 166) at half its Table A.1 size.
const FIT_DATASET: (&str, f64) = ("musk", 0.5);
/// `cardio` analog (d = 21) at full size.
const SERVE_DATASET: (&str, f64) = ("cardio", 1.0);
/// Offline `combined_scores` passes per fitted pool.
const PREDICT_REPS: usize = 3;

const BULK_ROWS: usize = 512;
/// Connection 0 of the bulk client reloads after this many of its own
/// requests.
const RELOAD_EVERY: usize = 8;
/// Share of a `fit_highdim` run spent fitting; the rest serves the last
/// fitted pool in bulk.
const FIT_SHARE: f64 = 0.75;
/// Idle reloads after the `fit_highdim` bulk phase.
const IDLE_RELOADS: usize = 5;

pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: Vec<(&'static str, f64)>,
    pub per_layer: Vec<(&'static str, f64)>,
    pub samples: Vec<(String, Summary)>,
}

pub fn run(name: &str, ctx: &Ctx) -> Result<Outcome, String> {
    match name {
        "fit_highdim" => fit_highdim(ctx),
        "serve_bulk_reload" => serve_bulk_reload(ctx),
        other => Err(format!(
            "unknown workload `{other}` (expected one of {})",
            WORKLOADS.join(", ")
        )),
    }
}

/// Counts and samples gathered over a run, turned into an [`Outcome`].
#[derive(Default)]
struct Acc {
    setup_s: Vec<f64>,
    fit_s: Vec<f64>,
    fit_traced_s: Vec<f64>,
    save_s: Vec<f64>,
    load_s: Vec<f64>,
    predict_rows_per_s: Vec<f64>,
    /// Offline fit -> save -> load -> score cycles, for `attempted`.
    offline_ops: u64,
    /// Cycles whose scores disagree between the fitted, loaded and
    /// observed paths.
    offline_failed: u64,
    traced_fits: usize,
    traced_rows: usize,
    /// Neighbour-cache hits and misses over the traced fits.
    cache: (u64, u64),
    tally: Tally,
}

impl Acc {
    fn add_cycle(&mut self, ctx: &Ctx, c: &Cycle, rows: usize) {
        let traced = ctx.tracer.as_ref().is_some_and(|t| t.is_enabled());
        if traced {
            self.fit_traced_s.push(c.fit_s);
            self.traced_fits += 1;
            self.cache.0 += c.cache_hits;
            self.cache.1 += c.cache_misses;
        } else {
            self.fit_s.push(c.fit_s);
        }
        self.save_s.push(c.save_s);
        self.load_s.push(c.load_s);
        self.predict_rows_per_s
            .extend(c.predict_s.iter().map(|s| rows as f64 / s));
        self.offline_ops += 1;
        self.offline_failed += u64::from(c.mismatches > 0);
        self.traced_rows += c.traced_rows;
    }

    /// Untraced fit times, or the traced ones when a traced run has no
    /// untraced fit.
    fn fit_times(&self) -> &[f64] {
        if self.fit_s.is_empty() {
            &self.fit_traced_s
        } else {
            &self.fit_s
        }
    }
}

/// Turns a run's counts, the bulk phase and the server's report into the
/// end-to-end metrics and, when tracing, the per-layer ones.
fn finish(
    ctx: &Ctx,
    mut acc: Acc,
    ds: &Dataset,
    last: &LastPool,
    server: &Server,
    requests: &Requests,
    bulk: &BulkResult,
) -> Result<Outcome, String> {
    acc.tally.merge(&bulk.tally);
    let (roc_auc, p_at_n) = accuracy(&ds.y, &last.scores)?;
    let attempted = acc.offline_ops + acc.tally.attempted();
    let failed = acc.offline_failed + acc.tally.failed();
    let fail_frac = failed as f64 / attempted.max(1) as f64;
    let correct = acc.offline_failed == 0
        && acc.tally.mismatch == 0
        && acc.tally.dropped == 0
        && acc.tally.error == 0;

    let fit_times = acc.fit_times().to_vec();
    let latency_us = bulk.latency_us();
    let mut samples = Vec::new();
    for (name, xs) in [
        ("setup_s", &acc.setup_s),
        ("fit_s", &fit_times),
        ("fit_traced_s", &acc.fit_traced_s),
        ("save_s", &acc.save_s),
        ("load_s", &acc.load_s),
        ("predict_rows_per_s", &acc.predict_rows_per_s),
        ("reload_s", &bulk.reload_s),
        ("bulk_latency_us", &latency_us),
    ] {
        if !xs.is_empty() {
            samples.push((name.to_string(), summarize(xs)));
        }
    }

    let windowed = bulk.windowed();
    let end_to_end = vec![
        ("setup_s", median(&acc.setup_s)),
        ("fit_s", median(&fit_times)),
        ("predict_rows_per_s", median(&acc.predict_rows_per_s)),
        ("roc_auc", roc_auc),
        ("p_at_n", p_at_n),
        ("serve_p50_us", windowed.p50_us),
        ("serve_p90_us", windowed.p90_us),
        ("serve_max_rps", windowed.req_per_s),
        ("serve_rows_per_s", windowed.rows_per_s),
        ("reload_s", median(&bulk.reload_s)),
        ("ok_frac", 1.0 - fail_frac),
        ("peak_rss_mb", peak_rss_mb()),
    ];

    let Some(tracer) = &ctx.tracer else {
        return Ok(Outcome {
            correct,
            attempted,
            failed,
            end_to_end,
            per_layer: Vec::new(),
            samples,
        });
    };
    // Tracing overhead: traced over untraced fit time where a run has
    // both, else bulk throughput untraced over traced.
    let overhead_frac = if !acc.fit_s.is_empty() && !acc.fit_traced_s.is_empty() {
        median(&acc.fit_traced_s) / median(&acc.fit_s) - 1.0
    } else if bulk.split_secs[0] > 0.0 && bulk.split_rows[1] > 0 {
        let untraced = bulk.split_rows[0] as f64 / bulk.split_secs[0];
        let traced = bulk.split_rows[1] as f64 / bulk.split_secs[1];
        untraced / traced - 1.0
    } else {
        0.0
    };
    let report = server.report();
    let (encode_us, decode_us, frame_bytes) = codec_micro(
        ctx,
        &requests.frames[0],
        &requests.expected[0]
            .iter()
            .map(|&b| f64::from_bits(b))
            .collect::<Vec<f64>>(),
    );
    let per_layer = attribute(LayerInput {
        tracer,
        approximated: &last.approximated,
        traced_fits: acc.traced_fits,
        traced_rows: acc.traced_rows + bulk.split_rows[1] as usize,
        snapshot_bytes: last.snapshot.len(),
        direct: vec![
            (
                "linalg.cache_hit_ratio",
                acc.cache.0 as f64 / (acc.cache.0 + acc.cache.1).max(1) as f64,
            ),
            ("serve.batches", report.batches as f64),
            (
                "serve.rows_per_batch",
                report.rows_scored as f64 / report.batches.max(1) as f64,
            ),
            ("serve.queue_depth_p90", quantile(&bulk.queue_depth, 0.9)),
            ("serve.p99_us", quantile(&latency_us, 0.99)),
            ("wire.encode_us", encode_us),
            ("wire.decode_us", decode_us),
            ("wire.bytes_per_request", frame_bytes),
            ("net.busy_queue", acc.tally.busy_queue as f64),
            ("net.busy_quota", acc.tally.busy_quota as f64),
            ("net.busy_lane", acc.tally.busy_lane as f64),
            ("observe.overhead_frac", overhead_frac),
            ("harness.fail_frac", fail_frac),
        ],
    });
    Ok(Outcome {
        correct,
        attempted,
        failed,
        end_to_end,
        per_layer,
        samples,
    })
}

/// The parts of the last fitted pool a workload keeps after handing the
/// loaded pool to a server.
struct LastPool {
    scores: Vec<f64>,
    snapshot: Vec<u8>,
    approximated: Vec<bool>,
}

impl LastPool {
    fn take(c: Cycle) -> (Self, suod::Suod) {
        (
            LastPool {
                scores: c.scores,
                snapshot: c.snapshot,
                approximated: c.approximated,
            },
            c.loaded,
        )
    }
}

fn client_conns() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |p| p.get())
        .min(2)
}

/// Closed loop, one caller: fit the pool on the `musk` analog, save,
/// load and score it, over and over; then serve the last pool in bulk
/// for the rest of the run.
fn fit_highdim(ctx: &Ctx) -> Result<Outcome, String> {
    let mut acc = Acc::default();
    let mut ds = None;
    for rep in 0..ctx.setups {
        let start = if rep == 0 {
            ctx.process_start
        } else {
            Instant::now()
        };
        ds = Some(dataset(FIT_DATASET.0, ctx.seed, FIT_DATASET.1 * ctx.scale)?);
        acc.setup_s.push(start.elapsed().as_secs_f64());
    }
    let ds = ds.expect("at least one set-up");

    let fit_until = Instant::now() + Duration::from_secs_f64(ctx.seconds * FIT_SHARE);
    let mut last = None;
    let mut k = 0usize;
    while last.is_none() || Instant::now() < fit_until {
        // A traced run alternates traced and untraced fits so that the
        // tracing overhead can be read off the same process.
        ctx.set_tracing(k.is_multiple_of(2));
        // Free the previous pool first so that it does not add to the
        // memory high-water mark of the next fit.
        drop(last.take());
        let c = cycle(ctx, &ds.x, PREDICT_REPS)?;
        acc.add_cycle(ctx, &c, ds.x.nrows());
        last = Some(c);
        k += 1;
    }
    ctx.set_tracing(true);
    let (last, loaded) = LastPool::take(last.expect("at least one fit"));

    // Serve the last pool in bulk, then reload it a few times while idle;
    // reloads under load would make this short phase noisy.
    let server = Server::start(ctx, loaded)?;
    let requests = Requests::new(&ds.x, &last.scores, BULK_ROWS, ctx.seed)?;
    let secs = ctx.seconds * (1.0 - FIT_SHARE);
    let mut bulk = closed_loop(ctx, &server, &requests, client_conns(), secs, None)?;
    for _ in 0..IDLE_RELOADS {
        bulk.reload_s.push(server.reload(ctx, &last.snapshot)?);
    }
    finish(ctx, acc, &ds, &last, &server, &requests, &bulk)
}

/// Closed loop: set up the `cardio` pool behind the service `ctx.setups`
/// times (generate, fit, save, load, score offline, start), then up to
/// two connections send 512-row requests back to back while connection 0
/// hot-reloads the pool every few requests.
fn serve_bulk_reload(ctx: &Ctx) -> Result<Outcome, String> {
    let mut acc = Acc::default();
    let mut kept = None;
    for rep in 0..ctx.setups {
        let start = if rep == 0 {
            ctx.process_start
        } else {
            Instant::now()
        };
        // Stop the previous server, and free its pool, before the next fit.
        drop(kept.take());
        let ds = dataset(SERVE_DATASET.0, ctx.seed, SERVE_DATASET.1 * ctx.scale)?;
        let c = cycle(ctx, &ds.x, PREDICT_REPS)?;
        acc.add_cycle(ctx, &c, ds.x.nrows());
        let (last, loaded) = LastPool::take(c);
        let server = Server::start(ctx, loaded)?;
        acc.setup_s.push(start.elapsed().as_secs_f64());
        kept = Some((ds, last, server));
    }
    let (ds, last, server) = kept.expect("at least one set-up");
    let requests = Requests::new(&ds.x, &last.scores, BULK_ROWS, ctx.seed)?;
    let reload = Some((RELOAD_EVERY, last.snapshot.as_slice()));
    let bulk = closed_loop(ctx, &server, &requests, client_conns(), ctx.seconds, reload)?;
    finish(ctx, acc, &ds, &last, &server, &requests, &bulk)
}
