//! End-to-end benchmark of the SUOD workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fit_highdim|serve_bulk_reload> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --selftest
//! ```
//!
//! A run prints a report line (provenance, sample counts, medians and
//! tails) and then, as its last line, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: every end-to-end metric with
//! `--trace 0`, every per-layer metric with `--trace 1`. It exits 1 when
//! any output fails its correctness check and 2 on bad arguments.
//! `--selftest` runs every workload briefly, traced and untraced, and
//! checks the emitted names and units against `BENCHMARK.json`.

mod layers;
mod pool;
mod serve;
mod stats;
mod trace;
mod workloads;

use pool::Ctx;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;
use suod_observe::json::{self, write_escaped, Value};
use workloads::{Outcome, WORKLOADS};

/// Every end-to-end metric, with its unit, in output order.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("fit_s", "s"),
    ("predict_rows_per_s", "rows/s"),
    ("roc_auc", "ratio"),
    ("p_at_n", "ratio"),
    ("serve_p50_us", "us"),
    ("serve_p90_us", "us"),
    ("serve_max_rps", "req/s"),
    ("serve_rows_per_s", "rows/s"),
    ("reload_s", "s"),
    ("ok_frac", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Every per-layer metric, with its unit, in output order.
const PER_LAYER: &[(&str, &str)] = &[
    ("projection.busy_s", "s/fit"),
    ("linalg.neighbor_build_s", "s/fit"),
    ("linalg.neighbor_query_s", "s/fit"),
    ("linalg.cache_hit_ratio", "ratio"),
    ("detectors.fit_busy_s", "s/fit"),
    ("detectors.fit_max_s", "s"),
    ("detectors.retries", "count"),
    ("detectors.predict_s", "s/krow"),
    ("supervised.distill_busy_s", "s/fit"),
    ("supervised.distill_serial_s", "s/fit"),
    ("supervised.predict_s", "s/krow"),
    ("scheduler.bps_plan_s", "s/fit"),
    ("scheduler.task_busy_s", "s/fit"),
    ("scheduler.worker_idle_frac", "ratio"),
    ("scheduler.steals", "count"),
    ("scheduler.stragglers", "count"),
    ("core.fit_serial_s", "s/fit"),
    ("core.threshold_s", "s/fit"),
    ("core.predict_s", "s/krow"),
    ("core.save_s", "s"),
    ("core.load_s", "s"),
    ("core.snapshot_bytes", "bytes"),
    ("serve.batches", "count"),
    ("serve.rows_per_batch", "rows"),
    ("serve.batch_assemble_s", "s/batch"),
    ("serve.combine_s", "s/batch"),
    ("serve.queue_depth_p90", "requests"),
    ("serve.reload_swap_s", "s"),
    ("serve.p99_us", "us"),
    ("wire.encode_us", "us"),
    ("wire.decode_us", "us"),
    ("wire.bytes_per_request", "bytes"),
    ("net.wire_request_us", "us"),
    ("net.busy_queue", "count"),
    ("net.busy_quota", "count"),
    ("net.busy_lane", "count"),
    ("observe.overhead_frac", "ratio"),
    ("trace.coverage", "ratio"),
    ("harness.fail_frac", "ratio"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds.is_finite() && seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (expected one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn ctx_for(args: &Args, scale: f64, setups: usize, start: Instant) -> Ctx {
    Ctx {
        seed: args.seed,
        seconds: args.seconds,
        scale,
        setups,
        tracer: args.trace.then(trace::Tracer::new),
        process_start: start,
    }
}

/// Share of the fit wall the program's spans must cover in a traced run
/// (checked by the self-test).
const MIN_FIT_COVERAGE: f64 = 0.95;

/// Set-up repetitions per run; `setup_s` is their median.
const SETUPS: usize = 3;

fn main() -> ExitCode {
    let start = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--selftest") {
        return selftest(start);
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let ctx = ctx_for(&args, 1.0, SETUPS, start);
    match workloads::run(&args.workload, &ctx) {
        Ok(outcome) => {
            println!("{}", report_line(&args, &outcome));
            println!("{}", result_line(&outcome, args.trace));
            if outcome.correct {
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "error: correctness check failed ({} of {} operations failed)",
                    outcome.failed, outcome.attempted
                );
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("error: {}: {e}", args.workload);
            ExitCode::from(1)
        }
    }
}

fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        // JSON has no infinity; a latency over every failed request is
        // reported as this ceiling and the run is already marked failed.
        "1e12".to_string()
    }
}

/// The final line: the declared `metrics`, in order, with their values.
fn result_line(outcome: &Outcome, trace: bool) -> String {
    let (metrics, values) = if trace {
        (PER_LAYER, &outcome.per_layer)
    } else {
        (END_TO_END, &outcome.end_to_end)
    };
    let mut body = String::new();
    for (i, (name, unit)) in metrics.iter().enumerate() {
        let value = values
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |&(_, v)| v);
        if i > 0 {
            body.push_str(", ");
        }
        let _ = write!(
            body,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            number(value)
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        outcome.correct,
        outcome.attempted.max(1),
        outcome.failed
    )
}

/// Git revision of the checkout, read from `.git` without running git;
/// "unknown" outside a git checkout.
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(&format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn report_line(args: &Args, outcome: &Outcome) -> String {
    let lane = suod_linalg::SimdLane::detect();
    let avx2 = suod_linalg::SimdLane::supported() == suod_linalg::SimdLane::Avx2;
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let mut s = String::from("{\"report\": {\"workload\": ");
    write_escaped(&mut s, &args.workload);
    s.push_str(", \"git_rev\": ");
    write_escaped(&mut s, &git_rev());
    let _ = write!(
        s,
        ", \"nproc\": {cores}, \"simd_lane\": \"{lane}\", \"avx2_fma\": {avx2}, \
         \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"samples\": {{",
        args.seed, args.seconds, args.trace,
    );
    for (i, (name, sum)) in outcome.samples.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        write_escaped(&mut s, name);
        let _ = write!(
            s,
            ": {{\"n\": {}, \"p50\": {}, \"p90\": {}, \"{}\": {}}}",
            sum.n,
            number(sum.p50),
            number(sum.p90),
            sum.tail_label,
            number(sum.tail)
        );
    }
    s.push_str("}}}");
    s
}

/// Reads `(name, unit)` of each entry of `BENCHMARK.json`'s `key` array.
fn declared(doc: &Value, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(Value::as_array)
        .unwrap_or(&[])
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Value::as_str).unwrap_or("").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn benchmark_json() -> Result<Value, String> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string("BENCHMARK.json")
        .or_else(|_| std::fs::read_to_string(&path))
        .map_err(|e| format!("cannot read BENCHMARK.json: {e}"))?;
    json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e:?}"))
}

/// Runs every workload briefly, untraced and traced, and checks that the
/// emitted metrics are exactly those `BENCHMARK.json` declares, each with
/// its unit and a finite value.
fn selftest(start: Instant) -> ExitCode {
    let mut problems: Vec<String> = Vec::new();
    match benchmark_json() {
        Ok(doc) => {
            let want = |list: &[(&str, &str)]| -> Vec<(String, String)> {
                list.iter()
                    .map(|(n, u)| (n.to_string(), u.to_string()))
                    .collect()
            };
            if declared(&doc, "end_to_end") != want(END_TO_END) {
                problems.push("end_to_end names/units differ from BENCHMARK.json".into());
            }
            if declared(&doc, "per_layer") != want(PER_LAYER) {
                problems.push("per_layer names/units differ from BENCHMARK.json".into());
            }
            let names: Vec<String> = doc
                .get("workloads")
                .and_then(Value::as_array)
                .unwrap_or(&[])
                .iter()
                .filter_map(|w| w.get("name").and_then(Value::as_str).map(str::to_string))
                .collect();
            if names != WORKLOADS {
                problems.push(format!("workloads {names:?} differ from {WORKLOADS:?}"));
            }
        }
        Err(e) => problems.push(e),
    }
    for &workload in WORKLOADS {
        for trace in [false, true] {
            let args = Args {
                workload: workload.to_string(),
                seed: 7,
                seconds: 2.0,
                trace,
            };
            let ctx = ctx_for(&args, 0.25, 1, Instant::now());
            let label = format!("{workload} --trace {}", u8::from(trace));
            let outcome = match workloads::run(workload, &ctx) {
                Ok(o) => o,
                Err(e) => {
                    problems.push(format!("{label}: {e}"));
                    continue;
                }
            };
            let (list, values) = if trace {
                (PER_LAYER, &outcome.per_layer)
            } else {
                (END_TO_END, &outcome.end_to_end)
            };
            let mut emitted: Vec<&str> = values.iter().map(|(n, _)| *n).collect();
            let mut expected: Vec<&str> = list.iter().map(|(n, _)| *n).collect();
            emitted.sort_unstable();
            expected.sort_unstable();
            if emitted != expected {
                problems.push(format!(
                    "{label}: emitted {emitted:?}, declared {expected:?}"
                ));
            }
            if let Some((n, v)) = values.iter().find(|(_, v)| !v.is_finite()) {
                problems.push(format!("{label}: {n} = {v}"));
            }
            if !outcome.correct {
                problems.push(format!("{label}: correctness check failed"));
            }
            let coverage = values
                .iter()
                .find(|(n, _)| *n == "trace.coverage")
                .map_or(1.0, |&(_, v)| v);
            if coverage < MIN_FIT_COVERAGE {
                problems.push(format!(
                    "{label}: spans cover {coverage:.3} of the fit wall (< {MIN_FIT_COVERAGE})"
                ));
            }
            let line = result_line(&outcome, trace);
            if json::parse(&line).is_err() {
                problems.push(format!("{label}: result line is not JSON: {line}"));
            }
            println!("{label}: {line}");
        }
    }
    println!("selftest: {:.1}s", start.elapsed().as_secs_f64());
    if problems.is_empty() {
        println!("selftest: OK");
        ExitCode::SUCCESS
    } else {
        for p in &problems {
            eprintln!("selftest: FAIL: {p}");
        }
        ExitCode::from(1)
    }
}
