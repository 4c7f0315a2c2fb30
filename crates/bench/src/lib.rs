//! Shared infrastructure for the SUOD reproduction harness.
//!
//! Each paper table/figure has a `bin` target that prints paper-style
//! rows and writes CSV under `target/experiments/`. The binaries share
//! the helpers here: experiment-scale flags, CSV emission, timing, and a
//! tiny evaluation struct.
//!
//! | Binary | Reproduces |
//! |---|---|
//! | `table1` | Table 1 — projection methods × detectors × datasets |
//! | `fig3` | Figure 3 — decision surfaces, detectors vs approximators |
//! | `table2` | Table 2 + Table C.1 — Orig vs Appr ROC / P@N |
//! | `table3` | Table 3 — Generic vs BPS training makespans |
//! | `table4` | Table 4 — full-system time + accuracy |
//! | `cost_predictor_cv` | §3.5 — cost-predictor Spearman CV |
//! | `iqvia_case` | §4.5 — claims deployment case |
//! | `ablation` | extension — per-module ablation |

use std::fs;
use std::io::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// Experiment scale, parsed from CLI args.
///
/// * default — CI-friendly sizes (minutes on one core);
/// * `--quick` — smoke-test sizes (seconds);
/// * `--paper-scale` — the paper's full sizes (hours on one core).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-long smoke test.
    Quick,
    /// Default reduced scale.
    Default,
    /// The paper's full experiment sizes.
    Paper,
}

impl Scale {
    /// Parses the scale from `std::env::args`.
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().collect();
        if args.iter().any(|a| a == "--paper-scale") {
            Scale::Paper
        } else if args.iter().any(|a| a == "--quick") {
            Scale::Quick
        } else {
            Scale::Default
        }
    }

    /// Picks one of three values by scale.
    pub fn pick<T>(&self, quick: T, default: T, paper: T) -> T {
        match self {
            Scale::Quick => quick,
            Scale::Default => default,
            Scale::Paper => paper,
        }
    }
}

/// Where experiment CSVs land.
pub fn experiments_dir() -> PathBuf {
    let dir =
        PathBuf::from(std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string()))
            .join("experiments");
    fs::create_dir_all(&dir).expect("create target/experiments");
    dir
}

/// A CSV sink: header written once, rows appended.
pub struct CsvSink {
    path: PathBuf,
    file: fs::File,
}

impl CsvSink {
    /// Creates (truncates) `target/experiments/<name>.csv` with a header.
    pub fn create(name: &str, header: &str) -> Self {
        let path = experiments_dir().join(format!("{name}.csv"));
        let mut file = fs::File::create(&path).expect("create csv");
        writeln!(file, "{header}").expect("write header");
        Self { path, file }
    }

    /// Appends one row.
    pub fn row(&mut self, row: &str) {
        writeln!(self.file, "{row}").expect("write row");
    }

    /// The sink's path (for the final summary line).
    pub fn path(&self) -> &PathBuf {
        &self.path
    }
}

/// Times a closure, returning `(result, seconds)`.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Best (minimum) wall time in seconds of `reps` runs of `f` — achievable
/// speed rather than scheduler noise. Runs at least once.
pub fn min_time(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

/// Short git revision of the working tree, recorded in every `BENCH_*.json`
/// for provenance; `"unknown"` outside a git checkout.
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Cores this process may run on, recorded in every `BENCH_*.json` so a
/// reader can tell a single-core timing from a parallel one.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// Formats a fraction as a percentage string with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}", 100.0 * x)
}

/// Mean of a slice (0 for empty) — tiny local helper for trial averaging.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_pick() {
        assert_eq!(Scale::Quick.pick(1, 2, 3), 1);
        assert_eq!(Scale::Default.pick(1, 2, 3), 2);
        assert_eq!(Scale::Paper.pick(1, 2, 3), 3);
    }

    #[test]
    fn csv_sink_writes() {
        let mut sink = CsvSink::create("unit_test_sink", "a,b");
        sink.row("1,2");
        let content = std::fs::read_to_string(sink.path()).unwrap();
        assert!(content.starts_with("a,b\n1,2"));
    }

    #[test]
    fn timed_returns_result() {
        let (v, secs) = timed(|| 40 + 2);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
    }

    #[test]
    fn min_time_runs_at_least_once() {
        let mut runs = 0;
        let secs = min_time(0, || runs += 1);
        assert_eq!(runs, 1);
        assert!(secs.is_finite() && secs >= 0.0);
    }

    #[test]
    fn min_time_keeps_the_fastest_rep() {
        let mut runs = 0;
        let secs = min_time(3, || {
            if runs == 0 {
                std::thread::sleep(std::time::Duration::from_millis(30));
            }
            runs += 1;
        });
        assert_eq!(runs, 3);
        assert!(secs < 0.03, "the slow first rep was kept: {secs}");
    }

    #[test]
    fn pct_and_mean() {
        assert_eq!(pct(0.5), "50.0");
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
    }
}
