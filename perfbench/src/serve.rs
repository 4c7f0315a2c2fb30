//! Serving machinery shared by the workloads: a `ScoreService` behind
//! `serve_front` on loopback, request sets with their offline reference
//! bits, and a closed-loop bulk client with hot reloads beside it.

use crate::pool::{bits, shuffled, Ctx};
use crate::stats::{median, quantile};
use std::io::{BufReader, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};
use suod::Suod;
use suod_linalg::Matrix;
use suod_serve::wire::{read_response, write_request, write_response};
use suod_serve::{
    serve_front, BusyReason, FrontConfig, FrontReport, Lane, ScoreService, ServeConfig,
    ServeReport, SystemClock, WireRequest, WireResponse,
};

/// How long a client waits for a response before counting it dropped.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(60);

/// Outcomes of answered and unanswered requests, as the client saw them.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub ok: u64,
    pub ok_rows: u64,
    pub busy_queue: u64,
    pub busy_quota: u64,
    pub busy_lane: u64,
    pub shed: u64,
    pub error: u64,
    pub dropped: u64,
    /// `ok` responses whose scores differ from offline scoring.
    pub mismatch: u64,
}

impl Tally {
    pub fn attempted(&self) -> u64 {
        self.ok + self.failed()
    }

    pub fn failed(&self) -> u64 {
        self.busy_queue
            + self.busy_quota
            + self.busy_lane
            + self.shed
            + self.error
            + self.dropped
            + self.mismatch
    }

    pub fn merge(&mut self, o: &Tally) {
        self.ok += o.ok;
        self.ok_rows += o.ok_rows;
        self.busy_queue += o.busy_queue;
        self.busy_quota += o.busy_quota;
        self.busy_lane += o.busy_lane;
        self.shed += o.shed;
        self.error += o.error;
        self.dropped += o.dropped;
        self.mismatch += o.mismatch;
    }

    /// Counts one response; returns whether it was a bit-exact `ok`.
    fn record(&mut self, response: &WireResponse, expected: &[u64]) -> bool {
        match response {
            WireResponse::Ok { scores, .. } => {
                if bits(scores) == expected {
                    self.ok += 1;
                    self.ok_rows += expected.len() as u64;
                    return true;
                }
                self.mismatch += 1;
            }
            WireResponse::Busy { reason, .. } => match reason {
                BusyReason::Queue => self.busy_queue += 1,
                BusyReason::Quota => self.busy_quota += 1,
                BusyReason::Lane => self.busy_lane += 1,
            },
            WireResponse::Shed { .. } => self.shed += 1,
            WireResponse::Error { .. } => self.error += 1,
        }
        false
    }
}

/// A fixed set of requests built from dataset rows, with the offline
/// reference bits every `ok` response must reproduce.
pub struct Requests {
    pub frames: Vec<WireRequest>,
    pub expected: Vec<Vec<u64>>,
}

impl Requests {
    /// Splits the rows of `x`, in an order drawn from `seed`, into
    /// requests of `rows` rows (wrapping around at the end). `scores` are
    /// the offline combined scores of every row of `x`.
    pub fn new(x: &Matrix, scores: &[f64], rows: usize, seed: u64) -> Result<Self, String> {
        let order = shuffled(x.nrows(), seed);
        let count = x.nrows().div_ceil(rows);
        let mut frames = Vec::with_capacity(count);
        let mut expected = Vec::with_capacity(count);
        for q in 0..count {
            let idx: Vec<usize> = (0..rows)
                .map(|i| order[(q * rows + i) % order.len()])
                .collect();
            let data: Vec<Vec<f64>> = idx.iter().map(|&r| x.row(r).to_vec()).collect();
            frames.push(WireRequest {
                id: 0,
                lane: Lane::Normal,
                deadline_ms: None,
                rows: Matrix::from_rows(&data).map_err(|e| format!("request rows: {e}"))?,
            });
            expected.push(idx.iter().map(|&r| scores[r].to_bits()).collect());
        }
        Ok(Requests { frames, expected })
    }
}

/// A service ready to be fronted on loopback.
pub struct Server {
    pub service: ScoreService,
    pub listener: TcpListener,
    pub addr: String,
}

impl Server {
    pub fn start(ctx: &Ctx, clf: Suod) -> Result<Self, String> {
        let mut service = ScoreService::with_parts(
            clf,
            ServeConfig::default(),
            Arc::new(SystemClock::new()),
            ctx.observer(),
        )
        .map_err(|e| format!("ScoreService: {e}"))?;
        service.spawn_dispatcher();
        let listener =
            TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind loopback: {e}"))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("local addr: {e}"))?
            .to_string();
        Ok(Server {
            service,
            listener,
            addr,
        })
    }

    /// Runs `clients` against the front end, which serves exactly
    /// `conns` connections and then returns its report.
    fn front<T>(
        &self,
        ctx: &Ctx,
        conns: usize,
        clients: impl FnOnce() -> T,
    ) -> Result<(T, FrontReport), String> {
        let config = FrontConfig {
            worker_threads: conns,
            max_conns: conns,
            ..FrontConfig::default()
        };
        let observer = ctx.observer();
        std::thread::scope(|s| {
            let front = s.spawn(|| serve_front(&self.listener, &self.service, &config, &observer));
            let out = clients();
            let report = front
                .join()
                .map_err(|_| "front end panicked".to_string())?
                .map_err(|e| format!("front end: {e}"))?;
            Ok((out, report))
        })
    }

    /// `load_from_bytes` + `ScoreService::reload` of the same snapshot;
    /// returns the wall seconds of both.
    pub fn reload(&self, ctx: &Ctx, snapshot: &[u8]) -> Result<f64, String> {
        let (clf, load_s) = ctx.timed("load_from_bytes", || Suod::load_from_bytes(snapshot));
        let clf = clf.map_err(|e| format!("load_from_bytes: {e}"))?;
        let (report, swap_s) = ctx.timed("reload", || self.service.reload(clf));
        report.map_err(|e| format!("reload: {e}"))?;
        Ok(load_s + swap_s)
    }

    pub fn report(&self) -> ServeReport {
        self.service.report()
    }
}

fn connect(addr: &str) -> Result<(TcpStream, BufReader<TcpStream>), String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let _ = stream.set_nodelay(true);
    stream
        .set_read_timeout(Some(RESPONSE_TIMEOUT))
        .map_err(|e| format!("read timeout: {e}"))?;
    let reader = BufReader::new(
        stream
            .try_clone()
            .map_err(|e| format!("clone socket: {e}"))?,
    );
    Ok((stream, reader))
}

/// Length of the windows the bulk figures are taken over.
const WINDOW_S: f64 = 1.0;

/// One answered (or failed) request of the bulk client.
#[derive(Debug, Clone, Copy)]
pub struct Completion {
    /// Seconds from the start of the phase to the response.
    pub at_s: f64,
    /// Send-to-response latency; infinite for a failed request.
    pub latency_us: f64,
    /// Rows answered `ok` (0 for a failed request).
    pub rows: u64,
}

/// Medians over the windows of a bulk phase.
#[derive(Debug, Clone, Copy)]
pub struct Windowed {
    pub p50_us: f64,
    pub p90_us: f64,
    pub req_per_s: f64,
    pub rows_per_s: f64,
}

#[derive(Debug, Default)]
pub struct BulkResult {
    pub tally: Tally,
    pub completions: Vec<Completion>,
    pub wall_s: f64,
    pub reload_s: Vec<f64>,
    /// Rows answered `ok` and seconds spent, untraced then traced, for
    /// the tracing-overhead comparison of a traced run.
    pub split_rows: [u64; 2],
    pub split_secs: [f64; 2],
    /// Admission-queue depth sampled before each send (traced runs).
    pub queue_depth: Vec<f64>,
}

impl BulkResult {
    pub fn latency_us(&self) -> Vec<f64> {
        self.completions.iter().map(|c| c.latency_us).collect()
    }

    /// Splits the phase into windows of about [`WINDOW_S`] by completion
    /// time and takes the median over windows of each window's latency
    /// p50 and p90 and its `ok` request and row rates. A burst of lost
    /// CPU in part of the phase then moves these figures less than the
    /// phase-wide ones.
    pub fn windowed(&self) -> Windowed {
        let n = ((self.wall_s / WINDOW_S) as usize).max(1);
        let len = self.wall_s.max(1e-9) / n as f64;
        let mut latencies = vec![Vec::new(); n];
        let mut requests = vec![0u64; n];
        let mut rows = vec![0u64; n];
        for c in &self.completions {
            let w = ((c.at_s / len) as usize).min(n - 1);
            latencies[w].push(c.latency_us);
            if c.rows > 0 {
                requests[w] += 1;
                rows[w] += c.rows;
            }
        }
        let busy: Vec<&Vec<f64>> = latencies.iter().filter(|l| !l.is_empty()).collect();
        let per_s =
            |counts: &[u64]| -> Vec<f64> { counts.iter().map(|&k| k as f64 / len).collect() };
        Windowed {
            p50_us: median(&busy.iter().map(|l| median(l)).collect::<Vec<_>>()),
            p90_us: median(&busy.iter().map(|l| quantile(l, 0.9)).collect::<Vec<_>>()),
            req_per_s: median(&per_s(&requests)),
            rows_per_s: median(&per_s(&rows)),
        }
    }
}

/// `conns` keep-alive connections each send requests back to back for
/// `secs` seconds. With `reload`, every `.0` of its own requests
/// connection 0 reloads the served pool from the snapshot bytes `.1`. In
/// a traced run the first half runs untraced and the second traced.
pub fn closed_loop(
    ctx: &Ctx,
    server: &Server,
    requests: &Requests,
    conns: usize,
    secs: f64,
    reload: Option<(usize, &[u8])>,
) -> Result<BulkResult, String> {
    let split = ctx.tracer.is_some();
    ctx.set_tracing(!split);
    let start = Instant::now();
    let half = start + Duration::from_secs_f64(secs / 2.0);
    let deadline = start + Duration::from_secs_f64(secs);
    let (outcome, _front) = server.front(ctx, conns, || {
        std::thread::scope(|s| {
            let clients: Vec<_> = (0..conns)
                .map(|c| {
                    s.spawn(move || -> Result<(BulkResult, Instant), String> {
                        let mut out = BulkResult::default();
                        let (mut writer, mut reader) = connect(&server.addr)?;
                        let mut frames = requests.frames.clone();
                        let mut k = 0usize;
                        let mut last = Instant::now();
                        while Instant::now() < deadline {
                            let query = (k * conns + c) % frames.len();
                            k += 1;
                            let frame = &mut frames[query];
                            frame.id = k as u64;
                            let traced = ctx.tracer.as_ref().is_some_and(|t| t.is_enabled());
                            if ctx.tracer.is_some() {
                                out.queue_depth.push(server.service.queue_depth() as f64);
                            }
                            let sent = Instant::now();
                            let (w, _) =
                                ctx.timed("write_request", || write_request(&mut writer, frame));
                            w.and_then(|_| writer.flush())
                                .map_err(|e| format!("write_request: {e}"))?;
                            let (r, _) = ctx.timed("read_response", || read_response(&mut reader));
                            last = Instant::now();
                            let mut done = Completion {
                                at_s: (last - start).as_secs_f64(),
                                latency_us: f64::INFINITY,
                                rows: 0,
                            };
                            let alive = match r {
                                Ok(Some(r)) if r.id() == frame.id => {
                                    if out.tally.record(&r, &requests.expected[query]) {
                                        done.latency_us = (last - sent).as_secs_f64() * 1e6;
                                        done.rows = requests.expected[query].len() as u64;
                                        out.split_rows[usize::from(traced)] += done.rows;
                                    }
                                    true
                                }
                                Ok(Some(_)) => {
                                    out.tally.error += 1;
                                    true
                                }
                                _ => {
                                    out.tally.dropped += 1;
                                    false
                                }
                            };
                            out.completions.push(done);
                            if !alive {
                                break;
                            }
                            match reload {
                                Some((every, snapshot)) if c == 0 && k.is_multiple_of(every) => {
                                    out.reload_s.push(server.reload(ctx, snapshot)?);
                                }
                                _ => {}
                            }
                        }
                        let _ = writer.shutdown(Shutdown::Write);
                        Ok((out, last))
                    })
                })
                .collect();
            if split {
                let now = Instant::now();
                if half > now {
                    std::thread::sleep(half - now);
                }
                ctx.set_tracing(true);
            }
            let mut total = BulkResult::default();
            let mut end = start;
            for client in clients {
                let (out, last) = client.join().map_err(|_| "client panicked".to_string())??;
                total.tally.merge(&out.tally);
                total.completions.extend(out.completions);
                total.reload_s.extend(out.reload_s);
                total.split_rows[0] += out.split_rows[0];
                total.split_rows[1] += out.split_rows[1];
                total.queue_depth.extend(out.queue_depth);
                end = end.max(last);
            }
            total.wall_s = (end - start).as_secs_f64();
            if split {
                total.split_secs = [
                    (half - start).as_secs_f64(),
                    (end.max(half) - half).as_secs_f64(),
                ];
            }
            Ok::<_, String>(total)
        })
    })?;
    ctx.set_tracing(true);
    outcome
}

/// Median microseconds to encode `request` with `write_request`, to decode
/// an `ok` response carrying `scores` with `read_response`, and the
/// request frame's size in bytes. Both run on in-memory buffers.
pub fn codec_micro(ctx: &Ctx, request: &WireRequest, scores: &[f64]) -> (f64, f64, f64) {
    const REPS: usize = 200;
    let mut buf = Vec::new();
    let mut encode = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        buf.clear();
        let (_, secs) = ctx.timed("write_request", || write_request(&mut buf, request));
        encode.push(secs * 1e6);
    }
    let frame_bytes = buf.len() as f64;
    let mut response = Vec::new();
    let ok = WireResponse::Ok {
        id: request.id,
        scores: scores.to_vec(),
        healthy_models: 12,
        total_models: 12,
        latency_ms: 1,
    };
    write_response(&mut response, &ok).expect("in-memory write");
    let mut decode = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let mut slice: &[u8] = &response;
        let (_, secs) = ctx.timed("read_response", || read_response(&mut slice));
        decode.push(secs * 1e6);
    }
    (median(&encode), median(&decode), frame_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windowed_figures_are_medians_over_windows() {
        // Three one-second windows; the middle one stalls.
        let mut bulk = BulkResult {
            wall_s: 3.0,
            ..BulkResult::default()
        };
        for (start, latency_us, n) in [(0.0, 100.0, 10), (1.0, 5000.0, 2), (2.0, 120.0, 10)] {
            for i in 0..n {
                bulk.completions.push(Completion {
                    at_s: start + (i as f64 + 0.5) / n as f64,
                    latency_us,
                    rows: 8,
                });
            }
        }
        let w = bulk.windowed();
        assert_eq!(w.req_per_s, 10.0);
        assert_eq!(w.rows_per_s, 80.0);
        assert_eq!(w.p50_us, 120.0);
        assert_eq!(w.p90_us, 120.0);
    }
}
