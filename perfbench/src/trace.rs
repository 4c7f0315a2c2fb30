//! Tracing for the per-layer run.
//!
//! The program's own spans and counters are collected by the stock
//! [`RecordingObserver`], installed through the public observer hooks.
//! [`Tracer`] wraps it with two things the benchmark needs and the
//! recorder does not keep: the thread each span began on (so a span's
//! self time can be taken from the spans nested inside it on the same
//! thread), and an on/off switch (so one process can time the same
//! operation traced and untraced). The benchmark's own spans around each
//! public call it makes are kept beside the recorder's, on the same
//! clock.

use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use suod_observe::{Counter, Observer, RecordingObserver, SpanAttrs, SpanId, Stage, Trace};

static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static THREAD_TAG: Cell<u64> = const { Cell::new(0) };
}

/// A small dense id for the calling thread.
pub fn thread_tag() -> u64 {
    THREAD_TAG.with(|tag| {
        if tag.get() == 0 {
            tag.set(NEXT_THREAD.fetch_add(1, Ordering::Relaxed));
        }
        tag.get()
    })
}

/// A span the benchmark records around one of its own calls.
#[derive(Debug, Clone)]
pub struct HarnessSpan {
    pub name: &'static str,
    pub thread: u64,
    pub start_us: u64,
    pub end_us: u64,
}

pub struct Tracer {
    recorder: RecordingObserver,
    /// Approximates the recorder's private epoch: taken right before
    /// and after its construction, so the error is below a microsecond.
    epoch: Instant,
    enabled: AtomicBool,
    span_threads: Mutex<Vec<(u64, u64)>>,
    harness: Mutex<Vec<HarnessSpan>>,
}

impl Tracer {
    pub fn new() -> Arc<Self> {
        let before = Instant::now();
        let recorder = RecordingObserver::new();
        let after = Instant::now();
        Arc::new(Tracer {
            recorder,
            epoch: before + (after - before) / 2,
            enabled: AtomicBool::new(true),
            span_threads: Mutex::new(Vec::new()),
            harness: Mutex::new(Vec::new()),
        })
    }

    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::SeqCst);
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    pub fn us_of(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_micros() as u64
    }

    pub fn record_harness(&self, name: &'static str, start: Instant, end: Instant) {
        if !self.is_enabled() {
            return;
        }
        let span = HarnessSpan {
            name,
            thread: thread_tag(),
            start_us: self.us_of(start),
            end_us: self.us_of(end),
        };
        self.harness.lock().expect("harness spans").push(span);
    }

    pub fn trace(&self) -> Trace {
        self.recorder.trace()
    }

    pub fn harness_spans(&self) -> Vec<HarnessSpan> {
        self.harness.lock().expect("harness spans").clone()
    }

    /// Recorder span id -> thread the span began on.
    pub fn span_threads(&self) -> HashMap<u64, u64> {
        self.span_threads
            .lock()
            .expect("span threads")
            .iter()
            .copied()
            .collect()
    }
}

impl Observer for Tracer {
    fn enabled(&self) -> bool {
        self.is_enabled()
    }

    fn span_begin(&self, stage: Stage, attrs: SpanAttrs) -> SpanId {
        if !self.is_enabled() {
            return SpanId::NONE;
        }
        let id = self.recorder.span_begin(stage, attrs);
        self.span_threads
            .lock()
            .expect("span threads")
            .push((id.raw(), thread_tag()));
        id
    }

    fn span_end(&self, id: SpanId) {
        self.recorder.span_end(id);
    }

    fn counter(&self, counter: Counter, delta: u64) {
        if self.is_enabled() {
            self.recorder.counter(counter, delta);
        }
    }
}
