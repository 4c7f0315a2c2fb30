//! Per-layer attribution from a traced run.
//!
//! Layer names follow the workspace crates. A span's self time is its
//! duration minus the part covered by the spans nested directly inside it
//! on the same thread. Serial times are unions over time, not sums:
//! `core.fit_serial_s` is the part of the fit wall during which no
//! executor task runs on any worker.

use crate::pool::FIT_WORKERS;
use crate::stats::{length, median, merge, overlap};
use crate::trace::Tracer;
use suod_observe::{Counter, Stage, Trace};

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Key {
    Stage(Stage),
    Harness(&'static str),
}

struct Node {
    key: Key,
    model: Option<usize>,
    thread: u64,
    start: u64,
    end: u64,
    /// Time covered by directly nested spans; filled by `nest`.
    children: u64,
}

impl Node {
    fn self_us(&self) -> u64 {
        (self.end - self.start).saturating_sub(self.children)
    }
}

/// Assigns every span to its innermost enclosing span on the same thread
/// and accumulates the children's durations on the parent.
fn nest(nodes: &mut [Node]) {
    let mut order: Vec<usize> = (0..nodes.len()).collect();
    // Parents first: earlier start, then longer span, then the harness
    // span that wraps a program span with the same bounds.
    order.sort_by_key(|&i| {
        let n = &nodes[i];
        (
            n.thread,
            n.start,
            std::cmp::Reverse(n.end),
            matches!(n.key, Key::Stage(_)),
        )
    });
    let mut stack: Vec<usize> = Vec::new();
    let mut thread = u64::MAX;
    for i in order {
        if nodes[i].thread != thread {
            thread = nodes[i].thread;
            stack.clear();
        }
        while let Some(&top) = stack.last() {
            if nodes[i].start >= nodes[top].end || nodes[i].end > nodes[top].end {
                stack.pop();
            } else {
                break;
            }
        }
        if let Some(&parent) = stack.last() {
            nodes[parent].children += nodes[i].end - nodes[i].start;
        }
        stack.push(i);
    }
}

/// Everything the workload measured outside the trace.
pub struct LayerInput<'a> {
    pub tracer: &'a Tracer,
    /// Per surviving model: served by a PSA regressor.
    pub approximated: &'a [bool],
    /// Fits recorded while tracing was on.
    pub traced_fits: usize,
    /// Rows scored (offline and served) while tracing was on.
    pub traced_rows: usize,
    pub snapshot_bytes: usize,
    /// Values the workload measured directly (client-side latencies,
    /// service reports, codec timings).
    pub direct: Vec<(&'static str, f64)>,
}

pub fn attribute(input: LayerInput) -> Vec<(&'static str, f64)> {
    let trace: Trace = input.tracer.trace();
    let threads = input.tracer.span_threads();
    let mut nodes: Vec<Node> = trace
        .spans()
        .iter()
        .map(|s| Node {
            key: Key::Stage(s.stage),
            model: s.model,
            thread: threads.get(&s.id).copied().unwrap_or(0),
            start: s.start_us,
            end: s.start_us + s.dur_us,
            children: 0,
        })
        .collect();
    nodes.extend(input.tracer.harness_spans().into_iter().map(|h| Node {
        key: Key::Harness(h.name),
        model: None,
        thread: h.thread,
        start: h.start_us,
        end: h.end_us.max(h.start_us),
        children: 0,
    }));
    nest(&mut nodes);

    let secs = |us: u64| us as f64 / 1e6;
    let self_sum = |pred: &dyn Fn(&Node) -> bool| -> f64 {
        secs(nodes.iter().filter(|n| pred(n)).map(Node::self_us).sum())
    };
    let is = |stage: Stage| move |n: &Node| n.key == Key::Stage(stage);
    let count = |stage: Stage| nodes.iter().filter(|n| n.key == Key::Stage(stage)).count();
    let durations = |key: Key| -> Vec<f64> {
        nodes
            .iter()
            .filter(|n| n.key == key)
            .map(|n| secs(n.end - n.start))
            .collect()
    };
    let union_of = |stage: Stage| {
        merge(
            nodes
                .iter()
                .filter(|n| n.key == Key::Stage(stage))
                .map(|n| (n.start, n.end))
                .collect(),
        )
    };
    let approximated = |n: &Node| {
        n.model
            .and_then(|m| input.approximated.get(m).copied())
            .unwrap_or(false)
    };

    let fits = input.traced_fits.max(1) as f64;
    let krows = (input.traced_rows.max(1)) as f64 / 1000.0;
    let per_batch = |stage: Stage| self_sum(&is(stage)) / count(stage).max(1) as f64;

    let fit_union = union_of(Stage::Fit);
    let task_union = union_of(Stage::ExecutorTask);
    let distill_union = union_of(Stage::PsaDistill);
    let fit_wall = length(&fit_union);
    let task_in_fit: u64 = nodes
        .iter()
        .filter(|n| n.key == Key::Stage(Stage::ExecutorTask))
        .map(|n| overlap(&fit_union, &[(n.start, n.end)]))
        .sum();
    let idle_frac = if fit_wall == 0 {
        0.0
    } else {
        1.0 - task_in_fit as f64 / (FIT_WORKERS as f64 * fit_wall as f64)
    };

    let mut out: Vec<(&'static str, f64)> = vec![
        ("projection.busy_s", self_sum(&is(Stage::Projection)) / fits),
        (
            "linalg.neighbor_build_s",
            (self_sum(&is(Stage::NeighborBuild)) + self_sum(&is(Stage::NeighborPlan))) / fits,
        ),
        (
            "linalg.neighbor_query_s",
            self_sum(&is(Stage::NeighborQuery)) / fits,
        ),
        (
            "detectors.fit_busy_s",
            self_sum(&|n| {
                n.key == Key::Stage(Stage::ModelFit) || n.key == Key::Stage(Stage::ModelRetry)
            }) / fits,
        ),
        (
            "detectors.fit_max_s",
            durations(Key::Stage(Stage::ModelFit))
                .into_iter()
                .fold(0.0, f64::max),
        ),
        ("detectors.retries", count(Stage::ModelRetry) as f64),
        (
            "detectors.predict_s",
            self_sum(&|n| n.key == Key::Stage(Stage::PredictChunk) && !approximated(n)) / krows,
        ),
        (
            "supervised.distill_busy_s",
            self_sum(&is(Stage::PsaDistill)) / fits,
        ),
        (
            "supervised.distill_serial_s",
            secs(length(&distill_union) - overlap(&distill_union, &task_union)) / fits,
        ),
        (
            "supervised.predict_s",
            self_sum(&|n| n.key == Key::Stage(Stage::PredictChunk) && approximated(n)) / krows,
        ),
        ("scheduler.bps_plan_s", self_sum(&is(Stage::BpsPlan)) / fits),
        ("scheduler.task_busy_s", secs(task_in_fit) / fits),
        ("scheduler.worker_idle_frac", idle_frac),
        ("scheduler.steals", trace.counter(Counter::Steal) as f64),
        (
            "scheduler.stragglers",
            trace.counter(Counter::Straggler) as f64,
        ),
        (
            "core.fit_serial_s",
            secs(fit_wall - overlap(&fit_union, &task_union)) / fits,
        ),
        ("core.threshold_s", self_sum(&is(Stage::Threshold)) / fits),
        ("core.predict_s", self_sum(&is(Stage::Predict)) / krows),
        (
            "core.save_s",
            median(&durations(Key::Harness("save_to_bytes"))),
        ),
        (
            "core.load_s",
            median(&durations(Key::Harness("load_from_bytes"))),
        ),
        ("core.snapshot_bytes", input.snapshot_bytes as f64),
        ("serve.batch_assemble_s", per_batch(Stage::BatchAssemble)),
        ("serve.combine_s", per_batch(Stage::Combine)),
        (
            "serve.reload_swap_s",
            median(&durations(Key::Stage(Stage::PoolReload))),
        ),
        (
            "net.wire_request_us",
            1e6 * median(&durations(Key::Stage(Stage::WireRequest))),
        ),
        ("trace.coverage", trace.coverage_of(Stage::Fit)),
    ];
    out.extend(input.direct);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(key: Key, thread: u64, start: u64, end: u64) -> Node {
        Node {
            key,
            model: None,
            thread,
            start,
            end,
            children: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_on_the_same_thread() {
        let mut nodes = vec![
            node(Key::Harness("fit"), 1, 0, 100),
            node(Key::Stage(Stage::Fit), 1, 0, 100),
            node(Key::Stage(Stage::Projection), 1, 10, 30),
            node(Key::Stage(Stage::PsaDistill), 1, 40, 90),
            // Another thread's task overlaps in time but is not a child.
            node(Key::Stage(Stage::ExecutorTask), 2, 20, 60),
            node(Key::Stage(Stage::ModelFit), 2, 25, 55),
        ];
        nest(&mut nodes);
        assert_eq!(nodes[0].self_us(), 0);
        assert_eq!(nodes[1].self_us(), 100 - 20 - 50);
        assert_eq!(nodes[2].self_us(), 20);
        assert_eq!(nodes[4].self_us(), 10);
        assert_eq!(nodes[5].self_us(), 30);
    }
}
