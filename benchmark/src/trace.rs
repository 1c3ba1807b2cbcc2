//! The traced pass's instrument: a memory sink installed by the benchmark
//! process, and the per-operation layer numbers read out of it.
//!
//! Spans and counters are recorded at the layer boundaries the stack
//! already instruments (`CC_TRACE=full`); nothing here adds a probe inside
//! the program.

use crate::harness::Window;
use congested_clique::telemetry::{Event, MemorySink, MemorySnapshot, TelemetrySink};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// The stack's own [`MemorySink`] (so the cost of tracing is the shipped
/// cost), plus two tallies the aggregate snapshot does not keep: the total
/// event count and the kernel calls by `(operation, size)`.
#[derive(Debug, Default)]
pub struct CountingSink {
    memory: MemorySink,
    events: AtomicU64,
    kernel_calls: Mutex<BTreeMap<(&'static str, usize), u64>>,
}

impl CountingSink {
    pub fn snapshot(&self) -> MemorySnapshot {
        self.memory.snapshot()
    }

    pub fn events(&self) -> u64 {
        // A statistic read after the window; it publishes no other data.
        self.events.load(Ordering::Relaxed)
    }

    pub fn kernel_calls(&self) -> BTreeMap<(&'static str, usize), u64> {
        self.kernel_calls
            .lock()
            .expect("kernel tally poisoned")
            .clone()
    }

    /// Forgets set-up and warm-up: the window starts from zero.
    pub fn reset(&self) {
        self.memory.reset();
        self.events.store(0, Ordering::Relaxed);
        self.kernel_calls
            .lock()
            .expect("kernel tally poisoned")
            .clear();
    }
}

impl TelemetrySink for CountingSink {
    fn record(&self, event: &Event) {
        self.events.fetch_add(1, Ordering::Relaxed);
        // Kernel calls made inside a worker process arrive wrapped.
        let inner = match event {
            Event::Worker { event, .. } => event.as_ref(),
            other => other,
        };
        if let Event::KernelDecision { kernel, op, n, .. } = inner {
            // `probe` is the executor's cutover micro-probe, not a product.
            if *kernel != "probe" {
                *self
                    .kernel_calls
                    .lock()
                    .expect("kernel tally poisoned")
                    .entry((op, *n))
                    .or_insert(0) += 1;
            }
        }
        self.memory.record(event);
    }
}

/// Phases that wrap a whole query: their wall-clock is the operation as the
/// algorithm layer sees it.
const TOP_LEVEL_PHASES: &[&str] = &[
    "triangles",
    "triangles_program",
    "seidel",
    "apsp_exact",
    "girth",
    "detect_c4",
];

/// Leaf phases that are one routed or exchanged communication step
/// (message generation, relay, flush, accounting).
const COMMUNICATION_PHASES: &[&str] = &[
    "fastmm.scatter",
    "fastmm.to_terms",
    "fastmm.from_terms",
    "fastmm.assemble",
    "transpose",
    "mm3d.scatter",
    "mm3d.gather",
    "sparsemm.census",
    "sparsemm.ship",
    "sparsemm.combine",
];

/// Phases reported one by one as `core.phase_ms.<name>`.
const REPORTED_PHASES: &[&str] = &[
    "fastmm.scatter",
    "fastmm.to_terms",
    "fastmm.from_terms",
    "fastmm.assemble",
    "transpose",
    "boolmm",
    "mm3d.scatter",
    "mm3d.gather",
    "sparsemm.ship",
    "sparsemm.combine",
];

/// The per-operation layer numbers of one traced window. `_per_op` values
/// are totals over the window divided by its operations.
pub fn layer_metrics(sink: &CountingSink, w: &Window) -> BTreeMap<String, f64> {
    let snap = sink.snapshot();
    let ops = w.spans_ms.len().max(1) as f64;
    let mut out = BTreeMap::new();
    let mut put = |name: &str, value: f64| {
        out.insert(name.to_string(), value);
    };
    let phase_ms = |name: &str| {
        snap.phases
            .get(name)
            .map_or(0.0, |p| p.wall_ns as f64 / 1e6)
    };

    put("model.rounds_per_op", w.model.0 as f64);
    put("model.words_per_op", w.model.1 as f64);

    let kernel_calls: u64 = sink.kernel_calls().values().sum();
    put("algebra.kernel_calls_per_op", kernel_calls as f64 / ops);

    for name in REPORTED_PHASES {
        put(&format!("core.phase_ms.{name}"), phase_ms(name) / ops);
    }
    let top: f64 = TOP_LEVEL_PHASES.iter().map(|p| phase_ms(p)).sum();
    let communication: f64 = COMMUNICATION_PHASES.iter().map(|p| phase_ms(p)).sum();
    put("core.local_ms_per_op", (top - communication).max(0.0) / ops);

    let (start, end) = w.counters;
    let sum = |f: fn(&congested_clique::telemetry::TransportAgg) -> u64| -> f64 {
        snap.transports.values().map(f).sum::<u64>() as f64
    };
    // The clique's own epoch counter where the benchmark holds the clique;
    // the service's cliques live inside its pool, so there the traced
    // transports' round events are counted instead.
    let barriers = match (start.epochs, end.epochs) {
        (Some(a), Some(b)) => (b - a) as f64,
        _ => sum(|t| t.rounds),
    };
    put("clique.barriers_per_op", barriers / ops);

    let orch_bytes = (end.orch_bytes - start.orch_bytes) as f64 / ops;
    put(
        "transport.barrier_ms_per_op",
        sum(|t| t.barrier_ns) / 1e6 / ops,
    );
    put("transport.orch_bytes_per_op", orch_bytes);
    put(
        "transport.wire_bytes_per_word",
        if w.model.1 > 0 {
            orch_bytes / (8.0 * w.model.1 as f64)
        } else {
            0.0
        },
    );
    put(
        "transport.frame_batches_per_op",
        sum(|t| t.frame_batches) / ops,
    );
    put("transport.frame_bytes_per_op", sum(|t| t.frame_bytes) / ops);
    put("transport.peer_bytes_per_op", sum(|t| t.peer_bytes) / ops);

    put(
        "runtime.engine_step_ms_per_op",
        snap.engine.step_ns as f64 / 1e6 / ops,
    );
    put(
        "runtime.engine_barrier_ms_per_op",
        snap.engine.barrier_ns as f64 / 1e6 / ops,
    );
    put(
        "runtime.dispatch_inline_per_op",
        snap.dispatch.inline as f64 / ops,
    );
    put(
        "runtime.dispatch_pooled_per_op",
        snap.dispatch.dispatched as f64 / ops,
    );

    let service = |f: fn(&congested_clique::service::ServiceStats) -> u64| -> f64 {
        match (start.service, end.service) {
            (Some(a), Some(b)) => (f(&b) - f(&a)) as f64 / ops,
            _ => 0.0,
        }
    };
    // A service operation's self time: its span minus the algorithm phases
    // that ran inside it (scheduling, coalescing, pool checkout, cache
    // insert and lookup, ticket bookkeeping are what is left).
    let is_service = start.service.is_some();
    let span_ms = w.spans_ms.iter().sum::<f64>() / ops;
    put(
        "service.compute_ms_per_op",
        if is_service { top / ops } else { 0.0 },
    );
    put(
        "service.overhead_ms_per_op",
        if is_service {
            (span_ms - top / ops).max(0.0)
        } else {
            0.0
        },
    );
    put("service.computations_per_op", service(|s| s.computations));
    put("service.coalesced_per_op", service(|s| s.coalesced));
    put("service.cache_hits_per_op", service(|s| s.cache_hits));
    put("service.pool_built", end.pool_built as f64);
    put(
        "service.pool_reused_per_op",
        (end.pool_reused - start.pool_reused) as f64 / ops,
    );

    put("telemetry.traced_op_ms_p50", w.op_ms_p50());
    put("telemetry.events_per_op", sink.events() as f64 / ops);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sink_tallies_events_and_kernel_calls_and_resets() {
        let sink = CountingSink::default();
        let call = |n| Event::KernelDecision {
            kernel: "blocked",
            op: "mul_i64",
            n,
            tile: 64,
        };
        sink.record(&call(32));
        sink.record(&call(32));
        sink.record(&Event::Worker {
            worker: 1,
            event: Box::new(call(16)),
        });
        sink.record(&Event::KernelDecision {
            kernel: "probe",
            op: "exec_cutover",
            n: 96,
            tile: 0,
        });
        assert_eq!(sink.events(), 4);
        let calls = sink.kernel_calls();
        assert_eq!(calls[&("mul_i64", 32)], 2);
        assert_eq!(calls[&("mul_i64", 16)], 1);
        assert_eq!(calls.len(), 2, "the cutover probe is not a product");
        assert_eq!(sink.snapshot().counters["kernel_decisions"], 3);
        sink.reset();
        assert_eq!(sink.events(), 0);
        assert!(sink.kernel_calls().is_empty());
        assert!(sink.snapshot().counters.is_empty());
    }
}
