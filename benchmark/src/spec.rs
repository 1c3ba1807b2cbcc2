//! The benchmark's vocabulary: workload and metric names with their units,
//! directions, bounds and the end-to-end metric each layer metric should
//! move. `BENCHMARK.json` (printed by `cc-benchmark manifest`) and the README
//! tables restate this file.

use crate::json::Value;

/// One reference workload.
pub struct WorkloadSpec {
    pub name: &'static str,
    /// Sizes and fabric, for the result file.
    pub params: &'static str,
    /// One line: what this workload exercises that the others do not.
    pub why: &'static str,
}

pub const WORKLOADS: &[WorkloadSpec] = &[
    WorkloadSpec {
        name: "tri-inmem",
        params: "count_triangles, G(128, 0.3), InMemory, Sequential",
        why: "Corollary 2 on the reference fabric: fast MM plus clique routing and accounting, no wire; the bypass workload for every transport change",
    },
    WorkloadSpec {
        name: "tri-socket",
        params: "count_triangles, G(128, 0.3), Socket{workers:2}, Sequential",
        why: "the same query over the star fabric: frame codec, unix-socket wire and round-commit barrier; minus tri-inmem it is the wire cost of one query",
    },
    WorkloadSpec {
        name: "triprog-tcp-peer",
        params: "count_triangles_program, G(64, 0.3), Tcp{workers:2, resident}, Sequential",
        why: "peer-resident fabric: shards shipped once, words worker to worker, nothing through the orchestrator; the only workload driven by the NodeProgram engine",
    },
    WorkloadSpec {
        name: "seidel-inmem",
        params: "apsp_seidel, G(128, 0.05) with eccentricity in 5..=8, InMemory, Sequential",
        why: "the paper's distance headline: a chain of 4 Boolean squarings and 3 integer fast products, where a resident bit-matrix would show and tri-inmem would not",
    },
    WorkloadSpec {
        name: "service-batch",
        params: "Service Batch{instances:2}, 8 x G(64, 0.1), 4 query kinds, each submitted twice, cache cleared per op",
        why: "write path of the service: scheduling, in-flight coalescing, warm-pool checkout and cache priming over apsp_exact, sparse/dense dispatch, 4-cycles, girth",
    },
    WorkloadSpec {
        name: "service-hot",
        params: "the same service with a primed cache; op = 1024 TriangleCount/Distance queries, drain, take",
        why: "read path of the service: fingerprint-keyed cache hits and memoised distances with zero simulated rounds; splits from service-batch on a cache change",
    },
    WorkloadSpec {
        name: "local-mm",
        params: "49 x IntRing.mul_dense + 49 x BoolSemiring.mul_dense on 64x64 blocks, no clique",
        why: "the node-local stage of one fast MM at clique size 256: the only workload where the algebra kernels do the work, at the block shape production calls them with",
    },
];

pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric a user of the system would see; gated by `bound`.
///
/// The bounds are three times the spread measured between ten runs on the
/// reference host (2 shared cores, interference in bursts of seconds to
/// minutes): 5-8 % for the timings on most workloads, 2-4 % for RSS. A
/// tighter bound would reject unchanged code.
pub struct EndToEndSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline's value by which the metric may get worse.
    pub bound: f64,
    /// `compare` additionally tolerates this much absolute worsening (in
    /// the metric's unit): a 25 % bound on a 60 ms set-up is scheduler noise.
    pub abs_slack: f64,
}

impl EndToEndSpec {
    /// The metric's entry in `BENCHMARK.json` and in a result document.
    pub fn to_json(&self) -> Value {
        Value::obj([
            ("name", Value::str(self.name)),
            ("unit", Value::str(self.unit)),
            ("better", Value::str(self.better.as_str())),
            ("bound", Value::Num(self.bound)),
        ])
    }
}

pub const END_TO_END: &[EndToEndSpec] = &[
    EndToEndSpec {
        name: "op_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        abs_slack: 0.0,
    },
    EndToEndSpec {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        abs_slack: 0.0,
    },
    EndToEndSpec {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.15,
        abs_slack: 0.0,
    },
    EndToEndSpec {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        abs_slack: 0.05,
    },
];

/// A metric of one layer (layer = crate); never gated.
pub struct LayerSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// `(end-to-end metric, workload)` this metric should move, or why it
    /// moves none.
    pub moves: &'static str,
}

const fn lower(name: &'static str, unit: &'static str, moves: &'static str) -> LayerSpec {
    LayerSpec {
        name,
        unit,
        better: Better::Lower,
        moves,
    }
}

const fn higher(name: &'static str, unit: &'static str, moves: &'static str) -> LayerSpec {
    LayerSpec {
        name,
        unit,
        better: Better::Higher,
        moves,
    }
}

const M_LOCAL: &str = "op_ms_p50 on local-mm";
const M_INMEM: &str = "op_ms_p50 on tri-inmem, seidel-inmem";
const M_SOCKET: &str = "op_ms_p50 on tri-socket";
const M_SETUP_MP: &str = "setup_s on tri-socket, triprog-tcp-peer";
const M_PEER: &str = "op_ms_p50 on triprog-tcp-peer";
const M_BATCH: &str = "op_ms_p50, ops_per_s on service-batch";
const M_HOT: &str = "op_ms_p50 on service-hot";
const M_SETUP: &str = "setup_s on every workload";
const M_GUARD: &str = "none (off in every workload); guard only";
const M_DIAG: &str = "none; tells whether the run was disturbed";
const M_EXACT: &str = "none; must stay identical (bound 0 in compare)";

/// Every per-layer metric a traced run reports, in output order. The layer
/// is the name's first dotted component.
pub const PER_LAYER: &[LayerSpec] = &[
    // Model costs of one operation: exact, and equal on every fabric.
    lower("model.rounds_per_op", "rounds", M_EXACT),
    lower("model.words_per_op", "words", M_EXACT),
    // cc-algebra
    lower("algebra.mul_i64_us.b16", "us", M_LOCAL),
    lower("algebra.mul_i64_us.b32", "us", M_LOCAL),
    lower("algebra.mul_i64_us.b64", "us", M_LOCAL),
    lower("algebra.mul_i64_us.b256", "us", M_LOCAL),
    lower("algebra.mul_bool_us.b64", "us", M_LOCAL),
    lower("algebra.mul_bool_us.b256", "us", M_LOCAL),
    lower("algebra.mul_bool_us.b512", "us", M_LOCAL),
    lower("algebra.bitmatrix_mul_us.b512", "us", M_LOCAL),
    lower("algebra.bit_pack_unpack_us.b512", "us", M_LOCAL),
    lower("algebra.kernel_calls_per_op", "count", M_LOCAL),
    lower(
        "algebra.kernel_share",
        "ratio",
        "ceiling of any kernel gain on this workload's op_ms_p50",
    ),
    // cc-core
    lower("core.phase_ms.fastmm.scatter", "ms", M_INMEM),
    lower("core.phase_ms.fastmm.to_terms", "ms", M_INMEM),
    lower("core.phase_ms.fastmm.from_terms", "ms", M_INMEM),
    lower("core.phase_ms.fastmm.assemble", "ms", M_INMEM),
    lower("core.phase_ms.transpose", "ms", "op_ms_p50 on tri-inmem"),
    lower("core.phase_ms.boolmm", "ms", "op_ms_p50 on seidel-inmem"),
    lower("core.phase_ms.mm3d.scatter", "ms", M_BATCH),
    lower("core.phase_ms.mm3d.gather", "ms", M_BATCH),
    lower("core.phase_ms.sparsemm.ship", "ms", M_BATCH),
    lower("core.phase_ms.sparsemm.combine", "ms", M_BATCH),
    lower("core.local_ms_per_op", "ms", M_INMEM),
    // cc-clique
    lower("clique.barriers_per_op", "count", M_SOCKET),
    lower("clique.reset_us", "us", "ops_per_s on service-batch"),
    lower("clique.exchange_round_us.w1", "us", M_INMEM),
    lower("clique.exchange_round_us.w64", "us", M_INMEM),
    lower("clique.route_us.n128", "us", M_INMEM),
    // cc-transport
    lower("transport.barrier_ms_per_op", "ms", M_SOCKET),
    lower("transport.orch_bytes_per_op", "bytes", M_SOCKET),
    lower("transport.wire_bytes_per_word", "ratio", M_SOCKET),
    lower("transport.frame_batches_per_op", "count", M_SOCKET),
    lower("transport.frame_bytes_per_op", "bytes", M_SOCKET),
    lower("transport.peer_bytes_per_op", "bytes", M_PEER),
    lower("transport.wire_ms_per_op", "ms", M_SOCKET),
    lower("transport.encode_ns_per_word.w8", "ns", M_SOCKET),
    lower("transport.encode_ns_per_word.w4096", "ns", M_SOCKET),
    lower("transport.decode_ns_per_word.w8", "ns", M_SOCKET),
    lower("transport.decode_ns_per_word.w4096", "ns", M_SOCKET),
    lower("transport.round_us.inmemory.w1", "us", M_INMEM),
    lower("transport.round_us.inmemory.w64", "us", M_INMEM),
    lower("transport.round_us.socket.w1", "us", M_SOCKET),
    lower("transport.round_us.socket.w64", "us", M_SOCKET),
    lower(
        "transport.round_us.tcp.w1",
        "us",
        "none (star tcp is covered by tri-socket); guard only",
    ),
    lower(
        "transport.round_us.tcp.w64",
        "us",
        "none (star tcp is covered by tri-socket); guard only",
    ),
    lower("transport.setup_ms.socket", "ms", M_SETUP_MP),
    lower("transport.setup_ms.tcp", "ms", M_SETUP_MP),
    lower("transport.setup_ms.tcp-peer", "ms", M_SETUP_MP),
    // cc-runtime
    lower("runtime.engine_step_ms_per_op", "ms", M_PEER),
    lower("runtime.engine_barrier_ms_per_op", "ms", M_PEER),
    lower("runtime.dispatch_inline_per_op", "count", M_INMEM),
    lower(
        "runtime.dispatch_pooled_per_op",
        "count",
        "none (Sequential executor everywhere); guard only",
    ),
    lower("runtime.map_us.sequential", "us", M_INMEM),
    lower(
        "runtime.map_us.parallel2",
        "us",
        "none (Sequential executor everywhere); guard only",
    ),
    lower("runtime.engine_round_us", "us", M_PEER),
    // cc-subgraph, cc-apsp: the computations underneath service-batch
    lower("subgraph.triangles_auto_ms", "ms", M_BATCH),
    lower("subgraph.detect_4cycle_ms", "ms", M_BATCH),
    lower("subgraph.girth_ms", "ms", M_BATCH),
    lower("apsp.exact_ms", "ms", M_BATCH),
    // cc-service
    lower("service.computations_per_op", "count", M_BATCH),
    higher("service.coalesced_per_op", "count", M_BATCH),
    higher("service.cache_hits_per_op", "count", M_HOT),
    lower("service.pool_built", "count", "setup_s on service-batch"),
    higher("service.pool_reused_per_op", "count", M_BATCH),
    lower("service.compute_ms_per_op", "ms", M_BATCH),
    lower("service.overhead_ms_per_op", "ms", M_BATCH),
    lower("service.hit_us", "us", M_HOT),
    lower("service.submit_us", "us", M_HOT),
    lower(
        "service.register_us",
        "us",
        "setup_s on service-batch, service-hot",
    ),
    // cc-graph
    lower("graph.gen_ms", "ms", M_SETUP),
    lower("graph.fingerprint_us", "us", "service.register_us"),
    lower("graph.oracle_ms", "ms", M_SETUP),
    // cc-netsim
    lower("netsim.round_overhead_us.lan", "us", M_GUARD),
    lower("netsim.round_overhead_us.lossy", "us", M_GUARD),
    // cc-telemetry
    lower(
        "telemetry.traced_op_ms_p50",
        "ms",
        "none (tracing is off in every end-to-end run)",
    ),
    lower(
        "telemetry.overhead_ratio",
        "ratio",
        "none; traced op_ms_p50 over untraced, level full, memory sink",
    ),
    lower("telemetry.events_per_op", "count", M_GUARD),
    lower(
        "telemetry.emit_off_ns",
        "ns",
        "op_ms_p50 on every workload, by a hair",
    ),
    // the benchmark's own loop
    higher("harness.ops", "count", M_DIAG),
    lower("harness.op_ms_p90", "ms", M_DIAG),
    lower("harness.op_ms_p50_all", "ms", M_DIAG),
    lower("harness.op_ms_mad", "ms", M_DIAG),
    lower("harness.block_rate_spread", "ratio", M_DIAG),
    lower("harness.cpu_ms_per_op", "ms", M_DIAG),
    lower("harness.loadavg_start", "load", M_DIAG),
    lower("harness.loadavg_end", "load", M_DIAG),
];

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// Names stay inside the alphabet the benchmark contract allows.
    fn is_valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn every_name_is_valid_and_used_once() {
        let mut seen = BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(is_valid_name(name), "{name:?} leaves [A-Za-z0-9_.-]");
            assert!(seen.insert(name), "{name:?} is used twice");
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
    }

    #[test]
    fn units_and_reasons_fit_the_contract() {
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
        };
        for m in END_TO_END {
            assert!(unit_ok(m.unit), "{}: unit {:?}", m.name, m.unit);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}: bound", m.name);
        }
        for m in PER_LAYER {
            assert!(unit_ok(m.unit), "{}: unit {:?}", m.name, m.unit);
        }
        for w in WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s carries the largest bound"
        );
    }
}
