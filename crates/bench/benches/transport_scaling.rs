//! Transport overhead: one full fast bilinear multiplication (`fast_mm`) on
//! cliques of `n ∈ {64, 128, 256}` nodes, with the traffic carried by each
//! star-topology transport backend — the in-memory slab move,
//! multi-process unix-socket workers (`socket`), and TCP-stream workers
//! (`tcp`) — plus a program-resident workload
//! (`TriangleProgram` via `count_triangles_program`) that additionally runs
//! peer-resident TCP (`tcp-peer`), where shards are shipped to the workers
//! once and per-round words flow worker → worker.
//!
//! Rounds, words, and pattern fingerprints are **asserted identical across
//! backends** before anything is exported (the determinism contract is the
//! whole point of the transport layer); the quantities this bench adds are
//! wall-clock and the `bytes_through_orchestrator` column — the payload
//! bytes that transited the orchestrator process. The export asserts the
//! refactor's payoff: ≈ 0 for peer-resident TCP while the star backends
//! carry every round's words through the parent.
//!
//! The socket/tcp backends' cost includes spawning their worker processes
//! per clique (construction is part of the measured routine, exactly as a
//! caller pays it) plus framing every word twice per barrier — out to the
//! destination shard's worker and back with its round-commit. That is the
//! honest price of crossing a process boundary; the bench quantifies it so
//! the networked-simulation roadmap has a baseline.

use cc_algebra::{IntRing, Matrix};
use cc_clique::{Clique, CliqueConfig, TransportKind};
use cc_core::{fast_mm, RowMatrix};
use cc_graph::generators;
use cc_subgraph::count_triangles_program;
use criterion::{criterion_group, BenchmarkId, Criterion};

const SIZES: [usize; 3] = [64, 128, 256];
const TRIANGLE_SIZES: [usize; 2] = [32, 64];
const SOCKET_WORKERS: usize = 2;
const STAR_BACKENDS: [(&str, TransportKind); 3] = [
    ("inmemory", TransportKind::InMemory),
    (
        "socket",
        TransportKind::Socket {
            workers: SOCKET_WORKERS,
        },
    ),
    (
        "tcp",
        TransportKind::Tcp {
            workers: SOCKET_WORKERS,
            resident: false,
            addr: None,
        },
    ),
];
/// The resident workload's extra lane: same TCP fabric, but programs live
/// on the workers and the orchestrator never touches a payload byte.
const TCP_PEER: (&str, TransportKind) = (
    "tcp-peer",
    TransportKind::Tcp {
        workers: SOCKET_WORKERS,
        resident: true,
        addr: None,
    },
);

/// One backend run's deterministic observation: everything that must be
/// bit-identical across backends, plus the per-backend orchestrator bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Observation {
    rounds: u64,
    words: u64,
    fingerprints: Vec<u64>,
    result: u64,
}

fn rand_matrix(n: usize, seed: u64) -> Matrix<i64> {
    let mut st = seed;
    Matrix::from_fn(n, n, |_, _| {
        st = st
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((st >> 33) % 9) as i64 - 4
    })
}

fn clique_for(n: usize, kind: TransportKind) -> Clique {
    let cfg = CliqueConfig {
        transport: kind,
        ..CliqueConfig::default()
    };
    Clique::with_config(n, cfg)
}

fn observe(clique: &Clique, result: u64) -> (Observation, u64) {
    (
        Observation {
            rounds: clique.rounds(),
            words: clique.stats().words(),
            fingerprints: clique.stats().pattern_fingerprints().to_vec(),
            result,
        },
        clique.orchestrator_bytes(),
    )
}

fn mm_once(
    n: usize,
    kind: TransportKind,
    a: &RowMatrix<i64>,
    b: &RowMatrix<i64>,
) -> (Observation, u64) {
    let mut clique = clique_for(n, kind);
    let _ = fast_mm::multiply_auto(&mut clique, &IntRing, a, b);
    observe(&clique, 0)
}

fn triangles_once(n: usize, kind: TransportKind, g: &cc_graph::Graph) -> (Observation, u64) {
    let mut clique = clique_for(n, kind);
    let count = count_triangles_program(&mut clique, g);
    observe(&clique, count)
}

/// Per-row deterministic model costs keyed by measurement id.
type ModelCost = (String, u64, u64, u64);

fn bench_transport_scaling(c: &mut Criterion) -> Vec<ModelCost> {
    let mut model_costs = Vec::new();
    let mut group = c.benchmark_group("transport_scaling");
    group.sample_size(10);
    for n in SIZES {
        let a = RowMatrix::from_matrix(&rand_matrix(n, 1));
        let b = RowMatrix::from_matrix(&rand_matrix(n, 2));
        // The determinism gate: every backend must report the in-memory
        // rounds, words, and fingerprints before its wall-clock means
        // anything.
        let (reference, _) = mm_once(n, TransportKind::InMemory, &a, &b);
        for (label, kind) in STAR_BACKENDS {
            let (obs, orch_bytes) = mm_once(n, kind, &a, &b);
            assert_eq!(
                obs, reference,
                "transport {label} diverged from in-memory at n={n}"
            );
            model_costs.push((
                format!("fast_mm/n{n}/{label}"),
                obs.rounds,
                obs.words,
                orch_bytes,
            ));
            group.bench_with_input(
                BenchmarkId::new(format!("fast_mm/n{n}"), label),
                &kind,
                |bench, &kind| {
                    bench.iter(|| mm_once(n, kind, &a, &b));
                },
            );
        }
    }
    for n in TRIANGLE_SIZES {
        let g = generators::gnp(n, 0.3, 5);
        let (reference, _) = triangles_once(n, TransportKind::InMemory, &g);
        let lanes = STAR_BACKENDS.iter().copied().chain([TCP_PEER]);
        for (label, kind) in lanes {
            let (obs, orch_bytes) = triangles_once(n, kind, &g);
            assert_eq!(
                obs, reference,
                "transport {label} diverged from in-memory at n={n}"
            );
            // The refactor's payoff, gated before export: resident rounds
            // bypass the orchestrator entirely; star process backends carry
            // every payload word through it.
            if label == "tcp-peer" {
                assert_eq!(
                    orch_bytes, 0,
                    "peer-resident rounds must bypass the orchestrator"
                );
            } else if label == "socket" || label == "tcp" {
                assert!(
                    orch_bytes > 0,
                    "star {label} must route payloads via the orchestrator"
                );
            }
            model_costs.push((
                format!("triangle_program/n{n}/{label}"),
                obs.rounds,
                obs.words,
                orch_bytes,
            ));
            group.bench_with_input(
                BenchmarkId::new(format!("triangle_program/n{n}"), label),
                &kind,
                |bench, &kind| {
                    bench.iter(|| triangles_once(n, kind, &g));
                },
            );
        }
    }
    group.finish();
    model_costs
}

criterion_group!(benches_unused, noop);
fn noop(_c: &mut Criterion) {}

fn main() {
    // Hand-rolled entry instead of `criterion_main!` so the shim's recorded
    // measurements can be exported — one measurement pass feeds both the
    // stdout report and BENCH_transport.json (same scheme as
    // sparse_scaling).
    let _ = benches_unused;
    let mut criterion = Criterion::default();
    let model_costs = bench_transport_scaling(&mut criterion);
    export_json(criterion.take_measurements(), &model_costs);
}

/// Writes `BENCH_transport.json` at the workspace root from the
/// deterministic model costs and the criterion measurements (ids look like
/// `fast_mm/n64/socket` or `triangle_program/n64/tcp-peer`).
fn export_json(measurements: Vec<criterion::Measurement>, model_costs: &[ModelCost]) {
    use std::fmt::Write as _;

    let host_threads = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let mut rows: Vec<(String, usize, &'static str)> = Vec::new();
    for n in SIZES {
        for (label, _) in STAR_BACKENDS {
            rows.push((format!("fast_mm/n{n}/{label}"), n, "fast_mm"));
        }
    }
    for n in TRIANGLE_SIZES {
        for (label, _) in STAR_BACKENDS.iter().copied().chain([TCP_PEER]) {
            rows.push((
                format!("triangle_program/n{n}/{label}"),
                n,
                "triangle_program",
            ));
        }
    }
    let mut records = String::new();
    for (id, n, workload) in rows {
        let label = id.rsplit('/').next().expect("id has a backend segment");
        let inmemory_median = measurements
            .iter()
            .find(|m| m.id == format!("{workload}/n{n}/inmemory"))
            .map(criterion::Measurement::median_ns)
            .expect("in-memory baseline measured");
        let m = measurements
            .iter()
            .find(|m| m.id == id)
            .unwrap_or_else(|| panic!("no measurement recorded for {id}"));
        let (_, rounds, words, orch_bytes) = model_costs
            .iter()
            .find(|(mid, ..)| *mid == id)
            .unwrap_or_else(|| panic!("no model costs recorded for {id}"));
        if !records.is_empty() {
            records.push_str(",\n");
        }
        let _ = write!(
            records,
            "    {{\"workload\": \"{workload}\", \"n\": {n}, \"transport\": \"{label}\", \
             \"bytes_through_orchestrator\": {orch_bytes}, \"rounds\": {rounds}, \
             \"words\": {words}, \"min_ns\": {:.0}, \"median_ns\": {:.0}, \
             \"mean_ns\": {:.0}, \"overhead_vs_inmemory\": {:.2}}}",
            m.min_ns(),
            m.median_ns(),
            m.mean_ns(),
            m.median_ns() / inmemory_median,
        );
    }
    let json = format!(
        "{{\n  \"host_available_parallelism\": {host_threads},\n  \"socket_workers\": \
         {SOCKET_WORKERS},\n  \"note\": \"fast_mm (star backends) and the resident \
         TriangleProgram workload (star + peer-resident TCP) end-to-end per transport backend. \
         Rounds, words, and pattern fingerprints are asserted bit-identical across backends \
         before export (the determinism contract); *_ns is wall-clock including transport \
         construction (worker-process spawn for socket/tcp). \
         bytes_through_orchestrator counts payload bytes transiting the orchestrator — \
         asserted ~0 for tcp-peer (programs resident on workers, words flow peer-to-peer) and \
         > 0 for the star process backends. overhead_vs_inmemory is the median ratio against \
         the shared-memory fabric.\",\n  \"results\": [\n{records}\n  ]\n}}\n"
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_transport.json");
    std::fs::write(path, &json).expect("write BENCH_transport.json");
    println!("wrote {path}");
}
