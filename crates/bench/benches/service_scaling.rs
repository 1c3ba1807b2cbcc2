//! Serving throughput: a 20-query triangle-count stream against `n = 64`
//! graphs, served two ways at duplicate ratios {0%, 50%, 90%}:
//!
//! * **cold** — the historical one-shot calling convention: every query
//!   builds a fresh `Clique` and runs the algorithm, no reuse of anything.
//! * **warm** — the `cc-service` path: the stream is submitted as one
//!   batch to a service whose pool is warm (instances reset and reused,
//!   one shared executor) and whose scheduler coalesces in-flight
//!   duplicates. The result cache is cleared between iterations so the
//!   measurement isolates pool warmth + batching, not cross-iteration
//!   caching.
//!
//! Answers are **asserted identical** between the two paths before
//! anything is exported (the serving layer's determinism contract). The
//! exported quantity is queries/second; the acceptance gate is warm
//! beating cold on the duplicate-heavy stream. Results are printed per
//! benchmark and exported to `BENCH_service.json` at the workspace root.

use cc_clique::Clique;
use cc_graph::{generators, Graph};
use cc_service::{Query, Service, ServiceConfig, ServiceMode};
use cc_subgraph::count_triangles_auto;
use criterion::{criterion_group, BenchmarkId, Criterion};

const N: usize = 64;
const STREAM_LEN: usize = 20;
const POOL_INSTANCES: usize = 2;
const DUP_RATIOS: [(u64, f64); 3] = [(0, 0.0), (50, 0.5), (90, 0.9)];

/// The query stream at a duplicate ratio: the first `distinct` queries hit
/// fresh graphs, the rest repeat them round-robin, so exactly
/// `ratio * STREAM_LEN` queries are duplicates of an earlier one.
fn stream(ratio: f64) -> Vec<usize> {
    let distinct = ((STREAM_LEN as f64) * (1.0 - ratio)).round().max(1.0) as usize;
    (0..STREAM_LEN).map(|i| i % distinct).collect()
}

fn cold_pass(graphs: &[Graph], order: &[usize]) -> Vec<u64> {
    order
        .iter()
        .map(|&g| {
            let mut clique = Clique::new(N);
            count_triangles_auto(&mut clique, &graphs[g])
        })
        .collect()
}

fn warm_pass(svc: &mut Service, ids: &[cc_service::GraphId], order: &[usize]) -> Vec<u64> {
    svc.clear_cache();
    let tickets: Vec<_> = order
        .iter()
        .map(|&g| svc.submit(ids[g], Query::TriangleCount))
        .collect();
    svc.drain();
    tickets
        .into_iter()
        .map(|t| {
            svc.take(t)
                .expect("drained batch resolves its tickets")
                .response
                .triangles()
                .expect("triangle response")
        })
        .collect()
}

fn bench_service_scaling(c: &mut Criterion) {
    let graphs: Vec<Graph> = (0..STREAM_LEN as u64)
        .map(|seed| generators::gnp(N, 0.1, 1000 + seed))
        .collect();

    let mut group = c.benchmark_group("service_scaling");
    group.sample_size(10);
    for (pct, ratio) in DUP_RATIOS {
        let order = stream(ratio);

        // One warm service per ratio lane: its pool instances persist
        // across iterations (that is the thing being measured); the cache
        // is cleared inside every pass.
        let mut svc = Service::new(ServiceConfig {
            mode: ServiceMode::Batch {
                instances: POOL_INSTANCES,
            },
            ..ServiceConfig::default()
        });
        let ids: Vec<_> = graphs.iter().map(|g| svc.register(g.clone())).collect();

        // The determinism gate: both paths must report identical answers
        // before either wall-clock means anything.
        let reference = cold_pass(&graphs, &order);
        assert_eq!(
            warm_pass(&mut svc, &ids, &order),
            reference,
            "service answers diverged from one-shot calls at dup={pct}%"
        );

        group.bench_with_input(
            BenchmarkId::new(format!("dup{pct}"), "cold"),
            &order,
            |bench, order| {
                bench.iter(|| cold_pass(&graphs, order));
            },
        );
        group.bench_with_input(
            BenchmarkId::new(format!("dup{pct}"), "warm"),
            &order,
            |bench, order| {
                bench.iter(|| warm_pass(&mut svc, &ids, order));
            },
        );
    }
    group.finish();
}

criterion_group!(benches_unused, noop);
fn noop(_c: &mut Criterion) {}

fn main() {
    // Hand-rolled entry instead of `criterion_main!` so the shim's recorded
    // measurements can be exported — one measurement pass feeds both the
    // stdout report and BENCH_service.json (same scheme as the sparse
    // and transport scaling benches).
    let _ = benches_unused;
    let mut criterion = Criterion::default();
    bench_service_scaling(&mut criterion);
    export_json(criterion.take_measurements());
}

/// Writes `BENCH_service.json` at the workspace root (ids look like
/// `dup50/warm`).
fn export_json(measurements: Vec<criterion::Measurement>) {
    use std::fmt::Write as _;

    let host_threads = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let qps = |median_ns: f64| STREAM_LEN as f64 / (median_ns / 1e9);
    let mut records = String::new();
    for (pct, ratio) in DUP_RATIOS {
        let median = |lane: &str| {
            let id = format!("dup{pct}/{lane}");
            measurements
                .iter()
                .find(|m| m.id == id)
                .map(criterion::Measurement::median_ns)
                .unwrap_or_else(|| panic!("no measurement recorded for {id}"))
        };
        let (cold, warm) = (median("cold"), median("warm"));
        if !records.is_empty() {
            records.push_str(",\n");
        }
        let _ = write!(
            records,
            "    {{\"dup_ratio\": {ratio}, \"queries_per_stream\": {STREAM_LEN}, \
             \"cold_median_ns\": {cold:.0}, \"warm_median_ns\": {warm:.0}, \
             \"cold_qps\": {:.1}, \"warm_qps\": {:.1}, \"warm_speedup\": {:.2}}}",
            qps(cold),
            qps(warm),
            cold / warm,
        );
    }
    let json = format!(
        "{{\n  \"host_available_parallelism\": {host_threads},\n  \"n\": {N},\n  \
         \"pool_instances\": {POOL_INSTANCES},\n  \"note\": \"Triangle-count query streams \
         ({STREAM_LEN} queries, n = {N} gnp graphs) served cold (fresh Clique per query, the \
         one-shot convention) vs warm (cc-service batch: warm pool instances + in-flight \
         duplicate coalescing; result cache cleared per iteration so cross-iteration caching \
         is excluded). Answers are asserted identical between paths before export. qps = \
         queries/second from the median stream wall-clock; warm_speedup = cold/warm. The \
         acceptance gate is warm beating cold on the duplicate-heavy (90%) stream.\",\n  \
         \"results\": [\n{records}\n  ]\n}}\n"
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_service.json");
    std::fs::write(path, &json).expect("write BENCH_service.json");
    println!("wrote {path}");
}
