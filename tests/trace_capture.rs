//! In-process telemetry capture: install a full-level memory sink, run
//! real workloads across transport backends, and assert the capture holds
//! what the tentpole promises — per-phase wall-clock, per-round engine and
//! link events, executor dispatch decisions, and service gauges — while
//! answers and accounting stay exactly what the untraced suite pins.
//!
//! This file is its own test binary on purpose: the telemetry handle is
//! process-global and first-install-wins, so the install below must not
//! share a process with tests that need `CC_TRACE=off`.

use congested_clique::clique::{Clique, CliqueConfig, ExecutorKind, TransportKind};
use congested_clique::graph::{generators, oracle};
use congested_clique::service::{Query, Service, ServiceConfig, ServiceMode};
use congested_clique::subgraph::{count_triangles, count_triangles_program};
use congested_clique::telemetry::{
    self, event_from_json, event_json, MemorySink, MemorySnapshot, Telemetry, TraceLevel,
};

/// Installs the shared full-level memory sink (idempotent across the test
/// binary; first install wins and later calls see the same sink).
fn sink() -> &'static MemorySink {
    let _ = telemetry::install(Telemetry::with_memory(TraceLevel::Full));
    let tel = telemetry::global();
    assert_eq!(tel.level(), TraceLevel::Full, "install must precede use");
    tel.memory().expect("memory-backed handle")
}

/// Every event the real stack put in the ring survives the wire codec:
/// real names such as `"planes"`, and worker events that were already
/// decoded once off the wire and wrapped by the merge.
fn assert_ring_round_trips(snap: &MemorySnapshot) {
    assert!(!snap.recent.is_empty(), "the run left events in the ring");
    for event in &snap.recent {
        let line = event_json(event);
        assert_eq!(event_from_json(&line).as_ref(), Some(event), "{line}");
    }
}

fn cfg(transport: TransportKind) -> CliqueConfig {
    CliqueConfig {
        executor: ExecutorKind::Parallel { threads: 2 },
        exec_cutover: Some(2),
        transport,
        ..CliqueConfig::default()
    }
}

#[test]
fn full_capture_holds_phases_rounds_links_and_dispatches() {
    let mem = sink();
    let n = 16;
    let g = generators::gnp(n, 0.4, 7);
    let expected = oracle::count_triangles(&g);

    let mut counts = Vec::new();
    let mut accounting = Vec::new();
    for transport in [
        TransportKind::InMemory,
        TransportKind::Tcp {
            workers: 2,
            resident: false,
            addr: None,
        },
        TransportKind::Socket { workers: 2 },
    ] {
        let mut clique = Clique::with_config(n, cfg(transport));
        let t = clique.phase("capture.triangles", |c| count_triangles(c, &g));
        counts.push(t);
        accounting.push((clique.rounds(), clique.stats().words()));
        let phase = clique.stats().phase("capture.triangles").unwrap();
        assert!(
            phase.wall_ns > 0,
            "{transport:?}: phase wall-clock recorded"
        );
        assert!(phase.rounds > 0 && phase.words > 0);
    }
    // Tracing never perturbs the simulation: right answers, and identical
    // accounting on every backend.
    assert!(counts.iter().all(|&t| t == expected), "answers intact");
    assert!(
        accounting.windows(2).all(|w| w[0] == w[1]),
        "rounds/words identical across traced backends: {accounting:?}"
    );

    let snap = mem.snapshot();
    // Phase events: one PhaseAgg run per backend, wall-clock accrued.
    let agg = snap
        .phases
        .get("capture.triangles")
        .expect("phase events captured");
    assert_eq!(agg.runs, 3, "one phase run per backend");
    assert!(agg.wall_ns > 0 && agg.rounds > 0 && agg.words > 0);

    // Per-round link events from every backend, with consistent histograms
    // and per-round skew (max >= mean on every round).
    for backend in ["inmemory", "tcp", "socket"] {
        let t = snap
            .transports
            .get(backend)
            .unwrap_or_else(|| panic!("{backend} rounds captured: {:?}", snap.transports.keys()));
        assert!(t.rounds > 0, "{backend}: transport rounds");
        assert!(t.words > 0 && t.max_link > 0);
        assert!(t.max_skew >= 1.0, "{backend}: max link >= mean link");
        assert!(t.hist.total() > 0, "{backend}: link histogram populated");
        assert!(t.barrier_ns > 0, "{backend}: barrier wall-clock");
    }
    // Frame batches are what the process fabric puts on the wire (Full
    // level).
    for backend in ["socket", "tcp"] {
        let wire = &snap.transports[backend];
        assert!(wire.frame_batches > 0, "{backend} coalesces frame batches");
        assert!(wire.frame_bytes > 0);
    }
    assert_eq!(snap.transports["inmemory"].frame_batches, 0);

    // Executor fan-out decisions at Full: with cutover 2 both sides of the
    // boundary occur in a real run.
    assert!(
        snap.dispatch.inline + snap.dispatch.dispatched > 0,
        "dispatch decisions captured"
    );
    assert!(snap.dispatch.pieces > 0);

    // Node-local kernel decisions at Full: the fast-MM local products must
    // have dispatched through the CC_KERNEL seam, and the counter aggregates
    // in the capture.
    assert!(
        mem.counter("kernel_decisions") > 0,
        "kernel decisions captured"
    );

    // NodeProgram algorithms drive the engine's round barrier; run one to
    // capture EngineRound events with step and barrier wall-clock.
    let mut clique = Clique::with_config(n, cfg(TransportKind::InMemory));
    let t = count_triangles_program(&mut clique, &g);
    assert_eq!(t, expected, "program answer intact under tracing");
    let engine = mem.snapshot().engine;
    assert!(engine.barriers > 0, "engine rounds captured");
    assert!(engine.step_ns > 0, "per-round step wall-clock");
    assert!(engine.barrier_ns > 0, "per-round barrier wall-clock");
    assert!(engine.words > 0, "engine rounds carried traffic");
    assert_ring_round_trips(&mem.snapshot());
}

#[test]
fn service_drain_publishes_cache_and_pool_gauges() {
    let mem = sink();
    let n = 12;
    let g = generators::gnp(n, 0.5, 11);
    let mut svc = Service::new(ServiceConfig {
        mode: ServiceMode::Batch { instances: 2 },
        ..ServiceConfig::default()
    });
    let gid = svc.register(g);
    // Duplicates exercise coalescing; two kinds exercise the fan-out.
    let tickets: Vec<_> = [
        Query::TriangleCount,
        Query::TriangleCount,
        Query::ApspTable,
        Query::Distance { s: 0, t: n - 1 },
    ]
    .into_iter()
    .map(|q| svc.submit(gid, q))
    .collect();
    svc.drain();
    for t in tickets {
        assert!(svc.take(t).is_some(), "drained batch resolves tickets");
    }
    // Second identical batch: pure cache hits, gauges move.
    svc.query(gid, Query::TriangleCount);

    let stats = svc.stats();
    assert!(stats.cache_entries >= 2, "triangles + apsp cached");
    assert!(stats.cache_bytes > 0);
    assert_eq!(stats.cache_entries, svc.cached_computations() as u64);
    assert_eq!(stats.cache_bytes, svc.cache_bytes());
    // The APSP tables dominate: two n×n matrices of at least word size.
    assert!(
        stats.cache_bytes >= (n * n) as u64,
        "byte gauge sees the tables: {}",
        stats.cache_bytes
    );

    assert_eq!(
        mem.gauge("service_cache_entries"),
        Some(stats.cache_entries as f64)
    );
    assert_eq!(
        mem.gauge("service_cache_bytes"),
        Some(stats.cache_bytes as f64)
    );
    let hit_rate = mem.gauge("service_hit_rate").expect("hit rate gauge");
    assert!(hit_rate > 0.0 && hit_rate < 1.0, "hit rate {hit_rate}");
    let coalesce = mem.gauge("service_coalesce_ratio").expect("coalesce gauge");
    assert!(coalesce > 0.0, "duplicate submissions coalesced");
    assert!(mem.gauge("service_pool_built").unwrap_or(0.0) >= 1.0);
    assert!(mem.gauge("service_pool_idle").unwrap_or(0.0) >= 1.0);
    assert!(
        mem.gauge("service_batch_ns_per_query").unwrap_or(0.0) > 0.0,
        "per-query latency gauge"
    );
}

#[test]
fn clique_reset_emits_a_reset_marker() {
    let mem = sink();
    let n = 8;
    let g = generators::gnp(n, 0.5, 21);
    let mut clique = Clique::with_config(n, cfg(TransportKind::InMemory));
    let t = clique.phase("capture.reset-run", |c| count_triangles(c, &g));
    assert_eq!(t, oracle::count_triangles(&g));
    let discarded = clique.rounds();
    assert!(discarded > 0, "the run accrued rounds to discard");

    let before = mem.counter("clique_resets");
    clique.reset();
    assert_eq!(clique.rounds(), 0, "reset zeroes the accounting");
    assert_eq!(
        mem.counter("clique_resets"),
        before + 1,
        "reset marker counted"
    );
    // The raw marker carries the discarded totals (the ring holds the most
    // recent RECENT_CAP events, far more than this test emits after reset).
    let snap = mem.snapshot();
    assert!(
        snap.recent.iter().any(|e| matches!(
            e,
            telemetry::Event::Reset { rounds, words, .. }
                if *rounds == discarded && *words > 0
        )),
        "Reset event with the discarded totals in the ring"
    );
}

#[test]
fn tcp_peer_resident_capture_attributes_worker_events() {
    let mem = sink();
    let n = 12;
    let g = generators::gnp(n, 0.45, 13);
    let expected = oracle::count_triangles(&g);
    let workers = 2;

    let mut clique = Clique::with_config(
        n,
        cfg(TransportKind::Tcp {
            workers,
            resident: true,
            addr: None,
        }),
    );
    let t = count_triangles_program(&mut clique, &g);
    assert_eq!(t, expected, "resident answer intact under tracing");
    // The final telemetry snapshots ride the shutdown drain; drop the
    // clique so the orchestrator merges them before we look.
    drop(clique);

    let snap = mem.snapshot();
    // The distributed capture attributed events to every worker process:
    // each one stepped resident rounds and shipped mesh frame batches.
    for id in 0..workers as u32 {
        let agg = snap.workers.get(&id).unwrap_or_else(|| {
            panic!(
                "worker {id} attributed in the merge: {:?}",
                snap.workers.keys()
            )
        });
        assert!(
            agg.resident_rounds > 0,
            "worker {id}: resident rounds captured worker-side"
        );
        assert!(
            agg.frame_batches > 0 && agg.frame_bytes > 0,
            "worker {id}: peer-mesh frame batches captured worker-side"
        );
        assert!(agg.events > 0 && agg.peer_bytes > 0);
    }
    // Worker-attributed events never leak into the orchestrator's global
    // transport aggregates (they would double-count the fabric).
    assert_eq!(
        snap.transports
            .get("inmemory")
            .map_or(0, |t| t.frame_batches),
        0
    );
    // The orchestrator measured its barrier lanes, so the critical path
    // over the resident epochs is derivable.
    assert!(
        snap.critical_path().iter().any(|p| p.backend == "tcp"),
        "tcp barrier lanes captured: {:?}",
        snap.lanes.keys()
    );
    assert!(
        snap.recent
            .iter()
            .any(|e| matches!(e, telemetry::Event::Worker { .. })),
        "merged worker events in the ring"
    );
    assert_ring_round_trips(&snap);
}

#[test]
fn malformed_env_warnings_flow_into_the_capture() {
    let mem = sink();
    let before = mem.counter("config_warnings");
    // Route a warn-once through the shared helper with a variable no other
    // layer owns; with telemetry installed it must land in the sink, not
    // on stderr.
    telemetry::env_config::warn_once(
        "trace-capture-test",
        "CC_TRACE_CAPTURE_FAKE_VAR",
        "banana",
        "a real value",
        "fallback",
    );
    assert_eq!(mem.counter("config_warnings"), before + 1);
    let snap = mem.snapshot();
    assert!(
        snap.warnings
            .iter()
            .any(|w| w.contains("CC_TRACE_CAPTURE_FAKE_VAR=\"banana\"")),
        "warning text captured: {:?}",
        snap.warnings
    );
    // Warn-once: a second report for the same variable is suppressed.
    telemetry::env_config::warn_once(
        "trace-capture-test",
        "CC_TRACE_CAPTURE_FAKE_VAR",
        "banana",
        "a real value",
        "fallback",
    );
    assert_eq!(mem.counter("config_warnings"), before + 1);
}
