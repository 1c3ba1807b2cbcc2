//! What the orchestrating process observes at its round barriers: every
//! barrier it commits — a closure primitive's flush, a classical engine
//! round — emits one `TransportRound` trace event, and every round the
//! fabric commits, resident sessions included, is shown to the simulated
//! link conditions exactly once.
//!
//! This file is its own test binary on purpose: the telemetry handle is
//! process-global and first-install-wins, and `trace_capture.rs` runs its
//! tests concurrently against one shared sink, so exact event counts need
//! a process of their own.

use congested_clique::clique::{
    Clique, CliqueConfig, ExecutorKind, NetsimConfig, NetsimProfile, TransportKind,
};
use congested_clique::graph::{generators, oracle};
use congested_clique::subgraph::{count_triangles, count_triangles_program};
use congested_clique::telemetry::{self, Telemetry, TraceLevel};

#[test]
fn every_committed_round_is_traced_and_conditioned_once() {
    telemetry::install(Telemetry::with_memory(TraceLevel::Full))
        .expect("the only install in this binary");
    let mem = telemetry::global().memory().expect("memory-backed handle");

    let n = 16;
    let g = generators::gnp(n, 0.4, 7);
    let expected = oracle::count_triangles(&g);
    let lossy = |transport| {
        Clique::with_config(
            n,
            CliqueConfig {
                executor: ExecutorKind::Sequential,
                transport,
                netsim: NetsimConfig {
                    profile: NetsimProfile::Lossy,
                    seed: 11,
                },
                ..CliqueConfig::default()
            },
        )
    };

    // (a) closure primitives, (b) the engine's classical loop, both in
    // memory; (c) the same program as a resident peer-mesh session.
    let mut closure = lossy(TransportKind::InMemory);
    let mut classical = lossy(TransportKind::InMemory);
    let mut resident = lossy(TransportKind::Tcp {
        workers: 2,
        resident: true,
        addr: None,
    });
    assert_eq!(count_triangles(&mut closure, &g), expected);
    let counts = [
        count_triangles_program(&mut classical, &g),
        count_triangles_program(&mut resident, &g),
    ];
    assert_eq!(counts, [expected; 2]);

    let snap = mem.snapshot();
    assert_eq!(
        snap.transports["inmemory"].rounds,
        closure.transport_epochs() + classical.transport_epochs(),
        "one TransportRound per in-memory barrier, closure and engine alike"
    );
    assert_eq!(
        snap.netsim.rounds,
        closure.transport_epochs() + classical.transport_epochs() + resident.transport_epochs(),
        "one NetsimRound per committed round, resident rounds included"
    );

    let observed = |c: &Clique| {
        (
            c.rounds(),
            c.stats().words(),
            c.transport_epochs(),
            c.sim_time_ns(),
            c.net_retransmits(),
        )
    };
    assert_eq!(observed(&classical), observed(&resident));
    assert!(classical.sim_time_ns() > 0);
}
