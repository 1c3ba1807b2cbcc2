//! Multi-process congested clique simulation over real sockets, end to end.
//!
//! The process fabric (`StreamTransport`) turns one simulation into a little
//! distributed system: a parent orchestrator (this process) plus worker
//! processes (`cc-clique-node` over unix sockets, `cc-clique-host` over
//! TCP — one handshake, one round protocol), each simulating a contiguous
//! shard of nodes. Every round's
//! traffic crosses real OS sockets as length-prefixed frames, and the
//! round barrier is a **round-commit token** — the parent charges a round
//! only after every worker has committed its epoch.
//!
//! The first demonstration runs the paper's triangle counting and APSP on
//! three fabrics — shared memory, unix-socket worker processes, and TCP
//! worker processes — and shows the determinism
//! contract: identical counts, distances, rounds, words, and barrier
//! epochs, regardless of where the words physically travelled.
//!
//! The second demonstration conditions the multi-process fabric with the
//! `cc-netsim` **lossy profile**: every link drops words with seeded
//! probability and redelivers them with exponential backoff in simulated
//! time — yet counts, distances, rounds, words, and barrier epochs stay
//! bit-identical to the clean run. Only the new `sim_time_ns` column and
//! the retransmit counter move, and those are pure functions of the
//! netsim seed.
//!
//! The third demonstration is the TCP fabric's **peer-resident mode**:
//! the triangle [`NodeProgram`] shards are serialized and shipped to the
//! workers once, per-round messages flow worker → worker over direct peer
//! links from an orchestrator-distributed routing table, and the
//! orchestrator only brokers the barrier — so its per-round payload byte
//! count drops to zero while the star topology carries every word.
//!
//! Run with: `cargo run --release --example multi_process`
//! (the worker binaries are built automatically as part of the workspace).
//! For a real multi-host run, see the facade's "Transport layer" docs
//! (`CC_TCP_EXTERN=1` plus one `cc-clique-host` per remote worker).
//!
//! [`NodeProgram`]: congested_clique::runtime::NodeProgram

use congested_clique::apsp::apsp_exact;
use congested_clique::clique::{Clique, CliqueConfig, NetsimConfig, NetsimProfile, TransportKind};
use congested_clique::graph::generators;
use congested_clique::subgraph::{count_triangles, count_triangles_program};

fn main() {
    let n = 24;
    let graph = generators::gnp(n, 0.3, 7);
    let weighted = generators::weighted_gnp(n, 0.3, 9, true, 11);

    println!("=== pluggable transports: one simulation, three fabrics ===\n");
    let mut reference = None;
    for (label, kind) in [
        (
            "inmemory (shared-memory slab move)",
            TransportKind::InMemory,
        ),
        (
            "socket   (4 worker processes over unix sockets)",
            TransportKind::Socket { workers: 4 },
        ),
        (
            "tcp      (4 worker processes over TCP streams)",
            TransportKind::Tcp {
                workers: 4,
                resident: false,
                addr: None,
            },
        ),
    ] {
        let cfg = CliqueConfig {
            transport: kind,
            ..CliqueConfig::default()
        };
        let mut clique = Clique::with_config(n, cfg);
        let triangles = count_triangles(&mut clique, &graph);
        let tables = apsp_exact(&mut clique, &weighted);
        let reach: usize = (0..n)
            .map(|v| tables.dist.row(v).iter().filter(|d| d.is_finite()).count())
            .sum();
        let outcome = (
            triangles,
            reach,
            clique.rounds(),
            clique.stats().words(),
            clique.transport_epochs(),
        );
        println!(
            "{label}\n    triangles = {triangles}, finite distances = {reach}, rounds = {}, \
             words = {}, barrier epochs = {}\n",
            outcome.2, outcome.3, outcome.4
        );
        match &reference {
            None => reference = Some(outcome),
            Some(r) => assert_eq!(
                r, &outcome,
                "the determinism contract: every fabric reports identical results"
            ),
        }
    }

    println!("all three fabrics agree bit-for-bit — transport is a deployment choice,");
    println!("not a semantics choice. CC_TRANSPORT=tcp retargets any run of this suite.\n");

    println!("=== netsim: the same worker processes behind a lossy network ===\n");
    let cfg = CliqueConfig {
        transport: TransportKind::Socket { workers: 4 },
        netsim: NetsimConfig {
            profile: NetsimProfile::Lossy,
            seed: 7,
        },
        ..CliqueConfig::default()
    };
    let mut clique = Clique::with_config(n, cfg);
    let triangles = count_triangles(&mut clique, &graph);
    let tables = apsp_exact(&mut clique, &weighted);
    let reach: usize = (0..n)
        .map(|v| tables.dist.row(v).iter().filter(|d| d.is_finite()).count())
        .sum();
    let outcome = (
        triangles,
        reach,
        clique.rounds(),
        clique.stats().words(),
        clique.transport_epochs(),
    );
    println!(
        "socket + CC_NETSIM=lossy:7 (8% word loss, retransmit with simulated backoff)\n    \
         triangles = {triangles}, finite distances = {reach}, rounds = {}, words = {}, \
         barrier epochs = {}\n    simulated time = {:.3} ms, retransmits = {}\n",
        outcome.2,
        outcome.3,
        outcome.4,
        clique.sim_time_ns() as f64 / 1e6,
        clique.net_retransmits(),
    );
    assert_eq!(
        reference.as_ref(),
        Some(&outcome),
        "a lossy network must not change anything an observer can see"
    );
    assert!(
        clique.net_retransmits() > 0,
        "the lossy profile retransmits"
    );
    println!("loss was absorbed by retransmission entirely inside the netsim layer:");
    println!("identical answers and accounting, with the damage visible only in the");
    println!("simulated-time and retransmit columns.\n");

    println!("=== peer-resident TCP: the orchestrator leaves the data path ===\n");
    let mut star_reference = None;
    for (label, resident) in [
        (
            "tcp star mode     (every word transits the orchestrator)",
            false,
        ),
        (
            "tcp peer-resident (programs shipped once, words flow peer-to-peer)",
            true,
        ),
    ] {
        let cfg = CliqueConfig {
            transport: TransportKind::Tcp {
                workers: 4,
                resident,
                addr: None,
            },
            ..CliqueConfig::default()
        };
        let mut clique = Clique::with_config(n, cfg);
        let triangles = count_triangles_program(&mut clique, &graph);
        let outcome = (
            triangles,
            clique.rounds(),
            clique.stats().words(),
            clique.transport_epochs(),
        );
        let through_orchestrator = clique.orchestrator_bytes();
        println!(
            "{label}\n    triangles = {triangles}, rounds = {}, words = {}, barrier epochs = {}, \
             payload bytes through orchestrator = {through_orchestrator}\n",
            outcome.1, outcome.2, outcome.3
        );
        if resident {
            assert_eq!(
                through_orchestrator, 0,
                "peer-resident rounds must bypass the orchestrator"
            );
            assert_eq!(
                star_reference.as_ref(),
                Some(&outcome),
                "star and peer-resident modes must agree bit-for-bit"
            );
        } else {
            assert!(
                through_orchestrator > 0,
                "star mode carries the rounds' words through the orchestrator"
            );
            star_reference = Some(outcome);
        }
    }

    println!("same answer, same accounting, same barrier epochs — but in peer-resident");
    println!("mode the orchestrator brokered the barrier without touching a payload byte.");
}
