//! Cross-backend equivalence at the transport level: for any round
//! sequence, every fabric — and every decorator around one — must reproduce
//! the in-memory fabric's deliveries and accounting bit for bit, including
//! empty rounds, self messages, broadcast lanes, and rounds that mix
//! word-at-a-time sends with whole slabs.

use cc_netsim::{NetsimConfig, NetsimProfile, NetsimTransport};
use cc_runtime::{Executor, ExecutorKind};
use cc_transport::{LinkSlab, RoundDelivery, TracedTransport, Transport, TransportKind};
use proptest::prelude::*;

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A pseudo-random slab for round `r`: a few runs per source, with self
/// messages, empty runs and repeated `(src, dst)` pairs all possible.
fn slab_for(n: usize, r: u64, seed: u64) -> LinkSlab {
    let mut runs: Vec<(usize, usize, Vec<u64>)> = Vec::new();
    for src in 0..n {
        let h = splitmix(seed ^ 0x51ab ^ (r << 32) ^ src as u64);
        for shot in 0..h % 3 {
            let hh = splitmix(h ^ shot);
            let dst = (hh % n as u64) as usize;
            runs.push((src, dst, (0..(hh >> 8) % 4).map(|j| hh ^ j).collect()));
        }
    }
    LinkSlab::from_runs(n, runs.iter().map(|(s, d, w)| (*s, *d, w.as_slice())))
}

/// Drives `rounds` pseudo-random rounds (unicast bursts, self messages,
/// broadcast slabs, a whole slab sent between the bursts, and one
/// deliberately empty round) and returns every round's delivery.
fn drive(t: &mut dyn Transport, n: usize, rounds: u64, seed: u64) -> Vec<RoundDelivery> {
    let start = t.epoch();
    let mut out = Vec::new();
    for r in 0..rounds {
        if r == 1 {
            // An empty round: the rendezvous must still fire.
            out.push(t.finish_round());
            continue;
        }
        // Sends from the low half of the nodes, then a slab, then the rest:
        // every link must concatenate the three in call order.
        for half in [0..n / 2, n / 2..n] {
            for src in half.clone() {
                let h = splitmix(seed ^ (r << 32) ^ src as u64);
                for shot in 0..h % 4 {
                    let hh = splitmix(h ^ shot);
                    let dst = (hh % n as u64) as usize;
                    let words: Vec<u64> = (0..1 + (hh >> 8) % 5).map(|j| hh ^ j).collect();
                    t.send(src, dst, &words);
                }
                if h.is_multiple_of(3) {
                    let slab: Vec<u64> = (0..1 + h % 3).map(|j| h.wrapping_mul(j + 1)).collect();
                    t.broadcast(src, slab.into());
                }
            }
            if half.start == 0 {
                t.send_slab(slab_for(n, r, seed));
            }
        }
        out.push(t.finish_round());
    }
    assert_eq!(t.epoch(), start + rounds);
    out
}

fn sequential() -> Executor {
    Executor::new(ExecutorKind::Sequential)
}

fn tcp(resident: bool) -> TransportKind {
    tcp_workers(2, resident)
}

fn tcp_workers(workers: usize, resident: bool) -> TransportKind {
    TransportKind::Tcp {
        workers,
        resident,
        addr: None,
    }
}

/// Rounds chosen for what a star worker's shard frame has to get right:
/// seven nodes over three workers own destinations `0..2`, `2..4`, `4..7`.
fn drive_shard_edges(t: &mut dyn Transport) -> Vec<RoundDelivery> {
    let n = 7;
    let mut out = Vec::new();
    // Every link loaded, self-links included, a different length on each.
    let dense: Vec<(usize, usize, Vec<u64>)> = (0..n * n)
        .map(|at| (at % n, at / n, (0..at as u64 % 4 + 1).collect()))
        .collect();
    t.send_slab(LinkSlab::from_runs(
        n,
        dense.iter().map(|(s, d, w)| (*s, *d, w.as_slice())),
    ));
    out.push(t.finish_round());
    // The middle worker's shard receives nothing.
    t.send(3, 0, &[1, 2, 3]);
    t.send(2, 6, &[u64::MAX]);
    t.send(0, 1, &[4]);
    out.push(t.finish_round());
    // A broadcast-only round: no shard is shipped to anyone.
    t.broadcast(5, vec![7, 8].into());
    t.broadcast(1, vec![9].into());
    out.push(t.finish_round());
    // Self-links only: delivered on every shard, charged nowhere.
    for node in [0, 3, 6] {
        t.send(node, node, &[node as u64; 2]);
    }
    out.push(t.finish_round());
    // Unicast, self and broadcast words together on one link's source.
    t.send(4, 4, &[1]);
    t.send(4, 2, &[2, 3]);
    t.broadcast(4, vec![5].into());
    out.push(t.finish_round());
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn socket_and_tcp_match_inmemory(
        n in 2usize..10,
        rounds in 1u64..5,
        seed in 0u64..1_000_000,
        workers in 1usize..4,
    ) {
        let mut reference = TransportKind::InMemory.build(n, sequential());
        let expected = drive(&mut *reference, n, rounds, seed);
        for kind in [tcp_workers(workers, false), TransportKind::Socket { workers }] {
            let mut t = kind.build(n, sequential());
            let got = drive(&mut *t, n, rounds, seed);
            prop_assert_eq!(&got, &expected, "{:?} diverged", kind);
        }
    }
}

#[test]
fn slab_rounds_match_on_every_transport_and_under_decorators() {
    let (n, rounds) = (7, 4);
    for seed in [3, 77, 4_242] {
        let mut reference = TransportKind::InMemory.build(n, sequential());
        let expected = drive(&mut *reference, n, rounds, seed);
        assert!(
            expected.iter().any(|rd| rd.unicast.total_words() > 0),
            "the pattern must actually carry traffic"
        );
        for kind in [
            TransportKind::Socket { workers: 1 },
            TransportKind::Socket { workers: 3 },
            tcp(false),
            tcp_workers(3, false),
            tcp(true),
        ] {
            let mut t = kind.build(n, sequential());
            assert_eq!(drive(&mut *t, n, rounds, seed), expected, "{kind:?}");
        }
        // A decorator that did not forward `send_slab` faithfully would
        // drop or reorder the slab's words here.
        let lossy = NetsimConfig {
            profile: NetsimProfile::Lossy,
            seed,
        };
        let decorated: [(&str, Box<dyn Transport>); 3] = [
            (
                "traced",
                Box::new(TracedTransport::new(
                    TransportKind::InMemory.build(n, sequential()),
                )),
            ),
            (
                "netsim(lossy)",
                NetsimTransport::wrap(TransportKind::InMemory.build(n, sequential()), lossy),
            ),
            (
                "netsim(lossy) over traced tcp",
                NetsimTransport::wrap(
                    Box::new(TracedTransport::new(tcp(false).build(n, sequential()))),
                    lossy,
                ),
            ),
        ];
        for (name, mut t) in decorated {
            assert_eq!(drive(&mut *t, n, rounds, seed), expected, "{name}");
        }
    }
}

#[test]
fn star_shards_match_inmemory_on_uneven_and_sparse_rounds() {
    let n = 7;
    let mut reference = TransportKind::InMemory.build(n, sequential());
    let expected = drive_shard_edges(&mut *reference);
    let charged: Vec<(u64, u64)> = expected
        .iter()
        .map(|rd| (rd.loads.rounds(), rd.loads.words()))
        .collect();
    assert_eq!(charged, vec![(4, 114), (3, 5), (2, 18), (0, 0), (3, 8)]);
    assert_eq!(expected[3].unicast.total_words(), 6, "self-links deliver");
    for kind in [
        TransportKind::Socket { workers: 3 },
        tcp_workers(3, false),
        TransportKind::Socket { workers: 7 },
    ] {
        let mut t = kind.build(n, sequential());
        let got = drive_shard_edges(&mut *t);
        assert_eq!(got, expected, "{kind:?}");
        for rd in &got {
            let links: Vec<_> = rd.loads.iter().map(|(s, d, _)| (s, d)).collect();
            assert!(
                links.windows(2).all(|w| w[0] < w[1]),
                "{kind:?} loads must be in canonical (src, dst) order"
            );
        }
        assert!(t.orchestrator_bytes() > 0);
    }
}

#[test]
fn loads_are_canonical_on_every_backend() {
    for kind in [
        TransportKind::InMemory,
        tcp(false),
        TransportKind::Socket { workers: 2 },
    ] {
        let mut t = kind.build(5, Executor::new(ExecutorKind::Sequential));
        t.send(3, 1, &[1, 2]);
        t.send(0, 4, &[7]);
        t.broadcast(2, vec![9].into());
        t.send(1, 1, &[5]); // self: free
        let rd = t.finish_round();
        let got: Vec<_> = rd.loads.iter().collect();
        assert_eq!(
            got,
            vec![
                (0, 4, 1),
                (2, 0, 1),
                (2, 1, 1),
                (2, 3, 1),
                (2, 4, 1),
                (3, 1, 2)
            ],
            "{kind:?} loads must be in canonical (src, dst) order"
        );
        assert_eq!(rd.unicast.link(1, 1), &[5], "self delivery");
    }
}

#[test]
fn single_node_clique_is_all_self_traffic() {
    // Degenerate but legal at the transport level: everything is a local
    // move, nothing is ever charged.
    for kind in [
        TransportKind::InMemory,
        tcp_workers(1, false),
        TransportKind::Socket { workers: 1 },
    ] {
        let mut t = kind.build(1, Executor::new(ExecutorKind::Sequential));
        t.send(0, 0, &[1, 2, 3]);
        t.broadcast(0, vec![4].into());
        let rd = t.finish_round();
        assert_eq!(rd.loads.words(), 0, "{kind:?}");
        assert_eq!(rd.unicast.link(0, 0), &[1, 2, 3]);
        assert_eq!(&*rd.broadcast[0][0], &[4]);
    }
}
