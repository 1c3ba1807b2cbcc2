//! Stress tests for the balanced router and the gossip primitive under
//! adversarially skewed load patterns: the routing guarantee the paper
//! borrows from Lenzen — `O(⌈L/n⌉)` rounds for per-node loads `L` — must
//! hold (up to small constants) regardless of how the load is shaped.

use cc_clique::{route_schedule_stats, Clique, CliqueConfig, Outbox, RelayPolicy};
use std::sync::{Barrier, Mutex, MutexGuard, PoisonError};

/// The relay-schedule cache and its counters are process-wide and every test
/// in this file routes, so every test takes this lock: the cache tests can
/// then assert exact hit, miss and byte deltas.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Ideal rounds for a routing instance: `max(out, in) / n`, the
/// information-theoretic floor.
fn ideal(per_node_load: usize, n: usize) -> u64 {
    per_node_load.div_ceil(n) as u64
}

#[test]
fn single_hot_destination() {
    let _serial = serial();
    // Every node sends its full budget to ONE destination: in-load n·L at
    // the target. Rounds must track the receiver bottleneck, not explode.
    let n = 64;
    let per_src = 2 * n;
    let mut c = Clique::new(n);
    c.route(|v| {
        if v == 0 {
            vec![]
        } else {
            vec![(0, vec![v as u64; per_src])]
        }
    });
    let floor = ideal((n - 1) * per_src, n);
    assert!(
        c.rounds() <= 3 * floor + 8,
        "hot destination: {} rounds vs floor {floor}",
        c.rounds()
    );
}

#[test]
fn single_hot_source() {
    let _serial = serial();
    let n = 64;
    let mut c = Clique::new(n);
    c.route(|v| {
        if v != 0 {
            return vec![];
        }
        (1..n)
            .map(|u| (u, vec![u as u64; 2 * n / (n - 1) + 1]))
            .collect()
    });
    assert!(
        c.rounds() <= 16,
        "hot source should still be ~O(1): {}",
        c.rounds()
    );
}

#[test]
fn permutation_pattern_is_cheap() {
    let _serial = serial();
    // One word per node to a permuted destination: the lightest possible
    // routing instance; must be a handful of rounds.
    let n = 128;
    let mut c = Clique::new(n);
    c.route(|v| vec![((v * 37 + 11) % n, vec![v as u64])]);
    assert!(
        c.rounds() <= 6,
        "permutation routing took {} rounds",
        c.rounds()
    );
}

#[test]
fn block_scatter_matches_theory() {
    let _serial = serial();
    // The 3D algorithm's shape: each node sends n/p words to p² peers.
    let n = 125;
    let p = 5;
    let chunk = n / p;
    let mut c = Clique::new(n);
    c.route(|v| {
        (0..p * p)
            .map(|k| ((v + k * p + 1) % n, vec![0u64; chunk]))
            .collect()
    });
    let floor = ideal(p * p * chunk, n);
    assert!(
        c.rounds() <= 3 * floor + 8,
        "block scatter: {} rounds vs floor {floor}",
        c.rounds()
    );
}

#[test]
fn two_choice_beats_single_hash_on_balanced_loads() {
    let _serial = serial();
    let n = 64;
    let run = |policy: RelayPolicy| {
        let cfg = CliqueConfig {
            relay_policy: policy,
            ..CliqueConfig::default()
        };
        let mut c = Clique::with_config(n, cfg);
        c.route(|v| {
            (0..n)
                .filter(|&u| u != v)
                .map(|u| (u, vec![v as u64; 2]))
                .collect()
        });
        c.rounds()
    };
    assert!(run(RelayPolicy::TwoChoice) <= run(RelayPolicy::SingleHash));
}

#[test]
fn gossip_with_empty_and_uneven_contributions() {
    let _serial = serial();
    let n = 32;
    let mut c = Clique::new(n);
    let all = c.gossip(|v| {
        if v % 3 == 0 {
            vec![v as u64; v + 1]
        } else {
            vec![]
        }
    });
    let expect: usize = (0..n).filter(|v| v % 3 == 0).map(|v| v + 1).sum();
    assert_eq!(all.len(), expect);
    // Also the degenerate all-empty case.
    let mut c2 = Clique::new(n);
    let nothing = c2.gossip(|_| vec![]);
    assert!(nothing.is_empty());
    assert_eq!(c2.rounds(), 0);
}

#[test]
fn route_preserves_per_source_order() {
    let _serial = serial();
    let n = 16;
    let mut c = Clique::new(n);
    let inbox = c.route(|v| vec![((v + 1) % n, (0..10).map(|j| (v * 100 + j) as u64).collect())]);
    for v in 0..n {
        let got = inbox.received((v + 1) % n, v);
        let expect: Vec<u64> = (0..10).map(|j| (v * 100 + j) as u64).collect();
        assert_eq!(got, expect.as_slice(), "order from source {v}");
    }
}

#[test]
fn repeated_routes_accumulate_rounds_monotonically() {
    let _serial = serial();
    let n = 16;
    let mut c = Clique::new(n);
    let mut last = 0;
    for step in 0..5 {
        c.route(|v| vec![((v + step + 1) % n, vec![step as u64])]);
        assert!(c.rounds() > last, "rounds must strictly grow per step");
        last = c.rounds();
    }
}

/// The word-at-a-time router the slab router replaced, kept as the oracle:
/// the same hash, the same two-choice rule and the same iteration order, but
/// every word is pushed onto its own `Vec` in an `n × n` queue matrix, once
/// per phase, and the accounting is read off the queue lengths.
mod reference {
    use cc_clique::RelayPolicy;

    pub fn splitmix(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    #[derive(Debug, PartialEq, Eq)]
    pub struct Outcome {
        /// `inboxes[dst][src]`.
        pub inboxes: Vec<Vec<Vec<u64>>>,
        pub rounds: u64,
        pub words: u64,
        pub fingerprints: Vec<u64>,
    }

    /// Charges one drained queue matrix (`queues[dst * n + src]`): rounds
    /// are the longest non-self queue, the fingerprint is FNV-1a over the
    /// `(src, dst, len)` triples in canonical `(src, dst)` order.
    fn charge(n: usize, queues: &[Vec<u64>], out: &mut Outcome) {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut longest = 0;
        for src in 0..n {
            for dst in (0..n).filter(|&dst| dst != src) {
                let len = queues[dst * n + src].len() as u64;
                if len > 0 {
                    for x in [src as u64, dst as u64, len] {
                        h = (h ^ x).wrapping_mul(0x0000_0100_0000_01b3);
                    }
                    longest = longest.max(len);
                    out.words += len;
                }
            }
        }
        out.rounds += longest;
        out.fingerprints.push(h);
    }

    pub fn route(
        n: usize,
        seed: u64,
        policy: RelayPolicy,
        dynamic: bool,
        messages: &[Vec<(usize, Vec<u64>)>],
    ) -> Outcome {
        let mut out = Outcome {
            inboxes: vec![vec![Vec::new(); n]; n],
            rounds: 0,
            words: 0,
            fingerprints: Vec::new(),
        };
        let payload = if dynamic { 2 } else { 1 };
        let mut a_out = vec![0usize; n * n];
        let mut b_out = vec![0usize; n * n];
        let mut phase_a: Vec<Vec<u64>> = vec![Vec::new(); n * n];
        let mut phase_b: Vec<Vec<u64>> = vec![Vec::new(); n * n];
        for (src, msgs) in messages.iter().enumerate() {
            for (dst, words) in msgs {
                for (j, &w) in words.iter().enumerate() {
                    let h =
                        splitmix(seed ^ ((src as u64) << 42) ^ ((*dst as u64) << 21) ^ j as u64);
                    let r1 = (h % n as u64) as usize;
                    let relay = match policy {
                        RelayPolicy::SingleHash => r1,
                        RelayPolicy::TwoChoice => {
                            let r2 = ((h >> 32) % n as u64) as usize;
                            let cost = |r: usize| a_out[src * n + r].max(b_out[r * n + dst]);
                            if cost(r1) <= cost(r2) {
                                r1
                            } else {
                                r2
                            }
                        }
                    };
                    a_out[src * n + relay] += payload;
                    b_out[relay * n + dst] += payload;
                    for queue in [&mut phase_a[relay * n + src], &mut phase_b[dst * n + relay]] {
                        queue.push(w);
                        if dynamic {
                            queue.push(*dst as u64);
                        }
                    }
                }
                out.inboxes[*dst][src].extend(words);
            }
        }
        charge(n, &phase_a, &mut out);
        charge(n, &phase_b, &mut out);
        out
    }
}

/// A seeded pattern with every shape the router must survive: self
/// messages, empty messages, repeated `(src, dst)` pairs, silent nodes, and
/// one hot link carrying many times the average load.
fn stress_pattern(n: usize, seed: u64) -> Vec<Vec<(usize, Vec<u64>)>> {
    let mut state = seed;
    let mut draw = |below: usize| {
        state = reference::splitmix(state);
        (state % below as u64) as usize
    };
    let mut messages: Vec<Vec<(usize, Vec<u64>)>> = (0..n)
        .map(|v| {
            (0..draw(6))
                .map(|_| {
                    let dst = match draw(8) {
                        0 => v,           // self message
                        1 => (v + 1) % n, // repeats across draws
                        _ => draw(n),
                    };
                    let len = draw(5); // 0 = empty message
                    (dst, (0..len).map(|_| draw(1 << 40) as u64).collect())
                })
                .collect()
        })
        .collect();
    messages[2].push((5, (0..8 * n as u64).collect())); // the hot link
    messages[2].push((5, vec![7, 7])); // and a repeat on it
    messages
}

fn cfg(policy: RelayPolicy, route_seed: u64) -> CliqueConfig {
    CliqueConfig {
        relay_policy: policy,
        route_seed,
        record_patterns: true,
        ..CliqueConfig::default()
    }
}

/// Routes `messages` on a fresh clique and reports everything the reference
/// router reports.
fn routed(
    n: usize,
    cfg: &CliqueConfig,
    dynamic: bool,
    messages: &[Vec<(usize, Vec<u64>)>],
) -> reference::Outcome {
    let mut c = Clique::with_config(n, cfg.clone());
    let inbox = if dynamic {
        c.route_dynamic(|v| messages[v].clone())
    } else {
        c.route(|v| messages[v].clone())
    };
    reference::Outcome {
        inboxes: (0..n)
            .map(|dst| {
                (0..n)
                    .map(|src| inbox.received(dst, src).to_vec())
                    .collect()
            })
            .collect(),
        rounds: c.rounds(),
        words: c.stats().words(),
        fingerprints: c.stats().pattern_fingerprints().to_vec(),
    }
}

fn expected(
    n: usize,
    cfg: &CliqueConfig,
    dynamic: bool,
    messages: &[Vec<(usize, Vec<u64>)>],
) -> reference::Outcome {
    reference::route(n, cfg.route_seed, cfg.relay_policy, dynamic, messages)
}

#[test]
fn slab_router_matches_the_word_at_a_time_reference() {
    let _serial = serial();
    let n = 13;
    for seed in [1u64, 7, 23] {
        let messages = stress_pattern(n, seed);
        for policy in [RelayPolicy::SingleHash, RelayPolicy::TwoChoice] {
            for dynamic in [false, true] {
                let cfg = cfg(policy, 0xfeed ^ seed);
                assert_eq!(
                    routed(n, &cfg, dynamic, &messages),
                    expected(n, &cfg, dynamic, &messages),
                    "seed {seed}, {policy:?}, dynamic={dynamic}"
                );
            }
        }
    }
}

/// `SCHEDULE_CACHE_BYTES` in `crates/clique/src/schedule.rs`.
const CACHE_BUDGET: usize = 8 << 20;

/// Routes one shape of `per_node` one-word messages from every node of a
/// 13-clique — about `234 · per_node` bytes of schedule — distinct per
/// `salt`, and returns the words delivered and the cache's bytes afterwards.
fn route_filler(cfg: &CliqueConfig, per_node: usize, salt: usize) -> (u64, usize) {
    let n = 13;
    let mut c = Clique::with_config(n, cfg.clone());
    let inbox = c.route_par(|v| {
        let mut out = Outbox::new();
        for k in 0..per_node {
            out.message((v + k + salt) % n)
                .push((v * per_node + k) as u64);
        }
        out
    });
    let delivered = (0..n).map(|dst| inbox.total_received(dst) as u64).sum();
    (delivered, route_schedule_stats().2)
}

#[test]
fn schedules_are_drawn_once_per_shape_and_redrawn_after_eviction() {
    let _serial = serial();
    let n = 13;
    for policy in [RelayPolicy::TwoChoice, RelayPolicy::SingleHash] {
        let cfg = cfg(policy, 0xcac4e);
        let messages = stress_pattern(n, 5);
        let want = expected(n, &cfg, false, &messages);

        let (hits, misses, _) = route_schedule_stats();
        assert_eq!(routed(n, &cfg, false, &messages), want, "{policy:?} cold");
        let (h, m, bytes) = route_schedule_stats();
        assert_eq!((h, m), (hits, misses + 1), "{policy:?}: first use draws");
        assert!(bytes > 0 && bytes <= CACHE_BUDGET);

        assert_eq!(routed(n, &cfg, false, &messages), want, "{policy:?} warm");
        assert_eq!(
            route_schedule_stats(),
            (hits + 1, misses + 1, bytes),
            "{policy:?}: second use is served from the cache"
        );

        // A dynamic step looks nothing up and stores nothing.
        let dynamic = routed(n, &cfg, true, &messages);
        assert_eq!(dynamic, expected(n, &cfg, true, &messages));
        assert_eq!(route_schedule_stats(), (hits + 1, misses + 1, bytes));

        // Four other shapes of ≈ 4.7 MB each push the first one out.
        for salt in 0..4 {
            let (delivered, bytes) = route_filler(&cfg, 20_000, salt);
            assert_eq!(delivered, 13 * 20_000);
            assert!(bytes <= CACHE_BUDGET, "the cache outgrew its budget");
        }
        assert_eq!(route_schedule_stats().1, misses + 5);
        assert_eq!(
            routed(n, &cfg, false, &messages),
            want,
            "{policy:?} evicted"
        );
        let (h, m, bytes) = route_schedule_stats();
        assert_eq!(
            (h, m),
            (hits + 1, misses + 6),
            "{policy:?}: evicted, so redrawn"
        );
        assert!(bytes <= CACHE_BUDGET);
    }
}

#[test]
fn a_schedule_larger_than_the_budget_is_used_once_and_not_kept() {
    let _serial = serial();
    let n = 13;
    let cfg = cfg(RelayPolicy::TwoChoice, 0xb16);
    // 70 000 one-word messages per node: ≈ 9.1 MB of shape and relays.
    let messages: Vec<Vec<(usize, Vec<u64>)>> = (0..n)
        .map(|v| {
            (0..70_000)
                .map(|k| ((v + k) % n, vec![(v ^ k) as u64]))
                .collect()
        })
        .collect();
    let want = expected(n, &cfg, false, &messages);
    let (hits, misses, bytes) = route_schedule_stats();
    for pass in 1..=2 {
        assert_eq!(routed(n, &cfg, false, &messages), want, "pass {pass}");
        assert_eq!(
            route_schedule_stats(),
            (hits, misses + pass, bytes),
            "an over-budget schedule is drawn per call and evicts nothing"
        );
    }
}

#[test]
fn a_step_whose_compiled_tables_would_not_fit_is_drawn_per_call() {
    let _serial = serial();
    let n = 13;
    let cfg = cfg(RelayPolicy::SingleHash, 0x7ab1e);
    // 60 000 one-word messages per node: ≈ 7.8 MB of shape and relays, which
    // fit the budget, but ≈ 14 MB with slot tables, which do not.
    let messages: Vec<Vec<(usize, Vec<u64>)>> = (0..n)
        .map(|v| {
            (0..60_000)
                .map(|k| ((v + 2 * k) % n, vec![(v * k) as u64]))
                .collect()
        })
        .collect();
    let want = expected(n, &cfg, false, &messages);
    let (hits, misses, bytes) = route_schedule_stats();
    for pass in 1..=2 {
        assert_eq!(routed(n, &cfg, false, &messages), want, "pass {pass}");
        assert_eq!(
            route_schedule_stats(),
            (hits, misses + pass, bytes),
            "no tables are built or kept for a step routed once"
        );
    }
}

#[test]
fn message_order_and_empty_messages_are_part_of_the_shape() {
    let _serial = serial();
    let n = 13;
    let cfg = cfg(RelayPolicy::TwoChoice, 0x0de4);
    let forward = stress_pattern(n, 11);
    // The same set of messages, every node's list reversed: the two-choice
    // rule sees different running loads, so the relays differ.
    let mut reversed = forward.clone();
    reversed.iter_mut().for_each(|msgs| msgs.reverse());
    // And the first pattern with one empty message slipped in.
    let mut padded = forward.clone();
    padded[4].insert(0, (9, vec![]));
    assert_ne!(
        expected(n, &cfg, false, &forward).fingerprints,
        expected(n, &cfg, false, &reversed).fingerprints,
        "the pair must tell a shared schedule apart"
    );
    // Interleaved, cold then warm: each pattern keeps getting its own answer.
    for round in 0..2 {
        for (name, messages) in [
            ("forward", &forward),
            ("reversed", &reversed),
            ("padded", &padded),
        ] {
            assert_eq!(
                routed(n, &cfg, false, messages),
                expected(n, &cfg, false, messages),
                "{name}, round {round}"
            );
        }
    }
}

#[test]
fn cliques_of_different_size_and_seed_share_the_cache_without_mixing() {
    let _serial = serial();
    // Same pattern seed throughout: only n and route_seed tell the keys apart.
    let cases = [(13, 0xa11ce), (11, 0xa11ce), (13, 0xb0b)];
    for policy in [RelayPolicy::TwoChoice, RelayPolicy::SingleHash] {
        for round in 0..3 {
            for (n, route_seed) in cases {
                let cfg = cfg(policy, route_seed);
                let messages = stress_pattern(n, 3);
                assert_eq!(
                    routed(n, &cfg, false, &messages),
                    expected(n, &cfg, false, &messages),
                    "{policy:?} n={n} seed={route_seed:#x} round {round}"
                );
            }
        }
    }
}

#[test]
fn concurrent_routers_of_different_shapes_stay_correct() {
    let _serial = serial();
    let n = 13;
    let cfg = cfg(RelayPolicy::TwoChoice, 0x7177);
    let patterns = [stress_pattern(n, 41), stress_pattern(n, 42)];
    // Both threads look up, draw and insert at the same moments: the barrier
    // releases them into every iteration together, and the fillers keep
    // evicting what the other thread just stored.
    let start = Barrier::new(patterns.len());
    let outcomes: Vec<Vec<(reference::Outcome, usize)>> = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..patterns.len())
            .map(|t| {
                let (cfg, start, messages) = (&cfg, &start, &patterns[t]);
                scope.spawn(move || {
                    (0..6)
                        .map(|i| {
                            start.wait();
                            let got = routed(n, cfg, false, messages);
                            let (_, bytes) = route_filler(cfg, 30_000, 100 + 10 * t + i % 2);
                            (got, bytes)
                        })
                        .collect()
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("router thread panicked"))
            .collect()
    });
    // Compared only after both threads are done: a failed assertion between
    // two barrier waits would leave the other thread waiting for ever.
    for (t, (got, messages)) in outcomes.iter().zip(&patterns).enumerate() {
        let want = expected(n, &cfg, false, messages);
        for (i, (outcome, bytes)) in got.iter().enumerate() {
            assert_eq!(*outcome, want, "thread {t}, pass {i}");
            assert!(*bytes <= CACHE_BUDGET, "the cache outgrew its budget");
        }
    }
}
