//! Triangle counting as a [`NodeProgram`] state machine (Corollary 2 on
//! the runtime engine).
//!
//! [`crate::count_triangles_3d`] is coordinator-style: a driver closure per
//! communication step, with the simulator moving the words. This module
//! expresses the *same* algorithm — the 3D semiring product `A²` (paper
//! §2.1) followed by the distributed trace `tr(A²·A)` — as a per-node state
//! machine driven round-by-round by [`cc_clique::Clique::run_programs`]:
//! every node owns its adjacency row, computes only on its own state and
//! inbox, and the engine's round barrier is the only synchronisation.
//!
//! ## Balanced routing without a coordinator
//!
//! The closure algorithm leans on [`cc_clique::Clique::route`] — balanced
//! Valiant relaying — for its scatter and gather. The communication pattern
//! of the 3D product is *oblivious* (it depends only on `n`, never on the
//! matrix contents), so the state machine can reproduce the exact same
//! relaying without headers and without a coordinator: every word is hashed
//! to its relay with the draw the simulator itself uses
//! ([`cc_clique::single_hash_relay`], the router's
//! [`cc_clique::RelayPolicy::SingleHash`] arm), and because the pattern and
//! the draw depend only on `(n, seed)`, the relays' forwarding schedule is
//! common knowledge. It is tabulated **once per process** ([`RelaySchedule`]:
//! for each route step, relay and source, the destinations of the words the
//! relay receives from that source, in stream order — one flat array behind
//! an `n² + 1` offset table) on the first forwarding round, and shared by
//! every node program of the in-process engine or of a worker process; a
//! relay forwards by zipping each received stream with its table row.
//! Destinations reassemble payloads by enumerating the messages addressed to
//! them. Per-round link loads — and therefore executed rounds, total words,
//! and the final count — are **identical** to [`crate::count_triangles_3d`]
//! on a `SingleHash` clique, which the tests pin exactly.
//!
//! Engine-round schedule (7 barriers):
//!
//! | round | action |
//! |-------|--------|
//! | 0 | scatter phase A: row slices → relays |
//! | 1 | scatter phase B: relays → subcube owners |
//! | 2 | block product; gather phase A: partial rows → relays |
//! | 3 | gather phase B: relays → row owners |
//! | 4 | assemble row of `A²`; transpose sends for the trace |
//! | 5 | local dot product; broadcast it |
//! | 6 | sum broadcasts → `tr(A²·A)`; halt |

use cc_clique::{single_hash_relay, Clique, Control, NodeProgram, RoundCtx, WireProgram};
use cc_core::Plan3d;
use cc_graph::Graph;
use std::sync::{Arc, Mutex};

/// One route step of the oblivious 3D pattern: the `(dst, words)` message
/// list a given source emits, in emission order, with only the *lengths*
/// recorded — every node can tabulate any other node's list from `n`
/// alone, which is what lets relays forward without headers.
fn scatter_pattern(plan: &Plan3d, src: usize) -> Vec<(usize, usize)> {
    let p = plan.p();
    let rb = plan.block_of_row(src);
    let mut out = Vec::with_capacity(2 * p * p);
    // S[src, u₂∗] slices to every active (rb, u₂, u₃)…
    for u2 in 0..p {
        let len = plan.block_range(u2).len();
        for u3 in 0..p {
            out.push((plan.node_of(rb, u2, u3), len));
        }
    }
    // …then T[src, u₃∗] slices to every active (u₁, rb, u₃), exactly the
    // emission order of `semiring_mm`'s scatter generator.
    for u3 in 0..p {
        let len = plan.block_range(u3).len();
        for u1 in 0..p {
            out.push((plan.node_of(u1, rb, u3), len));
        }
    }
    out
}

/// The gather step's pattern: active node `src = (u₁, u₂, u₃)` returns one
/// partial-product row slice (length `|block(u₃)|`) to each row owner in
/// `block(u₁)`; inactive nodes return nothing.
fn gather_pattern(plan: &Plan3d, src: usize) -> Vec<(usize, usize)> {
    if src >= plan.active() {
        return Vec::new();
    }
    let (u1, _, u3) = plan.digits(src);
    let len = plan.block_range(u3).len();
    plan.block_range(u1).map(|r| (r, len)).collect()
}

/// The forwarding schedule of one oblivious route step: for relay `r` and
/// source `s`, the destinations of the words `r` receives from `s`, in
/// stream order. Laid out flat, like the transport's link slabs — row
/// `r * n + s` is `dsts[offsets[r * n + s]..offsets[r * n + s + 1]]` — and
/// built by the same two-pass counting sort.
#[derive(Debug)]
struct StepTable {
    n: usize,
    offsets: Vec<u32>,
    dsts: Vec<u32>,
}

impl StepTable {
    fn build(n: usize, seed: u64, pattern: impl Fn(usize) -> Vec<(usize, usize)>) -> Self {
        let patterns: Vec<Vec<(usize, usize)>> = (0..n).map(pattern).collect();
        let words = || {
            patterns.iter().enumerate().flat_map(|(src, messages)| {
                messages
                    .iter()
                    .flat_map(move |&(dst, len)| (0..len).map(move |j| (src, dst, j)))
            })
        };
        // Pass one: draw every word's relay and size every row.
        let mut cursor = vec![0u32; n * n];
        let relays: Vec<u32> = words()
            .map(|(src, dst, j)| {
                let relay = single_hash_relay(seed, n, src, dst, j);
                cursor[relay * n + src] += 1;
                relay as u32
            })
            .collect();
        let mut offsets = Vec::with_capacity(n * n + 1);
        let mut at = 0u32;
        for c in &mut cursor {
            offsets.push(at);
            at += std::mem::replace(c, at);
        }
        offsets.push(at);
        // Pass two: scatter the destinations, in the sources' stream order.
        let mut dsts = vec![0u32; at as usize];
        for ((src, dst, _), relay) in words().zip(relays) {
            let c = &mut cursor[relay as usize * n + src];
            dsts[*c as usize] = dst as u32;
            *c += 1;
        }
        Self { n, offsets, dsts }
    }

    /// Where `relay` forwards the words it received from `src`, in order.
    fn row(&self, relay: usize, src: usize) -> &[u32] {
        let at = relay * self.n + src;
        &self.dsts[self.offsets[at] as usize..self.offsets[at + 1] as usize]
    }
}

/// Both route steps' forwarding schedules for one `(n, seed)`.
#[derive(Debug)]
struct RelaySchedule {
    n: usize,
    seed: u64,
    scatter: StepTable,
    gather: StepTable,
}

impl RelaySchedule {
    /// The schedule for `(n, seed)`: tabulated on first use and then shared
    /// by every node program in the process. Only the last-used schedule is
    /// kept, so the cache cannot grow; a process alternating between cliques
    /// rebuilds it on each switch.
    fn shared(n: usize, seed: u64) -> Arc<Self> {
        static LAST_USED: Mutex<Option<Arc<RelaySchedule>>> = Mutex::new(None);
        // A panic while holding the lock can only come from the build below,
        // which leaves the previous entry (or none) in place.
        let mut last = LAST_USED
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        match &*last {
            Some(hit) if hit.n == n && hit.seed == seed => hit.clone(),
            _ => {
                let plan = Plan3d::new(n);
                let built = Arc::new(Self {
                    n,
                    seed,
                    scatter: StepTable::build(n, seed, |src| scatter_pattern(&plan, src)),
                    gather: StepTable::build(n, seed, |src| gather_pattern(&plan, src)),
                });
                *last = Some(built.clone());
                built
            }
        }
    }
}

/// Phase A of a route step: split this node's real messages word-by-word
/// over the hashed relays, preserving the global enumeration order so
/// relays and destinations can reconstruct the streams.
fn send_via_relays(ctx: &mut RoundCtx<'_>, seed: u64, messages: &[(usize, Vec<u64>)]) {
    let n = ctx.n();
    let src = ctx.node();
    let mut per_relay: Vec<Vec<u64>> = vec![Vec::new(); n];
    for (dst, words) in messages {
        for (j, &w) in words.iter().enumerate() {
            per_relay[single_hash_relay(seed, n, src, *dst, j)].push(w);
        }
    }
    for (relay, words) in per_relay.into_iter().enumerate() {
        if !words.is_empty() {
            ctx.send(relay, words);
        }
    }
}

/// Phase B of a route step: forward every word this node relayed to its
/// final destination, read off the step's tabulated schedule (no headers on
/// the wire — the pattern is common knowledge).
///
/// # Panics
///
/// Panics if a source's stream is not exactly as long as the schedule says:
/// the sender ran a different pattern, and forwarding would misdeliver.
fn forward_as_relay(ctx: &mut RoundCtx<'_>, table: &StepTable) {
    let n = ctx.n();
    let me = ctx.node();
    let mut per_dst: Vec<Vec<u64>> = vec![Vec::new(); n];
    for src in 0..n {
        let stream = ctx.received(src);
        let row = table.row(me, src);
        assert_eq!(
            stream.len(),
            row.len(),
            "relay stream does not match the forwarding schedule \
             (relay {me}, source {src})"
        );
        for (&word, &dst) in stream.iter().zip(row) {
            per_dst[dst as usize].push(word);
        }
    }
    for (dst, words) in per_dst.into_iter().enumerate() {
        if !words.is_empty() {
            ctx.send(dst, words);
        }
    }
}

/// After phase B: reassemble, per source, the concatenated payloads of the
/// messages addressed to this node, in the source's emission order — the
/// exact view `Clique::route` would have delivered.
fn reassemble(
    ctx: &RoundCtx<'_>,
    seed: u64,
    pattern: impl Fn(usize) -> Vec<(usize, usize)>,
) -> Vec<Vec<u64>> {
    let n = ctx.n();
    let me = ctx.node();
    let mut cursors = vec![0usize; n]; // per-relay read positions
    let mut out: Vec<Vec<u64>> = vec![Vec::new(); n];
    for (src, out_src) in out.iter_mut().enumerate() {
        for (dst, len) in pattern(src) {
            if dst != me {
                continue;
            }
            for j in 0..len {
                let relay = single_hash_relay(seed, n, src, dst, j);
                let stream = ctx.received(relay);
                out_src.push(stream[cursors[relay]]);
                cursors[relay] += 1;
            }
        }
    }
    out
}

/// Triangle counting as a per-node state machine: the 3D product `A² = A·A`
/// over ℤ followed by the distributed trace `tr(A²·A)`, with every
/// communication step balanced by coordinator-free oblivious relaying. See
/// the module docs for the round schedule and the cost-parity contract.
#[derive(Debug, Clone)]
pub struct TriangleProgram {
    /// This node's adjacency row (the only graph knowledge it holds).
    row: Vec<i64>,
    directed: bool,
    /// Relay-balancing seed; must equal the clique's `route_seed` for load
    /// parity with the closure algorithm.
    seed: u64,
    plan: Plan3d,
    /// This node's row of `A²`, assembled in round 4.
    sq_row: Vec<i64>,
    /// The triangle count, set in the final round.
    count: Option<u64>,
}

impl TriangleProgram {
    /// Builds node `v`'s program. `seed` is the clique's `route_seed`.
    #[must_use]
    pub fn new(g: &Graph, v: usize, seed: u64) -> Self {
        let n = g.n();
        Self {
            row: (0..n).map(|u| i64::from(g.has_edge(v, u))).collect(),
            directed: g.is_directed(),
            seed,
            plan: Plan3d::new(n),
            sq_row: Vec::new(),
            count: None,
        }
    }

    /// The triangle count, once the program has halted.
    #[must_use]
    pub fn count(&self) -> Option<u64> {
        self.count
    }

    /// The scatter messages node `me` emits (lengths follow
    /// [`scatter_pattern`]; contents are its own row slices).
    fn scatter_messages(&self, me: usize) -> Vec<(usize, Vec<u64>)> {
        let plan = &self.plan;
        let p = plan.p();
        let my_rb = plan.block_of_row(me);
        let encode = |r: std::ops::Range<usize>| -> Vec<u64> {
            self.row[r].iter().map(|&x| x as u64).collect()
        };
        let mut out = Vec::with_capacity(2 * p * p);
        for u2 in 0..p {
            let payload = encode(plan.block_range(u2));
            for u3 in 0..p {
                out.push((plan.node_of(my_rb, u2, u3), payload.clone()));
            }
        }
        for u3 in 0..p {
            let payload = encode(plan.block_range(u3));
            for u1 in 0..p {
                out.push((plan.node_of(u1, my_rb, u3), payload.clone()));
            }
        }
        out
    }
}

impl WireProgram for TriangleProgram {
    const KIND: &'static str = "cc.triangle";

    fn encode_state(&self) -> Vec<u64> {
        // Layout: [directed, seed, count-flag, count, |sq_row|, sq_row…,
        // row…]. The plan is derived state — decode recomputes it from `n`.
        let mut state = Vec::with_capacity(5 + self.sq_row.len() + self.row.len());
        state.push(u64::from(self.directed));
        state.push(self.seed);
        state.push(u64::from(self.count.is_some()));
        state.push(self.count.unwrap_or(0));
        state.push(self.sq_row.len() as u64);
        state.extend(self.sq_row.iter().map(|&x| x as u64));
        state.extend(self.row.iter().map(|&x| x as u64));
        state
    }

    /// # Panics
    ///
    /// Panics if `state` is not an encoding for a clique of `n` nodes: no
    /// header, an `A²` row that is neither absent nor `n` long, or a total
    /// length other than header + `A²` row + adjacency row.
    fn decode_state(node: usize, n: usize, state: &[u64]) -> Self {
        let sq_len = state.get(4).map_or(usize::MAX, |&len| len as usize);
        assert!(
            (sq_len == 0 || sq_len == n) && state.len() == 5 + sq_len + n,
            "malformed cc.triangle state for node {node}: {} words for n={n}",
            state.len()
        );
        let (sq_row, row) = state[5..].split_at(sq_len);
        Self {
            row: row.iter().map(|&x| x as i64).collect(),
            directed: state[0] != 0,
            seed: state[1],
            plan: Plan3d::new(n),
            sq_row: sq_row.iter().map(|&x| x as i64).collect(),
            count: (state[2] != 0).then_some(state[3]),
        }
    }
}

impl NodeProgram for TriangleProgram {
    fn round(&mut self, ctx: &mut RoundCtx<'_>) -> Control {
        let n = ctx.n();
        let seed = self.seed;
        let plan = self.plan;
        match ctx.round() {
            // Scatter phase A: row slices word-hashed to relays.
            0 => {
                let msgs = self.scatter_messages(ctx.node());
                send_via_relays(ctx, seed, &msgs);
                Control::Continue
            }
            // Scatter phase B: forward as relay.
            1 => {
                forward_as_relay(ctx, &RelaySchedule::shared(n, seed).scatter);
                Control::Continue
            }
            // Block product on the subcube owners; gather phase A.
            2 => {
                let me = ctx.node();
                let mut msgs: Vec<(usize, Vec<u64>)> = Vec::new();
                if me < plan.active() {
                    let from = reassemble(ctx, seed, |src| scatter_pattern(&plan, src));
                    let (u1, u2, u3) = plan.digits(me);
                    let (r1, r2, r3) = (
                        plan.block_range(u1),
                        plan.block_range(u2),
                        plan.block_range(u3),
                    );
                    let (h1, h2, h3) = (r1.len(), r2.len(), r3.len());
                    // Decode S and T blocks exactly as `semiring_mm` does:
                    // senders emit the S slice first, then (when the row's
                    // block is u₂) the T slice.
                    let mut s_blk = vec![0i64; h1 * h2];
                    let mut t_blk = vec![0i64; h2 * h3];
                    for (idx, r) in r1.clone().enumerate() {
                        let vals = &from[r];
                        for j in 0..h2 {
                            s_blk[idx * h2 + j] = vals[j] as i64;
                        }
                    }
                    for (idx, r) in r2.clone().enumerate() {
                        let vals = &from[r];
                        let off = if plan.block_of_row(r) == u1 { h2 } else { 0 };
                        for j in 0..h3 {
                            t_blk[idx * h3 + j] = vals[off + j] as i64;
                        }
                    }
                    // Schoolbook block product (ℤ, like IntRing).
                    let mut prod = vec![0i64; h1 * h3];
                    for i in 0..h1 {
                        for k in 0..h2 {
                            let s = s_blk[i * h2 + k];
                            if s == 0 {
                                continue;
                            }
                            for j in 0..h3 {
                                prod[i * h3 + j] += s * t_blk[k * h3 + j];
                            }
                        }
                    }
                    msgs = plan
                        .block_range(u1)
                        .enumerate()
                        .map(|(idx, r)| {
                            (
                                r,
                                prod[idx * h3..(idx + 1) * h3]
                                    .iter()
                                    .map(|&x| x as u64)
                                    .collect(),
                            )
                        })
                        .collect();
                }
                send_via_relays(ctx, seed, &msgs);
                Control::Continue
            }
            // Gather phase B: forward as relay.
            3 => {
                forward_as_relay(ctx, &RelaySchedule::shared(n, seed).gather);
                Control::Continue
            }
            // Assemble the A² row; start the trace's transpose exchange.
            4 => {
                let me = ctx.node();
                let from = reassemble(ctx, seed, |src| gather_pattern(&plan, src));
                let p = plan.p();
                let rb = plan.block_of_row(me);
                let mut row = vec![0i64; n];
                for u2 in 0..p {
                    for u3 in 0..p {
                        // Active node (rb, u₂, u₃) addressed this row owner
                        // exactly one message — its partial-product slice
                        // over block(u₃) — so `from[u]` is that slice
                        // verbatim; accumulate in (u₂, u₃) order exactly
                        // like the closure algorithm's step 4.
                        let u = plan.node_of(rb, u2, u3);
                        let vals = &from[u];
                        for (slot, j) in plan.block_range(u3).enumerate() {
                            row[j] += vals[slot] as i64;
                        }
                    }
                }
                self.sq_row = row;
                // Transpose for the trace: send A[me][u] to u, one word per
                // ordered pair, exactly like `traces::transpose`.
                for u in 0..n {
                    if u != me {
                        ctx.send(u, vec![self.row[u] as u64]);
                    }
                }
                Control::Continue
            }
            // Local dot product; broadcast it (the `sum_all` of the trace).
            5 => {
                let me = ctx.node();
                let dot: i64 = (0..n)
                    .map(|v| {
                        let yt = if v == me {
                            self.row[me]
                        } else {
                            ctx.received(v)[0] as i64
                        };
                        self.sq_row[v] * yt
                    })
                    .sum();
                ctx.broadcast(vec![dot as u64]);
                Control::Continue
            }
            // Sum the broadcast dots: the trace, hence the count.
            _ => {
                let mut trace = 0i64;
                for src in 0..n {
                    for slab in ctx.broadcasts_from(src) {
                        trace += slab[0] as i64;
                    }
                }
                let denom = if self.directed { 3 } else { 6 };
                debug_assert_eq!(trace % denom, 0, "trace {trace} not divisible");
                self.count = Some((trace / denom) as u64);
                Control::Halt
            }
        }
    }
}

/// Runs [`TriangleProgram`] on the clique's engine and returns the count
/// every node agreed on.
///
/// Round-cost parity with [`crate::count_triangles_3d`] holds when the
/// clique uses [`cc_clique::RelayPolicy::SingleHash`] (the program's
/// header-free relaying reproduces that policy's hash exactly); under
/// two-choice relaying the counts still agree and the costs differ only by
/// the policy's balancing slack.
///
/// The programs go through [`Clique::run_wire_programs`], so on a
/// program-resident fabric (`CC_TRANSPORT=tcp-peer`) the per-node state
/// machines execute inside the worker processes and exchange rounds
/// directly with each other — with the count, rounds, words, and
/// fingerprints bit-identical to every other backend.
///
/// # Panics
///
/// Panics if `clique.n() != g.n()`.
pub fn count_triangles_program(clique: &mut Clique, g: &Graph) -> u64 {
    let n = clique.n();
    assert_eq!(g.n(), n, "graph and clique sizes must match");
    let seed = clique.config().route_seed;
    let programs = (0..n).map(|v| TriangleProgram::new(g, v, seed)).collect();
    let done = clique.phase("triangles_program", |c| c.run_wire_programs(programs));
    let count = done[0].count().expect("program ran to completion");
    debug_assert!(
        done.iter().all(|p| p.count() == Some(count)),
        "all nodes must agree on the count"
    );
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::triangles::count_triangles_3d;
    use cc_clique::{CliqueConfig, ExecutorKind, RelayPolicy};
    use cc_graph::{generators, oracle};
    use cc_runtime::{LinkSlab, NodeInbox};

    /// A clique whose routing policy the program's header-free relaying
    /// reproduces exactly.
    fn single_hash_clique(n: usize, executor: ExecutorKind) -> Clique {
        Clique::with_config(
            n,
            CliqueConfig {
                relay_policy: RelayPolicy::SingleHash,
                executor,
                exec_cutover: Some(2),
                ..CliqueConfig::default()
            },
        )
    }

    #[test]
    fn counts_match_the_oracle() {
        for g in [
            generators::complete(9),
            generators::petersen(),
            generators::grid(3, 4),
            generators::gnp(20, 0.3, 7),
            generators::gnp(27, 0.25, 3),
        ] {
            let mut clique = single_hash_clique(g.n(), ExecutorKind::Sequential);
            assert_eq!(
                count_triangles_program(&mut clique, &g),
                oracle::count_triangles(&g),
                "n={} m={}",
                g.n(),
                g.m()
            );
        }
    }

    #[test]
    fn directed_counts_match() {
        for seed in 0..3 {
            let g = generators::gnp_directed(15, 0.2, seed);
            let mut clique = single_hash_clique(15, ExecutorKind::Sequential);
            assert_eq!(
                count_triangles_program(&mut clique, &g),
                oracle::count_triangles(&g),
                "seed={seed}"
            );
        }
    }

    /// The satellite contract: the state machine's counts *and* round
    /// costs match the closure-based `count_triangles` algorithm (its 3D
    /// engine, on the routing policy the program replicates) — not merely
    /// approximately, but word-for-word and round-for-round.
    #[test]
    fn counts_and_round_costs_match_count_triangles() {
        for (n, p, seed) in [(16usize, 0.4, 1u64), (27, 0.3, 2), (30, 0.25, 5)] {
            let g = generators::gnp(n, p, seed);

            let mut closure_clique = single_hash_clique(n, ExecutorKind::Sequential);
            let closure_count = count_triangles_3d(&mut closure_clique, &g);

            let mut program_clique = single_hash_clique(n, ExecutorKind::Sequential);
            let program_count = count_triangles_program(&mut program_clique, &g);

            assert_eq!(program_count, closure_count, "n={n} counts must match");
            assert_eq!(
                program_clique.rounds(),
                closure_clique.rounds(),
                "n={n} round costs must match the closure algorithm"
            );
            assert_eq!(
                program_clique.stats().words(),
                closure_clique.stats().words(),
                "n={n} word costs must match the closure algorithm"
            );
        }
    }

    #[test]
    fn program_is_executor_independent() {
        let g = generators::gnp(24, 0.3, 11);
        let run = |kind: ExecutorKind| {
            let mut clique = single_hash_clique(24, kind);
            let count = count_triangles_program(&mut clique, &g);
            (count, clique.rounds(), clique.stats().words())
        };
        let seq = run(ExecutorKind::Sequential);
        let pooled = run(ExecutorKind::Parallel { threads: 4 });
        assert_eq!(seq, pooled, "pooled backend must match sequential");
        assert_eq!(seq.0, oracle::count_triangles(&g));
    }

    #[test]
    fn wire_state_round_trips_mid_run_and_after_halt() {
        // The resident contract: encode/decode must reproduce the program
        // exactly at *any* barrier, not just before round 0 — workers
        // re-encode final states for collection, and a decoded program must
        // behave bit-identically from wherever it was snapshotted.
        let g = generators::gnp(12, 0.4, 9);
        let mut clique = single_hash_clique(12, ExecutorKind::Sequential);
        let done = clique.phase("t", |c| {
            c.run_programs((0..12).map(|v| TriangleProgram::new(&g, v, 7)).collect())
        });
        for (node, p) in done.iter().enumerate() {
            let back = TriangleProgram::decode_state(node, 12, &WireProgram::encode_state(p));
            assert_eq!(back.row, p.row, "node {node}");
            assert_eq!(back.sq_row, p.sq_row, "node {node}");
            assert_eq!(back.count, p.count, "node {node}");
            assert_eq!(back.seed, p.seed);
            assert_eq!(back.directed, p.directed);
        }
        // Pre-run state (empty sq_row, no count) survives the trip too.
        let fresh = TriangleProgram::new(&g, 3, 7);
        let back = TriangleProgram::decode_state(3, 12, &WireProgram::encode_state(&fresh));
        assert_eq!(back.sq_row, fresh.sq_row);
        assert_eq!(back.count, None);
    }

    /// The schedule as every relay used to derive it: enumerate the whole
    /// pattern and keep the words whose relay draw is `me`.
    fn enumerated_rows(
        n: usize,
        seed: u64,
        me: usize,
        pattern: impl Fn(usize) -> Vec<(usize, usize)>,
    ) -> Vec<Vec<u32>> {
        (0..n)
            .map(|src| {
                let mut row = Vec::new();
                for (dst, len) in pattern(src) {
                    for j in 0..len {
                        if single_hash_relay(seed, n, src, dst, j) == me {
                            row.push(dst as u32);
                        }
                    }
                }
                row
            })
            .collect()
    }

    #[test]
    fn tabulated_schedule_equals_the_per_relay_enumeration() {
        for (n, seed) in [(8usize, 3u64), (27, 0x5eed_c11e), (30, 7), (64, u64::MAX)] {
            let plan = Plan3d::new(n);
            let schedule = RelaySchedule::shared(n, seed);
            for me in 0..n {
                let scatter = enumerated_rows(n, seed, me, |src| scatter_pattern(&plan, src));
                let gather = enumerated_rows(n, seed, me, |src| gather_pattern(&plan, src));
                for src in 0..n {
                    assert_eq!(
                        schedule.scatter.row(me, src),
                        scatter[src],
                        "scatter n={n} relay={me} src={src}"
                    );
                    assert_eq!(
                        schedule.gather.row(me, src),
                        gather[src],
                        "gather n={n} relay={me} src={src}"
                    );
                }
            }
        }
    }

    #[test]
    fn alternating_cliques_each_get_their_own_schedule() {
        // One process, one cache entry: two cliques of different size and
        // different route seed take turns, and every run must be forwarded
        // by its own (n, seed) schedule.
        let cliques = [(12usize, 11u64), (20, 0xfeed)];
        for turn in 0..4u64 {
            let (n, route_seed) = cliques[turn as usize % 2];
            let g = generators::gnp(n, 0.4, turn);
            let mut clique = Clique::with_config(
                n,
                CliqueConfig {
                    relay_policy: RelayPolicy::SingleHash,
                    route_seed,
                    ..CliqueConfig::default()
                },
            );
            assert_eq!(
                count_triangles_program(&mut clique, &g),
                oracle::count_triangles(&g),
                "turn {turn}: n={n} seed={route_seed}"
            );
        }
    }

    /// Steps relay 0 of an 8-clique through its first forwarding round with
    /// `delta` words more (or fewer) from source 1 than the schedule says.
    fn forward_with_a_wrong_stream(delta: isize) {
        let (n, seed) = (8usize, 5u64);
        let g = generators::gnp(n, 0.5, 1);
        let schedule = RelaySchedule::shared(n, seed);
        let mut unicast: Vec<Vec<u64>> = (0..n)
            .map(|src| vec![0; schedule.scatter.row(0, src).len()])
            .collect();
        let len = unicast[1].len() as isize + delta;
        unicast[1].resize(len as usize, 0);
        let runs = unicast.iter().enumerate().map(|(src, w)| (src, 0, &w[..]));
        let (unicast, lanes) = (LinkSlab::from_runs(n, runs), vec![Vec::new(); n]);
        let mut program = TriangleProgram::new(&g, 0, seed);
        let _ = cc_runtime::step_node(&mut program, 1, NodeInbox::new(&unicast, &lanes, 0));
    }

    #[test]
    #[should_panic(expected = "relay stream does not match the forwarding schedule")]
    fn a_relay_stream_longer_than_its_schedule_row_is_refused() {
        forward_with_a_wrong_stream(1);
    }

    #[test]
    #[should_panic(expected = "relay stream does not match the forwarding schedule")]
    fn a_relay_stream_shorter_than_its_schedule_row_is_refused() {
        forward_with_a_wrong_stream(-1);
    }

    /// A well-formed pre-run state for node 2 of a 6-clique.
    fn fresh_state() -> Vec<u64> {
        let g = generators::gnp(6, 0.5, 2);
        WireProgram::encode_state(&TriangleProgram::new(&g, 2, 9))
    }

    #[test]
    #[should_panic(expected = "malformed cc.triangle state")]
    fn a_state_shorter_than_its_header_is_refused() {
        let _ = TriangleProgram::decode_state(2, 6, &fresh_state()[..4]);
    }

    #[test]
    #[should_panic(expected = "malformed cc.triangle state")]
    fn a_state_with_a_partial_square_row_is_refused() {
        // Claims a 3-word A² row on a 6-clique; the total length is kept
        // consistent with the claim so only the row length is wrong.
        let mut state = fresh_state();
        state[4] = 3;
        state.extend([0; 3]);
        let _ = TriangleProgram::decode_state(2, 6, &state);
    }

    #[test]
    #[should_panic(expected = "malformed cc.triangle state")]
    fn a_state_whose_rows_do_not_fill_it_is_refused() {
        let mut state = fresh_state();
        state.pop();
        let _ = TriangleProgram::decode_state(2, 6, &state);
    }

    #[test]
    fn two_choice_policy_still_counts_correctly() {
        // Under two-choice relaying the loads differ (the program replays
        // the single-hash policy), but the delivered words — and the count
        // — are identical.
        let g = generators::gnp(18, 0.35, 4);
        let mut clique = Clique::new(18);
        assert_eq!(
            count_triangles_program(&mut clique, &g),
            oracle::count_triangles(&g)
        );
    }
}
